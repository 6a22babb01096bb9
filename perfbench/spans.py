"""Spans around the public functions of each ``benford_lab`` module.

The tracer replaces a function on the module object the caller looks it up
in (``collatz.ratio_digit_experiment`` for the CLI, ``benford_stats.
star_discrepancy`` for ``discrepancy_report``), so spans nest under the
``cli.main`` span of the command that caused them.  Spans are kept in memory
as (id, parent, name, start, end, request, label, counts) and written out
when the run ends.  Per-call primitives (``leading_digit``, ``step``) are not
wrapped; the trajectory replay aggregates them as a count plus total time.
Tracing costs the spans recorded times ``Tracer.span_cost_s()``.
"""

from __future__ import annotations

import json
import statistics
import threading
from contextlib import contextmanager
from time import perf_counter

SPAN_COST_CALLS = 20_000


def _base(args, kwargs):
    return f"b{args[2] if len(args) > 2 else kwargs['base']}"


def _mode(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["mode"]


def _dim(args, kwargs):
    return f"n{args[0]}"


def _scan_counts(r):
    points = r.histogram.total + len(r.skipped) + len(r.failures)
    return {"refined": r.refined, "skipped": len(r.skipped), "points": points}


# (module, attribute, labeller, counter); the span name is module.attribute
WRAPPED = [
    ("cli", "emit", None, None),
    ("cli", "random_bignat", None, None),
    ("collatz", "census_1mod6", None, None),
    ("collatz", "ratio_digit_experiment", _base, None),
    ("collatz", "kvalue_histogram", None, None),
    ("collatz", "ratio_fracs", None, None),
    ("collatz", "geometric_model_points", None, None),
    ("collatz", "ks_distance", None, None),
    ("collatz", "iterate_digit_experiment", _mode,
     lambda r: {"n_recorded": r.n_recorded}),
    ("zeta", "scan_line", None, _scan_counts),
    ("rmt", "cue_experiment", _dim, lambda r: {"resampled": r.resampled}),
    ("equidist", "kalpha_points", None, None),
    ("equidist", "log_ratio", None, None),
    ("benford_stats", "z_statistics", None, None),
    ("benford_stats", "chi_square", None, None),
    ("benford_stats", "discrepancy_report", None, None),
    ("benford_stats", "star_discrepancy", None, None),
    ("benford_stats", "extreme_discrepancy", None, None),
    ("benford_stats", "erdos_turan_bound", None, None),
]

# where a wrapped name really lives, for span names
HOME = {"random_bignat": "core_numeric"}


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = None
        self._local = threading.local()
        self._saved = []

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name, label=None):
        stack = self._stack()
        rec = {"id": len(self.spans), "parent": stack[-1] if stack else None,
               "name": name, "request": self.request, "label": label,
               "start": perf_counter(), "end": None, "counts": None}
        self.spans.append(rec)
        stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            stack.pop()

    def _wrapper(self, fn, name, labeller, counter):
        def traced(*args, **kwargs):
            label = labeller(args, kwargs) if labeller else None
            with self.span(name, label) as rec:
                result = fn(*args, **kwargs)
                if counter:
                    rec["counts"] = counter(result)
            return result
        return traced

    def install(self, modules) -> None:
        for mod_name, attr, labeller, counter in WRAPPED:
            mod = modules[mod_name]
            fn = getattr(mod, attr)
            name = f"{HOME.get(attr, mod_name)}.{attr}"
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrapper(fn, name, labeller, counter))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def span_cost_s(self) -> float:
        """Seconds one wrapped call costs over a plain call: the median of
        five timed batches of SPAN_COST_CALLS no-op calls, with a scratch
        span list."""
        def noop():
            return None

        saved, self.spans = self.spans, []
        wrapped = self._wrapper(noop, "noop", None, None)
        costs = []
        try:
            for _ in range(5):
                t = perf_counter()
                for _ in range(SPAN_COST_CALLS):
                    noop()
                plain = perf_counter() - t
                self.spans.clear()
                t = perf_counter()
                for _ in range(SPAN_COST_CALLS):
                    wrapped()
                costs.append((perf_counter() - t - plain) / SPAN_COST_CALLS)
        finally:
            self.spans = saved
        return statistics.median(costs)

    # ------------------------------------------------------------ queries --

    def select(self, name, request=None, label=None):
        return [s for s in self.spans if s["name"] == name
                and (request is None or s["request"] == request)
                and (label is None or s["label"] == label)]

    def seconds(self, name, request=None, label=None):
        """Mean duration of the matching spans."""
        spans = self.select(name, request, label)
        if not spans:
            raise KeyError(f"no span {name} {request} {label}")
        return sum(s["end"] - s["start"] for s in spans) / len(spans)

    def self_time_outside_library(self, span) -> float:
        """Duration of ``span`` minus its direct children outside ``cli``."""
        lib = sum(c["end"] - c["start"] for c in self.spans
                  if c["parent"] == span["id"]
                  and not c["name"].startswith("cli."))
        return (span["end"] - span["start"]) - lib

    def dump(self, path, extra) -> None:
        t0 = self.spans[0]["start"] if self.spans else 0.0
        rows = [dict(s, start=s["start"] - t0, end=s["end"] - t0)
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, **extra}, fh)
