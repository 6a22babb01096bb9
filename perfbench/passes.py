"""Timed passes over a list of CLI commands, in a process of their own.

    python3 perfbench/passes.py < job.json

The job is {"commands": [[key, argv], ...], "seconds": S, "out": dir}.
Passes run until the next would overrun S seconds, with at least
MIN_PASSES.  Nothing is checked here: each output goes to
``<out>/<pass>.<key>.out`` and the parent checks it, so that this process's
peak RSS is the program's alone (interpreter, imports, commands and their
output buffers) and not the checker's.  The reference workload of
``speed`` runs before the first command and after each.  The last stdout
line is JSON: per-command seconds and failure texts, pass seconds and
``ru_maxrss``.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

import speed

MIN_PASSES = 2


def execute(main, argv, out, span=contextlib.nullcontext()):
    """Run ``main(argv)`` with stdout to ``out``: (seconds, why it failed or
    '').  A non-zero exit or an exception is a failure."""
    gc.collect()
    err = io.StringIO()
    rc, why = None, ""
    t = perf_counter()
    try:
        with span, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:          # argparse rejects its input
        rc = exc.code
    except Exception:                  # noqa: BLE001 - counted as failed
        why = "raised: " + traceback.format_exc(limit=3).strip() \
            .splitlines()[-1]
    dt = perf_counter() - t
    if not why and rc != 0:
        why = f"exit code {rc}: {err.getvalue().strip()[:200]}"
    return dt, why


def run_passes(main, job: dict) -> dict:
    """Per command and pass: raw seconds, nominal seconds (``speed``) and
    why it failed ('' if it did not)."""
    keys = [key for key, _ in job["commands"]]
    raw = {key: [] for key in keys}
    nominal = {key: [] for key in keys}
    why = {key: [] for key in keys}
    passes = []
    t_loop = perf_counter()
    refs = [speed.reference_s()]
    while True:
        t_pass = perf_counter()
        for key, argv in job["commands"]:
            path = os.path.join(job["out"], f"{len(passes)}.{key}.out")
            with open(path, "w", encoding="utf-8") as out:
                dt, failed = execute(main, argv, out)
            refs.append(speed.reference_s())
            raw[key].append(dt)
            nominal[key].append(speed.nominal(dt, refs[-2], refs[-1]))
            why[key].append(failed)
        passes.append(perf_counter() - t_pass)
        elapsed = perf_counter() - t_loop
        if len(passes) >= MIN_PASSES and \
                elapsed + statistics.median(passes) > job["seconds"]:
            break
    return {"raw": raw, "nominal": nominal, "why": why, "passes": passes,
            "refs": refs,
            "loop_s": perf_counter() - t_loop,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    from benford_lab import cli
    print(json.dumps(run_passes(cli.main, job)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
