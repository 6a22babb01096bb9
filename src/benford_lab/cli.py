"""Command-line front end wiring the library into reproducible experiments.

Every run is a pure function of its flags: the RNG is a counter-based
generator (Philox) keyed by --seed, Monte Carlo work is sharded into fixed
chunks whose streams are spawned up front, and output formatting is
deterministic, so reruns with the same seed produce identical bytes; the
worker count shows only in the echoed metadata, never in the results.

The library returns data only, and this module renders all of it: each
``cmd_*`` turns its results into (columns, rows, table text, JSON payload),
and ``main`` alone writes that through ``emit`` as ``csv`` (one '#'-prefixed
JSON metadata line, then a header and rows), ``json`` (metadata plus the
payload) or ``table`` (aligned text for eyeballing).  ``main`` alone maps
exceptions to exit codes: 0 on success, 1 when an internal assertion fails,
2 with ``error: <message>`` and empty stdout on configuration errors, paths
that cannot be opened, bases above ``MAX_BASE``, worker counts above
``MAX_WORKERS``, sizes (``--count``, ``--limit``, ``--samples``,
``--digits``) above ``MAX_ITEMS``, ``--et-m`` above ``MAX_ET_M``,
``--iterations`` above ``MAX_ITERATIONS`` and ``--dps`` above ``MAX_DPS``.

Importing this module loads neither the library modules nor mpmath: each
command imports the modules it runs when it is first called.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys
from fractions import Fraction
from functools import cache

import numpy as np

from . import __version__
from .core_numeric import DomainError, PrecisionError, _check_digit_base, \
    _csv_blocks, leading_digit, random_bignat

DEFAULT_CENSUS_START = 419_753_999_998_525
DEFAULT_CENSUS_COUNT = 100_000
DEFAULT_M = 10
DEFAULT_BIG_DIGITS = 100_000
MAX_BASE = 2 ** 16    # every command taking --base builds an O(base) histogram
MAX_WORKERS = 64      # each worker is one OS thread holding a chunk's matrices
# --count, --limit, --samples and --digits size arrays of one to a few dozen
# bytes per item: at 2^24 items one int64 or float64 array takes 128 MB
MAX_ITEMS = 2 ** 24
# the Erdos-Turan sum of kalpha costs about 1.0-1.4 ns per point and harmonic
# on a 2-vCPU x86 host (10^5 points at m = 100 and 1,000), so --et-m 4096
# takes about 0.5 s at the default 10^5 points and about 100 s at MAX_ITEMS
MAX_ET_M = 2 ** 12
# --iterations (-m) steps every census seed or model sample m times: at
# -m 4096 the default 10^5 seeds take 46 s in kvalues and 57 s in ratio, one
# seed 0.08 s, and model 0.02 s at its default 10^5 samples and 1.6 s at
# MAX_ITEMS, on the same host.  The cap bounds m, not count * m: kvalues and
# ratio at MAX_ITEMS seeds and -m 4096 would take about 2 and 2.7 hours
MAX_ITERATIONS = 2 ** 12
# cf and type work at --dps + 20 digits in pure-Python mpmath, and --depth
# stops at the convergents those digits certify (1,972 for log:2:10 at 2,000):
# at --dps 2000 and that depth cf takes 0.014 s and type, with its 6 default
# gammas, 43 s on the same host
MAX_DPS = 2_000

# collatz.MODES, spelled out so that the parser imports no collatz; a test
# pins the two equal
BIGNUM_MODES = ("remove_all_twos", "single_step")

COLLATZ_PRESETS = {
    "ratio-base4": {"kind": "ratio", "base": 4},
    "ratio-base8": {"kind": "ratio", "base": 8},
    "ratio-base10": {"kind": "ratio", "base": 10},
    "ratio-base16": {"kind": "ratio", "base": 16},
    "bignum-remove2": {"kind": "bignum", "mode": "remove_all_twos"},
    "bignum-single": {"kind": "bignum", "mode": "single_step"},
}

ZETA_PRESETS = {
    # 65536 grid points t = k/4 on the critical line
    "halfline-digits": {"t_start": 0.0, "t_end": 16383.75, "step": 0.25,
                        "sigma": 0.5, "base": 10},
}


class ConfigError(Exception):
    pass


class CheckFailed(Exception):
    """An internal check failed; ``output``, if any, is emitted first."""

    def __init__(self, message: str, output=None):
        super().__init__(message)
        self.output = output


@dataclasses.dataclass
class ExperimentConfig:
    command: str
    params: dict
    rng_seed: int
    workers: int
    out: str
    fmt: str

    def meta_line(self) -> str:
        doc = {"command": self.command, "params": self.params,
               "seed": self.rng_seed, "workers": self.workers,
               "version": __version__}
        return "# " + json.dumps(doc, sort_keys=True)


def emit(cfg: ExperimentConfig, columns, rows, table_text: str,
         json_payload: dict) -> None:
    with open(cfg.out, "w", encoding="utf-8") if cfg.out != "-" \
            else contextlib.nullcontext(sys.stdout) as stream:
        if cfg.fmt == "json":
            doc = {"meta": json.loads(cfg.meta_line()[2:]), **json_payload}
            print(json.dumps(doc, sort_keys=True), file=stream)
            return
        print(cfg.meta_line(), file=stream)
        if cfg.fmt == "csv":
            print(",".join(columns), file=stream)
            stream.writelines(",".join(map(str, row)) + "\n" for row in rows)
        else:
            print(table_text, file=stream)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _rational_log(x: int, b: int):
    """log_b(x) as a Fraction when x and b are powers of one integer (so
    when it is rational), else None: Euclid's algorithm on the exponents,
    each number carrying its log as a combination of log x and log b."""
    if x == 1:
        return Fraction(0)
    u, cu, v, cv = x, (1, 0), b, (0, 1)
    while u != v:
        if u < v:
            u, cu, v, cv = v, cv, u, cu
        u, rest = divmod(u, v)
        if rest:
            return None
        cu = (cu[0] - cv[0], cu[1] - cv[1])
    return Fraction(cv[1] - cu[1], cu[0] - cv[0])


def _resolve_alpha(text: str, dps: int = 480):
    """Accept a finite float literal, 'p/q' (exact rational), or 'log:X:B'
    (integers X >= 1, B >= 2) for log_B(X): exact when it is rational, else
    at ``dps`` and 20 guard digits, 500 digits in all by default."""
    parts = text.split(":")
    if parts[0] == "log" and len(parts) != 3:
        raise ConfigError("log alpha form must look like log:2:10")
    try:
        if parts[0] == "log":
            x, b = int(parts[1]), int(parts[2])
            if x < 1 or b < 2:
                raise ConfigError(f"log:X:B needs X >= 1 and B >= 2, "
                                  f"got {text!r}")
            exact = _rational_log(x, b)
            if exact is not None:
                return exact
            from . import equidist
            alpha = equidist.log_ratio(x, b, dps + 20)
        elif "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        else:
            alpha = float(text)
        finite = math.isfinite(alpha)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse alpha {text!r}") from exc
    if not finite:
        raise ConfigError(f"alpha must be finite, got {text!r}")
    return alpha


def _number_list(text: str, kind, flag: str) -> list:
    """Comma-separated numbers, each parsed by ``kind`` (int or float)."""
    try:
        return [kind(part) for part in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{flag} must be a comma-separated list of "
                          f"{kind.__name__} values, got {text!r}") from exc


def _digit_report(report) -> tuple:
    """Columns, rows, table text and JSON payload of a
    ``benford_stats.TestReport`` against Benford's law."""
    per_digit = report.per_digit
    verdict = "accept" if report.verdict_alpha05 else "reject"
    return (("digit", "observed", "benford", "z"),
            [(d, f"{o:.6f}", f"{p:.6f}", f"{z:.4f}")
             for d, o, p, z in per_digit],
            "\n".join([f"{'First Digit':>11} {'Observed':>10} {'Benford':>10}"
                       f" {'z-statistic':>12}"]
                      + [f"{d:>11d} {o:>10.4f} {p:>10.4f} {z:>12.2f}"
                         for d, o, p, z in per_digit]
                      + [f"chi-square = {report.chi_square:.2f} on "
                         f"{report.dof} dof (alpha=.05 {verdict})"]),
            {"base": report.base, "total": report.total,
             "per_digit": [{"digit": d, "observed": o, "benford": p, "z": z}
                           for d, o, p, z in per_digit],
             "chi_square": report.chi_square, "dof": report.dof,
             "verdict_alpha05": report.verdict_alpha05})


def _predicted_rows(observed, predicted):
    """Columns and rows of observed against predicted digit frequencies,
    digits 1 .. base - 1."""
    return (("digit", "observed", "predicted"),
            [(d, f"{o:.6f}", f"{p:.6f}")
             for d, (o, p) in enumerate(zip(observed, predicted), start=1)])


def _ratio_report(result) -> tuple:
    """Observed frequencies, then columns, rows and table text (in percent)
    of a ``collatz.RatioDigitResult`` against its predicted law."""
    freq, predicted = result.histogram.frequencies(), result.predicted
    return (freq, *_predicted_rows(freq, predicted), "\n".join(
        [f"{'First Digit':>11} {'Observed':>12} {'Predicted':>12}"]
        + [f"{d:>11d} {100 * o:>11.1f}% {100 * p:>11.1f}%"
           for d, (o, p) in enumerate(zip(freq, predicted), start=1)]))


def _scan_rows(result):
    """The CSV rows of a ``zeta.ScanResult``, in blocks as ``_csv_blocks``
    yields them."""
    return _csv_blocks(
        "%.6f,%.10f,%.12e,%.12e,%.12e,%.12e,%d,%.3e",
        (result.t, result.sigma, result.value.real, result.value.imag,
         result.abs, np.log(result.abs), result.digits, result.cert_err))


def _cue_rows(result):
    """The CSV rows of an ``rmt.CueResult``, log|Z| also standardized by
    the reference variance, in blocks as ``_csv_blocks`` yields them."""
    return _csv_blocks(f"{result.dim},%.12f,%.12e,%.12e", (
        result.thetas, result.log_abs,
        result.log_abs / math.sqrt(result.moments.q2_reference)))


def _type_rows(probe) -> tuple:
    """Header and rows of an ``equidist.IrrationalProbe``: each quality as
    ``%.6e``; one outside the float's normal range from its mpmath value,
    in the same shape with a wider exponent."""
    import mpmath
    exact = probe._exact
    return (["p", "q"] + [f"gamma={g:g}" for g in probe.gamma_grid],
            [[str(p), str(q)] + [
                mpmath.nstr(exact[g, i], 7, strip_zeros=False, min_fixed=0,
                            max_fixed=0)
                if (g, i) in exact else f"{probe.quality[g][i]:.6e}"
                for g in probe.gamma_grid]
             for i, (p, q) in enumerate(probe.convergents)])


# ---------------------------------------------------------------- commands --

def _decimal_value(text: str) -> Fraction:
    """The exact value of a decimal literal such as ``12``, ``-0.5`` or
    ``1.99e5``.  Rejects ``p/q``, and exponents of seven or more digits,
    whose power of ten alone would take megabytes."""
    if "/" in text or len(text.lower().partition("e")[2].lstrip("+-0")) > 6:
        raise ValueError(f"not a decimal literal: {text!r}")
    return Fraction(text)


def _file_digits(path: str, base: int) -> list:
    """The leading digit of each nonblank line of a UTF-8 file of decimal
    literals."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})")
    digits = []
    for ln, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            digits.append(leading_digit(_decimal_value(text), base))
        except DomainError as exc:  # zero
            raise ConfigError(f"{path}:{ln}: {exc}")
        except ValueError:
            raise ConfigError(f"{path}:{ln}: cannot parse {text!r}")
    if not digits:
        raise ConfigError(f"{path} holds no values")
    return digits


def cmd_digits(args, cfg: ExperimentConfig) -> tuple:
    from . import benford_stats
    base = _check_digit_base(args.base)
    # values of up to 2,000,000 digits, for this file alone: the limit is
    # the process's own again when the command ends, on error paths too
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(2_000_000)
    try:
        digits = _file_digits(args.file, base)
    finally:
        sys.set_int_max_str_digits(limit)
    hist = benford_stats.DigitHistogram.from_digits(digits, base)
    *output, report = _digit_report(benford_stats.z_statistics(hist))
    return (*output, {"report": report})


def _collatz_ratio_run(args, cfg, base) -> tuple:
    from . import collatz
    cfg.params["base"] = base
    seeds = collatz.census_1mod6(args.start, args.count)
    result = collatz.ratio_digit_experiment(seeds, args.iterations, base)
    freq, *output = _ratio_report(result)
    return (*output, {"observed": [float(x) for x in freq],
                      "predicted": [float(x) for x in result.predicted]})


def _collatz_bignum_run(args, cfg, mode) -> tuple:
    from . import benford_stats, collatz
    cfg.params["mode"] = mode
    seed_value = random_bignat(args.digits, 10, _rng(cfg.rng_seed))
    result = collatz.iterate_digit_experiment(seed_value, mode,
                                              base=args.base)
    columns, rows, table, report = _digit_report(
        benford_stats.z_statistics(result.histogram))
    return (columns, rows,
            f"iterates recorded: {result.n_recorded} "
            f"(reached 1: {result.reached_one})\n" + table,
            {"n_recorded": result.n_recorded,
             "reached_one": result.reached_one, "report": report})


def cmd_collatz_experiment(args, cfg: ExperimentConfig) -> tuple:
    if args.preset:
        if args.preset not in COLLATZ_PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r}; choose from "
                              f"{sorted(COLLATZ_PRESETS)}")
        preset = COLLATZ_PRESETS[args.preset]
        if preset["kind"] == "ratio":
            return _collatz_ratio_run(args, cfg, preset["base"])
        return _collatz_bignum_run(args, cfg, preset["mode"])
    if args.mode:
        return _collatz_bignum_run(args, cfg, args.mode)
    return _collatz_ratio_run(args, cfg, args.base)


def cmd_collatz_structure(args, cfg: ExperimentConfig) -> tuple:
    from . import collatz
    ktuple = tuple(_number_list(args.ktuple, int, "--ktuple"))
    try:
        pred = collatz.inverse_path_bruteforce(ktuple, args.limit)
    except collatz.StructureError as exc:
        raise CheckFailed(str(exc))
    return (("modulus", "residue1", "residue2"),
            [(pred.modulus, pred.residues[0], pred.residues[1])],
            f"modulus {pred.modulus}; residues {pred.residues[0]}, "
            f"{pred.residues[1]} (classes mod 6: "
            f"{pred.residues[0] % 6}, {pred.residues[1] % 6})",
            {"modulus": pred.modulus, "residues": list(pred.residues)})


def cmd_collatz_kvalues(args, cfg: ExperimentConfig) -> tuple:
    from . import collatz
    seeds = collatz.census_1mod6(args.start, args.count)
    stats = collatz.kvalue_histogram(collatz.THREE_X_PLUS_1, seeds,
                                     args.iterations)
    rows = [(n, int(stats.counts[n]), f"{stats.empirical(n):.8f}",
             f"{stats.reference(n):.8f}")
            for n in range(1, 16) if stats.counts[n] or n <= 10]
    table = "\n".join(
        f"k={n:<3d} count={int(stats.counts[n]):>9d} "
        f"empirical={stats.empirical(n):.6f} reference={stats.reference(n):.6f}"
        for n, *_ in rows)
    table += (f"\nmean={stats.mean:.5f} (reference 2)  "
              f"variance={stats.variance:.5f} (reference 2)")
    return (("k", "count", "empirical", "reference"), rows, table,
            {"mean": stats.mean, "variance": stats.variance,
             "counts": stats.counts.tolist()})


def cmd_collatz_ratio(args, cfg: ExperimentConfig) -> tuple:
    from . import collatz
    seeds = collatz.census_1mod6(args.start, args.count)
    result = collatz.ratio_digit_experiment(seeds, args.iterations, args.base)
    fracs = collatz.ratio_fracs(seeds, args.iterations, args.base,
                                census=result.census)
    model = collatz.geometric_model_points(args.iterations, args.base,
                                           len(fracs), _rng(cfg.rng_seed))
    ks = collatz.ks_distance(fracs, model)
    freq, columns, rows, table = _ratio_report(result)
    return (columns, rows,
            table + f"\nKS distance to the geometric-sum model: {ks:.5f}",
            {"observed": [float(x) for x in freq], "ks_vs_model": ks})


def cmd_collatz_model(args, cfg: ExperimentConfig) -> tuple:
    from . import collatz
    hist = collatz.model_digit_experiment(args.iterations, args.base,
                                          args.samples, _rng(cfg.rng_seed))
    freq = hist.frequencies()
    predicted = collatz.limit_law_digit_probabilities(args.base)
    table = "\n".join(f"digit {d}: observed {freq[d - 1]:.4f} "
                      f"predicted {predicted[d - 1]:.4f}"
                      for d in range(1, args.base))
    return (*_predicted_rows(freq, predicted), table,
            {"observed": [float(x) for x in freq]})


def cmd_zeta(args, cfg: ExperimentConfig) -> tuple:
    from . import benford_stats, zeta
    params = dict(t_start=args.t_start, t_end=args.t_end, step=args.step,
                  sigma=args.sigma, base=args.base)
    if args.preset:
        if args.preset not in ZETA_PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r}")
        params.update(ZETA_PRESETS[args.preset])
    if args.near_critical_delta is not None:
        mode = zeta.SigmaMode.near_critical(args.near_critical_delta)
    else:
        mode = zeta.SigmaMode.fixed(params["sigma"])
    cfg.params.update(params)
    result = zeta.scan_line(params["t_start"], params["t_end"],
                            params["step"], mode, base=params["base"])
    if not result.histogram.total:
        raise ConfigError(
            f"no point's leading digit could be certified "
            f"({len(result.skipped)} skipped, {len(result.failures)} not "
            f"evaluated): a point is skipped when |zeta| lies within its "
            f"certified error band of a digit boundary or of zero, as at "
            f"large sigma, where |zeta| -> 1")
    *_, table, report = _digit_report(
        benford_stats.z_statistics(result.histogram))
    return (("t", "sigma", "re", "im", "abs", "log_abs", "digit", "cert_err"),
            _scan_rows(result),
            f"points recorded: {result.histogram.total}, "
            f"skipped: {len(result.skipped)}, refined: {result.refined}\n"
            + table,
            {"histogram": result.histogram.counts.tolist(),
             "skipped": len(result.skipped), "refined": result.refined,
             "report": report})


def cmd_cue(args, cfg: ExperimentConfig) -> tuple:
    from . import benford_stats, rmt
    result = rmt.cue_experiment(args.dim, args.samples, args.base,
                                _rng(cfg.rng_seed), workers=cfg.workers)
    stat, dof = benford_stats.chi_square(result.histogram)
    moments = dataclasses.asdict(result.moments)
    moments = {"n_samples": moments.pop("n"), **moments}
    *_, table, _ = _digit_report(benford_stats.z_statistics(result.histogram))
    return (("dim", "theta", "log_abs", "standardized"), _cue_rows(result),
            f"moments: {json.dumps(moments)}\n"
            f"digit chi-square: {stat:.3f} on {dof} dof\n" + table,
            {"moments": moments, "chi_square": stat, "dof": dof,
             "histogram": result.histogram.counts.tolist()})


def cmd_equidist_kalpha(args, cfg: ExperimentConfig) -> tuple:
    from . import benford_stats, equidist
    alpha = _resolve_alpha(args.alpha)
    pts = equidist.kalpha_points(alpha, args.count)
    r = benford_stats.discrepancy_report(pts, m=args.et_m)
    return (("n_points", "star", "extreme", "erdos_turan", "m"),
            [(r.n_points, f"{r.star:.8e}", f"{r.extreme:.8e}",
              f"{r.erdos_turan:.8e}", r.m_used)],
            f"{'N':>10} {'D*_N':>14} {'D_N':>14} {'ET bound':>14} {'m':>6}\n"
            f"{r.n_points:>10d} {r.star:>14.6e} {r.extreme:>14.6e} "
            f"{r.erdos_turan:>14.6e} {r.m_used:>6d}",
            {"report": dataclasses.asdict(r)})


def cmd_equidist_cf(args, cfg: ExperimentConfig) -> tuple:
    from . import equidist
    alpha = _resolve_alpha(args.alpha, args.dps)
    convs = equidist.continued_fraction(alpha, args.depth, dps=args.dps)
    return (("p", "q"), convs, "\n".join(f"{p}/{q}" for p, q in convs),
            {"convergents": [[str(p), str(q)] for p, q in convs]})


def cmd_equidist_type(args, cfg: ExperimentConfig) -> tuple:
    from . import equidist
    alpha = _resolve_alpha(args.alpha, args.dps)
    gammas = tuple(_number_list(args.gammas, float, "--gammas"))
    probe = equidist.type_probe(alpha, args.depth, gammas, dps=args.dps)
    header, rows = _type_rows(probe)
    table = "\n".join(",".join(r) for r in [header] + rows)
    table += f"\nempirical type: {probe.empirical_type}"
    return (header, rows, table,
            {"empirical_type": probe.empirical_type,
             "slopes": {f"{g:g}": s for g, s in probe.slopes.items()}})


def cmd_poisson_check(args, cfg: ExperimentConfig) -> tuple:
    from . import equidist
    sigmas = _number_list(args.sigmas, float, "--sigmas")
    rows = []
    worst = 0.0
    for s in sigmas:
        r = equidist.theta_identity_residual(s)
        worst = max(worst, r)
        rows.append((f"{s:g}", f"{r:.3e}"))
    table = "\n".join(f"sigma={s:<8} residual={r}" for s, r in rows)
    table += f"\nmax residual: {worst:.3e}"
    output = (("sigma", "residual"), rows, table, {"max_residual": worst})
    if worst >= 1e-12:
        raise CheckFailed(f"theta identity residual {worst:.3e} >= 1e-12",
                          output)
    return output


# ------------------------------------------------------------------ parser --

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="RNG seed (Philox)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker count (default 1)")
    p.add_argument("--out", default="-", help="output path ('-' = stdout)")
    p.add_argument("--format", dest="fmt", default="table",
                   choices=("csv", "json", "table"))


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (its 100-odd
    ``add_argument`` calls cost about 4 ms) and shared by every ``main``
    call; do not mutate it.  ``parse_args`` leaves a parser unchanged and
    returns a fresh namespace, and argparse looks up ``sys.stderr`` only
    when it writes, so a shared parser parses as a fresh one would."""
    ap = argparse.ArgumentParser(
        prog="benford-lab",
        description="Leading-digit statistics of dynamical systems")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("digits", help="digit report for a file of numbers")
    p.add_argument("file")
    p.add_argument("--base", type=int, default=10)
    _add_common(p)
    p.set_defaults(func=cmd_digits)

    pc = sub.add_parser("collatz", help="3x+1 experiments")
    csub = pc.add_subparsers(dest="subcommand", required=True)

    p = csub.add_parser("experiment", help="census/trajectory digit tables")
    p.add_argument("--preset", default=None,
                   help=f"one of {sorted(COLLATZ_PRESETS)}")
    p.add_argument("--start", type=int, default=DEFAULT_CENSUS_START)
    p.add_argument("--count", type=int, default=DEFAULT_CENSUS_COUNT)
    p.add_argument("--iterations", "-m", type=int, default=DEFAULT_M)
    p.add_argument("--base", type=int, default=4)
    p.add_argument("--mode", choices=BIGNUM_MODES, default=None,
                   help="trajectory mode (bignum experiments)")
    p.add_argument("--digits", type=int, default=DEFAULT_BIG_DIGITS,
                   help="decimal size of the random bignum seed")
    _add_common(p)
    p.set_defaults(func=cmd_collatz_experiment)

    p = csub.add_parser("structure", help="inverse-path progression check")
    p.add_argument("--ktuple", required=True, help="e.g. 1,1")
    p.add_argument("--limit", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_collatz_structure)

    p = csub.add_parser("kvalues", help="pooled multiplicity law")
    p.add_argument("--start", type=int, default=DEFAULT_CENSUS_START)
    p.add_argument("--count", type=int, default=DEFAULT_CENSUS_COUNT)
    p.add_argument("--iterations", "-m", type=int, default=DEFAULT_M)
    _add_common(p)
    p.set_defaults(func=cmd_collatz_kvalues)

    p = csub.add_parser("ratio", help="ratio statistic digit table + model KS")
    p.add_argument("--start", type=int, default=DEFAULT_CENSUS_START)
    p.add_argument("--count", type=int, default=DEFAULT_CENSUS_COUNT)
    p.add_argument("--iterations", "-m", type=int, default=DEFAULT_M)
    p.add_argument("--base", type=int, default=10)
    _add_common(p)
    p.set_defaults(func=cmd_collatz_ratio)

    p = csub.add_parser("model", help="geometric-sum model digit table")
    p.add_argument("--iterations", "-m", type=int, default=DEFAULT_M)
    p.add_argument("--samples", type=int, default=DEFAULT_CENSUS_COUNT)
    p.add_argument("--base", type=int, default=10)
    _add_common(p)
    p.set_defaults(func=cmd_collatz_model)

    p = sub.add_parser("zeta", help="|zeta| line scans and digit tables")
    p.add_argument("--preset", default=None,
                   help=f"one of {sorted(ZETA_PRESETS)}")
    p.add_argument("--t-start", type=float, default=0.0)
    p.add_argument("--t-end", type=float, default=100.0)
    p.add_argument("--step", type=float, default=0.25)
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--near-critical-delta", type=float, default=None)
    p.add_argument("--base", type=int, default=10)
    _add_common(p)
    p.set_defaults(func=cmd_zeta)

    p = sub.add_parser("cue", help="Haar-unitary characteristic polynomials")
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--base", type=int, default=10)
    _add_common(p)
    p.set_defaults(func=cmd_cue)

    pe = sub.add_parser("equidist", help="equidistribution diagnostics")
    esub = pe.add_subparsers(dest="subcommand", required=True)

    p = esub.add_parser("kalpha", help="k*alpha mod 1 discrepancy report")
    p.add_argument("--alpha", required=True,
                   help="float, 'p/q', or 'log:X:B'")
    p.add_argument("--count", type=int, default=100_000)
    p.add_argument("--et-m", type=int, default=100)
    _add_common(p)
    p.set_defaults(func=cmd_equidist_kalpha)

    p = esub.add_parser("cf", help="certified continued-fraction convergents")
    p.add_argument("--alpha", required=True)
    p.add_argument("--depth", type=int, default=20)
    p.add_argument("--dps", type=int, default=500)
    _add_common(p)
    p.set_defaults(func=cmd_equidist_cf)

    p = esub.add_parser("type", help="irrationality-type probe")
    p.add_argument("--alpha", required=True)
    p.add_argument("--depth", type=int, default=30)
    p.add_argument("--gammas", default="0.5,0.75,0.9,0.95,1.0,1.25")
    p.add_argument("--dps", type=int, default=500)
    _add_common(p)
    p.set_defaults(func=cmd_equidist_type)

    p = sub.add_parser("poisson-check", help="theta identity residual sweep")
    p.add_argument("--sigmas", default="0.1,0.5,1,2,10,50")
    _add_common(p)
    p.set_defaults(func=cmd_poisson_check)

    return ap


# every flag whose size sets the work or memory of a command, and its cap
_CAPS = {"base": MAX_BASE, "count": MAX_ITEMS, "limit": MAX_ITEMS,
         "samples": MAX_ITEMS, "digits": MAX_ITEMS, "et_m": MAX_ET_M,
         "iterations": MAX_ITERATIONS, "dps": MAX_DPS}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    failure = None
    try:
        if not 1 <= args.workers <= MAX_WORKERS:
            raise ConfigError(f"worker count must lie in [1, {MAX_WORKERS}], "
                              f"got {args.workers}")
        if args.seed < 0:
            raise ConfigError("seed must be >= 0")
        for flag, cap in _CAPS.items():
            if getattr(args, flag, 0) > cap:
                raise ConfigError(f"--{flag.replace('_', '-')} must be <= "
                                  f"{cap}, got {getattr(args, flag)}")
        params = {k: v for k, v in vars(args).items()
                  if k not in ("func", "seed", "workers", "out", "fmt")
                  and v is not None}
        cfg = ExperimentConfig(
            command=params.pop("command"),
            params={k: (v if isinstance(v, (int, float, bool)) else str(v))
                    for k, v in params.items()},
            rng_seed=args.seed, workers=args.workers, out=args.out,
            fmt=args.fmt)
        try:
            output = args.func(args, cfg)
        except CheckFailed as exc:
            failure, output = exc, exc.output
        if output is not None:
            emit(cfg, *output)
    except (ConfigError, DomainError, PrecisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if failure is not None:
        print(f"assertion failed: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
