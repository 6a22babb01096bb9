"""Timed passes, traced passes, metrics and the printed report."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import mpmath
import numpy as np

import checks
import passes
import speed
import workloads
from benford_lab import benford_stats, cli, collatz, equidist, rmt, zeta
from benford_lab.core_numeric import leading_digit
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

END_TO_END = [
    # name, unit, better, bound (share of the parent's median)
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("items_per_s", "1/s", "higher", 0.25),
]

# Throughputs by name: work items over the summed median times of the
# commands.  The first of each workload is its ``items_per_s``; the rest are
# printed only, since every run must report every bounded metric.
RATES = {
    "census": [
        ("census.seeds_per_s", ("ratio.b4", "ratio.b8", "ratio.b10",
                                "ratio.b16", "ratio.b7", "kvalues",
                                "ratio_ks.b10")),
        ("census.lattice_seeds_per_s", ("ratio.b4", "ratio.b8", "ratio.b10",
                                        "ratio.b16")),
        ("census.exact_b7_seeds_per_s", ("ratio.b7",))],
    "trajectory": [
        ("trajectory.iterates_per_s", ("remove_all_twos.small",
                                       "single_step.small",
                                       "remove_all_twos.large",
                                       "single_step.large")),
        ("trajectory.small_iterates_per_s", ("remove_all_twos.small",
                                             "single_step.small")),
        ("trajectory.large_iterates_per_s", ("remove_all_twos.large",
                                             "single_step.large"))],
    "spectral": [
        ("zeta_line.points_per_s", ("zeta.halfline",)),
        ("zeta_offline.points_per_s", ("zeta.offline",)),
        ("cue.samples_per_s", ("cue.n64",)),
        ("kalpha.points_per_s", ("kalpha",))],
}

SIZES = ("small", "large")
MODES = workloads.TRAJECTORY_MODES

PER_LAYER = (
    [("cli.main_s", "s", "lower"), ("cli.overhead_s", "s", "lower"),
     ("trace.overhead_s", "s", "lower"),
     ("collatz.kvalue_histogram_s", "s", "lower"),
     ("collatz.kvalue_histogram_small_s", "s", "lower")]
    + [(f"collatz.ratio_digit_experiment_s.b{b}", "s", "lower")
       for b in workloads.CENSUS_BASES + (workloads.EXACT_BASE,)]
    + [("collatz.ratio_fracs_s", "s", "lower")]
    + [(f"collatz.iterate_digit_experiment_s.{m}.{s}", "s", "lower")
       for m in MODES for s in SIZES]
    + [("collatz.step_us", "us", "lower")]
    + [(f"collatz.n_recorded.{m}.{s}", "count", "higher")
       for m in MODES for s in SIZES]
    + [(f"core_numeric.leading_digit_us.{s}", "us", "lower") for s in SIZES]
    + [(f"core_numeric.leading_digit_exact_us.{s}", "us", "lower")
       for s in SIZES]
    + [("core_numeric.random_bignat_s", "s", "lower")]
    + [(f"zeta.scan_line_s.{k}", "s", "lower") for k in ("halfline", "offline")]
    + [("zeta.refined.halfline", "count", "lower"),
       ("zeta.refined_share.halfline", "ratio", "lower")]
    + [(f"zeta.zeta_eval_us.{r}", "us", "lower")
       for r in ("eta", "rs", "em", "em_near_critical")]
    + [(f"rmt.cue_experiment_s.n{n}", "s", "lower") for n in (64, 4)]
    + [("rmt.haar_unitary_us", "us", "lower"),
       ("rmt.log_abs_charpoly_us", "us", "lower"),
       ("equidist.kalpha_points_s", "s", "lower"),
       ("equidist.log_ratio_s", "s", "lower"),
       ("benford_stats.star_discrepancy_s", "s", "lower"),
       ("benford_stats.extreme_discrepancy_s", "s", "lower"),
       ("benford_stats.erdos_turan_bound_s", "s", "lower")]
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


# ------------------------------------------------------------- reporting --

def summary(xs) -> str:
    """Median, the highest percentile with ten samples beyond it, and n."""
    n = len(xs)
    med = statistics.median(xs)
    if n < 11:
        return f"median {med:.4f} (n={n}; no percentile has 10 samples beyond it)"
    p = math.floor(100.0 * (1.0 - 10.0 / n))
    q = float(np.percentile(xs, p))
    return f"median {med:.4f} p{p} {q:.4f} (n={n})"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = "n/a (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    return {"nproc": len(os.sched_getaffinity(0)), "git_sha": sha,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "workers": workloads.CUE_WORKERS}


def result_line(metrics: dict, attempted: int, failed: int) -> str:
    return json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]}
                    for k, v in metrics.items()}})


# --------------------------------------------------------------- running --

class Runner:
    """Issues one CLI command at a time in this process, times it and checks
    its output; also judges outputs of the ``passes`` child process."""

    def __init__(self, main):
        self.main = main
        self.tracer = None      # a Tracer while a traced pass runs
        self.attempted = 0
        self.failures = []

    def run(self, wl, cmd, oracle, request=None):
        """(seconds, output text or None); failures are recorded, not raised."""
        out = io.StringIO()
        span = contextlib.nullcontext()
        if self.tracer:
            self.tracer.request = request
            span = self.tracer.span("cli.main", label=cmd.key)
        dt, why = passes.execute(self.main, cmd.argv, out, span)
        return dt, self.judge(wl, cmd, oracle, why, out.getvalue())

    def judge(self, wl, cmd, oracle, why: str, text: str):
        """Count one command: its text if it ran and is correct, else None."""
        self.attempted += 1
        if not why:
            try:
                checks.check(oracle, wl, cmd, text)
            except (checks.CheckError, KeyError, ValueError, IndexError) as exc:
                why = f"check failed: {exc}"
        if why:
            self.failures.append(f"{wl.name}/{cmd.key}: {why}")
            return None
        return text

    def expect(self, ok: bool, message: str) -> None:
        """Count one check made outside a command (probes, replays)."""
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    @property
    def failed(self) -> int:
        return len(self.failures)


def items_done(wl, key_texts: dict) -> dict:
    """Work items per command; trajectories count recorded iterates."""
    items = {}
    for cmd in wl.commands:
        if cmd.kind == "trajectory":
            text = key_texts.get(cmd.key)
            items[cmd.key] = json.loads(text)["n_recorded"] if text else 0
        else:
            items[cmd.key] = cmd.items
    return items


def build_oracle(wl, runner: Runner):
    try:
        return checks.oracle_for(wl)
    except checks.CheckError as exc:
        runner.expect(False, f"{wl.name} oracle: {exc}")
        return checks.Unchecked(str(exc))


def program_passes(wl, seconds: float) -> dict:
    """Run ``passes.py`` over ``wl``'s commands in a fresh process; its
    outputs stay under a directory of OUT for the caller to check."""
    out = os.path.join(OUT, f"passes-{wl.name}-{os.getpid()}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    job = {"commands": [[c.key, c.argv] for c in wl.commands],
           "seconds": seconds, "out": out, "src": SRC}
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "passes.py")],
        input=json.dumps(job), capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        shutil.rmtree(out, ignore_errors=True)
        raise RuntimeError(f"passes.py exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["out"] = out
    return result


def timed_run(wl, seconds: float, setup_times):
    """Timed passes over ``wl`` in a child process (``passes.py``), every
    output checked here; returns (end-to-end metrics, runner)."""
    runner = Runner(cli.main)
    oracle = build_oracle(wl, runner)
    res = program_passes(wl, seconds)
    texts = {}
    try:
        for cmd in wl.commands:
            for i, why in enumerate(res["why"][cmd.key]):
                path = os.path.join(res["out"], f"{i}.{cmd.key}.out")
                with open(path, encoding="utf-8") as fh:
                    text = runner.judge(wl, cmd, oracle, why, fh.read())
                if text is not None and cmd.kind == "trajectory":
                    texts.setdefault(cmd.key, text)
    finally:
        shutil.rmtree(res["out"], ignore_errors=True)

    med = {k: statistics.median(v) for k, v in res["nominal"].items()}
    items = items_done(wl, texts)

    def rate(keys):
        return sum(items[k] for k in keys) / sum(med[k] for k in keys)

    rates = {name: rate(keys) for name, keys in RATES[wl.name]}
    metrics = {"setup_s": statistics.median(setup_times),
               "wall_s": sum(med.values()),
               "peak_rss_mb": res["peak_rss_mb"],
               "items_per_s": rates[RATES[wl.name][0][0]]}

    print("env " + json.dumps(environment()))
    print(f"workload {wl.name} seed {wl.seed}: {len(res['passes'])} passes in "
          f"{res['loop_s']:.1f} s (budget {seconds:g} s); times are nominal "
          f"seconds (speed.py), raw seconds in brackets")
    print(f"setup_s: {summary(setup_times)}; probes "
          + " ".join(f"{t:.4f}" for t in setup_times))
    print(f"pass_s (raw): {summary(res['passes'])}")
    print(f"reference_s (raw; speed.REF_S {speed.REF_S}): "
          f"{summary(res['refs'])}")
    for cmd in wl.commands:
        print(f"  {cmd.key:24s} {summary(res['nominal'][cmd.key])} s "
              f"(raw median {statistics.median(res['raw'][cmd.key]):.4f} s);"
              f" {items[cmd.key]} items  [{' '.join(cmd.argv)}]")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {UNITS[name]}")
    for name, value in rates.items():
        print(f"{name} = {value:.6g} 1/s")
    print(f"failed_share = {runner.failed}/{runner.attempted} = "
          f"{runner.failed / runner.attempted:.4g}")
    for f in runner.failures:
        print(f"FAILED {f}")
    return metrics, runner


# ----------------------------------------------------------------- trace --

def _median_us(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t = perf_counter()
        fn()
        times.append(perf_counter() - t)
    return 1e6 * statistics.median(times)


def probe_layers(seed: int, runner: Runner) -> dict:
    """Fixed-size calls into single layers, the same on every workload."""
    m = {}
    seeds = collatz.census_1mod6(7, 100_000)
    times = []
    for _ in range(5):
        t = perf_counter()
        stats = collatz.kvalue_histogram(collatz.THREE_X_PLUS_1, seeds,
                                         workloads.CENSUS_M)
        times.append(perf_counter() - t)
    m["collatz.kvalue_histogram_small_s"] = statistics.median(times)
    _, _, _, khist = checks.census_paths(7, 100_000, workloads.CENSUS_M)
    runner.expect(np.array_equal(stats.counts, khist),
                  "probe: kvalue_histogram on small seeds != oracle")

    for size, digits in workloads.trajectory_digits(False).items():
        xs = checks.boundary_cases(digits)
        times, wrong = [], []
        for _ in range(3):
            for x, want in xs:
                t = perf_counter()
                got = leading_digit(x, checks.BASE)
                times.append(perf_counter() - t)
                if got != want:
                    wrong.append((want, got))
        runner.expect(not wrong, f"probe: leading_digit(d*10^k [- 1]) at "
                      f"{digits} digits gave (want, got) {wrong[:3]}")
        m[f"core_numeric.leading_digit_exact_us.{size}"] = \
            1e6 * statistics.median(times)

    points = {"eta": complex(0.5, 30.0), "rs": complex(0.5, 5000.0),
              "em": complex(0.75, 5000.0),
              "em_near_critical": complex(zeta.sigma_T(5000.0, 0.5), 5000.0)}
    for route, s in points.items():
        m[f"zeta.zeta_eval_us.{route}"] = _median_us(
            lambda s=s: zeta.zeta_eval(s), 20)
        val, err = zeta.zeta_eval(s)
        with mpmath.workdps(25):
            ref = complex(mpmath.zeta(mpmath.mpc(s.real, s.imag)))
        runner.expect(abs(val - ref) <= err,
                      f"probe: zeta_eval({s}) off by {abs(val - ref):.2e} > "
                      f"certified {err:.2e}")

    rng = np.random.Generator(np.random.Philox(key=[seed, 11]))
    mats = []
    m["rmt.haar_unitary_us"] = _median_us(
        lambda: mats.append(rmt.haar_unitary(64, rng)), 200)
    thetas = iter(rng.uniform(0.0, 2.0 * math.pi, size=len(mats)))
    it = iter(mats)
    m["rmt.log_abs_charpoly_us"] = _median_us(
        lambda: rmt.log_abs_charpoly(next(it), next(thetas)), 200)
    resid = max(rmt.unitarity_residual(u.matrix) for u in mats[:20])
    runner.expect(resid <= 1e-10, f"probe: haar_unitary residual {resid:.1e}")
    return m


def cue_breakdown(seed: int) -> dict:
    """Gaussian RNG, QR and slogdet seconds per 2,000 samples at N = 64."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 12]))
    parts = {"rng": 0.0, "qr": 0.0, "slogdet": 0.0}
    for _ in range(4):
        t = perf_counter()
        z = (rng.standard_normal((500, 64, 64))
             + 1j * rng.standard_normal((500, 64, 64))) / math.sqrt(2.0)
        parts["rng"] += perf_counter() - t
        t = perf_counter()
        q, _ = np.linalg.qr(z)
        parts["qr"] += perf_counter() - t
        t = perf_counter()
        np.linalg.slogdet(np.eye(64) - q)
        parts["slogdet"] += perf_counter() - t
        del z, q
    return parts


def replay_trajectories(wl, outputs: dict, runner: Runner) -> dict:
    """Timed exact replays keyed by command; each must reproduce the traced
    command's histogram and n_recorded."""
    replays = {}
    for cmd in wl.commands:
        rep = checks.Replay(wl.inputs["x0"][cmd.params["size"]],
                            cmd.params["mode"], timed=True)
        replays[cmd.key] = rep
        text = outputs.get(f"{wl.name}/{cmd.key}")
        if text is None:
            continue
        _, n, counts = checks.TrajectoryOracle.parse(text)
        runner.expect((n, counts) == (rep.n_recorded, rep.counts),
                      f"replay of {cmd.key} gives n_recorded {rep.n_recorded}"
                      f", histogram {rep.counts}; the command gave {n}, "
                      f"{counts}")
    return replays


def traced_run(groups, seed: int, setup_times):
    """A traced pass over each group (``groups[0]`` is the named workload,
    the rest run at reduced size), replays and layer probes; returns
    (per-layer metrics, runner).  Every workload's layers appear in
    ``groups``."""
    owned = groups[0]
    tracer = Tracer()
    runner = Runner(cli.main)
    oracles = {g.name: build_oracle(g, runner) for g in groups}

    runner.tracer = tracer
    outputs = {}
    tracer.install({"cli": cli, "collatz": collatz, "zeta": zeta, "rmt": rmt,
                    "equidist": equidist, "benford_stats": benford_stats})
    try:
        for g in groups:
            for cmd in g.commands:
                req = f"{g.name}/{cmd.key}"
                outputs[req] = runner.run(g, cmd, oracles[g.name], req)[1]
    finally:
        tracer.uninstall()
        tracer.request = None
    runner.tracer = None

    by_name = {g.name: g for g in groups}
    m = {}
    mains = [s for s in tracer.select("cli.main")
             if s["request"].startswith(owned.name + "/")]
    m["cli.main_s"] = sum(s["end"] - s["start"] for s in mains)
    m["cli.overhead_s"] = sum(tracer.self_time_outside_library(s)
                              for s in mains)
    owned_spans = sum(1 for s in tracer.spans
                      if s["request"].startswith(owned.name + "/"))
    span_cost = tracer.span_cost_s()
    m["trace.overhead_s"] = owned_spans * span_cost

    m["collatz.kvalue_histogram_s"] = tracer.seconds(
        "collatz.kvalue_histogram")
    for b in workloads.CENSUS_BASES + (workloads.EXACT_BASE,):
        m[f"collatz.ratio_digit_experiment_s.b{b}"] = tracer.seconds(
            "collatz.ratio_digit_experiment", label=f"b{b}")
    m["collatz.ratio_fracs_s"] = tracer.seconds("collatz.ratio_fracs")

    traj = by_name["trajectory"]
    for cmd in traj.commands:
        req = f"trajectory/{cmd.key}"
        span = tracer.select("collatz.iterate_digit_experiment", req)[0]
        m[f"collatz.iterate_digit_experiment_s.{cmd.key}"] = \
            span["end"] - span["start"]
        m[f"collatz.n_recorded.{cmd.key}"] = span["counts"]["n_recorded"]
    m["core_numeric.random_bignat_s"] = tracer.seconds(
        "core_numeric.random_bignat")
    replays = replay_trajectories(traj, outputs, runner)
    reps = replays.values()
    m["collatz.step_us"] = 1e6 * sum(r.step_s for r in reps) / sum(
        r.step_calls for r in reps)
    for size in SIZES:
        sized = [r for k, r in replays.items() if k.endswith("." + size)]
        m[f"core_numeric.leading_digit_us.{size}"] = 1e6 * sum(
            r.digit_s for r in sized) / sum(r.digit_calls for r in sized)

    zeta_counts = {}
    for key in ("halfline", "offline"):
        span = tracer.select("zeta.scan_line", f"spectral/zeta.{key}")[0]
        c = span["counts"]
        zeta_counts[key] = c
        m[f"zeta.scan_line_s.{key}"] = span["end"] - span["start"]
    m["zeta.refined.halfline"] = zeta_counts["halfline"]["refined"]
    m["zeta.refined_share.halfline"] = \
        zeta_counts["halfline"]["refined"] / zeta_counts["halfline"]["points"]
    for n in (64, 4):
        m[f"rmt.cue_experiment_s.n{n}"] = tracer.seconds(
            "rmt.cue_experiment", label=f"n{n}")
    resampled = sum(s["counts"]["resampled"]
                    for s in tracer.select("rmt.cue_experiment"))
    for name in ("equidist.kalpha_points", "equidist.log_ratio",
                 "benford_stats.star_discrepancy",
                 "benford_stats.extreme_discrepancy",
                 "benford_stats.erdos_turan_bound"):
        m[name + "_s"] = tracer.seconds(name)
    m.update(probe_layers(seed, runner))
    m = {name: m[name] for name, *_ in PER_LAYER}

    env = environment()
    print("env " + json.dumps(env))
    print(f"traced run of {owned.name} seed {owned.seed}; the other workloads'"
          " layers ran at reduced size: "
          + ", ".join(g.name for g in groups[1:]))
    print(f"setup_s: {summary(setup_times)}")
    for s in mains:
        print(f"  cli.main {s['label']:24s} {s['end'] - s['start']:.4f} s, "
              f"outside library {tracer.self_time_outside_library(s):.4f} s")
    print(f"tracing overhead: {owned_spans} spans x {1e6 * span_cost:.2f} us"
          f" per span = {m['trace.overhead_s']:.3g} s of {m['cli.main_s']:.3f}"
          " s traced")
    for name, value in m.items():
        print(f"{name} = {value:.6g} {UNITS[name]}")
    for key, c in zeta_counts.items():
        print(f"zeta.{key}: {c['points']} points, refined {c['refined']}, "
              f"skipped {c['skipped']}")
    print(f"rmt.resampled = {resampled}")
    print("collatz.step domain rejections in replay = "
          f"{sum(r.step_rejected for r in reps)}")
    for digits, msg in (d for r in reps for d in r.step_defect):
        print(f"KNOWN DEFECT: collatz.step raised ValueError instead of "
              f"DomainError on a ~{digits}-digit input: {msg[:80]}")
    if not owned.reduced:
        print_baseline(owned.name, m, zeta_counts, replays, seed)
    print(f"failed_share = {runner.failed}/{runner.attempted}")
    for f in runner.failures:
        print(f"FAILED {f}")

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{owned.name}-seed{owned.seed}.json")
    tracer.dump(path, {"env": env, "metrics": m})
    print(f"spans written to {os.path.relpath(path, ROOT)}")
    return m, runner


def print_baseline(name: str, m: dict, zeta_counts: dict, replays: dict,
                   seed: int) -> None:
    """ROADMAP Baseline figures next to this run's (same nproc = 2 machine)."""
    rows = []
    if name == "census":
        rows += [
            ("census big-int path, kvalue_histogram", "1.47 s",
             f"{m['collatz.kvalue_histogram_s']:.3f} s"),
            ("census int64 path (ROADMAP: same seeds forced; here seeds "
             "from 7)", "0.026 s",
             f"{m['collatz.kvalue_histogram_small_s']:.4f} s"),
            ("ratio_digit_experiment per call", "1.8-2.0 s",
             " / ".join(f"{m[f'collatz.ratio_digit_experiment_s.b{b}']:.2f}"
                        for b in (4, 8, 10, 16, 7)) + " s (b4/8/10/16/7)")]
    if name == "trajectory":
        roadmap = {"remove_all_twos.small": "54%", "single_step.small": "70%",
                   "remove_all_twos.large": "6%", "single_step.large": "57%"}
        for key, ref in roadmap.items():
            share = replays[key].digit_s / m[
                f"collatz.iterate_digit_experiment_s.{key}"]
            rows.append((f"leading_digit share of wall (replay time over "
                         f"command time), {key}", ref, f"{100 * share:.0f}%"))
    if name == "spectral":
        parts = cue_breakdown(seed)
        rows += [
            ("zeta half-line ms per point",
             "0.024", f"{1e3 * m['zeta.scan_line_s.halfline'] / zeta_counts['halfline']['points']:.4f}"),
            ("zeta half-line refined points", "1864",
             str(zeta_counts["halfline"]["refined"])),
            ("zeta near-critical ms per point at t ~ 1e4", "0.98",
             f"{1e3 * m['zeta.scan_line_s.offline'] / zeta_counts['offline']['points']:.3f}"),
            ("CUE N=64 RNG / QR / slogdet s per 2,000", "0.59 / 0.91 / 0.37",
             " / ".join(f"{parts[k]:.2f}" for k in ("rng", "qr", "slogdet")))]
    for what, ref, got in rows:
        print(f"baseline {what}: ROADMAP {ref}, this run {got}")


def run(args, setup_times) -> int:
    if args.trace:
        groups = [workloads.build(args.workload, args.seed)] + [
            workloads.build(n, args.seed, reduced=True)
            for n in workloads.WORKLOADS if n != args.workload]
        metrics, runner = traced_run(groups, args.seed, setup_times)
    else:
        wl = workloads.build(args.workload, args.seed)
        metrics, runner = timed_run(wl, args.seconds, setup_times)
    print(result_line(metrics, runner.attempted, runner.failed))
    return 0
