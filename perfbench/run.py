"""benford-lab benchmark: three workloads timed through ``benford_lab.cli.main``.

    python3 perfbench/run.py --workload census|trajectory|spectral \
        --seed N --seconds S --trace 0|1

A closed loop: one client issues one CLI command at a time.  The only
concurrency is ``cue --workers 2``; BLAS is pinned to one thread.
``--trace 0`` times passes over the workload's commands in a fresh process
(``passes.py``), checks every output here and prints the end-to-end metrics;
``--trace 1`` runs a traced pass over it, traced reduced-size passes over the
other workloads and fixed layer probes, and prints the per-layer metrics.
The last stdout line is the JSON result.  See README.md in this directory for
why each workload exists and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from time import perf_counter

T_PROCESS = perf_counter()

# before numpy is imported anywhere
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["BENFORD_LAB_WORKERS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 5      # fresh interpreters timed for setup_s


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("census", "trajectory", "spectral"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        fail("--seed must be >= 0")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    return args


def import_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "benford_lab", "cli.py")):
        fail(f"no benford_lab sources under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    import benford_lab.cli  # noqa: F401 - the import is part of setup


def setup_probe(args) -> None:
    """Time import plus input generation in this fresh interpreter."""
    import_program()
    import workloads
    workloads.build(args.workload, args.seed)
    print(f"{perf_counter() - T_PROCESS!r}")


def measure_setup(args) -> list:
    """Nominal setup seconds (``speed``) from SETUP_PROBES fresh
    interpreters, one at a time, with the reference workload run here
    before the first and after each."""
    import speed
    times = []
    ref = speed.reference_s()
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            fail(f"setup probe failed: {proc.stderr.strip()}")
        ref_after = speed.reference_s()
        times.append(speed.nominal(
            float(proc.stdout.strip().splitlines()[-1]), ref, ref_after))
        ref = ref_after
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    import_program()
    setup_times = measure_setup(args)
    import bench
    return bench.run(args, setup_times)


if __name__ == "__main__":
    sys.exit(main())
