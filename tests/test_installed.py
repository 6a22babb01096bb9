"""End-to-end checks of the command line, each command in a fresh process
whose output is read back and compared with a pin or an oracle.

Under ``PYTHONPATH=src`` the processes run ``python -m benford_lab.cli`` on
the package in the checkout.  Run from outside the checkout after
``pip install ".[test]"``, the same file checks the installed package through
its ``benford-lab`` console script:

    cd /tmp && python -m pytest /path/to/checkout/tests/test_installed.py

Pins that perfbench also checks are read from ``perfbench/checks.py``
``REFERENCE``, which is imported and never edited.
"""

import json
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import mpmath
import pytest

import benford_lab
from test_cli import _src_env, reject_constant

CHECKOUT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(CHECKOUT / "perfbench"))
from checks import REFERENCE  # noqa: E402

CENSUS = ["--start", "419753999998525", "--count", "100000", "-m", "10"]
EXPERIMENT = ["collatz", "experiment", "--base", "10"]

# the command that starts the command line: the checkout's module, or the
# console script that installing the package put on PATH
if Path(benford_lab.__file__).resolve().is_relative_to(CHECKOUT / "src"):
    CLI = [sys.executable, "-m", "benford_lab.cli"]
else:
    CLI = [shutil.which("benford-lab")]
    if CLI[0] is None:
        raise RuntimeError("benford_lab is installed without its benford-lab "
                           "console script on PATH")


def run(*args):
    """stdout of the command line called with ARGS, which must exit 0."""
    proc = subprocess.run([*CLI, *args], env=_src_env(), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def parse(text):
    """A JSON document, which must be RFC 8259 JSON: no NaN or Infinity."""
    return json.loads(text, parse_constant=reject_constant)


def trajectory(doc):
    """Iterates recorded and chi-square of a seed-0 trajectory: the count
    pins the stepping, the statistic every digit of the histogram."""
    return doc["n_recorded"], doc["report"]["chi_square"]


# each command, what is read from its JSON document, and the value it must
# have
PINNED = {
    # 100,000-digit trajectories through the block path, each digit
    # certified by floor(B^g) agreeing at both band ends
    "bignum-remove2": ([*EXPERIMENT, "--preset", "bignum-remove2"],
                       trajectory, (800322, 7.724162221558433)),
    "bignum-single": ([*EXPERIMENT, "--preset", "bignum-single"],
                      trajectory, (2400989, 3.956945398009573)),
    # 300-digit (997-bit) trajectories: every block runs on a window
    # narrower than 1,024 bits, and the iterates under 128 bits step exactly
    "remove2-300": ([*EXPERIMENT, "--mode", "remove_all_twos", "--digits",
                     "300"], trajectory, (2330, 4.163747152020038)),
    "single-300": ([*EXPERIMENT, "--mode", "single_step", "--digits", "300"],
                   trajectory, (7016, 2.4734666296070125)),
    # the headline census through the int64 step kernel
    "kvalues": (["collatz", "kvalues", *CENSUS],
                lambda doc: {k: c for k, c in enumerate(doc["counts"]) if c},
                REFERENCE["kvalues"]),
    # CUE digits: the rule's band-0 digit, and floor(B^f) for a sample that
    # band leaves undecided
    "cue-n4": (["cue", "--dim", "4", "--samples", "100000"],
               lambda doc: doc["histogram"],
               [31664, 20163, 13469, 9195, 6801, 5548, 4860, 4292, 4008]),
    # 65,536 points: Euler-Maclaurin below t = 200, the Riemann-Siegel
    # C_0..C_4 route above it, and no point refined
    "halfline": (["zeta", "--preset", "halfline-digits"],
                 lambda doc: (doc["histogram"], doc["refined"]),
                 (REFERENCE["zeta.halfline"], 0)),
}


# CSV: a meta line, a header, then one row per recorded point or sample
CSV_LINES = {
    # no half-line point is skipped
    "halfline": (["zeta", "--preset", "halfline-digits"], 65538),
    "cue-1000": (["cue", "--dim", "4", "--samples", "1000"], 1002),
}

CF_SIZES = [(600, 700), (1000, 1200)]


def cf_args(depth, dps):
    return ["equidist", "cf", "--alpha", "log:2:10", "--depth", str(depth),
            "--dps", str(dps), "--format", "json"]


# every command the tests below read
COMMANDS = ([[*args, "--format", "json"] for args, _, _ in PINNED.values()]
            + [[*args, "--format", "csv"] for args, _ in CSV_LINES.values()]
            + [cf_args(*size) for size in CF_SIZES])


@pytest.fixture(scope="module")
def stdout():
    """``run`` of a command of ``COMMANDS``: all of them start at the first
    test, two processes at a time, and each test waits for its own."""
    with ThreadPoolExecutor(2) as pool:
        futures = {tuple(args): pool.submit(run, *args) for args in COMMANDS}
        yield lambda *args: futures[args].result()


@pytest.mark.parametrize("args, read, want", PINNED.values(), ids=PINNED)
def test_output_is_pinned(args, read, want, stdout):
    assert read(parse(stdout(*args, "--format", "json"))) == want


@pytest.mark.parametrize("args, lines", CSV_LINES.values(), ids=CSV_LINES)
def test_csv_has_a_row_per_point(args, lines, stdout):
    assert stdout(*args, "--format", "csv").count("\n") == lines


@pytest.mark.parametrize("depth, dps", CF_SIZES)
def test_cf_holds_past_500_digits(depth, dps, stdout):
    # log:X:B is evaluated at dps and guard digits, so convergents that 500
    # digits cannot determine are still log10(2)'s own
    doc = parse(stdout(*cf_args(depth, dps)))
    want, (p, p0, q, q0) = [], (1, 0, 0, 1)
    with mpmath.workdps(2 * dps):
        a = mpmath.log(2) / mpmath.log(10)
        for _ in range(depth):
            k = int(mpmath.floor(a))
            a = 1 / (a - k)
            p, p0, q, q0 = k * p + p0, p, k * q + q0, q
            want.append([str(p), str(q)])
    assert doc["convergents"] == want


def test_cue_peak_rss_is_bounded(tmp_path):
    # CUE chunks run their linear algebra on 1 MB slices of matrices: 4,096
    # samples at N = 64 on two workers peak below 350 MB of RSS.  A child's
    # ru_maxrss starts at its parent's peak, so the command runs under a
    # small launcher, which prints its exit code and peak (KiB on Linux)
    launcher = ("import resource, subprocess, sys\n"
                "rc = subprocess.run(sys.argv[1:]).returncode\n"
                "print(rc, resource.getrusage(resource.RUSAGE_CHILDREN)"
                ".ru_maxrss)")
    out = tmp_path / "cue64.json"
    proc = subprocess.run(
        [sys.executable, "-c", launcher, *CLI, "cue", "--dim", "64",
         "--samples", "4096", "--workers", "2", "--format", "json",
         "--out", str(out)],
        env=_src_env(), capture_output=True, text=True, timeout=300)
    code, peak = map(int, proc.stdout.split())
    assert code == 0, proc.stderr
    assert peak < 350 * 1024
    assert parse(out.read_text())["moments"]["n_samples"] == 4096
