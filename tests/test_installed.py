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

import hashlib
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


def run(*args, cwd=None):
    """stdout of the command line called with ARGS from the directory CWD,
    which must exit 0."""
    proc = subprocess.run([*CLI, *args], env=_src_env(), capture_output=True,
                          text=True, timeout=300, cwd=cwd)
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

# the file ``digits`` reads, by a path relative to the directory the
# commands run in, so that the meta line echoing it is the same everywhere
DIGITS_FILE = "values.txt"
DIGITS_TEXT = "".join(f"{3 ** k}\n" for k in range(1, 300)) + "-0.5\n1.99e5\n"

# small runs of every command, whose whole stdout is pinned in each format.
# cue is left out, since its moments come from LAPACK, and so is the CSV of
# zeta, whose %.12e fields come from numpy's exp, log and cos kernels, which
# vary by CPU
SMALL = {
    "digits": ["digits", DIGITS_FILE],
    "experiment": ["collatz", "experiment", "--count", "2000"],
    "trajectory": ["collatz", "experiment", "--mode", "single_step",
                   "--digits", "300"],
    "structure": ["collatz", "structure", "--ktuple", "1,1", "--limit",
                  "10000"],
    "kvalues": ["collatz", "kvalues", "--count", "2000"],
    "ratio": ["collatz", "ratio", "--count", "2000"],
    "model": ["collatz", "model", "--samples", "2000"],
    "zeta": ["zeta", "--t-start", "190", "--t-end", "210"],
    "kalpha": ["equidist", "kalpha", "--alpha", "log:2:10", "--count",
               "10000"],
    "cf": ["equidist", "cf", "--alpha", "log:2:10"],
    "type": ["equidist", "type", "--alpha", "log:2:10", "--depth", "8",
             "--gammas", "1e300,0.5,1"],
    "poisson-check": ["poisson-check"],
}
STDOUT_SHA256 = {
    "digits-table":
        "0e62147e347af5d8289f1988fcd3e4d7bb2451eb68115f0176d4fd80f7cf0948",
    "digits-json":
        "b4d885fcad0625659ca9a47a1e475a4c7d2ab0111f768624c74d7a362f5c242e",
    "digits-csv":
        "255b0eebe71e26665e912576533af1d5aa0ac44d4c85d3c083a9a0720232f447",
    "experiment-table":
        "84863b34123a3be27816ef5f47fa066eee36e02609b89d90b62cde35b5faf6ff",
    "experiment-json":
        "a2ec5b5046ae72d9c3daa2dcdb734dee0b4ea38812dd8bf0f4ce729af5b6970e",
    "experiment-csv":
        "dbed820d01c7d7eb4dd43d51401e662e3c6fa35769da8ca6feb7ca3514c487f9",
    "trajectory-table":
        "8dde32f2a1f526ab43cd3a476a69c517e5155b78afaa2544a034bd0dc1ed7810",
    "trajectory-json":
        "7a5b82ed627e23ea144b5c688570284f7e00d68d004fa121d00076ed386c16cf",
    "trajectory-csv":
        "f5067fd127ff227f5c26a2ccf8b03e3df6a1793ab0375d14e78c04304d52453b",
    "structure-table":
        "18c81a95b6a7d41e394d291688f5373f50a9674b519e0fa5e72255c8116db371",
    "structure-json":
        "d927e14603bb63b5609887efc0e2f1bf250b291d1d768e4c0c8349eb15094746",
    "structure-csv":
        "4020fef1ba68d548c50824fc57deeaf135d1321b52f241c85d14203ecb372dad",
    "kvalues-table":
        "61127f0d920411d53506e0e3370ef4fc173cc2ba0c6c294d93394b737abdde16",
    "kvalues-json":
        "e7815dceb071b35ea27a37804c4f4f9640cf69a0fea0303ab93bb5bec44171e5",
    "kvalues-csv":
        "0bf037f6cdbcdc6b83d6385c3ed09be4f006370555616670847d85f236e2b0ba",
    "ratio-table":
        "50853069d97c0a017ce46c53555f8fa267409e28b28ce98c4efb63565dd972ba",
    "ratio-json":
        "a901501dd3bb7d88d471b8ee00a5d44ac4e1dc276e009fbb77ca34a913502003",
    "ratio-csv":
        "f9c30d54bd77f28d86a16faadc10f9ee61587a46726164fac6a9c6fd9e5dd44b",
    "model-table":
        "60d5e6652b7e56f5d21fa81e7476036bae6afa3aab04a60f57954cdea3a2b0d9",
    "model-json":
        "c939c46a483d208caed362db0f166615c597852a7a4f9c658aca3acea0eaca8c",
    "model-csv":
        "ca7bacdc1d9ea8d9e834d0b54221db4e17446d90205600ad9ee7d6c5ae48fd75",
    "zeta-table":
        "dd6bb967540ac26cfbd96ac611cb6e913cc6ddf4688329c1980eeed22eaac4f3",
    "zeta-json":
        "99efc6c704ce874fc9cffea615d0a82850d2cec46ccc1dc4aaa76818d34633c0",
    "kalpha-table":
        "0c75fa9b2b3626a4eebcfdf30494c9c6a56ee5cbab3009faabf68e85d1f398bb",
    "kalpha-json":
        "8fc19075ea1a3a9273679b618ebc19a402ea527bdb9c588e2ffd062962115670",
    "kalpha-csv":
        "5173460494a0c8f9dba30e520ccbde80c77000b6b4b0519656682c071fc26b6b",
    "cf-table":
        "39cf24f5689c043651be83e739b277e95d8b7a4f0d3e0125a10b58e706330d86",
    "cf-json":
        "abc4f06df7af89ce3ca23e0b15dd2c4e0e29221e8a4b78bf6343d76e51c00dbf",
    "cf-csv":
        "bcc84e6bd959f9ef21fc18700b81360bf206032e98418897f611e57ae8c75534",
    "type-table":
        "ffe74ab37674d017d6a428c155e9a6e31a49867b6a3d3eb3b93bbe1debeb4781",
    "type-json":
        "51ce27094e376d72d2935ad1b9399c05e6ee3ca73fbcd8f0181a395fb6bc2e11",
    "type-csv":
        "df9626bbdef34d89f5ccc19714cab2b347a169c0f0e816ac09cc3db3643d4de1",
    "poisson-check-table":
        "18f7af23f406f3ad056c101be52c7e8f5411b136ee26dab64fb7bc30af93e16a",
    "poisson-check-json":
        "565d2c6d1cf30f37aa76e2a6fbd810ff05ccc9ed50484a62ff03a5d18df4fd94",
    "poisson-check-csv":
        "87ee2eb5731194125a1529932cc3a4507e710dcbcade91b18820fe64c98efcff",
}


def cf_args(depth, dps):
    return ["equidist", "cf", "--alpha", "log:2:10", "--depth", str(depth),
            "--dps", str(dps), "--format", "json"]


# every command the tests below read
COMMANDS = ([[*args, "--format", "json"] for args, _, _ in PINNED.values()]
            + [[*args, "--format", "csv"] for args, _ in CSV_LINES.values()]
            + [cf_args(*size) for size in CF_SIZES]
            + [[*SMALL[name.rpartition("-")[0]], "--format",
                name.rpartition("-")[2]] for name in STDOUT_SHA256])


@pytest.fixture(scope="module")
def stdout(tmp_path_factory):
    """``run`` of a command of ``COMMANDS``: all of them start at the first
    test, two processes at a time, from a directory holding ``DIGITS_FILE``,
    and each test waits for its own."""
    cwd = tmp_path_factory.mktemp("cli")
    (cwd / DIGITS_FILE).write_text(DIGITS_TEXT)
    with ThreadPoolExecutor(2) as pool:
        futures = {tuple(args): pool.submit(run, *args, cwd=cwd)
                   for args in COMMANDS}
        yield lambda *args: futures[args].result()


@pytest.mark.parametrize("name", STDOUT_SHA256)
def test_stdout_bytes_are_pinned(name, stdout):
    command, _, fmt = name.rpartition("-")
    out = stdout(*SMALL[command], "--format", fmt)
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[name]


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
