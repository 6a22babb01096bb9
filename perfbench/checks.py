"""Output checks for every benchmark command.

Checks parse the payload (JSON document, or CSV rows after the metadata
line) and never compare raw bytes: the CSV/JSON metadata echoes
``workers``, so the same run differs in its first line by worker count.

Exact results are compared exactly.  Each workload has an oracle built
before the timed loop from public functions and independent arithmetic:

* census: an int64 re-run of the 3x+1 census (trailing zeros stripped bit by
  bit, not by the engine's ``u & -u`` trick), spot-checked against
  ``collatz.path``; ratio digits from exact per-exponent digit gaps;
* trajectory: an exact replay with the public
  ``core_numeric.leading_digit`` (``Replay``);
* spectral: ``mpmath.zeta`` at sampled grid points, the exact second and
  fourth cumulants of log|Z| for CUE, and the theorems
  D* <= D <= 2 D* and D <= Erdos-Turan bound for k*alpha.

At seed 0 and full size the outputs must also equal the recorded reference
(``REFERENCE``), taken from the README/acceptance runs at this commit.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from time import perf_counter

import mpmath
import numpy as np
from scipy.special import polygamma

from benford_lab import collatz, rmt
from benford_lab.core_numeric import DomainError, leading_digit
from workloads import TRAJECTORY_BASE as BASE
from workloads import Workload, trajectory_digits

CHECK_Z = 5.0          # sigmas for Monte Carlo moment checks
AUDIT_STRIDE = 997     # one trajectory digit in this many checked exactly
ZETA_ORACLE_POINTS = 6  # mpmath evaluations per scan

# Seed 0, full size.  Census and trajectory counts are exact; the zeta
# histograms are the digit columns of the CSV rows.
REFERENCE = {
    "ratio.b4": [50286, 49714, 0],
    "ratio.b8": [33080, 33603, 0, 33317, 0, 0, 0],
    "ratio.b10": [29847, 17850, 12086, 10003, 8465, 9759, 2378, 8727, 885],
    "ratio.b16": [24983, 24957, 0, 25303, 0, 0, 0, 24757,
                  0, 0, 0, 0, 0, 0, 0],
    "ratio.b7": [36454, 23241, 13187, 16841, 4354, 5923],
    "kvalues": {1: 500221, 2: 249587, 3: 125023, 4: 62379, 5: 31316,
                6: 15652, 7: 7867, 8: 3982, 9: 1962, 10: 1019, 11: 477,
                12: 250, 13: 127, 14: 90, 15: 21, 16: 16, 17: 1, 18: 7,
                19: 1, 20: 1, 22: 1},
    "ratio_ks.b10": 0.09564,
    "remove_all_twos.small": (80898, [24225, 14438, 10200, 7809, 6414, 5396,
                                      4612, 4116, 3688]),
    "single_step.small": (242334, [72704, 42784, 30247, 23529, 19308, 16294,
                                   14014, 12437, 11017]),
    "remove_all_twos.large": (241557, [72702, 42408, 30030, 23573, 19108,
                                       16222, 13971, 12495, 11048]),
    "single_step.large": (724070, [218021, 127287, 90467, 70418, 56934,
                                   48648, 41686, 37121, 33488]),
    "zeta.halfline": [20314, 11508, 8072, 6249, 5006, 4325, 3782, 3251, 3029],
    "zeta.offline": [341, 87, 85, 75, 80, 93, 93, 76, 70],
    "cue.n64": [1199, 694, 496, 381, 324, 276, 243, 219, 168],
    "kalpha": {"star": 4.289346170027741e-06,
               "extreme": 6.555551534974778e-06,
               "erdos_turan": 0.03001277756020864},
}


class CheckError(Exception):
    """A command's output disagrees with its oracle or reference."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ------------------------------------------------------------------ census --

def census_paths(start: int, count: int, m: int):
    """x_0, x_m, total multiplicity S and pooled k-histogram, in int64."""
    x0 = start + 6 * np.arange(count, dtype=np.int64)
    x = x0.copy()
    s_tot = np.zeros(count, dtype=np.int64)
    khist = np.zeros(64, dtype=np.int64)
    for _ in range(m):
        require(int(x.max()) < (2 ** 62) // 3, "census oracle left int64")
        u = 3 * x + 1
        k = np.zeros(count, dtype=np.int64)
        while True:
            even = (u & 1) == 0
            if not even.any():
                break
            u = np.where(even, u >> 1, u)
            k += even
        x = u
        s_tot += k
        khist += np.bincount(np.minimum(k, 63), minlength=64)
    return x0, x, s_tot, khist


def _exact_ratio_digit(x0: int, xm: int, m: int, base: int) -> int:
    r = Fraction(xm << (2 * m), 3 ** m * x0)
    while r >= base:
        r /= base
    while r < 1:
        r *= base
    return int(r)


def ratio_digits(x0, xm, s_tot, m: int, base: int, excess) -> np.ndarray:
    """Leading base-``base`` digit of x_m / ((3/4)^m x_0) for every seed.

    The ratio is 2^j * u with j = 2m - S and u = x_m 2^S / (3^m x_0) > 1.
    Its digit is that of 2^j unless u - 1 (``excess``, from exact integer
    differences) reaches the relative gap from 2^j's mantissa M to the next
    digit, (floor(M) + 1) / M - 1, which is computed exactly per j.
    """
    j = 2 * m - s_tot
    digits = np.empty(len(j), dtype=np.int64)
    for jv in np.unique(j):
        mant = Fraction(2) ** int(jv)
        while mant >= base:
            mant /= base
        while mant < 1:
            mant *= base
        d = int(mant)
        gap = float((d + 1) / mant - 1)
        sel = np.nonzero(j == jv)[0]
        digits[sel] = d
        for i in sel[excess[sel] >= gap * (1.0 - 1e-6)]:
            digits[i] = _exact_ratio_digit(int(x0[i]), int(xm[i]), m, base)
    return digits


class CensusOracle:
    def __init__(self, wl: Workload):
        start, count, m = (wl.inputs[k] for k in ("start", "count", "m"))
        self.count, self.m = count, m
        self.x0, self.xm, self.s_tot, self.khist = census_paths(start, count, m)
        for i in range(0, count, max(1, count // 50)):
            rec = collatz.path(collatz.THREE_X_PLUS_1, int(self.x0[i]), m)
            require(rec.iterates[-1] == int(self.xm[i])
                    and sum(rec.kvalues) == int(self.s_tot[i]),
                    f"census oracle disagrees with collatz.path at seed {i}")
        p3 = 3 ** m
        excess = np.array([((xm << s) - p3 * x0) / (p3 * x0) for x0, xm, s
                           in zip(self.x0.tolist(), self.xm.tolist(),
                                  self.s_tot.tolist())])
        require(bool((excess > 0).all()), "census oracle: u <= 1")
        self.hist = {}
        for cmd in wl.commands:
            base = cmd.params.get("base")
            if base and base not in self.hist:
                d = ratio_digits(self.x0, self.xm, self.s_tot, m, base, excess)
                self.hist[base] = np.bincount(d, minlength=base)[1:base]
        self.ks = {}
        for cmd in wl.commands:
            if cmd.kind == "ratio_ks":
                self.ks[cmd.key] = self._ks(cmd.params["base"],
                                            cmd.params["cli_seed"])

    def _ks(self, base: int, cli_seed: int) -> float:
        """KS distance recomputed from the public functions.

        Not from the int64 oracle: the census statistic sits ~1e-14 above
        the model's lattice points j*log_B(2), inside the ~1e-12 rounding of
        ``ratio_fracs``, so the distance depends on that rounding."""
        seeds = collatz.census_1mod6(int(self.x0[0]), self.count)
        fracs = collatz.ratio_fracs(seeds, self.m, base)
        model = collatz.geometric_model_points(
            self.m, base, self.count,
            np.random.Generator(np.random.Philox(cli_seed)))
        return collatz.ks_distance(fracs, model)

    def _observed(self, freqs, base: int, key: str) -> np.ndarray:
        counts = np.rint(np.asarray(freqs) * self.count).astype(np.int64)
        require(counts.sum() == self.count,
                f"{key}: digit counts sum to {counts.sum()}, not {self.count}")
        require(np.array_equal(counts, self.hist[base]),
                f"{key}: histogram {counts.tolist()} != oracle "
                f"{self.hist[base].tolist()}")
        if base & (base - 1) == 0:
            allowed = {1 << j for j in range(base.bit_length() - 1)}
            require(all(counts[d - 1] == 0 for d in range(1, base)
                        if d not in allowed),
                    f"{key}: a forbidden digit has a nonzero count")
        return counts

    def check(self, cmd, text: str, reference: bool) -> None:
        doc = json.loads(text)
        if cmd.kind == "kvalues":
            counts = np.asarray(doc["counts"], dtype=np.int64)
            require(int(counts.sum()) == self.m * self.count,
                    f"kvalues total {counts.sum()} != m * seeds")
            require(np.array_equal(counts, self.khist),
                    "kvalues histogram differs from the oracle")
            n = np.arange(64)
            mean = float((n * self.khist).sum() / self.khist.sum())
            require(abs(doc["mean"] - mean) < 1e-12, "kvalues mean")
            if reference:
                ref = np.zeros(64, dtype=np.int64)
                for k, v in REFERENCE["kvalues"].items():
                    ref[k] = v
                require(np.array_equal(counts, ref),
                        "kvalues differ from the seed-0 reference")
            return
        base = cmd.params["base"]
        counts = self._observed(doc["observed"], base, cmd.key)
        if cmd.kind == "ratio_ks":
            ks = doc["ks_vs_model"]
            require(ks == self.ks[cmd.key],
                    f"{cmd.key}: KS {ks} != oracle {self.ks[cmd.key]}")
            if reference:
                require(ks == REFERENCE[cmd.key], f"{cmd.key}: KS reference")
            key = f"ratio.b{base}"
        else:
            key = cmd.key
        if reference:
            require(counts.tolist() == REFERENCE[key],
                    f"{cmd.key}: histogram differs from the seed-0 reference")


# -------------------------------------------------------------- trajectory --

class Replay:
    """A trajectory re-run one accelerated step at a time.

    The accelerated map sends odd x to y = (3x+1)/2^k; the single-step
    trajectory visits 3x+1, (3x+1)/2, ..., y in between, so its digits are
    those of y << j for j = k .. 0.  Digits come from the public
    ``core_numeric.leading_digit``, the function the command uses, so an
    untimed replay also audits every AUDIT_STRIDE-th digit against
    ``exact_leading_digit``; the offset depends on x0, so each seed audits
    other iterates.  With ``timed=True`` steps go through the public
    ``collatz.step`` and both primitives are timed per call and aggregated
    (count plus total time), not recorded as spans.
    """

    def __init__(self, x0: int, mode: str, timed: bool = False):
        self.counts = [0] * (BASE - 1)
        self.n_recorded = 0
        self.step_calls = self.step_s = 0
        self.digit_calls = self.digit_s = 0
        self.step_rejected = 0       # DomainError: input not in the domain
        self.step_defect = []        # ValueError raised instead of DomainError
        self.sum_k = 0
        self.n_steps = 0
        step = self._public_step if timed else self._step

        audit_at = -1 if timed else int(x0) % AUDIT_STRIDE
        self.audited = 0

        def record(x):
            t = perf_counter()
            d = leading_digit(x, BASE)
            self.digit_s += perf_counter() - t
            if self.digit_calls % AUDIT_STRIDE == audit_at:
                exact = exact_leading_digit(x)
                require(d == exact, f"leading_digit gave {d}, exact digit "
                        f"{exact}, at iterate {self.digit_calls} "
                        f"({x.bit_length()} bits)")
                self.audited += 1
            self.digit_calls += 1
            self.counts[d - 1] += 1

        x = int(x0)
        record(x)
        if mode == "remove_all_twos":
            if x % 2 == 0:
                x >>= (x & -x).bit_length() - 1
                record(x)
            while x != 1:
                x, _ = step(x)
                record(x)
        else:
            while x % 2 == 0:
                x >>= 1
                record(x)
            while x != 1:
                y, k = step(x)
                for j in range(k, -1, -1):
                    record(y << j)
                x = y
        self.n_recorded = self.digit_calls

    def _step(self, x):
        u = 3 * x + 1
        k = (u & -u).bit_length() - 1
        self.sum_k += k
        self.n_steps += 1
        return u >> k, k

    def _public_step(self, x):
        t = perf_counter()
        try:
            y, k = collatz.step(collatz.THREE_X_PLUS_1, x)
        except DomainError:
            self.step_rejected += 1
            return self._step(x)
        except ValueError as exc:
            # known defect: the DomainError message formats x, which raises
            # past 4,300 digits (the int -> str conversion limit)
            self.step_defect.append((int(x.bit_length() * 0.30103) + 1,
                                     str(exc)))
            return self._step(x)
        self.step_s += perf_counter() - t
        self.step_calls += 1
        self.sum_k += k
        self.n_steps += 1
        return y, k


def exact_leading_digit(x: int) -> int:
    """Leading decimal digit of x >= 1 from exact comparisons with powers of
    10; shares no code with ``core_numeric``."""
    # 0.30102 < log10(2), so 10^k <= 2^(bits - 1) <= x
    p = 10 ** ((x.bit_length() - 1) * 30102 // 100000)
    while p * 10 <= x:
        p *= 10
    return x // p


def boundary_cases(digits: int) -> list:
    """(x, leading digit) on both sides of each boundary d * 10^k, where the
    bracket straddles the boundary and the exact fallback must decide."""
    p = 10 ** (digits - 1)
    return [(d * p - 1, d - 1 if d > 1 else 9) for d in range(1, 10)] \
        + [(d * p, d) for d in range(1, 10)]


def single_step_count(x0: int, remove2: Replay) -> int:
    """n_recorded of the single-step trajectory from a remove-all-twos replay:
    one record per halving of an even seed plus k + 1 per accelerated step."""
    v2 = (x0 & -x0).bit_length() - 1
    return 1 + v2 + remove2.sum_k + remove2.n_steps


class TrajectoryOracle:
    """Exact replays: both modes at the small size; at the large size the
    remove-all-twos histogram plus the single-step count it implies."""

    def __init__(self, wl: Workload):
        self.expected = {}
        digits = trajectory_digits(wl.reduced)
        for size, x0 in wl.inputs["x0"].items():
            wrong = [(want, leading_digit(x, BASE))
                     for x, want in boundary_cases(digits[size])
                     if leading_digit(x, BASE) != want]
            require(not wrong, f"leading_digit at digit boundaries (want, "
                    f"got): {wrong[:3]}")
            rm = Replay(x0, "remove_all_twos")
            self.expected[f"remove_all_twos.{size}"] = (rm.n_recorded,
                                                        rm.counts)
            n_ss = single_step_count(x0, rm)
            if size == "small":
                ss = Replay(x0, "single_step")
                require(ss.n_recorded == n_ss,
                        "single-step replay disagrees with its count")
                self.expected[f"single_step.{size}"] = (n_ss, ss.counts)
            else:
                self.expected[f"single_step.{size}"] = (n_ss, None)

    @staticmethod
    def parse(text: str):
        doc = json.loads(text)
        n = doc["n_recorded"]
        counts = [round(r["observed"] * n) for r in doc["report"]["per_digit"]]
        return doc, n, counts

    def check(self, cmd, text: str, reference: bool) -> None:
        doc, n, counts = self.parse(text)
        require(doc["reached_one"], f"{cmd.key}: did not reach 1")
        require(sum(counts) == n == doc["report"]["total"],
                f"{cmd.key}: histogram total != n_recorded")
        exp_n, exp_counts = self.expected[cmd.key]
        require(n == exp_n, f"{cmd.key}: n_recorded {n} != replay {exp_n}")
        if exp_counts is not None:
            require(counts == exp_counts,
                    f"{cmd.key}: histogram {counts} != replay {exp_counts}")
        if reference:
            ref_n, ref_counts = REFERENCE[cmd.key]
            require(n == ref_n and counts == ref_counts,
                    f"{cmd.key}: differs from the seed-0 reference")


# ---------------------------------------------------------------- spectral --

def exact_cue_cumulants(n: int) -> tuple[float, float]:
    """k2, k4 of log|Z| from E|Z|^t = prod_j G(j)G(j+t)/G(j+t/2)^2."""
    j = np.arange(1, n + 1)
    return (float(0.5 * polygamma(1, j).sum()),
            float(0.875 * polygamma(3, j).sum()))


def _leading_digit_mp(v) -> int:
    f = mpmath.frac(mpmath.log10(v))
    return int(mpmath.floor(mpmath.power(10, f)))


class SpectralOracle:
    def __init__(self, wl: Workload):
        self.zeta_points = {}
        rng = np.random.Generator(np.random.Philox(key=[wl.seed, 7]))
        for cmd in wl.commands:
            if cmd.kind != "zeta_csv":
                continue
            idx = rng.choice(cmd.items, ZETA_ORACLE_POINTS, replace=False)
            pts = {}
            with mpmath.workdps(25):
                for i in sorted(int(i) for i in idx):
                    t = cmd.params["t_start"] + 0.25 * i
                    sigma = cmd.params.get("sigma")
                    if sigma is None:
                        sigma = 0.5 + math.log(t) ** -cmd.params["delta"]
                    v = mpmath.zeta(mpmath.mpc(sigma, t))
                    pts[f"{t:.6f}"] = (complex(v), _leading_digit_mp(abs(v)))
            self.zeta_points[cmd.key] = pts
        self.cue = {}
        for dim in (64, 4):
            k2, k4 = exact_cue_cumulants(dim)
            self.cue[dim] = (k2, 3.0 + k4 / k2 ** 2, rmt.q2_variance(dim))

    def _moments(self, key: str, dim: int, n: int, mean: float, var: float):
        k2, kurt, q2 = self.cue[dim]
        se_var = k2 * math.sqrt((kurt - 1.0) / n)
        tol = CHECK_Z * se_var + abs(q2 - k2)
        require(abs(var - q2) <= tol,
                f"{key}: variance {var:.5f} vs q2 {q2:.5f} (tol {tol:.5f})")
        require(abs(mean) <= CHECK_Z * math.sqrt(k2 / n),
                f"{key}: mean {mean:.5f} not centred")

    def check(self, cmd, text: str, reference: bool) -> None:
        getattr(self, "_" + cmd.kind)(cmd, text, reference)

    def _zeta_csv(self, cmd, text, reference):
        lines = text.splitlines()
        require(lines[0].startswith("# ") and
                lines[1] == "t,sigma,re,im,abs,log_abs,digit,cert_err",
                f"{cmd.key}: malformed CSV head")
        rows = [ln.split(",") for ln in lines[2:]]
        require(0 < len(rows) <= cmd.items, f"{cmd.key}: row count")
        hist = [0] * 9
        by_t = {}
        for r in rows:
            hist[int(r[6]) - 1] += 1
            by_t[r[0]] = r
        for t, (v, digit) in self.zeta_points[cmd.key].items():
            r = by_t.get(t)
            if r is None:       # excluded as uncertifiable; allowed
                continue
            got = complex(float(r[2]), float(r[3]))
            # cert_err is printed to 4 significant digits
            tol = float(r[7]) * 1.001 + 1e-11 * abs(v)
            require(abs(got - v) <= tol,
                    f"{cmd.key}: zeta({r[1]}+{t}i) off by {abs(got - v):.2e}"
                    f" > {tol:.2e}")
            require(int(r[6]) == digit, f"{cmd.key}: digit at t={t}")
        if reference:
            require(len(rows) == sum(REFERENCE[cmd.key]) and
                    hist == REFERENCE[cmd.key],
                    f"{cmd.key}: histogram {hist} differs from the seed-0 "
                    "reference")

    def _cue_json(self, cmd, text, reference):
        doc = json.loads(text)
        mom = doc["moments"]
        n = cmd.items
        require(mom["n_samples"] == n and sum(doc["histogram"]) == n,
                f"{cmd.key}: sample count")
        self._moments(cmd.key, cmd.params["dim"], n, mom["mean"],
                      mom["variance"])
        if reference:
            require(doc["histogram"] == REFERENCE[cmd.key],
                    f"{cmd.key}: histogram differs from the seed-0 reference")

    def _cue_csv(self, cmd, text, reference):
        lines = text.splitlines()
        require(lines[1] == "dim,theta,log_abs,standardized",
                f"{cmd.key}: malformed CSV head")
        cols = np.array([ln.split(",") for ln in lines[2:]], dtype=np.float64)
        n = cmd.items
        require(cols.shape == (n, 4), f"{cmd.key}: row count")
        dim = cmd.params["dim"]
        require((cols[:, 0] == dim).all(), f"{cmd.key}: dim column")
        require(((cols[:, 1] >= 0) & (cols[:, 1] < 2 * math.pi)).all(),
                f"{cmd.key}: theta out of range")
        scale = math.sqrt(self.cue[dim][2])
        require(np.allclose(cols[:, 3] * scale, cols[:, 2], rtol=1e-10,
                            atol=1e-12), f"{cmd.key}: standardized column")
        self._moments(cmd.key, dim, n, float(cols[:, 2].mean()),
                      float(cols[:, 2].var(ddof=1)))

    def _kalpha(self, cmd, text, reference):
        rep = json.loads(text)["report"]
        n = cmd.items
        star, ext, et = rep["star"], rep["extreme"], rep["erdos_turan"]
        require(rep["n_points"] == n and rep["m_used"] == 100,
                f"{cmd.key}: report shape")
        require(0.5 / n <= star <= ext <= 2.0 * star + 1e-15,
                f"{cmd.key}: D* {star} and D {ext} break D* <= D <= 2 D*")
        require(ext <= et, f"{cmd.key}: D {ext} exceeds the ET bound {et}")
        if reference:
            require(all(rep[k] == v for k, v in REFERENCE[cmd.key].items()),
                    f"{cmd.key}: report differs from the seed-0 reference")


class Unchecked:
    """Stands in for an oracle that could not be built; every check fails."""

    def __init__(self, why: str):
        self.why = why

    def check(self, cmd, text: str, reference: bool) -> None:
        raise CheckError(f"no oracle: {self.why}")


ORACLES = {"census": CensusOracle, "trajectory": TrajectoryOracle,
           "spectral": SpectralOracle}


def oracle_for(wl: Workload):
    return ORACLES[wl.name](wl)


def check(oracle, wl: Workload, cmd, text: str) -> None:
    """Raise CheckError unless ``text`` is the correct output of ``cmd``."""
    oracle.check(cmd, text, reference=wl.seed == 0 and not wl.reduced)
