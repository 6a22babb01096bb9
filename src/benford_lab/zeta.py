"""Riemann zeta evaluation with certified error bounds, plus scanning and
leading-digit histogram machinery along horizontal lines and along the
near-critical path sigma(T) = 1/2 + 1/log^delta(T).

Three evaluation routes, chosen by region:

* an accelerated alternating (eta) series for |t| <= 40 and any sigma >= 0,
  with repeated-averaging (van Wijngaarden) convergence acceleration;
* the Riemann-Siegel main sum with its leading correction term on the
  critical line for t > 40 -- cheap, with certified absolute error of order
  (t/2pi)^(-3/4);
* Euler-Maclaurin summation with ~1.3*t initial terms and 8 Bernoulli
  corrections for t > 40 off the line, which doubles as the high-precision
  refinement route everywhere (absolute error near 1e-14 at scan heights).

``_zeta_many`` is the single place where the route is chosen; ``zeta_eval``
and ``scan_line`` both call it.

A sample's leading digit is never taken from a value whose certified error
band straddles a digit boundary: such points (and points indistinguishable
from zeros) are re-evaluated with the refinement route, and only then
recorded or excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .benford_stats import DigitHistogram
from .core_numeric import DomainError, _check_digit_base, \
    digits_from_log

__all__ = [
    "AccuracyError",
    "HejhalParams",
    "sigma_T",
    "psi_variance",
    "zeta",
    "zeta_eval",
    "ZetaSample",
    "SigmaMode",
    "ScanResult",
    "scan_line",
]

_TWO_PI = 2.0 * math.pi


class AccuracyError(RuntimeError):
    """The requested accuracy cannot be certified at this point."""


# ------------------------------------------------------------- parameters --

def sigma_T(T: float, delta: float) -> float:
    """The near-critical abscissa 1/2 + (log T)^(-delta)."""
    if T <= math.e:
        raise DomainError("T must exceed e so that log T > 1")
    if not 0.0 < delta < 1.0:
        raise DomainError("delta must lie in (0, 1)")
    return 0.5 + math.log(T) ** -delta


def psi_variance(sigma: float, T: float, aleph: float = 1.0) -> float:
    """aleph * log(min(log T, 1/(sigma - 1/2))); the O(1) term is set to 0."""
    if sigma <= 0.5:
        raise DomainError("sigma must exceed 1/2")
    if T <= math.e:
        raise DomainError("T must exceed e")
    if aleph <= 0:
        raise DomainError("aleph must be positive")
    return aleph * math.log(min(math.log(T), 1.0 / (sigma - 0.5)))


@dataclass(frozen=True)
class HejhalParams:
    """Parameter bundle for the near-critical log-normal regime."""

    delta: float = 0.5
    kappa: float = 2.5
    aleph: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise DomainError("delta must lie in (0, 1)")
        if not 1.0 < self.kappa <= 3.0:
            raise DomainError("kappa must lie in (1, 3]")
        if self.aleph <= 0:
            raise DomainError("aleph must be positive")

    def sigma_of(self, T: float) -> float:
        return sigma_T(T, self.delta)

    def psi_of(self, T: float) -> float:
        return psi_variance(self.sigma_of(T), T, self.aleph)


# ------------------------------------------------------- eta-series route --

class _RouteUnavailable(Exception):
    pass


def _eta_zeta(s: complex) -> tuple[complex, float]:
    """zeta from the alternating series with repeated-averaging acceleration.

    Reliable for |Im s| <= ~45 and Re s >= 0; the averaging depth grows with
    |t| to beat the e^(pi t / 2) growth of the transformed tail.
    """
    t = abs(s.imag)
    levels = 64 + int(3.6 * t)
    extra = 24
    n = np.arange(1, levels + extra + 2, dtype=np.float64)
    terms = np.exp(-s * np.log(n))
    terms[1::2] = -terms[1::2]
    partial = np.cumsum(terms)
    col = partial
    for _ in range(levels):
        col = 0.5 * (col[1:] + col[:-1])
    eta = complex(col[-1])
    spread = float(np.abs(np.diff(col[-6:])).max())
    eta_err = 8.0 * spread + 1e-15 * (1.0 + abs(eta)) * math.sqrt(len(n))
    den = 1.0 - np.exp((1.0 - s) * math.log(2.0))
    if abs(den) < 1e-2:
        raise _RouteUnavailable("near a zero of 1 - 2^(1-s)")
    val = eta / den
    return val, (eta_err + 1e-16 * abs(eta)) / abs(den)


# --------------------------------------------------- Riemann-Siegel route --

def _rs_theta(t):
    """Phase theta(t), asymptotic expansion (error ~ t^-7 for t > 40)."""
    t = np.asarray(t, dtype=np.float64)
    return (t / 2.0 * np.log(t / _TWO_PI) - t / 2.0 - math.pi / 8.0
            + 1.0 / (48.0 * t) + 7.0 / (5760.0 * t ** 3)
            + 31.0 / (80640.0 * t ** 5))


def _rs_c0_raw(p):
    return np.cos(_TWO_PI * (p * p - p - 0.0625)) / np.cos(_TWO_PI * p)


def _rs_c0(p):
    p = np.asarray(p, dtype=np.float64)
    den = np.cos(_TWO_PI * p)
    safe = np.where(np.abs(den) < 1e-3, 1.0, den)
    out = np.cos(_TWO_PI * (p * p - p - 0.0625)) / safe
    bad = np.abs(den) < 1e-3
    if np.any(bad):
        # removable singularities at p = 1/4, 3/4: average across the hole
        pb = p[bad]
        out[bad] = 0.5 * (_rs_c0_raw(pb - 2e-3) + _rs_c0_raw(pb + 2e-3))
    return out


def _riemann_siegel_many(ts: np.ndarray):
    """Z(t), theta(t) and a certified error bound on the critical line."""
    ts = np.asarray(ts, dtype=np.float64)
    a = np.sqrt(ts / _TWO_PI)
    nmain = np.floor(a).astype(np.int64)
    p = a - nmain
    theta = _rs_theta(ts)
    z = np.zeros_like(ts)
    for v in np.unique(nmain):
        idx = np.nonzero(nmain == v)[0]
        n = np.arange(1, v + 1, dtype=np.float64)
        phases = theta[idx, None] - ts[idx, None] * np.log(n)[None, :]
        z[idx] = 2.0 * (np.cos(phases) / np.sqrt(n)).sum(axis=1)
    z += (-1.0) ** (nmain - 1) * a ** -0.5 * _rs_c0(p)
    coef = np.where(ts >= 200.0, 0.13, 0.9)
    err = coef * (ts / _TWO_PI) ** -0.75
    return z, theta, err


# --------------------------------------------------- Euler-Maclaurin route --

_B2K = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30,
        5.0 / 66, -691.0 / 2730, 7.0 / 6, -3617.0 / 510)
_B18 = 43867.0 / 798
_FACT = [math.factorial(k) for k in range(20)]


def _em_tail(s: complex, big_n: float, n_pow_s: complex):
    """Boundary, Bernoulli corrections and remainder bound at cutoff N."""
    tail = big_n * n_pow_s / (s - 1.0) + 0.5 * n_pow_s
    poch = s  # (s)_{2k-1} built incrementally
    n_fac = n_pow_s / big_n
    for k, b2k in enumerate(_B2K, start=1):
        tail += b2k / _FACT[2 * k] * poch * n_fac * big_n ** (2 - 2 * k)
        poch *= (s + 2 * k - 1) * (s + 2 * k)
    rem = abs(_B18 / _FACT[18] * poch * n_fac * big_n ** -16)
    rem *= (abs(s) + 17.0) / (s.real + 17.0)
    return tail, rem


def _euler_maclaurin(s: complex) -> tuple[complex, float]:
    vals, errs = _euler_maclaurin_many(np.array([s.real]), np.array([s.imag]))
    return complex(vals[0]), float(errs[0])


def _fp_floor(big_n: int, t_abs: float, scale: float) -> float:
    # pairwise summation of ~N rounded cosines plus extended-precision
    # phase propagation (~1 ulp of 80-bit per t*log n)
    per_sum = 6e-15 * max(math.log2(big_n), 1.0)
    per_phase = 2.5e-19 * t_abs * max(math.log(big_n), 1.0)
    return (per_sum + per_phase) * (scale + 1.0)


def _euler_maclaurin_many(sigmas: np.ndarray, ts: np.ndarray, chunk: int = 64):
    """Chunked vector form; points are grouped after sorting by t."""
    sigmas = np.asarray(sigmas, dtype=np.float64)
    ts = np.asarray(ts, dtype=np.float64)
    vals = np.empty(ts.shape, dtype=np.complex128)
    errs = np.empty(ts.shape, dtype=np.float64)
    order = np.argsort(np.abs(ts))
    for start in range(0, len(order), chunk):
        idx = order[start:start + chunk]
        big_n = max(60, int(1.3 * np.abs(ts[idx]).max()) + 8)
        n = np.arange(1, big_n, dtype=np.float64)
        ln_n = np.log(n.astype(np.longdouble))
        phase = np.mod(ts[idx].astype(np.longdouble)[:, None] * ln_n[None, :],
                       np.longdouble(_TWO_PI)).astype(np.float64)
        mag = n[None, :] ** -sigmas[idx][:, None]
        head = (mag * np.cos(phase)).sum(axis=1) \
            - 1j * (mag * np.sin(phase)).sum(axis=1)
        for j, i in enumerate(idx):
            s = complex(sigmas[i], ts[i])
            ph_n = float(np.mod(np.longdouble(ts[i])
                                * np.log(np.longdouble(big_n)),
                                np.longdouble(_TWO_PI)))
            n_pow_s = big_n ** -sigmas[i] * complex(math.cos(ph_n),
                                                    -math.sin(ph_n))
            tail, rem = _em_tail(s, float(big_n), n_pow_s)
            vals[i] = head[j] + tail
            errs[i] = rem + _fp_floor(big_n, abs(ts[i]),
                                      float(mag[j].sum()) + abs(tail))
    return vals, errs


# ------------------------------------------------------------- dispatcher --

def _zeta_many(sigmas, ts) -> tuple[np.ndarray, np.ndarray]:
    """zeta with certified absolute error bounds at sigma + i t, t >= 0 and
    s != 1: the one place where the route is chosen by region."""
    sigmas = np.asarray(sigmas, dtype=np.float64)
    ts = np.asarray(ts, dtype=np.float64)
    vals = np.empty(ts.shape, dtype=np.complex128)
    errs = np.empty(ts.shape, dtype=np.float64)
    small = ts <= 40.0
    on_line = (sigmas == 0.5) & ~small
    rest = ~(small | on_line)
    for i in np.nonzero(small)[0]:
        s = complex(sigmas[i], ts[i])
        try:
            vals[i], errs[i] = _eta_zeta(s)
        except _RouteUnavailable:
            vals[i], errs[i] = _euler_maclaurin(s)
    if on_line.any():
        z, theta, errs[on_line] = _riemann_siegel_many(ts[on_line])
        vals[on_line] = z * np.exp(-1j * theta)
    if rest.any():
        # one batch: each 64-point chunk sets its own cutoff N
        vals[rest], errs[rest] = _euler_maclaurin_many(sigmas[rest], ts[rest])
    return vals, errs


def zeta_eval(s) -> tuple[complex, float]:
    """zeta(s) with a certified absolute error bound, route chosen by region."""
    s = complex(s)
    if s == 1.0:
        raise DomainError("zeta has a pole at s = 1")
    if s.real < 0.0:
        raise DomainError("only Re(s) >= 0 is supported")
    if abs(s.imag) > 1e5:
        raise DomainError("|Im(s)| <= 1e5 is supported")
    if s.imag < 0:
        v, e = zeta_eval(s.conjugate())
        return v.conjugate(), e
    vals, errs = _zeta_many([s.real], [s.imag])
    return complex(vals[0]), float(errs[0])


def zeta(s) -> complex:
    """zeta(s) certified to 1e-8 relative error (AccuracyError otherwise)."""
    val, err = zeta_eval(s)
    if err > 1e-8 * abs(val):
        s_c = complex(s)
        t = abs(s_c.imag)
        val, err = _euler_maclaurin(complex(s_c.real, t))
        if s_c.imag < 0:
            val = val.conjugate()
        if err > 1e-8 * abs(val):
            raise AccuracyError(
                f"relative error {err / max(abs(val), 1e-300):.2e} at {s}")
    return val


# ------------------------------------------------------------------ scans --

@dataclass(frozen=True)
class SigmaMode:
    """Abscissa rule for a scan: a fixed sigma or the near-critical path."""

    kind: str
    value: float

    @classmethod
    def fixed(cls, sigma: float = 0.5) -> "SigmaMode":
        if sigma < 0:
            raise DomainError("sigma must be >= 0")
        return cls("fixed", float(sigma))

    @classmethod
    def near_critical(cls, delta: float = 0.5) -> "SigmaMode":
        if not 0.0 < delta < 1.0:
            raise DomainError("delta must lie in (0, 1)")
        return cls("near_critical", float(delta))


@dataclass
class ZetaSample:
    t: float
    sigma: float
    value: complex
    abs: float
    log_abs: float
    leading_digit: int
    cert_err: float

    def csv_row(self):
        return [f"{self.t:.6f}", f"{self.sigma:.10f}",
                f"{self.value.real:.12e}", f"{self.value.imag:.12e}",
                f"{self.abs:.12e}", f"{self.log_abs:.12e}",
                str(self.leading_digit), f"{self.cert_err:.3e}"]


@dataclass
class ScanResult:
    samples: list
    histogram: DigitHistogram
    skipped: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    refined: int = 0

    CSV_COLUMNS = ("t", "sigma", "re", "im", "abs", "log_abs", "digit",
                   "cert_err")


def scan_line(t_start: float, t_end: float, step: float, mode: SigmaMode,
              base: int = 10) -> ScanResult:
    """Evaluate |zeta| on a t grid, extract certified leading digits, and
    accumulate their histogram.

    Ambiguous digits (error band straddling a boundary) and near-zero values
    trigger re-evaluation with the Euler-Maclaurin route; points still
    indistinguishable from zero afterwards are excluded and reported.
    """
    base = _check_digit_base(base)
    if step <= 0:
        raise DomainError("step must be positive")
    if t_end < t_start:
        raise DomainError("t_end must be >= t_start")
    if t_start < 0:
        raise DomainError("scans run over t >= 0")
    if t_end > 1e5:
        raise DomainError("evaluation is supported for t <= 1e5")
    count = int(math.floor((t_end - t_start) / step + 1e-9)) + 1
    ts = t_start + step * np.arange(count)
    if mode.kind == "near_critical":
        if ts[0] <= math.e:
            raise DomainError("near-critical scans need t_start > e")
        sigmas = 0.5 + np.log(ts) ** -mode.value
    else:
        sigmas = np.full(count, mode.value)

    vals = np.full(count, np.nan, dtype=np.complex128)
    errs = np.full(count, np.inf)
    pole = (ts == 0.0) & (sigmas == 1.0)
    failures = [(float(t), "pole at s = 1") for t in ts[pole]]
    vals[~pole], errs[~pole] = _zeta_many(sigmas[~pole], ts[~pole])

    ok = np.isfinite(errs) & np.isfinite(vals.real)
    abs_vals = np.abs(vals)
    digits = np.zeros(count, dtype=np.int64)
    certified = np.zeros(count, dtype=bool)
    lb = math.log(base)

    def certify(idx):
        # the certified error of |zeta| becomes a band on log_base|zeta|
        a = np.maximum(abs_vals[idx], 1e-300)
        band = errs[idx] / (a * lb) + 1e-13
        digits[idx], certified[idx] = digits_from_log(
            np.mod(np.log(a) / lb, 1.0), band, base)

    certify(ok)
    near_zero = ok & (abs_vals < 10.0 * errs)
    refine = ok & (~certified | near_zero)
    n_refined = int(refine.sum())
    if n_refined:
        idx = np.nonzero(refine)[0]
        vals[idx], errs[idx] = _euler_maclaurin_many(sigmas[idx], ts[idx])
        abs_vals[idx] = np.abs(vals[idx])
        certify(idx)

    skipped = []
    samples = []
    hist_counts = np.zeros(base - 1, dtype=np.int64)
    for i in range(count):
        if not ok[i]:
            continue
        if abs_vals[i] < 10.0 * errs[i] or not certified[i]:
            skipped.append((float(ts[i]), float(sigmas[i]),
                            float(abs_vals[i]), float(errs[i])))
            continue
        d = int(digits[i])
        hist_counts[d - 1] += 1
        samples.append(ZetaSample(
            t=float(ts[i]), sigma=float(sigmas[i]), value=complex(vals[i]),
            abs=float(abs_vals[i]), log_abs=float(np.log(abs_vals[i])),
            leading_digit=d, cert_err=float(errs[i])))
    return ScanResult(samples, DigitHistogram(base, hist_counts),
                      skipped, failures, n_refined)
