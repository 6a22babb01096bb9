"""Equidistribution-mod-1 tooling.

Covers the pieces the digit experiments lean on: orbits k*alpha mod 1
generated with double-double arithmetic (per-point error < 1e-15 even at
N = 10**7), certified continued-fraction convergents from a bracketed
high-precision value, empirical irrationality-type probes, the Gaussian theta
identity, the spreading-Gaussian interval mass, and the characteristic-
function decay condition under which a spreading density equidistributes
modulo one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Integral

import mpmath
import numpy as np

from .core_numeric import DomainError, PrecisionError

__all__ = [
    "PrecisionError",
    "IrrationalProbe",
    "log_ratio",
    "kalpha_points",
    "continued_fraction",
    "type_probe",
    "theta_identity_residual",
    "gaussian_mod1_mass",
    "condition_char_decay",
    "interval_count",
]

_TWO_PI_SQ = 2.0 * math.pi * math.pi


def log_ratio(x, base, dps: int = 500) -> mpmath.mpf:
    """log_base(x) at ``dps`` decimal digits (e.g. log10(2) to 500 digits)."""
    with mpmath.workdps(dps):
        return mpmath.log(x) / mpmath.log(base)


# ----------------------------------------------------------------- k*alpha --

_MAX_POINTS = 2 ** 27  # k*alpha points per call, for every form of alpha


def _kalpha_range(alpha, k_start: int, count: int) -> np.ndarray:
    if count < 1:
        raise DomainError("need at least one point")
    if count >= _MAX_POINTS:
        raise DomainError(f"at most {_MAX_POINTS - 1} k*alpha points, "
                          f"got {count}")
    if isinstance(alpha, Fraction):
        q = alpha.denominator
        p = alpha.numerator % q
        if q <= 2 ** 31:
            ks = np.arange(k_start, k_start + count, dtype=np.int64)
            return (((ks % q) * p) % q).astype(np.float64) / q
        return np.array([((k % q) * p) % q / q
                         for k in range(k_start, k_start + count)])
    if k_start + count >= _MAX_POINTS:
        raise DomainError("k range too large for the exact double-double path")
    with mpmath.workdps(60):
        c = mpmath.frac(mpmath.mpf(alpha))
        c_hi = math.ldexp(float(mpmath.floor(mpmath.ldexp(c, 26))), -26)
        c_lo = float(c - c_hi)
    ks = np.arange(k_start, k_start + count, dtype=np.float64)
    # k * c_hi is an exact double (<= 53 significant bits), so the reduction
    # mod 1 is exact; the residual k * c_lo adds < 1e-16 of rounding
    pts = np.mod(ks * c_hi, 1.0) + ks * c_lo
    pts -= np.floor(pts)
    return pts


def kalpha_points(alpha, n: int) -> np.ndarray:
    """{k * alpha mod 1 : k = 1..n}.

    ``alpha`` may be a float (used at its exact binary value), an mpmath
    value or decimal string (used to high precision), or a Fraction (exact
    modular arithmetic, so a rational takes exactly q distinct values).
    """
    return _kalpha_range(alpha, 1, n)


def interval_count(alpha, m_block: int, ell: int, a: float, b: float
                   ) -> tuple[int, float]:
    """Count of k in [ell*M, (ell+1)*M) with frac(k*alpha) in [a, b),
    paired with the equidistribution prediction M*(b-a)."""
    if not 0.0 <= a < b <= 1.0:
        raise DomainError("need 0 <= a < b <= 1")
    pts = _kalpha_range(alpha, ell * m_block, m_block)
    got = int(((pts >= a) & (pts < b)).sum())
    return got, m_block * (b - a)


# --------------------------------------------------- continued fractions --

def _alpha_brackets(alpha, dps: int) -> tuple[int, int, int, int]:
    """Rationals lo_n/lo_d < alpha < hi_n/hi_d certifying every digit used:
    a value other than a float, good to 10**-dps (a log with guard digits),
    is bracketed one unit wider either side of its floor at dps digits."""
    if isinstance(alpha, float):
        # a float argument carries only its 53 bits of information
        v = Fraction(alpha)
        u = Fraction(math.ulp(alpha) or math.ulp(1.0)) / 2
        lo, hi = v - u, v + u
        return lo.numerator, lo.denominator, hi.numerator, hi.denominator
    with mpmath.workdps(dps + 20):
        a = mpmath.mpf(alpha)
        lo = int(mpmath.floor(a * mpmath.mpf(10) ** dps))
    den = 10 ** dps
    return lo - 1, den, lo + 2, den


def _bracket_quotients(lo_n, lo_d, hi_n, hi_d, max_terms: int) -> list:
    qs = []
    while len(qs) < max_terms:
        q1, r1 = divmod(lo_n, lo_d)
        q2, r2 = divmod(hi_n, hi_d)
        if q1 != q2:
            break
        qs.append(int(q1))
        if r1 == 0 or r2 == 0:
            raise DomainError(
                "alpha is rational at working precision; expansion terminates")
        # invert the fractional parts; the order of the bracket flips
        lo_n, lo_d, hi_n, hi_d = hi_d, r2, lo_d, r1
    return qs


def continued_fraction(alpha, depth: int, dps: int = 500) -> list:
    """First ``depth`` convergents (p, q) of the simple continued fraction.

    The expansion runs simultaneously on two rationals bracketing ``alpha``;
    only partial quotients on which both agree are emitted, so every returned
    convergent is certified.  Asking beyond what the working precision can
    certify raises PrecisionError rather than silently truncating.
    """
    if depth < 1:
        raise DomainError("depth must be >= 1")
    if isinstance(alpha, (Fraction, Integral)):
        raise DomainError("alpha must be irrational")
    qs = _bracket_quotients(*_alpha_brackets(alpha, dps), max_terms=depth)
    if len(qs) < depth:
        raise PrecisionError(
            f"only {len(qs)} partial quotients certified at dps={dps}; "
            f"raise dps to reach depth {depth}")
    ph, pl = 1, 0  # p_{k-1}, p_{k-2}
    qh, ql = 0, 1
    out = []
    for a_k in qs:
        ph, pl = a_k * ph + pl, ph
        qh, ql = a_k * qh + ql, qh
        out.append((ph, qh))
    return out


@dataclass
class IrrationalProbe:
    """q^(gamma+1) |alpha - p/q| along convergents, per gamma in a grid."""

    alpha: str
    convergents: list
    gamma_grid: tuple
    quality: dict          # gamma -> list of floats along the convergents
    slopes: dict           # gamma -> fitted d log(quality) / d log(q)
    empirical_type: float | None
    # (gamma, i) -> the mpmath value of a quality whose float lies outside
    # the normal range (0.0 or a subnormal, or inf)
    _exact: dict = field(default_factory=dict, repr=False, compare=False)

    def to_csv_rows(self):
        """Each quality as ``%.6e``; one outside the float's normal range
        from its mpmath value, in the same shape with a wider exponent."""
        yield ["p", "q"] + [f"gamma={g:g}" for g in self.gamma_grid]
        for i, (p, q) in enumerate(self.convergents):
            yield [str(p), str(q)] + [
                mpmath.nstr(self._exact[g, i], 7, strip_zeros=False,
                            min_fixed=0, max_fixed=0)
                if (g, i) in self._exact else f"{self.quality[g][i]:.6e}"
                for g in self.gamma_grid]


_SLOPE_TREND = -0.05  # log-log slope below this counts as "tends to 0"


def type_probe(alpha, depth: int, gamma_grid, dps: int = 500
               ) -> IrrationalProbe:
    if not all(map(math.isfinite, gamma_grid)):
        raise DomainError("gammas must be finite")
    convs = continued_fraction(alpha, depth, dps=dps)
    quality, logs, exact = {}, {}, {}
    with mpmath.workdps(dps + 20):
        a = mpmath.mpf(alpha)
        errs = [abs(a - mpmath.mpf(p) / q) for p, q in convs]
        for g in gamma_grid:
            # gamma + 1 exactly: in float, 1e300 + 1 would round to 1e300
            g1 = mpmath.fadd(g, 1, exact=True)
            vals = [mpmath.mpf(q) ** g1 * e for (_, q), e in zip(convs, errs)]
            floats = np.array([float(v) for v in vals])
            # a float past the normal range (0.0 or a subnormal on deep
            # convergents, inf at a huge gamma) takes its log from mpmath
            outside = (floats < np.finfo(float).tiny) | (floats == np.inf)
            logv = np.log(np.where(outside, 1.0, floats))
            for i in np.flatnonzero(outside).tolist():
                logv[i] = float(mpmath.log(vals[i]))
                exact[float(g), i] = vals[i]
            quality[float(g)], logs[float(g)] = floats.tolist(), logv
    logq = np.array([math.log(q) for _, q in convs])
    slopes = {g: float(np.polyfit(logq, logv, 1)[0]) if len(convs) > 1
              else 0.0 for g, logv in logs.items()}
    if not all(map(math.isfinite, slopes.values())):
        raise DomainError("a gamma puts the log quality past the float range")
    trending = [g for g, s in slopes.items() if s < _SLOPE_TREND]
    with mpmath.workdps(50):
        alpha_repr = mpmath.nstr(mpmath.mpf(alpha), 40)
    return IrrationalProbe(
        alpha=alpha_repr,
        convergents=convs,
        gamma_grid=tuple(float(g) for g in gamma_grid),
        quality=quality,
        slopes=slopes,
        empirical_type=max(trending) if trending else None,
        _exact=exact,
    )


# --------------------------------------------------------- theta identity --

def theta_identity_residual(sigma: float) -> float:
    """|(1/s) sum exp(-n^2 pi / s^2)  -  sum exp(-n^2 pi s^2)|.

    Both sums run to the one cutoff at which both tails are below 1e-15,
    about 3.7 max(sigma, 1/sigma) terms; further terms could not move the
    residual.  Sigma outside [4e-6, 2.5e5] is refused, so no sum passes
    10^6 terms.
    """
    if not (math.isfinite(sigma) and sigma > 0):
        raise DomainError(f"sigma must be finite and positive, got {sigma}")
    if max(sigma, 1.0 / sigma) > 2.5e5:
        raise DomainError("sigma must lie in [4e-6, 2.5e5]")
    s2 = sigma * sigma
    need = int(math.ceil(math.sqrt(42.0 / (math.pi * min(s2, 1.0 / s2))))) + 1
    n2 = np.arange(1, need + 1, dtype=np.float64) ** 2
    lhs = (1.0 + 2.0 * np.exp(-n2 * math.pi / s2).sum()) / sigma
    rhs = 1.0 + 2.0 * np.exp(-n2 * math.pi * s2).sum()
    return abs(lhs - rhs)


# --------------------------------------------- spreading-Gaussian machinery --

def gaussian_mod1_mass(scale: float, a: float, b: float) -> float:
    """sum_{|k| <= W} integral_a^b density((x+k)/T)/T dx, in closed form as
    sum_k [Phi((b+k)/T) - Phi((a+k)/T)] with the standard normal CDF
    Phi(x) = erfc(-x / sqrt 2) / 2.

    This is the probability that the spread Gaussian lands in [a, b] mod 1,
    up to the tail mass beyond the window W = ceil(6.5 T) + 1.
    """
    if not 0.0 <= a < b <= 1.0:
        raise DomainError("need 0 <= a < b <= 1")
    if scale <= 0:
        raise DomainError("scale must be positive")
    w = int(math.ceil(6.5 * scale)) + 1

    def phi(x: float) -> float:
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    return math.fsum(phi((b + k) / scale) - phi((a + k) / scale)
                     for k in range(-w, w + 1))


def condition_char_decay(scale: float) -> float:
    """S(T) = sum_{k != 0} |fhat(T k) / k| for the standard normal, whose
    transform is fhat(y) = exp(-2 pi^2 y^2).  Truncated below 1e-18."""
    if scale <= 0:
        raise DomainError("scale must be positive")
    total = 0.0
    k = 1
    while True:
        term = 2.0 * math.exp(-_TWO_PI_SQ * (scale * k) ** 2) / k
        if term < 1e-18:
            break
        total += term
        k += 1
    return total
