"""Riemann zeta evaluation with certified error bounds, plus scanning and
leading-digit histogram machinery along horizontal lines and along the
near-critical path sigma(T) = 1/2 + 1/log^delta(T).

Three evaluation routes, chosen by region:

* the Riemann-Siegel formula on the critical line for t >= 200, where
  Gabcke's explicit remainder bound |R_4| <= 0.017 (t/2pi)^(-11/4) for the
  corrections C_0..C_4 holds (W. Gabcke, Neue Herleitung und explizite
  Restabschaetzung der Riemann-Siegel-Formel, Goettingen 1979).  The C_k
  are Taylor polynomials built once in mpmath, and the bound adds the
  floating-point floor of the phases, which dominates from t ~ 5000 on
  (about 2e-8 at t = 10^5);
* the Riemann-Siegel formula off the line, zeta(s) = R(s) +
  chi(s) conj(R(1 - conj s)), for 0 <= sigma <= 1 and t > T_RS ~ 1885, in
  O(sqrt t) terms (J. Arias de Reyna, High precision computation of
  Riemann's zeta function by the Riemann-Siegel formula I, Math. Comp. 80
  (2011)).  It carries L = 8 corrections, whose truncation his Theorem 2
  bounds below 1e-11; T_RS is the lowest height where the theorem allows
  the L that reaches that.  chi comes from Stirling's series with its
  remainder bound, and the floating-point floor is the on-line route's
  (about 3e-10 at t = 10^4 and 6e-9 at t = 10^5);
* Euler-Maclaurin summation with max(60, ~1.3*t) initial terms and 8
  Bernoulli corrections everywhere else: points with t < 200 on the line,
  with t <= T_RS off it, and with sigma outside [0, 1].  Its phases t ln n
  are reduced modulo 2pi in long double.  It doubles as the high-precision
  refinement route everywhere (absolute error near 1e-14 at scan heights).

``_zeta_many`` is the single place where the route is chosen; ``zeta_eval``
and ``scan_line`` both call it.  ``_blocks`` is the single place where points
are batched, so no route's memory grows with the scan.

A sample's leading digit is never taken from a value whose certified error
band straddles a digit boundary (or zero, within ten error bounds): such a
point, if a Riemann-Siegel route served it, is re-evaluated with the
refinement route, and only then recorded or excluded.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .benford_stats import DigitHistogram
from .core_numeric import DomainError, _check_digit_base, digits_from_log

__all__ = [
    "AccuracyError",
    "sigma_T",
    "psi_variance",
    "zeta",
    "zeta_eval",
    "SigmaMode",
    "ScanResult",
    "scan_line",
]

_TWO_PI = 2.0 * math.pi
_T_MAX = 1e5    # the largest height any route is certified for


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


# ---------------------------------------------------------------- batches --

def _blocks(cutoffs: np.ndarray):
    """(N, indices) for the points that share the cutoff N, at most
    max(1, 2^16 // N) at a time.  A row sum sees its own point only, so
    each value and bound is the same whichever points share a block."""
    order = np.argsort(cutoffs, kind="stable")
    values, starts = np.unique(cutoffs[order], return_index=True)
    for big_n, group in zip(values.tolist(), np.split(order, starts[1:])):
        size = max(1, 2 ** 16 // big_n)    # matrix entries: points x N
        for start in range(0, len(group), size):
            yield big_n, group[start:start + size]


def _by_blocks(kernel, cutoffs, *cols, dtypes=(complex, float)):
    """kernel(N, *columns) per block, its results scattered into columns."""
    out = [np.empty(len(cutoffs), dtype=d) for d in dtypes]
    for big_n, idx in _blocks(cutoffs):
        for o, r in zip(out, kernel(big_n, *(c[idx] for c in cols))):
            o[idx] = r
    return out


# --------------------------------------------------- Riemann-Siegel route --

# theta(t) = t/2 ln(t/2pi) - t/2 - pi/8 + the sum of a / (b t^k)
_THETA_TERMS = ((1.0, 48.0, 1), (7.0, 5760.0, 3), (31.0, 80640.0, 5))


def _rs_split(ts: np.ndarray):
    """tau = t/2pi, a = sqrt(tau), the main-sum length N = floor(a),
    x = frac(a) - 1/2, exact given a, and the phase theta(t) from its
    asymptotic expansion (error ~ t^-7 for t > 40)."""
    tau = ts / _TWO_PI
    a = np.sqrt(tau)
    nmain = np.floor(a).astype(np.int64)
    theta = ts / 2.0 * np.log(tau) - ts / 2.0 - math.pi / 8.0
    for c, b, k in _THETA_TERMS:
        theta = theta + c / (b * ts ** k)
    return tau, a, nmain, (a - nmain) - 0.5, theta


def _rs_floor(ts, tau, theta, nmain, w0, w1):
    """The error of theta, and the floating-point floor of a sum of weights
    w_n times e^(+-i(theta - t ln n)) over n <= N, w0 = sum w_n and
    w1 = sum w_n ln n.

    theta is off by ~2.5 u t ln tau (its log, product and sums) plus twice
    the first omitted asymptotic term, 127/(430080 t^7); each phase
    theta - t ln n adds u (|theta| + 4 t ln n); cos, the weights and the
    pairwise sum add u (4 + log2 N) per unit of weight.
    """
    d_theta = _U * (3.0 * ts * np.log(tau) + 4.0) \
        + 2.0 * 127.0 / (430080.0 * ts ** 7)
    return d_theta, w0 * (d_theta + _U * (np.abs(theta) + 4.0
                                          + np.log2(nmain))) \
        + 4.0 * _U * ts * w1


# C_k = sum over the terms (a, b, j, m) of (a / b) * Psi^(j) / pi^(2m)
_RS_TERMS = (
    ((1, 1, 0, 0),),
    ((-1, 96, 3, 1),),
    ((1, 64, 2, 1), (1, 18432, 6, 2)),
    ((-1, 64, 1, 1), (-1, 3840, 5, 2), (-1, 5308416, 9, 3)),
    ((1, 128, 0, 1), (19, 24576, 4, 2), (11, 5898240, 8, 3),
     (1, 2038431744, 12, 4)),
)
_RS_DEGREE = 60      # Taylor degree of Psi about p = 1/2
_GABCKE_T = 200.0    # Gabcke's remainder bounds hold for t >= 200
_U = 2.0 ** -53      # unit roundoff of float64


@functools.cache
def _rs_polys():
    """C_0..C_4 as float polynomials, and their rounding constants.

    With x = p - 1/2, C_k has the parity of k in x, so
    C_k = x^(k mod 2) * P_k(x^2).  Row i of the returned table holds the
    coefficients of y^(D/2 - i) in P_0..P_4, D = _RS_DEGREE.
    Evaluating the five in floats, each scaled by tau^(-1/4 - k/2) <= a^(-1/2)
    and at an x off by the rounding of a = sqrt(tau), errs by at most
    a^(-1/2) * (const + slope * a).
    """
    with mpmath.workdps(60):
        pi = mpmath.pi
        half = _RS_DEGREE // 2 + 1
        # Psi(1/2 + x) = -cos(2 pi y - 5 pi/8) / cos(2 pi x) with y = x^2:
        # divide the two exact power series in y (the quotient is entire)
        num = [-(2 * pi) ** j * mpmath.cos(j * pi / 2 - 5 * pi / 8)
               / mpmath.factorial(j) for j in range(half)]
        den = [(-1) ** j * (2 * pi) ** (2 * j) / mpmath.factorial(2 * j)
               for j in range(half)]
        quot = []
        for j in range(half):
            quot.append(num[j] - mpmath.fsum(quot[i] * den[j - i]
                                             for i in range(j)))
        derivs = [[mpmath.mpf(0)] * (_RS_DEGREE + 1)]
        derivs[0][::2] = quot
        for _ in range(12):
            c = derivs[-1]
            derivs.append([(i + 1) * c[i + 1] for i in range(len(c) - 1)])
        coefs = []
        for terms in _RS_TERMS:
            c = [mpmath.mpf(0)] * (_RS_DEGREE + 1)
            for a, b, j, m in terms:
                w = mpmath.mpf(a) / b / pi ** (2 * m)
                for i, v in enumerate(derivs[j]):
                    c[i] += w * v
            coefs.append(np.array([float(v) for v in c]))
    powers = 0.5 ** np.arange(_RS_DEGREE + 1)
    deg = np.arange(_RS_DEGREE + 1)
    size = sum(float((np.abs(c) * powers).sum()) for c in coefs)
    lip = sum(float((np.abs(c) * deg * 2.0 * powers).sum()) for c in coefs)
    # size >= sum_k max |C_k| and lip >= sum_k max |C_k'| on |x| <= 1/2.
    # Horner in a rounded y = x^2 and the products by x, 1/a and a^(-1/2)
    # cost under 2 * degree roundings per unit of size; x is off by < 3 u a.
    # The Taylor terms beyond degree 60 sum below 1e-21 on |x| <= 1/2.
    const = 2 * _RS_DEGREE * _U * size + 1e-21
    slope = 3.0 * _U * lip
    table = np.zeros((_RS_DEGREE // 2 + 1, len(coefs)))
    for k, c in enumerate(coefs):
        table[:len(c[k % 2::2]), k] = c[k % 2::2]
    return table[::-1].copy(), const, slope


def _rs_corrections(x: np.ndarray) -> np.ndarray:
    """C_0..C_4 at p = 1/2 + x, |x| <= 1/2, as rows of a (5, len(x)) array:
    one Horner pass over y = x^2 for all five polynomials."""
    y = x * x
    out = np.zeros((len(_RS_TERMS), len(x)))
    for row in _rs_polys()[0]:
        out = out * y + row[:, None]
    out[1::2] *= x
    return out


def _riemann_siegel_block(big_n: int, ts: np.ndarray):
    """zeta and a certified error bound on the critical line at one N.

    Z = 2 sum_{n <= N} cos(theta - t ln n) / sqrt(n)
        + (-1)^(N-1) tau^(-1/4) sum_k C_k(p) tau^(-k/2),
    tau = t/2pi, N = floor(sqrt(tau)), p = sqrt(tau) - N, the sum over
    C_0..C_4, and zeta = Z exp(-i theta).  For t >= 200 Gabcke's
    |R_4| <= 0.017 tau^(-11/4) bounds the truncation.  The bound adds the
    floating-point floor and covers the rotation.
    """
    tau, a, nmain, x, theta = _rs_split(ts)
    n = np.arange(1, big_n + 1, dtype=np.float64)
    ln_n = np.log(n)
    phases = theta[:, None] - ts[:, None] * ln_n[None, :]
    z = 2.0 * (np.cos(phases) / np.sqrt(n)).sum(axis=1)

    c0, c1, c2, c3, c4 = _rs_corrections(x)
    w = 1.0 / a
    corr = c0 + w * (c1 + w * (c2 + w * (c3 + w * c4)))
    z += (-1.0) ** (nmain - 1) * a ** -0.5 * corr

    # floating point: the weights are 2 n^(-1/2)
    _, fp_const, fp_slope = _rs_polys()
    d_theta, floor = _rs_floor(ts, tau, theta, nmain, (2.0 / np.sqrt(n)).sum(),
                               (2.0 * ln_n / np.sqrt(n)).sum())
    z_err = 0.017 * tau ** -2.75 + floor \
        + a ** -0.5 * (fp_const + fp_slope * a)
    # rotating by the computed exp(-i theta) adds |Z| (d_theta + rounding)
    err = z_err + (np.abs(z) + z_err) * (d_theta + 6.0 * _U)
    return z * np.exp(-1j * theta), err


def _riemann_siegel_many(ts):
    """zeta and a certified error bound on the critical line, t >= 200."""
    ts = np.asarray(ts, dtype=np.float64)
    return _by_blocks(_riemann_siegel_block, _rs_split(ts)[2], ts)


# ------------------------------------------- off-line Riemann-Siegel route --
#
# J. Arias de Reyna, High precision computation of Riemann's zeta function by
# the Riemann-Siegel formula I, Math. Comp. 80 (2011): with a = sqrt(t/2pi),
# N = floor(a), p = 1 - 2(a - N) and U = exp(-i(t/2 ln(t/2pi) - t/2 - pi/8)),
#   zeta(s) = R(s) + chi(s) conj(R(1 - conj(s))),
#   R(s) = sum_{n <= N} n^(-s)
#          + (-1)^(N-1) U a^(-sigma) sum_{k < L} C_k(p, sigma) a^(-k) + RS_L,
# and Theorem 2 (eq. 26) bounds |RS_L| <= a^(-sigma) c Gamma(L/2) / (b a)^L
# with b = 2 and c = 9^sigma / (sqrt(2) pi) for sigma > 0 (at sigma = 0
# these only enlarge the bound for sigma <= 0), provided 3L < 2a^2/25.

_RS_OFF_TRUNC = 1e-11    # target for the truncation bound
_RS_OFF_DEGREE = 60      # Taylor degree of F about p = 0


def _rs_offline_order():
    """The number of corrections L that meets _RS_OFF_TRUNC at the lowest
    height, and that height T_RS, for every sigma in [0, 1]: there
    a^(-sigma) 9^sigma + |chi| a^(sigma-1) 9^(1-sigma) <= 10, and Theorem 2
    needs a^2 > 37.5 L."""
    best = None
    for terms in range(2, 40):
        a = max(math.sqrt(37.5 * terms),
                (10.0 / (math.sqrt(2.0) * math.pi) * math.gamma(terms / 2)
                 / _RS_OFF_TRUNC) ** (1.0 / terms) / 2.0)
        if best is None or a < best[1]:
            best = (terms, a)
    return best[0], _TWO_PI * best[1] ** 2


_RS_OFF_L, _RS_OFF_T = _rs_offline_order()


def _rs_offline_d(terms: int):
    """The coefficients d[k][l] of the corrections (Arias de Reyna II,
    Sec. 3.17, as in mpmath's rszeta) for k < terms, as polynomials in
    rho = 1 - 2 sigma: lists of exact coefficients of rho^0, rho^1, ..."""
    def comb(*pairs):
        out = [Fraction(0)] * max(len(q) for _, q in pairs)
        for w, q in pairs:
            for i, v in enumerate(q):
                out[i] += w * v
        return out

    def get(k, prev):
        return prev[k] if 0 <= k < len(prev) else []

    d = [[[Fraction(1)]]]
    for n in range(1, terms):
        prev, row = d[-1], []
        for k in range(3 * n // 2 + 1):
            m = 3 * n - 2 * k
            if m:
                row.append(comb((-(m + 1), get(k - 2, prev)),
                                (Fraction(1, 4 * m), get(k, prev)),
                                (Fraction(1, 2 * m), [0] + get(k - 1, prev))))
            else:
                row.append(comb(*((Fraction((-1) ** (k - r + 1)
                                            * math.factorial(2 * k - 2 * r),
                                            math.factorial(k - r)), row[r])
                                  for r in range(k))))
        d.append(row)
    return d


@functools.cache
def _rs_offline_polys():
    """C_0..C_{L-1} as float polynomials in p and rho, and their rounding
    constants.

    C_k(p, sigma) = sum over l <= 3k/2 of d[k][l](rho) F^(3k-2l)(p)
    / (pi^(2k-l) (2i)^l), with the entire function
    F(z) = (e^(pi i (z^2/2 + 3/8)) - i sqrt(2) cos(pi z/2)) / (2 cos(pi z)).
    F is even, so C_k = p^(k mod 2) sum_j rho^j Q_kj(p^2).  Row i of the
    table holds the coefficients of y^(D/2 - i) in the Q_kj, D =
    _RS_OFF_DEGREE, for the (k, j) in the returned ``ks`` and ``js``.  On
    |p| <= 1 and |rho| <= 1, ``size[k]`` bounds the sum of the moduli of
    all the terms that make up C_k, ``lip[k]`` does the same for dC_k/dp,
    and ``tail[k]`` bounds the Taylor terms beyond degree D.
    """
    terms, half = _RS_OFF_L, _RS_OFF_DEGREE // 2
    extra = 5     # further powers of y, whose terms bound the Taylor tail
    # 1/cos(pi z) has poles at y = 1/4, so the division below loses
    # log10(4) digits per power of y, and F^(21) weighs c_80 by 80!/59!
    with mpmath.workdps(100):
        pi = mpmath.pi
        e38 = mpmath.expjpi(mpmath.mpf(3) / 8)
        powers = range(half + extra + 3 * terms // 2 + 1)
        num = [e38 * (0.5j * pi) ** j / mpmath.factorial(j)
               - 1j * mpmath.sqrt(2) * (-(pi / 2) ** 2) ** j
               / mpmath.factorial(2 * j) for j in powers]
        den = [2 * (-pi ** 2) ** j / mpmath.factorial(2 * j) for j in powers]
        quot = []
        for j in powers:
            quot.append((num[j] - mpmath.fsum(quot[i] * den[j - i]
                                              for i in range(j))) / den[0])
        c = np.array([complex(v) for v in quot])     # of z^(2j) in F

    d = _rs_offline_d(terms)
    ks, js, rows = [], [], []
    size, lip, tail = np.zeros(terms), np.zeros(terms), np.zeros(terms)
    for k in range(terms):
        e = 2 * np.arange(half + extra + 1) + k % 2
        for j in range(k + 1):
            row = np.zeros(len(e), dtype=np.complex128)
            mag = np.zeros(len(e))
            for el, dl in enumerate(d[k]):
                if j < len(dl) and dl[j]:
                    # the coefficients of p^e in F^(m)(p) are
                    # c_(e+m) (e+m)!/e!
                    m = 3 * k - 2 * el
                    fall = np.array([float(math.perm(int(v) + m, m))
                                     for v in e])
                    term = float(dl[j]) / (math.pi ** (2 * k - el)
                                           * (2j) ** el) \
                        * c[(e + m) // 2] * fall
                    row += term
                    mag += np.abs(term)
            kept = e <= _RS_OFF_DEGREE
            size[k] += mag[kept].sum()
            lip[k] += (mag * e)[kept].sum()
            tail[k] += mag[~kept].sum()
            ks.append(k)
            js.append(j)
            rows.append(np.where(kept, row, 0.0)[:half + 1])
    table = np.array(rows).T[::-1].copy()
    return table, np.array(ks), np.array(js), size, lip, tail


def _rs_offline_corrections(x, rho, a):
    """sum_k C_k(p, sigma) a^(-k) at sigma and at 1 - sigma (rho and -rho),
    p = -2x, and a bound on the rounding error of either.  One Horner pass
    over y = p^2 serves all the (k, j) rows."""
    table, ks, js, size, lip, tail = _rs_offline_polys()
    p = -2.0 * x                    # exact
    y = p * p
    rows = np.zeros((table.shape[1], len(x)), dtype=np.complex128)
    for coefs in table:
        rows = rows * y + coefs[:, None]
    rows[ks % 2 == 1] *= p
    weight = a ** -ks[:, None].astype(np.float64) * rho ** js[:, None]
    s_x = (rows * weight).sum(axis=0)
    s_y = (rows * (weight * (-1.0) ** js[:, None])).sum(axis=0)
    # Horner in a rounded y, the products by p, rho^j and a^-k and the sum
    # over the rows cost under 4 (D + rows) roundings per unit of size;
    # p is off by < 6 u a
    a_k = a ** -np.arange(len(size), dtype=np.float64)[:, None]
    err = (a_k * (4.0 * (_RS_OFF_DEGREE + len(ks)) * _U * size[:, None]
                  + tail[:, None] + 6.0 * _U * lip[:, None] * a)).sum(axis=0)
    return s_x, s_y, err


def _rs_chi_ratio(sigmas, ts):
    """X = e^(2i theta(t)) chi(sigma + it) and a bound on |X'/X - 1| for
    the computed X'.

    chi(s) = pi^(s-1/2) Gamma((1-s)/2) / Gamma(s/2), and chi(1/2 + it) =
    e^(-2i theta(t)).  With v = 1/4 + it/2 and h = (sigma - 1/2)/2,
    ln X = 2h ln pi + conj(G(-h)) - G(h), G(g) = ln Gamma(v + g) -
    ln Gamma(v), from Stirling's series with three Bernoulli terms.  Its
    remainder at w is at most |B_8| / (56 |w|^7) sec^8(arg(w)/2) (DLMF
    5.11.ii), and 0 <= sigma <= 1 puts all four w in Re w >= 0 with
    |w| >= t/2, so sec^8 <= 16.
    """
    h = 0.5 * (sigmas - 0.5)
    v = 0.25 + 0.5j * ts
    v2 = 0.0625 + 0.25 * ts * ts        # |v|^2

    def gamma_step(g):
        # ln(1 + g/v) from real functions, which keep its small size
        # accurate: |v + g|^2 / |v|^2 = 1 + g (1/2 + g) / |v|^2
        ln1p = 0.5 * np.log1p(g * (0.5 + g) / v2) \
            + 1j * np.arctan2(-0.5 * g * ts, v2 + 0.25 * g)
        w = v + g
        out = (v - 0.5) * ln1p + g * np.log(w) - g
        for k, b2k in enumerate(_B2K[:3], start=1):
            out = out + b2k / (2 * k * (2 * k - 1)) \
                * (w ** (1 - 2 * k) - v ** (1 - 2 * k))
        return out

    ln_x = 2.0 * h * math.log(math.pi) + np.conj(gamma_step(-h)) \
        - gamma_step(h)
    stirling = 4.0 * abs(_B2K[3]) / 56.0 * 16.0 * (0.5 * ts) ** -7
    # the terms of ln X are at most 1 + |h| (2 ln t + 8) in size
    ln_err = stirling + 16.0 * _U * (1.0 + np.abs(h) * (2.0 * np.log(ts)
                                                        + 8.0))
    return np.exp(ln_x), 1.01 * ln_err + 4.0 * _U


def _riemann_siegel_offline_block(big_n: int, sigmas, ts):
    """zeta and a certified error bound for 0 <= sigma <= 1, t > T_RS, at
    one main-sum length N.

    With the phases theta - t ln n of the on-line route, e^(i theta) zeta
    is sum_{n <= N} (n^(-sigma) e^(i phase) + X n^(sigma-1) e^(-i phase))
    + (-1)^(N-1) (e^(i eps) a^(-sigma) S(sigma)
                  + X e^(-i eps) a^(sigma-1) conj(S(1 - sigma))),
    S = sum_{k<L} C_k(p, .) a^(-k), eps = theta - t/2 ln tau + t/2 + pi/8
    and X = e^(2i theta) chi(s).  The bound adds Theorem 2's truncation at
    both R terms to the floating-point floor.
    """
    tau, a, nmain, x, theta = _rs_split(ts)
    chi_x, chi_err = _rs_chi_ratio(sigmas, ts)
    ln_n = np.log(np.arange(1, big_n + 1, dtype=np.float64))
    phases = theta[:, None] - ts[:, None] * ln_n[None, :]
    cos, sin = np.cos(phases), np.sin(phases)
    mx = np.exp(-sigmas[:, None] * ln_n[None, :])           # n^-sigma
    my = np.exp((sigmas[:, None] - 1.0) * ln_n[None, :])    # n^(sigma-1)
    head = ((mx * cos).sum(axis=1) + 1j * (mx * sin).sum(axis=1)) \
        + chi_x * ((my * cos).sum(axis=1) - 1j * (my * sin).sum(axis=1))
    mx0, mx1 = mx.sum(axis=1), (mx * ln_n).sum(axis=1)
    my0, my1 = my.sum(axis=1), (my * ln_n).sum(axis=1)

    rho = 1.0 - 2.0 * sigmas
    s_x, s_y, s_err = _rs_offline_corrections(x, rho, a)
    eps = sum(c / (b * ts ** k) for c, b, k in _THETA_TERMS)
    ax, ay = a ** -sigmas, a ** (sigmas - 1.0)
    rot = np.exp(1j * eps)
    corr = (-1.0) ** (nmain - 1) * (rot * ax * s_x
                                    + chi_x * np.conj(rot) * ay * np.conj(s_y))
    w = head + corr

    abs_x = np.abs(chi_x)
    trunc = math.gamma(_RS_OFF_L / 2) * (2.0 * a) ** -_RS_OFF_L \
        * (ax * 9.0 ** sigmas + abs_x * ay * 9.0 ** (1.0 - sigmas)) \
        / (math.sqrt(2.0) * math.pi)
    # floating point: the weights n^-sigma and |X| n^(sigma-1) as in the
    # on-line route, plus u (2 + ln n) per unit of weight for the powers
    # and 6 u for the products by X and the final sums; X's own error on
    # the sum it multiplies; the corrections' rounding and their phase
    w0, w1 = mx0 + abs_x * my0, mx1 + abs_x * my1
    d_theta, floor = _rs_floor(ts, tau, theta, nmain, w0, w1)
    w_err = trunc + floor + _U * (8.0 * w0 + w1) \
        + chi_err * abs_x * (my0 + ay * (np.abs(s_y) + s_err)) \
        + (ax + abs_x * ay) * s_err \
        + np.abs(corr) * (d_theta + _U * (np.log(a) + 10.0))
    # rotating by the computed exp(-i theta) adds |W| (d_theta + rounding)
    return w * np.exp(-1j * theta), \
        w_err + (np.abs(w) + w_err) * (d_theta + 6.0 * _U)


def _riemann_siegel_offline_many(sigmas, ts):
    """zeta and a certified error bound for 0 <= sigma <= 1, t > T_RS."""
    sigmas = np.asarray(sigmas, dtype=np.float64)
    ts = np.asarray(ts, dtype=np.float64)
    return _by_blocks(_riemann_siegel_offline_block, _rs_split(ts)[2],
                      sigmas, ts)


# --------------------------------------------------- Euler-Maclaurin route --

_B2K = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30,
        5.0 / 66, -691.0 / 2730, 7.0 / 6, -3617.0 / 510)
_B18 = 43867.0 / 798
_FACT = [math.factorial(k) for k in range(20)]

# 2pi in long double: the float64 2pi is 2.4e-16 short, which would leave a
# phase of k turns off by k * 2.4e-16
_TWO_PI_LD = np.longdouble(_TWO_PI) + 2.4492935982947064e-16


def _em_tail(s, big_n, n_pow_s):
    """Boundary, Bernoulli corrections and remainder bound at cutoff N, for
    s, N and N^-s as scalars or as columns."""
    tail = big_n * n_pow_s / (s - 1.0) + 0.5 * n_pow_s
    poch = s  # (s)_{2k-1} built incrementally
    n_fac = n_pow_s / big_n
    for k, b2k in enumerate(_B2K, start=1):
        tail = tail + b2k / _FACT[2 * k] * poch * n_fac * big_n ** (2 - 2 * k)
        poch = poch * (s + 2 * k - 1) * (s + 2 * k)
    rem = abs(_B18 / _FACT[18] * poch * n_fac * big_n ** -16) \
        * ((abs(s) + 17.0) / (s.real + 17.0))
    return tail, rem


# the phases t ln n are reduced in np.longdouble: 2.5e-19 per unit of
# t ln n where its eps is 2^-63 (x87 80-bit), scaled by the eps of the
# machine's long double (about 2,000 times larger where it is float64)
_PHASE_ULP = 2.5e-19 * float(np.finfo(np.longdouble).eps) / 2.0 ** -63


def _fp_floor(big_n, t_abs, scale):
    """Pairwise summation of ~N rounded cosines plus extended-precision
    phase propagation (~1 ulp of long double per t*log n), for scalars or
    columns."""
    per_sum = 6e-15 * np.maximum(np.log2(big_n), 1.0)
    per_phase = _PHASE_ULP * t_abs * np.maximum(np.log(big_n), 1.0)
    return (per_sum + per_phase) * (scale + 1.0)


def _euler_maclaurin_many(sigmas: np.ndarray, ts: np.ndarray):
    """zeta and a certified error bound, as columns: the phase matrices
    block by block, the tail and floor for all points at once."""
    sigmas = np.asarray(sigmas, dtype=np.float64)
    ts = np.asarray(ts, dtype=np.float64)
    big_ns = np.maximum(60, (1.3 * np.abs(ts)).astype(np.int64) + 8)
    n_all = np.arange(1, big_ns.max(initial=1) + 1, dtype=np.float64)
    ln_all = np.log(n_all.astype(np.longdouble))

    def block(big_n, sig, t):
        # columns n = 1..N: the head and the weight sum n < N, N gives N^-s
        n, ln_n = n_all[:big_n], ln_all[:big_n]
        phase = np.mod(t.astype(np.longdouble)[:, None] * ln_n,
                       _TWO_PI_LD).astype(np.float64)
        mag = n ** -sig[:, None]
        re, im = mag * np.cos(phase), mag * np.sin(phase)
        return (re[:, :-1].sum(axis=1) - 1j * im[:, :-1].sum(axis=1),
                re[:, -1] - 1j * im[:, -1], mag[:, :-1].sum(axis=1))

    head, n_pow_s, weight = _by_blocks(block, big_ns, sigmas, ts,
                                       dtypes=(complex, complex, float))
    big_n = big_ns.astype(np.float64)
    tail, rem = _em_tail(sigmas + 1j * ts, big_n, n_pow_s)
    return head + tail, rem + _fp_floor(big_n, np.abs(ts),
                                        weight + np.abs(tail))


# ------------------------------------------------------------- dispatcher --

def _rs_regions(sigmas, ts):
    """Masks of the points the on-line and the off-line Riemann-Siegel
    routes serve, t >= 0: the one place where the route is chosen by region.
    Euler-Maclaurin serves every other point."""
    on_line = (sigmas == 0.5) & (ts >= _GABCKE_T)
    off_line = ~on_line & (sigmas >= 0.0) & (sigmas <= 1.0) & (ts > _RS_OFF_T)
    return on_line, off_line


def _zeta_many(sigmas, ts) -> tuple[np.ndarray, np.ndarray]:
    """zeta with certified absolute error bounds at sigma + i t, t >= 0 and
    s != 1."""
    sigmas = np.asarray(sigmas, dtype=np.float64)
    ts = np.asarray(ts, dtype=np.float64)
    vals = np.empty(ts.shape, dtype=np.complex128)
    errs = np.empty(ts.shape, dtype=np.float64)
    on_line, off_line = _rs_regions(sigmas, ts)
    for mask, route in ((on_line, lambda _, t: _riemann_siegel_many(t)),
                        (off_line, _riemann_siegel_offline_many),
                        (~(on_line | off_line), _euler_maclaurin_many)):
        vals[mask], errs[mask] = route(sigmas[mask], ts[mask])
    return vals, errs


def zeta_eval(s) -> tuple[complex, float]:
    """zeta(s) with a certified absolute error bound, route chosen by region."""
    s = complex(s)
    if s == 1.0:
        raise DomainError("zeta has a pole at s = 1")
    if s.real < 0.0:
        raise DomainError("only Re(s) >= 0 is supported")
    if abs(s.imag) > _T_MAX:
        raise DomainError("|Im(s)| <= 1e5 is supported")
    if s.imag < 0:
        v, e = zeta_eval(s.conjugate())
        return v.conjugate(), e
    vals, errs = _zeta_many([s.real], [s.imag])
    return complex(vals[0]), float(errs[0])


def zeta(s) -> complex:
    """zeta(s) certified to 1e-8 relative error (AccuracyError otherwise).
    A Riemann-Siegel value that misses it is retried by Euler-Maclaurin."""
    val, err = zeta_eval(s)
    if err > 1e-8 * abs(val):
        s_c = complex(s)
        sigma, t = np.array([s_c.real]), np.array([abs(s_c.imag)])
        if any(mask[0] for mask in _rs_regions(sigma, t)):
            vals, errs = _euler_maclaurin_many(sigma, t)
            val, err = complex(vals[0]), float(errs[0])
            if s_c.imag < 0:
                val = val.conjugate()
        if err > 1e-8 * abs(val):
            raise AccuracyError(
                f"relative error {err / max(abs(val), 1e-300):.2e} at {s}")
    return val


# ------------------------------------------------------------------ scans --

_MAX_POINTS = 2 ** 22   # grid points per scan


@dataclass(frozen=True)
class SigmaMode:
    """Abscissa rule for a scan: a fixed sigma or the near-critical path."""

    kind: str
    value: float

    @classmethod
    def fixed(cls, sigma: float = 0.5) -> "SigmaMode":
        if not (math.isfinite(sigma) and sigma >= 0):
            raise DomainError(f"sigma must be finite and >= 0, got {sigma}")
        return cls("fixed", float(sigma))

    @classmethod
    def near_critical(cls, delta: float = 0.5) -> "SigmaMode":
        if not 0.0 < delta < 1.0:
            raise DomainError("delta must lie in (0, 1)")
        return cls("near_critical", float(delta))


@dataclass
class ScanResult:
    """The recorded points of a scan as columns in grid order: ``t``,
    ``sigma``, the complex ``value`` of zeta, its ``abs``, the certified
    leading ``digits`` and ``cert_err``, a certified bound on
    |zeta - value|.  ``histogram`` counts ``digits``; ``skipped`` holds the
    t of points excluded as indistinguishable from a zero or with a digit
    still uncertified after refinement; ``failures`` lists (t, reason) for
    points not evaluated (the pole); ``refined`` counts the points a
    Riemann-Siegel route left undecided, re-evaluated by Euler-Maclaurin."""

    t: np.ndarray
    sigma: np.ndarray
    value: np.ndarray
    abs: np.ndarray
    digits: np.ndarray
    cert_err: np.ndarray
    histogram: DigitHistogram
    skipped: np.ndarray
    failures: list
    refined: int


def scan_line(t_start: float, t_end: float, step: float, mode: SigmaMode,
              base: int = 10) -> ScanResult:
    """Evaluate |zeta| on a t grid, extract certified leading digits, and
    accumulate their histogram.

    A digit is undecided (0) when its band straddles a boundary or, at
    |zeta| < 10 err, is infinite.  Riemann-Siegel points left undecided are
    re-evaluated by Euler-Maclaurin; points still undecided are skipped.
    """
    base = _check_digit_base(base)
    if not all(map(math.isfinite, (t_start, t_end, step))):
        raise DomainError("t_start, t_end and step must be finite")
    if step <= 0:
        raise DomainError("step must be positive")
    if t_end < t_start:
        raise DomainError("t_end must be >= t_start")
    if t_start < 0:
        raise DomainError("scans run over t >= 0")
    if t_end > _T_MAX:
        raise DomainError("evaluation is supported for t <= 1e5")
    span = (t_end - t_start) / step
    if span >= _MAX_POINTS:
        raise DomainError(f"a scan holds at most {_MAX_POINTS} points")
    count = int(math.floor(span + 1e-9)) + 1
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
    lb = math.log(base)

    def certify(idx):
        # the certified error of |zeta| becomes a band on log_base|zeta|:
        # |zeta| >= a(1 - eps) reaches -log1p(-eps)/ln B below log_B a,
        # farther than eps/ln B; eps = 1, as within 10 err of zero, leaves
        # an infinite band and digit 0
        a = np.maximum(abs_vals[idx], 1e-300)
        eps = np.where(abs_vals[idx] < 10.0 * errs[idx], 1.0,
                       np.minimum(errs[idx] / a, 1.0))
        with np.errstate(divide="ignore"):
            band = -np.log1p(-eps) / lb + 1e-13
        digits[idx] = digits_from_log(np.mod(np.log(a) / lb, 1.0), band, base)

    certify(ok)
    # Euler-Maclaurin already served the points outside both RS regions
    refine = ok & (digits == 0) & np.logical_or(*_rs_regions(sigmas, ts))
    vals[refine], errs[refine] = _euler_maclaurin_many(sigmas[refine],
                                                       ts[refine])
    abs_vals[refine] = np.abs(vals[refine])
    certify(refine)

    keep = ok & (digits > 0)
    skip = ok & ~keep
    return ScanResult(ts[keep], sigmas[keep], vals[keep], abs_vals[keep],
                      digits[keep], errs[keep],
                      DigitHistogram.from_digits(digits[keep], base),
                      ts[skip], failures, int(refine.sum()))
