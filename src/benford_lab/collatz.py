"""Iteration engine for (d,g,h)-maps, with the 3x+1 map as the flagship case.

One application of the map sends x to (g*x + h(g*x)) / d**k, where h is a
period-d table forcing divisibility and k is the exact multiplicity of d in
the numerator.  The module provides exact stepping and path recording, the
inverse-path structure check (every multiplicity tuple is realised by exactly
two full arithmetic progressions), pooled multiplicity statistics, the ratio
of an iterate to its drift-predicted size as a mod-1 statistic with exact
leading-digit extraction, the matching geometric-sum sampler, and
leading-digit censuses over whole trajectories of enormous seeds.

Seed censuses run tile by tile: one vectorised loop takes a tile of seeds
through all m steps before the next tile starts, so its buffers stay in
cache.  A tile's iterates stay in int64 while the next multiply by g cannot
overflow and widen to exact Python ints (an object array) once it could, so
only the tiles and steps that need big integers pay for them.  An int64 step
of a d = 2 map is a few integer ufuncs into buffers the loop owns:
u = g*x + h(1), k counted as the ones of (u & -u) - 1, and x = u >> k.
Digit decisions are never made from a float that could sit on a digit
boundary.

Trajectories advance by blocks down to 128-bit iterates.  The next k steps
of the 3x+1 map depend only on x mod 2**k (Terras 1976; Lagarias 1985), so
a block is simulated on the low min(1,024, n - 64) bits of an n-bit
iterate, giving each block iterate as (3**a * x + c) / 2**e, and is applied
to the big integer with one multiply-add-shift.  The simulation takes most
of its steps by lookups in a table of the steps each odd residue mod 2**12
decides, built at first use, and c follows from the simulation's end value.
Digits are decided a few thousand iterates at a time, over several blocks
and the small iterates stepped exactly after them, in one pass: one log
bracket of the block start values and small iterates, a block iterate's log
as log_base x plus a*log_base 3 - e*log_base 2 inside a certified band, one
digit rule, and an exact fallback where a band touches a cell boundary.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cache
from numbers import Integral

import numpy as np

from .benford_stats import DigitHistogram, benford_probabilities
from .core_numeric import BigNat, DomainError, _check_base, \
    _check_digit_base, _exact_floor_log, _log_brackets, _log_values, \
    _ratio_digit, digits_from_log, leading_digit, shift_out_factor

__all__ = [
    "DghMap",
    "dgh_map",
    "THREE_X_PLUS_1",
    "THREE_X_MINUS_1",
    "FIVE_X_PLUS_1",
    "PathRecord",
    "StructurePrediction",
    "IterationDomainError",
    "StructureError",
    "step",
    "path",
    "structure_predict",
    "inverse_path_bruteforce",
    "path_probability_check",
    "census_1mod6",
    "kvalue_histogram",
    "KValueStats",
    "ratio_statistic",
    "geometric_model_sample",
    "geometric_model_points",
    "drift",
    "ratio_digit_experiment",
    "model_digit_experiment",
    "RatioDigitResult",
    "iterate_digit_experiment",
    "IterateDigitResult",
    "ks_distance",
]

_LN2 = math.log(2.0)


class IterationDomainError(DomainError):
    """Domain violation in the middle of a path; carries the failing index."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class StructureError(RuntimeError):
    """The inverse-path match set is not two full arithmetic progressions."""


@dataclass(frozen=True)
class DghMap:
    """Map x -> (g*x + h(g*x)) / d**k with h given as a residue table mod d.

    Entry ``h[r]`` applies when g*x = r (mod d); residue 0 cannot occur for
    x in the domain (d does not divide g*x), so ``h[0]`` may be None.
    """

    d: int
    g: int
    h: tuple

    def __post_init__(self):
        if self.d < 2 or self.g <= self.d:
            raise DomainError("need g > d >= 2")
        if math.gcd(self.d, self.g) != 1:
            raise DomainError("d and g must be coprime")
        if len(self.h) != self.d:
            raise DomainError("h must be a table of d residue values")
        for r in range(1, self.d):
            hv = self.h[r]
            if hv is None or not 0 < abs(hv) < self.g:
                raise DomainError(f"h({r}) must satisfy 0 < |h| < g")
            if (r + hv) % self.d != 0:
                raise DomainError(f"h({r}) must make r + h(r) divisible by d")

    def in_domain(self, x) -> bool:
        return x >= 1 and x % self.d != 0 and x % self.g != 0

    def h_at(self, u) -> int:
        return self.h[u % self.d]


def dgh_map(d: int, g: int, h) -> DghMap:
    """Build a DghMap from a residue->value mapping or a length-d sequence."""
    if isinstance(h, dict):
        table = tuple(h.get(r) for r in range(d))
    else:
        table = tuple(h)
    return DghMap(d, g, table)


THREE_X_PLUS_1 = DghMap(2, 3, (None, 1))
THREE_X_MINUS_1 = DghMap(2, 3, (None, -1))
FIVE_X_PLUS_1 = DghMap(2, 5, (None, 1))


@dataclass(frozen=True)
class PathRecord:
    """A seed with its multiplicity tuple (k_1..k_m) and its iterates."""

    seed: BigNat
    m: int
    kvalues: tuple
    iterates: tuple


@dataclass(frozen=True)
class StructurePrediction:
    """Modulus (and, once found, the two base residues) of an inverse path."""

    modulus: BigNat
    residues: tuple | None = None


def step(dmap: DghMap, x: BigNat) -> tuple[BigNat, int]:
    """One exact application: returns (y, k) with g*x + h = y * d**k."""
    if not dmap.in_domain(x):
        raise DomainError(
            f"x ({x.bit_length()} bits, x mod {dmap.d * dmap.g} = "
            f"{x % (dmap.d * dmap.g)}) is < 1 or divisible by d or g")
    u = dmap.g * x
    u += dmap.h_at(u)
    y, k = shift_out_factor(u, dmap.d)
    return y, k


def path(dmap: DghMap, x0: BigNat, m: int) -> PathRecord:
    """Apply the map m times, recording every multiplicity and iterate."""
    if m < 1:
        raise DomainError("m must be >= 1")
    x = int(x0)
    ks = []
    iterates = []
    for i in range(m):
        try:
            y, k = step(dmap, x)
        except DomainError as exc:
            raise IterationDomainError(
                f"domain violation at step {i}: {exc}", index=i) from exc
        # exact reconstruction guard, kept under python -O
        if dmap.g * x + dmap.h_at(dmap.g * x) != y * dmap.d ** k:
            raise AssertionError(f"step {i}: g*x + h != y * d**k")
        x = y
        ks.append(k)
        iterates.append(y)
    return PathRecord(int(x0), m, tuple(ks), tuple(iterates))


# ------------------------------------------------------- structure checks --

def structure_predict(ktuple) -> StructurePrediction:
    ks = tuple(int(k) for k in ktuple)
    if not ks or any(k < 1 for k in ks):
        raise DomainError("every multiplicity must be >= 1")
    return StructurePrediction(6 * 2 ** sum(ks))


def _domain_int64(limit: int) -> np.ndarray:
    ones = np.arange(1, limit + 1, 6, dtype=np.int64)
    fives = np.arange(5, limit + 1, 6, dtype=np.int64)
    return np.concatenate([ones, fives])


def _match_ktuple_3x1(ktuple, limit: int) -> np.ndarray:
    """Seeds x <= limit in the 3x+1 domain whose path starts with ktuple."""
    xs = _domain_int64(limit)
    ok = np.ones(xs.shape, dtype=bool)
    for tile, i, _, k in _census_steps(xs, len(ktuple), THREE_X_PLUS_1):
        ok[tile] &= k == ktuple[i]
    return np.sort(xs[ok])


def inverse_path_bruteforce(ktuple, limit: int) -> StructurePrediction:
    """Exhaustively find every 3x+1 seed below ``limit`` with the given
    multiplicity tuple and verify the match set is exactly two full
    arithmetic progressions of modulus 6*2^(sum k), one in each residue
    class of {1, 5} mod 6.  Raises StructureError otherwise."""
    pred = structure_predict(ktuple)
    a = pred.modulus
    if limit < 2 * a:
        raise DomainError(f"limit must be at least two periods (2*{a})")
    matches = _match_ktuple_3x1(tuple(int(k) for k in ktuple), limit)
    residues = np.unique(matches % a) if matches.size else np.array([])
    if residues.size != 2:
        raise StructureError(
            f"expected exactly 2 residues mod {a}, found {residues.size}")
    b1, b2 = (int(r) for r in residues)
    if sorted((b1 % 6, b2 % 6)) != [1, 5]:
        raise StructureError(
            f"residues {b1}, {b2} do not fall in classes {{1, 5}} mod 6")
    expected = np.sort(np.concatenate([
        np.arange(b1, limit + 1, a, dtype=np.int64),
        np.arange(b2, limit + 1, a, dtype=np.int64)]))
    if not np.array_equal(matches, expected):
        raise StructureError("match set is not two full progressions")
    return StructurePrediction(a, (b1, b2))


def path_probability_check(ktuple, limit: int) -> tuple[float, float]:
    """Empirical density of seeds realising ktuple vs 2^(-sum k)."""
    ks = tuple(int(k) for k in ktuple)
    matches = _match_ktuple_3x1(ks, limit)
    n_domain = _domain_int64(limit).size
    return matches.size / n_domain, 2.0 ** -sum(ks)


# ------------------------------------------------------------ seed census --

def census_1mod6(start: int, count: int):
    """``count`` consecutive integers congruent to 1 mod 6 from ``start``."""
    if start % 6 != 1:
        raise DomainError("start must be congruent to 1 mod 6")
    if count < 1:
        raise DomainError("count must be >= 1")
    top = start + 6 * (count - 1)
    if top < 2 ** 62:
        return start + 6 * np.arange(count, dtype=np.int64)
    return [start + 6 * i for i in range(count)]


_K_SLOTS = 64  # pooled multiplicity counts are binned up to this value


def _trailing_zeros(u: np.ndarray) -> np.ndarray:
    """Exponent of 2 in each entry of an exact-int object array u > 0, from
    the bit length of u & -u: exact at any size, where a float log2 would
    overflow once k reaches 1024.  (The int64 census counts the ones of
    (u & -u) - 1 in its step kernel instead.)"""
    return np.fromiter((v.bit_length() - 1 for v in u & -u), np.int64,
                       len(u))


# A census is stepped a tile of _TILE seeds at a time: all m steps of one
# tile run before the next tile starts, so the int64 kernel's four buffers
# (128 KB each) stay in cache instead of streaming the whole census through
# memory on every step.  On the 10^5 headline seeds (m = 10; 2-vCPU Xeon,
# 2 MB of L2 per core) ``_census_paths`` took 21.3, 9.6, 7.7, 7.4, 8.3 and
# 8.4 ms at tiles of 2^10, 2^12, 2^13, 2^14, 2^15 and 2^16 seeds, against
# 10.2 ms in one tile (medians of 25 interleaved runs): below 2^13 numpy's
# fixed cost per call dominates, above 2^15 the buffers leave L2.
_TILE = 2 ** 14


def _census_steps(seeds, m: int, dmap: DghMap):
    """Yield (tile, i, x, k) for the steps i = 0..m-1 of each tile of a
    census: the slice ``tile`` of the seeds, and the iterates x and
    multiplicities k of those seeds after step i + 1.  All m steps of a
    tile are yielded before the next tile's first.

    The input is checked once: the domain (x >= 1, d and g not dividing x)
    is closed under the map, since g*x + h = h (mod g), d**k is coprime to
    g and g*x + h > 0.  A tile's iterates stay in int64 while g*x cannot
    overflow and move to exact Python ints (an object array) when it could;
    the other tiles are unaffected.

    For d = 2 the int64 steps run in buffers the generator owns, so the
    yielded x and k are overwritten by the next step; the caller's seed
    array is only read.  x and g are odd, so g*x is odd and h is h(1) on
    every step, and k is the number of ones in (u & -u) - 1, in integer
    ops.  Other d look h up by g*x mod d and divide d out while it divides.
    """
    if len(seeds) == 0:
        raise DomainError("need a nonempty census")
    try:
        x0 = np.asarray(seeds, dtype=np.int64)
    except OverflowError:
        x0 = np.array([int(s) for s in seeds], dtype=object)
    # x // d * d == x tests divisibility about three times faster than
    # x % d == 0 on int64, whose // by a scalar numpy does by multiplication
    if x0.min() < 1 or (x0 // dmap.d * dmap.d == x0).any() or \
            (x0 // dmap.g * dmap.g == x0).any():
        raise DomainError("every seed must be >= 1 and avoid the factors "
                          "d and g")
    cap = (2 ** 62) // dmap.g
    htab = np.array([v if v is not None else 0 for v in dmap.h],
                    dtype=np.int64)
    bufs = [np.empty(min(len(x0), _TILE), np.int64) for _ in range(4)]
    for lo in range(0, len(x0), _TILE):
        tile = slice(lo, lo + _TILE)
        x = x0[tile]
        # sliced anew per tile: the exact-int branches rebind u and k
        u, low, k, xbuf = (b[:len(x)] for b in bufs)
        for i in range(m):
            if x.dtype != object and x.max() > cap:
                x = x.astype(object)
            if dmap.d == 2 and x.dtype != object:
                np.multiply(x, dmap.g, out=u)
                u += dmap.h[1]
                np.bitwise_and(u, np.negative(u, out=low), out=low)
                low -= 1
                np.bitwise_count(low, out=k)
                x = np.right_shift(u, k, out=xbuf)
            elif dmap.d == 2:
                u = dmap.g * x + dmap.h[1]
                k = _trailing_zeros(u)
                x = u >> k
            else:
                u = dmap.g * x
                u += htab[(u % dmap.d).astype(np.intp)]
                # np.divmod has no object loop; // and % work for both dtypes
                k = np.zeros(len(x), dtype=np.int64)
                while (mask := u % dmap.d == 0).any():
                    u[mask] //= dmap.d
                    k += mask
                x = u
            yield tile, i, x, k


def _census_paths(seeds, m: int, dmap: DghMap):
    """x_m and the total multiplicity S of each seed over a census.  x_m is
    an object array when any tile left int64."""
    if m < 1:
        raise DomainError("m must be >= 1")
    s_tot = np.zeros(len(seeds), dtype=np.int64)
    xm = []
    for tile, i, x, k in _census_steps(seeds, m, dmap):
        s = s_tot[tile]
        s += k      # s_tot[tile] += k would copy s back onto itself
        if i == m - 1:
            xm.append(x.copy())     # the next tile reuses x's buffer
    return np.concatenate(xm), s_tot


@dataclass
class KValueStats:
    """Pooled multiplicity histogram over a census, vs the geometric law."""

    d: int
    counts: np.ndarray
    total: int

    def empirical(self, n: int) -> float:
        return self.counts[n] / self.total if n < len(self.counts) else 0.0

    def reference(self, n: int) -> float:
        return (self.d - 1) / self.d ** n

    @property
    def mean(self) -> float:
        n = np.arange(len(self.counts))
        return float((n * self.counts).sum() / self.total)

    @property
    def variance(self) -> float:
        n = np.arange(len(self.counts))
        mu = self.mean
        return float((self.counts * (n - mu) ** 2).sum() / self.total)


def kvalue_histogram(dmap: DghMap, seeds, m: int) -> KValueStats:
    """Histogram of all m * len(seeds) multiplicities along the census,
    binned up to _K_SLOTS - 1."""
    if m < 1:
        raise DomainError("m must be >= 1")
    khist = np.zeros(_K_SLOTS, dtype=np.int64)
    for _, _, _, k in _census_steps(seeds, m, dmap):
        # a k past the last slot counts in it
        counts = np.bincount(k, minlength=_K_SLOTS)
        khist[:-1] += counts[:_K_SLOTS - 1]
        khist[-1] += counts[_K_SLOTS - 1:].sum()
    return KValueStats(dmap.d, khist, int(khist.sum()))


# ---------------------------------------------------------- ratio statistic --

def ratio_statistic(x0: BigNat, m: int, base) -> float:
    """log_base( x_m / ((3/4)^m x_0) ) mod 1 for the 3x+1 map: the one-seed
    case of :func:`ratio_fracs`."""
    if m == 0:
        return 0.0
    if m < 0:
        raise DomainError("m must be >= 0")
    return float(ratio_fracs([int(x0)], m, base)[0])


def geometric_model_sample(m: int, base, rng: np.random.Generator) -> float:
    """(sum of m iid geometric(1/2) draws - 2m) * log_base(2), mod 1: the
    one-draw case of :func:`geometric_model_points`."""
    return float(geometric_model_points(m, base, 1, rng)[0])


def geometric_model_points(m: int, base, n: int,
                           rng: np.random.Generator) -> np.ndarray:
    """n independent copies of the model statistic."""
    j = _model_sums(m, n, rng) - 2 * m
    n_pow = _exact_log2(base)
    if n_pow is not None:
        return np.mod(j, n_pow) / float(n_pow)
    g = j * (_LN2 / math.log(base))
    g -= np.floor(g)    # np.mod(g, 1.0) bit for bit (see _batch_logs)
    return g


def _model_sums(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws of the sum of m iid geometric(1/2) multiplicities
    (negative-binomial form: identical law, no n*m scratch array)."""
    if m < 1 or n < 1:
        raise DomainError("m and n must be >= 1")
    return m + rng.negative_binomial(m, 0.5, size=n).astype(np.int64)


def _exact_log2(base) -> int | None:
    """n when base == 2**n for integer n >= 1, else None."""
    if isinstance(base, Integral):
        b = int(base)
        if b >= 2 and b & (b - 1) == 0:
            return b.bit_length() - 1
    return None


def drift(dmap: DghMap) -> float:
    """log g - (d/(d-1)) log d; negative drift means contracting paths."""
    return math.log(dmap.g) - dmap.d / (dmap.d - 1) * math.log(dmap.d)


# ------------------------------------------------- exact ratio digit census --

def _pow2_lattice(j_lo: int, j_hi: int, base: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """For j = j_lo..j_hi: the exact leading digit d of 2**j in ``base`` and
    its upward gap log2((d+1) B**e / 2**j), where B**e <= 2**j < B**(e+1).

    Both come from integers; the gap is one correctly rounded integer
    quotient followed by a log2 accurate to a few ulps.
    """
    digits, gaps = [], []
    for j in range(j_lo, j_hi + 1):
        _, a, b = _exact_floor_log(1 << max(j, 0), base, den=1 << max(-j, 0))
        d = a // b
        digits.append(d)
        gaps.append(math.log2((d + 1) * b / a))
    return np.array(digits, dtype=np.int64), np.array(gaps)


@dataclass
class RatioDigitResult:
    base: int
    m: int
    n_seeds: int
    histogram: DigitHistogram
    predicted: np.ndarray
    # (x_m, S) the histogram was counted from; no log2 u, since the gate's
    # estimate would not do for ``ratio_fracs`` (see there)
    census: tuple
    n_exact: int    # seeds whose digit came from the full integer ratio

    def observed_freq(self) -> np.ndarray:
        return self.histogram.frequencies()

    def to_text_table(self) -> str:
        header = f"{'First Digit':>11} {'Observed':>12} {'Predicted':>12}"
        lines = [header]
        freq = self.observed_freq()
        for d in range(1, self.base):
            lines.append(f"{d:>11d} {100 * freq[d - 1]:>11.1f}% "
                         f"{100 * self.predicted[d - 1]:>11.1f}%")
        return "\n".join(lines)


def limit_law_digit_probabilities(base: int) -> np.ndarray:
    """Limiting digit law of the ratio statistic: uniform on the powers of
    two below a power-of-two base, the logarithmic law otherwise."""
    n_pow = _exact_log2(base)
    if n_pow is None:
        return benford_probabilities(base)
    probs = np.zeros(base - 1)
    for j in range(n_pow):
        probs[2 ** j - 1] = 1.0 / n_pow
    return probs


def ratio_digit_experiment(seeds, m: int, base: int) -> RatioDigitResult:
    """Leading digit of x_m / ((3/4)^m x_0) over a census, exactly.

    The digit comes from exact integer data: with S the total multiplicity,
    the ratio is 2^j * u with j = 2m - S and u = prod(1 + 1/(3 x_i)) >= 1.
    While log2(u) stays below half the exact upward gap g_j of 2^j to the
    next digit boundary, the digit is the exact digit of 2^j.  The gate
    reads an estimate of log2 u less its error bound (see ``_ulog2_gate``);
    any other seed (typically a tiny iterate) is recomputed from the full
    integer ratio and counted in ``n_exact``.  The result keeps the census,
    which ``ratio_fracs`` can reuse.
    """
    base = _check_digit_base(base)
    xm, s_tot = _census_paths(seeds, m, THREE_X_PLUS_1)
    est, slack = _ulog2_gate(seeds, xm, s_tot, m)
    j = 2 * m - s_tot
    j_lo = int(j.min())
    lattice, gaps = _pow2_lattice(j_lo, int(j.max()), base)
    digits = lattice[j - j_lo]
    exact = np.flatnonzero(est >= 0.5 * gaps[j - j_lo] - slack).tolist()
    for i in exact:
        digits[i] = _ratio_digit(int(xm[i]) << (2 * m),
                                 3 ** m * int(seeds[i]), base)
    hist = DigitHistogram.from_digits(digits, base)
    return RatioDigitResult(base, m, len(xm), hist,
                            limit_law_digit_probabilities(base),
                            (xm, s_tot), len(exact))


def model_digit_experiment(m: int, base: int, n: int,
                           rng: np.random.Generator) -> DigitHistogram:
    """Digit histogram of the geometric-sum model, via exact lattice digits."""
    base = _check_digit_base(base)
    j = _model_sums(m, n, rng) - 2 * m
    j_lo = int(j.min())
    lattice, _ = _pow2_lattice(j_lo, int(j.max()), base)
    return DigitHistogram.from_digits(lattice[j - j_lo], base)


def _ulog2(seeds, xm, s_tot, m: int) -> np.ndarray:
    """log2 u over a 3x+1 census, where u = x_m 2^S / (3^m x_0) >= 1 is the
    factor by which the ratio exceeds its lattice point 2^(2m - S)."""
    # the difference of the two logs is taken first, so huge seeds cancel
    return (_log_values(xm, 2.0)[0] - _log_values(seeds, 2.0)[0]) \
        + s_tot - m * math.log2(3.0)


def _ulog2_gate(seeds, xm, s_tot, m: int) -> tuple[np.ndarray, float]:
    """An estimate of log2 u for each seed of a 3x+1 census, and a bound on
    its error.

    On an int64 census the estimate is numpy's log2 of the floats of x_m
    and x_0, plus S - m log2 3; an object census (seeds or iterates beyond
    int64) takes ``_ulog2``.  The gate only asks whether log2 u is below
    half a digit gap, so it need not have ``_ulog2``'s bits.  The bound
    1e-12 covers, with a wide margin, what the estimate rounds where the
    gate can pass (log2 u < 1/2, so S - m log2 3 is within 64 of
    log2 x_0 - log2 x_m):
    - the float of an integer below 2^63, under 2e-16 in its log2;
    - numpy's log2, a few ulps of a value below 64 (ulp 2^-47 = 7e-15);
    - the sums with S, a few ulps of values below 64.
    The product m log2 3 and the logs of b-bit integers in ``_ulog2`` add
    at most (m + b) 2^-50.
    """
    if xm.dtype == object:
        bits = max(int(xm.max()), max(map(int, seeds))).bit_length()
        return _ulog2(seeds, xm, s_tot, m), 1e-12 + (m + bits) * 2.0 ** -50
    x0 = np.asarray(seeds, dtype=np.float64)
    est = (np.log2(xm.astype(np.float64)) - np.log2(x0)) + s_tot \
        - m * math.log2(3.0)
    return est, 1e-12 + m * 2.0 ** -50


def ratio_fracs(seeds, m: int, base, *, census=None) -> np.ndarray:
    """Float values of the ratio statistic over a census (for distribution
    plots and KS comparisons; digit decisions use the exact path instead).
    ``census`` is the ``census`` of a ``ratio_digit_experiment`` over the
    same seeds and m, when the caller already has one.

    log2 u comes from ``_ulog2``, with ``math.log``'s bits, not from the
    digit gate's numpy estimate.  The bits matter: at the headline census
    log2 u is often below its own rounding (about 1e-14), so the statistic
    sits within rounding of the model's lattice points and the KS distance
    to the model turns on the last bits (0.09564 with ``math.log``, 0.0956
    with ``np.log2``).
    """
    c = _LN2 / math.log(_check_base(base))
    if census is None:
        census = _census_paths(seeds, m, THREE_X_PLUS_1)
    xm, s_tot = census
    ulog2 = _ulog2(seeds, xm, s_tot, m)
    j = np.asarray(2 * m - s_tot, dtype=np.float64)
    g = j * c + ulog2 * c
    g -= np.floor(g)    # np.mod(g, 1.0) bit for bit (see _batch_logs)
    return g


def ks_distance(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov sup distance.

    Both empirical CDFs are read at the last of each run of equal values in
    the merged sample, where they step; a stable argsort of the two sorted
    samples merges them, and cumulative counts give the number of each
    sample's points at or below every value.
    """
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    both = np.concatenate([a, b])
    order = np.argsort(both, kind="stable")
    merged = both[order]
    # NaNs sort last and, as in searchsorted, count as one value
    last = np.flatnonzero(np.append(
        (merged[1:] != merged[:-1]) & ~np.isnan(merged[:-1]), True))
    in_a = np.cumsum(order < a.size)[last]
    fa = in_a / a.size
    fb = (last + 1 - in_a) / b.size
    return float(np.abs(fa - fb).max())


# --------------------------------------------------- trajectory digit census --

MODES = ("remove_all_twos", "single_step")

# A block of the map is simulated on the low w = min(_BLOCK_BITS, n - 64)
# bits of an odd n-bit iterate, down to w = _BLOCK_FLOOR bits: every block
# start has at least 64 bits above its window.  A block iterate takes
# e < w halvings, so the carry term of ``_batch_logs``, 2**(e - n + 1), is
# under 2**-63: far under the 5e-16 pad of the log bracket.  Each block
# pays its low-bit simulation and one multiply-add-shift, and each iterate
# of fewer than _BLOCK_FLOOR + 64 bits one exact step; digits are decided
# in batches (see _BATCH).  On 10^4- and 3*10^4-digit trajectories, with
# one numpy digit pass per block, 1,024-bit blocks ran 5-40% faster than
# 256, 512 or 2,048 bits; with batches, 512 to 2,048 bits ran within the
# host's noise.  Narrowing the window under 1,024 bits, instead of stepping
# the last thousand bits exactly, made 300- and 1,000-digit runs 2.3 to 5
# times faster in-process; of floors from 16 to 96 bits, 48 and 64 ran
# fastest.
_BLOCK_BITS = 1024
_BLOCK_FLOOR = 64
# Blocks and small exact iterates queue until about _BATCH iterates wait;
# then one numpy pass decides all their digits (``_decide``).  A block
# records up to 1,500 iterates, so the fixed cost of the numpy calls is
# paid a few times less often, and the exact steps under _BLOCK_FLOOR + 64
# bits share the pass instead of taking a ``leading_digit`` per iterate.
_BATCH = 4096
# the residue table of ``_block`` covers the odd residues mod 2**_TABLE_BITS
_TABLE_BITS = 12


@dataclass
class IterateDigitResult:
    mode: str
    base: int
    histogram: DigitHistogram
    n_recorded: int
    reached_one: bool
    n_refined: int  # block digits taken from the exact iterate


def _steps(y: int, e: int, ks: list, bits: int, steps: int):
    """The plain loop: accelerated steps x -> (3x+1)/2**k from y, which
    carries e halvings so far, while the low ``bits`` bits decide each k
    (e + k < bits) and ``ks`` holds fewer than ``steps`` multiplicities.
    Appends each k to ``ks`` and returns the new (y, e)."""
    while len(ks) < steps:
        u = 3 * y + 1
        k = (u & -u).bit_length() - 1
        if e + k >= bits:
            break
        y, e = u >> k, e + k
        ks.append(k)
    return y, e


@cache
def _residue_table() -> tuple:
    """For each odd residue r mod 2**_TABLE_BITS, the steps it decides as
    (ks, 3**j, c, e): every odd x = r mod 2**_TABLE_BITS has the
    multiplicities ks (j of them, e = sum(ks)) and reaches (3**j x + c) / 2**e
    after them.  Even slots and a residue whose first multiplicity reaches
    past its bits hold no step.  Built at first use, not at import."""
    table = [(array("H"), 1, 0, 0)] * (1 << _TABLE_BITS)
    for r in range(1, 1 << _TABLE_BITS, 2):
        ks = array("H")
        y, e = _steps(r, 0, ks, _TABLE_BITS, _TABLE_BITS)
        t = 3 ** len(ks)
        table[r] = (ks, t, (y << e) - t * r, e)
    return tuple(table)


def _block(low: int, bits: int, steps: int) -> tuple[array, int, int]:
    """Up to ``steps`` accelerated steps x -> (3x+1)/2**k from an odd x whose
    low ``bits`` bits are ``low``, as far as those bits decide them: the
    multiplicities ks, the end value y and e = sum(ks).  ks is an
    ``array("H")``: each k is below ``bits`` (at most _BLOCK_BITS), and a
    batch reads the blocks' bytes into numpy in one call.

    After j steps y = (3**j * low + c_j) / 2**e_j is an exact integer
    congruent to the j-th iterate mod 2**(bits - e_j), so the next
    multiplicity k is decided while e_j + k < bits.  While at least
    _TABLE_BITS of those bits remain, one lookup of y's low bits in the
    residue table takes every step they decide.  The plain loop takes a
    step the table leaves undecided and the last steps of the block, where
    fewer bits or fewer ``steps`` remain.
    """
    table = _residue_table()
    mask = (1 << _TABLE_BITS) - 1
    ks = array("H")
    y, e = low, 0
    # an entry holds fewer than _TABLE_BITS steps, so each one fits here
    while e <= bits - _TABLE_BITS and len(ks) < steps - _TABLE_BITS:
        tks, t, c, te = table[y & mask]
        if tks:
            y, e = (t * y + c) >> te, e + te
            ks += tks
            continue
        # the residue leaves its first multiplicity undecided: one plain step
        n = len(ks)
        y, e = _steps(y, e, ks, bits, n + 1)
        if len(ks) == n:
            break
    y, e = _steps(y, e, ks, bits, steps)
    return ks, y, e


def _within(counts) -> np.ndarray:
    """1, 2, ..., c for each count c in turn, concatenated."""
    counts = np.asarray(counts, dtype=np.int64)
    return np.arange(1, counts.sum() + 1) \
        - np.repeat(np.cumsum(counts) - counts, counts)


def _batch_exponents(blocks, counts, single: bool):
    """(a_i, e_i) for the iterates (3**a_i x + c) / 2**e_i the queued
    blocks record, concatenated: one per accelerated step, or, in single
    steps, k_j + 1 per accelerated step j (3 x_(j-1) + 1 and its k_j
    halvings).  Block b records counts[b] of them; only the last block can
    be cut short (by ``max_iters``)."""
    nks = [len(ks) for ks, _, _ in blocks]
    kv = np.frombuffer(b"".join(ks for ks, _, _ in blocks),
                       np.uint16).astype(np.int64)
    j = _within(nks)
    if not single:
        # e restarts at each block: subtract the earlier blocks' halvings
        es = np.array([e for _, _, e in blocks], dtype=np.int64)
        return j, np.cumsum(kv) - np.repeat(np.cumsum(es) - es, nks)
    a = np.repeat(j, kv + 1)[:sum(counts)]
    return a, _within(counts) - a


def _block_iterate(x: int, low: int, block, j: int, e: int) -> int:
    """The block iterate (3**j * x + c) / 2**e, exactly, for the block
    ``_block`` returned from ``low``, the low bits of x.

    After j steps the low-bit simulation holds y = (3**j * low + c) / 2**e_j,
    so c = y * 2**e_j - 3**j * low.  The block's end value gives c for its
    last step; an earlier step (a refined digit) re-runs the plain loop on
    ``low`` to step j.
    """
    ks, y, ey = block
    if j < len(ks):
        # the first j steps are the same at any width that decided them
        y, ey = _steps(low, 0, [], _BLOCK_BITS, j)
    t = 3 ** j
    u = t * x + ((y << ey) - t * low)
    # exact reconstruction guard, kept under python -O
    if u & ((1 << e) - 1):
        raise AssertionError(f"2**{e} does not divide 3**j x + c")
    return u >> e


def _batch_logs(starts, tail: list, a: np.ndarray, e: np.ndarray,
                ids: np.ndarray, base: int):
    """log_base mod 1 and a band that holds each true value, for the block
    iterates (3**a_i * x + c) / 2**e_i with x = starts[ids_i], then for the
    ints of ``tail``, from one ``_log_brackets`` call over both.

    A tail int's band is its bracket's pad.  log_base x_i = log_base x +
    a_i log_base 3 - e_i log_base 2 + delta_i, where 0 <= delta_i =
    log_base(1 + c / (3**a_i x)) < 2**(e_i - n + 1) / ln(base) for an n-bit
    x (c / 3**a_i is at most a sum of distinct powers 2**e_j / 3 with
    e_j <= e_i).  A block runs on at most n - 64 bits of x, so e_i <= n - 65
    and delta_i < 2**-64 / ln(base).  A block iterate's band adds to the pad
    for log_base x a few ulps for each product and sum, and 2**-63 / ln(base)
    for that correction.
    """
    v, pad = _log_brackets([*starts, *tail], base)
    v -= np.floor(v)
    lb = math.log(base)
    l3, l2 = math.log(3.0) / lb, _LN2 / lb
    a3, e2 = a * l3, e * l2
    g = v[ids] + (a3 - e2)
    # g - floor(g) is np.mod(g, 1.0) bit for bit (fmod is exact, and both
    # round the same g - floor(g) when g < 0) at a tenth of the cost
    f = g - np.floor(g)
    band = pad[ids] + (2.0 + a3 + e2) * 2.0 ** -48 + 2.0 ** -63 / lb
    m = len(starts)
    return np.concatenate([f, v[m:]]), np.concatenate([band, pad[m:]])


def _decide(queue: list, tail: list, single: bool, base: int,
            counts: np.ndarray) -> int:
    """Count the digits of the queued iterates into ``counts`` and return
    how many block digits were refined.

    A queued block is (x, low, block, n): its start iterate, the low bits
    and ``_block`` result it ran on, and the n iterates it records; ``tail``
    holds exact iterates of fewer than _BLOCK_FLOOR + 64 bits.  One band
    each (``_batch_logs``) and one ``digits_from_log`` call decide every
    digit; a digit whose band touches a boundary is recomputed exactly, from
    the iterate's own block (counted) or from the tail int itself.
    """
    starts, lows, blocks, ns = zip(*queue) if queue else ((),) * 4
    a, e = _batch_exponents(blocks, ns, single)
    ids = np.repeat(np.arange(len(starts)), ns)
    digits, certified = digits_from_log(
        *_batch_logs(starts, tail, a, e, ids, base), base)
    n_blocks = len(ids)
    for i in np.flatnonzero(~certified).tolist():
        if i < n_blocks:
            b = ids[i]
            x = _block_iterate(starts[b], lows[b], blocks[b], int(a[i]),
                               int(e[i]))
        else:
            x = tail[i - n_blocks]
        digits[i] = leading_digit(x, base)
    counts += np.bincount(digits - 1, minlength=base - 1)
    return int(np.count_nonzero(~certified[:n_blocks]))


def iterate_digit_experiment(x0: BigNat, mode: str, base: int = 10,
                             max_iters: int = 10 ** 7) -> IterateDigitResult:
    """Record the leading digit of every iterate of a 3x+1 trajectory.

    ``remove_all_twos`` applies x -> (3x+1)/2^k (an even seed is first
    reduced to its odd part, which counts as one recorded value);
    ``single_step`` applies 3x+1 to odd x and x/2 to even x.  Iteration
    stops at 1 or after ``max_iters`` recorded values.

    Odd iterates of n >= _BLOCK_FLOOR + 64 (128) bits advance a block at a
    time: the next steps depend only on the low bits (Terras 1976), so a
    block is simulated on the low min(_BLOCK_BITS, n - 64) bits (at most
    1,024), mostly by lookups in the residue table (see ``_block``), and
    applied to the big integer with one multiply-add-shift.  Smaller
    iterates take one exact step each, as do even ones and an odd one
    whose first multiplicity its window cannot decide.  The digits wait in
    a queue and are decided _BATCH (4,096) iterates at a time in one pass
    (see ``_decide``), each from a certified log band, or where the band
    touches a boundary exactly: a block iterate's from its own block,
    counted in ``n_refined``, a small iterate's from itself.
    """
    if mode not in MODES:
        raise DomainError(f"mode must be one of {MODES}")
    x = int(x0)
    if x < 2:
        raise DomainError("x0 must be >= 2")
    base = _check_digit_base(base)
    if max_iters < 1:
        raise DomainError("max_iters must be >= 1")
    counts = np.zeros(base - 1, dtype=np.int64)
    counts[leading_digit(x, base) - 1] += 1
    n_rec = 1
    single = mode == "single_step"
    n_refined = 0
    queue, tail = [], []    # waiting blocks and small exact iterates
    n_queued = 0
    while x != 1 and n_rec < max_iters:
        room = max_iters - n_rec
        w = min(_BLOCK_BITS, x.bit_length() - 64)
        if x & 1 and w >= _BLOCK_FLOOR and \
                (block := _block(low := x & ((1 << w) - 1), w, room))[0]:
            ks, _, e = block
            n = min(len(ks) + e, room) if single else len(ks)
            queue.append((x, low, block, n))
            # x moves to the block's end even when max_iters cuts the block
            # short: the run then stops, and x, of over 64 bits, is not 1
            x = _block_iterate(x, low, block, len(ks), e)
            n_rec += n
            n_queued += n
        else:
            # one exact step: small or even x, or a multiplicity past the
            # low bits; an even seed loses all its twos in its first step
            if single:
                x = 3 * x + 1 if x & 1 else x >> 1
            else:
                u = 3 * x + 1 if x & 1 else x
                x = u >> ((u & -u).bit_length() - 1)
            n_rec += 1
            # decided at once, not queued: in single steps a seed such as
            # 2**N * odd would otherwise hold up to _BATCH huge ints
            if x.bit_length() >= _BLOCK_FLOOR + 64:
                counts[leading_digit(x, base) - 1] += 1
                continue
            tail.append(x)
            n_queued += 1
        if n_queued >= _BATCH:
            n_refined += _decide(queue, tail, single, base, counts)
            queue, tail, n_queued = [], [], 0
    if n_queued:
        n_refined += _decide(queue, tail, single, base, counts)
    return IterateDigitResult(mode, base, DigitHistogram(base, counts),
                              n_rec, x == 1, n_refined)
