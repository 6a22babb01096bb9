"""Exact natural-number arithmetic and certified base-B digit extraction.

Arbitrary-precision nonnegative integers are plain Python ``int``s (exact by
construction); the alias :data:`BigNat` marks the places where a value must be
such an integer.  On top of that substrate this module provides the mantissa
decomposition ``x = s * B**k`` with ``s`` in ``[1, B)``, leading-digit and
fractional-log extraction in an arbitrary base ``B > 1``, and two exact
map primitives: :func:`shift_out_factor`, which ``collatz.step`` calls, and
:func:`mul_add_small`, kept for direct use (no experiment calls it; the
censuses and trajectories do their multiply-adds in their own loops).

Digit extraction never trusts a bare floating-point logarithm.  Every real
input is an exact ratio ``num/den`` of integers (a float is its binary value
``m * 2**q``; a Fraction, e.g. parsed decimal text, is itself).  The fast
path brackets ``log_B(num/den)`` from the bit lengths plus the top 50 bits,
carrying a rigorous rounding-error margin; whenever the bracket comes within
that margin of a digit boundary (or of an integer exponent) the answer is
recomputed with exact integer comparisons against powers of B.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from numbers import Integral
from typing import Union

import mpmath
import numpy as np

__all__ = [
    "BigNat",
    "DomainError",
    "Mantissa",
    "mantissa",
    "leading_digit",
    "digits_from_log",
    "log_mantissa",
    "mul_add_small",
    "shift_out_factor",
    "random_bignat",
    "digits_to_int",
]

BigNat = int

Real = Union[int, Fraction, float]

_LN2 = math.log(2.0)
_TOP_BITS = 50
_CSV_BLOCK = 1024  # CSV rows formatted by one printf-style %


class DomainError(ValueError):
    """An argument lies outside the domain of the requested operation."""


@dataclass(frozen=True)
class Mantissa:
    """Decomposition ``value = significand * base**exponent``.

    ``significand`` lies in ``[1, base)``, or is exactly ``0.0`` when the
    input was zero (in which case ``exponent`` is 0).
    """

    significand: float
    exponent: int
    base: float

    def value(self) -> float:
        return self.significand * self.base ** self.exponent


def _check_base(base) -> float:
    b = float(base)
    if not math.isfinite(b) or b <= 1.0:
        raise DomainError(f"base must be a finite real > 1, got {base!r}")
    return b


def _check_digit_base(base) -> int:
    # type(...) is int first: the ABC check costs about a microsecond
    if not (type(base) is int or isinstance(base, Integral)) or base < 2:
        raise DomainError(f"digit base must be an integer >= 2, got {base!r}")
    return int(base)


def _log_parts(x: int, base: float) -> tuple[float, float]:
    """log_base(x) for a positive int, with a rigorous absolute error margin.

    Uses only the bit length and the top ``_TOP_BITS`` bits, so the cost is
    O(1) beyond the shift.  The margin accounts for the dropped low bits and
    for every rounding step (a few ulps each).
    """
    n = x.bit_length()
    w = min(n, _TOP_BITS)
    top = x >> (n - w)
    lb = math.log(base)
    v = (n - w) * (_LN2 / lb) + math.log(top) / lb
    margin = (abs(v) + (n - w) + 16.0) * 2.5e-16 + 2.0 ** (1 - w) / lb
    return v, margin


def _exact_floor_log(num: int, base: int, den: int = 1
                     ) -> tuple[int, int, int]:
    """Exact ``e = floor(log_base(num/den))`` for positive integers, by
    integer comparison only.

    Also returns integers ``(a, b)`` with ``a/b = num / (den * base**e)`` in
    ``[1, base)``: ``a // b`` is the leading digit and ``a / b`` the correctly
    rounded significand.  For ``e < 0`` the power of the base multiplies
    ``num`` instead of ``den``, so no float ever enters a comparison.
    """
    # lower bound from the bit lengths; the loops below correct it exactly
    e = math.floor((num.bit_length() - den.bit_length() - 1)
                   * _LN2 / math.log(base))
    a, b = (num, den * base ** e) if e >= 0 else (num * base ** -e, den)
    while a < b:
        e -= 1
        if e >= 0:
            b //= base
        else:
            a *= base
    while a >= b * base:
        e += 1
        if e > 0:
            b *= base
        else:
            a //= base
    return e, a, b


def _ratio(x: Real) -> tuple[int, int]:
    """``|x|`` as an exact ratio ``num / den`` of ints with ``den >= 1``.

    Ints and Fractions are taken as they are; anything else is read as a
    float, whose binary value is itself an exact (dyadic) rational.
    """
    if type(x) is int or isinstance(x, Integral):
        return abs(int(x)), 1
    if not isinstance(x, Fraction):
        xf = float(x)
        if not math.isfinite(xf):
            raise DomainError(f"x must be finite, got {x!r}")
        x = Fraction(xf)
    return abs(x.numerator), x.denominator


def _log_bracket(num: int, den: int, base: float) -> tuple[float, float]:
    """``log_base(num/den)`` for positive ints and a pad: the true value
    lies strictly within ``pad`` of the returned float."""
    v, margin = _log_parts(num, base)
    if den != 1:
        w, den_margin = _log_parts(den, base)
        v, margin = v - w, margin + den_margin
    return v, margin + 5e-16


@lru_cache(maxsize=4096)
def _cell_bounds(d: int, base: int) -> tuple[float, float]:
    """The bounds ``log_base d`` and ``log_base(d + 1)`` of the digit-d cell,
    as the floats ``math.log(d) / math.log(base)``."""
    lb = math.log(base)
    return math.log(d) / lb, math.log(d + 1) / lb


def _digit_cell(f: float, base: int) -> tuple[int, float, float]:
    """The digit d with ``log_base d <= f < log_base(d + 1)``, kept within
    [1, base - 1], and those two bounds: a float guess, then a walk to the
    cell that the bounds themselves give.  Only the bounds of the digits
    visited are computed, so the cost does not grow with the base."""
    d = int(base ** f)
    if d < 1:
        d = 1
    elif d > base - 1:
        d = base - 1
    lo, hi = _cell_bounds(d, base)
    while d > 1 and lo > f:
        d -= 1
        lo, hi = _cell_bounds(d, base)
    while d < base - 1 and hi <= f:
        d += 1
        lo, hi = _cell_bounds(d, base)
    return d, lo, hi


def _certified_digit(f: float, pad: float, base: int) -> int:
    """The digit d with every value within ``pad`` of ``f`` strictly inside
    ``[log_base d, log_base(d+1))``, or 0 when a boundary is that close."""
    d, lo, hi = _digit_cell(f, base)
    if f - lo > pad and hi - f > pad:
        return d
    return 0


def _ratio_digit(num: int, den: int, base: int) -> int:
    """Leading digit of ``num/den`` for positive ints: the bracket's digit
    when certified, else the exact integer decision."""
    if den == 1 and num < base:
        return num
    v, pad = _log_bracket(num, den, base)
    d = _certified_digit(v - math.floor(v), pad, base)
    if d:
        return d
    _, a, b = _exact_floor_log(num, base, den)
    return a // b


def leading_digit(x: Real, base: int = 10) -> int:
    """First digit of ``|x|`` written in ``base``: ``floor(M_base(|x|))``.

    Exact for every int, Fraction and float (a float counts as its exact
    binary value): a certified log bracket decides the digit, and an exact
    integer comparison takes over whenever it touches a digit boundary.
    """
    b = _check_digit_base(base)
    num, den = _ratio(x)
    if num == 0:
        raise DomainError("leading digit of 0 is undefined")
    return _ratio_digit(num, den, b)


def digits_from_log(f, band, base: int) -> tuple[np.ndarray, np.ndarray]:
    """Leading digits from fractional logs ``f = log_base(x) mod 1``.

    The digit is d where ``log_base(d) <= f < log_base(d + 1)``.  It is
    certified only where every value within ``band`` of ``f`` lies strictly
    inside that same cell; callers re-derive uncertified digits some other
    way.  ``f`` and ``band`` broadcast against each other.  The cell bounds
    are the floats ``math.log(d) / math.log(base)``, computed only for the
    candidate digits, so the cost does not grow with the base.
    """
    f = np.asarray(f, dtype=np.float64)
    flat = f.ravel()
    # a float guess (fmin/fmax send nan to base - 1), then the bounds of
    # each candidate cell, computed once per distinct digit
    guess = np.floor(np.exp(flat * math.log(base)))
    d = np.fmax(np.fmin(guess, base - 1), 1).astype(np.int64)
    keys = sorted(set(d.tolist()))
    lo, hi = np.array([_cell_bounds(k, base) for k in keys]).reshape(-1, 2)[
        np.searchsorted(keys, d)].T
    # a guess off its cell (f within rounding of a boundary) walks there
    off = ((lo > flat) & (d > 1)) | ((hi <= flat) & (d < base - 1))
    for i in np.flatnonzero(off).tolist():
        d[i], lo[i], hi[i] = _digit_cell(flat[i], base)
    d, lo, hi = (v.reshape(f.shape) for v in (d, lo, hi))
    certified = ((f - lo) > band) & ((hi - f) > band)
    return d, certified


def log_mantissa(x: Real, base) -> float:
    """``log_base|x| mod 1``, accurate to better than 1e-12 absolute.

    Accuracy is in the mod-1 (circle) metric: an input one ulp below a power
    of the base rounds to 0.0, the nearest representative of its fractional
    part.  Ratios with a part over 2,048 bits go through mpmath with ~30
    guard digits so the fractional part survives the large exponent.
    """
    b = _check_base(base)
    num, den = _ratio(x)
    if num == 0:
        raise DomainError("log_mantissa of 0 is undefined")
    if max(num.bit_length(), den.bit_length()) > 2048:
        return _log_mantissa_big(num, den, b)
    v, _ = _log_bracket(num, den, b)
    return v - math.floor(v)


def _log_mantissa_big(num: int, den: int, base: float) -> float:
    # 30 guard digits beyond the size of the integer exponent
    dps = 30 + len(str(max(num.bit_length(), den.bit_length())))
    with mpmath.workdps(dps):
        lb = mpmath.log(base)

        def log_b(x: int):
            n = x.bit_length()
            w = min(n, 4 * _TOP_BITS)
            return (n - w) * mpmath.log(2) / lb + mpmath.log(x >> (n - w)) / lb

        # the cast of a frac just below 1 can round up to 1.0
        return float(mpmath.frac(log_b(num) - log_b(den))) % 1.0


def mantissa(x: Real, base) -> Mantissa:
    """Canonical ``(significand, exponent)`` of ``x`` in ``base``.

    Negative inputs are folded to ``|x|``; zero maps to significand 0.  For
    an integer base the exponent is exact and ``int(significand)`` is the
    leading digit, under the rule of :func:`leading_digit`.
    """
    b = _check_base(base)
    num, den = _ratio(x)
    if num == 0:
        return Mantissa(0.0, 0, b)
    v, pad = _log_bracket(num, den, b)
    k = math.floor(v)
    f = v - k
    if isinstance(base, Integral):
        if _certified_digit(f, pad, int(base)):
            return Mantissa(b ** f, k, b)
        # exact exponent, then the correctly rounded ratio, kept below the
        # next digit: this stays right one ulp from a digit boundary
        k, a, p = _exact_floor_log(num, int(base), den)
        return Mantissa(min(a / p, math.nextafter(a // p + 1, 0.0)), k, b)
    if min(f, 1.0 - f) > pad:
        return Mantissa(b ** f, k, b)
    f = _log_mantissa_big(num, den, b)
    # exponent from the certified total log; ambiguity here means x sits
    # within 1e-25 of an exact power of a non-integer base
    k = math.floor(v - min(f, 1.0) + 0.5)
    return Mantissa(min(max(b ** f, 1.0), math.nextafter(b, 1.0)), k, b)


def mul_add_small(x: BigNat, g: int, h: int) -> BigNat:
    """Exact ``g*x + h`` for nonnegative ``x`` and small ``g >= 2``."""
    if x < 0:
        raise DomainError("x must be nonnegative")
    if g < 2:
        raise DomainError("g must be >= 2")
    y = g * x + h
    if y < 0:
        raise DomainError(
            f"g*x + h is negative (a {y.bit_length()}-bit magnitude)")
    return y


def shift_out_factor(x: BigNat, d: int = 2) -> tuple[BigNat, int]:
    """Split ``x = y * d**k`` with ``d`` not dividing ``y``; returns (y, k)."""
    if d < 2:
        raise DomainError("d must be >= 2")
    if x < 1:
        raise DomainError("x must be >= 1")
    x = int(x)
    if d == 2:
        k = (x & -x).bit_length() - 1
        return x >> k, k
    k = 0
    q, r = divmod(x, d)
    while r == 0:
        x = q
        k += 1
        q, r = divmod(x, d)
    return x, k


def digits_to_int(digits, base: int) -> BigNat:
    """Assemble an integer from most-significant-first digits in ``base``.

    Chunked Horner evaluation; avoids CPython's int<->str digit limit and is
    comfortably fast at 10**5 digits.
    """
    b = _check_digit_base(base)
    arr = np.asarray(digits, dtype=np.int64)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("digits must be a nonempty 1-D sequence")
    if arr.min() < 0 or arr.max() >= b:
        raise DomainError(f"digits must lie in [0, {b})")
    k = max(1, int(62 // math.log2(b)))
    pad = (-arr.size) % k
    if pad:
        arr = np.concatenate([np.zeros(pad, dtype=np.int64), arr])
    chunks = arr.reshape(-1, k)
    vals = np.zeros(len(chunks), dtype=np.int64)
    for j in range(k):
        vals = vals * b + chunks[:, j]
    big = 0
    p = b ** k
    for v in vals.tolist():
        big = big * p + v
    return big


def random_bignat(num_digits: int, base: int, rng: np.random.Generator) -> BigNat:
    """Random integer with exactly ``num_digits`` digits in ``base``.

    The leading digit is uniform on [1, base); the rest uniform on [0, base).
    Deterministic given the generator state.
    """
    if num_digits < 1:
        raise DomainError("num_digits must be >= 1")
    b = _check_digit_base(base)
    first = int(rng.integers(1, b))
    if num_digits == 1:
        return first
    rest = rng.integers(0, b, size=num_digits - 1)
    return digits_to_int(np.concatenate([[first], rest]), b)


def _csv_blocks(row_format: str, columns):
    """CSV rows of the equal-length numpy ``columns``, formatted
    ``_CSV_BLOCK`` rows at a time by one printf-style ``%`` (which formats
    a float as an f-string with the same spec does).  Yields one-field
    rows, each holding the newline-joined lines of one block, so a writer
    of comma-joined rows emits them unchanged."""
    cols = [c.tolist() for c in columns]
    for lo in range(0, len(cols[0]), _CSV_BLOCK):
        block = list(zip(*(c[lo:lo + _CSV_BLOCK] for c in cols)))
        yield ["\n".join([row_format] * len(block))
               % tuple(itertools.chain.from_iterable(block))]
