"""Exact natural-number arithmetic and certified base-B digit extraction.

Arbitrary-precision nonnegative integers are plain Python ``int``s (exact by
construction); the alias :data:`BigNat` marks the places where a value must be
such an integer.  On top of that substrate this module provides the mantissa
decomposition ``x = s * B**k`` with ``s`` in ``[1, B)``, leading-digit and
fractional-log extraction in an arbitrary base ``B > 1``, and the exact map
primitive :func:`shift_out_factor`, which ``collatz.step`` calls.

Digit extraction never trusts a bare floating-point logarithm.  Every real
input is an exact ratio ``num/den`` of integers (a float is its binary value
``m * 2**q``; a Fraction, e.g. parsed decimal text, is itself).  The fast
path brackets ``log_B(num/den)`` from the bit lengths plus the top 50 bits,
carrying a rigorous rounding-error margin.  One monotone rule decides a
digit from a fractional log ``f`` and such a margin: ``B**g`` increases with
``g``, so the digit is certified when ``floor(B**g)`` agrees at both ends of
the padded band around ``f``, and is that common floor.  The rule is stated
once and spelled twice, :func:`_certified_digit` for one value and
:func:`digits_from_log` for arrays, with one contract: both return 0 where
the band is not certified (it comes within the pad of a digit boundary or
of an integer exponent).  Here such a digit is recomputed with exact
integer comparisons against powers of B; array callers decide their zeros
themselves.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from numbers import Integral
from typing import Union

import numpy as np

__all__ = [
    "BigNat",
    "DomainError",
    "PrecisionError",
    "Mantissa",
    "mantissa",
    "leading_digit",
    "digits_from_log",
    "log_mantissa",
    "shift_out_factor",
    "random_bignat",
    "digits_to_int",
]

BigNat = int

Real = Union[int, Fraction, float]

_LN2 = math.log(2.0)
_TOP_BITS = 50


class DomainError(ValueError):
    """An argument lies outside the domain of the requested operation."""


class PrecisionError(ValueError):
    """Working precision cannot certify the requested output."""


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
    try:
        b = float(base)
    except OverflowError:
        raise DomainError("base must lie in the float range") from None
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


def _log_values(xs, base: float) -> tuple[np.ndarray, np.ndarray]:
    """The value ``_log_parts`` gives for each positive int in ``xs``,
    element for element the same float operations, and the bit lengths.

    An int64 array takes its bit lengths, its shifts to at most _TOP_BITS
    bits and the floats of those top bits in numpy, all exactly (below
    2**53 a float is the int, and ``math.log`` of an int is ``math.log`` of
    its float); other ints take them one at a time.  Either way each top
    goes through ``math.log``, not ``np.log``, whose last ulp can differ."""
    ints, xs = xs, np.asarray(xs)
    if xs.dtype == np.int64:
        # frexp's exponent is the bit length, or one more where the float
        # rounded up to the next power of two
        e = np.frexp(xs.astype(np.float64))[1].astype(np.int64)
        n = e - (xs >> (e - 1) == 0)
        shift = n - np.minimum(n, _TOP_BITS)
        tops = (xs >> shift).astype(np.float64).tolist()
    else:
        # numpy reads a list of ints on both sides of 2**63 as float64
        tops = np.asarray(ints, dtype=object).tolist()
        n = np.fromiter(map(int.bit_length, tops), np.int64, len(tops))
        shift = n - np.minimum(n, _TOP_BITS)
        for i in np.flatnonzero(shift).tolist():
            tops[i] >>= int(shift[i])
    lb = math.log(base)
    v = shift * (_LN2 / lb) \
        + np.fromiter(map(math.log, tops), np.float64, len(tops)) / lb
    return v, n


def _log_brackets(xs, base: float) -> tuple[np.ndarray, np.ndarray]:
    """``_log_bracket(x, 1, base)`` of each positive int in ``xs``, element
    for element the same float operations."""
    v, n = _log_values(xs, base)
    w = np.minimum(n, _TOP_BITS)
    margin = (np.abs(v) + (n - w) + 16.0) * 2.5e-16 \
        + np.ldexp(1.0, 1 - w) / math.log(base)
    return v, margin + 5e-16


# B**g increases with g, so floor(B**g) is one digit on a whole band of g
# exactly when it agrees at both ends.  The ends are evaluated as
# exp(fl(g * fl(ln B))) = B**g * (1 + eps), |eps| <= ln B * 2.2e-16 + the
# error of exp (numpy's AVX-512 float64 exp measured at most 1.07 ulp
# against 40-digit mpmath on 4,000 points in [-0.5, 11.2]; glibc's is under
# 1 ulp).  In g that is at most 2.2e-16 + 2.4e-16/ln 2, and the rounding of
# f +- p adds about 1.1e-16: about 7e-16 in all, so this pad leaves more
# than a 10x margin.  Equal floors d < 2**53 then put the whole true band
# inside [log_B d, log_B(d + 1)); for d >= 2**53 the band spans more than
# 64 ulps of B**g, so its ends never agree there.
_EXP_PAD = 1e-14


def _certified_digit(f: float, pad: float, base: int) -> int:
    """The digit d with every value within ``pad`` of ``f`` strictly inside
    ``[log_base d, log_base(d+1))``, or 0 when a boundary is that close.

    With ``p = pad + _EXP_PAD``, the digit is certified when
    ``p < f < 1 - p`` and ``floor(exp((f - p) ln B))`` equals
    ``floor(exp((f + p) ln B))``; it is that common floor.  An end past the
    float range certifies nothing, so the exact path decides.
    """
    p = pad + _EXP_PAD
    if not p < f < 1.0 - p:
        return 0
    lb = math.log(base)
    try:
        d = math.floor(math.exp((f - p) * lb))
        return d if d == math.floor(math.exp((f + p) * lb)) else 0
    except OverflowError:
        return 0


def _ratio_digit(num: int, den: int, base: int) -> int:
    """Leading digit of ``num/den`` for positive ints: the bracket's digit
    when certified, else the exact integer decision."""
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
    """Leading digits from fractional logs ``f = log_base(x) mod 1``, with
    the mask ``digits > 0``: each entry is :func:`_certified_digit` of its
    ``f`` and ``band``, the common floor of ``exp((f -+ p) ln B)`` for
    ``p = band + _EXP_PAD``, or 0 where the band is not certified (nan
    included) and the caller decides.  ``f`` and ``band`` broadcast.
    """
    f = np.asarray(f, dtype=np.float64)
    p = band + _EXP_PAD
    lb = math.log(base)
    with np.errstate(over="ignore"):
        lo, hi = (np.floor(np.exp(g * lb)) for g in (f - p, f + p))
    certified = (p < f) & (f < 1.0 - p) & (lo == hi) & (hi < np.inf)
    return np.where(certified, lo, 0.0).astype(np.int64), certified


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
    import mpmath   # at first use, so that importing this module loads none

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

    Digits are gathered into int64 chunk values of k digits each (at a base
    past 2**62, each digit is a Python int on its own), which are then
    combined pairwise, level by level: each level doubles the width of a
    value and squares its radix b**k, so the large multiplies are few and
    balanced, where a Horner pass over the chunks costs time quadratic in
    the length.  This avoids CPython's int<->str digit limit.
    """
    b = _check_digit_base(base)
    k = int(62 // math.log2(b))  # digits per chunk; 0 past 2**62
    arr = np.asarray(digits, dtype=np.int64 if k else object)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("digits must be a nonempty 1-D sequence")
    if arr.min() < 0 or arr.max() >= b:
        raise DomainError(f"digits must lie in [0, {b})")
    if k:
        pad = (-arr.size) % k
        if pad:
            arr = np.concatenate([np.zeros(pad, dtype=np.int64), arr])
        chunks = arr.reshape(-1, k)
        vals = np.zeros(len(chunks), dtype=np.int64)
        for j in range(k):
            vals = vals * b + chunks[:, j]
        vals = vals.tolist()
    else:
        # a digit may not fit in int64: each one is its own chunk
        vals, k = [int(d) for d in arr.tolist()], 1
    p = b ** k
    while len(vals) > 1:
        if len(vals) % 2:
            vals.insert(0, 0)   # a leading zero chunk keeps the pairs aligned
        vals = [hi * p + lo for hi, lo in zip(vals[::2], vals[1::2])]
        p *= p
    return vals[0]


def random_bignat(num_digits: int, base: int, rng: np.random.Generator) -> BigNat:
    """Random integer with exactly ``num_digits`` digits in ``base``.

    The leading digit is uniform on [1, base); the rest uniform on [0, base).
    Deterministic given the generator state.  The digits are numpy int64
    draws, so the base is at most 2**63.
    """
    if num_digits < 1:
        raise DomainError("num_digits must be >= 1")
    b = _check_digit_base(base)
    if b > 2 ** 63:
        raise DomainError(f"base must be <= 2**63 for random digits, got {b}")
    first = int(rng.integers(1, b))
    if num_digits == 1:
        return first
    rest = rng.integers(0, b, size=num_digits - 1)
    return digits_to_int(np.concatenate([[first], rest]), b)


# ------------------------------------------------------------- CSV rows --

_CSV_BLOCK = 4096  # rows assembled in one byte matrix
# %d, %.Nf and %.Ne; N <= 14 keeps a rounded e significand below 2**53
_SPEC = r"%(?:\.([1-9]|1[0-4])([fe])|(d))"
_TIE_MARGIN = 1e-7  # a scaled value this close to a half-integer falls back
_E_RANGE = (1e-290, 1e290)  # |x| read by the fast e path: no split overflows
_POW10_K = (-290, 304)  # 10**k for k = precision - exponent on that range
_EXP_OFFSET = 300


@lru_cache(maxsize=None)
def _digit_tables() -> tuple:
    """Built at first use, so importing the module stays cheap: the ASCII
    digit pairs 00..99 as uint16s, the int64 powers 10**1..10**18, and the
    exponent suffixes printf writes (``+05``, ``-300``) for -300..300,
    0-padded on the left to 4 bytes."""
    pairs = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(),
                          dtype=np.uint16)
    exponents = "".join(f"{e:+03d}".rjust(4, "\0")
                        for e in range(-_EXP_OFFSET, _EXP_OFFSET + 1))
    return (pairs, 10 ** np.arange(1, 19, dtype=np.int64),
            np.frombuffer(exponents.encode(), dtype=np.uint8).reshape(-1, 4))


@lru_cache(maxsize=None)
def _pow10_dd() -> np.ndarray:
    """Rows ``(hh, hl, hi, lo)`` for k on ``_POW10_K``: ``hi + lo`` is
    ``10**k`` as a double-double (``hi`` the nearest float, ``lo`` the
    nearest float to the rest), and ``hi = hh + hl`` is split into halves
    of 26 significant bits, as Veltkamp's split would, for Dekker's
    product.  Built at first use from exact integer ratios, each rounded
    once by Python's correctly rounded int division."""
    rows = []
    for k in range(_POW10_K[0], _POW10_K[1] + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        hi = num / den
        h_num, h_den = hi.as_integer_ratio()
        m, e = math.frexp(hi)
        hh = math.ldexp(round(math.ldexp(m, 26)), e - 26)
        rows.append((hh, hi - hh, hi,
                     (num * h_den - h_num * den) / (den * h_den)))
    return np.array(rows)


def _scaled_round(a, k):
    """``a * 10**k`` for floats ``a >= 0``, as its floor ``ip`` (a float),
    whether it rounds half-even up from there, and whether that rounding is
    certified: the computed fractional part lies more than ``_TIE_MARGIN``
    from 1/2.

    Dekker's two-product gives ``a * hi`` exactly as ``p + err``; with
    ``a * lo`` the remaining error is below 2**-105 of the product.  Where
    ``ip < 2**53`` the fractional part is therefore off by less than 1e-15
    (a few roundings of terms below 3), far inside the margin.
    """
    hh, hl, hi, lo = _pow10_dd()[np.asarray(k) - _POW10_K[0]].T
    p = a * hi
    c = a * 134217729.0  # 2**27 + 1 splits a into 26-bit halves
    ah = c - (c - a)
    al = a - ah
    err = al * hl - (((p - ah * hh) - al * hh) - ah * hl) + a * lo
    fp = np.floor(p)
    r = (p - fp) + err
    fr = np.floor(r)
    frac = r - fr
    return fp + fr, frac > 0.5, np.abs(frac - 0.5) > _TIE_MARGIN


def _digit_bytes(v, width: int) -> np.ndarray:
    """ASCII digits of the int64s ``0 <= v < 10**width``, '0'-padded to
    ``width`` columns, two at a time through a lookup of digit pairs."""
    table = _digit_tables()[0]
    pairs = (width + 1) // 2
    out = np.empty((v.size, pairs), dtype=np.uint16)
    for j in range(pairs - 1, -1, -1):
        q = v // 100
        out[:, j] = table[v - q * 100]
        v = q
    return out.view(np.uint8)[:, 2 * pairs - width:]


def _n_digits(v):
    return 1 + np.searchsorted(_digit_tables()[1], v, side="right")


def _signed_int_bytes(v, neg, width: int) -> np.ndarray:
    """``[-]digits`` of the int64s ``0 <= v < 10**width`` right-aligned in
    ``width + 1`` columns, with 0 bytes to the left."""
    out = np.zeros((v.size, width + 1), dtype=np.uint8)
    out[:, 1:] = _digit_bytes(v, width)
    start = (width + 1 - _n_digits(v))[:, None]
    col = np.arange(width + 1)
    out[col < start] = 0
    out[(col == start - 1) & neg[:, None]] = ord("-")
    return out


def _d_field(x, _):
    if x.dtype.kind not in "iu":
        return np.zeros((x.size, 0), dtype=np.uint8), np.zeros(x.size, bool)
    ok = (x > -2 ** 53) & (x < 2 ** 53)
    v = np.where(ok, np.abs(x), 0).astype(np.int64)
    return _signed_int_bytes(v, x < 0, int(_n_digits(v.max()))), ok


def _f_field(x, n: int):
    a = np.abs(x, dtype=np.float64)
    ok = a <= _E_RANGE[1]  # false at nan
    ip, up, ok_round = _scaled_round(np.where(ok, a, 0.0), n)
    ok &= ok_round & (ip < 2.0 ** 53)
    whole, part = np.divmod(np.where(ok, ip + up, 0.0).astype(np.int64),
                            10 ** n)
    width = int(_n_digits(whole.max()))
    out = np.empty((x.size, width + 2 + n), dtype=np.uint8)
    out[:, :width + 1] = _signed_int_bytes(whole, np.signbit(x), width)
    out[:, width + 1] = ord(".")
    out[:, width + 2:] = _digit_bytes(part, n)
    return out, ok


def _e_field(x, n: int):
    a = np.abs(x, dtype=np.float64)
    ok = (a >= _E_RANGE[0]) & (a <= _E_RANGE[1])
    a = np.where(ok, a, 1.0)
    # an exponent off by one near a power of ten shows as an ip out of range
    ex = np.floor(np.log10(a)).astype(np.int64)
    ip, up, ok_round = _scaled_round(a, n - ex)
    ok &= ok_round & (ip >= 10.0 ** n) & (ip < 10.0 ** (n + 1))
    sig = np.where(ok, ip + up, 10.0 ** n).astype(np.int64)
    carry = sig == 10 ** (n + 1)  # 9.99...95 rounds up to the next decade
    sig[carry] = 10 ** n
    ex += carry
    out = np.empty((x.size, n + 8), dtype=np.uint8)
    out[:, 0] = np.where(np.signbit(x), ord("-"), 0)
    digits = _digit_bytes(sig, n + 1)
    out[:, 1] = digits[:, 0]
    out[:, 2] = ord(".")
    out[:, 3:n + 3] = digits[:, 1:]
    out[:, n + 3] = ord("e")
    out[:, n + 4:] = _digit_tables()[2][ex + _EXP_OFFSET]
    return out, ok


_FIELDS = {"d": _d_field, "f": _f_field, "e": _e_field}


def _csv_blocks(row_format: str, columns):
    """CSV rows of the equal-length numpy ``columns``, each
    ``row_format % row`` byte for byte, where ``row_format`` holds literal
    text and the specs ``%d``, ``%.Nf`` and ``%.Ne`` (1 <= N <= 14).  Yields
    one-field rows, each holding the newline-joined lines of up to
    ``_CSV_BLOCK`` rows, so a writer of comma-joined rows emits them
    unchanged.

    Fields are formatted in numpy.  A float field scales ``|x|`` by
    ``10**k`` (k = N for ``%f``; N minus the decimal exponent for ``%e``)
    as a double-double product, whose fractional part is within 1e-15 of
    the exact one.  Rounding half-even from it is certified, and equals the
    correctly rounded printf result, wherever that part lies more than
    ``_TIE_MARGIN`` from 1/2.  A row falls back to ``row_format % row``
    when any field is uncertified: a tie or near-tie, nan, +-inf, an
    integer part of 2**53 or more, ``%e`` of |x| outside [1e-290, 1e290]
    (zero included), or an exponent guess off near a power of ten.
    Digits come from a table of digit pairs; each block is assembled in a
    0-padded byte matrix, and dropping the 0 bytes leaves the text.
    """
    cols = [np.asarray(c) for c in columns]
    specs = list(re.finditer(_SPEC, row_format))
    ends = [0] + [s.end() for s in specs]
    literals = [row_format[e:s.start()] for e, s in zip(ends, specs)]
    literals.append(row_format[ends[-1]:] + "\n")
    if len(specs) != len(cols) or any("%" in t for t in literals):
        raise ValueError(f"unsupported row format {row_format!r}")
    fields = [(_FIELDS[s[2] or s[3]], int(s[1] or 0)) for s in specs]
    literals = [np.frombuffer(t.encode("ascii"), dtype=np.uint8)
                for t in literals]
    for lo in range(0, cols[0].size, _CSV_BLOCK):
        block = [c[lo:lo + _CSV_BLOCK] for c in cols]
        rows = block[0].size
        ok = np.ones(rows, dtype=bool)
        pieces = []
        for text, (field, n), c in zip(literals, fields, block):
            out, field_ok = field(c, n)
            pieces += [np.broadcast_to(text, (rows, text.size)), out]
            ok &= field_ok
        pieces.append(np.broadcast_to(literals[-1], (rows, literals[-1].size)))
        text = np.concatenate(pieces, axis=1).tobytes().replace(b"\0", b"")
        text = text.decode("ascii")
        if not ok.all():
            lines = text.split("\n")
            for i in np.flatnonzero(~ok).tolist():
                lines[i] = row_format % tuple(c[i].item() for c in block)
            text = "\n".join(lines)
        yield [text[:-1]]
