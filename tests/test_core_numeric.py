import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from benford_lab import collatz as cz
from benford_lab import core_numeric as cn

from conftest import make_rng


class TestMantissa:
    def test_decimal_shift(self):
        m = cn.mantissa(1230, 10)
        assert m.exponent == 3
        assert abs(m.significand - 1.23) < 1e-12

    def test_zero(self):
        assert cn.mantissa(0, 10).significand == 0.0
        assert cn.mantissa(0.0, 7).significand == 0.0

    def test_base2_fraction(self):
        m = cn.mantissa(0.04, 2)
        assert m.exponent == -5
        assert abs(m.significand - 1.28) < 1e-12
        assert abs(m.significand * 2.0 ** -5 - 0.04) < 1e-14

    def test_negative_uses_magnitude(self):
        assert cn.mantissa(-1230, 10) == cn.mantissa(1230, 10)

    def test_rejects_bad_inputs(self):
        with pytest.raises(cn.DomainError):
            cn.mantissa(float("inf"), 10)
        with pytest.raises(cn.DomainError):
            cn.mantissa(1.0, 1.0)
        with pytest.raises(cn.DomainError):
            cn.mantissa(1.0, 0.5)

    @given(st.floats(min_value=1e-300, max_value=1e300),
           st.sampled_from([2, 3, 10, 16, 2.5, math.e]))
    def test_round_trip(self, x, base):
        m = cn.mantissa(x, base)
        assert 1.0 <= m.significand < float(base)
        assert abs(m.value() - x) <= 1e-12 * x

    @given(st.integers(min_value=1, max_value=10 ** 40),
           st.sampled_from([2, 3, 10, 16]))
    def test_int_round_trip(self, x, base):
        m = cn.mantissa(x, base)
        assert 1.0 <= m.significand < base
        assert abs(m.value() - x) <= 1e-11 * x

    def test_exact_power_exponent(self):
        m = cn.mantissa(10 ** 50, 10)
        assert m.exponent == 50 and abs(m.significand - 1.0) < 1e-12
        m = cn.mantissa(10 ** 50 - 1, 10)
        assert m.exponent == 49


class TestLeadingDigit:
    def test_examples(self):
        assert cn.leading_digit(1230, 10) == 1
        assert cn.leading_digit(7, 4) == 1
        assert cn.leading_digit(2 ** 100, 10) == 1  # 1.2676e30

    def test_exact_decimal_expansion_oracle(self):
        assert str(2 ** 100)[0] == "1"
        rng = make_rng(8)
        for _ in range(300):
            nd = int(rng.integers(1, 80))
            v = cn.random_bignat(nd, 10, rng)
            assert cn.leading_digit(v, 10) == int(str(v)[0])

    def test_power_boundaries(self):
        assert cn.leading_digit(10 ** 500, 10) == 1
        assert cn.leading_digit(10 ** 500 - 1, 10) == 9
        assert cn.leading_digit(2 ** 3000, 2) == 1

    @pytest.mark.parametrize("base", [*range(2, 17), 255, 256, 257, 1000,
                                      65536])
    def test_every_int_below_the_base_is_its_own_digit(self, base):
        # the bracket decides these, and the exact path where it touches a
        # boundary (x = 1 always does: its log is 0)
        assert [cn.leading_digit(x, base) for x in range(1, base)] \
            == list(range(1, base))

    def test_zero_rejected(self):
        with pytest.raises(cn.DomainError):
            cn.leading_digit(0, 10)

    def test_float_inputs(self):
        assert cn.leading_digit(0.0456, 10) == 4
        assert cn.leading_digit(-7.2, 8) == 7

    def test_float_one_ulp_below_a_power(self):
        x = math.nextafter(0.001, 0.0)
        assert cn.leading_digit(x, 10) == 9
        m = cn.mantissa(x, 10)
        assert (int(m.significand), m.exponent) == (9, -4)
        assert cn.leading_digit(math.nextafter(49.0, 0.0), 7) == 6

    def test_floats_at_digit_boundaries_against_exact_oracle(self):
        # x = float(d * B**e) and both of its one-ulp neighbours: digit and
        # exponent must be those of the float's exact binary value
        wrong = []
        for base in (3, 7, 10, 12):
            for e in range(-280, 281):
                power = Fraction(base) ** e
                for d in range(1, base):
                    c = float(d * power)
                    for x in (math.nextafter(c, 0.0), c,
                              math.nextafter(c, math.inf)):
                        q = Fraction(x)
                        k, a, b = cn._exact_floor_log(q.numerator, base,
                                                      q.denominator)
                        m = cn.mantissa(x, base)
                        got = (cn.leading_digit(x, base),
                               int(m.significand), m.exponent)
                        if got != (a // b, a // b, k):
                            wrong.append((x, base, got, (a // b, k)))
        assert wrong == []

    def test_fraction_inputs(self):
        assert cn.leading_digit(Fraction("2.99999999999999999"), 10) == 2
        assert cn.leading_digit(Fraction(-1, 3 ** 40), 3) == 1
        assert cn.mantissa(Fraction(10 ** 30 - 1, 10 ** 60), 10).exponent \
            == -31

    @given(st.integers(min_value=1, max_value=10 ** 60),
           st.sampled_from([2, 3, 8, 10, 16]))
    def test_digit_log_window(self, x, base):
        d = cn.leading_digit(x, base)
        f = cn.log_mantissa(x, base)
        lb = math.log(base)
        in_window = math.log(d) / lb - 1e-9 <= f < math.log(d + 1) / lb + 1e-9
        # fractions within one ulp of the 0/1 seam may sit on either side
        wrapped = (d == base - 1 and f < 1e-9) or (d == 1 and f > 1.0 - 1e-9)
        assert in_window or wrapped


def integer_leading_digit(x, base):
    while x >= base:
        x //= base
    return x


def exact_bound_table(base):
    """The bounds log_base(d), d = 1..base, to 40 digits, each split as a
    float ``hi`` and the float ``lo`` nearest the remainder."""
    hi, lo = [], []
    with mpmath.workdps(40):
        lb = mpmath.log(base)
        for d in range(1, base + 1):
            bound = mpmath.log(d) / lb
            hi.append(float(bound))
            lo.append(float(bound - hi[-1]))
    return np.array(hi), np.array(lo)


def exact_cells(f, hi, lo):
    """For floats f in [0, 1): the digit d of base**f, from the bound
    table, and the distance from f to the nearer bound of its cell."""
    d = np.searchsorted(hi, f, side="right")
    d -= (hi[d - 1] == f) & (lo[d - 1] > 0.0)  # the bound lies above f
    dist = np.minimum((f - hi[d - 1]) - lo[d - 1], (hi[d] - f) + lo[d])
    return d, dist


class TestDigitsFromLog:
    def test_never_certifies_a_wrong_digit_at_boundaries(self):
        n_certified = n_open = 0
        for base in range(2, 17):
            # either side of each boundary d*B^k, plus mid-cell controls
            xs = [d * base ** k + delta
                  for k in (0, 1, 5, 17, 40, 120)
                  for d in range(1, base)
                  for delta in (-1, 0, 1, base ** k // 2)
                  if d * base ** k + delta >= 1]
            exact = np.array([integer_leading_digit(x, base) for x in xs])
            f, band = [], []
            for x in xs:
                v, margin = cn._log_parts(x, base)
                f.append(v - math.floor(v))
                band.append(margin + 5e-16)
            digits = cn.digits_from_log(np.array(f), np.array(band), base)
            certified = digits > 0
            assert np.array_equal(digits[certified], exact[certified])
            assert [cn.leading_digit(x, base) for x in xs] == exact.tolist()
            n_certified += int(certified.sum())
            n_open += int((~certified).sum())
        assert n_certified > 0 and n_open > 0

    def test_ints_either_side_of_2_63(self):
        # numpy reads such a list as float64; the values and the tail bands
        # read the ints
        xs = [2 ** 63, 5, 2 ** 64 - 1, 2 ** 63 - 1]
        assert cn._log_values(xs, 10).tolist() \
            == [cn._log_parts(x, 10)[0] for x in xs]
        none = np.array([], dtype=np.int64)
        f, band = cz._batch_logs((), xs, none, none, none, 10)
        brackets = [cn._log_bracket(x, 1, 10) for x in xs]
        assert f.tolist() == [v - math.floor(v) for v, _ in brackets]
        assert band.tolist() == [pad for _, pad in brackets]


    def test_cells_match_the_full_bound_table(self):
        # f at every float bound log(d)/log(B) and 1-3 ulps either side, at
        # 4e-14 and 1e-10 + 4e-14 either side (where the rule must certify)
        # and mid-cell; the oracle is the full table of 40-digit bounds
        for base in [*range(2, 65), 255, 256, 257, 1000, 65536]:
            hi, lo = exact_bound_table(base)
            t = np.log(np.arange(1, base)) / math.log(base)
            fs = [t, (t + np.append(t[1:], 1.0)) / 2,
                  np.array([0.0, 5e-324, math.nextafter(1.0, 0.0)])]
            for step in (4e-14, 1e-10 + 4e-14):
                fs += [t - step, t + step]
            up = down = t
            for _ in range(3):
                up, down = np.nextafter(up, 1.0), np.nextafter(down, 0.0)
                fs += [up, down]
            f = np.concatenate(fs)
            f = f[(f >= 0.0) & (f < 1.0)]
            exact, dist = exact_cells(f, hi, lo)
            for pad in (0.0, 2e-16, 1e-10, math.inf):
                scalar = scalar_digits(f, pad, base)
                digits = cn.digits_from_log(f, pad, base)
                # both spellings give the same digit or the same 0
                assert np.array_equal(digits, scalar), (base, pad)
                # a certified digit is exact across the whole band, and a
                # band clear of every bound by more than the rounding pads
                # is certified
                must = dist > pad + 3 * cn._EXP_PAD
                assert must.any() == (pad < math.inf)
                ok = scalar != 0
                assert (scalar[ok] == exact[ok]).all(), (base, pad)
                assert (dist[ok] > pad).all(), (base, pad)
                assert ok[must].all(), (base, pad)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 2 ** 16), st.data())
    def test_rule_against_mpmath(self, base, data):
        # f mid-cell, or within a few rounding pads of a digit boundary
        d = data.draw(st.integers(1, base - 1))
        offset = data.draw(st.sampled_from([0.0, 1e-16, 1e-15, 1e-14, 3e-14,
                                            1e-10, 1e-6]))
        f = data.draw(st.one_of(
            st.floats(0.0, 1.0, exclude_max=True),
            st.floats(-offset, offset).map(
                lambda x: math.log(d) / math.log(base) + x))
            .filter(lambda x: 0.0 <= x < 1.0))
        pad = data.draw(st.one_of(st.sampled_from([0.0, 2e-16, 1e-10,
                                                   math.inf]),
                                  st.floats(0.0, 1e-6)))
        with mpmath.workdps(40):
            b = mpmath.mpf(base)
            cell = int(mpmath.floor(b ** f))
            dist = min(mpmath.mpf(f) - mpmath.log(cell, b),
                       mpmath.log(cell + 1, b) - f)
            ends = [int(mpmath.floor(b ** (mpmath.mpf(f) + s * pad)))
                    for s in (-1, 1)] if pad < math.inf else [0, 0]
        got = cn._certified_digit(f, pad, base)
        assert cn.digits_from_log(np.array([f]), pad, base).tolist() == [got]
        assert not got or ends == [got, got] == [cell, cell]
        assert got or dist <= pad + 3 * cn._EXP_PAD

    def test_no_certificate_outside_the_unit_interval(self):
        # B**f has agreeing floors here, but f is no fractional log
        for base in (2, 10):
            f = [-0.5, -1e-9, 1.0, 1.5]
            assert [cn._certified_digit(x, 0.0, base) for x in f] == [0] * 4
            assert not cn.digits_from_log(np.array(f), 0.0, base).any()

    @pytest.mark.parametrize("base", [10 ** 400, 2 ** 1100])
    def test_integer_base_beyond_the_float_range(self, base):
        # B**f leaves the float range for f > 709 / ln B: no certificate
        # there, so the exact path decides
        xs = [5 * 10 ** 799, 12345, base - 1, base + 1, 3 * base ** 2 + 7,
              (base // 3) * base, base ** 3 - 1, 2 ** 3000 + 1]
        for x in xs:
            e, a, b = cn._exact_floor_log(x, base)
            assert cn.leading_digit(x, base) == a // b
        f = np.array([0.001, 0.5, 0.99, 1.0 - 1e-9])
        digits = cn.digits_from_log(f, 0.0, base)
        # B**0.001 is 10**0.4 or 2**1.1; the other ends overflow
        assert digits.tolist() == [2, 0, 0, 0]
        assert np.array_equal(digits, scalar_digits(f, 0.0, base))
        # the float-valued functions refuse such a base instead of
        # overflowing in float(base)
        for fn in (cn.mantissa, cn.log_mantissa):
            with pytest.raises(cn.DomainError):
                fn(5 * 10 ** 799, base)

    @pytest.mark.parametrize("base", [10 ** 6, 2 ** 40])
    def test_large_base_needs_no_table(self, base):
        xs = [12345, base - 1, base, base + 1, 7 * base ** 5 - 1,
              7 * base ** 5, (base - 1) * base ** 3 + base ** 2, 3 ** 300]
        for x in xs:
            e, a, b = cn._exact_floor_log(x, base)
            assert cn.leading_digit(x, base) == a // b
            m = cn.mantissa(x, base)
            assert (int(m.significand), m.exponent) == (a // b, e)

    @pytest.mark.parametrize("base", [2, 3, 10, 16, 1000, 65536, 10 ** 400,
                                      2 ** 1100],
                             ids=lambda b: f"{b}" if b < 2 ** 53 else
                             f"{b.bit_length()}-bit")
    def test_array_rule_is_the_scalar_rule(self, base):
        # digits are _certified_digit's, entry for entry, zeros included:
        # on random f, at and beside the digit bounds, outside [0, 1) and
        # nan, with bands from 0 to infinity
        rng = make_rng(5)
        lb = math.log(base)
        t = np.log(np.arange(1, min(base, 4096))) / lb
        f = np.concatenate([
            rng.random(4000), t, np.nextafter(t, 1.0), np.nextafter(t, 0.0),
            t - 5e-14, t + 5e-14,
            [0.0, 5e-324, math.nextafter(1.0, 0.0), 1.0, -0.25, math.nan]])
        bands = [0.0, 2e-16, 1e-13, 1e-10, 1e-4, math.inf,
                 rng.random(f.size) * 1e-9,
                 np.where(rng.random(f.size) < 0.1, math.inf, 1e-15)]
        for band in bands:
            digits = cn.digits_from_log(f, band, base)
            assert np.array_equal(digits, scalar_digits(f, band, base))
            assert digits.dtype == np.int64
        # f and band broadcast against each other either way round
        for f0, band in ((0.5, np.array([0.0, 1e-10, math.inf])),
                         (np.array([0.2, math.nan]), 1e-12)):
            digits = cn.digits_from_log(f0, band, base)
            want = scalar_digits(f0, band, base)
            assert digits.shape == want.shape == (np.size(f0 + band),)
            assert np.array_equal(digits, want)


def scalar_digits(f, band, base):
    """``_certified_digit`` at each entry of ``f`` and ``band`` broadcast
    together: the oracle of ``digits_from_log``."""
    f, band = np.broadcast_arrays(np.asarray(f, dtype=np.float64), band)
    return np.array([cn._certified_digit(x, p, base)
                     for x, p in zip(f.ravel().tolist(),
                                     band.ravel().tolist())],
                    dtype=np.int64).reshape(f.shape)


def per_element_log_values(xs, base):
    """``_log_values`` one Python int at a time: the oracle of its int64
    path."""
    vals = [int(x) for x in xs]
    n = np.fromiter(map(int.bit_length, vals), np.int64, len(vals))
    shift = n - np.minimum(n, cn._TOP_BITS)
    for i in np.flatnonzero(shift).tolist():
        vals[i] >>= int(shift[i])
    lb = math.log(base)
    return shift * (cn._LN2 / lb) \
        + np.fromiter(map(math.log, vals), np.float64, len(vals)) / lb


# 2**k - 1, 2**k and 2**k + 1 where the top bits are cut (2**50), where a
# float stops holding every int (2**53) and near the int64 top
POWER_EDGES = [2 ** k + d for k in (50, 53, 62) for d in (-1, 0, 1)] \
    + [1, 2, 3, 2 ** 63 - 1]


class TestLogValues:
    @given(st.lists(st.integers(1, 63).flatmap(
               lambda b: st.integers(2 ** (b - 1), 2 ** b - 1)),
               min_size=1, max_size=40),
           st.sampled_from([2.0, 10, 7, 16, math.e, 65536]))
    @example(POWER_EDGES, 2.0)
    @example(POWER_EDGES, 10)
    @settings(max_examples=200, deadline=None)
    def test_int64_path_is_the_per_element_path(self, xs, base):
        v = cn._log_values(np.array(xs, dtype=np.int64), base)
        assert v.tolist() == per_element_log_values(xs, base).tolist()
        # the object path too, and each value is _log_parts's
        ov = cn._log_values(np.array(xs, dtype=object), base)
        assert ov.tolist() == v.tolist()
        assert v.tolist() == [cn._log_parts(x, base)[0] for x in xs]

    def test_random_census_values(self):
        xs = make_rng(23).integers(1, 2 ** 63 - 1, 20_000, dtype=np.int64) \
            >> make_rng(24).integers(0, 63, 20_000)
        xs = np.maximum(xs, 1)
        v = cn._log_values(xs, 2.0)
        assert v.tolist() == per_element_log_values(xs.tolist(), 2.0).tolist()


class TestExactFloorLog:
    @given(st.integers(1, 2 ** 200), st.integers(1, 2 ** 200),
           st.integers(2, 16))
    @example(3 ** 48 + 1, 10 * 3 ** 48, 10)  # just above 1/10, 77-bit den
    def test_rational_against_fraction(self, num, den, base):
        e, a, b = cn._exact_floor_log(num, base, den)
        q = Fraction(num, den) / Fraction(base) ** e
        assert Fraction(a, b) == q and 1 <= q < base


class TestLogMantissa:
    def test_examples(self):
        assert cn.log_mantissa(10, 10) == 0.0
        assert abs(cn.log_mantissa(2, 10) - 0.30102999566398) < 1e-12

    def test_scale_invariance(self):
        for x in (7, 123456, 3.75):
            a = cn.log_mantissa(x, 10)
            b = cn.log_mantissa(x * 10, 10)
            assert abs(a - b) < 1e-12

    def test_big_integer_against_high_precision(self):
        rng = make_rng(3)
        for nd in (500, 5000):
            x = cn.random_bignat(nd, 10, rng)
            got = cn.log_mantissa(x, 10)
            with mpmath.workdps(nd + 60):
                ref = float(mpmath.frac(mpmath.log(mpmath.mpf(x), 10)))
            assert abs(got - ref) < 1e-12

    def test_zero_rejected(self):
        with pytest.raises(cn.DomainError):
            cn.log_mantissa(0, 10)


class TestExactArithmetic:
    def test_shift_out_factor(self):
        assert cn.shift_out_factor(22, 2) == (11, 1)
        assert cn.shift_out_factor(48, 2) == (3, 4)
        assert cn.shift_out_factor(52, 2) == (13, 2)  # 3*17+1
        assert cn.shift_out_factor(45, 3) == (5, 2)
        with pytest.raises(cn.DomainError):
            cn.shift_out_factor(0, 2)

    @given(st.integers(min_value=1, max_value=10 ** 30),
           st.sampled_from([2, 3, 5, 7, 10]))
    def test_shift_out_factor_reconstructs(self, x, d):
        y, k = cn.shift_out_factor(x, d)
        assert y * d ** k == x
        assert y % d != 0


class TestRandomBignat:
    def test_length_contract(self):
        assert 1 <= cn.random_bignat(1, 10, make_rng(1)) <= 9
        x = cn.random_bignat(100_000, 10, make_rng(2))
        assert len(str(x)) == 100_000

    def test_determinism(self):
        a = cn.random_bignat(512, 10, make_rng(7))
        b = cn.random_bignat(512, 10, make_rng(7))
        assert a == b

    @given(st.integers(min_value=1, max_value=200),
           st.sampled_from([2, 5, 10, 16]))
    @settings(max_examples=30)
    def test_general_base_digit_count(self, nd, base):
        x = cn.random_bignat(nd, base, make_rng(nd))
        digits = []
        v = x
        while v:
            digits.append(v % base)
            v //= base
        assert len(digits) == nd
        assert 1 <= digits[-1] < base

    def test_base_up_to_2_63(self):
        # the digits are int64 draws: 2**63 is the largest base they reach
        base = 2 ** 63
        x = cn.random_bignat(5, base, make_rng(4))
        assert base ** 4 <= x < base ** 5
        assert cn.random_bignat(5, base, make_rng(4)) == x
        for base in (2 ** 63 + 1, 2 ** 64 + 1):
            with pytest.raises(cn.DomainError):
                cn.random_bignat(5, base, make_rng(4))

    def test_digits_to_int_matches_str(self):
        rng = make_rng(5)
        digits = rng.integers(0, 10, size=2000)
        digits[0] = 3
        assert cn.digits_to_int(digits, 10) == int("".join(map(str, digits)))

    @given(st.integers(2, 65536), st.integers(1, 9), st.integers(-1, 1),
           st.data())
    @example(10, 1, -1, None)   # 17 digits: one chunk, zero-padded
    @example(65536, 3, 1, None)
    @settings(max_examples=150, deadline=None)
    def test_digits_to_int_is_horner(self, base, chunks, offset, data):
        # lengths around multiples of the chunk size, which sets where the
        # pairwise combination pads and how many levels it takes
        k = max(1, int(62 // math.log2(base)))
        n = max(1, chunks * k + offset)
        if data is None:
            digits = [base - 1] * n
        else:
            digits = data.draw(st.lists(st.integers(0, base - 1),
                                        min_size=n, max_size=n))
        horner = 0
        for d in digits:
            horner = horner * base + d
        assert cn.digits_to_int(digits, base) == horner

    @pytest.mark.parametrize("base", [2 ** 62, 2 ** 63, 2 ** 64 + 1,
                                      10 ** 30])
    def test_digits_to_int_past_int64(self, base):
        # a digit of a base past 2**62 may not fit in int64
        for n in (1, 2, 3, 7, 64):
            digits = ([base - 1, 0, 1, base // 3, base // 2, 5] * 11)[:n]
            horner = 0
            for d in digits:
                horner = horner * base + d
            assert cn.digits_to_int(digits, base) == horner
        with pytest.raises(cn.DomainError):
            cn.digits_to_int([1, base], base)

    def test_digits_to_int_many_levels(self):
        digits = make_rng(6).integers(0, 7, 5_000)
        horner = 0
        for d in digits.tolist():
            horner = horner * 7 + d
        assert cn.digits_to_int(digits, 7) == horner


ZETA_ROW = "%.6f,%.10f,%.12e,%.12e,%.12e,%.12e,%d,%.3e"
CUE_ROW = "4,%.12f,%.12e,%.12e"
FLOAT_SPECS = ["%.6f", "%.10f", "%.12f", "%.12e", "%.3e"]

# ties, decade carries, signed zeros, non-finite values, subnormals, the
# ends of the fast e range and three-digit exponents
SPECIAL_FLOATS = [
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
    5e-324, 2.2250738585072014e-308, 1e-300, 1e300, 1e-290, 1e290,
    1e-200, 1e200, 1.7976931348623157e308, 1234567890123.5,
    1234567890124.5, 9.9999999999995, 9.99999999999951, 9.99999999999949,
    99.99999999999999, 999.9999999999999, 1000.0, 0.001, 0.1, 0.5, 2.5,
    0.0000005, 0.0000015, 0.00000049, -1e-9, -4e-7, -5e-7, -4.9e-7,
    9007.199254740991, 9007.2, 1e15, 2.0 ** 53, 1e16, 1e22,
    123456789.123456789, 6.283185307179586]


def printf_text(row_format, columns):
    return "\n".join(row_format % row for row in
                     zip(*(np.asarray(c).tolist() for c in columns)))


def blocks_text(row_format, columns):
    rows = list(cn._csv_blocks(row_format, columns))
    assert all(len(row) == 1 for row in rows)
    return "\n".join(row[0] for row in rows)


class TestCsvBlocks:
    """Every row ``_csv_blocks`` yields is ``row_format % row`` byte for
    byte."""

    @pytest.mark.parametrize("spec", FLOAT_SPECS)
    def test_special_floats(self, spec):
        x = np.array(SPECIAL_FLOATS + [-v for v in SPECIAL_FLOATS])
        assert blocks_text(spec, [x]) == printf_text(spec, [x])

    def test_exact_ties_take_the_fallback_half_even(self):
        x = np.array([1234567890123.5, 1234567890124.5])
        assert blocks_text("%.12e", [x]) == \
            "1.234567890124e+12\n1.234567890124e+12"

    def test_round_up_across_a_decade(self):
        x = np.array([9.99999999999951, 0.0999999999999996])
        assert blocks_text("%.12e", [x]) == \
            "1.000000000000e+01\n1.000000000000e-01"

    def test_negative_values_round_to_negative_zero(self):
        x = np.array([-1e-9, -4e-7, -0.0])
        assert blocks_text("%.6f", [x]) == \
            "-0.000000\n-0.000000\n-0.000000"

    def test_ints(self):
        x = np.concatenate([np.arange(-120, 121), [2 ** 53 - 1, -2 ** 53 + 1,
                            2 ** 53, 2 ** 63 - 1, -2 ** 63]]).astype(np.int64)
        assert blocks_text("%d", [x]) == printf_text("%d", [x])

    @pytest.mark.parametrize("spec", FLOAT_SPECS)
    def test_random_magnitudes(self, spec):
        rng = make_rng(41)
        n = 20_000
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-305, 305, n)
        y = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 17, n)
        # decimal near-ties: k + 1/2 units of the last printed digit
        z = (rng.integers(0, 10 ** 13, n) + 0.5) / 10.0 ** rng.integers(
            0, 16, n)
        for v in (x, y, z):
            assert blocks_text(spec, [v]) == printf_text(spec, [v])

    @given(st.lists(st.floats(width=64), min_size=1, max_size=40),
           st.sampled_from(FLOAT_SPECS))
    @settings(max_examples=300)
    def test_any_float(self, values, spec):
        x = np.array(values)
        assert blocks_text(spec, [x]) == printf_text(spec, [x])

    @given(st.integers(0, 10 ** 15), st.integers(0, 18),
           st.sampled_from(FLOAT_SPECS), st.booleans())
    @settings(max_examples=300)
    def test_decimal_half_units(self, k, shift, spec, negative):
        x = np.array([(k + 0.5) / 10.0 ** shift * (-1 if negative else 1)])
        assert blocks_text(spec, [x]) == printf_text(spec, [x])

    @given(st.lists(st.tuples(st.floats(width=64), st.floats(width=64),
                              st.floats(width=64), st.floats(width=64),
                              st.integers(-10 ** 6, 10 ** 6),
                              st.floats(width=64)),
                    min_size=1, max_size=20))
    @settings(max_examples=100)
    def test_caller_row_formats(self, rows):
        t, sigma, re, im, digit, err = (np.array(c) for c in zip(*rows))
        zeta_cols = (t, sigma, re, im, np.abs(re), im, digit, err)
        assert blocks_text(ZETA_ROW, zeta_cols) == \
            printf_text(ZETA_ROW, zeta_cols)
        assert blocks_text(CUE_ROW, (t, re, im)) == \
            printf_text(CUE_ROW, (t, re, im))

    def test_caller_rows_across_blocks(self):
        rng = make_rng(43)
        n = 2 * cn._CSV_BLOCK + 5  # a partial last block
        cols = (np.arange(n) * 0.25, np.full(n, 0.5),
                rng.standard_normal(n), rng.standard_normal(n),
                rng.random(n) * 3, np.log(rng.random(n)),
                rng.integers(1, 10, n), rng.random(n) * 1e-10)
        assert len(list(cn._csv_blocks(ZETA_ROW, cols))) == 3
        assert blocks_text(ZETA_ROW, cols) == printf_text(ZETA_ROW, cols)
        cue = (rng.random(n) * 2 * math.pi, cols[5], cols[5] / 0.7)
        assert blocks_text(CUE_ROW, cue) == printf_text(CUE_ROW, cue)

    def test_zero_rows(self):
        assert list(cn._csv_blocks(ZETA_ROW, [np.empty(0)] * 8)) == []

    @pytest.mark.parametrize("row_format", ["%f", "%.3g", "%.0f", "%.15e",
                                            "%.012e", "100%%,%d", "%d,%d"])
    def test_unsupported_formats_are_refused(self, row_format):
        with pytest.raises(ValueError):
            list(cn._csv_blocks(row_format, [np.arange(3)]))

    def test_power_table_is_exact(self):
        for row, k in zip(cn._pow10_dd(), range(cn._POW10_K[0],
                                                cn._POW10_K[1] + 1)):
            hh, hl, hi, lo = row
            assert hh + hl == hi
            assert hi == float(Fraction(10) ** k)
            assert lo == float(Fraction(10) ** k - Fraction(hi))
