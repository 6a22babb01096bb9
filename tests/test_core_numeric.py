import math
from bisect import bisect_right
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
            digits, certified = cn.digits_from_log(np.array(f),
                                                   np.array(band), base)
            assert np.array_equal(digits[certified], exact[certified])
            assert [cn.leading_digit(x, base) for x in xs] == exact.tolist()
            n_certified += int(certified.sum())
            n_open += int((~certified).sum())
        assert n_certified > 0 and n_open > 0


    def test_cells_match_the_full_bound_table(self):
        # the bounds are computed per candidate digit; every decision must
        # be the one a table of all log(d)/log(B), d = 1..B, gives
        for base in range(2, 65):
            lb = math.log(base)
            table = [math.log(d) / lb for d in range(1, base + 1)]
            fs = [0.0, 5e-324, math.nextafter(1.0, 0.0)]
            for t in table[:-1]:
                lo = hi = t
                for _ in range(3):
                    fs += [lo, hi]
                    lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, 1.0)
            fs = [f for f in fs if 0.0 <= f < 1.0]
            for pad in (0.0, 2e-16, 1e-10):
                want_d, want_ok = [], []
                for f in fs:
                    d = bisect_right(table, f)
                    ok = f - table[d - 1] > pad and table[d] - f > pad
                    want_d.append(d)
                    want_ok.append(ok)
                    assert cn._certified_digit(f, pad, base) == \
                        (d if ok else 0)
                digits, certified = cn.digits_from_log(np.array(fs), pad,
                                                       base)
                assert digits.tolist() == want_d
                assert certified.tolist() == want_ok

    @pytest.mark.parametrize("base", [10 ** 6, 2 ** 40])
    def test_large_base_needs_no_table(self, base):
        xs = [12345, base - 1, base, base + 1, 7 * base ** 5 - 1,
              7 * base ** 5, (base - 1) * base ** 3 + base ** 2, 3 ** 300]
        for x in xs:
            e, a, b = cn._exact_floor_log(x, base)
            assert cn.leading_digit(x, base) == a // b
            m = cn.mantissa(x, base)
            assert (int(m.significand), m.exponent) == (a // b, e)


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
    def test_mul_add_small(self):
        assert cn.mul_add_small(7, 3, 1) == 22
        assert cn.mul_add_small(1, 5, 1) == 6
        with pytest.raises(cn.DomainError):
            cn.mul_add_small(0, 3, -1)

    def test_mul_add_huge_negative_result(self, default_int_str_limit):
        # 5,000 digits: past the int-to-str limit of the message
        with pytest.raises(cn.DomainError):
            cn.mul_add_small(1, 3, -10 ** 5000)

    def test_mul_add_casting_out_nines(self):
        x = cn.random_bignat(100_000, 10, make_rng(17))
        y = cn.mul_add_small(x, 3, 1)
        assert y % 9 == (3 * (x % 9) + 1) % 9
        assert y == 3 * x + 1

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

    def test_digits_to_int_matches_str(self):
        rng = make_rng(5)
        digits = rng.integers(0, 10, size=2000)
        digits[0] = 3
        assert cn.digits_to_int(digits, 10) == int("".join(map(str, digits)))
