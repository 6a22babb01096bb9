import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benford_lab import benford_stats as bs
from benford_lab import equidist as eq
from benford_lab.core_numeric import DomainError


def series_log(n: int, dps: int = 60) -> Fraction:
    """ln(n) for n in {2, 5, 10} from integer-only atanh series.

    atanh(x) = sum x^(2k+1)/(2k+1); ln 2 = 2 atanh(1/3), ln 5 = 2 atanh(2/3).
    Independent of mpmath: exact Fraction partial sums with a tail bound.
    """
    def atanh_frac(x: Fraction) -> Fraction:
        total = Fraction(0)
        k = 0
        term = x
        eps = Fraction(1, 10 ** (dps + 5))
        while term / (2 * k + 1) > eps:
            total += term / (2 * k + 1)
            k += 1
            term *= x * x
        return total

    ln2 = 2 * atanh_frac(Fraction(1, 3))
    if n == 2:
        return ln2
    ln5 = 2 * atanh_frac(Fraction(2, 3))
    if n == 5:
        return ln5
    if n == 10:
        return ln2 + ln5
    raise ValueError(n)


def test_high_precision_log_against_series_oracle():
    got = eq.log_ratio(2, 10, dps=200)
    ref = series_log(2) / series_log(10)
    with mpmath.workdps(220):
        assert abs(got - mpmath.mpf(ref.numerator) / ref.denominator) \
            < mpmath.mpf(10) ** -55


class TestKAlpha:
    def test_half(self):
        assert np.allclose(eq.kalpha_points(0.5, 4), [0.5, 0.0, 0.5, 0.0])

    def test_log10_2_first_points(self):
        pts = eq.kalpha_points(math.log10(2), 3)
        assert np.allclose(pts, [0.30103, 0.60206, 0.90309], atol=1e-5)

    def test_high_precision_tail(self):
        alpha = eq.log_ratio(2, 10)
        pts = eq.kalpha_points(alpha, 100_000)
        with mpmath.workdps(40):
            c = mpmath.log(2) / mpmath.log(10)
            for k in (1, 777, 54321, 99999):
                ref = float(mpmath.frac(k * c))
                assert abs(pts[k - 1] - ref) < 1e-13

    def test_equidistribution_at_1e5(self):
        pts = eq.kalpha_points(eq.log_ratio(2, 10), 10 ** 5)
        assert bs.star_discrepancy(pts) < 0.01

    @given(st.integers(1, 97), st.integers(2, 97))
    @settings(max_examples=40)
    def test_rational_orbit_size(self, p, q):
        alpha = Fraction(p, q)
        pts = eq.kalpha_points(alpha, 3 * alpha.denominator)
        assert len(set(pts.tolist())) == alpha.denominator

    def test_interval_count(self):
        alpha = eq.log_ratio(2, 10)
        cnt, expect = eq.interval_count(alpha, 10 ** 4, 5, 0.25, 0.75)
        assert abs(cnt - expect) < (10 ** 4) ** 0.9

    def test_point_count_is_bounded_for_every_alpha(self):
        for alpha in (Fraction(1, 3), eq.log_ratio(2, 10), 0.25):
            with pytest.raises(DomainError):
                eq.kalpha_points(alpha, 2 ** 27)

    def test_rational_offsets_stay_exact(self):
        # the bound is on the point count; k mod q keeps far blocks exact
        cnt, expect = eq.interval_count(Fraction(1, 3), 3, 10 ** 12, 0.0,
                                        0.5)
        assert (cnt, expect) == (2, 1.5)


class TestContinuedFraction:
    def test_log10_2_convergents(self):
        convs = eq.continued_fraction(eq.log_ratio(2, 10), 12)
        for pair in [(1, 3), (3, 10), (28, 93), (59, 196)]:
            assert pair in convs

    def test_two_precisions_agree(self):
        a = eq.continued_fraction(eq.log_ratio(2, 10, dps=500), 40, dps=500)
        b = eq.continued_fraction(eq.log_ratio(2, 10, dps=750), 40, dps=750)
        assert a == b

    def test_golden_ratio_fibonacci(self):
        with mpmath.workdps(80):
            golden = (mpmath.sqrt(5) + 1) / 2
            convs = eq.continued_fraction(golden, 10, dps=60)
        fib = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
        assert all(p == fib[i + 1] and q == fib[i]
                   for i, (p, q) in enumerate(convs))

    def test_convergent_quality(self):
        convs = eq.continued_fraction(eq.log_ratio(2, 10), 20)
        with mpmath.workdps(520):
            a = mpmath.log(2) / mpmath.log(10)
            for p, q in convs:
                assert abs(a - mpmath.mpf(p) / q) < mpmath.mpf(1) / (q * q)

    def test_rational_rejected(self):
        with pytest.raises(DomainError):
            eq.continued_fraction(Fraction(3, 7), 5)

    def test_depth_beyond_certification_errors(self):
        with pytest.raises(eq.PrecisionError):
            eq.continued_fraction(0.5 + 1e-9, 40)


class TestTypeProbe:
    def test_sqrt2_is_type_one(self):
        with mpmath.workdps(220):
            probe = eq.type_probe(mpmath.sqrt(2), 25,
                                  (0.5, 0.8, 0.9, 0.95, 1.0, 1.25), dps=200)
        assert probe.empirical_type is not None
        assert 0.85 <= probe.empirical_type <= 1.0
        assert probe.slopes[1.25] > eq._SLOPE_TREND  # diverges above type

    def test_log10_2_gamma_half_tends_to_zero(self):
        probe = eq.type_probe(eq.log_ratio(2, 10), 20, (0.5,))
        vals = probe.quality[0.5]
        assert vals[-1] < 0.05 * vals[0]

    def test_rational_rejected(self):
        with pytest.raises(DomainError):
            eq.type_probe(Fraction(1, 3), 5, (0.5,))

    def test_quality_below_the_float_range_keeps_a_finite_slope(self):
        # alpha = [0; A, A, ...] with A = 10^200: q passes 10^800 by the
        # fifth convergent, and q^1.5 |alpha - p/q| ~ q^0.5 / q' underflows
        # the float from the third on; its log comes from mpmath
        big = 10 ** 200
        with mpmath.workdps(3000):
            alpha = mpmath.mpf(0)
            for _ in range(12):
                alpha = 1 / (big + alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            probe = eq.type_probe(alpha, 5, (0.5, 1.0), dps=2500)
        assert probe.convergents[-1][1] > 10 ** 800
        assert probe.quality[0.5][2:] == [0.0, 0.0, 0.0]
        assert all(math.isfinite(s) for s in probe.slopes.values())
        # q_(k+1) = A q_k + q_(k-1): the slope is -1/2 at gamma = 1/2 and
        # 0 at gamma = 1
        assert probe.slopes[0.5] == pytest.approx(-0.5, abs=1e-9)
        assert probe.slopes[1.0] == pytest.approx(0.0, abs=1e-9)

    def test_csv_rows(self):
        probe = eq.type_probe(eq.log_ratio(2, 10), 6, (0.5, 1.0))
        rows = list(probe.to_csv_rows())
        assert rows[0][:2] == ["p", "q"]
        assert len(rows) == 7

    @pytest.mark.parametrize("depth, gammas, outside", [
        # q^(1e300 + 1) |alpha - p/q| overflows from q = 3 on (there
        # 3.309970e+477..., a third of which a float gamma + 1 = 1e300
        # would give), and at gamma = -0.9 the quality leaves the normal
        # range deep in the expansion, while gamma = 0.5 stays inside it
        (6, (1e300, 0.5), 5),
        (400, (-0.9, 0.5), 69),
    ])
    def test_csv_cells_outside_the_float_range(self, depth, gammas,
                                               outside):
        # every cell reads as %.6e of q^(gamma+1) |alpha - p/q| taken at
        # 1,000 digits, with a signed exponent of any width; a cell inside
        # the float's normal range is the float's own %.6e
        alpha = eq.log_ratio(2, 10, 520)
        probe = eq.type_probe(alpha, depth, gammas, dps=500)
        rows = list(probe.to_csv_rows())[1:]
        tiny = np.finfo(float).tiny
        seen = 0
        with mpmath.workdps(1000):
            for (p, q), row in zip(probe.convergents, rows):
                err = abs(mpmath.mpf(alpha) - mpmath.mpf(p) / q)
                for g, cell in zip(gammas, row[2:]):
                    v = mpmath.mpf(q) ** (mpmath.mpf(g) + 1) * err
                    if tiny <= float(v) < math.inf:
                        assert cell == f"{float(v):.6e}"
                        continue
                    seen += 1
                    e = int(mpmath.floor(mpmath.log10(v)))
                    m = round(v / mpmath.mpf(10) ** e, 6)
                    if m >= 10:
                        e, m = e + 1, m / 10
                    assert cell == f"{float(m):.6f}e{e:+03d}", (p, q, g)
        assert seen == outside


class TestThetaIdentity:
    @pytest.mark.parametrize("sigma", [0.1, 0.5, 1.0, 2.0, 10.0, 50.0])
    def test_residual_below_1e12(self, sigma):
        assert eq.theta_identity_residual(sigma) < 1e-12

    def test_sigma_positive(self):
        with pytest.raises(DomainError):
            eq.theta_identity_residual(0.0)

    @given(st.floats(0.05, 60.0))
    @settings(max_examples=30, deadline=None)
    def test_residual_small_everywhere(self, sigma):
        assert eq.theta_identity_residual(sigma) < 1e-11


class TestGaussianSpread:
    def test_total_mass(self):
        assert abs(eq.gaussian_mod1_mass(5.0, 0.0, 1.0) - 1.0) < 1e-6

    def test_spread_matches_closed_form(self):
        # Poisson-summation closed form is 0.5 to far more digits
        assert abs(eq.gaussian_mod1_mass(20.0, 0.2, 0.7) - 0.5) < 1e-8

    def test_large_scale_equidistributes(self):
        for a, b in ((0.0, 0.3), (0.3, 0.7), (0.2, 0.9)):
            assert abs(eq.gaussian_mod1_mass(10.0, a, b) - (b - a)) < 1e-8

    def test_small_scale_does_not_equidistribute(self):
        # mass concentrates at 0; an asymmetric interval exposes it
        assert abs(eq.gaussian_mod1_mass(0.1, 0.0, 0.3) - 0.3) > 0.15

    def test_interval_validation(self):
        with pytest.raises(DomainError):
            eq.gaussian_mod1_mass(1.0, 0.7, 0.2)


class TestConditions:
    def test_char_decay_at_one(self):
        s1 = eq.condition_char_decay(1.0)
        lead = 2.0 * math.exp(-2.0 * math.pi ** 2)
        assert abs(s1 - lead) < 0.01 * lead
        assert s1 < 1e-8

    def test_char_decay_huge_scale_underflows_to_zero(self):
        assert eq.condition_char_decay(10.0) == 0.0

    def test_char_decay_monotone(self):
        # below ~1.4 the sum is above the 1e-18 truncation floor
        for t in (0.2, 0.35, 0.5):
            assert eq.condition_char_decay(2 * t) < eq.condition_char_decay(t)
