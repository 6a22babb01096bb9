import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from benford_lab import benford_stats as bs

from conftest import make_rng


class TestBenfordProbability:
    def test_leading_values(self):
        assert abs(bs.benford_probability(1, 10) - 0.301029995) < 1e-9
        assert abs(bs.benford_probability(9, 10) - 0.0457574906) < 1e-9

    def test_sums_to_one(self):
        for base in range(2, 65):
            assert abs(bs.benford_probabilities(base).sum() - 1.0) < 1e-12

    def test_range_check(self):
        with pytest.raises(bs.DomainError):
            bs.benford_probability(0, 10)
        with pytest.raises(bs.DomainError):
            bs.benford_probability(10, 10)


class TestHistogram:
    def test_counts_and_total(self):
        h = bs.DigitHistogram.from_digits([1, 1, 2, 9], 10)
        assert h.total == 4
        assert h.counts[0] == 2 and h.counts[8] == 1

    def test_out_of_range_digits_rejected(self):
        for bad in ([1, 10], [0, 3], [4, -1]):
            with pytest.raises(bs.DomainError):
                bs.DigitHistogram.from_digits(bad, 10)

    def test_from_values(self):
        h = bs.DigitHistogram.from_values(
            [123, 0.05, 2 ** 100, 9e9, math.nextafter(0.001, 0.0)], 10)
        assert h.total == 5 and h.counts[0] == 2 and h.counts[8] == 2

    @given(st.lists(st.integers(1, 9), min_size=0, max_size=40),
           st.lists(st.integers(1, 9), min_size=0, max_size=40),
           st.lists(st.integers(1, 9), min_size=0, max_size=40))
    def test_merge_associative_commutative(self, a, b, c):
        ha, hb, hc = (bs.DigitHistogram.from_digits(x, 10) for x in (a, b, c))
        m1 = (ha + hb) + hc
        m2 = ha + (hb + hc)
        m3 = hc + (ha + hb)
        assert np.array_equal(m1.counts, m2.counts)
        assert np.array_equal(m1.counts, m3.counts)

    def test_base_mismatch(self):
        with pytest.raises(bs.DomainError):
            bs.DigitHistogram.empty(10) + bs.DigitHistogram.empty(8)


class TestChiSquare:
    def test_near_proportional_counts_vanish(self):
        n = 10 ** 7
        counts = np.round(n * bs.benford_probabilities(10)).astype(int)
        h = bs.DigitHistogram(10, counts)
        stat, dof = bs.chi_square(h)
        assert dof == 8
        assert stat < 0.01

    def test_critical_values(self):
        # alpha = .05 and .01 gates at 8 dof
        assert abs(sstats.chi2.ppf(0.95, 8) - 15.51) < 0.01
        assert abs(sstats.chi2.ppf(0.99, 8) - 20.09) < 0.01

    def test_empty_rejected(self):
        with pytest.raises(bs.DomainError):
            bs.chi_square(bs.DigitHistogram.empty(10))


class TestZStatistics:
    def test_reported_digit_one_case(self):
        # observed frequency 0.3021 over 799,992 samples gives z near 2.00
        total = 799_992
        counts = np.round(total * np.array(
            [0.3021, 0.1752, 0.1242, 0.0967, 0.0792, 0.0671, 0.0582,
             0.0513, 0.0460])).astype(int)
        h = bs.DigitHistogram(10, counts)
        report = bs.z_statistics(h)
        z1 = report.per_digit[0][3]
        assert abs(z1 - 2.00) < 0.15
        assert report.dof == 8
        assert abs(sum(r[1] for r in report.per_digit) - 1.0) < 1e-9

    def test_scaling_with_total(self):
        counts = np.array([30, 18, 12, 10, 8, 7, 6, 5, 4])
        z1 = bs.z_statistics(bs.DigitHistogram(10, counts)).per_digit[0][3]
        z2 = bs.z_statistics(bs.DigitHistogram(10, 2 * counts)).per_digit[0][3]
        assert abs(z2 / z1 - math.sqrt(2)) < 1e-9

    def test_verdict_matches_scipy_stats_away_from_the_quantile(self):
        rng = make_rng(3)
        for base in range(2, 65):
            dof = base - 2
            crit = float(sstats.chi2.ppf(0.95, dof))
            probs = bs.benford_probabilities(base)
            # Benford draws (mostly accepted) and near-uniform draws
            for p in (probs, 0.5 * probs + 0.5 / (base - 1)):
                counts = rng.multinomial(2_000, p / p.sum())
                report = bs.z_statistics(bs.DigitHistogram(base, counts))
                # base 2 has no degree of freedom and always matches
                if dof == 0:
                    assert report.verdict_alpha05
                elif abs(report.chi_square - crit) > 1e-12 * crit:
                    assert report.verdict_alpha05 == (
                        report.chi_square < crit)

    @pytest.mark.parametrize("dof", [1, 2, 8, 14, 254, 65534])
    def test_verdict_at_the_quantile_matches_exact_cdf(self, dof,
                                                       monkeypatch):
        # P(dof/2, stat/2) < 0.95 in 50-digit mpmath, against the exact
        # value of the float 0.95, decides stat = crit * (1 -+ 1e-9)
        crit = float(sstats.chi2.ppf(0.95, dof))
        hist = bs.DigitHistogram(dof + 2, np.ones(dof + 1, dtype=np.int64))
        verdicts = []
        for stat in (crit * (1 - 1e-9), crit * (1 + 1e-9)):
            monkeypatch.setattr(bs, "chi_square", lambda h: (stat, dof))
            with mpmath.workdps(50):
                want = mpmath.gammainc(mpmath.mpf(dof) / 2, 0,
                                       mpmath.mpf(stat) / 2,
                                       regularized=True) < mpmath.mpf(0.95)
            verdicts.append(bs.z_statistics(hist).verdict_alpha05)
            assert verdicts[-1] == want
        assert verdicts == [True, False]

    def test_report_serialization(self):
        h = bs.DigitHistogram(10, np.array([30, 18, 12, 10, 8, 7, 6, 5, 4]))
        report = bs.z_statistics(h)
        assert "chi_square" in report.to_json()
        assert "z-statistic" in report.to_text_table()


def naive_extreme(pts):
    y = np.sort(np.asarray(pts, float) % 1.0)
    n = len(y)
    best = 0.0
    for i in range(n):
        for j in range(i, n):
            best = max(best, (j - i + 1) / n - (y[j] - y[i]))
    ext = np.concatenate(([0.0], y, [1.0]))
    for i in range(n + 2):
        for j in range(i + 1, n + 2):
            inside = np.sum((y > ext[i]) & (y < ext[j]))
            best = max(best, (ext[j] - ext[i]) - inside / n)
    return best


def naive_star(pts):
    y = np.sort(np.asarray(pts, float) % 1.0)
    n = len(y)
    best = 0.0
    for a in np.concatenate((y, [1.0])):
        best = max(best, abs(a - np.sum(y < a) / n),
                   abs(a - np.sum(y <= a) / n))
    return best


class TestDiscrepancy:
    def test_star_examples(self):
        assert bs.star_discrepancy([0.5]) == 0.5
        assert abs(bs.star_discrepancy([0, 0.25, 0.5, 0.75]) - 0.25) < 1e-15
        assert abs(bs.star_discrepancy(np.arange(64) / 64) - 1 / 64) < 1e-15

    def test_star_random_small(self):
        pts = make_rng(11).random(10 ** 4)
        d = bs.star_discrepancy(pts)
        assert 0.0 < d < 0.05

    def test_extreme_examples(self):
        # a single point has a tight covering interval of mass 1, length -> 0
        assert bs.extreme_discrepancy([0.5]) == 1.0
        assert abs(bs.extreme_discrepancy(np.arange(8) / 8) - 1 / 8) < 1e-15

    @given(st.lists(st.floats(0, 1, exclude_max=True), min_size=1,
                    max_size=24))
    @settings(max_examples=120)
    def test_oracle_agreement(self, pts):
        assert abs(bs.extreme_discrepancy(pts) - naive_extreme(pts)) < 1e-12
        assert abs(bs.star_discrepancy(pts) - naive_star(pts)) < 1e-12

    def test_inequality_chain_on_random_sets(self):
        rng = make_rng(13)
        for _ in range(100):
            pts = rng.random(int(rng.integers(1, 400)))
            star = bs.star_discrepancy(pts)
            ext = bs.extreme_discrepancy(pts)
            assert 0.0 <= star <= ext + 1e-12
            assert ext <= 2 * star + 1e-12
            assert ext <= 2.0

    @given(st.lists(st.floats(0, 1, exclude_max=True), min_size=1,
                    max_size=50),
           st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=80)
    def test_dominates_hand_intervals(self, pts, a, b):
        a, b = min(a, b), max(a, b)
        if a == b:
            return
        y = np.asarray(pts)
        mass = np.mean((y >= a) & (y < b))
        assert bs.extreme_discrepancy(pts) >= abs((b - a) - mass) - 1e-12


class TestErdosTuran:
    def test_degenerate_point_mass(self):
        assert bs.erdos_turan_bound(np.zeros(5), 1) == 6.0

    def test_bounds_discrepancy_on_rotation_orbit(self):
        k = np.arange(1, 10 ** 4 + 1)
        pts = np.mod(k * math.log10(2.0), 1.0)
        bound = bs.erdos_turan_bound(pts, 100)
        assert bound >= bs.extreme_discrepancy(pts)

    def test_nonincreasing_in_m_for_equidistributed_input(self):
        k = np.arange(1, 10 ** 4 + 1)
        pts = np.mod(k * math.log10(2.0), 1.0)
        b10 = bs.erdos_turan_bound(pts, 10)
        b100 = bs.erdos_turan_bound(pts, 100)
        b1000 = bs.erdos_turan_bound(pts, 1000)
        assert b10 >= b100 >= b1000

    def test_bounds_random_sets(self):
        rng = make_rng(29)
        for _ in range(50):
            pts = rng.random(int(rng.integers(2, 300)))
            assert bs.erdos_turan_bound(pts, 40) >= \
                bs.extreme_discrepancy(pts) - 1e-12


def plain_erdos_turan(points, ms):
    """The plain full-array loop: the bound at each m in ``ms``, from the
    running sum of |S_h| / (h N) with S_h = (z**h).sum() and each power
    taken by ``p *= z``."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.size
    z = np.exp(2j * np.pi * pts)
    p = z.copy()
    acc, bounds = 0.0, {}
    for h in range(1, max(ms) + 1):
        acc += abs(p.sum()) / (h * n)
        if h in ms:
            bounds[h] = bs.ERDOS_TURAN_C * (1.0 / h + acc)
        p *= z
    return bounds


class TestErdosTuranKernel:
    """The cache-blocked bound equals the plain loop bit for bit."""

    LEAF = bs._ET_LEAF // 2  # complex points per leaf

    @pytest.mark.parametrize("n", list(range(1, 70)) + [
        127, 128, 129, LEAF - 1, LEAF, LEAF + 1, 2 * LEAF - 1, 2 * LEAF,
        2 * LEAF + 1, 99_999, 100_000, 333_333, 1_000_001])
    def test_equals_the_plain_loop(self, n):
        pts = make_rng(n).random(n)
        # m = 1000 at 10^6 points would cost the oracle alone 4 s
        ms = (1, 2, 7, 100) + ((1000,) if n < 10 ** 6 else ())
        for m, bound in plain_erdos_turan(pts, ms).items():
            assert bs.erdos_turan_bound(pts, m) == bound

    def test_benchmark_reference(self):
        from benford_lab.equidist import kalpha_points, log_ratio
        pts = kalpha_points(log_ratio(2, 10), 10 ** 6)
        assert bs.erdos_turan_bound(pts, 100) == 0.03001277756020864

    def test_memory_does_not_grow_with_m(self):
        pts = make_rng(47).random(10 ** 5)
        peaks = []
        for m in (100, 10 ** 4):
            tracemalloc.start()
            bs.erdos_turan_bound(pts, m)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        # an (m x leaves) table of leaf sums would add 640 KB at m = 10^4
        assert peaks[1] - peaks[0] < 100_000


def test_discrepancy_report_round_trip():
    pts = make_rng(31).random(500)
    rep = bs.discrepancy_report(pts, m=50)
    assert rep.n_points == 500
    assert rep.erdos_turan >= rep.extreme >= rep.star
    assert "erdos_turan" in rep.to_json()
    assert "D*_N" in rep.to_text_table()


@pytest.mark.parametrize("pts", [
    make_rng(32).random(1000),
    make_rng(33).random(1000) * 6 - 3,      # reduced mod 1 first
    np.sort(make_rng(34).random(1000)),     # sorted already
    np.array([-0.0, 0.0, 0.25, 0.25, 0.999]),
    np.array([0.5]),
])
def test_discrepancy_report_sorts_once_with_the_same_bits(pts):
    rep = bs.discrepancy_report(pts, m=20)
    assert rep.star == bs.star_discrepancy(pts)
    assert rep.extreme == bs.extreme_discrepancy(pts)
    assert rep.erdos_turan == bs.erdos_turan_bound(pts, 20)
