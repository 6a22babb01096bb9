import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from benford_lab import collatz as cz
from benford_lab.core_numeric import DomainError, _exact_floor_log, \
    _log_bracket, digits_from_log, leading_digit, log_mantissa

from conftest import make_rng

CENSUS_START = 419_753_999_998_525


def reference_path(x, m):
    """Straightforward 3x+1 iteration, independent of the library engine."""
    ks, its = [], []
    for _ in range(m):
        y = 3 * x + 1
        k = 0
        while y % 2 == 0:
            y //= 2
            k += 1
        ks.append(k)
        its.append(y)
        x = y
    return tuple(ks), tuple(its)


class TestDghMap:
    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            cz.dgh_map(2, 2, {1: 1})        # not coprime / g <= d
        with pytest.raises(DomainError):
            cz.dgh_map(4, 9, {1: 2, 2: 2, 3: 1})  # 1 + 2 not 0 mod 4
        with pytest.raises(DomainError):
            cz.dgh_map(2, 3, {1: 5})        # |h| >= g

    def test_factories(self):
        assert cz.THREE_X_PLUS_1.in_domain(7)
        assert not cz.THREE_X_PLUS_1.in_domain(9)
        assert not cz.THREE_X_PLUS_1.in_domain(14)

    def test_general_map_construction(self):
        m = cz.dgh_map(3, 5, {1: 2, 2: 1})
        assert m.h_at(7) == 2  # 7 mod 3 == 1


class TestStep:
    def test_examples(self):
        assert cz.step(cz.THREE_X_PLUS_1, 7) == (11, 1)
        assert cz.step(cz.THREE_X_PLUS_1, 17) == (13, 2)
        assert cz.step(cz.FIVE_X_PLUS_1, 7) == (9, 2)  # 36 = 9 * 4

    def test_domain_error(self):
        with pytest.raises(DomainError):
            cz.step(cz.THREE_X_PLUS_1, 9)

    @given(st.integers(1, 10 ** 12))
    @settings(max_examples=200)
    def test_reconstruction_and_closure(self, x):
        if x % 2 == 0 or x % 3 == 0:
            return
        y, k = cz.step(cz.THREE_X_PLUS_1, x)
        assert 3 * x + 1 == y * 2 ** k
        assert k >= 1
        assert y % 2 != 0 and y % 3 != 0  # iterates stay in the domain

    @given(st.integers(1, 10 ** 9),
           st.sampled_from([cz.THREE_X_MINUS_1, cz.FIVE_X_PLUS_1]))
    @settings(max_examples=100)
    def test_general_map_reconstruction(self, x, dmap):
        if not dmap.in_domain(x):
            return
        y, k = cz.step(dmap, x)
        u = dmap.g * x
        assert u + dmap.h_at(u) == y * dmap.d ** k
        assert y % dmap.d != 0 and y % dmap.g != 0


class TestPath:
    def test_examples(self):
        rec = cz.path(cz.THREE_X_PLUS_1, 7, 2)
        assert rec.kvalues == (1, 1) and rec.iterates == (11, 17)
        rec = cz.path(cz.THREE_X_PLUS_1, 1, 3)
        assert rec.kvalues == (2, 2, 2)

    def test_census_start_seed_against_reference(self):
        rec = cz.path(cz.THREE_X_PLUS_1, CENSUS_START, 10)
        ks, its = reference_path(CENSUS_START, 10)
        assert rec.kvalues == ks and rec.iterates == its
        assert len(rec.kvalues) == 10

    def test_failing_index_reported(self):
        with pytest.raises(cz.IterationDomainError) as exc:
            cz.path(cz.THREE_X_PLUS_1, 9, 3)
        assert exc.value.index == 0

    def test_huge_out_of_domain_seed(self, default_int_str_limit):
        # 5,000 digits: past the int-to-str limit, so messages must not
        # format the whole integer
        x = 2 * 10 ** 5000
        with pytest.raises(DomainError):
            cz.step(cz.THREE_X_PLUS_1, x)
        with pytest.raises(cz.IterationDomainError) as exc:
            cz.path(cz.THREE_X_PLUS_1, x, 3)
        assert exc.value.index == 0
        with pytest.raises(DomainError):
            cz.ratio_statistic(x, 3, 10)

    def test_reconstruction_guards_run_under_python_O(self):
        # a block iterate asked for one halving too many, and a path whose
        # step reports a wrong multiplicity, raise AssertionError even
        # when python -O strips assert statements
        code = textwrap.dedent("""\
            import sys
            from benford_lab import collatz as cz
            if not sys.flags.optimize:
                sys.exit("not running under -O")
            x = 3 ** 1600 + 2 ** 1400       # odd, 2,536 bits
            low = x & ((1 << cz._BLOCK_BITS) - 1)
            block = cz._block(low, cz._BLOCK_BITS, 10 ** 6)
            ks, _, e = block
            try:
                cz._block_iterate(x, low, block, len(ks), e + 1)
                sys.exit("_block_iterate returned")
            except AssertionError:
                pass
            exact = cz.shift_out_factor
            cz.shift_out_factor = lambda u, d: (exact(u, d)[0], 1)
            try:
                cz.path(cz.THREE_X_PLUS_1, 7, 3)
                sys.exit("path returned")
            except AssertionError:
                pass
            """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(cz.__file__)))
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestStructure:
    def test_predict_modulus(self):
        assert cz.structure_predict((1,)).modulus == 12
        assert cz.structure_predict((1, 1)).modulus == 24
        assert cz.structure_predict((2, 3)).modulus == 192

    def test_ktuple_one(self):
        pred = cz.inverse_path_bruteforce((1,), 100)
        assert pred.modulus == 12 and set(pred.residues) == {7, 11}

    def test_ktuple_two_enumerated(self):
        # brute-force oracle: x <= 96 in the domain with 4 || 3x+1
        matches = [x for x in range(1, 97)
                   if x % 2 and x % 3 and (3 * x + 1) % 4 == 0
                   and (3 * x + 1) % 8 != 0]
        pred = cz.inverse_path_bruteforce((2,), 100)
        assert pred.modulus == 24  # 6 * 2**2
        assert set(matches[:2]) == set(pred.residues)
        assert matches == [x for x in range(1, 97)
                           if x % pred.modulus in pred.residues]

    def test_residue_classes_mod_six(self):
        for kt in [(1,), (2,), (1, 2), (3, 1), (1, 1, 1), (2, 2, 1)]:
            pred = cz.inverse_path_bruteforce(kt, 8 * 6 * 2 ** sum(kt))
            assert sorted(r % 6 for r in pred.residues) == [1, 5]
            assert all(r < pred.modulus for r in pred.residues)

    def test_limit_validation(self):
        with pytest.raises(DomainError):
            cz.inverse_path_bruteforce((1,), 20)

    def test_path_probability(self):
        emp, theo = cz.path_probability_check((1,), 100_000)
        assert theo == 0.5 and abs(emp - 0.5) < 0.01
        emp, theo = cz.path_probability_check((1, 1), 100_000)
        assert theo == 0.25 and abs(emp - 0.25) < 0.01

    def test_scan_agrees_with_stepwise_oracle(self):
        # the census loop widens to exact ints by itself, so a tuple with
        # limit * 3^len * 2 > 2^62 (40 ones at 10^4) scans with no guard
        def starts_with(x, ktuple):
            for target in ktuple:
                x, k = cz.step(cz.THREE_X_PLUS_1, x)
                if k != target:
                    return False
            return True

        for ktuple, limit in [((1,) * 40, 10 ** 4), ((1,) * 12, 10 ** 5),
                              ((2, 1, 1, 3), 10 ** 4)]:
            want = [x for x in range(1, limit + 1, 2)
                    if x % 3 and starts_with(x, ktuple)]
            assert cz._match_ktuple_3x1(ktuple, limit).tolist() == want
        assert len(want) > 10

    def test_probability_converges_with_limit(self):
        e1, theo = cz.path_probability_check((2, 1), 10_000)
        e2, _ = cz.path_probability_check((2, 1), 100_000)
        assert abs(e2 - theo) <= abs(e1 - theo) + 1e-3


class TestKValues:
    def test_census_statistics(self):
        seeds = cz.census_1mod6(CENSUS_START, 20_000)
        stats = cz.kvalue_histogram(cz.THREE_X_PLUS_1, seeds, 10)
        assert stats.total == 200_000
        assert abs(stats.mean - 2.0) < 0.05
        assert abs(stats.variance - 2.0) < 0.1
        assert abs(stats.empirical(1) - 0.5) < 0.01
        assert stats.reference(3) == 0.125

    def test_census_validation(self):
        with pytest.raises(DomainError):
            cz.census_1mod6(2, 10)

    def test_general_map_reference(self):
        seeds = [x for x in range(1, 4000) if x % 2 and x % 5][:500]
        stats = cz.kvalue_histogram(cz.FIVE_X_PLUS_1, seeds, 4)
        assert abs(stats.empirical(1) - 0.5) < 0.1


D3_MAP = cz.dgh_map(3, 4, {1: 2, 2: 1})


def path_census(dmap, seeds, m):
    """x_m, S and the pooled k-histogram from ``path``, seed by seed."""
    xm, s_tot = [], []
    khist = np.zeros(64, dtype=np.int64)
    for x0 in seeds:
        rec = cz.path(dmap, x0, m)
        xm.append(rec.iterates[-1])
        s_tot.append(sum(rec.kvalues))
        for k in rec.kvalues:
            khist[min(k, 63)] += 1
    return xm, s_tot, khist


class TestCensusEngine:
    @given(st.sampled_from([cz.THREE_X_PLUS_1, cz.THREE_X_MINUS_1,
                            cz.FIVE_X_PLUS_1, D3_MAP]),
           st.lists(st.one_of(st.integers(1, 10 ** 6),
                              st.integers(2 ** 60, 2 ** 64),
                              st.integers(1, 2 ** 200)),
                    min_size=1, max_size=8),
           st.integers(1, 40))
    @example(cz.FIVE_X_PLUS_1, [7, 69, 141, 173], 150)  # widens mid-run
    @example(cz.THREE_X_PLUS_1, [(2 ** 1030 - 1) // 3, 7], 3)  # k_1 = 1030
    @settings(max_examples=80, deadline=None)
    def test_matches_path(self, dmap, raw, m):
        seeds = [x for x in raw if dmap.in_domain(x)]
        assume(seeds)
        xm, s_tot = cz._census_paths(seeds, m, dmap)
        khist = cz.kvalue_histogram(dmap, seeds, m).counts
        ref_xm, ref_s, ref_khist = path_census(dmap, seeds, m)
        assert [int(x) for x in xm] == ref_xm
        assert s_tot.tolist() == ref_s
        assert np.array_equal(khist, ref_khist)

    def test_widens_from_int64_mid_run(self):
        seeds = np.array([7, 69, 141, 173], dtype=np.int64)
        xm, _ = cz._census_paths(seeds, 150, cz.FIVE_X_PLUS_1)
        assert xm.dtype == object
        assert max(xm).bit_length() > 90

    @pytest.mark.parametrize("dmap", [cz.THREE_X_PLUS_1, cz.THREE_X_MINUS_1,
                                      cz.FIVE_X_PLUS_1])
    def test_every_step_matches_path_through_the_cap(self, dmap, monkeypatch):
        # seeds up to the int64 cap 2**62 // g, in tiles of 64: the first
        # steps of each tile run in the int64 kernel, and its buffers widen
        # to exact ints within a few steps; every yielded step is compared
        # before the next overwrites it, and the tiles come in order, each
        # with all its steps
        monkeypatch.setattr(cz, "_TILE", 64)
        cap = 2 ** 62 // dmap.g
        seeds = np.array([x for x in range(cap - 400, cap + 1)
                          if dmap.in_domain(x)] + [7, 11, 13], np.int64)
        m = 12
        paths = [cz.path(dmap, int(x0), m) for x0 in seeds]
        order, dtypes = [], {}
        for tile, i, x, k in cz._census_steps(seeds, m, dmap):
            order.append((tile.start, i))
            dtypes.setdefault(tile.start, []).append(x.dtype)
            assert [int(v) for v in x] == [p.iterates[i] for p in paths[tile]]
            assert [int(v) for v in k] == [p.kvalues[i] for p in paths[tile]]
        assert order == [(lo, i) for lo in range(0, len(seeds), 64)
                         for i in range(m)]
        assert all(d[0] == np.int64 and d[-1] == object
                   for d in dtypes.values())

    def test_only_the_middle_tile_crosses_the_cap(self, monkeypatch):
        # three tiles at the module's tile size: small seeds, seeds just
        # under the int64 cap 2**62 // 3 (they pass it after one step), and
        # a short last tile of small seeds; only the middle tile leaves
        # int64, and every result equals the per-seed paths
        dmap, m, t = cz.THREE_X_PLUS_1, 5, cz._TILE
        cap = 2 ** 62 // 3
        high = [x for x in range(cap - 4 * t, cap + 1) if dmap.in_domain(x)]
        seeds = np.concatenate([cz.census_1mod6(7, t),
                                np.array(high[-t:], np.int64),
                                cz.census_1mod6(7 + 6 * t, t // 2)])
        wide = {tile.start for tile, _, x, _ in cz._census_steps(seeds, m, dmap)
                if x.dtype == object}
        assert wide == {t}
        paths = [cz.path(dmap, x0, m) for x0 in seeds.tolist()]
        xm, s_tot = cz._census_paths(seeds, m, dmap)
        assert xm.dtype == object
        assert xm.tolist() == [p.iterates[-1] for p in paths]
        assert s_tot.tolist() == [sum(p.kvalues) for p in paths]
        khist = np.bincount([k for p in paths for k in p.kvalues],
                            minlength=64)
        assert np.array_equal(cz.kvalue_histogram(dmap, seeds, m).counts,
                              khist)
        # the structure scan reads the same engine over the same seeds
        monkeypatch.setattr(cz, "_domain_int64", lambda limit: seeds)
        for ktuple in ((1, 1), (2, 1, 1), (1, 2, 1, 1, 3)):
            want = sorted(p.seed for p in paths
                          if p.kvalues[:len(ktuple)] == ktuple)
            assert want
            assert cz._match_ktuple_3x1(ktuple, 0).tolist() == want

    def test_census_leaves_the_seed_array_unchanged(self):
        seeds = cz.census_1mod6(CENSUS_START, 2_000)
        kept = seeds.copy()
        res = cz.ratio_digit_experiment(seeds, 10, 10)
        cz.ratio_fracs(seeds, 10, 10)
        cz.kvalue_histogram(cz.THREE_X_PLUS_1, seeds, 10)
        assert np.array_equal(seeds, kept)
        # the census the result keeps is its own, not a step buffer reused
        # by a later census
        xm, s_tot = cz._census_paths(kept, 10, cz.THREE_X_PLUS_1)
        assert np.array_equal(res.census[0], xm)
        assert np.array_equal(res.census[1], s_tot)

    def test_structure_scan_leaves_its_domain_array_unchanged(
            self, monkeypatch):
        xs = cz._domain_int64(10_000)
        kept = xs.copy()
        monkeypatch.setattr(cz, "_domain_int64", lambda limit: xs)
        pred = cz.inverse_path_bruteforce((2, 1), 10_000)
        assert np.array_equal(xs, kept)
        assert pred.modulus == 48

    @pytest.mark.parametrize("seeds, m", [
        ([7, -5], 3), ([7, 9], 3), ([7, 10], 3), ([7, 2 ** 70 * 3], 3),
        ([], 3), ([7], 0), ([7], -1)])
    def test_rejects_bad_census(self, seeds, m):
        with pytest.raises(DomainError):
            cz.kvalue_histogram(cz.THREE_X_PLUS_1, seeds, m)


class TestRatioStatistic:
    def test_degenerate(self):
        assert cz.ratio_statistic(5, 0, 10) == 0.0

    def test_matches_exact_log_oracle(self):
        for x0 in (25, 12345677, CENSUS_START):
            for m in (3, 10):
                _, its = reference_path(x0, m)
                got = cz.ratio_statistic(x0, m, 10)
                with mpmath.workdps(50):
                    ratio = mpmath.mpf(its[-1] * 4 ** m) / (3 ** m * x0)
                    ref = float(mpmath.frac(mpmath.log(ratio, 10)))
                diff = abs(got - ref)
                assert min(diff, 1 - diff) < 1e-9

    def test_large_seed_approaches_lattice(self):
        rec = cz.path(cz.THREE_X_PLUS_1, CENSUS_START, 10)
        s = sum(rec.kvalues)
        got = cz.ratio_statistic(CENSUS_START, 10, 10)
        lattice = ((20 - s) * math.log10(2.0)) % 1.0
        diff = abs(got - lattice)
        assert min(diff, 1 - diff) < 1e-6

    @pytest.mark.parametrize("bits", [49, 61, 2049])
    def test_seeds_just_below_powers_of_two(self, bits):
        # log2 of 2^n - 1 rounds to n; its fractional part alone would
        # put the seed a whole octave low
        x0, m = 2 ** bits - 1, 10
        _, its = reference_path(x0, m)
        with mpmath.workdps(50):
            ratio = mpmath.mpf(its[-1] * 4 ** m) / (3 ** m * x0)
            ref = float(mpmath.frac(mpmath.log(ratio, 10)))
        for got in (cz.ratio_fracs([x0], m, 10)[0],
                    cz.ratio_statistic(x0, m, 10)):
            diff = abs(got - ref)
            assert min(diff, 1 - diff) < 1e-9

    def test_fracs_bit_identical_to_per_seed_bookkeeping(self):
        # the per-seed formula the vectorised log2 replaced; on seeds away
        # from powers of two both give the same floats, so KS distances to
        # the model do not move
        def log2_int(x):
            return (x.bit_length() - 1) + log_mantissa(x, 2)

        m, c = 10, math.log(2.0) / math.log(10)
        seeds = cz.census_1mod6(CENSUS_START, 2000)
        ref = []
        for x0 in seeds.tolist():
            ks, its = reference_path(x0, m)
            s = sum(ks)
            ulog2 = log2_int(its[-1]) - log2_int(x0) + float(s) \
                - m * math.log2(3.0)
            ref.append((float(2 * m - s) * c + ulog2 * c) % 1.0)
        assert cz.ratio_fracs(seeds, m, 10).tolist() == ref

    def test_model_sample_is_one_model_point(self):
        for m, base in ((1, 10), (7, 4), (40, 7)):
            assert cz.geometric_model_sample(m, base, make_rng(3)) == \
                cz.geometric_model_points(m, base, 1, make_rng(3))[0]

    def test_base2_model_is_zero(self):
        rng = make_rng(5)
        for m in (1, 7, 40):
            assert cz.geometric_model_sample(m, 2, rng) == 0.0

    def test_base4_model_lattice(self):
        vals = cz.geometric_model_points(9, 4, 2000, make_rng(6))
        assert set(np.round(vals, 12).tolist()) <= {0.0, 0.5}

    def test_model_interval_masses_at_m400(self):
        # the sampler must match the exact lattice law, and that law is
        # within ~0.012 of uniform (Fourier modes at the denominators of
        # good rational approximations of log10(2) decay only slowly in m)
        from scipy import stats as sstats
        m, n = 400, 10 ** 5
        vals = cz.geometric_model_points(m, 10, n, make_rng(7))
        c = math.log10(2.0)
        jmax = int(12 * math.sqrt(2 * m))
        j = np.arange(-jmax, jmax + 1)
        pmf = sstats.nbinom.pmf(j + m, m, 0.5)
        fr = np.mod(j * c, 1.0)
        for a, b in ((0.0, 0.3), (0.3, 0.7)):
            mass = np.mean((vals >= a) & (vals < b))
            exact = pmf[(fr >= a) & (fr < b)].sum()
            sd = math.sqrt(exact * (1 - exact) / n)
            assert abs(mass - exact) < 3 * sd
            assert abs(exact - (b - a)) < 0.02


class TestDrift:
    def test_values(self):
        assert abs(cz.drift(cz.THREE_X_PLUS_1) - math.log(0.75)) < 1e-15
        expected = math.log(5) - 2 * math.log(2)
        assert abs(cz.drift(cz.FIVE_X_PLUS_1) - expected) < 1e-15

    def test_sign_classifies(self):
        assert cz.drift(cz.THREE_X_PLUS_1) < 0 < cz.drift(cz.FIVE_X_PLUS_1)


def oracle_ratio_digit(x0, m, base):
    """Leading digit of x_m * 4^m / (3^m x_0) via high-precision logs."""
    _, its = reference_path(x0, m)
    num = its[-1] * 4 ** m
    den = 3 ** m * x0
    with mpmath.workdps(60):
        val = mpmath.mpf(num) / den
        e = mpmath.floor(mpmath.log(val, base))
        return int(mpmath.floor(val / mpmath.mpf(base) ** e))


def fraction_significand(q, base):
    """q / base**e in [1, base) for a positive Fraction q, exactly."""
    while q >= base:
        q /= base
    while q < 1:
        q *= base
    return q


def fraction_ratio_histogram(seeds, m, base):
    digits = []
    for x0 in seeds:
        _, its = reference_path(int(x0), m)
        q = Fraction(its[-1] * 4 ** m, 3 ** m * int(x0))
        digits.append(int(fraction_significand(q, base)))
    return np.bincount(digits, minlength=base)[1:]


class TestPow2Lattice:
    def test_matches_fraction_arithmetic(self):
        for base in range(2, 17):
            digits, gaps = cz._pow2_lattice(-200, 40, base)
            for j, d, g in zip(range(-200, 41), digits, gaps):
                s = fraction_significand(Fraction(2) ** j, base)
                assert d == int(s)
                # upward gap log2((d+1) B^e / 2^j) = log2((d+1) / s)
                up = (int(s) + 1) / s
                with mpmath.workdps(40):
                    ref = mpmath.log(mpmath.mpf(up.numerator)
                                     / up.denominator, 2)
                assert abs(g - float(ref)) < 1e-15


class TestRatioDigitExperiment:
    @given(st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=12),
           st.sampled_from([4, 8, 10, 16, 7]),
           st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_exact_against_log_oracle(self, raw, base, m):
        seeds = [x for x in raw if x % 2 and x % 3]
        if not seeds:
            return
        result = cz.ratio_digit_experiment(seeds, m, base)
        expected = np.zeros(base - 1, dtype=np.int64)
        for s in seeds:
            expected[oracle_ratio_digit(s, m, base) - 1] += 1
        assert np.array_equal(result.histogram.counts, expected)

    def test_small_seed_flagged_path(self):
        # trajectories that fall to 1 make the correction u large, so every
        # seed takes the exact path
        result = cz.ratio_digit_experiment([1, 5, 7, 11], 8, 10)
        expected = np.zeros(9, dtype=np.int64)
        for s in (1, 5, 7, 11):
            expected[oracle_ratio_digit(s, 8, 10) - 1] += 1
        assert np.array_equal(result.histogram.counts, expected)
        for base in range(2, 17):
            result = cz.ratio_digit_experiment([1, 5, 7, 11], 8, base)
            assert result.n_exact == 4
            assert np.array_equal(
                result.histogram.counts,
                fraction_ratio_histogram([1, 5, 7, 11], 8, base))

    def test_headline_window_matches_fraction_oracle(self):
        seeds = cz.census_1mod6(CENSUS_START, 2000)
        for base in range(2, 17):
            result = cz.ratio_digit_experiment(seeds, 10, base)
            assert np.array_equal(result.histogram.counts,
                                  fraction_ratio_histogram(seeds, 10, base))

    def test_big_seed_python_path(self):
        big = 10 ** 40 + 3  # 1 mod 6
        assert big % 6 == 1
        result = cz.ratio_digit_experiment([big], 5, 10)
        assert result.histogram.counts[oracle_ratio_digit(big, 5, 10) - 1] == 1

    def test_census_above_int64_matches_fraction_oracle(self):
        seeds = cz.census_1mod6(2 ** 62 + 3, 3000)
        for base in (4, 8, 10):
            result = cz.ratio_digit_experiment(seeds, 10, base)
            assert result.histogram.total == 3000
            assert np.array_equal(result.histogram.counts,
                                  fraction_ratio_histogram(seeds, 10, base))

    def test_400_digit_census(self):
        seeds = cz.census_1mod6(10 ** 399 + 3, 200)
        for base in (7, 10):
            result = cz.ratio_digit_experiment(seeds, 10, base)
            assert np.array_equal(result.histogram.counts,
                                  fraction_ratio_histogram(seeds, 10, base))

    def test_limit_law_reference(self):
        probs = cz.limit_law_digit_probabilities(4)
        assert np.allclose(probs, [0.5, 0.5, 0.0])
        probs = cz.limit_law_digit_probabilities(10)
        assert abs(probs.sum() - 1) < 1e-12 and abs(probs[0] - 0.301) < 1e-3

    def test_model_digit_experiment_matches_limit_at_large_m(self):
        hist = cz.model_digit_experiment(400, 16, 40_000, make_rng(8))
        freq = hist.frequencies()
        for j in range(4):
            assert abs(freq[2 ** j - 1] - 0.25) < 0.01
        assert freq[2] == 0.0  # digit 3 never occurs

    def test_ratio_fracs_consistent_with_digits(self):
        seeds = cz.census_1mod6(CENSUS_START, 2000)
        fracs = cz.ratio_fracs(seeds, 10, 10)
        res = cz.ratio_digit_experiment(seeds, 10, 10)
        digits = np.clip(np.floor(10.0 ** fracs).astype(int), 1, 9)
        counts = np.bincount(digits, minlength=10)[1:]
        # float fracs sit ~1e-13 above exact digit boundaries, so they agree
        assert np.array_equal(counts, res.histogram.counts)


def exact_ulog2(seeds, xm, s_tot, m):
    """log2(x_m 2^S / (3^m x_0)) per seed, at 50 digits."""
    with mpmath.workdps(50):
        return np.array([float(mpmath.log(mpmath.mpf(x << s) / (3 ** m * x0),
                                          2))
                         for x0, x, s in zip(map(int, seeds), map(int, xm),
                                             map(int, s_tot))])


def int64_pairs(seeds, m):
    """(x_0, x_m, S) over a census, cut to the seeds whose x_m fits int64
    and cast to int64, whatever the census engine held them in."""
    xm, s_tot = cz._census_paths(seeds, m, cz.THREE_X_PLUS_1)
    keep = np.array([int(x) < 2 ** 63 for x in xm])
    return (np.asarray(seeds, dtype=np.int64)[keep],
            xm[keep].astype(np.int64), s_tot[keep])


class TestRatioGate:
    """The digit gate's estimate of log2 u holds its stated error bound."""

    @pytest.mark.parametrize("census", [
        "headline", "random_61_62_bits", "below_2_49", "below_2_61"])
    def test_int64_estimate_within_1e12_of_mpmath(self, census):
        m, n = 10, 5000
        if census == "headline":
            seeds = cz.census_1mod6(CENSUS_START, 100_000)
        elif census == "random_61_62_bits":
            k = make_rng(17).integers(2 ** 60 // 6, 2 ** 62 // 6, n,
                                      dtype=np.int64)
            seeds = 6 * k + 1
        else:
            top = 2 ** int(census[-2:]) - 1   # 1 mod 6 for an odd power
            seeds = cz.census_1mod6(top - 6 * (n - 1), n)
        x0, xm, s_tot = int64_pairs(seeds, m)
        assert len(x0) > 0.9 * len(seeds)
        est, slack = cz._ulog2_gate(x0, xm, s_tot, m)
        assert 1e-12 <= slack < 2e-12
        err = np.abs(est - exact_ulog2(x0, xm, s_tot, m))
        assert err.max() <= 1e-12

    @pytest.mark.parametrize("start", [2 ** 62 + 3, 10 ** 399 + 3])
    def test_object_estimate_within_its_bound(self, start):
        seeds = cz.census_1mod6(start, 200)
        xm, s_tot = cz._census_paths(seeds, 10, cz.THREE_X_PLUS_1)
        assert xm.dtype == object
        est, slack = cz._ulog2_gate(seeds, xm, s_tot, 10)
        assert np.abs(est - exact_ulog2(seeds, xm, s_tot, 10)).max() <= slack


def searchsorted_ks(a, b):
    """The two-sample KS distance read at every point of both samples by
    ``searchsorted``: the oracle of ``ks_distance``'s merge."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(fa - fb).max())


def test_ks_distance():
    a = np.linspace(0, 1, 1000, endpoint=False)
    assert cz.ks_distance(a, a) == 0.0
    b = a / 2
    assert abs(cz.ks_distance(a, b) - 0.5) < 0.01


# a few values, so that ties fall inside each sample and across the two;
# searchsorted counts NaN as one value above inf
TIED = st.sampled_from([0.0, -0.0, 0.125, 0.3, 0.5, 0.5000000000000001, 1.0,
                        math.inf, math.nan])


@given(st.lists(st.one_of(TIED, st.floats(-1e3, 1e3)), min_size=1,
                max_size=60),
       st.lists(st.one_of(TIED, st.floats(-1e3, 1e3)), min_size=1,
                max_size=60))
@example([0.5], [0.5])
@example([0.5], [0.125, 0.5, 0.5, 1.0])
@example([0.0, 0.3, 0.3], [-0.0])
@example([math.nan, math.nan], [math.nan])
@example([0.3, math.nan, math.inf], [math.nan, 0.3])
@settings(max_examples=300, deadline=None)
def test_ks_distance_is_the_searchsorted_form(a, b):
    assert cz.ks_distance(a, b) == searchsorted_ks(a, b)
    assert cz.ks_distance(b, a) == searchsorted_ks(b, a)


def test_ks_distance_headline_sizes():
    rng = make_rng(3)
    a = np.round(rng.random(100_000), 4)   # many ties
    b = rng.random(99_999)
    assert cz.ks_distance(a, b) == searchsorted_ks(a, b)


class TestIterateDigitExperiment:
    def test_trajectory_of_seven(self):
        res = cz.iterate_digit_experiment(7, "single_step", 10)
        assert res.n_recorded == 17 and res.reached_one
        expected = np.zeros(9, dtype=np.int64)
        for d in [7, 2, 1, 3, 1, 5, 2, 1, 4, 2, 1, 5, 1, 8, 4, 2, 1]:
            expected[d - 1] += 1
        assert np.array_equal(res.histogram.counts, expected)

    def test_remove_twos_counts_steps(self):
        res = cz.iterate_digit_experiment(7, "remove_all_twos", 10)
        # 7 -> 11 -> 17 -> 13 -> 5 -> 1
        assert res.n_recorded == 6 and res.reached_one

    def test_even_seed_reduced_first(self):
        res = cz.iterate_digit_experiment(28, "remove_all_twos", 10)
        assert res.histogram.counts[1] >= 1  # records 28 then 7

    def test_max_iters_cap(self):
        res = cz.iterate_digit_experiment(2 ** 40 + 1, "single_step",
                                          10, max_iters=10)
        assert res.n_recorded == 10 and not res.reached_one

    def test_mode_validation(self):
        with pytest.raises(DomainError):
            cz.iterate_digit_experiment(7, "bogus", 10)
        with pytest.raises(DomainError):
            cz.iterate_digit_experiment(1, "single_step", 10)

    @pytest.mark.parametrize("base", [2.5, 1, 0, -3])
    def test_base_validation(self, base):
        with pytest.raises(DomainError):
            cz.iterate_digit_experiment(27, "single_step", base)

    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_max_iters_validation(self, max_iters):
        with pytest.raises(DomainError):
            cz.iterate_digit_experiment(27, "single_step", 10, max_iters)


def stepwise_digits(x, mode, base, max_iters):
    """Histogram, count and end state of a trajectory taken one step and
    one ``leading_digit`` at a time."""
    counts = [0] * (base - 1)
    n = 0

    def record(v):
        nonlocal n
        counts[leading_digit(v, base) - 1] += 1
        n += 1

    record(x)
    if mode == "remove_all_twos" and x % 2 == 0 and n < max_iters:
        while x % 2 == 0:
            x //= 2
        record(x)
    while x != 1 and n < max_iters:
        if x % 2:
            x = 3 * x + 1
            if mode == "remove_all_twos":
                while x % 2 == 0:
                    x //= 2
        else:
            x //= 2
        record(x)
    return counts, n, x == 1


def queued_blocks(x, single, rooms):
    """Consecutive blocks from the odd iterate x, one per room, queued as
    ``iterate_digit_experiment`` queues them, each on the low
    min(_BLOCK_BITS, n - 64) bits of its n-bit start, and the iterates
    they record, stepped plainly."""
    queue, iterates = [], []
    for room in rooms:
        w = min(cz._BLOCK_BITS, x.bit_length() - 64)
        assert w >= cz._BLOCK_FLOOR
        low = x & ((1 << w) - 1)
        block = cz._block(low, w, room)
        ks, _, e = block
        n = min(len(ks) + e, room) if single else len(ks)
        queue.append((x, low, block, n))
        y = x
        for _ in range(n):
            if single:
                y = 3 * y + 1 if y & 1 else y >> 1
            else:
                u = 3 * y + 1
                y = u >> ((u & -u).bit_length() - 1)
            iterates.append(y)
        x = cz._block_iterate(x, low, block, len(ks), e)
    return queue, iterates


def two_blocks(single):
    """Two consecutive full-width blocks of an odd 2,536-bit iterate, the
    second cut short by a room of 300 iterates (see ``queued_blocks``)."""
    x = 3 ** 1600 + 2 ** 1400
    queue, iterates = queued_blocks(x, single, (10 ** 6, 300))
    assert all(start.bit_length() >= cz._BLOCK_BITS + 64
               for start, *_ in queue)
    return queue, iterates


def _far_multiplicity_seed():
    # 3x + 1 = 2**300 * m: the first multiplicity runs past the low bits a
    # block sees, so that step is taken exactly
    m = 2 ** 1500 + 1
    return (2 ** 300 * m - 1) // 3


def plain_block(low, steps, bits):
    """The reference block: one accelerated step at a time from ``low``
    while ``bits`` low bits decide each multiplicity, at most ``steps``."""
    ks, y, e = [], low, 0
    while len(ks) < steps:
        u = 3 * y + 1
        k = 0
        while u % 2 == 0:
            u //= 2
            k += 1
        if e + k >= bits:
            break
        ks.append(k)
        y, e = u, e + k
    return ks, y, e


def _undecided_low():
    # 3 low + 1 = 2**40 * 12346: a first multiplicity past the table's bits,
    # then steps the table decides again
    return (2 ** 40 * 12346 - 1) // 3


class TestResidueTable:
    def test_entries_match_stepwise_simulation(self):
        w = cz._TABLE_BITS
        table = cz._residue_table()
        assert len(table) == 2 ** w
        for r in range(2 ** w):
            ks, t, c, e = table[r]
            if r % 2 == 0:
                assert not ks
                continue
            ref_ks, _, ref_e = plain_block(r, w, w)
            assert (list(ks), e, t) == (ref_ks, ref_e, 3 ** len(ref_ks))
            # every odd x = r mod 2**w takes those steps to (t x + c) / 2**e
            for x in (r, r + 2 ** w, r + 2 ** w * 12345, r + 2 ** 300):
                path_ks, path_its = reference_path(x, len(ks))
                assert list(path_ks) == ref_ks
                assert (t * x + c) % 2 ** e == 0
                assert (t * x + c) // 2 ** e == (path_its[-1] if ks else x)

    @given(st.integers(0, 2 ** cz._BLOCK_BITS - 1).map(lambda v: v | 1),
           st.integers(0, 700), st.integers(-3, 3),
           st.sampled_from([cz._BLOCK_FLOOR, cz._BLOCK_FLOOR + 1, 100, 537,
                            cz._BLOCK_BITS]))
    @example(_undecided_low(), 10 ** 6, 0, cz._BLOCK_BITS)
    @example(_undecided_low(), 10 ** 6, 0, cz._BLOCK_FLOOR)
    # no step decided
    @example((2 ** cz._BLOCK_BITS - 1) // 3, 10 ** 6, 0, cz._BLOCK_BITS)
    @example((2 ** cz._BLOCK_FLOOR - 1) // 3, 10 ** 6, 0, cz._BLOCK_FLOOR)
    @example(1, 10 ** 6, 0, cz._BLOCK_BITS)
    @settings(max_examples=60, deadline=None)
    def test_block_matches_plain_loop(self, low, steps, shift, bits):
        # a block runs on the low ``bits`` bits of an iterate, any width
        # from _BLOCK_FLOOR to _BLOCK_BITS
        low &= (1 << bits) - 1
        w = cz._TABLE_BITS
        full = plain_block(low, 10 ** 6, bits)
        # the step after which fewer than _TABLE_BITS bits remain: lookups
        # end there and the plain loop takes over
        es = np.cumsum([0] + full[0])
        edge = int(np.argmax(es > bits - w)) if es[-1] > bits - w \
            else len(full[0])
        for cut in (steps, max(edge + shift, 0), 10 ** 6):
            ks, y, e = cz._block(low, bits, cut)
            assert (ks.tolist(), y, e) == plain_block(low, cut, bits)


class TestBlockTrajectory:
    @given(st.integers(2, 5264).flatmap(
               lambda b: st.integers(2 ** (b - 1), 2 ** b - 1)),
           st.integers(0, 40), st.sampled_from(cz.MODES),
           st.integers(2, 16), st.integers(1, 60_000))
    @example(3 ** 2000 + 2, 0, "single_step", 10, 1000)   # cut mid-block
    @example(3 ** 2000 + 2, 0, "remove_all_twos", 10, 60_000)
    @example(3 ** 3150 + 1, 17, "single_step", 16, 60_000)
    @example(3 ** 3150 + 1, 17, "remove_all_twos", 2, 60_000)
    @example(_far_multiplicity_seed(), 0, "remove_all_twos", 7, 60_000)
    # 20,130 bits: digits are decided about 4,600 iterates at a time, so
    # 30,000 iterates end inside the seventh batch; the full remove-twos
    # run also queues its sub-block tail
    @example(3 ** 12700 + 2, 0, "remove_all_twos", 10, 30_000)
    @example(3 ** 12700 + 2, 0, "single_step", 10, 30_000)
    @example(3 ** 12700 + 2, 5, "single_step", 7, 30_000)
    @example(3 ** 12700 + 2, 0, "remove_all_twos", 16, 10 ** 7)
    @settings(max_examples=50, deadline=None)
    def test_matches_stepwise_oracle(self, x, shift, mode, base, max_iters):
        x0 = x << shift
        res = cz.iterate_digit_experiment(x0, mode, base, max_iters)
        counts, n, reached = stepwise_digits(x0, mode, base, max_iters)
        assert res.histogram.counts.tolist() == counts
        assert (res.n_recorded, res.reached_one) == (n, reached)

    # the switch points of the block path: blocks stop under
    # _BLOCK_FLOOR + 64 bits and reach their full width at 1,088 bits
    @pytest.mark.parametrize("bits", [cz._BLOCK_FLOOR + 63,
                                      cz._BLOCK_FLOOR + 64,
                                      cz._BLOCK_FLOOR + 65, 1087, 1088, 1089])
    @pytest.mark.parametrize("mode", cz.MODES)
    @pytest.mark.parametrize("base", [2, 10, 16])
    def test_switch_points_match_stepwise_oracle(self, bits, mode, base,
                                                 monkeypatch):
        widths = []
        block = cz._block

        def spy(low, w, steps):
            widths.append(w)
            return block(low, w, steps)

        monkeypatch.setattr(cz, "_block", spy)
        rng = make_rng(bits)
        odd = int(rng.integers(0, 2 ** 62)) << (bits - 63) | 1 | 1 << bits - 1
        for x0 in (2 ** (bits - 1) + 1, 2 ** bits - 1, odd, odd + 1):
            assert x0.bit_length() == bits
            widths.clear()
            res = cz.iterate_digit_experiment(x0, mode, base)
            counts, n, reached = stepwise_digits(x0, mode, base, 10 ** 7)
            assert res.histogram.counts.tolist() == counts
            assert (res.n_recorded, res.reached_one) == (n, reached)
            assert all(cz._BLOCK_FLOOR <= w <= cz._BLOCK_BITS for w in widths)
            # an odd seed of _BLOCK_FLOOR + 64 bits or more starts with a
            # block on its low min(_BLOCK_BITS, bits - 64) bits
            if x0 & 1 and bits >= cz._BLOCK_FLOOR + 64:
                assert widths[0] == min(cz._BLOCK_BITS, bits - 64)

    @pytest.mark.parametrize("single", [False, True])
    @pytest.mark.parametrize("base", [3, 10, 16])
    def test_band_holds_the_true_log(self, single, base):
        # two consecutive blocks in one batch, then a tail of small ints
        queue, iterates = two_blocks(single)
        tail = [3 ** 600, 10 ** 300 - 1, 7, 2 ** 1088 - 1]
        xs, lows, blocks, ns = zip(*queue)
        a, e = cz._batch_exponents(blocks, ns, single)
        ids = np.repeat([0, 1], ns)
        f, band = cz._batch_logs(xs, tail, a, e, ids, base)
        assert len(blocks[0][0]) > 200 and len(f) == sum(ns) + len(tail)
        for i in range(len(a)):
            b = ids[i]
            assert cz._block_iterate(xs[b], lows[b], blocks[b], int(a[i]),
                                     int(e[i])) == iterates[i]
        with mpmath.workdps(60):
            for xi, fi, bi in zip(iterates + tail, f, band):
                true = float(mpmath.frac(mpmath.log(xi) / mpmath.log(base)))
                gap = abs(true - fi)
                assert min(gap, 1.0 - gap) < bi

    @pytest.mark.parametrize("single", [False, True])
    def test_batch_exponents_restart_at_each_block(self, single):
        # the last block is cut short by a room of 20 iterates
        x = 3 ** 1600 + 2 ** 1400
        blocks = [cz._block(low, cz._BLOCK_BITS, room) for low, room in
                  ((x & ((1 << cz._BLOCK_BITS) - 1), 10 ** 6), (27, 10 ** 6),
                   ((2 ** 40 - 1) // 3, 20))]
        ns = [len(ks) + e if single else len(ks) for ks, _, e in blocks]
        ns[-1] = min(ns[-1], 20)
        a, e = cz._batch_exponents(blocks, ns, single)
        ref_a, ref_e = [], []
        for (ks, _, _), n in zip(blocks, ns):
            # one block at a time: 3 x_(j-1) + 1 (single steps only), then
            # its k_j halvings, or x_j alone
            pairs, done = [], 0
            for j, k in enumerate(ks, 1):
                halvings = range(k + 1) if single else [k]
                pairs += [(j, done + h) for h in halvings]
                done += k
            ref_a += [p[0] for p in pairs[:n]]
            ref_e += [p[1] for p in pairs[:n]]
        assert (a.tolist(), e.tolist()) == (ref_a, ref_e)

    @pytest.mark.parametrize("mode", cz.MODES)
    def test_refined_digit_is_rebuilt_from_its_own_block(self, mode,
                                                         monkeypatch):
        # set every 97th digit a batch decides to 0, undecided: each such
        # digit must be rebuilt exactly from the block that holds it
        x0 = 3 ** 12700 + 2                 # 20,130 bits, seven batches
        honest = cz.iterate_digit_experiment(x0, mode, 10, 30_000)
        decide = cz.digits_from_log
        cleared = uncertified = 0

        def faulty(f, band, base):
            nonlocal cleared, uncertified
            digits = decide(f, band, base)
            cleared += int(np.count_nonzero(digits[96::97]))
            digits[96::97] = 0
            uncertified += int(np.count_nonzero(digits == 0))
            return digits

        monkeypatch.setattr(cz, "digits_from_log", faulty)
        res = cz.iterate_digit_experiment(x0, mode, 10, 30_000)
        counts, n, _ = stepwise_digits(x0, mode, 10, 30_000)
        assert res.histogram.counts.tolist() == counts
        assert res.n_recorded == n
        assert cleared > 300
        assert res.n_refined == uncertified == cleared + honest.n_refined

    # 3 x0 + 1 = 4 (2*10^1200 - 1) or 2 (10^1200 + 1): every iterate of the
    # first accelerated step sits one unit from a digit boundary
    @pytest.mark.parametrize("mode, x0", [
        ("single_step", (8 * 10 ** 1200 - 5) // 3),
        ("single_step", (2 * 10 ** 1200 + 1) // 3),
        ("remove_all_twos", (8 * 10 ** 1200 - 5) // 3),
        ("remove_all_twos", (2 * 10 ** 1200 + 1) // 3),
    ], ids=["single-below", "single-above", "remove2-below",
            "remove2-above"])
    def test_boundary_iterate_is_refined(self, mode, x0):
        assert x0.bit_length() >= cz._BLOCK_BITS + 64    # full-width blocks
        res = cz.iterate_digit_experiment(x0, mode, 10, max_iters=2)
        counts, n, _ = stepwise_digits(x0, mode, 10, 2)
        assert res.histogram.counts.tolist() == counts and n == 2
        assert res.n_refined >= 1
        res = cz.iterate_digit_experiment(x0, mode, 10, max_iters=3000)
        assert res.histogram.counts.tolist() == \
            stepwise_digits(x0, mode, 10, 3000)[0]


class TestDecide:
    # the first int's digit is certified: the test spoils it
    TAIL = [3 ** 600, 10 ** 300 - 1, 10 ** 300, 10 ** 300 + 1, 999, 1,
            2 ** 1088 - 1]

    @pytest.mark.parametrize("single", [False, True])
    @pytest.mark.parametrize("parts", ["tail", "blocks", "both"])
    def test_one_pass_decides_every_digit(self, parts, single, monkeypatch):
        queue, iterates = two_blocks(single) if parts != "tail" else ([], [])
        tail = list(self.TAIL) if parts != "blocks" else []
        decide, calls = cz.digits_from_log, []

        def spoil(f, band, base):
            # a certified digit set to 0, in the first block iterate and in
            # the first tail int, must be recomputed
            digits = decide(f, band, base)
            for i in ([0] if iterates else []) + ([len(iterates)]
                                                  if tail else []):
                assert digits[i] > 0
                digits[i] = 0
            calls.append((digits, digits == 0))
            return digits

        monkeypatch.setattr(cz, "digits_from_log", spoil)
        counts = np.zeros(9, dtype=np.int64)
        n_refined = cz._decide(queue, tail, single, 10, counts)
        (digits, undecided), = calls        # one digit pass per batch
        want = [leading_digit(v, 10) for v in iterates + tail]
        assert digits.tolist() == want
        assert counts.tolist() == np.bincount(np.subtract(want, 1),
                                              minlength=9).tolist()
        # only block digits count as refined
        assert n_refined == np.count_nonzero(undecided[:len(iterates)])
        assert n_refined >= (1 if iterates else 0)


    @pytest.mark.parametrize("single", [False, True])
    def test_refined_digit_of_a_narrow_block(self, single, monkeypatch):
        # a 600-bit iterate runs its block on its low 536 bits; the digits
        # of its first, middle and last iterates are set to 0, undecided,
        # and must be recomputed from iterates rebuilt exactly, the first
        # two by replaying the block's steps to theirs
        x = 3 ** 378 + 2 ** 590
        queue, iterates = queued_blocks(x, single, (10 ** 6,))
        (_, low, block, n), = queue
        assert x.bit_length() == 600 and low.bit_length() <= 536
        assert n == len(iterates) > 200
        spoiled = [0, n // 2, n - 1]
        decide, exact, rebuilt = cz.digits_from_log, cz.leading_digit, []

        def spoil(f, band, base):
            digits = decide(f, band, base)
            assert (digits[spoiled] > 0).all()
            digits[spoiled] = 0
            return digits

        def recompute(v, base):
            rebuilt.append(v)
            return exact(v, base)

        monkeypatch.setattr(cz, "digits_from_log", spoil)
        monkeypatch.setattr(cz, "leading_digit", recompute)
        counts = np.zeros(9, dtype=np.int64)
        n_refined = cz._decide(queue, [], single, 10, counts)
        assert rebuilt == [iterates[i] for i in spoiled]
        assert n_refined == len(spoiled)
        want = [exact(v, 10) for v in iterates]
        assert counts.tolist() == np.bincount(np.subtract(want, 1),
                                              minlength=9).tolist()


class TestTailDigits:
    @pytest.mark.parametrize("base", list(range(2, 17)) + [65536])
    def test_bracket_against_exact_floor_log(self, base):
        # d B^k - 1, d B^k and d B^k + 1 for every B^k under 2**1088, far
        # past the ints of fewer than _BLOCK_FLOOR + 64 bits the tail holds
        ds = range(1, base) if base <= 16 else (1, 2, 255, 256, 65535)
        xs, k = [], 0
        while base ** k < 2 ** 1088:
            xs += [d * base ** k + h for d in ds for h in (-1, 0, 1)]
            k += 1
        xs = [x for x in xs if x >= 1]
        exact = np.array([a // b for _, a, b in
                          (_exact_floor_log(x, base) for x in xs)])
        brackets = [_log_bracket(x, 1, base) for x in xs]
        none = np.zeros(0, dtype=np.int64)
        f, band = cz._batch_logs((), xs, none, none, none, base)
        assert f.tolist() == [v - math.floor(v) for v, _ in brackets]
        assert band.tolist() == [pad for _, pad in brackets]
        digits = digits_from_log(f, band, base)
        certified = digits > 0
        assert np.array_equal(digits[certified], exact[certified])
        counts = np.zeros(base - 1, dtype=np.int64)
        assert cz._decide([], xs, False, base, counts) == 0
        assert np.array_equal(counts,
                              np.bincount(exact - 1, minlength=base - 1))

    # single steps from 2**62 + 1 and accelerated ones from 2**62 + 7 put
    # iterates either side of 2**63 in one batch, a list numpy reads as
    # float64
    @pytest.mark.parametrize("mode, x0", [("single_step", 2 ** 62 + 1),
                                          ("remove_all_twos", 2 ** 62 + 7)])
    def test_batch_either_side_of_2_63(self, mode, x0):
        res = cz.iterate_digit_experiment(x0, mode, 10)
        counts, n, reached = stepwise_digits(x0, mode, 10, 10 ** 7)
        assert res.histogram.counts.tolist() == counts
        assert (res.n_recorded, res.reached_one) == (n, reached)

    @pytest.mark.parametrize("base", [2, 3, 7, 10, 16, 1000, 65536])
    def test_trajectory_through_a_power(self, base):
        # 3 * 333 + 1 = 1000 = 10^3
        res = cz.iterate_digit_experiment(333, "single_step", base)
        counts, n, reached = stepwise_digits(333, "single_step", base, 10 ** 7)
        assert res.histogram.counts.tolist() == counts
        assert (res.n_recorded, res.reached_one) == (n, reached)
