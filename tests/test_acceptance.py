"""End-to-end acceptance checks, one test per criterion, run as a checklist.

Heavy shared computations (the 10^5-seed census, the 100,000-digit
trajectory runs, the 65,536-point line scan, the 10^5-sample unitary
ensembles) are session-scoped fixtures; the whole module takes a few
minutes.  Run with ``pytest tests/test_acceptance.py -v -s`` to see one
pass/fail line per criterion.
"""

import itertools
import math

import numpy as np
import pytest

from benford_lab import benford_stats as bs
from benford_lab import collatz as cz
from benford_lab import core_numeric as cn
from benford_lab import equidist as eq
from benford_lab import rmt
from benford_lab import zeta as zt

from conftest import make_rng
from test_zeta import eta_euler_transform, zeta2_oracle

CENSUS_START = 419_753_999_998_525
CENSUS_COUNT = 100_000
CENSUS_M = 10

CHI2_05_8DOF = 15.51
CHI2_01_8DOF = 20.09

# observed base-10 digit frequencies of the reference run (percent)
REFERENCE_BASE10_ROW = np.array(
    [29.8, 17.9, 12.1, 10.0, 8.5, 9.8, 2.4, 8.7, 0.9]) / 100.0


def report(criterion: str, detail: str) -> None:
    print(f"[{criterion}] PASS: {detail}")


@pytest.fixture(scope="session")
def census_seeds():
    return cz.census_1mod6(CENSUS_START, CENSUS_COUNT)


@pytest.fixture(scope="session")
def bignum_runs():
    seed_value = cn.random_bignat(100_000, 10, make_rng(0))
    runs = {}
    for mode in ("remove_all_twos", "single_step"):
        runs[mode] = cz.iterate_digit_experiment(seed_value, mode, base=10)
    return runs


@pytest.fixture(scope="session")
def zeta_scan():
    return zt.scan_line(0.0, 16383.75, 0.25, zt.SigmaMode.fixed(0.5),
                        base=10)


@pytest.fixture(scope="session")
def cue_runs():
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rmt, "_CHUNK", 2000)
        for dim in (64, 4):
            out[dim] = rmt.cue_experiment(dim, 100_000, 10, make_rng(0),
                                          workers=2)
    return out


def test_criterion_1_base4_ratio_table(census_seeds):
    result = cz.ratio_digit_experiment(census_seeds, CENSUS_M, 4)
    freq = 100.0 * result.observed_freq()
    assert abs(freq[0] - 50.0) < 1.0, freq
    assert abs(freq[1] - 50.0) < 1.0, freq
    assert result.histogram.counts[2] == 0
    report("criterion 1",
           f"base-4 digits {freq[0]:.2f}% / {freq[1]:.2f}% "
           f"(digit 3 count {int(result.histogram.counts[2])})")


def test_criterion_2_base8_base16_tables(census_seeds):
    res8 = cz.ratio_digit_experiment(census_seeds, CENSUS_M, 8)
    f8 = 100.0 * res8.observed_freq()
    for d in (1, 2, 4):
        assert abs(f8[d - 1] - 100.0 / 3.0) < 1.5, f8
    for d in (3, 5, 6, 7):
        assert res8.histogram.counts[d - 1] == 0
    res16 = cz.ratio_digit_experiment(census_seeds, CENSUS_M, 16)
    f16 = 100.0 * res16.observed_freq()
    for d in (1, 2, 4, 8):
        assert abs(f16[d - 1] - 25.0) < 1.5, f16
    for d in range(1, 16):
        if d not in (1, 2, 4, 8):
            assert res16.histogram.counts[d - 1] == 0
    report("criterion 2",
           f"base-8 {f8[0]:.2f}/{f8[1]:.2f}/{f8[3]:.2f}%, "
           f"base-16 {f16[0]:.2f}/{f16[1]:.2f}/{f16[3]:.2f}/{f16[7]:.2f}%")


def test_criterion_3_base10_ratio_table(census_seeds):
    result = cz.ratio_digit_experiment(census_seeds, CENSUS_M, 10)
    freq = result.observed_freq()
    assert abs(100.0 * freq[0] - 29.8) < 2.0
    assert abs(100.0 * freq[1] - 17.9) < 2.0
    tv = 0.5 * np.abs(freq - REFERENCE_BASE10_ROW).sum()
    assert tv < 0.04, tv
    report("criterion 3",
           f"digit-1 {100 * freq[0]:.2f}%, digit-2 {100 * freq[1]:.2f}%, "
           f"TV to reference row {tv:.4f}")


def test_criterion_4_bignum_trajectories(bignum_runs):
    details = []
    for mode, result in bignum_runs.items():
        rep = bs.z_statistics(result.histogram)
        max_z = max(abs(z) for *_, z in rep.per_digit)
        assert rep.chi_square < CHI2_05_8DOF, (mode, rep.chi_square)
        assert max_z < 3.5, (mode, max_z)
        details.append(f"{mode}: {result.n_recorded} iterates, "
                       f"chi2={rep.chi_square:.2f}, max|z|={max_z:.2f}")
    n_rm = bignum_runs["remove_all_twos"].n_recorded
    n_ss = bignum_runs["single_step"].n_recorded
    assert 2.0 * 10 ** 5 < n_rm < 3.2 * 10 ** 6
    assert 2.5 < n_ss / n_rm < 3.5
    report("criterion 4", "; ".join(details))


def test_criterion_4_trajectory_histograms_are_pinned(bignum_runs):
    # every block digit is certified by the rule, none refined exactly
    pinned = {
        "remove_all_twos": (800_322, [241390, 140452, 99628, 77498, 63157,
                                      53612, 46616, 41133, 36836]),
        "single_step": (2_400_989, [723301, 423014, 300001, 232640, 189481,
                                    160522, 138985, 122980, 110065]),
    }
    for mode, (n_recorded, counts) in pinned.items():
        result = bignum_runs[mode]
        assert result.n_recorded == n_recorded, mode
        assert result.histogram.counts.tolist() == counts, mode
        assert result.n_refined == 0, mode


def test_criterion_5_structure_theorem_scan():
    tuples = []
    for m in range(1, 4):
        for combo in itertools.product(range(1, 13), repeat=m):
            if sum(combo) <= 12:
                tuples.append(combo)
    assert len(tuples) == 298
    for kt in tuples:
        modulus = 6 * 2 ** sum(kt)
        limit = 4 * modulus
        pred = cz.inverse_path_bruteforce(kt, limit)  # raises on failure
        assert pred.modulus == modulus
        assert sorted(r % 6 for r in pred.residues) == [1, 5]
        emp, theo = cz.path_probability_check(kt, limit)
        n_domain = 2 * (limit // 6) + 1  # both residue classes mod 6
        sd = math.sqrt(theo * (1.0 - theo) / n_domain)
        assert abs(emp - theo) <= 3.0 * sd + 1e-12, (kt, emp, theo)
    report("criterion 5",
           f"{len(tuples)} multiplicity tuples: two full progressions, "
           f"residues in {{1,5}} mod 6, densities within 3 sigma")


def test_criterion_6_multiplicity_law(census_seeds):
    stats = cz.kvalue_histogram(cz.THREE_X_PLUS_1, census_seeds, CENSUS_M)
    assert stats.total == CENSUS_COUNT * CENSUS_M
    worst = 0.0
    for n in range(1, 11):
        p_hat, p_ref = stats.empirical(n), 2.0 ** -n
        sd = math.sqrt(p_ref * (1.0 - p_ref) / stats.total)
        worst = max(worst, abs(p_hat - p_ref) / sd)
        assert abs(p_hat - p_ref) < 3.0 * sd, (n, p_hat, p_ref)
    assert abs(stats.mean - 2.0) < 0.02
    assert abs(stats.variance - 2.0) < 0.05
    report("criterion 6",
           f"mean {stats.mean:.4f}, variance {stats.variance:.4f}, "
           f"worst |z| over k=1..10: {worst:.2f}")


def test_criterion_7_theta_identity():
    worst = 0.0
    for sigma in (0.1, 0.5, 1.0, 2.0, 10.0, 50.0):
        worst = max(worst, eq.theta_identity_residual(sigma))
    assert worst < 1e-12
    report("criterion 7", f"max residual over the sigma sweep: {worst:.2e}")


def test_criterion_8_gaussian_spreading():
    worst = 0.0
    for a, b in ((0.0, 0.3), (0.3, 0.7), (0.2, 0.9)):
        dev = abs(eq.gaussian_mod1_mass(10.0, a, b) - (b - a))
        worst = max(worst, dev)
        assert dev < 1e-8, (a, b, dev)
    s1 = eq.condition_char_decay(1.0)
    lead = 2.0 * math.exp(-2.0 * math.pi ** 2)
    assert s1 < 1e-8
    assert abs(s1 - lead) < 0.01 * lead
    report("criterion 8",
           f"max |mass - (b-a)| = {worst:.2e}; S(1) = {s1:.3e}")


def test_criterion_9_rotation_orbit_discrepancy():
    alpha = eq.log_ratio(2, 10)
    pts = eq.kalpha_points(alpha, 10 ** 6)
    star = bs.star_discrepancy(pts)
    bound = bs.erdos_turan_bound(pts, 1000)
    assert star < 1e-3
    assert star < bound
    assert star < bs.star_discrepancy(pts[:10 ** 4])  # decay in N
    rng = make_rng(2024)
    m_block = 10 ** 4
    for _ in range(20):
        ell = int(rng.integers(0, 1000))
        a = float(rng.uniform(0.0, 0.9))
        b = float(rng.uniform(a + 0.05, 1.0))
        count, expect = eq.interval_count(alpha, m_block, ell, a, b)
        assert abs(count - expect) < m_block ** 0.9, (ell, a, b)
    report("criterion 9",
           f"star discrepancy {star:.2e} < 1e-3 and < ET bound {bound:.2e}; "
           f"20 interval counts within M^0.9")


def test_criterion_10_zeta_digit_profile(zeta_scan):
    assert zeta_scan.histogram.total + len(zeta_scan.skipped) == 65_536
    freq = zeta_scan.histogram.frequencies()
    tv = 0.5 * np.abs(freq - bs.benford_probabilities(10)).sum()
    assert tv < 0.03, tv
    ref2, width2 = zeta2_oracle()
    assert width2 < 1e-9
    assert abs(zt.zeta(2.0) - ref2) < 1e-8
    eta_ref = eta_euler_transform(complex(0.5, 0.0)) / (1.0 - math.sqrt(2.0))
    assert abs(zt.zeta(0.5) - eta_ref) < 1e-8
    report("criterion 10",
           f"TV to Benford {tv:.4f} over {zeta_scan.histogram.total} points "
           f"({len(zeta_scan.skipped)} skipped, {zeta_scan.refined} refined); "
           f"spot values match oracles to 1e-8")


def test_criterion_10_halfline_histogram_is_pinned(zeta_scan):
    # certified digits cannot move when the evaluation route changes, and
    # every route's band is tight enough that no point needs refinement
    assert zeta_scan.histogram.counts.tolist() == \
        [20314, 11508, 8072, 6249, 5006, 4325, 3782, 3251, 3029]
    assert zeta_scan.refined == 0


def test_cue_histograms_are_pinned(cue_runs):
    # CUE digits are the rule's band-0 mid digits of log|Z| / ln 10 mod 1
    assert cue_runs[64].histogram.counts.tolist() == \
        [30080, 17380, 12601, 9737, 7981, 6700, 5833, 4988, 4700]
    assert cue_runs[4].histogram.counts.tolist() == \
        [31609, 20324, 13274, 9229, 6808, 5514, 4887, 4261, 4094]


def test_criterion_11_cue_statistics(cue_runs):
    res64, res4 = cue_runs[64], cue_runs[4]
    q2 = rmt.q2_variance(64)
    rel = abs(res64.moments.variance - q2) / q2
    assert rel < 0.05, rel
    chi64, dof = bs.chi_square(res64.histogram)
    chi4, _ = bs.chi_square(res4.histogram)
    assert dof == 8
    assert chi64 < CHI2_01_8DOF, chi64
    assert chi64 < chi4, (chi64, chi4)
    # small-dimension determinant oracle: elimination vs eigenangles
    rng = make_rng(99)
    for dim in (2, 4, 8):
        u = rmt.haar_unitary(dim, rng).matrix
        theta = float(rng.uniform(0, 2 * math.pi))
        got = rmt.log_abs_charpoly(u, theta)
        ang = np.angle(np.linalg.eigvals(u))
        ref = float(np.log(np.abs(2 * np.sin((ang - theta) / 2))).sum())
        assert abs(got - ref) < 1e-8
    report("criterion 11",
           f"variance {res64.moments.variance:.4f} vs Q2 {q2:.4f} "
           f"({100 * rel:.2f}%); chi2: N=4 {chi4:.1f} -> N=64 {chi64:.2f} "
           f"< {CHI2_01_8DOF}; small-N oracle to 1e-8")


def test_criterion_11_normality_moment_tolerances(cue_runs):
    """Stated tolerances |skew| < 0.05 and |kurt - 3| < 0.1 at N = 64.

    These bounds are not attainable for the true ensemble: the exact
    cumulants of the log-magnitude (from the Selberg-integral moment
    formula E|Z|^t = prod_j Gamma(j) Gamma(j+t) / Gamma(j+t/2)^2) give
    skewness -0.506 and kurtosis 3.767 at N = 64, and the sampled moments
    land on those values.  Gaussian moments emerge only at the
    (log N)^(-3/2) rate, which would need N beyond e^25.  The distribution
    IS the correct one; the tolerance is the defect.  Kept as stated.
    """
    moments = cue_runs[64].moments
    print(f"[criterion 11 normality-moments] sampled skew="
          f"{moments.skewness:.4f} kurt={moments.kurtosis:.4f}; exact-law "
          f"values are -0.506 / 3.767, so the stated 0.05 / 0.1 windows "
          f"cannot hold at N=64")
    assert abs(moments.skewness) < 0.05, (
        f"skewness {moments.skewness:.4f}: the exact law at N=64 has "
        f"skewness -0.506, so the stated tolerance cannot be met")
    assert abs(moments.kurtosis - 3.0) < 0.1


def test_criterion_12_worker_determinism(monkeypatch):
    monkeypatch.setattr(rmt, "_CHUNK", 512)
    runs = [rmt.cue_experiment(16, 6000, 10, make_rng(5), workers=w)
            for w in (1, 2, 4)]
    for other in runs[1:]:
        assert np.array_equal(runs[0].log_abs, other.log_abs)
        assert np.array_equal(runs[0].thetas, other.thetas)
        assert np.array_equal(runs[0].histogram.counts,
                              other.histogram.counts)
    # the census engines are deterministic functions of their arguments
    seeds = cz.census_1mod6(CENSUS_START, 5000)
    a = cz.ratio_digit_experiment(seeds, CENSUS_M, 10).histogram.counts
    b = cz.ratio_digit_experiment(seeds, CENSUS_M, 10).histogram.counts
    assert np.array_equal(a, b)
    report("criterion 12",
           "identical outputs across worker counts 1/2/4 and reruns")
