import cmath
import math
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.special import polygamma

from benford_lab import cli, rmt
from benford_lab.core_numeric import DomainError, digits_from_log

from conftest import csv_fields, make_rng


def exact_cumulants(n):
    """Cumulants of log|Z| from E|Z|^t = prod_j G(j)G(j+t)/G(j+t/2)^2."""
    j = np.arange(1, n + 1)
    k2 = 0.5 * polygamma(1, j).sum()
    k3 = 0.75 * polygamma(2, j).sum()
    k4 = (7.0 / 8.0) * polygamma(3, j).sum()
    return float(k2), float(k3), float(k4)


def whole_chunk(n, count, gen, rule=rmt._log_abs_from_normals):
    """A CUE chunk with no slices: the per-sample rule runs once over every
    sample, and every round of resampling reruns it over the whole chunk."""
    re = gen.standard_normal((count, n, n))
    im = gen.standard_normal((count, n, n))
    thetas = gen.uniform(0.0, 2.0 * math.pi, size=count)
    buf = np.empty(re.shape, dtype=complex)
    resampled = 0
    while True:
        log_abs, bad = rule(re, im, thetas, buf)
        if not bad.any():
            return (re, im), thetas, log_abs, resampled
        resampled += int(bad.sum())
        thetas[bad] = gen.uniform(0.0, 2.0 * math.pi, size=int(bad.sum()))


def mp_log_abs_charpolys(re, im, thetas):
    """log|det(I - U e^(-i theta))| at 40 digits for each theta.  U is the
    Q factor of re + i im by modified Gram-Schmidt, whose R has a real
    positive diagonal, as the rephasing of the Haar recipe makes it; each
    determinant is Gaussian elimination with partial pivoting."""
    n = len(re)
    out = []
    with mpmath.workdps(40):
        us = []   # the columns of U
        for j in range(n):
            v = [mpmath.mpc(x, y) for x, y in zip(re[:, j], im[:, j])]
            for u in us:
                c = mpmath.fdot(v, u, conjugate=True)
                v = [x - c * y for x, y in zip(v, u)]
            norm = mpmath.sqrt(mpmath.fdot(v, v, conjugate=True).real)
            us.append([x / norm for x in v])
        for theta in thetas:
            rot = mpmath.expj(-theta)
            z = [[(i == j) - us[j][i] * rot for j in range(n)]
                 for i in range(n)]
            log_abs = mpmath.mpf(0)
            for k in range(n):
                p = max(range(k, n), key=lambda i: abs(z[i][k]))
                z[k], z[p] = z[p], z[k]
                log_abs += mpmath.log(abs(z[k][k]))
                for i in range(k + 1, n):
                    f = z[i][k] / z[k][k]
                    z[i] = [x - f * y for x, y in zip(z[i], z[k])]
            out.append(float(log_abs))
    return out


def stream(seed):
    """The first spawned chunk stream, as cue_experiment spawns it."""
    return make_rng(seed).spawn(1)[0]


class TestHaarSampling:
    def test_dim_one_is_a_phase(self):
        u = rmt.haar_unitary(1, make_rng(1))
        assert abs(abs(u.matrix[0, 0]) - 1.0) < 1e-12

    def test_unitarity_residuals(self):
        rng = make_rng(2)
        for _ in range(50):
            u = rmt.haar_unitary(50, rng)
            assert rmt.unitarity_residual(u.matrix) < 1e-10

    def test_trace_moments(self):
        # E[Tr U] = 0 and E|Tr U|^2 = 1 for Haar measure
        rng = make_rng(3)
        n_samp = 6000
        re = rng.standard_normal((n_samp, 20, 20))
        us = rmt._haar_from_normals(re, rng.standard_normal((n_samp, 20, 20)))
        traces = np.trace(us, axis1=-2, axis2=-1)
        assert abs(traces.mean()) < 4.0 / math.sqrt(n_samp)
        assert abs(np.mean(np.abs(traces) ** 2) - 1.0) < 0.1

    @pytest.mark.parametrize("n", [1, 2, 5, 64])
    def test_one_matrix_is_the_stack_rule(self, n):
        # haar_unitary draws re then im, n x n each, and gives the bits the
        # stacked rule gives for a stack of one
        gen = make_rng(6)
        re, im = gen.standard_normal((2, 1, n, n))
        assert np.array_equal(rmt.haar_unitary(n, make_rng(6)).matrix,
                              rmt._haar_from_normals(re, im)[0])

    def test_dim_validation(self):
        with pytest.raises(DomainError):
            rmt.haar_unitary(0, make_rng(0))
        with pytest.raises(DomainError):
            rmt.haar_unitary(513, make_rng(0))


class TestLogAbsCharpoly:
    def test_dim_one_closed_form(self):
        alpha = 1.234
        u = np.array([[cmath.exp(1j * alpha)]])
        for theta in (0.0, 0.5, 3.0):
            got = rmt.log_abs_charpoly(u, theta)
            ref = math.log(abs(2.0 * math.sin((alpha - theta) / 2.0)))
            assert abs(got - ref) < 1e-12

    def test_small_dim_eigenangle_oracle(self):
        rng = make_rng(7)
        for n in (2, 3, 5, 8):
            u = rmt.haar_unitary(n, rng).matrix
            theta = 0.789
            got = rmt.log_abs_charpoly(u, theta)
            ang = np.angle(np.linalg.eigvals(u))
            ref = float(np.log(np.abs(2.0 * np.sin((ang - theta) / 2.0))).sum())
            assert abs(got - ref) < 1e-8

    def test_cofactor_oracle_3x3(self):
        u = rmt.haar_unitary(3, make_rng(9)).matrix
        theta = 0.4
        a = np.eye(3) - u * cmath.exp(-1j * theta)
        det = (a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
               - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
               + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0]))
        assert abs(rmt.log_abs_charpoly(u, theta) - math.log(abs(det))) < 1e-10

    def test_singular_rejected(self):
        u = np.array([[1.0 + 0.0j]])  # eigenangle 0 hit exactly by theta = 0
        with pytest.raises(rmt.SingularMatrixError):
            rmt.log_abs_charpoly(u, 0.0)


class TestSlices:
    # slices hold at most 2^16 // n^2 matrices: 16,384 at N = 2, 16 at
    # N = 64 and 6 at N = 100, so 130 and 62 end in a partial slice and 60
    # in a full one
    @pytest.mark.parametrize("n, count", [(2, 300), (5, 70), (64, 130),
                                          (100, 60), (100, 62)])
    def test_bit_identical_to_the_whole_chunk(self, n, count):
        normals, thetas, log_abs, resampled = whole_chunk(n, count,
                                                          stream(21))
        got = rmt._cue_chunk(n, count, 10, stream(21),
                             rmt._Workspace(n, count))
        assert np.array_equal(got[0], thetas)
        assert np.array_equal(got[1], log_abs)
        assert got[3] == resampled
        # the Haar rule, too, gives each matrix the same bits in any slice
        re, im = normals
        assert np.array_equal(
            np.concatenate([rmt._haar_from_normals(re[s], im[s])
                            for s in rmt._slices(count, n)]),
            rmt._haar_from_normals(re, im))

    def test_resampling_recomputes_only_the_flagged(self, monkeypatch):
        n, count = 64, 130
        _, first, _, _ = whole_chunk(n, count, stream(22))
        targets = first[[3, 17, 64, 129]]   # in four slices, the last partial
        real = rmt._log_abs_from_normals

        def flag_once(re, im, thetas, buf):
            # a flagged sample draws a new theta, so it is flagged once
            log_abs, bad = real(re, im, thetas, buf)
            return log_abs, bad | np.isin(thetas, targets)
        _, thetas, log_abs, resampled = whole_chunk(n, count, stream(22),
                                                    flag_once)
        monkeypatch.setattr(rmt, "_log_abs_from_normals", flag_once)
        got = rmt._cue_chunk(n, count, 10, stream(22),
                             rmt._Workspace(n, count))
        assert resampled == got[3] == 4
        assert not np.isin(thetas, targets).any()
        assert np.array_equal(got[0], thetas)
        assert np.array_equal(got[1], log_abs)

    def test_chunk_memory_is_its_normals_plus_slices(self):
        n, count = 64, 512
        normals = 2 * count * n * n * 8   # re and im: 32 MiB
        tracemalloc.start()
        try:
            rmt._cue_chunk(n, count, 10, stream(23), rmt._Workspace(n, count))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= normals + 32 * 2 ** 20


def fresh_experiment(n, n_samples, base, rng, chunk):
    """cue_experiment's chunks with fresh arrays for every draw: thetas,
    log|Z|, digit counts and resampled, concatenated over the spawned
    streams."""
    sizes = [chunk] * (n_samples // chunk) + [n_samples % chunk] * \
        bool(n_samples % chunk)
    thetas, log_abs, counts, resampled = [], [], np.zeros(base - 1, int), 0
    for gen, count in zip(rng.spawn(len(sizes)), sizes):
        _, th, la, res = whole_chunk(n, count, gen)
        f = np.mod(la / math.log(base), 1.0)
        digits = digits_from_log(f, 0.0, base)
        rest = digits == 0
        digits[rest] = np.clip(np.floor(np.exp(f[rest] * math.log(base))),
                               1, base - 1)
        thetas.append(th)
        log_abs.append(la)
        counts += np.bincount(digits, minlength=base)[1:]
        resampled += res
    return np.concatenate(thetas), np.concatenate(log_abs), counts, resampled


class TestWorkspace:
    # every chunk a worker runs draws into that worker's workspace; chunks
    # of 9 samples at N = 5 (41 samples: four full, one of 5) and of 20 at
    # N = 64 (47 samples: two full, one of 7; slices of 16)
    @pytest.mark.parametrize("n, n_samples, chunk", [(5, 41, 9),
                                                     (64, 47, 20)])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_bit_identical_to_fresh_draws(self, n, n_samples, chunk,
                                          workers, monkeypatch):
        monkeypatch.setattr(rmt, "_CHUNK", chunk)
        thetas, log_abs, counts, resampled = fresh_experiment(
            n, n_samples, 10, make_rng(27), chunk)
        got = rmt.cue_experiment(n, n_samples, 10, make_rng(27),
                                 workers=workers)
        assert np.array_equal(got.thetas, thetas)
        assert np.array_equal(got.log_abs, log_abs)
        assert got.histogram.counts.tolist() == counts.tolist()
        assert got.resampled == resampled

    @pytest.mark.parametrize("workers, n_samples", [(1, 41), (2, 41),
                                                    (3, 41), (4, 41),
                                                    (4, 18), (3, 5)])
    def test_at_most_one_workspace_per_thread(self, workers, n_samples,
                                              monkeypatch):
        # chunks of 9: 41 samples make five chunks, 18 two and 5 one
        monkeypatch.setattr(rmt, "_CHUNK", 9)
        built = []

        class Counted(rmt._Workspace):
            def __init__(self, n, count):
                built.append(count)
                super().__init__(n, count)
        monkeypatch.setattr(rmt, "_Workspace", Counted)
        rmt.cue_experiment(5, n_samples, 10, make_rng(28), workers=workers)
        chunks = -(-n_samples // 9)
        assert 1 <= len(built) <= min(workers, chunks)
        # each is sized for the largest chunk
        assert set(built) == {min(n_samples, 9)}

    def test_no_workspace_is_shared_under_thread_switches(self, monkeypatch):
        # 8 threads on 21 chunks with a thread switch every microsecond: a
        # chunk that drew into a workspace another chunk was using would
        # change that chunk's samples
        monkeypatch.setattr(rmt, "_CHUNK", 3)
        want = rmt.cue_experiment(5, 61, 10, make_rng(29), workers=1)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = rmt.cue_experiment(5, 61, 10, make_rng(29), workers=8)
        finally:
            sys.setswitchinterval(switch)
        assert np.array_equal(got.thetas, want.thetas)
        assert np.array_equal(got.log_abs, want.log_abs)
        assert np.array_equal(got.histogram.counts, want.histogram.counts)


class TestRFactorRule:
    # the chunk's log|Z| comes from R and A = re + i im alone; U = QD is
    # never formed, so both oracles build U from the same normals
    @pytest.mark.parametrize("n", [2, 5, 64])
    def test_agrees_with_the_q_path(self, n):
        got = rmt._cue_chunk(n, 40, 10, stream(24), rmt._Workspace(n, 40))
        gen = stream(24)
        re = gen.standard_normal((40, n, n))
        us = rmt._haar_from_normals(re, gen.standard_normal((40, n, n)))
        ref = [rmt.log_abs_charpoly(u, th) for u, th in zip(us, got[0])]
        assert np.abs(got[1] - ref).max() < 1e-9

    @pytest.mark.parametrize("n", [2, 5, 16, 64])
    def test_mpmath_determinant_oracle(self, n):
        gen = stream(25)
        re = gen.standard_normal((1, n, n))
        im = gen.standard_normal((1, n, n))
        # a uniform theta, and one 1e-6 past an eigenangle, where one
        # factor of |Z| is about 1e-6 and rounding is amplified the most
        angles = np.angle(np.linalg.eigvals(rmt._haar_from_normals(re, im)[0]))
        thetas = np.array([gen.uniform(0.0, 2.0 * math.pi),
                           angles[0] + 1e-6])
        log_abs, bad = rmt._charpolys_from_normals(
            np.repeat(re, 2, axis=0), np.repeat(im, 2, axis=0), thetas,
            np.empty((2, n, n), dtype=complex))
        assert not bad.any()
        ref = mp_log_abs_charpolys(re[0], im[0], thetas.tolist())
        assert np.abs(log_abs - ref).max() < 1e-9, (log_abs, ref)


class TestChunkDigits:
    @pytest.mark.parametrize("base", [2, 3, 10, 16, 65536])
    def test_undecided_sample_takes_the_float_digit(self, base, monkeypatch):
        # log|Z| on, one ulp beside, 1e-15 beside and mid-way between the
        # digit bounds: every sample is counted, a certified one with its
        # digit and one that band 0 leaves undecided with floor(B**f),
        # kept within [1, B - 1]
        lb = math.log(base)
        ds = np.arange(1, min(base, 200))
        bounds = np.concatenate([np.log(ds) + k * lb for k in (-3, 0, 2)])
        log_abs = np.concatenate([
            bounds, np.nextafter(bounds, -np.inf),
            np.nextafter(bounds, np.inf), bounds - 1e-15, bounds + 1e-15,
            bounds + math.log1p(0.5 / ds[-1])])

        def charpolys(re, im, thetas, buf):
            return log_abs.copy(), np.zeros(log_abs.size, dtype=bool)
        monkeypatch.setattr(rmt, "_charpolys_from_normals", charpolys)
        counts = rmt._cue_chunk(2, log_abs.size, base, stream(26),
                                rmt._Workspace(2, log_abs.size))[2]
        f = np.mod(log_abs / lb, 1.0)
        want = np.clip(np.floor(np.exp(f * lb)), 1, base - 1).astype(int)
        assert counts.tolist() \
            == np.bincount(want, minlength=base)[1:].tolist()
        digits = digits_from_log(f, 0.0, base)
        certified = digits > 0
        assert certified.any() and not certified.all()
        assert np.array_equal(digits[certified], want[certified])


class TestQ2Variance:
    def test_values(self):
        assert abs(rmt.q2_variance(1) - (0.5 * (rmt.EULER_GAMMA + 1)
                                         + 1.0 / 24.0)) < 1e-12
        assert abs(rmt.q2_variance(10) - 1.94032) < 2e-5

    def test_doubling_gap(self):
        for n in (64, 128, 256):
            gap = rmt.q2_variance(2 * n) - rmt.q2_variance(n)
            assert abs(gap - math.log(2) / 2) < 1e-4

    def test_matches_exact_second_cumulant(self):
        for n in (4, 16, 64):
            k2, _, _ = exact_cumulants(n)
            assert abs(rmt.q2_variance(n) - k2) < 1e-4


class TestCueExperiment:
    def test_moments_match_exact_cumulants(self, monkeypatch):
        n, n_samp = 16, 20_000
        monkeypatch.setattr(rmt, "_CHUNK", 4000)
        res = rmt.cue_experiment(n, n_samp, 10, make_rng(11))
        k2, k3, k4 = exact_cumulants(n)
        skew_ref = k3 / k2 ** 1.5
        kurt_ref = 3.0 + k4 / k2 ** 2
        assert abs(res.moments.mean) < 4 * math.sqrt(k2 / n_samp)
        assert abs(res.moments.variance - k2) < 0.05 * k2
        assert abs(res.moments.skewness - skew_ref) < 0.12
        assert abs(res.moments.kurtosis - kurt_ref) < 0.6
        assert res.moments.q2_reference == rmt.q2_variance(n)

    def test_theta_rotation_invariance(self, monkeypatch):
        # the law of log|Z| does not depend on a fixed rotation of theta
        monkeypatch.setattr(rmt, "_CHUNK", 2000)
        res_a = rmt.cue_experiment(8, 8000, 10, make_rng(13))
        res_b = rmt.cue_experiment(8, 8000, 10, make_rng(14))
        assert abs(res_a.moments.mean - res_b.moments.mean) < 0.08
        assert abs(res_a.moments.variance - res_b.moments.variance) < 0.12

    def test_worker_count_never_changes_results(self, monkeypatch):
        monkeypatch.setattr(rmt, "_CHUNK", 512)
        r1 = rmt.cue_experiment(12, 3000, 10, make_rng(16), workers=1)
        r2 = rmt.cue_experiment(12, 3000, 10, make_rng(16), workers=4)
        assert np.array_equal(r1.log_abs, r2.log_abs)
        assert np.array_equal(r1.thetas, r2.thetas)
        assert np.array_equal(r1.histogram.counts, r2.histogram.counts)

    def test_standardized_stream(self, monkeypatch):
        monkeypatch.setattr(rmt, "_CHUNK", 32)
        res = rmt.cue_experiment(6, 50, 10, make_rng(17))
        rows = csv_fields(cli._cue_rows(res))
        assert len(rows) == 50
        scale = math.sqrt(rmt.q2_variance(6))
        for row, log_abs in zip(rows[:5], res.log_abs[:5]):
            standardized = float(row[3])
            assert abs(standardized - log_abs / scale) < 1e-12
            assert math.isfinite(standardized)

    def test_validation(self):
        with pytest.raises(DomainError):
            rmt.cue_experiment(1, 10, 10, make_rng(0))
        with pytest.raises(DomainError):
            rmt.cue_experiment(8, 0, 10, make_rng(0))
