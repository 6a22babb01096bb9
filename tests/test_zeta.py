import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from benford_lab import cli
from benford_lab import zeta as zt
from benford_lab.core_numeric import _CSV_BLOCK, DomainError

from conftest import csv_fields

_TWO_PI = 2.0 * math.pi


def zeta2_oracle():
    """Direct sum of 1/n^2 with an integral tail bracket (no library code)."""
    n = np.arange(1, 100_001, dtype=np.float64)
    s = float((1.0 / (n * n)).sum())
    lo, hi = s + 1.0 / 100_001, s + 1.0 / 100_000
    return 0.5 * (lo + hi), 0.5 * (hi - lo)


def eta_euler_transform(s: complex, depth: int = 48) -> complex:
    """Independently coded Euler transform of the alternating series."""
    a = [complex(k + 1) ** -s for k in range(depth + 1)]
    total = 0.0 + 0.0j
    # eta(s) = sum_n (-1)^n Delta^n a_0 / 2^(n+1), forward differences
    diffs = list(a)
    for n in range(depth + 1):
        total += (-1) ** n * diffs[0] / 2 ** (n + 1)
        diffs = [diffs[i + 1] - diffs[i] for i in range(len(diffs) - 1)]
    return total


class TestSpotValues:
    def test_zeta_two_against_sum_oracle(self):
        ref, width = zeta2_oracle()
        assert width < 1e-10
        assert abs(zt.zeta(2.0) - ref) < 1e-8
        assert abs(zt.zeta(2.0) - math.pi ** 2 / 6) < 1e-10

    def test_zeta_half_against_eta_oracle(self):
        eta = eta_euler_transform(complex(0.5, 0.0))
        ref = eta / (1.0 - 2.0 ** 0.5)
        assert abs(ref - (-1.4603545088)) < 1e-9
        assert abs(zt.zeta(0.5) - ref) < 1e-8

    def test_first_zero_magnitude(self):
        val, err = zt.zeta_eval(complex(0.5, 14.134725))
        assert abs(val) < 1e-4
        assert err < 1e-12

    def test_off_line_30_digit_oracle(self):
        with mpmath.workdps(30):
            ref = complex(mpmath.zeta(mpmath.mpc(3, 2)))
        got = zt.zeta(complex(3, 2))
        assert abs(got - ref) / abs(ref) < 1e-8


def psi_derivatives_oracle(p: float) -> list:
    """Psi^(j)(p) for j <= 12, Psi(p) = cos(2pi(p^2 - p - 1/16))/cos(2pi p),
    from Cauchy's integral by the trapezoid rule on a circle of radius 1/8.
    Psi is entire, so the rule converges geometrically, and no node lies on
    the real axis, where the removable singularities at p = 1/4, 3/4 are."""
    points, radius = 64, mpmath.mpf(1) / 8
    with mpmath.workdps(30):
        pi = mpmath.pi
        steps = [radius * mpmath.expjpi(mpmath.mpf(2 * k + 1) / points)
                 for k in range(points)]
        vals = [mpmath.cos(2 * pi * ((p + h) ** 2 - (p + h) - 0.0625))
                / mpmath.cos(2 * pi * (p + h)) for h in steps]
        return [float(mpmath.factorial(j) * mpmath.fsum(
            v * h ** -j for v, h in zip(vals, steps)).real / points)
            for j in range(13)]


def rs_corrections_oracle(p: float) -> list:
    """Riemann-Siegel corrections C_0..C_4 (Gabcke 1979) from the derivatives
    of Psi."""
    d = psi_derivatives_oracle(p)
    q = math.pi ** 2
    return [d[0],
            -d[3] / (96 * q),
            d[2] / (64 * q) + d[6] / (18432 * q ** 2),
            -d[1] / (64 * q) - d[5] / (3840 * q ** 2)
            - d[9] / (5308416 * q ** 3),
            d[0] / (128 * q) + 19 * d[4] / (24576 * q ** 2)
            + 11 * d[8] / (5898240 * q ** 3)
            + d[12] / (2038431744 * q ** 4)]


def em_point(s: complex):
    """The Euler-Maclaurin route at one point."""
    vals, errs = zt._euler_maclaurin_many([s.real], [s.imag])
    return complex(vals[0]), float(errs[0])


def rs_bound_holds(ts: np.ndarray) -> None:
    """|zeta_RS - mpmath.zeta| <= err for the complex value at every t."""
    vals, errs = zt._riemann_siegel_many(ts)
    with mpmath.workdps(15):
        for t, v, e in zip(ts, vals, errs):
            ref = complex(mpmath.zeta(mpmath.mpc(0.5, t)))
            assert abs(v - ref) <= e, (t, abs(v - ref), e)


class TestRiemannSiegelCorrections:
    def test_corrections_match_psi_derivatives(self):
        # includes the removable singularities p = 1/4, 3/4 and both ends
        for p in (0.0, 0.1, 0.25, 0.4, 0.5, 0.75, 0.9, 0.999):
            ref = rs_corrections_oracle(p)
            got = zt._rs_corrections(np.array([p - 0.5]))[:, 0]
            for k in range(5):
                assert abs(got[k] - ref[k]) <= 1e-15, (p, k, got[k], ref[k])

    def test_bound_on_seeded_grid(self):
        # pins Gabcke's 0.017 tau^(-11/4) plus the floating-point floor over
        # the route's region t >= 200 (the floor dominates from t ~ 5000 on)
        rng = np.random.default_rng(20_260_418)
        ts = np.exp(rng.uniform(math.log(200.0), math.log(1e5), 400))
        ts = np.concatenate([ts, [200.0, np.nextafter(200.0, 1e5),
                                  99_999.75, 1e5]])
        rs_bound_holds(ts)

    def test_removable_singularities(self):
        # p = 1/4 and 3/4, where Psi's closed form is 0/0, from N = 6 on,
        # the first N whose both points lie above t = 200
        big_n = np.array([6, 7, 8, 12, 40, 125])
        ts = np.concatenate([_TWO_PI * (big_n + 0.25) ** 2,
                             _TWO_PI * (big_n + 0.75) ** 2])
        rs_bound_holds(ts)

    def test_gabcke_route_certifies_without_refinement(self):
        res = zt.scan_line(200.0, 4295.75, 0.25, zt.SigmaMode.fixed(0.5))
        assert res.refined == 0
        assert len(res.t) == 16_384 and len(res.skipped) == 0


class TestEulerMaclaurinBatches:
    def test_point_alone_and_in_batch_bit_identical(self):
        # t = 195 shared a chunk cutoff with t = 262 before each point took
        # its own; 5000 gives a row of 6,508 terms
        alone = [em_point(complex(sig, t))
                 for sig, t in ((0.5, 195.0), (0.7, 5000.0), (2.0, 41.5))]
        vals, errs = zt._euler_maclaurin_many(
            [0.5, 0.5, 0.7, 0.5, 2.0, 0.9], [262.0, 195.0, 5000.0, 195.25,
                                             41.5, 4999.5])
        for (v, e), i in zip(alone, (1, 2, 4)):
            assert vals[i] == v and errs[i] == e
        # both Riemann-Siegel routes: N = 40 on 4,000 points, which fill
        # three blocks of 2^16 // 40 = 1,638, and N = 41 on two more
        ts = np.concatenate([np.linspace(10_100.0, 10_500.0, 4_000),
                             [10_600.0, 11_000.0]])
        for route, sig in ((lambda _, t: zt._riemann_siegel_many(t), 0.5),
                           (zt._riemann_siegel_offline_many, 0.75)):
            vals, errs = route(np.full(len(ts), sig), ts)
            for i in (0, 1_637, 1_638, 3_999, 4_000, 4_001):
                v, e = route([sig], [ts[i]])
                assert vals[i] == v[0] and errs[i] == e[0], (sig, i)

    def test_column_tail_matches_scalar_tail(self):
        # the tail as columns against the same formula in Python complex
        # scalars, point by point: the order of operations is the same, so
        # only numpy's and Python's complex arithmetic may differ, by a few
        # ulps of the terms
        rng = np.random.default_rng(20_261_020)
        sigmas = rng.uniform(0.0, 10.0, 50)
        ts = rng.uniform(0.0, 1e5, 50)
        big_n = np.maximum(60, (1.3 * ts).astype(np.int64) + 8).astype(float)
        n_pow_s = big_n ** -sigmas * np.exp(-1j * rng.uniform(0, _TWO_PI, 50))
        tails, rems = zt._em_tail(sigmas + 1j * ts, big_n, n_pow_s)
        for i in range(50):
            tail, rem = zt._em_tail(complex(sigmas[i], ts[i]), float(big_n[i]),
                                    complex(n_pow_s[i]))
            scale = big_n[i] * abs(n_pow_s[i]) / abs(complex(sigmas[i] - 1,
                                                             ts[i]))
            assert abs(tails[i] - tail) <= 1e-14 * (scale + abs(n_pow_s[i]))
            assert abs(rems[i] - rem) <= 1e-14 * rem

    def test_block_memory_is_bounded(self):
        # 64 points at t = 99,000 share the cutoff N = 128,708: a block of
        # 64 rows of phases took 254 MiB, one of 2^16 // N rows does not.
        # 32,768 points on [99,000, 100,000] at sigma = 1/2 and on the
        # near-critical path: one matrix of every point with the same N
        # took 75 and 147 MiB
        ts = np.linspace(99_000.0, 100_000.0, 32_768)
        for route, sigmas, t in (
                (zt._euler_maclaurin_many, np.full(64, 0.5),
                 np.full(64, 99_000.0)),
                (zt._zeta_many, np.full(len(ts), 0.5), ts),
                (zt._zeta_many, 0.5 + np.log(ts) ** -0.5, ts)):
            tracemalloc.start()
            try:
                route(sigmas, t)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 32 * 2 ** 20, (route.__name__, peak)


class TestEulerMaclaurinFloor:
    def test_phase_term_follows_long_double_eps(self):
        # 2.5e-19 per unit of t ln N where the long double is x87 80-bit
        # (eps = 2^-63), in proportion to eps elsewhere
        eps = float(np.finfo(np.longdouble).eps)
        big_n, t = 130_008, 1e5
        per_phase = zt._fp_floor(big_n, t, 0.0) - zt._fp_floor(big_n, 0.0, 0.0)
        ref = 2.5e-19 * eps / 2.0 ** -63 * t * math.log(big_n)
        assert abs(per_phase - ref) <= 1e-9 * ref
        if eps == 2.0 ** -63:
            assert zt._PHASE_ULP == 2.5e-19

    def test_phase_term_covers_long_double_phases(self):
        # the phases t ln n mod 2pi as the route computes them, against the
        # exact t ln n mod 2pi: each is within the per-phase term
        rng = np.random.default_rng(20_261_019)
        ts = rng.uniform(0.0, 1e5, 64)
        ns = rng.integers(2, 130_000, 64)
        phases = np.mod(ts.astype(np.longdouble)
                        * np.log(ns.astype(np.longdouble)), zt._TWO_PI_LD)
        with mpmath.workdps(50):
            two_pi = 2 * mpmath.pi
            for t, n, ph in zip(ts, ns, phases):
                exact = mpmath.fmod(mpmath.mpf(t) * mpmath.log(int(n)), two_pi)
                got = mpmath.mpf(np.format_float_scientific(ph, unique=True))
                diff = got - exact
                diff -= two_pi * mpmath.nint(diff / two_pi)
                bound = zt._PHASE_ULP * t * math.log(n)
                assert abs(diff) <= bound, (t, n, diff, bound)

    def test_high_phases_within_bound(self):
        # about 2 * 10^5 turns at the top of the range: a 2pi short by
        # 2.4e-16 put these points at 1.41 and 0.43 times their bound
        with mpmath.workdps(30):
            for s in (complex(1.5, 99_999.0), complex(2.0, 99_000.25)):
                val, err = em_point(s)
                ref = complex(mpmath.zeta(mpmath.mpc(s.real, s.imag)))
                assert abs(val - ref) <= err, (s, abs(val - ref), err)


def offline_bound_holds(sigmas, ts):
    vals, errs = zt._riemann_siegel_offline_many(sigmas, ts)
    with mpmath.workdps(25):
        for sig, t, v, e in zip(sigmas, ts, vals, errs):
            ref = complex(mpmath.zeta(mpmath.mpc(sig, t)))
            assert abs(v - ref) <= e, (sig, t, abs(v - ref), e)


class TestOfflineRiemannSiegel:
    def test_order_from_theorem_conditions(self):
        # 3L < 2a^2/25 just above T_RS, and the truncation target holds
        # there for every sigma in [0, 1]
        a2 = zt._RS_OFF_T / _TWO_PI
        assert 3 * zt._RS_OFF_L < 2 * a2 / 25 * (1 + 1e-12)
        assert 3 * zt._RS_OFF_L > 2 * a2 / 25 * (1 - 1e-12)
        bound = math.gamma(zt._RS_OFF_L / 2) * (2 * math.sqrt(a2)) \
            ** -zt._RS_OFF_L * 10 / (math.sqrt(2) * math.pi)
        assert bound <= zt._RS_OFF_TRUNC

    def test_bound_on_seeded_grid(self):
        # the fixed sigmas and the near-critical path, t from T_RS to 10^5
        rng = np.random.default_rng(20_261_018)
        lo, hi = math.log(zt._RS_OFF_T), math.log(1e5)
        sigmas, ts = [], []
        for sig in (0.0, 0.25, 0.501, 0.75, 1.0, None):
            t = np.exp(rng.uniform(lo, hi, 6))
            t = np.concatenate([t, [np.nextafter(zt._RS_OFF_T, 1e5), 1e5]])
            ts.append(t)
            sigmas.append(np.full(len(t), sig) if sig is not None
                          else 0.5 + np.log(t) ** -0.5)
        offline_bound_holds(np.concatenate(sigmas), np.concatenate(ts))

    def test_agrees_with_euler_maclaurin_on_overlap(self):
        sigmas = np.array([0.0, 0.3, 0.6, 0.8297, 1.0])
        ts = np.array([1900.0, 2500.5, 4000.25, 10000.0, 7777.0])
        vals, errs = zt._riemann_siegel_offline_many(sigmas, ts)
        vem, eem = zt._euler_maclaurin_many(sigmas, ts)
        assert (np.abs(vals - vem) <= errs + eem).all()

    def test_routed_by_region(self):
        # off-line points with 0 <= sigma <= 1 above T_RS take the route,
        # and on-line points from t = 200 on take the on-line route;
        # sigma > 1, lower t, and t < 200 on the line stay with
        # Euler-Maclaurin
        for s in (complex(0.75, 5000.0), complex(0.0, 2000.0)):
            v, e = zt._riemann_siegel_offline_many([s.real], [s.imag])
            assert zt.zeta_eval(s) == (complex(v[0]), float(e[0]))
        v, e = zt._riemann_siegel_many(np.array([200.0]))
        assert zt.zeta_eval(complex(0.5, 200.0)) == (complex(v[0]),
                                                     float(e[0]))
        for s in (complex(1.5, 5000.0), complex(0.75, 1800.0),
                  complex(0.5, 40.0), complex(0.5, np.nextafter(200.0, 0.0)),
                  complex(1.0, _TWO_PI / math.log(2.0))):
            assert zt.zeta_eval(s) == em_point(s)
        res = zt.scan_line(99000.0, 99249.75, 0.25,
                           zt.SigmaMode.near_critical(0.5))
        assert len(res.t) == 1000 and res.refined == 0


class TestRoutesAgainstHighPrecision:
    def test_small_heights_certified_without_floor(self):
        # every point with t <= 40, and every point on the line below
        # t = 200, takes Euler-Maclaurin: seeded heights at the fixed sigmas
        # where a floorless bound is hardest to keep, seeded (sigma, t) over
        # [0, 10] x [0, 40], seeded heights in (40, 200) on the line, and
        # the edges: s = 0, t = 40 and its neighbours, the last float below
        # t = 200 and t = 200 itself, where the on-line route starts, and
        # the zeros of 1 - 2^(1-s) at sigma = 1, t = 2 pi k / ln 2
        rng = np.random.default_rng(20_261_019)
        fixed = (0.0, 0.25, 0.5, 0.75, 1.0, 2.0, 10.0)
        sigmas = [np.repeat(fixed, 20), rng.uniform(0.0, 10.0, 60),
                  [0.0, 0.5, 0.5, 0.5, 0.0, 0.25, 3.0, 0.5, 0.5],
                  np.ones(4)]
        ts = [rng.uniform(0.0, 40.0, 140), rng.uniform(0.0, 40.0, 60),
              [0.0, np.nextafter(40.0, 0.0), 40.0, np.nextafter(40.0, 41.0),
               40.0, 40.0, 40.0, np.nextafter(200.0, 0.0), 200.0],
              _TWO_PI / math.log(2.0) * np.arange(1, 5)]
        line = rng.uniform(40.0, 200.0, 60)
        sigmas = np.concatenate(sigmas + [np.full(len(line), 0.5)])
        ts = np.concatenate(ts + [line])
        vals, errs = zt._zeta_many(sigmas, ts)
        with mpmath.workdps(30):
            for sig, t, v, e in zip(sigmas, ts, vals, errs):
                ref = complex(mpmath.zeta(mpmath.mpc(sig, t)))
                assert abs(v - ref) <= e, (sig, t, abs(v - ref), e)
        em = ts < 200.0
        em_vals, em_errs = zt._euler_maclaurin_many(sigmas[em], ts[em])
        assert (vals[em] == em_vals).all()
        assert (errs[em] == em_errs).all()

    def test_euler_maclaurin_certified(self):
        mpmath.mp.dps = 25
        for sig, t in ((0.5, 50), (0.5, 5000), (0.75, 100), (1.2, 3000),
                       (0.51, 16383.75), (3.0, 2.0), (0.0, 60.0)):
            s = complex(sig, t)
            val, err = em_point(s)
            ref = complex(mpmath.zeta(s))
            assert abs(val - ref) <= err, (s, abs(val - ref), err)
            assert err < 1e-10

    def test_riemann_siegel_certified(self):
        mpmath.mp.dps = 25
        ts = np.array([200.0, 241.0, 323.25, 500.0, 5000.5, 16383.75])
        vals, errs = zt._riemann_siegel_many(ts)
        for t, v, e in zip(ts, vals, errs):
            ref = complex(mpmath.zeta(complex(0.5, t)))
            assert abs(v - ref) < e, (t, abs(v - ref), e)

    def test_route_cross_agreement_on_overlap(self):
        # the Riemann-Siegel route agrees with Euler-Maclaurin within its
        # certified band
        ts = np.array([200.0, 244.0, 261.5, 290.25, 333.0, 2024.75])
        vals, errs = zt._riemann_siegel_many(ts)
        for t, v, e in zip(ts, vals, errs):
            vem, eem = em_point(complex(0.5, t))
            assert abs(v - vem) <= e + eem

    def test_conjugate_symmetry(self):
        for s in (complex(0.8, 500.0), complex(0.5, 33.0), complex(2.0, 7.0)):
            assert abs(zt.zeta(s).conjugate() - zt.zeta(s.conjugate())) \
                < 1e-9 * abs(zt.zeta(s))


class TestDomain:
    def test_pole(self):
        with pytest.raises(DomainError):
            zt.zeta(1.0)

    def test_left_half_plane_unsupported(self):
        with pytest.raises(DomainError):
            zt.zeta(complex(-0.5, 3.0))

    def test_height_cap(self):
        with pytest.raises(DomainError):
            zt.zeta(complex(0.5, 2e5))

    def test_uncertifiable_near_zero(self):
        # 1e-8 relative accuracy cannot be certified on top of a zero
        with pytest.raises(zt.AccuracyError):
            zt.zeta(complex(0.5, 14.1347251417346937))

    def test_euler_maclaurin_point_is_not_rerun(self, monkeypatch):
        # t < 200 on the line is Euler-Maclaurin's region already: the
        # failed certification is final after one evaluation
        calls = []
        em = zt._euler_maclaurin_many

        def counted(*args):
            calls.append(args)
            return em(*args)
        monkeypatch.setattr(zt, "_euler_maclaurin_many", counted)
        with pytest.raises(zt.AccuracyError):
            zt.zeta(0.5 + 14.1347251417346937j)
        assert len(calls) == 1


class TestParameters:
    def test_sigma_path(self):
        assert abs(zt.sigma_T(1e6, 0.5) - 0.7690) < 5e-4
        assert abs(zt.sigma_T(math.e ** math.e, 0.5)
                   - (0.5 + math.e ** -0.5)) < 1e-12
        with pytest.raises(DomainError):
            zt.sigma_T(2.0, 0.5)
        with pytest.raises(DomainError):
            zt.sigma_T(100.0, 1.0)

    def test_sigma_monotone_to_half(self):
        vals = [zt.sigma_T(10.0 ** k, 0.5) for k in range(1, 12)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0.5

    def test_psi_variance(self):
        t_val = 1e6
        sig = zt.sigma_T(t_val, 0.5)
        assert abs(zt.psi_variance(sig, t_val, 1.0) - 1.3127) < 5e-3
        # both min arguments coincide at sigma = 1/2 + 1/log T
        lt = math.log(t_val)
        assert abs(zt.psi_variance(0.5 + 1.0 / lt, t_val, 1.0)
                   - math.log(lt)) < 1e-12
        with pytest.raises(DomainError):
            zt.psi_variance(0.5, t_val, 1.0)

    def test_psi_nondecreasing_in_t(self):
        vals = [zt.psi_variance(0.6, 10.0 ** k, 1.0) for k in range(2, 10)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestScan:
    def test_empty_and_validation(self):
        with pytest.raises(DomainError):
            zt.scan_line(10, 5, 0.25, zt.SigmaMode.fixed(0.5))
        with pytest.raises(DomainError):
            zt.scan_line(0, 10, 0.0, zt.SigmaMode.fixed(0.5))
        with pytest.raises(DomainError):
            zt.scan_line(1, 10, 0.5, zt.SigmaMode.near_critical(0.5))
        with pytest.raises(DomainError):
            zt.scan_line(0, 2e5, 100.0, zt.SigmaMode.fixed(0.5))

    def test_single_point(self):
        res = zt.scan_line(2.0, 2.0, 1.0, zt.SigmaMode.fixed(3.0))
        assert len(res.t) == 1
        with mpmath.workdps(30):
            ref = abs(complex(mpmath.zeta(mpmath.mpc(3, 2))))
        assert abs(res.abs[0] - ref) < 1e-8

    def test_small_grid_digits_match_high_precision(self):
        res = zt.scan_line(0.0, 120.0, 0.5, zt.SigmaMode.fixed(0.5), base=10)
        assert res.histogram.total + len(res.skipped) == 241
        mpmath.mp.dps = 25
        rng = np.random.default_rng(3)
        for i in rng.choice(len(res.t), size=20, replace=False):
            ref = abs(complex(mpmath.zeta(complex(res.sigma[i], res.t[i]))))
            assert abs(res.abs[i] - ref) <= res.cert_err[i] + 1e-12
            assert int(f"{ref:.15e}"[0]) == res.digits[i]

    def test_digit_bands_never_straddle(self):
        res = zt.scan_line(40.0, 140.0, 0.25, zt.SigmaMode.fixed(0.5))
        lb = math.log(10)
        for a, d, err in zip(res.abs, res.digits, res.cert_err):
            f = math.log(a) / lb % 1.0
            lo = math.log(d) / lb
            hi = math.log(d + 1) / lb
            band = err / (a * lb)
            assert f - lo > band and hi - f > band

    def test_band_reaches_the_low_end_of_the_error(self, monkeypatch):
        # with eps = err/a = 0.05, |zeta| >= a(1 - eps) = 1.9987 may have
        # digit 1: log_10 a = log_10 2 + 0.022 sits -log1p(-eps)/ln 10 =
        # 0.0223 above that end, but only eps/ln 10 = 0.0217 above the band
        a = 2.0 * 10.0 ** 0.022

        def fake(sigmas, ts):
            return np.full(len(ts), a, dtype=complex), np.full(len(ts),
                                                               0.05 * a)

        monkeypatch.setattr(zt, "_zeta_many", fake)
        monkeypatch.setattr(zt, "_euler_maclaurin_many", fake)
        res = zt.scan_line(10.0, 10.0, 1.0, zt.SigmaMode.fixed(0.5))
        assert res.histogram.total == 0 and res.skipped.tolist() == [10.0]
        assert list(cli._scan_rows(res)) == []

    def test_euler_maclaurin_points_are_not_refined(self, monkeypatch):
        # sigma = 0 is Euler-Maclaurin's region at every t: t = 0, where
        # |zeta(0)| = 1/2 sits on the boundary of digit 5, is skipped after
        # the scan's one evaluation of each point
        calls = []
        em = zt._euler_maclaurin_many

        def counted(sigmas, ts):
            calls.append(len(ts))
            return em(sigmas, ts)
        monkeypatch.setattr(zt, "_euler_maclaurin_many", counted)
        res = zt.scan_line(0.0, 40.0, 0.25, zt.SigmaMode.fixed(0.0))
        assert sum(calls) == 161
        assert res.refined == 0 and res.skipped.tolist() == [0.0]
        assert res.histogram.total == 160

    @pytest.mark.parametrize("below", [True, False])
    def test_near_zero_point_is_undecided(self, below, monkeypatch):
        # an on-line point the Riemann-Siegel route serves, err = 1/8: at
        # |zeta| = 1.25 = 10 err the band of eps = 0.1 gives digit 1; one
        # ulp lower the band is infinite, so Euler-Maclaurin refines the
        # point, finds it as close to zero, and the point is skipped
        a = math.nextafter(1.25, 0.0) if below else 1.25
        calls = []

        def fake(sigmas, ts):
            calls.append(len(ts))
            return np.full(len(ts), a, dtype=complex), np.full(len(ts), 0.125)

        monkeypatch.setattr(zt, "_zeta_many", fake)
        monkeypatch.setattr(zt, "_euler_maclaurin_many", fake)
        res = zt.scan_line(300.0, 300.0, 1.0, zt.SigmaMode.fixed(0.5))
        if below:
            assert sum(calls) == 2 and res.refined == 1
            assert res.histogram.total == 0
            assert res.skipped.tolist() == [300.0]
        else:
            assert sum(calls) == 1 and res.refined == 0
            assert res.digits.tolist() == [1] and len(res.skipped) == 0

    def test_near_critical_mode(self):
        res = zt.scan_line(10.0, 60.0, 1.0, zt.SigmaMode.near_critical(0.5))
        assert res.histogram.total == len(res.t) == 51
        for t, sigma in zip(res.t[:5], res.sigma[:5]):
            assert abs(sigma - zt.sigma_T(t, 0.5)) < 1e-12

    def test_pole_recorded_not_fatal(self):
        res = zt.scan_line(0.0, 2.0, 1.0, zt.SigmaMode.fixed(1.0))
        assert len(res.failures) == 1
        assert res.histogram.total == 2

    def test_csv_row_shape(self):
        res = zt.scan_line(2.0, 4.0, 1.0, zt.SigmaMode.fixed(0.5))
        rows = csv_fields(cli._scan_rows(res))
        assert len(rows) == 3
        assert all(len(row) == 8 for row in rows)


def per_point_row(t, sigma, value, a, digit, err):
    """One CSV row as the scan formatted it point by point."""
    return [f"{t:.6f}", f"{sigma:.10f}", f"{value.real:.12e}",
            f"{value.imag:.12e}", f"{a:.12e}", f"{float(np.log(a)):.12e}",
            str(int(digit)), f"{err:.3e}"]


class TestScanRows:
    def assert_rows_pinned(self, res):
        rows = csv_fields(cli._scan_rows(res))
        assert len(rows) == res.histogram.total == len(res.t)
        for i, row in enumerate(rows):
            assert row == per_point_row(
                float(res.t[i]), float(res.sigma[i]), complex(res.value[i]),
                float(res.abs[i]), res.digits[i], float(res.cert_err[i]))

    def test_rows_with_refined_points(self):
        # a float height 5e-11 past the t ~ 5002.2846510804 where
        # |zeta(1/2 + it)| = 2: there |zeta| - 2 is about 1e-10, inside the
        # on-line route's band (5.2e-10), so the digit boundary at 2 is
        # straddled until Euler-Maclaurin (band 1.4e-11) refines the point
        t = 5002.284651080438
        res = zt.scan_line(t, t, 1.0, zt.SigmaMode.fixed(0.5))
        assert res.refined == 1 and len(res.skipped) == 0
        assert res.t.tolist() == [t] and res.cert_err[0] < 2e-11
        with mpmath.workdps(30):
            ref = abs(mpmath.zeta(mpmath.mpc(0.5, t)))
        assert 5e-11 < ref - 2 < 5e-10
        assert res.digits.tolist() == [2]
        self.assert_rows_pinned(res)

    def test_rows_around_the_pole(self):
        res = zt.scan_line(0.0, 6.0, 0.5, zt.SigmaMode.fixed(1.0))
        assert res.failures == [(0.0, "pole at s = 1")]
        assert res.t[0] == 0.5
        self.assert_rows_pinned(res)

    def test_rows_skip_a_point_at_a_zero(self):
        # the float nearest the first zero ordinate 14.1347251417346937904...
        gamma1 = 14.134725141734693
        res = zt.scan_line(gamma1 - 1.0, gamma1 + 1.0, 0.25,
                           zt.SigmaMode.fixed(0.5))
        assert res.skipped.tolist() == [gamma1]
        assert gamma1 not in res.t and len(res.t) == 8
        self.assert_rows_pinned(res)

    def test_rows_across_blocks(self):
        # rows are formatted _CSV_BLOCK = 4,096 at a time: 8,500 rows end
        # in a partial block
        res = zt.scan_line(300.0, 2424.75, 0.25, zt.SigmaMode.fixed(0.5))
        assert len(res.t) == 8500 > 2 * _CSV_BLOCK
        self.assert_rows_pinned(res)
