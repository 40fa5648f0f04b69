import math

import numpy as np
import pytest
from scipy import special as spx
from scipy import stats as sps

import nss_lab.loops as loops
from nss_lab.bounds import (
    LevelPair,
    down_cross_survival_bound,
    expected_up_cross,
    up_cross_survival_bound,
)
from nss_lab.loops import (
    LoopRecord,
    _linear_quantiles,
    _normal_quantile,
    _t_quantile,
    empirical_time_average,
    extract_loops,
    verify_cross_time_bounds,
    verify_moment_bound,
    verify_probability_bound,
    wilson_interval,
)
from nss_lab.sim import SimConfig, Trajectory, ensemble, integrate
from nss_lab.slln import DominatingLaw, inverse_cdf_inf

from conftest import make_ou


def _traj_from_lyap(lyap, dt=1.0):
    """Trajectory scaffold whose Lyapunov series is the given array."""
    lyap = np.asarray(lyap, dtype=float)
    states = np.sqrt(2.0 * lyap)[:, None]  # V = x^2/2 in one dimension
    return Trajectory(
        grid_dt=dt,
        states=states,
        lyap=lyap,
        norms=np.abs(states[:, 0]),
    )


def _scan_oracle(lyap, dt, v0, v1):
    """Independent linear-scan crossing detector (plain loop, no searchsorted)."""
    taus = [0.0]
    seeking_up = lyap[0] < v1
    if not seeking_up:
        taus.append(0.0)
    for k in range(1, len(lyap)):
        if seeking_up and lyap[k] >= v1:
            taus.append(k * dt)
            seeking_up = False
        elif not seeking_up and lyap[k] <= v0:
            taus.append(k * dt)
            seeking_up = True
    return taus


def _record_from_times(up_times, down_times):
    """LoopRecord with prescribed alternating segments and consistent taus."""
    up = np.asarray(up_times, dtype=float)
    down = np.asarray(down_times, dtype=float)
    segs = np.empty(len(up) + len(down))
    segs[0::2] = up
    segs[1::2] = down
    taus = np.concatenate([[0.0], np.cumsum(segs)])
    return LoopRecord(
        taus=taus,
        up_times=up,
        down_times=down,
        complete_loops=len(down),
    )


class TestExtractLoops:
    def test_hand_scanned_series(self):
        traj = _traj_from_lyap([0.5, 1.2, 2.1, 1.5, 0.9, 0.4, 1.0, 2.5, 0.3])
        rec = extract_loops(traj, v0=0.5, v1=2.0)
        assert np.allclose(rec.taus, [0, 2, 5, 7, 8])
        assert np.allclose(rec.up_times, [2, 2])
        assert np.allclose(rec.down_times, [3, 1])
        assert rec.complete_loops == 2
        assert len(rec.taus) % 2  # ends in an up phase

    def test_constant_below_band(self):
        traj = _traj_from_lyap([0.1] * 6)
        rec = extract_loops(traj, v0=0.5, v1=2.0)
        assert np.allclose(rec.taus, [0.0])
        assert rec.complete_loops == 0
        assert len(rec.taus) % 2  # ends in an up phase

    def test_start_above_v1(self):
        traj = _traj_from_lyap([3.0, 2.5, 1.0, 0.2, 1.5, 2.2, 0.1])
        rec = extract_loops(traj, v0=0.5, v1=2.0)
        # zero-length first up segment, then down to index 3
        assert rec.taus[0] == rec.taus[1] == 0.0
        assert rec.up_times[0] == 0.0
        assert np.allclose(rec.taus, [0, 0, 3, 5, 6])
        assert rec.complete_loops == 2

    def test_monotone_decrease_from_above(self):
        rng = np.random.default_rng(12)
        lyap = np.sort(rng.uniform(0.1, 5.0, size=40))[::-1].copy()
        traj = _traj_from_lyap(lyap, dt=0.5)
        rec = extract_loops(traj, v0=0.5, v1=2.0)
        assert np.allclose(rec.taus, _scan_oracle(lyap, 0.5, 0.5, 2.0))

    def test_random_series_match_scan_oracle(self, monkeypatch):
        rng = np.random.default_rng(99)
        one_block = loops._BLOCK_ROWS
        for _ in range(50):
            lyap = np.abs(np.cumsum(rng.normal(scale=0.6, size=200)) + 1.0)
            traj = _traj_from_lyap(lyap, dt=0.1)
            oracle = _scan_oracle(lyap, 0.1, 0.5, 2.0)
            # one block, and blocks of 7 points that runs straddle
            for rows in (one_block, 7):
                monkeypatch.setattr(loops, "_BLOCK_ROWS", rows)
                rec = extract_loops(traj, v0=0.5, v1=2.0)
                assert np.allclose(rec.taus, oracle)
                assert len(rec.up_times) + len(rec.down_times) == len(rec.taus) - 1

    @pytest.mark.parametrize("start", [0.2, 0.5, 1.0, 2.0])  # below v0, at v0, in band, at v1
    def test_exact_level_hits_match_scan_oracle(self, monkeypatch, start):
        # values on a lattice of 0.5 hit v0 = 0.5 and v1 = 2 exactly; blocks of
        # 1 to 3 points cut the leading run (down from 0.2, up from 2.0) and
        # most later runs
        rng = np.random.default_rng(5)
        one_block = loops._BLOCK_ROWS
        for _ in range(20):
            lyap = np.concatenate([[start], rng.integers(0, 6, size=30) * 0.5])
            oracle = _scan_oracle(lyap, 0.5, 0.5, 2.0)
            for rows in (one_block, 1, 2, 3):
                monkeypatch.setattr(loops, "_BLOCK_ROWS", rows)
                rec = extract_loops(_traj_from_lyap(lyap, dt=0.5), v0=0.5, v1=2.0)
                assert np.array_equal(rec.taus, oracle)

    def test_builtin_path_started_above_v1(self, benchmark_system):
        cfg = SimConfig(t_end=20.0, dt=1e-3, seed=3, x0=(3.0, 0.0))
        traj = integrate(benchmark_system, cfg)
        assert traj.lyap[0] == 4.5
        rec = extract_loops(traj, v0=0.9, v1=2.0)
        assert rec.taus[1] == 0.0
        assert rec.complete_loops > 0
        assert np.allclose(rec.taus, _scan_oracle(traj.lyap, 1e-3, 0.9, 2.0))

    def test_reconstruction_invariant(self, short_trajectory):
        rec = extract_loops(short_trajectory, v0=0.9, v1=2.0)
        segs = np.empty(len(rec.up_times) + len(rec.down_times))
        segs[0::2] = rec.up_times
        segs[1::2] = rec.down_times
        assert np.allclose(np.concatenate([[0.0], np.cumsum(segs)]), rec.taus)

    def test_level_validation(self):
        traj = _traj_from_lyap([0.1, 0.2])
        with pytest.raises(ValueError):
            extract_loops(traj, v0=2.0, v1=1.0)


class TestEmpiricalTimeAverage:
    def test_constant_at_origin(self):
        traj = _traj_from_lyap(np.zeros(10))
        dist = empirical_time_average(traj, [0.5, 1.0, 7.0], mode="norm")
        assert np.allclose(dist.values, 1.0)

    def test_square_wave(self):
        # norms [1,3,1,3] over four unit intervals; last point is ignored
        traj = Trajectory(
            grid_dt=1.0,
            states=np.array([[1.0], [3.0], [1.0], [3.0], [7.0]]),
            lyap=np.array([0.5, 4.5, 0.5, 4.5, 24.5]),
            norms=np.array([1.0, 3.0, 1.0, 3.0, 7.0]),
        )
        dist = empirical_time_average(traj, [2.0], mode="norm")
        assert dist.values[0] == 0.5

    def test_monotone_in_threshold(self, short_trajectory):
        grid = np.geomspace(0.1, 10.0, 40)
        dist = empirical_time_average(short_trajectory, grid, mode="norm")
        assert np.all(np.diff(dist.values) >= 0)
        assert np.all((dist.values >= 0) & (dist.values <= 1))

    def test_thresholds_in_any_order(self, monkeypatch, short_trajectory):
        # unsorted and repeated, and equal to samples: the first, one inside
        # and the last, which no interval weighs
        norms = short_trajectory.norms
        thresholds = [2.0, 0.5, 1.0, 0.5, 7.0, norms[0], norms[777], norms[-1], norms[777]]
        dist = empirical_time_average(short_trajectory, thresholds)
        assert list(dist.thresholds) == thresholds
        for r, value in zip(thresholds, dist.values):
            assert value == empirical_time_average(short_trajectory, [r]).values[0]
        # the definition: sort the left endpoints, count those below each threshold
        left = np.sort(norms[:-1])
        expected = np.searchsorted(left, thresholds, side="left") / len(left)
        for rows in (loops._BLOCK_ROWS, 1000, 7):
            monkeypatch.setattr(loops, "_BLOCK_ROWS", rows)
            got = empirical_time_average(short_trajectory, thresholds).values
            assert got.tobytes() == expected.tobytes()

    def test_bad_mode_rejected(self, short_trajectory):
        with pytest.raises(ValueError):
            empirical_time_average(short_trajectory, [1.0], mode="speed")

    def test_norm_lyap_bridge(self, short_trajectory):
        # alpha1(|x|) <= V makes {V < alpha1(r)} a subset of {|x| < r}
        for r in (0.8, 1.5, 2.5):
            d_norm = empirical_time_average(short_trajectory, [r], "norm").values[0]
            d_lyap = empirical_time_average(
                short_trajectory, [0.5 * r * r], "lyapunov"
            ).values[0]
            assert d_norm >= d_lyap

    def test_occupancy_dominates_up_phase_fraction(self, short_trajectory):
        # time below v1 >= total completed up-phase time, exactly on the grid
        v0, v1 = 0.9, 2.0
        rec = extract_loops(short_trajectory, v0=v0, v1=v1)
        d_v1 = empirical_time_average(short_trajectory, [v1], "lyapunov").values[0]
        up_total = float(np.sum(rec.up_times))
        if len(rec.taus) % 2:  # the path ends in an up phase
            up_total += short_trajectory.horizon - float(rec.taus[-1])
        assert d_v1 * short_trajectory.horizon >= up_total - 1e-9


class TestWilson:
    def test_brackets_point_estimate(self):
        for k, n in [(0, 50), (10, 50), (50, 50), (490, 500)]:
            lo, hi = wilson_interval(k, n, 0.99)
            assert 0.0 <= lo <= k / n <= hi <= 1.0

    def test_tightens_with_n(self):
        lo_small, hi_small = wilson_interval(5, 10, 0.99)
        lo_big, hi_big = wilson_interval(500, 1000, 0.99)
        assert hi_big - lo_big < hi_small - lo_small

    @pytest.mark.parametrize("n", [1, 50, 1000])
    def test_closed_form_at_the_edges(self, n):
        z2 = sps.norm.ppf(0.99) ** 2
        lo, hi = wilson_interval(0, n, 0.99)
        assert lo == pytest.approx(0.0, abs=1e-15)
        assert hi == pytest.approx(z2 / (n + z2), rel=1e-12)
        lo, hi = wilson_interval(n, n, 0.99)
        assert lo == pytest.approx(n / (n + z2), rel=1e-12)
        assert hi == pytest.approx(1.0, rel=1e-12)

    def test_limits_exact_at_no_and_all_successes(self):
        # by the formula alone, hi < 1 at k = n for 495 of these n and lo > 0
        # at k = 0 for 84
        for n in range(1, 2001):
            assert wilson_interval(0, n, 0.99)[0] == 0.0
            assert wilson_interval(n, n, 0.99)[1] == 1.0

    @pytest.mark.parametrize("confidence", [0.0, 1.0, 1.5, -0.2, math.nan])
    def test_confidence_outside_unit_interval_rejected(self, confidence):
        with pytest.raises(ValueError, match="confidence"):
            wilson_interval(10, 50, confidence)


class TestQuantiles:
    def test_normal_quantile_is_ndtri_bit_for_bit(self):
        rng = np.random.default_rng(8)
        ps = np.concatenate([
            rng.uniform(size=60_000),
            10.0 ** rng.uniform(-300, 0, 20_000),  # lower tail
            1.0 - 10.0 ** rng.uniform(-16, 0, 20_000),  # upper tail
            1.0 - 10.0 ** -np.arange(1.0, 17.0),
            [0.5, 0.9, 0.95, 0.99, 0.999, 5e-324, np.nextafter(1.0, 0.0)],
        ])
        ps = ps[(ps > 0.0) & (ps < 1.0)]
        assert len(ps) >= 100_000
        ours = np.array([_normal_quantile(float(p)) for p in ps])
        mismatch = np.flatnonzero(ours != spx.ndtri(ps))
        assert len(mismatch) == 0, ps[mismatch[:5]]

    def test_t_quantile_matches_stdtrit(self):
        dfs = list(range(1, 300)) + [500, 1000, 2000, 5000, 10_000]
        ps = np.linspace(0.5001, 0.9999, 25)
        for df in dfs:
            ref = spx.stdtrit(df, ps)
            for p, r in zip(ps, ref):
                t = _t_quantile(df, float(p))
                assert abs(t - r) <= 1e-10 * max(1.0, abs(r)), (df, p)
                assert _t_quantile(df, 1.0 - float(p)) == -t

    def test_linear_quantiles_are_np_quantile_bit_for_bit(self):
        rng = np.random.default_rng(9)
        probs = [np.linspace(0.0, 0.95, 25), rng.uniform(size=40),
                 np.array([0.0, 0.25, 0.5, 0.75, 1.0])]
        for trial in range(10_000):
            n = int(rng.integers(30, 501))
            samples = rng.exponential(size=n)
            if trial % 2:  # ties: few distinct values
                samples = np.round(samples * rng.integers(1, 6)) / 2.0
            q = probs[trial % 3]
            assert np.array_equal(_linear_quantiles(samples, q), np.quantile(samples, q)), \
                (trial, n)

    @pytest.mark.parametrize("quantile", [_normal_quantile,
                                          lambda p: _t_quantile(29, p)],
                             ids=["normal", "t"])
    @pytest.mark.parametrize("p", [0.0, 1.0, 1.5, -0.2, math.nan])
    def test_p_outside_unit_interval_rejected(self, quantile, p):
        with pytest.raises(ValueError, match="confidence"):
            quantile(p)


LEVELS = LevelPair(v0=1.0, v1=2.0, c=1.0, gamma_max=0.5)


def _sample_from_up_law(n, seed):
    """Inverse-transform draws from the law with the up-cross survival bound."""
    law = DominatingLaw.from_cdf(lambda s: 1.0 - up_cross_survival_bound(s, LEVELS))
    ys = np.random.default_rng(seed).uniform(size=n)
    return np.array([inverse_cdf_inf(float(y), law) for y in ys])


def _sample_from_down_law(n, seed):
    law = DominatingLaw.from_cdf(lambda s: 1.0 - down_cross_survival_bound(s, LEVELS))
    ys = np.random.default_rng(seed).uniform(size=n)
    return np.array([inverse_cdf_inf(float(y), law) for y in ys])


class TestVerifyCrossTimes:
    def test_exact_law_samples_pass(self):
        n = 400
        # up-cross samples from the dominating law itself sit on the boundary;
        # first sample is dropped by the checker, so draw one extra
        up = _sample_from_up_law(n + 1, seed=21)
        down = _sample_from_down_law(n, seed=22)
        rec = _record_from_times(up, down)
        report = verify_cross_time_bounds(rec, LEVELS, confidence=0.99)
        assert not report.underpowered
        assert report.n_flags == 0
        assert report.passed

    def test_too_fast_up_crossings_flagged(self):
        up = np.full(201, 0.01)
        down = _sample_from_down_law(200, seed=23)
        rec = _record_from_times(up, down)
        report = verify_cross_time_bounds(rec, LEVELS, confidence=0.99)
        assert report.n_flags > 0
        assert report.mean_up_flag
        assert not report.passed

    def test_too_slow_down_crossings_flagged(self):
        up = _sample_from_up_law(201, seed=24)
        down = np.full(200, 50.0)  # essentially impossible under the capped tail
        rec = _record_from_times(up, down)
        report = verify_cross_time_bounds(rec, LEVELS, confidence=0.99)
        assert report.n_flags > 0
        assert report.mean_down_flag

    def test_underpowered_gate(self):
        up = _sample_from_up_law(11, seed=25)
        down = _sample_from_down_law(10, seed=26)
        rec = _record_from_times(up, down)
        report = verify_cross_time_bounds(rec, LEVELS, confidence=0.99)
        assert report.underpowered
        assert report.passed
        assert report.up_rows == [] and report.down_rows == []
        low_gate = verify_cross_time_bounds(rec, LEVELS, confidence=0.99, min_loops=5)
        assert not low_gate.underpowered
        assert low_gate.n_flags == 0

    @pytest.mark.parametrize("min_loops", [1, 2])
    def test_min_loops_below_three_rejected(self, min_loops):
        # with the first up-cross dropped, one loop leaves no up-crossing
        # sample and two loops leave one: neither gives a t-interval
        up = _sample_from_up_law(min_loops, seed=25)
        down = _sample_from_down_law(min_loops, seed=26)
        rec = _record_from_times(up, down)
        assert rec.complete_loops == min_loops
        with pytest.raises(ValueError, match="min_loops"):
            verify_cross_time_bounds(rec, LEVELS, confidence=0.99, min_loops=min_loops)

    @pytest.mark.parametrize("confidence", [0.0, 1.5])
    def test_confidence_outside_unit_interval_rejected(self, confidence):
        # also when underpowered, where no interval is computed
        up = _sample_from_up_law(11, seed=25)
        down = _sample_from_down_law(10, seed=26)
        rec = _record_from_times(up, down)
        with pytest.raises(ValueError, match="confidence"):
            verify_cross_time_bounds(rec, LEVELS, confidence=confidence)

    def test_simulated_run_passes(self, long_trajectory, benchmark_system):
        from nss_lab.bounds import optimal_v0

        v1 = 2.0
        v0 = optimal_v0(v1, benchmark_system.c, benchmark_system.gamma_max)
        levels = LevelPair(v0=v0, v1=v1, c=benchmark_system.c,
                           gamma_max=benchmark_system.gamma_max)
        rec = extract_loops(long_trajectory, v0=v0, v1=v1)
        report = verify_cross_time_bounds(rec, levels, confidence=0.99, min_loops=20)
        assert rec.complete_loops >= 20
        assert report.n_flags == 0
        # sample means must sit on the bound side of the dominating means
        assert report.mean_up + report.mean_up_halfwidth >= report.t_uc
        assert report.mean_down - report.mean_down_halfwidth <= report.t_dc


class TestVerifyMomentBound:
    def test_deterministic_contraction_passes(self):
        from nss_lab.model import SystemSpec
        from conftest import quadratic_lyapunov

        spec = SystemSpec(
            dim_state=1, dim_noise=1,
            drift=lambda x: -np.asarray(x, dtype=float),
            diffusion=lambda x: np.zeros(np.shape(x)[:-1] + (1, 1)),
            covariance=lambda t: np.zeros(np.shape(t) + (1, 1)),
            lyapunov=quadratic_lyapunov(1),
            c=2.0, gamma=lambda s: 0.0, gamma_max=0.0,
            vectorized=True,
        )
        cfg = SimConfig(t_end=2.0, dt=1e-2, seed=1, x0=(1.0,), save_every=10)
        paths = ensemble(spec, cfg, 1000)
        report = verify_moment_bound(paths, spec, [0.0, 0.5, 1.0, 2.0])
        assert report.passed
        # t=0 row: the bound is V(x0) exactly
        assert report.rows[0].bound == pytest.approx(0.5, rel=1e-12)
        assert report.rows[0].empirical == pytest.approx(0.5, rel=1e-12)
        # Euler contraction (1 - c dt)^k stays below e^{-ct}
        for row in report.rows[1:]:
            assert row.empirical < row.bound

    def test_requires_ensemble(self, benchmark_system):
        cfg = SimConfig(t_end=0.1, dt=1e-2, seed=1, x0=(0.0, 0.0))
        paths = ensemble(benchmark_system, cfg, 5)
        with pytest.raises(ValueError):
            verify_moment_bound(paths, benchmark_system, [0.1])

    def test_off_grid_time_rejected(self):
        spec = make_ou()
        cfg = SimConfig(t_end=1.0, dt=1e-2, seed=2, x0=(0.0,), save_every=10)
        paths = ensemble(spec, cfg, 1000)
        with pytest.raises(ValueError):
            verify_moment_bound(paths, spec, [0.55])

    def test_ou_within_envelope(self):
        spec = make_ou()  # floor = 0.25 in Lyapunov units
        cfg = SimConfig(t_end=1.0, dt=1e-2, seed=3, x0=(0.0,), save_every=10)
        paths = ensemble(spec, cfg, 2000)
        report = verify_moment_bound(paths, spec, [0.5, 1.0])
        assert report.passed


class TestVerifyProbabilityBound:
    def test_benchmark_floor_holds(self, benchmark_system):
        cfg = SimConfig(t_end=5.0, dt=1e-2, seed=4, x0=(0.0, 0.0), save_every=10)
        paths = ensemble(benchmark_system, cfg, 2000)
        report = verify_probability_bound(paths, benchmark_system, r=3.0, t=5.0)
        # floor = 1 - (0.5(1 - e^{-5}))/4.5
        assert report.floor == pytest.approx(
            1.0 - 0.5 * (1.0 - math.exp(-5.0)) / 4.5, rel=1e-12
        )
        assert not report.vacuous
        assert report.passed
        assert report.frequency >= report.floor

    def test_large_radius_degenerates(self, benchmark_system):
        cfg = SimConfig(t_end=1.0, dt=1e-2, seed=5, x0=(0.0, 0.0), save_every=10)
        paths = ensemble(benchmark_system, cfg, 1000)
        report = verify_probability_bound(paths, benchmark_system, r=1e6, t=1.0)
        assert report.frequency == 1.0
        assert report.passed

    def test_small_radius_vacuous(self, benchmark_system):
        cfg = SimConfig(t_end=1.0, dt=1e-2, seed=5, x0=(0.0, 0.0), save_every=10)
        paths = ensemble(benchmark_system, cfg, 1000)
        report = verify_probability_bound(paths, benchmark_system, r=0.5, t=1.0)
        assert report.vacuous
        assert report.floor <= 0.0
        assert report.passed

    def test_bad_radius(self, benchmark_system):
        cfg = SimConfig(t_end=0.1, dt=1e-2, seed=5, x0=(0.0, 0.0))
        paths = ensemble(benchmark_system, cfg, 1000)
        for r in (-1.0, math.nan, 1e-300):  # alpha1(1e-300) underflows to 0
            with pytest.raises(ValueError):
                verify_probability_bound(paths, benchmark_system, r=r, t=0.1)
