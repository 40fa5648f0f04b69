import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
from scipy import stats as sps

import nss_lab.loops as loops
from conftest import dominating_draws
from nss_lab.bounds import (
    LevelPair,
    down_cross_survival_bound,
    down_mean_critical,
    expected_down_cross,
    expected_up_cross,
    optimal_v0,
    up_cross_survival_bound,
    up_mean_critical,
)
from nss_lab.loops import (
    LoopRecord,
    empirical_time_average,
    extract_loops,
    verify_cross_time_bounds,
    verify_moment_bound,
    verify_probability_bound,
)
from nss_lab.model import SYSTEMS
from nss_lab.sim import SimConfig, Trajectory, ensemble, integrate, trajectory_to_csv
from nss_lab.slln import (
    ConditionalCdf,
    DominatingLaw,
    dominated_coupling_lower,
    dominated_coupling_upper,
    inverse_cdf_inf,
)


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
        dist = empirical_time_average(traj, [0.5, 1.0, 7.0])
        assert np.allclose(dist, 1.0)

    def test_square_wave(self):
        # norms [1,3,1,3] over four unit intervals; last point is ignored
        traj = Trajectory(
            grid_dt=1.0,
            states=np.array([[1.0], [3.0], [1.0], [3.0], [7.0]]),
            lyap=np.array([0.5, 4.5, 0.5, 4.5, 24.5]),
            norms=np.array([1.0, 3.0, 1.0, 3.0, 7.0]),
        )
        dist = empirical_time_average(traj, [2.0])
        assert dist[0] == 0.5

    def test_empty_horizon_refused(self):
        traj = Trajectory(0.1, np.zeros((1, 2)), np.zeros(1), np.zeros(1))
        with pytest.raises(ValueError, match="^empty horizon: need a trajectory of at least "
                                             "one step$"):
            empirical_time_average(traj, [1.0])

    def test_monotone_in_threshold(self, short_trajectory):
        grid = np.geomspace(0.1, 10.0, 40)
        dist = empirical_time_average(short_trajectory, grid)
        assert np.all(np.diff(dist) >= 0)
        assert np.all((dist >= 0) & (dist <= 1))

    def test_thresholds_in_any_order(self, monkeypatch, short_trajectory):
        # unsorted and repeated, and equal to samples: the first, one inside
        # and the last, which no interval weighs
        norms = short_trajectory.norms
        thresholds = [2.0, 0.5, 1.0, 0.5, 7.0, norms[0], norms[777], norms[-1], norms[777]]
        dist = empirical_time_average(short_trajectory, thresholds)
        assert len(dist) == len(thresholds)
        for r, value in zip(thresholds, dist):
            assert value == empirical_time_average(short_trajectory, [r])[0]
        # the definition: sort the left endpoints, count those below each threshold
        left = np.sort(norms[:-1])
        expected = np.searchsorted(left, thresholds, side="left") / len(left)
        # the ensemble's law and the loop times' survival share the count: 1500
        # paths and 1201 loops, so that blocks of 1000 split them too
        rng = np.random.default_rng(8)
        lyap = rng.exponential(size=(1500, 3))
        lyap[:, 0] = 0.0
        states = np.sqrt(2.0 * lyap)[..., None]
        paths = Trajectory(grid_dt=0.5, states=states, lyap=lyap, norms=states[..., 0])
        radii = [2.0, 0.5, 1.0, 0.5, 7.0, states[3, 1, 0], states[1200, 1, 0], states[3, 1, 0]]
        record = _record_from_times(dominating_draws(LEVELS, "up", 1202, seed=27),
                                    dominating_draws(LEVELS, "down", 1201, seed=28))

        def row_bytes(rows):
            return np.array([dataclasses.astuple(r) for r in rows], dtype=float).tobytes()

        def other_rows():
            prob = verify_probability_bound(paths, SYSTEMS["ou-1d"](), radii, [0.5, 1.0])
            cross = verify_cross_time_bounds(record, LEVELS)
            return [row_bytes(rows) for rows in (*prob, cross.up_rows, cross.down_rows)]

        default = other_rows()
        for rows in (loops._BLOCK_ROWS, 1000, 7):
            monkeypatch.setattr(loops, "_BLOCK_ROWS", rows)
            got = empirical_time_average(short_trajectory, thresholds)
            assert got.tobytes() == expected.tobytes()
            assert other_rows() == default

    def test_norm_lyap_bridge(self, short_trajectory):
        # alpha1(|x|) <= V makes {V < alpha1(r)} a subset of {|x| < r}
        for r in (0.8, 1.5, 2.5):
            d_norm = empirical_time_average(short_trajectory, [r])[0]
            d_lyap = np.mean(short_trajectory.lyap[:-1] < 0.5 * r * r)
            assert d_norm >= d_lyap

    def test_occupancy_dominates_up_phase_fraction(self, short_trajectory):
        # time below v1 >= total completed up-phase time, exactly on the grid
        v0, v1 = 0.9, 2.0
        rec = extract_loops(short_trajectory, v0=v0, v1=v1)
        d_v1 = np.mean(short_trajectory.lyap[:-1] < v1)
        up_total = float(np.sum(rec.up_times))
        if len(rec.taus) % 2:  # the path ends in an up phase
            up_total += short_trajectory.horizon - float(rec.taus[-1])
        assert d_v1 * short_trajectory.horizon >= up_total - 1e-9


LEVELS = LevelPair(v0=1.0, v1=2.0, c=1.0, gamma_max=0.5)


class TestDominatingDraws:
    @pytest.mark.parametrize("side", ["up", "down"])
    def test_closed_form_matches_law_inversion(self, side):
        # the draws the pinned tests see: seeds 21-26, against inverting the
        # law's CDF by bracket search, which is within 1e-12 above the inverse
        bound = up_cross_survival_bound if side == "up" else down_cross_survival_bound
        law = DominatingLaw.from_cdf(lambda s: 1.0 - float(bound(s, LEVELS)))
        for seed in range(21, 27):
            ys = np.random.default_rng(seed).uniform(size=201)
            ref = np.array([inverse_cdf_inf(float(y), law) for y in ys])
            assert np.abs(dominating_draws(LEVELS, side, 201, seed) - ref).max() <= 1e-12


class TestDownMeanCritical:
    def test_gamma_quantile_matches_scipy_for_any_loop_count(self):
        # n times the critical mean is n L/c plus the Gamma(n, c) quantile;
        # past x ~ 745 the naive e^{-x} sum x^k/k! underflows
        lv = LevelPair(v0=1.2, v1=3.0, c=0.5, gamma_max=0.2)
        shift = expected_down_cross(lv) - 1.0 / lv.c  # L/c
        for n in [1, 2, 3, 5, 10, 25, 100, 744, 745, 746, 1000, 2049, 10_000, 100_000]:
            for p in [1e-6, 0.0025, 0.01, 0.1, 0.5, 0.9]:
                ref = sps.gamma.isf(p, n, scale=1.0 / lv.c)
                ours = n * (down_mean_critical(lv, n, p) - shift)
                assert ours == pytest.approx(ref, rel=1e-10), (n, p)


class TestVerifyCrossTimes:
    def test_exact_law_samples_pass(self):
        n = 400
        # up-cross samples from the dominating law itself sit on the boundary;
        # first sample is dropped by the checker, so draw one extra
        up = dominating_draws(LEVELS, "up", n + 1, seed=21)
        down = dominating_draws(LEVELS, "down", n, seed=22)
        rec = _record_from_times(up, down)
        report = verify_cross_time_bounds(rec, LEVELS, confidence=0.99)
        assert not report.underpowered
        assert report.n_flags == 0
        assert report.passed

    def test_too_fast_up_crossings_flagged(self):
        up = np.full(201, 0.01)
        down = dominating_draws(LEVELS, "down", 200, seed=23)
        rec = _record_from_times(up, down)
        report = verify_cross_time_bounds(rec, LEVELS, confidence=0.99)
        assert report.n_flags > 0
        assert report.mean_up_flag
        assert not report.passed

    def test_too_slow_down_crossings_flagged(self):
        up = dominating_draws(LEVELS, "up", 201, seed=24)
        down = np.full(200, 50.0)  # essentially impossible under the capped tail
        rec = _record_from_times(up, down)
        report = verify_cross_time_bounds(rec, LEVELS, confidence=0.99)
        assert report.n_flags > 0
        assert report.mean_down_flag

    def test_rows_are_the_sorted_samples_in_a_dkw_band(self):
        up = dominating_draws(LEVELS, "up", 26, seed=25)
        down = dominating_draws(LEVELS, "down", 25, seed=26)
        report = verify_cross_time_bounds(_record_from_times(up, down), LEVELS)
        for rows, samples in ((report.up_rows, up[1:]), (report.down_rows, down)):
            n = len(samples)
            half = math.sqrt(math.log(400.0) / (2 * n))
            assert [r.threshold for r in rows] == sorted(samples.tolist())
            for r in rows:
                assert r.ci_low == max(0.0, r.empirical - half)
                assert r.ci_high == min(1.0, r.empirical + half)
        assert [r.empirical for r in report.up_rows] == [
            np.mean(up[1:] > r.threshold) for r in report.up_rows]
        assert [r.empirical for r in report.down_rows] == [
            np.mean(down >= r.threshold) for r in report.down_rows]

    def test_band_flags_once_however_many_rows_flag(self):
        up = dominating_draws(LEVELS, "up", 201, seed=24)
        down = np.full(200, 50.0)
        report = verify_cross_time_bounds(_record_from_times(up, down), LEVELS)
        assert sum(r.flag for r in report.down_rows) == 200
        assert report.n_flags == 2  # the down band and the mean down

    def test_underpowered_gate(self):
        # one complete loop leaves no up time once the first is dropped
        up = dominating_draws(LEVELS, "up", 1, seed=25)
        down = dominating_draws(LEVELS, "down", 1, seed=26)
        rec = _record_from_times(up, down)
        report = verify_cross_time_bounds(rec, LEVELS, confidence=0.99)
        assert report.underpowered
        assert report.passed
        assert report.up_rows == [] and report.down_rows == []
        # two loops leave one up time and are checked at the default floor
        rec = _record_from_times(dominating_draws(LEVELS, "up", 2, seed=25),
                                 dominating_draws(LEVELS, "down", 2, seed=26))
        two = verify_cross_time_bounds(rec, LEVELS, confidence=0.99)
        assert not two.underpowered
        assert (len(two.up_rows), len(two.down_rows)) == (1, 2)
        assert two.n_flags == 0

    @pytest.mark.parametrize("confidence", [0.0, 1.5])
    def test_confidence_outside_unit_interval_rejected(self, confidence):
        # also when underpowered, where no interval is computed
        up = dominating_draws(LEVELS, "up", 11, seed=25)
        down = dominating_draws(LEVELS, "down", 10, seed=26)
        rec = _record_from_times(up, down)
        with pytest.raises(ValueError, match="confidence"):
            verify_cross_time_bounds(rec, LEVELS, confidence=confidence)

    @pytest.mark.parametrize("n", [5, 10])
    def test_mean_up_at_zero_noise_floor(self, n):
        # at g = 0 the up law is 0 with chance v0/v1 = 1/2 and +inf otherwise,
        # so n finite up times flag at alpha/4 = 0.0025 once 2^-n <= 0.0025
        levels = LevelPair(v0=1.0, v1=2.0, c=1.0, gamma_max=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert up_mean_critical(levels, n, 0.0025) == (math.inf if n == 10 else 0.0)
            report = verify_cross_time_bounds(
                _record_from_times(np.full(n + 1, 3.0), np.full(n, 1.0)), levels)
        assert report.mean_up_flag == (n == 10)
        assert report.n_flags == (n == 10)
        assert report.crit_up == up_mean_critical(levels, n, 0.0025)
        floats = [v for v in dataclasses.astuple(report) if isinstance(v, float)] + [
            v for r in report.up_rows + report.down_rows for v in dataclasses.astuple(r)]
        assert not np.isnan(floats).any()

    def test_simulated_run_passes(self, long_trajectory, benchmark_system):
        from nss_lab.bounds import optimal_v0

        v1 = 2.0
        v0 = optimal_v0(v1, benchmark_system.c, benchmark_system.gamma_max)
        levels = LevelPair(v0=v0, v1=v1, c=benchmark_system.c,
                           gamma_max=benchmark_system.gamma_max)
        rec = extract_loops(long_trajectory, v0=v0, v1=v1)
        report = verify_cross_time_bounds(rec, levels, confidence=0.99)
        assert rec.complete_loops >= 20
        assert report.n_flags == 0
        # sample means must sit on the bound side of the dominating means
        assert report.mean_up >= report.crit_up
        assert report.mean_down <= report.crit_down


# the built-in system's constants at v1 = 2 and the optimal v0: the default run
DEFAULT_LEVELS = LevelPair(v0=optimal_v0(2.0, 1.0, 0.5), v1=2.0, c=1.0, gamma_max=0.5)
RUNS = 2000


def _statistic_flags(report):
    """The four statistics' flags: up band, down band, mean up, mean down."""
    return (any(r.flag for r in report.up_rows), any(r.flag for r in report.down_rows),
            report.mean_up_flag, report.mean_down_flag)


def _loops_of_n(n, up_scale=1.0, down_scale=1.0):
    def draw(rng):
        return _record_from_times(up_scale * dominating_draws(DEFAULT_LEVELS, "up", n + 1, rng),
                                  down_scale * dominating_draws(DEFAULT_LEVELS, "down", n, rng))
    return draw


def _loops_before(horizon):
    """Alternating up and down draws cut at the horizon, as extract_loops
    cuts a path: the segments that end by the horizon are kept."""
    k = 3 * int(horizon / (expected_up_cross(DEFAULT_LEVELS)
                           + expected_down_cross(DEFAULT_LEVELS))) + 20

    def draw(rng):
        segs = np.empty(2 * k)
        segs[0::2] = dominating_draws(DEFAULT_LEVELS, "up", k, rng)
        segs[1::2] = dominating_draws(DEFAULT_LEVELS, "down", k, rng)
        taus = np.concatenate([[0.0], np.cumsum(segs)])
        assert taus[-1] > horizon
        diffs = np.diff(taus[taus <= horizon])
        return LoopRecord(taus=taus[taus <= horizon], up_times=diffs[0::2],
                          down_times=diffs[1::2], complete_loops=len(diffs[1::2]))
    return draw


def _flag_rates(draw, seed):
    """Per-statistic and any-statistic flag rates over RUNS records."""
    rng = np.random.default_rng(seed)
    counts = np.zeros(5)
    for _ in range(RUNS):
        flags = _statistic_flags(verify_cross_time_bounds(draw(rng), DEFAULT_LEVELS))
        counts += (*flags, any(flags))
    return counts / RUNS


class TestCrossTimeCalibration:
    """Loop times drawn from the dominating laws themselves attain the bounds;
    each statistic must flag them at most at its share of 1 - confidence."""

    @pytest.fixture(autouse=True)
    def _memoized_critical_values(self, monkeypatch):
        # each critical value is a pure function of (levels, n, alpha), and a
        # few n recur over the 2000 runs of a case: computing each once keeps
        # the class within its tier-1 time
        for name in ("up_mean_critical", "down_mean_critical"):
            monkeypatch.setattr(loops, name, functools.lru_cache(getattr(loops, name)))

    @pytest.mark.parametrize("draw", [_loops_of_n(25), _loops_of_n(100),
                                      _loops_before(77.0), _loops_before(309.0)],
                             ids=["n25", "n100", "T77", "T309"])
    def test_null_rate_within_share(self, draw):
        share = 0.01 / 4
        rates = _flag_rates(draw, seed=38)
        assert np.all(rates[:4] <= share + 3.0 * math.sqrt(share * (1 - share) / RUNS)), rates

    @pytest.mark.parametrize("draw, power", [
        (_loops_of_n(25, down_scale=1.5), 0.95),
        (_loops_of_n(100, up_scale=0.5), 0.85),
    ], ids=["down-x1.5-n25", "up-x0.5-n100"])
    def test_power(self, draw, power):
        assert _flag_rates(draw, seed=39)[4] >= power


# the default [grid]: 50 radii from 1.05 to 10, log-spaced
DEFAULT_RADII = np.geomspace(1.05, 10.0, 50)


def _gaussian_norms(rng, n=1000, times=3):
    """n paths whose norms at times 1..times are i.i.d. norms of N(0, I_2),
    and whose V(x0) is the built-in system's noise floor 0.5, so that the
    moment envelope is 0.5 at every time."""
    norms = np.zeros((n, times + 1))
    norms[:, 1:] = np.hypot(*rng.standard_normal((2, n, times)))
    return Trajectory(grid_dt=1.0, states=np.empty((n, times + 1, 0)),
                      lyap=np.full((n, times + 1), 0.5), norms=norms)


def _floor_spec(shifted_radius=None):
    """The built-in system with alpha1(r) = 0.5 e^{r^2/2}, so that the floor
    1 - 0.5/alpha1(r) is the CDF 1 - e^{-r^2/2} of the norm of N(0, I_2); at
    ``shifted_radius`` the floor is 0.1 above it."""
    def alpha1(r):
        if r == shifted_radius:
            return 0.5 / (math.exp(-r * r / 2.0) - 0.1)
        return 0.5 * math.exp(r * r / 2.0)
    spec = SYSTEMS["example-2d"]()
    return dataclasses.replace(spec, lyapunov=dataclasses.replace(spec.lyapunov, alpha1=alpha1))


class TestProbabilityBandCalibration:
    """Norms drawn from a law whose CDF is the floor attain the bound; the
    band must flag them at most at 1 - confidence over all radii and times."""

    @staticmethod
    def _any_flag_rate(spec, seed):
        rng = np.random.default_rng(seed)
        return np.mean([any(r.flag for rows in verify_probability_bound(
            _gaussian_norms(rng), spec, DEFAULT_RADII, (1.0, 2.0, 3.0)) for r in rows)
                        for _ in range(RUNS)])

    def test_null_rate_within_alpha(self):
        alpha = 0.01
        rate = self._any_flag_rate(_floor_spec(), seed=41)
        assert rate <= alpha + 3.0 * math.sqrt(alpha * (1 - alpha) / RUNS), rate

    def test_power(self):
        # at r = 1.05 the CDF is 0.42, the half-width 0.053 at n = 1000
        assert self._any_flag_rate(_floor_spec(DEFAULT_RADII[0]), seed=42) >= 0.95


def _phase_dependent_loops(n, seed):
    """Up and down times whose laws depend on the history: each up time is an
    up-law draw stretched by ``k = 1 + sin^2(sum of the earlier up times)``
    and each down time a down-law draw shrunk by the same k of the earlier
    down times, so each is conditionally dominated, not i.i.d."""
    rng = np.random.default_rng(seed)
    up, down = np.empty(n + 1), np.empty(n)
    for xs, side, power in ((up, "up", 1.0), (down, "down", -1.0)):
        for i, z in enumerate(dominating_draws(DEFAULT_LEVELS, side, len(xs), rng)):
            xs[i] = (1.0 + math.sin(xs[:i].sum()) ** 2) ** power * z
    return up, down


def _conditional_cdf(side):
    """The conditional CDF of :func:`_phase_dependent_loops`'s up or down times."""
    if side == "up":
        def cdf(s, h):
            k = 1.0 + math.sin(float(np.sum(h))) ** 2
            return 1.0 - float(up_cross_survival_bound(s / k, DEFAULT_LEVELS))

        # the up law's atom at 0
        return ConditionalCdf(eval=cdf, left_limit=lambda s, h: cdf(s, h) if s > 0.0 else 0.0)

    def cdf(s, h):
        k = 1.0 + math.sin(float(np.sum(h))) ** 2
        return 1.0 - float(down_cross_survival_bound(s * k, DEFAULT_LEVELS))

    return ConditionalCdf(eval=cdf, left_limit=cdf)


def _statistics(report):
    """The four statistics' values, each oriented so that larger is worse."""
    return (max(r.bound - r.empirical for r in report.up_rows),
            max(r.empirical - r.bound for r in report.down_rows),
            -report.mean_up, report.mean_down)


class TestCouplingValidity:
    @pytest.mark.parametrize("seed", range(5))
    def test_statistics_on_loops_no_worse_than_on_coupled_draws(self, seed):
        # the coupling gives i.i.d. law draws Z <= tau (up) and Z >= tau
        # (down) pathwise; each statistic is monotone in the sample, so on
        # tau it is no worse than on Z, where its level is exact
        up, down = _phase_dependent_loops(100, seed)
        z_up = dominated_coupling_lower(up, _conditional_cdf("up"), DominatingLaw.from_cdf(
            lambda s: 1.0 - float(up_cross_survival_bound(s, DEFAULT_LEVELS))), seed)
        z_down = dominated_coupling_upper(down, _conditional_cdf("down"), DominatingLaw.from_cdf(
            lambda s: 1.0 - float(down_cross_survival_bound(s, DEFAULT_LEVELS))), seed)
        assert np.all(z_up <= up) and np.all(z_down >= down)
        on_tau = verify_cross_time_bounds(_record_from_times(up, down), DEFAULT_LEVELS)
        on_z = verify_cross_time_bounds(_record_from_times(z_up, z_down), DEFAULT_LEVELS)
        assert all(t <= z for t, z in zip(_statistics(on_tau), _statistics(on_z)))
        assert all(t <= z for t, z in zip(_statistic_flags(on_tau), _statistic_flags(on_z)))


class TestVerifyMomentBound:
    def test_deterministic_contraction_passes(self):
        from nss_lab.model import SystemSpec, _quadratic_lyapunov

        spec = SystemSpec(
            dim_state=1, dim_noise=1,
            drift=lambda x: -np.asarray(x, dtype=float),
            diffusion=lambda x: np.zeros(np.shape(x)[:-1] + (1, 1)),
            covariance=lambda t: np.zeros(np.shape(t) + (1, 1)),
            lyapunov=_quadratic_lyapunov(1),
            c=2.0, gamma=np.zeros_like, gamma_max=0.0,
        )
        cfg = SimConfig(t_end=2.0, dt=1e-2, seed=1, x0=(1.0,), save_every=10)
        paths = ensemble(spec, cfg, 1000)
        rows = verify_moment_bound(paths, spec, [0.0, 0.5, 1.0, 2.0])
        assert not any(r.flag for r in rows)
        # t=0 row: the bound is V(x0) exactly
        assert rows[0].bound == pytest.approx(0.5, rel=1e-12)
        assert rows[0].empirical == pytest.approx(0.5, rel=1e-12)
        # Euler contraction (1 - c dt)^k stays below e^{-ct}
        for row in rows[1:]:
            assert row.empirical < row.bound

    def test_requires_ensemble(self, benchmark_system):
        cfg = SimConfig(t_end=0.1, dt=1e-2, seed=1, x0=(0.0, 0.0))
        paths = ensemble(benchmark_system, cfg, 5)
        with pytest.raises(ValueError):
            verify_moment_bound(paths, benchmark_system, [0.1])

    def test_off_grid_time_rejected(self):
        spec = SYSTEMS["ou-1d"]()
        cfg = SimConfig(t_end=1.0, dt=1e-2, seed=2, x0=(0.0,), save_every=10)
        paths = ensemble(spec, cfg, 1000)
        with pytest.raises(ValueError):
            verify_moment_bound(paths, spec, [0.55])

    def test_ou_within_envelope(self):
        spec = SYSTEMS["ou-1d"]()  # floor = 0.25 in Lyapunov units
        cfg = SimConfig(t_end=1.0, dt=1e-2, seed=3, x0=(0.0,), save_every=10)
        paths = ensemble(spec, cfg, 2000)
        rows = verify_moment_bound(paths, spec, [0.5, 1.0])
        assert not any(r.flag for r in rows)


@pytest.mark.parametrize("check", ["moment", "probability"])
def test_check_times_on_the_saved_grid(check):
    # the grid rule of sim: 0.3 / 0.1 is 2.9999999999999996, saved index 3;
    # a negative time, one a step past the horizon and one off the grid are
    # refused, each by name
    spec = SYSTEMS["ou-1d"]()
    paths = ensemble(spec, SimConfig(t_end=1.0, dt=0.1, seed=2, x0=(0.0,)), 1000)
    if check == "moment":
        def column(t):
            return verify_moment_bound(paths, spec, [t])[0].empirical
        assert column(0.3) == float(np.mean(paths.lyap[:, 3]))
    else:
        def column(t):
            return verify_probability_bound(paths, spec, [0.5], [t])[0][0].empirical
        assert column(0.3) == int(np.sum(paths.norms[:, 3] < 0.5)) / 1000
    for t, why in ((-0.1, "is not on the saved trajectory grid"),
                   (1.1, "is not on the saved trajectory grid"),
                   (0.35, "is not a whole number of steps 0.1")):
        with pytest.raises(ValueError, match=rf"^time {t!r} {why}$"):
            column(t)


@pytest.mark.parametrize("check", ["moment", "probability"])
def test_empty_check_times_refused(check):
    spec = SYSTEMS["ou-1d"]()
    paths = ensemble(spec, SimConfig(t_end=0.1, dt=0.1, seed=2, x0=(0.0,)), 1000)
    with pytest.raises(ValueError, match="^times must list at least one check time$"):
        if check == "moment":
            verify_moment_bound(paths, spec, [])
        else:
            verify_probability_bound(paths, spec, [0.5], [])


@pytest.mark.parametrize("check", ["moment", "probability"])
def test_one_path_refused(check):
    spec = SYSTEMS["ou-1d"]()
    path = integrate(spec, SimConfig(t_end=0.1, dt=0.1, seed=2, x0=(0.0,)))
    with pytest.raises(ValueError, match=r"^need a trajectory with one path axis, "
                                         r"got V of shape \(2,\)$"):
        if check == "moment":
            verify_moment_bound(path, spec, [0.1])
        else:
            verify_probability_bound(path, spec, [0.5], [0.1])


@pytest.mark.parametrize("reader", ["extract_loops", "empirical_time_average",
                                    "trajectory_to_csv"])
def test_one_path_readers_refuse_an_ensemble(reader, tmp_path):
    paths = ensemble(SYSTEMS["ou-1d"](), SimConfig(t_end=20.0, dt=0.01, seed=2, x0=(0.0,)), 3)
    out = tmp_path / "trajectory.csv"
    with pytest.raises(ValueError, match=r"^need a trajectory with no path axis, "
                                         r"got V of shape \(3, 2001\)$"):
        if reader == "extract_loops":
            extract_loops(paths, v0=0.5, v1=1.0)
        elif reader == "empirical_time_average":
            empirical_time_average(paths, [1.0])
        else:
            trajectory_to_csv(paths, out)
    assert not out.exists()


class TestVerifyProbabilityBound:
    def test_benchmark_floor_holds(self, benchmark_system):
        cfg = SimConfig(t_end=5.0, dt=1e-2, seed=4, x0=(0.0, 0.0), save_every=10)
        paths = ensemble(benchmark_system, cfg, 2000)
        [[row]] = verify_probability_bound(paths, benchmark_system, [3.0], [5.0])
        # floor = 1 - (0.5(1 - e^{-5}))/4.5
        assert row.bound == pytest.approx(
            1.0 - 0.5 * (1.0 - math.exp(-5.0)) / 4.5, rel=1e-12
        )
        assert not row.flag
        assert row.empirical >= row.bound
        # the half-width of one band over 2000 paths at alpha = 0.01
        assert row.empirical - row.ci_low == pytest.approx(
            math.sqrt(math.log(100.0) / 4000.0), rel=1e-12)

    def test_large_radius_degenerates(self, benchmark_system):
        cfg = SimConfig(t_end=1.0, dt=1e-2, seed=5, x0=(0.0, 0.0), save_every=10)
        paths = ensemble(benchmark_system, cfg, 1000)
        [[row]] = verify_probability_bound(paths, benchmark_system, [1e6], [1.0])
        assert row.empirical == 1.0
        assert row.ci_high == 1.0
        assert not row.flag

    def test_small_radius_vacuous(self, benchmark_system):
        cfg = SimConfig(t_end=1.0, dt=1e-2, seed=5, x0=(0.0, 0.0), save_every=10)
        paths = ensemble(benchmark_system, cfg, 1000)
        [[row]] = verify_probability_bound(paths, benchmark_system, [0.5], [1.0])
        assert row.bound <= 0.0
        assert not row.flag

    def test_bad_radius(self, benchmark_system):
        cfg = SimConfig(t_end=0.1, dt=1e-2, seed=5, x0=(0.0, 0.0))
        paths = ensemble(benchmark_system, cfg, 1000)
        for r in (-1.0, math.nan, 1e-300):  # alpha1(1e-300) underflows to 0
            with pytest.raises(ValueError):
                verify_probability_bound(paths, benchmark_system, [3.0, r], [0.1])

    @pytest.mark.parametrize("confidence", [0.0, 1.0, 1.5, -0.2, math.nan])
    def test_confidence_outside_unit_interval_rejected(self, confidence):
        paths = _gaussian_norms(np.random.default_rng(0))
        with pytest.raises(ValueError, match="confidence"):
            verify_probability_bound(paths, _floor_spec(), [1.0], [1.0], confidence)

    def test_one_row_per_time_and_radius(self, benchmark_system):
        # the half-width sqrt(ln(K/alpha)/(2n)) widens with the number K of times
        cfg = SimConfig(t_end=1.0, dt=1e-2, seed=6, x0=(0.0, 0.0), save_every=10)
        paths = ensemble(benchmark_system, cfg, 1000)
        radii = [0.5, 1.0, 3.0, 1e6]
        rows = verify_probability_bound(paths, benchmark_system, radii, [0.5, 1.0])
        assert [[r.threshold for r in t_rows] for t_rows in rows] == [radii, radii]
        for t_rows, idx in zip(rows, (5, 10)):  # saved every 0.1
            assert [r.empirical for r in t_rows] == [
                int(np.sum(paths.norms[:, idx] < r)) / 1000 for r in radii]
        half = rows[0][1].empirical - rows[0][1].ci_low
        assert half == pytest.approx(math.sqrt(math.log(200.0) / 2000.0), rel=1e-12)
