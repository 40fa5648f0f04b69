import dataclasses
import math
import sys

import numpy as np
import pytest
from scipy import stats as sps

import nss_lab.sim as sim
from nss_lab.loops import extract_loops
from nss_lab.model import SystemSpec, _affine_dynamics
from nss_lab.sim import (
    NonFiniteStateError,
    SimConfig,
    Trajectory,
    block_length,
    ensemble,
    integrate,
    path_generator,
    trajectory_to_csv,
    _trajectories,
)

from conftest import make_ou, quadratic_lyapunov


def _deterministic(drift, dim=1):
    return SystemSpec(
        dim_state=dim,
        dim_noise=1,
        drift=drift,
        diffusion=lambda x: np.zeros((dim, 1)),
        covariance=lambda t: np.zeros((1, 1)),
        lyapunov=quadratic_lyapunov(dim),
        c=1.0,
        gamma=lambda s: 0.0,
        gamma_max=0.0,
        name="deterministic",
    )


def _affine(a, h0, h, name="affine"):
    """A vectorized spec whose drift/diffusion are the declared affine maps."""
    n, m = np.shape(h0)
    drift, diffusion = _affine_dynamics(a, h0, h)
    return SystemSpec(
        dim_state=n,
        dim_noise=m,
        drift=drift,
        diffusion=diffusion,
        covariance=lambda t: np.ones(np.shape(t) + (m, m)) * np.eye(m),
        lyapunov=quadratic_lyapunov(n),
        c=1.0,
        gamma=lambda s: 0.0,
        gamma_max=0.0,
        vectorized=True,
        name=name,
        affine=(a, h0, h),
    )


def _affine_ou():
    """dx = -x dt + dW, declared affine, so it runs the affine scan."""
    return _affine([[-1.0]], [[1.0]], np.zeros((1, 1, 1)), name="affine-ou")


def _sequential(spec):
    """The same system without its declaration: the reference kernel."""
    return dataclasses.replace(spec, affine=None)


def _unstable():
    """An affine spec that overflows within a few hundred unit steps."""
    return _affine([[16.0, 1.0], [0.0, 15.0]], [[0.0], [1.0]],
                   [[[0.5], [0.0]], [[0.0], [0.0]]])


class TestConfig:
    def test_n_steps_rounding(self):
        assert SimConfig(t_end=1.0, dt=0.1, seed=0, x0=(0.0,)).n_steps == 10
        assert SimConfig(t_end=500.0, dt=1e-3, seed=0, x0=(0.0,)).n_steps == 500_000

    @pytest.mark.parametrize("kwargs", [
        dict(t_end=1.0, dt=0.0), dict(t_end=1.0, dt=2.0),
        dict(t_end=1.0, dt=0.1, save_every=0), dict(t_end=1.0, dt=0.1, save_every=3),
        dict(t_end=1.0, dt=0.3),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(seed=0, x0=(0.0,), **kwargs)


class TestDeterministicDynamics:
    def test_single_euler_step(self):
        spec = _deterministic(lambda x: -np.asarray(x, dtype=float))
        traj = integrate(spec, SimConfig(t_end=0.1, dt=0.1, seed=1, x0=(1.0,)))
        assert traj.states[-1, 0] == pytest.approx(0.9, rel=1e-15)

    def test_array_like_dynamics(self):
        spec = _deterministic(lambda x: [-float(x[0])])
        traj = integrate(spec, SimConfig(t_end=0.1, dt=0.1, seed=1, x0=(1.0,)))
        assert traj.states[-1, 0] == pytest.approx(0.9, rel=1e-15)

    def test_zero_dynamics_constant(self):
        spec = _deterministic(lambda x: np.zeros(2), dim=2)
        traj = integrate(spec, SimConfig(t_end=3.0, dt=0.01, seed=1, x0=(2.0, 3.0)))
        assert np.all(traj.states == [2.0, 3.0])
        assert np.all(traj.norms == math.sqrt(13.0))

    def test_time_grid(self):
        spec = _deterministic(lambda x: np.zeros(1))
        traj = integrate(spec, SimConfig(t_end=1.0, dt=0.25, seed=1, x0=(0.0,), t0=2.0))
        assert np.allclose(traj.times, [2.0, 2.25, 2.5, 2.75, 3.0])
        assert traj.grid_dt == 0.25
        assert traj.horizon == 1.0

    def test_save_every_thins_grid(self):
        spec = _deterministic(lambda x: -np.asarray(x, dtype=float))
        full = integrate(spec, SimConfig(t_end=1.0, dt=0.1, seed=1, x0=(1.0,)))
        thin = integrate(spec, SimConfig(t_end=1.0, dt=0.1, seed=1, x0=(1.0,),
                                         save_every=5))
        assert np.array_equal(thin.states, full.states[::5])
        assert np.array_equal(thin.times, full.times[::5])


class TestOuOracles:
    def test_ensemble_variance(self):
        # stationary approach: Var x(t) = (1 - e^{-2t}) / 2
        spec = make_ou()
        cfg = SimConfig(t_end=5.0, dt=1e-2, seed=42, x0=(0.0,), save_every=100)
        paths = ensemble(spec, cfg, 10_000)
        finals = np.array([p.states[-1, 0] for p in paths])
        var = float(np.var(finals, ddof=1))
        target = 0.5 * (1.0 - math.exp(-10.0))
        se = target * math.sqrt(2.0 / (len(finals) - 1))
        assert abs(var - target) <= 3.0 * se + 1e-2  # O(dt) Euler bias allowance

    def test_ensemble_mean(self):
        spec = make_ou()
        cfg = SimConfig(t_end=1.0, dt=1e-2, seed=43, x0=(1.0,), save_every=10)
        paths = ensemble(spec, cfg, 10_000)
        finals = np.array([p.states[-1, 0] for p in paths])
        mean = float(np.mean(finals))
        se = float(np.std(finals, ddof=1)) / math.sqrt(len(finals))
        # Euler mean is (1-dt)^{1/dt}, within O(dt) of e^{-1}
        assert abs(mean - math.exp(-1.0)) <= 3.0 * se + 1e-2

    def test_weak_error_shrinks_with_dt(self):
        # deterministic mean error dominates for large x0
        spec = make_ou()
        errs = []
        for dt in (0.1, 0.05):
            cfg = SimConfig(t_end=1.0, dt=dt, seed=44, x0=(10.0,))
            paths = ensemble(spec, cfg, 2000)
            mean = float(np.mean([p.states[-1, 0] for p in paths]))
            errs.append(abs(mean - 10.0 * math.exp(-1.0)))
        assert errs[1] < errs[0]


class TestReproducibility:
    def test_repeat_integrate_identical(self):
        spec = make_ou()
        cfg = SimConfig(t_end=1.0, dt=1e-3, seed=5, x0=(0.0,))
        a = integrate(spec, cfg)
        b = integrate(spec, cfg)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.lyap, b.lyap)

    def test_substreams_differ(self):
        spec = make_ou()
        cfg = SimConfig(t_end=1.0, dt=1e-2, seed=5, x0=(0.0,))
        paths = ensemble(spec, cfg, 2)
        assert not np.array_equal(paths[0].states, paths[1].states)

    @pytest.mark.parametrize("system, chunk_size", [
        pytest.param("ou", 3, id="ou"),
        pytest.param("ou-per-state", 3, id="ou-per-state"),
        pytest.param("builtin", 3, id="builtin"),
        pytest.param("affine-ou", 1, id="affine-ou-chunk1"),
        pytest.param("affine-ou", 3, id="affine-ou-chunk3"),
        pytest.param("affine-ou", 7, id="affine-ou-chunk7"),
    ])
    def test_ensemble_matches_per_path_integrate(self, system, chunk_size,
                                                 benchmark_system):
        spec = {"ou": make_ou(), "builtin": benchmark_system, "affine-ou": _affine_ou(),
                "ou-per-state": dataclasses.replace(make_ou(), vectorized=False)}[system]
        cfg = SimConfig(t_end=0.5, dt=1e-2, seed=6, x0=(0.3,) * spec.dim_state)
        paths = ensemble(spec, cfg, 7, chunk_size=chunk_size)
        for i, p in enumerate(paths):
            solo = integrate(spec, cfg, path_index=i)
            assert np.array_equal(p.states, solo.states)

    def test_chunking_irrelevant(self):
        spec = make_ou()
        cfg = SimConfig(t_end=0.5, dt=1e-2, seed=6, x0=(0.3,))
        a = ensemble(spec, cfg, 10, chunk_size=10)
        b = ensemble(spec, cfg, 10, chunk_size=4)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.states, pb.states)

    def test_thread_cap_irrelevant(self, monkeypatch, benchmark_system):
        cfg = SimConfig(t_end=0.2, dt=1e-2, seed=6, x0=(0.1, 0.1))
        monkeypatch.setenv("NSS_LAB_THREADS", "1")
        a = ensemble(benchmark_system, cfg, 5)
        monkeypatch.setenv("NSS_LAB_THREADS", "4")
        b = ensemble(benchmark_system, cfg, 5)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.states, pb.states)
        # the affine scan, at chunk sizes 1, 3 and 7
        ou_cfg = SimConfig(t_end=0.5, dt=1e-2, seed=6, x0=(0.3,))
        for chunk_size in (1, 3, 7):
            monkeypatch.setenv("NSS_LAB_THREADS", "1")
            a = ensemble(_affine_ou(), ou_cfg, 7, chunk_size=chunk_size)
            monkeypatch.setenv("NSS_LAB_THREADS", "4")
            b = ensemble(_affine_ou(), ou_cfg, 7, chunk_size=chunk_size)
            for pa, pb in zip(a, b):
                assert np.array_equal(pa.states, pb.states), chunk_size

    @pytest.mark.parametrize("chunk_size", [0, -2])
    def test_chunk_size_below_one_rejected(self, chunk_size):
        cfg = SimConfig(t_end=0.2, dt=1e-2, seed=6, x0=(0.1,))
        with pytest.raises(ValueError, match="chunk_size"):
            ensemble(make_ou(), cfg, 5, chunk_size=chunk_size)

    def test_non_integer_thread_cap_named(self, monkeypatch):
        cfg = SimConfig(t_end=0.2, dt=1e-2, seed=6, x0=(0.1,))
        monkeypatch.setenv("NSS_LAB_THREADS", "two")
        with pytest.raises(ValueError, match="NSS_LAB_THREADS"):
            ensemble(make_ou(), cfg, 5)

    def test_many_workers_fill_their_own_rows(self, monkeypatch):
        # more workers than cores, switching threads often: every chunk must
        # land in its own rows of the shared states array
        spec = make_ou()
        cfg = SimConfig(t_end=0.2, dt=1e-2, seed=9, x0=(0.2,))
        solo = [integrate(spec, cfg, i) for i in range(40)]
        monkeypatch.setenv("NSS_LAB_THREADS", "8")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            paths = ensemble(spec, cfg, 40, chunk_size=1)
        finally:
            sys.setswitchinterval(interval)
        assert len(paths) == 40
        for p, q in zip(paths, solo):
            assert np.array_equal(p.states, q.states)

    def test_nonvectorized_matches_vectorized(self):
        base = make_ou()
        slow = SystemSpec(
            dim_state=1, dim_noise=1, drift=base.drift, diffusion=base.diffusion,
            covariance=base.covariance, lyapunov=base.lyapunov, c=base.c,
            gamma=base.gamma, gamma_max=base.gamma_max, vectorized=False, name="ou",
        )
        cfg = SimConfig(t_end=0.3, dt=1e-2, seed=8, x0=(0.0,))
        a = ensemble(base, cfg, 6)
        b = ensemble(slow, cfg, 6)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.states, pb.states)


class TestAffineScan:
    """The blocked affine scan against the sequential reference kernel."""

    def test_builtin_path_matches_reference(self, benchmark_system, short_trajectory):
        cfg = SimConfig(t_end=50.0, dt=1e-3, seed=11, x0=(0.0, 0.0))
        ref = integrate(_sequential(benchmark_system), cfg)
        assert np.max(np.abs(short_trajectory.states - ref.states)) <= 1e-9
        for v0, v1 in ((0.9, 2.0), (0.5, 1.2)):
            loops = extract_loops(short_trajectory, v0=v0, v1=v1)
            ref_loops = extract_loops(ref, v0=v0, v1=v1)
            assert loops.complete_loops > 0
            assert np.array_equal(loops.taus, ref_loops.taus)

    def test_partial_last_block_and_thinning(self, benchmark_system):
        cfg = SimConfig(t_end=1.0, dt=1e-3, seed=12, x0=(0.5, -1.0))
        assert cfg.n_steps % block_length(cfg.n_steps) != 0
        full = integrate(benchmark_system, cfg)
        ref = integrate(_sequential(benchmark_system), cfg)
        assert np.max(np.abs(full.states - ref.states)) <= 1e-12
        for k in (2, 5, 8):
            thin = integrate(benchmark_system, dataclasses.replace(cfg, save_every=k))
            assert np.array_equal(thin.states, full.states[::k])
            assert np.array_equal(thin.times, full.times[::k])

    @pytest.mark.parametrize("t_end, last_block", [(0.1, 0), (1.0, 1), (1.4, 2), (3.0, 0)])
    def test_block_edges(self, t_end, last_block):
        spec = _affine([[-0.5, 2.0], [-2.0, -0.5]], [[0.3, 0.0], [0.0, 0.2]],
                       [[[0.1, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.4, 0.1]]])
        cfg = SimConfig(t_end=t_end, dt=0.1, seed=13, x0=(1.0, -0.5))
        assert cfg.n_steps % block_length(cfg.n_steps) == last_block
        got = integrate(spec, cfg).states
        ref = integrate(_sequential(spec), cfg).states
        assert np.max(np.abs(got - ref)) <= 1e-12

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
    def test_blow_up_step_matches_reference(self):
        spec = _unstable()
        cfg = SimConfig(t_end=400.0, dt=1.0, seed=14, x0=(1.0, 1.0), save_every=2)
        steps = []
        for s in (spec, _sequential(spec)):
            with pytest.raises(NonFiniteStateError) as exc:
                integrate(s, cfg)
            steps.append(exc.value.step)
        assert steps[0] == steps[1]
        assert steps[0] > 2 * block_length(cfg.n_steps)

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
    @pytest.mark.parametrize("kernel", ["affine", "sequential"])
    def test_ensemble_blow_up_matches_integrate(self, kernel):
        spec = _unstable() if kernel == "affine" else _sequential(_unstable())
        cfg = SimConfig(t_end=400.0, dt=1.0, seed=14, x0=(1.0, 1.0), save_every=2)
        with pytest.raises(NonFiniteStateError) as solo:
            integrate(spec, cfg, 0)
        with pytest.raises(NonFiniteStateError) as exc:
            ensemble(spec, cfg, 5, chunk_size=2)
        assert exc.value.path_index == solo.value.path_index == 0
        assert exc.value.step == solo.value.step


def _spy_noise(monkeypatch):
    """Record the shape of every noise buffer the kernels build."""
    shapes = []
    real = sim._noise

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(sim, "_noise", spy)
    return shapes


def _one_path_noise(spec, cfg):
    """Bytes of one path's noise, padded to the affine scan's whole blocks."""
    span = block_length(cfg.n_steps)
    return 8 * spec.dim_noise * (cfg.n_steps // span + 1) * span


class TestNoiseBudget:
    """Every kernel holds at most ``_NOISE_BYTES`` of noise per chunk."""

    @pytest.mark.parametrize("paths_in_budget", [3, 0.5])
    @pytest.mark.parametrize("system", ["affine-ou", "builtin", "builtin-sequential", "ou"])
    def test_noise_buffer_within_budget(self, monkeypatch, benchmark_system,
                                        system, paths_in_budget):
        spec = {"affine-ou": _affine_ou(), "builtin": benchmark_system, "ou": make_ou(),
                "builtin-sequential": _sequential(benchmark_system)}[system]
        cfg = SimConfig(t_end=1.0, dt=1e-2, seed=4, x0=(0.2,) * spec.dim_state)
        one_path = _one_path_noise(spec, cfg)
        budget = int(paths_in_budget * one_path)
        monkeypatch.setattr(sim, "_NOISE_BYTES", budget, raising=False)
        shapes = _spy_noise(monkeypatch)
        ensemble(spec, cfg, 10)
        assert shapes
        assert max(8 * math.prod(s) for s in shapes) <= max(budget, one_path)

    @pytest.mark.parametrize("system", ["ou", "ou-per-state", "builtin-sequential"])
    def test_time_segments_move_no_bit(self, monkeypatch, benchmark_system, system):
        spec = {"ou": make_ou(), "ou-per-state": dataclasses.replace(make_ou(), vectorized=False),
                "builtin-sequential": _sequential(benchmark_system)}[system]
        cfg = SimConfig(t_end=1.0, dt=1e-2, seed=5, x0=(0.3,) * spec.dim_state,
                        save_every=4)
        whole = ensemble(spec, cfg, 7)
        solo = [integrate(spec, cfg, i) for i in range(7)]
        # 30 steps of one path: 4 segments alone, 25 in a chunk of 7 paths
        monkeypatch.setattr(sim, "_NOISE_BYTES", 8 * spec.dim_noise * 30, raising=False)
        shapes = _spy_noise(monkeypatch)
        segmented = ensemble(spec, cfg, 7)
        assert len(shapes) >= 3 and max(s[1] for s in shapes) < cfg.n_steps
        shapes.clear()
        segmented_solo = [integrate(spec, cfg, i) for i in range(7)]
        assert len(shapes) == 7 * 4
        for runs in zip(whole, solo, segmented, segmented_solo):
            for r in runs[1:]:
                assert np.array_equal(r.states, runs[0].states)

    @pytest.mark.parametrize("system", ["affine-ou", "builtin"])
    def test_default_chunk_matches_integrate(self, monkeypatch, benchmark_system, system):
        spec = {"affine-ou": _affine_ou(), "builtin": benchmark_system}[system]
        cfg = SimConfig(t_end=0.5, dt=1e-2, seed=6, x0=(0.3,) * spec.dim_state)
        monkeypatch.setattr(sim, "_NOISE_BYTES", 3 * _one_path_noise(spec, cfg),
                            raising=False)
        shapes = _spy_noise(monkeypatch)
        paths = ensemble(spec, cfg, 8)
        assert sorted(s[-1] for s in shapes) == [2, 3, 3]
        for i, p in enumerate(paths):
            assert np.array_equal(p.states, integrate(spec, cfg, i).states)

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
    def test_lowest_failing_path_across_chunks(self, monkeypatch):
        # x -> (5.55 + s_k) x: whether and when a path overflows depends on its noise
        spec = _affine([[4.55]], [[0.0]], [[[1.0]]])
        cfg = SimConfig(t_end=420.0, dt=1.0, seed=2, x0=(1.0,), save_every=2)
        failing = {}
        for i in range(12):
            try:
                integrate(spec, cfg, i)
            except NonFiniteStateError as exc:
                failing[i] = exc.step
        lowest = min(failing)
        # not in the first chunk of two paths, and a higher path fails sooner
        assert lowest >= 2 and min(failing.values()) < failing[lowest]
        monkeypatch.setattr(sim, "_NOISE_BYTES", 2 * _one_path_noise(spec, cfg),
                            raising=False)
        monkeypatch.setenv("NSS_LAB_THREADS", "4")
        shapes = _spy_noise(monkeypatch)
        with pytest.raises(NonFiniteStateError) as exc:
            ensemble(spec, cfg, 12)
        assert [s[-1] for s in shapes] == [2] * 6
        assert (exc.value.path_index, exc.value.step) == (lowest, failing[lowest])


class TestNoiseStream:
    def test_increments_are_standard_normal(self):
        draws = path_generator(123, 0).normal(size=1_000_000)
        assert abs(float(np.mean(draws))) < 0.005
        assert float(np.var(draws)) == pytest.approx(1.0, abs=0.01)
        assert float(sps.kurtosis(draws, fisher=False)) == pytest.approx(3.0, abs=0.1)

    def test_streams_uncorrelated(self):
        a = path_generator(123, 0).normal(size=100_000)
        b = path_generator(123, 1).normal(size=100_000)
        assert abs(float(np.corrcoef(a, b)[0, 1])) < 0.01


class TestFailureModes:
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_blow_up_raises(self):
        spec = _deterministic(lambda x: np.asarray(x, dtype=float) ** 3)
        with pytest.raises(NonFiniteStateError) as exc:
            integrate(spec, SimConfig(t_end=30.0, dt=1.0, seed=1, x0=(10.0,)))
        assert exc.value.step > 0

    def test_lowest_failing_path_named(self):
        spec = make_ou()
        cfg = SimConfig(t_end=0.3, dt=0.1, seed=1, x0=(0.0,), save_every=1)
        states = np.zeros((5, 4, 1))
        states[4, 1, 0] = np.nan
        states[3, 2, 0] = np.inf
        with pytest.raises(NonFiniteStateError) as exc:
            _trajectories(spec, cfg, states, lo=10)
        assert (exc.value.path_index, exc.value.step) == (13, 2)
        assert exc.value.t == pytest.approx(0.2)

    def test_x0_shape_checked(self):
        spec = make_ou()
        with pytest.raises(ValueError):
            integrate(spec, SimConfig(t_end=1.0, dt=0.1, seed=1, x0=(1.0, 2.0)))

    def test_trajectory_length_mismatch(self):
        with pytest.raises(ValueError):
            Trajectory(times=np.arange(3.0), states=np.zeros((3, 1)),
                       lyap=np.zeros(2), norms=np.zeros(3))


class TestCsvDump:
    def test_round_trip(self, tmp_path):
        spec = make_ou()
        traj = integrate(spec, SimConfig(t_end=0.1, dt=1e-2, seed=9, x0=(1.0,)))
        out = tmp_path / "traj.csv"
        trajectory_to_csv(traj, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x1,V,norm"
        assert len(lines) == len(traj.times) + 1
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 0], traj.times)
        assert np.array_equal(data[:, 1], traj.states[:, 0])
        assert np.array_equal(data[:, 2], traj.lyap)
        assert np.array_equal(data[:, 3], traj.norms)

    def test_bytes_equal_per_cell_format(self, tmp_path):
        # edge values, then enough random rows to span several write blocks
        special = np.array([
            [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-310],
            [1e-3, 1.7976931348623157e308, -1e301, 3e300, -0.0],
            [2e-3, 0.1, -1.0 / 3.0, 123456789.123456789, 1e16],
        ])
        rows = np.random.default_rng(8).standard_cauchy(size=(10_000, 5))
        table = np.concatenate([special, rows])
        traj = Trajectory(times=table[:, 0], states=table[:, 1:3],
                          lyap=table[:, 3], norms=table[:, 4])
        out = tmp_path / "traj.csv"
        trajectory_to_csv(traj, out)
        expected = "t,x1,x2,V,norm\n" + "".join(
            ",".join(f"{c:.17g}" for c in row) + "\n" for row in table)
        assert out.read_bytes() == expected.encode("ascii")
