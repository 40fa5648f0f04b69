import math

import numpy as np
import pytest
from scipy import stats as sps

from nss_lab.model import SystemSpec
from nss_lab.sim import (
    NonFiniteStateError,
    SimConfig,
    Trajectory,
    ensemble,
    integrate,
    path_generator,
    trajectory_to_csv,
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

    @pytest.mark.parametrize("system", ["ou", "builtin"])
    def test_ensemble_matches_per_path_integrate(self, system, benchmark_system):
        spec = make_ou() if system == "ou" else benchmark_system
        cfg = SimConfig(t_end=0.5, dt=1e-2, seed=6, x0=(0.3,) * spec.dim_state)
        paths = ensemble(spec, cfg, 7, chunk_size=3)
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
