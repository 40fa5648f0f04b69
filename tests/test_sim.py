import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import stats as sps

import nss_lab.sim as sim
from nss_lab.loops import extract_loops
from nss_lab.model import SYSTEMS, SystemSpec, _quadratic_lyapunov
from nss_lab.sim import (
    NonFiniteStateError,
    SimConfig,
    Trajectory,
    block_length,
    ensemble,
    integrate,
    path_generator,
    trajectory_to_csv,
    write_csv,
    _finalize,
)


def _deterministic(drift, dim=1):
    return SystemSpec(
        dim_state=dim,
        dim_noise=1,
        drift=drift,
        diffusion=lambda x: np.zeros(np.shape(x) + (1,)),
        covariance=lambda t: np.zeros(np.shape(t) + (1, 1)),
        lyapunov=_quadratic_lyapunov(dim),
        c=1.0,
        gamma=np.zeros_like,
        gamma_max=0.0,
    )


def _affine(a, h0, h):
    """A spec whose dynamics are the declared affine maps."""
    n, m = np.shape(h0)
    return SystemSpec(
        dim_state=n,
        dim_noise=m,
        covariance=lambda t: np.ones(np.shape(t) + (m, m)) * np.eye(m),
        lyapunov=_quadratic_lyapunov(n),
        c=1.0,
        gamma=np.zeros_like,
        gamma_max=0.0,
        affine=(a, h0, h),
    )


def _sequential(spec):
    """The same system as drift and diffusion maps: the reference kernel."""
    drift, diffusion = spec.dynamics
    return dataclasses.replace(spec, drift=drift, diffusion=diffusion, affine=None)


def _unstable():
    """An affine spec that overflows within a few hundred unit steps."""
    return _affine([[16.0, 1.0], [0.0, 15.0]], [[0.0], [1.0]],
                   [[[0.5], [0.0]], [[0.0], [0.0]]])


def _mixed_noise():
    """An affine spec whose Sigma(t) = [[1 + t, sin t], [sin 2t / 2, -sin t]] is
    time-varying and not diagonal; its second row is all zero at t = 0."""
    def covariance(t):
        t = np.asarray(t, dtype=float)
        return np.stack([np.stack([1.0 + t, np.sin(t)], -1),
                         np.stack([0.5 * np.sin(2.0 * t), -np.sin(t)], -1)], -2)

    spec = _affine([[-1.0, 0.5], [0.0, -1.0]], [[1.0, 0.0], [0.0, 1.0]],
                   np.zeros((2, 2, 2)))
    return dataclasses.replace(spec, covariance=covariance)


def _reference_noise(spec, cfg, i):
    """``0.0 + sum_k Sigma(t)[j, k] * (z_k * sqrt(dt))`` of every step of path i,
    summed left to right in Python floats, shape (m, n_steps)."""
    m, n = spec.dim_noise, cfg.n_steps
    z = path_generator(cfg.seed, i).standard_normal((n, m))
    sig = spec.covariance(np.arange(n) * cfg.dt)
    root = math.sqrt(cfg.dt)
    out = np.empty((m, n))
    for step in range(n):
        for j in range(m):
            acc = 0.0
            for k in range(m):
                acc = acc + float(sig[step, j, k]) * (float(z[step, k]) * root)
            out[j, step] = acc
    return out


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
    return 8 * spec.dim_noise * sim._padded_length(cfg.n_steps)


def _chunk_budget(spec, cfg, paths):
    """The noise budget of an affine-scan chunk of ``paths`` paths: their noise
    and the draws and row sums of one path group."""
    return (paths * _one_path_noise(spec, cfg)
            + sim._scratch_bytes(spec.dim_noise, cfg.n_steps, sim._GROUP))


def _set_chunk(monkeypatch, spec, cfg, paths):
    """Make :func:`ensemble` step ``spec`` in chunks of ``paths`` paths: the
    sequential kernel's chunk is a constant, the affine scan's is as many
    paths as fit in the noise budget."""
    if spec.affine is None:
        monkeypatch.setattr(sim, "_SEQUENTIAL_CHUNK", paths)
    else:
        monkeypatch.setattr(sim, "_NOISE_BYTES", _chunk_budget(spec, cfg, paths))


def _assert_paths_equal(a, b):
    assert len(a) == len(b)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.states, pb.states)
        assert np.array_equal(pa.lyap, pb.lyap)
        assert np.array_equal(pa.norms, pb.norms)


class TestConfig:
    def test_n_steps_rounding(self):
        assert SimConfig(t_end=1.0, dt=0.1, seed=0, x0=(0.0,)).n_steps == 10
        assert SimConfig(t_end=500.0, dt=1e-3, seed=0, x0=(0.0,)).n_steps == 500_000

    @pytest.mark.parametrize("kwargs, match", [
        (dict(t_end=1.0, dt=0.0), "dt"), (dict(t_end=1.0, dt=2.0), "dt"),
        (dict(t_end=1.0, dt=0.1, save_every=0), "save_every"),
        (dict(t_end=1.0, dt=0.1, save_every=3), "save_every"),
        (dict(t_end=1.0, dt=0.3), r"^time 1\.0 is not a whole number of steps 0\.3$"),
        (dict(t_end=math.inf, dt=0.1), r"^t_end must be finite, got inf$"),
        (dict(t_end=1.0, dt=0.1, seed=-1),
         r"^seed must be a nonnegative integer, got -1$"),
        (dict(t_end=1.0, dt=0.1, seed=1.5),
         r"^seed must be a nonnegative integer, got 1\.5$"),
        (dict(t_end=1.0, dt=0.1, seed="7"),
         r"^seed must be a nonnegative integer, got '7'$"),
    ], ids=[f"kwargs{i}" for i in range(9)])
    def test_invalid(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            SimConfig(**{"seed": 0, "x0": (0.0,), **kwargs})

    def test_numpy_integer_seed(self):
        for seed in (np.int64(3), np.uint32(3)):
            cfg = SimConfig(t_end=1.0, dt=0.1, seed=seed, x0=(0.0,))
            assert integrate(SYSTEMS["ou-1d"](), cfg).states.tobytes() == integrate(
                SYSTEMS["ou-1d"](), dataclasses.replace(cfg, seed=3)).states.tobytes()


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
        traj = integrate(spec, SimConfig(t_end=1.0, dt=0.25, seed=1, x0=(0.0,)))
        assert np.array_equal(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0])
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
        spec = SYSTEMS["ou-1d"]()
        cfg = SimConfig(t_end=5.0, dt=1e-2, seed=42, x0=(0.0,), save_every=100)
        paths = ensemble(spec, cfg, 10_000)
        finals = np.array([p.states[-1, 0] for p in paths])
        var = float(np.var(finals, ddof=1))
        target = 0.5 * (1.0 - math.exp(-10.0))
        se = target * math.sqrt(2.0 / (len(finals) - 1))
        assert abs(var - target) <= 3.0 * se + 1e-2  # O(dt) Euler bias allowance

    def test_ensemble_mean(self):
        spec = SYSTEMS["ou-1d"]()
        cfg = SimConfig(t_end=1.0, dt=1e-2, seed=43, x0=(1.0,), save_every=10)
        paths = ensemble(spec, cfg, 10_000)
        finals = np.array([p.states[-1, 0] for p in paths])
        mean = float(np.mean(finals))
        se = float(np.std(finals, ddof=1)) / math.sqrt(len(finals))
        # Euler mean is (1-dt)^{1/dt}, within O(dt) of e^{-1}
        assert abs(mean - math.exp(-1.0)) <= 3.0 * se + 1e-2

    def test_weak_error_shrinks_with_dt(self):
        # deterministic mean error dominates for large x0
        spec = SYSTEMS["ou-1d"]()
        errs = []
        for dt in (0.1, 0.05):
            cfg = SimConfig(t_end=1.0, dt=dt, seed=44, x0=(10.0,))
            paths = ensemble(spec, cfg, 2000)
            mean = float(np.mean([p.states[-1, 0] for p in paths]))
            errs.append(abs(mean - 10.0 * math.exp(-1.0)))
        assert errs[1] < errs[0]


class TestReproducibility:
    def test_repeat_integrate_identical(self):
        spec = SYSTEMS["ou-1d"]()
        cfg = SimConfig(t_end=1.0, dt=1e-3, seed=5, x0=(0.0,))
        a = integrate(spec, cfg)
        b = integrate(spec, cfg)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.lyap, b.lyap)

    def test_substreams_differ(self):
        spec = SYSTEMS["ou-1d"]()
        cfg = SimConfig(t_end=1.0, dt=1e-2, seed=5, x0=(0.0,))
        paths = ensemble(spec, cfg, 2)
        assert not np.array_equal(paths[0].states, paths[1].states)

    @pytest.mark.parametrize("name", ["ou-1d", "example-2d"])  # sequential, affine scan
    def test_iterating_an_ensemble_yields_its_paths(self, name):
        spec = SYSTEMS[name]()
        cfg = SimConfig(t_end=0.5, dt=1e-2, seed=6, x0=(0.3,) * spec.dim_state, save_every=5)
        paths = list(ensemble(spec, cfg, 5))
        assert len(paths) == 5
        for i, path in enumerate(paths):
            solo = integrate(spec, cfg, i)
            assert path.grid_dt == solo.grid_dt
            for got, want in ((path.states, solo.states), (path.lyap, solo.lyap),
                              (path.norms, solo.norms)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("system, chunk_size", [
        pytest.param("ou", 3, id="ou"),
        pytest.param("builtin", 3, id="builtin"),
        pytest.param("affine-ou", 1, id="affine-ou-chunk1"),
        pytest.param("affine-ou", 3, id="affine-ou-chunk3"),
        pytest.param("affine-ou", 7, id="affine-ou-chunk7"),
    ])
    def test_ensemble_matches_per_path_integrate(self, monkeypatch, system, chunk_size,
                                                 benchmark_system):
        spec = {"ou": SYSTEMS["ou-1d"](), "builtin": benchmark_system,
                "affine-ou": SYSTEMS["ou-1d-affine"]()}[system]
        cfg = SimConfig(t_end=0.5, dt=1e-2, seed=6, x0=(0.3,) * spec.dim_state)
        _set_chunk(monkeypatch, spec, cfg, chunk_size)
        shapes = _spy_noise(monkeypatch)
        paths = ensemble(spec, cfg, 7)
        assert max(s[-1] for s in shapes) == chunk_size
        _assert_paths_equal(paths, [integrate(spec, cfg, path_index=i) for i in range(7)])

    def test_chunking_irrelevant(self, monkeypatch):
        spec = SYSTEMS["ou-1d"]()
        cfg = SimConfig(t_end=0.5, dt=1e-2, seed=6, x0=(0.3,))
        _set_chunk(monkeypatch, spec, cfg, 10)
        a = ensemble(spec, cfg, 10)
        _set_chunk(monkeypatch, spec, cfg, 4)
        b = ensemble(spec, cfg, 10)
        _assert_paths_equal(a, b)

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
            _set_chunk(monkeypatch, SYSTEMS["ou-1d-affine"](), ou_cfg, chunk_size)
            monkeypatch.setenv("NSS_LAB_THREADS", "1")
            a = ensemble(SYSTEMS["ou-1d-affine"](), ou_cfg, 7)
            monkeypatch.setenv("NSS_LAB_THREADS", "4")
            b = ensemble(SYSTEMS["ou-1d-affine"](), ou_cfg, 7)
            _assert_paths_equal(a, b)

    def test_non_integer_thread_cap_named(self, monkeypatch):
        cfg = SimConfig(t_end=0.2, dt=1e-2, seed=6, x0=(0.1,))
        for threads in ("two", "0", "-1"):
            monkeypatch.setenv("NSS_LAB_THREADS", threads)
            with pytest.raises(ValueError, match="NSS_LAB_THREADS"):
                ensemble(SYSTEMS["ou-1d"](), cfg, 5)

    def test_many_workers_fill_their_own_rows(self, monkeypatch):
        # more workers than cores, switching threads often: every chunk must
        # land in its own rows of the shared states, V and norm arrays
        spec = SYSTEMS["ou-1d"]()
        cfg = SimConfig(t_end=0.2, dt=1e-2, seed=9, x0=(0.2,))
        solo = [integrate(spec, cfg, i) for i in range(40)]
        _set_chunk(monkeypatch, spec, cfg, 1)
        monkeypatch.setenv("NSS_LAB_THREADS", "8")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            paths = ensemble(spec, cfg, 40)
        finally:
            sys.setswitchinterval(interval)
        _assert_paths_equal(paths, solo)


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

    @pytest.mark.parametrize("t_end, save, seed", [
        pytest.param(t_end, save, seed, id=f"{t_end}-{save}") for t_end, save, seed in [
            (5.0, 100, 15), (5.0, 500, 15), (5.0, 1250, 15), (4.9, 70, 16), (4.9, 14, 16),
            (4.9, 35, 16), (4.9, 28, 16), (4.9, 49, 16), (4.9, 245, 16), (5.0, 50, 16)]])
    def test_thinning_by_refill_slices(self, monkeypatch, benchmark_system, t_end, save,
                                       seed):
        # blocks of 70 steps: thinning by the block length, by less with
        # gcd(save, 70) > 1, dividing 70 (14, 35) or not (28, 49, 50), and by
        # more (100, 245, 500, 1250: most blocks hold no saved step); 4900
        # steps leave the last block empty, 5000 leave it 30
        full_cfg = SimConfig(t_end=t_end, dt=1e-3, seed=seed, x0=(0.5, -0.5))
        assert (block_length(full_cfg.n_steps), full_cfg.n_steps % 70) == (
            70, 30 if t_end == 5.0 else 0)
        cfg = dataclasses.replace(full_cfg, save_every=save)
        full = [integrate(benchmark_system, full_cfg, i) for i in range(5)]
        _set_chunk(monkeypatch, benchmark_system, cfg, 3)
        shapes = _spy_noise(monkeypatch)
        thin = ensemble(benchmark_system, cfg, 5)
        assert sorted(s[-1] for s in shapes) == [2, 3]
        for i, ref in enumerate(full):
            for got in (thin[i], integrate(benchmark_system, cfg, i)):
                assert got.states.tobytes() == ref.states[::save].tobytes()
                assert got.lyap.tobytes() == ref.lyap[::save].tobytes()

    @pytest.mark.parametrize("n_steps, saves", [
        pytest.param(n_steps, saves, id=str(n_steps)) for n_steps, saves in [
            *((n, None) for n in (4900, 5000, 997, 12, 2, 70_001)),  # every divisor
            # the 70 s dump and the 500 s default, blocks of 264 and 707 steps:
            # thinned by less and by more than a block, gcd(save, block) 1 to 8
            (70_000, (1, 8, 14, 56, 250, 280, 875, 70_000)),
            (500_000, (1, 2, 100, 500, 800, 1000, 5000, 500_000)),
            (2_000_000, (5000,))]])  # a long horizon: 401 saved steps on 1414 offsets
    def test_refill_plan_fills_every_saved_index_once(self, n_steps, saves):
        span = block_length(n_steps)
        steps = np.arange(n_steps + 1)
        for save in saves or (d for d in range(1, n_steps + 1) if n_steps % d == 0):
            assert n_steps % save == 0
            plan = sim._refill_plan(n_steps, span, save)
            filled = []
            for jj, fill in enumerate(plan):
                if fill is None:
                    continue
                rows, saved = fill
                q = steps[:n_steps // save + 1][saved]
                pos = q * save
                assert (pos % span == jj).all()
                # a row per block, or per saved index if a block holds at most one
                row_of = pos // span if save <= span else q
                assert np.array_equal(steps[rows], row_of)
                filled.extend(q.tolist())
            assert sorted(filled) == list(range(n_steps // save + 1)), save
            assert plan[-1] is not None

    @pytest.mark.parametrize("t_end, last_block", [(0.1, 0), (1.0, 1), (1.4, 2), (3.0, 0),
                                                   (11.9, 9), (12.0, 0)])
    def test_block_edges(self, monkeypatch, t_end, last_block):
        # blocks of 1, 3, 3, 5, 10 and 10 steps: the last block empty, or one
        # step short of full, or neither; each run thinned by every divisor of
        # its step count, so by less than a block and (past one step) by more
        spec = _affine([[-0.5, 2.0], [-2.0, -0.5]], [[0.3, 0.0], [0.0, 0.2]],
                       [[[0.1, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.4, 0.1]]])
        cfg = SimConfig(t_end=t_end, dt=0.1, seed=13, x0=(1.0, -0.5))
        span = block_length(cfg.n_steps)
        assert cfg.n_steps % span == last_block
        got = integrate(spec, cfg).states
        ref = integrate(_sequential(spec), cfg).states
        assert np.max(np.abs(got - ref)) <= 1e-12
        saves = [d for d in range(1, cfg.n_steps + 1) if cfg.n_steps % d == 0]
        assert cfg.n_steps == 1 or min(saves) < span < max(saves)
        for kernel in (spec, _sequential(spec)):
            full = [integrate(kernel, cfg, i) for i in range(3)]
            for save in saves:
                thin = dataclasses.replace(cfg, save_every=save)
                _set_chunk(monkeypatch, kernel, thin, 2)
                ens = ensemble(kernel, thin, 3)
                assert thin.n_saved == ens.lyap.shape[1] == cfg.n_steps // save + 1
                for i, whole in enumerate(full):
                    solo = integrate(kernel, thin, i)
                    assert len(solo.lyap) == thin.n_saved
                    assert solo.states.tobytes() == whole.states[::save].tobytes()
                    _assert_paths_equal([solo], [ens[i]])

    @pytest.mark.parametrize("save", [1, 7, 49])
    def test_chunk_states_are_path_major(self, benchmark_system, save):
        # the sequential kernel's layout, so that _finalize reads a chunk as a
        # view; blocks of 7 steps, refilled by block (1, 7) or by saved step (49)
        cfg = SimConfig(t_end=4.9, dt=0.1, seed=17, x0=(0.5, -0.5), save_every=save)
        gens = [path_generator(cfg.seed, i) for i in range(3)]
        states = sim._affine_scan(benchmark_system, cfg, np.array(cfg.x0), gens, (3,))
        assert states.shape == (3, cfg.n_saved, 2)
        assert states.flags.c_contiguous
        for i in range(3):
            assert states[i].tobytes() == integrate(benchmark_system, cfg, i).states.tobytes()

    @pytest.mark.filterwarnings("error")
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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kernel", ["affine", "sequential"])
    def test_ensemble_blow_up_matches_integrate(self, monkeypatch, kernel):
        spec = _unstable() if kernel == "affine" else _sequential(_unstable())
        cfg = SimConfig(t_end=400.0, dt=1.0, seed=14, x0=(1.0, 1.0), save_every=2)
        with pytest.raises(NonFiniteStateError) as solo:
            integrate(spec, cfg, 0)
        _set_chunk(monkeypatch, spec, cfg, 2)
        with pytest.raises(NonFiniteStateError) as exc:
            ensemble(spec, cfg, 5)
        assert exc.value.path_index == solo.value.path_index == 0
        assert exc.value.step == solo.value.step


class TestNoise:
    """The noise both kernels read against a direct reference, bit for bit."""

    def test_one_path_matches_reference(self, monkeypatch):
        # in blocks of 1 or 7 steps, Sigma[0, 1] = sin t and the second row are
        # zero in the first block (Sigma[1, 1] = -0.0) and nonzero later, and
        # the draws continue the stream from block to block
        spec = _mixed_noise()
        cfg = SimConfig(t_end=3.0, dt=0.05, seed=21, x0=(0.0, 0.0))
        assert spec.covariance(1.0).all() and not spec.covariance(0.0)[1].any()
        assert np.signbit(spec.covariance(0.0)[1, 1])
        padded = sim._padded_length(cfg.n_steps)
        ref = _reference_noise(spec, cfg, 5)
        assert ref[1, 0] == 0.0 and not np.signbit(ref[1, 0])
        for rows in (sim._BLOCK_ROWS, 1, 7):
            monkeypatch.setattr(sim, "_BLOCK_ROWS", rows)
            got = sim._noise(spec, [path_generator(21, 5)], cfg.dt,
                             0, cfg.n_steps, (2, padded))
            assert got[:, :cfg.n_steps].tobytes() == ref.tobytes()
            assert got[:, cfg.n_steps:].tobytes() == bytes(8 * 2 * (padded - cfg.n_steps))

    @pytest.mark.parametrize("cut", [None, 23])
    def test_chunk_matches_reference(self, monkeypatch, cut):
        # one whole path group and 3 paths of the next; with a cut, two
        # time segments that continue every path's stream; in blocks of 1 or
        # 7 steps, the blocks and the path groups interleave
        spec = _mixed_noise()
        cfg = SimConfig(t_end=3.0, dt=0.05, seed=22, x0=(0.0, 0.0))
        n, paths = cfg.n_steps, sim._GROUP + 3
        bounds = [0, n] if cut is None else [0, cut, n]
        ref = np.stack([_reference_noise(spec, cfg, 3 + i) for i in range(paths)], axis=-1)
        for rows in (sim._BLOCK_ROWS, 7, 1):
            monkeypatch.setattr(sim, "_BLOCK_ROWS", rows)
            gens = [path_generator(cfg.seed, i) for i in range(3, 3 + paths)]
            got = np.concatenate([sim._noise(spec, gens, cfg.dt, k0, k1,
                                             (2, k1 - k0, paths))
                                  for k0, k1 in zip(bounds, bounds[1:])], axis=1)
            assert got.tobytes() == ref.tobytes()


class TestNoiseBudget:
    """Every kernel holds at most ``_NOISE_BYTES`` of noise per chunk."""

    @pytest.mark.parametrize("paths_in_budget", [3, 0.5])
    @pytest.mark.parametrize("system", ["affine-ou", "builtin", "builtin-sequential", "ou"])
    def test_noise_buffer_within_budget(self, monkeypatch, benchmark_system,
                                        system, paths_in_budget):
        spec = {"affine-ou": SYSTEMS["ou-1d-affine"](), "builtin": benchmark_system,
                "ou": SYSTEMS["ou-1d"](),
                "builtin-sequential": _sequential(benchmark_system)}[system]
        cfg = SimConfig(t_end=1.0, dt=1e-2, seed=4, x0=(0.2,) * spec.dim_state)
        one_path = _one_path_noise(spec, cfg)
        budget = int(paths_in_budget * one_path)
        monkeypatch.setattr(sim, "_NOISE_BYTES", budget, raising=False)
        shapes = _spy_noise(monkeypatch)
        ensemble(spec, cfg, 10)
        assert shapes
        assert max(8 * math.prod(s) for s in shapes) <= max(budget, one_path)

    @pytest.mark.parametrize("system", ["ou", "builtin-sequential"])
    def test_time_segments_move_no_bit(self, monkeypatch, benchmark_system, system):
        spec = {"ou": SYSTEMS["ou-1d"](),
                "builtin-sequential": _sequential(benchmark_system)}[system]
        cfg = SimConfig(t_end=1.0, dt=1e-2, seed=5, x0=(0.3,) * spec.dim_state,
                        save_every=4)
        whole = ensemble(spec, cfg, 7)
        solo = [integrate(spec, cfg, i) for i in range(7)]
        # 30 steps of one path with its draws: 4 segments alone, 12-13 in a chunk of 7
        step = 8 * spec.dim_noise + sim._scratch_bytes(spec.dim_noise, 1, 1)
        monkeypatch.setattr(sim, "_NOISE_BYTES", 30 * step)
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
        spec = {"affine-ou": SYSTEMS["ou-1d-affine"](), "builtin": benchmark_system}[system]
        cfg = SimConfig(t_end=0.5, dt=1e-2, seed=6, x0=(0.3,) * spec.dim_state)
        monkeypatch.setattr(sim, "_NOISE_BYTES", _chunk_budget(spec, cfg, 3))
        shapes = _spy_noise(monkeypatch)
        paths = ensemble(spec, cfg, 8)
        assert sorted(s[-1] for s in shapes) == [2, 3, 3]
        for i, p in enumerate(paths):
            assert np.array_equal(p.states, integrate(spec, cfg, i).states)

    def test_peak_memory_is_saved_arrays_noise_and_one_chunk(self, monkeypatch,
                                                              benchmark_system):
        # each worker computes its chunk's V and norms, so no temporary spans
        # the whole ensemble; a chunk's temporaries are its kernel output, its
        # V and norm intermediates and its Philox generators
        spec = _sequential(benchmark_system)
        cfg = SimConfig(t_end=1.0, dt=1e-3, seed=3, x0=(0.5, -0.5), save_every=10)
        n_paths, chunk = 600, 100
        _set_chunk(monkeypatch, spec, cfg, chunk)
        budget = 8 * spec.dim_noise * chunk * 100  # time segments of at most 100 steps
        monkeypatch.setattr(sim, "_NOISE_BYTES", budget)
        monkeypatch.setenv("NSS_LAB_THREADS", "1")
        n_saved = cfg.n_saved
        saved = 8 * n_paths * n_saved * (spec.dim_state + 2)  # states, V and norms
        one_chunk = 8 * chunk * n_saved * spec.dim_state
        tracemalloc.start()
        try:
            ensemble(spec, cfg, n_paths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= saved + budget + 4 * one_chunk

    def test_affine_chunk_noise_draws_and_scratch_within_budget(self, monkeypatch,
                                                                 benchmark_system):
        # one chunk of the ensemble workload's shape at the default budget: while
        # its noise is made, the noise, one path's draws, one term and the row
        # sums of a path group are all the memory it adds, and they fit the
        # budget; at 40 s (more than two blocks) the scratch is still one block
        # long, so the chunk keeps more than one path
        monkeypatch.setenv("NSS_LAB_THREADS", "1")
        real, peaks = sim._noise, []

        def traced(*args):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = real(*args)
            peaks.append((tracemalloc.get_traced_memory()[1] - before, out.shape))
            return out

        monkeypatch.setattr(sim, "_noise", traced)
        for t_end, min_chunk in ((5.0, sim._GROUP + 1), (40.0, 2)):
            cfg = SimConfig(t_end=t_end, dt=1e-3, seed=3, x0=(0.0, 0.0), save_every=500)
            m, one_path = benchmark_system.dim_noise, _one_path_noise(benchmark_system, cfg)
            chunk = ((sim._NOISE_BYTES - sim._scratch_bytes(m, cfg.n_steps, sim._GROUP))
                     // one_path)
            assert chunk >= min_chunk, t_end
            peaks.clear()
            tracemalloc.start()
            try:
                ensemble(benchmark_system, cfg, chunk)
            finally:
                tracemalloc.stop()
            [(peak, shape)] = peaks
            assert shape[-1] == chunk
            noise = 8 * math.prod(shape)
            assert (noise + sim._scratch_bytes(m, cfg.n_steps, chunk)
                    <= peak <= sim._NOISE_BYTES), t_end

    @pytest.mark.parametrize("t_end", [100.0, 400.0])
    def test_full_sigma_long_path_peak_is_its_series_and_a_constant(self, t_end):
        # all four entries of Sigma are nonzero, and Sigma is evaluated one
        # block at a time where the noise is drawn, so beside the path's
        # states, V and norms the traced peak is a constant at any horizon
        spec = _mixed_noise()
        cfg = SimConfig(t_end=t_end, dt=1e-3, seed=1, x0=(0.0, 0.0))
        tracemalloc.start()
        try:
            integrate(spec, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stored = 8 * (cfg.n_steps + 1) * (spec.dim_state + 2)
        assert peak - stored <= 1 << 20

    @pytest.mark.filterwarnings("error")
    def test_lowest_failing_path_across_chunks(self, monkeypatch):
        # x -> (5.55 + s_k) x: whether and when a path overflows depends on its noise
        spec = _affine([[4.55]], [[0.0]], [[[1.0]]])
        cfg = SimConfig(t_end=210.0, dt=1.0, seed=8, x0=(1.0,), save_every=2)
        failing = {}
        for i in range(12):
            try:
                integrate(spec, cfg, i)
            except NonFiniteStateError as exc:
                failing[i] = exc.step
        lowest = min(failing)
        # not in the first chunk of two paths, and a higher path fails sooner
        assert lowest >= 2 and min(failing.values()) < failing[lowest]
        monkeypatch.setattr(sim, "_NOISE_BYTES", _chunk_budget(spec, cfg, 2))
        monkeypatch.setenv("NSS_LAB_THREADS", "4")
        shapes = _spy_noise(monkeypatch)
        real, drawn = sim._simulate, []
        monkeypatch.setattr(sim, "_simulate", lambda spec, cfg, lo, hi=None:
                            drawn.append((lo, hi)) or real(spec, cfg, lo, hi))
        with pytest.raises(NonFiniteStateError) as exc:
            ensemble(spec, cfg, 12)
        assert (exc.value.path_index, exc.value.step) == (lowest, failing[lowest])
        # chunks that have not started when the failing one raises are cancelled;
        # the failing chunk and all below it ran, and every chunk that ran is one
        # of the six, 2 paths wide, and drew its noise once
        los = sorted(lo for lo, _ in drawn)
        assert los[:lowest // 2 + 1] == list(range(0, lowest + 1, 2))
        assert len(set(los)) == len(los) and set(los) <= set(range(0, 12, 2))
        assert all(hi == lo + 2 for lo, hi in drawn)
        assert [s[-1] for s in shapes] == [2] * len(drawn)


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
    @pytest.mark.filterwarnings("error")
    def test_blow_up_raises(self):
        spec = _deterministic(lambda x: np.asarray(x, dtype=float) ** 3)
        with pytest.raises(NonFiniteStateError) as exc:
            integrate(spec, SimConfig(t_end=30.0, dt=1.0, seed=1, x0=(10.0,)))
        assert exc.value.step > 0

    @pytest.mark.filterwarnings("error")
    def test_overflowing_norm_is_a_blow_up(self):
        # x -> (5.55 + s_k) x: path 0's states stay finite, but from step 212
        # on they exceed 1e154, so their squares, V and the norm, overflow
        spec = _affine([[4.55]], [[0.0]], [[[1.0]]])
        cfg = SimConfig(t_end=420.0, dt=1.0, seed=2, x0=(1.0,), save_every=2)
        with np.errstate(over="ignore"):
            states = sim._affine_scan(spec, cfg, np.array([1.0]), [path_generator(2, 0)], ())
            assert np.isfinite(states).all()
        with pytest.raises(NonFiniteStateError) as exc:
            integrate(spec, cfg)
        assert (exc.value.path_index, exc.value.step) == (0, 212)

    def test_lowest_failing_path_named(self, monkeypatch):
        spec = SYSTEMS["ou-1d"]()
        cfg = SimConfig(t_end=0.3, dt=0.1, seed=1, x0=(0.0,), save_every=1)
        states = np.zeros((5, 4, 1))
        states[4, 1, 0] = np.nan
        states[3, 2, 0] = np.inf
        # one block, then blocks of 2 rows: path 3's step 2 is in the chunk's
        # 8th block and the lone path's 2nd
        for rows in (sim._BLOCK_ROWS, 2):
            monkeypatch.setattr(sim, "_BLOCK_ROWS", rows)
            for chunk, lo in ((states, 10), (states[3], 13)):
                with pytest.raises(NonFiniteStateError) as exc:
                    _finalize(spec, cfg, chunk, lo=lo)
                assert (exc.value.path_index, exc.value.step) == (13, 2)
                assert exc.value.t == 2 * cfg.grid_dt == pytest.approx(0.2)

    def test_x0_shape_checked(self):
        spec = SYSTEMS["ou-1d"]()
        with pytest.raises(ValueError):
            integrate(spec, SimConfig(t_end=1.0, dt=0.1, seed=1, x0=(1.0, 2.0)))

    def test_trajectory_length_mismatch(self):
        with pytest.raises(ValueError):
            Trajectory(grid_dt=1.0, states=np.zeros((3, 1)),
                       lyap=np.zeros(2), norms=np.zeros(3))


class TestFinalize:
    @pytest.mark.parametrize("dim", [*range(1, 10), 12])
    def test_norms_have_the_bits_of_linalg_norm(self, dim):
        # the squares summed by columns: the bits of np.linalg.norm up to 7
        # components; from 8 on, where it regroups, within 2 ulp of it
        spec = _deterministic(lambda x: x, dim)
        cfg = SimConfig(t_end=0.3, dt=0.1, seed=1, x0=(0.0,) * dim)
        rng = np.random.default_rng(dim)
        for shape in ((50, dim), (3, 20, dim)):
            states = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, shape)
            lyap, norms = _finalize(spec, cfg, states, 0)
            assert norms.shape == lyap.shape == shape[:-1]
            by_columns = states[..., 0] * states[..., 0]
            for i in range(1, dim):
                by_columns = by_columns + states[..., i] * states[..., i]
            assert norms.tobytes() == np.sqrt(by_columns).tobytes()
            linalg = np.linalg.norm(states, axis=-1)
            if dim < 8:
                assert norms.tobytes() == linalg.tobytes()
            else:
                assert (np.abs(norms - linalg) <= 2 * np.spacing(linalg)).all()


class TestCsvDump:
    def test_round_trip(self, tmp_path):
        spec = SYSTEMS["ou-1d"]()
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
        out = tmp_path / "traj.csv"
        write_csv(out, ["t", "x1", "x2", "V", "norm"], table[:, 0], table[:, 1:3],
                  table[:, 3], table[:, 4])
        expected = "t,x1,x2,V,norm\n" + "".join(
            ",".join(f"{c:.17g}" for c in row) + "\n" for row in table)
        assert out.read_bytes() == expected.encode("ascii")
