import dataclasses
import math

import numpy as np
import pytest

from nss_lab.cli import ExperimentConfig, _premise_sample
from nss_lab.model import (
    LyapunovSpec,
    SystemSpec,
    builtin_example,
    check_enss,
    generator_v,
    noise_magnitude,
)
from nss_lab.sim import SimConfig, ensemble

from conftest import quadratic_lyapunov


def _example_variant(**overrides):
    base = builtin_example()
    fields = {
        name: getattr(base, name)
        for name in (
            "dim_state", "dim_noise", "drift", "diffusion", "covariance",
            "lyapunov", "c", "gamma", "gamma_max", "vectorized", "name",
        )
    }
    fields.update(overrides)
    return SystemSpec(**fields)


class TestGenerator:
    def test_example_point(self, benchmark_system):
        # -(x1^2 + x2^2) + (x2^2 + sin^2 t)/2 at x=(1,1), t=pi/2
        val = generator_v(benchmark_system, (1.0, 1.0), math.pi / 2.0)
        assert val == pytest.approx(-1.0, abs=1e-12)

    def test_origin(self, benchmark_system):
        assert generator_v(benchmark_system, (0.0, 0.0), 0.0) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_matches_closed_form_on_grid(self, benchmark_system):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.uniform(-5.0, 5.0, size=2)
            t = rng.uniform(0.0, 10.0)
            expected = -(x[0] ** 2 + x[1] ** 2) + 0.5 * (
                x[1] ** 2 + math.sin(t) ** 2
            )
            assert generator_v(benchmark_system, x, t) == pytest.approx(
                expected, rel=1e-12, abs=1e-12
            )

    def test_zero_diffusion_leaves_drift_term(self, benchmark_system):
        spec = _example_variant(
            diffusion=lambda x: np.zeros(np.shape(x)[:-1] + (2, 2))
        )
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.uniform(-4.0, 4.0, size=2)
            grad = spec.lyapunov.grad(x)
            f = spec.drift(x)
            assert generator_v(spec, x, 1.0) == pytest.approx(
                float(grad @ f), rel=1e-12, abs=1e-12
            )

    def test_shape_validation(self, benchmark_system):
        with pytest.raises(ValueError):
            generator_v(benchmark_system, (1.0, 2.0, 3.0), 0.0)

    def test_finite_difference_fallback(self, benchmark_system):
        # same Lyapunov function, derivatives left to central differences
        lyap = benchmark_system.lyapunov
        fd_lyap = LyapunovSpec(
            v=lyap.v, alpha1=lyap.alpha1, alpha2=lyap.alpha2,
            alpha3=lyap.alpha3, alpha1_inv=lyap.alpha1_inv,
        )
        spec = _example_variant(lyapunov=fd_lyap)
        rng = np.random.default_rng(11)
        for _ in range(25):
            x = rng.uniform(-5.0, 5.0, size=2)
            t = rng.uniform(0.0, 10.0)
            exact = generator_v(benchmark_system, x, t)
            approx = generator_v(spec, x, t)
            assert approx == pytest.approx(exact, rel=1e-4, abs=1e-6)

    def test_dynkin_short_time(self, benchmark_system):
        # ensemble mean of (V(x_{t+h}) - V(x_t)) / h approximates LV(x, t)
        x0, t0, h = (1.0, 1.0), 0.7, 1e-3
        n = 20_000
        cfg = SimConfig(t_end=h, dt=h, seed=99, x0=x0, t0=t0)
        paths = ensemble(benchmark_system, cfg, n)
        v0 = float(benchmark_system.lyapunov.v(np.asarray(x0)))
        incr = np.array([(p.lyap[-1] - v0) / h for p in paths])
        mean = float(np.mean(incr))
        se = float(np.std(incr, ddof=1)) / math.sqrt(n)
        lv = generator_v(benchmark_system, x0, t0)
        # d/dt of the noise term is sin(t)cos(t); Euler bias is O(h)
        dt_lv = abs(0.5 * math.sin(2.0 * t0))
        assert abs(mean - lv) <= 3.0 * se + 5.0 * h * (dt_lv + 1.0)


class TestSigmaSeries:
    def test_one_call_equals_per_time_calls(self, benchmark_system):
        ts = np.linspace(0.0, 7.0, 50)
        per_time = _example_variant(vectorized=False).sigma_series(ts)
        assert per_time.shape == (50, 2, 2)
        assert np.array_equal(benchmark_system.sigma_series(ts), per_time)

    def test_unbatched_covariance_falls_back(self, benchmark_system):
        # a time array gets one (m, m) matrix back, so it is asked per time
        spec = _example_variant(covariance=lambda t: np.diag([1.0, np.sin(np.max(t))]))
        assert np.array_equal(spec.sigma_series([0.5, 1.5]),
                              benchmark_system.sigma_series([0.5, 1.5]))

    def test_shape_checked(self):
        spec = _example_variant(covariance=lambda t: np.eye(3))
        with pytest.raises(ValueError, match="covariance returned shape"):
            spec.sigma_series([0.0])


class TestBatched:
    def test_vectorized_spec_returns_function(self, benchmark_system):
        assert benchmark_system.batched(benchmark_system.drift) is benchmark_system.drift

    def test_per_state_loop_matches_batch_call(self, benchmark_system):
        states = np.random.default_rng(5).normal(size=(7, 2))
        slow = _example_variant(vectorized=False)
        for fn, shape in ((slow.drift, (7, 2)), (slow.diffusion, (7, 2, 2)),
                          (slow.lyapunov.v, (7,))):
            got = slow.batched(fn)(states)
            assert got.shape == shape
            assert np.allclose(got, fn(states), rtol=1e-15, atol=0.0)


class TestNoiseMagnitude:
    def test_equals_frobenius_norm(self, benchmark_system):
        ts = np.random.default_rng(4).uniform(0.0, 100.0, 200)
        for spec in (benchmark_system, _example_variant(vectorized=False)):
            for t in ts:
                sig = benchmark_system.covariance(float(t))
                assert noise_magnitude(spec, float(t)) == float(
                    np.linalg.norm(sig @ sig.T, "fro"))

    def test_builtin_range(self, benchmark_system):
        # |Sigma Sigma^T|_F = sqrt(1 + sin^4 t) in [1, sqrt(2)]
        ts = np.linspace(0.0, 2.0 * math.pi, 101)
        mags = np.array([noise_magnitude(benchmark_system, float(t)) for t in ts])
        assert np.all(mags >= 1.0 - 1e-12)
        assert np.all(mags <= math.sqrt(2.0) + 1e-12)
        assert noise_magnitude(benchmark_system, math.pi / 2.0) == pytest.approx(
            math.sqrt(2.0), rel=1e-12
        )


class TestCheckEnss:
    GRID = [np.array([a, b]) for a in (-3.0, -1.0, 0.0, 1.0, 3.0)
            for b in (-3.0, -1.0, 0.0, 1.0, 3.0)]
    TIMES = np.linspace(0.0, 2.0 * math.pi, 13)

    def test_builtin_passes(self, benchmark_system):
        report = check_enss(benchmark_system, self.GRID, self.TIMES)
        assert report.passed
        assert report.points_checked == len(self.GRID) * len(self.TIMES)
        assert report.max_violation <= report.tol
        assert report.violating_points == []

    def test_anti_stable_reported(self):
        spec = SystemSpec(
            dim_state=1,
            dim_noise=1,
            drift=lambda x: np.asarray(x, dtype=float),
            diffusion=lambda x: np.zeros((1, 1)),
            covariance=lambda t: np.zeros((1, 1)),
            lyapunov=quadratic_lyapunov(1),
            c=1.0,
            gamma=lambda s: 0.0,
            gamma_max=0.0,
            name="anti-stable",
        )
        report = check_enss(spec, [np.array([1.0])], [0.0])
        assert not report.passed
        # residual at x=1: LV + cV = 1 + 0.5
        assert report.max_violation == pytest.approx(1.5, rel=1e-12)
        assert len(report.violating_points) == 1

    def test_zero_gain_variant_violates(self, benchmark_system):
        spec = _example_variant(gamma=lambda s: 0.0, gamma_max=0.0)
        report = check_enss(spec, self.GRID, self.TIMES)
        assert not report.passed
        # violations exactly where the noise term (x2^2 + sin^2 t)/2 is positive
        assert all(
            0.5 * (x[1] ** 2 + math.sin(t) ** 2) > 0.0
            for x, t, _ in report.violating_points
        )

    def test_understated_gamma_max_caught(self, benchmark_system):
        spec = _example_variant(gamma_max=0.1)
        report = check_enss(spec, self.GRID, self.TIMES)
        assert report.gamma_max_violation > report.tol
        assert not report.passed

    def test_empty_sample_rejected(self, benchmark_system):
        with pytest.raises(ValueError):
            check_enss(benchmark_system, [], [0.0])

    @staticmethod
    def _reference(spec, states, times, gamma_times):
        """check_enss point by point: one generator and one norm per point."""
        def gain(t):
            sig = np.asarray(spec.covariance(float(t)), dtype=float)
            return spec.gamma(float(np.linalg.norm(sig @ sig.T, "fro")))

        residuals = [
            (x, float(t), generator_v(spec, x, float(t))
             + spec.c * float(spec.lyapunov.v(x)) - gain(t))
            for x in states for t in times
        ]
        gamma_violation = max(gain(t) - spec.gamma_max for t in gamma_times)
        return residuals, gamma_violation

    @pytest.mark.parametrize("variant", [
        {}, dict(vectorized=False), dict(gamma=lambda s: 0.0, gamma_max=0.0),
    ], ids=["builtin", "per-time", "zero-gain"])
    @pytest.mark.parametrize("sample", ["cli", "tests"])
    def test_equals_pointwise_reference(self, variant, sample):
        spec = _example_variant(**variant)
        if sample == "cli":
            states, times, gamma_times = _premise_sample(spec, ExperimentConfig(t_end=2.0))
        else:
            states, times, gamma_times = self.GRID, self.TIMES, self.TIMES
        report = check_enss(spec, states, times, gamma_times=gamma_times)
        residuals, gamma_violation = self._reference(spec, states, times, gamma_times)
        assert report.max_violation == max(r for _, _, r in residuals)
        assert report.gamma_max_violation == gamma_violation
        flagged = [(x, t, r) for x, t, r in residuals if r > report.tol]
        assert len(report.violating_points) == len(flagged)
        for (x, t, r), (rx, rt, rr) in zip(report.violating_points, flagged):
            assert np.array_equal(x, rx) and t == rt and r == rr
        if "gamma" in variant:
            assert flagged

    def test_gain_evaluated_once_per_time(self, benchmark_system):
        calls = []

        def gamma(s):
            calls.append(s)
            return benchmark_system.gamma(s)

        spec = _example_variant(gamma=gamma)
        states, times, gamma_times = _premise_sample(spec, ExperimentConfig())
        check_enss(spec, states, times, gamma_times=gamma_times)
        assert len(calls) == len(times) + len(gamma_times) == 11 + 10_000
        calls.clear()
        check_enss(spec, states, times)
        assert len(calls) == len(times)

    def test_state_terms_evaluated_once_per_state(self, benchmark_system):
        calls = dict.fromkeys(("drift", "diffusion", "v", "gamma"), 0)

        def counted(name, fn):
            def wrapper(arg):
                calls[name] += 1
                return fn(arg)
            return wrapper

        base = benchmark_system
        spec = _example_variant(
            vectorized=False,
            drift=counted("drift", base.drift),
            diffusion=counted("diffusion", base.diffusion),
            lyapunov=dataclasses.replace(base.lyapunov, v=counted("v", base.lyapunov.v)),
            gamma=counted("gamma", base.gamma),
        )
        states, times, gamma_times = _premise_sample(spec, ExperimentConfig(t_end=2.0))
        check_enss(spec, states, times, gamma_times=gamma_times)
        assert len(states) == 49
        assert calls == {"drift": 49, "diffusion": 49, "v": 49, "gamma": 11 + 10_000}


class TestBuiltinExample:
    def test_drift_value(self, benchmark_system):
        assert np.allclose(benchmark_system.drift(np.array([1.0, 0.0])), [-1.0, -1.0])

    def test_diffusion_structure(self, benchmark_system):
        h = benchmark_system.diffusion(np.array([0.5, 2.0]))
        assert np.allclose(h, [[0.0, 0.0], [2.0, 1.0]])

    def test_lyapunov_value(self, benchmark_system):
        assert float(benchmark_system.lyapunov.v(np.array([1.0, 1.0]))) == 1.0

    def test_constants(self, benchmark_system):
        assert benchmark_system.c == 1.0
        assert benchmark_system.gamma_max == 0.5
        assert benchmark_system.noise_floor == 0.5

    def test_gamma_edge(self, benchmark_system):
        assert benchmark_system.gamma(1.0) == 0.0
        assert benchmark_system.gamma(math.sqrt(2.0)) == pytest.approx(0.5, rel=1e-12)
        with pytest.raises(ValueError):
            benchmark_system.gamma(0.5)

    def test_batched_callables(self, benchmark_system):
        xs = np.random.default_rng(0).uniform(-2.0, 2.0, size=(8, 2))
        fs = benchmark_system.drift(xs)
        hs = benchmark_system.diffusion(xs)
        vs = benchmark_system.lyapunov.v(xs)
        assert fs.shape == (8, 2) and hs.shape == (8, 2, 2) and vs.shape == (8,)
        for i, x in enumerate(xs):
            assert np.allclose(fs[i], benchmark_system.drift(x))
            assert np.allclose(hs[i], benchmark_system.diffusion(x))
            assert vs[i] == pytest.approx(0.5 * float(x @ x))

    def test_affine_declaration_reproduces_dynamics(self, benchmark_system):
        a, h0, h = benchmark_system.affine
        xs = np.random.default_rng(1).normal(scale=3.0, size=(64, 2))
        assert np.allclose(xs @ a.T, benchmark_system.drift(xs), rtol=1e-15, atol=0.0)
        declared = h0 + np.einsum("...i,inj->...nj", xs, h)
        assert np.allclose(declared, benchmark_system.diffusion(xs), rtol=1e-15, atol=0.0)

    def test_dynamics_equal_closed_form_bits(self, benchmark_system):
        # drift (-x1 + x2, -x1 - x2) and diffusion [[0, 0], [x2, 1]], exactly
        xs = np.random.default_rng(1).normal(scale=3.0, size=(64, 2))
        x1, x2 = xs[:, 0], xs[:, 1]
        drift = np.stack([-x1 + x2, -x1 - x2], axis=-1)
        diffusion = np.zeros((64, 2, 2))
        diffusion[:, 1, 0] = x2
        diffusion[:, 1, 1] = 1.0
        assert benchmark_system.drift(xs).tobytes() == drift.tobytes()
        assert benchmark_system.diffusion(xs).tobytes() == diffusion.tobytes()
        for x, f, h in zip(xs, drift, diffusion):
            assert benchmark_system.drift(x).tobytes() == f.tobytes()
            assert benchmark_system.diffusion(x).tobytes() == h.tobytes()


class TestSpecValidation:
    @pytest.mark.parametrize("overrides", [dict(c=0.0), dict(c=-1.0),
                                           dict(gamma_max=-0.5), dict(dim_state=0)])
    def test_invalid_constants(self, overrides):
        with pytest.raises(ValueError):
            _example_variant(**overrides)

    @pytest.mark.parametrize("affine", [
        (np.eye(3), np.zeros((2, 2)), np.zeros((2, 2, 2))),
        (np.eye(2), np.zeros((2, 1)), np.zeros((2, 2, 2))),
        (np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))),
        (np.eye(2), np.zeros((2, 2)), np.zeros((2, 2, 2, 1))),
        (np.eye(2), np.zeros((2, 2))),
        (np.eye(2), np.full((2, 2), np.nan), np.zeros((2, 2, 2))),
    ])
    def test_affine_declaration_checked(self, affine):
        with pytest.raises(ValueError):
            _example_variant(affine=affine)
