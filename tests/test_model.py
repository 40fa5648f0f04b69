import dataclasses
import math

import numpy as np
import pytest

from nss_lab import model
from nss_lab.cli import ExperimentConfig, _plan, run_custom
from nss_lab.model import (
    LyapunovSpec,
    SystemSpec,
    _TOL,
    _fd_derivatives,
    _lv_plus_cv,
    _noise_magnitudes,
    _quadratic_lyapunov,
    _sum_of_squares,
    builtin_example,
    check_enss,
)
from nss_lab.sim import SimConfig, ensemble


def _example_variant(**overrides):
    """The built-in system with its dynamics as drift and diffusion maps, or
    as the overriding ``affine`` alone."""
    base = builtin_example()
    fields = {
        name: getattr(base, name)
        for name in (
            "dim_state", "dim_noise", "covariance",
            "lyapunov", "c", "gamma", "gamma_max",
        )
    }
    if "affine" not in overrides:
        fields["drift"], fields["diffusion"] = base.dynamics
    fields.update(overrides)
    return SystemSpec(**fields)


def _full_covariance(t):
    """Sigma(t) with all four entries nonzero at every t, for a time or an array."""
    t = np.asarray(t, dtype=float)
    return np.stack([np.stack([np.ones_like(t), 0.5 + 0.25 * np.cos(t)], axis=-1),
                     np.stack([0.3 + 0.2 * np.sin(t), 1.5 + np.sin(t)], axis=-1)], axis=-2)


def _v_nan_at_3(x):
    """The built-in V, but NaN where |x1| = 3."""
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x[..., 0]) == 3.0, np.nan, builtin_example().lyapunov.v(x))


def _gain(spec, t, ulps=0):
    """gamma at ``|Sigma(t) Sigma(t)^T|_F``, moved up by ``ulps`` ulps, from one norm."""
    sig = np.asarray(spec.covariance(float(t)), dtype=float)
    s = float(np.linalg.norm(sig @ sig.T, "fro"))
    for _ in range(ulps):
        s = math.nextafter(s, math.inf)
    return float(spec.gamma(np.array([s]))[0])


def _lv(spec, x, t):
    """LV at state x and time t, by the routine that check_enss runs, on one point."""
    x = np.asarray(x, dtype=float)
    lv_cv = _lv_plus_cv(spec, x[None], spec.sigma_series([t]))[0, 0]
    return lv_cv - spec.c * float(spec.lyapunov.v(x))


def _pointwise_lv(spec, x, sig):
    """LV at state x for one (m, m) Sigma, state by state:
    ``grad(V) . f(x) + 1/2 tr(S^T h^T hess(V) h S)``; derivatives that V lacks
    come from the finite-difference stencil of x alone."""
    lyap = spec.lyapunov
    drift, diffusion = spec.dynamics
    if lyap.grad_v is None:
        _, grad, hess = (a[0] for a in _fd_derivatives(lyap.v, x[None]))
    else:
        grad, hess = lyap.grad_v(x), lyap.hess_v(x)
    hs = diffusion(x) @ sig
    return grad @ drift(x) + 0.5 * np.trace(hs.T @ hess @ hs)


def _ou(n, c=2.0, derivatives=True):
    """The n-D OU dx = -x dt + dW with V = |x|^2 / 2 and gamma = n / 2: the
    premise LV + cV <= gamma holds with equality at c = 2."""
    lyap = _quadratic_lyapunov(n)
    if not derivatives:
        lyap = dataclasses.replace(lyap, grad_v=None, hess_v=None)
    return SystemSpec(
        dim_state=n, dim_noise=n,
        drift=lambda x: -np.asarray(x, dtype=float),
        diffusion=lambda x: np.broadcast_to(np.eye(n), np.shape(x) + (n,)),
        covariance=lambda t: np.broadcast_to(np.eye(n), np.shape(t) + (n, n)),
        lyapunov=lyap, c=c, gamma=lambda s: np.full(np.shape(s), 0.5 * n), gamma_max=0.5 * n,
    )


def _ou_premise(spec):
    """The premise sample that a run of ``spec`` checks."""
    n = spec.dim_state
    return _plan(spec, ExperimentConfig(system="ou", x0=(0.0,) * n, v1=n)).premise


class TestGenerator:
    def test_example_point(self, benchmark_system):
        # -(x1^2 + x2^2) + (x2^2 + sin^2 t)/2 at x=(1,1), t=pi/2
        val = _lv(benchmark_system, (1.0, 1.0), math.pi / 2.0)
        assert val == pytest.approx(-1.0, abs=1e-12)

    def test_origin(self, benchmark_system):
        assert _lv(benchmark_system, (0.0, 0.0), 0.0) == pytest.approx(
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
            assert _lv(benchmark_system, x, t) == pytest.approx(
                expected, rel=1e-12, abs=1e-12
            )

    def test_zero_diffusion_leaves_drift_term(self, benchmark_system):
        spec = _example_variant(
            diffusion=lambda x: np.zeros(np.shape(x)[:-1] + (2, 2))
        )
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.uniform(-4.0, 4.0, size=2)
            grad = spec.lyapunov.grad_v(x)
            f = spec.drift(x)
            assert _lv(spec, x, 1.0) == pytest.approx(
                float(grad @ f), rel=1e-12, abs=1e-12
            )

    def test_shape_validation(self, benchmark_system):
        with pytest.raises(ValueError, match="state shape"):
            check_enss(benchmark_system, [(1.0, 2.0, 3.0)], [0.0], [0.0])

    def test_finite_difference_fallback(self, benchmark_system):
        # same Lyapunov function, derivatives left to central differences
        lyap = benchmark_system.lyapunov
        fd_lyap = LyapunovSpec(
            v=lyap.v, alpha1=lyap.alpha1, alpha1_inv=lyap.alpha1_inv,
        )
        spec = _example_variant(lyapunov=fd_lyap)
        rng = np.random.default_rng(11)
        for _ in range(25):
            x = rng.uniform(-5.0, 5.0, size=2)
            t = rng.uniform(0.0, 10.0)
            exact = _lv(benchmark_system, x, t)
            approx = _lv(spec, x, t)
            assert approx == pytest.approx(exact, rel=1e-4, abs=1e-6)

    def test_dynkin_short_time(self, benchmark_system):
        # ensemble mean of (V(x_{t+h}) - V(x_t)) / h approximates LV(x, t)
        x0, t0, h = (1.0, 1.0), 0.7, 1e-3
        n = 20_000
        # the system with its clock moved on by t0, so that its time 0 is t0
        shifted = dataclasses.replace(
            benchmark_system, covariance=lambda t: benchmark_system.covariance(t + t0))
        paths = ensemble(shifted, SimConfig(t_end=h, dt=h, seed=99, x0=x0), n)
        v0 = float(benchmark_system.lyapunov.v(np.asarray(x0)))
        incr = np.array([(p.lyap[-1] - v0) / h for p in paths])
        mean = float(np.mean(incr))
        se = float(np.std(incr, ddof=1)) / math.sqrt(n)
        lv = _lv(benchmark_system, x0, t0)
        # d/dt of the noise term is sin(t)cos(t); Euler bias is O(h)
        dt_lv = abs(0.5 * math.sin(2.0 * t0))
        assert abs(mean - lv) <= 3.0 * se + 5.0 * h * (dt_lv + 1.0)


class TestSigmaSeries:
    def test_one_call_equals_per_time_calls(self, benchmark_system):
        ts = np.linspace(0.0, 7.0, 50)
        calls = []
        spec = _example_variant(covariance=lambda t: calls.append(t) or
                                benchmark_system.covariance(t))
        series = spec.sigma_series(ts)
        assert len(calls) == 1 and np.array_equal(calls[0], ts)
        per_time = np.array([benchmark_system.covariance(float(t)) for t in ts])
        assert series.shape == per_time.shape == (50, 2, 2)
        assert np.array_equal(series, per_time)

    def test_unbatched_covariance_is_refused(self, benchmark_system):
        # a covariance that returns one (m, m) matrix for a time array: an
        # error that says how to mend it
        def cov(t):
            return np.diag([1.0, np.sin(np.max(t))])

        spec = _example_variant(covariance=cov)
        with pytest.raises(ValueError, match=(
                r"^covariance returned shape \(2, 2\), expected \(2, 2, 2\); broadcast a "
                r"constant S, e\.g\. np\.broadcast_to\(S, np\.shape\(t\) \+ S\.shape\)$")):
            spec.sigma_series([0.5, 1.5])

    def test_shape_checked(self):
        spec = _example_variant(covariance=lambda t: np.eye(3))
        with pytest.raises(ValueError, match="covariance returned shape"):
            spec.sigma_series([0.0])


class TestNoiseMagnitude:
    def test_equals_frobenius_norm(self, benchmark_system):
        ts = np.random.default_rng(4).uniform(0.0, 100.0, 200)
        mags = _noise_magnitudes(benchmark_system.sigma_series(ts))
        for t, mag in zip(ts, mags.tolist()):
            sig = benchmark_system.covariance(float(t))
            assert mag == float(np.linalg.norm(sig @ sig.T, "fro"))

    def test_builtin_range(self, benchmark_system):
        # |Sigma Sigma^T|_F = sqrt(1 + sin^4 t) in [1, sqrt(2)]
        ts = np.linspace(0.0, 2.0 * math.pi, 101)
        mags = _noise_magnitudes(benchmark_system.sigma_series(ts))
        assert np.all(mags >= 1.0 - 1e-12)
        assert np.all(mags <= math.sqrt(2.0) + 1e-12)
        peak = _noise_magnitudes(benchmark_system.sigma_series([math.pi / 2.0]))
        assert float(peak[0]) == pytest.approx(math.sqrt(2.0), rel=1e-12)


class TestCheckEnss:
    GRID = [np.array([a, b]) for a in (-3.0, -1.0, 0.0, 1.0, 3.0)
            for b in (-3.0, -1.0, 0.0, 1.0, 3.0)]
    TIMES = np.linspace(0.0, 2.0 * math.pi, 13)

    def test_builtin_passes(self, benchmark_system):
        report = check_enss(benchmark_system, self.GRID, self.TIMES, self.TIMES)
        assert report.passed
        assert report.points_checked == len(self.GRID) * len(self.TIMES)
        assert report.max_violation <= _TOL
        assert report.violating_points == []

    @pytest.mark.parametrize("t_end", [0.001, 0.002, 3.1417])
    def test_zeros_of_sin_do_not_flag_the_builtin(self, benchmark_system, t_end):
        # gamma(s) = sqrt(s^2 - 1) / 2 is read at s = sqrt(1 + sin^4 t), which
        # rounds to 1 near the zeros of sin t; two ulps above 1, gamma is already
        # 1.49e-8.  At x1 = 0, where LV + cV equals gamma exactly, the residuals
        # (up to 5.76e-9) are the gain's round-off, and pass within that slack.
        cfg = ExperimentConfig(t_end=t_end, dt=1e-4)
        premise = _plan(benchmark_system, cfg).premise
        report = check_enss(benchmark_system, *premise)
        assert report.passed, report.max_violation
        assert _TOL < report.max_violation < 1e-8
        # c + 1e-4 adds 1e-4 V: 4.5e-4 at x = (0, 3), far above the slack
        raised = check_enss(dataclasses.replace(benchmark_system, c=1.0 + 1e-4), *premise)
        assert not raised.passed
        assert raised.max_violation == pytest.approx(4.5e-4, rel=1e-4)

    def test_anti_stable_reported(self):
        spec = SystemSpec(
            dim_state=1,
            dim_noise=1,
            drift=lambda x: np.asarray(x, dtype=float),
            diffusion=lambda x: np.zeros(np.shape(x) + (1,)),
            covariance=lambda t: np.zeros(np.shape(t) + (1, 1)),
            lyapunov=_quadratic_lyapunov(1),
            c=1.0,
            gamma=np.zeros_like,
            gamma_max=0.0,
        )
        report = check_enss(spec, [np.array([1.0])], [0.0], [0.0])
        assert not report.passed
        # residual at x=1: LV + cV = 1 + 0.5
        assert report.max_violation == pytest.approx(1.5, rel=1e-12)
        assert len(report.violating_points) == 1

    def test_zero_gain_variant_violates(self, benchmark_system):
        spec = _example_variant(gamma=np.zeros_like, gamma_max=0.0)
        report = check_enss(spec, self.GRID, self.TIMES, self.TIMES)
        assert not report.passed
        # violations exactly where the noise term (x2^2 + sin^2 t)/2 is positive
        assert all(
            0.5 * (x[1] ** 2 + math.sin(t) ** 2) > 0.0
            for x, t, _ in report.violating_points
        )

    def test_understated_gamma_max_caught(self, benchmark_system):
        spec = _example_variant(gamma_max=0.1)
        report = check_enss(spec, self.GRID, self.TIMES, self.TIMES)
        assert report.gamma_max_violation > _TOL
        assert not report.passed

    def test_empty_sample_rejected(self, benchmark_system):
        with pytest.raises(ValueError):
            check_enss(benchmark_system, [], [0.0], [0.0])
        with pytest.raises(ValueError, match="non-empty"):
            check_enss(benchmark_system, [np.zeros(2)], [0.0], [])

    @staticmethod
    def _reference(spec, states, times, gamma_times):
        """check_enss point by point: one LV and one norm per point."""
        residuals = [
            (x, float(t), _pointwise_lv(spec, np.asarray(x, dtype=float),
                                        spec.sigma_series([t])[0])
             + spec.c * float(spec.lyapunov.v(x)) - _gain(spec, t))
            for x in states for t in times
        ]
        gamma_violation = max(_gain(spec, t) - spec.gamma_max for t in gamma_times)
        return residuals, gamma_violation

    @pytest.mark.parametrize("variant", [
        {}, dict(gamma=np.zeros_like, gamma_max=0.0),
        dict(lyapunov=dataclasses.replace(builtin_example().lyapunov,
                                          grad_v=None, hess_v=None)),
        dict(affine=builtin_example().affine, covariance=_full_covariance),
    ], ids=["builtin", "zero-gain", "finite-differences", "full-sigma"])
    @pytest.mark.parametrize("sample", ["cli", "tests"])
    def test_equals_pointwise_reference(self, variant, sample):
        spec = _example_variant(**variant)
        if sample == "cli":
            cfg = ExperimentConfig(system="variant", t_end=2.0)
            states, times, gamma_times = _plan(spec, cfg).premise
        else:
            states, times, gamma_times = self.GRID, self.TIMES, self.TIMES
        report = check_enss(spec, states, times, gamma_times=gamma_times)
        residuals, gamma_violation = self._reference(spec, states, times, gamma_times)
        assert report.max_violation == max(r for _, _, r in residuals)
        assert report.gamma_max_violation == gamma_violation
        flagged = [(x, t, r) for x, t, r in residuals
                   if r > _TOL + abs(_gain(spec, t, ulps=2) - _gain(spec, t))]
        assert len(report.violating_points) == len(flagged)
        for (x, t, r), (rx, rt, rr) in zip(report.violating_points, flagged):
            assert np.array_equal(x, rx) and t == rt and r == rr
        if "gamma" in variant:
            assert flagged

    @pytest.mark.parametrize("variant", [
        dict(gamma=lambda s: np.where(s > 1.3, np.nan, builtin_example().gamma(s))),
        dict(lyapunov=dataclasses.replace(builtin_example().lyapunov, v=_v_nan_at_3)),
    ], ids=["gamma", "v"])
    def test_nan_residual_fails(self, variant):
        spec = dataclasses.replace(builtin_example(), **variant)
        cfg = ExperimentConfig(system="variant", t_end=2.0)
        states, times, gamma_times = _plan(spec, cfg).premise
        report = check_enss(spec, states, times, gamma_times=gamma_times)
        assert not report.passed
        assert math.isnan(report.max_violation)
        residuals, _ = self._reference(spec, states, times, gamma_times)
        want = [(x, t) for x, t, r in residuals if math.isnan(r)]
        got = [(x, t) for x, t, r in report.violating_points if math.isnan(r)]
        assert want and len(got) == len(want)
        for (x, t), (rx, rt) in zip(got, want):
            assert np.array_equal(x, rx) and t == rt
        assert run_custom(spec, cfg).verdict == "premises-unverified"

    def test_gain_evaluated_once_per_time(self, benchmark_system):
        calls = []

        def gamma(s):
            calls.append(s.copy())
            return benchmark_system.gamma(s)

        spec = _example_variant(gamma=gamma)
        states, times, gamma_times = _plan(spec, ExperimentConfig(system="variant")).premise
        for _ in range(2):
            calls.clear()
            check_enss(spec, states, times, gamma_times=gamma_times)
            # one call on every magnitude, then one that reads the gain two ulps
            # above s at each premise time
            assert [c.shape for c in calls] == [(11 + 10_000,), (11,)]
            two_ulps = [math.nextafter(math.nextafter(s, math.inf), math.inf)
                        for s in calls[0][:len(times)].tolist()]
            assert calls[1].tolist() == two_ulps

    @staticmethod
    def _state_calls(derivatives):
        """The calls of each state function and of gamma in the premise check
        of the built-in system at the defaults, with or without grad_v and hess_v."""
        counts = {}

        def counted(name, fn):
            counts[name] = 0

            def wrapper(arg):
                counts[name] += 1
                return fn(arg)
            return wrapper

        base = builtin_example()
        drift, diffusion = base.dynamics
        lyap = base.lyapunov
        spec = _example_variant(
            drift=counted("drift", drift),
            diffusion=counted("diffusion", diffusion),
            lyapunov=dataclasses.replace(
                lyap, v=counted("v", lyap.v),
                grad_v=counted("grad_v", lyap.grad_v) if derivatives else None,
                hess_v=counted("hess_v", lyap.hess_v) if derivatives else None),
            gamma=counted("gamma", base.gamma),
        )
        cfg = ExperimentConfig(system="variant", t_end=2.0)
        states, times, gamma_times = _plan(spec, cfg).premise
        check_enss(spec, states, times, gamma_times=gamma_times)
        assert len(states) == 49
        return counts

    @pytest.mark.parametrize("derivatives, block, calls_each", [(True, None, 1), (False, 7, 7)],
                             ids=["analytic", "finite-differences"])
    def test_state_terms_evaluated_once_per_block(self, monkeypatch, derivatives, block,
                                                  calls_each):
        # a V without derivatives is called once per block, on the block's stencil
        if block is not None:
            monkeypatch.setattr(model, "_STATE_BLOCK", block)
        calls = self._state_calls(derivatives=derivatives)
        assert calls == {**dict.fromkeys(calls, calls_each), "gamma": 2}

    def test_unbatched_hessian_fails_on_a_vectorized_spec(self, benchmark_system):
        lyap = dataclasses.replace(benchmark_system.lyapunov, hess_v=lambda x: np.eye(2))
        with pytest.raises(ValueError,
                           match=r"^hess_v returned shape \(2, 2\), expected \(49, 2, 2\)$"):
            check_enss(_example_variant(lyapunov=lyap),
                       *_plan(benchmark_system, ExperimentConfig()).premise)

    @pytest.mark.parametrize("variant", [
        {},
        dict(lyapunov=dataclasses.replace(builtin_example().lyapunov,
                                          grad_v=None, hess_v=None)),
    ], ids=["builtin", "finite-differences"])
    def test_table_independent_of_block_size(self, monkeypatch, variant):
        # a negative gain flags every point, so the report lists the whole table
        spec = _example_variant(gamma=lambda s: np.full(np.shape(s), -100.0), gamma_max=0.0,
                                **variant)
        states, times, gamma_times = _plan(spec, ExperimentConfig(system="variant")).premise
        tables = []
        for block in (model._STATE_BLOCK, 7, 1):
            monkeypatch.setattr(model, "_STATE_BLOCK", block)
            report = check_enss(spec, states, times, gamma_times)
            assert len(report.violating_points) == report.points_checked == 49 * 11
            tables.append(np.array([r for _, _, r in report.violating_points]).tobytes())
        assert tables[0] == tables[1] == tables[2]

    def test_peak_memory_is_bounded_by_the_block(self):
        # 6561 states of the 8-D OU; without blocks the (S, T, N, m) products
        # take about 100 MiB
        import tracemalloc

        spec = _ou(8)
        states, times, _ = _ou_premise(spec)
        assert len(states) == 3 ** 8
        tracemalloc.start()
        try:
            report = check_enss(spec, states, times, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak <= 8 * 2 ** 20

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ou_with_black_box_v_passes(self, n):
        # the premise holds with equality; a Hessian stepped like the gradient
        # (eps^(1/3)) has about 1e-6 of round-off and flagged half the points
        spec = _ou(n, derivatives=False)
        report = check_enss(spec, *_ou_premise(spec))
        assert report.passed, report.max_violation

    @pytest.mark.parametrize("derivatives", [True, False], ids=["analytic", "finite-differences"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ou_with_raised_c_fails(self, n, derivatives):
        # at c + 1e-4 the residual is 5e-5 |x|^2: every state but the origin violates
        spec = _ou(n, c=2.0 + 1e-4, derivatives=derivatives)
        states, times, gamma_times = _ou_premise(spec)
        report = check_enss(spec, states, times, gamma_times)
        assert not report.passed
        flagged = {tuple(x) for x, _, _ in report.violating_points}
        assert flagged == {tuple(x) for x in states if np.any(x)}
        assert len(report.violating_points) == (len(states) - 1) * len(times)


class TestBuiltinExample:
    def test_one_shared_read_only_instance(self, benchmark_system):
        assert builtin_example() is benchmark_system
        for array in benchmark_system.affine:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_drift_value(self, benchmark_system):
        drift, _ = benchmark_system.dynamics
        assert np.allclose(drift(np.array([1.0, 0.0])), [-1.0, -1.0])

    def test_diffusion_structure(self, benchmark_system):
        _, diffusion = benchmark_system.dynamics
        h = diffusion(np.array([0.5, 2.0]))
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
        with pytest.raises(ValueError, match=r"^gain undefined for Frobenius magnitude 0\.5 < 1$"):
            benchmark_system.gamma(np.array([1.2, 0.5, 0.7]))
        # one gain per magnitude, with the bits of the scalar formula
        mags = np.sqrt(1.0 + np.sin(np.linspace(0.0, 7.0, 10_001)) ** 4)
        want = [0.5 * math.sqrt(max(s * s - 1.0, 0.0)) for s in mags.tolist()]
        assert benchmark_system.gamma(mags).tolist() == want

    def test_batched_callables(self, benchmark_system):
        xs = np.random.default_rng(0).uniform(-2.0, 2.0, size=(8, 2))
        drift, diffusion = benchmark_system.dynamics
        fs = drift(xs)
        hs = diffusion(xs)
        vs = benchmark_system.lyapunov.v(xs)
        assert fs.shape == (8, 2) and hs.shape == (8, 2, 2) and vs.shape == (8,)
        for i, x in enumerate(xs):
            assert np.allclose(fs[i], drift(x))
            assert np.allclose(hs[i], diffusion(x))
            assert vs[i] == pytest.approx(0.5 * float(x @ x))

    def test_lyapunov_has_the_bits_of_the_sum(self, benchmark_system):
        v = benchmark_system.lyapunov.v
        rng = np.random.default_rng(3)
        for shape in ((2,), (40, 2), (3, 40, 2)):
            x = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, shape)
            want = 0.5 * np.sum(x * x, axis=-1)
            assert np.shape(v(x)) == shape[:-1]
            assert np.asarray(v(x)).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("n", range(1, 8))
    def test_sum_of_squares_has_the_bits_of_the_sum(self, n):
        # by columns, left to right: np.sum's order below 8 terms
        rng = np.random.default_rng(n)
        for shape in ((n,), (40, n), (3, 40, n)):
            x = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, shape)
            want = np.sum(x * x, axis=-1)
            assert np.asarray(_sum_of_squares(x)).tobytes() == np.asarray(want).tobytes()
            out = np.empty(shape[:-1])
            assert _sum_of_squares(x, out=out) is out
            assert out.tobytes() == np.asarray(want).tobytes()

    def test_affine_declaration_reproduces_dynamics(self, benchmark_system):
        a, h0, h = benchmark_system.affine
        drift, diffusion = benchmark_system.dynamics
        xs = np.random.default_rng(1).normal(scale=3.0, size=(64, 2))
        assert np.allclose(xs @ a.T, drift(xs), rtol=1e-15, atol=0.0)
        declared = h0 + np.einsum("...i,inj->...nj", xs, h)
        assert np.allclose(declared, diffusion(xs), rtol=1e-15, atol=0.0)

    def test_dynamics_equal_closed_form_bits(self, benchmark_system):
        # drift (-x1 + x2, -x1 - x2) and diffusion [[0, 0], [x2, 1]], exactly
        xs = np.random.default_rng(1).normal(scale=3.0, size=(64, 2))
        x1, x2 = xs[:, 0], xs[:, 1]
        drift = np.stack([-x1 + x2, -x1 - x2], axis=-1)
        diffusion = np.zeros((64, 2, 2))
        diffusion[:, 1, 0] = x2
        diffusion[:, 1, 1] = 1.0
        f, h = benchmark_system.dynamics
        assert f(xs).tobytes() == drift.tobytes()
        assert h(xs).tobytes() == diffusion.tobytes()
        for x, fx, hx in zip(xs, drift, diffusion):
            assert f(x).tobytes() == fx.tobytes()
            assert h(x).tobytes() == hx.tobytes()


class TestSpecValidation:
    @pytest.mark.parametrize("overrides", [dict(c=0.0), dict(c=-1.0),
                                           dict(gamma_max=-0.5), dict(dim_state=0)])
    def test_invalid_constants(self, overrides):
        with pytest.raises(ValueError):
            _example_variant(**overrides)

    @pytest.mark.parametrize("overrides, message", [
        (dict(c=math.nan), r"^c must be positive, got nan$"),
        (dict(gamma_max=math.nan), r"^gamma_max must be nonnegative, got nan$"),
    ])
    def test_nan_constant_named(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(builtin_example(), **overrides)

    @pytest.mark.parametrize("envelope, message", [
        # a radius inside the grid fails: any of the three keys can move it
        (dict(alpha1=lambda r: math.nan if r > 5.0 else 0.5 * r * r),
         r"^grid\.r_min, grid\.r_max, grid\.count: alpha1\(5\.0\d*\) = nan is not positive$"),
        (dict(alpha1=lambda r: math.nan if r < 2.0 else 0.5 * r * r),
         r"^grid\.r_min: alpha1\(1\.05\) = nan is not positive$"),
        (dict(alpha1_inv=lambda s: math.nan),
         r"^fractiles\.k: alpha1_inv\(.*\) = nan is not a radius$"),
    ], ids=["alpha1", "alpha1-at-r_min", "alpha1_inv"])
    def test_nan_envelope_fails_in_plan(self, envelope, message):
        base = builtin_example()
        spec = dataclasses.replace(
            base, lyapunov=dataclasses.replace(base.lyapunov, **envelope))
        with pytest.raises(ValueError, match=message):
            _plan(spec, ExperimentConfig(system="variant", t_end=50.0))

    @pytest.mark.parametrize("affine", [
        (np.eye(3), np.zeros((2, 2)), np.zeros((2, 2, 2))),
        (np.eye(2), np.zeros((2, 1)), np.zeros((2, 2, 2))),
        (np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))),
        (np.eye(2), np.zeros((2, 2)), np.zeros((2, 2, 2, 1))),
        (np.eye(2), np.zeros((2, 2))),
        (np.eye(2), np.full((2, 2), np.nan), np.zeros((2, 2, 2))),
    ])
    def test_affine_declaration_checked(self, affine):
        # the variant passes affine alone, so only its shape or finiteness fails
        with pytest.raises(ValueError,
                           match=r"^affine=\(A, H0, H\) (needs shapes|must be finite)"):
            _example_variant(affine=affine)

    @pytest.mark.parametrize("given", [("drift", "diffusion"), ("drift",), ("diffusion",)])
    def test_dynamics_declared_once(self, given):
        base = builtin_example()
        maps = dict(zip(("drift", "diffusion"), base.dynamics))
        with pytest.raises(ValueError, match=f"not affine and {' and '.join(given)}$"):
            dataclasses.replace(base, **{name: maps[name] for name in given})

    def test_vectorized_flag_refused(self):
        # every map takes a batch, so there is no per-state or per-time flag
        with pytest.raises(TypeError, match="vectorized"):
            _example_variant(vectorized=True)

    @pytest.mark.parametrize("missing", [("drift", "diffusion"), ("drift",), ("diffusion",)])
    def test_dynamics_required(self, missing):
        with pytest.raises(ValueError, match="need drift and diffusion, or affine"):
            _example_variant(**dict.fromkeys(missing))

    def test_replace_keeps_affine_spec(self):
        base = builtin_example()
        spec = dataclasses.replace(base, c=2.0)
        assert spec.c == 2.0 and spec.drift is None and spec.diffusion is None
        for got, want in zip(spec.affine, base.affine):
            assert np.array_equal(got, want)
        xs = np.random.default_rng(2).normal(size=(5, 2))
        for f, g in zip(spec.dynamics, base.dynamics):
            assert f(xs).tobytes() == g(xs).tobytes()
