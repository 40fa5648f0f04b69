import bisect
import math

import numpy as np
import pytest
from scipy import stats as sps

from nss_lab.slln import (
    ConditionalCdf,
    CouplingViolationError,
    DominatingLaw,
    _edges,
    dominated_coupling_lower,
    dominated_coupling_upper,
    inverse_cdf_inf,
    inverse_cdf_sup,
    uniformize,
)


def _norm_cdf(s: float) -> float:
    return 0.5 * math.erfc(-s / math.sqrt(2.0))


EXP1 = DominatingLaw.from_cdf(lambda s: 1.0 - math.exp(-s) if s > 0.0 else 0.0)
UNIT_UNIFORM = DominatingLaw.from_cdf(lambda s: min(1.0, max(0.0, s)))


def _coin_cdf():
    # fair coin on {0, 1}
    def cdf(s, _h):
        if s < 0.0:
            return 0.0
        if s < 1.0:
            return 0.5
        return 1.0

    def left(s, _h):
        if s <= 0.0:
            return 0.0
        if s <= 1.0:
            return 0.5
        return 1.0

    return ConditionalCdf(eval=cdf, left_limit=left)


class TestUniformize:
    def test_continuous_law_ignores_xi(self):
        g = ConditionalCdf.from_marginal(_norm_cdf)
        for x in (-1.3, 0.0, 0.7):
            y0 = uniformize(x, [], 0.0, g)
            y1 = uniformize(x, [], 1.0, g)
            assert y0 == y1 == pytest.approx(_norm_cdf(x), rel=1e-15)

    def test_point_mass_returns_xi(self):
        g = ConditionalCdf(
            eval=lambda s, _h: 1.0 if s >= 3.0 else 0.0,
            left_limit=lambda s, _h: 1.0 if s > 3.0 else 0.0,
        )
        for xi in (0.0, 0.25, 0.9):
            assert uniformize(3.0, [], xi, g) == xi

    def test_coin_transform_is_uniform(self):
        rng = np.random.default_rng(2024)
        g = _coin_cdf()
        xs = rng.integers(0, 2, size=100_000).astype(float)
        xis = rng.uniform(size=len(xs))
        ys = np.array([uniformize(x, [], xi, g) for x, xi in zip(xs, xis)])
        assert sps.kstest(ys, "uniform").pvalue > 0.01
        # successive transforms are independent
        assert abs(float(np.corrcoef(ys[:-1], ys[1:])[0, 1])) < 0.01

    def test_mixed_law_transform_is_uniform(self):
        # half an atom at zero, half Exponential(1)
        def cdf(s, _h):
            if s < 0.0:
                return 0.0
            return 0.5 + 0.5 * (1.0 - math.exp(-s))

        def left(s, _h):
            if s <= 0.0:
                return 0.0
            return 0.5 + 0.5 * (1.0 - math.exp(-s))

        g = ConditionalCdf(eval=cdf, left_limit=left)
        rng = np.random.default_rng(77)
        atoms = rng.uniform(size=100_000) < 0.5
        xs = np.where(atoms, 0.0, rng.exponential(size=100_000))
        xis = rng.uniform(size=len(xs))
        ys = np.array([uniformize(x, [], xi, g) for x, xi in zip(xs, xis)])
        assert sps.kstest(ys, "uniform").pvalue > 0.01

    def test_continuous_transform_is_uniform(self):
        rng = np.random.default_rng(5)
        g = ConditionalCdf.from_marginal(_norm_cdf)
        xs = rng.normal(size=100_000)
        ys = np.array([uniformize(x, [], 0.5, g) for x in xs])
        assert sps.kstest(ys, "uniform").pvalue > 0.01

    def test_xi_domain(self):
        g = ConditionalCdf.from_marginal(_norm_cdf)
        with pytest.raises(ValueError):
            uniformize(0.0, [], 1.5, g)

    def test_non_monotone_cdf_rejected(self):
        g = ConditionalCdf(eval=lambda s, _h: 0.2, left_limit=lambda s, _h: 0.8)
        with pytest.raises(ValueError):
            uniformize(0.0, [], 0.5, g)


class TestGeneralizedInverses:
    def test_exponential_median(self):
        assert inverse_cdf_inf(0.5, EXP1) == pytest.approx(math.log(2.0), abs=1e-10)
        assert inverse_cdf_sup(0.5, EXP1) == pytest.approx(math.log(2.0), abs=1e-10)

    def test_point_mass(self):
        pm = DominatingLaw.from_cdf(lambda s: 1.0 if s >= 3.0 else 0.0)
        for y in (0.1, 0.5, 0.99):
            assert inverse_cdf_inf(y, pm) == pytest.approx(3.0, abs=1e-10)
            assert inverse_cdf_sup(y, pm) == pytest.approx(3.0, abs=1e-10)

    def test_flat_stretch_splits_variants(self):
        # F rises to 0.4 at s=1, stays flat on [1,2], rises to 1 at s=3.5
        def cdf(s):
            if s < 0.0:
                return 0.0
            if s < 1.0:
                return 0.4 * s
            if s <= 2.0:
                return 0.4
            if s < 3.5:
                return 0.4 + 0.4 * (s - 2.0)
            return 1.0

        law = DominatingLaw.from_cdf(cdf)
        assert inverse_cdf_inf(0.4, law) == pytest.approx(1.0, abs=1e-9)
        assert inverse_cdf_sup(0.4, law) == pytest.approx(2.0, abs=1e-9)

    def test_normal_moments(self):
        rng = np.random.default_rng(31)
        law = DominatingLaw.from_cdf(_norm_cdf)
        ys = rng.uniform(size=100_000)
        draws = np.array([inverse_cdf_inf(float(y), law) for y in ys])
        assert abs(float(np.mean(draws))) <= 0.02
        assert abs(float(np.var(draws, ddof=1)) - 1.0) <= 0.03

    @pytest.mark.parametrize("y", [0.0, 1.0, -0.1, 1.1])
    def test_y_domain(self, y):
        with pytest.raises(ValueError):
            inverse_cdf_inf(y, EXP1)
        with pytest.raises(ValueError):
            inverse_cdf_sup(y, EXP1)


class TestCouplings:
    def test_upper_dominates_elementwise(self):
        rng = np.random.default_rng(6)
        xs = rng.uniform(0.0, 0.5, size=100_000)
        g = ConditionalCdf.from_marginal(lambda s: min(1.0, max(0.0, 2.0 * s)))
        zs = dominated_coupling_upper(xs, g, UNIT_UNIFORM, seed=60)
        assert np.all(zs >= xs)
        mean = float(np.mean(zs))
        sigma = 1.0 / math.sqrt(12.0)
        assert abs(mean - 0.5) <= 3.0 * sigma / math.sqrt(len(zs))

    def test_upper_trivial_at_zero(self):
        xs = np.zeros(100)
        g = ConditionalCdf(
            eval=lambda s, _h: 1.0 if s >= 0.0 else 0.0,
            left_limit=lambda s, _h: 1.0 if s > 0.0 else 0.0,
        )
        zs = dominated_coupling_upper(xs, g, EXP1, seed=61)
        assert np.all(zs >= 0.0)

    def test_lower_dominated_elementwise(self):
        rng = np.random.default_rng(7)
        xs = rng.uniform(0.5, 1.0, size=100_000)
        g = ConditionalCdf.from_marginal(
            lambda s: min(1.0, max(0.0, 2.0 * (s - 0.5)))
        )
        zs = dominated_coupling_lower(xs, g, UNIT_UNIFORM, seed=62)
        assert np.all(zs <= xs)
        sigma = 1.0 / math.sqrt(12.0)
        assert abs(float(np.mean(zs)) - 0.5) <= 3.0 * sigma / math.sqrt(len(zs))

    def test_lower_accepts_infinite_samples(self):
        xs = np.full(50, math.inf)
        g = ConditionalCdf(
            eval=lambda s, _h: 0.0 if math.isfinite(s) else 1.0,
            left_limit=lambda s, _h: 0.0,
        )
        zs = dominated_coupling_lower(xs, g, EXP1, seed=63)
        assert np.all(np.isfinite(zs))
        assert np.all(zs <= xs)

    def test_violation_reports_index(self):
        # first two elements are conditionally U(0, 1/2), dominated by U(0,1);
        # the third is conditionally U(1, 2), which the hypothesis misses
        def cdf(s, h):
            if len(h) < 2:
                return min(1.0, max(0.0, 2.0 * s))
            return min(1.0, max(0.0, s - 1.0))

        g = ConditionalCdf(eval=cdf, left_limit=cdf)
        xs = np.array([0.2, 0.4, 1.5])
        with pytest.raises(CouplingViolationError) as exc:
            dominated_coupling_upper(xs, g, UNIT_UNIFORM, seed=64)
        assert exc.value.index == 2

    def test_history_is_readonly_prefix(self):
        rng = np.random.default_rng(9)
        xs = rng.uniform(0.0, 0.5, size=200)
        seen = []

        def cdf(s, h):
            n = len(seen)
            np.testing.assert_array_equal(h, xs[:n])
            with pytest.raises(ValueError):
                h[...] = 0.0
            seen.append(n)
            return min(1.0, max(0.0, 2.0 * s))

        def left(s, h):
            assert len(h) == len(seen)
            return min(1.0, max(0.0, 2.0 * s))

        g = ConditionalCdf(eval=cdf, left_limit=left)
        zs = dominated_coupling_upper(xs, g, UNIT_UNIFORM, seed=66)
        assert seen == list(range(len(xs)))
        assert np.all(zs >= xs)
        assert xs.flags.writeable
        xs[0] = 0.25

    def test_coupled_draws_follow_target_law(self):
        rng = np.random.default_rng(8)
        xs = rng.uniform(0.0, 0.5, size=50_000)
        g = ConditionalCdf.from_marginal(lambda s: min(1.0, max(0.0, 2.0 * s)))
        zs = dominated_coupling_upper(xs, g, UNIT_UNIFORM, seed=65)
        assert sps.kstest(zs, "uniform").pvalue > 0.01


def _reference_expand_bracket(predicate, start, direction):
    s = start
    for _ in range(200):
        if predicate(s):
            return s
        s = s * 2.0 if s * direction > 0 else direction
    raise RuntimeError("bracket expansion budget exhausted (pathological CDF)")


def _reference_bisect_edge(y, f, tol, strict):
    """The per-level bisection the sorted sweep replaced, kept as the
    reference: ``(lo, hi)`` brackets the lower edge of ``{s | F(s) >= y}``
    (``{s | F(s) > y}`` when ``strict``)."""
    cdf = f.cdf

    def in_set(s):
        return cdf(s) > y if strict else cdf(s) >= y

    hi = _reference_expand_bracket(in_set, 1.0, 1.0)
    lo = _reference_expand_bracket(lambda s: not in_set(s), -1.0, -1.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = cdf(mid)
        if fm > y if strict else fm >= y:
            hi = mid
        else:
            lo = mid
        if hi - lo <= tol:
            break
    return lo, hi


def _flat_stretch_cdf(s):
    # rises to 0.4 at s=1, flat on [1, 2], rises to 1 at s=3.5
    if s < 0.0:
        return 0.0
    if s < 1.0:
        return 0.4 * s
    if s <= 2.0:
        return 0.4
    if s < 3.5:
        return 0.4 + 0.4 * (s - 2.0)
    return 1.0


def _subnormal_atoms_cdf(s):
    # atoms of the least subnormal mass at 0 and 1000, the rest at 2000
    if s < 0.0:
        return 0.0
    if s < 1000.0:
        return 5e-324
    return 1e-323 if s < 2000.0 else 1.0


def _normal_cdf(mu, sd):
    return lambda s: 0.5 * math.erfc(-(s - mu) / (sd * math.sqrt(2.0)))


_ATOMS = np.sort(np.random.default_rng(5).uniform(size=1000)).tolist()
_UNIFORM_LEVELS = np.random.default_rng(1).uniform(size=200).tolist()
_SWEEP_LAWS = {
    "exponential": (EXP1.cdf, _UNIFORM_LEVELS),
    "unit-uniform": (UNIT_UNIFORM.cdf, _UNIFORM_LEVELS),
    "point-mass-3": (lambda s: 1.0 if s >= 3.0 else 0.0, _UNIFORM_LEVELS),
    "flat-stretch": (_flat_stretch_cdf, _UNIFORM_LEVELS + [0.4]),
    "cauchy-tails": (lambda s: 0.5 + math.atan(s) / math.pi, [1e-12, 1.0 - 1e-12]),
    "1000-atoms": (lambda s: bisect.bisect_right(_ATOMS, s) / 1000.0, _UNIFORM_LEVELS),
    "normal-5-1e-12": (_normal_cdf(5.0, 1e-12), _UNIFORM_LEVELS),
    "normal-0-1e12": (_normal_cdf(0.0, 1e12), _UNIFORM_LEVELS),
    # levels where F is subnormal, so F differences and slopes underflow
    "normal-subnormal-tail": (_normal_cdf(0.0, 1.0),
                              [1e-320, 3e-320, 2e-310, 1e-300, 0.25, 0.5]),
    "subnormal-atoms": (_subnormal_atoms_cdf, [5e-324, 1e-323, 1.5e-323, 0.5]),
}


class TestSortedSweep:
    @pytest.mark.parametrize("strict", [False, True], ids=["inf", "sup"])
    @pytest.mark.parametrize("name", sorted(_SWEEP_LAWS))
    def test_matches_bisection_with_fewer_cdf_calls(self, name, strict):
        cdf, levels = _SWEEP_LAWS[name]
        levels = list(levels)
        np.random.default_rng(2).shuffle(levels)
        calls = [0]

        def counted(s):
            calls[0] += 1
            return cdf(s)

        law = DominatingLaw.from_cdf(counted)
        tol = 1e-12
        lo, hi = _edges(levels, law, tol, strict)
        sweep_calls, calls[0] = calls[0], 0
        refs = [_reference_bisect_edge(y, law, tol, strict) for y in levels]
        assert sweep_calls <= calls[0]

        def in_set(s, y):
            return cdf(s) > y if strict else cdf(s) >= y

        for y, a, b, (ref_lo, ref_hi) in zip(levels, lo.tolist(), hi.tolist(), refs):
            assert in_set(b, y) and not in_set(a, y)
            z, z_ref = (a, ref_lo) if strict else (b, ref_hi)
            resolution = math.ulp(max(abs(z), abs(z_ref)))
            assert abs(z - z_ref) <= max(tol, resolution)


def _half_unit_cdf(s):
    return min(1.0, max(0.0, 2.0 * s))


class TestCouplingInputs:
    @pytest.mark.parametrize("upper", [True, False], ids=["upper", "lower"])
    def test_matches_per_element_bisection(self, upper):
        # X_n is conditionally exponential at rate 1 + tanh(X_{n-1}) / 2, in
        # [1, 1.5): Exp(1/2) dominates it from above and Exp(2) from below.
        # The reference is the per-element loop the three passes replaced:
        # one scalar xi draw, one uniformize and one bisection per element.
        def cdf(s, h):
            rate = 1.0 + 0.5 * math.tanh(h[-1] if len(h) else 0.0)
            return -math.expm1(-rate * s) if s > 0.0 else 0.0

        g = ConditionalCdf(eval=cdf, left_limit=cdf)
        rate = 0.5 if upper else 2.0
        f = DominatingLaw.from_cdf(lambda s: -math.expm1(-rate * s) if s > 0.0 else 0.0)
        xs = np.random.default_rng(15).exponential(size=500)
        couple = dominated_coupling_upper if upper else dominated_coupling_lower
        zs = couple(xs, g, f, seed=15).tolist()
        rng = np.random.default_rng(15)
        for n, (x, z) in enumerate(zip(xs.tolist(), zs)):
            y = uniformize(x, xs[:n], rng.uniform(), g)
            lo, hi = _reference_bisect_edge(y, f, 1e-12, strict=upper)
            assert abs(z - (lo if upper else hi)) <= 1e-12
            assert z >= x if upper else z <= x

    @pytest.mark.parametrize("couple", [dominated_coupling_upper, dominated_coupling_lower])
    def test_empty_sequence(self, couple):
        g = ConditionalCdf.from_marginal(_half_unit_cdf)
        for xs in ([], np.array([])):
            assert couple(xs, g, UNIT_UNIFORM, seed=1).shape == (0,)

    def test_single_element_equals_scalar_inverse(self):
        xi = np.random.default_rng(70).uniform()
        g_up = ConditionalCdf.from_marginal(_half_unit_cdf)
        z = dominated_coupling_upper([0.2], g_up, EXP1, seed=70)
        assert z.shape == (1,)
        assert z[0] == inverse_cdf_sup(uniformize(0.2, [], xi, g_up), EXP1)
        g_lo = ConditionalCdf.from_marginal(lambda s: min(1.0, max(0.0, 2.0 * (s - 0.5))))
        z = dominated_coupling_lower([0.7], g_lo, UNIT_UNIFORM, seed=70)
        assert z[0] == inverse_cdf_inf(uniformize(0.7, [], xi, g_lo), UNIT_UNIFORM)

    @pytest.mark.parametrize("couple", [dominated_coupling_upper, dominated_coupling_lower])
    def test_nan_element_named_before_any_inversion(self, couple):
        xs = np.random.default_rng(12).uniform(0.5, 1.0, size=1000)
        xs[500] = math.nan
        inverted = []

        def cdf(s):
            inverted.append(s)
            return min(1.0, max(0.0, s))

        g = ConditionalCdf.from_marginal(lambda s: min(1.0, max(0.0, 2.0 * (s - 0.5))))
        with pytest.raises(ValueError, match=r"xs\[500\]=nan"):
            couple(xs, g, DominatingLaw.from_cdf(cdf), seed=12)
        assert inverted == []

    def test_level_outside_unit_interval_named(self):
        xs = np.array([0.2, 0.3, -0.5, 0.1])
        g = ConditionalCdf.from_marginal(_half_unit_cdf)
        with pytest.raises(ValueError, match=r"level y=0\.0 of xs\[2\]=-0\.5"):
            dominated_coupling_upper(xs, g, UNIT_UNIFORM, seed=13)

    @pytest.mark.parametrize("kind", ["bad-level", "non-monotone"])
    @pytest.mark.parametrize("violation_at, error_at", [(3, 7), (7, 3)])
    def test_first_error_by_index(self, kind, violation_at, error_at):
        # Elements are conditionally U(0, 1/2), dominated by U(0, 1), except
        # one that is conditionally U(1, 2) and so violates the coupling; a
        # second element has an error of the given kind.
        def cdf(s, h):
            if len(h) == violation_at:
                return min(1.0, max(0.0, s - 1.0))
            if kind == "non-monotone" and len(h) == error_at:
                return 0.1
            return _half_unit_cdf(s)

        def left(s, h):
            if kind == "non-monotone" and len(h) == error_at:
                return 0.9
            return cdf(s, h)

        xs = np.random.default_rng(14).uniform(0.0, 0.5, size=10)
        xs[violation_at] = 1.5
        if kind == "bad-level":
            xs[error_at] = -0.5
        g = ConditionalCdf(eval=cdf, left_limit=left)
        if violation_at < error_at:
            with pytest.raises(CouplingViolationError) as exc:
                dominated_coupling_upper(xs, g, UNIT_UNIFORM, seed=14)
            assert exc.value.index == violation_at
        else:
            match = "level" if kind == "bad-level" else "not monotone"
            with pytest.raises(ValueError, match=match):
                dominated_coupling_upper(xs, g, UNIT_UNIFORM, seed=14)


def _random_law(rng):
    """A random monotone CDF: a tail of subnormal mass below the first piece,
    then pieces in ascending order, each an atom, a uniform stretch or a
    quadratic one, with gaps (flat stretches) between them.  One uniform
    stretch is narrower than 1e-9, so F is steep there."""
    n = int(rng.integers(4, 9))
    kinds = rng.choice(["atom", "uniform", "quadratic"], size=n).tolist()
    widths = [0.0 if k == "atom" else float(10.0 ** rng.uniform(-3.0, 1.0))
              for k in kinds]
    steep = int(rng.integers(n))
    kinds[steep], widths[steep] = "uniform", float(10.0 ** rng.uniform(-13.0, -9.0))
    gaps = 10.0 ** rng.uniform(-2.0, 0.5, size=n)
    scale = float(10.0 ** rng.uniform(-1.0, 1.0))
    starts, ends, x = [], [], float(rng.uniform(-20.0, 20.0))
    for width, gap in zip(widths, gaps.tolist()):
        x += gap * scale
        starts.append(x)
        x += width * scale
        ends.append(x)
    tail = float(rng.choice([5e-324, 1e-320, 3e-310]))
    bases = [tail]
    for w in (rng.dirichlet(np.ones(n)) * (1.0 - tail)).tolist():
        bases.append(bases[-1] + w)

    def cdf(s):
        if s < starts[0]:
            return tail * math.exp(s - starts[0])
        k = bisect.bisect_right(starts, s) - 1
        if s >= ends[k]:
            return min(bases[k + 1], 1.0)
        u = (s - starts[k]) / (ends[k] - starts[k])
        if kinds[k] == "quadratic":
            u *= u
        return min(bases[k] + (bases[k + 1] - bases[k]) * u, 1.0)

    # levels at random, on the flat stretches' values, and in the tail
    levels = rng.uniform(size=40).tolist() + bases[1:-1] + [tail, 2.0 * tail, 1e-300]
    return cdf, [y for y in levels if 0.0 < y < 1.0]


class TestRandomLaws:
    @pytest.mark.parametrize("strict", [False, True], ids=["inf", "sup"])
    def test_sweep_brackets_and_matches_bisection(self, strict):
        rng = np.random.default_rng(16)
        tol = 1e-12
        for _ in range(30):
            cdf, levels = _random_law(rng)
            rng.shuffle(levels)
            law = DominatingLaw.from_cdf(cdf)
            lo, hi = _edges(levels, law, tol, strict)
            for y, a, b in zip(levels, lo.tolist(), hi.tolist()):
                assert cdf(b) > y if strict else cdf(b) >= y
                assert not (cdf(a) > y if strict else cdf(a) >= y)
                assert b - a <= tol or math.nextafter(a, math.inf) == b
                ref_lo, ref_hi = _reference_bisect_edge(y, law, tol, strict)
                z, z_ref = (a, ref_lo) if strict else (b, ref_hi)
                assert abs(z - z_ref) <= max(tol, math.ulp(max(abs(z), abs(z_ref))))


class TestCallCounts:
    @pytest.mark.parametrize("strict", [False, True], ids=["inf", "sup"])
    def test_dense_levels_take_few_cdf_calls(self, strict):
        calls = [0]

        def cdf(s):
            calls[0] += 1
            return -math.expm1(-0.5 * s) if s > 0.0 else 0.0

        levels = np.random.default_rng(3).uniform(size=20_000)
        _edges(levels, DominatingLaw.from_cdf(cdf), 1e-12, strict)
        assert calls[0] <= 2.75 * len(levels)

    @pytest.mark.parametrize("strict", [False, True], ids=["inf", "sup"])
    def test_edges_beyond_tol_resolution_take_few_cdf_calls(self, strict):
        # Edges from 1e4 to 1e6, where an ulp is 2 to 100 tol: the brackets
        # end on adjacent floats, and tol/4 steps round away.
        calls = [0]

        def cdf(s):
            calls[0] += 1
            return min(1.0, max(0.0, s * 1e-6))

        levels = np.random.default_rng(4).uniform(0.01, 1.0, size=200)
        lo, hi = _edges(levels, DominatingLaw.from_cdf(cdf), 1e-12, strict)
        assert np.all(np.nextafter(lo, np.inf) == hi)
        assert calls[0] <= 5 * len(levels)

    @pytest.mark.parametrize("strict", [False, True], ids=["inf", "sup"])
    def test_probe_stays_near_a_kink(self, strict):
        # F bends at s = 2 from slope 1/4 to just above the slope at which the
        # probe's parabola is flat at the prediction for the third level, so
        # an uncapped correction would jump about 1e12 past the edge at 4.
        slope = 0.0625 * (1.0 + 1e-12)
        args = []

        def cdf(s):
            args.append(s)
            if s <= 2.0:
                return max(0.25 * s, 0.0)
            return min(0.5 + slope * (s - 2.0), 1.0)

        lo, hi = _edges([0.25, 0.5, 0.625], DominatingLaw.from_cdf(cdf), 1e-12, strict)
        np.testing.assert_allclose(hi, [1.0, 2.0, 4.0], atol=1e-12)
        assert max(args) < 8.0

    @pytest.mark.parametrize("strict", [False, True], ids=["inf", "sup"])
    def test_cubic_prediction_stays_near_a_kink(self, strict):
        # F steepens at s = 1.5 from slope 1/4 to 5/2.  The cubic through the
        # edges on both sides of the bend predicts the last edge, 1.73, near
        # 221; the probes may go at most one expansion step past the bracket.
        args = []

        def cdf(s):
            args.append(s)
            if s <= 1.5:
                return max(0.25 * s, 0.0)
            return min(0.375 + 2.5 * (s - 1.5), 1.0)

        levels = [0.05, 0.2, 0.37, 0.3701, 0.39, 0.46, 0.95]
        lo, hi = _edges(levels, DominatingLaw.from_cdf(cdf), 1e-12, strict)
        np.testing.assert_allclose(hi, [0.2, 0.8, 1.48, 1.4804, 1.506, 1.534, 1.73],
                                   atol=1e-12)
        assert max(args) < 4.0

    def test_uniformize_calls_each_callable_once(self):
        calls = []

        def counted(name, cdf):
            def g(s, h):
                calls.append(name)
                return cdf(s, h)
            return g

        shared = counted("shared", lambda s, _h: _norm_cdf(s))
        uniformize(0.3, [], 0.5, ConditionalCdf(eval=shared, left_limit=shared))
        assert calls == ["shared"]
        coin = _coin_cdf()
        calls.clear()
        uniformize(1.0, [], 0.5, ConditionalCdf(eval=counted("eval", coin.eval),
                                                left_limit=counted("left", coin.left_limit)))
        assert sorted(calls) == ["eval", "left"]
        marginal = ConditionalCdf.from_marginal(_norm_cdf)
        assert marginal.eval is marginal.left_limit
