import math

import numpy as np
import pytest
from scipy import integrate as sci_integrate

from nss_lab.bounds import (
    LevelPair,
    _W_M2,
    beta_star,
    bound_b,
    down_cross_survival_bound,
    expected_down_cross,
    expected_up_cross,
    fractile_q,
    lambert_w_lower,
    make_bound_set,
    occupancy_ratio_bound,
    optimal_v0,
    up_cross_survival_bound,
)


def bisect_w_lower(x: float, lo: float = -800.0, hi: float = -1.0,
                   iters: int = 400) -> float:
    """Independent oracle: solve w*exp(w) = x on [lo, -1] by plain bisection.

    w*exp(w) is decreasing on (-inf, -1], so the bracket is monotone.
    """
    assert -math.exp(-1.0) <= x < 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if mid * math.exp(mid) < x:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


ALPHA1 = lambda r: 0.5 * r * r  # noqa: E731
ALPHA1_INV = lambda s: math.sqrt(2.0 * s)  # noqa: E731


class TestLambertW:
    def test_branch_point_exact(self):
        assert lambert_w_lower(-math.exp(-1.0)) == -1.0

    def test_frozen_values(self):
        assert lambert_w_lower(-math.exp(-2.0)) == pytest.approx(-3.146193, abs=1e-6)
        assert lambert_w_lower(-0.1) == pytest.approx(-3.577152, abs=1e-6)
        # W_{-1}(-e^{-2}) sets b(r), q_k and beta*; a solver change must not move a bit
        assert repr(_W_M2) == "-3.1461932206205825"
        assert repr(beta_star()) == "0.3178444328993727"

    def test_against_bisection_oracle(self):
        for x in [-math.exp(-2.0), -0.1, -0.3, -1e-3, -1e-8]:
            assert lambert_w_lower(x) == pytest.approx(bisect_w_lower(x), abs=1e-9)

    def test_defining_equation_on_log_grid(self):
        xs = -np.geomspace(math.exp(-1.0) - 1e-12, 1e-12, 1000)
        # next to the branch point, where exp(w) underflows, and the least subnormal
        xs = [*xs, -math.exp(-1.0) + 1e-17, -math.exp(-1.0) + 1e-16, -1e-300, -5e-324]
        for x in xs:
            w = lambert_w_lower(float(x))
            assert w <= -1.0
            assert abs(w * math.exp(w) - x) <= 1e-10

    def test_monotone_decreasing_in_x(self):
        xs = -np.geomspace(math.exp(-1.0) - 1e-9, 1e-9, 200)
        ws = [lambert_w_lower(float(x)) for x in xs]
        # x increasing toward 0 drives the lower branch to -inf
        assert np.all(np.diff(ws) < 0)

    @pytest.mark.parametrize("x", [0.0, 0.5, -1.0, -math.exp(-1.0) - 1e-9])
    def test_domain_errors(self, x):
        with pytest.raises(ValueError):
            lambert_w_lower(x)


class TestBetaStar:
    def test_value(self):
        assert beta_star() == pytest.approx(0.317844, abs=1e-6)
        assert beta_star() == pytest.approx(-1.0 / bisect_w_lower(-math.exp(-2.0)),
                                            abs=1e-12)

    def test_interior(self):
        assert 0.0 < beta_star() < 1.0

    def test_ratio_derivative_changes_sign(self):
        # t_dc/t_uc as a function of beta alone (v1, c, gamma_max fixed)
        def inverse_ratio(beta):
            g, v1 = 0.5, 2.0
            v0 = g + beta * (v1 - g)
            lv = LevelPair(v0=v0, v1=v1, c=1.0, gamma_max=0.5)
            return expected_down_cross(lv) / expected_up_cross(lv)

        bs = beta_star()
        eps = 1e-6
        left = (inverse_ratio(bs) - inverse_ratio(bs - eps)) / eps
        right = (inverse_ratio(bs + eps) - inverse_ratio(bs)) / eps
        assert left < 0.0 < right


class TestLevelPair:
    def test_beta_and_floor(self):
        lv = LevelPair(v0=1.0, v1=2.0, c=1.0, gamma_max=0.5)
        assert lv.floor == 0.5
        assert lv.beta == pytest.approx((1.0 - 0.5) / (2.0 - 0.5))
        assert 0.0 < lv.beta < 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(v0=0.4, v1=2.0, c=1.0, gamma_max=0.5),  # v0 below the floor
            dict(v0=2.0, v1=1.0, c=1.0, gamma_max=0.5),  # inverted levels
            dict(v0=1.0, v1=2.0, c=0.0, gamma_max=0.5),
            dict(v0=1.0, v1=2.0, c=1.0, gamma_max=-0.1),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            LevelPair(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(c=math.nan, gamma_max=0.5), r"^c must be positive, got nan$"),
        (dict(c=1.0, gamma_max=math.nan), r"^gamma_max must be nonnegative, got nan$"),
    ])
    def test_nan_constant_named(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            LevelPair(v0=1.0, v1=2.0, **kwargs)


class TestExpectedCrossTimes:
    LV = LevelPair(v0=1.0, v1=2.0, c=1.0, gamma_max=0.5)

    def test_up_cross_value(self):
        assert expected_up_cross(self.LV) == pytest.approx(
            (1.0 / 1.5) * math.log(4.0), rel=1e-12
        )
        assert expected_up_cross(self.LV) == pytest.approx(0.924196, abs=1e-6)

    def test_up_cross_c_scaling(self):
        lv = LevelPair(v0=1.0, v1=2.0, c=2.0, gamma_max=1.0)
        assert expected_up_cross(lv) == pytest.approx(0.462098, abs=1e-6)

    def test_up_cross_zero_width_band(self):
        lv = LevelPair(v0=2.0 - 1e-9, v1=2.0, c=1.0, gamma_max=0.5)
        assert expected_up_cross(lv) < 1e-8

    def test_up_cross_infinite_without_floor(self):
        lv = LevelPair(v0=1.0, v1=2.0, c=1.0, gamma_max=0.0)
        assert math.isinf(expected_up_cross(lv))

    def test_down_cross_value(self):
        assert expected_down_cross(self.LV) == pytest.approx(
            1.0 + math.log(3.0), rel=1e-12
        )
        assert expected_down_cross(self.LV) == pytest.approx(2.098612, abs=1e-6)

    def test_down_cross_c_scaling(self):
        lv = LevelPair(v0=1.0, v1=2.0, c=2.0, gamma_max=1.0)
        assert expected_down_cross(lv) == pytest.approx(1.049306, abs=1e-6)

    def test_down_cross_zero_width_band(self):
        lv = LevelPair(v0=2.0 - 1e-12, v1=2.0, c=1.0, gamma_max=0.5)
        assert expected_down_cross(lv) == pytest.approx(1.0, abs=1e-9)

    def test_means_match_survival_quadrature(self):
        # dual route: integrate the survival bounds numerically
        for lv in [
            self.LV,
            LevelPair(v0=0.7, v1=3.0, c=0.5, gamma_max=0.2),
            LevelPair(v0=1.2, v1=1.4, c=3.0, gamma_max=1.5),
        ]:
            t_uc_quad, err_uc = sci_integrate.quad(
                lambda s: up_cross_survival_bound(s, lv), 0.0, np.inf, limit=200
            )
            t_dc_quad, err_dc = sci_integrate.quad(
                lambda s: down_cross_survival_bound(s, lv), 0.0, np.inf, limit=200
            )
            assert expected_up_cross(lv) == pytest.approx(t_uc_quad, rel=1e-6)
            assert expected_down_cross(lv) == pytest.approx(t_dc_quad, rel=1e-6)


class TestSurvivalBounds:
    LV = LevelPair(v0=1.0, v1=2.0, c=1.0, gamma_max=0.5)

    def test_up_values(self):
        assert up_cross_survival_bound(0.0, self.LV) == pytest.approx(0.5, rel=1e-12)
        assert up_cross_survival_bound(-1.0, self.LV) == 1.0
        assert up_cross_survival_bound(1e4, self.LV) == 0.0
        assert up_cross_survival_bound(500.0, self.LV) < 1e-200

    def test_down_values(self):
        assert down_cross_survival_bound(math.log(3.0), self.LV) == pytest.approx(
            1.0, rel=1e-12
        )
        assert down_cross_survival_bound(2.0, self.LV) == pytest.approx(
            3.0 * math.exp(-2.0), rel=1e-12
        )
        assert down_cross_survival_bound(0.0, self.LV) == 1.0

    def test_shapes(self):
        s_grid = np.linspace(0.0, 20.0, 200)
        up = [up_cross_survival_bound(float(s), self.LV) for s in s_grid]
        down = [down_cross_survival_bound(float(s), self.LV) for s in s_grid]
        assert np.all(np.diff(up) <= 0)
        assert np.all(np.diff(down) <= 0)
        assert all(0.0 <= u <= 1.0 for u in up)
        assert all(0.0 <= d <= 1.0 for d in down)


class TestOccupancyBounds:
    def test_bound_b_values(self):
        assert bound_b(1.0, 1.0, 0.5, ALPHA1) == 0.0
        # 2/(2 + 3.146193...) = 0.3886368 to full precision
        assert bound_b(math.e, 1.0, 0.5, ALPHA1) == pytest.approx(0.388650, abs=2e-5)
        w = bisect_w_lower(-math.exp(-2.0))
        assert bound_b(math.e, 1.0, 0.5, ALPHA1) == pytest.approx(
            2.0 / (2.0 - w), rel=1e-10
        )

    def test_bound_b_below_domain_edge(self):
        assert bound_b(0.5, 1.0, 0.5, ALPHA1) == 0.0

    def test_bound_b_zero_floor(self):
        assert bound_b(1.0, 1.0, 0.0, ALPHA1) == 1.0

    def test_bound_b_invalid_alpha(self):
        with pytest.raises(ValueError):
            bound_b(1.0, 1.0, 0.5, lambda r: 0.0)

    def test_bound_b_nan_alpha(self):
        # a NaN alpha1 would give b = NaN, which no D(r) falls below
        with pytest.raises(ValueError, match=r"^alpha1\(1\.0\) = nan is not positive$"):
            bound_b(1.0, 1.0, 0.5, lambda r: math.nan)

    def test_bound_b_monotone_to_one(self):
        rs = np.geomspace(1.0, 1e150, 400)
        bs = [bound_b(float(r), 1.0, 0.5, ALPHA1) for r in rs]
        assert np.all(np.diff(bs) >= 0)
        assert bs[-1] > 0.99

    def test_bound_b_limit_where_alpha1_overflows(self):
        # alpha1(1e200) is inf, and alpha1(1e150) / 1e-300 overflows
        assert bound_b(1e200, 1.0, 0.5, ALPHA1) == 1.0
        assert bound_b(1e150, 1.0, 1e-300, ALPHA1) == 1.0
        assert bound_b(1e150, 1.0, 0.5, ALPHA1) < 1.0

    def test_fractile_values(self):
        assert fractile_q(1.0 / 3.0, 1.0, 0.5, ALPHA1_INV) == pytest.approx(
            2.1958, abs=5e-4
        )
        assert fractile_q(0.5, 1.0, 0.5, ALPHA1_INV) == pytest.approx(4.8215, abs=5e-4)
        assert fractile_q(1e-12, 1.0, 0.5, ALPHA1_INV) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("k", [0.996, 1.0 - 1e-12])
    def test_fractile_limit_where_the_level_overflows(self, k):
        # k/(1-k) |W_{-1}(-e^-2)| exceeds the largest exponent of a float
        assert fractile_q(k, 1.0, 0.5, ALPHA1_INV) == math.inf

    def test_fractile_nan_radius(self):
        # every point counts as below a NaN threshold, so occupancy would pass
        with pytest.raises(ValueError, match=r"^alpha1_inv\(.*\) = nan is not a radius$"):
            fractile_q(0.3, 1.0, 0.5, lambda s: math.nan)

    @pytest.mark.parametrize("k", [0.0, 1.0, -0.2, 1.3])
    def test_fractile_domain(self, k):
        with pytest.raises(ValueError):
            fractile_q(k, 1.0, 0.5, ALPHA1_INV)

    def test_b_q_round_trip(self):
        for k in np.arange(0.1, 0.95, 0.1):
            qk = fractile_q(float(k), 1.0, 0.5, ALPHA1_INV)
            assert bound_b(qk, 1.0, 0.5, ALPHA1) == pytest.approx(float(k), abs=1e-9)


class TestOptimality:
    def test_ratio_identity_at_beta_star(self):
        # at the optimal v0 the ratio equals L / (-W + L) with L = ln(v1/floor)
        v1, c, gmax = 2.0, 1.0, 0.5
        v0 = optimal_v0(v1, c, gmax)
        lv = LevelPair(v0=v0, v1=v1, c=c, gamma_max=gmax)
        w = bisect_w_lower(-math.exp(-2.0))
        ell = math.log(v1 / lv.floor)
        assert occupancy_ratio_bound(lv) == pytest.approx(ell / (-w + ell), rel=1e-10)

    def test_beta_star_maximizes_on_grid(self):
        v1, c, gmax = 2.0, 1.0, 0.5
        g = gmax / c
        best = occupancy_ratio_bound(
            LevelPair(v0=optimal_v0(v1, c, gmax), v1=v1, c=c, gamma_max=gmax)
        )
        betas = np.linspace(1e-4, 1.0 - 1e-4, 1000)
        for beta in betas:
            if abs(beta - beta_star()) < 1e-12:
                continue
            lv = LevelPair(v0=g + beta * (v1 - g), v1=v1, c=c, gamma_max=gmax)
            assert occupancy_ratio_bound(lv) < best

    def test_optimal_v0_requires_room(self):
        with pytest.raises(ValueError):
            optimal_v0(0.4, 1.0, 0.5)


class TestBoundSet:
    def test_bundle_consistency(self):
        lv = LevelPair(v0=1.0, v1=2.0, c=1.0, gamma_max=0.5)
        bset = make_bound_set(lv, ALPHA1, ALPHA1_INV)
        assert bset.b(math.e) == bound_b(math.e, 1.0, 0.5, ALPHA1)
        assert bset.q(0.5) == fractile_q(0.5, 1.0, 0.5, ALPHA1_INV)
