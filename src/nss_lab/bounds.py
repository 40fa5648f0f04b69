"""Closed-form crossing-time bounds for exponentially dissipative stochastic systems.

Everything here is a pure function of the dissipation rate ``c``, the noise
gain ceiling ``gamma_max`` and the level pair ``(v0, v1)``, so the whole module
is testable without any simulation machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "LevelPair",
    "BoundSet",
    "lambert_w_lower",
    "beta_star",
    "optimal_v0",
    "expected_up_cross",
    "expected_down_cross",
    "up_cross_survival_bound",
    "down_cross_survival_bound",
    "up_mean_critical",
    "down_mean_critical",
    "bound_b",
    "fractile_q",
    "occupancy_ratio_bound",
    "make_bound_set",
]

_BRANCH_POINT = -math.exp(-1.0)
_NEWTON_ITERS = 10


def lambert_w_lower(x: float) -> float:
    """Lower branch of the Lambert W function on [-1/e, 0).

    Solves ``w * exp(w) = x`` for ``w <= -1`` by Newton's method on the
    log-domain residual ``w + ln(-w) - ln(-x)``, which needs no ``exp`` and
    so cannot underflow for tiny ``|x|``.  The start is the branch-point
    series near -1/e and the asymptotic series elsewhere (Corless et al.
    1996, *On the Lambert W function*, section 4).

    Raises
    ------
    ValueError
        If ``x`` lies outside ``[-1/e, 0)``.
    RuntimeError
        If the result misses ``|w e^w - x| <= 1e-12``.
    """
    if not (_BRANCH_POINT <= x < 0.0):
        raise ValueError(f"x={x!r} outside the lower-branch domain [-1/e, 0)")
    if x == _BRANCH_POINT:
        return -1.0

    ln_neg_x = math.log(-x)
    p = -math.sqrt(2.0 * (1.0 + math.e * x))
    if p > -1.0:
        w = -1.0 + p - p * p / 3.0 + 11.0 / 72.0 * p ** 3
    else:
        ln_ln = math.log(-ln_neg_x)
        w = ln_neg_x - ln_ln + ln_ln / ln_neg_x
    for _ in range(_NEWTON_ITERS):
        # the residual is increasing and concave in w < -1, with slope (w+1)/w
        step = (w + math.log(-w) - ln_neg_x) * w / (w + 1.0)
        w = min(w - step, -1.0)
        if abs(step) <= 4e-16 * abs(w):
            break

    if abs(w * math.exp(w) - x) > 1e-12:
        raise RuntimeError(f"lambert_w_lower did not converge for x={x!r}")
    return w


# W_{-1}(-e^{-2}), the constant appearing in every occupancy bound
_W_M2 = lambert_w_lower(-math.exp(-2.0))


def beta_star() -> float:
    """Level ratio maximizing the occupancy lower bound: -1 / W_{-1}(-e^{-2})."""
    return -1.0 / _W_M2


@dataclass(frozen=True)
class LevelPair:
    """Crossing levels ``gamma_max/c < v0 < v1`` with the system constants."""

    v0: float
    v1: float
    c: float
    gamma_max: float

    def __post_init__(self) -> None:
        if not self.c > 0.0:
            raise ValueError(f"c must be positive, got {self.c!r}")
        if not self.gamma_max >= 0.0:
            raise ValueError(f"gamma_max must be nonnegative, got {self.gamma_max!r}")
        if not (self.floor < self.v0 < self.v1):
            raise ValueError(
                f"levels must satisfy gamma_max/c < v0 < v1, got "
                f"floor={self.floor!r}, v0={self.v0!r}, v1={self.v1!r}"
            )

    @property
    def floor(self) -> float:
        """The noise floor ``gamma_max / c`` in Lyapunov units."""
        return self.gamma_max / self.c

    @property
    def beta(self) -> float:
        """Normalized level ratio ``(v0 - floor) / (v1 - floor)`` in (0, 1)."""
        return (self.v0 - self.floor) / (self.v1 - self.floor)


def optimal_v0(v1: float, c: float, gamma_max: float) -> float:
    """The v0 that maximizes the occupancy ratio bound for a given v1."""
    floor = gamma_max / c
    if v1 <= floor:
        raise ValueError(f"v1={v1!r} must exceed the noise floor {floor!r}")
    return floor + beta_star() * (v1 - floor)


def expected_up_cross(levels: LevelPair) -> float:
    """Mean of the law dominating up-cross times from below.

    Equals ``c^-1 (v1-v0)/(v1-floor) ln(v1/floor)``; infinite when the
    noise floor is zero (the band is then never re-entered from above in
    the dominating law).
    """
    g = levels.floor
    if g == 0.0:
        return math.inf
    return (
        (levels.v1 - levels.v0)
        / (levels.v1 - g)
        * math.log(levels.v1 / g)
        / levels.c
    )


def expected_down_cross(levels: LevelPair) -> float:
    """Mean of the law dominating down-cross times from above."""
    g = levels.floor
    return (1.0 + math.log((levels.v1 - g) / (levels.v0 - g))) / levels.c


def up_cross_survival_bound(s, levels: LevelPair):
    """Lower bound on P{up-cross time > s}, at a scalar or an array of s;
    identically 1 for s < 0, and 0 where ``cs > 700``."""
    s = np.asarray(s, dtype=float)
    g, cs = levels.floor, levels.c * s
    tail = (levels.v1 - levels.v0) / (levels.v1 - g + g * np.exp(np.minimum(cs, 700.0)))
    return np.where(s < 0.0, 1.0, np.where(cs > 700.0, 0.0, tail))[()]


def down_cross_survival_bound(s, levels: LevelPair):
    """Upper bound on P{down-cross time >= s}, at a scalar or an array of s:
    a capped exponential tail."""
    g = levels.floor
    log_ratio = math.log((levels.v1 - g) / (levels.v0 - g))
    return np.exp(np.minimum(log_ratio - levels.c * np.asarray(s, dtype=float), 0.0))[()]


def up_mean_critical(levels: LevelPair, n: int, alpha: float) -> float:
    """A mean below which n i.i.d. up-law draws average with chance at most
    alpha: Chernoff's ``max_lam (ln(alpha)/n - ln L(lam)) / lam``.

    L is the up law's Laplace transform: its atom ``1 - (v1-v0)/v1`` at 0
    plus ``int_0^1 (v1-v0) g w^{lam/c} / (g + (v1-g) w)^2 dw`` in
    ``w = e^{-cs}``.  The integral is bounded from above by a sum over 256
    cells, each factor read at its larger end, so each of the 400 lam, log
    spaced over ``c * [1e-3, 1e3]``, gives a valid critical value.  At a
    zero floor the law is 0 with chance v0/v1 and +inf otherwise, so the exact
    value is +inf where ``(v0/v1)^n <= alpha`` and 0 elsewhere.
    """
    g, a = levels.floor, levels.v1 - levels.v0
    if g == 0.0:
        return math.inf if (levels.v0 / levels.v1) ** n <= alpha else 0.0
    w = np.linspace(0.0, 1.0, 257)
    cells = a * g / 256 / (g + (levels.v1 - g) * w[:-1]) ** 2
    # one mu = lam / c at a time, so that no 400 x 256 table is held
    return max((math.log(alpha) / n - math.log1p(float(w[1:] ** mu @ cells) - a / levels.v1))
               / (levels.c * mu) for mu in np.geomspace(1e-3, 1e3, 400).tolist())


def down_mean_critical(levels: LevelPair, n: int, alpha: float) -> float:
    """The mean above which n i.i.d. down-law draws average with chance
    alpha, exactly.

    A draw is ``L/c`` plus an Exp(c), ``L = c t_dc - 1``, so n times the mean
    is ``n L/c`` plus ``x/c``, x a Gamma(n, 1) with ``P(x > s) = P(Poisson(s)
    < n) = e^{-s} sum_{k<n} s^k/k!``.  The sum is taken relative to its
    largest term, so that no term underflows while it still counts.  Its log
    is concave and decreasing in s, so Newton's method from ``s = n`` lands
    at or above the root after at most one step and then falls to it.
    """
    log_p, x = math.log(alpha), float(n)
    for _ in range(100):
        m = min(n - 1, int(x))
        ratios = (np.cumprod(np.arange(m, 0, -1) / x).sum()
                  + np.cumprod(x / np.arange(m + 1, n)).sum())
        log_sf = m * math.log(x) - x - math.lgamma(m + 1) + math.log1p(ratios)
        log_pdf = (n - 1) * math.log(x) - x - math.lgamma(n)
        step = (log_sf - log_p) * math.exp(log_sf - log_pdf)
        x += step
        if abs(step) <= 1e-12 * x:
            break
    return expected_down_cross(levels) + (x / n - 1.0) / levels.c


def _positive_alpha1(alpha1: Callable[[float], float], r: float) -> float:
    """``alpha1(r)``, raising a ValueError where it is not positive (or NaN)."""
    a = alpha1(r)
    if not a > 0.0:
        raise ValueError(f"alpha1({r!r}) = {a!r} is not positive")
    return a


def bound_b(
    r: float, c: float, gamma_max: float, alpha1: Callable[[float], float]
) -> float:
    """Almost-sure lower bound on the time fraction spent inside radius r.

    Returns 0 below the domain edge ``alpha1(r) <= gamma_max / c`` (the
    vacuous valid bound), so the function is total on positive radii, and
    its limit 1 where ``alpha1(r) / (gamma_max / c)`` overflows to infinity.

    Raises
    ------
    ValueError
        If ``alpha1(r)`` is not positive or is NaN, which indicates a misuse
        (radii are positive and alpha1 is a class-K function).
    """
    a = _positive_alpha1(alpha1, r)
    g = gamma_max / c
    if g == 0.0:
        return 1.0
    if a <= g:
        return 0.0
    log_ratio = math.log(a / g)
    if log_ratio == math.inf:
        return 1.0
    return log_ratio / (-_W_M2 + log_ratio)


def fractile_q(
    k: float, c: float, gamma_max: float, alpha1_inv: Callable[[float], float]
) -> float:
    """The radius within which at least fraction k of time is spent, or its
    limit ``inf`` where the level ``alpha1(q)`` overflows; a NaN radius from
    ``alpha1_inv`` raises a ValueError."""
    if not (0.0 < k < 1.0):
        raise ValueError(f"k={k!r} outside (0, 1)")
    g = gamma_max / c
    try:
        level = g * math.exp(-(k / (1.0 - k)) * _W_M2)
    except OverflowError:
        return math.inf
    if level == math.inf:
        return math.inf
    q = alpha1_inv(level)
    if math.isnan(q):
        raise ValueError(f"alpha1_inv({level!r}) = {q!r} is not a radius")
    return q


def occupancy_ratio_bound(levels: LevelPair) -> float:
    """t_uc / (t_uc + t_dc): lower bound on time spent below level v1."""
    t_uc = expected_up_cross(levels)
    if math.isinf(t_uc):
        return 1.0
    t_dc = expected_down_cross(levels)
    return t_uc / (t_uc + t_dc)


@dataclass(frozen=True)
class BoundSet:
    """The radius bound b(r) and fractile q(k) for one level pair and alpha1 envelope."""

    b: Callable[[float], float] = field(repr=False)
    q: Callable[[float], float] = field(repr=False)


def make_bound_set(
    levels: LevelPair,
    alpha1: Callable[[float], float],
    alpha1_inv: Callable[[float], float],
) -> BoundSet:
    """Bind b(r) and q(k) to one LevelPair and alpha1 envelope."""
    return BoundSet(
        b=lambda r: bound_b(r, levels.c, levels.gamma_max, alpha1),
        q=lambda k: fractile_q(k, levels.c, levels.gamma_max, alpha1_inv),
    )
