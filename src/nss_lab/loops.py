"""Crossing-time extraction and statistical verification on simulated data.

A loop is one excursion of the Lyapunov value from level v0 up past v1 and
back to v0.  This module extracts loops from a sampled trajectory, builds
empirical survival / time-average distributions, and checks them against the
closed-form bounds with one-sided confidence intervals.  The theoretical
bounds hold almost surely, so a confident violation indicates an
implementation or discretization error, not a falsification of the theory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import List, Sequence, Tuple

import numpy as np

from .bounds import (
    LevelPair,
    _positive_alpha1,
    down_cross_survival_bound,
    expected_down_cross,
    expected_up_cross,
    up_cross_survival_bound,
)
from .model import SystemSpec
from .sim import _BLOCK_ROWS, Ensemble, Trajectory

__all__ = [
    "LoopRecord",
    "EmpiricalDistribution",
    "CheckRow",
    "CrossTimeReport",
    "MomentReport",
    "ProbabilityReport",
    "MIN_LOOPS",
    "MIN_PATHS",
    "extract_loops",
    "empirical_time_average",
    "wilson_interval",
    "verify_cross_time_bounds",
    "verify_moment_bound",
    "verify_probability_bound",
]

MIN_LOOPS = 30
MIN_PATHS = 1000
# survival-curve points per crossing-time check: sample quantiles 0 to 0.95
_SURVIVAL_GRID = 25


@dataclass(frozen=True)
class LoopRecord:
    """Alternating crossing times extracted from one trajectory.

    ``taus[0] = 0``; odd entries are up-crossings of v1, even entries (from
    index 2) are returns to v0.  ``up_times`` and ``down_times`` are the
    successive differences and reconstruct ``taus`` exactly.  An odd
    ``len(taus)`` means the path ends in an up phase.
    """

    taus: np.ndarray
    up_times: np.ndarray
    down_times: np.ndarray
    complete_loops: int


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Time fraction ``values[i]`` below each ``thresholds[i]``."""

    thresholds: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if len(self.thresholds) != len(self.values):
            raise ValueError("thresholds and values must share one length")


def extract_loops(traj: Trajectory, v0: float, v1: float) -> LoopRecord:
    """Scan a trajectory's Lyapunov series for alternating level crossings.

    Crossings are detected at grid points outside the band: each is marked
    up (``lyap >= v1``) or down (``lyap <= v0``; an exact hit has probability
    zero, so grid semantics use inequalities).  A crossing is the first point
    of each run of one mark, and a leading run of down points crosses
    nothing.  So a path that starts at or above v1 crosses up at time 0.
    The series is scanned in blocks of ``_BLOCK_ROWS`` points, each carrying
    the last mark outside the band into the next.
    """
    if not (0.0 < v0 < v1):
        raise ValueError(f"need 0 < v0 < v1, got v0={v0!r}, v1={v1!r}")
    crossings, last = [[0]], False
    for lo in range(0, len(traj.lyap), _BLOCK_ROWS):
        lyap = traj.lyap[lo:lo + _BLOCK_ROWS]
        above = lyap >= v1
        out = np.flatnonzero(above | (lyap <= v0))
        if len(out):
            # indexing the mask, not lyap, keeps the marks from copying out's floats
            marks = above[out]
            crossings.append(lo + out[np.flatnonzero(np.diff(marks, prepend=last))])
            last = marks[-1]
    taus = np.concatenate(crossings) * traj.grid_dt
    diffs = np.diff(taus)
    up_times = diffs[0::2]
    down_times = diffs[1::2]
    return LoopRecord(
        taus=taus,
        up_times=up_times,
        down_times=down_times,
        complete_loops=len(down_times),
    )


def empirical_time_average(
    traj: Trajectory, thresholds: Sequence[float], mode: str = "norm"
) -> EmpiricalDistribution:
    """Finite-horizon fraction of time the state value stays below each threshold.

    Uses left-endpoint weighting: each grid interval contributes its full
    step with the value at its left endpoint, which keeps the occupancy
    accounting consistent with grid-detected crossings, for thresholds in any order.
    The values are read in blocks of ``_BLOCK_ROWS``, each sorted on its own,
    and the counts below each threshold are summed over the blocks.
    """
    if mode == "norm":
        vals = traj.norms
    elif mode == "lyapunov":
        vals = traj.lyap
    else:
        raise ValueError(f"mode must be 'norm' or 'lyapunov', got {mode!r}")
    thresholds = np.asarray(thresholds, dtype=float)
    n = len(vals) - 1
    counts = np.zeros(len(thresholds), dtype=np.intp)
    for lo in range(0, n, _BLOCK_ROWS):
        counts += np.searchsorted(np.sort(vals[lo:min(lo + _BLOCK_ROWS, n)]), thresholds,
                                  side="left")
    return EmpiricalDistribution(thresholds=thresholds, values=counts / n)


def wilson_interval(successes: int, n: int,
                    confidence: float) -> Tuple[float, float]:
    """One-sided Wilson score limits ``(lo, hi)`` for a binomial proportion.

    Each end alone holds at ``confidence``, which must lie in (0, 1).  The
    limits are exactly 0 at no successes and exactly 1 at all successes,
    where the formula's rounding can land just inside the interval.
    """
    z = _normal_quantile(confidence)
    p = successes / n
    denom = 1.0 + z * z / n
    center = p + z * z / (2.0 * n)
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
    lo = 0.0 if successes == 0 else max(0.0, (center - half) / denom)
    hi = 1.0 if successes == n else min(1.0, (center + half) / denom)
    return lo, hi


def _check_confidence(confidence: float) -> None:
    if not (0.0 < confidence < 1.0):
        raise ValueError(f"confidence must lie in (0, 1), got {confidence!r}")


def _normal_quantile(p: float) -> float:
    """Standard normal quantile: the standard library's ``NormalDist.inv_cdf``
    (Wichura's AS241), within 7 ulp of ``scipy.special.ndtri``."""
    _check_confidence(p)
    return NormalDist().inv_cdf(p)


def _t_two_sided(t: float, df: int) -> float:
    """``P(|T| < t)`` for Student's t with integer ``df``, ``t >= 0``: the finite
    sums of Abramowitz & Stegun 26.7.3 (odd df) and 26.7.4 (even df) in
    ``theta = atan(t / sqrt(df))``, with ``cos^2 theta = df / (df + t^2)``."""
    cos2 = df / (df + t * t)
    acc = term = 1.0
    if df % 2:
        for k in range(1, (df - 1) // 2):
            term *= cos2 * (2 * k) / (2 * k + 1)
            acc += term
        sin_cos = t * math.sqrt(df) / (df + t * t) if df > 1 else 0.0
        return (2.0 / math.pi) * (math.atan(t / math.sqrt(df)) + sin_cos * acc)
    for k in range(1, df // 2):
        term *= cos2 * (2 * k - 1) / (2 * k)
        acc += term
    return t / math.sqrt(df + t * t) * acc


def _t_quantile(df: int, p: float) -> float:
    """Student's t quantile for an integer ``df >= 1``.

    Newton's method from the normal quantile on the two-sided probability of
    :func:`_t_two_sided`, solved against ``|2p - 1|`` (exact for p >= 1/4),
    with the density from ``math.lgamma``.  The two-sided sum is concave in
    t > 0 and the normal quantile lies below the root, so the iterates rise
    to it monotonically.  Within about ``1e-11 * max(1, |t|)`` of
    ``scipy.special.stdtrit`` for df up to 1e4 and p in [1e-4, 1 - 1e-4];
    further out the relative error grows roughly as ``1e-16 / min(p, 1 - p)``,
    and p within about 5e-17 of 0 gives -inf.
    """
    _check_confidence(p)
    target = abs(2.0 * p - 1.0)
    if target == 1.0:
        return -math.inf
    log_norm = (math.lgamma((df + 1) / 2) - math.lgamma(df / 2)
                - 0.5 * math.log(df * math.pi))
    t = abs(_normal_quantile(p))
    for _ in range(100):
        dens = math.exp(log_norm - (df + 1) / 2 * math.log1p(t * t / df))
        step = (target - _t_two_sided(t, df)) / (2.0 * dens)
        t += step
        # converged, or a step that does not rise: rounding noise of the sum
        if step <= 1e-13 * max(1.0, t):
            break
    return t if p >= 0.5 else -t


def _linear_quantiles(samples: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """``np.quantile(samples, probs)`` bit for bit on finite samples: numpy's
    virtual index and its two-sided lerp on the sorted samples.  ``np.quantile``
    imports ``numpy.ma`` on first use, which costs 10-17 ms."""
    x = np.sort(samples)
    n = len(x)
    virtual = (n - 1) * probs
    lo = np.floor(virtual)
    gamma = virtual - lo
    lo = lo.astype(np.intp)
    a, b = x[lo], x[np.minimum(lo + 1, n - 1)]  # at p = 1, gamma = 0 and a = b
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out


@dataclass(frozen=True)
class CheckRow:
    """One pointwise comparison: empirical estimate vs theoretical bound."""

    threshold: float
    empirical: float
    bound: float
    ci_low: float
    ci_high: float
    flag: bool


@dataclass(frozen=True)
class CrossTimeReport:
    """Survival-curve and mean comparisons for one loop record."""

    underpowered: bool
    up_rows: List[CheckRow]
    down_rows: List[CheckRow]
    t_uc: float
    t_dc: float
    mean_up: float
    mean_down: float
    mean_up_halfwidth: float
    mean_down_halfwidth: float
    mean_up_flag: bool
    mean_down_flag: bool

    @property
    def n_flags(self) -> int:
        return (
            sum(r.flag for r in self.up_rows)
            + sum(r.flag for r in self.down_rows)
            + int(self.mean_up_flag)
            + int(self.mean_down_flag)
        )

    @property
    def passed(self) -> bool:
        return self.underpowered or self.n_flags == 0


def verify_cross_time_bounds(
    record: LoopRecord,
    levels: LevelPair,
    confidence: float = 0.99,
    min_loops: int = MIN_LOOPS,
) -> CrossTimeReport:
    """Check empirical crossing-time statistics against the survival bounds.

    Up-cross survival must not fall below its theoretical lower bound and
    down-cross survival must not exceed its upper bound, pointwise at the
    given one-sided Wilson confidence.  Sample means are compared one-sided
    against t_uc (>=) and t_dc (<=) with t-intervals.  The first up-cross is
    dropped: its distribution is not controlled by the dominating law.
    ``min_loops`` must be at least 3, so that a powered check keeps two
    up-crossing samples for its t-interval.
    """
    _check_confidence(confidence)
    if min_loops < 3:
        raise ValueError(f"min_loops must be >= 3, got {min_loops!r}")
    t_uc = expected_up_cross(levels)
    t_dc = expected_down_cross(levels)
    up = np.asarray(record.up_times[1:], dtype=float)
    down = np.asarray(record.down_times, dtype=float)

    def survival_rows(samples, bound_fn, up_side):
        # up-cross survival is bounded from below, down-cross from above
        n = len(samples)
        grid = _linear_quantiles(samples, np.linspace(0.0, 0.95, _SURVIVAL_GRID))
        rows = []
        for s in grid:
            s = float(s)
            k = int(np.sum(samples > s if up_side else samples >= s))
            bound = bound_fn(s, levels)
            lo, hi = wilson_interval(k, n, confidence)
            rows.append(CheckRow(s, k / n, bound, lo, hi,
                                 hi < bound if up_side else lo > bound))
        return rows

    def one_sided_halfwidth(samples):
        n = len(samples)
        tq = _t_quantile(n - 1, confidence)
        return tq * float(np.std(samples, ddof=1)) / math.sqrt(n)

    underpowered = record.complete_loops < min_loops
    if underpowered:
        # NaN half-widths make both mean flags False
        up_rows, down_rows, up_hw, down_hw = [], [], math.nan, math.nan
    else:
        up_rows = survival_rows(up, up_cross_survival_bound, True)
        down_rows = survival_rows(down, down_cross_survival_bound, False)
        up_hw = one_sided_halfwidth(up)
        down_hw = one_sided_halfwidth(down)
    mean_up = float(np.mean(up)) if len(up) else math.nan
    mean_down = float(np.mean(down)) if len(down) else math.nan
    return CrossTimeReport(
        underpowered=underpowered, up_rows=up_rows, down_rows=down_rows,
        t_uc=t_uc, t_dc=t_dc, mean_up=mean_up, mean_down=mean_down,
        mean_up_halfwidth=up_hw, mean_down_halfwidth=down_hw,
        mean_up_flag=mean_up + up_hw < t_uc,
        mean_down_flag=mean_down - down_hw > t_dc,
    )


@dataclass(frozen=True)
class MomentReport:
    """Ensemble-mean Lyapunov values against the exponential decay envelope."""

    rows: List[CheckRow]

    @property
    def passed(self) -> bool:
        return not any(r.flag for r in self.rows)


def _grid_index(grid_dt: float, n: int, t: float) -> int:
    """Index of time t on the grid of n saved times ``q * grid_dt``; raises if
    t is off it."""
    idx = int(round(t / grid_dt))
    if not (0 <= idx < n) or abs(idx * grid_dt - t) > 1e-9 + 1e-9 * abs(t):
        raise ValueError(f"time {t!r} is not on the saved trajectory grid")
    return idx


def _moment_envelope(spec: SystemSpec, v0: float, t: float) -> float:
    """The bound ``e^{-ct}(V(x0) - floor) + floor`` on E[V(x(t))], ``v0 = V(x0)``."""
    g = spec.noise_floor
    return math.exp(-spec.c * t) * (v0 - g) + g


def verify_moment_bound(
    paths: Ensemble, spec: SystemSpec, times: Sequence[float]
) -> MomentReport:
    """Check E[V(x(t))] <= e^{-ct}(V(x0) - floor) + floor at each sampled time.

    The mean is taken over the ensemble's column ``paths.lyap[:, idx]`` at
    each time.  The empirical mean may exceed the bound by at most three
    standard errors before the point is flagged.
    """
    if len(paths) < MIN_PATHS:
        raise ValueError(f"need >= {MIN_PATHS} paths, got {len(paths)}")
    v0 = float(paths.lyap[0, 0])
    rows = []
    for t in times:
        t = float(t)
        idx = _grid_index(paths.grid_dt, paths.lyap.shape[1], t)
        vals = paths.lyap[:, idx]
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
        bound = _moment_envelope(spec, v0, t)
        rows.append(
            CheckRow(t, mean, bound, mean - 3.0 * se, mean + 3.0 * se,
                     flag=mean - 3.0 * se > bound)
        )
    return MomentReport(rows=rows)


@dataclass(frozen=True)
class ProbabilityReport:
    """Empirical frequency of {|x(t)| < r} against its theoretical floor."""

    frequency: float
    floor: float
    ci_low: float
    ci_high: float
    vacuous: bool
    flag: bool

    @property
    def passed(self) -> bool:
        return not self.flag


def verify_probability_bound(
    paths: Ensemble,
    spec: SystemSpec,
    r: float,
    t: float,
    confidence: float = 0.99,
) -> ProbabilityReport:
    """Check P{|x(t)| < r} against 1 - (e^{-ct}(V(x0)-floor)+floor)/alpha1(r),
    counting the hits in the ensemble's column ``paths.norms[:, idx]``."""
    if len(paths) < MIN_PATHS:
        raise ValueError(f"need >= {MIN_PATHS} paths, got {len(paths)}")
    if not r > 0.0:
        raise ValueError(f"radius must be positive, got {r!r}")
    idx = _grid_index(paths.grid_dt, paths.lyap.shape[1], float(t))
    hits = int(np.sum(paths.norms[:, idx] < r))
    n = len(paths)
    floor = 1.0 - (_moment_envelope(spec, float(paths.lyap[0, 0]), t)
                   / _positive_alpha1(spec.lyapunov.alpha1, r))
    lo, hi = wilson_interval(hits, n, confidence)
    vacuous = floor <= 0.0
    return ProbabilityReport(
        frequency=hits / n, floor=floor, ci_low=lo, ci_high=hi,
        vacuous=vacuous, flag=(not vacuous) and hi < floor,
    )
