"""Crossing-time extraction and statistical verification on simulated data.

A loop is one excursion of the Lyapunov value from level v0 up past v1 and
back to v0.  This module extracts loops from one sampled path, measures the
fraction of time it spends below thresholds, and checks the data against the
closed-form bounds: the loop times against the laws that dominate them, the
moments of an ensemble (a trajectory with a path axis) with standard errors.
The loop times' survival and the ensemble's law at each check time read one
one-sided DKW band.  The ensemble checks return lists of :class:`CheckRow`
and the time average a float array.
The theoretical bounds hold almost surely, so a confident violation indicates
an implementation or discretization error, not a falsification of the theory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .bounds import (
    LevelPair,
    _positive_alpha1,
    down_cross_survival_bound,
    down_mean_critical,
    expected_down_cross,
    expected_up_cross,
    up_cross_survival_bound,
    up_mean_critical,
)
from .model import SystemSpec
from .sim import _BLOCK_ROWS, Trajectory, _check_path_axes, _whole_steps

__all__ = [
    "LoopRecord",
    "CheckRow",
    "CrossTimeReport",
    "MIN_LOOPS",
    "MIN_PATHS",
    "extract_loops",
    "empirical_time_average",
    "verify_cross_time_bounds",
    "verify_moment_bound",
    "verify_probability_bound",
]

MIN_LOOPS = 2
MIN_PATHS = 1000
_MOMENT_SES = 3.0  # the standard errors the ensemble mean of V may exceed its bound by


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


def extract_loops(traj: Trajectory, v0: float, v1: float) -> LoopRecord:
    """Scan a trajectory's Lyapunov series for alternating level crossings.

    Crossings are detected at grid points outside the band: each is marked
    up (``lyap >= v1``) or down (``lyap <= v0``; an exact hit has probability
    zero, so grid semantics use inequalities).  A crossing is the first point
    of each run of one mark, and a leading run of down points crosses
    nothing.  So a path that starts at or above v1 crosses up at time 0.
    The series is scanned in blocks of ``_BLOCK_ROWS`` points, each carrying
    the last mark outside the band into the next.  ``traj`` is one path.
    """
    _check_path_axes(traj, 0)
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
    return LoopRecord(taus=taus, up_times=diffs[0::2], down_times=diffs[1::2],
                      complete_loops=len(diffs) // 2)


def _count_below(values: np.ndarray, thresholds, side: str = "left") -> np.ndarray:
    """How many ``values`` lie below each threshold (``side="left"``), or at
    or below it (``"right"``), as integers in threshold order.  The values are
    read in blocks of ``_BLOCK_ROWS``, each sorted on its own, and the counts
    are summed over the blocks, so the result is the same for any block size."""
    counts = np.zeros(len(thresholds), dtype=np.intp)
    for lo in range(0, len(values), _BLOCK_ROWS):
        counts += np.searchsorted(np.sort(values[lo:lo + _BLOCK_ROWS]), thresholds, side=side)
    return counts


def empirical_time_average(traj: Trajectory, thresholds: Sequence[float]) -> np.ndarray:
    """Finite-horizon fraction of time the norm of one path stays below each
    threshold, as one float array in threshold order.

    Uses left-endpoint weighting: each grid interval contributes its full
    step with the norm at its left endpoint, which keeps the occupancy
    accounting consistent with grid-detected crossings, for thresholds in any order.
    """
    _check_path_axes(traj, 0)
    left = traj.norms[:-1]
    return _count_below(left, np.asarray(thresholds, dtype=float)) / len(left)


def _check_confidence(confidence: float) -> None:
    if not (0.0 < confidence < 1.0):
        raise ValueError(f"confidence must lie in (0, 1), got {confidence!r}")


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
    """Survival-band and mean comparisons for one loop record."""

    underpowered: bool
    up_rows: List[CheckRow]
    down_rows: List[CheckRow]
    t_uc: float
    t_dc: float
    mean_up: float
    mean_down: float
    crit_up: float
    crit_down: float

    @property
    def mean_up_flag(self) -> bool:
        return self.mean_up < self.crit_up

    @property
    def mean_down_flag(self) -> bool:
        return self.mean_down > self.crit_down

    @property
    def n_flags(self) -> int:
        """Flags among the four statistics: a band flags when any of its rows does."""
        return sum((any(r.flag for r in self.up_rows), any(r.flag for r in self.down_rows),
                    self.mean_up_flag, self.mean_down_flag))

    @property
    def passed(self) -> bool:
        return self.underpowered or self.n_flags == 0


def _dkw_rows(thresholds: np.ndarray, emp: np.ndarray, bound: np.ndarray, n: int,
              alpha: float, lower: bool) -> List[CheckRow]:
    """One row per threshold: the empirical probability ``emp`` of n i.i.d.
    draws in its one-sided DKW band of level alpha (Massart 1990), of
    half-width ``sqrt(ln(1/alpha)/(2n))`` at every threshold at once.  A row
    flags where the band lies below a lower ``bound`` or above an upper one."""
    half = math.sqrt(math.log(1.0 / alpha) / (2 * n))
    flags = emp + half < bound if lower else emp - half > bound
    return [CheckRow(*row) for row in zip(
        thresholds.tolist(), emp.tolist(), bound.tolist(), np.maximum(emp - half, 0.0).tolist(),
        np.minimum(emp + half, 1.0).tolist(), flags.tolist())]


def _band_rows(samples: np.ndarray, bound: np.ndarray, alpha: float,
               up_side: bool) -> List[CheckRow]:
    """One row per sorted sample: its empirical survival, ``P{> s}`` up and
    ``P{>= s}`` down, in the one-sided DKW band of level alpha.  Up-cross
    survival is bounded from below, down-cross from above."""
    n = len(samples)
    emp = (n - _count_below(samples, samples, "right" if up_side else "left")) / n
    return _dkw_rows(samples, emp, bound, n, alpha, up_side)


def verify_cross_time_bounds(record: LoopRecord, levels: LevelPair,
                             confidence: float = 0.99) -> CrossTimeReport:
    """Check the loop times against the laws that dominate them.

    The paper couples the up times to i.i.d. up-law draws below them and the
    down times to i.i.d. down-law draws above them.  Each of four statistics
    is monotone in the sample, so it flags at most as often as on those
    draws, where it runs at ``alpha = (1 - confidence) / 4``: the up and the
    down survival each against its bound in a one-sided DKW band (Massart
    1990), the mean down time above its exact Gamma critical value, and the
    mean up time below its Chernoff one.  The report keeps the two critical
    values, ``crit_up`` and ``crit_down``, which the mean flags read.
    The first up-cross is dropped: its law is not controlled, so a record of
    fewer than ``MIN_LOOPS`` = 2 complete loops, which leaves no up time, is
    reported underpowered.
    """
    _check_confidence(confidence)
    t_uc, t_dc = expected_up_cross(levels), expected_down_cross(levels)
    up = np.sort(record.up_times[1:])
    down = np.sort(record.down_times)
    underpowered = record.complete_loops < MIN_LOOPS
    if underpowered:
        # NaN critical values make both mean flags False
        up_rows, down_rows, crit_up, crit_down = [], [], math.nan, math.nan
    else:
        alpha = (1.0 - confidence) / 4.0
        up_rows = _band_rows(up, up_cross_survival_bound(up, levels), alpha, True)
        down_rows = _band_rows(down, down_cross_survival_bound(down, levels), alpha, False)
        crit_up = up_mean_critical(levels, len(up), alpha)
        crit_down = down_mean_critical(levels, len(down), alpha)
    mean_up = float(np.mean(up)) if len(up) else math.nan
    mean_down = float(np.mean(down)) if len(down) else math.nan
    return CrossTimeReport(
        underpowered=underpowered, up_rows=up_rows, down_rows=down_rows,
        t_uc=t_uc, t_dc=t_dc, mean_up=mean_up, mean_down=mean_down,
        crit_up=crit_up, crit_down=crit_down,
    )


def _saved_indices(paths: Trajectory, times: Sequence[float]) -> List[int]:
    """The index of each time on the ensemble's saved grid ``q * grid_dt``.
    Refuses a trajectory without one path axis, fewer than ``MIN_PATHS``
    paths, an empty ``times`` and a time off the grid."""
    _check_path_axes(paths, 1)
    if len(paths) < MIN_PATHS:
        raise ValueError(f"need >= {MIN_PATHS} paths, got {len(paths)}")
    if len(times) == 0:
        raise ValueError("times must list at least one check time")
    indices = []
    for t in map(float, times):
        idx = _whole_steps(t, paths.grid_dt)
        if not 0 <= idx < paths.lyap.shape[1]:
            raise ValueError(f"time {t!r} is not on the saved trajectory grid")
        indices.append(idx)
    return indices


def _moment_envelope(spec: SystemSpec, v0: float, t: float) -> float:
    """The bound ``e^{-ct}(V(x0) - floor) + floor`` on E[V(x(t))], ``v0 = V(x0)``."""
    g = spec.noise_floor
    return math.exp(-spec.c * t) * (v0 - g) + g


def verify_moment_bound(
    paths: Trajectory, spec: SystemSpec, times: Sequence[float]
) -> List[CheckRow]:
    """Check E[V(x(t))] <= e^{-ct}(V(x0) - floor) + floor at each sampled
    time: one row per time.

    The mean is taken over the ensemble's column ``paths.lyap[:, idx]`` at
    each time.  The empirical mean may exceed the bound by at most
    ``_MOMENT_SES`` standard errors before the point is flagged.
    """
    indices = _saved_indices(paths, times)
    v0 = float(paths.lyap[0, 0])
    rows = []
    for t, idx in zip(map(float, times), indices):
        vals = paths.lyap[:, idx]
        mean = float(np.mean(vals))
        margin = _MOMENT_SES * (float(np.std(vals, ddof=1)) / math.sqrt(len(vals)))
        bound = _moment_envelope(spec, v0, t)
        rows.append(CheckRow(t, mean, bound, mean - margin, mean + margin,
                             flag=mean - margin > bound))
    return rows


def verify_probability_bound(
    paths: Trajectory,
    spec: SystemSpec,
    radii: Sequence[float],
    times: Sequence[float],
    confidence: float = 0.99,
) -> List[List[CheckRow]]:
    """Check P{|x(t)| < r} >= 1 - (e^{-ct}(V(x0)-floor)+floor)/alpha1(r) at
    every time t and radius r: one list of rows per time, one row per radius.

    The frequency of {|x(t)| < r} in the ensemble's column ``paths.norms[:, idx]``
    is an empirical CDF of i.i.d. norms, so one one-sided DKW band holds at
    every radius of a time at once.  Each time takes ``alpha / len(times)``,
    ``alpha = 1 - confidence``, so the bands hold together at ``confidence``.
    A row flags where its frequency plus the half-width lies below the floor;
    a vacuous floor (<= 0) never flags.
    """
    _check_confidence(confidence)
    indices = _saved_indices(paths, times)
    radii = np.asarray(radii, dtype=float)
    if not np.all(radii > 0.0):
        raise ValueError(f"radii must be positive, got {radii.tolist()!r}")
    alpha1 = np.array([_positive_alpha1(spec.lyapunov.alpha1, r) for r in radii.tolist()])
    v0, n = float(paths.lyap[0, 0]), len(paths)
    alpha = (1.0 - confidence) / len(times)
    rows = []
    for t, idx in zip(map(float, times), indices):
        freq = _count_below(paths.norms[:, idx], radii) / n
        floor = 1.0 - _moment_envelope(spec, v0, t) / alpha1
        rows.append(_dkw_rows(radii, freq, floor, n, alpha, True))
    return rows
