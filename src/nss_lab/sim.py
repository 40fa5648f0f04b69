"""Seeded, deterministic Euler-Maruyama integration of SystemSpec trajectories.

Every path draws its Gaussian increments from a counter-based Philox stream
derived from ``(seed, path_index)``, so ensembles are reproducible regardless
of execution order or thread count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .model import SystemSpec

__all__ = [
    "RNG_ALGORITHM",
    "SimConfig",
    "Trajectory",
    "NonFiniteStateError",
    "path_generator",
    "integrate",
    "ensemble",
    "trajectory_to_csv",
    "max_threads",
]

# Recorded in output metadata; changing this changes every simulated number.
RNG_ALGORITHM = "numpy.Philox(SeedSequence(entropy=seed, spawn_key=(path_index,)))"


class NonFiniteStateError(RuntimeError):
    """A simulated path left the representable range (blow-up or spec bug)."""

    def __init__(self, step: int, t: float, path_index: int = 0):
        super().__init__(
            f"non-finite state first recorded at step {step} (t={t:g}, "
            f"path {path_index}); aborting instead of clamping"
        )
        self.step = step
        self.t = t
        self.path_index = path_index


def path_generator(seed: int, path_index: int = 0) -> np.random.Generator:
    """Independent substream for one path, derived from (seed, path_index)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(path_index,))
    return np.random.Generator(np.random.Philox(ss))


def max_threads() -> int:
    """Worker cap from NSS_LAB_THREADS (defaults to the CPU count)."""
    raw = os.environ.get("NSS_LAB_THREADS", "").strip()
    if raw:
        return max(1, int(raw))
    return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class SimConfig:
    """One integration run: horizon, step, seed and initial state.

    The horizon ``t_end`` must be a whole number of steps ``dt``.
    ``save_every`` thins storage to every k-th grid point (the time grid
    stays uniform); it must divide the step count exactly.
    """

    t_end: float
    dt: float
    seed: int
    x0: Sequence[float]
    t0: float = 0.0
    save_every: int = 1

    def __post_init__(self) -> None:
        if not (0.0 < self.dt <= self.t_end):
            raise ValueError(f"need 0 < dt <= t_end, got dt={self.dt!r}, t_end={self.t_end!r}")
        if self.save_every < 1:
            raise ValueError(f"save_every must be >= 1, got {self.save_every!r}")
        if abs(self.t_end / self.dt - self.n_steps) > 1e-9:
            raise ValueError(
                f"t_end={self.t_end!r} is not a whole number of steps dt={self.dt!r}"
            )
        if self.n_steps % self.save_every != 0:
            raise ValueError(
                f"save_every={self.save_every} does not divide {self.n_steps} steps"
            )

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)

    def saved_times(self) -> np.ndarray:
        """The uniform time grid of the saved states."""
        save = self.save_every
        return self.t0 + np.arange(self.n_steps // save + 1) * (self.dt * save)


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled path with the derived Lyapunov-value series."""

    times: np.ndarray
    states: np.ndarray
    lyap: np.ndarray
    norms: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.times)
        if not (len(self.states) == len(self.lyap) == len(self.norms) == n):
            raise ValueError("trajectory series must share one length")

    @property
    def grid_dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def horizon(self) -> float:
        return float(self.times[-1] - self.times[0])


def _sigma_series(spec: SystemSpec, times: np.ndarray) -> np.ndarray:
    """Covariance matrices at all step times, shape (K, m, m)."""
    m = spec.dim_noise
    if spec.vectorized:
        sig = np.asarray(spec.covariance(times), dtype=float)
        if sig.shape == (len(times), m, m):
            return sig
    out = np.empty((len(times), m, m))
    for k, t in enumerate(times):
        out[k] = np.asarray(spec.covariance(float(t)), dtype=float)
    return out


def _euler_maruyama(spec: SystemSpec, cfg: SimConfig, lo: int,
                    hi: Optional[int] = None) -> np.ndarray:
    """Saved states of paths [lo, hi) stepped in lock step, shape (hi-lo, K+1, N).

    With ``hi=None`` only path ``lo`` is stepped, on a state of shape (N,), and
    the result has shape (K+1, N).  Every batch shape evaluates the same
    expressions, so path i has the same bits alone as inside any chunk.
    """
    n_steps = cfg.n_steps
    dt = cfg.dt
    m = spec.dim_noise
    x0 = np.asarray(cfg.x0, dtype=float)
    if x0.shape != (spec.dim_state,):
        raise ValueError(f"x0 shape {x0.shape} != ({spec.dim_state},)")
    batch = () if hi is None else (hi - lo,)

    dw = np.empty(batch + (n_steps, m))
    for i, noise in enumerate(dw.reshape(-1, n_steps, m)):
        noise[...] = path_generator(cfg.seed, lo + i).normal(size=(n_steps, m))
    dw *= math.sqrt(dt)
    step_times = cfg.t0 + np.arange(n_steps) * dt
    sdw = np.einsum("kij,...kj->...ki", _sigma_series(spec, step_times), dw)

    drift = spec.drift
    diffusion = spec.diffusion
    save = cfg.save_every
    x = np.tile(x0, batch + (1,))
    states = np.empty(batch + (n_steps // save + 1, spec.dim_state))
    states[..., 0, :] = x
    for k in range(n_steps):
        # np.multiply, unlike `*`, also accepts a drift that returns a list
        x = x + np.multiply(drift(x), dt) + np.einsum(
            "...nm,...m->...n", diffusion(x), sdw[..., k, :]
        )
        if (k + 1) % save == 0:
            states[..., (k + 1) // save, :] = x
    return states


def _finalize(spec: SystemSpec, cfg: SimConfig, times: np.ndarray,
              states: np.ndarray, path_index: int) -> Trajectory:
    bad = ~np.isfinite(states).all(axis=1)
    if bad.any():
        idx = int(np.argmax(bad))
        raise NonFiniteStateError(idx * cfg.save_every, float(times[idx]), path_index)
    if spec.vectorized:
        lyap = np.asarray(spec.lyapunov.v(states), dtype=float)
    else:
        lyap = np.array([float(spec.lyapunov.v(x)) for x in states])
    norms = np.linalg.norm(states, axis=1)
    return Trajectory(times=times, states=states, lyap=lyap, norms=norms)


def integrate(spec: SystemSpec, cfg: SimConfig, path_index: int = 0) -> Trajectory:
    """Euler-Maruyama path: x_{k+1} = x_k + f dt + h(x_k) Sigma(t_k) dW_k.

    Bit-reproducible for fixed (spec, cfg, path_index) on one platform, and
    bit-identical to path ``path_index`` of :func:`ensemble`.
    """
    states = _euler_maruyama(spec, cfg, path_index)
    return _finalize(spec, cfg, cfg.saved_times(), states, path_index)


def ensemble(spec: SystemSpec, cfg: SimConfig, n_paths: int,
             chunk_size: int = 1000) -> List[Trajectory]:
    """Independent paths i = 0..n_paths-1, each on substream (cfg.seed, i).

    Path i is bit-identical to ``integrate(spec, cfg, i)`` regardless of
    chunking or thread schedule.  Vectorized specs are stepped in lock-stepped
    chunks across a thread pool capped by NSS_LAB_THREADS; others run one path
    after another.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths!r}")
    if not spec.vectorized:
        return [integrate(spec, cfg, path_index=i) for i in range(n_paths)]

    bounds = [(lo, min(lo + chunk_size, n_paths)) for lo in range(0, n_paths, chunk_size)]
    with ThreadPoolExecutor(max_workers=min(max_threads(), len(bounds))) as pool:
        chunks = list(pool.map(lambda b: _euler_maruyama(spec, cfg, *b), bounds))

    times = cfg.saved_times()
    return [
        _finalize(spec, cfg, times, states, lo + i)
        for (lo, _), chunk in zip(bounds, chunks)
        for i, states in enumerate(chunk)
    ]


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Dump a trajectory as CSV: t,x1..xN,V,norm at full double precision."""
    n = traj.states.shape[1]
    header = "t," + ",".join(f"x{i + 1}" for i in range(n)) + ",V,norm"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + "\n")
        for k in range(len(traj.times)):
            cols = [traj.times[k], *traj.states[k], traj.lyap[k], traj.norms[k]]
            fh.write(",".join(f"{c:.17g}" for c in cols) + "\n")
