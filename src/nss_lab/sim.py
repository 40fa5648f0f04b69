"""Seeded, deterministic Euler-Maruyama integration of SystemSpec trajectories.

Every path draws its Gaussian increments from a counter-based Philox stream
derived from ``(seed, path_index)``, so ensembles are reproducible regardless
of execution order or thread count.  Specs that declare ``affine`` are
integrated by a blocked affine scan, all others by the sequential step loop.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .model import SystemSpec

__all__ = [
    "RNG_ALGORITHM",
    "SimConfig",
    "block_length",
    "integrator_name",
    "Trajectory",
    "NonFiniteStateError",
    "path_generator",
    "integrate",
    "ensemble",
    "trajectory_to_csv",
    "write_csv",
    "max_threads",
]

# Recorded in output metadata; changing this changes every simulated number.
RNG_ALGORITHM = "numpy.Philox(SeedSequence(entropy=seed, spawn_key=(path_index,)))"

# The two kernels group the floating-point operations of a step differently,
# so their bits differ; the one used is recorded next to RNG_ALGORITHM.
_SEQUENTIAL = "euler-maruyama, sequential steps"
_AFFINE_SCAN = "euler-maruyama, blocked affine scan (block length isqrt(n_steps))"

# Bytes of noise that one chunk holds at a time: the affine scan, which reads
# its chunk's whole horizon twice, narrows its chunk to this; the sequential
# kernel draws its noise in time segments of this.
_NOISE_BYTES = 16 << 20
# The sequential kernel steps 1.3-1.7x slower on narrow chunks, so it keeps
# wide ones and streams its noise instead.
_SEQUENTIAL_CHUNK = 1000


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


def path_generator(seed: int, path_index: int = 0) -> Generator:
    """Independent substream for one path, derived from (seed, path_index)."""
    return Generator(Philox(SeedSequence(entropy=seed, spawn_key=(path_index,))))


def max_threads() -> int:
    """Worker cap from NSS_LAB_THREADS (defaults to the CPU count)."""
    raw = os.environ.get("NSS_LAB_THREADS", "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            raise ValueError(f"NSS_LAB_THREADS must be an integer, got {raw!r}") from None
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


def _initial_state(spec: SystemSpec, cfg: SimConfig) -> np.ndarray:
    x0 = np.asarray(cfg.x0, dtype=float)
    if x0.shape != (spec.dim_state,):
        raise ValueError(f"x0 shape {x0.shape} != ({spec.dim_state},)")
    return x0


def _sigma_columns(spec: SystemSpec, cfg: SimConfig) -> list:
    """``(j, k, Sigma(t_k)[j, k] for every step k)`` of each nonzero entry of Sigma,
    copied so that the zero entries are not kept: one ``sigma_series`` per
    integrate or ensemble call, sliced by every chunk and time segment."""
    m = spec.dim_noise
    sig = spec.sigma_series(cfg.t0 + np.arange(cfg.n_steps) * cfg.dt)
    return [(j, k, sig[:, j, k].copy()) for j in range(m) for k in range(m)
            if sig[:, j, k].any()]


def _generators(cfg: SimConfig, lo: int, hi: Optional[int]) -> List[Generator]:
    """The Philox generators of paths [lo, hi) (path lo alone if ``hi`` is None)."""
    return [path_generator(cfg.seed, i) for i in range(lo, lo + 1 if hi is None else hi)]


def _noise(sig_cols: list, gens: List[Generator], dt: float, k0: int, k1: int,
           shape: tuple) -> np.ndarray:
    """``s[j, k, i] = (Sigma(t_{k0+k}) dW_{k0+k})_j`` of steps [k0, k1) of the path
    drawn by ``gens[i]``, time-major, of ``shape`` = ``(m, length) + batch``, zero
    after step ``k1 - k0``: the next ``k1 - k0`` normal draws of each generator,
    nonzero Sigma entries summed left to right."""
    m = shape[0]
    s = np.zeros(shape)
    per_path = s.reshape(shape[:2] + (len(gens),))
    for i, gen in enumerate(gens):
        dw = gen.normal(size=(k1 - k0, m))
        dw *= math.sqrt(dt)
        for j, k, col in sig_cols:
            per_path[j, :k1 - k0, i] += col[k0:k1] * dw[:, k]
    return s


def _euler_maruyama(spec: SystemSpec, cfg: SimConfig, sig_cols: list, lo: int,
                    hi: Optional[int] = None) -> np.ndarray:
    """Saved states of paths [lo, hi) stepped in lock step, shape (hi-lo, K+1, N).

    With ``hi=None`` only path ``lo`` is stepped, on a state of shape (N,), and
    the result has shape (K+1, N).  Every batch shape evaluates the same
    expressions, so path i has the same bits alone as inside any chunk.  The
    noise is drawn in time segments of at most ``_NOISE_BYTES``; successive
    draws continue each path's stream, so the segment length moves no bit.
    """
    n_steps = cfg.n_steps
    dt = cfg.dt
    m = spec.dim_noise
    x0 = _initial_state(spec, cfg)
    batch = () if hi is None else (hi - lo,)
    gens = _generators(cfg, lo, hi)
    seg = max(1, _NOISE_BYTES // (8 * m * len(gens)))

    drift, diffusion = spec.drift, spec.diffusion
    if batch:  # one state is what every spec's drift and diffusion accept
        drift, diffusion = spec.batched(drift), spec.batched(diffusion)
    save = cfg.save_every
    x = np.tile(x0, batch + (1,))
    states = np.empty(batch + (n_steps // save + 1, spec.dim_state))
    states[..., 0, :] = x
    for k0 in range(0, n_steps, seg):
        k1 = min(k0 + seg, n_steps)
        # (k1 - k0,) + batch + (m,)
        sdw = np.moveaxis(_noise(sig_cols, gens, dt, k0, k1, (m, k1 - k0) + batch), 0, -1)
        for k in range(k0, k1):
            # np.multiply, unlike `*`, also accepts a drift that returns a list
            x = x + np.multiply(drift(x), dt) + np.einsum(
                "...nm,...m->...n", diffusion(x), sdw[k - k0]
            )
            if (k + 1) % save == 0:
                states[..., (k + 1) // save, :] = x
        del sdw  # so that the next segment's noise replaces it, not joins it
    return states


def block_length(n_steps: int) -> int:
    """Steps per block of the affine scan: a function of the step count alone,
    so that neither the batch, the chunk nor the thread count moves a bit."""
    return max(1, math.isqrt(n_steps))


def _padded_length(n_steps: int) -> int:
    """Steps the affine scan holds noise for: whole blocks, the last one partial."""
    span = block_length(n_steps)
    return (n_steps // span + 1) * span


def _affine_apply(mat, vec, off=None):
    """``mat @ vec + off`` on nested lists of arrays, summed left to right."""
    out = []
    for r, row in enumerate(mat):
        acc = row[0] * vec[0]
        for coef, v in zip(row[1:], vec[1:]):
            acc = acc + coef * v
        out.append(acc if off is None else acc + off[r])
    return out


def _affine_scan(spec: SystemSpec, cfg: SimConfig, sig_cols: list, lo: int,
                 hi: Optional[int] = None) -> np.ndarray:
    """The contract of :func:`_euler_maruyama`, for a spec that declares ``affine``.

    With ``s_k = Sigma(t_k) dW_k``, step k is the affine map ``x -> M_k x + b_k``
    with ``M_k = I + A dt + [H[i] s_k]_i`` (column i) and ``b_k = H0 s_k``.  The
    steps are cut into blocks of :func:`block_length` steps.  The map of every
    full block is composed, all blocks at once; the block start states are
    carried from block to block; then the states inside every block are
    refilled from its start, again all blocks at once.  The last block holds
    the ``n_steps % block_length`` remaining steps and is never composed.
    Only elementwise adds and multiplies in a fixed order are used, so path i
    has the same bits alone as inside any chunk.
    """
    n_steps, dt = cfg.n_steps, cfg.dt
    n, m = spec.dim_state, spec.dim_noise
    x0 = _initial_state(spec, cfg)
    batch = () if hi is None else (hi - lo,)
    span = block_length(n_steps)
    n_full, rem = divmod(n_steps, span)
    n_blocks = n_full + 1

    # the noise, zero-padded to whole blocks
    s = _noise(sig_cols, _generators(cfg, lo, hi), dt, 0, n_steps,
               (m, n_blocks * span) + batch).reshape((m, n_blocks, span) + batch)

    a, h0, h = spec.affine
    const = (np.eye(n) + a * dt).tolist()
    m_terms = [[[(j, float(h[i, r, j])) for j in range(m) if h[i, r, j] != 0.0]
                for i in range(n)] for r in range(n)]
    b_terms = [[(j, float(h0[r, j])) for j in range(m) if h0[r, j] != 0.0]
               for r in range(n)]

    def entry(value, terms, blocks, jj):
        for j, coef in terms:
            value = value + coef * s[j, blocks, jj]
        return value

    def step_map(blocks, jj):
        mat = [[entry(const[r][i], m_terms[r][i], blocks, jj) for i in range(n)]
               for r in range(n)]
        return mat, [entry(0.0, b_terms[r], blocks, jj) for r in range(n)]

    # compose each full block's map: columns of P and the offset c
    full = slice(None, n_full)
    mat, c = step_map(full, 0)
    p_cols = [[mat[r][i] for r in range(n)] for i in range(n)]
    for jj in range(1, span):
        mat, off = step_map(full, jj)
        p_cols = [_affine_apply(mat, col) for col in p_cols]
        c = _affine_apply(mat, c, off)
    p_blk = np.empty((n_full, n, n) + batch)
    c_blk = np.empty((n_full, n) + batch)
    for r in range(n):
        c_blk[:, r] = c[r]
        for i in range(n):
            p_blk[:, r, i] = p_cols[i][r]

    # carry the block start states
    starts = np.empty((n_blocks, n) + batch)
    starts[0] = x0.reshape((n,) + (1,) * len(batch))
    for blk in range(n_full):
        starts[blk + 1] = _affine_apply(p_blk[blk], starts[blk], c_blk[blk])

    # refill the states inside every block and keep every save-th one
    save = cfg.save_every
    states = np.empty((n_steps // save + 1, n) + batch)
    first = np.arange(n_blocks) * span
    x = [starts[:, r] for r in range(n)]
    live = slice(None)
    for jj in range(span):
        pos = first[live] + jj
        keep = pos % save == 0
        for r in range(n):
            states[pos[keep] // save, r] = x[r][keep]
        if jj == span - 1:
            break  # state `span` of a block is the start of the next one
        if jj == rem:  # the last block has only `rem` steps
            live = full
            x = [xr[full] for xr in x]
        mat, off = step_map(live, jj)
        x = _affine_apply(mat, x, off)
    return np.moveaxis(states, -1, 0) if batch else states


def _trajectories(spec: SystemSpec, cfg: SimConfig, states: np.ndarray,
                  lo: int = 0) -> List[Trajectory]:
    """Trajectories of paths lo, lo+1, ... from saved states of shape (P, K+1, N);
    a non-finite state raises :class:`NonFiniteStateError` naming the lowest
    failing path and that path's first non-finite saved step."""
    times = cfg.saved_times()
    bad = ~np.isfinite(states).all(axis=2)
    if bad.any():
        path, idx = divmod(int(np.argmax(bad)), bad.shape[1])
        raise NonFiniteStateError(idx * cfg.save_every, float(times[idx]), lo + path)
    flat = states.reshape(-1, states.shape[2])
    lyap = np.asarray(spec.batched(spec.lyapunov.v)(flat), dtype=float).reshape(bad.shape)
    norms = np.linalg.norm(states, axis=2)
    return [Trajectory(times=times, states=x, lyap=v, norms=r)
            for x, v, r in zip(states, lyap, norms)]


def _kernel(spec: SystemSpec):
    return _euler_maruyama if spec.affine is None else _affine_scan


def integrator_name(spec: SystemSpec) -> str:
    """The kernel that steps ``spec``, as recorded in output metadata."""
    return _SEQUENTIAL if spec.affine is None else _AFFINE_SCAN


def integrate(spec: SystemSpec, cfg: SimConfig, path_index: int = 0) -> Trajectory:
    """Euler-Maruyama path: x_{k+1} = x_k + f dt + h(x_k) Sigma(t_k) dW_k.

    Specs that declare ``affine`` run the blocked affine scan, others the
    sequential step loop, on this path alone.  Bit-reproducible for fixed
    (spec, cfg, path_index) on one platform, and bit-identical to path
    ``path_index`` of :func:`ensemble`.
    """
    states = _kernel(spec)(spec, cfg, _sigma_columns(spec, cfg), path_index)
    return _trajectories(spec, cfg, states[None], path_index)[0]


def ensemble(spec: SystemSpec, cfg: SimConfig, n_paths: int,
             chunk_size: Optional[int] = None) -> List[Trajectory]:
    """Independent paths i = 0..n_paths-1, each on substream (cfg.seed, i).

    Path i is bit-identical to ``integrate(spec, cfg, i)`` regardless of
    chunking or thread schedule.  Every spec is stepped in lock-stepped chunks
    across a thread pool capped by NSS_LAB_THREADS.  By default a chunk holds
    at most ``_NOISE_BYTES`` (16 MiB) of noise, or one path's if that is more:
    the affine scan takes as many paths as fit, the sequential kernel 1000
    paths whose noise it draws in time segments.  So besides the saved states
    memory holds at most that much noise per worker.  An explicit
    ``chunk_size`` sets the paths per chunk instead.  A non-finite state names
    the lowest failing path once every chunk has run.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths!r}")
    if chunk_size is None:
        chunk_size = (_SEQUENTIAL_CHUNK if spec.affine is None else max(
            1, _NOISE_BYTES // (8 * spec.dim_noise * _padded_length(cfg.n_steps))))
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size!r}")
    kernel = _kernel(spec)
    sig_cols = _sigma_columns(spec, cfg)
    states = np.empty((n_paths, cfg.n_steps // cfg.save_every + 1, spec.dim_state))

    def run(lo):
        states[lo:lo + chunk_size] = kernel(spec, cfg, sig_cols, lo,
                                            min(lo + chunk_size, n_paths))

    starts = range(0, n_paths, chunk_size)
    with ThreadPoolExecutor(max_workers=min(max_threads(), len(starts))) as pool:
        list(pool.map(run, starts))
    return _trajectories(spec, cfg, states)


def write_csv(path, header: Sequence[str], *cols) -> None:
    """Write ``cols`` side by side under ``header``, every cell as ``%.17g``.

    The columns share their first axis, one CSV row per entry; a 2-D column
    fills one CSV column per entry of its second axis, and booleans print as
    0/1.  This is the one routine that turns results into CSV bytes.
    """
    row = ",".join(["%.17g"] * len(header)) + "\n"  # prints as f"{c:.17g}" does
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(cols[0]), 4096):  # one block of rows in memory at a time
            block = np.column_stack([c[lo:lo + 4096] for c in cols])
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Dump a trajectory as CSV: t,x1..xN,V,norm at full double precision."""
    header = ["t", *(f"x{i + 1}" for i in range(traj.states.shape[1])), "V", "norm"]
    write_csv(path, header, traj.times, traj.states, traj.lyap, traj.norms)
