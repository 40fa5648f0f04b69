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
from typing import List, Optional, Sequence, Tuple

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .model import SystemSpec

__all__ = [
    "RNG_ALGORITHM",
    "SimConfig",
    "block_length",
    "integrator_name",
    "Trajectory",
    "Ensemble",
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

# Bytes of noise, with the draws and scratch it is made from, that one chunk
# holds at a time: the affine scan, which reads its chunk's whole horizon
# twice, narrows its chunk to this; the sequential kernel draws its noise in
# time segments of this.
_NOISE_BYTES = 16 << 20
# Paths whose rows of noise are summed in one buffer before they are copied
# into the time-major noise, a group's span of each step at a time.
_GROUP = 32
# The sequential kernel steps 1.3-1.7x slower on narrow chunks, so it keeps
# wide ones and streams its noise instead.
_SEQUENTIAL_CHUNK = 1000
# Rows (time steps, or saved states) per block of every pass that reads a
# whole horizon beside the stored series: Sigma, the normal draws, V and the
# norms here, the crossings and the time averages in `loops`.  So a long
# path holds its three series (states, V, norms) and blocks of this.
_BLOCK_ROWS = 1 << 14


class NonFiniteStateError(RuntimeError):
    """A simulated path left the representable range (blow-up or spec bug)."""

    def __init__(self, step: int, t: float, path_index: int = 0):
        super().__init__(
            f"non-finite state, V or norm first recorded at step {step} (t={t:g}, "
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

    @property
    def grid_dt(self) -> float:
        """Time between saved states: saved index q is at ``q * grid_dt``."""
        return self.dt * self.save_every


@dataclass(frozen=True)
class Trajectory:
    """Path saved at times ``q * grid_dt``, with its Lyapunov-value series."""

    grid_dt: float
    states: np.ndarray
    lyap: np.ndarray
    norms: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.states) == len(self.lyap) == len(self.norms)):
            raise ValueError("trajectory series must share one length")

    @property
    def times(self) -> np.ndarray:
        """The saved times, built when read."""
        return np.arange(len(self.lyap)) * self.grid_dt

    @property
    def horizon(self) -> float:
        return (len(self.lyap) - 1) * self.grid_dt


def _initial_state(spec: SystemSpec, cfg: SimConfig) -> np.ndarray:
    x0 = np.asarray(cfg.x0, dtype=float)
    if x0.shape != (spec.dim_state,):
        raise ValueError(f"x0 shape {x0.shape} != ({spec.dim_state},)")
    return x0


def _sigma_rows(spec: SystemSpec, cfg: SimConfig) -> list:
    """``(j, [(k, Sigma(t_k)[j, k] for every step k), ...])`` of each row of Sigma
    with a nonzero entry, listing that row's nonzero entries: evaluated once
    per integrate or ensemble call and sliced by every chunk and time segment.

    ``sigma_series`` runs on time segments of ``_BLOCK_ROWS`` steps, each
    written straight into the entries nonzero so far, so the zero entries are
    never held whole.  An entry is allocated, zero-filled, at its first
    segment with a nonzero value; a zero that was -0.0 before it adds into
    the noise as +0.0 does, since :func:`_noise` sums from 0.0."""
    m, n_steps = spec.dim_noise, cfg.n_steps
    entries = {}
    for k0 in range(0, n_steps, _BLOCK_ROWS):
        k1 = min(k0 + _BLOCK_ROWS, n_steps)
        sig = spec.sigma_series(np.arange(k0, k1) * cfg.dt)
        for j in range(m):
            for k in range(m):
                if (j, k) not in entries and sig[:, j, k].any():
                    entries[j, k] = np.zeros(n_steps)
                if (j, k) in entries:
                    entries[j, k][k0:k1] = sig[:, j, k]
    rows = {}
    for (j, k), col in sorted(entries.items()):
        rows.setdefault(j, []).append((k, col))
    return list(rows.items())


def _generators(cfg: SimConfig, lo: int, hi: Optional[int]) -> List[Generator]:
    """The Philox generators of paths [lo, hi) (path lo alone if ``hi`` is None)."""
    return [path_generator(cfg.seed, i) for i in range(lo, lo + 1 if hi is None else hi)]


def _scratch_bytes(m: int, steps: int, paths: int) -> int:
    """Bytes that :func:`_noise` holds besides its output when it draws ``steps``
    steps of ``paths`` paths: one block of one path's draws and one term, and
    for more than one path the row sums of a group of at most ``_GROUP`` paths."""
    group = min(_GROUP, paths) if paths > 1 else 0
    return 8 * (group * m * steps + min(steps, _BLOCK_ROWS) * (m + 1))


def _noise(sig_rows: list, gens: List[Generator], dt: float, k0: int, k1: int,
           shape: tuple) -> np.ndarray:
    """``s[j, k, i] = (Sigma(t_{k0+k}) dW_{k0+k})_j`` of steps [k0, k1) of the path
    drawn by ``gens[i]``, time-major, of ``shape`` = ``(m, length) + batch``, zero
    after step ``k1 - k0``: the next ``k1 - k0`` normal draws of each generator,
    nonzero Sigma entries summed left to right from 0.0.

    Each path's rows of ``s`` are summed right after its draws, path-major, in
    one buffer for a group of ``_GROUP`` paths, which is then copied into ``s``
    transposed: ``s`` is written once, a group's span of each step at a time.
    A lone path's rows of ``s`` are contiguous and take its sums directly.
    Each path draws in blocks of ``_BLOCK_ROWS`` steps; successive draws
    continue its stream, so the block length moves no bit.  One block of
    draws, the buffer and one term are the :func:`_scratch_bytes` that the
    noise budget counts besides ``s``."""
    m, length = shape[0], k1 - k0
    s = np.zeros(shape)
    per_path = s.reshape(shape[:2] + (len(gens),))
    group = min(_GROUP, len(gens))
    sums = (per_path[:, :length].transpose(0, 2, 1) if len(gens) == 1
            else np.empty((m, group, length)))  # (row, path, step)
    term = np.empty(min(length, _BLOCK_ROWS))
    root = math.sqrt(dt)
    for g0 in range(0, len(gens), group):
        g1 = min(g0 + group, len(gens))
        for i, gen in enumerate(gens[g0:g1]):
            for d0 in range(0, length, _BLOCK_ROWS):
                d1 = min(d0 + _BLOCK_ROWS, length)
                # 0.0 + sqrt(dt) z differs from z sqrt(dt) at most in the sign
                # of a zero, which the sum from 0.0 drops
                dw = gen.normal(0.0, root, size=(d1 - d0, m))
                for j, cols in sig_rows:
                    acc = np.multiply(dw[:, cols[0][0]], cols[0][1][k0 + d0:k0 + d1],
                                      out=sums[j, i, d0:d1])
                    for k, col in cols[1:]:
                        acc += np.multiply(dw[:, k], col[k0 + d0:k0 + d1],
                                           out=term[:d1 - d0])
                del dw  # so that the next block's draws replace these, not join them
        for j, _ in sig_rows:
            part = sums[j, :g1 - g0]
            part += 0.0  # as if summed from 0.0: -0.0 becomes +0.0, nothing else moves
            if len(gens) > 1:
                per_path[j, :length, g0:g1] = part.T
    return s


def _euler_maruyama(spec: SystemSpec, cfg: SimConfig, sig_rows: Optional[list],
                    lo: int, hi: Optional[int] = None) -> np.ndarray:
    """Saved states of paths [lo, hi) stepped in lock step, shape (hi-lo, K+1, N).

    With ``hi=None`` only path ``lo`` is stepped, on a state of shape (N,), and
    the result has shape (K+1, N).  Every batch shape evaluates the same
    expressions, so path i has the same bits alone as inside any chunk.  The
    noise is drawn in time segments that hold at most ``_NOISE_BYTES`` with
    their draws and scratch; successive draws continue each path's stream, so
    the segment length moves no bit.  ``sig_rows`` is :func:`_sigma_rows` of
    ``(spec, cfg)``, or None for the kernel to evaluate it and hold the only
    reference, so that it is freed before V and the norms are computed.
    """
    if sig_rows is None:
        sig_rows = _sigma_rows(spec, cfg)
    n_steps, dt, m = cfg.n_steps, cfg.dt, spec.dim_noise
    x0 = _initial_state(spec, cfg)
    batch = () if hi is None else (hi - lo,)
    gens = _generators(cfg, lo, hi)
    seg = max(1, _NOISE_BYTES // (8 * m * len(gens) + _scratch_bytes(m, 1, len(gens))))

    drift, diffusion = spec.dynamics
    if batch:  # one state is what every spec's drift and diffusion accept
        drift, diffusion = spec.batched(drift), spec.batched(diffusion)
    save = cfg.save_every
    x = np.tile(x0, batch + (1,))
    states = np.empty(batch + (n_steps // save + 1, spec.dim_state))
    states[..., 0, :] = x
    for k0 in range(0, n_steps, seg):
        k1 = min(k0 + seg, n_steps)
        # (k1 - k0,) + batch + (m,)
        sdw = np.moveaxis(_noise(sig_rows, gens, dt, k0, k1, (m, k1 - k0) + batch), 0, -1)
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
    """``mat @ vec + off`` on nested lists of arrays, summed left to right, in
    place, into one new array per row.  Each product broadcasts, so an entry
    of ``vec`` may stack several columns along a leading axis."""
    out = []
    for r, row in enumerate(mat):
        acc = row[0] * vec[0]
        for coef, v in zip(row[1:], vec[1:]):
            acc += coef * v
        if off is not None:
            acc += off[r]
        out.append(acc)
    return out


def _refill_plan(n_steps: int, span: int, save: int) -> list:
    """``plan[jj]``, for each block offset jj up to the furthest one that holds
    a saved step: None, or the refill's rows that hold a saved state at
    offset jj and the saved indices they fill, as two slices.

    Saved index q is step q*save, at offset q*save % span of block
    q*save // span.  With g = gcd(save, span), the q at offset jj are none
    unless g divides jj, else every (span/g)-th from the least.  If
    ``save <= span`` every block holds a saved step and the rows are the
    blocks, every (save/g)-th; otherwise a block holds at most one and the
    rows are the saved indices."""
    g = math.gcd(save, span)
    period, last = span // g, n_steps // save
    inv = pow(save // g, -1, period)  # save/g and span/g are coprime
    plan = [None] * span
    for jj in range(0, span, g):
        q0 = jj // g * inv % period
        if q0 > last:
            continue
        saved = slice(q0, last + 1, period)
        if save > span:
            plan[jj] = saved, saved
        else:
            r0, r_step = q0 * save // span, save // g
            plan[jj] = slice(r0, r0 + (last - q0) // period * r_step + 1, r_step), saved
    while plan[-1] is None:  # offset 0 always holds saved index 0
        plan.pop()
    return plan


def _affine_scan(spec: SystemSpec, cfg: SimConfig, sig_rows: Optional[list], lo: int,
                 hi: Optional[int] = None) -> np.ndarray:
    """The contract of :func:`_euler_maruyama`, for a spec that declares ``affine``.

    With ``s_k = Sigma(t_k) dW_k``, step k is the affine map ``x -> M_k x + b_k``
    with ``M_k = I + A dt + [H[i] s_k]_i`` (column i) and ``b_k = H0 s_k``.  The
    steps are cut into blocks of :func:`block_length` steps.  The map of every
    full block is composed, all blocks at once; the block start states are
    carried from block to block; then the states inside the blocks that hold
    a saved step are refilled from their starts, all such blocks at once and
    only up to the furthest saved offset: one row per block if every block
    holds a saved step, else one row per saved step, whose saved states at
    each offset are one slice of the rows (:func:`_refill_plan`).  The last
    block holds the ``n_steps % block_length`` remaining steps and is never
    composed.  The chunk's noise, with its draws and scratch, fits
    ``_NOISE_BYTES`` when :func:`ensemble` picks the chunk.  With ``sig_rows``
    None the Sigma rows are evaluated for the noise alone and freed once it is
    drawn, so the scan holds only the noise and the states.
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
    s = _noise(_sigma_rows(spec, cfg) if sig_rows is None else sig_rows,
               _generators(cfg, lo, hi), dt, 0, n_steps,
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

    # compose each full block's map: y[r] is row r of [P c], one array over
    # the n + 1 columns, so that one multiply steps a whole row
    full = slice(None, n_full)
    mat, off = step_map(full, 0)
    y = [np.empty((n + 1, n_full) + batch) for _ in range(n)]
    for r, row in enumerate(y):
        for i, value in enumerate(mat[r] + [off[r]]):
            row[i] = value
    for jj in range(1, span):
        mat, off = step_map(full, jj)
        y = _affine_apply(mat, y)
        for r in range(n):
            y[r][n] += off[r]
    pc = np.moveaxis(np.stack(y), 2, 0)  # (block, row, column) + batch
    p_blk, c_blk = pc[:, :, :n], pc[:, :, n]

    # carry the block start states
    starts = np.empty((n_blocks, n) + batch)
    starts[0] = x0.reshape((n,) + (1,) * len(batch))
    for blk in range(n_full):
        starts[blk + 1] = _affine_apply(p_blk[blk], starts[blk], c_blk[blk])

    # refill from the block starts, one row per block or per saved step; the
    # last row is the last block's
    save = cfg.save_every
    plan = _refill_plan(n_steps, span, save)
    blocks = (np.arange(n_blocks) if save <= span
              else np.arange(n_steps // save + 1) * save // span)
    x = [starts[blocks, r] for r in range(n)]
    states = np.empty((n_steps // save + 1, n) + batch)
    for jj, fill in enumerate(plan):
        if fill is not None:
            rows, saved = fill
            for r in range(n):
                states[saved, r] = x[r][rows]
        if jj == len(plan) - 1:
            break
        if jj == rem:  # the last block has only `rem` steps
            blocks = blocks[:-1]
            x = [xr[:-1] for xr in x]
        # blocks 0, 1, ... as a slice: views of the noise, not copies
        live = slice(len(blocks)) if blocks[-1] < len(blocks) else blocks
        mat, off = step_map(live, jj)
        x = _affine_apply(mat, x, off)
    return np.moveaxis(states, -1, 0) if batch else states


@dataclass(frozen=True)
class Ensemble:
    """Paths 0..P-1 saved at times ``q * grid_dt``, as arrays: ``states`` of
    shape (P, K+1, N), ``lyap`` and ``norms`` of shape (P, K+1).  ``ens[i]``
    is path i as a :class:`Trajectory` of views into these arrays."""

    grid_dt: float
    states: np.ndarray
    lyap: np.ndarray
    norms: np.ndarray

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, i: int) -> Trajectory:
        return Trajectory(grid_dt=self.grid_dt, states=self.states[i],
                          lyap=self.lyap[i], norms=self.norms[i])


def _finalize(spec: SystemSpec, cfg: SimConfig, states: np.ndarray,
              lo: int) -> Tuple[np.ndarray, np.ndarray]:
    """V and the norm of saved states of shape (K+1, N) (path ``lo``) or
    (P, K+1, N) (paths lo, lo+1, ...).  A non-finite state, V or norm raises
    :class:`NonFiniteStateError` naming the lowest failing path and that
    path's first failing saved step.

    The states are read as rows, path by path, in blocks of ``_BLOCK_ROWS``:
    each block's V and norms are written into the outputs, then checked.  A
    non-finite state makes its norm non-finite, and a finite state above
    about 1e154 overflows its square.  So the first non-finite row is the
    lowest failing path's first failing step.  For N <= 7 the norm is the
    square root of the squares added column by column, left to right: the
    bits of ``np.linalg.norm(states, axis=-1)``, whose sum along the last
    axis adds in that order up to 7 terms and regroups from 8 on, where
    ``np.linalg.norm`` itself is called."""
    n = states.shape[-1]
    flat = states.reshape(-1, n)  # a view of every kernel's states
    lyap, norms = np.empty(len(flat)), np.empty(len(flat))
    v = spec.batched(spec.lyapunov.v)
    for r0 in range(0, len(flat), _BLOCK_ROWS):
        r1 = min(r0 + _BLOCK_ROWS, len(flat))
        block = flat[r0:r1]
        lyap[r0:r1] = np.asarray(v(block), dtype=float).reshape(-1)
        if n >= 8:
            norms[r0:r1] = np.linalg.norm(block, axis=-1)
        else:
            acc = np.multiply(block[:, 0], block[:, 0], out=norms[r0:r1])
            for col in block.T[1:]:
                acc += col * col
            np.sqrt(acc, out=acc)
        bad = ~(np.isfinite(lyap[r0:r1]) & np.isfinite(norms[r0:r1]))
        if bad.any():
            path, idx = divmod(r0 + int(np.argmax(bad)), states.shape[-2])
            raise NonFiniteStateError(idx * cfg.save_every, idx * cfg.grid_dt, lo + path)
    return lyap.reshape(states.shape[:-1]), norms.reshape(states.shape[:-1])


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
    with np.errstate(over="ignore", invalid="ignore"):  # _finalize reports a blow-up
        states = _kernel(spec)(spec, cfg, None, path_index)
        lyap, norms = _finalize(spec, cfg, states, path_index)
    return Trajectory(grid_dt=cfg.grid_dt, states=states, lyap=lyap, norms=norms)


def ensemble(spec: SystemSpec, cfg: SimConfig, n_paths: int) -> Ensemble:
    """Independent paths i = 0..n_paths-1, each on substream (cfg.seed, i).

    Path i, its V and its norms are bit-identical to ``integrate(spec, cfg, i)``
    regardless of chunking or thread schedule.  Every spec is stepped in
    lock-stepped chunks across a thread pool capped by NSS_LAB_THREADS.  A
    chunk holds at most ``_NOISE_BYTES`` (16 MiB) of noise together with the
    draws and row sums it is made from, or one path's if that is more: the
    affine scan takes as many paths as fit beside one path group's scratch,
    the sequential kernel 1000 paths whose noise it draws in time segments.
    The affine scan refills only the blocks that hold a saved step.  Each
    worker fills its chunk's rows of the states, V and norms, so besides
    those arrays memory holds one chunk's noise and temporaries per worker.
    A non-finite state names the lowest failing path.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths!r}")
    m, n_steps = spec.dim_noise, cfg.n_steps
    chunk = (_SEQUENTIAL_CHUNK if spec.affine is None else max(
        1, (_NOISE_BYTES - _scratch_bytes(m, n_steps, _GROUP))
        // (8 * m * _padded_length(n_steps))))
    kernel = _kernel(spec)
    sig_rows = _sigma_rows(spec, cfg)
    n_saved = n_steps // cfg.save_every + 1
    ens = Ensemble(grid_dt=cfg.grid_dt, states=np.empty((n_paths, n_saved, spec.dim_state)),
                   lyap=np.empty((n_paths, n_saved)), norms=np.empty((n_paths, n_saved)))

    def run(lo):
        hi = min(lo + chunk, n_paths)
        with np.errstate(over="ignore", invalid="ignore"):  # errstate is per thread
            ens.states[lo:hi] = kernel(spec, cfg, sig_rows, lo, hi)
            ens.lyap[lo:hi], ens.norms[lo:hi] = _finalize(spec, cfg, ens.states[lo:hi], lo)

    starts = range(0, n_paths, chunk)
    # map yields in chunk order, so the first error raised is the lowest path's
    with ThreadPoolExecutor(max_workers=min(max_threads(), len(starts))) as pool:
        list(pool.map(run, starts))
    return ens


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
