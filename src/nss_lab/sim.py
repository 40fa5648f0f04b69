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

from .model import SystemSpec, _sum_of_squares

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
# whole horizon beside the stored series: Sigma, the noise's draws and row
# sums, V and the norms here, the crossings and the time averages in `loops`.
# So a long path holds its three series (states, V, norms) and blocks of this.
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
            threads = int(raw)
        except ValueError:
            threads = 0
        if threads < 1:
            raise ValueError(f"NSS_LAB_THREADS must be a positive integer, got {raw!r}")
        return threads
    return max(1, os.cpu_count() or 1)


def _whole_steps(t: float, step: float) -> int:
    """k = round(t / step), the steps in ``t``: horizons, check times and saved
    indices.  Refuses t unless |t/step - k| <= 1e-9 + 8 eps |k|, an allowance
    that grows with the round-off of t/step: 1.8e-6 of a step at 1e9 steps."""
    k = round(t / step)
    if abs(t / step - k) > 1e-9 + 8 * np.finfo(float).eps * abs(k):
        raise ValueError(f"time {t!r} is not a whole number of steps {step!r}")
    return k


@dataclass(frozen=True)
class SimConfig:
    """One integration run: horizon, step, seed and initial state.

    The horizon ``t_end`` must be finite and a whole number of steps ``dt``
    by :func:`_whole_steps`, and ``seed`` a nonnegative integer (Python's or
    numpy's).  ``save_every`` thins storage to every k-th grid point (the
    time grid stays uniform); it must divide the step count exactly.
    """

    t_end: float
    dt: float
    seed: int
    x0: Sequence[float]
    save_every: int = 1

    def __post_init__(self) -> None:
        if not (0.0 < self.dt <= self.t_end):
            raise ValueError(f"need 0 < dt <= t_end, got dt={self.dt!r}, t_end={self.t_end!r}")
        if self.t_end == math.inf:
            raise ValueError(f"t_end must be finite, got {self.t_end!r}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if self.save_every < 1:
            raise ValueError(f"save_every must be >= 1, got {self.save_every!r}")
        if self.n_steps % self.save_every != 0:  # n_steps refuses a partial step
            raise ValueError(
                f"save_every={self.save_every} does not divide {self.n_steps} steps"
            )

    @property
    def n_steps(self) -> int:
        return _whole_steps(self.t_end, self.dt)

    @property
    def n_saved(self) -> int:
        """Saved states: step 0 and every ``save_every``-th step after it."""
        return self.n_steps // self.save_every + 1

    @property
    def grid_dt(self) -> float:
        """Time between saved states: saved index q is at ``q * grid_dt``."""
        return self.dt * self.save_every


@dataclass(frozen=True)
class Trajectory:
    """Paths saved at times ``q * grid_dt``, with their Lyapunov-value series:
    ``states`` of shape (..., K+1, N), ``lyap`` and ``norms`` of shape
    (..., K+1).  One path has no leading axis, P paths have (P,).  As with an
    array, ``len`` and ``traj[i]`` read the leading axis (``ens[i]`` is path
    i, of views into these arrays), while ``times`` and ``horizon`` read the
    last one."""

    grid_dt: float
    states: np.ndarray
    lyap: np.ndarray
    norms: np.ndarray

    def __post_init__(self) -> None:
        if not (self.states.shape[:-1] == self.lyap.shape == self.norms.shape):
            raise ValueError("trajectory series must share one shape")

    def __len__(self) -> int:
        return len(self.lyap)

    def __getitem__(self, i: int) -> "Trajectory":
        return Trajectory(self.grid_dt, self.states[i], self.lyap[i], self.norms[i])

    @property
    def times(self) -> np.ndarray:
        """The saved times, built when read."""
        return np.arange(self.lyap.shape[-1]) * self.grid_dt

    @property
    def horizon(self) -> float:
        return (self.lyap.shape[-1] - 1) * self.grid_dt


def _check_path_axes(traj: Trajectory, axes: int) -> None:
    """Refuse ``traj`` unless it has ``axes`` path axes: 0 for one path, 1 for an ensemble."""
    if traj.lyap.ndim != axes + 1:
        raise ValueError(f"need a trajectory with {('no', 'one')[axes]} path axis, "
                         f"got V of shape {traj.lyap.shape}")


def _scratch_bytes(m: int, steps: int, paths: int) -> int:
    """Bytes that :func:`_noise` holds besides its output when it draws ``steps``
    steps of ``paths`` paths: one block of Sigma, of one path's draws, of one
    term and of the row sums of a group of at most ``_GROUP`` paths."""
    return 8 * (min(_GROUP, paths) * m + m * m + m + 1) * min(steps, _BLOCK_ROWS)


def _noise(spec: SystemSpec, gens: List[Generator], dt: float, k0: int, k1: int,
           shape: tuple) -> np.ndarray:
    """``s[j, k, i] = (Sigma(t_{k0+k}) dW_{k0+k})_j`` of steps [k0, k1) of the path
    drawn by ``gens[i]``, time-major, of ``shape`` = ``(m, length) + batch``, zero
    after step ``k1 - k0``: the next ``k1 - k0`` normal draws of each generator,
    Sigma's entries summed left to right from 0.0.

    The steps are drawn in blocks of ``_BLOCK_ROWS``, and Sigma is evaluated
    once per block, for every path.  An entry of Sigma that is zero on the
    whole block adds only zeros, whose sign the sum from 0.0 drops, so only
    the entries nonzero on the block are read.  In each block, each group of
    at most ``_GROUP`` paths draws the block path by path and sums each
    path's rows of ``s`` in one buffer, which is then copied into ``s``
    transposed; a lone path is a group of one.  Successive draws continue each
    path's stream, so the block length moves no bit.  The block of Sigma, one
    block of draws, the buffer and one term are the :func:`_scratch_bytes`
    that the noise budget counts besides ``s``."""
    m, length = shape[0], k1 - k0
    s = np.zeros(shape)
    per_path = s.reshape(shape[:2] + (len(gens),))
    group, rows = min(_GROUP, len(gens)), min(length, _BLOCK_ROWS)
    sums = np.empty((m, group, rows))  # (row, path, step)
    term = np.empty(rows)
    root = math.sqrt(dt)
    for d0 in range(0, length, _BLOCK_ROWS):
        d1 = min(d0 + _BLOCK_ROWS, length)
        sig = spec.sigma_series(np.arange(k0 + d0, k0 + d1) * dt)
        # (j, [(k, Sigma[j, k] on the block), ...]) of each row with a nonzero entry
        entries = [[(k, sig[:, j, k]) for k in range(m) if sig[:, j, k].any()] for j in range(m)]
        by_row = [(j, cols) for j, cols in enumerate(entries) if cols]
        for g0 in range(0, len(gens), group):
            g1 = min(g0 + group, len(gens))
            for i, gen in enumerate(gens[g0:g1]):
                # 0.0 + sqrt(dt) z differs from z sqrt(dt) at most in the sign
                # of a zero, which the sum from 0.0 drops
                dw = gen.normal(0.0, root, size=(d1 - d0, m))
                for j, ((k, col), *cols) in by_row:
                    acc = np.multiply(dw[:, k], col, out=sums[j, i, :d1 - d0])
                    for k, col in cols:
                        acc += np.multiply(dw[:, k], col, out=term[:d1 - d0])
                del dw  # so that the next path's draws replace these, not join them
            for j, _ in by_row:
                part = sums[j, :g1 - g0, :d1 - d0]
                part += 0.0  # as if summed from 0.0: -0.0 becomes +0.0, nothing else moves
                per_path[j, d0:d1, g0:g1] = part.T
        del sig, entries, by_row  # so that the next block's Sigma replaces this one, not joins it
    return s


def _euler_maruyama(spec: SystemSpec, cfg: SimConfig, x0: np.ndarray,
                    gens: List[Generator], batch: tuple) -> np.ndarray:
    """Saved states of the paths drawn by ``gens``, stepped in lock step from
    ``x0``, shape ``batch + (K+1, N)``: ``batch`` is () for one path, stepped
    on a state of shape (N,), and (P,) for P paths.

    Every batch shape evaluates the same expressions, so path i has the same
    bits alone as inside any chunk.  The noise is drawn in time segments that
    hold at most ``_NOISE_BYTES`` with their draws and scratch; successive
    draws continue each path's stream, so the segment length moves no bit.
    """
    n_steps, dt, m = cfg.n_steps, cfg.dt, spec.dim_noise
    seg = max(1, _NOISE_BYTES // (8 * m * len(gens) + _scratch_bytes(m, 1, len(gens))))

    drift, diffusion = spec.dynamics
    save = cfg.save_every
    x = np.tile(x0, batch + (1,))
    states = np.empty(batch + (cfg.n_saved, spec.dim_state))
    states[..., 0, :] = x
    for k0 in range(0, n_steps, seg):
        k1 = min(k0 + seg, n_steps)
        # (k1 - k0,) + batch + (m,)
        sdw = np.moveaxis(_noise(spec, gens, dt, k0, k1, (m, k1 - k0) + batch), 0, -1)
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
    q*save // span.  With g = gcd(save, span), the offsets repeat every
    span/g saved indices, and the first span/g fall on distinct offsets.
    If ``save <= span`` every block holds a saved step and the rows are the
    blocks, every (save/g)-th; otherwise a block holds at most one and the
    rows are the saved indices."""
    g = math.gcd(save, span)
    period, last, r_step = span // g, n_steps // save, save // g
    plan = [None] * span
    for q0 in range(min(period, last + 1)):  # the least saved index at each offset
        saved, r0 = slice(q0, last + 1, period), q0 * save // span
        plan[q0 * save % span] = (saved if save > span else slice(
            r0, r0 + (last - q0) // period * r_step + 1, r_step)), saved
    while plan[-1] is None:  # offset 0 always holds saved index 0
        plan.pop()
    return plan


def _affine_scan(spec: SystemSpec, cfg: SimConfig, x0: np.ndarray,
                 gens: List[Generator], batch: tuple) -> np.ndarray:
    """The contract of :func:`_euler_maruyama`, for a spec that declares ``affine``.

    With ``s_k = Sigma(t_k) dW_k``, step k is the affine map ``x -> M_k x + b_k``
    with ``M_k = I + A dt + [H[i] s_k]_i`` (column i) and ``b_k = H0 s_k``.  The
    steps are cut into blocks of :func:`block_length` steps.  The map of every
    full block is composed, all blocks at once; the block start states are
    carried from block to block; then the states inside the blocks that hold
    a saved step are refilled from their starts, all such blocks at once and
    only up to the furthest saved offset: one row per block if every block
    holds a saved step, else one row per saved step, chosen once.  With L
    the block length, the saved steps' offsets repeat every
    ``L / gcd(save_every, L)`` saved indices, so each offset's saved states
    are one slice of the rows (:func:`_refill_plan`).  The last block holds
    the ``n_steps % L`` remaining steps, then zero noise up to
    :func:`_padded_length`; it is never composed, and its refill row runs on
    into that padding, where no state is saved.  The chunk's noise, with its
    draws and scratch, fits ``_NOISE_BYTES`` when :func:`ensemble` picks the
    chunk.  Only elementwise adds and multiplies in a fixed order are used,
    so path i has the same bits alone as inside any chunk.
    """
    n_steps, dt = cfg.n_steps, cfg.dt
    n, m = spec.dim_state, spec.dim_noise
    span = block_length(n_steps)
    n_full = n_steps // span  # the blocks before the last, partial one

    # the noise, zero-padded to whole blocks
    s = _noise(spec, gens, dt, 0, n_steps,
               (m, _padded_length(n_steps)) + batch).reshape((m, n_full + 1, span) + batch)

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
    starts = np.empty((n_full + 1, n) + batch)
    starts[0] = x0.reshape((n,) + (1,) * len(batch))
    for blk in range(n_full):
        starts[blk + 1] = _affine_apply(p_blk[blk], starts[blk], c_blk[blk])

    # refill from the block starts, one row per block or per saved step, up to
    # the furthest saved offset; the last block's row runs on into the zero
    # padding past n_steps, where nothing is saved
    save = cfg.save_every
    rows = slice(None) if save <= span else np.arange(cfg.n_saved) * save // span
    x = [starts[rows, r] for r in range(n)]
    states = np.empty(batch + (cfg.n_saved, n))
    plan = _refill_plan(n_steps, span, save)
    for jj, fill in enumerate(plan):
        if fill is not None:
            filled, saved = fill
            for r in range(n):
                states[..., saved, r] = x[r][filled].T
        if jj < len(plan) - 1:
            mat, off = step_map(rows, jj)
            x = _affine_apply(mat, x, off)
    return states


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
    lowest failing path's first failing step.  The norm is the square root of
    :func:`~nss_lab.model._sum_of_squares`, the squares added column by
    column: for N <= 7 the bits of ``np.linalg.norm(states, axis=-1)``, which
    regroups its sum from 8 terms on."""
    flat = states.reshape(-1, states.shape[-1])  # a view: both kernels write path-major
    lyap, norms = np.empty(len(flat)), np.empty(len(flat))
    for r0 in range(0, len(flat), _BLOCK_ROWS):
        r1 = min(r0 + _BLOCK_ROWS, len(flat))
        block = flat[r0:r1]
        lyap[r0:r1] = np.asarray(spec.lyapunov.v(block), dtype=float).reshape(-1)
        np.sqrt(_sum_of_squares(block, out=norms[r0:r1]), out=norms[r0:r1])
        bad = ~(np.isfinite(lyap[r0:r1]) & np.isfinite(norms[r0:r1]))
        if bad.any():
            path, idx = divmod(r0 + int(np.argmax(bad)), states.shape[-2])
            raise NonFiniteStateError(idx * cfg.save_every, idx * cfg.grid_dt, lo + path)
    return lyap.reshape(states.shape[:-1]), norms.reshape(states.shape[:-1])


# Whether a spec declares ``affine`` -> its kernel and the name recorded next to
# RNG_ALGORITHM: the kernels group a step's operations differently, so bits differ.
_KERNELS = {
    False: (_euler_maruyama, "euler-maruyama, sequential steps"),
    True: (_affine_scan, "euler-maruyama, blocked affine scan (block length isqrt(n_steps))"),
}


def integrator_name(spec: SystemSpec) -> str:
    """The kernel that steps ``spec``, as recorded in output metadata."""
    return _KERNELS[spec.affine is not None][1]


def _simulate(spec: SystemSpec, cfg: SimConfig, lo: int,
              hi: Optional[int] = None) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The saved states, V and norms of path ``lo``, of shapes (K+1, N), (K+1,)
    and (K+1,), or of paths [lo, hi) stepped in lock step, with a leading axis
    of hi - lo.  Path i draws from ``path_generator(cfg.seed, i)`` and is
    stepped by the spec's kernel in ``_KERNELS``.  A blow-up raises
    :class:`NonFiniteStateError` from :func:`_finalize`, not a numpy warning."""
    x0 = np.asarray(cfg.x0, dtype=float)
    if x0.shape != (spec.dim_state,):
        raise ValueError(f"x0 shape {x0.shape} != ({spec.dim_state},)")
    paths = range(lo, lo + 1 if hi is None else hi)
    batch = () if hi is None else (len(paths),)
    gens = [path_generator(cfg.seed, i) for i in paths]
    with np.errstate(over="ignore", invalid="ignore"):  # errstate is per thread
        states = _KERNELS[spec.affine is not None][0](spec, cfg, x0, gens, batch)
        return (states, *_finalize(spec, cfg, states, lo))


def integrate(spec: SystemSpec, cfg: SimConfig, path_index: int = 0) -> Trajectory:
    """Euler-Maruyama path: x_{k+1} = x_k + f dt + h(x_k) Sigma(t_k) dW_k.

    Specs that declare ``affine`` run the blocked affine scan, others the
    sequential step loop, on this path alone.  Bit-reproducible for fixed
    (spec, cfg, path_index) on one platform, and bit-identical to path
    ``path_index`` of :func:`ensemble`: both run :func:`_simulate`.
    """
    return Trajectory(cfg.grid_dt, *_simulate(spec, cfg, path_index))


def ensemble(spec: SystemSpec, cfg: SimConfig, n_paths: int) -> Trajectory:
    """Independent paths i = 0..n_paths-1, each on substream (cfg.seed, i), as
    one :class:`Trajectory` with a leading path axis of n_paths.

    Path i, its V and its norms are bit-identical to ``integrate(spec, cfg, i)``
    regardless of chunking or thread schedule.  Every spec is stepped in
    lock-stepped chunks across a thread pool capped by NSS_LAB_THREADS.  A
    chunk holds at most ``_NOISE_BYTES`` (16 MiB) of noise together with the
    Sigma, draws and row sums it is made from, or one path's if that is more: the
    affine scan takes as many paths as fit beside one path group's scratch,
    the sequential kernel 1000 paths whose noise it draws in time segments.
    Each worker runs :func:`_simulate` on its chunk and copies the states, V
    and norms into the trajectory's arrays, so besides those arrays memory holds
    one chunk's noise, series and temporaries per worker.  A non-finite state
    names the lowest failing path.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths!r}")
    m, n_steps = spec.dim_noise, cfg.n_steps
    chunk = (_SEQUENTIAL_CHUNK if spec.affine is None else max(
        1, (_NOISE_BYTES - _scratch_bytes(m, n_steps, _GROUP))
        // (8 * m * _padded_length(n_steps))))
    shape = (n_paths, cfg.n_saved)
    ens = Trajectory(cfg.grid_dt, np.empty(shape + (spec.dim_state,)), np.empty(shape),
                     np.empty(shape))

    def run(lo):
        hi = min(lo + chunk, n_paths)
        ens.states[lo:hi], ens.lyap[lo:hi], ens.norms[lo:hi] = _simulate(spec, cfg, lo, hi)

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
    """Dump a one-path trajectory as CSV: t,x1..xN,V,norm at full double precision."""
    _check_path_axes(traj, 0)
    header = ["t", *(f"x{i + 1}" for i in range(traj.states.shape[1])), "V", "norm"]
    write_csv(path, header, traj.times, traj.states, traj.lyap, traj.norms)
