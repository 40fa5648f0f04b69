"""System declaration, Lyapunov generator evaluation and dissipation checking.

A :class:`SystemSpec` is the full problem statement for one stochastic system
``dx = f(x) dt + h(x) Sigma(t) dW``: the dynamics, the Lyapunov data and the
exponential dissipation constants ``(c, gamma, gamma_max)``.  The checker
:func:`check_enss` evaluates the dissipation inequality numerically on a
sample of states and times and reports every violating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "LyapunovSpec",
    "SystemSpec",
    "ConditionReport",
    "check_enss",
    "builtin_example",
]

_FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)
_TOL = 1e-9  # slack for round-off in residuals that are analytically zero


def _fd_value(v: Callable, x: np.ndarray, eps: float, *steps) -> float:
    """``float(v)`` at a copy of x moved by ``sign * eps`` along axis i for
    each ``(i, sign)`` of ``steps``."""
    shifted = x.copy()
    for i, sign in steps:
        shifted[i] += sign * eps
    return float(v(shifted))


def _fd_gradient(v: Callable, x: np.ndarray) -> np.ndarray:
    eps = _FD_STEP * max(1.0, float(np.linalg.norm(x)))
    grad = np.empty_like(x)
    for i in range(x.size):
        up, down = (_fd_value(v, x, eps, (i, sign)) for sign in (1, -1))
        grad[i] = (up - down) / (2.0 * eps)
    return grad


def _fd_hessian(v: Callable, x: np.ndarray) -> np.ndarray:
    eps = _FD_STEP * max(1.0, float(np.linalg.norm(x)))
    n = x.size
    hess = np.empty((n, n))
    v0 = float(v(x))
    for i in range(n):
        up, down = (_fd_value(v, x, eps, (i, sign)) for sign in (1, -1))
        hess[i, i] = (up + down - 2.0 * v0) / (eps * eps)
        for j in range(i + 1, n):
            pp, pm, mp, mm = (_fd_value(v, x, eps, (i, si), (j, sj))
                              for si in (1, -1) for sj in (1, -1))
            hess[i, j] = hess[j, i] = (pp - pm - mp + mm) / (4.0 * eps * eps)
    return hess


@dataclass(frozen=True)
class LyapunovSpec:
    """Lyapunov function V with its lower class-K-infinity envelope.

    ``alpha1`` bounds V from below, ``alpha1(|x|) <= V(x)``, and
    ``alpha1_inv`` is its inverse; the bounds need no other envelope.
    ``grad_v`` / ``hess_v`` are optional; central finite differences are used
    when they are absent (the function is assumed C^2 but may be black box).
    """

    v: Callable
    alpha1: Callable[[float], float]
    alpha1_inv: Callable[[float], float]
    grad_v: Optional[Callable] = None
    hess_v: Optional[Callable] = None

    def grad(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.grad_v is not None:
            return np.asarray(self.grad_v(x), dtype=float)
        return _fd_gradient(self.v, x)

    def hess(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.hess_v is not None:
            return np.asarray(self.hess_v(x), dtype=float)
        return _fd_hessian(self.v, x)


@dataclass(frozen=True, kw_only=True, eq=False)
class SystemSpec:
    """Full problem statement for one exponentially dissipative SDE.

    The dynamics are declared once: as ``drift`` and ``diffusion``, or as
    ``affine=(A, H0, H)``, meaning ``f(x) = A x`` and ``h(x) = H0 + sum_i
    x_i H[i]`` with shapes ``(N, N)``, ``(N, m)`` and ``(N, N, m)``; the
    simulator steps those by the blocked affine scan.  The premise check and
    the step loop take the maps from :attr:`dynamics`, so the premise check
    reads the system that is simulated.

    ``vectorized=True`` declares that ``drift``, ``diffusion`` and the Lyapunov
    ``v`` accept state batches ``(..., N)`` (returning ``(..., N)``,
    ``(..., N, m)`` and ``(...)``) and ``covariance`` time arrays; otherwise
    they are called once per state or time.  The maps of ``affine`` accept
    batches either way, so for an affine spec the flag governs ``covariance``
    and ``v``.  Only :meth:`batched` and :meth:`sigma_series` read it.  The
    ensemble steps chunks of paths either way, and ``integrate(spec, cfg, i)``
    equals path ``i`` of ``ensemble`` bit for bit.
    """

    dim_state: int
    dim_noise: int
    drift: Optional[Callable] = None
    diffusion: Optional[Callable] = None
    covariance: Callable
    lyapunov: LyapunovSpec
    c: float
    gamma: Callable[[float], float]
    gamma_max: float
    vectorized: bool = False
    affine: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def __post_init__(self) -> None:
        if self.dim_state < 1 or self.dim_noise < 1:
            raise ValueError("state and noise dimensions must be positive")
        given = [name for name, fn in (("drift", self.drift), ("diffusion", self.diffusion))
                 if fn is not None]
        if self.affine is not None and given:
            raise ValueError("declare the dynamics once: affine=(A, H0, H) or "
                             f"drift and diffusion, not affine and {' and '.join(given)}")
        if self.affine is None and len(given) < 2:
            raise ValueError("the dynamics need drift and diffusion, or affine=(A, H0, H)")
        if self.affine is not None:
            n, m = self.dim_state, self.dim_noise
            arrays = tuple(np.array(a, dtype=float) for a in self.affine)
            shapes = ((n, n), (n, m), (n, n, m))
            if len(arrays) != 3 or any(a.shape != s for a, s in zip(arrays, shapes)):
                raise ValueError(
                    f"affine=(A, H0, H) needs shapes {shapes}, got "
                    f"{tuple(a.shape for a in arrays)}"
                )
            if not all(np.isfinite(a).all() for a in arrays):
                raise ValueError("affine=(A, H0, H) must be finite")
            for a in arrays:
                a.setflags(write=False)
            object.__setattr__(self, "affine", arrays)
        if not self.c > 0.0:
            raise ValueError(f"c must be positive, got {self.c!r}")
        if not self.gamma_max >= 0.0:
            raise ValueError(f"gamma_max must be nonnegative, got {self.gamma_max!r}")

    @property
    def noise_floor(self) -> float:
        return self.gamma_max / self.c

    @cached_property
    def dynamics(self) -> Tuple[Callable, Callable]:
        """``(drift, diffusion)``: the declared maps, or those of ``affine``,
        ``x -> A x`` and ``x -> H0 + sum_i x_i H[i]``, for states and batches."""
        if self.affine is None:
            return self.drift, self.diffusion
        a, h0, h = self.affine
        return (lambda x: np.asarray(x, dtype=float) @ a.T,
                lambda x: h0 + np.einsum("...i,inj->...nj", np.asarray(x, dtype=float), h))

    def batched(self, fn: Callable) -> Callable:
        """A state function such as ``drift`` as a map over a (P, N) batch of
        states: ``fn`` itself if the spec is vectorized, else a loop that calls
        it once per state and stacks the results."""
        return fn if self.vectorized else (lambda x: np.array([fn(s) for s in x]))

    def sigma_series(self, times) -> np.ndarray:
        """Sigma(t) at every time of a 1-D sequence, shape (K, m, m): one
        ``covariance`` call if the spec is vectorized and that call returns
        this shape, else one call per time."""
        times = np.asarray(times, dtype=float)
        m = self.dim_noise
        if self.vectorized:
            sig = np.asarray(self.covariance(times), dtype=float)
            if sig.shape == (len(times), m, m):
                return sig
        out = np.empty((len(times), m, m))
        for k, t in enumerate(times):
            sig = np.asarray(self.covariance(float(t)), dtype=float)
            if sig.shape != (m, m):
                raise ValueError(
                    f"covariance returned shape {sig.shape}, expected ({m}, {m})")
            out[k] = sig
        return out


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a numerical dissipation check on a finite sample.

    A point passes when its residual is at most ``_TOL`` (1e-9).
    """

    points_checked: int
    max_violation: float
    violating_points: list
    gamma_max_violation: float

    @property
    def passed(self) -> bool:
        return self.max_violation <= _TOL and self.gamma_max_violation <= _TOL


def _generator(spec: SystemSpec, x) -> Callable[[np.ndarray], np.ndarray]:
    """LV at state x as a function of S = Sigma(t), the state terms taken once:
    ``grad(V) . f(x) + 1/2 tr(S^T h^T hess(V) h S)`` (V does not depend on t),
    for one (m, m) matrix S or at each of a (T, m, m) stack."""
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.dim_state,):
        raise ValueError(f"state shape {x.shape} != ({spec.dim_state},)")
    drift, diffusion = spec.dynamics
    f = np.asarray(drift(x), dtype=float)
    if f.shape != x.shape:
        raise ValueError(f"drift returned shape {f.shape}, expected {x.shape}")
    h = np.asarray(diffusion(x), dtype=float)
    if h.shape != (spec.dim_state, spec.dim_noise):
        raise ValueError(
            f"diffusion returned shape {h.shape}, expected "
            f"({spec.dim_state}, {spec.dim_noise})"
        )
    drift_term, hess = spec.lyapunov.grad(x) @ f, spec.lyapunov.hess(x)
    def lv(sig: np.ndarray) -> np.ndarray:
        hs = h @ sig
        return drift_term + 0.5 * np.trace(np.swapaxes(hs, -1, -2) @ hess @ hs,
                                           axis1=-2, axis2=-1)
    return lv


def _noise_magnitudes(sig: np.ndarray) -> np.ndarray:
    """``|Sigma Sigma^T|_F`` over a (K, m, m) series.  The batched dot equals
    ``np.linalg.norm(S, "fro")`` bit for bit; a sum of squares can miss by an ulp."""
    s = (sig @ np.swapaxes(sig, -1, -2)).reshape(len(sig), 1, -1)
    return np.sqrt((s @ np.swapaxes(s, -1, -2))[:, 0, 0])


def check_enss(
    spec: SystemSpec,
    states: Sequence,
    times: Sequence[float],
    gamma_times: Sequence[float],
) -> ConditionReport:
    """Check the exponential dissipation inequality on a state/time sample.

    The residual at each point is ``LV(x, t) + c V(x) - gamma(|Sigma Sigma^T|_F)``,
    one table of states by times; residuals at most ``_TOL`` (1e-9) pass, and a
    NaN residual fails.  The declared ``gamma_max`` is additionally verified
    against ``gamma`` on ``gamma_times``, where a NaN gain fails too.  Sigma
    and ``gamma`` are evaluated once per time, and drift, diffusion, V and its
    derivatives once per state.
    """
    states = np.asarray(states, dtype=float)
    times = np.asarray(times, dtype=float)
    gamma_times = np.asarray(gamma_times, dtype=float)
    if not states.size or not times.size or not gamma_times.size:
        raise ValueError("state, time and gamma_times samples must be non-empty")

    sigs = spec.sigma_series(np.concatenate([times, gamma_times]))
    gains = np.array([spec.gamma(s) for s in _noise_magnitudes(sigs).tolist()])
    residuals = np.array([
        _generator(spec, x)(sigs[:len(times)]) + spec.c * float(spec.lyapunov.v(x))
        for x in states
    ]) - gains[:len(times)]
    # "not at most _TOL", so that a NaN residual violates
    violating = [(states[i], float(times[j]), float(residuals[i, j]))
                 for i, j in zip(*np.nonzero(~(residuals <= _TOL)))]
    return ConditionReport(
        points_checked=residuals.size,
        max_violation=float(residuals.max()),
        violating_points=violating,
        gamma_max_violation=float((gains[len(times):] - spec.gamma_max).max()),
    )


@cache
def builtin_example() -> SystemSpec:
    """The built-in 2-D benchmark system, one shared instance.

    Rotation-plus-contraction drift ``(-x1 + x2, -x1 - x2)`` driven by a
    singular noise channel ``h(x) = [[0, 0], [x2, 1]]`` with periodic
    covariance ``Sigma(t) = diag(1, sin t)``; Lyapunov function
    ``V(x) = (x1^2 + x2^2) / 2`` with ``c = 1`` and gain ceiling 1/2.

    The gain function is defined only for Frobenius magnitudes >= 1; this
    system's covariance never goes below that edge.
    """

    def covariance(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape + (2, 2))
        out[..., 0, 0] = 1.0
        out[..., 1, 1] = np.sin(t)
        return out

    def v(x):
        """(x1^2 + x2^2) / 2 over the last axis, summed by columns: the bits of
        ``0.5 * np.sum(x * x, axis=-1)``, which is far slower on that axis."""
        x = np.asarray(x, dtype=float)
        return 0.5 * (x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1])

    def gamma(s: float) -> float:
        if s < 1.0 - 1e-9:
            raise ValueError(f"gain undefined for Frobenius magnitude {s!r} < 1")
        return 0.5 * math.sqrt(max(s * s - 1.0, 0.0))

    lyap = LyapunovSpec(
        v=v,
        alpha1=lambda r: 0.5 * r * r,
        alpha1_inv=lambda s: math.sqrt(2.0 * s),
        grad_v=lambda x: np.asarray(x, dtype=float).copy(),
        hess_v=lambda x: np.eye(2),
    )
    # f(x) = A x and h(x) = H0 + x1 H[0] + x2 H[1]
    a = [[-1.0, 1.0], [-1.0, -1.0]]
    h0 = [[0.0, 0.0], [0.0, 1.0]]
    h = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    return SystemSpec(
        dim_state=2,
        dim_noise=2,
        covariance=covariance,
        lyapunov=lyap,
        c=1.0,
        gamma=gamma,
        gamma_max=0.5,
        vectorized=True,
        affine=(a, h0, h),
    )
