"""System declaration, Lyapunov generator evaluation and dissipation checking.

A :class:`SystemSpec` is the full problem statement for one stochastic system
``dx = f(x) dt + h(x) Sigma(t) dW``: the dynamics, the Lyapunov data and the
exponential dissipation constants ``(c, gamma, gamma_max)``.  The checker
:func:`check_enss` evaluates the dissipation inequality numerically on a
sample of states and times and reports every violating point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "LyapunovSpec",
    "SystemSpec",
    "ConditionReport",
    "generator_v",
    "check_enss",
    "builtin_example",
]

_FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)


def _fd_gradient(v: Callable, x: np.ndarray) -> np.ndarray:
    eps = _FD_STEP * max(1.0, float(np.linalg.norm(x)))
    grad = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += eps
        xm[i] -= eps
        grad[i] = (float(v(xp)) - float(v(xm))) / (2.0 * eps)
    return grad


def _fd_hessian(v: Callable, x: np.ndarray) -> np.ndarray:
    eps = _FD_STEP * max(1.0, float(np.linalg.norm(x)))
    n = x.size
    hess = np.empty((n, n))
    v0 = float(v(x))
    for i in range(n):
        xp = x.copy()
        xm = x.copy()
        xp[i] += eps
        xm[i] -= eps
        hess[i, i] = (float(v(xp)) + float(v(xm)) - 2.0 * v0) / (eps * eps)
        for j in range(i + 1, n):
            xpp = x.copy()
            xpm = x.copy()
            xmp = x.copy()
            xmm = x.copy()
            xpp[[i, j]] += eps
            xmm[[i, j]] -= eps
            xpm[i] += eps
            xpm[j] -= eps
            xmp[i] -= eps
            xmp[j] += eps
            hess[i, j] = hess[j, i] = (
                float(v(xpp)) - float(v(xpm)) - float(v(xmp)) + float(v(xmm))
            ) / (4.0 * eps * eps)
    return hess


@dataclass(frozen=True)
class LyapunovSpec:
    """Lyapunov function with its class-K-infinity envelopes.

    ``grad_v`` / ``hess_v`` are optional; central finite differences are used
    when they are absent (the function is assumed C^2 but may be black box).
    """

    v: Callable
    alpha1: Callable[[float], float]
    alpha2: Callable[[float], float]
    alpha3: Callable[[float], float]
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


@dataclass(frozen=True)
class SystemSpec:
    """Full problem statement for one exponentially dissipative SDE.

    ``vectorized=True`` declares that ``drift`` / ``diffusion`` accept state
    batches of shape ``(..., N)`` (returning ``(..., N)`` and ``(..., N, m)``)
    and that ``covariance`` accepts time arrays; the ensemble integrator then
    steps chunks of paths at once.  Non-vectorized specs run one path after
    another.  Either way ``integrate(spec, cfg, i)`` equals path ``i`` of
    ``ensemble`` bit for bit.  Simulator and premise check alike read
    ``covariance`` only through :meth:`sigma_series`.

    ``affine=(A, H0, H)`` declares linear drift ``f(x) = A x`` and affine
    diffusion ``h(x) = H0 + sum_i x_i H[i]``, with shapes ``(N, N)``,
    ``(N, m)`` and ``(N, N, m)``.  It is trusted, not checked against
    ``drift``/``diffusion`` (the built-in system builds those from it); the
    simulator then runs the blocked affine scan instead of the sequential
    step loop (in chunks of paths, even when ``vectorized`` is false), and
    only ``covariance`` is called.
    """

    dim_state: int
    dim_noise: int
    drift: Callable
    diffusion: Callable
    covariance: Callable
    lyapunov: LyapunovSpec
    c: float
    gamma: Callable[[float], float]
    gamma_max: float
    vectorized: bool = False
    name: str = "system"
    affine: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default=None, compare=False)

    def __post_init__(self) -> None:
        if self.dim_state < 1 or self.dim_noise < 1:
            raise ValueError("state and noise dimensions must be positive")
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
            object.__setattr__(self, "affine", arrays)
        if self.c <= 0.0:
            raise ValueError(f"c must be positive, got {self.c!r}")
        if self.gamma_max < 0.0:
            raise ValueError(f"gamma_max must be nonnegative, got {self.gamma_max!r}")

    @property
    def noise_floor(self) -> float:
        return self.gamma_max / self.c

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

    ``tol`` absorbs floating-point noise in residuals that are analytically
    zero (e.g. on the boundary of a tight dissipation inequality).
    """

    points_checked: int
    max_violation: float
    violating_points: list
    gamma_max_violation: float = -math.inf
    tol: float = 1e-9

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tol and self.gamma_max_violation <= self.tol


def _generator(spec: SystemSpec, x, sig: np.ndarray) -> float:
    """:func:`generator_v` at x under ``Sigma = sig``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.dim_state,):
        raise ValueError(f"state shape {x.shape} != ({spec.dim_state},)")
    f = np.asarray(spec.drift(x), dtype=float)
    if f.shape != x.shape:
        raise ValueError(f"drift returned shape {f.shape}, expected {x.shape}")
    h = np.asarray(spec.diffusion(x), dtype=float)
    if h.shape != (spec.dim_state, spec.dim_noise):
        raise ValueError(
            f"diffusion returned shape {h.shape}, expected "
            f"({spec.dim_state}, {spec.dim_noise})"
        )
    grad = spec.lyapunov.grad(x)
    hess = spec.lyapunov.hess(x)
    hs = h @ sig
    return float(grad @ f + 0.5 * np.trace(hs.T @ hess @ hs))


def generator_v(spec: SystemSpec, x, t: float) -> float:
    """Ito generator of V at state x and time t.

    Computes ``grad(V) . f(x) + 1/2 tr(S^T h^T hess(V) h S)`` with
    ``S = covariance(t)`` (V carries no explicit time dependence here).
    """
    return _generator(spec, x, spec.sigma_series([t])[0])


def _noise_magnitudes(sig: np.ndarray) -> np.ndarray:
    """``|Sigma Sigma^T|_F`` over a (K, m, m) series.  The batched dot equals
    ``np.linalg.norm(S, "fro")`` bit for bit; a sum of squares can miss by an ulp."""
    s = (sig @ np.swapaxes(sig, -1, -2)).reshape(len(sig), 1, -1)
    return np.sqrt((s @ np.swapaxes(s, -1, -2))[:, 0, 0])


def noise_magnitude(spec: SystemSpec, t: float) -> float:
    """Frobenius norm of Sigma(t) Sigma(t)^T."""
    return float(_noise_magnitudes(spec.sigma_series([t]))[0])


def check_enss(
    spec: SystemSpec,
    states: Sequence,
    times: Sequence[float],
    gamma_times: Optional[Sequence[float]] = None,
    tol: float = 1e-9,
) -> ConditionReport:
    """Check the exponential dissipation inequality on a state/time sample.

    The residual at each point is ``LV(x, t) + c V(x) - gamma(|Sigma Sigma^T|_F)``;
    nonpositive residuals pass.  The declared ``gamma_max`` is additionally
    verified against ``gamma`` on ``gamma_times`` (defaulting to ``times``).
    Sigma and ``gamma`` are evaluated once per distinct time.
    """
    states = [np.asarray(x, dtype=float) for x in states]
    times = [float(t) for t in times]
    if not states or not times:
        raise ValueError("state and time samples must be non-empty")

    scan_times = [] if gamma_times is None else [float(t) for t in gamma_times]
    sigs = spec.sigma_series(times + scan_times)
    gains = [spec.gamma(s) for s in _noise_magnitudes(sigs).tolist()]
    violating = []
    max_violation = -math.inf
    for x, (t, sig, gain) in itertools.product(states, zip(times, sigs, gains)):
        residual = (
            _generator(spec, x, sig)
            + spec.c * float(spec.lyapunov.v(x))
            - gain
        )
        max_violation = max(max_violation, residual)
        if residual > tol:
            violating.append((x, t, residual))

    scan = gains if gamma_times is None else gains[len(times):]
    gamma_violation = max(g - spec.gamma_max for g in scan)
    return ConditionReport(
        points_checked=len(states) * len(times),
        max_violation=max_violation,
        violating_points=violating,
        gamma_max_violation=gamma_violation,
        tol=tol,
    )


def _affine_dynamics(a, h0, h):
    """``(drift, diffusion)`` of ``affine=(A, H0, H)``: ``x -> A x`` and
    ``x -> H0 + sum_i x_i H[i]``, for single states and batches."""
    a, h0, h = (np.asarray(v, dtype=float) for v in (a, h0, h))
    return (lambda x: np.asarray(x, dtype=float) @ a.T,
            lambda x: h0 + np.einsum("...i,inj->...nj", np.asarray(x, dtype=float), h))


def builtin_example() -> SystemSpec:
    """The built-in 2-D benchmark system.

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
        x = np.asarray(x, dtype=float)
        return 0.5 * np.sum(x * x, axis=-1)

    def gamma(s: float) -> float:
        if s < 1.0 - 1e-9:
            raise ValueError(f"gain undefined for Frobenius magnitude {s!r} < 1")
        return 0.5 * math.sqrt(max(s * s - 1.0, 0.0))

    lyap = LyapunovSpec(
        v=v,
        alpha1=lambda r: 0.5 * r * r,
        alpha2=lambda r: 0.5 * r * r,
        alpha3=lambda r: 0.5 * r * r,
        alpha1_inv=lambda s: math.sqrt(2.0 * s),
        grad_v=lambda x: np.asarray(x, dtype=float).copy(),
        hess_v=lambda x: np.eye(2),
    )
    # f(x) = A x and h(x) = H0 + x1 H[0] + x2 H[1]
    a = [[-1.0, 1.0], [-1.0, -1.0]]
    h0 = [[0.0, 0.0], [0.0, 1.0]]
    h = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    drift, diffusion = _affine_dynamics(a, h0, h)
    return SystemSpec(
        dim_state=2,
        dim_noise=2,
        drift=drift,
        diffusion=diffusion,
        covariance=covariance,
        lyapunov=lyap,
        c=1.0,
        gamma=gamma,
        gamma_max=0.5,
        vectorized=True,
        name="example-2d",
        affine=(a, h0, h),
    )
