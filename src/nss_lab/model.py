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
    "SYSTEMS",
]

_EPS = float(np.finfo(float).eps)
# central-difference steps of the gradient and the Hessian, relative to
# max(1, |x|): the round-off optima of a first and a second difference
_FD_STEP_GRAD, _FD_STEP_HESS = _EPS ** (1.0 / 3.0), _EPS ** (1.0 / 4.0)
_TOL = 1e-9  # slack for round-off in residuals that are analytically zero
_STATE_BLOCK = 256  # states per block, which bounds the (S, T, N, m) products


def _fd_derivatives(v: Callable, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """V, its gradient and its Hessian on a (S, N) block of states, shapes (S,),
    (S, N) and (S, N, N), from one call of ``v`` on the whole
    central-difference stencil: each state, and each state moved along each
    axis by ``±h1``, along each axis by ``±h2`` and along each pair of axes by
    ``±h2``, with ``h1 = eps^(1/3) max(1, |x|)`` and ``h2 = eps^(1/4) max(1, |x|)``."""
    s, n = x.shape
    scale = np.maximum(1.0, np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0]))[:, None]
    h1, h2 = _FD_STEP_GRAD * scale, _FD_STEP_HESS * scale
    e, (i, j) = np.eye(n), np.triu_indices(n, 1)
    axis = np.stack([e, -e], axis=1).reshape(-1, n)  # +e_0, -e_0, +e_1, ...
    si, sj = np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0]])[:, :, None]
    pair = (si * e[i, None] + sj * e[j, None]).reshape(-1, n)  # ++, +-, -+, -- per i < j
    moves = np.concatenate([np.zeros((1, n)), axis, axis, pair])
    step = np.where(np.arange(len(moves)) <= 2 * n, h1, h2)[:, :, None]
    # an axis not moved keeps its bits (x + 0 h would turn -0.0 into 0.0)
    pts = np.where(moves != 0.0, x[:, None, :] + moves * step, x[:, None, :])
    vals = v(pts.reshape(-1, n)).reshape(s, -1)
    v0, up, down = vals[:, 0], vals[:, 1:4 * n + 1:2], vals[:, 2:4 * n + 1:2]
    grad = (up[:, :n] - down[:, :n]) / (2.0 * h1)
    hess = np.empty((s, n, n))
    hess[:, e == 1.0] = (up[:, n:] + down[:, n:] - 2.0 * v0[:, None]) / (h2 * h2)
    pp, pm, mp, mm = np.moveaxis(vals[:, 4 * n + 1:].reshape(s, -1, 4), -1, 0)
    hess[:, i, j] = hess[:, j, i] = (pp - pm - mp + mm) / (4.0 * h2 * h2)
    return v0, grad, hess


def _call(name: str, fn: Callable, arg: np.ndarray, shape: tuple, hint: str = "") -> np.ndarray:
    """``fn(arg)`` as a float array of ``shape``; another shape raises a
    ValueError that names the map ``name`` and ends with ``hint``."""
    out = np.asarray(fn(arg), dtype=float)
    if out.shape != shape:
        raise ValueError(f"{name} returned shape {out.shape}, expected {shape}{hint}")
    return out


@dataclass(frozen=True)
class LyapunovSpec:
    """Lyapunov function V with its lower class-K-infinity envelope.

    ``alpha1`` bounds V from below, ``alpha1(|x|) <= V(x)``, and
    ``alpha1_inv`` is its inverse; the bounds need no other envelope.
    ``grad_v`` / ``hess_v`` are optional; central finite differences of
    ``v`` are used when they are absent (the function is assumed C^2 but may
    be black box).  Like ``v``, they take a batch of states, ``(S, N)`` to
    exactly ``(S, N)`` and ``(S, N, N)``.
    """

    v: Callable
    alpha1: Callable[[float], float]
    alpha1_inv: Callable[[float], float]
    grad_v: Optional[Callable] = None
    hess_v: Optional[Callable] = None


@dataclass(frozen=True, kw_only=True, eq=False)
class SystemSpec:
    """Full problem statement for one exponentially dissipative SDE.

    The dynamics are declared once: as ``drift`` and ``diffusion``, or as
    ``affine=(A, H0, H)``, meaning ``f(x) = A x`` and ``h(x) = H0 + sum_i
    x_i H[i]`` with shapes ``(N, N)``, ``(N, m)`` and ``(N, N, m)``; the
    simulator steps those by the blocked affine scan.  The premise check and
    the step loop take the maps from :attr:`dynamics`, so the premise check
    reads the system that is simulated.

    Every map takes a batch: ``drift``, ``diffusion`` and the Lyapunov ``v``,
    ``grad_v`` and ``hess_v`` take states ``(..., N)`` and return ``(..., N)``,
    ``(..., N, m)``, ``(...)``, ``(..., N)`` and ``(..., N, N)``;
    ``covariance`` takes a 1-D array of K times and returns ``(K, m, m)``; and
    ``gamma`` takes a 1-D array of K Frobenius magnitudes and returns one gain
    per magnitude, ``(K,)``.  A map that returns another shape where the
    premise check or :meth:`sigma_series` reads it raises ValueError.  The
    ensemble steps chunks of paths, and ``integrate(spec, cfg, i)`` equals
    path ``i`` of ``ensemble`` bit for bit.
    """

    dim_state: int
    dim_noise: int
    drift: Optional[Callable] = None
    diffusion: Optional[Callable] = None
    covariance: Callable
    lyapunov: LyapunovSpec
    c: float
    gamma: Callable[[np.ndarray], np.ndarray]
    gamma_max: float
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

    def sigma_series(self, times) -> np.ndarray:
        """Sigma(t) at every time of a 1-D sequence, shape (K, m, m), from one
        ``covariance`` call on the time array.  Any other shape raises ValueError."""
        times = np.asarray(times, dtype=float)
        m = self.dim_noise
        return _call("covariance", self.covariance, times, (len(times), m, m),
                     "; broadcast a constant S, e.g. np.broadcast_to(S, np.shape(t) + S.shape)")


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a numerical dissipation check on a finite sample.

    A point passes when its residual is at most ``_TOL`` (1e-9) plus the
    round-off of the gain at its time; see :func:`check_enss`.
    """

    points_checked: int
    max_violation: float
    violating_points: list
    gamma_max_violation: float

    @property
    def passed(self) -> bool:
        return not self.violating_points and self.gamma_max_violation <= _TOL


def _lv_plus_cv(spec: SystemSpec, x: np.ndarray, sigs: np.ndarray) -> np.ndarray:
    """``LV + cV`` on a (S, N) block of states at each Sigma of a (T, m, m)
    stack, shape (S, T): ``grad(V) . f(x) + 1/2 tr(S^T h^T hess(V) h S) + c V(x)``
    (V does not depend on t).  Drift, diffusion, V and its derivatives are each
    called once on the block."""
    s, n, m = len(x), spec.dim_state, spec.dim_noise
    lyap = spec.lyapunov
    drift, diffusion = spec.dynamics
    f, h = _call("drift", drift, x, (s, n)), _call("diffusion", diffusion, x, (s, n, m))
    if lyap.grad_v is None or lyap.hess_v is None:
        v, grad, hess = _fd_derivatives(lambda p: _call("v", lyap.v, p, (len(p),)), x)
    else:
        v = _call("v", lyap.v, x, (s,))
    if lyap.grad_v is not None:
        grad = _call("grad_v", lyap.grad_v, x, (s, n))
    if lyap.hess_v is not None:
        hess = _call("hess_v", lyap.hess_v, x, (s, n, n))
    hs = h[:, None] @ sigs
    lv = (grad[:, None, :] @ f[:, :, None])[:, :, 0] + 0.5 * np.trace(
        np.swapaxes(hs, -1, -2) @ hess[:, None] @ hs, axis1=-2, axis2=-1)
    return lv + spec.c * v[:, None]


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

    The residual at each point is ``LV(x, t) + c V(x) - gamma(s)``, with
    ``s = |Sigma Sigma^T|_F``, one table of states by times.  It passes when at
    most ``_TOL`` (1e-9) plus ``|gamma(s'') - gamma(s)|``, the gain's change over
    two ulps of s, and a NaN residual fails.  The declared ``gamma_max`` is
    additionally verified against ``gamma`` on ``gamma_times``, where a NaN gain
    fails too.  ``covariance`` is called once, on every time, and ``gamma``
    twice: on every magnitude, then on the nudged magnitudes at ``times``.
    Drift, diffusion, V and its derivatives are called once per block of
    ``_STATE_BLOCK`` states.
    """
    states = np.asarray(states, dtype=float)
    times = np.asarray(times, dtype=float)
    gamma_times = np.asarray(gamma_times, dtype=float)
    if not states.size or not times.size or not gamma_times.size:
        raise ValueError("state, time and gamma_times samples must be non-empty")
    if states.ndim != 2 or states.shape[1] != spec.dim_state:
        raise ValueError(f"state shape {states.shape} != (S, {spec.dim_state})")

    sigs = spec.sigma_series(np.concatenate([times, gamma_times]))
    mags = _noise_magnitudes(sigs)
    broadcast = "; broadcast a constant g, e.g. np.full(np.shape(s), g)"
    gains = _call("gamma", spec.gamma, mags, mags.shape, broadcast)
    nudged = np.nextafter(np.nextafter(mags[:len(times)], np.inf), np.inf)
    slack = _TOL + np.abs(_call("gamma", spec.gamma, nudged, nudged.shape, broadcast)
                          - gains[:len(times)])
    residuals = np.concatenate([
        _lv_plus_cv(spec, states[k:k + _STATE_BLOCK], sigs[:len(times)])
        for k in range(0, len(states), _STATE_BLOCK)
    ]) - gains[:len(times)]
    # "not at most the slack", so that a NaN residual violates
    violating = [(states[i], float(times[j]), float(residuals[i, j]))
                 for i, j in zip(*np.nonzero(~(residuals <= slack)))]
    return ConditionReport(
        points_checked=residuals.size,
        max_violation=float(residuals.max()),
        violating_points=violating,
        gamma_max_violation=float((gains[len(times):] - spec.gamma_max).max()),
    )


def _sum_of_squares(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The squares of the last axis of ``x`` added column by column, left to
    right, into ``out`` if given: for fewer than 8 columns the bits of
    ``np.sum(x * x, axis=-1)``, which regroups from 8 terms on and is far
    slower on that axis."""
    acc = np.multiply(x[..., 0], x[..., 0], out=out)
    for i in range(1, x.shape[-1]):
        acc += x[..., i] * x[..., i]
    return acc


def _quadratic_lyapunov(n: int) -> LyapunovSpec:
    """V(x) = |x|^2 / 2 on R^n, its exact gradient and Hessian, ``alpha1(r) = r^2 / 2``
    and its inverse, for states and batches.  V halves :func:`_sum_of_squares`."""
    return LyapunovSpec(v=lambda x: 0.5 * _sum_of_squares(np.asarray(x, dtype=float)),
                        alpha1=lambda r: 0.5 * r * r, alpha1_inv=lambda s: math.sqrt(2.0 * s),
                        grad_v=lambda x: np.asarray(x, dtype=float).copy(),
                        hess_v=lambda x: np.broadcast_to(np.eye(n), np.shape(x) + (n,)))


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

    def gamma(s):
        s = np.asarray(s, dtype=float)
        low = s[s < 1.0 - 1e-9]
        if low.size:
            raise ValueError(f"gain undefined for Frobenius magnitude {float(low.min())!r} < 1")
        return 0.5 * np.sqrt(np.maximum(s * s - 1.0, 0.0))

    # f(x) = A x and h(x) = H0 + x1 H[0] + x2 H[1]
    a = [[-1.0, 1.0], [-1.0, -1.0]]
    h0 = [[0.0, 0.0], [0.0, 1.0]]
    h = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    return SystemSpec(
        dim_state=2,
        dim_noise=2,
        covariance=covariance,
        lyapunov=_quadratic_lyapunov(2),
        c=1.0,
        gamma=gamma,
        gamma_max=0.5,
        affine=(a, h0, h),
    )


def _ou_1d(**dynamics) -> SystemSpec:
    """dx = -x dt + dW with V = x^2 / 2, c = 2 and gamma = 1/2: the premise
    LV + cV <= gamma holds with equality."""
    return SystemSpec(dim_state=1, dim_noise=1, covariance=lambda t: np.ones(np.shape(t) + (1, 1)),
                      lyapunov=_quadratic_lyapunov(1), c=2.0,
                      gamma=lambda s: np.full(np.shape(s), 0.5), gamma_max=0.5, **dynamics)


# The built-in systems that system.name picks: name -> cached builder.  ou-1d-affine
# declares ou-1d as affine=(A, H0, H), so that the affine scan has an exact system too.
SYSTEMS = {
    "example-2d": builtin_example,
    "ou-1d": cache(lambda: _ou_1d(drift=lambda x: -np.asarray(x, dtype=float),
                                  diffusion=lambda x: np.ones(np.shape(x)[:-1] + (1, 1)))),
    "ou-1d-affine": cache(lambda: _ou_1d(affine=([[-1.0]], [[1.0]], [[[0.0]]]))),
}
