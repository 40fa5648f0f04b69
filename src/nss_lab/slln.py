"""Uniformization and dominated-coupling constructions for adapted sequences.

The pipeline: map an adapted sequence through its conditional CDFs (with atom
randomization) to i.i.d. uniforms, push the uniforms through a generalized
inverse CDF of a dominating law, and obtain an i.i.d. sequence that bounds the
original one pathwise.  Sample averages of the coupled sequence then control
the running averages of the original sequence from one side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ConditionalCdf",
    "DominatingLaw",
    "CouplingViolationError",
    "uniformize",
    "inverse_cdf_inf",
    "inverse_cdf_sup",
    "dominated_coupling_upper",
    "dominated_coupling_lower",
]

_BISECT_TOL = 1e-12
_BRACKET_BUDGET = 200


class CouplingViolationError(RuntimeError):
    """Pathwise coupling inequality failed: the dominance hypothesis is wrong."""

    def __init__(self, index: int, x: float, z: float, side: str):
        super().__init__(
            f"coupling violated at index {index}: sample {x!r} vs coupled {z!r} "
            f"({side} dominance hypothesis does not hold)"
        )
        self.index = index


@dataclass(frozen=True)
class ConditionalCdf:
    """Conditional distribution of the next element given the history so far.

    ``eval(s, history)`` is P{X_n <= s | history}; ``left_limit`` its left
    limit in s.  For continuous laws the two coincide.  Within a coupling,
    ``history`` is a read-only float array of the first n elements
    (``xs[:n]``) that shares memory with ``xs``: copy it to keep it past the
    call, and test its length with ``len(history)``, not its truth value.
    """

    eval: Callable[[float, Sequence[float]], float]
    left_limit: Callable[[float, Sequence[float]], float]

    @classmethod
    def from_marginal(cls, cdf: Callable[[float], float],
                      left: Optional[Callable[[float], float]] = None) -> "ConditionalCdf":
        """History-independent (i.i.d.) conditional CDF from a marginal."""
        if left is None:
            left = cdf
        return cls(eval=lambda s, _h: cdf(s), left_limit=lambda s, _h: left(s))


@dataclass(frozen=True)
class DominatingLaw:
    """A fixed law given by its CDF."""

    cdf: Callable[[float], float]

    @classmethod
    def from_cdf(cls, cdf: Callable[[float], float]) -> "DominatingLaw":
        return cls(cdf=cdf)


def uniformize(x_n: float, history: Sequence[float], xi_n: float,
               g: ConditionalCdf) -> float:
    """One step of the atom-randomized probability integral transform.

    Returns ``g(x-) + xi * (g(x) - g(x-))``, which is U(0,1) when the
    conditional CDF is correct and xi is an independent uniform draw.
    ``history`` (the elements before x_n) is handed to ``g`` as given, not
    copied, so the step costs O(1) plus the two CDF evaluations.
    """
    if not (0.0 <= xi_n <= 1.0):
        raise ValueError(f"xi_n={xi_n!r} outside [0, 1]")
    lo = float(g.left_limit(x_n, history))
    hi = float(g.eval(x_n, history))
    if hi < lo - 1e-12:
        raise ValueError(
            f"conditional CDF not monotone at {x_n!r}: left limit {lo!r} > value {hi!r}"
        )
    lo = min(max(lo, 0.0), 1.0)
    hi = min(max(hi, lo), 1.0)
    return lo + xi_n * (hi - lo)


def _expand_bracket(predicate, start: float, direction: float) -> float:
    """Geometric expansion from start until predicate holds; returns the point."""
    s = start
    for _ in range(_BRACKET_BUDGET):
        if predicate(s):
            return s
        s = s * 2.0 if s * direction > 0 else direction
    raise RuntimeError("bracket expansion budget exhausted (pathological CDF)")


def _bisect_edge(y: float, f: DominatingLaw, tol: float,
                 strict: bool) -> Tuple[float, float]:
    """Bracket ``(lo, hi)`` of the lower edge of ``{s | F(s) >= y}``, or of
    ``{s | F(s) > y}`` when ``strict``: ``hi`` is in the set and ``lo`` is not.
    """
    if not (0.0 < y < 1.0):
        raise ValueError(f"y={y!r} outside (0, 1)")
    cdf = f.cdf

    def in_set(s: float) -> bool:
        return cdf(s) > y if strict else cdf(s) >= y

    hi = _expand_bracket(in_set, 1.0, 1.0)
    lo = _expand_bracket(lambda s: not in_set(s), -1.0, -1.0)
    for _ in range(_BRACKET_BUDGET):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        # in_set inlined: this loop is the hot path of every coupling
        fm = cdf(mid)
        if fm > y if strict else fm >= y:
            hi = mid
        else:
            lo = mid
        if hi - lo <= tol:
            break
    return lo, hi


def inverse_cdf_inf(y: float, f: DominatingLaw, tol: float = _BISECT_TOL) -> float:
    """Generalized inverse ``inf{s | F(s) >= y}`` by monotone bisection."""
    return _bisect_edge(y, f, tol, strict=False)[1]


def inverse_cdf_sup(y: float, f: DominatingLaw, tol: float = _BISECT_TOL) -> float:
    """Generalized inverse ``sup{s | F(s) <= y}``.

    Agrees with :func:`inverse_cdf_inf` except where the CDF has a flat
    stretch exactly at level y (a probability-zero event for uniform y).
    """
    return _bisect_edge(y, f, tol, strict=True)[0]


def _coupled_sequence(xs: Sequence[float], g: ConditionalCdf, f: DominatingLaw,
                      seed: int, upper: bool) -> np.ndarray:
    rng = np.random.default_rng(seed)
    # A read-only view, so g cannot alter the elements still to be coupled;
    # the caller's array keeps its own flags.
    view = np.asarray(xs, dtype=float).view()
    view.flags.writeable = False
    out = np.empty(len(view))
    for n, x in enumerate(view.tolist()):
        xi = float(rng.uniform())
        y = uniformize(x, view[:n], xi, g)
        if upper:
            z = inverse_cdf_sup(y, f)
            # F(x) <= y makes x a member of {s | F(s) <= y}, so the true
            # supremum is >= x; taking the max removes bisection round-off
            # without changing the mathematical value.
            if math.isfinite(x) and f.cdf(x) <= y:
                z = max(z, x)
            if z < x:
                raise CouplingViolationError(n, x, z, "upper")
        else:
            z = inverse_cdf_inf(y, f)
            if math.isfinite(x) and f.cdf(x) >= y:
                z = min(z, x)
            if z > x:
                raise CouplingViolationError(n, x, z, "lower")
        out[n] = z
    return out


def dominated_coupling_upper(xs: Sequence[float], g: ConditionalCdf,
                             f: DominatingLaw, seed: int) -> np.ndarray:
    """Couple an adapted sequence to i.i.d. draws from f with Z_n >= X_n.

    Valid when the conditional survival of every X_n is dominated by the
    survival of f (light-tail hypothesis); a pathwise violation raises
    :class:`CouplingViolationError` with the offending index.
    """
    return _coupled_sequence(xs, g, f, seed, upper=True)


def dominated_coupling_lower(xs: Sequence[float], g: ConditionalCdf,
                             f: DominatingLaw, seed: int) -> np.ndarray:
    """Mirror coupling with Z_n <= X_n; supports +inf entries in xs."""
    return _coupled_sequence(xs, g, f, seed, upper=False)
