"""Uniformization and dominated-coupling constructions for adapted sequences.

The pipeline: map an adapted sequence through its conditional CDFs (with atom
randomization) to i.i.d. uniforms, push the uniforms through a generalized
inverse CDF of a dominating law, and obtain an i.i.d. sequence that bounds the
original one pathwise.  Sample averages of the coupled sequence then control
the running averages of the original sequence from one side.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

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

_TOL = 1e-12
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
    def from_marginal(cls, cdf: Callable[[float], float]) -> "ConditionalCdf":
        """History-independent (i.i.d.) conditional CDF from a continuous
        marginal, which serves as its own left limit: one callable is stored
        as both ``eval`` and ``left_limit``, so :func:`uniformize` calls it
        once per element."""
        def g(s, _h):
            return cdf(s)

        return cls(eval=g, left_limit=g)


@dataclass(frozen=True)
class DominatingLaw:
    """A fixed law given by its CDF.

    ``cdf`` must return floats, be nondecreasing in floating point, and give
    the same value at every call for the same s: the inversion brackets each
    edge by comparing CDF values, keeps values it has already computed, and
    carries a point known to lie outside one level's set over to every
    higher level.
    """

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
    copied, so the step costs O(1) plus the CDF evaluations: two, or one
    when ``g.left_limit is g.eval`` (a continuous law, as
    :meth:`ConditionalCdf.from_marginal` builds), where the result is that
    value clipped to [0, 1] and xi has no effect.
    """
    if not (0.0 <= xi_n <= 1.0):
        raise ValueError(f"xi_n={xi_n!r} outside [0, 1]")
    lo = float(g.left_limit(x_n, history))
    if g.left_limit is g.eval:
        return min(max(lo, 0.0), 1.0)
    hi = float(g.eval(x_n, history))
    if hi < lo - 1e-12:
        raise ValueError(
            f"conditional CDF not monotone at {x_n!r}: left limit {lo!r} > value {hi!r}"
        )
    lo = min(max(lo, 0.0), 1.0)
    hi = min(max(hi, lo), 1.0)
    return lo + xi_n * (hi - lo)


def _expand_bracket(cdf, inside, direction: float) -> Tuple[float, float]:
    """Geometric expansion from ``direction`` (+1 or -1) until ``inside(F(s))``
    holds; returns the point and its CDF value."""
    s = direction
    for _ in range(_BRACKET_BUDGET):
        v = cdf(s)
        if inside(v):
            return s, v
        s *= 2.0
    raise RuntimeError("bracket expansion budget exhausted (pathological CDF)")


def _narrow(cdf, y: float, a: float, fa: float, b: float, fb: float,
            slope: float, tol: float) -> Tuple[float, float, float, float]:
    """Narrow ``(a, b)`` to the edge of ``{s | F(s) >= y}``: ``a`` is out of
    the set, ``b`` in it or ``inf``.  Returns ``(a, F(a), b, F(b))`` with
    ``b - a <= tol`` unless the two are adjacent floats.

    An infinite ``b`` is first sought by a secant step at ``slope`` that
    doubles until it is back in the set.  The bracket is then narrowed by a
    safeguarded Illinois regula falsi.
    """
    if b == math.inf:
        # Twice the secant distance from a to the edge, at most doubling
        # the magnitude, as the first bracket's expansion does.
        step = 2.0 * (y - fa) / slope if slope > 0.0 else math.inf
        step = min(max(step, tol), max(1.0, abs(a)))
        for _ in range(_BRACKET_BUDGET):
            b = a + step
            fb = cdf(b)
            if fb >= y:
                break
            a, fa = b, fb
            step *= 2.0
        else:
            raise RuntimeError("bracket expansion budget exhausted (pathological CDF)")
    # Illinois regula falsi on F - y.  ``wa`` and ``wb`` are the distances
    # of F(a) and F(b) from y; the one at an end kept twice in a row is
    # halved.  A trial that leaves F unchanged at the end it replaces has met
    # a flat stretch or an atom, where the secant says nothing, so the next
    # trial bisects; so does the trial after three that have not halved the
    # bracket, and any trial once the weights have halved to 0 (possible
    # only where F is subnormal).
    quarter = 0.25 * tol
    wa, wb = y - fa, fb - y
    side = 0
    width = b - a
    slow = 0
    flat = False
    for _ in range(_BRACKET_BUDGET):
        mid = 0.5 * (a + b)
        if b - a <= tol or mid == a or mid == b:
            break
        s = mid
        if not flat and slow < 3 and wa + wb > 0.0:
            s = min(max(a + (b - a) * (wa / (wa + wb)), a + quarter), b - quarter)
            if not a < s < b:
                # Where tol/4 is below half an ulp of the ends, the clamp
                # rounds to an end: try the float next to it instead.  A
                # NaN trial bisects.
                s = (math.nextafter(a, b) if s <= a else
                     math.nextafter(b, a) if s >= b else mid)
        fs = cdf(s)
        if fs >= y:
            flat = fs == fb
            b, fb, wb = s, fs, fs - y
            if side == 1:
                wa *= 0.5
            side = 1
        else:
            flat = fs == fa
            a, fa, wa = s, fs, y - fs
            if side == -1:
                wb *= 0.5
            side = -1
        if b - a <= 0.5 * width:
            width = b - a
            slow = 0
        else:
            slow += 1
    return a, fa, b, fb


def _edges(levels: Sequence[float], f: DominatingLaw, tol: float,
           strict: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Brackets ``(lo, hi)`` of the lower edge of ``{s | F(s) >= y}``, or of
    ``{s | F(s) > y}`` when ``strict``, for every level y in (0, 1):
    ``hi[i]`` is in level i's set, ``lo[i]`` is not, and ``hi - lo <= tol``
    unless the two are adjacent floats.

    The levels are swept in ascending order.  Only the first expands a
    bracket from ``[-1, 1]``.  The sets shrink as y grows, so each later
    level keeps its predecessor's bracket: the low end stays outside the
    set, and the high end is checked against the CDF value already known
    there.  If the high end has left the set, it becomes the low end, and
    the edge is predicted by inverse interpolation: the cubic in F through
    the points ``(F(b), b)`` that the last four moves of the high end ended
    on, evaluated at y.  The sweep probes tol/4 on each side of the
    prediction; when the two probes bracket the edge the level is done.
    Otherwise (fewer than four points yet, a prediction more than one
    expansion step away, or a miss, as across atoms and flat stretches)
    :func:`_narrow` finishes the bracket from the tightest ends the probes
    left.  On 2e4 uniform levels of Exp(1/2) the probes bracket 86% of the
    levels, and a level takes 2.36 CDF calls.  A level's bracket thus
    depends, within tol, on the levels swept before it.
    """
    levels = np.asarray(levels, dtype=float)
    lo = np.empty(len(levels))
    hi = np.empty(len(levels))
    if not len(levels):
        return lo, hi
    order = np.argsort(levels, kind="stable")
    ys = levels[order]
    if strict:
        # For float CDF values, F > y exactly where F >= the next float above y.
        ys = np.nextafter(ys, math.inf)
    cdf = f.cdf
    quarter = 0.25 * tol
    y = float(ys[0])
    b, fb = _expand_bracket(cdf, lambda v: v >= y, 1.0)
    a, fa = _expand_bracket(cdf, lambda v: v < y, -1.0)
    a, fa, b, fb = _narrow(cdf, y, a, fa, b, fb, 0.0, tol)
    # Newton form of the inverse interpolant through the last four points
    # (F(b), b), newest first: (fb, b), then nodes f1, f2 and one more;
    # t1-t3 are its divided differences.  The F values of the points rise
    # strictly, since each lies in a set that its predecessor has left.  The
    # first level's two ends are the first two points; NaN marks a
    # difference that needs points not met yet.
    t1, f1 = (b - a) / (fb - fa), fa
    t2 = t3 = f2 = math.nan
    # The brackets in sorted order, as raw doubles, scattered once at the end.
    los = array("d")
    his = array("d")
    # memoryview yields Python numbers one at a time, without a list of all.
    for y in memoryview(ys):
        if fb < y:
            a, fa = b0, f0 = b, fb
            b = math.inf  # no point of the set is known yet
            d = (y - fa) * (t1 + (y - f1) * (t2 + (y - f2) * t3))
            # The probes, unrolled (a loop over the two costs about a tenth
            # of the sweep), run only when the prediction moves at most as
            # far as the first expansion step may.
            if 0.0 < d and (d <= 1.0 or d <= abs(a)):
                s = a + d - quarter
                if a < s:
                    fs = cdf(s)
                    if fs >= y:
                        b, fb = s, fs
                    else:
                        a, fa = s, fs
                s += 0.5 * tol
                if a < s < b:
                    fs = cdf(s)
                    if fs >= y:
                        b, fb = s, fs
                    else:
                        a, fa = s, fs
            if not b - a <= tol:
                # The fallback's secant slope is that of the last move.
                a, fa, b, fb = _narrow(cdf, y, a, fa, b, fb, 1.0 / t1, tol)
            u1 = (b - b0) / (fb - f0)
            u2 = (u1 - t1) / (fb - f1)
            t1, t2, t3 = u1, u2, (u2 - t2) / (fb - f2)
            f1, f2 = f0, f1
        los.append(a)
        his.append(b)
    lo[order] = np.frombuffer(los)
    hi[order] = np.frombuffer(his)
    return lo, hi


def _edge(y: float, f: DominatingLaw, strict: bool) -> Tuple[float, float]:
    if not (0.0 < y < 1.0):
        raise ValueError(f"y={y!r} outside (0, 1)")
    lo, hi = _edges([y], f, _TOL, strict)
    return float(lo[0]), float(hi[0])


def inverse_cdf_inf(y: float, f: DominatingLaw) -> float:
    """Generalized inverse ``inf{s | F(s) >= y}``, to within 1e-12 above it.

    The upper end of the bracket that :func:`_edges` narrows for one level.
    """
    return _edge(y, f, strict=False)[1]


def inverse_cdf_sup(y: float, f: DominatingLaw) -> float:
    """Generalized inverse ``sup{s | F(s) <= y}``, to within 1e-12 below it.

    The lower end of the bracket that :func:`_edges` narrows for one level.
    Agrees with :func:`inverse_cdf_inf` except where the CDF has a flat
    stretch exactly at level y (a probability-zero event for uniform y).
    """
    return _edge(y, f, strict=True)[0]


def _coupled_sequence(xs: Sequence[float], g: ConditionalCdf, f: DominatingLaw,
                      seed: int, upper: bool) -> np.ndarray:
    # A read-only view, so g cannot alter the elements still to be coupled;
    # the caller's array keeps its own flags.
    view = np.asarray(xs, dtype=float).view()
    view.flags.writeable = False
    nan = np.flatnonzero(np.isnan(view))
    if len(nan):
        raise ValueError(f"xs[{nan[0]}]={float(view[nan[0]])!r} is not a number")
    # Pass 1, in index order: the levels.  One draw of all xi gives the same
    # bits as one scalar draw per element; ys holds each xi until its level
    # replaces it.  An error stops the pass; it is raised after the elements
    # before it are checked, so the lowest index is reported first.
    ys = np.random.default_rng(seed).uniform(size=len(view))
    error = None
    for n, (x, xi) in enumerate(zip(memoryview(view), memoryview(ys))):
        try:
            y = uniformize(x, view[:n], xi, g)
        except ValueError as exc:
            error = exc
        else:
            if not (0.0 < y < 1.0):
                error = ValueError(
                    f"level y={y!r} of xs[{n}]={x!r} outside (0, 1)")
        if error is not None:
            ys = ys[:n]
            break
        ys[n] = y
    # Pass 2: invert the dominating law at every level in one sorted sweep.
    lo, hi = _edges(ys, f, _TOL, strict=upper)
    # Pass 3, in index order: the pathwise check, on the elements where z is
    # on the wrong side of x.  F(x) <= y makes x a member of {s | F(s) <= y},
    # so the true supremum is >= x and only the sweep's round-off put z
    # below it: z becomes x (mirrored for the lower side).  Otherwise the
    # dominance hypothesis fails.
    zs = lo if upper else hi
    head = view[:len(zs)]
    cdf = f.cdf
    for n in np.flatnonzero(zs < head if upper else zs > head).tolist():
        x, y = float(head[n]), float(ys[n])
        if math.isfinite(x) and (cdf(x) <= y if upper else cdf(x) >= y):
            zs[n] = x
        else:
            raise CouplingViolationError(n, x, float(zs[n]),
                                         "upper" if upper else "lower")
    if error is not None:
        raise error
    return zs


def dominated_coupling_upper(xs: Sequence[float], g: ConditionalCdf,
                             f: DominatingLaw, seed: int) -> np.ndarray:
    """Couple an adapted sequence to i.i.d. draws from f with Z_n >= X_n.

    Valid when the conditional survival of every X_n is dominated by the
    survival of f (light-tail hypothesis); a pathwise violation raises
    :class:`CouplingViolationError` with the offending index.  A NaN element,
    or a level outside (0, 1), raises ``ValueError`` naming its index.

    Each Z_n is within 1e-12 of ``sup{s | F(s) <= U_n}`` at its uniform
    level U_n.  All levels are inverted in one sorted sweep, so below that
    tolerance Z_n depends on the other elements' levels.
    """
    return _coupled_sequence(xs, g, f, seed, upper=True)


def dominated_coupling_lower(xs: Sequence[float], g: ConditionalCdf,
                             f: DominatingLaw, seed: int) -> np.ndarray:
    """Mirror coupling with Z_n <= X_n; supports +inf entries in xs.

    Each Z_n is within 1e-12 of ``inf{s | F(s) >= U_n}``, from the same
    sorted sweep over all levels as :func:`dominated_coupling_upper`.
    """
    return _coupled_sequence(xs, g, f, seed, upper=False)
