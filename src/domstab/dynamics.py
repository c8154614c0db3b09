"""Discrete dominance dynamics induced by a fitted stability response.

The change-rate definition S(t) = (D(t+1) - D(t)) / D(t) inverts to the map

    D(t+1) = D(t) * (1 + S(D(t)))

so any fitted model S = f(D) can be iterated forward.  Fixed points are the
roots of f; a fixed point D* is stable for the map exactly when the local
multiplier

    g'(D*) = 1 + f(D*) + D* f'(D*) = 1 + D* f'(D*)

has magnitude below one (f(D*) = 0 at a root).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Callable, Mapping, Sequence

import numpy as np

from .errors import DivergenceError, DomstabError
from .fitting import ModelFit
from .models import ModelKind, response, slope

__all__ = [
    "Trajectory",
    "FixedPoint",
    "Resilience",
    "CONVERGENCE_TOL",
    "ROOT_TOL",
    "MAX_STEPS",
    "SCAN_GRID",
    "iterate",
    "fixed_points",
    "resilience",
]

CONVERGENCE_TOL = 1e-10
ROOT_TOL = 1e-10
MAX_STEPS = 500  # default length of an iteration, and of a report's simulation
SCAN_GRID = 10_000  # intervals of the fixed-point scan
_CYCLE_AMPLITUDE = 1e-4  # relative swing required to call an orbit a 2-cycle


@dataclass(frozen=True)
class Trajectory:
    """Iterated dominance values and how the iteration ended.

    status is one of "converged" (successive change below tolerance),
    "oscillating" (period-2 cycle detected), "collapsed" (dominance reached zero
    or changed sign from ``values[0]``), or "max-steps".
    """

    values: tuple[float, ...]
    status: str


def iterate(
    kind: ModelKind,
    params: Mapping[str, float] | Sequence[float],
    start: float,
    max_steps: int = MAX_STEPS,
) -> Trajectory:
    """Iterate the dominance map from ``start`` for up to ``max_steps``."""
    rate_at = response(kind, params)
    values = [float(start)]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in range(1, max_steps + 1):
            current = values[-1]
            # a logistic pole's rate is +-inf or NaN, never ZeroDivisionError
            nxt = current * (1.0 + float(rate_at(current)))
            if not math.isfinite(nxt):
                raise DivergenceError(f"non-finite dominance at step {step}", step=step)
            values.append(nxt)
            if nxt == 0.0 or (nxt < 0.0) != (values[0] < 0.0):
                return Trajectory(tuple(values), "collapsed")
            if abs(nxt - current) < CONVERGENCE_TOL:
                return Trajectory(tuple(values), "converged")
            if (
                len(values) >= 3
                and abs(nxt - values[-3]) < CONVERGENCE_TOL
                and abs(nxt - current) > _CYCLE_AMPLITUDE * max(1.0, abs(nxt))
            ):
                # a genuine 2-cycle keeps a macroscopic swing; a damped
                # alternating approach (multiplier in (-1, 0)) does not
                return Trajectory(tuple(values), "oscillating")
    return Trajectory(tuple(values), "max-steps")


@dataclass(frozen=True)
class FixedPoint:
    location: float
    multiplier: float
    verdict: str  # "stable" | "unstable" | "marginal"


def fixed_points(
    kind: ModelKind,
    params: Mapping[str, float] | Sequence[float],
    domain: tuple[float, float],
) -> list[FixedPoint]:
    """Roots of the change rate on ``domain`` with stability verdicts.

    Sign changes on a uniform grid of ``SCAN_GRID`` intervals are refined
    by bisection.  Brackets with non-finite endpoints are skipped.  A
    refined candidate whose |S| is not finite or exceeds the larger |S| at its
    bracket's two grid ends is a pole crossing of a logistic denominator, not
    a root, and is discarded: near a pole |S| grows past both ends, at a root
    it falls below them.  A root on a grid point is always kept.  A domain
    with a non-finite end, or an empty one (``hi <= lo``), raises DomstabError.
    """
    lo, hi = float(domain[0]), float(domain[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomstabError(f"fixed-point domain ({lo!r}, {hi!r}) is not finite")
    if not (hi > lo):
        raise DomstabError(f"fixed-point domain ({lo!r}, {hi!r}) is empty")
    rate_at, slope_at = response(kind, params), slope(kind, params)
    xs = np.linspace(lo, hi, SCAN_GRID + 1)
    out: list[FixedPoint] = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ys = rate_at(xs)
        y0, y1 = ys[:-1], ys[1:]
        # brackets with finite ends that start on a root or change sign, by
        # comparing signs: the product of two tiny rates underflows to zero
        change = ((y0 < 0.0) != (y1 < 0.0)) & (y1 != 0.0)
        hits = np.isfinite(y0) & np.isfinite(y1) & ((y0 == 0.0) | change)
        # each candidate with the largest |S| it may keep and still be a root
        roots = [(float(xs[i]), math.inf) if ys[i] == 0.0
                 else (_bisect(rate_at, float(xs[i]), float(xs[i + 1]), float(ys[i])),
                       float(max(abs(ys[i]), abs(ys[i + 1]))))
                 for i in np.flatnonzero(hits)]
        if ys[-1] == 0.0:
            roots.append((float(xs[-1]), math.inf))
        for root, bound in sorted(roots):
            if out and abs(root - out[-1].location) <= (hi - lo) * 1e-12:
                continue  # duplicate from adjacent brackets
            rate = float(rate_at(root))
            if not abs(rate) <= bound:
                continue  # bracketed a pole, not a root; a NaN or infinite rate too
            mult = 1.0 + rate + root * slope_at(root)
            if abs(abs(mult) - 1.0) <= 1e-9:
                verdict = "marginal"
            elif abs(mult) < 1.0:
                verdict = "stable"
            else:
                verdict = "unstable"
            out.append(FixedPoint(location=root, multiplier=mult, verdict=verdict))
    return out


def _bisect(rate_at: Callable, lo: float, hi: float, y_lo: float) -> float:
    """Root of ``rate_at``'s sign change on [lo, hi]; the caller holds np.errstate."""
    while hi - lo > ROOT_TOL:
        mid = 0.5 * (lo + hi)
        y_mid = float(rate_at(mid))
        if y_mid == 0.0:
            return mid
        if (y_lo < 0) == (y_mid < 0):
            lo, y_lo = mid, y_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class Resilience:
    """Return tendency of a linear stability response: slope and its size."""

    slope: float
    magnitude: float


def resilience(fit: ModelFit) -> Resilience:
    """Resilience read off a linear fit: the signed slope b and |b|.

    Under the linear response the multiplier at the fixed point a/|b| is
    1 - a, so steeper negative slopes mean faster return after displacement;
    comparing |b| across subjects ranks their recovery speed.
    """
    if fit.kind is not ModelKind.LINEAR:
        raise DomstabError("resilience is defined for linear fits only")
    b = fit.params["b"]
    return Resilience(slope=b, magnitude=abs(b))
