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
from typing import Mapping, Sequence

import numpy as np

from .errors import DivergenceError, KindError
from .fitting import ModelFit
from .models import ModelKind, derivative, evaluate, evaluate_array

__all__ = [
    "Trajectory",
    "FixedPoint",
    "Resilience",
    "CONVERGENCE_TOL",
    "ROOT_TOL",
    "iterate",
    "fixed_points",
    "resilience",
]

CONVERGENCE_TOL = 1e-10
ROOT_TOL = 1e-10
DEFAULT_GRID = 10_000
_CYCLE_AMPLITUDE = 1e-4  # relative swing required to call an orbit a 2-cycle


@dataclass(frozen=True)
class Trajectory:
    """Iterated dominance values and how the iteration ended.

    status is one of "converged" (successive change below tolerance),
    "oscillating" (period-2 cycle detected), "collapsed" (dominance hit zero
    or below at step ``detail``), or "max-steps".
    """

    start: float
    values: tuple[float, ...]
    status: str
    detail: float | None = None


def iterate(
    kind: ModelKind,
    params: Mapping[str, float] | Sequence[float],
    start: float,
    max_steps: int = 500,
) -> Trajectory:
    """Iterate the dominance map from ``start`` for up to ``max_steps``."""
    values = [float(start)]
    for step in range(1, max_steps + 1):
        current = values[-1]
        # the array form lets a pole's non-finite rate reach the divergence check
        rate = float(evaluate_array(kind, params, np.array([current]))[0])
        nxt = current * (1.0 + rate)
        if not math.isfinite(nxt):
            raise DivergenceError(f"non-finite dominance at step {step}", step=step)
        values.append(nxt)
        if nxt <= 0.0:
            return Trajectory(start, tuple(values), "collapsed", detail=float(step))
        if abs(nxt - current) < CONVERGENCE_TOL:
            return Trajectory(start, tuple(values), "converged", detail=nxt)
        if (
            len(values) >= 3
            and abs(nxt - values[-3]) < CONVERGENCE_TOL
            and abs(nxt - current) > _CYCLE_AMPLITUDE * max(1.0, abs(nxt))
        ):
            # a genuine 2-cycle keeps a macroscopic swing; a damped
            # alternating approach (multiplier in (-1, 0)) does not
            return Trajectory(start, tuple(values), "oscillating")
    return Trajectory(start, tuple(values), "max-steps")


@dataclass(frozen=True)
class FixedPoint:
    location: float
    multiplier: float
    verdict: str  # "stable" | "unstable" | "marginal"


def _multiplier_at(
    kind: ModelKind, params: Mapping[str, float] | Sequence[float], root: float
) -> float:
    slope = derivative(kind, params, root)
    if isinstance(slope, tuple):
        slope = slope[1]  # root exactly on a piecewise joint: use the right side
    rate = evaluate(kind, params, root)
    return 1.0 + rate + root * slope


def fixed_points(
    kind: ModelKind,
    params: Mapping[str, float] | Sequence[float],
    domain: tuple[float, float],
    grid: int = DEFAULT_GRID,
) -> list[FixedPoint]:
    """Roots of the change rate on ``domain`` with stability verdicts.

    Sign changes on a uniform grid are refined by bisection.  Brackets with
    non-finite endpoints are skipped, and candidates where |S| stays large
    (pole crossings of the logistic denominators) are discarded.
    """
    lo, hi = float(domain[0]), float(domain[1])
    if not (hi > lo):
        raise ValueError("domain must satisfy hi > lo")
    xs = np.linspace(lo, hi, grid + 1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ys = evaluate_array(kind, params, xs)
        y0, y1 = ys[:-1], ys[1:]
        # brackets with finite ends that start on a root or change sign
        hits = np.isfinite(y0) & np.isfinite(y1) & ((y0 == 0.0) | (y0 * y1 < 0.0))
    roots = [float(xs[i]) if ys[i] == 0.0
             else _bisect(kind, params, float(xs[i]), float(xs[i + 1]), float(ys[i]))
             for i in np.flatnonzero(hits)]
    if ys[-1] == 0.0:
        roots.append(float(xs[-1]))

    out: list[FixedPoint] = []
    span = hi - lo
    for root in sorted(roots):
        if out and abs(root - out[-1].location) <= span * 1e-12:
            continue  # duplicate from adjacent brackets
        rate = evaluate(kind, params, root)
        if abs(rate) >= 1e-9:
            continue  # bracketed a pole, not a root
        mult = _multiplier_at(kind, params, root)
        if abs(abs(mult) - 1.0) <= 1e-9:
            verdict = "marginal"
        elif abs(mult) < 1.0:
            verdict = "stable"
        else:
            verdict = "unstable"
        out.append(FixedPoint(location=root, multiplier=mult, verdict=verdict))
    return out


def _bisect(
    kind: ModelKind,
    params: Mapping[str, float] | Sequence[float],
    lo: float,
    hi: float,
    y_lo: float,
) -> float:
    while hi - lo > ROOT_TOL:
        mid = 0.5 * (lo + hi)
        y_mid = float(evaluate_array(kind, params, np.array([mid]))[0])
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
        raise KindError("resilience is defined for linear fits only")
    slope = fit.params["b"]
    return Resilience(slope=slope, magnitude=abs(slope))
