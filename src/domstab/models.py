"""Phenomenological stability-response models S = f(D).

Five forms relate the dominance change rate S to dominance D:

    linear               S = a + b*D
    logistic             S = K / (1 + a*exp(-r*D))
    logistic-sine        S = K / (1 + a*exp(-r*D)) * sin(D / pi)
    linear-quadratic     S = a + b*D + c*D^2 + (D-d)*sgn(D-d) * (c*(D+d) + e)
    quadratic-quadratic  S = a + b*D + c*D^2 + (D-d)*sgn(D-d) * (e*(D+d) + f)

with sgn(0) = 0, so (D-d)*sgn(D-d) is |D-d| and the two piecewise forms are
continuous at the joint d.  Expanding the piecewise forms per branch:

    linear-quadratic     D < d:  (a + c*d^2 + e*d) + (b - e)*D
                         D > d:  (a - c*d^2 - e*d) + (b + e)*D + 2*c*D^2
    quadratic-quadratic  D < d:  (a + e*d^2 + f*d) + (b - f)*D + (c - e)*D^2
                         D > d:  (a - e*d^2 - f*d) + (b + f)*D + (c + e)*D^2

so the derived coefficients are b1 = b - e, c2 = 2*c for linear-quadratic
and b1 = b - f, c1 = c - e, c2 = c + e for quadratic-quadratic.

The regime at a dominance level is the sign of dS/dD: negative means
dominance-dependent stability (DDS, the change rate falls as dominance
rises), positive means dominance-increased instability (DID), zero within
tolerance means dominance-independent stability (DIS).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import EvalError, KindError

__all__ = [
    "ModelKind",
    "Regime",
    "JointAmbiguous",
    "DerivedParams",
    "EquilibriumPoint",
    "REGIME_TOLERANCE",
    "param_vector",
    "param_dict",
    "evaluate",
    "evaluate_array",
    "derivative",
    "branch_polynomials",
    "derived_params",
    "regime_at",
    "qualitative_equilibria",
]

REGIME_TOLERANCE = 1e-9


class ModelKind(enum.Enum):
    LINEAR = "linear"
    LOGISTIC = "logistic"
    LOGISTIC_SINE = "logistic-sine"
    LINEAR_QUADRATIC = "linear-quadratic"
    QUADRATIC_QUADRATIC = "quadratic-quadratic"

    @property
    def param_names(self) -> tuple[str, ...]:
        return _PARAM_NAMES[self]

    @property
    def arity(self) -> int:
        return len(_PARAM_NAMES[self])

    @property
    def piecewise(self) -> bool:
        return self in (ModelKind.LINEAR_QUADRATIC, ModelKind.QUADRATIC_QUADRATIC)

    @property
    def logistic_family(self) -> bool:
        return self in (ModelKind.LOGISTIC, ModelKind.LOGISTIC_SINE)


_PARAM_NAMES: dict[ModelKind, tuple[str, ...]] = {
    ModelKind.LINEAR: ("a", "b"),
    ModelKind.LOGISTIC: ("K", "a", "r"),
    ModelKind.LOGISTIC_SINE: ("K", "a", "r"),
    ModelKind.LINEAR_QUADRATIC: ("a", "b", "c", "d", "e"),
    ModelKind.QUADRATIC_QUADRATIC: ("a", "b", "c", "d", "e", "f"),
}


def param_vector(kind: ModelKind, params: Mapping[str, float] | Sequence[float]) -> np.ndarray:
    """Canonical parameter vector in ``kind.param_names`` order."""
    names = kind.param_names
    if isinstance(params, Mapping):
        missing = [name for name in names if name not in params]
        if missing:
            raise KindError(f"{kind.value} params missing {missing}")
        vec = np.array([float(params[name]) for name in names])
    else:
        vec = np.asarray(params, dtype=float)
        if vec.shape != (len(names),):
            raise KindError(
                f"{kind.value} expects {len(names)} parameters, got {vec.shape}"
            )
    return vec


def param_dict(kind: ModelKind, vector: Sequence[float]) -> dict[str, float]:
    vec = param_vector(kind, vector)
    return {name: float(v) for name, v in zip(kind.param_names, vec)}


def evaluate_array(
    kind: ModelKind, params: Mapping[str, float] | Sequence[float], dom: np.ndarray
) -> np.ndarray:
    """Vectorized model evaluation; non-finite results pass through silently.

    The scalar wrapper :func:`evaluate` raises EvalError on non-finite
    output; this array form leaves the caller (the fitter, or the dominance
    map's divergence check) to deal with it.
    """
    vec = param_vector(kind, params)
    dom = np.asarray(dom, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if kind is ModelKind.LINEAR:
            a, b = vec
            return a + b * dom
        if kind.logistic_family:
            big_k, a, r = vec
            out = big_k / (1.0 + a * np.exp(-r * dom))
            if kind is ModelKind.LOGISTIC_SINE:
                out = out * np.sin(dom / math.pi)
            return out
        if kind is ModelKind.LINEAR_QUADRATIC:
            a, b, c, d, e = vec
            return a + b * dom + c * dom**2 + np.abs(dom - d) * (c * (dom + d) + e)
        if kind is ModelKind.QUADRATIC_QUADRATIC:
            a, b, c, d, e, f = vec
            return a + b * dom + c * dom**2 + np.abs(dom - d) * (e * (dom + d) + f)
    raise KindError(f"unknown model kind {kind!r}")


def evaluate(
    kind: ModelKind, params: Mapping[str, float] | Sequence[float], dom: float
) -> float:
    """Change rate S at dominance ``dom``.  Raises EvalError if non-finite."""
    out = float(evaluate_array(kind, params, np.array([dom]))[0])
    if not math.isfinite(out):
        raise EvalError(f"{kind.value} model is non-finite at D={dom!r}")
    return out


def derivative(
    kind: ModelKind, params: Mapping[str, float] | Sequence[float], dom: float
) -> float | tuple[float, float]:
    """Analytic dS/dD at ``dom``.

    For the piecewise kinds evaluated exactly at the joint, the two one-sided
    derivatives are returned as a (left, right) pair; everywhere else the
    return value is a plain float.
    """
    vec = param_vector(kind, params).tolist()  # Python floats: report cells take no NumPy scalar
    if kind is ModelKind.LINEAR:
        return vec[1]
    if kind.logistic_family:
        big_k, a, r = vec
        expo = _exp(-r * dom) if a else 0.0  # a = 0 leaves no exponential term
        finite = math.isfinite(a * expo)
        # the model stays finite where exp(-r*D) or a*exp(-r*D) overflows:
        # there t = a*exp(-r*D) is taken as exp(ln|a| - r*D)
        t = a * expo if finite else math.copysign(_exp(math.log(abs(a)) - r * dom), a)
        denom = 1.0 + t
        if denom == 0.0:
            raise EvalError(f"{kind.value} derivative has a pole at D={dom!r}")
        if finite:
            core = big_k * a * r * expo / (denom * denom)
        else:  # K*r*t/(1+t)^2
            core = big_k * r / (t + 2.0 + 1.0 / t)
        if kind is ModelKind.LOGISTIC:
            return core
        logistic = big_k / denom
        return core * math.sin(dom / math.pi) + logistic * math.cos(dom / math.pi) / math.pi
    left, right = branch_polynomials(kind, params)
    d = vec[3]
    if dom < d:
        return left[1] + 2.0 * left[2] * dom
    if dom > d:
        return right[1] + 2.0 * right[2] * dom
    return (left[1] + 2.0 * left[2] * dom, right[1] + 2.0 * right[2] * dom)


def _exp(x: float) -> float:
    """exp(x), or inf where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def branch_polynomials(
    kind: ModelKind, params: Mapping[str, float] | Sequence[float]
) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    """(constant, linear, quadratic) coefficients of each piecewise branch."""
    vec = [float(v) for v in param_vector(kind, params)]
    if kind is ModelKind.LINEAR_QUADRATIC:
        a, b, c, d, e = vec
        left = (a + c * d * d + e * d, b - e, 0.0)
        right = (a - c * d * d - e * d, b + e, 2.0 * c)
        return left, right
    if kind is ModelKind.QUADRATIC_QUADRATIC:
        a, b, c, d, e, f = vec
        left = (a + e * d * d + f * d, b - f, c - e)
        right = (a - e * d * d - f * d, b + f, c + e)
        return left, right
    raise KindError(f"{kind.value} has no branches")


@dataclass(frozen=True)
class DerivedParams:
    """Branch coefficients that carry the regime interpretation.

    ``b1`` is the left-branch slope, ``c1``/``c2`` the branch quadratic
    coefficients (c1 is None for the linear-quadratic kind, whose left branch
    has no curvature), ``joint`` the breakpoint location.
    """

    b1: float
    c2: float
    joint: float
    c1: float | None = None


def derived_params(
    kind: ModelKind, params: Mapping[str, float] | Sequence[float]
) -> DerivedParams:
    left, right = branch_polynomials(kind, params)
    joint = float(param_vector(kind, params)[3])
    if kind is ModelKind.LINEAR_QUADRATIC:
        return DerivedParams(b1=left[1], c2=right[2], joint=joint)
    return DerivedParams(b1=left[1], c1=left[2], c2=right[2], joint=joint)


class Regime(enum.Enum):
    """Sign of dS/dD: how stability responds to dominance."""

    DDS = "DDS"  # dominance-dependent stability, dS/dD < 0
    DID = "DID"  # dominance-increased instability, dS/dD > 0
    DIS = "DIS"  # dominance-independent stability, dS/dD = 0


@dataclass(frozen=True)
class JointAmbiguous:
    """Marker for a piecewise joint whose one-sided regimes differ."""

    location: float
    left: Regime
    right: Regime


def _classify(slope: float) -> Regime:
    if abs(slope) <= REGIME_TOLERANCE:
        return Regime.DIS
    return Regime.DDS if slope < 0 else Regime.DID


def regime_at(
    kind: ModelKind,
    params: Mapping[str, float] | Sequence[float],
    dom: float,
) -> Regime | JointAmbiguous:
    """Regime at one dominance level from the analytic derivative sign."""
    slope = derivative(kind, params, dom)
    if isinstance(slope, tuple):
        left, right = (_classify(s) for s in slope)
        if left is right:
            return left
        return JointAmbiguous(location=dom, left=left, right=right)
    return _classify(slope)


@dataclass(frozen=True)
class EquilibriumPoint:
    """Qualitative equilibrium candidate of a piecewise model.

    These are sign-rule verdicts read off the branch coefficients, not roots
    of the iterated map (the dynamics module finds those numerically):
    a branch vertex is stable when its quadratic coefficient is positive,
    unstable when negative; a joint with positive left slope is unstable,
    with negative left slope the verdict rests on c2 and is left open.
    """

    location: float
    point_kind: str        # "vertex" | "joint"
    verdict: str           # "stable" | "unstable" | "depends-on-c2" | "uncertain"
    branch: str | None = None  # "left" | "right" for vertices


def qualitative_equilibria(
    kind: ModelKind, params: Mapping[str, float] | Sequence[float]
) -> list[EquilibriumPoint]:
    """Sign-rule equilibrium candidates for the piecewise kinds."""
    if not kind.piecewise:
        raise KindError(f"qualitative equilibria are defined for piecewise kinds, not {kind.value}")
    left, right = branch_polynomials(kind, params)
    derived = derived_params(kind, params)
    points: list[EquilibriumPoint] = []

    if kind is ModelKind.LINEAR_QUADRATIC:
        if derived.b1 > 0:
            joint_verdict = "unstable"
        elif derived.b1 < 0:
            joint_verdict = "depends-on-c2"
        else:
            joint_verdict = "uncertain"
    else:
        joint_verdict = "uncertain"
    points.append(EquilibriumPoint(derived.joint, "joint", joint_verdict))

    for branch_name, coeffs in (("left", left), ("right", right)):
        constant, slope, quad = coeffs
        if quad == 0.0:
            continue  # degenerate parabola: the branch is a line, no vertex
        vertex = -slope / (2.0 * quad)
        verdict = "stable" if quad > 0 else "unstable"
        points.append(EquilibriumPoint(vertex, "vertex", verdict, branch=branch_name))
    return points
