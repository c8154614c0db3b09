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

Each model has two forms, built once from its parameters and then called per
dominance level: :func:`response` gives S and :func:`slope` gives dS/dD.

The regime at a dominance level is the sign of dS/dD: negative means
dominance-dependent stability (DDS, the change rate falls as dominance
rises), positive means dominance-increased instability (DID), zero within
tolerance means dominance-independent stability (DIS).  There is one slope
per dominance level: at a piecewise joint, the right-hand one.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from collections.abc import Callable, Mapping, Sequence

import numpy as np

from .errors import DomstabError

__all__ = [
    "ModelKind",
    "Regime",
    "EquilibriumPoint",
    "REGIME_TOLERANCE",
    "param_vector",
    "param_dict",
    "response",
    "slope",
    "evaluate_array",
    "branch_polynomials",
    "derived_params",
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
            raise DomstabError(f"{kind.value} params missing {missing}")
        return np.array([float(params[name]) for name in names])
    vec = np.asarray(params, dtype=float)
    if vec.shape != (len(names),):
        raise DomstabError(f"{kind.value} expects {len(names)} parameters, got {vec.shape}")
    return vec


def param_dict(kind: ModelKind, vector: Sequence[float]) -> dict[str, float]:
    return dict(zip(kind.param_names, param_vector(kind, vector).tolist()))


def response(kind: ModelKind, params: Mapping[str, float] | Sequence[float]) -> Callable:
    """S = f(D) for D a Python float or an ndarray, by the same IEEE operations on
    either (NumPy's exp and sin run their ufunc loops on a float too, where math.exp
    rounds otherwise), a pole giving +-inf or NaN.  The caller holds np.errstate."""
    vec = param_vector(kind, params).tolist()
    if kind is ModelKind.LINEAR:
        a, b = vec
        return lambda dom: a + b * dom
    if kind.logistic_family:
        big_k, a, r = vec
        sine = kind is ModelKind.LOGISTIC_SINE

        def logistic(dom):  # a = 0 has no exponential term, even where exp(-r*D) overflows
            out = big_k / (1.0 + a * np.exp(-r * dom)) if a else np.full(np.shape(dom), big_k)
            return out * np.sin(dom / math.pi) if sine else out

        return logistic
    # the |D-d| term takes (c, e) in linear-quadratic, (e, f) in quadratic-quadratic
    a, b, c, d, *tail = vec
    g, h = (c, *tail) if kind is ModelKind.LINEAR_QUADRATIC else tail
    return lambda dom: a + b * dom + c * (dom * dom) + abs(dom - d) * (g * (dom + d) + h)


def evaluate_array(
    kind: ModelKind, params: Mapping[str, float] | Sequence[float], dom: np.ndarray
) -> np.ndarray:
    """S at every dominance of ``dom``; non-finite results pass through."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return response(kind, params)(np.asarray(dom, dtype=float))


def slope(kind: ModelKind, params: Mapping[str, float] | Sequence[float]) -> Callable:
    """Analytic dS/dD for D a Python float, by math.exp, with the parameters taken
    once: the finite limit where exp(-r*D) overflows, the right-hand slope exactly
    at a piecewise joint, and DomstabError at a logistic pole 1 + a*exp(-r*D) = 0."""
    vec = param_vector(kind, params).tolist()  # Python floats: report cells take no NumPy scalar
    if kind is ModelKind.LINEAR:
        return lambda dom: vec[1]
    if kind.logistic_family:
        big_k, a, r = vec

        def logistic(dom):
            expo = _exp(-r * dom) if a else 0.0  # a = 0 leaves no exponential term
            finite = math.isfinite(a * expo)
            # the model stays finite where exp(-r*D) or a*exp(-r*D) overflows:
            # there t = a*exp(-r*D) is taken as exp(ln|a| - r*D)
            t = a * expo if finite else math.copysign(_exp(math.log(abs(a)) - r * dom), a)
            denom = 1.0 + t
            if denom == 0.0:
                raise DomstabError(f"{kind.value} derivative has a pole at D={dom!r}")
            if finite:
                core = big_k * a * r * expo / (denom * denom)
            else:  # K*r*t/(1+t)^2
                core = big_k * r / (t + 2.0 + 1.0 / t)
            if kind is ModelKind.LOGISTIC:
                return core
            cycle = dom / math.pi
            return core * math.sin(cycle) + big_k / denom * math.cos(cycle) / math.pi

        return logistic
    (_, b1, c1), (_, b2, c2) = branch_polynomials(kind, vec)
    d = vec[3]
    return lambda dom: b1 + 2.0 * c1 * dom if dom < d else b2 + 2.0 * c2 * dom


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
    raise DomstabError(f"{kind.value} has no branches")


def derived_params(
    kind: ModelKind, params: Mapping[str, float] | Sequence[float]
) -> dict[str, float]:
    """Branch coefficients that carry the regime interpretation, by name:
    ``b1`` the left-branch slope, ``c1`` and ``c2`` the branch quadratic
    coefficients.  The linear-quadratic kind has no ``c1``: its left branch
    has no curvature.  The joint is ``params["d"]``."""
    left, right = branch_polynomials(kind, params)
    if kind is ModelKind.LINEAR_QUADRATIC:
        return {"b1": left[1], "c2": right[2]}
    return {"b1": left[1], "c1": left[2], "c2": right[2]}


class Regime(enum.Enum):
    """Sign of dS/dD: how stability responds to dominance."""

    DDS = "DDS"  # dominance-dependent stability, dS/dD < 0
    DID = "DID"  # dominance-increased instability, dS/dD > 0
    DIS = "DIS"  # dominance-independent stability, dS/dD = 0

    @classmethod
    def of(cls, slope: float) -> Regime:
        """The regime of one slope dS/dD, DIS within REGIME_TOLERANCE of zero."""
        if abs(slope) <= REGIME_TOLERANCE:
            return cls.DIS
        return cls.DDS if slope < 0 else cls.DID


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
        raise DomstabError(f"qualitative equilibria are defined for piecewise kinds, not {kind.value}")
    vec = param_vector(kind, params)
    left, right = branch_polynomials(kind, vec)
    points: list[EquilibriumPoint] = []

    if kind is ModelKind.LINEAR_QUADRATIC:
        if left[1] > 0:
            joint_verdict = "unstable"
        elif left[1] < 0:
            joint_verdict = "depends-on-c2"
        else:
            joint_verdict = "uncertain"
    else:
        joint_verdict = "uncertain"
    joint = float(vec[3])
    points.append(EquilibriumPoint(joint, "joint", joint_verdict))

    for branch_name, coeffs in (("left", left), ("right", right)):
        constant, slope, quad = coeffs
        if quad == 0.0:
            continue  # degenerate parabola: the branch is a line, no vertex
        vertex = -slope / (2.0 * quad)
        verdict = "stable" if quad > 0 else "unstable"
        points.append(EquilibriumPoint(vertex, "vertex", verdict, branch=branch_name))
    return points
