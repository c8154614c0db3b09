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

Each kind has one :class:`Card`, ``kind.card``, with all the package asks of
the kind: its parameter names, its forms (``response`` gives S and ``slope``
dS/dD), the parameter gradient its fitting route solves and its report facts.

The regime at a dominance level is the sign of dS/dD: negative means
dominance-dependent stability (DDS, the change rate falls as dominance
rises), positive means dominance-increased instability (DID), zero within
tolerance means dominance-independent stability (DIS).  There is one slope
per dominance level: at a piecewise joint, the right-hand one.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from collections.abc import Callable, Mapping, Sequence

import numpy as np

from .errors import DomstabError

__all__ = [
    "ModelKind",
    "Card",
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

    @functools.cached_property
    def card(self) -> Card:
        return _CARDS[self]

    @property
    def param_names(self) -> tuple[str, ...]:
        return self.card.names

    @property
    def arity(self) -> int:
        return len(self.card.names)

    @property
    def piecewise(self) -> bool:
        return self in (ModelKind.LINEAR_QUADRATIC, ModelKind.QUADRATIC_QUADRATIC)

    @property
    def logistic_family(self) -> bool:
        return self in (ModelKind.LOGISTIC, ModelKind.LOGISTIC_SINE)


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
    return kind.card.response(param_vector(kind, params).tolist())


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
    return kind.card.slope(param_vector(kind, params).tolist())


def branch_polynomials(
    kind: ModelKind, params: Mapping[str, float] | Sequence[float]
) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    """(constant, linear, quadratic) coefficients of each piecewise branch."""
    if not kind.piecewise:
        raise DomstabError(f"{kind.value} has no branches")
    a, b, c, d, *tail = param_vector(kind, params).tolist()
    g, h = (c, *tail)[-2:]  # the |D - d| term's coefficients: (c, e) or (e, f)
    left = (a + g * d * d + h * d, b - h, 0.0 if kind.card.linear_left else c - g)
    return left, (a - g * d * d - h * d, b + h, c + g)


def derived_params(
    kind: ModelKind, params: Mapping[str, float] | Sequence[float]
) -> dict[str, float]:
    """Branch coefficients that carry the regime interpretation, by name, the
    ones the kind's card signs: ``b1`` the left-branch slope, ``c1`` and ``c2``
    the branch quadratic coefficients; linear-quadratic has no ``c1``, its left
    branch having no curvature.  The joint is ``params["d"]``.  Other kinds have none."""
    if not kind.piecewise:
        return {}
    left, right = branch_polynomials(kind, params)
    values = {"b1": left[1], "c1": left[2], "c2": right[2]}
    return {name: values[name] for name in kind.card.signed}


def qualitative_equilibria(
    kind: ModelKind, params: Mapping[str, float] | Sequence[float]
) -> list[EquilibriumPoint]:
    """Sign-rule equilibrium candidates for the piecewise kinds."""
    if not kind.piecewise:
        raise DomstabError(f"qualitative equilibria are defined for piecewise kinds, not {kind.value}")
    vec = param_vector(kind, params).tolist()
    left, right = branch_polynomials(kind, vec)
    b1 = left[1] if kind.card.linear_left else math.nan  # only a line's slope decides the joint
    joint_verdict = "unstable" if b1 > 0 else "depends-on-c2" if b1 < 0 else "uncertain"
    points = [EquilibriumPoint(vec[3], "joint", joint_verdict)]
    for branch_name, (_, lin, quad) in (("left", left), ("right", right)):
        if quad == 0.0:
            continue  # degenerate parabola: the branch is a line, no vertex
        verdict = "stable" if quad > 0 else "unstable"
        points.append(EquilibriumPoint(-lin / (2.0 * quad), "vertex", verdict, branch=branch_name))
    return points


@dataclass(frozen=True)
class Card:
    """One model kind: forms taking its ``names`` as Python floats in that
    order, and report facts.  The fit table's extra ``columns`` are read by
    name from the fit's ``pearson_r`` and :func:`derived_params`, the summary
    marks the signs of ``signed``, the standard-error check skips
    ``se_exempt``, and the regime narrative ends with :meth:`suffix`."""

    kind: ModelKind
    names: tuple[str, ...]
    columns: tuple[str, ...] = ()
    signed: tuple[str, ...] = ()
    se_exempt: tuple[str, ...] = ()

    def suffix(self, vec: Sequence[float]) -> str:
        return ""


class _Linear(Card):
    def response(self, vec):
        a, b = vec
        return lambda dom: a + b * dom

    def slope(self, vec):
        return lambda dom: vec[1]

    def gradient(self, dom):
        """The ``(n, 2)`` design [1, D]."""
        return np.vander(dom, 2, increasing=True)


@dataclass(frozen=True)
class _Logistic(Card):
    names: tuple[str, ...] = ("K", "a", "r")
    signed: tuple[str, ...] = ("r",)
    se_exempt: tuple[str, ...] = ("a",)
    sine: bool = False

    def factor(self, dom):
        """sin(D / pi), or ones: ``x * 1.0`` is exact, so both kinds share stacked forms."""
        return np.sin(dom / math.pi) if self.sine else np.ones_like(dom)

    def response(self, vec):
        """Also from stacked ``(..., 3)`` parameter rows, each row's ``factor``
        passed.  Where a = 0 there is no exponential term: r is taken as 0, so
        S = K at every finite D, even where exp(-r*D) would overflow."""
        if isinstance(vec, np.ndarray):  # stacked rows broadcast as (..., 1) columns
            vec = vec[..., 0:1], vec[..., 1:2], vec[..., 2:3]
        big_k, a, r = vec
        r = np.where(a == 0.0, 0.0, r)

        def logistic(dom, factor=None):
            out = big_k / (1.0 + a * np.exp(-r * dom))
            return out * (self.factor(dom) if factor is None else factor)

        return logistic

    def slope(self, vec):
        big_k, a, r = vec

        def logistic(dom):
            expo = _exp(-r * dom) if a else 0.0  # a = 0 leaves no exponential term
            finite = math.isfinite(a * expo)
            # the model stays finite where exp(-r*D) or a*exp(-r*D) overflows:
            # there t = a*exp(-r*D) is taken as exp(ln|a| - r*D)
            t = a * expo if finite else math.copysign(_exp(math.log(abs(a)) - r * dom), a)
            denom = 1.0 + t
            if denom == 0.0:
                raise DomstabError(f"{self.kind.value} derivative has a pole at D={dom!r}")
            if finite:
                core = big_k * a * r * expo / (denom * denom)
            else:  # K*r*t/(1+t)^2
                core = big_k * r / (t + 2.0 + 1.0 / t)
            if not self.sine:
                return core
            cycle = dom / math.pi
            return core * math.sin(cycle) + big_k / denom * math.cos(cycle) / math.pi

        return logistic

    def gradient(self, params, dom, factor, out):
        """dS/d(K, a, r) of ``(m, 3)`` parameter rows on their ``(m, n)`` dominance
        and factor rows, written into ``out``, ``(m, n, 3)``, and returned."""
        big_k, a, r = params[:, 0:1], params[:, 1:2], params[:, 2:3]
        expo = np.exp(-r * dom)
        phi = 1.0 / (1.0 + a * expo)
        d_k, d_a, d_r = out[..., 0], out[..., 1], out[..., 2]
        np.multiply(phi, factor, out=d_k)
        np.multiply(-big_k, expo, out=d_a)
        np.multiply(big_k * a, dom, out=d_r)
        d_r *= expo
        for column in (d_a, d_r):
            column *= phi
            column *= phi
            column *= factor
        return out

    def suffix(self, vec):
        if self.sine:
            return "; zero-change crossings recur at the sine nodes"
        r = vec[2]
        if r < 0:
            return "; change rate flattens toward zero at high dominance"
        return "; change rate saturates toward K at high dominance" if r > 0 else ""


@dataclass(frozen=True)
class _Piecewise(Card):
    columns: tuple[str, ...] = ("b1", "c1", "c2")
    linear_left: bool = False  # linear-quadratic: c is also the bend's, the left branch a line

    def response(self, vec):
        a, b, c, d, *tail = vec
        g, h = (c, *tail)[-2:]  # the |D - d| term's coefficients: (c, e) or (e, f)
        return lambda dom: a + b * dom + c * (dom * dom) + abs(dom - d) * (g * (dom + d) + h)

    def slope(self, vec):
        (_, b1, c1), (_, b2, c2) = branch_polynomials(self.kind, vec)
        return lambda dom: b1 + 2.0 * c1 * dom if dom < vec[3] else b2 + 2.0 * c2 * dom

    def gradient(self, dom):
        """dS/dθ for every θ but d: the ``(n, k)`` columns [1, D(, D**2)], and a
        function of 1-d joints ``d`` giving one ``(m, n)`` row per joint of the
        bend |D - d| (D + d) (plus D**2 where c is its coefficient) and the gap."""
        shared = np.vander(dom, len(self.names) - 3, increasing=True)

        def moving(d):
            d = d[:, np.newaxis]
            gap = np.abs(dom - d)
            bend = gap * (dom + d)
            return (dom**2 + bend if self.linear_left else bend), gap

        return shared, moving

    def suffix(self, vec):
        parts = (f"{p.point_kind} at D={p.location:.3g} ({p.verdict})"
                 for p in qualitative_equilibria(self.kind, vec))
        return "; " + ", ".join(parts)


def _exp(x: float) -> float:
    """exp(x), or inf where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


_CARDS: dict[ModelKind, Card] = {card.kind: card for card in (
    _Linear(ModelKind.LINEAR, ("a", "b"), columns=("pearson_r",), signed=("b",)),
    _Logistic(ModelKind.LOGISTIC),
    _Logistic(ModelKind.LOGISTIC_SINE, sine=True),
    _Piecewise(ModelKind.LINEAR_QUADRATIC, ("a", "b", "c", "d", "e"),
               signed=("b1", "c2"), linear_left=True),
    _Piecewise(ModelKind.QUADRATIC_QUADRATIC, ("a", "b", "c", "d", "e", "f"),
               signed=("b1", "c1", "c2")),
)}


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
