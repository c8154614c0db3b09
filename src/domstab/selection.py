"""Validity screening and priority-ordered selection among fitted models.

A fit is valid when :func:`validate` finds no reason against it under
three checks:

* fit quality: r2 at or above ``r2_min``;
* parameter precision: every standard error at most ``se_ratio_max`` times
  the parameter magnitude.  The logistic-family shape parameter ``a`` is
  exempt: its fitted values are routinely near zero with a wide but harmless
  error band, and penalizing that would throw away otherwise tight fits;
* parameter sanity: every parameter magnitude at most ``magnitude_max``
  (a carrying-capacity estimate in the millions is a divergence artifact,
  not biology).

Selection walks the priority order and returns the first valid fit.  When
nothing is valid the linear fit is returned as the backup, flagged
``backup-invalid``, so downstream reports always have a row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .errors import DomstabError, InputError
from .fitting import ModelFit
from .models import ModelKind, derived_params, regime_at
from .models import qualitative_equilibria

__all__ = [
    "PRIORITY",
    "SelectionPolicy",
    "ValidityReport",
    "SelectedModel",
    "validate",
    "select",
    "summary",
    "regime_narrative",
]

PRIORITY = (  # the selection order
    ModelKind.LOGISTIC,
    ModelKind.LOGISTIC_SINE,
    ModelKind.LINEAR_QUADRATIC,
    ModelKind.QUADRATIC_QUADRATIC,
    ModelKind.LINEAR,
)

_NARRATIVE_POINTS = 101  # evenly spaced dominance levels the narrative reads


@dataclass(frozen=True)
class SelectionPolicy:
    """Validity thresholds; a maximum of inf sets no limit."""

    r2_min: float = 0.30
    se_ratio_max: float = 20.0
    magnitude_max: float = 1e6

    def __post_init__(self):
        if math.isnan(self.r2_min):
            raise InputError(f"r2 minimum {self.r2_min} is not a number")
        for name, value in (("se ratio", self.se_ratio_max), ("magnitude", self.magnitude_max)):
            if not value >= 0.0:
                raise InputError(f"{name} maximum {value} is not a number at or above 0")


@dataclass(frozen=True)
class ValidityReport:
    reasons: tuple[str, ...]  # every failed check, in the order validate runs them

    @property
    def valid(self) -> bool:
        return not self.reasons


def validate(fit: ModelFit, policy: SelectionPolicy = SelectionPolicy()) -> ValidityReport:
    """Run the three validity checks on one fit."""
    reasons: list[str] = []

    if not (math.isfinite(fit.r2) and fit.r2 >= policy.r2_min):
        reasons.append(f"r2 {_short(fit.r2)} below {_short(policy.r2_min)}")

    for name in fit.kind.param_names:
        if name == "a" and fit.kind.logistic_family:
            continue
        value = fit.params[name]
        se = fit.std_errors.get(name, math.inf)
        if not math.isfinite(se):
            reasons.append(f"se({name}) is not finite")
            continue
        limit = policy.se_ratio_max * abs(value)
        if se > limit:
            reasons.append(
                f"se({name}) {_short(se)} exceeds {_short(policy.se_ratio_max)}x |{name}|"
            )

    for name in fit.kind.param_names:
        if abs(fit.params[name]) > policy.magnitude_max:
            reasons.append(f"|{name}| {_short(fit.params[name])} exceeds {_short(policy.magnitude_max)}")

    if not fit.converged:
        reasons.append("fit did not converge")

    return ValidityReport(tuple(reasons))


def _short(x: float) -> str:
    return f"{x:.4g}"


@dataclass(frozen=True)
class SelectedModel:
    fit: ModelFit
    rationale: str
    backup: bool = False  # True when nothing was valid and linear stood in

    @property
    def kind(self) -> ModelKind:
        return self.fit.kind


def select(
    fits: Mapping[ModelKind, ModelFit], policy: SelectionPolicy = SelectionPolicy()
) -> SelectedModel:
    """First valid fit in priority order; linear as flagged backup otherwise."""
    if not fits:
        raise DomstabError("no fits to select from")
    for kind in PRIORITY:
        fit = fits.get(kind)
        if fit is not None and validate(fit, policy).valid:
            return SelectedModel(fit, f"first valid kind in priority order: {kind.value}")
    linear = fits.get(ModelKind.LINEAR)
    if linear is None:
        raise DomstabError("no fit is valid and no linear backup was supplied")
    return SelectedModel(
        linear, "backup-invalid: no kind passed the validity checks", backup=True
    )


# ---------------------------------------------------------------- narrative


def regime_narrative(fit: ModelFit) -> str:
    """One-line description of how the regime changes over the observed
    dominance range, read off the analytic derivative plus, for piecewise
    kinds, the qualitative equilibrium verdicts."""
    lo, hi = fit.dominance_min, fit.dominance_max
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return "no observed dominance range"
    kind = fit.kind
    step = (hi - lo) / (_NARRATIVE_POINTS - 1)
    regimes = [regime_at(kind, fit.params, lo + i * step) for i in range(_NARRATIVE_POINTS)]
    runs = [r for i, r in enumerate(regimes) if i == 0 or r is not regimes[i - 1]]

    if len(runs) == 1:
        text = f"{runs[0].value} throughout"
    elif len(runs) <= 3:
        text = " then ".join(r.value for r in runs)
    else:
        labels = sorted({r.value for r in runs})
        text = f"alternating {'/'.join(labels)} ({len(runs)} phases)"

    if kind is ModelKind.LOGISTIC:
        r = fit.params["r"]
        if r < 0:
            text += "; change rate flattens toward zero at high dominance"
        elif r > 0:
            text += "; change rate saturates toward K at high dominance"
    elif kind is ModelKind.LOGISTIC_SINE:
        text += "; zero-change crossings recur at the sine nodes"
    elif kind.piecewise:
        parts = []
        for point in qualitative_equilibria(kind, fit.params):
            where = f"{point.point_kind} at D={point.location:.3g}"
            parts.append(f"{where} ({point.verdict})")
        if parts:
            text += "; " + ", ".join(parts)
    return text


def _sign_annotations(fit: ModelFit) -> str:
    if fit.kind is ModelKind.LINEAR:
        b = fit.params["b"]
        return f"b{_sign_mark(b)}"
    if fit.kind.logistic_family:
        return f"r{_sign_mark(fit.params['r'])}"
    derived = derived_params(fit.kind, fit.params)
    return " ".join(f"{name}{_sign_mark(value)}" for name, value in derived.items())


def _sign_mark(x: float) -> str:
    if x > 0:
        return ">0"
    if x < 0:
        return "<0"
    return "=0"


def summary(fit: ModelFit) -> tuple[str, str, str]:
    """A selected fit's quality, branch signs and regime narrative."""
    if fit.kind is ModelKind.LINEAR and fit.pearson_r is not None:
        quality = f"R={fit.pearson_r:.2f}"
    else:
        quality = f"r2={fit.r2:.2f}"
    return quality, _sign_annotations(fit), regime_narrative(fit)
