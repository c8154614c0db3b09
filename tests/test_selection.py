import math

import numpy as np
import pytest

from domstab.errors import SelectionError
from domstab.fitting import FitInput, ModelFit, fit_model
from domstab.models import ModelKind, evaluate_array, param_vector
from domstab.selection import (
    PRIORITY,
    SelectionPolicy,
    regime_narrative,
    select,
    summary,
    validate,
)


def manual_fit(kind: ModelKind, params: dict, std_errors: dict, r2: float, **kw) -> ModelFit:
    defaults = dict(
        r2_adj=r2,
        residual_ss=1.0,
        n=28,
        converged=True,
        iterations=20,
        dominance_min=5.0,
        dominance_max=60.0,
    )
    defaults.update(kw)
    return ModelFit(kind=kind, params=params, std_errors=std_errors, r2=r2, **defaults)


# reference fits recreated from the printed tables
FIT_400 = manual_fit(
    ModelKind.LOGISTIC,
    {"K": 4.741, "a": 0.026, "r": -0.206},
    {"K": 1.540, "a": 0.0506, "r": 0.059},
    0.91,
)
FIT_408 = manual_fit(
    ModelKind.LOGISTIC,
    {"K": 22.644, "a": 0.0, "r": -1.813},
    {"K": 2602.6, "a": 0.0022, "r": 2.562},
    0.78,
)
FIT_412 = manual_fit(
    ModelKind.LOGISTIC,
    {"K": 4.168, "a": 0.00002, "r": -0.647},
    {"K": 1.010, "a": 0.0056, "r": 9.893},
    0.99,
)


def test_policy_maximum_of_inf_sets_no_limit():
    fit = manual_fit(ModelKind.LINEAR, {"a": 1e300, "b": 1.0}, {"a": 1.0, "b": 1e300}, 0.5)
    assert not validate(fit).valid
    assert validate(fit, SelectionPolicy(se_ratio_max=math.inf, magnitude_max=math.inf)).valid


def test_accepts_reference_logistic():
    report = validate(FIT_400)
    assert report.valid
    assert report.reasons == ()


def test_rejects_huge_standard_error():
    report = validate(FIT_408)
    assert not report.valid
    assert any("se(K)" in reason for reason in report.reasons)


def test_shape_param_exempt_from_se_gate():
    # SE(a)/|a| is enormous for the tiny shape parameter, but the gate skips
    # it for the logistic kinds; SE(r)/|r| = 15.3 stays within 20x
    report = validate(FIT_412)
    assert report.valid


def test_rejects_low_r2():
    low = manual_fit(ModelKind.LOGISTIC, {"K": 1.0, "a": 0.1, "r": -0.1}, {"K": 0.1, "a": 0.01, "r": 0.01}, 0.25)
    report = validate(low)
    assert any(r.startswith("r2 ") for r in report.reasons)
    assert not report.valid


def test_rejects_magnitude_pathology():
    huge = manual_fit(
        ModelKind.LOGISTIC,
        {"K": 15152070.0, "a": 0.1, "r": -0.1},
        {"K": 10.0, "a": 0.01, "r": 0.01},
        0.80,
    )
    report = validate(huge)
    assert any(r.startswith("|K| ") for r in report.reasons)
    assert not report.valid


def test_rejects_non_finite_r2():
    bad = manual_fit(ModelKind.LOGISTIC, {"K": 1.0, "a": 0.1, "r": -0.1}, {"K": 0.1, "a": 0.01, "r": 0.01}, math.nan)
    assert any(r.startswith("r2 ") for r in validate(bad).reasons)


def test_rejects_unconverged_fit():
    stalled = manual_fit(
        ModelKind.LOGISTIC,
        {"K": 1.0, "a": 0.1, "r": -0.1},
        {"K": 0.1, "a": 0.01, "r": 0.01},
        0.9,
        converged=False,
    )
    report = validate(stalled)
    assert not report.valid
    assert "fit did not converge" in report.reasons


def test_se_gate_uses_ratio_threshold():
    policy = SelectionPolicy(se_ratio_max=5.0)
    borderline = manual_fit(
        ModelKind.LINEAR, {"a": 1.0, "b": -0.1}, {"a": 4.9, "b": 0.49}, 0.8
    )
    assert validate(borderline, policy).valid
    too_loose = manual_fit(
        ModelKind.LINEAR, {"a": 1.0, "b": -0.1}, {"a": 5.1, "b": 0.49}, 0.8
    )
    assert not validate(too_loose, policy).valid


def test_priority_prefers_logistic_over_linear():
    lin = manual_fit(ModelKind.LINEAR, {"a": 2.974, "b": -0.061}, {"a": 0.407, "b": 0.009}, 0.66, pearson_r=0.81)
    picked = select({ModelKind.LINEAR: lin, ModelKind.LOGISTIC: FIT_400})
    assert picked.kind is ModelKind.LOGISTIC
    assert not picked.backup


def test_priority_falls_through_invalid_kinds():
    lin = manual_fit(ModelKind.LINEAR, {"a": 1.382, "b": -0.074}, {"a": 0.395, "b": 0.022}, 0.29, pearson_r=0.54)
    lq = manual_fit(
        ModelKind.LINEAR_QUADRATIC,
        {"a": 49.023, "b": -5.947, "c": 0.00067, "d": 8.187, "e": 5.862},
        {"a": 21.883, "b": 2.738, "c": 0.00087, "d": 0.095, "e": 2.738},
        0.85,
    )
    picked = select(
        {ModelKind.LOGISTIC: FIT_408, ModelKind.LINEAR_QUADRATIC: lq, ModelKind.LINEAR: lin}
    )
    assert picked.kind is ModelKind.LINEAR_QUADRATIC


def test_linear_backup_when_nothing_valid():
    lin = manual_fit(ModelKind.LINEAR, {"a": 0.5, "b": -0.01}, {"a": 0.2, "b": 0.004}, 0.15, pearson_r=0.39)
    picked = select({ModelKind.LOGISTIC: FIT_408, ModelKind.LINEAR: lin})
    assert picked.kind is ModelKind.LINEAR
    assert picked.backup
    assert "backup" in picked.rationale


def test_select_empty_mapping_raises():
    with pytest.raises(SelectionError):
        select({})


def test_select_nothing_valid_no_linear_raises():
    with pytest.raises(SelectionError):
        select({ModelKind.LOGISTIC: FIT_408})


def test_default_priority_order():
    assert PRIORITY == (
        ModelKind.LOGISTIC,
        ModelKind.LOGISTIC_SINE,
        ModelKind.LINEAR_QUADRATIC,
        ModelKind.QUADRATIC_QUADRATIC,
        ModelKind.LINEAR,
    )


def fitted(kind: ModelKind, params: dict, dom: np.ndarray) -> ModelFit:
    chg = evaluate_array(kind, param_vector(kind, params), dom)
    return fit_model(kind, FitInput(tuple(dom), tuple(chg)))


def test_narrative_logistic_negative_r():
    fit = fitted(ModelKind.LOGISTIC, {"K": 4.741, "a": 0.026, "r": -0.206}, np.linspace(10, 60, 28))
    text = regime_narrative(fit)
    assert "DDS" in text
    assert "flattens toward zero" in text


def test_narrative_sine_mentions_recurring_crossings():
    fit = fitted(ModelKind.LOGISTIC_SINE, {"K": -0.294, "a": -1.677, "r": 0.048}, np.linspace(15, 60, 28))
    text = regime_narrative(fit)
    assert "sine nodes" in text


@pytest.mark.parametrize("kind", [ModelKind.LOGISTIC, ModelKind.LOGISTIC_SINE])
@pytest.mark.parametrize(
    "params, lo, hi",
    [
        ({"K": 0.5, "a": 1.6e-59, "r": -30.3}, 20.0, 30.0),  # a polish endpoint's shape
        ({"K": 1.0, "a": 1e10, "r": -1.0}, 600.0, 700.0),
    ],
)
def test_summary_where_the_exponential_overflows(kind, params, lo, hi):
    fit = manual_fit(kind, params, {}, 0.5, dominance_min=lo, dominance_max=hi)
    _, signs, narrative = summary(fit)
    assert signs == "r<0"
    assert narrative.startswith("DIS throughout; ")


def test_narrative_lq_includes_equilibria():
    fit = fitted(
        ModelKind.LINEAR_QUADRATIC,
        {"a": 0.331, "b": 0.014, "c": 0.00033, "d": 28.341, "e": -0.108},
        28.341 + np.linspace(-18, 18, 28),
    )
    text = regime_narrative(fit)
    assert "joint at D=28.3" in text
    assert "unstable" in text  # b1 > 0 at the joint
    assert text.startswith("DID then DDS")  # rising left branch, falling right


def test_summarize_rows():
    lin = manual_fit(ModelKind.LINEAR, {"a": 1.551, "b": -0.033}, {"a": 0.182, "b": 0.004}, 0.72, pearson_r=0.85)
    picked = select({ModelKind.LINEAR: lin})
    quality, _, _ = summary(picked.fit)
    assert picked.kind is ModelKind.LINEAR
    assert quality == "R=0.85"
    assert not picked.backup


def test_summarize_sign_annotations():
    lq = fitted(
        ModelKind.LINEAR_QUADRATIC,
        {"a": 0.331, "b": 0.014, "c": 0.00033, "d": 28.341, "e": -0.108},
        28.341 + np.linspace(-18, 18, 28),
    )
    picked = select({ModelKind.LINEAR_QUADRATIC: lq, })
    quality, signs, _ = summary(picked.fit)
    assert "b1>0" in signs
    assert "c2>0" in signs
    assert quality.startswith("r2=")
