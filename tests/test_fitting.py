import math

import numpy as np
import pytest

from domstab import fitting
from domstab.errors import DomstabError
from domstab.fitting import (
    FitInput,
    ModelFit,
    _solve,
    _std_errors,
    breakpoint_candidates,
    default_starts,
    fit_logistic_batch,
    fit_model,
)
from domstab.ingest import parse_table, split_subjects
from domstab.models import ModelKind, derived_params, evaluate_array, param_vector
from domstab.stability import community_stability, dominance_records


def synth_input(kind: ModelKind, params: dict, dom: np.ndarray) -> FitInput:
    chg = evaluate_array(kind, param_vector(kind, params), dom)
    return FitInput(tuple(float(x) for x in dom), tuple(float(y) for y in chg))


def noisy_input(kind: ModelKind, params: dict, dom: np.ndarray, sigma: float, seed: int) -> FitInput:
    rng = np.random.default_rng(seed)
    chg = evaluate_array(kind, param_vector(kind, params), dom)
    chg = chg + rng.normal(0.0, sigma, size=dom.size)
    return FitInput(tuple(float(x) for x in dom), tuple(float(y) for y in chg))


# ------------------------------------------------------------------ linear


def test_linear_exact_line():
    dom = np.linspace(5.0, 50.0, 12)
    inp = synth_input(ModelKind.LINEAR, {"a": 1.551, "b": -0.033}, dom)
    fit = fit_model(ModelKind.LINEAR, inp)
    assert fit.params["a"] == pytest.approx(1.551, abs=1e-12)
    assert fit.params["b"] == pytest.approx(-0.033, abs=1e-12)
    assert fit.converged
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.pearson_r == pytest.approx(-1.0, abs=1e-12)  # falling line


def test_linear_pearson_sign_follows_slope():
    dom = np.linspace(0.0, 10.0, 8)
    rising = fit_model(ModelKind.LINEAR, synth_input(ModelKind.LINEAR, {"a": 0.0, "b": 2.0}, dom))
    assert rising.pearson_r == pytest.approx(1.0)


def test_linear_std_errors_closed_form():
    # textbook OLS standard errors on a small noisy sample
    rng = np.random.default_rng(5)
    x = np.linspace(1.0, 20.0, 15)
    y = 0.7 - 0.05 * x + rng.normal(0.0, 0.1, size=15)
    fit = fit_model(ModelKind.LINEAR, FitInput(tuple(x), tuple(y)))
    n = 15
    resid = y - (fit.params["a"] + fit.params["b"] * x)
    s2 = float(resid @ resid) / (n - 2)
    sxx = float(np.sum((x - x.mean()) ** 2))
    assert fit.std_errors["b"] == pytest.approx(math.sqrt(s2 / sxx), rel=1e-10)
    assert fit.std_errors["a"] == pytest.approx(
        math.sqrt(s2 * (1.0 / n + x.mean() ** 2 / sxx)), rel=1e-10
    )


def test_linear_requires_dominance_variance():
    with pytest.raises(DomstabError, match="^dominance values have zero variance$"):
        fit_model(ModelKind.LINEAR, FitInput((3.0, 3.0, 3.0), (0.1, 0.2, 0.3)))
    # a constant whose float sum of squared deviations is roundoff, not zero
    dom = np.full(29, 0.8881122789769851)
    assert np.sum((dom - dom.mean()) ** 2) > 0.0
    with pytest.raises(DomstabError, match="^dominance values have zero variance$"):
        fit_model(ModelKind.LINEAR, FitInput(dom, np.linspace(0.0, 1.0, 29)))


def test_linear_constant_change_flags_degenerate_r():
    dom = np.linspace(1.0, 9.0, 5)
    fit = fit_model(ModelKind.LINEAR, FitInput(tuple(dom), (0.4,) * 5))
    assert math.isnan(fit.pearson_r)
    assert math.isnan(fit.r2) and math.isnan(fit.r2_adj)


@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda kind: kind.value)
def test_constant_change_rate_has_no_r2(kind):
    """A constant change rate has nothing to explain, even where its float
    total sum of squares is roundoff rather than zero."""
    chg = np.full(29, 0.8881122789769851)
    assert np.sum((chg - chg.mean()) ** 2) > 0.0
    fit = fit_model(kind, FitInput(np.linspace(1.0, 5.0, 29), chg))
    assert math.isnan(fit.r2) and math.isnan(fit.r2_adj)
    if kind is ModelKind.LINEAR:
        assert math.isnan(fit.pearson_r)


def _grids(monkeypatch, grids):
    """Make the fitter start from ``grids[id(inp)]`` where an input has one,
    and from its default grid otherwise."""
    default = fitting.default_starts
    monkeypatch.setattr(
        fitting, "default_starts",
        lambda inp: grids[id(inp)] if id(inp) in grids else default(inp),
    )


def test_non_converged_fit_without_finite_jacobian_has_infinite_std_errors(monkeypatch):
    # exp(1000 D) overflows: no step is ever taken and the Jacobian is non-finite
    inp = FitInput(tuple(np.linspace(1.0, 2.0, 8)), (0.3, 0.1, -0.2, 0.4, 0.0, -0.1, 0.2, 0.05))
    _grids(monkeypatch, {id(inp): [(1.0, 1.0, -1000.0)]})
    fit = fit_model(ModelKind.LOGISTIC, inp)
    assert not fit.converged
    assert all(se == math.inf for se in fit.std_errors.values())


def test_minimum_points_enforced():
    with pytest.raises(DomstabError, match="^linear fit needs at least 3 points, got 2$"):
        fit_model(ModelKind.LINEAR, FitInput((1.0, 2.0), (0.1, 0.2)))
    with pytest.raises(DomstabError, match="^logistic fit needs at least 4 points, got 3$"):
        fit_model(ModelKind.LOGISTIC, FitInput((1.0, 2.0, 3.0), (0.1, 0.2, 0.3)))


@pytest.mark.parametrize("dom, chg, message", [
    ((1.0, 2.0, 3.0), (0.1, 0.2), "dominance and change_rate must be 1-d and equal length"),
    ([[1.0, 2.0]], [[0.1, 0.2]], "dominance and change_rate must be 1-d and equal length"),
    ((1.0, math.nan, 3.0), (0.1, 0.2, 0.3), "fit input must be finite"),
    ((1.0, 2.0, 3.0), (0.1, -math.inf, 0.3), "fit input must be finite"),
])
def test_fit_input_array_checks_are_value_errors(dom, chg, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        FitInput(dom, chg)


@pytest.mark.parametrize("kind", [ModelKind.LINEAR, ModelKind.LINEAR_QUADRATIC],
                         ids=lambda kind: kind.value)
def test_singular_design_has_infinite_std_errors(kind):
    """An exactly collinear design has a singular information matrix: every
    standard error, the breakpoint's too, is +inf, and nothing is raised."""
    columns = kind.arity - kind.piecewise  # the breakpoint has no column
    design = np.column_stack([np.arange(1.0, 9.0)] * columns)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(design.T @ design)
    std_errors = _std_errors(kind, design, 1.0, 8, 0.5)
    assert std_errors == dict.fromkeys(kind.param_names, math.inf)


def test_fit_input_from_stability_arrays():
    table = parse_table("species_id,400_a,400_b,400_c\nOTU1,4,9,2\nOTU2,1,3,2\n")
    (series,) = split_subjects(table)
    stability = community_stability(dominance_records(series))
    inp = FitInput(stability.dominance, stability.change_rate)
    assert inp.n == len(stability.points)
    assert list(inp.dominance) == stability.dominance.tolist()


# ------------------------------------------------- logistic family, multistart


def test_logistic_recovery_from_clean_data():
    truth = {"K": 4.741, "a": 0.026, "r": -0.206}
    inp = synth_input(ModelKind.LOGISTIC, truth, np.linspace(10.0, 60.0, 28))
    fit = fit_model(ModelKind.LOGISTIC, inp)
    for name, value in truth.items():
        assert fit.params[name] == pytest.approx(value, rel=1e-6)
    assert fit.converged
    assert fit.residual_ss < 1e-20


def test_logistic_sine_recovery_with_negative_a():
    truth = {"K": -0.294, "a": -1.677, "r": 0.048}
    inp = synth_input(ModelKind.LOGISTIC_SINE, truth, np.linspace(15.0, 60.0, 28))
    fit = fit_model(ModelKind.LOGISTIC_SINE, inp)
    for name, value in truth.items():
        assert fit.params[name] == pytest.approx(value, rel=1e-6)


@pytest.mark.parametrize("kind, truth, dom, sigma, seed", [
    (ModelKind.LOGISTIC, {"K": 2.0, "a": 0.5, "r": -0.3},
     np.linspace(2.0, 40.0, 25), 0.2, 31),
    (ModelKind.LOGISTIC_SINE, {"K": 1.5, "a": -0.8, "r": 0.1},
     np.linspace(5.0, 55.0, 27), 0.15, 8),
], ids=["logistic", "logistic-sine"])
def test_logistic_std_errors_from_jacobian(kind, truth, dom, sigma, seed):
    """sqrt(diag((J^T J)^-1) s^2) with J the model's Jacobian at the fit
    and s^2 its residual SS on n - 3 degrees of freedom."""
    fit = fit_model(kind, noisy_input(kind, truth, dom, sigma, seed))
    big_k, a, r = (fit.params[name] for name in ("K", "a", "r"))
    sine = np.sin(dom / math.pi) if kind is ModelKind.LOGISTIC_SINE else np.ones_like(dom)
    expo = np.exp(-r * dom)
    denom = 1.0 + a * expo
    jac = np.column_stack([
        sine / denom,                               # dS/dK
        -big_k * expo * sine / denom**2,            # dS/da
        big_k * a * dom * expo * sine / denom**2,   # dS/dr
    ])
    s2 = fit.residual_ss / (dom.size - 3)
    expected = dict(zip("Kar", np.sqrt(np.diag(np.linalg.inv(jac.T @ jac)) * s2)))
    # a and r must be told apart, or swapped columns would pass
    assert expected["a"] != pytest.approx(expected["r"], rel=1e-3)
    assert fit.converged and math.isfinite(fit.r2) and math.isfinite(fit.r2_adj)
    for name, se in expected.items():
        assert fit.std_errors[name] == pytest.approx(se, rel=1e-8)


def test_logistic_fit_is_deterministic():
    truth = {"K": 1.5, "a": -0.8, "r": 0.1}
    inp = noisy_input(ModelKind.LOGISTIC_SINE, truth, np.linspace(5.0, 55.0, 27), 0.15, seed=8)
    one = fit_model(ModelKind.LOGISTIC_SINE, inp)
    two = fit_model(ModelKind.LOGISTIC_SINE, inp)
    assert one.params == two.params
    assert one.residual_ss == two.residual_ss
    assert one.iterations == two.iterations


def test_zero_change_rate_degenerates_to_flat_zero():
    dom = np.linspace(1.0, 30.0, 10)
    fit = fit_model(ModelKind.LOGISTIC, FitInput(tuple(dom), (0.0,) * 10))
    assert fit.params == {"K": 0.0, "a": 1.0, "r": 0.0}
    assert fit.converged and fit.iterations == 0
    assert math.isnan(fit.r2)
    assert all(se == math.inf for se in fit.std_errors.values())


@pytest.mark.parametrize("kind", [ModelKind.LOGISTIC, ModelKind.LOGISTIC_SINE])
def test_constant_dominance_with_zero_change_has_no_logistic_fit(kind):
    """Constant dominance has no range for the start grid, whatever the
    change rate: an all-zero change rate is no exception, as linear's
    zero-variance error is none either."""
    inp = FitInput(np.full(5, 3.0), np.zeros(5))
    with pytest.raises(DomstabError, match="^dominance values have zero range$"):
        fit_model(kind, inp)
    (outcome,) = fit_logistic_batch([(kind, inp)])
    assert isinstance(outcome, DomstabError)
    with pytest.raises(DomstabError, match="^dominance values have zero variance$"):
        fit_model(ModelKind.LINEAR, inp)


def test_every_start_failing_returns_a_non_converged_fit(monkeypatch):
    """A start whose Jacobian turns non-finite stops unconverged; its
    endpoint is still the fit."""
    dom = np.linspace(1.0, 30.0, 10)
    inp = synth_input(ModelKind.LOGISTIC, {"K": 2.0, "a": 0.5, "r": -0.3}, dom)
    _grids(monkeypatch, {id(inp): [(1e308, 1e308, 10.0)]})
    fit = fit_model(ModelKind.LOGISTIC, inp)
    assert not fit.converged
    assert math.isfinite(fit.residual_ss)


def test_no_finite_start_raises_without_a_best(monkeypatch):
    """A grid none of whose starts has a finite SS (a = -1 at r = 0 is a
    pole) leaves nothing to explore: no fit, only an error."""
    inp = FitInput(np.linspace(1.0, 30.0, 10), np.linspace(-1.0, 1.0, 10))
    _grids(monkeypatch, {id(inp): [(1.0, -1.0, 0.0), (math.nan, -1.0, 0.0)]})
    with pytest.raises(DomstabError) as err:
        fit_model(ModelKind.LOGISTIC, inp)
    assert type(err.value) is DomstabError
    assert str(err.value) == "logistic: every start failed"


def test_singular_system_fails_only_its_own_row():
    damped = np.stack([2.0 * np.eye(3), np.zeros((3, 3)), np.diag([4.0, 3.0, 1.0]) + 0.5])
    rhs = np.arange(9.0).reshape(3, 3, 1)
    steps = _solve(damped, rhs)
    assert np.all(np.isnan(steps[1]))
    for i in (0, 2):
        assert steps[i].tobytes() == np.linalg.solve(damped[i], rhs[i, :, 0]).tobytes()


def _comparable(outcome):
    """A fit by its repr, an error by its type and text."""
    if isinstance(outcome, DomstabError):
        return type(outcome).__name__, str(outcome)
    return repr(outcome)


def _lone(item):
    kind, inp = item
    if not kind.logistic_family:  # fit_model would fit it by its own route
        return "DomstabError", f"{kind.value} is not a logistic-family kind"
    try:
        return _comparable(fit_model(kind, inp))
    except DomstabError as exc:
        return _comparable(exc)


def test_batch_items_equal_lone_fits(monkeypatch):
    rng = np.random.default_rng(16)
    noise = [
        FitInput(np.sort(rng.uniform(1.0, 40.0, n)), rng.normal(0.0, 0.5, n))
        for n in (11, 11, 13, 13)
    ]
    dom = np.linspace(1.0, 30.0, 12)
    clean = synth_input(ModelKind.LOGISTIC, {"K": 2.0, "a": 0.5, "r": -0.3}, dom)
    custom = FitInput(clean.dominance, clean.change_rate)
    doomed = FitInput(clean.dominance, clean.change_rate)
    _grids(monkeypatch, {
        id(custom): [(2.0, 0.5, -0.3), (math.nan, 1.0, 0.1)],
        id(doomed): [(1e308, 1e308, 10.0)],  # every start fails
    })
    logistic, sine = ModelKind.LOGISTIC, ModelKind.LOGISTIC_SINE
    items = [
        (logistic, noise[0]),
        (sine, noise[0]),
        (sine, noise[1]),
        (logistic, clean),
        (logistic, FitInput(np.full(8, 3.0), np.arange(8.0))),  # zero span
        (sine, FitInput(dom, np.zeros(12))),  # all-zero change
        (logistic, FitInput(dom[:3], dom[:3])),  # too few points
        (sine, custom),
        (logistic, doomed),
        (ModelKind.LINEAR, clean),
        (logistic, noise[2]),
        (sine, noise[3]),
    ]
    outcomes = fit_logistic_batch(items)
    assert [_comparable(outcome) for outcome in outcomes] == [_lone(item) for item in items]
    assert {_comparable(o) for o in outcomes if isinstance(o, DomstabError)} == {
        ("DomstabError", "dominance values have zero range"),
        ("DomstabError", "linear is not a logistic-family kind"),
        ("DomstabError", "logistic fit needs at least 4 points, got 3"),
    }
    fits = [o for o in outcomes if isinstance(o, ModelFit)]
    assert {fit.converged for fit in fits} == {True, False}
    assert {fit.kind for fit in fits if not fit.converged} == {logistic, sine}


def test_default_starts_cover_both_r_signs():
    dom = np.linspace(5.0, 45.0, 20)
    inp = synth_input(ModelKind.LINEAR, {"a": 0.5, "b": -0.01}, dom)
    starts = default_starts(inp)
    rs = {r for _, _, r in starts}
    assert any(r > 0 for r in rs) and any(r < 0 for r in rs)
    a_values = {a for _, a, _ in starts}
    assert {1.0, -1.0} <= a_values


def test_exempt_shape_param_can_stay_loose():
    # a tiny shape parameter is common in the reference fits; recovery of K
    # and r must not be disturbed by it
    truth = {"K": 4.168, "a": 0.00002, "r": -0.647}
    inp = synth_input(ModelKind.LOGISTIC, truth, np.linspace(5.0, 50.0, 27))
    fit = fit_model(ModelKind.LOGISTIC, inp)
    assert fit.params["K"] == pytest.approx(truth["K"], rel=1e-4)
    assert fit.params["r"] == pytest.approx(truth["r"], rel=1e-3)


# --------------------------------------------------------------- piecewise


def test_breakpoint_candidates_quartiles_of_gaps():
    dom = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    cands = breakpoint_candidates(dom)
    # candidates exist only where three distinct values remain on each side
    assert min(cands) > 3.0
    assert max(cands) < 5.0
    for cand in cands:
        gap_starts = [u for u in dom[:-1] if u < cand < u + 1.0]
        assert len(gap_starts) == 1
        frac = cand - gap_starts[0]
        assert min(abs(frac - q) for q in (0.25, 0.5, 0.75)) < 1e-12


def test_breakpoint_candidates_need_support():
    assert breakpoint_candidates(np.array([1.0, 2.0, 3.0, 4.0, 5.0])).size == 0


def test_piecewise_insufficient_support_raises():
    dom = (1.0, 2.0, 3.0, 4.0, 5.0, 5.0)
    chg = (0.1, 0.2, 0.3, 0.2, 0.1, 0.1)
    with pytest.raises(
        DomstabError,
        match="^no breakpoint candidate has three distinct dominance values on each side$",
    ):
        fit_model(ModelKind.LINEAR_QUADRATIC, FitInput(dom, chg))


def test_lq_exact_recovery_when_joint_on_grid():
    truth = {"a": 0.331, "b": 0.014, "c": 0.00033, "d": 28.341, "e": -0.108}
    # symmetric offsets put the joint exactly on a midpoint candidate
    dom = truth["d"] + np.linspace(-18.0, 18.0, 28)
    inp = synth_input(ModelKind.LINEAR_QUADRATIC, truth, dom)
    fit = fit_model(ModelKind.LINEAR_QUADRATIC, inp)
    for name, value in truth.items():
        assert fit.params[name] == pytest.approx(value, rel=1e-9)
    assert fit.converged
    assert derived_params(fit.kind, fit.params)["b1"] == pytest.approx(0.122, abs=1e-9)


def test_qq_exact_recovery_when_joint_on_grid():
    truth = {"a": -12.71, "b": 0.572, "c": -0.0066, "d": 43.061, "e": -0.0027, "f": 0.333}
    dom = truth["d"] + np.linspace(-20.0, 20.0, 28)
    inp = synth_input(ModelKind.QUADRATIC_QUADRATIC, truth, dom)
    fit = fit_model(ModelKind.QUADRATIC_QUADRATIC, inp)
    for name, value in truth.items():
        assert fit.params[name] == pytest.approx(value, rel=1e-8)
    derived = derived_params(fit.kind, fit.params)
    assert derived["c1"] == pytest.approx(-0.0039, abs=1e-9)
    assert derived["c2"] == pytest.approx(-0.0093, abs=1e-9)


def test_nested_model_ss_ordering():
    rng = np.random.default_rng(77)
    for seed in range(5):
        dom = np.sort(rng.uniform(1.0, 60.0, size=24))
        chg = rng.normal(0.0, 1.0, size=24)
        inp = FitInput(tuple(dom), tuple(chg))
        ss_lin = fit_model(ModelKind.LINEAR, inp).residual_ss
        ss_lq = fit_model(ModelKind.LINEAR_QUADRATIC, inp).residual_ss
        ss_qq = fit_model(ModelKind.QUADRATIC_QUADRATIC, inp).residual_ss
        assert ss_lq <= ss_lin + 1e-9
        assert ss_qq <= ss_lq + 1e-9


def test_piecewise_breakpoint_se_is_grid_resolution():
    truth = {"a": 0.3, "b": 0.01, "c": 0.0005, "d": 20.0, "e": -0.1}
    dom = truth["d"] + np.linspace(-12.0, 12.0, 26)
    inp = noisy_input(ModelKind.LINEAR_QUADRATIC, truth, dom, 0.05, seed=13)
    fit = fit_model(ModelKind.LINEAR_QUADRATIC, inp)
    assert fit.std_errors["d"] > 0.0
    assert math.isfinite(fit.std_errors["d"])
    # conditional-on-d errors for the remaining parameters
    for name in ("a", "b", "c", "e"):
        assert math.isfinite(fit.std_errors[name])


def test_piecewise_breakpoint_se_of_a_lone_candidate_is_infinite():
    """Six distinct values leave one gap with three on each side, and that
    gap is two ulps wide: two of its quartile points round onto its ends,
    which have too few values on one side, so one candidate is left and the
    grid has no spacing around it.  With seven values and two gaps one ulp
    wide, the quartile points of both round onto the value between them,
    which is one candidate too, not an exact joint with a zero error."""
    u = 3.0
    v = u + math.ulp(u)
    for dom in ([1.0, 2.0, u, v + math.ulp(v), 5.0, 6.0],
                [1.0, 2.0, u, v, v + math.ulp(v), 6.0, 7.0]):
        assert breakpoint_candidates(np.array(dom)).tolist() == [v]
        chg = (0.3, 0.1, -0.2, 0.05, 0.4, -0.1, 0.2)[:len(dom)]
        fit = fit_model(ModelKind.LINEAR_QUADRATIC, FitInput(tuple(dom), chg))
        assert fit.iterations == 1
        assert fit.params["d"] == v
        assert fit.std_errors["d"] == math.inf
        for name in ("a", "b", "c", "e"):
            assert math.isfinite(fit.std_errors[name])


def test_fit_model_dispatch():
    dom = np.linspace(2.0, 50.0, 25)
    inp = synth_input(ModelKind.LINEAR, {"a": 1.0, "b": -0.02}, dom)
    assert fit_model(ModelKind.LINEAR, inp).kind is ModelKind.LINEAR
    assert fit_model(ModelKind.LINEAR_QUADRATIC, inp).kind is ModelKind.LINEAR_QUADRATIC


def test_goodness_matches_r2_definition():
    rng = np.random.default_rng(3)
    dom = np.linspace(1.0, 40.0, 20)
    chg = 0.8 - 0.02 * dom + rng.normal(0.0, 0.05, size=20)
    inp = FitInput(tuple(dom), tuple(chg))
    fit = fit_model(ModelKind.LINEAR, inp)
    ss_res = float(np.sum((chg - evaluate_array(fit.kind, fit.params, dom)) ** 2))
    ss_tot = float(np.sum((chg - chg.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    assert fit.r2 == pytest.approx(r2, rel=1e-12)
    assert fit.r2_adj == pytest.approx(1.0 - (1.0 - r2) * (20 - 1) / (20 - 2 - 1), rel=1e-12)
    assert fit.r2_adj < fit.r2


def test_dominance_range_recorded():
    dom = np.linspace(3.0, 33.0, 16)
    inp = synth_input(ModelKind.LINEAR, {"a": 0.5, "b": -0.01}, dom)
    fit = fit_model(ModelKind.LINEAR, inp)
    assert fit.dominance_min == 3.0
    assert fit.dominance_max == 33.0


@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda kind: kind.value)
def test_std_errors_name_every_parameter(kind):
    truth = {"K": 2.0, "a": 0.5, "r": -0.3}
    inp = noisy_input(ModelKind.LOGISTIC, truth, np.linspace(2.0, 40.0, 25), 0.2, seed=31)
    fit = fit_model(kind, inp)
    assert set(fit.std_errors) == set(kind.param_names)
    assert all(math.isfinite(se) for se in fit.std_errors.values())
