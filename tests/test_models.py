import math

import numpy as np
import pytest

from domstab.errors import DomstabError
from domstab.models import (
    ModelKind,
    Regime,
    REGIME_TOLERANCE,
    branch_polynomials,
    derived_params,
    evaluate_array,
    param_dict,
    param_vector,
    qualitative_equilibria,
    response,
    slope,
)

# printed reference parameter sets reused across the suite
LOGISTIC_400 = {"K": 4.741, "a": 0.026, "r": -0.206}
SINE_420 = {"K": -0.294, "a": -1.677, "r": 0.048}
LQ_402 = {"a": 0.331, "b": 0.014, "c": 0.00033, "d": 28.341, "e": -0.108}
LQ_408 = {"a": 49.023, "b": -5.947, "c": 0.00067, "d": 8.187, "e": 5.862}
QQ_446 = {"a": -12.71, "b": 0.572, "c": -0.0066, "d": 43.061, "e": -0.0027, "f": 0.333}


def rate(kind, params, dom):
    """S at one dominance level, through the array form."""
    return float(evaluate_array(kind, params, np.array([dom]))[0])


def test_param_vector_and_dict_round_trip():
    for kind, params in [
        (ModelKind.LINEAR, {"a": 1.0, "b": -2.0}),
        (ModelKind.LOGISTIC, LOGISTIC_400),
        (ModelKind.LINEAR_QUADRATIC, LQ_402),
        (ModelKind.QUADRATIC_QUADRATIC, QQ_446),
    ]:
        vec = param_vector(kind, params)
        assert list(vec) == [params[name] for name in kind.param_names]
        assert param_dict(kind, vec) == params


def test_param_vector_rejects_wrong_arity():
    with pytest.raises(DomstabError, match=r"^linear expects 2 parameters, got \(3,\)$"):
        param_vector(ModelKind.LINEAR, [1.0, 2.0, 3.0])
    with pytest.raises(DomstabError, match=r"^logistic params missing \['K', 'r'\]$"):
        param_vector(ModelKind.LOGISTIC, {"a": 1.0, "b": 2.0})


def test_kind_properties():
    assert ModelKind.LINEAR.arity == 2
    assert ModelKind.LOGISTIC.arity == 3
    assert ModelKind.LOGISTIC_SINE.logistic_family
    assert ModelKind.LINEAR_QUADRATIC.piecewise
    assert not ModelKind.LINEAR.piecewise
    assert ModelKind.QUADRATIC_QUADRATIC.param_names == ("a", "b", "c", "d", "e", "f")


def test_logistic_value_at_zero():
    # K / (1 + a) at D = 0
    assert rate(ModelKind.LOGISTIC, LOGISTIC_400, 0.0) == pytest.approx(
        4.741 / 1.026, abs=5e-6
    )
    assert rate(ModelKind.LOGISTIC, LOGISTIC_400, 0.0) == pytest.approx(4.62086, abs=5e-6)


def test_logistic_sine_is_logistic_times_sine():
    dom = np.linspace(5.0, 60.0, 23)
    logistic = evaluate_array(ModelKind.LOGISTIC, param_vector(ModelKind.LOGISTIC, SINE_420), dom)
    sine = evaluate_array(ModelKind.LOGISTIC_SINE, param_vector(ModelKind.LOGISTIC_SINE, SINE_420), dom)
    np.testing.assert_allclose(sine, logistic * np.sin(dom / math.pi), rtol=1e-14)


def test_linear_evaluate():
    assert rate(ModelKind.LINEAR, {"a": 1.551, "b": -0.033}, 47.0) == pytest.approx(0.0, abs=1e-12)


def test_piecewise_continuity_at_joint():
    for kind, params in [
        (ModelKind.LINEAR_QUADRATIC, LQ_402),
        (ModelKind.LINEAR_QUADRATIC, LQ_408),
        (ModelKind.QUADRATIC_QUADRATIC, QQ_446),
    ]:
        d = params["d"]
        left, right = branch_polynomials(kind, params)
        at_left = left[0] + left[1] * d + left[2] * d * d
        at_right = right[0] + right[1] * d + right[2] * d * d
        assert at_left == pytest.approx(at_right, abs=1e-9)
        assert rate(kind, params, d) == pytest.approx(at_left, abs=1e-9)


def test_lq_402_joint_value_matches_reference():
    # a + b*d + c*d^2 at the printed 402 parameters
    assert rate(ModelKind.LINEAR_QUADRATIC, LQ_402, 28.341) == pytest.approx(0.99283, abs=5e-6)


def test_branch_polynomials_reproduce_evaluate():
    rng = np.random.default_rng(19)
    for kind in (ModelKind.LINEAR_QUADRATIC, ModelKind.QUADRATIC_QUADRATIC):
        for _ in range(50):
            vec = rng.normal(0.0, 1.0, size=kind.arity)
            vec[3] = abs(vec[3]) * 10 + 1.0  # joint position
            left, right = branch_polynomials(kind, vec)
            d = vec[3]
            for dom in (d - 5.0, d - 0.5):
                expected = left[0] + left[1] * dom + left[2] * dom * dom
                assert rate(kind, vec, dom) == pytest.approx(expected, rel=1e-10, abs=1e-12)
            for dom in (d + 0.5, d + 5.0):
                expected = right[0] + right[1] * dom + right[2] * dom * dom
                assert rate(kind, vec, dom) == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_branch_polynomials_reject_plain_kinds():
    with pytest.raises(DomstabError, match="^linear has no branches$"):
        branch_polynomials(ModelKind.LINEAR, {"a": 1.0, "b": 2.0})


def test_derived_params_lq():
    derived = derived_params(ModelKind.LINEAR_QUADRATIC, LQ_402)
    assert list(derived) == ["b1", "c2"]
    assert derived["b1"] == pytest.approx(0.122, abs=1e-9)
    assert derived["c2"] == pytest.approx(0.00066, abs=1e-9)


def test_derived_params_qq():
    derived = derived_params(ModelKind.QUADRATIC_QUADRATIC, QQ_446)
    assert list(derived) == ["b1", "c1", "c2"]
    assert derived["c1"] == pytest.approx(-0.0039, abs=1e-9)
    assert derived["c2"] == pytest.approx(-0.0093, abs=1e-9)


def test_derivative_matches_finite_difference():
    rng = np.random.default_rng(23)
    h = 1e-5
    cases = [
        (ModelKind.LINEAR, np.array([1.5, -0.03])),
        (ModelKind.LOGISTIC, param_vector(ModelKind.LOGISTIC, LOGISTIC_400)),
        (ModelKind.LOGISTIC_SINE, param_vector(ModelKind.LOGISTIC_SINE, SINE_420)),
        (ModelKind.LINEAR_QUADRATIC, param_vector(ModelKind.LINEAR_QUADRATIC, LQ_402)),
        (ModelKind.QUADRATIC_QUADRATIC, param_vector(ModelKind.QUADRATIC_QUADRATIC, QQ_446)),
    ]
    for kind, vec in cases:
        for _ in range(20):
            dom = float(rng.uniform(1.0, 70.0))
            if kind.piecewise and abs(dom - vec[3]) < 10 * h:
                continue  # the kink itself is tested separately
            approx = (
                rate(kind, vec, dom + h) - rate(kind, vec, dom - h)
            ) / (2 * h)
            assert slope(kind, vec)(dom) == pytest.approx(approx, abs=1e-6)


def test_derivative_at_joint_is_the_right_hand_slope():
    lpoly, rpoly = branch_polynomials(ModelKind.LINEAR_QUADRATIC, LQ_402)
    d = LQ_402["d"]
    below = math.nextafter(d, -math.inf)
    assert slope(ModelKind.LINEAR_QUADRATIC, LQ_402)(d) == rpoly[1] + 2 * rpoly[2] * d
    assert slope(ModelKind.LINEAR_QUADRATIC, LQ_402)(below) == lpoly[1] + 2 * lpoly[2] * below
    assert lpoly[1] + 2 * lpoly[2] * d != pytest.approx(rpoly[1] + 2 * rpoly[2] * d)


def test_lq_right_branch_slope_uses_full_quadratic_derivative():
    # right-branch coefficients are (b+e) and 2c, so the slope at D > d is
    # (b+e) + 4cD; checked against a finite difference far from the joint
    params = {"a": 0.2, "b": 0.03, "c": 0.004, "d": 10.0, "e": 0.01}
    dom = 25.0
    h = 1e-6
    fd = (
        rate(ModelKind.LINEAR_QUADRATIC, params, dom + h)
        - rate(ModelKind.LINEAR_QUADRATIC, params, dom - h)
    ) / (2 * h)
    analytic = slope(ModelKind.LINEAR_QUADRATIC, params)(dom)
    assert analytic == pytest.approx((params["b"] + params["e"]) + 4 * params["c"] * dom, rel=1e-9)
    assert analytic == pytest.approx(fd, abs=1e-5)


def test_derivative_finite_path_keeps_its_bits():
    # K*a*r*exp(-r*D) / (1 + a*exp(-r*D))^2, the digits written before the
    # overflowing cases got their own route
    pins = {
        ModelKind.LOGISTIC: (LOGISTIC_400, [
            -0.029299479839707744, -0.09457951091780922, -0.03641085150976176]),
        ModelKind.LOGISTIC_SINE: (SINE_420, [
            0.16824551774576396, -0.009975218877058434, 0.04449230828374047]),
    }
    for kind, (params, slopes) in pins.items():
        assert [slope(kind, params)(dom) for dom in (1.0, 7.5, 33.3)] == slopes


@pytest.mark.parametrize("kind", [ModelKind.LOGISTIC, ModelKind.LOGISTIC_SINE])
@pytest.mark.parametrize(
    "params, dom",
    [
        ((1.0, 1.0, -1000.0), 10.0),           # exp(-r*D) = exp(10000) overflows
        ((0.5, 1.6e-59, -30.3), 23.5),          # exp(-r*D) overflows, a*exp(-r*D) does not
        ((1.0, 1e10, -1.0), 690.0),             # exp(-r*D) is finite, a*exp(-r*D) is not
    ],
)
def test_derivative_where_the_exponential_overflows_is_the_finite_limit(kind, params, dom):
    dsdd = slope(kind, params)(dom)
    assert math.isfinite(dsdd)
    h = 1e-3
    central = (rate(kind, params, dom + h) - rate(kind, params, dom - h)) / (2 * h)
    assert dsdd == pytest.approx(central, abs=1e-12)
    assert Regime.of(dsdd) is Regime.DIS


def test_derivative_with_a_zero_has_no_exponential_to_overflow():
    for kind in (ModelKind.LOGISTIC, ModelKind.LOGISTIC_SINE):
        no_exponential = slope(kind, (1.0, 0.0, 0.0))(10.0)
        assert slope(kind, (1.0, 0.0, -1000.0))(10.0) == no_exponential


def test_evaluate_with_a_zero_is_k_where_the_exponential_overflows():
    dom = np.array([10.0, 0.1])  # exp(-r*D) = exp(10000) overflows at D = 10 only
    for kind, scale in [
        (ModelKind.LOGISTIC, np.ones(2)),
        (ModelKind.LOGISTIC_SINE, np.sin(dom / math.pi)),
    ]:
        out = evaluate_array(kind, (2.5, 0.0, -1000.0), dom)
        assert out.tobytes() == (2.5 * scale).tobytes()
        assert out.tobytes() == evaluate_array(kind, (2.5, 0.0, 0.0), dom).tobytes()
        assert response(kind, (2.5, 0.0, -1000.0))(10.0) == out[0]


def test_derivative_pole_is_eval_error():
    # 1 + a exp(-r D) = 0 at D = 0 when a = -1
    params = {"K": 1.0, "a": -1.0, "r": 1.0}
    for kind in (ModelKind.LOGISTIC, ModelKind.LOGISTIC_SINE):
        with pytest.raises(DomstabError, match=rf"^{kind.value} derivative has a pole at D=0\.0$"):
            slope(kind, params)(0.0)


def test_evaluate_array_passes_non_finite_through():
    params = param_vector(ModelKind.LOGISTIC, {"K": 1.0, "a": -1.0, "r": 0.0})
    out = evaluate_array(ModelKind.LOGISTIC, params, np.array([5.0]))
    assert not np.isfinite(out[0])


def test_regime_classification_by_slope_sign():
    lin_down = {"a": 1.0, "b": -0.05}
    lin_up = {"a": -1.0, "b": 0.05}
    lin_flat = {"a": 1.0, "b": 0.0}
    assert Regime.of(slope(ModelKind.LINEAR, lin_down)(10.0)) is Regime.DDS
    assert Regime.of(slope(ModelKind.LINEAR, lin_up)(10.0)) is Regime.DID
    assert Regime.of(slope(ModelKind.LINEAR, lin_flat)(10.0)) is Regime.DIS


def test_regime_tolerance_band():
    barely = {"a": 1.0, "b": 5e-10}
    assert Regime.of(slope(ModelKind.LINEAR, barely)(1.0)) is Regime.DIS


def test_regime_of_the_tolerance_edges():
    # |slope| <= REGIME_TOLERANCE is DIS, either sign of zero included
    tol = REGIME_TOLERANCE
    assert Regime.of(0.0) is Regime.DIS
    assert Regime.of(-0.0) is Regime.DIS
    assert Regime.of(tol) is Regime.DIS
    assert Regime.of(-tol) is Regime.DIS
    assert Regime.of(math.nextafter(tol, math.inf)) is Regime.DID
    assert Regime.of(math.nextafter(-tol, -math.inf)) is Regime.DDS


def test_regime_at_joint_is_the_right_hand_regime():
    d = LQ_402["d"]
    assert Regime.of(slope(ModelKind.LINEAR_QUADRATIC, LQ_402)(d)) is Regime.DDS  # (b+e) + 4cd < 0
    below = math.nextafter(d, -math.inf)
    assert Regime.of(slope(ModelKind.LINEAR_QUADRATIC, LQ_402)(below)) is Regime.DID  # b1 = 0.122 > 0


def test_regime_at_joint_agreeing_sides_collapse():
    # both branches rising at the joint: not ambiguous
    params = {"a": 0.0, "b": 1.0, "c": 0.001, "d": 5.0, "e": 0.1}
    result = Regime.of(slope(ModelKind.LINEAR_QUADRATIC, params)(5.0))
    assert result is Regime.DID


def test_equilibria_lq_402():
    points = qualitative_equilibria(ModelKind.LINEAR_QUADRATIC, LQ_402)
    joint = points[0]
    assert joint.point_kind == "joint"
    assert joint.location == 28.341
    assert joint.verdict == "unstable"  # b1 > 0
    vertices = [p for p in points if p.point_kind == "vertex"]
    assert all(p.branch == "right" for p in vertices)  # left branch is linear
    (vertex,) = vertices
    assert vertex.verdict == "stable"  # c2 = 2c > 0
    right = branch_polynomials(ModelKind.LINEAR_QUADRATIC, LQ_402)[1]
    assert vertex.location == pytest.approx(-right[1] / (2 * right[2]), rel=1e-12)


def test_equilibria_lq_b1_negative():
    points = qualitative_equilibria(ModelKind.LINEAR_QUADRATIC, LQ_408)
    assert points[0].verdict == "depends-on-c2"  # b1 < 0


def test_equilibria_lq_b1_zero_is_uncertain():
    params = {"a": 0.0, "b": 0.1, "c": 0.001, "d": 5.0, "e": 0.1}  # b1 = b - e = 0
    points = qualitative_equilibria(ModelKind.LINEAR_QUADRATIC, params)
    assert derived_params(ModelKind.LINEAR_QUADRATIC, params)["b1"] == 0.0
    assert (points[0].point_kind, points[0].verdict) == ("joint", "uncertain")


def test_equilibria_qq_joint_uncertain():
    points = qualitative_equilibria(ModelKind.QUADRATIC_QUADRATIC, QQ_446)
    assert points[0].point_kind == "joint"
    assert points[0].verdict == "uncertain"
    vertices = [p for p in points if p.point_kind == "vertex"]
    assert {p.branch for p in vertices} == {"left", "right"}
    for p in vertices:
        assert p.verdict == "unstable"  # c1 < 0 and c2 < 0


def test_equilibria_reject_plain_kinds():
    with pytest.raises(
        DomstabError, match="^qualitative equilibria are defined for piecewise kinds, not logistic$"
    ):
        qualitative_equilibria(ModelKind.LOGISTIC, LOGISTIC_400)
