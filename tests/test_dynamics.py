import math
import re

import pytest

from domstab.errors import DivergenceError, DomstabError
from domstab.dynamics import fixed_points, iterate, resilience
from domstab.fitting import ModelFit
from domstab.models import ModelKind

LINEAR_405 = {"a": 1.551, "b": -0.033}
SINE_420 = {"K": -0.294, "a": -1.677, "r": 0.048}


def test_linear_fixed_point_location_and_multiplier():
    (point,) = fixed_points(ModelKind.LINEAR, LINEAR_405, (0.0, 100.0))
    assert point.location == pytest.approx(1.551 / 0.033, abs=1e-6)
    assert point.location == pytest.approx(47.0, abs=1e-6)
    # multiplier 1 + S + D S' with S = 0 at the root
    assert point.multiplier == pytest.approx(1.0 - 0.033 * 47.0, abs=1e-6)
    assert point.multiplier == pytest.approx(-0.551, abs=1e-3)
    assert point.verdict == "stable"


def test_linear_trajectories_converge_from_both_sides():
    target = 1.551 / 0.033
    for start in (30.0, 60.0):
        traj = iterate(ModelKind.LINEAR, LINEAR_405, start)
        assert traj.status == "converged"
        assert traj.values[-1] == pytest.approx(target, abs=1e-4)
        assert len(traj.values) <= 501


def test_trajectory_records_start_and_path():
    traj = iterate(ModelKind.LINEAR, LINEAR_405, 30.0)
    assert traj.values[0] == 30.0
    # first step follows the map by hand
    s0 = 1.551 - 0.033 * 30.0
    assert traj.values[1] == pytest.approx(30.0 * (1.0 + s0), rel=1e-14)


def test_oscillating_orbit_detected():
    # period-doubled regime of the quadratic map: stable 2-cycle
    params = {"a": 2.2, "b": -0.01}
    traj = iterate(ModelKind.LINEAR, params, 150.0)
    assert traj.status == "oscillating"
    # the last two values alternate around the unstable fixed point at 220
    low, high = sorted(traj.values[-2:])
    assert low < 220.0 < high


def test_collapse_detected():
    traj = iterate(ModelKind.LINEAR, {"a": 0.5, "b": -0.1}, 20.0)
    assert traj.status == "collapsed"
    assert traj.values[-1] <= 0.0


def test_negative_dominance_iterates_until_it_changes_sign():
    """Relative abundances give negative D: the map keeps iterating there
    and calls a step collapsed only where D reaches 0 or turns positive."""
    params = {"a": 0.5, "b": 0.1}  # S(D) = 0.5 + 0.1 D: a stable fixed point at D = -5
    traj = iterate(ModelKind.LINEAR, params, -3.0)
    assert traj.status == "converged"
    assert traj.values[-1] == pytest.approx(-5.0, abs=1e-4)
    collapsing = iterate(ModelKind.LINEAR, {"a": -3.0, "b": 0.0}, -1.0)
    assert collapsing.status == "collapsed" and collapsing.values == (-1.0, 2.0)


def test_max_steps_when_convergence_is_slow():
    traj = iterate(ModelKind.LINEAR, {"a": 0.001, "b": -0.00001}, 50.0, max_steps=500)
    assert traj.status == "max-steps"
    assert len(traj.values) == 501


def test_divergence_raises():
    with pytest.raises(DivergenceError):
        iterate(ModelKind.LINEAR, {"a": 0.1, "b": 0.01}, 10.0)


def test_runaway_orbit_overflow_is_divergence():
    # D**2 overflows (silently, with RuntimeWarnings as errors) before D does
    params = {"a": 0.1, "b": 0.01, "c": 0.01, "d": 0.0, "e": 0.0}
    with pytest.raises(DivergenceError):
        iterate(ModelKind.LINEAR_QUADRATIC, params, 10.0)


def test_logistic_pole_is_divergence():
    # 1 + a exp(-r D) = 0 at D = 0: the rate is non-finite on the first step
    with pytest.raises(DivergenceError) as info:
        iterate(ModelKind.LOGISTIC, {"K": 1.0, "a": -1.0, "r": 1.0}, 0.0)
    assert info.value.step == 1


def test_sine_roots_sit_on_sine_nodes():
    points = fixed_points(ModelKind.LOGISTIC_SINE, SINE_420, (1.0, 65.0))
    assert points, "expected roots on the sine nodes"
    pi2 = math.pi * math.pi
    for p in points:
        k = round(p.location / pi2)
        assert k >= 1
        assert p.location == pytest.approx(k * pi2, abs=1e-8)


def test_sine_pole_not_reported_as_root():
    # 1 + a e^{-rD} = 0 at D = ln(-a)/r ~ 10.77 for these parameters; the
    # sign change across the pole must not masquerade as a fixed point
    pole = math.log(1.677) / 0.048
    points = fixed_points(ModelKind.LOGISTIC_SINE, SINE_420, (1.0, 65.0))
    assert all(abs(p.location - pole) > 0.5 for p in points)


@pytest.mark.parametrize("slope", [-1.0, -100.0, -1000.0])
def test_steep_root_is_not_taken_for_a_pole(slope):
    """Bisection stops at a width of 1e-10, so at a slope of -100 the root
    keeps a rate of 2.4e-9; it is still below the rates at its bracket's
    grid ends, which is what tells a root from a pole."""
    root = 1.0742468
    (point,) = fixed_points(ModelKind.LINEAR, {"a": -slope * root, "b": slope}, (0.0, 10.0))
    assert point.location == pytest.approx(root, abs=1e-10)
    assert point.multiplier == pytest.approx(1.0 + root * slope, rel=1e-9)
    assert point.verdict == ("stable" if slope == -1.0 else "unstable")


def test_logistic_without_roots_returns_empty():
    # K/(1 + a e^{-rD}) with K, a > 0 never touches zero
    points = fixed_points(ModelKind.LOGISTIC, {"K": 2.0, "a": 0.5, "r": -0.2}, (0.0, 80.0))
    assert points == []


def test_fixed_points_multiplier_signs():
    # rising line: S' > 0 at the root, multiplier above one
    (point,) = fixed_points(ModelKind.LINEAR, {"a": -1.0, "b": 0.02}, (0.0, 100.0))
    assert point.location == pytest.approx(50.0, abs=1e-8)
    assert point.multiplier == pytest.approx(2.0, abs=1e-6)
    assert point.verdict == "unstable"


@pytest.mark.parametrize("kind, params", [
    (ModelKind.LINEAR, LINEAR_405),
    (ModelKind.LOGISTIC_SINE, {"K": 0.5, "a": 2.0, "r": 0.3}),
    (ModelKind.LINEAR_QUADRATIC, {"a": -3.95, "b": 1.525, "c": -0.15, "d": 5.0, "e": 1.675}),
    (ModelKind.QUADRATIC_QUADRATIC,
     {"a": 1.0, "b": -0.2, "c": 0.004, "d": 10.0, "e": 0.002, "f": 0.05}),
])
def test_fixed_points_are_python_floats(kind, params):
    """A report spells a NumPy float as ``np.float64(...)``, so every
    location and multiplier is a Python float.  The logistic kind is left
    out: K / (1 + a e^{-rD}) has no root."""
    points = fixed_points(kind, params, (1.0, 60.0))
    assert points
    for point in points:
        assert type(point.location) is float and type(point.multiplier) is float


def test_roots_from_adjacent_brackets_within_the_tolerance_are_one():
    """S = 1e-12 - |D - 100| crosses zero at 100 -+ 1e-12, on either side
    of the grid point 100, so the brackets on each side bisect to roots
    closer than the scan's duplicate tolerance (2e-10 on this domain); the
    second is dropped."""
    params = {"a": 1e-12, "b": 0.0, "c": 0.0, "d": 100.0, "e": -1.0}
    (point,) = fixed_points(ModelKind.LINEAR_QUADRATIC, params, (0.0, 200.0))
    assert point.location == pytest.approx(100.0, abs=1e-10)
    assert point.location < 100.0  # the left bracket's root
    assert point.verdict == "unstable"


def test_sign_change_between_underflowing_rates_is_a_root():
    """Around D = 2 pi^2 this fit's rates are about 1e-173, so the product
    of two neighbouring grid rates underflows to -0.0; the root is found all
    the same, and its multiplier raises no overflow warning."""
    params = {"K": 0.11661896023125502, "a": 1.3937883737885165e-45, "r": -24.837225272488777}
    points = fixed_points(ModelKind.LOGISTIC_SINE, params, (0.0, 19.823928638551962))
    pi2 = math.pi * math.pi
    assert [p.location for p in points] == pytest.approx([0.0, pi2, 2 * pi2], abs=1e-8)


@pytest.mark.parametrize(
    "domain, message",
    [
        ((0.0, math.inf), "fixed-point domain (0.0, inf) is not finite"),
        ((math.nan, 1.0), "fixed-point domain (nan, 1.0) is not finite"),
        ((0.0, 0.0), "fixed-point domain (0.0, 0.0) is empty"),
        ((2.0, 1.0), "fixed-point domain (2.0, 1.0) is empty"),
    ],
)
def test_fixed_points_rejects_bad_domain(domain, message):
    with pytest.raises(DomstabError, match=f"^{re.escape(message)}$"):
        fixed_points(ModelKind.LINEAR, LINEAR_405, domain)


def linear_fit(a: float, b: float) -> ModelFit:
    return ModelFit(
        kind=ModelKind.LINEAR,
        params={"a": a, "b": b},
        std_errors={"a": 0.1, "b": 0.01},
        r2=0.7,
        r2_adj=0.7,
        residual_ss=1.0,
        n=28,
        converged=True,
        iterations=0,
        pearson_r=0.84,
    )


def test_resilience_is_linear_slope():
    res = resilience(linear_fit(1.551, -0.033))
    assert res.slope == -0.033
    assert res.magnitude == 0.033


def test_resilience_rejects_other_kinds():
    fit = ModelFit(
        kind=ModelKind.LOGISTIC,
        params={"K": 1.0, "a": 0.1, "r": -0.1},
        std_errors={"K": 0.1, "a": 0.01, "r": 0.01},
        r2=0.8,
        r2_adj=0.8,
        residual_ss=1.0,
        n=28,
        converged=True,
        iterations=5,
    )
    with pytest.raises(DomstabError, match="^resilience is defined for linear fits only$"):
        resilience(fit)
