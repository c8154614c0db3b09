"""Property tests for the dominance and diversity kernels, the sentinel
policy, the breakpoint grid and profile, the lockstep logistic-family search,
the fixed-point scan, the table round trip, the count parse and the CSV
writer."""

import csv
import io
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from domstab.dynamics import FixedPoint, _bisect, _multiplier_at, fixed_points
from domstab.errors import (
    DomstabError,
    ParseError,
    SingularInformationError,
    ZeroCommunityError,
)
from domstab.fitting import (
    _CERTIFY_ATOL,
    _CERTIFY_RTOL,
    GN_RELATIVE_SS_TOL,
    GN_STEP_TOL,
    FitInput,
    _linear_se_from_design,
    _lockstep,
    _screen,
    _stack_problems,
    breakpoint_candidates,
    fit_piecewise,
)
from domstab.ingest import _CHUNK_CELLS, AbundanceTable, SubjectSeries, emit_table, parse_table
from domstab.metrics import (
    community_stats,
    diversity_block,
    diversity_indices,
    species_dominances,
)
from domstab.models import ModelKind, derivative, evaluate, evaluate_array
from domstab.report import _write_rows
from domstab.stability import apply_sentinel, dominance_records, sentinel_value

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)

# Integer-valued and fractional counts, with zeros for absent species.
COUNTS = st.one_of(
    st.just(0.0),
    st.integers(1, 100_000).map(float),
    st.floats(1e-3, 1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def count_blocks(draw, max_species=300):
    """Species x samples blocks, up to ``max_species`` rows (more than 128, so
    the pairwise sums run in more than one block), every sample non-empty."""
    shape = (draw(st.integers(1, max_species)), draw(st.integers(1, 6)))
    block = draw(arrays(np.float64, shape, elements=COUNTS, fill=COUNTS))
    block[0, ~block.any(axis=0)] = 1.0
    return block


def subject(block: np.ndarray) -> SubjectSeries:
    n_species, n_samples = block.shape
    return SubjectSeries(
        subject_id="p",
        species_ids=tuple(f"s{i}" for i in range(n_species)),
        sample_ids=tuple(f"p_{t:03d}" for t in range(n_samples)),
        counts=block,
    )


@PROPERTY
@given(count_blocks())
def test_kernel_community_matches_scalar_reference(block):
    community, _, _ = species_dominances(block)
    expected = [community_stats(block[:, t]).dominance for t in range(block.shape[1])]
    assert community.tolist() == expected


@PROPERTY
@given(count_blocks())
def test_kernel_species_identity_and_absent_infinities(block):
    community, distance, dominance = species_dominances(block)
    present = block > 0
    com = np.broadcast_to(community, block.shape)[present]
    residual = com - distance[present] - dominance[present]
    scale = np.maximum(1.0, np.maximum(np.abs(com), np.abs(distance[present])))
    assert np.all(np.abs(residual) <= 1e-12 * scale)
    assert np.all(distance[~present] == math.inf)
    assert np.all(dominance[~present] == -math.inf)


@PROPERTY
@given(count_blocks())
def test_diversity_block_matches_scalar_reference(block):
    indices = diversity_block(block)
    expected = [diversity_indices(block[:, t]) for t in range(block.shape[1])]
    for which, values in indices.items():
        assert values.tobytes() == np.array([e.value(which) for e in expected]).tobytes()


@PROPERTY
@given(count_blocks(max_species=40))
def test_sentinel_floor_is_finite_minimum_and_idempotent(block):
    records = dominance_records(subject(block))
    floor = sentinel_value(records)
    assert floor == min(d for d in records.dominance.ravel().tolist() if math.isfinite(d))
    once = apply_sentinel(records)
    twice = apply_sentinel(once)
    assert sentinel_value(once) == floor
    assert np.array_equal(once.dominance, twice.dominance)
    assert np.array_equal(once.sentinel_replaced, twice.sentinel_replaced)
    assert np.array_equal(once.sentinel_replaced, block == 0)


@PROPERTY
@given(count_blocks(max_species=40), st.data())
def test_all_zero_sample_raises(block, data):
    column = data.draw(st.integers(0, block.shape[1] - 1))
    block[:, column] = 0.0
    with pytest.raises(ZeroCommunityError):
        species_dominances(block)


# ---------------------------------------------------------------- fitting


def _breakpoint_definition(values: list[float]) -> list[float]:
    distinct = sorted(set(values))
    out = []
    for u, v in zip(distinct, distinct[1:]):
        for q in (0.25, 0.5, 0.75):
            cand = u + q * (v - u)
            left = sum(x < cand for x in distinct)
            right = sum(x > cand for x in distinct)
            if left >= 3 and right >= 3:
                out.append(cand)
    return out


@PROPERTY
@given(
    st.lists(
        st.integers(-20, 20).map(float) | st.floats(-1e3, 1e3, allow_nan=False),
        min_size=1,
        max_size=40,
    )
)
# Gaps one ulp wide, where a candidate rounds onto a distinct value and only
# the strict comparisons keep it out: 5 + ulp/4 rounds to 5, 5 + 3ulp/4 to 5 + ulp.
@example([0.0, 1.0, 5.0, float(np.nextafter(5.0, 6.0)), 10.0, 11.0, 12.0])
@example([0.0, 1.0, 2.0, 5.0, float(np.nextafter(5.0, 6.0)), 10.0, 11.0])
def test_breakpoint_candidates_match_definition(values):
    assert breakpoint_candidates(np.array(values)) == _breakpoint_definition(values)


def _reference_design(kind, d, dom):
    gap = np.abs(dom - d)
    if kind is ModelKind.LINEAR_QUADRATIC:
        return np.column_stack([np.ones_like(dom), dom, dom**2 + gap * (dom + d), gap])
    return np.column_stack([np.ones_like(dom), dom, dom**2, gap * (dom + d), gap])


def _reference_piecewise(kind, inp):
    """The breakpoint profile as a loop, one design and one lstsq per
    candidate; returns (params, residual SS, candidates, std errors)."""
    dom, chg = inp.dominance, inp.change_rate
    candidates = breakpoint_candidates(dom)
    best = None
    for d in candidates:
        design = _reference_design(kind, d, dom)
        beta = np.linalg.lstsq(design, chg, rcond=None)[0]
        resid = chg - design @ beta
        key = (float(resid @ resid), d, tuple(beta))
        if best is None or key < best:
            best = key
    ss, d, beta = best
    names = kind.param_names
    params = dict(zip(names, map(float, [*beta[:3], d, *beta[3:]])))
    pred = evaluate_array(kind, params, dom)
    ss_res = float(np.sum((chg - pred) ** 2))
    try:
        se = _linear_se_from_design(
            _reference_design(kind, d, dom), ss_res, inp.n - kind.arity
        )
    except SingularInformationError:
        return params, ss, len(candidates), {name: math.inf for name in names}
    grid = sorted(candidates)
    i = int(np.argmin(np.abs(np.array(grid) - d)))
    gaps = [grid[j + 1] - grid[j] for j in (i - 1, i) if 0 <= j < len(grid) - 1]
    resolution = float(max(gaps)) if gaps else math.inf
    return params, ss, len(candidates), dict(
        zip(names, map(float, [*se[:3], resolution, *se[3:]]))
    )


@st.composite
def piecewise_inputs(draw):
    """Piecewise problems whose dominance values repeat and sit one ulp apart.

    Half the responses are exactly constant, affine or quadratic in
    dominance: every candidate then fits to roundoff, so their sums of
    squares are noise that a screen cannot rank."""
    base = draw(st.lists(st.floats(0.5, 60.0), min_size=7, max_size=30))
    extra = draw(
        st.lists(st.tuples(st.integers(0, len(base) - 1), st.booleans()), max_size=8)
    )
    values = base + [
        base[i] if duplicate else float(np.nextafter(base[i], np.inf))
        for i, duplicate in extra
    ]
    dom = np.array(draw(st.permutations(values)))
    degree = draw(st.sampled_from([None, None, None, 0, 1, 2]))
    if degree is None:
        chg = draw(arrays(np.float64, dom.size, elements=st.floats(-2.0, 2.0)))
    else:
        coef = draw(st.lists(st.floats(-2.0, 2.0), min_size=degree + 1, max_size=degree + 1))
        chg = np.polynomial.polynomial.polyval(dom, coef)
    kind = draw(st.sampled_from([ModelKind.LINEAR_QUADRATIC, ModelKind.QUADRATIC_QUADRATIC]))
    return kind, FitInput(dom, chg)


def _as_bits(values: dict) -> dict:
    return {name: np.float64(v).tobytes() for name, v in values.items()}


@settings(derandomize=True, max_examples=60, deadline=None)
@given(piecewise_inputs())
# Three values one ulp apart: every candidate between them rounds onto a value.
@example((
    ModelKind.LINEAR_QUADRATIC,
    FitInput(
        np.array([1.0, 2.0, 3.0, 5.0, float(np.nextafter(5.0, 6.0)),
                  float(np.nextafter(np.nextafter(5.0, 6.0), 6.0)), 8.0, 9.0, 10.0]),
        np.array([0.1, -0.2, 0.3, 0.0, 0.5, -0.1, 0.2, 0.4, -0.3]),
    ),
))
# A constant response: every candidate's SS is roundoff, and a certification
# margin relative to the best SS alone picks another breakpoint.
@example((
    ModelKind.LINEAR_QUADRATIC,
    FitInput(
        np.array([16.58592465444526, 17.989066733728826, 30.814895213016317,
                  20.55819765716103, 13.021805258976086, 16.58592465444526,
                  13.021805258976086, 30.814895213016317, 39.79563714545949,
                  53.807601962853504, 27.165862115140825, 53.80760196285351,
                  13.021805258976086]),
        np.full(13, -1.2509825068317202),
    ),
))
def test_piecewise_profile_matches_per_candidate_loop(problem):
    kind, inp = problem
    if not breakpoint_candidates(inp.dominance):
        with pytest.raises(DomstabError):
            fit_piecewise(kind, inp)
        return
    fit = fit_piecewise(kind, inp)
    params, ss, iterations, ses = _reference_piecewise(kind, inp)
    assert _as_bits(fit.params) == _as_bits(params)
    assert np.float64(fit.residual_ss).tobytes() == np.float64(ss).tobytes()
    assert fit.iterations == iterations
    assert _as_bits(fit.std_errors) == _as_bits(ses)


@PROPERTY
@given(piecewise_inputs())
# Dominance offset far from zero with a span of 1e-6: [1, D, D^2] is
# numerically rank-deficient.
@example((
    ModelKind.QUADRATIC_QUADRATIC,
    FitInput(
        4721.0 + np.array([0.0, 1.3, 2.1, 3.7, 4.2, 5.9, 6.4, 7.7, 8.8, 9.5]) * 1e-7,
        np.array([0.3, -0.1, 0.4, 0.2, -0.5, 0.1, 0.6, -0.2, 0.0, 0.35]),
    ),
))
@example((
    ModelKind.LINEAR_QUADRATIC,
    FitInput(
        1234.5 + np.array([0.0, 0.2, 0.3, 0.45, 0.5, 0.61, 0.8, 0.9, 1.0]) * 1e-6,
        np.array([1.0, 0.5, -0.25, 0.75, 0.0, -1.0, 0.25, 0.5, -0.5]),
    ),
))
# The three values right of every candidate sit one ulp apart, so the
# breakpoint columns are rank-deficient on that side.
@example((
    ModelKind.QUADRATIC_QUADRATIC,
    FitInput(
        np.array([1.0, 2.0, 3.0, 5.0, float(np.nextafter(5.0, 6.0)),
                  float(np.nextafter(np.nextafter(5.0, 6.0), 6.0))]),
        np.array([0.1, -0.2, 0.3, 0.0, 0.5, -0.1]),
    ),
))
def test_screen_never_exceeds_the_certification_bound(problem):
    """Certification is sound only if no candidate screens above its exact
    SS by more than the margin: otherwise the winner could be left unsolved."""
    kind, inp = problem
    dom, chg = inp.dominance, inp.change_rate
    cand = np.array(breakpoint_candidates(dom))
    if cand.size == 0:
        return
    screened = _screen(kind, cand, dom, chg)
    exact = []
    for d in cand:
        design = _reference_design(kind, d, dom)
        resid = chg - design @ np.linalg.lstsq(design, chg, rcond=None)[0]
        exact.append(resid @ resid)
    bound = np.array(exact) * (1.0 + _CERTIFY_RTOL) + _CERTIFY_ATOL * (chg @ chg)
    assert np.all(np.isfinite(screened))
    assert np.all(screened <= bound)


def _reference_gauss_newton(kind, start, inp, max_iter):
    """One start of the damped Gauss-Newton search, as a plain scalar loop.

    Returns (params, ss, iterations, converged, accepted-SS trace)."""
    dom, chg = inp.dominance, inp.change_rate
    vec = np.array(start, dtype=float)
    resid = chg - evaluate_array(kind, vec, dom)
    if not np.all(np.isfinite(resid)):
        return vec, math.inf, 0, False, []
    ss = float(resid @ resid)
    trace = [ss]
    lam = 1e-3
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        big_k, a, r = vec
        expo = np.exp(-r * dom)
        phi = 1.0 / (1.0 + a * expo)
        jac = np.column_stack(
            [phi, -big_k * expo * phi * phi, big_k * a * dom * expo * phi * phi]
        )
        if kind is ModelKind.LOGISTIC_SINE:
            jac = jac * np.sin(dom / math.pi)[:, None]
        if not np.all(np.isfinite(jac)):
            break
        jtj = jac.T @ jac
        jtr = jac.T @ resid
        stepped = False
        while lam <= 1e12:
            damped = jtj + lam * np.diag(np.maximum(np.diag(jtj), 1e-12))
            try:
                step = np.linalg.solve(damped, jtr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = vec + step
            trial_resid = chg - evaluate_array(kind, trial, dom)
            trial_ss = (
                float(trial_resid @ trial_resid)
                if np.all(np.isfinite(trial_resid))
                else math.inf
            )
            if trial_ss < ss:
                step_norm = float(np.linalg.norm(step))
                rel_drop = (ss - trial_ss) / max(ss, 1e-300)
                vec, resid, ss = trial, trial_resid, trial_ss
                trace.append(ss)
                lam = max(lam / 10.0, 1e-12)
                stepped = True
                if rel_drop < GN_RELATIVE_SS_TOL or step_norm < GN_STEP_TOL:
                    converged = True
                break
            lam *= 10.0
        if not stepped:
            converged = bool(np.all(np.isfinite(vec))) and ss < math.inf
            break
        if converged:
            break
    return vec, ss, iterations, converged, trace


@st.composite
def logistic_searches(draw):
    """Two to four logistic-family problems of one series length, both kinds
    among them, a stack of starts mixing rows of every problem, each row's
    owner and an iteration budget."""
    n = draw(st.integers(4, 40))
    count = draw(st.integers(2, 4))
    kinds = [ModelKind.LOGISTIC, ModelKind.LOGISTIC_SINE] + draw(
        st.lists(st.sampled_from([ModelKind.LOGISTIC, ModelKind.LOGISTIC_SINE]),
                 min_size=count - 2, max_size=count - 2)
    )
    problems = []
    for kind in kinds:
        dom = np.sort(draw(arrays(np.float64, n, elements=st.floats(0.5, 60.0), unique=True)))
        chg = draw(arrays(np.float64, n, elements=st.floats(-2.0, 2.0)))
        problems.append((kind, FitInput(dom, chg)))
    extra = draw(st.lists(st.integers(0, count - 1), max_size=5))
    owner = np.array(draw(st.permutations(list(range(count)) + extra)))
    k = st.floats(-5.0, 5.0)
    a = st.sampled_from([1e-4, 1.0, 1e4, -1e-4, -1.0, -1e4]) | st.floats(-10.0, 10.0)
    r = st.floats(-2.0, 2.0)
    starts = draw(st.lists(st.tuples(k, a, r), min_size=owner.size, max_size=owner.size))
    max_iter = draw(st.sampled_from([3, 14, 40]))
    return problems, owner, np.array(starts), max_iter


def _one_series(kinds, dom, chg, starts, max_iter):
    """A search over one problem per kind on one series, start ``i`` on
    problem ``i``."""
    inp = FitInput(np.array(dom), np.array(chg))
    return [(kind, inp) for kind in kinds], np.arange(len(kinds)), np.array(starts), max_iter


def _bits(outcome):
    """A lockstep row as comparable values, arrays by their bytes."""
    params, ss, iterations, converged, trace = outcome
    return params.tobytes(), np.float64(ss).tobytes(), iterations, converged, trace


@settings(derandomize=True, max_examples=40, deadline=None)
@given(logistic_searches())
# the first start converges in iteration 1, the second runs to max_iter
@example(_one_series(
    [ModelKind.LOGISTIC_SINE, ModelKind.LOGISTIC],
    [12.6, 16.1, 17.2, 24.5, 29.4, 45.1, 57.7, 58.9],
    [0.9, 0.16, -0.89, -1.36, 1.88, 0.06, -1.54, 0.49],
    [(2.8, 8.3, -1.8), (3.1, 6.2, 0.1)], 40,
))
# the first start's Jacobian turns non-finite in iteration 8, the second
# runs to max_iter
@example(_one_series(
    [ModelKind.LOGISTIC, ModelKind.LOGISTIC_SINE],
    [1.2, 12.7, 36.1, 46.1], [0.31, 1.3, -1.68, -0.52],
    [(-1.0, -3.0, 0.9), (-0.7, 9.5, 1.6)], 40,
))
# the first start's lambda passes _LAMBDA_MAX in iteration 4, the second
# runs to max_iter
@example(_one_series(
    [ModelKind.LOGISTIC, ModelKind.LOGISTIC_SINE],
    [15.0, 18.0, 46.7, 49.4, 57.4], [-0.55, -0.84, 0.88, -1.47, -0.07],
    [(-1.4, 2.1, 0.6), (1.8, -8.8, 0.2)], 40,
))
# every start's initial SS is non-finite (a pole at r = 0, a = -1): no start runs
@example(_one_series(
    [ModelKind.LOGISTIC, ModelKind.LOGISTIC_SINE],
    [1.0, 2.0, 3.0, 4.0], [0.5, -0.5, 0.25, 1.0],
    [(1.0, -1.0, 0.0), (1.0, -1.0, 0.0)], 3,
))
# the second start rejects a first rung whose second rung passes _LAMBDA_MAX,
# so its round tries one step and it stops at a stationary point
@example(_one_series(
    [ModelKind.LOGISTIC, ModelKind.LOGISTIC_SINE],
    [8.7, 25.7, 26.5, 32.3, 36.1, 52.4], [0.0, -0.35, 0.75, -0.68, 0.43, 0.91],
    [(-3.7, -1.0, 1.9), (4.9, -9.1, 1.3)], 40,
))
def test_lockstep_rows_match_lone_runs_and_scalar_reference(search):
    problems, owner, starts, max_iter = search
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        stacked = _lockstep(_stack_problems(problems), owner, starts, max_iter)
        for start, row, j in zip(starts, stacked, owner):
            kind, inp = problems[j]
            params, ss, iterations, converged, trace = _bits(row)
            (lone,) = _lockstep(_stack_problems([(kind, inp)]), np.zeros(1, int),
                                start[np.newaxis], max_iter)
            assert _bits(row) == _bits(lone)
            vec, ref_ss, ref_iterations, ref_converged, ref_trace = _reference_gauss_newton(
                kind, start, inp, max_iter
            )
            assert params == vec.tobytes()
            assert ss == np.float64(ref_ss).tobytes()
            assert (iterations, converged, trace) == (ref_iterations, ref_converged, ref_trace)


# ---------------------------------------------------------------- dynamics


def _reference_fixed_points(kind, params, domain, grid):
    """fixed_points with its bracket scan as a scalar loop over the grid."""
    lo, hi = domain
    xs = np.linspace(lo, hi, grid + 1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ys = evaluate_array(kind, params, xs)
    roots = []
    for i in range(grid):
        y0, y1 = float(ys[i]), float(ys[i + 1])
        if not (math.isfinite(y0) and math.isfinite(y1)):
            continue
        if y0 == 0.0:
            roots.append(float(xs[i]))
            continue
        if y0 * y1 < 0.0:
            roots.append(_bisect(kind, params, float(xs[i]), float(xs[i + 1]), y0))
    if math.isfinite(float(ys[-1])) and float(ys[-1]) == 0.0:
        roots.append(float(xs[-1]))
    out = []
    for root in sorted(roots):
        if out and abs(root - out[-1].location) <= (hi - lo) * 1e-12:
            continue
        if abs(evaluate(kind, params, root)) >= 1e-9:
            continue
        mult = _multiplier_at(kind, params, root)
        if abs(abs(mult) - 1.0) <= 1e-9:
            verdict = "marginal"
        elif abs(mult) < 1.0:
            verdict = "stable"
        else:
            verdict = "unstable"
        out.append(FixedPoint(location=root, multiplier=mult, verdict=verdict))
    return out


def _outcome_of(call):
    try:
        return repr(call())
    except DomstabError as exc:
        return f"{type(exc).__name__}: {exc}"


@st.composite
def fixed_point_problems(draw):
    """Model parameters (logistic ones with poles inside the domain), a
    domain and a grid size."""
    kind = draw(st.sampled_from(list(ModelKind)))
    coef = st.floats(-3.0, 3.0) | st.sampled_from([0.0, 1.0, -1.0])
    if kind.logistic_family:
        params = (draw(st.floats(-5.0, 5.0)), draw(st.floats(-10.0, 10.0)),
                  draw(st.floats(-2.0, 2.0)))
    else:
        params = tuple(draw(coef) for _ in kind.param_names)
    lo = draw(st.floats(-5.0, 5.0))
    hi = lo + draw(st.floats(0.1, 10.0))
    return kind, params, (lo, hi), draw(st.integers(1, 400))


@PROPERTY
@given(fixed_point_problems())
# Roots exactly on a grid point, and on the last grid point.
@example((ModelKind.LINEAR, (0.0, 1.0), (-1.0, 1.0), 10))
@example((ModelKind.LINEAR, (0.0, 1.0), (-1.0, 0.0), 7))
def test_fixed_point_scan_matches_scalar_loop(problem):
    kind, params, domain, grid = problem
    expected = _outcome_of(lambda: _reference_fixed_points(kind, params, domain, grid))
    assert _outcome_of(lambda: fixed_points(kind, params, domain, grid)) == expected


@PROPERTY
@given(fixed_point_problems())
def test_fixed_points_are_roots_with_map_multipliers(problem):
    """At each fixed point D*, |f(D*)| <= 1e-9 and the multiplier is
    1 + D* f'(D*) to within |f(D*)| (the term that vanishes at a root) and
    the rounding of the sums: with f(D*) = -4.07e-11 and a multiplier of 2
    the two forms differ by |f(D*)| plus 1.1e-16."""
    kind, params, domain, grid = problem
    for point in fixed_points(kind, params, domain, grid):
        rate = evaluate(kind, params, point.location)
        assert abs(rate) <= 1e-9
        slope = derivative(kind, params, point.location)
        if isinstance(slope, tuple):
            slope = slope[1]  # exactly on a piecewise joint: the right side
        roundoff = 4 * math.ulp(max(1.0, abs(point.multiplier)))
        assert abs(point.multiplier - (1.0 + point.location * slope)) <= abs(rate) + roundoff


# ---------------------------------------------------------------- ingest

# csv-quoted characters and inner line breaks that str.splitlines knows
# included; no tab (it would switch the detected delimiter) and no edge
# whitespace (the parser strips ids)
IDS = st.text(
    alphabet='abXY09_-,". \n\r\x0b\x0c\x1c\x85\u2028', min_size=1, max_size=6
).filter(
    lambda text: text == text.strip()
)
TABLE_COUNTS = st.one_of(
    st.just(0.0),
    st.integers(1, 2**53).map(float),
    st.floats(2.0**-53, 2.0**53),
)


@st.composite
def abundance_tables(draw):
    species = draw(st.lists(IDS, min_size=1, max_size=5, unique=True))
    samples = draw(st.lists(IDS, min_size=1, max_size=5, unique=True))
    counts = draw(arrays(np.float64, (len(species), len(samples)), elements=TABLE_COUNTS))
    return AbundanceTable(tuple(species), tuple(samples), counts)


@PROPERTY
@given(abundance_tables())
def test_emit_then_parse_round_trips(table):
    assert parse_table(emit_table(table)) == table


# Strings float() accepts beyond plain decimals, and strings a count may not
# be: non-numeric, non-finite, negative or outside [2**-53, 2**53].
ODD_COUNTS = ["-0", "1_000", " 12 ", "\uff11\uff12", "+5", "1E3", "9007199254740992",
              "1.1102230246251565e-16"]
BAD_COUNTS = ["nan", "-inf", "1e400", "0x10", "", " ", "1__0", "abc", "-1", "5e-324",
              "1e300", "9007199254740994"]


@st.composite
def count_texts(draw):
    """A table of 1-5 rows and 1-4 samples, with a blank line, a bad cell
    and a ragged row each in some tables, in any order."""
    width = draw(st.integers(1, 4))
    cell = st.one_of(
        st.integers(0, 10**6).map(str),
        st.floats(2.0**-53, 2.0**53).map(repr),
        st.sampled_from(ODD_COUNTS),
    )
    rows = [[draw(cell) for _ in range(width)] for _ in range(draw(st.integers(1, 5)))]
    if draw(st.booleans()):
        row, col = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, width - 1))
        rows[row][col] = draw(st.sampled_from(BAD_COUNTS))
    if draw(st.booleans()):
        row = draw(st.integers(0, len(rows) - 1))
        rows[row] = rows[row][: draw(st.integers(0, width - 1))] + ["7"] * draw(st.integers(0, 1))
        if len(rows[row]) == width:
            rows[row].append("7")
    lines = [",".join(["species_id", *(f"p_{j}" for j in range(width))])]
    lines += [",".join([f"s{i}", *row]) for i, row in enumerate(rows)]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(1, len(lines))), "")
    return "\n".join(lines) + "\n"


def per_cell_counts(text: str) -> np.ndarray:
    """The counts as a float() per cell in reading order gives them, or the
    ParseError, with its row, of the first ragged row, non-numeric cell,
    count out of range or unreadable record in record order."""
    records = enumerate(csv.reader(text.splitlines()), start=1)
    width, data, rownum = len(next(records)[1]), [], 1
    try:
        for rownum, row in records:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != width:
                raise ParseError(f"row {rownum} has {len(row)} fields, expected {width}", rownum)
            values = []
            for colnum, cell in enumerate(row[1:], start=1):
                where = f"at row {rownum}, column {colnum}"
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(f"non-numeric count {where}: {cell!r}", rownum) from None
                if value != 0.0 and not 2.0**-53 <= value <= 2.0**53:
                    if not math.isfinite(value) or value < 0:
                        raise ParseError(f"negative or non-finite count {where}", rownum)
                    raise ParseError(f"count outside [2**-53, 2**53] {where}: {cell!r}", rownum)
                values.append(value)
            data.append(values)
    except csv.Error as exc:
        raise ParseError(f"unreadable record at row {rownum + 1}: {exc}", rownum + 1) from None
    return np.array(data, dtype=float)


def assert_parses_like_per_cell(text: str, stream=None) -> None:
    """parse_table of ``stream`` (default: the text itself) gives the count
    bytes of :func:`per_cell_counts`, or its ParseError text and row."""
    try:
        expected = per_cell_counts(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as raised:
            parse_table(text if stream is None else stream)
        assert type(raised.value) is ParseError
        assert (str(raised.value), raised.value.row) == (str(exc), exc.row)
    else:
        counts = parse_table(text if stream is None else stream).counts
        assert counts.shape == expected.shape
        assert counts.tobytes() == expected.tobytes()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(count_texts())
@example("species_id,p_1,p_2\na,1,x\nb,1\n")  # bad cell, then a ragged row
@example("species_id,p_1,p_2\na,1\nb,1,x\n")  # ragged row, then a bad cell
def test_parse_counts_match_per_cell_float(text):
    assert_parses_like_per_cell(text)


# A quoted field left open runs past csv's field size limit: an unreadable record.
UNREADABLE = '"' + "1" * (csv.field_size_limit() + 1)


@st.composite
def chunked_texts(draw):
    """A table of 1-6 samples spanning 3-4 conversion chunks, with 1-3
    defects (a bad cell, a ragged row, a blank line or an unreadable
    record): the last in the third chunk or later, the others up to two
    chunks before it.  Cells include every spelling float() accepts."""
    width = draw(st.integers(1, 6))
    per_chunk = -(-_CHUNK_CELLS // (width + 1))
    n_rows = draw(st.integers(3 * per_chunk, 4 * per_chunk))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = rng.integers(0, 10**6, size=(n_rows, width)).astype(str).tolist()
    for _ in range(draw(st.integers(0, 4))):
        row, col = draw(st.integers(0, n_rows - 1)), draw(st.integers(0, width - 1))
        cells[row][col] = draw(st.sampled_from(ODD_COUNTS))
    lines = [",".join(["species_id", *(f"p_{j}" for j in range(width))])]
    lines += [",".join([f"s{i}", *row]) for i, row in enumerate(cells)]
    last = draw(st.integers(n_rows - per_chunk + 2, n_rows))
    before = draw(st.lists(st.integers(1, 2 * per_chunk), max_size=2))
    for line in sorted({last, *(last - gap for gap in before)}, reverse=True):
        kind = draw(st.sampled_from(["bad", "ragged", "blank", "unreadable"]))
        if kind == "bad":
            lines[line] = lines[line].rsplit(",", 1)[0] + "," + draw(st.sampled_from(BAD_COUNTS))
        elif kind == "ragged":  # one field over or one short
            over = draw(st.booleans())
            lines[line] = lines[line] + ",7" if over else lines[line].rsplit(",", 1)[0]
        elif kind == "blank":
            lines.insert(line, "")
        else:
            lines[line] = lines[line].split(",", 1)[0] + "," + UNREADABLE
    return "\n".join(lines) + "\n"


@settings(derandomize=True, max_examples=40, deadline=None)
@given(chunked_texts())
def test_chunked_parse_matches_per_cell_float(text):
    """Across chunk boundaries the counts and the first defect in record
    order are those of the per-cell reference, from a string and from a
    line iterator alike."""
    assert_parses_like_per_cell(text)
    assert_parses_like_per_cell(text, (line for line in io.StringIO(text, newline="")))


# ---------------------------------------------------------------- report

PAYLOAD_NAN = struct.unpack("<d", struct.pack("<Q", 0xFFF8_0000_0000_0123))[0]
FLOAT_CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, PAYLOAD_NAN, math.inf, -math.inf, 5e-324, 0.1]),
    st.floats(),
)
TEXT_CELLS = st.text(st.one_of(st.sampled_from(',"\r\n'), st.characters()), max_size=6)
CELLS = st.one_of(
    TEXT_CELLS,
    st.integers(-(10**30), 10**30),
    st.none(),
    FLOAT_CELLS,
    st.lists(FLOAT_CELLS, min_size=1, max_size=12).map(np.array),
)


def csv_writer_bytes(header: list, rows: list[list]) -> bytes:
    """What csv.writer writes for the rows, each array expanded into floats,
    with a bare carriage return quoted as Python 3.13 and later quote it.

    csv.writer quotes every character of its line terminator, so each row is
    written with the terminator ``"\\r\\n"`` and then ended with ``"\\n"``
    instead."""
    lines = []
    for row in [header, *rows]:
        out = io.StringIO()
        csv.writer(out, lineterminator="\r\n").writerow([
            value for cell in row
            for value in (cell.tolist() if isinstance(cell, np.ndarray) else [cell])
        ])
        lines.append(out.getvalue()[:-2] + "\n")
    return "".join(lines).encode("utf-8")


@PROPERTY
@given(
    st.lists(TEXT_CELLS, min_size=1, max_size=4),
    st.lists(st.lists(CELLS, max_size=6), max_size=4),
)
def test_write_rows_matches_csv_writer(header, rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_rows(Path(tmp) / "rows.csv", header, rows)
        assert path.read_bytes() == csv_writer_bytes(header, rows)
