"""Property tests for the dominance and diversity kernels, the sentinel
policy, the breakpoint grid and profile, the lockstep logistic-family search
and the fixed-point scan."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from domstab.dynamics import FixedPoint, _bisect, _multiplier_at, fixed_points
from domstab.errors import DomstabError, SingularInformationError, ZeroCommunityError
from domstab.fitting import (
    _ABORT_GRACE,
    GN_RELATIVE_SS_TOL,
    GN_STEP_TOL,
    FitInput,
    _linear_se_from_design,
    _lockstep,
    _Problem,
    breakpoint_candidates,
    fit_piecewise,
)
from domstab.ingest import SubjectSeries
from domstab.metrics import (
    community_stats,
    diversity_block,
    diversity_indices,
    species_dominances,
)
from domstab.models import ModelKind, evaluate, evaluate_array
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
    """Piecewise problems whose dominance values repeat and sit one ulp apart."""
    base = draw(st.lists(st.floats(0.5, 60.0), min_size=7, max_size=30))
    extra = draw(
        st.lists(st.tuples(st.integers(0, len(base) - 1), st.booleans()), max_size=8)
    )
    values = base + [
        base[i] if duplicate else float(np.nextafter(base[i], np.inf))
        for i, duplicate in extra
    ]
    dom = np.array(draw(st.permutations(values)))
    chg = draw(arrays(np.float64, dom.size, elements=st.floats(-2.0, 2.0)))
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
    """A logistic-family problem, a stack of starts and an iteration budget."""
    n = draw(st.integers(4, 40))
    dom = np.sort(draw(arrays(np.float64, n, elements=st.floats(0.5, 60.0), unique=True)))
    chg = draw(arrays(np.float64, n, elements=st.floats(-2.0, 2.0)))
    kind = draw(st.sampled_from([ModelKind.LOGISTIC, ModelKind.LOGISTIC_SINE]))
    k = st.floats(-5.0, 5.0)
    a = st.sampled_from([1e-4, 1.0, 1e4, -1e-4, -1.0, -1e4]) | st.floats(-10.0, 10.0)
    r = st.floats(-2.0, 2.0)
    starts = draw(st.lists(st.tuples(k, a, r), min_size=1, max_size=6))
    max_iter = draw(st.sampled_from([3, _ABORT_GRACE + 2, 40]))
    return kind, FitInput(dom, chg), np.array(starts), max_iter


def _bits(outcome):
    """A lockstep row as comparable values, arrays by their bytes."""
    (params, ss, iterations, converged, trace), grace = outcome
    if grace is not None:
        grace = (grace[0].tobytes(), grace[1])
    return params.tobytes(), np.float64(ss).tobytes(), iterations, converged, trace, grace


@settings(derandomize=True, max_examples=40, deadline=None)
@given(logistic_searches())
def test_lockstep_rows_match_lone_runs_and_scalar_reference(search):
    kind, inp, starts, max_iter = search
    problem = _Problem.of(kind, inp)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        stacked = [_bits(row) for row in zip(*_lockstep(problem, starts, max_iter))]
        alone = [_bits(next(zip(*_lockstep(problem, starts[i:i + 1], max_iter))))
                 for i in range(len(starts))]
        assert stacked == alone
        for start, (params, ss, iterations, converged, trace, grace) in zip(starts, stacked):
            vec, ref_ss, ref_iterations, ref_converged, ref_trace = _reference_gauss_newton(
                kind, start, inp, max_iter
            )
            assert params == vec.tobytes()
            assert ss == np.float64(ref_ss).tobytes()
            assert (iterations, converged, trace) == (ref_iterations, ref_converged, ref_trace)
            if grace is not None:  # the state at the top of the iteration after the grace period
                vec, _, _, _, ref_trace = _reference_gauss_newton(
                    kind, start, inp, _ABORT_GRACE
                )
                assert grace == (vec.tobytes(), len(ref_trace))


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
