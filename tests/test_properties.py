"""Property tests for the dominance and diversity kernels, the sentinel
policy, the stability series, the breakpoint grid and profile, the lockstep
logistic-family search, validity screening and selection, the fixed-point
scan, the table round trip, the count parse and the CSV writer."""

import csv
import io
import math
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from conftest import emit_table

from domstab import dynamics, report
from domstab.dynamics import ROOT_TOL, FixedPoint, _bisect, fixed_points, iterate
from domstab.errors import DivergenceError, DomstabError, InputError
from domstab.fitting import (
    _CERTIFY_ATOL,
    _CERTIFY_RTOL,
    GN_RELATIVE_SS_TOL,
    GN_STEP_TOL,
    FitInput,
    ModelFit,
    _best,
    _lockstep,
    _screen,
    _stack_problems,
    _std_errors,
    breakpoint_candidates,
    fit_model,
)
from domstab.ingest import _CHUNK_CELLS, AbundanceTable, SubjectSeries, parse_table
from domstab.metrics import (
    community_stats,
    diversity_block,
    diversity_indices,
    species_dominances,
)
from domstab.models import ModelKind, evaluate_array, param_vector, response, slope
from domstab.report import _spell_rows, _write_rows
from domstab.selection import PRIORITY, SelectionPolicy, select, validate
from domstab.stability import (
    EPS_DENOMINATOR,
    SubjectDominance,
    apply_sentinel,
    community_stability,
    dominance_records,
    sentinel_value,
    species_stability,
)

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
# four samples with two present species each and one with a single species
@example(np.array([[1.0, 2.0, 0.0, 3.0, 5.0], [4.0, 0.0, 5.0, 6.0, 0.0], [0.0, 7.0, 8.0, 0.0, 0.0]]))
# 300 and twice 200 present species: the pairwise sums run in more than one block
@example(np.where(np.arange(300)[:, np.newaxis] < [300, 200, 200],
                  np.sqrt(np.arange(1.0, 901.0)).reshape(300, 3), 0.0))
def test_diversity_block_matches_scalar_reference(block):
    indices = diversity_block(block)
    expected = [diversity_indices(block[:, t]) for t in range(block.shape[1])]
    for which, values in indices.items():
        assert values.tobytes() == np.array([e[which] for e in expected]).tobytes()


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
    assert np.array_equal(once.distance, twice.distance)
    # the floored cells are the absent ones, and their distance marks them
    assert np.array_equal(once.dominance != records.dominance, block == 0)
    assert np.array_equal(once.distance == math.inf, block == 0)


@PROPERTY
@given(count_blocks(max_species=40), st.data())
def test_all_zero_sample_raises(block, data):
    column = data.draw(st.integers(0, block.shape[1] - 1))
    block[:, column] = 0.0
    with pytest.raises(DomstabError, match="^all abundances are zero$"):
        species_dominances(block)


# ---------------------------------------------------------------- stability


def _reference_stability(values: list[float]):
    """The stability series as the per-step scalar loop: (t, D(t), S(t)) of
    each kept step and (t, D(t), reason) of each excluded one."""
    points, excluded = [], []
    for t in range(len(values) - 1):
        d_now, d_next = values[t], values[t + 1]
        if not (math.isfinite(d_now) and math.isfinite(d_next)):
            excluded.append((t, d_now, "non-finite dominance"))
            continue
        if abs(d_now) < EPS_DENOMINATOR:
            excluded.append((t, d_now, "dominance below eps"))
            continue
        points.append((t, d_now, (d_next - d_now) / d_now))
    return points, excluded


_NEAR_EPS = [np.nextafter(EPS_DENOMINATOR, 0.0), EPS_DENOMINATOR,
             np.nextafter(EPS_DENOMINATOR, 1.0)]
# Dominance around the exclusion edges: |D| just below, at and just above
# EPS_DENOMINATOR, signed zeros, infinities and NaN, among any other float.
DOMINANCE = st.one_of(
    st.sampled_from([*map(float, _NEAR_EPS), *(-float(x) for x in _NEAR_EPS),
                     0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.floats(-10.0, 10.0),
    st.floats(),
)
# S(0) overflows to inf; 0.0 before -inf is a non-finite step, not a small one.
EDGES = [2e-9, 1e308, float(_NEAR_EPS[0]), 1.0, -float(_NEAR_EPS[2]), 3.0, math.inf,
         1.0, math.nan, 0.0, -math.inf, 5.0]


def _assert_matches_reference(series, values: list[float]) -> None:
    points, excluded = _reference_stability(values)
    assert series.points.tolist() == [t for t, _, _ in points]
    assert series.dominance.dtype == series.change_rate.dtype == np.float64
    assert series.dominance.tobytes() == np.array([d for _, d, _ in points]).tobytes()
    assert series.change_rate.tobytes() == np.array([s for _, _, s in points]).tobytes()
    bits = [(e.t, struct.pack("<d", e.dominance), e.reason) for e in series.excluded]
    assert bits == [(t, struct.pack("<d", d), why) for t, d, why in excluded]


def _dominance_records(community: np.ndarray, species: np.ndarray) -> SubjectDominance:
    return SubjectDominance(
        sample_ids=tuple(f"p_{t}" for t in range(community.size)),
        species_ids=("s0",),
        community=community,
        distance=np.zeros((1, species.size)),
        dominance=species[np.newaxis, :],
    )


@PROPERTY
@given(st.lists(DOMINANCE, max_size=10))
@example([])
@example([1.0])
@example([1.0, 2.0])
@example(EDGES)
def test_community_stability_matches_scalar_loop(values):
    community = np.array(values, dtype=float)
    series = community_stability(_dominance_records(community, community))
    _assert_matches_reference(series, values)


@PROPERTY
@given(st.lists(DOMINANCE.filter(lambda d: d != -math.inf), max_size=10))
@example([])
@example([1.0])
@example([-1.0, 2.0])
@example([d for d in EDGES if d != -math.inf])
def test_species_stability_matches_scalar_loop(values):
    species = np.array(values, dtype=float)
    series = species_stability(_dominance_records(species, species), "s0")
    _assert_matches_reference(series, values)


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
    return sorted(set(out))


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
# In the second, 5 + ulp/4 and 5 + ulp/2 both round to 5, which is kept once.
@example([0.0, 1.0, 5.0, float(np.nextafter(5.0, 6.0)), 10.0, 11.0, 12.0])
@example([0.0, 1.0, 2.0, 5.0, float(np.nextafter(5.0, 6.0)), 10.0, 11.0])
def test_breakpoint_candidates_match_definition(values):
    candidates = breakpoint_candidates(np.array(values)).tolist()
    assert candidates == _breakpoint_definition(values)
    # _grid_resolution relies on a strictly ascending grid
    assert all(a < b for a, b in zip(candidates, candidates[1:]))


def _reference_design(kind, d, dom):
    gap = np.abs(dom - d)
    if kind is ModelKind.LINEAR_QUADRATIC:
        return np.column_stack([np.ones_like(dom), dom, dom**2 + gap * (dom + d), gap])
    return np.column_stack([np.ones_like(dom), dom, dom**2, gap * (dom + d), gap])


def _reference_piecewise(kind, inp):
    """The breakpoint profile as a loop, one design and one lstsq per
    candidate; returns (params, residual SS, candidates, std errors), the
    errors from the winner's design and residual SS."""
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
    params = dict(zip(kind.param_names, map(float, [*beta[:3], d, *beta[3:]])))
    grid = sorted(candidates)
    i = int(np.argmin(np.abs(np.array(grid) - d)))
    gaps = [grid[j + 1] - grid[j] for j in (i - 1, i) if 0 <= j < len(grid) - 1]
    resolution = float(max(gaps)) if gaps else math.inf
    ses = _std_errors(kind, _reference_design(kind, d, dom), ss, inp.n, resolution)
    return params, ss, len(candidates), ses


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
    if not breakpoint_candidates(inp.dominance).size:
        with pytest.raises(DomstabError):
            fit_model(kind, inp)
        return
    fit = fit_model(kind, inp)
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
    cand = breakpoint_candidates(dom)
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

    Returns (params, ss, iterations, converged)."""
    dom, chg = inp.dominance, inp.change_rate
    vec = np.array(start, dtype=float)
    resid = chg - evaluate_array(kind, vec, dom)
    if not np.all(np.isfinite(resid)):
        return vec, math.inf, 0, False
    ss = float(resid @ resid)
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
    return vec, ss, iterations, converged


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


def _bits(run, i):
    """Row ``i`` of a lockstep run as comparable values, floats by their bytes."""
    return (run.params[i].tobytes(), run.ss[i].tobytes(), int(run.iterations[i]),
            bool(run.converged[i]))


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
# in round 2 the first start rejects both trials while the second accepts
# one; the first converges in iteration 11, the second runs to max_iter
@example(_one_series(
    [ModelKind.LOGISTIC, ModelKind.LOGISTIC_SINE],
    [3.2, 3.7, 17.5, 23.3, 24.8, 31.2, 48.6], [-1.8, 2.0, 0.61, -1.06, -0.26, 1.9, 1.59],
    [(3.4, -0.1, -1.8), (-1.1, 3.5, 0.2)], 40,
))
# both Jacobians turn non-finite well before max_iter: the first's in
# iteration 2, then the last running start's in iteration 3, which empties
# the stack after round 3
@example(_one_series(
    [ModelKind.LOGISTIC, ModelKind.LOGISTIC_SINE],
    [1.9, 12.3, 23.3, 24.2, 31.2, 37.0, 41.2, 55.6],
    [-0.16, -0.21, -0.21, -0.9, 1.26, -0.19, -1.62, -0.6],
    [(-0.1, -7.9, -1.4), (-1.4, 7.8, 0.9)], 40,
))
def test_lockstep_rows_match_lone_runs_and_scalar_reference(search):
    problems, owner, starts, max_iter = search
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        stacked = _lockstep(_stack_problems(problems), owner, starts, max_iter)
        for i, (start, j) in enumerate(zip(starts, owner)):
            kind, inp = problems[j]
            params, ss, iterations, converged = _bits(stacked, i)
            lone = _lockstep(_stack_problems([(kind, inp)]), np.zeros(1, int),
                             start[np.newaxis], max_iter)
            assert _bits(stacked, i) == _bits(lone, 0)
            vec, ref_ss, ref_iterations, ref_converged = _reference_gauss_newton(
                kind, start, inp, max_iter
            )
            assert params == vec.tobytes()
            assert ss == np.float64(ref_ss).tobytes()
            assert (iterations, converged) == (ref_iterations, ref_converged)


def _reference_predict(rows, params):
    """The stacked logistic response written out: K / (1 + a e^{-rD}) times
    each row's factor, for ``(..., 3)`` parameter rows."""
    big_k, a, r = params[..., 0:1], params[..., 1:2], params[..., 2:3]
    return big_k / (1.0 + a * np.exp(-r * rows[..., 0, :])) * rows[..., 1, :]


def _reference_jacobian(rows, params):
    """dS/d(K, a, r) of ``(m, 3)`` parameter rows, written out column by column."""
    dom, factor = rows[:, 0], rows[:, 1]
    big_k, a, r = params[:, 0:1], params[:, 1:2], params[:, 2:3]
    expo = np.exp(-r * dom)
    phi = 1.0 / (1.0 + a * expo)
    out = np.empty(dom.shape + (3,))
    out[..., 0] = phi * factor
    out[..., 1] = -big_k * expo
    out[..., 2] = big_k * a * dom
    out[..., 2] *= expo
    for j in (1, 2):
        out[..., j] *= phi
        out[..., j] *= phi
        out[..., j] *= factor
    return out


@st.composite
def logistic_rows(draw):
    """Stacked logistic rows of one series, each of either kind, and one
    parameter row each; a = 0 and exponentials that overflow included."""
    n = draw(st.integers(1, 12))
    dom = draw(arrays(np.float64, n, elements=st.floats(0.5, 60.0)))
    inp = FitInput(dom, np.zeros(n))
    kinds = draw(st.lists(st.sampled_from([ModelKind.LOGISTIC, ModelKind.LOGISTIC_SINE]),
                          min_size=1, max_size=4))
    k = st.floats(-5.0, 5.0)
    a = st.sampled_from([0.0, -0.0, 1.5e-95, 1.0, -1.0, 1e4]) | st.floats(-10.0, 10.0)
    r = st.sampled_from([-1000.0, -66.7, 0.0, 1000.0]) | st.floats(-100.0, 100.0)
    params = draw(st.lists(st.tuples(k, a, r), min_size=len(kinds), max_size=len(kinds)))
    return _stack_problems([(kind, inp) for kind in kinds]), np.array(params)


@PROPERTY
@given(logistic_rows())
# a = 0 where exp(-r*D) overflows at D = 10 and D = 3 but not at D = 0.1
@example((_stack_problems([(kind, FitInput([10.0, 0.1, 3.0], [0.0] * 3))
                           for kind in (ModelKind.LOGISTIC, ModelKind.LOGISTIC_SINE)]),
          np.array([[2.5, 0.0, -1000.0], [-1.0, -0.0, -1000.0]])))
# a != 0 where a exp(-r*D) overflows past D = 10.64: S underflows to 0
@example((_stack_problems([(kind, FitInput([5.0, 15.0, 20.0], [0.0] * 3))
                           for kind in (ModelKind.LOGISTIC, ModelKind.LOGISTIC_SINE)]),
          np.array([[0.1, 1.5e-95, -66.7], [-0.1, -1.5e-95, -66.7]])))
def test_logistic_cards_stacked_forms_keep_the_bits(stack):
    """Both logistic cards' stacked response and Jacobian, on single and on
    trial-pair parameter stacks, against the forms written out here.  The
    response differs only by the a = 0 rule: there it is K times the factor,
    where the written-out form gives NaN once exp(-r*D) overflows."""
    rows, params = stack
    pairs = np.stack([params, params[::-1]], axis=1)  # as the lockstep's two trials
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for kind in (ModelKind.LOGISTIC, ModelKind.LOGISTIC_SINE):
            card = kind.card
            for stacked, at in ((rows, params), (rows[:, None], pairs)):
                got = card.response(at)(stacked[..., 0, :], stacked[..., 1, :])
                zero = at[..., 1:2] == 0.0
                want = np.where(zero, at[..., 0:1] * stacked[..., 1, :],
                                _reference_predict(stacked, at))
                assert got.tobytes() == want.tobytes()
            jac = card.gradient(params, rows[:, 0], rows[:, 1], np.empty(rows[:, 0].shape + (3,)))
            assert jac.tobytes() == _reference_jacobian(rows, params).tobytes()


def _reference_bend_gap(kind, d, dom):
    """The two design columns that depend on the joints ``d``, written out."""
    d = d[:, np.newaxis]
    gap = np.abs(dom - d)
    bend = gap * (dom + d)
    if kind is ModelKind.LINEAR_QUADRATIC:
        bend = dom**2 + bend
    return bend, gap


@st.composite
def designs(draw):
    """A dominance series, repeats included, and joints on its values, one
    float below them, or anywhere in its range."""
    dom = np.array(draw(st.lists(st.floats(0.5, 60.0), min_size=1, max_size=12)))
    on = st.sampled_from(dom.tolist())
    joint = on | on.map(lambda v: float(np.nextafter(v, -np.inf))) | st.floats(0.5, 60.0)
    joints = np.array(draw(st.lists(joint, min_size=1, max_size=5)))
    kind = draw(st.sampled_from([ModelKind.LINEAR_QUADRATIC, ModelKind.QUADRATIC_QUADRATIC]))
    return kind, dom, joints


@PROPERTY
@given(designs())
# joints exactly on a dominance value and one float below it
@example((ModelKind.LINEAR_QUADRATIC, np.array([1.0, 2.5, 4.0]),
          np.array([2.5, float(np.nextafter(2.5, -np.inf))])))
@example((ModelKind.QUADRATIC_QUADRATIC, np.array([1.0, 2.5, 4.0]),
          np.array([2.5, float(np.nextafter(2.5, -np.inf))])))
def test_design_cards_keep_the_bits(problem):
    """The linear and piecewise cards' design columns against the columns
    written out here: [1, D] for linear; for the piecewise kinds the shared
    columns, the bend and gap of every joint, and each joint's whole design
    as the exact solve stacks it."""
    kind, dom, joints = problem
    assert (ModelKind.LINEAR.card.gradient(dom).tobytes()
            == np.column_stack([np.ones_like(dom), dom]).tobytes())
    shared, moving = kind.card.gradient(dom)
    assert shared.tobytes() == np.vander(dom, kind.arity - 3, increasing=True).tobytes()
    for got, want in zip(moving(joints), _reference_bend_gap(kind, joints, dom)):
        assert got.tobytes() == want.tobytes()
    for d in joints:
        (bend,), (gap,) = moving(np.array([d]))
        design = np.column_stack([shared, bend, gap])
        (ref_bend,), (ref_gap,) = _reference_bend_gap(kind, np.array([d]), dom)
        ref = np.column_stack([np.vander(dom, kind.arity - 3, increasing=True), ref_bend, ref_gap])
        assert design.tobytes() == ref.tobytes()


def _reference_best(owner, ss, params, take, distinct, prefer):
    """Each problem's picks by ``sorted()`` on the key (SS, vector tuple):
    the finite rows, best first; with ``distinct`` a vector already picked
    is skipped; with ``prefer`` only the preferred rows count while there is
    one (best converged, else best)."""
    picks = []
    for problem in sorted(set(owner.tolist())):
        rows = [i for i in range(ss.size) if owner[i] == problem and math.isfinite(ss[i])]
        if prefer is not None and any(prefer[i] for i in rows):
            rows = [i for i in rows if prefer[i]]
        mine, seen = [], set()
        for i in sorted(rows, key=lambda i: (float(ss[i]), tuple(params[i].tolist()))):
            vec = tuple(params[i].tolist())
            if len(mine) == take or (distinct and vec in seen):
                continue
            seen.add(vec)
            mine.append(i)
        picks += mine
    return picks


@st.composite
def ranked_rows(draw):
    """A stack for :func:`_best`: interleaved owners, tied and infinite SS,
    vectors from a small pool (duplicates, -0.0 beside 0.0, inf), a take of
    1-4 and distinct on or off; converged marks go with a take of 1."""
    m = draw(st.integers(0, 24))
    rows = st.lists(st.integers(0, 3), min_size=m, max_size=m)
    owner = np.array(draw(rows), dtype=int)
    sums = st.sampled_from([0.25, 1.0, math.inf]) | st.floats(0.0, 2.0)
    ss = np.array(draw(st.lists(sums, min_size=m, max_size=m)), dtype=float)
    part = st.sampled_from([0.0, -0.0, 1.0, -2.5, math.inf])
    vectors = st.lists(st.tuples(part, part, part), min_size=m, max_size=m)
    params = np.array(draw(vectors), dtype=float).reshape(-1, 3)
    prefer = draw(st.none() | st.lists(st.booleans(), min_size=m, max_size=m))
    prefer = None if prefer is None else np.array(prefer, dtype=bool)
    take = 1 if prefer is not None else draw(st.integers(1, 4))
    return owner, ss, params, take, draw(st.booleans()), prefer


@settings(derandomize=True, max_examples=100, deadline=None)
@given(ranked_rows())
# problem 1's three rows tie on SS; -0.0 ties 0.0, so the stack order keeps
# row 0 ahead of row 2, and distinct skips row 2 as a repeat of row 0
@example((
    np.array([1, 0, 1, 0, 1]),
    np.array([1.0, math.inf, 1.0, 0.5, 1.0]),
    np.array([[0.0, 1.0, 1.0], [0.0, 0.0, 0.0], [-0.0, 1.0, 1.0],
              [1.0, 1.0, 1.0], [0.0, 1.0, -2.5]]),
    3, True, None,
))
def test_ranking_matches_sorted_reference(rows):
    owner, ss, params, take, distinct, prefer = rows
    picked = _best(owner, ss, params, take, distinct=distinct, prefer=prefer)
    assert picked.tolist() == _reference_best(owner, ss, params, take, distinct, prefer)


# ---------------------------------------------------------------- selection


def reference_validate(fit: ModelFit, policy: SelectionPolicy):
    """validate as it was when it kept one flag per check:
    (r2_ok, se_ok, magnitude_ok, reasons)."""
    reasons = []
    r2_ok = math.isfinite(fit.r2) and fit.r2 >= policy.r2_min
    if not r2_ok:
        reasons.append(f"r2 {fit.r2:.4g} below {policy.r2_min:.4g}")
    se_ok = True
    for name in fit.kind.param_names:
        if fit.kind.logistic_family and name == "a":
            continue
        value = fit.params[name]
        se = fit.std_errors.get(name, math.inf)
        if not math.isfinite(se):
            se_ok = False
            reasons.append(f"se({name}) is not finite")
            continue
        if se > policy.se_ratio_max * abs(value):
            se_ok = False
            reasons.append(f"se({name}) {se:.4g} exceeds {policy.se_ratio_max:.4g}x |{name}|")
    magnitude_ok = True
    for name in fit.kind.param_names:
        if abs(fit.params[name]) > policy.magnitude_max:
            magnitude_ok = False
            reasons.append(f"|{name}| {fit.params[name]:.4g} exceeds {policy.magnitude_max:.4g}")
    if not fit.converged:
        se_ok = False
        reasons.append("fit did not converge")
    return r2_ok, se_ok, magnitude_ok, tuple(reasons)


def reference_select(fits: dict, policy: SelectionPolicy):
    """select as it was when it validated every fit first:
    (kind, rationale, backup)."""
    if not fits:
        raise DomstabError("no fits to select from")
    reports = {kind: reference_validate(fit, policy) for kind, fit in fits.items()}
    for kind in PRIORITY:
        report = reports.get(kind)
        if report is not None and report[0] and report[1] and report[2]:
            return kind, f"first valid kind in priority order: {kind.value}", False
    if ModelKind.LINEAR not in reports:
        raise DomstabError("no fit is valid and no linear backup was supplied")
    return ModelKind.LINEAR, "backup-invalid: no kind passed the validity checks", True


def _around(x: float) -> list[float]:
    return [x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)]


# Maxima of 0, finite or inf; an r2 minimum of any non-NaN float.
POLICIES = st.builds(
    SelectionPolicy,
    r2_min=st.one_of(st.just(0.30), st.floats(allow_nan=False)),
    se_ratio_max=st.one_of(st.sampled_from([20.0, 0.0, math.inf]), st.floats(0.0)),
    magnitude_max=st.one_of(st.sampled_from([1e6, 0.0, math.inf]), st.floats(0.0)),
)
SE_CELLS = st.one_of(st.sampled_from([math.inf, math.nan, 0.0]), st.floats(0.0), st.floats())


@st.composite
def screened_fits(draw, kind: ModelKind, policy: SelectionPolicy) -> ModelFit:
    """A fit whose r2 may be NaN, +-inf or at and around ``r2_min``, whose
    params may be 0 or at and beyond ``magnitude_max``, and whose standard
    errors may be inf, NaN, 0 or missing; one in three clears every check
    that the policy lets a fit clear."""
    names = kind.param_names
    if draw(st.integers(0, 2)) == 0:
        r2 = policy.r2_min if math.isfinite(policy.r2_min) else 1.0
        return ModelFit(
            kind=kind, params=dict.fromkeys(names, 0.0), std_errors=dict.fromkeys(names, 0.0),
            r2=r2, r2_adj=r2, residual_ss=1.0, n=28, converged=True, iterations=1,
        )
    r2 = draw(st.one_of(
        st.sampled_from([math.nan, math.inf, -math.inf, *_around(policy.r2_min)]), st.floats()
    ))
    limit = policy.magnitude_max
    param = st.one_of(
        st.sampled_from([0.0, -0.0, *_around(limit), -limit, 2.0 * limit, 1.0]), st.floats()
    )
    params = {name: draw(param) for name in names}
    std_errors = {name: draw(SE_CELLS) for name in names if draw(st.integers(0, 9))}
    return ModelFit(
        kind=kind, params=params, std_errors=std_errors, r2=r2, r2_adj=r2,
        residual_ss=1.0, n=28, converged=draw(st.booleans()), iterations=1,
    )


@PROPERTY
@given(st.sampled_from(list(ModelKind)), POLICIES, st.data())
def test_validate_matches_the_flagged_reference(kind, policy, data):
    fit = data.draw(screened_fits(kind, policy))
    report = validate(fit, policy)
    r2_ok, se_ok, magnitude_ok, reasons = reference_validate(fit, policy)
    assert report.reasons == reasons
    assert report.valid == (r2_ok and se_ok and magnitude_ok)


@PROPERTY
@given(st.sets(st.sampled_from(list(ModelKind))), POLICIES, st.data())
def test_select_matches_the_validate_everything_reference(kinds, policy, data):
    fits = {kind: data.draw(screened_fits(kind, policy)) for kind in sorted(kinds, key=str)}
    try:
        expected = reference_select(fits, policy)
    except DomstabError as exc:
        with pytest.raises(DomstabError) as raised:
            select(fits, policy)
        assert str(raised.value) == str(exc)
        return
    picked = select(fits, policy)
    assert (picked.kind, picked.rationale, picked.backup) == expected
    assert picked.fit is fits[expected[0]]


# ---------------------------------------------------------------- dynamics


def _per_step(kind, params):
    """The rate as one one-element evaluate_array call per value, the array
    form that the dominance map's float path must match bit for bit."""
    return lambda dom: float(evaluate_array(kind, params, np.array([dom]))[0])


def _reference_bisect(kind, params, lo, hi, y_lo):
    """dynamics._bisect with the rate of :func:`_per_step`."""
    rate = _per_step(kind, params)
    while hi - lo > ROOT_TOL:
        mid = 0.5 * (lo + hi)
        y_mid = rate(mid)
        if y_mid == 0.0:
            return mid
        if (y_lo < 0) == (y_mid < 0):
            lo, y_lo = mid, y_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _exp(x):
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _reference_derivative(kind, params, dom):
    """dS/dD at one level, the parameters read afresh on each call: on Python
    floats through math.exp, the finite limit where exp(-r*D) overflows and
    the right-hand slope at a joint; the reference that :func:`slope` must match."""
    vec = param_vector(kind, params).tolist()
    if kind is ModelKind.LINEAR:
        return vec[1]
    if kind.logistic_family:
        big_k, a, r = vec
        expo = _exp(-r * dom) if a else 0.0
        finite = math.isfinite(a * expo)
        t = a * expo if finite else math.copysign(_exp(math.log(abs(a)) - r * dom), a)
        denom = 1.0 + t
        if denom == 0.0:
            raise DomstabError(f"{kind.value} derivative has a pole at D={dom!r}")
        if finite:
            core = big_k * a * r * expo / (denom * denom)
        else:
            core = big_k * r / (t + 2.0 + 1.0 / t)
        if kind is ModelKind.LOGISTIC:
            return core
        logistic = big_k / denom
        return core * math.sin(dom / math.pi) + logistic * math.cos(dom / math.pi) / math.pi
    if kind is ModelKind.LINEAR_QUADRATIC:
        a, b, c, d, e = vec
        left, right = (b - e, 0.0), (b + e, 2.0 * c)
    else:
        a, b, c, d, e, f = vec
        left, right = (b - f, c - e), (b + f, c + e)
    linear, quad = left if dom < d else right
    return linear + 2.0 * quad * dom


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
            roots.append((float(xs[i]), math.inf))
            continue
        if (y0 < 0.0) != (y1 < 0.0) and y1 != 0.0:
            root = _reference_bisect(kind, params, float(xs[i]), float(xs[i + 1]), y0)
            roots.append((root, max(abs(y0), abs(y1))))
    if math.isfinite(float(ys[-1])) and float(ys[-1]) == 0.0:
        roots.append((float(xs[-1]), math.inf))
    out = []
    for root, bound in sorted(roots):
        if out and abs(root - out[-1].location) <= (hi - lo) * 1e-12:
            continue
        rate = _per_step(kind, params)(root)
        if not abs(rate) <= bound:
            continue  # a pole: |S| above both of its bracket's ends, or not finite
        mult = 1.0 + rate + root * _reference_derivative(kind, params, root)
        if abs(abs(mult) - 1.0) <= 1e-9:
            verdict = "marginal"
        elif abs(mult) < 1.0:
            verdict = "stable"
        else:
            verdict = "unstable"
        out.append(FixedPoint(location=root, multiplier=mult, verdict=verdict))
    return out


def _scan(kind, params, domain, grid):
    """fixed_points with its scan set to ``grid`` intervals."""
    with mock.patch.object(dynamics, "SCAN_GRID", grid):
        return fixed_points(kind, params, domain)


def _outcome_of(call):
    try:
        return repr(call())
    except DomstabError as exc:
        return f"{type(exc).__name__}: {exc}"


# S = 107.42468 - 100 D: its root keeps a rate of 2.4e-9 after bisection.
STEEP_ROOT = (ModelKind.LINEAR, (107.42468, -100.0), (0.0, 10.0), 10_000)


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
@example(STEEP_ROOT)
def test_fixed_point_scan_matches_scalar_loop(problem):
    kind, params, domain, grid = problem
    expected = _outcome_of(lambda: _reference_fixed_points(kind, params, domain, grid))
    assert _outcome_of(lambda: _scan(kind, params, domain, grid)) == expected


@PROPERTY
@given(fixed_point_problems())
@example(STEEP_ROOT)
def test_fixed_points_are_roots_with_map_multipliers(problem):
    """At each fixed point D*, |f(D*)| <= 1e-9 * max(1, |f'(D*)|), a root
    located to 1e-9 in D however steep f is (bisection stops at a width of
    ROOT_TOL = 1e-10, so a slope of -100 leaves a rate of 2.4e-9), and the
    multiplier is 1 + D* f'(D*) to within |f(D*)| (the term that vanishes
    at a root) and the rounding of the sums: with f(D*) = -4.07e-11 and a
    multiplier of 2 the two forms differ by |f(D*)| plus 1.1e-16."""
    kind, params, domain, grid = problem
    for point in _scan(kind, params, domain, grid):
        rate = _per_step(kind, params)(point.location)
        dsdd = _reference_derivative(kind, params, point.location)
        assert abs(rate) <= 1e-9 * max(1.0, abs(dsdd))
        roundoff = 4 * math.ulp(max(1.0, abs(point.multiplier)))
        assert abs(point.multiplier - (1.0 + point.location * dsdd)) <= abs(rate) + roundoff


@st.composite
def map_problems(draw):
    """Model parameters as :func:`fixed_point_problems` draws them, and a start."""
    kind, params, _, _ = draw(fixed_point_problems())
    return kind, params, draw(st.floats(-50.0, 50.0))


def _orbit(kind, params, start):
    """iterate's status and values as bits, or the step it diverged at."""
    try:
        traj = iterate(kind, params, start)
    except DivergenceError as exc:
        return "diverged", exc.step
    assert {type(value) for value in traj.values} == {float}  # _write_rows takes no NumPy scalar
    return traj.status, struct.pack(f"{len(traj.values)}d", *traj.values)


@PROPERTY
@given(map_problems())
@example((ModelKind.LOGISTIC, (1.0, -1.0, 1.0), 0.0))  # a pole at the start
@example((ModelKind.LOGISTIC, (-0.5, 0.0, 2.0), -400.0))  # a = 0 where exp(-r*D) overflows
@example((ModelKind.LOGISTIC_SINE, (0.5, 0.0, 2.0), -400.0))
@example((ModelKind.LINEAR_QUADRATIC, (0.1, 0.01, 0.01, 0.0, 0.0), 10.0))  # runaway overflow
@example((ModelKind.LINEAR, (0.5, 0.1), -3.0))
@example((ModelKind.QUADRATIC_QUADRATIC, (0.5, 0.1, -0.01, -2.0, 0.02, 0.1), -3.0))
# long orbits take exp at a few hundred arguments, where math.exp rounds some
# of them otherwise than NumPy's ufunc loop
@example((ModelKind.LOGISTIC, (-0.3, 1.5, 0.2), 10.0))
@example((ModelKind.LOGISTIC_SINE, (-0.294, -1.677, 0.048), 5.0))
def test_iterate_matches_the_per_step_array_form(problem):
    """The map on Python floats gives the trajectory, status and divergence
    step that one one-element evaluate_array call per step gives, bit for bit."""
    kind, params, start = problem
    with mock.patch.object(dynamics, "response", _per_step):
        expected = _orbit(kind, params, start)
    assert _orbit(kind, params, start) == expected


@PROPERTY
@given(fixed_point_problems())
@example(STEEP_ROOT)
@example((ModelKind.LOGISTIC, (1.0, -1.0, 1.0), (-0.5, 0.5), 1))  # a pole inside the bracket
@example((ModelKind.LOGISTIC, (1.0, 0.0, 2.0), (-400.0, -399.0), 1))  # a = 0, exp overflows
def test_bisection_matches_the_per_step_array_form(problem):
    kind, params, (lo, hi), _ = problem
    y_lo = _per_step(kind, params)(lo)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        root = _bisect(response(kind, params), lo, hi, y_lo)
    assert type(root) is float
    assert struct.pack("d", root) == struct.pack("d", _reference_bisect(kind, params, lo, hi, y_lo))


def _slope_outcome(call):
    """A slope's bits, or the error it raised."""
    try:
        value = call()
    except DomstabError as exc:
        return f"{type(exc).__name__}: {exc}"
    assert type(value) is float  # report cells take no NumPy scalar
    return struct.pack("d", value)


@st.composite
def slope_problems(draw):
    """Model parameters as :func:`fixed_point_problems` draws them, and a
    dominance level: anywhere, or a piecewise joint, or the float below it."""
    kind, params, _, _ = draw(fixed_point_problems())
    dom = draw(st.floats(-50.0, 50.0))
    if kind.piecewise:
        joint = params[3]
        dom = draw(st.sampled_from([dom, joint, math.nextafter(joint, -math.inf)]))
    return kind, params, dom


@PROPERTY
@given(slope_problems())
# the finite logistic route at levels where math.exp and NumPy's exp round
# exp(-r*D) apart, and where the overflow form rounds otherwise
@example((ModelKind.LOGISTIC, (4.741, 0.026, -0.206), 29.0))
@example((ModelKind.LOGISTIC_SINE, (-0.294, -1.677, 0.048), 5.0))
@example((ModelKind.LOGISTIC, (0.5, 1.6e-59, -30.3), 23.5))  # exp(-r*D) overflows, a*exp(-r*D) not
@example((ModelKind.LOGISTIC_SINE, (0.5, 1.6e-59, -30.3), 23.5))
@example((ModelKind.LOGISTIC, (1.0, 1e10, -1.0), 690.0))  # a*exp(-r*D) overflows
@example((ModelKind.LOGISTIC_SINE, (1.0, 1e10, -1.0), 690.0))
@example((ModelKind.LOGISTIC, (1.0, 0.0, -1000.0), 10.0))  # a = 0
@example((ModelKind.LOGISTIC_SINE, (1.0, 0.0, -1000.0), 10.0))
@example((ModelKind.LINEAR_QUADRATIC, (0.331, 0.014, 0.00033, 28.341, -0.108), 28.341))
@example((ModelKind.LINEAR_QUADRATIC, (0.331, 0.014, 0.00033, 28.341, -0.108),
          math.nextafter(28.341, -math.inf)))
@example((ModelKind.QUADRATIC_QUADRATIC, (-12.71, 0.572, -0.0066, 43.061, -0.0027, 0.333), 43.061))
@example((ModelKind.QUADRATIC_QUADRATIC, (-12.71, 0.572, -0.0066, 43.061, -0.0027, 0.333),
          math.nextafter(43.061, -math.inf)))
@example((ModelKind.LOGISTIC, (1.0, -1.0, 1.0), 0.0))  # a pole
@example((ModelKind.LOGISTIC_SINE, (1.0, -1.0, 1.0), 0.0))
def test_slope_keeps_the_bits_of_the_per_call_derivative(problem):
    """slope, built once, gives the bits or the pole error that the per-call
    derivative gives at the same level."""
    kind, params, dom = problem
    expected = _slope_outcome(lambda: _reference_derivative(kind, params, dom))
    assert _slope_outcome(lambda: slope(kind, params)(dom)) == expected


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
    InputError, naming its row, of the first ragged row, non-numeric cell,
    count out of range or unreadable record in record order."""
    records = enumerate(csv.reader(text.splitlines()), start=1)
    width, data, rownum = len(next(records)[1]), [], 1
    try:
        for rownum, row in records:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != width:
                raise InputError(f"row {rownum} has {len(row)} fields, expected {width}")
            values = []
            for colnum, cell in enumerate(row[1:], start=1):
                where = f"at row {rownum}, column {colnum}"
                try:
                    value = float(cell)
                except ValueError:
                    raise InputError(f"non-numeric count {where}: {cell!r}") from None
                if value != 0.0 and not 2.0**-53 <= value <= 2.0**53:
                    if not math.isfinite(value) or value < 0:
                        raise InputError(f"negative or non-finite count {where}")
                    raise InputError(f"count outside [2**-53, 2**53] {where}: {cell!r}")
                values.append(value)
            data.append(values)
    except csv.Error as exc:
        raise InputError(f"unreadable record at row {rownum + 1}: {exc}") from None
    return np.array(data, dtype=float)


def assert_parses_like_per_cell(text: str, stream=None) -> None:
    """parse_table of ``stream`` (default: the text itself) gives the count
    bytes of :func:`per_cell_counts`, or its InputError text."""
    try:
        expected = per_cell_counts(text)
    except InputError as exc:
        with pytest.raises(InputError) as raised:
            parse_table(text if stream is None else stream)
        assert type(raised.value) is InputError
        assert str(raised.value) == str(exc)
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


class FloatRun(tuple):
    """A run of float cells, (distance, dominance) pairs of one sample, which
    the writer gets spelled by _spell_rows."""


def spell_run(run: FloatRun) -> report._Spelled:
    pairs = np.array(run).reshape(-1, 2)
    return next(_spell_rows(pairs[:, :1], pairs[:, 1:]))


CELLS = st.one_of(
    TEXT_CELLS,
    st.integers(-(10**30), 10**30),
    st.none(),
    FLOAT_CELLS,
    st.lists(st.tuples(FLOAT_CELLS, FLOAT_CELLS), min_size=1, max_size=6).map(
        lambda pairs: FloatRun(x for pair in pairs for x in pair)
    ),
)


def csv_writer_bytes(header: list, rows: list[list]) -> bytes:
    """What csv.writer writes for the rows, each run expanded into floats,
    with a bare carriage return quoted as Python 3.13 and later quote it.

    csv.writer quotes every character of its line terminator, so each row is
    written with the terminator ``"\\r\\n"`` and then ended with ``"\\n"``
    instead."""
    lines = []
    for row in [header, *rows]:
        out = io.StringIO()
        csv.writer(out, lineterminator="\r\n").writerow([
            value for cell in row
            for value in (cell if isinstance(cell, FloatRun) else [cell])
        ])
        lines.append(out.getvalue()[:-2] + "\n")
    return "".join(lines).encode("utf-8")


@PROPERTY
@given(
    st.lists(TEXT_CELLS, min_size=1, max_size=4),
    st.lists(st.lists(CELLS, max_size=6), max_size=4),
)
def test_write_rows_matches_csv_writer(header, rows):
    spelled = [
        [spell_run(cell) if isinstance(cell, FloatRun) else cell
         for cell in row]
        for row in rows
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_rows(Path(tmp) / "rows.csv", header, spelled)
        assert path.read_bytes() == csv_writer_bytes(header, rows)


@st.composite
def float_tables(draw):
    """Species-by-sample distance and dominance arrays with repeated and
    special values, and a block size of 1-16 cells, so that blocks split
    the samples and a sample's row may be wider than a block."""
    shape = (draw(st.integers(1, 6)), draw(st.integers(0, 10)))
    distance, dominance = (
        draw(arrays(np.float64, shape, elements=FLOAT_CELLS)) for _ in range(2)
    )
    return distance, dominance, draw(st.integers(1, 16))


@PROPERTY
@given(float_tables())
@example((
    np.array([[0.0, PAYLOAD_NAN], [5e-324, -math.inf]]),
    np.array([[-0.0, math.nan], [math.inf, 0.0]]),
    3,
))
def test_spell_rows_match_one_repr_per_cell(problem):
    distance, dominance, block = problem
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(report, "_SPELL_CELLS", block)
        spelled = list(_spell_rows(distance, dominance))
    cells = np.stack([distance.T, dominance.T], axis=2).reshape(distance.shape[1], 2 * len(distance))
    assert spelled == [",".join(map(repr, row)) for row in cells.tolist()]
    assert all(type(text) is report._Spelled for text in spelled)
