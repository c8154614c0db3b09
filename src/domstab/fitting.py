"""Least-squares fitting of the stability-response models.

Three fitting routes, one per model family:

* linear: closed-form ordinary least squares, Pearson R reported alongside.
* logistic / logistic-sine: damped Gauss-Newton (Levenberg-style lambda
  adaptation) with analytic Jacobians, run from a deterministic multi-start
  grid; the accepted-step sum of squares is non-increasing by construction.
  The starts of each search pass run in lockstep: parameters, residuals and
  Jacobians are stacked over starts, each start keeps its own damping lambda,
  and each damping round is one stacked 3x3 solve.  Every reduction is a
  stacked matmul, so each start's result is bit for bit the one it would get
  if run alone.
* linear-quadratic / quadratic-quadratic: the breakpoint d is profiled over
  a deterministic candidate grid (quartile points of every gap between
  consecutive distinct dominance values); conditional on d the model is
  linear in its remaining parameters and solved exactly.  All candidates'
  designs, residuals and sums of squares are stacked; only the solve is per
  candidate, so each candidate's coefficients are those of a lone solve.

Standard errors come from sqrt(diag(s^2 (J^T J)^-1)) with s^2 the residual
variance on n - p degrees of freedom; for the piecewise kinds they are
conditional on the chosen breakpoint, whose own uncertainty is reported as
the local candidate-grid resolution.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateFitError,
    InsufficientSupportError,
    NonConvergenceError,
    PreconditionError,
    SingularInformationError,
)
from .models import (
    DerivedParams,
    ModelKind,
    derived_params,
    evaluate_array,
    param_dict,
    param_vector,
)
from .stability import StabilitySeries

__all__ = [
    "FitInput",
    "ModelFit",
    "GN_MAX_ITER",
    "GN_RELATIVE_SS_TOL",
    "GN_STEP_TOL",
    "fit_linear",
    "fit_logistic_family",
    "fit_piecewise",
    "fit_model",
    "goodness",
    "std_errors",
    "breakpoint_candidates",
    "default_starts",
]

GN_MAX_ITER = 500
GN_RELATIVE_SS_TOL = 1e-10
GN_STEP_TOL = 1e-10
_LAMBDA_INIT = 1e-3
_LAMBDA_MAX = 1e12
_ABORT_GRACE = 12  # iterations granted before a lagging start may be cut
_N_EXPLORE = 24  # starts kept after ranking the grid by initial SS
_EXPLORE_MAX_ITER = 120  # iteration budget per start during exploration
_POLISH_ATTEMPTS = 3  # best exploration endpoints re-run with the full budget


@dataclass(frozen=True)
class FitInput:
    """Paired (dominance, change rate) points for one stability series."""

    dominance: np.ndarray
    change_rate: np.ndarray

    def __post_init__(self):
        dom = np.asarray(self.dominance, dtype=float)
        chg = np.asarray(self.change_rate, dtype=float)
        if dom.ndim != 1 or dom.shape != chg.shape:
            raise ValueError("dominance and change_rate must be 1-d and equal length")
        if not (np.all(np.isfinite(dom)) and np.all(np.isfinite(chg))):
            raise ValueError("fit input must be finite")
        object.__setattr__(self, "dominance", dom)
        object.__setattr__(self, "change_rate", chg)

    @classmethod
    def from_series(cls, series: StabilitySeries) -> "FitInput":
        return cls(
            dominance=np.array(series.dominance, dtype=float),
            change_rate=np.array(series.change_rate, dtype=float),
        )

    @property
    def n(self) -> int:
        return int(self.dominance.size)

    @property
    def dominance_range(self) -> tuple[float, float]:
        return float(self.dominance.min()), float(self.dominance.max())


@dataclass(frozen=True)
class ModelFit:
    """One fitted model: parameters, uncertainties, and fit quality."""

    kind: ModelKind
    params: dict[str, float]
    std_errors: dict[str, float]
    r2: float
    r2_adj: float
    residual_ss: float
    n: int
    converged: bool
    iterations: int
    pearson_r: float | None = None          # linear fits only
    derived: DerivedParams | None = None    # piecewise fits only
    dominance_min: float = math.nan
    dominance_max: float = math.nan
    flags: tuple[str, ...] = ()
    ss_trace: tuple[float, ...] = ()        # accepted-step SS of the winning start


def _require_points(inp: FitInput, kind: ModelKind) -> None:
    if inp.n < kind.arity + 1:
        raise PreconditionError(
            f"{kind.value} fit needs at least {kind.arity + 1} points, got {inp.n}"
        )


def _goodness_from_ss(
    ss_res: float, chg: np.ndarray, p: int
) -> tuple[float, float, list[str]]:
    flags: list[str] = []
    n = chg.size
    ss_tot = float(np.sum((chg - chg.mean()) ** 2))
    if ss_tot == 0.0:
        flags.append("degenerate-r2")
        return math.nan, math.nan, flags
    r2 = 1.0 - ss_res / ss_tot
    if n - p - 1 <= 0:
        flags.append("r2-adj-undefined")
        return r2, math.nan, flags
    r2_adj = 1.0 - (1.0 - r2) * (n - 1) / (n - p - 1)
    return r2, r2_adj, flags


def goodness(fit: ModelFit, inp: FitInput) -> tuple[float, float]:
    """Recompute (r2, r2_adj) of a fit against an input series."""
    pred = evaluate_array(fit.kind, fit.params, inp.dominance)
    ss_res = float(np.sum((inp.change_rate - pred) ** 2))
    r2, r2_adj, _ = _goodness_from_ss(ss_res, inp.change_rate, fit.kind.arity)
    return r2, r2_adj


# ---------------------------------------------------------------- std errors


def _param_jacobian(kind: ModelKind, vec: np.ndarray, inp: FitInput) -> np.ndarray:
    """Jacobian of model output w.r.t. parameters, one column per parameter."""
    if kind is ModelKind.LINEAR:
        return np.column_stack([np.ones_like(inp.dominance), inp.dominance])
    if kind.logistic_family:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _Problem.of(kind, inp).jacobian(vec[np.newaxis])[0]
    raise PreconditionError(f"no parameter Jacobian for {kind.value}")


def _piecewise_design(kind: ModelKind, d: np.ndarray, dom: np.ndarray) -> np.ndarray:
    """``(m, n, p)`` design matrices of the model conditional on each
    breakpoint in ``d`` (linear in the rest); columns a, b, c, e(, f)."""
    design = np.empty((d.size, dom.size, kind.arity - 1))
    d = d[:, np.newaxis]
    gap = np.abs(dom - d)
    design[:, :, 0] = 1.0
    design[:, :, 1] = dom
    if kind is ModelKind.LINEAR_QUADRATIC:
        design[:, :, 2] = dom**2 + gap * (dom + d)
    else:
        design[:, :, 2] = dom**2
        design[:, :, 3] = gap * (dom + d)
    design[:, :, -1] = gap
    return design


def _linear_se_from_design(design: np.ndarray, ss_res: float, dof: int) -> np.ndarray:
    if dof <= 0:
        raise PreconditionError("no residual degrees of freedom for standard errors")
    info = design.T @ design
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        raise SingularInformationError("normal-equations matrix is singular") from None
    diag = np.diag(cov).copy()
    if not np.all(np.isfinite(diag)):
        raise SingularInformationError("normal-equations matrix is singular")
    diag[diag < 0] = 0.0  # roundoff guard
    return np.sqrt(diag * (ss_res / dof))


def std_errors(fit: ModelFit, inp: FitInput) -> dict[str, float]:
    """Standard errors of the fitted parameters.

    Raises SingularInformationError when the information matrix cannot be
    inverted; the fit constructors catch that and report +inf instead.
    For piecewise kinds the breakpoint's entry is the local resolution of the
    candidate grid rather than a curvature-based error.
    """
    kind = fit.kind
    vec = param_vector(kind, fit.params)
    dom = inp.dominance
    pred = evaluate_array(kind, fit.params, dom)
    ss_res = float(np.sum((inp.change_rate - pred) ** 2))
    dof = inp.n - kind.arity
    if kind.piecewise:
        d = fit.params["d"]
        design = _piecewise_design(kind, np.array([d]), dom)[0]
        se = _linear_se_from_design(design, ss_res, dof)
        se = np.insert(se, 3, _grid_resolution(breakpoint_candidates(dom), d))
    else:
        jac = _param_jacobian(kind, vec, inp)
        if not np.all(np.isfinite(jac)):
            raise SingularInformationError("Jacobian is non-finite at the optimum")
        se = _linear_se_from_design(jac, ss_res, dof)
    return dict(zip(kind.param_names, map(float, se)))


def _infinite_ses(kind: ModelKind) -> dict[str, float]:
    return {name: math.inf for name in kind.param_names}


# ---------------------------------------------------------------- linear


def fit_linear(inp: FitInput) -> ModelFit:
    """Closed-form OLS of change rate on dominance."""
    kind = ModelKind.LINEAR
    _require_points(inp, kind)
    dom, chg = inp.dominance, inp.change_rate
    sxx = float(np.sum((dom - dom.mean()) ** 2))
    if sxx == 0.0:
        raise DegenerateFitError("dominance values have zero variance")
    sxy = float(np.sum((dom - dom.mean()) * (chg - chg.mean())))
    syy = float(np.sum((chg - chg.mean()) ** 2))
    slope = sxy / sxx
    intercept = float(chg.mean() - slope * dom.mean())
    pred = intercept + slope * dom
    ss_res = float(np.sum((chg - pred) ** 2))
    flags: list[str] = []
    if syy > 0.0:
        pearson = sxy / math.sqrt(sxx * syy)
    else:
        pearson = math.nan
        flags.append("degenerate-r")
    r2, r2_adj, more = _goodness_from_ss(ss_res, chg, kind.arity)
    flags.extend(more)
    params = {"a": intercept, "b": slope}
    fit = ModelFit(
        kind=kind,
        params=params,
        std_errors=_infinite_ses(kind),
        r2=r2,
        r2_adj=r2_adj,
        residual_ss=ss_res,
        n=inp.n,
        converged=True,
        iterations=0,
        pearson_r=pearson,
        dominance_min=inp.dominance_range[0],
        dominance_max=inp.dominance_range[1],
        flags=tuple(flags),
    )
    return _with_std_errors(fit, inp)


def _with_std_errors(fit: ModelFit, inp: FitInput) -> ModelFit:
    try:
        ses = std_errors(fit, inp)
    except SingularInformationError:
        return dataclasses.replace(
            fit,
            std_errors=_infinite_ses(fit.kind),
            flags=fit.flags + ("singular-information",),
        )
    return dataclasses.replace(fit, std_errors=ses)


# ---------------------------------------------------------------- logistic


def default_starts(inp: FitInput) -> list[tuple[float, float, float]]:
    """Deterministic multi-start grid of (K, a, r) for the logistic kinds.

    r is scaled to the observed dominance span; a covers both signs and four
    orders of magnitude; K covers the observed change-rate magnitude plus a
    per-(a, r) linear least-squares guess (the model is linear in K).
    """
    chg_max = float(np.max(np.abs(inp.change_rate)))
    lo, hi = inp.dominance_range
    span = hi - lo
    if span == 0.0:
        raise DegenerateFitError("dominance values have zero range")
    r_scales = (0.1, 1.0, 10.0, 100.0)
    a_values = (1e-4, 1.0, 1e4, -1e-4, -1.0, -1e4)
    k_values = (chg_max, -chg_max, 2.0 * chg_max, -2.0 * chg_max)
    starts = []
    for a in a_values:
        for scale in r_scales:
            for r in (scale / span, -scale / span):
                starts.append((math.nan, a, r))  # placeholder: projected K
                for k in k_values:
                    starts.append((k, a, r))
    return starts


@dataclass(frozen=True)
class _Problem:
    """One logistic-family least-squares problem, evaluated for stacks of starts.

    Parameter stacks are ``(m, 3)`` arrays of (K, a, r) rows.  Every result
    row is computed by the same elementwise operations, and every reduction
    by the same BLAS/LAPACK call, as a lone start would get, so a row's
    result does not depend on what else is in the stack.  Only stacked
    matmul reductions keep that property (see :func:`_dots`).
    """

    dom: np.ndarray
    chg: np.ndarray
    sine: np.ndarray | None  # sin(D / pi) for logistic-sine, None for logistic

    @classmethod
    def of(cls, kind: ModelKind, inp: FitInput) -> "_Problem":
        sine = np.sin(inp.dominance / math.pi) if kind is ModelKind.LOGISTIC_SINE else None
        return cls(inp.dominance, inp.change_rate, sine)

    def predict(self, params: np.ndarray) -> np.ndarray:
        big_k, a, r = params[:, 0:1], params[:, 1:2], params[:, 2:3]
        out = big_k / (1.0 + a * np.exp(-r * self.dom))
        return out if self.sine is None else out * self.sine

    def residuals(self, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Residual rows and their sums of squares (+inf where non-finite)."""
        resid = self.chg - self.predict(params)
        ss = _dots(resid, resid)
        ss[~np.isfinite(resid).all(axis=1)] = math.inf
        return resid, ss

    def jacobian(self, params: np.ndarray) -> np.ndarray:
        """``(m, n, 3)`` stack of model Jacobians, one column per parameter."""
        big_k, a, r = params[:, 0:1], params[:, 1:2], params[:, 2:3]
        expo = np.exp(-r * self.dom)
        phi = 1.0 / (1.0 + a * expo)
        jac = np.stack(
            [
                phi,
                -big_k * expo * phi * phi,
                big_k * a * self.dom * expo * phi * phi,
            ],
            axis=-1,
        )
        return jac if self.sine is None else jac * self.sine[:, None]


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot products through stacked matmul, which reduces each row
    with the same ddot a 1-d ``x @ y`` uses.  ``einsum``, ``np.sum(axis=...)``
    and a 2-d ``x @ y.T`` sum in other orders and differ in the last bits."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _solve(damped: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Stacked solve of ``(k, 3, 3)`` systems; a singular system's row is NaN."""
    try:
        return np.linalg.solve(damped, rhs)[:, :, 0]
    except np.linalg.LinAlgError:
        out = np.full(rhs.shape[:2], math.nan)
        for i in range(len(damped)):
            try:
                out[i] = np.linalg.solve(damped[i], rhs[i])[:, 0]
            except np.linalg.LinAlgError:
                pass
        return out


# One start's outcome: (params, ss, iterations, converged, accepted-SS trace).
_Attempt = tuple[np.ndarray, float, int, bool, list[float]]
# A start's (params, accepted-trace length) at the top of iteration
# _ABORT_GRACE + 1, where the exploration abort rule is checked.
_Grace = tuple[np.ndarray, int]

_DIAG = np.arange(3)


def _lockstep(
    problem: _Problem, starts: np.ndarray, max_iter: int
) -> tuple[list[_Attempt], list[_Grace | None]]:
    """Damped Gauss-Newton from every row of ``starts`` at once.

    Each start keeps its own damping lambda and runs exactly the search it
    would run alone: steps are accepted only when they reduce the sum of
    squares (so each trace is non-increasing), lambda falls tenfold after an
    accepted step and rises tenfold after a rejected one, and a start stops
    when the relative SS drop or the step norm falls below tolerance
    (converged), when no damping up to ``_LAMBDA_MAX`` finds a downhill step
    (a stationary point: converged if finite), when its Jacobian turns
    non-finite (failed) or after ``max_iter`` iterations.  All starts still
    running share one iteration: one stacked Jacobian and normal equations,
    then damping rounds that each make one stacked solve over the starts
    still looking for a downhill step.  Returns each start's outcome and its
    state where the abort rule is checked (None if it stopped before).
    """
    m = len(starts)
    params = starts.astype(float)
    resid, ss = problem.residuals(params)
    iterations = np.zeros(m, dtype=int)
    converged = np.zeros(m, dtype=bool)
    started = np.isfinite(ss)
    traces = [[float(v)] if ok else [] for v, ok in zip(ss, started)]
    lam = np.full(m, _LAMBDA_INIT)
    grace: list[_Grace | None] = [None] * m
    active = np.flatnonzero(started)
    for it in range(1, max_iter + 1):
        if not active.size:
            break
        iterations[active] = it
        if it == _ABORT_GRACE + 1:
            for i in active:
                grace[i] = (params[i].copy(), len(traces[i]))
        jac = problem.jacobian(params[active])
        finite = np.isfinite(jac).all(axis=(1, 2))
        active, jac = active[finite], jac[finite]
        jac_t = jac.transpose(0, 2, 1)
        jtj = jac_t @ jac
        jtr = jac_t @ resid[active][:, :, None]
        stepped = np.zeros(active.size, dtype=bool)
        done = np.zeros(active.size, dtype=bool)
        searching = np.arange(active.size)  # a running start's lambda is <= _LAMBDA_MAX
        while searching.size:
            rows = active[searching]
            scaled = np.zeros((rows.size, 3, 3))
            scaled[:, _DIAG, _DIAG] = lam[rows, None] * np.maximum(
                jtj[searching][:, _DIAG, _DIAG], 1e-12
            )
            # a singular system's NaN step has an infinite trial SS, so only
            # that start is rejected and raises its lambda
            step = _solve(jtj[searching] + scaled, jtr[searching])
            trial = params[rows] + step
            trial_resid, trial_ss = problem.residuals(trial)
            downhill = trial_ss < ss[rows]
            won = rows[downhill]
            step_norm = np.sqrt(_dots(step[downhill], step[downhill]))
            rel_drop = (ss[won] - trial_ss[downhill]) / np.maximum(ss[won], 1e-300)
            params[won] = trial[downhill]
            resid[won] = trial_resid[downhill]
            ss[won] = trial_ss[downhill]
            for i in won:
                traces[i].append(float(ss[i]))
            lam[won] = np.maximum(lam[won] / 10.0, 1e-12)
            lost = rows[~downhill]
            lam[lost] *= 10.0
            stepped[searching[downhill]] = True
            done[searching[downhill]] = (rel_drop < GN_RELATIVE_SS_TOL) | (
                step_norm < GN_STEP_TOL
            )
            searching = searching[~downhill][lam[lost] <= _LAMBDA_MAX]
        # no downhill step at any damping: a stationary point
        stuck = active[~stepped]
        converged[stuck] = np.isfinite(params[stuck]).all(axis=1) & (ss[stuck] < math.inf)
        converged[active[done]] = True
        active = active[stepped & ~done]
    attempts = [
        (params[i], float(ss[i]), int(iterations[i]), bool(converged[i]), traces[i])
        for i in range(m)
    ]
    return attempts, grace


def _rank_starts(
    problem: _Problem, candidates: Sequence[tuple[float, float, float]]
) -> np.ndarray:
    """``(m, 3)`` stack of the starts with a finite initial SS, lowest first
    (the start's own order breaking ties).

    A NaN K is replaced by the optimal K for the start's (a, r), since the
    model is linear in K; a start whose shape is non-finite or zero drops out.
    """
    cand = np.array(candidates, dtype=float).reshape(len(candidates), 3)
    free = np.flatnonzero(np.isnan(cand[:, 0]))
    shape = problem.predict(np.column_stack([np.ones(free.size), cand[free, 1:]]))
    denom = _dots(shape, shape)
    chg = np.broadcast_to(problem.chg, shape.shape)
    cand[free, 0] = _dots(shape, chg) / denom
    unusable = ~np.isfinite(shape).all(axis=1) | (denom <= 0.0)
    cand = np.delete(cand, free[unusable], axis=0)
    _, ss0 = problem.residuals(cand)
    keep = np.isfinite(ss0)
    ranked = sorted(zip(ss0[keep].tolist(), map(tuple, cand[keep].tolist())))
    return np.array([start for _, start in ranked]).reshape(-1, 3)


def _key(attempt: _Attempt) -> tuple[float, tuple[float, ...]]:
    """Lowest SS wins, the parameter vector breaks ties."""
    return attempt[1], tuple(attempt[0].tolist())


def _explore(problem: _Problem, starts: np.ndarray) -> list[_Attempt]:
    """Ranked starts under the exploration budget and abort rule, best first.

    A start still above ``1.5 * best + 1e-12`` at the end of its grace period,
    with ``best`` the lowest SS of the starts ranked before it, is cut there.
    """
    attempts, graces = _lockstep(problem, starts, _EXPLORE_MAX_ITER)
    explored = []
    abort_at: float | None = None
    for (vec, ss, iters, ok, trace), grace in zip(attempts, graces):
        if grace is not None and abort_at is not None:
            grace_vec, cut = grace
            if trace[cut - 1] > 1.5 * abort_at + 1e-12:
                vec, ss, iters, ok, trace = (
                    grace_vec, trace[cut - 1], _ABORT_GRACE + 1, False, trace[:cut]
                )
        if not math.isfinite(ss):
            continue
        explored.append((vec, ss, iters, ok, trace))
        if abort_at is None or ss < abort_at:
            abort_at = ss
    explored.sort(key=_key)
    return explored


def _polish(
    problem: _Problem, explored: list[_Attempt]
) -> tuple[_Attempt | None, _Attempt | None]:
    """Re-run the best distinct exploration endpoints with the full budget.

    Returns the best converged attempt and the best attempt regardless of
    convergence (for the error path); either is None when there is none.
    Iterations and traces count the exploration run too.
    """
    endpoints: list[_Attempt] = []
    seen: set[tuple[float, ...]] = set()
    for attempt in explored:
        _, vec = _key(attempt)
        if vec not in seen:
            seen.add(vec)
            endpoints.append(attempt)
        if len(endpoints) == _POLISH_ATTEMPTS:
            break
    if not endpoints:
        return None, None
    attempts, _ = _lockstep(problem, np.array([vec for vec, *_ in endpoints]), GN_MAX_ITER)
    best = best_attempt = None
    for (_, _, iters0, _, trace0), (vec, ss, iters, ok, trace) in zip(endpoints, attempts):
        if not math.isfinite(ss):
            continue
        attempt = (vec, ss, iters0 + iters, ok, trace0 + trace[1:])
        if best_attempt is None or _key(attempt) < _key(best_attempt):
            best_attempt = attempt
        if ok and (best is None or _key(attempt) < _key(best)):
            best = attempt
    return best, best_attempt


def fit_logistic_family(
    kind: ModelKind,
    inp: FitInput,
    starts: Iterable[tuple[float, float, float]] | None = None,
) -> ModelFit:
    """Multi-start damped Gauss-Newton fit of a logistic-family model.

    The start grid is first ranked by initial SS and only the most promising
    starts are explored under a reduced iteration budget; the best exploration
    endpoints are then polished with the full budget.  The best converged
    result (lowest SS, parameter-vector order breaking ties) wins.  If nothing
    converges a NonConvergenceError is raised with the best attempt attached
    as ``best``.

    Each pass runs its starts in lockstep (:func:`_lockstep`): the ranking is
    one stacked evaluation, the explored starts are one batch and the polished
    endpoints another.  During exploration a start still above 1.5 times the
    best SS of the starts ranked before it, once its grace period is over, is
    cut short.  The threshold of a start depends only on the starts before it,
    and an accepted-SS trace never rises, so the batch runs every explored
    start in full and the cut is applied afterwards, in rank order, from each
    start's state at the end of its grace period.
    """
    if not kind.logistic_family:
        raise PreconditionError(f"{kind.value} is not a logistic-family kind")
    _require_points(inp, kind)
    chg_max = float(np.max(np.abs(inp.change_rate)))
    if chg_max == 0.0:
        # all change rates are zero: K = 0 reproduces the data exactly
        fit = ModelFit(
            kind=kind,
            params={"K": 0.0, "a": 1.0, "r": 0.0},
            std_errors=_infinite_ses(kind),
            r2=math.nan,
            r2_adj=math.nan,
            residual_ss=0.0,
            n=inp.n,
            converged=True,
            iterations=0,
            dominance_min=inp.dominance_range[0],
            dominance_max=inp.dominance_range[1],
            flags=("degenerate-zero-change", "degenerate-r2"),
        )
        return _with_std_errors(fit, inp)

    candidates = list(starts) if starts is not None else default_starts(inp)
    problem = _Problem.of(kind, inp)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        explored = _explore(problem, _rank_starts(problem, candidates)[:_N_EXPLORE])
        best_result, best_attempt = _polish(problem, explored)

    if best_result is None:
        if best_attempt is None:
            raise NonConvergenceError(f"{kind.value}: every start failed")
        vec, ss, iters, _, trace = best_attempt
        failed = _assemble_logistic_fit(
            kind, inp, vec, ss, iters, converged=False, trace=trace
        )
        raise NonConvergenceError(f"{kind.value}: no start converged", best=failed)
    vec, ss, iters, _, trace = best_result
    return _assemble_logistic_fit(kind, inp, vec, ss, iters, converged=True, trace=trace)


def _assemble_logistic_fit(
    kind: ModelKind,
    inp: FitInput,
    vec: np.ndarray,
    ss: float,
    iterations: int,
    converged: bool,
    trace: list[float],
) -> ModelFit:
    r2, r2_adj, flags = _goodness_from_ss(ss, inp.change_rate, kind.arity)
    if not converged:
        flags = list(flags) + ["non-converged"]
    fit = ModelFit(
        kind=kind,
        params={"K": float(vec[0]), "a": float(vec[1]), "r": float(vec[2])},
        std_errors=_infinite_ses(kind),
        r2=r2,
        r2_adj=r2_adj,
        residual_ss=ss,
        n=inp.n,
        converged=converged,
        iterations=iterations,
        dominance_min=inp.dominance_range[0],
        dominance_max=inp.dominance_range[1],
        flags=tuple(flags),
        ss_trace=tuple(trace),
    )
    return _with_std_errors(fit, inp)


# ---------------------------------------------------------------- piecewise


def breakpoint_candidates(dom: np.ndarray) -> list[float]:
    """Candidate breakpoints: quartile points of each gap between consecutive
    distinct dominance values, kept only where both sides retain at least
    three distinct values."""
    distinct = np.unique(np.asarray(dom, dtype=float))
    u, v = distinct[:-1, np.newaxis], distinct[1:, np.newaxis]
    cand = (u + np.array([0.25, 0.5, 0.75]) * (v - u)).ravel()
    # distinct is sorted: counts of values below and above each candidate
    left = np.searchsorted(distinct, cand, "left")
    right = distinct.size - np.searchsorted(distinct, cand, "right")
    return cand[(left >= 3) & (right >= 3)].tolist()


def _grid_resolution(candidates: Sequence[float], d: float) -> float:
    """Local spacing of the candidate grid around d."""
    if len(candidates) < 2:
        return math.inf
    arr = np.asarray(sorted(candidates))
    idx = int(np.argmin(np.abs(arr - d)))
    # the wider of the gaps on either side of the nearest candidate
    return float(np.diff(arr)[max(idx - 1, 0):idx + 1].max())


def fit_piecewise(kind: ModelKind, inp: FitInput) -> ModelFit:
    """Breakpoint-profiled exact least squares for the piecewise kinds.

    Each candidate's design is one C-contiguous slice of a stack, solved by
    its own ``np.linalg.lstsq`` (a stacked SVD or QR solve moves the last
    bits); residuals and sums of squares are stacked.  The lowest SS wins,
    the lower breakpoint breaking ties; ``iterations`` counts the candidates.
    """
    if not kind.piecewise:
        raise PreconditionError(f"{kind.value} is not piecewise")
    _require_points(inp, kind)
    dom, chg = inp.dominance, inp.change_rate
    if np.unique(dom).size < 2:
        raise DegenerateFitError("dominance values have zero range")
    candidates = breakpoint_candidates(dom)
    if not candidates:
        raise InsufficientSupportError(
            "no breakpoint candidate has three distinct dominance values on each side"
        )
    design = _piecewise_design(kind, np.array(candidates), dom)
    betas = np.array([np.linalg.lstsq(x, chg, rcond=None)[0] for x in design])
    resid = chg - (design @ betas[:, :, np.newaxis])[:, :, 0]
    sums = _dots(resid, resid)
    best = np.lexsort((candidates, sums))[0]
    d, ss = candidates[best], float(sums[best])
    params = param_dict(kind, np.insert(betas[best], 3, d))
    r2, r2_adj, flags = _goodness_from_ss(ss, chg, kind.arity)
    fit = ModelFit(
        kind=kind,
        params=params,
        std_errors=_infinite_ses(kind),
        r2=r2,
        r2_adj=r2_adj,
        residual_ss=ss,
        n=inp.n,
        converged=True,
        iterations=len(candidates),
        derived=derived_params(kind, params),
        dominance_min=inp.dominance_range[0],
        dominance_max=inp.dominance_range[1],
        flags=tuple(flags),
    )
    return _with_std_errors(fit, inp)


# ---------------------------------------------------------------- dispatch


def fit_model(kind: ModelKind, inp: FitInput) -> ModelFit:
    """Fit one model kind with its family's route."""
    if kind is ModelKind.LINEAR:
        return fit_linear(inp)
    if kind.logistic_family:
        return fit_logistic_family(kind, inp)
    return fit_piecewise(kind, inp)
