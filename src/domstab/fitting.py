"""Least-squares fitting of the stability-response models.

Three fitting routes, one per model family, each taking its model formulas
from the kind's card (``kind.card``, see :mod:`domstab.models`):

* linear: closed-form ordinary least squares, Pearson R reported alongside.
* logistic / logistic-sine: damped Gauss-Newton with analytic Jacobians
  from a deterministic multi-start grid, explored and then polished
  (:func:`fit_logistic_batch`); every start of a pass, over every problem
  of one series length, advances as one stack (:func:`_lockstep`).  A
  start's arithmetic is elementwise or a matmul reduction over its own row,
  so its result is bit for bit the one it would get alone.
* linear-quadratic / quadratic-quadratic: the breakpoint d is profiled over
  a deterministic candidate grid, and given d the model is linear in its
  other parameters.  A screen ranks every candidate with one small QR per
  fit, and only the candidates it cannot rule out are solved exactly, so
  the winner is that of solving every candidate (:func:`_fit_piecewise`).

Every route ends in one assembly step (:func:`_assemble`), which adds the
goodness of fit, the dominance range and the standard errors; a logistic
fit whose search converged nowhere is still a ModelFit, ``converged`` false.
Standard errors come from sqrt(diag(s^2 (J^T J)^-1)) with J the design the
route solved (the Jacobian at the optimum for the logistic family) and s^2
its residual SS on n - p degrees of freedom; for the piecewise kinds they
are conditional on the chosen breakpoint, whose own uncertainty is reported
as the local candidate-grid resolution.  Where J is missing or not finite or
J^T J is singular, every standard error is +inf: a value, not an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomstabError
from .metrics import least_squares_line
from .models import ModelKind, evaluate_array, param_dict

__all__ = [
    "FitInput",
    "ModelFit",
    "GN_MAX_ITER",
    "GN_RELATIVE_SS_TOL",
    "GN_STEP_TOL",
    "fit_logistic_batch",
    "fit_model",
    "breakpoint_candidates",
    "default_starts",
]

GN_MAX_ITER = 500
GN_RELATIVE_SS_TOL = 1e-10
GN_STEP_TOL = 1e-10
_LAMBDA_INIT = 1e-3
_LAMBDA_MAX = 1e12
_N_EXPLORE = 24  # starts kept after ranking the grid by initial SS
_EXPLORE_MAX_ITER = 120  # iteration budget per start during exploration
_POLISH_ATTEMPTS = 3  # best exploration endpoints re-run with the full budget
# Breakpoint profile (see _fit_piecewise): a candidate is solved exactly while
# its screened SS is within best_exact_ss * (1 + RTOL) + ATOL * |y|^2.
_CERTIFY_RTOL = 1e-8
_CERTIFY_ATOL = 1e-12
# Bytes of the two breakpoint columns per screening chunk; it bounds the
# screen's working arrays, which grow with the square of the series length.
# 48 piecewise fits of 150 samples screen in 0.07-0.09 s in 256 KiB chunks,
# 0.10-0.13 s in 512 or 64 KiB chunks, 0.16 s whole (2-core Xeon VM).
_SCREEN_BYTES = 1 << 18


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
    dominance_min: float = math.nan
    dominance_max: float = math.nan


def _require_points(inp: FitInput, kind: ModelKind) -> None:
    if inp.n < kind.arity + 1:
        raise DomstabError(
            f"{kind.value} fit needs at least {kind.arity + 1} points, got {inp.n}"
        )


def _goodness_from_ss(ss_res: float, chg: np.ndarray, p: int) -> tuple[float, float]:
    """r2 and adjusted r2; both NaN for a constant ``chg``, whose float ss_tot is roundoff."""
    n = chg.size
    ss_tot = float(np.sum((chg - chg.mean()) ** 2))
    if ss_tot == 0.0 or chg.min() == chg.max():
        return math.nan, math.nan
    r2 = 1.0 - ss_res / ss_tot
    if n - p - 1 <= 0:
        return r2, math.nan
    return r2, 1.0 - (1.0 - r2) * (n - 1) / (n - p - 1)


# ---------------------------------------------------------------- std errors


def _std_errors(
    kind: ModelKind, design: np.ndarray | None, ss: float, n: int, d_se: float
) -> dict[str, float]:
    """sqrt(diag(s^2 (J^T J)^-1)), roundoff below 0 taken as 0, for the design J
    (one column per parameter but a piecewise joint ``d``, which takes ``d_se``)
    and s^2 = ss / (n - p).  Every standard error is +inf when J is missing or
    not finite, J^T J cannot be inverted or its inverse's diagonal is not finite."""
    diag = np.array([math.inf])
    if design is not None and np.all(np.isfinite(design)):
        try:
            diag = np.diag(np.linalg.inv(design.T @ design))
        except np.linalg.LinAlgError:  # singular: diag stays +inf
            pass
    if not np.all(np.isfinite(diag)):
        return dict.fromkeys(kind.param_names, math.inf)
    se = iter(np.sqrt(np.where(diag < 0.0, 0.0, diag) * (ss / (n - kind.arity))).tolist())
    return {name: d_se if name == "d" else next(se) for name in kind.param_names}


def _assemble(
    kind: ModelKind,
    inp: FitInput,
    params: dict[str, float],
    ss: float,
    design: np.ndarray | None,
    converged: bool = True,
    d_se: float = math.nan,
    **fields,
) -> ModelFit:
    """The one place a ModelFit is built, for every family: the family's
    parameters, residual SS, the ``design`` it solved (None where the
    information is singular by construction) and extra ``fields``, plus the
    goodness of fit, dominance range and standard errors (:func:`_std_errors`)."""
    r2, r2_adj = _goodness_from_ss(ss, inp.change_rate, kind.arity)
    lo, hi = inp.dominance_range
    return ModelFit(
        kind=kind,
        params=params,
        std_errors=_std_errors(kind, design, ss, inp.n, d_se),
        r2=r2,
        r2_adj=r2_adj,
        residual_ss=ss,
        n=inp.n,
        converged=converged,
        dominance_min=lo,
        dominance_max=hi,
        **fields,
    )


# ---------------------------------------------------------------- linear


def _fit_linear(inp: FitInput) -> ModelFit:
    """Closed-form OLS of change rate on dominance."""
    kind = ModelKind.LINEAR
    _require_points(inp, kind)
    dom, chg = inp.dominance, inp.change_rate
    sxx, syy, slope, intercept, pearson = least_squares_line(dom, chg)
    # a constant series's float sum of squares is roundoff, and one can underflow to 0
    if sxx == 0.0 or dom.min() == dom.max():
        raise DomstabError("dominance values have zero variance")
    ss_res = float(np.sum((chg - evaluate_array(kind, (intercept, slope), dom)) ** 2))
    if syy == 0.0 or chg.min() == chg.max():
        pearson = math.nan
    return _assemble(
        kind, inp, {"a": intercept, "b": slope}, ss_res,
        kind.card.gradient(dom), iterations=0, pearson_r=pearson,
    )


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
        raise DomstabError("dominance values have zero range")
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


def _stack_problems(problems: Sequence[tuple[ModelKind, FitInput]]) -> np.ndarray:
    """Logistic-family problems of one series length as one ``(problems, 3,
    n)`` stack: each problem's dominance, factor and change-rate rows.

    The factor row is the kind card's, so the logistic card's stacked forms
    evaluate the rows of either kind against a stack of (K, a, r) rows.
    Every result row is computed by the same elementwise operations, and
    every reduction by the same BLAS/LAPACK call, as a lone start of a lone
    problem would get, so a row's result does not depend on what else is in
    the stack.  Only stacked matmul reductions keep that property (see
    :func:`_dots`).
    """
    return np.array([
        (inp.dominance, kind.card.factor(inp.dominance), inp.change_rate)
        for kind, inp in problems
    ])


def _residuals(rows: np.ndarray, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residual rows and their sums of squares (+inf where non-finite)."""
    model = ModelKind.LOGISTIC.card.response(params)
    resid = rows[..., 2, :] - model(rows[..., 0, :], rows[..., 1, :])
    ss = _dots(resid, resid)  # a sum of squares is NaN or inf where resid is not finite
    ss[np.isnan(ss)] = math.inf
    return resid, ss


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot products through stacked matmul, which reduces each row
    with the same ddot a 1-d ``x @ y`` uses.  ``einsum``, ``np.sum(axis=...)``
    and a 2-d ``x @ y.T`` sum in other orders and differ in the last bits."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _solve(damped: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Stacked solve of ``(..., 3, 3)`` systems against ``(..., 3, 1)``
    right-hand sides (broadcast); a singular system's row is NaN."""
    try:
        return np.linalg.solve(damped, rhs)[..., 0]
    except np.linalg.LinAlgError:
        rhs = np.broadcast_to(rhs, damped.shape[:-1] + (1,))
        out = np.full(rhs.shape[:-1], math.nan)
        for i in np.ndindex(damped.shape[:-2]):
            try:
                out[i] = np.linalg.solve(damped[i], rhs[i])[:, 0]
            except np.linalg.LinAlgError:
                pass
        return out


_DIAG = np.arange(3)


class _Run(NamedTuple):
    """The outcome of a lockstep run, one row per start: its parameters, its
    sum of squares, its iteration count and whether it converged."""

    params: np.ndarray
    ss: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray


def _lockstep(
    problem: np.ndarray, owner: np.ndarray, starts: np.ndarray, max_iter: int
) -> _Run:
    """Damped Gauss-Newton from every row of ``starts`` at once, each on the
    row of the problem stack that its ``owner`` entry names.

    Each start runs exactly the search it would run alone.  An iteration
    takes the Jacobian and normal equations at the start's parameters and
    tries damped steps until one reduces the sum of squares, so a start's SS
    never rises: lambda rises tenfold after a rejected step and falls
    tenfold after the accepted one.  A start stops when the relative SS drop
    or the step norm falls below tolerance (converged), when no damping up
    to ``_LAMBDA_MAX`` finds a downhill step (a stationary point: converged
    if finite), when its Jacobian turns non-finite (failed) or after
    ``max_iter`` iterations.

    Each round makes one stacked solve over every running start's next two
    trials, at lambda and at ten times lambda, and takes the first that
    lowers its SS; the second counts only while its lambda is at most
    ``_LAMBDA_MAX``.  A running start holds one row of state: parameters,
    residual, SS, lambda and iteration count.  Every round takes its
    Jacobian and normal equations afresh at its current parameters, so a
    start whose two trials were both rejected gets the same bits again, and
    a start whose step was accepted opens its next iteration in the next
    round.  A stopped start's row leaves the stack before the next round,
    and the run ends when the stack is empty; nothing it holds grows with
    ``max_iter``.
    """
    rows = problem[owner]
    params = starts.astype(float)
    resid, ss = _residuals(rows, params)
    iterations = np.zeros(len(starts), dtype=int)
    converged = np.zeros(len(starts), dtype=bool)
    # the running starts (indices ``idx``) and their state, one row each; a
    # start with a non-finite SS never runs, and the others open iteration 1
    idx = np.flatnonzero(np.isfinite(ss) & (max_iter > 0))
    rows, vec, res, cur = rows[idx], params[idx], resid[idx], ss[idx]
    lam, its = np.full(idx.size, _LAMBDA_INIT), np.ones(idx.size, dtype=int)
    jac_out = np.empty((idx.size, problem.shape[-1], 3))
    stop = ok = np.zeros(idx.size, dtype=bool)  # ok: converged, where stop
    while True:
        if stop.any():
            gone, keep = idx[stop], ~stop
            params[gone], ss[gone], iterations[gone], converged[gone] = (
                vec[stop], cur[stop], its[stop], ok[stop])
            idx, rows, vec, res, cur, lam, its = (
                x[keep] for x in (idx, rows, vec, res, cur, lam, its))
        if not idx.size:
            break
        jac = ModelKind.LOGISTIC.card.gradient(vec, rows[:, 0], rows[:, 1], jac_out[:idx.size])
        failed = ~np.isfinite(jac).all(axis=(1, 2))  # its trials do not count
        jac_t = jac.transpose(0, 2, 1)
        normal = jac_t @ jac
        damping = np.zeros_like(normal)  # diagonal: max(diag(J^T J), 1e-12)
        damping[:, _DIAG, _DIAG] = np.maximum(normal[:, _DIAG, _DIAG], 1e-12)
        # a singular system's NaN step has an infinite trial SS, so only
        # that trial is rejected
        rungs = lam[:, None] * np.array([1.0, 10.0])
        step = _solve(normal[:, None] + rungs[:, :, None, None] * damping[:, None],
                      (jac_t @ res[:, :, None])[:, None])
        trial = vec[:, None] + step
        trial_res, trial_ss = _residuals(rows[:, None], trial)
        down = trial_ss < cur[:, None]
        second = ~down[:, 0] & down[:, 1] & (rungs[:, 1] <= _LAMBDA_MAX)
        accepted = (down[:, 0] | second) & ~failed
        tried = np.where(second, rungs[:, 1], lam)  # the accepted trial's lambda
        lam = np.where(accepted, np.maximum(tried / 10.0, 1e-12), rungs[:, 1] * 10.0)
        # no downhill step at any damping: a stationary point, converged
        # where finite (a running start's SS is)
        stop = failed | (~accepted & (lam > _LAMBDA_MAX))
        ok = stop & ~failed & np.isfinite(vec).all(axis=1)
        won = np.flatnonzero(accepted)
        rung = second[won].astype(int)
        moved, was, now = step[won, rung], cur[won], trial_ss[won, rung]
        step_norm = np.sqrt(_dots(moved, moved))
        rel_drop = (was - now) / np.maximum(was, 1e-300)
        vec[won], res[won], cur[won] = trial[won, rung], trial_res[won, rung], now
        done = (rel_drop < GN_RELATIVE_SS_TOL) | (step_norm < GN_STEP_TOL)
        stop[won], ok[won] = done | (its[won] == max_iter), done
        its[won] += ~stop[won]  # its next iteration opens in the next round
    return _Run(params, ss, iterations, converged)


def _best(
    owner: np.ndarray,
    ss: np.ndarray,
    params: np.ndarray,
    take: int,
    distinct: bool = False,
    prefer: np.ndarray | None = None,
) -> np.ndarray:
    """Indices of each problem's ``take`` best rows with a finite SS, best
    first, problem by problem in ascending ``owner`` order.

    The search's one ranking rule: the lowest SS first, then the (K, a, r)
    vector in lexicographic numeric order (-0.0 ties 0.0), then stack order.
    Rows that ``prefer`` marks rank ahead of all others.  With ``distinct``,
    a row whose vector equals a better row's of its problem is skipped.
    """
    keys = (params[:, 2], params[:, 1], params[:, 0], ss)
    if prefer is not None:
        keys += (~prefer,)
    order = np.lexsort((*keys, owner))
    order = order[np.isfinite(ss[order])]
    if distinct:
        # a stable sort by problem and vector puts equal vectors side by
        # side, the better-ranked first
        vec, own = params[order], owner[order]
        group = np.lexsort((vec[:, 2], vec[:, 1], vec[:, 0], own))
        later, earlier = group[1:], group[:-1]
        again = (own[later] == own[earlier]) & (vec[later] == vec[earlier]).all(axis=1)
        order = np.delete(order, later[again])
    own = owner[order]
    return order[np.arange(own.size) - np.searchsorted(own, own) < take]


def _project_k(mine: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """One problem's ``starts`` with each NaN K replaced by the optimal K for
    the start's (a, r) on the problem's rows ``mine``, the model being linear
    in K; K stays NaN where that shape is non-finite or zero."""
    starts = starts.copy()
    free = np.flatnonzero(np.isnan(starts[:, 0]))
    shape = ModelKind.LOGISTIC.card.response(
        np.column_stack([np.ones(free.size), starts[free, 1:]]))(mine[0], mine[1])
    denom = _dots(shape, shape)
    usable = np.isfinite(shape).all(axis=1) & (denom > 0.0)
    starts[free, 0] = np.where(usable, _dots(shape, mine[2]) / denom, math.nan)
    return starts


def fit_logistic_batch(
    items: Sequence[tuple[ModelKind, FitInput]],
) -> list[ModelFit | DomstabError]:
    """Multi-start damped Gauss-Newton fits of many logistic-family
    problems at once: one result per ``(kind, inp)`` item, the ModelFit that
    :func:`fit_model` returns for that item alone or the DomstabError it raises.

    Each problem's :func:`default_starts` grid is ranked by initial SS.  The
    best ``_N_EXPLORE`` starts are explored, each until it stops by itself
    or after ``_EXPLORE_MAX_ITER`` iterations, and the best
    ``_POLISH_ATTEMPTS`` distinct endpoints are polished with the full
    budget.  The best converged polish wins, else the best polish, with
    ``converged`` false; only an item with no finite polish at all is an
    error.  Every "best" follows one rule (:func:`_best`).  A fit's
    iterations count its exploration run too; no per-step trace is kept.

    Problems are grouped by series length ``n``, since a stacked matmul
    needs one ``n`` (zero padding would change the ddot blocking and so the
    bits).  Each group runs one exploration and one polish lockstep pass
    over the starts of all its problems, each row tagged with its problem,
    so every item's result equals its lone fit to the bit.
    """
    results: list[ModelFit | DomstabError | None] = [None] * len(items)
    groups: dict[int, list[tuple[int, np.ndarray]]] = {}  # n -> (item, its starts)
    for i, (kind, inp) in enumerate(items):
        try:
            if not kind.logistic_family:
                raise DomstabError(f"{kind.value} is not a logistic-family kind")
            _require_points(inp, kind)
            starts = np.array(default_starts(inp), dtype=float).reshape(-1, 3)
            if float(np.max(np.abs(inp.change_rate))) == 0.0:
                # K = 0 reproduces an all-zero change rate exactly; it zeroes
                # the a and r columns of the Jacobian, so no design is passed
                results[i] = _assemble(
                    kind, inp, {"K": 0.0, "a": 1.0, "r": 0.0}, 0.0, None, iterations=0,
                )
                continue
        except DomstabError as exc:
            results[i] = exc
            continue
        groups.setdefault(inp.n, []).append((i, starts))
    for group in groups.values():
        problem = _stack_problems([items[i] for i, _ in group])
        owner = np.repeat(np.arange(len(group)), [len(s) for _, s in group])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # problem by problem: a stack of every start's rows would hold
            # starts x 3 x n floats (21 MB for 48 problems of 149 points)
            starts = [_project_k(mine, s) for mine, (_, s) in zip(problem, group)]
            ss = [_residuals(mine, s)[1] for mine, s in zip(problem, starts)]
            starts = np.concatenate(starts)
            ranked = _best(owner, np.concatenate(ss), starts, _N_EXPLORE)
            owner = owner[ranked]
            explored = _lockstep(problem, owner, starts[ranked], _EXPLORE_MAX_ITER)
            ends = _best(owner, explored.ss, explored.params, _POLISH_ATTEMPTS, distinct=True)
            owner = owner[ends]
            polished = _lockstep(problem, owner, explored.params[ends], GN_MAX_ITER)
            win = _best(owner, polished.ss, polished.params, 1, prefer=polished.converged)
            mine = problem[owner[win]]
            jac = ModelKind.LOGISTIC.card.gradient(polished.params[win], mine[:, 0], mine[:, 1],
                                                   np.empty((win.size, problem.shape[-1], 3)))
        winner = dict(zip(owner[win].tolist(), zip(win.tolist(), jac)))
        for p, (i, _) in enumerate(group):
            kind, inp = items[i]
            if p not in winner:
                results[i] = DomstabError(f"{kind.value}: every start failed")
                continue
            j, design = winner[p]
            results[i] = _assemble(
                kind, inp, param_dict(kind, polished.params[j]), float(polished.ss[j]), design,
                converged=bool(polished.converged[j]),
                iterations=int(explored.iterations[ends[j]] + polished.iterations[j]),
            )
    return results


# ---------------------------------------------------------------- piecewise


def breakpoint_candidates(dom: np.ndarray) -> np.ndarray:
    """Distinct candidate breakpoints, ascending: quartile points of each gap
    between consecutive distinct dominance values, kept only where both
    sides retain at least three distinct values."""
    # np.unique would do, but in NumPy 2.4 it imports numpy.ma on first use
    ordered = np.sort(np.asarray(dom, dtype=float))
    first = np.ones(ordered.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    distinct = ordered[first]
    u, v = distinct[:-1, np.newaxis], distinct[1:, np.newaxis]
    cand = (u + np.array([0.25, 0.5, 0.75]) * (v - u)).ravel()
    # distinct is sorted: counts of values below and above each candidate
    left = np.searchsorted(distinct, cand, "left")
    right = distinct.size - np.searchsorted(distinct, cand, "right")
    keep = (left >= 3) & (right >= 3)
    keep[1:] &= cand[1:] != cand[:-1]  # quartile points of ulp-wide gaps can round together
    return cand[keep]


def _grid_resolution(candidates: np.ndarray, d: float) -> float:
    """Local spacing of the ascending candidate grid around d."""
    if candidates.size < 2:
        return math.inf
    idx = int(np.argmin(np.abs(candidates - d)))
    # the wider of the gaps on either side of the nearest candidate
    return float(np.diff(candidates)[max(idx - 1, 0):idx + 1].max())


def _off(h: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Rows of ``h`` less their projections onto the orthonormal columns of
    ``basis``, through stacked matmul (one row at a time, see ``_dots``)."""
    return h - ((h[:, None, :] @ basis) @ basis.T)[:, 0, :]


def _unit(h: np.ndarray) -> np.ndarray:
    """Rows of ``h`` scaled to unit norm; a zero row stays zero."""
    norm = np.sqrt(_dots(h, h))
    scale = np.divide(1.0, norm, out=np.zeros_like(norm), where=norm > 0.0)
    return h * scale[:, None]


def _screen(
    kind: ModelKind, cand: np.ndarray, dom: np.ndarray, chg: np.ndarray
) -> np.ndarray:
    """Approximate residual SS of every candidate, with one QR per call.

    Of the columns of the one-breakpoint design (the kind card's
    ``gradient``), only the last two depend on d, and the screen builds only
    those.  The shared columns, ``[1, D]`` or ``[1, D, D**2]``,
    are factored once by Householder QR and the response is projected off
    them once.  Each candidate projects its two columns off that basis and
    takes the residual by Gram-Schmidt on them, in residual form:
    ``r - q (q . r)`` for the unit bend q1, then for the unit gap q2, rather
    than the cheaper ``|y|^2 - |Q^T y|^2``, which cancels catastrophically
    when the fit is good.  A column with nothing left after its projection
    has no unit vector and takes nothing off.  Every reduction is over one
    row (``_off``, ``_dots``), so a candidate's SS does not depend on its
    chunk.  Candidates go through in chunks of as many as fill
    ``_SCREEN_BYTES`` with their two columns, so the working arrays stay
    bounded."""
    shared, moving = kind.card.gradient(dom)
    basis = np.linalg.qr(shared)[0]
    rest = chg - basis @ (chg @ basis)
    step = max(1, _SCREEN_BYTES // (dom.size * 2 * 8))
    screened = np.empty(cand.size)
    for lo in range(0, cand.size, step):
        bend, gap = moving(cand[lo:lo + step])
        q1 = _unit(_off(bend, basis))
        gap = _off(gap, basis)
        q2 = _unit(gap - q1 * _dots(q1, gap)[:, None])
        resid = rest - q1 * (q1[:, None, :] @ rest)
        resid -= q2 * _dots(q2, resid)[:, None]
        screened[lo:lo + step] = _dots(resid, resid)
    return screened


def _fit_piecewise(kind: ModelKind, inp: FitInput) -> ModelFit:
    """Breakpoint-profiled exact least squares for the piecewise kinds.

    Screen, then certify.  ``_screen`` gives every candidate an approximate
    SS.  Candidates are then visited from the lowest screened SS up and
    solved exactly, each by its own ``np.linalg.lstsq`` on the design built
    for its breakpoint (a stacked SVD or QR solve moves the last bits), its
    SS taken through ``design @ beta`` and ``_dots``.  The visit stops once
    the next screened SS exceeds the best exact SS by the certification
    margin; the lowest exact SS among the visited wins, the lower breakpoint
    breaking ties, so the winner and its coefficients are those of solving
    every candidate exactly.  The winner's design and SS give the standard
    errors.

    The margin has two terms.  The relative one (``_CERTIFY_RTOL``) covers
    the screen's disagreement with the exact solve on a well-posed fit.  The
    absolute one (``_CERTIFY_ATOL`` times ``|y|^2``) covers roundoff, whose
    scale is ``|y|^2`` and not the SS: when the response is exactly
    constant, affine or quadratic in dominance every candidate's SS is
    roundoff noise, the screen cannot rank them, and all are solved.  The
    screen takes the residual off an orthonormal basis and then off one
    unit vector at a time, and no such step can lengthen it.  On a
    rank-deficient design the columns' roundoff remnants still become unit
    vectors, so the screen removes the design's span and more, and its SS
    can only err low; a candidate screened too low is visited early and
    costs an exact solve, never the win.

    ``iterations`` counts the candidates, screened or solved.
    """
    _require_points(inp, kind)
    dom, chg = inp.dominance, inp.change_rate
    if dom.min() == dom.max():
        raise DomstabError("dominance values have zero range")
    cand = breakpoint_candidates(dom)
    if not cand.size:
        raise DomstabError(
            "no breakpoint candidate has three distinct dominance values on each side"
        )
    screened = _screen(kind, cand, dom, chg)
    slack = _CERTIFY_ATOL * float(chg @ chg)
    best_ss, best = math.inf, None
    shared, moving = kind.card.gradient(dom)
    for i in np.argsort(screened, kind="stable").tolist():
        if screened[i] > best_ss * (1.0 + _CERTIFY_RTOL) + slack:
            break
        (bend,), (gap,) = moving(cand[i:i + 1])
        design = np.column_stack([shared, bend, gap])
        beta = np.linalg.lstsq(design, chg, rcond=None)[0]
        resid = chg - design @ beta
        ss = float(_dots(resid, resid))
        if best is None or ss < best_ss or (ss == best_ss and cand[i] < best[0]):
            best = cand[i], beta, design, ss
        best_ss = min(best_ss, ss)
    d, beta, design, ss = best
    params = param_dict(kind, np.insert(beta, 3, d))
    return _assemble(kind, inp, params, ss, design,
                     d_se=_grid_resolution(cand, d), iterations=cand.size)


# ---------------------------------------------------------------- dispatch


def fit_model(kind: ModelKind, inp: FitInput) -> ModelFit:
    """Fit one model kind with its family's route.  A logistic kind is a
    one-item :func:`fit_logistic_batch`, whose fit is returned, converged or
    not, and whose error is raised."""
    if kind is ModelKind.LINEAR:
        return _fit_linear(inp)
    if kind.logistic_family:
        (result,) = fit_logistic_batch([(kind, inp)])
        if isinstance(result, DomstabError):
            raise result
        return result
    return _fit_piecewise(kind, inp)
