"""Pinned breakpoint profile of the piecewise fitter.

The profile picks the breakpoint and coefficients the reports print, so the
cohort's piecewise fits must be reproduced exactly: the parameters, residual
SS and standard errors by repr, and the iteration count (the number of
breakpoint candidates).  The cohort's series have 29 points and screen in one
chunk; a seeded 149-point series, the length of the benchmark's long
workload, screens in several.
"""

import numpy as np
import pytest

from domstab import fitting
from domstab.fitting import (
    _SCREEN_BYTES,
    FitInput,
    _dots,
    _off,
    _screen,
    _unit,
    breakpoint_candidates,
    fit_model,
)
from domstab.ingest import filter_low_reads
from domstab.models import ModelKind
from domstab.report import RunConfig, load_subjects
from domstab.stability import apply_sentinel, community_stability, dominance_records

PINNED = {
    ('101', 'linear-quadratic'): (
        "{'a': -3.8320947056998063, 'b': 1.74180234844862, 'c': -0.20130436937002488, 'd': 4.169746569374702, 'e': 2.087421307598255}",
        '0.3357316087562927',
        72,
        "{'a': 1.5947680628083687, 'b': 0.6755868023871869, 'c': 0.071876481690044, 'd': 0.0080643427638325, 'e': 0.7265676594425287}",
    ),
    ('101', 'quadratic-quadratic'): (
        "{'a': -2.226473173406705, 'b': 0.9186712413714516, 'c': -0.09578170973363213, 'd': 4.1778109121385345, 'e': -0.2977455812148265, 'f': 2.8185537054804906}",
        '0.3342183978349979',
        72,
        "{'a': 5.292515705019796, 'b': 2.6436016586965074, 'c': 0.3318572395247082, 'd': 0.011497010422991671, 'e': 0.2943607667351618, 'f': 2.28448043524341}",
    ),
    ('102', 'linear-quadratic'): (
        "{'a': 0.05905470684953996, 'b': -0.01220651989220775, 'c': 0.008995429860809147, 'd': 4.095297010112452, 'e': -0.3137506335054832}",
        '0.4166435081545529',
        72,
        "{'a': 0.7204921937307301, 'b': 0.26818237965589004, 'c': 0.029689073533278387, 'd': 0.08301394998577649, 'e': 0.40803665016864993}",
    ),
    ('102', 'quadratic-quadratic'): (
        "{'a': -13.451329179413994, 'b': 4.814917894831825, 'c': -0.43520682592573207, 'd': 5.438237472274794, 'e': -0.25584054300012404, 'f': 3.28963875043887}",
        '0.383184565264943',
        72,
        "{'a': 7.636877028954007, 'b': 2.6511313583959737, 'c': 0.23101518852419503, 'd': 0.07346405295683933, 'e': 0.19151129776755788, 'f': 2.2912633947988725}",
    ),
    ('103', 'linear-quadratic'): (
        "{'a': -18.608262179221644, 'b': 5.157551852069267, 'c': -0.3570089335619296, 'd': 6.787294111428578, 'e': 5.190873868107169}",
        '0.4222854522293912',
        72,
        "{'a': 10.725884225608471, 'b': 2.9280194889661635, 'c': 0.19915479211417395, 'd': 0.16476873440062967, 'e': 2.937323392076932}",
    ),
    ('103', 'quadratic-quadratic'): (
        "{'a': -21.086859160780357, 'b': 5.935778129110918, 'c': -0.4204392225770347, 'd': 6.622525377027948, 'e': -0.3577152438325232, 'f': 5.378206568466535}",
        '0.3787274880825852',
        72,
        "{'a': 8.480521929530614, 'b': 2.361556277475311, 'c': 0.165052595216449, 'd': 0.16476873440063056, 'e': 0.14573792641017866, 'f': 2.180378848807335}",
    ),
    ('104', 'linear-quadratic'): (
        "{'a': -96.27374414800764, 'b': 43.83398526774091, 'c': -4.993321995089747, 'd': 4.286830180909571, 'e': 44.06759193990651}",
        '0.25168085485894975',
        72,
        "{'a': 135.23174001920046, 'b': 61.88565480080121, 'c': 7.078178171220511, 'd': 0.009876883629952538, 'e': 61.89943773822477}",
    ),
    ('104', 'quadratic-quadratic'): (
        "{'a': -115.47656238044881, 'b': 52.60911907208428, 'c': -5.9964649233272445, 'd': 4.286830180909571, 'e': -5.905480098969783, 'f': 52.16787459660886}",
        '0.24887405056448478',
        72,
        "{'a': 142.44822630947067, 'b': 65.18157378435687, 'c': 7.454882590214544, 'd': 0.009876883629952538, 'e': 7.409687288004828, 'f': 64.85749152105447}",
    ),
    ('105', 'linear-quadratic'): (
        "{'a': 17.177716432146447, 'b': -7.12566221931992, 'c': 0.7347723145971711, 'd': 4.460199711888242, 'e': -7.078807319452042}",
        '0.20655936589440366',
        72,
        "{'a': 14.431166207092247, 'b': 6.183179170281454, 'c': 0.661494498632201, 'd': 0.008532893302136912, 'e': 6.19734273947273}",
    ),
    ('105', 'quadratic-quadratic'): (
        "{'a': 22.767140281475214, 'b': -9.63606932156211, 'c': 1.0186528103238481, 'd': 4.443493165906757, 'e': 0.7884916053176417, 'f': -7.797034455774553}",
        '0.19070568051950398',
        72,
        "{'a': 14.3059589263768, 'b': 6.166131485322381, 'c': 0.6644662300768841, 'd': 0.06482975552540182, 'e': 0.6192256068267383, 'f': 5.820564020832913}",
    ),
}


LONG_PINNED = {
    'linear-quadratic': (
        "{'a': -0.3130645190274006, 'b': 0.39550329395241207, 'c': -0.019586721971947038, 'd': 6.204454200965909, 'e': 0.7913743205745303}",
        '17.784129648704337',
        432,
        "{'a': 0.5067008065551339, 'b': 0.1206252152008821, 'c': 0.007195745298698267, 'd': 0.08412783768268817, 'e': 0.12984013459315952}",
    ),
    'quadratic-quadratic': (
        "{'a': -0.09101754218824065, 'b': 0.4035493963414124, 'c': -0.02756490525060629, 'd': 6.033375185860086, 'e': -0.0043266499778143175, 'f': 0.6442427098220158}",
        '17.574343631053566',
        432,
        "{'a': 0.5371504047614167, 'b': 0.14752780485970404, 'c': 0.011852773554914967, 'd': 0.024794049520024508, 'e': 0.008369324965571558, 'f': 0.11977031615600654}",
    ),
}


@pytest.fixture(scope="module")
def cohort_inputs(cohort_path, tmp_path_factory) -> dict[str, FitInput]:
    config = RunConfig(input_path=cohort_path, out_dir=tmp_path_factory.mktemp("unused"))
    out = {}
    for series in load_subjects(config):
        series = filter_low_reads(series, config.min_total_reads)
        records = apply_sentinel(dominance_records(series))
        stability = community_stability(records)
        out[series.subject_id] = FitInput(stability.dominance, stability.change_rate)
    return out


@pytest.mark.parametrize("key", list(PINNED), ids="-".join)
def test_cohort_piecewise_fit_pinned(key, cohort_inputs):
    subject, kind = key
    fit = fit_model(ModelKind(kind), cohort_inputs[subject])
    outcome = (repr(fit.params), repr(fit.residual_ss), fit.iterations, repr(fit.std_errors))
    assert outcome == PINNED[key]


def test_profile_solves_few_candidates(cohort_inputs, monkeypatch):
    """The screen leaves only a few candidates to the exact solve."""
    calls = []
    lstsq = np.linalg.lstsq

    def counting(*args, **kwargs):
        calls.append(args)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    candidates = sum(
        fit_model(ModelKind(kind), cohort_inputs[subject]).iterations
        for subject, kind in PINNED
    )
    assert 0 < len(calls) * 10 < candidates


def test_screen_chunking_moves_no_bits(cohort_inputs, monkeypatch):
    inp = cohort_inputs["101"]
    kind = ModelKind.QUADRATIC_QUADRATIC
    cand = breakpoint_candidates(inp.dominance)
    whole = _screen(kind, cand, inp.dominance, inp.change_rate)
    # seven candidates a chunk of two columns: 72 candidates make ten full
    # chunks and a short one
    monkeypatch.setattr(fitting, "_SCREEN_BYTES", 7 * inp.n * 2 * 8)
    chunks = []
    gradient = type(kind.card).gradient

    def counted(card, dom):
        shared, moving = gradient(card, dom)

        def counted_moving(d):
            chunks.append(d.size)
            return moving(d)

        return shared, counted_moving

    monkeypatch.setattr(type(kind.card), "gradient", counted)
    chunked = _screen(kind, cand, inp.dominance, inp.change_rate)
    assert cand.size == 72
    assert chunks == [7] * 10 + [2]
    assert chunked.tobytes() == whole.tobytes()


def _design_column_screen(kind, cand, dom, chg):
    """The screen restated on full designs: each chunk builds its ``(m, n, p)``
    design with the formulas written out here, in chunks of ``p`` columns,
    and copies its last two columns out."""

    def design(d):
        d = d[:, np.newaxis]
        gap = np.abs(dom - d)
        columns = [np.ones_like(gap), np.broadcast_to(dom, gap.shape)]
        if kind is ModelKind.LINEAR_QUADRATIC:
            columns.append(dom**2 + gap * (dom + d))
        else:
            columns.extend([np.broadcast_to(dom**2, gap.shape), gap * (dom + d)])
        return np.stack([*columns, gap], axis=-1)

    basis = np.linalg.qr(design(np.zeros(1))[0, :, :-2])[0]
    rest = chg - basis @ (chg @ basis)
    step = max(1, _SCREEN_BYTES // (dom.size * (kind.arity - 1) * 8))
    screened = np.empty(cand.size)
    for lo in range(0, cand.size, step):
        block = design(cand[lo:lo + step])
        q1 = _unit(_off(np.ascontiguousarray(block[:, :, -2]), basis))
        gap = _off(np.ascontiguousarray(block[:, :, -1]), basis)
        q2 = _unit(gap - q1 * _dots(q1, gap)[:, None])
        resid = rest - q1 * (q1[:, None, :] @ rest)
        resid -= q2 * _dots(q2, resid)[:, None]
        screened[lo:lo + step] = _dots(resid, resid)
    return screened


def _long_series() -> FitInput:
    """A seeded 149-point series, the length of the long workload's."""
    rng = np.random.default_rng(149)
    dom = rng.uniform(0.5, 12.0, 149)
    chg = 0.4 * dom - 0.03 * dom**2 + 0.6 * np.abs(dom - 6.0) + rng.normal(0.0, 0.3, 149)
    return FitInput(dom, chg)


@pytest.mark.parametrize("kind", list(LONG_PINNED))
def test_screen_matches_design_column_screen(kind, cohort_inputs):
    """Screening on the two breakpoint columns alone moves no bit of any
    cohort fit's screen, nor of the long series'."""
    inputs = [*cohort_inputs.values(), _long_series()]
    assert len(inputs) == 6
    for inp in inputs:
        cand = breakpoint_candidates(inp.dominance)
        args = (ModelKind(kind), cand, inp.dominance, inp.change_rate)
        assert _screen(*args).tobytes() == _design_column_screen(*args).tobytes()


@pytest.mark.parametrize("kind", list(LONG_PINNED))
def test_long_series_fit_pinned(kind):
    fit = fit_model(ModelKind(kind), _long_series())
    outcome = (repr(fit.params), repr(fit.residual_ss), fit.iterations, repr(fit.std_errors))
    assert outcome == LONG_PINNED[kind]
