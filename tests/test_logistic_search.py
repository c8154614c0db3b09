"""Pinned search path of the logistic-family fitter.

The multi-start search (ranking, exploration, polish) decides which endpoint
a fit reports, converged or not, and the reports pin those endpoints.  These
values must be reproduced exactly: the parameters and residual SS by repr, the
iteration count and the error text.  The short inputs are series of 6 to 13
points.
"""

import tracemalloc

import numpy as np
import pytest

from domstab import fitting
from domstab.fitting import FitInput, ModelFit, fit_logistic_batch, fit_model
from domstab.ingest import filter_low_reads
from domstab.models import ModelKind
from domstab.report import RunConfig, load_subjects
from domstab.stability import apply_sentinel, community_stability, dominance_records

SHORT_INPUTS = {
    2: (
        [
            3.150718465989659, 4.58472174326878, 6.852428268908109, 8.328141861297535,
            11.723805348335485, 12.641154593150809, 17.8726008413867,
            22.928360848436693, 24.403920512660505, 26.63988758014811,
            27.102594644406288, 29.41386054565999, 32.75480388317693,
        ],
        [
            0.22747903562042773, -0.049599025858693975, 0.27264435698234085,
            -0.30359284993531854, 0.06341392355593493, -0.44613702171489517,
            0.42073248618507153, 0.09401754349034298, 0.16528550406766307,
            0.20525195648513142, -0.5053787500766672, 0.39159049807203866,
            1.0283514091711843,
        ],
    ),
    3: (
        [
            4.671017047375568, 5.433208776934733, 7.229817670846064, 10.235609757247888,
            16.25789942933082, 17.794492796152934, 17.891950669222478,
            19.683000627492525, 21.152867122233182, 23.704319406510344,
            23.88514428608749, 29.648508904959368, 32.24970414304948,
        ],
        [
            -0.5275752756025607, -0.19540048861732737, 0.24097269425339293,
            -0.11927680328668334, 0.47887935147988203, -0.09990106453329,
            0.012129782538332311, 0.772910425606406, 0.2725527613438223,
            -0.252614367807009, -0.09141948729886745, 0.27026256587740105,
            0.9675440170494264,
        ],
    ),
    6: (
        [
            3.0174400473672334, 5.795922620600411, 13.868574760032876,
            14.387563922720199, 15.393622352019753, 15.605373857927413,
            25.677494631678698, 27.298633289675248, 27.51678878539687, 39.5103546172722,
        ],
        [
            0.27563356588420596, 0.08936884378525202, -0.5369293507376846,
            -0.42331448311913566, 0.18979212300386447, -0.2900976008028503,
            0.6357756882291936, 0.6461932967016557, 0.8993931692451893,
            -0.013036918772285345,
        ],
    ),
    11: (
        [
            2.1188713265058374, 3.7464024700136767, 6.061184026572621,
            6.769117298520781, 20.471836635164482, 24.458435947310942,
            37.20022989545441,
        ],
        [
            0.37344280812827196, -0.9236623994870548, 0.7832743873497603,
            -0.048216080077810274, 0.34018922663707307, -0.06828316698841387,
            -0.18954928353742664,
        ],
    ),
    16: (
        [
            1.8445451241257103, 2.7278644157431073, 4.668879192999457,
            8.207011297987096, 14.575102467003823, 17.79902167411724,
            25.238852496846498, 32.294417551770266, 34.307931729550745,
            35.11066273987597,
        ],
        [
            -0.35192956026943584, 0.06808116922663085, -0.45758736456996013,
            -0.09573550985947034, 0.5601250378739552, 0.28522584537928025,
            0.28617182759029547, 0.17256121395971422, -0.0876378959863221,
            -0.9338714539920695,
        ],
    ),
    34: (
        [
            10.466953116572155, 19.87960293582862, 26.391390616605722,
            31.75280627253391, 35.01489965655115, 35.34818004938998,
        ],
        [
            0.16837131818273315, 0.09755354493856386, -0.3046572430880654,
            0.3073401944074966, 0.2452015588223856, -0.059132194274815135,
        ],
    ),
}

PINNED = {
    ('cohort', '101', 'logistic'): (
        "{'K': 9.341597116877892, 'a': -191029178112.90134, 'r': 3.9364647439721083}",
        '0.48092817909477764',
        620,
        'logistic: no start converged',
    ),
    ('cohort', '101', 'logistic-sine'): (
        "{'K': 8.874286056229824, 'a': -217453128654.5143, 'r': 3.9730075391511996}",
        '0.48082953436707504',
        620,
        'logistic-sine: no start converged',
    ),
    ('cohort', '102', 'logistic'): (
        "{'K': 2.9366069898315734, 'a': -818748085.1155131, 'r': 2.776014048116203}",
        '0.5079887706245821',
        338,
        '',
    ),
    ('cohort', '102', 'logistic-sine'): (
        "{'K': 0.127540782673627, 'a': 1.5711558400517986e-59, 'r': -30.267428295453364}",
        '0.49512852359616283',
        620,
        'logistic-sine: no start converged',
    ),
    ('cohort', '103', 'logistic'): (
        "{'K': 0.034678327895241626, 'a': -0.00019587030757407703, 'r': -1.5326018226579172}",
        '0.37239458702325784',
        106,
        '',
    ),
    ('cohort', '103', 'logistic-sine'): (
        "{'K': 0.06325179951151998, 'a': 4.5683892805590625e-28, 'r': -11.402112880901981}",
        '0.4900261770233828',
        620,
        'logistic-sine: no start converged',
    ),
    ('cohort', '104', 'logistic'): (
        "{'K': 0.12453967147252841, 'a': 8.571624155722166e-25, 'r': -15.915624856280104}",
        '0.3248331961986866',
        620,
        'logistic: no start converged',
    ),
    ('cohort', '104', 'logistic-sine'): (
        "{'K': 0.14805703305566575, 'a': 1.1980688382798603e-22, 'r': -14.535670173705642}",
        '0.32533820099433836',
        620,
        'logistic-sine: no start converged',
    ),
    ('cohort', '105', 'logistic'): (
        "{'K': -0.3382585214370782, 'a': -0.00021697812006568964, 'r': -2.9253148376631954}",
        '0.28049710007732465',
        103,
        '',
    ),
    ('cohort', '105', 'logistic-sine'): (
        "{'K': -0.35675037881577765, 'a': -0.0001569967422702399, 'r': -3.0051121480626923}",
        '0.280476303513796',
        104,
        '',
    ),
    ('short', 2, 'logistic'): (
        "{'K': 1.2092154914570619, 'a': 295202202478.26904, 'r': 0.8603635397640823}",
        '0.9830712864880554',
        122,
        '',
    ),
    ('short', 2, 'logistic-sine'): (
        "{'K': -1.2519360840574405, 'a': 182546604216.43408, 'r': 0.8950269839374451}",
        '1.0699225816470417',
        123,
        '',
    ),
    ('short', 3, 'logistic'): (
        "{'K': -0.04287015610454942, 'a': -3.5635659859940603, 'r': 0.038056597325689015}",
        '1.3324147945820262',
        349,
        '',
    ),
    ('short', 3, 'logistic-sine'): (
        "{'K': -0.18610955079051686, 'a': -1.3856886540383044e-06, 'r': -0.41347762996712406}",
        '1.232989259932823',
        620,
        'logistic-sine: no start converged',
    ),
    ('short', 6, 'logistic'): (
        "{'K': -0.12515370657368824, 'a': -36.30526091049468, 'r': 0.12574485718077422}",
        '0.8761009122318774',
        324,
        '',
    ),
    ('short', 6, 'logistic-sine'): (
        "{'K': 0.22949521311619478, 'a': -0.011679237962379336, 'r': -0.15480436237839124}",
        '0.3670923461317063',
        139,
        '',
    ),
    ('short', 11, 'logistic'): (
        "{'K': 0.3728001007728975, 'a': -2.557000885987069e-07, 'r': -4.142187475097631}",
        '0.7721922106534206',
        620,
        'logistic: no start converged',
    ),
    ('short', 11, 'logistic-sine'): (
        "{'K': 0.16088503828314116, 'a': -2.8946297286106817, 'r': 0.24131979159954073}",
        '0.6479400540905871',
        52,
        '',
    ),
    ('short', 16, 'logistic'): (
        "{'K': 0.014483168824021755, 'a': -115770.71268298701, 'r': 0.33163655849397994}",
        '0.8592681016412491',
        620,
        'logistic: no start converged',
    ),
    ('short', 16, 'logistic-sine'): (
        "{'K': -0.15662410067015756, 'a': -0.22699696176906659, 'r': -0.07070243388317327}",
        '1.0162013343198708',
        41,
        '',
    ),
    ('short', 34, 'logistic'): (
        "{'K': 0.05708318221858153, 'a': -41.77217691670841, 'r': 0.3961178139945238}",
        '0.24398866624957335',
        71,
        '',
    ),
    ('short', 34, 'logistic-sine'): (
        "{'K': -0.41842345815463117, 'a': 3.090214111824203e-25, 'r': -1.6327780823041815}",
        '0.06042511251655537',
        620,
        'logistic-sine: no start converged',
    ),
}


def _outcome(kind: ModelKind, inp: FitInput) -> tuple:
    """A fit as the reports pin it, with the error text they give a fit
    that did not converge."""
    fit = fit_model(kind, inp)
    error = "" if fit.converged else f"{kind.value}: no start converged"
    return (repr(fit.params), repr(fit.residual_ss), fit.iterations, error)


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


@pytest.mark.parametrize("key", [k for k in PINNED if k[0] == "cohort"], ids="-".join)
def test_cohort_search_path_pinned(key, cohort_inputs):
    _, subject, kind = key
    assert _outcome(ModelKind(kind), cohort_inputs[subject]) == PINNED[key]


def test_non_converged_fit_is_the_batch_item(cohort_inputs):
    """A fit that did not converge is returned as it stands, bit for bit the
    item the cohort's one batch gives it."""
    subjects = list(cohort_inputs)
    items = [(kind, cohort_inputs[s]) for s in subjects
             for kind in (ModelKind.LOGISTIC, ModelKind.LOGISTIC_SINE)]
    batch = fit_logistic_batch(items)
    i = 2 * subjects.index("101")  # subject 101's logistic item
    assert items[i][0] is ModelKind.LOGISTIC
    assert PINNED[("cohort", "101", "logistic")][-1] == "logistic: no start converged"
    fit = fit_model(*items[i])
    assert isinstance(fit, ModelFit) and not fit.converged
    assert repr(fit.params) == repr(batch[i].params)
    assert repr(fit.residual_ss) == repr(batch[i].residual_ss)
    assert fit.iterations == batch[i].iterations


@pytest.mark.parametrize(
    "key", [k for k in PINNED if k[0] == "short"], ids=lambda k: f"short-{k[1]}-{k[2]}"
)
def test_aborting_search_path_pinned(key):
    _, seed, kind = key
    dom, chg = SHORT_INPUTS[seed]
    assert _outcome(ModelKind(kind), FitInput(np.array(dom), np.array(chg))) == PINNED[key]


@pytest.mark.parametrize(
    "kind", [ModelKind.LOGISTIC, ModelKind.LOGISTIC_SINE], ids=lambda k: k.value
)
@pytest.mark.parametrize("seed", SHORT_INPUTS)
def test_best_attempt_is_no_worse_than_any_explored_start(seed, kind, monkeypatch):
    """The search's best attempt, converged or not, has an SS no higher than
    the exploration endpoint of each start it ranks.  The starts run as one
    stack, whose rows are their lone runs to the bit (see test_properties)."""
    runs = []
    lockstep = fitting._lockstep

    def recorded(*args):
        runs.append(lockstep(*args))
        return runs[-1]

    monkeypatch.setattr(fitting, "_lockstep", recorded)
    dom, chg = SHORT_INPUTS[seed]
    _outcome(kind, FitInput(np.array(dom), np.array(chg)))
    explored, polished = runs
    assert polished.ss.min() <= explored.ss.min()


def test_lockstep_memory_does_not_grow_with_its_budget(cohort_inputs, monkeypatch):
    """A lockstep pass holds one row of state per running start, so its
    peak memory is the same at 50 iterations as at 2,000.  The polish starts
    of cohort subject 101's logistic fit, less the best one (it converges in
    iteration 553), crawl to any such cap."""
    calls = []
    lockstep = fitting._lockstep

    def recorded(*args):
        calls.append(args)
        return lockstep(*args)

    monkeypatch.setattr(fitting, "_lockstep", recorded)
    _outcome(ModelKind.LOGISTIC, cohort_inputs["101"])
    problem, owner, starts, _ = calls[1]
    peaks = []
    for max_iter in (50, 2000):
        tracemalloc.start()
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                run = lockstep(problem, owner[1:], starts[1:], max_iter)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert run.iterations.tolist() == [max_iter] * (len(starts) - 1)
    assert peaks[1] == pytest.approx(peaks[0], rel=0.1)
