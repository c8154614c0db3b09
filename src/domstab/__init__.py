"""Dominance metrics and dominance-stability modeling for abundance series.

The pipeline, end to end: parse a species-by-sample count table
(:mod:`domstab.ingest`), compute mean-crowding dominance per sample
(:mod:`domstab.metrics`), turn consecutive samples into stability series
(:mod:`domstab.stability`), fit phenomenological stability-response models
(:mod:`domstab.models`, :mod:`domstab.fitting`), screen and pick one per
subject (:mod:`domstab.selection`), and study the induced dominance map
(:mod:`domstab.dynamics`).  :mod:`domstab.report` and :mod:`domstab.cli`
wrap it all as CSV/SVG reports.
"""

from .dynamics import FixedPoint, Resilience, Trajectory, fixed_points, iterate, resilience
from .errors import DomstabError
from .fitting import (
    FitInput,
    ModelFit,
    fit_linear,
    fit_logistic_batch,
    fit_model,
    fit_piecewise,
    std_errors,
)
from .ingest import (
    AbundanceTable,
    SampleIdRule,
    SubjectSeries,
    filter_low_reads,
    parse_table,
    split_subjects,
)
from .metrics import (
    CommunityStats,
    DiversityIndices,
    IndexKind,
    community_dominance,
    community_stats,
    diversity_indices,
    mean_crowding,
    regress_dominance_vs_index,
    simpson_identity_residual,
    species_dominance,
    species_dominance_distance,
)
from .models import (
    DerivedParams,
    EquilibriumPoint,
    JointAmbiguous,
    ModelKind,
    Regime,
    derivative,
    derived_params,
    evaluate,
    qualitative_equilibria,
    regime_at,
)
from .report import RunConfig, cmd_compare_indices, cmd_fit_select, cmd_metrics, cmd_simulate, report_all
from .selection import SelectionPolicy, SelectedModel, ValidityReport, select, summary, validate
from .stability import (
    StabilitySeries,
    SubjectDominance,
    apply_sentinel,
    community_stability,
    dominance_records,
    sentinel_value,
    species_stability,
)

__version__ = "0.1.0"
