"""Dominance metrics and dominance-stability modeling for abundance series.

The pipeline, end to end: parse a species-by-sample count table
(:mod:`domstab.ingest`), compute mean-crowding dominance per sample
(:mod:`domstab.metrics`), turn consecutive samples into stability series
(:mod:`domstab.stability`), fit phenomenological stability-response models
(:mod:`domstab.models`, :mod:`domstab.fitting`), screen and pick one per
subject (:mod:`domstab.selection`), and study the induced dominance map
(:mod:`domstab.dynamics`).  :mod:`domstab.report` and :mod:`domstab.cli`
wrap it all as CSV/SVG reports.  Import each public name from its module,
as in ``from domstab.fitting import fit_model``.
"""

__version__ = "0.1.0"
