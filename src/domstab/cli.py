"""Command-line interface.

Usage:

    domstab metrics          --input counts.csv --out results/
    domstab compare-indices  --input counts.csv --out results/
    domstab fit              --input counts.csv --out results/ --r2-min 0.3 --seed 7
    domstab simulate         --input counts.csv --out results/ --subject 405 --plot
    domstab report-all       --input counts.csv --out results/ --plot

Exit codes: 0 success, 1 input problem (a usage error such as a missing
``--input``, an unknown flag or a bad number; an unreadable, non-UTF-8 or
malformed table; a count out of range; a subject id holding a path
separator, a control character or a line break, or too long to name a file;
an unknown subject or model name; a negative ``--steps``; a non-finite
``--start``; a ``--min-total-reads`` that is not finite and at least 0; for
``fit``, ``simulate`` and ``report-all``, a NaN ``--r2-min`` or a
``--se-ratio-max`` or ``--mag-max`` that is NaN or negative), 2 analysis
problem in some subject, such as no species left by the read floor (every
other subject's outputs are written).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import DomstabError, InputError
from .ingest import DEFAULT_MIN_TOTAL_READS, SampleIdRule
from .models import ModelKind
from .report import (
    ALL_KINDS,
    RunConfig,
    cmd_compare_indices,
    cmd_fit_select,
    cmd_metrics,
    cmd_simulate,
    report_all,
)
from .selection import SelectionPolicy


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error: exit 1 rather than argparse's 2,
    which means an analysis error here.  Subparsers share the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    inputs, fits, seed, plot = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    inputs.add_argument("--input", required=True, help="species-by-sample count table")
    inputs.add_argument("--out", required=True, help="output directory")
    inputs.add_argument("--delimiter", default=None,
                        help="field delimiter (default: auto-detect comma/tab)")
    inputs.add_argument("--min-total-reads", type=float, default=DEFAULT_MIN_TOTAL_READS,
                        help="drop species below this many reads per subject "
                             "(default %(default)s)")
    inputs.add_argument("--id-rule", default=SampleIdRule.separator,
                        help="separator between subject and time token in sample ids")
    fits.add_argument("--models", default=None,
                      help="comma-separated model kinds to fit (default: all)")
    fits.add_argument("--r2-min", type=float, default=RunConfig.policy.r2_min)
    fits.add_argument("--se-ratio-max", type=float, default=RunConfig.policy.se_ratio_max)
    fits.add_argument("--mag-max", type=float, default=RunConfig.policy.magnitude_max)
    seed.add_argument("--seed", type=int, default=RunConfig.seed,
                      help="recorded in run_config.json only; nothing in domstab is random")
    plot.add_argument("--plot", action="store_true", help="also write SVG charts")

    parser = _Parser(
        prog="domstab",
        description="Dominance metrics and dominance-stability modeling "
                    "for species-abundance time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, groups, help_text in (
        ("metrics", [inputs], "per-sample dominance tables"),
        ("compare-indices", [inputs], "dominance-vs-diversity-index regressions"),
        ("fit", [inputs, fits, seed], "fit the stability models and run validity-gated selection"),
        ("simulate", [inputs, fits, plot], "iterate the dominance map for one subject"),
        ("report-all", [inputs, fits, seed, plot], "all reports plus per-subject simulations"),
    ):
        cmd = sub.add_parser(name, help=help_text, parents=groups)
        if name == "simulate":
            cmd.add_argument("--subject", required=True)
            cmd.add_argument("--start", type=float, default=None,
                             help="initial dominance (default: last observed)")
            cmd.add_argument("--steps", type=int, default=RunConfig.simulate_steps)
    return parser


def _parse_models(text: str | None) -> tuple[ModelKind, ...]:
    if text is None:
        return ALL_KINDS
    out = []
    for chunk in text.split(","):
        name = chunk.strip()
        if not name:
            continue
        try:
            out.append(ModelKind(name))
        except ValueError:
            valid = ", ".join(k.value for k in ALL_KINDS)
            raise InputError(f"unknown model kind {name!r} (choose from: {valid})")
    if not out:
        raise InputError("no model kinds given")
    return tuple(out)


def _config(args: argparse.Namespace) -> RunConfig:
    """A flag the subcommand does not take keeps its RunConfig default."""
    policy = RunConfig.policy
    return RunConfig(
        input_path=Path(args.input),
        out_dir=Path(args.out),
        delimiter=args.delimiter,
        min_total_reads=args.min_total_reads,
        id_rule=SampleIdRule(separator=args.id_rule),
        models=_parse_models(getattr(args, "models", None)),
        policy=SelectionPolicy(
            r2_min=getattr(args, "r2_min", policy.r2_min),
            se_ratio_max=getattr(args, "se_ratio_max", policy.se_ratio_max),
            magnitude_max=getattr(args, "mag_max", policy.magnitude_max),
        ),
        seed=getattr(args, "seed", RunConfig.seed),
        plot=getattr(args, "plot", RunConfig.plot),
        simulate_steps=getattr(args, "steps", RunConfig.simulate_steps),
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config(args)
        if args.command == "metrics":
            paths = cmd_metrics(config)
        elif args.command == "compare-indices":
            paths = [cmd_compare_indices(config)]
        elif args.command == "fit":
            paths = cmd_fit_select(config)
        elif args.command == "simulate":
            paths = cmd_simulate(config, args.subject, start=args.start)
        else:
            paths = report_all(config)
    except (InputError, OSError) as exc:
        print(f"domstab: input error: {exc}", file=sys.stderr)
        return 1
    except DomstabError as exc:
        print(f"domstab: analysis error: {exc}", file=sys.stderr)
        return 2
    for path in paths:
        print(path)
    return 0
