"""Command-line interface.

Usage:

    domstab metrics          --input counts.csv --out results/
    domstab compare-indices  --input counts.csv --out results/
    domstab fit              --input counts.csv --out results/
    domstab select           --input counts.csv --out results/ --r2-min 0.3
    domstab simulate         --input counts.csv --out results/ --subject 405
    domstab report-all       --input counts.csv --out results/ --plot

Exit codes: 0 success, 1 input problem (unreadable, non-UTF-8 or malformed
table, count out of range, unknown subject or model name), 2 analysis
problem in some subject, such as no species left by the read floor (every
other subject's outputs are written).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import DomstabError, DuplicateIdError, IdRuleError, ParseError
from .ingest import SampleIdRule
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

_INPUT_ERRORS = (ParseError, DuplicateIdError, IdRuleError, OSError, KeyError)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="species-by-sample count table")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--delimiter", default=None,
                        help="field delimiter (default: auto-detect comma/tab)")
    parser.add_argument("--min-total-reads", type=float, default=10.0,
                        help="drop species below this many reads per subject (default 10)")
    parser.add_argument("--id-rule", default="_",
                        help="separator between subject and time token in sample ids")
    parser.add_argument("--models", default=None,
                        help="comma-separated model kinds to fit (default: all)")
    parser.add_argument("--r2-min", type=float, default=0.30)
    parser.add_argument("--se-ratio-max", type=float, default=20.0)
    parser.add_argument("--mag-max", type=float, default=1e6)
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded in run_config.json only; nothing in domstab is random")
    parser.add_argument("--plot", action="store_true",
                        help="also write SVG charts")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domstab",
        description="Dominance metrics and dominance-stability modeling "
                    "for species-abundance time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("metrics", "per-sample dominance tables"),
        ("compare-indices", "dominance-vs-diversity-index regressions"),
        ("fit", "fit all stability models per subject"),
        ("select", "fit models and run validity-gated selection"),
        ("simulate", "iterate the dominance map for one subject"),
        ("report-all", "all reports plus per-subject simulations"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        _add_common(cmd)
        if name == "simulate":
            cmd.add_argument("--subject", required=True)
            cmd.add_argument("--start", type=float, default=None,
                             help="initial dominance (default: last observed)")
            cmd.add_argument("--steps", type=int, default=500)
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
            raise KeyError(f"unknown model kind {name!r} (choose from: {valid})")
    if not out:
        raise KeyError("no model kinds given")
    return tuple(out)


def _config(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        input_path=Path(args.input),
        out_dir=Path(args.out),
        delimiter=args.delimiter,
        min_total_reads=args.min_total_reads,
        id_rule=SampleIdRule(separator=args.id_rule),
        models=_parse_models(args.models),
        policy=SelectionPolicy(
            r2_min=args.r2_min,
            se_ratio_max=args.se_ratio_max,
            magnitude_max=args.mag_max,
        ),
        seed=args.seed,
        plot=args.plot,
        simulate_steps=getattr(args, "steps", 500),
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config(args)
        if args.command == "metrics":
            paths = cmd_metrics(config)
        elif args.command == "compare-indices":
            paths = [cmd_compare_indices(config)]
        elif args.command in ("fit", "select"):
            paths = cmd_fit_select(config)
        elif args.command == "simulate":
            paths = cmd_simulate(config, args.subject, start=args.start)
        else:
            paths = report_all(config)
    except _INPUT_ERRORS as exc:
        print(f"domstab: input error: {exc}", file=sys.stderr)
        return 1
    except DomstabError as exc:
        print(f"domstab: analysis error: {exc}", file=sys.stderr)
        return 2
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
