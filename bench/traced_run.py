"""Run ``domstab report-all`` in process, alternating untraced and traced calls.

    PYTHONPATH=src python bench/traced_run.py --result R.json --seconds S \\
        -- report-all --input IN --out OUT [report-all options]

Each call goes through ``domstab.cli.main`` with the given arguments, so the
configuration is exactly the CLI's.  Pairs of one untraced and one traced
call repeat (the order alternating from pair to pair) after one untimed
warm-up call, while another pair still fits in ``S`` seconds.  After each
call the output files are hashed and removed.  The spans, counts, wall
times and digests are written to ``R.json`` once, at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import time
from pathlib import Path

import spans
from domstab import cli
from outputs import digests


def _call(argv: list[str], out_dir: Path) -> dict:
    shutil.rmtree(out_dir, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - start
    written = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
    found = digests(out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    return {"exit": code, "wall_s": wall, "bytes": written, "digests": found}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = [a for a in args.argv if a != "--"]
    out_dir = Path(argv[argv.index("--out") + 1])

    tracer = spans.Tracer()
    begin = time.perf_counter()
    # The first call in a process pays one-off costs (lazy imports, heap
    # growth) that would bias whichever mode ran first.
    calls = {"warm-up": [_call(argv, out_dir)], "untraced": [], "traced": []}
    pair, pair_s = 0, []
    while pair == 0 or time.perf_counter() - begin + max(pair_s) <= args.seconds:
        pair_start = time.perf_counter()
        order = ("untraced", "traced") if pair % 2 == 0 else ("traced", "untraced")
        for mode in order:
            if mode == "traced":
                tracer.run = pair
                with spans.install(tracer):
                    calls[mode].append(_call(argv, out_dir))
            else:
                calls[mode].append(_call(argv, out_dir))
        pair_s.append(time.perf_counter() - pair_start)
        pair += 1
    args.result.write_text(json.dumps({"calls": calls, **tracer.to_json()}), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
