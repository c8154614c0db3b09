"""Output checks: file digests, golden signatures and their comparison.

A golden signature keeps, per output file, its SHA-256 (byte identity), a
digest of every non-float token (exact identity), the number of float
tokens, and the floats themselves -- all of them when there are few, else a
strided sample plus the float sum and absolute sum.  Floats must agree with
the golden within the relative tolerance in ``design.json``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import re
from pathlib import Path

# A float as domstab writes it (repr of a Python float); inf/nan and
# integers are compared exactly.
FLOAT = re.compile(r"-?(?:\d+\.\d*(?:e[-+]?\d+)?|\d+e[-+]?\d+)")
SAMPLED_FLOATS = 64
TRACEBACK = "Traceback (most recent call last)"


def digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file under ``out_dir``, by relative path."""
    return {
        p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def _tokens(name: str, text: str) -> list[str]:
    if name.endswith(".csv"):
        return [cell for row in csv.reader(io.StringIO(text)) for cell in row + ["\n"]]
    return re.split(f"({FLOAT.pattern})", text)


def signature(name: str, data: bytes) -> dict:
    text = data.decode("utf-8")
    floats: list[float] = []
    shape = hashlib.sha256()
    for token in _tokens(name, text):
        if FLOAT.fullmatch(token):
            floats.append(float(token))
            token = "\x00"
        shape.update(token.encode("utf-8") + b"\x1f")
    sig = {
        "sha256": hashlib.sha256(data).hexdigest(),
        "nonfloat_sha256": shape.hexdigest(),
        "floats": len(floats),
    }
    if len(floats) <= SAMPLED_FLOATS:
        sig["values"] = floats
    else:
        step = len(floats) / SAMPLED_FLOATS
        sig["sample"] = [floats[int(i * step)] for i in range(SAMPLED_FLOATS)]
        sig["sum"] = math.fsum(floats)
        sig["abs_sum"] = math.fsum(abs(x) for x in floats)
    return sig


def _close(a: float, b: float, rtol: float, scale: float | None = None) -> bool:
    if a == b:
        return True
    return abs(a - b) <= rtol * (scale if scale is not None else max(abs(a), abs(b)))


def compare(name: str, golden: dict, data: bytes, rtol: float) -> list[str]:
    """Problems with one output file that is not byte-identical to golden."""
    sig = signature(name, data)
    if sig["nonfloat_sha256"] != golden["nonfloat_sha256"]:
        return [f"{name}: non-float cells differ from golden"]
    if sig["floats"] != golden["floats"]:
        return [f"{name}: {sig['floats']} floats, golden has {golden['floats']}"]
    if "values" in golden:
        pairs = zip(sig["values"], golden["values"])
    else:
        pairs = zip(sig["sample"], golden["sample"])
        scale = max(sig["abs_sum"], golden["abs_sum"])
        if not (_close(sig["sum"], golden["sum"], rtol, scale)
                and _close(sig["abs_sum"], golden["abs_sum"], rtol)):
            return [f"{name}: float sums differ from golden beyond rtol {rtol}"]
    for index, (got, want) in enumerate(pairs):
        if not _close(got, want, rtol):
            return [f"{name}: float {index} is {got!r}, golden {want!r} (rtol {rtol})"]
    return []


def selection(out_dir: Path) -> list[list[str]]:
    """(subject, selected kind, error text) per subject."""
    path = out_dir / "selection_summary.csv"
    if not path.exists():
        return []
    with open(path, newline="", encoding="utf-8") as fh:
        return [[row["subject"], row["model"], row["error"]] for row in csv.DictReader(fh)]


def roster_species(out_dir: Path) -> int:
    """Smallest per-subject species roster, read from the metrics headers."""
    rosters = []
    for path in sorted(out_dir.glob("metrics_*.csv")):
        with open(path, encoding="utf-8") as fh:
            header = fh.readline()
        rosters.append(sum(cell.startswith("distance_") for cell in header.split(",")))
    return min(rosters) if rosters else 0


def make_golden(out_dir: Path) -> dict:
    files = {
        p.relative_to(out_dir).as_posix(): signature(p.name, p.read_bytes())
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }
    return {"files": files, "selection": selection(out_dir)}


def check_golden(out_dir: Path, golden: dict, rtol: float) -> tuple[list[str], int]:
    """Problems against the golden, and the number of byte-identical files."""
    present = {p.relative_to(out_dir).as_posix(): p for p in out_dir.rglob("*") if p.is_file()}
    problems = []
    if set(present) != set(golden["files"]):
        missing = sorted(set(golden["files"]) - set(present))
        extra = sorted(set(present) - set(golden["files"]))
        problems.append(f"file set differs from golden: missing {missing[:5]}, extra {extra[:5]}")
    got = selection(out_dir)
    if got != golden["selection"]:
        problems.append(f"selected kind or error text differs from golden: {got} != {golden['selection']}")
    identical = 0
    for name in sorted(set(present) & set(golden["files"])):
        data = present[name].read_bytes()
        if hashlib.sha256(data).hexdigest() == golden["files"][name]["sha256"]:
            identical += 1
        else:
            problems.extend(compare(name, golden["files"][name], data, rtol))
    return problems, identical
