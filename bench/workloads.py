"""Benchmark workloads and the seeded count-table generator.

The generator is the AR(1) model of ``tests/fixtures/make_cohort.py`` with
its seed and sizes as parameters.  With 60 species and seed 20211 it writes
``tests/fixtures/cohort.csv`` byte for byte.  The rank slope of the base
log-abundance is scaled by ``60 / species`` so that the base spans the same
range at any width: with the literal ``0.12 * rank`` a 2,000-species table
keeps only about 85 species after the read floor.

Workload definitions live in ``design.json`` next to this file; domstab only
ever sees the generated CSV.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
DESIGN_PATH = BENCH_DIR / "design.json"


def load_design() -> dict:
    return json.loads(DESIGN_PATH.read_text(encoding="utf-8"))


def _date_tokens(n: int) -> list[str]:
    start = date(2006, 1, 2)
    return [(start + timedelta(days=3 * i)).strftime("%m%d%y") for i in range(n)]


def _subject_counts(rng: np.random.Generator, samples: int, species: int) -> np.ndarray:
    rank = np.arange(species)
    base = 9.0 - 0.12 * rank * (60 / species) + rng.normal(0.0, 0.4, size=species)
    counts = np.empty((species, samples), dtype=np.int64)
    level = base.copy()
    for t in range(samples):
        level = base + 0.8 * (level - base) + rng.normal(0.0, 0.35, size=species)
        counts[:, t] = np.maximum(0, np.rint(np.exp(level * 0.9))).astype(np.int64)
    # two silent species (roster exclusion) and one below the read floor
    silent = rng.choice(species, size=2, replace=False)
    counts[silent, :] = 0
    low = rng.integers(0, species)
    while low in silent:
        low = rng.integers(0, species)
    counts[low, :] = 0
    counts[low, rng.integers(0, samples, size=3)] = 1
    return counts


def generate_table(seed: int, subjects: int, samples: int, species: int) -> str:
    """Species-by-sample count table as CSV text; columns interleave
    subject-fastest so the parser has to regroup them."""
    rng = np.random.default_rng(seed)
    tokens = _date_tokens(samples)
    ids = [f"10{k}" for k in range(1, subjects + 1)]
    blocks = {s: _subject_counts(rng, samples, species) for s in ids}
    out = io.StringIO()
    header = ["species_id"]
    for t in range(samples):
        for s in ids:
            header.append(f"{s}_{tokens[t]}")
    out.write(",".join(header) + "\n")
    for i in range(species):
        row = [f"OTU{i + 1}"]
        for t in range(samples):
            for s in ids:
                row.append(str(blocks[s][i, t]))
        out.write(",".join(row) + "\n")
    return out.getvalue()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    args: tuple[str, ...]          # domstab report-all arguments besides --input/--out
    fixture: str | None            # checkout-relative input, or None when generated
    subjects: int
    samples: int
    species: int
    reference_seed: int | None     # seed of the stored golden for generated inputs

    @property
    def cells(self) -> int:
        """Input count cells: species x samples over all subjects."""
        return self.species * self.samples * self.subjects

    def input_text(self, seed: int) -> str:
        return generate_table(seed, self.subjects, self.samples, self.species)

    def roster_ok(self, roster_species: int) -> bool:
        """False when the read floor dropped more than 10% of the species."""
        return 10 * roster_species >= 9 * self.species


def workloads(design: dict | None = None) -> dict[str, Workload]:
    design = design if design is not None else load_design()
    out = {}
    for name, spec in design["workloads"].items():
        out[name] = Workload(
            name=name,
            why=spec["why"],
            args=tuple(spec["args"]),
            fixture=spec.get("fixture"),
            subjects=spec["subjects"],
            samples=spec["samples"],
            species=spec["species"],
            reference_seed=spec.get("reference_seed"),
        )
    return out
