"""The benchmark's tracer patches names in domstab modules by string
(bench/spans.py).  A renamed or deleted name would make the traced run fail
or silently time nothing, so every patched (module, attribute) must exist.
The file is read as a syntax tree, not imported."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _patched_names() -> tuple[list[tuple[str, str]], int]:
    """(module, attribute) of each entry of the list ``_patches`` returns,
    and the length of that list."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    (patches,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_patches"]
    returned = patches.body[-1].value
    pairs = []
    for entry in returned.elts:
        # span(module, "attr", ...) or a literal (module, "attr", wrapper)
        parts = entry.args if isinstance(entry, ast.Call) else entry.elts
        module, attr = parts[0], parts[1]
        if isinstance(module, ast.Name) and isinstance(attr, ast.Constant):
            pairs.append((module.id, attr.value))
    return pairs, len(returned.elts)


def test_every_traced_name_exists():
    pairs, entries = _patched_names()
    assert entries > 0
    assert len(pairs) == entries
    missing = [
        f"domstab.{module}.{attr}" for module, attr in pairs
        if not hasattr(importlib.import_module(f"domstab.{module}"), attr)
    ]
    assert missing == []
