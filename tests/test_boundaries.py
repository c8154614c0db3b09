"""What the package may import, and the names the benchmark harness wraps.

``src/domstab`` depends on the standard library and NumPy only; scipy in
particular is not a dependency.  ``bench/spans.py`` records its spans by
replacing module attributes of domstab at run time, so every entry of its
patch list must name a (module, attribute) pair and every pair it names must
exist; the file is parsed, not run.
"""

import ast
import importlib
import sys
from pathlib import Path

import domstab

PACKAGE = Path(domstab.__file__).resolve().parent
SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _imported_roots(path: Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.partition(".")[0])
    return roots


def test_package_imports_only_the_standard_library_numpy_and_itself():
    allowed = set(sys.stdlib_module_names) | {"numpy", "domstab"}
    outside = {
        (path.name, root)
        for path in sorted(PACKAGE.glob("*.py"))
        for root in _imported_roots(path) - allowed
    }
    assert outside == set()


def _pair(node: ast.AST, modules: set[str]) -> tuple[str, str] | None:
    """(module, attribute) of a ``span(module, "attr", ...)`` call or a
    ``(module, "attr", wrapper)`` tuple whose module is imported from
    domstab; None for any other node."""
    if isinstance(node, ast.Call):
        head = node.args[:2]
    elif isinstance(node, ast.Tuple):
        head = node.elts[:2]
    else:
        return None
    if (
        len(head) == 2
        and isinstance(head[0], ast.Name) and head[0].id in modules
        and isinstance(head[1], ast.Constant) and isinstance(head[1].value, str)
    ):
        return head[0].id, head[1].value
    return None


def test_every_name_the_harness_wraps_exists():
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "domstab"
        for alias in node.names
    }
    pairs = [pair for node in ast.walk(tree) if (pair := _pair(node, modules)) is not None]
    # every entry of the list _patches returns is such a pair
    (patches,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_patches"]
    entries = patches.body[-1].value.elts
    assert entries
    assert None not in [_pair(entry, modules) for entry in entries]
    assert {
        ("report", "curve_chart"),
        ("report", "parse_table"),
        ("report", "community_stats"),
        ("report", "diversity_indices"),
        ("stability", "community_stats"),
        ("fitting", "evaluate_array"),
    } <= set(pairs)
    missing = [
        (module, attr)
        for module, attr in pairs
        if not hasattr(importlib.import_module(f"domstab.{module}"), attr)
    ]
    assert missing == []
