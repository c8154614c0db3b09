"""What the package may import and export, and the names the benchmark
harness wraps.

``src/domstab`` depends on the standard library and NumPy only; scipy in
particular is not a dependency.  Each public name has one import path, its
module: ``import domstab`` loads no submodule, and a module's ``__all__``
lists only names that module defines.  ``bench/spans.py`` records its spans by
replacing module attributes of domstab at run time, so every entry of its
patch list must name a (module, attribute) pair and every pair it names must
exist.  Its wrappers also read attributes of what they wrap (``fit.iterations``,
``traj.values`` and more), so one cohort run goes through them, and its report
files must match an untraced run's.  A name a module imports is used there
unless the harness wraps it on that module, and a name a module exports is
called from ``src`` or ``bench``.  An error class is told apart outside the
module that raises it.  Outside ``models.py``, which holds one card per model
kind, only a few lines test the kind.
"""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import domstab
from domstab import cli, fitting, report, stability

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


def test_importing_the_package_loads_no_submodule_and_no_numpy():
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    script = (
        "import sys, domstab\n"
        "print(sorted(m for m in sys.modules if m.startswith('domstab.') or m == 'numpy'))"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.stdout.strip() == "[]", proc.stdout + proc.stderr


def _defined_names_of(node: ast.stmt) -> set[str]:
    """Names one top-level definition or assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {t.id for t in targets if isinstance(t, ast.Name)}
    return set()


def _defined_names(path: Path) -> set[str]:
    """Names bound by a module's own top-level definitions and assignments."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return set().union(*map(_defined_names_of, tree.body))


def test_every_name_a_module_exports_is_defined_there():
    undefined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem not in ("__init__", "__main__"):
            exports = getattr(importlib.import_module(f"domstab.{path.stem}"), "__all__", None)
            if exports is not None:
                undefined[path.stem] = set(exports) - _defined_names(path)
    assert "models" in undefined
    assert {stem: names for stem, names in undefined.items() if names} == {}


# Paper quantities and library names kept public with no caller in src or
# bench, each with the reason it stays.
UNCALLED_EXPORTS = {
    ("metrics", "mean_crowding"):
        "the paper's named quantity, Lloyd's index; callers read the CommunityStats field",
    ("metrics", "community_dominance"):
        "the paper's scalar D_com, the reference the dominance kernel is tested against",
    ("metrics", "species_dominance_distance"):
        "the paper's scalar species distance, a reference of the kernel",
    ("metrics", "species_dominance"):
        "the paper's scalar species dominance, a reference of the kernel",
    ("metrics", "simpson_identity_residual"):
        "the paper's Simpson linearity identity, checked by the acceptance tests",
    ("stability", "species_stability"):
        "the paper's per-species stability series, library API",
}


def _references(path: Path, module: str | None) -> set[tuple[str, str]]:
    """(module, name) of every domstab name that ``path``'s code reads: a
    bare name of its own ``module`` outside that name's top-level
    definition, a name it imports from a domstab module, or an attribute
    of a domstab module it imports."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("domstab")):
            source = (node.module or "").removeprefix("domstab").lstrip(".")
            for alias in node.names:
                if source:
                    names[alias.asname or alias.name] = (source, alias.name)
                else:
                    modules[alias.asname or alias.name] = alias.name
    seen = set()
    for statement in tree.body:
        defined = _defined_names_of(statement)
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in names:
                    seen.add(names[node.id])
                elif module is not None and node.id not in defined:
                    seen.add((module, node.id))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                seen.add((modules[node.value.id], node.attr))
    return seen


def test_every_exported_name_has_a_caller():
    """A name in a module's ``__all__`` is read by code in ``src`` or
    ``bench`` outside its own definition, or it is one of
    ``UNCALLED_EXPORTS``; a public entry point that nothing calls is dead
    code or a second way to do one job."""
    seen = set()
    for path in sorted(PACKAGE.glob("*.py")):
        seen |= _references(path, path.stem)
    for path in sorted(SPANS.parent.glob("*.py")):
        seen |= _references(path, None)
    exported = {
        (path.stem, name)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem not in ("__init__", "__main__")
        for name in getattr(importlib.import_module(f"domstab.{path.stem}"), "__all__", ())
    }
    assert ("models", "evaluate_array") in seen and ("models", "slope") in seen
    assert exported - seen == set(UNCALLED_EXPORTS)


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


def _spans() -> tuple[ast.Module, set[str], list[tuple[str, str]]]:
    """``bench/spans.py`` parsed, the domstab modules it imports and every
    (module, attribute) pair it names."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "domstab"
        for alias in node.names
    }
    pairs = [pair for node in ast.walk(tree) if (pair := _pair(node, modules)) is not None]
    return tree, modules, pairs


def test_every_name_the_harness_wraps_exists():
    tree, modules, pairs = _spans()
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


def test_every_imported_name_is_used_or_wrapped_by_the_harness():
    """A name a module imports is used there, or it is one that
    ``bench/spans.py`` wraps on that module (the harness counts or times the
    calls made through it)."""
    wrapped = set(_spans()[2])
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused.update((path.stem, name) for name in names if name not in used)
    assert ("fitting", "evaluate_array") not in unused  # the linear fit calls it
    assert unused - wrapped == set()


def test_a_traced_cohort_run_writes_the_untraced_files(tmp_path, cohort_path, monkeypatch):
    """``spans.install`` runs ``report-all --plot`` through every wrapper,
    whose attribute reads succeed, and puts every name back afterwards."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "spans", spans)  # dataclasses look their module up
    spec.loader.exec_module(spans)
    modules = (cli, fitting, report, stability)
    before = [dict(vars(module)) for module in modules]
    argv = ["report-all", "--input", str(cohort_path), "--plot", "--out"]
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    assert cli.main([*argv, str(plain)]) == 0
    with spans.install(spans.Tracer()) as tracer:
        assert cli.main([*argv, str(traced)]) == 0
    # the spans whose wrappers read attributes of a result
    assert {"fitting.linear", "selection.select", "selection.validate", "dynamics.iterate",
            "ingest.parse_table", "ingest.filter_low_reads",
            "stability.community_stability"} <= {span.name for span in tracer.spans}
    for module, old in zip(modules, before):
        assert {k: v for k, v in vars(module).items() if v is not old.get(k)} == {}
    assert sorted(p.name for p in traced.iterdir()) == sorted(p.name for p in plain.iterdir())
    for path in plain.iterdir():
        assert (traced / path.name).read_bytes() == path.read_bytes(), path.name


def _named(node: ast.AST) -> str | None:
    """The class a ``raise`` or ``except`` names, bare or as ``module.Name``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _error_sites() -> tuple[set[str], dict[str, set[str]], dict[str, set[str]]]:
    """The error classes other than ``DomstabError``, and for each the
    modules that raise it and the modules whose ``except`` clauses name it,
    alone or in a tuple."""
    classes = set(importlib.import_module("domstab.errors").__all__) - {"DomstabError"}
    raised, caught = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                names, sites = [_named(node.exc)], raised
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                names, sites = [_named(t) for t in types], caught
            else:
                continue
            for name in classes.intersection(names):
                sites.setdefault(name, set()).add(path.stem)
    return classes, raised, caught


def test_no_error_class_is_raised_and_caught_in_one_module_only():
    """An error class exists only where code tells it apart.  One that a
    single module both raises and catches is control flow inside it, which a
    returned value can carry.  ``DomstabError``, the base every boundary
    catches, is exempt."""
    _, raised, caught = _error_sites()
    assert caught["DivergenceError"] == {"report"} and "dynamics" in raised["DivergenceError"]
    local = {name for name, where in caught.items() if len(where | raised.get(name, set())) == 1}
    assert local == set()


def test_every_error_class_is_caught_somewhere():
    """A class that no ``except`` clause names is told apart by no code: its
    raise sites can raise the class it derives from.  ``DomstabError``, the
    base every boundary catches, is exempt."""
    classes, _, caught = _error_sites()
    assert caught["InputError"] == {"cli"}
    assert classes - set(caught) == set()


# A line that tests a model kind: ``is (not) ModelKind.X``, ``.piecewise``,
# ``.logistic_family`` or ``ModelKind.X (not) in``.
KIND_TEST = re.compile(r"\bis\s+(?:not\s+)?ModelKind\.\w+|\.piecewise\b|\.logistic_family\b"
                       r"|\bModelKind\.\w+\s+(?:not\s+)?in\b")
# The lines that may: the fit routing and the logistic batch's guard
# (fitting, three lines), the split of the logistic kinds into one batch
# (report, two) and the linear-only resilience (dynamics, report).
KIND_TEST_BUDGET = 7


def test_kind_tests_outside_models_stay_in_budget():
    """What a caller asks of a model kind is on its card in ``models.py``;
    a new per-kind branch elsewhere goes on the card instead."""
    sites = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "models.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if KIND_TEST.search(line)
    ]
    assert len(sites) <= KIND_TEST_BUDGET, "\n".join(sites)
