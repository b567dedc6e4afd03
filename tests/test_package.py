"""The package's public surface: its submodules are reachable as attributes,
and every name it exports has a caller in src or bench, or is documented
in the README."""

import ast
import importlib
import inspect
import re
import sys
from pathlib import Path

import pytest

import certsurv

PKG = Path(certsurv.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p.stem for p in PKG.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_submodule_is_package_attribute(name):
    module = importlib.import_module(f"certsurv.{name}")
    assert getattr(certsurv, name) is module is sys.modules[f"certsurv.{name}"]


def _uses(tree) -> set[str]:
    """Names that a Name or Attribute node of `tree` uses outside the
    function or class that defines that name."""
    used = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            enclosing = enclosing | {node.name}
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else None)
        if name is not None and name not in enclosing:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return used


def _span_names(tree) -> set[str]:
    """Every string in the `SPANS = ...` assignment of `tree`."""
    return {node.value
            for stmt in tree.body if isinstance(stmt, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "SPANS"
                    for t in stmt.targets)
            for node in ast.walk(stmt.value)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def _parse(path: Path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_every_export_has_a_caller_or_readme_entry():
    allowed = set()
    for path in PKG.glob("*.py"):
        if path.name != "__init__.py":
            allowed |= _uses(_parse(path))
    for path in (ROOT / "bench").glob("*.py"):
        allowed |= _uses(_parse(path))
    allowed |= _span_names(_parse(ROOT / "bench" / "tracer.py"))
    allowed |= set(re.findall(r"\w+", (ROOT / "README.md").read_text(
        encoding="utf-8")))
    exported = [name for name in certsurv.__all__
                if not inspect.ismodule(getattr(certsurv, name))]
    assert exported
    assert sorted(set(exported) - allowed) == []


def test_every_definition_in_src_has_a_caller_or_readme_entry():
    """`src/` holds only what the program runs: each function or class at
    the top of a module has a caller in src or bench, a bench span or a
    README entry, so no code in src is called by tests alone."""
    allowed = set()
    for path in (*PKG.glob("*.py"), *(ROOT / "bench").glob("*.py")):
        allowed |= _uses(_parse(path))
    allowed |= _span_names(_parse(ROOT / "bench" / "tracer.py"))
    allowed |= set(re.findall(r"\w+", (ROOT / "README.md").read_text(
        encoding="utf-8")))
    uncalled = [f"{path.stem}.{node.name}" for path in PKG.glob("*.py")
                for node in _parse(path).body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef))
                and node.name not in allowed]
    assert sorted(uncalled) == []
