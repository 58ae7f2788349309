"""Three standard-library AST scans of the package's modules.

- Every name a module imports is used in that module: an imported name
  counts as used when it is read anywhere in the module, also inside a
  quoted annotation.
- Only geometry.py imports fractions: the exact coordinate form is its
  Grid, and no other module holds a Fraction.
- Every assert states an internal invariant, never an input check (those
  vanish under python -O): a "# Internal invariant:" comment sits within
  the three lines above it.  PlanarizedDrawing.validate, which only tests
  call, is exempt."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "planeinsert"


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    out: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    annotations: list[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, ast.FunctionDef) and node.returns:
            annotations.append(node.returns)
    for annotation in annotations:
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names |= used_names(ast.parse(sub.value, mode="eval"))
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return sorted(f"{name} (line {line})"
                  for name, line in imported_names(tree).items()
                  if name not in used)


def test_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "from typing import Iterable, Sequence\n"
              "def f(x: 'Sequence[int]') -> int:\n"
              "    return np.size(x)\n")
    assert unused_imports(source) == ["Iterable (line 3)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def imported_modules(tree: ast.Module) -> set[str]:
    """The top-level package of every module an import names."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            out.add(node.module.split(".")[0])
    return out


def test_only_geometry_imports_fractions():
    assert imported_modules(ast.parse("import fractions as fr\n")) == {
        "fractions"}
    assert sorted(path.name for path in SRC.glob("*.py")
                  if "fractions" in imported_modules(
                      ast.parse(path.read_text()))) == ["geometry.py"]


INVARIANT = "# Internal invariant:"
EXEMPT = {"PlanarizedDrawing.validate"}


def unlabelled_asserts(source: str) -> list[str]:
    """The qualified name and line of each assert outside EXEMPT with no
    INVARIANT comment within the three lines above it."""
    lines = source.splitlines()
    out: list[str] = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                visit(child, (*scope, child.name))
                continue
            if isinstance(child, ast.Assert):
                name = ".".join(scope) or "<module>"
                above = lines[max(child.lineno - 4, 0):child.lineno - 1]
                if name not in EXEMPT and not any(
                        INVARIANT in line for line in above):
                    out.append(f"{name} (line {child.lineno})")
            visit(child, scope)

    visit(ast.parse(source), ())
    return out


def test_scan_finds_an_unlabelled_assert():
    source = ("def f(x):\n"
              "    # Internal invariant: callers pass a list.\n"
              "    assert isinstance(x, list)\n"
              "    y = len(x)\n"
              "    z = y + 1\n"
              "    assert z\n"
              "class PlanarizedDrawing:\n"
              "    def validate(self):\n"
              "        assert self\n")
    assert unlabelled_asserts(source) == ["f (line 6)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_assert_is_a_labelled_invariant(path):
    assert unlabelled_asserts(path.read_text()) == []
