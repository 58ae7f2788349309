"""Four standard-library AST scans of the package's modules.

- Every name a module imports is used in that module: an imported name
  counts as used when it is read anywhere in the module, also inside a
  quoted annotation.
- Only geometry.py imports fractions: the exact coordinate form is its
  Grid, and no other module holds a Fraction.
- Every assert states an internal invariant, never an input check (those
  vanish under python -O): a "# Internal invariant:" comment sits within
  the three lines above it.  PlanarizedDrawing.validate, which only tests
  call, is exempt.
- No module calls np.unique: its hash path measured about 20x slower than
  a sort on dart codes (see NO_UNIQUE)."""

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


NO_UNIQUE = (
    "np.unique's hash path took 1.33-1.42 ms on 11,988 int64 codes (the "
    "darts of the 1,100-route benchmark certificate), where np.sort took "
    "0.066-0.069 ms (numpy 2.4.6, Python 3.11, 2-core Xeon); sort and "
    "compare neighbours, as tri_insert._distinct does")


def unique_calls(source: str) -> list[str]:
    """The line of each call of an attribute named unique on np or numpy,
    or of a bare unique imported from numpy."""
    tree = ast.parse(source)
    bare = {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "numpy"
            for alias in node.names if alias.name == "unique"}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if (isinstance(f, ast.Attribute) and f.attr == "unique"
                and isinstance(f.value, ast.Name)
                and f.value.id in ("np", "numpy")
                or isinstance(f, ast.Name) and f.id in bare):
            out.append(f"line {node.lineno}")
    return out


def test_scan_finds_a_unique_call():
    source = ("import numpy as np\n"
              "from numpy import unique as u\n"
              "a = np.unique([2, 1])\n"
              "b = np.sort([2, 1])\n"
              "c = u(b)\n"
              "d = {1}.union({2})\n")
    assert unique_calls(source) == ["line 3", "line 5"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unique_call(path):
    assert unique_calls(path.read_text()) == [], NO_UNIQUE
