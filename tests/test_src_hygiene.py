"""Six standard-library AST scans of the package's modules.

- Every name a module imports is used in that module: an imported name
  counts as used when it is read anywhere in the module, also inside a
  quoted annotation.
- Only geometry.py imports fractions: the exact coordinate form is its
  Grid, and no other module holds a Fraction.
- Every assert states an internal invariant, never an input check (those
  vanish under python -O): a "# Internal invariant:" comment sits within
  the three lines above it.  No function is exempt.
- No module calls np.unique: its hash path measured about 20x slower than
  a sort on dart codes (see NO_UNIQUE).
- No dangling entry points: every function, class and method is read by
  the package or the benchmark, or is listed in ENTRY_POINTS (see
  unread_names).
- No unread graph table: every table PlaneGraph keeps is read by the
  package outside its constructor, and not only for its length (see
  unread_slots)."""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "planeinsert"
BENCH = ROOT / "bench"


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


def unlabelled_asserts(source: str) -> list[str]:
    """The qualified name and line of each assert with no INVARIANT
    comment within the three lines above it."""
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
                if not any(INVARIANT in line for line in above):
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
    assert unlabelled_asserts(source) == [
        "f (line 6)", "PlanarizedDrawing.validate (line 9)"]


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


# Public names that no package module and no benchmark file reads, kept on
# purpose.
ENTRY_POINTS = {
    "instance_io.render_svg": "draws an answer; the CLI's render "
                              "(ROADMAP item 10)",
    "oracle.exact_solve_general": "the exact oracle for any k (ROADMAP "
                                  "items 7, 8 and 15)",
    "oracle.iter_solutions": "every joint realization, for gadget lemmas "
                             "(ROADMAP items 8 and 9)",
    "plane_graph.sample_complement_edges": "seeded matching and path F; "
                                           "the CLI's generate (item 10)",
    "reduction.parse_formula": "reads a formula's JSON; the CLI's compile "
                               "(ROADMAP item 10)",
    "reduction.formula_satisfiable": "brute-force truth of a formula "
                                     "(ROADMAP item 8)",
    "twosat.TwoSatFormula.add_clause": "tests/reducer_reference.py builds "
                                       "its own formula with it",
    "twosat.TwoSatFormula.evaluate": "tests/reducer_reference.py checks "
                                     "its own formula with it",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def read_names(node: ast.AST, skip: list[ast.AST]) -> set[str]:
    """The names node reads outside the subtrees in skip: loaded names,
    loaded attributes, and strings that are identifiers (getattr and
    setattr take names as strings)."""
    names: set[str] = set()
    stack = [c for c in ast.iter_child_nodes(node) if c not in skip]
    while stack:
        sub = stack.pop()
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names.add(sub.attr)
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and sub.value.isidentifier()):
            names.add(sub.value)
        stack.extend(c for c in ast.iter_child_nodes(sub) if c not in skip)
    return names


def regions(module: str, source: str
            ) -> Iterator[tuple[tuple[str, ...], set[str]]]:
    """One (qualified names of the definitions it lies in, names read)
    per region of a module: the module outside its top-level definitions,
    each top-level function or class outside its methods, and each method
    of a top-level class."""
    tree = ast.parse(source)
    tops = [n for n in tree.body if isinstance(n, _DEFS)]
    yield (), read_names(tree, tops)
    for top in tops:
        q = f"{module}.{top.name}"
        subs = ([n for n in top.body if isinstance(n, _DEFS)]
                if isinstance(top, ast.ClassDef) else [])
        yield (q,), read_names(top, subs)
        for sub in subs:
            yield (q, f"{q}.{sub.name}"), read_names(sub, [])


def unread_names(package: dict[str, str], readers: list[str],
                 roots=()) -> list[str]:
    """The functions, classes and methods of the package's modules (name to
    source) that nothing reads, but for roots, which count as read.

    A definition is read when its name is read outside its own body, in a
    package module or in one of the reader sources.  Dunder methods are
    always read.  The scan runs to a fixpoint: the bodies of definitions
    already found unread are ignored, so a name read only from unread code
    is found too.

    It matches by name alone, and it scans definitions, not attributes.
    So it could not see PlaneGraph.tail and twin, ClashGraph.degree and
    PlanarizedDrawing.validate, whose names other code reads, nor the
    unread attribute PlaneGraph.outer_face; those were deleted by hand."""
    regs = [r for module, source in package.items()
            for r in regions(module, source)]
    regs += [((), names) for source in readers
             for _, names in regions("", source)]
    nodes = {inside[-1] for inside, _ in regs if inside} - set(roots)
    nodes = {q for q in nodes if not q.rsplit(".", 1)[1].startswith("__")}
    unread: set[str] = set()
    while True:
        found = {q for q in nodes
                 if not any(q.rsplit(".", 1)[1] in names
                            for inside, names in regs
                            if q not in inside
                            and unread.isdisjoint(inside))}
        if found == unread:
            return sorted(unread)
        unread = found


def test_scan_finds_unread_names():
    package = {
        "m": ("class A:\n"
              "    def __init__(self):\n"
              "        self.used()\n"
              "    def used(self):\n"
              "        return helper()\n"
              "    def alone(self):\n"
              "        return self.alone()\n"
              "def helper():\n"
              "    return Chained()\n"
              "def dead():\n"
              "    return chained_only()\n"
              "def chained_only():\n"
              "    return 1\n"
              "class Chained:\n"
              "    pass\n"
              "def kept():\n"
              "    return chained_only()\n"),
    }
    readers = ["from m import A\nA()\ngetattr(A, 'used')\n"]
    assert unread_names(package, readers) == [
        "m.A.alone", "m.chained_only", "m.dead", "m.kept"]
    assert unread_names(package, readers, roots=["m.kept"]) == [
        "m.A.alone", "m.dead"]


def test_no_dangling_entry_points():
    package = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    readers = [p.read_text() for p in sorted(BENCH.glob("**/*.py"))]
    assert unread_names(package, readers, ENTRY_POINTS) == []
    # Every listed entry point is still unread without the list.
    assert set(ENTRY_POINTS) <= set(unread_names(package, readers))


def slot_reads(tree: ast.AST) -> set[str]:
    """The names read as an attribute ._name or as table("name") (giving
    _name), outside PlaneGraph.__init__ and other than as len's argument."""
    skip: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "PlaneGraph":
            skip.update(id(sub) for f in node.body
                        if isinstance(f, ast.FunctionDef)
                        and f.name == "__init__" for sub in ast.walk(f))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "len"):
            skip.update(map(id, node.args))
    out: set[str] = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "table" and node.args
              and isinstance(node.args[0], ast.Constant)
              and isinstance(node.args[0].value, str)):
            out.add("_" + node.args[0].value)
    return out


def unread_slots(package: dict[str, str]) -> list[str]:
    """The underscore slots of PlaneGraph, a class of one of the package's
    modules (name to source), that no module reads as slot_reads counts."""
    trees = [ast.parse(source) for source in package.values()]
    slots = {elt.value for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef) and node.name == "PlaneGraph"
             for stmt in node.body if isinstance(stmt, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "__slots__"
                     for t in stmt.targets)
             for elt in stmt.value.elts if elt.value.startswith("_")}
    assert slots, "no PlaneGraph.__slots__ found"
    return sorted(slots - set().union(*map(slot_reads, trees)))


def test_scan_finds_unread_slots():
    package = {
        "m": ("class PlaneGraph:\n"
              "    __slots__ = ('count', '_a', '_b', '_c', '_d')\n"
              "    def __init__(self, a, b, c, d):\n"
              "        self._a, self._b, self._c, self._d = a, b, c, d\n"
              "        self.count = len(self._d) + self._d[0]\n"
              "    def first(self):\n"
              "        return self._a[0]\n"),
        "n": ("def size(g):\n"
              "    return len(g._c) + len(g.table('c'))\n"
              "def view(g):\n"
              "    return g.table('b')\n"),
    }
    assert unread_slots(package) == ["_c", "_d"]


def test_every_graph_table_is_read():
    package = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread_slots(package) == []
