"""Compiling monotone rectilinear 3-SAT formulas into insertion instances.

Only the crossing budget k = 1 is built; any other k raises ``KNotOne``.
The construction lives on a layered integer grid.  Variables sit on layer
0 as chains of grid-with-poles blocks ("plus blocks"); clauses sit above
the axis when positive, below when negative, on grid layers 2, 3, ...:
one per distinct formula layer on their side, in the same order, so the
size of a compiled instance does not grow with the layer values.  The two
layers adjacent to the axis stay empty.  Truth values travel along
vertical literal-edge columns; a variable is true exactly when its
downward literal edges are crossed.  The paper's construction for k >= 2
adds (k-1)x(k-1) grids and lane edges that give every literal edge k-1
forced crossings; those are not built here.

At each variable side one sort orders the clause legs: clauses ending or
lying wholly there by increasing layer, the one passing through, those
starting there by decreasing layer.  This is the planarity order of planar
rectilinear 3-SAT; ``_layout`` shows that these slots lose no layout.

Geometry is exact: joints at integer positions, block internals at
integers on the 1/24 grid, rotations derived by exact angular sorting, so
every compiled instance passes the straight-line non-crossing validation.
"""

from __future__ import annotations

import itertools
import json
import operator
from collections import defaultdict
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    InvalidArgument,
    InvalidFormula,
    KNotOne,
    LayoutInfeasible,
    SchemaError,
    StructureMismatch,
)
from .geometry import Grid, angular_order, check_coords
from .instance_io import Instance, _load_json, make_instance
from .plane_graph import _int_arg, build_from_rotation


# --- formulas ----------------------------------------------------------------


@dataclass(frozen=True)
class Clause:
    polarity: str          # "pos" | "neg"
    layer: int             # magnitude, >= 2
    literals: tuple[int, ...]  # 1..3 variable indices, repeats allowed


@dataclass(frozen=True)
class MonotoneFormula:
    variables: int
    clauses: tuple[Clause, ...]
    order: tuple[int, ...]  # left-to-right variable order

    def legs(self, c: Clause) -> tuple[int, ...]:
        """Pad to three legs by repeating the last literal."""
        lits = list(c.literals)
        while len(lits) < 3:
            lits.append(lits[-1])
        return tuple(lits)


def validate_formula(f: MonotoneFormula) -> None:
    """Raise InvalidFormula unless the counts, the order, the layers and
    the literals are exact ints in range (a bool is not one)."""
    if type(f.variables) is not int or f.variables < 1:
        raise InvalidFormula("need at least one variable")
    # The length first: range(f.variables) is as long as the order only
    # then, however large the count.
    if (len(f.order) != f.variables
            or any(type(v) is not int for v in f.order)
            or sorted(f.order) != list(range(f.variables))):
        raise InvalidFormula("order must be a permutation of the variables")
    for c in f.clauses:
        if c.polarity not in ("pos", "neg"):
            raise InvalidFormula(f"bad polarity {c.polarity!r}")
        if type(c.layer) is not int or c.layer < 2:
            raise InvalidFormula("clause layers start at 2")
        if not (1 <= len(c.literals) <= 3):
            raise InvalidFormula("clauses carry 1..3 literals")
        for v in c.literals:
            if type(v) is not int or not (0 <= v < f.variables):
                raise InvalidFormula(f"literal {v!r} out of range")


def evaluate_formula(f: MonotoneFormula, assignment: list[bool]) -> bool:
    for c in f.clauses:
        want = c.polarity == "pos"
        if not any(assignment[v] == want for v in c.literals):
            return False
    return True


def formula_satisfiable(f: MonotoneFormula) -> bool:
    return any(evaluate_formula(f, [bool(bits >> v & 1)
                                    for v in range(f.variables)])
               for bits in range(1 << f.variables))


def parse_formula(text: str) -> MonotoneFormula:
    obj = _load_json(text)
    try:
        clauses = tuple(
            Clause(c["polarity"], c["layer"], tuple(c["literals"]))
            for c in obj["clauses"])
        f = MonotoneFormula(obj["variables"], clauses, tuple(obj["order"]))
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"formula schema: {exc}") from exc
    validate_formula(f)
    return f


def write_formula(f: MonotoneFormula) -> str:
    obj = {
        "variables": f.variables,
        "clauses": [{"polarity": c.polarity, "layer": c.layer,
                     "literals": list(c.literals)} for c in f.clauses],
        "order": list(f.order),
    }
    return json.dumps(obj, separators=(",", ":")) + "\n"


# --- gadget insertion edges ----------------------------------------------------


def _variable_f(a: int):
    """Insertion edges of a chain of 4a+1 plus blocks, as (joint-offset
    pair, role) along the walk u_{4i+1}, u_{4i+4}, u_{4i+3}, u_{4i+6},
    u_{4i+5} (last vertex of the final group omitted).  The 3-spanning
    edges are the literal blockers ("vblock") and the forcing edges
    ("vforce"); the 1-spanning edges link them ("vlink")."""
    for i in range(a):
        b = 4 * i
        yield (b, b + 3), "vblock"
        yield (b + 3, b + 2), "vlink"
        yield (b + 2, b + 5), "vforce"
        if i != a - 1:
            yield (b + 5, b + 4), "vlink"


# Clause edges e1..e5 as joint-index pairs along the walk p0, p2, p1, p5,
# p4, p6: two plus blocks, two plain edges, two more plus blocks, with legs
# at p1, p3 and p5.  e1, e3 and e5 block the literal legs.
_CLAUSE_F = ((0, 2), (2, 1), (1, 5), (5, 4), (4, 6))


# --- atlas ---------------------------------------------------------------------


@dataclass
class GadgetAtlas:
    clause_gadgets: list[dict] = field(default_factory=list)
    f_order: list[tuple[int, int]] = field(default_factory=list)
    vertex_tags: list[tuple] = field(default_factory=list)


# --- exact-geometry builder -----------------------------------------------------


# Builder positions are integers in steps of 1/GRID.  GRID = 8*(k + 2) for
# k = 1: a plus block's columns split its poles' joint spacing into k + 2
# parts and its rows sit at offsets (2*row - k)/8, so every point of the
# construction is a whole number of steps.
GRID = 24


class GeometryBuilder:
    """Vertices at integer positions on the 1/GRID grid; rotations from
    exact angular order."""

    def __init__(self):
        self.coords: list[tuple[int, int]] = []
        self.tags: list[tuple] = []
        self.adj: dict[int, list[int]] = defaultdict(list)
        self.edge_set: set[tuple[int, int]] = set()

    def vertex(self, x: int, y: int, tag: tuple) -> int:
        """A new vertex at (x/GRID, y/GRID).  Raises InvalidArgument unless
        x and y are integers (booleans are not)."""
        try:
            pos = (operator.index(x), operator.index(y))
        except TypeError:
            pos = None
        if pos is None or isinstance(x, bool) or isinstance(y, bool):
            raise InvalidArgument(
                f"vertex position ({x!r}, {y!r}) is not on the integer grid")
        self.coords.append(pos)
        self.tags.append(tag)
        return len(self.coords) - 1

    def edge(self, u: int, v: int) -> tuple[int, int]:
        if u == v:
            raise LayoutInfeasible(f"loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in self.edge_set:
            raise LayoutInfeasible(f"duplicate edge {key}")
        self.edge_set.add(key)
        self.adj[u].append(v)
        self.adj[v].append(u)
        return key

    def rotation(self) -> list[list[int]]:
        """Every vertex's neighbors in counterclockwise order from the
        positive x axis.  Raises LayoutInfeasible when two edges at a
        vertex point the same way."""
        rows = [self.adj[v] for v in range(len(self.coords))]
        lengths = list(map(len, rows))
        head = np.fromiter(itertools.chain.from_iterable(rows), np.int64,
                           sum(lengths))
        tail = np.repeat(np.arange(len(rows)), lengths)
        order, tied = angular_order(self.coords, tail, head)
        if tied:
            raise LayoutInfeasible("overlapping edge directions at a vertex")
        flat = head[order].tolist()
        ends = list(itertools.accumulate(lengths))
        return [flat[e - m:e] for e, m in zip(ends, lengths)]

    def plus_block(self, pole_a: int, pole_b: int, k: int,
                   perp=(0, 1)) -> None:
        """Grid between two existing poles; perp points to the grid's
        row-offset direction.  Raises LayoutInfeasible when the poles are
        not a multiple of k + 2 grid steps apart along each axis, where a
        column would fall off the grid."""
        ax, ay = self.coords[pole_a]
        bx, by = self.coords[pole_b]
        dx, dy = bx - ax, by - ay
        parts = k + 2
        if dx % parts or dy % parts:
            raise LayoutInfeasible(
                f"plus block between {pole_a} and {pole_b} is off the grid")
        px, py = perp
        grid: list[list[int]] = []
        for col in range(k + 1):
            cx = ax + dx * (col + 1) // parts
            cy = ay + dy * (col + 1) // parts
            column = []
            for row in range(k + 1):
                off = (2 * row - k) * GRID // 8
                column.append(self.vertex(cx + px * off, cy + py * off,
                                          ("plus_grid", pole_a, pole_b,
                                           col, row)))
            grid.append(column)
        for col in range(k + 1):
            for row in range(k + 1):
                if col + 1 <= k:
                    self.edge(grid[col][row], grid[col + 1][row])
                if row + 1 <= k:
                    self.edge(grid[col][row], grid[col][row + 1])
        for row in range(k + 1):
            self.edge(pole_a, grid[0][row])
            self.edge(pole_b, grid[k][row])

    def build_instance(self, F, k: int, f_structure: str,
                       validate: bool = True) -> Instance:
        """The instance, its coords the integer positions on the 1/GRID
        grid, checked when validate is set."""
        rot = self.rotation()
        graph = build_from_rotation(len(self.coords), rot)
        inst = make_instance(graph, F, k=k, f_structure=f_structure)
        grid = Grid(self.coords, GRID)
        if validate:
            check_coords(graph, grid)
        return replace(inst, coords=grid)


# --- layout ----------------------------------------------------------------------


@dataclass
class _Column:
    var: int
    side: int            # +1 above the axis, -1 below
    slot: int
    x: int
    clause: int | None   # clause index served, None for an unused slot
    top: int             # far grid layer magnitude (clause's, 1 if unused)
    leg: int | None      # leg ordinal 0..2 within the clause


@dataclass
class _Placement:
    clause: int
    side: int
    layer: int               # grid layer: 2 + rank of the formula layer
    legs: list[int]          # three column x positions, ascending
    p: list[int]             # seven joint positions p0..p6


@dataclass
class _Layout:
    width: int
    bases: list[int]
    a: list[int]
    columns: list[_Column]
    placements: list[_Placement]
    max_layer: dict[int, int]


def _occurrences(formula: MonotoneFormula):
    """Per (variable, side): list of (clause index, leg ordinal)."""
    occ: dict[tuple[int, int], list[tuple[int, int]]] = defaultdict(list)
    for ci, c in enumerate(formula.clauses):
        side = 1 if c.polarity == "pos" else -1
        for leg, v in enumerate(formula.legs(c)):
            occ[(v, side)].append((ci, leg))
    return occ


def _layout(formula: MonotoneFormula) -> _Layout:
    """Seat the clause legs, one sort per variable side, and check with one
    stack pass per side that the clauses nest like brackets; otherwise
    raise LayoutInfeasible naming the two clauses at fault.

    At each variable v the legs take slots 0, 1, ... in the leg order of
    the module docstring, a whole clause after the ending ones of its
    layer, a clause's legs adjacent in leg order, and unused slots last.
    Columns are at least 4 units apart, so a layout is valid exactly when
    each inner clause lies between two legs of an outer one of a higher
    layer.  That forces the order of all but the whole clauses: of two
    clauses ending at v the inner one is lower and has its legs first, of
    two starting there last, and a passing clause holds every other leg
    at v.  Where the sort puts a whole clause it lies only inside the
    clauses ending at v above its layer and those reaching across v,
    which hold it in every layout; adjacent legs only drop containments.
    So the sort finds a layout whenever any slot assignment does."""
    occ = _occurrences(formula)
    n = formula.variables
    a = [1] * n
    for (v, _), legs in occ.items():
        a[v] = max(a[v], len(legs))

    x = 0
    pos_of = {v: i for i, v in enumerate(formula.order)}
    bases = [0] * n
    for v in formula.order:
        bases[v] = x
        x += 4 * a[v] + 2
    width = x - 1  # drop the trailing link unit after the last gadget

    clauses = formula.clauses
    span = [(min(pos_of[v] for v in c.literals),
             max(pos_of[v] for v in c.literals)) for c in clauses]

    # Only the order of layers matters, so a clause is drawn on grid layer
    # 2 + the rank of its layer among the distinct layers on its side; the
    # sort and the stack pass compare, and name, the formula's own layers.
    row = {}
    for side, polarity in ((1, "pos"), (-1, "neg")):
        layers = sorted({c.layer for c in clauses if c.polarity == polarity})
        row.update(((side, layer), 2 + r) for r, layer in enumerate(layers))

    def rank(p: int, ci: int, leg: int) -> tuple:
        lo, hi = span[ci]
        if p == hi:
            return (0, clauses[ci].layer, lo == hi, ci, leg)
        if p > lo:
            return (1, ci, leg)
        return (2, -clauses[ci].layer, ci, leg)

    columns: list[_Column] = []
    placements: list[_Placement] = [None] * len(clauses)
    max_layer = {1: 1, -1: 1}
    open_on = {1: [], -1: []}  # clauses opened and not closed, inner last
    for v, side in sorted(occ, key=lambda kv: (pos_of[kv[0]], kv[1])):
        seated = sorted(occ[(v, side)], key=lambda cl: rank(pos_of[v], *cl))
        slot = {cl: j for j, cl in enumerate(seated)}
        for ci, leg in occ[(v, side)]:
            j = slot[(ci, leg)]
            columns.append(_Column(v, side, j, bases[v] + 4 * j + 2, ci,
                                   row[(side, clauses[ci].layer)], leg))
        stack = open_on[side]
        for j, (ci, _) in enumerate(seated):
            pl, layer = placements[ci], clauses[ci].layer
            if pl is None:  # the clause's first leg opens it
                outer = clauses[stack[-1]].layer if stack else layer + 1
                if outer <= layer:
                    raise LayoutInfeasible(
                        f"clause {ci} (layer {layer}) cannot nest inside "
                        f"clause {stack[-1]} (layer {outer})")
                stack.append(ci)
                pl = placements[ci] = _Placement(ci, side,
                                                 row[(side, layer)], [], [])
            elif stack[-1] != ci:
                raise LayoutInfeasible(
                    f"clause {stack[-1]} lies across a leg of clause {ci}")
            pl.legs.append(bases[v] + 4 * j + 2)
            if len(pl.legs) == 3:  # and its third closes it
                stack.pop()
                l0, l1, l2 = pl.legs
                pl.p = [l0 - 1, l0, (l0 + l1) // 2, l1, (l1 + l2) // 2, l2,
                        l2 + 1]
                max_layer[side] = max(max_layer[side], pl.layer)
    return _Layout(width, bases, a, columns, placements, max_layer)


# --- compile ------------------------------------------------------------------------


def compile_formula(formula: MonotoneFormula, k: int = 1,
                    variant: str = "path",
                    validate: bool = True) -> tuple[Instance, GadgetAtlas]:
    """Build the full insertion instance (and its atlas) for a formula."""
    validate_formula(formula)
    if variant not in ("path", "matching"):
        raise StructureMismatch(f"unknown variant {variant!r}")
    if _int_arg("k", k) != 1:
        raise KNotOne(f"the compiler builds k = 1 only, not k={k!r}")
    lay = _layout(formula)
    b = GeometryBuilder()
    atlas = GadgetAtlas()
    W = lay.width
    signed_layers = list(range(-lay.max_layer[-1], lay.max_layer[1] + 1))

    placements_at: dict[int, list[_Placement]] = defaultdict(list)
    for pl in lay.placements:
        placements_at[pl.side * pl.layer].append(pl)

    # Columns crossing each signed layer strictly between axis and clause.
    crossing: dict[int, list[_Column]] = defaultdict(list)
    for col in lay.columns:
        for j in range(1, col.top):
            crossing[col.side * j].append(col)

    joints: dict[tuple[int, int], int] = {}

    for layer in signed_layers:
        body_cover: dict[int, _Placement] = {}
        xs = set(range(W + 1))
        for pl in placements_at.get(layer, ()):  # carve out body interiors
            for x_ in range(pl.p[0] + 1, pl.p[6]):
                xs.discard(x_)
            xs.update(pl.p)
            for x_ in pl.p:
                body_cover[x_] = pl
        ordered = sorted(xs)
        for x_ in ordered:
            joints[(layer, x_)] = b.vertex(x_ * GRID, layer * GRID,
                                           ("joint", layer, x_))
        for i in range(len(ordered) - 1):
            x1, x2 = ordered[i], ordered[i + 1]
            va, vb = joints[(layer, x1)], joints[(layer, x2)]
            pl = body_cover.get(x1)
            if pl is not None and x1 in (pl.p[2], pl.p[3]) and x2 in (
                    pl.p[3], pl.p[4]):
                b.edge(va, vb)  # the clause body's two plain edges
            else:
                b.plus_block(va, vb, k)

    atlas.clause_gadgets = [{
        "clause": pl.clause, "side": pl.side, "layer": pl.layer,
        "p": [joints[(pl.side * pl.layer, x_)] for x_ in pl.p],
        "p_x": list(pl.p), "legs": list(pl.legs)} for pl in lay.placements]

    # Literal edge columns, from the axis up to the clause's layer.
    for col in lay.columns:
        chain = [joints[(col.side * j, col.x)] for j in range(col.top + 1)]
        for aee, bee in zip(chain, chain[1:]):
            b.edge(aee, bee)

    # Vertical connectors and ties between consecutive layers.
    connectors: list[tuple[int, int]] = []
    for i in range(len(signed_layers) - 1):
        low, high = signed_layers[i], signed_layers[i + 1]
        snake_right = i % 2 == 0
        end = W if snake_right else 0
        other = 0 if snake_right else W
        pa, pb = joints[(low, end)], joints[(high, end)]
        if variant == "path":
            b.plus_block(pa, pb, k, perp=(1, 0))
        else:
            b.edge(pa, pb)
        b.edge(joints[(low, other)], joints[(high, other)])  # tie
        connectors.append((pa, pb))

    # --- assemble F --------------------------------------------------------

    fpairs: list[tuple[int, int]] = []

    def layer_edges(layer: int) -> list[tuple[int, int]]:
        """Layer subpath, left to right."""
        out = []
        if layer == 0:
            for v in formula.order:
                base = lay.bases[v]
                for (o1, o2), role in _variable_f(lay.a[v]):
                    if role == "vlink" and variant == "matching":
                        continue
                    out.append((joints[(0, base + o1)],
                                joints[(0, base + o2)]))
                end = base + 4 * lay.a[v] + 1
                if end < W and variant == "path":
                    out.append((joints[(0, end)], joints[(0, end + 1)]))
            return out
        bodies = {pl.p[0]: pl for pl in placements_at.get(layer, ())}
        twospan = {c.x for c in crossing.get(layer, ())}
        cur = 0
        while cur < W:
            pl = bodies.get(cur)
            if pl is not None:
                for ei, (o1, o2) in enumerate(_CLAUSE_F):
                    if ei in (1, 3) and variant == "matching":
                        continue
                    out.append((joints[(layer, pl.p[o1])],
                                joints[(layer, pl.p[o2])]))
                cur = pl.p[6]
            elif cur + 1 in twospan:
                out.append((joints[(layer, cur)], joints[(layer, cur + 2)]))
                cur += 2
            else:
                if variant == "path":
                    out.append((joints[(layer, cur)],
                                joints[(layer, cur + 1)]))
                cur += 1
        return out

    for i, layer in enumerate(signed_layers):
        edges = layer_edges(layer)
        if i % 2 == 1:
            edges = [(vv, uu) for uu, vv in reversed(edges)]
        fpairs += edges
        if i < len(signed_layers) - 1 and variant == "path":
            fpairs.append(connectors[i])

    atlas.f_order = list(fpairs)
    atlas.vertex_tags = list(b.tags)

    inst = b.build_instance(fpairs, k, f_structure=variant,
                            validate=validate)
    return inst, atlas

