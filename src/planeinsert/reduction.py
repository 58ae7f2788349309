"""Compiling monotone rectilinear 3-SAT formulas into insertion instances.

The construction lives on a layered integer grid.  Variables sit on layer
0 as chains of grid-with-poles blocks ("plus blocks"); clauses sit on
layer >= 2 above the axis when positive, below when negative; the two
layers adjacent to the axis stay empty.  Truth values travel along
vertical literal-edge columns; a variable is true exactly when its
downward literal edges are crossed.  For budget k the construction also
carries (k-1)x(k-1) grids ("minus blocks") and lane edges giving every
literal edge k-1 forced crossings; at k = 1 those vanish.

Geometry is exact: joints at integer positions, block internals at small
fractions, rotations derived by exact angular sorting, so every compiled
instance passes the straight-line non-crossing validation.
"""

from __future__ import annotations

import functools
import itertools
import json
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    AssignmentDoesNotSatisfy,
    InvalidFormula,
    LayoutInfeasible,
    SchemaError,
)
from .geometry import angle_cmp, scale_to_integers
from .instance_io import CrossingEvent, Instance, Route, Solution, make_instance
from .plane_graph import build_from_rotation

HALF = Fraction(1, 2)


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
    if f.variables < 1:
        raise InvalidFormula("need at least one variable")
    if sorted(f.order) != list(range(f.variables)):
        raise InvalidFormula("order must be a permutation of the variables")
    for c in f.clauses:
        if c.polarity not in ("pos", "neg"):
            raise InvalidFormula(f"bad polarity {c.polarity!r}")
        if not isinstance(c.layer, int) or c.layer < 2:
            raise InvalidFormula("clause layers start at 2")
        if not (1 <= len(c.literals) <= 3):
            raise InvalidFormula("clauses carry 1..3 literals")
        for v in c.literals:
            if not (0 <= v < f.variables):
                raise InvalidFormula(f"literal {v} out of range")


def evaluate_formula(f: MonotoneFormula, assignment: list[bool]) -> bool:
    for c in f.clauses:
        want = c.polarity == "pos"
        if not any(assignment[v] == want for v in c.literals):
            return False
    return True


def formula_satisfiable(f: MonotoneFormula) -> bool:
    return any(evaluate_formula(f, list(bits))
               for bits in itertools.product([False, True],
                                             repeat=f.variables))


def parse_formula(text: str) -> MonotoneFormula:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"bad JSON: {exc}") from exc
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


# --- gadget shape descriptions -------------------------------------------------


@dataclass(frozen=True)
class PlusBlockShape:
    """One (k+1)x(k+1) grid with a pole fanned to each vertical side."""

    k: int

    @property
    def grid_vertices(self) -> int:
        return (self.k + 1) ** 2

    @property
    def vertices(self) -> int:
        return self.grid_vertices + 2

    @property
    def grid_edges(self) -> int:
        return 2 * self.k * (self.k + 1)

    @property
    def fan_edges(self) -> int:
        return 2 * (self.k + 1)


def build_hplus(k: int) -> PlusBlockShape:
    if k < 1:
        raise ValueError("k >= 1")
    return PlusBlockShape(k)


@dataclass(frozen=True)
class MinusBlockShape:
    """(k-1)x(k-1) grid; the empty block at k = 1."""

    k: int

    @property
    def vertices(self) -> int:
        return (self.k - 1) ** 2

    @property
    def grid_edges(self) -> int:
        m = self.k - 1
        return 2 * m * (m - 1) if m else 0


def build_hminus(k: int) -> MinusBlockShape:
    if k < 1:
        raise ValueError("k >= 1")
    return MinusBlockShape(k)


@dataclass(frozen=True)
class VariableGadgetPlan:
    """Chain of 4a+1 plus blocks with alternating 3- and 1-spanning edges."""

    a: int
    k: int

    @property
    def copies(self) -> int:
        return 4 * self.a + 1

    @property
    def joints(self) -> int:
        return self.copies + 1

    def endpoint_offsets(self) -> list[int]:
        """Joint offsets (0-based) of the variable endpoints u_{4i+3}."""
        return [4 * i + 2 for i in range(self.a)]

    def f_pattern(self) -> list[tuple[int, int]]:
        """Insertion edges as joint-offset pairs along the walk
        u_{4i+1}, u_{4i+4}, u_{4i+3}, u_{4i+6}, u_{4i+5} (last vertex of the
        final group omitted)."""
        out = []
        for i in range(self.a):
            b = 4 * i
            out.append((b, b + 3))
            out.append((b + 3, b + 2))
            out.append((b + 2, b + 5))
            if i != self.a - 1:
                out.append((b + 5, b + 4))
        return out

    def blocker_offsets(self) -> list[tuple[int, int]]:
        return [(4 * i, 4 * i + 3) for i in range(self.a)]

    def forcing_offsets(self) -> list[tuple[int, int]]:
        return [(4 * i + 2, 4 * i + 5) for i in range(self.a)]

    def minus_block_positions(self) -> list[int]:
        """Block positions (1-based copy index 4i+2) carrying a minus block
        above and below; empty at k = 1."""
        if self.k == 1:
            return []
        return [4 * i + 2 for i in range(self.a)]


def build_variable_gadget(a: int, k: int) -> VariableGadgetPlan:
    if a < 1 or k < 1:
        raise ValueError("a >= 1 and k >= 1")
    return VariableGadgetPlan(a, k)


@dataclass(frozen=True)
class ClauseGadgetPlan:
    """Two plus blocks, two plain edges, two more plus blocks; legs at the
    block-pair middles and at the shared vertex of the plain edges."""

    k: int

    @property
    def joint_count(self) -> int:
        return 7  # p0..p6

    def unit_types(self) -> list[str]:
        return ["copy", "copy", "edge", "edge", "copy", "copy"]

    def leg_joints(self) -> list[int]:
        return [1, 3, 5]

    def f_pattern(self) -> list[tuple[int, int]]:
        """Edges e1..e5 along the walk p0, p2, p1, p5, p4, p6."""
        return [(0, 2), (2, 1), (1, 5), (5, 4), (4, 6)]

    def blocker_indices(self) -> list[int]:
        """Positions of e1, e3, e5 in f_pattern (the literal blockers)."""
        return [0, 2, 4]

    def minus_blocks(self) -> tuple[int, int]:
        """(top, bottom) minus-block counts; zero size at k = 1."""
        return (3, 2)


def build_clause_gadget(k: int) -> ClauseGadgetPlan:
    if k < 1:
        raise ValueError("k >= 1")
    return ClauseGadgetPlan(k)


# --- atlas ---------------------------------------------------------------------


@dataclass
class GadgetAtlas:
    plus_blocks: list[dict] = field(default_factory=list)
    minus_blocks: list[dict] = field(default_factory=list)
    variable_gadgets: list[dict] = field(default_factory=list)
    clause_gadgets: list[dict] = field(default_factory=list)
    columns: list[dict] = field(default_factory=list)
    literal_edges: list[tuple[int, int]] = field(default_factory=list)
    f_order: list[tuple[int, int]] = field(default_factory=list)
    joints: dict = field(default_factory=dict)  # (layer, x) -> vertex id
    vertex_tags: list[tuple] = field(default_factory=list)


# --- exact-geometry builder -----------------------------------------------------


class GeometryBuilder:
    """Vertices with exact coordinates; rotations from angular order."""

    def __init__(self):
        self.coords: list[tuple[Fraction, Fraction]] = []
        self.tags: list[tuple] = []
        self.adj: dict[int, list[int]] = defaultdict(list)
        self.edge_set: set[tuple[int, int]] = set()

    def vertex(self, x, y, tag: tuple) -> int:
        self.coords.append((Fraction(x), Fraction(y)))
        self.tags.append(tag)
        return len(self.coords) - 1

    def edge(self, u: int, v: int) -> tuple[int, int]:
        key = (u, v) if u < v else (v, u)
        assert key not in self.edge_set, f"duplicate edge {key}"
        assert u != v
        self.edge_set.add(key)
        self.adj[u].append(v)
        self.adj[v].append(u)
        return key

    def rotation(self) -> list[list[int]]:
        pts = scale_to_integers(self.coords)
        rot = []
        for v, (vx, vy) in enumerate(pts):
            dirs = {w: (pts[w][0] - vx, pts[w][1] - vy) for w in self.adj[v]}

            def cmp(p, q):
                c = angle_cmp(dirs[p], dirs[q])
                if c == 0:
                    raise LayoutInfeasible(
                        "overlapping edge directions at a vertex")
                return c

            rot.append(sorted(self.adj[v], key=functools.cmp_to_key(cmp)))
        return rot

    def plus_block(self, pole_a: int, pole_b: int, k: int,
                   atlas: GadgetAtlas | None = None,
                   perp=(0, 1)) -> list[int]:
        """Grid between two existing poles; perp points to the grid's
        row-offset direction.  Returns the grid vertex ids."""
        ax, ay = self.coords[pole_a]
        bx, by = self.coords[pole_b]
        dx, dy = bx - ax, by - ay
        px, py = Fraction(perp[0]), Fraction(perp[1])
        grid: list[list[int]] = []
        for col in range(k + 1):
            t = Fraction(col + 1, k + 2)
            cx, cy = ax + dx * t, ay + dy * t
            column = []
            for row in range(k + 1):
                off = Fraction(2 * row - k, 8)
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
        if atlas is not None:
            ids = [v for col in grid for v in col]
            atlas.plus_blocks.append({
                "poles": (pole_a, pole_b), "grid": ids, "k": k})
        return [v for col in grid for v in col]

    def minus_block(self, cx, cy, k: int, atlas: GadgetAtlas | None = None,
                    tag_extra=()) -> list[list[int]]:
        """(k-1)^2 grid centered at (cx, cy); rows bottom to top."""
        m = k - 1
        rows: list[list[int]] = []
        for row in range(m):
            r = []
            for col in range(m):
                offx = Fraction(2 * col - (m - 1), 8)
                offy = Fraction(2 * row - (m - 1), 8)
                r.append(self.vertex(Fraction(cx) + offx, Fraction(cy) + offy,
                                     ("minus_grid", *tag_extra, col, row)))
            rows.append(r)
        for row in range(m):
            for col in range(m):
                if col + 1 < m:
                    self.edge(rows[row][col], rows[row][col + 1])
                if row + 1 < m:
                    self.edge(rows[row][col], rows[row + 1][col])
        if atlas is not None:
            atlas.minus_blocks.append({
                "center": (Fraction(cx), Fraction(cy)),
                "grid": [v for r in rows for v in r], "k": k})
        return rows

    def build_instance(self, F, k: int, f_structure: str,
                       validate: bool = True) -> Instance:
        rot = self.rotation()
        graph = build_from_rotation(len(self.coords), rot)
        return make_instance(graph, F, k=k, coords=self.coords,
                             f_structure=f_structure,
                             check_geometry=validate)


# --- layout ----------------------------------------------------------------------


@dataclass
class _Column:
    var: int
    side: int            # +1 above the axis, -1 below
    slot: int
    x: int
    clause: int | None   # clause index served, None for an unused slot
    top: int             # far layer magnitude (clause layer, or 1 if unused)
    leg: int | None      # leg ordinal 0..2 within the clause


@dataclass
class _Placement:
    clause: int
    side: int
    layer: int
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
    occ = _occurrences(formula)
    n = formula.variables
    a = [1] * n
    for (v, _), legs in occ.items():
        a[v] = max(a[v], len(legs))

    bases = []
    x = 0
    pos_of = {v: i for i, v in enumerate(formula.order)}
    order_base: list[int] = [0] * n
    for v in formula.order:
        order_base[v] = x
        x += 4 * a[v] + 2
    width = x - 1  # drop the trailing link unit after the last gadget
    bases = order_base

    def slot_x(v: int, j: int) -> int:
        return bases[v] + 4 * j + 2

    keys = sorted(occ.keys(), key=lambda kv: (pos_of[kv[0]], kv[1]))
    perm_space = 1
    choices = []
    for key in keys:
        v, _side = key
        count = len(occ[key])
        perms = list(itertools.permutations(range(a[v]), count))
        choices.append(perms)
        perm_space *= len(perms)

    def try_assign(assignment) -> _Layout | None:
        col_of_leg: dict[tuple[int, int], _Column] = {}
        columns: list[_Column] = []
        used = {}
        for key, slots in zip(keys, assignment):
            v, side = key
            for (ci, leg), j in zip(occ[key], slots):
                c = formula.clauses[ci]
                col = _Column(v, side, j, slot_x(v, j), ci, c.layer, leg)
                columns.append(col)
                col_of_leg[(ci, leg)] = col
                used[(v, side, j)] = col
        placements = []
        for ci, c in enumerate(formula.clauses):
            side = 1 if c.polarity == "pos" else -1
            legs = sorted(col_of_leg[(ci, leg)].x for leg in range(3))
            p0, p6 = legs[0] - 1, legs[2] + 1
            p2 = (legs[0] + legs[1]) // 2
            p4 = (legs[1] + legs[2]) // 2
            p = [p0, legs[0], p2, legs[1], p4, legs[2], p6]
            if len(set(p)) != 7 or sorted(p) != p:
                return None
            placements.append(_Placement(ci, side, c.layer, legs, p))
        for g1 in placements:
            for g2 in placements:
                if g1.clause == g2.clause or g1.side != g2.side:
                    continue
                if g1.layer == g2.layer:
                    if not (g1.p[6] < g2.p[0] or g2.p[6] < g1.p[0]):
                        return None
                elif g1.layer > g2.layer:
                    # g1's legs pass through g2's layer.
                    for x_ in g1.legs:
                        if g2.p[0] < x_ < g2.p[6]:
                            return None
        # Unused slots become stub columns reaching the empty layer.
        for v in range(n):
            for side in (1, -1):
                taken = {c.slot for c in columns
                         if c.var == v and c.side == side}
                for j in range(a[v]):
                    if j not in taken:
                        columns.append(_Column(v, side, j, slot_x(v, j),
                                               None, 1, None))
        max_layer = {1: 1, -1: 1}
        for c in columns:
            max_layer[c.side] = max(max_layer[c.side], c.top)
        return _Layout(width, bases, a, columns, placements, max_layer)

    if perm_space <= 20_000:
        for assignment in itertools.product(*choices):
            layout = try_assign(assignment)
            if layout is not None:
                return layout
    else:
        layout = try_assign(tuple(tuple(range(len(occ[key])))
                                  for key in keys))
        if layout is not None:
            return layout
    raise LayoutInfeasible("clause legs cannot be nested on the grid")


# --- compile ------------------------------------------------------------------------


def compile_formula(formula: MonotoneFormula, k: int = 1,
                    variant: str = "path",
                    validate: bool = True) -> tuple[Instance, GadgetAtlas]:
    """Build the full insertion instance (and its atlas) for a formula."""
    validate_formula(formula)
    if variant not in ("path", "matching"):
        raise ValueError(f"unknown variant {variant!r}")
    if k < 1:
        raise ValueError("k >= 1")
    if k > 3:
        raise ValueError("lane construction implemented for k <= 3")
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
        if col.clause is None:
            continue
        for j in range(1, col.top):
            crossing[col.side * j].append(col)

    joints: dict[tuple[int, int], int] = {}
    unit_kind: dict[tuple[int, int], str] = {}  # (layer, left x) -> copy|edge

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
            joints[(layer, x_)] = b.vertex(x_, layer, ("joint", layer, x_))
        for i in range(len(ordered) - 1):
            x1, x2 = ordered[i], ordered[i + 1]
            kind = "copy"
            pl = body_cover.get(x1)
            if pl is not None and x1 in (pl.p[2], pl.p[3]) and x2 in (
                    pl.p[3], pl.p[4]):
                kind = "edge"
            unit_kind[(layer, x1)] = kind
            va, vb = joints[(layer, x1)], joints[(layer, x2)]
            if kind == "edge":
                b.edge(va, vb)
            else:
                b.plus_block(va, vb, k, atlas)

    # Variable gadget bookkeeping.
    for v in range(formula.variables):
        plan = build_variable_gadget(lay.a[v], k)
        base = lay.bases[v]
        endpoints = [joints[(0, base + off)]
                     for off in plan.endpoint_offsets()]
        atlas.variable_gadgets.append({
            "variable": v, "base": base, "a": lay.a[v],
            "joint_span": (base, base + plan.copies),
            "endpoints": endpoints, "blockers": [], "gadget_f": []})

    # Clause gadget bookkeeping.
    for pl in lay.placements:
        atlas.clause_gadgets.append({
            "clause": pl.clause, "side": pl.side, "layer": pl.layer,
            "p": [joints[(pl.side * pl.layer, x_)] for x_ in pl.p],
            "p_x": list(pl.p), "legs": list(pl.legs), "e": [None] * 5})

    # Literal edge columns.
    col_records = []
    for col in lay.columns:
        v_end = joints[(0, col.x)]
        chain = [v_end]
        for j in range(1, col.top):
            chain.append(joints[(col.side * j, col.x)])
        if col.clause is not None:
            chain.append(joints[(col.side * col.top, col.x)])
        edges = []
        for aee, bee in zip(chain, chain[1:]):
            edges.append(b.edge(aee, bee))
        rec = {"var": col.var, "side": col.side, "slot": col.slot,
               "x": col.x, "clause": col.clause, "leg": col.leg,
               "top": col.top, "literal_edges": edges, "blockers": []}
        col_records.append(rec)
        atlas.columns.append(rec)
        atlas.literal_edges.extend(edges)

    # Lane structures give every literal edge k-1 crossings (k >= 2).
    lane_f: list[tuple[tuple[int, int], list]] = []
    if k >= 2:
        lane_f = _build_lanes(b, atlas, lay, joints, k, col_records)

    # Vertical connectors and ties between consecutive layers.
    gap_records = []
    for i in range(len(signed_layers) - 1):
        low, high = signed_layers[i], signed_layers[i + 1]
        snake_right = i % 2 == 0
        end = W if snake_right else 0
        other = 0 if snake_right else W
        pa, pb = joints[(low, end)], joints[(high, end)]
        if variant == "path":
            b.plus_block(pa, pb, k, atlas, perp=(1, 0))
            connector_f = (pa, pb)
        else:
            b.edge(pa, pb)
            connector_f = None
        b.edge(joints[(low, other)], joints[(high, other)])  # tie
        gap_records.append({"low": low, "high": high, "end_x": end,
                            "connector_f": connector_f})

    # --- assemble F --------------------------------------------------------

    fpairs: list[tuple[int, int]] = []
    f_meta: list[tuple] = []

    def add_f(uv: tuple[int, int], meta: tuple) -> int:
        fpairs.append(uv)
        f_meta.append(meta)
        return len(fpairs) - 1

    def layer_edges(layer: int) -> list[tuple[tuple[int, int], tuple]]:
        """Layer subpath, left to right, as ((u, v), meta) records."""
        out = []
        if layer == 0:
            for v in formula.order:
                plan = build_variable_gadget(lay.a[v], k)
                base = lay.bases[v]
                blockers = {t: i for i, t in enumerate(plan.blocker_offsets())}
                forcing = set(plan.forcing_offsets())
                for (o1, o2) in plan.f_pattern():
                    key = (min(o1, o2), max(o1, o2))
                    if key in blockers:
                        meta = ("vblock", v, blockers[key])
                    elif key in forcing:
                        meta = ("vforce", v)
                    else:
                        meta = ("vlink", v)
                        if variant == "matching":
                            continue
                    out.append(((joints[(0, base + o1)],
                                 joints[(0, base + o2)]), meta))
                end = base + plan.copies
                if end < W and variant == "path":
                    out.append(((joints[(0, end)], joints[(0, end + 1)]),
                                ("link",)))
            return out
        bodies = {pl.p[0]: pl for pl in placements_at.get(layer, ())}
        twospan = {c.x for c in crossing.get(layer, ())}
        cur = 0
        while cur < W:
            pl = bodies.get(cur)
            if pl is not None:
                pattern = build_clause_gadget(k).f_pattern()
                for ei, (o1, o2) in enumerate(pattern):
                    if ei in (1, 3) and variant == "matching":
                        continue
                    out.append(((joints[(layer, pl.p[o1])],
                                 joints[(layer, pl.p[o2])]),
                                ("clause", pl.clause, ei)))
                cur = pl.p[6]
            elif cur + 1 in twospan:
                out.append(((joints[(layer, cur)], joints[(layer, cur + 2)]),
                            ("prop", layer, cur + 1)))
                cur += 2
            else:
                if variant == "path":
                    out.append(((joints[(layer, cur)],
                                 joints[(layer, cur + 1)]), ("span",)))
                cur += 1
        return out

    lane_by_gap: dict[int, list] = defaultdict(list)
    for uv, meta in lane_f:
        lane_by_gap[meta[1]].append((uv, meta))

    for i, layer in enumerate(signed_layers):
        edges = layer_edges(layer)
        if i % 2 == 1:
            edges = [((vv, uu), meta) for ((uu, vv), meta) in reversed(edges)]
        for uv, meta in edges:
            idx = add_f(uv, meta)
            _record_f(atlas, meta, idx)
        if i < len(signed_layers) - 1:
            gp = gap_records[i]
            if variant == "path" and gp["connector_f"] is not None:
                add_f(gp["connector_f"], ("connector", i))
            for uv, meta in lane_by_gap.get(i, ()):
                idx = add_f(uv, meta)
                _record_f(atlas, meta, idx)

    atlas.f_order = list(fpairs)
    atlas.joints = joints
    atlas.vertex_tags = list(b.tags)

    structure = variant
    inst = b.build_instance(fpairs, k, f_structure=structure,
                            validate=validate)
    return inst, atlas


def _record_f(atlas: GadgetAtlas, meta: tuple, idx: int) -> None:
    if meta[0] == "vblock":
        _, v, slot = meta
        atlas.variable_gadgets[v]["blockers"].append((slot, idx))
        atlas.variable_gadgets[v]["gadget_f"].append(idx)
    elif meta[0] in ("vforce", "vlink"):
        atlas.variable_gadgets[meta[1]]["gadget_f"].append(idx)
    elif meta[0] == "clause":
        _, ci, ei = meta
        atlas.clause_gadgets[ci]["e"][ei] = idx
    elif meta[0] == "prop":
        _, layer, x = meta
        for rec in atlas.columns:
            if rec["clause"] is not None and rec["x"] == x and \
                    rec["side"] * abs(layer) == layer and \
                    rec["side"] == (1 if layer > 0 else -1) and \
                    abs(layer) < rec["top"]:
                rec["blockers"].append((abs(layer), idx))
