"""Canonical file formats for instances and solutions, plus SVG rendering.

Instance file (JSON, one object)::

    {"k": 1, "n": 6,
     "rotation": [[1,2,3,4], ...],          # ccw neighbor lists
     "coords": [[x_num,x_den,y_num,y_den], ...] | null,
     "F": [[0,5], ...],                      # insertion pairs (non-edges)
     "f_structure": "none" | "path" | "matching"}

Solution file (JSON)::

    {"routes": [{"f_edge": 0, "events": [
        {"kind": "graph_edge", "u": 1, "v": 2},
        {"kind": "inserted", "index": 0}]}]}

Routes are listed in insertion order (f_edge 0, 1, ...) and an "inserted"
event may only reference a strictly smaller f_edge index.  Coordinates are
exact rationals; planeinsert.geometry checks the straight-line drawing
they give (no crossings, neighbor order equal to the rotation) without
touching floating point.  Serialization is canonical: re-serializing a
parsed file reproduces it byte for byte.

In memory a solution is a frozen Solution of Route records, each a
NamedTuple (f_edge, events) whose events are CrossingEvent NamedTuples
(kind, target).  Solution's constructor is the one place routes and events
are checked, in one walk: every f_edge, kind and target, the forward
references, and that each integer is exactly an int (so not a bool).  A
record on its own is not checked and, being a tuple, equals a plain tuple
of the same values.  parse_solution checks only what JSON can get wrong
(objects, keys, integer types) before building the records; write_solution
emits the canonical text directly, byte for byte what json.dumps with
separators (",", ":") gives for the same routes.

Seeded generators elsewhere in the package all derive randomness from the
64-bit linear congruential generator documented in planeinsert._rng, so
generated instances are reproducible across implementations.
"""

from __future__ import annotations

import json
import operator
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import NamedTuple, NoReturn

import numpy as np

from .errors import (
    FNotInComplement,
    InvalidRoute,
    MissingCoordinates,
    SchemaError,
    StructureMismatch,
)
from .geometry import check_coords
from .plane_graph import PlaneGraph, build_from_rotation

Point = tuple[Fraction, Fraction]


class CrossingEvent(NamedTuple):
    """One crossing along a route: a graph edge (by endpoints) or an
    earlier inserted edge (by F index).  The Solution holding it checks it."""

    kind: str  # "graph_edge" | "inserted"
    target: tuple[int, int] | int


class Route(NamedTuple):
    f_edge: int
    events: tuple[CrossingEvent, ...]


@dataclass(frozen=True)
class Solution:
    routes: tuple[Route, ...]

    def __post_init__(self):
        # The one check of every route and event.  Integers must be exact
        # ints: bool is an int subclass, and true must not pass as 1.
        for i, (f_edge, events) in enumerate(self.routes):
            if f_edge != i or type(f_edge) is not int:
                raise SchemaError(f"route {i} labeled f_edge={f_edge}")
            for kind, target in events:
                if kind == "graph_edge":
                    if not (isinstance(target, tuple) and len(target) == 2
                            and type(target[0]) is int
                            and type(target[1]) is int):
                        raise SchemaError(
                            "graph_edge event needs endpoint pair")
                elif kind == "inserted":
                    if type(target) is not int:
                        raise SchemaError(
                            "inserted event needs an integer index")
                    if not 0 <= target < i:
                        raise SchemaError(
                            f"route {i} references inserted edge {target}")
                else:
                    raise SchemaError(f"unknown event kind {kind!r}")


@dataclass(frozen=True)
class Instance:
    graph: PlaneGraph
    coords: tuple[Point, ...] | None
    F: tuple[tuple[int, int], ...]
    k: int
    f_structure: str = "none"


def _norm(pair) -> tuple[int, int]:
    u, v = pair
    return (u, v) if u < v else (v, u)


def make_instance(graph: PlaneGraph, F, k: int = 1, coords=None,
                  f_structure: str = "none",
                  check_geometry: bool = True) -> Instance:
    """Validate and freeze an instance built in memory."""
    n = graph.vertex_count
    if k < 1:
        raise SchemaError("k must be a positive integer")
    if f_structure not in ("none", "path", "matching"):
        raise SchemaError(f"bad f_structure {f_structure!r}")
    fpairs = _f_pairs(graph, list(F))
    _check_structure(fpairs, f_structure)
    pts = None
    if coords is not None:
        if len(coords) != n:
            raise SchemaError("coords length != vertex count")
        pts = tuple((x if isinstance(x, Fraction) else Fraction(x),
                     y if isinstance(y, Fraction) else Fraction(y))
                    for x, y in coords)
        if check_geometry:
            check_coords(graph, pts)
    return Instance(graph, pts, tuple(fpairs), k, f_structure)


def _f_pairs(graph: PlaneGraph, F: list) -> list[tuple]:
    """F as a list of pairs, checked in one vector pass: two integer
    endpoints per pair, both vertices, distinct, not a graph edge, and no
    pair twice.  When a check fails, _raise_f_error raises the error of
    the first bad pair."""
    try:
        if F and set(map(len, F)) != {2}:
            _raise_f_error(graph, F)
        # array("q") rejects floats, which numpy would truncate.
        flat = array("q", list(chain.from_iterable(F)))
    except (TypeError, OverflowError):
        _raise_f_error(graph, F)
    if not F:
        return []
    n = graph.vertex_count
    uv = np.frombuffer(flat, dtype=np.int64)
    lo = np.minimum(uv[0::2], uv[1::2])
    hi = np.maximum(uv[0::2], uv[1::2])
    if lo.min() < 0 or hi.max() >= n or (lo == hi).any():
        _raise_f_error(graph, F)
    # Sorted pair codes lo*n + hi: a duplicate is two equal neighbours, and
    # a graph edge is a code found among the sorted edge codes eu*n + ev.
    code = lo * n + hi
    code.sort()
    ecode = graph.table("eu") * n
    ecode += graph.table("ev")
    ecode.sort()
    pos = np.searchsorted(ecode, code)
    np.minimum(pos, len(ecode) - 1, out=pos)
    if (code[1:] == code[:-1]).any() or (ecode[pos] == code).any():
        _raise_f_error(graph, F)
    return list(map(tuple, F))


def _raise_f_error(graph: PlaneGraph, F: list) -> NoReturn:
    """Raise the error of the first pair of F that failed a vector check,
    checking each pair in turn: shape, integer endpoints, range, equal
    endpoints, graph edge, duplicate."""
    n = graph.vertex_count
    seen = set()
    for pair in F:
        try:
            u, v = pair
        except (TypeError, ValueError):
            raise SchemaError(f"F entry {pair!r} is not a pair") from None
        try:
            u, v = operator.index(u), operator.index(v)
        except TypeError:
            raise SchemaError(
                f"F pair {pair} has a non-integer endpoint") from None
        if not (0 <= u < n and 0 <= v < n):
            raise SchemaError(f"F pair {pair} out of range")
        if u == v:
            raise FNotInComplement(f"F pair {pair} has equal endpoints")
        if graph.has_edge(u, v):
            raise FNotInComplement(f"F pair {pair} is an edge of the graph")
        key = _norm((u, v))
        if key in seen:
            raise SchemaError(f"duplicate F pair {pair}")
        seen.add(key)
    raise AssertionError("F passed every per-pair check")


def _check_structure(fpairs, f_structure: str) -> None:
    if f_structure == "none" or not fpairs:
        return
    if f_structure == "matching":
        ends = [x for p in fpairs for x in p]
        if len(set(ends)) != 2 * len(fpairs):
            raise StructureMismatch("matching pairs share endpoints")
        return
    # path: consecutive pairs chain through shared endpoints, all vertices
    # distinct, so listing order is the walk order.
    if len(fpairs) == 1:
        return
    first_shared = set(fpairs[0]) & set(fpairs[1])
    if len(first_shared) != 1:
        raise StructureMismatch("F[0] and F[1] do not chain")
    walk = [(set(fpairs[0]) - first_shared).pop()]
    cur = first_shared.pop()
    walk.append(cur)
    for i in range(1, len(fpairs)):
        p = set(fpairs[i])
        if cur not in p or len(p) != 2:
            raise StructureMismatch(f"F[{i}] does not extend the path")
        cur = (p - {cur}).pop()
        walk.append(cur)
    if len(set(walk)) != len(walk):
        raise StructureMismatch("path revisits a vertex")


# --- JSON ------------------------------------------------------------------


def parse_instance(text: str) -> Instance:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"bad JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError("instance must be a JSON object")
    missing = {"k", "n", "rotation", "coords", "F", "f_structure"} - obj.keys()
    if missing:
        raise SchemaError(f"missing keys: {sorted(missing)}")
    n = obj["n"]
    rotation = obj["rotation"]
    # A JSON integer parses to exactly int; true parses to bool.
    if type(n) is not int or not isinstance(rotation, list):
        raise SchemaError("n must be int, rotation a list")
    if type(obj["k"]) is not int or obj["k"] < 1:
        raise SchemaError("k must be a positive integer")
    graph = build_from_rotation(n, rotation)
    coords = obj["coords"]
    pts = None
    if coords is not None:
        if not isinstance(coords, list) or any(
                not isinstance(row, list) or len(row) != 4 for row in coords):
            raise SchemaError("coords must be rows of 4 integers")
        try:
            pts = [(Fraction(xn, xd), Fraction(yn, yd))
                   for xn, xd, yn, yd in coords]
        except ZeroDivisionError as exc:
            raise SchemaError("zero denominator in coords") from exc
    F = obj["F"]
    if not isinstance(F, list) or any(
            not isinstance(p, list) or len(p) != 2 for p in F):
        raise SchemaError("F must be a list of pairs")
    return make_instance(graph, [tuple(p) for p in F], k=obj["k"],
                         coords=pts, f_structure=obj["f_structure"])


def write_instance(inst: Instance) -> str:
    coords = None
    if inst.coords is not None:
        coords = [[p[0].numerator, p[0].denominator,
                   p[1].numerator, p[1].denominator] for p in inst.coords]
    obj = {
        "k": inst.k,
        "n": inst.graph.vertex_count,
        "rotation": inst.graph.rotation(),
        "coords": coords,
        "F": [list(p) for p in inst.F],
        "f_structure": inst.f_structure,
    }
    return json.dumps(obj, separators=(",", ":")) + "\n"


def parse_solution(text: str) -> Solution:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"bad JSON: {exc}") from exc
    if not isinstance(obj, dict) or "routes" not in obj:
        raise SchemaError("solution must be an object with routes")
    if not isinstance(obj["routes"], list):
        raise SchemaError("routes must be a list")
    # A JSON integer parses to exactly int; true parses to bool and 1.0 to
    # float, and neither is an index.
    routes = []
    for i, r in enumerate(obj["routes"]):
        f_edge = r.get("f_edge") if type(r) is dict else None
        if type(f_edge) is not int or f_edge != i:
            raise SchemaError(f"route {i} must carry f_edge={i}")
        evs = r.get("events", [])
        if type(evs) is not list:
            raise SchemaError(f"route {i} events must be a list")
        events = []
        for ev in evs:
            if type(ev) is not dict:
                raise SchemaError("event must be an object")
            kind = ev.get("kind")
            if kind == "graph_edge":
                u, v = ev.get("u"), ev.get("v")
                if type(u) is not int or type(v) is not int:
                    raise SchemaError("graph_edge event needs ints u, v")
                events.append(CrossingEvent("graph_edge",
                                            (u, v) if u < v else (v, u)))
            elif kind == "inserted":
                index = ev.get("index")
                if type(index) is not int:
                    raise SchemaError("inserted event needs int index")
                events.append(CrossingEvent("inserted", index))
            else:
                raise SchemaError(f"unknown event kind {kind!r}")
        routes.append(Route(i, tuple(events)))
    return Solution(tuple(routes))


def write_solution(sol: Solution) -> str:
    """The canonical text: json.dumps of {"routes": [{"f_edge": i,
    "events": [...]}, ...]} with separators (",", ":"), written directly.
    Solution has checked that every number is an exact int and every kind
    one of the two, so each piece is a fixed template."""
    parts = []
    for f_edge, events in sol.routes:
        texts = []
        for kind, target in events:
            if kind == "graph_edge":
                u, v = target
                if v < u:
                    u, v = v, u
                texts.append(f'{{"kind":"graph_edge","u":{u},"v":{v}}}')
            else:
                texts.append(f'{{"kind":"inserted","index":{target}}}')
        parts.append(f'{{"f_edge":{f_edge},"events":[{",".join(texts)}]}}')
    return f'{{"routes":[{",".join(parts)}]}}\n'


# --- SVG rendering -----------------------------------------------------------


def render_svg(inst: Instance, sol: Solution | None = None) -> str:
    """Straight-line drawing: one <line> per graph edge (crossed edges drawn
    thicker), one red <polyline> per route, routed through deterministic
    points on the crossed edges.  Geometry of routes is approximate; their
    combinatorial validity is checked by the verifier first."""
    if inst.coords is None:
        raise MissingCoordinates("instance carries no coordinates")
    if sol is not None:
        from .verifier import verify

        result = verify(inst, sol)
        if not result.accepted:
            raise InvalidRoute(f"{result.reason} (f_edge {result.f_edge})")

    pts = inst.coords
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    minx, maxx = min(xs), max(xs)
    miny, maxy = min(ys), max(ys)
    spanx = maxx - minx or Fraction(1)
    spany = maxy - miny or Fraction(1)
    size = Fraction(760)
    scale = min(size / spanx, size / spany)

    def sx(x: Fraction) -> float:
        return float((x - minx) * scale + 20)

    def sy(y: Fraction) -> float:
        # SVG y axis points down.
        return float((maxy - y) * scale + 20)

    # Deterministic crossing points: the j-th crossing of an edge (over the
    # replay order of all routes) sits at fraction (j+1)/(c+1) along it.
    cross_total: dict[tuple[str, object], int] = {}
    cross_seen: dict[tuple[str, object], int] = {}
    routes = sol.routes if sol is not None else ()
    for r in routes:
        for ev in r.events:
            key = (ev.kind, ev.target)
            cross_total[key] = cross_total.get(key, 0) + 1

    def endpoint_pair(ev: CrossingEvent) -> tuple[Point, Point]:
        if ev.kind == "graph_edge":
            u, v = ev.target
        else:
            u, v = inst.F[ev.target]
        return pts[u], pts[v]

    crossed_graph_edges = {ev.target for r in routes for ev in r.events
                           if ev.kind == "graph_edge"}

    lines = []
    lines.append('<?xml version="1.0" encoding="UTF-8"?>')
    lines.append('<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                 'width="800" height="800">')
    for e, u, v in inst.graph.edges():
        stroke_width = 3 if _norm((u, v)) in crossed_graph_edges else 1
        lines.append(
            f'<line x1="{sx(pts[u][0]):.3f}" y1="{sy(pts[u][1]):.3f}" '
            f'x2="{sx(pts[v][0]):.3f}" y2="{sy(pts[v][1]):.3f}" '
            f'stroke="black" stroke-width="{stroke_width}"/>')
    for r in routes:
        u, v = inst.F[r.f_edge]
        waypoints = [pts[u]]
        for ev in r.events:
            key = (ev.kind, ev.target)
            j = cross_seen.get(key, 0)
            cross_seen[key] = j + 1
            t = Fraction(j + 1, cross_total[key] + 1)
            a, b = endpoint_pair(ev)
            waypoints.append((a[0] + (b[0] - a[0]) * t,
                              a[1] + (b[1] - a[1]) * t))
        waypoints.append(pts[v])
        point_str = " ".join(f"{sx(p[0]):.3f},{sy(p[1]):.3f}"
                             for p in waypoints)
        lines.append(f'<polyline points="{point_str}" fill="none" '
                     'stroke="red" stroke-width="1.5"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
