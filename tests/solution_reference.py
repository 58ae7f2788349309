"""The solution records and their JSON reader and writer as they were before
the records became named tuples checked in one walk and the writer emitted
the canonical text directly: frozen dataclasses whose events check
themselves on construction, a reader that builds them, and a writer that
builds one dict per route and event for json.dumps.  Kept as the reference
that test_solution_io.py compares planeinsert.instance_io with; the bodies
are the old ones unchanged but for the reader's rejection of a route with no
events key, and the class names are the old ones so that the two sides'
reprs can be compared."""

from __future__ import annotations

import json
from dataclasses import dataclass

from planeinsert.errors import SchemaError


@dataclass(frozen=True)
class CrossingEvent:
    """One crossing along a route: a graph edge (by endpoints) or an
    earlier inserted edge (by F index)."""

    kind: str  # "graph_edge" | "inserted"
    target: tuple[int, int] | int

    def __post_init__(self):
        if self.kind == "graph_edge":
            if not (isinstance(self.target, tuple) and len(self.target) == 2):
                raise SchemaError("graph_edge event needs endpoint pair")
        elif self.kind == "inserted":
            if not isinstance(self.target, int):
                raise SchemaError("inserted event needs an integer index")
        else:
            raise SchemaError(f"unknown event kind {self.kind!r}")


@dataclass(frozen=True)
class Route:
    f_edge: int
    events: tuple[CrossingEvent, ...]


@dataclass(frozen=True)
class Solution:
    routes: tuple[Route, ...]

    def __post_init__(self):
        for i, route in enumerate(self.routes):
            if route.f_edge != i:
                raise SchemaError(f"route {i} labeled f_edge={route.f_edge}")
            for ev in route.events:
                if ev.kind == "inserted" and not (0 <= ev.target < i):
                    raise SchemaError(
                        f"route {i} references inserted edge {ev.target}")


def _norm(pair) -> tuple[int, int]:
    u, v = pair
    return (u, v) if u < v else (v, u)


def parse_solution(text: str) -> Solution:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"bad JSON: {exc}") from exc
    if not isinstance(obj, dict) or "routes" not in obj:
        raise SchemaError("solution must be an object with routes")
    routes = []
    if not isinstance(obj["routes"], list):
        raise SchemaError("routes must be a list")
    for i, r in enumerate(obj["routes"]):
        if not isinstance(r, dict) or r.get("f_edge") != i:
            raise SchemaError(f"route {i} must carry f_edge={i}")
        if "events" not in r:
            raise SchemaError(f"route {i} must carry events")
        events = []
        for ev in r["events"]:
            if not isinstance(ev, dict):
                raise SchemaError("event must be an object")
            kind = ev.get("kind")
            if kind == "graph_edge":
                if not (isinstance(ev.get("u"), int)
                        and isinstance(ev.get("v"), int)):
                    raise SchemaError("graph_edge event needs ints u, v")
                events.append(CrossingEvent("graph_edge",
                                            _norm((ev["u"], ev["v"]))))
            elif kind == "inserted":
                if not isinstance(ev.get("index"), int):
                    raise SchemaError("inserted event needs int index")
                events.append(CrossingEvent("inserted", ev["index"]))
            else:
                raise SchemaError(f"unknown event kind {kind!r}")
        routes.append(Route(i, tuple(events)))
    return Solution(tuple(routes))


def write_solution(sol: Solution) -> str:
    routes = []
    for r in sol.routes:
        events = []
        for ev in r.events:
            if ev.kind == "graph_edge":
                u, v = _norm(ev.target)
                events.append({"kind": "graph_edge", "u": u, "v": v})
            else:
                events.append({"kind": "inserted", "index": ev.target})
        routes.append({"f_edge": r.f_edge, "events": events})
    return json.dumps({"routes": routes}, separators=(",", ":")) + "\n"
