"""The verifier's drawing kernels as they were before the bulk build and the
pinned start-corner prune: a per-edge loop that lays out the initial
drawing, and an enumeration that starts a route's search at every corner of
its tail.  Kept as the reference that test_verifier_kernels.py compares
PlanarizedDrawing with; both take the drawing as ``self``, so their bodies
are the old methods' bodies unchanged."""

from __future__ import annotations

from typing import Sequence

from planeinsert._rng import Lcg64
from planeinsert.instance_io import Instance
from planeinsert.plane_graph import PlaneGraph
from planeinsert.verifier import PlanarizedDrawing, Realization


def drawing(inst: Instance) -> PlanarizedDrawing:
    """A PlanarizedDrawing whose state is laid out by `init`."""
    pd = PlanarizedDrawing.__new__(PlanarizedDrawing)
    init(pd, inst)
    return pd


def init(self, inst: Instance):
    g: PlaneGraph = inst.graph
    self.base_vertices = g.vertex_count
    self.k = inst.k
    self.rot: list[list[int]] = []
    self.ends: list[tuple[int, int]] = []
    self.owner: list[int] = []
    # Logical edges: 0..E-1 are graph edges, E+i is inserted edge i.
    self.graph_edges = g.edge_count
    self.segments: list[list[int]] = []
    self.count: list[int] = []
    # Logical edges at each original vertex, in creation order.
    self.incident: list[list[int]] = [[] for _ in range(g.vertex_count)]
    self.journal: list[tuple] = []

    for e in range(g.edge_count):
        a, b = g.edge_endpoints(e)
        self.ends.append((a, b))
        self.owner.append(e)
        self.segments.append([2 * e])
        self.count.append(0)
        self.incident[a].append(e)
        self.incident[b].append(e)
    for v in range(g.vertex_count):
        row = []
        for d in g.darts_at(v):
            e = g.edge_of(d)
            a, _ = g.edge_endpoints(e)
            row.append(2 * e if v == a else 2 * e + 1)
        self.rot.append(row)


def enumerate_realizations(self, u: int, v: int,
                           pinned: Sequence[int] | None,
                           max_crossings: int,
                           rng: Lcg64 | None = None) -> list[Realization]:
    """All ways to route u -> v; `pinned` fixes the crossed logical
    edges in order, otherwise anything within budgets goes."""
    forbidden = self.adjacent_logicals(u, v)
    results: list[Realization] = []
    owner = self.owner
    count = self.count
    k = self.k

    def stage(corner: int, depth: int, crossed: list[int],
              used_logical: set[int]) -> None:
        cycle = self.face_cycle(corner)
        if pinned is not None:
            done = depth == len(pinned)
        else:
            done = True  # may stop in any face
        if done:
            for d in cycle:
                if self.tail(d) == v:
                    results.append(Realization(
                        start_pos=-1, crossings=tuple(crossed),
                        end_pos=self.rot[v].index(d)))
        if pinned is None and depth == max_crossings:
            return
        if pinned is not None and depth == len(pinned):
            return
        want = pinned[depth] if pinned is not None else None
        if rng is None:
            cand = cycle
        else:
            cand = list(cycle)
            rng.shuffle(cand)
        for d in cand:
            L = owner[d >> 1]
            if want is not None:
                if L != want:
                    continue
            elif L in forbidden or L in used_logical or count[L] >= k:
                continue
            if L in used_logical:
                continue
            used_logical.add(L)
            crossed.append(d)
            stage(d ^ 1, depth + 1, crossed, used_logical)
            crossed.pop()
            used_logical.discard(L)

    start_positions = list(range(len(self.rot[u])))
    if rng is not None:
        rng.shuffle(start_positions)
    for p in start_positions:
        before = len(results)
        stage(self.rot[u][p], 0, [], set())
        for i in range(before, len(results)):
            r = results[i]
            results[i] = Realization(p, r.crossings, r.end_pos)
    # Canonical order prefers fewer crossings; stable within a length.
    results.sort(key=lambda r: len(r.crossings))
    return results
