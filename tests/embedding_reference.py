"""The embedding layer as it was before its array kernels: a per-row check,
a per-dart twin scan and a BFS in build_from_rotation, a first-unvisited
face walk that records succ, a sort of the edge codes, a per-pair F
check, and per-option loops in enumerate_options and compute_clashes that
look quad edges up by endpoints.  Kept as the reference that
test_embedding_kernels.py compares the kernels with, outputs and error
messages alike."""

from __future__ import annotations

from array import array
from collections import deque
from typing import Sequence

import numpy as np

from planeinsert.errors import (
    AsymmetricAdjacency,
    Disconnected,
    FNotInComplement,
    InvalidRotation,
    KNotOne,
    NotPlanarEmbedding,
    NotTriangulation,
    SchemaError,
)
from planeinsert.instance_io import Instance
from planeinsert.plane_graph import PlaneGraph
from planeinsert.tri_insert import ClashGraph, OptionCatalog


def build_from_rotation(vertex_count: int,
                        rotation: Sequence[Sequence[int]]
                        ) -> tuple[PlaneGraph, tuple[array, array, array]]:
    """The graph, and the dart tails and edge ends (tail, eu, ev) that the
    graph does not keep, as this build finds them."""
    n = vertex_count
    if n < 2:
        raise InvalidRotation("need at least 2 vertices")
    if len(rotation) != n:
        raise InvalidRotation(f"rotation has {len(rotation)} rows, expected {n}")

    offsets = array("q", bytes(8 * (n + 1)))
    for v, row in enumerate(rotation):
        try:
            iter(row)
        except TypeError:
            raise InvalidRotation(
                f"vertex {v}: row {row!r} is not a list") from None
        seen: set[int] = set()
        for w in row:
            if not isinstance(w, int) or w < 0 or w >= n:
                raise InvalidRotation(f"vertex {v}: bad neighbor {w!r}")
            if w == v:
                raise InvalidRotation(f"vertex {v}: loop")
            if w in seen:
                raise InvalidRotation(f"vertex {v}: duplicate neighbor {w}")
            seen.add(w)
        offsets[v + 1] = offsets[v] + len(row)

    m2 = offsets[n]  # number of darts = 2E
    if m2 == 0:
        raise InvalidRotation("graph has no edges")
    if m2 % 2:
        raise AsymmetricAdjacency("odd number of darts")

    head = array("q", bytes(8 * m2))
    tail = array("q", bytes(8 * m2))
    for v, row in enumerate(rotation):
        base = offsets[v]
        for i, w in enumerate(row):
            head[base + i] = w
            tail[base + i] = v

    twin = array("q", bytes(8 * m2))
    edge = array("q", bytes(8 * m2))
    eu = array("q")
    ev = array("q")
    edge_dart = array("q")

    # For a dart u->v with u < v, scan v's slots for the reverse dart.
    paired = 0
    for d in range(m2):
        u = tail[d]
        v = head[d]
        if u > v:
            continue
        partner = -1
        for d2 in range(offsets[v], offsets[v + 1]):
            if head[d2] == u:
                partner = d2
                break
        if partner < 0:
            raise AsymmetricAdjacency(f"{u} lists {v} but {v} does not list {u}")
        e = len(eu)
        eu.append(u)
        ev.append(v)
        edge_dart.append(d)
        twin[d] = partner
        twin[partner] = d
        edge[d] = e
        edge[partner] = e
        paired += 2
    if paired != m2:
        raise AsymmetricAdjacency("unpaired dart (asymmetric neighbor lists)")

    seen_v = bytearray(n)
    seen_v[0] = 1
    queue = deque([0])
    reached = 1
    while queue:
        v = queue.popleft()
        for d in range(offsets[v], offsets[v + 1]):
            w = head[d]
            if not seen_v[w]:
                seen_v[w] = 1
                reached += 1
                queue.append(w)
    if reached != n:
        raise Disconnected(f"reached {reached} of {n} vertices")

    # Face orbits under succ = next(twin(.)), numbered by first unvisited
    # dart; the walk records succ in the build's 32-bit table.
    face = array("q", bytes(8 * m2))
    succ = array("i", bytes(4 * m2))
    visited = bytearray(m2)
    face_dart = array("q")
    for d0 in range(m2):
        if visited[d0]:
            continue
        f = len(face_dart)
        face_dart.append(d0)
        d = d0
        while True:
            face[d] = f
            visited[d] = 1
            t = twin[d]
            tt = tail[t]
            base = offsets[tt]
            deg = offsets[tt + 1] - base
            succ[d] = d = base + (t - base + 1) % deg
            if d == d0:
                break

    n_edges = m2 // 2
    n_faces = len(face_dart)
    if n - n_edges + n_faces != 2:
        raise NotPlanarEmbedding(
            f"V - E + F = {n} - {n_edges} + {n_faces} != 2")

    # The edge ids sorted by their codes eu*n + ev, which are distinct.
    codes = [eu[e] * n + ev[e] for e in range(n_edges)]
    edge_order = np.array(sorted(range(n_edges), key=codes.__getitem__),
                          dtype=np.min_scalar_type(n_edges))
    graph = PlaneGraph(offsets, head, twin, edge, face, edge_dart, succ,
                       edge_order, n_faces)
    return graph, (tail, eu, ev)


def check_f(graph: PlaneGraph, F) -> list[tuple[int, int]]:
    """make_instance's per-pair check of F; returns the pairs."""
    n = graph.vertex_count
    fpairs = []
    seen = set()
    for pair in F:
        u, v = pair
        if not (0 <= u < n and 0 <= v < n):
            raise SchemaError(f"F pair {pair} out of range")
        if u == v:
            raise FNotInComplement(f"F pair {pair} has equal endpoints")
        if graph.has_edge(u, v):
            raise FNotInComplement(f"F pair {pair} is an edge of the graph")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise SchemaError(f"duplicate F pair {pair}")
        seen.add(key)
        fpairs.append((u, v))
    return fpairs


def is_triangulation(g: PlaneGraph) -> bool:
    if g.vertex_count < 4:
        return False
    if g.edge_count != 3 * g.vertex_count - 6:
        return False
    for d in range(2 * g.edge_count):
        if g.succ(g.succ(g.succ(d))) != d or g.succ(d) == d:
            return False
    return True


def _edge_id(g: PlaneGraph, u: int, v: int) -> int:
    for d in g.darts_at(u):
        if g.head(d) == v:
            return g._edge[d]
    raise AssertionError(f"quad edge ({u},{v}) missing")


def enumerate_options(inst: Instance) -> OptionCatalog:
    if inst.k != 1:
        raise KNotOne(f"k={inst.k}")
    g = inst.graph
    if not is_triangulation(g):
        raise NotTriangulation("instance graph is not a triangulation")
    findex = {(min(p), max(p)): i for i, p in enumerate(inst.F)}
    head = g.head
    succ = g.succ
    f_of: list[int] = []
    crossed: list[int] = []
    for e in range(g.edge_count):
        d, t = g.edge_darts(e)
        a1 = head(succ(d))
        a2 = head(succ(t))
        key = (a1, a2) if a1 < a2 else (a2, a1)
        f = findex.get(key)
        if f is None:
            continue
        f_of.append(f)
        crossed.append(e)
    return OptionCatalog(inst, np.array(f_of, dtype=np.int64),
                         np.array(crossed, dtype=np.int64))


def f_options(f_of: list[int], m: int) -> list[list[int]]:
    """The option ids of each insertion edge, one option at a time."""
    lists: list[list[int]] = [[] for _ in range(m)]
    for o, f in enumerate(f_of):
        lists[f].append(o)
    return lists


def compute_clashes(catalog: OptionCatalog
                    ) -> tuple[ClashGraph, list[list[int]]]:
    """The clash store built from the pairs found one option at a time,
    and the adjacency lists that appending each pair to both of its
    options' lists gives."""
    g = catalog.instance.graph
    pairs: list[tuple[int, int]] = []
    adj: list[list[int]] = [[] for _ in catalog.options]
    option_of_edge: dict[int, int] = {}
    for o, e in enumerate(catalog.options):
        assert e not in option_of_edge
        option_of_edge[e] = o
    for o, e in enumerate(catalog.options):
        d, t = g.edge_darts(e)
        u, v = g.head(g.succ(d)), g.head(g.succ(t))
        x, w = g.edge_endpoints(e)
        for (a, b) in ((u, x), (x, v), (v, w), (w, u)):
            other = option_of_edge.get(_edge_id(g, a, b))
            if other is None or other <= o:
                continue
            if catalog.f_edge[other] == catalog.f_edge[o]:
                continue
            pairs.append((o, other))
            adj[o].append(other)
            adj[other].append(o)
    lo, hi = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return ClashGraph(len(catalog.options), lo, hi), adj
