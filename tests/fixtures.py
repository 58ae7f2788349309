"""Shared hand-built embeddings and solutions used across the test suite."""

from __future__ import annotations

import random

from planeinsert import geometry
from planeinsert.instance_io import (GRAPH_EDGE, INSERTED, Instance,
                                     Solution, make_instance)
from planeinsert.plane_graph import PlaneGraph, build_from_rotation
from planeinsert.reduction import Clause, MonotoneFormula
from planeinsert.verifier import VerifyResult, _static_pass

# Octahedron: poles 0 and 5, equator cycle 1-2-3-4.  Antipodal (non-edge)
# pairs: (0,5), (1,3), (2,4).
OCTA_ROTATION = [
    [1, 4, 3, 2],
    [0, 2, 5, 4],
    [1, 0, 3, 5],
    [2, 0, 4, 5],
    [3, 0, 1, 5],
    [1, 2, 3, 4],
]

# Straight-line placement of the octahedron with outer face (1, 4, 5).
OCTA_COORDS = [(10, 4), (0, 0), (7, 8), (13, 8), (20, 0), (10, 17)]

# Cube graph (quadrilateral faces): bottom 0..3, top 4..7, vertical (i, i+4).
CUBE_ROTATION = [
    [1, 3, 4],
    [2, 0, 5],
    [3, 1, 6],
    [0, 2, 7],
    [0, 7, 5],
    [1, 4, 6],
    [2, 5, 7],
    [3, 6, 4],
]

# A rotation of K5 (not planar; Euler check must fail).
K5_ROTATION = [
    [1, 2, 3, 4],
    [2, 3, 4, 0],
    [3, 4, 0, 1],
    [4, 0, 1, 2],
    [0, 1, 2, 3],
]


def solution(*routes) -> Solution:
    """The solution whose route i crosses the events of routes[i] in
    order: a pair (u, v) is the graph edge u-v, an integer j the inserted
    edge F[j]."""
    start, kind, a, b = [0], [], [], []
    for events in routes:
        for ev in events:
            if isinstance(ev, int):
                kind.append(INSERTED)
                a.append(ev)
                b.append(-1)
            else:
                kind.append(GRAPH_EDGE)
                a.append(min(ev))
                b.append(max(ev))
        start.append(len(kind))
    return Solution(start, kind, a, b)


def pinned_routes(inst: Instance, sol: Solution) -> list[list[int]] | None:
    """The logical edges each route pins, as verify's static pass resolves
    them (graph edge e is e, inserted edge i is E + i), or None when the
    static pass rejects the solution."""
    static = _static_pass(inst, sol)
    if isinstance(static, VerifyResult):
        return None
    start, logical = sol.start.tolist(), static[0].tolist()
    return [logical[s:e] for s, e in zip(start, start[1:])]


def route_events(sol: Solution) -> list[list]:
    """Each route's events in the form solution() takes, a graph edge's
    pair smaller endpoint first."""
    events = [(x, y) if k == GRAPH_EDGE else x for k, x, y in
              zip(sol.kind.tolist(), sol.a.tolist(), sol.b.tolist())]
    start = sol.start.tolist()
    return [events[s:e] for s, e in zip(start, start[1:])]


def octahedron() -> PlaneGraph:
    return build_from_rotation(6, OCTA_ROTATION)


def bipyramid_rotation(c: int) -> list[list[int]]:
    """Bipyramid over a c-cycle, c >= 3: poles 0 and 1, equator vertices
    x_i = 2 + i.  0 lists x_0 .. x_{c-1}, 1 lists them in reverse, and x_i
    lists 0, x_{i-1}, 1, x_{i+1}.  At c = 3 it is K5 minus (0, 1)."""
    x = [2 + i for i in range(c)]
    rot = [x, x[::-1]]
    rot.extend([0, x[i - 1], 1, x[(i + 1) % c]] for i in range(c))
    return rot


def bipyramid(c: int) -> PlaneGraph:
    return build_from_rotation(c + 2, bipyramid_rotation(c))


def bipyramid_chords(c: int) -> list[tuple[int, int]]:
    """The chords (x_i, x_{i+2}), i < c: with (0, 1) the only non-edges of
    bipyramid(c), c >= 5, that have a single-crossing option."""
    return [(2 + i, 2 + (i + 2) % c) for i in range(c)]


def chord_subsets(c: int):
    """Instances with F = (0, 1) plus each subset of bipyramid(c)'s chords,
    the subset of mask i being the chords at the set bits of i."""
    g = bipyramid(c)
    chords = bipyramid_chords(c)
    for mask in range(1 << c):
        yield make_instance(g, [(0, 1)] + [
            p for i, p in enumerate(chords) if mask >> i & 1])


def windowed_bipyramid_f(c: int) -> list[tuple[int, int]]:
    """(0, 1) and every chord but the three at i = c/2 .. c/2 + 2: a
    feasible F on which the reducer takes about c/2 case steps."""
    gap = range(c // 2, c // 2 + 3)
    return [(0, 1)] + [p for i, p in enumerate(bipyramid_chords(c))
                       if i not in gap]


def stack(rot: list[list[int]], face: tuple[int, int, int]) -> int:
    """Put a new vertex into the triangular face (a, b, c) of a rotation,
    joined to its three corners; returns the new vertex."""
    a, b, c = face
    x = len(rot)
    rot[a].insert(rot[a].index(c) + 1, x)
    rot[b].insert(rot[b].index(a) + 1, x)
    rot[c].insert(rot[c].index(b) + 1, x)
    rot.append([c, b, a])
    return x


def stacked_octahedron() -> PlaneGraph:
    """The octahedron stacked into its faces (0, 1, 2) and (0, 3, 4): the
    antipodal pair (0, 5) keeps two options, through the equator edges
    (1, 4) and (2, 3), which share no vertex."""
    rot = [list(r) for r in OCTA_ROTATION]
    stack(rot, (0, 1, 2))
    stack(rot, (0, 3, 4))
    return build_from_rotation(8, rot)


def cube() -> PlaneGraph:
    return build_from_rotation(8, CUBE_ROTATION)


def shared_face_certificate():
    """A cube instance and an accepted certificate whose two routes both
    pass through the top face 0-1-2-3: 2 -> 4 across (0, 1) and 0 -> 6
    across (2, 3).  verify cannot take its no-replay path on it, so the
    search decides it, one node per route."""
    inst = make_instance(cube(), [(2, 4), (0, 6)], k=1)
    return inst, solution([(0, 1)], [(2, 3)])


def apollonian7() -> PlaneGraph:
    """K4 with vertices 4, 5, 6 stacked doubly nested; (6, 2) has no option."""
    from planeinsert.plane_graph import K4_ROTATION

    rot = [list(r) for r in K4_ROTATION]
    stack(rot, (0, 3, 1))   # vertex 4
    stack(rot, (3, 1, 4))   # vertex 5
    stack(rot, (1, 4, 5))   # vertex 6
    return build_from_rotation(7, rot)


def delete_edge_rotation(g: PlaneGraph, u: int, v: int) -> list[list[int]]:
    """Rotation of g with edge (u, v) removed (still a valid embedding)."""
    rot = g.rotation()
    rot[u].remove(v)
    rot[v].remove(u)
    return rot


def counted_angle_cmp(monkeypatch) -> list:
    """Wrap geometry.angle_cmp; the list grows by one per call."""
    calls: list = []
    original = geometry.angle_cmp

    def counted(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(geometry, "angle_cmp", counted)
    return calls


def laminar_formula(variables: int, clauses: int,
                    seed: int) -> MonotoneFormula:
    """A seeded monotone formula whose clauses nest on each side, so that
    it has a rectilinear layout: at most `clauses` clauses a side.

    Each side is a random laminar family of clause spans over the variable
    order.  Siblings follow each other and may share an end variable; a
    clause's children lie between two of its adjacent legs.  A clause's
    layer is 2 plus the height of what it contains.  Literals may repeat,
    and the clauses are listed in random order."""
    rng = random.Random(seed)
    order = list(range(variables))
    rng.shuffle(order)
    out: list[Clause] = []

    def fill(lo: int, hi: int, polarity: str, budget: list[int]) -> int:
        """Sibling clauses on the positions lo..hi; their highest layer,
        or 1 when there are none."""
        top, cur = 1, lo
        while budget[0] > 0 and rng.random() < 0.7:
            budget[0] -= 1
            a = rng.randint(cur, hi)
            b = rng.randint(a, hi)
            mid = rng.randint(a, b)
            layer = 1 + max(fill(a, mid, polarity, budget),
                            fill(mid, b, polarity, budget))
            legs = [order[a], order[mid], order[b]]
            rng.shuffle(legs)
            # A literal left off the end comes back as padding.
            while (len(legs) > 1 and legs[-1] == legs[-2]
                   and rng.random() < 0.5):
                legs.pop()
            out.append(Clause(polarity, layer, tuple(legs)))
            top, cur = max(top, layer), b
        return top

    for polarity in ("pos", "neg"):
        fill(0, variables - 1, polarity, [clauses])
    rng.shuffle(out)
    return MonotoneFormula(variables, tuple(out), tuple(order))
