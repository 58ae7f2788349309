"""The straight-line plane check as it was before planeinsert.geometry:
every pair of edge segments, then every vertex against every edge, all on
Fraction values.  Kept unchanged as the reference that
test_geometry.py compares the sweep with."""

from __future__ import annotations

from fractions import Fraction

from planeinsert.errors import NonPlaneCoordinates
from planeinsert.plane_graph import PlaneGraph

Point = tuple[Fraction, Fraction]


def _orient(a: Point, b: Point, c: Point) -> int:
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def _segments_conflict(p1: Point, p2: Point, q1: Point, q2: Point) -> bool:
    """Exact test: do closed segments intersect anywhere besides a shared
    endpoint?"""
    shared = {p1, p2} & {q1, q2}
    if len(shared) == 2:
        return True  # identical segments
    if len(shared) == 1:
        s = shared.pop()
        a = p2 if p1 == s else p1
        b = q2 if q1 == s else q1
        # Overlap beyond the joint endpoint: collinear and same direction.
        if _orient(s, a, b) == 0:
            da = (a[0] - s[0], a[1] - s[1])
            db = (b[0] - s[0], b[1] - s[1])
            return da[0] * db[0] + da[1] * db[1] > 0
        return False
    o1 = _orient(p1, p2, q1)
    o2 = _orient(p1, p2, q2)
    o3 = _orient(q1, q2, p1)
    o4 = _orient(q1, q2, p2)
    if o1 != o2 and o3 != o4 and (o1 or o2) and (o3 or o4):
        return True
    # Collinear/touching cases: any endpoint inside the other segment.
    for (a, b, c) in ((p1, p2, q1), (p1, p2, q2), (q1, q2, p1), (q1, q2, p2)):
        if _orient(a, b, c) == 0 and _between(a, b, c):
            return True
    return False


def _between(a: Point, b: Point, c: Point) -> bool:
    return (min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
            and c != a and c != b)


def _check_plane_coords(graph: PlaneGraph, pts: tuple[Point, ...]) -> None:
    segs = []
    for e, u, v in graph.edges():
        x1, y1 = pts[u]
        x2, y2 = pts[v]
        bb = (min(x1, x2), max(x1, x2), min(y1, y2), max(y1, y2))
        segs.append((u, v, bb))
    for i in range(len(segs)):
        u1, v1, bb1 = segs[i]
        for j in range(i + 1, len(segs)):
            u2, v2, bb2 = segs[j]
            if bb1[1] < bb2[0] or bb2[1] < bb1[0]:
                continue
            if bb1[3] < bb2[2] or bb2[3] < bb1[2]:
                continue
            if _segments_conflict(pts[u1], pts[v1], pts[u2], pts[v2]):
                raise NonPlaneCoordinates(
                    f"edges ({u1},{v1}) and ({u2},{v2}) cross")
    # No vertex may sit in the interior of an edge segment.
    for e, u, v in graph.edges():
        a, b = pts[u], pts[v]
        for w in range(graph.vertex_count):
            if w in (u, v):
                continue
            c = pts[w]
            if _orient(a, b, c) == 0 and _between(a, b, c):
                raise NonPlaneCoordinates(f"vertex {w} lies on edge ({u},{v})")
