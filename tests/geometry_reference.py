"""The exact drawing checks as they were before their array passes: a
sweep over segments sorted by smallest x with an active list, a bisected
vertex-in-edge pass, and a comparator sort of every rotation row, all in
scalar Python on integer (or Fraction) points.  Kept unchanged as the
reference that test_geometry.py compares the array passes with, outcomes
and error messages alike; with them, the LCM scaling of Fraction points
that geometry.to_grid replaced."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cmp_to_key
from typing import Sequence

from planeinsert.errors import NonPlaneCoordinates
from planeinsert.plane_graph import PlaneGraph

# One point: Fractions as stored, or ints after scaling.
Point = tuple[Fraction, Fraction] | tuple[int, int]


def scale_to_integers(pts: Sequence[tuple[Fraction, Fraction]]
                      ) -> list[tuple[int, int]]:
    """The points times the LCM of all their denominators, as ints."""
    m = math.lcm(*(c.denominator for p in pts for c in p))
    return [(x.numerator * (m // x.denominator),
             y.numerator * (m // y.denominator)) for x, y in pts]


def orient(a: Point, b: Point, c: Point) -> int:
    """Sign of the turn a -> b -> c: 1 left, -1 right, 0 collinear."""
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def between(a: Point, b: Point, c: Point) -> bool:
    """Is c, known collinear with a and b, inside segment ab but not an
    endpoint?"""
    return (min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
            and c != a and c != b)


def segments_conflict(p1: Point, p2: Point, q1: Point, q2: Point) -> bool:
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
        if orient(s, a, b) == 0:
            da = (a[0] - s[0], a[1] - s[1])
            db = (b[0] - s[0], b[1] - s[1])
            return da[0] * db[0] + da[1] * db[1] > 0
        return False
    o1 = orient(p1, p2, q1)
    o2 = orient(p1, p2, q2)
    o3 = orient(q1, q2, p1)
    o4 = orient(q1, q2, p2)
    if o1 != o2 and o3 != o4 and (o1 or o2) and (o3 or o4):
        return True
    # Collinear/touching cases: any endpoint inside the other segment.
    for (a, b, c) in ((p1, p2, q1), (p1, p2, q2), (q1, q2, p1), (q1, q2, p2)):
        if orient(a, b, c) == 0 and between(a, b, c):
            return True
    return False


def angle_cmp(a: Point, b: Point) -> int:
    """Compare direction vectors by counterclockwise angle from the
    positive x axis, in [0, 2*pi).  Returns 0 exactly when a and b point
    the same way."""
    def half(v):
        return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1

    ha, hb = half(a), half(b)
    if ha != hb:
        return -1 if ha < hb else 1
    cross = a[0] * b[1] - a[1] * b[0]
    return (cross < 0) - (cross > 0)


def check_plane(graph: PlaneGraph, pts: Sequence[Point]) -> None:
    """Raise NonPlaneCoordinates when a vertex lies inside an edge segment
    or two edge segments meet beyond a shared endpoint.

    Every vertex inside an edge also makes its own edges meet that edge;
    the vertex pass runs first so that the error names the vertex."""
    segs = []
    for _, u, v in graph.edges():
        (x1, y1), (x2, y2) = pts[u], pts[v]
        segs.append((min(x1, x2), max(x1, x2), min(y1, y2), max(y1, y2),
                     u, v))
    order = sorted(range(len(pts)), key=pts.__getitem__)
    xs = [pts[w][0] for w in order]
    for x0, x1, y0, y1, u, v in segs:
        a, b = pts[u], pts[v]
        for i in range(bisect_left(xs, x0), bisect_right(xs, x1)):
            w = order[i]
            c = pts[w]
            if (y0 <= c[1] <= y1 and w != u and w != v
                    and orient(a, b, c) == 0 and between(a, b, c)):
                raise NonPlaneCoordinates(f"vertex {w} lies on edge ({u},{v})")
    segs.sort(key=lambda s: s[0])
    active: list[tuple] = []
    for seg in segs:
        x0, _, y0, y1, u1, v1 = seg
        kept = []
        for other in active:
            if other[1] < x0:
                continue  # ends left of every segment still to come
            kept.append(other)
            if other[3] < y0 or y1 < other[2]:
                continue
            u2, v2 = other[4], other[5]
            if segments_conflict(pts[u2], pts[v2], pts[u1], pts[v1]):
                raise NonPlaneCoordinates(
                    f"edges ({u2},{v2}) and ({u1},{v1}) cross")
        kept.append(seg)
        active = kept


def check_rotation(graph: PlaneGraph, pts: Sequence[Point]) -> None:
    """Raise NonPlaneCoordinates unless, at every vertex of degree >= 3, the
    counterclockwise order of the neighbors in the drawing equals the
    rotation row up to a cyclic shift.  Needs a plane drawing: no two edges
    at a vertex may share a direction."""
    for v in range(graph.vertex_count):
        row = graph.neighbors(v)
        if len(row) < 3:
            continue
        vx, vy = pts[v]
        dirs = {w: (pts[w][0] - vx, pts[w][1] - vy) for w in row}
        drawn = sorted(row, key=cmp_to_key(
            lambda p, q: angle_cmp(dirs[p], dirs[q])))
        i = row.index(drawn[0])
        if row[i:] + row[:i] != drawn:
            raise NonPlaneCoordinates(
                f"neighbors of vertex {v} are drawn in the order {drawn}, "
                f"not the rotation {row}")
