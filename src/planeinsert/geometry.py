"""Exact plane geometry: orientation, angular order and drawing checks.

This is the package's only module with orientation or angle code.  All
tests are exact.  Floating point only proposes an angular order, which
an exact pass then checks (see below).

- **One coordinate form.**  A drawing is a ``Grid(points, scale)``:
  vertex v at points[v] / scale, with exact int points and scale the
  least positive common denominator, so equal drawings give equal Grids.
  ``to_grid`` and ``rows_to_grid`` convert rational pairs and the file's
  [xn, xd, yn, yd] rows with one LCM, and ``coord_rows`` gives those rows
  back in lowest terms.  The checks read the points alone: the positive
  factor scale scales every orientation determinant and dot product by
  scale**2 and every coordinate comparison by scale, so each sign,
  equality and order they read is that of the drawing.  ``check_coords``
  is the one drawing check: the plane check, then the rotation check.
- **Array arithmetic.**  The checks hold the x and y columns in numpy
  arrays.  When every scaled |coordinate| is below 2**30, each difference
  of two coordinates is below 2**31, each product of two differences below
  2**62, and each determinant or dot product, a sum of two such products,
  below 2**63: int64 holds every value exactly.  Otherwise the columns are
  object arrays of Python ints and the same expressions run on them,
  exact at any size.
- **Candidate passes.**  ``check_plane`` runs two passes over candidate
  pairs, each a handful of whole-array expressions.  The vertex pass sorts
  the vertices by (x, y); one ``searchsorted`` gives, for every edge, the
  run of vertices inside its x-range; it keeps those inside its y-range
  that are not its endpoints and tests whether they lie inside the edge.
  The segment pass sorts the edge segments stably by their smallest x,
  x0, and pairs segment i with every later segment j with
  x0[j] <= x1[i], the largest x of i (again one ``searchsorted``), whose
  y-range overlaps i's.  These are exactly the pairs that a sweep with an
  active list tests (after Shamos & Hoey, "Geometric intersection
  problems", 1976, without the event queue): since x0 never decreases,
  segment i is still active at j exactly when x1[i] >= x0[j].  The exact
  conflict test then runs on those pairs in the four branches of the
  scalar test it replaced: identical segments, one shared endpoint (an
  overlap when the other endpoints are collinear with it and on the same
  side), a proper crossing, and an endpoint touching the other segment.
  Pairs are built in pieces of about ``_PIECE``, so memory stays
  linear.  On drawings whose segments are short against the drawing's
  width, both passes cost about O((V + E) log(V + E)) plus the pairs that
  really are close.  The worst case stays quadratic in time: many segments
  whose x-ranges all overlap, or many vertices in the x-range of one long
  edge.
- **First error.**  The error raised is the one the sweep meets first:
  vertex-pass errors before segment-pass errors; among vertex errors the
  least edge, then the least position in the (x, y) order; among segment
  errors the least current segment j, then the least active segment i, in
  the sorted order.  Each candidate piece reports its least error in that
  order, so the message does not depend on the piece size.
- **Angular order.**  ``angular_order`` is the one kernel for the
  counterclockwise order of darts around their tails, from the positive x
  axis.  It sorts the darts by (tail, float key) with one ``lexsort``,
  the key a float that increases with the angle (``_angle_keys``), and
  then checks every adjacent pair of a row exactly, with the half-plane
  and cross-product predicate ``_angle_sign`` (``angle_cmp`` over
  arrays).  A row whose adjacent pairs all increase strictly is in exact
  order: the order is transitive.  So the float keys only have to be
  close; a row they misorder or tie, such as near-parallel directions
  whose keys round to one float, fails the check and goes to the one
  comparator sort, with ``angle_cmp``, over its darts in input order.
  That sort also reports the rows in which it met two darts of one
  direction.  The compiler derives its rotations with this kernel.
- **Rotation check.**  ``check_rotation`` compares each vertex's exact
  counterclockwise neighbor order with its rotation row.  It runs only
  when an instance carries coordinates, after the plane check passed, so
  no two edges at a vertex share a direction.  A cyclic sequence of
  distinct values is a cyclic shift of its sorted order exactly when it
  has one cyclic descent: a shifted sorted order descends only where the
  largest value is followed by the least, and a sequence with one
  descent, read from just after it, ascends all the way round.  So one
  array pass compares every dart with its successor in its row with
  ``_angle_sign``, and a row of degree >= 3 fails exactly when its
  descent count is not 1.  A failing row is then ordered by
  ``angular_order``, which also builds the message.  Instances without
  coordinates pay nothing.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from .errors import NonPlaneCoordinates, SchemaError
from .plane_graph import PlaneGraph

# One point: numbers, or equal-length int64 or object arrays of x and y
# values.
Point = tuple

# Scaled coordinates below this in magnitude run in int64 (see above).
_INT64_BOUND = 1 << 30

# Candidate pairs built at a time.
_PIECE = 1 << 16


def orient(a: Point, b: Point, c: Point):
    """Sign of the turn a -> b -> c: 1 left, -1 right, 0 collinear.  On
    arrays of points it returns an array of signs."""
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) * 1 - (v < 0) * 1


def angle_cmp(a: Point, b: Point) -> int:
    """Compare direction vectors by counterclockwise angle from the
    positive x axis, in [0, 2*pi).  Returns 0 exactly when a and b point
    the same way."""
    return int(_angle_sign(a[0], a[1], b[0], b[1]))


def _angle_sign(ax, ay, bx, by) -> np.ndarray:
    """angle_cmp over arrays of direction pairs (int64 or object arrays):
    -1 where a comes first, 1 where b does, 0 where both point the same
    way."""
    ua = (ay > 0) | ((ay == 0) & (ax > 0))  # angle in [0, pi)
    ub = (by > 0) | ((by == 0) & (bx > 0))
    cross = ax * by - ay * bx
    return np.where(ua == ub, (cross < 0) * 1 - (cross > 0) * 1,
                    ub * 1 - ua * 1)


def _angle_keys(dx, dy) -> np.ndarray:
    """Float sort keys in [0, 4) that increase with the directions' angle
    from the positive x axis: the "diamond angle", dy / (|dx| + |dy|) put
    on the quadrant it belongs to; 0 for a zero direction.  On Python ints
    the division is Python's, correctly rounded at any size."""
    s = abs(dx) + abs(dy)
    p = (dy / np.where(s == 0, 1, s)).astype(float)
    return np.where(dx >= 0, np.where(dy >= 0, p, 4 + p), 2 - p)


def _comparator_sort(xs: list, ys: list) -> tuple[list[int], bool]:
    """The positions of the directions (xs[i], ys[i]) sorted with angle_cmp
    (stably), and whether the sort met two of one direction."""
    tied = False

    def cmp(p: int, q: int) -> int:
        nonlocal tied
        c = angle_cmp((xs[p], ys[p]), (xs[q], ys[q]))
        tied = tied or c == 0
        return c

    return sorted(range(len(xs)), key=cmp_to_key(cmp)), tied


def angular_order(pts: Sequence[tuple[int, int]], tail: np.ndarray,
                  head: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The darts tail[i] -> head[i] between integer points, sorted by tail
    and then counterclockwise by direction from the positive x axis, as
    positions into tail; and the tails at which the comparator sort met
    two darts of one direction.  tail must not decrease.

    Float keys propose the order and one exact pass over adjacent pairs
    checks it; a row that fails is sorted again with angle_cmp, its darts
    taken in input order (see the module docstring)."""
    X, Y = _columns(pts)
    dx, dy = X[head] - X[tail], Y[head] - Y[tail]
    order = np.lexsort((_angle_keys(dx, dy), tail))
    sx, sy = dx[order], dy[order]
    bad = (tail[1:] == tail[:-1]) & (
        _angle_sign(sx[:-1], sy[:-1], sx[1:], sy[1:]) >= 0)
    tied = []
    for v in dict.fromkeys(tail[1:][bad].tolist()):
        lo, hi = np.searchsorted(tail, (v, v + 1)).tolist()
        perm, tie = _comparator_sort(dx[lo:hi].tolist(), dy[lo:hi].tolist())
        order[lo:hi] = np.add(perm, lo)
        if tie:
            tied.append(v)
    return order, tied


@dataclass(frozen=True)
class Grid:
    """An exact drawing: vertex v at points[v] / scale.  The constructor
    takes any integer points over a positive integer scale and divides
    both by their greatest common divisor, which leaves scale the least
    positive common denominator: two equal drawings give equal Grids."""

    points: tuple[tuple[int, int], ...]
    scale: int

    def __post_init__(self):
        try:
            pts = tuple((operator.index(x), operator.index(y))
                        for x, y in self.points)
            scale = operator.index(self.scale)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"a grid holds (x, y) pairs of integers: "
                              f"{exc}") from exc
        if scale < 1:
            raise SchemaError("a grid's scale must be a positive integer")
        g = math.gcd(scale, *chain.from_iterable(pts))
        if g > 1:
            pts = tuple((x // g, y // g) for x, y in pts)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "scale", scale // g)


def to_grid(coords) -> Grid:
    """(x, y) pairs of rationals as a Grid: ints, Fractions, or any value
    Fraction reads.  Raises SchemaError for anything else."""
    try:
        rows = [[*Fraction(x).as_integer_ratio(),
                 *Fraction(y).as_integer_ratio()] for x, y in coords]
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise SchemaError(f"coords must be (x, y) pairs of rationals: "
                          f"{exc}") from exc
    return rows_to_grid(rows)


def rows_to_grid(rows: Sequence[Sequence[int]]) -> Grid:
    """Rows [xn, xd, yn, yd] of ints, in any terms and signs, as a Grid:
    the points times the LCM of the denominators, reduced by the Grid.
    Raises SchemaError for a zero denominator."""
    nums = [n for xn, _, yn, _ in rows for n in (xn, yn)]
    dens = [d for _, xd, _, yd in rows for d in (xd, yd)]
    if 0 in dens:
        raise SchemaError("zero denominator in coords")
    m = math.lcm(*dens)
    flat = [n * (m // d) for n, d in zip(nums, dens)]
    return Grid(tuple(zip(flat[0::2], flat[1::2])), m)


def coord_rows(grid: Grid) -> list[list[int]]:
    """Each point as the row [xn, xd, yn, yd] of its coordinates in lowest
    terms, denominators positive."""
    s = grid.scale
    terms = {c: (c // g, s // g)
             for c in set(chain.from_iterable(grid.points))
             for g in (math.gcd(c, s),)}
    return [[*terms[x], *terms[y]] for x, y in grid.points]


def check_coords(graph: PlaneGraph, grid: Grid) -> None:
    """Raise NonPlaneCoordinates unless the straight-line drawing of grid
    is plane and agrees with the graph's rotation system."""
    columns = _columns(grid.points)
    check_plane(graph, grid.points, columns)
    check_rotation(graph, grid.points, columns)


def _columns(pts: Sequence[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """The x and y columns of integer points: int64 when every
    |coordinate| < 2**30, otherwise object arrays of Python ints."""
    flat = list(chain.from_iterable(pts))
    small = -_INT64_BOUND < min(flat) and max(flat) < _INT64_BOUND
    arr = np.array(flat, dtype=np.int64 if small else object)
    return arr[0::2], arr[1::2]


def _pieces(lo: np.ndarray, hi: np.ndarray
            ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The pairs (r, c) with lo[r] <= c < hi[r], in row-major order, as
    (rows, cols) arrays of about _PIECE pairs each (one row may exceed)."""
    counts = hi - lo
    ends = np.cumsum(counts)
    r0 = 0
    while r0 < len(counts):
        base = int(ends[r0 - 1]) if r0 else 0
        r1 = max(int(np.searchsorted(ends, base + _PIECE, "right")), r0 + 1)
        c = counts[r0:r1]
        rows = np.repeat(np.arange(r0, r1), c)
        cols = np.arange(len(rows)) + np.repeat(lo[r0:r1] + c - ends[r0:r1]
                                                + base, c)
        yield rows, cols
        r0 = r1


def _same(a: Point, b: Point) -> np.ndarray:
    return (a[0] == b[0]) & (a[1] == b[1])


def _pick(mask: np.ndarray, a: Point, b: Point) -> Point:
    return np.where(mask, a[0], b[0]), np.where(mask, a[1], b[1])


def _in_box(a: Point, b: Point, c: Point) -> np.ndarray:
    """Does c lie in the closed bounding box of a and b?"""
    return (((a[0] <= c[0]) | (b[0] <= c[0]))
            & ((c[0] <= a[0]) | (c[0] <= b[0]))
            & ((a[1] <= c[1]) | (b[1] <= c[1]))
            & ((c[1] <= a[1]) | (c[1] <= b[1])))


def _conflicts(p1: Point, p2: Point, q1: Point, q2: Point) -> np.ndarray:
    """Do closed segments p1p2 and q1q2 meet anywhere besides a shared
    endpoint?  Exact, over arrays of segment pairs."""
    p1_shared = _same(p1, q1) | _same(p1, q2)
    p2_shared = _same(p2, q1) | _same(p2, q2)
    # {p1, p2} == {q1, q2}: identical segments.
    identical = p1_shared & p2_shared & ~_same(p1, p2)
    # One shared endpoint s: a conflict when the other endpoints a and b
    # are collinear with s and on the same side of it.
    one = (p1_shared | p2_shared) & ~identical
    s = _pick(p1_shared, p1, p2)
    a = _pick(p1_shared, p2, p1)
    b = _pick(_same(q1, s), q2, q1)
    overlap = (orient(s, a, b) == 0) & (
        (a[0] - s[0]) * (b[0] - s[0]) + (a[1] - s[1]) * (b[1] - s[1]) > 0)
    # No shared endpoint: a proper crossing, or an endpoint on the other
    # segment (no endpoint equals one of the other segment's here).
    o1, o2 = orient(p1, p2, q1), orient(p1, p2, q2)
    o3, o4 = orient(q1, q2, p1), orient(q1, q2, p2)
    proper = ((o1 != o2) & (o3 != o4) & ((o1 != 0) | (o2 != 0))
              & ((o3 != 0) | (o4 != 0)))
    touch = (((o1 == 0) & _in_box(p1, p2, q1))
             | ((o2 == 0) & _in_box(p1, p2, q2))
             | ((o3 == 0) & _in_box(q1, q2, p1))
             | ((o4 == 0) & _in_box(q1, q2, p2)))
    return (identical | (one & overlap)
            | (~(p1_shared | p2_shared) & (proper | touch)))


def check_plane(graph: PlaneGraph, pts: Sequence[tuple[int, int]],
                columns: tuple[np.ndarray, np.ndarray] | None = None) -> None:
    """Raise NonPlaneCoordinates when a vertex lies inside an edge segment,
    two edge segments meet beyond a shared endpoint, or two vertices are
    drawn on one point.  The points are integers, as a Grid holds them;
    columns, when given, are their _columns.

    Every vertex inside an edge also makes its own edges meet that edge;
    the vertex pass runs first so that the error names the vertex.  Two
    vertices on one point are looked for last, so that a drawing the
    other passes reject keeps their message."""
    X, Y = _columns(pts) if columns is None else columns
    head, d = graph.table("head"), graph.table("edge_dart")
    eu, ev = head[graph.table("twin")[d]], head[d]
    a, b = (X[eu], Y[eu]), (X[ev], Y[ev])
    x_lo, x_hi = np.minimum(a[0], b[0]), np.maximum(a[0], b[0])
    y_lo, y_hi = np.minimum(a[1], b[1]), np.maximum(a[1], b[1])

    order = np.lexsort((Y, X))
    xs = X[order]
    for e, i in _pieces(np.searchsorted(xs, x_lo, "left"),
                        np.searchsorted(xs, x_hi, "right")):
        w = order[i]
        keep = ((y_lo[e] <= Y[w]) & (Y[w] <= y_hi[e])
                & (w != eu[e]) & (w != ev[e]))
        e, w = e[keep], w[keep]
        ae, be, c = (a[0][e], a[1][e]), (b[0][e], b[1][e]), (X[w], Y[w])
        hit = (orient(ae, be, c) == 0) & ~_same(c, ae) & ~_same(c, be)
        if hit.any():
            k = int(np.argmax(hit))
            raise NonPlaneCoordinates(
                f"vertex {w[k]} lies on edge ({eu[e[k]]},{ev[e[k]]})")

    by_x0 = np.argsort(x_lo, kind="stable")
    sx_lo, sx_hi = x_lo[by_x0], x_hi[by_x0]
    sy_lo, sy_hi = y_lo[by_x0], y_hi[by_x0]
    m = len(by_x0)
    first = None
    for i, j in _pieces(np.arange(1, m + 1),
                        np.searchsorted(sx_lo, sx_hi, "right")):
        keep = (sy_lo[j] <= sy_hi[i]) & (sy_lo[i] <= sy_hi[j])
        i, j = i[keep], j[keep]
        ei, ej = by_x0[i], by_x0[j]
        hit = _conflicts((a[0][ei], a[1][ei]), (b[0][ei], b[1][ei]),
                         (a[0][ej], a[1][ej]), (b[0][ej], b[1][ej]))
        if hit.any():
            key = int((j[hit] * m + i[hit]).min())
            first = key if first is None else min(first, key)
    if first is not None:
        ei, ej = by_x0[first % m], by_x0[first // m]
        raise NonPlaneCoordinates(
            f"edges ({eu[ei]},{ev[ei]}) and ({eu[ej]},{ev[ej]}) cross")

    ys = Y[order]
    same = (xs[1:] == xs[:-1]) & (ys[1:] == ys[:-1])
    if same.any():
        k = int(np.argmax(same))
        raise NonPlaneCoordinates(
            f"vertices {order[k]} and {order[k + 1]} are drawn on one point")


def check_rotation(graph: PlaneGraph, pts: Sequence[tuple[int, int]],
                   columns: tuple[np.ndarray, np.ndarray] | None = None
                   ) -> None:
    """Raise NonPlaneCoordinates unless, at every vertex of degree >= 3, the
    counterclockwise order of the neighbors in the drawing equals the
    rotation row up to a cyclic shift.  Needs a plane drawing of integer
    points, columns as for check_plane: no two edges at a vertex may share
    a direction."""
    X, Y = _columns(pts) if columns is None else columns
    offsets = graph.table("offsets")
    head = graph.table("head")
    tail = head[graph.table("twin")]
    d = np.arange(len(head))
    nxt = np.where(d + 1 == offsets[tail + 1], offsets[tail], d + 1)
    dx, dy = X[head] - X[tail], Y[head] - Y[tail]
    descent = _angle_sign(dx, dy, dx[nxt], dy[nxt]) > 0
    suspect = np.bincount(tail[descent], minlength=graph.vertex_count) != 1
    suspect &= np.diff(offsets) >= 3
    if not suspect.any():
        return
    darts = np.flatnonzero(suspect[tail])
    order, _ = angular_order(pts, tail[darts], head[darts])
    drawn = head[darts[order]].tolist()
    start = 0
    for v in np.flatnonzero(suspect).tolist():
        row = graph.neighbors(v)
        got = drawn[start:start + len(row)]
        start += len(row)
        i = row.index(got[0])
        if row[i:] + row[:i] != got:
            raise NonPlaneCoordinates(
                f"neighbors of vertex {v} are drawn in the order {got}, "
                f"not the rotation {row}")
