"""The exact-geometry module against its references: the pairwise plane
checker in plane_reference.py, and the sweep and sort that the array
passes replaced, in geometry_reference.py, on the int64 path and the
object path alike, also under ``python -O``.  Neither reference rejects
two vertices on one point, so both are compared with that rule,
`_distinct_points`, run after them."""

from __future__ import annotations

import math
import random
import subprocess
import sys
from fractions import Fraction
from functools import cmp_to_key
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planeinsert import geometry
from planeinsert.errors import (
    LayoutInfeasible,
    NonPlaneCoordinates,
    SchemaError,
)
from planeinsert.instance_io import make_instance
from planeinsert.plane_graph import (
    K4_ROTATION,
    build_from_rotation,
    generate_stacked_triangulation,
)
from planeinsert.reduction import GeometryBuilder

import geometry_reference as ref
from fixtures import OCTA_COORDS, counted_angle_cmp, octahedron
from plane_reference import _check_plane_coords

# Outer face (2, 1, 3), as in generate_stacked_triangulation.
K4_DRAWING = [(3, 2), (0, 0), (3, 6), (6, 0)]


def _fr(*xy):
    return [(Fraction(x), Fraction(y)) for x, y in xy]


def stacked_drawing(n: int, seed: int):
    """A stacked triangulation and a plane drawing of it that agrees with
    its rotation.  Vertex x >= 4 was stacked into the face of its three
    lower-numbered neighbors; their centroid lies inside that face."""
    g = generate_stacked_triangulation(n, seed)
    pts = _fr(*K4_DRAWING)
    for x in range(4, n):
        corners = [w for w in g.neighbors(x) if w < x]
        pts.append((sum(pts[w][0] for w in corners) / 3,
                    sum(pts[w][1] for w in corners) / 3))
    return g, pts


# name -> (graph, plane drawing that agrees with its rotation)
GRAPHS = {
    "k4": (build_from_rotation(4, K4_ROTATION), _fr(*K4_DRAWING)),
    "octahedron": (octahedron(), _fr(*OCTA_COORDS)),
    "stacked6": stacked_drawing(6, 1),
    "stacked8": stacked_drawing(8, 5),
}

# Small rationals on a coarse grid, so that shared x or y values, repeated
# points, collinear triples and vertices on edges come up often.
COORD = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


def _degenerate_targets(g, pts):
    """Existing points, edge midpoints, and for each edge (u, v) the point
    one edge length past v: moving a neighbor of u there makes two edges
    overlap along a line through their shared endpoint."""
    out = list(pts)
    for _, u, v in g.edges():
        (x1, y1), (x2, y2) = pts[u], pts[v]
        out.append(((x1 + x2) / 2, (y1 + y2) / 2))
        out.append((2 * x2 - x1, 2 * y2 - y1))
    return out


@st.composite
def drawings(draw):
    """Either random small-rational points, or a plane drawing with one or
    two vertices moved to a random point, a degenerate target, or the x or
    y value of another vertex."""
    name = draw(st.sampled_from(sorted(GRAPHS)))
    g, plane = GRAPHS[name]
    n = g.vertex_count
    if draw(st.booleans()):
        return name, draw(st.lists(st.tuples(COORD, COORD), min_size=n,
                                   max_size=n))
    pts = list(plane)
    targets = _degenerate_targets(g, plane)
    for _ in range(draw(st.integers(1, 2))):
        w = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(("random", "target", "align_x",
                                     "align_y")))
        if kind == "random":
            pts[w] = draw(st.tuples(COORD, COORD))
        elif kind == "target":
            pts[w] = draw(st.sampled_from(targets))
        else:
            t = draw(st.integers(0, n - 1))
            pts[w] = ((pts[t][0], pts[w][1]) if kind == "align_x"
                      else (pts[w][0], pts[t][1]))
    return name, pts


def _distinct_points(pts) -> None:
    """Raise NonPlaneCoordinates naming the first two vertices, in (x, y)
    then index order, that are drawn on one point."""
    order = sorted(range(len(pts)), key=lambda w: pts[w])
    for a, b in zip(order, order[1:]):
        if pts[a] == pts[b]:
            raise NonPlaneCoordinates(
                f"vertices {a} and {b} are drawn on one point")


def _pairwise_reference(graph, pts) -> None:
    _check_plane_coords(graph, pts)
    _distinct_points(pts)


def _rejects(check, graph, pts) -> bool:
    try:
        check(graph, pts)
    except NonPlaneCoordinates:
        return True
    return False


@settings(max_examples=400, deadline=None)
@given(drawings())
# A plane drawing of K4.
@example(("k4", _fr((0, 0), (4, 0), (2, 4), (2, 1))))
# Collinear overlap at a shared endpoint: (0,3) runs along (0,1) past 1.
@example(("k4", _fr((0, 0), (2, 0), (2, 4), (3, 0))))
# Vertex 3 inside edge (0,1).
@example(("k4", _fr((0, 0), (4, 0), (2, 4), (2, 0))))
# Identical points along one axis: all on x = 1, then all on y = -2.
@example(("k4", _fr((1, 0), (1, 1), (1, 2), (1, 3))))
@example(("octahedron", _fr((0, -2), (1, -2), (2, -2), (3, -2), (4, -2),
                            (5, -2))))
# Two vertices on one point.
@example(("k4", _fr((0, 0), (4, 0), (2, 4), (0, 0))))
# Edges (0,1) and (2,3) drawn on one vertical segment.
@example(("k4", _fr((0, 0), (0, 2), (0, 0), (0, 2))))
def test_sweep_matches_pairwise_reference(drawing):
    name, pts = drawing
    g = GRAPHS[name][0]
    ours = _rejects(geometry.check_plane, g, ref.scale_to_integers(pts))
    assert ours == _rejects(_pairwise_reference, g, tuple(pts))


@pytest.mark.parametrize("pts", [
    [(0, 0), (4, 0), (2, 4), (2, 0)],   # on a horizontal edge
    [(0, 0), (0, 4), (3, 2), (0, 2)],   # on a vertical edge
    [(0, 0), (4, 4), (4, 0), (1, 1)],   # on a diagonal edge
])
def test_vertex_inside_an_edge_is_named(pts):
    with pytest.raises(NonPlaneCoordinates,
                       match=r"vertex 3 lies on edge \(0,1\)"):
        geometry.check_plane(GRAPHS["k4"][0], pts)


@pytest.mark.parametrize("rotation, pts", [
    # The path 0-1-2-3 with its ends on one point.
    ([[1], [0, 2], [1, 3], [2]], [(0, 0), (2, 0), (1, 2), (0, 0)]),
    # A zero-length edge (0, 1) in a star.
    ([[1, 2, 3], [0], [0], [0]], [(0, 0), (0, 0), (1, 1), (-1, 1)]),
])
def test_two_vertices_on_one_point_are_rejected(rotation, pts):
    g = build_from_rotation(len(pts), rotation)
    with pytest.raises(NonPlaneCoordinates,
                       match=r"vertices 0 and \d are drawn on one point"):
        geometry.check_plane(g, pts)
    with pytest.raises(NonPlaneCoordinates, match="one point"):
        make_instance(g, [], coords=pts)


def test_plane_drawings_pass_and_mirror_images_fail():
    for name, (g, pts) in GRAPHS.items():
        geometry.check_coords(g, geometry.to_grid(pts))
        mirrored = [(-x, y) for x, y in pts]
        with pytest.raises(NonPlaneCoordinates, match="rotation"):
            geometry.check_coords(g, geometry.to_grid(mirrored))


def test_scaling_keeps_orientation():
    pts = _fr((0, 0), (Fraction(1, 3), Fraction(1, 2)), (Fraction(2, 3), 1),
              (Fraction(-5, 6), Fraction(1, 4)))
    grid = geometry.to_grid(pts)
    ints = grid.points
    assert (ints, grid.scale) == (((0, 0), (4, 6), (8, 12), (-10, 3)), 12)
    for a, b, c in ((0, 1, 2), (0, 1, 3), (3, 2, 1)):
        assert (geometry.orient(ints[a], ints[b], ints[c])
                == geometry.orient(pts[a], pts[b], pts[c]))


# Rationals in any terms and signs, some past 2**63 in numerator or
# denominator, as (numerator, denominator) with a nonzero denominator.
RATIO = st.tuples(
    st.one_of(st.integers(-12, 12), st.integers(-2**70, 2**70)),
    st.one_of(st.integers(-12, 12), st.integers(-2**70, 2**70)).filter(bool))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(RATIO, RATIO), max_size=6))
def test_grid_conversions_match_lcm_scaling(pairs):
    fracs = [(Fraction(*x), Fraction(*y)) for x, y in pairs]
    rows = [[*x, *y] for x, y in pairs]
    grid = geometry.rows_to_grid(rows)
    assert grid.points == tuple(ref.scale_to_integers(fracs))
    assert grid.scale == math.lcm(*(c.denominator for p in fracs for c in p))
    assert geometry.to_grid(fracs) == grid
    # Scaled up in every way, it is the same Grid.
    assert geometry.Grid([(3 * x, 3 * y) for x, y in grid.points],
                         3 * grid.scale) == grid
    assert geometry.coord_rows(grid) == [
        [x.numerator, x.denominator, y.numerator, y.denominator]
        for x, y in fracs]


@pytest.mark.parametrize("points, scale", [
    ([(0.5, 0)], 1), ([(0, "1")], 1), ([(0, 1, 2)], 1), ([(0, 0)], 0),
    ([(0, 0)], -2), ([(0, 0)], 1.0)])
def test_grid_takes_integer_points_over_a_positive_scale(points, scale):
    with pytest.raises(SchemaError, match="^a grid"):
        geometry.Grid(points, scale)


def test_zero_denominator_is_a_schema_error():
    with pytest.raises(SchemaError, match="^zero denominator in coords$"):
        geometry.rows_to_grid([[1, 2, 3, 4], [1, 0, 3, 4]])


def test_angle_cmp_orders_counterclockwise_from_east():
    dirs = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]
    for i, a in enumerate(dirs):
        for j, b in enumerate(dirs):
            want = (i > j) - (i < j)
            assert geometry.angle_cmp(a, b) == want
    assert geometry.angle_cmp((2, 2), (1, 1)) == 0


# --- the array passes against the sweep and the sort ----------------------


def _outcome(checks, g, pts) -> str:
    """"ok", or the message of the plane check's or else the rotation
    check's NonPlaneCoordinates, as check_coords runs them."""
    try:
        checks.check_plane(g, pts)
        checks.check_rotation(g, pts)
    except NonPlaneCoordinates as exc:
        return str(exc)
    return "ok"


def _reference_plane(g, pts) -> None:
    ref.check_plane(g, pts)
    _distinct_points(pts)


# The sweep with `_distinct_points` after it, and the sort.
REFERENCE = SimpleNamespace(check_plane=_reference_plane,
                            check_rotation=ref.check_rotation)


def difference(case) -> str | None:
    name, pts = case
    g = GRAPHS[name][0]
    got, want = _outcome(geometry, g, pts), _outcome(REFERENCE, g, pts)
    return None if got == want else (
        f"{name} {pts}: got {got!r}, reference {want!r}")


@st.composite
def int_drawings(draw, scale: int = 1):
    """drawings() scaled to integers, mirrored or not, times scale."""
    name, pts = draw(drawings())
    sign = draw(st.sampled_from((1, -1)))
    return name, [(sign * x * scale, y * scale)
                  for x, y in ref.scale_to_integers(pts)]


# Coordinates on both sides of the int64 bound 2**30.
EDGE = st.sampled_from((0, 1, -1, 2**30 - 1, -(2**30 - 1), 2**30, -(2**30)))


@st.composite
def boundary_drawings(draw):
    """Points drawn from EDGE, or an integer drawing shifted so that its
    largest x is 2**30 - 1 or 2**30."""
    name, pts = draw(int_drawings())
    if draw(st.booleans()):
        return name, draw(st.lists(st.tuples(EDGE, EDGE), min_size=len(pts),
                                   max_size=len(pts)))
    shift = draw(st.sampled_from((2**30 - 1, 2**30))) - max(x for x, _ in pts)
    return name, [(x + shift, y) for x, y in pts]


FAMILIES = {
    "small": int_drawings(),
    "scaled_2_40": int_drawings(2**40),
    "int64_boundary": boundary_drawings(),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_array_checks_match_sweep_and_sort(family, data):
    assert difference(data.draw(FAMILIES[family])) is None


def mismatches(examples: int) -> list[str]:
    """The differences from the reference over `examples` derandomized
    cases of every family."""
    out: list[str] = []
    for family in FAMILIES.values():
        @settings(max_examples=examples, deadline=None, database=None,
                  derandomize=True)
        @given(family)
        def run(case):
            found = difference(case)
            if found is not None:
                out.append(found)

        run()
    return out


def test_array_checks_match_reference_without_asserts():
    # Under -O every assert is gone; the checks may not rest on one.
    here = Path(__file__).resolve().parent
    code = ("import test_geometry as t\n"
            "print(__debug__)\n"
            "print('\\n'.join(t.mismatches(150)) or 'ok')\n")
    run = subprocess.run([sys.executable, "-O", "-c", code],
                         env={"PYTHONPATH": f"{here.parent / 'src'}:{here}"},
                         cwd=here, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split("\n", 1) == ["False", "ok\n"]


def test_int64_path_ends_at_2_30():
    for bound, dtype in ((2**30 - 1, np.int64), (2**30, object)):
        for pts in ([(bound, 0)], [(0, -bound)]):
            assert all(col.dtype == dtype for col in geometry._columns(pts))


@pytest.mark.parametrize("bound", [2**30 - 1, 2**30, 2**40])
def test_k4_on_the_int64_boundary(bound):
    # K4_DRAWING's outer triangle stretched to the corners, vertex 0 at
    # the origin: plane and agreeing with the rotation; mirrored, not.
    pts = [(0, 0), (-bound, -bound), (0, bound), (bound, -bound)]
    assert _outcome(geometry, GRAPHS["k4"][0], pts) == "ok"
    mirrored = [(-x, y) for x, y in pts]
    assert "rotation" in _outcome(geometry, GRAPHS["k4"][0], mirrored)
    assert difference(("k4", mirrored)) is None


def test_small_pieces_give_the_same_outcomes(monkeypatch):
    # Pairs built a few at a time: the first error must not move.
    monkeypatch.setattr(geometry, "_PIECE", 3)
    assert mismatches(60) == []


SEGMENT_ENDS = st.tuples(st.integers(-2, 2), st.integers(-2, 2))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(SEGMENT_ENDS, SEGMENT_ENDS, SEGMENT_ENDS,
                          SEGMENT_ENDS), min_size=1, max_size=40),
       st.sampled_from((1, 2**40)))
def test_conflict_arrays_match_segments_conflict(quads, scale):
    # Every branch, touching included, which check_plane's vertex pass
    # settles before the segment pass can reach it.
    quads = [[(x * scale, y * scale) for x, y in q] for q in quads]
    X, Y = geometry._columns([p for q in quads for p in q])
    ends = [(X[k::4], Y[k::4]) for k in range(4)]
    got = geometry._conflicts(*ends).tolist()
    assert got == [ref.segments_conflict(*q) for q in quads]


# --- the angular-order kernel against the comparator sort ------------------

# The eight symmetries of the square grid, as maps of a direction.
SYMMETRIES = tuple(
    (lambda x, y, sx=sx, sy=sy, swap=swap:
     ((sy * y, sx * x) if swap else (sx * x, sy * y)))
    for sx in (1, -1) for sy in (1, -1) for swap in (False, True))


def near_parallel(m: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Two directions whose exact cross product is -1 and, for m of 2**29
    and up, whose float sort keys are equal."""
    return (m, m - 1), (m - 1, m - 2)


def random_stars(seed: int, bound: int, count: int = 30):
    """Seeded stars: (points, tail, head) with tail not decreasing.  Each
    centre gets random directions below bound, some of them repeated
    (scaled by 2), some near-parallel pairs in a random octant, and now and
    then a leaf on the centre (a zero direction)."""
    rng = random.Random(seed)
    pts: list[tuple[int, int]] = []
    tail: list[int] = []
    head: list[int] = []
    for _ in range(count):
        c = len(pts)
        cx, cy = rng.randrange(-bound, bound), rng.randrange(-bound, bound)
        pts.append((cx, cy))
        dirs: list[tuple[int, int]] = []
        while len(dirs) < rng.randrange(1, 9):
            r = rng.random()
            if r < 0.15 and dirs:
                x, y = rng.choice(dirs)
                dirs.append((2 * x, 2 * y) if 2 * max(abs(x), abs(y)) < bound
                            else (x, y))
            elif r < 0.3:
                f = rng.choice(SYMMETRIES)
                dirs.extend(f(*d) for d in near_parallel(bound - 1))
            elif r < 0.33:
                dirs.append((0, 0))
            else:
                dirs.append((rng.randrange(-bound, bound),
                             rng.randrange(-bound, bound)))
        for dx, dy in dirs:
            tail.append(c)
            head.append(len(pts))
            pts.append((cx + dx, cy + dy))
    return pts, np.array(tail), np.array(head)


def reference_order(pts, tail, head) -> tuple[list[int], list[int]]:
    """The darts sorted row by row with geometry_reference's angle_cmp, in
    input order, and the rows whose sort compared two darts as equal."""
    order: list[int] = []
    tied: list[int] = []
    rows = sorted(set(tail.tolist()))
    for v in rows:
        darts = np.flatnonzero(tail == v).tolist()
        met = []

        def cmp(p, q):
            c = ref.angle_cmp(
                (pts[head[p]][0] - pts[v][0], pts[head[p]][1] - pts[v][1]),
                (pts[head[q]][0] - pts[v][0], pts[head[q]][1] - pts[v][1]))
            met.append(c == 0)
            return c

        order += sorted(darts, key=cmp_to_key(cmp))
        if any(met):
            tied.append(v)
    return order, tied


# bound -> seeds; 2**28 keeps every point below 2**30 (int64), the others
# are Python ints.
STAR_RANGES = {2**28: range(12), 2**61: range(12, 18), 2**100: range(18, 21)}


def kernel_mismatches() -> list[str]:
    out = []
    for bound, seeds in STAR_RANGES.items():
        for seed in seeds:
            pts, tail, head = random_stars(seed, bound)
            dtype = geometry._columns(pts)[0].dtype
            if dtype != (np.int64 if bound < 2**30 else object):
                out.append(f"seed {seed}: columns are {dtype}")
            order, tied = geometry.angular_order(pts, tail, head)
            want = reference_order(pts, tail, head)
            if (order.tolist(), tied) != want:
                out.append(f"seed {seed}: got {order.tolist()}, {tied}; "
                           f"reference {want}")
    return out


def test_angular_order_matches_the_comparator_sort():
    assert kernel_mismatches() == []


def test_angular_order_matches_without_asserts():
    # Under -O every assert is gone; the kernel may not rest on one.
    here = Path(__file__).resolve().parent
    code = ("import test_geometry as t\n"
            "print(__debug__)\n"
            "print('\\n'.join(t.kernel_mismatches()) or 'ok')\n")
    run = subprocess.run([sys.executable, "-O", "-c", code],
                         env={"PYTHONPATH": f"{here.parent / 'src'}:{here}"},
                         cwd=here, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split("\n", 1) == ["False", "ok\n"]


@pytest.mark.parametrize("m", [2**29, 2**61])
def test_float_ties_reach_the_exact_fallback(monkeypatch, m):
    # (m, m - 1) is one unit of cross product counterclockwise of
    # (m - 1, m - 2), but their float keys are equal, so only the exact
    # pass can order them.
    a, b = near_parallel(m)
    assert a[0] * b[1] - a[1] * b[0] == -1
    dx, dy = geometry._columns([a, b])
    keys = geometry._angle_keys(dx, dy).tolist()
    assert keys[0] == keys[1]
    calls = counted_angle_cmp(monkeypatch)
    for leaves in ([a, b, (-1, 0)], [b, a, (-1, 0)], [(0, -1), a, b]):
        pts = [(0, 0), *leaves]
        order, tied = geometry.angular_order(pts, np.zeros(3, np.int64),
                                             np.arange(1, 4))
        assert [pts[1 + i] for i in order.tolist()] == sorted(
            leaves, key=cmp_to_key(ref.angle_cmp))
        assert tied == []
    assert calls


def test_equal_directions_are_reported_and_rejected_by_the_builder():
    pts = [(0, 0), (3, 5), (6, 10), (-1, 0)]
    order, tied = geometry.angular_order(pts, np.zeros(3, np.int64),
                                         np.arange(1, 4))
    assert tied == [0]
    b = GeometryBuilder()
    centre = b.vertex(0, 0, ())
    for x, y in pts[1:]:
        b.edge(centre, b.vertex(x, y, ()))
    with pytest.raises(LayoutInfeasible,
                       match="^overlapping edge directions at a vertex$"):
        b.rotation()
