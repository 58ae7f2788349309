"""The exact-geometry module against the pairwise reference checker."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planeinsert import geometry
from planeinsert.errors import NonPlaneCoordinates
from planeinsert.plane_graph import (
    K4_ROTATION,
    build_from_rotation,
    generate_stacked_triangulation,
)

from fixtures import OCTA_COORDS, octahedron
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
    ours = _rejects(geometry.check_plane, g, geometry.scale_to_integers(pts))
    assert ours == _rejects(_check_plane_coords, g, tuple(pts))


@pytest.mark.parametrize("pts", [
    [(0, 0), (4, 0), (2, 4), (2, 0)],   # on a horizontal edge
    [(0, 0), (0, 4), (3, 2), (0, 2)],   # on a vertical edge
    [(0, 0), (4, 4), (4, 0), (1, 1)],   # on a diagonal edge
])
def test_vertex_inside_an_edge_is_named(pts):
    with pytest.raises(NonPlaneCoordinates,
                       match=r"vertex 3 lies on edge \(0,1\)"):
        geometry.check_plane(GRAPHS["k4"][0], pts)


def test_plane_drawings_pass_and_mirror_images_fail():
    for name, (g, pts) in GRAPHS.items():
        geometry.check_coords(g, pts)
        mirrored = [(-x, y) for x, y in pts]
        with pytest.raises(NonPlaneCoordinates, match="rotation"):
            geometry.check_coords(g, mirrored)


def test_scaling_keeps_orientation():
    pts = _fr((0, 0), (Fraction(1, 3), Fraction(1, 2)), (Fraction(2, 3), 1),
              (Fraction(-5, 6), Fraction(1, 4)))
    ints = geometry.scale_to_integers(pts)
    assert ints == [(0, 0), (4, 6), (8, 12), (-10, 3)]
    for a, b, c in ((0, 1, 2), (0, 1, 3), (3, 2, 1)):
        assert (geometry.orient(ints[a], ints[b], ints[c])
                == geometry.orient(pts[a], pts[b], pts[c]))


def test_angle_cmp_orders_counterclockwise_from_east():
    dirs = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]
    for i, a in enumerate(dirs):
        for j, b in enumerate(dirs):
            want = (i > j) - (i < j)
            assert geometry.angle_cmp(a, b) == want
    assert geometry.angle_cmp((2, 2), (1, 1)) == 0
