"""Tests for the rotation-system embedding and its generators."""

from __future__ import annotations

import hashlib
import json
import random
import re
import sys
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planeinsert.errors import (
    AsymmetricAdjacency,
    Disconnected,
    InsufficientComplementPairs,
    InvalidArgument,
    InvalidRotation,
    NotPlanarEmbedding,
    PlaneInsertError,
    SamplerGaveUp,
)
from planeinsert import plane_graph
from planeinsert.instance_io import parse_instance
from planeinsert.plane_graph import (
    K4_ROTATION,
    SAMPLER_NODE_BUDGET,
    apex_pair,
    build_from_rotation,
    build_from_rows,
    complement_pairs,
    generate_stacked_triangulation,
    _csr,
    _succ,
    is_triangulation,
    sample_complement_edges,
)

from fixtures import (
    CUBE_ROTATION,
    K5_ROTATION,
    OCTA_ROTATION,
    cube,
    delete_edge_rotation,
    octahedron,
)
import embedding_reference
from instance_gen import instance_stream

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from families import grid_graph  # noqa: E402


def euler(g):
    return g.vertex_count - g.edge_count + g.face_count


def face_degrees(g) -> np.ndarray:
    """The dart count of every face, after checking that the face labels
    are constant along succ."""
    face = g.table("face")
    assert (face[g.table("succ")] == face).all()
    return np.bincount(face, minlength=g.face_count)


class TestBuild:
    def test_k4(self):
        g = build_from_rotation(4, K4_ROTATION)
        assert (g.vertex_count, g.edge_count, g.face_count) == (4, 6, 4)
        assert euler(g) == 2

    def test_single_triangle_has_two_faces(self):
        g = build_from_rotation(3, [[1, 2], [2, 0], [0, 1]])
        assert g.face_count == 2
        assert euler(g) == 2

    def test_k5_rotation_rejected(self):
        with pytest.raises(NotPlanarEmbedding):
            build_from_rotation(5, K5_ROTATION)

    def test_asymmetric_rejected(self):
        with pytest.raises(AsymmetricAdjacency):
            build_from_rotation(3, [[1, 2], [2, 0], [0]])

    def test_numpy_neighbours_get_the_plain_int_error(self):
        # The per-row diagnosis accepts any __index__ integer, as the
        # vector check does, so the same defect gets the same error.
        for one in (1, np.int64(1)):
            with pytest.raises(AsymmetricAdjacency,
                               match="^odd number of darts$"):
                build_from_rotation(3, [[one], [0], [0]])
        with pytest.raises(InvalidRotation, match="bad neighbor 1.0"):
            build_from_rotation(3, [[1.0], [0], [0]])

    def test_boolean_neighbour_rejected(self):
        with pytest.raises(InvalidRotation,
                           match="^vertex 0: bad neighbor True$"):
            build_from_rotation(2, [[True], [0]])

    @pytest.mark.parametrize("row", [5, None, True, 1.5])
    def test_row_that_is_no_list_rejected(self, row):
        # It raised a bare TypeError from the per-row diagnosis.
        rotation = [[1, 2, 3], row, [0, 1, 3], [0, 2, 1]]
        message = f"^vertex 1: row {row!r} is not a list$"
        with pytest.raises(InvalidRotation, match=message):
            build_from_rotation(4, rotation)
        text = json.dumps({"k": 1, "n": 4, "rotation": rotation,
                           "coords": None, "F": [], "f_structure": "none"})
        with pytest.raises(InvalidRotation, match=message):
            parse_instance(text)

    def test_row_with_no_neighbour_order_rejected(self):
        # An iterator raised a bare TypeError after the flatten had used it
        # up; a set and a dict were accepted in their iteration order.
        for row in (iter([1]), {1}, {1: 0}):
            message = f"^vertex 0: row {re.escape(repr(row))} is not a list$"
            with pytest.raises(InvalidRotation, match=message):
                build_from_rotation(2, [row, [0]])

    def test_rows_build_the_same_graph(self):
        g = build_from_rotation(6, OCTA_ROTATION)
        lengths = np.array([len(row) for row in OCTA_ROTATION])
        head = array("q", [w for row in OCTA_ROTATION for w in row])
        h = build_from_rows(6, lengths, head)
        assert h.rotation() == OCTA_ROTATION
        for slot in ("_offsets", "_twin", "_edge", "_face", "_edge_dart"):
            assert getattr(h, slot) == getattr(g, slot)
        with pytest.raises(InvalidRotation, match="rotation has 5 rows"):
            build_from_rows(6, lengths[:5], head)
        for bad in (lengths * 2, np.array([-1, 9, 4, 4, 4, 4]),
                    lengths.astype(np.int32)):
            with pytest.raises(InvalidArgument, match="row lengths"):
                build_from_rows(6, bad, head)

    def test_rows_of_the_wrong_type_rejected(self):
        # A list of lengths raised AttributeError, a None head TypeError,
        # and an array("i") head was read as int64 bytes and reported as
        # AsymmetricAdjacency.
        lengths = np.array([len(row) for row in OCTA_ROTATION])
        head = array("q", [w for row in OCTA_ROTATION for w in row])
        for bad, message in (((lengths.tolist(), head), "row lengths"),
                             ((lengths, None), "head"),
                             ((lengths, array("i", head)), "head")):
            with pytest.raises(InvalidArgument, match=message):
                build_from_rows(6, *bad)

    def test_loop_rejected(self):
        with pytest.raises(InvalidRotation):
            build_from_rotation(2, [[0, 1], [0]])

    def test_duplicate_rejected(self):
        with pytest.raises(InvalidRotation):
            build_from_rotation(2, [[1, 1], [0, 0]])

    def test_disconnected_rejected(self):
        with pytest.raises(Disconnected):
            build_from_rotation(4, [[1], [0], [3], [2]])

    def test_twin_involution_and_face_partition(self):
        g = octahedron()
        twin, edge = g.table("twin"), g.table("edge")
        darts = np.arange(len(twin))
        assert (twin[twin] == darts).all()
        assert (twin != darts).all()
        assert (edge[twin] == edge).all()
        assert face_degrees(g).sum() == 2 * g.edge_count


class TestTriangulation:
    def test_k4_true(self):
        assert is_triangulation(build_from_rotation(4, K4_ROTATION))

    def test_octahedron_true(self):
        assert is_triangulation(octahedron())

    def test_cube_false(self):
        assert not is_triangulation(cube())

    def test_triangle_too_small(self):
        g = build_from_rotation(3, [[1, 2], [2, 0], [0, 1]])
        assert not is_triangulation(g)

    def test_three_formulations_agree(self):
        # All triangles <=> E = 3V - 6, on triangulations and spoilt ones.
        for seed in range(100):
            g = generate_stacked_triangulation(5 + seed % 8, seed)
            assert is_triangulation(g)
            assert g.edge_count == 3 * g.vertex_count - 6
            assert (face_degrees(g) == 3).all()
        for seed in range(20):
            g = generate_stacked_triangulation(6 + seed % 6, seed)
            u = g.edge_endpoints(seed % g.edge_count)
            rot = delete_edge_rotation(g, *u)
            h = build_from_rotation(g.vertex_count, rot)
            assert not is_triangulation(h)
            assert h.edge_count != 3 * h.vertex_count - 6
            assert not (face_degrees(h) == 3).all()

    def test_counting_agrees_with_the_reference_walk(self):
        # The reference walks succ three times from every dart.  The graphs:
        # the benchmark's grid plus cone, instance_stream's graphs, each
        # with one edge deleted, and small graphs that are not
        # triangulations.
        graphs = [grid_graph(k, random.Random(k)) for k in (2, 3, 12)]
        graphs += stream_graphs()
        graphs += [build_from_rotation(g.vertex_count, delete_edge_rotation(
            g, *g.edge_endpoints(i % g.edge_count)))
            for i, g in enumerate(graphs)]
        graphs += [cube(), build_from_rotation(3, [[1, 2], [2, 0], [0, 1]]),
                   build_from_rotation(2, [[1], [0]])]
        seen = set()
        for g in graphs:
            want = embedding_reference.is_triangulation(g)
            assert is_triangulation(g) == want
            seen.add(want)
        assert seen == {True, False}


def test_edges_between_matches_edge_between():
    # Every vertex pair of small graphs, both orders, plus pairs outside
    # the vertices, some so large that lo*n wraps in int64.
    for g in (cube(), octahedron(), build_from_rotation(4, K4_ROTATION),
              generate_stacked_triangulation(40, 3)):
        n = g.vertex_count
        u, v = np.divmod(np.arange(-2 * (n + 2), (n + 2) ** 2), n + 2)
        u = np.concatenate((u, [2**62, -2**62, 3]))
        v = np.concatenate((v, [1, 2**62, -2**63]))
        want = [-1 if e is None else e for e in
                (g.edge_between(a, b) for a, b in zip(u.tolist(),
                                                      v.tolist()))]
        assert g.edges_between(u, v).tolist() == want
        assert g.edges_between(u, v).tolist() == want  # the kept order


def test_edges_between_widens_int32_ends():
    # Past n = 46,341 the code lo*n + hi of an int32 pair wraps in int32;
    # the codes are computed in int64 whatever the inputs' type.
    g = generate_stacked_triangulation(60000, 1)
    d = g.table("edge_dart")
    tail, head = g.table("head")[g.table("twin")[d]], g.table("head")[d]
    found = g.edges_between(tail.astype(np.int32), head.astype(np.int32))
    assert (found == np.arange(g.edge_count)).all()


def stream_graphs():
    """instance_stream's graphs."""
    for inst in instance_stream(60):
        yield inst.graph


def test_edge_order_is_the_sorted_edge_codes():
    # The build reads the order off its twin-pairing sort.
    for g in (*stream_graphs(), cube(), octahedron()):
        n = g.vertex_count
        head, d = g.table("head"), g.table("edge_dart")
        want = np.argsort(head[g.table("twin")[d]] * n + head[d])
        assert g.edge_order.tolist() == want.tolist()
        assert g.edge_order.dtype == np.min_scalar_type(g.edge_count)


@pytest.mark.parametrize("rows, n", [
    ([], 0), ([], 3), ([0], 1), ([2], 3), ([4, 4, 4, 4], 5),
    ([1, 0, 1, 0, 2, 1, 0], 3),
    (np.random.default_rng(5).integers(0, 40, 9_000), 40),
    (np.random.default_rng(6).integers(0, 9_000, 9_000), 9_000),
], ids=["empty", "empty rows", "one", "one row of three", "ties",
        "mixed", "many ties", "few ties"])
def test_csr_is_the_stable_sort_by_row(rows, n):
    # The packed-key sort against the stable argsort it replaces.
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.arange(len(rows), dtype=np.int64) * 7 + 3
    start, to = _csr(rows, cols, n)
    assert start.dtype == to.dtype == np.int64
    assert start.tolist() == [0, *np.cumsum(np.bincount(rows, minlength=n))]
    assert to.tolist() == cols[np.argsort(rows, kind="stable")].tolist()


def test_succ_is_a_read_only_table():
    for g in (*stream_graphs(), cube()):
        succ = g.table("succ")
        want = _succ(g.table("offsets"), g.table("twin"))
        assert succ.tolist() == want.tolist()
        assert [g.succ(d) for d in range(len(succ))] == want.tolist()
        assert not succ.flags.writeable
        with pytest.raises(ValueError):
            succ[0] = 0


class TestApex:
    def test_triangle(self):
        g = build_from_rotation(3, [[1, 2], [2, 0], [0, 1]])
        e = g.edge_between(0, 1)
        assert apex_pair(g, e) == (2, 2)

    def test_k4_apexes(self):
        g = build_from_rotation(4, K4_ROTATION)
        e = g.edge_between(0, 1)
        assert set(apex_pair(g, e)) == {2, 3}

    def test_octahedron_equator_apexes_are_poles(self):
        g = octahedron()
        for (x, w) in [(1, 2), (2, 3), (3, 4), (4, 1)]:
            e = g.edge_between(x, w)
            assert set(apex_pair(g, e)) == {0, 5}


class TestStackedGenerator:
    def test_n4_is_k4(self):
        for seed in (0, 1, 99):
            g = generate_stacked_triangulation(4, seed)
            assert g.rotation() == K4_ROTATION

    def test_n10_edge_count(self):
        g = generate_stacked_triangulation(10, 3)
        assert is_triangulation(g)
        assert g.edge_count == 24

    def test_deterministic(self):
        a = generate_stacked_triangulation(40, 11)
        b = generate_stacked_triangulation(40, 11)
        assert a.rotation() == b.rotation()

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            generate_stacked_triangulation(3, 0)

    def test_small_n_is_a_typed_error(self):
        with pytest.raises(PlaneInsertError, match="n >= 4"):
            generate_stacked_triangulation(3, 0)

    @pytest.mark.parametrize("n, seed", [
        (5.0, 0), (6, 1.5), (True, 0), (6, True), ("6", 0), (6, None),
    ])
    def test_non_integer_arguments_are_typed_errors(self, n, seed):
        # (5.0, 0) and (6, 1.5) used to raise a bare TypeError, and a bool
        # seed was read as 0 or 1.
        with pytest.raises(InvalidArgument, match="must be an integer"):
            generate_stacked_triangulation(n, seed)

    def test_numpy_integer_arguments_are_read_as_ints(self):
        g = generate_stacked_triangulation(np.int64(17), np.int32(4))
        want = generate_stacked_triangulation(17, 4)
        assert g.rotation() == want.rotation()
        assert (sample_complement_edges(g, np.int64(3), np.int64(9))
                == sample_complement_edges(g, 3, 9))

    def test_seeded_output_is_pinned(self):
        # Seeded instances must stay byte-identical across refactors.
        h = hashlib.sha256()
        for seed in range(201):
            for n in (4, 5, 17, 300):
                g = generate_stacked_triangulation(n, seed)
                h.update(repr(g.rotation()).encode())
        assert h.hexdigest() == ("cfa37b3c271f686766a672991d5fd9cf"
                                 "7035e33237e1ed0784b2ef0abdaf0429")

    def test_outer_face_is_triangle(self):
        # K4's face (2, 1, 3) is never stacked, so the face of dart 2 -> 1
        # is still that triangle.
        g = generate_stacked_triangulation(25, 5)
        d = g.dart_between(2, 1)
        face = g.table("face")
        on = np.flatnonzero(face == face[d])
        assert len(on) == 3
        tail = g.table("head")[g.table("twin")]
        assert set(tail[on].tolist()) == {1, 2, 3}

    @settings(max_examples=30, deadline=None)
    @given(st.integers(4, 30), st.integers(0, 10_000))
    def test_euler_and_twins_always_hold(self, n, seed):
        g = generate_stacked_triangulation(n, seed)
        assert euler(g) == 2
        assert face_degrees(g).sum() == 2 * g.edge_count


class TestComplementSampler:
    def test_complete_graph_has_no_pairs(self):
        g = build_from_rotation(4, K4_ROTATION)
        with pytest.raises(InsufficientComplementPairs):
            sample_complement_edges(g, 1, 0)

    @pytest.mark.parametrize("m, structure, message", [
        (1, "tree", "unknown structure 'tree'"),
        (-1, "none", "m must be >= 0"),
    ])
    def test_bad_arguments_are_typed_errors(self, m, structure, message):
        with pytest.raises(PlaneInsertError, match=message) as info:
            sample_complement_edges(octahedron(), m, 0, structure=structure)
        assert isinstance(info.value, InvalidArgument)

    @pytest.mark.parametrize("m, seed", [
        (1.5, 0), (True, 0), ("1", 0), (1, 0.5), (0, 0.5), (1, True),
        (0, None),
    ])
    def test_non_integer_arguments_are_typed_errors(self, m, seed):
        # (1.5, 0) used to raise a bare TypeError and (True, 0) to return
        # a pair.
        with pytest.raises(InvalidArgument, match="must be an integer"):
            sample_complement_edges(octahedron(), m, seed)

    def test_zero_is_empty(self):
        assert sample_complement_edges(octahedron(), 0, 0) == []

    def test_octahedron_matching_is_antipodal(self):
        g = octahedron()
        assert complement_pairs(g) == [(0, 5), (1, 3), (2, 4)]
        got = sample_complement_edges(g, 3, 17, structure="matching")
        assert sorted(got) == [(0, 5), (1, 3), (2, 4)]

    def test_impossible_structures_rejected_by_count(self):
        # Too few vertices: rejected by counting, before any search.
        g = generate_stacked_triangulation(17, 0)
        with pytest.raises(InsufficientComplementPairs,
                           match="no matching of size 9"):
            sample_complement_edges(g, 9, 0, structure="matching")
        g = generate_stacked_triangulation(12, 0)
        with pytest.raises(InsufficientComplementPairs,
                           match="no path of size 12"):
            sample_complement_edges(g, 12, 0, structure="path")

    @pytest.mark.parametrize("n, seed, m, structure, sampler_seed", [
        (24, 430, 12, "matching", 13337),
        (12, 3, 11, "path", 3),
        (12, 8, 11, "path", 8),
        (12, 9, 11, "path", 9),
        (14, 8, 13, "path", 8),
    ])
    def test_stalling_searches_end_within_the_budget(
            self, monkeypatch, n, seed, m, structure, sampler_seed):
        # Without a budget each of these searches was still running after
        # 10**6 candidates, 2 to 6 s.
        entered = [0]
        search = plane_graph.backtrack

        def counted(depth, choices, enter, leave, node_budget=None):
            def counted_enter(i, c):
                entered[0] += 1
                enter(i, c)
            return search(depth, choices, counted_enter, leave, node_budget)

        monkeypatch.setattr(plane_graph, "backtrack", counted)
        g = generate_stacked_triangulation(n, seed)
        try:
            pairs = sample_complement_edges(g, m, sampler_seed,
                                            structure=structure)
        except SamplerGaveUp as exc:
            assert f"the {structure} search gave up" in str(exc)
        else:
            assert len(pairs) == m
        assert entered[0] <= SAMPLER_NODE_BUDGET

    def test_path_past_recursion_depth(self):
        g = generate_stacked_triangulation(1024, 5)
        pairs = sample_complement_edges(g, 1000, 5, structure="path")
        verts = [pairs[0][0]] + [v for _, v in pairs]
        assert all(pairs[i][1] == pairs[i + 1][0] for i in range(999))
        assert len(set(verts)) == 1001
        assert not any(g.has_edge(u, v) for u, v in pairs)

    @pytest.mark.parametrize("structure", ["matching", "path"])
    def test_rejection_samplers_above_1024_vertices(self, structure):
        # Past n = 1,024 the samplers draw by rejection, not from a
        # shuffled complement.
        g = generate_stacked_triangulation(2000, 3)
        pairs = sample_complement_edges(g, 300, 7, structure=structure)
        assert len(pairs) == 300
        assert not any(g.has_edge(u, v) for u, v in pairs)
        if structure == "matching":
            assert len({x for p in pairs for x in p}) == 600
        else:
            assert all(pairs[i][1] == pairs[i + 1][0] for i in range(299))
            assert len({pairs[0][0], *(v for _, v in pairs)}) == 301
        assert sample_complement_edges(g, 300, 7,
                                       structure=structure) == pairs

    def test_deterministic(self):
        g = generate_stacked_triangulation(14, 2)
        a = sample_complement_edges(g, 5, 9)
        b = sample_complement_edges(g, 5, 9)
        assert a == b

    @settings(max_examples=40, deadline=None)
    @given(st.integers(8, 16), st.integers(0, 5000),
           st.sampled_from(["none", "matching", "path"]), st.integers(1, 4))
    def test_samples_are_valid(self, n, seed, structure, m):
        g = generate_stacked_triangulation(n, seed)
        try:
            pairs = sample_complement_edges(g, m, seed, structure=structure)
        except InsufficientComplementPairs:
            return
        assert len(pairs) == m
        assert len(set(tuple(sorted(p)) for p in pairs)) == m
        for u, v in pairs:
            assert u != v
            assert not g.has_edge(u, v)
        if structure == "matching":
            ends = [x for p in pairs for x in p]
            assert len(set(ends)) == 2 * m
        if structure == "path":
            for i in range(m - 1):
                shared = set(pairs[i]) & set(pairs[i + 1])
                assert len(shared) == 1
            verts = [pairs[0][0] if m == 1 or pairs[0][0] not in pairs[1]
                     else pairs[0][1]]
            for p in pairs:
                nxt = p[0] if p[1] == verts[-1] else p[1]
                verts.append(nxt)
            assert len(set(verts)) == m + 1
