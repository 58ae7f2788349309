"""Round-trip, validation, and rendering tests for the file formats."""

from __future__ import annotations

import hashlib
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planeinsert.errors import (
    FNotInComplement,
    InvalidRotation,
    InvalidRoute,
    MissingCoordinates,
    NonPlaneCoordinates,
    SchemaError,
    StructureMismatch,
)
from planeinsert.instance_io import (
    INSERTED,
    make_instance,
    parse_instance,
    parse_solution,
    render_svg,
    write_instance,
    write_solution,
)
from planeinsert.oracle import iter_solutions
from planeinsert.reduction import Clause, MonotoneFormula, compile_formula
from planeinsert.plane_graph import (
    K4_ROTATION,
    build_from_rotation,
    generate_stacked_triangulation,
    sample_complement_edges,
)

from fixtures import (OCTA_COORDS, OCTA_ROTATION, bipyramid, octahedron,
                      solution)

K4_COORDS = [(0, 0), (4, 0), (2, 4), (2, 1)]

# The benchmark's compile shapes: two variables under one clause, three
# under one, and two under a clause on each side.
COMPILED_SHAPES = [
    MonotoneFormula(2, (Clause("pos", 2, (0, 1)),), (0, 1)),
    MonotoneFormula(3, (Clause("pos", 2, (0, 1, 2)),), (0, 1, 2)),
    MonotoneFormula(2, (Clause("pos", 2, (0, 1)), Clause("neg", 2, (0, 1))),
                    (0, 1)),
]


@pytest.fixture
def digit_limit():
    """Python's limit of 4300 digits for int(str), set for the test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no limit on integer digits")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def k4():
    return build_from_rotation(4, K4_ROTATION)


class TestInstance:
    def test_minimal_k4(self):
        text = ('{"k":1,"n":4,"rotation":[[1,3,2],[0,2,3],[1,0,3],[2,0,1]],'
                '"coords":null,"F":[],"f_structure":"none"}')
        inst = parse_instance(text)
        assert inst.F == ()
        assert inst.graph.edge_count == 6

    def test_f_must_be_nonedge(self):
        inst_f = [(0, 5)]
        with pytest.raises(FNotInComplement):
            make_instance(octahedron(), [(0, 1)])
        make_instance(octahedron(), inst_f)  # fine

    def test_matching_mismatch(self):
        with pytest.raises(StructureMismatch):
            make_instance(generate_stacked_triangulation(8, 1),
                          [(0, 5), (0, 7)], f_structure="matching")

    def test_path_structure(self):
        g = generate_stacked_triangulation(10, 4)
        pairs = sample_complement_edges(g, 3, 7, structure="path")
        make_instance(g, pairs, f_structure="path")
        with pytest.raises(StructureMismatch):
            make_instance(g, [pairs[0], pairs[2]], f_structure="path")

    @pytest.mark.parametrize("F, message", [
        ([(2, 4), (4, 6), (3, 5)], r"^F\[2\] does not extend the path$"),
        ([(2, 4), (4, 6), (6, 2)], "^path revisits a vertex$"),
    ], ids=["broken", "closed"])
    def test_path_that_breaks_or_closes_is_mismatch(self, F, message):
        # Chords of the equator cycle 2, 3, ..., 7 of bipyramid(6).
        with pytest.raises(StructureMismatch, match=message):
            make_instance(bipyramid(6), F, f_structure="path")

    def test_instance_text_must_be_an_object(self):
        with pytest.raises(SchemaError,
                           match="^instance must be a JSON object$"):
            parse_instance("[1, 2]")

    def test_duplicate_f_pair(self):
        with pytest.raises(SchemaError):
            make_instance(octahedron(), [(0, 5), (5, 0)])

    @pytest.mark.parametrize("bad", [0.5, 1.0, "a", None])
    def test_non_integer_f_entry_is_schema_error(self, bad):
        # array("q") rejects floats; np.array(F, dtype=np.int64) would
        # have read 0.5 as 0.
        with pytest.raises(SchemaError, match="non-integer endpoint"):
            make_instance(octahedron(), [(0, 5), (bad, 4)])
        text = write_instance(make_instance(octahedron(), [(0, 5)]))
        text = text.replace('"F":[[0,5]]', f'"F":[[0,5],[{bad!r},4]]')
        text = text.replace("'", '"').replace("None", "null")
        with pytest.raises(SchemaError, match="non-integer endpoint"):
            parse_instance(text)

    def test_malformed_f_entry_is_schema_error(self):
        for F in ([(0, 5), 3], [(0, 5, 1)], [(0,)]):
            with pytest.raises(SchemaError, match="is not a pair"):
                make_instance(octahedron(), F)

    def test_coords_non_crossing_enforced(self):
        # Planar rotation of K4 but coordinates that force a crossing:
        # vertex 3 outside the triangle 0,1,2 makes (0,3)/(2,3)-style
        # segments cut through others.
        bad = [(0, 0), (4, 0), (2, 4), (6, 4)]
        with pytest.raises(NonPlaneCoordinates):
            make_instance(k4(), [], coords=bad)
        make_instance(k4(), [], coords=K4_COORDS)

    def test_coords_must_match_rotation(self):
        mirrored = [list(reversed(row)) for row in K4_ROTATION]
        with pytest.raises(NonPlaneCoordinates, match="vertex 0"):
            make_instance(build_from_rotation(4, mirrored), [],
                          coords=K4_COORDS)
        make_instance(k4(), [], coords=K4_COORDS)
        make_instance(octahedron(), [], coords=OCTA_COORDS)

    def test_vertex_on_edge_rejected(self):
        bad = [(0, 0), (4, 0), (2, 4), (2, 0)]  # vertex 3 on edge (0,1)
        with pytest.raises(NonPlaneCoordinates):
            make_instance(k4(), [], coords=bad)

    @pytest.mark.parametrize("old, new, error, message", [
        pytest.param('"k":1,', '"k":true,', SchemaError,
                     "k must be a positive integer",
                     id="k-k must be a positive integer"),
        pytest.param('"n":6,', '"n":true,', SchemaError, "n must be int",
                     id="n-n must be int"),
        pytest.param('"rotation":[[1,', '"rotation":[[true,',
                     InvalidRotation, "^vertex 0: bad neighbor True$",
                     id="rotation-bad neighbor"),
        pytest.param('"F":[[0,5]]', '"F":[[true,3]]', SchemaError,
                     "non-integer endpoint", id="F-non-integer endpoint"),
        pytest.param('"coords":[[10,', '"coords":[[true,', SchemaError,
                     "coords must be rows of 4 integers",
                     id="coords-rows of 4 integers"),
    ])
    def test_json_booleans_are_not_integers(self, old, new, error, message):
        text = write_instance(make_instance(octahedron(), [(0, 5)],
                                            coords=OCTA_COORDS))
        assert text.count(old) == 1
        with pytest.raises(error, match=message):
            parse_instance(text.replace(old, new))

    @pytest.mark.parametrize("value", ["1.5", '"1"', "1.0", "null", "[1]"])
    def test_coords_must_be_json_integers(self, value):
        # Each of these made Fraction raise a bare TypeError.
        text = write_instance(make_instance(octahedron(), [(0, 5)],
                                            coords=OCTA_COORDS))
        text = text.replace('"coords":[[10,', f'"coords":[[{value},')
        with pytest.raises(SchemaError,
                           match="^coords must be rows of 4 integers$"):
            parse_instance(text)

    @pytest.mark.parametrize("F", [
        np.array([[5, 0], [1, 3]], dtype=np.int64),
        [(np.int64(5), np.int64(0)), (np.int32(1), 3)],
        [[5, 0], [1, 3]],
    ], ids=["int64 array", "numpy scalars", "lists"])
    def test_f_endpoints_become_exact_ints(self, F):
        inst = make_instance(octahedron(), F)
        assert inst.F == ((5, 0), (1, 3))
        assert {type(x) for pair in inst.F for x in pair} == {int}
        assert '"F":[[5,0],[1,3]]' in write_instance(inst)

    def test_make_instance_rejects_boolean_endpoints(self):
        with pytest.raises(SchemaError, match="non-integer endpoint"):
            # Read as 1, true would make the non-edge (1, 3).
            make_instance(octahedron(), [(True, 3)])

    @pytest.mark.parametrize("k", [True, 1.5, "1", None, 0, -1, False])
    def test_k_must_be_a_positive_integer(self, k):
        # true used to be written as "k":true, which parse_instance
        # rejects, 1.5 as "k":1.5, and "1" raised a bare TypeError.
        with pytest.raises(SchemaError, match="k must be a positive integer"):
            make_instance(octahedron(), [(0, 5)], k=k)

    @pytest.mark.parametrize("k", [1, 2, np.int64(3), np.int32(2)])
    def test_k_round_trips_as_an_exact_int(self, k):
        inst = make_instance(octahedron(), [(0, 5)], k=k)
        assert type(inst.k) is int and inst.k == k
        text = write_instance(inst)
        assert f'"k":{int(k)},' in text
        again = parse_instance(text)
        assert again.k == k and write_instance(again) == text

    @pytest.mark.parametrize("coords", [
        [(0, 0, 0)] + K4_COORDS[1:],
        [(0,)] + K4_COORDS[1:],
        [("a", 0)] + K4_COORDS[1:],
        [(0, None)] + K4_COORDS[1:],
        [(0, float("nan"))] + K4_COORDS[1:],
        [(0, float("inf"))] + K4_COORDS[1:],
        [(0, "1/0")] + K4_COORDS[1:],
        [0, 1, 2, 3],
        5,
    ], ids=["three values", "one value", "letter", "none", "nan", "inf",
            "zero denominator", "scalars", "not a list"])
    def test_unconvertible_coords_are_schema_errors(self, coords):
        # Rows of the wrong arity and entries like "a" used to raise a bare
        # ValueError, others a bare TypeError.
        with pytest.raises(SchemaError, match="coords must be"):
            make_instance(k4(), [], coords=coords)

    @pytest.mark.parametrize("row, written", [
        ("[2,4,-3,-6]", "[1,2,1,2]"),
        ("[0,-5,6,-4]", "[0,1,-3,2]"),
        ("[-4,-2,9,3]", "[2,1,3,1]"),
    ])
    def test_coords_are_written_in_lowest_terms(self, row, written):
        edge = build_from_rotation(2, [[1], [0]])
        text = write_instance(make_instance(edge, [], coords=[(0, 0), (5, 7)]))
        assert text.count('"coords":[[0,1,0,1],[5,1,7,1]]') == 1
        text = text.replace("[5,1,7,1]", row)
        assert write_instance(parse_instance(text)) == text.replace(row,
                                                                    written)

    def test_zero_denominator_is_schema_error(self):
        text = write_instance(make_instance(octahedron(), [(0, 5)],
                                            coords=OCTA_COORDS))
        assert text.count('"coords":[[10,1,4,1],') == 1
        with pytest.raises(SchemaError, match="^zero denominator in coords$"):
            parse_instance(text.replace("[10,1,4,1]", "[10,0,4,1]"))

    def test_over_long_integer_is_schema_error(self, digit_limit):
        # json.loads raises a plain ValueError past the digit limit.
        text = write_instance(make_instance(octahedron(), [(0, 5)]))
        text = text.replace('"k":1,', '"k":1' + "0" * 5000 + ",")
        with pytest.raises(SchemaError, match="^bad JSON: Exceeds"):
            parse_instance(text)

    def test_deep_nesting_is_schema_error(self):
        # json.loads raises RecursionError, not a ValueError.
        text = write_instance(make_instance(octahedron(), [(0, 5)]))
        deep = "[" * 100_000 + "]" * 100_000
        with pytest.raises(SchemaError, match="^bad JSON: maximum recursion"):
            parse_instance(text.replace('"coords":null', f'"coords":{deep}'))

    def test_roundtrip_bytes(self):
        g = generate_stacked_triangulation(9, 3)
        pairs = sample_complement_edges(g, 2, 5)
        inst = make_instance(g, pairs, k=2)
        text = write_instance(inst)
        assert write_instance(parse_instance(text)) == text

    @settings(max_examples=25, deadline=None)
    @given(st.integers(6, 14), st.integers(0, 999), st.integers(0, 3))
    def test_roundtrip_property(self, n, seed, m):
        g = generate_stacked_triangulation(n, seed)
        try:
            pairs = sample_complement_edges(g, m, seed)
        except Exception:
            return
        inst = make_instance(g, pairs)
        text = write_instance(inst)
        again = parse_instance(text)
        assert write_instance(again) == text
        assert again.F == inst.F


class TestSolution:
    def test_empty_routes(self):
        assert write_solution(solution()) == '{"routes":[]}\n'
        assert parse_solution('{"routes":[]}') == solution()

    def test_roundtrip(self):
        sol = solution([(1, 2)], [0])
        text = write_solution(sol)
        assert write_solution(parse_solution(text)) == text

    def test_forward_reference_rejected(self):
        with pytest.raises(SchemaError):
            solution([0])

    def test_over_long_integer_is_schema_error(self, digit_limit):
        text = '{"routes":[{"f_edge":1' + "0" * 5000 + ',"events":[]}]}'
        with pytest.raises(SchemaError, match="^bad JSON: Exceeds"):
            parse_solution(text)

    def test_deep_nesting_is_schema_error(self):
        text = '{"routes":' + "[" * 100_000 + "]" * 100_000 + "}"
        with pytest.raises(SchemaError, match="^bad JSON: maximum recursion"):
            parse_solution(text)

    def test_route_order_enforced(self):
        with pytest.raises(SchemaError):
            parse_solution('{"routes":[{"f_edge":1,"events":[]}]}')

    @pytest.mark.parametrize("route, message", [
        ('{"kind":"graph_edge","u":true,"v":2}', "needs ints u, v"),
        ('{"kind":"graph_edge","u":1,"v":false}', "needs ints u, v"),
        ('{"kind":"inserted","index":false}', "needs int index"),
    ])
    def test_json_booleans_are_not_integers(self, route, message):
        text = ('{"routes":[{"f_edge":0,"events":[]},'
                f'{{"f_edge":1,"events":[{route}]}}]}}')
        with pytest.raises(SchemaError, match=message):
            parse_solution(text)

    @pytest.mark.parametrize("f_edge", ["true", "1.0"])
    def test_f_edge_must_be_json_integer(self, f_edge):
        text = ('{"routes":[{"f_edge":0,"events":[]},'
                f'{{"f_edge":{f_edge},"events":[]}}]}}')
        with pytest.raises(SchemaError, match="must carry f_edge=1"):
            parse_solution(text)

    @pytest.mark.parametrize("events", ["5", '"ab"', '{"kind":"inserted"}'])
    def test_events_must_be_a_list(self, events):
        with pytest.raises(SchemaError, match="events must be a list"):
            parse_solution(f'{{"routes":[{{"f_edge":0,"events":{events}}}]}}')



class TestRender:
    def _inst(self, F=(), k=1):
        return make_instance(octahedron(), list(F), k=k, coords=OCTA_COORDS)

    def test_requires_coords(self):
        inst = make_instance(octahedron(), [])
        with pytest.raises(MissingCoordinates):
            render_svg(inst)

    def test_edge_count(self):
        svg = render_svg(self._inst())
        assert svg.count("<line ") == 12
        assert svg.count("<polyline") == 0

    def test_three_routes(self):
        inst = self._inst(F=[(0, 5), (1, 3), (2, 4)])
        sol = solution([(1, 2)], [(0, 4)], [(3, 5)])
        svg = render_svg(inst, sol)
        assert svg.count("<polyline") == 3
        assert svg.count("<line ") == 12

    def test_invalid_route_rejected(self):
        inst = self._inst(F=[(0, 5)])
        bad = solution([(0, 1)])
        with pytest.raises(InvalidRoute):
            render_svg(inst, bad)

    @pytest.mark.parametrize("pair", [(1, 2), (2, 1)])
    def test_crossed_edge_drawn_thick_in_either_order(self, pair):
        inst = self._inst(F=[(0, 5)])
        sol = solution([pair])
        assert render_svg(inst, sol).count('stroke-width="3"') == 1

    def test_deterministic(self):
        inst = self._inst(F=[(0, 5)])
        sol = solution([(1, 2)])
        assert render_svg(inst, sol) == render_svg(inst, sol)

    def test_renders_are_pinned(self):
        # sha256 over the render of every solution of the octahedron with
        # one, two and three antipodal pairs, k = 1 then k = 2.
        h = hashlib.sha256()
        renders = inserted = 0
        for k in (1, 2):
            for F in ([(0, 5)], [(0, 5), (1, 3)], [(0, 5), (1, 3), (2, 4)]):
                inst = self._inst(F=F, k=k)
                for sol in iter_solutions(inst):
                    h.update(render_svg(inst, sol).encode())
                    renders += 1
                    inserted += bool((sol.kind == INSERTED).any())
        assert (renders, inserted) == (72, 32)
        assert h.hexdigest() == ("b824fe0d3bcb064aba4a65fe5e140a07"
                                 "a544b49a802dd4e00e22269d22aec2a1")
        # The benchmark's compiled shapes, path then matching: their
        # coordinates lie on the 1/24 grid, most of them off the integers.
        h = hashlib.sha256()
        for formula in COMPILED_SHAPES:
            for variant in ("path", "matching"):
                inst, _ = compile_formula(formula, variant=variant)
                h.update(render_svg(inst).encode())
        assert h.hexdigest() == ("2b19af695dd4ed0711f8472787e86c5b"
                                 "443b6b187a880d8212e4138ec7522354")

    def test_render_reads_only_the_shape_of_the_drawing(self):
        # Scaling by 1/7 and moving by (1/3, -2/5) changes no position in
        # the picture, so every render, routes included, is the same text.
        F = [(0, 5), (1, 3), (2, 4)]
        inst = self._inst(F=F)
        moved = make_instance(octahedron(), F, coords=[
            (Fraction(x, 7) + Fraction(1, 3), Fraction(y, 7) - Fraction(2, 5))
            for x, y in OCTA_COORDS])
        assert moved.coords != inst.coords
        for sol in iter_solutions(inst):
            assert render_svg(moved, sol) == render_svg(inst, sol)
