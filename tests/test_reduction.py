"""The hardness compiler: validated output, its file format, its argument
checks, and the builder's edge and angular-order checks."""

from __future__ import annotations

import pytest

from planeinsert.errors import (
    KNotOne,
    LayoutInfeasible,
    NonPlaneCoordinates,
    SchemaError,
    StructureMismatch,
)
from planeinsert.instance_io import make_instance, parse_instance, write_instance
from planeinsert.reduction import (
    Clause,
    GeometryBuilder,
    MonotoneFormula,
    compile_formula,
    parse_formula,
    write_formula,
)

TWO_VARS_ONE_CLAUSE = MonotoneFormula(2, (Clause("pos", 2, (0, 1)),), (0, 1))


@pytest.mark.parametrize("variant, sizes", [
    ("path", (278, 451, 49)),
    ("matching", (266, 430, 12)),
], ids=["path", "matching"])
def test_compiled_instance_roundtrips_and_rejects_a_moved_vertex(variant,
                                                                 sizes):
    inst, atlas = compile_formula(TWO_VARS_ONE_CLAUSE, k=1, variant=variant,
                                  validate=True)
    assert inst.f_structure == variant
    assert (inst.graph.vertex_count, inst.graph.edge_count,
            len(inst.F)) == sizes
    text = write_instance(inst)
    assert write_instance(parse_instance(text)) == text

    w = atlas.plus_blocks[0]["grid"][0]
    u, v = next((u, v) for _, u, v in inst.graph.edges() if w not in (u, v))
    pts = list(inst.coords)
    pts[w] = ((pts[u][0] + pts[v][0]) / 2, (pts[u][1] + pts[v][1]) / 2)
    with pytest.raises(NonPlaneCoordinates):
        make_instance(inst.graph, inst.F, k=inst.k, coords=pts,
                      f_structure=inst.f_structure)


@pytest.mark.parametrize("kwargs, error", [
    ({"k": 0}, KNotOne),
    ({"k": 2}, KNotOne),
    ({"k": 3}, KNotOne),
    ({"k": 4}, KNotOne),
    ({"variant": "cycle"}, StructureMismatch),
], ids=["k=0", "k=2", "k=3", "k=4", "variant=cycle"])
def test_compile_rejects_unbuilt_arguments(kwargs, error):
    with pytest.raises(error):
        compile_formula(TWO_VARS_ONE_CLAUSE, validate=False, **kwargs)


def test_formula_text_roundtrips_and_rejects_malformed_json():
    f = MonotoneFormula(3, (Clause("pos", 2, (0, 1, 2)),
                            Clause("neg", 3, (2,))), (1, 0, 2))
    assert parse_formula(write_formula(f)) == f
    for text in ('{"variables": 2,', '{"variables": 2}', '[1, 2]'):
        with pytest.raises(SchemaError):
            parse_formula(text)


def test_builder_rejects_duplicate_edges_and_loops():
    b = GeometryBuilder()
    s, t = b.vertex(0, 0, ()), b.vertex(1, 0, ())
    b.edge(s, t)
    with pytest.raises(LayoutInfeasible):
        b.edge(t, s)
    with pytest.raises(LayoutInfeasible):
        b.edge(s, s)


def test_builder_rejects_overlapping_directions():
    b = GeometryBuilder()
    s, near, far = b.vertex(0, 0, ()), b.vertex(1, 1, ()), b.vertex(2, 2, ())
    b.edge(s, near)
    b.edge(s, far)
    with pytest.raises(LayoutInfeasible):
        b.rotation()
