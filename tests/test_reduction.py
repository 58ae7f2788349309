"""The hardness compiler: validated output, its file format, and the
builder's angular order."""

from __future__ import annotations

import pytest

from planeinsert.errors import LayoutInfeasible, NonPlaneCoordinates
from planeinsert.instance_io import make_instance, parse_instance, write_instance
from planeinsert.reduction import (
    Clause,
    GeometryBuilder,
    MonotoneFormula,
    compile_formula,
)


def test_compiled_instance_roundtrips_and_rejects_a_moved_vertex():
    formula = MonotoneFormula(2, (Clause("pos", 2, (0, 1)),), (0, 1))
    inst, atlas = compile_formula(formula, k=1, validate=True)
    text = write_instance(inst)
    assert write_instance(parse_instance(text)) == text

    w = atlas.plus_blocks[0]["grid"][0]
    u, v = next((u, v) for _, u, v in inst.graph.edges() if w not in (u, v))
    pts = list(inst.coords)
    pts[w] = ((pts[u][0] + pts[v][0]) / 2, (pts[u][1] + pts[v][1]) / 2)
    with pytest.raises(NonPlaneCoordinates):
        make_instance(inst.graph, inst.F, k=inst.k, coords=pts,
                      f_structure=inst.f_structure)


def test_builder_rejects_overlapping_directions():
    b = GeometryBuilder()
    s, near, far = b.vertex(0, 0, ()), b.vertex(1, 1, ()), b.vertex(2, 2, ())
    b.edge(s, near)
    b.edge(s, far)
    with pytest.raises(LayoutInfeasible):
        b.rotation()
