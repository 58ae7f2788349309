"""The array kernels of build_from_rotation, enumerate_options and
compute_clashes against their loop versions in embedding_reference.py:
equal dart tables, options, clash lists (order included) and reducer
traces, and the same exception type and message on malformed rotations,
also under ``python -O``."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import embedding_reference as ref
from planeinsert.errors import NotTriangulation
from planeinsert.instance_io import make_instance
from planeinsert.plane_graph import (
    K4_ROTATION,
    PlaneGraph,
    apex_pair,
    build_from_rotation,
    generate_stacked_triangulation,
)
from planeinsert.reduction import Clause, MonotoneFormula, compile_formula
from planeinsert.tri_insert import (
    compute_clashes,
    enumerate_options,
    reduce_instance,
)
from planeinsert.verdicts import Verdict

from fixtures import K5_ROTATION
from instance_gen import instance_stream, planted_single_options

SLOTS = tuple(s for s in PlaneGraph.__slots__ if s.startswith("_"))


def assert_same_graph(got: PlaneGraph, want: PlaneGraph) -> None:
    assert len(SLOTS) == 10
    for slot in SLOTS:
        a, b = getattr(got, slot), getattr(want, slot)
        assert (a.typecode, a) == (b.typecode, b), slot
    assert ((got.vertex_count, got.edge_count, got.face_count,
             got.outer_face)
            == (want.vertex_count, want.edge_count, want.face_count,
                want.outer_face))


def assert_same_solver_stages(inst) -> None:
    want_cat = ref.enumerate_options(inst)
    got_cat = enumerate_options(inst)
    assert got_cat.options == want_cat.options
    assert got_cat.f_options == want_cat.f_options
    assert got_cat.option_of_edge == want_cat.option_of_edge
    want_cl = ref.compute_clashes(want_cat)
    got_cl = compute_clashes(got_cat)
    assert got_cl.adj == want_cl.adj
    want_trace: list = []
    got_trace: list = []
    want = reduce_instance(want_cat, want_cl, want_trace)
    got = reduce_instance(got_cat, got_cl, got_trace)
    assert got_trace == want_trace
    if isinstance(want, Verdict):
        assert got is want
    else:
        assert ((got.committed, got.alive, got.live_count)
                == (want.committed, want.alive, want.live_count))


def apex_pairs(g: PlaneGraph) -> list[tuple[int, int]]:
    """Every apex pair that is a non-edge: options with several clash
    partners each, so the order of the clash lists is tested."""
    pairs = sorted({tuple(sorted(apex_pair(g, e)))
                    for e in range(g.edge_count)})
    return [p for p in pairs if not g.has_edge(*p)]


@pytest.mark.parametrize("n, seeds", [
    (4, range(3)), (5, range(5)), (17, range(8)), (300, range(4)),
    (3000, range(2)),
])
def test_stacked_graphs_match_reference(n, seeds):
    for seed in seeds:
        g = generate_stacked_triangulation(n, seed)
        rot = g.rotation()
        want = ref.build_from_rotation(n, rot)
        assert_same_graph(build_from_rotation(n, rot), want)
        assert_same_graph(g, want.with_outer_face(g.outer_face))
        if n > 5:
            for F in (planted_single_options(g, seed), apex_pairs(g)):
                assert_same_solver_stages(make_instance(g, F))


def test_instance_stream_matches_reference():
    for inst in instance_stream(120):
        g = inst.graph
        want = ref.build_from_rotation(g.vertex_count, g.rotation())
        assert_same_graph(g, want.with_outer_face(g.outer_face))
        assert_same_solver_stages(inst)


@pytest.mark.parametrize("variant", ["path", "matching"])
@pytest.mark.parametrize("formula", [
    MonotoneFormula(2, (Clause("pos", 2, (0, 1)),), (0, 1)),
    MonotoneFormula(3, (Clause("neg", 2, (2, 0, 1)),), (1, 2, 0)),
    MonotoneFormula(2, (Clause("pos", 2, (0, 1)), Clause("neg", 2, (1, 0))),
                    (1, 0)),
], ids=["2v1c", "3v1c", "2v2c"])
def test_compiled_graphs_match_reference(formula, variant):
    # Compiled drawings have long faces: several rounds of the doubling.
    inst, _ = compile_formula(formula, k=1, variant=variant, validate=False)
    g = inst.graph
    assert max(g.face_degree(f) for f in range(g.face_count)) > 8
    assert_same_graph(g, ref.build_from_rotation(g.vertex_count,
                                                 g.rotation()))
    for enumerate_ in (ref.enumerate_options, enumerate_options):
        with pytest.raises(NotTriangulation):
            enumerate_(inst)


# Malformed rotations: (vertex count, rotation).  Each must raise what the
# per-row reference raises, type and message.
ERROR_CASES = {
    "float neighbor": (2, [[1.0], [0]]),
    "string neighbor": (2, [["1"], [0]]),
    "huge neighbor": (2, [[2**70], [0]]),
    "out of range": (3, [[1, 2], [0, 3], [0]]),
    "negative": (2, [[-1], [0]]),
    "bad after good row": (3, [[1], [0, 2.5], [1]]),
    "loop": (2, [[0, 1], [0]]),
    "duplicate": (2, [[1, 1], [0, 0]]),
    "duplicate with odd darts": (3, [[1, 1], [0], [0]]),
    "u < v asymmetry": (4, [[1, 2], [0], [3], [2, 1]]),
    "unpaired u > v dart": (3, [[1], [0], [0, 1]]),
    "odd dart count": (3, [[1, 2], [0], [0, 1]]),
    "edgeless": (2, [[], []]),
    "disconnected": (4, [[1], [0], [3], [2]]),
    "genus 1": (4, [list(reversed(K4_ROTATION[0]))] + K4_ROTATION[1:]),
    "K5": (5, K5_ROTATION),
    "row not iterable": (2, [[1], 0]),
    "too few vertices": (1, [[]]),
    "row count": (3, [[1], [0]]),
}


def raised(build, n, rotation) -> tuple[str, str]:
    try:
        build(n, rotation)
    except Exception as exc:  # compared by type name and message
        return type(exc).__name__, str(exc)
    return "no error", ""


def error_mismatches() -> list[str]:
    out = []
    for name, (n, rotation) in ERROR_CASES.items():
        want = raised(ref.build_from_rotation, n, rotation)
        got = raised(build_from_rotation, n, rotation)
        if want[0] == "no error" or got != want:
            out.append(f"{name}: got {got}, reference {want}")
    return out


def test_errors_match_reference():
    assert error_mismatches() == []


def test_errors_match_reference_without_asserts():
    # Under -O every assert is gone; no input check may rest on one.
    here = Path(__file__).resolve().parent
    code = ("import test_embedding_kernels as t\n"
            "print(__debug__)\n"
            "print('\\n'.join(t.error_mismatches()) or 'ok')\n")
    run = subprocess.run([sys.executable, "-O", "-c", code],
                         env={"PYTHONPATH": f"{here.parent / 'src'}:{here}"},
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split("\n", 1) == ["False", "ok\n"]
