"""The array kernels of build_from_rotation, make_instance's F check,
enumerate_options and compute_clashes against their loop versions in
embedding_reference.py: equal dart tables, options, clash lists (order
included) and reducer traces, and the same exception type and message on
malformed rotations and malformed F, also under ``python -O``.  The
connectivity kernel is also pinned by its round count."""

from __future__ import annotations

import math
import subprocess
import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest

import embedding_reference as ref
from planeinsert._rng import Lcg64
from planeinsert.errors import NotTriangulation
from planeinsert.instance_io import make_instance
from planeinsert.plane_graph import (
    K4_ROTATION,
    PlaneGraph,
    _components,
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


def assert_same_graph(got: PlaneGraph, want) -> None:
    """got against the reference's (graph, (tail, eu, ev)): equal tables,
    and the tails and edge ends the reference finds its own way equal to
    head[twin], head[twin[edge_dart]] and head[edge_dart] of got."""
    want, (tail, eu, ev) = want
    assert len(SLOTS) == 7
    head, twin, ed = (got.table(s) for s in ("head", "twin", "edge_dart"))
    assert head[twin].tolist() == tail.tolist()
    assert head[twin[ed]].tolist() == eu.tolist()
    assert head[ed].tolist() == ev.tolist()
    for slot in SLOTS:
        a, b = getattr(got, slot), getattr(want, slot)
        assert (a.typecode, a) == (b.typecode, b), slot
    a, b = got.edge_order, want.edge_order
    assert (a.dtype, a.tolist()) == (b.dtype, b.tolist())
    assert ((got.vertex_count, got.edge_count, got.face_count)
            == (want.vertex_count, want.edge_count, want.face_count))


def assert_same_solver_stages(inst) -> None:
    want_cat = ref.enumerate_options(inst)
    got_cat = enumerate_options(inst)
    for column in ("f_edge", "options", "f_start", "by_f", "alive",
                   "live_count"):
        a, b = getattr(got_cat, column), getattr(want_cat, column)
        assert (a.dtype, a.tolist()) == (b.dtype, b.tolist()), column
    f_options = ref.f_options(want_cat.f_edge.tolist(), len(inst.F))
    assert got_cat.f_options == f_options
    assert got_cat.live_count.tolist() == [len(os) for os in f_options]
    assert got_cat.alive.tolist() == [1] * len(want_cat.options)
    want_cl, want_adj = ref.compute_clashes(want_cat)
    got_cl = compute_clashes(got_cat)
    assert list(got_cl.adj) == want_adj
    for column in ("start", "to"):
        a, b = getattr(got_cl, column), getattr(want_cl, column)
        assert (a.dtype, a.tolist()) == (b.dtype, b.tolist()), column
    want_trace: list = []
    got_trace: list = []
    want = reduce_instance(want_cat, want_cl, want_trace)
    got = reduce_instance(got_cat, got_cl, got_trace)
    assert got_trace == want_trace
    if isinstance(want, Verdict):
        assert got is want
    else:
        assert ((got.committed, got.alive.tolist(), got.live_count.tolist())
                == (want.committed, want.alive.tolist(),
                    want.live_count.tolist()))


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
        assert_same_graph(g, want)
        if n > 5:
            for F in (planted_single_options(g, seed), apex_pairs(g)):
                assert_same_solver_stages(make_instance(g, F))


def test_instance_stream_matches_reference():
    for inst in instance_stream(120):
        g = inst.graph
        want = ref.build_from_rotation(g.vertex_count, g.rotation())
        assert_same_graph(g, want)
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
    assert np.bincount(g.table("face")).max() > 8
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
    # V - E + F = 8 - 12 + (4 + 2) = 2: only connectivity rejects it.
    "plane K4 plus toroidal K4": (8, K4_ROTATION + [
        [w + 4 for w in row] for row in
        [list(reversed(K4_ROTATION[0]))] + K4_ROTATION[1:]]),
    "disconnected, vertex 0 isolated": (3, [[], [2], [1]]),
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


def f_error_cases() -> tuple[PlaneGraph, dict[str, list]]:
    """Malformed F on a stacked graph with n = 12: each defect alone
    (first and last among good pairs) and mixed with the others."""
    g = generate_stacked_triangulation(12, 3)
    good = apex_pairs(g)[:4]
    u, v = good[0]
    x, w = g.edge_endpoints(5)
    defects = {
        "out of range": (3, 12),
        "negative": (-1, 4),
        "huge": (2**70, 1),
        "equal endpoints": (7, 7),
        "graph edge": (x, w),
        "reversed graph edge": (w, x),
        "duplicate": (u, v),
        "reversed duplicate": (v, u),
    }
    cases = {}
    for name, pair in defects.items():
        cases[f"{name} first"] = [pair] + good
        cases[f"{name} last"] = good + [pair]
    cases["range then edge"] = good[:2] + [(0, 99), (x, w), (v, u)]
    cases["edge then duplicate"] = good + [(w, x), (v, u), (5, 5)]
    cases["duplicate then equal"] = good + [(u, v), (4, 4), (x, w)]
    cases["equal then range"] = [(9, 9)] + good + [(12, 0)]
    return g, cases


def error_mismatches() -> list[str]:
    out = []
    for name, (n, rotation) in ERROR_CASES.items():
        want = raised(ref.build_from_rotation, n, rotation)
        got = raised(build_from_rotation, n, rotation)
        if want[0] == "no error" or got != want:
            out.append(f"{name}: got {got}, reference {want}")
    g, cases = f_error_cases()
    for name, F in cases.items():
        want = raised(ref.check_f, g, F)
        got = raised(make_instance, g, F)
        if want[0] == "no error" or got != want:
            out.append(f"F {name}: got {got}, reference {want}")
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


# --- connectivity kernel ----------------------------------------------------


def component_minima(n: int, edges) -> list[int]:
    """Least vertex of every vertex's component, by BFS."""
    nbr: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbr[u].append(v)
        nbr[v].append(u)
    label = [-1] * n
    for s in range(n):
        if label[s] < 0:
            label[s] = s
            queue = deque([s])
            while queue:
                for w in nbr[queue.popleft()]:
                    if label[w] < 0:
                        label[w] = s
                        queue.append(w)
    return label


def components(n: int, edges) -> tuple[list[int], int]:
    e = np.array(edges, dtype=np.int64).reshape(-1, 2)
    root, rounds = _components(n, e.min(axis=1), e.max(axis=1))
    return root.tolist(), rounds


def test_components_match_bfs():
    rng = Lcg64(11)
    for trial in range(300):
        n = 1 + rng.below(60)
        m = rng.below(2 * n)
        edges = [(u, v) for u, v in ((rng.below(n), rng.below(n))
                                     for _ in range(m)) if u != v]
        root, rounds = components(n, edges)
        assert root == component_minima(n, edges), (n, edges)
        assert rounds <= 2 * math.log2(n) + 1


def relabelled(n: int, edges: list[tuple[int, int]],
               seed: int) -> list[tuple[int, int]]:
    perm = list(range(n))
    Lcg64(seed).shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def nested_triangles(t: int) -> list[tuple[int, int]]:
    """t nested triangles, corner j of each joined to corner j of the
    next one."""
    edges = []
    for i in range(t):
        for j in range(3):
            edges.append((3 * i + j, 3 * i + (j + 1) % 3))
            if i + 1 < t:
                edges.append((3 * i + j, 3 * i + 3 + j))
    return edges


def stacked_edges(n: int, seed: int) -> list[tuple[int, int]]:
    """Edges of a random stacked triangulation: K4, then each new vertex
    joined to the corners of a random face."""
    rng = Lcg64(seed)
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    faces = [(0, 1, 2), (0, 2, 3), (0, 3, 1)]
    for x in range(4, n):
        i = rng.below(len(faces))
        a, b, c = faces[i]
        edges += [(a, x), (b, x), (c, x)]
        faces[i] = (a, b, x)
        faces += [(b, c, x), (c, a, x)]
    return edges


@pytest.mark.parametrize("family", ["path", "nested triangles", "stacked"])
def test_connectivity_rounds_on_relabelled_graphs(family):
    # Long shortcut chains and many local minima, at n = 10^5; the proven
    # bound is 2*log2(n) + 1 = 34 rounds.
    n = 100_000
    if family == "path":
        edges = [(v, v + 1) for v in range(n - 1)]
    elif family == "nested triangles":
        n -= n % 3
        edges = nested_triangles(n // 3)
    else:
        edges = stacked_edges(n, 5)
    root, rounds = components(n, relabelled(n, edges, 7))
    assert root == [0] * n
    assert rounds <= 12
