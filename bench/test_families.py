"""Self-tests of the benchmark: known answers, determinism, metric names.

Run from the repository root:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import families  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from planeinsert import (instance_io, oracle, plane_graph,  # noqa: E402
                         reduction, tri_insert, verifier)
from planeinsert.verdicts import Verdict  # noqa: E402

SEEDS = range(12)


def _stacked(seed: int):
    n = 12 + (seed * 7) % 29
    return plane_graph.generate_stacked_triangulation(n, seed)


def _instance_text(graph, F) -> str:
    return instance_io.write_instance(instance_io.make_instance(graph, F))


def _oracle(graph, F):
    inst = instance_io.make_instance(graph, F)
    return oracle.exact_solve_triangulation(inst)


@pytest.mark.parametrize("seed", SEEDS)
def test_clash_dense_is_infeasible(seed):
    g = _stacked(seed)
    F = families.clash_dense(g, random.Random(seed))
    assert _oracle(g, F) is Verdict.INFEASIBLE


@pytest.mark.parametrize("seed", SEEDS)
def test_planted_is_feasible(seed):
    g = _stacked(seed)
    for cap in (None, 3):
        F = families.planted(g, random.Random(seed), cap=cap)
        assert F
        assert not isinstance(_oracle(g, F), Verdict)


def test_grid_planted_is_feasible():
    sizes = []
    for seed in SEEDS:
        k = 5 + seed % 2
        g = families.grid_graph(k, random.Random(seed))
        assert plane_graph.is_triangulation(g)
        assert g.vertex_count == k * k + 1
        F = families.planted(g, random.Random(seed), option_count=2)
        opts = families.options_by_pair(g)
        assert all(len(opts[p]) == 2 for p in F)
        assert not isinstance(_oracle(g, F), Verdict)
        sizes.append(len(F))
    assert sum(sizes) >= len(SEEDS)


@pytest.mark.parametrize("seed", SEEDS)
def test_clash_rule_check_and_corruption(seed):
    g = _stacked(seed)
    F = families.planted(g, random.Random(seed))
    inst = instance_io.make_instance(g, F)
    text = instance_io.write_solution(tri_insert.solve(inst))
    assert families.clash_rule_violation(g, F, text) is None
    assert verifier.verify(inst, instance_io.parse_solution(text)).accepted

    bad = families.corrupt(g, F, text, random.Random(seed))
    assert families.clash_rule_violation(g, F, bad) is not None
    changed = [f for f, (a, b) in enumerate(zip(
        families.solution_routes(text), families.solution_routes(bad)))
        if a != b]
    assert len(changed) == 1
    assert not verifier.verify(inst, instance_io.parse_solution(bad)).accepted


def test_clash_rule_check_catches_a_clash():
    # Route one pair through edge e and another through a quad edge of e.
    g = _stacked(3)
    opts = families.options_by_pair(g)
    for e in range(g.edge_count):
        p1 = tuple(sorted(plane_graph.apex_pair(g, e)))
        q = families.quad_edges(g, e)[0]
        p2 = tuple(sorted(plane_graph.apex_pair(g, q)))
        if p1 in opts and p2 in opts and p1 != p2:
            break
    routes = [{"f_edge": i, "events": [
        {"kind": "graph_edge", "u": g.edge_endpoints(d)[0],
         "v": g.edge_endpoints(d)[1]}]} for i, d in enumerate((e, q))]
    why = families.clash_rule_violation(g, [p1, p2],
                                        json.dumps({"routes": routes}))
    assert why == "routes 0 and 1 clash"


@pytest.mark.parametrize("shape", sorted(families.FORMULA_SHAPES))
def test_formula_shapes_keep_their_counts(shape):
    counts = families.FORMULA_SHAPES[shape][1]
    for seed in range(4):
        f = families.formula(shape, random.Random(seed))
        inst, atlas = reduction.compile_formula(f, k=1, validate=False)
        assert (inst.graph.vertex_count, inst.graph.edge_count,
                len(inst.F)) == counts
        assert len(atlas.vertex_tags) == counts[0]


def test_families_are_deterministic():
    def build(seed):
        rng = random.Random(seed)
        g = plane_graph.generate_stacked_triangulation(300, seed)
        grid = families.grid_graph(12, rng)
        F = families.planted(g, rng, cap=40)
        sol = instance_io.write_solution(
            tri_insert.solve(instance_io.make_instance(g, F)))
        texts = [
            _instance_text(g, families.clash_dense(g, rng)),
            _instance_text(g, F),
            _instance_text(grid, families.planted(grid, rng,
                                                      option_count=2)),
            families.corrupt(g, F, sol, rng),
        ]
        texts += [reduction.write_formula(families.formula(s, rng))
                  for s in sorted(families.FORMULA_SHAPES)]
        return texts

    assert build(5) == build(5)
    assert build(5) != build(6)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_inputs_are_deterministic(workload):
    setup = run.WORKLOADS[workload][0]

    def inputs(seed):
        return [(op.kind, op.inputs) for op in setup(random.Random(seed))]

    assert inputs(3) == inputs(3)


def test_tracer_restores_and_nests():
    originals = [owner.__dict__[attr] for owner, attr, _, _ in
                 tracing.TARGETS]
    g = _stacked(1)
    text = _instance_text(g, families.planted(g, random.Random(1)))
    with tracing.Tracer() as tracer:
        tracer.scope = 0
        tri_insert.solve(instance_io.parse_instance(text))
    assert [owner.__dict__[attr] for owner, attr, _, _ in
            tracing.TARGETS] == originals
    names = {s.name for s in tracer.spans}
    assert {"instance_io.parse_instance", "plane_graph.build_from_rotation",
            "tri_insert.solve", "tri_insert.enumerate_options",
            "twosat.solve"} <= names
    for s in tracer.spans:
        assert s.self_s >= 0
        if s.parent >= 0:
            parent = tracer.spans[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end
    assert tracer.counts[0]["tri_insert.options"] > 0


def test_benchmark_json_names_the_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(n, run.per_layer_unit(n)) for n in run.PER_LAYER]
    assert sorted(w["name"] for w in spec["workloads"]) == \
        sorted(run.WORKLOADS)
