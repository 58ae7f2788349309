"""Verifier and planarization engine tests."""

from __future__ import annotations

import random

import pytest

from planeinsert.errors import (
    InvalidArgument,
    SchemaError,
    SearchBudgetExceeded,
)
from planeinsert.instance_io import Solution, make_instance, parse_solution
from planeinsert.tri_insert import solve
from planeinsert.verifier import (
    PlanarizedDrawing,
    VerifyResult,
    _static_pass,
    verify,
)

from fixtures import cube, octahedron, route_events, solution
from instance_gen import planted_instance


OCTA_F = [(0, 5), (1, 3), (2, 4)]


def octa_instance(F=None, k=1):
    return make_instance(octahedron(), F if F is not None else OCTA_F, k=k)


class TestVerify:
    def test_empty_f_accepted(self):
        inst = make_instance(octahedron(), [], k=1)
        assert verify(inst, solution()).accepted

    def test_octahedron_certificate_accepted(self):
        inst = octa_instance()
        sol = solution([(1, 2)], [(0, 4)], [(5, 3)])
        res = verify(inst, sol)
        assert res.accepted, res

    def test_wrong_assignment_rejected(self):
        # (0,5) via (1,2) clashes with (1,3) via (0,2).
        inst = octa_instance(F=[(0, 5), (1, 3)])
        sol = solution([(1, 2)], [(0, 2)])
        res = verify(inst, sol)
        assert not res.accepted
        assert res.reason == "no_realization"

    def test_double_crossing_same_edge_rejected(self):
        inst = octa_instance(F=[(0, 5)])
        sol = solution([(1, 2), (1, 2)])
        res = verify(inst, sol)
        assert not res.accepted
        assert res.reason in ("crossing_budget_exceeded", "no_realization")

    def test_budget_exceeded_across_routes(self):
        inst = make_instance(cube(), [(0, 2), (4, 6)], k=1)
        sol = solution([(1, 5)], [(1, 5)])
        res = verify(inst, sol)
        assert not res.accepted
        assert res.reason == "crossing_budget_exceeded"

    def test_own_budget_exceeded(self):
        inst = octa_instance(F=[(0, 5)])
        sol = solution([(1, 2), (3, 4)])
        res = verify(inst, sol)
        assert not res.accepted
        assert res.reason == "crossing_budget_exceeded"

    def test_unknown_graph_edge_rejected(self):
        inst = octa_instance(F=[(0, 5)])
        # (0, 5) is a non-edge; -1, 6 and 7 are not vertices.
        for pair in ((0, 5), (2, 7), (6, 7), (-1, 2)):
            res = verify(inst, solution([pair]))
            assert not res.accepted
            assert res.reason == "no_realization"

    def test_adjacent_crossing_rejected(self):
        inst = octa_instance(F=[(0, 5)])
        sol = solution([(0, 1)])
        res = verify(inst, sol)
        assert not res.accepted
        assert res.reason == "no_realization"

    def test_route_count_mismatch(self):
        inst = octa_instance(F=[(0, 5)])
        assert not verify(inst, solution()).accepted

    def test_later_edge_reference_is_schema_error(self):
        with pytest.raises(SchemaError):
            parse_solution(
                '{"routes":[{"f_edge":0,"events":'
                '[{"kind":"inserted","index":0}]}]}')

    def test_chord_route_in_cube(self):
        inst = make_instance(cube(), [(0, 2)], k=1)
        res = verify(inst, solution([]))
        assert res.accepted

    def test_chord_impossible_in_triangulation(self):
        inst = octa_instance(F=[(0, 5)])
        res = verify(inst, solution([]))
        assert not res.accepted

    def test_order_robustness_seeds(self):
        inst = octa_instance()
        good = solution([(1, 2)], [(0, 4)], [(5, 3)])
        bad = solution([(1, 2)], [(0, 2)], [(5, 3)])
        for seed in range(10):
            assert verify(inst, good, seed=seed).accepted
            assert not verify(inst, bad, seed=seed).accepted

    def test_node_budget_raises(self):
        inst = octa_instance()
        good = solution([(1, 2)], [(0, 4)], [(5, 3)])
        with pytest.raises(SearchBudgetExceeded):
            verify(inst, good, node_budget=1)

    @pytest.mark.parametrize("kwargs", [
        {"seed": 1.5}, {"seed": "1"}, {"seed": True}, {"node_budget": "5"},
        {"node_budget": None}, {"node_budget": 10.0}])
    def test_search_arguments_must_be_integers(self, kwargs):
        inst = octa_instance()
        good = solution([(1, 2)], [(0, 4)], [(5, 3)])
        with pytest.raises(InvalidArgument):
            verify(inst, good, **kwargs)

    def test_solver_certificate_past_recursion_depth(self):
        # One route per search level: more than Python's default recursion
        # limit of 1,000 levels.
        inst = planted_instance(3000, 1)
        assert len(inst.F) >= 1100
        sol = solve(inst)
        assert isinstance(sol, Solution)
        assert verify(inst, sol).accepted

    def test_inserted_edge_crossing(self):
        # Cube with two crossing diagonals of one face needs k >= 1 on both;
        # the second route crosses the first inserted edge.
        inst = make_instance(cube(), [(0, 2), (1, 3)], k=1)
        sol = solution([], [0])
        assert verify(inst, sol).accepted

    def test_inserted_crossing_budget(self):
        # Same but k=1 and a third diagonal is impossible.
        inst = make_instance(cube(), [(0, 2), (1, 3)], k=1)
        sol = solution([], [])  # (1,3) must cross edge 0
        assert not verify(inst, sol).accepted


class TestEngine:
    def test_chord_insert_euler(self):
        inst = make_instance(cube(), [(0, 2)], k=1)
        pd = PlanarizedDrawing(inst)
        v0, e0 = pd.vertex_count(), pd.edge_count()
        reals = pd.enumerate_realizations(0, 2, [], 0)
        assert reals
        pd.insert(0, 2, reals[0])
        pd.validate()
        assert pd.vertex_count() == v0
        assert pd.edge_count() == e0 + 1

    def test_crossing_insert_euler(self):
        inst = octa_instance(F=[(0, 5)])
        pd = PlanarizedDrawing(inst)
        v0, e0 = pd.vertex_count(), pd.edge_count()
        e12 = inst.graph.edge_between(1, 2)
        reals = pd.enumerate_realizations(0, 5, [e12], 1)
        assert reals
        tok = pd.insert(0, 5, reals[0])
        pd.validate()
        assert pd.vertex_count() == v0 + 1
        assert pd.edge_count() == e0 + 3
        assert len(pd.rot[v0]) == 4  # dummy has degree 4
        pd.undo(tok)
        pd.validate()
        assert pd.vertex_count() == v0
        assert pd.edge_count() == e0

    def test_undo_restores_exactly(self):
        inst = octa_instance()
        pd = PlanarizedDrawing(inst)
        snapshot = [list(r) for r in pd.rot]
        e12 = inst.graph.edge_between(1, 2)
        reals = pd.enumerate_realizations(0, 5, [e12], 1)
        tok = pd.insert(0, 5, reals[0])
        pd.undo(tok)
        assert [list(r) for r in pd.rot] == snapshot
        assert all(len(s) == 1 for s in pd.segments)

    def test_adjacent_logicals_tracks_inserts_and_undos(self):
        inst = make_instance(cube(), [(0, 2), (1, 3), (4, 6)], k=1)
        pd = PlanarizedDrawing(inst)
        g = inst.graph
        ends = [g.edge_endpoints(e) for e in range(g.edge_count)]

        def check(inserted):
            for u in range(g.vertex_count):
                for v in range(u + 1, g.vertex_count):
                    want = {L for L, (a, b) in
                            enumerate(ends + list(inst.F[:inserted]))
                            if {a, b} & {u, v}}
                    assert pd.adjacent_logicals(u, v) == want

        check(0)
        tokens = []
        for i, (u, v) in enumerate(inst.F):
            real = pd.enumerate_realizations(u, v, None, 1)[0]
            tokens.append(pd.insert(u, v, real))
            check(i + 1)
        pd.undo(tokens.pop())
        check(2)
        pd.undo(tokens[0])
        check(0)
        real = pd.enumerate_realizations(4, 6, None, 1)[0]
        pd.insert(4, 6, real)  # reuses logical id E, freed by the undo
        assert g.edge_count in pd.adjacent_logicals(4, 5)
        assert g.edge_count not in pd.adjacent_logicals(0, 1)


def reference_static_pass(inst, sol):
    """verify's static pass as a scan of the routes, one by one and event
    by event: the pinned logical ids of every route, or the first
    rejection."""
    g = inst.graph
    k = inst.k
    m = len(inst.F)
    pinned_all: list[list[int]] = []
    counts = [0] * (g.edge_count + m)
    for i, events in enumerate(route_events(sol)):
        u, v = inst.F[i]
        if len(events) > k:
            return VerifyResult(False, "crossing_budget_exceeded", i,
                                f"inserted edge {i} would cross "
                                f"{len(events)} times")
        named: set[int] = set()
        pinned: list[int] = []
        for ev in events:
            if isinstance(ev, tuple):
                a, b = ev
                e = g.edge_between(a, b)
                if e is None:
                    return VerifyResult(False, "no_realization", i,
                                        f"({a},{b}) is not a graph edge")
                logical = e
                la, lb = a, b
            else:
                logical = g.edge_count + ev
                la, lb = inst.F[ev]
            if logical in named:
                return VerifyResult(False, "no_realization", i,
                                    "route crosses one edge twice")
            if la in (u, v) or lb in (u, v):
                return VerifyResult(False, "no_realization", i,
                                    "route crosses an adjacent edge")
            named.add(logical)
            counts[logical] += 1
            pinned.append(logical)
        counts[g.edge_count + i] += len(events)
        pinned_all.append(pinned)
    for logical, c in enumerate(counts):
        if c > k:
            if logical < g.edge_count:
                detail = f"graph edge {g.edge_endpoints(logical)}"
            else:
                detail = f"inserted edge {logical - g.edge_count}"
            return VerifyResult(False, "crossing_budget_exceeded",
                                None, f"{detail} crossed {c} > {k} times")
    return [e for pinned in pinned_all for e in pinned]


def random_solution(inst, rng: random.Random) -> Solution:
    """Routes of 0-3 events: graph edges (adjacent ones included), vertex
    pairs that are no edge, pairs outside the vertices, and earlier
    inserted edges, each of them sometimes twice.  One time in three the
    routes instead cross at most one graph edge, from a pool of three, and
    at most one of the first three inserted edges, never an edge at their
    ends: within the budget they pass every per-route check."""
    g = inst.graph
    n = g.vertex_count
    pool = [g.edge_endpoints(e) for e in rng.sample(range(g.edge_count), 3)]
    clean = rng.random() < 1 / 3
    routes = []
    for i, (u, v) in enumerate(inst.F):
        events = []
        if clean:
            free = [p for p in pool if not {u, v} & set(p)]
            if free and rng.random() < 0.5:
                events.append(rng.choice(free))
            earlier = [j for j in range(min(i, 3))
                       if not {u, v} & set(inst.F[j])]
            if earlier and rng.random() < 0.3:
                events.append(rng.choice(earlier))
            routes.append(events)
            continue
        for _ in range(rng.choice((0, 1, 1, 1, 2, 3))):
            roll = rng.random()
            if roll < 0.75:
                pair = g.edge_endpoints(rng.randrange(g.edge_count))
            elif roll < 0.8:
                pair = (rng.randrange(n), rng.randrange(n))
            elif roll < 0.85:
                pair = (rng.randrange(-2, n + 2), rng.randrange(-2, n + 2))
            elif i:
                events.append(rng.randrange(i))
                continue
            else:
                continue
            events.append(pair)
        if events and rng.random() < 0.1:
            events.append(events[0])
        routes.append(events)
    return solution(*routes)


def test_static_pass_matches_reference_scan():
    rng = random.Random(7)
    details = []
    for trial in range(400):
        inst = planted_instance(rng.randrange(8, 40), trial)
        if not inst.F:
            continue
        inst = make_instance(inst.graph, inst.F, k=rng.choice((1, 1, 2, 3)))
        sol = random_solution(inst, rng)
        want = reference_static_pass(inst, sol)
        assert _static_pass(inst, sol) == want, trial
        details.append(want.detail if isinstance(want, VerifyResult)
                       else "passed")
    # Every outcome of the scan occurs.
    for part in ("passed", "would cross", "is not a graph edge", "twice",
                 "adjacent edge", "graph edge (", "inserted edge 0 crossed"):
        assert any(part in d for d in details), part
