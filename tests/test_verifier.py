"""Verifier and planarization engine tests."""

from __future__ import annotations

import random
from collections import Counter
from itertools import islice, product

import pytest

from planeinsert.errors import (
    InvalidArgument,
    SchemaError,
    SearchBudgetExceeded,
)
from planeinsert.instance_io import Solution, make_instance, parse_solution
from planeinsert.oracle import iter_solutions
from planeinsert.plane_graph import build_from_rotation
from planeinsert.tri_insert import solve
from planeinsert.verifier import (
    PlanarizedDrawing,
    VerifyResult,
    _static_pass,
    verify,
)

from fixtures import (cube, delete_edge_rotation, octahedron, pinned_routes,
                      route_events, shared_face_certificate, solution)
from instance_gen import instance_stream, planted_instance
from verifier_reference import validate_drawing


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

    def test_order_robustness_seeds(self, monkeypatch):
        # Each seeded verify must reach the search: the octahedron's
        # accepted certificate takes the no-replay path, so the accepted
        # case is one whose routes share a face.
        shared, good = shared_face_certificate()
        inst = octa_instance()
        bad = solution([(1, 2)], [(0, 2)], [(5, 3)])
        built = counted_drawings(monkeypatch)
        for seed in range(10):
            assert verify(shared, good, seed=seed).accepted
            assert not verify(inst, bad, seed=seed).accepted
            assert len(built) == 2 * (seed + 1)

    def test_node_budget_raises(self):
        inst, good = shared_face_certificate()
        assert verify(inst, good).accepted
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


def edge_count(pd: PlanarizedDrawing) -> int:
    """The working drawing's edge count: half its darts."""
    return sum(map(len, pd.rot)) // 2


class TestEngine:
    def test_chord_insert_euler(self):
        inst = make_instance(cube(), [(0, 2)], k=1)
        pd = PlanarizedDrawing(inst)
        v0, e0 = len(pd.rot), edge_count(pd)
        reals = pd.enumerate_realizations(0, 2, [], 0)
        assert reals
        pd.insert(0, 2, reals[0])
        validate_drawing(pd, inst.graph.vertex_count)
        assert len(pd.rot) == v0
        assert edge_count(pd) == e0 + 1

    def test_crossing_insert_euler(self):
        inst = octa_instance(F=[(0, 5)])
        pd = PlanarizedDrawing(inst)
        v0, e0 = len(pd.rot), edge_count(pd)
        e12 = inst.graph.edge_between(1, 2)
        reals = pd.enumerate_realizations(0, 5, [e12], 1)
        assert reals
        tok = pd.insert(0, 5, reals[0])
        validate_drawing(pd, inst.graph.vertex_count)
        assert len(pd.rot) == v0 + 1
        assert edge_count(pd) == e0 + 3
        assert len(pd.rot[v0]) == 4  # dummy has degree 4
        pd.undo(tok)
        validate_drawing(pd, inst.graph.vertex_count)
        assert len(pd.rot) == v0
        assert edge_count(pd) == e0

    def test_reference_check_fires_on_a_corrupted_drawing(self):
        # validate_drawing checks by assert; tests/conftest.py has pytest
        # rewrite it, so it fires under python -O too.
        inst = make_instance(cube(), [(0, 2)], k=1)
        pd = PlanarizedDrawing(inst)
        validate_drawing(pd, inst.graph.vertex_count)
        pd.rot[0].append(pd.rot[0][0])
        with pytest.raises(AssertionError, match="duplicate dart"):
            validate_drawing(pd, inst.graph.vertex_count)

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
        got = _static_pass(inst, sol)
        if not isinstance(got, VerifyResult):
            logical, fuv = got
            assert fuv.tolist() == [list(p) for p in inst.F], trial
            got = logical.tolist()
        assert got == want, trial
        details.append(want.detail if isinstance(want, VerifyResult)
                       else "passed")
    # Every outcome of the scan occurs.
    for part in ("passed", "would cross", "is not a graph edge", "twice",
                 "adjacent edge", "graph edge (", "inserted edge 0 crossed"):
        assert any(part in d for d in details), part


# --- verify's no-replay path against the search alone --------------------


def replay_result(inst, sol) -> VerifyResult:
    """verify's answer from its static pass and its search alone."""
    pinned = pinned_routes(inst, sol)
    if pinned is None:
        return _static_pass(inst, sol)
    pd = PlanarizedDrawing(inst)
    if next(pd.search(inst.F, pinned, None, 2_000_000), None) is not None:
        return VerifyResult(True)
    return VerifyResult(False, "no_realization", pd.deepest,
                        "no joint realization of the routes")


def repointed(inst, sol, rng: random.Random, i: int | None = None
              ) -> Solution:
    """sol with route i (a random one by default) re-pointed to cross one
    graph edge that no other route names and that does not touch the
    route's ends."""
    g = inst.graph
    routes = route_events(sol)
    if i is None:
        i = rng.randrange(len(routes))
    u, v = inst.F[i]
    named = {ev for j, r in enumerate(routes) if j != i for ev in r}
    free = [p for p in map(g.edge_endpoints, range(g.edge_count))
            if p not in named and not {u, v} & set(p)]
    routes[i] = [rng.choice(free)]
    return solution(*routes)


def swapped(sol, rng: random.Random) -> Solution:
    """sol with the events of two routes i < j swapped, less the inserted
    edges from i on that route i would then name."""
    routes = route_events(sol)
    i, j = sorted(rng.sample(range(len(routes)), 2))
    routes[i], routes[j] = [e for e in routes[j]
                            if isinstance(e, tuple) or e < i], routes[i]
    return solution(*routes)


def certificates():
    """(family, variant, instance, solution): the solver's certificates of
    planted stacked triangulations and of a seeded stream, and answers of
    the exhaustive oracle on the cube, the octahedron at k = 2 and
    triangulations with one edge deleted; each as found, then re-pointed
    and swapped twice, then with its middle route re-pointed.  Then the
    shared-face certificate with a third route that no state realizes,
    which verify must leave to the search, and the same routes with the
    bad one second, which it must not.  Then, on the cube and the
    octahedron, every solution whose routes cross one graph edge or
    earlier inserted edge each."""
    rng = random.Random(29)
    cases = []
    for s in range(3):
        inst = planted_instance(3000, s)
        cases.append(("planted", inst, [solve(inst)]))
    for inst in instance_stream(300):
        sol = solve(inst)
        if isinstance(sol, Solution):
            cases.append(("stream", inst, [sol]))
    small = [make_instance(cube(), [(2, 4), (0, 6)], k=1),
             make_instance(cube(), [(0, 2), (1, 3)], k=1),
             make_instance(cube(), [(0, 6), (1, 7), (2, 4)], k=1),
             octa_instance(k=2),
             make_instance(octahedron(), [(0, 5), (1, 3)], k=2)]
    hand_built = list(small)
    for inst in islice(instance_stream(40), 0, None, 4):
        g = inst.graph
        u, v = g.edge_endpoints(rng.randrange(g.edge_count))
        rot = delete_edge_rotation(g, u, v)
        small.append(make_instance(build_from_rotation(len(rot), rot),
                                   [*inst.F, (u, v)], k=1))
    for inst in small:
        cases.append(("oracle", inst, list(islice(iter_solutions(inst), 40))))
    for family, inst, sols in cases:
        for sol in sols:
            yield family, "as found", inst, sol
            if len(inst.F) >= 2:
                for _ in range(2):
                    yield family, "re-pointed", inst, repointed(inst, sol,
                                                                rng)
                    yield family, "swapped", inst, swapped(sol, rng)
                yield family, "middle re-pointed", inst, repointed(
                    inst, sol, rng, len(inst.F) // 2)
    yield "shared", "bad after a shared prefix", *shared_prefix_then_bad()
    yield "shared", "bad before a shared face", *bad_before_a_shared_face()
    for inst in hand_built:
        g = inst.graph
        edges = list(map(g.edge_endpoints, range(g.edge_count)))
        for routes in product(*([[e] for e in [*edges, *range(i)]]
                                for i in range(len(inst.F)))):
            yield "oracle", "one event each", inst, solution(*routes)


def shared_prefix_then_bad():
    """The shared-face certificate's cube instance with F edge 5 -> 7
    added, routed across (0, 3): neither face of (0, 3) holds 5.  The two
    routes before it share the top face, so no lemma settles the prefix."""
    inst, sol = shared_face_certificate()
    return (make_instance(inst.graph, [*inst.F, (5, 7)], k=inst.k),
            solution(*route_events(sol), [(0, 3)]))


def bad_before_a_shared_face():
    """shared_prefix_then_bad with the bad route moved second: routes 0
    and 2 share the top face.  The least route that names a face owns it,
    so route 0 keeps to faces of its own, route 1 is the least route the
    no-replay lemma fails, and verify rejects it without a replay."""
    inst, sol = shared_prefix_then_bad()
    (a, b, c), routes = inst.F, route_events(sol)
    return (make_instance(inst.graph, [a, c, b], k=inst.k),
            solution(routes[0], routes[2], routes[1]))


def counted_drawings(monkeypatch) -> list:
    """Wrap PlanarizedDrawing.__init__; the list grows by one per drawing
    built."""
    built = []
    init = PlanarizedDrawing.__init__

    def counted_init(self, inst):
        built.append(inst)
        init(self, inst)

    monkeypatch.setattr(PlanarizedDrawing, "__init__", counted_init)
    return built


def test_no_replay_path_agrees_with_the_search(monkeypatch):
    built = counted_drawings(monkeypatch)
    seen = Counter()
    for family, variant, inst, sol in certificates():
        before = len(built)
        got = verify(inst, sol)
        seen[family, variant, got.accepted, len(built) > before] += 1
        assert got == replay_result(inst, sol), (family, variant,
                                                 route_events(sol))
    # (family, variant, accepted, replayed): the solver's certificates all
    # take the no-replay path, and so does every rejection of a corrupted
    # planted one.  A bad route after a shared-face prefix still fails in
    # the search, one before a route sharing a face does not, and each
    # path accepts some of the oracle's answers.
    assert {key for key in seen if key[1] == "as found"
            and key[0] != "oracle"} == {("planted", "as found", True, False),
                                        ("stream", "as found", True, False)}
    assert {key for key in seen if key[0] == "planted" and not key[2]} == {
        ("planted", variant, False, False)
        for variant in ("re-pointed", "swapped", "middle re-pointed")}
    assert seen["shared", "bad after a shared prefix", False, True] == 1
    assert seen["shared", "bad before a shared face", False, False] == 1
    assert ("oracle", "as found", True, True) in seen
    assert ("oracle", "as found", True, False) in seen
    assert {key[2:] for key in seen if key[1] == "one event each"} == {
        (True, True), (True, False), (False, True), (False, False)}


def test_solver_certificate_builds_no_drawing(monkeypatch):
    # verify of a planted certificate is linear: it builds no working
    # drawing, where a replay builds one and inserts every route.
    inst = planted_instance(3000, 1)
    sol = solve(inst)
    built = counted_drawings(monkeypatch)
    assert verify(inst, sol).accepted
    assert built == []
    assert verify(*shared_face_certificate()).accepted
    assert len(built) == 1


def test_corrupted_certificate_builds_no_drawing(monkeypatch):
    # The planted certificate with its last route re-pointed to an edge
    # whose faces do not hold both its ends: verify rejects it in array
    # passes, where a replay inserts every route before it and undoes them.
    inst = planted_instance(3000, 1)
    sol = solve(inst)
    bad = repointed(inst, sol, random.Random(1), len(inst.F) - 1)
    built = counted_drawings(monkeypatch)
    assert verify(inst, bad) == VerifyResult(
        False, "no_realization", len(inst.F) - 1,
        "no joint realization of the routes")
    assert built == []
    assert not verify(*shared_prefix_then_bad()).accepted
    assert len(built) == 1
