"""Solver tests: options, clashes, classification, reduction, oracle parity."""

from __future__ import annotations

import hashlib
from itertools import combinations, product

import pytest

from planeinsert._rng import Lcg64
from planeinsert.errors import KNotOne, NotTriangulation, ReductionStuck
from planeinsert.instance_io import Solution, make_instance, write_solution
from planeinsert.oracle import exact_solve_triangulation
from planeinsert.plane_graph import build_from_rotation
from planeinsert.tri_insert import (
    certificate,
    classify_options,
    compute_clashes,
    enumerate_options,
    first_clash_free,
    reduce_instance,
    solve,
)
from planeinsert.verdicts import Verdict
from planeinsert.verifier import verify

from fixtures import (apollonian7, bipyramid, bipyramid_chords,
                      chord_subsets, cube, octahedron, route_events, solution)
from instance_gen import instance_stream, planted_instance


def octa_inst(F):
    return make_instance(octahedron(), F)


def clash_free(adj, pick) -> bool:
    """No two picked options clash."""
    return not any(b in adj[a] for a, b in combinations(pick, 2))


def clash_free_picks(adj, choice_lists) -> list[list[int]]:
    """Every pairwise clash-free pick, in itertools.product order."""
    return [list(p) for p in product(*choice_lists) if clash_free(adj, p)]


class TestEnumerate:
    def test_empty_catalog(self):
        cat = enumerate_options(octa_inst([]))
        assert cat.options.tolist() == []

    def test_octahedron_antipodal_options(self):
        inst = octa_inst([(0, 5)])
        cat = enumerate_options(inst)
        crossed = {inst.graph.edge_endpoints(cat.options[o])
                   for o in cat.f_options[0]}
        assert crossed == {(1, 2), (2, 3), (3, 4), (1, 4)}

    def test_brute_force_parity(self):
        # Independent oracle: scan all edges, compare apex pairs directly.
        # The octahedron has no separating triangle, so an edge's apexes
        # are exactly the common neighbours of its ends.
        inst = octa_inst([(0, 5)])
        g = inst.graph
        expected = set()
        for e, u, v in g.edges():
            pair = {w for w in range(g.vertex_count)
                    if g.has_edge(u, w) and g.has_edge(v, w)}
            if pair == {0, 5}:
                expected.add(e)
        cat = enumerate_options(inst)
        assert {cat.options[o] for o in cat.f_options[0]} == expected

    def test_bipyramid_three_options(self):
        inst = make_instance(bipyramid(3), [(0, 1)])
        cat = enumerate_options(inst)
        crossed = {inst.graph.edge_endpoints(cat.options[o])
                   for o in cat.f_options[0]}
        assert crossed == {(2, 3), (3, 4), (2, 4)}

    def test_requires_triangulation(self):
        with pytest.raises(NotTriangulation):
            enumerate_options(make_instance(cube(), [(0, 2)]))

    def test_requires_k1(self):
        with pytest.raises(KNotOne):
            enumerate_options(make_instance(octahedron(), [(0, 5)], k=2))

    def test_option_uniqueness_on_random_instances(self):
        for inst in instance_stream(40):
            cat = enumerate_options(inst)
            assert len(cat.options) == len(set(cat.options))


class TestClashes:
    def test_octahedron_pairwise_clash_counts(self):
        inst = octa_inst([(0, 5), (1, 3)])
        cat = enumerate_options(inst)
        cl = compute_clashes(cat)
        for o in cat.f_options[0]:
            assert len(cl.adj[o]) == 2
        for o in cat.f_options[1]:
            assert len(cl.adj[o]) == 2

    def test_clash_rule_against_realizability(self):
        # Cross-check the quad rule on every joint choice (16, then 64): the
        # verifier accepts exactly the pairwise clash-free ones.
        for F in ([(0, 5), (1, 3)], [(0, 5), (1, 3), (2, 4)]):
            inst = octa_inst(F)
            cat = enumerate_options(inst)
            cl = compute_clashes(cat)
            for pick in product(*cat.f_options):
                sol = certificate(inst.graph, cat.options[list(pick)])
                assert (verify(inst, sol).accepted
                        == clash_free(cl.adj, pick)), (F, pick)

    def test_single_edge_no_clashes(self):
        cat = enumerate_options(octa_inst([(0, 5)]))
        cl = compute_clashes(cat)
        assert all(len(cl.adj[o]) == 0 for o in range(len(cat.options)))

    def test_max_degree_bound(self):
        for inst in instance_stream(60):
            cat = enumerate_options(inst)
            cl = compute_clashes(cat)
            for o in range(len(cat.options)):
                assert len(cl.adj[o]) <= 4
                for p in cl.adj[o]:
                    assert o in cl.adj[p]


class TestClassify:
    def test_bipyramid_cycle(self):
        cat = enumerate_options(make_instance(bipyramid(3), [(0, 1)]))
        cls = classify_options(cat, 0)
        assert cls.label == "compact"
        assert len(cls.cycles) == 1 and len(cls.cycles[0]) == 3

    def test_octahedron_four_cycle(self):
        cat = enumerate_options(octa_inst([(0, 5)]))
        cls = classify_options(cat, 0)
        assert cls.label == "compact"
        assert len(cls.cycles) == 1 and len(cls.cycles[0]) == 4

    def test_two_isolated(self):
        # Stack into two opposite top faces of the octahedron: (0,5) keeps
        # two equator options that do not share a vertex.
        rot = [list(r) for r in octahedron().rotation()]

        def stack(face):
            a, b, c = face
            x = len(rot)
            rot[a].insert(rot[a].index(c) + 1, x)
            rot[b].insert(rot[b].index(a) + 1, x)
            rot[c].insert(rot[c].index(b) + 1, x)
            rot.append([c, b, a])

        stack((0, 1, 2))
        stack((0, 3, 4))
        g = build_from_rotation(8, rot)
        inst = make_instance(g, [(0, 5)])
        cat = enumerate_options(inst)
        assert len(cat.f_options[0]) == 2
        assert classify_options(cat, 0).label == "two_isolated"
        # Already at the 2-SAT stage: reduction is a fixed point.
        cl = compute_clashes(cat)
        before = cat.alive_options(0)
        out = reduce_instance(cat, cl)
        assert out is cat
        assert cat.alive_options(0).tolist() == before.tolist()


class TestSolve:
    def test_octahedron_three_antipodal(self):
        inst = octa_inst([(0, 5), (1, 3), (2, 4)])
        sol = solve(inst)
        assert isinstance(sol, Solution)
        crossed = {events[0] for events in route_events(sol)}
        assert len(crossed) == 3
        assert verify(inst, sol).accepted

    def test_apollonian_infeasible(self):
        inst = make_instance(apollonian7(), [(6, 2)])
        assert solve(inst) is Verdict.INFEASIBLE
        assert exact_solve_triangulation(inst) is Verdict.INFEASIBLE

    def test_empty_f(self):
        sol = solve(octa_inst([]))
        assert isinstance(sol, Solution) and sol == solution()

    def test_oracle_equivalence_sample(self):
        for inst in instance_stream(120):
            mine = solve(inst)
            ref = exact_solve_triangulation(inst)
            assert isinstance(mine, Solution) == isinstance(ref, Solution), \
                (inst.F, mine, ref)
            if isinstance(mine, Solution):
                assert verify(inst, mine).accepted


# --- reduction soundness against the brute-force oracle -----------------------


def _feasible(catalog, clashes, committed, alive):
    """Brute force: can every uncommitted edge pick an alive option so the
    union with committed choices is clash-free?"""
    m = len(catalog.f_options)
    live = [f for f in range(m) if f not in committed]
    lists = []
    for f in live:
        opts = [o for o in catalog.f_options[f] if o in alive]
        if not opts:
            return False
        lists.append(opts)
    base = list(committed.values())
    return any(clash_free(clashes.adj, base + list(pick))
               for pick in product(*lists))


def _uses_option(catalog, clashes, committed, alive, o):
    f = catalog.f_edge[o]
    forced = dict(committed)
    forced[f] = o
    return _feasible(catalog, clashes, forced, alive)


def test_reduction_deletion_soundness_and_commit_safety():
    checked_deletes = checked_commits = 0
    for inst in instance_stream(80, n_lo=6, n_hi=12, f_hi=4):
        cat = enumerate_options(inst)
        cl = compute_clashes(cat)
        trace: list = []
        reduce_instance(cat, cl, trace=trace)

        # Replay on a fresh catalog.
        cat2 = enumerate_options(inst)
        cl2 = compute_clashes(cat2)
        alive = set(range(len(cat2.options)))
        committed: dict[int, int] = {}
        total_before = len(alive)
        for ev in trace:
            if ev[0] == "delete":
                o = ev[1]
                assert not _uses_option(cat2, cl2, committed, alive, o), ev
                alive.discard(o)
                checked_deletes += 1
            elif ev[0] == "commit":
                _, f, o = ev
                before = _feasible(cat2, cl2, committed, alive)
                forced = dict(committed)
                forced[f] = o
                after = _feasible(cat2, cl2, forced, alive)
                assert before == after, ev
                committed[f] = o
                alive -= set(cat2.f_options[f])
                checked_commits += 1
            elif ev[0] == "infeasible":
                assert not _feasible(cat2, cl2, committed, alive), ev
            elif ev[0] == "case_c":
                pass
            # Monotone progress: the alive set never grows.
            assert len(alive) <= total_before
    assert checked_deletes + checked_commits > 30


# --- the compact case's search -------------------------------------------------


def test_first_clash_free_matches_product_order():
    assert first_clash_free([], []) == []
    assert first_clash_free([[]], [[0], []]) is None
    rng = Lcg64(8)
    shapes = {"no levels": 0, "empty list": 0, "none": 0, "found": 0}
    for _ in range(500):
        n = 1 + rng.below(10)
        adj: list[list[int]] = [[] for _ in range(n)]
        for a, b in combinations(range(n), 2):
            if rng.below(3) == 0:
                adj[a].append(b)
                adj[b].append(a)
        # Disjoint lists of 0 to 3 options, as in a catalog.
        options = list(range(n))
        rng.shuffle(options)
        lists = []
        for _ in range(rng.below(5)):
            size = rng.below(4)
            lists.append(options[:size])
            del options[:size]
        picks = clash_free_picks(adj, lists)
        got = first_clash_free(adj, lists)
        assert got == (picks[0] if picks else None), (adj, lists)
        shapes["no levels"] += not lists
        shapes["empty list"] += any(not lst for lst in lists)
        shapes["none"] += got is None
        shapes["found"] += len(picks) > 1
    assert min(shapes.values()) >= 20, shapes


def test_compact_case_that_cannot_shrink_raises(monkeypatch):
    # With step (b) made to find nothing, the octahedron's compact case
    # deletes nothing in step (a) either: the reducer must raise a typed
    # error rather than visit the same state forever.
    from planeinsert import tri_insert
    monkeypatch.setattr(tri_insert, "first_clash_free",
                        lambda adj, lists: None)
    with pytest.raises(ReductionStuck, match="compact case around F edge 0"):
        solve(octa_inst([(0, 5), (1, 3)]))


@pytest.mark.parametrize("graph, F", [
    (octahedron, [(0, 5), (1, 3)]),
    (octahedron, [(0, 5), (1, 3), (2, 4)]),
    (lambda: bipyramid(3), [(0, 1)]),
], ids=["octahedron-2", "octahedron-3", "bipyramid"])
def test_case_c_commits_first_clash_free_assignment(graph, F):
    # Replay the trace; at each case_c event rebuild the core edges and
    # their live options, and require the first clash-free pick among
    # several of those with no live clash partner outside the core.
    inst = make_instance(graph(), F)
    cat = enumerate_options(inst)
    cl = compute_clashes(cat)
    trace: list = []
    reduce_instance(cat, cl, trace)
    alive = set(range(len(cat.options)))
    committed: dict[int, int] = {}
    case_c = 0
    for ev in trace:
        if ev[0] == "delete":
            alive.discard(ev[1])
        elif ev[0] == "commit":
            committed[ev[1]] = ev[2]
            alive -= set(cat.f_options[ev[1]])
        elif ev[0] == "case_c":
            _, f, assignment = ev
            core = set(inst.F[f])
            for o in cat.f_options[f]:
                if o in alive:
                    core.update(inst.graph.edge_endpoints(cat.options[o]))
            inside = [f2 for f2, (a, b) in enumerate(inst.F)
                      if f2 not in committed and a in core and b in core]
            lists = [[o for o in cat.f_options[f2] if o in alive
                      and not any(p in alive and cat.f_edge[p] not in inside
                                  for p in cl.adj[o])]
                     for f2 in inside]
            picks = clash_free_picks(cl.adj, lists)
            assert len(picks) > 1
            assert assignment == tuple(zip(inside, picks[0])), ev
            case_c += 1
    assert case_c == 1


def certificate_inputs():
    yield from instance_stream(300)
    for s in range(3):
        yield planted_instance(3000, s)
    for c in (6, 8, 10):
        yield from chord_subsets(c)
    for c in range(5, 16):
        yield make_instance(bipyramid(c), bipyramid_chords(c))


def test_solver_certificates_are_pinned():
    # sha256 over solve's answer on each input, in order: the write_solution
    # text of a certificate, or the verdict's name.  A change to the option
    # order, the reducer or the 2-SAT encoding that picks other options
    # shows here.
    digest = hashlib.sha256()
    for inst in certificate_inputs():
        answer = solve(inst)
        text = (write_solution(answer) if isinstance(answer, Solution)
                else answer.name)
        digest.update(text.encode("utf-8"))
    assert digest.hexdigest() == (
        "7d530a8fa5970f40a49de8cac23422b58d41b574f448733c9647c26fc08f2fcb")
