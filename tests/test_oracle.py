"""Ground-truth solver tests: guards, agreement, completeness."""

from __future__ import annotations

import hashlib

import pytest

from planeinsert.errors import InvalidArgument, SearchSpaceTooLarge
from planeinsert.instance_io import Solution, make_instance, write_solution
from planeinsert.oracle import (
    exact_solve_general,
    exact_solve_triangulation,
    iter_solutions,
)
from planeinsert.plane_graph import complement_pairs
from planeinsert.tri_insert import solve
from planeinsert.verdicts import Verdict
from planeinsert.verifier import verify

from fixtures import apollonian7, cube, octahedron, route_events, solution
from instance_gen import instance_stream, planted_instance


class TestTriangulationOracle:
    def test_octahedron_with_validation(self):
        inst = make_instance(octahedron(), [(0, 5), (1, 3), (2, 4)])
        sol = exact_solve_triangulation(inst)
        assert isinstance(sol, Solution)
        assert verify(inst, sol).accepted

    def test_apollonian_infeasible(self):
        inst = make_instance(apollonian7(), [(6, 2)])
        assert exact_solve_triangulation(inst) is Verdict.INFEASIBLE

    def test_empty(self):
        inst = make_instance(octahedron(), [])
        sol = exact_solve_triangulation(inst)
        assert isinstance(sol, Solution) and sol == solution()

    def test_guard(self):
        inst = make_instance(octahedron(), [(0, 5), (1, 3), (2, 4)])
        with pytest.raises(SearchSpaceTooLarge):
            exact_solve_triangulation(inst, guard=10)

    @pytest.mark.parametrize("guard", [None, "10", 10.0, True])
    def test_guard_must_be_an_integer(self, guard):
        inst = make_instance(octahedron(), [(0, 5), (1, 3), (2, 4)])
        with pytest.raises(InvalidArgument):
            exact_solve_triangulation(inst, guard=guard)

    def test_past_recursion_depth(self):
        # Every edge has one option, so the only assignment is the solver's.
        inst = planted_instance(3000, 1)
        assert len(inst.F) >= 1100
        assert exact_solve_triangulation(inst) == solve(inst)

    def test_lexicographic_first(self):
        inst = make_instance(octahedron(), [(0, 5), (1, 3), (2, 4)])
        a = exact_solve_triangulation(inst)
        b = exact_solve_triangulation(inst)
        assert a == b


class TestGeneralOracle:
    def test_chord_instance(self):
        inst = make_instance(cube(), [(0, 2)], k=1)
        sol = exact_solve_general(inst, node_budget=10_000)
        assert isinstance(sol, Solution)
        assert route_events(sol) == [[]]

    def test_empty_f_is_the_empty_solution(self):
        # The search runs backtrack at depth 0, which yields once.
        inst = make_instance(octahedron(), [])
        assert exact_solve_general(inst) == solution()
        assert list(iter_solutions(inst)) == [solution()]

    def test_budget_exceeded(self):
        inst = make_instance(octahedron(), [(0, 5), (1, 3), (2, 4)])
        assert exact_solve_general(inst, node_budget=1) \
            is Verdict.BUDGET_EXCEEDED

    def test_cross_oracle_agreement(self):
        count_feasible = 0
        for inst in instance_stream(300, n_lo=6, n_hi=12, f_hi=4):
            tri = exact_solve_triangulation(inst)
            gen = exact_solve_general(inst, node_budget=500_000)
            assert gen is not Verdict.BUDGET_EXCEEDED
            assert isinstance(tri, Solution) == isinstance(gen, Solution), \
                inst.F
            if isinstance(tri, Solution):
                count_feasible += 1
        assert count_feasible > 20

    def test_infeasible_stable_under_seeds(self):
        seen = 0
        for inst in instance_stream(60, n_lo=6, n_hi=8, f_hi=3):
            base = exact_solve_general(inst, node_budget=500_000)
            if base is not Verdict.INFEASIBLE:
                continue
            seen += 1
            for seed in range(5):
                again = exact_solve_general(inst, node_budget=500_000,
                                            seed=seed)
                assert again is Verdict.INFEASIBLE
        assert seen >= 5

    def test_iter_solutions_dedupes_and_verifies(self):
        inst = make_instance(octahedron(), [(0, 5), (1, 3)])
        sols = list(iter_solutions(inst, node_budget=200_000))
        sigs = set()
        for s in sols:
            sig = tuple(map(tuple, route_events(s)))
            assert sig not in sigs
            sigs.add(sig)
            assert verify(inst, s).accepted
        # Feasible pairs of options: 4x4 minus clashing pairs (2 per option).
        assert len(sols) == 8

    @pytest.mark.parametrize("kwargs", [
        {"seed": 1.5}, {"seed": "1"}, {"seed": True}, {"node_budget": "5"},
        {"node_budget": None}, {"node_budget": 10.0}])
    def test_search_arguments_must_be_integers(self, kwargs):
        inst = make_instance(octahedron(), [(0, 5), (1, 3)])
        with pytest.raises(InvalidArgument):
            exact_solve_general(inst, **kwargs)
        if "node_budget" in kwargs:
            with pytest.raises(InvalidArgument):
                iter_solutions(inst, **kwargs)

    def test_iter_solutions_budget(self):
        inst = make_instance(octahedron(), [(0, 5), (1, 3)])
        with pytest.raises(SearchSpaceTooLarge):
            list(iter_solutions(inst, node_budget=1))


def general_answers():
    """exact_solve_general on the cube and the octahedron with their full
    complements, at k = 1 and 2, unseeded and seeded, and every answer of
    iter_solutions for two crossing diagonals of a cube face (some cross
    the inserted edge); then on a stream of small instances, each followed
    by every answer of iter_solutions and their count."""
    for k in (1, 2):
        for g in (cube(), octahedron()):
            inst = make_instance(g, complement_pairs(g), k=k)
            for seed in (None, 0, 1):
                yield exact_solve_general(inst, seed=seed)
        yield from iter_solutions(make_instance(cube(), [(0, 2), (1, 3)],
                                                k=k))
    for inst in instance_stream(300):
        yield exact_solve_general(inst)
        sols = list(iter_solutions(inst))
        yield from sols
        yield str(len(sols))


def test_general_oracle_answers_are_pinned():
    # sha256 over the answers in order: the write_solution text of a
    # solution, the verdict's name, or a count.  A change to the search
    # order, the realization order or the reading of an answer off the
    # drawing shows here.
    digest = hashlib.sha256()
    for answer in general_answers():
        text = (write_solution(answer) if isinstance(answer, Solution)
                else answer if isinstance(answer, str) else answer.name)
        digest.update(text.encode("utf-8"))
    assert digest.hexdigest() == (
        "dc4fdc7cd960c809aeca91b7fcb3a8cab2295d3905145d89fb0eaf788f7f0373")
