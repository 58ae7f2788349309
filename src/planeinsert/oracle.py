"""Brute-force ground-truth solvers.

exact_solve_triangulation decides the k = 1 triangulation case from the
clash rule alone: it takes the lexicographically first clash-free choice
of one option per insertion edge, with no case reduction and no 2-SAT, and
replays the certificate through the verifier before returning it.

exact_solve_general searches face-walk realizations in the evolving
planarization for any k, in input order with canonical branching, and is
complete within its node budget: Infeasible is only reported after the
whole space is exhausted.  Budgets count search nodes (realizations
inserted) only, never wall-clock time, so a seeded verdict does not depend
on the machine.  It and iter_solutions run the verifier's own replay,
PlanarizedDrawing.search, with no routes pinned, and read each answer off
the drawing it leaves (the owner of each crossed dart, a graph edge's
ends) as the four columns the Solution constructor takes.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ._rng import Lcg64
from .errors import SearchBudgetExceeded, SearchSpaceTooLarge
from .instance_io import GRAPH_EDGE, INSERTED, Instance, Solution
from .plane_graph import _int_arg
from .tri_insert import (
    certificate,
    compute_clashes,
    enumerate_options,
    first_clash_free,
)
from .verdicts import Verdict
from .verifier import PlanarizedDrawing, verify


def exact_solve_triangulation(inst: Instance, guard: int = 10_000_000
                              ) -> Solution | Verdict:
    """First clash-free option assignment in lexicographic order; raises
    SearchSpaceTooLarge when the option product exceeds guard."""
    guard = _int_arg("guard", guard)
    catalog = enumerate_options(inst)
    clashes = compute_clashes(catalog)
    space = 1
    for lst in catalog.f_options:
        space *= len(lst)
        if space > guard:
            raise SearchSpaceTooLarge(f"option product exceeds {guard}")
    first = first_clash_free(clashes.adj, catalog.f_options)
    if first is None:
        return Verdict.INFEASIBLE
    sol = certificate(inst.graph, catalog.options[first])
    check = verify(inst, sol)
    # Internal invariant: enumerate_options has already rejected inputs that
    # are not k = 1 triangulations, and on those a clash-free choice is
    # realizable; the replay cross-checks the clash rule, not the input.
    assert check.accepted, f"oracle emitted a rejected solution: {check}"
    return sol


# --- general search ----------------------------------------------------------


def _answer(pd: PlanarizedDrawing, reals) -> Solution:
    """The solution of the realizations in force, read off the drawing: a
    crossed dart's owner is the logical edge it crosses, and a graph edge's
    ends are its endpoints, smaller first."""
    E = pd.graph_edges
    logical = np.array([pd.owner[d >> 1] for r in reals for d in r.crossings],
                       np.int64)
    inserted = logical >= E
    ends = np.array(pd.ends[:E], np.int64).reshape(-1, 2)[
        np.where(inserted, 0, logical)]
    return Solution(
        np.cumsum([0, *(len(r.crossings) for r in reals)]),
        np.where(inserted, INSERTED, GRAPH_EDGE),
        np.where(inserted, logical - E, ends[:, 0]),
        np.where(inserted, -1, ends[:, 1]))


def exact_solve_general(inst: Instance, node_budget: int = 10_000_000,
                        seed: int | None = None) -> Solution | Verdict:
    """Complete search for any k on small instances; BUDGET_EXCEEDED past
    node_budget inserted realizations."""
    node_budget = _int_arg("node_budget", node_budget)
    rng = None if seed is None else Lcg64(_int_arg("seed", seed))
    pd = PlanarizedDrawing(inst)
    try:
        reals = next(pd.search(inst.F, None, rng, node_budget), None)
    except SearchBudgetExceeded:
        return Verdict.BUDGET_EXCEEDED
    if reals is None:
        return Verdict.INFEASIBLE
    sol = _answer(pd, reals)
    check = verify(inst, sol)
    # Internal invariant: the routes name the crossings of realizations that
    # were inserted within budget, never of an adjacent or repeated edge,
    # so the replay finds them again.
    assert check.accepted, f"general oracle emitted rejected: {check}"
    return sol


def iter_solutions(inst: Instance,
                   node_budget: int = 10_000_000) -> Iterator[Solution]:
    """All solutions, each once; complete enumeration.

    Raises SearchSpaceTooLarge when the node budget runs out before the
    space is exhausted, so callers never mistake a truncated enumeration
    for a complete one.
    """
    node_budget = _int_arg("node_budget", node_budget)
    pd = PlanarizedDrawing(inst)
    try:
        found = dict.fromkeys(_answer(pd, reals) for reals in
                              pd.search(inst.F, None, None, node_budget))
    except SearchBudgetExceeded as exc:
        raise SearchSpaceTooLarge(
            f"enumeration exceeded {node_budget} nodes") from exc
    return iter(found)
