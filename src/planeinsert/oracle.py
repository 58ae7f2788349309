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
on the machine.
"""

from __future__ import annotations

from typing import Iterator

from ._rng import Lcg64
from .errors import SearchBudgetExceeded, SearchSpaceTooLarge
from .instance_io import CrossingEvent, Instance, Route, Solution
from .search import backtrack
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
    sol = certificate(inst.graph, catalog.crossed[first])
    check = verify(inst, sol)
    # Internal invariant: enumerate_options has already rejected inputs that
    # are not k = 1 triangulations, and on those a clash-free choice is
    # realizable; the replay cross-checks the clash rule, not the input.
    assert check.accepted, f"oracle emitted a rejected solution: {check}"
    return sol


# --- general search ----------------------------------------------------------


def _route_of(pd: PlanarizedDrawing, inst: Instance, f: int,
              crossings) -> Route:
    events = []
    for d in crossings:
        logical = pd.owner[d >> 1]
        if logical < pd.graph_edges:
            a, b = inst.graph.edge_endpoints(logical)
            events.append(CrossingEvent("graph_edge",
                                        (a, b) if a < b else (b, a)))
        else:
            events.append(CrossingEvent("inserted",
                                        logical - pd.graph_edges))
    return Route(f, tuple(events))


def _search(inst: Instance, node_budget: int,
            rng: Lcg64 | None = None) -> Iterator[list[Route]]:
    """Routes of every complete realization, depth-first in input order;
    raises SearchBudgetExceeded past node_budget insertions."""
    pd = PlanarizedDrawing(inst)
    routes: list[Route] = []
    tokens: list[int] = []

    def choices(i: int):
        u, v = inst.F[i]
        return pd.enumerate_realizations(u, v, None, inst.k, rng=rng)

    def enter(i: int, real) -> None:
        tokens.append(pd.insert(*inst.F[i], real))
        routes.append(_route_of(pd, inst, i, real.crossings))

    def leave(i: int) -> None:
        routes.pop()
        pd.undo(tokens.pop())

    for _ in backtrack(len(inst.F), choices, enter, leave, node_budget):
        yield routes


def exact_solve_general(inst: Instance, node_budget: int = 10_000_000,
                        seed: int | None = None) -> Solution | Verdict:
    """Complete search for any k on small instances; BUDGET_EXCEEDED past
    node_budget inserted realizations."""
    rng = Lcg64(seed) if seed is not None else None
    try:
        routes = next(_search(inst, node_budget, rng), None)
    except SearchBudgetExceeded:
        return Verdict.BUDGET_EXCEEDED
    if routes is None:
        return Verdict.INFEASIBLE
    sol = Solution(tuple(routes))
    check = verify(inst, sol)
    # Internal invariant: the routes name the crossings of realizations that
    # were inserted within budget, never of an adjacent or repeated edge,
    # so the replay finds them again.
    assert check.accepted, f"general oracle emitted rejected: {check}"
    return sol


def iter_solutions(inst: Instance,
                   node_budget: int = 10_000_000) -> Iterator[Solution]:
    """All solutions, deduplicated by route signature; complete enumeration.

    Raises SearchSpaceTooLarge when the node budget runs out before the
    space is exhausted, so callers never mistake a truncated enumeration
    for a complete one.
    """
    seen: set[tuple] = set()
    out: list[Solution] = []
    try:
        for routes in _search(inst, node_budget):
            sig = tuple(r.events for r in routes)
            if sig not in seen:
                seen.add(sig)
                out.append(Solution(tuple(routes)))
    except SearchBudgetExceeded as exc:
        raise SearchSpaceTooLarge(
            f"enumeration exceeded {node_budget} nodes") from exc
    return iter(out)
