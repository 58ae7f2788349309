"""Brute-force ground-truth solvers.

exact_solve_triangulation enumerates option assignments for the k=1
triangulation case (the clash rule decides feasibility; optionally every
joint assignment is double-checked against the verifier).

exact_solve_general searches face-walk realizations in the evolving
planarization for any k, in input order with canonical branching, and is
complete within its node budget: Infeasible is only reported after the
whole space is exhausted.  Budgets count search nodes (realizations
inserted) only, never wall-clock time, so a seeded verdict does not depend
on the machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator

from ._rng import Lcg64
from .errors import SearchBudgetExceeded, SearchSpaceTooLarge
from .instance_io import CrossingEvent, Instance, Route, Solution
from .search import backtrack
from .tri_insert import compute_clashes, enumerate_options
from .verdicts import Verdict
from .verifier import PlanarizedDrawing, verify


@dataclass(frozen=True)
class SearchLimits:
    node_budget: int = 10_000_000


def exact_solve_triangulation(inst: Instance, guard: int = 10_000_000,
                              validate_with_verifier: bool = False
                              ) -> Solution | Verdict:
    """First clash-free option assignment in lexicographic order.

    With validate_with_verifier, every joint assignment in a product of at
    most 10^4 is replayed through the verifier and the clash rule must
    agree with realizability; disagreement raises AssertionError.
    """
    catalog = enumerate_options(inst)
    clashes = compute_clashes(catalog)
    m = len(inst.F)
    option_lists = [catalog.f_options[f] for f in range(m)]
    space = 1
    for lst in option_lists:
        space *= len(lst)
        if space > guard:
            raise SearchSpaceTooLarge(f"option product exceeds {guard}")

    if validate_with_verifier and 0 < space <= 10_000:
        for assignment in product(*option_lists):
            clash_free = _clash_free(catalog, clashes, assignment)
            sol = _assignment_solution(inst, catalog, assignment)
            accepted = verify(inst, sol).accepted
            assert clash_free == accepted, (
                f"clash rule disagrees with verifier on {assignment}")

    first = _first_clash_free(clashes, option_lists)
    if first is None:
        return Verdict.INFEASIBLE
    sol = _assignment_solution(inst, catalog, first)
    check = verify(inst, sol)
    assert check.accepted, f"oracle emitted a rejected solution: {check}"
    return sol


def _clash_free(catalog, clashes, assignment) -> bool:
    chosen = list(assignment)
    for i, o in enumerate(chosen):
        adj = clashes.adj[o]
        for j in range(i + 1, len(chosen)):
            if chosen[j] in adj:
                return False
    return True


def _first_clash_free(clashes, option_lists) -> list[int] | None:
    chosen: list[int] = []

    def choices(i: int):
        return (o for o in option_lists[i]
                if not any(o in clashes.adj[c] for c in chosen))

    for _ in backtrack(len(option_lists), choices,
                       lambda i, o: chosen.append(o), lambda i: chosen.pop()):
        return chosen
    return None


def _assignment_solution(inst, catalog, assignment) -> Solution:
    g = inst.graph
    routes = []
    for f, o in enumerate(assignment):
        x, w = g.edge_endpoints(catalog.options[o].crossed)
        pair = (x, w) if x < w else (w, x)
        routes.append(Route(f, (CrossingEvent("graph_edge", pair),)))
    return Solution(tuple(routes))


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


def _search(inst: Instance, limits: SearchLimits,
            rng: Lcg64 | None = None) -> Iterator[list[Route]]:
    """Routes of every complete realization, depth-first in input order;
    raises SearchBudgetExceeded past limits.node_budget insertions."""
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

    for _ in backtrack(len(inst.F), choices, enter, leave,
                       limits.node_budget):
        yield routes


def exact_solve_general(inst: Instance,
                        limits: SearchLimits = SearchLimits(),
                        seed: int | None = None
                        ) -> Solution | Verdict:
    """Complete search for any k on small instances."""
    rng = Lcg64(seed) if seed is not None else None
    try:
        routes = next(_search(inst, limits, rng), None)
    except SearchBudgetExceeded:
        return Verdict.BUDGET_EXCEEDED
    if routes is None:
        return Verdict.INFEASIBLE
    sol = Solution(tuple(routes))
    check = verify(inst, sol)
    assert check.accepted, f"general oracle emitted rejected: {check}"
    return sol


def iter_solutions(inst: Instance,
                   limits: SearchLimits = SearchLimits()) -> Iterator[Solution]:
    """All solutions, deduplicated by route signature; complete enumeration.

    Raises SearchSpaceTooLarge when the node budget runs out before the
    space is exhausted, so callers never mistake a truncated enumeration
    for a complete one.
    """
    seen: set[tuple] = set()
    out: list[Solution] = []
    try:
        for routes in _search(inst, limits):
            sig = tuple(tuple((ev.kind, ev.target) for ev in r.events)
                        for r in routes)
            if sig not in seen:
                seen.add(sig)
                out.append(Solution(tuple(routes)))
    except SearchBudgetExceeded as exc:
        raise SearchSpaceTooLarge(
            f"enumeration exceeded {limits.node_budget} nodes") from exc
    return iter(out)
