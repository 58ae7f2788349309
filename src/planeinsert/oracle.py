"""Brute-force ground-truth solvers.

exact_solve_triangulation enumerates option assignments for the k=1
triangulation case (the clash rule decides feasibility; optionally every
joint assignment is double-checked against the verifier).

exact_solve_general searches face-walk realizations in the evolving
planarization for any k, in input order with canonical branching, and is
complete within its node budget: Infeasible is only reported after the
whole space is exhausted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product
from typing import Iterator

from ._rng import Lcg64
from .errors import SearchSpaceTooLarge
from .instance_io import CrossingEvent, Instance, Route, Solution
from .tri_insert import compute_clashes, enumerate_options
from .verdicts import Verdict
from .verifier import PlanarizedDrawing, verify


@dataclass(frozen=True)
class SearchLimits:
    node_budget: int = 10_000_000
    seconds: float | None = None


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

    first = _first_clash_free(catalog, clashes, option_lists)
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


def _first_clash_free(catalog, clashes, option_lists):
    m = len(option_lists)
    chosen: list[int] = []

    def go(i: int) -> bool:
        if i == m:
            return True
        for o in option_lists[i]:
            if any(o in clashes.adj[c] for c in chosen):
                continue
            chosen.append(o)
            if go(i + 1):
                return True
            chosen.pop()
        return False

    return tuple(chosen) if go(0) else None


def _assignment_solution(inst, catalog, assignment) -> Solution:
    g = inst.graph
    routes = []
    for f, o in enumerate(assignment):
        x, w = g.edge_endpoints(catalog.options[o].crossed)
        pair = (x, w) if x < w else (w, x)
        routes.append(Route(f, (CrossingEvent("graph_edge", pair),)))
    return Solution(tuple(routes))


# --- general search ----------------------------------------------------------


class _Budget:
    def __init__(self, limits: SearchLimits):
        self.nodes = 0
        self.limit = limits.node_budget
        self.deadline = (time.monotonic() + limits.seconds
                         if limits.seconds else None)
        self.exhausted = False

    def tick(self) -> bool:
        self.nodes += 1
        if self.nodes > self.limit:
            self.exhausted = True
            return False
        if self.deadline is not None and not (self.nodes & 0xFFF):
            if time.monotonic() > self.deadline:
                self.exhausted = True
                return False
        return True


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


def exact_solve_general(inst: Instance,
                        limits: SearchLimits = SearchLimits(),
                        seed: int | None = None
                        ) -> Solution | Verdict:
    """Complete search for any k on small instances."""
    m = len(inst.F)
    pd = PlanarizedDrawing(inst)
    budget = _Budget(limits)
    rng = Lcg64(seed) if seed is not None else None
    routes: list[Route] = []

    def go(i: int) -> bool:
        if i == m:
            return True
        u, v = inst.F[i]
        reals = pd.enumerate_realizations(u, v, None, inst.k, rng=rng)
        for real in reals:
            if not budget.tick():
                return False
            tok = pd.insert(u, v, real)
            routes.append(_route_of(pd, inst, i, real.crossings))
            if go(i + 1):
                return True
            routes.pop()
            pd.undo(tok)
        return False

    found = go(0)
    if found:
        sol = Solution(tuple(routes))
        check = verify(inst, sol)
        assert check.accepted, f"general oracle emitted rejected: {check}"
        return sol
    if budget.exhausted:
        return Verdict.BUDGET_EXCEEDED
    return Verdict.INFEASIBLE


def iter_solutions(inst: Instance,
                   limits: SearchLimits = SearchLimits()) -> Iterator[Solution]:
    """All solutions, deduplicated by route signature; complete enumeration.

    Raises SearchSpaceTooLarge when the node budget runs out before the
    space is exhausted, so callers never mistake a truncated enumeration
    for a complete one.
    """
    m = len(inst.F)
    pd = PlanarizedDrawing(inst)
    budget = _Budget(limits)
    routes: list[Route] = []
    seen: set[tuple] = set()
    out: list[Solution] = []

    def go(i: int) -> None:
        if i == m:
            sig = tuple(tuple((ev.kind, ev.target) for ev in r.events)
                        for r in routes)
            if sig not in seen:
                seen.add(sig)
                out.append(Solution(tuple(routes)))
            return
        u, v = inst.F[i]
        reals = pd.enumerate_realizations(u, v, None, inst.k)
        for real in reals:
            if not budget.tick():
                raise SearchSpaceTooLarge(
                    f"enumeration exceeded {limits.node_budget} nodes")
            tok = pd.insert(u, v, real)
            routes.append(_route_of(pd, inst, i, real.crossings))
            go(i + 1)
            routes.pop()
            pd.undo(tok)

    go(0)
    return iter(out)
