"""Seeded instance family used by property tests and the acceptance suite."""

from __future__ import annotations

from planeinsert._rng import Lcg64
from planeinsert.errors import InsufficientComplementPairs
from planeinsert.instance_io import Instance, make_instance
from planeinsert.plane_graph import (
    PlaneGraph,
    apex_pair,
    generate_stacked_triangulation,
    sample_complement_edges,
)

STRUCTURES = ("none", "matching", "path")


def seeded_instance(seed: int, n_lo: int = 6, n_hi: int = 14,
                    f_hi: int = 6) -> Instance | None:
    """Deterministic stacked-triangulation instance for a seed, or None when
    the complement cannot host the requested F."""
    n = n_lo + seed % (n_hi - n_lo + 1)
    m = 1 + (seed // 7) % f_hi
    structure = STRUCTURES[seed % 3]
    g = generate_stacked_triangulation(n, seed)
    try:
        pairs = sample_complement_edges(g, m, seed * 31 + 7,
                                        structure=structure)
    except InsufficientComplementPairs:
        return None
    return make_instance(g, pairs, k=1, f_structure=structure)


def instance_stream(count: int, start_seed: int = 0, **kw):
    """Yield exactly `count` valid instances, skipping impossible seeds."""
    produced = 0
    seed = start_seed
    while produced < count:
        inst = seeded_instance(seed, **kw)
        seed += 1
        if inst is None:
            continue
        produced += 1
        yield inst


def planted_single_options(g: PlaneGraph, seed: int) -> list[tuple[int, int]]:
    """Non-edges of a triangulation with exactly one single-crossing option
    each, whose options pairwise do not clash, so the instance is feasible
    for k = 1.

    Pair (u, v) has an option through graph edge e when the two faces of e
    have apexes u and v; two options clash when one crosses a boundary edge
    of the other's quadrilateral.  Pairs are tried in seeded order and kept
    only when neither their option nor any kept one crosses the other's
    quadrilateral.
    """
    options: dict[tuple[int, int], list[int]] = {}
    for e in range(g.edge_count):
        pair = tuple(sorted(apex_pair(g, e)))
        if not g.has_edge(*pair):
            options.setdefault(pair, []).append(e)
    pairs = sorted(p for p, es in options.items() if len(es) == 1)
    Lcg64(seed).shuffle(pairs)
    crossed: set[int] = set()
    on_quad: set[int] = set()
    F = []
    for pair in pairs:
        e = options[pair][0]
        x, w = g.edge_endpoints(e)
        a1, a2 = apex_pair(g, e)
        quad = {g.edge_between(a, b)
                for a, b in ((a1, x), (x, a2), (a2, w), (w, a1))}
        if e in on_quad or crossed & quad:
            continue
        crossed.add(e)
        on_quad |= quad
        F.append(pair)
    return F


def planted_instance(n: int, seed: int) -> Instance:
    """Seeded stacked triangulation with its planted single-option F."""
    g = generate_stacked_triangulation(n, seed)
    return make_instance(g, planted_single_options(g, seed))
