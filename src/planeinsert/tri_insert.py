"""Linear-time single-crossing insertion into triangulations.

In a triangulation every face is a triangle, so an insertion edge (u, v)
cannot be drawn crossing-free and a drawing with one crossing is the pair
of faces glued along the crossed edge whose apexes are u and v.  The
solver enumerates those options (at most one per graph edge), builds the
conflict relation between options of different insertion edges, shrinks
every insertion edge to at most two live options by committing forced or
safe options and deleting blocked ones, and decides the two-option residue
with a 2-SAT formula.

Option conflict rule: options sigma (quad u, x, v, w around crossed edge
(x, w)) and sigma' of another insertion edge clash exactly when sigma'
crosses one of the four quad boundary edges (u,x), (x,v), (v,w), (w,u);
the two drawn edges then share a face and are forced to cross each other,
which neither can afford.  Each quad edge hosts at most one option, so an
option clashes with at most four others.

Two options of the same insertion edge are consecutive exactly when their
crossed edges share a vertex; option sets therefore decompose into paths
and cycles, which drives the case analysis in reduce_instance.

Catalog layout.  Option ids follow crossed-edge order: option o crosses
the o-th graph edge, in edge order, whose two apexes form a pair of F.
OptionCatalog keeps two int64 columns, f_edge and crossed, that the array
kernels read, and Python-int lists of them for scalar reads: options[o] is
the graph edge option o crosses and f_of[o] its insertion edge.  Built in
bulk from the columns, f_options[f] lists f's option ids in increasing
order, live_count[f] is its length and alive holds one flag byte per
option.

Options and clashes are found with whole-array kernels over the dart
tables and need no endpoint lookup.  For crossed edge (x, w) with dart
d = x -> w and twin t, the apexes are u = head(succ(d)) and
v = head(succ(t)), and the quad edges are the edges of face darts:
(u, x) of succ^2(d), (x, v) of succ(t), (v, w) of succ^2(t) and (w, u) of
succ(d).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Sequence

import numpy as np

from .errors import KNotOne, NotTriangulation, SearchSpaceTooLarge
from .instance_io import CrossingEvent, Instance, Route, Solution
from .plane_graph import PlaneGraph, is_triangulation, succ_array
from .search import backtrack
from .twosat import TwoSatFormula
from .twosat import solve as twosat_solve
from .verdicts import Verdict

TraceEvent = tuple  # ("delete", opt) | ("commit", f, opt) | ("infeasible", f)


class OptionCatalog:
    """Per-insertion-edge options with alive flags and commitments, built
    in bulk from the columns of all options in id order (see the module
    docstring for the layout)."""

    def __init__(self, inst: Instance, f_edge: np.ndarray,
                 crossed: np.ndarray):
        self.instance = inst
        self.f_edge = f_edge
        self.crossed = crossed
        k = len(crossed)
        self.options: list[int] = crossed.tolist()
        self.f_of: list[int] = f_edge.tolist()
        counts = np.bincount(f_edge, minlength=len(inst.F))
        ends = np.cumsum(counts).tolist()
        by_f = np.argsort(f_edge, kind="stable").tolist()
        self.f_options: list[list[int]] = [
            by_f[a:b] for a, b in zip([0] + ends[:-1], ends)]
        self.alive: bytearray = bytearray(b"\x01") * k
        self.live_count: list[int] = counts.tolist()
        self.committed: dict[int, int] = {}

    def alive_options(self, f_edge: int) -> list[int]:
        return [o for o in self.f_options[f_edge] if self.alive[o]]


class ClashGraph:
    def __init__(self, n_options: int):
        self.adj: list[list[int]] = [[] for _ in range(n_options)]

    def add_pair(self, a: int, b: int) -> None:
        self.adj[a].append(b)
        self.adj[b].append(a)

    def degree(self, o: int) -> int:
        return len(self.adj[o])


@dataclass
class OptionClassification:
    label: str                      # two_isolated | two_consecutive |
    #                                 isolated_option | long_run | compact |
    #                                 scattered
    runs: list[list[int]] = field(default_factory=list)
    cycles: list[list[int]] = field(default_factory=list)


def enumerate_options(inst: Instance) -> OptionCatalog:
    """All single-crossing drawings per insertion edge, O(V) total."""
    if inst.k != 1:
        raise KNotOne(f"k={inst.k}")
    g = inst.graph
    if not is_triangulation(g):
        raise NotTriangulation("instance graph is not a triangulation")
    if not inst.F:
        none = np.empty(0, dtype=np.int64)
        return OptionCatalog(inst, none, none)
    n = g.vertex_count
    succ = succ_array(g)
    head = g.table("head")
    d = g.table("edge_dart")
    a1 = head[succ[d]]
    a2 = head[succ[g.table("twin")[d]]]
    del succ, d
    code = np.minimum(a1, a2)
    code *= n
    code += np.maximum(a1, a2)
    del a1, a2
    # Sort both code lists; each F code then owns the run of equal apex
    # codes between its two searchsorted bounds (sorted queries keep the
    # probes local).  Options are those runs' edges, put in edge order.
    fpairs = np.fromiter(itertools.chain.from_iterable(inst.F),
                         np.int64, 2 * len(inst.F))
    fu, fv = fpairs[0::2], fpairs[1::2]
    fcode = np.minimum(fu, fv) * n + np.maximum(fu, fv)
    del fpairs, fu, fv
    forder = np.argsort(fcode)
    fcode = fcode[forder]
    by_code = np.argsort(code)
    code = code[by_code]
    first = np.searchsorted(code, fcode)
    count = np.searchsorted(code, fcode, side="right")
    count -= first
    del code, fcode
    # Run r covers sorted positions first[r] .. first[r] + count[r] - 1.
    at = np.repeat(first - (np.cumsum(count) - count), count)
    at += np.arange(len(at), dtype=np.int64)
    es = by_code[at]
    del by_code, at, first
    order = np.argsort(es)
    es = es[order]
    f_edge = np.repeat(forder, count)[order]
    del order, count
    return OptionCatalog(inst, f_edge, es)


def compute_clashes(catalog: OptionCatalog) -> ClashGraph:
    """Pairs of options of distinct insertion edges that cannot coexist."""
    crossed = catalog.crossed
    f_edge = catalog.f_edge
    k = len(crossed)
    clashes = ClashGraph(k)
    g = catalog.instance.graph
    succ = succ_array(g)
    edge = g.table("edge")
    # Quad edges (u,x), (x,v), (v,w), (w,u) from face darts, as in the
    # module docstring.
    d = g.table("edge_dart")[crossed]
    sd = succ[d]
    st = succ[g.table("twin")[d]]
    quad = np.empty((k, 4), dtype=np.int64)
    quad[:, 0] = edge[succ[sd]]
    quad[:, 1] = edge[st]
    quad[:, 2] = edge[succ[st]]
    quad[:, 3] = edge[sd]
    del succ, d, sd, st
    option_at = np.full(g.edge_count, -1, dtype=np.int64)
    option_at[crossed] = np.arange(k, dtype=np.int64)
    other = option_at[quad]
    del quad, option_at
    # Each pair is added once, from the smaller id, in (id, quad position)
    # order; that order fixes every adjacency list.
    hit = other > np.arange(k, dtype=np.int64)[:, None]
    hit &= f_edge[other] != f_edge[:, None]
    rows, cols = np.nonzero(hit)
    for a, b in zip(rows.tolist(), other[rows, cols].tolist()):
        clashes.add_pair(a, b)
    # Internal invariant: F is duplicate-free in a simple triangulation, so
    # each quad edge hosts at most one option.
    assert all(len(adj) <= 4 for adj in clashes.adj), "clash degree exceeds 4"
    return clashes


def classify_options(catalog: OptionCatalog, f_edge: int) -> OptionClassification:
    """Structure of an edge's live option set: runs and cycles of
    consecutive options (crossed edges sharing a vertex)."""
    opts = catalog.alive_options(f_edge)
    # Internal invariant: the reducer classifies edges with three or more
    # live options only.
    assert len(opts) >= 2, "classification needs >= 2 live options"
    g = catalog.instance.graph
    at_vertex: dict[int, list[int]] = {}
    for o in opts:
        x, w = g.edge_endpoints(catalog.options[o])
        at_vertex.setdefault(x, []).append(o)
        at_vertex.setdefault(w, []).append(o)
    nbr: dict[int, list[int]] = {o: [] for o in opts}
    for v, group in at_vertex.items():
        # Internal invariant: an option of (u, v) crossing (x, w) puts w
        # next to both u and v in x's rotation, which at most two
        # neighbours of x can be.
        assert len(group) <= 2, "three options share a crossed-edge vertex"
        if len(group) == 2:
            a, b = group
            nbr[a].append(b)
            nbr[b].append(a)

    runs: list[list[int]] = []
    cycles: list[list[int]] = []
    seen: set[int] = set()
    for o in sorted(opts):
        if o in seen:
            continue
        comp = {o}
        frontier = [o]
        while frontier:
            c = frontier.pop()
            for d in nbr[c]:
                if d not in comp:
                    comp.add(d)
                    frontier.append(d)
        seen |= comp
        ends = sorted(c for c in comp if len(nbr[c]) <= 1)
        if not ends:  # cycle
            start = min(comp)
            cyc = [start]
            prev, cur = start, min(nbr[start])
            while cur != start:
                cyc.append(cur)
                nxt = [d for d in nbr[cur] if d != prev]
                prev, cur = cur, nxt[0]
            cycles.append(cyc)
        else:
            start = ends[0]
            run = [start]
            prev, cur = start, (nbr[start][0] if nbr[start] else None)
            while cur is not None:
                run.append(cur)
                nxt = [d for d in nbr[cur] if d != prev]
                prev, cur = cur, (nxt[0] if nxt else None)
            runs.append(run)

    if len(opts) == 2:
        label = "two_consecutive" if len(runs) == 1 else "two_isolated"
        return OptionClassification(label, runs, cycles)
    if any(len(r) == 1 for r in runs):
        return OptionClassification("isolated_option", runs, cycles)
    if any(len(r) >= 4 for r in runs):
        return OptionClassification("long_run", runs, cycles)
    single_comp = (len(runs) + len(cycles)) == 1
    if single_comp and (
            (runs and len(runs[0]) == 3)
            or (cycles and len(cycles[0]) in (3, 4))):
        return OptionClassification("compact", runs, cycles)
    return OptionClassification("scattered", runs, cycles)


class _Reducer:
    def __init__(self, catalog: OptionCatalog, clashes: ClashGraph,
                 trace: list[TraceEvent] | None):
        self.cat = catalog
        self.clashes = clashes
        self.trace = trace
        # What push(f) would give for every f in turn, nothing committed
        # yet: an increasing list is already a heap.
        counts = list(enumerate(catalog.live_count))
        self.drain_heap: list[int] = [f for f, c in counts if c <= 1]
        self.case_heap: list[int] = [f for f, c in counts if c >= 3]
        # Built by _resolve_compact when it is first needed.
        self.vertex_to_f: dict[int, list[int]] | None = None

    def push(self, f: int) -> None:
        c = self.cat.live_count[f]
        if f in self.cat.committed:
            return
        if c <= 1:
            heappush(self.drain_heap, f)
        elif c >= 3:
            heappush(self.case_heap, f)

    def log(self, event: TraceEvent) -> None:
        if self.trace is not None:
            self.trace.append(event)

    def delete(self, o: int) -> None:
        cat = self.cat
        # Internal invariant: callers delete live options only.
        assert cat.alive[o]
        self.log(("delete", o))
        cat.alive[o] = 0
        f = cat.f_of[o]
        cat.live_count[f] -= 1
        self.push(f)

    def commit(self, f: int, o: int) -> None:
        cat = self.cat
        # Internal invariant: callers commit a live option of an
        # uncommitted edge only.
        assert cat.alive[o] and f not in cat.committed
        self.log(("commit", f, o))
        cat.committed[f] = o
        for other in cat.f_options[f]:
            if cat.alive[other]:
                cat.alive[other] = 0
                cat.live_count[f] -= 1
        for partner in self.clashes.adj[o]:
            if cat.alive[partner]:
                self.delete(partner)

    def safe_or_never(self, f: int, o: int) -> None:
        if any(self.cat.alive[p] for p in self.clashes.adj[o]):
            self.delete(o)
        else:
            self.commit(f, o)

    def run(self) -> Verdict | None:
        cat = self.cat
        while True:
            while self.drain_heap:
                f = heappop(self.drain_heap)
                if f in cat.committed:
                    continue
                c = cat.live_count[f]
                if c == 0:
                    self.log(("infeasible", f))
                    return Verdict.INFEASIBLE
                if c == 1:
                    self.commit(f, cat.alive_options(f)[0])
            f = self._pop_case_edge()
            if f is None:
                return None
            verdict = self._process_case(f)
            if verdict is not None:
                return verdict

    def _pop_case_edge(self) -> int | None:
        while self.case_heap:
            f = heappop(self.case_heap)
            if f not in self.cat.committed and self.cat.live_count[f] >= 3:
                return f
        return None

    def _process_case(self, f: int) -> Verdict | None:
        cls = classify_options(self.cat, f)
        if cls.label == "isolated_option":
            target = min(r[0] for r in cls.runs if len(r) == 1)
            self.safe_or_never(f, target)
        elif cls.label == "long_run":
            run = min((r for r in cls.runs if len(r) >= 4),
                      key=lambda r: min(r))
            self.safe_or_never(f, min(run[1:-1]))
        elif cls.label == "compact":
            return self._resolve_compact(f)
        else:  # scattered: multiple small components or a cycle of length
            # >= 5; a vertex-disjoint sibling option always exists, so the
            # safe-or-never treatment applies to the least option.
            target = min(min(r) for r in cls.runs + cls.cycles)
            self.safe_or_never(f, target)
        self.push(f)
        return None

    def _resolve_compact(self, f: int) -> Verdict | None:
        """Exhaust the octahedron-like subinstance around edge f at once."""
        cat = self.cat
        if self.vertex_to_f is None:
            self.vertex_to_f = {}
            for f2, (a, b) in enumerate(cat.instance.F):
                self.vertex_to_f.setdefault(a, []).append(f2)
                self.vertex_to_f.setdefault(b, []).append(f2)
        u, v = cat.instance.F[f]
        core = {u, v}
        for o in cat.alive_options(f):
            x, w = cat.instance.graph.edge_endpoints(cat.options[o])
            core.add(x)
            core.add(w)
        inside = sorted({
            f2 for vx in core for f2 in self.vertex_to_f.get(vx, ())
            if f2 not in cat.committed
            and cat.instance.F[f2][0] in core and cat.instance.F[f2][1] in core
        })
        choice_lists = [cat.alive_options(f2) for f2 in inside]
        product = 1
        for lst in choice_lists:
            product *= max(len(lst), 1)
        if product > 1_000_000:
            raise SearchSpaceTooLarge(
                f"compact case around F edge {f} has {product} option "
                "combinations, more than 1,000,000")
        assignment = first_clash_free(self.clashes.adj, choice_lists)
        if assignment is not None:
            self.log(("case_c", f, tuple(zip(inside, assignment))))
            for f2, o in zip(inside, assignment):
                self.commit(f2, o)
            return None
        self.log(("infeasible", f))
        return Verdict.INFEASIBLE


def reduce_instance(catalog: OptionCatalog, clashes: ClashGraph,
                    trace: list[TraceEvent] | None = None
                    ) -> OptionCatalog | Verdict:
    """Shrink to at most two live options per uncommitted edge.

    Returns the mutated catalog, or Verdict.INFEASIBLE.  With `trace` a
    list, every delete/commit/case decision is appended for the oracle
    soundness tests.
    """
    verdict = _Reducer(catalog, clashes, trace).run()
    if verdict is not None:
        return verdict
    for f in range(len(catalog.f_options)):
        if f not in catalog.committed:
            # Internal invariant: run() returns None only once both heaps
            # are empty, so no uncommitted edge has 0, 1 or 3+ options.
            assert catalog.live_count[f] == 2, "reduction left a big edge"
    return catalog


def solve(inst: Instance) -> Solution | Verdict:
    """Decide and construct a single-crossing insertion of all of F."""
    catalog = enumerate_options(inst)
    clashes = compute_clashes(catalog)
    reduced = reduce_instance(catalog, clashes)
    if isinstance(reduced, Verdict):
        return reduced
    chosen = _choose_options(catalog, clashes)
    if chosen is None:
        return Verdict.INFEASIBLE
    crossed = catalog.crossed[chosen]
    # The routes are built once the catalog is gone, in the memory it held.
    del catalog, clashes, reduced, chosen
    return certificate(inst.graph, crossed)


def certificate(g: PlaneGraph, crossed: np.ndarray) -> Solution:
    """The k = 1 solution whose route f crosses graph edge crossed[f]."""
    events = map(CrossingEvent, itertools.repeat("graph_edge"),
                 zip(g.table("eu")[crossed].tolist(),
                     g.table("ev")[crossed].tolist()))
    # zip over one iterable yields 1-tuples: each route's events.
    return Solution(tuple(map(Route, itertools.count(), zip(events))))


def first_clash_free(adj: list[list[int]],
                     choice_lists: Sequence[Sequence[int]]
                     ) -> list[int] | None:
    """One option from each list, no two of them clashing under adj, the
    first such pick in itertools.product order; None when there is none."""
    chosen: list[int] = []
    blocked: Counter[int] = Counter()  # clash partners of chosen options

    def choices(i: int):
        return (o for o in choice_lists[i] if not blocked[o])

    def enter(i: int, o: int) -> None:
        chosen.append(o)
        blocked.update(adj[o])

    def leave(i: int) -> None:
        blocked.subtract(adj[chosen.pop()])

    for _ in backtrack(len(choice_lists), choices, enter, leave):
        return chosen
    return None


def _choose_options(catalog: OptionCatalog,
                    clashes: ClashGraph) -> list[int] | None:
    """The option of every insertion edge: the committed one, or the one
    the canonical 2-SAT model picks among the two live ones.  None when
    the 2-SAT formula is unsatisfiable."""
    m = len(catalog.f_options)
    live = [f for f in range(m) if f not in catalog.committed]
    var_of: dict[int, int] = {}
    formula = TwoSatFormula(0)
    for f in live:
        for o in catalog.alive_options(f):
            var_of[o] = formula.variable_count
            formula.variable_count += 1
    for f in live:
        a, b = catalog.alive_options(f)
        formula.add_clause((var_of[a], True), (var_of[b], True))
        formula.add_clause((var_of[a], False), (var_of[b], False))
    for o, var in var_of.items():
        for p in clashes.adj[o]:
            if p in var_of and p > o:
                formula.add_clause((var, False), (var_of[p], False))
    model = twosat_solve(formula)
    if model is None:
        return None
    chosen: dict[int, int] = dict(catalog.committed)
    for f in live:
        a, b = catalog.alive_options(f)
        chosen[f] = a if model[var_of[a]] else b
    return [chosen[f] for f in range(m)]
