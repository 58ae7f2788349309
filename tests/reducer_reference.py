"""The k = 1 reducer as it was before its frontier drain: per-edge option
lists, a heap drain that commits one forced edge at a time and deletes its
option's clash partners one call at a time, and a 2-SAT formula built one
add_clause at a time, and an option classification that links options
whose crossed edges share a vertex and walks each component.  Only the
compact case differs from that old code: it takes the sound steps (a) to
(c) that tri_insert._resolve_compact documents, which the old code lacked.
Kept as the reference that test_reducer_kernels.py compares the reducer,
the formula and tri_insert.classify_options with."""

from __future__ import annotations

from heapq import heappop, heappush

from planeinsert.errors import ReductionStuck, SearchSpaceTooLarge
from planeinsert.tri_insert import (
    ClashGraph,
    OptionCatalog,
    OptionClassification,
    clash_free_assignments,
    first_clash_free,
)
from planeinsert.twosat import TwoSatFormula
from planeinsert.twosat import solve as twosat_solve
from planeinsert.verdicts import Verdict


class State:
    """A fresh catalog's options and clashes as per-edge and per-option
    Python lists, with the old live state."""

    def __init__(self, catalog: OptionCatalog, clashes: ClashGraph):
        self.instance = catalog.instance
        self.options = catalog.options.tolist()
        self.f_of = catalog.f_edge.tolist()
        self.f_options = catalog.f_options
        self.adj = [list(row) for row in clashes.adj]
        self.alive = bytearray(b"\x01") * len(self.options)
        self.live_count = [len(lst) for lst in self.f_options]
        self.committed: dict[int, int] = {}

    def alive_options(self, f_edge: int) -> list[int]:
        return [o for o in self.f_options[f_edge] if self.alive[o]]


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



class Reducer:
    def __init__(self, state: State):
        self.cat = state
        counts = list(enumerate(state.live_count))
        self.drain_heap: list[int] = [f for f, c in counts if c <= 1]
        self.case_heap: list[int] = [f for f, c in counts if c >= 3]
        self.vertex_to_f: dict[int, list[int]] | None = None

    def push(self, f: int) -> None:
        c = self.cat.live_count[f]
        if f in self.cat.committed:
            return
        if c <= 1:
            heappush(self.drain_heap, f)
        elif c >= 3:
            heappush(self.case_heap, f)

    def delete(self, o: int) -> None:
        cat = self.cat
        cat.alive[o] = 0
        f = cat.f_of[o]
        cat.live_count[f] -= 1
        self.push(f)

    def commit(self, f: int, o: int) -> None:
        cat = self.cat
        cat.committed[f] = o
        for other in cat.f_options[f]:
            if cat.alive[other]:
                cat.alive[other] = 0
                cat.live_count[f] -= 1
        for partner in cat.adj[o]:
            if cat.alive[partner]:
                self.delete(partner)

    def safe_or_never(self, f: int, o: int) -> None:
        if any(self.cat.alive[p] for p in self.cat.adj[o]):
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
                    return Verdict.INFEASIBLE
                if c == 1:
                    self.commit(f, cat.alive_options(f)[0])
            f = self.pop_case_edge()
            if f is None:
                return None
            verdict = self.process_case(f)
            if verdict is not None:
                return verdict

    def pop_case_edge(self) -> int | None:
        while self.case_heap:
            f = heappop(self.case_heap)
            if f not in self.cat.committed and self.cat.live_count[f] >= 3:
                return f
        return None

    def process_case(self, f: int) -> Verdict | None:
        cls = classify_options(self.cat, f)
        if cls.label == "isolated_option":
            target = min(r[0] for r in cls.runs if len(r) == 1)
            self.safe_or_never(f, target)
        elif cls.label == "long_run":
            run = min((r for r in cls.runs if len(r) >= 4),
                      key=lambda r: min(r))
            self.safe_or_never(f, min(run[1:-1]))
        elif cls.label == "compact":
            return self.resolve_compact(f)
        else:
            target = min(min(r) for r in cls.runs + cls.cycles)
            self.safe_or_never(f, target)
        self.push(f)
        return None

    def resolve_compact(self, f: int) -> Verdict | None:
        cat = self.cat
        if self.vertex_to_f is None:
            self.vertex_to_f = {}
            for f2, (a, b) in enumerate(cat.instance.F):
                self.vertex_to_f.setdefault(a, []).append(f2)
                self.vertex_to_f.setdefault(b, []).append(f2)
        u, v = cat.instance.F[f]
        core = {u, v}
        for o in cat.alive_options(f):
            core.update(cat.instance.graph.edge_endpoints(cat.options[o]))
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
            raise SearchSpaceTooLarge(f"compact case around {f}")
        used: set[int] = set()
        for assignment in clash_free_assignments(cat.adj, choice_lists):
            used.update(assignment)
        if not used:
            return Verdict.INFEASIBLE
        unused = [o for lst in choice_lists for o in lst if o not in used]
        for o in unused:
            self.delete(o)
        free = [[o for o in lst if o in used and not any(
                    cat.alive[p] and cat.f_of[p] not in inside
                    for p in cat.adj[o])]
                for lst in choice_lists]
        assignment = first_clash_free(cat.adj, free)
        if assignment is not None:
            for f2, o in zip(inside, assignment):
                self.commit(f2, o)
            return None
        if not unused:
            raise ReductionStuck(f"compact case around {f}")
        self.push(f)
        return None


def reduce(catalog: OptionCatalog, clashes: ClashGraph
           ) -> tuple[Verdict | None, State]:
    """The verdict (None when reduced) and the reduced state."""
    state = State(catalog, clashes)
    return Reducer(state).run(), state


def formula(state: State) -> tuple[TwoSatFormula, list[int]]:
    """The 2-SAT formula of a reduced state and its variables' options."""
    m = len(state.f_options)
    live = [f for f in range(m) if f not in state.committed]
    var_of: dict[int, int] = {}
    f = TwoSatFormula(0)
    for e in live:
        for o in state.alive_options(e):
            var_of[o] = f.variable_count
            f.variable_count += 1
    for e in live:
        a, b = state.alive_options(e)
        f.add_clause((var_of[a], True), (var_of[b], True))
        f.add_clause((var_of[a], False), (var_of[b], False))
    for o, var in var_of.items():
        for p in state.adj[o]:
            if p in var_of and p > o:
                f.add_clause((var, False), (var_of[p], False))
    return f, list(var_of)


def choose_options(state: State) -> list[int] | None:
    m = len(state.f_options)
    live = [f for f in range(m) if f not in state.committed]
    f, var_options = formula(state)
    var_of = {o: v for v, o in enumerate(var_options)}
    model = twosat_solve(f)
    if model is None:
        return None
    chosen: dict[int, int] = dict(state.committed)
    for e in live:
        a, b = state.alive_options(e)
        chosen[e] = a if model[var_of[a]] else b
    return [chosen[e] for e in range(m)]
