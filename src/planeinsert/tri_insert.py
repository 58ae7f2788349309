"""Linear-time single-crossing insertion into triangulations.

In a triangulation every face is a triangle, so an insertion edge (u, v)
cannot be drawn crossing-free and a drawing with one crossing is the pair
of faces glued along the crossed edge whose apexes are u and v.  The
solver enumerates those options (at most one per graph edge), builds the
conflict relation between options of different insertion edges, shrinks
every insertion edge to at most two live options by committing forced or
safe options and deleting blocked ones, and decides the two-option residue
with a 2-SAT formula whose literals are the live options themselves: the
negation of an option is its edge's other live option, so the only
clauses are the clash pairs (see _formula).

Option conflict rule: options sigma (quad u, x, v, w around crossed edge
(x, w)) and sigma' of another insertion edge clash exactly when sigma'
crosses one of the four quad boundary edges (u,x), (x,v), (v,w), (w,u);
the two drawn edges then share a face and are forced to cross each other,
which neither can afford.  Each quad edge hosts at most one option, so an
option clashes with at most four others.

Two options of the same insertion edge are consecutive exactly when their
crossed edges share a vertex, that is when their slots in the row of the
edge's endpoint u are adjacent (see classify_options); option sets
therefore decompose into paths and cycles, which drives the case analysis
in reduce_instance.

Catalog layout.  Option ids follow crossed-edge order: option o crosses
the o-th graph edge, in edge order, whose two apexes form a pair of F.
Every column is one numpy array, which the whole-array kernels and the
scalar case steps index alike: options[o] is the graph edge option o
crosses and f_edge[o] its insertion edge, both int64.  The options of
insertion edge f, in increasing order, are by_f[f_start[f]:f_start[f + 1]],
a CSR pair that plane_graph._csr builds, as it builds the clash store
below.  The live state is alive, one uint8 flag per option, and
live_count, one int64 per insertion edge.  committed maps each committed
edge to its option; a committed edge has no live option.

ClashGraph holds the clash relation in one CSR store built from
compute_clashes's pair arrays: the partners of option o are
to[start[o]:start[o + 1]], in the order the pairs are found, (smaller id,
quad position).

Options and clashes are found with whole-array kernels over the dart
tables and need no endpoint lookup.  For crossed edge (x, w) with dart
d = x -> w and twin t, the apexes are u = head(succ(d)) and
v = head(succ(t)), and the quad edges are the edges of face darts:
(u, x) of succ^2(d), (x, v) of succ(t), (v, w) of succ^2(t) and (w, u) of
succ(d).

Drain.  The reducer deletes options and commits edges that have one live
option left.  Commits run in frontier rounds.  A round takes the
uncommitted edges with at most one live option (the frontier).  It answers
INFEASIBLE when the options of two of them clash.  Otherwise it commits
every frontier edge that has an option, deletes the live clash partners of
those options, and answers INFEASIBLE if a frontier edge had no option;
the edges that lost an option and have at most one left are the next
frontier.  This is unit propagation on the clauses "f takes one of
its options" and "two clashing options are not both taken", so its outcome
does not depend on the order in which units are taken (Dowling and
Gallier, J. Logic Programming 1984).  Every commit and delete is implied
by the state it is taken from and stays applicable once it is, so every
order reaches the same fixpoint, and a conflict reached in one order is
reached in all.  Rounds therefore end in the state that committing one
edge at a time would reach.  A round reads only its frontier's options and
their partners, each edge is committed once and each option deleted once,
so all the drains of a reduction cost O(options + clash pairs).  Case
steps only delete options (committing f to o deletes f's other live
options) and then call the same drain.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .errors import (KNotOne, NotTriangulation, ReductionStuck,
                     SearchSpaceTooLarge)
from .instance_io import Instance, Solution
from .plane_graph import PlaneGraph, _csr, is_triangulation
from .search import backtrack
from .twosat import TwoSatFormula
from .twosat import solve as twosat_solve
from .verdicts import Verdict

TraceEvent = tuple  # ("delete", opt) | ("commit", f, opt) | ("infeasible", f)


class OptionCatalog:
    """Options with their live state, built in bulk from the columns of
    all options in id order (see the module docstring for the layout)."""

    def __init__(self, inst: Instance, f_edge: np.ndarray,
                 options: np.ndarray):
        self.instance = inst
        self.f_edge = f_edge
        self.options = options
        self.f_start, self.by_f = _csr(
            f_edge, np.arange(len(options), dtype=np.int64), len(inst.F))
        self.alive = np.ones(len(options), dtype=np.uint8)
        self.live_count = np.diff(self.f_start)
        self.committed: dict[int, int] = {}

    def alive_options(self, f_edge: int) -> np.ndarray:
        opts = self.by_f[self.f_start[f_edge]:self.f_start[f_edge + 1]]
        return opts[self.alive[opts] != 0]

    @property
    def f_options(self) -> list[list[int]]:
        """Each insertion edge's option ids, live or not, in increasing
        order; built on each read, for callers outside the reducer."""
        by_f = self.by_f.tolist()
        bounds = self.f_start.tolist()
        return [by_f[a:b] for a, b in zip(bounds, bounds[1:])]


class _Rows(Sequence):
    """Read-only rows of a CSR pair: row i is to[start[i]:start[i + 1]]."""

    __slots__ = ("_start", "_to")

    def __init__(self, start, to):
        self._start = start
        self._to = to

    def __len__(self) -> int:
        return len(self._start) - 1

    def __getitem__(self, i: int) -> list[int]:
        return self._to[self._start[i]:self._start[i + 1]].tolist()


class ClashGraph:
    """The clash partners of every option in one CSR store (see the module
    docstring), built from the pairs (lo[i], hi[i]), lo < hi, listed in
    increasing order of lo."""

    def __init__(self, n_options: int, lo: np.ndarray, hi: np.ndarray):
        # Row r holds the pairs with hi == r, whose lo < r puts them first,
        # then those with lo == r, each group in pair order: a stable sort
        # of the rows hi ..., lo ... gives exactly that order.
        self.start, self.to = _csr(np.concatenate([hi, lo]),
                                   np.concatenate([lo, hi]), n_options)

    @property
    def adj(self) -> Sequence:
        """adj[o] is the list of o's clash partners."""
        return _Rows(self.start, self.to)


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
    succ = g.table("succ")
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
    es = by_code[_ranges(first, first + count)]
    del by_code, first
    order = np.argsort(es)
    es = es[order]
    f_edge = np.repeat(forder, count)[order]
    del order, count
    return OptionCatalog(inst, f_edge, es)


def compute_clashes(catalog: OptionCatalog) -> ClashGraph:
    """Pairs of options of distinct insertion edges that cannot coexist."""
    crossed = catalog.options
    f_edge = catalog.f_edge
    k = len(crossed)
    g = catalog.instance.graph
    succ = g.table("succ")
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
    # Each pair is listed once, from the smaller id, in (id, quad position)
    # order; that order fixes every row of the clash store.
    hit = other > np.arange(k, dtype=np.int64)[:, None]
    hit &= f_edge[other] != f_edge[:, None]
    rows, cols = np.nonzero(hit)
    clashes = ClashGraph(k, rows, other[rows, cols])
    # Internal invariant: F is duplicate-free in a simple triangulation, so
    # each quad edge hosts at most one option.
    assert (np.diff(clashes.start) <= 4).all(), "clash degree exceeds 4"
    return clashes


def classify_options(catalog: OptionCatalog, f_edge: int) -> OptionClassification:
    """Structure of an edge's live option set: runs and cycles of
    consecutive options (crossed edges sharing a vertex).

    Each option crosses an edge (x, w) whose face on one side is x, w, u,
    u = F[f_edge][0]; x and w are consecutive in u's row, and the option's
    slot is x's position there: the dart succ(succ(d)) = u -> x for the
    face dart d = x -> w.  Two options share a crossed-edge vertex x
    exactly when their slots are p and p + 1 around the row, x at p, as
    the crossed edges at x with apex u join x to its two neighbours in the
    row.  So the runs are the stretches of adjacent slots, read from a dead
    slot on, and all slots live are one cycle.  A run lists its options in
    slot order, a walk's order up to direction; callers read only members,
    ends and minima.  O(L log L) for L live options, whatever deg(u)."""
    opts = catalog.alive_options(f_edge)
    # Internal invariant: callers classify edges with two or more live
    # options; the reducer's case steps pass three or more.
    assert len(opts) >= 2, "classification needs >= 2 live options"
    g = catalog.instance.graph
    u = catalog.instance.F[f_edge][0]
    deg = g.degree(u)
    succ, head = g.table("succ"), g.table("head")
    d = g.table("edge_dart")[catalog.options[opts]]
    d = np.where(head[succ[d]] == u, d, g.table("twin")[d])
    slot = succ[succ[d]] - g.darts_at(u).start
    at = np.argsort(slot)
    slot = slot[at]
    # Read from the first dead slot on: the slots 0, 1, ... before it go
    # last, so that a run through slot 0 stays whole.
    first = int(np.argmin(slot == np.arange(len(slot))))
    at, slot = np.roll(at, -first), np.roll(slot, -first)
    cuts = np.flatnonzero(np.diff(slot) % deg != 1) + 1
    groups = [r.tolist() for r in np.split(opts[at], cuts)]
    runs, cycles = ([], groups) if len(opts) == deg else (groups, [])

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


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The positions lo[i] .. hi[i] - 1 of every i, concatenated: several
    rows of a CSR store gathered at once."""
    size = hi - lo
    at = np.repeat(lo + size - np.cumsum(size), size)
    at += np.arange(len(at), dtype=np.int64)
    return at


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values, increasing, and how often each occurs.  A sort
    and one comparison pass; np.unique's hash path is slower here."""
    values = np.sort(values)
    new = np.empty(len(values), dtype=bool)
    new[:1] = True
    np.not_equal(values[1:], values[:-1], out=new[1:])
    first = np.flatnonzero(new)
    return values[first], np.diff(first, append=len(values))


class _Reducer:
    def __init__(self, catalog: OptionCatalog, clashes: ClashGraph,
                 trace: list[TraceEvent] | None):
        self.cat = catalog
        self.clashes = clashes
        self.trace = trace
        # The arrays the drain's whole-array rounds read, by their own
        # names, so that a test can count the drain's reads alone.
        self.alive = catalog.alive
        self.live = catalog.live_count
        self.by_f = catalog.by_f
        self.f_start = catalog.f_start
        self.clash_start = clashes.start
        self.clash_to = clashes.to
        # Edges a case step has left with at most one live option: the
        # frontier of the drain that follows it.
        self.pending: list[int] = []
        # Built by _resolve_compact when it is first needed.
        self.vertex_to_f: dict[int, list[int]] | None = None

    def log(self, event: TraceEvent) -> None:
        if self.trace is not None:
            self.trace.append(event)

    def infeasible(self, f: int) -> Verdict:
        self.log(("infeasible", f))
        return Verdict.INFEASIBLE

    def drain(self, frontier: np.ndarray) -> Verdict | None:
        """Commit every edge left with one live option, in frontier rounds
        (see the module docstring), starting from `frontier`, increasing
        and distinct.  Each round logs its commits by increasing edge, then
        its deletes by increasing option id; a frontier edge with no live
        option is reported after them."""
        cat = self.cat
        alive, live = self.alive, self.live
        while len(frontier):
            fs = frontier
            counts = live[fs]
            empty = fs[counts == 0]
            fs = fs[counts != 0]
            opts = self.by_f[_ranges(self.f_start[fs], self.f_start[fs + 1])]
            picks = opts[alive[opts] != 0]
            # Internal invariant: frontier edges are uncommitted and have
            # one live option each, so the picks line up with fs.
            assert len(picks) == len(fs), "frontier edge without one pick"
            partners = self.clash_to[_ranges(self.clash_start[picks],
                                             self.clash_start[picks + 1])]
            partners = partners[alive[partners] != 0]
            owner = cat.f_edge[partners]
            # A live partner owned by a frontier edge is that edge's pick.
            at = np.searchsorted(fs, owner)
            at[at == len(fs)] = 0
            clash = fs[at] == owner
            if clash.any():
                return self.infeasible(int(owner[clash].min()))
            alive[picks] = 0
            live[fs] = 0
            cat.committed.update(zip(fs.tolist(), picks.tolist()))
            dead = _distinct(partners)[0]
            alive[dead] = 0
            lost, lost_count = _distinct(cat.f_edge[dead])
            live[lost] -= lost_count
            if self.trace is not None:
                self.trace.extend(zip(itertools.repeat("commit"),
                                      fs.tolist(), picks.tolist()))
                self.trace.extend(zip(itertools.repeat("delete"),
                                      dead.tolist()))
            if len(empty):
                return self.infeasible(int(empty[0]))
            frontier = lost[live[lost] <= 1]
        return None

    def delete(self, o: int) -> None:
        cat = self.cat
        # Internal invariant: callers delete live options only.
        assert cat.alive[o]
        self.log(("delete", o))
        cat.alive[o] = 0
        f = cat.f_edge[o]
        cat.live_count[f] -= 1
        if cat.live_count[f] <= 1:
            self.pending.append(f)

    def commit(self, f: int, o: int) -> None:
        """Leave o as f's one live option; the next drain commits it.  The
        other options go unlogged: the drain's commit event covers them."""
        cat = self.cat
        # Internal invariant: callers commit a live option of an
        # uncommitted edge only.
        assert cat.alive[o] and f not in cat.committed
        cat.alive[cat.by_f[cat.f_start[f]:cat.f_start[f + 1]]] = 0
        cat.alive[o] = 1
        cat.live_count[f] = 1
        self.pending.append(f)

    def safe_or_never(self, f: int, o: int) -> None:
        if any(self.cat.alive[p] for p in self.clashes.adj[o]):
            self.delete(o)
        else:
            self.commit(f, o)

    def run(self) -> Verdict | None:
        verdict = self.drain(np.flatnonzero(self.live <= 1))
        if verdict is not None:
            return verdict
        # Counts only fall, so the least edge with 3 or more live options
        # is found by one pass over the edges that start with that many.
        live_count = self.cat.live_count
        cases = np.flatnonzero(self.live >= 3).tolist()
        i = 0
        while i < len(cases):
            f = cases[i]
            if live_count[f] < 3:
                i += 1
                continue
            verdict = self._process_case(f)
            if verdict is None and self.pending:
                frontier = _distinct(np.array(self.pending, dtype=np.int64))[0]
                self.pending.clear()
                verdict = self.drain(frontier)
            if verdict is not None:
                return verdict
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
        return None

    def _resolve_compact(self, f: int) -> Verdict | None:
        """Settle the small core around edge f at once.

        The core is f's endpoints and the endpoints of the edges its live
        options cross; the inside edges are the uncommitted edges of F with
        both endpoints in the core, f among them.  The reducer keeps this
        invariant: if the instance has a solution, it has one that agrees
        with every commitment and takes a live option for every other edge.
        Such a solution never uses a clash partner of a committed option,
        since a commit deletes its option's live partners.

        (a) Restricted to the inside edges, such a solution is a clash-free
            assignment of their live options.  So a live option of an
            inside edge that lies in no clash-free assignment is in no such
            solution and is deleted; with no clash-free assignment at all
            the instance is INFEASIBLE.
        (b) Let A be a clash-free assignment in which no option has a live
            clash partner owned by an edge outside.  For any such solution
            S, A plus S's options for the outside edges is again one:
            clashes are pairwise, A has none and S's outside part has
            none; an option a of A cannot clash with a committed option
            (a would have been deleted) nor with a live outside option of
            S (that option would be a live outside partner of a).  So
            committing A keeps the instance solvable if it was; the first
            such A in itertools.product order is committed.
        (c) With no such A, f is left for the case loop to visit again: a
            deletion in (a) has changed the state, and the drain after it
            may free more.  When (a) deleted nothing, the next visit would
            see the same state, so ReductionStuck is raised instead.
        """
        cat = self.cat
        if self.vertex_to_f is None:
            self.vertex_to_f = {}
            for f2, (a, b) in enumerate(cat.instance.F):
                self.vertex_to_f.setdefault(a, []).append(f2)
                self.vertex_to_f.setdefault(b, []).append(f2)
        u, v = cat.instance.F[f]
        core = {u, v}
        for e in cat.options[cat.alive_options(f)].tolist():
            core.update(cat.instance.graph.edge_endpoints(e))
        inside = sorted({
            f2 for vx in core for f2 in self.vertex_to_f.get(vx, ())
            if f2 not in cat.committed
            and cat.instance.F[f2][0] in core and cat.instance.F[f2][1] in core
        })
        choice_lists = [cat.alive_options(f2).tolist() for f2 in inside]
        product = 1
        for lst in choice_lists:
            product *= max(len(lst), 1)
        if product > 1_000_000:
            raise SearchSpaceTooLarge(
                f"compact case around F edge {f} has {product} option "
                "combinations, more than 1,000,000")
        adj = self.clashes.adj
        used: set[int] = set()
        for assignment in clash_free_assignments(adj, choice_lists):
            used.update(assignment)
        if not used:
            return self.infeasible(f)
        unused = [o for lst in choice_lists for o in lst if o not in used]
        for o in unused:
            self.delete(o)
        alive, f_edge = cat.alive, cat.f_edge
        in_core = set(inside)

        def settles(o: int) -> bool:
            return o in used and not any(
                alive[p] and f_edge[p] not in in_core for p in adj[o])

        assignment = first_clash_free(
            adj, [[o for o in lst if settles(o)] for lst in choice_lists])
        if assignment is not None:
            self.log(("case_c", f, tuple(zip(inside, assignment))))
            for f2, o in zip(inside, assignment):
                self.commit(f2, o)
        elif not unused:
            raise ReductionStuck(
                f"compact case around F edge {f}: every clash-free "
                "assignment of its core has a live clash outside it")
        return None


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
    # Internal invariant: run() returns None only once no uncommitted edge
    # has 0, 1 or 3+ live options; committed edges have none.
    live = catalog.live_count
    assert (np.count_nonzero(live == 2)
            == len(live) - len(catalog.committed)), "reduction left an edge"
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
    return certificate(inst.graph, catalog.options[chosen])


def certificate(g: PlaneGraph, crossed: np.ndarray) -> Solution:
    """The k = 1 solution whose route f crosses graph edge crossed[f], as
    its columns: event f is route f's one event, a graph edge whose
    endpoints u < v are the ends of its u -> v dart."""
    m = len(crossed)
    head, d = g.table("head"), g.table("edge_dart")[crossed]
    return Solution(np.arange(m + 1), np.zeros(m, np.int8),
                    head[g.table("twin")[d]], head[d])


def clash_free_assignments(adj: Sequence[Sequence[int]],
                           choice_lists: Sequence[Sequence[int]]
                           ) -> Iterator[list[int]]:
    """Every pick of one option from each list with no two of them
    clashing under adj, in itertools.product order.  Each pick is the same
    list, valid until the iteration goes on."""
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
        yield chosen


def first_clash_free(adj: Sequence[Sequence[int]],
                     choice_lists: Sequence[Sequence[int]]
                     ) -> list[int] | None:
    """One option from each list, no two of them clashing under adj, the
    first such pick in itertools.product order; None when there is none."""
    return next(clash_free_assignments(adj, choice_lists), None)


def _formula(catalog: OptionCatalog,
             clashes: ClashGraph) -> tuple[TwoSatFormula, np.ndarray]:
    """The 2-SAT formula of a reduced catalog and its literals' options.

    The literals are the live options of the uncommitted edges, by edge
    and then by id: literal 2i is the i-th such edge's lower option and
    its negation 2i + 1 the other.  The clauses are, for each literal in
    order and each clash partner p of its option, in row order, that is
    live with a larger id, (not the option or not p)."""
    by_f, alive = catalog.by_f, catalog.alive
    lit_options = by_f[alive[by_f] != 0]
    lit = np.full(len(alive), -1, dtype=np.int64)
    lit[lit_options] = np.arange(len(lit_options), dtype=np.int64)
    start = clashes.start
    lo, hi = start[lit_options], start[lit_options + 1]
    partner = clashes.to[_ranges(lo, hi)]
    option = np.repeat(lit_options, hi - lo)
    keep = partner > option
    keep &= lit[partner] >= 0
    codes = np.stack([lit[option[keep]], lit[partner[keep]]], axis=1) ^ 1
    return TwoSatFormula(len(lit_options) // 2, codes.ravel()), lit_options


def _choose_options(catalog: OptionCatalog,
                    clashes: ClashGraph) -> np.ndarray | None:
    """The option of every insertion edge: the committed one, or the one
    the canonical 2-SAT model picks among the two live ones.  None when
    the 2-SAT formula is unsatisfiable."""
    formula, lit_options = _formula(catalog, clashes)
    model = twosat_solve(formula)
    if model is None:
        return None
    committed = catalog.committed
    chosen = np.empty(len(catalog.live_count), dtype=np.int64)
    chosen[np.fromiter(committed, np.int64, len(committed))] = np.fromiter(
        committed.values(), np.int64, len(committed))
    lower, upper = lit_options[0::2], lit_options[1::2]
    chosen[catalog.f_edge[lower]] = np.where(
        np.array(model, dtype=bool), lower, upper)
    return chosen
