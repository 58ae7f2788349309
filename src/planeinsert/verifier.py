"""Certificate checking by iterative planarization.

Routes name logical edges only; which segment of a crossed edge is used,
and through which faces the new edge travels, is found by search.  The
search is complete across routes (it backtracks through earlier routes'
realization choices), so the verdict cannot depend on exploration order.

Drawing conventions (simple curves): a route never crosses an edge that
shares one of its endpoints, and any two edges cross at most once.  Each
crossing becomes a degree-4 dummy vertex splitting both edges involved.

The working drawing is dart-based: working edge ``e`` owns darts ``2e``
(from end a) and ``2e+1`` (from end b); faces are the orbits of
``succ(d) = rotation-next(twin(d))`` exactly as in plane_graph, so no face
table is maintained.  The initial drawing is laid out in bulk from the
graph's dart tables: graph dart d becomes working dart
``2*edge(d) + (tail(d) > head(d))``, and each rotation row is a slice of
that column at the graph's row offsets.  No incidence table is kept
either: a crossing splits an edge only between its ends, and an inserted
edge runs between original vertices, so an original vertex has exactly one
dart per logical edge at it, and the logical edges at u are the owners of
the darts in u's rotation row.

``enumerate_realizations`` expands a route level by level.  Level j
holds every path with j crossings, each as its start corner, its crossed
darts and the corner by which it entered its face; level j + 1 extends
each level-j path, in order, by the admissible darts of that face in succ
order from the corner.  So level j is in the lexicographic order of the
paths' choices, a depth-first pre-order restricted to j crossings, and
reading realizations off the levels in turn gives that pre-order stably
sorted by crossing count.  Unpinned routes may end on any level, pinned
ones only on the last.  Every face walked is kept for the rest of the call
under each of its darts, so no face is walked twice in one call.

A route of ``verify`` pins its crossed logical edges, so its search
starts only at the corners of u that share a face with a segment of the
first pinned edge: the faces of each segment dart and of its twin are
walked, and the corners at u on them are tried in increasing rotation
position.  No other corner can reach that edge, so the realizations, and
their order, are those of a scan of every corner at u.  Levels 0 and 1
reuse those walks: a route that crosses one edge walks two faces.
Unpinned searches, and routes that cross nothing, still try every corner
at u.

``search`` is the one replay over the edges of F: it inserts them
depth-first with ``search.backtrack``, one realization at a time, and
yields the realizations in force whenever all of F is drawn.  ``verify``
runs it with every route pinned to the logical edges the route names;
the general oracles run it unpinned.  Before the replay, ``verify``'s
static pass checks the routes in whole-array passes and, when one fails,
names its rejection from the masks it built: the route's budget first,
then its first failing event.

After a static pass that succeeds, ``verify`` settles a certificate
without a replay by one lemma.  Call route i apart when it crosses exactly
one graph edge e, no face on either side of e lies on either side of an
earlier route's edge (nor on both sides of e, as at a bridge), and its
tail lies on one face of e and its head on the other.  Lemma: let routes 0
to i - 1 be apart.  Accept half: they have a joint realization, so when
every route is apart ``verify`` accepts.  Reject half: when route i
crosses exactly one graph edge e while its tail and head do not lie one on
each face of e in the graph, the replay rejects with "no_realization" at
route i, and ``verify`` returns that rejection without building a drawing.

Accept half.  Inserting a route splits its own edge and its own two faces
and no other face, since the darts it replaces at the edge's ends and the
corners it fills at its tail and head all lie on those two faces; so in
any insertion order every other route finds its edge, its two faces and
its ends on them as in the graph.  This is the disjoint-faces argument of
the doubly connected edge list (Muller and Preparata, 1978).  Every
solver certificate on a triangulation has every route apart: two options
that share a triangle would clash.

Reject half.  No state of the drawing realizes route i: inserts only split
faces, so each face of a later drawing lies inside one face of the graph,
on the same side of each segment of e as of e.  A realization of route i
leaves a corner of its tail on one side of a segment of e and meets its
head on the other side, so its tail and head lie one on each face of e in
the graph.  The replay reaches level i and stops there: by the accept half
routes 0 to i - 1 have a joint realization, so the complete depth-first
replay finds one and asks level i for its realizations, in any order of
its choices; it finds none in any state, so it never enters level i + 1,
and its deepest level is i.  The one answer that differs is a replay that
would pass its node budget: it raises where the static answer is the
rejection, which is correct.

The check.  ``_apart`` returns the least route that is not apart, ``bad``,
from one table of the route on each face and one pass over the darts: each
face goes to the least route that names it, so a later route that shares
it keeps darts on at most one side and fails, and a dart on route i's face
marks whether the tail or the head of route i lies there.  Whether route i
is apart reads routes 0 to i alone, so routes 0 to bad - 1 are apart.  A
route before ``bad`` has its ends one on each face of its edge, so the
reject half can name no route but ``bad``, and ``_unrealizable`` tests
that one route: a vertex lies on the faces of the darts that leave it, one
row of the face table per end.  Any other certificate goes to the replay
unchanged, so every other rejection comes from the search or the static
pass.

``insert`` writes the new edge in place and journals one record,
``(u, start_pos, v, end_pos, edges_before, vertices_before, splits)``,
with one ``(d, a, pos_a, b, pos_b, owner, seg_idx, seg_dart)`` tuple per
crossed dart d from a to b: the positions of d at a and of its twin at b,
and where the segment dart ``seg_dart`` (d or its twin) stood in its
logical edge's segment list.  ``undo`` removes the new darts at u and v,
truncates the edge and vertex tables (dummy vertices and the new logical
edge go with them), and puts each split edge back, last crossing first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from ._rng import Lcg64
from .instance_io import INSERTED, Instance, Solution
from .plane_graph import PlaneGraph, _int_arg
from .search import backtrack


_NO_JOINT = "no joint realization of the routes"


@dataclass(frozen=True)
class VerifyResult:
    accepted: bool
    reason: str | None = None
    f_edge: int | None = None
    detail: str | None = None


class Realization(NamedTuple):
    """One way to draw a route: a start corner at its tail, the darts whose
    edges it crosses (one per face transition), and an end corner at its
    head.  Corners are rotation positions valid in the state the
    realization was enumerated in."""

    start_pos: int
    crossings: tuple[int, ...]
    end_pos: int


class PlanarizedDrawing:
    """Mutable planarization of an instance with journaled undo."""

    def __init__(self, inst: Instance):
        g: PlaneGraph = inst.graph
        n = g.vertex_count
        self.k = inst.k
        # Logical edges: 0..E-1 are graph edges, E+i is inserted edge i.
        self.graph_edges = g.edge_count
        head, twin = g.table("head"), g.table("twin")
        tail, ed = head[twin], g.table("edge_dart")
        self.ends: list[tuple[int, int]] = list(
            zip(tail[ed].tolist(), head[ed].tolist()))
        self.owner: list[int] = list(range(g.edge_count))
        self.segments: list[list[int]] = [
            [d] for d in range(0, 2 * g.edge_count, 2)]
        # Graph dart d becomes working dart 2*edge + (tail > head), since
        # every graph edge runs from its lower end; rows keep g's rotation.
        edge, off = g.table("edge"), g.table("offsets").tolist()
        darts = (2 * edge + (tail > head)).tolist()
        self.rot: list[list[int]] = [darts[off[v]:off[v + 1]]
                                     for v in range(n)]
        # One record per insert, as the module docstring describes.
        self.journal: list[tuple] = []

    # -- dart primitives ---------------------------------------------------

    def face_cycle(self, c: int) -> list[int]:
        """The darts of c's face, in succ order from c."""
        rot, ends = self.rot, self.ends
        out = [c]
        t = c ^ 1
        row = rot[ends[t >> 1][t & 1]]
        d = row[(row.index(t) + 1) % len(row)]
        while d != c:
            out.append(d)
            t = d ^ 1
            row = rot[ends[t >> 1][t & 1]]
            d = row[(row.index(t) + 1) % len(row)]
        return out

    # -- realization search ----------------------------------------------------

    def adjacent_logicals(self, u: int, v: int) -> set[int]:
        """Logical edges sharing an endpoint with (u, v): never crossable."""
        owner = self.owner
        return {owner[d >> 1] for d in self.rot[u] + self.rot[v]}

    def enumerate_realizations(self, u: int, v: int,
                               pinned: Sequence[int] | None,
                               max_crossings: int,
                               rng: Lcg64 | None = None) -> list[Realization]:
        """All ways to route u -> v; `pinned` fixes the crossed logical
        edges in order, otherwise anything within budgets goes.  Fewer
        crossings come first, as the module docstring describes.  A pinned
        list names no edge twice: verify's static pass rejects such a
        route before any replay."""
        # Pinned routes cross only what they name, and verify's static pass
        # has already rejected a named edge that shares an endpoint.
        forbidden = self.adjacent_logicals(u, v) if pinned is None else ()
        rot, ends, owner, segments, k = (self.rot, self.ends, self.owner,
                                         self.segments, self.k)
        walk = self.face_cycle
        faces: dict[int, list[int]] = {}  # dart -> its face, as walked
        row_u, row_v = rot[u], rot[v]
        last = max_crossings if pinned is None else len(pinned)
        if pinned:
            # Only a corner on a face of pinned[0] can start the route.
            corners = set()
            for s in segments[pinned[0]]:
                for d in (s, s ^ 1):
                    cyc = faces.get(d)
                    if cyc is None:
                        cyc = walk(d)
                        faces.update(dict.fromkeys(cyc, cyc))
                    for c in cyc:
                        if ends[c >> 1][c & 1] == u:
                            corners.add(c)
            starts = sorted(row_u.index(c) for c in corners)
        else:
            starts = list(range(len(row_u)))
        if rng is not None:
            rng.shuffle(starts)

        results: list[Realization] = []
        # Level j: every j-crossing path as (start position, crossed darts,
        # the corner it entered its last face by), in lexicographic order.
        level = []
        for p in starts:
            level.append((p, (), row_u[p]))
        for j in range(last + 1):
            stop = pinned is None or j == last  # may end in this face
            if j < last and pinned is not None:
                want = pinned[j]
            grown = []
            for p, crossed, corner in level:
                cyc = faces.get(corner)
                if cyc is None:
                    cyc = walk(corner)
                    faces.update(dict.fromkeys(cyc, cyc))
                elif cyc[0] != corner:
                    i = cyc.index(corner)
                    cyc = cyc[i:] + cyc[:i]
                if stop:
                    for d in cyc:
                        if ends[d >> 1][d & 1] == v:
                            results.append(
                                Realization(p, crossed, row_v.index(d)))
                if j == last:
                    continue
                if rng is not None:
                    cyc = cyc[:]
                    rng.shuffle(cyc)
                if pinned is not None:
                    for d in cyc:
                        if owner[d >> 1] == want:
                            grown.append((p, crossed + (d,), d ^ 1))
                    continue
                used = [owner[c >> 1] for c in crossed]
                for d in cyc:
                    L = owner[d >> 1]
                    if not (L in forbidden or L in used
                            or len(segments[L]) > k):
                        grown.append((p, crossed + (d,), d ^ 1))
            level = grown
        return results

    # -- surgery -----------------------------------------------------------------

    def insert(self, u: int, v: int, real: Realization) -> int:
        """Insert a new logical edge u->v along the realization; returns an
        undo token."""
        token = len(self.journal)
        rot, ends, owner, segments = (self.rot, self.ends, self.owner,
                                      self.segments)
        e0, v0 = len(ends), len(rot)
        logical = len(segments)
        c = len(real.crossings)
        # Crossing i splits its edge into e0 + 2i (a, m) and e0 + 2i + 1
        # (m, b) at the dummy m = v0 + i; the new edge's segments are r..r+c.
        r = e0 + 2 * c
        splits = []
        for i, d in enumerate(real.crossings):
            ab = ends[d >> 1]
            a, b = ab[d & 1], ab[1 - (d & 1)]
            L = owner[d >> 1]
            h = 2 * (e0 + 2 * i)  # darts a->m, m->a, m->b, b->m: h..h+3
            m = v0 + i
            ends += ((a, m), (m, b))
            owner += (L, L)
            # Around m: the route's next segment, m->a, the route's
            # segment into m, m->b.
            rot.append([2 * (r + i + 1), h + 1, 2 * (r + i) + 1, h + 2])
            row = rot[a]
            pos_a = row.index(d)
            row[pos_a] = h
            row = rot[b]
            pos_b = row.index(d ^ 1)
            row[pos_b] = h + 3
            seg = segments[L]
            if d in seg:
                s, halves = d, (h, h + 2)
            else:
                s, halves = d ^ 1, (h + 3, h + 1)
            idx = seg.index(s)
            seg[idx:idx + 1] = halves
            splits.append((d, a, pos_a, b, pos_b, L, idx, s))
        points = [u, *range(v0, v0 + c), v]
        ends += zip(points, points[1:])
        owner += [logical] * (c + 1)
        segments.append(list(range(2 * r, 2 * (r + c) + 1, 2)))
        rot[u].insert(real.start_pos, 2 * r)
        rot[v].insert(real.end_pos, 2 * (r + c) + 1)
        self.journal.append((u, real.start_pos, v, real.end_pos, e0, v0,
                             splits))
        return token

    def undo(self, token: int) -> None:
        """Take back every insert made since `token`, latest first."""
        j = self.journal
        rot, segments = self.rot, self.segments
        while len(j) > token:
            u, start_pos, v, end_pos, e0, v0, splits = j.pop()
            del rot[v][end_pos]
            del rot[u][start_pos]
            del rot[v0:]
            del self.ends[e0:]
            del self.owner[e0:]
            segments.pop()
            for d, a, pos_a, b, pos_b, L, idx, s in reversed(splits):
                rot[b][pos_b] = d ^ 1
                rot[a][pos_a] = d
                segments[L][idx:idx + 2] = [s]

    # -- replay ------------------------------------------------------------------

    def search(self, F: Sequence[tuple[int, int]],
               pinned: Sequence[Sequence[int]] | None, rng: Lcg64 | None,
               node_budget: int) -> Iterator[list[Realization]]:
        """Insert the edges of F depth-first, edge i crossing the logical
        edges pinned[i] in order or, with pinned None, any within budget.
        At each joint realization, yields the realizations in force, one
        per edge, which the drawing holds until the search resumes (or for
        good if the caller stops).  self.deepest is the deepest edge
        reached.  Raises SearchBudgetExceeded past node_budget inserts."""
        self.deepest = 0
        reals: list[Realization] = []
        tokens: list[int] = []

        def choices(i: int) -> list[Realization]:
            self.deepest = max(self.deepest, i)
            return self.enumerate_realizations(
                *F[i], None if pinned is None else pinned[i], self.k, rng)

        def enter(i: int, real: Realization) -> None:
            tokens.append(self.insert(*F[i], real))
            reals.append(real)

        def leave(i: int) -> None:
            reals.pop()
            self.undo(tokens.pop())

        for _ in backtrack(len(F), choices, enter, leave, node_budget):
            yield reals


# --- verify -------------------------------------------------------------------


def verify(inst: Instance, sol: Solution, seed: int | None = None,
           node_budget: int = 2_000_000) -> VerifyResult:
    """Replay a solution; Accepted iff some joint realization of all routes
    exists and every edge ends with at most k crossings.  Routes on faces
    of their own are accepted without a replay, and a route that no state
    can realize after such routes is rejected without one (the module
    docstring's lemma).  Raises SearchBudgetExceeded past node_budget
    inserted realizations of a replay; a certificate settled without a
    replay never raises it."""
    rng = None if seed is None else Lcg64(_int_arg("seed", seed))
    node_budget = _int_arg("node_budget", node_budget)
    m = len(inst.F)
    if len(sol.start) - 1 != m:
        return VerifyResult(False, "no_realization", None,
                            f"{len(sol.start) - 1} routes for {m} edges")
    static = _static_pass(inst, sol)
    if isinstance(static, VerifyResult):
        return static
    logical, fuv = static
    g, start = inst.graph, sol.start
    bad = _apart(g, start, logical, fuv)
    if bad is None:
        return VerifyResult(True)
    if _unrealizable(g, bad, start, logical, fuv):
        return VerifyResult(False, "no_realization", bad, _NO_JOINT)
    start, logical = start.tolist(), logical.tolist()
    pinned = [logical[s:e] for s, e in zip(start, start[1:])]
    pd = PlanarizedDrawing(inst)
    for _ in pd.search(inst.F, pinned, rng, node_budget):
        # Internal invariant: a pinned route splits exactly the edges it
        # names and itself, so every logical edge has the static pass's
        # crossing count, len(segments) - 1, and it is at most k.
        assert max(map(len, pd.segments), default=1) <= inst.k + 1
        return VerifyResult(True)
    return VerifyResult(False, "no_realization", pd.deepest, _NO_JOINT)


def _static_pass(inst: Instance, sol: Solution
                 ) -> tuple[np.ndarray, np.ndarray] | VerifyResult:
    """Every event's logical id (graph edge e is e, inserted edge i is
    E + i) and the (u, v) rows of F, as int64 arrays, or the rejection of
    the first failing route, then of the first logical edge crossed more
    than k times.  A route fails over its budget, else at its first event
    naming a non-edge, an edge it already named, or an edge sharing an
    endpoint with its own, checked in that order.

    The checks are array passes; a graph-edge event is resolved by one
    sorted search over the edge codes, and a repeat is an event that a
    stable sort of the (route, logical) codes puts after an equal one."""
    g, k, m = inst.graph, inst.k, len(inst.F)
    edges = g.edge_count
    start, kind, a, b = sol.start, sol.kind, sol.a, sol.b
    length = np.diff(start)
    route = np.repeat(np.arange(m), length)
    fuv = np.fromiter(chain.from_iterable(inst.F), np.int64,
                      2 * m).reshape(-1, 2)
    inserted = kind == INSERTED
    index = np.where(inserted, a, 0)
    logical = np.where(inserted, edges + index, g.edges_between(a, b))
    # The crossed edge's endpoints against the route's own.
    la = np.where(inserted, fuv[index, 0], a)
    lb = np.where(inserted, fuv[index, 1], b)
    u, v = fuv[route, 0], fuv[route, 1]
    nonedge = logical < 0
    adjacent = (la == u) | (la == v) | (lb == u) | (lb == v)
    code = route * (edges + m + 1) + logical + 1
    order = np.argsort(code, kind="stable")
    repeat = np.zeros(len(code), bool)
    repeat[order[1:]] = code[order[1:]] == code[order[:-1]]
    fail = nonedge | repeat | adjacent
    over = length > k
    failing = np.concatenate((route[fail], np.flatnonzero(over)))
    if len(failing):
        i = int(failing.min())
        if over[i]:
            return VerifyResult(False, "crossing_budget_exceeded", i,
                                f"inserted edge {i} would cross "
                                f"{length[i]} times")
        # Routes run in order, so route i holds the first failing event.
        j = int(fail.argmax())
        detail = (f"({a[j]},{b[j]}) is not a graph edge" if nonedge[j]
                  else "route crosses one edge twice" if repeat[j]
                  else "route crosses an adjacent edge")
        return VerifyResult(False, "no_realization", i, detail)
    count = np.bincount(logical, minlength=edges + m)
    count[edges:] += length
    over = np.flatnonzero(count > k)
    if len(over):
        e = int(over[0])
        detail = (f"graph edge {g.edge_endpoints(e)}" if e < edges
                  else f"inserted edge {e - edges}")
        return VerifyResult(False, "crossing_budget_exceeded", None,
                            f"{detail} crossed {count[e]} > {k} times")
    return logical, fuv


def _apart(g: PlaneGraph, start: np.ndarray, logical: np.ndarray,
           fuv: np.ndarray) -> int | None:
    """The least route that is not apart (the module docstring's lemma),
    for routes that passed the static pass, with their route offsets,
    logical ids and F's rows; None when every route is apart.  Route i
    fails when it does not cross exactly one graph edge, when an earlier
    route names one of its faces or its edge has one face on both sides, or
    when its tail and head are not one on each face.  Each condition reads
    routes 0 to i alone, so the routes before the least failing one are all
    apart."""
    m = len(fuv)
    one = np.diff(start) == 1
    one[one] = logical[start[:-1][one]] < g.edge_count
    # No route after the first that fails here can be the least failing
    # one; the routes before it have one event each.
    cut = m if one.all() else int(one.argmin())
    face, twin = g.table("face"), g.table("twin")
    d = g.table("edge_dart")[logical[:cut]]
    # Route i's first face is sides[i], its second sides[cut + i].
    sides = np.concatenate((face[d], face[twin[d]]))
    # Each face goes to the least route that names it.  A later route that
    # names it, or a route whose edge has one face on both sides, keeps
    # darts on at most one side and fails below.
    route = np.full(g.face_count, cut)
    np.minimum.at(route, sides, np.tile(np.arange(cut), 2))
    at = route[face]  # each dart's route, or cut
    on = np.flatnonzero(at < cut)
    r, t = at[on], g.table("head")[twin[on]]
    second = face[on] != sides[r]
    is_u, is_v = t == fuv[r, 0], t == fuv[r, 1]
    # seen[i] = (u on the first face, v on it, u on the second, v on it).
    seen = np.zeros(4 * cut, bool)
    seen[(4 * r + 2 * second + is_v)[is_u | is_v]] = True
    seen = seen.reshape(cut, 4)
    bad = np.flatnonzero(~((seen[:, 0] & seen[:, 3])
                           | (seen[:, 2] & seen[:, 1])))
    if len(bad):
        return int(bad[0])
    return None if cut == m else cut


def _unrealizable(g: PlaneGraph, i: int, start: np.ndarray,
                  logical: np.ndarray, fuv: np.ndarray) -> bool:
    """Whether route i crosses exactly one graph edge e while its tail and
    head are not one on each face of e: no state of the drawing realizes
    it (the module docstring's reject half).  Reads the face-table rows of
    its two ends."""
    if start[i + 1] - start[i] != 1 or logical[start[i]] >= g.edge_count:
        return False
    face, off = g.table("face"), g.table("offsets")
    d = g.table("edge_dart")[logical[start[i]]]
    f1, f2 = face[d], face[g.table("twin")[d]]
    u, v = fuv[i]
    at_u, at_v = face[off[u]:off[u + 1]], face[off[v]:off[v + 1]]
    return not ((f1 in at_u and f2 in at_v) or (f2 in at_u and f1 in at_v))
