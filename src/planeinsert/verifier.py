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
table is maintained, and every mutation is journaled for exact undo.  The
initial drawing is laid out in bulk from the graph's dart tables: graph
dart d becomes working dart ``2*edge(d) + (tail(d) > head(d))``, each
rotation row is a slice of that column at the graph's row offsets, and the
incidence lists are the edge column sorted by (tail, edge).

A route of ``verify`` pins its crossed logical edges, so its search starts
only at the corners of u that share a face with a segment of the first
pinned edge: the faces of each segment dart and of its twin are walked, and
the corners at u on them are tried in increasing rotation position.  No
other corner can reach that edge, so the realizations, and their order, are
those of a scan of every corner at u; the cost per route is
O(segments of ``pinned[0]`` x face length) instead of O(deg u x face
length).  Unpinned searches, and routes that cross nothing, still try every
corner at u.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._rng import Lcg64
from .errors import InvalidRealization
from .instance_io import Instance, Solution
from .plane_graph import PlaneGraph
from .search import backtrack


@dataclass(frozen=True)
class VerifyResult:
    accepted: bool
    reason: str | None = None
    f_edge: int | None = None
    detail: str | None = None


@dataclass(frozen=True)
class Realization:
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
        self.base_vertices = n
        self.k = inst.k
        # Logical edges: 0..E-1 are graph edges, E+i is inserted edge i.
        self.graph_edges = g.edge_count
        self.ends: list[tuple[int, int]] = list(
            zip(g.table("eu").tolist(), g.table("ev").tolist()))
        self.owner: list[int] = list(range(g.edge_count))
        self.segments: list[list[int]] = [
            [d] for d in range(0, 2 * g.edge_count, 2)]
        self.count: list[int] = [0] * g.edge_count
        # Graph dart d becomes working dart 2*edge + (tail > head), since
        # every graph edge runs from its lower end; rows keep g's rotation.
        tail, head, edge = g.table("tail"), g.table("head"), g.table("edge")
        off = g.table("offsets").tolist()
        darts = (2 * edge + (tail > head)).tolist()
        self.rot: list[list[int]] = [darts[off[v]:off[v + 1]]
                                     for v in range(n)]
        # Logical edges at each original vertex, in creation order.
        by_vertex = edge[np.lexsort((edge, tail))].tolist()
        self.incident: list[list[int]] = [by_vertex[off[v]:off[v + 1]]
                                          for v in range(n)]
        self.journal: list[tuple] = []

    # -- dart primitives ---------------------------------------------------

    def tail(self, d: int) -> int:
        return self.ends[d >> 1][d & 1]

    def head(self, d: int) -> int:
        return self.ends[d >> 1][1 - (d & 1)]

    def succ(self, d: int) -> int:
        t = d ^ 1
        row = self.rot[self.ends[t >> 1][t & 1]]
        return row[(row.index(t) + 1) % len(row)]

    def face_cycle(self, c: int) -> list[int]:
        out = [c]
        d = self.succ(c)
        while d != c:
            out.append(d)
            d = self.succ(d)
        return out

    def vertex_count(self) -> int:
        return len(self.rot)

    def edge_count(self) -> int:
        return sum(len(r) for r in self.rot) // 2

    # -- journaled mutations -------------------------------------------------

    def _rot_insert(self, v: int, pos: int, d: int) -> None:
        self.rot[v].insert(pos, d)
        self.journal.append(("ri", v, pos))

    def _rot_set(self, v: int, pos: int, d: int) -> None:
        self.journal.append(("rs", v, pos, self.rot[v][pos]))
        self.rot[v][pos] = d

    def _new_vertex(self, row: list[int]) -> int:
        self.rot.append(row)
        self.journal.append(("vtx",))
        return len(self.rot) - 1

    def _new_edge(self, a: int, b: int, owner: int) -> int:
        self.ends.append((a, b))
        self.owner.append(owner)
        self.journal.append(("edge",))
        return len(self.ends) - 1

    def _bump(self, logical: int) -> None:
        self.count[logical] += 1
        self.journal.append(("cnt", logical))

    def _seg_splice(self, logical: int, idx: int, new: list[int]) -> None:
        old = self.segments[logical][idx:idx + 1]
        self.segments[logical][idx:idx + 1] = new
        self.journal.append(("seg", logical, idx, old, len(new)))

    def token(self) -> int:
        return len(self.journal)

    def undo(self, token: int) -> None:
        j = self.journal
        while len(j) > token:
            op = j.pop()
            tag = op[0]
            if tag == "ri":
                del self.rot[op[1]][op[2]]
            elif tag == "rs":
                self.rot[op[1]][op[2]] = op[3]
            elif tag == "vtx":
                self.rot.pop()
            elif tag == "edge":
                self.ends.pop()
                self.owner.pop()
            elif tag == "cnt":
                self.count[op[1]] -= 1
            elif tag == "seg":
                _, logical, idx, old, added = op
                self.segments[logical][idx:idx + added] = old
            elif tag == "lg":
                self.segments.pop()
                self.count.pop()
                self.incident[op[1]].pop()
                self.incident[op[2]].pop()
            else:  # pragma: no cover
                raise AssertionError(tag)

    # -- realization search ----------------------------------------------------

    def adjacent_logicals(self, u: int, v: int) -> set[int]:
        """Logical edges sharing an endpoint with (u, v): never crossable."""
        return {*self.incident[u], *self.incident[v]}

    def enumerate_realizations(self, u: int, v: int,
                               pinned: Sequence[int] | None,
                               max_crossings: int,
                               rng: Lcg64 | None = None) -> list[Realization]:
        """All ways to route u -> v; `pinned` fixes the crossed logical
        edges in order, otherwise anything within budgets goes."""
        # Pinned routes cross only what they name, and verify's static pass
        # has already rejected a named edge that shares an endpoint.
        forbidden = self.adjacent_logicals(u, v) if pinned is None else ()
        results: list[Realization] = []
        owner = self.owner
        count = self.count
        k = self.k

        def stage(p: int, corner: int, depth: int, crossed: list[int],
                  used_logical: set[int]) -> None:
            cycle = self.face_cycle(corner)
            if pinned is not None:
                done = depth == len(pinned)
            else:
                done = True  # may stop in any face
            if done:
                for d in cycle:
                    if self.tail(d) == v:
                        results.append(Realization(
                            start_pos=p, crossings=tuple(crossed),
                            end_pos=self.rot[v].index(d)))
            if pinned is None and depth == max_crossings:
                return
            if pinned is not None and depth == len(pinned):
                return
            want = pinned[depth] if pinned is not None else None
            if rng is None:
                cand = cycle
            else:
                cand = list(cycle)
                rng.shuffle(cand)
            for d in cand:
                L = owner[d >> 1]
                if want is not None:
                    if L != want:
                        continue
                elif L in forbidden or L in used_logical or count[L] >= k:
                    continue
                if L in used_logical:
                    continue
                used_logical.add(L)
                crossed.append(d)
                stage(p, d ^ 1, depth + 1, crossed, used_logical)
                crossed.pop()
                used_logical.discard(L)

        if pinned:
            start_positions = self._start_positions(u, pinned[0])
        else:
            start_positions = list(range(len(self.rot[u])))
        if rng is not None:
            rng.shuffle(start_positions)
        for p in start_positions:
            stage(p, self.rot[u][p], 0, [], set())
        # Canonical order prefers fewer crossings; stable within a length.
        results.sort(key=lambda r: len(r.crossings))
        return results

    def _start_positions(self, u: int, logical: int) -> list[int]:
        """Rotation positions at u, increasing, of the corners whose face
        holds a dart of `logical`: no other corner can start a route that
        crosses `logical` first."""
        corners = set()
        for s in self.segments[logical]:
            for d in (s, s ^ 1):
                corners.update(c for c in self.face_cycle(d)
                               if self.tail(c) == u)
        row = self.rot[u]
        return sorted(row.index(c) for c in corners)

    # -- surgery -----------------------------------------------------------------

    def insert(self, u: int, v: int, real: Realization) -> int:
        """Insert a new logical edge u->v along the realization; returns an
        undo token."""
        token = self.token()
        logical = len(self.segments)
        self.segments.append([])
        self.count.append(0)
        self.incident[u].append(logical)
        self.incident[v].append(logical)
        self.journal.append(("lg", u, v))

        entry_corner: list[int] = []
        exit_corner: list[int] = []
        for d in real.crossings:
            eid = d >> 1
            a, b = self.tail(d), self.head(d)
            owner_l = self.owner[eid]
            e1 = self._new_edge(a, -1, owner_l)  # (a, m); m patched below
            e2 = self._new_edge(-1, b, owner_l)  # (m, b)
            m = self._new_vertex([2 * e1 + 1, 2 * e2])
            self.ends[e1] = (a, m)
            self.ends[e2] = (m, b)
            pos_a = self.rot[a].index(d)
            self._rot_set(a, pos_a, 2 * e1)
            pos_b = self.rot[b].index(d ^ 1)
            self._rot_set(b, pos_b, 2 * e2 + 1)
            seg = self.segments[owner_l]
            if d in seg:
                self._seg_splice(owner_l, seg.index(d), [2 * e1, 2 * e2])
            else:
                idx = seg.index(d ^ 1)
                self._seg_splice(owner_l, idx, [2 * e2 + 1, 2 * e1 + 1])
            self._bump(owner_l)
            self._bump(logical)
            entry_corner.append(2 * e2)      # dart m->b, on the entry face
            exit_corner.append(2 * e1 + 1)   # dart m->a, on the exit face

        points = [u] + [self.tail(c) for c in entry_corner] + [v]
        for j in range(len(points) - 1):
            x, y = points[j], points[j + 1]
            if j == 0:
                pos_x = real.start_pos
            else:
                pos_x = self.rot[x].index(exit_corner[j - 1])
            if j == len(points) - 2:
                pos_y = real.end_pos
            else:
                pos_y = self.rot[y].index(entry_corner[j])
            e = self._new_edge(x, y, logical)
            self._rot_insert(x, pos_x, 2 * e)
            self._rot_insert(y, pos_y, 2 * e + 1)
            self.segments[logical].append(2 * e)
            self.journal.append(("seg", logical,
                                 len(self.segments[logical]) - 1, [], 1))
        return token

    # -- validation (tests) -------------------------------------------------------

    def validate(self) -> None:
        """Euler check and structural sanity of the working drawing."""
        all_darts = [d for row in self.rot for d in row]
        assert len(all_darts) == len(set(all_darts)), "duplicate dart"
        dart_set = set(all_darts)
        for d in dart_set:
            assert d ^ 1 in dart_set, f"missing twin of {d}"
            assert d in self.rot[self.tail(d)]
        n = len(self.rot)
        e = len(all_darts) // 2
        seen: set[int] = set()
        faces = 0
        for d in dart_set:
            if d in seen:
                continue
            faces += 1
            seen.update(self.face_cycle(d))
        assert n - e + faces == 2, f"Euler violated: {n}-{e}+{faces}"
        for m in range(self.base_vertices, len(self.rot)):
            assert len(self.rot[m]) in (2, 4), f"dummy {m} degree"
        for logical, segs in enumerate(self.segments):
            assert len(segs) == self.count[logical] + 1 or not segs


def planarize_insert(pd: PlanarizedDrawing, f_edge: tuple[int, int],
                     real: Realization) -> int:
    """Spec-level wrapper: insert one edge along a realization.

    Raises InvalidRealization when the realization does not fit the current
    drawing (stale corners, reused segments, or a broken face walk)."""
    u, v = f_edge
    try:
        _check_realization(pd, u, v, real)
    except (IndexError, ValueError) as exc:
        raise InvalidRealization(str(exc)) from exc
    return pd.insert(u, v, real)


def _check_realization(pd: PlanarizedDrawing, u: int, v: int,
                       real: Realization) -> None:
    if not (0 <= real.start_pos < len(pd.rot[u])):
        raise InvalidRealization("start corner out of range")
    if len(set(d >> 1 for d in real.crossings)) != len(real.crossings):
        raise InvalidRealization("segment reused within route")
    corner = pd.rot[u][real.start_pos]
    for d in real.crossings:
        if d not in pd.face_cycle(corner):
            raise InvalidRealization("crossing dart not on current face")
        corner = d ^ 1
    final = pd.face_cycle(corner)
    ends = [d for d in final if pd.tail(d) == v]
    if not (0 <= real.end_pos < len(pd.rot[v])):
        raise InvalidRealization("end corner out of range")
    if pd.rot[v][real.end_pos] not in ends:
        raise InvalidRealization("end corner not on final face")


# --- verify -------------------------------------------------------------------


def verify(inst: Instance, sol: Solution, seed: int | None = None,
           node_budget: int = 2_000_000) -> VerifyResult:
    """Replay a solution; Accepted iff some joint realization of all routes
    exists and every edge ends with at most k crossings.  Raises
    SearchBudgetExceeded past node_budget inserted realizations."""
    if len(sol.routes) != len(inst.F):
        return VerifyResult(False, "no_realization", None,
                            f"{len(sol.routes)} routes for {len(inst.F)} edges")
    g = inst.graph
    k = inst.k
    m = len(inst.F)

    # Resolve events to logical ids and run the static checks.
    pinned_all: list[list[int]] = []
    counts = [0] * (g.edge_count + m)
    for i, route in enumerate(sol.routes):
        u, v = inst.F[i]
        if len(route.events) > k:
            return VerifyResult(False, "crossing_budget_exceeded", i,
                                f"inserted edge {i} would cross "
                                f"{len(route.events)} times")
        named: set[int] = set()
        pinned: list[int] = []
        for ev in route.events:
            if ev.kind == "graph_edge":
                a, b = ev.target
                e = g.edge_between(a, b)
                if e is None:
                    return VerifyResult(False, "no_realization", i,
                                        f"({a},{b}) is not a graph edge")
                logical = e
                la, lb = a, b
            else:
                logical = g.edge_count + ev.target
                la, lb = inst.F[ev.target]
            if logical in named:
                return VerifyResult(False, "no_realization", i,
                                    "route crosses one edge twice")
            if la in (u, v) or lb in (u, v):
                return VerifyResult(False, "no_realization", i,
                                    "route crosses an adjacent edge")
            named.add(logical)
            counts[logical] += 1
            pinned.append(logical)
        counts[g.edge_count + i] += len(route.events)
        pinned_all.append(pinned)
    for logical, c in enumerate(counts):
        if c > k:
            if logical < g.edge_count:
                detail = f"graph edge {g.edge_endpoints(logical)}"
            else:
                detail = f"inserted edge {logical - g.edge_count}"
            return VerifyResult(False, "crossing_budget_exceeded",
                                None, f"{detail} crossed {c} > {k} times")

    pd = PlanarizedDrawing(inst)
    rng = Lcg64(seed) if seed is not None else None
    tokens: list[int] = []
    deepest = 0

    def choices(i: int) -> list[Realization]:
        nonlocal deepest
        deepest = max(deepest, i)
        u, v = inst.F[i]
        return pd.enumerate_realizations(u, v, pinned_all[i],
                                         len(pinned_all[i]), rng=rng)

    def enter(i: int, real: Realization) -> None:
        tokens.append(pd.insert(*inst.F[i], real))

    def leave(i: int) -> None:
        pd.undo(tokens.pop())

    for _ in backtrack(m, choices, enter, leave, node_budget):
        # Internal invariant: a pinned route bumps exactly the edges it
        # names and itself, so the counts are the static pass's, all <= k.
        assert all(c <= k for c in pd.count)
        return VerifyResult(True)
    return VerifyResult(False, "no_realization", deepest,
                        "no joint realization of the routes")
