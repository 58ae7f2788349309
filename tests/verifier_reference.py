"""The verifier's drawing kernels as they were before the bulk build, the
pinned start-corner prune and the in-place insert: a per-edge loop that
lays out the initial drawing with per-vertex incidence lists, a recursive
enumeration that starts a route's search at every corner of its tail, and
an insert that journals every change through a method, one record each.
Kept as the reference that test_verifier_kernels.py compares
PlanarizedDrawing with; the functions take the drawing as ``self`` and
ReferenceDrawing holds the old surgery methods, so their bodies are the
old methods' bodies unchanged.  validate_drawing checks a drawing's
structure and its Euler count."""

from __future__ import annotations

from typing import Sequence

from planeinsert._rng import Lcg64
from planeinsert.instance_io import Instance
from planeinsert.plane_graph import PlaneGraph
from planeinsert.verifier import PlanarizedDrawing, Realization


def tail(pd: PlanarizedDrawing, d: int) -> int:
    """The vertex that working dart d leaves."""
    return pd.ends[d >> 1][d & 1]


def validate_drawing(pd: PlanarizedDrawing, base_vertices: int) -> None:
    """Euler check and structural sanity of a working drawing whose
    first base_vertices vertices are the graph's."""
    all_darts = [d for row in pd.rot for d in row]
    assert len(all_darts) == len(set(all_darts)), "duplicate dart"
    dart_set = set(all_darts)
    for d in dart_set:
        assert d ^ 1 in dart_set, f"missing twin of {d}"
        assert d in pd.rot[tail(pd, d)]
    n = len(pd.rot)
    e = len(all_darts) // 2
    seen: set[int] = set()
    faces = 0
    for d in dart_set:
        if d in seen:
            continue
        faces += 1
        seen.update(pd.face_cycle(d))
    assert n - e + faces == 2, f"Euler violated: {n}-{e}+{faces}"
    for m in range(base_vertices, len(pd.rot)):
        assert len(pd.rot[m]) in (2, 4), f"dummy {m} degree"
    # A logical edge's segments run end to end, one dummy vertex at each
    # crossing.
    for logical, segs in enumerate(pd.segments):
        assert all(pd.owner[s >> 1] == logical for s in segs)
        for s, t in zip(segs, segs[1:]):
            assert tail(pd, s ^ 1) == tail(pd, t) >= base_vertices


def drawing(inst: Instance) -> ReferenceDrawing:
    """A ReferenceDrawing whose state is laid out by `init`."""
    pd = ReferenceDrawing.__new__(ReferenceDrawing)
    init(pd, inst)
    return pd


def init(self, inst: Instance):
    g: PlaneGraph = inst.graph
    self.k = inst.k
    self.rot: list[list[int]] = []
    self.ends: list[tuple[int, int]] = []
    self.owner: list[int] = []
    # Logical edges: 0..E-1 are graph edges, E+i is inserted edge i.
    self.graph_edges = g.edge_count
    self.segments: list[list[int]] = []
    self.count: list[int] = []
    # Logical edges at each original vertex, in creation order.
    self.incident: list[list[int]] = [[] for _ in range(g.vertex_count)]
    self.journal: list[tuple] = []

    for e in range(g.edge_count):
        a, b = g.edge_endpoints(e)
        self.ends.append((a, b))
        self.owner.append(e)
        self.segments.append([2 * e])
        self.count.append(0)
        self.incident[a].append(e)
        self.incident[b].append(e)
    for v in range(g.vertex_count):
        row = []
        for d in g.darts_at(v):
            e = g._edge[d]
            a, _ = g.edge_endpoints(e)
            row.append(2 * e if v == a else 2 * e + 1)
        self.rot.append(row)


def enumerate_realizations(self, u: int, v: int,
                           pinned: Sequence[int] | None,
                           max_crossings: int,
                           rng: Lcg64 | None = None) -> list[Realization]:
    """All ways to route u -> v; `pinned` fixes the crossed logical
    edges in order, otherwise anything within budgets goes."""
    forbidden = self.adjacent_logicals(u, v)
    results: list[Realization] = []
    owner = self.owner
    count = [len(s) - 1 for s in self.segments]
    k = self.k

    def stage(corner: int, depth: int, crossed: list[int],
              used_logical: set[int]) -> None:
        cycle = self.face_cycle(corner)
        if pinned is not None:
            done = depth == len(pinned)
        else:
            done = True  # may stop in any face
        if done:
            for d in cycle:
                if tail(self, d) == v:
                    results.append(Realization(
                        start_pos=-1, crossings=tuple(crossed),
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
            stage(d ^ 1, depth + 1, crossed, used_logical)
            crossed.pop()
            used_logical.discard(L)

    start_positions = list(range(len(self.rot[u])))
    if rng is not None:
        rng.shuffle(start_positions)
    for p in start_positions:
        before = len(results)
        stage(self.rot[u][p], 0, [], set())
        for i in range(before, len(results)):
            r = results[i]
            results[i] = Realization(p, r.crossings, r.end_pos)
    # Canonical order prefers fewer crossings; stable within a length.
    results.sort(key=lambda r: len(r.crossings))
    return results


class ReferenceDrawing(PlanarizedDrawing):
    """A drawing that keeps `incident` and changes itself with the old
    journaled mutations, one journal record per change."""

    def head(self, d: int) -> int:
        return self.ends[d >> 1][1 - (d & 1)]

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
            a, b = tail(self, d), self.head(d)
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

        points = [u] + [tail(self, c) for c in entry_corner] + [v]
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
