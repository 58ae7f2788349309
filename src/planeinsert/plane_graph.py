"""Index-based combinatorial plane embeddings.

A drawing is stored as a rotation system: for every vertex the cyclic,
counterclockwise list of its neighbors.  Each undirected edge contributes
two darts (directed edge sides).  Faces are the orbits of the successor
map ``succ(d) = next(twin(d))`` where ``next`` steps counterclockwise in
the rotation at the dart's tail.  For a connected rotation system the
Euler count ``V - E + F = 2`` holds exactly when the embedding has genus
zero, which is the planarity criterion used here.

Vertices, darts, edges and faces are dense integer indices.  Dart ``d``
of vertex ``v`` occupies slot ``d - offset(v)`` of ``v``'s rotation, so
rotation-next is index arithmetic and needs no stored pointer.  The
numbering is fixed:

- darts follow the rotation, vertex by vertex;
- the twin of dart u -> v is the dart v -> u.  The builder pairs them
  with one sort of the undirected key ``min(u,v)*n + max(u,v)``: every key
  must occur exactly twice, with two different tails;
- edge e is the e-th dart u -> v with u < v, in dart order, and its
  endpoints are (u, v);
- faces are numbered by their least dart: face f is the orbit whose least
  dart is the f-th smallest of all orbit minima.  The builder finds each
  dart's orbit minimum by pointer doubling over succ.

The graph keeps seven tables, each for a reader, plus one order:

- offsets and head: the rotation itself;
- twin: the dart pairing, which the gathers below go through;
- edge and edge_dart: dart to edge, edge to its u -> v dart (solver kernels);
- face: read by the verifier's _apart on every accepted certificate, where
  recomputing it would cost a pointer doubling per verify;
- succ: the face walks;
- edge_order: the edge ids in code order eu*n + ev, found by the
  twin-pairing sort, which keeps edges_between to one sorted search.

The rest is read from head and twin by the half-edge identity of the
doubly connected edge list (Muller and Preparata, 1978), the tail of a
dart is the head of its twin: tail = head[twin], eu = head[twin[edge_dart]]
and ev = head[edge_dart].

There is one array builder, build_from_rows, over (n, row lengths, head).
build_from_rotation flattens neighbor lists into those arrays;
instance_io's canonical-text tokenizer reads them from the text itself.
Both raise the same errors: when a vector check fails, the builder names
the first defect from the lists, or from rows cut back out of head.

The builder decides connectivity with whole-array min-label
hooking (see _components) in the connect / shortcut / alter framework of
Liu and Tarjan ("Simple concurrent labeling algorithms for connected
components", SOSA 2019): at most 2*log2(n) + 1 rounds, each a pass over
the remaining edges plus pointer jumping until every tree is a star.
"""

from __future__ import annotations

import operator
from array import array
from contextlib import suppress
from itertools import chain
from typing import Iterable, NoReturn, Sequence, Sized

import numpy as np

from ._rng import Lcg64
from .errors import (
    AsymmetricAdjacency,
    Disconnected,
    InsufficientComplementPairs,
    InvalidArgument,
    InvalidRotation,
    NotPlanarEmbedding,
    SamplerGaveUp,
    SearchBudgetExceeded,
)
from .search import backtrack

# A plane rotation of K4: faces (0,1,2), (0,2,3), (0,3,1) and (2,1,3).
K4_ROTATION: list[list[int]] = [[1, 3, 2], [0, 2, 3], [1, 0, 3], [2, 0, 1]]

# The most candidates a complement-sampler search may enter: about 20 times
# the 1,001 that the largest call in the tests enters; a search stalled on a
# dead-end prefix enters millions.
SAMPLER_NODE_BUDGET = 20_000


class PlaneGraph:
    """Immutable combinatorial embedding of a connected simple plane graph."""

    __slots__ = (
        "vertex_count",
        "edge_count",
        "face_count",
        "_offsets",
        "_head",
        "_twin",
        "_edge",
        "_face",
        "_edge_dart",
        # Derived from offsets and twin: succ(d) for every dart, as 32-bit
        # dart ids below 2**31 darts.
        "_succ",
        # Not a table: the edge ids in edges_between's code order, in the
        # smallest unsigned type that holds them.
        "edge_order",
    )

    def __init__(self, offsets, head, twin, edge, face, edge_dart, succ,
                 edge_order, face_count):
        """The tables as array("q") buffers, succ as _dart_table makes it."""
        self.vertex_count = len(offsets) - 1
        self.edge_count = len(edge_dart)
        self.face_count = face_count
        self._offsets = offsets
        self._head = head
        self._twin = twin
        self._edge = edge
        self._face = face
        self._edge_dart = edge_dart
        self._succ = succ
        self.edge_order = edge_order

    # -- dart primitives ---------------------------------------------------

    def head(self, d: int) -> int:
        return self._head[d]

    def succ(self, d: int) -> int:
        """Next dart along the face of d (next of twin)."""
        return self._succ[d]

    def table(self, name: str) -> np.ndarray:
        """Read-only view of a dart or edge table ("head", "twin", "edge",
        "edge_dart", "face", ...), for whole-array kernels: int64, but for
        "succ" int32 below 2**31 darts."""
        buf = getattr(self, "_" + name)
        view = np.frombuffer(buf, dtype=buf.typecode)
        view.flags.writeable = False
        return view

    # -- vertices ------------------------------------------------------------

    def degree(self, v: int) -> int:
        return self._offsets[v + 1] - self._offsets[v]

    def darts_at(self, v: int) -> range:
        return range(self._offsets[v], self._offsets[v + 1])

    def neighbors(self, v: int) -> list[int]:
        return [self._head[d] for d in self.darts_at(v)]

    def rotation(self) -> list[list[int]]:
        """Reconstruct the per-vertex counterclockwise neighbor lists."""
        return _rows(self._head, self._offsets)

    # -- edges ---------------------------------------------------------------

    def edge_endpoints(self, e: int) -> tuple[int, int]:
        d = self._edge_dart[e]
        return self._head[self._twin[d]], self._head[d]

    def edge_darts(self, e: int) -> tuple[int, int]:
        d = self._edge_dart[e]
        return d, self._twin[d]

    def dart_between(self, u: int, v: int) -> int | None:
        """Dart from u to v, or None when (u, v) is not an edge, also when
        u or v is no vertex.

        Scans the row of the endpoint with the lower degree, so the cost
        is O(min(deg u, deg v)).
        """
        n = self.vertex_count
        if not (0 <= u < n and 0 <= v < n):
            return None
        off = self._offsets
        try:
            if off[v + 1] - off[v] < off[u + 1] - off[u]:
                return self._twin[self._head.index(u, off[v], off[v + 1])]
            return self._head.index(v, off[u], off[u + 1])
        except ValueError:
            return None

    def edge_between(self, u: int, v: int) -> int | None:
        d = self.dart_between(u, v)
        return None if d is None else self._edge[d]

    def has_edge(self, u: int, v: int) -> bool:
        return self.dart_between(u, v) is not None

    def edges_between(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """edge_between over integer arrays: the edge between u[i] and
        v[i], or -1 where there is none, also where u[i] or v[i] is no
        vertex.

        One sorted search over the codes lo*n + hi of the edges, computed
        in int64 whatever the inputs' type.  The graph keeps the edge ids
        in code order from its build, so the codes of their darts' ends
        come out sorted."""
        u, v = np.asarray(u, np.int64), np.asarray(v, np.int64)
        n = self.vertex_count
        head = self.table("head")
        ids = self.edge_order
        d = self.table("edge_dart")[ids]
        # A sentinel above every vertex pair's code ends the codes, so
        # every search lands on an entry.
        codes = np.append(head[self.table("twin")[d]] * n + head[d], n * n)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        # A pair outside the vertices gets code -1, found nowhere; its
        # lo*n may have wrapped, and np.where drops it.
        code = np.where((lo >= 0) & (hi < n), lo * n + hi, -1)
        # Searching in increasing order is several times faster.
        order = np.argsort(code)
        code = code[order]
        pos = np.searchsorted(codes, code)
        hit = codes[pos] == code
        found = np.full(len(code), -1)
        found[order[hit]] = ids[pos[hit]]
        return found

    def edges(self) -> Iterable[tuple[int, int, int]]:
        head, twin = self._head, self._twin
        for e, d in enumerate(self._edge_dart):
            yield e, head[twin[d]], head[d]


def build_from_rotation(vertex_count: int, rotation: Sequence[Sequence[int]]) -> PlaneGraph:
    """Build the embedding for counterclockwise neighbor lists.

    Raises InvalidRotation for malformed lists, AsymmetricAdjacency when the
    lists are not symmetric, Disconnected for a disconnected graph, and
    NotPlanarEmbedding when the face count violates Euler's formula.  A
    neighbor may be any integer but a bool, including an object with
    ``__index__``.  A row must be a sequence: a set or a dict has no
    neighbor order, and an iterator no length.  The lists are flattened
    here and built by the array builder behind build_from_rows.
    """
    n = vertex_count
    _check_row_count(n, rotation)
    # One subclass check per row type, before the flatten consumes a row.
    if not all(issubclass(t, Sequence) for t in set(map(type, rotation))):
        _raise_rotation_error(n, rotation)
    try:
        # Filling from a list is faster than from the chain iterator, and
        # accepts and rejects the same values.
        items = list(chain.from_iterable(rotation))
        head = array("q", items)
    except (TypeError, OverflowError):
        _raise_rotation_error(n, rotation)
    # array("q") takes a bool as 0 or 1; true is not a vertex.
    if bool in map(type, items):
        _raise_rotation_error(n, rotation)
    del items
    return _build(n, np.fromiter(map(len, rotation), np.int64, n), head,
                  rotation)


def build_from_rows(vertex_count: int, lengths: np.ndarray,
                    head: array) -> PlaneGraph:
    """Build the embedding for a rotation given as arrays: row v is the
    next lengths[v] entries of head, an array("q") the graph keeps as its
    head table.  Raises what build_from_rotation raises for those rows,
    type and message.  Raises InvalidArgument when the lengths are not
    non-negative int64 counts that add up to len(head)."""
    _check_row_count(vertex_count, lengths)
    if (lengths.dtype != np.int64 or lengths.ndim != 1
            or (len(lengths) and lengths.min() < 0)
            or int(lengths.sum()) != len(head)):
        raise InvalidArgument("row lengths do not cut head into rows")
    return _build(vertex_count, lengths, head, None)


def _check_row_count(n: int, rows: Sized) -> None:
    if n < 2:
        raise InvalidRotation("need at least 2 vertices")
    if len(rows) != n:
        raise InvalidRotation(f"rotation has {len(rows)} rows, expected {n}")


def _build(n: int, lengths: np.ndarray, head: array,
           rotation: Sequence[Sequence[int]] | None) -> PlaneGraph:
    """The one array builder.  A failed row check names its first defect
    from `rotation`, or from rows sliced back out of head when the caller
    has no lists."""
    m2 = len(head)  # number of darts = 2E
    offsets, off = _zeros(n + 1)
    np.cumsum(lengths, out=off[1:])
    hd = np.frombuffer(head, dtype=np.int64)
    tl = np.repeat(np.arange(n, dtype=np.int64), lengths)

    def fail() -> NoReturn:
        _raise_rotation_error(
            n, _rows(head, offsets) if rotation is None else rotation)

    if (m2 == 0 or m2 % 2 or hd.min() < 0 or hd.max() >= n
            or (hd == tl).any()):
        fail()

    # Twins: each undirected key min*n + max must occur exactly twice, with
    # two different tails.  Sorted keys then come in twin pairs, in either
    # order, so the sort need not be stable.  The pairs' keys key[0::2] are
    # the edge codes eu*n + ev in increasing order, so the edges of the
    # darts a = order[0::2] are the edge ids in code order.
    key = np.minimum(hd, tl)
    key *= n
    key += np.maximum(hd, tl)
    order = np.argsort(key)
    key = key[order]
    a, b = order[0::2], order[1::2]
    if not ((key[0::2] == key[1::2]).all()
            and (key[1:-1:2] != key[2::2]).all()
            and (tl[a] != tl[b]).all()):
        fail()
    del key
    twin, tw = _zeros(m2)
    tw[a] = b
    tw[b] = a
    del b

    # Edge e is the e-th u < v dart in dart order.
    n_edges = m2 // 2
    edge_dart, ed = _zeros(n_edges)
    ed[:] = np.flatnonzero(tl < hd)
    lo, hi = tl[ed], hd[ed]
    del tl
    edge, eg = _zeros(m2)
    eg[ed] = eg[tw[ed]] = np.arange(n_edges, dtype=np.int64)
    edge_order = eg[a].astype(np.min_scalar_type(n_edges))
    del order, a

    # Connectivity: vertex 0's component must hold every vertex.
    root = _components(n, lo, hi)[0]
    reached = int(np.count_nonzero(root == root[0]))
    if reached != n:
        raise Disconnected(f"reached {reached} of {n} vertices")
    del root, lo, hi

    # Face orbits under succ.  Pointer doubling gives each dart the least
    # dart of its orbit; faces are numbered in order of that dart.
    sc = _succ(off, tw)
    lab = np.arange(m2, dtype=np.int64)
    jump = sc
    while True:
        np.minimum(lab, lab[jump], out=lab)
        if (lab == lab[sc]).all():
            break
        jump = jump[jump]
    del jump
    firsts = np.flatnonzero(lab == np.arange(m2, dtype=np.int64))
    n_faces = len(firsts)
    if n - n_edges + n_faces != 2:
        raise NotPlanarEmbedding(
            f"V - E + F = {n} - {n_edges} + {n_faces} != 2")
    face, fc = _zeros(m2)
    fc[firsts] = np.arange(n_faces, dtype=np.int64)
    fc[:] = fc[lab]
    del firsts, lab
    succ = _dart_table(sc)
    del sc

    return PlaneGraph(offsets, head, twin, edge, face, edge_dart, succ,
                      edge_order, n_faces)


def _components(n: int, lo: np.ndarray,
                hi: np.ndarray) -> tuple[np.ndarray, int]:
    """Component labels of the graph on vertices 0..n-1 with edges
    (lo[i], hi[i]), lo[i] < hi[i], and the number of hooking rounds.

    Every vertex gets the least vertex of its component.  The labels form
    a forest of parent pointers, a star (every vertex points at its root)
    at the start of each round, and the edge list holds roots only.  A
    round has three whole-array steps:

    - connect: every root hooks onto the least root it shares an edge
      with, when that root is smaller (np.minimum.at);
    - shortcut: p = p[p] until nothing changes, making stars again;
    - alter: replace both ends of every edge by their roots and drop the
      edges inside one tree.

    The loop ends when no edge is left.  Round bound: a root r that
    survives a round had no smaller neighbour.  Either some root hooked
    onto r, so r's tree now holds at least two roots of the round, or none
    did: then every neighbour s of r hooked onto its least neighbour,
    which is at most r and, not being r, smaller.  After alter r has a
    smaller neighbour and hooks in the next round.  So every two rounds
    at least halve the roots of each component that still has an edge:
    at most 2*log2(n) + 1 rounds.
    """
    p = np.arange(n, dtype=np.int64)
    rounds = 0
    while len(lo):
        rounds += 1
        np.minimum.at(p, hi, lo)
        while True:
            pp = p[p]
            if (pp == p).all():
                break
            p = pp
        a = p[lo]
        b = p[hi]
        keep = a != b
        a = a[keep]
        b = b[keep]
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
    return p, rounds


def _rows(head: array, offsets: array) -> list[list[int]]:
    """The rotation rows: head cut at the offsets, as lists of ints."""
    flat = head.tolist()
    off = offsets.tolist()
    return [flat[a:b] for a, b in zip(off, off[1:])]


def _zeros(count: int) -> tuple[array, np.ndarray]:
    """A zero-filled array("q") and a writable int64 view of it."""
    buf = array("q", [0]) * count
    return buf, np.frombuffer(buf, dtype=np.int64)


def _csr(rows: np.ndarray, cols: np.ndarray,
         n: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (rows[i], cols[i]) of int64 arrays, rows in 0 .. n - 1, as
    a CSR pair of int64 arrays: row r is to[start[r]:start[r + 1]], its
    cols in pair order.  That is a stable sort by row, done as one sort of
    the keys row * 2**bits + i: the position i breaks ties in pair order.
    np.argsort(kind="stable") is a timsort on int64 keys, about ten times
    slower at 8,000 keys."""
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=start[1:])
    bits = max(len(rows) - 1, 0).bit_length()
    # Internal invariant: rows < n and positions < 2**bits, so every key
    # is below n * 2**bits, which fits in int64.
    assert n << bits <= 2**63
    key = rows.astype(np.int64)
    key <<= bits
    key |= np.arange(len(rows))
    key.sort()
    key &= (1 << bits) - 1
    return start, cols[key]


def _raise_rotation_error(n: int, rotation) -> NoReturn:
    """Raise the error of the first defect of a rotation that failed a
    vector check: a bad, looping or repeated neighbor in the first such
    row, then an empty or odd dart set, then a dart with no reverse.  A
    row that is no sequence of neighbours, such as a number, a set or an
    iterator, is a bad row."""
    for v, row in enumerate(rotation):
        if not isinstance(row, Sequence):
            raise InvalidRotation(f"vertex {v}: row {row!r} is not a list")
        seen: set[int] = set()
        for w in row:
            # Any __index__ integer but a bool is a neighbour, as in the
            # vector path.
            try:
                i = -1 if type(w) is bool else operator.index(w)
            except TypeError:
                i = -1
            if i < 0 or i >= n:
                raise InvalidRotation(f"vertex {v}: bad neighbor {w!r}")
            if i == v:
                raise InvalidRotation(f"vertex {v}: loop")
            if i in seen:
                raise InvalidRotation(f"vertex {v}: duplicate neighbor {w}")
            seen.add(i)
    darts = [(v, operator.index(w))
             for v, row in enumerate(rotation) for w in row]
    if not darts:
        raise InvalidRotation("graph has no edges")
    if len(darts) % 2:
        raise AsymmetricAdjacency("odd number of darts")
    present = set(darts)
    for u, v in darts:
        if u < v and (v, u) not in present:
            raise AsymmetricAdjacency(f"{u} lists {v} but {v} does not list {u}")
    raise AsymmetricAdjacency("unpaired dart (asymmetric neighbor lists)")


def _succ(offsets: np.ndarray, twin: np.ndarray) -> np.ndarray:
    """succ(d) = next(twin(d)) for every dart; every degree must be >= 1."""
    nxt = np.arange(1, len(twin) + 1, dtype=np.int64)
    nxt[offsets[1:] - 1] = offsets[:-1]
    return nxt[twin]


def _dart_table(ids: np.ndarray) -> array:
    """Dart ids as an array("i") buffer below 2**31 darts, otherwise as an
    array("q"): half the memory of an int64 table for every graph that
    fits."""
    code = "i" if len(ids) < 2**31 else "q"
    return array(code, ids.astype(code).tobytes())


def is_triangulation(g: PlaneGraph) -> bool:
    """True iff every face is a triangle and V >= 4, decided by counting.

    The builder accepts only simple, connected plane graphs.  In such a
    graph on V >= 3 vertices every face walk has at least 3 darts: a
    1-dart walk needs a loop and a 2-dart walk a lone edge, which on V >= 3
    connected vertices would have another edge at one of its ends.  So
    2E = (the darts of all faces) >= 3F, and by Euler F = 2 - V + E.
    With E = 3V - 6 that is F = 2V - 4 and 3F = 6V - 12 = 2E: every face
    has exactly 3 darts, and 3 darts of a simple graph close a triangle.
    Conversely all faces triangles give 2E = 3F, so E = 3V - 6."""
    return g.vertex_count >= 4 and g.edge_count == 3 * g.vertex_count - 6


def apex_pair(g: PlaneGraph, e: int) -> tuple[int, int]:
    """Apexes of the two faces incident to edge e (triangulations only).

    Assumes both faces are triangles; callers on full triangulations get
    O(1) behavior without face lookups.
    """
    d, t = g.edge_darts(e)
    return g.head(g.succ(d)), g.head(g.succ(t))


def generate_stacked_triangulation(n: int, seed: int) -> PlaneGraph:
    """Random stacked triangulation: K4 plus repeated degree-3 insertions.

    Starting from K4, a uniformly random face other than K4's face
    (2, 1, 3) receives a new vertex joined to its three corners.  The
    result is deterministic for a given (n, seed).  Raises InvalidArgument
    for n < 4, and for an n or seed that is not an integer or is a bool.
    """
    n = _int_arg("n", n)
    if n < 4:
        raise InvalidArgument("stacked triangulation needs n >= 4")
    rng = Lcg64(_int_arg("seed", seed))
    rot: list[list[int]] = [list(row) for row in K4_ROTATION]
    # The stackable faces in orbit order; face (2,1,3) is never stacked.
    faces: list[tuple[int, int, int]] = [(0, 1, 2), (0, 2, 3), (0, 3, 1)]
    for x in range(4, n):
        i = rng.below(len(faces))
        a, b, c = faces[i]
        rot[a].insert(rot[a].index(c) + 1, x)
        rot[b].insert(rot[b].index(a) + 1, x)
        rot[c].insert(rot[c].index(b) + 1, x)
        rot.append([c, b, a])
        faces[i] = (a, b, x)
        faces.append((b, c, x))
        faces.append((c, a, x))
    return build_from_rotation(n, rot)


def _int_arg(name: str, value) -> int:
    """An integer argument other than a bool, as an exact int."""
    if not isinstance(value, bool):
        with suppress(TypeError):
            return operator.index(value)
    raise InvalidArgument(f"{name} must be an integer, got {value!r}")


def complement_pairs(g: PlaneGraph) -> list[tuple[int, int]]:
    """All non-adjacent vertex pairs (u < v), lexicographically sorted."""
    n = g.vertex_count
    adj = [set(g.neighbors(v)) for v in range(n)]
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if v not in adj[u]]


def sample_complement_edges(g: PlaneGraph, m: int, seed: int,
                            structure: str = "none") -> list[tuple[int, int]]:
    """Sample m distinct non-edges, optionally as a matching or a path.

    Deterministic for a given seed.  Raises InvalidArgument for an unknown
    structure, m < 0, or an m or seed that is not an integer or is a bool,
    and InsufficientComplementPairs when the complement cannot supply the
    requested structure.  For n <= 1024 a matching or path search enters
    at most SAMPLER_NODE_BUDGET candidates, then raises SamplerGaveUp, an
    InsufficientComplementPairs saying the search gave up, not that no
    such structure exists.

    Cost: for n <= 1024 it builds and shuffles the whole complement,
    whatever m is, so one call takes about 0.9 s at n = 1,024 even for
    m = 1 (larger graphs use rejection sampling).  A cheaper draw cannot
    keep today's seeded outputs: the backward Fisher-Yates shuffle draws
    once per pool element, from the last position down, so the first m
    pairs depend on every draw.
    """
    if structure not in ("none", "matching", "path"):
        raise InvalidArgument(f"unknown structure {structure!r}")
    m = _int_arg("m", m)
    if m < 0:
        raise InvalidArgument("m must be >= 0")
    rng = Lcg64(_int_arg("seed", seed))
    if m == 0:
        return []
    n = g.vertex_count
    if (structure == "matching" and 2 * m > n
            or structure == "path" and m + 1 > n):
        raise InsufficientComplementPairs(
            f"no {structure} of size {m} in the complement")

    if n <= 1024:
        pool = complement_pairs(g)
        rng.shuffle(pool)
        if structure == "none":
            if len(pool) < m:
                raise InsufficientComplementPairs(
                    f"complement has {len(pool)} pairs, need {m}")
            return pool[:m]
        try:
            result = (_matching_backtrack if structure == "matching"
                      else _path_backtrack)(pool, m)
        except SearchBudgetExceeded:
            raise SamplerGaveUp(f"the {structure} search gave up after "
                                f"{SAMPLER_NODE_BUDGET} nodes") from None
        if result is None:
            raise InsufficientComplementPairs(
                f"no {structure} of size {m} in the complement")
        return result

    # Large graphs: rejection sampling; the complement is dense since
    # E <= 3V - 6.
    return _sample_large(g, m, rng, structure)


def _matching_backtrack(pool: list[tuple[int, int]],
                        m: int) -> list[tuple[int, int]] | None:
    picked: list[int] = []  # pool indices, increasing
    used: set[int] = set()

    def choices(i: int):
        start = picked[-1] + 1 if picked else 0
        if m - i > len(pool) - start:
            return ()
        return (j for j in range(start, len(pool))
                if pool[j][0] not in used and pool[j][1] not in used)

    def enter(i: int, j: int) -> None:
        picked.append(j)
        used.update(pool[j])

    def leave(i: int) -> None:
        used.difference_update(pool[picked.pop()])

    for _ in backtrack(m, choices, enter, leave, SAMPLER_NODE_BUDGET):
        return [pool[j] for j in picked]
    return None


def _path_backtrack(pool: list[tuple[int, int]],
                    m: int) -> list[tuple[int, int]] | None:
    # Complement adjacency in shuffled pool order; its keys, in order of
    # first appearance, are the start vertices tried at level 0.
    nbr: dict[int, list[int]] = {}
    for u, v in pool:
        nbr.setdefault(u, []).append(v)
        nbr.setdefault(v, []).append(u)

    path: list[int] = []
    on_path: set[int] = set()

    def choices(i: int):
        if i == 0:
            return nbr
        return (w for w in nbr.get(path[-1], ()) if w not in on_path)

    def enter(i: int, w: int) -> None:
        path.append(w)
        on_path.add(w)

    def leave(i: int) -> None:
        on_path.discard(path.pop())

    for _ in backtrack(m + 1, choices, enter, leave, SAMPLER_NODE_BUDGET):
        return [(path[i], path[i + 1]) for i in range(m)]
    return None


def _sample_large(g: PlaneGraph, m: int, rng: Lcg64,
                  structure: str) -> list[tuple[int, int]]:
    n = g.vertex_count
    cap = 200 * m + 10_000
    attempts = 0
    if structure == "none":
        seen: set[tuple[int, int]] = set()
        out: list[tuple[int, int]] = []
        while len(out) < m:
            attempts += 1
            if attempts > cap:
                raise InsufficientComplementPairs("rejection cap hit")
            u = rng.below(n)
            v = rng.below(n)
            if u == v:
                continue
            key = (u, v) if u < v else (v, u)
            if key in seen or g.has_edge(u, v):
                continue
            seen.add(key)
            out.append(key)
        return out
    if structure == "matching":
        used: set[int] = set()
        out = []
        while len(out) < m:
            attempts += 1
            if attempts > cap:
                raise InsufficientComplementPairs("rejection cap hit")
            u = rng.below(n)
            v = rng.below(n)
            if u == v or u in used or v in used or g.has_edge(u, v):
                continue
            out.append((u, v) if u < v else (v, u))
            used.add(u)
            used.add(v)
        return out
    # path
    on_path = set()
    cur = rng.below(n)
    on_path.add(cur)
    out = []
    while len(out) < m:
        attempts += 1
        if attempts > cap:
            raise InsufficientComplementPairs("rejection cap hit")
        w = rng.below(n)
        if w in on_path or g.has_edge(cur, w):
            continue
        out.append((cur, w))
        on_path.add(w)
        cur = w
    return out
