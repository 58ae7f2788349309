"""Canonical file formats for instances and solutions, plus SVG rendering.

Instance file (JSON, one object)::

    {"k": 1, "n": 6,
     "rotation": [[1,2,3,4], ...],          # ccw neighbor lists
     "coords": [[x_num,x_den,y_num,y_den], ...] | null,
     "F": [[0,5], ...],                      # insertion pairs (non-edges)
     "f_structure": "none" | "path" | "matching"}

Solution file (JSON)::

    {"routes": [{"f_edge": 0, "events": [
        {"kind": "graph_edge", "u": 1, "v": 2},
        {"kind": "inserted", "index": 0}]}]}

Routes are listed in insertion order (f_edge 0, 1, ...) and an "inserted"
event may only reference a strictly smaller f_edge index.  Coordinates are
exact rationals.  In memory Instance.coords is a geometry.Grid(points,
scale), vertex v at points[v] / scale with exact int points and scale the
least common denominator, or None; make_instance takes a Grid as it is or
converts (x, y) pairs of rationals, and write_instance writes each
coordinate in lowest terms.  planeinsert.geometry checks the straight-line
drawing (no crossings, neighbor order equal to the rotation) without
touching floating point.  Serialization is canonical: re-serializing a
parsed file reproduces it byte for byte.

In memory a solution is a read-only Solution(start, kind, a, b), four
columns over the events of all routes, route by route: start (int64,
length m + 1; route i's events are start[i]:start[i+1]), kind (int8:
GRAPH_EDGE or INSERTED), and a, b (int64: a graph edge's endpoints,
smaller first, or an inserted event's F index and -1).  The constructor
is the one way to build it, for the solver's certificate, the oracles'
answers and parse_solution alike.  It checks in whole-array passes that
each column holds integers (not bools or floats) within its dtype, that
the starts rise from 0 to the event count, that every kind is known, that
a graph edge lists its smaller endpoint first, and that route i
references inserted edges 0..i-1 only.  write_solution emits from the
columns, byte for byte, what json.dumps with separators (",", ":") gives
for the same routes.

parse_instance has two readers.  Canonical text, as write_instance emits
it, goes through an array tokenizer: the fixed key order locates the
rotation and F values, whole-array byte passes check their grammar and
read them straight into int64 row lengths and values (in the spirit of
simdjson: Langdale and Lemire, "Parsing Gigabytes of JSON per Second",
VLDB J. 2019), and only the small remainder (k, n, coords, f_structure)
goes through json.loads.  Any other text (whitespace, another key order,
duplicate keys, negative, float, boolean or over-long numbers) goes
through json.loads whole.  Both end in the one array builder,
plane_graph.build_from_rows, and in make_instance's int64 F check, so
they give the same Instance or raise the same error.  On either path a
JSON integer must be exactly an int: true is neither a vertex nor a
coordinate.

parse_solution has two readers too, and the second is the first check of
the first.  Canonical text goes through _read_canonical_solution: byte
passes find the numbers and read them as the instance tokenizer does (one
number reader, _numbers, serves both); the bytes between numbers must be
the separators that write_solution emits, in an order it can emit, each
known by its length alone; the columns built from them must pass
Solution's checks; and the reader takes the text only when write_solution
of that Solution gives the text back byte for byte.  Any other text goes
through json.loads (_read_json_solution).  The two agree on every text.
write_solution(s) is, byte for byte, json.dumps of s's routes; so when a
text writes back exactly, json.loads of it gives those routes, and the
JSON path builds an equal Solution from them.  Every text the fast reader
declines goes to the JSON path itself.  So parse_solution returns the same
Solution, or raises the same error, as the JSON path alone.  A graph edge
written larger end first, whitespace, another key order or a leading zero
does not write back and goes through json.loads, as does any text that
is not ASCII or holds a number of more than 17 digits.

Seeded generators elsewhere in the package all derive randomness from the
64-bit linear congruential generator documented in planeinsert._rng, so
generated instances are reproducible across implementations.
"""

from __future__ import annotations

import json
import operator
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import NoReturn

import numpy as np

from .errors import (
    FNotInComplement,
    InvalidRoute,
    MissingCoordinates,
    SchemaError,
    StructureMismatch,
)
from .geometry import Grid, check_coords, coord_rows, rows_to_grid, to_grid
from .plane_graph import PlaneGraph, build_from_rotation, build_from_rows

# Event kinds in Solution.kind.
GRAPH_EDGE, INSERTED = 0, 1
_INT64 = range(-2**63, 2**63)


class Solution:
    """The routes of a solution as four read-only columns over all events,
    route by route (see the module docstring).  Two solutions are equal
    when their columns are."""

    __slots__ = ("start", "kind", "a", "b")

    def __init__(self, start, kind, a, b):
        cols = [_frozen(name, col) for name, col in
                zip(self.__slots__, (start, kind, a, b))]
        _check_columns(*cols)
        for name, value in zip(self.__slots__, cols):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Solution is read-only")

    def __repr__(self) -> str:
        return "Solution({})".format(", ".join(
            f"{c}={getattr(self, c).tolist()}" for c in self.__slots__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(np.array_equal(getattr(self, c), getattr(other, c))
                   for c in self.__slots__)

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, c).tobytes() for c in self.__slots__))


class _Columns:
    """Solution columns read one event at a time into array buffers; an
    integer outside int64 is an error, not an overflow."""

    __slots__ = ("start", "kind", "a", "b")

    def __init__(self):
        self.start, self.kind = array("q", [0]), array("b")
        self.a, self.b = array("q"), array("q")

    def graph_edge(self, u: int, v: int) -> None:
        if v < u:
            u, v = v, u
        if u not in _INT64 or v not in _INT64:
            raise SchemaError(f"graph_edge endpoints ({u},{v}) out of range")
        self.kind.append(GRAPH_EDGE)
        self.a.append(u)
        self.b.append(v)

    def inserted(self, route: int, index: int) -> None:
        if index not in _INT64:
            # Far past every route: a forward (or negative) reference.
            raise SchemaError(f"route {route} references inserted edge "
                              f"{index}")
        self.kind.append(INSERTED)
        self.a.append(index)
        self.b.append(-1)

    def end_route(self) -> None:
        self.start.append(len(self.kind))


_DTYPES = {"start": np.int64, "kind": np.int8, "a": np.int64, "b": np.int64}


def _frozen(name: str, col) -> np.ndarray:
    """Column `name` as a read-only array of its dtype, sharing memory
    where the input already has the dtype.  Whole-array tests reject a
    column of bools, floats or anything else but integers, and one with a
    value outside its dtype; a list or tuple is also scanned for bools,
    which numpy reads as 0 and 1 beside integers."""
    dtype = _DTYPES[name]
    try:
        arr = np.asarray(col)
    except (TypeError, ValueError) as exc:  # a ragged list, say
        raise SchemaError(f"solution column {name}: {exc}") from exc
    if arr.size and (
            arr.dtype.kind not in "iu"
            or not np.can_cast(arr.dtype, dtype) and (
                arr.min() < np.iinfo(dtype).min
                or arr.max() > np.iinfo(dtype).max)
            or type(col) in (list, tuple) and bool in map(type, col)):
        raise SchemaError(f"solution column {name} must hold "
                          f"{np.dtype(dtype)} integers")
    view = arr.astype(dtype, copy=False).view()
    view.flags.writeable = False
    return view


def _check_columns(start: np.ndarray, kind: np.ndarray, a: np.ndarray,
                   b: np.ndarray) -> None:
    """The one check of a solution's columns, in whole-array passes:
    start rises from 0 to the event count, every kind is GRAPH_EDGE or
    INSERTED, a graph edge lists its smaller endpoint first, and route i
    references inserted edges 0..i-1 only.  Raises the error of the first
    bad event."""
    count = len(kind)
    if not (start.ndim == kind.ndim == a.ndim == b.ndim == 1
            and len(a) == len(b) == count):
        raise SchemaError("solution columns must be 1-d, one entry an event")
    if (not len(start) or start[0] != 0 or start[-1] != count
            or (start[1:] < start[:-1]).any()):
        raise SchemaError("route starts must rise from 0 to the event count")
    graph_edge = kind == GRAPH_EDGE
    bad = ~graph_edge & (kind != INSERTED)
    bad |= graph_edge & (a > b)
    inserted = kind == INSERTED
    if inserted.any():
        route = np.repeat(np.arange(len(start) - 1), np.diff(start))
        bad |= inserted & ((a < 0) | (a >= route))
    if not bad.any():
        return
    j = int(bad.argmax())
    i = int(np.searchsorted(start, j, side="right")) - 1
    if inserted[j]:
        raise SchemaError(f"route {i} references inserted edge {a[j]}")
    if graph_edge[j]:
        raise SchemaError(f"route {i} graph_edge event ({a[j]},{b[j]}) "
                          "lists its larger endpoint first")
    raise SchemaError(f"unknown event kind {int(kind[j])!r}")


@dataclass(frozen=True)
class Instance:
    graph: PlaneGraph
    coords: Grid | None
    F: tuple[tuple[int, int], ...]
    k: int
    f_structure: str = "none"


def _norm(pair) -> tuple[int, int]:
    u, v = pair
    return (u, v) if u < v else (v, u)


def make_instance(graph: PlaneGraph, F, k: int = 1, coords=None,
                  f_structure: str = "none") -> Instance:
    """Validate and freeze an instance built in memory.  F is a sequence
    of integer pairs or an (m, 2) int64 array; Instance.F holds its pairs
    as exact ints, each in the orientation given, and k as an exact int.
    coords is a Grid, (x, y) pairs of rationals, or None."""
    n = graph.vertex_count
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise SchemaError("k must be a positive integer")
    k = int(k)
    if f_structure not in ("none", "path", "matching"):
        raise SchemaError(f"bad f_structure {f_structure!r}")
    if (isinstance(F, np.ndarray) and F.dtype == np.int64
            and F.ndim == 2 and F.shape[1] == 2):
        fpairs = _f_pairs(graph, F, None)
    else:
        F = list(F)
        fpairs = _f_pairs(graph, _flat_pairs(graph, F), F)
    _check_structure(fpairs, f_structure)
    if coords is not None:
        if not isinstance(coords, Grid):
            coords = to_grid(coords)
        if len(coords.points) != n:
            raise SchemaError("coords length != vertex count")
        check_coords(graph, coords)
    return Instance(graph, coords, fpairs, k, f_structure)


def _flat_pairs(graph: PlaneGraph, F: list) -> np.ndarray:
    """The endpoints of a list of pairs as an (m, 2) int64 array, when
    every entry is a pair of integers other than bool; otherwise
    _raise_f_error raises the error of the first bad pair."""
    try:
        if F and set(map(len, F)) != {2}:
            _raise_f_error(graph, F)
        items = list(chain.from_iterable(F))
        # array("q") rejects floats, which numpy would truncate.
        flat = array("q", items)
    except (TypeError, OverflowError):
        _raise_f_error(graph, F)
    if bool in map(type, items):
        _raise_f_error(graph, F)
    return np.frombuffer(flat, dtype=np.int64).reshape(-1, 2)


def _f_pairs(graph: PlaneGraph, uv: np.ndarray,
             F: list | None) -> tuple[tuple[int, int], ...]:
    """The int64 pairs uv as a tuple of int pairs, checked in one vector
    pass: both endpoints vertices, distinct, not a graph edge, and no pair
    twice.  When a check fails, _raise_f_error raises the error of the
    first bad pair of F, or of uv's own pairs when F is None."""
    if not len(uv):
        return ()
    n = graph.vertex_count
    lo = np.minimum(uv[:, 0], uv[:, 1])
    hi = np.maximum(uv[:, 0], uv[:, 1])
    # Sorted pair codes lo*n + hi: a duplicate is two equal neighbours.
    ok = lo.min() >= 0 and hi.max() < n and not (lo == hi).any()
    if ok:
        code = lo * n + hi
        code.sort()
        ok = not ((code[1:] == code[:-1]).any()
                  or (graph.edges_between(lo, hi) >= 0).any())
    flat = uv.ravel().tolist()
    pairs = tuple(zip(flat[0::2], flat[1::2]))
    if not ok:
        _raise_f_error(graph, list(pairs) if F is None else F)
    return pairs


def _raise_f_error(graph: PlaneGraph, F: list) -> NoReturn:
    """Raise the error of the first pair of F that failed a vector check,
    checking each pair in turn: shape, integer endpoints, range, equal
    endpoints, graph edge, duplicate."""
    n = graph.vertex_count
    seen = set()
    for pair in F:
        try:
            u, v = pair
        except (TypeError, ValueError):
            raise SchemaError(f"F entry {pair!r} is not a pair") from None
        try:
            if type(u) is bool or type(v) is bool:
                raise TypeError("bool endpoint")
            u, v = operator.index(u), operator.index(v)
        except TypeError:
            raise SchemaError(
                f"F pair {pair} has a non-integer endpoint") from None
        if not (0 <= u < n and 0 <= v < n):
            raise SchemaError(f"F pair {pair} out of range")
        if u == v:
            raise FNotInComplement(f"F pair {pair} has equal endpoints")
        if graph.has_edge(u, v):
            raise FNotInComplement(f"F pair {pair} is an edge of the graph")
        key = _norm((u, v))
        if key in seen:
            raise SchemaError(f"duplicate F pair {pair}")
        seen.add(key)
    raise AssertionError("F passed every per-pair check")


def _check_structure(fpairs, f_structure: str) -> None:
    if f_structure == "none" or not fpairs:
        return
    if f_structure == "matching":
        ends = [x for p in fpairs for x in p]
        if len(set(ends)) != 2 * len(fpairs):
            raise StructureMismatch("matching pairs share endpoints")
        return
    # path: consecutive pairs chain through shared endpoints, all vertices
    # distinct, so listing order is the walk order.
    if len(fpairs) == 1:
        return
    first_shared = set(fpairs[0]) & set(fpairs[1])
    if len(first_shared) != 1:
        raise StructureMismatch("F[0] and F[1] do not chain")
    walk = [(set(fpairs[0]) - first_shared).pop()]
    cur = first_shared.pop()
    walk.append(cur)
    for i in range(1, len(fpairs)):
        p = set(fpairs[i])
        if cur not in p or len(p) != 2:
            raise StructureMismatch(f"F[{i}] does not extend the path")
        cur = (p - {cur}).pop()
        walk.append(cur)
    if len(set(walk)) != len(walk):
        raise StructureMismatch("path revisits a vertex")


# --- JSON ------------------------------------------------------------------


def parse_instance(text: str) -> Instance:
    """Parse an instance file.  Canonical text goes through the array
    tokenizer _read_canonical; any text it declines goes through
    _read_json.  Both give the same Instance, or raise the same error."""
    canonical = _read_canonical(text)
    if canonical is None:
        return _read_json(text)
    obj, rotation, F = canonical
    _check_header(obj["n"], obj["k"], True)
    graph = build_from_rows(obj["n"], *rotation)
    grid = _coord_grid(obj["coords"])
    f_lengths, f_values = F
    if (f_lengths != 2).any():
        raise SchemaError("F must be a list of pairs")
    return make_instance(graph, np.frombuffer(f_values, np.int64)
                         .reshape(-1, 2), k=obj["k"], coords=grid,
                         f_structure=obj["f_structure"])


def _load_json(text: str):
    """json.loads, with every way it can fail raised as a SchemaError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an int over Python's digit limit, or nesting
        # past the recursion limit.
        raise SchemaError(f"bad JSON: {exc}") from exc


def _read_json(text: str) -> Instance:
    """Parse any instance text with json.loads, checking each value's
    JSON type: an integer must be exactly int, and true is not 1."""
    obj = _load_json(text)
    if not isinstance(obj, dict):
        raise SchemaError("instance must be a JSON object")
    missing = {"k", "n", "rotation", "coords", "F", "f_structure"} - obj.keys()
    if missing:
        raise SchemaError(f"missing keys: {sorted(missing)}")
    rotation = obj["rotation"]
    _check_header(obj["n"], obj["k"], isinstance(rotation, list))
    graph = build_from_rotation(obj["n"], rotation)
    grid = _coord_grid(obj["coords"])
    F = obj["F"]
    if not isinstance(F, list) or any(
            not isinstance(p, list) or len(p) != 2 for p in F):
        raise SchemaError("F must be a list of pairs")
    return make_instance(graph, [tuple(p) for p in F], k=obj["k"],
                         coords=grid, f_structure=obj["f_structure"])


def _check_header(n, k, rotation_is_list: bool) -> None:
    # A JSON integer parses to exactly int; true parses to bool.
    if type(n) is not int or not rotation_is_list:
        raise SchemaError("n must be int, rotation a list")
    if type(k) is not int or k < 1:
        raise SchemaError("k must be a positive integer")


def _coord_grid(coords) -> Grid | None:
    """The coords value as a Grid; every entry must be a JSON integer (not
    a float, a string or a bool)."""
    if coords is None:
        return None
    if (not isinstance(coords, list)
            or any(not isinstance(row, list) or len(row) != 4
                   for row in coords)
            or not set(map(type, chain.from_iterable(coords))) <= {int}):
        raise SchemaError("coords must be rows of 4 integers")
    return rows_to_grid(coords)


# The canonical text, as write_instance emits it, is
#   {"k":K,"n":N,"rotation":R,"coords":C,"F":F,"f_structure":S}\n
# R and F hold only digits, brackets and commas, so the first ',"coords":'
# after ',"rotation":' ends R and the first ',"f_structure":' after ',"F":'
# ends F.
_KEYS = (',"rotation":', ',"coords":', ',"F":', ',"f_structure":')
_HEAD = '{"k":'
_BRACES = frozenset("{}")

_OPEN, _CLOSE, _COMMA, _ZERO, _NINE = b"[],09"
# At most 17 digits, so every number is below 10**17 < 2**63.
_MAX_DIGITS = 17
# Eight ASCII digits read as one little-endian word become their value in
# three multiply-shift steps (Lemire's SWAR digit parsing, as in simdjson);
# _KEEP[w] keeps the last w bytes of a word, zeroing the ones before a
# w-digit number, which then read as leading zeros.
_KEEP = np.array([~((1 << 8 * (8 - w)) - 1) & (2**64 - 1) for w in range(9)],
                 dtype=np.uint64)
_SWAR = tuple((np.uint64(mask), np.uint64(mul), np.uint64(shift))
              for mask, mul, shift in ((0x0F0F0F0F0F0F0F0F, 2561, 8),
                                       (0x00FF00FF00FF00FF, 6553601, 16),
                                       (0x0000FFFF0000FFFF,
                                        42949672960001, 32)))


def _read_canonical(text: str):
    """The tokenizer for canonical text: (the other fields, the rotation's
    (row lengths, values), F's (row lengths, values)), values an int64
    array("q"), or None when the text is not in the canonical layout.

    The text must be ASCII; K, N and C may hold no brace, S must be a
    string without escapes followed by '}' and at most a newline, and R
    and F must pass _int_rows.  So the only object is the top level, and
    when json.loads of the small remainder
    {"k":K,"n":N,"coords":C,"f_structure":S} lists exactly these four
    keys in this order, the cuts fell on the top level's own members and
    the remainder gives exactly the other four values json.loads of the
    whole text gives."""
    if not (text.startswith(_HEAD) and text.isascii()):
        return None
    cuts = []
    at = len(_HEAD)
    for key in _KEYS:
        i = text.find(key, at)
        if i < 0:
            return None
        cuts.append((i, i + len(key)))
        at = i + len(key)
    (r0, r1), (c0, c1), (f0, f1), (s0, s1) = cuts
    head, coords, tail = text[len(_HEAD):r0], text[c1:f0], text[s1:]
    close = tail.find('"', 1)
    if (not _BRACES.isdisjoint(head) or not _BRACES.isdisjoint(coords)
            or not tail.startswith('"') or close < 0
            or "\\" in tail[:close] or tail[close + 1:] not in ("}", "}\n")):
        return None
    # An ASCII text's byte offsets are its character offsets.
    data = text.encode("ascii")
    rotation = _int_rows(data, r1, c0)
    F = _int_rows(data, f1, s0)
    if rotation is None or F is None:
        return None
    try:
        members = json.loads(f'{_HEAD}{head},"coords":{coords},'
                             f'"f_structure":{tail}',
                             object_pairs_hook=list)
    except (ValueError, RecursionError):
        return None
    if [key for key, _ in members] != ["k", "n", "coords", "f_structure"]:
        return None
    return dict(members), rotation, F


def _int_rows(data: bytes, lo: int,
              hi: int) -> tuple[np.ndarray, array] | None:
    """data[lo:hi] as a JSON array of arrays of non-negative integers,
    written without whitespace: (row lengths, values), values an int64
    array("q"); None for any other bytes.  Whole-array byte passes check
    that

    - every byte is a digit, a bracket or a comma;
    - the brackets are the outer pair and rows [...] in turn, one comma
      apart, so no bracket sits inside a row;
    - inside the rows, digit runs and commas alternate, starting and ending
      with a run: a row holding c commas and r runs has r <= c + 1, with
      equality just for that form, so equal totals over the rows suffice;
    - no number has a leading zero or more than _MAX_DIGITS digits.

    So the rows are [] or [N(,N)*] and the whole is [] or [ROW(,ROW)*].
    The numbers are read by _numbers, so lo must be at least 8: in the
    canonical text a key always precedes the value."""
    b = np.frombuffer(data, dtype=np.uint8, count=hi - lo, offset=lo)
    size = len(b)
    if size < 2 or b[0] != _OPEN or b[-1] != _CLOSE:
        return None
    digit = b - _ZERO
    digit = digit < 10
    brackets = np.flatnonzero(b > _NINE)  # '[' and ']' if all is well
    commas = np.count_nonzero(b == _COMMA)
    if np.count_nonzero(digit) + len(brackets) + commas != size:
        return None
    if size == 2:
        return np.zeros(0, dtype=np.int64), array("q")
    row_open, row_close = brackets[1:-1:2], brackets[2:-1:2]
    rows = len(row_open)
    if (rows == 0 or len(brackets) % 2 or row_open[0] != 1
            or row_close[-1] != size - 2
            or (b[row_open] != _OPEN).any() or (b[row_close] != _CLOSE).any()
            or (row_open[1:] - row_close[:-1] != 2).any()
            or (b[row_close[:-1] + 1] != _COMMA).any()):
        return None
    numbers = _numbers(data, lo, b, digit)
    if numbers is None:
        return None
    start, end, values = numbers
    filled = row_close - row_open > 1
    if len(start) != commas - (rows - 1) + np.count_nonzero(filled):
        return None
    # A number is the last of its row when ']' follows it.
    lengths = np.zeros(rows, dtype=np.int64)
    lengths[filled] = np.diff(np.flatnonzero(b[end] == _CLOSE), prepend=-1)
    return lengths, values


def _numbers(data: bytes, lo: int, b: np.ndarray, digit: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, array] | None:
    """The numbers of b = data[lo:lo + len(b)], whose first and last bytes
    are no digits, with digit = the mask of b's ASCII digits: (start, end,
    values), the maximal digit runs [start, end) as offsets into b and
    their values as an int64 array("q"); None when a number has a leading
    zero or more than _MAX_DIGITS digits.  Each number's last eight bytes
    are read as one word, which may reach back before lo (those bytes are
    masked off), so lo must be at least 8."""
    # Digit and non-digit bytes alternate at the run ends.
    ends = np.flatnonzero(digit[1:] != digit[:-1])
    ends += 1
    start, end = ends[0::2], ends[1::2]
    width = end - start
    if len(width) and (width.max() > _MAX_DIGITS
                       or ((b[start] == _ZERO) & (width > 1)).any()):
        return None
    # words[e] is the eight bytes that end at b[e].
    words = np.ndarray((len(b),), dtype="<u8", buffer=data, offset=lo - 8,
                       strides=(1,))
    values = array("q", [0]) * len(start)
    acc = np.frombuffer(values, dtype=np.int64)
    for chunk in range(0, int(width.max(initial=0)), 8):
        # The eight digits `chunk` places above each number's units: below
        # 10**8 each, times 10**chunk below 10**17 in all, so the uint64
        # bits read as the same int64.
        x = words[np.maximum(end - chunk, 0) if chunk else end]
        x &= _KEEP[np.clip(width - chunk, 0, 8)]
        for mask, mul, shift in _SWAR:
            x &= mask
            x *= mul
            x >>= shift
        if chunk:
            x *= np.uint64(10**chunk)
        acc += x.view(np.int64)
    return start, end, values


def write_instance(inst: Instance) -> str:
    obj = {
        "k": inst.k,
        "n": inst.graph.vertex_count,
        "rotation": inst.graph.rotation(),
        "coords": None if inst.coords is None else coord_rows(inst.coords),
        "F": [list(p) for p in inst.F],
        "f_structure": inst.f_structure,
    }
    return json.dumps(obj, separators=(",", ":")) + "\n"


def parse_solution(text: str) -> Solution:
    """Parse a solution file.  Canonical text goes through
    _read_canonical_solution; any text it declines goes through
    _read_json_solution.  Both give the same Solution, or raise the same
    error (see the module docstring)."""
    sol = _read_canonical_solution(text)
    return _read_json_solution(text) if sol is None else sol


# The numbers of a canonical solution text are route ids (f_edge), graph
# edge ends (u, v) and inserted edges' indices (index).  Between and around
# them stand only these separators, each with the numbers it may follow
# and the number it comes before (None: the text's start or end).  Their
# lengths differ, so a separator is known by its length.
_F_EDGE, _V, _U, _INDEX = 0, 1, 2 + GRAPH_EDGE, 2 + INSERTED
_SOLUTION_HEAD = '{"routes":[{"f_edge":'
_NO_ROUTES = '{"routes":[]}\n'
_SEPARATORS = {
    _SOLUTION_HEAD: ((), _F_EDGE),
    ',"events":[{"kind":"graph_edge","u":': ((_F_EDGE,), _U),
    ',"events":[{"kind":"inserted","index":': ((_F_EDGE,), _INDEX),
    ',"events":[]},{"f_edge":': ((_F_EDGE,), _F_EDGE),
    ',"events":[]}]}\n': ((_F_EDGE,), None),
    ',"v":': ((_U,), _V),
    '},{"kind":"graph_edge","u":': ((_V, _INDEX), _U),
    '},{"kind":"inserted","index":': ((_V, _INDEX), _INDEX),
    '}]},{"f_edge":': ((_V, _INDEX), _F_EDGE),
    '}]}]}\n': ((_V, _INDEX), None),
}


def _separator_tables() -> tuple[np.ndarray, np.ndarray]:
    """By separator length s: next[s], the number after the separator, or
    -1 at the end and for a length no separator has; follows[s, t], may a
    separator of length t follow one of length s."""
    size = max(map(len, _SEPARATORS)) + 1
    nxt = np.full(size, -1)
    follows = np.zeros((size, size), dtype=bool)
    for s, (_, number) in _SEPARATORS.items():
        if number is not None:
            nxt[len(s)] = number
            for t, (after, _) in _SEPARATORS.items():
                follows[len(s), len(t)] = number in after
    return nxt, follows


_NEXT, _FOLLOWS = _separator_tables()


def _read_canonical_solution(text: str) -> Solution | None:
    """The Solution of a text that write_solution emits, or None for any
    other text; it never raises.  Whole-array passes read the numbers
    (_numbers) and take each separator between them by its length; the
    separators must follow one another as _FOLLOWS allows, and the columns
    built from them must pass Solution's checks and write back to the text
    byte for byte: the reader proposes, the writer checks."""
    if text == _NO_ROUTES:
        return Solution([0], (), (), ())
    if not (isinstance(text, str) and text.startswith(_SOLUTION_HEAD)
            and text.endswith("\n") and text.isascii()):
        return None  # json.loads also reads bytes
    data = text.encode("ascii")
    lo = len(_SOLUTION_HEAD) - 1  # the ':' before the first number
    view = np.frombuffer(data, dtype=np.uint8, offset=lo)
    numbers = _numbers(data, lo, view, view - _ZERO < 10)
    if numbers is None or not len(numbers[0]):
        return None
    start, end, values = numbers
    # gap[j] is the length of the separator before number j; gap[-1] is
    # that of the text's end.
    gap = np.empty(len(start) + 1, dtype=np.int64)
    gap[0] = lo + start[0]
    gap[1:-1] = start[1:] - end[:-1]
    gap[-1] = len(view) - end[-1]
    if (gap.max() >= len(_NEXT) or gap[0] != len(_SOLUTION_HEAD)
            or _NEXT[gap[-1]] >= 0
            or not _FOLLOWS[gap[:-1], gap[1:]].all()):
        return None
    number = _NEXT[gap[:-1]]
    value = np.frombuffer(values, dtype=np.int64)
    route = np.flatnonzero(number == _F_EDGE)
    if (value[route] != np.arange(len(route))).any():
        return None
    # An event starts at its u or its index, numbers 2 + its kind.
    event = np.flatnonzero(number >= _U)
    kind = (number[event] - 2).astype(np.int8)
    b = np.full(len(event), -1)
    edge = kind == GRAPH_EDGE
    b[edge] = value[event[edge] + 1]  # the v after the u
    try:
        sol = Solution(np.append(np.searchsorted(event, route), len(event)),
                       kind, value[event], b)
    except SchemaError:
        return None
    return sol if write_solution(sol) == text else None


def _read_json_solution(text: str) -> Solution:
    """Parse any solution text with json.loads, checking each value's JSON
    type: an integer must be exactly int, and true is not 1."""
    obj = _load_json(text)
    if not isinstance(obj, dict) or "routes" not in obj:
        raise SchemaError("solution must be an object with routes")
    if not isinstance(obj["routes"], list):
        raise SchemaError("routes must be a list")
    # A JSON integer parses to exactly int; true parses to bool and 1.0 to
    # float, and neither is an index.  Events go straight into the columns.
    cols = _Columns()
    for i, r in enumerate(obj["routes"]):
        f_edge = r.get("f_edge") if type(r) is dict else None
        if type(f_edge) is not int or f_edge != i:
            raise SchemaError(f"route {i} must carry f_edge={i}")
        if "events" not in r:
            raise SchemaError(f"route {i} must carry events")
        evs = r["events"]
        if type(evs) is not list:
            raise SchemaError(f"route {i} events must be a list")
        for ev in evs:
            if type(ev) is not dict:
                raise SchemaError("event must be an object")
            ev_kind = ev.get("kind")
            if ev_kind == "graph_edge":
                u, v = ev.get("u"), ev.get("v")
                if type(u) is not int or type(v) is not int:
                    raise SchemaError("graph_edge event needs ints u, v")
                cols.graph_edge(u, v)
            elif ev_kind == "inserted":
                index = ev.get("index")
                if type(index) is not int:
                    raise SchemaError("inserted event needs int index")
                cols.inserted(i, index)
            else:
                raise SchemaError(f"unknown event kind {ev_kind!r}")
        cols.end_route()
    return Solution(cols.start, cols.kind, cols.a, cols.b)


def write_solution(sol: Solution) -> str:
    """The canonical text: json.dumps of {"routes": [{"f_edge": i,
    "events": [...]}, ...]} with separators (",", ":"), written directly
    from the columns.  Solution has checked every number and kind, so each
    piece is a fixed template."""
    start, kind = sol.start, sol.kind
    routes = len(start) - 1
    if not routes:
        return _NO_ROUTES
    # Each event's text opens with what comes before it: "," within a
    # route, or at a route's first event "]}," closing the route before and
    # the route's head.  An empty route is its opening alone.
    opens = start[:-1] < start[1:]
    head = np.full(len(kind), -1)
    head[start[:-1][opens]] = np.flatnonzero(opens)
    texts = [(f']}},{{"f_edge":{r},"events":[{{"kind":"graph_edge",'
              f'"u":{x},"v":{y}}}' if k == GRAPH_EDGE else
              f']}},{{"f_edge":{r},"events":[{{"kind":"inserted",'
              f'"index":{x}}}') if r >= 0 else
             (f',{{"kind":"graph_edge","u":{x},"v":{y}}}' if k == GRAPH_EDGE
              else f',{{"kind":"inserted","index":{x}}}')
             for r, k, x, y in zip(head.tolist(), kind.tolist(),
                                   sol.a.tolist(), sol.b.tolist())]
    empty = np.flatnonzero(~opens)
    if len(empty):
        # Before the first event after it, or at the end.
        texts = np.insert(np.array(texts, dtype=object), start[empty],
                          [f']}},{{"f_edge":{r},"events":['
                           for r in empty.tolist()]).tolist()
    # The text of route 0 opens with no route before it to close.
    return f'{{"routes":[{"".join(texts)[3:]}]}}]}}\n'


# --- SVG rendering -----------------------------------------------------------


def render_svg(inst: Instance, sol: Solution | None = None) -> str:
    """Straight-line drawing: one <line> per graph edge (crossed edges drawn
    thicker), one red <polyline> per route, routed through deterministic
    points on the crossed edges.  Geometry of routes is approximate; their
    combinatorial validity is checked by the verifier first."""
    if inst.coords is None:
        raise MissingCoordinates("instance carries no coordinates")
    if sol is not None:
        from .verifier import verify

        result = verify(inst, sol)
        if not result.accepted:
            raise InvalidRoute(f"{result.reason} (f_edge {result.f_edge})")

    # A point is (x, y, c): the drawing's (x / (scale*c), y / (scale*c)).
    # Each SVG coordinate is one int/int true division, which Python rounds
    # correctly, so it is the float nearest the exact position.
    pts = [(x, y, 1) for x, y in inst.coords.points]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    minx, maxy = min(xs), max(ys)
    # The larger span, in steps of 1/scale; an empty span counts as 1.
    span = max(max(xs) - minx or inst.coords.scale,
               maxy - min(ys) or inst.coords.scale)

    def sx(p: tuple[int, int, int]) -> float:
        x, _, c = p
        return ((x - minx * c) * 760 + 20 * c * span) / (c * span)

    def sy(p: tuple[int, int, int]) -> float:
        # SVG y axis points down.
        _, y, c = p
        return ((maxy * c - y) * 760 + 20 * c * span) / (c * span)

    # Deterministic crossing points: the j-th crossing of an edge (over the
    # replay order of all routes) sits at fraction (j+1)/(c+1) along it.
    # An event is keyed by its (kind, a, b) triple.
    if sol is None:
        start, events = [0], []
    else:
        start = sol.start.tolist()
        events = list(zip(sol.kind.tolist(), sol.a.tolist(), sol.b.tolist()))
    cross_total = Counter(events)
    cross_seen: Counter = Counter()
    crossed_graph_edges = {(x, y) for kind, x, y in events
                           if kind == GRAPH_EDGE}

    lines = []
    lines.append('<?xml version="1.0" encoding="UTF-8"?>')
    lines.append('<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                 'width="800" height="800">')
    for e, u, v in inst.graph.edges():
        stroke_width = 3 if (u, v) in crossed_graph_edges else 1
        lines.append(
            f'<line x1="{sx(pts[u]):.3f}" y1="{sy(pts[u]):.3f}" '
            f'x2="{sx(pts[v]):.3f}" y2="{sy(pts[v]):.3f}" '
            f'stroke="black" stroke-width="{stroke_width}"/>')
    for i, (u, v) in enumerate(inst.F[:len(start) - 1]):
        waypoints = [pts[u]]
        for event in events[start[i]:start[i + 1]]:
            kind, x, y = event
            num, den = cross_seen[event] + 1, cross_total[event] + 1
            cross_seen[event] += 1
            p, q = (pts[x], pts[y]) if kind == GRAPH_EDGE else (
                pts[inst.F[x][0]], pts[inst.F[x][1]])
            # p + (q - p) * num / den, in steps of 1/(scale*den).
            waypoints.append((p[0] * den + (q[0] - p[0]) * num,
                              p[1] * den + (q[1] - p[1]) * num, den))
        waypoints.append(pts[v])
        point_str = " ".join(f"{sx(p):.3f},{sy(p):.3f}" for p in waypoints)
        lines.append(f'<polyline points="{point_str}" fill="none" '
                     'stroke="red" stroke-width="1.5"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
