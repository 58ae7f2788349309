"""Per-layer tracing from outside the package.

The tracer replaces public functions at the names their callers look up
(module attributes, class attributes) with wrappers that record one span
per call and, for some functions, counts taken from arguments or results.
The originals are put back when the tracer closes, so untraced runs execute
the package unmodified.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

from planeinsert import (instance_io, plane_graph, reduction, tri_insert,
                         verifier)

PD = verifier.PlanarizedDrawing


# Counter hooks get (counters, args, result) and add counts for one call.
def _options(c, args, res):
    c["tri_insert.options"] += len(res.options)


def _clash_pairs(c, args, res):
    c["tri_insert.clash_pairs"] += sum(len(a) for a in res.adj) // 2


def _committed(c, args, res):
    c["tri_insert.committed"] += len(args[0].committed)


def _twosat(c, args, res):
    c["twosat.variables"] += args[0].variable_count
    c["twosat.clauses"] += len(args[0].clauses)


def _node(c, args, res):
    c["verifier.nodes"] += 1


def _undo(c, args, res):
    c["verifier.undos"] += 1


def _realizations(c, args, res):
    c["verifier.realizations"] += len(res)


def _compiled(c, args, res):
    inst = res[0]
    c["reduction.vertices"] += inst.graph.vertex_count
    c["reduction.edges"] += inst.graph.edge_count
    c["reduction.f_edges"] += len(inst.F)


# (owner, attribute, span name, counter hook or None).  A function reached
# under several names is wrapped at each of them under one span name.
TARGETS = (
    (plane_graph, "generate_stacked_triangulation",
     "plane_graph.generate_stacked_triangulation", None),
    (plane_graph, "build_from_rotation", "plane_graph.build_from_rotation",
     None),
    (instance_io, "build_from_rotation", "plane_graph.build_from_rotation",
     None),
    (reduction, "build_from_rotation", "plane_graph.build_from_rotation",
     None),
    (instance_io, "parse_instance", "instance_io.parse_instance", None),
    (instance_io, "make_instance", "instance_io.make_instance", None),
    (reduction, "make_instance", "instance_io.make_instance", None),
    (instance_io, "write_instance", "instance_io.write_instance", None),
    (instance_io, "parse_solution", "instance_io.parse_solution", None),
    (instance_io, "write_solution", "instance_io.write_solution", None),
    (tri_insert, "solve", "tri_insert.solve", None),
    (tri_insert, "enumerate_options", "tri_insert.enumerate_options",
     _options),
    (tri_insert, "compute_clashes", "tri_insert.compute_clashes",
     _clash_pairs),
    (tri_insert, "reduce_instance", "tri_insert.reduce_instance", _committed),
    (tri_insert, "twosat_solve", "twosat.solve", _twosat),
    (verifier, "verify", "verifier.verify", None),
    (PD, "__init__", "verifier.PlanarizedDrawing.__init__", None),
    (PD, "enumerate_realizations",
     "verifier.PlanarizedDrawing.enumerate_realizations", _realizations),
    (PD, "adjacent_logicals", "verifier.PlanarizedDrawing.adjacent_logicals",
     None),
    (PD, "insert", "verifier.PlanarizedDrawing.insert", _node),
    (PD, "undo", "verifier.PlanarizedDrawing.undo", _undo),
    (reduction, "compile_formula", "reduction.compile_formula", _compiled),
    (reduction.GeometryBuilder, "build_instance",
     "reduction.GeometryBuilder.build_instance", None),
)

SPAN_NAMES = tuple(dict.fromkeys(t[2] for t in TARGETS))
COUNTER_NAMES = (
    "tri_insert.options", "tri_insert.clash_pairs", "tri_insert.committed",
    "twosat.variables", "twosat.clauses", "verifier.nodes", "verifier.undos",
    "verifier.realizations", "reduction.vertices", "reduction.edges",
    "reduction.f_edges",
)


# Scopes other than an operation's number.
SETUP, CHECK = -1, -2


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at the top
    scope: int           # operation number, SETUP or CHECK
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """Wraps TARGETS while open; records spans and counts per scope."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.scope = SETUP
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for owner, attr, name, hook in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name, hook):
        spans = self.spans
        stack = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1,
                        self.scope)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child_s += span.end - span.start
            if hook is not None:
                hook(self.counts[self.scope], args, result)
            return result

        return traced
