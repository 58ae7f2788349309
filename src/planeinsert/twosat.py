"""Linear-time 2-SAT via implication graph and strongly connected components.

Literals are (variable, polarity) pairs.  Node 2v stands for "v true",
node 2v+1 for "v false".  A clause (a or b) contributes the arcs
not(a) -> b and not(b) -> a.  The formula is unsatisfiable iff some
variable shares a strongly connected component with its negation.

Components are found with the iterative one-array variant of Tarjan's
algorithm due to Pearce, so million-node implication graphs need neither
recursion nor per-node triple bookkeeping.  Component ids decrease from
``nodes`` in completion order: the first component to close is a sink of
the condensation and gets the largest id.  The canonical model therefore
sets a variable true iff its positive literal's component id exceeds its
negative literal's, which picks the literal closer to a sink in reverse
topological order.  The returned model always satisfies every clause.

A formula stores its clauses as packed literal codes only, two int64 codes
per clause in one array("q").  TwoSatFormula(n, codes) takes them whole,
for callers that build a formula with array passes; add_clause appends one
clause.  The clauses property decodes the same store on each read.

The k = 1 solver's literals are its options: node 2i is the i-th
two-option edge's lower option and its negation 2i + 1 the sibling option,
so the only clauses are the clash pairs (not o or not p).
"""

from __future__ import annotations

from array import array

import numpy as np

from .plane_graph import _csr

Literal = tuple[int, bool]


def _code(lit: Literal) -> int:
    v, polarity = lit
    return 2 * v if polarity else 2 * v + 1


class TwoSatFormula:
    """A 2-SAT formula over variables 0 .. variable_count - 1, optionally
    built from packed codes: clause i is (codes[2i] or codes[2i + 1])."""

    def __init__(self, variable_count: int,
                 codes: np.ndarray | None = None):
        self.variable_count = variable_count
        self._packed = array("q")
        if codes is not None:
            if len(codes) % 2:
                raise ValueError("odd number of literal codes")
            self._packed.frombytes(
                np.ascontiguousarray(codes, dtype=np.int64).tobytes())

    def add_clause(self, a: Literal, b: Literal) -> None:
        self._packed.append(_code(a))
        self._packed.append(_code(b))

    def packed_codes(self) -> array:
        return self._packed

    @property
    def clauses(self) -> list[tuple[Literal, Literal]]:
        """The clauses as pairs of (variable, polarity), decoded on each
        read."""
        p = self._packed
        return [((a >> 1, not a & 1), (b >> 1, not b & 1))
                for a, b in zip(p[0::2], p[1::2])]

    def evaluate(self, model: list[bool]) -> bool:
        return all(
            model[v1] == p1 or model[v2] == p2
            for (v1, p1), (v2, p2) in self.clauses
        )

    def __repr__(self) -> str:
        return (f"TwoSatFormula(variable_count={self.variable_count}, "
                f"clauses={self.clauses})")


def solve(formula: TwoSatFormula) -> list[bool] | None:
    """Canonical model of the formula, or None when unsatisfiable."""
    n = formula.variable_count
    nodes = 2 * n
    packed = formula.packed_codes()
    if len(packed) == 0:
        return [True] * n
    lits = np.frombuffer(packed, dtype=np.int64)
    if lits.min() < 0 or lits.max() >= nodes:
        raise ValueError("clause variable out of range")
    start, targets = _implication_csr(nodes, lits)
    comp = np.asarray(_pearce_scc(nodes, start, targets))
    pos = comp[0::2]
    neg = comp[1::2]
    if bool((pos == neg).any()):
        return None
    return (pos > neg).tolist()


def _implication_csr(nodes: int,
                     lits: np.ndarray) -> tuple[list[int], list[int]]:
    """CSR adjacency of the implication graph of packed clause codes:
    arcs not(a)->b and not(b)->a; node v's arcs end at
    targets[start[v]:start[v + 1]]."""
    la = lits[0::2]
    lb = lits[1::2]
    start, targets = _csr(np.concatenate([la ^ 1, lb ^ 1]),
                          np.concatenate([lb, la]), nodes)
    return start.tolist(), targets.tolist()


def _pearce_scc(nodes: int, start: list[int], targets: list[int]) -> list[int]:
    """Iterative Pearce SCC; ids run from `nodes` downward in completion order.

    rindex doubles as visit index (growing from 1) and final component id
    (assigned from `nodes` downward); the two ranges can never collide
    because live visit indices are bounded by the number of unfinalized
    vertices.  0 marks unvisited vertices.
    """
    rindex = [0] * nodes
    root = bytearray(nodes)
    comp_stack: list[int] = []
    s_push = comp_stack.append
    s_pop = comp_stack.pop
    call_node: list[int] = []
    call_cursor: list[int] = []
    index = 1
    c = nodes

    for v0 in range(nodes):
        if rindex[v0]:
            continue
        call_node.append(v0)
        call_cursor.append(start[v0])
        rindex[v0] = index
        index += 1
        root[v0] = 1
        while call_node:
            v = call_node[-1]
            cursor = call_cursor[-1]
            if cursor < start[v + 1]:
                call_cursor[-1] = cursor + 1
                w = targets[cursor]
                rw = rindex[w]
                if rw == 0:
                    rindex[w] = index
                    index += 1
                    root[w] = 1
                    call_node.append(w)
                    call_cursor.append(start[w])
                elif rw < rindex[v]:
                    # Finalized components carry ids above every live visit
                    # index, so this branch only fires for in-progress w.
                    rindex[v] = rw
                    root[v] = 0
            else:
                call_node.pop()
                call_cursor.pop()
                rv = rindex[v]
                if root[v]:
                    index -= 1
                    while comp_stack and rv <= rindex[comp_stack[-1]]:
                        w = s_pop()
                        rindex[w] = c
                        index -= 1
                    rindex[v] = c
                    c -= 1
                else:
                    s_push(v)
                if call_node:
                    parent = call_node[-1]
                    if rv < rindex[parent]:
                        rindex[parent] = rv
                        root[parent] = 0
    return rindex
