"""The compiler's slot search before the sorted leg layout, kept verbatim
as the reference for the differential test: it tries every assignment of
clause legs to slots, one variable side at a time, while there are at most
20,000 of them, and above that cap only the identity assignment."""

from __future__ import annotations

import itertools
import math

from planeinsert.errors import LayoutInfeasible
from planeinsert.reduction import (
    MonotoneFormula,
    _Column,
    _Layout,
    _occurrences,
    _Placement,
)


def reference_layout(formula: MonotoneFormula) -> _Layout:
    occ = _occurrences(formula)
    n = formula.variables
    a = [1] * n
    for (v, _), legs in occ.items():
        a[v] = max(a[v], len(legs))

    x = 0
    pos_of = {v: i for i, v in enumerate(formula.order)}
    bases = [0] * n
    for v in formula.order:
        bases[v] = x
        x += 4 * a[v] + 2
    width = x - 1  # drop the trailing link unit after the last gadget

    def slot_x(v: int, j: int) -> int:
        return bases[v] + 4 * j + 2

    keys = sorted(occ.keys(), key=lambda kv: (pos_of[kv[0]], kv[1]))
    perm_space = 1
    choices = []
    for key in keys:
        v, _side = key
        count = len(occ[key])
        perms = list(itertools.permutations(range(a[v]), count))
        choices.append(perms)
        perm_space *= len(perms)

    def try_assign(assignment) -> _Layout | None:
        col_of_leg: dict[tuple[int, int], _Column] = {}
        columns: list[_Column] = []
        used = {}
        for key, slots in zip(keys, assignment):
            v, side = key
            for (ci, leg), j in zip(occ[key], slots):
                c = formula.clauses[ci]
                col = _Column(v, side, j, slot_x(v, j), ci, c.layer, leg)
                columns.append(col)
                col_of_leg[(ci, leg)] = col
                used[(v, side, j)] = col
        placements = []
        for ci, c in enumerate(formula.clauses):
            side = 1 if c.polarity == "pos" else -1
            legs = sorted(col_of_leg[(ci, leg)].x for leg in range(3))
            p0, p6 = legs[0] - 1, legs[2] + 1
            p2 = (legs[0] + legs[1]) // 2
            p4 = (legs[1] + legs[2]) // 2
            p = [p0, legs[0], p2, legs[1], p4, legs[2], p6]
            if len(set(p)) != 7 or sorted(p) != p:
                return None
            placements.append(_Placement(ci, side, c.layer, legs, p))
        for g1 in placements:
            for g2 in placements:
                if g1.clause == g2.clause or g1.side != g2.side:
                    continue
                if g1.layer == g2.layer:
                    if not (g1.p[6] < g2.p[0] or g2.p[6] < g1.p[0]):
                        return None
                elif g1.layer > g2.layer:
                    # g1's legs pass through g2's layer.
                    for x_ in g1.legs:
                        if g2.p[0] < x_ < g2.p[6]:
                            return None
        # Unused slots become stub columns reaching the empty layer.
        for v in range(n):
            for side in (1, -1):
                taken = {c.slot for c in columns
                         if c.var == v and c.side == side}
                for j in range(a[v]):
                    if j not in taken:
                        columns.append(_Column(v, side, j, slot_x(v, j),
                                               None, 1, None))
        max_layer = {1: 1, -1: 1}
        for c in columns:
            max_layer[c.side] = max(max_layer[c.side], c.top)
        return _Layout(width, bases, a, columns, placements, max_layer)

    if perm_space <= 20_000:
        for assignment in itertools.product(*choices):
            layout = try_assign(assignment)
            if layout is not None:
                return layout
    else:
        layout = try_assign(tuple(tuple(range(len(occ[key])))
                                  for key in keys))
        if layout is not None:
            return layout
    raise LayoutInfeasible("clause legs cannot be nested on the grid")


def search_space(formula: MonotoneFormula) -> int:
    """The number of slot assignments the reference can try: the product
    over variable sides of the ways to seat their legs in a[v] slots."""
    occ = _occurrences(formula)
    a = [1] * formula.variables
    for (v, _), legs in occ.items():
        a[v] = max(a[v], len(legs))
    return math.prod(math.perm(a[v], len(legs))
                     for (v, _), legs in occ.items())
