"""Seeded input families of the benchmark, each with an answer known by
construction.

Every family is a pure function of its seed, byte for byte, and reaches the
package only through public functions.  The expected answers rest on the
option/clash rule of single-crossing insertion into a triangulation: edge
(u, v) can be drawn with one crossing exactly through a graph edge whose two
faces have apexes u and v (an *option*), and two options of different
insertion edges clash exactly when one crosses a boundary edge of the
other's quadrilateral.  The families never ask the solver for their answers:

- ``clash-dense``: a greedy matching of apex pairs plus a planted conflict,
  two insertion edges that each have exactly one option, where one option
  crosses a quad edge of the other.  Both must take their only option and
  those clash, so the instance is INFEASIBLE.
- ``planted`` (stacked graphs) and ``grid-planted`` (grids, two-option pairs
  only): each accepted pair gets one planted option, accepted only if it
  and every earlier planted option cross none of each other's quad edges.
  The planted options are then a clash-free choice, so the instance is
  feasible.
- corrupted certificates: the last route of a valid certificate is
  re-pointed to a graph edge whose apex pair is not the route's pair.
  Faces of a planarization only split, so no face at u borders that edge
  opposite a face at v: the route cannot be realized and the certificate is
  rejected.
- formulas: fixed formula shapes, relabeled and mirrored by the seed.  A
  relabeling or a mirror image compiles to the same gadget counts, so every
  seed's instance has the shape's vertex, edge and insertion-edge counts.
"""

from __future__ import annotations

import json
import random

from planeinsert import plane_graph
from planeinsert.reduction import Clause, MonotoneFormula


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def quad_edges(g, e: int) -> tuple[int, int, int, int]:
    """Boundary edges of the quadrilateral around graph edge e."""
    a1, a2 = plane_graph.apex_pair(g, e)
    x, w = g.edge_endpoints(e)
    return tuple(g.edge_between(a, b)
                 for a, b in ((a1, x), (x, a2), (a2, w), (w, a1)))


def options_by_pair(g) -> dict[tuple[int, int], list[int]]:
    """Graph edges grouped by their apex pair, for pairs that are non-edges."""
    out: dict[tuple[int, int], list[int]] = {}
    for e in range(g.edge_count):
        a1, a2 = plane_graph.apex_pair(g, e)
        key = _norm(a1, a2)
        if key in out:
            out[key].append(e)
        elif not g.has_edge(a1, a2):
            out[key] = [e]
    return out


# --- graphs ------------------------------------------------------------------


# Directions around a grid vertex, counterclockwise from east, in degrees.
_DIRS = ((0, 1, 0), (45, 1, 1), (90, 0, 1), (135, -1, 1),
         (180, -1, 0), (225, -1, -1), (270, 0, -1), (315, 1, -1))


def grid_rotation(k: int, rng: random.Random) -> list[list[int]]:
    """Rotation of a k x k grid with one seeded diagonal per cell and a cone
    vertex (id k*k) joined to every boundary vertex."""
    main = [[rng.random() < 0.5 for _ in range(k - 1)] for _ in range(k - 1)]

    def linked(i, j, dx, dy):
        # Diagonal (i, j)-(i+dx, j+dy) exists iff its cell has that diagonal.
        if dx == 0 or dy == 0:
            return True
        ci, cj = min(i, i + dx), min(j, j + dy)
        return main[ci][cj] == (dx == dy)

    cone = k * k
    rot: list[list[int]] = []
    for j in range(k):
        for i in range(k):
            ring = [(ang, (j + dy) * k + i + dx) for ang, dx, dy in _DIRS
                    if 0 <= i + dx < k and 0 <= j + dy < k
                    and linked(i, j, dx, dy)]
            out_x = -1 if i == 0 else (1 if i == k - 1 else 0)
            out_y = -1 if j == 0 else (1 if j == k - 1 else 0)
            if out_x or out_y:
                ang = next(a for a, dx, dy in _DIRS
                           if (dx, dy) == (out_x, out_y))
                ring.append((ang, cone))
            ring.sort()
            rot.append([w for _, w in ring])
    # Boundary clockwise as seen from inside: the cone's counterclockwise.
    bottom = [i for i in range(k)]
    right = [j * k + k - 1 for j in range(1, k)]
    top = [(k - 1) * k + i for i in range(k - 2, -1, -1)]
    left = [j * k for j in range(k - 2, 0, -1)]
    rot.append(list(reversed(bottom + right + top + left)))
    return rot


def grid_graph(k: int, rng: random.Random):
    return plane_graph.build_from_rotation(k * k + 1, grid_rotation(k, rng))


# --- insertion sets ----------------------------------------------------------


def clash_dense(g, rng: random.Random) -> list[tuple[int, int]]:
    """Greedy matching of apex pairs plus a planted conflict (INFEASIBLE)."""
    opts = options_by_pair(g)
    order = list(range(g.edge_count))
    rng.shuffle(order)
    F: list[tuple[int, int]] = []
    used: set[int] = set()
    for e in order:
        key = _norm(*plane_graph.apex_pair(g, e))
        if key in opts and key[0] not in used and key[1] not in used:
            used.update(key)
            F.append(key)
    taken = set(F)
    rng.shuffle(order)
    for e in order:
        p1 = _norm(*plane_graph.apex_pair(g, e))
        if p1 in taken or len(opts.get(p1, ())) != 1:
            continue
        for q in quad_edges(g, e):
            p2 = _norm(*plane_graph.apex_pair(g, q))
            if p2 != p1 and p2 not in taken and len(opts.get(p2, ())) == 1:
                F.insert(rng.randrange(len(F) + 1), p1)
                F.insert(rng.randrange(len(F) + 1), p2)
                return F
    raise ValueError("graph has no pair of clashing single-option edges")


def planted(g, rng: random.Random, option_count: int | None = None,
            cap: int | None = None) -> list[tuple[int, int]]:
    """Pairs whose planted options are pairwise clash-free (feasible).

    With option_count, only pairs with exactly that many options qualify;
    cap stops after that many accepted pairs."""
    opts = options_by_pair(g)
    pairs = sorted(p for p, es in opts.items()
                   if option_count is None or len(es) == option_count)
    rng.shuffle(pairs)
    crossed: set[int] = set()
    on_quad: set[int] = set()
    F: list[tuple[int, int]] = []
    for p in pairs:
        e = rng.choice(opts[p])
        quad = quad_edges(g, e)
        if e in on_quad or any(q in crossed for q in quad):
            continue
        crossed.add(e)
        on_quad.update(quad)
        F.append(p)
        if cap is not None and len(F) == cap:
            break
    return F


# --- answer checks -----------------------------------------------------------


def solution_routes(solution_json: str) -> list[list[dict]]:
    return [r["events"] for r in json.loads(solution_json)["routes"]]


def clash_rule_violation(g, F, solution_json: str) -> str | None:
    """Why a written solution breaks the clash rule, or None when it holds.

    Uses plane_graph accessors only: every route crosses one graph edge
    whose apex pair is its insertion pair, and no chosen option crosses a
    quad edge of another."""
    routes = solution_routes(solution_json)
    if len(routes) != len(F):
        return f"{len(routes)} routes for {len(F)} insertion edges"
    crossed: dict[int, int] = {}
    for f, events in enumerate(routes):
        if len(events) != 1 or events[0]["kind"] != "graph_edge":
            return f"route {f} is not a single graph-edge crossing"
        e = g.edge_between(events[0]["u"], events[0]["v"])
        if e is None:
            return f"route {f} crosses a non-edge"
        if _norm(*plane_graph.apex_pair(g, e)) != _norm(*F[f]):
            return f"route {f} crosses an edge outside its quad"
        crossed[e] = f
    for e, f in crossed.items():
        for q in quad_edges(g, e):
            if q in crossed:
                return f"routes {f} and {crossed[q]} clash"
    return None


def corrupt(g, F, solution_json: str, rng: random.Random) -> str:
    """Re-point the last route to an unrealizable edge.

    The verifier then inserts every other route before it fails, and undoes
    them all while it backtracks."""
    obj = json.loads(solution_json)
    routes = obj["routes"]
    crossed = {g.edge_between(r["events"][0]["u"], r["events"][0]["v"])
               for r in routes}
    f = len(routes) - 1
    u, v = F[f]
    edges = list(range(g.edge_count))
    rng.shuffle(edges)
    for e in edges:
        x, w = g.edge_endpoints(e)
        if e in crossed or {x, w} & {u, v}:
            continue
        if set(plane_graph.apex_pair(g, e)) & {u, v}:
            continue
        routes[f]["events"] = [{"kind": "graph_edge", "u": x, "v": w}]
        return json.dumps(obj, separators=(",", ":")) + "\n"
    raise ValueError("no edge to re-point the route to")


# --- formulas ----------------------------------------------------------------

# (variables, clauses as (polarity, layer, literals)); the counts are those of
# the compiled k = 1 path instance: (vertices, edges, insertion edges).
FORMULA_SHAPES = {
    "2v1c": ((2, (("pos", 2, (0, 1)),)), (278, 451, 49)),
    "3v1c": ((3, (("pos", 2, (0, 1, 2)),)), (308, 499, 53)),
    "2v2c": ((2, (("pos", 2, (0, 1)), ("neg", 2, (0, 1)))), (320, 524, 55)),
}


def formula(shape: str, rng: random.Random) -> MonotoneFormula:
    """The shape under a seeded variable relabeling and mirror image."""
    (nvars, clauses), _ = FORMULA_SHAPES[shape]
    perm = list(range(nvars))
    rng.shuffle(perm)
    flip = rng.random() < 0.5
    out = []
    for pol, layer, lits in clauses:
        if flip:
            pol = "neg" if pol == "pos" else "pos"
        out.append(Clause(pol, layer, tuple(perm[v] for v in lits)))
    return MonotoneFormula(nvars, tuple(out), tuple(perm))
