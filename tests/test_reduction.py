"""The hardness compiler: validated output, pinned byte for byte, with the
structure the reduction claims; its file format, its argument checks, and
the builder's position, edge and angular-order checks."""

from __future__ import annotations

import hashlib
import itertools
import random
import sys
import time
from fractions import Fraction

import pytest

from planeinsert.errors import (
    InvalidArgument,
    InvalidFormula,
    KNotOne,
    LayoutInfeasible,
    NonPlaneCoordinates,
    SchemaError,
    StructureMismatch,
)
from planeinsert.geometry import Grid
from planeinsert.instance_io import make_instance, parse_instance, write_instance
from planeinsert.plane_graph import PlaneGraph, build_from_rotation
from planeinsert.reduction import (
    Clause,
    GeometryBuilder,
    MonotoneFormula,
    _layout,
    compile_formula,
    evaluate_formula,
    formula_satisfiable,
    parse_formula,
    write_formula,
)

from fixtures import counted_angle_cmp, laminar_formula
from layout_reference import reference_layout, search_space

TWO_VARS_ONE_CLAUSE = MonotoneFormula(2, (Clause("pos", 2, (0, 1)),), (0, 1))


def models(f: MonotoneFormula) -> set[tuple[bool, ...]]:
    return {a for a in itertools.product((False, True), repeat=f.variables)
            if evaluate_formula(f, list(a))}


def test_contradiction_is_unsatisfiable():
    f = MonotoneFormula(1, (Clause("pos", 2, (0,)), Clause("neg", 2, (0,))),
                        (0,))
    assert models(f) == set()
    assert not formula_satisfiable(f)


@pytest.mark.parametrize("polarity, model", [("pos", True), ("neg", False)])
def test_one_sided_formula_is_satisfied_by_its_polarity(polarity, model):
    f = MonotoneFormula(3, (Clause(polarity, 2, (0, 1)),
                            Clause(polarity, 3, (1, 2, 0)),
                            Clause(polarity, 2, (2,))), (0, 1, 2))
    assert evaluate_formula(f, [model] * 3)
    assert not evaluate_formula(f, [not model] * 3)
    assert formula_satisfiable(f)


def test_mixed_formula_has_its_hand_checked_models():
    # (x0 or x1) and (not x1 or not x2) and (x1 or x2): x1 = x2 fails the
    # last two clauses, and x0 matters only when x1 is false.
    f = MonotoneFormula(3, (Clause("pos", 2, (0, 1)),
                            Clause("neg", 2, (1, 2)),
                            Clause("pos", 3, (1, 2))), (0, 1, 2))
    assert models(f) == {(False, True, False), (True, True, False),
                         (True, False, True)}
    assert formula_satisfiable(f)


@pytest.mark.parametrize("variant, sizes", [
    ("path", (278, 451, 49)),
    ("matching", (266, 430, 12)),
], ids=["path", "matching"])
def test_compiled_instance_roundtrips_and_rejects_a_moved_vertex(variant,
                                                                 sizes):
    inst, atlas = compile_formula(TWO_VARS_ONE_CLAUSE, k=1, variant=variant,
                                  validate=True)
    assert inst.f_structure == variant
    assert (inst.graph.vertex_count, inst.graph.edge_count,
            len(inst.F)) == sizes
    text = write_instance(inst)
    assert write_instance(parse_instance(text)) == text

    w = next(v for v, tag in enumerate(atlas.vertex_tags)
             if tag[0] == "plus_grid")
    u, v = next((u, v) for _, u, v in inst.graph.edges() if w not in (u, v))
    # Twice the points over twice the scale, w moved to the middle of uv.
    pts = [(2 * x, 2 * y) for x, y in inst.coords.points]
    pts[w] = (pts[u][0] + pts[v][0]) // 2, (pts[u][1] + pts[v][1]) // 2
    with pytest.raises(NonPlaneCoordinates):
        make_instance(inst.graph, inst.F, k=inst.k,
                      coords=Grid(pts, 2 * inst.coords.scale),
                      f_structure=inst.f_structure)


@pytest.mark.parametrize("kwargs, error", [
    ({"k": 0}, KNotOne),
    ({"k": 2}, KNotOne),
    ({"k": 3}, KNotOne),
    ({"k": 4}, KNotOne),
    ({"k": True}, InvalidArgument),
    ({"k": 1.0}, InvalidArgument),
    ({"k": "1"}, InvalidArgument),
    ({"k": None}, InvalidArgument),
    ({"variant": "cycle"}, StructureMismatch),
], ids=["k=0", "k=2", "k=3", "k=4", "k=True", "k=1.0", "k='1'", "k=None",
        "variant=cycle"])
def test_compile_rejects_unbuilt_arguments(kwargs, error):
    with pytest.raises(error):
        compile_formula(TWO_VARS_ONE_CLAUSE, validate=False, **kwargs)


def test_formula_text_roundtrips_and_rejects_malformed_json():
    f = MonotoneFormula(3, (Clause("pos", 2, (0, 1, 2)),
                            Clause("neg", 3, (2,))), (1, 0, 2))
    assert parse_formula(write_formula(f)) == f
    for text in ('{"variables": 2,', '{"variables": 2}', '[1, 2]'):
        with pytest.raises(SchemaError):
            parse_formula(text)


FORMULA_TEXT = ('{"variables":2,"clauses":[{"polarity":"pos","layer":2,'
                '"literals":[0,1]}],"order":[0,1]}')


@pytest.mark.parametrize("old, new, error, message", [
    ('"variables":2', '"variables":true', InvalidFormula, "one variable"),
    ('"variables":2', '"variables":2.0', InvalidFormula, "one variable"),
    ('"layer":2', '"layer":true', InvalidFormula, "layers start"),
    ('"literals":[0,1]', '"literals":[true,0]', InvalidFormula,
     "literal True"),
    ('"literals":[0,1]', '"literals":[0.0,1]', InvalidFormula,
     "literal 0.0"),
    ('"literals":[0,1]', '"literals":"01"', InvalidFormula, "literal '0'"),
    ('"order":[0,1]', '"order":[false,true]', InvalidFormula, "permutation"),
    ('"order":[0,1]', '"order":[0.0,1]', InvalidFormula, "permutation"),
    ('"order":[0,1]', '"order":' + "[" * 100_000 + "]" * 100_000,
     SchemaError, "^bad JSON: maximum recursion"),
], ids=["bool variables", "float variables", "bool layer", "bool literal",
        "float literal", "string literals", "bool order", "float order",
        "deep nesting"])
def test_formula_values_must_be_exact_integers(old, new, error, message):
    # Each of these used to parse (and, but for the floats, compile, with
    # true written back by write_formula) or to raise a bare TypeError or
    # RecursionError.
    assert parse_formula(FORMULA_TEXT) == TWO_VARS_ONE_CLAUSE
    assert old in FORMULA_TEXT
    with pytest.raises(error, match=message):
        parse_formula(FORMULA_TEXT.replace(old, new))


@pytest.mark.parametrize("old, new, message", [
    ('"polarity":"pos"', '"polarity":"both"', "^bad polarity 'both'$"),
    ('"literals":[0,1]', '"literals":[]', "^clauses carry 1..3 literals$"),
    ('"literals":[0,1]', '"literals":[0,1,0,1]',
     "^clauses carry 1..3 literals$"),
], ids=["bad polarity", "no literals", "four literals"])
def test_formula_clause_shape_is_checked(old, new, message):
    with pytest.raises(InvalidFormula, match=message):
        parse_formula(FORMULA_TEXT.replace(old, new))


@pytest.mark.parametrize("variables", [2**70, 10**10])
def test_huge_variable_count_is_invalid_formula(variables):
    # The order check built list(range(variables)) before comparing
    # anything: 2**70 raised a bare OverflowError, and 10**10 asked for
    # 10**10 list entries.
    text = FORMULA_TEXT.replace('"variables":2', f'"variables":{variables}')
    with pytest.raises(InvalidFormula, match="permutation"):
        parse_formula(text)


def test_over_long_formula_integer_is_schema_error():
    # json.loads raises a plain ValueError past Python's digit limit.
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no limit on integer digits")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(SchemaError, match="^bad JSON: Exceeds"):
            parse_formula(FORMULA_TEXT.replace('"variables":2',
                                               '"variables":' + "1" * 5000))
    finally:
        sys.set_int_max_str_digits(old)


def test_builder_rejects_duplicate_edges_and_loops():
    b = GeometryBuilder()
    s, t = b.vertex(0, 0, ()), b.vertex(1, 0, ())
    b.edge(s, t)
    with pytest.raises(LayoutInfeasible):
        b.edge(t, s)
    with pytest.raises(LayoutInfeasible):
        b.edge(s, s)


def test_builder_rejects_overlapping_directions():
    b = GeometryBuilder()
    s, near, far = b.vertex(0, 0, ()), b.vertex(1, 1, ()), b.vertex(2, 2, ())
    b.edge(s, near)
    b.edge(s, far)
    with pytest.raises(LayoutInfeasible):
        b.rotation()


def test_builder_rejects_positions_off_the_grid():
    b = GeometryBuilder()
    for x, y in ((Fraction(1, 2), 0), (0, 0.5), (1.0, 0), (True, 0),
                 (0, "1")):
        with pytest.raises(InvalidArgument):
            b.vertex(x, y, ())
    assert b.coords == []
    s, t = b.vertex(0, 0, ()), b.vertex(1, 0, ())
    with pytest.raises(LayoutInfeasible):
        b.plus_block(s, t, 1)  # thirds of one step are off the grid


# --- compiled output ----------------------------------------------------------

# The benchmark's formula shapes: variables, clauses as (polarity, layer,
# literals).
SHAPES = {
    "2v1c": (2, (("pos", 2, (0, 1)),)),
    "3v1c": (3, (("pos", 2, (0, 1, 2)),)),
    "2v2c": (2, (("pos", 2, (0, 1)), ("neg", 2, (0, 1)))),
}

PERMUTATIONS = {2: ((0, 1), (1, 0)), 3: ((0, 1, 2), (2, 0, 1), (1, 2, 0))}


def relabeled(shape: str, perm: tuple[int, ...],
              mirror: bool) -> MonotoneFormula:
    """The shape with variable v renamed perm[v] and laid out in the order
    perm; mirrored, every clause changes sides."""
    nvars, clauses = SHAPES[shape]
    flip = {"pos": "neg", "neg": "pos"} if mirror else {"pos": "pos",
                                                         "neg": "neg"}
    return MonotoneFormula(nvars, tuple(
        Clause(flip[pol], layer, tuple(perm[v] for v in lits))
        for pol, layer, lits in clauses), perm)


# sha256 over write_instance of every relabeling and mirror image of the
# shape, in PERMUTATIONS order, unmirrored first; and the same over the
# atlas reprs, which hold the clause gadgets, f_order and the vertex tags.
DIGESTS = {
    ("2v1c", "path"):
        "d6b64109b9040ea1a7f61a91dff6900e9c19bb74c146a74fac63e72533734193",
    ("2v1c", "matching"):
        "71f2b4450ee8dd7feb8a47a1faafd6a8fbf23e5c1abd7a7f24d9e01c8c789b0d",
    ("3v1c", "path"):
        "92a70cd69e0cb8331ccf1ae9bbe1f2367edf2de32c79437f80f82f791d62c824",
    ("3v1c", "matching"):
        "1765c66a81776e5884c436373479d032d42189f0972efd238e3b565c42e19846",
    ("2v2c", "path"):
        "b98d0cfba58147db6ebfb4cd4265a7a8d140f01f07185acea4e4c94563f57a91",
    ("2v2c", "matching"):
        "a195c54ea97acee405581e2ce6cb61c661cc56de5513d0943243eefb8d19a429",
}
ATLAS_DIGESTS = {
    ("2v1c", "path"):
        "d46b7d4c4fd9be72940402fcd63ea352e20c823e19efbfb10ca8268b8b6bb16e",
    ("2v1c", "matching"):
        "5d67f178ed102abedc96bc44766d2b8a3590ed8abaaae360d0babe47260ff300",
    ("3v1c", "path"):
        "e399b84c267f3b88924dbabaceec1c21591654796f26cc04a80bd0a360f19c2b",
    ("3v1c", "matching"):
        "5d9ea8121b054bb549eb0c12feea191a3a712e947d954afc02ac18bb713b17ee",
    ("2v2c", "path"):
        "ab50ec31bff55b347c01c15776d18e9e06d8a68c19956eaafcc135f9bf8d1cc5",
    ("2v2c", "matching"):
        "051f822afc3e66e6cfc8cd37045f98574afdc763d4829cd7adefe36bd4001878",
}


@pytest.mark.parametrize("shape, variant", sorted(DIGESTS))
def test_compiled_output_is_pinned(shape, variant):
    texts, atlases = hashlib.sha256(), hashlib.sha256()
    for perm in PERMUTATIONS[SHAPES[shape][0]]:
        for mirror in (False, True):
            inst, atlas = compile_formula(relabeled(shape, perm, mirror),
                                          k=1, variant=variant)
            texts.update(write_instance(inst).encode())
            atlases.update(repr(atlas).encode())
    assert texts.hexdigest() == DIGESTS[(shape, variant)]
    assert atlases.hexdigest() == ATLAS_DIGESTS[(shape, variant)]


def articulation_points(g: PlaneGraph) -> tuple[set[int], int]:
    """The cut vertices of g and the number of vertices reached from 0, by
    Hopcroft-Tarjan low points on an explicit stack."""
    disc = [-1] * g.vertex_count
    low = [0] * g.vertex_count
    disc[0] = 0
    reached, root_children, cut = 1, 0, set()
    stack = [(0, -1, iter(g.neighbors(0)))]
    while stack:
        v, parent, todo = stack[-1]
        for w in todo:
            if disc[w] < 0:
                disc[w] = low[w] = reached
                reached += 1
                stack.append((w, v, iter(g.neighbors(w))))
                break
            if w != parent:
                low[v] = min(low[v], disc[w])
        else:
            stack.pop()
            if parent == 0:
                root_children += 1
            elif parent > 0:
                low[parent] = min(low[parent], low[v])
                if low[v] >= disc[parent]:
                    cut.add(parent)
    if root_children > 1:
        cut.add(0)
    return cut, reached


def test_articulation_points_finds_cut_vertices():
    path = build_from_rotation(4, [[1], [0, 2], [1, 3], [2]])
    assert articulation_points(path) == ({1, 2}, 4)


@pytest.mark.parametrize("variant", ["path", "matching"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_compiled_instances_have_the_claimed_structure(shape, variant):
    n = SHAPES[shape][0]
    inst, _ = compile_formula(relabeled(shape, tuple(range(n)), False),
                              k=1, variant=variant, validate=False)
    assert articulation_points(inst.graph) == (set(),
                                               inst.graph.vertex_count)
    assert inst.k == 1
    assert inst.f_structure == variant
    ends = [w for pair in inst.F for w in pair]
    if variant == "matching":
        assert len(set(ends)) == len(ends)
    else:
        # Consecutive pairs share one endpoint, and no vertex repeats.
        walk = [inst.F[0][0]] if inst.F[0][1] in inst.F[1] else [inst.F[0][1]]
        for u, v in inst.F:
            assert walk[-1] in (u, v)
            walk.append(v if walk[-1] == u else u)
        assert len(set(walk)) == len(walk) == len(inst.F) + 1


def test_compile_path_calls_no_comparator(monkeypatch):
    # The rotations and the geometry check of every relabeling and mirror
    # image, in both variants, come from the array passes alone: the
    # comparator sort is only the fallback for rows that float keys
    # misorder, and on the compiler's grid there are none.
    calls = counted_angle_cmp(monkeypatch)
    compiled = 0
    for shape, (nvars, _) in SHAPES.items():
        for perm in PERMUTATIONS[nvars]:
            for mirror in (False, True):
                for variant in ("path", "matching"):
                    compile_formula(relabeled(shape, perm, mirror), k=1,
                                    variant=variant)
                    compiled += 1
    assert (compiled, calls) == (28, [])
    # The counter sees the fallback: two directions whose float angles
    # are equal reach it.
    b = GeometryBuilder()
    centre = b.vertex(0, 0, ())
    for x, y in ((2**29, 2**29 - 1), (2**29 - 1, 2**29 - 2), (-1, 0)):
        b.edge(centre, b.vertex(x, y, ()))
    assert b.rotation()[0] == [2, 1, 3]
    assert calls


# --- clause leg layout ------------------------------------------------------


def chain(m: int, reverse: bool) -> MonotoneFormula:
    """m positive layer-2 clauses (2i, 2i+1, 2i+2), each sharing its last
    variable with the next one's first, in the identity order."""
    clauses = [Clause("pos", 2, (2 * i, 2 * i + 1, 2 * i + 2))
               for i in range(m)]
    if reverse:
        clauses.reverse()
    return MonotoneFormula(2 * m + 1, tuple(clauses), tuple(range(2 * m + 1)))


@pytest.mark.parametrize("m", [16, 40])
def test_reversed_chain_compiles(m):
    # The slot search found no layout for the reversed list at m = 16:
    # above its cap it tried only the slots in clause order.
    for reverse in (False, True):
        inst, atlas = compile_formula(chain(m, reverse), validate=True)
        assert len(atlas.clause_gadgets) == m


def layered(low: int, high: int) -> MonotoneFormula:
    """A whole clause at layer low inside one at layer high, above the
    axis, and one clause at layer low below it."""
    return MonotoneFormula(3, (Clause("pos", high, (0, 2)),
                               Clause("pos", low, (1,)),
                               Clause("neg", low, (0, 1))), (0, 1, 2))


def test_only_the_order_of_layers_is_drawn():
    want = write_instance(compile_formula(layered(2, 3))[0])
    assert write_instance(compile_formula(layered(2, 5))[0]) == want
    assert write_instance(compile_formula(layered(7, 40))[0]) == want


def test_huge_layer_compiles_at_once():
    one = MonotoneFormula(1, (Clause("pos", 10**9, (0,)),), (0,))
    t0 = time.perf_counter()
    inst, _ = compile_formula(one, validate=False)
    assert time.perf_counter() - t0 < 1.0
    assert write_instance(inst) == write_instance(compile_formula(
        MonotoneFormula(1, (Clause("pos", 2, (0,)),), (0,)))[0])


def test_reversed_chain_lays_out_at_400_clauses():
    forward, backward = _layout(chain(400, False)), _layout(chain(400, True))
    assert sorted(pl.legs for pl in backward.placements) == sorted(
        pl.legs for pl in forward.placements)


@pytest.mark.parametrize("formula, message", [
    (MonotoneFormula(4, (Clause("pos", 2, (0, 1, 2)),
                         Clause("pos", 2, (1, 2, 3))), (0, 1, 2, 3)),
     r"^clause 1 \(layer 2\) cannot nest inside clause 0 \(layer 2\)$"),
    (MonotoneFormula(3, (Clause("pos", 2, (0, 2)), Clause("pos", 3, (1,))),
                     (0, 1, 2)),
     r"^clause 1 \(layer 3\) cannot nest inside clause 0 \(layer 2\)$"),
    (MonotoneFormula(3, (Clause("pos", 20, (0, 2)),
                         Clause("pos", 10**9, (1,))), (0, 1, 2)),
     r"^clause 1 \(layer 1000000000\) cannot nest inside clause 0 "
     r"\(layer 20\)$"),
    (MonotoneFormula(3, (Clause("neg", 3, (0, 1, 2)),
                         Clause("neg", 2, (2, 0))), (0, 1, 2)),
     r"^clause 1 lies across a leg of clause 0$"),
], ids=["overlapping layer-2 clauses", "whole clause above its cover",
        "far layers named as written", "leg under a crossing span"])
def test_layout_rejection_names_both_clauses(formula, message):
    assert search_space(formula) <= 20_000
    with pytest.raises(LayoutInfeasible):
        reference_layout(formula)
    with pytest.raises(LayoutInfeasible, match=message):
        compile_formula(formula, validate=False)


def random_formula(rng: random.Random) -> MonotoneFormula:
    """1-4 variables in a random order and up to 5 clauses of layer 2-4,
    either polarity, 1-3 literals with repeats."""
    n = rng.randint(1, 4)
    order = list(range(n))
    rng.shuffle(order)
    return MonotoneFormula(n, tuple(
        Clause(rng.choice(("pos", "neg")), rng.randint(2, 4),
               tuple(rng.randrange(n) for _ in range(rng.randint(1, 3))))
        for _ in range(rng.randint(0, 5))), tuple(order))


def test_layout_agrees_with_the_slot_search():
    # The sorted slots find a layout exactly when some slot assignment
    # does.  The search is exhaustive up to its cap of 20,000
    # assignments; the draws stop at 2,000 to keep its failing searches
    # short.
    rng = random.Random(2024)
    outcomes = {True: 0, False: 0}
    for i in range(2000):
        f = random_formula(rng)
        if search_space(f) > 2000:
            continue
        try:
            reference_layout(f)
            expected = True
        except LayoutInfeasible:
            expected = False
        try:
            _layout(f)
            got = True
        except LayoutInfeasible:
            got = False
        assert got == expected, f
        outcomes[got] += 1
        if got and i % 15 == 0:
            compile_formula(f, variant=("path", "matching")[i % 2],
                            validate=True)
    assert min(outcomes.values()) >= 50, outcomes


def test_laminar_formulas_compile():
    for seed in range(60):
        f = laminar_formula(1 + seed % 5, 1 + seed % 6, seed)
        compile_formula(f, variant=("path", "matching")[seed % 2],
                        validate=len(f.clauses) <= 4)
    for seed in range(500):
        _layout(laminar_formula(1 + seed % 12, 1 + seed % 30, seed))
