"""The typed-error contract on solution, instance and formula texts.

A valid text is mutated at one JSON path, to one value of a fixed menu of
wrong types and extreme numbers, and run through its parser and then the
code that reads what it parsed: a solution through verify, an instance
through solve, a formula through compile_formula.  Each must return or
raise a PlaneInsertError; no other exception may escape, and no example
may pass the deadline.  Half the texts are written in the writer's compact
layout, and parse_solution and parse_instance must read each as their JSON
paths alone do: the same answer or the same error."""

from __future__ import annotations

import json
from datetime import timedelta

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from planeinsert.errors import PlaneInsertError
from planeinsert.instance_io import (
    _read_json,
    _read_json_solution,
    make_instance,
    parse_instance,
    parse_solution,
    write_instance,
    write_solution,
)
from planeinsert.reduction import (
    Clause,
    MonotoneFormula,
    compile_formula,
    parse_formula,
    write_formula,
)
from planeinsert.tri_insert import solve
from planeinsert.verifier import VerifyResult, verify

from fixtures import (cube, laminar_formula, octahedron,
                      shared_face_certificate, solution)
from instance_gen import planted_instance

MENU = (None, True, -1, 0, 2**70, 1.5, "x", [], {}, [0, 1])


def valid_certificates():
    """(instance, parsed solution text): solver certificates of small
    planted instances, which verify settles in array passes, the octahedron
    certificate, and the shared-face one, which it replays."""
    pairs = [shared_face_certificate(),
             (make_instance(octahedron(), [(0, 5), (1, 3), (2, 4)], k=1),
              solution([(1, 2)], [(0, 4)], [(5, 3)]))]
    for s in range(3):
        inst = planted_instance(60, s)
        pairs.append((inst, solve(inst)))
    return [(inst, json.loads(write_solution(sol))) for inst, sol in pairs]


CERTIFICATES = valid_certificates()

ONE_CLAUSE = MonotoneFormula(1, (Clause("pos", 2, (0,)),), (0,))

# The octahedron, the cube at k = 2 with a matching, small planted
# instances, and a compiled instance with coordinates, as parsed texts.
INSTANCES = [(None, json.loads(write_instance(inst))) for inst in (
    make_instance(octahedron(), [(0, 5), (1, 3), (2, 4)], k=1),
    make_instance(cube(), [(2, 4), (0, 6)], k=2, f_structure="matching"),
    *(planted_instance(30, s) for s in range(3)),
    compile_formula(ONE_CLAUSE, validate=False)[0])]

FORMULAS = [(None, json.loads(write_formula(f))) for f in (
    ONE_CLAUSE,
    MonotoneFormula(3, (Clause("pos", 2, (0, 1)), Clause("neg", 2, (1, 2)),
                        Clause("pos", 3, (1, 2))), (0, 1, 2)),
    laminar_formula(3, 2, 1))]


def json_paths(obj, path=()):
    """Every path into obj, the root's empty path first."""
    yield path
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from json_paths(value, (*path, key))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from json_paths(value, (*path, i))


def replaced(obj, path, value):
    """A copy of obj with the value at path replaced."""
    if not path:
        return value
    obj = json.loads(json.dumps(obj))
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return obj


@st.composite
def mutated(draw, sources):
    """(context, text) for one of sources' (context, JSON object) pairs:
    the object with one path set to a MENU value, in the writers' compact
    layout or json.dumps' spaced one."""
    context, obj = draw(st.sampled_from(sources))
    path = draw(st.sampled_from(list(json_paths(obj))))
    value = draw(st.sampled_from(MENU))
    obj = replaced(obj, path, value)
    if draw(st.booleans()):
        return context, json.dumps(obj, separators=(",", ":")) + "\n"
    return context, json.dumps(obj)


def read(parse, text: str):
    """parse(text), or the type and message of the typed error it
    raised."""
    try:
        return parse(text)
    except PlaneInsertError as exc:
        return type(exc).__name__, str(exc)


@seed(20)
@settings(max_examples=500, deadline=timedelta(milliseconds=500),
          database=None)
@given(mutated(CERTIFICATES))
def test_mutated_solution_texts_raise_only_typed_errors(case):
    inst, text = case
    sol = read(parse_solution, text)
    assert sol == read(_read_json_solution, text)
    if isinstance(sol, tuple):
        return
    try:
        result = verify(inst, sol, node_budget=20_000)
    except PlaneInsertError:
        return
    assert isinstance(result, VerifyResult)


def written(answer):
    """An instance as write_instance's text; a typed error as it is."""
    return answer if isinstance(answer, tuple) else write_instance(answer)


@seed(21)
@settings(max_examples=500, deadline=timedelta(milliseconds=500),
          database=None)
@given(mutated(INSTANCES))
def test_mutated_instance_texts_raise_only_typed_errors(case):
    _, text = case
    inst = read(parse_instance, text)
    assert written(inst) == written(read(_read_json, text))
    if isinstance(inst, tuple):
        return
    try:
        solve(inst)
    except PlaneInsertError:
        pass


@seed(22)
@settings(max_examples=500, deadline=timedelta(milliseconds=500),
          database=None)
@given(mutated(FORMULAS))
def test_mutated_formula_texts_raise_only_typed_errors(case):
    _, text = case
    try:
        compile_formula(parse_formula(text), validate=False)
    except PlaneInsertError:
        pass
