"""The typed-error contract on solution texts.

A valid solution text is mutated at one JSON path, to one value of a fixed
menu of wrong types and extreme numbers, and run through parse_solution
and verify.  Each must return or raise a PlaneInsertError; no other
exception may escape, and no example may pass the deadline.  Half the
texts are written in write_solution's layout, and parse_solution must
read each as its JSON path alone does: the same Solution or the same
error."""

from __future__ import annotations

import json
from datetime import timedelta

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from planeinsert.errors import PlaneInsertError
from planeinsert.instance_io import (
    _read_json_solution,
    make_instance,
    parse_solution,
    write_solution,
)
from planeinsert.tri_insert import solve
from planeinsert.verifier import VerifyResult, verify

from fixtures import octahedron, shared_face_certificate, solution
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
def mutated_solutions(draw):
    inst, obj = draw(st.sampled_from(CERTIFICATES))
    path = draw(st.sampled_from(list(json_paths(obj))))
    value = draw(st.sampled_from(MENU))
    obj = replaced(obj, path, value)
    if draw(st.booleans()):
        return inst, json.dumps(obj, separators=(",", ":")) + "\n"
    return inst, json.dumps(obj)


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
@given(mutated_solutions())
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
