"""The solution records, reader and writer against their reference in
solution_reference.py: the same canonical text byte for byte, the same
reprs, and the same error type and message on malformed input."""

from __future__ import annotations

import pytest

from planeinsert import instance_io as new
from planeinsert.instance_io import make_instance
from planeinsert.oracle import iter_solutions
from planeinsert.tri_insert import solve
from planeinsert.verdicts import Verdict

import solution_reference as ref
from fixtures import cube, octahedron
from instance_gen import instance_stream, planted_instance


def as_reference(sol: new.Solution) -> ref.Solution:
    return ref.Solution(tuple(
        ref.Route(r.f_edge, tuple(ref.CrossingEvent(ev.kind, ev.target)
                                  for ev in r.events))
        for r in sol.routes))


def solutions() -> list[new.Solution]:
    # Endpoint pairs in both orders: the writer must put the smaller first.
    ev = new.CrossingEvent
    out = [new.Solution(()), new.Solution((
        new.Route(0, (ev("graph_edge", (5, 2)), ev("graph_edge", (2, 7)))),
        new.Route(1, ()),
        new.Route(2, (ev("inserted", 1), ev("graph_edge", (9, 0)),
                      ev("inserted", 0))),
    ))]
    insts = list(instance_stream(300))
    insts += [planted_instance(3000, s) for s in range(3)]
    for inst in insts:
        res = solve(inst)
        if not isinstance(res, Verdict):
            out.append(res)
    for g, F in ((cube(), [(0, 2), (1, 3)]),
                 (octahedron(), [(0, 5), (1, 3), (2, 4)])):
        out += iter_solutions(make_instance(g, F, k=2))
    return out


def test_text_and_reprs_match_reference():
    sols = solutions()
    kinds = {ev.kind for sol in sols for r in sol.routes for ev in r.events}
    assert kinds == {"graph_edge", "inserted"}
    assert max(len(sol.routes) for sol in sols) > 1000
    for sol in sols:
        want = as_reference(sol)
        assert repr(sol) == repr(want)
        text = new.write_solution(sol)
        assert text == ref.write_solution(want)
        assert repr(new.parse_solution(text)) == repr(ref.parse_solution(text))


def raised(call) -> tuple[str, str]:
    try:
        call()
    except Exception as exc:  # compared by type name and message
        return type(exc).__name__, str(exc)
    return "no error", ""


MALFORMED_TEXTS = {
    "bad kind": '{"routes":[{"f_edge":0,"events":[{"kind":"vertex"}]}]}',
    "missing u": ('{"routes":[{"f_edge":0,"events":'
                  '[{"kind":"graph_edge","v":2}]}]}'),
    "non-int index": ('{"routes":[{"f_edge":0,"events":[]},{"f_edge":1,'
                      '"events":[{"kind":"inserted","index":"0"}]}]}'),
    "float index": ('{"routes":[{"f_edge":0,"events":[]},{"f_edge":1,'
                    '"events":[{"kind":"inserted","index":0.5}]}]}'),
    "forward reference": ('{"routes":[{"f_edge":0,"events":'
                          '[{"kind":"inserted","index":0}]}]}'),
    "negative reference": ('{"routes":[{"f_edge":0,"events":'
                           '[{"kind":"inserted","index":-1}]}]}'),
    "wrong f_edge": '{"routes":[{"f_edge":0,"events":[]},{"f_edge":0}]}',
    "non-object route": '{"routes":[[0]]}',
    "non-object event": '{"routes":[{"f_edge":0,"events":[3]}]}',
    "non-list routes": '{"routes":{"f_edge":0}}',
    "no routes": '{"route":[]}',
    "bad JSON": '{"routes":[',
}


@pytest.mark.parametrize("name", MALFORMED_TEXTS)
def test_malformed_text_errors_match_reference(name):
    text = MALFORMED_TEXTS[name]
    want = raised(lambda: ref.parse_solution(text))
    assert want[0] == "SchemaError"
    assert raised(lambda: new.parse_solution(text)) == want


def one_route(m, *events):
    return m.Solution((m.Route(0, tuple(events)),))


def second_route(m, *events):
    return m.Solution((m.Route(0, ()), m.Route(1, tuple(events))))


MALFORMED_RECORDS = {
    "bad kind": lambda m: one_route(m, m.CrossingEvent("vertex", 3)),
    "missing u": lambda m: one_route(m, m.CrossingEvent("graph_edge", (2,))),
    "non-pair target": lambda m: one_route(
        m, m.CrossingEvent("graph_edge", [1, 2])),
    "non-int index": lambda m: second_route(
        m, m.CrossingEvent("inserted", "0")),
    "forward reference": lambda m: one_route(
        m, m.CrossingEvent("inserted", 0)),
    "late forward reference": lambda m: second_route(
        m, m.CrossingEvent("graph_edge", (1, 2)),
        m.CrossingEvent("inserted", 1)),
    "wrong f_edge": lambda m: m.Solution((m.Route(1, ()),)),
    "non-list routes": lambda m: m.Solution(5),
}


@pytest.mark.parametrize("name", MALFORMED_RECORDS)
def test_malformed_record_errors_match_reference(name):
    build = MALFORMED_RECORDS[name]
    want = raised(lambda: build(ref))
    assert want[0] != "no error"
    assert raised(lambda: build(new)) == want
