"""The solution records, reader and writer against their reference in
solution_reference.py: the same canonical text byte for byte, the same
reprs, and the same error type and message on malformed input."""

from __future__ import annotations

import numpy as np
import pytest

from planeinsert import instance_io as new
from planeinsert.errors import SchemaError
from planeinsert.instance_io import make_instance
from planeinsert.oracle import iter_solutions
from planeinsert.tri_insert import solve
from planeinsert.verdicts import Verdict
from planeinsert.verifier import verify

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
    # Empty routes first, last and in a row: the writer places their heads.
    ev = new.CrossingEvent
    out = [new.Solution(()), new.Solution((
        new.Route(0, (ev("graph_edge", (5, 2)), ev("graph_edge", (2, 7)))),
        new.Route(1, ()),
        new.Route(2, (ev("inserted", 1), ev("graph_edge", (9, 0)),
                      ev("inserted", 0))),
    )), new.Solution((new.Route(0, ()), new.Route(1, ()))), new.Solution((
        new.Route(0, ()), new.Route(1, ()),
        new.Route(2, (ev("graph_edge", (3, 1)), ev("inserted", 0))),
        new.Route(3, ()),
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
    "missing events": '{"routes":[{"f_edge":0}]}',
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


def test_columns_of_records():
    ev = new.CrossingEvent
    sol = new.Solution((
        new.Route(0, (ev("graph_edge", (5, 2)), ev("graph_edge", (2, 7)))),
        new.Route(1, ()),
        new.Route(2, (ev("inserted", 1), ev("graph_edge", (9, 0)))),
    ))
    assert sol.start.tolist() == [0, 2, 2, 4]
    assert sol.kind.dtype == np.int8
    assert sol.kind.tolist() == [new.GRAPH_EDGE, new.GRAPH_EDGE,
                                 new.INSERTED, new.GRAPH_EDGE]
    assert sol.a.tolist() == [2, 2, 1, 0]
    assert sol.b.tolist() == [5, 7, -1, 9]
    assert not sol.a.flags.writeable
    with pytest.raises(AttributeError):
        sol.a = sol.b
    # The record view lists every pair smaller endpoint first.
    assert sol.routes[0].events[0] == ("graph_edge", (2, 5))
    same = new.Solution.from_columns([0, 2, 2, 4], [0, 0, 1, 0],
                                     [2, 2, 1, 0], [5, 7, -1, 9])
    assert same == sol and hash(same) == hash(sol)
    assert same != new.Solution(())


@pytest.mark.parametrize("columns, message", [
    (([1, 1], [0], [1], [2]), "route starts must rise"),
    (([0, 2, 1], [0], [1], [2]), "route starts must rise"),
    (([0, 1], [0], [1, 2], [2]), "one entry an event"),
    (([0, 1], [2], [1], [2]), "unknown event kind 2"),
    (([0, 1], [0], [3], [2]), r"route 0 graph_edge event \(3,2\) lists"),
    (([0, 1, 2], [0, 1], [1, 1], [2, -1]),
     "route 1 references inserted edge 1"),
    (([0, 0, 1], [1], [-1], [-1]), "route 1 references inserted edge -1"),
])
def test_column_check(columns, message):
    with pytest.raises(SchemaError, match=message):
        new.Solution.from_columns(*columns)


def test_first_bad_route_wins():
    # A bad reference before a malformed record is the error, as in a
    # walk that checks each event in turn.
    ev = new.CrossingEvent
    with pytest.raises(SchemaError, match="route 0 references inserted"):
        new.Solution((new.Route(0, (ev("inserted", 0),)),
                      new.Route(1, (ev("vertex", 1),))))
    with pytest.raises(SchemaError, match="route 1 references inserted"):
        new.Solution((new.Route(0, ()), new.Route(
            1, (ev("inserted", 1), ev("graph_edge", [1])))))
    with pytest.raises(SchemaError, match="labeled f_edge=2"):
        new.Solution((new.Route(0, (ev("graph_edge", (1, 2)),)),
                      new.Route(2, (ev("inserted", 5),))))


BIG = 10**23


@pytest.mark.parametrize("u, v", [(1, BIG), (-BIG, 1), (2**63, 0)])
def test_endpoints_outside_int64_are_schema_errors(u, v):
    route = (f'{{"routes":[{{"f_edge":0,"events":[{{"kind":"graph_edge",'
             f'"u":{u},"v":{v}}}]}}]}}')
    with pytest.raises(SchemaError, match="out of range"):
        new.parse_solution(route)
    with pytest.raises(SchemaError, match="out of range"):
        new.Solution((new.Route(0, (new.CrossingEvent("graph_edge",
                                                      (u, v)),)),))


@pytest.mark.parametrize("index", [BIG, -BIG])
def test_index_outside_int64_is_schema_error(index):
    text = ('{"routes":[{"f_edge":0,"events":[]},{"f_edge":1,"events":'
            f'[{{"kind":"inserted","index":{index}}}]}}]}}')
    with pytest.raises(SchemaError,
                       match=f"route 1 references inserted edge {index}"):
        new.parse_solution(text)
    with pytest.raises(SchemaError,
                       match=f"route 1 references inserted edge {index}"):
        new.Solution((new.Route(0, ()), new.Route(
            1, (new.CrossingEvent("inserted", index),))))


def test_negative_endpoint_parses_and_is_rejected():
    inst = make_instance(octahedron(), [(0, 5)])
    sol = new.parse_solution('{"routes":[{"f_edge":0,"events":'
                             '[{"kind":"graph_edge","u":2,"v":-1}]}]}')
    assert sol.routes[0].events == (("graph_edge", (-1, 2)),)
    res = verify(inst, sol)
    assert (res.reason, res.detail) == ("no_realization",
                                        "(-1,2) is not a graph edge")


def test_answer_path_builds_no_records(monkeypatch):
    def no_records(self):
        raise AssertionError("the record view was built")

    monkeypatch.setattr(new.Solution, "_records", no_records)
    inst = planted_instance(3000, 0)
    text = new.write_solution(solve(inst))
    assert verify(inst, new.parse_solution(text)).accepted
    with pytest.raises(AssertionError, match="record view"):
        new.parse_solution(text).routes
