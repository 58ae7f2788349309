"""The solution columns, reader and writer against their reference in
solution_reference.py: the columns of the reference's records, the same
canonical text byte for byte, and the same error type and message on
malformed input."""

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
from fixtures import cube, octahedron, route_events, solution
from instance_gen import instance_stream, planted_instance


def as_reference(sol: new.Solution) -> ref.Solution:
    return ref.Solution(tuple(
        ref.Route(i, tuple(ref.CrossingEvent(
            "graph_edge" if isinstance(ev, tuple) else "inserted", ev)
            for ev in events))
        for i, events in enumerate(route_events(sol))))


def from_reference(sol: ref.Solution) -> new.Solution:
    """The columns of the reference's records: a graph edge's target is
    its endpoint pair, an inserted edge's its F index."""
    return solution(*([ev.target for ev in r.events] for r in sol.routes))


def solutions() -> list[new.Solution]:
    # Endpoint pairs in both orders: the writer must put the smaller first.
    # Empty routes first, last and in a row: the writer places their heads.
    ev = ref.CrossingEvent
    out = [from_reference(ref.Solution(routes)) for routes in [(), (
        ref.Route(0, (ev("graph_edge", (5, 2)), ev("graph_edge", (2, 7)))),
        ref.Route(1, ()),
        ref.Route(2, (ev("inserted", 1), ev("graph_edge", (9, 0)),
                      ev("inserted", 0))),
    ), (ref.Route(0, ()), ref.Route(1, ())), (
        ref.Route(0, ()), ref.Route(1, ()),
        ref.Route(2, (ev("graph_edge", (3, 1)), ev("inserted", 0))),
        ref.Route(3, ()),
    )]]
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
    assert set(np.concatenate([sol.kind for sol in sols]).tolist()) == {
        new.GRAPH_EDGE, new.INSERTED}
    assert max(len(sol.start) - 1 for sol in sols) > 1000
    for sol in sols:
        want = as_reference(sol)
        assert from_reference(want) == sol
        text = new.write_solution(sol)
        assert text == ref.write_solution(want)
        parsed = new.parse_solution(text)
        assert parsed == sol
        assert repr(parsed) == repr(from_reference(ref.parse_solution(text)))


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


def test_columns_of_records():
    ev = ref.CrossingEvent
    sol = from_reference(ref.Solution((
        ref.Route(0, (ev("graph_edge", (5, 2)), ev("graph_edge", (2, 7)))),
        ref.Route(1, ()),
        ref.Route(2, (ev("inserted", 1), ev("graph_edge", (9, 0)))),
    )))
    assert sol.start.tolist() == [0, 2, 2, 4]
    assert sol.kind.dtype == np.int8
    assert sol.kind.tolist() == [new.GRAPH_EDGE, new.GRAPH_EDGE,
                                 new.INSERTED, new.GRAPH_EDGE]
    assert sol.a.tolist() == [2, 2, 1, 0]
    assert sol.b.tolist() == [5, 7, -1, 9]
    assert not sol.a.flags.writeable
    with pytest.raises(AttributeError):
        sol.a = sol.b
    same = new.Solution([0, 2, 2, 4], [0, 0, 1, 0], [2, 2, 1, 0],
                        [5, 7, -1, 9])
    assert same == sol and hash(same) == hash(sol)
    assert same != solution()
    assert repr(same) == ("Solution(start=[0, 2, 2, 4], kind=[0, 0, 1, 0], "
                          "a=[2, 2, 1, 0], b=[5, 7, -1, 9])")


@pytest.mark.parametrize("columns, message", [
    (([1, 1], [0], [1], [2]), "route starts must rise"),
    (([0, 2, 1], [0], [1], [2]), "route starts must rise"),
    (([0, 1], [0], [1, 2], [2]), "one entry an event"),
    (([0, 1], [2], [1], [2]), "unknown event kind 2"),
    (([0, 1], [0], [3], [2]), r"route 0 graph_edge event \(3,2\) lists"),
    (([0, 1, 2], [0, 1], [1, 1], [2, -1]),
     "route 1 references inserted edge 1"),
    (([0, 0, 1], [1], [-1], [-1]), "route 1 references inserted edge -1"),
    # Bools, floats and values outside a column's dtype are errors, not
    # truncations or overflows.
    (([0, 1.7], [0], [1], [2]), "column start must hold int64"),
    (([0, 1], [0.9], [1.5], [2.2]), "column kind must hold int8"),
    (([0, 1], [False], [1], [2]), "column kind must hold int8"),
    (([0, 1], np.array([0]), np.array([True]), [2]),
     "column a must hold int64"),
    (([0, True], [0], [1], [2]), "column start must hold int64"),
    (([0, 1], [300], [1], [2]), "column kind must hold int8"),
    (([0, 1], [0], [2**70], [2]), "column a must hold int64"),
    (([0, 1], [0], [1], [2**63]), "column b must hold int64"),
    (([0, 1], [0], [1], [[2], [3, 4]]), "column b"),
])
def test_column_check(columns, message):
    with pytest.raises(SchemaError, match=message):
        new.Solution(*columns)


def test_first_bad_route_wins():
    # Of two bad events the earlier one is the error, whatever their kinds.
    with pytest.raises(SchemaError, match="route 0 references inserted"):
        new.Solution([0, 1, 2], [1, 5], [0, 1], [-1, 2])
    with pytest.raises(SchemaError, match="route 1 graph_edge event"):
        new.Solution([0, 0, 2, 3], [0, 1, 1], [3, 0, 4], [2, -1, -1])


BIG = 10**23


@pytest.mark.parametrize("u, v", [(1, BIG), (-BIG, 1), (2**63, 0)])
def test_endpoints_outside_int64_are_schema_errors(u, v):
    route = (f'{{"routes":[{{"f_edge":0,"events":[{{"kind":"graph_edge",'
             f'"u":{u},"v":{v}}}]}}]}}')
    with pytest.raises(SchemaError, match="out of range"):
        new.parse_solution(route)


@pytest.mark.parametrize("index", [BIG, -BIG])
def test_index_outside_int64_is_schema_error(index):
    text = ('{"routes":[{"f_edge":0,"events":[]},{"f_edge":1,"events":'
            f'[{{"kind":"inserted","index":{index}}}]}}]}}')
    with pytest.raises(SchemaError,
                       match=f"route 1 references inserted edge {index}"):
        new.parse_solution(text)


def test_negative_endpoint_parses_and_is_rejected():
    inst = make_instance(octahedron(), [(0, 5)])
    sol = new.parse_solution('{"routes":[{"f_edge":0,"events":'
                             '[{"kind":"graph_edge","u":2,"v":-1}]}]}')
    assert route_events(sol) == [[(-1, 2)]]
    res = verify(inst, sol)
    assert (res.reason, res.detail) == ("no_realization",
                                        "(-1,2) is not a graph edge")
