"""parse_solution's two readers against each other: the array reader for
canonical text (_read_canonical_solution) and the json.loads path
(_read_json_solution) must give the same Solution, or the same exception
type and message, also under ``python -O``.  Every text write_solution
emits (with numbers below 10**17) must be taken by the array reader
without json.loads, and every other text declined."""

from __future__ import annotations

import json
import random
import re
import subprocess
import sys
from pathlib import Path

from planeinsert import instance_io
from planeinsert.instance_io import (
    _SEPARATORS,
    _read_canonical_solution,
    _read_json_solution,
    make_instance,
    parse_solution,
    write_solution,
)
from planeinsert.oracle import iter_solutions
from planeinsert.tri_insert import solve
from planeinsert.verdicts import Verdict

from fixtures import cube, octahedron, solution
from instance_gen import instance_stream, planted_instance


def outcome(read, text: str):
    """The columns with their dtypes, or the exception's type and
    message."""
    try:
        sol = read(text)
    except Exception as exc:  # compared by type name and message
        return type(exc).__name__, str(exc)
    return "ok", tuple((col.dtype.str, col.tolist()) for col in
                       (sol.start, sol.kind, sol.a, sol.b))


def solutions() -> list:
    """Solver certificates, oracle answers with inserted events, and
    hand-made columns: empty routes first, last and in a row, no routes,
    and numbers of 1 to 17 digits."""
    out = [solution(), solution([]), solution([], []),
           solution([(5, 2), (2, 7)], [], [1, (9, 0), 0]),
           solution([], [], [(3, 1), 0], []),
           solution([(0, 10**16 - 1)], [(12345678, 10**17 - 1), 0])]
    for inst in instance_stream(40):
        res = solve(inst)
        if not isinstance(res, Verdict):
            out.append(res)
    out += [solve(planted_instance(300, s)) for s in range(2)]
    for g, F in ((cube(), [(0, 2), (1, 3)]),
                 (octahedron(), [(0, 5), (1, 3), (2, 4)])):
        out += iter_solutions(make_instance(g, F, k=2))
    return out


def canonical_texts() -> list[str]:
    return [write_solution(sol) for sol in solutions()]


def mutations(text: str) -> dict[str, str]:
    """Named edits of a canonical text with a graph-edge event; none of
    them is canonical."""
    u, v = re.search(r'"u":(\d+),"v":(\d+)', text).groups()
    edge = f'"u":{u},"v":{v}'
    out = {
        "spaces": json.dumps(json.loads(text)) + "\n",
        "no newline": text[:-1],
        "two newlines": text + "\n",
        "CRLF": text[:-1] + "\r\n",
        "leading space": " " + text,
        "space before the end": text[:-2] + " }\n",
        "larger end first": text.replace(edge, f'"u":{v},"v":{u}', 1),
        "v before u": text.replace(edge, f'"v":{v},"u":{u}', 1),
        "leading zero in u": text.replace(edge, f'"u":0{u},"v":{v}', 1),
        "leading zero in f_edge": text.replace('"f_edge":0', '"f_edge":00',
                                               1),
        "18-digit v": text.replace(edge, f'"u":{u},"v":{10**17}', 1),
        "negative u": text.replace(edge, f'"u":-{u},"v":{v}', 1),
        "float v": text.replace(edge, f'"u":{u},"v":{v}.0', 1),
        "exponent v": text.replace(edge, f'"u":{u},"v":{v}e0', 1),
        "true f_edge": text.replace('"f_edge":0', '"f_edge":true', 1),
        "non-ASCII digit": text.replace(edge, f'"u":{u},"v":٣', 1),
        "digit in routes": text.replace('"routes"', '"rou5tes"', 1),
        # Cut at the digit, the separator before the first u leaves two of
        # lengths that the writer uses (14 and 21), in an order it never
        # emits.
        "digit in kind": text.replace('[{"kind"', '[{"k5nd"', 1),
        "digit in events": text.replace('"events"', '"eve5nts"', 1),
        "digit in graph_edge": text.replace('"graph_edge"', '"graph5edge"',
                                            1),
        "wrong f_edge": text.replace('"f_edge":0', '"f_edge":1', 1),
        "duplicate f_edge": text.replace('"f_edge":0,',
                                         '"f_edge":0,"f_edge":0,', 1),
        "extra key": text[:-2] + ',"x":1}\n',
        "truncated": text[:len(text) // 2],
        "routes twice": text + text,
    }
    if '"index":' in text:
        out["forward reference"] = re.sub(r'"index":\d+', '"index":9999',
                                          text, count=1)
    return out


# Texts in the writer's alphabet that it never emits, one per shape.
HAND_TEXTS = {
    "u alone": '{"routes":[{"f_edge":0,"events":[{"kind":"graph_edge",'
               '"u":1}]}]}\n',
    "v twice": '{"routes":[{"f_edge":0,"events":[{"kind":"graph_edge",'
               '"u":1,"v":2,"v":3}]}]}\n',
    "index and v": '{"routes":[{"f_edge":0,"events":[]},{"f_edge":1,'
                   '"events":[{"kind":"inserted","index":0,"v":2}]}]}\n',
    "f_edge alone": '{"routes":[{"f_edge":0}]}\n',
    "routes 1, 0": '{"routes":[{"f_edge":1,"events":[]},{"f_edge":0,'
                   '"events":[]}]}\n',
    "bare routes": '{"routes":[]}',
    "empty": "",
    "head alone": '{"routes":[{"f_edge":',
}


def byte_mutations(texts: list[str], count: int, seed: int):
    """Random replace, delete and insert edits, one to three per text,
    over digits, brackets, letters, quotes, space, newline and a
    non-ASCII digit."""
    rng = random.Random(seed)
    alphabet = '0123456789{}[],:"aeiuvx \n٣'
    for _ in range(count):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(text))
            edit = rng.choice(alphabet)
            text = rng.choice([text[:at] + edit + text[at:],
                               text[:at] + text[at + 1:],
                               text[:at] + edit + text[at + 1:]])
        yield text


def mismatches() -> list[str]:
    out = []

    def differ(name: str, text: str, taken: bool | None) -> None:
        got = outcome(parse_solution, text)
        want = outcome(_read_json_solution, text)
        if got != want:
            out.append(f"{name}: parse_solution {got}, json {want}")
        took = _read_canonical_solution(text) is not None
        if taken is not None and took != taken:
            out.append(f"{name}: canonical reader "
                       f"{'declined' if taken else 'took'} it")

    texts = canonical_texts()
    for i, text in enumerate(texts):
        differ(f"canonical {i}", text, True)
        if '"u":' in text:
            for name, bad in mutations(text).items():
                differ(f"canonical {i} {name}", bad, False)
    for name, text in HAND_TEXTS.items():
        differ(name, text, False)
    differ("bytes", texts[3].encode(), False)
    small = [text for text in texts if len(text) < 2000]
    for i, text in enumerate(byte_mutations(small, 3000, 35)):
        differ(f"byte mutation {i} {text!r}", text, None)
    return out


def test_readers_agree():
    assert mismatches() == []


def test_readers_agree_without_asserts():
    # Under -O every assert is gone; no input check may rest on one.
    here = Path(__file__).resolve().parent
    code = ("import test_solution_parse as t\n"
            "print(__debug__)\n"
            "print('\\n'.join(t.mismatches()) or 'ok')\n")
    run = subprocess.run([sys.executable, "-O", "-c", code],
                         env={"PYTHONPATH": f"{here.parent / 'src'}:{here}"},
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split("\n", 1) == ["False", "ok\n"]


def test_canonical_text_skips_json_loads(monkeypatch):
    sols = solutions()
    texts = [write_solution(sol) for sol in sols]
    assert max(map(len, texts)) > 10_000

    def refuse(*args, **kw):
        raise AssertionError("json.loads read a canonical text")

    monkeypatch.setattr(instance_io.json, "loads", refuse)
    assert [parse_solution(text) for text in texts] == sols


def test_separators_are_the_writer_s():
    # The reader knows a separator by its length: the table must hold
    # exactly the strings between numbers of written texts, each length
    # once.
    seen = set()
    for text in canonical_texts():
        seen.update(re.split(r"\d+", text))
    seen.discard(write_solution(solution()))  # no numbers to split at
    assert seen == set(_SEPARATORS)
    assert len(set(map(len, _SEPARATORS))) == len(_SEPARATORS)
