"""parse_instance's two readers against each other: the array tokenizer
for canonical text (_read_canonical) and the json.loads path (_read_json)
must give the same graph tables, F, k and coords, or the same exception
type and message, also under ``python -O``.  Non-canonical text must be
declined by the tokenizer, and canonical text must reach json.loads only
as its small remainder."""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from planeinsert import instance_io
from planeinsert.instance_io import (
    _read_canonical,
    _read_json,
    parse_instance,
    write_instance,
)
from planeinsert.plane_graph import (
    PlaneGraph,
    generate_stacked_triangulation,
    sample_complement_edges,
)
from planeinsert.reduction import Clause, MonotoneFormula, compile_formula

from instance_gen import instance_stream
from test_embedding_kernels import ERROR_CASES, f_error_cases

SLOTS = tuple(s for s in PlaneGraph.__slots__ if s.startswith("_"))

FORMULAS = (
    MonotoneFormula(2, (Clause("pos", 2, (0, 1)),), (0, 1)),
    MonotoneFormula(3, (Clause("neg", 2, (2, 0, 1)),), (1, 2, 0)),
    MonotoneFormula(2, (Clause("pos", 2, (0, 1)), Clause("neg", 2, (1, 0))),
                    (1, 0)),
)


def outcome(read, text: str):
    """Everything an Instance holds, exact types of F included, or the
    exception's type and message."""
    try:
        inst = read(text)
    except Exception as exc:  # compared by type name and message
        return type(exc).__name__, str(exc)
    g = inst.graph
    tables = tuple((getattr(g, s).typecode, getattr(g, s).tolist())
                   for s in SLOTS)
    return ("ok", tables, g.vertex_count, g.edge_count, g.face_count,
            inst.F, [tuple(map(type, p)) for p in inst.F],
            inst.k, inst.coords, inst.f_structure)


def canonical(n, rotation, F=(), coords=None, k=1, f_structure="none"):
    """The text write_instance would give for these values, written by
    json.dumps so that malformed values can be written too."""
    obj = {"k": k, "n": n, "rotation": rotation, "coords": coords,
           "F": [list(p) for p in F], "f_structure": f_structure}
    return json.dumps(obj, separators=(",", ":")) + "\n"


def compiled_texts() -> list[str]:
    return [write_instance(compile_formula(f, k=1, variant=v,
                                           validate=False)[0])
            for f in FORMULAS for v in ("path", "matching")]


def error_texts() -> dict[str, str]:
    texts = {f"rotation {name}": canonical(n, rotation)
             for name, (n, rotation) in ERROR_CASES.items()}
    g, cases = f_error_cases()
    rotation = g.rotation()
    for name, F in cases.items():
        texts[f"F {name}"] = canonical(g.vertex_count, rotation, F)
    texts["F triple"] = canonical(g.vertex_count, rotation, [(0, 5, 1)])
    texts["F single"] = canonical(g.vertex_count, rotation, [(0,)])
    texts["F empty pair"] = canonical(g.vertex_count, rotation, [()])
    texts["bad f_structure"] = canonical(g.vertex_count, rotation,
                                         f_structure="cycle")
    texts["k zero"] = canonical(g.vertex_count, rotation, k=0)
    texts["n short"] = canonical(g.vertex_count - 1, rotation)
    texts["coords short"] = canonical(g.vertex_count, rotation,
                                      coords=[[0, 1, 0, 1]])
    texts["coords zero denominator"] = canonical(
        2, [[1], [0]], coords=[[0, 1, 0, 1], [1, 0, 1, 1]])
    # Members nested in k: json.loads finds no top-level n.
    texts["nested k"] = ('{"k":{"x":1,"n":2},"rotation":[[1],[0]],'
                         '"coords":null,"F":[],"f_structure":"none"}')
    texts["nested coords"] = ('{"k":1,"n":2,"rotation":[[1],[0]],'
                              '"coords":{"x":[1],"F":[]},"F":[],'
                              '"f_structure":"none"}')
    texts["extra key"] = ('{"k":1,"n":2,"m":3,"rotation":[[1],[0]],'
                          '"coords":null,"F":[],"f_structure":"none"}')
    texts["coords float"] = canonical(
        2, [[1], [0]], coords=[[0, 1, 0, 1], [1.5, 1, 1, 1]])
    return texts


# Error cases whose text holds a value outside the tokenizer's grammar.
DECLINED = {
    "rotation float neighbor", "rotation string neighbor",
    "rotation huge neighbor", "rotation negative",
    "rotation bad after good row", "rotation row not iterable",
    "F negative first", "F negative last", "F huge first", "F huge last",
    "nested k", "nested coords", "extra key",
}


def mutations(text: str) -> dict[str, str]:
    """Non-canonical forms of a canonical instance text with F, each of
    which the tokenizer must decline."""
    obj = json.loads(text)
    fs = obj["f_structure"]
    out = {
        "spaces": json.dumps(obj) + "\n",
        "space in rotation": text.replace("],[", "], [", 1),
        "space in F": text.replace('"F":[[', '"F":[ [', 1),
        "space before brace": text[:-2] + " }\n",
        "leading space": " " + text,
        "key order": json.dumps(dict(reversed(obj.items())),
                                separators=(",", ":")) + "\n",
        "duplicate F": text[:-2] + ',"F":[]}\n',
        "duplicate k": text[:-2] + ',"k":2}\n',
        "duplicate rotation": text[:-2] + ',"rotation":[]}\n',
        "non-ASCII digit": text.replace('"rotation":[[', '"rotation":[[٣',
                                        1),
        "deep coords": text.replace('"coords":null', '"coords":'
                                    + "[" * 100_000 + "]" * 100_000, 1),
        "5000-digit k": text.replace('"k":1,', '"k":1' + "0" * 5000 + ",",
                                     1),
        "escaped f_structure": text.replace(
            f'"{fs}"}}', f'"\\u{ord(fs[0]):04x}{fs[1:]}"}}'),
    }
    for where in ("rotation", "F"):
        for token in (-1, 1.0, True, 2**63, 10**17):
            bad = json.loads(text)
            bad[where][0][0] = token
            out[f"{token!r} in {where}"] = json.dumps(
                bad, separators=(",", ":")) + "\n"
        out[f"leading zero in {where}"] = text.replace(
            f'"{where}":[[', f'"{where}":[[0', 1)
    return out


def mismatches() -> list[str]:
    out = []

    def differ(name: str, text: str, taken: bool) -> None:
        got, want = outcome(parse_instance, text), outcome(_read_json, text)
        if got != want:
            out.append(f"{name}: tokenizer {got[:2]}, json {want[:2]}")
        if (_read_canonical(text) is not None) != taken:
            out.append(f"{name}: tokenizer {'declined' if taken else 'took'}"
                       " it")

    for i, inst in enumerate(instance_stream(60)):
        text = write_instance(inst)
        differ(f"stream {i}", text, True)
        for name, bad in mutations(text).items():
            differ(f"stream {i} {name}", bad, False)
    for i, text in enumerate(compiled_texts()):
        differ(f"compiled {i}", text, True)
    for name, text in error_texts().items():
        differ(name, text, name not in DECLINED)
    return out


def test_readers_agree():
    assert mismatches() == []


def test_readers_agree_without_asserts():
    # Under -O every assert is gone; no input check may rest on one.
    here = Path(__file__).resolve().parent
    code = ("import test_instance_parse as t\n"
            "print(__debug__)\n"
            "print('\\n'.join(t.mismatches()) or 'ok')\n")
    run = subprocess.run([sys.executable, "-O", "-c", code],
                         env={"PYTHONPATH": f"{here.parent / 'src'}:{here}"},
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split("\n", 1) == ["False", "ok\n"]


def test_roundtrip_is_byte_identical():
    for inst in instance_stream(60):
        text = write_instance(inst)
        assert write_instance(parse_instance(text)) == text
    for text in compiled_texts():
        assert write_instance(parse_instance(text)) == text


def test_canonical_text_skips_json_loads(monkeypatch):
    g = generate_stacked_triangulation(10_000, 3)
    text = write_instance(instance_io.make_instance(
        g, sample_complement_edges(g, 2000, 3)))
    seen: list[int] = []
    loads = json.loads

    def spy(s, *args, **kw):
        seen.append(len(s))
        return loads(s, *args, **kw)

    monkeypatch.setattr(instance_io.json, "loads", spy)
    inst = parse_instance(text)
    assert len(inst.F) > 1000
    assert 0 < sum(seen) < len(text) // 100


def int_rows(segment: str):
    # Eight bytes in front, as a key stands before each value.
    return instance_io._int_rows(b'"rotation":' + segment.encode(), 11,
                                 11 + len(segment.encode()))


@pytest.mark.parametrize("segment, rows", [
    ("[]", []),
    ("[[]]", [[]]),
    ("[[],[7]]", [[], [7]]),
    ("[[0,10,100],[99999999999999999]]", [[0, 10, 100],
                                          [99999999999999999]]),
    ("[[12345678,123456789,1234567890123456]]",
     [[12345678, 123456789, 1234567890123456]]),
])
def test_int_rows_reads_rows(segment, rows):
    lengths, values = int_rows(segment)
    flat = values.tolist()
    got = []
    for n in lengths.tolist():
        got.append(flat[:n])
        flat = flat[n:]
    assert got == rows


@pytest.mark.parametrize("segment", [
    "", "[", "[[1]", "[[1]]]", "[1]", "[[1],2]", "[2,[1]]", "[[[1]]]",
    "[[1][2]]", "[[1],,[2]]", "[[1],]", "[,[1]]", "[[,1]]", "[[1,]]",
    "[[1,,2]]", "[[,]]", "[[01]]", "[[00]]", "[[-1]]", "[[1.0]]", "[[1e5]]",
    "[[true]]", "[[1] ]", "[[٣]]", "[[123456789012345678]]",
    "[[1]],[[2]]", "[][]", "[[]]x", "[[1],5,[2]]", "[[1]5,[2]]",
    "[[1],5[2]]", "[[1]5[2]]", "[[1,,,2]5[3]]", "[]]]", "[]1]]",
    "[[1],]2]]",
])
def test_int_rows_declines_other_text(segment):
    assert int_rows(segment) is None


def test_int_rows_agrees_with_json_loads():
    # Seeded edits of small valid segments and random strings over the
    # grammar's bytes: _int_rows reads what json.loads reads, or declines
    # what json.loads rejects or reads as something else.
    rng = random.Random(7)
    accepted = 0
    for _ in range(20_000):
        if rng.random() < 0.5:
            rows = [[rng.choice([0, 1, 9, 10, 12, 100,
                                 rng.randrange(10 ** rng.randint(1, 18))])
                     for _ in range(rng.randint(0, 3))]
                    for _ in range(rng.randint(0, 3))]
            segment = json.dumps(rows, separators=(",", ":"))
            for _ in range(rng.randint(0, 2)):
                at = rng.randint(0, len(segment))
                edit = rng.choice("[],0123456789")
                segment = rng.choice([segment[:at] + edit + segment[at:],
                                      segment[:at] + segment[at + 1:],
                                      segment[:at] + edit + segment[at + 1:]])
        else:
            segment = "".join(rng.choice("[],01")
                              for _ in range(rng.randint(2, 14)))
        try:
            want = json.loads(segment)
        except ValueError:
            want = None
        if not (isinstance(want, list) and all(
                isinstance(row, list) and all(
                    type(x) is int and 0 <= x < 10**17 for x in row)
                for row in want)):
            want = None
        got = int_rows(segment)
        if got is not None:
            accepted += 1
            flat = got[1].tolist()
            rows = []
            for n in got[0].tolist():
                rows.append(flat[:n])
                flat = flat[n:]
            got = rows
        assert got == want, segment
    assert accepted > 4000
