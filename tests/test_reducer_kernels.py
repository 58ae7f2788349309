"""The k = 1 reducer's frontier drain and its array-built 2-SAT formula
against the heap drain and the one-clause-at-a-time formula of
reducer_reference.py: the same verdicts, reduced states and chosen options,
and the reference's clash clauses over half its variables, also under
``python -O``.  The option classification is compared with the
reference's on every call the solver makes and on every fresh catalog.
The drain's work is pinned by a count of the elements it reads, and the
compact case by an exhaustive solver / oracle / verifier differential over
the bipyramid family."""

from __future__ import annotations

import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import reducer_reference as ref
from planeinsert import tri_insert
from planeinsert.instance_io import Solution, make_instance
from planeinsert.oracle import exact_solve_triangulation
from planeinsert.tri_insert import (
    _choose_options,
    _formula,
    _Reducer,
    compute_clashes,
    enumerate_options,
    reduce_instance,
    solve,
)
from planeinsert.verifier import verify

from fixtures import (
    apollonian7,
    bipyramid,
    bipyramid_chords,
    chord_subsets,
    octahedron,
    stacked_octahedron,
    windowed_bipyramid_f,
)
from instance_gen import instance_stream, planted_instance


def inputs():
    for i, inst in enumerate(instance_stream(300)):
        yield f"stream {i}", inst
    for s in range(3):
        yield f"planted {s}", planted_instance(3000, s)
    for F in ([(0, 5), (1, 3)], [(0, 5), (1, 3), (2, 4)]):
        yield f"octahedron {F}", make_instance(octahedron(), F)
    yield "bipyramid 3", make_instance(bipyramid(3), [(0, 1)])
    yield "apollonian", make_instance(apollonian7(), [(6, 2)])
    for c in (6, 8, 10):
        for i, inst in enumerate(chord_subsets(c)):
            yield f"bipyramid {c} subset {i}", inst
    for c in (6, 7, 200):
        yield f"windowed {c}", make_instance(bipyramid(c),
                                             windowed_bipyramid_f(c))
    # Chords i and i + 1 clash on the same side, so the chords alone are a
    # 2-coloring of a c-cycle: 2-SAT decides them, unsatisfiable at odd c.
    for c in range(5, 16):
        yield f"chords {c}", make_instance(bipyramid(c), bipyramid_chords(c))


def mismatches(reached: Counter | None = None) -> list[str]:
    out = []
    for name, inst in inputs():
        cat = enumerate_options(inst)
        cl = compute_clashes(cat)
        state = ref.State(cat, cl)
        want = ref.Reducer(state).run()
        trace: list = []
        got = reduce_instance(cat, cl, trace)
        if reached is not None:
            reached.update(e[0] for e in trace)
        if want is not None:
            if got is not want:
                out.append(f"{name}: verdict {got!r}, want {want!r}")
            continue
        if got is not cat:
            out.append(f"{name}: verdict {got!r}, want the reduced catalog")
            continue
        if ((cat.committed, cat.alive.tolist(), cat.live_count.tolist())
                != (state.committed, list(state.alive), state.live_count)):
            out.append(f"{name}: reduced state differs")
            continue
        formula, lit_options = _formula(cat, cl)
        want_formula, want_vars = ref.formula(state)
        # The reference gives each option a variable a and ties the two of
        # an edge with two clauses; the solver's literals are the options,
        # so it has half the variables and no tie clauses, and a reference
        # clash clause with codes (2a + 1, 2b + 1) becomes (a ^ 1, b ^ 1).
        n_ref = want_formula.variable_count
        want_codes = [(c >> 1) ^ 1 for c in want_formula.packed_codes()[
            2 * n_ref:]]
        if ((2 * formula.variable_count, lit_options.tolist(),
             formula.packed_codes().tolist())
                != (n_ref, want_vars, want_codes)):
            out.append(f"{name}: 2-SAT formula differs")
        chosen = _choose_options(cat, cl)
        want_chosen = ref.choose_options(state)
        if (None if chosen is None else chosen.tolist()) != want_chosen:
            out.append(f"{name}: chosen options differ")
        if reached is not None:
            reached["clash clauses"] += len(formula.clauses) > 0
            reached["unsatisfiable"] += chosen is None
    return out


def test_reducer_matches_reference():
    reached: Counter = Counter()
    assert mismatches(reached) == []
    # The inputs reach forced commits, deletes, every case step that ends
    # in a commit, both verdicts and formulas with clash clauses.
    for event in ("commit", "delete", "case_c", "infeasible",
                  "clash clauses", "unsatisfiable"):
        assert reached[event] >= 5, (event, reached)


def test_reducer_matches_reference_without_asserts():
    # Under -O every assert is gone; the drain must not rest on one.
    here = Path(__file__).resolve().parent
    code = ("import test_reducer_kernels as t\n"
            "print(__debug__)\n"
            "print('\\n'.join(t.mismatches()) or 'ok')\n")
    run = subprocess.run([sys.executable, "-O", "-c", code],
                         env={"PYTHONPATH": f"{here.parent / 'src'}:{here}"},
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split("\n", 1) == ["False", "ok\n"]


def shape(cls) -> tuple:
    """A classification's label, and its runs and cycles as sets of option
    sets: the order within and between them is free."""
    return (cls.label, {frozenset(r) for r in cls.runs},
            {frozenset(c) for c in cls.cycles})


def test_classification_matches_reference(monkeypatch):
    # Every classification the solver asks for on inputs that reach each
    # case label, and every edge with two or more options of each fresh
    # catalog, which adds the two-option labels and the cycles of length 3
    # and 4; the reference links options whose crossed edges share a
    # vertex and walks the components.
    live = tri_insert.classify_options
    reached: Counter = Counter()
    wrong = []

    def check(catalog, f):
        got = live(catalog, f)
        want = ref.classify_options(catalog, f)
        reached[got.label] += 1
        reached.update(f"cycle {len(c)}" for c in got.cycles)
        if shape(got) != shape(want):
            wrong.append((catalog.instance.F, f, got, want))
        return got

    monkeypatch.setattr(tri_insert, "classify_options", check)
    insts = [*chord_subsets(6), *chord_subsets(8)]
    insts += [make_instance(bipyramid(c), windowed_bipyramid_f(c))
              for c in (20, 50, 101, 200)]
    insts += [make_instance(bipyramid(3), [(0, 1)]),
              make_instance(octahedron(), [(0, 5), (1, 3), (2, 4)]),
              make_instance(stacked_octahedron(), [(0, 5)])]
    for inst in insts:
        cat = enumerate_options(inst)
        for f, opts in enumerate(cat.f_options):
            if len(opts) >= 2:
                check(cat, f)
        solve(inst)
    assert wrong == []
    for label in ("isolated_option", "long_run", "compact", "scattered"):
        assert reached[label] >= 20, reached
    for kind in ("two_isolated", "two_consecutive", "cycle 3", "cycle 4"):
        assert reached[kind] >= 1, reached


class CountingArray(np.ndarray):
    """A view that counts the elements read through it: by indexing, and
    as an operand of an elementwise operation."""

    reads = 0

    def __getitem__(self, index):
        out = super().__getitem__(index)
        CountingArray.reads += np.size(out)
        return out.view(np.ndarray) if isinstance(out, np.ndarray) else out

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = []
        for x in inputs:
            if isinstance(x, CountingArray):
                CountingArray.reads += x.size
                x = x.view(np.ndarray)
            plain.append(x)
        if "out" in kwargs:
            kwargs["out"] = tuple(x.view(np.ndarray) for x in kwargs["out"])
        return getattr(ufunc, method)(*plain, **kwargs)


@pytest.mark.parametrize("make", [
    lambda: planted_instance(3000, 0),
    lambda: planted_instance(3000, 1),
    lambda: planted_instance(3000, 2),
    lambda: make_instance(bipyramid(1000), windowed_bipyramid_f(1000)),
], ids=["planted-0", "planted-1", "planted-2", "windowed-1000"])
def test_drain_reads_each_option_and_partner_a_bounded_number_of_times(make):
    # The work check behind the linear-time claim for the drain: over a
    # whole reduction, the arrays the rounds read are read at most a fixed
    # number of times per option and per clash pair.  A drain that
    # rescanned the catalog would read O(options) per case step, about
    # 500 times the bound on the windowed bipyramid.
    inst = make()
    cat = enumerate_options(inst)
    cl = compute_clashes(cat)
    reducer = _Reducer(cat, cl, None)
    for name in ("alive", "live", "by_f", "f_start", "clash_start",
                 "clash_to"):
        setattr(reducer, name, getattr(reducer, name).view(CountingArray))
    cat.f_edge = cat.f_edge.view(CountingArray)
    CountingArray.reads = 0
    trace: list = []
    reducer.trace = trace
    assert reducer.run() is None
    size = len(cat.options) + len(cl.to) // 2
    assert CountingArray.reads <= 12 * size, (CountingArray.reads, size)
    if inst.graph.vertex_count == 1002:
        # The windowed bipyramid takes about c / 2 case steps, each of
        # which deletes one option of (0, 1).
        assert sum(e[0] == "delete" for e in trace) >= 400


@pytest.mark.parametrize("c", [6, 8, 10])
def test_bipyramid_solver_oracle_and_verifier_agree(c):
    # Every F of the family: the compact case used to commit a core
    # assignment whose options clash with live options outside the core,
    # and so answer INFEASIBLE on solvable instances (c = 6, 8, 10).
    feasible = 0
    for inst in chord_subsets(c):
        mine = solve(inst)
        want = exact_solve_triangulation(inst)
        assert isinstance(mine, Solution) == isinstance(want, Solution), \
            inst.F
        if isinstance(mine, Solution):
            assert verify(inst, mine).accepted, inst.F
            feasible += 1
    assert 0 < feasible < 1 << c
