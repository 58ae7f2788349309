"""The benchmark tracer's hold on the package: every name bench/tracing.py
wraps is still an attribute of its owner, and one small solve, certify and
compile inside a Tracer fill its counters.  A refactor that renames or
moves a wrapped function, or changes what a counter hook reads, fails
here rather than in ``python bench/run.py --trace 1``."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402
from planeinsert import reduction, tri_insert, verifier  # noqa: E402
from planeinsert.instance_io import Solution, make_instance  # noqa: E402
from planeinsert.reduction import Clause, MonotoneFormula  # noqa: E402

from fixtures import (bipyramid, bipyramid_chords,  # noqa: E402
                      shared_face_certificate)


def test_every_target_is_an_attribute_of_its_owner():
    for owner, attr, name, hook in tracing.TARGETS:
        assert attr in owner.__dict__, (owner, attr)
        assert callable(owner.__dict__[attr]), (owner, attr)
    assert set(tracing.SPAN_NAMES) == {t[2] for t in tracing.TARGETS}


def test_traced_solve_certify_and_compile_fill_the_counters():
    originals = [owner.__dict__[attr]
                 for owner, attr, _, _ in tracing.TARGETS]
    # The chords of bipyramid(8) alone are a 2-colouring of an 8-cycle:
    # every chord keeps two live options and 2-SAT decides them.
    inst = make_instance(bipyramid(8), bipyramid_chords(8))
    formula = MonotoneFormula(2, (Clause("pos", 2, (0, 1)),), (0, 1))
    with tracing.Tracer() as tracer:
        tracer.scope = 0
        sol = tri_insert.solve(inst)
        assert isinstance(sol, Solution)
        assert verifier.verify(inst, sol).accepted
        # The solver's routes keep to faces of their own, so verify accepts
        # them without a search; this certificate reaches the search.
        assert verifier.verify(*shared_face_certificate()).accepted
        reduction.compile_formula(formula, k=1)
    assert [owner.__dict__[attr]
            for owner, attr, _, _ in tracing.TARGETS] == originals
    counts = tracer.counts[0]
    assert counts["tri_insert.options"] == 2 * len(inst.F)
    # One variable per two-option edge: its literals are the two options.
    assert counts["twosat.variables"] == len(inst.F)
    assert counts["twosat.clauses"] > 0
    assert counts["verifier.nodes"] > 0
    assert counts["reduction.vertices"] > 0
    assert set(counts) <= set(tracing.COUNTER_NAMES)
    names = {s.name for s in tracer.spans}
    assert {"tri_insert.solve", "twosat.solve", "verifier.verify",
            "reduction.compile_formula"} <= names
