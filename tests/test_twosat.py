"""2-SAT solver tests: worked examples, brute-force agreement, scaling."""

from __future__ import annotations

import gc
import time
from itertools import product

import pytest

import numpy as np

from planeinsert._rng import Lcg64
from planeinsert.twosat import (
    TwoSatFormula,
    _implication_csr,
    _pearce_scc,
    solve,
)


def brute_force_sat(f: TwoSatFormula) -> bool:
    for bits in product([False, True], repeat=f.variable_count):
        if f.evaluate(list(bits)):
            return True
    return False


def random_formula(rng: Lcg64) -> TwoSatFormula:
    n = 1 + rng.below(12)
    m = rng.below(31)
    f = TwoSatFormula(n)
    for _ in range(m):
        v1, v2 = rng.below(n), rng.below(n)
        f.add_clause((v1, rng.below(2) == 0), (v2, rng.below(2) == 0))
    return f


def test_three_clause_example():
    f = TwoSatFormula(2)
    f.add_clause((0, True), (1, True))
    f.add_clause((0, False), (1, True))
    f.add_clause((0, True), (1, False))
    model = solve(f)
    assert model is not None
    assert f.evaluate(model)
    # Independent check: enumerate all four assignments.
    sat = [list(bits) for bits in product([False, True], repeat=2)
           if f.evaluate(list(bits))]
    assert model in sat
    assert [True, True] in sat


def test_packed_codes_constructor_matches_add_clause():
    rng = Lcg64(11)
    for _ in range(100):
        f = random_formula(rng)
        codes = np.frombuffer(f.packed_codes(), dtype=np.int64)
        g = TwoSatFormula(f.variable_count, codes)
        assert g.packed_codes() == f.packed_codes()
        assert list(g.clauses) == list(f.clauses)
        assert len(g.clauses) == len(codes) // 2
        assert repr(g) == repr(f)
        assert solve(g) == solve(f)
    # clauses decodes the one store: code 2v is v, code 2v + 1 is not v.
    f = TwoSatFormula(3, np.array([0, 5, 3, 4]))
    assert list(f.clauses) == [((0, True), (2, False)),
                               ((1, False), (2, True))]
    f.add_clause((1, True), (0, False))
    assert f.clauses[2] == ((1, True), (0, False))
    with pytest.raises(IndexError):
        f.clauses[3]
    with pytest.raises(ValueError, match="odd"):
        TwoSatFormula(2, np.array([0, 1, 2]))


def test_forced_contradiction():
    f = TwoSatFormula(1)
    f.add_clause((0, True), (0, True))
    f.add_clause((0, False), (0, False))
    assert solve(f) is None


def test_empty_formula():
    f = TwoSatFormula(3)
    model = solve(f)
    assert model is not None
    assert f.evaluate(model)


def test_canonical_model_is_deterministic():
    rng = Lcg64(5)
    for _ in range(50):
        f = random_formula(rng)
        assert solve(f) == solve(f)


def test_brute_force_agreement_small():
    rng = Lcg64(42)
    for _ in range(300):
        f = random_formula(rng)
        model = solve(f)
        if model is None:
            assert not brute_force_sat(f)
        else:
            assert f.evaluate(model)


def chain_formula(n: int) -> TwoSatFormula:
    f = TwoSatFormula(n)
    for i in range(n - 1):
        f.add_clause((i, False), (i + 1, True))  # x_i -> x_{i+1}
        f.add_clause((i, True), (i + 1, True))
    return f


def timed_solve(f: TwoSatFormula) -> float:
    gc.collect()
    gc.disable()
    try:
        # CPU time of this process: time spent waiting while other
        # processes hold the cores is not the solver's.
        t0 = time.process_time()
        model = solve(f)
        dt = time.process_time() - t0
        assert model is not None
    finally:
        gc.enable()
    return dt


class CountingList(list):
    """A list that counts the reads of each index."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = [0] * len(items)

    def __getitem__(self, i):
        self.reads[i] += 1
        return super().__getitem__(i)


@pytest.mark.parametrize("n", [1_000, 10_000, 100_000])
def test_scc_reads_every_arc_once(n):
    # The work check behind the wall-clock test below: Pearce's search
    # reads each arc of the implication graph exactly once.
    f = chain_formula(n)
    nodes = 2 * n
    start, targets = _implication_csr(
        nodes, np.frombuffer(f.packed_codes(), dtype=np.int64))
    counted = CountingList(targets)
    assert _pearce_scc(nodes, start, counted) == _pearce_scc(nodes, start,
                                                             targets)
    assert len(targets) == 4 * (n - 1)
    assert counted.reads == [1] * len(targets)


@pytest.mark.slow
def test_linear_scaling_on_chain():
    # Coarse scaling assertion: 10x the variables may take at most 10x the
    # time.  Paired interleaved runs; the best pair must meet the bound,
    # which is robust to allocator noise yet fails any superlinear solver
    # by two orders of magnitude.
    small = chain_formula(100_000)
    large = chain_formula(1_000_000)
    ratios = []
    for _ in range(5):
        t_small = timed_solve(small)
        t_large = timed_solve(large)
        ratios.append(t_large / t_small)
    assert min(ratios) <= 10.0, ratios
