"""Benchmark of planeinsert: the solve, certify and compile workloads.

Run from the repository root:

    python3 bench/run.py --workload solve --seed 1 --seconds 20 --trace 0

Closed loop, one client, one thread.  Set-up builds the inputs of one round
(a list of operations) from the seed, several times with derived seeds;
the timed loop then runs whole passes, one round's operations per pass,
until --seconds have elapsed.  An operation is timed from the call until it
returns or raises; it fails when it raises or when its answer differs from
the answer known by construction (see families.py).

With --trace 0 the last line of output is a JSON object with the end-to-end
metrics: setup_s is the median set-up time of a round, op_p50_ms the median
operation time, op_max_ms the median time of the slowest kind of operation
and ok_ratio the share of operations that did not fail.  With --trace 1
the passes alternate untraced and traced, and the metrics are per-layer
ones from the traced passes (see tracing.py): span times and counts per
operation, generator time per set-up round, and the tracing overhead as
traced minus untraced median operation time.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
try:
    import families
    import tracing
    from planeinsert import (instance_io, plane_graph, reduction, tri_insert,
                             verifier)
    from planeinsert.verdicts import Verdict
except ImportError as exc:
    sys.exit(f"cannot import planeinsert from {SRC}: {exc}")

END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
    ("op_max_ms", "ms"), ("ok_ratio", "ratio"), ("peak_rss_mb", "MB"),
)

# Span metrics are "<span>.ms" (inclusive), "<span>.self_ms" (minus wrapped
# children) or "<span>.calls"; the others are counters or trace.* figures.
PER_LAYER = (
    "plane_graph.generate_stacked_triangulation.ms",
    "plane_graph.build_from_rotation.ms",
    "plane_graph.build_from_rotation.calls",
    "instance_io.parse_instance.self_ms",
    "instance_io.make_instance.self_ms",
    "instance_io.write_instance.ms",
    "instance_io.parse_solution.ms",
    "instance_io.write_solution.ms",
    "tri_insert.solve.self_ms",
    "tri_insert.enumerate_options.ms",
    "tri_insert.compute_clashes.ms",
    "tri_insert.reduce_instance.ms",
    "tri_insert.options",
    "tri_insert.clash_pairs",
    "tri_insert.committed",
    "twosat.solve.ms",
    "twosat.variables",
    "twosat.clauses",
    "verifier.verify.self_ms",
    "verifier.PlanarizedDrawing.__init__.ms",
    "verifier.PlanarizedDrawing.enumerate_realizations.self_ms",
    "verifier.PlanarizedDrawing.adjacent_logicals.ms",
    "verifier.PlanarizedDrawing.insert.ms",
    "verifier.PlanarizedDrawing.undo.ms",
    "verifier.nodes",
    "verifier.undos",
    "verifier.realizations",
    "verifier.useful_ratio",
    "reduction.compile_formula.self_ms",
    "reduction.GeometryBuilder.build_instance.self_ms",
    "reduction.vertices",
    "reduction.edges",
    "reduction.f_edges",
    "trace.op_p50_ms",
    "trace.untraced_op_p50_ms",
    "trace.overhead_ms",
    "trace.self_share_max",
)
SETUP_SPANS = ("plane_graph.generate_stacked_triangulation",)


def per_layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith(("ratio", "share_max")):
        return "ratio"
    return "count"


# --- workloads ------------------------------------------------------------

# Sizes keep every operation near or below a second, so that one run
# repeats each kind of operation often enough for a steady median.
# solve: stacked n = 10^4 (hub degree about 300) and a 100 x 100 grid plus
# cone (n = 10,001, about 1.4k 2-SAT variables).  certify: 150 routes on
# n = 1,200, and a certificate of 1,100 routes on n = 2,000, beyond the
# verifier's recursion depth.
SOLVE_N = 10_000
GRID_K = 100
CERT_SMALL_N, CERT_SMALL_ROUTES, CERT_SMALL_GRAPHS = 1_200, 150, 3
CERT_BIG_N, CERT_BIG_ROUTES = 2_000, 1_100


@dataclass
class Op:
    kind: str                         # same-sized inputs share a kind
    inputs: tuple[str, ...]           # what the operation reads, as JSON
    run: Callable[[], object]
    check: Callable[[object], str | None]   # why the answer is wrong


class Problem(Exception):
    """An input could not be built with its known answer."""


def solve_op(kind: str, graph, F, expect_feasible: bool) -> Op:
    """parse_instance -> solve -> write_solution when feasible."""
    text = instance_io.write_instance(instance_io.make_instance(graph, F))

    def run():
        res = tri_insert.solve(instance_io.parse_instance(text))
        if isinstance(res, Verdict):
            return res
        return instance_io.write_solution(res)

    def check(res):
        if not expect_feasible:
            return (None if res is Verdict.INFEASIBLE
                    else "expected INFEASIBLE, got a solution")
        if isinstance(res, Verdict):
            return f"expected a solution, got {res!r}"
        return families.clash_rule_violation(graph, F, res)

    return Op(kind, (text,), run, check)


def setup_solve(rng: random.Random) -> list[Op]:
    g = plane_graph.generate_stacked_triangulation(SOLVE_N,
                                                   rng.randrange(2**31))
    grid = families.grid_graph(GRID_K, rng)
    return [
        solve_op("clash-dense", g, families.clash_dense(g, rng), False),
        solve_op("planted", g, families.planted(g, rng), True),
        solve_op("grid-planted", grid,
                 families.planted(grid, rng, option_count=2), True),
    ]


def certify_op(kind: str, inst_text: str, sol_text: str,
               accepted: bool) -> Op:
    """parse_instance + parse_solution + verify."""
    def run():
        inst = instance_io.parse_instance(inst_text)
        sol = instance_io.parse_solution(sol_text)
        return verifier.verify(inst, sol).accepted

    def check(res):
        return None if res == accepted else f"expected accepted={accepted}"

    return Op(kind, (inst_text, sol_text), run, check)


def _certificate(n: int, routes: int, rng: random.Random):
    """A planted instance and the solver's certificate for it."""
    g = plane_graph.generate_stacked_triangulation(n, rng.randrange(2**31))
    F = families.planted(g, rng, cap=routes)
    inst = instance_io.make_instance(g, F)
    sol = tri_insert.solve(inst)
    if isinstance(sol, Verdict):
        raise Problem(f"solver answered {sol!r} on a planted instance")
    sol_text = instance_io.write_solution(sol)
    why = families.clash_rule_violation(g, F, sol_text)
    if why is not None:
        raise Problem(f"solver certificate breaks the clash rule: {why}")
    return g, F, instance_io.write_instance(inst), sol_text


def setup_certify(rng: random.Random) -> list[Op]:
    _, _, inst_text, sol_text = _certificate(CERT_BIG_N, CERT_BIG_ROUTES, rng)
    ops = [certify_op("big", inst_text, sol_text, True)]
    for _ in range(CERT_SMALL_GRAPHS):
        g, F, inst_text, sol_text = _certificate(
            CERT_SMALL_N, CERT_SMALL_ROUTES, rng)
        bad_text = families.corrupt(g, F, sol_text, rng)
        ops.append(certify_op("valid", inst_text, sol_text, True))
        ops.append(certify_op("corrupt", inst_text, bad_text, False))
    return ops


def compile_op(kind: str, formula, counts: tuple[int, int, int]) -> Op:
    """compile_formula(k=1, validate=True) -> write_instance."""
    def run():
        inst, atlas = reduction.compile_formula(formula, k=1, validate=True)
        return instance_io.write_instance(inst), atlas

    def check(res):
        text, atlas = res
        obj = json.loads(text)
        g = plane_graph.build_from_rotation(obj["n"], obj["rotation"])
        got = (g.vertex_count, g.edge_count, len(obj["F"]))
        if got != counts:
            return f"V/E/|F| = {got}, the shape has {counts}"
        if g.vertex_count != len(atlas.vertex_tags):
            return "vertex count differs from the atlas"
        if [tuple(p) for p in obj["F"]] != list(atlas.f_order):
            return "F differs from the atlas"
        return None

    return Op(kind, (reduction.write_formula(formula),), run, check)


def setup_compile(rng: random.Random) -> list[Op]:
    return [compile_op(shape, families.formula(shape, rng), counts)
            for shape, (_, counts) in families.FORMULA_SHAPES.items()]


# name -> (set-up of one round, rounds)
WORKLOADS = {
    "solve": (setup_solve, 3),
    "certify": (setup_certify, 3),
    "compile": (setup_compile, 30),
}


# --- measurement ----------------------------------------------------------


@dataclass
class Sample:
    kind: str
    ms: float
    error: str | None     # exception type, or why the answer was wrong
    traced: bool
    scope: int


def run_loop(rounds: list[list[Op]], seconds: float, tracer, wrong: list):
    """Whole passes until `seconds` have elapsed; with a tracer, passes
    alternate untraced and traced and at least one of each runs."""
    samples: list[Sample] = []
    clock = time.perf_counter
    start = clock()
    p = 0
    while True:
        traced = tracer is not None and p % 2 == 1
        r = p % len(rounds)
        with tracer if traced else nullcontext():
            for op in rounds[r]:
                scope = len(samples)
                # Start each operation with the same collector state, so
                # that collections inside it depend on its own allocations.
                gc.collect()
                if traced:
                    tracer.scope = scope
                t0 = clock()
                try:
                    res, error = op.run(), None
                except Exception as exc:  # RecursionError included
                    res, error = None, type(exc).__name__
                t1 = clock()
                if traced:
                    tracer.scope = tracing.CHECK
                if error is None:
                    error = op.check(res)
                    if error is not None:
                        wrong.append(f"round {r} {op.kind}: {error}")
                samples.append(Sample(op.kind, (t1 - t0) * 1e3, error,
                                      traced, scope))
                res = None
        p += 1
        if clock() - start >= seconds and (tracer is None or p >= 2):
            return samples, clock() - start


def by_kind(samples) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for s in samples:
        out.setdefault(s.kind, []).append(s.ms)
    return out


def end_to_end(setup_times, samples, elapsed) -> dict[str, float]:
    failed = sum(s.error is not None for s in samples)
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(samples) / elapsed,
        "op_p50_ms": statistics.median(s.ms for s in samples),
        "op_max_ms": max(statistics.median(v)
                         for v in by_kind(samples).values()),
        "ok_ratio": (len(samples) - failed) / len(samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }


def per_layer(tracer, samples, rounds: int) -> tuple[dict[str, float], list]:
    traced = [s for s in samples if s.traced]
    untraced = [s for s in samples if not s.traced]
    ops = len(traced)
    incl = {n: 0.0 for n in tracing.SPAN_NAMES}
    self_ = dict(incl)
    calls = dict.fromkeys(tracing.SPAN_NAMES, 0)
    setup_incl = dict(incl)
    self_by_scope: dict[int, float] = {}
    for sp in tracer.spans:
        dur = sp.end - sp.start
        if sp.scope == tracing.SETUP:
            setup_incl[sp.name] += dur
        if sp.scope < 0:
            continue
        incl[sp.name] += dur
        self_[sp.name] += sp.self_s
        calls[sp.name] += 1
        self_by_scope[sp.scope] = self_by_scope.get(sp.scope, 0.0) + sp.self_s
    counts = Counter()
    for scope, c in tracer.counts.items():
        if scope >= 0:
            counts.update(c)
    share = max((self_by_scope.get(s.scope, 0.0) * 1e3 / s.ms
                 for s in traced), default=0.0)
    problems = [] if share <= 1.0 + 1e-9 else [
        f"wrapped self times exceed an operation's time ({share:.3f})"]
    traced_p50 = statistics.median(s.ms for s in traced)
    untraced_p50 = statistics.median(s.ms for s in untraced)
    nodes = counts["verifier.nodes"]
    out = dict.fromkeys(PER_LAYER, 0.0)
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if span in SETUP_SPANS:
            out[name] = setup_incl[span] * 1e3 / rounds
        elif field == "ms":
            out[name] = incl[span] * 1e3 / ops
        elif field == "self_ms":
            out[name] = self_[span] * 1e3 / ops
        elif field == "calls":
            out[name] = calls[span] / ops
        elif name in tracing.COUNTER_NAMES:
            out[name] = counts[name] / ops
    out["verifier.useful_ratio"] = (
        (nodes - counts["verifier.undos"]) / nodes if nodes else 0.0)
    out["trace.op_p50_ms"] = traced_p50
    out["trace.untraced_op_p50_ms"] = untraced_p50
    out["trace.overhead_ms"] = traced_p50 - untraced_p50
    out["trace.self_share_max"] = share
    return out, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    setup, n_rounds = WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    seeds = random.Random(args.seed)
    rounds: list[list[Op]] = []
    setup_times: list[float] = []
    problems: list[str] = []
    for r in range(n_rounds):
        rng = random.Random(seeds.randrange(2**63))
        t0 = time.perf_counter()
        try:
            with tracer if tracer is not None else nullcontext():
                ops = setup(rng)
        except Problem as exc:
            problems.append(f"round {r}: {exc}")
            continue
        setup_times.append(time.perf_counter() - t0)
        rounds.append(ops)
    if not rounds:
        print("\n".join(problems), file=sys.stderr)
        return 1
    # The inputs live for the whole run; keep them out of the collector's
    # scans so that they do not tax the operations.
    gc.collect()
    gc.freeze()

    samples, elapsed = run_loop(rounds, args.seconds, tracer, problems)
    if tracer is not None:
        metrics, trace_problems = per_layer(tracer, samples, len(rounds))
        problems += trace_problems
        units = {name: per_layer_unit(name) for name in PER_LAYER}
    else:
        metrics = end_to_end(setup_times, samples, elapsed)
        units = dict(END_TO_END)

    failed = sum(s.error is not None for s in samples)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"set-up rounds {len(rounds)}  loop {elapsed:.2f} s")
    for kind, ms in by_kind(samples).items():
        errors = Counter(s.error for s in samples
                         if s.kind == kind and s.error is not None)
        print(f"  {kind:<16} n={len(ms):<4} median "
              f"{statistics.median(ms):10.1f} ms  failed "
              f"{sum(errors.values())} {dict(errors) or ''}")
    rows = dict(metrics)
    rows.update(samples=len(samples), failed=failed,
                fail_ratio=failed / len(samples))
    for name, value in rows.items():
        print(f"  {name:<58} {value:14.4f} {units.get(name, '')}")
    for p in problems:
        print(f"  PROBLEM {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    if SRC not in Path(instance_io.__file__).resolve().parents:
        sys.exit(f"planeinsert was imported from outside {SRC}")
    sys.exit(main())
