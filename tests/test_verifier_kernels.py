"""PlanarizedDrawing's bulk build, enumeration and in-place surgery against
the loop versions in verifier_reference.py: the same initial drawing, the
same realization lists, element for element, for random routes between
seeded inserts and undos, and after every insert and undo the same drawing
as a twin changed by the reference surgery, with adjacent_logicals equal
to the twin's incidence lists; also under ``python -O``.  A seeded
enumeration returns a permutation of the unseeded list.  The face memo is
also pinned by its work: face walks per route while the search replays a
planted certificate."""

from __future__ import annotations

import subprocess
import sys
from collections import Counter
from pathlib import Path

import verifier_reference as ref
from planeinsert._rng import Lcg64
from planeinsert.instance_io import make_instance
from planeinsert.plane_graph import complement_pairs
from planeinsert.reduction import Clause, MonotoneFormula, compile_formula
from planeinsert.tri_insert import solve
from planeinsert.verifier import PlanarizedDrawing

from fixtures import cube, octahedron, pinned_routes
from instance_gen import instance_stream, planted_instance

STATE = ("rot", "ends", "owner", "segments", "journal", "graph_edges", "k")
# What inserts and undos change; the journals' records differ by design.
SURGERY_STATE = ("rot", "ends", "owner", "segments")

FORMULA = MonotoneFormula(3, (Clause("pos", 2, (0, 1, 2)),
                              Clause("neg", 2, (2, 0))), (0, 1, 2))


def leaf_types(obj) -> set[type]:
    if isinstance(obj, (list, tuple)):
        return set().union(*map(leaf_types, obj))
    return {type(obj)}


def state_mismatches(got: PlanarizedDrawing, want: PlanarizedDrawing,
                     names=STATE, types: bool = True) -> list[str]:
    out = []
    for name in names:
        a, b = getattr(got, name), getattr(want, name)
        if a != b or types and leaf_types(a) != leaf_types(b):
            out.append(f"state {name}")
    return out


def incidence_mismatches(pd: PlanarizedDrawing,
                         twin: ref.ReferenceDrawing, u: int,
                         v: int) -> list[str]:
    """adjacent_logicals at (u, v) and at every original vertex alone,
    against the twin's incidence lists."""
    inc = twin.incident
    out = []
    if pd.adjacent_logicals(u, v) != {*inc[u], *inc[v]}:
        out.append(f"adjacent_logicals({u},{v})")
    for w in range(len(inc)):
        if pd.adjacent_logicals(w, w) != set(inc[w]):
            out.append(f"adjacent_logicals({w},{w})")
    return out


def calls(pd: PlanarizedDrawing, u: int, v: int, rng: Lcg64):
    """(pinned, max_crossings) for one route: unpinned, empty, the crossed
    edges of a realization in the drawing, and random logical edges."""
    k = pd.k
    out = [(None, rng.below(k + 1)), ([], 0)]
    reals = ref.enumerate_realizations(pd, u, v, None, k)
    if reals:
        r = reals[rng.below(len(reals))]
        out.append(([pd.owner[d >> 1] for d in r.crossings],
                    len(r.crossings)))
    logicals = list(range(len(pd.segments)))
    rng.shuffle(logicals)
    size = 1 + rng.below(k)
    out.append((logicals[:size], size))
    return out


def drive(inst, seed: int, steps: int,
          seeded: list | None = None) -> list[str]:
    """Random enumerations on one drawing between seeded inserts and undos,
    each applied to a reference twin too.  Returns one line per
    disagreement with the reference; seeded lists are added to `seeded` as
    (seeded, unseeded) pairs when it is given."""
    pd = PlanarizedDrawing(inst)
    twin = ref.drawing(inst)
    out = state_mismatches(pd, twin)
    rng = Lcg64(seed)
    tokens: list[tuple[int, int]] = []
    for step in range(steps):
        u, v = inst.F[rng.below(len(inst.F))]
        if rng.below(2):
            u, v = v, u
        for pinned, mc in calls(pd, u, v, rng):
            want = ref.enumerate_realizations(pd, u, v, pinned, mc)
            got = pd.enumerate_realizations(u, v, pinned, mc)
            if got != want:
                out.append(f"step {step} ({u},{v}) pinned {pinned}: "
                           f"{got} != {want}")
            if seeded is not None:
                seeded.append((pd.enumerate_realizations(
                    u, v, pinned, mc, rng=Lcg64(seed + step)), want))
        if tokens and rng.below(3) == 0:
            token, twin_token = tokens.pop()
            pd.undo(token)
            twin.undo(twin_token)
        else:
            reals = ref.enumerate_realizations(pd, u, v, None, pd.k)
            if reals:
                real = reals[rng.below(len(reals))]
                tokens.append((pd.insert(u, v, real),
                               twin.insert(u, v, real)))
        out += [f"step {step} ({u},{v}): {m}" for m in
                state_mismatches(pd, twin, SURGERY_STATE, types=False)
                + incidence_mismatches(pd, twin, u, v)]
    return out + state_mismatches(pd, twin, SURGERY_STATE)


def small_instances():
    for k in (1, 2, 3):
        for g in (cube(), octahedron()):
            yield make_instance(g, complement_pairs(g), k=k)


def mismatches(seeded: list | None = None) -> list[str]:
    out = []
    for i, inst in enumerate(instance_stream(300)):
        out += [f"stream {i}: {m}" for m in drive(inst, i, 6, seeded)]
    for s in (0, 1):
        inst = planted_instance(3000, s)
        out += [f"planted {s}: {m}" for m in drive(inst, s, 25, seeded)]
    for i, inst in enumerate(small_instances()):
        for s in range(8):
            out += [f"small {i} seed {s}: {m}"
                    for m in drive(inst, s, 30, seeded)]
    for variant in ("path", "matching"):
        inst, _ = compile_formula(FORMULA, k=1, variant=variant,
                                  validate=False)
        out += [f"{variant}: {m}" for m in drive(inst, 3, 40, seeded)]
    return out


def test_kernels_match_reference():
    seeded: list = []
    assert mismatches(seeded) == []
    assert all(Counter(got) == Counter(want) for got, want in seeded)
    # The drives must reach long lists, lists the seeded run reorders, and
    # two- and three-crossing routes.
    assert sum(len(want) >= 4 for _, want in seeded) >= 50
    assert sum(got != want for got, want in seeded) >= 20
    crossings = {len(r.crossings) for _, want in seeded for r in want}
    assert {2, 3} <= crossings


def test_kernels_match_reference_without_asserts():
    here = Path(__file__).resolve().parent
    code = ("import test_verifier_kernels as t\n"
            "print(__debug__)\n"
            "print('\\n'.join(t.mismatches()) or 'ok')\n")
    run = subprocess.run([sys.executable, "-O", "-c", code],
                         env={"PYTHONPATH": f"{here.parent / 'src'}:{here}"},
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split("\n", 1) == ["False", "ok\n"]


def test_pinned_route_walks_at_most_two_faces(monkeypatch):
    # A single-crossing route walks the two faces of its crossed edge to
    # find its start corner, and reuses them for the face it leaves and
    # the face it enters; a scan of every corner at a hub of degree d
    # walks d + 1.
    inst = planted_instance(3000, 1)
    sol = solve(inst)
    walks: list[int] = []
    per_call: list[tuple[int, int]] = []
    face_cycle = PlanarizedDrawing.face_cycle
    enumerate_realizations = PlanarizedDrawing.enumerate_realizations

    def counted_face_cycle(self, c):
        walks.append(c)
        return face_cycle(self, c)

    def counted_enumerate(self, u, v, pinned, *args, **kwargs):
        before = len(walks)
        res = enumerate_realizations(self, u, v, pinned, *args, **kwargs)
        per_call.append((len(pinned), len(walks) - before))
        return res

    monkeypatch.setattr(PlanarizedDrawing, "face_cycle", counted_face_cycle)
    monkeypatch.setattr(PlanarizedDrawing, "enumerate_realizations",
                        counted_enumerate)
    # verify accepts this certificate without a search, so drive the
    # search itself with the routes verify would pin.
    pinned = pinned_routes(inst, sol)
    assert next(PlanarizedDrawing(inst).search(inst.F, pinned, None,
                                               2_000_000), None) is not None
    assert len(per_call) == len(inst.F) >= 1100
    assert {crossings for crossings, _ in per_call} == {1}
    assert max(w for _, w in per_call) <= 2
