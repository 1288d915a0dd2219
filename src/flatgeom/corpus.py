"""Bundled matroids, structures and scenarios used by tests and the CLI.

Every structure and scenario member checks itself when it is built, so
``corpus check`` builds each one and runs the axiom check on each matroid.
The randomized generators at the bottom produce the structure and
construction scenarios the property suites run over; they embed the
ground truth the scenarios promise (growth contracts, witness
availability), which is what makes the suites assertable.
Each member or generator that builds a structure or a scenario imports
its module itself, so the matroid members need only ``matroid``.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import product
from typing import TYPE_CHECKING, Callable, Optional

from .matroid import (
    Matroid,
    closure_table_matroid,
    free_matroid,
    linear_matroid,
    sparse_paving_matroid,
    table_from_matroid,
    uniform_matroid,
)

if TYPE_CHECKING:
    from .effective import Delta2Schedule, Sigma1Schedule, StagewisePresentation
    from .formula_closure import EnumeratedStructure, GeometricStructure

# -- matroid members ----------------------------------------------------------


def gf2_3() -> Matroid:
    """The seven nonzero vectors of a 3-dimensional GF(2) space, in binary
    counting order (id k holds the bits of k+1)."""
    cols = [
        (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1),
    ]
    return linear_matroid(2, cols)


def gf3_3() -> Matroid:
    """The 13 points of the rank-3 GF(3) geometry, one normalized
    representative per parallel class (first nonzero coordinate 1)."""
    cols = []
    for a in range(3):
        for b in range(3):
            for c in range(3):
                v = (a, b, c)
                nz = next((x for x in v if x), None)
                if nz == 1:
                    cols.append(v)
    return linear_matroid(3, sorted(cols))


def gf3_2() -> Matroid:
    """All eight nonzero vectors of a 2-dimensional GF(3) space.  Rank 2,
    so it hosts no ping-pong configuration at all."""
    cols = sorted(
        (a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)
    )
    return linear_matroid(3, cols)


def u23_plus_2_free() -> Matroid:
    """A rank-2 three-point line with two free elements adjoined."""
    cols = [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    return linear_matroid(2, cols)


def three_planes() -> Matroid:
    """Rank-4 sparse paving matroid with three rank-3 flats that pairwise
    meet in dimension 2 and have empty triple intersection."""
    return sparse_paving_matroid(
        6, 4, [(0, 1, 2, 3), (0, 1, 4, 5), (2, 3, 4, 5)]
    )


def pps_chain(length: int = 6) -> Matroid:
    """Rank-3 sparse paving geometry of a truncated alternating chain:
    paddles 0 and 1, chain elements 2..length+1, with lines
    {paddle(i), t_i, t_{i+1}}.  Flat at every searched bound; every
    ping-pong run in it terminates."""
    lines = []
    for i in range(1, length):
        paddle = 0 if i % 2 == 1 else 1
        lines.append((paddle, i + 1, i + 2))
    return sparse_paving_matroid(length + 2, 3, lines)


MATROIDS: dict[str, Callable[[], Matroid]] = {
    "gf2_3": gf2_3,
    "gf3_3": gf3_3,
    "gf3_2": gf3_2,
    "uniform_2_3": lambda: uniform_matroid(2, 3),
    "uniform_2_4": lambda: uniform_matroid(2, 4),
    "uniform_3_4": lambda: uniform_matroid(3, 4),
    "uniform_3_5": lambda: uniform_matroid(3, 5),
    "uniform_3_6": lambda: uniform_matroid(3, 6),
    "free_3": lambda: free_matroid(3),
    "u23_plus_2_free": u23_plus_2_free,
    "ct_u23": lambda: closure_table_matroid(
        3, table_from_matroid(uniform_matroid(2, 3))
    ),
    "three_planes": three_planes,
    "pps_chain": pps_chain,
}


# -- geometric structures ------------------------------------------------------


def phi_demo() -> GeometricStructure:
    """Universe {0..3} on a rank-2 line, phi holding on two of the
    3-circuits."""
    from .formula_closure import GeometricStructure

    return GeometricStructure.of(
        uniform_matroid(2, 4), [(0, 1, 2), (1, 2, 3)], fiber_bound=2
    )


STRUCTURES: dict[str, Callable[[], GeometricStructure]] = {
    "phi_demo": phi_demo,
}


# -- enumerated scenarios --------------------------------------------------


def sigma1_chain(length: int = 6) -> EnumeratedStructure:
    """Closure enumeration scenario.

    Ids: 0, 1 span the target plane, 2 completes a circuit inside it,
    3 sits outside, 4.. are a chain hanging off (0, 3).  The closure of
    {0,1} plus any plane element is certified finite at stage 1; adding
    any outside element walks the chain into the growth frontier and is
    never certified.
    """
    from .formula_closure import EnumeratedStructure, GeometricStructure

    p = 101
    cols = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]
    cols += [(k % p, 0, 1) for k in range(1, length + 1)]
    m = linear_matroid(p, cols)
    tuples = [(0, 1, 2), (0, 3, 4)]
    for k in range(1, length):
        tuples.append((0, 3 + k, 4 + k))
    g = GeometricStructure.of(m, tuples, fiber_bound=2)
    reveal = [[(0, 1, 2), (0, 3, 4)]]
    for k in range(1, length):
        reveal.append([(0, 3 + k, 4 + k)])
    counts = {(2, (0, 3 + length)): 1}
    return EnumeratedStructure.of(g, reveal, counts, infinite_seeds=[(0, 3)])


def ild_pps(length: int = 8) -> EnumeratedStructure:
    """Alternating-paddle chain: growth fires only once both paddles and a
    chain element are present, so the least dimension with unbounded
    closure is 3 (= circuit size)."""
    from .formula_closure import EnumeratedStructure, GeometricStructure

    p = 101
    cols = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    tuples = []
    for i in range(1, length):
        paddle = 0 if i % 2 == 1 else 1
        nxt = [(a + b) % p for a, b in zip(cols[paddle], cols[-1])]
        tuples.append((paddle, i + 1, i + 2))
        cols.append(nxt)
    m = linear_matroid(p, [tuple(c) for c in cols])
    g = GeometricStructure.of(m, tuples, fiber_bound=2)
    reveal = [[t] for t in tuples]
    next_paddle = 0 if length % 2 == 1 else 1
    counts = {(2, (next_paddle, length + 1)): 1}
    return EnumeratedStructure.of(g, reveal, counts, infinite_seeds=[(0, 1, 2)])


def finite_complete() -> EnumeratedStructure:
    """``phi_demo`` with all of phi revealed at one stage."""
    from .formula_closure import EnumeratedStructure

    return EnumeratedStructure.complete(phi_demo())


SCENARIOS: dict[str, Callable[[], EnumeratedStructure]] = {
    "sigma1_chain": sigma1_chain,
    "ild_pps": ild_pps,
    "finite_complete": finite_complete,
}


# -- effective (going-down) scenarios ------------------------------------------


def going_down_demo() -> tuple[StagewisePresentation, Delta2Schedule, Sigma1Schedule, int]:
    """Twelve-element structure whose target is the eight-element plane
    spanned by ids 0 and 1; id 2 is wrongly approximated as a member until
    stage 5, forcing exactly one witness-remap event."""
    from .effective import (
        Delta2Schedule, FlipEvent, RelationalStructure, Sigma1Schedule, StagewisePresentation,
    )

    p = 101
    cols = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    cols += [(1, k, 0) for k in range(1, 7)]
    cols += [(1, 0, 1), (0, 1, 1), (1, 1, 1)]
    m = linear_matroid(p, cols)
    tuples = [(0, 1, 3)] + [(0, 3 + k, 4 + k) for k in range(0, 5)]
    structure = RelationalStructure.of(
        range(12), {"phi": (3, tuples)}
    )
    presentation = StagewisePresentation(structure, ("phi",), m)
    target = m.closure({0, 1})
    membership = Delta2Schedule(target, (FlipEvent(2, 5, False),))
    enumeration = Sigma1Schedule.of({0: 1, 1: 1, 4: 3, 5: 4})
    return presentation, membership, enumeration, 20


EFFECTIVE_SCENARIOS = {
    "going_down_demo": going_down_demo,
}


def members() -> dict[str, str]:
    """Name -> kind for everything in the corpus."""
    out = {name: "matroid" for name in MATROIDS}
    out.update({name: "structure" for name in STRUCTURES})
    out.update({name: "scenario" for name in SCENARIOS})
    out.update({name: "effective-scenario" for name in EFFECTIVE_SCENARIOS})
    return dict(sorted(out.items()))


# -- randomized generators -----------------------------------------------------


def random_geometric_structure(
    rng: random.Random, max_universe: int = 10, arity: int = 3
) -> GeometricStructure:
    """A random finite structure whose phi-tuples are honest circuits.

    Universes are kept small; the matroid is either uniform of rank
    arity-1 (every arity-set a circuit) or a random prime-field matroid
    re-sampled until it owns a circuit of the right size.
    """
    from .formula_closure import GeometricStructure

    n = rng.randint(arity + 1, max_universe)
    while True:
        if rng.random() < 0.5:
            m = uniform_matroid(arity - 1, n)
        else:
            q = rng.choice([2, 3, 5])
            dim = rng.randint(2, 3)
            cols = []
            for _ in range(n):
                while True:
                    v = tuple(rng.randrange(q) for _ in range(dim))
                    if any(v):
                        break
                cols.append(v)
            m = linear_matroid(q, cols)
        circuits = [c for c in m.circuits(arity) if c.size == arity]
        if circuits:
            break
    k = rng.randint(1, min(len(circuits), 5))
    chosen = rng.sample(circuits, k)
    tuples = []
    for c in chosen:
        perm = list(c.elements)
        rng.shuffle(perm)
        tuples.append(tuple(perm))
    # Distinct circuits: each tuple is one member of each of its fibers.
    fibers = Counter((j, t[:j] + t[j + 1 :]) for t in tuples for j in range(arity))
    return GeometricStructure.of(m, tuples, fiber_bound=max(fibers.values()) + 1)


def random_carousel_case(
    rng: random.Random, m: Matroid
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(abar, bs) with bs independent over abar, or None when the matroid
    has no room left over a sampled base."""
    elems = list(m.ground.elements)
    abar = tuple(sorted(rng.sample(elems, rng.randint(0, max(0, len(elems) // 3)))))
    base = frozenset(abar)
    bs: list[int] = []
    pool = [e for e in elems if e not in base]
    rng.shuffle(pool)
    want = rng.randint(1, 3)
    for e in pool:
        if len(bs) == want:
            break
        if e not in m.closure(base | frozenset(bs)):
            bs.append(e)
    if not bs or not m.independent_over(tuple(bs), base):
        return None
    return abar, tuple(bs)


def random_going_down_scenario(
    rng: random.Random, max_universe: int = 16
) -> tuple[StagewisePresentation, Delta2Schedule, Sigma1Schedule, int]:
    """A coherent construction scenario with its witness contract enforced.

    Relations are class-determined (truth depends only on the classes of
    the arguments), so any class-preserving injection is fact-preserving;
    each class keeps two high-id members of the target inside A as
    replacement reserve, and elements outside the target flip in only
    early.  Flip budget stays at 3 per element.
    """
    from .effective import (
        Delta2Schedule, FlipEvent, RelationalStructure, Sigma1Schedule, StagewisePresentation,
    )

    n = rng.randint(8, max_universe)
    n_classes = rng.randint(2, 3)
    # Round-robin keeps every class populated and puts the reserve
    # (largest ids) one per class at the tail.
    cls = [i % n_classes for i in range(n)]

    symbols = [f"r{i}" for i in range(rng.randint(1, 3))]
    relations = {}
    for sym in symbols:
        arity = rng.randint(1, 2)
        truth = {
            combo: rng.random() < 0.4
            for combo in product(range(n_classes), repeat=arity)
        }
        tuples = [
            t
            for t in product(range(n), repeat=arity)
            if truth[tuple(cls[x] for x in t)]
        ]
        relations[sym] = (arity, tuples)
    structure = RelationalStructure.of(range(n), relations)

    # Target: everything except a few low-reserve ids; per class keep at
    # least 3 in and at most 2 out, never the two largest ids of a class.
    out: set[int] = set()
    for c in range(n_classes):
        members_c = [i for i in range(n) if cls[i] == c]
        spare = members_c[:-2]  # reserve the two largest ids
        k = rng.randint(0, min(2, max(0, len(spare) - 3)))
        out.update(rng.sample(spare, k))
    target = frozenset(range(n)) - out

    flips: list[FlipEvent] = []
    flip_end = max(4, len(target) - n_classes)
    for e in sorted(out):
        if rng.random() < 0.7:  # flip-in episode, ends early
            s_in = rng.randint(1, max(1, flip_end - 2))
            s_out = rng.randint(s_in + 1, flip_end)
            flips.append(FlipEvent(e, s_in, True))
            flips.append(FlipEvent(e, s_out, False))
    for e in sorted(target):
        if rng.random() < 0.25:  # temporary ejection, returns by limit
            s_out = rng.randint(2, flip_end)
            s_back = rng.randint(s_out + 1, flip_end + 2)
            flips.append(FlipEvent(e, s_out, False))
            flips.append(FlipEvent(e, s_back, True))
    flips.sort(key=lambda ev: (ev.stage, ev.elem))
    membership = Delta2Schedule(target, tuple(flips))

    # A covers the whole target; reserves enter at stage 1, the rest
    # trickle in.
    reserve = {max(i for i in target if cls[i] == c) for c in range(n_classes) if any(cls[i] == c for i in target)}
    entries = {}
    for e in sorted(target):
        entries[e] = 1 if e in reserve else rng.randint(1, flip_end + 2)
    enumeration = Sigma1Schedule.of(entries)

    horizon = 3 * n + flip_end + 12
    return StagewisePresentation(structure, tuple(symbols), None), membership, enumeration, horizon

