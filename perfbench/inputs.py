"""Input generators for the benchmark.

Everything here is built through flatgeom's public constructors, from a
module namespace returned by ``load_flatgeom`` (so set-up can import the
package afresh several times and time each import).  Every generator is a
pure function of its arguments: pools of seeded instances are indexed by
an integer, so the golden digests can cover the whole pool.
"""

from __future__ import annotations

import importlib
import random
import sys
from itertools import product
from types import SimpleNamespace

#: Submodules the benchmark drives directly.  ``cli`` is left out: the
#: cli-oneshot workload runs it in child processes.
MODULES = (
    "matroid",
    "flatness",
    "pingpong",
    "formula_closure",
    "effective",
    "spectrum",
    "corpus",
    "jsonio",
)


def load_flatgeom() -> SimpleNamespace:
    """Import flatgeom from scratch and return its submodules by name.

    Modules cached by an earlier call are dropped first, so the import is
    paid again; the interpreter's bytecode cache stays warm, as it would for
    a user's second process.
    """
    for name in [n for n in sys.modules if n == "flatgeom" or n.startswith("flatgeom.")]:
        del sys.modules[name]
    return modules()


def modules() -> SimpleNamespace:
    """The flatgeom package and its submodules, importing what is missing."""
    pkg = importlib.import_module("flatgeom")
    mods = {m: importlib.import_module(f"flatgeom.{m}") for m in MODULES}
    return SimpleNamespace(package=pkg, **mods)


# -- matroid families ---------------------------------------------------------


def pg_points(d: int, q: int) -> list[tuple[int, ...]]:
    """Points of PG(d-1, q): nonzero vectors of GF(q)^d whose first nonzero
    coordinate is 1, in lexicographic order."""
    return [
        v for v in product(range(q), repeat=d) if next((x for x in v if x), None) == 1
    ]


def pg(fg, d: int, q: int):
    """PG(d-1, q) as a linear matroid over the prime field GF(q)."""
    return fg.matroid.linear_matroid(q, pg_points(d, q))


def sparse_paving_nonbases(rng: random.Random, size: int, rank: int, count: int) -> list[tuple[int, ...]]:
    """Up to ``count`` random rank-sets of 0..size-1 that pairwise meet in
    at most rank-2 elements (the sparse-paving condition), drawn greedily."""
    chosen: list[frozenset[int]] = []
    for _ in range(1000):
        if len(chosen) == count:
            break
        cand = frozenset(rng.sample(range(size), rank))
        if all(len(cand & other) <= rank - 2 for other in chosen):
            chosen.append(cand)
    return [tuple(sorted(s)) for s in chosen]


def sparse_paving(fg, size: int, rank: int, count: int, index: int):
    """Member ``index`` of the seeded pool of sparse paving matroids of one
    shape (a closure-table matroid)."""
    rng = random.Random(f"sparse-paving/{size}/{rank}/{count}/{index}")
    return fg.matroid.sparse_paving_matroid(
        size, rank, sparse_paving_nonbases(rng, size, rank, count)
    )


def pps_chain(fg, n: int):
    return fg.corpus.pps_chain(n)


def three_planes(fg):
    return fg.corpus.three_planes()


def uniform(fg, rank: int, size: int):
    return fg.matroid.uniform_matroid(rank, size)


# -- staged and effective scenarios -----------------------------------------


def sigma1_chain(fg, length: int):
    return fg.corpus.sigma1_chain(length)


def ild_pps(fg, length: int):
    return fg.corpus.ild_pps(length)


def geometric_structure(fg, index: int):
    """Member ``index`` of the pool of random geometric structures."""
    return fg.corpus.random_geometric_structure(random.Random(f"structure/{index}"), 10)


def going_down_scenario(fg, index: int):
    """Member ``index`` of the pool of random construction scenarios; the
    universe cap cycles through 16..64."""
    cap = 16 + (index * 7) % 49
    return fg.corpus.random_going_down_scenario(random.Random(f"going-down/{index}"), cap)


def delay_script(index: int, universe: int) -> dict[int, list[int]]:
    """Member ``index`` of the pool of delay scripts: a few elements, each
    with one to three distinct flip stages."""
    rng = random.Random(f"delay/{index}/{universe}")
    elems = rng.sample(range(universe), rng.randint(2, 6))
    return {e: sorted(rng.sample(range(1, 13), rng.randint(1, 3))) for e in sorted(elems)}


def pps_config_pool(fg, m, size: int, salt: str) -> list:
    """``size`` distinct valid ping-pong configurations of ``m``, sampled
    with a fixed seed (nets from the flats of rank <= full rank - 3)."""
    pingpong = fg.pingpong
    rng = random.Random(f"pps-config/{salt}")
    ground = list(m.ground.elements)
    nets = [()]
    top = m.full_rank - 3
    if top > 0:
        nets += [f.elements for f in m.flats() if 0 < f.dim <= top]
    pool: list = []
    seen = set()
    for _ in range(20000):
        if len(pool) == size:
            break
        net = rng.choice(nets)
        a1, a2, t1 = rng.sample(ground, 3)
        cfg = pingpong.PPSConfig.of(net, a1, a2, t1)
        if cfg in seen:
            continue
        seen.add(cfg)
        try:
            cfg.validate(m)
        except fg.package.FlatgeomError:
            continue
        pool.append(cfg)
    return pool
