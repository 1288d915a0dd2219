"""Shared fixtures and independent oracles.

The oracles here recompute expected values by brute force (coefficient
enumeration over prime fields, powerset scans) so the tests never trust
the code paths they are checking.
"""

from __future__ import annotations

from itertools import combinations, product

import pytest

from flatgeom import corpus


def brute_span(q: int, columns, subset) -> frozenset[int]:
    """Span membership over GF(q) by enumerating all coefficient tuples."""
    vecs = [columns[e] for e in sorted(subset)]
    dim = len(columns[0]) if columns else 0
    reachable = set()
    for coeffs in product(range(q), repeat=len(vecs)):
        acc = tuple(
            sum(c * v[i] for c, v in zip(coeffs, vecs)) % q for i in range(dim)
        )
        reachable.add(acc)
    return frozenset(
        e for e, col in enumerate(columns) if tuple(col) in reachable
    )


def brute_rank(q: int, columns, subset) -> int:
    """Rank by scanning all subsets for the largest coefficient-free one."""
    elems = sorted(subset)
    best = 0
    for r in range(len(elems), 0, -1):
        for combo in combinations(elems, r):
            if _brute_independent(q, columns, combo):
                return r
    return best


def _brute_independent(q, columns, combo) -> bool:
    vecs = [columns[e] for e in combo]
    dim = len(columns[0])
    for coeffs in product(range(q), repeat=len(vecs)):
        if all(c == 0 for c in coeffs):
            continue
        if all(
            sum(c * v[i] for c, v in zip(coeffs, vecs)) % q == 0
            for i in range(dim)
        ):
            return False
    return True


def powerset(iterable, min_size=0, max_size=None):
    items = list(iterable)
    if max_size is None:
        max_size = len(items)
    for size in range(min_size, max_size + 1):
        yield from combinations(items, size)


def brute_delta(m, sets) -> int:
    """delta by plain inclusion-exclusion: over every nonempty subset T of
    the distinct ``sets``, (-1)**(|T|+1) times the rank of their
    intersection."""
    sets = list({frozenset(s) for s in sets})
    return sum(
        (-1) ** (len(t) + 1) * m.rank(frozenset.intersection(*(sets[i] for i in t)))
        for t in powerset(range(len(sets)), min_size=1)
    )


GF2_COLS = [
    (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1),
]


@pytest.fixture(scope="session")
def gf2():
    return corpus.gf2_3()


@pytest.fixture(scope="session")
def gf3():
    return corpus.gf3_3()


@pytest.fixture(scope="session")
def small_corpus():
    """Matroids small enough for exhaustive property scans."""
    names = [
        "gf2_3", "uniform_2_3", "uniform_2_4", "uniform_3_4", "uniform_3_5",
        "free_3", "u23_plus_2_free", "ct_u23", "three_planes", "pps_chain",
        "gf3_2",
    ]
    return {name: corpus.MATROIDS[name]() for name in names}


@pytest.fixture(scope="session")
def scan_corpus(small_corpus, gf3):
    """``small_corpus`` plus gf3_3, whose 13 points need max_ground=13."""
    return {**small_corpus, "gf3_3": gf3}


def ref_flats(m) -> list[frozenset[int]]:
    """Every subset equal to its brute closure, {e : rank(S + e) = rank(S)},
    in (size, lex) order.  Reads the rank oracle only, never the flat
    enumerator."""
    ground = m.ground.elements
    return [
        frozenset(s)
        for s in powerset(ground)
        if all(m.rank(s + (e,)) > m.rank(s) for e in ground if e not in s)
    ]


def ref_pregeometry_ok(n: int, closure) -> bool:
    """Whether ``closure``, a map from every frozenset of 0..n-1 to a
    frozenset, satisfies the four pregeometry axioms, read off their
    definitions over all subsets S, T and all pairs a, b: S <= cl(S);
    S <= T implies cl(S) <= cl(T); cl(cl(S)) = cl(S); and a in
    cl(S + b) - cl(S) implies b in cl(S + a)."""
    subs = [frozenset(s) for s in powerset(range(n))]
    cl = closure
    if any(not s <= cl[s] or cl[cl[s]] != cl[s] for s in subs):
        return False
    if any(s <= t and not cl[s] <= cl[t] for s in subs for t in subs):
        return False
    return not any(
        a in cl[s | {b}] - cl[s] and b not in cl[s | {a}]
        for s in subs
        for a in range(n)
        for b in range(n)
    )


def ref_alpha_min(m, rank) -> int:
    """The least Mason alpha over every subset X of ``m``'s ground set, at
    most 10 elements, from the definition alone: alpha(X) = |X| - rank(X)
    minus the alpha of each cyclic flat strictly inside X, where a cyclic
    flat is one of ``ref_flats`` whose rank drops on removing no element.
    ``rank`` maps a frozenset to its rank (``brute_rank``,
    ``sparse_paving_rank``); no union walk, no flat enumerator."""
    assert len(m.ground) <= 10
    cyclic = [f for f in ref_flats(m) if all(rank(f - {e}) == rank(f) for e in f)]
    alpha: dict[frozenset[int], int] = {}
    for x in powerset(m.ground.elements):
        s = frozenset(x)
        alpha[s] = len(s) - rank(s) - sum(alpha[f] for f in cyclic if f < s)
    return min(alpha.values())


def seeded_nonbases(rng, size: int, rank: int, tries: int) -> list[frozenset[int]]:
    """Random rank-sets drawn ``tries`` times, each kept if it meets every
    kept one in at most rank-2 elements: the nonbases of a sparse paving
    matroid (at rank 1, at most one loop)."""
    chosen: list[frozenset[int]] = []
    for _ in range(tries):
        cand = frozenset(rng.sample(range(size), rank))
        if all(len(cand & other) <= rank - 2 for other in chosen):
            chosen.append(cand)
    return chosen


def sparse_paving_rank(rank: int, nonbases, subset) -> int:
    """The definition: min(|A|, rank), less one when A is a nonbasis."""
    s = frozenset(subset)
    return min(len(s), rank) - (s in nonbases)


def brute_sparse_paving_closure(size: int, rank: int, nonbases, subset) -> frozenset[int]:
    """{e : rank(A + e) = rank(A)} over the ids 0..size-1, from the rank
    definition alone."""
    nb = {frozenset(n) for n in nonbases}
    r = sparse_paving_rank(rank, nb, subset)
    return frozenset(
        e for e in range(size) if sparse_paving_rank(rank, nb, {*subset, e}) == r
    )


# -- formula-closure references ---------------------------------------------
#
# Per-tuple loops over phi, written without the fiber index: the closure
# engine in flatgeom.formula_closure is checked against these.


def ref_step(tuples, arity, cur) -> frozenset[int]:
    """Add every tuple coordinate whose other coordinates all lie in cur."""
    out = set(cur)
    for t in tuples:
        for j in range(arity):
            if all(t[l] in cur for l in range(arity) if l != j):
                out.add(t[j])
    return frozenset(out)


def ref_lambda_closure(tuples, arity, x, budget):
    """(chain, status, fixpoint_index) of at most ``budget`` steps of
    ``ref_step`` from x; status "diverging" when the budget runs out."""
    chain = [frozenset(x)]
    for i in range(budget):
        nxt = ref_step(tuples, arity, chain[-1])
        if nxt == chain[-1]:
            return tuple(chain), "fixpoint", i
        chain.append(nxt)
    return tuple(chain), "diverging", None


def ref_revealed_closure(enum, x, stage) -> frozenset[int]:
    tuples, arity = enum.stages[stage - 1], enum.structure.arity
    cur = frozenset(x)
    while True:
        nxt = ref_step(tuples, arity, cur)
        if nxt == cur:
            return cur
        cur = nxt


def _ref_fiber_counts(tuples, arity) -> dict:
    counts: dict = {}
    for t in tuples:
        for j in range(arity):
            key = (j, t[:j] + t[j + 1 :])
            counts[key] = counts.get(key, 0) + 1
    return counts


def ref_certified_lambda(enum, x, stage, budget):
    """(status, chain, blocking), probing every (m-1)-tuple over the
    current set in every position."""
    arity = enum.structure.arity
    revealed = enum.stages[stage - 1]
    rev = _ref_fiber_counts(revealed, arity)
    limit = _ref_fiber_counts(enum.structure.phi, arity)
    limit.update(enum.counts)
    chain = [frozenset(x)]
    for _ in range(budget):
        cur = chain[-1]
        blocking = {
            (j, rest)
            for rest in product(sorted(cur), repeat=arity - 1)
            for j in range(arity)
            if rev.get((j, rest), 0) != limit.get((j, rest), 0)
        }
        if blocking:
            return "pending", tuple(chain), tuple(sorted(blocking))
        nxt = ref_step(revealed, arity, cur)
        if nxt == cur:
            return "finite", tuple(chain), ()
        chain.append(nxt)
    return "budget", tuple(chain), ()


# -- copy-construction reference ---------------------------------------------


def ref_going_down(presentation, membership, enumeration, horizon) -> dict:
    """The copy construction run stage by stage from its definition, with
    none of the simulator's shortcuts: membership is read at every stage,
    each extension commits every tuple of the full product over the copy
    that holds no fact yet (the new symbol first, then the earlier ones in
    reveal order), and each outcome-2 candidate is checked against every
    committed fact.  Gives the run's observables, and under ``freezes``
    the dropped preimages of each freeze."""
    from flatgeom.effective import StageRecord

    relations = presentation.structure.relations
    universe = presentation.structure.universe

    def member(e, stage):
        if any(x == e and s <= stage for x, s in enumeration.entries):
            return True
        events = sorted((ev.stage, ev.value) for ev in membership.flips if ev.elem == e)
        if not events:
            return e in membership.target
        passed = [value for s, value in events if s <= stage]
        return passed[-1] if passed else not events[0][1]

    def remap(dropped, moved):
        """The images with each dropped preimage sent to its moved image,
        when they stay injective and keep every committed fact."""
        to = dict(zip(dropped, moved))
        candidate = [to.get(b, y) for b, y in enumerate(images)]
        injective = len(set(candidate)) == len(candidate)
        return injective and all(
            (tuple(candidate[b] for b in tup) in relations[sym].tuples) == value
            for (sym, tup), value in facts.items()
        )

    images, settled, symbols, facts, records, freezes = [], [], [], {}, [], []
    frozen, longest = None, 0
    for stage in range(1, horizon + 1):
        members = {e for e in universe if member(e, stage)}

        def record(event, **extra):
            records.append(StageRecord(stage, event, len(images), tuple(symbols), tuple(images), **extra))

        if frozen is None:
            if set(images) <= members:
                fresh = members - set(images)
                if not fresh:
                    record("wait")
                    continue
                images.append(min(fresh))
                settled.append(stage)
                revealed = list(presentation.signature_order[len(symbols) : len(symbols) + 1])
                for sym in revealed + symbols:
                    for tup in product(range(len(images)), repeat=relations[sym].arity):
                        if (sym, tup) not in facts:
                            facts[(sym, tup)] = tuple(images[b] for b in tup) in relations[sym].tuples
                symbols += revealed
                record("extend", copied=images[-1])
                continue
            dropped = sorted((b for b, y in enumerate(images) if y not in members), key=images.__getitem__)
            frozen = (stage, dropped, set(images) & members)
            freezes.append(dropped)
        since, dropped, held = frozen
        if set(images) & members == held:
            kept = {y for b, y in enumerate(images) if b not in dropped}
            entered = [e for e, s in enumeration.entries if s <= stage]
            hit = next(
                (
                    (a, repl)
                    for a in entered
                    if a not in kept
                    for repl in product(universe, repeat=len(dropped) - 1)
                    if remap(dropped, (a, *repl))
                ),
                None,
            )
            if hit is None:
                record("wait")
                continue
            a, repl = hit
            for b, y in zip(dropped, (a, *repl)):
                images[b] = y
                settled[b] = stage
            record("outcome2", witness=a, replacements=repl)
        else:
            record("outcome1")
        longest = max(longest, stage - since)
        frozen = None
    return {
        "records": tuple(records),
        "facts": list(facts.items()),
        "limit_map": tuple(images),
        "stabilization": tuple(settled),
        "longest_wait": longest,
        "status": "stuck" if frozen else "completed",
        "stuck_stage": frozen[0] if frozen else None,
        "freezes": freezes,
    }
