"""Inclusion-exclusion over collections of flats and flatness verdicts.

``delta`` computes the alternating sum of dimensions of all intersections
of a collection of flats.  ``check_flat`` searches collections for a
violation of delta >= dim(union); because the search is bounded, a clean
result is reported as "flat up to the bound" unless every collection of
every flat was enumerated, in which case it is "flat (exhaustive)".  A
search that had to sample collections reports "flat-sampled".

Delta is read from the signed meet terms of S: the pairs (X, c) where c
is the sum of (-1)**(|T|+1) over the nonempty T in S whose meet is X, so
that delta(S) = sum of c * r(X).  The terms of S + {F} are those of S,
(F, +1) and (F & X, -c) for each term (X, c) of S; terms whose c sums to
0 are dropped.  So ``delta`` ranks each distinct meet once, where the
definition sums 2**k - 1 intersections.  The dimension of a union is its
rank, dim cl(U) = r(U).

The search works on the flat lattice, not on element sets.  The flats are
indexed once, in canonical order, with a meet table (the intersection of
two flats is a flat).  Collections are visited depth first, in
``combinations`` order with sizes ascending, and each carries down its
delta and its gain vector, which holds gains[H] = delta(S + {H}) -
delta(S) for every flat H.  By the signed meet terms,

    gains[H] = dim H - sum of c * dim(H & X) over the terms (X, c) of S,

so adding F costs one pass over the meet row of F:

    delta(S + {F}) = delta(S) + gains[F],
    gains'[H] = gains[H] - gains[F & H].

The empty collection has delta 0 and gains[H] = dim H.  The update is exact
for repeats too: adding F again adds gains'[F] = 0.

A collection's last flat H reads one entry of gains', so the penultimate
flat F prices every H from the gain vector of S alone,

    delta(S + {F, H}) = delta(S) + gains[F] + gains[H] - gains[F & H],

and gain vectors are built only for collections that have two or more
flats still to add.  A union is ranked only for a collection whose delta
is below the rank of the ground set, as no union can have more.

Delta depends only on the set of distinct flats and is unchanged by
dropping a flat contained in another: the terms holding A cancel in pairs
against the same terms with B added when A is a subset of B.  So a
collection with two comparable flats is a violation only if a smaller
collection with the same union already is one, the least (size, lex)
violation is always an antichain, and the search skips every collection
that is not one.  The first violation it meets is therefore the least one
over all collections.

Whatever the work cap, the search is skipped when Mason's alpha is >= 0
on every set (``_alpha_nonnegative``): the matroid is then a strict
gammoid (Mason, Proc. London Math. Soc. 1972), and a pregeometry is flat
iff it is one (Evans, arXiv:1105.3822), so no collection violates (no
pair ever does, by submodularity).  ``check_flat`` verifies that a
closure table is a pregeometry before anything else.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial, reduce
from math import comb
from operator import or_
from typing import Iterable, Optional, Sequence

from .errors import EmptyCollection, GroundTooLarge, MatroidContractError, check_int
from .matroid import (
    DEFAULT_VERIFY_BOUND, ClosureTableOracle, Flat, Matroid, Memo, _low_bits, canon, check_sampling,
    elements_of, mask_of, size_lex, subset_universe,
)

#: Default cap on |Sigma| in the violation search.  It bounds the search
#: and guarantees nothing past it: some hosts are flat up to four flats
#: yet have a violation of five.
DEFAULT_MAX_SIGMA = 4

#: Most sets, positive cyclic flats and their unions, that the walk of
#: ``_alpha_nonnegative`` visits before it leaves the verdict to the
#: collection search.  pps_chain(16), the longest chain the work cap lets
#: through at sigma 3, needs 6 121; the walk costs a few microseconds a set.
_ALPHA_WALK_BOUND = 10_000

#: Rough work budget for the collection search (number of subset terms);
#: beyond it the caller must sample.  The estimate prices scoring every
#: collection from scratch, far more than the least-witness search does;
#: the cap stays as it is until the search meters its own work (ROADMAP
#: item B).
DEFAULT_WORK_CAP = 5_000_000


def _as_flat_sets(m: Matroid, sigma: Iterable) -> list[frozenset[int]]:
    """Normalise a collection to distinct frozensets, canonically sorted."""
    sets = set()
    for member in sigma:
        if isinstance(member, Flat):
            sets.add(member.as_set())
        else:
            sets.add(frozenset(member))
    return sorted(sets, key=size_lex)


@dataclass(frozen=True)
class FlatCollection:
    """A set of distinct flats of one matroid, stored canonically."""

    flats: tuple[Flat, ...]

    @classmethod
    def of(cls, m: Matroid, sets: Iterable[Iterable[int]]) -> "FlatCollection":
        members = []
        for s in _as_flat_sets(m, sets):
            cl = m.closure(s)
            if cl != s:
                raise MatroidContractError(
                    f"{sorted(s)} is not closed (closure adds {sorted(cl - s)})"
                )
            members.append(Flat(canon(s), m.rank(s)))
        return cls(tuple(members))

    def __len__(self) -> int:
        return len(self.flats)

    def sets(self) -> list[frozenset[int]]:
        return [f.as_set() for f in self.flats]


@dataclass(frozen=True)
class FlatnessVerdict:
    """Outcome of the bounded flatness search.

    kind is one of "disintegrated", "not-flat", "flat-up-to",
    "flat-exhaustive", "flat-sampled".  For "not-flat" the witness
    collection and its delta / union dimension are included; for the flat
    verdicts ``bound`` records how large the searched collections were.
    "flat-sampled" means only ``samples`` random collections, drawn with
    ``seed``, were checked: it is no claim about the collections left out.
    """

    kind: str
    bound: Optional[int] = None
    witness: Optional[FlatCollection] = None
    delta: Optional[int] = None
    union_dim: Optional[int] = None
    samples: Optional[int] = None
    seed: Optional[int] = None


def delta(m: Matroid, sigma: Iterable) -> int:
    """Alternating inclusion-exclusion sum of dimensions over ``sigma``.

    Duplicates are removed first (a collection is a set of flats), and the
    sets are added in canonical order to the signed meet terms of the
    module docstring; the result is permutation invariant.  The first set
    that holds an id off the ground raises InvalidElement.
    """
    sets = _as_flat_sets(m, sigma)
    if not sets:
        raise EmptyCollection("delta needs at least one flat")
    terms: dict[int, int] = {}
    for f in map(m._check, sets):
        step = dict(terms)
        step[f] = step.get(f, 0) + 1
        for x, c in terms.items():
            step[f & x] = step.get(f & x, 0) - c
        terms = {x: c for x, c in step.items() if c}
    return sum(c * m._rank_mask(x) for x, c in terms.items())


def _union_rank(m: Matroid, masks: Iterable[int]) -> int:
    """dim cl(U) = r(U) for U the union of ``masks``."""
    return m._rank_mask(reduce(or_, masks))


def _meet_row(sets: list[int], index: dict[int, int], i: int) -> list[int]:
    a = sets[i]
    try:
        return [index[a & b] for b in sets]
    except KeyError:
        raise MatroidContractError("an intersection of two flats is not closed") from None


class _MeetTable:
    """The flats of one matroid, indexed in the given order.

    ``sets[i]`` is the mask of flat i, ``dims[i]`` its dimension and
    ``meet[i][j]`` the index of ``sets[i] & sets[j]``, each row built when
    first read.  The matroid must be a pregeometry, so that meets of flats
    are flats again; MatroidContractError is raised where one read is not.
    """

    def __init__(self, m: Matroid, flats: Sequence[Flat]):
        self.m = m
        self.sets = [mask_of(f.elements) for f in flats]
        self.dims = [f.dim for f in flats]
        self.index = {s: i for i, s in enumerate(self.sets)}
        # Not a bound method, which would make the table cyclic garbage.
        self.meet = Memo(partial(_meet_row, self.sets, self.index))

    def after(self, gains: list[int], f: int) -> list[int]:
        """The gain vector of S + F, from the gain vector ``gains`` of S
        (see the module docstring)."""
        return [g - gains[x] for g, x in zip(gains, self.meet[f])]

    def least_violation(self, top: int) -> Optional[tuple[tuple[int, ...], int, int]]:
        """The least (size, lex) collection of at most ``top`` flats with
        delta < dim(union), as (indices, delta, union_dim), or None.

        Collections are antichains in (size, lex) order.  The penultimate
        flat prices each last flat from its parent's gain vector (see the
        module docstring), and the union is ranked only when delta is
        below the rank of the ground set."""
        n, dims, meet, after = len(self.sets), self.dims, self.meet, self.after
        # No union has a larger dimension than the whole ground set.
        full = max(dims)

        def extend(prefix, d, gains, cands, size):
            # cands: the flats after prefix[-1] comparable with no member
            # of prefix, ascending; gains: the gain vector of prefix.
            depth = len(prefix) + 1
            for pos in range(len(cands) - size + depth):
                f = cands[pos]
                df, row = d + gains[f], meet[f]
                if depth < size - 1:
                    sub = [h for h in cands[pos + 1:] if row[h] != h and row[h] != f]
                    hit = extend(prefix + (f,), df, after(gains, f), sub, size)
                    if hit:
                        return hit
                    continue
                # f is the penultimate flat: each last flat h is priced from
                # gains, filtered as sub is; building sub here costs PG(3,2)
                # a fifth more time.
                for h in cands[pos + 1:]:
                    x = row[h]
                    if x != h and x != f:
                        dh = df + gains[h] - gains[x]
                        if dh < full:
                            picked = prefix + (f, h)
                            u = _union_rank(self.m, map(self.sets.__getitem__, picked))
                            if dh < u:
                                return picked, dh, u
            return None

        # delta(F) = dim F, and no pair violates a pregeometry: sizes start at three.
        try:
            for size in range(3, top + 1):
                hit = extend((), 0, dims, range(n), size)
                if hit:
                    return hit
            return None
        finally:
            del extend  # it refers to itself: free it without the cyclic collector


def _alpha_nonnegative(m: Matroid, flats: Iterable[Flat]) -> Optional[bool]:
    """Whether Mason's alpha is >= 0 on every subset of the ground set, or
    None when the walk would visit more than _ALPHA_WALK_BOUND sets.

    alpha(X) = |X| - r(X) - sum of alpha(F) over the cyclic flats F < X
    (Mason, Proc. London Math. Soc. 1972); alpha >= 0 everywhere iff the
    matroid is a strict gammoid, which for a pregeometry is flatness in
    Hrushovski's sense (Evans, arXiv:1105.3822).  A flat F is cyclic iff
    no F - e is a flat.  Only the cyclic flats with alpha > 0 enter a sum,
    and the least alpha lies on a cyclic flat or on a union of these: for
    any X, let U be the union of the positive cyclic flats inside X; then
    alpha(X) >= alpha(U) unless U is itself a positive cyclic flat, where
    alpha(X) = nullity(X) - nullity(U) >= 0.  So alpha is computed on the
    cyclic flats in size order, then on the unions of positive ones,
    stopping at the first negative value.
    """
    dims = {mask_of(f.elements): f.dim for f in flats}
    positive: dict[int, int] = {}
    for f in sorted(dims, key=int.bit_count):
        if any(f ^ b in dims for b in _low_bits(f)):
            continue
        a = f.bit_count() - dims[f] - sum(v for g, v in positive.items() if not g & ~f)
        if a < 0:
            return False
        if a:
            positive[f] = a
    rank, unions = m._rank_mask, list(positive)
    seen = set(unions)
    for u in unions:
        for g in positive:
            x = u | g
            if x in seen:
                continue
            if len(seen) >= _ALPHA_WALK_BOUND:
                return None
            seen.add(x)
            if x.bit_count() - rank(x) < sum(v for h, v in positive.items() if not h & ~x):
                return False
            unions.append(x)
    return True


def is_disintegrated(
    m: Matroid,
    max_ground: int = DEFAULT_VERIFY_BOUND,
    sample: Optional[int] = None,
    seed: int = 0,
) -> bool:
    """True iff the closure of every set is the union of singleton closures.

    Decided by the rank rule (Oxley, Matroid Theory, 2011): iff no circuit
    has three or more elements, iff the first point of each parallel class
    of non-loops, in id order, is independent.  A point in cl(S), S the
    points before it, makes S break the definition: False at any size.
    Independent points are confirmed by the definition over every subset up
    to ``max_ground`` elements, else ``sample`` random ones drawn with
    ``seed`` (or GroundTooLarge); a disagreement is a MatroidContractError.

    The exhaustive walk takes the masks S in increasing order and checks
    one step at each, cl(S) = cl(S - b) | cl({b}) for b the least element
    of S.  S - b came before S and met the definition there, cl(S - b) =
    cl(empty) + the closures of the points of S - b, so by induction the
    step is the definition at every subset, with no union rebuilt.
    """
    check_sampling(max_ground, sample)
    cl = m._closure_mask
    empty = joined = cl(0)
    met, singles, points = {empty}, {}, 0
    for b in m._bit.values():
        c = singles[b] = cl(b)
        if c in met:
            continue
        if b & cl(points):
            if cl(points) == joined:
                raise _disagree(points)
            return False
        met.add(c)
        points, joined = points | b, joined | c
    universe, sampled = subset_universe(m.ground.elements, max_ground, sample, seed)
    if sampled:
        for s in universe:
            if cl(s) != reduce(int.__or__, map(singles.get, _low_bits(s)), empty):
                raise _disagree(s)
        return True
    whole, s = m._ground_mask, 0
    while s != whole:
        s = (s - whole) & whole
        low = s & -s
        if cl(s) != cl(s ^ low) | singles[low]:
            raise _disagree(s)
    return True


def _disagree(s: int) -> MatroidContractError:
    return MatroidContractError(f"rank rule and definition disagree at {elements_of(s)}")


def check_flat(
    m: Matroid,
    max_collection_size: int = DEFAULT_MAX_SIGMA,
    exhaustive: bool = False,
    max_ground: int = DEFAULT_VERIFY_BOUND,
    sample: Optional[int] = None,
    seed: int = 0,
) -> FlatnessVerdict:
    """Search flat collections for a violation of delta >= dim(union).

    Returns "disintegrated" when ``is_disintegrated`` says so, given
    ``max_ground``, ``sample`` and ``seed``, otherwise the least violating
    collection (sizes ascending, flats in canonical order) or a flat
    verdict.  ``exhaustive`` widens the search to every collection of every flat.

    A closure table that is no pregeometry raises MatroidContractError
    naming its least violation, as ``verify_pregeometry`` finds it.  Below
    three flats, or where Mason's alpha is >= 0, the flat verdict needs no
    search.  Otherwise the least-witness search runs; where alpha < 0, a
    search of every collection that finds nothing raises
    MatroidContractError, since the two criteria must agree.  If its
    estimated work exceeds DEFAULT_WORK_CAP, ``sample`` random collections
    drawn with ``seed`` are checked instead, and a clean result is
    "flat-sampled"; without a ``sample`` count GroundTooLarge is raised.
    The estimate is the number of subset terms in scoring every collection
    from scratch, the sum over sizes s of C(n, s) * 2**s for n flats.
    """
    check_int("max_collection_size", max_collection_size, least=1, error=EmptyCollection)
    if isinstance(m.oracle, ClosureTableOracle):
        v = m.verify_pregeometry(max_ground=len(m.ground)).violation
        if v:
            at = f"{v.kind} at {list(v.subset)}, a={v.a}, b={v.b}"
            raise MatroidContractError(f"closure table is no pregeometry: {at}")
    if is_disintegrated(m, max_ground=max_ground, sample=sample, seed=seed):
        return FlatnessVerdict("disintegrated")

    flats = sorted(m.flats(), key=lambda f: f.elements)
    nflats = len(flats)
    top = nflats if exhaustive else min(max_collection_size, nflats)
    kind = "flat-exhaustive" if exhaustive else "flat-up-to"
    # No pair violates a pregeometry, and alpha >= 0 rules out the rest.
    alpha_ok = top < 3 or _alpha_nonnegative(m, flats)
    if alpha_ok:
        return FlatnessVerdict(kind, bound=top)

    work = sum(comb(nflats, s) * (1 << s) for s in range(1, top + 1))
    sampled = work > DEFAULT_WORK_CAP
    if sampled and sample is None:
        raise GroundTooLarge(
            f"{nflats} flats -> ~{work} subset terms exceeds work cap; "
            "pass sample= / --sample or lower the bound"
        )
    hit = None
    if sampled:
        rng = random.Random(seed)
        for _ in range(sample):
            size = rng.randint(1, top)
            picked = rng.sample(range(nflats), size)
            d = delta(m, [flats[i] for i in picked])
            u = _union_rank(m, (mask_of(flats[i].elements) for i in picked))
            if d < u:
                hit = picked, d, u
                break
    else:
        hit = _MeetTable(m, flats).least_violation(top)
        if not hit and alpha_ok is False and top == nflats:
            raise MatroidContractError(
                "no collection of flats violates flatness, yet Mason's alpha is negative"
            )
    if hit:
        picked, d, u = hit
        return FlatnessVerdict(
            "not-flat",
            bound=top,
            witness=FlatCollection.of(m, [flats[i].elements for i in picked]),
            delta=d,
            union_dim=u,
        )
    if sampled:
        return FlatnessVerdict("flat-sampled", bound=top, samples=sample, seed=seed)
    return FlatnessVerdict(kind, bound=top)
