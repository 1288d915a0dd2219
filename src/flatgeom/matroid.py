"""Finite pregeometries (matroids) behind a rank/closure oracle.

A matroid is given by a ground set of small integer ids plus one of three
oracle families.  Inside this module a subset is an int mask, bit e
standing for element e, and each oracle answers both queries on masks
itself, as ``rank(s, ground)`` and ``closure(s, ground)``:

* ``LinearOracle`` - elements are column vectors over a prime field GF(q).
  Both queries start from one echelon basis of the columns of s: rank is
  its size, closure s plus every other column that reduces to zero
  against it (the whole ground once the basis spans the space).
* ``UniformOracle`` - a sparse paving matroid of rank k, given by its
  nonbases: k-sets that are circuit-hyperplanes, no two sharing k - 1
  elements (none: the uniform matroid U(k, n)).  Rank of A is min(|A|, k),
  less one if A is a nonbasis; closure of A is A while |A| < k - 1 or A is
  a nonbasis, the nonbasis A spans (else A) when |A| = k - 1, and the
  whole ground set otherwise.
* ``ClosureTableOracle`` - an explicit, complete map from subset masks to
  closure masks.  Rank is recovered greedily from the same table.  Every
  table is built by ``closure_table_matroid`` and every tabulation of a
  matroid is read from ``table_rows``, closure-table documents included.
  The other two families are pregeometries by construction and are never
  checked; a table may break the axioms, so ``flatness.check_flat`` runs
  ``verify_pregeometry`` on it first.

A ``Matroid`` memoises rank and closure in one unbounded dict cache each,
keyed by mask; the scans here and in the analyses (flats, circuits, the
axiom check, the ping-pong search) walk masks with bit operations.  The
public methods take any iterable of ids and return frozensets and sorted
tuples, so masks never cross the package boundary.  All set-valued results
are canonical; "least" always means least element id.

Over a ``LinearOracle`` the closure cache answers a miss on s from the
prefixes of s by the rule cl(s) = cl(s - top) when top, the highest element
of s, lies in cl(s - top): from the longest cached prefix p it gives
cl(s) = cl(p) if s lies inside cl(p), and only otherwise asks the oracle.
Linear spans obey the rule by construction.  A ``ClosureTableOracle``
never uses it: the rule holds only in a pregeometry, and
``verify_pregeometry`` must read a table's own entries to check the axioms.

Flats are built by covering: the flats that cover a flat F are the sets
cl(F + e), e not in F, so a flat's rank is the level at which it is met.
On a linear host these covers are the parallel classes of the contraction
M/F (Oxley, Matroid Theory, 2nd ed., 2011): the walk reduces each column
outside F once against an echelon basis of F, and the columns whose
residuals agree up to a scalar give one cover, whose basis is F's plus
one row.  It writes each cl(F + e) so found into the closure memo, so no
cover candidate is closed from scratch.

The exhaustive axiom check decides a pass from the closed sets and their
covers (the flat axioms; Oxley, 1.4).  Once cl is extensive, idempotent
and monotone on each one-element step, it is a closure operator, so
cl(S + b) = cl(cl(S) + b) and exchange at S is exchange at the flat
cl(S).  At a flat F exchange holds iff the covers cl(F + b) - F, b outside
F, partition E - F: iff each distinct cover K comes from exactly |K|
elements b.  The (size, lex) scan over every subset and element runs only
when this fails, to name the least violation.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .errors import (
    GroundTooLarge,
    InvalidElement,
    InvalidStructure,
    NoLargeCircuit,
    NotIndependent,
    check_int,
)

#: Exhaustive axiom checks refuse ground sets bigger than this unless the
#: caller opts into sampling.  2**12 subsets is still desk scale.
DEFAULT_VERIFY_BOUND = 12

#: Most elements a complete closure table, one row per subset, is
#: tabulated for: 2**16 rows.
TABLE_BOUND = 16


def canon(elements: Iterable[int]) -> tuple[int, ...]:
    """Canonical form of a subset: strictly increasing tuple of ids."""
    return tuple(sorted(set(elements)))


def size_lex(subset: Iterable[int]) -> tuple[int, tuple[int, ...]]:
    """Sort key of the (size, lex) order in which every scan reports."""
    elems = tuple(sorted(subset))
    return len(elems), elems


def subsets(
    elements: Sequence[int], max_size: Optional[int] = None, min_size: int = 0
) -> Iterator[tuple[int, ...]]:
    """Subsets of ``elements`` with ``min_size`` to ``max_size`` (default:
    all) members, lazily, in (size, lex) order if ``elements`` ascends."""
    top = len(elements) if max_size is None else max_size
    for size in range(min_size, top + 1):
        yield from combinations(elements, size)


def subset_universe(
    elements: Sequence[int], max_ground: int, sample: Optional[int], seed: int
) -> tuple[Iterator[int], bool]:
    """The subset masks an axiom scan checks, and whether they are sampled:
    all of them up to ``max_ground`` elements, in (size, lex) order if
    ``elements`` ascends, else ``sample`` random ones drawn with ``seed``
    (GroundTooLarge without ``sample``)."""
    check_int("max_ground", max_ground, least=0, error=InvalidStructure)
    if sample is not None:
        check_int("sample", sample, least=0, error=InvalidStructure)
    n = len(elements)
    bits = [1 << e for e in elements]
    if n <= max_ground:
        return map(sum, subsets(bits)), False
    if sample is None:
        raise GroundTooLarge(f"ground has {n} elements (> {max_ground}); pass sample= / --sample")
    rng = random.Random(seed)
    return (sum(b for b in bits if rng.random() < 0.5) for _ in range(sample)), True


def mask_of(elements: Iterable[int]) -> int:
    """The mask of a set of non-negative ids: bit e stands for element e."""
    s = 0
    for e in elements:
        s |= 1 << e
    return s


def elements_of(mask: int) -> tuple[int, ...]:
    """The ids of the bits set in ``mask``, ascending: its canonical form."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class Memo(dict):
    """A dict that builds a missing value with ``make(key)`` and keeps it;
    a hit is one C-level lookup."""

    def __init__(self, make: Callable):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class _PrefixClosures(Memo):
    """The closure memo of a linear oracle, which tries the prefix rule (see
    the module docstring) before ``make`` asks the oracle; the walk down
    the prefixes is a loop, so no recursion limit bounds its depth."""

    def __missing__(self, s: int) -> int:
        p = s
        while p:
            p ^= 1 << p.bit_length() - 1
            cl_p = self.get(p)
            if cl_p is not None:
                if s & ~cl_p:  # and no shorter prefix spans more
                    break
                self[s] = cl_p
                return cl_p
        return super().__missing__(s)


def _low_bits(mask: int) -> Iterator[int]:
    """The one-bit masks that make up ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


#: Miller-Rabin with the prime bases 2..41 is exact below this bound
#: (Sorenson and Webster, Math. Comp. 86, 2017).
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for ``n`` below PRIME_TEST_BOUND."""
    if n >= PRIME_TEST_BOUND:
        raise InvalidStructure(
            f"field order {n} is not below {PRIME_TEST_BOUND}, the bound of the primality test"
        )
    if n < 2 or any(n % p == 0 for p in _PRIME_BASES):
        return n in _PRIME_BASES
    s = ((n - 1) & -(n - 1)).bit_length() - 1
    d = (n - 1) >> s  # n - 1 = d * 2**s with d odd
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        # a proves n composite unless x = 1 or x**(2**r) = -1 for some r < s.
        if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
            return False
    return True


@dataclass(frozen=True)
class GroundSet:
    """Ordered ground set of distinct element ids.

    The id order is the total order used for all least-element
    tie-breaking.
    """

    elements: tuple[int, ...]

    def __post_init__(self):
        elems = tuple(self.elements)
        check_int("ground set id", *elems, least=0, error=InvalidStructure)
        if len(set(elems)) != len(elems):
            raise InvalidStructure("ground set ids must be distinct")
        object.__setattr__(self, "elements", tuple(sorted(elems)))

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class LinearOracle:
    """Column vectors over the prime field GF(q), one per element id.

    Element ids are 0..len(columns)-1 in column order.
    """

    field: int
    columns: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        check_int("field order", self.field, error=InvalidStructure)
        if not _is_prime(self.field):
            raise InvalidStructure(f"field order {self.field} is not prime")
        if not all(isinstance(col, Sequence) for col in self.columns):
            raise InvalidStructure("each column must be a sequence")
        check_int("column entry", *(c for col in self.columns for c in col),
                  error=InvalidStructure)
        cols = tuple(tuple(c % self.field for c in col) for col in self.columns)
        if cols and len({len(c) for c in cols}) != 1:
            raise InvalidStructure("all columns must have the same length")
        object.__setattr__(self, "columns", cols)

    def _reduce(self, basis: Sequence[tuple[int, Sequence[int]]], vec: Sequence[int]) -> list[int]:
        """``vec`` minus its combination of the basis rows: all zero iff
        ``vec`` lies in their span."""
        q = self.field
        v = list(vec)
        for pivot, row in basis:
            c = v[pivot]
            if c:
                v = [(a - c * b) % q for a, b in zip(v, row)]
        return v

    def _basis(self, subset: int) -> list[tuple[int, list[int]]]:
        """Echelon basis of the columns of ``subset``, as (pivot, row) pairs:
        each row is 1 at its pivot and 0 at the pivots of the rows before it."""
        q = self.field
        basis: list[tuple[int, list[int]]] = []
        for e in elements_of(subset):
            v = self._reduce(basis, self.columns[e])
            pivot = next((i for i, x in enumerate(v) if x), None)
            if pivot is not None:
                inv = pow(v[pivot], q - 2, q)
                basis.append((pivot, [x * inv % q for x in v]))
        return basis

    def rank(self, subset: int, ground: int) -> int:
        return len(self._basis(subset))

    def closure(self, subset: int, ground: int) -> int:
        basis = self._basis(subset)
        if len(basis) == (len(self.columns[0]) if self.columns else 0):
            return ground
        cl = subset
        for e in elements_of(ground & ~subset):
            if not any(self._reduce(basis, self.columns[e])):
                cl |= 1 << e
        return cl

    def covers(
        self, basis: Sequence[tuple[int, Sequence[int]]], outside: int
    ) -> Iterator[tuple[int, tuple[int, tuple[int, ...]]]]:
        """The parallel classes of the contraction by span(``basis``) among
        the columns of ``outside``, none of which may lie in that span: each
        as (mask, (pivot, row)), the row their shared residual scaled to 1
        at its first nonzero entry, which extends ``basis`` to an echelon
        basis of the span with the class."""
        q = self.field
        classes: dict[tuple[int, ...], int] = {}
        for b in _low_bits(outside):
            v = self._reduce(basis, self.columns[b.bit_length() - 1])
            lead = next(x for x in v if x)
            if lead != 1:
                inv = pow(lead, q - 2, q)
                v = [x * inv % q for x in v]
            row = tuple(v)
            classes[row] = classes.get(row, 0) | b
        for row, g in classes.items():
            yield g, (row.index(1), row)


@dataclass(frozen=True)
class UniformOracle:
    """Sparse paving matroid of rank k: every k-subset is a basis except the
    ``nonbases`` (k-set masks, the circuit-hyperplanes), any two of which
    meet in at most k - 2 elements.  With no nonbases it is uniform."""

    rank_bound: int
    nonbases: frozenset[int] = frozenset()

    def __post_init__(self):
        k, masks = self.rank_bound, tuple(self.nonbases)  # any iterable of masks
        check_int("rank", k, least=0, error=InvalidStructure)
        if k == 0 and masks:
            raise InvalidStructure("rank 0 has no nonbases: the empty set is its one basis")
        # Two nonbases meet in more than k - 2 elements iff they share a
        # (k-1)-subset, so every such pair collides here, as does a nonbasis
        # listed twice.
        spans: dict[int, int] = {}
        for n in masks:
            if n.bit_count() != k:
                raise InvalidStructure("nonbases must have exactly `rank` elements")
            for e in _low_bits(n):
                if n ^ e in spans:
                    raise InvalidStructure("sparse paving requires pairwise nonbasis intersections <= rank-2")
                spans[n ^ e] = n
        object.__setattr__(self, "nonbases", frozenset(masks))
        #: The nonbasis that each (k-1)-subset spans, for those that span one.
        object.__setattr__(self, "_spans", spans)

    def rank(self, subset: int, ground: int) -> int:
        return min(subset.bit_count(), self.rank_bound) - (subset in self.nonbases)

    def closure(self, subset: int, ground: int) -> int:
        short = self.rank_bound - subset.bit_count()
        if short > 1 or subset in self.nonbases:
            return subset
        if short == 1:
            return self._spans.get(subset, subset)
        return ground


@dataclass(frozen=True)
class ClosureTableOracle:
    """Complete explicit closure table, from subset masks to closure masks:
    one entry for every subset of the ground set, a lookup on a missing key
    being an input error.  The axioms are not assumed."""

    table: Mapping[int, int]

    def closure(self, subset: int, ground: int) -> int:
        try:
            return self.table[subset]
        except KeyError:
            raise InvalidStructure(
                f"closure table has no entry for {list(elements_of(subset))}"
            ) from None

    def rank(self, subset: int, ground: int) -> int:
        """Size of the greedy basis, which takes each element, ascending,
        that its closure so far misses; valid if the table is a pregeometry."""
        basis = 0
        for e in _low_bits(subset):
            if not self.closure(basis, ground) & e:
                basis |= e
        return basis.bit_count()


Oracle = LinearOracle | UniformOracle | ClosureTableOracle


@dataclass(frozen=True)
class Flat:
    """A closed subset together with its dimension."""

    elements: tuple[int, ...]
    dim: int

    def as_set(self) -> frozenset[int]:
        return frozenset(self.elements)


@dataclass(frozen=True)
class Circuit:
    """A minimal dependent set: every proper subset is independent."""

    elements: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class Violation:
    """First witness of a failed pregeometry axiom.

    ``a`` and ``b`` are the elements involved (``None`` where the axiom
    has fewer moving parts) and ``subset`` the base set A.
    """

    kind: str
    a: Optional[int]
    b: Optional[int]
    subset: tuple[int, ...]


@dataclass(frozen=True)
class PregeometryReport:
    """The outcome of ``Matroid.verify_pregeometry``: the least violation
    in the scan order (``None`` on a pass) and the number of subsets the
    scan reached, all 2**n on an exhaustive pass, which is decided from the
    closed sets and their covers without the scan."""

    ok: bool
    violation: Optional[Violation]
    subsets_checked: int
    sampled: bool


class Matroid:
    """Ground set plus oracle, with rank and closure memoised by mask."""

    def __init__(self, ground: GroundSet, oracle: Oracle):
        self.ground = ground
        self.oracle = oracle
        self._bit = {e: 1 << e for e in ground.elements}
        self._ground_mask = whole = sum(self._bit.values())
        #: Rank and closure of a mask, each memoised in one dict keyed by
        #: mask; a miss asks the oracle at most once (a linear closure miss
        #: tries the prefix rule first).
        self._rank_mask: Callable[[int], int] = Memo(lambda s: oracle.rank(s, whole)).__getitem__
        closures = _PrefixClosures if isinstance(oracle, LinearOracle) else Memo
        self._closures: Memo = closures(lambda s: oracle.closure(s, whole))
        self._closure_mask: Callable[[int], int] = self._closures.__getitem__
        #: pingpong's step table of the most recent net, as (net, table).
        self._net_steps: Optional[tuple[int, Memo]] = None
        if isinstance(oracle, LinearOracle) and tuple(range(len(oracle.columns))) != ground.elements:
            raise InvalidStructure("linear oracle requires ids 0..n-1, one column per element")
        want = 1 << len(ground.elements)
        if isinstance(oracle, ClosureTableOracle) and len(oracle.table) != want:
            raise InvalidStructure(
                f"closure table must list all {want} subsets, got {len(oracle.table)}"
            )

    # -- basic queries ---------------------------------------------------

    def _check(self, subset: Iterable[int]) -> int:
        """The mask of ``subset``; InvalidElement names every id of it that
        is not in the ground set."""
        bit, s = self._bit, 0
        it = iter(subset)
        try:
            for e in it:
                s |= bit[e]
        except KeyError:
            bad = {e, *(x for x in it if x not in bit)}
            raise InvalidElement(f"element ids {sorted(bad)} not in ground set") from None
        return s

    def rank(self, subset: Iterable[int]) -> int:
        """Cardinality of any maximal independent subset of ``subset``."""
        return self._rank_mask(self._check(subset))

    def closure(self, subset: Iterable[int]) -> frozenset[int]:
        """The least closed set containing ``subset``."""
        return frozenset(elements_of(self._closure_mask(self._check(subset))))

    def closure_flat(self, subset: Iterable[int]) -> Flat:
        cl = self._closure_mask(self._check(subset))
        return Flat(elements_of(cl), self._rank_mask(cl))

    def is_independent(self, subset: Iterable[int]) -> bool:
        s = self._check(subset)
        return self._rank_mask(s) == s.bit_count()

    def independent_over(self, subset: Iterable[int], base: Iterable[int]) -> bool:
        """True iff every a in ``subset`` avoids cl(base + (subset - a))."""
        return self._independent_over(self._check(subset), self._check(base))

    def _independent_over(self, s: int, base: int) -> bool:
        cl = self._closure_mask
        return not any(cl(s & ~a | base) & a for a in _low_bits(s))

    @property
    def full_rank(self) -> int:
        return self._rank_mask(self._ground_mask)

    # -- flats and circuits ----------------------------------------------

    def flats(self) -> list[Flat]:
        """All closed subsets, sorted by (size, elements), each with its
        covering level as dimension; ``full_rank`` is the one rank query."""
        return [Flat(elements_of(s), k) for s, k in self._closed_sets(self.full_rank).items()]

    def _closed_sets(self, max_rank: int) -> dict[int, int]:
        """The flats of rank <= ``max_rank`` as masks, each mapped to its
        rank, in (size, lex) order: level 0 is cl(empty), level k+1 every
        cover of a flat on level k not met before.  The walk stops after
        level ``max_rank`` even if the next is not empty, so on a table
        that breaks the axioms no set above the table's rank counts as a
        flat.  A linear host carries an echelon basis with each flat of
        the level and takes its covers from the contraction
        (``_residual_covers``); any other host closes F + e for each e not
        in F (``_closure_covers``)."""
        cl = self._closure_mask
        found = {cl(0): 0} if max_rank >= 0 else {}
        if isinstance(self.oracle, LinearOracle):
            covers, level = self._residual_covers, dict.fromkeys(found, ())
        else:
            covers, level = self._closure_covers, dict.fromkeys(found)
        for k in range(1, max_rank + 1):
            met: dict = {}
            for f, basis in level.items():
                met.update(covers(f, basis))
            level = {s: basis for s, basis in met.items() if s not in found}
            found.update(dict.fromkeys(level, k))
        return {s: found[s] for s in sorted(found, key=lambda s: (s.bit_count(), elements_of(s)))}

    def _closure_covers(self, f: int, _) -> Iterator[tuple[int, None]]:
        """The sets cl(F + e), e not in F, the covers of the flat F."""
        cl = self._closure_mask
        return ((cl(f | b), None) for b in _low_bits(self._ground_mask & ~f))

    def _residual_covers(self, f: int, basis: tuple) -> Iterator[tuple[int, tuple]]:
        """The covers F | g of the linear flat F, g a parallel class of the
        contraction M/F, each with its echelon basis, ``basis`` plus one
        row; cl(F + e) = F | g goes into the closure memo for each e in g,
        so later closures of F + e are hits."""
        memo = self._closures
        for g, row in self.oracle.covers(basis, self._ground_mask & ~f):
            cover = f | g
            for b in _low_bits(g):
                memo[f | b] = cover
            yield cover, (*basis, row)

    def _circuits(self, min_size: int, max_size: int) -> Iterator[Circuit]:
        """Circuits with ``min_size`` to ``max_size`` elements, lazily, in
        (size, lex) order."""
        bit, rk = self._bit, self._rank_mask
        for combo in subsets(self.ground.elements, max_size, min_size):
            s = sum(bit[e] for e in combo)
            k = len(combo)
            if rk(s) < k and all(rk(s ^ bit[e]) == k - 1 for e in combo):
                yield Circuit(combo)

    def circuits(self, max_size: int) -> list[Circuit]:
        """All circuits of size <= max_size, in (size, lex) order."""
        check_int("max_size", max_size, least=1, error=InvalidStructure)
        return list(self._circuits(1, max_size))

    def smallest_circuit_param(self) -> tuple[int, int]:
        """(m, n) with m the size of the smallest circuit of size > 2 and
        n = m - 1.  Raises NoLargeCircuit when no such circuit exists.

        The search stops at the first such circuit; none is larger than
        rank + 1.
        """
        limit = min(len(self.ground), self.full_rank + 1)
        for c in self._circuits(3, limit):
            return c.size, c.size - 1
        raise NoLargeCircuit("all circuits have size <= 2")

    def carousel_check(
        self, abar: Iterable[int], bs: Sequence[int]
    ) -> bool:
        """Whether the closures of abar plus all-but-one of bs intersect in
        exactly cl(abar).

        ``bs`` must be independent over ``abar`` (checked; NotIndependent
        otherwise).  Holds on every valid pregeometry; exposed so it can be
        property-tested.
        """
        base = self._check(abar)
        tup = tuple(bs)
        if len(set(tup)) != len(tup):
            raise NotIndependent("bs contains repeats")
        s = self._check(tup)
        if not self._independent_over(s, base):
            raise NotIndependent("bs is not independent over abar")
        if not s:
            return True
        inter = -1
        for b in _low_bits(s):
            inter &= self._closure_mask(base | s & ~b)
        return inter == self._closure_mask(base)

    # -- axiom verification ----------------------------------------------

    def verify_pregeometry(
        self,
        max_ground: int = DEFAULT_VERIFY_BOUND,
        sample: Optional[int] = None,
        seed: int = 0,
    ) -> PregeometryReport:
        """Exhaustively check extensivity, monotonicity, idempotence and
        exchange over all subsets.

        Grounds larger than ``max_ground`` require ``sample`` (number of
        random subsets to test) or GroundTooLarge is raised.  Returns the
        first violation found, in a deterministic scan order: subsets A in
        (size, lex) order, then b ascending; each witness is the least
        element that shows the violation, and an exchange violation names
        the least a in cl(A + b) - cl(A) - b with b outside cl(A + a).

        An exhaustive check decides a pass first from the closed sets and
        their covers (``_is_pregeometry``) and reports all 2**n subsets
        checked, as the scan would; the scan runs only when that fails, to
        name the least violation.  A sampled check is the scan over its
        sample.
        """
        elems = self.ground.elements
        universe, sampled = subset_universe(elems, max_ground, sample, seed)
        if not sampled and self._is_pregeometry():
            return PregeometryReport(True, None, 1 << len(elems), False)
        cl = self._closure_mask
        bits = [(b, 1 << b) for b in elems]
        checked = 0

        def fail(kind: str, a: Optional[int], b: Optional[int]) -> PregeometryReport:
            return PregeometryReport(False, Violation(kind, a, b, elements_of(s)), checked, sampled)

        for s in universe:
            checked += 1
            cl_a = cl(s)
            if s & ~cl_a:
                return fail("extensivity", elements_of(s & ~cl_a)[0], None)
            cl_cl = cl(cl_a)
            if cl_cl != cl_a:
                return fail("idempotence", elements_of(cl_cl ^ cl_a)[0], None)
            for b, bb in bits:
                if s & bb:
                    continue
                cl_ab = cl(s | bb)
                if cl_a & ~cl_ab:
                    return fail("monotonicity", elements_of(cl_a & ~cl_ab)[0], b)
                new = cl_ab & ~cl_a & ~bb
                while new:
                    a = new & -new  # least first
                    if not cl(s | a) & bb:
                        return fail("exchange", elements_of(a)[0], b)
                    new ^= a
        return PregeometryReport(True, None, checked, sampled)

    def _is_pregeometry(self) -> bool:
        """Whether the exhaustive scan of ``verify_pregeometry`` would pass,
        decided by the flat criterion of the module docstring in one pass
        over the subset masks in increasing order, so each S - b comes
        before S.  Each S needs S <= cl(S) <= E and cl(cl(S)) = cl(S).
        Each edge (S - b, S) needs cl(S - b) <= cl(S), which already holds
        when S - b is closed or cl(S) = E, so cl(S - b) is looked up only
        on the other edges.  The edges out of each flat T that do not span
        are counted: a cover {b} (T + b closed) needs only that count, and
        a spanning cover is what the count leaves over, allowed only if
        every cover of T spans.
        """
        cl, whole = self._closure_mask, self._ground_mask
        closed: set[int] = set()
        # One flat T per edge (T, T + b) with cl(T + b) != E, and one
        # (T, cl(T + b)) per such edge whose T + b is not closed.
        nonspanning: list[int] = []
        covers: list[tuple[int, int]] = []
        s = 0
        while True:
            c = cl(s)
            if s & ~c or c & ~whole:
                return False
            if c == s:
                closed.add(s)
            elif cl(c) != c:
                return False
            if c != whole:
                # Inline rather than _low_bits: on a free host this loop
                # runs for all n * 2**(n-1) edges.
                rest = s
                while rest:
                    b = rest & -rest
                    rest ^= b
                    t = s ^ b
                    if t in closed:
                        nonspanning.append(t)
                        if c != s:
                            covers.append((t, c))
                    elif cl(t) & ~c:
                        return False
            if s == whole:
                break
            s = (s - whole) & whole
        return all(
            k == (c & ~t).bit_count() for (t, c), k in Counter(covers).items()
        ) and all(k == (whole & ~t).bit_count() for t, k in Counter(nonspanning).items())


# -- convenience constructors ---------------------------------------------


def linear_matroid(field: int, columns: Sequence[Sequence[int]]) -> Matroid:
    cols = tuple(columns)
    return Matroid(GroundSet(tuple(range(len(cols)))), LinearOracle(field, cols))


def uniform_matroid(rank: int, size: int) -> Matroid:
    check_int("uniform size", size, least=0, error=InvalidStructure)
    return Matroid(GroundSet(tuple(range(size))), UniformOracle(rank))


def free_matroid(size: int) -> Matroid:
    return uniform_matroid(size, size)


def closure_table_matroid(
    size: int, table: Mapping[Iterable[int], Iterable[int]] | Iterable[tuple]
) -> Matroid:
    """The matroid on ids 0..size-1 whose closure is ``table``, a map or a
    list of pairs from each subset to its closure, both given as ids; an
    entry with an id outside the ground set, or a subset given twice (say
    as (0, 1) and (1, 0)), is an InvalidStructure that names it."""
    check_int("closure table ground", size, least=0, error=InvalidStructure)
    bit = {e: 1 << e for e in range(size)}
    masks: dict[int, int] = {}
    for key, cl in table.items() if isinstance(table, Mapping) else table:
        k = v = 0
        try:
            for e in key:
                k |= bit[e]
            for e in cl:
                v |= bit[e]
        except KeyError:
            raise InvalidStructure(
                f"closure table entry {sorted(key)} -> {sorted(cl)} "
                f"leaves the ground set 0..{size - 1}"
            ) from None
        if k in masks:
            raise InvalidStructure(f"closure table lists subset {sorted(key)} twice")
        masks[k] = v
    return Matroid(GroundSet(tuple(range(size))), ClosureTableOracle(masks))


def table_rows(m: Matroid) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every subset of the ground set with its closure, as id tuples, in
    (size, lex) order.  The oracle answers, so ``m``'s memo is left as it
    was; GroundTooLarge past TABLE_BOUND elements."""
    n = len(m.ground)
    if n > TABLE_BOUND:
        raise GroundTooLarge(f"refusing to tabulate 2**{n} subsets (> 2**{TABLE_BOUND})")
    closure, whole = m.oracle.closure, m._ground_mask
    return ((s, elements_of(closure(mask_of(s), whole))) for s in subsets(m.ground.elements))


def table_from_matroid(m: Matroid) -> dict[frozenset[int], frozenset[int]]:
    """Materialise a matroid of at most TABLE_BOUND elements as a complete
    closure table."""
    return {frozenset(s): frozenset(cl) for s, cl in table_rows(m)}


def sparse_paving_matroid(
    size: int, rank: int, nonbases: Iterable[Iterable[int]]
) -> Matroid:
    """Rank-r sparse paving matroid on ids 0..size-1.

    ``nonbases`` are r-sets declared dependent (circuit-hyperplanes); any
    two must intersect in at most r-2 elements, and none may repeat.  Every
    other set of size <= r is independent.  Returned on a ``UniformOracle``,
    which answers by rule from the nonbases.
    """
    check_int("sparse paving size", size, least=0, error=InvalidStructure)
    nb = [frozenset(s) for s in nonbases]
    for s in nb:
        if not all(e in range(size) for e in s):
            raise InvalidStructure(f"nonbasis {sorted(s)} leaves the ground set 0..{size - 1}")
    return Matroid(GroundSet(tuple(range(size))), UniformOracle(rank, map(mask_of, nb)))
