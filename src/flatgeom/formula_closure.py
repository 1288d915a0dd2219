"""Formula-closures over structures carrying a compatible matroid.

A ``GeometricStructure`` is a finite universe with a matroid and one
designated m-ary relation phi whose tuples are circuits of size m; every
fiber of phi (fix all coordinates but one) has size below a declared
uniform bound K.  The closure of a set X under phi is built by repeatedly
adding every element completing an (m-1)-tuple from the current set to a
phi-tuple, in any coordinate position.

Closures step on the matroid's masks (bit e for element e), and their
results keep each chain as masks: the frozensets of ``.chain`` are built
when it is first read.  Every closure runs on one *fiber index*, mapping
each fiber key ``(position, rest)`` to the masks of ``rest`` and of the
elements completing it to a phi-tuple at that position.  One step adds the
completions of every fiber whose rest lies in the current set, and one
loop, ``_iterate``, repeats a step until a fixpoint, a blocking fiber or
the budget, by default |universe| + 1 steps, which always reach the
fixpoint.  A structure indexes phi once.  A staged structure builds once,
per stage, its fiber index and the sorted keys of the fibers not yet
fully revealed.

``EnumeratedStructure`` is the staged view: phi-tuples are revealed
monotonically stage by stage, and an exact count oracle says how many
members each fiber has in the limit.  A closure is *certified finite* at a
stage only when a fixpoint is reached with every queried fiber fully
revealed (revealed count equals oracle count); a fiber whose oracle count
exceeds everything revealed by the final stage is the scenario's contract
that growth continues beyond the horizon.  Divergence itself is declared
ground truth: the scenario lists seed sets whose closure is infinite in
the intended limit, and a set counts as divergent when its revealed-data
closure covers a seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import product
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import InvalidStructure, NotIndependent, check_int
from .matroid import Matroid, elements_of, mask_of, subsets

FiberKey = tuple[int, tuple[int, ...]]
#: Each fiber key's rest mask and completions mask.
Fibers = dict[FiberKey, tuple[int, int]]
#: A stage's fiber index and its blocking keys, each with its rest mask.
StageView = tuple[Fibers, tuple[tuple[FiberKey, int], ...]]


def _fibers(tuples: Iterable[tuple[int, ...]], arity: int) -> Fibers:
    """Fiber index of the tuples (a set, so no key gets a completion twice)."""
    index: Fibers = {}
    for t in tuples:
        for j in range(arity):
            rest = t[:j] + t[j + 1 :]
            rest_mask, completions = index.get((j, rest)) or (mask_of(rest), 0)
            index[(j, rest)] = (rest_mask, completions | 1 << t[j])
    return index


def _step(index: Fibers, cur: int) -> int:
    """Add the completions of every fiber whose rest lies in ``cur``."""
    out = cur
    for rest, completions in index.values():
        if not rest & ~cur:
            out |= completions
    return out


def _iterate(
    step: Callable[[int], int],
    x: int,
    budget: int,
    incomplete: Sequence[tuple[FiberKey, int]] = (),
) -> tuple[tuple[int, ...], str, tuple[FiberKey, ...]]:
    """The one fixpoint loop: at most ``budget`` steps from the mask ``x``,
    giving ``(masks, status, blocking)``, the chain as masks.  Status is
    "pending" when keys of ``incomplete`` (the blocking ones) have their
    rest mask in the current set, "fixpoint" when a step adds nothing, and
    "budget" otherwise."""
    chain, status, blocking = [x], "budget", ()
    for _ in range(budget):
        cur = chain[-1]
        blocking = tuple(key for key, rest in incomplete if not rest & ~cur)
        nxt = cur if blocking else step(cur)
        if nxt == cur:
            status = "pending" if blocking else "fixpoint"
            break
        chain.append(nxt)
    return tuple(chain), status, blocking


def _frozensets(result) -> tuple[frozenset[int], ...]:
    """A result's chain of iterates, built from its masks on first read."""
    return tuple(frozenset(elements_of(s)) for s in result.masks)


def _budget(g: GeometricStructure) -> int:
    """Steps that always reach a fixpoint: each growing step adds an
    element of the universe, and one more step adds nothing."""
    return len(g.universe) + 1


@dataclass(frozen=True)
class GeometricStructure:
    """Finite structure: matroid + designated circuit relation + bound K."""

    matroid: Matroid
    phi: frozenset[tuple[int, ...]]
    arity: int
    fiber_bound: int

    @classmethod
    def of(
        cls,
        matroid: Matroid,
        phi: Iterable[Sequence[int]],
        fiber_bound: int,
    ) -> "GeometricStructure":
        tuples = frozenset(tuple(t) for t in phi)
        # One tuple's arity; the structure checks every tuple against it.
        return cls(matroid, tuples, len(next(iter(tuples), ())), fiber_bound)

    @property
    def universe(self) -> tuple[int, ...]:
        return self.matroid.ground.elements

    @property
    def circuit_dim(self) -> int:
        """One less than the arity: the dimension of each phi-circuit."""
        return self.arity - 1

    def __post_init__(self):
        check_int("arity", self.arity, error=InvalidStructure)
        check_int("fiber bound K", self.fiber_bound, least=1, error=InvalidStructure)
        if not self.phi:
            raise InvalidStructure("phi must be nonempty")
        arities = {len(t) for t in self.phi}
        if len(arities) != 1:
            raise InvalidStructure("phi tuples must share one arity")
        if arities != {self.arity}:
            raise InvalidStructure(f"phi tuples have arity {arities.pop()}, not {self.arity}")
        m = self.arity
        ground = set(self.universe)
        for t in self.phi:
            if not set(t) <= ground:
                raise InvalidStructure(f"phi tuple {t} leaves the universe")
            s = frozenset(t)
            if len(s) != m:
                raise InvalidStructure(f"phi tuple {t} has repeated entries")
            if self.matroid.is_independent(s) or not all(
                self.matroid.is_independent(s - {e}) for e in s
            ):
                raise InvalidStructure(f"phi tuple {t} is not a circuit")
        for key, count in self.fiber_sizes().items():
            if count >= self.fiber_bound:
                raise InvalidStructure(
                    f"fiber {key} has {count} members, not below K={self.fiber_bound}"
                )

    @cached_property
    def fibers(self) -> Fibers:
        """Fiber index of phi."""
        return _fibers(self.phi, self.arity)

    def fiber_sizes(self) -> dict[FiberKey, int]:
        return {key: completions.bit_count() for key, (_, completions) in self.fibers.items()}


@dataclass(frozen=True)
class LambdaResult:
    """Strictly increasing chain of iterates plus how it ended.

    status "fixpoint" with index i means the i-th iterate equals the next
    one; "diverging" means the iteration budget ran out while still
    growing (possible only with a budget of at most the universe size,
    since each growing step adds an element of the universe).
    """

    masks: tuple[int, ...]
    status: str
    fixpoint_index: Optional[int] = None
    budget: Optional[int] = None

    chain = cached_property(_frozensets)

    @property
    def closure(self) -> frozenset[int]:
        return frozenset(elements_of(self.masks[-1]))

    @property
    def growth_trace(self) -> tuple[int, ...]:
        return tuple(s.bit_count() for s in self.masks)


def lambda_step(g: GeometricStructure, xi: Iterable[int]) -> frozenset[int]:
    """One closure step: add every phi-fiber member whose remaining
    coordinates all lie in ``xi``."""
    return frozenset(elements_of(_step(g.fibers, g.matroid._check(xi))))


def lambda_closure(
    g: GeometricStructure, x: Iterable[int], budget: Optional[int] = None
) -> LambdaResult:
    """Iterate ``lambda_step`` to a fixpoint or to the budget.

    The default budget is the universe size plus one: each growing step
    adds an element and one more step adds nothing, so a finite structure
    always reaches its fixpoint within that many steps.
    """
    budget = _budget(g) if budget is None else budget
    check_int("budget", budget, least=1, error=InvalidStructure)
    # lambda_step is looked up per step, so a wrapper on it sees every step.
    step = lambda cur: mask_of(lambda_step(g, elements_of(cur)))
    masks, status, _ = _iterate(step, g.matroid._check(x), budget)
    if status == "fixpoint":
        return LambdaResult(masks, status, fixpoint_index=len(masks) - 1)
    return LambdaResult(masks, "diverging", budget=budget)


# -- staged (enumerated) structures ----------------------------------------


@dataclass(frozen=True)
class EnumeratedStructure:
    """Staged revelation of a geometric structure with a count oracle.

    ``stages[s]`` is the cumulative set of phi-tuples revealed by stage
    s+1 (stages are 1-based externally); the final stage reveals exactly
    ``structure.phi``.  ``counts`` overrides the oracle for selected
    fibers; an override above the final revealed count is the contract
    that the fiber keeps growing beyond the horizon.  ``infinite_seeds``
    declares the ground truth: the limit closure of X is infinite exactly
    when the revealed-data closure of X contains one of the seeds.
    """

    structure: GeometricStructure
    stages: tuple[frozenset[tuple[int, ...]], ...]
    counts: Mapping[FiberKey, int] = field(default_factory=dict)
    infinite_seeds: tuple[frozenset[int], ...] = ()

    @classmethod
    def of(
        cls,
        structure: GeometricStructure,
        reveal: Sequence[Iterable[Sequence[int]]],
        counts: Optional[Mapping[FiberKey, int]] = None,
        infinite_seeds: Iterable[Iterable[int]] = (),
    ) -> "EnumeratedStructure":
        cumulative = []
        acc: frozenset[tuple[int, ...]] = frozenset()
        for batch in reveal:
            acc = acc | frozenset(tuple(t) for t in batch)
            cumulative.append(acc)
        return cls(
            structure,
            tuple(cumulative),
            dict(counts or {}),
            tuple(frozenset(s) for s in infinite_seeds),
        )

    @classmethod
    def complete(cls, structure: GeometricStructure) -> "EnumeratedStructure":
        """Wrap a finite structure as a single fully revealed stage with a
        truthful count oracle (no growth anywhere)."""
        return cls.of(structure, [sorted(structure.phi)])

    @property
    def final_stage(self) -> int:
        return len(self.stages)

    def __post_init__(self):
        if not self.stages:
            raise InvalidStructure("at least one stage is required")
        for earlier, later in zip(self.stages, self.stages[1:]):
            if not earlier <= later:
                raise InvalidStructure("stage reveals must be monotone")
        if self.stages[-1] != self.structure.phi:
            raise InvalidStructure("final stage must reveal exactly phi")
        arity = self.structure.arity
        ground = set(self.structure.universe)
        for seed in self.infinite_seeds:
            if not seed <= ground:
                raise InvalidStructure(f"infinite seed {sorted(seed)} leaves the universe")
        sizes = self.structure.fiber_sizes()
        for key, count in self.counts.items():
            if key[0] not in range(arity) or len(key[1]) != arity - 1:
                raise InvalidStructure(
                    f"count override {key} is not a fiber key of arity {arity}"
                )
            if not set(key[1]) <= ground:
                raise InvalidStructure(f"count override {key} leaves the universe")
            if len(set(key[1])) != arity - 1:
                raise InvalidStructure(f"count override {key} repeats an element")
            if count < sizes.get(key, 0):
                raise InvalidStructure(f"count override {key} below its revealed size")
            if count >= self.structure.fiber_bound:
                raise InvalidStructure(f"count override {key} violates the fiber bound")

    def revealed(self, stage: int) -> frozenset[tuple[int, ...]]:
        check_int("stage", stage, error=InvalidStructure)
        if not 1 <= stage <= self.final_stage:
            raise InvalidStructure(f"stage {stage} out of range")
        return self.stages[stage - 1]

    @cached_property
    def _stage_views(self) -> tuple[StageView, ...]:
        """Per stage: its fiber index and the sorted keys, with their rest
        masks, whose revealed count is below the count oracle's limit (only
        keys of phi or ``counts`` can be)."""
        limit = {**self.structure.fiber_sizes(), **self.counts}
        keys = [(k, mask_of(k[1]), n) for k, n in sorted(limit.items())]
        earlier = (_fibers(s, self.structure.arity) for s in self.stages[:-1])
        return tuple(
            (index, tuple((k, r) for k, r, n in keys if index.get(k, (r, 0))[1].bit_count() < n))
            for index in (*earlier, self.structure.fibers)
        )

    def _stage_view(self, stage: int) -> StageView:
        self.revealed(stage)  # rejects a stage that is no integer or out of range
        return self._stage_views[stage - 1]

    def declared_infinite(self, x: Iterable[int]) -> bool:
        if not self.infinite_seeds:
            return False
        reach = revealed_closure(self, x, self.final_stage)
        return any(seed <= reach for seed in self.infinite_seeds)


def revealed_closure(
    enum: EnumeratedStructure, x: Iterable[int], stage: int
) -> frozenset[int]:
    """Plain fixpoint over the tuples revealed by the stage, with no
    completeness certification."""
    step = partial(_step, enum._stage_view(stage)[0])
    masks = _iterate(step, enum.structure.matroid._check(x), _budget(enum.structure))[0]
    return frozenset(elements_of(masks[-1]))


@dataclass(frozen=True)
class CertifiedLambda:
    """Closure iteration against revealed data only.

    status "finite": a fixpoint was reached with every queried fiber fully
    revealed, so the closure is certified complete.  status "pending": an
    incomplete fiber blocks certification (more members are still to come
    at this stage, or forever if the stage is final).  status "budget":
    the iteration cap was hit while still growing.
    """

    status: str
    masks: tuple[int, ...]
    blocking: tuple[FiberKey, ...] = ()

    chain = cached_property(_frozensets)


def certified_lambda(
    enum: EnumeratedStructure, x: Iterable[int], stage: int, budget: int
) -> CertifiedLambda:
    check_int("budget", budget, least=1, error=InvalidStructure)
    index, incomplete = enum._stage_view(stage)
    start = enum.structure.matroid._check(x)
    masks, status, blocking = _iterate(partial(_step, index), start, budget, incomplete)
    return CertifiedLambda("finite" if status == "fixpoint" else status, masks, blocking)


@dataclass(frozen=True)
class AclEnumeration:
    """Stagewise emission of elements certified algebraic over the base."""

    emitted: tuple[tuple[int, int], ...]  # (element, stage)
    status: str  # "complete" | "budget-exceeded"

    @property
    def elements(self) -> frozenset[int]:
        return frozenset(e for e, _ in self.emitted)


def acl_enumerate_via_lambda(
    enum: EnumeratedStructure, bbar: Iterable[int], budget: Optional[int] = None
) -> AclEnumeration:
    """Emit a at the first stage where the closure of bbar + {a} is
    certified finite by the count oracle.

    The emitted set is monotone in the stage by construction.  ``bbar``
    must be an independent tuple of size equal to the circuit dimension.
    ``budget`` is the last stage read, the final stage by default.
    """
    budget = enum.final_stage if budget is None else budget
    check_int("budget", budget, least=1, error=InvalidStructure)
    g = enum.structure
    base = frozenset(bbar)
    if len(base) != g.circuit_dim:
        raise InvalidStructure(
            f"bbar must have {g.circuit_dim} elements, got {len(base)}"
        )
    if not g.matroid.is_independent(base):
        raise NotIndependent("bbar must be independent")

    last = min(enum.final_stage, budget)
    emitted: dict[int, int] = {}  # element -> stage, in emission order
    for stage in range(1, last + 1):
        for a in g.universe:
            if a in emitted:
                continue
            res = certified_lambda(enum, base | {a}, stage, _budget(g))
            if res.status == "finite":
                emitted[a] = stage
    status = "complete" if last == enum.final_stage else "budget-exceeded"
    return AclEnumeration(tuple(emitted.items()), status)


@dataclass(frozen=True)
class IldEstimate:
    """Least dimension whose closure is certified to grow without bound.

    value None is the finite marker: every examined closure is certified
    finite.  certainty "certified" means the verdict rests on the count
    oracle plus the scenario's declared ground truth; "lower-bound-only"
    means the iteration budget cut the search short at that dimension.
    """

    value: Optional[int]
    certainty: str


def ild_estimate(enum: EnumeratedStructure, budget: Optional[int] = None) -> IldEstimate:
    """Search sets by increasing matroid dimension for a certified-infinite
    closure.

    Sets of size up to the relation arity, which covers the independent
    seeds that drive growth, are bucketed by dimension and scanned in
    (size, lex) order.
    """
    g = enum.structure
    budget = _budget(g) if budget is None else budget
    check_int("budget", budget, least=1, error=InvalidStructure)

    buckets: dict[int, list[tuple[int, ...]]] = {}
    for combo in subsets(g.universe, g.arity):
        buckets.setdefault(g.matroid.rank(combo), []).append(combo)

    for dim in sorted(buckets):
        saw_budget = False
        for combo in buckets[dim]:
            res = certified_lambda(enum, combo, enum.final_stage, budget)
            if res.status == "pending" and enum.declared_infinite(combo):
                return IldEstimate(dim, "certified")
            if res.status == "budget":
                saw_budget = True
        if saw_budget:
            return IldEstimate(dim, "lower-bound-only")
    return IldEstimate(None, "certified")


# -- declared witness relations ---------------------------------------------


@dataclass(frozen=True)
class PsiRelation:
    """Explicit witness relation on z-tuples and w-tuples.

    ``isolates`` is a scenario declaration (the isolation property is not
    computable from the extension alone); the checker only confirms the
    designated pair actually satisfies the relation.
    """

    z_arity: int
    w_arity: int
    tuples: frozenset[tuple[int, ...]]
    fiber_bound: int
    isolates: bool = False

    def __post_init__(self):
        check_int("psi arity", self.z_arity, self.w_arity, least=0, error=InvalidStructure)
        check_int("psi fiber bound", self.fiber_bound, error=InvalidStructure)
        for t in self.tuples:
            if len(t) != self.z_arity + self.w_arity:
                raise InvalidStructure(f"psi tuple {t} has the wrong arity")

    def witnesses(self, z: Sequence[int]) -> list[tuple[int, ...]]:
        z = tuple(z)
        k = self.z_arity
        return sorted(t[k:] for t in self.tuples if t[:k] == z)


@dataclass(frozen=True)
class PsiReport:
    total: bool
    bounded: bool
    isolation_declared: bool
    holds_on_designated: bool
    first_total_violation: Optional[tuple[int, ...]] = None
    first_bound_violation: Optional[tuple[int, ...]] = None

    @property
    def ok(self) -> bool:
        return self.total and self.bounded and self.holds_on_designated


def psi_witness_check(
    g: GeometricStructure,
    psi: PsiRelation,
    xbar0: Sequence[int],
    xbar1: Sequence[int],
) -> PsiReport:
    """Validate a declared witness relation at finite scale.

    Checks totality (every z-tuple over the universe has a witness),
    boundedness (every fiber is below the declared bound), and that the
    designated pair satisfies psi.  Report-style: a failed check is
    reported, not raised.
    """
    sizes = {z: len(psi.witnesses(z)) for z in product(g.universe, repeat=psi.z_arity)}
    first_total = next((z for z, n in sizes.items() if n == 0), None)
    first_bound = next((z for z, n in sizes.items() if n >= psi.fiber_bound), None)
    holds = tuple(xbar0) + tuple(xbar1) in psi.tuples
    return PsiReport(
        first_total is None, first_bound is None, psi.isolates, holds, first_total, first_bound
    )
