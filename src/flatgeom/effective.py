"""Stage-faithful simulation of the recursive-copy construction.

The simulator builds a copy B of a target subset M of a finite relational
structure N, guided by a stagewise membership approximation M_s (each
element flips finitely often, the limit is M) and a monotone enumeration
A_s of a designated subset A of M.  At each stage, if every copied image
currently looks like a member of M, the least uncopied apparent member is
copied and one more signature symbol is revealed; otherwise the copy
freezes.  A frozen copy keeps one record: the stage it froze at, the
preimages of the dropped images, and which of its images were members
then.  It waits until membership on its range differs from that record
(outcome 1), or an element of A plus a replacement tuple lets the dropped
images be remapped while preserving every atomic fact committed so far
(outcome 2).

Committed facts are permanent: they are pulled back from N when an element
or symbol is added, and any later remap must respect them.  That is what
makes the limit map an isomorphism onto the substructure on M.  Both read
only the tuples through the preimages that changed: an extension commits
the tuples through the new preimage (all tuples of a newly revealed
symbol), and since every fact holds under the current images, a remap can
break only a fact whose tuple holds a dropped preimage, so an outcome-2
check reads just those, generated in the order of the full product.
``trace_verify`` checks every fact under the limit map.

An element counts as a member at stage s when it has entered A_s or M_s
says so.  That one rule gives ``ConstructionTrace.corrected_member``, and
the stage loop reads it at stage 1 and at each stage where a flip or an A
entry is scripted, the only stages where membership can change.

A run that reaches the horizon with an unresolved wait reports "stuck";
it is a diagnostic that the scenario broke its witness contract, not a
tool error.
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import (
    IncoherentSchedule, InvalidStructure, MatroidContractError, NotExtendable, check_int,
)
from .matroid import Matroid, canon


@dataclass(frozen=True)
class Relation:
    arity: int
    tuples: frozenset[tuple[int, ...]]

    def holds(self, args: Sequence[int]) -> bool:
        return tuple(args) in self.tuples


@dataclass(frozen=True)
class RelationalStructure:
    universe: tuple[int, ...]
    relations: Mapping[str, Relation]

    def __post_init__(self):
        ground = set(self.universe)
        for name, rel in self.relations.items():
            check_int(f"{name} arity", rel.arity, least=0, error=InvalidStructure)
            for t in rel.tuples:
                if len(t) != rel.arity:
                    raise InvalidStructure(f"{name} tuple {t} has wrong arity")
                if not set(t) <= ground:
                    raise InvalidStructure(f"{name} tuple {t} leaves the universe")

    @classmethod
    def of(
        cls, universe: Iterable[int], relations: Mapping[str, tuple[int, Iterable[Sequence[int]]]]
    ) -> "RelationalStructure":
        rels = {
            name: Relation(arity, frozenset(tuple(t) for t in tuples))
            for name, (arity, tuples) in relations.items()
        }
        return cls(canon(universe), rels)


@dataclass(frozen=True)
class StagewisePresentation:
    """Structure plus the order in which its symbols are revealed.

    ``matroid`` is the geometric view on the universe when one exists
    (needed by the closure-approximation generator); plain relational
    scenarios leave it unset.
    """

    structure: RelationalStructure
    signature_order: tuple[str, ...]
    matroid: Optional[Matroid] = None

    def __post_init__(self):
        if sorted(self.signature_order) != sorted(self.structure.relations):
            raise InvalidStructure("signature order must list each symbol once")
        if self.matroid is not None and self.matroid.ground.elements != self.structure.universe:
            raise InvalidStructure("universe disagrees with the matroid's ground set")


@dataclass(frozen=True)
class FlipEvent:
    elem: int
    stage: int
    value: bool  # membership after the flip


@dataclass(frozen=True)
class Delta2Schedule:
    """Stagewise approximation of a target set.

    Before its first event an element's membership is the opposite of that
    event's value; with no events it is the limit membership.  The last
    event of each element must agree with the target.
    """

    target: frozenset[int]
    flips: tuple[FlipEvent, ...]
    max_flips_per_element: int = 3

    def __post_init__(self):
        check_int("target element", *self.target, error=IncoherentSchedule)
        check_int("flip element", *(ev.elem for ev in self.flips), error=IncoherentSchedule)
        check_int("flip stage", *(ev.stage for ev in self.flips), least=1,
                  error=IncoherentSchedule)
        check_int("flip budget", self.max_flips_per_element, error=IncoherentSchedule)
        bad = [ev.value for ev in self.flips if not isinstance(ev.value, bool)]
        if bad:
            raise IncoherentSchedule(f"flip value must be true or false, got {bad[0]!r}")
        for elem, events in self._flips_of.items():
            stages = [ev.stage for ev in events]
            if len(set(stages)) != len(stages) or stages != sorted(stages):
                raise IncoherentSchedule(f"element {elem} flips out of order")
            if len(events) > self.max_flips_per_element:
                raise IncoherentSchedule(f"element {elem} exceeds its flip budget")
            if any(prev.value == nxt.value for prev, nxt in zip(events, events[1:])):
                raise IncoherentSchedule(f"element {elem} has consecutive flips to the same state")
            if events[-1].value != (elem in self.target):
                raise IncoherentSchedule(
                    f"element {elem} does not settle on its target membership"
                )

    @cached_property
    def _flips_of(self) -> dict[int, list[FlipEvent]]:
        """Each element's flips, in schedule order."""
        out: dict[int, list[FlipEvent]] = {}
        for ev in self.flips:
            out.setdefault(ev.elem, []).append(ev)
        return out

    def member_at(self, elem: int, stage: int) -> bool:
        events = self._flips_of.get(elem)
        if not events:
            return elem in self.target
        state = not events[0].value
        for ev in events:
            if ev.stage <= stage:
                state = ev.value
        return state


@dataclass(frozen=True)
class Sigma1Schedule:
    """Monotone stagewise enumeration of a subset A."""

    entries: tuple[tuple[int, int], ...]  # (element, entry stage)

    @classmethod
    def of(cls, staged: Mapping[int, int] | Iterable[tuple[int, int]]) -> "Sigma1Schedule":
        items = staged.items() if isinstance(staged, MappingABC) else staged
        entries = [(e, s) for e, s in items]
        try:
            entries.sort(key=lambda p: (p[1], p[0]))
        except TypeError:
            pass  # entries of mixed types, which __post_init__ refuses
        return cls(tuple(entries))

    def __post_init__(self):
        check_int("A element", *(e for e, _ in self.entries), error=IncoherentSchedule)
        check_int("A stage", *(s for _, s in self.entries), least=1,
                  error=IncoherentSchedule)
        if len(self.target) != len(self.entries):
            raise IncoherentSchedule("an element enters A twice")

    @property
    def target(self) -> frozenset[int]:
        return frozenset(e for e, _ in self.entries)

    def at(self, stage: int) -> list[int]:
        """Elements enumerated by the stage, in enumeration order."""
        return [e for e, s in self.entries if s <= stage]


def _corrected_at(
    membership: Delta2Schedule, enumeration: Sigma1Schedule, stage: int
) -> Callable[[int], bool]:
    """Membership at ``stage``: an element counts once it has entered A, and
    otherwise as the approximation says."""
    entered = frozenset(enumeration.at(stage))
    return lambda elem: elem in entered or membership.member_at(elem, stage)


@dataclass(frozen=True)
class StageRecord:
    stage: int
    event: str  # "extend" | "wait" | "outcome1" | "outcome2"
    b_size: int
    symbols: tuple[str, ...]
    images: tuple[int, ...]  # f_s(x) for x = 0..b_size-1, post-stage
    copied: Optional[int] = None  # extend: the copied N-element
    witness: Optional[int] = None  # outcome2: the A-element used
    replacements: tuple[int, ...] = ()  # outcome2: images given to the rest


@dataclass(frozen=True)
class ConstructionTrace:
    presentation: StagewisePresentation
    membership: Delta2Schedule
    enumeration: Sigma1Schedule
    horizon: int
    records: tuple[StageRecord, ...]
    status: str  # "completed" | "stuck"
    stuck_stage: Optional[int] = None
    facts: Mapping[tuple[str, tuple[int, ...]], bool] = field(default_factory=dict)
    limit_map: tuple[int, ...] = ()
    stabilization: tuple[int, ...] = ()  # last stage each image changed
    longest_wait: int = 0

    def corrected_member(self, elem: int, stage: int) -> bool:
        """Membership after forcing enumerated A-elements in."""
        return _corrected_at(self.membership, self.enumeration, stage)(elem)


def going_down_run(
    presentation: StagewisePresentation,
    membership: Delta2Schedule,
    enumeration: Sigma1Schedule,
    horizon: int,
) -> ConstructionTrace:
    """Execute the construction for ``horizon`` stages and return the trace.

    Each schedule checked itself when it was built; here they are made
    coherent with each other: an element counts as a member from the stage
    it enters A onward.  The horizon must lie past the last scripted flip
    and the last A entry.
    """
    structure = presentation.structure
    universe = structure.universe
    if not enumeration.target <= membership.target:
        raise IncoherentSchedule("A must be a subset of the target set")
    if not membership.target <= set(universe):
        raise IncoherentSchedule("target leaves the universe")
    off = sorted({ev.elem for ev in membership.flips}.difference(universe))
    if off:
        raise IncoherentSchedule(f"flip element {off[0]} leaves the universe")
    # Membership can change only where a flip or an A entry is scripted.
    scripted = {ev.stage for ev in membership.flips} | {s for _, s in enumeration.entries}
    if horizon <= max(scripted, default=0):
        raise IncoherentSchedule("horizon must lie past all scripted events")
    if len(presentation.signature_order) > len(membership.target):
        raise IncoherentSchedule("signature has more symbols than extension steps available")

    images: list[int] = []  # images[b] = f(b)
    settled: list[int] = []  # settled[b]: the last stage images[b] changed
    symbols: list[str] = []
    facts: dict[tuple[str, tuple[int, ...]], bool] = {}
    records: list[StageRecord] = []
    # None while the copy runs.  While a wait is open: the stage the copy
    # froze at, the preimages of the dropped images in image order, and
    # ran & members at that stage.
    frozen: Optional[tuple[int, list[int], frozenset[int]]] = None
    longest_wait = 0

    def commit(sym: str) -> None:
        """Pull back every missing fact of ``sym`` over the current copy.

        Every extension commits every revealed symbol, so a symbol revealed
        at an earlier extension misses only the tuples through the newest
        preimage, and one revealed now misses them all."""
        rel = structure.relations[sym]
        n = len(images)
        tuples = _through(n, rel.arity, {n - 1}) if sym in symbols else product(range(n), repeat=rel.arity)
        for tup in tuples:
            facts[(sym, tup)] = tuple(map(images.__getitem__, tup)) in rel.tuples

    def try_outcome2(stage: int, dropped: list[int]) -> Optional[tuple[int, tuple[int, ...]]]:
        """The first A-element for the least dropped image, with images for
        the other dropped preimages, that keeps every committed fact.  Each
        fact holds under the current images, so a candidate can break only
        those whose tuple holds a dropped preimage."""
        kept = {y for b, y in enumerate(images) if b not in dropped}
        watched = [
            (structure.relations[sym].tuples, tup, facts[(sym, tup)])
            for sym in symbols
            for tup in _through(len(images), structure.relations[sym].arity, set(dropped))
        ]
        for a in enumeration.at(stage):
            if a in kept:
                continue
            for repl in product(universe, repeat=len(dropped) - 1):
                candidate = list(images)
                for b, y in zip(dropped, (a, *repl)):
                    candidate[b] = y
                if len(set(candidate)) == len(candidate) and all(
                    (tuple(map(candidate.__getitem__, tup)) in tuples) == val for tuples, tup, val in watched
                ):
                    return a, repl
        return None

    def record(stage: int, event: str, **extra) -> None:
        records.append(
            StageRecord(stage, event, len(images), tuple(symbols), tuple(images), **extra)
        )

    members: frozenset[int] = frozenset()
    for stage in range(1, horizon + 1):
        if stage == 1 or stage in scripted:
            members = frozenset(filter(_corrected_at(membership, enumeration, stage), universe))
        ran = frozenset(images)
        if frozen is None:
            if ran <= members:
                fresh = members - ran
                if not fresh:
                    record(stage, "wait")
                    continue
                y = min(fresh)
                settled.append(stage)
                images.append(y)
                revealed = presentation.signature_order[len(symbols) : len(symbols) + 1]
                for sym in (*revealed, *symbols):
                    commit(sym)
                symbols.extend(revealed)
                record(stage, "extend", copied=y)
                continue
            # Some image dropped out of the approximation: freeze the copy.
            # Outcome 1 cannot hold on this stage; outcome 2 or a wait ends it.
            dropped = [images.index(y) for y in sorted(ran - members)]
            frozen = (stage, dropped, ran & members)

        since, dropped, held = frozen
        extra = {}
        if ran & members == held:
            hit = try_outcome2(stage, dropped)
            if hit is None:
                record(stage, "wait")
                continue
            a, repl = hit
            for b, y in zip(dropped, (a, *repl)):
                images[b] = y
                settled[b] = stage
            extra = {"witness": a, "replacements": repl}
        longest_wait = max(longest_wait, stage - since)
        frozen = None
        record(stage, "outcome2" if extra else "outcome1", **extra)

    return ConstructionTrace(
        presentation=presentation,
        membership=membership,
        enumeration=enumeration,
        horizon=horizon,
        records=tuple(records),
        status="stuck" if frozen else "completed",
        stuck_stage=frozen[0] if frozen else None,
        facts=facts,
        limit_map=tuple(images),
        stabilization=tuple(settled),
        longest_wait=longest_wait,
    )


def _through(n: int, arity: int, held: set[int]) -> list[tuple[int, ...]]:
    """The tuples of ``range(n)`` of the arity that hold an element of
    ``held``, in lexicographic order."""
    if arity == 0:
        return []
    inner = _through(n, arity - 1, held)
    every = list(product(range(n), repeat=arity - 1))
    return [(first, *rest) for first in range(n) for rest in (every if first in held else inner)]


def _broken_fact(
    structure: RelationalStructure,
    facts: Mapping[tuple[str, tuple[int, ...]], bool],
    images: Sequence[int],
) -> Optional[tuple[str, tuple[int, ...]]]:
    """The first committed fact that ``images`` breaks, or None."""
    for (sym, tup), val in facts.items():
        if (tuple(map(images.__getitem__, tup)) in structure.relations[sym].tuples) != val:
            return sym, tup
    return None


@dataclass(frozen=True)
class TraceReport:
    stabilized: bool
    permanence: bool
    isomorphism: bool
    surjective: bool
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.stabilized and self.permanence and self.isomorphism and self.surjective


def trace_verify(trace: ConstructionTrace, target: Iterable[int]) -> TraceReport:
    """Check a completed trace against the intended limit set.

    (a) every image stabilized on a member of the target, (b) an image
    never moves after landing in A, (c) the committed atomic diagram
    matches the induced substructure on the target under the limit map,
    over the full signature, (d) the limit map is onto the target.
    """
    m_set = frozenset(target)
    if trace.status != "completed":
        return TraceReport(False, False, False, False, f"run {trace.status}")

    stabilized = all(y in m_set for y in trace.limit_map)
    detail = "" if stabilized else "an image settled outside the target"

    permanence = True
    for prev, rec in zip(trace.records, trace.records[1:]):
        if rec.images[: prev.b_size] == prev.images:
            continue  # no image moved
        entered = set(trace.enumeration.at(prev.stage))
        for b in range(prev.b_size):
            if prev.images[b] in entered and rec.images[b] != prev.images[b]:
                permanence = False
                detail = detail or f"image of {b} moved after joining A at stage {rec.stage}"

    injective = len(set(trace.limit_map)) == len(trace.limit_map)
    symbols_done = (
        len(trace.records) > 0
        and set(trace.records[-1].symbols) == set(trace.presentation.signature_order)
    )
    broken = _broken_fact(trace.presentation.structure, trace.facts, trace.limit_map)
    if broken:
        detail = detail or f"fact {broken[0]}{broken[1]} disagrees under the limit map"
    isomorphism = injective and symbols_done and not broken
    if not symbols_done:
        detail = detail or "signature was not fully revealed"

    surjective = frozenset(trace.limit_map) == m_set
    if not surjective:
        detail = detail or "limit map is not onto the target"
    return TraceReport(stabilized, permanence, isomorphism, surjective, detail)


def delta2_acl_schedule(
    presentation: StagewisePresentation,
    bbar: Iterable[int],
    delay_script: Mapping[int, Sequence[int]] | None = None,
) -> Delta2Schedule:
    """Build a membership approximation whose limit is the closure of bbar.

    Membership truth is computed twice: directly, and through the exchange
    characterisation against a basis extension c_1..c_k (x belongs iff no
    c_i falls into the closure of bbar + x + earlier c's); the two must
    agree.  The delay script only schedules flip stages per element; the
    limit is script-independent.  An element with r scripted stages
    toggles r times and starts on the opposite parity, so it always
    settles on the truth.  ``Delta2Schedule`` refuses a repeated stage and,
    by its flip budget, more than three stages for one element.
    """
    m = presentation.matroid
    if m is None:
        raise InvalidStructure("presentation carries no matroid")
    base = frozenset(bbar)
    if not m.is_independent(base):
        raise NotExtendable("bbar is dependent, cannot extend to a basis")

    cs: list[int] = []
    for e in m.ground.elements:
        if e not in m.closure(base | frozenset(cs)):
            cs.append(e)

    target = m.closure(base)
    for x in m.ground.elements:
        direct = x in target
        via_exchange = all(
            cs[i] not in m.closure(base | {x} | frozenset(cs[:i]))
            for i in range(len(cs))
        )
        if direct != via_exchange:
            raise MatroidContractError("closure membership and exchange characterisation disagree")

    flips: list[FlipEvent] = []
    for x, stages in sorted((delay_script or {}).items()):
        stages = sorted(stages)
        truth = x in target
        for i, s in enumerate(stages):
            # Last flip lands on the truth; earlier ones alternate back.
            value = truth if (len(stages) - 1 - i) % 2 == 0 else not truth
            flips.append(FlipEvent(x, s, value))
    flips.sort(key=lambda ev: (ev.stage, ev.elem))
    return Delta2Schedule(target, tuple(flips))
