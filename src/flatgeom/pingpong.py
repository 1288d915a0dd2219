"""Ping-pong sequences: generation, verification and cycle search.

A configuration is a net X, two paddles a1, a2 independent over X, and a
start t1 outside cl(X + {a1, a2}).  Step i extends the sequence by some
t inside cl(X + {a_j, t_i}) but outside cl(X + {a_j}), distinct from t_i,
where the paddle alternates with the parity of i (step 1 uses a1).

In a flat geometry (no loops, no parallel pairs) such sequences never
repeat an element, so they terminate and a repeat (cycle) certifies
non-flatness; a flat pregeometry may hold a cycle through a parallel pair.
The element choices are made explicit here: the "least" strategy always
takes the smallest candidate id, "all-branches" explores the whole tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import InvalidConfig, InvalidElement, InvalidSequence
from .matroid import Matroid, Memo, canon, elements_of

#: The longest sequence, t1 included, that a run follows unless told otherwise.
DEFAULT_BUDGET = 64


@dataclass(frozen=True)
class PPSConfig:
    """Net, paddles and starting element of a ping-pong sequence."""

    net: tuple[int, ...]
    a1: int
    a2: int
    t1: int

    @classmethod
    def of(cls, net: Iterable[int], a1: int, a2: int, t1: int) -> "PPSConfig":
        return cls(canon(net), a1, a2, t1)

    def validate(self, m: Matroid) -> None:
        if self.a1 == self.a2:
            raise InvalidConfig("paddles must be distinct")
        x, pair, t1 = m._check(self.net), m._check((self.a1, self.a2)), m._check((self.t1,))
        if not m._independent_over(pair, x):
            raise InvalidConfig("paddles are not independent over the net")
        if m._closure_mask(x | pair) & t1:
            raise InvalidConfig("t1 lies in the closure of net and paddles")

    def paddle(self, i: int) -> int:
        """Element used at step i (1-based); step 1 hits with a1."""
        return self.a1 if i % 2 == 1 else self.a2


@dataclass(frozen=True)
class PPSSequence:
    config: PPSConfig
    ts: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.ts)


@dataclass(frozen=True)
class PPSRun:
    """A maximal sequence plus how it stopped.

    status is "terminated" (no legal successor), "cycle" (the chosen
    successor equals an earlier element; it is still appended, and
    ``repeat_index`` is the 1-based position of the earlier occurrence),
    or "budget" (length cap reached with candidates remaining).
    """

    sequence: PPSSequence
    status: str
    repeat_index: Optional[int] = None

    @property
    def cycle_length(self) -> Optional[int]:
        if self.status != "cycle":
            return None
        return len(self.sequence.ts) - self.repeat_index


@dataclass(frozen=True)
class PPSReport:
    config_valid: bool
    steps_valid: bool
    outside_paddle_span: bool
    injective: bool
    detail: str = ""

    @property
    def ok(self) -> bool:
        return (
            self.config_valid
            and self.steps_valid
            and self.outside_paddle_span
            and self.injective
        )


@dataclass(frozen=True)
class CycleSearch:
    """Result of the exhaustive cycle hunt.

    status "found" carries the least witness under the documented search
    order; "none" means the search space was exhausted; "budget-exceeded"
    means some branch hit the length cap, so absence is not certified.
    """

    status: str
    run: Optional[PPSRun] = None
    configs_searched: int = 0


def _steps(m: Matroid, net: int) -> Memo:
    """The step rule over the net X (a mask), memoised: ``steps[a, t]`` is
    every element of cl(X + {a, t}) outside cl(X + {a}), t excepted,
    ascending, built when first read.

    ``m`` keeps the table of the one net asked for last, so ``pps_run``,
    ``pps_verify`` and ``pps_candidates`` on that net share its rows; asking
    for another net drops it.  A ``Matroid`` thus holds at most one step
    table, however many nets ``pps_find_cycle`` walks."""
    if m._net_steps is not None and m._net_steps[0] == net:
        return m._net_steps[1]
    cl = m._closure_mask

    def row(key: tuple[int, int]) -> tuple[int, ...]:
        a, t = key
        base = net | 1 << a
        return elements_of(cl(base | 1 << t) & ~cl(base) & ~(1 << t))

    steps = Memo(row)
    m._net_steps = net, steps
    return steps


def _successors(steps: Memo, cfg: PPSConfig, ts: tuple[int, ...]) -> tuple[int, ...]:
    """Legal next elements after ``ts``, ascending: with t the last element
    and a the paddle of step len(ts), ``steps[a, t]``."""
    return steps[cfg.paddle(len(ts)), ts[-1]]


def _check_steps(steps: Memo, seq: PPSSequence) -> None:
    """Raise InvalidSequence at the first step of ``seq`` that breaks the
    step rule; its configuration must already be valid."""
    ts = seq.ts
    if not ts:
        raise InvalidSequence("sequence must contain t1")
    if ts[0] != seq.config.t1:
        raise InvalidSequence("sequence does not start at the configured t1")
    for i in range(1, len(ts)):
        if ts[i] == ts[i - 1]:
            raise InvalidSequence(f"step {i} repeats its predecessor")
        if ts[i] not in _successors(steps, seq.config, ts[:i]):
            raise InvalidSequence(f"step {i} violates the ping-pong rule")


def pps_candidates(m: Matroid, seq: PPSSequence) -> list[int]:
    """All legal next elements, ascending, in a fresh list; empty means the
    PPS terminates."""
    seq.config.validate(m)
    steps = _steps(m, m._check(seq.config.net))
    _check_steps(steps, seq)
    return list(_successors(steps, seq.config, seq.ts))


def iter_runs(m: Matroid, config: PPSConfig, strategy: str = "least", budget: int = DEFAULT_BUDGET):
    """Yield maximal runs lazily, depth-first in candidate order."""
    if budget < 1:
        raise InvalidSequence("budget must be >= 1")
    config.validate(m)
    if strategy not in ("least", "all-branches"):
        raise InvalidSequence(f"unknown strategy {strategy!r}")
    yield from _runs(_steps(m, m._check(config.net)), config, strategy, budget, (config.t1,))


def _runs(steps: Memo, config: PPSConfig, strategy: str, budget: int, ts: tuple[int, ...]):
    """``iter_runs`` from the prefix ``ts``, with its arguments trusted."""
    cands = _successors(steps, config, ts)
    if not cands:
        yield PPSRun(PPSSequence(config, ts), "terminated")
        return
    if len(ts) >= budget:
        yield PPSRun(PPSSequence(config, ts), "budget")
        return
    for c in cands if strategy == "all-branches" else cands[:1]:
        if c in ts:
            yield PPSRun(PPSSequence(config, ts + (c,)), "cycle", ts.index(c) + 1)
        else:
            yield from _runs(steps, config, strategy, budget, ts + (c,))


def pps_run(
    m: Matroid, config: PPSConfig, strategy: str = "least", budget: int = DEFAULT_BUDGET
) -> list[PPSRun]:
    """Run the generation procedure.

    "least" returns the single greedy run; "all-branches" returns every
    maximal sequence of the full candidate tree, in depth-first (lexicographic)
    order.  ``budget`` caps sequence length, t1 included.
    """
    return list(iter_runs(m, config, strategy, budget))


def pps_verify(m: Matroid, seq: PPSSequence) -> PPSReport:
    """Report step-validity, the outside-the-paddle-span property, and
    injectivity of a sequence.  Never raises; failures land in the report."""
    cfg = seq.config
    try:
        cfg.validate(m)
    except (InvalidConfig, InvalidElement) as e:
        return PPSReport(False, False, False, False, str(e))
    try:
        _check_steps(_steps(m, m._check(cfg.net)), seq)
        steps_valid, detail = True, ""
    except InvalidSequence as e:
        steps_valid, detail = False, str(e)

    span = m._closure_mask(m._check((*cfg.net, cfg.a1, cfg.a2)))
    # A later t may be any int, off the ground set or negative: not in span.
    outside = not any(t >= 0 and span >> t & 1 for t in seq.ts)
    injective = len(set(seq.ts)) == len(seq.ts)
    return PPSReport(True, steps_valid, outside, injective, detail)


def pps_find_cycle(m: Matroid, budget: int = DEFAULT_BUDGET) -> CycleSearch:
    """Search every configuration and every branch for a cyclic PPS.

    Configurations come net by net, then ordered paddle pairs and starts
    ascending.  The nets are the flats of rank <= rank(ground) - 3 in
    (size, lex) order: a configuration depends on its net only through the
    net's closure, and any valid configuration forces rank(net) + 3 <=
    rank(ground), so these flats cover every configuration up to
    equivalence.  The first cycle in this fixed order is returned as the
    least witness.
    """
    if budget < 1:
        raise InvalidSequence("budget must be >= 1")
    exhausted = True
    searched = 0
    cl, ground = m._closure_mask, m.ground.elements
    for net in m._closed_sets(m.full_rank - 3):
        steps, net_elems = _steps(m, net), elements_of(net)
        for a1 in ground:
            for a2 in ground:
                if a1 == a2:
                    continue
                pair = 1 << a1 | 1 << a2
                if not m._independent_over(pair, net):
                    continue
                span = cl(net | pair)
                for t1 in ground:
                    if span >> t1 & 1:
                        continue
                    # The checks above are PPSConfig.validate.
                    searched += 1
                    if not steps[a1, t1]:
                        continue  # its one run terminates at t1
                    cfg = PPSConfig(net_elems, a1, a2, t1)
                    for run in _runs(steps, cfg, "all-branches", budget, (t1,)):
                        if run.status == "cycle":
                            return CycleSearch("found", run, searched)
                        if run.status == "budget":
                            exhausted = False
    return CycleSearch("none" if exhausted else "budget-exceeded", None, searched)
