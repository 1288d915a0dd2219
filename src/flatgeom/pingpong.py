"""Ping-pong sequences: generation, verification and cycle search.

A configuration is a net X, two paddles a1, a2 independent over X, and a
start t1 outside cl(X + {a1, a2}).  Step i extends the sequence by some
t inside cl(X + {a_j, t_i}) but outside cl(X + {a_j}), distinct from t_i,
where the paddle alternates with the parity of i (step 1 uses a1).

On a geometry (no loops, no parallel pairs), each cycle of length >= 3 on
the hosts checked came with Mason's alpha < 0, so the host is not flat; a
cycle t, t', t with t' in cl(X + {t}) bounces on the flat u23_plus_2_free,
and a flat pregeometry may hold a longer cycle through a parallel pair.
The element choices are made explicit here: the "least" strategy always
takes the smallest candidate id, "all-branches" explores the whole tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import InvalidConfig, InvalidElement, InvalidSequence, check_int
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
        self._masks(m)

    def _masks(self, m: Matroid) -> tuple[int, int]:
        """``validate``, returning the masks of the net and of its span with
        the paddles, cl(net + {a1, a2})."""
        if self.a1 == self.a2:
            raise InvalidConfig("paddles must be distinct")
        x, pair, t1 = m._check(self.net), m._check((self.a1, self.a2)), m._check((self.t1,))
        if not m._independent_over(pair, x):
            raise InvalidConfig("paddles are not independent over the net")
        span = m._closure_mask(x | pair)
        if span & t1:
            raise InvalidConfig("t1 lies in the closure of net and paddles")
        return x, span

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


def _check_steps(steps: Memo, seq: PPSSequence) -> None:
    """Raise InvalidSequence at the first step of ``seq`` that breaks the
    step rule; its configuration must already be valid."""
    ts, a1, a2 = seq.ts, seq.config.a1, seq.config.a2
    if not ts:
        raise InvalidSequence("sequence must contain t1")
    if ts[0] != seq.config.t1:
        raise InvalidSequence("sequence does not start at the configured t1")
    for i in range(1, len(ts)):
        if ts[i] == ts[i - 1]:
            raise InvalidSequence(f"step {i} repeats its predecessor")
        if ts[i] not in steps[a1 if i % 2 else a2, ts[i - 1]]:
            raise InvalidSequence(f"step {i} violates the ping-pong rule")


def pps_candidates(m: Matroid, seq: PPSSequence) -> list[int]:
    """All legal next elements, ascending, in a fresh list; empty means the
    PPS terminates."""
    cfg, ts = seq.config, seq.ts
    steps = _steps(m, cfg._masks(m)[0])
    _check_steps(steps, seq)
    return list(steps[cfg.paddle(len(ts)), ts[-1]])


def iter_runs(m: Matroid, config: PPSConfig, strategy: str = "least", budget: int = DEFAULT_BUDGET):
    """Maximal runs, lazily, depth-first in candidate order; the arguments
    are checked at the call, before the first run is asked for."""
    check_int("budget", budget, least=1, error=InvalidSequence)
    net = config._masks(m)[0]
    if strategy not in ("least", "all-branches"):
        raise InvalidSequence(f"unknown strategy {strategy!r}")
    return _runs(_steps(m, net), config, strategy, budget)


def _runs(steps: Memo, config: PPSConfig, strategy: str, budget: int):
    """``iter_runs`` with its arguments trusted: a depth-first walk of the
    prefixes from (t1,) on an explicit stack, children pushed in reverse so
    the least pops first.  A prefix whose last element repeats an earlier
    one is a cycle and is not extended."""
    a1, a2, every = config.a1, config.a2, strategy == "all-branches"
    stack = [(config.t1,)]
    while stack:
        ts = stack.pop()
        n, t = len(ts), ts[-1]
        first = ts.index(t)
        if first < n - 1:
            yield PPSRun(PPSSequence(config, ts), "cycle", first + 1)
            continue
        cands = steps[a1 if n % 2 else a2, t]
        if not cands:
            yield PPSRun(PPSSequence(config, ts), "terminated")
        elif n >= budget:
            yield PPSRun(PPSSequence(config, ts), "budget")
        elif every:
            stack.extend([ts + (c,) for c in reversed(cands)])
        else:
            stack.append(ts + cands[:1])


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
    try:
        net, span = seq.config._masks(m)
    except (InvalidConfig, InvalidElement) as e:
        return PPSReport(False, False, False, False, str(e))
    try:
        _check_steps(_steps(m, net), seq)
        steps_valid, detail = True, ""
    except InvalidSequence as e:
        steps_valid, detail = False, str(e)

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

    Each check is made once.  Whether the paddles are independent over the
    net, and their span cl(net + {a1, a2}), do not depend on the paddles'
    order, so each unordered pair is tested once per net, when first met.
    A start t1 with no step from a1 (``steps[a1, t1]`` empty) is dead: its
    one run terminates at t1 whatever a2 is, so it is counted as searched
    but not run again for the later a2 of that a1.
    """
    check_int("budget", budget, least=1, error=InvalidSequence)
    exhausted = True
    searched = 0
    cl, ground, whole = m._closure_mask, m.ground.elements, m._ground_mask
    for net in m._closed_sets(m.full_rank - 3):
        steps, net_elems = _steps(m, net), elements_of(net)
        # The span of each independent pair.  A dependent one gets -1, which
        # no mask equals and which leaves no start outside it: a table off
        # the axioms may give an independent pair the span 0.
        spans = Memo(lambda pair: cl(net | pair) if m._independent_over(pair, net) else -1)
        for a1 in ground:
            dead = 0
            for a2 in ground:
                if a1 == a2:
                    continue
                outside = whole & ~spans[1 << a1 | 1 << a2]
                live = outside & ~dead
                while live:
                    low = live & -live
                    live ^= low
                    t1 = low.bit_length() - 1
                    if not steps[a1, t1]:
                        dead |= low
                        continue
                    # The checks above are PPSConfig.validate.
                    for run in _runs(steps, PPSConfig(net_elems, a1, a2, t1), "all-branches", budget):
                        if run.status == "cycle":
                            found = searched + (outside & (low << 1) - 1).bit_count()
                            return CycleSearch("found", run, found)
                        if run.status == "budget":
                            exhausted = False
                searched += outside.bit_count()
    return CycleSearch("none" if exhausted else "budget-exceeded", None, searched)
