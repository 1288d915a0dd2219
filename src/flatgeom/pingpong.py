"""Ping-pong sequences: generation, verification and cycle search.

A configuration is a net X, two paddles a1, a2 independent over X, and a
start t1 outside cl(X + {a1, a2}).  Step i extends the sequence by some
t inside cl(X + {a_j, t_i}) but outside cl(X + {a_j}), distinct from t_i,
where the paddle alternates with the parity of i (step 1 uses a1).

A cycle alone does not show that a host is not flat: a cycle t, t', t
with t' in cl(X + {t}) bounces on the flat u23_plus_2_free, and a longer
cycle can pass through two elements parallel over the net X, on a flat
geometry (no loops, no parallel pairs) as well as through a parallel pair
of a flat pregeometry.
The element choices are made explicit here: the "least" strategy always
takes the smallest candidate id, "all-branches" explores the whole tree.

A ``Matroid`` keeps this module's work between calls in its ``_pingpong``
dict, one of each: under "steps", the step table of the last net as
(net, table), keyed by paddle and then by start (``_steps``); under
"config", the last configuration that passed its check, as
(config, (net, span)) (``PPSConfig._masks``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .errors import FlatgeomError, InvalidConfig, InvalidElement, InvalidSequence, check_int
from .matroid import Matroid, Memo, canon, elements_of

#: The longest sequence, t1 included, that a run follows unless told otherwise.
DEFAULT_BUDGET = 64


def _as_tuple(what: str, values, error: type[FlatgeomError]) -> tuple:
    """``values`` as a tuple, refused as ``error`` if it is not iterable."""
    try:
        return tuple(values)
    except TypeError:
        raise error(f"{what} must be an iterable of integers, got {values!r}") from None


@dataclass(frozen=True)
class PPSConfig:
    """Net, paddles and starting element of a ping-pong sequence."""

    net: tuple[int, ...]
    a1: int
    a2: int
    t1: int

    def __post_init__(self):
        net = _as_tuple("net", self.net, InvalidConfig)
        check_int("config element", *net, self.a1, self.a2, self.t1, error=InvalidConfig)
        object.__setattr__(self, "net", canon(net))

    @classmethod
    def of(cls, net: Iterable[int], a1: int, a2: int, t1: int) -> "PPSConfig":
        return cls(net, a1, a2, t1)

    def validate(self, m: Matroid) -> None:
        self._masks(m)

    def _masks(self, m: Matroid) -> tuple[int, int]:
        """``validate``, returning the masks of the net and of its span with
        the paddles, cl(net + {a1, a2}).  ``m`` keeps the last configuration
        that passed, with its masks, and answers an equal one from it; one
        that fails is not kept, so it fails the same way every time."""
        kept = m._pingpong.get("config")
        if kept is not None and (kept[0] is self or kept[0] == self):
            return kept[1]
        if self.a1 == self.a2:
            raise InvalidConfig("paddles must be distinct")
        x, pair, t1 = m._check(self.net), m._check((self.a1, self.a2)), m._check((self.t1,))
        if not m._independent_over(pair, x):
            raise InvalidConfig("paddles are not independent over the net")
        span = m._closure_mask(x | pair)
        if span & t1:
            raise InvalidConfig("t1 lies in the closure of net and paddles")
        m._pingpong["config"] = self, (x, span)
        return x, span

    def paddle(self, i: int) -> int:
        """Element used at step i (1-based); step 1 hits with a1."""
        return self.a1 if i % 2 == 1 else self.a2


@dataclass(frozen=True)
class PPSSequence:
    """A configuration and the elements t1, t2, ... of a sequence in it;
    ``ts`` must be an iterable of ints (InvalidSequence otherwise)."""

    config: PPSConfig
    ts: tuple[int, ...]

    def __post_init__(self):
        ts = _as_tuple("sequence", self.ts, InvalidSequence)
        check_int("sequence element", *ts, error=InvalidSequence)
        object.__setattr__(self, "ts", ts)

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


class _PaddleRows(dict):
    """The step rows of one paddle a over the net X: ``rows[t]`` is every
    element of cl(X + {a, t}) outside cl(X + {a}), t excepted, ascending,
    built when first read.  ``span`` is cl(X + {a}), closed once, when the
    paddle is first asked for."""

    def __init__(self, cl: Callable[[int], int], base: int):
        self.cl, self.base, self.span = cl, base, cl(base)

    def __missing__(self, t: int) -> tuple[int, ...]:
        row = self[t] = elements_of(self.cl(self.base | 1 << t) & ~self.span & ~(1 << t))
        return row


def _steps(m: Matroid, net: int) -> Memo:
    """The step rule over the net X (a mask), memoised by paddle:
    ``steps[a]`` is the ``_PaddleRows`` of a, so ``steps[a][t]`` is the row
    of the step from t with a, and ``steps[a].span`` is cl(X + {a}).

    ``m`` keeps the table of the one net asked for last, so ``pps_run``,
    ``pps_verify`` and ``pps_candidates`` on that net share its rows; asking
    for another net drops it.  A ``Matroid`` thus holds at most one step
    table, however many nets ``pps_find_cycle`` walks, next to the one
    configuration ``PPSConfig._masks`` kept."""
    kept = m._pingpong.get("steps")
    if kept is not None and kept[0] == net:
        return kept[1]
    cl = m._closure_mask
    steps = Memo(lambda a: _PaddleRows(cl, net | 1 << a))
    m._pingpong["steps"] = net, steps
    return steps


def _check_steps(steps: Memo, seq: PPSSequence) -> None:
    """Raise InvalidSequence at the first step of ``seq`` that breaks the
    step rule; its configuration must already be valid."""
    ts = seq.ts
    if not ts:
        raise InvalidSequence("sequence must contain t1")
    if ts[0] != seq.config.t1:
        raise InvalidSequence("sequence does not start at the configured t1")
    rows1, rows2 = steps[seq.config.a1], steps[seq.config.a2]
    for i in range(1, len(ts)):
        if ts[i] == ts[i - 1]:
            raise InvalidSequence(f"step {i} repeats its predecessor")
        if ts[i] not in (rows1 if i % 2 else rows2)[ts[i - 1]]:
            raise InvalidSequence(f"step {i} violates the ping-pong rule")


def pps_candidates(m: Matroid, seq: PPSSequence) -> list[int]:
    """All legal next elements, ascending, in a fresh list; empty means the
    PPS terminates."""
    cfg, ts = seq.config, seq.ts
    steps = _steps(m, cfg._masks(m)[0])
    _check_steps(steps, seq)
    return list(steps[cfg.paddle(len(ts))][ts[-1]])


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
    rows1, rows2, every = steps[config.a1], steps[config.a2], strategy == "all-branches"
    stack = [(config.t1,)]
    while stack:
        ts = stack.pop()
        n, t = len(ts), ts[-1]
        first = ts.index(t)
        if first < n - 1:
            yield PPSRun(PPSSequence(config, ts), "cycle", first + 1)
            continue
        cands = (rows1 if n % 2 else rows2)[t]
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

    # A later t off the ground set or negative is not in span.
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

    Each check is made once.  The paddles a1, a2 are independent over the
    net X iff a1 lies outside cl(X + {a2}) and a2 outside cl(X + {a1}); both
    are read from the step table's paddle spans, ``steps[a].span``, the one
    place cl(X + {a}) is closed.  Independence and the span cl(X + {a1, a2})
    do not depend on the paddles' order, so each unordered pair is tested
    once per net, when first met with a1 < a2, and read back for a2 < a1.
    A start t1 with no step from a1 (``steps[a1][t1]`` empty) is dead: its
    one run terminates at t1 whatever a2 is, so it is counted as searched
    but not run again for the later a2 of that a1.

    A live start is walked depth-first on an explicit stack of (t, depth,
    seen) triples, seen the mask of the elements before t, in the order of
    the "all-branches" runs of ``iter_runs``: children are pushed in reverse
    so the least pops first.  A popped t already in seen is a cycle; an
    empty step row ends its branch, and a nonempty one at depth ``budget``
    leaves absence uncertified.  Each pair's two paddle rows are taken once,
    so a step is one dict lookup.  A run is built only for the witness: at
    the first cycle, the start's runs are generated and the first cycle
    among them is returned.
    """
    check_int("budget", budget, least=1, error=InvalidSequence)
    exhausted = True
    searched = 0
    cl, ground, whole = m._closure_mask, m.ground.elements, m._ground_mask
    for net in m._closed_sets(m.full_rank - 3):
        steps, net_elems = _steps(m, net), elements_of(net)
        # The span of each pair, by mask.  A dependent one gets -1, which no
        # mask equals and which leaves no start outside it: a table off the
        # axioms may give an independent pair the span 0.
        spans: dict[int, int] = {}
        for a1 in ground:
            rows1, dead = steps[a1], 0
            for a2 in ground:
                if a1 == a2:
                    continue
                rows2, pair = steps[a2], 1 << a1 | 1 << a2
                if a1 < a2:
                    dependent = rows2.span >> a1 & 1 or rows1.span >> a2 & 1
                    spans[pair] = -1 if dependent else cl(net | pair)
                outside = whole & ~spans[pair]
                live = outside & ~dead
                while live:
                    low = live & -live
                    live ^= low
                    t1 = low.bit_length() - 1
                    if not rows1[t1]:
                        dead |= low
                        continue
                    stack = [(t1, 1, 0)]
                    while stack:
                        t, depth, seen = stack.pop()
                        if seen >> t & 1:
                            # The checks above are PPSConfig.validate.
                            cfg = PPSConfig(net_elems, a1, a2, t1)
                            runs = _runs(steps, cfg, "all-branches", budget)
                            found = searched + (outside & (low << 1) - 1).bit_count()
                            return CycleSearch("found", next(r for r in runs if r.status == "cycle"), found)
                        cands = (rows1 if depth % 2 else rows2)[t]
                        if cands and depth >= budget:
                            exhausted = False
                        elif cands:
                            stack.extend([(c, depth + 1, seen | 1 << t) for c in reversed(cands)])
                searched += outside.bit_count()
    return CycleSearch("none" if exhausted else "budget-exceeded", None, searched)
