import gc
import hashlib
import random
import re
import weakref
from itertools import product

import pytest

from conftest import powerset, ref_flats, seeded_nonbases
from flatgeom import corpus, pingpong
from flatgeom.errors import InvalidConfig, InvalidElement, InvalidSequence
from flatgeom.matroid import (
    Matroid,
    closure_table_matroid,
    linear_matroid,
    sparse_paving_matroid,
    table_from_matroid,
    uniform_matroid,
)
from flatgeom.pingpong import (
    CycleSearch,
    PPSConfig,
    PPSReport,
    PPSRun,
    PPSSequence,
    iter_runs,
    pps_candidates,
    pps_find_cycle,
    pps_run,
    pps_verify,
)

# gf2_3 ids: 0=e3, 1=e2, 2=e2+e3, 3=e1, 4=e1+e3, 5=e1+e2, 6=e1+e2+e3
GF2_CFG = PPSConfig.of((), a1=3, a2=1, t1=0)
# Forced by unique candidates at each step; repeats t1 after four hits.
GF2_FORCED = (0, 4, 6, 2, 0)


class TestCandidates:
    def test_gf2_first_step_is_forced(self, gf2):
        seq = PPSSequence(GF2_CFG, (0,))
        assert pps_candidates(gf2, seq) == [4]  # e1+e3

    def test_uniform_terminates_immediately(self):
        m = uniform_matroid(3, 6)
        cfg = PPSConfig.of((), 0, 1, 2)
        assert pps_candidates(m, PPSSequence(cfg, (2,))) == []

    def test_rank_two_geometry_hosts_no_config(self):
        m = uniform_matroid(2, 3)
        for a1 in range(3):
            for a2 in range(3):
                if a1 == a2:
                    continue
                for t1 in range(3):
                    with pytest.raises(InvalidConfig):
                        PPSConfig.of((), a1, a2, t1).validate(m)

    def test_invalid_sequence_rejected(self, gf2):
        seq = PPSSequence(GF2_CFG, (0, 6))  # 6 not in cl(e1, e3)
        with pytest.raises(InvalidSequence):
            pps_candidates(gf2, seq)

    def test_returned_list_is_the_callers_own(self, gf2):
        seq = PPSSequence(GF2_CFG, (0,))
        pps_candidates(gf2, seq).append(99)
        assert pps_candidates(gf2, seq) == [4]
        assert [r.sequence.ts for r in pps_run(gf2, GF2_CFG, "all-branches", 32)] == [GF2_FORCED]


class TestRun:
    def test_forced_cycle(self, gf2):
        runs = pps_run(gf2, GF2_CFG, "least", 32)
        assert len(runs) == 1
        run = runs[0]
        assert run.sequence.ts == GF2_FORCED
        assert run.status == "cycle"
        assert run.repeat_index == 1
        assert run.cycle_length == 4

    def test_uniform_single_terminated_run(self):
        m = uniform_matroid(3, 6)
        runs = pps_run(m, PPSConfig.of((), 0, 1, 2), "least", 8)
        assert len(runs) == 1
        assert runs[0].sequence.ts == (2,)
        assert runs[0].status == "terminated"

    def test_budget_cuts_prefix(self, gf2):
        runs = pps_run(gf2, GF2_CFG, "least", 2)
        assert runs[0].sequence.ts == GF2_FORCED[:2]
        assert runs[0].status == "budget"

    @pytest.mark.parametrize(
        "cfg, strategy, budget, error, message",
        [
            (GF2_CFG, "least", 0, InvalidSequence, "budget must be >= 1, got 0"),
            (GF2_CFG, "bogus", 8, InvalidSequence, "unknown strategy 'bogus'"),
            (PPSConfig.of((), 3, 3, 0), "least", 8, InvalidConfig, "paddles must be distinct"),
        ],
        ids=["budget", "strategy", "config"],
    )
    def test_iter_runs_refuses_at_the_call(self, gf2, cfg, strategy, budget, error, message):
        # No next(): the refusal comes before the first run is asked for.
        with pytest.raises(error) as refused:
            iter_runs(gf2, cfg, strategy, budget)
        assert str(refused.value) == message

    def test_all_branches_on_gf2_is_the_forced_run(self, gf2):
        runs = pps_run(gf2, GF2_CFG, "all-branches", 32)
        assert [r.sequence.ts for r in runs] == [GF2_FORCED]


class TestVerify:
    def test_forced_run_report(self, gf2):
        report = pps_verify(gf2, PPSSequence(GF2_CFG, GF2_FORCED))
        assert report.config_valid and report.steps_valid
        assert report.outside_paddle_span
        assert not report.injective  # the repeat is the point

    def test_length_one_sequence_all_hold(self, gf2):
        report = pps_verify(gf2, PPSSequence(GF2_CFG, (0,)))
        assert report.ok

    def test_start_off_the_ground_set_is_an_invalid_config(self, gf2):
        cfg = PPSConfig.of((), a1=3, a2=1, t1=99)
        report = pps_verify(gf2, PPSSequence(cfg, (99,)))
        assert not report.config_valid
        assert report.detail == "element ids [99] not in ground set"

    @pytest.mark.parametrize("stray", [7, 99, -1])
    def test_later_id_off_the_ground_set_is_an_invalid_step(self, gf2, stray):
        # gf2_3 has ids 0..6; the stray id sits after a valid prefix and
        # also as the last element, and neither raises.
        for ts in ((0, stray), (0, 4, stray, 2), GF2_FORCED + (stray,)):
            report = pps_verify(gf2, PPSSequence(GF2_CFG, ts))
            assert report.config_valid and not report.steps_valid, ts
            assert report.detail.startswith(f"step {ts.index(stray)} "), ts

    def test_consecutive_window_is_again_valid(self, gf2):
        # Re-based on its start, with paddles swapped when the window
        # starts at an even index.
        ts = GF2_FORCED
        for start in range(len(ts) - 1):
            if start % 2 == 0:
                cfg = PPSConfig.of((), GF2_CFG.a1, GF2_CFG.a2, ts[start])
            else:
                cfg = PPSConfig.of((), GF2_CFG.a2, GF2_CFG.a1, ts[start])
            window = ts[start : start + 2]
            report = pps_verify(gf2, PPSSequence(cfg, window))
            assert report.config_valid and report.steps_valid


def ref_runs(m, cfg, strategy, budget, ts=None):
    """The run tree by recursion on the public step rule, ``pps_candidates``:
    every maximal run depth-first in candidate order ("least" follows the
    first candidate only), a repeat closing the run as a cycle."""
    ts = ts or (cfg.t1,)
    cands = pps_candidates(m, PPSSequence(cfg, ts))
    if not cands:
        yield PPSRun(PPSSequence(cfg, ts), "terminated")
    elif len(ts) >= budget:
        yield PPSRun(PPSSequence(cfg, ts), "budget")
    else:
        for c in cands if strategy == "all-branches" else cands[:1]:
            if c in ts:
                yield PPSRun(PPSSequence(cfg, ts + (c,)), "cycle", ts.index(c) + 1)
            else:
                yield from ref_runs(m, cfg, strategy, budget, ts + (c,))


def ref_verify(m, seq) -> PPSReport:
    """``pps_verify`` on the public API: ``validate``, ``pps_candidates``
    on each prefix, and ``Matroid.closure`` for the paddle span."""
    cfg, ts = seq.config, seq.ts
    try:
        cfg.validate(m)
    except (InvalidConfig, InvalidElement) as e:
        return PPSReport(False, False, False, False, str(e))
    detail = ""
    if not ts:
        detail = "sequence must contain t1"
    elif ts[0] != cfg.t1:
        detail = "sequence does not start at the configured t1"
    else:
        for i in range(1, len(ts)):
            if ts[i] == ts[i - 1]:
                detail = f"step {i} repeats its predecessor"
                break
            if ts[i] not in pps_candidates(m, PPSSequence(cfg, ts[:i])):
                detail = f"step {i} violates the ping-pong rule"
                break
    span = m.closure((*cfg.net, cfg.a1, cfg.a2))
    return PPSReport(True, not detail, not set(ts) & span, len(set(ts)) == len(ts), detail)


def outcome(f, *args):
    """``f(*args)``, or the type and message of the config error it raises."""
    try:
        return f(*args)
    except (InvalidConfig, InvalidElement) as e:
        return type(e), str(e)


class TestRunOrder:
    @pytest.mark.parametrize("budget", [1, 2, 3, 8])
    def test_runs_and_reports_match_the_recursive_reference(self, scan_corpus, budget):
        # Every config over the nets of rank <= max(rank - 3, 0), valid or
        # not.  Each run is verified as generated and with its last element
        # replaced by an id off the ground set; on gf3_3, whose tree holds
        # 80 028 runs at budget 8, only the runs of configs with a1 = 0.
        for name, m in scan_corpus.items():
            ground = m.ground.elements
            stray = (-1, ground[-1] + 1)
            nets = [net for net in ref_flats(m) if m.rank(net) <= max(m.full_rank - 3, 0)]
            for net, (a1, a2, t1) in product(nets, product(ground, repeat=3)):
                cfg = PPSConfig.of(net, a1, a2, t1)
                for strategy in ("least", "all-branches"):
                    runs = outcome(pps_run, m, cfg, strategy, budget)
                    assert runs == outcome(lambda: list(ref_runs(m, cfg, strategy, budget))), (
                        name, cfg, strategy,
                    )
                    if not isinstance(runs, list) or name == "gf3_3" and a1 != 0:
                        continue
                    for run in runs:
                        ts = run.sequence.ts
                        for seq in (run.sequence, *(PPSSequence(cfg, ts[:-1] + (s,)) for s in stray)):
                            assert pps_verify(m, seq) == ref_verify(m, seq), (name, seq)


def sparse_paving_12():
    """A rank-4 sparse paving host on 12 elements with eight nonbases, on
    which the cycle search finds no cycle."""
    nonbases = [(0, 1, 2, 10), (0, 8, 9, 10), (1, 3, 5, 9), (2, 3, 5, 11),
                (3, 7, 10, 11), (2, 4, 5, 7), (4, 5, 6, 10), (6, 7, 8, 11)]
    return sparse_paving_matroid(12, 4, nonbases)


def step_rows(steps) -> dict:
    """The rows built in a step table, flattened to ``{(a, t): row}``."""
    return {(a, t): row for a, rows in steps.items() for t, row in rows.items()}


class TestSharedStepTable:
    def test_verifying_generated_runs_builds_no_step_row(self):
        m = corpus.gf3_3()
        cfg = PPSConfig.of((), 0, 1, 4)
        runs = pps_run(m, cfg, "all-branches", 8)
        net, steps = m._pingpong["steps"]
        built = step_rows(steps)
        assert len(runs) == 56 and net == 0 and built
        for run in runs:
            assert pps_verify(m, run.sequence).steps_valid
            # The run was generated by extending this prefix.
            pps_candidates(m, PPSSequence(cfg, run.sequence.ts[:-1]))
        assert m._pingpong["steps"][1] is steps and step_rows(steps) == built

    def test_verifying_generated_runs_checks_their_config_once(self, monkeypatch):
        # The runs come from another Matroid of the same host, so the first
        # verify checks the config; the rest, and an equal config built
        # anew, are answered from the one the Matroid kept.
        gf3 = corpus.gf3_3()
        cfg = PPSConfig.of((), 0, 1, 4)
        runs = pps_run(gf3, cfg, "all-branches", 8)
        m, calls = Matroid(gf3.ground, gf3.oracle), []
        independent_over = Matroid._independent_over

        def counting(self, s, base):
            calls.append(s)
            return independent_over(self, s, base)

        monkeypatch.setattr(Matroid, "_independent_over", counting)
        assert len(runs) == 56
        assert all(pps_verify(m, run.sequence).steps_valid for run in runs)
        assert pps_verify(m, PPSSequence(PPSConfig.of((), 0, 1, 4), runs[0].sequence.ts)).steps_valid
        assert len(calls) == 1

    def test_an_invalid_config_fails_the_same_way_every_time(self):
        # A config that fails its check is not kept, so a valid one checked
        # in between neither hides nor changes its failure.
        m = corpus.gf3_3()
        valid = PPSSequence(PPSConfig.of((), 0, 1, 4), (4,))
        spanned = min(m.closure((0, 1)) - {0, 1})
        invalid = [
            PPSConfig.of((), 0, 0, 4),
            PPSConfig.of((), 0, 1, 99),
            PPSConfig.of((0,), 0, 1, 4),
            PPSConfig.of((), 0, 1, spanned),
        ]
        for cfg in invalid:
            seq = PPSSequence(cfg, (cfg.t1,))
            first = pps_verify(m, seq)
            assert not first.config_valid and first.detail, cfg
            assert pps_verify(m, valid).ok
            assert pps_verify(m, seq) == pps_verify(m, seq) == first, cfg
            with pytest.raises((InvalidConfig, InvalidElement), match=re.escape(first.detail)):
                pps_candidates(m, seq)

    def test_cycle_search_keeps_only_the_last_nets_table(self):
        m = uniform_matroid(5, 8)
        assert pps_find_cycle(m, 8).status == "none"
        *_, last = m._closed_sets(m.full_rank - 3)
        net, steps = m._pingpong["steps"]
        assert net == last and steps
        # A run on another net replaces the table instead of adding one.
        pps_run(m, PPSConfig.of((), 0, 1, 2), "least", 8)
        assert m._pingpong["steps"][0] == 0 and m._pingpong["steps"][1] is not steps

    @pytest.mark.parametrize(
        "make, searched, masks",
        [(lambda: uniform_matroid(5, 10), 20880, 386), (sparse_paving_12, 13008, 299)],
    )
    def test_cold_search_closes_each_mask_once(self, make, searched, masks):
        # The paddle spans cl(X + {a}) that the independence test reads are
        # the step table's: no span is closed by a second owner, and the
        # memo holds the masks of the closures the search needs, no more.
        m = make()
        assert answer(pps_find_cycle(m)) == ("none", searched, None)
        assert len(m._closures) == masks


class TestNoReferenceCycle:
    def test_a_used_matroid_is_freed_without_the_collector(self):
        # The step table, the kept config and the closure memo refer to no
        # Matroid, so reference counting alone frees one after use.
        hosts = [
            corpus.gf3_3,
            lambda: corpus.pps_chain(6),
            lambda: closure_table_matroid(7, table_from_matroid(corpus.gf2_3())),
        ]
        gc.disable()
        try:
            for make in hosts:
                m = make()
                ground = m.ground.elements
                pps_find_cycle(m, 8)
                cfg = next(cfg for cfg in (PPSConfig.of((), *c) for c in product(ground, repeat=3))
                           if outcome(cfg.validate, m) is None)
                for run in pps_run(m, cfg, "all-branches", 8):
                    pps_verify(m, run.sequence)
                assert m.verify_pregeometry(max_ground=len(ground)).ok
                ref = weakref.ref(m)
                del m
                assert ref() is None, make
        finally:
            gc.enable()


def ref_find_cycle(m, budget) -> CycleSearch:
    """The cycle search through the public checks: every configuration over
    the brute-force flats of rank <= rank - 3, validated one by one, then
    run with ``iter_runs``."""
    exhausted, searched = True, 0
    ground = m.ground.elements
    for net in ref_flats(m):
        if m.rank(net) > m.full_rank - 3:
            continue
        for a1, a2, t1 in product(ground, repeat=3):
            cfg = PPSConfig.of(net, a1, a2, t1)
            try:
                cfg.validate(m)
            except InvalidConfig:
                continue
            searched += 1
            for run in iter_runs(m, cfg, "all-branches", budget):
                if run.status == "cycle":
                    return CycleSearch("found", run, searched)
                exhausted = exhausted and run.status != "budget"
    return CycleSearch("none" if exhausted else "budget-exceeded", None, searched)


def sparse_paving_8():
    """A seeded rank-3 sparse paving host on 8 elements with five lines;
    its least witness, at budget 8 or more, starts at t1 = 3, after the
    pair's first start 0."""
    return sparse_paving_matroid(8, 3, seeded_nonbases(random.Random(0), 8, 3, 12))


#: Hosts past ``scan_corpus`` where each paddle pair is met in both orders
#: and many starts are dead: U(4,7) has eight nets, pps_chain(6) is flat.
LARGER_HOSTS = {
    "U(4,7)": lambda: uniform_matroid(4, 7),
    "pps_chain(6)": lambda: corpus.pps_chain(6),
    "sparse_paving(8,3)#0": sparse_paving_8,
}


def scrambled_tables(count: int):
    """``count`` seeded closure tables of 4 to 6 elements that break the
    axioms: a uniform table of rank >= 3 or a GF(2) table of rank <= 3,
    with one to four entries replaced by a random subset or, three times
    in ten, by the empty set."""
    rng = random.Random("pps-scrambled-tables")
    out = []
    while len(out) < count:
        n = rng.randint(4, 6)
        subs = [frozenset(s) for s in powerset(range(n))]
        if rng.random() < 0.5:
            base = uniform_matroid(rng.randint(3, n), n)
        else:
            base = linear_matroid(2, [[rng.randrange(2) for _ in range(3)] for _ in range(n)])
        table = table_from_matroid(base)
        for _ in range(rng.randint(1, 4)):
            table[rng.choice(subs)] = frozenset() if rng.random() < 0.3 else rng.choice(subs)
        m = closure_table_matroid(n, table)
        if not m.verify_pregeometry().ok:
            out.append(m)
    return out


def answer(res: CycleSearch) -> tuple:
    """Status, count and witness (net, paddles, ts, repeat index)."""
    if res.run is None:
        return res.status, res.configs_searched, None
    cfg, ts = res.run.sequence.config, res.run.sequence.ts
    return res.status, res.configs_searched, (cfg.net, cfg.a1, cfg.a2, ts, res.run.repeat_index)


class TestCycleSearch:
    @pytest.mark.parametrize("budget", [2, 8, 32])
    def test_matches_reference_search(self, scan_corpus, budget):
        hosts = {**scan_corpus, **{name: make() for name, make in LARGER_HOSTS.items()}}
        for name, m in hosts.items():
            assert pps_find_cycle(m, budget) == ref_find_cycle(m, budget), name

    def test_sparse_paving_witness_is_not_its_pairs_first_start(self):
        m = sparse_paving_8()
        res = pps_find_cycle(m, 8)
        assert answer(res) == ("found", 75, ((), 1, 7, (3, 4, 5, 6, 3), 1))
        assert min(set(m.ground.elements) - m.closure((1, 7))) == 0

    #: sha256 of ``answer`` at budgets 2 and 8 over ``scrambled_tables(300)``,
    #: and the count of each status.  A closure table off the axioms may
    #: give an independent pair an empty span, so no test on the span alone
    #: can stand for the independence test.  Change it only when the
    #: search is meant to change.
    SCRAMBLED_DIGEST = "8467e0ead60c7c4226eabd5580f094228da2204878216d9ef6b0e6fd828c8386"
    SCRAMBLED_STATUSES = {"none": 350, "budget-exceeded": 134, "found": 116}

    def test_answers_on_tables_off_the_axioms_are_unchanged(self):
        rows = [answer(pps_find_cycle(m, budget)) for m in scrambled_tables(300) for budget in (2, 8)]
        statuses = {s: sum(row[0] == s for row in rows) for s in self.SCRAMBLED_STATUSES}
        assert statuses == self.SCRAMBLED_STATUSES
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == self.SCRAMBLED_DIGEST

    def test_independent_pair_with_an_empty_span_is_searched(self):
        # Free on five elements but cl({0, 1}) = {}: the pair 0, 1 is
        # independent over the empty net, every element lies outside its
        # span, and the first live start 2 bounces 2, 3, 2 through
        # cl({0, 2}) = {0, 2, 3} and cl({1, 3}) = {1, 2, 3}.
        table = {frozenset(s): frozenset(s) for s in powerset(range(5))}
        table[frozenset({0, 1})] = frozenset()
        table[frozenset({0, 2})] = frozenset({0, 2, 3})
        table[frozenset({1, 3})] = frozenset({1, 2, 3})
        res = pps_find_cycle(closure_table_matroid(5, table), 8)
        assert answer(res) == ("found", 3, ((), 0, 1, (2, 3, 2), 1))

    def test_budget_above_ground_size_is_never_exceeded(self, scan_corpus):
        # A run stops or repeats an element, so it holds at most n + 1.
        for name, m in scan_corpus.items():
            res = pps_find_cycle(m, len(m.ground) + 1)
            assert res.status != "budget-exceeded", name

    def test_budget_below_one_rejected(self):
        with pytest.raises(InvalidSequence):
            pps_find_cycle(uniform_matroid(2, 3), 0)

    def test_gf2_finds_length_four_cycle(self, gf2):
        res = pps_find_cycle(gf2, 32)
        assert res.status == "found"
        assert res.run.cycle_length == 4
        report = pps_verify(gf2, res.run.sequence)
        assert report.steps_valid and report.outside_paddle_span
        assert not report.injective

    def test_gf3_finds_cycle(self, gf3):
        res = pps_find_cycle(gf3, 32)
        assert res.status == "found"
        assert res.run.cycle_length == 4

    def test_rank_two_geometry_has_none(self):
        res = pps_find_cycle(uniform_matroid(2, 3), 32)
        assert res.status == "none"
        assert res.configs_searched == 0

    def test_flat_members_have_none(self, small_corpus):
        for name in ("uniform_2_3", "uniform_3_4", "gf3_2", "pps_chain", "ct_u23"):
            res = pps_find_cycle(small_corpus[name], 32)
            assert res.status == "none", name

    def test_degenerate_two_cycle_without_paddle_use(self, small_corpus):
        # Two elements interalgebraic over the net alone can bounce
        # forever whatever the paddles; such a repeat has cycle length 2
        # and certifies nothing about flatness.
        res = pps_find_cycle(small_corpus["u23_plus_2_free"], 32)
        assert res.status == "found"
        assert res.run.cycle_length == 2
        t_prev, t_new = res.run.sequence.ts[-2], res.run.sequence.ts[-1]
        m = small_corpus["u23_plus_2_free"]
        net = frozenset(res.run.sequence.config.net)
        assert t_new in m.closure(net | {t_prev})

    def test_a_run_is_built_only_for_the_witness(self, monkeypatch, gf2):
        calls = []
        runs = pingpong._runs

        def counting(*args):
            calls.append(args)
            return runs(*args)

        monkeypatch.setattr(pingpong, "_runs", counting)
        assert pps_find_cycle(uniform_matroid(5, 8), 8).status == "none"
        assert pps_find_cycle(gf2, 2).status == "budget-exceeded"
        assert calls == []
        assert answer(pps_find_cycle(gf2, 32)) == ("found", 1, ((), 0, 1, (3, 4, 6, 5, 3), 1))
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "budget, expected",
        [(3, ("budget-exceeded", 23250, None)), (6, ("found", 1, ((), 0, 1, (6, 7, 12, 11, 6), 1)))],
    )
    def test_pg_2_5(self, budget, expected):
        # Four children per step: a step row is the line through the paddle
        # and t, six points, less those two.
        points = [v for v in product(range(5), repeat=3) if next((x for x in v if x), 0) == 1]
        assert answer(pps_find_cycle(linear_matroid(5, points), budget)) == expected

    def test_every_generated_element_stays_outside_paddle_span(self, small_corpus):
        for name, m in small_corpus.items():
            if m.full_rank < 3:
                continue
            res = pps_find_cycle(m, 16)
            if res.run is not None:
                report = pps_verify(m, res.run.sequence)
                assert report.outside_paddle_span, name
