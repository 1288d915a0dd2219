from itertools import product

import pytest

from conftest import ref_flats
from flatgeom import corpus
from flatgeom.errors import InvalidConfig, InvalidSequence
from flatgeom.matroid import uniform_matroid
from flatgeom.pingpong import (
    CycleSearch,
    PPSConfig,
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


class TestSharedStepTable:
    def test_verifying_generated_runs_builds_no_step_row(self):
        m = corpus.gf3_3()
        cfg = PPSConfig.of((), 0, 1, 4)
        runs = pps_run(m, cfg, "all-branches", 8)
        net, steps = m._net_steps
        built = dict(steps)
        assert len(runs) == 56 and net == 0 and built
        for run in runs:
            assert pps_verify(m, run.sequence).steps_valid
            # The run was generated by extending this prefix.
            pps_candidates(m, PPSSequence(cfg, run.sequence.ts[:-1]))
        assert m._net_steps[1] is steps and dict(steps) == built

    def test_cycle_search_keeps_only_the_last_nets_table(self):
        m = uniform_matroid(5, 8)
        assert pps_find_cycle(m, 8).status == "none"
        *_, last = m._closed_sets(m.full_rank - 3)
        net, steps = m._net_steps
        assert net == last and steps
        # A run on another net replaces the table instead of adding one.
        pps_run(m, PPSConfig.of((), 0, 1, 2), "least", 8)
        assert m._net_steps[0] == 0 and m._net_steps[1] is not steps


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


class TestCycleSearch:
    @pytest.mark.parametrize("budget", [2, 8, 32])
    def test_matches_reference_search(self, scan_corpus, budget):
        for name, m in scan_corpus.items():
            assert pps_find_cycle(m, budget) == ref_find_cycle(m, budget), name

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

    def test_every_generated_element_stays_outside_paddle_span(self, small_corpus):
        for name, m in small_corpus.items():
            if m.full_rank < 3:
                continue
            res = pps_find_cycle(m, 16)
            if res.run is not None:
                report = pps_verify(m, res.run.sequence)
                assert report.outside_paddle_span, name
