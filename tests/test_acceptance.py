"""Acceptance suite: one test per criterion, exact-integer expectations.

Each test prints a single PASS line (visible with ``pytest -s`` or in the
captured output).  Tolerances are zero throughout: every expected value
is an integer reproduced exactly.
"""

import random
import time
from itertools import combinations

from conftest import GF2_COLS, brute_span
from flatgeom import corpus
from flatgeom.effective import going_down_run, trace_verify
from flatgeom.errors import GroundTooLarge
from flatgeom.flatness import check_flat, delta
from flatgeom.formula_closure import lambda_closure
from flatgeom.matroid import canon
from flatgeom.pingpong import PPSConfig, iter_runs, pps_find_cycle, pps_verify
from flatgeom.spectrum import (
    RULE_P_GE_N_WHEN_N_GT_3,
    RULE_P_LE_N_PLUS_1,
    TheoryProfile,
    classify,
    enumerate_case_analysis,
    validate_profile,
)

# Sequences generated while exercising criterion 3, re-checked by
# criterion 4.
_GENERATED_SEQUENCES: list = []


def _all_configs(m):
    rank = m.full_rank
    nets = set()
    for size in range(max(0, rank - 3) + 1):
        for combo in combinations(m.ground.elements, size):
            if m.is_independent(combo):
                nets.add(m.closure(combo))
    for net in sorted(nets, key=lambda s: (len(s), tuple(sorted(s)))):
        for a1 in m.ground.elements:
            for a2 in m.ground.elements:
                if a1 == a2 or not m.independent_over((a1, a2), net):
                    continue
                span = m.closure(net | {a1, a2})
                for t1 in m.ground.elements:
                    if t1 not in span:
                        yield PPSConfig(canon(net), a1, a2, t1)


def test_criterion_1_group_configuration_delta():
    t0 = time.monotonic()
    m = corpus.gf2_3()
    e1, e2, e3, e23, e12 = 3, 1, 0, 2, 5
    sigma = [
        brute_span(2, GF2_COLS, {e1, e2}),
        brute_span(2, GF2_COLS, {e2, e3}),
        brute_span(2, GF2_COLS, {e1, e23}),
        brute_span(2, GF2_COLS, {e12, e3}),
    ]
    d = delta(m, sigma)
    union_dim = m.rank(frozenset().union(*sigma))
    elapsed = time.monotonic() - t0
    assert d == 2
    assert union_dim == 3
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: four-flat delta = {d}, union dim = {union_dim} ({elapsed:.3f}s)")


def test_criterion_2_three_planes_delta():
    m = corpus.three_planes()
    sigma = [
        m.closure({0, 1, 2, 3}),
        m.closure({0, 1, 4, 5}),
        m.closure({2, 3, 4, 5}),
    ]
    dims = sorted(m.rank(s) for s in sigma)
    pair_dims = sorted(m.rank(a & b) for a, b in combinations(sigma, 2))
    triple_dim = m.rank(sigma[0] & sigma[1] & sigma[2])
    d = delta(m, sigma)
    assert dims == [3, 3, 3] and pair_dims == [2, 2, 2] and triple_dim == 0
    assert d == 3 * 3 - 3 * 2 + 0 == 3
    print(f"\nACCEPTANCE 2 PASS: dims-3/pairwise-2/triple-0 delta = {d}")


def test_criterion_3_injectivity_and_cycles():
    t0 = time.monotonic()
    exhaustively_flat = []
    for name, make in corpus.MATROIDS.items():
        m = make()
        try:
            verdict = check_flat(m, exhaustive=True, max_ground=13)
        except GroundTooLarge:
            continue
        if verdict.kind == "flat-exhaustive":
            exhaustively_flat.append((name, m))
    names = [name for name, _ in exhaustively_flat]
    assert names == [
        "gf3_2", "uniform_2_3", "uniform_2_4", "uniform_3_4", "uniform_3_5", "uniform_3_6",
        "u23_plus_2_free", "ct_u23", "pps_chain",
    ]

    repeats = dict.fromkeys(names, 0)
    runs_checked = 0
    for name, m in exhaustively_flat:
        for cfg in _all_configs(m):
            for run in iter_runs(m, cfg, "all-branches", budget=64):
                runs_checked += 1
                _GENERATED_SEQUENCES.append((m, run.sequence))
                ts = run.sequence.ts
                if len(set(ts)) != len(ts):
                    # On these flat hosts only a bounce repeats: two elements
                    # interalgebraic over the net alone, whatever the paddles.
                    # A flat geometry can also repeat through two elements
                    # parallel over the net (see test_flatness.py).
                    assert run.cycle_length == 2, (name, ts)
                    assert ts[-1] in m.closure(frozenset(cfg.net) | {ts[-2]}), (name, ts)
                    repeats[name] += 1
    assert {name: n for name, n in repeats.items() if n} == {"u23_plus_2_free": 12}

    cyc2 = pps_find_cycle(corpus.gf2_3(), budget=64)
    cyc3 = pps_find_cycle(corpus.gf3_3(), budget=64)
    _GENERATED_SEQUENCES.append((corpus.gf2_3(), cyc2.run.sequence))
    _GENERATED_SEQUENCES.append((corpus.gf3_3(), cyc3.run.sequence))
    assert cyc2.status == "found" and cyc2.run.cycle_length == 4
    assert cyc3.status == "found"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 3 PASS: {runs_checked} runs on [{', '.join(names)}] injective but "
        f"12 length-2 bounces on u23_plus_2_free; cycles found on both prime-field "
        f"geometries, gf2_3 length 4 ({elapsed:.2f}s)"
    )


def test_criterion_4_outside_paddle_span():
    assert _GENERATED_SEQUENCES, "criterion 3 must run first in this module"
    pool = list(_GENERATED_SEQUENCES)
    for name, make in corpus.MATROIDS.items():
        m = make()
        if m.full_rank < 3:
            continue
        for cfg in _all_configs(m):
            for run in iter_runs(m, cfg, "least", budget=16):
                pool.append((m, run.sequence))
    violations = sum(
        0 if pps_verify(m, seq).outside_paddle_span else 1 for m, seq in pool
    )
    assert violations == 0
    print(
        f"\nACCEPTANCE 4 PASS: all {len(pool)} generated sequences "
        "stay outside the net-and-paddles closure"
    )


def test_criterion_5_fixpoint_and_algebraicity():
    rng = random.Random(517)
    for i in range(1000):
        g = corpus.random_geometric_structure(rng, max_universe=10, arity=3)
        universe = list(g.universe)
        x = frozenset(rng.sample(universe, rng.randint(0, len(universe))))
        res = lambda_closure(g, x)
        assert res.status == "fixpoint", i
        assert res.fixpoint_index <= len(universe), i
        m = g.matroid
        assert m.rank(x | res.closure) == m.rank(x), i
    print("\nACCEPTANCE 5 PASS: 1000 random structures, fixpoint within |universe|, closure algebraic")


def test_criterion_6_carousel():
    rng = random.Random(808)
    names = sorted(corpus.MATROIDS)
    matroids = {name: corpus.MATROIDS[name]() for name in names}
    checked = 0
    while checked < 500:
        m = matroids[rng.choice(names)]
        case = corpus.random_carousel_case(rng, m)
        if case is None:
            continue
        abar, bs = case
        assert m.carousel_check(abar, bs)
        checked += 1
    print(f"\nACCEPTANCE 6 PASS: carousel intersection property on {checked} random valid inputs")


def test_criterion_7_going_down_end_to_end():
    rng = random.Random(42)
    worst = 0.0
    for i in range(200):
        pres, membership, enumeration, horizon = corpus.random_going_down_scenario(rng)
        assert len(pres.structure.universe) <= 16
        assert membership.max_flips_per_element <= 3
        t0 = time.monotonic()
        trace = going_down_run(pres, membership, enumeration, horizon)
        elapsed = time.monotonic() - t0
        worst = max(worst, elapsed)
        assert elapsed < 1.0, i
        assert trace.status == "completed", i
        report = trace_verify(trace, membership.target)
        assert report.stabilized, i
        assert report.permanence, (i, "image moved after joining the enumerated set")
        assert report.isomorphism and report.surjective, i
    print(
        f"\nACCEPTANCE 7 PASS: 200 scenarios completed, isomorphism and permanence verified "
        f"(worst run {worst * 1000:.0f}ms)"
    )


def test_criterion_8_spectrum_case_analysis():
    profile = TheoryProfile(2)
    analysis = enumerate_case_analysis(profile)
    assert [s.members() for s in analysis.shape_covered] == [
        (), (0,), (0, 1), (0, "omega"), (0, 1, 2), (0, 1, "omega"),
        (0, 1, 2, "omega"), ("omega",),
    ]
    assert [s.members() for s in analysis.open_sets] == [(1,), (2,), (0, 2), (1, 2)]
    assert [s.members() for s in analysis.excluded] == [
        (1, "omega"), (2, "omega"), (0, 2, "omega"), (1, 2, "omega"),
    ]
    kinds = {"shape-covered": "allowed", "open": "open-unknown", "excluded": "excluded"}
    for group, expect in (
        (analysis.shape_covered, kinds["shape-covered"]),
        (analysis.open_sets, kinds["open"]),
        (analysis.excluded, kinds["excluded"]),
    ):
        for s in group:
            assert classify(s, profile).kind == expect, s.members()
    print("\nACCEPTANCE 8 PASS: 16-way case analysis partitions 8/4/4 and classify agrees set-by-set")


def test_criterion_9_profile_validation():
    r = validate_profile(TheoryProfile(5, p=2))
    assert not r.ok and r.violations[0].rule == RULE_P_GE_N_WHEN_N_GT_3
    r = validate_profile(TheoryProfile(4, p=6))
    assert not r.ok and r.violations[0].rule == RULE_P_LE_N_PLUS_1
    assert validate_profile(TheoryProfile(3, p=3)).ok
    assert validate_profile(TheoryProfile(2, p=0)).ok
    print(
        "\nACCEPTANCE 9 PASS: (n=5,p=2) and (n=4,p=6) rejected with the right rules; "
        "(n=3,p=3) and (n=2,p=0) accepted"
    )
