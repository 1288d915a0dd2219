import gc
import random
import re
import weakref
from collections import Counter
from functools import cache, partial
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    GF2_COLS,
    brute_delta,
    brute_rank,
    brute_span,
    powerset,
    ref_alpha_min,
    seeded_nonbases,
    sparse_paving_rank,
)
from flatgeom import corpus, flatness
from flatgeom.errors import EmptyCollection, GroundTooLarge, InvalidElement, MatroidContractError
from flatgeom.flatness import _MeetTable, check_flat, delta, is_disintegrated
from flatgeom.matroid import (
    closure_table_matroid,
    free_matroid,
    linear_matroid,
    sparse_paving_matroid,
    subsets,
    uniform_matroid,
)
from flatgeom.pingpong import pps_find_cycle


def paper_example_flats(gf2):
    """The four rank-2 flats of the group-triple configuration, recomputed
    from scratch by coefficient enumeration."""
    e1, e2, e3 = 3, 1, 0
    e23 = 2  # e2+e3
    e12 = 5  # e1+e2
    return [
        brute_span(2, GF2_COLS, {e1, e2}),
        brute_span(2, GF2_COLS, {e2, e3}),
        brute_span(2, GF2_COLS, {e1, e23}),
        brute_span(2, GF2_COLS, {e12, e3}),
    ]


class TestDelta:
    def test_paper_four_flat_configuration(self, gf2):
        sigma = paper_example_flats(gf2)
        assert delta(gf2, sigma) == 2
        union = frozenset().union(*sigma)
        assert gf2.rank(union) == 3

    def test_singleton_degenerates_to_dimension(self, gf2):
        flat = gf2.closure({3, 1})
        assert delta(gf2, [flat]) == 2

    def test_three_planes_configuration(self):
        m = corpus.three_planes()
        sigma = [m.closure({0, 1, 2, 3}), m.closure({0, 1, 4, 5}), m.closure({2, 3, 4, 5})]
        assert delta(m, sigma) == 3 * 3 - 3 * 2 + 0

    def test_empty_collection_rejected(self, gf2):
        with pytest.raises(EmptyCollection):
            delta(gf2, [])

    def test_off_ground_ids_are_named_from_the_first_set_holding_one(self, gf2):
        # Sets are read in canonical order, (size, elements): {5, 9} first.
        with pytest.raises(InvalidElement, match=r"ids \[9\] not"):
            delta(gf2, [{3, 8, 11}, {0, 1, 2}, {5, 9}])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_permutation_and_duplicate_invariant(self, data, gf2):
        flats = [f.as_set() for f in gf2.flats()]
        chosen = data.draw(st.lists(st.sampled_from(flats), min_size=1, max_size=4))
        base = delta(gf2, chosen)
        shuffled = data.draw(st.permutations(chosen))
        assert delta(gf2, shuffled) == base
        assert delta(gf2, list(chosen) + [chosen[0]]) == base

    def test_matches_brute_inclusion_exclusion(self, small_corpus, gf3):
        # Seeded lists of one to seven flats, drawn with replacement, so
        # they hold repeats and, through the bottom and top flats and points
        # on lines, comparable pairs.
        rng = random.Random("delta/brute")
        hosts = [*small_corpus.values(), gf3, corpus.pps_chain(10)]
        seen = Counter()
        for m in hosts:
            flats = [f.as_set() for f in m.flats()]
            for _ in range(80):
                sets = rng.choices(flats, k=rng.randint(1, 7))
                assert delta(m, sets) == brute_delta(m, sets), sets
                seen["repeat"] += len(set(sets)) < len(sets)
                seen["comparable"] += any(a < b for a in sets for b in sets)
        assert 80 * len(hosts) >= 1000 and min(seen.values()) >= 200, seen

    @pytest.mark.parametrize("k, lookups, expected", [(16, 45, -33), (31, 63, -93)])
    def test_ranks_each_distinct_meet_once(self, k, lookups, expected):
        # The first k lines of PG(2,5): the terms are the lines, the points
        # on two or more of them and the empty set, each ranked once; the
        # 2**k - 1 intersections of the definition repeat most of them.
        m = pg(3, 5)
        lines = [f.as_set() for f in m.flats() if f.dim == 2][:k]
        lookup, calls = m._rank_mask, []

        def counting(s: int) -> int:
            calls.append(s)
            return lookup(s)

        m._rank_mask = counting
        assert delta(m, lines) == expected
        assert len(calls) == len(set(calls)) == lookups


def index_delta(table, picked):
    """Delta of the flats ``picked`` (indices into ``table``), folded from
    the empty collection's gain vector as the search folds it."""
    d, gains = 0, list(table.dims)
    for f in picked:
        d, gains = d + gains[f], table.after(gains, f)
    return d


class TestMeetTableDelta:
    """The search's incremental form of delta, its gain vectors, against
    ``delta``'s signed meet terms."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_index_delta_matches_recursive_delta(self, data, small_corpus):
        # Lists are drawn with replacement, so they hold repeats and, through
        # the bottom and top flats and points on lines, comparable pairs.
        m = small_corpus[data.draw(st.sampled_from(sorted(small_corpus)))]
        flats = m.flats()
        table = _MeetTable(m, flats)
        picked = data.draw(
            st.lists(st.integers(0, len(flats) - 1), min_size=1, max_size=6)
        )
        sets = [flats[i].as_set() for i in picked]
        assert index_delta(table, picked) == delta(m, sets)

    def test_empty_collection_rejected(self, gf2):
        # The gain vectors start from the empty collection, delta 0 and
        # gains[H] = dim H, but delta itself refuses it.
        flats = gf2.flats()
        table = _MeetTable(gf2, flats)
        assert index_delta(table, []) == 0
        assert [index_delta(table, [i]) for i in range(len(flats))] == table.dims
        assert table.dims == [delta(gf2, [f]) for f in flats]
        with pytest.raises(EmptyCollection):
            delta(gf2, [flats[i] for i in ()])


def pg(d, q):
    """PG(d-1, q): the nonzero vectors of GF(q)^d whose first nonzero entry
    is 1."""
    points = [v for v in product(range(q), repeat=d) if next((x for x in v if x), 0) == 1]
    return linear_matroid(q, points)


def seeded_sparse_paving(size, rank, seed):
    """A sparse paving matroid whose nonbases are seeded random rank-sets,
    kept greedily while each pair meets in at most rank-2 elements."""
    rng = random.Random(f"flat-ref/{size}/{rank}/{seed}")
    return sparse_paving_matroid(size, rank, seeded_nonbases(rng, size, rank, 200))


def least_witness(m, top):
    """Reference flatness search: every collection of the canonically
    sorted flats, in combinations order with sizes ascending, scored with
    ``brute_delta`` and ``rank``; no pruning."""
    if is_disintegrated(m, max_ground=len(m.ground)):
        return "disintegrated", None, None, None, None
    flats = sorted((f.as_set() for f in m.flats()), key=lambda s: tuple(sorted(s)))
    top = min(top, len(flats))
    for size in range(1, top + 1):
        for sigma in combinations(flats, size):
            d = brute_delta(m, sigma)
            u = m.rank(frozenset().union(*sigma))
            if d < u:
                return "not-flat", top, set(sigma), d, u
    return "flat-up-to", top, None, None, None


class TestDisintegration:
    def test_free_matroid(self):
        assert is_disintegrated(free_matroid(3))

    def test_uniform_2_3_is_not(self):
        assert not is_disintegrated(uniform_matroid(2, 3))

    def test_gf2_is_not(self, gf2):
        assert not is_disintegrated(gf2)

    def test_large_ground_needs_sampling(self):
        # Only the confirmation of a disintegrated host reads the bound.
        with pytest.raises(GroundTooLarge):
            is_disintegrated(free_matroid(14))
        assert is_disintegrated(free_matroid(30), sample=20)

    def test_a_host_that_is_not_disintegrated_is_answered_at_any_size(self, monkeypatch):
        # Its first dependent points break the definition, and no subset
        # scan runs.
        monkeypatch.setattr(flatness, "subset_universe", None)
        pg32 = linear_matroid(2, [v for v in product((0, 1), repeat=4) if any(v)])
        for m in (uniform_matroid(3, 14), pg32, corpus.gf3_3(), corpus.pps_chain(16)):
            assert not is_disintegrated(m)

    def test_sampled_scan_answers_by_circuits(self):
        # 15 unit vectors plus e0+e1: one 3-circuit {0, 1, 15}, which two
        # random subsets of 16 elements are unlikely to expose.
        cols = [tuple(int(i == j) for j in range(15)) for i in range(15)]
        m = linear_matroid(2, cols + [(1, 1) + (0,) * 13])
        assert [c.elements for c in m.circuits(3)] == [(0, 1, 15)]
        assert not is_disintegrated(m, sample=2, seed=0)

    def test_iff_no_circuit_of_size_three_or_more(self, scan_corpus):
        for name, m in scan_corpus.items():
            large = [c for c in m.circuits(len(m.ground)) if c.size >= 3]
            assert is_disintegrated(m, max_ground=len(m.ground)) == (not large), name

    @pytest.mark.parametrize("max_ground", [2, 12], ids=["sampled", "exhaustive"])
    def test_counterexample_against_circuits_is_an_error(self, max_ground):
        # A broken closure puts 1 in cl {0, 2} and 0 in cl {1, 2}, so the
        # definition fails at two of the eight subsets, yet no point lies in
        # the closure of the points before it: the rank rule finds no large
        # circuit.  The sampled walk meets a failing subset too.
        table = {s: s for s in subsets(range(3))}
        table[0, 2] = table[1, 2] = (0, 1, 2)
        m = closure_table_matroid(3, table)
        with pytest.raises(MatroidContractError, match=r"disagree at \((0|1), 2\)"):
            is_disintegrated(m, max_ground=max_ground, sample=20, seed=0)

    def test_a_dependent_point_the_definition_accepts_is_an_error(self):
        # A broken closure puts 1 in cl {0} but not 0 in cl {1}: 1 starts a
        # new class inside the closure of the point 0, yet the definition
        # holds at {0}.
        m = closure_table_matroid(2, {(): (), (0,): (0, 1), (1,): (1,), (0, 1): (0, 1)})
        with pytest.raises(MatroidContractError, match=r"disagree at \(0,\)"):
            is_disintegrated(m)

    def test_one_step_walk_against_the_definition_on_seeded_tables(self):
        # Seeded closure tables on 2 to 5 elements: disintegrated
        # pregeometries (loops and parallel classes), GF(2) and GF(3)
        # pregeometries, each as built or with one entry broken, and tables
        # with random entries.  The brute check reads the table itself.
        rng = random.Random(32)
        seen = Counter()
        for _ in range(600):
            n = rng.randint(2, 5)
            roll = rng.random()
            if roll < 0.4:
                classes = [rng.randrange(-1, n) for _ in range(n)]  # -1: a loop
                loops = frozenset(e for e in range(n) if classes[e] < 0)
                cl = {
                    s: loops.union(*({e for e in range(n) if classes[e] == classes[b]} for b in s))
                    for s in powerset(range(n))
                }
            elif roll < 0.8:
                q = rng.choice((2, 3))
                cols = [tuple(rng.randrange(q) for _ in range(3)) for _ in range(n)]
                cl = {s: brute_span(q, cols, s) for s in powerset(range(n))}
            else:
                cl = {s: frozenset(e for e in range(n) if rng.random() < 0.5) for s in powerset(range(n))}
            if roll < 0.8 and rng.random() < 0.5:
                s = rng.choice([s for s in cl if len(s) >= 2])
                cl[s] = frozenset(e for e in range(n) if rng.random() < 0.5) | frozenset(s)
            m = closure_table_matroid(n, cl)

            def definition(s):
                return cl[s] == cl[()].union(*(cl[(b,)] for b in s))

            # The rank rule: the first point of each new class, in id order,
            # outside the closure of the points before it.
            points, classes_met, dependent = (), {cl[()]}, None
            for b in range(n):
                if cl[(b,)] in classes_met:
                    continue
                if b in cl[points]:
                    dependent = points
                    break
                classes_met.add(cl[(b,)])
                points += (b,)
            if dependent is None:
                # The walk names the first subset, in increasing mask order,
                # where the definition fails.
                failing = [s for s in sorted(cl, key=lambda s: sum(1 << e for e in s)) if not definition(s)]
                want = f"disagree at {failing[0]}" if failing else True
            else:
                want = False if not definition(dependent) else f"disagree at {dependent}"
            try:
                got = is_disintegrated(m)
            except MatroidContractError as e:
                got = re.search(r"disagree at \(.*\)", str(e)).group()
            assert got == want, (n, cl)
            seen[dependent is None, want if isinstance(want, bool) else "raise"] += 1
        # Every outcome of both branches shows up often.
        assert all(seen[k] >= 50 for k in [(True, True), (True, "raise"), (False, False), (False, "raise")]), seen

    def test_rank_rule_and_definition_agree_with_brute_spans(self):
        # Seeded GF(2) and GF(3) hosts with loops and parallel pairs: the
        # answer is the definition read off brute-force spans, and the rule
        # and the definition inside is_disintegrated never disagree.
        rng = random.Random(30)
        answers, loops, parallels = [], 0, 0
        for _ in range(1000):
            q, dim = rng.choice((2, 3)), rng.randint(2, 3)
            cols = []
            for _ in range(rng.randint(3, 6)):
                roll = rng.random()
                if roll < 0.1:
                    cols.append((0,) * dim)
                elif roll < 0.3 and cols:
                    scale = rng.randrange(1, q)
                    cols.append(tuple(scale * x % q for x in rng.choice(cols)))
                else:
                    cols.append(tuple(rng.randrange(q) for _ in range(dim)))
            span = cache(partial(brute_span, q, cols))
            want = all(
                span(s) == span(()).union(*(span((e,)) for e in s)) for s in powerset(range(len(cols)))
            )
            assert is_disintegrated(linear_matroid(q, cols), max_ground=len(cols)) == want, (q, cols)
            answers.append(want)
            # A point scaled so that its first nonzero entry is 1.
            points = [tuple(x * pow(next(filter(None, c)), -1, q) % q for x in c) for c in cols if any(c)]
            loops += len(points) < len(cols)
            parallels += len(set(points)) < len(points)
        assert 200 < sum(answers) < 800 and loops > 200 and parallels > 200


class TestCheckFlat:
    def test_gf2_not_flat_with_four_flat_witness(self, gf2):
        verdict = check_flat(gf2, 4)
        assert verdict.kind == "not-flat"
        assert len(verdict.witness) == 4
        assert verdict.delta == 2 and verdict.union_dim == 3
        # Re-evaluating the witness reproduces the violation exactly.
        sets = verdict.witness.sets()
        assert delta(gf2, sets) == verdict.delta
        assert gf2.rank(frozenset().union(*sets)) == verdict.union_dim

    def test_gf3_not_flat(self, gf3):
        # The ground bound confirms only a disintegrated host, so PG(2,3),
        # 13 points, is searched at the default bound of 12 too.
        for options in ({"max_ground": 13}, {}):
            verdict = check_flat(gf3, 4, **options)
            assert (verdict.kind, verdict.bound, verdict.delta, verdict.union_dim) == ("not-flat", 4, 2, 3)
            assert [f.elements for f in verdict.witness.flats] == [
                (0, 1, 2, 3), (0, 4, 5, 6), (1, 4, 7, 10), (2, 5, 9, 10),
            ]

    def test_uniform_2_3_flat(self):
        m = uniform_matroid(2, 3)
        assert check_flat(m, 4).kind == "flat-up-to"
        assert check_flat(m, exhaustive=True).kind == "flat-exhaustive"

    def test_free_matroid_disintegrated(self):
        assert check_flat(free_matroid(3), 4).kind == "disintegrated"

    def test_no_two_flat_witness_on_valid_matroids(self, small_corpus):
        # Pairs reduce to submodularity, so a two-member violation would
        # mean a broken oracle.
        for m in small_corpus.values():
            flats = [f.as_set() for f in m.flats()]
            for i in range(len(flats)):
                for j in range(i + 1, len(flats)):
                    sigma = [flats[i], flats[j]]
                    d = delta(m, sigma)
                    assert d >= m.rank(flats[i] | flats[j])

    def test_sigma5_violation_that_sigma4_misses(self):
        # Seven points of the GF(3) plane with 20 flats: no violation of
        # four flats, but five of its lines have delta 2 below dim 3.
        cols = [(1, 2, 2), (2, 2, 2), (2, 1, 2), (0, 2, 2), (0, 1, 2), (2, 0, 1), (0, 0, 2)]
        m = linear_matroid(3, cols)
        assert check_flat(m, 4) == flatness.FlatnessVerdict("flat-up-to", bound=4)
        v = check_flat(m, 5)
        lines = [{0, 1, 3}, {0, 2, 6}, {1, 4, 5}, {2, 3, 5}, {3, 4, 6}]
        assert (v.kind, [set(s) for s in v.witness.sets()]) == ("not-flat", lines)
        assert (v.delta, v.union_dim) == (2, 3)
        # Inclusion-exclusion over brute ranks, independent of the search.
        brute = 0
        for subset in powerset(range(5), min_size=1):
            inter = set.intersection(*(lines[i] for i in subset))
            brute += (-1) ** (len(subset) + 1) * brute_rank(3, cols, inter)
        assert brute == 2 and brute_rank(3, cols, set().union(*lines)) == 3

    def test_witness_deterministic(self, gf2):
        v1 = check_flat(gf2, 4)
        v2 = check_flat(gf2, 4)
        assert v1 == v2

    @pytest.mark.parametrize("sigma", [1, 2, 3, 4])
    def test_least_witness_matches_reference(self, sigma, small_corpus, gf3):
        # The sparse paving hosts have rank-3 and rank-4 lattices; each of
        # them but (7,3)#0 has a violation at sigma 3 or 4.
        shapes = [(7, 3, 0), (8, 3, 0), (9, 3, 1), (6, 4, 0), (7, 4, 1)]
        paving = [seeded_sparse_paving(*shape) for shape in shapes]
        if sigma <= 3:
            # A benchmark host, not flat at sigma 3 (its three nonbases),
            # although Mason's alpha summed over its cyclic flats alone is
            # nonnegative on each of them.  Its 56 flats put sigma 4 past
            # the work cap.
            paving.append(sparse_paving_matroid(7, 4, [(2, 3, 4, 6), (1, 2, 4, 5), (1, 3, 5, 6)]))
        for m in [*small_corpus.values(), gf3, *paving]:
            v = check_flat(m, sigma, max_ground=len(m.ground))
            witness = set(v.witness.sets()) if v.witness else None
            got = (v.kind, v.bound, witness, v.delta, v.union_dim)
            assert got == least_witness(m, sigma)

    def test_least_witness_matches_reference_on_the_alpha_pool(self):
        # Sigma 4 only on hosts of at most 16 flats: the pool's larger
        # hosts are flat, answered by alpha with no search, and the
        # reference scores every collection of their flats.
        checks, not_flat = 0, 0
        for name, m, _ in alpha_pool():
            for sigma in (3, 4) if len(m.flats()) <= 16 else (3,):
                v = check_flat(m, sigma, max_ground=len(m.ground))
                witness = set(v.witness.sets()) if v.witness else None
                got = (v.kind, v.bound, witness, v.delta, v.union_dim)
                assert got == least_witness(m, sigma), (name, sigma)
                checks += 1
                not_flat += v.kind == "not-flat"
        assert (checks, not_flat) == (184, 38)

    @pytest.mark.parametrize("make", [lambda: pg(3, 3), corpus.gf2_3], ids=["PG(2,3)", "gf2_3"])
    def test_sigma3_builds_at_most_one_gain_vector_per_flat(self, monkeypatch, make):
        # The last flat is priced from its parent's gain vector, so at sigma
        # 3 only one-flat prefixes get one.  A union is ranked only where
        # delta is below the ground rank, which no three flats here reach.
        m = make()
        work = search_work(monkeypatch)
        assert check_flat(m, 3, max_ground=len(m.ground)).kind == "flat-up-to"
        assert 0 < work["after"] <= len(m.flats())
        assert work["union"] == 0

    def test_only_the_witness_union_is_closed_on_gf2_3(self, monkeypatch):
        # One rank gives the dimension of the closure of the four-flat
        # witness's union, and no other collection of gf2_3 has delta below
        # the ground rank.
        work = search_work(monkeypatch)
        assert check_flat(corpus.gf2_3(), 4).kind == "not-flat"
        assert work["union"] == 1

    @pytest.mark.parametrize(
        "m, expected",
        [
            (pg(4, 2), ("not-flat", [[0, 1, 2], [0, 3, 4], [1, 3, 5], [2, 4, 5]], 2, 3)),
            (
                pg(3, 5),
                (
                    "not-flat",
                    [
                        [0, 1, 2, 3, 4, 5],
                        [0, 6, 7, 8, 9, 10],
                        [1, 6, 11, 16, 21, 26],
                        [2, 7, 13, 19, 25, 26],
                    ],
                    2,
                    3,
                ),
            ),
            (corpus.pps_chain(10), ("flat-up-to", None, None, None)),
            (uniform_matroid(4, 7), ("flat-up-to", None, None, None)),
        ],
        ids=["PG(3,2)", "PG(2,5)", "pps_chain(10)", "U(4,7)"],
    )
    def test_sigma4_verdicts_past_the_work_cap(self, monkeypatch, m, expected):
        # The work estimate refuses these at sigma 4.  With the cap lifted,
        # the search answers PG(3,2) and PG(2,5) in 10 to 20 ms each (Python
        # 3.11 on a 2-core VM), and Mason's alpha criterion answers
        # pps_chain(10) and U(4,7).
        monkeypatch.setattr(flatness, "DEFAULT_WORK_CAP", 10**9)
        v = check_flat(m, 4, max_ground=len(m.ground))
        witness = sorted(sorted(s) for s in v.witness.sets()) if v.witness else None
        assert (v.kind, witness, v.delta, v.union_dim) == expected
        assert v.bound == 4

    def test_sampled_verdict_is_labelled_sampled(self):
        # PG(3,2) is not flat, and 20 samples miss every violation.
        pg32 = linear_matroid(2, [v for v in product((0, 1), repeat=4) if any(v)])
        v = check_flat(pg32, 4, max_ground=15, sample=20)
        assert (v.kind, v.bound, v.samples, v.seed) == ("flat-sampled", 4, 20, 0)

    def test_sampled_search_builds_only_the_rows_it_reads(self, monkeypatch):
        # It reads none: each sample of PG(3,2)'s 67 flats is scored by
        # delta and the rank of its union.
        pg32 = linear_matroid(2, [v for v in product((0, 1), repeat=4) if any(v)])
        built = []
        make = flatness._meet_row
        monkeypatch.setattr(flatness, "_meet_row", lambda *a: built.append(a[-1]) or make(*a))
        v = check_flat(pg32, 4, max_ground=15, sample=20)
        assert (v.kind, v.samples) == ("flat-sampled", 20)
        assert len(pg32.flats()) == 67
        assert built == []

    def test_finished_search_frees_its_matroid_without_the_cyclic_collector(self):
        m = corpus.gf2_3()
        ref = weakref.ref(m)
        gc.disable()
        try:
            assert check_flat(m, 4).kind == "not-flat"
            del m
            assert ref() is None
        finally:
            gc.enable()

    def test_work_cap_guard(self, gf2):
        # 16 flats: 3**16 - 1 subset terms, over the default cap.
        with pytest.raises(GroundTooLarge):
            check_flat(gf2, exhaustive=True)


# Seven points of the GF(3) plane, flat up to four flats but not five.
SIGMA5_COLS = [(1, 2, 2), (2, 2, 2), (2, 1, 2), (0, 2, 2), (0, 1, 2), (2, 0, 1), (0, 0, 2)]
SIGMA3_NONBASES = [(2, 3, 4, 6), (1, 2, 4, 5), (1, 3, 5, 6)]
# A flat GF(3) geometry with a ping-pong cycle of length 3.
PINGPONG_FLAT_COLS = [(2, 2, 2, 2), (2, 2, 0, 1), (2, 2, 1, 1), (1, 1, 0, 1), (2, 1, 0, 0), (0, 0, 1, 0)]


def paving_host(size, rank, nonbases):
    nb = {frozenset(s) for s in nonbases}
    m = sparse_paving_matroid(size, rank, nonbases)
    return m, cache(lambda s: sparse_paving_rank(rank, nb, s))


def linear_host(q, cols):
    return linear_matroid(q, cols), cache(lambda s: brute_rank(q, cols, s))


def alpha_pool():
    """(name, matroid, rank) for 117 seeded hosts of at most 7 elements:
    sparse paving hosts packed with nonbases (mostly not flat) or with two
    (flat), random GF(2) and GF(3) hosts with loops and parallel elements,
    and the sigma-3 and sigma-5 hosts.  ``rank`` is the definition or a
    brute-force rank, for ``ref_alpha_min``."""
    pool = [
        ("sigma3 host", *paving_host(7, 4, SIGMA3_NONBASES)),
        ("sigma5 host", *linear_host(3, SIGMA5_COLS)),
    ]
    shapes = ((6, 3, 200, 25), (7, 3, 200, 15), (6, 4, 200, 10), (6, 3, 2, 25))
    for size, rank, tries, count in shapes:
        for seed in range(count):
            rng = random.Random(f"alpha/{size}/{rank}/{tries}/{seed}")
            nonbases = seeded_nonbases(rng, size, rank, tries)
            pool.append((f"paving{size, rank, tries}#{seed}", *paving_host(size, rank, nonbases)))
    for q in (2, 3):
        for seed in range(20):
            rng = random.Random(f"alpha/gf{q}/{seed}")
            d = rng.randint(2, 3)
            cols = [tuple(rng.randrange(q) for _ in range(d)) for _ in range(rng.randint(4, 6))]
            pool.append((f"gf{q}#{seed} {cols}", *linear_host(q, cols)))
    return pool


def search_sizes(monkeypatch) -> list[int]:
    """The ``top`` of every later call of ``_MeetTable.least_violation``."""
    tops = []
    search = _MeetTable.least_violation
    monkeypatch.setattr(
        _MeetTable, "least_violation", lambda self, top: tops.append(top) or search(self, top)
    )
    return tops


def search_work(monkeypatch) -> dict[str, int]:
    """How many gain vectors (``_MeetTable.after``) and union rankings
    (``_union_rank``) later searches make."""
    work = dict.fromkeys(("after", "union"), 0)

    def counted(name, method):
        def wrapper(*args):
            work[name] += 1
            return method(*args)

        return wrapper

    monkeypatch.setattr(_MeetTable, "after", counted("after", _MeetTable.after))
    monkeypatch.setattr(flatness, "_union_rank", counted("union", flatness._union_rank))
    return work


class TestMasonAlpha:
    def test_alpha_nonnegative_iff_exhaustive_search_finds_nothing(self):
        pool = alpha_pool()
        not_flat = 0
        for name, m, rank in pool:
            flats = m.flats()
            clean = _MeetTable(m, flats).least_violation(len(flats)) is None
            alpha_ok = ref_alpha_min(m, rank) >= 0
            assert alpha_ok == clean, name
            assert flatness._alpha_nonnegative(m, flats) == alpha_ok, name
            not_flat += not clean
        assert len(pool) >= 100 and not_flat >= 25

    def test_pingpong_cycle_on_a_geometry_means_negative_alpha(self):
        # On the geometries (no loops, no parallel pairs) of the pool and
        # the corpus, a cycle of length 3 or more comes with alpha < 0.  That
        # is no rule: a cycle through two elements parallel over the net
        # occurs on flat geometries too (see the test below).  A cycle of
        # length 2 is a bounce: its last element lies in cl(net +
        # {previous}), whatever the paddles, and the flat u23_plus_2_free
        # holds one.  On a pregeometry a cycle can pass through a parallel
        # pair: two flat hosts of the pool hold one of length 3.  The corpus
        # hosts' alpha is the walk's, which the test above checks against
        # the definition.
        simple = cycles = 0
        bounces, through_parallel = {}, {}
        corpus_hosts = [(name, make(), None) for name, make in corpus.MATROIDS.items()]
        for name, m, rank in alpha_pool() + corpus_hosts:
            search = pps_find_cycle(m)
            assert search.status != "budget-exceeded", name
            points = [m.closure((e,)) for e in m.ground.elements]
            if not m.closure(()) and all(p == {e} for e, p in zip(m.ground.elements, points)):
                simple += 1
                if search.status == "found":
                    cycles += 1
                    ts = search.run.sequence.ts
                    if search.run.cycle_length == 2:
                        net = frozenset(search.run.sequence.config.net)
                        assert ts[-1] in m.closure(net | {ts[-2]}), name
                        bounces[name] = ts
                    elif rank is None:
                        assert flatness._alpha_nonnegative(m, m.flats()) is False, name
                    else:
                        assert ref_alpha_min(m, rank) < 0, name
            elif search.status == "found" and search.run.cycle_length >= 3:
                ts = search.run.sequence.ts
                assert any(m.closure((a,)) == m.closure((b,)) for a, b in zip(ts, ts[1:])), name
                assert check_flat(m, exhaustive=True).kind == "flat-exhaustive", name
                through_parallel[name.split()[0]] = ts
        assert (simple, cycles) == (97, 30)
        assert bounces == {"u23_plus_2_free": (1, 2, 1)}
        assert through_parallel == {"gf2#2": (2, 4, 5, 2), "gf3#3": (2, 3, 4, 2)}

    def test_flat_geometry_holds_a_cycle_through_a_pair_parallel_over_the_net(self):
        # A GF(3) geometry that is flat, yet its cycle of length 3 passes
        # through 3 and 5, which are parallel over the net (0,).
        m = linear_matroid(3, PINGPONG_FLAT_COLS)
        assert not m.closure(()) and all(m.closure((e,)) == {e} for e in m.ground.elements)
        assert check_flat(m, exhaustive=True).kind == "flat-exhaustive"
        assert flatness._alpha_nonnegative(m, m.flats()) is True
        search = pps_find_cycle(m)
        cfg = search.run.sequence.config
        assert search.status == "found" and search.run.cycle_length == 3
        assert (search.run.sequence.ts, cfg.net, cfg.a1, cfg.a2) == ((2, 3, 5, 2), (0,), 1, 4)
        assert m.closure({0, 3}) == {0, 3, 5}

    def test_search_that_ends_clean_despite_negative_alpha_is_an_error(self, monkeypatch):
        # U(2,3) has five flats: a search of all five that finds nothing
        # contradicts alpha < 0; a search of four claims no more.
        monkeypatch.setattr(flatness, "_alpha_nonnegative", lambda m, flats: False)
        m = uniform_matroid(2, 3)
        assert check_flat(m, 4) == flatness.FlatnessVerdict("flat-up-to", bound=4)
        with pytest.raises(MatroidContractError, match="alpha is negative"):
            check_flat(m, exhaustive=True)
        with pytest.raises(MatroidContractError, match="alpha is negative"):
            check_flat(m, 5)

    @pytest.mark.parametrize(
        "ground, changed, reason",
        [
            (3, {(2,): (1, 2), (0, 1): (0, 1, 2)}, "exchange at [], a=1, b=2"),
            (4, {(1,): (1, 3), (0, 1): (0, 1, 2, 3), (1, 2): (0, 1, 2, 3),
                 (1, 3): (0, 1, 2, 3), (2, 3): (1, 2, 3)}, "exchange at [], a=3, b=1"),
        ],
        ids=["meet", "join"],
    )
    def test_non_pregeometries_with_nonnegative_alpha_still_raise(
        self, monkeypatch, ground, changed, reason
    ):
        # The two closure tables of the CLI's non-pregeometry test: alpha
        # would call them flat, and the table check raises before any search.
        table = {s: changed.get(s, s) for s in subsets(tuple(range(ground)))}
        m = closure_table_matroid(ground, table)
        assert flatness._alpha_nonnegative(m, m.flats())
        tops = search_sizes(monkeypatch)
        with pytest.raises(MatroidContractError, match=re.escape(reason)):
            check_flat(m)
        assert tops == []

    @pytest.mark.parametrize(
        "m",
        [corpus.pps_chain(6), uniform_matroid(3, 7), corpus.pps_chain(10), uniform_matroid(4, 7),
         corpus.pps_chain(16)],
        ids=["pps_chain(6)", "U(3,7)", "pps_chain(10)", "U(4,7)", "pps_chain(16)"],
    )
    def test_flat_hosts_are_answered_without_a_search_past_pairs(self, monkeypatch, m):
        # No pair violates in a pregeometry, and alpha >= 0 rules out the
        # rest: no meet table is built and nothing is searched.  The work
        # cap prices only that search, so the last three hosts, past the cap
        # at sigma 4, are answered too, and exactly when a sample is offered.
        # pps_chain(16) has 18 elements; the ground bound of 12 confirms
        # only a disintegrated host.
        tops = search_sizes(monkeypatch)
        monkeypatch.setattr(flatness, "_MeetTable", None)
        for options in ({}, {"sample": 20}):
            assert check_flat(m, 4, **options) == flatness.FlatnessVerdict("flat-up-to", bound=4)
        assert tops == []

    def test_walk_past_its_bound_leaves_the_verdict_to_the_search(self, monkeypatch):
        # pps_chain(6) has positive cyclic flats whose unions need walking.
        m = corpus.pps_chain(6)
        assert flatness._alpha_nonnegative(m, m.flats()) is True
        expected = check_flat(corpus.pps_chain(6), 4)
        monkeypatch.setattr(flatness, "_ALPHA_WALK_BOUND", 0)
        assert flatness._alpha_nonnegative(m, m.flats()) is None
        tops = search_sizes(monkeypatch)
        assert check_flat(corpus.pps_chain(6), 4) == expected
        assert tops == [4]

    def test_criterion_verdict_frees_its_matroid_without_the_cyclic_collector(self):
        m = corpus.pps_chain(6)
        ref = weakref.ref(m)
        gc.disable()
        try:
            assert check_flat(m, 4).kind == "flat-up-to"
            del m
            assert ref() is None
        finally:
            gc.enable()
