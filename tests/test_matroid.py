import ast
import hashlib
import random
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    GF2_COLS,
    brute_rank,
    brute_sparse_paving_closure,
    brute_span,
    powerset,
    ref_flats,
    ref_pregeometry_ok,
    seeded_nonbases,
    sparse_paving_rank,
)
from flatgeom import corpus, jsonio
from flatgeom.flatness import check_flat
from flatgeom.pingpong import pps_find_cycle
from flatgeom.errors import (
    GroundTooLarge,
    InvalidElement,
    InvalidStructure,
    MatroidContractError,
    NoLargeCircuit,
    NotIndependent,
)
from flatgeom.matroid import (
    PRIME_TEST_BOUND,
    GroundSet,
    LinearOracle,
    Matroid,
    PregeometryReport,
    UniformOracle,
    Violation,
    _is_prime,
    closure_table_matroid,
    elements_of,
    free_matroid,
    linear_matroid,
    mask_of,
    sparse_paving_matroid,
    subsets,
    table_from_matroid,
    uniform_matroid,
)

# Ids in gf2_3 follow binary counting: 0=(001), 1=(010), 3=(100), ...
E1, E2, E3 = 3, 1, 0

# GF(5)^3 with a zero column (id 0) and two parallel columns (ids 1, 2).
GF5_COLS = [(0, 0, 0), (1, 2, 3), (2, 4, 1), (0, 1, 1), (1, 0, 4), (3, 3, 0)]


def pg_columns(d: int, q: int) -> list[tuple[int, ...]]:
    """Points of PG(d-1, q): nonzero vectors of GF(q)^d whose first nonzero
    entry is 1."""
    return [v for v in product(range(q), repeat=d) if next((x for x in v if x), 0) == 1]


def gaussian_binomial(d: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^d."""
    num = den = 1
    for i in range(k):
        num *= q ** (d - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def seeded_linear_hosts() -> list[tuple[int, list[tuple[int, ...]]]]:
    """(q, columns) over GF(2), GF(3), GF(5) and GF(7), six per field: random
    combinations of d - 1 (odd seeds: rank-deficient) or d generators of
    GF(q)^d, plus a zero column and a nonzero multiple of the first
    column, shuffled."""
    hosts = []
    for q in (2, 3, 5, 7):
        for seed in range(6):
            rng = random.Random(f"linear-walk/{q}/{seed}")
            d = rng.randint(2, 4)
            gens = [[rng.randrange(q) for _ in range(d)] for _ in range(d - seed % 2)]
            cols = [
                tuple(sum(rng.randrange(q) * g[i] for g in gens) % q for i in range(d))
                for _ in range(rng.randint(4, 6))
            ]
            scale = rng.randrange(1, q)
            cols += [(0,) * d, tuple(scale * x % q for x in cols[0])]
            rng.shuffle(cols)
            hosts.append((q, cols))
    return hosts


class CountingOracle:
    """Passes every query to ``inner`` and records the rank queries, as the
    oracles take them: one int mask per subset, bit e for element e."""

    def __init__(self, inner):
        self.inner = inner
        self.rank_queries = []

    def rank(self, subset, ground):
        self.rank_queries.append(subset)
        return self.inner.rank(subset, ground)

    def closure(self, subset, ground):
        return self.inner.closure(subset, ground)


class TestClosure:
    def test_gf2_span_of_two_basis_vectors(self, gf2):
        expected = brute_span(2, GF2_COLS, {E1, E2})
        assert gf2.closure({E1, E2}) == expected
        assert sorted(expected) == [1, 3, 5]  # e1, e2, e1+e2

    def test_closure_idempotent_on_closed_set(self, gf2):
        closed = gf2.closure({E1, E2})
        assert gf2.closure(closed) == closed

    def test_uniform_below_rank_is_identity(self):
        m = uniform_matroid(2, 3)
        assert m.closure({0}) == frozenset({0})
        assert m.closure({0, 1}) == frozenset({0, 1, 2})

    def test_unknown_element_rejected(self, gf2):
        with pytest.raises(InvalidElement):
            gf2.closure({0, 99})

    def test_flat_record_carries_dimension(self, gf2):
        flat = gf2.closure_flat({E1, E2})
        assert flat.elements == (1, 3, 5)
        assert flat.dim == 2


class TestRank:
    def test_full_gf2_ground_has_rank_three(self, gf2):
        assert gf2.rank(gf2.ground.elements) == 3
        assert brute_rank(2, GF2_COLS, gf2.ground.elements) == 3

    def test_empty_set_rank_zero(self, gf2):
        assert gf2.rank(()) == 0

    def test_uniform_rank_truncates(self):
        m = uniform_matroid(2, 3)
        assert m.rank({0, 1, 2}) == 2

    def test_rank_matches_brute_force_on_all_subsets(self, gf2):
        for subset in powerset(gf2.ground.elements, max_size=4):
            assert gf2.rank(subset) == brute_rank(2, GF2_COLS, subset)


class TestLinearOracle:
    def test_rank_and_closure_match_brute_force(self, gf3):
        cases = [
            (linear_matroid(2, GF2_COLS), 2, GF2_COLS, powerset(range(7))),
            (gf3, 3, gf3.oracle.columns, powerset(gf3.ground.elements, max_size=3)),
            (linear_matroid(5, GF5_COLS), 5, GF5_COLS, powerset(range(len(GF5_COLS)))),
        ]
        for m, q, cols, subsets in cases:
            for subset in subsets:
                assert m.rank(subset) == brute_rank(q, cols, subset), (q, subset)
                assert m.closure(subset) == brute_span(q, cols, subset), (q, subset)


class TestClosureTableOracle:
    def test_rank_from_table_matches_source(self, small_corpus):
        for name, m in small_corpus.items():
            n = len(m.ground)
            t = closure_table_matroid(n, table_from_matroid(m))
            for subset in powerset(m.ground.elements):
                assert t.rank(subset) == m.rank(subset), (name, subset)


class TestMaskQueries:
    """The mask queries inside ``Matroid`` against the frozenset references."""

    def test_closure_is_the_least_reference_flat_above(self, scan_corpus):
        for name, m in scan_corpus.items():
            # ref_flats ascends in size, so the first flat above S is cl(S).
            flats = [mask_of(f) for f in ref_flats(m)]
            for subset in powerset(m.ground.elements):
                s = mask_of(subset)
                assert m._closure_mask(s) == next(f for f in flats if not s & ~f), (name, subset)

    def test_linear_rank_and_closure_match_brute_force(self, scan_corpus):
        for name, m in scan_corpus.items():
            if not isinstance(m.oracle, LinearOracle):
                continue
            q, cols = m.oracle.field, m.oracle.columns
            # Up to rank + 1 elements on gf3_3: a brute span of k columns
            # enumerates 3**k combinations.
            top = m.full_rank + 1 if name == "gf3_3" else None
            for subset in powerset(m.ground.elements, max_size=top):
                s = mask_of(subset)
                assert m._rank_mask(s) == brute_rank(q, cols, subset), (name, subset)
                assert m._closure_mask(s) == mask_of(brute_span(q, cols, subset)), (name, subset)


def linear_host(name: str) -> Matroid:
    """A corpus member, PG(3,2), or ``seeded#i``, host i of
    ``seeded_linear_hosts()``."""
    if name == "PG(3,2)":
        return linear_matroid(2, pg_columns(4, 2))
    if name.startswith("seeded#"):
        return linear_matroid(*seeded_linear_hosts()[int(name[7:])])
    return corpus.MATROIDS[name]()


class TestPrefixRule:
    """Linear closure-memo misses answered by the cover rule from the
    longest cached prefix, against the oracle asked cold; closure tables
    read verbatim."""

    @pytest.mark.parametrize("name", ["gf2_3", "gf3_3", "PG(3,2)", *(f"seeded#{i}" for i in range(24))])
    def test_linear_closure_equals_the_cold_oracle(self, name):
        m = linear_host(name)
        whole, oracle = m._ground_mask, m.oracle
        masks = [mask_of(s) for s in powerset(m.ground.elements)]
        want = {s: oracle.closure(s, whole) for s in masks}
        # (size, lex) order meets every prefix first, so each miss steps
        # at most once; a decreasing order meets no prefix first, so each
        # steps up from cl(empty); a shuffled order mixes the two.
        shuffled = masks[:] if name != "PG(3,2)" else []
        random.Random(0).shuffle(shuffled)
        for order in (masks, sorted(masks, reverse=True), shuffled):
            live = Matroid(m.ground, oracle)
            for s in order:
                assert live._closure_mask(s) == want[s], (name, elements_of(s))

    def test_cold_axiom_check_reduces_each_flat_at_most_twice(self):
        covered, extended, closed = [], [], []

        class CountingLinearOracle(LinearOracle):
            def covers(self, basis, outside):
                covered.append(outside)
                return super().covers(basis, outside)

            def extend(self, start, spanned, subset, ground):
                extended.append(spanned)
                return super().extend(start, spanned, subset, ground)

            def closure(self, subset, ground):
                closed.append(subset)
                return super().closure(subset, ground)

        gf3 = corpus.gf3_3()
        m = Matroid(gf3.ground, CountingLinearOracle(3, gf3.oracle.columns))
        n = len(m.ground)
        assert m.verify_pregeometry(max_ground=n) == PregeometryReport(True, None, 2**n, False)
        # Each flat but E is reduced at most twice: by one closure from its
        # basis, and then, once that closure is a cover of it, for its
        # cover table.  The oracle closes only the empty set, which is the
        # first extension.
        flats = {mask_of(f.elements) for f in gf3.flats()}
        assert len(covered) == len(set(covered)) <= len(flats) - 1
        assert {m._ground_mask & ~o for o in covered} <= flats
        assert closed == [0] and extended[0] == 0
        assert len(extended[1:]) == len(set(extended[1:])) <= len(flats) - 1
        assert set(extended) <= flats

    def test_linear_closure_equals_the_brute_span(self):
        m = corpus.gf2_3()
        for subset in powerset(m.ground.elements):
            assert m._closure_mask(mask_of(subset)) == mask_of(brute_span(2, GF2_COLS, subset)), subset

    def test_long_prefix_walk_is_not_recursive(self):
        # 1 200 distinct nonzero GF(2)^11 columns; cl({0}) is cached, so
        # the miss on the whole ground walks down 1 199 prefixes.
        m = linear_matroid(2, [tuple(k >> i & 1 for i in range(11)) for k in range(1, 1201)])
        assert m.closure([0]) == {0}
        assert m.closure(range(1200)) == frozenset(range(1200))

    @pytest.mark.parametrize(
        "entries, violation",
        [
            # {0, 1, 2} is a parallel class, but cl({0, 1}) = {0, 1}: the
            # prefix rule would derive {0, 1, 2} from cl({0}).
            (
                {(0,): (0, 1, 2), (1,): (0, 1, 2), (2,): (0, 1, 2), (0, 1): (0, 1)},
                Violation("monotonicity", 2, 1, (0,)),
            ),
            # cl({2}) = {1, 2, 8}: the rule would derive cl({2, 8}) as
            # {1, 2, 8}, not the table's {2, 8}.
            ({(2,): (1, 2, 8)}, Violation("exchange", 1, 2, ())),
        ],
    )
    def test_table_that_breaks_the_axioms_is_read_verbatim(self, entries, violation):
        size = 9
        table = table_from_matroid(free_matroid(size))
        table.update({frozenset(k): frozenset(v) for k, v in entries.items()})
        m = closure_table_matroid(size, table)
        assert m.verify_pregeometry().violation == violation
        for key in powerset(range(size)):
            assert m.closure(key) == table[frozenset(key)], key


class TestIndependence:
    def test_dependent_triple(self, gf2):
        assert not gf2.is_independent({E1, E2, 5})  # e1, e2, e1+e2

    def test_empty_independent(self, gf2):
        assert gf2.is_independent(())

    def test_basis_independent(self, gf2):
        assert gf2.is_independent({E1, E2, E3})


class TestVerify:
    def test_gf2_passes(self, gf2):
        report = gf2.verify_pregeometry()
        assert report.ok and report.violation is None

    def test_uniform_passes(self):
        assert uniform_matroid(2, 4).verify_pregeometry().ok

    def test_idempotence_violation_reported(self):
        # cl({0}) = {0,1} is declared closed, but cl({0,1}) = {0,1,2}.
        table = table_from_matroid(free_matroid(3))
        table[frozenset({0})] = frozenset({0, 1})
        table[frozenset({0, 1})] = frozenset({0, 1, 2})
        m = closure_table_matroid(3, table)
        report = m.verify_pregeometry()
        assert not report.ok
        assert report.violation.kind in ("idempotence", "exchange", "monotonicity")

    def test_ground_too_large_without_sampling(self):
        m = uniform_matroid(3, 14)
        with pytest.raises(GroundTooLarge):
            m.verify_pregeometry()
        assert m.verify_pregeometry(sample=50).ok

    def test_closure_table_must_be_complete(self):
        with pytest.raises(InvalidStructure):
            closure_table_matroid(3, {frozenset(): frozenset()})

    def test_closure_table_ground_must_be_non_negative(self):
        with pytest.raises(InvalidStructure, match="closure table ground must be >= 0, got -1"):
            closure_table_matroid(-1, {})

    def test_closure_table_key_off_the_ground_set_rejected(self):
        table = table_from_matroid(free_matroid(2))
        del table[frozenset({0, 1})]
        table[frozenset({5})] = frozenset({5})
        with pytest.raises(InvalidStructure, match=r"entry \[5\] -> \[5\] leaves the ground set 0..1"):
            closure_table_matroid(2, table)

    def test_exchange_witness_is_the_least_a(self):
        # cl({2}) = {1, 2, 8} while 2 lies outside both cl({1}) and cl({8}).
        table = table_from_matroid(free_matroid(9))
        table[frozenset({2})] = frozenset({1, 2, 8})
        report = closure_table_matroid(9, table).verify_pregeometry()
        assert report.violation == Violation("exchange", 1, 2, ())


def seeded_closure_tables(count: int) -> list[tuple[int, dict[frozenset[int], frozenset[int]]]]:
    """``count`` seeded closure tables of 1 to 6 elements, as (n, table):
    linear tables over GF(2) or GF(3), uniform tables and the closure maps
    of random intersection-closed families, each with up to two entries
    perturbed by one element or replaced by a random subset."""
    rng = random.Random("closure-table-pool")
    pool = []
    for i in range(count):
        n = rng.randint(1, 6)
        subs = [frozenset(s) for s in powerset(range(n))]
        if i % 3 == 0:
            q = rng.choice((2, 3))
            d = rng.randint(1, 3)
            table = table_from_matroid(
                linear_matroid(q, [[rng.randrange(q) for _ in range(d)] for _ in range(n)])
            )
        elif i % 3 == 1:
            table = table_from_matroid(uniform_matroid(rng.randint(0, n), n))
        else:
            family = {frozenset(range(n))} | {rng.choice(subs) for _ in range(rng.randint(1, 2 * n))}
            table = {s: frozenset.intersection(*(f for f in family if s <= f)) for s in subs}
        for _ in range(rng.choice((0, 0, 1, 2))):
            s = rng.choice(subs)
            if rng.random() < 0.7:
                table[s] = table[s] ^ {rng.randrange(n)}
            else:
                table[s] = rng.choice(subs)
        pool.append((n, table))
    return pool


@pytest.fixture(scope="module")
def closure_table_pool():
    return seeded_closure_tables(2000)


class TestVerifyCriterion:
    """The exhaustive check decides a pass from closed sets and their
    covers; the (size, lex) scan runs only to name the least violation."""

    def test_verdict_matches_the_axioms_on_a_seeded_pool(self, closure_table_pool):
        failing = 0
        for n, table in closure_table_pool:
            want = ref_pregeometry_ok(n, table)
            assert closure_table_matroid(n, table).verify_pregeometry().ok == want, (n, table)
            failing += not want
        assert len(closure_table_pool) >= 2000
        assert failing >= len(closure_table_pool) / 4

    def test_check_flat_refuses_exactly_the_non_pregeometries(self, closure_table_pool):
        for n, table in closure_table_pool:
            m = closure_table_matroid(n, table)
            if ref_pregeometry_ok(n, table):
                check_flat(m, 3)
            else:
                with pytest.raises(MatroidContractError, match="^closure table is no pregeometry: "):
                    check_flat(m, 3)

    def test_linear_and_sparse_paving_hosts_are_pregeometries(self):
        # check_flat checks only closure tables: the other hosts are
        # pregeometries by construction, loops and parallel pairs included.
        linear = [linear_matroid(q, cols) for q, cols in seeded_linear_hosts()]
        paving = []
        for seed in range(40):
            rng = random.Random(f"sparse-paving-pregeometry/{seed}")
            rank = seed % 4 + 1
            size = rng.randint(rank, 9)
            paving.append(sparse_paving_matroid(size, rank, seeded_nonbases(rng, size, rank, 30)))
        assert sum(bool(m.oracle.nonbases) for m in paving) >= 30
        for m in linear + paving:
            assert m.verify_pregeometry(max_ground=len(m.ground)).ok, m.oracle

    def test_scan_alone_gives_the_same_reports(self, closure_table_pool, small_corpus, monkeypatch):
        hosts = [lambda n=n, t=t: closure_table_matroid(n, t) for n, t in closure_table_pool]
        hosts += [lambda m=m: Matroid(m.ground, m.oracle) for m in small_corpus.values()]
        default = [make().verify_pregeometry() for make in hosts]
        monkeypatch.setattr(Matroid, "_is_pregeometry", lambda self: False)
        assert [make().verify_pregeometry() for make in hosts] == default

    def test_monotonicity_fails_only_below_a_closed_set(self):
        # cl({0}) = cl({1}) = {0, 1} on free(3): every closed set passes,
        # and monotonicity fails only at {0}, which is not closed.
        table = table_from_matroid(free_matroid(3))
        table[frozenset({0})] = table[frozenset({1})] = frozenset({0, 1})
        report = closure_table_matroid(3, table).verify_pregeometry()
        assert report == PregeometryReport(False, Violation("monotonicity", 1, 2, (0,)), 2, False)

    def test_spanning_cover_mixed_with_a_proper_one(self):
        # The closure of the family {{}, {0}, E}: the covers of the empty
        # flat are {0} and the spanning E.
        family = [frozenset(), frozenset({0}), frozenset(range(3))]
        table = {s: min((f for f in family if s <= f), key=len) for s in map(frozenset, powerset(range(3)))}
        report = closure_table_matroid(3, table).verify_pregeometry()
        assert report == PregeometryReport(False, Violation("exchange", 0, 1, ()), 1, False)

    def test_idempotence_table_reports_the_least_exchange(self):
        # The table of TestVerify.test_idempotence_violation_reported.
        table = table_from_matroid(free_matroid(3))
        table[frozenset({0})] = frozenset({0, 1})
        table[frozenset({0, 1})] = frozenset({0, 1, 2})
        report = closure_table_matroid(3, table).verify_pregeometry()
        assert report == PregeometryReport(False, Violation("exchange", 1, 0, ()), 1, False)

    @pytest.mark.parametrize("host", ["gf3_3", "table"])
    def test_memo_pass_looks_up_at_most_three_closures_per_subset(self, host):
        # Linear and closure-table hosts still close through the memo.
        if host == "gf3_3":
            m = corpus.gf3_3()
        else:
            m = closure_table_matroid(6, table_from_matroid(uniform_matroid(3, 6)))
        n, lookup, calls = len(m.ground), m._closure_mask, []

        def counting(s: int) -> int:
            calls.append(s)
            return lookup(s)

        m._closure_mask = counting
        report = m.verify_pregeometry(max_ground=n)
        assert report == PregeometryReport(True, None, 2**n, False)
        assert 2**n <= len(calls) <= 3 * 2**n

    def test_pass_reads_at_most_three_sparse_paving_closures_per_subset(self, monkeypatch):
        rule, calls = UniformOracle.closure, []

        def counting(self, s: int, ground: int) -> int:
            calls.append(s)
            return rule(self, s, ground)

        monkeypatch.setattr(UniformOracle, "closure", counting)
        report = uniform_matroid(3, 12).verify_pregeometry(max_ground=12)
        assert report == PregeometryReport(True, None, 2**12, False)
        assert 2**12 <= len(calls) <= 3 * 2**12

    def test_sparse_paving_pass_leaves_the_memo_as_it_was(self):
        # Each subset is closed once, so the pass reads a sparse paving
        # host's rule rather than fill the memo with 2**n masks.
        m = corpus.pps_chain(12)
        pps_find_cycle(m)
        before = dict(m._closures)
        assert before
        assert m.verify_pregeometry(max_ground=14) == PregeometryReport(True, None, 2**14, False)
        assert m._closures == before

    def test_linear_and_table_passes_fill_the_memo(self):
        # A linear host's prefix rule lives in its memo, and a later
        # check_flat walk on a table reads the entries the pass left.
        table = closure_table_matroid(5, table_from_matroid(uniform_matroid(3, 5)))
        for m in (corpus.gf3_3(), table):
            n = len(m.ground)
            assert m.verify_pregeometry(max_ground=n) == PregeometryReport(True, None, 2**n, False)
            assert len(m._closures) == 2**n, m.oracle


class TestCircuits:
    def test_gf2_triangles(self, gf2):
        got = [c.elements for c in gf2.circuits(3)]
        expected = sorted(
            tuple(sorted(c))
            for c in powerset(range(7), 3, 3)
            if brute_rank(2, GF2_COLS, c) < 3
        )
        assert got == expected
        assert len(got) == 7

    def test_uniform_3_5_has_no_small_circuits(self):
        assert uniform_matroid(3, 5).circuits(3) == []

    def test_uniform_2_3_single_circuit(self):
        circuits = uniform_matroid(2, 3).circuits(3)
        assert [c.elements for c in circuits] == [(0, 1, 2)]

    def test_dependence_iff_contains_circuit(self, small_corpus):
        for m in small_corpus.values():
            circuits = [frozenset(c.elements) for c in m.circuits(len(m.ground))]
            for subset in powerset(m.ground.elements):
                s = frozenset(subset)
                contains = any(c <= s for c in circuits)
                assert contains == (not m.is_independent(s))


class TestFlats:
    def test_flats_are_the_closed_subsets(self, scan_corpus):
        for name, m in scan_corpus.items():
            ref = ref_flats(m)
            assert [(f.as_set(), f.dim) for f in m.flats()] == [
                (s, m.rank(s)) for s in ref
            ], name

    def test_rank_bounded_flats_at_every_bound(self, scan_corpus):
        linear = [((q, cols), linear_matroid(q, cols)) for q, cols in seeded_linear_hosts()]
        for name, m in [*scan_corpus.items(), *linear]:
            ref = ref_flats(m)
            for bound in range(-1, m.full_rank + 1):
                want = [(mask_of(s), m.rank(s)) for s in ref if m.rank(s) <= bound]
                assert list(m._closed_sets(bound).items()) == want, (name, bound)

    @pytest.mark.parametrize("d, q", [(3, 2), (3, 3), (3, 5), (4, 2), (4, 3), (5, 3), (6, 2)])
    def test_projective_space_flats_by_rank(self, d, q):
        # The rank-k flats of PG(d-1, q) are its k-dimensional subspaces.
        flats = linear_matroid(q, pg_columns(d, q)).flats()
        for k in range(d + 1):
            of_rank = [f for f in flats if f.dim == k]
            assert len(of_rank) == gaussian_binomial(d, k, q), k
            assert {len(f.elements) for f in of_rank} == {(q**k - 1) // (q - 1)}, k

    def test_linear_walk_leaves_only_the_bottom_closure_in_the_memo(self):
        hosts = [*seeded_linear_hosts(), (5, GF5_COLS), (2, pg_columns(4, 2))]
        for q, cols in hosts:
            m = linear_matroid(q, cols)
            ground = m._ground_mask
            walked = linear_matroid(q, cols)
            walked._closed_sets(walked.full_rank)
            assert walked._closures == {0: m.oracle.closure(0, ground)}, (q, cols)
            flats = m.flats()
            assert m._closures == {0: m.oracle.closure(0, ground)}, (q, cols)
            # Each cl(F + e) read afterwards is a miss that the prefix rule
            # or the oracle answers, and equals the oracle's closure.
            for f in map(mask_of, (flat.elements for flat in flats)):
                for e in elements_of(ground & ~f):
                    s = f | 1 << e
                    assert m._closure_mask(s) == m.oracle.closure(s, ground), (q, cols, s)

    def test_linear_walk_asks_no_closure_of_a_cover_candidate(self):
        asked = []

        class CountingLinearOracle(LinearOracle):
            def closure(self, subset, ground):
                asked.append(subset)
                return super().closure(subset, ground)

        pg32 = linear_matroid(2, pg_columns(4, 2))
        m = Matroid(pg32.ground, CountingLinearOracle(2, pg32.oracle.columns))
        assert len(m.flats()) == 67
        assert asked == [0]  # cl(empty), the bottom of the walk

    def test_linear_walk_takes_no_covers_of_a_hyperplane(self):
        walked = []

        class CountingLinearOracle(LinearOracle):
            def covers(self, basis, outside):
                walked.append(len(basis))
                return super().covers(basis, outside)

        pg32 = linear_matroid(2, pg_columns(4, 2))
        m = Matroid(pg32.ground, CountingLinearOracle(2, pg32.oracle.columns))
        assert len(m.flats()) == 67
        # One call for the empty flat, the 15 points and the 35 lines; none
        # for the 15 planes, whose one cover is the whole ground.
        assert len(walked) == 51 and max(walked) == 2

    def test_uniform_walk_closes_no_set_above_the_hyperplanes(self):
        asked = []

        class CountingUniformOracle(UniformOracle):
            def closure(self, subset, ground):
                asked.append(subset)
                return super().closure(subset, ground)

        flats = Matroid(uniform_matroid(3, 6).ground, CountingUniformOracle(3)).flats()
        assert [f.dim for f in flats] == [0] + [1] * 6 + [2] * 15 + [3]
        # cl(empty), the 6 points and the 15 pairs; no 3-set is closed.
        assert len(asked) == 22 and max(s.bit_count() for s in asked) == 2

    def test_closure_table_walks_its_top_level(self):
        # cl {0, 1} = E, yet {0, 2} and {1, 2} are closed at the table's
        # rank 2: a walk that stopped at the hyperplanes would drop them.
        table = {s: s for s in subsets(range(3))}
        table[0, 1] = (0, 1, 2)
        m = closure_table_matroid(3, table)
        assert [(f.elements, f.dim) for f in m.flats()] == [
            ((), 0), ((0,), 1), ((1,), 1), ((2,), 1), ((0, 2), 2), ((1, 2), 2), ((0, 1, 2), 2),
        ]

    def test_flats_ask_no_rank_of_a_flat(self):
        pg32 = linear_matroid(2, pg_columns(4, 2))
        oracle = CountingOracle(pg32.oracle)
        assert len(Matroid(pg32.ground, oracle).flats()) == 67
        assert oracle.rank_queries == [(1 << 15) - 1]  # the whole ground
        oracle = CountingOracle(pg32.oracle)
        nets = Matroid(pg32.ground, oracle)._closed_sets(1)  # full rank 4, minus 3
        assert len(nets) == 16 and oracle.rank_queries == []


class TestSmallestCircuit:
    def test_least_circuit_of_size_three_or_more(self, scan_corpus):
        for name, m in scan_corpus.items():
            sizes = [c.size for c in m.circuits(len(m.ground)) if c.size >= 3]
            if sizes:
                assert m.smallest_circuit_param() == (sizes[0], sizes[0] - 1), name
            else:
                with pytest.raises(NoLargeCircuit):
                    m.smallest_circuit_param()

    def test_uniform_2_3(self):
        assert uniform_matroid(2, 3).smallest_circuit_param() == (3, 2)

    def test_gf2(self, gf2):
        assert gf2.smallest_circuit_param() == (3, 2)

    def test_free_matroid_has_none(self):
        with pytest.raises(NoLargeCircuit):
            free_matroid(4).smallest_circuit_param()


class TestCarousel:
    def test_gf2_coordinate_planes(self, gf2):
        assert gf2.carousel_check((), (E1, E2, E3))

    def test_single_element_base_case(self, gf2):
        assert gf2.carousel_check((E1,), (E2,))

    def test_uniform_with_base(self):
        m = uniform_matroid(3, 6)
        assert m.carousel_check((0,), (1, 2))

    def test_dependent_tuple_rejected(self, gf2):
        with pytest.raises(NotIndependent):
            gf2.carousel_check((), (E1, E2, 5))


class TestAxiomsAsProperties:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_monotone_idempotent_exchange(self, data, small_corpus):
        name = data.draw(st.sampled_from(sorted(small_corpus)))
        m = small_corpus[name]
        elems = list(m.ground.elements)
        a_set = frozenset(data.draw(st.sets(st.sampled_from(elems), max_size=4)))
        b = data.draw(st.sampled_from(elems))
        cl_a = m.closure(a_set)
        assert a_set <= cl_a
        assert m.closure(cl_a) == cl_a
        cl_ab = m.closure(a_set | {b})
        assert cl_a <= cl_ab
        for a in cl_ab - cl_a - {b}:
            assert b in m.closure(a_set | {a})

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_rank_monotone_and_submodular(self, data, small_corpus):
        name = data.draw(st.sampled_from(sorted(small_corpus)))
        m = small_corpus[name]
        elems = list(m.ground.elements)
        a = frozenset(data.draw(st.sets(st.sampled_from(elems), max_size=5)))
        b = frozenset(data.draw(st.sets(st.sampled_from(elems), max_size=5)))
        assert m.rank(a) <= m.rank(a | b)
        assert m.rank(a) + m.rank(b) >= m.rank(a | b) + m.rank(a & b)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_carousel_holds_on_valid_inputs(self, data, small_corpus):
        name = data.draw(st.sampled_from(sorted(small_corpus)))
        m = small_corpus[name]
        elems = list(m.ground.elements)
        abar = frozenset(data.draw(st.sets(st.sampled_from(elems), max_size=2)))
        pool = [e for e in elems if e not in abar]
        bs = []
        for e in data.draw(st.permutations(pool)):
            if len(bs) == 3:
                break
            if e not in m.closure(abar | frozenset(bs)):
                bs.append(e)
        if bs and m.independent_over(tuple(bs), abar):
            assert m.carousel_check(tuple(abar), tuple(bs))


#: sha256 of each host's ``matroid_to_json`` text, recorded when sparse
#: paving hosts were explicit closure tables.  The three pool members are
#: the benchmark's sparse_paving(12,3,10) #0..2.
TABLE_DIGESTS = {
    "three_planes": (
        corpus.three_planes, "db998fd21b0b7bb07a6bd39e1089386ea861339ff4b1b7f0ed560912b32d9c81"),
    "pps_chain(6)": (
        corpus.pps_chain, "656e21a441f6f601c407b803e6a3fa286461092358df4e7eb61199cf070ba376"),
    "pps_chain(12)": (
        lambda: corpus.pps_chain(12), "0b1a0d733333cf04fa912cdb59e9fbfbc6d62c45767c9ca1b5975a5db9ce1222"),
    "sparse_paving(12,3,10)#0": (
        lambda: sparse_paving_matroid(12, 3, [
            (4, 9, 10), (2, 5, 6), (0, 4, 6), (6, 8, 10), (2, 10, 11),
            (0, 7, 11), (3, 7, 9), (1, 4, 8), (0, 5, 9), (2, 4, 7)]),
        "229c684411fc7b4ac5b24c5bd8378d32285e7aebcbba3f23d4843e6253208c80"),
    "sparse_paving(12,3,10)#1": (
        lambda: sparse_paving_matroid(12, 3, [
            (1, 5, 7), (7, 8, 9), (4, 6, 7), (1, 6, 9), (8, 10, 11),
            (0, 4, 5), (5, 6, 10), (2, 7, 10), (1, 2, 11), (3, 5, 11)]),
        "82b8919aadc3ce38988cb7c2b146a05192f370835835e56fee94a727a98a9969"),
    "sparse_paving(12,3,10)#2": (
        lambda: sparse_paving_matroid(12, 3, [
            (0, 6, 11), (1, 2, 4), (1, 8, 10), (5, 6, 9), (0, 7, 9),
            (3, 4, 5), (4, 6, 7), (3, 8, 9), (1, 5, 7), (2, 10, 11)]),
        "a6d3a55542e3374a50e3bd9f21976af0fe7827c61260717d107ede64ab99a3e9"),
}


class TestSparsePaving:
    def test_three_planes_dimensions(self):
        m = corpus.three_planes()
        q1, q2, q3 = {0, 1, 2, 3}, {0, 1, 4, 5}, {2, 3, 4, 5}
        assert m.rank(q1) == m.rank(q2) == m.rank(q3) == 3
        assert m.closure(q1) == frozenset(q1)
        assert m.rank(q1 & q2) == 2
        assert m.rank(q1 & q2 & q3) == 0
        assert m.verify_pregeometry().ok

    def test_rejects_overlapping_nonbases(self):
        with pytest.raises(InvalidStructure):
            sparse_paving_matroid(5, 3, [(0, 1, 2), (0, 1, 3)])

    @pytest.mark.parametrize("bad", [(0, 1, 5), (-1, 0, 1)])
    def test_rejects_nonbases_off_the_ground_set(self, bad):
        with pytest.raises(InvalidStructure, match="leaves the ground set 0..4"):
            sparse_paving_matroid(5, 3, [bad])

    @pytest.mark.parametrize(
        "rank, nonbases",
        [(3, [(0, 1, 2), (2, 1, 0)]), (1, [(4,), (4,)]), (2, [(0, 1), (1, 2)]), (1, [(0,), (3,)])],
        ids=["repeat", "repeated-loop", "shared-point", "two-loops"],
    )
    def test_rejects_nonbases_sharing_rank_minus_one(self, rank, nonbases):
        with pytest.raises(InvalidStructure, match="pairwise nonbasis intersections"):
            sparse_paving_matroid(5, rank, nonbases)

    @pytest.mark.parametrize("size, rank, nonbases", [(3, -1, []), (3, 0, [()]), (-1, 0, [])])
    def test_rejects_degenerate_shapes(self, size, rank, nonbases):
        with pytest.raises(InvalidStructure):
            sparse_paving_matroid(size, rank, nonbases)

    def test_matroid_refuses_a_nonbasis_off_its_ground(self):
        with pytest.raises(InvalidStructure, match=r"nonbasis \[0, 3\] leaves the ground set"):
            Matroid(GroundSet((0, 1, 2)), UniformOracle(2, [0b1001]))
        m = Matroid(GroundSet((0, 1, 3)), UniformOracle(2, [0b1001]))
        assert m.closure({0}) == {0, 3}

    @pytest.mark.parametrize("nonbasis", [0b11, 0b1111], ids=["short", "long"])
    def test_oracle_refuses_nonbases_of_another_size(self, nonbasis):
        with pytest.raises(InvalidStructure, match="exactly `rank` elements"):
            UniformOracle(3, {nonbasis})
        with pytest.raises(InvalidStructure, match="exactly `rank` elements"):
            sparse_paving_matroid(5, 3, [elements_of(nonbasis)])

    def test_rule_matches_the_rank_definition_on_seeded_hosts(self):
        hosts = 0
        for seed in range(75):
            rng = random.Random(f"sparse-paving-rule/{seed}")
            rank = seed % 5 + 1
            size = rng.randint(rank, 10)
            nonbases = seeded_nonbases(rng, size, rank, rng.randint(0, 30))
            m = sparse_paving_matroid(size, rank, nonbases)
            assert isinstance(m.oracle, UniformOracle)
            for subset in powerset(range(size)):
                want = brute_sparse_paving_closure(size, rank, nonbases, subset)
                assert m.closure(subset) == want, (size, rank, nonbases, subset)
                assert m.rank(subset) == sparse_paving_rank(rank, nonbases, subset)
            hosts += bool(nonbases)
        assert hosts >= 60

    def test_without_nonbases_the_rule_is_uniform(self):
        for rank, size in [(0, 3), (1, 4), (3, 3), (3, 5), (5, 3)]:
            m, u = sparse_paving_matroid(size, rank, []), uniform_matroid(rank, size)
            assert m.oracle == u.oracle
            for subset in powerset(range(size)):
                assert m.closure(subset) == u.closure(subset)

    @pytest.mark.parametrize("name", list(TABLE_DIGESTS))
    def test_written_as_the_same_closure_table(self, name):
        make, digest = TABLE_DIGESTS[name]
        text = jsonio.dumps(jsonio.matroid_to_json(make()))
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        again = jsonio.matroid_from_json(jsonio.loads(text))
        assert jsonio.dumps(jsonio.matroid_to_json(again)) == text

    @pytest.mark.parametrize("length", [15, 60])
    def test_refuses_to_write_a_table_past_the_bound(self, length):
        with pytest.raises(GroundTooLarge, match=rf"2\*\*{length + 2} subsets \(> 2\*\*16\)"):
            jsonio.matroid_to_json(corpus.pps_chain(length))

    @pytest.mark.parametrize("length, flats, configs", [(30, 472, 29_586), (60, 1_837, 226_566)])
    def test_long_pps_chains_without_a_table(self, length, flats, configs):
        m = corpus.pps_chain(length)
        assert len(m.ground) == length + 2 and len(m.flats()) == flats
        found = pps_find_cycle(m)
        assert (found.status, found.configs_searched) == ("none", configs)


class TestTabulator:
    """``table_from_matroid`` and the closure-table writer read one row loop."""

    @staticmethod
    def written_rows(m):
        doc = jsonio.matroid_to_json(m)
        if doc["type"] != "closure-table":
            # Linear and uniform documents list no rows: write a table of
            # the memo's closures instead.
            table = {s: m.closure(s) for s in powerset(m.ground.elements)}
            doc = jsonio.matroid_to_json(closure_table_matroid(len(m.ground), table))
        return [(frozenset(row["set"]), frozenset(row["cl"])) for row in doc["closure"]]

    @pytest.mark.parametrize("name", [*corpus.MATROIDS, *TABLE_DIGESTS])
    def test_table_is_the_written_rows_and_leaves_the_memo(self, name):
        m = corpus.MATROIDS[name]() if name in corpus.MATROIDS else TABLE_DIGESTS[name][0]()
        table = table_from_matroid(m)
        assert not m._closures
        assert list(table.items()) == self.written_rows(m)

    def test_refuses_past_the_bound(self):
        with pytest.raises(GroundTooLarge, match=r"2\*\*17 subsets \(> 2\*\*16\)"):
            table_from_matroid(corpus.pps_chain(15))

    def test_jsonio_reaches_tables_only_through_the_matroid_module(self):
        tree = ast.parse(Path(jsonio.__file__).read_text())
        imported = {
            alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        internals = {
            "ClosureTableOracle", "GroundSet", "Matroid", "table_masks", "subsets", "mask_of",
            "elements_of",
        }
        assert {"closure_table_matroid", "table_rows"} <= imported
        assert not imported & internals


def test_linear_matroid_requires_prime_field():
    with pytest.raises(InvalidStructure):
        linear_matroid(4, [(1, 0), (0, 1)])


def test_prime_test_is_exact_below_its_bound():
    def trial_division(n):
        return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert all(_is_prime(n) == trial_division(n) for n in range(-3, 5000))
    # Strong pseudoprimes to the bases 2..23 and 2..37; the least one to
    # the bases 2..41 is the bound itself.
    for n in (3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n)
    assert _is_prime(2**31 - 1) and _is_prime(2**61 - 1)
    with pytest.raises(InvalidStructure, match="bound of the primality test"):
        _is_prime(PRIME_TEST_BOUND)


def test_closure_table_supports_rank_zero_elements():
    # cl() may be nonempty: element 0 is a rank-0 point.
    table = {
        frozenset(): frozenset({0}),
        frozenset({0}): frozenset({0}),
        frozenset({1}): frozenset({0, 1}),
        frozenset({0, 1}): frozenset({0, 1}),
    }
    m = closure_table_matroid(2, table)
    assert m.verify_pregeometry().ok
    assert m.rank({0}) == 0
    assert m.rank({0, 1}) == 1
    assert m.closure_flat(()).dim == 0
