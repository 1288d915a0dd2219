import random
from dataclasses import replace
from itertools import combinations

import pytest

from conftest import (
    ref_acl,
    ref_certified_lambda,
    ref_ild,
    ref_lambda_closure,
    ref_revealed_closure,
    ref_step,
)
from flatgeom import corpus, formula_closure
from flatgeom.errors import InvalidElement, InvalidStructure, NotIndependent
from flatgeom.formula_closure import (
    EnumeratedStructure,
    GeometricStructure,
    PsiRelation,
    acl_enumerate_via_lambda,
    certified_lambda,
    ild_estimate,
    lambda_closure,
    lambda_step,
    psi_witness_check,
    revealed_closure,
)
from flatgeom.matroid import elements_of, linear_matroid, uniform_matroid


@pytest.fixture(scope="module")
def demo():
    return corpus.phi_demo()


class TestLambdaStep:
    def test_single_fiber_fires(self, demo):
        assert lambda_step(demo, {0, 1}) == frozenset({0, 1, 2})

    def test_no_matching_tuple_is_identity(self, demo):
        assert lambda_step(demo, {0, 3}) == frozenset({0, 3})

    def test_full_universe_fixed(self, demo):
        full = frozenset(demo.universe)
        assert lambda_step(demo, full) == full


class TestLambdaClosure:
    def test_demo_chain(self, demo):
        res = lambda_closure(demo, {0, 1})
        assert res.status == "fixpoint"
        assert res.fixpoint_index == 2
        assert res.closure == frozenset({0, 1, 2, 3})
        assert [sorted(s) for s in res.chain] == [[0, 1], [0, 1, 2], [0, 1, 2, 3]]

    def test_empty_start(self, demo):
        res = lambda_closure(demo, ())
        assert res.status == "fixpoint" and res.fixpoint_index == 0
        assert res.closure == frozenset()

    def test_disjoint_start_is_immediate_fixpoint(self, demo):
        res = lambda_closure(demo, {3})  # no pair from {3} meets phi
        assert res.fixpoint_index == 0 and res.closure == frozenset({3})

    def test_small_budget_reports_divergence(self, demo):
        res = lambda_closure(demo, {0, 1}, budget=1)
        assert res.status == "diverging"
        assert res.growth_trace == (2, 3)

    @pytest.mark.parametrize("x, budget", [({0, 1}, None), ({0, 1}, 1), ({3}, None), ((), 2)])
    def test_one_lambda_step_call_per_step(self, demo, monkeypatch, x, budget):
        # A wrapper on the module's lambda_step sees every step of the loop.
        calls = []
        step = formula_closure.lambda_step

        def counted(g, xi):
            calls.append(xi)
            return step(g, xi)

        monkeypatch.setattr(formula_closure, "lambda_step", counted)
        res = lambda_closure(demo, x, budget)
        want = res.fixpoint_index + 1 if res.status == "fixpoint" else res.budget
        assert len(calls) == want

    def test_id_outside_the_universe_is_refused(self):
        enum = corpus.sigma1_chain()
        g, stray = enum.structure, len(enum.structure.universe)
        for call in (
            lambda: lambda_step(g, {0, stray}),
            lambda: lambda_closure(g, {0, stray}),
            lambda: revealed_closure(enum, {0, stray}, 1),
            lambda: certified_lambda(enum, {0, stray}, 1, 5),
        ):
            with pytest.raises(InvalidElement, match=rf"\[{stray}\]"):
                call()

    def test_monotone_in_the_seed(self, demo):
        rng = random.Random(7)
        universe = list(demo.universe)
        for _ in range(50):
            x = frozenset(rng.sample(universe, rng.randint(0, 3)))
            y = x | frozenset(rng.sample(universe, rng.randint(0, 2)))
            assert lambda_closure(demo, x).closure <= lambda_closure(demo, y).closure

    def test_algebraic_over_the_seed(self, demo):
        rng = random.Random(8)
        universe = list(demo.universe)
        m = demo.matroid
        for _ in range(50):
            x = frozenset(rng.sample(universe, rng.randint(0, 4)))
            lam = lambda_closure(demo, x).closure
            assert m.rank(x | lam) == m.rank(x)


class TestStructureValidation:
    def test_non_circuit_tuple_rejected(self):
        m = uniform_matroid(2, 4)
        with pytest.raises(InvalidStructure):
            GeometricStructure.of(m, [(0, 1, 2), (0, 1, 1)], 2)

    def test_fiber_bound_enforced(self):
        m = uniform_matroid(2, 4)
        # Position-2 fiber of (0,1) has two members; K=2 requires < 2.
        with pytest.raises(InvalidStructure):
            GeometricStructure.of(m, [(0, 1, 2), (0, 1, 3)], 2)
        g = GeometricStructure.of(m, [(0, 1, 2), (0, 1, 3)], 3)
        assert max(g.fiber_sizes().values()) == 2

    @pytest.mark.parametrize(
        "key", [(3, (0, 1)), (-1, (0, 1)), (0, (1,)), (0, (1, 2, 3))]
    )
    def test_malformed_count_key_rejected(self, demo, key):
        # Position outside range(arity), or a rest without arity-1 members.
        with pytest.raises(InvalidStructure, match="not a fiber key of arity 3"):
            EnumeratedStructure.of(demo, [sorted(demo.phi)], {key: 1})

    def test_empty_phi_rejected(self):
        with pytest.raises(InvalidStructure):
            GeometricStructure.of(uniform_matroid(2, 4), [], 2)


class TestCertifiedIteration:
    def test_incomplete_fiber_blocks_certification(self):
        enum = corpus.sigma1_chain(length=4)
        res = certified_lambda(enum, {0, 1, 3}, stage=1, budget=20)
        assert res.status == "pending"
        assert res.blocking

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_rejected(self, budget):
        # No step runs, so no cap can have been hit while growing.
        with pytest.raises(InvalidStructure, match="budget must be >= 1"):
            certified_lambda(corpus.sigma1_chain(), (0, 1), 1, budget)

    def test_complete_wrap_certifies_everything(self, demo):
        enum = EnumeratedStructure.complete(demo)
        res = certified_lambda(enum, {0, 1}, stage=1, budget=10)
        assert res.status == "finite"
        assert res.chain[-1] == frozenset({0, 1, 2, 3})

    def test_growth_seed_pending_at_every_stage_and_horizon(self):
        # The chain keeps growing however far the horizon moves.
        for length in (4, 6, 9):
            enum = corpus.sigma1_chain(length=length)
            for stage in range(1, enum.final_stage + 1):
                res = certified_lambda(enum, {0, 1, 3}, stage, budget=30)
                assert res.status == "pending"
        long = corpus.sigma1_chain(length=9)
        res = certified_lambda(long, {0, 1, 3}, long.final_stage, budget=30)
        assert len(res.chain[-1]) > 9  # reached deep into the chain


class TestAclEnumeration:
    def test_enumeration_equals_the_closed_target(self):
        enum = corpus.sigma1_chain()
        res = acl_enumerate_via_lambda(enum, (0, 1), budget=enum.final_stage)
        assert res.status == "complete"
        assert res.elements == enum.structure.matroid.closure({0, 1})

    def test_base_elements_emitted_at_stage_one(self):
        enum = corpus.sigma1_chain()
        res = acl_enumerate_via_lambda(enum, (0, 1), budget=enum.final_stage)
        stages = dict(res.emitted)
        assert stages[0] == 1 and stages[1] == 1

    def test_outside_element_never_emitted(self):
        enum = corpus.sigma1_chain()
        res = acl_enumerate_via_lambda(enum, (0, 1), budget=enum.final_stage)
        assert 3 not in res.elements
        assert all(e not in res.elements for e in range(4, len(enum.structure.universe)))

    def test_budget_gives_partial_monotone_prefix(self):
        enum = corpus.sigma1_chain()
        partial = acl_enumerate_via_lambda(enum, (0, 1), budget=1)
        full = acl_enumerate_via_lambda(enum, (0, 1), budget=enum.final_stage)
        assert partial.status == "budget-exceeded"
        assert set(partial.emitted) <= set(full.emitted)

    def test_dependent_base_rejected(self):
        from flatgeom.matroid import linear_matroid

        m = linear_matroid(101, [(1, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 0)])
        g = GeometricStructure.of(m, [(0, 2, 3)], 2)
        enum = EnumeratedStructure.complete(g)
        with pytest.raises(NotIndependent):
            acl_enumerate_via_lambda(enum, (0, 1), budget=1)  # parallel pair
        with pytest.raises(InvalidStructure):
            acl_enumerate_via_lambda(enum, (0,), budget=1)  # wrong size


class TestIld:
    def test_alternating_chain_needs_dimension_three(self):
        res = ild_estimate(corpus.ild_pps())
        assert (res.value, res.certainty) == (3, "certified")

    def test_finite_structure_has_no_growth(self, demo):
        res = ild_estimate(EnumeratedStructure.complete(demo))
        assert res.value is None and res.certainty == "certified"

    def test_tiny_budget_gives_lower_bound_only(self):
        res = ild_estimate(corpus.ild_pps(), budget=1)
        assert res.certainty == "lower-bound-only"
        assert res.value <= 3

    def test_every_lower_dimension_certified_finite(self):
        enum = corpus.ild_pps()
        m = enum.structure.matroid
        from itertools import combinations

        for size in range(3):
            for combo in combinations(enum.structure.universe, size):
                if m.rank(combo) < 3:
                    res = certified_lambda(enum, combo, enum.final_stage, 20)
                    assert res.status == "finite" or not enum.declared_infinite(combo)


class TestPsiWitness:
    def _geometry(self):
        return corpus.phi_demo()

    def test_fallback_construction_is_total(self):
        # Witness repeats the first coordinate whenever the designated
        # count is off; that guarantees a witness for every input.
        g = self._geometry()
        universe = g.universe
        designated = {(0, 1): (2,)}
        tuples = set()
        for z in [(a, b) for a in universe for b in universe]:
            if z in designated:
                tuples.add(z + designated[z])
            else:
                tuples.add(z + (z[0],))
        psi = PsiRelation(2, 1, frozenset(tuples), fiber_bound=2, isolates=True)
        report = psi_witness_check(g, psi, (0, 1), (2,))
        assert report.total and report.bounded
        assert report.isolation_declared and report.holds_on_designated
        assert report.ok

    def test_empty_fiber_breaks_totality(self):
        g = self._geometry()
        psi = PsiRelation(1, 1, frozenset({(0, 0)}), fiber_bound=2)
        report = psi_witness_check(g, psi, (0,), (0,))
        assert not report.total
        assert report.first_total_violation is not None

    def test_oversized_fiber_breaks_boundedness(self):
        g = self._geometry()
        tuples = {(z, w) for z in g.universe for w in g.universe}
        psi = PsiRelation(1, 1, frozenset(tuples), fiber_bound=2)
        report = psi_witness_check(g, psi, (0,), (0,))
        assert not report.bounded


class TestRandomizedStructures:
    def test_generator_yields_valid_structures(self):
        rng = random.Random(123)
        for _ in range(60):
            g = corpus.random_geometric_structure(rng)
            res = lambda_closure(g, ())
            assert res.status == "fixpoint"

    def test_step_addition_respects_fiber_bound(self):
        # No single (position, tuple) pair ever contributes K or more
        # elements; with valid structures this holds by construction.
        rng = random.Random(5)
        for _ in range(40):
            g = corpus.random_geometric_structure(rng)
            for key, size in g.fiber_sizes().items():
                assert size < g.fiber_bound


def random_staged_scenario(rng: random.Random, arity: int = 0) -> EnumeratedStructure:
    """A random structure of the arity (2 or 3 at random by default),
    revealed in up to four batches, with count overrides on some revealed
    fibers and on one fiber phi never fills."""
    g = corpus.random_geometric_structure(rng, arity=arity or rng.choice((2, 3)))
    tuples = sorted(g.phi)
    rng.shuffle(tuples)
    n = len(tuples)
    cuts = sorted(rng.sample(range(1, n), min(rng.randint(0, 3), n - 1))) + [n]
    batches = [tuples[a:b] for a, b in zip([0] + cuts, cuts)]
    sizes = g.fiber_sizes()
    counts = {
        key: rng.randint(sizes[key], g.fiber_bound - 1)
        for key in rng.sample(sorted(sizes), min(3, len(sizes)))
    }
    key = (rng.randrange(g.arity), tuple(rng.sample(g.universe, g.arity - 1)))
    if key not in sizes:
        counts[key] = rng.randint(0, g.fiber_bound - 1)
    return EnumeratedStructure.of(g, batches, counts)


def staged_cases():
    for name, make in corpus.SCENARIOS.items():
        yield pytest.param(make(), id=name)
    rng = random.Random(2024)
    for i in range(25):
        yield pytest.param(random_staged_scenario(rng), id=f"random#{i}")
    # Arity 1: phi-tuples are loops, each fiber has the empty rest, and so
    # it fires from the empty set.
    rng = random.Random(2025)
    for i in range(6):
        yield pytest.param(random_staged_scenario(rng, arity=1), id=f"arity1#{i}")
    loop = GeometricStructure.of(linear_matroid(2, [(0,)]), [(0,)], 2)
    yield pytest.param(EnumeratedStructure.complete(loop), id="arity1-one-loop")


class TestEngineAgainstReference:
    """The fiber-index engine against per-tuple loops over phi."""

    @pytest.mark.parametrize("enum", staged_cases())
    def test_every_stage_and_small_set(self, enum):
        g = enum.structure
        sets = [c for size in range(4) for c in combinations(g.universe, size)]
        for x in sets:
            assert lambda_step(g, x) == ref_step(g.phi, g.arity, frozenset(x))
            for budget in (1, 2, None):
                res = lambda_closure(g, x, budget)
                want = ref_lambda_closure(g.phi, g.arity, x, budget or len(g.universe) + 1)
                assert (res.chain, res.status, res.fixpoint_index) == want, (x, budget)
            for stage in range(1, enum.final_stage + 1):
                assert revealed_closure(enum, x, stage) == ref_revealed_closure(enum, x, stage)
                for budget in (1, len(g.universe)):
                    res = certified_lambda(enum, x, stage, budget)
                    want = ref_certified_lambda(enum, x, stage, budget)
                    assert (res.status, res.chain, res.blocking) == want, (x, stage)

    @pytest.mark.parametrize(
        "enum", [corpus.sigma1_chain(15), corpus.ild_pps(16)], ids=["sigma1_chain(15)", "ild_pps(16)"]
    )
    def test_benchmark_sizes(self, enum):
        # The staged-closure benchmark's largest scenarios, where a chain
        # walks many steps and a watch bucket holds many fibers.
        g = enum.structure
        for x in (c for size in range(3) for c in combinations(g.universe, size)):
            for stage in range(1, enum.final_stage + 1):
                assert revealed_closure(enum, x, stage) == ref_revealed_closure(enum, x, stage)
                for budget in (1, len(g.universe) + 1):
                    res = certified_lambda(enum, x, stage, budget)
                    want = ref_certified_lambda(enum, x, stage, budget)
                    assert (res.status, res.chain, res.blocking) == want, (x, stage, budget)


def staged_query_cases():
    """(scenario, base) pairs for acl and ild: the benchmark's chains, one
    longer chain of each kind, and 210 random scenarios, a third of each
    arity 1, 2 and 3, with a random independent base and zero to two
    declared seeds."""
    for n in (6, 9, 12, 15, 30):
        yield pytest.param(corpus.sigma1_chain(n), (0, 1), id=f"sigma1_chain({n})")
    for n in (8, 12, 16, 24):
        yield pytest.param(corpus.ild_pps(n), (0, 1), id=f"ild_pps({n})")
    rng = random.Random(3737)
    for i in range(210):
        arity = 1 + i % 3
        enum = random_staged_scenario(rng, arity=arity)
        g = enum.structure
        bases = [c for c in combinations(g.universe, arity - 1) if g.matroid.is_independent(c)]
        seeds = [rng.sample(g.universe, rng.randint(1, 2)) for _ in range(rng.randint(0, 2))]
        enum = EnumeratedStructure.of(g, enum.stages, enum.counts, seeds)
        yield pytest.param(enum, rng.choice(bases), id=f"arity{arity}#{i}")


class TestStagedQueriesAgainstReference:
    """acl and ild, which read statuses off the fixpoints of prefixes,
    against one reference chain per query."""

    @pytest.mark.parametrize("enum, bbar", staged_query_cases())
    def test_acl_and_ild(self, enum, bbar):
        for budget in (1, None):
            res = acl_enumerate_via_lambda(enum, bbar, budget)
            assert (res.emitted, res.status) == ref_acl(enum, bbar, budget), budget
        # Budgets 1, 2 and |U| run certified_lambda; the default reads the
        # fixpoints.
        for budget in (1, 2, len(enum.structure.universe), None):
            res = ild_estimate(enum, budget)
            assert (res.value, res.certainty) == ref_ild(enum, budget), budget


class TestQueryCounts:
    """acl asks one status per (element, stage) pair not yet emitted, and
    ild one per combination it scans: 540 and 530 queries, 1 070 per
    ``staged-closure`` round and 3 210 over its three traced rounds."""

    @pytest.fixture
    def queries(self, monkeypatch):
        calls = []
        status = formula_closure._Fixpoints.status

        def counted(fixpoints, x):
            calls.append(x)
            return status(fixpoints, x)

        monkeypatch.setattr(formula_closure._Fixpoints, "status", counted)
        monkeypatch.setattr(formula_closure, "certified_lambda", None)  # no query goes through it
        return calls

    def test_acl_queries(self, queries):
        counts = []
        for n in (6, 9, 12, 15):
            enum = corpus.sigma1_chain(n)
            acl_enumerate_via_lambda(enum, (0, 1), enum.final_stage)
            counts.append(len(queries))
            queries.clear()
        assert counts == [45, 93, 159, 243]

    def test_ild_queries(self, queries):
        counts = []
        for n in (8, 12, 16):
            ild_estimate(corpus.ild_pps(n))
            counts.append(len(queries))
            queries.clear()
        assert counts == [72, 158, 300]


class TestChainsStayMasks:
    """Results keep their chains as masks and build frozensets only for
    what a caller reads."""

    @pytest.fixture
    def conversions(self, monkeypatch):
        calls = []

        def counted(mask):
            calls.append(mask)
            return elements_of(mask)

        monkeypatch.setattr(formula_closure, "elements_of", counted)
        return calls

    def test_acl_enumeration_converts_no_chain(self, conversions):
        res = acl_enumerate_via_lambda(corpus.sigma1_chain(), (0, 1))
        assert res.elements == frozenset({0, 1, 2})
        assert conversions == []

    def test_ild_converts_one_closure_per_declared_infinite_call(self, conversions, monkeypatch):
        reads = []
        declared = EnumeratedStructure.declared_infinite

        def counted(enum, x):
            reads.append(x)
            return declared(enum, x)

        monkeypatch.setattr(EnumeratedStructure, "declared_infinite", counted)
        res = ild_estimate(corpus.ild_pps())
        assert (res.value, res.certainty) == (3, "certified")
        assert reads and len(conversions) == len(reads)

    @pytest.mark.parametrize(
        "enum", [corpus.sigma1_chain(), corpus.ild_pps()], ids=["sigma1_chain", "ild_pps"]
    )
    def test_lazy_chains_read_as_eager_ones(self, enum):
        g = enum.structure
        sets = [c for size in range(3) for c in combinations(g.universe, size)]
        # Each result keyed by its fields, with the chain built eagerly by
        # the reference loops.
        keyed = []
        for x in sets:
            for budget in (1, None):
                res = lambda_closure(g, x, budget)
                chain = ref_lambda_closure(g.phi, g.arity, x, budget or len(g.universe) + 1)[0]
                assert res.closure == chain[-1]
                assert res.growth_trace == tuple(len(s) for s in chain)
                keyed.append((res, (chain, res.status, res.fixpoint_index, res.budget)))
            for stage in (1, enum.final_stage):
                for budget in (1, len(g.universe)):
                    res = certified_lambda(enum, x, stage, budget)
                    keyed.append((res, ref_certified_lambda(enum, x, stage, budget)))
        groups = {}
        for res, key in keyed:
            chain = key[0] if isinstance(res, formula_closure.LambdaResult) else key[1]
            assert res.chain == chain and res.chain is res.chain
            groups.setdefault((type(res), key), []).append(res)
        # Results equal, and hash alike, exactly when their frozenset
        # chains and the rest of their fields do, whether or not the
        # chain of either has been read.
        groups = list(groups.values())
        for i, group in enumerate(groups):
            unread = replace(group[0])  # same fields, chain not yet built
            assert all(res == unread and hash(res) == hash(unread) for res in group)
            assert all(group[0] != other[0] for other in groups[i + 1 :])
