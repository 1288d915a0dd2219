from itertools import combinations

import pytest

from flatgeom.errors import InputError, ProfileInvalid
from flatgeom.spectrum import (
    OPEN_SETS,
    RULE_ILD_GE_0,
    RULE_ILD_LE_N_PLUS_1,
    RULE_INITIAL_FROM_THREE,
    RULE_INITIAL_SEGMENT,
    RULE_OMEGA_DOWNWARD,
    RULE_P_GE_0,
    RULE_P_GE_N_WHEN_N_GT_3,
    RULE_P_LE_N_PLUS_1,
    SpectrumSet,
    TheoryProfile,
    _omega_rule_violated,
    classify,
    enumerate_case_analysis,
    validate_profile,
)


def shape_oracle(finite: frozenset[int], omega: bool, horizon: int) -> bool:
    """Direct re-statement of the three shape schemas."""
    initial = not finite or finite == frozenset(range(max(finite) + 1))
    if not initial:
        return False
    if not omega:
        return True  # [0, alpha) with alpha = |finite|
    if finite == frozenset(range(horizon + 1)):
        return True  # [0, omega]
    return True  # [0, n] + omega, or omega alone when finite is empty


def all_candidates(horizon: int):
    universe = list(range(horizon + 1))
    for size in range(len(universe) + 1):
        for combo in combinations(universe, size):
            yield frozenset(combo), False
            yield frozenset(combo), True


class TestProfiles:
    def test_large_n_needs_large_prime_dimension(self):
        report = validate_profile(TheoryProfile(5, p=2))
        assert not report.ok
        assert report.violations[0].rule == RULE_P_GE_N_WHEN_N_GT_3

    def test_prime_dimension_cap(self):
        report = validate_profile(TheoryProfile(4, p=6))
        assert not report.ok
        assert report.violations[0].rule == RULE_P_LE_N_PLUS_1

    def test_accepted_profiles(self):
        assert validate_profile(TheoryProfile(3, p=3)).ok
        assert validate_profile(TheoryProfile(3, p=4)).ok
        assert validate_profile(TheoryProfile(2, p=0)).ok
        assert validate_profile(TheoryProfile(2, p=0, ild=0)).ok

    def test_ild_cap(self):
        report = validate_profile(TheoryProfile(2, ild=4))
        assert not report.ok
        assert report.violations[0].rule == RULE_ILD_LE_N_PLUS_1

    @pytest.mark.parametrize(
        "profile, rules",
        [
            (TheoryProfile(2, p=-1), [RULE_P_GE_0]),
            (TheoryProfile(2, ild=-4), [RULE_ILD_GE_0]),
            (TheoryProfile(2, p=-1, ild=-1), [RULE_P_GE_0, RULE_ILD_GE_0]),
            # A negative p also breaks the lower bounds that n sets on p.
            (TheoryProfile(4, p=-2), [RULE_P_GE_0, RULE_P_GE_N_WHEN_N_GT_3]),
        ],
    )
    def test_negative_dimensions_are_refused(self, profile, rules):
        report = validate_profile(profile)
        assert not report.ok
        assert [v.rule for v in report.violations] == rules
        with pytest.raises(ProfileInvalid):
            classify(SpectrumSet.of([0]), profile)

    def test_classify_requires_valid_profile(self):
        with pytest.raises(ProfileInvalid):
            classify(SpectrumSet.of([0]), TheoryProfile(5, p=2))


class TestClassify:
    def test_initial_segment_any_n(self):
        for n in (2, 3, 5):
            v = classify(SpectrumSet.of([0, 1, 2]), TheoryProfile(n))
            assert v.kind == "allowed" and v.shape == "[0,3)"

    def test_omega_gap_excluded(self):
        v = classify(SpectrumSet.of([1, "omega"]), TheoryProfile(2))
        assert v.kind == "excluded" and v.rules == (RULE_OMEGA_DOWNWARD,)

    def test_non_initial_excluded_when_n_differs_from_two(self):
        v = classify(SpectrumSet.of([0, 2]), TheoryProfile(5))
        assert v.kind == "excluded" and RULE_INITIAL_SEGMENT in v.rules

    def test_open_sets_reported_open(self):
        for members in ([1], [2], [0, 2], [1, 2]):
            v = classify(SpectrumSet.of(members), TheoryProfile(2))
            assert v.kind == "open-unknown", members

    def test_omega_alone(self):
        v = classify(SpectrumSet.of(["omega"]), TheoryProfile(2))
        assert v.kind == "allowed" and v.schema == "{omega}"

    def test_n_two_with_high_member_needs_full_segment(self):
        v = classify(SpectrumSet.of([2, 4]), TheoryProfile(2))
        assert v.kind == "excluded" and RULE_INITIAL_FROM_THREE in v.rules
        v2 = classify(SpectrumSet.of([0, 1, 2, 3, 4]), TheoryProfile(2))
        assert v2.kind == "allowed"

    def test_multiple_rules_reported(self):
        v = classify(SpectrumSet.of([0, 2, 4, "omega"]), TheoryProfile(2))
        assert set(v.rules) == {RULE_INITIAL_FROM_THREE, RULE_OMEGA_DOWNWARD}

    def test_full_horizon_plus_omega_is_a_segment(self):
        v = classify(SpectrumSet.of([0, 1, 2, 3, 4, 5, 6, "omega"]), TheoryProfile(3))
        assert v.kind == "allowed" and v.schema == "[0,a)" and v.shape == "[0,omega]"


class TestCaseAnalysis:
    def test_partition_sizes(self):
        analysis = enumerate_case_analysis(TheoryProfile(2))
        assert (len(analysis.shape_covered), len(analysis.open_sets), len(analysis.excluded)) == (8, 4, 4)

    def test_exact_sets(self):
        analysis = enumerate_case_analysis(TheoryProfile(2))
        covered = [s.members() for s in analysis.shape_covered]
        assert covered == [
            (),
            (0,),
            (0, 1),
            (0, "omega"),
            (0, 1, 2),
            (0, 1, "omega"),
            (0, 1, 2, "omega"),
            ("omega",),
        ]
        assert [s.members() for s in analysis.open_sets] == [
            (1,), (2,), (0, 2), (1, 2),
        ]
        assert [s.members() for s in analysis.excluded] == [
            (1, "omega"), (2, "omega"), (0, 2, "omega"), (1, 2, "omega"),
        ]

    def test_classify_agrees_set_by_set(self):
        profile = TheoryProfile(2)
        analysis = enumerate_case_analysis(profile)
        for s in analysis.shape_covered:
            assert classify(s, profile).kind == "allowed", s.members()
        for s in analysis.open_sets:
            assert classify(s, profile).kind == "open-unknown", s.members()
        for s in analysis.excluded:
            assert classify(s, profile).kind == "excluded", s.members()

    def test_requires_n_two(self):
        with pytest.raises(ProfileInvalid):
            enumerate_case_analysis(TheoryProfile(3))


class TestBruteForce:
    def test_allowed_iff_shape_matches_when_n_is_not_two(self):
        profile = TheoryProfile(4)
        horizon = 6
        for finite, omega in all_candidates(horizon):
            s = SpectrumSet(finite, omega, horizon)
            v = classify(s, profile)
            assert v.kind != "open-unknown"
            assert (v.kind == "allowed") == shape_oracle(finite, omega, horizon)

    def test_open_only_for_the_four_sets_at_n_two(self):
        profile = TheoryProfile(2)
        horizon = 6
        for finite, omega in all_candidates(horizon):
            s = SpectrumSet(finite, omega, horizon)
            v = classify(s, profile)
            if v.kind == "open-unknown":
                assert not omega and finite in OPEN_SETS

    def test_horizon_does_not_change_verdicts(self):
        profile = TheoryProfile(3)
        for finite, omega in all_candidates(4):
            a = classify(SpectrumSet(finite, omega, 4), profile)
            b = classify(SpectrumSet(finite, omega, 9), profile)
            # The only schema sensitive to the horizon is the full-segment
            # reading of everything-plus-omega.
            if finite == frozenset(range(5)) and omega:
                continue
            assert (a.kind, a.rules) == (b.kind, b.rules)
            assert a.shape == b.shape

    def test_a_full_finite_part_with_omega_reads_by_the_horizon(self):
        members = [0, 1, 2, 3, 4, 5, 6, "omega"]
        at6 = classify(SpectrumSet.of(members, horizon=6), TheoryProfile(3))
        at7 = classify(SpectrumSet.of(members, horizon=7), TheoryProfile(3))
        assert (at6.kind, at6.schema, at6.shape, at6.rules) == ("allowed", "[0,a)", "[0,omega]", ())
        assert (at7.kind, at7.schema, at7.shape, at7.rules) == (
            "allowed", "[0,n]+{omega}", "[0,6]+{omega}", ()
        )

    def test_verdicts_match_a_restatement_of_the_rules(self):
        # Each rule as the module docstring states it, rules in the order
        # listed there; every valid profile at n in {2, 3, 4}.
        horizon = 6
        for n in (2, 3, 4):
            opts = (None, *range(n + 2))
            profiles = [TheoryProfile(n, p, ild) for p in opts for ild in opts]
            profiles = [q for q in profiles if validate_profile(q).ok]
            for finite, omega in all_candidates(horizon):
                initial = finite == frozenset(range(len(finite)))
                rules = []
                if not initial and n != 2:
                    rules.append(RULE_INITIAL_SEGMENT)
                if not initial and n == 2 and max(finite) >= 3:
                    rules.append(RULE_INITIAL_FROM_THREE)
                if omega and any(not frozenset(range(m)) <= finite for m in finite if m >= 1):
                    rules.append(RULE_OMEGA_DOWNWARD)
                if rules:
                    want = ("excluded", None, None, tuple(rules))
                elif not initial:
                    want = ("open-unknown", None, None, ())
                elif not omega:
                    want = ("allowed", "[0,a)", f"[0,{len(finite)})", ())
                elif len(finite) == horizon + 1:
                    want = ("allowed", "[0,a)", "[0,omega]", ())
                elif finite:
                    want = ("allowed", "[0,n]+{omega}", f"[0,{max(finite)}]+{{omega}}", ())
                else:
                    want = ("allowed", "{omega}", "{omega}", ())
                for profile in profiles:
                    v = classify(SpectrumSet(finite, omega, horizon), profile)
                    assert (v.kind, v.schema, v.shape, v.rules) == want, (finite, omega, profile)

    def test_out_of_horizon_member_rejected(self):
        with pytest.raises(InputError):
            SpectrumSet.of([9], horizon=6)


class TestShapePredicates:
    def test_counting_matches_the_range_definitions(self):
        for horizon in (5, 6, 7):
            for finite, omega in all_candidates(5):
                s = SpectrumSet(finite, omega, horizon)
                top = max(finite, default=0)
                assert s.is_initial() == (not finite or finite == frozenset(range(top + 1)))
                assert s.full_finite() == (finite == frozenset(range(horizon + 1)))
                gap = top >= 1 and not frozenset(range(top)) <= finite
                assert _omega_rule_violated(s) == (omega and gap)

    @pytest.mark.parametrize("finite", [{-1, 1}, {0, 1, 2, 3, 4, 5, 7}])
    def test_members_off_the_horizon_rejected_on_construction(self, finite):
        # Counting would take {-1, 1} for an initial segment and the other
        # set, with seven members, for all of 0..6.
        with pytest.raises(InputError):
            SpectrumSet(frozenset(finite), False, 6)
