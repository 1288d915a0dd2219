"""Rule engine classifying candidate recursive-model index sets.

A candidate set lives inside {0..K} plus an optional omega point.  The
admissible shapes are: a finite initial segment [0,alpha) (alpha may also
be omega or omega+1, i.e. everything, with or without the omega point),
an initial segment plus the omega point [0,n] + {omega}, and {omega}
alone.  Exclusion rules:

* initial-segment: when the smallest circuit dimension n differs from 2,
  the finite part must be an initial segment of the naturals.
* initial-from-three: when n = 2 but some finite member >= 3 is present,
  the finite part must again be a full initial segment.
* omega-downward: if omega is present together with a finite member
  m >= 1, every index below m must be present too.

For n = 2 with finite part inside {0,1,2} and no omega, the four
non-initial sets {1}, {2}, {0,2}, {1,2} are genuinely open and are
reported as such, never as allowed or excluded.

Theory profiles (n, optional prime-model dimension p, optional least
infinite-closure dimension) carry their own inequality constraints,
checked by ``check_profile``; p and ild are dimensions, so neither is
negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .errors import InputError, ProfileInvalid, check_int

DEFAULT_HORIZON = 6

RULE_INITIAL_SEGMENT = "initial-segment"
RULE_INITIAL_FROM_THREE = "initial-from-three"
RULE_OMEGA_DOWNWARD = "omega-downward"

RULE_P_GE_0 = "p-ge-0"
RULE_P_LE_N_PLUS_1 = "p-le-n-plus-1"
RULE_P_GE_N_WHEN_N_GT_3 = "p-ge-n-when-n-gt-3"
RULE_P_GE_N_WHEN_N_EQ_3 = "p-ge-n-when-n-eq-3"
RULE_ILD_GE_0 = "ild-ge-0"
RULE_ILD_LE_N_PLUS_1 = "ild-le-n-plus-1"
RULE_N_AT_LEAST_2 = "n-at-least-2"

#: The four candidate sets genuinely undecided at n = 2 (finite parts
#: only, no omega point).
OPEN_SETS = (
    frozenset({1}),
    frozenset({2}),
    frozenset({0, 2}),
    frozenset({1, 2}),
)


@dataclass(frozen=True)
class SpectrumSet:
    """Finite part within {0..K} plus an optional omega point, validated
    on construction, so the shape tests below only count members."""

    finite_part: frozenset[int]
    omega: bool
    horizon: int = DEFAULT_HORIZON

    def __post_init__(self):
        check_int("horizon", self.horizon, least=0)
        check_int("spectrum member", *self.finite_part)
        bad = [k for k in self.finite_part if k < 0 or k > self.horizon]
        if bad:
            raise InputError(f"members {sorted(bad)} outside horizon 0..{self.horizon}")

    @classmethod
    def of(
        cls, members: Iterable[Union[int, str]], horizon: int = DEFAULT_HORIZON
    ) -> "SpectrumSet":
        members = frozenset(members)
        return cls(members - {"omega"}, "omega" in members, horizon)

    def members(self) -> tuple[Union[int, str], ...]:
        out: list[Union[int, str]] = sorted(self.finite_part)
        if self.omega:
            out.append("omega")
        return tuple(out)

    def is_initial(self) -> bool:
        f = self.finite_part
        return not f or len(f) == max(f) + 1

    def full_finite(self) -> bool:
        return len(self.finite_part) == self.horizon + 1


@dataclass(frozen=True)
class TheoryProfile:
    """Integers n and, when given, p and ild; their bounds are profile rules."""

    n: int
    p: Optional[int] = None
    ild: Optional[int] = None

    def __post_init__(self):
        check_int("n", self.n, error=ProfileInvalid)
        for name, value in (("p", self.p), ("ild", self.ild)):
            if value is not None:
                check_int(name, value, error=ProfileInvalid)


@dataclass(frozen=True)
class ProfileViolation:
    rule: str
    message: str


@dataclass(frozen=True)
class ProfileReport:
    ok: bool
    violations: tuple[ProfileViolation, ...]


def validate_profile(profile: TheoryProfile) -> ProfileReport:
    """Check the inequality constraints a theory profile must satisfy."""
    v: list[ProfileViolation] = []
    n, p, ild = profile.n, profile.p, profile.ild
    if n < 2:
        v.append(ProfileViolation(RULE_N_AT_LEAST_2, f"n={n} must be at least 2"))
    if p is not None:
        if p < 0:
            v.append(ProfileViolation(RULE_P_GE_0, f"p={p} must be at least 0"))
        if p > n + 1:
            v.append(
                ProfileViolation(RULE_P_LE_N_PLUS_1, f"p={p} exceeds n+1={n + 1}")
            )
        if n > 3 and p < n:
            v.append(
                ProfileViolation(
                    RULE_P_GE_N_WHEN_N_GT_3, f"n={n} > 3 requires p >= n, got p={p}"
                )
            )
        if n == 3 and p < 3:
            v.append(
                ProfileViolation(
                    RULE_P_GE_N_WHEN_N_EQ_3, f"n=3 requires p >= 3, got p={p}"
                )
            )
    if ild is not None and ild < 0:
        v.append(ProfileViolation(RULE_ILD_GE_0, f"ild={ild} must be at least 0"))
    if ild is not None and ild > n + 1:
        v.append(
            ProfileViolation(RULE_ILD_LE_N_PLUS_1, f"ild={ild} exceeds n+1={n + 1}")
        )
    return ProfileReport(not v, tuple(v))


def check_profile(profile: TheoryProfile) -> None:
    """Raise ProfileInvalid naming every constraint ``profile`` breaks."""
    report = validate_profile(profile)
    if not report.ok:
        rules = "; ".join(f"{v.rule} ({v.message})" for v in report.violations)
        raise ProfileInvalid(f"invalid profile: {rules}")


@dataclass(frozen=True)
class Verdict:
    """Exactly one of allowed / open-unknown / excluded.

    Allowed verdicts carry the matched shape schema plus its rendered
    concrete form; excluded verdicts carry every violated rule.
    """

    kind: str  # "allowed" | "open-unknown" | "excluded"
    schema: Optional[str] = None  # "[0,a)" | "[0,n]+{omega}" | "{omega}"
    shape: Optional[str] = None  # rendered, e.g. "[0,3)"
    rules: tuple[str, ...] = ()


def _omega_rule_violated(s: SpectrumSet) -> bool:
    """Omega with some finite member m >= 1 but not every index below m."""
    return s.omega and not s.is_initial()


def _allowed_shape(s: SpectrumSet) -> Verdict:
    """Match an initial-segment candidate against the shape schemas, first
    schema in listing order wins."""
    if not s.omega:
        alpha = len(s.finite_part)  # initial segment => [0, alpha)
        return Verdict("allowed", schema="[0,a)", shape=f"[0,{alpha})")
    if s.full_finite():
        # Everything up to the horizon plus omega: the segment [0, omega].
        return Verdict("allowed", schema="[0,a)", shape="[0,omega]")
    if s.finite_part:
        n = max(s.finite_part)
        return Verdict("allowed", schema="[0,n]+{omega}", shape=f"[0,{n}]+{{omega}}")
    return Verdict("allowed", schema="{omega}", shape="{omega}")


def classify(s: SpectrumSet, profile: TheoryProfile) -> Verdict:
    """Apply the admissibility rules to a candidate set.

    The horizon only truncates the candidate, never the rules: schemas are
    matched symbolically, so the horizon never changes the kind or the rules
    cited.  It moves one reading: a finite part that fills 0..horizon, with
    omega, reads as the segment [0,omega], so {0..6, omega} is [0,omega] at
    horizon 6 and [0,6]+{omega} at horizon 7.
    """
    check_profile(profile)
    initial = s.is_initial()
    rules: list[str] = []
    # Outside n = 2, and at n = 2 once a finite member >= 3 is present,
    # the finite part must be an initial segment.
    if not initial and profile.n != 2:
        rules.append(RULE_INITIAL_SEGMENT)
    elif not initial and any(k >= 3 for k in s.finite_part):
        rules.append(RULE_INITIAL_FROM_THREE)
    if _omega_rule_violated(s):
        rules.append(RULE_OMEGA_DOWNWARD)
    if rules:
        return Verdict("excluded", rules=tuple(rules))
    if initial:
        return _allowed_shape(s)
    # n = 2, finite part inside {0,1,2}, not initial, no omega: the open sets.
    assert s.finite_part in OPEN_SETS
    return Verdict("open-unknown")


@dataclass(frozen=True)
class CaseAnalysis:
    """Partition of the 16 candidate subsets of {0,1,2,omega} at n = 2."""

    shape_covered: tuple[SpectrumSet, ...]
    open_sets: tuple[SpectrumSet, ...]
    excluded: tuple[SpectrumSet, ...]


def enumerate_case_analysis(profile: TheoryProfile) -> CaseAnalysis:
    """The fixed 8/4/4 partition of subsets of {0,1,2,omega} for n = 2.

    Listed in a fixed canonical order; ``classify`` must agree with it
    set by set (the two code paths cross-validate each other).
    """
    if profile.n != 2:
        raise ProfileInvalid(f"case analysis applies to n=2, got n={profile.n}")
    check_profile(profile)

    def sset(*members: Union[int, str]) -> SpectrumSet:
        return SpectrumSet.of(members)

    shape_covered = (
        sset(),
        sset(0),
        sset(0, 1),
        sset(0, "omega"),
        sset(0, 1, 2),
        sset(0, 1, "omega"),
        sset(0, 1, 2, "omega"),
        sset("omega"),
    )
    open_sets = (sset(1), sset(2), sset(0, 2), sset(1, 2))
    excluded = (
        sset(1, "omega"),
        sset(2, "omega"),
        sset(0, 2, "omega"),
        sset(1, 2, "omega"),
    )
    return CaseAnalysis(shape_covered, open_sets, excluded)
