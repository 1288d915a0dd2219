"""Every input checks itself once, when it is built: a frozen value that
was constructed is valid for its whole life, so no class re-checks it."""

import ast
import inspect
import pkgutil
from importlib import import_module

import pytest

import flatgeom
from flatgeom import corpus
from flatgeom.effective import (
    Delta2Schedule, FlipEvent, RelationalStructure, Sigma1Schedule, delta2_acl_schedule,
)
from flatgeom.errors import (
    EmptyCollection, IncoherentSchedule, InputError, InvalidSequence, InvalidStructure,
    ProfileInvalid,
)
from flatgeom.flatness import check_flat
from flatgeom.formula_closure import (
    GeometricStructure, PsiRelation, acl_enumerate_via_lambda, certified_lambda, ild_estimate,
    lambda_closure, revealed_closure,
)
from flatgeom.matroid import (
    GroundSet, closure_table_matroid, linear_matroid, sparse_paving_matroid, uniform_matroid,
)
from flatgeom.pingpong import PPSConfig, iter_runs, pps_find_cycle, pps_run
from flatgeom.spectrum import SpectrumSet, TheoryProfile


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Delta2Schedule(frozenset(), (FlipEvent(2, 0, True),)),
         IncoherentSchedule, "flip stage must be >= 1, got 0"),
        (lambda: Delta2Schedule(frozenset(), (FlipEvent(2, 5, False), FlipEvent(2, 3, True))),
         IncoherentSchedule, "element 2 flips out of order"),
        (lambda: Delta2Schedule(frozenset(), (FlipEvent(2, 3, False), FlipEvent(2, 3, True))),
         IncoherentSchedule, "element 2 flips out of order"),
        (lambda: Delta2Schedule(frozenset(), (FlipEvent(2, 5, False),), max_flips_per_element=0),
         IncoherentSchedule, "element 2 exceeds its flip budget"),
        (lambda: Delta2Schedule(frozenset(), (FlipEvent(2, 3, False), FlipEvent(2, 5, False))),
         IncoherentSchedule, "element 2 has consecutive flips to the same state"),
        (lambda: Delta2Schedule(frozenset(), (FlipEvent(2, 5, True),)),
         IncoherentSchedule, "element 2 does not settle on its target membership"),
        (lambda: Sigma1Schedule(((0, 1), (0, 3))),
         IncoherentSchedule, "an element enters A twice"),
        (lambda: Sigma1Schedule.of({0: 0}),
         IncoherentSchedule, "A stage must be >= 1, got 0"),
        (lambda: PsiRelation(1, 1, frozenset({(0, 0), (0, 1, 2)}), fiber_bound=2),
         InvalidStructure, "psi tuple (0, 1, 2) has the wrong arity"),
        (lambda: GeometricStructure(uniform_matroid(2, 4), frozenset(), 3, 2),
         InvalidStructure, "phi must be nonempty"),
        (lambda: GeometricStructure(uniform_matroid(2, 4), frozenset({(0, 1, 2), (1, 2)}), 3, 2),
         InvalidStructure, "phi tuples must share one arity"),
        (lambda: GeometricStructure(uniform_matroid(2, 4), frozenset({(0, 1, 2, 3)}), 3, 2),
         InvalidStructure, "phi tuples have arity 4, not 3"),
        (lambda: Delta2Schedule(frozenset({1}), (FlipEvent(1, 2, 1),)),
         IncoherentSchedule, "flip value must be true or false, got 1"),
        (lambda: Delta2Schedule(frozenset({1}), (), 2.5),
         IncoherentSchedule, "flip budget must be an integer, got 2.5"),
        (lambda: SpectrumSet(frozenset({0, 1}), True, 1.5),
         InputError, "horizon must be an integer, got 1.5"),
        (lambda: uniform_matroid(2.5, 5),
         InvalidStructure, "rank must be an integer, got 2.5"),
        (lambda: GeometricStructure.of(uniform_matroid(2, 4), [(0, 1, 2)], 2.5),
         InvalidStructure, "fiber bound K must be an integer, got 2.5"),
        (lambda: GeometricStructure(uniform_matroid(2, 4), frozenset({(0, 1, 2)}), 3.0, 2),
         InvalidStructure, "arity must be an integer, got 3.0"),
        (lambda: linear_matroid(2.0, [[1, 0], [0, 1]]),
         InvalidStructure, "field order must be an integer, got 2.0"),
        (lambda: linear_matroid(2, [{}]),
         InvalidStructure, "each column must be a sequence"),
    ],
    ids=[
        "flip-stage-zero",
        "flips-out-of-order",
        "flips-on-one-stage",
        "flip-budget",
        "consecutive-same-state",
        "unsettled-flip",
        "a-entered-twice",
        "a-stage-zero",
        "psi-arity",
        "empty-phi",
        "mixed-phi-arities",
        "phi-arity-not-declared",
        "flip-value-not-bool",
        "flip-budget-float",
        "spectrum-horizon-float",
        "uniform-rank-float",
        "fiber-bound-float",
        "phi-arity-float",
        "linear-field-float",
        "linear-column-not-a-sequence",
    ],
)
def test_constructor_refuses(build, error, message):
    with pytest.raises(error) as refused:
        build()
    assert str(refused.value) == message


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Sigma1Schedule.of({0: 2.7, "1": "3"}), "A element must be an integer, got '1'"),
        (lambda: Sigma1Schedule(((0, 2.5),)), "A stage must be an integer, got 2.5"),
        (lambda: Sigma1Schedule(((True, 1),)), "A element must be an integer, got True"),
        (lambda: Delta2Schedule(frozenset({1}), (FlipEvent(1, 2.5, True),)),
         "flip stage must be an integer, got 2.5"),
        (lambda: Delta2Schedule(frozenset({1}), (FlipEvent(1, True, True),)),
         "flip stage must be an integer, got True"),
    ],
    ids=["of-mixed", "a-stage-float", "a-element-bool", "flip-stage-float", "flip-stage-bool"],
)
def test_schedules_refuse_non_integers(build, message):
    """A schedule neither truncates, parses nor reads a bool as a number."""
    with pytest.raises(IncoherentSchedule) as refused:
        build()
    assert str(refused.value) == message


def test_a_repeated_script_stage_is_refused_by_the_schedule():
    presentation = corpus.going_down_demo()[0]
    with pytest.raises(IncoherentSchedule) as refused:
        delta2_acl_schedule(presentation, (0,), {5: [2, 2]})
    assert str(refused.value) == "element 5 flips out of order"


@pytest.mark.parametrize(
    "members, message",
    [([2.7, 0], "spectrum member must be an integer, got 2.7"),
     ([True], "spectrum member must be an integer, got True"),
     (["x", 0], "spectrum member must be an integer, got 'x'")],
    ids=["float", "bool", "string"],
)
def test_spectrum_set_refuses_non_integers(members, message):
    with pytest.raises(InputError) as refused:
        SpectrumSet.of(members)
    assert str(refused.value) == message


def test_only_pps_config_has_a_separate_check():
    """``PPSConfig.validate(m)`` needs a matroid, so it cannot run when the
    config is built; every other input checks itself in ``__post_init__``."""
    owners = set()
    for info in pkgutil.iter_modules(flatgeom.__path__):
        module = import_module(f"flatgeom.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and "validate" in vars(cls):
                owners.add(name)
    assert owners == {"PPSConfig"}


def test_no_module_words_the_count_rule_itself():
    """Only ``errors.check_int`` words the refusal of a count or bound, so
    every such refusal reads the same."""
    phrases = ("must be an integer", "must be >=", "non-negative", "start at 1", "must be positive")
    own = []
    for info in pkgutil.iter_modules(flatgeom.__path__):
        if info.name == "errors":
            continue
        tree = ast.parse(inspect.getsource(import_module(f"flatgeom.{info.name}")))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                text = "".join(
                    c.value for c in ast.walk(node.exc)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)
                )
                own += [(info.name, node.lineno, p) for p in phrases if p in text]
    assert own == []


GF2 = corpus.gf2_3()
SIGMA1 = corpus.sigma1_chain()
PPS_CFG = PPSConfig.of((), 3, 1, 0)

#: Every count and bound a caller passes: its site, the call that takes
#: the value, the class the value is refused as, its name in the message,
#: and the least value allowed (None where any integer is).
COUNTS = [
    ("iter_runs-budget", lambda v: iter_runs(GF2, PPS_CFG, "least", v),
     InvalidSequence, "budget", 1),
    ("pps_run-budget", lambda v: pps_run(GF2, PPS_CFG, "least", v), InvalidSequence, "budget", 1),
    ("pps_find_cycle-budget", lambda v: pps_find_cycle(GF2, v), InvalidSequence, "budget", 1),
    ("lambda_closure-budget", lambda v: lambda_closure(corpus.phi_demo(), (0, 1), v),
     InvalidStructure, "budget", 1),
    ("certified_lambda-budget", lambda v: certified_lambda(SIGMA1, (0, 1), 1, v),
     InvalidStructure, "budget", 1),
    ("acl-budget", lambda v: acl_enumerate_via_lambda(SIGMA1, (0, 1), v),
     InvalidStructure, "budget", 1),
    ("ild-budget", lambda v: ild_estimate(SIGMA1, v), InvalidStructure, "budget", 1),
    ("check_flat-sigma", lambda v: check_flat(GF2, v),
     EmptyCollection, "max_collection_size", 1),
    ("check_flat-max_ground", lambda v: check_flat(GF2, max_ground=v),
     InvalidStructure, "max_ground", 0),
    ("circuits-max_size", lambda v: GF2.circuits(v), InvalidStructure, "max_size", 1),
    ("verify-max_ground", lambda v: GF2.verify_pregeometry(max_ground=v),
     InvalidStructure, "max_ground", 0),
    ("verify-sample", lambda v: GF2.verify_pregeometry(sample=v), InvalidStructure, "sample", 0),
    ("structure-K", lambda v: GeometricStructure.of(uniform_matroid(2, 4), [(0, 1, 2)], v),
     InvalidStructure, "fiber bound K", 1),
    ("uniform-rank", lambda v: uniform_matroid(v, 4), InvalidStructure, "rank", 0),
    ("uniform-size", lambda v: uniform_matroid(2, v), InvalidStructure, "uniform size", 0),
    ("table-ground", lambda v: closure_table_matroid(v, {(): ()}),
     InvalidStructure, "closure table ground", 0),
    ("paving-size", lambda v: sparse_paving_matroid(v, 2, []),
     InvalidStructure, "sparse paving size", 0),
    ("linear-entry", lambda v: linear_matroid(2, [[1, v]]), InvalidStructure, "column entry", None),
    ("ground-id", lambda v: GroundSet((v,)), InvalidStructure, "ground set id", 0),
    ("relation-arity", lambda v: RelationalStructure.of(range(3), {"r": (v, [])}),
     InvalidStructure, "r arity", 0),
    ("flip-stage", lambda v: Delta2Schedule(frozenset(), (FlipEvent(2, v, True),)),
     IncoherentSchedule, "flip stage", 1),
    ("a-stage", lambda v: Sigma1Schedule(((0, v),)), IncoherentSchedule, "A stage", 1),
    ("spectrum-horizon", lambda v: SpectrumSet(frozenset(), False, v), InputError, "horizon", 0),
    ("profile-n", lambda v: TheoryProfile(v), ProfileInvalid, "n", None),
    ("profile-p", lambda v: TheoryProfile(2, v), ProfileInvalid, "p", None),
    ("profile-ild", lambda v: TheoryProfile(2, 1, v), ProfileInvalid, "ild", None),
    ("psi-z-arity", lambda v: PsiRelation(v, 1, frozenset(), 2), InvalidStructure, "psi arity", 0),
    ("psi-w-arity", lambda v: PsiRelation(1, v, frozenset(), 2), InvalidStructure, "psi arity", 0),
    ("psi-fiber-bound", lambda v: PsiRelation(1, 1, frozenset(), v),
     InvalidStructure, "psi fiber bound", None),
    ("certified_lambda-stage", lambda v: certified_lambda(SIGMA1, (0, 1), v, 5),
     InvalidStructure, "stage", None),
    ("revealed_closure-stage", lambda v: revealed_closure(SIGMA1, (0, 1), v),
     InvalidStructure, "stage", None),
]


def _count_cases():
    for site, call, error, what, least in COUNTS:
        for kind, value in (("float", 2.5), ("bool", True)):
            message = f"{what} must be an integer, got {value!r}"
            yield pytest.param(call, value, error, message, id=f"{site}-{kind}")
        if least is not None:
            below = f"{what} must be >= {least}, got {least - 1}"
            yield pytest.param(call, least - 1, error, below, id=f"{site}-below")


@pytest.mark.parametrize("call, value, error, message", _count_cases())
def test_every_count_and_bound_has_one_rule(call, value, error, message):
    """Each count or bound is refused at the call, before any work, by
    ``errors.check_int``: a float, a bool, and a value one below its least."""
    with pytest.raises(error) as refused:
        call(value)
    assert str(refused.value) == message

