"""Every input checks itself once, when it is built: a frozen value that
was constructed is valid for its whole life, so no class re-checks it."""

import inspect
import pkgutil
from importlib import import_module

import pytest

import flatgeom
from flatgeom import corpus
from flatgeom.effective import Delta2Schedule, FlipEvent, Sigma1Schedule, delta2_acl_schedule
from flatgeom.errors import IncoherentSchedule, InputError, InvalidStructure
from flatgeom.formula_closure import GeometricStructure, PsiRelation
from flatgeom.matroid import linear_matroid, uniform_matroid
from flatgeom.spectrum import SpectrumSet


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Delta2Schedule(frozenset(), (FlipEvent(2, 0, True),)),
         IncoherentSchedule, "flip stages start at 1"),
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
         IncoherentSchedule, "A stages start at 1"),
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
