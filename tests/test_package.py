"""The package's lazy exports: ``import flatgeom`` imports no module, and
each exported name is read from its module on every lookup."""

import sys

import pytest

import flatgeom
from flatgeom import flatness

#: Every name the package exports.
EXPORTS = {
    "FlatgeomError",
    "Circuit", "Flat", "GroundSet", "Matroid", "closure_table_matroid", "free_matroid",
    "linear_matroid", "sparse_paving_matroid", "uniform_matroid",
    "FlatCollection", "FlatnessVerdict", "check_flat", "delta", "is_disintegrated",
    "PPSConfig", "PPSRun", "PPSSequence", "pps_candidates", "pps_find_cycle", "pps_run",
    "pps_verify",
    "EnumeratedStructure", "GeometricStructure", "acl_enumerate_via_lambda", "ild_estimate",
    "lambda_closure", "lambda_step", "psi_witness_check",
    "Delta2Schedule", "Sigma1Schedule", "StagewisePresentation", "delta2_acl_schedule",
    "going_down_run", "trace_verify",
    "SpectrumSet", "TheoryProfile", "Verdict", "check_profile", "classify",
    "enumerate_case_analysis", "validate_profile",
}


def test_all_lists_every_export():
    assert sorted(flatgeom.__all__) == sorted(EXPORTS)


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_export_is_its_module_object(name):
    obj = getattr(flatgeom, name)
    assert obj is getattr(sys.modules[obj.__module__], name)
    namespace: dict = {}
    exec(f"from flatgeom import {name}", namespace)
    assert namespace[name] is obj


def test_dir_lists_every_export():
    assert EXPORTS <= set(dir(flatgeom))
    assert "__version__" in dir(flatgeom)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        flatgeom.no_such_name
    with pytest.raises(ImportError):
        exec("from flatgeom import no_such_name", {})


def test_a_rebound_name_is_seen_through_the_package(monkeypatch):
    flatgeom.check_flat  # a lookup before the rebinding must leave nothing cached

    def f():
        pass

    monkeypatch.setattr(flatness, "check_flat", f)
    assert flatgeom.check_flat is f
    monkeypatch.undo()
    assert flatgeom.check_flat is flatness.check_flat
