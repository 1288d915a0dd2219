"""Finite pregeometry toolkit.

Matroids behind rank/closure oracles, inclusion-exclusion flatness
verdicts, ping-pong sequence search, formula-closure fixpoints over
staged structures, a stage-faithful recursive-copy simulator, and the
spectrum-shape rule engine.  See the README for the CLI.

The names below load their module on first use (PEP 562), so ``import
flatgeom`` imports none of them.  Each lookup reads the name from its
module afresh and nothing is cached here, so a name rebound in its
module is seen through the package too.
"""

import importlib

#: The exported names of each module.
_MODULES = {
    "errors": ("FlatgeomError",),
    "matroid": (
        "Circuit", "Flat", "GroundSet", "Matroid", "closure_table_matroid", "free_matroid",
        "linear_matroid", "sparse_paving_matroid", "uniform_matroid",
    ),
    "flatness": ("FlatCollection", "FlatnessVerdict", "check_flat", "delta", "is_disintegrated"),
    "pingpong": (
        "PPSConfig", "PPSRun", "PPSSequence", "pps_candidates", "pps_find_cycle", "pps_run",
        "pps_verify",
    ),
    "formula_closure": (
        "EnumeratedStructure", "GeometricStructure", "acl_enumerate_via_lambda", "ild_estimate",
        "lambda_closure", "lambda_step", "psi_witness_check",
    ),
    "effective": (
        "Delta2Schedule", "Sigma1Schedule", "StagewisePresentation", "delta2_acl_schedule",
        "going_down_run", "trace_verify",
    ),
    "spectrum": (
        "SpectrumSet", "TheoryProfile", "Verdict", "check_profile", "classify",
        "enumerate_case_analysis", "validate_profile",
    ),
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
