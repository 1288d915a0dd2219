"""Canonical JSON encoding of matroids, structures, scenarios and results.

All emitted JSON uses sorted keys and compact separators so identical
inputs produce byte-identical outputs.  A reader checks the document: its
keys, JSON types (with a line/column diagnostic on malformed JSON),
canonical keys, and the fields that must agree with each other.  Every
other value rule belongs to the constructor that the reader calls, so a
library caller gets the same refusal.  Each reader and writer imports the
module whose objects it handles, so ``dumps`` and ``loads`` need none.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import TYPE_CHECKING, Any

from .errors import InputError, check_int

if TYPE_CHECKING:
    from . import matroid
    from .effective import (
        Delta2Schedule, RelationalStructure, Sigma1Schedule, StagewisePresentation,
    )
    from .formula_closure import EnumeratedStructure, GeometricStructure

SCHEMA_VERSION = 1

#: What reading a missing key, a value of the wrong type or size, or a
#: non-object where an object's ``.items()`` or ``.get()`` is read raises.
_BAD_VALUE = (AttributeError, KeyError, TypeError, ValueError, OverflowError)


def _int(value: Any, what: str) -> int:
    """``value`` if it is a JSON integer.  A bool, a string or a fraction
    raises InputError; an infinite number keeps ``int``'s OverflowError."""
    if isinstance(value, float):
        int(value)
    check_int(what, value)
    return value


def _ints(values: Any, what: str) -> tuple[int, ...]:
    """The members of a JSON list, each checked with ``_int``."""
    if not isinstance(values, list):
        raise InputError(f"expected a list of {what}s, got {values!r}")
    if not set(map(type, values)) <= {int}:
        for v in values:
            _int(v, what)
    return tuple(values)


def _list(doc: Any, key: str, required: bool = False) -> list:
    """``doc[key]``; if absent, KeyError when ``required`` and [] otherwise;
    InputError naming the key unless a list."""
    value = doc[key] if required else doc.get(key, [])
    if not isinstance(value, list):
        raise InputError(f"{key} must be a list, got {value!r}")
    return value


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def loads(text: str, what: str = "input") -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(
            f"malformed JSON in {what}: {e.msg} at line {e.lineno} column {e.colno}"
        ) from None


def load_file(path: str) -> Any:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from None
    return loads(text, path)


# -- matroids ----------------------------------------------------------------


def matroid_to_json(m: matroid.Matroid) -> dict:
    from .matroid import LinearOracle, UniformOracle, table_rows

    oracle = m.oracle
    if isinstance(oracle, LinearOracle):
        columns = [list(c) for c in oracle.columns]
        return {"type": "linear", "field": oracle.field, "columns": columns}
    if isinstance(oracle, UniformOracle) and not oracle.nonbases:
        return {"type": "uniform", "rank": oracle.rank_bound, "size": len(m.ground)}
    # A table, or a sparse paving host tabulated through its oracle.
    rows = [{"set": list(s), "cl": list(cl)} for s, cl in table_rows(m)]
    return {"type": "closure-table", "ground": len(m.ground), "closure": rows}


def matroid_from_json(doc: Any) -> matroid.Matroid:
    from .matroid import closure_table_matroid, linear_matroid, uniform_matroid

    if not isinstance(doc, dict) or "type" not in doc:
        raise InputError("matroid document must be an object with a 'type'")
    kind = doc["type"]
    try:
        if kind == "linear":
            return linear_matroid(_int(doc["field"], "field"), _list(doc, "columns", required=True))
        if kind == "uniform":
            return uniform_matroid(_int(doc["rank"], "rank"), _int(doc["size"], "size"))
        if kind == "closure-table":
            n = _int(doc["ground"], "ground")
            rows = [(entry["set"], entry["cl"]) for entry in _list(doc, "closure", required=True)]
            if not set(map(type, chain.from_iterable(rows))) <= {list}:
                bad = next(v for v in chain.from_iterable(rows) if type(v) is not list)
                raise InputError(f"closure table set and cl must be lists, got {bad!r}")
            _ints([*chain.from_iterable(chain.from_iterable(rows))], "closure table member")
            return closure_table_matroid(n, rows)
    except _BAD_VALUE as e:
        raise InputError(f"bad matroid document: {e}") from None
    raise InputError(f"unknown matroid type {kind!r}")


# -- geometric structures and scenarios --------------------------------------


def structure_to_json(g: GeometricStructure) -> dict:
    return {
        "universe": len(g.universe),
        "matroid": matroid_to_json(g.matroid),
        "phi": {"arity": g.arity, "tuples": sorted(list(t) for t in g.phi)},
        "K": g.fiber_bound,
    }


def structure_from_json(doc: Any) -> GeometricStructure:
    from .formula_closure import GeometricStructure

    try:
        m = matroid_from_json(doc["matroid"])
        tuples = [_ints(t, "phi tuple member") for t in _list(doc["phi"], "tuples", required=True)]
        fiber_bound, arity = _int(doc["K"], "K"), _int(doc["phi"]["arity"], "arity")
        g = GeometricStructure(m, frozenset(tuples), arity, fiber_bound)
        if len(g.universe) != _int(doc["universe"], "universe"):
            raise InputError("universe size disagrees with the matroid")
        return g
    except _BAD_VALUE as e:
        raise InputError(f"bad structure document: {e}") from None


def _fiber_key_str(key) -> str:
    j, rest = key
    return f"{j}|" + ",".join(str(r) for r in rest)


def _fiber_key_parse(text: str) -> tuple[int, tuple[int, ...]]:
    """The position and rest of a key, refused unless ``_fiber_key_str``
    writes it back unchanged."""
    try:
        j, rest = text.split("|", 1)
        key = int(j), tuple(int(x) for x in rest.split(",")) if rest else ()
        if _fiber_key_str(key) == text:
            return key
    except ValueError:
        pass
    raise InputError(f"bad fiber key {text!r}")


def scenario_to_json(enum: EnumeratedStructure) -> dict:
    doc = structure_to_json(enum.structure)
    reveals = []
    prev: frozenset = frozenset()
    for stage_set in enum.stages:
        reveals.append({"reveal": sorted(list(t) for t in stage_set - prev)})
        prev = stage_set
    doc["stages"] = reveals
    doc["counts"] = {_fiber_key_str(k): v for k, v in sorted(enum.counts.items())}
    doc["infinite_seeds"] = sorted(sorted(s) for s in enum.infinite_seeds)
    return doc


def scenario_from_json(doc: Any) -> EnumeratedStructure:
    from .formula_closure import EnumeratedStructure

    g = structure_from_json(doc)
    try:
        # Without stages, phi is revealed in one stage.
        reveal = [
            [_ints(t, "reveal tuple member") for t in _list(stage, "reveal", required=True)]
            for stage in _list(doc, "stages")
        ] or [sorted(g.phi)]
        counts = {
            _fiber_key_parse(k): _int(v, f"count {k}")
            for k, v in doc.get("counts", {}).items()
        }
        seeds = [frozenset(_ints(s, "infinite seed member")) for s in _list(doc, "infinite_seeds")]
        return EnumeratedStructure.of(g, reveal, counts, seeds)
    except _BAD_VALUE as e:
        raise InputError(f"bad scenario document: {e}") from None


# -- effective scenarios ------------------------------------------------------


def relational_to_json(s: RelationalStructure) -> dict:
    return {
        "universe": len(s.universe),
        "relations": {
            name: {"arity": rel.arity, "tuples": sorted(list(t) for t in rel.tuples)}
            for name, rel in sorted(s.relations.items())
        },
    }


def relational_from_json(doc: Any) -> RelationalStructure:
    from .effective import RelationalStructure

    try:
        n = _int(doc["universe"], "universe")
        rels = {
            name: (
                _int(spec["arity"], f"{name} arity"),
                [_ints(t, f"{name} tuple member") for t in _list(spec, "tuples", required=True)],
            )
            for name, spec in doc["relations"].items()
        }
        return RelationalStructure.of(range(n), rels)
    except _BAD_VALUE as e:
        raise InputError(f"bad relational structure: {e}") from None


def effective_scenario_to_json(
    presentation: StagewisePresentation,
    membership: Delta2Schedule,
    enumeration: Sigma1Schedule,
    horizon: int,
) -> dict:
    if presentation.matroid is not None:
        struct_doc: dict[str, Any] = {"matroid": matroid_to_json(presentation.matroid)}
    else:
        struct_doc = {}
    struct_doc.update(relational_to_json(presentation.structure))
    a_stages: dict[str, list[int]] = {}
    for elem, stage in enumeration.entries:
        a_stages.setdefault(str(stage), []).append(elem)
    return {
        "structure": struct_doc,
        "signature_order": list(presentation.signature_order),
        "M": sorted(membership.target),
        "flips": [
            {"elem": ev.elem, "stage": ev.stage, "in": ev.value}
            for ev in membership.flips
        ],
        "max_flips": membership.max_flips_per_element,
        "A": sorted(enumeration.target),
        "A_stages": {k: sorted(v) for k, v in sorted(a_stages.items())},
        "horizon": horizon,
    }


def effective_scenario_from_json(
    doc: Any,
) -> tuple[StagewisePresentation, Delta2Schedule, Sigma1Schedule, int]:
    from .effective import Delta2Schedule, FlipEvent, Sigma1Schedule, StagewisePresentation

    try:
        struct_doc = doc["structure"]
        structure = relational_from_json(struct_doc)
        matroid = (
            matroid_from_json(struct_doc["matroid"])
            if "matroid" in struct_doc
            else None
        )
        presentation = StagewisePresentation(
            structure, tuple(_list(doc, "signature_order", required=True)), matroid
        )
        flips = tuple(
            FlipEvent(_int(f["elem"], "flip elem"), _int(f["stage"], "flip stage"), f["in"])
            for f in _list(doc, "flips")
        )
        target = frozenset(_int(x, "M element") for x in _list(doc, "M", required=True))
        max_flips = _int(doc.get("max_flips", 3), "max_flips")
        entries: list[tuple[int, int]] = []
        for key, elems in doc.get("A_stages", {}).items():
            stage = int(key)  # which also reads '0_3' and ' 4'
            if str(stage) != key:
                raise InputError(f"A_stages key must be written {str(stage)!r}, got {key!r}")
            entries += ((e, stage) for e in _ints(elems, "A_stages element"))
        declared = frozenset(_int(x, "A element") for x in _list(doc, "A"))
        if declared and declared != {e for e, _ in entries}:
            raise InputError("A and A_stages disagree")
        horizon = _int(doc["horizon"], "horizon")
        # The schedules check themselves, after every check of the document.
        membership = Delta2Schedule(target, flips, max_flips)
        return presentation, membership, Sigma1Schedule.of(entries), horizon
    except _BAD_VALUE as e:
        raise InputError(f"bad effective scenario: {e}") from None
