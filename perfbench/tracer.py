"""Out-of-program tracing of flatgeom's layer boundaries.

``Tracer.install`` replaces public functions and methods of the flatgeom
modules with timing wrappers, wherever the package binds them (module
globals, from-imports in sibling modules, corpus registries), and
``uninstall`` puts the originals back.  Nothing in flatgeom changes.

Oracle and other hot calls are aggregated per name into calls, busy time
(outermost calls only, so recursion is not counted twice) and self time
(busy time minus time covered by traced callees).  Whole jobs are kept as
spans.  ``layer_metrics`` turns the totals into the per-layer metrics that
BENCHMARK.json lists.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Optional

ORACLE_KINDS = {"LinearOracle": "linear", "ClosureTableOracle": "table", "UniformOracle": "uniform"}


class Tracer:
    def __init__(self):
        #: name -> [calls, busy_s, self_s]
        self.agg: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[dict] = []
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._asked: dict[tuple[str, int], tuple[Any, set]] = {}
        self._patches: list[tuple[Any, Any, Any]] = []

    # -- recording ------------------------------------------------------------

    def _enter(self, name: str) -> list[float]:
        frame = [perf_counter(), 0.0]
        self._stack.append(frame)
        self._depth[name] += 1
        return frame

    def _exit(self, name: str, frame: list[float], count: bool = True) -> None:
        dur = perf_counter() - frame[0]
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += dur
        self._depth[name] -= 1
        a = self.agg[name]
        if count:
            a[0] += 1
        if self._depth[name] == 0:
            a[1] += dur
        a[2] += dur - frame[1]

    def timed(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def timed_generator(self, name: str, fn: Callable) -> Callable:
        """Each resume of the generator is timed; the call counts once."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.agg[name][0] += 1
            inner = fn(*args, **kwargs)
            try:
                while True:
                    frame = self._enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._exit(name, frame, count=False)
                    yield item
            finally:
                inner.close()

        return wrapper

    def oracle_method(self, op: str, fn: Callable) -> Callable:
        """Matroid.rank/closure, split by oracle kind, counting how often an
        instance is asked for a subset it was asked for before."""

        @functools.wraps(fn)
        def wrapper(m, subset):
            s = frozenset(subset)
            name = f"matroid.{op}.{ORACLE_KINDS[type(m.oracle).__name__]}"
            key = (op, id(m))
            entry = self._asked.get(key)
            if entry is None:
                # Holding m keeps its id from being reused by a later instance.
                entry = self._asked[key] = (m, set())
            if s in entry[1]:
                self.counts[name + ".repeats"] += 1
            else:
                entry[1].add(s)
            frame = self._enter(name)
            try:
                return fn(m, s)
            finally:
                self._exit(name, frame)

        return wrapper

    def job(self, trace_id: int, key: str, fn: Callable) -> Any:
        """Run one job as a kept span."""
        start = perf_counter()
        frame = self._enter("job")
        try:
            return fn()
        finally:
            self._exit("job", frame)
            self.spans.append({"id": trace_id, "name": key, "start": start, "end": perf_counter()})

    def add(self, name: str, amount: float) -> None:
        self.counts[name] += amount

    def end_pass(self) -> None:
        """Forget which subsets each Matroid was asked for (and the
        instances themselves); repeats are counted within one pass."""
        self._asked.clear()

    def merge(self, doc: dict) -> None:
        """Add totals that a child process wrote with ``dump``."""
        for name, (calls, busy, self_s) in doc["agg"].items():
            a = self.agg[name]
            a[0] += calls
            a[1] += busy
            a[2] += self_s
        for name, value in doc["counts"].items():
            self.counts[name] += value

    def dump(self) -> dict:
        return {"agg": dict(self.agg), "counts": dict(self.counts)}

    # -- patching ---------------------------------------------------------------

    def patch(self, owner: Any, attr: str, wrapped: Any) -> None:
        # A class attribute is saved raw, so a classmethod stays one.
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def patch_function(self, fn: Callable, wrapped: Callable) -> None:
        """Rebind ``fn`` to ``wrapped`` everywhere flatgeom holds it."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "flatgeom" or modname.startswith("flatgeom.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self.patch(mod, attr, wrapped)
                elif isinstance(value, dict):
                    for k, v in value.items():
                        if v is fn:
                            self._patches.append((value, k, fn))
                            value[k] = wrapped

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def install(self, fg) -> None:
        """Wrap the layer boundaries of the flatgeom modules in ``fg``."""
        mt, fl, pp, fc, eff = fg.matroid, fg.flatness, fg.pingpong, fg.formula_closure, fg.effective
        cls = mt.Matroid
        self.patch(cls, "rank", self.oracle_method("rank", cls.rank))
        self.patch(cls, "closure", self.oracle_method("closure", cls.closure))
        self.patch(cls, "flats", self.timed(
            "matroid.flats", cls.flats, lambda a, r: self.add("matroid.flats.count", len(r))))
        self.patch(cls, "circuits", self.timed("matroid.circuits", cls.circuits))
        self.patch(cls, "verify_pregeometry", self.timed(
            "matroid.verify_pregeometry", cls.verify_pregeometry,
            lambda a, r: self.add("matroid.verify_pregeometry.subsets_checked", r.subsets_checked)))
        for make in (mt.sparse_paving_matroid, mt.table_from_matroid):
            self.patch_function(make, self.timed("matroid.table_build", make))
        for structure in (fc.GeometricStructure, fc.EnumeratedStructure):
            of = structure.__dict__["of"]
            self.patch(structure, "of", classmethod(self.timed("formula_closure.structure_build", of.__func__)))

        plain = [
            (fl, "delta", None), (fl, "check_flat", None), (fl, "is_disintegrated", None),
            (pp, "pps_find_cycle", lambda a, r: self.add("pingpong.configs_searched", r.configs_searched)),
            (pp, "pps_run", None), (pp, "pps_verify", None),
            (fc, "certified_lambda",
             lambda a, r: self.add("formula_closure.certified_lambda.finite", r.status == "finite")),
            (fc, "revealed_closure", None), (fc, "lambda_closure", None), (fc, "lambda_step", None),
            (fc, "acl_enumerate_via_lambda", None), (fc, "ild_estimate", None),
            (eff, "going_down_run", self._count_stages), (eff, "trace_verify", None),
            (eff, "delta2_acl_schedule", None),
            (fg.spectrum, "classify", None),
        ]
        for mod, attr, hook in plain:
            name = f"{mod.__name__.split('.')[-1]}.{attr}"
            fn = getattr(mod, attr)
            self.patch_function(fn, self.timed(name, fn, hook))
        self.patch_function(pp.iter_runs, self.timed_generator("pingpong.iter_runs", pp.iter_runs))

        js = fg.jsonio
        self.patch_function(js.load_file, self.timed(
            "jsonio.load", js.load_file, lambda a, r: self.add("jsonio.load.bytes", os.path.getsize(a[0]))))
        self.patch_function(js.dumps, self.timed(
            "jsonio.dumps", js.dumps, lambda a, r: self.add("jsonio.dumps.bytes", len(r))))
        for attr in ("matroid_from_json", "structure_from_json", "scenario_from_json", "effective_scenario_from_json"):
            fn = getattr(js, attr)
            self.patch_function(fn, self.timed(f"jsonio.{attr}", fn))
        for attr in ("gf2_3", "gf3_3", "gf3_2", "three_planes", "pps_chain", "u23_plus_2_free", "phi_demo",
                     "sigma1_chain", "ild_pps", "going_down_demo",
                     "random_geometric_structure", "random_going_down_scenario"):
            fn = getattr(fg.corpus, attr)
            self.patch_function(fn, self.timed(f"corpus.{attr}", fn))

    def _count_stages(self, args, trace) -> None:
        events = [r.event for r in trace.records]
        self.add("effective.going_down_run.stages", len(events))
        self.add("effective.going_down_run.outcome2_events", events.count("outcome2"))
        self.add("effective.going_down_run.waits", events.count("wait"))


# -- per-layer metrics -----------------------------------------------------------

PER_LAYER = [
    *[(f"matroid.{op}.{kind}.{m}", unit)
      for op in ("rank", "closure")
      for kind in ("linear", "table", "uniform")
      for m, unit in (("calls", "count"), ("self_s", "s"), ("repeat_ratio", "ratio"))],
    ("matroid.flats.busy_s", "s"),
    ("matroid.flats.count", "count"),
    ("matroid.circuits.busy_s", "s"),
    ("matroid.verify_pregeometry.busy_s", "s"),
    ("matroid.verify_pregeometry.subsets_checked", "count"),
    ("matroid.table_build_s", "s"),
    ("flatness.is_disintegrated.busy_s", "s"),
    ("flatness.delta.calls", "count"),
    ("flatness.delta.self_s", "s"),
    ("flatness.check_flat.self_s", "s"),
    ("flatness.delta_per_verdict", "calls/verdict"),
    ("pingpong.pps_find_cycle.busy_s", "s"),
    ("pingpong.pps_find_cycle.self_s", "s"),
    ("pingpong.configs_searched", "count"),
    ("pingpong.iter_runs.calls", "count"),
    ("pingpong.pps_run.busy_s", "s"),
    ("pingpong.pps_verify.busy_s", "s"),
    ("formula_closure.certified_lambda.calls", "count"),
    ("formula_closure.certified_lambda.self_s", "s"),
    ("formula_closure.certified_lambda.finite_ratio", "ratio"),
    ("formula_closure.acl_enumerate_via_lambda.busy_s", "s"),
    ("formula_closure.ild_estimate.busy_s", "s"),
    ("formula_closure.revealed_closure.calls", "count"),
    ("formula_closure.revealed_closure.self_s", "s"),
    ("formula_closure.lambda_closure.busy_s", "s"),
    ("formula_closure.lambda_closure.iterations", "count"),
    ("formula_closure.structure_build_s", "s"),
    ("effective.going_down_run.busy_s", "s"),
    ("effective.going_down_run.stages", "count"),
    ("effective.going_down_run.outcome2_events", "count"),
    ("effective.wait_ratio", "ratio"),
    ("effective.trace_verify.busy_s", "s"),
    ("effective.delta2_acl_schedule.busy_s", "s"),
    ("spectrum.classify.calls", "count"),
    ("spectrum.classify.busy_s", "s"),
    ("cli.import_s", "s"),
    ("cli.parse_s", "s"),
    ("cli.load_s", "s"),
    ("cli.run_s", "s"),
    ("cli.emit_s", "s"),
    ("jsonio.load.busy_s", "s"),
    ("jsonio.load.bytes", "bytes"),
    ("jsonio.dumps.busy_s", "s"),
    ("jsonio.dumps.bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer, build: Tracer, passes: int, overhead: float) -> dict[str, float]:
    """Per-layer values for one traced pass over the fixed job list
    (totals divided by ``passes``); the two build times come from the
    traced set-up in ``build``."""
    agg, counts = t.agg, t.counts
    calls = lambda n: agg[n][0] if n in agg else 0  # noqa: E731
    busy = lambda n: agg[n][1] if n in agg else 0.0  # noqa: E731
    self_s = lambda n: agg[n][2] if n in agg else 0.0  # noqa: E731
    per_pass = {}
    for op in ("rank", "closure"):
        for kind in ("linear", "table", "uniform"):
            n = f"matroid.{op}.{kind}"
            per_pass[n + ".calls"] = calls(n)
            per_pass[n + ".self_s"] = self_s(n)
    for n in ("matroid.flats", "matroid.circuits", "matroid.verify_pregeometry", "flatness.is_disintegrated",
              "pingpong.pps_find_cycle", "pingpong.pps_run", "pingpong.pps_verify",
              "formula_closure.acl_enumerate_via_lambda", "formula_closure.ild_estimate",
              "formula_closure.lambda_closure", "effective.going_down_run", "effective.trace_verify",
              "effective.delta2_acl_schedule", "spectrum.classify", "jsonio.load", "jsonio.dumps"):
        per_pass[n + ".busy_s"] = busy(n)
    for n in ("flatness.delta", "pingpong.iter_runs", "formula_closure.certified_lambda",
              "formula_closure.revealed_closure", "spectrum.classify"):
        per_pass[n + ".calls"] = calls(n)
    for n in ("flatness.delta", "flatness.check_flat", "pingpong.pps_find_cycle",
              "formula_closure.certified_lambda", "formula_closure.revealed_closure"):
        per_pass[n + ".self_s"] = self_s(n)
    for n in ("matroid.flats.count", "matroid.verify_pregeometry.subsets_checked", "pingpong.configs_searched",
              "effective.going_down_run.stages", "effective.going_down_run.outcome2_events",
              "jsonio.load.bytes", "jsonio.dumps.bytes"):
        per_pass[n] = counts.get(n, 0)
    per_pass["formula_closure.lambda_closure.iterations"] = calls("formula_closure.lambda_step")
    parse, load, emit = busy("cli.parse"), busy("cli.load"), busy("cli.emit")
    per_pass.update({
        "cli.import_s": counts.get("cli.import_s", 0.0),
        "cli.parse_s": parse,
        "cli.load_s": load,
        "cli.emit_s": emit,
        "cli.run_s": busy("cli.run_command") - parse - load - emit if "cli.run_command" in agg else 0.0,
    })
    out = {k: v / passes for k, v in per_pass.items()}
    for op in ("rank", "closure"):
        for kind in ("linear", "table", "uniform"):
            n = f"matroid.{op}.{kind}"
            out[n + ".repeat_ratio"] = _ratio(counts.get(n + ".repeats", 0), calls(n))
    out["flatness.delta_per_verdict"] = _ratio(calls("flatness.delta"), calls("flatness.check_flat"))
    out["formula_closure.certified_lambda.finite_ratio"] = _ratio(
        counts.get("formula_closure.certified_lambda.finite", 0), calls("formula_closure.certified_lambda"))
    out["effective.wait_ratio"] = _ratio(
        counts.get("effective.going_down_run.waits", 0), counts.get("effective.going_down_run.stages", 0))
    out["matroid.table_build_s"] = build.agg["matroid.table_build"][1] if "matroid.table_build" in build.agg else 0.0
    out["formula_closure.structure_build_s"] = (
        build.agg["formula_closure.structure_build"][1] if "formula_closure.structure_build" in build.agg else 0.0)
    out["trace.overhead_ratio"] = overhead
    return {name: out[name] for name, _ in PER_LAYER}
