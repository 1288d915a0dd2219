"""Unified command-line entry point.

Every command prints line-oriented JSON with sorted keys and a schema
version field, so identical inputs give byte-identical outputs.  Exit
codes: 0 on success, 1 when an --expect-* assertion fails, 2 on input
or usage errors (including malformed JSON, reported with line/column),
each reported as one ``error:`` line on stderr.

Inputs are file paths; ``corpus:<name>`` loads a bundled member instead.
The FLATGEOM_BUDGET environment variable overrides default search budgets.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Any, Optional

from . import corpus, flatness, jsonio, pingpong, spectrum
from .effective import going_down_run, trace_verify
from .errors import FlatgeomError, InputError
from .formula_closure import (
    EnumeratedStructure,
    acl_enumerate_via_lambda,
    ild_estimate,
    lambda_closure,
)
from .matroid import Matroid

V = jsonio.SCHEMA_VERSION


def _emit(doc: dict) -> None:
    doc = {"v": V, **doc}
    sys.stdout.write(jsonio.dumps(doc) + "\n")


def _budget(args, default: Optional[int] = 64) -> Optional[int]:
    if getattr(args, "budget", None) is not None:
        return args.budget
    env = os.environ.get("FLATGEOM_BUDGET")
    if env:
        try:
            return int(env)
        except ValueError:
            raise InputError(f"FLATGEOM_BUDGET={env!r} is not an integer") from None
    return default


def _ids(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InputError(f"expected comma-separated ids, got {text!r}") from None


def _load(source: str, members: dict, from_json, what: str):
    """Build a corpus member for ``corpus:<name>``, else parse a JSON file."""
    if source.startswith("corpus:"):
        name = source.split(":", 1)[1]
        if name not in members:
            raise InputError(f"no corpus {what} named {name!r}")
        return members[name]()
    return from_json(jsonio.load_file(source))


def _load_matroid(source: str) -> Matroid:
    return _load(source, corpus.MATROIDS, jsonio.matroid_from_json, "matroid")


def _load_scenario(source: str) -> EnumeratedStructure:
    return _load(source, corpus.SCENARIOS, jsonio.scenario_from_json, "scenario")


def _load_structure(source: str):
    return _load(source, corpus.STRUCTURES, jsonio.structure_from_json, "structure")


def _load_effective(source: str):
    return _load(
        source,
        corpus.EFFECTIVE_SCENARIOS,
        jsonio.effective_scenario_from_json,
        "effective scenario",
    )


# -- command handlers ---------------------------------------------------------


def cmd_pregeom_verify(args) -> int:
    m = _load_matroid(args.matroid)
    report = m.verify_pregeometry(
        max_ground=args.max_ground, sample=args.sample, seed=args.seed
    )
    doc: dict[str, Any] = {
        "command": "pregeom-verify",
        "ok": report.ok,
        "subsets_checked": report.subsets_checked,
        "sampled": report.sampled,
    }
    if report.violation:
        v = report.violation
        doc["violation"] = {"kind": v.kind, "a": v.a, "b": v.b, "set": list(v.subset)}
    _emit(doc)
    return 0 if (report.ok or not args.expect_pass) else 1


def cmd_flatness(args) -> int:
    m = _load_matroid(args.matroid)
    verdict = flatness.check_flat(
        m,
        args.max_sigma,
        exhaustive=args.exhaustive,
        max_ground=args.max_ground,
        sample=args.sample,
        seed=args.seed,
    )
    doc: dict[str, Any] = {"command": "flatness", "verdict": verdict.kind}
    if verdict.bound is not None:
        doc["bound"] = verdict.bound
    if verdict.witness is not None:
        doc["witness"] = [list(f.elements) for f in verdict.witness.flats]
        doc["delta"] = verdict.delta
        doc["union_dim"] = verdict.union_dim
    if verdict.samples is not None:
        doc["samples"] = verdict.samples
        doc["seed"] = verdict.seed
    _emit(doc)
    if args.expect_flat and verdict.kind not in ("flat-up-to", "flat-exhaustive"):
        return 1
    return 0


def cmd_circuits(args) -> int:
    m = _load_matroid(args.matroid)
    found = m.circuits(args.max_size)
    _emit(
        {
            "command": "circuits",
            "max_size": args.max_size,
            "circuits": [list(c.elements) for c in found],
        }
    )
    return 0


def cmd_pps_run(args) -> int:
    m = _load_matroid(args.matroid)
    cfg = pingpong.PPSConfig.of(_ids(args.x), args.a1, args.a2, args.t1)
    runs = pingpong.pps_run(m, cfg, args.strategy, _budget(args))
    _emit(
        {
            "command": "pps-run",
            "strategy": args.strategy,
            "runs": [
                {
                    "ts": list(r.sequence.ts),
                    "status": r.status,
                    "repeat_index": r.repeat_index,
                    "cycle_length": r.cycle_length,
                }
                for r in runs
            ],
        }
    )
    return 0


def cmd_pps_search_cycle(args) -> int:
    m = _load_matroid(args.matroid)
    res = pingpong.pps_find_cycle(m, _budget(args))
    doc: dict[str, Any] = {
        "command": "pps-search-cycle",
        "status": res.status,
        "configs_searched": res.configs_searched,
    }
    if res.run is not None:
        cfg = res.run.sequence.config
        doc["witness"] = {
            "net": list(cfg.net),
            "a1": cfg.a1,
            "a2": cfg.a2,
            "ts": list(res.run.sequence.ts),
            "repeat_index": res.run.repeat_index,
            "cycle_length": res.run.cycle_length,
        }
    _emit(doc)
    return 0


def cmd_lambda_closure(args) -> int:
    g = _load_structure(args.structure)
    res = lambda_closure(g, _ids(args.x), _budget(args, None))
    _emit(
        {
            "command": "lambda-closure",
            "status": res.status,
            "fixpoint_index": res.fixpoint_index,
            "closure": sorted(res.closure),
            "growth": list(res.growth_trace),
        }
    )
    return 0


def cmd_lambda_acl(args) -> int:
    enum = _load_scenario(args.scenario)
    res = acl_enumerate_via_lambda(enum, _ids(args.bbar), _budget(args, enum.final_stage))
    _emit(
        {
            "command": "lambda-acl",
            "status": res.status,
            "emitted": [[e, s] for e, s in res.emitted],
        }
    )
    return 0


def cmd_ild(args) -> int:
    enum = _load_scenario(args.scenario)
    res = ild_estimate(enum, _budget(args, None))
    _emit({"command": "ild", "value": res.value, "certainty": res.certainty})
    return 0


def cmd_effective_going_down(args) -> int:
    presentation, membership, enumeration, horizon = _load_effective(args.scenario)
    trace = going_down_run(presentation, membership, enumeration, horizon)
    report = trace_verify(trace, membership.target)
    doc = {
        "command": "effective-going-down",
        "status": trace.status,
        "stuck_stage": trace.stuck_stage,
        "events": [
            {
                "stage": r.stage,
                "event": r.event,
                "copied": r.copied,
                "witness": r.witness,
                "images": list(r.images),
            }
            for r in trace.records
            if r.event != "wait"
        ],
        "limit_map": list(trace.limit_map),
        "longest_wait": trace.longest_wait,
        "verify": {
            "stabilized": report.stabilized,
            "permanence": report.permanence,
            "isomorphism": report.isomorphism,
            "surjective": report.surjective,
        },
    }
    _emit(doc)
    if args.trace:
        full = {"v": V, "records": [dataclasses.asdict(r) for r in trace.records]}
        try:
            with open(args.trace, "w") as fh:
                fh.write(jsonio.dumps(full) + "\n")
        except OSError as e:
            raise InputError(f"cannot write {args.trace}: {e}") from None
    if args.expect_iso and not report.ok:
        return 1
    return 0


def _parse_spectrum_set(text: str, horizon: int) -> spectrum.SpectrumSet:
    pieces = [piece.strip() for piece in text.split(",")] if text else []
    try:
        members = [piece if piece == "omega" else int(piece) for piece in pieces]
        return spectrum.SpectrumSet.of(members, horizon)
    except ValueError:
        raise InputError(f"bad spectrum set {text!r}") from None


def cmd_spectrum_check(args) -> int:
    profile = spectrum.TheoryProfile(args.n, args.p, args.ild)
    report = spectrum.validate_profile(profile)
    if not report.ok:
        raise InputError(
            "invalid profile: "
            + "; ".join(f"{v.rule} ({v.message})" for v in report.violations)
        )
    s = _parse_spectrum_set(args.set, args.horizon)
    verdict = spectrum.classify(s, profile)
    _emit(
        {
            "command": "spectrum-check",
            "profile_ok": True,
            "set": [str(x) for x in s.members()],
            "verdict": verdict.kind,
            "schema": verdict.schema,
            "shape": verdict.shape,
            "rules": list(verdict.rules),
        }
    )
    return 0


def cmd_spectrum_cases(args) -> int:
    profile = spectrum.TheoryProfile(args.n)
    analysis = spectrum.enumerate_case_analysis(profile)
    rows = []
    for kind, group in (
        ("shape-covered", analysis.shape_covered),
        ("open", analysis.open_sets),
        ("excluded", analysis.excluded),
    ):
        for s in group:
            verdict = spectrum.classify(s, profile)
            rows.append(
                {
                    "set": [str(x) for x in s.members()],
                    "class": kind,
                    "verdict": verdict.kind,
                    "shape": verdict.shape,
                    "rules": list(verdict.rules),
                }
            )
    _emit({"command": "spectrum-cases", "n": args.n, "cases": rows})
    return 0


def cmd_corpus_list(args) -> int:
    _emit({"command": "corpus-list", "members": corpus.members()})
    return 0


def cmd_corpus_check(args) -> int:
    results = {}
    ok = True
    for name, make in corpus.MATROIDS.items():
        m = make()
        n = len(m.ground)
        report = m.verify_pregeometry(max_ground=max(n, 12))
        results[name] = report.ok
        ok = ok and report.ok
    for name, make in corpus.STRUCTURES.items():
        make().validate()
        results[name] = True
    for name, make in corpus.SCENARIOS.items():
        make().validate()
        results[name] = True
    for name, make in corpus.EFFECTIVE_SCENARIOS.items():
        presentation, membership, enumeration, horizon = make()
        membership.validate()
        enumeration.validate()
        results[name] = True
    _emit({"command": "corpus-check", "ok": ok, "members": results})
    return 0 if ok else 1


# -- parser ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one InputError line, not the usage text."""

    def error(self, message: str):
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flatgeom", description="finite pregeometry toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_matroid(p):
        p.add_argument("--matroid", required=True, help="matroid JSON file or corpus:<name>")

    pregeom = sub.add_parser("pregeom", help="pregeometry axioms").add_subparsers(
        dest="sub", required=True
    )
    p = pregeom.add_parser("verify")
    add_matroid(p)
    p.add_argument("--max-ground", type=int, default=12)
    p.add_argument("--sample", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--expect-pass", action="store_true")
    p.set_defaults(fn=cmd_pregeom_verify)

    p = sub.add_parser("flatness", help="inclusion-exclusion flatness verdict")
    add_matroid(p)
    p.add_argument("--max-sigma", type=int, default=flatness.DEFAULT_MAX_SIGMA)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--max-ground", type=int, default=12)
    p.add_argument("--sample", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--expect-flat", action="store_true")
    p.set_defaults(fn=cmd_flatness)

    p = sub.add_parser("circuits", help="list circuits up to a size")
    add_matroid(p)
    p.add_argument("--max-size", type=int, required=True)
    p.set_defaults(fn=cmd_circuits)

    pps = sub.add_parser("pps", help="ping-pong sequences").add_subparsers(
        dest="sub", required=True
    )
    p = pps.add_parser("run")
    add_matroid(p)
    p.add_argument("--x", default="", help="net ids, comma separated")
    p.add_argument("--a1", type=int, required=True)
    p.add_argument("--a2", type=int, required=True)
    p.add_argument("--t1", type=int, required=True)
    p.add_argument("--strategy", choices=["least", "all-branches"], default="least")
    p.add_argument("--budget", type=int)
    p.set_defaults(fn=cmd_pps_run)
    p = pps.add_parser("search-cycle")
    add_matroid(p)
    p.add_argument("--budget", type=int)
    p.set_defaults(fn=cmd_pps_search_cycle)

    lam = sub.add_parser("lambda", help="formula closures").add_subparsers(
        dest="sub", required=True
    )
    p = lam.add_parser("closure")
    p.add_argument("--structure", required=True)
    p.add_argument("--x", default="")
    p.add_argument("--budget", type=int)
    p.set_defaults(fn=cmd_lambda_closure)
    p = lam.add_parser("acl")
    p.add_argument("--scenario", required=True)
    p.add_argument("--bbar", required=True)
    p.add_argument("--budget", type=int)
    p.set_defaults(fn=cmd_lambda_acl)

    p = sub.add_parser("ild", help="least dimension with unbounded closure")
    p.add_argument("--scenario", required=True)
    p.add_argument("--budget", type=int)
    p.set_defaults(fn=cmd_ild)

    eff = sub.add_parser("effective", help="copy construction").add_subparsers(
        dest="sub", required=True
    )
    p = eff.add_parser("going-down")
    p.add_argument("--scenario", required=True)
    p.add_argument("--trace", help="write the full stage trace to this file")
    p.add_argument("--expect-iso", action="store_true")
    p.set_defaults(fn=cmd_effective_going_down)

    spectrum_sub = sub.add_parser("spectrum", help="index-set classification").add_subparsers(
        dest="sub", required=True
    )
    p = spectrum_sub.add_parser("check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int)
    p.add_argument("--ild", type=int)
    p.add_argument("--set", default="", help="e.g. 0,1,omega")
    p.add_argument("--horizon", type=int, default=spectrum.DEFAULT_HORIZON)
    p.set_defaults(fn=cmd_spectrum_check)
    p = spectrum_sub.add_parser("cases")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_spectrum_cases)

    corp = sub.add_parser("corpus", help="bundled inputs").add_subparsers(
        dest="sub", required=True
    )
    p = corp.add_parser("list")
    p.set_defaults(fn=cmd_corpus_list)
    p = corp.add_parser("check")
    p.set_defaults(fn=cmd_corpus_check)

    return parser


def run_command(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as e:
        # --help prints to stdout and exits 0.
        return 2 if e.code else 0
    except FlatgeomError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
