"""Unified command-line entry point.

Every command prints line-oriented JSON with sorted keys and a schema
version field, so identical inputs give byte-identical outputs.  Exit
codes: 0 on success, 1 when an --expect-* assertion fails, 2 on input
or usage errors (including malformed JSON, reported with line/column).
Exit 2 writes nothing to stdout and one ``error:`` line to stderr.

Inputs are file paths; ``corpus:<name>`` loads a bundled member instead.
``--budget``, or else the FLATGEOM_BUDGET environment variable, bounds
the five searches that take one: ``pps run``, ``pps search-cycle``,
``lambda closure``, ``lambda acl`` and ``ild``.  ``flatness`` is bounded
by its work cap instead (a least-witness search past it exits 2 unless
``--sample`` is given) and ``effective going-down`` by its scenario's horizon.

Each handler imports the module it runs and calls through its attributes,
so a command loads only what it needs.  It passes only the options the
user set, so an unset option takes the library function's own default.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Any, Callable, Optional

from . import jsonio
from .errors import FlatgeomError, InputError

if TYPE_CHECKING:
    from . import pingpong, spectrum
    from .formula_closure import EnumeratedStructure
    from .matroid import Matroid

V = jsonio.SCHEMA_VERSION

#: What each handler returns: its document without the "command" and "v"
#: keys, which ``run_command`` adds, and whether its assertion failed (exit 1).
Result = tuple[dict, bool]


def _emit(doc: dict) -> None:
    doc = {"v": V, **doc}
    sys.stdout.write(jsonio.dumps(doc) + "\n")


def _given(**options) -> dict:
    """The options the user set: an unset option reads None, an unset flag False."""
    return {k: v for k, v in options.items() if v is not None and v is not False}


def _budget(args) -> dict:
    """``{"budget": n}`` from --budget, else from FLATGEOM_BUDGET, else {}."""
    if args.budget is not None:
        return {"budget": args.budget}
    env = os.environ.get("FLATGEOM_BUDGET")
    if not env:
        return {}
    try:
        return {"budget": int(env)}
    except ValueError:
        raise InputError(f"FLATGEOM_BUDGET={env!r} is not an integer") from None


def _ids(text: Optional[str]) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InputError(f"expected comma-separated ids, got {text!r}") from None


def _load(source: str, registry: str, from_json, what: str):
    """Build a member of ``corpus.<registry>`` for ``corpus:<name>``, else
    parse a JSON file."""
    if source.startswith("corpus:"):
        from . import corpus

        members, name = getattr(corpus, registry), source.split(":", 1)[1]
        if name not in members:
            raise InputError(f"no corpus {what} named {name!r}")
        return members[name]()
    return from_json(jsonio.load_file(source))


def _load_matroid(source: str) -> Matroid:
    return _load(source, "MATROIDS", jsonio.matroid_from_json, "matroid")


def _load_scenario(source: str) -> EnumeratedStructure:
    return _load(source, "SCENARIOS", jsonio.scenario_from_json, "scenario")


def _load_structure(source: str):
    return _load(source, "STRUCTURES", jsonio.structure_from_json, "structure")


def _load_effective(source: str):
    from_json = jsonio.effective_scenario_from_json
    return _load(source, "EFFECTIVE_SCENARIOS", from_json, "effective scenario")


# -- command handlers ---------------------------------------------------------


def _sampling(args) -> dict:
    """The keywords of the SAMPLING arguments the user set."""
    return _given(max_ground=args.max_ground, sample=args.sample, seed=args.seed)


def cmd_pregeom_verify(args) -> Result:
    report = _load_matroid(args.matroid).verify_pregeometry(**_sampling(args))
    doc: dict[str, Any] = {
        "ok": report.ok,
        "subsets_checked": report.subsets_checked,
        "sampled": report.sampled,
    }
    if report.violation:
        v = report.violation
        doc["violation"] = {"kind": v.kind, "a": v.a, "b": v.b, "set": list(v.subset)}
    return doc, args.expect_pass and not report.ok


def cmd_flatness(args) -> Result:
    from . import flatness

    m = _load_matroid(args.matroid)
    options = _given(max_collection_size=args.max_sigma, exhaustive=args.exhaustive)
    verdict = flatness.check_flat(m, **options, **_sampling(args))
    doc: dict[str, Any] = {"verdict": verdict.kind}
    if verdict.bound is not None:
        doc["bound"] = verdict.bound
    if verdict.witness is not None:
        doc["witness"] = [list(f.elements) for f in verdict.witness.flats]
        doc["delta"] = verdict.delta
        doc["union_dim"] = verdict.union_dim
    if verdict.samples is not None:
        doc["samples"] = verdict.samples
        doc["seed"] = verdict.seed
    flat = ("disintegrated", "flat-up-to", "flat-exhaustive")
    return doc, args.expect_flat and verdict.kind not in flat


def cmd_circuits(args) -> Result:
    found = _load_matroid(args.matroid).circuits(args.max_size)
    return {"max_size": args.max_size, "circuits": [list(c.elements) for c in found]}, False


def _run_doc(run: pingpong.PPSRun) -> dict:
    """What ``pps run`` and ``pps search-cycle`` both report of a run."""
    return {
        "ts": list(run.sequence.ts),
        "repeat_index": run.repeat_index,
        "cycle_length": run.cycle_length,
    }


def cmd_pps_run(args) -> Result:
    from . import pingpong

    m = _load_matroid(args.matroid)
    cfg = pingpong.PPSConfig.of(_ids(args.x), args.a1, args.a2, args.t1)
    runs = pingpong.pps_run(m, cfg, args.strategy, **_budget(args))
    doc = {"strategy": args.strategy, "runs": [{"status": r.status, **_run_doc(r)} for r in runs]}
    return doc, False


def cmd_pps_search_cycle(args) -> Result:
    from . import pingpong

    res = pingpong.pps_find_cycle(_load_matroid(args.matroid), **_budget(args))
    doc: dict[str, Any] = {"status": res.status, "configs_searched": res.configs_searched}
    if res.run is not None:
        cfg = res.run.sequence.config
        doc["witness"] = {"net": list(cfg.net), "a1": cfg.a1, "a2": cfg.a2, **_run_doc(res.run)}
    return doc, False


def cmd_lambda_closure(args) -> Result:
    from . import formula_closure

    g = _load_structure(args.structure)
    res = formula_closure.lambda_closure(g, _ids(args.x), **_budget(args))
    return {
        "status": res.status,
        "fixpoint_index": res.fixpoint_index,
        "closure": sorted(res.closure),
        "growth": list(res.growth_trace),
    }, False


def cmd_lambda_acl(args) -> Result:
    from . import formula_closure

    enum = _load_scenario(args.scenario)
    res = formula_closure.acl_enumerate_via_lambda(enum, _ids(args.bbar), **_budget(args))
    return {"status": res.status, "emitted": [[e, s] for e, s in res.emitted]}, False


def cmd_ild(args) -> Result:
    from . import formula_closure

    res = formula_closure.ild_estimate(_load_scenario(args.scenario), **_budget(args))
    return {"value": res.value, "certainty": res.certainty}, False


def cmd_effective_going_down(args) -> Result:
    import dataclasses

    from . import effective

    presentation, membership, enumeration, horizon = _load_effective(args.scenario)
    trace = effective.going_down_run(presentation, membership, enumeration, horizon)
    report = effective.trace_verify(trace, membership.target)
    if args.trace:
        full = {"v": V, "records": [dataclasses.asdict(r) for r in trace.records]}
        try:
            with open(args.trace, "w") as fh:
                fh.write(jsonio.dumps(full) + "\n")
        except OSError as e:
            raise InputError(f"cannot write {args.trace}: {e}") from None
    doc = {
        "status": trace.status,
        "stuck_stage": trace.stuck_stage,
        "events": [
            {"stage": r.stage, "event": r.event, "copied": r.copied, "witness": r.witness,
             "images": list(r.images)}
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
    return doc, args.expect_iso and not report.ok


def _verdict_row(s: spectrum.SpectrumSet, verdict: spectrum.Verdict) -> dict:
    """What ``spectrum check`` and each row of ``spectrum cases`` report."""
    return {
        "set": [str(x) for x in s.members()],
        "verdict": verdict.kind,
        "shape": verdict.shape,
        "rules": list(verdict.rules),
    }


def cmd_spectrum_check(args) -> Result:
    from . import spectrum

    profile = spectrum.TheoryProfile(args.n, args.p, args.ild)
    spectrum.check_profile(profile)
    pieces = [piece.strip() for piece in args.set.split(",")] if args.set else []
    try:
        members = [piece if piece == "omega" else int(piece) for piece in pieces]
        s = spectrum.SpectrumSet.of(members, **_given(horizon=args.horizon))
    except ValueError:
        raise InputError(f"bad spectrum set {args.set!r}") from None
    verdict = spectrum.classify(s, profile)
    return {"profile_ok": True, "schema": verdict.schema, **_verdict_row(s, verdict)}, False


def cmd_spectrum_cases(args) -> Result:
    from . import spectrum

    profile = spectrum.TheoryProfile(args.n)
    analysis = spectrum.enumerate_case_analysis(profile)
    rows = [
        {"class": kind, **_verdict_row(s, spectrum.classify(s, profile))}
        for kind, group in (
            ("shape-covered", analysis.shape_covered),
            ("open", analysis.open_sets),
            ("excluded", analysis.excluded),
        )
        for s in group
    ]
    return {"n": args.n, "cases": rows}, False


def cmd_corpus_list(args) -> Result:
    from . import corpus

    return {"members": corpus.members()}, False


def cmd_corpus_check(args) -> Result:
    from . import corpus

    results = {}
    for name, make in corpus.MATROIDS.items():
        m = make()
        results[name] = m.verify_pregeometry(max_ground=len(m.ground)).ok
    built = {**corpus.STRUCTURES, **corpus.SCENARIOS, **corpus.EFFECTIVE_SCENARIOS}
    for name, make in built.items():
        make()  # every other member checks itself when it is built
        results[name] = True
    ok = all(results.values())
    return {"ok": ok, "members": results}, not ok


# -- the command table and the parser ----------------------------------------


def _opt(flag: str, **spec) -> tuple[str, dict]:
    """One argument: its flag and the keywords ``add_argument`` takes."""
    return flag, spec


def _flag(flag: str) -> tuple[str, dict]:
    return _opt(flag, action="store_true")


MATROID = _opt("--matroid", required=True, help="matroid JSON file or corpus:<name>")
SCENARIO = _opt("--scenario", required=True)
STRUCTURE = _opt("--structure", required=True)
BUDGET = _opt("--budget", type=int)
N = _opt("--n", type=int, required=True)
#: The exhaustive scan's bound, and the random subsets checked past it.
SAMPLING = (
    _opt("--max-ground", type=int, help=(
        "most elements scanned over every subset, past it --sample; flatness scans only to "
        "confirm a disintegrated host"
    )),
    _opt("--sample", type=int),
    _opt("--seed", type=int),
)

#: The help line of each top-level word.
HELP = {
    "pregeom": "pregeometry axioms",
    "flatness": "inclusion-exclusion flatness verdict",
    "circuits": "list circuits up to a size",
    "pps": "ping-pong sequences",
    "lambda": "formula closures",
    "ild": "least dimension with unbounded closure",
    "effective": "copy construction",
    "spectrum": "index-set classification",
    "corpus": "bundled inputs",
}

#: Every command, in help order: its words, its handler and its arguments.
COMMANDS: list[tuple[str, Callable[[argparse.Namespace], Result], tuple]] = [
    ("pregeom verify", cmd_pregeom_verify, (MATROID, *SAMPLING, _flag("--expect-pass"))),
    ("flatness", cmd_flatness, (
        MATROID,
        _opt("--max-sigma", type=int),
        _flag("--exhaustive"),
        *SAMPLING,
        _flag("--expect-flat"),
    )),
    ("circuits", cmd_circuits, (MATROID, _opt("--max-size", type=int, required=True))),
    ("pps run", cmd_pps_run, (
        MATROID,
        _opt("--x", help="net ids, comma separated"),
        *(_opt(f"--{name}", type=int, required=True) for name in ("a1", "a2", "t1")),
        _opt("--strategy", choices=["least", "all-branches"], default="least"),
        BUDGET,
    )),
    ("pps search-cycle", cmd_pps_search_cycle, (MATROID, BUDGET)),
    ("lambda closure", cmd_lambda_closure, (STRUCTURE, _opt("--x"), BUDGET)),
    ("lambda acl", cmd_lambda_acl, (SCENARIO, _opt("--bbar", required=True), BUDGET)),
    ("ild", cmd_ild, (SCENARIO, BUDGET)),
    ("effective going-down", cmd_effective_going_down, (
        SCENARIO,
        _opt("--trace", help="write the full stage trace to this file"),
        _flag("--expect-iso"),
    )),
    ("spectrum check", cmd_spectrum_check, (
        N,
        _opt("--p", type=int),
        _opt("--ild", type=int),
        _opt("--set", help="e.g. 0,1,omega"),
        _opt("--horizon", type=int),
    )),
    ("spectrum cases", cmd_spectrum_cases, (N,)),
    ("corpus list", cmd_corpus_list, ()),
    ("corpus check", cmd_corpus_check, ()),
]


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one InputError line, not the usage text."""

    def error(self, message: str):
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flatgeom", description="finite pregeometry toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    groups: dict[str, Any] = {}
    for words, handler, specs in COMMANDS:
        head, _, leaf = words.partition(" ")
        if leaf and head not in groups:
            group = sub.add_parser(head, help=HELP[head])
            groups[head] = group.add_subparsers(dest="sub", required=True)
        p = groups[head].add_parser(leaf) if leaf else sub.add_parser(head, help=HELP[head])
        for flag, spec in specs:
            p.add_argument(flag, **spec)
        p.set_defaults(words=words, handler=handler)
    return parser


def run_command(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
        doc, failed = args.handler(args)
    except SystemExit as e:
        # --help prints to stdout and exits 0.
        return 2 if e.code else 0
    except FlatgeomError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    _emit({"command": args.words.replace(" ", "-"), **doc})
    return 1 if failed else 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
