"""Per-layer timings of flatgeom, written to a committed ``BENCH_*.json``.

    python3 bench/layers.py --out BENCH_N.json --base DIR
    python3 bench/layers.py --out BENCH_N.json --check

Run from anywhere.  The rows of the checkout DIR (label ``parent``) and of
this checkout (label ``change``) are taken in two worker processes, one
importing flatgeom from each ``src``, and the two sides are interleaved
row by row and run by run, so that a machine whose speed drifts moves
both sides of a row alike.  The input generators and the ``flat-search``
workload come from this checkout's ``perfbench/``, which this script only
reads.  Each row is one layer call on one input:

* ``flats/PG(d-1,q)``: ``Matroid.flats()`` on the projective spaces over
  GF(2), GF(3) and GF(5), up to PG(5,2), PG(4,3) and PG(3,5);
* ``is_disintegrated/...``: the free matroid U(n,n) and U(1,n), n = 8..12,
  with ``max_ground=n``;
* ``delta/PG(2,5)/lines=k``: ``delta`` of the first k lines of PG(2,5),
  in the order of ``flats()``, for k in DELTA_LINES;
* ``check_flat/...``: every job of perfbench's ``flat-search`` workload,
  keyed as there, with ``golden`` telling whether its digest is the one in
  ``perfbench/golden.json``;
* ``acl_enumerate_via_lambda/sigma1_chain(n)``, n = 6, 9, 12, 15, from the
  base (0, 1), and ``ild_estimate/ild_pps(n)``, n = 8, 12, 16, as
  perfbench's ``staged-closure`` workload calls them;
* ``going_down_run/scenario#i``: the copy construction on each of the
  ``staged-closure`` workload's 32 seeded scenarios.

A row gives the least wall time of one call over RUNS runs (``min_ms``),
each call on a freshly built ``Matroid`` so that no cache is warm (each
closure call on a freshly built ``EnumeratedStructure``, so that no stage
view is warm; its structure and matroid are shared); a run
of a call shorter than SAMPLE_S is the mean of ``calls_per_run`` calls,
the same number on both sides.  It also gives the oracle calls of one
more, counted, call (``ops``) and a digest of the answer.

With ``--check`` nothing is written: this checkout's answers are computed
once each and every digest is compared with each label in the file; the
exit code is 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

#: (d, q) of the projective spaces PG(d-1, q) whose flats are timed.
PG_SPACES = [(3, 2), (4, 2), (5, 2), (6, 2), (3, 3), (4, 3), (5, 3), (3, 5), (4, 5)]
#: Ground sizes of the disintegrated hosts.
DISINTEGRATED_SIZES = range(8, 13)
#: How many lines of PG(2,5) the delta rows take.
DELTA_LINES = (8, 12, 16)
#: Lengths of the staged scenarios whose closures are timed, as perfbench's
#: ``staged-closure`` workload builds them.
STAGED_LENGTHS = {"sigma1_chain": (6, 9, 12, 15), "ild_pps": (8, 12, 16)}
#: The ``staged-closure`` workload's seeded going-down scenarios.
GOING_DOWN_SCENARIOS = 32
#: Timed runs per row and side; the least time is kept.
RUNS = 7
#: Least length of one timing: a call shorter than this is repeated and
#: the mean taken, so that timer resolution and one-off pauses do not set
#: the minimum.
SAMPLE_S = 0.01
#: Oracle methods whose calls are counted, per oracle class.
COUNTED = {"LinearOracle": ("rank", "closure", "covers"), "UniformOracle": ("rank", "closure"),
           "ClosureTableOracle": ("rank", "closure")}


def load(src: Path):
    """flatgeom from ``src`` and perfbench's input and job modules."""
    sys.path[:0] = [str(src.resolve()), str(PERFBENCH)]
    import inputs
    import jobs
    import tracer

    fg = inputs.load_flatgeom()
    found = Path(fg.package.__file__).resolve().parent.parent
    if found != src.resolve():
        raise SystemExit(f"flatgeom was imported from {found}, not {src}")
    return fg, jobs, inputs, tracer


def cases(fg, jobs, inputs) -> dict:
    """Row key -> (call, summary of its answer), in row order."""
    Matroid, flatness = fg.matroid.Matroid, fg.flatness
    out = {}

    def fresh(m, method):
        ground, oracle = m.ground, m.oracle
        return lambda: method(Matroid(ground, oracle))

    def flats_summary(flats):
        return [[list(f.elements), f.dim] for f in flats]

    for d, q in PG_SPACES:
        out[f"flats/PG({d - 1},{q})"] = fresh(inputs.pg(fg, d, q), Matroid.flats), flats_summary
    for n in DISINTEGRATED_SIZES:
        for name, m in ((f"free({n})", inputs.uniform(fg, n, n)), (f"U(1,{n})", inputs.uniform(fg, 1, n))):
            walk = lambda h, n=n: flatness.is_disintegrated(h, max_ground=n)  # noqa: E731
            out[f"is_disintegrated/{name}"] = fresh(m, walk), lambda v: v
    plane = inputs.pg(fg, 3, 5)
    lines = [f.elements for f in plane.flats() if f.dim == 2]
    for k in DELTA_LINES:
        out[f"delta/PG(2,5)/lines={k}"] = fresh(plane, lambda h, k=k: flatness.delta(h, lines[:k])), lambda v: v
    for job in jobs.FlatSearch(fg).universe():
        out[job.key] = job.call, job.summary
    fc, eff = fg.formula_closure, fg.effective
    acl = lambda e: fc.acl_enumerate_via_lambda(e, (0, 1), e.final_stage)  # noqa: E731
    for n in STAGED_LENGTHS["sigma1_chain"]:
        out[f"acl_enumerate_via_lambda/sigma1_chain({n})"] = (
            fresh_stages(inputs.sigma1_chain(fg, n), acl), lambda r: [r.emitted, r.status])
    for n in STAGED_LENGTHS["ild_pps"]:
        out[f"ild_estimate/ild_pps({n})"] = (
            fresh_stages(inputs.ild_pps(fg, n), fc.ild_estimate), lambda r: [r.value, r.certainty])
    for i in range(GOING_DOWN_SCENARIOS):
        scenario = inputs.going_down_scenario(fg, i)
        out[f"going_down_run/scenario#{i}"] = lambda s=scenario: eff.going_down_run(*s), trace_summary
    return out


def fresh_stages(enum, method):
    """``method`` on a new copy of ``enum``, whose stage views are not yet
    built."""
    return lambda: method(dataclasses.replace(enum))


def trace_summary(trace) -> list:
    return [
        [dataclasses.astuple(r) for r in trace.records],
        [[sym, tup, value] for (sym, tup), value in trace.facts.items()],
        trace.limit_map, trace.stabilization, trace.longest_wait, trace.status, trace.stuck_stage,
    ]


def counted(fg, tracer, call):
    """``call()`` and the calls it made of every method in COUNTED, summed
    over the oracle classes."""
    ops: Counter = Counter()
    t = tracer.Tracer()
    for cls_name, methods in COUNTED.items():
        cls = getattr(fg.matroid, cls_name)
        for name in methods:
            inner = cls.__dict__[name]

            def wrapped(*args, _inner=inner, _name=name, **kwargs):
                ops[_name] += 1
                return _inner(*args, **kwargs)

            t.patch(cls, name, wrapped)
    try:
        return call(), ops
    finally:
        t.uninstall()


def serve(src: Path) -> None:
    """Answer the driver's requests, one JSON line each way:
    ``["answer", key]`` -> the digest, ops and the time of one call;
    ``["time", key, number]`` -> the mean time of ``number`` calls."""
    fg, jobs, inputs, tracer = load(src)
    table = cases(fg, jobs, inputs)
    print(json.dumps(list(table)), flush=True)
    for line in sys.stdin:
        what, key, *rest = json.loads(line)
        call, summary = table[key]
        if what == "answer":
            start = perf_counter()
            answer = jobs.digest(summary(call()))
            once = perf_counter() - start
            result, ops = counted(fg, tracer, call)
            if jobs.digest(summary(result)) != answer:
                raise SystemExit(f"{key}: the counted run gave another answer")
            reply = {"digest": answer, "ops": dict(sorted(ops.items())), "once_s": once}
            if key.startswith("flats/"):
                reply["flats"] = len(result)
        else:
            gc.collect()
            start = perf_counter()
            for _ in range(rest[0]):
                call()
            reply = {"s": (perf_counter() - start) / rest[0]}
        print(json.dumps(reply), flush=True)


class Worker:
    def __init__(self, src: Path):
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--serve", str(src)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.keys = json.loads(self.proc.stdout.readline())

    def ask(self, *request):
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"worker for {self.proc.args[-1]} stopped")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def interleaved_rows(base: Path, golden: dict) -> dict[str, list[dict]]:
    """The rows of ``base/src`` and of this checkout, one row and one run
    at a time on each side; which side goes first alternates."""
    sides = {"parent": Worker(base / "src"), "change": Worker(ROOT / "src")}
    try:
        keys = sides["change"].keys
        if sides["parent"].keys != keys:
            raise SystemExit("the two checkouts build different row keys")
        out = {label: [] for label in sides}
        order = list(sides)
        for key in keys:
            answers = {label: w.ask("answer", key) for label, w in sides.items()}
            number = max(1, int(SAMPLE_S / min(a["once_s"] for a in answers.values())))
            best = dict.fromkeys(sides, float("inf"))
            for _ in range(RUNS):
                for label in order:
                    best[label] = min(best[label], sides[label].ask("time", key, number)["s"])
                order.reverse()
            for label, a in answers.items():
                row = {"key": key, "min_ms": round(best[label] * 1e3, 4), "runs": RUNS, "calls_per_run": number,
                       "ops": a["ops"], "digest": a["digest"]}
                if "flats" in a:
                    row["flats"] = a["flats"]
                if key.startswith("check_flat/"):
                    row["golden"] = golden.get(key) == a["digest"]
                out[label].append(row)
            print(f"{key}: {best['parent'] * 1e3:.3f} -> {best['change'] * 1e3:.3f} ms", file=sys.stderr)
        return out
    finally:
        for w in sides.values():
            w.close()


def check(path: Path) -> int:
    fg, jobs, inputs, _ = load(ROOT / "src")
    digests = {key: jobs.digest(summary(call())) for key, (call, summary) in cases(fg, jobs, inputs).items()}
    bad = 0
    for label, run in json.loads(path.read_text())["runs"].items():
        stored = {r["key"]: r["digest"] for r in run["rows"]}
        for key, d in digests.items():
            if stored.get(key, d) != d:
                bad += 1
                print(f"{label}: {key} digest {d} != {stored[key]}")
        print(f"{label}: {sum(key in stored for key in digests)} digests compared")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, help="the BENCH json to write or check")
    ap.add_argument("--base", type=Path, help="checkout whose rows are stored as the parent's")
    ap.add_argument("--check", action="store_true", help="compare digests with the file; write nothing")
    ap.add_argument("--serve", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.serve:
        serve(args.serve)
        return 0
    if args.out is None or args.check == (args.base is not None):
        ap.error("give --out and one of --base and --check")
    if args.check:
        return check(args.out)
    golden = json.loads((PERFBENCH / "golden.json").read_text())["flat-search"]
    machine = {"python": platform.python_version(), "machine": f"{platform.machine()}, {os.cpu_count()} CPUs"}
    doc = {
        "about": "bench/layers.py: least wall time over the runs, cold caches, the two sides interleaved "
                 "run by run; ops from one counted run",
        "runs": {label: {**machine, "rows": rows} for label, rows in interleaved_rows(args.base, golden).items()},
    }
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"{args.out}: {len(doc['runs']['change']['rows'])} rows under 'parent' and 'change'")
    return 0


if __name__ == "__main__":
    sys.exit(main())
