"""flatgeom benchmark: one closed-loop client driving one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; flatgeom is imported from its
``src`` directory.  Set-up (importing flatgeom and building every input)
is repeated and its median reported.  The client then runs whole rounds of
the seeded job stream until S seconds have passed, checking every answer
against ``golden.json`` and against independently known answers.

With ``--trace 0`` the last line of stdout is a JSON object carrying the
end-to-end metrics.  With ``--trace 1`` a fixed job list (the first rounds
of the stream) is run alternately untraced and traced until S seconds
have passed; the traced answers must equal the untraced ones, and the
object carries the per-layer metrics for one traced pass, plus the
tracing overhead.  The spans are written under ``.perfbench_work/traces``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
from itertools import islice
from pathlib import Path
from time import perf_counter

import inputs
import jobs
import speed
from tracer import PER_LAYER, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Set-up is repeated at least SETUP_REPS times, and more (at most
#: SETUP_MAX_REPS) until SETUP_BUDGET_S seconds have gone into it; the
#: median is setup_s.
SETUP_REPS = 11
SETUP_BUDGET_S = 3.0
SETUP_MAX_REPS = 31
#: A run goes on past its seconds until it has this many latencies, so
#: that ten of them lie beyond the 90th percentile.
MIN_SAMPLES = 100
#: Failed jobs described on stderr, at most.
REPORT_FAILURES = 5

END_TO_END = [
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def quantile(values: list[float], p: float) -> float:
    """The Harrell-Davis estimate of the p-quantile of ``values``.

    It is a weighted mean of every order statistic: the i-th smallest of n
    values weighs the probability that a Beta(p(n+1), (1-p)(n+1)) variate
    falls in [(i-1)/n, i/n].  Unlike a single order statistic, it does not
    jump when the quantile falls between two inputs of very different cost.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    # Simpson's rule on each slice, with 8 steps.
    steps, total, weights = 8, 0.0, 0.0
    for i, x in enumerate(xs):
        lo, h = i / n, 1 / (n * steps)
        w = sum((1 if j in (0, steps) else 4 if j % 2 else 2) * density(lo + j * h) for j in range(steps + 1))
        total += w * x
        weights += w
    return total / weights


class Outcome:
    """Answers checked so far, and the failures among them."""

    def __init__(self, golden: dict[str, str]):
        self.golden = golden
        self.attempted = 0
        self.failed = 0

    def record(self, job, result, error) -> str | None:
        """Check one answer; return its digest (None when the call raised)."""
        self.attempted += 1
        problem, got = None, None
        if error is not None:
            problem = f"raised {error!r}"
        else:
            try:
                got = jobs.digest(job.summary(result))
                want = self.golden.get(job.key)
                if want is None:
                    problem = "no golden digest for this input"
                elif got != want:
                    problem = f"digest {got} differs from golden {want}"
                elif job.check is not None:
                    problem = job.check(result)
            except Exception as e:  # an answer of the wrong shape is a wrong answer
                problem = f"answer could not be checked: {e!r}"
        if problem is not None:
            self.failed += 1
            if self.failed <= REPORT_FAILURES:
                print(f"perfbench: FAILED {job.key}: {problem}", file=sys.stderr)
        return got


def run_pass(round_list, outcome: Outcome, tracer=None, probe=None):
    """Run jobs in order; return their (key, start, end) times and answer
    digests.  With ``probe``, the machine-speed probe runs between jobs."""
    spans, digests = [], []
    for i, job in enumerate(j for rnd in round_list for j in rnd):
        if probe is not None:
            probe.tick()
        result, error = None, None
        start = perf_counter()
        try:
            result = job.call() if tracer is None else tracer.job(i, job.key, job.call)
        except Exception as e:  # a failed job is counted, the run goes on
            error = e
        spans.append((job.key, start, perf_counter()))
        digests.append(outcome.record(job, result, error))
    if probe is not None:
        probe.probe()
    return spans, digests


def setup(name: str, work: Path, build_tracer=None):
    """Import flatgeom and build the workload; return the workload and the
    module namespace."""
    fg = inputs.load_flatgeom()
    if not Path(fg.package.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: flatgeom was imported from {fg.package.__file__}, not {SRC}")
    if build_tracer is not None:
        build_tracer.install(fg)
    try:
        cls = jobs.WORKLOADS[name]
        wl = cls(fg, str(ROOT), str(work)) if cls is jobs.CliOneshot else cls(fg)
    finally:
        if build_tracer is not None:
            build_tracer.uninstall()
    return wl, fg


def measure(args, work: Path, outcome: Outcome) -> dict:
    cli = args.workload == "cli-oneshot"
    setup_speed = speed.in_process()
    setups, wl = [], None
    while len(setups) < SETUP_REPS or (
        sum(b - a for a, b in setups) < SETUP_BUDGET_S and len(setups) < SETUP_MAX_REPS
    ):
        # Free the previous set-up's inputs before timing the next one.
        wl = None
        gc.collect()
        setup_speed.probe()
        start = perf_counter()
        wl, _ = setup(args.workload, work)
        setups.append((start, perf_counter()))
    setup_speed.probe()
    # CLI commands run in child processes, so they are rescaled by a child probe.
    job_speed = speed.child_process() if cli else setup_speed
    stream = wl.rounds(random.Random(args.seed))
    spans: list[tuple[str, float, float]] = []
    rounds = 0
    start = perf_counter()
    while len(spans) < MIN_SAMPLES or perf_counter() - start < args.seconds:
        spans += run_pass([next(stream)], outcome, probe=job_speed)[0]
        rounds += 1
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    # ru_maxrss is in KiB on Linux.
    rss = resource.getrusage(who).ru_maxrss / 1024
    metrics, wall = {}, {}
    for out, factor, setup_factor in ((metrics, job_speed.scale, setup_speed.scale),
                                      (wall, lambda a, b: 1.0, lambda a, b: 1.0)):
        latencies = [(b - a) * factor(a, b) for _, a, b in spans]
        out.update({
            "jobs_per_s": (outcome.attempted - outcome.failed) / sum(latencies),
            "job_p50_ms": quantile(latencies, 0.5) * 1e3,
            "job_p90_ms": quantile(latencies, 0.9) * 1e3,
            "setup_s": statistics.median((b - a) * setup_factor(a, b) for a, b in setups),
            "peak_rss_mb": rss,
        })
    beyond = len(spans) - int(0.9 * len(spans))
    print(f"perfbench {args.workload} seed={args.seed}: {rounds} rounds, {len(spans)} jobs "
          f"on {len({key for key, _, _ in spans})} distinct inputs, "
          f"p90 from {len(spans)} samples ({beyond} beyond it), set-up x{len(setups)}; "
          f"median probe {statistics.median(job_speed.probes) * 1e3:.3f} ms "
          f"(reference {job_speed.reference * 1e3:g} ms)")
    print(f"  {'metric':<14} {'at reference':>14} {'wall clock':>14}")
    for name, unit in END_TO_END:
        print(f"  {name:<14} {metrics[name]:>14.4f} {wall[name]:>14.4f} {unit}")
    ratio = outcome.failed / outcome.attempted
    print(f"  {'failed_ratio':<14} {ratio:>14.4f} {'':>14} ratio ({outcome.failed}/{outcome.attempted})")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}


def measure_traced(args, work: Path, outcome: Outcome) -> dict:
    build = Tracer()
    wl, fg = setup(args.workload, work, build)
    tracer = Tracer()

    def fixed_rounds():
        return list(islice(wl.rounds(random.Random(args.seed)), wl.trace_rounds))

    cli = args.workload == "cli-oneshot"
    stats_dir = work / "trace-stats"
    overheads, passes = [], 0
    start = perf_counter()
    while passes == 0 or perf_counter() - start < args.seconds:
        plain, plain_digests = run_pass(fixed_rounds(), outcome)
        round_list = fixed_rounds()
        if cli:
            stats_dir.mkdir(parents=True, exist_ok=True)
            wl.trace_dir = str(stats_dir)
        tracer.install(fg)
        try:
            traced, traced_digests = run_pass(round_list, outcome, tracer)
        finally:
            tracer.uninstall()
            tracer.end_pass()
        if cli:
            wl.trace_dir = None
            for path in sorted(stats_dir.iterdir()):
                tracer.merge(json.loads(path.read_text()))
                path.unlink()
        if traced_digests != plain_digests:
            outcome.failed += 1
            print("perfbench: FAILED traced answers differ from untraced ones", file=sys.stderr)
        overheads.append(sum(b - a for _, a, b in traced) / sum(b - a for _, a, b in plain) - 1)
        passes += 1
    metrics = layer_metrics(tracer, build, passes, statistics.median(overheads))
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    with open(traces / f"{args.workload}-seed{args.seed}.json", "w") as fh:
        json.dump({"spans": tracer.spans, **tracer.dump(), "build": build.dump()}, fh)
    print(f"perfbench {args.workload} seed={args.seed} traced: {passes} passes over {len(plain)} jobs, "
          f"tracing overhead {metrics['trace.overhead_ratio']:.3f}")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "flatgeom" / "__init__.py").is_file():
        print(f"perfbench: no flatgeom sources under {SRC}", file=sys.stderr)
        return 2
    golden_path = HERE / "golden.json"
    if not golden_path.is_file():
        print(f"perfbench: missing {golden_path}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in jobs.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(jobs.WORKLOADS)}", file=sys.stderr)
        return 2
    golden = json.loads(golden_path.read_text())[args.workload]
    outcome = Outcome(golden)
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        metrics = (measure_traced if args.trace else measure)(args, work, outcome)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
