"""Steadiness report: how much each end-to-end metric spreads across seeds.

    python3 perfbench/steady.py [--workloads a,b] [--first-seed N]

For each workload, one warm-up run is made and discarded, then ten runs of
BENCHMARK.json's run_seconds with seeds N..N+9 (default 1..10), one at a
time.  For every metric the report gives the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median.  A spread should stay below a third of the metric's bound in
BENCHMARK.json; the report marks each one that does not.  Raw values go
to ``.perfbench_work/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 10


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"  seed {seed}: {result['failed']} of {result['attempted']} jobs failed", file=sys.stderr)
    return result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    seconds = bench["run_seconds"]

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    raw: dict[str, dict[str, list[float]]] = {}
    for workload in args.workloads.split(","):
        run_once(workload, 0, seconds)
        values: dict[str, list[float]] = {}
        failed = attempted = 0
        for seed in range(args.first_seed, args.first_seed + REPEATS):
            result = run_once(workload, seed, seconds)
            failed += result["failed"]
            attempted += result["attempted"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        raw[workload] = values
        print(f"{workload} ({REPEATS} runs of {seconds:g} s, seeds {args.first_seed}..{args.first_seed + REPEATS - 1})")
        print(f"  {'metric':<14} {'unit':<5} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}  bound")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds[name]
            flag = "ok" if spread < bound / 3 else "WIDE"
            print(f"  {name:<14} {units[name]:<5} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.4f}  {bound:<5g} {flag}")
            print(f"    {' '.join(f'{v:.5g}' for v in vals)}")
        print(f"  {'failed_ratio':<14} {'ratio':<5} {failed / attempted:>12.5g} ({failed} of {attempted} jobs)")
    out = ROOT / ".perfbench_work" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(raw, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
