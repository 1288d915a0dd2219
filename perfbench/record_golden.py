"""Record the golden answer digests of every job any seed can produce.

    python3 perfbench/record_golden.py [WORKLOAD ...]

Runs each workload's whole job universe once and rewrites
``perfbench/golden.json`` (only the named workloads, or all of them).  The
digests pin the answers of the commit they were recorded at; record them
again only when an answer is meant to change, and say why.
"""

from __future__ import annotations

import json
import shutil
import sys

import jobs
import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    names = sys.argv[1:] or list(jobs.WORKLOADS)
    path = run.HERE / "golden.json"
    golden = json.loads(path.read_text()) if path.is_file() else {}
    work = run.WORK / "record-golden"
    try:
        for name in names:
            wl, _ = run.setup(name, work)
            table: dict[str, str] = {}
            for job in wl.universe():
                result = job.call()
                got = jobs.digest(job.summary(result))
                if table.setdefault(job.key, got) != got:
                    raise SystemExit(f"{job.key}: two different answers for one key")
                problem = job.check(result) if job.check else None
                if problem:
                    raise SystemExit(f"{job.key}: {problem}")
            golden[name] = dict(sorted(table.items()))
            print(f"{name}: {len(table)} digests")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
