"""Run one flatgeom CLI command under the tracer.

    python perfbench/cli_shim.py STATS_PATH ARG...

behaves like ``python -m flatgeom.cli ARG...`` (same stdout, stderr and
exit code) and also writes the traced totals, with the import time, to
STATS_PATH as JSON.  The cli layer is split into parse (building the
parser and parsing argv), load (the input loaders), emit (printing the
result) and run (the rest of the command).
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    import flatgeom.cli as cli

    import_s = perf_counter() - start

    import inputs
    from tracer import Tracer

    tracer = Tracer()
    tracer.install(inputs.modules())
    tracer.patch(cli, "build_parser", tracer.timed("cli.parse", cli.build_parser))
    tracer.patch(argparse.ArgumentParser, "parse_args", tracer.timed("cli.parse", argparse.ArgumentParser.parse_args))
    for attr in ("_load_matroid", "_load_scenario", "_load_structure", "_load_effective"):
        tracer.patch(cli, attr, tracer.timed("cli.load", getattr(cli, attr)))
    tracer.patch(cli, "_emit", tracer.timed("cli.emit", cli._emit))
    run_command = tracer.timed("cli.run_command", cli.run_command)
    try:
        return run_command(argv)
    finally:
        sys.stdout.flush()
        tracer.uninstall()
        tracer.add("cli.import_s", import_s)
        with open(stats_path, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
