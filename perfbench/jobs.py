"""The four workloads: their inputs, their job streams and their answer checks.

A workload is a list of slots.  Each slot holds one or more variants, and
a variant yields a group of jobs that run in order.  One round takes one
variant per slot and shuffles the groups, so every round has the same mix
of job kinds while the seed picks the instances, the configurations and
the order.  A slot deals its variants from a deck that the seeded
generator shuffles and reshuffles once it is spent, so over a run every
variant comes up about equally often, whatever the seed.  Set-up builds
every variant of every slot, so set-up cost does not depend on the seed,
and the golden digests can cover every job a seed can produce.

Every job has a key naming its input, a timed ``call`` into flatgeom, an
untimed ``summary`` that reduces the result to canonical JSON (its digest
is compared with ``golden.json``), and an optional ``check`` against an
answer known independently of flatgeom.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from itertools import combinations
from typing import Any, Callable, Optional

import inputs


def canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj: Any) -> str:
    return hashlib.sha256(canonical(obj).encode()).hexdigest()[:16]


@dataclass
class Job:
    key: str
    call: Callable[[], Any]
    summary: Callable[[Any], Any]
    #: Returns a description of a wrong answer, or None.
    check: Optional[Callable[[Any], Optional[str]]] = None


#: A variant maps the round's generator to the jobs of one round; given
#: None, it returns every job it can produce, for the golden digests.
Variant = Callable[[Optional[random.Random]], list[Job]]


class Workload:
    name = ""
    #: Rounds in the fixed job list of a traced run.
    trace_rounds = 1
    slots: list[list[Variant]]

    def rounds(self, rng: random.Random):
        """The endless seeded job stream, one round (a list of jobs) at a time."""
        decks: list[list[Variant]] = [[] for _ in self.slots]
        while True:
            groups = []
            for slot, deck in zip(self.slots, decks):
                if not deck:
                    deck.extend(rng.sample(slot, len(slot)))
                groups.append(deck.pop()(rng))
            rng.shuffle(groups)
            yield [job for group in groups for job in group]

    def universe(self) -> list[Job]:
        return [job for slot in self.slots for variant in slot for job in variant(None)]


def single(job: Job) -> Variant:
    return lambda rng: [job]


# -- independent known answers ------------------------------------------------


def gf_rank(vectors, q: int) -> int:
    """Rank over GF(q) by plain row reduction, written independently of
    flatgeom's oracle."""
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] % q), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], q - 2, q)
        for i in range(len(rows)):
            if i != rank and rows[i][col] % q:
                f = rows[i][col] * inv
                rows[i] = [(a - f * b) % q for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def brute_delta(points, q: int, flats) -> tuple[int, int]:
    """(delta, dim of union) of a collection of point sets of a projective
    space, from the inclusion-exclusion definition over GF(q) spans."""
    total = 0
    for size in range(1, len(flats) + 1):
        for fam in combinations(flats, size):
            inter = set(fam[0]).intersection(*fam[1:])
            total += (-1) ** (size + 1) * gf_rank([points[p] for p in inter], q)
    union = set().union(*flats)
    return total, gf_rank([points[p] for p in union], q)


def expect(cond: bool, what: str) -> Optional[str]:
    return None if cond else what


# -- flat-search ---------------------------------------------------------------


def _verdict(v) -> dict:
    out = {"kind": v.kind, "bound": v.bound, "delta": v.delta, "union_dim": v.union_dim}
    if v.witness is not None:
        out["witness"] = [list(f.elements) for f in v.witness.flats]
    return out


class FlatSearch(Workload):
    """check_flat on freshly built matroids: cold rank caches, with delta
    and the flat/circuit enumerations doing most of the work."""

    name = "flat-search"

    def __init__(self, fg):
        self.fg = fg
        pg22, pg23 = inputs.pg(fg, 3, 2), inputs.pg(fg, 3, 3)
        pg22_points = inputs.pg_points(3, 2)

        def pg22_answer(v) -> Optional[str]:
            if v.kind != "not-flat" or v.delta != 2 or v.union_dim != 3:
                return f"PG(2,2) sigma 4 gave {v.kind} delta={v.delta} union={v.union_dim}"
            flats = [f.elements for f in v.witness.flats]
            return expect(
                len(flats) == 4 and brute_delta(pg22_points, 2, flats) == (2, 3),
                "PG(2,2) witness is not a four-flat delta 2 / union 3 collection",
            )

        def kind_is(kind):
            return lambda v: expect(v.kind == kind, f"verdict {v.kind}, expected {kind}")

        self.slots = [
            [single(self._job("PG(2,2)", pg22, 3, kind_is("flat-up-to")))],
            [single(self._job("PG(2,2)", pg22, 4, pg22_answer))],
            [single(self._job("PG(2,3)", pg23, 3, kind_is("flat-up-to")))],
            [single(self._job("PG(2,3)", pg23, 4, kind_is("not-flat")))],
            [single(self._job("three_planes", inputs.three_planes(fg), 3, kind_is("not-flat")))],
            [single(self._job("three_planes", inputs.three_planes(fg), 4, kind_is("not-flat")))],
        ]
        for n, sigma in ((4, 4), (5, 4), (6, 4), (7, 3), (8, 3)):
            m = inputs.pps_chain(fg, n)
            self.slots.append([single(self._job(f"pps_chain({n})", m, sigma, kind_is("flat-up-to")))])
        # (8,3,4) at sigma 4 and pps_chain(6) at sigma 4 are the two slowest
        # jobs of a round, and (8,3,4) costs about the same on every pool
        # member.  They are over a tenth of the jobs, so job_p90_ms falls
        # among the latencies of pps_chain(6) whichever members the seed picks.
        for size, rank, count, sigma in ((8, 3, 4, 4), (9, 3, 5, 3), (10, 3, 7, 3), (7, 4, 3, 3)):
            self.slots.append([
                single(self._job(
                    f"sparse_paving({size},{rank},{count})#{i}",
                    inputs.sparse_paving(fg, size, rank, count, i), sigma,
                ))
                for i in range(4)
            ])
        disintegrated = [("free", n, n) for n in range(8, 13)] + [("uniform", 1, n) for n in range(8, 13)]
        for sigma in (3, 4):
            self.slots.append([
                single(self._job(f"{kind}({r},{n})", inputs.uniform(fg, r, n), sigma, kind_is("disintegrated")))
                for kind, r, n in disintegrated
            ])
        self.slots.append([
            single(self._job(f"uniform({r},{n})", inputs.uniform(fg, r, n), sigma, kind_is("flat-up-to")))
            for r, n, sigma in ((2, 6, 4), (2, 7, 4), (2, 8, 3), (3, 6, 3))
        ])

    def _job(self, host: str, m, sigma: int, check=None) -> Job:
        Matroid, flatness = self.fg.matroid.Matroid, self.fg.flatness
        ground, oracle, n = m.ground, m.oracle, len(m.ground)
        return Job(
            f"check_flat/{host}/sigma={sigma}",
            lambda: flatness.check_flat(Matroid(ground, oracle), sigma, max_ground=n),
            _verdict,
            check,
        )


# -- pps-cycle -----------------------------------------------------------------


class PPSCycle(Workload):
    """Ping-pong cycle search, all-branches runs with verification, and the
    axiom check, on one Matroid per host per round: closure-heavy work on
    warm caches."""

    name = "pps-cycle"
    configs_per_job = 3
    config_pool = 12

    def __init__(self, fg):
        self.fg = fg
        non_flat = [
            ("gf2_3", fg.corpus.gf2_3(), 64),
            ("gf3_3", fg.corpus.gf3_3(), 64),
            # Every PG(2,5) line has six points, so the all-branches tree
            # has four children per step; a short budget keeps it finite.
            ("PG(2,5)", inputs.pg(fg, 3, 5), 6),
            ("PG(3,2)", inputs.pg(fg, 4, 2), 64),
        ]
        flat = [(f"pps_chain({n})", inputs.pps_chain(fg, n), 64) for n in (8, 10, 12)]
        flat += [(f"uniform({r},{n})", inputs.uniform(fg, r, n), 64) for r, n in ((4, 8), (4, 10), (5, 10))]
        self.slots = [self._host(*h, flat=False) for h in non_flat]
        self.slots += [self._host(*h, flat=True) for h in flat]
        # The cycle search costs from 16 to 370 ms across these pool members,
        # so every member runs in every round; drawing one per round would
        # make job_p90_ms depend on the draw.
        for size, count in ((10, 6), (12, 8)):
            for i in range(4):
                m = inputs.sparse_paving(fg, size, 4, count, i)
                self.slots.append(self._host(f"sparse_paving({size},4,{count})#{i}", m, 64, None))

    def _host(self, host: str, m, budget: int, flat: Optional[bool]) -> list[Variant]:
        """The host's slot: one variant per window of consecutive pool
        configs that its all-branches job runs, so the slot's deck deals
        the windows."""
        pool = inputs.pps_config_pool(self.fg, m, self.config_pool, host)
        return [
            self._window(host, m, budget, flat, [pool[(first + k) % len(pool)] for k in range(self.configs_per_job)])
            for first in range(len(pool))
        ]

    def _window(self, host: str, m, budget: int, flat: Optional[bool], configs) -> Variant:
        pp, Matroid = self.fg.pingpong, self.fg.matroid.Matroid
        ground, oracle, n = m.ground, m.oracle, len(m.ground)

        def group(rng):
            live = Matroid(ground, oracle)
            jobs = [
                Job(f"pps_find_cycle/{host}", lambda: pp.pps_find_cycle(live), _cycle, _cycle_check(flat)),
                Job(
                    f"pps_run+verify/{host}/budget={budget}/"
                    + ";".join(f"{list(c.net)},{c.a1},{c.a2},{c.t1}" for c in configs),
                    lambda: [pair for cfg in configs for pair in _run_and_verify(pp, live, cfg, budget)],
                    _runs,
                    _runs_check,
                ),
            ]
            if n <= 14:
                jobs.append(Job(
                    f"verify_pregeometry/{host}",
                    lambda: live.verify_pregeometry(max_ground=n),
                    _pregeometry,
                    lambda r: expect(r.ok, "pregeometry axioms failed"),
                ))
            return jobs

        return group


def _run_and_verify(pp, m, cfg, budget):
    runs = pp.pps_run(m, cfg, "all-branches", budget)
    return [(r, pp.pps_verify(m, r.sequence)) for r in runs]


def _cycle(res) -> dict:
    out = {"status": res.status, "configs_searched": res.configs_searched}
    if res.run is not None:
        cfg = res.run.sequence.config
        out["witness"] = [list(cfg.net), cfg.a1, cfg.a2, list(res.run.sequence.ts), res.run.repeat_index]
    return out


def _cycle_check(flat: Optional[bool]):
    def check(res) -> Optional[str]:
        if flat is None:
            return None
        if flat:
            return expect(res.status == "none", f"flat host reported {res.status}")
        return expect(
            res.status == "found" and res.run.cycle_length >= 3,
            f"non-flat host reported {res.status}",
        )

    return check


def _runs(pairs) -> list:
    return [
        [list(r.sequence.ts), r.status, r.repeat_index,
         [rep.config_valid, rep.steps_valid, rep.outside_paddle_span, rep.injective]]
        for r, rep in pairs
    ]


def _runs_check(pairs) -> Optional[str]:
    for r, rep in pairs:
        if not (rep.config_valid and rep.steps_valid):
            return f"generated run {r.sequence.ts} fails its own verification"
        if rep.injective == (r.status == "cycle"):
            return f"run {r.sequence.ts} with status {r.status} has injective={rep.injective}"
    return None


def _pregeometry(r) -> dict:
    v = r.violation
    return {
        "ok": r.ok,
        "checked": r.subsets_checked,
        "sampled": r.sampled,
        "violation": None if v is None else [v.kind, v.a, v.b, list(v.subset)],
    }


# -- staged-closure ------------------------------------------------------------


class StagedClosure(Workload):
    """The formula-closure fixpoints and the effective simulator, where the
    matroid oracle barely runs."""

    name = "staged-closure"
    trace_rounds = 3
    pool = 32

    def __init__(self, fg):
        self.fg = fg
        fc, eff = fg.formula_closure, fg.effective
        self.slots = []
        for length in (6, 9, 12, 15):
            enum = inputs.sigma1_chain(fg, length)
            self.slots.append([single(Job(
                f"acl_enumerate_via_lambda/sigma1_chain({length})",
                lambda enum=enum: fc.acl_enumerate_via_lambda(enum, (0, 1), enum.final_stage),
                lambda r: [[list(p) for p in r.emitted], r.status],
                lambda r: expect(
                    r.elements == frozenset({0, 1, 2}) and r.status == "complete",
                    f"acl emitted {sorted(r.elements)} ({r.status}), expected [0, 1, 2]",
                ),
            ))])
        for length in (8, 12, 16):
            enum = inputs.ild_pps(fg, length)
            self.slots.append([single(Job(
                f"ild_estimate/ild_pps({length})",
                lambda enum=enum: fc.ild_estimate(enum),
                lambda r: [r.value, r.certainty],
                lambda r: expect((r.value, r.certainty) == (3, "certified"), f"ild gave {r.value}/{r.certainty}"),
            ))])
        structures = [
            single(self._lambda_pairs(i, inputs.geometric_structure(fg, i))) for i in range(self.pool)
        ]
        scenarios = [
            single(self._going_down(i, inputs.going_down_scenario(fg, i))) for i in range(self.pool)
        ]
        schedules = []
        for q in (3, 5):
            m = inputs.pg(fg, 3, q)
            n = len(m.ground)
            pres = eff.StagewisePresentation(eff.RelationalStructure.of(range(n), {}), (), m)
            points = inputs.pg_points(3, q)
            for i in range(self.pool // 2):
                schedules.append(single(self._delta2(q, i, pres, points)))
        # The seven fixed acl/ild jobs are nearly half of a round, so the
        # median job is among the costliest pool members drawn, just below
        # them, not deep among the millisecond ones.
        self.slots += [structures] * 3 + [scenarios] * 3 + [schedules] * 2

    def _lambda_pairs(self, index: int, g) -> Job:
        fc = self.fg.formula_closure

        def check(results) -> Optional[str]:
            for pair, r in results:
                if r.status != "fixpoint" or not set(pair) <= r.closure:
                    return f"lambda closure of {pair} ended {r.status}"
            return None

        return Job(
            f"lambda_closure/structure#{index}/all-pairs",
            lambda: [(p, fc.lambda_closure(g, p)) for p in combinations(g.universe, 2)],
            lambda results: [[list(p), sorted(r.closure), r.status, r.fixpoint_index] for p, r in results],
            check,
        )

    def _going_down(self, index: int, scenario) -> Job:
        eff = self.fg.effective
        presentation, membership, enumeration, horizon = scenario

        def call():
            trace = eff.going_down_run(presentation, membership, enumeration, horizon)
            return trace, eff.trace_verify(trace, membership.target)

        def summary(res):
            trace, report = res
            return {
                "status": trace.status,
                "events": [[r.stage, r.event, list(r.images), r.copied, r.witness] for r in trace.records],
                "limit": list(trace.limit_map),
                "stabilization": list(trace.stabilization),
                "report": [report.stabilized, report.permanence, report.isomorphism, report.surjective],
            }

        return Job(
            f"going_down_run+trace_verify/scenario#{index}",
            call,
            summary,
            lambda res: expect(res[1].ok, f"trace_verify failed: {res[1].detail}"),
        )

    def _delta2(self, q: int, index: int, pres, points) -> Job:
        eff = self.fg.effective
        n = len(points)
        rng = random.Random(f"bbar/{q}/{index}")
        bbar = tuple(sorted(rng.sample(range(n), 2)))
        script = inputs.delay_script(index, n)

        def check(sched) -> Optional[str]:
            base = gf_rank([points[b] for b in bbar], q)
            truth = {x for x in range(n) if gf_rank([points[b] for b in bbar] + [points[x]], q) == base}
            if sched.target != truth:
                return "delta2 target is not the span of bbar"
            late = 1 + max(ev.stage for ev in sched.flips) if sched.flips else 1
            return expect(
                all(sched.member_at(x, late) == (x in truth) for x in range(n)),
                "delta2 schedule does not settle on the span",
            )

        return Job(
            f"delta2_acl_schedule/PG(2,{q})/bbar={bbar}/script#{index}",
            lambda: eff.delta2_acl_schedule(pres, bbar, script),
            lambda s: [sorted(s.target), [[e.elem, e.stage, e.value] for e in s.flips]],
            check,
        )


# -- cli-oneshot ---------------------------------------------------------------

#: Every CLI example of the README, verbatim apart from the --trace path.
README_COMMANDS = [
    "corpus list",
    "corpus check",
    "pregeom verify --matroid corpus:gf2_3",
    "flatness --matroid corpus:gf2_3 --max-sigma 4",
    "flatness --matroid corpus:uniform_2_3 --exhaustive --expect-flat",
    "circuits --matroid corpus:gf2_3 --max-size 3",
    "pps run --matroid corpus:gf2_3 --a1 3 --a2 1 --t1 0 --budget 32",
    "pps search-cycle --matroid corpus:gf3_3",
    "lambda closure --structure corpus:phi_demo --x 0,1",
    "lambda acl --scenario corpus:sigma1_chain --bbar 0,1",
    "ild --scenario corpus:ild_pps",
    "effective going-down --scenario corpus:going_down_demo --trace {work}/trace.json",
    "spectrum check --n 2 --set 1,omega",
    "spectrum cases --n 2",
]

#: Commands on files written at set-up; {name} is replaced by the file path.
FILE_COMMANDS = [
    "flatness --matroid {linear} --max-sigma 4 --max-ground 13",
    "pps search-cycle --matroid {linear}",
    "pregeom verify --matroid {uniform} --expect-pass",
    # The slowest command.  With corpus check and the PG(2,3) flatness it
    # makes the slowest eighth of a round, so job_p90_ms falls among the
    # latencies of the PG(2,3) flatness, whose input is the same in every round.
    "flatness --matroid {uniform} --max-sigma 4 --expect-flat",
    "circuits --matroid {table} --max-size 4",
    "pregeom verify --matroid {table} --expect-pass",
    "lambda acl --scenario {scenario} --bbar 0,1",
    "ild --scenario {ild}",
    "effective going-down --scenario {effective} --expect-iso",
]

MALFORMED = "flatness --matroid {malformed} --max-sigma 3"


class CliOneshot(Workload):
    """Every README command plus file-input variants, one child process at a
    time, as ``python -m flatgeom.cli``."""

    name = "cli-oneshot"
    pool = 3

    def __init__(self, fg, root: str, work: str):
        self.root = root
        self.work = work
        #: Set to a directory to run children under the tracing shim.
        self.trace_dir: Optional[str] = None
        self.calls = 0
        os.makedirs(work, exist_ok=True)
        jsonio = fg.jsonio
        files: dict[str, list[tuple[str, str]]] = {}

        def write(kind: str, label: str, doc) -> None:
            path = os.path.join(work, f"{kind}-{len(files.get(kind, []))}.json")
            with open(path, "w") as fh:
                fh.write(doc if isinstance(doc, str) else jsonio.dumps(doc))
            files.setdefault(kind, []).append((label, path))

        write("linear", "PG(2,3)", jsonio.matroid_to_json(inputs.pg(fg, 3, 3)))
        write("uniform", "uniform(3,7)", jsonio.matroid_to_json(inputs.uniform(fg, 3, 7)))
        for i in range(self.pool):
            m = inputs.sparse_paving(fg, 12, 3, 10, i)
            write("table", f"sparse_paving(12,3,10)#{i}", jsonio.matroid_to_json(m))
            write("effective", f"going_down#{i}", jsonio.effective_scenario_to_json(*inputs.going_down_scenario(fg, i)))
        for length in (8, 10, 12):
            write("scenario", f"sigma1_chain({length})", jsonio.scenario_to_json(inputs.sigma1_chain(fg, length)))
            write("ild", f"ild_pps({length})", jsonio.scenario_to_json(inputs.ild_pps(fg, length)))
        write("malformed", "malformed", '{"type": "uniform", "rank": 2,\n "size": }\n')

        self.slots = [[single(self._job(cmd, {"work": ("work", work)}))] for cmd in README_COMMANDS]
        for cmd in FILE_COMMANDS:
            kind = cmd.split("{")[1].split("}")[0]
            self.slots.append([single(self._job(cmd, {kind: f})) for f in files[kind]])
        self.slots.append([single(self._job(MALFORMED, {"malformed": files["malformed"][0]}, expect_rc=2))])

    def _job(self, template: str, fill: dict, expect_rc: int = 0) -> Job:
        argv = template.format(**{k: path for k, (_, path) in fill.items()}).split()
        key = "cli/" + template.format(**{k: f"<{label}>" for k, (label, _) in fill.items()})

        def check(res) -> Optional[str]:
            out, err, rc = res
            if rc != expect_rc:
                return f"exit {rc}, expected {expect_rc}: {err.strip()[:200]}"
            if expect_rc == 2:
                lines = err.decode().splitlines()
                return expect(
                    out == b"" and len(lines) == 1 and lines[0].startswith("error: malformed JSON"),
                    "malformed input did not give exactly one error line",
                )
            return expect(out.count(b"\n") == 1 and out.startswith(b'{"'), "stdout is not one JSON line")

        return Job(key, lambda: self._spawn(argv), lambda res: [res[0].decode(), res[2]], check)

    def _spawn(self, argv: list[str]):
        env = {k: v for k, v in os.environ.items() if k != "FLATGEOM_BUDGET"}
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "flatgeom.cli", *argv]
        else:
            self.calls += 1
            stats = os.path.join(self.trace_dir, f"{self.calls}.json")
            shim = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_shim.py")
            cmd = [sys.executable, shim, stats, *argv]
        proc = subprocess.run(cmd, cwd=self.root, env=env, capture_output=True, timeout=120)
        return proc.stdout, proc.stderr, proc.returncode


WORKLOADS = {
    w.name: w for w in (FlatSearch, PPSCycle, StagedClosure, CliOneshot)
}
