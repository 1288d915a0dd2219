"""Self-tests of the benchmark's inputs, seeding, golden table and tracer.

    python3 -m pytest perfbench/tests
"""

import hashlib
import json
import random
from itertools import combinations, islice
from pathlib import Path

import pytest

import inputs
import jobs
import run
import tracer

BENCH = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
GOLDEN = json.loads((Path(run.HERE) / "golden.json").read_text())


@pytest.fixture(scope="module")
def workloads(tmp_path_factory):
    built = {}
    for name in jobs.WORKLOADS:
        wl, fg = run.setup(name, tmp_path_factory.mktemp(name))
        built[name] = (wl, fg)
    return built


def job_list_digest(wl, seed: int, rounds: int = 3) -> str:
    keys = [job.key for rnd in islice(wl.rounds(random.Random(seed)), rounds) for job in rnd]
    return hashlib.sha256("\n".join(keys).encode()).hexdigest()


@pytest.mark.parametrize("name", list(jobs.WORKLOADS))
def test_seed_fixes_the_job_list(workloads, name):
    wl, _ = workloads[name]
    assert job_list_digest(wl, 7) == job_list_digest(wl, 7)
    assert job_list_digest(wl, 7) != job_list_digest(wl, 8)


@pytest.mark.parametrize("name", list(jobs.WORKLOADS))
def test_golden_covers_exactly_the_job_universe(workloads, name):
    wl, _ = workloads[name]
    assert {job.key for job in wl.universe()} == set(GOLDEN[name])


def test_closure_table_hosts_stay_small(tmp_path, monkeypatch):
    fg = inputs.load_flatgeom()
    sizes = []
    init = fg.matroid.Matroid.__init__

    def spy(self, ground, oracle):
        if isinstance(oracle, fg.matroid.ClosureTableOracle):
            sizes.append(len(ground))
        init(self, ground, oracle)

    monkeypatch.setattr(fg.matroid.Matroid, "__init__", spy)
    for name, cls in jobs.WORKLOADS.items():
        wl = cls(fg, str(run.ROOT), str(tmp_path)) if cls is jobs.CliOneshot else cls(fg)
        next(wl.rounds(random.Random(0)))
    assert sizes and max(sizes) <= 14


def test_sparse_paving_pool_is_seeded_and_sparse():
    for size, rank, count in ((9, 3, 5), (7, 4, 3), (12, 4, 8), (12, 3, 10)):
        for index in range(4):
            rng = random.Random(f"sparse-paving/{size}/{rank}/{count}/{index}")
            nb = inputs.sparse_paving_nonbases(rng, size, rank, count)
            again = inputs.sparse_paving_nonbases(
                random.Random(f"sparse-paving/{size}/{rank}/{count}/{index}"), size, rank, count)
            assert nb == again and len(nb) == count
            assert all(len(set(a) & set(b)) <= rank - 2 for a, b in combinations(nb, 2))


@pytest.mark.parametrize("d,q", [(3, 2), (3, 3), (3, 5), (4, 2)])
def test_pg_builder(d, q):
    fg = inputs.modules()
    m = inputs.pg(fg, d, q)
    assert len(m.ground) == (q**d - 1) // (q - 1)
    assert m.full_rank == d
    assert jobs.gf_rank(inputs.pg_points(d, q), q) == d


def test_brute_force_delta_of_four_fano_lines():
    points = inputs.pg_points(3, 2)
    lines = [l for l in combinations(range(7), 3) if jobs.gf_rank([points[p] for p in l], 2) == 2]
    # Four lines, no three through one point: 8 - 6 + 0 - 0.
    four = next(c for c in combinations(lines, 4)
                if all(not set(a) & set(b) & set(c2) for a, b, c2 in combinations(c, 3)))
    assert jobs.brute_delta(points, 2, four) == (2, 3)


def test_quantile_estimates_the_percentile():
    assert run.quantile([7.5] * 9, 0.9) == pytest.approx(7.5)
    ramp = [float(i) for i in range(1, 102)]
    assert run.quantile(ramp, 0.5) == pytest.approx(51.0)
    assert run.quantile(ramp, 0.9) == pytest.approx(91.0, abs=0.5)
    # A slow minority beyond the percentile moves it.
    assert run.quantile(ramp[:-12] + [1000.0] * 12, 0.9) > run.quantile(ramp, 0.9)


def test_benchmark_json_names_what_the_runs_print():
    assert [m["name"] for m in BENCH["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == tracer.PER_LAYER
    assert [w["name"] for w in BENCH["workloads"]] == list(jobs.WORKLOADS)


def test_tracer_restores_every_binding():
    fg = inputs.modules()
    before = {mod: dict(vars(mod)) for mod in vars(fg).values()}
    classes = {cls: dict(vars(cls)) for cls in (fg.matroid.Matroid, fg.formula_closure.GeometricStructure)}
    registry = dict(fg.corpus.MATROIDS)
    t = tracer.Tracer()
    t.install(fg)
    assert fg.flatness.delta is not before[fg.flatness]["delta"]
    t.uninstall()
    for mod, attrs in before.items():
        assert all(vars(mod)[k] is v for k, v in attrs.items())
    for cls, attrs in classes.items():
        assert all(vars(cls)[k] is v for k, v in attrs.items())
    assert fg.corpus.MATROIDS == registry


def test_traced_answers_equal_untraced(workloads):
    wl, fg = workloads["staged-closure"]
    jobs_ = next(wl.rounds(random.Random(3)))
    plain = [jobs.digest(j.summary(j.call())) for j in jobs_]
    t = tracer.Tracer()
    t.install(fg)
    try:
        traced = [jobs.digest(j.summary(t.job(i, j.key, j.call))) for i, j in enumerate(jobs_)]
    finally:
        t.uninstall()
    assert traced == plain
    assert [GOLDEN["staged-closure"][j.key] for j in jobs_] == plain
