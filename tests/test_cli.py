import argparse
import contextlib
import hashlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flatgeom
from flatgeom import corpus, flatness, formula_closure, jsonio, matroid, pingpong, spectrum
from flatgeom.cli import build_parser, run_command
from flatgeom.errors import FlatgeomError, MatroidContractError
from flatgeom.flatness import check_flat
from flatgeom.formula_closure import ild_estimate
from flatgeom.matroid import PRIME_TEST_BOUND, linear_matroid, uniform_matroid

#: Exact stdout and exit code of every README CLI example ("commands"), of
#: pregeom verify, flatness, circuits and pps search-cycle on every corpus
#: matroid and of ild on every corpus scenario ("members"), and the digest of
#: the going-down trace file.  Change an entry only when that command's
#: output is meant to change.
GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())

README = (Path(__file__).parent.parent / "README.md").read_text()


#: The going-down demo as a scenario document.
DEMO_EFFECTIVE = jsonio.effective_scenario_to_json(*corpus.going_down_demo())


def _flip(elem: int, stage: int, value: bool) -> dict:
    """One flip of an effective scenario document."""
    return {"elem": elem, "stage": stage, "in": value}


#: The staged scenario sigma1_chain as a document.
SIGMA1_CHAIN = jsonio.scenario_to_json(corpus.sigma1_chain())

#: The structure phi_demo as a document.
PHI_DEMO = jsonio.structure_to_json(corpus.phi_demo())

#: The uniform U(2,3) as a closure-table document; its rows are in (size,
#: lex) order, so row 0 is the empty set and row 1 is [0].
CT_U23 = jsonio.matroid_to_json(corpus.MATROIDS["ct_u23"]())


def _restated(fn, **flags) -> str:
    """``--flag value`` for each flag, its value the default of the keyword
    of ``fn`` that it names."""
    params = inspect.signature(fn).parameters
    return " ".join(f"--{flag.replace('_', '-')} {params[kw].default}" for flag, kw in flags.items())


def run(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr().out
    return code, out


def parse_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


class TestRoundTrips:
    def test_matroid_json_round_trip(self, gf2, tmp_path):
        doc = jsonio.matroid_to_json(gf2)
        again = jsonio.matroid_from_json(json.loads(jsonio.dumps(doc)))
        assert jsonio.matroid_to_json(again) == doc

    def test_linear_labels_are_ignored(self):
        doc = {"type": "linear", "field": 2, "columns": [[0, 1], [1, 0]]}
        m = jsonio.matroid_from_json({**doc, "labels": [[1], {"a": 2}, 7]})
        assert jsonio.matroid_to_json(m) == doc

    def test_closure_table_round_trip(self):
        m = corpus.MATROIDS["ct_u23"]()
        doc = jsonio.matroid_to_json(m)
        again = jsonio.matroid_from_json(doc)
        assert jsonio.matroid_to_json(again) == doc

    def test_scenario_round_trip(self):
        enum = corpus.sigma1_chain()
        doc = jsonio.scenario_to_json(enum)
        again = jsonio.scenario_from_json(json.loads(jsonio.dumps(doc)))
        assert jsonio.scenario_to_json(again) == doc

    def test_scenario_without_stages_keeps_counts_and_seeds(self):
        enum = corpus.ild_pps()
        doc = jsonio.scenario_to_json(enum)
        del doc["stages"]
        again = jsonio.scenario_from_json(doc)
        assert (again.counts, again.infinite_seeds) == (enum.counts, enum.infinite_seeds)
        assert again.stages == (enum.structure.phi,)
        assert ild_estimate(again).value == 3

    def test_effective_scenario_round_trip(self):
        pres, mem, enum, horizon = corpus.going_down_demo()
        doc = jsonio.effective_scenario_to_json(pres, mem, enum, horizon)
        loaded = jsonio.effective_scenario_from_json(json.loads(jsonio.dumps(doc)))
        assert jsonio.effective_scenario_to_json(*loaded) == doc


def _leaf_commands(parser, words=()):
    """The words of every command of ``parser`` that has no subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(words)
    for action in subs:
        for name, child in action.choices.items():
            yield from _leaf_commands(child, words + (name,))


LEAF_COMMANDS = list(_leaf_commands(build_parser()))


class TestGolden:
    @pytest.mark.parametrize("case", GOLDEN["commands"], ids=lambda c: c["argv"])
    def test_readme_command_bytes(self, case, capsys, tmp_path):
        trace = tmp_path / "out.json"
        code, out = run(capsys, *case["argv"].format(trace=trace).split())
        assert (code, out) == (case["exit"], case["stdout"])
        if "{trace}" in case["argv"]:
            digest = hashlib.sha256(trace.read_bytes()).hexdigest()
            assert digest == GOLDEN["trace_sha256"]

    @pytest.mark.parametrize("case", GOLDEN["members"], ids=lambda c: c["argv"])
    def test_corpus_member_bytes(self, case, capsys):
        code, out = run(capsys, *case["argv"].split())
        assert (code, out) == (case["exit"], case["stdout"])

    def test_readme_block_is_the_golden_commands(self):
        block = README.split("## CLI", 1)[1].split("```")[1]
        lines = [line for line in block.splitlines() if line.startswith("flatgeom ")]
        readme = [line.removeprefix("flatgeom ").replace("out.json", "{trace}") for line in lines]
        assert readme == [case["argv"] for case in GOLDEN["commands"]]

    def test_every_leaf_command_has_a_golden_case(self):
        pinned = {case["argv"] for case in GOLDEN["commands"] + GOLDEN["members"]}
        for words in LEAF_COMMANDS:
            assert any(argv.startswith(words + " ") or argv == words for argv in pinned), words

    @pytest.mark.parametrize("words", LEAF_COMMANDS)
    def test_leaf_command_help_exits_zero(self, words, capsys):
        code, out = run(capsys, *words.split(), "--help")
        assert code == 0 and out.startswith(f"usage: flatgeom {words} ")


class TestCommands:
    def test_flatness_emits_reparsable_json(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(jsonio.dumps(jsonio.matroid_to_json(corpus.gf2_3())))
        code, out = run(capsys, "flatness", "--matroid", str(path))
        assert code == 0
        (doc,) = parse_lines(out)
        assert doc["v"] == 1 and doc["verdict"] == "not-flat"
        assert doc["delta"] == 2 and doc["union_dim"] == 3

    def test_determinism(self, capsys):
        _, out1 = run(capsys, "flatness", "--matroid", "corpus:gf2_3")
        _, out2 = run(capsys, "flatness", "--matroid", "corpus:gf2_3")
        assert out1 == out2

    def test_expect_flat_sets_exit_code(self, capsys):
        code, _ = run(capsys, "flatness", "--matroid", "corpus:gf2_3", "--expect-flat")
        assert code == 1
        code, _ = run(capsys, "flatness", "--matroid", "corpus:uniform_2_3", "--expect-flat")
        assert code == 0
        code, out = run(capsys, "flatness", "--matroid", "corpus:free_3", "--expect-flat")
        assert code == 0 and parse_lines(out)[0]["verdict"] == "disintegrated"

    def test_expect_flat_rejects_sampled_verdict(self, capsys, tmp_path):
        path = tmp_path / "pg32.json"
        pg32 = linear_matroid(2, [v for v in product((0, 1), repeat=4) if any(v)])
        path.write_text(jsonio.dumps(jsonio.matroid_to_json(pg32)))
        code, out = run(
            capsys,
            "flatness", "--matroid", str(path), "--max-ground", "15",
            "--sample", "20", "--expect-flat",
        )
        (doc,) = parse_lines(out)
        assert code == 1
        assert (doc["verdict"], doc["samples"], doc["seed"]) == ("flat-sampled", 20, 0)

    def test_malformed_json_exits_two_with_position(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = run_command(["flatness", "--matroid", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "line 1" in err and "column" in err

    @pytest.mark.parametrize(
        "ground, changed, reason",
        [
            # cl {2} = {1, 2} holds 1, outside cl {} = {}, yet cl {1} = {1}
            # misses 2: exchange fails at the empty set.
            (3, {(2,): (1, 2), (0, 1): (0, 1, 2)}, "exchange at [], a=1, b=2"),
            # cl {1} = {1, 3}, yet cl {3} = {3} misses 1.
            (4, {(1,): (1, 3), (0, 1): (0, 1, 2, 3), (1, 2): (0, 1, 2, 3),
                 (1, 3): (0, 1, 2, 3), (2, 3): (1, 2, 3)}, "exchange at [], a=3, b=1"),
        ],
        ids=["meet", "join"],
    )
    def test_flatness_on_non_pregeometry_exits_two(
        self, capsys, tmp_path, ground, changed, reason
    ):
        closure = [
            {"set": list(s), "cl": list(changed.get(s, s))}
            for k in range(ground + 1)
            for s in combinations(range(ground), k)
        ]
        doc = {"type": "closure-table", "ground": ground, "closure": closure}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        fault = f"closure table is no pregeometry: {reason}"
        with pytest.raises(MatroidContractError, match=re.escape(fault)):
            check_flat(jsonio.matroid_from_json(doc))
        code = run_command(["flatness", "--matroid", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {fault}\n"

    def test_unknown_flag_exits_two(self, capsys):
        code, _ = run(capsys, "flatness", "--matroid", "corpus:gf2_3", "--bogus")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, fault",
        [
            ("flatness --matroid corpus:gf2_3 --bogus", "flatgeom: unrecognized arguments: --bogus"),
            ("lambda acl --scenario corpus:sigma1_chain --bbar -2,1",
             "flatgeom lambda acl: argument --bbar: expected one argument"),
            ("pps", "flatgeom pps: the following arguments are required: sub"),
            ("lambda closure --structure corpus:phi_demo --x 20,-2",
             "element ids [-2, 20] not in ground set"),
            ("pregeom verify --matroid corpus:gf2_3 --max-ground 2 --sample -2",
             "sample must be >= 0, got -2"),
            ("flatness --matroid corpus:gf2_3 --sample -2", "sample must be >= 0, got -2"),
            ("pregeom verify --matroid corpus:gf2_3 --max-ground -1 --sample 3",
             "max_ground must be >= 0, got -1"),
            ("flatness --matroid corpus:gf2_3 --max-ground -1", "max_ground must be >= 0, got -1"),
            ("pregeom verify --matroid corpus:gf2_3 --max-ground 2",
             "ground has 7 elements (> 2); pass sample= / --sample"),
            ("flatness --matroid corpus:gf2_3 --exhaustive",
             "16 flats -> ~43046720 subset terms exceeds work cap; pass sample= / --sample or lower the bound"),
            ("ild --scenario corpus:ild_pps --budget -2", "budget must be >= 1, got -2"),
            ("lambda acl --scenario corpus:sigma1_chain --bbar 0,1 --budget -2",
             "budget must be >= 1, got -2"),
        ],
        ids=["unknown-flag", "option-like-value", "missing-subcommand", "ids-off-universe",
             "negative-verify-sample", "negative-flatness-sample", "negative-verify-max-ground",
             "negative-flatness-max-ground", "verify-ground-too-large", "flatness-past-work-cap",
             "ild-budget-below-one",
             "acl-budget-below-one"],
    )
    def test_usage_error_exits_two_with_one_line(self, capsys, argv, fault):
        code = run_command(argv.split())
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {fault}\n"

    def test_unwritable_trace_exits_two_with_one_line(self, capsys, tmp_path):
        trace = tmp_path / "missing" / "out.json"
        code = run_command(
            ["effective", "going-down", "--scenario", "corpus:going_down_demo", "--trace", str(trace)]
        )
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        err = captured.err
        assert err.startswith(f"error: cannot write {trace}: ") and err.count("\n") == 1

    def test_pps_run_command(self, capsys):
        code, out = run(
            capsys,
            "pps", "run", "--matroid", "corpus:gf2_3",
            "--a1", "3", "--a2", "1", "--t1", "0", "--budget", "32",
        )
        assert code == 0
        (doc,) = parse_lines(out)
        assert doc["runs"][0]["ts"] == [0, 4, 6, 2, 0]
        assert doc["runs"][0]["cycle_length"] == 4

    def test_pps_search_cycle_command(self, capsys):
        code, out = run(capsys, "pps", "search-cycle", "--matroid", "corpus:gf2_3")
        (doc,) = parse_lines(out)
        assert code == 0 and doc["status"] == "found"

    def test_circuits_command(self, capsys, tmp_path):
        path = tmp_path / "u.json"
        path.write_text(jsonio.dumps(jsonio.matroid_to_json(uniform_matroid(2, 3))))
        code, out = run(capsys, "circuits", "--matroid", str(path), "--max-size", "3")
        (doc,) = parse_lines(out)
        assert doc["circuits"] == [[0, 1, 2]]

    def test_circuits_over_a_large_prime_field(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"type": "linear", "field": 2**61 - 1, "columns": [[1]]}))
        code, out = run(capsys, "circuits", "--max-size", "1", "--matroid", str(path))
        (doc,) = parse_lines(out)
        assert code == 0 and doc["circuits"] == []

    def test_lambda_closure_command(self, capsys):
        code, out = run(
            capsys, "lambda", "closure", "--structure", "corpus:phi_demo", "--x", "0,1"
        )
        (doc,) = parse_lines(out)
        assert doc["closure"] == [0, 1, 2, 3] and doc["fixpoint_index"] == 2

    def test_lambda_acl_command(self, capsys):
        code, out = run(
            capsys, "lambda", "acl", "--scenario", "corpus:sigma1_chain", "--bbar", "0,1"
        )
        (doc,) = parse_lines(out)
        assert doc["status"] == "complete"
        assert [e for e, _ in doc["emitted"]] == [0, 1, 2]

    def test_ild_command(self, capsys):
        code, out = run(capsys, "ild", "--scenario", "corpus:ild_pps")
        (doc,) = parse_lines(out)
        assert doc["value"] == 3 and doc["certainty"] == "certified"

    @pytest.mark.parametrize(
        "argv, want",
        [
            ("lambda closure --structure", {"status": "fixpoint", "fixpoint_index": 1}),
            ("ild --scenario", {"value": None, "certainty": "certified"}),
        ],
    )
    def test_default_budget_reaches_the_fixpoint_on_a_loop(self, capsys, tmp_path, argv, want):
        # Universe {0}, a loop, phi = {(0,)}: the closure of the empty set
        # grows once, so the fixpoint needs |universe| + 1 = 2 steps.
        path = tmp_path / "loop.json"
        m = {"type": "linear", "field": 2, "columns": [[0]]}
        path.write_text(json.dumps(
            {"universe": 1, "matroid": m, "phi": {"arity": 1, "tuples": [[0]]}, "K": 2}
        ))
        code, out = run(capsys, *argv.split(), str(path))
        (doc,) = parse_lines(out)
        assert code == 0 and {k: doc[k] for k in want} == want

    def test_effective_command_writes_trace(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        code, out = run(
            capsys,
            "effective", "going-down", "--scenario", "corpus:going_down_demo",
            "--trace", str(trace_path), "--expect-iso",
        )
        assert code == 0
        (doc,) = parse_lines(out)
        assert doc["verify"]["isomorphism"] and doc["verify"]["surjective"]
        trace_doc = json.loads(trace_path.read_text())
        assert trace_doc["records"][0]["stage"] == 1

    def test_spectrum_check_command(self, capsys):
        code, out = run(capsys, "spectrum", "check", "--n", "2", "--set", "2")
        (doc,) = parse_lines(out)
        assert code == 0 and doc["verdict"] == "open-unknown"

    def test_spectrum_check_omega(self, capsys):
        code, out = run(capsys, "spectrum", "check", "--n", "2", "--set", "1,omega")
        (doc,) = parse_lines(out)
        assert doc["verdict"] == "excluded" and doc["rules"] == ["omega-downward"]

    @pytest.mark.parametrize(
        "n, members, verdict, shape, rules",
        [
            ("2", "0,omega", "allowed", "[0,0]+{omega}", []),
            ("2", f"{10**18},omega", "excluded", None, ["initial-from-three", "omega-downward"]),
            ("3", f"{10**18}", "excluded", None, ["initial-segment"]),
        ],
        ids=["segment-plus-omega", "omega-gap", "not-initial"],
    )
    def test_spectrum_check_at_a_huge_horizon(self, capsys, n, members, verdict, shape, rules):
        # No set as large as the horizon is built.
        code, out = run(
            capsys, "spectrum", "check", "--n", n, "--set", members, "--horizon", str(10**18)
        )
        (doc,) = parse_lines(out)
        assert (doc["verdict"], doc["shape"], doc["rules"]) == (verdict, shape, rules)

    def test_spectrum_check_bad_member_exits_two(self, capsys):
        code = run_command(["spectrum", "check", "--n", "2", "--set", "1,foo"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: bad spectrum set '1,foo'\n"

    def test_invalid_profile_exits_two_naming_every_rule(self, capsys):
        cases = [
            (
                "--n 3 --p 1 --ild 9 --set 0",
                "p-ge-n-when-n-eq-3 (n=3 requires p >= 3, got p=1); "
                "ild-le-n-plus-1 (ild=9 exceeds n+1=4)",
            ),
            # p and ild are dimensions: a negative one is refused, not answered.
            ("--n 2 --set 1,omega --p -1", "p-ge-0 (p=-1 must be at least 0)"),
            ("--n 2 --set 1,omega --ild -4", "ild-ge-0 (ild=-4 must be at least 0)"),
            (
                "--n 3 --p -1 --ild -1 --set 0",
                "p-ge-0 (p=-1 must be at least 0); "
                "p-ge-n-when-n-eq-3 (n=3 requires p >= 3, got p=-1); "
                "ild-ge-0 (ild=-1 must be at least 0)",
            ),
        ]
        for argv, rules in cases:
            code = run_command(["spectrum", "check", *argv.split()])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == "", argv
            assert captured.err == f"error: invalid profile: {rules}\n"

    @pytest.mark.parametrize(
        "argv, doc, fault",
        [
            (
                "circuits --max-size 3 --matroid",
                {"type": "uniform", "rank": 2, "size": -1},
                "uniform size must be >= 0, got -1",
            ),
            (
                "circuits --max-size 3 --matroid",
                {
                    "type": "closure-table",
                    "ground": 2,
                    "closure": [
                        {"set": s, "cl": s} for s in ([], [1], [2], [1, 2])
                    ],
                },
                "closure table entry [2] -> [2] leaves the ground set 0..1",
            ),
            (
                "circuits --max-size 3 --matroid",
                {"type": "closure-table", "ground": -1, "closure": [{"set": [], "cl": []}]},
                "closure table ground must be >= 0, got -1",
            ),
            (
                "lambda acl --bbar 0,1 --scenario",
                {
                    **jsonio.scenario_to_json(corpus.sigma1_chain()),
                    "counts": {"5|0,3": 1},
                },
                "count override (5, (0, 3)) is not a fiber key of arity 3",
            ),
            (
                "circuits --max-size 3 --matroid",
                '{"type":"linear","field":1e400,"columns":[[1]]}',
                "bad matroid document: cannot convert float infinity to integer",
            ),
            (
                "flatness --matroid",
                '{"type":"uniform","rank":1e400,"size":3}',
                "bad matroid document: cannot convert float infinity to integer",
            ),
            (
                "circuits --max-size 3 --matroid",
                {"type": "linear", "field": 2, "columns": [[0.5]]},
                "column entry must be an integer, got 0.5",
            ),
            (
                "ild --scenario",
                {
                    **jsonio.scenario_to_json(corpus.sigma1_chain()),
                    "stages": [{"reveal": [[0, [1], 2]]}],
                },
                "reveal tuple member must be an integer, got [1]",
            ),
            (
                "circuits --max-size 1 --matroid",
                {"type": "linear", "field": (2**31 - 1) * (2**61 - 1), "columns": [[1]]},
                f"field order {(2**31 - 1) * (2**61 - 1)} is not below {PRIME_TEST_BOUND}, "
                "the bound of the primality test",
            ),
            (
                "circuits --max-size 1 --matroid",
                {"type": "linear", "field": 10**30, "columns": [[1]]},
                f"field order {10**30} is not below {PRIME_TEST_BOUND}, "
                "the bound of the primality test",
            ),
            (
                "effective going-down --scenario",
                {
                    **DEMO_EFFECTIVE,
                    "structure": {
                        **DEMO_EFFECTIVE["structure"],
                        "relations": {
                            **DEMO_EFFECTIVE["structure"]["relations"],
                            "neg": {"arity": -1, "tuples": []},
                        },
                    },
                    "signature_order": ["phi", "neg"],
                },
                "neg arity must be >= 0, got -1",
            ),
            (
                "effective going-down --scenario",
                {
                    **DEMO_EFFECTIVE,
                    "flips": [*DEMO_EFFECTIVE["flips"], {"elem": 0, "stage": 2, "in": "false"}],
                },
                "flip value must be true or false, got 'false'",
            ),
            (
                "flatness --matroid",
                {"type": "uniform", "rank": 2.7, "size": "5"},
                "rank must be an integer, got 2.7",
            ),
            (
                "flatness --matroid",
                {"type": "uniform", "rank": 2, "size": "5"},
                "size must be an integer, got '5'",
            ),
            (
                "circuits --max-size 3 --matroid",
                {"type": "closure-table", "ground": True, "closure": [{"set": [], "cl": []}]},
                "ground must be an integer, got True",
            ),
            (
                "lambda acl --bbar 0,1 --scenario",
                {**jsonio.scenario_to_json(corpus.sigma1_chain()), "K": 1.5},
                "K must be an integer, got 1.5",
            ),
            (
                "effective going-down --scenario",
                {**DEMO_EFFECTIVE, "flips": [{"elem": 2, "stage": 4.5, "in": False}]},
                "flip stage must be an integer, got 4.5",
            ),
            (
                "effective going-down --scenario",
                {**DEMO_EFFECTIVE, "horizon": "20"},
                "horizon must be an integer, got '20'",
            ),
            (
                "effective going-down --scenario",
                {**DEMO_EFFECTIVE, "A_stages": {"1": [0, 1.0], "3": [4], "4": [5]}},
                "A_stages element must be an integer, got 1.0",
            ),
            (
                "circuits --max-size 3 --matroid",
                {
                    "type": "closure-table",
                    "ground": 1,
                    "closure": [{"set": [], "cl": []}, {"set": [0.0], "cl": [0]}],
                },
                "closure table member must be an integer, got 0.0",
            ),
            (
                "circuits --max-size 3 --matroid",
                {"type": "linear", "field": 2, "columns": [[True, 0]]},
                "column entry must be an integer, got True",
            ),
            (
                "lambda closure --x 0,1 --structure",
                {
                    **jsonio.structure_to_json(corpus.phi_demo()),
                    "phi": {"arity": 3, "tuples": [[0, 1, 2.0]]},
                },
                "phi tuple member must be an integer, got 2.0",
            ),
            (
                "ild --scenario",
                {**jsonio.scenario_to_json(corpus.ild_pps()), "infinite_seeds": [[0.5]]},
                "infinite seed member must be an integer, got 0.5",
            ),
            (
                "effective going-down --scenario",
                {
                    **DEMO_EFFECTIVE,
                    "structure": {
                        **DEMO_EFFECTIVE["structure"],
                        "relations": {"phi": {"arity": 2, "tuples": [[0, True]]}},
                    },
                },
                "phi tuple member must be an integer, got True",
            ),
            (
                "ild --scenario",
                {**jsonio.scenario_to_json(corpus.sigma1_chain()), "infinite_seeds": [[99]]},
                "infinite seed [99] leaves the universe",
            ),
            (
                "lambda acl --bbar 0,1 --scenario",
                {**jsonio.scenario_to_json(corpus.sigma1_chain()), "counts": {"0|99,100": 1}},
                "count override (0, (99, 100)) leaves the universe",
            ),
            (
                "lambda acl --bbar 0,1 --scenario",
                {**jsonio.scenario_to_json(corpus.sigma1_chain()), "counts": {"0|1,1": 1}},
                "count override (0, (1, 1)) repeats an element",
            ),
            (
                "pregeom verify --matroid",
                {
                    **CT_U23,
                    "closure": [*CT_U23["closure"], {"set": [1, 0], "cl": [0, 1]}],
                },
                "closure table lists subset [0, 1] twice",
            ),
            (
                "pregeom verify --matroid",
                {
                    **CT_U23,
                    "closure": [
                        CT_U23["closure"][0], {"set": [0], "cl": [7]}, *CT_U23["closure"][1:]
                    ],
                },
                "closure table entry [0] -> [7] leaves the ground set 0..2",
            ),
            (
                "lambda acl --bbar 0,1 --scenario",
                {**jsonio.scenario_to_json(corpus.sigma1_chain()), "counts": []},
                "bad scenario document: 'list' object has no attribute 'items'",
            ),
            (
                "effective going-down --scenario",
                {
                    **DEMO_EFFECTIVE,
                    "structure": {**DEMO_EFFECTIVE["structure"], "relations": ["phi"]},
                },
                "bad relational structure: 'list' object has no attribute 'items'",
            ),
            (
                "effective going-down --scenario",
                {**DEMO_EFFECTIVE, "A_stages": [[0, 1]]},
                "bad effective scenario: 'list' object has no attribute 'items'",
            ),
            (
                "effective going-down --scenario",
                {
                    **DEMO_EFFECTIVE,
                    "structure": {
                        **DEMO_EFFECTIVE["structure"],
                        "matroid": {"type": "linear", "field": 2, "columns": [[1]]},
                    },
                },
                "universe disagrees with the matroid's ground set",
            ),
            (
                "effective going-down --scenario",
                {
                    **DEMO_EFFECTIVE,
                    "flips": [*DEMO_EFFECTIVE["flips"], {"elem": 40, "stage": 19, "in": False}],
                },
                "flip element 40 leaves the universe",
            ),
            ("effective going-down --scenario", {**DEMO_EFFECTIVE, "flips": {}},
             "flips must be a list, got {}"),
            ("effective going-down --scenario", {**DEMO_EFFECTIVE, "A": {}},
             "A must be a list, got {}"),
            (
                "ild --scenario",
                {**jsonio.scenario_to_json(corpus.sigma1_chain()), "stages": {}},
                "stages must be a list, got {}",
            ),
            (
                "ild --scenario",
                {**jsonio.scenario_to_json(corpus.sigma1_chain()), "infinite_seeds": {}},
                "infinite_seeds must be a list, got {}",
            ),
            ("flatness --matroid", {"type": "linear", "field": 2, "columns": {}},
             "columns must be a list, got {}"),
            (
                "effective going-down --scenario",
                {
                    **DEMO_EFFECTIVE,
                    "structure": {
                        **DEMO_EFFECTIVE["structure"],
                        "relations": {"phi": {"arity": 3, "tuples": {}}},
                    },
                },
                "tuples must be a list, got {}",
            ),
            ("effective going-down --scenario", {**DEMO_EFFECTIVE, "M": {}},
             "M must be a list, got {}"),
            (
                "effective going-down --scenario",
                {**DEMO_EFFECTIVE, "A_stages": {**DEMO_EFFECTIVE["A_stages"], "9": {}}},
                "expected a list of A_stages elements, got {}",
            ),
            (
                "ild --scenario",
                {
                    **SIGMA1_CHAIN,
                    "stages": [SIGMA1_CHAIN["stages"][0], {"reveal": {}}, *SIGMA1_CHAIN["stages"][1:]],
                },
                "reveal must be a list, got {}",
            ),
            (
                "ild --scenario",
                {**jsonio.scenario_to_json(corpus.ild_pps()), "infinite_seeds": [{}]},
                "expected a list of infinite seed members, got {}",
            ),
            (
                "pregeom verify --matroid",
                {**CT_U23, "closure": [{"set": {}, "cl": {}}, *CT_U23["closure"][1:]]},
                "closure table set and cl must be lists, got {}",
            ),
            (
                "effective going-down --scenario",
                {**DEMO_EFFECTIVE, "signature_order": {"phi": 1}},
                "signature_order must be a list, got {'phi': 1}",
            ),
            (
                "lambda closure --x 0,1 --structure",
                {**PHI_DEMO, "phi": {**PHI_DEMO["phi"], "tuples": {}}},
                "tuples must be a list, got {}",
            ),
            (
                "lambda closure --x 0,1 --structure",
                {**PHI_DEMO, "phi": {**PHI_DEMO["phi"], "tuples": {"0": 1}}},
                "tuples must be a list, got {'0': 1}",
            ),
            (
                "effective going-down --scenario",
                {**DEMO_EFFECTIVE, "A_stages": {"1": [0, 1], "0_3": [4], " 4": [5]}},
                "A_stages key must be written '3', got '0_3'",
            ),
            (
                "effective going-down --scenario",
                {**DEMO_EFFECTIVE, "A_stages": {"1": [0, 1], "3": [4], " 4": [5]}},
                "A_stages key must be written '4', got ' 4'",
            ),
            ("ild --scenario", {**SIGMA1_CHAIN, "counts": {"2|0,0_9": 1}},
             "bad fiber key '2|0,0_9'"),
            ("ild --scenario", {**SIGMA1_CHAIN, "counts": {"2|0, 9": 1}},
             "bad fiber key '2|0, 9'"),
            ("effective going-down --scenario", {**DEMO_EFFECTIVE, "flips": [_flip(2, 0, False)]},
             "flip stage must be >= 1, got 0"),
            (
                "effective going-down --scenario",
                {**DEMO_EFFECTIVE, "flips": [_flip(2, 5, False), _flip(2, 3, True)]},
                "element 2 flips out of order",
            ),
            ("effective going-down --scenario", {**DEMO_EFFECTIVE, "max_flips": 0},
             "element 2 exceeds its flip budget"),
            (
                "effective going-down --scenario",
                {**DEMO_EFFECTIVE, "flips": [_flip(2, 3, False), _flip(2, 5, False)]},
                "element 2 has consecutive flips to the same state",
            ),
            ("effective going-down --scenario", {**DEMO_EFFECTIVE, "flips": [_flip(2, 5, True)]},
             "element 2 does not settle on its target membership"),
            (
                "effective going-down --scenario",
                {**DEMO_EFFECTIVE, "A_stages": {**DEMO_EFFECTIVE["A_stages"], "6": [4]}},
                "an element enters A twice",
            ),
            (
                "effective going-down --scenario",
                {**DEMO_EFFECTIVE, "A_stages": {"0": [0, 1], "3": [4], "4": [5]}},
                "A stage must be >= 1, got 0",
            ),
            # Two faults: the document's own check comes before the schedules'.
            (
                "effective going-down --scenario",
                {
                    **DEMO_EFFECTIVE,
                    "flips": [_flip(2, 5, False), _flip(2, 3, True)],
                    "A": [0, 1],
                },
                "A and A_stages disagree",
            ),
            (
                "lambda closure --x 0,1 --structure",
                {
                    **jsonio.structure_to_json(corpus.phi_demo()),
                    "phi": {"arity": 4, "tuples": [[0, 1, 2], [1, 2, 3]]},
                },
                "phi tuples have arity 3, not 4",
            ),
            (
                "circuits --max-size 3 --matroid",
                {"type": "linear", "field": 2, "columns": [{}]},
                "each column must be a sequence",
            ),
        ],
        ids=[
            "negative-uniform-size",
            "table-key-off-ground",
            "negative-table-ground",
            "count-key-position",
            "overflowing-field",
            "overflowing-rank",
            "fractional-column-entry",
            "list-in-revealed-tuple",
            "composite-field-above-bound",
            "field-above-bound",
            "negative-arity",
            "string-flip-value",
            "fractional-uniform-rank",
            "string-uniform-size",
            "boolean-table-ground",
            "fractional-fiber-bound",
            "fractional-flip-stage",
            "string-horizon",
            "fractional-a-element",
            "float-in-table-set",
            "boolean-column-entry",
            "float-in-phi-tuple",
            "float-in-infinite-seed",
            "boolean-in-relation-tuple",
            "infinite-seed-off-universe",
            "count-key-off-universe",
            "count-key-repeats-an-element",
            "table-subset-twice-in-two-orders",
            "table-set-list-twice",
            "counts-not-an-object",
            "relations-not-an-object",
            "a-stages-not-an-object",
            "matroid-ground-off-universe",
            "flip-off-universe",
            "flips-not-a-list",
            "a-not-a-list",
            "stages-not-a-list",
            "infinite-seeds-not-a-list",
            "columns-not-a-list",
            "relation-tuples-not-a-list",
            "m-not-a-list",
            "a-stages-value-not-a-list",
            "reveal-not-a-list",
            "infinite-seed-not-a-list",
            "table-row-set-not-a-list",
            "signature-order-not-a-list",
            "phi-tuples-empty-object",
            "phi-tuples-object",
            "a-stages-key-with-underscore",
            "a-stages-key-with-space",
            "count-key-with-underscore",
            "count-key-with-space",
            "flip-stage-zero",
            "flips-out-of-order",
            "flip-budget",
            "flips-to-the-same-state",
            "flip-off-target-membership",
            "a-entered-twice",
            "a-stage-zero",
            "a-disagrees-before-flip-order",
            "declared-arity-not-the-tuples",
            "column-an-object",
        ],
    )
    def test_bad_input_file_exits_two_naming_the_fault(
        self, capsys, tmp_path, argv, doc, fault
    ):
        path = tmp_path / "in.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code = run_command(argv.split() + [str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {fault}\n"

    def test_spectrum_cases_command(self, capsys):
        code, out = run(capsys, "spectrum", "cases", "--n", "2")
        (doc,) = parse_lines(out)
        assert len(doc["cases"]) == 16
        kinds = [row["class"] for row in doc["cases"]]
        assert kinds.count("shape-covered") == 8
        assert kinds.count("open") == 4 and kinds.count("excluded") == 4

    def test_corpus_list_and_check(self, capsys):
        code, out = run(capsys, "corpus", "list")
        (doc,) = parse_lines(out)
        assert code == 0 and "gf2_3" in doc["members"]
        code, out = run(capsys, "corpus", "check")
        (doc,) = parse_lines(out)
        assert code == 0 and doc["ok"]

    def test_budget_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("FLATGEOM_BUDGET", "2")
        code, out = run(
            capsys,
            "pps", "run", "--matroid", "corpus:gf2_3",
            "--a1", "3", "--a2", "1", "--t1", "0",
        )
        (doc,) = parse_lines(out)
        assert doc["runs"][0]["status"] == "budget"
        assert doc["runs"][0]["ts"] == [0, 4]

    @pytest.mark.parametrize(
        "argv, owner, name, restated",
        [
            (
                "flatness --matroid corpus:gf2_3", flatness, "check_flat",
                _restated(
                    flatness.check_flat,
                    max_sigma="max_collection_size", max_ground="max_ground", seed="seed",
                ),
            ),
            (
                "pregeom verify --matroid corpus:gf2_3", matroid.Matroid, "verify_pregeometry",
                _restated(matroid.Matroid.verify_pregeometry, max_ground="max_ground", seed="seed"),
            ),
            (
                "spectrum check --n 2 --set 0,1,2,3,4,5,6,omega", spectrum.SpectrumSet, "of",
                _restated(spectrum.SpectrumSet.of, horizon="horizon"),
            ),
            (
                "pps search-cycle --matroid corpus:gf3_3", pingpong, "pps_find_cycle",
                _restated(pingpong.pps_find_cycle, budget="budget"),
            ),
            # The default budget is the scenario's final stage.
            (
                "lambda acl --scenario corpus:sigma1_chain --bbar 0,1",
                formula_closure, "acl_enumerate_via_lambda",
                f"--budget {corpus.sigma1_chain().final_stage}",
            ),
        ],
        ids=["flatness", "pregeom-verify", "spectrum-check", "pps-search-cycle", "lambda-acl"],
    )
    def test_an_unset_option_takes_the_library_default(
        self, capsys, monkeypatch, argv, owner, name, restated
    ):
        # The library function is passed no argument the user did not set,
        # and setting each option to the function's own default changes nothing.
        monkeypatch.delenv("FLATGEOM_BUDGET", raising=False)
        fn, passed = getattr(owner, name), []
        signature = inspect.signature(fn)
        with monkeypatch.context() as patch:
            patch.setattr(
                owner, name, lambda *a, **kw: passed.append(signature.bind(*a, **kw)) or fn(*a, **kw)
            )
            code, out = run(capsys, *argv.split())
        params = signature.parameters
        required = [p for p, spec in params.items() if spec.default is spec.empty]
        assert code == 0 and [list(b.arguments) for b in passed] == [required]
        assert run(capsys, *argv.split(), *restated.split()) == (code, out)

    def test_budget_flag_beats_the_environment_which_beats_the_library_default(
        self, capsys, monkeypatch
    ):
        argv = ["lambda", "closure", "--structure", "corpus:phi_demo", "--x", "0,1"]
        budgets = []
        lambda_closure = formula_closure.lambda_closure
        monkeypatch.setattr(
            formula_closure, "lambda_closure",
            lambda *a, **kw: budgets.append(kw) or lambda_closure(*a, **kw),
        )
        monkeypatch.delenv("FLATGEOM_BUDGET", raising=False)
        docs = [parse_lines(run(capsys, *argv)[1])[0]]
        monkeypatch.setenv("FLATGEOM_BUDGET", "1")
        docs.append(parse_lines(run(capsys, *argv)[1])[0])
        docs.append(parse_lines(run(capsys, *argv, "--budget", "2")[1])[0])
        assert budgets == [{}, {"budget": 1}, {"budget": 2}]
        assert [(d["status"], d["growth"]) for d in docs] == [
            ("fixpoint", [2, 3, 4]), ("diverging", [2, 3]), ("diverging", [2, 3, 4]),
        ]

    def test_budget_env_applies_to_lambda_closure_and_ild(self, capsys, monkeypatch):
        monkeypatch.setenv("FLATGEOM_BUDGET", "1")
        code, out = run(
            capsys, "lambda", "closure", "--structure", "corpus:phi_demo", "--x", "0,1"
        )
        (doc,) = parse_lines(out)
        assert doc["status"] == "diverging" and doc["growth"] == [2, 3]
        code, out = run(capsys, "ild", "--scenario", "corpus:ild_pps")
        (doc,) = parse_lines(out)
        assert doc["value"] == 2 and doc["certainty"] == "lower-bound-only"


# -- fuzzing ------------------------------------------------------------------

#: One command per corpus JSON kind, reading the file named last.
FUZZ_FILE_COMMANDS = {
    "matroid": [
        "circuits --max-size 3 --matroid",
        "flatness --matroid",
        "pregeom verify --matroid",
    ],
    "structure": ["lambda closure --x 0,1 --structure"],
    "scenario": ["ild --scenario", "lambda acl --bbar 0,1 --scenario"],
    "effective": ["effective going-down --scenario"],
}


def _corpus_documents():
    docs = [("matroid", jsonio.matroid_to_json(make())) for make in corpus.MATROIDS.values()]
    docs += [("structure", jsonio.structure_to_json(make())) for make in corpus.STRUCTURES.values()]
    docs += [("scenario", jsonio.scenario_to_json(make())) for make in corpus.SCENARIOS.values()]
    docs += [
        ("effective", jsonio.effective_scenario_to_json(*make()))
        for make in corpus.EFFECTIVE_SCENARIOS.values()
    ]
    return docs


CORPUS_DOCUMENTS = _corpus_documents()


def _leaf_paths(doc, path=()):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _leaf_paths(value, path + (i,))
    else:
        yield path


def _replace_leaf(doc, path, value):
    if not path:
        return value
    head, rest = path[0], path[1:]
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    out[head] = _replace_leaf(doc[head], rest, value)
    return out


#: Values a scalar leaf can take: small ints, floats up to overflow, short
#: strings, null and short lists, so no document asks for a large search.
FUZZ_LEAF = st.one_of(
    st.integers(-2, 20),
    st.floats(-2, 20),
    st.sampled_from([1e400, -1e400, float("nan")]),
    st.text(max_size=3),
    st.none(),
    st.lists(st.integers(-2, 20), max_size=3),
)


#: One document per reader kind, and a command that reads it.
SWEEP_DOCUMENTS = {
    "linear": ("circuits --max-size 3 --matroid", jsonio.matroid_to_json(corpus.gf2_3())),
    "uniform": ("flatness --matroid", jsonio.matroid_to_json(uniform_matroid(2, 4))),
    "closure-table": ("pregeom verify --matroid", CT_U23),
    "phi_demo": ("lambda closure --x 0,1 --structure", jsonio.structure_to_json(corpus.phi_demo())),
    "sigma1_chain": ("ild --scenario", jsonio.scenario_to_json(corpus.sigma1_chain(3))),
    "going_down_demo": ("effective going-down --scenario", DEMO_EFFECTIVE),
}

#: The reader and the writer of each sweep document.
SWEEP_CODECS = {
    "linear": (jsonio.matroid_from_json, jsonio.matroid_to_json),
    "uniform": (jsonio.matroid_from_json, jsonio.matroid_to_json),
    "closure-table": (jsonio.matroid_from_json, jsonio.matroid_to_json),
    "phi_demo": (jsonio.structure_from_json, jsonio.structure_to_json),
    "sigma1_chain": (jsonio.scenario_from_json, jsonio.scenario_to_json),
    "going_down_demo": (
        jsonio.effective_scenario_from_json,
        lambda scenario: jsonio.effective_scenario_to_json(*scenario),
    ),
}

#: Keys at which an empty list reads as the reader's stated default: a
#: scenario without stages reveals phi in one stage, and an effective
#: scenario without A takes A from A_stages.
STATED_DEFAULTS = {("stages",), ("A",)}

#: What the key sweep puts at each key: every JSON type, the integers -1
#: and 0, and containers holding a container or a string.
SWEEP_SHAPES = [[], {}, "x", 1.5, None, True, -1, 0, [[]], [{}], {"a": 1}, ["x"]]


def _key_paths(doc, path=()):
    """The path to every object member of ``doc``, inside lists too."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield path + (key,)
            yield from _key_paths(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _key_paths(value, path + (i,))


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_contained(code, err):
    assert code in (0, 1, 2)
    assert err == "" or (err.endswith("\n") and err.count("\n") == 1), err


class TestFuzz:
    """Mutated README commands and corpus files: every run ends with exit
    0, 1 or 2 and at most one stderr line, never an escaped exception."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_readme_argv_with_mutated_ints(self, data, tmp_path_factory):
        case = data.draw(st.sampled_from(GOLDEN["commands"]))
        trace = tmp_path_factory.mktemp("fuzz") / "trace.json"
        argv = []
        for token in case["argv"].split():
            if not token.startswith("corpus:"):
                token = re.sub(
                    r"\d+", lambda m: str(data.draw(st.integers(-2, 20))), token
                )
            argv.append(token.format(trace=trace))
        code, _, err = _run_in_process(argv)
        _assert_contained(code, err)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_corpus_file_with_one_leaf_replaced(self, data, tmp_path_factory):
        kind, doc = data.draw(st.sampled_from(CORPUS_DOCUMENTS))
        path = data.draw(st.sampled_from(list(_leaf_paths(doc))))
        mutated = _replace_leaf(doc, path, data.draw(FUZZ_LEAF))
        command = data.draw(st.sampled_from(FUZZ_FILE_COMMANDS[kind]))
        target = tmp_path_factory.mktemp("fuzz") / "in.json"
        target.write_text(json.dumps(mutated))
        code, _, err = _run_in_process(command.split() + [str(target)])
        _assert_contained(code, err)

    @pytest.mark.parametrize("name", list(SWEEP_DOCUMENTS))
    def test_every_key_takes_every_shape(self, name, tmp_path):
        """Every run is contained, and every document that reads is read as
        written: its writer gives it back, but where a stated default filled
        it in, and reading that again writes the same document."""
        command, doc = SWEEP_DOCUMENTS[name]
        read, write = SWEEP_CODECS[name]
        target = tmp_path / "in.json"
        escaped, misread = [], []
        for path, shape in product(_key_paths(doc), SWEEP_SHAPES):
            mutated = _replace_leaf(doc, path, shape)
            target.write_text(json.dumps(mutated))
            try:
                code, out, err = _run_in_process(command.split() + [str(target)])
            except Exception as e:
                escaped.append((path, shape, repr(e)))
                continue
            if code == 2:
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (path, shape)
            try:
                written = json.loads(jsonio.dumps(write(read(mutated))))
            except FlatgeomError:
                continue
            defaulted = path in STATED_DEFAULTS and shape == []
            again = json.loads(jsonio.dumps(write(read(written))))
            if again != written or (written != mutated and not defaulted):
                misread.append((path, shape, written))
        assert escaped == [] and misread == []



#: Runs the CLI on its argv in a fresh interpreter, then prints the flatgeom
#: modules it loaded as one JSON line after the command's own output.  With
#: no argv it only imports ``flatgeom.cli``.
IMPORT_PROBE = """
import sys
import flatgeom.cli
code = flatgeom.cli.run_command(sys.argv[1:]) if sys.argv[1:] else 0
import json
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "flatgeom")))
sys.exit(code)
"""


def _probe(*argv):
    """Exit code, stdout lines, stderr and loaded flatgeom modules of a child run."""
    src = str(Path(flatgeom.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("FLATGEOM_BUDGET", None)
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *argv], env=env, capture_output=True, text=True
    )
    *out, modules = proc.stdout.splitlines()
    return proc.returncode, out, proc.stderr, set(json.loads(modules))


BASE_MODULES = {"flatgeom", "flatgeom.cli", "flatgeom.errors", "flatgeom.jsonio"}


class TestStartup:
    """A command imports only the modules it runs."""

    def test_bare_import_loads_only_the_cli_core(self):
        assert _probe()[3] == BASE_MODULES

    def test_spectrum_check_adds_only_spectrum(self):
        code, out, _, modules = _probe("spectrum", "check", "--n", "2", "--set", "1,omega")
        assert code == 0 and len(out) == 1
        assert modules == BASE_MODULES | {"flatgeom.spectrum"}

    def test_flatness_loads_no_other_analysis(self):
        code, out, _, modules = _probe("flatness", "--matroid", "corpus:gf2_3")
        assert code == 0 and json.loads(out[0])["command"] == "flatness"
        assert {"flatgeom.flatness", "flatgeom.matroid"} <= modules
        unused = {"effective", "formula_closure", "pingpong", "spectrum"}
        assert not modules & {f"flatgeom.{name}" for name in unused}

    def test_malformed_file_still_exits_two_with_one_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"type": "uniform", "rank": 2,\n "size": }\n')
        code, out, err, _ = _probe("flatness", "--matroid", str(path), "--max-sigma", "3")
        assert code == 2 and out == []
        assert err.startswith("error: malformed JSON") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "words, text",
        [
            (
                "flatness",
                """\
usage: flatgeom flatness [-h] --matroid MATROID [--max-sigma MAX_SIGMA]
                         [--exhaustive] [--max-ground MAX_GROUND]
                         [--sample SAMPLE] [--seed SEED] [--expect-flat]

options:
  -h, --help            show this help message and exit
  --matroid MATROID     matroid JSON file or corpus:<name>
  --max-sigma MAX_SIGMA
  --exhaustive
  --max-ground MAX_GROUND
  --sample SAMPLE
  --seed SEED
  --expect-flat
""",
            ),
            (
                "spectrum check",
                """\
usage: flatgeom spectrum check [-h] --n N [--p P] [--ild ILD] [--set SET]
                               [--horizon HORIZON]

options:
  -h, --help         show this help message and exit
  --n N
  --p P
  --ild ILD
  --set SET          e.g. 0,1,omega
  --horizon HORIZON
""",
            ),
        ],
    )
    def test_help_text_is_unchanged(self, capsys, monkeypatch, words, text):
        monkeypatch.setenv("COLUMNS", "80")
        code, out = run(capsys, *words.split(), "--help")
        assert (code, out) == (0, text)
