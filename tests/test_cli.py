"""The command-line interface: output shapes, exit codes, reproducibility."""

import hashlib
import importlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import MALFORMED_INSTANCE_JSON, random_cubic_graph
import prsampling
from prsampling.cli import main
from prsampling.cnf import CnfFormula, cnf_to_instance, write_dimacs
from prsampling.graphs import cycle_graph, path_graph, write_edge_list
from prsampling.model import (
    Instance,
    make_event,
    save_instance,
    uniform_variable,
)
from prsampling.verify import two_adjacent_events_instance


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.edges"
    path.write_text(write_edge_list(cycle_graph(3)))
    return str(path)


@pytest.fixture
def tree_file(tmp_path):
    path = tmp_path / "edge.edges"
    path.write_text(write_edge_list(path_graph(2)))
    return str(path)


@pytest.fixture
def chain_cnf_file(tmp_path):
    path = tmp_path / "chain.cnf"
    path.write_text(write_dimacs(CnfFormula(3, ((1, 2), (2, 3)))))
    return str(path)


@pytest.fixture
def two_events_file(tmp_path):
    path = tmp_path / "two-events.json"
    save_instance(two_adjacent_events_instance(), str(path))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def split_samples(out: str, count: int):
    """Sample lines followed by one JSON trailer."""
    lines = out.splitlines()
    return lines[:count], json.loads("\n".join(lines[count:]))


class TestSample:
    def test_instance_samples_and_trailer(self, capsys, two_events_file):
        code, out, _ = run_cli(
            capsys,
            "sample",
            "instance",
            "--file",
            two_events_file,
            "--count",
            "5",
            "--seed",
            "7",
            "--sampler",
            "extremal",
        )
        assert code == 0
        lines, trailer = split_samples(out, 5)
        assert all(line in ("2", "3") for line in lines)
        assert trailer["seed"] == 7 and trailer["count"] == 5
        assert trailer["sampler"] == "extremal_prs"
        assert trailer["mean_rounds"] >= 0.0

    @pytest.mark.parametrize("command", ["cnf", "instance"])
    def test_extremal_refusal_names_the_cli_choice(self, capsys, chain_cnf_file, tmp_path, command):
        path = chain_cnf_file
        if command == "instance":
            path = str(tmp_path / "chain.json")
            save_instance(cnf_to_instance(CnfFormula(3, ((1, 2), (2, 3)))), path)
        code, out, err = run_cli(
            capsys, "sample", command, "--file", path, "--sampler", "extremal", "--seed", "4"
        )
        assert code == 1 and out == ""
        assert err == (
            "error: instance is not extremal; --sampler extremal would be biased "
            "(use --sampler general)\n"
        )
        assert "check_extremal" not in err

    def test_seed_replay_is_byte_identical(self, capsys, chain_cnf_file):
        args = (
            "sample",
            "cnf",
            "--file",
            chain_cnf_file,
            "--count",
            "4",
            "--seed",
            "99",
        )
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_fresh_seed_is_reported_and_replayable(self, capsys, chain_cnf_file):
        code, out, _ = run_cli(
            capsys, "sample", "cnf", "--file", chain_cnf_file, "--count", "2"
        )
        assert code == 0
        _, trailer = split_samples(out, 2)
        code2, out2, _ = run_cli(
            capsys,
            "sample",
            "cnf",
            "--file",
            chain_cnf_file,
            "--count",
            "2",
            "--seed",
            str(trailer["seed"]),
        )
        assert code2 == 0 and out2 == out

    def test_cnf_literals_format(self, capsys, chain_cnf_file):
        code, out, _ = run_cli(
            capsys,
            "sample",
            "cnf",
            "--file",
            chain_cnf_file,
            "--count",
            "3",
            "--seed",
            "5",
            "--format",
            "literals",
        )
        assert code == 0
        lines, _ = split_samples(out, 3)
        assert all(re.fullmatch(r"-?1 -?2 -?3", line) for line in lines)

    def test_sink_free_triangle(self, capsys, triangle_file):
        code, out, _ = run_cli(
            capsys,
            "sample",
            "sink-free",
            "--graph",
            triangle_file,
            "--count",
            "6",
            "--seed",
            "3",
        )
        assert code == 0
        lines, trailer = split_samples(out, 6)
        assert set(lines) <= {"010", "101"}
        assert trailer["sampler"] == "sink_popping"

    def test_spanning_tree_triangle(self, capsys, triangle_file):
        code, out, _ = run_cli(
            capsys,
            "sample",
            "spanning-tree",
            "--graph",
            triangle_file,
            "--root",
            "1",
            "--count",
            "4",
            "--seed",
            "2",
        )
        assert code == 0
        lines, _ = split_samples(out, 4)
        for line in lines:
            arrows = [int(t) for t in line.split()]
            assert arrows[1] == -1 and len(arrows) == 3

    def test_hardcore(self, capsys, triangle_file):
        code, out, _ = run_cli(
            capsys,
            "sample",
            "hardcore",
            "--graph",
            triangle_file,
            "--lam",
            "1/2",
            "--count",
            "8",
            "--seed",
            "11",
        )
        assert code == 0
        lines, _ = split_samples(out, 8)
        assert all(line in ("000", "100", "010", "001") for line in lines)

    def test_lambda_spelling_matches_lam(self, capsys, triangle_file):
        argv = ["sample", "hardcore", "--graph", triangle_file,
                "--count", "6", "--seed", "11"]
        code_a, out_a, _ = run_cli(capsys, *argv, "--lam", "1/2")
        code_b, out_b, _ = run_cli(capsys, *argv, "--lambda", "1/2")
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_round_cap_exit_two(self, capsys, tree_file):
        code, _, err = run_cli(
            capsys,
            "sample",
            "sink-free",
            "--graph",
            tree_file,
            "--seed",
            "1",
            "--round-cap",
            "40",
        )
        assert code == 2
        assert "round cap exceeded" in err

    def test_missing_file_exit_one(self, capsys):
        code, _, err = run_cli(
            capsys, "sample", "cnf", "--file", "/nonexistent/x.cnf"
        )
        assert code == 1 and "error:" in err

    def test_malformed_cnf_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.cnf"
        bad.write_text("p cnf 2 1\n1 1 0\n")
        code, _, err = run_cli(capsys, "sample", "cnf", "--file", str(bad))
        assert code == 1 and "repeated" in err

    @pytest.mark.parametrize("obj,where", MALFORMED_INSTANCE_JSON)
    def test_malformed_instance_json_exit_one(self, capsys, tmp_path, obj, where):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, out, err = run_cli(capsys, "sample", "instance", "--file", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and where in err
        assert "Traceback" not in err

    def test_zero_denominator_lambda_exit_one(self, capsys, triangle_file):
        code, out, err = run_cli(
            capsys, "sample", "hardcore", "--graph", triangle_file, "--lam", "1/0"
        )
        assert code == 1 and out == ""
        assert "expected an exact rational string like '1/3', got '1/0'" in err

    @pytest.mark.parametrize("count", ["0", "-2"])
    @pytest.mark.parametrize(
        "what,option",
        [("instance", "--file"), ("sink-free", "--graph"), ("hardcore", "--graph")],
    )
    def test_count_below_one_exit_one(self, capsys, triangle_file, what, option, count):
        extra = ["--lam", "1"] if what == "hardcore" else []
        code, out, err = run_cli(
            capsys, "sample", what, option, triangle_file, *extra, "--count", count
        )
        assert code == 1 and out == ""
        assert "argument --count: must be at least 1, got %s" % count in err


class TestAnalyze:
    def test_instance_report(self, capsys, two_events_file):
        code, out, _ = run_cli(
            capsys, "analyze", "instance", "--file", two_events_file
        )
        assert code == 0
        report = json.loads(out)
        assert report["extremal"] is True
        assert report["q_empty"] == "1/2"
        assert report["expected_total"] == "1"

    def test_large_instance_guard_exit_one(self, capsys, tmp_path):
        variables = tuple(uniform_variable(v, 2) for v in range(31))
        events = tuple(make_event(i, (i,), [(0,)]) for i in range(31))
        path = tmp_path / "wide.json"
        save_instance(Instance(variables, events), str(path))
        code, _, err = run_cli(capsys, "analyze", "instance", "--file", str(path))
        assert code == 1
        assert "exceeds an exact-computation guard" in err

    def test_cnf_report(self, capsys, chain_cnf_file):
        code, out, _ = run_cli(capsys, "analyze", "cnf", "--file", chain_cnf_file)
        assert code == 0
        report = json.loads(out)
        assert report["stats"]["extremal"] is False
        assert report["stats"]["uniform_width"] == 2
        assert report["extremal_condition"] is False
        assert report["shearer"]["q_empty"] == "1/2"

    def test_graph_report(self, capsys, triangle_file):
        code, out, _ = run_cli(capsys, "analyze", "graph", "--file", triangle_file)
        assert code == 0
        report = json.loads(out)
        assert report["connected"] is True
        assert report["cycle_space_dim"] == 1
        assert report["ratio_bounds"]["sink_free"]["bound"] == 6
        assert report["shearer"]["extremal"] is True

    @pytest.mark.parametrize("root", ["5", "-1"])
    def test_graph_spanning_tree_root_out_of_range_exit_one(self, capsys, tmp_path, root):
        path = tmp_path / "path.edges"
        path.write_text(write_edge_list(path_graph(3)))
        code, out, err = run_cli(
            capsys, "analyze", "graph", "--file", str(path),
            "--app", "spanning-tree", "--root", root,
        )
        assert code == 1 and out == ""
        assert "root %s out of range" % root in err

    def test_graph_spanning_tree_encoding_over_budget_skipped(self, capsys, tmp_path):
        # The encoding of this graph trips a guard of its own (a cycle over
        # more variables than an event may read) before any analysis runs.
        path = tmp_path / "r30.edges"
        path.write_text(write_edge_list(random_cubic_graph(30, 1)))
        code, out, _ = run_cli(
            capsys, "analyze", "graph", "--file", str(path), "--app", "spanning-tree"
        )
        assert code == 0
        report = json.loads(out)
        assert report["num_vertices"] == 30
        assert report["shearer"]["skipped"].endswith("variables; cap is 24")

    def test_graph_report_at_event_cap(self, capsys, tmp_path):
        path = tmp_path / "c30.edges"
        path.write_text(write_edge_list(cycle_graph(30)))
        code, out, _ = run_cli(
            capsys, "analyze", "graph", "--file", str(path), "--app", "sink-free"
        )
        assert code == 0
        shearer = json.loads(out)["shearer"]
        assert "skipped" not in shearer
        assert shearer["num_events"] == 30
        assert shearer["q_empty"] == "1/%d" % 2 ** 29
        assert shearer["shearer_ok"] is True

    def test_graph_hardcore_report(self, capsys, triangle_file):
        code, out, _ = run_cli(
            capsys,
            "analyze",
            "graph",
            "--file",
            triangle_file,
            "--app",
            "hardcore",
            "--lam",
            "1/10",
        )
        assert code == 0
        report = json.loads(out)
        assert report["hardcore"] == {
            "lam": "1/10",
            "max_degree": 2,
            "condition_holds": True,
        }

    def test_condition_extremal_cnf(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "condition", "--kind", "extremal-cnf", "--k", "4", "--d", "2"
        )
        assert code == 0 and json.loads(out)["holds"] is True

    def test_condition_sharing(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "analyze",
            "condition",
            "--kind",
            "sharing",
            "--k",
            "20",
            "--d",
            "60",
            "--s",
            "10",
        )
        assert code == 0
        report = json.loads(out)
        assert report["holds"] is True
        assert set(report["parts"].values()) == {True}

    def test_condition_symmetric(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "analyze",
            "condition",
            "--kind",
            "symmetric",
            "--d",
            "3",
            "--p",
            "1/10",
        )
        assert code == 0
        report = json.loads(out)
        assert report["p_c"] == "4/27"
        assert report["below_threshold"] is True
        assert "coefficient" in report

    def test_condition_gprs(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "analyze",
            "condition",
            "--kind",
            "gprs",
            "--p",
            "1/1048576",
            "--r",
            "1/1024",
            "--delta",
            "120",
        )
        assert code == 0
        assert json.loads(out)["ok"] is True

    @pytest.mark.parametrize(
        "args,message",
        [
            (("symmetric", "--d", "3", "--p=-1/8"), "p = -1/8 is not a probability"),
            (("symmetric", "--d", "3", "--p", "2"), "p = 2 is not a probability"),
            (("gprs", "--p=-1/8", "--r", "1/2", "--delta", "3"), "p = -1/8 is not a probability"),
            (("gprs", "--p", "1/8", "--r", "2", "--delta", "3"), "r = 2 is not a probability"),
            (("gprs", "--p", "1/8", "--r", "1/2", "--delta", "-4"), "delta = -4 is negative"),
        ],
    )
    def test_condition_rejects_out_of_range_values(self, capsys, args, message):
        code, out, err = run_cli(capsys, "analyze", "condition", "--kind", *args)
        assert code == 1
        assert out == ""
        assert message in err

    def test_condition_missing_option_exit_one(self, capsys):
        code, _, err = run_cli(
            capsys, "analyze", "condition", "--kind", "sharing", "--k", "20"
        )
        assert code == 1
        assert "missing required option" in err and "--d" in err


class TestVerify:
    def test_uniformity_single_case(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "uniformity",
            "--case",
            "sink-c3",
            "--n",
            "4000",
            "--seed",
            "5",
        )
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["cases"][0]["case"] == "sink-c3"

    def test_uniformity_preset_alias(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "uniformity",
            "--preset",
            "p5-hardcore",
            "--n",
            "3000",
            "--seed",
            "5",
            "--tv-max",
            "0.05",
        )
        assert code == 0
        report = json.loads(out)
        assert report["cases"][0]["case"] == "hardcore-p5"

    def test_uniformity_tiny_n_fails_exit_three(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "uniformity",
            "--case",
            "tree-k4",
            "--n",
            "50",
            "--seed",
            "5",
        )
        assert code == 3
        assert json.loads(out)["passed"] is False

    def test_expected_resamples(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "expected-resamples",
            "--case",
            "two-events",
            "--n",
            "2000",
            "--seed",
            "3",
        )
        assert code == 0
        assert json.loads(out)["total"]["exact"] == "1"

    def test_first_round(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "first-round",
            "--case",
            "two-events",
            "--n",
            "5000",
            "--seed",
            "3",
        )
        assert code == 0 and json.loads(out)["passed"] is True

    def test_res_set(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "res-set", "--trials", "200", "--seed", "7"
        )
        assert code == 0 and json.loads(out)["passed"] is True

    def test_cross_order(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "cross-order", "--trials", "50", "--seed", "7"
        )
        assert code == 0 and json.loads(out)["trials"] == 50

    def test_truncated_sum(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "truncated-sum", "--case", "single", "--max-len", "8"
        )
        assert code == 0
        report = json.loads(out)
        assert report["limit"] == "2" and report["passed"] is True

    def test_negative_control(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "negative-control", "--n", "2000", "--seed", "1"
        )
        assert code == 0
        report = json.loads(out)
        assert report["stub_failed_as_expected"] is True
        assert report["exact_passed"] is True and report["exact_verdict"]["passed"] is True

    @pytest.mark.parametrize("n", ["1", "3", "10"])
    def test_negative_control_fails_below_a_usable_n(self, capsys, n):
        """At such n even the exact sampler fails the thresholds, so the
        stub failing them shows nothing, and the suite fails."""
        code, out, _ = run_cli(capsys, "verify", "negative-control", "--n", n, "--seed", "13")
        assert code == 3
        report = json.loads(out)
        assert report["stub_failed_as_expected"] is True
        assert report["exact_passed"] is False and report["passed"] is False

    @pytest.mark.parametrize(
        "suite,name",
        [
            (["res-set", "--trials", "5"], "res_set_property_tests"),
            (["negative-control", "--n", "5"], "negative_control_test"),
            (["first-round", "--n", "5"], "first_round_test"),
        ],
    )
    def test_failed_verdict_exits_three(self, capsys, monkeypatch, suite, name):
        import prsampling.cli as cli

        monkeypatch.setattr(cli, name, lambda *a, **kw: {"passed": False})
        code, out, _ = run_cli(capsys, "verify", *suite, "--seed", "4")
        assert code == 3
        assert json.loads(out)["passed"] is False


class TestExperiment:
    def test_round_scaling_with_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "scaling.csv"
        code, out, _ = run_cli(
            capsys,
            "experiment",
            "round-scaling",
            "--sizes",
            "16,32",
            "--trials",
            "2",
            "--seed",
            "9",
            "--csv",
            str(csv_path),
        )
        assert code == 0
        report = json.loads(out)
        assert [row["n"] for row in report["sizes"]] == [16, 32]
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 3 and lines[0].startswith("n,m,trials")

    def test_disjoint_paths_with_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "paths.csv"
        code, out, _ = run_cli(
            capsys,
            "experiment",
            "disjoint-paths",
            "--n",
            "8",
            "--L",
            "4",
            "--trials",
            "5",
            "--seed",
            "13",
            "--csv",
            str(csv_path),
        )
        assert code == 0
        report = json.loads(out)
        assert "endpoint_exact" in report and "rows" not in report
        assert len(csv_path.read_text().strip().splitlines()) == 6

    def test_empty_sizes_exit_one(self, capsys):
        code, _, err = run_cli(
            capsys, "experiment", "round-scaling", "--sizes", ",", "--trials", "1"
        )
        assert code == 1 and "at least one" in err

    def test_single_size_exit_one(self, capsys):
        code, out, err = run_cli(capsys, "experiment", "round-scaling", "--sizes", "10")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "two distinct sizes" in err

    @pytest.mark.parametrize(
        "sizes,degree,message",
        [
            ("10,20", "0", "degree must be >= 1, got 0"),
            ("9,11", "3", "no 3-regular graph on 9 vertices"),
            ("3,4", "3", "no 3-regular graph on 3 vertices"),
        ],
    )
    def test_round_scaling_impossible_graph_exit_one(self, capsys, sizes, degree, message):
        code, out, err = run_cli(
            capsys, "experiment", "round-scaling", "--sizes", sizes, "--degree", degree
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and message in err

    def test_round_scaling_app_flag(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "experiment",
            "round-scaling",
            "--app",
            "hardcore",
            "--lambda",
            "1/10",
            "--sizes",
            "12,16",
            "--trials",
            "1",
            "--seed",
            "2",
        )
        assert code == 0
        assert json.loads(out)["sizes"][0]["n"] == 12


class TestUsageErrors:
    def test_unknown_flag_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "verify", "res-set", "--bogus", "1")
        assert code == 1
        assert "usage" in err.lower()

    def test_unknown_subcommand_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "sample", "widgets")
        assert code == 1
        assert "invalid choice" in err

    def test_bad_choice_value_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "verify", "uniformity", "--case", "nope")
        assert code == 1
        assert "invalid choice" in err

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "usage" in out.lower()

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize(
        "argv,option",
        [
            (["verify", "uniformity"], "--n"),
            (["verify", "first-round"], "--n"),
            (["verify", "negative-control"], "--n"),
            (["experiment", "disjoint-paths", "--n", "8", "--L", "4"], "--trials"),
            (["experiment", "disjoint-paths", "--L", "4", "--trials", "1"], "--n"),
            (["verify", "res-set"], "--trials"),
            (["verify", "cross-order"], "--trials"),
            (["verify", "truncated-sum"], "--max-len"),
            (["verify", "expected-resamples"], "--n"),
            (["experiment", "round-scaling", "--sizes", "12,16"], "--trials"),
        ],
    )
    def test_run_count_below_one_exit_one(self, capsys, argv, option, value):
        code, out, err = run_cli(capsys, *argv, option, value)
        assert code == 1 and out == ""
        assert "argument %s: must be at least 1, got %s" % (option, value) in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "uniformity", "--case", "sink-c3", "--n", "50"],
            ["verify", "first-round", "--n", "50"],
            ["verify", "negative-control", "--n", "50"],
            ["experiment", "disjoint-paths", "--n", "8", "--L", "4", "--trials", "2"],
        ],
    )
    def test_seed_zero_accepted(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--seed", "0")
        assert code in (0, 3) and err == ""
        assert json.loads(out)["seed"] == 0

    @pytest.mark.parametrize("value", ["-1", "-7"])
    @pytest.mark.parametrize(
        "command",
        ["instance", "cnf", "sink-free", "spanning-tree", "hardcore", "disjoint-paths"],
    )
    def test_negative_round_cap_exit_one(
        self, capsys, two_events_file, chain_cnf_file, triangle_file, command, value
    ):
        argv = {
            "instance": ["sample", "instance", "--file", two_events_file],
            "cnf": ["sample", "cnf", "--file", chain_cnf_file],
            "sink-free": ["sample", "sink-free", "--graph", triangle_file],
            "spanning-tree": ["sample", "spanning-tree", "--graph", triangle_file],
            "hardcore": ["sample", "hardcore", "--graph", triangle_file, "--lam", "1/2"],
            "disjoint-paths": ["experiment", "disjoint-paths", "--n", "8", "--L", "4"],
        }[command]
        code, out, err = run_cli(capsys, *argv, "--round-cap", value)
        assert code == 1 and out == ""
        assert "argument --round-cap: must be at least 0, got %s" % value in err

    def test_round_cap_zero_stops_before_the_first_round(self, capsys, tree_file):
        # Every orientation of a tree has a sink, so the initial draw is bad.
        code, out, err = run_cli(
            capsys, "sample", "sink-free", "--graph", tree_file, "--round-cap", "0"
        )
        assert code == 2 and out == ""
        assert "round cap 0 reached" in err
        code, out, err = run_cli(
            capsys, "experiment", "disjoint-paths", "--n", "8", "--L", "4",
            "--lam", "1", "--trials", "5", "--seed", "3", "--round-cap", "0",
        )
        assert code == 2 and out == ""
        assert "round cap 0 reached" in err

    def test_round_cap_zero_accepts_a_valid_initial_draw(self, capsys, tmp_path):
        path = tmp_path / "never.json"
        never = Instance((uniform_variable(0, 2),), (make_event(0, [0], []),))
        save_instance(never, str(path))
        code, out, err = run_cli(
            capsys, "sample", "instance", "--file", str(path), "--count", "3",
            "--seed", "5", "--round-cap", "0",
        )
        assert code == 0 and err == ""
        samples, trailer = split_samples(out, 3)
        assert len(samples) == 3 and trailer["max_rounds"] == 0


# Input files of the frozen command lines; "{d}" in a command line stands for
# the temporary directory they are written to.
FROZEN_FILES = {
    "triangle.edges": "0 1\n1 2\n0 2\n",
    "c4.edges": "0 1\n1 2\n2 3\n0 3\n",
    "c31.edges": "".join("%d %d\n" % (v, (v + 1) % 31) for v in range(31)),
    "edge.edges": "0 1\n",
    "chain.cnf": "p cnf 3 2\n1 2 0\n2 3 0\n",
    "bad.cnf": "p cnf 2 1\n1 x 0\n",
    "two-events.json": json.dumps(
        {
            "variables": [{"id": 0, "domain": 4}],
            "events": [
                {"id": 0, "vars": [0], "violating": [[0]]},
                {"id": 1, "vars": [0], "violating": [[1]]},
            ],
        }
    ),
    "wide.json": json.dumps(
        {
            "variables": [{"id": v, "domain": 2} for v in range(31)],
            "events": [{"id": i, "vars": [i], "violating": [[0]]} for i in range(31)],
        }
    ),
    "bad.json": '{"variables": 3, "events": []}',
}

# label -> (command line, sha256 of its exit code, stdout, stderr and CSV
# file). Usage errors are left out: argparse words them differently from
# one Python version to the next, and TestUsageErrors checks them.
FROZEN_OUTPUT = {
    "sample/instance": (
        "sample instance --file {d}/two-events.json --count 3 --seed 1",
        "cdfcc98c29b2288e42ea22eae80e8f2937204c00d9421d97931f7fc2bbb180ce",
    ),
    "sample/instance-extremal": (
        "sample instance --file {d}/two-events.json --sampler extremal --count 2 --seed 2",
        "791f855c231c4f5acdba9d0535db857275f98e23c79f82dfe22646cedcc71ae7",
    ),
    "sample/instance-moser-tardos": (
        "sample instance --file {d}/two-events.json --sampler moser-tardos --count 2 --seed 3",
        "51478e471f2975c90b80281afe217fcef1cb57e1ded072496f21d2085093b3ac",
    ),
    "sample/instance-round-cap-after-some-lines": (
        "sample instance --file {d}/two-events.json --count 4 --seed 6 --round-cap 0",
        "7075a729ca2b5ee88d1f125a591a426a9146360bf165efd163f50f9dbe59b7cd",
    ),
    "sample/instance-malformed": (
        "sample instance --file {d}/bad.json",
        "e6a0b245e75286cb041d72ac1dad84e914ee3f571a102f1790ae1349bdc8f478",
    ),
    "sample/cnf-bits": (
        "sample cnf --file {d}/chain.cnf --count 3 --seed 4",
        "11054c0104eb6045ed6c71be52cd0a8132a3a63fec12eafacc1378ca2209ac07",
    ),
    "sample/cnf-literals": (
        "sample cnf --file {d}/chain.cnf --format literals --count 2 --seed 4",
        "7ecaee69dad10399d6a0d800e76c99a2502e15113a5181b36fa82ab34c4e4ec8",
    ),
    "sample/cnf-extremal-refused": (
        "sample cnf --file {d}/chain.cnf --sampler extremal --seed 4",
        "54fe44f70175301c4b9dd5b149ab1b177b5e13a0d5c1e2dfc4d7d12119834fa8",
    ),
    "sample/cnf-malformed": (
        "sample cnf --file {d}/bad.cnf",
        "73c4b610a2b77c65208dd0e8eca5892316359a98d8845e1d2729c4b6e3109ee9",
    ),
    "sample/sink-free": (
        "sample sink-free --graph {d}/triangle.edges --count 3 --seed 5",
        "5a92270b3fbf63d270374b4a9dec33b97c280c6555a48344594f0d0dd0da4169",
    ),
    "sample/sink-free-round-cap": (
        "sample sink-free --graph {d}/edge.edges --round-cap 5 --seed 6",
        "0ba37bb470352fb12842468e2d7b5180ca0589f31eb7801d5c096f42194d77a3",
    ),
    "sample/sink-free-missing-file": (
        "sample sink-free --graph {d}/missing.edges",
        "12e10faf2fc8cb1e17ea30f4ac5ab0a795444818983ce2b38e6dd073d3fd0337",
    ),
    "sample/spanning-tree": (
        "sample spanning-tree --graph {d}/c4.edges --root 1 --count 3 --seed 7",
        "89a6572ae921f03ef8071c55649ff0ae9b8e7dd03483e7922362c7d2ef76c28c",
    ),
    "sample/spanning-tree-root-out-of-range": (
        "sample spanning-tree --graph {d}/triangle.edges --root 5 --seed 7",
        "8da78dc2fbbcd2dbd55a9bb5f2d546c68f0fa29237754e08c761d16fc4018ea7",
    ),
    "sample/hardcore": (
        "sample hardcore --graph {d}/c4.edges --lam 1/2 --count 3 --seed 8",
        "a49946f0e20f19aa8da664f1a0d904080ccac7a2aaa81a60a53a607cf68c7795",
    ),
    "sample/hardcore-lambda": (
        "sample hardcore --graph {d}/c4.edges --lambda 3 --count 2 --seed 8",
        "1b5d54d8b9e42298212df2a660873a515ec745afca5cbfd44dfbd50fa062e422",
    ),
    "sample/hardcore-zero-denominator": (
        "sample hardcore --graph {d}/c4.edges --lam 1/0 --seed 8",
        "5c3b45b6842baa1093714e073542e6a9d8c7bb3b9b1ffd1a2e6c19bbf0f6a470",
    ),
    "sample/hardcore-negative": (
        "sample hardcore --graph {d}/c4.edges --lam=-1/2 --seed 8",
        "51f8ee78756d62a05d5729e0876bbce2d91e035c77a645804503a12ded02ad99",
    ),
    "analyze/instance": (
        "analyze instance --file {d}/two-events.json",
        "6353368105b2156bbbe758e84947be136a3b68913e99beda8a1663db4ef4aec0",
    ),
    "analyze/instance-over-guard": (
        "analyze instance --file {d}/wide.json",
        "0e3ddce2beac78841b9eeebe2166450a7b166fd38cadce1cff06e96be000d78f",
    ),
    "analyze/instance-malformed": (
        "analyze instance --file {d}/bad.json",
        "e6a0b245e75286cb041d72ac1dad84e914ee3f571a102f1790ae1349bdc8f478",
    ),
    "analyze/cnf": (
        "analyze cnf --file {d}/chain.cnf",
        "e3e893e932dd2eae8a3e9b678f70d4de9bb06758a5e1b1a841dcd7802a74a2f4",
    ),
    "analyze/cnf-malformed": (
        "analyze cnf --file {d}/bad.cnf",
        "73c4b610a2b77c65208dd0e8eca5892316359a98d8845e1d2729c4b6e3109ee9",
    ),
    "analyze/graph": (
        "analyze graph --file {d}/triangle.edges",
        "0509984582301ac159cb63d7211527dda9479a61f1692a534a30988016661b31",
    ),
    "analyze/graph-spanning-tree": (
        "analyze graph --file {d}/c4.edges --app spanning-tree --root 1",
        "c5f52430104002388938b07f7d72aac98c63a72137bb227f586698ffda47e8ee",
    ),
    "analyze/graph-hardcore": (
        "analyze graph --file {d}/c4.edges --app hardcore --lam 1/10",
        "6408c99657bca710e6e033e0570158b84d0eadba0c0b74d0729cddc72f51812d",
    ),
    "analyze/graph-hardcore-negative": (
        "analyze graph --file {d}/c4.edges --app hardcore --lambda=-1",
        "51f8ee78756d62a05d5729e0876bbce2d91e035c77a645804503a12ded02ad99",
    ),
    "analyze/graph-over-event-cap": (
        "analyze graph --file {d}/c31.edges",
        "cb794a45646978802bfb8cdc7d6da46611be22b203863bbc073e280b69760512",
    ),
    "analyze/graph-root-out-of-range": (
        "analyze graph --file {d}/triangle.edges --app spanning-tree --root 5",
        "8da78dc2fbbcd2dbd55a9bb5f2d546c68f0fa29237754e08c761d16fc4018ea7",
    ),
    "analyze/condition-extremal-cnf": (
        "analyze condition --kind extremal-cnf --k 4 --d 2",
        "7859e1af840c7ec7cb91ed7c54e9b741234bfa8e609b63e06e883d679e8ecd4c",
    ),
    "analyze/condition-sharing": (
        "analyze condition --kind sharing --k 20 --d 60 --s 10",
        "14fa558cf45ff14f907b0f3fc35e47b987b3550157ab77943819490b4c7ef00f",
    ),
    "analyze/condition-hardcore": (
        "analyze condition --kind hardcore --lam 1/10 --d 3",
        "44826185921e9860913c8a5ee45cc4083c61f63d6771f07817db7e7c72fe8813",
    ),
    "analyze/condition-symmetric": (
        "analyze condition --kind symmetric --d 3 --p 1/10",
        "4dbb05d2c220dd22512e18492a19fa3a2bef7bca79b0ae8095b27b8168823681",
    ),
    "analyze/condition-symmetric-no-p": (
        "analyze condition --kind symmetric --d 4",
        "544bb0a93b39c1434389b93b1de1aa5b6aac59ea1f9cf7087dff70e96f85b672",
    ),
    "analyze/condition-gprs": (
        "analyze condition --kind gprs --p 1/1048576 --r 1/1024 --delta 120",
        "e23c76c11b3b8fe6d34dae62cb113fb7a5ca2538a098e51419f71ea13af82ed6",
    ),
    "analyze/condition-missing-option": (
        "analyze condition --kind sharing --k 20",
        "2dc2db63389518c3ea8f02ea963d7e8f94fea00e59970aebfc071a91f04e685b",
    ),
    "analyze/condition-not-a-probability": (
        "analyze condition --kind gprs --p 2 --r 1/2 --delta 3",
        "53892309618c74bdfb4e324c709a86ceb2cbb0f961d4d1ace05aec2c498d2283",
    ),
    "verify/uniformity-sink-c3": (
        "verify uniformity --case sink-c3 --n 300 --seed 1",
        "8f449ac15105049e7151eb297cf82d16db2de458dd99f5571252669299f9202d",
    ),
    "verify/uniformity-sink-c4": (
        "verify uniformity --case sink-c4 --n 300 --seed 2",
        "b470a5fa895f8626336c0f5dab6a27fa5b3994f64682b0871d65448d4c849aed",
    ),
    "verify/uniformity-tree-k4": (
        "verify uniformity --case tree-k4 --n 300 --seed 3 --tv-max 0.1 --p-min 0.001",
        "bfcbd77a726f6670fe92b85a6b0650c1dece57fef7ba2b8081285ba5116ca472",
    ),
    "verify/uniformity-hardcore-p5": (
        "verify uniformity --case hardcore-p5 --n 300 --seed 4",
        "353fbb73c591e825726b6bdd7780f8eee56df5e6e7991fe6b46f1119c979f123",
    ),
    "verify/uniformity-preset-alias": (
        "verify uniformity --preset p5-hardcore --n 300 --seed 4",
        "353fbb73c591e825726b6bdd7780f8eee56df5e6e7991fe6b46f1119c979f123",
    ),
    "verify/uniformity-cnf-chain": (
        "verify uniformity --case cnf-chain --n 300 --seed 5 --tv-max 0.05 --p-min 0.01",
        "90b89e52e5e85db86e4eb63aaf3f1f8aab4dd673e2b32f94aeab285518911a6e",
    ),
    "verify/uniformity-all-fails": (
        "verify uniformity --n 20 --seed 6",
        "63a4abd28e1a68988dc32c9efb4a53c3888a8a6ae56087a1abe6e40e16765675",
    ),
    "verify/expected-resamples": (
        "verify expected-resamples --n 300 --seed 7",
        "ba76cada390e662b858c49cb9b58d068ad67dc0ad9e5d652c22af4ccf5907bd6",
    ),
    "verify/expected-resamples-sink-c3": (
        "verify expected-resamples --case sink-c3 --n 100 --seed 8",
        "120c167ae34254cf81ce2870a8ccb0fefabe18056ca14a897b92df96835d3087",
    ),
    "verify/first-round": (
        "verify first-round --n 300 --seed 9",
        "aed754551b047390b9dc19a27555ef5631cb55f0f8174e8b5de83ae6dcfa7953",
    ),
    "verify/first-round-sink-c3": (
        "verify first-round --case sink-c3 --n 100 --seed 10",
        "cb4c612dca748e8df73cb6dce5b60f94546d6fcf87e604e41fcfd2d0ce0dd1de",
    ),
    "verify/res-set": (
        "verify res-set --trials 30 --seed 11",
        "d6ddefb115a8e3dbdd5aae9236bcf34a2cc59edb4dac5a609e1ac6211445faf4",
    ),
    "verify/cross-order": (
        "verify cross-order --trials 30 --seed 12",
        "5eff0779cc4afb2bbf9e7b02a845f5b21a2e68874bc7b02b3ff7552d69e7ee00",
    ),
    "verify/truncated-sum-single": (
        "verify truncated-sum --case single --max-len 6",
        "790ccd1a1c491e94020407cc8e6ef45ba4ced9faeddcdabc4323785db02ab1d5",
    ),
    "verify/truncated-sum": (
        "verify truncated-sum",
        "e2fc714de823c8b4ff49560e535a216a4150be7c4278f9b5ea93950c638691ff",
    ),
    "verify/negative-control": (
        "verify negative-control --n 300 --seed 13",
        "b997521d75796250a23f5d47004d1a5dcc5bf443b2aa6327ced7a6fc4443378f",
    ),
    "experiment/round-scaling": (
        "experiment round-scaling --sizes 12,16 --trials 2 --seed 14 --csv {d}/scaling.csv",
        "8d6b6369748f1951b9dbf80208780bb8bd727d66ced80bf2746ad40bf57a6953",
    ),
    "experiment/round-scaling-one-size": (
        "experiment round-scaling --sizes 10",
        "960e0e93fc787cc9bb49dbb848669ced84dee85c2d1b4817a27cefad83a62f30",
    ),
    "experiment/round-scaling-no-size": (
        "experiment round-scaling --sizes , --trials 1",
        "4cbc6f64c666f978bd18594751795061a492b44f7ee3ec813b7fc3fe74a187d7",
    ),
    "experiment/round-scaling-degree-zero": (
        "experiment round-scaling --sizes 10,20 --degree 0",
        "40cd5007b6ac8748c423afce15380b1da9a01d844d9f50e4f10d29a0dc1d87f0",
    ),
    "experiment/round-scaling-csv-unwritable": (
        "experiment round-scaling --sizes 12,16 --trials 1 --seed 14 --csv {d}/no/dir.csv",
        "9808506aa97a0fa811c19c48d2ace884f06de3b1a36bcf72ecc0a0185e1e7836",
    ),
    "experiment/disjoint-paths": (
        "experiment disjoint-paths --n 8 --L 4 --lam 1/2 --trials 3 --seed 15 --csv {d}/paths.csv",
        "a2b92c7466aeed29ca980da32d7bbf99cb5018847d19916d67c7936d88e565db",
    ),
    "experiment/disjoint-paths-short": (
        "experiment disjoint-paths --n 6 --L 3 --trials 2 --seed 16",
        "974123d97c1c0a9ff92d04e846b214376d089c4e487dafddcad60f90c3563858",
    ),
    "experiment/disjoint-paths-indivisible": (
        "experiment disjoint-paths --n 8 --L 3 --seed 16",
        "31f602722707a6a3ba1eeea9cf2b8e104af8c2aba98ff289cfc20a5fa89f990a",
    ),
    "experiment/disjoint-paths-round-cap": (
        "experiment disjoint-paths --n 8 --L 4 --trials 5 --seed 3 --round-cap 0",
        "67c64731eb3d851713eabec36ed6ac9c69e1ba19522b4e806e7e7208b4a90918",
    ),
}


def frozen_digest(capsys, directory, label):
    """sha256 of what one frozen command line does, with ``directory`` as "<tmp>"."""
    for name, text in FROZEN_FILES.items():
        (directory / name).write_text(text)
    argv = [token.format(d=directory) for token in FROZEN_OUTPUT[label][0].split()]
    code = main(argv)
    captured = capsys.readouterr()
    csv_text = None
    if "--csv" in argv:
        path = Path(argv[argv.index("--csv") + 1])
        csv_text = path.read_text() if path.exists() else None
    record = json.dumps([code, captured.out, captured.err, csv_text])
    return hashlib.sha256(record.replace(str(directory), "<tmp>").encode()).hexdigest()


class TestFrozenOutput:
    """Every subcommand's output, byte for byte: valid inputs, input errors
    (exit 1), the round cap (exit 2) and failed verdicts (exit 3)."""

    @pytest.mark.parametrize("label", sorted(FROZEN_OUTPUT))
    def test_output_unchanged(self, capsys, tmp_path, label):
        assert frozen_digest(capsys, tmp_path, label) == FROZEN_OUTPUT[label][1]


CONDITION_ARGS = ["analyze", "condition", "--kind", "extremal-cnf", "--k", "3", "--d", "2"]


def _assert_reports_holds_false(proc):
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["holds"] is False, proc.stderr


def _run_python(args, cwd):
    """Run a fresh interpreter that imports prsampling from the tree under test.

    The tree under test goes first on the child's path, so neither the
    working directory nor another installed copy decides what runs.
    """
    package_root = str(Path(prsampling.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        package_root + os.pathsep + inherited if inherited else package_root
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=cwd, env=env
    )


def _run_module(args, cwd):
    """Run ``python -m prsampling``, the console script without installing."""
    return _run_python(["-m", "prsampling", *args], cwd)


class TestEntryPoint:
    def test_installed_script(self, tmp_path):
        _assert_reports_holds_false(_run_module(CONDITION_ARGS, tmp_path))

    def test_module_usage_error(self, tmp_path):
        proc = _run_module([], tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("usage: prsampling ")

    def test_import_loads_no_heavy_dependency(self, tmp_path):
        proc = _run_python(
            [
                "-c",
                "import sys, prsampling, prsampling.cli; "
                "print(sorted(set(sys.modules) & {'scipy', 'numpy', 'networkx', 'mpmath'}))",
            ],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_graph_work_loads_no_heavy_dependency(self, tmp_path):
        proc = _run_python(
            [
                "-c",
                "import sys\n"
                "from prsampling.graph_apps import encode_spanning_tree\n"
                "from prsampling.graphs import make_graph, random_regular_graph\n"
                "from prsampling.verify import chi2_sf\n"
                "petersen = make_graph(10, [(i, (i + 1) % 5) for i in range(5)]"
                " + [(i, i + 5) for i in range(5)]"
                " + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])\n"
                "assert len(encode_spanning_tree(petersen, 0).events) > 15\n"
                "assert random_regular_graph(3, 16, 5).num_edges == 24\n"
                "assert 0 < chi2_sf(3.7, 3) < 1\n"
                "print(sorted(set(sys.modules) & {'scipy', 'numpy', 'networkx', 'mpmath'}))",
            ],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_sharing_condition_loads_no_heavy_dependency(self, tmp_path):
        proc = _run_python(
            [
                "-c",
                "import sys\n"
                "from prsampling.cnf import sharing_condition_parts\n"
                "assert all(sharing_condition_parts(20, 60, 10).values())\n"
                "print(sorted(set(sys.modules) & {'scipy', 'numpy', 'networkx', 'mpmath'}))",
            ],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_runtime_dependencies_exclude_networkx(self):
        # The package has no runtime dependencies at all.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).parents[1] / "pyproject.toml"
        with pyproject.open("rb") as handle:
            dependencies = tomllib.load(handle)["project"]["dependencies"]
        assert dependencies == []

    def test_console_script_declaration(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).parents[1] / "pyproject.toml"
        with pyproject.open("rb") as handle:
            target = tomllib.load(handle)["project"]["scripts"]["prsampling"]
        module_name, _, attr = target.partition(":")
        assert getattr(importlib.import_module(module_name), attr) is main

    @pytest.mark.skipif(
        shutil.which("prsampling") is None,
        reason="the prsampling console script is not installed",
    )
    def test_console_script_on_path(self, tmp_path):
        proc = subprocess.run(
            [shutil.which("prsampling"), *CONDITION_ARGS],
            capture_output=True,
            text=True,
            cwd=tmp_path,
        )
        _assert_reports_holds_false(proc)
