"""The command-line interface: output shapes, exit codes, reproducibility."""

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
from prsampling.cnf import CnfFormula, write_dimacs
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
        assert json.loads(out)["stub_failed_as_expected"] is True

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
