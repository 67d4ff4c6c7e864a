"""Command-line interface: formats, subcommands, exit codes."""

import gc
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from zerohalf.cli import (
    FileFormatError,
    fmt_frac,
    format_graph,
    format_instance,
    format_point,
    parse_graph,
    parse_instance,
    parse_point,
    run_command,
)
from zerohalf.generate import gen_primal_case
from zerohalf.matching import WeightedGraph

from conftest import triangle_instance

K3_FILE = """\
# complete graph on three nodes, one row per node
ROWS 3
COLS 3
A
1 1 0
1 0 1
0 1 1
B
1 1 1
LOWER
1 1 1
UPPER
1 1 1
OBJ
1 1 1
END
"""


@pytest.fixture
def k3_paths(tmp_path):
    inst = tmp_path / "k3.inst"
    inst.write_text(K3_FILE)
    xhat = tmp_path / "k3.xhat"
    xhat.write_text("1 0 0\n")
    xstar = tmp_path / "k3.xstar"
    xstar.write_text("1/2 1/2 1/2\n")
    return str(inst), str(xhat), str(xstar)


class TestFormats:
    def test_fraction_rendering(self):
        assert fmt_frac(Fraction(3, 4)) == "3/4"
        assert fmt_frac(Fraction(8, 4)) == "2"
        assert fmt_frac(Fraction(-1, 2)) == "-1/2"

    def test_fraction_rendering_of_other_types(self):
        class Sub(Fraction):
            def __str__(self):
                return "sub"

        assert fmt_frac(7) == "7" and fmt_frac(-3) == "-3"
        assert fmt_frac("6/4") == "3/2"
        assert fmt_frac(True) == "1"
        assert fmt_frac(Sub(3, 4)) == "3/4"

    def test_instance_round_trip(self):
        inst = triangle_instance(objective=(1, 1, 1))
        assert parse_instance(format_instance(inst)) == inst

    def test_random_instance_round_trips(self):
        rng = random.Random(20260822)
        for _ in range(10):
            inst = gen_primal_case(rng).instance
            assert parse_instance(format_instance(inst)) == inst

    def test_point_round_trip(self):
        pt = (Fraction(1, 2), Fraction(-3), Fraction(7, 3))
        assert parse_point(format_point(pt), 3) == pt

    def test_graph_round_trip(self):
        g = WeightedGraph(4, ((0, 1, 5), (2, 3, 0)))
        assert parse_graph(format_graph(g)) == g

    def test_k3_file_parses(self):
        inst = parse_instance(K3_FILE)
        assert inst == triangle_instance(objective=(1, 1, 1))

    def test_extra_matrix_line_names_the_line(self):
        bad = "ROWS 1\nCOLS 2\nA\n1 1\n2 2\nB\n1\nLOWER\n1 1\nUPPER\n1 1\nEND\n"
        with pytest.raises(FileFormatError) as err:
            parse_instance(bad)
        assert "line 5" in str(err.value)

    def test_bad_flag_reported(self):
        bad = K3_FILE.replace("LOWER\n1 1 1", "LOWER\n1 2 1")
        with pytest.raises(FileFormatError, match="0 or 1"):
            parse_instance(bad)

    def test_truncated_file(self):
        with pytest.raises(FileFormatError, match="end of file"):
            parse_instance("ROWS 1\nCOLS 1\nA\n1\n")

    def test_graph_endpoints_are_one_indexed(self):
        with pytest.raises(FileFormatError, match="1..2"):
            parse_graph("NODES 2\nEDGES 1\n0 1 4\n")

    @pytest.mark.parametrize("text, message", [
        ("NODES 3\nEDGES 1\n1 1 3\n", "edge 1: loop at node 1"),
        ("NODES 3\nEDGES 3\n1 2 4\n2 3 1\n2 1 5\n", "edge 3: 2 1 repeats edge 1"),
    ])
    def test_graph_errors_name_the_edge_and_its_file_endpoints(self, text, message, tmp_path,
                                                               capsys):
        with pytest.raises(FileFormatError, match=message):
            parse_graph(text)
        path = tmp_path / "bad.graph"
        path.write_text(text)
        assert run_command(["match", "--graph", str(path)]) == 1
        assert f"{path}: {message}" in capsys.readouterr().err

    def test_zero_counts_are_format_errors(self, tmp_path, capsys):
        cases = (
            ("ROWS 0\nCOLS 2\nA\nB\nLOWER\n1 1\nUPPER\n1 1\nEND\n", "line 1 column 6"),
            ("ROWS 1\nCOLS 0\nA\nB\n1\nLOWER\nUPPER\nEND\n", "line 2 column 6"),
        )
        for text, where in cases:
            with pytest.raises(FileFormatError, match=where):
                parse_instance(text)
            path = tmp_path / "empty.inst"
            path.write_text(text)
            assert run_command(["oracle-opt", "--instance", str(path)]) == 1
            assert where in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, where",
        [("NODES 2\nEDGES -3\n", "line 2 column 7"), ("NODES -1\nEDGES 0\n", "line 1 column 7")],
    )
    def test_negative_graph_counts_are_format_errors(self, text, where, tmp_path, capsys):
        with pytest.raises(FileFormatError, match=where):
            parse_graph(text)
        path = tmp_path / "neg.graph"
        path.write_text(text)
        assert run_command(["match", "--graph", str(path)]) == 1
        assert where in capsys.readouterr().err


class TestSeparate:
    def test_blossom_report(self, k3_paths, capsys):
        inst, xhat, xstar = k3_paths
        code = run_command(
            ["separate", "--instance", inst, "--xhat", xhat, "--xstar", xstar,
             "--method", "col"]
        )
        assert code == 0
        assert capsys.readouterr().out == (
            "CUT 1 1 1 <= 1\n"
            "LAMBDA 1/2 1/2 1/2\n"
            "MU_DOWN 0 0 0\n"
            "MU_UP 0 0 0\n"
            "VIOLATION 1/2\n"
            "CALLS 5\n"
        )

    def test_methods_agree_on_the_cut(self, k3_paths, capsys):
        inst, xhat, xstar = k3_paths
        heads = set()
        for method in ("col", "row", "auto", "oracle"):
            assert run_command(
                ["separate", "--instance", inst, "--xhat", xhat,
                 "--xstar", xstar, "--method", method]
            ) == 0
            out = capsys.readouterr().out.splitlines()
            heads.add((out[0], out[4]))
        assert heads == {("CUT 1 1 1 <= 1", "VIOLATION 1/2")}

    def test_none_when_xstar_equals_xhat(self, k3_paths, capsys):
        inst, xhat, _ = k3_paths
        code = run_command(
            ["separate", "--instance", inst, "--xhat", xhat, "--xstar", xhat]
        )
        assert code == 0
        assert capsys.readouterr().out == "NONE\n"

    def test_wrong_modulus_is_a_precondition_failure(self, k3_paths):
        inst, xhat, xstar = k3_paths
        code = run_command(
            ["separate", "--instance", inst, "--xhat", xhat, "--xstar", xstar,
             "--modulus", "3"]
        )
        assert code == 2

    def test_infeasible_xstar_exits_2(self, k3_paths, tmp_path):
        inst, xhat, _ = k3_paths
        far = tmp_path / "far"
        far.write_text("2 0 0\n")
        code = run_command(
            ["separate", "--instance", inst, "--xhat", xhat, "--xstar", str(far)]
        )
        assert code == 2

    @pytest.mark.parametrize("xhat, xstar, message", [
        ("1/2 1/2 1/2", "1/2 1/2 1/2", "xhat 1/2 1/2 1/2 is not integral"),
        ("1 1 0", "1/2 1/2 1/2", "xhat infeasible: row 1 violated"),
        ("1 0 0", "1 1/2 1/2", "xstar infeasible: row 1 violated"),
        ("1 0 0", "-1/2 0 0", "xstar infeasible: lower bound at coordinate 1 violated"),
        ("0 0 2", "0 0 0", "xhat infeasible: row 2 violated"),
        ("0 0 0", "0 0 3/2", "xstar infeasible: row 2 violated"),
    ])
    def test_point_errors_read_as_the_files_do(self, k3_paths, tmp_path, capsys,
                                               xhat, xstar, message):
        inst, _, _ = k3_paths
        (tmp_path / "h").write_text(xhat + "\n")
        (tmp_path / "s").write_text(xstar + "\n")
        argv = ["separate", "--instance", inst, "--xhat", str(tmp_path / "h"),
                "--xstar", str(tmp_path / "s")]
        assert run_command(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    def test_upper_bound_is_numbered_from_one(self, tmp_path, capsys):
        text = "ROWS 1\nCOLS 2\nA\n1 1\nB\n5\nLOWER\n1 1\nUPPER\n0 1\nEND\n"
        inst = tmp_path / "box.inst"
        inst.write_text(text)
        (tmp_path / "h").write_text("0 0\n")
        (tmp_path / "s").write_text("3 3/2\n")
        argv = ["separate", "--instance", str(inst), "--xhat", str(tmp_path / "h"),
                "--xstar", str(tmp_path / "s")]
        assert run_command(argv) == 2
        assert capsys.readouterr().err == (
            "error: xstar infeasible: upper bound at coordinate 2 violated\n"
        )

    def test_missing_file_exits_1(self, k3_paths):
        inst, xhat, _ = k3_paths
        code = run_command(
            ["separate", "--instance", inst, "--xhat", xhat, "--xstar", "/nope"]
        )
        assert code == 1

    def test_auto_reports_parity_profile_when_budget_dies(self, tmp_path, capsys):
        # Three odd entries in every row and column, so neither graph
        # method applies; a tiny budget is simulated by a huge instance
        # being unnecessary - instead check the oracle path still answers.
        text = (
            "ROWS 3\nCOLS 3\nA\n1 1 1\n1 1 1\n1 1 1\nB\n2 2 2\n"
            "LOWER\n1 1 1\nUPPER\n1 1 1\nEND\n"
        )
        inst = tmp_path / "dense.inst"
        inst.write_text(text)
        xhat = tmp_path / "h"
        xhat.write_text("0 0 0\n")
        xstar = tmp_path / "s"
        xstar.write_text("1/2 1/2 1/2\n")
        code = run_command(
            ["separate", "--instance", str(inst), "--xhat", str(xhat),
             "--xstar", str(xstar)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith(("CUT", "NONE"))


class TestApprox:
    def test_k3_alpha_is_one(self, k3_paths, capsys):
        inst, _, _ = k3_paths
        code = run_command(["approx", "--instance", inst, "--epsilon", "1"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "K 2"
        assert lines[2] == "ALPHA 1"

    def test_modulus_three(self, k3_paths, capsys):
        inst, _, _ = k3_paths
        code = run_command(
            ["approx", "--instance", inst, "--epsilon", "1/2", "--modulus", "3"]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == "K 3"

    def test_zero_rhs_without_presolve_exits_2(self, tmp_path):
        text = "ROWS 1\nCOLS 2\nA\n1 1\nB\n0\nLOWER\n1 1\nUPPER\n1 1\nOBJ\n1 1\nEND\n"
        path = tmp_path / "zero.inst"
        path.write_text(text)
        assert run_command(["approx", "--instance", str(path), "--epsilon", "1"]) == 2

    def test_presolve_fixes_and_lifts(self, tmp_path, capsys):
        text = (
            "ROWS 2\nCOLS 3\nA\n1 1 0\n0 1 1\nB\n0 2\n"
            "LOWER\n1 1 1\nUPPER\n1 1 1\nOBJ\n5 5 1\nEND\n"
        )
        path = tmp_path / "mono.inst"
        path.write_text(text)
        code = run_command(
            ["approx", "--instance", str(path), "--epsilon", "1",
             "--presolve-monotone"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2] == "ALPHA 1"
        assert lines[3] == "ARGMAX 0 0 1"

    def test_presolve_can_remove_everything(self, tmp_path, capsys):
        text = "ROWS 1\nCOLS 2\nA\n1 1\nB\n0\nLOWER\n1 1\nUPPER\n1 1\nOBJ\n3 4\nEND\n"
        path = tmp_path / "gone.inst"
        path.write_text(text)
        code = run_command(
            ["approx", "--instance", str(path), "--epsilon", "1",
             "--presolve-monotone"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2] == "ALPHA 0" and lines[3] == "ARGMAX 0 0"

    def test_bad_epsilon_is_usage(self, k3_paths):
        inst, _, _ = k3_paths
        assert run_command(["approx", "--instance", inst, "--epsilon", "x"]) == 1

    @pytest.mark.parametrize("epsilon", ["1/0", "x"])
    def test_bad_epsilon_names_the_flag(self, k3_paths, capsys, epsilon):
        inst, _, _ = k3_paths
        assert run_command(["approx", "--instance", inst, "--epsilon", epsilon]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"usage error: --epsilon: expected an integer or p/q, found {epsilon!r}\n"
        )

    def test_nonpositive_epsilon_is_precondition(self, k3_paths):
        inst, _, _ = k3_paths
        assert run_command(["approx", "--instance", inst, "--epsilon", "0"]) == 2

    def test_missing_objective_exits_2(self, tmp_path):
        text = "ROWS 1\nCOLS 1\nA\n2\nB\n3\nLOWER\n1\nUPPER\n1\nEND\n"
        path = tmp_path / "noobj.inst"
        path.write_text(text)
        assert run_command(["approx", "--instance", str(path), "--epsilon", "1"]) == 2

    @pytest.mark.parametrize(
        "b, presolve",
        # with b = 0 and presolve, x1 is fixed and only the box of x2 is left
        [("1", []), ("0", ["--presolve-monotone"])],
    )
    def test_negative_objective_exits_2(self, tmp_path, capsys, b, presolve):
        text = f"ROWS 1\nCOLS 2\nA\n1 0\nB\n{b}\nLOWER\n1 1\nUPPER\n1 1\nOBJ\n0 -1\nEND\n"
        path = tmp_path / "negobj.inst"
        path.write_text(text)
        argv = ["approx", "--instance", str(path), "--epsilon", "1"] + presolve
        assert run_command(argv) == 2
        assert "nonnegative objective" in capsys.readouterr().err


class TestMatch:
    def test_k3_matching(self, tmp_path, capsys):
        path = tmp_path / "k3.graph"
        path.write_text("NODES 3\nEDGES 3\n1 2 1\n1 3 1\n2 3 1\n")
        code = run_command(["match", "--graph", str(path), "--stats"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("MATCHING ") and len(lines[0].split()) == 2
        assert lines[1] == "WEIGHT 1"
        assert lines[2].startswith("MINCUT_CALLS_PER_SEP ")
        assert lines[3].startswith("TOTAL_MINCUTS ")

    def test_negative_weight_exits_2(self, tmp_path):
        path = tmp_path / "neg.graph"
        path.write_text("NODES 2\nEDGES 1\n1 2 -4\n")
        assert run_command(["match", "--graph", str(path)]) == 2

    def test_edgeless_graph(self, tmp_path, capsys):
        path = tmp_path / "bare.graph"
        path.write_text("NODES 3\nEDGES 0\n")
        assert run_command(["match", "--graph", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["MATCHING", "WEIGHT 0"]


class TestOracleOpt:
    def test_k3_value(self, k3_paths, capsys):
        inst, _, _ = k3_paths
        assert run_command(["oracle-opt", "--instance", inst]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "VALUE 1"

    def test_small_modulus_exits_2(self, k3_paths):
        inst, _, _ = k3_paths
        assert run_command(["oracle-opt", "--instance", inst, "--modulus", "1"]) == 2

    @pytest.mark.parametrize("q", ["0", "-3"])
    def test_small_modulus_message(self, k3_paths, capsys, q):
        inst, _, _ = k3_paths
        assert run_command(["oracle-opt", "--instance", inst, "--modulus", q]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: modulus must be an integer of at least 2\n"


class TestCheck:
    def test_blossom_verdict(self, k3_paths, capsys):
        inst, xhat, _ = k3_paths
        code = run_command(
            ["check", "--instance", inst, "--xhat", xhat,
             "--lambda", "1/2", "1/2", "1/2"]
        )
        assert code == 0
        assert capsys.readouterr().out == (
            "VALID yes\n"
            "CUT 1 1 1 <= 1\n"
            "TIGHT yes\n"
            "UNFLOORED_RHS 3/2\n"
            "NONTRIVIAL yes\n"
            "VERDICT tight-nontrivial\n"
        )

    def test_fractional_coefficients_are_invalid(self, k3_paths, capsys):
        inst, xhat, _ = k3_paths
        code = run_command(
            ["check", "--instance", inst, "--xhat", xhat,
             "--lambda", "1/2", "0", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "VALID no"

    def test_off_grid_multiplier_is_invalid(self, k3_paths, capsys):
        inst, xhat, _ = k3_paths
        run_command(
            ["check", "--instance", inst, "--xhat", xhat,
             "--lambda", "1/3", "1/3", "1/3"]
        )
        assert capsys.readouterr().out.splitlines() == [
            "VALID no",
            "REASON lam entry 1/3 not in {0, 1/2}",
        ]

    @pytest.mark.parametrize("lower, upper, extra, reason", [
        ("0 1 1", "1 1 1", ["--lambda", "1/2", "0", "0", "--mu-down", "1/2", "0", "0"],
         "mu_down used at coordinate 1 but the lower bound is absent"),
        ("1 1 1", "1 0 1", ["--lambda", "0", "0", "0", "--mu-up", "0", "1/2", "0"],
         "mu_up used at coordinate 2 but the upper bound is absent"),
        ("1 1 1", "1 1 1", ["--lambda", "1/2", "0", "0"],
         "coefficient 1/2 at coordinate 1 is not integral"),
        ("1 1 1", "1 1 1",
         ["--lambda", "0", "0", "0", "--mu-down", "0", "1/2", "0", "--mu-up", "0", "1/2", "0"],
         "mu_down and mu_up both nonzero at coordinate 2"),
    ])
    def test_invalid_multipliers_number_coordinates_from_1(self, k3_paths, tmp_path, capsys,
                                                           lower, upper, extra, reason):
        _, xhat, _ = k3_paths
        inst = tmp_path / "bounds.inst"
        inst.write_text(K3_FILE.replace("LOWER\n1 1 1", f"LOWER\n{lower}")
                        .replace("UPPER\n1 1 1", f"UPPER\n{upper}"))
        code = run_command(["check", "--instance", str(inst), "--xhat", xhat] + extra)
        assert code == 0
        assert capsys.readouterr().out == f"VALID no\nREASON {reason}\n"

    @pytest.mark.parametrize("extra, expected", [
        (["--lambda", "1/2", "1/2"], "--lambda has 2 entries, expected 3 (one per row)"),
        (["--lambda", "1/2", "1/2", "1/2", "0"], "--lambda has 4 entries, expected 3 (one per row)"),
        (["--lambda", "1/2", "1/2", "1/2", "--mu-down", "0", "0"],
         "--mu-down has 2 entries, expected 3 (one per column)"),
        (["--lambda", "1/2", "1/2", "1/2", "--mu-up", "0", "0", "0", "0"],
         "--mu-up has 4 entries, expected 3 (one per column)"),
    ])
    def test_wrong_multiplier_count_is_usage(self, k3_paths, capsys, extra, expected):
        inst, xhat, _ = k3_paths
        code = run_command(["check", "--instance", inst, "--xhat", xhat] + extra)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"usage error: {expected}\n"

    @pytest.mark.parametrize("extra, expected", [
        (["--lambda", "1/2", "1/0", "1/2"], "--lambda entry 2: expected an integer or p/q, found '1/0'"),
        (["--lambda", "0", "0", "0", "--mu-down", "1/0", "0", "0"],
         "--mu-down entry 1: expected an integer or p/q, found '1/0'"),
        (["--lambda", "0", "0", "0", "--mu-up", "0", "0", "x"],
         "--mu-up entry 3: expected an integer or p/q, found 'x'"),
    ])
    def test_bad_multiplier_names_the_flag_and_entry(self, k3_paths, capsys, extra, expected):
        inst, xhat, _ = k3_paths
        code = run_command(["check", "--instance", inst, "--xhat", xhat] + extra)
        captured = capsys.readouterr()
        assert code == 1
        assert (captured.out, captured.err) == ("", f"usage error: {expected}\n")

    @pytest.mark.parametrize("point, message", [
        ("1/2 0 0", "xhat 1/2 0 0 is not integral"),
        ("0 1 1", "xhat is infeasible: row 3 violated"),
    ])
    def test_point_errors_read_as_the_file_does(self, k3_paths, tmp_path, capsys, point,
                                                message):
        inst, _, _ = k3_paths
        xhat = tmp_path / "h"
        xhat.write_text(point + "\n")
        code = run_command(["check", "--instance", inst, "--xhat", str(xhat),
                            "--lambda", "1/2", "1/2", "1/2"])
        captured = capsys.readouterr()
        assert code == 2
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    def test_non_tight_cut_reported(self, k3_paths, tmp_path, capsys):
        inst, _, _ = k3_paths
        origin = tmp_path / "origin"
        origin.write_text("0 0 0\n")
        run_command(
            ["check", "--instance", inst, "--xhat", str(origin),
             "--lambda", "1/2", "1/2", "1/2"]
        )
        out = capsys.readouterr().out.splitlines()
        assert "TIGHT no" in out
        assert "VERDICT not-tight-nontrivial" in out


class TestGen:
    def test_writes_deterministic_files(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["gen", "--seed", "7", "--rows", "3", "--cols", "3",
                "--profile", "col2", "--out", "one"]
        assert run_command(argv) == 0
        first = capsys.readouterr().out
        assert first.splitlines() == [
            "WROTE one.inst", "WROTE one.xhat", "WROTE one.xstar",
        ]
        blobs = {p: (tmp_path / p).read_bytes()
                 for p in ("one.inst", "one.xhat", "one.xstar")}
        argv2 = ["gen", "--seed", "7", "--rows", "3", "--cols", "3",
                 "--profile", "col2", "--out", "two"]
        assert run_command(argv2) == 0
        capsys.readouterr()
        for old, new in (("one.inst", "two.inst"), ("one.xhat", "two.xhat"),
                         ("one.xstar", "two.xstar")):
            assert blobs[old] == (tmp_path / new).read_bytes()

    def test_generated_case_feeds_separate(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_command(["gen", "--seed", "3", "--profile", "row2", "--out", "c"])
        capsys.readouterr()
        code = run_command(
            ["separate", "--instance", "c.inst", "--xhat", "c.xhat",
             "--xstar", "c.xstar", "--method", "row"]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith(("CUT", "NONE"))

    @pytest.mark.parametrize("seed", ["1", "2", "3"])
    @pytest.mark.parametrize("rows, cols, named", [
        ("-1", "3", "rows must be at least 1, got -1"),
        ("0", "3", "rows must be at least 1, got 0"),
        ("3", "-1", "cols must be at least 1, got -1"),
    ])
    def test_nonpositive_size_is_precondition(
        self, tmp_path, capsys, monkeypatch, seed, rows, cols, named
    ):
        monkeypatch.chdir(tmp_path)
        argv = ["gen", "--seed", seed, "--rows", rows, "--cols", cols,
                "--profile", "col2", "--out", "c"]
        assert run_command(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {named}\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


    @pytest.mark.parametrize("profile, rows, cols", [("col2", "1", "3"), ("row2", "3", "1")])
    def test_one_row_or_column_fits_every_profile(
        self, tmp_path, capsys, monkeypatch, profile, rows, cols
    ):
        # a draw of two odd entries in a column (row) of length one takes
        # the one entry, so every seed writes a case its method accepts
        monkeypatch.chdir(tmp_path)
        method = "col" if profile == "col2" else "row"
        for seed in range(1, 7):
            argv = ["gen", "--seed", str(seed), "--rows", rows, "--cols", cols,
                    "--profile", profile, "--out", f"c{seed}"]
            assert run_command(argv) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            inst = parse_instance((tmp_path / f"c{seed}.inst").read_text())
            assert (inst.m, inst.n) == (int(rows), int(cols))
            argv = ["separate", "--instance", f"c{seed}.inst", "--xhat", f"c{seed}.xhat",
                    "--xstar", f"c{seed}.xstar", "--method", method]
            assert run_command(argv) == 0
            assert capsys.readouterr().out.startswith(("CUT", "NONE"))


class TestGarbage:
    """Commands free what they allocate by reference counting alone.

    Cyclic garbage waits for a full collection, which a run of cheap
    commands may never trigger, so it would pile up in a long-lived
    process.
    """

    # two triangles joined by a lighter edge: one cut and one augmentation
    CHAIN = "NODES 6\nEDGES 7\n1 2 2\n2 3 2\n1 3 2\n3 4 1\n4 5 2\n5 6 2\n4 6 2\n"

    def test_commands_leave_no_cyclic_garbage(self, k3_paths, tmp_path, capsys):
        inst, xhat, xstar = k3_paths
        graph = tmp_path / "chain.graph"
        graph.write_text(self.CHAIN)
        commands = (
            ["match", "--graph", str(graph), "--stats"],
            ["separate", "--instance", inst, "--xhat", xhat, "--xstar", xstar,
             "--method", "col"],
            ["separate", "--instance", inst, "--xhat", xhat, "--xstar", xstar,
             "--method", "row"],
            ["approx", "--instance", inst, "--epsilon", "1/2"],
            ["oracle-opt", "--instance", inst],
        )
        enabled = gc.isenabled()
        try:
            for argv in commands:
                assert run_command(argv) == 0  # warm-up: imports, caches
                gc.collect()
                gc.disable()
                assert run_command(argv) == 0
                assert gc.collect() == 0, argv
                gc.enable()
        finally:
            if enabled:
                gc.enable()
            else:
                gc.disable()
        capsys.readouterr()


class TestUsage:
    def test_unknown_command(self):
        assert run_command(["frobnicate"]) == 1

    def test_missing_required_option(self):
        assert run_command(["separate"]) == 1

    @pytest.mark.parametrize("which", ["instance", "xhat", "graph"])
    def test_file_not_utf8_is_usage_error(self, k3_paths, tmp_path, capsys, which):
        inst, xhat, xstar = k3_paths
        binary = tmp_path / "binary"
        binary.write_bytes(b"\xff\xfe ROWS 1\n")
        if which == "graph":
            argv = ["match", "--graph", str(binary)]
        else:
            paths = {"instance": inst, "xhat": xhat, which: str(binary)}
            argv = ["separate", "--instance", paths["instance"], "--xhat", paths["xhat"],
                    "--xstar", xstar]
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "usage error: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte\n"
        )
        assert captured.out == ""

    def test_help_exits_0(self, capsys):
        assert run_command(["--help"]) == 0
        assert "separate" in capsys.readouterr().out


class TestModuleEntryPoint:
    """``python -m zerohalf`` from a checkout runs the same command line."""

    @staticmethod
    def run_module(*args):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        return subprocess.run(
            [sys.executable, "-m", "zerohalf", *args],
            capture_output=True, text=True, env=env, timeout=60,
        )

    def test_separate_prints_what_run_command_prints(self, k3_paths, capsys):
        inst, xhat, xstar = k3_paths
        argv = ["separate", "--instance", inst, "--xhat", xhat, "--xstar", xstar]
        assert run_command(argv) == 0
        expected = capsys.readouterr().out
        proc = self.run_module(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")

    def test_usage_error_exits_1(self):
        proc = self.run_module("frobnicate")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("usage error: argument command: invalid choice")
