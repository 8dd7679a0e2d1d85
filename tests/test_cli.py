"""End-to-end CLI: subcommands, exit codes, determinism, JSON round trips."""

import json
import subprocess
import sys

import pytest

from isolab.cli import main, parse_polygon
from isolab.errors import InputError
from isolab.newton import np_from_pairs


def run_cli(*argv, stdin=None):
    proc = subprocess.run(
        [sys.executable, "-m", "isolab", *argv],
        capture_output=True,
        text=True,
        input=stdin,
        timeout=120,
    )
    return proc


class TestParser:
    def test_mini_language(self):
        z = parse_polygon("2*(1,0)+(2,1)+(1,5)")
        assert z == np_from_pairs([(1, 0), (1, 0), (2, 1), (1, 5)])

    def test_whitespace_insensitive(self):
        assert parse_polygon(" 2 * (1, 0) + (2,1) + (1, 5) ") == parse_polygon(
            "2*(1,0)+(2,1)+(1,5)"
        )

    def test_bad_term(self):
        with pytest.raises(InputError):
            parse_polygon("(1;2)")
        with pytest.raises(InputError):
            parse_polygon("")

    def test_in_process_main(self):
        assert main(["np", "dim", "--pairs", "(1,1)"]) == 0


class TestSubcommands:
    def test_np_dim_worked_example(self):
        proc = run_cli("np", "dim", "--pairs", "2*(1,0)+(2,1)+(1,5)")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "22"

    def test_np_dim_trivial(self):
        proc = run_cli("np", "dim", "--pairs", "(1,1)")
        assert proc.stdout.strip() == "0"

    def test_poset_chain_length_nine(self):
        proc = run_cli("poset", "chain", "--h", "7", "--d", "3", "--from", "iso", "--to", "ord")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "length 9"
        assert len(lines) == 11

    def test_np_json_emits_pairs(self):
        proc = run_cli("--format", "json", "np", "construct", "--json", '{"slopes": ["0", "1"]}')
        data = json.loads(proc.stdout)
        assert data == {"pairs": [[1, 0], [0, 1]]}

    def test_np_compare(self):
        proc = run_cli("np", "compare", "--a", "2*(1,1)", "--b", "(1,0)+(1,1)+(0,1)")
        assert proc.stdout.strip() == "a-above-b"

    def test_np_poly(self):
        proc = run_cli("np-poly", "--coeffs", "1,0,-5,-125", "--p", "5")
        assert proc.stdout.strip() == "1/2 1/2 2"

    def test_weil_classify_json(self):
        proc = run_cli("--format", "json", "weil", "classify", "--minpoly", "1,2,8", "--p", "2", "--n", "3")
        data = json.loads(proc.stdout)
        assert data["albert"] == "IV(1,3)" and data["g"] == 3

    def test_weil_verify_rejection_message(self):
        proc = run_cli("weil", "verify", "--minpoly", "1,-5,4", "--p", "2", "--n", "2")
        assert proc.returncode == 2
        assert "reducible" in proc.stderr

    def test_weil_trace(self):
        proc = run_cli("weil-trace", "--beta", "0", "--p", "3", "--n", "1")
        assert proc.stdout.strip() == "1,0,3"

    def test_witt_ghost(self):
        proc = run_cli("witt", "ghost", "--p", "3", "--coords", "2,1,1")
        assert proc.stdout.strip() == "2,11,524"

    def test_witt_add(self):
        proc = run_cli("witt", "add", "--p", "2", "--N", "3", "--a", "1", "--b", "1")
        assert proc.stdout.strip() == "0;1;0"

    def test_cartier_artin_hasse(self):
        proc = run_cli("cartier", "artin-hasse", "--p", "2", "--degree", "4")
        assert proc.stdout.strip() == "1,-1,0,1/3,-1/3"

    def test_cartier_mul(self):
        x = json.dumps({"p": 2, "m": 1, "vcap": 4, "terms": [{"v": 0, "f": 1, "c": "1"}]})
        y = json.dumps({"p": 2, "m": 1, "vcap": 4, "terms": [{"v": 1, "f": 0, "c": "1"}]})
        proc = run_cli("--format", "json", "cartier", "mul", "--x", x, "--y", y)
        data = json.loads(proc.stdout)
        assert data["terms"] == [{"v": 1, "f": 1, "c": "1"}]

    def test_dieudonne_gmn(self):
        proc = run_cli("dieudonne", "gmn", "--m", "2", "--n", "1", "--p", "3")
        assert proc.stdout.strip() == "ht=3 dim=2 a=1"

    def test_dieudonne_sigma_trivial_stdin(self):
        payload = json.dumps({"p": 5, "m": 1, "N": 6, "h": 2, "F": [["0", "-125"], ["1", "-5"]]})
        proc = run_cli("dieudonne", "np-sigma-trivial", "--json", "-", stdin=payload)
        assert proc.stdout.strip() == "1 2"

    def test_dieudonne_np_display(self):
        payload = json.dumps({"h": 5, "s": 2, "p": 2, "a": [{"i": 1, "j": 5, "c": "unit"}]})
        proc = run_cli("dieudonne", "np-display", "--json", payload)
        assert proc.stdout.strip() == "(3,2)"

    def test_serre_tate(self):
        proc = run_cli("dieudonne", "serre-tate-torsion", "--exponents", "1,2,2", "--p", "3")
        assert proc.stdout.strip() == "3,3,9"

    def test_semimod(self):
        proc = run_cli("semimod", "normalize", "--m", "2", "--n", "3", "--heads", "3", "--tail", "5")
        assert proc.stdout.strip() == "{0} u [2,oo)"
        proc = run_cli("semimod", "enumerate", "--m", "3", "--n", "4")
        assert len(proc.stdout.splitlines()) == 5

    def test_poset_dot(self):
        proc = run_cli("poset", "dot", "--h", "2", "--d", "1")
        assert proc.stdout.startswith("digraph newton_poset {")
        assert proc.stdout.count("->") == 1


class TestExitCodes:
    def test_usage_error_is_64(self):
        proc = run_cli("np", "not-an-action")
        assert proc.returncode == 64

    def test_unknown_command_is_64(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 64

    def test_validation_error_is_2(self):
        proc = run_cli("np", "dim", "--pairs", "(2,2)")
        assert proc.returncode == 2
        assert "coprime" in proc.stderr

    def test_malformed_json_is_2(self):
        proc = run_cli("np", "construct", "--json", "{not json")
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["cartier", "mul"], "--x"),
            (["dieudonne", "a-number"], "--json"),
            (["witt", "ghost", "--p", "3"], "--coords"),
            (["poset", "chain", "--h", "5", "--d", "2"], "--from"),
            (["weil", "verify", "--minpoly", "1,2"], "--p"),
            (["np", "compare", "--a", "(1,1)"], "--b"),
            (["weil", "classify", "--p", "2", "--n", "1"], "--minpoly"),
            (["witt", "teichmuller", "--p", "3"], "--a"),
            (["cartier", "act", "--x", "{}"], "--w"),
            (["dieudonne", "gmn", "--m", "1"], "--n"),
            (["dieudonne", "serre-tate-torsion"], "--exponents"),
            (["semimod", "from-jumps", "--m", "2", "--n", "3"], "--jumps"),
            (["poset", "witness", "--h", "5", "--d", "2", "--from", "iso"], "--to"),
        ],
    )
    def test_missing_required_flag_is_64(self, capsys, argv, flag):
        assert main(argv) == 64
        err = capsys.readouterr().err
        assert "Traceback" not in err and flag in err

    def test_missing_flag_in_a_fresh_process(self):
        proc = run_cli("cartier", "mul")
        assert proc.returncode == 64
        assert "Traceback" not in proc.stderr and "--x" in proc.stderr

    def test_precision_error_is_3(self):
        payload = json.dumps({"p": 2, "m": 1, "N": 4, "h": 2, "F": [["16", "0"], ["0", "1"]]})
        proc = run_cli("dieudonne", "np-sigma-trivial", "--json", payload)
        assert proc.returncode == 3


class TestDeterminism:
    def test_byte_identical_runs(self):
        for argv in (
            ["--format", "json", "poset", "build", "--h", "6", "--d", "3"],
            ["poset", "dot", "--h", "6", "--d", "3", "--symmetric"],
            ["--format", "json", "weil", "classify", "--minpoly", "1,-1,2", "--p", "2", "--n", "1"],
        ):
            a, b = run_cli(*argv), run_cli(*argv)
            assert a.stdout == b.stdout and a.returncode == b.returncode == 0

    def test_emitted_polygon_json_reaccepted(self):
        proc = run_cli("--format", "json", "np", "dual", "--pairs", "(2,1)+(1,2)")
        emitted = proc.stdout.strip()
        again = run_cli("--format", "json", "np", "construct", "--json", emitted)
        assert json.loads(again.stdout) == json.loads(emitted)

    def test_emitted_semimodule_json_reaccepted(self):
        proc = run_cli("--format", "json", "semimod", "from-jumps", "--m", "3", "--n", "4", "--jumps", "1,4,5,6")
        emitted = proc.stdout.strip()
        again = run_cli("--format", "json", "semimod", "normalize", "--json", emitted)
        assert json.loads(again.stdout) == json.loads(emitted)
        dual = run_cli("--format", "json", "semimod", "dual", "--json", emitted)
        assert dual.returncode == 0

    def test_emitted_presentation_json_reaccepted(self):
        payload = json.dumps(
            {"p": 2, "m": 1, "N": 5, "h": 2, "F": [[0, 2], [1, 0]], "V": [[0, 2], [1, 0]]}
        )
        proc = run_cli("--format", "json", "dieudonne", "dual", "--json", payload)
        emitted = proc.stdout.strip()
        again = run_cli("--format", "json", "dieudonne", "dual", "--json", emitted)
        assert again.returncode == 0
        assert json.loads(again.stdout)["F"] == json.loads(payload)["F"]

    def test_emitted_weil_json_reaccepted(self):
        proc = run_cli("--format", "json", "weil", "verify", "--minpoly", "1,-1,2", "--p", "2", "--n", "1")
        emitted = proc.stdout.strip()
        again = run_cli("--format", "json", "weil", "classify", "--json", emitted)
        assert again.returncode == 0

    def test_precision_env_respected(self):
        import os
        import subprocess

        env = dict(os.environ, ISOLAB_PRECISION="9")
        payload = json.dumps({"p": 2, "m": 1, "h": 2, "F": [["16", "0"], ["0", "1"]]})
        proc = subprocess.run(
            [sys.executable, "-m", "isolab", "dieudonne", "np-sigma-trivial", "--json", payload],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0 4"
