"""End-to-end CLI: subcommands, exit codes, determinism, JSON round trips."""

import hashlib
import json
import subprocess
import sys

import pytest

from isolab.cartier import MAX_ARTIN_HASSE_DEGREE, MAX_WORKING_PRECISION, artin_hasse
from isolab.cli import MAX_POLYGON_HEIGHT, MAX_PRECISION, main, parse_polygon
from isolab.errors import InputError
from isolab.newton import np_from_pairs


# Over F_{31^3}, euler_phi(31^3 - 1) = 7920 guard digits per base-31 digit
# of the weight put the working precision near 32,000.
F_31_CUBED = json.dumps({"p": 31, "m": 3, "vcap": 2, "terms": [{"v": 0, "f": 1, "c": "3"}, {"v": 1, "f": 0, "c": "g+1"}]})
# F^(10^11) needs over 10^11 digits; 2^(10^11) must never be formed
HUGE_F_EXPONENT = json.dumps({"p": 2, "m": 1, "vcap": 2, "terms": [{"v": 0, "f": 10**11, "c": "1"}]})


def run_cli(*argv, stdin=None, timeout=120):
    proc = subprocess.run(
        [sys.executable, "-m", "isolab", *argv],
        capture_output=True,
        text=True,
        input=stdin,
        timeout=timeout,
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["witt", "add", "--p", "0", "--a", "1", "--b", "1"],
            ["witt", "add", "--p", "1", "--a", "1", "--b", "1"],
            ["witt", "add", "--p", "4", "--a", "1", "--b", "1"],
            ["witt", "add", "--p", "3", "--m", "0", "--a", "1", "--b", "1"],
            ["witt", "teichmuller", "--p", "3", "--a", ","],
            ["witt", "teichmuller", "--p", "3", "--a", ""],
            ["dieudonne", "gmn", "--m", "1", "--n", "1", "--p", "0"],
            ["dieudonne", "gmn", "--m", "1", "--n", "1", "--p", "4"],
            ["dieudonne", "gmn", "--m", "1", "--n", "1", "--field-degree", "0"],
            ["cartier", "artin-hasse", "--p", "0"],
            ["cartier", "artin-hasse", "--p", "1"],
            ["cartier", "artin-hasse", "--p", "4"],
        ],
    )
    def test_bad_field_or_operand_is_2(self, argv):
        # each of these once printed a wrong answer, crashed or hung
        proc = run_cli(*argv, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == "" and "Traceback" not in proc.stderr and "error:" in proc.stderr

    @pytest.mark.parametrize(
        "argv, env",
        [
            (["witt", "ghost", "--p", "3", "--coords", "1", "--N", "1"], None),
            (["cartier", "artin-hasse", "--N", "1"], None),
            (["dieudonne", "serre-tate-torsion", "--exponents", "1"], "1"),
            (["witt", "valuation", "--p", "3", "--a", "1"], "x"),
        ],
    )
    def test_precision_below_two_is_2(self, capsys, monkeypatch, argv, env):
        # the floor on N holds for every witt, cartier and dieudonne action,
        # whether N comes from --N or from ISOLAB_PRECISION
        if env is None:
            monkeypatch.delenv("ISOLAB_PRECISION", raising=False)
        else:
            monkeypatch.setenv("ISOLAB_PRECISION", env)
        assert main(argv) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv, cap",
        [
            (["witt", "teichmuller", "--p", "3", "--a", "1", "--N", "20000"], MAX_PRECISION),
            (["dieudonne", "a-number", "--json", json.dumps({"p": 2, "h": 1, "N": 20000, "F": [[1]], "V": [[2]]})], MAX_PRECISION),
            (["cartier", "artin-hasse", "--p", "2", "--degree", "20000"], MAX_ARTIN_HASSE_DEGREE),
            (["np", "dim", "--pairs", "99999999999*(1,0)"], MAX_POLYGON_HEIGHT),
            (["np", "dim", "--pairs", "99999999999*(0,0)"], MAX_POLYGON_HEIGHT),
            (["dieudonne", "gmn", "--m", "1", "--n", "400", "--p", "2"], MAX_PRECISION),
            (["np", "dim", "--json", '{"pairs":[[99999999,1]]}'], MAX_POLYGON_HEIGHT),
            (["np", "dual", "--json", '{"pairs":[[1,99999999]]}'], MAX_POLYGON_HEIGHT),
            (["cartier", "mul", "--x", F_31_CUBED, "--y", F_31_CUBED], MAX_WORKING_PRECISION),
            (["cartier", "mul", "--x", HUGE_F_EXPONENT, "--y", HUGE_F_EXPONENT], MAX_WORKING_PRECISION),
        ],
    )
    def test_size_over_its_cap_is_2(self, argv, cap):
        # each of these once hung, ran out of memory or ended in a traceback
        proc = run_cli(*argv, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == "" and "Traceback" not in proc.stderr and "cap of %d" % cap in proc.stderr

    def test_caps_are_inclusive(self, capsys, monkeypatch):
        monkeypatch.setenv("ISOLAB_PRECISION", str(MAX_PRECISION + 1))
        assert main(["witt", "valuation", "--p", "3", "--a", "1"]) == 2
        assert main(["witt", "valuation", "--p", "3", "--a", "1", "--N", str(MAX_PRECISION)]) == 0
        assert "cap of %d" % MAX_PRECISION in capsys.readouterr().err
        # dieudonne gmn works at N = m + n + 2
        gmn = ["dieudonne", "gmn", "--m", "1", "--p", "2", "--N", "6", "--n"]
        assert main(gmn + [str(MAX_PRECISION - 3)]) == 0
        assert capsys.readouterr().out == "ht=%d dim=1 a=1\n" % (MAX_PRECISION - 2)
        assert main(gmn + [str(MAX_PRECISION - 2)]) == 2
        assert "cap of %d" % MAX_PRECISION in capsys.readouterr().err
        assert parse_polygon("%d*(1,0)" % MAX_POLYGON_HEIGHT).h == MAX_POLYGON_HEIGHT
        assert main(["np", "dim", "--json", json.dumps({"pairs": [[MAX_POLYGON_HEIGHT - 1, 1]]})]) == 0
        assert main(["np", "dim", "--json", json.dumps({"pairs": [[MAX_POLYGON_HEIGHT, 1]]})]) == 2
        assert "cap of %d" % MAX_POLYGON_HEIGHT in capsys.readouterr().err
        with pytest.raises(InputError):
            parse_polygon("%d*(1,1)+(0,1)" % (MAX_POLYGON_HEIGHT // 2))
        assert len(artin_hasse(2, MAX_ARTIN_HASSE_DEGREE)) == MAX_ARTIN_HASSE_DEGREE + 1
        with pytest.raises(InputError):
            artin_hasse(2, MAX_ARTIN_HASSE_DEGREE + 1)

    def test_cartier_working_precision_cap_is_inclusive(self, capsys):
        # the element 1 at V-cap A is normalized at precision A + 2 + phi*(A + 1)
        # guard digits, phi = euler_phi(p^m - 1): 3A + 4 over F_4, 2A + 3 over F_2
        def one(p, m, vcap):
            return json.dumps({"p": p, "m": m, "vcap": vcap, "terms": [{"v": 0, "f": 0, "c": "1"}]})

        at_cap = one(2, 2, (MAX_WORKING_PRECISION - 4) // 3)
        assert 3 * ((MAX_WORKING_PRECISION - 4) // 3) + 4 == MAX_WORKING_PRECISION
        assert main(["cartier", "mul", "--x", at_cap, "--y", at_cap]) == 0
        assert capsys.readouterr().out == "Cartier(<1>)\n"
        over_cap = one(2, 1, (MAX_WORKING_PRECISION - 2) // 2)
        assert 2 * ((MAX_WORKING_PRECISION - 2) // 2) + 3 == MAX_WORKING_PRECISION + 1
        assert main(["cartier", "mul", "--x", over_cap, "--y", over_cap]) == 2
        assert "precision %d exceeds the cap of %d" % (MAX_WORKING_PRECISION + 1, MAX_WORKING_PRECISION) in capsys.readouterr().err

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


# Exit code and stdout sha256 of one request per (command, action) in each
# --format, of the README examples, and of each action given only the flags
# argparse requires.  Generated once from the per-command handlers that the
# action table replaced; any change to a row is a change of CLI behaviour.
PINNED = [
    (['--format', 'text', 'np', 'construct', '--pairs', '2*(1,0)+(2,1)+(1,5)'], 0, 'fbf7914a1f5c273dc15bb8e7707e3de73baca1260b95afc9ee248b94a17fe1d0'),
    (['--format', 'json', 'np', 'construct', '--pairs', '2*(1,0)+(2,1)+(1,5)'], 0, 'd3e89a20f3e5c79a611bb0a0d659e12cfb3e6938819ff639f0faf392af23d625'),
    (['--format', 'dot', 'np', 'construct', '--pairs', '2*(1,0)+(2,1)+(1,5)'], 0, 'fbf7914a1f5c273dc15bb8e7707e3de73baca1260b95afc9ee248b94a17fe1d0'),
    (['--format', 'text', 'np', 'compare', '--a', '2*(1,1)', '--b', '(1,0)+(1,1)+(0,1)'], 0, 'f7a385cf29d137cc41e1b781813727f8184d6123c98202d6934e0e36a50adc35'),
    (['--format', 'json', 'np', 'compare', '--a', '2*(1,1)', '--b', '(1,0)+(1,1)+(0,1)'], 0, 'bb98c31a92e4a9338394c454ed5e770812c8368bbbf8c1fb328955643a1b9e1f'),
    (['--format', 'dot', 'np', 'compare', '--a', '2*(1,1)', '--b', '(1,0)+(1,1)+(0,1)'], 0, 'f7a385cf29d137cc41e1b781813727f8184d6123c98202d6934e0e36a50adc35'),
    (['--format', 'text', 'np', 'dim', '--json', '{"slopes": ["0", "1/3", "1/3", "1/3", "1"]}'], 0, '7de1555df0c2700329e815b93b32c571c3ea54dc967b89e81ab73b9972b72d1d'),
    (['--format', 'json', 'np', 'dim', '--json', '{"slopes": ["0", "1/3", "1/3", "1/3", "1"]}'], 0, '1c519e766954c22e95a3a4bcd3f383555cd3832ebf7b84fba8add72476e00a42'),
    (['--format', 'dot', 'np', 'dim', '--json', '{"slopes": ["0", "1/3", "1/3", "1/3", "1"]}'], 0, '7de1555df0c2700329e815b93b32c571c3ea54dc967b89e81ab73b9972b72d1d'),
    (['--format', 'text', 'np', 'sdim', '--pairs', '(1,2)+(1,1)+(2,1)'], 0, 'f0b5c2c2211c8d67ed15e75e656c7862d086e9245420892a7de62cd9ec582a06'),
    (['--format', 'json', 'np', 'sdim', '--pairs', '(1,2)+(1,1)+(2,1)'], 0, '3e9183686ecf70b65c290c6f957673af1162ed4ec1e43a99a54af444a7fdacfe'),
    (['--format', 'dot', 'np', 'sdim', '--pairs', '(1,2)+(1,1)+(2,1)'], 0, 'f0b5c2c2211c8d67ed15e75e656c7862d086e9245420892a7de62cd9ec582a06'),
    (['--format', 'text', 'np', 'dual', '--pairs', '(1,0)+(2,1)'], 0, '8676cfb1877f2d89d6860cd205964814a1d2b979257d8d396249f20b28ec7f11'),
    (['--format', 'json', 'np', 'dual', '--pairs', '(1,0)+(2,1)'], 0, 'a33903be2740eb885f655113504db92b0fdba9834f6e0e6e1b993a83d48dabd5'),
    (['--format', 'dot', 'np', 'dual', '--pairs', '(1,0)+(2,1)'], 0, '8676cfb1877f2d89d6860cd205964814a1d2b979257d8d396249f20b28ec7f11'),
    (['--format', 'text', 'np', 'p-rank', '--pairs', '2*(1,0)+(1,1)'], 0, '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa'),
    (['--format', 'json', 'np', 'p-rank', '--pairs', '2*(1,0)+(1,1)'], 0, 'df46180c987026fe0b3c9a9bb11d9fc2a83a5c35a02d87c5861867c2ea41a4d7'),
    (['--format', 'dot', 'np', 'p-rank', '--pairs', '2*(1,0)+(1,1)'], 0, '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa'),
    (['--format', 'text', 'np', 'symmetric', '--pairs', '(1,2)+(2,1)'], 0, 'a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74'),
    (['--format', 'json', 'np', 'symmetric', '--pairs', '(1,2)+(2,1)'], 0, '96d5d9a87444c9244f2cb664149e4df6c82566f3489d9fb9c690483d1967e45c'),
    (['--format', 'dot', 'np', 'symmetric', '--pairs', '(1,2)+(2,1)'], 0, 'a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74'),
    (['--format', 'text', 'np-poly', '--coeffs', '1,0,-5,-125', '--p', '5'], 0, '8bb670512180e9420e7e07d6a218845fe322809878142a25d2591032fa372421'),
    (['--format', 'json', 'np-poly', '--coeffs', '1,0,-5,-125', '--p', '5'], 0, 'dd1f164e7284ea3a1fc8b907d867e7678e32a50f63a1cc72e799ca29ffe0de8a'),
    (['--format', 'dot', 'np-poly', '--coeffs', '1,0,-5,-125', '--p', '5'], 0, '8bb670512180e9420e7e07d6a218845fe322809878142a25d2591032fa372421'),
    (['--format', 'text', 'weil', 'verify', '--minpoly', '1,-1,2', '--p', '2', '--n', '1'], 0, '009d962905920ad0e3ff46c6987fad36418982deb81796fd1f58e326d167c268'),
    (['--format', 'json', 'weil', 'verify', '--minpoly', '1,-1,2', '--p', '2', '--n', '1'], 0, 'd48f74a4eb8adf83fba4b3d913db1b43d9a530a8a822bf246dfd4a2f92b9cf08'),
    (['--format', 'dot', 'weil', 'verify', '--minpoly', '1,-1,2', '--p', '2', '--n', '1'], 0, '009d962905920ad0e3ff46c6987fad36418982deb81796fd1f58e326d167c268'),
    (['--format', 'text', 'weil', 'classify', '--json', '{"minpoly": [1, 2, 8], "p": 2, "n": 3}'], 0, '3afbae474820d2d06f130004bc51e45bebbc3f56e4db77f7a7974473ebc5c06c'),
    (['--format', 'json', 'weil', 'classify', '--json', '{"minpoly": [1, 2, 8], "p": 2, "n": 3}'], 0, '22daae483948ae9ff6b32fc2e08223a5302b41cfbfde62d0b60d5c6a12377525'),
    (['--format', 'dot', 'weil', 'classify', '--json', '{"minpoly": [1, 2, 8], "p": 2, "n": 3}'], 0, '3afbae474820d2d06f130004bc51e45bebbc3f56e4db77f7a7974473ebc5c06c'),
    (['--format', 'text', 'weil-trace', '--beta', '3', '--p', '5', '--n', '1'], 0, '095982aa8de2702ddc21fbee900aee872b27bce845a63d1b82c8e0fb0a8d1e07'),
    (['--format', 'json', 'weil-trace', '--beta', '3', '--p', '5', '--n', '1'], 0, 'f68e1f9b1c78482678a8bf620fc49da52b16007ddc93543de931d4cc1716a508'),
    (['--format', 'dot', 'weil-trace', '--beta', '3', '--p', '5', '--n', '1'], 0, '095982aa8de2702ddc21fbee900aee872b27bce845a63d1b82c8e0fb0a8d1e07'),
    (['--format', 'text', 'witt', 'ghost', '--p', '3', '--coords', '2,1,1'], 0, '50f80cea33fae9bfbbce42f5dc39909d66bfef4ffdba1ae1050da44c55d08fbf'),
    (['--format', 'json', 'witt', 'ghost', '--p', '3', '--coords', '2,1,1'], 0, '24ba8113b33667d7d5fccd7211159778df37cc28706f2f29d74015c68fcbc08e'),
    (['--format', 'dot', 'witt', 'ghost', '--p', '3', '--coords', '2,1,1'], 0, '50f80cea33fae9bfbbce42f5dc39909d66bfef4ffdba1ae1050da44c55d08fbf'),
    (['--format', 'text', 'witt', 'add', '--p', '3', '--m', '2', '--N', '3', '--a', '1,2', '--b', '2,2'], 0, '191bff4df1ff46f5ade9dcce75d0797afb279f5c81cb65e40ed78158156bdc04'),
    (['--format', 'json', 'witt', 'add', '--p', '3', '--m', '2', '--N', '3', '--a', '1,2', '--b', '2,2'], 0, '9f2e2e8961ea5fc4f820b6c392466dc53623296745972632c926ca45ff151cfb'),
    (['--format', 'dot', 'witt', 'add', '--p', '3', '--m', '2', '--N', '3', '--a', '1,2', '--b', '2,2'], 0, '191bff4df1ff46f5ade9dcce75d0797afb279f5c81cb65e40ed78158156bdc04'),
    (['--format', 'text', 'witt', 'mul', '--p', '2', '--N', '4', '--a', '1,1', '--b', '1,0,1'], 0, '216190a460f5fdb77d5f15088a2fc1f976f31364ed2d2c94dc1b80e0dfe63e11'),
    (['--format', 'json', 'witt', 'mul', '--p', '2', '--N', '4', '--a', '1,1', '--b', '1,0,1'], 0, 'b4eba1e048c3151a0f1938c8925d346401c7649d2edabd9ca22c65dbfa67d552'),
    (['--format', 'dot', 'witt', 'mul', '--p', '2', '--N', '4', '--a', '1,1', '--b', '1,0,1'], 0, '216190a460f5fdb77d5f15088a2fc1f976f31364ed2d2c94dc1b80e0dfe63e11'),
    (['--format', 'text', 'witt', 'teichmuller', '--p', '5', '--N', '4', '--a', '2'], 0, 'f37d90525ce816d52d67636d5711414d670fd3cf0cfbd5dd11749d80333dea70'),
    (['--format', 'json', 'witt', 'teichmuller', '--p', '5', '--N', '4', '--a', '2'], 0, '7147bb8a11eafc8f82339a4f2d3cd0153f8a9e773def8a39293b93c53269505a'),
    (['--format', 'dot', 'witt', 'teichmuller', '--p', '5', '--N', '4', '--a', '2'], 0, 'f37d90525ce816d52d67636d5711414d670fd3cf0cfbd5dd11749d80333dea70'),
    (['--format', 'text', 'witt', 'frobenius', '--p', '2', '--m', '2', '--N', '3', '--a', '1,0,1'], 0, 'c34319093bc998560e97fb30ba78d683bf58b185ba8a9d955552911a083d9d04'),
    (['--format', 'json', 'witt', 'frobenius', '--p', '2', '--m', '2', '--N', '3', '--a', '1,0,1'], 0, '016606e294b9090ef76eb16e02d0f1443ed4dc2fc887270efdf279338bfa0441'),
    (['--format', 'dot', 'witt', 'frobenius', '--p', '2', '--m', '2', '--N', '3', '--a', '1,0,1'], 0, 'c34319093bc998560e97fb30ba78d683bf58b185ba8a9d955552911a083d9d04'),
    (['--format', 'text', 'witt', 'valuation', '--p', '3', '--N', '4', '--a', '0,1'], 0, '4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865'),
    (['--format', 'json', 'witt', 'valuation', '--p', '3', '--N', '4', '--a', '0,1'], 0, 'dee26121c5aa0843e5547ac70e01b255b4eec421ed5c06183c8a3f15180c703a'),
    (['--format', 'dot', 'witt', 'valuation', '--p', '3', '--N', '4', '--a', '0,1'], 0, '4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865'),
    (['--format', 'text', 'cartier', 'mul', '--x', '{"p": 2, "m": 2, "vcap": 3, "terms": [{"v": 0, "f": 1, "c": "g"}, {"v": 1, "f": 0, "c": "g+1"}]}', '--y', '{"p": 2, "m": 2, "vcap": 3, "terms": [{"v": 1, "f": 1, "c": "1"}]}'], 0, '11f5b091bfd71a20443bb9349864f79522be580243935b3f3d85882d7e9ca600'),
    (['--format', 'json', 'cartier', 'mul', '--x', '{"p": 2, "m": 2, "vcap": 3, "terms": [{"v": 0, "f": 1, "c": "g"}, {"v": 1, "f": 0, "c": "g+1"}]}', '--y', '{"p": 2, "m": 2, "vcap": 3, "terms": [{"v": 1, "f": 1, "c": "1"}]}'], 0, '79217c24564f3184df929d4ed896b43f02008a21d6cd4ad1d4feaa40985e411e'),
    (['--format', 'dot', 'cartier', 'mul', '--x', '{"p": 2, "m": 2, "vcap": 3, "terms": [{"v": 0, "f": 1, "c": "g"}, {"v": 1, "f": 0, "c": "g+1"}]}', '--y', '{"p": 2, "m": 2, "vcap": 3, "terms": [{"v": 1, "f": 1, "c": "1"}]}'], 0, '11f5b091bfd71a20443bb9349864f79522be580243935b3f3d85882d7e9ca600'),
    (['--format', 'text', 'cartier', 'act', '--x', '{"p": 2, "m": 2, "vcap": 3, "terms": [{"v": 0, "f": 1, "c": "g"}, {"v": 1, "f": 0, "c": "g+1"}]}', '--w', '1,1', '--N', '4'], 0, '57c3cefcc940400ea615f28863a875124a9022ed7e976b91ffd20ac2bdabce34'),
    (['--format', 'json', 'cartier', 'act', '--x', '{"p": 2, "m": 2, "vcap": 3, "terms": [{"v": 0, "f": 1, "c": "g"}, {"v": 1, "f": 0, "c": "g+1"}]}', '--w', '1,1', '--N', '4'], 0, '0423590cd507fb6c82bc5ec343c2f5beefe9368a71dcca3dbb5f00805ca977aa'),
    (['--format', 'dot', 'cartier', 'act', '--x', '{"p": 2, "m": 2, "vcap": 3, "terms": [{"v": 0, "f": 1, "c": "g"}, {"v": 1, "f": 0, "c": "g+1"}]}', '--w', '1,1', '--N', '4'], 0, '57c3cefcc940400ea615f28863a875124a9022ed7e976b91ffd20ac2bdabce34'),
    (['--format', 'text', 'cartier', 'artin-hasse', '--p', '3', '--degree', '8'], 0, '43790d23f6a99d1b63841ec6ed927832c025ddf80400191e91a0feb2731e6a6a'),
    (['--format', 'json', 'cartier', 'artin-hasse', '--p', '3', '--degree', '8'], 0, '5472bc8fb71761c7a96e1975fffcc54ac52735217ae8a862e27ffcc3f1a66704'),
    (['--format', 'dot', 'cartier', 'artin-hasse', '--p', '3', '--degree', '8'], 0, '43790d23f6a99d1b63841ec6ed927832c025ddf80400191e91a0feb2731e6a6a'),
    (['--format', 'text', 'dieudonne', 'gmn', '--m', '1', '--n', '2', '--p', '2', '--field-degree', '2'], 0, '0909bc3b70b7997db734871e6def90edb6e08bfcc8eacf7dd57be84a4b5a288c'),
    (['--format', 'json', 'dieudonne', 'gmn', '--m', '1', '--n', '2', '--p', '2', '--field-degree', '2'], 0, '4476476de5669998798cc7be7d4d22057507abdcace180ad2be5e92d5dbd56e8'),
    (['--format', 'dot', 'dieudonne', 'gmn', '--m', '1', '--n', '2', '--p', '2', '--field-degree', '2'], 0, '0909bc3b70b7997db734871e6def90edb6e08bfcc8eacf7dd57be84a4b5a288c'),
    (['--format', 'text', 'dieudonne', 'a-number', '--json', '{"p": 2, "h": 3, "F": [[0, 0, 2], [1, 0, 0], [0, 1, 0]], "V": [[0, 2, 0], [0, 0, 2], [1, 0, 0]]}'], 0, '4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865'),
    (['--format', 'json', 'dieudonne', 'a-number', '--json', '{"p": 2, "h": 3, "F": [[0, 0, 2], [1, 0, 0], [0, 1, 0]], "V": [[0, 2, 0], [0, 0, 2], [1, 0, 0]]}'], 0, '4e75a60d1283374cc18639d829aa098668bf4b5aa4c7d42a9b8ab48adecb1556'),
    (['--format', 'dot', 'dieudonne', 'a-number', '--json', '{"p": 2, "h": 3, "F": [[0, 0, 2], [1, 0, 0], [0, 1, 0]], "V": [[0, 2, 0], [0, 0, 2], [1, 0, 0]]}'], 0, '4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865'),
    (['--format', 'text', 'dieudonne', 'dual', '--json', '{"p": 3, "m": 1, "N": 5, "h": 3, "F": [[0, 3, 0], [0, 0, 3], [1, 0, 0]], "V": [[0, 0, 3], [1, 0, 0], [0, 1, 0]]}'], 0, 'db9d9b21db7cd6ef46dc16f64843b9473ceb27b7dfb483a9697ef794c63933aa'),
    (['--format', 'json', 'dieudonne', 'dual', '--json', '{"p": 3, "m": 1, "N": 5, "h": 3, "F": [[0, 3, 0], [0, 0, 3], [1, 0, 0]], "V": [[0, 0, 3], [1, 0, 0], [0, 1, 0]]}'], 0, '148ca4b2f38804e58f00a93fcb08eff129174f82624f4e36c89852485f35ceee'),
    (['--format', 'dot', 'dieudonne', 'dual', '--json', '{"p": 3, "m": 1, "N": 5, "h": 3, "F": [[0, 3, 0], [0, 0, 3], [1, 0, 0]], "V": [[0, 0, 3], [1, 0, 0], [0, 1, 0]]}'], 0, 'db9d9b21db7cd6ef46dc16f64843b9473ceb27b7dfb483a9697ef794c63933aa'),
    (['--format', 'text', 'dieudonne', 'np-display', '--json', '{"h": 5, "s": 2, "p": 3, "a": [{"i": 1, "j": 5, "c": "unit"}, {"i": 2, "j": 3, "c": "unit"}]}'], 0, 'f10e0cc59e63e7cdaef3a588a7f018daac44ded8be39542efb335c92b5b3ade1'),
    (['--format', 'json', 'dieudonne', 'np-display', '--json', '{"h": 5, "s": 2, "p": 3, "a": [{"i": 1, "j": 5, "c": "unit"}, {"i": 2, "j": 3, "c": "unit"}]}'], 0, 'cace09ea4e7d28be55b75c61bd863b9f73932441f4ef09bf17cd39e584e748a5'),
    (['--format', 'dot', 'dieudonne', 'np-display', '--json', '{"h": 5, "s": 2, "p": 3, "a": [{"i": 1, "j": 5, "c": "unit"}, {"i": 2, "j": 3, "c": "unit"}]}'], 0, 'f10e0cc59e63e7cdaef3a588a7f018daac44ded8be39542efb335c92b5b3ade1'),
    (['--format', 'text', 'dieudonne', 'np-sigma-trivial', '--json', '{"p": 5, "m": 1, "N": 6, "h": 2, "F": [["0", "-125"], ["1", "-5"]]}'], 0, 'f251ddc12234e0da8d3b778bd0f7463fb477f16f47757f5617dc8b4ff4d4f14a'),
    (['--format', 'json', 'dieudonne', 'np-sigma-trivial', '--json', '{"p": 5, "m": 1, "N": 6, "h": 2, "F": [["0", "-125"], ["1", "-5"]]}'], 0, '9f69539ddd2676f641ba36b640a90ba770c544a860db1bd0c35fcfc3b5ca75c0'),
    (['--format', 'dot', 'dieudonne', 'np-sigma-trivial', '--json', '{"p": 5, "m": 1, "N": 6, "h": 2, "F": [["0", "-125"], ["1", "-5"]]}'], 0, 'f251ddc12234e0da8d3b778bd0f7463fb477f16f47757f5617dc8b4ff4d4f14a'),
    (['--format', 'text', 'dieudonne', 'serre-tate-torsion', '--exponents', '0,1,3', '--p', '2'], 0, '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3'),
    (['--format', 'json', 'dieudonne', 'serre-tate-torsion', '--exponents', '0,1,3', '--p', '2'], 0, '179366460392a4c592bbd004659f67feea3adde578786679cea4023840f8e61a'),
    (['--format', 'dot', 'dieudonne', 'serre-tate-torsion', '--exponents', '0,1,3', '--p', '2'], 0, '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3'),
    (['--format', 'text', 'semimod', 'normalize', '--m', '2', '--n', '3', '--heads', '3', '--tail', '5'], 0, '4ff9be0f33614aa47f2377eaca90bf2be4a27ab70fb6da2acfe3c4e69ffa415b'),
    (['--format', 'json', 'semimod', 'normalize', '--m', '2', '--n', '3', '--heads', '3', '--tail', '5'], 0, '443d753a687dd0bfde67388e3bce43a5a43c32a94124547d21be3351b22e6300'),
    (['--format', 'dot', 'semimod', 'normalize', '--m', '2', '--n', '3', '--heads', '3', '--tail', '5'], 0, '4ff9be0f33614aa47f2377eaca90bf2be4a27ab70fb6da2acfe3c4e69ffa415b'),
    (['--format', 'text', 'semimod', 'dual', '--json', '{"m": 3, "n": 4, "heads": [0, 3, 4]}'], 0, 'a21702cf33cdd3ffc7b25e9ab49f5658a064c0c51ac8d32498461806bc7a365b'),
    (['--format', 'json', 'semimod', 'dual', '--json', '{"m": 3, "n": 4, "heads": [0, 3, 4]}'], 0, '0c5b864646d7eed13eb60ac106aee9c4f04b18dc9cdfe6ad6568f761a674035b'),
    (['--format', 'dot', 'semimod', 'dual', '--json', '{"m": 3, "n": 4, "heads": [0, 3, 4]}'], 0, 'a21702cf33cdd3ffc7b25e9ab49f5658a064c0c51ac8d32498461806bc7a365b'),
    (['--format', 'text', 'semimod', 'enumerate', '--m', '3', '--n', '4'], 0, '9b7d99539df62a25f2b9dffb35526e713079f090f5d6f30e467ead7e3452f043'),
    (['--format', 'json', 'semimod', 'enumerate', '--m', '3', '--n', '4'], 0, '8ad2320f68ac0e847915723a7b964083f5dcd2ff4d40a0a3168aa212c0207864'),
    (['--format', 'dot', 'semimod', 'enumerate', '--m', '3', '--n', '4'], 0, '9b7d99539df62a25f2b9dffb35526e713079f090f5d6f30e467ead7e3452f043'),
    (['--format', 'text', 'semimod', 'from-jumps', '--m', '3', '--n', '4', '--jumps', '1,4,5,6'], 0, 'f34158954e21fa15c7da5e822feae3b93ebc21f35d111926566dd9b2067558c5'),
    (['--format', 'json', 'semimod', 'from-jumps', '--m', '3', '--n', '4', '--jumps', '1,4,5,6'], 0, '351a783980f1a90bc622d540d878a1b7c80c1b37c4ea191434aacfedd74636c0'),
    (['--format', 'dot', 'semimod', 'from-jumps', '--m', '3', '--n', '4', '--jumps', '1,4,5,6'], 0, 'f34158954e21fa15c7da5e822feae3b93ebc21f35d111926566dd9b2067558c5'),
    (['--format', 'text', 'poset', 'build', '--h', '4', '--d', '2'], 0, '60d26491c99af4e7071a27bff9993213524fb26f8f1f9b4491b5d22aaac01e3a'),
    (['--format', 'json', 'poset', 'build', '--h', '4', '--d', '2'], 0, '2649bbf911a70f7309da05297e523532457dacf90a270645e5a848b3b66172e4'),
    (['--format', 'dot', 'poset', 'build', '--h', '4', '--d', '2'], 0, '434a71a5969b3a023a6c81b6faae6d07e65ba3ef431c603ebb6dad8e96d4cb5f'),
    (['--format', 'text', 'poset', 'chain', '--h', '5', '--d', '2', '--from', 'iso', '--to', 'ord'], 0, '8bf6eaecc1f8bac4fe4248c21f1aa7abf4363b4e75bca5922b76e0bb9d123fd7'),
    (['--format', 'json', 'poset', 'chain', '--h', '5', '--d', '2', '--from', 'iso', '--to', 'ord'], 0, 'a49323a57a196c029555966dc0c34b312cc4d1d6aac8f1709c0f45579960ca31'),
    (['--format', 'dot', 'poset', 'chain', '--h', '5', '--d', '2', '--from', 'iso', '--to', 'ord'], 0, '8bf6eaecc1f8bac4fe4248c21f1aa7abf4363b4e75bca5922b76e0bb9d123fd7'),
    (['--format', 'text', 'poset', 'witness', '--h', '4', '--d', '2', '--from', 'iso', '--to', '2*(1,0)+2*(0,1)'], 0, 'e058bf7f445271f22c17f933f919dcc7008b8d6ebd94a8eea23f7e7c748687d1'),
    (['--format', 'json', 'poset', 'witness', '--h', '4', '--d', '2', '--from', 'iso', '--to', '2*(1,0)+2*(0,1)'], 0, '91e0a5b7da6fd5591c92cb7f0ed69f8d113165c57e6df157dbca1a1003e952fb'),
    (['--format', 'dot', 'poset', 'witness', '--h', '4', '--d', '2', '--from', 'iso', '--to', '2*(1,0)+2*(0,1)'], 0, 'e058bf7f445271f22c17f933f919dcc7008b8d6ebd94a8eea23f7e7c748687d1'),
    (['--format', 'text', 'poset', 'dot', '--h', '4', '--d', '2', '--symmetric'], 0, '231af30bc26b1e8842b764ed3989b9f976c7ca0370a753e920bc149158e2b777'),
    (['--format', 'json', 'poset', 'dot', '--h', '4', '--d', '2', '--symmetric'], 0, '231af30bc26b1e8842b764ed3989b9f976c7ca0370a753e920bc149158e2b777'),
    (['--format', 'dot', 'poset', 'dot', '--h', '4', '--d', '2', '--symmetric'], 0, '231af30bc26b1e8842b764ed3989b9f976c7ca0370a753e920bc149158e2b777'),
    (['np', 'dim', '--pairs', '2*(1,0)+(2,1)+(1,5)'], 0, 'f14b4987904bcb5814e4459a057ed4d20f58a633152288a761214dcd28780b56'),
    (['np', 'compare', '--a', '2*(1,1)', '--b', '(1,0)+(1,1)+(0,1)'], 0, 'f7a385cf29d137cc41e1b781813727f8184d6123c98202d6934e0e36a50adc35'),
    (['np-poly', '--coeffs', '1,0,-5,-125', '--p', '5'], 0, '8bb670512180e9420e7e07d6a218845fe322809878142a25d2591032fa372421'),
    (['weil', 'classify', '--minpoly', '1,2,8', '--p', '2', '--n', '3'], 0, '3afbae474820d2d06f130004bc51e45bebbc3f56e4db77f7a7974473ebc5c06c'),
    (['weil-trace', '--beta', '1', '--p', '2', '--n', '1'], 0, '208f25e247e77e3594a00441624353d7dec3822bb2a7b3eb2861241deee5bf0d'),
    (['witt', 'ghost', '--p', '3', '--coords', '2,1,1'], 0, '50f80cea33fae9bfbbce42f5dc39909d66bfef4ffdba1ae1050da44c55d08fbf'),
    (['cartier', 'artin-hasse', '--p', '2', '--degree', '10'], 0, '108f1c82646e2694488784ce55fb15574c7cd177988be0888842f3b3f68d2225'),
    (['dieudonne', 'gmn', '--m', '2', '--n', '1', '--p', '3'], 0, '60bf9df836149353f994108357effec85da69316577d85f265d3e988240c2344'),
    (['dieudonne', 'serre-tate-torsion', '--exponents', '1,2,2', '--p', '3'], 0, 'c4766e93f0641decca997699d005b33a11dc685c354ae29dd03f4485d1ff8532'),
    (['semimod', 'enumerate', '--m', '3', '--n', '4'], 0, '9b7d99539df62a25f2b9dffb35526e713079f090f5d6f30e467ead7e3452f043'),
    (['poset', 'chain', '--h', '7', '--d', '3', '--from', 'iso', '--to', 'ord'], 0, '37c593d1d883b6afcc146219a379841940856280607fe1f710bc1424ccd782d5'),
    (['poset', 'dot', '--h', '6', '--d', '3', '--symmetric'], 0, 'bd6a8917cb9aaf56906423bbad06639e3777bd6aed57008758c1e303c88a2777'),
    (['np', 'construct'], 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (['np', 'compare'], 64, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (['np', 'dim'], 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (['np', 'sdim'], 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (['np', 'dual'], 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (['np', 'p-rank'], 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (['np', 'symmetric'], 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (['np-poly', '--coeffs', '1,2', '--p', '3'], 0, '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa'),
    (['weil', 'verify'], 64, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (['weil', 'classify'], 64, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (['weil-trace', '--beta', '0', '--p', '3', '--n', '1'], 0, '886c2b818e72c70961c79b6875689e41b3f12072062f1eeb9081a4a931411479'),
    (['witt', 'ghost', '--p', '3'], 64, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (['witt', 'add', '--p', '3'], 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (['witt', 'mul', '--p', '3'], 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (['witt', 'teichmuller', '--p', '3'], 64, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (['witt', 'frobenius', '--p', '3'], 0, '87128699860192ad70fe57d92e010fd417509e874f178dda918e162001e9b8b6'),
    (['witt', 'valuation', '--p', '3'], 0, '0649b1f380accf68ed3956e5eccf2abdb0276fbb4356260a76e574b3c3815e93'),
    (['cartier', 'mul'], 64, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (['cartier', 'act'], 64, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (['cartier', 'artin-hasse'], 0, 'bce6e47b18c000746ae03ea88352fe8b29fa8dc1a39e38bb27895ea523c95ae4'),
    (['dieudonne', 'gmn'], 64, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (['dieudonne', 'a-number'], 64, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (['dieudonne', 'dual'], 64, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (['dieudonne', 'np-display'], 64, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (['dieudonne', 'np-sigma-trivial'], 64, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (['dieudonne', 'serre-tate-torsion'], 64, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (['semimod', 'normalize'], 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (['semimod', 'dual'], 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (['semimod', 'enumerate'], 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (['semimod', 'from-jumps'], 64, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (['poset', 'build', '--h', '4', '--d', '2'], 0, '60d26491c99af4e7071a27bff9993213524fb26f8f1f9b4491b5d22aaac01e3a'),
    (['poset', 'chain', '--h', '4', '--d', '2'], 64, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (['poset', 'witness', '--h', '4', '--d', '2'], 64, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (['poset', 'dot', '--h', '4', '--d', '2'], 0, '434a71a5969b3a023a6c81b6faae6d07e65ba3ef431c603ebb6dad8e96d4cb5f'),
    # over F_{31^3} at the precision cap, pinned from lifts computed as
    # lift(c)^(p^(m(N-1)))
    (['witt', 'add', '--p', '31', '--m', '3', '--a', '1,2', '--b', '1,5', '--N', '128'], 0, '3cb199e2235fef0e4bc23ab5c6d27e3b71757f70e13c81cd2abae0f4fb343935'),
]


# The Frobenius lift sigma over F_{p^2}, F_{p^3} and F_{2^12}, pinned from
# sigma computed by Horner evaluation at the powers sigma^k(x).
SIGMA_PINNED = [
    (['--format', 'text', 'witt', 'frobenius', '--p', '3', '--m', '2', '--N', '4', '--a', '1,2,0,1'], 0, '4b00dc12cedd2a651c697e59e5867e4e9d9d31e0e932af595d0d67e798cb3a09'),
    (['--format', 'json', 'witt', 'frobenius', '--p', '3', '--m', '2', '--N', '4', '--a', '1,2,0,1'], 0, '367284ab11471379ff8d20d9d031ef7543f5d7d647f27f733719c544e1fb3a06'),
    (['--format', 'text', 'witt', 'frobenius', '--p', '2', '--m', '3', '--N', '5', '--a', '1,1,0,1'], 0, '4fce1338502fc50e7b6daf38ae813af29e445db0ad0670a720414502a3d042d3'),
    (['--format', 'json', 'witt', 'frobenius', '--p', '2', '--m', '3', '--N', '5', '--a', '1,1,0,1'], 0, '8f1a76b1b2c33d6a1d7f1df736cf49eed00ecffdbae1ad445439a2b0d5fdbf9b'),
    (['--format', 'text', 'witt', 'add', '--p', '2', '--m', '2', '--N', '4', '--a', '1,1,1', '--b', '1,0,1,1'], 0, '31b18bd5b4d529fe270808cca4a3b00b7a00973c3a689d87a90ac9d6323b56bc'),
    (['--format', 'json', 'witt', 'add', '--p', '2', '--m', '2', '--N', '4', '--a', '1,1,1', '--b', '1,0,1,1'], 0, '406d9adc74a4fd1545733802671789d9768bc69fab11c9f7200a26a01ce291c8'),
    (['--format', 'text', 'witt', 'add', '--p', '3', '--m', '3', '--N', '3', '--a', '2,1', '--b', '2,2,2'], 0, 'ad4122fac89f63762cf5724a3ae2acf244cafa88282fbe825b0c08e59c1d150b'),
    (['--format', 'json', 'witt', 'add', '--p', '3', '--m', '3', '--N', '3', '--a', '2,1', '--b', '2,2,2'], 0, '22f5c519bb995596c2beb8d7e9223c1aae415a074a53bb6add8601371494deb9'),
    (['--format', 'text', 'witt', 'valuation', '--p', '2', '--m', '2', '--N', '5', '--a', '0,0,1'], 0, '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3'),
    (['--format', 'json', 'witt', 'valuation', '--p', '2', '--m', '2', '--N', '5', '--a', '0,0,1'], 0, 'a994d7757fb01c59ca6fae141d6743d9dc67595fac1bb65a3c75c866e3de6781'),
    (['--format', 'text', 'witt', 'valuation', '--p', '5', '--m', '3', '--N', '3', '--a', '0,3'], 0, '4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865'),
    (['--format', 'json', 'witt', 'valuation', '--p', '5', '--m', '3', '--N', '3', '--a', '0,3'], 0, 'dee26121c5aa0843e5547ac70e01b255b4eec421ed5c06183c8a3f15180c703a'),
    (['--format', 'text', 'cartier', 'act', '--x', '{"p": 3, "m": 2, "vcap": 3, "terms": [{"v": 0, "f": 1, "c": "g+2"}, {"v": 1, "f": 0, "c": "2*g"}, {"v": 2, "f": 1, "c": "g"}]}', '--w', '1,2,1', '--N', '4'], 0, '479313da85e0757ea93c70212dd8fffa3ad04d215e2e246e5dc8f77c2ebb668e'),
    (['--format', 'json', 'cartier', 'act', '--x', '{"p": 3, "m": 2, "vcap": 3, "terms": [{"v": 0, "f": 1, "c": "g+2"}, {"v": 1, "f": 0, "c": "2*g"}, {"v": 2, "f": 1, "c": "g"}]}', '--w', '1,2,1', '--N', '4'], 0, 'f7dbf5af1c439135bc7522c887f71ee8f43626df67803d8c245e60ba2952ddda'),
    (['--format', 'text', 'cartier', 'act', '--x', '{"p": 2, "m": 3, "vcap": 4, "terms": [{"v": 0, "f": 2, "c": "g^2+1"}, {"v": 1, "f": 0, "c": "g"}, {"v": 2, "f": 3, "c": "g^2+g"}]}', '--w', '1,0,1,1', '--N', '5'], 0, 'ee32f0ac72c98ccf211cb67e5173d4f159f8b9c7640500826ca57f6611447a8f'),
    (['--format', 'json', 'cartier', 'act', '--x', '{"p": 2, "m": 3, "vcap": 4, "terms": [{"v": 0, "f": 2, "c": "g^2+1"}, {"v": 1, "f": 0, "c": "g"}, {"v": 2, "f": 3, "c": "g^2+g"}]}', '--w', '1,0,1,1', '--N', '5'], 0, '7c5948440c239e851e0bdcb85d238fb0afb84c599ef43096b45b1474bc180a98'),
    (['--format', 'text', 'witt', 'frobenius', '--p', '2', '--m', '12', '--N', '4', '--a', '1,0,1'], 0, 'ad93a3b35cdbfb1455952939917a9b30a4719921880c01950e7c01e68ab77dea'),
    (['--format', 'json', 'witt', 'frobenius', '--p', '2', '--m', '12', '--N', '4', '--a', '1,0,1'], 0, '94eef4ddd1da888e75b1b3a3c05180b9d0df6ac1d82b5a18b374554662b5c644'),
]


@pytest.mark.parametrize(
    "argv, code, digest",
    PINNED + SIGMA_PINNED,
    ids=[" ".join(argv[:4]) for argv, _, _ in PINNED]
    + ["sigma %d: %s" % (i, " ".join(argv[:4])) for i, (argv, _, _) in enumerate(SIGMA_PINNED)],
)
def test_pinned_request(capsys, monkeypatch, argv, code, digest):
    monkeypatch.delenv("ISOLAB_PRECISION", raising=False)
    assert code in (0, 2, 64)
    assert main(argv) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
