"""End-to-end CLI: subcommands, exit codes, determinism, JSON round trips."""

import ast
import hashlib
import io
import json
import random
import shlex
import subprocess
import sys
from itertools import count
from pathlib import Path

import pytest

from isolab._arith import MAX_PRIME, is_prime
from isolab.cartier import MAX_ARTIN_HASSE_DEGREE, MAX_WORKING_PRECISION, artin_hasse
from isolab import cli
from isolab.cli import MAX_POLYGON_HEIGHT, MAX_PRECISION, main, parse_polygon
from isolab.dieudonne import MAX_TORSION_BITS, gmn_module
from isolab.errors import InputError
from isolab import newton
from isolab.newton import np_from_pairs
from isolab.poset import MAX_POSET_HEIGHT
from isolab.semimodule import MAX_GAPS, MAX_SEMIMODULES, sm_principal
from isolab.unramified import MAX_FIELD_BITS
from isolab.weil import MAX_Q_BITS, weil_verify
from isolab.witt import MAX_GHOST_BITS, WittContext


# Over F_{31^3}, euler_phi(31^3 - 1) = 7920 guard digits per base-31 digit
# of the weight put the working precision of the first diagonal of the
# square that carries, the two (1, 1) terms, at 23,764.
F_31_CUBED = json.dumps({"p": 31, "m": 3, "vcap": 2, "terms": [{"v": 0, "f": 1, "c": "3"}, {"v": 1, "f": 0, "c": "g+1"}]})
# F^(10^11) twice carries on a diagonal of over 10^11 digits; 2^(10^11)
# must never be formed
HUGE_F_EXPONENT = json.dumps({"p": 2, "m": 1, "vcap": 2, "terms": [{"v": 0, "f": 10**11, "c": "1"}] * 2})
# nested far deeper than the interpreter's recursion limit
DEEP = "[" * 100_000 + "]" * 100_000


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

    def test_np_dim_text_lists_no_diamond(self, monkeypatch, capsys):
        pairs = "2*(1,0)+(2,1)+(1,5)"
        assert main(["--format", "json", "np", "dim", "--pairs", pairs]) == 0
        z = parse_polygon(pairs)
        want = {"dim": 22, "diamond": [list(pt) for pt in sorted(newton.np_diamond(z))]}
        assert json.loads(capsys.readouterr().out) == want

        def refuse(z):
            raise AssertionError("np_diamond called for a text answer")

        monkeypatch.setattr(cli, "np_diamond", refuse)
        assert main(["np", "dim", "--pairs", pairs]) == 0
        assert capsys.readouterr().out == "22\n"

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

    @pytest.mark.parametrize(
        "argv, out",
        [
            (["np-poly", "--coeffs", "1,0", "--p", "2"], "inf\n"),
            (
                ["--format", "json", "np-poly", "--coeffs", "1,0", "--p", "2"],
                '{"infinite_multiplicity": 1, "slopes": [], "vertices": [[0, 0]]}\n',
            ),
            # T^2 (T + 2): one root of valuation 1, two at 0
            (["np-poly", "--coeffs", "1,2,0,0", "--p", "2"], "1 inf inf\n"),
            (
                ["--format", "json", "np-poly", "--coeffs", "1,2,0,0", "--p", "2"],
                '{"infinite_multiplicity": 2, "slopes": ["1"], "vertices": [[0, 0], [1, 1]]}\n',
            ),
        ],
    )
    def test_np_poly_roots_at_zero(self, capsys, argv, out):
        assert main(argv) == 0
        assert capsys.readouterr().out == out

    def test_weil_classify_json(self):
        proc = run_cli("--format", "json", "weil", "classify", "--minpoly", "1,2,8", "--p", "2", "--n", "3")
        data = json.loads(proc.stdout)
        assert data["albert"] == "IV(1,3)" and data["g"] == 3

    def test_weil_verify_rejection_message(self):
        proc = run_cli("weil", "verify", "--minpoly", "1,-5,4", "--p", "2", "--n", "2")
        assert proc.returncode == 2
        assert "reducible" in proc.stderr

    def test_weil_verify_quadratic_with_a_hard_constant(self):
        # q = P^2 for P = 2^61 - 1: decided by the discriminant, with no
        # factorization of q
        P = 2**61 - 1
        proc = run_cli("weil", "verify", "--minpoly", "1,1,%d" % P**2, "--p", str(P), "--n", "2", timeout=30)
        assert (proc.returncode, proc.stdout) == (0, "valid\n")

    def test_weil_verify_cubic_with_a_hard_constant(self):
        # the integer roots are found by bisection over a Sturm chain, with
        # no factorization of the 46-digit constant term; the divisor search
        # before it was still running when a 20 s timeout killed it
        c0 = 1427247692705959881088524462630930192097345861
        proc = run_cli("weil", "verify", "--minpoly", "1,0,0,%d" % c0, "--p", "2", "--n", "1", timeout=1)
        assert proc.returncode == 2 and "functional-equation" in proc.stderr

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

    def test_poset_witness_symmetric_stays_in_the_symmetric_poset(self, capsys):
        # the chain of the full poset passes through (2,1)+(0,1), which is not symmetric
        request = ["--h", "4", "--d", "2", "--symmetric", "--from", "iso", "--to", "ord"]
        assert main(["poset", "witness"] + request) == 0
        witness = capsys.readouterr().out.splitlines()
        assert main(["poset", "chain"] + request) == 0
        chain = capsys.readouterr().out.splitlines()
        assert witness == ["length 2", "2*(1,0)+2*(0,1)", "(1,0)+(1,1)+(0,1)", "2*(1,1)"]
        assert witness[1:] == chain[:0:-1]

    @pytest.mark.parametrize("action", ["chain", "witness"])
    def test_poset_symmetric_refuses_a_non_symmetric_end(self, capsys, action):
        request = ["--h", "4", "--d", "2", "--symmetric", "--from", "(2,1)+(0,1)", "--to", "ord"]
        assert main(["poset", action] + request) == 2
        out, err = capsys.readouterr()
        assert out == "" and "(2,1)+(0,1) not in this poset" in err

    def test_poset_chain_checks_both_ends_against_the_poset(self, capsys):
        # the ends are equal, so comparable, but neither lies in the poset of (5, 2)
        request = ["--h", "5", "--d", "2", "--from", "(1,1)", "--to", "(1,1)"]
        assert main(["poset", "chain"] + request) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: polygon (1,1) not in this poset\n"


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
        "argv, text",
        [
            (["np", "construct", "--json", "{not json"], "{not json"),
            (["cartier", "mul", "--x", '{"p": 2,}', "--y", '{"p": 2}'], '{"p": 2,}'),
            (["dieudonne", "a-number", "--json", "[1, 2"], "[1, 2"),
        ],
    )
    def test_invalid_json_text_is_2_with_the_decoder_message(self, capsys, argv, text):
        # a json.JSONDecodeError is a ValueError: main reports it as one
        with pytest.raises(json.JSONDecodeError) as info:
            json.loads(text)
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: %s\n" % info.value)

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
            ["np-poly", "--coeffs", "1,1", "--p", "318665857834031151167461"],
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
            (["poset", "build", "--h", "30", "--d", "15"], MAX_POSET_HEIGHT),
            (["semimod", "enumerate", "--m", "11", "--n", "12"], MAX_SEMIMODULES),
            (["semimod", "enumerate", "--m", "2", "--n", "2001"], MAX_SEMIMODULES),
            (["weil-trace", "--beta", "1", "--p", "2", "--n", "1000000000"], MAX_Q_BITS),
            (["weil", "verify", "--minpoly", "1,-1,2", "--p", "2", "--n", "1000000000"], MAX_Q_BITS),
            (["np-poly", "--coeffs", "1,1", "--p", str(MAX_PRIME)], MAX_PRIME),
            (["dieudonne", "serre-tate-torsion", "--exponents", "20000,20000", "--p", "2"], MAX_TORSION_BITS),
            (["witt", "ghost", "--p", "3", "--coords", ",".join(["2"] * 19)], MAX_GHOST_BITS),
            (["witt", "add", "--p", "2", "--m", "100", "--a", "1", "--b", "1"], MAX_FIELD_BITS),
            (["semimod", "normalize", "--m", "100003", "--n", "100019", "--tail", "0"], MAX_GAPS),
            (["semimod", "normalize", "--json", '{"m": 100003, "n": 100019, "heads": []}'], MAX_GAPS),
            (["semimod", "dual", "--m", "2", "--n", str(2 * MAX_GAPS + 3), "--tail", "0"], MAX_GAPS),
            (["semimod", "from-jumps", "--m", "3", "--n", str(MAX_GAPS + 3), "--jumps", "0"], MAX_GAPS),
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
        capsys.readouterr()
        # (h, 1) has h elements
        assert main(["poset", "build", "--h", str(MAX_POSET_HEIGHT), "--d", "1"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == MAX_POSET_HEIGHT
        assert main(["poset", "build", "--h", str(MAX_POSET_HEIGHT + 1), "--d", "1"]) == 2
        assert "cap of %d" % MAX_POSET_HEIGHT in capsys.readouterr().err
        # q = 2^(MAX_Q_BITS - 1) has MAX_Q_BITS bits
        trace = ["weil-trace", "--beta", "1", "--p", "2", "--n"]
        assert main(trace + [str(MAX_Q_BITS - 1)]) == 0
        assert capsys.readouterr().out == "1,-1,%d\n" % 2 ** (MAX_Q_BITS - 1)
        assert main(trace + [str(MAX_Q_BITS)]) == 2
        assert "cap of %d" % MAX_Q_BITS in capsys.readouterr().err
        assert weil_verify([1, 0, -(2 ** (MAX_Q_BITS - 1))], 2, MAX_Q_BITS - 1).q.bit_length() == MAX_Q_BITS
        n = max(n for n in range(MAX_Q_BITS) if (3**n).bit_length() <= MAX_Q_BITS)
        with pytest.raises(InputError, match="cap of %d" % MAX_Q_BITS):
            weil_verify([1, 0, -(3 ** (n + 1))], 3, n + 1)
        capsys.readouterr()
        # 2^(MAX_FIELD_BITS - 1) has MAX_FIELD_BITS bits, and so has the
        # largest prime below 2^MAX_FIELD_BITS
        add = ["witt", "add", "--a", "1", "--b", "1", "--N", "2", "--p"]
        assert main(add + ["2", "--m", str(MAX_FIELD_BITS - 1)]) == 0
        assert main(add + ["2", "--m", str(MAX_FIELD_BITS)]) == 2
        assert "field size 2^%d exceeds the cap of %d bits" % (MAX_FIELD_BITS, MAX_FIELD_BITS) in capsys.readouterr().err
        below = next(q for q in range(2**MAX_FIELD_BITS - 1, 1, -1) if is_prime(q))
        above = next(q for q in count(2**MAX_FIELD_BITS) if is_prime(q))
        assert main(add + [str(below)]) == 0
        assert main(add + [str(above)]) == 2
        assert "field size %d^1 exceeds the cap of %d bits" % (above, MAX_FIELD_BITS) in capsys.readouterr().err
        # (2, n) has r = (n - 1) / 2 gaps
        normalize = ["semimod", "normalize", "--m", "2", "--tail", "0", "--n"]
        assert main(normalize + [str(2 * MAX_GAPS + 1)]) == 0
        assert capsys.readouterr().out.endswith(",%d} u [%d,oo)\n" % (2 * MAX_GAPS - 1, 2 * MAX_GAPS))
        assert main(normalize + [str(2 * MAX_GAPS + 3)]) == 2
        assert "cap of %d" % MAX_GAPS in capsys.readouterr().err
        assert sm_principal(2, 2 * MAX_GAPS + 1).r == MAX_GAPS
        with pytest.raises(InputError, match="cap of %d" % MAX_GAPS):
            sm_principal(2, 2 * MAX_GAPS + 3)

    def test_semimodule_cap_is_inclusive(self, capsys, monkeypatch):
        # (4,5) has 14 types and (2,29) has 15
        monkeypatch.setattr("isolab.semimodule.MAX_SEMIMODULES", 14)
        assert main(["semimod", "enumerate", "--m", "4", "--n", "5"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 14
        assert main(["semimod", "enumerate", "--m", "2", "--n", "29"]) == 2
        assert "cap of 14" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["np-poly", "--coeffs", "1,1/0", "--p", "2"],
            ["np", "dim", "--json", '{"slopes":["1/0"]}'],
            ["np", "dim", "--json", '{"pairs":5}'],
            ["np", "dim", "--json", '{"pairs":[[1,null]]}'],
            ["weil", "verify", "--json", '{"minpoly":5,"p":2,"n":1}'],
            ["semimod", "normalize", "--json", '{"m":2,"n":3,"heads":5}'],
            ["cartier", "mul", "--x", '{"p":2,"terms":5}', "--y", '{"p":2}'],
            ["dieudonne", "a-number", "--json", '{"p":2,"h":1,"F":5}'],
        ],
    )
    def test_malformed_payload_is_2(self, capsys, argv):
        # each of these once ended in a ZeroDivisionError or TypeError
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err and "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["weil", "verify", "--json", '{"minpoly": [1, 1, 2], "p": 2, "n": 1e400}'],
            ["np", "dim", "--json", '{"slopes": [1e400]}'],
            ["np", "dim", "--json", '{"pairs": [[1e400, 1]]}'],
            ["semimod", "normalize", "--json", '{"m": 2, "n": 3, "heads": [1e400]}'],
            ["dieudonne", "a-number", "--json", '{"p": 2, "h": 1e400, "F": [[1]], "V": [[2]]}'],
            ["cartier", "mul", "--x", '{"p": 2, "vcap": 1e400}', "--y", '{"p": 2}'],
        ],
    )
    def test_number_past_float_range_is_2(self, capsys, argv):
        # JSON reads 1e400 as inf, and int() or Fraction() of it once raised
        # an OverflowError out of main
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err and "error:" in err

    @pytest.mark.parametrize(
        "action, payload",
        [
            ("a-number", {"p": 2, "h": 1, "F": [[1]], "V": [[2, 0], [0, 2]]}),
            ("dual", {"p": 2, "h": 1, "F": [[1]], "V": [[2, 0], [0, 2]]}),
            ("a-number", {"p": 2, "h": 1, "F": [[1, 0], [0, 1]], "V": [[2]]}),
            ("a-number", {"p": 2, "h": 1, "F": [], "V": [[1]]}),
        ],
    )
    def test_v_of_another_size_than_f_is_2(self, capsys, action, payload):
        # the first once printed 0, the others ended in an IndexError
        assert main(["dieudonne", action, "--json", json.dumps(payload)]) == 2
        assert capsys.readouterr() == ("", "error: V must have the size of F\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["np", "dim", "--json", DEEP],
            ["np", "construct", "--json", DEEP],
            ["weil", "verify", "--json", DEEP],
            ["weil", "classify", "--json", DEEP],
            ["cartier", "mul", "--x", DEEP, "--y", "{}"],
            ["cartier", "mul", "--x", '{"p": 2, "m": 1, "vcap": 2, "terms": []}', "--y", DEEP],
            ["cartier", "act", "--x", DEEP, "--w", "1"],
            ["dieudonne", "a-number", "--json", DEEP],
            ["dieudonne", "np-display", "--json", DEEP],
            ["dieudonne", "np-sigma-trivial", "--json", DEEP],
            ["semimod", "normalize", "--json", DEEP],
            ["semimod", "dual", "--json", DEEP],
        ],
    )
    def test_deeply_nested_payload_is_2(self, capsys, argv):
        # json.loads recurses once per level and once raised RecursionError
        # out of main
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: JSON payload nested too deeply\n"

    def test_deeply_nested_payload_from_stdin_or_a_file_is_2(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr("sys.stdin", io.StringIO(DEEP))
        assert main(["np", "dim", "--json", "-"]) == 2
        path = tmp_path / "deep.json"
        path.write_text("{\"pairs\": %s}" % DEEP)
        assert main(["np", "dim", "--json", str(path)]) == 2
        assert capsys.readouterr() == ("", "error: JSON payload nested too deeply\n" * 2)

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_weil_trace_n_below_one_is_2(self, capsys, n):
        # n = 0 once printed a Weil number for q = 1, n = -3 used q = 0.125
        assert main(["weil-trace", "--beta", "1", "--p", "2", "--n", n]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "n must be >= 1" in err

    def test_cartier_working_precision_cap_is_inclusive(self, capsys):
        # <1> + <1> at V-cap A carries on diagonal 0 at precision A + 2 +
        # phi*(A + 1) guard digits, phi = euler_phi(p^m - 1), since 2 + p^A has
        # as many base-p digits as 1 + p^A: 3A + 4 over F_4, 2A + 3 over F_2
        def one(p, m, vcap, times=2):
            return json.dumps({"p": p, "m": m, "vcap": vcap, "terms": [{"v": 0, "f": 0, "c": "1"}] * times})

        at_cap = one(2, 2, (MAX_WORKING_PRECISION - 4) // 3)
        assert 3 * ((MAX_WORKING_PRECISION - 4) // 3) + 4 == MAX_WORKING_PRECISION
        assert main(["cartier", "mul", "--x", at_cap, "--y", at_cap]) == 0
        assert capsys.readouterr().out == "Cartier(V^2 <1> F^2)\n"
        over_cap = one(2, 1, (MAX_WORKING_PRECISION - 2) // 2)
        assert 2 * ((MAX_WORKING_PRECISION - 2) // 2) + 3 == MAX_WORKING_PRECISION + 1
        assert main(["cartier", "mul", "--x", over_cap, "--y", over_cap]) == 2
        assert "precision %d exceeds the cap of %d" % (MAX_WORKING_PRECISION + 1, MAX_WORKING_PRECISION) in capsys.readouterr().err
        # <1> alone carries nothing, so it needs no working precision
        single = one(2, 1, (MAX_WORKING_PRECISION - 2) // 2, times=1)
        assert main(["cartier", "mul", "--x", single, "--y", single]) == 0
        assert capsys.readouterr().out == "Cartier(<1>)\n"

    def test_carry_free_huge_f_exponent_is_served(self, capsys):
        # F^(10^11) squared is one term on one diagonal: no lift ring, and
        # 2^(10^11) is never formed
        once = json.dumps({"p": 2, "m": 1, "vcap": 2, "terms": [{"v": 0, "f": 10**11, "c": "1"}]})
        assert main(["cartier", "mul", "--x", once, "--y", once]) == 0
        assert capsys.readouterr().out == "Cartier(<1> F^200000000000)\n"

    def test_precision_error_is_3(self):
        payload = json.dumps({"p": 2, "m": 1, "N": 4, "h": 2, "F": [["16", "0"], ["0", "1"]]})
        proc = run_cli("dieudonne", "np-sigma-trivial", "--json", payload)
        assert proc.returncode == 3

    def test_sigma_trivial_at_height_sixty(self, tmp_path):
        # G_{1,59} over F_2: det(T - F) by Faddeev-LeVerrier over Fraction
        # was still running after 30 s; mod p^N by Berkowitz it is instant
        path = tmp_path / "g_1_59.json"
        path.write_text(json.dumps(gmn_module(1, 59, WittContext(2, 1, 62)).to_json()))
        proc = run_cli("dieudonne", "np-sigma-trivial", "--json", str(path), timeout=60)
        assert proc.returncode == 0
        assert proc.stdout == " ".join(["1/60"] * 60) + "\n"


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


# Exit code, stdout sha256 and stderr sha256 of the help texts and the usage
# errors, with COLUMNS=80 (argparse wraps help to the terminal width).
# Generated with the parser that registered every command on every call;
# argparse words these texts differently across Python versions, and the
# rows were taken on 3.11.  The last five rows are poset chain and witness
# requests whose ends are out of order, out of the poset or equal, taken
# while chains were still built on the full poset: the interval build must
# check its ends first, in the same order.
USAGE_PINNED = [
    (['--help'], 0, 'e5a9ebe1624e13230679ed16de6e000b25ae6255fd3630dc05e781c85755348d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (['np', '--help'], 0, 'c0903de4baea0f17d9925526689c984ca87fe66fb54b8a13126c655148cfdef6', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (['np-poly', '--help'], 0, '8573ec76caf4b884a1a8a1ea48a0bd8576fca5635d8cab9777e0ec0249ee23ce', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (['weil', '--help'], 0, '753bc10545419089bb6243fad22d0bb21bca095cc12ac503a0047e0a98a72801', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (['weil-trace', '--help'], 0, '13bb9fa9f753ad5735646a8dbfe20b7b872d0cebaa909cb348b2479d2d59016e', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (['witt', '--help'], 0, '766fa5c6cff1365bc3296b998fe3b984bd6f4c7dbc6010ead5183a5310de736b', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (['cartier', '--help'], 0, '766882dcc004fe45ba1fc181bbe840a0c6f71d30094e37c9b3cb5f0524ea8a05', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (['dieudonne', '--help'], 0, '72bb0afc4d6d73df0e698d6520a5624489db7908d68caf5b29bcea6bf7a6db01', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (['semimod', '--help'], 0, '19f07a22ebc74c02143aff375b6540954dce253a3a61dd73ab87f438bd5ffb17', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (['poset', '--help'], 0, 'aeb7c929cd9ab0896e88c28fa60f738f617629ad648e560a4e4410aa68154b91', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (['-h'], 0, 'e5a9ebe1624e13230679ed16de6e000b25ae6255fd3630dc05e781c85755348d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (['np', 'dim', '-h'], 0, 'c0903de4baea0f17d9925526689c984ca87fe66fb54b8a13126c655148cfdef6', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ([], 64, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'e356ad4d52bf1bbbad810bb2a301ad3ac65b0e9e4e316b96c42796cea29dd38d'),
    (['frobnicate'], 64, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '90f1806fb208082f176a9fdb2d219467af0b79aaaa81864242a01084e79201d7'),
    (['--format', 'json'], 64, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'e356ad4d52bf1bbbad810bb2a301ad3ac65b0e9e4e316b96c42796cea29dd38d'),
    (['--format', 'xml', 'np', 'dim', '--pairs', '(1,1)'], 64, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '5daebf165c90d2a58e4f142602d5a34048a15fe557c59f938e93619a1acb8337'),
    (['--format=xml', 'np', 'dim', '--pairs', '(1,1)'], 64, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '5daebf165c90d2a58e4f142602d5a34048a15fe557c59f938e93619a1acb8337'),
    (['--format'], 64, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '895b4574f0cce9cc907d14932b48f80b3c428f7a0ff10fba6b07c22e6abc3956'),
    (['--format', 'np', 'dim', '--pairs', '(1,1)'], 64, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'fbe4d803829be96be463501be82e3c55e09010f08c6f2b9409fada66203cd7eb'),
    (['--fo', 'json', 'np', 'dim', '--pairs', '(1,1)'], 0, '03b3dfa00ec3cc4e6132aa1a9c1bf822f1f8fec71c868b1af259bc791bd48b52', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (['--format=json', 'np', 'dim', '--pairs', '(1,1)'], 0, '03b3dfa00ec3cc4e6132aa1a9c1bf822f1f8fec71c868b1af259bc791bd48b52', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (['--', 'np', 'dim', '--pairs', '(1,1)'], 64, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '11613590f3931eb771aa74beebc2b0d92192e1230f7ead1a45a41b50fc37b335'),
    (['np', 'dim', '--pai', '(1,1)'], 0, '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (['np', 'dim', '--pairs', '(1,1)', 'extra'], 64, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '4ee6bd91353209067d3c1bdc6576595044fde83ba78ab029179b67022a680dde'),
    (['np', 'dim', '--pairs', '(1,1)', '--format', 'json'], 64, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'a6373bd6fd5bea67e53d59b37ae5a93d00b502dab40329be2c6008c7e4fec26f'),
    (['np', 'frobnicate', '--pairs', '(1,1)'], 64, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'bea1b24bdb4ec2f4bdab2aff09914332881de9120b02d428f89bbf9f62412681'),
    (['np'], 64, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '4070d684d8918d01639b2981ce2710aa7787ece80cfd69e0550421bbbedd9a7b'),
    (['np', 'compare', '--a', '(1,1)'], 64, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '6a6aa205c77ebaee27d0133104557f27407b45603c693908e4c1ae44df2d206a'),
    (['np-poly', '--coeffs', '1,2'], 64, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '36b7739ae01044e877f11595e37c4df1969bdc331be927c618d3530cbb33b53f'),
    (['np-poly', '--coeffs', '1,2', '--p', 'x'], 64, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '98cda6a907ffa14fbf71e43df3272b52a3f9c1972dd8ba919df59425eb505616'),
    (['weil', 'verify', '--minpoly', '1,2'], 64, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '3e1cfb791d83b9f0050b3fe9e790b86e9b4f56e6bb9ef038f639c2a5254c00fc'),
    (['weil-trace', '--beta', '1', '--p', '2'], 64, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'e0ab6326531fcd65a22ef29b43b7d77e3e63e8e049d230f5ea6dae163b2e1a76'),
    (['witt', 'add', '--a', '1'], 64, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'ed997fd1be6d48cbc558c48e3d0fbcaac324242d488a3054a070fe33639ef9b9'),
    (['witt', 'ghost', '--p', '3'], 64, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '6b330d313b3af8db765b2fc4d2d8e205669196df92944870a03bb396d95f081a'),
    (['cartier', 'mul'], 64, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'a2919f1daf8fbcd1d60d918478a293ad70da00a842b73148c7554ceb3e1b60a6'),
    (['dieudonne', 'gmn', '--m', '1'], 64, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'badf0b225e9c29495c2d11c58331b733160fab441481c24c812253f2f7bc02f1'),
    (['semimod', 'from-jumps', '--m', '2', '--n', '3'], 64, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'cdf58588d2942d5665dcc681d238b52c0ab12118d53e2b7c9fd00ee48b0f1d2d'),
    (['poset', 'build', '--h', '4'], 64, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '02ffde7431f72614749d8f99664f71ca9535e17fcde0caaa608f7ac8d3b33493'),
    (['poset', 'chain', '--h', '5', '--d', '2'], 64, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '56b7978487e2ef3adb5df1d08e18af5e50606fc1e58cdcbeb47a38945a15fe25'),
    (['poset', 'chain', '--h', '4', '--d', '2', '--from', 'ord', '--to', 'iso'], 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'caa3269d26966cbb3dc59f357f015c4dca454beab68d470f7365aca0bbfe6759'),
    (['poset', 'chain', '--h', '6', '--d', '3', '--symmetric', '--from', '(1,2)+(1,0)+(0,1)+(0,1)', '--to', 'ord'], 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '6639118fc367e1a71b1d5f7d9d9899e3bc44124d9802d2230c1a94dd737ea204'),
    (['poset', 'chain', '--h', '4', '--d', '2', '--from', 'iso', '--to', 'iso'], 0, '219cbcf202ed52a09d366c386ad672ea2a9345ca95f915ce76071718d93e378a', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    (['poset', 'chain', '--h', '4', '--d', '2', '--from', 'iso', '--to', '(1,1)'], 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'df46e5fa9963eacb80a93f20a0a78ba7fedfa8caed80bedaf4b257dcc426bb5b'),
    (['poset', 'witness', '--h', '4', '--d', '2', '--from', 'ord', '--to', 'iso'], 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'b176a2e473c71371a0bb19cc58a651427d14cbb4d0ac2df19fd366ce0a642550'),
]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="help and usage texts pinned on Python 3.11")
@pytest.mark.parametrize(
    "argv, code, out_digest, err_digest", USAGE_PINNED, ids=[" ".join(argv) or "(none)" for argv, *_ in USAGE_PINNED]
)
def test_usage_pinned(capsys, monkeypatch, argv, code, out_digest, err_digest):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("ISOLAB_PRECISION", raising=False)
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == out_digest
    assert hashlib.sha256(err.encode()).hexdigest() == err_digest


@pytest.mark.parametrize("argv", [argv for argv, *_ in USAGE_PINNED + PINNED])
def test_one_command_parser_reads_as_the_full_parser(capsys, monkeypatch, argv):
    # the full parser is the oracle of every request, on any Python version
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("ISOLAB_PRECISION", raising=False)
    code = main(argv)
    out = capsys.readouterr()
    monkeypatch.setattr(cli, "_command_named", lambda argv: None)
    assert main(argv) == code
    assert capsys.readouterr() == out


# (argv, the command whose parser main builds or None for every command's,
# whether main builds a parser at all); the ids keep the names these rows
# had when every request built a parser
BUILDS = [
    (["np", "dim", "--pairs", "(1,1)"], "np", False),
    (["--format", "json", "weil-trace", "--beta", "1", "--p", "2", "--n", "1"], "weil-trace", False),
    (["--format=json", "--format", "text", "poset", "build", "--h", "4", "--d", "2"], "poset", True),
    (["--fo", "json", "np", "dim", "--pairs", "(1,1)"], None, True),
    (["--help"], None, True),
    (["-h", "np"], None, True),
    (["--", "np", "dim", "--pairs", "(1,1)"], None, True),
    ([], None, True),
    (["frobnicate"], None, True),
    (["--format", "np", "dim", "--pairs", "(1,1)"], None, True),
    (["np", "dim", "--pai", "(1,1)"], "np", True),
    (["np", "dim", "--pairs=(1,1)"], "np", True),
    (["poset", "build", "--h", "4", "--h", "5", "--d", "2"], "poset", True),
    (["witt", "ghost", "--p", "x", "--coords", "1"], "witt", True),
    (["np", "dim", "-h"], "np", True),
    # well-formed, then refused for a missing flag: the parser is built for
    # the usage message only
    (["np", "compare", "--a", "(1,1)"], "np", True),
]


@pytest.mark.parametrize(
    "argv, command, builds",
    BUILDS,
    ids=["argv%d-%s" % (i, command) for i, (_, command, _) in enumerate(BUILDS)],
)
def test_main_builds_the_parser_of_the_named_command(capsys, monkeypatch, argv, command, builds):
    # a well-formed request builds no parser unless main refuses it; any
    # other builds one, once, through the module attribute perfbench traces
    calls = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: calls.append(command) or build(command))
    main(argv)
    assert calls == ([command] if builds else [])


def test_a_request_builds_only_its_command(capsys, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, **kwargs):
        built.append(kwargs["prog"])
        init(self, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    assert main(["np", "dim", "--pairs", "(1,1)"]) == 0
    assert built == []
    assert main(["np", "dim", "--pai", "(1,1)"]) == 0
    assert built == ["isocrystal-lab", "isocrystal-lab np"]
    built.clear()
    cli.build_parser()
    assert built == ["isocrystal-lab"] + ["isocrystal-lab " + name for name in cli._ACTIONS]


def _readme_requests():
    """The argv of every `isocrystal-lab ...` example in README.md."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    requests = []
    for line in readme.read_text().splitlines():
        if line.startswith("isocrystal-lab "):
            argv = shlex.split(line, comments=True)[1:]
            requests.append(argv[: argv.index(">")] if ">" in argv else argv)
    return requests


README_REQUESTS = _readme_requests()
PINNED_REQUESTS = [argv for argv, *_ in PINNED + SIGMA_PINNED + USAGE_PINNED] + README_REQUESTS

# values argparse reads and accepts, then near misses (flag-like, out of
# int's range, or not an int)
_INT_VALUES = (("0", "1", "2", "3", "5", "7", "-1", "-3", " 4", "+2", "1_0"), ("", "x", "1.5", "-.5", "-x", "9" * 5000))
_TEXT_VALUES = (("(1,1)", "2*(1,0)+(0,1)", "1,2", "1,-1,2", "{}", "iso", "ord", "np", "", "-", "-1", "-.5"), ("-1.", "-x", "--a", "-1 2", "--"))
_STRAY = ("extra", "-h", "--help", "--", "--format", "json", "-x", "--nope", "-5", "--p=2")


def _option_tokens(rng, flag, kwargs):
    if kwargs.get("action") == "store_true":
        value = None
    else:
        good, bad = _INT_VALUES if "type" in kwargs else _TEXT_VALUES
        value = rng.choice(good if rng.random() < 0.9 else bad)
    shape = rng.random()
    if shape < 0.03 and len(flag) > 3:
        flag = flag[:-1]  # an abbreviation
    elif shape < 0.06 and value is not None:
        return [flag + "=" + value]
    elif shape < 0.08:
        value = None  # a missing value, unless the option takes none
    return [flag] if value is None else [flag, value]


def _random_argv(rng):
    """One argv from the command tables: well-formed requests, and near
    misses that argparse must read (or refuse) itself."""
    argv = []
    for _ in range(rng.choice((0, 0, 1, 2))):
        if rng.random() < 0.9:
            argv += ["--format", rng.choice(cli._FORMATS)]
        else:
            argv += rng.choice((["--format", "xml"], ["--format=json"], ["--fo", "json"], ["--format"]))
    command = rng.choice(tuple(cli._COMMANDS))
    if rng.random() < 0.03:
        return argv + rng.choice((["frobnicate"], ["--", command], []))
    options = list(cli._COMMANDS[command][1])
    picked = [option for option in options if rng.random() < (0.95 if option[1].get("required") else 0.3)]
    rng.shuffle(picked)
    if picked and rng.random() < 0.05:
        picked.append(rng.choice(picked))  # a repeated option
    tokens = [token for flag, kwargs in picked for token in _option_tokens(rng, flag, kwargs)]
    if None not in cli._ACTIONS[command] and rng.random() < 0.97:
        action = rng.choice(tuple(cli._ACTIONS[command])) if rng.random() < 0.95 else "frobnicate"
        tokens.insert(0 if rng.random() < 0.9 else rng.randrange(len(tokens) + 1), action)
    if rng.random() < 0.05:
        tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(_STRAY))
    return argv + [command] + tokens


def _agrees_with_argparse(argv):
    """Whether argv is read from the tables; asserts that the namespace read
    there is the one the full parser returns."""
    fast = cli._exact_args(argv)
    if fast is not None:
        assert vars(fast) == vars(cli.build_parser().parse_args(argv)), argv
    return fast is not None


def test_fast_path_agrees_with_argparse_on_the_pinned_requests(capsys):
    assert len(README_REQUESTS) >= 10
    read = [argv for argv in PINNED_REQUESTS if _agrees_with_argparse(argv)]
    assert all(argv in read for argv in README_REQUESTS)
    assert len(read) >= len(PINNED) + len(SIGMA_PINNED)


def test_fast_path_agrees_with_argparse_on_generated_argv(capsys):
    rng = random.Random(18)
    generated = [_random_argv(rng) for _ in range(1500)]
    read = sum(_agrees_with_argparse(argv) for argv in generated)
    # both kinds occur often enough to test anything
    assert 300 <= read <= 1200


def test_main_reads_as_argparse_when_the_fast_path_is_off(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("ISOLAB_PRECISION", raising=False)
    rng = random.Random(7)
    for argv in PINNED_REQUESTS + [_random_argv(rng) for _ in range(200)]:
        outcomes = []
        for fast in (cli._exact_args, lambda argv: None):
            monkeypatch.setattr(cli, "_exact_args", fast)
            monkeypatch.setattr("sys.stdin", io.StringIO(""))
            outcomes.append((main(argv), capsys.readouterr()))
        assert outcomes[0] == outcomes[1], argv


def test_importing_the_cli_loads_no_dataclass_machinery():
    code = "import sys, isolab.cli; print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout == "[]\n"


def test_every_cap_is_named_in_the_readme():
    # a cap refuses requests, so README.md names each module-level MAX_*
    # constant under src/isolab, as module.NAME
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    caps = [
        "%s.%s" % (path.stem, target.id)
        for path in sorted((root / "src" / "isolab").glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.startswith("MAX_")
    ]
    assert len(caps) >= 13
    assert [cap for cap in caps if cap not in readme] == []
