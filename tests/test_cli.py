"""Command-line interface: output formats, exit codes, determinism."""

import hashlib
import json
import re

import pytest
from click.testing import CliRunner

import spin7.cross
from spin7.cli import main
from spin7.cross import CrossProduct
from spin7.forms import AltForm, cayley_form, parse_form
from spin7.linalg import Vector


@pytest.fixture()
def runner():
    return CliRunner()


class TestPhi:
    def test_text_reparses_to_same_form(self, runner):
        result = runner.invoke(main, ["phi"])
        assert result.exit_code == 0
        assert parse_form(result.output.strip()) == cayley_form()

    def test_json(self, runner):
        result = runner.invoke(main, ["phi", "--format", "json"])
        assert result.exit_code == 0
        obj = json.loads(result.output)
        assert obj["degree"] == 4
        assert len(obj["terms"]) == 14
        assert obj["terms"]["0145"] == "1"
        assert obj["terms"]["0257"] == "-1"

    def test_bad_flag(self, runner):
        result = runner.invoke(main, ["phi", "--format", "xml"])
        assert result.exit_code == 2


class TestTable:
    def test_json_entries(self, runner):
        result = runner.invoke(main, ["table", "--format", "json"])
        obj = json.loads(result.output)
        assert obj["1,2"] == "+3"
        assert obj["2,1"] == "-3"
        assert obj["5,5"] == "-0"
        assert len(obj) == 49

    def test_text_grid_has_e0_diagonal(self, runner):
        result = runner.invoke(main, ["table"])
        assert result.exit_code == 0
        assert "-e0" in result.output

    def test_csv(self, runner):
        result = runner.invoke(main, ["table", "--format", "csv"])
        lines = result.output.strip().splitlines()
        assert lines[0] == "x,1,2,3,4,5,6,7"
        assert len(lines) == 8


class TestCross:
    def test_known_product(self, runner):
        result = runner.invoke(
            main,
            ["cross", "-u", "1,0,0,0,0,0,0,0", "-v", "0,1,0,0,0,0,0,0",
             "-w", "0,0,0,0,1,0,0,0"],
        )
        assert result.exit_code == 0
        assert result.output.strip() == "0,0,0,0,0,1,0,0"

    def test_bad_vector(self, runner):
        result = runner.invoke(main, ["cross", "-u", "1,2", "-v", "0," * 7 + "0",
                                      "-w", "0," * 7 + "0"])
        assert result.exit_code == 2

    def test_non_ascii_digit_vector(self, runner):
        result = runner.invoke(main, ["cross", "-u", "٣" + ",0" * 7, "-v", "0," * 7 + "0",
                                      "-w", "0," * 7 + "0"])
        assert result.exit_code == 2
        assert "malformed rational" in result.output

    def test_cross2(self, runner):
        result = runner.invoke(
            main, ["cross2", "-u", "0,1,0,0,0,0,0,0", "-v", "0,0,1,0,0,0,0,0"]
        )
        assert result.output.strip() == "0,0,0,1,0,0,0,0"

    def test_cross2_rejects_e0(self, runner):
        result = runner.invoke(
            main, ["cross2", "-u", "1,0,0,0,0,0,0,0", "-v", "0,0,1,0,0,0,0,0"]
        )
        assert result.exit_code == 2


class TestParse:
    def test_normalization(self, runner):
        result = runner.invoke(main, ["parse", "e^{1045}"])
        assert result.exit_code == 0
        assert result.output.strip() == "-e^{0145}"

    @pytest.mark.parametrize(
        "expr,fragment",
        [
            ("e^{0045}", "repeated index"),
            ("e^{01}+e^{012}", "mixed degrees"),
            ("1/0*e^{01}", "zero denominator"),
        ],
    )
    def test_error_classes_exit_2(self, runner, expr, fragment):
        result = runner.invoke(main, ["parse", expr])
        assert result.exit_code == 2
        assert fragment in result.output
        assert "position" in result.output

    @pytest.mark.parametrize("expr,position", [("9" * 5000 + "*e1", 0),
                                               ("1/" + "9" * 5000 + "*e1", 2)])
    def test_oversized_numeral_exit_2(self, runner, expr, position):
        # int() refuses text numerals past Python's 4300-digit limit
        result = runner.invoke(main, ["parse", expr])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert f"5000-digit numeral is too long (at position {position})" in result.output

    @pytest.mark.parametrize("expr", ["e²", "²*e1", "1/²*e1", "e^{0²}", "٣*e1"])
    def test_non_ascii_digits_exit_2(self, runner, expr):
        # str.isdigit accepts these; int() then crashes or reads them as 2/3
        result = runner.invoke(main, ["parse", expr])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "position" in result.output


class TestVerify:
    def test_selfdual_passes(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "selfdual"])
        assert result.exit_code == 0
        obj = json.loads(result.output)
        assert obj["verdict"] == "pass"
        assert obj["reports"][0]["suite"] == "selfdual"
        assert obj["reports"][0]["failures"] == []

    def test_text_format(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "claim1", "--format", "text"])
        assert result.exit_code == 0
        assert "claim1: pass" in result.output

    def test_text_format_names_each_failure(self, runner, monkeypatch):
        # the lemma on the Cayley form with the sign of e^{0123} flipped
        terms = dict(cayley_form().terms)
        terms[(0, 1, 2, 3)] = -1
        cp = CrossProduct(AltForm(4, terms))
        monkeypatch.setattr(spin7.cross, "default_cross", lambda: cp)
        result = runner.invoke(main, ["verify", "--suite", "lemma", "--format", "text"])
        assert result.exit_code == 1
        lines = result.output.splitlines()
        assert lines[0] == "lemma: fail (32768 cases)"
        lhs, rhs = cp.composition_sides(*(Vector.basis(8, i) for i in (0, 1, 0, 4, 6)))
        assert lines[1] == f"  FAIL (e0; e1; e0; e4; e6): expected {rhs}, got {lhs}"

    def test_claim1_details(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "claim1"])
        obj = json.loads(result.output)
        witness = obj["reports"][0]["details"]["witness"]
        assert (witness["lam"], witness["mu"], witness["basis_index"]) == (1, 2, 4)

    def test_unknown_suite_exit_2(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "claimX"])
        assert result.exit_code == 2

    def test_timings_go_to_stderr_only(self, runner):
        plain = runner.invoke(main, ["verify", "--suite", "claim1"])
        timed = runner.invoke(main, ["verify", "--suite", "claim1", "--timings"])
        assert plain.exit_code == timed.exit_code == 0
        assert timed.stdout == plain.stdout
        assert plain.stderr == ""
        lines = timed.stderr.splitlines()
        assert len(lines) == 2
        assert re.fullmatch(r"claim1: \d+\.\d{3} s, 50 cases", lines[0])
        assert re.fullmatch(r"total: \d+\.\d{3} s, 50 cases", lines[1])

    def test_deterministic_output(self, runner):
        first = runner.invoke(main, ["verify", "--suite", "claim2"])
        second = runner.invoke(main, ["verify", "--suite", "claim2"])
        assert first.output == second.output


class TestStab:
    def test_print_dims(self, runner):
        assert runner.invoke(main, ["stab", "--group", "spin7", "--print-dim"]).output.strip() == "21"
        assert runner.invoke(main, ["stab", "--group", "g2", "--print-dim"]).output.strip() == "14"

    def test_print_basis_shape(self, runner):
        result = runner.invoke(main, ["stab", "--group", "g2", "--print-basis"])
        basis = json.loads(result.output)
        assert len(basis) == 14
        assert len(basis[0]) == 7 and len(basis[0][0]) == 7

    @pytest.mark.parametrize(
        "group,digest",
        [
            ("spin7", "439b9290dde2a7de1f5de1629ada09fa9af511dea059dc50b2bfed34bdbbde14"),
            ("g2", "a435c69c053ad180ceebb4d997f077c146375e7abe10be78af3474e2681d10d2"),
        ],
    )
    def test_print_basis_is_pinned(self, runner, group, digest):
        result = runner.invoke(main, ["stab", "--group", group, "--print-basis"])
        assert result.exit_code == 0
        assert hashlib.sha256(result.output.encode()).hexdigest() == digest

    def test_requires_group(self, runner):
        assert runner.invoke(main, ["stab"]).exit_code == 2

    @pytest.mark.parametrize(
        "group,text,obj",
        [
            ("spin7", "group: spin7\ndim: 21\n"
                      "decomposition: 21+7=28, intersection 0, bracket closed True\n",
             '{"dim":21,"group":"spin7"}\n'),
            ("g2", "group: g2\ndim: 14\n", '{"dim":14,"group":"g2"}\n'),
        ],
    )
    def test_output_is_pinned(self, runner, group, text, obj):
        result = runner.invoke(main, ["stab", "--group", group])
        assert (result.exit_code, result.output) == (0, text)
        result = runner.invoke(main, ["stab", "--group", group, "--format", "json"])
        assert (result.exit_code, result.output) == (0, obj)

    def test_g2_text_skips_decomposition(self, runner, monkeypatch):
        def unexpected():
            raise AssertionError("decompose_so8 called for g2")

        monkeypatch.setattr("spin7.cli.decompose_so8", unexpected)
        result = runner.invoke(main, ["stab", "--group", "g2"])
        assert (result.exit_code, result.output) == (0, "group: g2\ndim: 14\n")


class TestOmega:
    def test_zero_matrix(self, runner, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps([["0"] * 8 for _ in range(8)]))
        result = runner.invoke(main, ["omega", "--rho", str(path)])
        assert result.exit_code == 0
        assert "residual: 0" in result.output
        assert "in_g2: True" in result.output

    def test_spin7_basis_element_roundtrip(self, runner, tmp_path):
        basis_out = runner.invoke(main, ["stab", "--group", "spin7", "--print-basis"])
        first = json.loads(basis_out.output)[0]
        path = tmp_path / "rho.json"
        path.write_text(json.dumps(first))
        result = runner.invoke(main, ["omega", "--rho", str(path), "--format", "json"])
        assert result.exit_code == 0
        obj = json.loads(result.output)
        assert obj["residual_zero"] is True
        assert obj["omega_antisymmetric"] is True
        assert obj["in_g2"] is False

    def test_symmetric_input_names_entry(self, runner, tmp_path):
        rows = [["0"] * 8 for _ in range(8)]
        rows[0][1] = "1"
        rows[1][0] = "1"
        path = tmp_path / "sym.json"
        path.write_text(json.dumps(rows))
        result = runner.invoke(main, ["omega", "--rho", str(path)])
        assert result.exit_code == 2
        assert "not antisymmetric at (0, 1)" in result.output

    def test_unparseable_file(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('[["0.5"]]')
        assert runner.invoke(main, ["omega", "--rho", str(path)]).exit_code == 2

    def test_deeply_nested_file(self, runner, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        result = runner.invoke(main, ["omega", "--rho", str(path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Error: cannot read rho matrix:" in result.output

    def test_nested_entry_is_named_not_echoed(self, runner, tmp_path):
        path = tmp_path / "deep900.json"
        path.write_text("[" * 900 + "]" * 900)
        result = runner.invoke(main, ["omega", "--rho", str(path)])
        assert result.exit_code == 2
        line = next(x for x in result.output.splitlines() if x.startswith("Error:"))
        assert len(line) < 200
        assert "entry (0, 0)" in line and "list" in line

    def test_long_literal_is_named_not_echoed(self, runner, tmp_path):
        rows = [["0"] * 8 for _ in range(8)]
        rows[0][0] = "1.5" + "0" * 5000
        path = tmp_path / "long.json"
        path.write_text(json.dumps(rows))
        result = runner.invoke(main, ["omega", "--rho", str(path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert len(result.stderr.encode()) < 300
        line = next(x for x in result.stderr.splitlines() if x.startswith("Error:"))
        assert "entry (0, 0)" in line and "malformed rational literal" in line

    def test_missing_file(self, runner):
        assert runner.invoke(main, ["omega", "--rho", "/nonexistent.json"]).exit_code == 2


class TestSymmetries:
    def test_limit_json(self, runner):
        result = runner.invoke(main, ["symmetries", "--limit", "3", "--format", "json"])
        obj = json.loads(result.output)
        assert obj["count"] == 3
        assert len(obj["matrices"]) == 3
        assert len(obj["matrices"][0]) == 8

    def test_text_word_format(self, runner):
        result = runner.invoke(main, ["symmetries", "--limit", "2"])
        lines = result.output.strip().splitlines()
        assert lines[0] == "count: 2"
        assert len(lines) == 3

    def test_text_words_match_json_matrices(self, runner):
        text = runner.invoke(main, ["symmetries", "--limit", "40"]).output.splitlines()[1:]
        matrices = json.loads(
            runner.invoke(main, ["symmetries", "--limit", "40", "--format", "json"]).output
        )["matrices"]
        assert len(text) == len(matrices) == 40
        for line, rows in zip(text, matrices):
            words = []
            for i in range(8):
                r = next(r for r in range(8) if rows[r][i] != "0")
                words.append(f"{i}->{'-' if rows[r][i].startswith('-') else '+'}{r}")
            assert line == " ".join(words)

    def test_negative_limit(self, runner):
        result = runner.invoke(main, ["symmetries", "--limit", "-1"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Error:" in result.output
