"""Command-line interface: expression parsing, rendering, exit codes,
and fixture idempotence."""

import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from abpscalc import cli
from abpscalc.extquot import MAX_RANK
from abpscalc.langlands import FormalParameter, PadicGroup, line

ROOT = Path(__file__).resolve().parent.parent

ROUND_TRIP = [
    "1 + zeta + zeta*S[3]",
    "1 + x*zeta*S[2] + x^-1*zeta*S[2]",
    "1 + zeta + zeta + zeta*xi + zeta*xi",
    "1 + z*zeta + z^-1*zeta + zeta + zeta",
    "1 + z'*zeta + z'^-1*zeta + z*zeta + z^-1*zeta",
    "q^{-1/2}*zeta + q^{1/2}*zeta",
    "zeta*S[4]",
    "eta2*S[2] + 1*S[3]",
]


class TestParser:
    @pytest.mark.parametrize("text", ROUND_TRIP)
    def test_round_trip(self, text):
        phi = cli.parse_parameter(text)
        assert str(cli.parse_parameter(str(phi))) == str(phi)

    def test_parentheses_distribute(self):
        a = cli.parse_parameter("zeta*(S[3]+S[1])+1")
        b = cli.parse_parameter("zeta*S[3] + zeta*S[1] + 1")
        assert str(a) == str(b) == "1 + zeta + zeta*S[3]"

    def test_omitted_std_factor_is_trivial_rep(self):
        assert str(cli.parse_parameter("zeta")) == "zeta"

    def test_q_variants(self):
        assert str(cli.parse_parameter("q*zeta")) == str(cli.parse_parameter("q^1*zeta"))
        assert str(cli.parse_parameter("q^{2/2}*zeta")) == str(cli.parse_parameter("q*zeta"))
        phi = cli.parse_parameter("q^{1/2}*zeta + q^{-1/2}*zeta")
        assert str(cli.parse_parameter(str(phi))) == str(phi)

    def test_variable_powers(self):
        phi = cli.parse_parameter("x^2*zeta + x^-2*zeta")
        assert len(phi.summands) == 2

    @pytest.mark.parametrize("bad", ["zeta*(", "zeta)", "zeta**2", "+zeta",
                                     "zeta*1*eta2", "zeta*%"])
    def test_syntax_errors(self, bad):
        with pytest.raises(cli.ExpressionError):
            cli.parse_parameter(bad)


class TestParamCommand:
    def test_example_record(self, capsys):
        code = cli.run(["param", "--group", "Sp4",
                        "--expr", "zeta*(S[3]+S[1])+1"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["centralizer"] == "S(O4xO1)"
        assert record["a_group"] == "(Z/2)^2"
        assert record["discrete"] and record["cuspidal"]
        assert cli.validate_record(record)

    # odd and even orthogonal groups: s_order is |A|, halved exactly when
    # the center of the dual group maps to the product of all generators
    @pytest.mark.parametrize("group, expr, expected", [
        (("SO", 5), "zeta*S[4]",
         {"centralizer": "Sp4", "a_group": "Z/2", "s_order": 1}),
        (("SO", 5), "zeta*S[2]+1*S[2]",
         {"centralizer": "Sp2xSp2", "a_group": "(Z/2)^2", "s_order": 2}),
        (("SO", 4), "zeta*S[3]+zeta",
         {"centralizer": "S(O4)", "a_generators": ["z1z3"],
          "a_connected": "Z/2", "s_order": 1}),
        (("SO", 6), "zeta*S[3]+1*S[3]",
         {"centralizer": "S(O3xO3)", "a_group": "Z/2", "a_connected": "1",
          "s_order": 1}),
    ])
    def test_orthogonal_records(self, group, expr, expected):
        record = cli.param_record(PadicGroup(*group), cli.parse_parameter(expr))
        assert {k: record[k] for k in expected} == expected
        assert cli.validate_record(record)

    def test_schema_keys_are_stable(self, capsys):
        cli.run(["param", "--group", "Sp4", "--expr", "zeta*(S[3]+S[1])+1"])
        record = json.loads(capsys.readouterr().out)
        assert set(record) == set(cli.SCHEMA)

    def test_schema_rejects_bad_records(self):
        with pytest.raises(ValueError):
            cli.validate_record({"group": "Sp4(F)"})
        good = {k: t() for k, t in cli.SCHEMA.items()}
        assert cli.validate_record(good)
        good["s_order"] = "four"
        with pytest.raises(ValueError):
            cli.validate_record(good)


class TestTables:
    def rows(self, capsys, argv):
        assert cli.run(["--format", "json"] + argv) == 0
        return json.loads(capsys.readouterr().out)

    def test_sp6_ordinary(self, capsys):
        rows = self.rows(capsys, ["springer", "--group", "Sp6"])
        assert len(rows) == 10
        assert all(r["block"] == "T" for r in rows)

    def test_sp6_generalized(self, capsys):
        rows = self.rows(capsys, ["springer", "--group", "Sp6", "--generalized"])
        assert len(rows) == 16
        blocks = [r["block"] for r in rows]
        assert blocks.count("T") == 10 and blocks.count("M") == 5
        assert blocks.count("H") == 1
        h = next(r for r in rows if r["block"] == "H")
        assert h["symbol"] == "(0,2,4|-)" and h["label"] == "1"
        m = next(r for r in rows if r["u"] == "(6)" and r["block"] == "M")
        assert m["symbol"] == "(-|3)" and m["label"] == "(2,-)'"

    def test_so4_generalized(self, capsys):
        rows = self.rows(capsys, ["springer", "--group", "SO4", "--generalized"])
        assert len(rows) == 5
        twist = {r["label"]: r["label_times_sign"] for r in rows}
        assert twist["{-,2}"] == "{-,1.1}"
        assert twist["{1,1}"] == "{1,1}'"

    def test_cuspidal_families(self, capsys):
        sp = self.rows(capsys, ["cuspidal", "--family", "Sp", "--max", "10"])
        assert [r["group"] for r in sp] == ["Sp2", "Sp6", "Sp12", "Sp20"]
        so = self.rows(capsys, ["cuspidal", "--family", "SO", "--max", "9"])
        assert [r["group"] for r in so] == ["SO1", "SO4", "SO9"]
        assert so[-1]["partition"] == "(5,3,1)"

    def test_extquot_families(self, capsys):
        rows = self.rows(capsys, ["extquot", "--rank", "2"])
        assert len(rows) == 15
        kinds = [r["kind"] for r in rows]
        assert kinds.count("generic") == 1 and kinds.count("special") == 12

    def test_abps_table(self, capsys):
        rows = self.rows(capsys, ["abps"])
        assert len(rows) == 21

    def test_support_rows(self, capsys):
        rows = self.rows(capsys, ["support", "--group", "Sp4",
                                  "--expr", "zeta*(S[3]+S[1])+1"])
        assert len(rows) == 4
        assert {r["levi"] for r in rows} == {"SO5", "GL1xGL1xSO1"}


class TestFormats:
    def test_tsv(self, capsys):
        assert cli.run(["--format", "tsv", "springer", "--group", "SO4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split("\t")[0] == "u"
        assert len(lines) == 5

    def test_markdown_has_separator(self, capsys):
        assert cli.run(["springer", "--group", "SO4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert set(lines[1].replace("|", "").split()) == {"-" * 1} or \
            all(c in "-| " for c in lines[1])


class TestFixtures:
    def test_idempotent(self, tmp_path, capsys):
        first = cli.run(["fixtures", "--all", "--dir", str(tmp_path)])
        capsys.readouterr()
        assert first == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            f"{name}.{ext}" for name in cli.FIXTURES for ext in ("md", "json"))
        second = cli.run(["fixtures", "--all", "--dir", str(tmp_path)])
        assert second == 0
        assert capsys.readouterr().out == ""

    def test_single_fixture(self, tmp_path, capsys):
        assert cli.run(["fixtures", "--name", "table4", "--dir", str(tmp_path)]) == 1
        capsys.readouterr()
        assert {p.name for p in tmp_path.iterdir()} == {"table4.md", "table4.json"}

    def test_checked_in_fixtures_are_current(self, tmp_path, capsys):
        import pathlib
        stored = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
        assert stored.is_dir()
        assert cli.run(["fixtures", "--all", "--dir", str(tmp_path)]) == 1
        capsys.readouterr()
        for path in sorted(tmp_path.iterdir()):
            assert (stored / path.name).read_text() == path.read_text()


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.run(["nonsense"])
        assert exc.value.code == 2

    def test_domain_error_is_1(self, capsys):
        assert cli.run(["param", "--group", "Sp5", "--expr", "1"]) == 1
        assert "ValueError" in capsys.readouterr().err

    def test_syntax_error_is_1(self, capsys):
        assert cli.run(["param", "--group", "Sp4", "--expr", "zeta*("]) == 1
        assert "ExpressionError" in capsys.readouterr().err

    def test_dimension_error_is_1(self, capsys):
        assert cli.run(["param", "--group", "Sp4", "--expr", "zeta"]) == 1
        assert "DimensionMismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("group, expr, need", [
        ("SO5", "zeta*(S[3]+S[1])+1", 4),
        ("Sp4", "zeta*S[4]", 5),
    ])
    def test_support_checks_the_dimension_first(self, group, expr, need, capsys):
        assert cli.run(["support", "--group", group, "--expr", expr]) == 1
        err = capsys.readouterr().err
        assert "DimensionMismatch" in err and f"(need {need})" in err

    @pytest.mark.parametrize("group, kind", [("GL3", "GL"), ("SL4", "SL"), ("O5", "O")])
    def test_springer_refuses_other_kinds(self, group, kind, capsys):
        assert cli.run(["springer", "--group", group]) == 1
        err = capsys.readouterr().err
        assert err.startswith("SpringerError:") and err.split()[-1] == kind

    def test_springer_on_so0_prints_one_row(self, capsys):
        assert cli.run(["--format", "json", "springer", "--group", "SO0"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1
        assert rows[0]["label"] == rows[0]["label_times_sign"] == "{-,-}"

    def test_springer_runs_the_bijectivity_check(self, wrong_sp6_label, capsys):
        assert cli.run(["springer", "--group", "Sp6", "--generalized"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"SpringerError: {wrong_sp6_label}\n"

    def test_springer_sp10_generalized_table(self, capsys):
        assert cli.run(["--format", "json", "springer", "--group", "Sp10", "--generalized"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 61

    @pytest.mark.parametrize("bound", [0, -1])
    def test_cuspidal_refuses_max_below_one(self, bound, capsys):
        assert cli.run(["cuspidal", "--family", "Sp", "--max", str(bound)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ValueError:") and "--max 1" in captured.err

    def test_extquot_refuses_negative_rank(self, capsys):
        assert cli.run(["extquot", "--rank", "-1"]) == 1
        assert f"ranks 0 to {MAX_RANK}" in capsys.readouterr().err

    def test_extquot_refuses_large_rank_before_building(self):
        # in a subprocess, so that a rank-7 build cannot hang the suite
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "abpscalc.cli", "extquot", "--rank", str(MAX_RANK + 1)],
            capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 1
        assert f"ranks 0 to {MAX_RANK}" in done.stderr


def readme_commands():
    """The ``abpscalc`` lines of the README's "Command line" block, as
    argument lists without the program name."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(l, comments=True)[1:] for l in block.splitlines()
            if l.startswith("abpscalc ")]


def test_readme_commands_run(tmp_path, capsys):
    commands = readme_commands()
    assert {argv[0] for argv in commands} == set(cli.COMMANDS)
    shutil.copytree(ROOT / "fixtures", tmp_path, dirs_exist_ok=True)
    for argv in commands:
        if argv[0] == "fixtures":
            argv = argv + ["--dir", str(tmp_path)]
        assert cli.run(argv) == 0, argv
        capsys.readouterr()
