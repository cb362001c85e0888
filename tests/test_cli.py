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
from abpscalc.combicore import Partition
from abpscalc.extquot import MAX_RANK
from abpscalc.langlands import (
    FormalParameter,
    PadicGroup,
    centralizer_restriction,
    cuspidal_support,
    enhancements,
    line,
)
from abpscalc.springer import SO, Sp, springer_blocks

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

    @pytest.mark.parametrize("text, term", [
        ("S[5]*S[1]", "S[5]*S[1]"),
        ("S[3]*zeta*S[2]", "S[3]*zeta*S[2]"),
        ("1 + (S[2]+S[3])*S[2]", "S[2]*S[2]"),
        ("S[0]+S[5]", "S[0]"),
        ("zeta*S[0]*x", "zeta*S[0]*x"),
    ])
    def test_term_with_two_or_a_zero_s_factor_is_refused(self, text, term):
        # a term is one line times one S[a] with a >= 1: a second S factor
        # was dropped and S[0] gave a parameter unequal to the one without
        with pytest.raises(cli.ExpressionError) as exc:
            cli.parse_parameter(text)
        assert str(exc.value).endswith(": " + term)


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

    def test_multiplicity_sizes_the_factor_of_a_two_dimensional_line(self, tmp_path, capsys):
        # tau + tau: the multiplicity space of tau is 2-dimensional, so
        # its factor is O2 whatever the dimension of tau itself
        chars = tmp_path / "chars.txt"
        chars.write_text("1 kind=unramified order=1 dim=1 selfdual=orthogonal\n"
                         "tau kind=ramified order=2 dim=2 selfdual=orthogonal\n")
        code = cli.run(["param", "--group", "Sp4", "--expr", "tau + tau + 1",
                        "--chars", str(chars)])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["centralizer"] == "S(O2xO1)"
        assert record["unipotent"] == "(1,1)x(1)"

    @pytest.mark.parametrize("argv, expected", [
        (["param", "--group", "Sp4", "--expr", "tau + tau + 1"],
         {"centralizer": "Sp2", "a_group": "1"}),
        (["param", "--group", "SO5", "--expr", "tau + tau"],
         {"centralizer": "O2", "a_group": "Z/2"}),
    ])
    def test_factor_of_a_symplectic_line(self, tmp_path, capsys, argv, expected):
        # the multiplicity space of tau is symplectic in the orthogonal
        # dual of Sp4 and orthogonal in the symplectic dual of SO5
        chars = tmp_path / "chars.txt"
        chars.write_text("1 kind=unramified order=1 dim=1 selfdual=orthogonal\n"
                         "tau kind=ramified order=2 dim=2 selfdual=symplectic\n")
        assert cli.run(argv + ["--chars", str(chars)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert {k: record[k] for k in expected} == expected

    def test_support_of_a_symplectic_line(self, tmp_path, capsys):
        # tau*S[2] + 1 is discrete for Sp4; it used to exit 1 with an
        # unpaired weight 0 in the factor of tau
        chars = tmp_path / "chars.txt"
        chars.write_text("1 kind=unramified order=1 dim=1 selfdual=orthogonal\n"
                         "tau kind=ramified order=2 dim=2 selfdual=symplectic\n")
        assert cli.run(["support", "--group", "Sp4", "--expr", "tau*S[2] + 1",
                        "--chars", str(chars)]) == 0
        assert "[SO5; (); 1 + tau*S[2]]" in capsys.readouterr().out

    @pytest.mark.parametrize("selfdual, code", [("orthogonal", 0), ("orthagonal", 1)])
    def test_misspelt_catalogue_value_is_refused(self, tmp_path, capsys, selfdual, code):
        # the misspelt word used to read as symplectic and end in a
        # TypeMismatch on the summand
        chars = tmp_path / "chars.txt"
        chars.write_text("1 kind=unramified order=1 dim=1 selfdual=orthogonal\n"
                         f"tau kind=ramified order=2 dim=1 selfdual={selfdual}\n")
        assert cli.run(["param", "--group", "Sp2", "--expr", "tau*S[3]",
                        "--chars", str(chars)]) == code
        err = capsys.readouterr().err
        assert ("selfdual=orthagonal for 'tau'" in err) == bool(code)

    @pytest.mark.parametrize("group, expr", [
        (("Sp", 4), "zeta*(S[3]+S[1])+1"),
        (("Sp", 4), "1 + x*zeta*S[2] + x^-1*zeta*S[2]"),
        (("SO", 6), "zeta*S[3]+1*S[3]"),
        (("SO", 5), "zeta*S[2]+1*S[2]"),
    ])
    def test_one_centralizer_per_parameter(self, group, expr):
        # the record, the support table, the enhancements and a support
        # per enhancement taken without the centralizer (as the benchmark
        # asks for them) compute the centralizer once between them: the
        # memo's misses count computations wherever they are made
        G, phi = PadicGroup(*group), cli.parse_parameter(expr)
        centralizer_restriction.cache_clear()
        cli.param_record(G, phi)
        cli.support_rows(G, phi)
        _, chars = enhancements(G, phi)
        for eta in chars:
            cuspidal_support(G, phi, eta)
        info = centralizer_restriction.cache_info()
        assert info.misses == 1
        assert info.hits >= 3 + 2 * len(chars)

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


# ---------------------------------------------------------------------------
# the symbol column against the rules of the former two-row symbol type


def _oracle_row(p, length, offset=0):
    padded = (0,) * (length - len(p)) + tuple(reversed(p.parts))
    return tuple(x + 2 * i + offset for i, x in enumerate(padded))


def _oracle_symbol_text(top, bottom, reduce=False):
    """Check the rows strictly increasing and nonnegative, strip the
    leading ``(0 | 1)`` pairs when ``reduce`` is set, and print."""
    for row in (top, bottom):
        assert all(a < b for a, b in zip(row, row[1:])) and all(x >= 0 for x in row), row
    while reduce and top and bottom and top[0] == 0 and bottom[0] == 1:
        top, bottom = tuple(x - 2 for x in top[1:]), tuple(x - 2 for x in bottom[1:])
    t = ",".join(map(str, top)) or "-"
    b = ",".join(map(str, bottom)) or "-"
    return f"({t}|{b})"


def _oracle_symbol(kind, block, d, label):
    if block == "H":
        return _oracle_symbol_text(_oracle_row(Partition(), d + 1 if kind == "Sp" else d), ())
    if kind == "SO":
        width = max(len(label.alpha), len(label.beta))
        return _oracle_symbol_text(_oracle_row(label.alpha, width), _oracle_row(label.beta, width))
    if block == "T":
        m = max(len(label.alpha) - 1, len(label.beta), 0)
        return _oracle_symbol_text(_oracle_row(label.alpha, m + 1), _oracle_row(label.beta, m, 1),
                                   reduce=True)
    width = max(len(label.alpha), len(label.beta) + 1)
    return _oracle_symbol_text(_oracle_row(label.beta, width - 1),
                               _oracle_row(label.alpha, width, 1))


def test_symbol_column_keeps_the_two_row_symbol_rules():
    total = 0
    for kind, make, sizes in (("Sp", Sp, range(0, 19, 2)), ("SO", SO, range(15))):
        for n in sizes:
            want = {}
            for triple, rows in springer_blocks(make(n)).items():
                block = "T" if triple.is_principal else "H" if triple.is_cuspidal else "M"
                for u, ch, labels in rows:
                    key = str(u.partitions[0]) + u.tags[0], str(ch)
                    want[key] = block, _oracle_symbol(kind, block, triple.ds[0], labels[0])
            got = {(r["u"], r["character"]): (r["block"], r["symbol"])
                   for r in cli.springer_rows(kind, n)}
            assert got == want, f"{kind}{n}"
            total += len(got)
    assert total == 1680


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

    @pytest.mark.parametrize("expr", ["S[5]*S[1]", "S[3]*zeta*S[2]", "S[0]+S[5]"])
    def test_refused_s_factor_is_1(self, expr, capsys):
        assert cli.run(["param", "--group", "Sp4", "--expr", expr]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ExpressionError: ") and "Traceback" not in captured.err

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

    @pytest.mark.parametrize("command", ["param", "support"])
    @pytest.mark.parametrize("group, expr, named", [
        ("Sp4", "mu + mu + 1*S[3]", "mu"),
        ("SO5", "mu + mu + 1*S[2]", "mu"),
        # the refused line, not its class
        ("Sp4", "x*mu + x^-1*mu + 1*S[3]", "for x*mu"),
        ("SO5", "x*mu + x^-1*mu + 1*S[2]", "for x*mu"),
        ("Sp4", "x*zeta*S[2] + 1*S[3]", "x*zeta"),
        ("SO5", "x*zeta*S[2] + 1*S[2]", "x*zeta"),
    ])
    def test_type_refusal_names_the_line(self, tmp_path, capsys, command, group, expr, named):
        # a line of a selfdual=none class, and zeta*x without zeta*x^-1
        chars = tmp_path / "chars.txt"
        chars.write_text("1 kind=unramified order=1 dim=1 selfdual=orthogonal\n"
                         "zeta kind=ramified order=2 dim=1 selfdual=orthogonal\n"
                         "mu kind=ramified order=4 dim=1 selfdual=none\n")
        argv = [command, "--group", group, "--expr", expr, "--chars", str(chars)]
        assert cli.run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("TypeMismatch:") and named in captured.err
        assert "Traceback" not in captured.err
        # a GL group of the same dimension takes the same lines
        gl = "GL5" if group == "Sp4" else "GL4"
        assert cli.run([command, "--group", gl] + argv[3:]) == 0

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

    @pytest.mark.parametrize("rank", [-1, MAX_RANK + 1])
    def test_extquot_names_the_rank_refusal(self, rank, capsys):
        assert cli.run(["extquot", "--rank", str(rank)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"RankOutOfRange: strata cover ranks 0 to {MAX_RANK}, not {rank}\n"

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
