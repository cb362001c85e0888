"""Acceptance gate: one criterion per test, one printed pass/fail line
per criterion, with the stated time bounds."""

import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

from abpscalc import abps, cli
from abpscalc.combicore import SignedPermutation, all_signed_permutations
from abpscalc.extquot import (
    ONE,
    act,
    fixed_locus,
    hyperoctahedral_action,
    q_power,
    spectral_eq,
    strata,
)
from abpscalc.langlands import (
    FormalParameter,
    PadicGroup,
    cuspidal_support,
    enhancements,
    infinitesimal_character,
    line,
    validate,
)
from abpscalc.springer import (
    SO,
    Orth,
    Sp,
    cuspidal_triples,
    enumerate_pairs,
    relative_weyl_group,
    springer_blocks,
)

import test_langlands as _tl


def _check(number, description, body, limit=None):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"criterion {number:2d}: FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:2d}: PASS  {description}  ({elapsed:.2f}s)")
    if limit is not None:
        assert elapsed < limit, f"criterion {number} took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# frozen row data for criteria 1-3 (u, character, symbol, block, label)


SP6_GENERALIZED = [
    ("(6)", "[z6->+]", "(3|-)", "T", "(3,-)"),
    ("(6)", "[z6->-]", "(-|3)", "M", "(2,-)'"),
    ("(4,2)", "[z2->+ z4->+]", "(0,4|2)", "T", "(2,1)"),
    ("(4,2)", "[z2->+ z4->-]", "(0|2,4)", "M", "(1.1,-)'"),
    ("(4,2)", "[z2->- z4->+]", "(0,2,4|-)", "H", "1"),
    ("(4,2)", "[z2->- z4->-]", "(0,2|4)", "T", "(-,3)"),
    ("(4,1,1)", "[z4->+]", "(1,4|1)", "T", "(2.1,-)"),
    ("(4,1,1)", "[z4->-]", "(1|1,4)", "M", "(1,1)'"),
    ("(3,3)", "1", "(0,3|3)", "T", "(1,2)"),
    ("(2,2,2)", "[z2->+]", "(1,3|2)", "T", "(1.1,1)"),
    ("(2,2,2)", "[z2->-]", "(2|1,3)", "M", "(-,2)'"),
    ("(2,2,1,1)", "[z2->+]", "(0,2,5|2,4)", "T", "(1,1.1)"),
    ("(2,2,1,1)", "[z2->-]", "(0,2,4|2,5)", "T", "(-,2.1)"),
    ("(2,1,1,1,1)", "[z2->+]", "(1,3,5|1,3)", "T", "(1.1.1,-)"),
    ("(2,1,1,1,1)", "[z2->-]", "(1,3|1,3,5)", "M", "(-,1.1)'"),
    ("(1,1,1,1,1,1)", "1", "(0,2,4,6|2,4,6)", "T", "(-,1.1.1)"),
]

SO4_GENERALIZED = [
    ("(3,1)", "[z1->+ z3->+]", "(0|2)", "T", "{-,2}", "{-,1.1}"),
    ("(3,1)", "[z1->- z3->+]", "(0,2|-)", "H", "1", "1"),
    ("(2,2)I", "1", "(1|1)", "T", "{1,1}", "{1,1}'"),
    ("(2,2)II", "1", "(1|1)", "T", "{1,1}'", "{1,1}"),
    ("(1,1,1,1)", "[z1->+]", "(0,2|1,3)", "T", "{-,1.1}", "{-,2}"),
]


def test_criterion_01_ordinary_springer_sp6():
    def body():
        rows = cli.springer_rows("Sp", 6, generalized=False)
        expected = [(u, c, s, b, l) for u, c, s, b, l in SP6_GENERALIZED
                    if b == "T"]
        assert len(expected) == 10
        got = [(r["u"], r["character"], r["symbol"], r["block"], r["label"])
               for r in rows]
        assert got == expected

    _check(1, "ordinary Springer table for rank-3 symplectic", body, limit=1.0)


def test_criterion_02_generalized_springer_sp6():
    def body():
        rows = cli.springer_rows("Sp", 6)
        got = [(r["u"], r["character"], r["symbol"], r["block"], r["label"])
               for r in rows]
        assert got == SP6_GENERALIZED

    _check(2, "generalized Springer table for rank-3 symplectic", body,
           limit=1.0)


def test_criterion_03_generalized_springer_so4():
    def body():
        rows = cli.springer_rows("SO", 4)
        got = [(r["u"], r["character"], r["symbol"], r["block"], r["label"],
                r["label_times_sign"]) for r in rows]
        assert got == SO4_GENERALIZED

    _check(3, "generalized Springer table for rank-2 even orthogonal", body,
           limit=1.0)


def test_criterion_04_cuspidal_classification():
    def body():
        for n in range(1, 11):
            group = Sp(2 * n)
            full = [t for t in cuspidal_triples(group)
                    if all(t.gl_rank(i) == 0
                           for i in range(len(group.factors)))]
            if n in {1, 3, 6, 10}:
                assert len(full) == 1
                t = full[0]
                parts = t.core_partition(0).parts
                d = len(parts)
                assert parts == tuple(2 * d - 2 * i for i in range(d))
                marks = t.core_marks(0)
                assert marks == {p for p in parts if p % 4 == 2}
            else:
                assert not full
        for m in range(1, 10):
            group = SO(m)
            full = [t for t in cuspidal_triples(group)
                    if all(t.gl_rank(i) == 0
                           for i in range(len(group.factors)))]
            if m in {1, 4, 9}:
                assert len(full) == 1
                t = full[0]
                parts = t.core_partition(0).parts
                d = len(parts)
                assert parts == tuple(2 * d - 1 - 2 * i for i in range(d))
                marks = t.core_marks(0)
                for p, q in zip(parts, parts[1:]):
                    assert (p in marks) != (q in marks)
            else:
                assert not full
    _check(4, "classification of full-group cuspidal data", body)


def test_criterion_05_block_bijectivity():
    def body():
        corpus = ([Sp(2 * n) for n in range(0, 5)]
                  + [SO(m) for m in range(1, 9)]
                  + [Orth(m) for m in range(1, 9)])
        for group in corpus:
            blocks = springer_blocks(group)
            assert set(blocks) == set(cuspidal_triples(group))
            total = sum(len(rows) for rows in blocks.values())
            assert total == len(enumerate_pairs(group))
            for triple, rows in blocks.items():
                assert len(rows) == relative_weyl_group(triple).num_characters

    _check(5, "block-by-block bijectivity with relative Weyl characters",
           body, limit=10.0)


def test_criterion_06_rank2_action_table():
    def body():
        G, j = cli._sp4_triple()
        data = abps.build_inertial(G, j)
        table = abps.action_table(data)
        assert len(table) == 8
        assert {str(img) for _, img in table} == {
            "(z, z')", "(z', z)", "(z, z'^-1)", "(z'^-1, z)",
            "(z', z^-1)", "(z^-1, z')", "(z'^-1, z^-1)", "(z^-1, z'^-1)",
        }
        layers = {str(s.base): s.group.structure() for s in data.strata}
        assert layers == {
            "(z, z')": "1",
            "(1, z)": "Z/2",
            "(-1, z)": "Z/2",
            "(z, z)": "S2",
            "(1, 1)": "B2",
            "(1, -1)": "Z/2 x Z/2",
            "(-1, -1)": "B2",
        }
        s1s2 = next(w for w in data.action.elements
                    if w.images == (2, 1) and w.signs == (1, -1))
        locus = fixed_locus(s1s2)
        pts = {tuple(c.translation) for c in locus if c.dimension == 0}
        assert pts == {(Fraction(0), Fraction(0)),
                       (Fraction(1, 2), Fraction(1, 2))}

    _check(6, "rank-2 symplectic action table, fixed loci, stabilizers", body)


def test_criterion_07_parameter_and_packet_tables():
    def body():
        rows = cli.parameters_rows()
        assert [(r["parameter"], r["centralizer"], r["centralizer_connected"],
                 r["unipotent"], r["a_group"], r["a_generators"])
                for r in rows] == [
            ("1 + zeta + zeta*S[3]", "S(O4xO1)", "SO4xSO1", "(3,1)x(1)",
             "(Z/2)^2", "z1z3, z3z1'"),
            ("1 + x*zeta*S[2] + x^-1*zeta*S[2]", "GL2", "GL2xSO1",
             "(2)x(1)", "1", ""),
            ("1 + x*zeta + x^-1*zeta + zeta + zeta", "GL1xS(O2xO1)",
             "GL1xSO2xSO1", "(1)x(1,1)x(1)", "Z/2", "z1z1'"),
            ("1 + zeta + zeta + zeta*xi + zeta*xi", "S(O2xO2xO1)",
             "SO2xSO2xSO1", "(1,1)x(1,1)x(1)", "(Z/2)^2", "z1z1', z1'z1''"),
        ]
        packets = cli.packet_rows()
        assert [r["size"] for r in packets] == [4, 1, 2, 4]
        assert [r["weyl"] for r in packets] == [
            "(S2 x| Z/2) x| Z/2", "S2 x| {1}", "{1} x| Z/2",
            "{1} x| (Z/2 x Z/2)",
        ]
        assert packets[3]["labels"] == "(1, 1), (1, -1), (-1, 1), (-1, -1)"

    _check(7, "rank-2 symplectic parameter and packet tables", body)


def test_criterion_08_matching_bijection_and_twists():
    def body():
        G, j = cli._sp4_triple()
        md = abps.mu(G, j)
        assert len(md.entries) == 21
        fams = [e for e in md.entries if e.family is not None]
        kinds = [e.family.kind for e in fams]
        assert kinds.count("generic") == 1
        assert kinds.count("special") == 12
        comps = {}
        for e in fams:
            comps[e.component.parts] = comps.get(e.component.parts, 0) + 1
        assert comps == {(3, 1): 4, (2, 2): 1, (1, 1, 1, 1): 10}
        seen = set()
        for e in md.entries:
            key = (str(e.param), str(e.eta))
            assert key not in seen
            seen.add(key)
        action = md.inertial.action
        for e in md.entries:
            # every listed image of the base reads the form of theta at 1
            images = {abps._orbit_form(action, act(w, e.stratum.base))
                      for w in action.elements}
            assert images == {abps.theta(ONE, e, md)}
            assert abps.support_orbit(e, md) == abps.theta(q_power(1), e, md)

    _check(8, "matched inventory with identity and shifted twisting maps",
           body, limit=5.0)


def test_criterion_09_conservation_law():
    def body():
        checked = 0
        for phi in (_tl.PHI_RED, _tl.PHI_GREEN, _tl.PHI_LINE, _tl.PHI_DEEP):
            lam = infinitesimal_character(_tl.SP4, phi)
            _, chars = enhancements(_tl.SP4, phi)
            for eta in chars:
                res = cuspidal_support(_tl.SP4, phi, eta)
                assert infinitesimal_character(_tl.SP4, res.embedded()) == lam
                checked += 1
        rng = random.Random(20260826)
        for family, size in (("SO", 5), ("Sp", 4), ("SO", 4)):
            G = PadicGroup(family, size)
            for _ in range(35):
                phi = validate(G, _tl.random_parameter(rng, G))
                lam = infinitesimal_character(G, phi)
                _, chars = enhancements(G, phi)
                for eta in chars:
                    res = cuspidal_support(G, phi, eta)
                    assert infinitesimal_character(G, res.embedded()) == lam
                checked += 1
        assert checked >= 100 + 11

    _check(9, "infinitesimal character preserved by cuspidal support", body)


def test_criterion_10_rank2_linear_example():
    def body():
        G = PadicGroup("GL", 2)
        split = FormalParameter(((line("1", q_power(1)), 1),
                                 (line("1", q_power(-1)), 1)))
        trivial_subquotient = FormalParameter(((line("1", q_power(1)), 1),
                                               (line("1", q_power(-1)), 1)))
        steinberg = FormalParameter(((line("1"), 2),))
        lams = [infinitesimal_character(G, phi)
                for phi in (split, trivial_subquotient, steinberg)]
        assert lams[0] == lams[1] == lams[2]

    _check(10, "three rank-2 linear parameters share one infinitesimal "
               "character", body)


def test_criterion_11_bernstein_blocks():
    def body():
        G, j = cli._sp4_triple()
        blocks = abps.bernstein_blocks(G, j)
        assert len(blocks) == 5
        assert blocks[0] is j
        for b in blocks[1:]:
            assert b.rank == 0
            assert b.core_char is not None

    _check(11, "principal inertial packet splits into five blocks", body)


def test_criterion_12_fixed_locus_oracle():
    def body():
        for k in range(1, 4):
            sample = [tuple(Fraction(v, 8) for v in vec)
                      for vec in itertools.product(range(8), repeat=k)]
            for w in all_signed_permutations(k):
                locus = fixed_locus(w)
                for t in sample:
                    image = [None] * k
                    for i in range(k):
                        image[w.images[i] - 1] = (w.signs[i] * t[i]) % 1
                    brute = tuple(image) == t
                    fancy = any(c.contains_torsion(t) for c in locus)
                    assert brute == fancy

    _check(12, "fixed loci agree with brute-force torsion membership", body,
           limit=5.0)


def test_criterion_13_cli(tmp_path, capsys):
    def body():
        assert cli.run(["fixtures", "--all", "--dir", str(tmp_path)]) == 1
        stored = Path(__file__).resolve().parent.parent / "fixtures"
        for path in sorted(tmp_path.iterdir()):
            assert (stored / path.name).read_text() == path.read_text()
        assert cli.run(["fixtures", "--all", "--dir", str(tmp_path)]) == 0
        for text in ["1 + zeta + zeta*S[3]",
                     "1 + x*zeta*S[2] + x^-1*zeta*S[2]",
                     "1 + zeta + zeta + zeta*xi + zeta*xi",
                     "1 + z*zeta + z^-1*zeta + zeta + zeta"]:
            phi = cli.parse_parameter(text)
            assert str(cli.parse_parameter(str(phi))) == str(phi)
        capsys.readouterr()
        assert cli.run(["param", "--group", "Sp4",
                        "--expr", "zeta*(S[3]+S[1])+1"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert cli.validate_record(record)
        assert record["centralizer"] == "S(O4xO1)"

    _check(13, "command-line fixtures, round-trip, and schema", body)
