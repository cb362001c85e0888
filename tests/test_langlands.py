import copy
import os
import pickle
import random
import re
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from abpscalc import langlands, springer
from abpscalc.extquot import MINUS_ONE, SymbolicCoordinate, free, q_power
from abpscalc.langlands import (
    CentralizerData,
    CharacterClass,
    DimensionMismatch,
    FormalParameter,
    InvalidEnhancement,
    PadicGroup,
    TypeMismatch,
    WFLine,
    block_support,
    centralizer_display,
    centralizer_restriction,
    component_groups,
    connected_centralizer,
    cuspidal_support,
    enhancements,
    infinitesimal_character,
    is_cuspidal,
    is_discrete,
    is_tempered,
    line,
    parameter,
    parse_catalogue,
    validate,
    _correcting_weights,
)
from abpscalc.springer import GL, SO, ComplexGroup, GroupFactor, Sp

SP4 = PadicGroup("Sp", 4)
ZETA = line("zeta")
ONEL = line("1")
XI = line("xi")
ZETAXI = line("zeta", MINUS_ONE)
CHI = free("x")

PHI_RED = parameter((ZETA, 3), (ZETA, 1), ONEL)
PHI_GREEN = parameter((ZETA.twisted(CHI), 2), ONEL, (ZETA.twisted(CHI.inverse()), 2))
PHI_LINE = parameter(
    ZETA.twisted(CHI), ZETA, ONEL, ZETA, ZETA.twisted(CHI.inverse())
)
PHI_DEEP = parameter(ZETA, ZETAXI, ONEL, ZETAXI, ZETA)
TAU_SP = line("tau", catalogue=parse_catalogue(
    "tau kind=ramified order=2 dim=2 selfdual=symplectic"))


class TestCatalogue:
    def test_parse(self):
        cat = parse_catalogue("mu kind=ramified order=4 dim=1 selfdual=none period=1")
        assert cat["mu"].order == 4
        assert cat["mu"].selfdual == "none"

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            parse_catalogue("mu kind=ramified conductor=3")

    @pytest.mark.parametrize("field", [
        "kind=ramifed", "selfdual=orthagonal", "order=0", "dim=0", "period=-3",
    ])
    def test_bad_value_rejected(self, field):
        # a misspelt word used to read as the default, a non-positive
        # size was taken as it stood
        key = field.split("=")[0]
        with pytest.raises(ValueError, match=rf"{key}=.* for 'tau'"):
            parse_catalogue(f"tau {field}")

    def test_xi_is_a_twist_of_the_trivial_class(self):
        assert XI.base.name == "1"
        assert XI.twist == MINUS_ONE
        assert XI.is_selfdual


class TestSelfDuality:
    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["orthogonal", "symplectic", "none"]),
        den=st.integers(1, 12),
        num=st.integers(0, 11),
        qexp=st.integers(-4, 4),
        exps=st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    )
    def test_selfdual_iff_twist_is_its_own_inverse(self, kind, den, num, qexp, exps):
        base = CharacterClass("c", selfdual=kind)
        twist = SymbolicCoordinate(Fraction(num, den), qexp, tuple(zip("xy", exps)))
        expected = twist == twist.inverse() and base.selfdual != "none"
        assert WFLine(base, twist).is_selfdual == expected

    @pytest.mark.parametrize("G", (
        [PadicGroup("Sp", n) for n in range(0, 21, 2)]
        + [PadicGroup("SO", n) for n in range(22)]
        + [PadicGroup("GL", n) for n in range(11)]
    ), ids=str)
    def test_dual_group(self, G):
        if G.family == "Sp":
            expected = SO(G.size + 1)
        elif G.family == "SO":
            expected = Sp(G.size - 1) if G.size % 2 else SO(G.size)
        else:
            expected = GL(G.size)
        assert G.dual() == expected
        assert (G.dual_kind, G.dual_dim) == (expected.factors[0].kind, expected.factors[0].n)


def rendered_line(l):
    """The rendering ``WFLine.__str__`` computed on every call before
    lines stored their name: the oracle for the stored name."""
    t = str(l.twist)
    if t == "1":
        return l.base.name
    if l.base.order == 1 and l.base.name == "1":
        return t
    return f"{t}*{l.base.name}" if t != "-1" else f"{l.base.name}*xi"


_BASES = [ONEL.base, ZETA.base, line("eta").base,
          CharacterClass("chi", order=5, selfdual="none"),
          CharacterClass("1", order=3)]

twisted_lines = st.builds(
    lambda base, den, num, qexp, exps: WFLine(
        base, SymbolicCoordinate(Fraction(num % den, den), qexp, tuple(zip("xy", exps)))),
    st.sampled_from(_BASES), st.integers(1, 6), st.integers(0, 5),
    st.integers(-3, 3), st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
)


class TestLineNames:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(twisted_lines, st.integers(1, 4)), max_size=6))
    def test_stored_name_and_summand_order(self, summands):
        for l, _ in summands:
            assert l.name == str(l) == rendered_line(l)
            if l.base.selfdual != "none":
                back = l.dual().dual()
                assert back == l and hash(back) == hash(l)
        phi = FormalParameter(tuple(summands))
        assert phi.summands == tuple(
            sorted(summands, key=lambda s: (rendered_line(s[0]), s[1])))


class TestValidation:
    def test_dimension(self):
        with pytest.raises(DimensionMismatch):
            validate(SP4, parameter((ZETA, 3)))

    def test_unmatched_twist(self):
        bad = parameter((ZETA.twisted(CHI), 2), ONEL, (ZETA.twisted(CHI), 2))
        with pytest.raises(TypeMismatch):
            validate(SP4, bad)

    def test_wrong_parity_odd_multiplicity(self):
        bad = parameter((ZETA, 2), (ZETA, 1), ONEL, (XI, 1))
        with pytest.raises(TypeMismatch):
            validate(SP4, bad)

    def test_wrong_parity_even_multiplicity_ok(self):
        ok = parameter((ZETA, 2), (ZETA, 2), ONEL)
        assert validate(SP4, ok) is ok

    def test_corpus_is_valid(self):
        for phi in (PHI_RED, PHI_GREEN, PHI_LINE, PHI_DEEP):
            validate(SP4, phi)


class TestDiscreteTempered:
    def test_red_is_discrete_tempered(self):
        assert is_discrete(SP4, PHI_RED)
        assert is_tempered(SP4, PHI_RED)

    def test_green_is_neither_discrete_nor_cuspidal(self):
        assert not is_discrete(SP4, PHI_GREEN)
        ok, chars = is_cuspidal(SP4, PHI_GREEN)
        assert not ok and chars == []

    def test_untempered_twist(self):
        phi = parameter((ZETA.twisted(q_power(1)), 2), ONEL,
                        (ZETA.twisted(q_power(-1)), 2))
        assert not is_tempered(SP4, phi)

    def test_deep_not_discrete(self):
        assert not is_discrete(SP4, PHI_DEEP)


class TestCentralizers:
    """The four centralizer shapes of the rank-two corpus."""

    def test_red(self):
        d = centralizer_restriction(SP4, PHI_RED)
        assert str(d.group) == "S(O4xO1)"
        assert str(d.unipotent) == "(3,1)x(1)"

    def test_green(self):
        d = centralizer_restriction(SP4, PHI_GREEN)
        assert centralizer_display(d) == "GL2"
        assert str(d.unipotent) == "(2)x(1)"

    def test_line(self):
        d = centralizer_restriction(SP4, PHI_LINE)
        assert str(d.group) == "GL1xS(O2xO1)"

    @pytest.mark.parametrize("factors, det1, shown", [
        ((("GL", 2), ("O", 1)), True, "GL2"),
        ((("GL", 1), ("Sp", 2), ("O", 1)), True, "GL1xSp2"),
        ((("O", 1),), True, "S(O1)"),
        ((("GL", 1), ("O", 2), ("O", 1)), True, "GL1xS(O2xO1)"),
        ((("GL", 1), ("O", 3)), True, "GL1xS(O3)"),
        ((("GL", 1), ("O", 1)), False, "GL1xO1"),
    ])
    def test_display_absorbs_a_lone_o1(self, factors, det1, shown):
        group = ComplexGroup(tuple(GroupFactor(*f) for f in factors), det1=det1)
        assert centralizer_display(CentralizerData(group, ())) == shown

    def test_deep(self):
        d = centralizer_restriction(SP4, PHI_DEEP)
        assert str(d.group) == "S(O2xO2xO1)"

    def test_component_groups(self):
        cg = component_groups(SP4, PHI_RED)
        assert cg.a_group.structure() == "(Z/2)^2"
        assert cg.a_group.subgroup_generators() == ("z1z3", "z3z1'")
        assert cg.a_connected.structure() == "Z/2"
        assert cg.a_connected.subgroup_generators() == ("z1z3",)
        assert cg.s_order == 4

    def test_component_groups_rest(self):
        for phi, a, gens in [
            (PHI_GREEN, "1", ()),
            (PHI_LINE, "Z/2", ("z1z1'",)),
            (PHI_DEEP, "(Z/2)^2", ("z1z1'", "z1'z1''")),
        ]:
            cg = component_groups(SP4, phi)
            assert cg.a_group.structure() == a
            assert cg.a_group.subgroup_generators() == gens
            assert cg.a_connected.structure() == "1"


class TestFactorKindByLineType:
    """The multiplicity space of a self-dual line is orthogonal exactly
    when the line has the dual group's type, symplectic otherwise."""

    @pytest.mark.parametrize("group, phi, kinds", [
        (("Sp", 4), PHI_RED, ("O", "O")),
        (("Sp", 4), parameter(TAU_SP, TAU_SP, ONEL), ("Sp", "O")),
        (("SO", 5), parameter(TAU_SP, TAU_SP), ("O",)),
        (("SO", 5), parameter(TAU_SP, (ZETA, 2)), ("Sp", "O")),
        (("SO", 5), parameter((ZETA, 4)), ("Sp",)),
    ])
    def test_kind_of_each_factor(self, group, phi, kinds):
        data = centralizer_restriction(PadicGroup(*group), phi)
        assert tuple(f.kind for f in data.factors) == kinds

    def test_staircase_is_read_from_the_kind(self):
        # tau is symplectic like the dual Sp4, so its part 1 is an odd
        # staircase of an O1 factor; this used to build an Sp1 factor
        ok, chars = is_cuspidal(PadicGroup("SO", 5), parameter(TAU_SP, (ZETA, 2)))
        assert ok and len(chars) == 2

    def test_blocks_of_an_sp_factor_beside_an_o_factor(self):
        # the determinant-one flip moves the O factor only; the block
        # table of Sp2xS(O4) used to raise on its coupled blocks
        G, phi = PadicGroup("SO", 8), parameter(TAU_SP, TAU_SP, (ONEL, 3), ONEL)
        data, chars = enhancements(G, phi)
        assert str(data.group) == "Sp2xS(O4)"
        table = {(u, ch): (triple, labels)
                 for triple, rows in springer.springer_blocks(data.group).items()
                 for u, ch, labels in rows}
        for (u, ch), row in table.items():
            assert springer.generalized_springer(data.group, u, ch) == row
        for eta in chars:
            triple, labels = table[data.unipotent, eta]
            assert cuspidal_support(G, phi, eta) == block_support(G, data, triple, labels)


class TestCuspidality:
    def test_red_two_cuspidal_enhancements(self):
        ok, chars = is_cuspidal(SP4, PHI_RED)
        assert ok and len(chars) == 2
        for ch in chars:
            assert ch.value((0, 1)) * ch.value((0, 3)) == -1

    def test_discrete_but_not_cuspidal(self):
        phi = parameter((ZETA, 3), (XI, 1), ONEL)
        assert is_discrete(SP4, phi)
        ok, _ = is_cuspidal(SP4, phi)
        assert not ok

    def test_smallest_cuspidal_families(self):
        # symplectic p-adic groups: cuspidal shapes need triangular size
        assert is_cuspidal(PadicGroup("Sp", 2), parameter((ZETA, 1), (ONEL, 1), (XI, 1)))[0]

    @pytest.mark.parametrize("group, phi, dim, need", [
        (("Sp", 2), parameter(ONEL), 1, 3),
        (("SO", 5), PHI_RED, 5, 4),
        (("SO", 4), PHI_RED, 5, 4),
        (("GL", 2), parameter(ZETA), 1, 2),
    ])
    def test_parameter_of_the_wrong_size_is_refused(self, group, phi, dim, need):
        # 1 alone used to be a cuspidal parameter of Sp2, whose dual
        # group is SO3; the refusal names the group and both dimensions
        G = PadicGroup(*group)
        with pytest.raises(DimensionMismatch, match=re.escape(
                f"parameter of dimension {dim} for {G} (need {need})")):
            is_cuspidal(G, phi)


class TestInfinitesimalCharacter:
    def test_red(self):
        ic = infinitesimal_character(SP4, PHI_RED)
        flat = sorted((str(l), m) for l, m in ic.items())
        assert flat == [("1", 1), ("q^-1*zeta", 1), ("q^1*zeta", 1), ("zeta", 2)]

    def test_total_count_is_dimension(self):
        ic = infinitesimal_character(SP4, PHI_GREEN)
        assert sum(ic.values()) == 5

    def test_gl2_three_parameters_share_one(self):
        G = PadicGroup("GL", 2)
        sigma = parameter(ONEL.twisted(q_power(1)), ONEL.twisted(q_power(-1)))
        steinberg = parameter((ONEL, 2))
        principal = parameter(ONEL.twisted(q_power(1)), ONEL.twisted(q_power(-1)))
        chars = [infinitesimal_character(G, p) for p in (sigma, steinberg, principal)]
        assert chars[0] == chars[1] == chars[2]
        assert sorted(str(k) for k in chars[0]) == ["q^{-1/2}", "q^{1/2}"]


class TestCuspidalSupport:
    def test_red_cuspidal_rows_are_self_supported(self):
        _, chars = is_cuspidal(SP4, PHI_RED)
        for ch in chars:
            res = cuspidal_support(SP4, PHI_RED, ch)
            assert str(res.levi_dual) == "SO5"
            assert res.coordinates == ()
            assert res.embedded() == PHI_RED

    def test_red_principal_rows(self):
        _, chars = enhancements(SP4, PHI_RED)
        # the two non-cuspidal enhancements land on the diagonal torus
        _, cusp = is_cuspidal(SP4, PHI_RED)
        rest = [c for c in chars if c not in cusp]
        assert len(rest) == 2
        for ch in rest:
            res = cuspidal_support(SP4, PHI_RED, ch)
            assert res.correcting == (2, 0)
            assert [str(l) for l, _ in res.coordinates] == ["zeta", "zeta"]

    def test_green_correcting(self):
        res = cuspidal_support(SP4, PHI_GREEN,
                               enhancements(SP4, PHI_GREEN)[1][0])
        assert res.correcting == (1, -1)
        got = sorted(str(l) for l in infinitesimal_character(SP4, res.embedded()))
        want = sorted(str(l) for l in infinitesimal_character(SP4, PHI_GREEN))
        assert got == want

    def test_enhancement_of_another_parameter_is_refused(self):
        # the characters of zeta*S[3] + eta*S[1] + 1 live on the generators
        # ((0,3), (1,1), (2,1)), those of PHI_RED on ((0,1), (0,3), (1,1));
        # none of them marks a part value PHI_RED lacks
        _, chars = enhancements(SP4, parameter((ZETA, 3), line("eta"), ONEL))
        for ch in chars:
            with pytest.raises(InvalidEnhancement,
                               match=r"not a character of the component group of \(3,1\)x\(1\)"):
                cuspidal_support(SP4, PHI_RED, ch)

    def test_mark_on_a_factor_the_class_lacks_is_refused(self):
        # Sp2xSp2 characters read on the one Sp4 factor of zeta*S[4]: a
        # sign on the second factor has nothing to mark
        G = PadicGroup("SO", 5)
        _, chars = enhancements(G, parameter((ZETA, 2), (ONEL, 2)))
        messages = set()
        for ch in chars:
            with pytest.raises(InvalidEnhancement) as info:
                cuspidal_support(G, parameter((ZETA, 4)), ch)
            messages.add(str(info.value))
        assert messages == {
            f"{chars[0]} is not a character of the component group of (4)",
            "cannot mark part value 2 of (4)",
        }

    def test_foreign_characters_read_as_they_stand_or_are_refused(self):
        # zeta+zeta+eta+eta+1 has the centralizer S(O2xO2xO1): characters
        # of O2xO2xO1 on its generators read as the Springer reader reads
        # them, never with a bare KeyError, and those of other parameters
        # are refused with the reader's message
        phi = parameter(ZETA, ZETA, line("eta"), line("eta"), ONEL)
        data = centralizer_restriction(SP4, phi)
        plain = springer.ComplexGroup(data.group.factors)
        for ch in springer.component_group(plain, data.unipotent).characters():
            res = cuspidal_support(SP4, phi, ch)
            assert (res.core_triple, res.labels) == data.springer.read(ch), str(ch)
        refused = 0
        for other in (PHI_RED, PHI_DEEP, parameter((ZETA, 3), line("eta"), ONEL)):
            for ch in enhancements(SP4, other)[1]:
                try:
                    data.springer.read(ch)
                except springer.SpringerError as exc:
                    with pytest.raises(InvalidEnhancement, match=re.escape(str(exc))):
                        cuspidal_support(SP4, phi, ch)
                    refused += 1
        assert refused


# ---------------------------------------------------------------------------
# the pairing of weights around a cuspidal core


def weights_by_loop(parts, core_parts, where):
    """The pairing of correcting weights that ``cuspidal_support`` made
    before the closed form: subtract the core's weights from the parts'
    and pair the largest remaining weight with its negative until none
    is left."""
    def expansion(ps):
        return [w for a in ps for w in range(a - 1, -a, -2)]

    E = Counter(expansion(parts))
    E.subtract(Counter(expansion(core_parts)))
    out = []
    while any(v for v in E.values()):
        e = max(x for x, v in E.items() if v)
        E[e] -= 1
        E[-e] -= 1
        if E[e] < 0 or E[-e] < 0:
            raise InvalidEnhancement(f"unpaired weight {e} in factor {where}")
        out.append(e)
    return out


def _descending(parts):
    return tuple(sorted(parts, reverse=True))


_PARTS = st.lists(st.integers(1, 9), max_size=8).map(_descending)


@st.composite
def factor_and_core(draw):
    """A partition and a core: a sub-multiset of its parts, a cuspidal
    staircase (``2, 4, ..., 2d`` or ``1, 3, ..., 2d-1``), or any
    partition, contained in it or not."""
    lam = draw(_PARTS)
    kind = draw(st.sampled_from(["sub", "staircase", "any"]))
    if kind == "sub":
        keep = draw(st.lists(st.booleans(), min_size=len(lam), max_size=len(lam)))
        core = tuple(a for a, k in zip(lam, keep) if k)
    elif kind == "staircase":
        d, start = draw(st.integers(0, 4)), draw(st.sampled_from([1, 2]))
        core = _descending(range(start, 2 * d + start - 1, 2))
    else:
        core = draw(_PARTS)
    return lam, core


@settings(max_examples=400, deadline=None)
@given(factor_and_core())
@example(((3, 1), (5,)))  # the core is not contained
@example(((3, 1), (1,)))  # an odd number of zero weights
@example(((3,), ()))  # one zero weight, no core
@example(((3, 1, 1), (1,)))  # one zero coordinate
@example(((4, 2), (2,)))  # an even core inside
@example(((5, 3, 1), (3, 1)))  # an odd staircase inside
def test_correcting_weights_match_the_pairing_loop(case):
    lam, core = case
    try:
        want = weights_by_loop(lam, core, ZETA)
    except InvalidEnhancement as exc:
        with pytest.raises(InvalidEnhancement) as info:
            _correcting_weights(lam, core, ZETA)
        assert str(info.value) == str(exc)
    else:
        assert sorted(_correcting_weights(lam, core, ZETA), reverse=True) == want


# ---------------------------------------------------------------------------
# conservation of the infinitesimal character under cuspidal support


LINE_POOL = [
    line("1"),
    line("xi"),
    line("zeta"),
    line("zeta", MINUS_ONE),
    line("eta"),
    line("eta", MINUS_ONE),
]


def random_parameter(rng, G):
    N = G.dual_dim
    orthogonal = G.dual_kind != "Sp"
    summands = []
    remaining = N
    while remaining:
        roll = rng.random()
        if roll < 0.3 and remaining >= 2:
            a = rng.randint(1, remaining // 2)
            base = rng.choice(LINE_POOL)
            tw = (q_power(rng.randint(1, 2)) if rng.random() < 0.5
                  else free(f"x{rng.randint(1, 3)}"))
            l = base.twisted(tw)
            summands += [(l, a), (l.dual(), a)]
            remaining -= 2 * a
            continue
        if roll < 0.45:
            # wrong-parity self-dual summand, taken twice
            a = 2 if orthogonal else 1
            if remaining >= 2 * a:
                l = rng.choice(LINE_POOL)
                summands += [(l, a), (l, a)]
                remaining -= 2 * a
                continue
        l = rng.choice(LINE_POOL)
        if orthogonal:
            a = rng.choice([x for x in range(1, remaining + 1, 2)])
        else:
            a = rng.choice([x for x in range(2, remaining + 1, 2)] or [0])
            if a == 0:
                # parity cannot close with a matching summand; restart
                summands, remaining = [], N
                continue
        summands.append((l, a))
        remaining -= a
    return parameter(*summands)


@pytest.mark.parametrize("family,size", [("Sp", 4), ("SO", 5), ("SO", 4)])
def test_conservation_random(family, size):
    G = PadicGroup(family, size)
    rng = random.Random(20260826 + size)
    checked = 0
    for _ in range(40):
        phi = validate(G, random_parameter(rng, G))
        lam = infinitesimal_character(G, phi)
        _, chars = enhancements(G, phi)
        for ch in chars:
            res = cuspidal_support(G, phi, ch)
            assert infinitesimal_character(G, res.embedded()) == lam
            checked += 1
    assert checked >= 40


def test_conservation_corpus():
    for phi in (PHI_RED, PHI_GREEN, PHI_LINE, PHI_DEEP):
        lam = infinitesimal_character(SP4, phi)
        _, chars = enhancements(SP4, phi)
        for ch in chars:
            res = cuspidal_support(SP4, phi, ch)
            assert infinitesimal_character(SP4, res.embedded()) == lam


class TestCentralizerMemo:
    @settings(max_examples=60, deadline=None)
    @given(group=st.sampled_from([("Sp", 4), ("Sp", 6), ("SO", 5), ("SO", 6), ("SO", 7)]),
           seed=st.integers(0, 2**32 - 1))
    def test_memo_is_the_computation_and_is_keyed_by_value(self, group, seed):
        G = PadicGroup(*group)
        phi = validate(G, random_parameter(random.Random(seed), G))
        data = centralizer_restriction(G, phi)
        assert data == centralizer_restriction.__wrapped__(G, phi)
        # the same parameter built again from fresh lines
        twin = FormalParameter(tuple(
            (WFLine(l.base, l.twist), a) for l, a in reversed(phi.summands)))
        assert twin == phi and twin is not phi
        before = centralizer_restriction.cache_info()
        assert centralizer_restriction(PadicGroup(*group), twin) is data
        after = centralizer_restriction.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)

    def test_refused_input_is_not_stored(self):
        # zeta*x with one part 2 against its dual with parts 1, 1
        l = ZETA.twisted(CHI)
        phi = parameter((l, 2), (l.dual(), 1), (l.dual(), 1), ONEL)
        centralizer_restriction.cache_clear()
        for _ in range(2):
            with pytest.raises(TypeMismatch, match="mismatched parts"):
                centralizer_restriction(SP4, phi)
        info = centralizer_restriction.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 0)

    def test_memo_keeps_the_default_size(self):
        assert centralizer_restriction.cache_info().maxsize == 128


class TestSegmentMemo:
    def test_memo_keeps_the_default_size(self):
        # one params benchmark pass at seed 1 meets 351 distinct (line, a):
        # at 128 entries 1,692 of its 7,586 lookups missed, at 512 only
        # the 351 first lookups miss
        assert langlands._segment.cache_info().maxsize == 512

    def test_twin_lines_hit_by_value(self):
        l = ZETA.twisted(CHI)
        twin = WFLine(l.base, l.twist)
        assert twin == l and twin is not l
        segment = langlands._segment(l, 3)
        before = langlands._segment.cache_info()
        assert langlands._segment(twin, 3) is segment
        after = langlands._segment.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)

    def test_each_call_returns_a_fresh_counter(self):
        phi = parameter((ZETA.twisted(CHI), 3), (ONEL, 2), (ZETA, 2), ONEL)
        G = PadicGroup("SO", 8)
        first = infinitesimal_character(G, phi)
        want = Counter(l.twisted(q_power(a + 1 - 2 * j))
                       for l, a in phi.summands for j in range(1, a + 1))
        assert first == want
        first[ONEL] += 5
        del first[ZETA.twisted(CHI)]
        assert infinitesimal_character(G, phi) == want


def test_cuspidal_support_builds_each_symbol_once(monkeypatch):
    # a change that rebuilt the symbols of a class for every pair would
    # build a symbol once per enhancement, not once per class; the
    # symbols are read through the class-read memo and the shared
    # readers, so those start empty too
    for memo in (springer._class_reads, springer.class_reader, centralizer_restriction):
        memo.cache_clear()
    built, real = [], springer._symbol

    def counted(kind, lam):
        built.append((kind, lam))
        return real(kind, lam)

    monkeypatch.setattr(springer, "_symbol", counted)
    met, tables = set(), set()
    rng = random.Random(20261019)
    for family, size in (("Sp", 6), ("SO", 7), ("SO", 8)):
        G = PadicGroup(family, size)
        for _ in range(15):
            phi = validate(G, random_parameter(rng, G))
            data, chars = enhancements(G, phi)
            u = data.unipotent
            tables |= {(f.kind, lam, tag if f.kind == "SO" else "")
                       for f, lam, tag in zip(data.group.factors, u.partitions, u.tags)}
            met |= {(f.kind, lam) for f, lam in zip(data.group.factors, u.partitions)
                    if f.kind != "GL"}
            for ch in chars:
                cuspidal_support(G, phi, ch)
    assert 0 < len(built) == len(set(built)) <= len(met)
    assert 0 < springer._class_reads.cache_info().misses <= len(tables)


# ---------------------------------------------------------------------------
# each parameter reads its Springer class once, off its centralizer


def _seeded_parameters():
    rng = random.Random(20261020)
    for family, size in (("Sp", 6), ("SO", 7), ("SO", 8)):
        G = PadicGroup(family, size)
        for _ in range(15):
            yield G, validate(G, random_parameter(rng, G))


def test_support_is_the_block_support_of_the_generalized_springer_read():
    checked = 0
    for G, phi in _seeded_parameters():
        data, chars = enhancements(G, phi)
        for eta in chars:
            got = cuspidal_support(G, phi, eta)
            want = block_support(G, data, *springer.generalized_springer(
                data.group, data.unipotent, eta))
            for f in fields(want):
                assert getattr(got, f.name) == getattr(want, f.name), (
                    str(phi), str(eta), f.name)
            checked += 1
    assert checked >= 40


def test_one_parameter_reads_its_class_once(class_traffic):
    # the record, the enhancements and every support of one parameter:
    # one reader of the class, and the component groups of A and of A°
    from abpscalc import cli

    corpus = [(SP4, phi) for phi in (PHI_RED, PHI_GREEN, PHI_LINE, PHI_DEEP)]
    corpus += list(_seeded_parameters())
    for G, phi in corpus:
        centralizer_restriction.cache_clear()
        springer.class_reader.cache_clear()
        for calls in class_traffic.values():
            del calls[:]
        cli.param_record(G, phi)
        _, chars = enhancements(G, phi)
        for eta in chars:
            cuspidal_support(G, phi, eta)
        assert len(class_traffic["ClassReader"]) == 1, str(phi)
        assert len(class_traffic["component_group"]) <= 2, str(phi)


def _table(group):
    return {(u, ch): (triple, labels)
            for triple, rows in springer.springer_blocks(group).items()
            for u, ch, labels in rows}


class TestSharedClassReader:
    def test_lines_that_share_a_class_share_the_reader(self):
        # zeta and eta lines with the same S-multiplicities: distinct
        # centralizers of one group and class
        eta = line("eta")
        phi = parameter((ZETA, 3), (ZETA, 1), ONEL)
        psi = parameter((eta, 3), (eta, 1), ONEL)
        first, second = centralizer_restriction(SP4, phi), centralizer_restriction(SP4, psi)
        assert first != second
        assert (first.group, first.unipotent) == (second.group, second.unipotent)
        assert first.springer is second.springer
        assert first.springer is springer.class_reader(first.group, first.unipotent)

    def test_reads_agree_with_generalized_springer_and_the_table_cold_and_warm(self):
        corpus = list(_seeded_parameters())
        for memo in ("cold", "warm"):
            if memo == "cold":
                for f in (springer.class_reader, springer._class_reads, centralizer_restriction):
                    f.cache_clear()
            for G, phi in corpus:
                data = centralizer_restriction(G, phi)
                reader, table = data.springer, _table(data.group)
                assert reader is springer.class_reader(data.group, data.unipotent)
                for ch in reader.characters:
                    row = reader.read(ch)
                    assert row == springer.generalized_springer(data.group, data.unipotent, ch)
                    assert row == table[data.unipotent, ch], (memo, str(phi), str(ch))

    def test_connected_component_group_is_that_of_the_identity_component(self):
        for G, phi in [(SP4, PHI_RED), (SP4, PHI_DEEP), *_seeded_parameters()]:
            data = centralizer_restriction(G, phi)
            want = springer.component_group(connected_centralizer(data), data.unipotent)
            assert data.springer.connected_component_group == want, str(phi)
            assert component_groups(G, phi).a_connected == want

    def test_memo_has_512_entries(self):
        # one params benchmark pass at seed 1 looks up 2,015 classes of
        # 514 distinct (group, class) pairs: a hit ratio of 0.445 at 128
        # entries, 0.650 at 256, and at 512 the unbounded 0.745
        assert springer.class_reader.cache_info().maxsize == 512

    def test_springer_blocks_builds_its_own_readers(self, class_reader_calls):
        # a table reads no shared reader; a product with no determinant
        # condition also looks up the one-factor table of each factor,
        # whose bijectivity check stands for its own
        springer.springer_blocks.cache_clear()
        groups = {centralizer_restriction(G, phi).group for G, phi in _seeded_parameters()}
        for group in groups:
            springer.springer_blocks(group)
        factors = {ComplexGroup((f,)) for g in groups if len(g.factors) > 1 and not g.det1
                   for f in g.factors}
        assert factors - groups
        assert springer.springer_blocks.cache_info().misses == len(groups | factors)
        assert class_reader_calls == []


def test_summand_order_does_not_depend_on_input_order():
    # two distinct lines named zeta: the ramified zeta, and the trivial
    # character twisted by a variable zeta
    twisted = line("1", free("zeta"))
    assert twisted.name == ZETA.name and twisted != ZETA
    G = PadicGroup("Sp", 2)
    phi = validate(G, parameter(ZETA, twisted, twisted.dual()))
    psi = validate(G, parameter(twisted.dual(), twisted, ZETA))
    assert Counter(phi.summands) == Counter(psi.summands)
    assert phi == psi and hash(phi) == hash(psi)
    assert centralizer_restriction(G, phi) is centralizer_restriction(G, psi)


def test_parameter_pickles_and_copies_as_its_summands():
    for other in (pickle.loads(pickle.dumps(PHI_LINE)), copy.copy(PHI_LINE),
                  copy.deepcopy(PHI_LINE)):
        assert other == PHI_LINE and hash(other) == hash(PHI_LINE)
    assert PHI_LINE.__reduce__() == (FormalParameter, (PHI_LINE.summands,))


_DUMP = """
import pickle, sys
from abpscalc.cli import parse_parameter
sys.stdout.buffer.write(pickle.dumps(parse_parameter("zeta*(S[3]+S[1]) + x + x^-1 + 1")))
"""

_LOAD = """
import pickle, sys
from abpscalc.cli import parse_parameter
from abpscalc.langlands import PadicGroup, centralizer_restriction
G = PadicGroup("Sp", 6)
loaded = pickle.loads(sys.stdin.buffer.read())
fresh = parse_parameter("zeta*(S[3]+S[1]) + x + x^-1 + 1")
assert loaded == fresh and hash(loaded) == hash(fresh)
data = centralizer_restriction(G, fresh)
before = centralizer_restriction.cache_info()
assert centralizer_restriction(G, loaded) is data
after = centralizer_restriction.cache_info()
assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)
"""


def test_pickled_parameter_hashes_afresh_under_another_hash_seed():
    # the stored hash of a parameter depends on the string hashing of
    # its process; loading it under another seed must hash it again
    def run(code, seed, data=b""):
        src = os.path.dirname(os.path.dirname(langlands.__file__))
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code], input=data, env=env,
                              capture_output=True)
        assert done.returncode == 0, done.stderr.decode()
        return done.stdout

    run(_LOAD, 2, run(_DUMP, 1))


def test_enhancements_are_a_fresh_list():
    data, chars = enhancements(SP4, PHI_RED)
    chars.clear()
    assert enhancements(SP4, PHI_RED) == (data, list(data.springer.characters))
    assert len(data.springer.characters) == 4


def test_warm_centralizer_sees_the_patched_label(request):
    # the centralizer Sp6 of 1*S[6] carries the reader of the class (6);
    # turning the wrong label on must reach a support read after it
    G, phi = PadicGroup("SO", 7), parameter((ONEL, 6))
    data, chars = enhancements(G, phi)
    regular = springer.Bipartition(springer.Partition((3,)), springer.Partition())
    assert cuspidal_support(G, phi, chars[0]).labels == (regular,)
    request.getfixturevalue("wrong_sp6_label")
    wrong = springer.Bipartition(springer.Partition((2, 1)), springer.Partition())
    assert cuspidal_support(G, phi, chars[0]).labels == (wrong,)


class TestBlockSupportMemos:
    @pytest.mark.parametrize("memo", ["_core_weights", "_levi"])
    def test_memo_keeps_the_default_size(self, memo):
        assert getattr(langlands, memo).cache_info().maxsize == 128

    @pytest.mark.parametrize("parts, core, message", [
        ((3, 1), (5,), "unpaired weight 4"),
        ((3, 1), (1,), "unpaired weight 0"),
    ])
    def test_refusal_names_the_factor_and_is_not_stored(self, parts, core, message):
        langlands._core_weights.cache_clear()
        for where in (ZETA, ONEL, ZETA):
            with pytest.raises(InvalidEnhancement) as info:
                _correcting_weights(parts, core, where)
            assert str(info.value) == f"{message} in factor {where}"
        info = langlands._core_weights.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 3, 0)

    def test_cold_and_warm_supports_agree(self):
        corpus = list(_seeded_parameters())
        tables = []
        for memo in ("cold", "warm"):
            if memo == "cold":
                for f in (langlands._core_weights, langlands._levi, springer.core_partition):
                    f.cache_clear()
            tables.append([cuspidal_support(G, phi, eta)
                           for G, phi in corpus for eta in enhancements(G, phi)[1]])
        assert tables[0] == tables[1]
        assert langlands._levi.cache_info().hits

    def test_cold_and_warm_levis_are_built_afresh_equal(self):
        langlands._levi.cache_clear()
        for G in (SP4, PadicGroup("SO", 7), PadicGroup("SO", 8), PadicGroup("GL", 3)):
            for k in range(4):
                for core_dim in range(0, 5, 2 if G.dual_kind == "Sp" else 1):
                    want = langlands._levi.__wrapped__(G, k, core_dim)
                    cold = langlands._levi(G, k, core_dim)
                    assert cold == want
                    assert langlands._levi(G, k, core_dim) is cold


# ---------------------------------------------------------------------------
# the centralizer is the one type check: refusals, and a per-summand oracle


MU = line("mu", catalogue=parse_catalogue("mu kind=ramified order=4 dim=1 selfdual=none"))
SO5 = PadicGroup("SO", 5)


def _refused(G):
    """``(line, parameter)`` pairs of Sp4 or SO5 whose line fails the
    type check, the rest of each parameter being of the dual group's
    type: a line of a ``selfdual=none`` class, untwisted and twisted by
    ``x``, and ``zeta*x`` without ``zeta*x^-1``."""
    rest = (ONEL, 3) if G.dual_kind == "SO" else (ONEL, 2)
    unpaired = ZETA.twisted(CHI)
    twisted = MU.twisted(CHI)
    return [(MU, parameter((MU, 1), (MU, 1), rest)),
            (unpaired, parameter((unpaired, 2), rest)),
            (twisted, parameter((twisted, 1), (twisted, 1), rest))]


def test_dual_refusal_names_the_line_not_its_class():
    # the twisted line x*mu, not its selfdual=none class mu
    with pytest.raises(TypeMismatch, match=r"^no declared dual for x\*mu$"):
        MU.twisted(CHI).dual()


@pytest.mark.parametrize("which", [0, 1, 2],
                         ids=["none-line", "unpaired-twist", "twisted-none-line"])
@pytest.mark.parametrize("G", [SP4, SO5], ids=str)
def test_type_refusals_name_the_line(G, which):
    l, phi = _refused(G)[which]
    assert phi.dim == G.dual_dim
    eta = enhancements(SP4, PHI_RED)[1][0]
    for call in (validate, centralizer_restriction, component_groups, enhancements,
                 lambda G, phi: cuspidal_support(G, phi, eta)):
        with pytest.raises(TypeMismatch, match=re.escape(str(l))):
            call(G, phi)
    assert not is_discrete(G, phi)
    assert is_cuspidal(G, phi) == (False, [])


def test_gl_accepts_lines_without_a_dual():
    G = PadicGroup("GL", 4)
    unpaired = ZETA.twisted(CHI)
    phi = parameter((MU, 1), (MU, 1), (unpaired, 2))
    assert validate(G, phi) is phi
    data = centralizer_restriction(G, phi)
    assert [(f.line, f.kind, f.parts.parts) for f in data.factors] == [
        (MU, "GL", (1, 1)), (unpaired, "GL", (2,))]
    assert not is_discrete(G, phi)
    assert is_cuspidal(G, phi) == (False, [])
    _, chars = enhancements(G, phi)
    assert [cuspidal_support(G, phi, eta).core for eta in chars] == [parameter()]


def _reference_type(l, a):
    """Self-duality type of ``l x S_a``: orthogonal, symplectic, or None
    for a line that is not self-dual."""
    if not l.is_selfdual:
        return None
    flip = a % 2 == 0
    if l.base.selfdual == "orthogonal":
        return "symplectic" if flip else "orthogonal"
    return "orthogonal" if flip else "symplectic"


def _reference_outcome(G, phi):
    """What :func:`validate` does with ``phi``, by counting summands
    without the centralizer: None when it accepts, else the error class.
    Every summand of the other type occurs an even number of times, and
    a summand that is not self-dual as often as its dual."""
    if phi.dim != G.dual_dim:
        return DimensionMismatch
    if G.family == "GL":
        return None
    target = "symplectic" if G.dual_kind == "Sp" else "orthogonal"
    counts = Counter(phi.summands)
    for (l, a), m in counts.items():
        t = _reference_type(l, a)
        if t is None:
            if l.base.selfdual == "none" or counts[(l.dual(), a)] != m:
                return TypeMismatch
        elif t != target and m % 2:
            return TypeMismatch
    return None


def _reference_discrete(G, phi):
    """Whether ``phi`` is discrete, by counting summands: for ``GL`` one
    summand, otherwise distinct summands all of the dual group's type."""
    if G.family == "GL":
        return len(phi.summands) == 1
    target = "symplectic" if G.dual_kind == "Sp" else "orthogonal"
    counts = Counter(phi.summands)
    return (all(m == 1 for m in counts.values())
            and all(_reference_type(l, a) == target for l, a in phi.summands))


def _outcome(G, phi):
    try:
        assert validate(G, phi) is phi
    except (DimensionMismatch, TypeMismatch) as exc:
        return type(exc)
    return None


def _group_for(kind, dim, fallback):
    """A group whose dual has type ``kind`` and dimension ``dim``, or
    ``fallback`` when there is none (a symplectic dual of odd size)."""
    if kind == "Sp":
        return PadicGroup("SO", dim + 1) if dim % 2 == 0 else fallback
    return PadicGroup("Sp", dim - 1) if dim % 2 else PadicGroup("SO", dim)


def _mutations(rng, G, phi):
    """Invalid variants of the valid ``phi``: one summand of a twisted
    pair dropped, one summand of the other type added, and a line with
    no declared dual added; each with a group of its dimension."""
    summands = list(phi.summands)
    twisted = [i for i, (l, _) in enumerate(summands) if not l.is_selfdual]
    variants = []
    if twisted:
        i = rng.choice(twisted)
        variants.append(summands[:i] + summands[i + 1:])
    variants.append(summands + [(rng.choice(LINE_POOL), 1 if G.dual_kind == "Sp" else 2)])
    variants.append(summands + [(MU, rng.randint(1, 2))])
    for v in variants:
        psi = FormalParameter(tuple(v))
        yield _group_for(G.dual_kind, psi.dim, G), psi


def test_validate_and_is_discrete_agree_with_the_summand_count():
    rng = random.Random(20261021)
    outcomes = Counter()
    for family, size in (("Sp", 4), ("Sp", 6), ("SO", 4), ("SO", 5),
                         ("SO", 6), ("SO", 7), ("SO", 8)):
        G = PadicGroup(family, size)
        for _ in range(30):
            phi = random_parameter(rng, G)
            cases = [(G, phi), *_mutations(rng, G, phi)]
            for H, psi in cases:
                want = _reference_outcome(H, psi)
                assert _outcome(H, psi) is want, (str(H), str(psi))
                assert is_discrete(H, psi) == _reference_discrete(H, psi), (str(H), str(psi))
                outcomes[want] += 1
            assert _reference_outcome(G, phi) is None, str(phi)
    assert outcomes[None] >= 210 and outcomes[TypeMismatch] >= 300


def test_gl_validate_and_is_discrete_agree_with_the_summand_count():
    rng = random.Random(20261022)
    pool = LINE_POOL + [MU, ZETA.twisted(CHI), ONEL.twisted(q_power(1))]
    for n in range(1, 7):
        for _ in range(20):
            summands, remaining = [], n
            while remaining:
                a = rng.randint(1, remaining)
                summands.append((rng.choice(pool), a))
                remaining -= a
            phi = FormalParameter(tuple(summands))
            for H in (PadicGroup("GL", n), PadicGroup("GL", n + 1)):
                assert _outcome(H, phi) is _reference_outcome(H, phi), (str(H), str(phi))
                assert is_discrete(H, phi) == _reference_discrete(H, phi), str(phi)
