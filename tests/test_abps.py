"""Tests for the inertial-family pipeline on the rank-2 symplectic target."""

import re
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from abpscalc.abps import (
    InertialTriple,
    InvalidCore,
    MatchingError,
    Packet,
    UnsupportedPeriod,
    action_table,
    bernstein_blocks,
    build_inertial,
    correcting_cocharacters,
    discrete_points,
    fiber,
    inertial_triple,
    mu,
    packets,
    support_orbit,
    tempered_points,
    theta,
    weyl_order,
    weyl_structure,
    _core_group,
    _inertial_action,
    _orbit_form,
    _rebuild,
    _reference,
    _restriction_parameter,
    _row_character,
    _slot_lines,
    _support_signature,
)
from abpscalc.combicore import Bipartition, Partition
from abpscalc import extquot
from abpscalc.extquot import (
    MINUS_ONE,
    ONE,
    MonomialAction,
    RecognizedSubgroup,
    SymbolicTorusPoint,
    act,
    free,
    hyperoctahedral_action,
    permutation_action,
    q_power,
    root_of_unity,
    trivial_action,
)
from abpscalc.langlands import (
    DimensionMismatch,
    FormalParameter,
    PadicGroup,
    centralizer_restriction,
    cuspidal_support,
    enhancements,
    is_cuspidal,
    is_tempered,
    line,
    parameter,
    parse_catalogue,
    validate,
)
from abpscalc.springer import (
    component_group,
    generalized_springer,
    relative_weyl_group,
    springer_blocks,
    unipotent_classes,
)
from test_extquot import GeneratedGroup, eq_size, recognized_action, sign_flip, transposition

SP4 = PadicGroup("Sp", 4)
J = inertial_triple(
    SP4,
    (line("zeta"), line("zeta")),
    FormalParameter(((line("1"), 1),)),
)
MD = mu(SP4, J)
DATA = MD.inertial


def entry(base, irrep):
    for e in MD.entries:
        if str(e.stratum.base) == base and e.irrep == irrep:
            return e
    raise AssertionError(f"no entry at ({base}, {irrep})")


BP = Bipartition
P = Partition


class TestInertialData:
    def test_action_order(self):
        assert len(DATA.action.elements) == 8

    def test_action_table_images(self):
        images = {str(img) for _, img in action_table(DATA)}
        assert images == {
            "(z, z')", "(z', z)", "(z, z'^-1)", "(z'^-1, z)",
            "(z', z^-1)", "(z^-1, z')", "(z'^-1, z^-1)", "(z^-1, z'^-1)",
        }

    def test_identity_row_first(self):
        rows = action_table(DATA)
        assert str(rows[0][1]) == "(z, z')"

    def test_strata_count(self):
        assert len(DATA.strata) == 7

    def test_line_of_period_two_is_refused(self):
        # z and -z give the same twist of such a line, so its coordinate
        # is z^2, which the torus of a triple does not model
        cat = parse_catalogue("tau kind=ramified order=2 dim=2 selfdual=orthogonal period=2")
        j = inertial_triple(SP4, (line("tau", catalogue=cat),), _ONE_CORE)
        for call in (build_inertial, mu, bernstein_blocks):
            with pytest.raises(UnsupportedPeriod, match="coordinate 1 .* tau of period 2"):
                call(SP4, j)

    def test_wrong_group_rejected(self):
        with pytest.raises(ValueError):
            build_inertial(PadicGroup("SO", 5), J)

    def test_non_cuspidal_core_refused(self):
        # 1 + 1 + 1 is not discrete for Sp2; the matching used to end in
        # a label collision at (z)
        core = FormalParameter(((line("1"), 1),) * 3)
        with pytest.raises(InvalidCore, match=r"not cuspidal for Sp2\(F\)"):
            mu(SP4, inertial_triple(SP4, (line("zeta"),), core))

    def test_core_of_wrong_size_refused(self):
        core = FormalParameter(((line("zeta"), 1),))
        with pytest.raises(InvalidCore, match="does not fit Sp4"):
            build_inertial(SP4, inertial_triple(SP4, (line("zeta"),), core))

    @pytest.mark.parametrize("group, coords, core", [
        (("Sp", 4), ("zeta",), ("zeta", "1", "1", "1")),
        (("Sp", 6), ("zeta", "zeta"), ("1",)),
        (("SO", 5), ("zeta",), ("1",)),
        (("SO", 7), ("zeta",), ("1", "zeta", "eta")),
        (("GL", 3), ("zeta",), ("1",)),
    ])
    def test_core_of_wrong_size_is_an_invalid_core(self, group, coords, core):
        # is_cuspidal refuses a core of the wrong size for the core group
        # with DimensionMismatch, but the whole restriction is validated
        # first, so the triple is refused as an invalid core
        G = PadicGroup(*group)
        j = inertial_triple(G, [line(n) for n in coords],
                            FormalParameter(tuple((line(n), 1) for n in core)))
        with pytest.raises(InvalidCore, match=f"does not fit {group[0]}{group[1]}"):
            build_inertial(G, j)

    def test_empty_core_accepted(self):
        G = PadicGroup("SO", 5)
        data = build_inertial(G, inertial_triple(G, (line("zeta"),) * 2))
        assert len(data.strata) == 7

    @pytest.mark.parametrize("size, names, entries", [
        (4, ("tau",), 5),
        (8, ("tau", "tau"), 21),
        (6, ("tau", "zeta"), 25),
    ])
    def test_core_group_of_lines_of_dimension_two(self, size, names, entries):
        # each coordinate on the dim-2 line tau takes 4 from the size of
        # Sp: tau and its dual; the core 1 is a parameter of Sp0
        G = PadicGroup("Sp", size)
        coords = [line(n, catalogue=_TAU if n == "tau" else None) for n in names]
        j = inertial_triple(G, coords, _ONE_CORE)
        assert _core_group(j) == PadicGroup("Sp", 0)
        assert len(mu(G, j).entries) == entries


class TestMatching:
    def test_total_count(self):
        assert len(MD.entries) == 21

    def test_family_count(self):
        assert len(MD.families) == 15

    def test_family_kinds(self):
        kinds = Counter(e.family.kind for e in MD.families)
        assert kinds == {"generic": 1, "special": 12,
                         "sheet": 1, "plane_generic": 1}

    def test_component_inventory(self):
        comps = Counter(str(e.component) for e in MD.families)
        assert comps == {"(3,1)": 4, "(2,2)": 1, "(1,1,1,1)": 10}

    def test_bijective(self):
        seen = {(str(e.param), str(e.eta)) for e in MD.entries}
        assert len(seen) == 21

    def test_every_support_has_two_coordinates(self):
        for e in MD.entries:
            assert len(e.support.coordinates) == 2

    def test_deep_sign_pair_is_subregular(self):
        e = entry("(1, 1)", BP(P((1, 1)), P(())))
        assert str(e.u) == "(3,1)x(1)"
        assert e.cochar == (2, 0)
        assert e.eta.value((0, 1)) == 1 and e.eta.value((0, 3)) == 1

    def test_steinberg_family(self):
        e = entry("(z, z)", P((1, 1)))
        assert str(e.u) == "(2)x(1)"
        assert e.cochar == (1, -1)
        assert str(e.component) == "(2,2)"

    def test_quadrant_sign_character(self):
        e = entry("(1, -1)", (-1, -1))
        # first orthogonal factor (untwisted line) sees the minus sign
        assert e.eta.value((0, 1)) == -1
        assert e.eta.value((1, 1)) == 1

    def test_fiber_matches_entries(self):
        assert len(fiber(SP4, J)) == 21

    def test_row_character_of_the_quadrant(self):
        # the generators flip coordinates (1) and (1, 2): their values are
        # the sign at 1 and the product of the signs at 1 and 2
        st = entry("(1, -1)", (1, 1)).stratum
        plus, minus = BP(P((1,)), P(())), BP(P(()), P((1,)))
        owner = {0: 0, 1: 1}
        assert _row_character(st, (minus, plus, BP()), owner) == (-1, -1)
        assert _row_character(st, (plus, minus, BP()), owner) == (1, -1)

    @pytest.mark.parametrize("labels, owner, message", [
        ((BP(P((1,)), P(())), BP(P((1,)), P(())), BP()), {0: 0},
         r"no centralizer factor on coordinate 2 at \(1, -1\)"),
        ((BP(P((1, 1)), P(())), BP(P((1,)), P(())), BP()), {0: 0, 1: 1},
         r"label \(1.1,-\) on flipped coordinate 1 at \(1, -1\) is not a one-box"),
    ])
    def test_unreadable_row_is_a_matching_error(self, labels, owner, message):
        st = entry("(1, -1)", (1, 1)).stratum
        with pytest.raises(MatchingError, match=message):
            _row_character(st, labels, owner)


class TestTwistingMaps:
    def test_theta_one_is_projection(self):
        # every listed image of the base reads the form of theta at 1
        for e in MD.entries:
            images = {_orbit_form(DATA.action, act(w, e.stratum.base))
                      for w in DATA.action.elements}
            assert images == {theta(ONE, e, MD)}

    def test_support_is_sqrt_q_shift(self):
        for e in MD.entries:
            assert support_orbit(e, MD) == theta(q_power(1), e, MD)

    def test_steinberg_shift(self):
        e = entry("(z, z)", P((1, 1)))
        shifted = SymbolicTorusPoint((q_power(1) * free("z"), q_power(-1) * free("z")))
        assert str(shifted) == "(q^{1/2}*z, q^{-1/2}*z)"
        assert theta(q_power(1), e, MD) == _orbit_form(DATA.action, shifted)

    def test_trivial_label_never_moves(self):
        e = entry("(z, z')", ())
        for z in (ONE, q_power(1), q_power(-3)):
            assert theta(z, e, MD) == theta(ONE, e, MD)


class TestStabilizerIdentity:
    def test_orders_match_structure(self):
        for e in MD.entries:
            assert e.stratum.group.order == weyl_order(e.support)

    def test_orders_match_relative_weyl(self):
        for e in MD.entries:
            rel = relative_weyl_group(e.support.core_triple)
            assert e.stratum.group.order == rel.order


class TestWeylStructure:
    def test_full_principal_point(self):
        e = entry("(1, 1)", BP(P((1, 1)), P(())))
        assert weyl_structure(e.support) == "(S2 x| Z/2) x| Z/2"

    def test_steinberg(self):
        e = entry("(z, z)", P((1, 1)))
        assert weyl_structure(e.support) == "S2 x| {1}"

    def test_line(self):
        e = entry("(1, z)", (1,))
        assert weyl_structure(e.support) == "{1} x| Z/2"

    def test_quadrant(self):
        e = entry("(1, -1)", (1, 1))
        assert weyl_structure(e.support) == "{1} x| (Z/2 x Z/2)"

    def test_cuspidal_enhancement(self):
        phi = parameter((line("zeta"), 3), (line("zeta"), 1), line("1"))
        _, chars = is_cuspidal(SP4, phi)
        res = cuspidal_support(SP4, phi, chars[0])
        assert weyl_structure(res) == "{1} x| Z/2"
        assert weyl_order(res) == 2


class TestFilters:
    def test_all_base_points_tempered(self):
        assert len(tempered_points(MD)) == 21

    def test_discrete_points(self):
        disc = discrete_points(MD)
        assert len(disc) == 4
        assert {str(e.stratum.base) for e in disc} == {"(1, 1)", "(-1, -1)"}
        assert all(str(e.component) == "(3,1)" for e in disc)


class TestPackets:
    def locate(self, base, u):
        for p in packets(MD):
            if str(p.stratum.base) == base and str(p.u) == u:
                return p
        raise AssertionError((base, u))

    def test_total(self):
        assert len(packets(MD)) == 12

    def test_subregular_packet(self):
        p = self.locate("(1, 1)", "(3,1)x(1)")
        assert len(p.members) == 2 and p.size == 4

    def test_steinberg_singleton(self):
        p = self.locate("(z, z)", "(2)x(1)")
        assert len(p.members) == 1 and p.size == 1

    def test_line_packet(self):
        p = self.locate("(1, z)", "(1)x(1,1)x(1)")
        assert len(p.members) == 2 and p.size == 2

    def test_quadrant_packet(self):
        p = self.locate("(1, -1)", "(1,1)x(1,1)x(1)")
        assert len(p.members) == 4 and p.size == 4

    def test_member_count_totals(self):
        assert sum(len(p.members) for p in packets(MD)) == 21


class TestBlocks:
    def test_five_blocks(self):
        blocks = bernstein_blocks(SP4, J)
        assert len(blocks) == 5
        assert blocks[0] is J

    def test_cuspidal_singletons(self):
        blocks = bernstein_blocks(SP4, J)[1:]
        assert all(b.rank == 0 for b in blocks)
        cores = Counter(str(b.core) for b in blocks)
        assert cores == {
            "1 + zeta + zeta*S[3]": 2,
            "1 + zeta*xi + zeta*xi*S[3]": 2,
        }

    def test_distinct_characters(self):
        blocks = bernstein_blocks(SP4, J)[1:]
        assert len({(str(b.core), str(b.core_char)) for b in blocks}) == 4


class TestCocharacters:
    def test_three_classes(self):
        classes = correcting_cocharacters(SP4, J)
        assert {c for _, c in classes} == {(0, 0), (1, -1), (2, 0)}
        assert {str(p) for p, _ in classes} == {"(1,1,1,1)", "(2,2)", "(3,1)"}


def orbit_classes(md):
    """The correcting cocharacters one per orbit of the point ``(q^{c_i/2})``,
    each orbit enumerated over the group's elements: the oracle of the
    normal form of :func:`correcting_cocharacters`."""
    out, seen, orbits = [], set(), {}
    for e in md.entries:
        if e.cochar not in orbits:
            point = SymbolicTorusPoint(tuple(q_power(c) for c in e.cochar))
            orbits[e.cochar] = frozenset(act(w, point) for w in md.inertial.action.elements)
        if orbits[e.cochar] not in seen:
            seen.add(orbits[e.cochar])
            out.append((e.component, e.cochar))
    return out


class TestFreeAction:
    CAT = parse_catalogue(
        """
        chi kind=ramified order=5 dim=1 selfdual=none period=1
        psi kind=ramified order=7 dim=1 selfdual=none period=1
        """
    )

    def triple(self):
        G = PadicGroup("GL", 2)
        return G, inertial_triple(
            G,
            (line("chi", catalogue=self.CAT), line("psi", catalogue=self.CAT)),
        )

    def test_action_is_free(self):
        G, j = self.triple()
        data = build_inertial(G, j)
        assert len(data.action.elements) == 1
        assert all(st.group.order == 1 for st in data.strata)

    def test_support_injective_when_free(self):
        G, j = self.triple()
        md = mu(G, j)
        orbits = [support_orbit(e, md) for e in md.entries]
        assert len(set(orbits)) == len(orbits)

    def test_support_not_injective_on_sp4(self):
        orbits = [support_orbit(e, MD) for e in MD.entries]
        assert len(set(orbits)) < len(orbits)


class TestLargestCorpusTriple:
    """Sp8 zeta^4: the largest triple of the corpus, every stabilizer
    character matched with one enhanced parameter."""

    def test_sp8_zeta4(self):
        G = PadicGroup("Sp", 8)
        j = inertial_triple(G, (line("zeta"),) * 4, FormalParameter(((line("1"), 1),)))
        md = mu(G, j)
        data = md.inertial
        assert len(data.strata) == 26
        assert len(md.entries) == 226
        assert len(md.entries) == sum(len(st.group.irreps()) for st in data.strata)
        assert len({(e.param, e.eta) for e in md.entries}) == 226


# The triples of the benchmark's matching corpus on which ``mu`` answers,
# and the largest corpus triple, Sp8 zeta^4.
_ONE_CORE = FormalParameter(((line("1"), 1),))
_FREE = parse_catalogue("chi kind=ramified order=5 dim=1 selfdual=none period=1\n"
                        "psi kind=ramified order=7 dim=1 selfdual=none period=1")
_TAU = parse_catalogue("tau kind=ramified order=2 dim=2 selfdual=orthogonal")
_TAU_SYMPLECTIC = parse_catalogue("tau kind=ramified order=2 dim=2 selfdual=symplectic")
ANSWERING = [
    ("Sp", 4, ["zeta", "zeta"], _ONE_CORE, None),
    ("Sp", 4, ["zeta", "eta"], _ONE_CORE, None),
    ("Sp", 6, ["zeta"] * 3, _ONE_CORE, None),
    ("Sp", 6, ["zeta", "zeta", "eta"], _ONE_CORE, None),
    ("Sp", 6, ["zeta", "eta", "1"], _ONE_CORE, None),
    ("SO", 5, ["zeta", "zeta"], FormalParameter(()), None),
    ("SO", 7, ["zeta"] * 3, FormalParameter(()), None),
    ("GL", 2, ["zeta"] * 2, FormalParameter(()), None),
    ("GL", 3, ["zeta"] * 3, FormalParameter(()), None),
    ("GL", 2, ["chi", "psi"], FormalParameter(()), _FREE),
    ("Sp", 8, ["zeta"] * 4, _ONE_CORE, None),
]


def _answering_triple(family, size, names, core, catalogue):
    G = PadicGroup(family, size)
    return G, inertial_triple(G, [line(n, catalogue=catalogue) for n in names], core)


def _triple_id(spec):
    family, size, names = spec[:3]
    return f"{family}{size}({','.join(names)})"


@pytest.mark.parametrize("spec", ANSWERING, ids=_triple_id)
def test_cocharacter_normal_form_is_the_orbit(spec):
    G, j = _answering_triple(*spec)
    assert correcting_cocharacters(G, j) == orbit_classes(mu(G, j))


# coordinates with free variables, torsion and q-powers: 1 and -1 are
# their own inverses, z and 1/z are each other's, and the others order
# differently from their inverses in torsion, in qexp or in the monomial
_FORM_COORDS = (
    ONE, MINUS_ONE, free("z"), free("z").inverse(), free("w") * q_power(1),
    root_of_unity(Fraction(1, 3)), root_of_unity(Fraction(1, 3)) * q_power(-1),
    free("z") ** 2 * q_power(-1), root_of_unity(Fraction(3, 4)) * q_power(2),
)
# products of symmetric and hyperoctahedral groups on blocks of rank <= 3,
# some of them interleaved, as inertial actions are
_FORM_ACTIONS = [
    ("B1", hyperoctahedral_action(1)), ("B2", hyperoctahedral_action(2)),
    ("B3", hyperoctahedral_action(3)), ("S2", permutation_action(2)),
    ("S3", permutation_action(3)), ("T2", trivial_action(2)),
    ("S2xB1", MonomialAction(3, [("A", (0, 1)), ("B", (2,))])),
    ("B1^3", MonomialAction(3, [("B", (c,)) for c in range(3)])),
    ("B2xS1_interleaved", MonomialAction(3, [("B", (0, 2)), ("A", (1,))])),
    ("S2xB1_interleaved", MonomialAction(3, [("A", (0, 2)), ("B", (1,))])),
]


@pytest.mark.parametrize("name, action", _FORM_ACTIONS, ids=[n for n, _ in _FORM_ACTIONS])
def test_orbit_form_names_the_listed_orbit(name, action):
    # two points share a form exactly when one lies in the listed orbit
    # of the other: each form is read on one orbit, and there are as many
    # forms as orbits
    assert {kind for kind, _ in action.blocks} <= {"A", "B"}
    orbits_of = {}
    for coords in product(_FORM_COORDS, repeat=action.rank):
        t = SymbolicTorusPoint(coords)
        orbit = frozenset(act(w, t) for w in action.elements)
        assert t in orbit
        orbits_of.setdefault(_orbit_form(action, t), set()).add(orbit)
    assert all(len(orbits) == 1 for orbits in orbits_of.values())
    assert len(set().union(*orbits_of.values())) == len(orbits_of)
    if action.order > 1:
        assert len(orbits_of) < len(_FORM_COORDS) ** action.rank


@pytest.fixture
def unlisted(monkeypatch):
    """Refuse to list the elements of any action or stabilizer."""
    def refuse(self):
        raise AssertionError(f"elements of {type(self).__name__} listed")

    monkeypatch.setattr(MonomialAction, "elements", property(refuse))
    monkeypatch.setattr(RecognizedSubgroup, "elements", property(refuse))


@pytest.mark.parametrize("spec", [ANSWERING[0], ANSWERING[2]], ids=_triple_id)
def test_twisting_maps_list_no_element(spec, unlisted):
    # mu and the twisting maps read orbits off normal forms, so they
    # answer with every listing refused
    G, j = _answering_triple(*spec)
    md = mu(G, j)
    assert len(md.entries) == sum(len(st.group.irreps()) for st in md.inertial.strata)
    for e in md.entries:
        assert theta(ONE, e, md) == _orbit_form(md.inertial.action, e.stratum.base)
        assert theta(q_power(1), e, md) == support_orbit(e, md), str(e)


class TestOneCentralizerPerParameter:
    @pytest.mark.parametrize("spec", ANSWERING, ids=_triple_id)
    def test_rebuilt_centralizer_is_the_centralizer(self, spec):
        # the centralizer _rebuild hands on is the one centralizer_restriction
        # computes for the rebuilt parameter, at every class of every stratum
        G, j = _answering_triple(*spec)
        for st in build_inertial(G, j).strata:
            restriction = _restriction_parameter(j, _slot_lines(j, st.base))
            cdata = centralizer_restriction(G, restriction)
            for u in unipotent_classes(cdata.group):
                phi, pdata = _rebuild(cdata, u)
                fresh = centralizer_restriction(G, phi)
                assert pdata.group == fresh.group, (st.base, u)
                assert len(pdata.factors) == len(fresh.factors), (st.base, u)
                for mine, theirs in zip(pdata.factors, fresh.factors):
                    for name in mine._fields:
                        assert getattr(mine, name) == getattr(theirs, name), (
                            st.base, u, name)

    @pytest.mark.parametrize("spec", ANSWERING[:-1], ids=_triple_id)
    def test_mu_computes_one_centralizer_per_stratum(self, spec, centralizer_calls):
        # mu builds the inertial data itself; beyond the lookups of its
        # core check it looks up one centralizer per stratum
        G, j = _answering_triple(*spec)
        data = build_inertial(G, j)
        checked = len(centralizer_calls)
        del centralizer_calls[:]
        md = mu(G, j)
        assert len(md.entries) >= len(data.strata)
        assert len(centralizer_calls) == checked + len(data.strata)


class TestSupportsFromTheBlockTable:
    @pytest.mark.parametrize("spec", ANSWERING, ids=_triple_id)
    def test_support_is_the_cuspidal_support(self, spec):
        # mu reads each support off the Springer block of its table; the
        # same support comes out of cuspidal_support on a fresh centralizer
        G, j = _answering_triple(*spec)
        for e in mu(G, j).entries:
            want = cuspidal_support(G, e.param, e.eta)
            for name in want._fields:
                assert getattr(e.support, name) == getattr(want, name), (
                    str(e), name)
            fresh = centralizer_restriction(G, e.param)
            assert generalized_springer(fresh.group, fresh.unipotent, e.eta) == (
                e.support.core_triple, e.support.labels), str(e)

    @pytest.mark.parametrize("spec", ANSWERING[:-1], ids=_triple_id)
    def test_mu_makes_one_springer_lookup(self, spec, springer_calls):
        # the one lookup per stratum is its block table: the reference
        # block and every support come from it, and beyond the core check
        # of build_inertial mu looks up no single pair
        G, j = _answering_triple(*spec)
        data = build_inertial(G, j)
        checked = {name: len(springer_calls[name]) for name in ("generalized_springer", "read")}
        for calls in springer_calls.values():
            del calls[:]
        mu(G, j)
        for name, n in checked.items():
            assert len(springer_calls[name]) == n, name
        assert springer_calls["cuspidal_support"] == []
        assert len(springer_calls["springer_blocks"]) == len(data.strata)

    @pytest.mark.parametrize("spec", ANSWERING, ids=_triple_id)
    def test_one_support_per_class_and_block(self, spec, block_support_calls):
        # rows of one unipotent class in one block differ only in their
        # labels, so each stratum builds one support per class and block
        G, j = _answering_triple(*spec)
        md = mu(G, j)
        distinct = {(str(e.stratum.base), e.u, e.support.core_triple) for e in md.entries}
        assert len(block_support_calls) == len(distinct)

    @pytest.mark.parametrize("spec", ANSWERING, ids=_triple_id)
    def test_cold_strata_give_the_same_matching(self, spec):
        G, j = _answering_triple(*spec)
        warm = _rendered(mu(G, j))
        extquot._pattern_strata.cache_clear()
        assert _rendered(mu(G, j)) == warm


def _rendered(md):
    """Every field of every entry, as text."""
    return [(str(e.stratum), str(e.irrep), str(e.family), str(e.param), str(e.eta),
             str(e.u), str(e.support), str(e.support.labels), e.cochar, str(e.component))
            for e in md.entries]


# ---------------------------------------------------------------------------
# one validation per triple, and the blocks read off the Springer table


@pytest.mark.parametrize("call", [build_inertial, mu, bernstein_blocks],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("group, names, dim, need", [
    (("GL", 3), ("zeta", "zeta"), 2, 3),
    (("SO", 5), ("zeta",), 2, 4),
])
def test_empty_core_of_wrong_size_is_refused(call, group, names, dim, need):
    # build_inertial validates the base restriction; bernstein_blocks
    # used to answer [triple] for the GL3 triple
    G = PadicGroup(*group)
    j = inertial_triple(G, [line(n) for n in names])
    with pytest.raises(DimensionMismatch, match=re.escape(
            f"parameter of dimension {dim} for {G} (need {need})")):
        call(G, j)


@pytest.mark.parametrize("selfdual, group, core, largest", [
    ("orthogonal", ("Sp", 4), _ONE_CORE, 0),
    ("orthogonal", ("SO", 5), FormalParameter(()), 1),
    ("symplectic", ("Sp", 4), _ONE_CORE, 1),
    ("symplectic", ("SO", 5), FormalParameter(()), 0),
])
def test_reducibility_points_of_a_line_of_dimension_two(selfdual, group, core, largest):
    # Moeglin: tau|.|^s x| 1 reduces at s = 1/2 exactly when tau x S[2]
    # has the dual group's type, and otherwise only at 0; so the largest
    # correcting exponent at z = 1 and at z = -1 is 1 or 0 half-units
    G = PadicGroup(*group)
    cat = _TAU if selfdual == "orthogonal" else _TAU_SYMPLECTIC
    md = mu(G, inertial_triple(G, (line("tau", catalogue=cat),), core))
    for base in ("(1)", "(-1)"):
        exps = [c for e in md.entries if str(e.stratum.base) == base for c in e.cochar]
        assert exps and max(exps) == largest, base


@pytest.mark.parametrize("group, coords, core", [
    (("Sp", 4), ("zeta", "zeta"), (("1", 1),)),
    (("SO", 5), ("zeta",), (("zeta", 2),)),
    (("Sp", 6), ("zeta",), (("1", 1), ("zeta", 1), ("zeta", 3))),
])
def test_reference_is_the_block_of_the_trivial_character(group, coords, core):
    # the reference is the block of the trivial character of the open
    # stratum's class, found by value whatever the order of the table;
    # with 1 + zeta + zeta*S[3] that class has two characters
    G = PadicGroup(*group)
    j = inertial_triple(G, [line(n) for n in coords],
                        FormalParameter(tuple((line(n), a) for n, a in core)))
    st = build_inertial(G, j).strata[0]
    cdata = centralizer_restriction(G, _restriction_parameter(j, _slot_lines(j, st.base)))
    trivial = component_group(cdata.group, cdata.unipotent).characters()[0]
    assert set(trivial.values) <= {1}
    tri, _ = generalized_springer(cdata.group, cdata.unipotent, trivial)
    want = _support_signature(tri, cdata.factors)
    blocks = springer_blocks(cdata.group)
    assert _reference(st, cdata, blocks) == want
    assert _reference(st, cdata, dict(reversed(blocks.items()))) == want
    with pytest.raises(MatchingError, match=re.escape(f"open stratum {st.base}")):
        _reference(st, cdata, {})


def _walked_blocks(G, triple):
    """``bernstein_blocks`` by a walk over every unipotent class of each
    point stratum's centralizer, each rebuilt parameter tested with
    ``is_cuspidal``: the oracle of the reading off the Springer table."""
    blocks, seen = [triple], set()
    for st in build_inertial(G, triple).strata:
        if st.dimension:
            continue
        cdata = centralizer_restriction(
            G, _restriction_parameter(triple, _slot_lines(triple, st.base)))
        for u in unipotent_classes(cdata.group):
            phi, _ = _rebuild(cdata, u)
            for eta in is_cuspidal(G, phi)[1]:
                if (phi, eta) not in seen:
                    seen.add((phi, eta))
                    blocks.append(InertialTriple(G, (), phi, eta))
    return blocks


def _blocks_corpus():
    """For k = 1..4 every multiset of k lines from {1, zeta, eta} on
    Sp(2k) with the core 1 and on SO(2k+1) and SO(2k) with an empty
    core; then tau of each type on Sp4, Sp8, SO5 and SO9."""
    out = []
    for k in (1, 2, 3, 4):
        for names in combinations_with_replacement(("1", "zeta", "eta"), k):
            out += [("Sp", 2 * k, names, _ONE_CORE, None),
                    ("SO", 2 * k + 1, names, FormalParameter(()), None),
                    ("SO", 2 * k, names, FormalParameter(()), None)]
    for cat in (_TAU, _TAU_SYMPLECTIC):
        out += [("Sp", 4, ("tau",), _ONE_CORE, cat),
                ("Sp", 8, ("tau", "tau"), _ONE_CORE, cat),
                ("SO", 5, ("tau",), FormalParameter(()), cat),
                ("SO", 9, ("tau", "tau"), FormalParameter(()), cat)]
    return [pytest.param(spec, id=_triple_id(spec) + (
        "-" + spec[4]["tau"].selfdual if spec[4] else "")) for spec in out]


@pytest.mark.parametrize("spec", _blocks_corpus())
def test_blocks_from_the_table_are_the_walked_blocks(spec):
    G, j = _answering_triple(*spec)
    got = [f"{b} | {b.core_char}" for b in bernstein_blocks(G, j)]
    assert got == [f"{b} | {b.core_char}" for b in _walked_blocks(G, j)]


# ---------------------------------------------------------------------------
# the ABPS statement as an oracle over a corpus of triples

# the benchmark's matching corpus, each Sp target with the core 1
MATCHING_TRIPLES = [
    ("Sp", 4, ("zeta", "zeta")), ("Sp", 4, ("zeta", "eta")), ("Sp", 4, ("1", "1")),
    ("Sp", 6, ("zeta",) * 3), ("Sp", 6, ("zeta", "zeta", "eta")),
    ("Sp", 6, ("zeta", "eta", "1")), ("SO", 5, ("zeta", "zeta")),
    ("SO", 4, ("zeta", "zeta")), ("SO", 7, ("zeta",) * 3),
    ("GL", 2, ("zeta",) * 2), ("GL", 3, ("zeta",) * 3), ("GL", 2, ("chi", "psi")),
]

# _component_label removes the core's Jordan blocks from the parts of
# every factor, and list.remove fails when no factor has such a part
SP_CORE_CRASH = {
    ("Sp", 2, ("1",)), ("Sp", 4, ("1", "1")), ("Sp", 6, ("1", "1", "1")),
    ("Sp", 6, ("1", "zeta", "zeta")), ("Sp", 6, ("1", "eta", "eta")),
}


def _oracle_corpus():
    """The matching triples, then for k = 1..3 every multiset of k lines
    from {1, zeta, eta} on Sp(2k) with the core 1 and on SO(2k+1) and
    SO(2k) with an empty core, without repeats; the known failures are
    strict xfails naming their ROADMAP item."""
    specs = list(MATCHING_TRIPLES)
    for k in (1, 2, 3):
        for names in combinations_with_replacement(("1", "zeta", "eta"), k):
            specs += [("Sp", 2 * k, names), ("SO", 2 * k + 1, names), ("SO", 2 * k, names)]
    out = []
    for spec in dict.fromkeys(specs):
        family, size, _ = spec
        marks = []
        if spec in SP_CORE_CRASH:
            marks.append(pytest.mark.xfail(strict=True, raises=ValueError, reason=(
                "ROADMAP item 1: _component_label removes the core's parts "
                "from a factor that lacks them")))
        elif family == "SO" and size % 2 == 0:
            marks.append(pytest.mark.xfail(strict=True, raises=MatchingError, reason=(
                "ROADMAP item 4: SO(2n) acts by W(B) instead of W(D)")))
        out.append(pytest.param(spec, marks=marks, id=_triple_id(spec)))
    sp8 = ("Sp", 8, ("zeta",) * 4)  # the largest triple
    return out + [pytest.param(sp8, id=_triple_id(sp8))]


ORACLE_CORPUS = _oracle_corpus()


def _oracle_triple(spec):
    family, size, names = spec
    return _answering_triple(family, size, names,
                             _ONE_CORE if family == "Sp" else FormalParameter(()),
                             _FREE if "chi" in names else None)


@pytest.mark.parametrize("spec", [p.values[0] for p in ORACLE_CORPUS], ids=_triple_id)
def test_every_stratum_has_a_valid_restriction(spec):
    # build_inertial validates the base restriction only; this is the
    # property that makes one check enough
    G, j = _oracle_triple(spec)
    for st in build_inertial(G, j).strata:
        restriction = _restriction_parameter(j, _slot_lines(j, st.base))
        assert validate(G, restriction) == restriction, str(st.base)


def _class_generators(triple):
    """Generators of the inertial action of ``triple``: the swaps of
    consecutive members of each coordinate class, with the flip of its
    first member when the class is self-dual and the target is not
    GL."""
    n, gens, classes = triple.rank, [], {}
    for i, l in enumerate(triple.coordinates):
        classes.setdefault(l.base, []).append(i)
    for base, members in classes.items():
        gens += [transposition(n, i, j) for i, j in zip(members, members[1:])]
        if triple.group.family != "GL" and base.selfdual != "none":
            gens.append(sign_flip(n, members[:1]))
    return gens


@pytest.mark.parametrize("spec", [p.values[0] for p in ORACLE_CORPUS], ids=_triple_id)
def test_inertial_action_is_the_recognized_one(spec):
    # the declared blocks are those recognized from the generators
    _, j = _oracle_triple(spec)
    recognized = recognized_action(GeneratedGroup(j.rank, _class_generators(j)))
    assert _inertial_action(j) == recognized


@pytest.mark.parametrize("spec", ORACLE_CORPUS)
def test_abps_oracle(spec):
    G, j = _oracle_triple(spec)
    md = mu(G, j)
    entries = md.entries
    # mu is a bijection from T//W onto the enhanced parameters it reaches,
    # and T//W has the size of its closed form
    assert len(entries) == sum(len(st.group.irreps()) for st in md.inertial.strata)
    assert len(entries) == eq_size(md.inertial.action.blocks)
    assert len({(e.param, e.eta) for e in entries}) == len(entries)
    # the packets partition the entries, one per parameter, each as large
    # as the parameter's enhancement count
    ps = packets(md)
    assert sorted(id(e) for p in ps for e in p.members) == sorted(map(id, entries))
    assert len({p.members[0].param for p in ps}) == len(ps)
    for p in ps:
        assert {e.param for e in p.members} == {p.members[0].param}
        assert p.size == len(enhancements(G, p.members[0].param)[1]) >= len(p.members)
    # theta at 1 is the projection: every listed image of the base reads
    # its form, listed once per stratum; theta at q^{1/2} is the support
    action, images = md.inertial.action, {}
    for e in entries:
        base = e.stratum.base
        if base not in images:
            images[base] = {_orbit_form(action, act(w, base)) for w in action.elements}
        assert images[base] == {theta(ONE, e, md)}, str(e)
        assert theta(q_power(1), e, md) == support_orbit(e, md), str(e)
    # the packet property: two entries share a parameter exactly when
    # theta_s names one orbit for both at a free s
    s, by_param, by_theta = free("s"), {}, {}
    for i, e in enumerate(entries):
        by_param.setdefault(e.param, []).append(i)
        by_theta.setdefault(theta(s, e, md), []).append(i)
    assert sorted(by_param.values()) == sorted(by_theta.values())
    tempered = tempered_points(md)
    assert tempered == tuple(e for e in entries if is_tempered(G, e.param))
    assert {id(e) for e in discrete_points(md)} <= {id(e) for e in tempered}
