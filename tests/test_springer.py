import re
from collections import Counter
from itertools import product

import pytest

from abpscalc import springer
from abpscalc.combicore import Bipartition, DLabel, Partition, bipartitions, sign_twist
from abpscalc.springer import (
    GL,
    GroupFactor,
    Orth,
    SO,
    Sp,
    component_group,
    cuspidal_triples,
    enumerate_pairs,
    generalized_springer,
    group_product,
    relative_weyl_group,
    CuspidalTriple,
    springer_blocks,
    unipotent_classes,
    SignCharacter,
    SpringerError,
    UnipotentClass,
)


def cls(group, *parts, tag=""):
    return UnipotentClass((Partition(parts),), (tag,))


def char_from_marks(group, u, marks):
    """Sign character with value -1 exactly on the given part values."""
    A = component_group(group, u)
    vals = tuple(-1 if k[1] in marks else 1 for k in A.keys)
    return SignCharacter(vals, A)


def bp(alpha, beta):
    return Bipartition(Partition(alpha), Partition(beta))


def generalized_springer_inverse(group, triple, label):
    """The pair mapping to ``(triple, label)``."""
    for t, rows in springer_blocks(group).items():
        if t != triple:
            continue
        for u, ch, lab in rows:
            if lab == label:
                return u, ch
    raise SpringerError(f"no pair with support {triple} and label {label}")


def is_cuspidal_pair(group, u, char):
    """Whether the pair is its own support (quasi-Levi equal to the
    whole group)."""
    triple, _ = generalized_springer(group, u, char)
    return triple.is_cuspidal


def is_distinguished(group, u):
    """No central torus in the centralizer: every part of the right
    parity, multiplicity free."""
    for f, lam in zip(group.factors, u.partitions):
        if f.kind == "GL":
            if lam.parts != (f.n,) and f.n > 0:
                return False
        elif f.kind == "Sp":
            if any(v % 2 or lam.multiplicity(v) > 1 for v in lam.parts):
                return False
        else:
            if any(v % 2 == 0 or lam.multiplicity(v) > 1 for v in lam.parts):
                return False
    return True


# ---------------------------------------------------------------------------
# rank-3 symplectic group: the full correspondence, all three blocks


SP6_ORACLE = [
    # (parts, marked values, core size d, label)
    ((6,), (), 0, bp((3,), ())),
    ((4, 2), (), 0, bp((2,), (1,))),
    ((4, 2), (2, 4), 0, bp((), (3,))),
    ((4, 1, 1), (), 0, bp((2, 1), ())),
    ((3, 3), (), 0, bp((1,), (2,))),
    ((2, 2, 2), (), 0, bp((1, 1), (1,))),
    ((2, 2, 1, 1), (), 0, bp((1,), (1, 1))),
    ((2, 2, 1, 1), (2,), 0, bp((), (2, 1))),
    ((2, 1, 1, 1, 1), (), 0, bp((1, 1, 1), ())),
    ((1,) * 6, (), 0, bp((), (1, 1, 1))),
    ((6,), (6,), 1, bp((2,), ())),
    ((4, 2), (4,), 1, bp((1, 1), ())),
    ((4, 1, 1), (4,), 1, bp((1,), (1,))),
    ((2, 2, 2), (2,), 1, bp((), (2,))),
    ((2, 1, 1, 1, 1), (2,), 1, bp((), (1, 1))),
    ((4, 2), (2,), 2, bp((), ())),
]


def test_sp6_correspondence_matches_frozen_table():
    g = Sp(6)
    seen = []
    for parts, marks, d, label in SP6_ORACLE:
        u = cls(g, *parts)
        ch = char_from_marks(g, u, set(marks))
        triple, lab = generalized_springer(g, u, ch)
        assert triple.ds == (d,), (parts, marks)
        assert lab == (label,), (parts, marks, str(lab[0]), str(label))
        seen.append((u, ch))
    # the sixteen rows exhaust all pairs of the group
    assert len(enumerate_pairs(g)) == 16
    assert len({(u, ch) for u, ch in seen}) == 16


def test_sp6_cuspidal_row():
    g = Sp(6)
    u = cls(g, 4, 2)
    ch = char_from_marks(g, u, {2})
    assert is_cuspidal_pair(g, u, ch)
    assert not is_cuspidal_pair(g, u, char_from_marks(g, u, {4}))


def test_character_of_another_class_is_refused():
    g = Sp(6)
    ch = char_from_marks(g, cls(g, 6), {6})
    with pytest.raises(SpringerError, match=r"cannot mark part value 6 of \(4,2\)"):
        generalized_springer(g, cls(g, 4, 2), ch)


def test_sp6_inverse_roundtrip():
    g = Sp(6)
    for parts, marks, d, label in SP6_ORACLE:
        u = cls(g, *parts)
        ch = char_from_marks(g, u, set(marks))
        triple, lab = generalized_springer(g, u, ch)
        assert generalized_springer_inverse(g, triple, lab) == (u, ch)


# ---------------------------------------------------------------------------
# rank-2 even special orthogonal group


def test_so4_correspondence_matches_frozen_table():
    g = SO(4)
    rows = {}
    for u in unipotent_classes(g):
        for ch in component_group(g, u).characters():
            triple, lab = generalized_springer(g, u, ch)
            rows[(u.partitions[0].parts, u.tags[0], ch.values)] = (triple.ds[0], lab[0])
    assert len(rows) == 5
    d, lab = rows[((3, 1), "", (1, 1))]
    assert (d, lab) == (0, DLabel(Partition((2,)), Partition()))
    d, lab = rows[((3, 1), "", (-1, 1))]
    assert (d, lab) == (2, bp((), ()))
    d, lab = rows[((2, 2), "I", ())]
    assert (d, lab) == (0, DLabel(Partition((1,)), Partition((1,)), primed=False))
    d, lab = rows[((2, 2), "II", ())]
    assert (d, lab) == (0, DLabel(Partition((1,)), Partition((1,)), primed=True))
    d, lab = rows[((1, 1, 1, 1), "", (1,))]
    assert (d, lab) == (0, DLabel(Partition(), Partition((1, 1))))


def test_so4_sign_twist_column():
    assert str(sign_twist(DLabel(Partition((2,)), Partition()))) == str(
        DLabel(Partition((1, 1)), Partition()))
    l = DLabel(Partition((1,)), Partition((1,)))
    assert sign_twist(l).primed and not sign_twist(sign_twist(l)).primed
    assert sign_twist(DLabel(Partition(), Partition((1, 1)))) == DLabel(
        Partition(), Partition((2,)))


# ---------------------------------------------------------------------------
# block bijectivity across a corpus of groups


CORPUS = (
    [Sp(2 * n) for n in range(0, 5)]
    + [SO(m) for m in range(1, 10)]
    + [Orth(m) for m in range(1, 9)]
    + [group_product(GroupFactor("GL", 2), GroupFactor("Sp", 4))]
    + [group_product(GroupFactor("O", 4), GroupFactor("O", 1), det1=True)]
    + [group_product(GroupFactor("O", 2), GroupFactor("O", 2), det1=True)]
    + [group_product(GroupFactor("O", 2), GroupFactor("O", 2), GroupFactor("O", 1),
                     det1=True)]
    + [group_product(GroupFactor("GL", 1), GroupFactor("O", 2), GroupFactor("O", 1),
                     det1=True)]
    # every kind up to Sp24, SO24 and O24, and det-one products whose O
    # partitions can be all even (each such class splits I/II)
    + [Sp(2 * n) for n in range(5, 13)]
    + [SO(m) for m in (0, *range(10, 25))]
    + [Orth(m) for m in (0, *range(9, 25))]
    + [group_product(*(GroupFactor("O", n) for n in ns), det1=True)
       for ns in [(4,), (8,), (12,), (0, 4), (4, 4), (4, 8), (8, 8), (0, 4, 4), (4, 4, 4)]]
    + [group_product(GroupFactor("GL", k), GroupFactor("O", 4), GroupFactor("O", 4), det1=True)
       for k in (1, 2, 3)]
    # det-one products with an Sp or SO factor, which the flip leaves
    # alone and whose core absorbs nothing
    + [group_product(*(GroupFactor(*f) for f in fs), det1=True)
       for fs in [(("Sp", 2), ("O", 4)), (("Sp", 2), ("O", 4), ("O", 4)),
                  (("GL", 1), ("Sp", 2), ("O", 4), ("O", 4)),
                  (("Sp", 2), ("O", 0), ("O", 0)), (("Sp", 4), ("O", 0)),
                  (("SO", 3), ("O", 2), ("O", 2)), (("SO", 5), ("O", 4))]]
)


@pytest.mark.parametrize("g", CORPUS, ids=str)
def test_blocks_biject_with_relative_weyl_characters(g):
    # springer_blocks itself raises if any block fails the bijection
    blocks = springer_blocks(g)
    assert set(blocks) == set(cuspidal_triples(g))
    total = sum(len(rows) for rows in blocks.values())
    assert total == len(enumerate_pairs(g))
    for triple, rows in blocks.items():
        assert len(rows) == relative_weyl_group(triple).num_characters


@pytest.mark.parametrize("lead, n, size, structure", [
    pytest.param((), 4, 5, "S[W(B1)xW(B2)]", id="4-5"),
    pytest.param((), 6, 10, "S[W(B1)xW(B3)]", id="6-10"),
    # the flip leaves the Sp piece alone: 2 x 5 characters
    pytest.param((GroupFactor("Sp", 2),), 4, 10, "W(B1)xS[W(B1)xW(B2)]", id="Sp2-4-10"),
])
def test_coupled_block_folds_swapped_labels(lead, n, size, structure):
    # S(O2 x On): the principal block has the coupled relative Weyl group
    # S[W(B1) x W(B(n/2))], whose characters are swap orbits of label
    # pairs; the blocks with no O core are exactly the coupled ones
    g = group_product(*lead, GroupFactor("O", 2), GroupFactor("O", n), det1=True)
    blocks = springer_blocks(g)
    coupled = {t for t in blocks if relative_weyl_group(t).coupled}
    assert coupled == {t for t in blocks if t.ds[len(lead):] == (0, 0)}
    triple = next(t for t in blocks if t.is_principal)
    W = relative_weyl_group(triple)
    assert triple in coupled and W.structure() == structure
    assert len(blocks[triple]) == size == W.num_characters


O0 = GroupFactor("O", 0)


@pytest.mark.parametrize("factors", [(O0, O0), (O0, O0, O0), (GroupFactor("GL", 1), O0, O0)],
                         ids=lambda fs: "x".join(map(str, fs)))
def test_coupled_group_without_signs_has_one_pair(factors):
    # with every O factor of rank zero there is no sign for the
    # determinant condition to couple: one pair, in the principal block
    g = group_product(*factors, det1=True)
    blocks = springer_blocks(g)
    assert [len(rows) for rows in blocks.values()] == [1]
    assert not relative_weyl_group(next(iter(blocks))).coupled


@pytest.mark.parametrize("g, label", [
    (SO(0), DLabel(Partition(()), Partition(()))),
    (GL(0), Partition(())),
], ids=str)
def test_trivial_group_has_one_pair(g, label):
    # W(D0) and S0 are trivial: one block, one pair, one label
    blocks = springer_blocks(g)
    assert [len(rows) for rows in blocks.values()] == [1]
    triple, rows = next(iter(blocks.items()))
    assert relative_weyl_group(triple).character_labels() == [(label,)]
    assert relative_weyl_group(triple).structure() == "1"
    assert rows[0][2] == (label,)


def test_block_error_names_group_and_labels(wrong_sp6_label):
    with pytest.raises(SpringerError) as exc:
        springer_blocks(Sp(6))
    assert str(exc.value) == wrong_sp6_label


def test_det_one_all_even_classes_split():
    # the tag goes on the first nonempty O factor, here the first O4
    g = group_product(GroupFactor("GL", 1), GroupFactor("O", 0), GroupFactor("O", 4),
                      GroupFactor("O", 4), det1=True)
    tags = {}
    for u in unipotent_classes(g):
        tags.setdefault(tuple(p.parts for p in u.partitions), []).append(u.tags)
    assert tags[(1,), (), (2, 2), (2, 2)] == [("", "", "I", ""), ("", "", "II", "")]
    assert tags[(1,), (), (2, 2), (3, 1)] == [("", "", "", "")]
    assert tags[(1,), (), (1, 1, 1, 1), (2, 2)] == [("", "", "", "")]
    assert sum(len(t) for t in tags.values()) == len(unipotent_classes(g))


@pytest.mark.parametrize("g, d", [(Sp(d * (d + 1)), d) for d in range(1, 6)]
                         + [(Orth(d * d), d) for d in range(1, 7)], ids=str)
def test_core_marks_land_in_their_own_block(g, d):
    # the cuspidal character of each core, and for O both liftings
    for sign in ((0,) if g.factors[0].kind == "Sp" else (1, -1)):
        triple = next(t for t in cuspidal_triples(g) if t.ds == (d,) and t.signs == (sign,))
        u = cls(g, *triple.core_partition(0).parts)
        assert generalized_springer(g, u, char_from_marks(g, u, triple.core_marks(0)))[0] == triple


@pytest.mark.parametrize("family", ["Sp", "SO"])
def test_cuspidal_rows_are_cuspidal_pairs(family):
    from abpscalc.cli import cuspidal_rows
    rows = cuspidal_rows(family, 10)
    assert rows
    for row in rows:
        n = int(row["group"][len(family):])
        g = Sp(n) if family == "Sp" else SO(n)
        u = cls(g, *map(int, row["partition"].strip("()").split(",")))
        marks = {int(bit[1:bit.index("-")]) for bit in row["character"].strip("[]").split()
                 if bit.endswith("-")}
        assert is_cuspidal_pair(g, u, char_from_marks(g, u, marks)), row


def test_sp8_depth_two_block_contents():
    g = Sp(8)
    blocks = springer_blocks(g)
    row_sets = {t.ds[0]: {(u.partitions[0].parts, ch.values) for u, ch, _ in rows}
                for t, rows in blocks.items()}
    assert row_sets[2] == {((4, 2, 1, 1), (-1, 1)), ((6, 2), (-1, 1))}


def test_o4_principal_block_is_rank_two_signed_permutation_type():
    g = Orth(4)
    blocks = springer_blocks(g)
    principal = [rows for t, rows in blocks.items() if t.ds == (0,)]
    assert len(principal) == 1
    labels = {lab[0] for _, _, lab in principal[0]}
    assert labels == set(bipartitions(2))


# ---------------------------------------------------------------------------
# the principal-block staircase recipe


def ordinary_symplectic_label(lam: Partition) -> Bipartition:
    """The staircase recipe for the principal block at the trivial
    character of a symplectic factor: split the shifted sequence by
    parity, halve, and unstaircase."""
    parts = lam.ascending()
    if len(parts) % 2 == 0:
        parts = (0,) + parts
    xi = [p + i for i, p in enumerate(parts)]
    evens = [x // 2 for x in xi if x % 2 == 0]
    odds = [x // 2 for x in xi if x % 2]
    return Bipartition(Partition([x - i for i, x in enumerate(evens)]),
                       Partition([x - i for i, x in enumerate(odds)]))


def test_ordinary_recipe_agrees_with_principal_block():
    for n in (1, 2, 3, 4, 5):
        g = Sp(2 * n)
        for u in unipotent_classes(g):
            ch = char_from_marks(g, u, set())
            triple, lab = generalized_springer(g, u, ch)
            assert triple.ds == (0,)
            assert lab[0] == ordinary_symplectic_label(u.partitions[0])


# ---------------------------------------------------------------------------
# cuspidal triples: closed-form catalogue


def test_symplectic_cuspidal_triple_counts():
    for n, want in [(2, 2), (4, 2), (6, 3), (8, 3), (10, 3), (12, 4)]:
        assert len(cuspidal_triples(Sp(n))) == want


def test_orthogonal_cuspidal_triple_counts():
    assert len(cuspidal_triples(SO(9))) == 2  # cores of sizes 1 and 9
    assert len(cuspidal_triples(SO(8))) == 2  # torus and a size-4 core
    assert len(cuspidal_triples(Orth(9))) == 4  # two liftings apiece
    assert len(cuspidal_triples(Orth(4))) == 3


@pytest.mark.parametrize("g, sizes", [
    (Sp(12), [12]),  # of the cores of sizes 0, 2, 6 and 12
    (SO(9), [9]),
    (Orth(4), [4, 4]),  # the size-4 core with either lifting sign
    (group_product(GroupFactor("GL", 2), GroupFactor("Sp", 2)), []),
], ids=str)
def test_cuspidal_triples_are_the_whole_group_cores(g, sizes):
    # a triple is cuspidal when its core fills every factor
    full = [t for t in cuspidal_triples(g) if t.is_cuspidal]
    assert [sum(t.core_partition(0).parts) for t in full] == sizes


# ---------------------------------------------------------------------------
# component groups and distinguished classes


def test_component_group_presentations():
    g = Sp(6)
    A = component_group(g, cls(g, 4, 2))
    assert A.generators == ("z2", "z4") and A.order == 4
    A = component_group(SO(5), cls(SO(5), 3, 1, 1))
    assert A.generators == ("z1", "z3") and A.order == 2 and A.structure() == "Z/2"
    prod = group_product(GroupFactor("O", 4), GroupFactor("O", 1), det1=True)
    u = UnipotentClass((Partition((3, 1)), Partition((1,))), ("", ""))
    A = component_group(prod, u)
    assert A.subgroup_generators() == ("z1z3", "z3z1'")
    assert A.order == 4 and A.structure() == "(Z/2)^2"


def test_special_orthogonal_factors_are_constrained_one_by_one():
    # each SO factor has its own even-product constraint: z3 alone is
    # trivial in SO3, and z1'z3' generates the SO5 part
    prod = group_product(GroupFactor("SO", 3), GroupFactor("SO", 5))
    u = UnipotentClass((Partition((3,)), Partition((3, 1, 1))), ("", ""))
    A = component_group(prod, u)
    assert A.generators == ("z3", "z1'", "z3'") and A.classes == ((0,), (1, 2))
    assert A.order == 2 and A.structure() == "Z/2"
    assert A.subgroup_generators() == ("z1'z3'",)
    assert [ch.values for ch in A.characters()] == [(1, 1, 1), (1, -1, 1)]


def test_special_linear_factors_are_unknown():
    with pytest.raises(SpringerError, match="unknown factor kind 'SL'"):
        GroupFactor("SL", 4)


def _block_rows(group):
    return {(t.ds, t.signs): {(u.partitions, u.tags, ch.values, lab) for u, ch, lab in rows}
            for t, rows in springer_blocks(group).items()}


@pytest.mark.parametrize("a", range(1, 10))
def test_special_orthogonal_products_split_into_factor_tables(a):
    # the correspondence of SO(a) x SO(b) is the product of the factor
    # correspondences, block by block and row by row
    for b in range(a, 10):
        left, right = _block_rows(SO(a)), _block_rows(SO(b))
        want = {}
        for (ds1, s1), rows1 in left.items():
            for (ds2, s2), rows2 in right.items():
                want[ds1 + ds2, s1 + s2] = {
                    (p1 + p2, t1 + t2, v1 + v2, l1 + l2)
                    for p1, t1, v1, l1 in rows1 for p2, t2, v2, l2 in rows2}
        prod = group_product(GroupFactor("SO", a), GroupFactor("SO", b))
        assert _block_rows(prod) == want


def _centralizer_group(*factors, det1=False):
    return group_product(*(GroupFactor(k, n) for k, n in factors), det1=det1)


# Centralizer groups that langlands.centralizer_restriction builds for the
# parameters of perfbench/params_pool.txt; cuspidal_support and is_cuspidal
# answer those parameters through generalized_springer.
POOL_CENTRALIZERS = [
    _centralizer_group(("Sp", 10)),
    _centralizer_group(("O", 11), det1=True),
    _centralizer_group(("O", 4), det1=True),
    _centralizer_group(("O", 8), det1=True),
    _centralizer_group(("O", 4), ("O", 4), det1=True),
    _centralizer_group(("GL", 1), ("O", 4), det1=True),
    _centralizer_group(("GL", 2), ("O", 4), det1=True),
    _centralizer_group(("GL", 3), ("O", 4), det1=True),
    _centralizer_group(("GL", 1), ("O", 8), det1=True),
    _centralizer_group(("GL", 1), ("O", 4), ("O", 4), det1=True),
    _centralizer_group(("GL", 1), ("GL", 1), ("O", 4), det1=True),
    _centralizer_group(("GL", 1), ("GL", 2), ("O", 4), det1=True),
    _centralizer_group(("GL", 2), ("GL", 1), ("O", 4), det1=True),
    _centralizer_group(("GL", 1), ("GL", 1), ("GL", 1), ("O", 4), det1=True),
]


@pytest.mark.parametrize("group", POOL_CENTRALIZERS, ids=str)
def test_pool_centralizer_blocks_biject(group):
    springer_blocks(group)


def test_distinguished_classes():
    g = Sp(6)
    assert is_distinguished(g, cls(g, 6))
    assert is_distinguished(g, cls(g, 4, 2))
    assert not is_distinguished(g, cls(g, 3, 3))
    assert not is_distinguished(g, cls(g, 2, 2, 1, 1))
    assert is_distinguished(SO(7), cls(SO(7), 5, 1, 1)) is False
    assert is_distinguished(SO(7), cls(SO(7), 7))
    assert is_distinguished(SO(8), cls(SO(8), 5, 3))


# ---------------------------------------------------------------------------
# the correspondence read factor by factor


def _oracle_symbol(kind, lam):
    """The symbol of the class as mutable sets, built afresh: the
    whole-class reading the per-factor memo replaced."""
    parts = lam.ascending()
    if kind == "Sp" and len(parts) % 2 == 0:
        parts = (0,) + parts
    c = 1 if kind == "Sp" else 0
    top, bottom = [], []
    for i, p in enumerate(parts):
        x = p + i
        if x % 2:
            bottom.append(x // 2 + len(bottom) + c)
        else:
            top.append(x // 2 + len(top))
    runs = []
    for x in sorted(set(top).symmetric_difference(bottom)):
        if runs and runs[-1][-1] == x - 1:
            runs[-1].append(x)
        else:
            runs.append([x])
    if kind == "Sp" and runs and runs[0][0] == 0:
        del runs[0]
    parity = 0 if kind == "Sp" else 1
    markable = sorted({v for v in parts if v and v % 2 == parity})
    return set(top), set(bottom), dict(zip(markable, map(set, runs)))


def _oracle_unstair(row, c=0):
    return Partition([x - 2 * i - c for i, x in enumerate(sorted(row))])


def _oracle_block_and_label(kind, top, bottom, tag):
    D = len(top) - len(bottom)
    if kind == "Sp":
        d = D - 1 if D > 0 else -D
        alpha, beta = _oracle_unstair(top), _oracle_unstair(bottom, 1)
        return d, 0, Bipartition(beta, alpha) if d % 2 else Bipartition(alpha, beta)
    longer, shorter = (top, bottom) if D > 0 else (bottom, top)
    alpha, beta = _oracle_unstair(longer), _oracle_unstair(shorter)
    if kind == "SO" and D == 0:
        return 0, 0, DLabel(alpha, beta, primed=alpha == beta and tag == "II")
    return abs(D), (D > 0) - (D < 0), Bipartition(alpha, beta)


def whole_class_correspond(group, u, char):
    """The pair read off the marked symbols of all factors at once, the
    ``O`` rows swapped together under the determinant-one flip.  Returns
    ``((triple, labels), swapped)``."""
    symbols = [None if f.kind == "GL" else _oracle_symbol(f.kind, lam)
               for f, lam in zip(group.factors, u.partitions)]
    moved = [set() for _ in symbols]
    for (fi, v), val in zip(char.group.keys, char.values):
        if val == -1:
            moved[fi] |= symbols[fi][2][v]
    rows = [None if s is None else (s[0] ^ m, s[1] ^ m) for s, m in zip(symbols, moved)]
    first = next((len(r[0]) - len(r[1]) for f, r in zip(group.factors, rows)
                  if f.kind == "O" and len(r[0]) != len(r[1])), 0)
    swapped = group.det1 and first < 0
    if swapped:
        rows = [r[::-1] if f.kind == "O" else r for f, r in zip(group.factors, rows)]
    ds, signs, labels = [], [], []
    for f, lam, tag, r in zip(group.factors, u.partitions, u.tags, rows):
        if f.kind == "GL":
            d, sign, label = 0, 0, lam.conjugate()
        else:
            d, sign, label = _oracle_block_and_label(f.kind, r[0], r[1], tag)
        ds.append(d)
        signs.append(0 if f.kind == "SO" else sign)
        labels.append(label)
    if group.det1 and next((s for s in signs if s), 0) < 0:
        signs = [-s for s in signs]
    return (CuspidalTriple(group, tuple(ds), tuple(signs)), tuple(labels)), swapped


def _clear_read_memos():
    for memo in (springer._class_reads, springer.class_reader, springer_blocks):
        memo.cache_clear()


F = GroupFactor
# GL, Sp and determinant-one products of two and three O factors, where
# the global flip fires, Sp2xS(O4), whose coupled blocks fold beside an
# Sp piece, and SO factors with very even I/II classes
AGREEMENT_GROUPS = [
    group_product(F("GL", 2), F("Sp", 4), F("O", 3), F("O", 2), det1=True),
    group_product(F("GL", 1), F("Sp", 2), F("O", 3), F("O", 4), det1=True),
    group_product(F("Sp", 2), F("O", 1), F("O", 3), F("O", 2), det1=True),
    group_product(F("GL", 1), F("O", 4), F("O", 4), det1=True),
    group_product(F("Sp", 2), F("O", 4), det1=True),
    group_product(F("GL", 2), F("Sp", 4), F("SO", 8)),
    group_product(F("SO", 4), F("Sp", 2), F("GL", 1)),
]


def test_agreement_groups_cover_the_flip_and_very_even_classes():
    swaps, very_even = 0, 0
    for g in AGREEMENT_GROUPS:
        for u, ch in enumerate_pairs(g):
            swaps += whole_class_correspond(g, u, ch)[1]
        very_even += sum(t == "II" and f.kind == "SO"
                         for u in unipotent_classes(g) for f, t in zip(g.factors, u.tags))
    assert swaps and very_even


@pytest.mark.parametrize("g", AGREEMENT_GROUPS, ids=str)
def test_factor_reads_agree_with_the_whole_class_reading(g):
    _clear_read_memos()
    for memo in ("cold", "warm"):
        table = {(u, ch): (triple, labels)
                 for triple, rows in springer_blocks(g).items() for u, ch, labels in rows}
        assert len(table) == len(enumerate_pairs(g))
        for (u, ch), row in table.items():
            want, _ = whole_class_correspond(g, u, ch)
            assert generalized_springer(g, u, ch) == row == want, (memo, str(u), str(ch))


# det-one products, the first eight with O factors that all read defect
# 0, where the two sign vectors of one character lift the coupled label
# two ways; S(O3xO4) and S(O1xO4) have an odd O factor
FLIP_GROUPS = [
    group_product(*(F(*f) for f in fs), det1=True)
    for fs in [(("O", 4),), (("O", 2), ("O", 2)), (("O", 4), ("O", 4)),
               (("Sp", 2), ("O", 4)), (("Sp", 2), ("O", 2), ("O", 2)),
               (("GL", 1), ("O", 4), ("O", 4)), (("Sp", 4), ("O", 4)),
               (("O", 6), ("O", 2)), (("O", 3), ("O", 4)), (("O", 1), ("O", 4))]
]


@pytest.mark.parametrize("g", FLIP_GROUPS, ids=str)
def test_equal_characters_read_the_same_row(g):
    # negating a whole constraint class gives the same character of the
    # component group, so it must land on the same row of the table
    flips = 0
    for triple, rows in springer_blocks(g).items():
        for u, ch, labels in rows:
            for c in ch.group.classes:
                vals = tuple(-v if i in c else v for i, v in enumerate(ch.values))
                flipped = SignCharacter(vals, ch.group)
                assert flipped == ch and hash(flipped) == hash(ch)
                assert generalized_springer(g, u, flipped) == (triple, labels), (
                    str(u), str(ch), vals)
                flips += 1
    assert flips


class TestClassTable:
    """Each reader reads its class once, on first use, and a read is a
    lookup in its rows."""

    def test_class_read_memo_keeps_the_default_size(self):
        assert springer._class_reads.cache_info().maxsize == 128
        assert not hasattr(springer._symbol, "cache_info")

    def test_twin_partitions_hit_by_value(self):
        springer._class_reads.cache_clear()
        lam, twin = Partition((4, 2)), Partition((2, 4))
        assert lam == twin and lam is not twin
        reads = springer._class_reads("Sp", lam, "")
        before = springer._class_reads.cache_info()
        assert springer._class_reads("Sp", twin, "") is reads
        after = springer._class_reads.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)
        # the (4,2) row of the frozen Sp6 table marked at 2: the core Sp6
        g = Sp(6)
        reader = springer.ClassReader(g, UnipotentClass((twin,), ("",)))
        ch = char_from_marks(g, cls(g, 4, 2), {2})
        assert reader.read(ch) == (CuspidalTriple(g, (2,), (0,)), (bp((), ()),))

    @pytest.mark.parametrize("g", list(dict.fromkeys(
        AGREEMENT_GROUPS + FLIP_GROUPS
        + [group_product(F("Sp", 2), F("O", 4), F("O", 4), det1=True)])), ids=str)
    def test_reader_reads_each_pair_once(self, g, monkeypatch):
        # a reader's rows are the product of its factors' class tables:
        # once the class-read memo is cleared, each distinct (factor
        # class, marking) is read at most once over all the classes of
        # g, the flip acting on the reads already made (it fires on the
        # agreement groups, test_agreement_groups_cover_the_flip_...);
        # making a reader reads nothing, and reading its pairs again
        # reads nothing more.  The same factors in the other order share
        # every factor class, so their readers read nothing at all
        _clear_read_memos()
        calls = []
        real = springer._factor_block_and_label

        def counted(kind, top, bottom, tag):
            calls.append((kind, tuple(sorted(top)), tuple(sorted(bottom)), tag))
            return real(kind, top, bottom, tag)

        monkeypatch.setattr(springer, "_factor_block_and_label", counted)
        factor_classes = set()
        for u in unipotent_classes(g):
            factor_classes |= {(f.kind, lam, tag if f.kind == "SO" else "")
                               for f, lam, tag in zip(g.factors, u.partitions, u.tags)
                               if f.kind != "GL"}
            before = len(calls)
            reader = springer.ClassReader(g, u)
            assert len(calls) == before
            rows = {ch: reader.read(ch) for ch in reader.characters}
            read = len(calls)
            assert {ch: reader.read(ch) for ch in reader.characters} == rows
            assert len(calls) == read
            for ch, row in rows.items():
                assert row == whole_class_correspond(g, u, ch)[0], (str(u), str(ch))
            # one triple object per block of the class
            triples = [triple for triple, _ in reader.rows.values()]
            assert len({id(t) for t in triples}) == len(set(triples))
        assert len(set(calls)) == len(calls)
        # an SO class's markings end in +1
        markings = 0
        for kind, lam, _ in factor_classes:
            _, _, intervals = springer._symbol(kind, lam)
            k = len(intervals)
            markings += 2 ** (k - 1 if kind == "SO" and k else k)
        assert 0 < len(calls) <= markings
        del calls[:]
        twin = group_product(*reversed(g.factors), det1=g.det1)
        for u in unipotent_classes(twin):
            reader = springer.ClassReader(twin, u)
            for ch in reader.characters:
                assert reader.read(ch) == whole_class_correspond(twin, u, ch)[0]
        assert calls == []

    def test_only_products_and_readers_store_class_reads(self):
        # a one-factor table repeats none of its classes, so it reads them
        # without storing; a product stores its factors' class tables,
        # and a second product with the same factors reads none again
        _clear_read_memos()
        springer_blocks(Sp(8))
        springer_blocks(Orth(6))
        assert springer._class_reads.cache_info().currsize == 0
        springer_blocks(group_product(F("Sp", 8), F("O", 6), det1=True))
        stored = springer._class_reads.cache_info()
        assert stored.currsize == stored.misses == (
            len(unipotent_classes(Sp(8))) + len(unipotent_classes(Orth(6))))
        springer_blocks(group_product(F("O", 6), F("Sp", 8)))
        assert springer._class_reads.cache_info().misses == stored.misses

    @pytest.mark.parametrize("other, marks, message", [
        ((6,), {6}, r"cannot mark part value 6 of \(4,2\)"),
        ((6,), set(), r"is not a character of the component group of \(4,2\)"),
    ], ids=["unmarkable", "other_generators"])
    def test_refused_read_leaves_the_rows_alone(self, other, marks, message):
        g = Sp(6)
        ch = char_from_marks(g, cls(g, *other), marks)
        reader = springer.class_reader(g, cls(g, 4, 2))
        rows = dict(reader.rows)
        for _ in range(2):
            with pytest.raises(SpringerError, match=message):
                generalized_springer(g, cls(g, 4, 2), ch)
            with pytest.raises(SpringerError, match=message):
                reader.read(ch)
        assert reader.rows == rows and len(rows) == len(reader.characters)


# the groups whose classes pin the single key list: every class of
# Sp0-Sp20, SO1-SO18 and O1-O18, and the product groups of this module
KEY_GROUPS = list(dict.fromkeys(
    [Sp(2 * n) for n in range(11)] + [SO(m) for m in range(1, 19)]
    + [Orth(m) for m in range(1, 19)]
    + [g for g in CORPUS + AGREEMENT_GROUPS + FLIP_GROUPS if len(g.factors) > 1 or g.det1]))


def test_symbol_intervals_are_the_generator_keys():
    # a reader slices each character's values factor by factor, taking
    # the next len(intervals) of them in the order of the symbol's
    # intervals: the generator keys must run the same way
    classes = 0
    for g in KEY_GROUPS:
        for u in unipotent_classes(g):
            keys = tuple((fi, v) for fi, (f, lam) in enumerate(zip(g.factors, u.partitions))
                         if f.kind != "GL" for v in springer._symbol(f.kind, lam)[2])
            assert component_group(g, u).keys == keys, (str(g), str(u))
            classes += 1
    assert classes >= 2213


def test_foreign_characters_read_as_the_whole_class_or_are_refused():
    # characters of S(O2xO2) on the O2xO2 reader, the reverse, and those
    # of the classes of O3xO2: each reads the whole-class row of the equal
    # character of the reader's class (its restriction) or is refused by
    # name, never with a bare KeyError.  (+,-) of O2xO2 on the S(O2xO2)
    # reader reads the row of (-,+)
    plain = group_product(F("O", 2), F("O", 2))
    det1 = group_product(F("O", 2), F("O", 2), det1=True)
    odd = group_product(F("O", 3), F("O", 2))
    foreign = [ch for h in (plain, det1, odd) for v in unipotent_classes(h)
               for ch in component_group(h, v).characters()]
    refusal = r"(cannot mark part value \d+|.+ is not a character of the component group) of "
    seen = Counter()
    for g in (plain, det1):
        for u in unipotent_classes(g):
            reader = springer.ClassReader(g, u)
            for ch in foreign:
                try:
                    row = reader.read(ch)
                except SpringerError as exc:
                    assert re.fullmatch(refusal + re.escape(str(u)), str(exc)), str(exc)
                    seen["refused"] += 1
                else:
                    own = SignCharacter(ch.values, reader.component_group)
                    assert row == whole_class_correspond(g, u, own)[0], (str(g), str(u), str(ch))
                    seen["read"] += 1
    assert seen["read"] and seen["refused"]


# ---------------------------------------------------------------------------
# product tables composed from their factors' class tables


def reader_blocks(group):
    """The table grouped from the rows of one fresh
    :class:`springer.ClassReader` per class, in class order: how
    ``springer_blocks`` built every table before it composed a product's
    rows from its factors' class tables."""
    blocks = {}
    for u in unipotent_classes(group):
        reader = springer.ClassReader(group, u)
        for ch, (triple, labels) in zip(reader.characters, reader.rows.values()):
            blocks.setdefault(triple, []).append((u, ch, labels))
    return blocks


def _spec_group(spec):
    """``"GL1 O2 O1!"``: the product of the named factors, ``!`` for the
    determinant-one condition."""
    names = re.findall(r"([A-Za-z]+)(\d+)", spec)
    return group_product(*(F(k, int(n)) for k, n in names), det1=spec.endswith("!"))


# the 37 tables one cold matching benchmark pass builds, in its order
MATCHING_GROUPS = [_spec_group(spec) for spec in (
    "GL1 GL1 O1!", "GL1 O2 O1!", "GL2 O1!", "O4 O1!", "O2 O2 O1!", "GL1 O3!", "O5!",
    "GL1 GL1 GL1 O1!", "GL1 GL1 O2 O1!", "GL2 GL1 O1!", "GL1 O4 O1!", "GL1 O2 O2 O1!",
    "GL2 O2 O1!", "GL3 O1!", "O6 O1!", "O4 O2 O1!", "GL1 GL2 O1!", "O2 O2 O2 O1!",
    "GL1 GL1 O3!", "GL1 O3 O2!", "O3 O2 O2!", "GL1 GL1", "GL1 Sp2", "GL2", "Sp4",
    "Sp2 Sp2", "GL1 O2!", "GL1 GL1 GL1", "GL1 GL1 Sp2", "GL2 GL1", "GL1 Sp4",
    "GL1 Sp2 Sp2", "GL2 Sp2", "GL3", "Sp6", "Sp4 Sp2", "O3 O2!")]

# GL0-GL3, Sp0-Sp6, SO0-SO6 and O0-O6
SMALL_FACTORS = ([F("GL", n) for n in range(4)] + [F("Sp", n) for n in range(0, 7, 2)]
                 + [F(kind, n) for kind in ("SO", "O") for n in range(7)])


def _small_products():
    """Every product of one or two small factors, in either order, with
    and without the determinant-one condition."""
    out = []
    for factors in [(f,) for f in SMALL_FACTORS] + list(product(SMALL_FACTORS, repeat=2)):
        out.append(group_product(*factors))
        if any(f.kind == "O" for f in factors):
            out.append(group_product(*factors, det1=True))
    return out


ORACLE_CORPORA = {
    "small_products": _small_products(),
    "pool": POOL_CENTRALIZERS,
    "flip": FLIP_GROUPS,
    "matching": MATCHING_GROUPS,
}


@pytest.mark.parametrize("corpus", ORACLE_CORPORA)
def test_composed_tables_are_the_reader_tables(corpus):
    # the composed table keeps the reader table's block order and row
    # order (classes in unipotent_classes order, characters in
    # characters() order, blocks first seen), and each row is the
    # whole-class reading of its pair
    _clear_read_memos()
    for g in ORACLE_CORPORA[corpus]:
        blocks, want = springer_blocks(g), reader_blocks(g)
        assert list(blocks) == list(want), str(g)
        for triple, rows in blocks.items():
            assert rows == want[triple], (str(g), str(triple))
            for u, ch, labels in rows:
                assert whole_class_correspond(g, u, ch)[0] == (triple, labels), (
                    str(g), str(u), str(ch))


def test_small_products_cover_every_kind_and_the_flip():
    groups = ORACLE_CORPORA["small_products"]
    assert len(groups) == 22 + 22 * 22 + 7 + (22 * 22 - 15 * 15)
    swaps = sum(whole_class_correspond(g, u, ch)[1] for g in groups if g.det1
                for u, ch in enumerate_pairs(g))
    assert swaps


@pytest.mark.parametrize("g", [
    group_product(F("Sp", 6), F("GL", 1)),
    group_product(F("Sp", 6), F("O", 2), F("O", 1), det1=True),
], ids=str)
def test_product_tables_run_the_bijectivity_check(g, wrong_sp6_label):
    # a product without det1 checks through its factors' own tables, a
    # det-one product checks its whole table
    with pytest.raises(SpringerError):
        springer_blocks(g)


# ---------------------------------------------------------------------------
# the class reader: one path from a pair to its block


@pytest.mark.parametrize("g", CORPUS, ids=str)
def test_class_reader_agrees_with_generalized_springer_and_the_table(g):
    # a fresh reader and the shared one of the class memo read alike
    _clear_read_memos()
    springer.class_reader.cache_clear()
    connected = springer.identity_component(g)
    for memo in ("cold", "warm"):
        reads = {}
        for u in unipotent_classes(g):
            reader, shared = springer.ClassReader(g, u), springer.class_reader(g, u)
            assert shared is springer.class_reader(g, u)
            for r in (reader, shared):
                assert r.component_group == component_group(g, u)
                assert list(r.characters) == component_group(g, u).characters()
                assert r.connected_component_group == component_group(connected, u)
            for ch in reader.characters:
                reads[u, ch] = reader.read(ch)
                assert shared.read(ch) == reads[u, ch], (memo, str(u), str(ch))
        table = {(u, ch): (triple, labels)
                 for triple, rows in springer_blocks(g).items() for u, ch, labels in rows}
        assert reads.keys() == table.keys()
        for (u, ch), row in reads.items():
            assert generalized_springer(g, u, ch) == row == table[u, ch], (
                memo, str(u), str(ch))


def test_identity_component_forgets_the_determinant_condition():
    g = group_product(F("GL", 1), F("Sp", 2), F("O", 3), F("O", 4), det1=True)
    assert springer.identity_component(g) == group_product(
        F("GL", 1), F("Sp", 2), F("SO", 3), F("SO", 4))
    assert springer.identity_component(SO(5)) == SO(5)


class TestCorePartitionMemo:
    def test_memo_keeps_the_default_size(self):
        assert springer.core_partition.cache_info().maxsize == 128

    @pytest.mark.parametrize("kind", ["Sp", "SO", "O"])
    def test_cold_and_warm_reads_are_the_staircase(self, kind):
        springer.core_partition.cache_clear()
        cold = [springer.core_partition(kind, d) for d in range(6)]
        warm = [springer.core_partition(kind, d) for d in range(6)]
        want = [springer.core_partition.__wrapped__(kind, d) for d in range(6)]
        assert cold == warm == want
        assert all(c is w for c, w in zip(cold, warm))
        start = 2 if kind == "Sp" else 1
        assert [c.parts for c in cold] == [tuple(range(2 * d + start - 2, 0, -2))
                                           for d in range(6)]
