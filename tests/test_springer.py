import pytest

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
    generalized_springer_inverse,
    group_product,
    is_cuspidal_pair,
    is_distinguished,
    ordinary_symplectic_label,
    relative_weyl_group,
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


@pytest.mark.parametrize("n, size", [(4, 5), (6, 10)])
def test_coupled_block_folds_swapped_labels(n, size):
    # S(O2 x On): the principal block has the coupled relative Weyl group
    # S[W(B1) x W(B(n/2))], whose characters are swap orbits of label pairs
    g = group_product(GroupFactor("O", 2), GroupFactor("O", n), det1=True)
    coupled = [(t, rows) for t, rows in springer_blocks(g).items()
               if relative_weyl_group(t).coupled]
    assert len(coupled) == 1
    triple, rows = coupled[0]
    assert len(rows) == size == relative_weyl_group(triple).num_characters


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
