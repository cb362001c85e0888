import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import pytest

from abpscalc.combicore import Bipartition, Partition, SignedPermutation
from abpscalc.extquot import (
    MINUS_ONE,
    ONE,
    RankMismatch,
    act,
    act_coset,
    eq_pairs,
    even_sign_action,
    fixed_locus,
    free,
    full_torus,
    geometric_eq,
    hyperoctahedral_action,
    intersect_cosets,
    irreps,
    permutation_action,
    point,
    recognize_subgroup,
    root_of_unity,
    spectral_eq,
    stabilizer,
    strata,
    trivial_action,
)

S1 = SignedPermutation((2, 1), (1, 1))
S2 = SignedPermutation((1, 2), (1, -1))
B2 = hyperoctahedral_action(2)


def bp(alpha, beta):
    return Bipartition(Partition(alpha), Partition(beta))


class TestAction:
    def test_rotation(self):
        t = point("z1", "z2")
        assert act(S1 * S2, t) == point(free("z2").inverse(), free("z1"))

    def test_antidiagonal_reflection(self):
        t = point("z1", "z2")
        got = act(S2 * S1 * S2, t)
        assert got == point(free("z2").inverse(), free("z1").inverse())

    def test_identity(self):
        t = point("z1", -1, Fraction(1, 4))
        assert act(SignedPermutation.identity(3), t) == t

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            act(S1, point("z"))

    def test_group_action_law_exhaustive(self):
        t = point("z1", "z2")
        for v in B2.elements:
            for w in B2.elements:
                assert act(v * w, t) == act(v, act(w, t))


class TestFixedLoci:
    def test_rotation_two_points(self):
        cosets = fixed_locus(S1 * S2)
        pts = {c.translation for c in cosets}
        assert all(c.dimension == 0 for c in cosets)
        assert pts == {(Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1, 2))}

    def test_sign_flip_two_lines(self):
        cosets = fixed_locus(S2)
        assert [c.dimension for c in cosets] == [1, 1]
        assert {c.translation[1] for c in cosets} == {Fraction(0), Fraction(1, 2)}

    def test_identity_full_torus(self):
        assert fixed_locus(SignedPermutation.identity(2)) == [full_torus(2)]

    def test_longest_element_point_count(self):
        # both coordinates inverted: the elementary divisors are (2, 2)
        w = SignedPermutation((1, 2), (-1, -1))
        assert len(fixed_locus(w)) == 4

    @pytest.mark.parametrize("n", [2, 3])
    def test_torsion_sample_membership(self, n):
        sample = [
            tuple(Fraction(k, 8) for k in ks)
            for ks in __import__("itertools").product(range(8), repeat=n)
        ]
        for w in hyperoctahedral_action(n).elements:
            cosets = fixed_locus(w)
            for p in sample:
                fixed = act(w, point(*p)) == point(*p)
                member = any(c.contains_torsion(p) for c in cosets)
                assert fixed == member

    def test_torsion_sample_membership_rank_four(self):
        rng = random.Random(7)
        elements = hyperoctahedral_action(4).elements
        for w in rng.sample(elements, 24):
            cosets = fixed_locus(w)
            for _ in range(40):
                p = tuple(Fraction(rng.randrange(8), 8) for _ in range(4))
                fixed = act(w, point(*p)) == point(*p)
                member = any(c.contains_torsion(p) for c in cosets)
                assert fixed == member

    def test_coset_action_consistency(self):
        for w in B2.elements:
            for v in B2.elements:
                for c in fixed_locus(w):
                    assert act_coset(v, act_coset(v.inverse(), c)) == c


class TestIntersection:
    @pytest.mark.parametrize("n", [2, 3])
    def test_intersection_is_exact_on_closure_pool(self, n):
        # the pool strata() closes: the full torus and every fixed locus,
        # closed under pairwise intersection
        pool = {full_torus(n)}
        for w in hyperoctahedral_action(n).elements:
            pool.update(fixed_locus(w))
        fresh = pool
        while fresh:
            fresh = {
                c for c1, c2 in combinations(pool, 2) for c in intersect_cosets(c1, c2)
            } - pool
            pool |= fresh
        grid = list(product([Fraction(k, 8) for k in range(8)], repeat=n))
        members = {}

        def points_of(c):
            if c not in members:
                members[c] = {p for p in grid if c.contains_torsion(p)}
            return members[c]

        for c1, c2 in combinations_with_replacement(pool, 2):
            parts = intersect_cosets(c1, c2)
            covered = set().union(*(points_of(c) for c in parts))
            assert covered == points_of(c1) & points_of(c2)


class TestStabilizers:
    def test_diagonal(self):
        H = stabilizer(B2, point("z", "z"))
        assert H.structure() == "S2"
        assert H.order == 2

    def test_quarter_period_point(self):
        H = stabilizer(B2, point(1, -1))
        assert H.structure() == "Z/2 x Z/2"
        assert H.order == 4

    def test_generic_trivial(self):
        assert stabilizer(B2, point("z1", "z2")).order == 1

    def test_full_group_at_identity(self):
        assert stabilizer(B2, point(1, 1)).structure() == "B2"


class TestStrata:
    def test_b2_inventory(self):
        sts = strata(B2)
        inventory = Counter((s.dimension, s.group.structure()) for s in sts)
        assert inventory == Counter(
            {
                (2, "1"): 1,
                (1, "S2"): 1,
                (1, "Z/2"): 2,
                (0, "B2"): 2,
                (0, "Z/2 x Z/2"): 1,
            }
        )

    def test_trivial_action(self):
        assert len(strata(trivial_action(1))) == 1

    def test_permutation_action(self):
        sts = strata(permutation_action(2))
        assert [(s.dimension, s.group.structure()) for s in sts] == [
            (2, "1"),
            (1, "S2"),
        ]

    def test_rank_bound(self):
        with pytest.raises(ValueError):
            strata(trivial_action(7))


class TestSpectralQuotient:
    def test_b2_family_inventory(self):
        fams = spectral_eq(B2)
        kinds = Counter(f.kind for f in fams)
        assert kinds["generic"] == 1
        assert kinds["special"] == 12
        assert kinds["plane_generic"] == 1

    def test_b2_deep_points_keep_sign_pair(self):
        fams = spectral_eq(B2)
        for base in ("(1, 1)", "(-1, -1)"):
            kept = {str(f.irrep) for f in fams if str(f.base) == base}
            assert kept == {"(1.1,-)", "(-,1.1)"}

    def test_b2_lines_keep_both_characters(self):
        fams = spectral_eq(B2)
        line = [f for f in fams if str(f.base) == "(1, z)"]
        assert sorted(f.irrep for f in line) == [(-1,), (1,)]

    def test_diagonal_sign_family(self):
        fams = spectral_eq(B2)
        greens = [f for f in fams if f.kind == "plane_generic"]
        assert len(greens) == 1
        assert str(greens[0].base) == "(z, z)"
        assert greens[0].irrep == Partition((1, 1))

    def test_all_pairs_count(self):
        assert len(eq_pairs(B2)) == 21

    def test_trivial_group(self):
        fams = spectral_eq(trivial_action(2))
        assert len(fams) == 1 and fams[0].kind == "generic"

    def test_permutation_action_three_families(self):
        assert len(spectral_eq(permutation_action(2))) == 3

    def test_projection_covers_strata(self):
        bases = {str(s.base) for s in strata(B2)}
        covered = {str(f.base) for f in spectral_eq(B2)}
        assert covered == bases


class TestGeometricQuotient:
    def test_b2_count(self):
        assert len(geometric_eq(B2)) == 9

    def test_longest_element_components(self):
        w0 = SignedPermutation((1, 2), (-1, -1))
        fams = [f for f in geometric_eq(B2) if f.element == w0]
        assert len(fams) == 3

    def test_identity_component(self):
        e = SignedPermutation.identity(2)
        fams = [f for f in geometric_eq(B2) if f.element == e]
        assert fams[0].component == full_torus(2)

    def test_permutation_swap(self):
        fams = geometric_eq(permutation_action(2))
        assert len(fams) == 2
        diag = [f for f in fams if f.element != SignedPermutation.identity(2)]
        assert diag[0].component.basis == ((1, 1),)


class TestIrreps:
    def test_b2(self):
        assert len(irreps(recognize_subgroup(B2.elements, 2))) == 5

    def test_elementary(self):
        H = recognize_subgroup(
            [
                SignedPermutation((1, 2), s)
                for s in [(1, 1), (1, -1), (-1, 1), (-1, -1)]
            ],
            2,
        )
        assert sorted(irreps(H)) == sorted(
            [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        )

    def test_even_sign_group(self):
        H = recognize_subgroup(even_sign_action(2).elements, 2)
        assert [str(l) for l in irreps(H)] == ["{-,2}", "{-,1.1}", "{1,1}", "{1,1}'"]


class TestCoordinates:
    def test_multiplication(self):
        z = free("z")
        assert (z * z.inverse()) == ONE
        assert (MINUS_ONE * MINUS_ONE) == ONE
        assert root_of_unity(Fraction(1, 4)) ** 2 == MINUS_ONE

    def test_display(self):
        assert str(ONE) == "1"
        assert str(MINUS_ONE) == "-1"
        assert str(free("z") ** -1) == "z^-1"
        assert str(MINUS_ONE * free("z")) == "-z"
