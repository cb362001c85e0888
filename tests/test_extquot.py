import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from abpscalc.abps import _inertial_action, inertial_triple
from abpscalc.combicore import (
    Bipartition,
    DLabel,
    Partition,
    SignedPermutation,
    all_signed_permutations,
)
from abpscalc import extquot
from abpscalc.extquot import (
    MINUS_ONE,
    ONE,
    GeoEQFamily,
    MonomialAction,
    RankMismatch,
    SymbolicCoordinate,
    _canonical_coset,
    _closure_strata,
    _coset_key,
    _product_blocks,
    _solve_torus,
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
    sign_flip,
    spectral_eq,
    stabilizer,
    strata,
    transposition,
    trivial_action,
)
from abpscalc.langlands import PadicGroup, line, parse_catalogue
from abpscalc.springer import UnrecognizedStructure
from conftest import signed_matrix

S1 = SignedPermutation((2, 1), (1, 1))
S2 = SignedPermutation((1, 2), (1, -1))
B2 = hyperoctahedral_action(2)
B3 = hyperoctahedral_action(3)


def closed_by_brute_force(elements):
    """The closure check on all pairs, kept here as the oracle."""
    group = set(elements)
    return all(v * w in group for v in group for w in group)


def smith_fixed_locus(w):
    """The fixed locus of ``w`` solved as ``(w - 1) x = 0 (mod Z)`` by
    Smith normal form, kept here as the oracle of the reading of
    :func:`fixed_locus` off signed cycles."""
    n = w.rank
    M = signed_matrix(w)
    A = [[M[i][j] - (i == j) for j in range(n)] for i in range(n)]
    return _solve_torus(A, [0] * n, n)


def brute_force_geometric_eq(action):
    """The geometric extended quotient from every element conjugated by
    every element, each centralizer scanned from all elements and the
    components moved by ``act_coset``: the oracle of the class walk of
    :func:`geometric_eq`."""
    elems = action.elements
    key = lambda w: (w.images, w.signs)
    seen = set()
    out = []
    for w in sorted(elems, key=key):
        if key(w) in seen:
            continue
        conj_class = {v * w * v.inverse() for v in elems}
        seen |= {key(u) for u in conj_class}
        rep = min(conj_class, key=key)
        centralizer = [z for z in elems if z * rep == rep * z]
        done = set()
        for c in sorted(smith_fixed_locus(rep), key=_coset_key):
            if c in done:
                continue
            orbit = {act_coset(z, c) for z in centralizer}
            done |= orbit
            out.append(GeoEQFamily(rep, min(orbit, key=_coset_key)))
    return out


# signed permutations of rank 6 to 8
higher_rank_elements = st.integers(6, 8).flatmap(lambda k: st.tuples(
    st.permutations(range(1, k + 1)),
    st.lists(st.sampled_from((-1, 1)), min_size=k, max_size=k),
)).map(lambda p: SignedPermutation(*p))


def _has_connected_hyperplane(w):
    """Whether the fixed locus of ``w`` is one coset of codimension 1.

    That happens exactly when ``w`` swaps two coordinates with equal
    signs (fixing ``x_i = x_j`` or ``x_i x_j = 1``) and fixes every other
    coordinate with sign +1; a lone sign flip fixes the two cosets
    ``x_i = 1`` and ``x_i = -1``.
    """
    moved = [i for i in range(w.rank) if w.images[i] != i + 1 or w.signs[i] != 1]
    if len(moved) != 2:
        return False
    i, j = moved
    return w.images[i] == j + 1 and w.images[j] == i + 1 and w.signs[i] == w.signs[j]


def _acts_by_minus_one(group, irrep, w):
    """Whether the irrep sends the reflection ``w``, a swap with a
    connected fixed hyperplane, to minus the identity: the label of each
    piece that ``w`` moves must be its sign-like label."""
    labels = irrep if len(group.pieces) > 1 else (irrep,)
    for (kind, data), label in zip(group.pieces, labels):
        if kind == "E2" or all(w.images[c] == c + 1 and w.signs[c] == 1 for c in data):
            continue
        ones, empty = Partition((1,) * len(data)), Partition(())
        if kind == "A" and label != ones:
            return False
        if kind == "B" and label not in (Bipartition(ones, empty), Bipartition(empty, ones)):
            return False
        if kind == "D" and label != DLabel(ones, empty):
            return False
    return True


def generated(gens):
    """The subgroup generated by ``gens``, by breadth-first search."""
    out = {SignedPermutation.identity(gens[0].rank)}
    frontier = out
    while frontier:
        frontier = {g * x for x in frontier for g in gens} - out
        out |= frontier
    return out


# the sign flips of an even number of coordinates of a rank-3 torus
KLEIN_FOUR = MonomialAction(3, [sign_flip(3, (1, 2)), sign_flip(3, (0, 2))])


@lru_cache(maxsize=None)
def closure_pool(action):
    """The full torus and every fixed locus of the action, closed under
    pairwise intersection, in a fixed order."""
    pool = {full_torus(action.rank)}
    for w in action.elements:
        pool.update(fixed_locus(w))
    fresh = pool
    while fresh:
        fresh = {
            c for c1, c2 in combinations(pool, 2) for c in intersect_cosets(c1, c2)
        } - pool
        pool |= fresh
    return tuple(sorted(pool, key=lambda c: (c.dimension, c.basis, c.translation)))


def _rank(rows):
    """Rank of a rational matrix, by Gaussian elimination."""
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def in_coset_by_definition(c, p):
    """Whether ``p = t + sum(l_k b_k) (mod Z^n)`` for some real ``l``.

    Equivalently ``p - t - m`` lies in the real span of the basis for
    some integer ``m``.  Taking ``l`` modulo 1 and ``p - t`` in
    ``[0, 1)`` bounds ``|m_j|`` by ``1 + sum_k |b_kj|``, so a finite
    search decides it.
    """
    diff = [(Fraction(x) - t) % 1 for x, t in zip(p, c.translation)]
    bounds = [1 + sum(abs(b[j]) for b in c.basis) for j in range(c.rank)]
    return any(
        _rank(list(c.basis) + [[d - k for d, k in zip(diff, m)]]) == len(c.basis)
        for m in product(*(range(-b, b + 1) for b in bounds))
    )


# torsion coordinates with denominators 1 to 12
fractions_to_12 = st.builds(Fraction, st.integers(-24, 24), st.integers(1, 12))


def presented(values):
    """The coordinates ``values``, each given as a ``Fraction``, as a
    string, or (when integral) as an ``int``."""
    return st.tuples(*(
        st.sampled_from([x, str(x)] + ([int(x)] if x.denominator == 1 else []))
        for x in map(Fraction, values)
    ))


@st.composite
def torsion_points(draw, n):
    """Rank-``n`` points whose coordinates often repeat or invert each
    other, so that elements of B_n fix a fair share of them."""
    seeds = draw(st.lists(fractions_to_12, min_size=1, max_size=2))
    coordinate = st.one_of(
        st.sampled_from(seeds),
        st.sampled_from(seeds).map(lambda x: -x),
        st.sampled_from([Fraction(0), Fraction(1, 2)]),
        fractions_to_12,
    )
    return draw(presented(draw(st.lists(coordinate, min_size=n, max_size=n))))


@st.composite
def points_on(draw, c):
    """A point of the coset ``c``, reached with torsion parameters."""
    lams = draw(st.lists(fractions_to_12, min_size=c.dimension, max_size=c.dimension))
    values = [
        t + sum(l * b[j] for l, b in zip(lams, c.basis))
        for j, t in enumerate(c.translation)
    ]
    return draw(presented(values))


@st.composite
def element_lists(draw):
    """Lists of elements of B2 or B3: random subsets, subgroups generated
    by two elements, and such subgroups with one element put in or taken
    out."""
    pool = draw(st.sampled_from([B2.elements, B3.elements]))
    if draw(st.booleans()):
        return draw(st.lists(st.sampled_from(pool), min_size=1, unique=True))
    group = generated([draw(st.sampled_from(pool)), draw(st.sampled_from(pool))])
    if draw(st.booleans()):
        group ^= {draw(st.sampled_from(pool))}
    # toggling the identity out of the trivial group leaves nothing: an
    # empty list has no rank, so take a one-element list instead
    return sorted(group, key=lambda w: (w.images, w.signs)) or [pool[0]]


@lru_cache(maxsize=None)
def fixed_locus_cosets():
    """Every coset in a fixed locus of an element of B1 to B4."""
    cosets = {c for n in range(1, 5) for w in hyperoctahedral_action(n).elements
              for c in fixed_locus(w)}
    return tuple(sorted(cosets, key=lambda c: (c.rank, c.dimension, c.basis, c.translation)))


@st.composite
def presentations(draw, c):
    """Another basis and translation of the coset ``c``: unimodular row
    operations on its basis, and its translation moved along the basis
    and by an integer vector."""
    rows = [list(r) for r in c.basis]
    d = len(rows)
    for _ in range(draw(st.integers(0, 8)) if d else 0):
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        if i == j:
            rows[i] = [-x for x in rows[i]]
        else:
            k = draw(st.integers(-3, 3))
            rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
    rows = [rows[i] for i in draw(st.permutations(range(d)))]
    t = list(c.translation)
    for row in rows:
        k = draw(fractions_to_12)
        t = [a + k * b for a, b in zip(t, row)]
    return rows, [a + draw(st.integers(-3, 3)) for a in t]


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
            for ks in product(range(8), repeat=n)
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

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_membership_off_the_eighth_grid(self, data):
        n = data.draw(st.integers(1, 4))
        w = data.draw(st.sampled_from(all_signed_permutations(n)))
        p = data.draw(torsion_points(n))
        # as torsion coordinates: point() would read a literal -1 as -1
        q = point(*(root_of_unity(Fraction(x)) for x in p))
        assert any(c.contains_torsion(p) for c in fixed_locus(w)) == (act(w, q) == q)

    @pytest.mark.parametrize("length", [2, 4])
    def test_torsion_point_of_another_rank(self, length):
        # a point of another length is refused, never cut or read short
        for c in fixed_locus(SignedPermutation((2, 1, 3), (1, 1, -1))):
            with pytest.raises(RankMismatch):
                c.contains_torsion((0,) * length)

    @pytest.mark.parametrize("p", [
        (0, -1, Fraction(1, 2)),
        (Fraction(9, 8), Fraction(-3, 8), 2),
        (Fraction(-1, 2), Fraction(-5, 4), Fraction(7, 4)),
        (0.5, 0.25, -1),
        (-1, 0.5, Fraction(-9, 8)),
    ])
    def test_torsion_coordinate_forms(self, p):
        # each coordinate is read as an exponent modulo one, whatever its
        # form; the oracle acts on the point of reduced exponents
        reduced = tuple(Fraction(x) % 1 for x in p)
        q = point(*(root_of_unity(x) for x in reduced))
        for w in B3.elements:
            locus = fixed_locus(w)
            assert [c.contains_torsion(p) for c in locus] == [
                c.contains_torsion(reduced) for c in locus]
            assert any(c.contains_torsion(p) for c in locus) == (act(w, q) == q)

    @pytest.mark.parametrize("n", [1, 3])
    def test_torsion_coordinate_not_a_number(self, n):
        # the full torus has no equations to read the coordinates, and
        # still refuses one that is not a number
        with pytest.raises(ValueError):
            full_torus(n).contains_torsion(("a",) + (0,) * (n - 1))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
    def test_cycles_agree_with_the_smith_form(self, n):
        # every element of B_n: 3,840 of them for B5
        for w in hyperoctahedral_action(n).elements:
            assert fixed_locus(w) == smith_fixed_locus(w), str(w)

    @settings(max_examples=100, deadline=None)
    @given(higher_rank_elements)
    def test_cycles_agree_with_the_smith_form_at_higher_rank(self, w):
        assert fixed_locus(w) == smith_fixed_locus(w)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_connected_hyperplane_rule_matches_fixed_locus(self, n):
        for w in hyperoctahedral_action(n).elements:
            locus = fixed_locus(w)
            connected = len(locus) == 1 and locus[0].dimension == n - 1
            assert _has_connected_hyperplane(w) == connected

    def test_coset_action_consistency(self):
        for w in B2.elements:
            for v in B2.elements:
                for c in fixed_locus(w):
                    assert act_coset(v, act_coset(v.inverse(), c)) == c

    @pytest.mark.parametrize("w", [
        SignedPermutation((2, 1), (1, -1)),
        SignedPermutation((2, 1, 4, 3), (1, 1, 1, -1)),
    ], ids=["rank2", "rank4"])
    def test_coset_action_of_another_rank(self, w):
        for c in fixed_locus(SignedPermutation((2, 1, 3), (1, 1, -1))):
            with pytest.raises(RankMismatch):
                act_coset(w, c)


# rational right-hand sides with denominators 1, 2, 3, 4 and 6
small_rationals = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6]))


class TestSolver:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_rational_right_hand_sides(self, data):
        m = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(1, 3))
        A = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                               min_size=m, max_size=m))
        b = data.draw(st.lists(small_rationals, min_size=m, max_size=m))
        cosets = _solve_torus(A, b, n)
        for c in cosets:
            assert _canonical_coset(c.rank, c.basis, c.translation) == c

        def solves(p):
            x = [Fraction(v) for v in p]
            return all((sum(a * v for a, v in zip(row, x)) - rhs).denominator == 1
                       for row, rhs in zip(A, b))

        drawn = [data.draw(points_on(c)) for c in cosets]
        grid = product([Fraction(k, 12) for k in range(12)], repeat=n)
        for p in [*drawn, *grid]:
            assert any(c.contains_torsion(p) for c in cosets) == solves(p)


class TestCanonicalCoset:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_canonical_form_ignores_the_presentation(self, data):
        c = data.draw(st.sampled_from(fixed_locus_cosets()))
        rows, t = data.draw(presentations(c))
        assert _canonical_coset(c.rank, rows, t) == c


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

    def test_intersection_of_another_rank(self):
        c = fixed_locus(SignedPermutation((2, 1, 3), (1, 1, -1)))[0]
        with pytest.raises(RankMismatch):
            intersect_cosets(c, full_torus(2))
        with pytest.raises(RankMismatch):
            intersect_cosets(full_torus(2), c)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_intersection_membership_off_the_eighth_grid(self, data):
        pool = closure_pool(B2)
        c1 = data.draw(st.sampled_from(pool))
        c2 = data.draw(st.sampled_from(pool))
        p = data.draw(st.one_of(torsion_points(2), points_on(c1), points_on(c2)))
        parts = intersect_cosets(c1, c2)
        for c in parts:
            assert c.contains_torsion(p) == in_coset_by_definition(c, p)
        both = in_coset_by_definition(c1, p) and in_coset_by_definition(c2, p)
        assert any(c.contains_torsion(p) for c in parts) == both


FREE_CATALOGUE = parse_catalogue("""
chi kind=ramified order=5 dim=1 selfdual=none period=1
psi kind=ramified order=7 dim=1 selfdual=none period=1
""")


def class_filter(triple):
    """The signed permutations that keep the coordinate classes of the
    triple, filtered from all of W(B_k): a slot may move to a slot of the
    same class, and inversion needs a self-dual class and a target other
    than GL.  Kept here as the oracle of the generated inertial actions."""
    coords = triple.coordinates
    invertible = triple.group.family != "GL"
    return [w for w in all_signed_permutations(len(coords))
            if all(coords[i].base.name == coords[w.images[i] - 1].base.name
                   and (w.signs[i] == 1
                        or invertible and coords[i].base.selfdual != "none")
                   for i in range(len(coords)))]


class TestClosureCheck:
    @settings(max_examples=200, deadline=None)
    @given(element_lists())
    def test_generators_give_the_generated_group(self, gens):
        action = MonomialAction(gens[0].rank, gens)
        assert action.elements == tuple(sorted(generated(gens), key=lambda w: (w.images, w.signs)))
        assert closed_by_brute_force(action.elements)
        assert action.generators == tuple(gens)

    def test_rejects_a_generator_of_another_rank(self):
        with pytest.raises(ValueError):
            MonomialAction(3, [S1])
        with pytest.raises(ValueError):
            MonomialAction(2, [S1, SignedPermutation.identity(3)])

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_constructors_keep_their_elements(self, n):
        full = all_signed_permutations(n)
        cases = [
            (hyperoctahedral_action(n), full),
            (even_sign_action(n), [w for w in full if w.signs.count(-1) % 2 == 0]),
            (permutation_action(n), [w for w in full if w.signs == (1,) * n]),
            (trivial_action(n), [SignedPermutation.identity(n)]),
        ]
        for action, source in cases:
            assert action.elements == tuple(sorted(source, key=lambda w: (w.images, w.signs)))
            assert closed_by_brute_force(action.elements)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_generators_generate(self, n):
        for action in (hyperoctahedral_action(n), even_sign_action(n),
                       permutation_action(n), trivial_action(n)):
            gens = list(action.generators) or [action.identity()]
            assert generated(gens) == set(action.elements)

    @pytest.mark.parametrize("family, size, names, order", [
        ("Sp", 4, ("zeta", "zeta"), 8),
        ("Sp", 4, ("zeta", "eta"), 4),
        ("Sp", 4, ("1", "1"), 8),
        ("Sp", 6, ("zeta",) * 3, 48),
        ("Sp", 6, ("zeta", "zeta", "eta"), 16),
        ("Sp", 6, ("zeta", "eta", "1"), 8),
        ("SO", 5, ("zeta", "zeta"), 8),
        ("SO", 4, ("zeta", "zeta"), 8),
        ("SO", 7, ("zeta",) * 3, 48),
        ("GL", 2, ("zeta",) * 2, 2),
        ("GL", 3, ("zeta",) * 3, 6),
        ("GL", 2, ("chi", "psi"), 1),
        # classes that interleave, and a rank-4 triple
        ("Sp", 6, ("zeta", "eta", "zeta"), 16),
        ("GL", 3, ("zeta", "eta", "zeta"), 2),
        ("Sp", 6, ("chi", "psi", "chi"), 2),
        ("Sp", 8, ("zeta", "1", "zeta", "eta"), 32),
    ])
    def test_inertial_actions_build(self, family, size, names, order):
        catalogue = FREE_CATALOGUE if "chi" in names else None
        coords = tuple(line(name, catalogue=catalogue) for name in names)
        triple = inertial_triple(PadicGroup(family, size), coords)
        action = _inertial_action(triple)
        assert action.order == order
        assert action.elements == tuple(sorted(class_filter(triple),
                                               key=lambda w: (w.images, w.signs)))

    def test_b5_builds_in_bounded_time(self):
        # in a subprocess, so that a slow closure check cannot hang the suite
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c",
             "from abpscalc.extquot import hyperoctahedral_action; "
             "print(hyperoctahedral_action(5).order)"],
            capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0 and done.stdout.split() == ["3840"]


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

    def test_closure_adds_intersections_of_fixed_loci(self):
        # each sign flip fixes four lines; lines of two flips meet in the
        # points (+-1, +-1, +-1), which no single fixed locus contains
        # as a component
        flips = [SignedPermutation((1, 2, 3), s)
                 for s in [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]]
        pool = {c for w in flips for c in fixed_locus(w)}
        assert len(pool) == 13
        sts = strata(MonomialAction(3, flips))
        assert len(sts) == 21
        points = [s for s in sts if s.dimension == 0]
        assert {s.base for s in points} == {point(*p) for p in product((1, -1), repeat=3)}
        assert {s.group.structure() for s in points} == {"Z/2 x Z/2"}
        assert not pool & {s.coset for s in points}

    @pytest.mark.parametrize("n, count", [(2, 7), (3, 14)])
    def test_hyperoctahedral_counts(self, n, count):
        assert len(strata(hyperoctahedral_action(n))) == count

    @pytest.mark.parametrize("action", [B2, B3, KLEIN_FOUR], ids=["B2", "B3", "klein_four"])
    def test_orbits_of_strata_are_the_closure_pool(self, action):
        # strata() closes the pool from orbit representatives only; the
        # oracle intersects every pair
        orbits = {act_coset(w, s.coset) for s in strata(action) for w in action.elements}
        assert orbits == set(closure_pool(action))

    @pytest.mark.parametrize("n, count", [(4, 26), (5, 45)])
    def test_b4_in_bounded_time(self, n, count):
        # in a subprocess, so that a slow stratification cannot hang the
        # suite
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c",
             "from abpscalc.extquot import hyperoctahedral_action, strata; "
             f"print(len(strata(hyperoctahedral_action({n}))))"],
            capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0 and done.stdout.split() == [str(count)]

    def test_product_actions_skip_the_closure(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("closure step on a product action")

        for name in ("fixed_locus", "intersect_cosets", "stabilizer"):
            monkeypatch.setattr(extquot, name, refuse)
        assert len(strata(B3)) == 14
        with pytest.raises(AssertionError, match="closure step"):
            strata(KLEIN_FOUR)

    @pytest.mark.parametrize("action", [
        even_sign_action(2), even_sign_action(3), KLEIN_FOUR,
        MonomialAction(3, [SignedPermutation((2, 1, 3), (1, 1, -1))]),
    ], ids=["D2", "D3", "klein_four", "swap_with_flip"])
    def test_other_actions_are_not_products(self, action):
        assert _product_blocks(action) is None


class TestStrataMemo:
    """Pattern strata are stratified once per rank and coordinate blocks."""

    def test_equal_actions_get_equal_strata(self):
        a = hyperoctahedral_action(3)
        b = MonomialAction(3, reversed(a.generators))
        assert a is not b and a == b
        assert strata(a) == strata(b)

    def test_one_pattern_group_per_stratum(self, monkeypatch):
        real, calls = extquot._pattern_group, []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(extquot, "_pattern_group", counted)
        extquot._pattern_strata.cache_clear()
        first = strata(hyperoctahedral_action(3))
        second = strata(hyperoctahedral_action(3))
        assert first == second
        assert len(calls) == len(first) == 14

    def test_mutating_the_result_leaves_the_memo(self):
        sts = strata(B3)
        want = list(sts)
        sts.reverse()
        sts.pop()
        assert strata(B3) == want

    def test_unrecognized_structure_reads_as_signed_permutations(self):
        with pytest.raises(UnrecognizedStructure) as exc:
            strata(even_sign_action(3))
        message = str(exc.value)
        assert "->" in message and "SignedPermutation(" not in message
        assert "order 8" in message and "(2, 3)" in message


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


def _fixed_torus_is_connected(group, rank):
    """Whether the pointwise fixed locus of the subgroup is one coset,
    solved as one system: (w - 1) x = 0 for every element w."""
    A = []
    for w in group.elements:
        M = signed_matrix(w)
        A.extend([M[i][j] - (i == j) for j in range(rank)] for i in range(rank))
    return len(_solve_torus(A, [0] * len(A), rank)) == 1


# all four sign flips on rank 2: W(B1) x W(B1), unlike the coupled
# KLEIN_FOUR on rank 3
DIAGONAL_V4 = MonomialAction(2, [sign_flip(2, (0,)), sign_flip(2, (1,))])
# the actions of the matching corpus
INERTIAL_ACTIONS = [
    (f"{family}{size}{names}",
     _inertial_action(inertial_triple(PadicGroup(family, size), tuple(
         line(n, catalogue=FREE_CATALOGUE if "chi" in names else None) for n in names))))
    for family, size, names in [
        ("Sp", 4, ("zeta", "zeta")), ("Sp", 4, ("zeta", "eta")), ("Sp", 4, ("1", "1")),
        ("Sp", 6, ("zeta",) * 3), ("Sp", 6, ("zeta", "zeta", "eta")),
        ("Sp", 6, ("zeta", "eta", "1")), ("SO", 5, ("zeta", "zeta")),
        ("SO", 4, ("zeta", "zeta")), ("SO", 7, ("zeta",) * 3),
        ("GL", 2, ("zeta",) * 2), ("GL", 3, ("zeta",) * 3), ("GL", 2, ("chi", "psi")),
    ]
]
CONNECTIVITY_ACTIONS = [
    ("B1", hyperoctahedral_action(1)),
    ("B2", B2),
    ("B3", B3),
    ("S2", permutation_action(2)),
    ("S3", permutation_action(3)),
    ("T3", trivial_action(3)),
    ("V4", DIAGONAL_V4),
] + INERTIAL_ACTIONS


@pytest.mark.parametrize("name, action", CONNECTIVITY_ACTIONS, ids=[n for n, _ in CONNECTIVITY_ACTIONS])
def test_families_read_connectivity_from_the_stabilizer_pieces(name, action):
    # on a positive-dimensional stratum with a nontrivial stabilizer the
    # families are "special" exactly when the fixed torus is disconnected
    for st in strata(action):
        if st.dimension == 0 or st.group.order == 1:
            continue
        special = {f.kind == "special" for f in st.families()}
        assert special == {not _fixed_torus_is_connected(st.group, action.rank)}, str(st)


def product_action(rank, blocks):
    """The full product of ``S(coords)``, or ``W(B(coords))`` when
    ``signed``, over the ``(coords, signed)`` blocks (0-based): swaps of
    consecutive coordinates of each block, and the flip of its first
    coordinate when signed."""
    gens = []
    for coords, signed in blocks:
        gens += [transposition(rank, i, j) for i, j in zip(coords, coords[1:])]
        if signed:
            gens.append(sign_flip(rank, coords[:1]))
    return MonomialAction(rank, gens)


PATTERN_ACTIONS = (
    [(f"B{n}", hyperoctahedral_action(n)) for n in range(1, 5)]
    + [(f"S{n}", permutation_action(n)) for n in range(1, 5)]
    + [(f"T{n}", trivial_action(n)) for n in range(1, 4)]
    + INERTIAL_ACTIONS
    + [
        ("B2xB1", product_action(3, [((0, 1), True), ((2,), True)])),
        ("S2xB1", product_action(3, [((0, 1), False), ((2,), True)])),
        ("B1^3", product_action(3, [((0,), True), ((1,), True), ((2,), True)])),
        # blocks that interleave: B2 on coordinates 1, 3 and S2 on 2, 4
        ("B2xS2_interleaved", product_action(4, [((0, 2), True), ((1, 3), False)])),
    ]
)


@pytest.mark.parametrize("name, action", PATTERN_ACTIONS, ids=[n for n, _ in PATTERN_ACTIONS])
def test_patterns_agree_with_the_closure(name, action):
    # the closure is the oracle: same strata in the same order, with the
    # same coset, base point, stabilizer elements and pieces
    assert _product_blocks(action) is not None
    got, want = strata(action), _closure_strata(action)
    assert [(s.coset, s.base, s.group.elements, s.group.pieces) for s in got] == \
        [(s.coset, s.base, s.group.elements, s.group.pieces) for s in want]


def assert_point_families_follow_the_connected_hyperplane_rule(st):
    # the oracle scans the stabilizer: a character starts a family at a
    # point exactly when it sends every reflection with a connected fixed
    # hyperplane to -1
    H = st.group
    refl = [w for w in H.elements if _has_connected_hyperplane(w)]
    want = [rho for rho in H.irreps() if all(_acts_by_minus_one(H, rho, w) for w in refl)]
    assert [f.irrep for f in st.families()] == want, str(st)


FAMILY_ACTIONS = PATTERN_ACTIONS + [("B5", hyperoctahedral_action(5)), ("klein_four", KLEIN_FOUR)]


@pytest.mark.parametrize("name, action", FAMILY_ACTIONS, ids=[n for n, _ in FAMILY_ACTIONS])
def test_point_families_follow_the_connected_hyperplane_rule(name, action):
    for st in strata(action):
        if st.dimension == 0 and st.group.order > 1:
            assert_point_families_follow_the_connected_hyperplane_rule(st)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_point_families_of_an_even_sign_group(n):
    # strata() does not yet recognize every stabilizer of W(D_n), but its
    # stabilizer at the point 1 is all of W(D_n), one D piece
    c = _canonical_coset(n, [], [0] * n)
    st = extquot.Stratum(c, c.generic_point(), stabilizer(even_sign_action(n), c.generic_point()))
    assert [kind for kind, _ in st.group.pieces] == ["D"]
    assert_point_families_follow_the_connected_hyperplane_rule(st)


def seeded_subgroups():
    """Subgroups of B2 to B4, each generated by one to three elements
    drawn with a fixed seed."""
    out = []
    for n in (2, 3, 4):
        elements = hyperoctahedral_action(n).elements
        for seed in range(16):
            rng = random.Random(seed)
            gens = rng.sample(elements, rng.randint(1, 3))
            out.append((f"B{n}_sub{seed}", MonomialAction(n, gens)))
    return out


GEOMETRIC_ACTIONS = (
    [(f"B{n}", hyperoctahedral_action(n)) for n in (1, 2, 3, 4)]
    + [(f"D{n}", even_sign_action(n)) for n in (2, 3, 4)]
    + [(f"S{n}", permutation_action(n)) for n in (2, 3, 4)]
    + [("T3", trivial_action(3)), ("rank0", MonomialAction(0, [SignedPermutation.identity(0)])), ("klein_four", KLEIN_FOUR),
       ("swap_with_flip", MonomialAction(3, [SignedPermutation((2, 1, 3), (1, 1, -1))]))]
    + seeded_subgroups()
    + INERTIAL_ACTIONS
)


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

    @pytest.mark.parametrize("name, action", GEOMETRIC_ACTIONS,
                             ids=[n for n, _ in GEOMETRIC_ACTIONS])
    def test_class_walk_agrees_with_the_brute_force(self, name, action):
        # same families in the same order: same representatives, same
        # least components
        assert geometric_eq(action) == brute_force_geometric_eq(action)

    @pytest.mark.parametrize("build, n, count", [
        (hyperoctahedral_action, 5, 108), (even_sign_action, 5, 52),
    ], ids=["B5", "D5"])
    def test_rank_five_counts(self, build, n, count):
        # checked once against the brute force, which takes seconds here
        assert len(geometric_eq(build(n))) == count

    def test_walk_moves_no_coset(self, monkeypatch):
        # the centralizer acts on the picks of 0 or 1/2, not on cosets
        def refuse(*args):
            raise AssertionError("act_coset in geometric_eq")

        monkeypatch.setattr(extquot, "act_coset", refuse)
        assert len(geometric_eq(hyperoctahedral_action(3))) == 22


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

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equal_coordinates_hash_equally(self, data):
        # every route to one coordinate gives an equal object with an
        # equal hash: torsion as int, Fraction or str, any representative
        # mod 1, unnormalised monomials, products and powers
        den = data.draw(st.integers(1, 12), label="den")
        num = data.draw(st.integers(0, den - 1), label="num")
        shift = data.draw(st.integers(-2, 2), label="shift")
        qexp = data.draw(st.integers(-4, 4), label="qexp")
        exps = data.draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), label="exps")
        mono = tuple((n, e) for n, e in zip("xy", exps))
        t = Fraction(num, den)
        c = SymbolicCoordinate(t, qexp, mono)
        noisy = (("y", exps[1] + 1), ("x", 0), ("x", exps[0]), ("z", 0), ("y", -1))
        routes = [
            SymbolicCoordinate(t + shift, qexp, tuple(reversed(mono))),
            SymbolicCoordinate(f"{num + shift * den}/{den}", qexp, noisy),
            SymbolicCoordinate(t) * SymbolicCoordinate(0, qexp) * SymbolicCoordinate(monomial=noisy),
            (c ** -1) ** -1,
            c.inverse().inverse() * ONE,
        ]
        if den == 1:
            routes.append(SymbolicCoordinate(shift, qexp, list(mono)))
        for k in (2, 3, -2):
            power = ONE
            for _ in range(abs(k)):
                power = power * (c if k > 0 else c.inverse())
            assert power == c ** k and hash(power) == hash(c ** k)
        for other in routes:
            assert other == c and hash(other) == hash(c)
        assert {c: 1}[routes[1]] == 1
        # inverse() negates the canonical fields directly: it must agree
        # field by field with the normalising constructor
        inv, expected = c.inverse(), SymbolicCoordinate(-t, -qexp, tuple((n, -e) for n, e in mono))
        assert type(inv.torsion) is Fraction and type(inv.qexp) is int
        assert (inv.torsion, inv.qexp, inv.monomial) == (
            expected.torsion, expected.qexp, expected.monomial)
        assert hash(inv) == hash(expected)
        assert c * c.inverse() == ONE

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_product_equals_the_plain_sum(self, data):
        # the product reuses a torsion when the other one is 0; it must
        # still equal, field by field and by hash, the coordinate built
        # from the sum of the two torsions
        def coordinate(label):
            t = data.draw(st.one_of(st.just(Fraction(0)), fractions_to_12), label=label)
            qexp = data.draw(st.integers(-3, 3), label=label + " qexp")
            exps = data.draw(st.lists(st.integers(-2, 2), max_size=2), label=label + " exps")
            return SymbolicCoordinate(t, qexp, tuple(zip("xy", exps)))

        a, b = coordinate("a"), coordinate("b")
        plain = SymbolicCoordinate(a.torsion + b.torsion, a.qexp + b.qexp,
                                   a.monomial + b.monomial)
        got = a * b
        assert type(got.torsion) is Fraction and 0 <= got.torsion < 1
        assert (got.torsion, got.qexp, got.monomial) == (plain.torsion, plain.qexp, plain.monomial)
        assert got == plain and hash(got) == hash(plain)

    def test_empty_monomial_is_a_tuple(self):
        assert SymbolicCoordinate(monomial=[]).monomial == ()
        assert SymbolicCoordinate(monomial=[("x", 1), ("x", -1)]) == ONE
