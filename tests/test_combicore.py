import pytest
from hypothesis import given, settings, strategies as st

from abpscalc.combicore import (
    Bipartition,
    DLabel,
    Partition,
    SignedPermutation,
    all_signed_permutations,
    bipartitions,
    dlabels,
    hermite_reduce,
    identity_matrix,
    partitions,
    sign_twist,
    smith_normal_form,
    staircase,
    unstaircase,
)


def B(a, b):
    return Bipartition(Partition(a), Partition(b))


# Matrix helpers the tests check the lattice kernel with; the library
# itself never multiplies matrices or takes determinants.


def mat_mul(A, B):
    n, k = len(A), len(B)
    m = len(B[0]) if k else 0
    return [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def mat_det(A):
    """Determinant of an integer matrix, by fraction-free (Bareiss)
    elimination: every division is exact."""
    M = [[int(x) for x in row] for row in A]
    n = len(M)
    sign, prev = 1, 1
    for c in range(n - 1):
        pivot = next((r for r in range(c, n) if M[r][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            M[c], M[pivot] = M[pivot], M[c]
            sign = -sign
        for r in range(c + 1, n):
            for t in range(c + 1, n):
                M[r][t] = (M[r][t] * M[c][c] - M[r][c] * M[c][t]) // prev
        prev = M[c][c]
    return sign * M[n - 1][n - 1] if n else 1


def partitions_oracle(n, max_part=None):
    """The former recursion of ``partitions``, which builds a partition
    at every node: kept as the oracle for the tuple recursion."""
    if n < 0:
        return
    if n == 0:
        yield Partition()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in partitions_oracle(n - first, first):
            yield Partition((first,) + rest.parts)


class TestPartitions:
    def test_agrees_with_the_former_recursion(self):
        for n in range(-1, 15):
            for max_part in [None] + list(range(-1, n + 2)):
                got = list(partitions(n, max_part))
                assert got == list(partitions_oracle(n, max_part))
                assert all(type(p) is Partition for p in got)

    def test_counts(self):
        # partition numbers p(0)..p(10)
        expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        for n, e in enumerate(expected):
            assert len(list(partitions(n))) == e

    def test_conjugate_involution(self):
        for n in range(9):
            for p in partitions(n):
                assert p.conjugate().conjugate() == p
                assert p.conjugate().size == p.size

    def test_conjugate_example(self):
        assert Partition((4, 2, 1)).conjugate() == Partition((3, 2, 1, 1))

    def test_bipartition_counts(self):
        # sum_k p(k) p(n-k)
        expected = [1, 2, 5, 10, 20, 36, 65, 110]
        for n, e in enumerate(expected):
            assert len(bipartitions(n)) == e

    def test_dlabel_counts(self):
        # unordered pairs, split pairs doubled
        for n in range(7):
            bps = bipartitions(n)
            unordered = len({frozenset([bp.alpha, bp.beta]) for bp in bps})
            split = sum(1 for bp in bps if bp.alpha == bp.beta)
            assert len(dlabels(n)) == unordered + split


def defect_one_rows(bp):
    """The rows of the defect-one symbol of ``bp`` at the least length:
    ``alpha`` staircased to ``m + 1`` parts and ``beta`` to ``m``."""
    m = max(len(bp.alpha) - 1, len(bp.beta))
    return staircase(bp.alpha, m + 1), staircase(bp.beta, m, 1)


class TestSymbols:
    def test_frozen_defect_one_symbols(self):
        # u-symbols for rank-3 bipartitions, torus-block convention
        cases = [
            (B((3,), ()), ((3,), ())),
            (B((2, 1), ()), ((1, 4), (1,))),
            (B((2,), (1,)), ((0, 4), (2,))),
            (B((1,), (2,)), ((0, 3), (3,))),
            (B((), (3,)), ((0, 2), (4,))),
            (B((1, 1), (1,)), ((1, 3), (2,))),
            (B((1,), (1, 1)), ((0, 2, 5), (2, 4))),
            (B((), (2, 1)), ((0, 2, 4), (2, 5))),
            (B((1, 1, 1), ()), ((1, 3, 5), (1, 3))),
            (B((), (1, 1, 1)), ((0, 2, 4, 6), (2, 4, 6))),
        ]
        for bp, rows in cases:
            assert defect_one_rows(bp) == rows

    def test_roundtrip_all_ranks(self):
        for n in range(9):
            seen = set()
            for bp in bipartitions(n):
                top, bottom = rows = defect_one_rows(bp)
                assert len(top) - len(bottom) == 1
                assert (unstaircase(top), unstaircase(bottom, 1)) == (bp.alpha, bp.beta)
                assert rows not in seen
                seen.add(rows)

    def test_unstaircase_inverts_staircase(self):
        for size in range(11):
            for p in partitions(size):
                for length in range(len(p), len(p) + 3):
                    for offset in (0, 1):
                        row = staircase(p, length, offset)
                        assert unstaircase(row, offset) == p, (p, length, offset)

    def test_staircase_pads_in_front(self):
        assert staircase(Partition((2, 1)), 3) == (0, 3, 6)
        assert staircase(Partition((2, 1)), 3, 1) == (1, 4, 7)
        assert staircase(Partition(), 3) == (0, 2, 4)
        assert staircase(Partition(), 0) == ()


class TestSignTwist:
    def test_involution_bipartitions(self):
        for n in range(7):
            for bp in bipartitions(n):
                assert sign_twist(sign_twist(bp)) == bp

    def test_involution_dlabels(self):
        for n in range(7):
            for lab in dlabels(n):
                assert sign_twist(sign_twist(lab)) == lab

    def test_trivial_to_sign(self):
        assert sign_twist(B((3,), ())) == B((), (1, 1, 1))

    def test_split_pair_toggles(self):
        lab = DLabel(Partition((1,)), Partition((1,)))
        assert sign_twist(lab) == DLabel(Partition((1,)), Partition((1,)), primed=True)
        assert sign_twist(sign_twist(lab)) == lab


def signed_permutations(k):
    return st.tuples(
        st.permutations(range(1, k + 1)),
        st.lists(st.sampled_from((-1, 1)), min_size=k, max_size=k),
    ).map(lambda p: SignedPermutation(p[0], p[1]))


class TestSignedPermutation:
    def test_group_order(self):
        assert len(all_signed_permutations(2)) == 8
        assert len(all_signed_permutations(3)) == 48

    def test_inverse_and_product(self):
        for w in all_signed_permutations(2):
            assert (w * w.inverse()).is_identity()
            assert (w.inverse() * w).is_identity()

    def test_matrix_is_group_hom(self):
        elems = all_signed_permutations(2)
        for a in elems:
            for b in elems:
                assert (a * b).matrix() == mat_mul(a.matrix(), b.matrix())

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda k: st.tuples(
        signed_permutations(k), signed_permutations(k))))
    def test_product(self, pair):
        a, b = pair
        ab = a * b
        # the product is the element the validating constructor builds
        # from its images and signs
        checked = SignedPermutation(ab.images, ab.signs)
        assert (ab.images, ab.signs) == (checked.images, checked.signs)
        assert all(type(x) is int for x in ab.images + ab.signs)
        assert ab.matrix() == mat_mul(a.matrix(), b.matrix())
        with pytest.raises(ValueError, match="rank mismatch"):
            a * SignedPermutation.identity(a.rank + 1)

    def test_matrix_action_convention(self):
        # w: 1 -> 2 with sign -1, 2 -> 1: row for coordinate 2 reads off
        # coordinate 1 inverted.
        w = SignedPermutation((2, 1), (-1, 1))
        assert w.matrix() == [[0, 1], [-1, 0]]


int_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.integers(min_value=1, max_value=4).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(min_value=-30, max_value=30), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
)


class TestSmithNormalForm:
    @settings(max_examples=150, deadline=None)
    @given(int_matrices)
    def test_snf_properties(self, A):
        S, U, V = smith_normal_form(A)
        n, m = len(A), len(A[0])
        # U A V == S
        assert mat_mul(mat_mul(U, A), V) == S
        # unimodular transforms
        assert mat_det(U) in (1, -1)
        assert mat_det(V) in (1, -1)
        # diagonal, nonnegative, divisibility chain
        diag = []
        for i in range(n):
            for j in range(m):
                if i != j:
                    assert S[i][j] == 0
            if i < m:
                diag.append(S[i][i])
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0

    def test_known_example(self):
        S, U, V = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert [S[i][i] for i in range(3)] == [2, 2, 156]

    def test_deterministic(self):
        A = [[3, 1], [1, 2]]
        assert smith_normal_form(A) == smith_normal_form([row[:] for row in A])


@st.composite
def lattice_matrices(draw):
    """``(A, m)``: up to 6 rows of width ``m`` up to 6, entries -30..30,
    with zero rows drawn on purpose."""
    m = draw(st.integers(min_value=1, max_value=6))
    row = st.lists(st.integers(min_value=-30, max_value=30), min_size=m, max_size=m)
    return draw(st.lists(st.one_of(st.just([0] * m), row), max_size=6)), m


def hermite(A, m):
    """``(r, H, U)`` from reducing ``[A | I]`` on its first ``m`` columns."""
    rows = [list(a) + e for a, e in zip(A, identity_matrix(len(A)))]
    r = hermite_reduce(rows, m)
    return r, [row[:m] for row in rows], [row[m:] for row in rows]


class TestHermiteReduce:
    @settings(max_examples=200, deadline=None)
    @given(lattice_matrices(), st.data())
    def test_form_ignores_unimodular_row_operations(self, Am, data):
        A, m = Am
        B = [row[:] for row in A]
        if B:
            index = st.integers(0, len(B) - 1)
            ops = st.tuples(st.sampled_from(["add", "swap", "negate"]),
                            index, index, st.integers(-5, 5))
            for op, i, j, c in data.draw(st.lists(ops, max_size=12)):
                if op == "swap":
                    B[i], B[j] = B[j], B[i]
                elif op == "negate":
                    B[i] = [-x for x in B[i]]
                elif i != j:
                    B[i] = [x + c * y for x, y in zip(B[i], B[j])]
        r, H, _ = hermite(A, m)
        s, K, _ = hermite(B, m)
        assert (r, H[:r]) == (s, K[:s])

    @settings(max_examples=200, deadline=None)
    @given(lattice_matrices())
    def test_hermite_shape(self, Am):
        A, m = Am
        r, H, _ = hermite(A, m)
        pivots = [next(j for j, x in enumerate(row) if x) for row in H[:r]]
        assert pivots == sorted(set(pivots))
        for i, p in enumerate(pivots):
            assert H[i][p] > 0
            assert all(0 <= H[k][p] < H[i][p] for k in range(i))
        assert not any(any(row) for row in H[r:])

    @settings(max_examples=200, deadline=None)
    @given(lattice_matrices())
    def test_carried_transform(self, Am):
        A, m = Am
        _, H, U = hermite(A, m)
        assert mat_det(U) in (1, -1)
        assert mat_mul(U, A) == H


def cofactor_det(A):
    if not A:
        return 1
    return sum(
        (-1) ** j * A[0][j] * cofactor_det([row[:j] + row[j + 1:] for row in A[1:]])
        for j in range(len(A))
    )


# small entries so that zero pivots and singular matrices come up often
square_matrices = st.integers(min_value=0, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


class TestDeterminant:
    @settings(max_examples=300, deadline=None)
    @given(square_matrices)
    def test_matches_cofactor_expansion(self, A):
        assert mat_det(A) == cofactor_det(A)
