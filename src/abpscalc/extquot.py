"""Finite monomial group actions on complex tori.

A signed permutation acts on ``(C^*)^n`` by permuting coordinates and
inverting some of them.  Everything here is exact: torus points are
symbolic (roots of unity, powers of ``q^{1/2}``, and free monomial
variables), and fixed loci are read off signed cycles.  An action is
declared by its coordinate blocks, each with the symmetric,
hyperoctahedral or even-signed group, and its stabilizer strata,
stabilizers and geometric extended quotient are read off the
coordinate patterns and cycle types of those blocks, with recognized
Coxeter structure so that irreducible characters are labelled
combinatorially.  Every coset the library makes, the full torus
included, is built from a coordinate pattern by :func:`_pattern_coset`,
and torsion membership is read off that pattern.  Intersections of
cosets are solved by Smith normal form over the integers, in
:func:`intersect_cosets`, which only the tests call: the benchmark's
tracer rebinds it by name, but no workload calls it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import permutations, product
from math import factorial, gcd, lcm, prod
from operator import mul

from .combicore import (
    Bipartition,
    DLabel,
    Partition,
    SignedPermutation,
    bipartitions,
    dlabels,
    hermite_reduce,
    identity_matrix,
    partitions,
    smith_normal_form,
    value_type,
)
from .springer import RelativeWeylGroup


class RankMismatch(ValueError):
    """An element, point or coset met one of another rank."""


class RankOutOfRange(ValueError):
    """A rank that the library does not cover: :class:`MonomialAction`
    and :func:`full_torus` refuse a rank below 0, and :func:`strata` one
    above :data:`MAX_RANK`."""

    def __init__(self, rank: int):
        super().__init__(f"strata cover ranks 0 to {MAX_RANK}, not {rank}")
        self.rank = rank


# ---------------------------------------------------------------------------
# symbolic coordinates and torus points


def _norm_monomial(monomial):
    acc = {}
    for name, e in monomial:
        acc[name] = acc.get(name, 0) + int(e)
    return tuple(sorted((n, e) for n, e in acc.items() if e))


class SymbolicCoordinate(value_type("SymbolicCoordinate", "torsion qexp monomial")):
    """One coordinate of a symbolic torus point.

    The value denoted is ``e^{2 pi i torsion} * (q^{1/2})^qexp * prod
    v^e`` over the monomial, with the named variables ``v`` generic.
    """

    __slots__ = ()

    def __new__(cls, torsion=Fraction(0), qexp=0, monomial=()):
        if type(torsion) is not Fraction or not 0 <= torsion.numerator < torsion.denominator:
            torsion = Fraction(torsion) % 1
        return tuple.__new__(cls, (torsion, int(qexp), _norm_monomial(monomial) if monomial else ()))

    def __hash__(self) -> int:
        """Hash of the fields ``__eq__`` compares, with the torsion as
        its numerator and denominator.  ``__new__`` stores the torsion
        as a ``Fraction`` in [0, 1), always in lowest terms, so equal
        coordinates have equal numerators and denominators, and hashing
        the two integers agrees with ``__eq__`` without the cost of
        ``Fraction.__hash__``."""
        t = self.torsion
        return hash((t.numerator, t.denominator, self.qexp, self.monomial))

    def __mul__(self, other: "SymbolicCoordinate") -> "SymbolicCoordinate":
        # a zero torsion leaves the other one, already reduced in [0, 1)
        t, s = self.torsion, other.torsion
        return SymbolicCoordinate(
            t + s if t and s else t or s,
            self.qexp + other.qexp,
            self.monomial + other.monomial,
        )

    def __pow__(self, k: int) -> "SymbolicCoordinate":
        if k == 1:
            return self
        return SymbolicCoordinate(
            self.torsion * k,
            self.qexp * k,
            tuple((n, e * k) for n, e in self.monomial),
        )

    def inverse(self) -> "SymbolicCoordinate":
        # the negated fields are canonical already: 1 - t lies in (0, 1)
        # in lowest terms, and negating the exponents keeps the monomial
        # sorted and free of zeros, so nothing is reduced or renormalised
        t = self.torsion
        return tuple.__new__(SymbolicCoordinate, (
            1 - t if t else t, -self.qexp, tuple((n, -e) for n, e in self.monomial)))

    @property
    def is_unitary(self) -> bool:
        return self.qexp == 0

    def __str__(self) -> str:
        parts = []
        t = self.torsion  # in lowest terms in [0, 1): denominator 2 is 1/2
        if t.denominator == 2:
            parts.append("-1")
        elif t.numerator:
            parts.append(f"zeta{t.denominator}^{t.numerator}")
        if self.qexp:
            parts.append("q^{%s/2}" % self.qexp if self.qexp % 2 else f"q^{self.qexp // 2}")
        for name, e in self.monomial:
            parts.append(name if e == 1 else f"{name}^{e}")
        if not parts:
            return "1"
        if parts[0] == "-1" and len(parts) > 1:
            return "-" + "*".join(parts[1:])
        return "*".join(parts)


ONE = SymbolicCoordinate()
MINUS_ONE = SymbolicCoordinate(Fraction(1, 2))


def free(name: str) -> SymbolicCoordinate:
    return SymbolicCoordinate(monomial=((name, 1),))


def root_of_unity(t) -> SymbolicCoordinate:
    return SymbolicCoordinate(torsion=Fraction(t))


def q_power(half_exponent: int) -> SymbolicCoordinate:
    """``q^{k/2}`` as a coordinate, ``k`` counted in half-integer steps."""
    return SymbolicCoordinate(qexp=half_exponent)


class SymbolicTorusPoint(value_type("SymbolicTorusPoint", "coords")):
    __slots__ = ()

    def __new__(cls, coords):
        return tuple.__new__(cls, (tuple(coords),))

    @property
    def rank(self) -> int:
        return len(self.coords)

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def point(*coords) -> SymbolicTorusPoint:
    """A torus point.  Each coordinate is a :class:`SymbolicCoordinate`, a
    free variable name, the number ``1`` or ``-1`` itself, or any other
    number ``t``, read as the exponent of ``e^{2 pi i t}``.  So
    ``point(-1)`` is the point -1, while :meth:`TorusCoset.contains_torsion`
    reads ``-1`` as an exponent, the point 1."""
    out = []
    for c in coords:
        if isinstance(c, SymbolicCoordinate):
            out.append(c)
        elif isinstance(c, str):
            out.append(free(c))
        elif c == 1:
            out.append(ONE)
        elif c == -1:
            out.append(MINUS_ONE)
        else:
            out.append(root_of_unity(c))
    return SymbolicTorusPoint(tuple(out))


def act(w: SignedPermutation, t: SymbolicTorusPoint) -> SymbolicTorusPoint:
    """Coordinate ``w(i)`` of the result is coordinate ``i`` of ``t``
    raised to the sign picked up along the way."""
    if w.rank != t.rank:
        raise RankMismatch(f"rank {w.rank} element on rank {t.rank} point")
    coords = [None] * t.rank
    for i in range(t.rank):
        coords[w.images[i] - 1] = t.coords[i] ** w.signs[i]
    return SymbolicTorusPoint(tuple(coords))


# ---------------------------------------------------------------------------
# torus cosets and the integral solver


class TorusCoset(value_type("TorusCoset", "rank basis translation")):
    """A translated subtorus: ``exp(2 pi i (translation + span(basis)))``.

    ``basis`` rows generate the cocharacter lattice of the identity
    component; the stored form is canonical (Hermite basis, translation
    reduced modulo one and modulo the basis span).  Translations are
    computed as integer numerators over one common denominator and
    stored reduced, as ``Fraction`` coordinates in ``[0, 1)``.

    The coset is cut out exactly by its :attr:`equations` ``E x = E t
    (mod Z)``: a point lies in the coset if and only if it satisfies
    them, so intersection reads nothing else, and neither does
    membership in a coset that is no coordinate pattern.  Membership in
    a pattern coset, which is every coset the library builds, reads the
    pattern instead (:meth:`contains_torsion`).  Why the equations cut
    out one coset: row reduction of ``[L^T | I]``, for the basis ``L``
    of rank ``r``, gives a unimodular ``U`` with ``U L^T`` zero past row
    ``r``, and the rows of ``E`` are those last ``n - r`` rows of ``U``.
    They vanish on the real span of ``L``, and ``E`` maps ``Z^n`` onto
    ``Z^(n-r)``.  So if ``E (x - t)`` is integral, some integer vector
    has the same image, and ``x - t`` lies in the span of ``L`` plus
    ``Z^n``: one coset, not a union of parallel components.

    The class keeps an instance ``__dict__`` for the equations and the
    membership plan, computed on first use.
    """

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @cached_property
    def equations(self):
        """``(E, E t)``: the integral equations of the coset and their
        right-hand sides, each summed on integers over the common
        denominator ``L`` of the translation ``t``."""
        n, r = self.rank, self.dimension
        rows = [[row[j] for row in self.basis] + e
                for j, e in enumerate(identity_matrix(n))]
        hermite_reduce(rows, r)
        E = tuple(tuple(row[r:]) for row in rows[r:])
        L = lcm(*(x.denominator for x in self.translation))
        t = [x.numerator * (L // x.denominator) for x in self.translation]
        return E, tuple(Fraction(sum(map(mul, row, t)), L) for row in E)

    @cached_property
    def _torsion_plan(self):
        """``(fixed, ties, general)``: what :meth:`contains_torsion`
        tests, read off the basis.

        A coordinate pattern (every row with entries +-1, so with pivot
        1, since a Hermite pivot is positive; rows with disjoint
        supports; the translation 0 on them) is its own plan, and
        ``general`` is ``None``.  ``fixed`` holds ``(c, a, b)`` for each
        coordinate on no row, meaning ``x_c = a / b (mod Z)`` with ``a /
        b`` the reduced translation, and ``ties`` holds ``(c, c0, s)``
        for each entry ``s`` of a row off its pivot ``c0``, meaning
        ``x_c = s x_c0 (mod Z)``.

        Any other coset keeps its :attr:`equations`: ``fixed`` and
        ``ties`` are empty, and ``general`` is ``(D, ((row, b), ...))``,
        each equation as its nonzero ``(index, coefficient)`` pairs with
        its right-hand side as the integer ``b`` over the common
        denominator ``D``."""
        ties, seen = [], set()
        for row in self.basis:
            support = [(c, s) for c, s in enumerate(row) if s]
            if any(s not in (1, -1) or c in seen or self.translation[c] for c, s in support):
                break
            seen.update(c for c, _ in support)
            c0 = support[0][0]
            ties += [(c, c0, s) for c, s in support[1:]]
        else:
            fixed = tuple((c, t.numerator, t.denominator)
                          for c, t in enumerate(self.translation) if c not in seen)
            return fixed, tuple(ties), None
        E, rhs = self.equations
        D = lcm(*(b.denominator for b in rhs))
        return (), (), (D, tuple(
            (tuple((j, e) for j, e in enumerate(row) if e), b.numerator * (D // b.denominator))
            for row, b in zip(E, rhs)
        ))

    def generic_point(self) -> SymbolicTorusPoint:
        """The coset with one free variable ``z``, ``z'``, ... per basis row."""
        names = ["z" + "'" * k for k in range(len(self.basis))]
        coords = []
        for j in range(self.rank):
            mono = tuple(
                (names[k], row[j]) for k, row in enumerate(self.basis) if row[j]
            )
            coords.append(SymbolicCoordinate(self.translation[j], 0, mono))
        return SymbolicTorusPoint(tuple(coords))

    def contains_torsion(self, pt) -> bool:
        """Membership of a torsion point given by its exponents: the
        number ``x`` stands for the coordinate ``e^{2 pi i x}``, so ``0``
        and ``-1`` both mean the point 1 and ``1/2`` means -1 (unlike
        :func:`point`).  A coordinate is an ``int``, a ``Fraction`` or
        anything else ``Fraction`` converts, read exactly (the float
        ``0.5`` is 1/2); what ``Fraction`` refuses raises as it does.  A
        point whose length is not the rank raises :class:`RankMismatch`.

        A coset built from a coordinate pattern is tested off the pattern
        (see :attr:`_torsion_plan`), with no arithmetic on fractions:
        two reduced fractions ``p / q`` and ``a / b`` differ by an
        integer exactly when ``q = b`` and ``p = a (mod q)``, and
        ``s p0 / q0`` with ``s = +-1`` is reduced when ``p0 / q0`` is.
        The test stops at the first coordinate that fails.

        Any other coset (only :func:`_solve_torus` makes them) is tested
        on ``E x = E t (mod Z)`` one equation at a time, on integers:
        each row sums ``e p / q - b / D`` over its nonzero entries
        ``e``, skipping integral coordinates ``p / q``, and the test
        stops at the first row whose sum is not an integer."""
        v = []
        for x in pt:
            if type(x) is not int and type(x) is not Fraction:
                x = Fraction(x)
            v.append(x.as_integer_ratio())
        if len(v) != self.rank:
            raise RankMismatch(f"rank {len(v)} point in rank {self.rank} coset")
        fixed, ties, general = self._torsion_plan
        for c, a, b in fixed:
            p, q = v[c]
            if q != b or (p - a) % q:
                return False
        for c, c0, s in ties:
            p, q = v[c]
            p0, q0 = v[c0]
            if q != q0 or (p - s * p0) % q:
                return False
        if general is None:
            return True
        D, rows = general
        for row, b in rows:
            num, den = -b, D
            for j, e in row:
                p, q = v[j]
                if q != 1:
                    num, den = num * q + e * p * den, den * q
            if num % den:
                return False
        return True

    def __str__(self) -> str:
        return str(self.generic_point())


def _canonical_coset(rank, rows, translation, denominator=None) -> TorusCoset:
    """The canonical form of the coset ``translation + span(rows)``.
    Only :func:`_solve_torus` builds its solutions here; every other
    coset is built from a coordinate pattern.

    ``translation`` holds rational numbers, or, when ``denominator`` is
    given, integer numerators over it.  Either way it is reduced on
    integers: each Hermite row with pivot entry ``a`` clears the pivot
    coordinate, which multiplies the common denominator by at most
    ``a``, and ``Fraction`` appears only in the stored result.
    """
    mat = [list(row) for row in rows]
    basis = [tuple(row) for row in mat[:hermite_reduce(mat, rank)]]
    if denominator is None:
        t = [Fraction(x) for x in translation]
        L = lcm(*(x.denominator for x in t))
        nums = [x.numerator * (L // x.denominator) for x in t]
    else:
        L, nums = denominator, translation
    for row in basis:
        p = next(j for j, x in enumerate(row) if x)
        g = gcd(row[p], nums[p])
        a, c = row[p] // g, nums[p] // g
        # t - (t_p / row_p) row, over the denominator L * a
        nums = [a * x - c * b for x, b in zip(nums, row)]
        L *= a
    return TorusCoset(rank, tuple(basis), tuple(Fraction(x % L, L) for x in nums))


def full_torus(rank: int) -> TorusCoset:
    """The whole torus, one generic class per coordinate; a rank below 0
    raises :class:`RankOutOfRange`."""
    if rank < 0:
        raise RankOutOfRange(rank)
    return _pattern_coset(rank, [[(c, 1)] for c in range(rank)], ())


def _solve_torus(A, b, rank):
    """All solutions of ``A x = b (mod Z)`` on the rank-``rank`` torus,
    as a list of canonical cosets.

    With ``U A V = S`` the Smith form and ``D`` the common denominator
    of ``b``, everything runs on integers: ``x = V y`` solves the system
    when ``d_i y_i = (U b)_i (mod Z)`` for the elementary divisors
    ``d_i``, and ``(U b)_i`` is integral past them.  The candidate
    translations ``y_i = ((U b)_i + k_i) / d_i``, ``0 <= k_i < d_i``,
    share the denominator ``D * lcm(d_i)``.
    """
    m = len(A)
    if m == 0:
        return [full_torus(rank)]
    S, U, V = smith_normal_form(A)
    D = lcm(*(x.denominator for x in b))
    B = [x.numerator * (D // x.denominator) for x in b]
    c = [sum(map(mul, row, B)) for row in U]
    divisors = []
    r = 0
    for i in range(min(m, rank)):
        if S[i][i]:
            divisors.append(abs(S[i][i]))
            r += 1
    if any(c[i] % D for i in range(r, m)):
        return []
    rows = [tuple(V[i][j] for i in range(rank)) for j in range(r, rank)]
    M = lcm(*divisors)
    scale = [M // d for d in divisors]
    out = set()
    for ks in product(*(range(d) for d in divisors)):
        psi = [(c[i] + ks[i] * D) * scale[i] for i in range(r)]
        theta = [sum(map(mul, V[i][:r], psi)) for i in range(rank)]
        out.add(_canonical_coset(rank, rows, theta, D * M))
    return sorted(out, key=_coset_key)


def _coset_key(c: TorusCoset):
    return (-c.dimension, c.basis, c.translation)


def _signed_cycles(w: SignedPermutation):
    """The cycles of ``w``, split into those whose signs multiply to +1
    and those whose signs multiply to -1.  Each cycle lists ``(coordinate,
    sign)`` pairs (0-based) from its least coordinate on, in the order
    ``w`` visits them, with the product of the signs picked up before
    reaching each coordinate; the cycles come in the order of their
    least coordinates."""
    images, signs = w.images, w.signs
    seen = [False] * len(images)
    positive, negative = [], []
    for start in range(len(images)):
        if seen[start]:
            continue
        cycle, c, s = [], start, 1
        while not seen[c]:
            seen[c] = True
            cycle.append((c, s))
            s *= signs[c]
            c = images[c] - 1
        (positive if s == 1 else negative).append(cycle)
    return positive, negative


def fixed_locus(w: SignedPermutation):
    """The fixed-point set of ``w`` on its torus, as canonical cosets,
    read off the signed cycles of ``w`` (Carter, *Conjugacy classes in
    the Weyl group*, 1972).

    On exponents, ``w`` fixes ``x`` when ``x_w(i) = s_i x_i (mod Z)``
    along each cycle.  A cycle whose signs multiply to +1 leaves its
    first coordinate free and fixes the others as it times the signs
    picked up on the way: one basis row, pivot 1 at the least
    coordinate.  A cycle whose signs multiply to -1 forces ``2 x = 0``,
    so all its coordinates are 0 or all are 1/2.  So the locus has
    ``2^k`` components for ``k`` such cycles, one per pick of 0 or 1/2
    on each; the rows have disjoint supports, so :func:`_pattern_coset`
    builds each canonical coset as it stands.  No Smith form runs: on a
    2-CPU VM (Python 3.11) the 3,840 loci of W(B5) take about 0.11 s,
    against 0.58 s by Smith form.
    """
    positive, negative = _signed_cycles(w)
    return sorted(
        (_pattern_coset(w.rank, positive,
                        {c for cycle, half in zip(negative, pick) if half for c, _ in cycle})
         for pick in product((False, True), repeat=len(negative))),
        key=_coset_key,
    )


def intersect_cosets(c1: TorusCoset, c2: TorusCoset):
    if c1.rank != c2.rank:
        raise RankMismatch(f"rank {c1.rank} coset meets rank {c2.rank} coset")
    E1, b1 = c1.equations
    E2, b2 = c2.equations
    return _solve_torus(E1 + E2, b1 + b2, c1.rank)


# ---------------------------------------------------------------------------
# group actions


def _local_group(kind, coords):
    """All elements of the full symmetric (``"A"``), hyperoctahedral
    (``"B"``) or even-signed (``"D"``) group of ``coords`` (0-based), as
    the images (1-based) and signs of ``coords``."""
    k = len(coords)
    signs = [(1,) * k] if kind == "A" else [
        s for s in product((1, -1), repeat=k) if kind == "B" or s.count(-1) % 2 == 0]
    return [(tuple(coords[j] + 1 for j in p), s)
            for p in permutations(range(k)) for s in signs]


def _piece_group(kind, data):
    """The coordinates (0-based) of a piece of a
    :class:`RecognizedSubgroup` and its elements restricted to them, as
    :func:`_local_group` gives them; an ``E2`` piece is the group its
    flips generate on the coordinates they flip, a ``BB`` piece the
    elements of the two hyperoctahedral groups that invert an even number
    of coordinates in all, and a ``tA`` piece the permutations of its
    coordinates conjugated by the flip of its inverted ones."""
    if kind == "E2":
        flips = {frozenset()}
        for gen in data:
            flips |= {f ^ frozenset(gen) for f in flips}
        coords = tuple(sorted(set().union(*data)))
        return (tuple(c - 1 for c in coords),
                [(coords, tuple(-1 if c in f else 1 for c in coords)) for f in flips])
    if kind == "BB":
        ones, minus = data
        return ones + minus, [
            (i1 + i2, s1 + s2)
            for i1, s1 in _local_group("B", ones) for i2, s2 in _local_group("B", minus)
            if (s1 + s2).count(-1) % 2 == 0]
    if kind == "tA":
        coords, inverted = data
        # coordinate c goes to d with the sign that carries z^eps(c) to z^eps(d)
        eps = {c + 1: -1 if c in inverted else 1 for c in coords}
        return coords, [(images, tuple(eps[c + 1] * eps[d] for c, d in zip(coords, images)))
                        for images, _ in _local_group("A", coords)]
    return data, _local_group(kind, data)


def _piece_coords(kind, data) -> tuple:
    """The coordinates (0-based) of a piece other than ``E2``."""
    if kind == "BB":
        return data[0] + data[1]
    return data[0] if kind == "tA" else data


def _piece_order(kind, data) -> int:
    if kind == "E2":
        return 1 << len(data)
    if kind == "BB":
        a, b = map(len, data)
        return factorial(a) * factorial(b) << (a + b - 1)
    k = len(_piece_coords(kind, data))
    return factorial(k) << {"A": 0, "tA": 0, "B": k, "D": k - 1}[kind]


def _product_elements(n, factors):
    """The elements of rank ``n`` of the direct product of groups on
    disjoint coordinate sets, each factor ``(coords, elements)`` as
    :func:`_piece_group` gives it, sorted by images, then signs; or of
    the product of any sets of elements so given, such as the least
    elements of classes (:func:`_block_classes`)."""
    pairs = []
    for maps in product(*(elements for _, elements in factors)):
        images, signs = list(range(1, n + 1)), [1] * n
        for (coords, _), (ims, sgs) in zip(factors, maps):
            for c, d, s in zip(coords, ims, sgs):
                images[c], signs[c] = d, s
        pairs.append((tuple(images), tuple(signs)))
    pairs.sort()
    return tuple(SignedPermutation.from_valid(*pair) for pair in pairs)


class MonomialAction:
    """The group of signed permutations of a rank-``rank`` torus that is
    the full product, over the coordinate ``blocks``, of the symmetric
    (``"A"``), hyperoctahedral (``"B"``) or even-signed (``"D"``) group
    of each block.  Each block is ``(kind, coords)`` with the
    coordinates 0-based.

    :attr:`blocks` is canonical, so two actions are equal, and hash
    equally, exactly when their groups are: each block is ascending,
    the blocks come in the order of their least coordinates, a
    coordinate in no block is a block ``("A", (c,))`` of its own, and a
    ``"D"`` block on fewer than two coordinates, whose group is trivial,
    reads ``"A"``.  :attr:`order` is read off the blocks, and
    :attr:`elements` lists the group from them on first use, sorted by
    images, then signs.

    A rank below 0 raises :class:`RankOutOfRange`.  A kind other than
    ``A``, ``B`` or ``D``, or blocks that overlap, raise ``ValueError``,
    and a coordinate outside ``range(rank)`` raises
    :class:`RankMismatch`; each message names the blocks and the rank.
    """

    def __init__(self, rank: int, blocks=()):
        if rank < 0:
            raise RankOutOfRange(rank)
        blocks = [(kind, tuple(sorted(coords))) for kind, coords in blocks]
        where = f"blocks {blocks} of a rank {rank} action"
        covered = []
        for kind, coords in blocks:
            if kind not in ("A", "B", "D"):
                raise ValueError(f"kind {kind!r} is not A, B or D in the {where}")
            if coords and (coords[0] < 0 or coords[-1] >= rank):
                raise RankMismatch(f"a coordinate outside range({rank}) in the {where}")
            covered += coords
        if len(set(covered)) < len(covered):
            raise ValueError(f"overlapping coordinates in the {where}")
        blocks += [("A", (c,)) for c in sorted(set(range(rank)) - set(covered))]
        self.rank = rank
        self.blocks = tuple(sorted(
            (("A" if kind == "D" and len(coords) < 2 else kind, coords)
             for kind, coords in blocks if coords), key=lambda block: block[1]))

    @cached_property
    def elements(self) -> tuple:
        return _product_elements(self.rank, [_piece_group(*block) for block in self.blocks])

    @cached_property
    def order(self) -> int:
        return prod(_piece_order(*block) for block in self.blocks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialAction):
            return NotImplemented
        return (self.rank, self.blocks) == (other.rank, other.blocks)

    def __hash__(self) -> int:
        return hash((self.rank, self.blocks))

    def identity(self) -> SignedPermutation:
        return SignedPermutation.identity(self.rank)


def hyperoctahedral_action(n: int) -> MonomialAction:
    """W(B_n): one hyperoctahedral block."""
    return MonomialAction(n, [("B", range(n))])


def even_sign_action(n: int) -> MonomialAction:
    """W(D_n): one even-signed block."""
    return MonomialAction(n, [("D", range(n))])


def permutation_action(n: int) -> MonomialAction:
    return MonomialAction(n, [("A", range(n))])


def trivial_action(n: int) -> MonomialAction:
    return MonomialAction(n)


# ---------------------------------------------------------------------------
# stabilizers and their recognized structure


class RecognizedSubgroup(value_type("RecognizedSubgroup", "rank pieces")):
    """A subgroup of signed permutations of a rank-``rank`` torus with
    recognized structure.

    ``pieces`` is a tuple of factors on disjoint coordinates:

    - ``("A", coords)``, ``("B", coords)``, ``("D", coords)``: the full
      symmetric, hyperoctahedral or even-signed group on the listed
      coordinates (0-based), labelled by partitions, bipartitions and
      D-labels;
    - ``("E2", generators)``: an elementary abelian 2-group of diagonal
      sign flips, each generator given by its flipped coordinate set
      (1-based), labelled by sign vectors;
    - ``("BB", (ones, minus))``: the sign-coupled pair S(B_a x B_b), the
      elements of W(B_a) x W(B_b) on the two coordinate tuples that
      invert an even number of coordinates in all (the stabilizer in
      W(D) of ``a >= 1`` coordinates at 1 and ``b >= 1`` at -1, ``a + b
      >= 3``).  Tensoring with the sign-count character swaps each
      bipartition, so its characters are the orbits of bipartition pairs
      under that swap, a fixed pair counted twice, labelled as
      :meth:`springer.RelativeWeylGroup.character_labels` labels a
      coupled pair: ``((alpha, beta), None)`` by the least member of a
      free orbit, ``((alpha, beta), 0)`` and ``((alpha, beta), 1)`` for
      a fixed pair;
    - ``("tA", (coords, inverted))``: the symmetric group of ``coords``
      conjugated by the flip of ``inverted``, the stabilizer of a class
      of equal generic coordinates some of which are inverted (the
      split twin of a W(D) pattern); labelled by partitions, and every
      swap in it, signed or not, has a connected fixed hyperplane.

    The group is the direct product of its pieces, each ``E2`` piece the
    group its flips generate, and its order is the product of the orders
    of the pieces.  It lists its elements from the pieces on first read,
    sorted by images, then signs, and keeps them in its instance
    ``__dict__``.  Equality and hash read the rank and the pieces;
    ``repr`` reads ``RecognizedSubgroup(elements=..., pieces=...)``, and
    is the only one to list the elements.
    """

    @cached_property
    def elements(self) -> tuple:
        return _product_elements(self.rank, [_piece_group(*piece) for piece in self.pieces])

    @property
    def order(self) -> int:
        return prod(_piece_order(*piece) for piece in self.pieces)

    def __repr__(self) -> str:
        return f"RecognizedSubgroup(elements={self.elements!r}, pieces={self.pieces!r})"

    def structure(self) -> str:
        if not self.pieces:
            return "1"
        names = []
        for kind, data in self.pieces:
            if kind == "E2":
                names.extend(["Z/2"] * len(data))
            elif kind == "BB":
                names.append("S(B{}xB{})".format(*map(len, data)))
            elif kind in ("A", "tA"):
                names.append(f"S{len(_piece_coords(kind, data))}" + "~" * (kind == "tA"))
            else:
                names.append(f"{kind}{len(data)}")
        return " x ".join(names)

    def irreps(self):
        """Character labels per piece (see the class docstring); a
        product group yields label tuples."""
        per_piece = []
        for kind, data in self.pieces:
            if kind in ("A", "tA"):
                per_piece.append(list(partitions(len(_piece_coords(kind, data)))))
            elif kind == "B":
                per_piece.append(list(bipartitions(len(data))))
            elif kind == "D":
                per_piece.append(list(dlabels(len(data))))
            elif kind == "BB":
                per_piece.append(_coupled_labels(data))
            else:
                per_piece.append([s for s in product((1, -1), repeat=len(data))])
        if not per_piece:
            return [()]
        if len(per_piece) == 1:
            return per_piece[0]
        return [tuple(c) for c in product(*per_piece)]


def _coupled_labels(data):
    """The character labels of the BB piece on ``data``, those of a
    coupled pair of hyperoctahedral factors of a relative Weyl group."""
    return RelativeWeylGroup(tuple(("B", len(side)) for side in data), (0, 1)).character_labels()


def _flip_generators(flips) -> tuple:
    """Generators of the group of diagonal flips whose flipped coordinate
    sets (0-based, ascending) are ``flips``: the sets in sorted order,
    each kept when the ones kept before do not generate it, 1-based."""
    gens = []
    seen = {frozenset()}
    for v in sorted(flips):
        if frozenset(v) not in seen:
            gens.append(tuple(c + 1 for c in v))
            seen |= {s ^ frozenset(v) for s in seen}
    return tuple(gens)


# ---------------------------------------------------------------------------
# stratification


class Stratum(value_type("Stratum", "coset base group")):
    __slots__ = ()

    @property
    def dimension(self) -> int:
        return self.coset.dimension

    def families(self):
        """The families of the spectral extended quotient that this
        stratum carries; :func:`spectral_eq` describes the kinds."""
        H = self.group
        if H.order == 1:
            return [EQPoint(self.base, H, H.irreps()[0], "generic")]
        if self.dimension > 0:
            # the fixed torus is connected exactly when the stabilizer
            # only permutes coordinates, up to a flip of the torus
            connected = all(kind in ("A", "tA") for kind, _ in H.pieces)
            trivial = H.irreps()[0]
            out = []
            for rho in H.irreps():
                if connected:
                    kind = "sheet" if rho == trivial else "plane_generic"
                else:
                    kind = "special"
                out.append(EQPoint(self.base, H, rho, kind))
            return out
        # the reflections with a connected fixed hyperplane are the swaps
        # (with equal signs, or any signs in a tA piece) inside the
        # pieces other than E2; a character sends all of them to -1
        # exactly when it is sign-like on each
        sign_like = [_sign_like(kind, data) for kind, data in H.pieces]

        def starts_a_family(rho):
            labels = rho if len(H.pieces) > 1 else (rho,)
            return all(ok is None or label in ok for ok, label in zip(sign_like, labels))

        return [EQPoint(self.base, H, rho, "special") for rho in H.irreps() if starts_a_family(rho)]

    def __str__(self) -> str:
        return f"{self.base} : {self.group.structure()}"


# the largest rank that strata accepts: extquot --rank 6 answers in
# about 0.15 s and 18 MiB in a fresh process (2-CPU VM, Python 3.11),
# with no element of W(B6) (46,080) or of a stabilizer listed.  The
# 120 pattern strata of W(B7) (645,120 elements) take about 0.02 s,
# but no oracle checks rank 7 yet
MAX_RANK = 6


def _block_patterns(kind, k):
    """The coordinate patterns of one block of size ``k``, as ``(a, b,
    parts, twin)``: how many coordinates are 1, how many are -1, the
    sizes of the classes of equal generic coordinates (equal up to
    inversion on a signed block), and which of two split orbits is
    meant.  A symmetric group fixes no value, so its coordinates are
    all generic.

    On an even-signed block, a lone coordinate at 1 or -1 is as generic
    as any (W(D) has no single flip), so ``a + b = 1`` is left out.  A
    W(B_k) orbit of patterns splits into two W(D_k) orbits exactly when
    no odd element of W(B_k) maps its coset to itself: when no
    coordinate is fixed (else its flip would) and every class is even
    (else inverting an odd class would).  Such a pattern comes twice,
    ``twin`` false for the orbit of uniform classes and true for its
    image under one coordinate flip."""
    if kind == "A":
        return [(0, 0, lam.parts, False) for lam in partitions(k)]
    out = []
    for m in range(k + 1):
        if kind == "D" and m == 1:
            continue
        for a in range(m + 1):
            for lam in partitions(k - m):
                out.append((a, m - a, lam.parts, False))
                if kind == "D" and m == 0 and all(p % 2 == 0 for p in lam.parts):
                    out.append((0, 0, lam.parts, True))
    return out


def _place(coords, parts, least):
    """Classes of sizes ``parts`` on the generic coordinates ``coords``,
    as lists of ``(coordinate, sign)``, placed the way the least member
    of their orbit places them (see :func:`_pattern_strata`).  With
    ``least`` false, every class keeps sign +1, which is the least
    member whose stabilizer only permutes each class."""
    free = list(coords)
    classes = []
    if least:
        # each pivot takes the largest class on the coordinates after it,
        # every one inverted
        for s in sorted(parts, reverse=True):
            classes.append([(free[0], 1)] + [(c, -1) for c in free[1:s]])
            del free[:s]
    else:
        # each pivot takes the smallest class, on the last coordinates
        for s in sorted(parts):
            members = [free.pop(0)] + free[len(free) - s + 1:]
            del free[len(free) - s + 1:]
            classes.append([(c, 1) for c in members])
    return classes


# the translation entries of every pattern coset, shared
_HALF, _ZERO = Fraction(1, 2), Fraction(0)


def _pattern_coset(n, classes, minus):
    """The canonical coset whose generic coordinates form ``classes``
    and whose other coordinates are 1, or -1 on ``minus``.  Rows with
    disjoint supports and pivot entry 1, sorted by pivot, are already in
    Hermite form, and the translation vanishes on every pivot."""
    rows = []
    for cls in sorted(classes):
        row = [0] * n
        for c, s in cls:
            row[c] = s
        rows.append(tuple(row))
    return TorusCoset(n, tuple(rows), tuple(_HALF if c in minus else _ZERO for c in range(n)))


def _pattern_group(n, fixed, classes) -> RecognizedSubgroup:
    """The stabilizer of a generic point whose generic coordinates form
    ``classes`` and whose other coordinates are 1 or -1, listed in
    ``fixed`` as ``(kind, ones, minus)`` per block.  Each class gives the
    symmetric group of its coordinates, conjugated by the flip of its
    inverted ones (``tA``) when it has any.  On a hyperoctahedral block
    the ones and the minus ones each give their hyperoctahedral group,
    on an even-signed block the elements of both that invert an even
    number of coordinates: a ``D`` piece when one of them is empty, a
    ``BB`` piece when neither is, or the flip of both when each is one
    coordinate.  The pieces come in the order of their least coordinates,
    with the diagonal flips last as one ``E2`` piece whose generators
    :func:`_flip_generators` picks, and the elements are listed only
    when they are read.  :func:`_pattern_strata` and :func:`stabilizer`
    both build their groups here."""
    pieces, flips = [], []
    for cls in classes:
        if len(cls) > 1:
            coords = tuple(c for c, _ in cls)
            inverted = tuple(c for c, s in cls if s == -1)
            pieces.append(("tA", (coords, inverted)) if inverted else ("A", coords))
    for kind, ones, minus in fixed:
        if kind == "D" and ones and minus:
            if len(ones) + len(minus) == 2:
                flips.append(ones + minus)
            else:
                pieces.append(("BB", (ones, minus)))
            continue
        for fix in (ones, minus):
            if len(fix) > 1:
                pieces.append((kind, fix))
            elif fix:
                flips.append(fix)
    pieces.sort(key=lambda piece: _piece_coords(*piece)[0])
    if all(len(f) == 1 for f in flips):
        # the sorted flip vectors of single flips are greedily
        # independent exactly along the prefixes of their coordinates
        diag = sorted(f[0] + 1 for f in flips)
        gens = tuple(tuple(diag[:i + 1]) for i in range(len(diag)))
    else:
        span = {()}
        for f in flips:
            span |= {tuple(sorted(set(v) ^ set(f))) for v in span}
        gens = _flip_generators(span)
    if gens:
        pieces.append(("E2", gens))
    return RecognizedSubgroup(n, tuple(pieces))


@lru_cache(maxsize=None)
def _pattern_strata(n: int, blocks: tuple) -> tuple:
    """The strata of the full product of symmetric, hyperoctahedral and
    even-signed groups on the rank-``n`` ``blocks`` of a
    :class:`MonomialAction`, one per choice of a coordinate pattern on
    every block (:func:`_block_patterns`).  They depend on nothing else,
    so each block structure is stratified once for the life of the
    process (finitely many up to ``MAX_RANK``), with no fixed locus,
    intersection, stabilizer scan or element listed.

    The stabilizer of a point is the product over the blocks of the
    stabilizers of its coordinates there, so the strata are the
    products of per-block patterns.  Cosets compare by ``_coset_key``:
    Hermite rows, one per class, in pivot order, then the translation.
    Row by row, the least member of a pattern's orbit puts the fixed
    coordinates of each block first, because a later pivot makes its
    row smaller, and 1 before -1.  Each pivot of a signed block then
    takes the largest class left, on the coordinates right after it and
    inverted, so that its row goes on with entries -1; each pivot of a
    symmetric block takes the smallest class left, on the last free
    coordinates, so that its row goes on with zeros.  On an even-signed
    block with a split pattern, the parity of the inverted coordinates
    tells the two W(D) orbits apart, odd for the twin.  The signed
    placement inverts ``k - l`` coordinates for ``l`` classes, as many as
    ``l`` up to parity since ``k`` is even; when that is not the orbit's
    parity, the least member of the orbit keeps the last coordinate of
    the last class uninverted instead.  That member orders the strata.

    The representative is the least member whose stabilizer is a
    product of unconjugated pieces, that is, whose classes are not
    inverted: the symmetric placement on every block.  An orbit that is
    a twin on some block has no such member, since uniform classes lie
    in the other orbit, and is represented by its least member, whose
    inverted classes give ``tA`` pieces.
    """
    out = []
    for choice in product(*(_block_patterns(kind, len(c)) for kind, c in blocks)):
        fixed, minus, least, uniform = [], set(), [], []
        for (kind, coords), (a, b, parts, twin) in zip(blocks, choice):
            fixed.append((kind, coords[:a], coords[a:a + b]))
            minus.update(coords[a:a + b])
            signed = _place(coords[a + b:], parts, kind != "A")
            if kind == "D" and a + b == 0 and all(p % 2 == 0 for p in parts) \
                    and len(parts) % 2 != twin:
                c, _ = signed[-1][-1]
                signed[-1][-1] = (c, 1)
            least += signed
            uniform += _place(coords[a + b:], parts, False)
        rep = least if any(twin for *_, twin in choice) else uniform
        coset = _pattern_coset(n, rep, minus)
        group = _pattern_group(n, fixed, rep)
        key = _coset_key(_pattern_coset(n, least, minus))
        out.append((key, Stratum(coset, coset.generic_point(), group)))
    out.sort(key=lambda ks: ks[0])
    return tuple(st for _, st in out)


def strata(action: MonomialAction):
    """Canonical representatives of the stabilizer strata of the action,
    one per orbit, ordered by the least coset of each orbit (decreasing
    dimension first).  Each representative is the least coset of its
    orbit whose stabilizer is a product of unconjugated pieces
    (conjugates may act by twisted reflections), or the least coset when
    there is none.

    The action is stratified from the coordinate patterns of its
    blocks (:func:`_pattern_strata`), with no fixed locus, intersection
    or stabilizer scan, and no element of the group listed.  The split
    twins of W(D) have no representative with an unconjugated
    stabilizer, so theirs is the least coset of the orbit, with ``tA``
    pieces.

    A rank above :data:`MAX_RANK` raises :class:`RankOutOfRange`.

    Pattern strata are memoised per rank and coordinate blocks for the
    life of the process, so equal actions share one set of
    frozen strata; every call returns a fresh list.  Their stabilizers
    keep only their pieces and list their elements on first read, so
    the memo holds no element until then.  The 75 strata of W(B6) take
    about 0.005 s in a fresh process (2-CPU VM, Python 3.11); listing
    their 132,573 stabilizer elements takes about 0.6 s.
    """
    if action.rank > MAX_RANK:
        raise RankOutOfRange(action.rank)
    return list(_pattern_strata(action.rank, action.blocks))


def stabilizer(action: MonomialAction, t: SymbolicTorusPoint) -> RecognizedSubgroup:
    """All elements fixing ``t`` with its free variables generic, read
    off the coordinate pattern of ``t`` with no element listed.

    The stabilizer is the product over the blocks of the action of the
    stabilizers of the coordinates there.  On a hyperoctahedral or
    even-signed block the coordinates at 1 and at -1 are fixed, and the
    others fall into classes equal up to inversion: the least coordinate
    of a class is uninverted, and the members equal to its inverse are
    the inverted ones of a ``tA`` piece, as :func:`_place` orients them.
    On a symmetric block every class is of equal coordinates.  A lone
    coordinate at 1 or -1 of an even-signed block fixes nothing, since
    W(D) has no single flip.  :func:`_pattern_group` builds the group,
    as it builds the group of each stratum, so ``stabilizer(action,
    st.base) == st.group`` for every stratum ``st``.  The stabilizer in
    W(B12) of four coordinates at 1, four at ``z`` and four at -1
    (3,538,944 elements) takes under a millisecond, and its whole fresh
    process about 17 MiB (2-CPU VM, Python 3.11), where scanning the
    elements of W(B7) took 4.3 s.

    A point of another rank raises :class:`RankMismatch`.
    """
    if t.rank != action.rank:
        raise RankMismatch(f"rank {t.rank} point under rank {action.rank} action")
    fixed, classes = [], []
    for kind, coords in action.blocks:
        ones = minus = ()
        if kind != "A":
            ones = tuple(c for c in coords if t.coords[c] == ONE)
            minus = tuple(c for c in coords if t.coords[c] == MINUS_ONE)
        rest = [c for c in coords if c not in ones and c not in minus]
        if kind == "D" and len(ones) + len(minus) == 1:
            ones = minus = ()
        fixed.append((kind, ones, minus))
        # each class under the value of its least coordinate
        found = {}
        for c in rest:
            x = t.coords[c]
            if x in found:
                found[x].append((c, 1))
            elif kind != "A" and (y := x.inverse()) in found:
                found[y].append((c, -1))
            else:
                found[x] = [(c, 1)]
        classes += found.values()
    return _pattern_group(action.rank, fixed, classes)


# ---------------------------------------------------------------------------
# extended quotients


class EQPoint(value_type("EQPoint", "base group irrep kind")):
    """One family of the spectral extended quotient: a stratum together
    with an irreducible character of its stabilizer."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"({self.base}, {self.irrep}) [{self.kind}]"


def _sign_like(kind, data):
    """The characters of a piece that send every swap in it to -1: the
    sign characters of an A, tA, B or D group, and the characters of a
    BB piece that are sign characters on each side with a swap; ``None``
    for an E2 piece, which has no swap."""
    if kind == "E2":
        return None
    if kind == "BB":
        sides = [_sign_like("B", side) if len(side) > 1 else None for side in data]
        return [label for label in _coupled_labels(data)
                if all(ok is None or x in ok for ok, x in zip(sides, label[0]))]
    ones, empty = Partition((1,) * len(_piece_coords(kind, data))), Partition(())
    if kind in ("A", "tA"):
        return (ones,)
    if kind == "B":
        return (Bipartition(ones, empty), Bipartition(empty, ones))
    return (DLabel(ones, empty),)


def spectral_eq(action: MonomialAction):
    """Families of the spectral extended quotient.

    Every stratum contributes characters of its stabilizer.  The kinds
    sort them the way the quotient is usually pictured: the ``generic``
    sheet (trivial stabilizer), ``sheet``/``plane_generic`` families
    supported on a connected positive-dimensional fixed torus (trivial
    and nontrivial characters respectively), and ``special`` families
    on disconnected or zero-dimensional strata.  At a zero-dimensional
    stratum only the characters sending every reflection with connected
    fixed torus to minus the identity start a new family; the rest
    continue families of larger strata.
    """
    return [f for st in strata(action) for f in st.families()]


def eq_pairs(action: MonomialAction):
    """Every (stratum representative, stabilizer character) pair, with
    no family bookkeeping; this is the extended quotient as a plain set
    of orbit representatives."""
    out = []
    for st in strata(action):
        for rho in st.group.irreps():
            out.append((st, rho))
    return out


class GeoEQFamily(value_type("GeoEQFamily", "element component")):
    """A family of the geometric extended quotient: a group element with
    one component of its fixed locus, up to simultaneous conjugation."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"(w={self.element.images}/{self.element.signs}, {self.component})"


def _block_classes(kind, coords):
    """The conjugacy classes of the symmetric (``"A"``), hyperoctahedral
    (``"B"``) or even-signed (``"D"``) group of ``coords`` (0-based,
    ascending), each as the images (1-based) and signs of ``coords``
    under its least element in ``(images, signs)`` order, as
    :func:`_local_group` gives the elements.

    A class of W(B_k) is a bipartition ``(alpha, beta)``: the lengths of
    the cycles whose signs multiply to +1 and to -1 (Carter, *Conjugacy
    classes in the Weyl group*, 1972).  Its least element lays the
    cycles out on consecutive coordinates, shortest first, each sending
    every coordinate to the next and its last back to its first.  Every
    sign is -1 but each cycle's last, which its parity fixes; among
    cycles of one length, those whose last sign is -1 come first.  A
    class of S_k is a partition, with every sign +1.  W(D_k) keeps the
    bipartitions with an even number of negative cycles, and one with no
    negative cycle and every cycle even splits into two classes; the
    second one's least element is the first one's with the signs of the
    last two coordinates +1."""
    k = len(coords)
    if kind == "A":
        types = [(lam.parts, ()) for lam in partitions(k)]
    else:
        types = [(bp.alpha.parts, bp.beta.parts) for bp in bipartitions(k)
                 if kind == "B" or len(bp.beta.parts) % 2 == 0]
    out = []
    for alpha, beta in types:
        # (length, last sign) per cycle: the signs before the last give
        # (-1)^(m-1), so the last is -1 for an odd negative cycle or an
        # even positive one
        cycles = [(m, 1 if kind == "A" or m % 2 else -1) for m in alpha] \
            + [(m, -1 if m % 2 else 1) for m in beta]
        images, signs = [], []
        for m, last in sorted(cycles):
            s = len(images)
            images += coords[s + 1:s + m] + coords[s:s + 1]
            signs += [1 if kind == "A" else -1] * (m - 1) + [last]
        images = tuple(c + 1 for c in images)
        out.append((images, tuple(signs)))
        if kind == "D" and not beta and all(m % 2 == 0 for m in alpha):
            out.append((images, tuple(signs[:-2]) + (1, 1)))
    return out


def geometric_eq(action: MonomialAction):
    """Orbit representatives of pairs (element, component of its fixed
    locus) under simultaneous conjugation, read off the conjugacy classes
    of the action's coordinate blocks with no element listed.

    A class of the action is a class per block (:func:`_block_classes`),
    and its least element in ``(images, signs)`` order puts each block's
    least element on that block's coordinates.  The classes come in the
    order of their least elements ``w``.  The components of the fixed
    locus of ``w`` are the picks of 0 or 1/2 on its cycles whose signs
    multiply to -1 (see :func:`fixed_locus`), and its centralizer, the
    product over the blocks, permutes such cycles of equal length in one
    block in every way (on a W(D) block, composing with a negative cycle
    of ``w``, which moves no pick, restores the parity of the signs).
    So there is one family per choice, for each block and length, of
    how many of those cycles take 1/2.  The least component of a family
    gives 1/2 to the later cycles of each length, and the families of
    ``w`` come in the order of their components, which differ only in
    translation.

    W(B10) (2,640 families) takes about 0.02 s and W(B12) (7,868) about
    0.07 s, their fresh processes about 0.05 s and 18 MiB, 0.11 s and
    22 MiB (2-CPU VM, Python 3.11), where walking the classes of the
    listed group took 20 s and 418 MiB for W(B7).
    """
    n = action.rank
    blocks = action.blocks
    block_of = {c: b for b, (_, coords) in enumerate(blocks) for c in coords}
    out = []
    for w in _product_elements(n, [(coords, _block_classes(kind, coords)) for kind, coords in blocks]):
        positive, negative = _signed_cycles(w)
        # the negative cycles of each block and length, by least coordinate
        groups = {}
        for cycle in negative:
            groups.setdefault((block_of[cycle[0][0]], len(cycle)), []).append(cycle)
        groups = list(groups.values())
        components = []
        for halves in product(*(range(len(g) + 1) for g in groups)):
            minus = {c for g, h in zip(groups, halves) for cycle in g[len(g) - h:] for c, _ in cycle}
            components.append(_pattern_coset(n, positive, minus))
        components.sort(key=lambda c: c.translation)
        out += [GeoEQFamily(w, c) for c in components]
    return out
