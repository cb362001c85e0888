"""Finite monomial group actions on complex tori.

A signed permutation acts on ``(C^*)^n`` by permuting coordinates and
inverting some of them.  Everything here is exact: torus points are
symbolic (roots of unity, powers of ``q^{1/2}``, and free monomial
variables), fixed loci are computed by Smith normal form over the
integers, and the stabilizer strata come back with recognized Coxeter
structure so their irreducible characters can be labelled
combinatorially.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import factorial, gcd, lcm
from operator import mul

from .combicore import (
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
    smith_normal_form,
)
from .springer import UnrecognizedStructure


class RankMismatch(ValueError):
    """An element was applied to a point of the wrong rank."""


# ---------------------------------------------------------------------------
# symbolic coordinates and torus points


def _norm_monomial(monomial):
    acc = {}
    for name, e in monomial:
        acc[name] = acc.get(name, 0) + int(e)
    return tuple(sorted((n, e) for n, e in acc.items() if e))


@dataclass(frozen=True)
class SymbolicCoordinate:
    """One coordinate of a symbolic torus point.

    The value denoted is ``e^{2 pi i torsion} * (q^{1/2})^qexp * prod
    v^e`` over the monomial, with the named variables ``v`` generic.
    """

    torsion: Fraction = Fraction(0)
    qexp: int = 0
    monomial: tuple = ()

    def __post_init__(self):
        t = self.torsion
        if type(t) is not Fraction or not 0 <= t.numerator < t.denominator:
            object.__setattr__(self, "torsion", Fraction(t) % 1)
        object.__setattr__(self, "qexp", int(self.qexp))
        m = self.monomial
        object.__setattr__(self, "monomial", _norm_monomial(m) if m else ())

    def __hash__(self) -> int:
        """Hash of the fields the dataclass ``__eq__`` compares, with the
        torsion as its numerator and denominator.  ``__post_init__``
        stores the torsion as a ``Fraction`` in [0, 1), always in lowest
        terms, so equal coordinates have equal numerators and
        denominators, and hashing the two integers agrees with ``__eq__``
        without the cost of ``Fraction.__hash__``."""
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
        return self ** -1

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


@dataclass(frozen=True)
class SymbolicTorusPoint:
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))

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


@dataclass(frozen=True)
class TorusCoset:
    """A translated subtorus: ``exp(2 pi i (translation + span(basis)))``.

    ``basis`` rows generate the cocharacter lattice of the identity
    component; the stored form is canonical (Hermite basis, translation
    reduced modulo one and modulo the basis span).  Translations are
    computed as integer numerators over one common denominator and
    stored reduced, as ``Fraction`` coordinates in ``[0, 1)``.

    The coset is cut out exactly by its :attr:`equations` ``E x = E t
    (mod Z)``: a point lies in the coset if and only if it satisfies
    them, so membership and intersection read nothing else.  The reason:
    row reduction of ``[L^T | I]``, for the basis ``L`` of rank ``r``,
    gives a unimodular ``U`` with ``U L^T`` zero past row ``r``, and the
    rows of ``E`` are those last ``n - r`` rows of ``U``.  They vanish on
    the real span of ``L``, and ``E`` maps ``Z^n`` onto ``Z^(n-r)``.  So
    if ``E (x - t)`` is integral, some integer vector has the same image,
    and ``x - t`` lies in the span of ``L`` plus ``Z^n``: one coset, not
    a union of parallel components.
    """

    rank: int
    basis: tuple
    translation: tuple

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @cached_property
    def _scaled_translation(self):
        """``(L, L * t)``: the translation over its common denominator
        ``L``, as integers."""
        L = lcm(*(x.denominator for x in self.translation))
        return L, tuple(x.numerator * (L // x.denominator) for x in self.translation)

    @cached_property
    def equations(self):
        """``(E, E t)``: the integral equations of the coset and their
        right-hand sides."""
        n, r = self.rank, self.dimension
        rows = [[row[j] for row in self.basis] + e
                for j, e in enumerate(identity_matrix(n))]
        hermite_reduce(rows, r)
        E = tuple(tuple(row[r:]) for row in rows[r:])
        L, t = self._scaled_translation
        return E, tuple(Fraction(sum(map(mul, row, t)), L) for row in E)

    @cached_property
    def _integer_rhs(self):
        """``(D, D * E t)``: the right-hand sides of :attr:`equations`
        over their common denominator ``D``, as integers."""
        _, rhs = self.equations
        D = lcm(*(b.denominator for b in rhs))
        return D, tuple(b.numerator * (D // b.denominator) for b in rhs)

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
        :func:`point`).  ``E x = E t (mod Z)`` is tested on integers over
        a common denominator."""
        E, _ = self.equations
        D, rhs = self._integer_rhs
        v = [x if type(x) in (int, Fraction) else Fraction(x) for x in pt]
        d = lcm(D, *[x.denominator for x in v])
        a = [x.numerator * (d // x.denominator) for x in v]
        k = d // D
        return all((sum(map(mul, row, a)) - k * b) % d == 0 for row, b in zip(E, rhs))

    def __str__(self) -> str:
        return str(self.generic_point())


def _canonical_coset(rank, rows, translation, denominator=None) -> TorusCoset:
    """The canonical form of the coset ``translation + span(rows)``.

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
    return _canonical_coset(rank, identity_matrix(rank), [0] * rank)


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


def fixed_locus(w: SignedPermutation):
    """The fixed-point set of ``w`` on its torus, as canonical cosets."""
    n = w.rank
    M = w.matrix()
    A = [[M[i][j] - (i == j) for j in range(n)] for i in range(n)]
    return _solve_torus(A, [0] * n, n)


def intersect_cosets(c1: TorusCoset, c2: TorusCoset):
    E1, b1 = c1.equations
    E2, b2 = c2.equations
    return _solve_torus(E1 + E2, b1 + b2, c1.rank)


def _signed_image(w: SignedPermutation, v):
    """The vector ``w v``: entry ``i`` of ``v`` moves to ``w(i)`` with
    the sign of ``w`` there."""
    out = [0] * len(v)
    for x, i, s in zip(v, w.images, w.signs):
        out[i - 1] = s * x
    return out


def act_coset(w: SignedPermutation, c: TorusCoset) -> TorusCoset:
    L, t = c._scaled_translation
    rows = [_signed_image(w, row) for row in c.basis]
    return _canonical_coset(c.rank, rows, _signed_image(w, t), L)


# ---------------------------------------------------------------------------
# group actions


@dataclass(frozen=True)
class MonomialAction:
    """A finite group of signed permutations, listed in full.

    The list must contain the identity and be closed under composition.
    Closure is checked from generators rather than on all pairs: walking
    the sorted elements, each one not yet reached becomes a generator,
    and the reached set is extended breadth first by left multiplication
    with the generators, every product being looked up in the list.  A
    finite set that contains the identity and is closed under left
    multiplication by a generating subset is the group they generate, so
    about ``order * len(generators)`` products decide closure.  The
    generators found are kept as :attr:`generators`.
    """

    elements: tuple

    def __post_init__(self):
        elems = tuple(sorted(set(self.elements), key=lambda w: (w.images, w.signs)))
        object.__setattr__(self, "elements", elems)
        group = set(elems)
        identity = SignedPermutation.identity(elems[0].rank) if elems else None
        if identity not in group:
            raise ValueError("element list is not closed under composition")
        reached = {identity}
        gens = []
        for g in elems:
            if g in reached:
                continue
            # old elements need only the new generator; what that adds
            # needs every generator
            frontier = list(reached)
            gens.append(g)
            todo = [g]
            while frontier:
                fresh = []
                for x in frontier:
                    for s in todo:
                        y = s * x
                        if y not in group:
                            raise ValueError("element list is not closed under composition")
                        if y not in reached:
                            reached.add(y)
                            fresh.append(y)
                frontier, todo = fresh, gens
        object.__setattr__(self, "generators", tuple(gens))

    @property
    def rank(self) -> int:
        return self.elements[0].rank

    @property
    def order(self) -> int:
        return len(self.elements)

    def identity(self) -> SignedPermutation:
        return SignedPermutation.identity(self.rank)


def hyperoctahedral_action(n: int) -> MonomialAction:
    return MonomialAction(all_signed_permutations(n))


def even_sign_action(n: int) -> MonomialAction:
    return MonomialAction(
        tuple(
            w
            for w in all_signed_permutations(n)
            if w.signs.count(-1) % 2 == 0
        )
    )


def permutation_action(n: int) -> MonomialAction:
    return MonomialAction(
        tuple(w for w in all_signed_permutations(n) if w.signs == (1,) * n)
    )


def trivial_action(n: int) -> MonomialAction:
    return MonomialAction((SignedPermutation.identity(n),))


# ---------------------------------------------------------------------------
# stabilizers and their recognized structure


@dataclass(frozen=True)
class RecognizedSubgroup:
    """A subgroup of signed permutations with recognized structure.

    ``pieces`` is a tuple of factors: ``("A", coords)``, ``("B",
    coords)``, ``("D", coords)`` for a full symmetric or
    hyperoctahedral or even-signed group on the listed coordinates, or
    ``("E2", generators)`` for an elementary abelian 2-group of
    diagonal sign flips, each generator given by its flipped
    coordinate set.
    """

    elements: tuple
    pieces: tuple

    @property
    def order(self) -> int:
        return len(self.elements)

    def structure(self) -> str:
        if not self.pieces:
            return "1"
        names = []
        for kind, data in self.pieces:
            if kind == "E2":
                names.extend(["Z/2"] * len(data))
            elif kind == "A":
                names.append(f"S{len(data)}")
            else:
                names.append(f"{kind}{len(data)}")
        return " x ".join(names)

    def irreps(self):
        """Character labels: partitions, bipartitions, D-labels, or
        sign vectors per piece; a product group yields label tuples."""
        per_piece = []
        for kind, data in self.pieces:
            if kind == "A":
                per_piece.append(list(partitions(len(data))))
            elif kind == "B":
                per_piece.append(list(bipartitions(len(data))))
            elif kind == "D":
                per_piece.append(list(dlabels(len(data))))
            else:
                per_piece.append([s for s in product((1, -1), repeat=len(data))])
        if not per_piece:
            return [()]
        if len(per_piece) == 1:
            return per_piece[0]
        return [tuple(c) for c in product(*per_piece)]


def _restrict(w: SignedPermutation, coords):
    pos = {c: i for i, c in enumerate(coords)}
    images = tuple(pos[w.images[c - 1] - 1] + 1 for c in (c + 1 for c in coords))
    signs = tuple(w.signs[c] for c in coords)
    return images, signs


def recognize_subgroup(elements, rank: int) -> RecognizedSubgroup:
    elems = tuple(sorted(set(elements), key=lambda w: (w.images, w.signs)))
    moved = [
        c
        for c in range(rank)
        if any(w.images[c] != c + 1 or w.signs[c] != 1 for w in elems)
    ]
    if not moved:
        return RecognizedSubgroup(elems, ())
    # coordinate blocks: join c and w(c)
    parent = {c: c for c in moved}

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for w in elems:
        for c in moved:
            d = w.images[c] - 1
            if d in parent:
                parent[find(c)] = find(d)
    blocks = {}
    for c in moved:
        blocks.setdefault(find(c), []).append(c)
    pieces = []
    diag_coords = []
    size = 1
    for block in sorted(map(tuple, blocks.values())):
        restricted = {_restrict(w, block) for w in elems}
        k = len(block)
        identity = (tuple(range(1, k + 1)), (1,) * k)
        if all(im == identity[0] for im, _ in restricted):
            diag_coords.extend(block)
            continue
        # the restriction is a subgroup of W(B_k): it is S_k, W(B_k) or
        # W(D_k) exactly when it has that group's order and sign condition
        order, negatives = len(restricted), [s.count(-1) for _, s in restricted]
        if order == factorial(k) and not any(negatives):
            pieces.append(("A", tuple(block)))
        elif order == 2 ** k * factorial(k):
            pieces.append(("B", tuple(block)))
        elif order == 2 ** (k - 1) * factorial(k) and all(n % 2 == 0 for n in negatives):
            pieces.append(("D", tuple(block)))
        else:
            raise UnrecognizedStructure(
                f"unrecognized block of order {len(restricted)} on "
                f"coordinates {tuple(c + 1 for c in block)}: {elems}"
            )
        size *= len(restricted)
    if diag_coords:
        vecs = sorted(
            {
                tuple(c for c in diag_coords if w.signs[c] == -1)
                for w in elems
                if w.images == tuple(range(1, rank + 1))
            }
        )
        gens = []
        seen = {frozenset()}
        for v in vecs:
            if frozenset(v) not in seen:
                gens.append(v)
                seen |= {frozenset(set(s) ^ set(v)) for s in seen}
        pieces.append(("E2", tuple(tuple(c + 1 for c in g) for g in gens)))
        size *= 2 ** len(gens)
    if size != len(elems):
        raise UnrecognizedStructure(
            f"subgroup of order {len(elems)} is not the product of its "
            f"coordinate blocks: {elems}"
        )
    return RecognizedSubgroup(elems, tuple(pieces))


def stabilizer(action: MonomialAction, t: SymbolicTorusPoint) -> RecognizedSubgroup:
    """All elements fixing ``t`` with its free variables generic."""
    if t.rank != action.rank:
        raise RankMismatch(f"rank {t.rank} point under rank {action.rank} action")
    # act(w, t) == t, with each coordinate inverted once rather than
    # once per element
    power = {1: t.coords, -1: tuple(c.inverse() for c in t.coords)}
    fix = tuple(
        w
        for w in action.elements
        if all(t.coords[j - 1] == power[s][i] for i, (j, s) in enumerate(zip(w.images, w.signs)))
    )
    return recognize_subgroup(fix, action.rank)


# ---------------------------------------------------------------------------
# stratification


@dataclass(frozen=True)
class Stratum:
    coset: TorusCoset
    base: SymbolicTorusPoint
    group: RecognizedSubgroup

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
            # only permutes coordinates
            connected = all(kind == "A" for kind, _ in H.pieces)
            trivial = H.irreps()[0]
            out = []
            for rho in H.irreps():
                if connected:
                    kind = "sheet" if rho == trivial else "plane_generic"
                else:
                    kind = "special"
                out.append(EQPoint(self.base, H, rho, kind))
            return out
        refl = [w for w in H.elements if _has_connected_hyperplane(w)]
        return [
            EQPoint(self.base, H, rho, "special")
            for rho in H.irreps()
            if all(_acts_by_minus_one(H, rho, w) for w in refl)
        ]

    def __str__(self) -> str:
        return f"{self.base} : {self.group.structure()}"


def _coset_orbit(action: MonomialAction, c: TorusCoset):
    """The orbit of ``c``, sorted, reached from ``c`` by the generators."""
    orbit, frontier = {c}, {c}
    while frontier:
        frontier = {act_coset(g, x) for x in frontier for g in action.generators} - orbit
        orbit |= frontier
    return sorted(orbit, key=_coset_key)


# the largest rank that strata accepts, its measured reach: strata(B5)
# answers in seconds, strata(B6) takes minutes
MAX_RANK = 5


def strata(action: MonomialAction):
    """Canonical representatives of the stabilizer strata of the action,
    one per orbit, ordered by decreasing dimension.

    The strata come from the pool of the full torus and every fixed
    locus, closed under intersection.  The pool is W-stable, because
    ``v Fix(w) = Fix(v w v^-1)``, and so is every intersection of its
    members.  So when ``c1 = v r`` for an orbit representative ``r``,
    the intersection ``c1 & c2 = v (r & v^-1 c2)`` is known up to W from
    representatives alone: each new orbit's representative meets the
    pool, whatever the meeting adds joins with its whole orbit, and
    this repeats until nothing new appears.  Two new representatives
    need to meet only one of the two orbits, for the same reason.
    """
    n = action.rank
    if n > MAX_RANK:
        raise ValueError(f"stratification limited to rank {MAX_RANK}")
    pool = {full_torus(n)}
    for w in action.elements:
        if w != action.identity():
            pool.update(fixed_locus(w))
    orbit_of = {}
    orbits = []

    def new_orbits(cosets):
        reps = []
        for c in cosets:
            if c not in orbit_of:
                orbit = _coset_orbit(action, c)
                orbit_of.update(dict.fromkeys(orbit, orbit))
                orbits.append(orbit)
                reps.append(orbit[0])
        return reps

    met = []
    fresh = new_orbits(pool)
    while fresh:
        found = set()
        # each new representative meets the older orbits, its own, and
        # the orbits of the new representatives after it
        for r in reversed(fresh):
            met += orbit_of[r]
            for c in met:
                if c != r:
                    found.update(intersect_cosets(r, c))
        fresh = new_orbits(found)
    orbits.sort(key=lambda orbit: _coset_key(orbit[0]))
    out = []
    for orbit in orbits:
        # prefer the representative whose stabilizer has recognized
        # Coxeter structure (conjugates may act by twisted reflections)
        last = None
        for c in orbit:
            base = c.generic_point()
            try:
                out.append(Stratum(c, base, stabilizer(action, base)))
                break
            except UnrecognizedStructure as exc:
                last = exc
        else:
            raise last
    return out


# ---------------------------------------------------------------------------
# extended quotients


@dataclass(frozen=True)
class EQPoint:
    """One family of the spectral extended quotient: a stratum together
    with an irreducible character of its stabilizer."""

    base: SymbolicTorusPoint
    group: RecognizedSubgroup
    irrep: object
    kind: str

    def __str__(self) -> str:
        return f"({self.base}, {self.irrep}) [{self.kind}]"


def _acts_by_minus_one(group: RecognizedSubgroup, irrep, w: SignedPermutation) -> bool:
    """Whether the irrep sends the reflection ``w`` to minus the identity."""
    labels = irrep if len(group.pieces) > 1 else (irrep,)
    for (kind, data), label in zip(group.pieces, labels):
        if kind == "E2":
            # diagonal reflections never have a connected fixed torus,
            # so an E2 piece is never the support of a queried element
            continue
        coords = set(data)
        if all(w.images[c] == c + 1 and w.signs[c] == 1 for c in coords):
            continue
        k = len(data)
        if kind == "A":
            if label != Partition((1,) * k):
                return False
        elif kind == "B":
            sign_like = (
                Bipartition(Partition((1,) * k), Partition(())),
                Bipartition(Partition(()), Partition((1,) * k)),
            )
            if label not in sign_like:
                return False
        else:
            if label != DLabel(Partition((1,) * k), Partition(())):
                return False
    return True


def _has_connected_hyperplane(w: SignedPermutation) -> bool:
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


@dataclass(frozen=True)
class GeoEQFamily:
    """A family of the geometric extended quotient: a group element with
    one component of its fixed locus, up to simultaneous conjugation."""

    element: SignedPermutation
    component: TorusCoset

    def __str__(self) -> str:
        return f"(w={self.element.images}/{self.element.signs}, {self.component})"


def geometric_eq(action: MonomialAction):
    """Orbit representatives of pairs (element, component of its fixed
    locus); per element class the families are the centralizer orbits
    on components."""
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
        comps = fixed_locus(rep)
        done = set()
        for c in sorted(comps, key=_coset_key):
            if c in done:
                continue
            orbit = {act_coset(z, c) for z in centralizer}
            done |= orbit
            out.append(GeoEQFamily(rep, min(orbit, key=_coset_key)))
    return out


def irreps(group: RecognizedSubgroup):
    return group.irreps()
