import hashlib
import os
import random
import re
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, combinations_with_replacement, product
from math import factorial, lcm, prod
from operator import mul
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
    bipartitions,
    partitions,
)
from abpscalc import extquot
from abpscalc.extquot import (
    MAX_RANK,
    MINUS_ONE,
    ONE,
    GeoEQFamily,
    MonomialAction,
    RankMismatch,
    RankOutOfRange,
    RecognizedSubgroup,
    SymbolicCoordinate,
    Stratum,
    _canonical_coset,
    _coset_key,
    _flip_generators,
    _signed_cycles,
    _solve_torus,
    act,
    eq_pairs,
    even_sign_action,
    fixed_locus,
    free,
    full_torus,
    geometric_eq,
    hyperoctahedral_action,
    intersect_cosets,
    permutation_action,
    point,
    q_power,
    root_of_unity,
    spectral_eq,
    stabilizer,
    strata,
    trivial_action,
)
from abpscalc.langlands import PadicGroup, line, parse_catalogue
from conftest import signed_matrix

S1 = SignedPermutation((2, 1), (1, 1))
S2 = SignedPermutation((1, 2), (1, -1))
B2 = hyperoctahedral_action(2)
B3 = hyperoctahedral_action(3)


class UnrecognizedStructure(ValueError):
    """A listed group that :func:`recognize_subgroup` does not read as
    the product of its pieces."""


def transposition(n: int, i: int, j: int) -> SignedPermutation:
    """The swap of the coordinates ``i`` and ``j`` (0-based) of rank ``n``."""
    images = list(range(1, n + 1))
    images[i], images[j] = j + 1, i + 1
    return SignedPermutation(images, (1,) * n)


def sign_flip(n: int, coords) -> SignedPermutation:
    """The inversion of the coordinates ``coords`` (0-based) of rank ``n``."""
    return SignedPermutation(range(1, n + 1), [-1 if c in coords else 1 for c in range(n)])


class GeneratedGroup:
    """The group of signed permutations of a rank-``rank`` torus that
    ``generators`` generate: the form of the groups that are no product
    over their coordinate blocks, which the closure, walk and brute-force
    oracles take, and the oracle of the blocks that a
    :class:`MonomialAction` declares.

    :attr:`elements` lists the group on first use, sorted by images,
    then signs, generated breadth first from the identity by left
    multiplication with the generators, about ``order *
    len(generators)`` products."""

    def __init__(self, rank: int, generators=()):
        self.rank = rank
        self.generators = tuple(generators)

    @cached_property
    def elements(self) -> tuple:
        # g * x on (images, signs) tuples: images g[x[i]], signs x[i] g[x[i]],
        # read from the generator's tuples padded for 1-based lookup
        padded = [((0,) + g.images, (0,) + g.signs) for g in self.generators]
        identity = self.identity()
        group = {(identity.images, identity.signs)}
        frontier = list(group)
        while frontier:
            fresh = []
            for images, signs in frontier:
                for g_images, g_signs in padded:
                    y = (tuple(map(g_images.__getitem__, images)),
                         tuple(map(mul, signs, map(g_signs.__getitem__, images))))
                    if y not in group:
                        group.add(y)
                        fresh.append(y)
            frontier = fresh
        return tuple(SignedPermutation.from_valid(*pair) for pair in sorted(group))

    @property
    def order(self) -> int:
        return len(self.elements)

    def identity(self) -> SignedPermutation:
        return SignedPermutation.identity(self.rank)


def generators_of(action):
    """The generators of a :class:`GeneratedGroup`, or the Coxeter
    generators of the blocks of a :class:`MonomialAction`: the swaps of
    consecutive coordinates of each block, with the flip of its first
    coordinate on a ``"B"`` block and of its first two on a ``"D"``
    block."""
    if isinstance(action, GeneratedGroup):
        return action.generators
    n, gens = action.rank, []
    for kind, coords in action.blocks:
        gens += [transposition(n, i, j) for i, j in zip(coords, coords[1:])]
        if kind != "A":
            gens.append(sign_flip(n, coords[:1] if kind == "B" else coords[:2]))
    return gens


def _coordinate_blocks(coords, elements):
    """The orbits on ``coords`` (0-based, ascending, mapped into
    themselves by every element) of the group the ``elements``
    generate: each ascending, in the order of their least coordinates."""
    parent = {c: c for c in coords}

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for w in elements:
        for c in coords:
            parent[find(c)] = find(w.images[c] - 1)
    blocks = {}
    for c in coords:
        blocks.setdefault(find(c), []).append(c)
    return [tuple(block) for block in blocks.values()]


def _is_block_generator(g: SignedPermutation, block_of) -> bool:
    """Whether ``g`` is a transposition (signs +1), the flip of one
    coordinate, the flip of two coordinates in one block (``block_of``
    maps each coordinate to its block), or the identity: the generators
    whose group is always the full product over its coordinate
    blocks."""
    moved = [i for i, (j, s) in enumerate(zip(g.images, g.signs)) if j != i + 1 or s != 1]
    if len(moved) != 2:
        return len(moved) < 2
    i, j = moved
    if g.images[i] == i + 1:  # a flip of i and j
        return block_of[i] == block_of[j]
    return g.images[i] == j + 1 and g.signs[i] == g.signs[j] == 1


def _generator_blocks(rank, gens):
    """The orbits of ``gens`` on the coordinates, as ``(kind, coords)``
    with the coordinates ascending, in the order of their least
    coordinates.  The kind names the full group on the block that
    holds what the generators do there: ``"A"`` (symmetric) when no
    generator inverts a coordinate of it, ``"D"`` (even-signed) when
    every generator inverts an even number of them, ``"B"``
    (hyperoctahedral) otherwise."""
    blocks = []
    for coords in _coordinate_blocks(range(rank), gens):
        flipped = [sum(w.signs[c] == -1 for c in coords) for w in gens]
        kind = "A" if not any(flipped) else "D" if all(f % 2 == 0 for f in flipped) else "B"
        blocks.append((kind, coords))
    return tuple(blocks)


def recognized_action(action):
    """The :class:`MonomialAction` whose blocks are recognized from the
    generators of ``action`` (:func:`generators_of`), when ``action`` is
    the full product over them of symmetric, hyperoctahedral and
    even-signed groups; ``None`` otherwise.

    Generators that are transpositions, single flips and double flips
    inside one block always generate that product, and nothing is
    listed.  Any other group lies in the product of the full groups on
    the orbits of its generators, a block being even-signed when every
    generator inverts an even number of its coordinates (the parity of
    the inverted coordinates of a block is a character), so it is that
    product exactly when its listed order is the product's."""
    gens = generators_of(action)
    blocks = _generator_blocks(action.rank, gens)
    block_of = {c: i for i, (_, coords) in enumerate(blocks) for c in coords}
    declared = MonomialAction(action.rank, blocks)
    if all(_is_block_generator(g, block_of) for g in gens) or declared.order == action.order:
        return declared
    return None


def _one_based(coords) -> str:
    return str(tuple(c + 1 for c in coords))


def _listing(elements) -> str:
    return ", ".join(str(w) for w in elements)


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


def _signed_image(w: SignedPermutation, v):
    """The vector ``w v``: entry ``i`` of ``v`` moves to ``w(i)`` with
    the sign of ``w`` there."""
    out = [0] * len(v)
    for x, i, s in zip(v, w.images, w.signs):
        out[i - 1] = s * x
    return out


def act_coset(w: SignedPermutation, c):
    """The image of the coset ``c`` under ``w``, made canonical through
    ``extquot._canonical_coset``, looked up on the module so that
    ``test_walk_moves_no_coset`` can refuse it."""
    if w.rank != c.rank:
        raise RankMismatch(f"rank {w.rank} element on rank {c.rank} coset")
    L = lcm(*(x.denominator for x in c.translation))
    t = [x.numerator * (L // x.denominator) for x in c.translation]
    rows = [_signed_image(w, row) for row in c.basis]
    return extquot._canonical_coset(c.rank, rows, _signed_image(w, t), L)


def _coset_orbit(action, c):
    """The orbit of ``c``, sorted, reached from ``c`` by the generators."""
    orbit, frontier = {c}, {c}
    while frontier:
        frontier = {act_coset(g, x) for x in frontier for g in generators_of(action)} - orbit
        orbit |= frontier
    return sorted(orbit, key=_coset_key)


def _closure_strata(action):
    """The strata of any action, from the pool of the full torus and
    every fixed locus, closed under intersection: the oracle of the
    coordinate patterns of :func:`strata`, and the only stratification
    of the actions that are not products.

    The pool is W-stable, because ``v Fix(w) = Fix(v w v^-1)``, and so
    is every intersection of its members.  So when ``c1 = v r`` for an
    orbit representative ``r``, the intersection ``c1 & c2 = v (r &
    v^-1 c2)`` is known up to W from representatives alone: each new
    orbit's representative meets the pool, whatever the meeting adds
    joins with its whole orbit, and this repeats until nothing new
    appears.  Two new representatives need to meet only one of the two
    orbits, for the same reason.  Each orbit is represented by its least
    coset whose scanned stabilizer :func:`recognize_subgroup` reads, and
    an orbit with none raises its ``UnrecognizedStructure``.
    """
    n = action.rank
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
                out.append(Stratum(c, base, scanned_stabilizer(action, base)))
                break
            except UnrecognizedStructure as exc:
                last = exc
        else:
            raise last
    return out


def any_strata(action):
    """The strata of a product action, or the closure of any other."""
    declared = recognized_action(action)
    return _closure_strata(action) if declared is None else strata(declared)


def brute_force_geometric_eq(action):
    """The geometric extended quotient from every element conjugated by
    every element, each centralizer scanned from all elements and the
    components moved by ``act_coset``: the oracle of
    :func:`walked_geometric_eq` on every action, and of
    :func:`geometric_eq` on the products it answers."""
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


def _conjugate(g, ginv, x):
    """``g x g^-1`` on ``(images, signs)`` tuples, with ``g`` padded for
    1-based lookup and ``ginv[k]`` the coordinate ``g`` sends to ``k``:
    coordinate ``g(i)`` goes to ``g(x(i))`` with the signs of ``g^-1``,
    ``x`` and ``g`` picked up on the way."""
    g_images, g_signs = g
    images, signs = x
    return (tuple(g_images[images[i]] for i in ginv),
            tuple(g_signs[i + 1] * signs[i] * g_signs[images[i]] for i in ginv))


def walked_geometric_eq(action):
    """The geometric extended quotient of any action, its classes and
    centralizers found from the generators: the oracle of
    :func:`geometric_eq` up to rank 6.  Like the brute force, it also
    answers an action that is no product over its coordinate blocks.

    Each class is reached breadth first from its least element ``w``
    (the first of :attr:`MonomialAction.elements` not yet seen) by
    conjugating with the generators, keeping the transversal ``T[x]``
    (``x = T[x] w T[x]^-1``) as the image under ``T[x]`` of each cycle
    of ``w``.  The Schreier generators ``T[y]^-1 g T[x]``, for ``y = g x
    g^-1``, generate the centralizer of ``w``, and a centralizer element
    moves the components of its fixed locus by permuting the cycles
    whose signs multiply to -1.  So the families of ``w`` are the orbits
    of picks of 0 or 1/2 on those cycles under the Schreier generators'
    cycle permutations, each with the least component of its orbit, in
    the order of those components.  About ``order * len(generators)``
    conjugations in all: W(B6) takes about 1 s."""
    n = action.rank
    gens = []
    for g in generators_of(action):
        ginv = [0] * n
        for i, j in enumerate(g.images):
            ginv[j - 1] = i
        gens.append((((0,) + g.images, (0,) + g.signs), ginv))
    seen = set()
    out = []
    for w in action.elements:
        x = (w.images, w.signs)
        if x in seen:
            continue
        _, negative = _signed_cycles(w)
        label = [-1] * n
        for j, cycle in enumerate(negative):
            for c, _ in cycle:
                label[c] = j
        # labels[x][k]: the index of the cycle of w (-1 past the
        # negative ones) that T[x] carries onto coordinate k; this is all
        # of the transversal that the cycle permutations need
        labels = {x: tuple(label)}
        moves = set()
        frontier = [x]
        while frontier:
            fresh = []
            for u in frontier:
                lu = labels[u]
                for g, ginv in gens:
                    y = _conjugate(g, ginv, u)
                    ly = tuple(lu[i] for i in ginv)
                    if y not in labels:
                        labels[y] = ly
                        fresh.append(y)
                    elif labels[y] != ly:
                        # T[y]^-1 g T[u] sends cycle a of w to cycle b,
                        # and with it the pick on a to b
                        move = [0] * len(negative)
                        for a, b in zip(ly, labels[y]):
                            if a >= 0:
                                move[b] = a
                        moves.add(tuple(move))
            frontier = fresh
        seen.update(labels)
        firsts = [cycle[0][0] for cycle in negative]
        done = set()
        for c in fixed_locus(w):
            pick = tuple(c.translation[f] for f in firsts)
            if pick in done:
                continue
            orbit, frontier = {pick}, {pick}
            while frontier:
                frontier = {tuple(map(p.__getitem__, m)) for p in frontier for m in moves} - orbit
                orbit |= frontier
            done |= orbit
            out.append(GeoEQFamily(w, c))
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
        if kind == "BB":
            # the swap lies on the 1 side or on the -1 side; the label of
            # a character is its orbit's least pair of bipartitions
            side = 0 if any(w.images[c] != c + 1 for c in data[0]) else 1
            kind, data, label = "B", data[side], label[0][side]
        elif kind == "tA":
            kind, data = "A", data[0]
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


@pytest.fixture
def listed(monkeypatch):
    """The ``(images, signs)`` of every ``SignedPermutation.from_valid``
    call while the test runs: every group element listed."""
    calls = []
    real = SignedPermutation.from_valid.__func__

    def counted(cls, images, signs):
        calls.append((images, signs))
        return real(cls, images, signs)

    monkeypatch.setattr(SignedPermutation, "from_valid", classmethod(counted))
    return calls


# the sign flips of an even number of coordinates of a rank-3 torus
KLEIN_FOUR = GeneratedGroup(3, [sign_flip(3, (1, 2)), sign_flip(3, (0, 2))])
# W(B1) x W(B2) cut down to its even flips by flips across the blocks:
# no product of full groups on its generator orbits
COUPLED = GeneratedGroup(3, [transposition(3, 1, 2), sign_flip(3, (0, 1)), sign_flip(3, (1, 2))])
# the swap of coordinates 1, 2 with the flip of 3: a twisted diagonal of
# order 2, no product of groups on its coordinate blocks
SWAP_WITH_FLIP = GeneratedGroup(3, [SignedPermutation((2, 1, 3), (1, 1, -1))])
# W(D2) on coordinates 1, 2 times W(B2) on 3, 4, and W(D3) on 1, 3, 5 times
# S2 on 2, 4: products with an even-signed block
D2_B2 = MonomialAction(4, [("D", (0, 1)), ("B", (2, 3))])
D3_S2_INTERLEAVED = MonomialAction(5, [("D", (0, 2, 4)), ("A", (1, 3))])
EVEN_SIGN_ACTIONS = [(f"D{n}", even_sign_action(n)) for n in (2, 3, 4)] + [
    ("D2xB2", D2_B2), ("D3xS2_interleaved", D3_S2_INTERLEAVED)]


def scanned(action, t):
    """The elements of the action that fix ``t``, by ``act`` on each."""
    return tuple(w for w in action.elements if act(w, t) == t)


def _restrict(w: SignedPermutation, coords):
    """``w`` on the coordinates ``coords`` (0-based), which it maps into
    themselves, as images (1-based positions in ``coords``) and signs."""
    pos = {c: i for i, c in enumerate(coords)}
    images = tuple(pos[w.images[c] - 1] + 1 for c in coords)
    signs = tuple(w.signs[c] for c in coords)
    return images, signs


def recognize_subgroup(elements, rank: int) -> RecognizedSubgroup:
    """The structure of the listed group ``elements``, read off the
    elements alone: the oracle of :func:`stabilizer`, which reads it off
    coordinate patterns.

    Each orbit of the group on the coordinates it moves is an ``A``,
    ``B`` or ``D`` piece when the group restricted to it has the order
    and the sign condition of that full group there; the orbits on which
    it only flips signs give one ``E2`` piece, generated by its diagonal
    flips, and none when it has no diagonal flip.  A restriction that is
    none of those, or a group that is not the product of its pieces,
    raises ``UnrecognizedStructure``.  So it never answers for ``BB`` or
    ``tA`` pieces, whose restrictions are none of those groups."""
    elems = tuple(sorted(set(elements), key=lambda w: (w.images, w.signs)))
    moved = [c for c in range(rank)
             if any(w.images[c] != c + 1 or w.signs[c] != 1 for w in elems)]
    pieces, diag_coords = [], []
    blocks = _coordinate_blocks(moved, elems)
    for block in blocks:
        restricted = {_restrict(w, block) for w in elems}
        k = len(block)
        if all(im == tuple(range(1, k + 1)) for im, _ in restricted):
            diag_coords.extend(block)
            continue
        # the restriction is a subgroup of W(B_k): it is S_k, W(B_k) or
        # W(D_k) exactly when it has that group's order and sign condition
        order, negatives = len(restricted), [s.count(-1) for _, s in restricted]
        if order == factorial(k) and not any(negatives):
            pieces.append(("A", block))
        elif order == 2 ** k * factorial(k):
            pieces.append(("B", block))
        elif order == 2 ** (k - 1) * factorial(k) and all(n % 2 == 0 for n in negatives):
            pieces.append(("D", block))
        else:
            raise UnrecognizedStructure(
                f"unrecognized block of order {order} on coordinates "
                f"{_one_based(block)} of a subgroup of order {len(elems)}: {_listing(elems)}")
    gens = _flip_generators({
        tuple(c for c in diag_coords if w.signs[c] == -1)
        for w in elems if w.images == tuple(range(1, rank + 1))})
    if gens:
        pieces.append(("E2", gens))
    group = RecognizedSubgroup(rank, tuple(pieces))
    if group.elements != elems:
        raise UnrecognizedStructure(
            f"subgroup of order {len(elems)} is not the product of its "
            f"coordinate blocks {', '.join(_one_based(b) for b in blocks)}: {_listing(elems)}")
    return group


def scanned_stabilizer(action, t) -> RecognizedSubgroup:
    """The stabilizer of ``t`` scanned from the elements of the action
    and recognized from them alone: the oracle of :func:`stabilizer`."""
    return recognize_subgroup(scanned(action, t), action.rank)


def unconjugated(elements):
    """Whether the group ``elements`` holds the permutation part of each
    of its elements: true for products of symmetric groups of classes,
    diagonal flips and signed groups of fixed coordinates, false once a
    class has inverted members, whose swaps come with two signs."""
    group = set(elements)
    return all(SignedPermutation(w.images, (1,) * w.rank) in group for w in group)


def conjugacy_class_count(elements):
    """The number of conjugacy classes of the group ``elements``, by
    conjugating every element by every element."""
    left = set(elements)
    count = 0
    while left:
        x = left.pop()
        left -= {g * x * g.inverse() for g in elements}
        count += 1
    return count


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


def stock_generators(n):
    """The stock actions of rank ``n``, each with its Coxeter
    generators: the adjacent transpositions, with the flip of coordinate
    1 for W(B_n) and of coordinates 1 and 2 for W(D_n)."""
    swaps = [transposition(n, i, i + 1) for i in range(n - 1)]
    return [
        (hyperoctahedral_action(n), swaps + [sign_flip(n, (0,))] * (n > 0)),
        (even_sign_action(n), swaps + [sign_flip(n, (0, 1))] * (n > 1)),
        (permutation_action(n), swaps),
        (trivial_action(n), []),
    ]


def reflection_generators(n):
    """The identity, the flip of each coordinate and the transposition
    (signs +1) of each pair of coordinates of rank ``n``: the generators
    whose group is the full product over its coordinate blocks."""
    return ([SignedPermutation.identity(n)] + [sign_flip(n, (i,)) for i in range(n)]
            + [transposition(n, i, j) for i, j in combinations(range(n), 2)])


@st.composite
def element_lists(draw):
    """Lists of elements of B2 or B3: random subsets, lists of
    transpositions and single flips, subgroups generated by two
    elements, and such subgroups with one element put in or taken out."""
    pool = draw(st.sampled_from([B2.elements, B3.elements]))
    kind = draw(st.sampled_from(["subset", "reflections", "subgroup"]))
    if kind == "subset":
        return draw(st.lists(st.sampled_from(pool), min_size=1, unique=True))
    if kind == "reflections":
        return draw(st.lists(st.sampled_from(reflection_generators(pool[0].rank)), min_size=1))
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

    @pytest.mark.parametrize("n", range(MAX_RANK + 1))
    def test_full_torus_from_patterns_is_canonical(self, n):
        # one generic class per coordinate is already the Hermite form
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        assert full_torus(n) == _canonical_coset(n, rows, [0] * n)


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


def hermite_member(c, p):
    """Torsion membership read off the Hermite equations of the coset,
    ``E x = E t (mod Z)`` (:attr:`TorusCoset.equations`), summed with
    ``Fraction``: the oracle of the membership that
    :meth:`TorusCoset.contains_torsion` reads off a pattern."""
    x = [Fraction(v) for v in p]
    E, rhs = c.equations
    return all((sum(map(mul, row, x)) - b).denominator == 1 for row, b in zip(E, rhs))


def _presented(rng, value):
    """``value`` as a ``Fraction``, or, where that is exact, as an
    ``int`` or a ``float``."""
    forms = [value]
    if value.denominator == 1:
        forms.append(int(value))
    if value.denominator & (value.denominator - 1) == 0:
        forms.append(float(value))
    return rng.choice(forms)


def seeded_points(c, rng, count=2):
    """Points for the coset ``c``: ``count`` on it (these first),
    ``count`` with one coordinate of such a point moved, and ``count``
    anywhere.  Every coordinate is moved by an integer in [-2, 2], so
    numerators are often negative and values often 1 or more, and is
    given as an ``int``, a ``float`` or a ``Fraction``."""
    def fraction():
        return Fraction(rng.randrange(-24, 25), rng.choice((1, 2, 3, 4, 6, 8, 12)))

    on = []
    for _ in range(count):
        lams = [fraction() for _ in c.basis]
        on.append([t + sum(l * b[j] for l, b in zip(lams, c.basis))
                   for j, t in enumerate(c.translation)])
    moved = [list(v) for v in on]
    for v in moved:
        if v:
            v[rng.randrange(len(v))] += fraction()
    anywhere = [[fraction() for _ in range(c.rank)] for _ in range(count)]
    return [tuple(_presented(rng, x + rng.randrange(-2, 3)) for x in v)
            for v in on + moved + anywhere]


def stock_stratum_cosets():
    """The coset of every stratum of the stock actions of ranks 0 to
    :data:`MAX_RANK`."""
    cosets = set()
    for n in range(MAX_RANK + 1):
        for action, _ in stock_generators(n):
            cosets.update(st.coset for st in strata(action))
    return sorted(cosets, key=lambda c: (c.rank, c.dimension, c.basis, c.translation))


class TestPatternMembership:
    """``contains_torsion`` reads a pattern coset's membership off its
    pattern; the Hermite equations are the oracle."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_fixed_loci_agree_with_the_hermite_equations(self, n):
        # every coset in a fixed locus of W(B_n); 3,840 elements for B5
        rng = random.Random(n)
        cosets = {c for w in hyperoctahedral_action(n).elements for c in fixed_locus(w)}
        for c in sorted(cosets, key=_coset_key):
            assert c._torsion_plan[2] is None, str(c)
            points = seeded_points(c, rng)
            assert all(c.contains_torsion(p) for p in points[:2]), str(c)
            for p in points:
                assert c.contains_torsion(p) == hermite_member(c, p), (str(c), p)

    def test_stock_strata_agree_with_the_hermite_equations(self):
        rng = random.Random(6)
        cosets = stock_stratum_cosets()
        assert len(cosets) > 100
        for c in cosets:
            assert c._torsion_plan[2] is None, str(c)
            points = seeded_points(c, rng, count=4)
            assert all(c.contains_torsion(p) for p in points[:4]), str(c)
            for p in points:
                assert c.contains_torsion(p) == hermite_member(c, p), (str(c), p)

    @pytest.mark.parametrize("A, b, basis, translation", [
        # an entry 2, on the pivot or off it: not a pattern
        ([[1, -2]], [0], ((2, 1),), (0, 0)),
        ([[2, -1]], [0], ((1, 2),), (0, 0)),
        # pattern-shaped, but the translation 1/2 lies on the row
        ([[1, -1]], [Fraction(1, 2)], ((1, 1),), (0, Fraction(1, 2))),
        # entries +-1 and pivots 1, but two rows meet on coordinate 3
        ([[1, 1, -1]], [0], ((1, 0, 1), (0, 1, 1)), (0, 0, 0)),
    ], ids=["pivot-two", "entry-two", "translated-row", "overlapping-rows"])
    def test_other_cosets_keep_the_hermite_equations(self, A, b, basis, translation):
        [c] = _solve_torus(A, b, len(basis[0]))
        assert (c.basis, c.translation) == (basis, translation)
        fixed, ties, general = c._torsion_plan
        assert (fixed, ties) == ((), ()) and general is not None
        rng = random.Random(2)
        grid = product([Fraction(k, 4) for k in range(4)], repeat=c.rank)
        points = [*grid, *(p for _ in range(8) for p in seeded_points(c, rng))]
        members = 0
        for p in points:
            member = c.contains_torsion(p)
            assert member == hermite_member(c, p) == in_coset_by_definition(c, p), p
            members += member
        assert 0 < members < len(points)


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
        # the two breadth-first closures agree, and where the blocks are
        # recognized, the declared action lists the same group
        group = GeneratedGroup(gens[0].rank, gens)
        assert group.elements == tuple(sorted(generated(gens), key=lambda w: (w.images, w.signs)))
        assert closed_by_brute_force(group.elements)
        declared = recognized_action(group)
        if declared is not None:
            assert declared.elements == group.elements and declared.order == group.order

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 5).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.sampled_from(reflection_generators(n))))))
    def test_reflection_generators_give_their_blocks(self, case):
        # the blocks recognized from reflection generators declare an
        # action whose order and elements are the breadth-first closure's
        n, gens = case
        want = generated(gens or [SignedPermutation.identity(n)])
        action = recognized_action(GeneratedGroup(n, gens))
        assert action is not None and action.order == len(want)
        assert action.elements == tuple(sorted(want, key=lambda w: (w.images, w.signs)))
        # with an element of most signs added, the group is the same; when
        # that element is no such generator, the group is listed and its
        # order confirms the same blocks
        most = max(want, key=lambda w: (w.signs.count(-1), w.images))
        extended = recognized_action(GeneratedGroup(n, gens + [most]))
        assert extended == action and hash(extended) == hash(action)

    def test_product_orders_list_no_element(self, listed):
        b8 = hyperoctahedral_action(8)
        G = PadicGroup("Sp", 16)
        inertial = _inertial_action(inertial_triple(G, (line("zeta"),) * 5 + (line("eta"),) * 3))
        assert b8.order == 2 ** 8 * factorial(8)
        assert inertial.order == 2 ** 5 * factorial(5) * 2 ** 3 * factorial(3)
        assert b8.blocks == (("B", tuple(range(8))),)
        assert inertial.blocks == (("B", (0, 1, 2, 3, 4)), ("B", (5, 6, 7)))
        assert recognized_action(b8) == b8 and recognized_action(inertial) == inertial
        reordered = MonomialAction(8, [("B", reversed(range(8)))])
        assert b8 == reordered and hash(b8) == hash(reordered)
        assert b8 != inertial
        assert listed == []

    def test_rejects_a_coordinate_outside_the_rank(self):
        with pytest.raises(ValueError):
            MonomialAction(1, [("A", (0, 1))])
        with pytest.raises(ValueError):
            MonomialAction(2, [("B", (-1, 0))])

    def test_a_coordinate_outside_the_rank_is_a_rank_mismatch(self):
        with pytest.raises(RankMismatch, match=re.escape(
                "outside range(2) in the blocks [('B', (1, 2))] of a rank 2 action")):
            MonomialAction(2, [("B", (1, 2))])

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_even_sign_blocks_are_read_off_the_generators(self, n, listed):
        # the Coxeter generators of W(D_n), swaps and the double flip of
        # coordinates 1 and 2, are recognized as the declared block
        action = even_sign_action(n)
        gens = [transposition(n, i, i + 1) for i in range(n - 1)] + [sign_flip(n, (0, 1))]
        assert action.blocks == (("D", tuple(range(n))),)
        assert recognized_action(GeneratedGroup(n, gens)) == action
        assert action.order == 2 ** (n - 1) * factorial(n) and listed == []

    def test_even_sign_blocks_of_other_generators_come_from_the_order(self):
        # the swap of coordinates 1, 2 and that swap with both inverted
        # generate W(D2); a double flip across two blocks is no
        # reflection generator, and each block stays hyperoctahedral
        signed_swap = SignedPermutation((2, 1, 3), (-1, -1, 1))
        group = GeneratedGroup(3, [transposition(3, 0, 1), signed_swap, sign_flip(3, (2,))])
        assert recognized_action(group).blocks == (("D", (0, 1)), ("B", (2,)))
        across = GeneratedGroup(2, [sign_flip(2, (0,)), sign_flip(2, (0, 1))])
        assert recognized_action(across).blocks == (("B", (0,)), ("B", (1,)))

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
        for action, gens in stock_generators(n):
            assert generated(gens or [action.identity()]) == set(action.elements)

    @pytest.mark.parametrize("n", range(MAX_RANK + 1))
    def test_declared_actions_are_the_recognized_ones(self, n, listed):
        # each stock action equals the action recognized from its
        # Coxeter generators, read off them with no element listed
        for action, gens in stock_generators(n):
            recognized = recognized_action(GeneratedGroup(n, gens))
            assert recognized == action and hash(recognized) == hash(action)
        assert listed == []

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


class TestDeclaredBlocks:
    """``MonomialAction(rank, blocks)`` checks its blocks and keeps them
    in one canonical form, whatever order they are declared in."""

    @pytest.mark.parametrize("kind", ["C", "E2", "a", None])
    def test_rejects_another_kind(self, kind):
        with pytest.raises(ValueError, match=re.escape(
                f"kind {kind!r} is not A, B or D in the blocks [('B', (0,)), ({kind!r}, (1, 2))] "
                "of a rank 3 action")):
            MonomialAction(3, [("B", (0,)), (kind, (2, 1))])

    @pytest.mark.parametrize("blocks", [
        [("A", (0, 1)), ("B", (1, 2))], [("B", (2, 0, 2))], [("D", (0, 2)), ("A", (2,))],
    ], ids=["across", "within", "singleton"])
    def test_rejects_overlapping_blocks(self, blocks):
        named = [(kind, tuple(sorted(coords))) for kind, coords in blocks]
        with pytest.raises(ValueError, match=re.escape(
                f"overlapping coordinates in the blocks {named} of a rank 3 action")) as exc:
            MonomialAction(3, blocks)
        assert not isinstance(exc.value, RankMismatch)

    def test_canonical_form(self):
        # blocks sorted by least coordinate, each ascending, uncovered
        # coordinates as A blocks of their own, a D block on one
        # coordinate read as A, and an empty block dropped
        action = MonomialAction(5, [("B", (4, 1)), ("D", (2,)), ("A", ())])
        assert action.blocks == (("A", (0,)), ("B", (1, 4)), ("A", (2,)), ("A", (3,)))
        assert action.order == 8

    def test_small_even_sign_groups_are_trivial(self):
        for n in (0, 1):
            assert even_sign_action(n) == permutation_action(n) == trivial_action(n)
            assert hash(even_sign_action(n)) == hash(trivial_action(n))
        assert even_sign_action(2) != permutation_action(2) != trivial_action(2)
        assert hyperoctahedral_action(1) != trivial_action(1)
        assert trivial_action(2) != trivial_action(3)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_declared_order_is_irrelevant(self, data):
        # the blocks in any order, each in any order, with the lone A
        # blocks left out, declare the equal action with the equal hash
        _, blocks = data.draw(block_products())
        n = sum(len(coords) for _, coords in blocks)
        shuffled = [(kind, data.draw(st.permutations(coords)))
                    for kind, coords in data.draw(st.permutations(blocks))
                    if kind != "A" or len(coords) > 1]
        want, got = MonomialAction(n, blocks), MonomialAction(n, shuffled)
        assert got == want and hash(got) == hash(want)
        assert got.blocks == blocks


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

    def test_rank_bound_is_named(self):
        rank = MAX_RANK + 1
        with pytest.raises(RankOutOfRange, match=f"ranks 0 to {MAX_RANK}, not {rank}") as exc:
            strata(even_sign_action(rank))
        assert isinstance(exc.value, ValueError) and exc.value.rank == rank

    @pytest.mark.parametrize("build", [
        MonomialAction, full_torus, hyperoctahedral_action, even_sign_action,
        permutation_action, trivial_action])
    @pytest.mark.parametrize("rank", [-1, -2])
    def test_negative_rank_is_named(self, build, rank):
        # no action or torus of negative rank exists, so nothing
        # downstream (spectral_eq, strata) ever sees one
        with pytest.raises(RankOutOfRange, match=f"ranks 0 to {MAX_RANK}, not {rank}$") as exc:
            build(rank)
        assert exc.value.rank == rank

    def test_closure_adds_intersections_of_fixed_loci(self):
        # each sign flip fixes four lines; lines of two flips meet in the
        # points (+-1, +-1, +-1), which no single fixed locus contains
        # as a component
        flips = [SignedPermutation((1, 2, 3), s)
                 for s in [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]]
        pool = {c for w in flips for c in fixed_locus(w)}
        assert len(pool) == 13
        # not a product of groups on coordinate blocks: the closure oracle
        # stratifies it
        action = GeneratedGroup(3, flips)
        assert recognized_action(action) is None
        sts = _closure_strata(action)
        assert len(sts) == 21
        points = [s for s in sts if s.dimension == 0]
        assert {s.base for s in points} == {point(*p) for p in product((1, -1), repeat=3)}
        assert {s.group.structure() for s in points} == {"Z/2 x Z/2"}
        assert not pool & {s.coset for s in points}

    @pytest.mark.parametrize("n, count", [(2, 7), (3, 14)])
    def test_hyperoctahedral_counts(self, n, count):
        assert len(strata(hyperoctahedral_action(n))) == count

    @pytest.mark.parametrize("action", [B2, B3, KLEIN_FOUR] + [a for _, a in EVEN_SIGN_ACTIONS],
                             ids=["B2", "B3", "klein_four"] + [n for n, _ in EVEN_SIGN_ACTIONS])
    def test_orbits_of_strata_are_the_closure_pool(self, action):
        # strata() reads the pool off coordinate patterns and the closure
        # oracle closes it from orbit representatives only; closure_pool
        # intersects every pair.  The orbits of the strata partition the pool
        orbits = [{act_coset(w, s.coset) for w in action.elements} for s in any_strata(action)]
        assert set().union(*orbits) == set(closure_pool(action))
        assert sum(map(len, orbits)) == len(closure_pool(action))

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

    @pytest.mark.parametrize("action", [
        KLEIN_FOUR, SWAP_WITH_FLIP, COUPLED,
    ], ids=["klein_four", "swap_with_flip", "coupled"])
    def test_other_actions_are_not_products(self, action):
        assert recognized_action(action) is None


class TestStrataMemo:
    """Pattern strata are stratified once per rank and coordinate blocks."""

    def test_equal_actions_get_equal_strata(self):
        a = hyperoctahedral_action(3)
        b = MonomialAction(3, [("B", (2, 0, 1))])
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
DIAGONAL_V4 = MonomialAction(2, [("B", (0,)), ("B", (1,))])
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
] + INERTIAL_ACTIONS + EVEN_SIGN_ACTIONS


@pytest.mark.parametrize("name, action", CONNECTIVITY_ACTIONS, ids=[n for n, _ in CONNECTIVITY_ACTIONS])
def test_families_read_connectivity_from_the_stabilizer_pieces(name, action):
    # on a positive-dimensional stratum with a nontrivial stabilizer the
    # families are "special" exactly when the fixed torus is disconnected
    for st in strata(action):
        if st.dimension == 0 or st.group.order == 1:
            continue
        special = {f.kind == "special" for f in st.families()}
        assert special == {not _fixed_torus_is_connected(st.group, action.rank)}, str(st)


PATTERN_ACTIONS = (
    [(f"B{n}", hyperoctahedral_action(n)) for n in range(1, 5)]
    + [(f"S{n}", permutation_action(n)) for n in range(1, 5)]
    + [(f"T{n}", trivial_action(n)) for n in range(1, 4)]
    + INERTIAL_ACTIONS
    + [
        ("B2xB1", MonomialAction(3, [("B", (0, 1)), ("B", (2,))])),
        ("S2xB1", MonomialAction(3, [("A", (0, 1)), ("B", (2,))])),
        ("B1^3", MonomialAction(3, [("B", (0,)), ("B", (1,)), ("B", (2,))])),
        # blocks that interleave: B2 on coordinates 1, 3 and S2 on 2, 4
        ("B2xS2_interleaved", MonomialAction(4, [("B", (0, 2)), ("A", (1, 3))])),
    ]
)


@pytest.mark.parametrize("name, action", PATTERN_ACTIONS, ids=[n for n, _ in PATTERN_ACTIONS])
def test_patterns_agree_with_the_closure(name, action):
    # the closure is the oracle: same strata in the same order, with the
    # same coset, base point, stabilizer elements and pieces
    assert recognized_action(action) == action
    got, want = strata(action), _closure_strata(action)
    assert [(s.coset, s.base, s.group.elements, s.group.pieces) for s in got] == \
        [(s.coset, s.base, s.group.elements, s.group.pieces) for s in want]


@dataclass(frozen=True)
class DataclassSubgroup:
    """The frozen dataclass of ``elements`` and ``pieces`` that
    :class:`RecognizedSubgroup` was, named as it: the oracle of its
    ``repr``, which the benchmark's digests pin."""

    elements: tuple
    pieces: tuple


DataclassSubgroup.__qualname__ = "RecognizedSubgroup"


@pytest.mark.parametrize("name, action", PATTERN_ACTIONS, ids=[n for n, _ in PATTERN_ACTIONS])
def test_pattern_groups_are_their_stabilizers(name, action):
    # each stratum's group, read off its coordinate pattern and listed
    # from its pieces, lists the elements that the scan of the action
    # finds fixing its base; where no piece is BB or tA, the oracle
    # recognizes the scan, and the group has the oracle's pieces,
    # equality, hash and repr, which is that of a frozen dataclass
    # of the elements and pieces
    for st in strata(action):
        H, want = st.group, scanned(action, st.base)
        assert H.order == len(want) and H.elements == want, str(st)
        if {"BB", "tA"} & {kind for kind, _ in H.pieces}:
            continue
        oracle = scanned_stabilizer(action, st.base)
        assert H.pieces == oracle.pieces, str(st)
        assert H == oracle and hash(H) == hash(oracle)
        assert repr(H) == repr(oracle) == repr(DataclassSubgroup(want, H.pieces))


def test_pattern_strata_list_no_element(listed):
    extquot._pattern_strata.cache_clear()
    action = hyperoctahedral_action(5)
    sts = strata(action)
    assert len(sts) == 45 and max(st.group.order for st in sts) == action.order
    assert len(spectral_eq(action)) > 0 and listed == []


# spectral_eq and eq_pairs of W(D2) and W(D3), rendered as the torus
# benchmark renders them (one line per result), pinned by their count and
# their digest in the benchmark's form (the first 16 hex digits of the
# sha256 of the text).  perfbench/expected.json still books these four
# items as failing, so the benchmark compares nothing for them
EVEN_SIGN_RENDERINGS = [
    ("spectral_eq", 2, 9, "98d3d9e14c76be6b"),
    ("eq_pairs", 2, 15, "c14806528b9cba1b"),
    ("spectral_eq", 3, 22, "fc106187cccb05e0"),
    ("eq_pairs", 3, 36, "db551a0d7803fccb"),
]


@pytest.mark.parametrize("fn, n, count, digest", EVEN_SIGN_RENDERINGS,
                         ids=[f"{fn}-D{n}" for fn, n, _, _ in EVEN_SIGN_RENDERINGS])
def test_even_sign_renderings_are_pinned(fn, n, count, digest):
    result = getattr(extquot, fn)(even_sign_action(n))
    text = "\n".join(str(x) for x in result)
    assert (len(result), hashlib.sha256(text.encode()).hexdigest()[:16]) == (count, digest)


class TestEvenSignStrata:
    """Strata of W(D_n) and of products with an even-signed block, from
    coordinate patterns, against oracles that scan elements and cosets."""

    @pytest.mark.parametrize("n, count", [(2, 6), (3, 10), (4, 22), (5, 35)])
    def test_counts(self, n, count):
        assert len(strata(even_sign_action(n))) == count

    def test_rank_six_lists_no_element(self, listed):
        extquot._pattern_strata.cache_clear()
        action = even_sign_action(MAX_RANK)
        sts = strata(action)
        assert len(sts) == 64 and max(st.group.order for st in sts) == action.order
        assert len(spectral_eq(action)) > 0 and listed == []

    def test_d3_inventory(self):
        assert [str(st) for st in strata(even_sign_action(3))] == [
            "(z, z', z'') : 1", "(z, z', z') : S2", "(1, 1, z) : D2", "(1, -1, z) : Z/2",
            "(-1, -1, z) : D2", "(z, z, z) : S3", "(1, 1, 1) : D3", "(1, 1, -1) : S(B2xB1)",
            "(1, -1, -1) : S(B1xB2)", "(-1, -1, -1) : D3"]

    def test_split_twins(self):
        # (z, z) and (z, 1/z) lie in one W(B2) orbit but in two W(D2)
        # orbits; no coset of the second has an unconjugated stabilizer
        sts = strata(even_sign_action(2))
        assert [str(st) for st in sts[1:3]] == ["(z, z^-1) : S2~", "(z, z) : S2"]
        twin = sts[1]
        assert twin.group.pieces == (("tA", ((0, 1), (1,))),)
        assert twin.group.elements == (SignedPermutation((1, 2), (1, 1)),
                                       SignedPermutation((2, 1), (-1, -1)))
        assert [(f.irrep, f.kind) for f in twin.families()] == \
            [(Partition((2,)), "sheet"), (Partition((1, 1)), "plane_generic")]

    @pytest.mark.parametrize("name, action", EVEN_SIGN_ACTIONS, ids=[n for n, _ in EVEN_SIGN_ACTIONS])
    def test_representatives_are_least_unconjugated_cosets(self, name, action):
        # each representative is the least coset of its orbit whose
        # scanned stabilizer is unconjugated, or the least coset when
        # there is none; the strata come in the order of their orbits'
        # least cosets
        keys = []
        for st in strata(action):
            orbit = sorted({act_coset(w, st.coset) for w in action.elements}, key=_coset_key)
            good = [c for c in orbit if unconjugated(scanned(action, c.generic_point()))]
            assert st.coset == (good or orbit)[0], str(st)
            assert st.base == st.coset.generic_point()
            keys.append(_coset_key(orbit[0]))
        assert keys == sorted(keys)

    @pytest.mark.parametrize("name, action", EVEN_SIGN_ACTIONS + [("D5", even_sign_action(5))],
                             ids=[n for n, _ in EVEN_SIGN_ACTIONS] + ["D5"])
    def test_stabilizers_are_their_element_scans(self, name, action):
        for st in strata(action):
            want = tuple(sorted(scanned(action, st.base), key=lambda w: (w.images, w.signs)))
            assert st.group.order == len(want)
            assert st.group.elements == want, str(st)
            if not {"BB", "tA"} & {kind for kind, _ in st.group.pieces}:
                assert st.group.pieces == recognize_subgroup(want, action.rank).pieces

    @pytest.mark.parametrize("name, action", EVEN_SIGN_ACTIONS, ids=[n for n, _ in EVEN_SIGN_ACTIONS])
    def test_one_irrep_per_conjugacy_class(self, name, action):
        for st in strata(action):
            labels = st.group.irreps()
            assert len(labels) == len(set(labels)) == conjugacy_class_count(st.group.elements)

    def test_coupled_pair_labels(self):
        # S(B2 x B1) is dihedral of order 8: four free orbits of
        # bipartition pairs and no fixed one; S(B1 x B1) is the flip of
        # both coordinates, and S(B2 x B2) has one fixed pair
        pair = RecognizedSubgroup(3, (("BB", ((0, 1), (2,))),))
        assert pair.order == 8 and pair.structure() == "S(B2xB1)"
        assert pair.irreps() == [
            ((bp((1,), (1,)), bp((), (1,))), None), ((bp((), (2,)), bp((1,), ())), None),
            ((bp((), (2,)), bp((), (1,))), None), ((bp((), (1, 1)), bp((1,), ())), None),
            ((bp((), (1, 1)), bp((), (1,))), None)]
        square = RecognizedSubgroup(4, (("BB", ((0, 1), (2, 3))),))
        fixed = [label for label in square.irreps() if label[1] is not None]
        assert fixed == [((bp((1,), (1,)), bp((1,), (1,))), 0),
                         ((bp((1,), (1,)), bp((1,), (1,))), 1)]


Z = free("z")
# coordinate values for stabilizer points: 1, -1, +-i, a cube root of
# unity, z and its inverse, another free w, and q^{+-1/2}
STABILIZER_VALUES = (ONE, MINUS_ONE, root_of_unity(Fraction(1, 4)), root_of_unity(Fraction(3, 4)),
                     root_of_unity(Fraction(1, 3)), Z, Z.inverse(), free("w"), q_power(1), q_power(-1))
# the inertial action of Sp10 on (zeta, eta, zeta, 1): W(B2) on
# coordinates 1, 3 between single flips of 2 and of 4
SP10_INTERLEAVED = _inertial_action(inertial_triple(
    PadicGroup("Sp", 10), tuple(line(n) for n in ("zeta", "eta", "zeta", "1"))))
# every point over STABILIZER_VALUES is checked on these
NARROW_STABILIZER_ACTIONS = (
    [(f"B{n}", hyperoctahedral_action(n)) for n in range(4)]
    + [(f"D{n}", even_sign_action(n)) for n in (2, 3)]
    + [(f"S{n}", permutation_action(n)) for n in (1, 2, 3)]
    + [("T3", trivial_action(3))]
)
# points drawn from a few of STABILIZER_VALUES are checked on these
WIDE_STABILIZER_ACTIONS = [
    ("B4", hyperoctahedral_action(4)), ("D4", even_sign_action(4)), ("S4", permutation_action(4)),
    ("Sp10_interleaved", SP10_INTERLEAVED), ("D2xB2", D2_B2),
    ("D3xS2_interleaved", D3_S2_INTERLEAVED),
    ("B2xS2_interleaved", MonomialAction(4, [("B", (0, 2)), ("A", (1, 3))])),
]


def assert_stabilizer_is_the_scan(action, t):
    """The stabilizer read off the pattern of ``t`` lists the scanned
    elements; where the oracle recognizes them, it has the oracle's
    pieces, equality, hash and ``repr``.  The oracle answers exactly
    when no piece is ``BB`` or ``tA``."""
    H = stabilizer(action, t)
    assert H.elements == scanned(action, t), str(t)
    assert H.order == len(H.elements)
    twisted = {"BB", "tA"} & {kind for kind, _ in H.pieces}
    try:
        want = scanned_stabilizer(action, t)
    except UnrecognizedStructure:
        assert twisted, str(t)
        return
    assert not twisted and H.pieces == want.pieces, str(t)
    assert H == want and hash(H) == hash(want) and repr(H) == repr(want)


class TestStabilizersFromPatterns:
    """``stabilizer`` reads a point's coordinate pattern, against the
    scan of the action's elements and the oracle recognizer."""

    @pytest.mark.parametrize("name, action", NARROW_STABILIZER_ACTIONS,
                             ids=[n for n, _ in NARROW_STABILIZER_ACTIONS])
    def test_every_point_of_small_rank(self, name, action):
        for coords in product(STABILIZER_VALUES, repeat=action.rank):
            assert_stabilizer_is_the_scan(action, point(*coords))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_points_of_ranks_four_and_five(self, data):
        _, action = data.draw(st.sampled_from(WIDE_STABILIZER_ACTIONS))
        # a few values per point, so that classes, inverse pairs and
        # fixed coordinates come often
        values = data.draw(st.lists(st.sampled_from(STABILIZER_VALUES), min_size=1, max_size=4))
        coords = data.draw(st.lists(st.sampled_from(values), min_size=action.rank,
                                    max_size=action.rank))
        assert_stabilizer_is_the_scan(action, point(*coords))

    def test_inverse_pair_is_a_flip_conjugated_swap(self):
        # the scanned group is the identity and the swap with both
        # coordinates inverted, which the oracle does not recognize
        t = point(Z, Z.inverse())
        H = stabilizer(B2, t)
        assert H.structure() == "S2~" and H.pieces == (("tA", ((0, 1), (1,))),)
        assert H.elements == scanned(B2, t) == (SignedPermutation((1, 2), (1, 1)),
                                                SignedPermutation((2, 1), (-1, -1)))
        with pytest.raises(UnrecognizedStructure):
            scanned_stabilizer(B2, t)

    def test_lone_one_on_an_even_sign_block_fixes_nothing(self):
        # W(D2) has no single flip, so (1, z) is fixed by the identity alone
        H = stabilizer(even_sign_action(2), point(1, "z"))
        assert H.pieces == () and H.order == 1 and H.structure() == "1"
        assert H == RecognizedSubgroup(2, ())

    def test_point_of_another_rank(self):
        with pytest.raises(RankMismatch, match="rank 1 point under rank 2 action"):
            stabilizer(B2, point("z"))

    def test_rank_twelve_lists_no_element(self, listed):
        # W(B12) has 1,961,990,553,600 elements; the stabilizer of four
        # coordinates at 1, four at z and four at -1 is read off them
        t = point(*[1] * 4 + ["z"] * 4 + [-1] * 4)
        H = stabilizer(hyperoctahedral_action(12), t)
        assert H.structure() == "B4 x S4 x B4" and H.order == 3538944
        assert listed == []


# every product action of this module, each name once
PRODUCT_ACTIONS = list(dict(
    PATTERN_ACTIONS + EVEN_SIGN_ACTIONS + WIDE_STABILIZER_ACTIONS
    + [("V4", DIAGONAL_V4)]
    + [(f"B{n}", hyperoctahedral_action(n)) for n in (5, 6)]
    + [(f"D{n}", even_sign_action(n)) for n in (5, 6)]
).items())


@pytest.mark.parametrize("name, action", PRODUCT_ACTIONS, ids=[n for n, _ in PRODUCT_ACTIONS])
def test_stabilizers_of_strata_are_their_groups(name, action):
    for st in strata(action):
        assert stabilizer(action, st.base) == st.group, str(st)


def test_oracle_refuses_a_twisted_diagonal():
    # the swap of coordinates 1, 2 with the flip of 3 moves every
    # coordinate, yet no element only flips 3: the product of an S2
    # piece and an empty E2 piece is not the group, and its fixed locus
    # has two components where S2 fixes one
    assert len(fixed_locus(SWAP_WITH_FLIP.generators[0])) == 2
    with pytest.raises(UnrecognizedStructure, match="not the product of its coordinate blocks"):
        recognize_subgroup(SWAP_WITH_FLIP.elements, 3)


@settings(max_examples=200, deadline=None)
@given(element_lists())
def test_oracle_answers_only_with_the_listed_group(elements):
    # whatever list it is given, the oracle answers only with a product of
    # pieces that is the group listed, and never with an empty E2 piece
    try:
        H = recognize_subgroup(elements, elements[0].rank)
    except UnrecognizedStructure:
        return
    assert set(H.elements) == set(elements)
    assert ("E2", ()) not in H.pieces


def test_subgroups_given_by_pieces_are_their_products():
    # an E2 piece is the group its flips generate, here the even flips
    klein = RecognizedSubgroup(3, (("E2", ((2, 3), (1, 3))),))
    assert klein.order == 4 and klein.elements == KLEIN_FOUR.elements
    mixed = RecognizedSubgroup(4, (("A", (0, 2)), ("E2", ((2, 4), (4,)))))
    want = MonomialAction(4, [("A", (0, 2)), ("B", (1,)), ("B", (3,))])
    assert mixed.order == 8 and mixed.elements == want.elements
    # equal pieces on another rank make another group
    assert RecognizedSubgroup(2, ()) != RecognizedSubgroup(3, ())
    assert recognize_subgroup(want.elements, 4).pieces == \
        (("A", (0, 2)), ("E2", ((2,), (2, 4))))


def assert_point_families_follow_the_connected_hyperplane_rule(st):
    # the oracle scans the stabilizer: a character starts a family at a
    # point exactly when it sends every reflection with a connected fixed
    # hyperplane to -1
    H = st.group
    refl = [w for w in H.elements if _has_connected_hyperplane(w)]
    want = [rho for rho in H.irreps() if all(_acts_by_minus_one(H, rho, w) for w in refl)]
    assert [f.irrep for f in st.families()] == want, str(st)


FAMILY_ACTIONS = PATTERN_ACTIONS + [("B5", hyperoctahedral_action(5)), ("klein_four", KLEIN_FOUR)] \
    + EVEN_SIGN_ACTIONS


@pytest.mark.parametrize("name, action", FAMILY_ACTIONS, ids=[n for n, _ in FAMILY_ACTIONS])
def test_point_families_follow_the_connected_hyperplane_rule(name, action):
    for st in any_strata(action):
        if st.dimension == 0 and st.group.order > 1:
            assert_point_families_follow_the_connected_hyperplane_rule(st)


def test_point_families_of_a_flip_conjugated_symmetric_group():
    # no stratum has a tA piece at a point, so the rule is checked on one
    # built by hand: the signed swap of S2~ fixes the connected x1 x2 = 1
    c = _canonical_coset(2, [], [0, 0])
    H = RecognizedSubgroup(2, (("tA", ((0, 1), (1,))),))
    st = extquot.Stratum(c, c.generic_point(), H)
    assert [f.irrep for f in st.families()] == [Partition((1, 1))]
    assert_point_families_follow_the_connected_hyperplane_rule(st)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_point_families_of_an_even_sign_group(n):
    # the stabilizer of W(D_n) at the point 1 is all of W(D_n), one D piece
    st = next(s for s in strata(even_sign_action(n)) if s.base == point(*[1] * n))
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
            out.append((f"B{n}_sub{seed}", GeneratedGroup(n, gens)))
    return out


def closed_form_count(n):
    """The number of families of W(B_n): each class ``(alpha, beta)``
    gives ``m_k(beta) + 1`` choices per length ``k``, how many of its
    ``m_k(beta)`` negative cycles of length ``k`` take 1/2."""
    return sum(prod(m + 1 for m in Counter(bp.beta.parts).values()) for bp in bipartitions(n))


def eq_size_series(kind, top):
    """The sizes of T//W for one ``"A"`` or ``"B"`` block of ``k``
    coordinates, ``k = 0..top``: the sum over strata of the number of
    characters of the stabilizer, as the coefficients of a generating
    function.

    A class of ``m`` equal generic coordinates has the stabilizer S_m,
    with ``p(m)`` characters, so an ``"A"`` block gives [x^k] of the
    product over ``m`` of ``1 / (1 - p(m) x^m)``.  On a ``"B"`` block
    the coordinates at 1 and at -1 add the stabilizer W(B_a) x W(B_b),
    with ``bip(a) bip(b)`` characters, which multiplies the series by
    ``bip(x)^2``.  Up to ``k = 6`` the series is 1, 1, 3, 6, 15, 28,
    66 on ``"A"`` and 1, 5, 21, 72, 226, 649, 1,769 on ``"B"``."""
    series = [1] + [0] * top
    for m in range(1, top + 1):
        p = sum(1 for _ in partitions(m))
        for k in range(m, top + 1):
            series[k] += p * series[k - m]
    bip = [len(bipartitions(m)) for m in range(top + 1)]
    for _ in range({"A": 0, "B": 2}[kind]):
        series = [sum(bip[j] * series[k - j] for j in range(k + 1)) for k in range(top + 1)]
    return series


def eq_size(blocks):
    """The size of T//W for an action with the ``"A"`` and ``"B"``
    ``blocks``: its strata are products of per-block patterns, so the
    size is the product of the blocks' :func:`eq_size_series`."""
    return prod(eq_size_series(kind, len(coords))[-1] for kind, coords in blocks)


@st.composite
def block_products(draw):
    """A full product of symmetric, hyperoctahedral and even-signed
    groups of rank at most 6, on blocks of shuffled coordinates so that
    blocks interleave, as the group its Coxeter generators generate,
    with its ``(kind, coords)`` blocks in the order of their least
    coordinates."""
    n = draw(st.integers(0, 6))
    rest = draw(st.permutations(range(n)))
    gens, blocks = [], []
    while rest:
        k = draw(st.integers(1, len(rest)))
        coords, rest = tuple(sorted(rest[:k])), rest[k:]
        kind = draw(st.sampled_from("ABD" if k > 1 else "AB"))
        gens += [transposition(n, i, j) for i, j in zip(coords, coords[1:])]
        if kind != "A":
            gens.append(sign_flip(n, coords[:1] if kind == "B" else coords[:2]))
        blocks.append((kind, coords))
    return GeneratedGroup(n, gens), tuple(sorted(blocks, key=lambda b: b[1][0]))


GEOMETRIC_ACTIONS = (
    [(f"B{n}", hyperoctahedral_action(n)) for n in (1, 2, 3, 4)]
    + [(f"D{n}", even_sign_action(n)) for n in (2, 3, 4)]
    + [(f"S{n}", permutation_action(n)) for n in (2, 3, 4)]
    + [("T3", trivial_action(3)), ("rank0", MonomialAction(0)), ("klein_four", KLEIN_FOUR),
       ("swap_with_flip", SWAP_WITH_FLIP)]
    # interleaved blocks, where the families of a class come in another
    # order than the picks per block and length
    + [("B2xB1_interleaved", MonomialAction(3, [("B", (0, 2)), ("B", (1,))])),
       ("D2xB2", D2_B2), ("D3xS2_interleaved", D3_S2_INTERLEAVED)]
    + seeded_subgroups()
    + INERTIAL_ACTIONS
)


@pytest.mark.parametrize("kind, build, want", [
    ("A", permutation_action, [1, 1, 3, 6, 15, 28, 66]),
    ("B", hyperoctahedral_action, [1, 5, 21, 72, 226, 649, 1769]),
], ids=["A", "B"])
def test_closed_form_sizes_of_one_block(kind, build, want):
    assert eq_size_series(kind, MAX_RANK) == want
    assert [len(eq_pairs(build(k))) for k in range(MAX_RANK + 1)] == want


@pytest.mark.parametrize("name, action", PATTERN_ACTIONS, ids=[n for n, _ in PATTERN_ACTIONS])
def test_closed_form_sizes_multiply_over_blocks(name, action):
    assert len(eq_pairs(action)) == eq_size(action.blocks)


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
        # the walk gives the brute force's families in the same order,
        # same representatives and least components, on every action;
        # geometric_eq gives them too on a product over coordinate
        # blocks, declared as the blocks recognized from the generators
        walked = walked_geometric_eq(action)
        assert walked == brute_force_geometric_eq(action)
        declared = recognized_action(action)
        if declared is not None:
            got = geometric_eq(declared)
            assert got == walked and [str(f) for f in got] == [str(f) for f in walked]

    @given(block_products())
    @settings(max_examples=40, deadline=None)
    def test_block_products_agree_with_the_walk(self, drawn):
        group, blocks = drawn
        action = MonomialAction(group.rank, blocks)
        assert action.blocks == blocks and recognized_action(group) == action
        got, walked = geometric_eq(action), walked_geometric_eq(group)
        assert got == walked and [str(f) for f in got] == [str(f) for f in walked]

    @pytest.mark.parametrize("build, n, count", [
        (hyperoctahedral_action, 5, 108), (even_sign_action, 5, 52),
    ], ids=["B5", "D5"])
    def test_rank_five_counts(self, build, n, count):
        # the brute force takes seconds here; the walk under a second
        action = build(n)
        got = geometric_eq(action)
        assert len(got) == count and got == walked_geometric_eq(action)

    def test_split_even_sign_classes(self):
        # a class of W(B_n) with no negative cycle and only even cycles
        # splits into two classes of W(D_n), whose least elements differ
        # in the signs of the last two coordinates: one class of W(B4)
        d2 = {f.element for f in geometric_eq(even_sign_action(2))}
        assert {SignedPermutation((2, 1), (-1, -1)), SignedPermutation((2, 1), (1, 1))} <= d2
        first = SignedPermutation((2, 1, 4, 3), (-1, -1, -1, -1))
        twin = SignedPermutation((2, 1, 4, 3), (-1, -1, 1, 1))
        assert {first, twin} <= {f.element for f in geometric_eq(even_sign_action(4))}
        b4 = {f.element for f in geometric_eq(hyperoctahedral_action(4))}
        assert first in b4 and twin not in b4

    @pytest.mark.parametrize("n, count", enumerate([1, 3, 9, 22, 51, 108, 221, 429]))
    def test_hyperoctahedral_counts(self, n, count):
        assert len(geometric_eq(hyperoctahedral_action(n))) == count == closed_form_count(n)

    @pytest.mark.parametrize("n", range(8, 13))
    def test_hyperoctahedral_counts_past_the_walk(self, n):
        assert len(geometric_eq(hyperoctahedral_action(n))) == closed_form_count(n)

    def test_lists_no_element(self, monkeypatch):
        def refuse(self):
            raise AssertionError("an element list read")

        monkeypatch.setattr(MonomialAction, "elements", property(refuse))
        with pytest.raises(AssertionError, match="element list read"):
            hyperoctahedral_action(6).elements
        assert len(geometric_eq(hyperoctahedral_action(6))) == 221

    def test_walk_moves_no_coset(self, monkeypatch):
        # the centralizer acts on the picks of 0 or 1/2, not on cosets:
        # every coset is built as it stands by _pattern_coset, and none
        # is moved and put back in canonical form, as act_coset does
        def refuse(*args):
            raise AssertionError("a coset made canonical in geometric_eq")

        line = fixed_locus(S1)[0]
        monkeypatch.setattr(extquot, "_canonical_coset", refuse)
        with pytest.raises(AssertionError, match="canonical in geometric_eq"):
            act_coset(S2, line)
        assert len(geometric_eq(hyperoctahedral_action(3))) == 22


class TestIrreps:
    def test_b2(self):
        assert len(recognize_subgroup(B2.elements, 2).irreps()) == 5

    def test_elementary(self):
        H = recognize_subgroup(
            [
                SignedPermutation((1, 2), s)
                for s in [(1, 1), (1, -1), (-1, 1), (-1, -1)]
            ],
            2,
        )
        assert sorted(H.irreps()) == sorted(
            [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        )

    def test_even_sign_group(self):
        H = recognize_subgroup(even_sign_action(2).elements, 2)
        assert [str(l) for l in H.irreps()] == ["{-,2}", "{-,1.1}", "{1,1}", "{1,1}'"]


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
