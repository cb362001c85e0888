"""The generalized Springer correspondence for complex classical groups.

Groups are products of classical factors ``GL``, ``Sp``, ``SO`` and
``O``, optionally coupled by a determinant-one condition across the
orthogonal factors.  For each such group the module enumerates unipotent
classes, component groups of centralizers together with their sign
characters, cuspidal (quasi-)support triples, and computes the
correspondence

    (unipotent class, character)  <-->  (cuspidal triple, Weyl character)

blockwise: every pair lands in the block of a unique cuspidal triple,
and within a block the pairs biject with the irreducible characters of
the relative Weyl group of the triple.

Each classical factor reads its pair off Lusztig's symbol of the class
(Lusztig, *Intersection cohomology complexes on a reductive group*,
Invent. Math. 75 (1984), sections 11-13).  The ascending parts, padded
for ``Sp`` to odd length, give the shifted values ``xi_i = part_i + i``;
the even ones fill the top row and the odd ones the bottom row.  Each
markable part value owns an interval, a maximal run of consecutive
integers lying in one row only, and a character moves the interval of
every part value it marks to the other row.  The defect of the marked
symbol gives the block, and the rows less a staircase give the label.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property, lru_cache
from itertools import product as iproduct
from math import factorial

from .combicore import (
    Bipartition,
    DLabel,
    Partition,
    _partition_tuples,
    partitions,
    bipartitions,
    dlabels,
    unstaircase,
    value_type,
)


class SpringerError(ValueError):
    pass


# ---------------------------------------------------------------------------
# groups


_KINDS = ("GL", "Sp", "SO", "O")


class GroupFactor(value_type("GroupFactor", "kind n", order=True)):
    """A classical factor ``kind`` of size ``n``: GL(n), SO(n) or O(n),
    and for ``Sp``, ``n`` is the (even) matrix size."""

    __slots__ = ()

    def __new__(cls, kind, n):
        if kind not in _KINDS:
            raise SpringerError(f"unknown factor kind {kind!r}")
        if n < 0 or (kind == "Sp" and n % 2):
            raise SpringerError(f"bad size for {kind}: {n}")
        return tuple.__new__(cls, (kind, n))

    def __str__(self) -> str:
        return f"{self.kind}{self.n}"


class ComplexGroup(value_type("ComplexGroup", "factors det1", order=True)):
    """A product of classical factors, optionally with a joint
    determinant-one condition on the orthogonal (``O``) factors."""

    __slots__ = ()

    def __new__(cls, factors, det1=False):
        if det1 and not any(f.kind == "O" for f in factors):
            raise SpringerError("det1 coupling requires O factors")
        return tuple.__new__(cls, (factors, det1))

    def __str__(self) -> str:
        plain = [str(f) for f in self.factors if f.kind != "O"]
        ofacs = [str(f) for f in self.factors if f.kind == "O"]
        if self.det1:
            inner = "S(" + "x".join(ofacs) + ")"
            return "x".join(plain + [inner]) if plain else inner
        return "x".join(str(f) for f in self.factors) or "1"


def Sp(n: int) -> ComplexGroup:
    return ComplexGroup((GroupFactor("Sp", n),))


def SO(n: int) -> ComplexGroup:
    return ComplexGroup((GroupFactor("SO", n),))


def Orth(n: int) -> ComplexGroup:
    return ComplexGroup((GroupFactor("O", n),))


def GL(n: int) -> ComplexGroup:
    return ComplexGroup((GroupFactor("GL", n),))


def group_product(*factors: GroupFactor, det1: bool = False) -> ComplexGroup:
    return ComplexGroup(tuple(factors), det1=det1)


# ---------------------------------------------------------------------------
# unipotent classes


class UnipotentClass(value_type("UnipotentClass", "partitions tags", order=True)):
    """A partition per factor, with a tag per factor: ``""``, or
    ``"I"`` or ``"II"`` for the halves of a very even class."""

    __slots__ = ()

    def __str__(self) -> str:
        bits = []
        for p, t in zip(self.partitions, self.tags):
            bits.append(str(p) + (t if t else ""))
        return "x".join(bits)


@lru_cache
def _factor_partitions(factor: GroupFactor):
    """The partitions of one factor's unipotent classes, with their tags:
    parts of the other parity than the markable ones (odd for ``Sp``,
    even for ``SO`` and ``O``) have even multiplicity.

    Memoised by value on ``factor``, with the default 128 entries, for
    the life of the process, so that the classes of a product share
    their factors' partitions: a cold ``matching`` benchmark pass looks
    up 12 factors 93 times, and the ``params`` pass at seed 1 looks up
    43 factors 54 times.  The tuple is shared between callers."""
    raw = _partition_tuples(factor.n, factor.n)
    if factor.kind == "GL":
        return tuple((Partition(p), "") for p in raw)
    paired = 1 if factor.kind == "Sp" else 0
    out = []
    for p in raw:
        if any(p.count(v) % 2 for v in set(p) if v % 2 == paired):
            continue
        lam = Partition(p)
        if factor.kind == "SO" and p and not any(v % 2 for v in p):
            out.append((lam, "I"))
            out.append((lam, "II"))
        else:
            out.append((lam, ""))
    return tuple(out)


def unipotent_classes(group: ComplexGroup):
    """All unipotent classes of ``group``.  Very even classes split I/II:
    those of an ``SO`` factor, and under a determinant-one condition
    those whose ``O`` partitions have only even parts, not all empty
    (the tag goes on the first nonempty ``O`` factor)."""
    per = [_factor_partitions(f) for f in group.factors]
    ofactors = [i for i, f in enumerate(group.factors) if f.kind == "O"] if group.det1 else []
    out = []
    for combo in iproduct(*per):
        parts = tuple(c[0] for c in combo)
        tags = tuple(c[1] for c in combo)
        nonempty = [i for i in ofactors if parts[i]]
        if nonempty and not any(v % 2 for i in nonempty for v in parts[i].parts):
            i = nonempty[0]
            for tag in ("I", "II"):
                out.append(UnipotentClass(parts, tags[:i] + (tag,) + tags[i + 1:]))
        else:
            out.append(UnipotentClass(parts, tags))
    return out


# ---------------------------------------------------------------------------
# component groups and their sign characters


class ComponentGroup(value_type("ComponentGroup", "generators keys classes")):
    """The component group of a unipotent centralizer, presented by
    commuting involutive generators, one per qualifying Jordan block
    size.  ``classes`` holds one tuple of generator indices per
    even-product constraint: the generators of each ``SO`` factor, and
    those of the ``O`` factors of a determinant-one product; the other
    generators are free.  ``keys`` holds the ``(factor index, part
    value)`` of each generator."""

    __slots__ = ()

    @property
    def order(self) -> int:
        return 2 ** (len(self.generators) - len(self.classes))

    def structure(self) -> str:
        r = len(self.generators) - len(self.classes)
        if r <= 0:
            return "1"
        if r == 1:
            return "Z/2"
        return f"(Z/2)^{r}"

    def subgroup_generators(self) -> tuple[str, ...]:
        """Display generators of the actual subgroup: products of
        consecutive generators of each constraint class, then the free
        generators."""
        gens = self.generators
        pairs = [gens[i] + gens[j] for c in self.classes for i, j in zip(c, c[1:])]
        bound = {i for c in self.classes for i in c}
        return tuple(pairs + [g for i, g in enumerate(gens) if i not in bound])

    def characters(self):
        """All irreducible characters, in a fixed order (canonical sign
        vectors: representatives take value +1 on the last generator of
        each constraint class)."""
        lasts = [c[-1] for c in self.classes]
        return [SignCharacter(vals, self)
                for vals in iproduct((1, -1), repeat=len(self.generators))
                if all(vals[i] == 1 for i in lasts)]


class SignCharacter(value_type("SignCharacter", "values group")):
    __slots__ = ()

    def __new__(cls, values, group):
        if len(values) != len(group.generators):
            raise SpringerError("character length mismatch")
        # negating every generator of a constraint class leaves the
        # character unchanged: store the representative with +1 on the
        # last generator of each class, so equal characters read equal
        flip = {i for c in group.classes if values[c[-1]] == -1 for i in c}
        if flip:
            values = tuple(-v if i in flip else v for i, v in enumerate(values))
        return tuple.__new__(cls, (values, group))

    def value(self, key) -> int:
        for k, v in zip(self.group.keys, self.values):
            if k == key:
                return v
        raise KeyError(key)

    def __str__(self) -> str:
        if not self.values:
            return "1"
        bits = [f"{g}->{'+' if v > 0 else '-'}" for g, v in zip(self.group.generators, self.values)]
        return "[" + " ".join(bits) + "]"


def identity_component(group: ComplexGroup) -> ComplexGroup:
    """The identity component of ``group``: every ``O`` factor becomes
    ``SO`` of the same size, with no determinant-one coupling."""
    pieces = tuple(GroupFactor("SO", f.n) if f.kind == "O" else f for f in group.factors)
    return ComplexGroup(pieces, det1=False)


def component_group(group: ComplexGroup, u: UnipotentClass) -> ComponentGroup:
    if len(u.partitions) != len(group.factors):
        raise SpringerError("class does not belong to this group")
    gens, keys, classes, coupled = [], [], [], []
    prime_level = 0
    for fi, (factor, lam) in enumerate(zip(group.factors, u.partitions)):
        if factor.kind == "GL":
            continue
        parity = 0 if factor.kind == "Sp" else 1
        idx = []
        suffix = "'" * prime_level
        for v in lam.distinct_parts():
            if v % 2 == parity:
                idx.append(len(gens))
                gens.append(f"z{v}{suffix}")
                keys.append((fi, v))
        if factor.kind == "SO":
            classes.append(idx)
        elif factor.kind == "O" and group.det1:
            coupled += idx
        prime_level += 1
    classes = tuple(sorted(tuple(c) for c in classes + [coupled] if c))
    return ComponentGroup(tuple(gens), tuple(keys), classes)


# ---------------------------------------------------------------------------
# symbols


def _symbol(kind: str, lam: Partition):
    """The symbol of ``lam`` at the trivial character, as ``(top,
    bottom, intervals)``: the two rows as ascending lists, and a dict
    from each markable part value to its interval.

    The interval of a markable part value (even for ``Sp``, odd for
    ``SO`` and ``O``) is a maximal run of consecutive integers lying in
    exactly one row, paired in ascending order.  For ``Sp`` the run
    containing 0 belongs to no part.

    Not memoised: :func:`_class_reads` reads each symbol once per
    factor class, and a one-factor table reads each of its classes once,
    so every call builds its own rows and dict.
    """
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
    return top, bottom, dict(zip(markable, map(tuple, runs)))


def _flip(read):
    """The determinant-one flip on the read ``(d, sign, label)`` of an
    ``O`` factor: exchanging the rows of its marked symbol negates the
    sign and, at defect 0, swaps the bipartition."""
    d, sign, label = read
    return d, -sign, Bipartition(label.beta, label.alpha) if d == 0 else label


def _factor_block_and_label(kind: str, top, bottom, tag: str):
    """Block data and character label read from the rows of a marked
    symbol: ``(d, sign, label)``, where ``d`` is the core size parameter,
    ``sign`` distinguishes the two cuspidal characters of a disconnected
    orthogonal core (0 otherwise), and ``label`` is the relative Weyl
    character label of the pair."""
    D = len(top) - len(bottom)
    if kind == "Sp":
        d = D - 1 if D > 0 else -D
        alpha, beta = unstaircase(top), unstaircase(bottom, 1)
        return d, 0, Bipartition(beta, alpha) if d % 2 else Bipartition(alpha, beta)
    longer, shorter = (top, bottom) if D > 0 else (bottom, top)
    alpha, beta = unstaircase(longer), unstaircase(shorter)
    if kind == "SO":
        if D == 0:
            return 0, 0, DLabel(alpha, beta, primed=alpha == beta and tag == "II")
        return abs(D), 0, Bipartition(alpha, beta)
    return abs(D), (D > 0) - (D < 0), Bipartition(alpha, beta)


@lru_cache
def _class_reads(kind: str, lam: Partition, tag: str) -> dict:
    """The class table of the class ``lam`` (with its I/II ``tag``, which
    only an ``SO`` factor reads) of one classical factor of kind
    ``kind``: each marking of its markable part values, a sign vector in
    the order of :meth:`ComponentGroup.characters` of the one-factor
    group, mapped to its read ``(d, sign, label)``.  A marking moves the
    interval of each part value it marks (a ``-1``) to the other row of
    the symbol (:func:`_symbol`), and :func:`_factor_block_and_label`
    reads the marked rows.  A ``GL`` factor reads its conjugate
    partition whatever the character.

    Memoised by value on ``(kind, lam, tag)``, with the default 128
    entries, for the life of the process.  Product tables and class
    readers read their factors here: a cold ``matching`` benchmark pass
    looks up 24 factor classes 187 times, and the ``params`` pass at
    seed 1 looks up 56 factor classes 1,460 times, so every miss is a
    first lookup.  A one-factor table reads through ``__wrapped__`` and
    stores nothing: no table repeats a class, and its hundreds of
    classes would evict the shared ones.  The result is shared between
    callers and must not be mutated."""
    if kind == "GL":
        return {(): (0, 0, lam.conjugate())}
    top, bottom, intervals = _symbol(kind, lam)
    markings = iproduct((1, -1), repeat=len(intervals))
    if kind == "SO" and intervals:
        markings = (m for m in markings if m[-1] == 1)
    reads = {}
    for marks in markings:
        t, b = top, bottom
        if -1 in marks:
            moved = set().union(*(run for run, val in zip(intervals.values(), marks)
                                  if val == -1))
            t, b = moved.symmetric_difference(top), moved.symmetric_difference(bottom)
        reads[marks] = _factor_block_and_label(kind, t, b, tag)
    return reads


@lru_cache
def core_partition(kind: str, d: int) -> Partition:
    """The class of the cuspidal core of size parameter ``d`` of a
    classical factor: the staircase ``(2d, ..., 4, 2)`` for ``Sp`` and
    ``(2d - 1, ..., 3, 1)`` for ``SO`` and ``O``.  Memoised on
    ``(kind, d)``, with the default 128 entries, for the life of the
    process; the partition is frozen and shared between callers."""
    return Partition(range(2 if kind == "Sp" else 1, 2 * d + 1, 2))


def _sp_core_marks(d: int):
    # alternating cuspidal signs: value 2i marked for odd i
    return {2 * i for i in range(1, d + 1) if i % 2}


def _o_core_marks(d: int, sign: int):
    """Markings of the two cuspidal characters of an orthogonal core
    O(d^2); ``sign`` selects the lifting (the sign of the defect of the
    marked symbol)."""
    odds = list(range(1, 2 * d, 2))
    plus = {odds[i] for i in range(d) if i % 2 == 0}
    return plus if sign > 0 else set(odds) - plus


# ---------------------------------------------------------------------------
# cuspidal triples and relative Weyl groups


class CuspidalTriple(value_type("CuspidalTriple", "group ds signs", order=True)):
    """A cuspidal support datum: per factor, the size parameter ``d`` of
    the cuspidal core inside the quasi-Levi ``GL(1)^k x core``, plus the
    lifting sign for disconnected orthogonal cores."""

    __slots__ = ()

    @property
    def is_principal(self) -> bool:
        return all(d == 0 or (f.kind in ("SO", "O") and f.n % 2 and d == 1 and s == 0)
                   for f, d, s in zip(self.group.factors, self.ds, self.signs))

    @property
    def is_cuspidal(self) -> bool:
        """Whether the cuspidal core is the whole group: no factor keeps
        a GL(1) coordinate."""
        return all(self.gl_rank(i) == 0 for i in range(len(self.group.factors)))

    def gl_rank(self, i: int) -> int:
        f, d = self.group.factors[i], self.ds[i]
        if f.kind == "GL":
            return f.n
        if f.kind == "Sp":
            return (f.n - d * (d + 1)) // 2
        return (f.n - d * d) // 2

    def core_partition(self, i: int) -> Partition:
        f, d = self.group.factors[i], self.ds[i]
        if f.kind == "GL":
            return Partition()
        return core_partition(f.kind, d)

    def core_marks(self, i: int):
        f, d, s = self.group.factors[i], self.ds[i], self.signs[i]
        if f.kind == "Sp":
            return _sp_core_marks(d)
        if f.kind in ("SO", "O"):
            return _o_core_marks(d, s if s else 1)
        return set()

    def __str__(self) -> str:
        bits = []
        for i, f in enumerate(self.group.factors):
            k = self.gl_rank(i)
            core = self.core_partition(i)
            s = f"GL1^{k}" if k else ""
            if f.kind != "GL":
                d = self.ds[i]
                size = d * (d + 1) if f.kind == "Sp" else d * d
                corename = f"{'Sp' if f.kind == 'Sp' else f.kind}{size}"
                sgn = {1: "+", -1: "-", 0: ""}[self.signs[i]]
                s = (s + "x" if s else "") + f"{corename}{sgn}{core if core else ''}"
            bits.append(s or "1")
        return "[" + " | ".join(bits) + "]"


def cuspidal_triples(group: ComplexGroup):
    """All cuspidal support triples of ``group``: choices of a cuspidal
    core in each factor (with both liftings for disconnected orthogonal
    cores)."""
    per = []
    for f in group.factors:
        opts = []
        if f.kind == "GL":
            opts.append((0, 0))
        elif f.kind == "Sp":
            d = 0
            while d * (d + 1) <= f.n:
                opts.append((d, 0))
                d += 1
        else:  # SO / O
            d = f.n % 2
            while d * d <= f.n:
                if f.kind == "SO" or d == 0:
                    opts.append((d, 0))
                else:
                    opts.append((d, 1))
                    opts.append((d, -1))
                d += 2
        per.append(opts)
    out = []
    for combo in iproduct(*per):
        ds = tuple(c[0] for c in combo)
        signs = _canonical_signs(group, tuple(c[1] for c in combo))
        triple = CuspidalTriple(group, ds, signs)
        if triple not in out:
            out.append(triple)
    return out


class RelativeWeylGroup(value_type("RelativeWeylGroup", "pieces coupled", defaults=((),))):
    """The relative Weyl group of a cuspidal triple, as a product of
    recognized pieces.  Piece types: ``A`` (symmetric group on n+1
    letters, labels = partitions; ``A`` of rank -1 is the trivial S0),
    ``B`` (signed permutations, labels = bipartitions), ``D`` (even
    signed permutations, labels = unordered pairs with split labels
    doubled, except for the trivial W(D0), whose one pair is one label).
    ``coupled`` holds the positions of the ``B`` pieces of ``O`` factors
    under a joint even-sign condition, the pieces that the
    determinant-one flip swaps; empty means uncoupled."""

    __slots__ = ()

    @property
    def order(self) -> int:
        n = 1
        for t, k in self.pieces:
            if t == "A":
                n *= factorial(k + 1)
            elif t == "B":
                n *= factorial(k) * 2 ** k
            elif t == "D":
                n *= factorial(k) * 2 ** max(k - 1, 0) if k else 1
        if self.coupled:
            n //= 2
        return n

    def structure(self) -> str:
        bits = [f"W({t}{k})" for i, (t, k) in enumerate(self.pieces)
                if k > 0 and i not in self.coupled]
        if self.coupled:
            swapped = (f"W({t}{k})" for t, k in map(self.pieces.__getitem__, self.coupled))
            bits.append("S[" + "x".join(swapped) + "]")
        return "x".join(bits) or "1"

    def swap(self, combo):
        """``combo`` under the determinant-one flip: the label of each
        coupled piece, an ``O`` factor's read at defect 0, flipped."""
        return tuple(_flip((0, 0, l))[2] if i in self.coupled else l
                     for i, l in enumerate(combo))

    def character_labels(self):
        per = []
        for t, k in self.pieces:
            if t == "A":
                per.append(list(partitions(k + 1)))
            elif t == "B":
                per.append(bipartitions(k))
            else:
                per.append(dlabels(k) if k else dlabels(k)[:1])
        combos = [tuple(c) for c in iproduct(*per)]
        if not self.coupled:
            return combos
        # joint even-sign condition: characters are orbits under the
        # flip, named by their least member; split orbits are doubled
        out = []
        for combo in combos:
            swapped = self.swap(combo)
            if combo == swapped:
                out += [(combo, 0), (combo, 1)]
            elif combo < swapped:
                out.append((combo, None))
        return out

    @property
    def num_characters(self) -> int:
        return len(self.character_labels())


def relative_weyl_group(triple: CuspidalTriple) -> RelativeWeylGroup:
    """The relative Weyl group of ``triple``, one piece per factor.  The
    block is coupled when an ``O`` factor with no core (d = 0) keeps a
    piece of positive rank and no ``O`` core absorbs the determinant
    flip; the flip then swaps exactly those ``O`` pieces.  ``SO`` and
    ``Sp`` factors lie outside the determinant condition."""
    group = triple.group
    pieces, coupled = [], []
    has_core_absorbing = any(f.kind == "O" and d >= 1 for f, d in zip(group.factors, triple.ds))
    for i, f in enumerate(group.factors):
        k = triple.gl_rank(i)
        d = triple.ds[i]
        if f.kind == "GL":
            pieces.append(("A", k - 1))
        elif f.kind == "Sp":
            pieces.append(("B", k))
        elif f.kind == "SO":
            if f.n % 2 == 0 and d == 0:
                pieces.append(("D", k))
            else:
                pieces.append(("B", k))
        else:  # O factor
            pieces.append(("B", k))
            if group.det1 and d == 0 and k and not has_core_absorbing:
                coupled.append(i)
    return RelativeWeylGroup(tuple(pieces), coupled=tuple(coupled))


# ---------------------------------------------------------------------------
# the correspondence


def _canonical_signs(group: ComplexGroup, signs):
    """Normalize determinant-coupled sign vectors modulo the global
    flip, by the rule of :func:`_class_rows`: when the first
    nonzero sign is negative, negate them all.  Only ``O`` factors carry
    a nonzero sign, so this negates theirs, as :func:`_flip` does."""
    if group.det1 and next((s for s in signs if s), 0) < 0:
        return tuple(-s for s in signs)
    return tuple(signs)


def enumerate_pairs(group: ComplexGroup):
    """All pairs (unipotent class, component-group character)."""
    out = []
    for u in unipotent_classes(group):
        for ch in component_group(group, u).characters():
            out.append((u, ch))
    return out


def _class_rows(group: ComplexGroup, u: UnipotentClass, reads=_class_reads):
    """The rows of the class ``u`` of ``group``: ``(ds, signs, labels)``
    of each character of its component group, in the order of
    :meth:`ComponentGroup.characters`.

    The correspondence of a product is the product of its factors'
    correspondences, so the rows are the product of the class tables
    ``reads(kind, partition, tag)`` of its factors (:func:`_class_reads`).
    The characters run through the same product: their generators run
    through the factors in order, and each constraint class lies in one
    table, that of its ``SO`` factor, or for the determinant-one class
    that of the last ``O`` factor with a generator, whose markings are
    kept only where they end in ``+1``.  When the first ``O`` factor of
    nonzero sign reads negative, the flip (:func:`_flip`) acts on the
    ``O`` reads of the character; only ``O`` factors read a nonzero
    sign, so the flip leaves the signs canonical."""
    tables = [reads(f.kind, lam, tag if f.kind == "SO" else "")
              for f, lam, tag in zip(group.factors, u.partitions, u.tags)]
    orth = [f.kind == "O" for f in group.factors] if group.det1 else []
    # a table's markings have one value per generator of its factor
    last = max((i for i, (o, t) in enumerate(zip(orth, tables)) if o and len(next(iter(t)))),
               default=None)
    if last is not None:
        tables[last] = {m: r for m, r in tables[last].items() if m[-1] == 1}
    for combo in iproduct(*(t.values() for t in tables)):
        if orth and next((s for _, s, _ in combo if s), 0) < 0:
            combo = [_flip(r) if o else r for o, r in zip(orth, combo)]
        yield tuple(zip(*combo)) if combo else ((), (), ())


class ClassReader:
    """The generalized Springer correspondence on the pairs of one
    unipotent class ``u`` of ``group``: the class's slice of the table.

    It holds the component group of ``u``, its characters (a tuple, in
    the order of :meth:`ComponentGroup.characters`) and, built on first
    use, ``rows`` and ``connected_component_group``, the component group
    of ``u`` in the identity component of ``group``
    (:func:`identity_component`).  The rows are the product of the
    memoised class tables of its factors (:func:`_class_rows`,
    :func:`_class_reads`), so readers of classes that share a factor
    class share its reads.  :func:`class_reader` shares one reader per
    class between its callers."""

    def __init__(self, group: ComplexGroup, u: UnipotentClass):
        self.group, self.u = group, u
        self.component_group = component_group(group, u)
        self.characters = tuple(self.component_group.characters())

    @cached_property
    def rows(self) -> dict:
        """The class's slice of the table: the values of each character
        mapped to its ``(triple, labels)``, with one
        :class:`CuspidalTriple` per block of the class.  Built on first
        use: a caller that only lists the characters, such as
        ``langlands.enhancements``, reads nothing."""
        triples, rows = {}, {}
        for ch, (ds, signs, labels) in zip(self.characters, _class_rows(self.group, self.u)):
            triple = triples.get((ds, signs))
            if triple is None:
                triple = triples[ds, signs] = CuspidalTriple(self.group, ds, signs)
            rows[ch.values] = triple, labels
        return rows

    @cached_property
    def connected_component_group(self) -> ComponentGroup:
        """The component group A° of ``u`` in the identity component of
        ``group``."""
        return component_group(identity_component(self.group), self.u)

    def read(self, char: SignCharacter):
        """``(triple, labels)`` of the pair ``(u, char)``: its block as a
        :class:`CuspidalTriple`, and its labels, looked up in ``rows``.
        A character on other generators is refused.  One on the same
        generators under other constraint classes is read as the equal
        character of ``u``: its restriction."""
        A = self.component_group
        if char.group.keys != A.keys:
            for key, val in zip(char.group.keys, char.values):
                if val == -1 and key not in A.keys:
                    raise SpringerError(f"cannot mark part value {key[1]} of {self.u}")
            raise SpringerError(f"{char} is not a character of the component group of {self.u}")
        values = char.values
        if char.group.classes != A.classes:
            values = SignCharacter(values, A).values
        return self.rows[values]


@lru_cache(maxsize=512)
def class_reader(group: ComplexGroup, u: UnipotentClass) -> ClassReader:
    """The shared :class:`ClassReader` of the class ``u`` of ``group``:
    the class's slice of the correspondence, read once.

    The correspondence on the pairs of a class depends on the group and
    the class alone, so the centralizers of parameters with different
    lines but the same (group, class) read through one reader, and so do
    the calls of :func:`generalized_springer`.  Memoised by value on
    ``(group, u)``, with 512 entries, for the life of the process: the
    ``params`` benchmark pass at seed 1 looks up 2,015 classes of 514
    distinct pairs, and at 512 entries every miss is a first lookup, a
    hit ratio of 0.745 (0.445 at 128 entries, 0.650 at 256).  A
    reader's rows are the product of its factors' class tables, shared
    through :func:`_class_reads` by every reader and product table with
    the same factor class: in that pass the 514 readers look up 56
    factor classes.  :func:`springer_blocks` builds no reader: its
    tables are memoised already, and its one-off classes would evict
    the parameters' ones."""
    return ClassReader(group, u)


def generalized_springer(group: ComplexGroup, u: UnipotentClass, char: SignCharacter):
    """The correspondence on one pair: returns ``(triple, label)``.

    ``label`` is a tuple of per-factor character labels of the relative
    Weyl group of ``triple``.

    The correspondence of a product is the product of the
    correspondences of its factors, so each classical factor reads its
    pair alone, in the memoised class table of its class
    (:func:`_class_reads`): every marked part value (a ``-1`` of
    ``char``) moves its interval to the other row of the symbol, the
    defect of the marked symbol gives the core size and, for ``O``
    factors, the lifting sign, and the rows less a staircase give the
    label.  The one coupling is a joint determinant condition: when
    the first ``O`` factor of nonzero sign reads negative, the global
    flip (:func:`_flip`) exchanges the rows of every ``O`` factor on the
    reads already made, negating each sign and, at defect 0, swapping
    the bipartition.  A character that marks a part value the
    class cannot mark, or that lives on the generators of another
    class, is refused.

    The pair is looked up in the shared reader of ``u``
    (:func:`class_reader`), which reads the whole class once.
    """
    return class_reader(group, u).read(char)


@lru_cache(maxsize=None)
def springer_blocks(group: ComplexGroup):
    """The full correspondence: maps each block (cuspidal triple) to the
    list of its pairs ``(u, char, labels)``, classes in the order of
    :func:`unipotent_classes`, characters in that of
    :meth:`ComponentGroup.characters`, blocks in the order first seen.
    Raises if any block fails to biject with the characters of its
    relative Weyl group.

    Each class's rows are the product of its factors' class tables
    (:func:`_class_rows`).  A product reads them in the memo
    :func:`_class_reads`, so its factors' classes are read once for the
    process, whatever the product; a one-factor table reads them afresh
    and stores nothing.  Without a determinant-one condition the blocks
    and relative Weyl groups of a product are the products of its
    factors', so its bijectivity check is the memoised check of each
    factor's own table; a determinant-one group checks the whole table.
    A cold ``matching`` benchmark pass builds 37 tables of 193 pairs;
    its 10 products without ``det1`` look their factors' tables up 23
    times, and build two more (``GL1`` and ``Sp2``)."""
    one = len(group.factors) == 1
    reads = _class_reads.__wrapped__ if one else _class_reads
    if not (one or group.det1):
        for f in group.factors:
            springer_blocks(ComplexGroup((f,)))
    rows = {}
    for u in unipotent_classes(group):
        chars = component_group(group, u).characters()
        for ch, (ds, signs, labels) in zip(chars, _class_rows(group, u, reads)):
            rows.setdefault((ds, signs), []).append((u, ch, labels))
    blocks = {CuspidalTriple(group, ds, signs): r for (ds, signs), r in rows.items()}
    if one or group.det1:
        _check_blocks(group, blocks)
    return blocks


def _check_blocks(group: ComplexGroup, blocks: dict):
    """Raise unless each block's labels biject with the characters of
    its relative Weyl group."""
    for triple, rows in blocks.items():
        W = relative_weyl_group(triple)
        got = [lab for _, _, lab in rows]
        want = W.character_labels()
        if W.coupled:
            # labels computed per factor are lifted representatives:
            # compare flip orbits, a split orbit counting twice
            got = [min(lab, W.swap(lab)) for lab in got]
            want = [combo for combo, _ in want]
        got, want = Counter(got), Counter(want)
        # every count is positive, so plain dict equality agrees with
        # Counter's, and it compares in C on the stored hashes
        if dict(got) != dict(want):
            raise SpringerError(
                f"{group}: block {triple} does not biject with Irr {W.structure()}: "
                f"labels in excess {_label_list(got - want)}, "
                f"missing {_label_list(want - got)}"
            )


def _label_list(labels: Counter) -> str:
    """Relative Weyl labels in CLI notation, factor labels joined by ``x``."""
    return "[" + ", ".join(sorted("x".join(map(str, combo)) or "1"
                                  for combo in labels.elements())) + "]"
