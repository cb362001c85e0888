"""Partition combinatorics, symbol rows, signed permutations, and
integer row reduction.

Everything in this module is exact: partitions are tuples of ints, and
the Hermite and Smith normal forms are computed over the integers with
unimodular transforms, both by the one routine :func:`hermite_reduce`.
There is no two-row symbol type: a symbol is a pair of plain tuples,
and :func:`staircase` and its inverse :func:`unstaircase` are the one
convention relating a row to a partition.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import permutations, product
from operator import sub


# ---------------------------------------------------------------------------
# frozen value types


_tuple_eq, _tuple_ne = tuple.__eq__, tuple.__ne__


def _eq(self, other):
    return other.__class__ is self.__class__ and _tuple_eq(self, other)


def _ne(self, other):
    return other.__class__ is not self.__class__ or _tuple_ne(self, other)


def _comparison(op, symbol):
    """An order comparison that ``op`` answers between two values of one
    class (``None``: unanswered) and that refuses any other tuple, so
    that the reflected order of a plain tuple cannot answer."""
    def compare(self, other):
        if other.__class__ is self.__class__:
            return NotImplemented if op is None else op(self, other)
        if isinstance(other, tuple):
            raise TypeError(f"'{symbol}' not supported between instances of "
                            f"{type(self).__name__!r} and {type(other).__name__!r}")
        return NotImplemented
    return compare


_SYMBOLS = {"__lt__": "<", "__le__": "<=", "__gt__": ">", "__ge__": ">="}
_ORDERED = {name: _comparison(getattr(tuple, name), s) for name, s in _SYMBOLS.items()}
_UNORDERED = {name: _comparison(None, s) for name, s in _SYMBOLS.items()}


def _no_operator(self, other):
    return NotImplemented


def _frozen_set(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_del(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _reduce(self):
    return self.__class__, tuple(tuple.__iter__(self))


def _replace(self, **changes):
    cls, args = self.__reduce__()
    return cls(**{**dict(zip(self._fields, args)), **changes})


def value_type(name: str, fields: str, defaults=(), order: bool = False):
    """The base of the frozen value type ``name``: a
    ``collections.namedtuple`` of the space-separated ``fields`` (the
    last ones defaulting to ``defaults``), declared once with

        class Name(value_type("Name", "a b")):
            __slots__ = ()

    A value is the tuple of its fields, so hashing, construction and
    field reads run in C, and importing a module of value types
    generates no methods.  The base keeps the value semantics of a
    frozen dataclass:

    - ``==`` and ``!=`` hold only between values of one class, never
      with a plain tuple or another class with equal fields;
    - the hash is the tuple's, that of the tuple of the fields;
    - with ``order``, ``<``, ``<=``, ``>`` and ``>=`` compare two values
      of one class by their fields; without it they are left to the
      class, and a value never compares with another tuple;
    - the tuple's ``+`` and ``*`` are refused;
    - fields cannot be assigned or deleted, and neither can any other
      attribute (a class without ``__slots__ = ()`` keeps an instance
      ``__dict__``, which only the class writes, through a
      ``cached_property`` or in ``__new__``);
    - ``repr`` reads ``Name(a=1, b=2)``;
    - ``_replace(**changes)``, ``pickle`` and ``copy`` rebuild a value
      through the class, so a ``__new__`` that normalises and validates
      its arguments sees them again (a class whose constructor takes
      fewer arguments than its fields overrides ``__reduce__``);
    - the namedtuple's ``_make`` and ``_asdict`` are removed: the one
      builds a value without ``__new__``, the other reads the fields
      through the class's own ``__iter__`` (a ``Partition`` iterates its
      parts).
    """
    base = namedtuple(name, fields, defaults=defaults)
    del base._make, base._asdict
    base.__eq__, base.__ne__, base.__hash__ = _eq, _ne, tuple.__hash__
    for attr, compare in (_ORDERED if order else _UNORDERED).items():
        setattr(base, attr, compare)
    base.__add__ = base.__mul__ = base.__rmul__ = _no_operator
    base.__setattr__, base.__delattr__ = _frozen_set, _frozen_del
    base.__reduce__, base._replace = _reduce, _replace
    return base


# ---------------------------------------------------------------------------
# partitions


def _normalize_parts(parts) -> tuple[int, ...]:
    parts = sorted(map(int, parts), reverse=True)
    if parts and parts[-1] < 0:
        raise ValueError("partition parts must be nonnegative")
    while parts and not parts[-1]:
        parts.pop()
    return tuple(parts)


class Partition(value_type("Partition", "parts", order=True)):
    """A partition, stored as a weakly decreasing tuple of positive ints.
    It measures, iterates, indexes and tests membership as its parts."""

    __slots__ = ()

    def __new__(cls, parts=()):
        return tuple.__new__(cls, (_normalize_parts(parts),))

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __contains__(self, value) -> bool:
        return value in self.parts

    def __bool__(self) -> bool:
        return bool(self.parts)

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition()
        cols = [sum(1 for p in self.parts if p >= j) for j in range(1, self.parts[0] + 1)]
        return Partition(cols)

    def multiplicity(self, value: int) -> int:
        return sum(1 for p in self.parts if p == value)

    def distinct_parts(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.parts)))

    def ascending(self) -> tuple[int, ...]:
        return tuple(reversed(self.parts))

    def __str__(self) -> str:
        if not self.parts:
            return "()"
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def partitions(n: int, max_part: int | None = None):
    """Yield all partitions of ``n`` (descending lexicographic order)."""
    for parts in _partition_tuples(n, n if max_part is None else max_part):
        yield Partition(parts)


def _partition_tuples(n: int, max_part: int):
    """The parts of :func:`partitions`, as plain descending tuples."""
    if n < 0:
        return
    if n == 0:
        yield ()
        return
    for first in range(min(max_part, n), 0, -1):
        for rest in _partition_tuples(n - first, first):
            yield (first,) + rest


class Bipartition(value_type("Bipartition", "alpha beta",
                             defaults=(Partition(), Partition()), order=True)):
    """An ordered pair of partitions."""

    __slots__ = ()

    @property
    def size(self) -> int:
        return self.alpha.size + self.beta.size

    def __str__(self) -> str:
        return f"({_part_str(self.alpha)},{_part_str(self.beta)})"


def _part_str(p: Partition) -> str:
    if not p:
        return "-"
    return ".".join(str(x) for x in p.parts)


@lru_cache(maxsize=None)
def bipartitions(n: int) -> tuple[Bipartition, ...]:
    """All bipartitions of ``n``, in a fixed deterministic order.

    The order is: size of the first component descending, then each
    component in the order produced by :func:`partitions`.
    """
    return tuple(Bipartition(a, b) for k in range(n, -1, -1)
                 for a in partitions(k) for b in partitions(n - k))


class DLabel(value_type("DLabel", "alpha beta primed", order=True)):
    """An unordered pair of partitions, with a primed tag for split pairs.

    Used for irreducible characters of even-signed permutation groups:
    pairs with ``alpha != beta`` are unordered, while ``{alpha, alpha}``
    splits into an unprimed and a primed label.
    """

    __slots__ = ()

    def __new__(cls, alpha, beta, primed=False):
        a, b = sorted([alpha, beta])
        if primed and a != b:
            raise ValueError("primed tag only applies when the two partitions agree")
        return tuple.__new__(cls, (a, b, bool(primed)))

    @property
    def split(self) -> bool:
        return self.alpha == self.beta

    def __str__(self) -> str:
        s = f"{{{_part_str(self.alpha)},{_part_str(self.beta)}}}"
        return s + ("'" if self.primed else "")


@lru_cache(maxsize=None)
def dlabels(n: int) -> tuple[DLabel, ...]:
    """All labels for rank-``n`` even-signed permutation group characters."""
    seen = set()
    out = []
    for bp in bipartitions(n):
        key = frozenset([bp.alpha, bp.beta])
        if key in seen:
            continue
        seen.add(key)
        if bp.alpha == bp.beta:
            out.append(DLabel(bp.alpha, bp.beta, primed=False))
            out.append(DLabel(bp.alpha, bp.beta, primed=True))
        else:
            out.append(DLabel(bp.alpha, bp.beta))
    return tuple(out)


def sign_twist(label):
    """Tensor a character label by the sign character.

    For bipartitions (hyperoctahedral groups) this swaps the two
    components and transposes each.  For :class:`DLabel` it transposes
    both components; for split labels the primed tag toggles, except on
    the empty pair, the character of the trivial group W(D0), whose
    sign character is trivial.
    """
    if isinstance(label, Bipartition):
        return Bipartition(label.beta.conjugate(), label.alpha.conjugate())
    if isinstance(label, DLabel):
        a = label.alpha.conjugate()
        b = label.beta.conjugate()
        if a == b:
            return DLabel(a, b, primed=label.primed != bool(a))
        return DLabel(a, b)
    if isinstance(label, Partition):
        return label.conjugate()
    raise TypeError(f"cannot sign-twist {label!r}")


# ---------------------------------------------------------------------------
# symbol rows


def staircase(p: Partition, length: int, offset: int = 0) -> tuple[int, ...]:
    """The parts of ``p`` in ascending order, padded with zeros in front
    to ``length`` parts, with ``2i + offset`` added to part ``i``
    (counted from 0): one row of a symbol."""
    padded = (0,) * (length - len(p)) + p.ascending()
    return tuple(x + 2 * i + offset for i, x in enumerate(padded))


def unstaircase(row, offset: int = 0) -> Partition:
    """The partition of a symbol row: the inverse of :func:`staircase`,
    subtracting ``2i + offset`` from entry ``i`` of the sorted row."""
    return Partition(map(sub, sorted(row), range(offset, offset + 2 * len(row), 2)))


# ---------------------------------------------------------------------------
# signed permutations


class SignedPermutation(value_type("SignedPermutation", "images signs", order=True)):
    """An element of the hyperoctahedral group on ``k`` coordinates.

    ``images[i]`` is the (1-based) coordinate that coordinate ``i + 1``
    is sent to, and ``signs[i]`` is the sign (+1 or -1) picked up along
    the way: acting on a torus point, coordinate ``images[i]`` of the
    result equals coordinate ``i + 1`` of the argument raised to
    ``signs[i]``.
    """

    __slots__ = ()

    def __new__(cls, images, signs):
        images = tuple(int(x) for x in images)
        signs = tuple(int(s) for s in signs)
        k = len(images)
        if sorted(images) != list(range(1, k + 1)):
            raise ValueError(f"not a permutation of 1..{k}: {images}")
        if len(signs) != k or any(s not in (-1, 1) for s in signs):
            raise ValueError(f"signs must be +-1 of length {k}: {signs}")
        return tuple.__new__(cls, (images, signs))

    @classmethod
    def from_valid(cls, images: tuple, signs: tuple) -> "SignedPermutation":
        """The element with these ``images`` and ``signs``, tuples of
        ints already known to form a signed permutation: nothing is
        converted or checked."""
        return tuple.__new__(cls, (images, signs))

    @property
    def rank(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, k: int) -> "SignedPermutation":
        return cls(tuple(range(1, k + 1)), (1,) * k)

    def __mul__(self, other: "SignedPermutation") -> "SignedPermutation":
        """Composition: ``(self * other)`` acts as ``self`` after ``other``.
        The images and signs of a product form a signed permutation, so it
        is built without the checks of the constructor."""
        images, signs = self.images, self.signs
        if len(other.images) != len(images):
            raise ValueError("rank mismatch")
        return SignedPermutation.from_valid(
            tuple(images[j - 1] for j in other.images),
            tuple(s * signs[j - 1] for j, s in zip(other.images, other.signs)),
        )

    def inverse(self) -> "SignedPermutation":
        """The inverse, built without the checks of the constructor: it
        is a signed permutation whenever ``self`` is."""
        k = self.rank
        images = [0] * k
        signs = [1] * k
        for i in range(k):
            images[self.images[i] - 1] = i + 1
            signs[self.images[i] - 1] = self.signs[i]
        return SignedPermutation.from_valid(tuple(images), tuple(signs))

    def is_identity(self) -> bool:
        return self.images == tuple(range(1, self.rank + 1)) and all(s == 1 for s in self.signs)

    def __str__(self) -> str:
        bits = []
        for i in range(self.rank):
            s = "-" if self.signs[i] < 0 else ""
            bits.append(f"{i + 1}->{s}{self.images[i]}")
        return "[" + " ".join(bits) + "]"


@lru_cache(maxsize=None)
def all_signed_permutations(k: int) -> tuple[SignedPermutation, ...]:
    out = []
    for perm in permutations(range(1, k + 1)):
        for signs in product((1, -1), repeat=k):
            out.append(SignedPermutation(perm, signs))
    return tuple(out)


# ---------------------------------------------------------------------------
# integer row reduction and Smith normal form


def hermite_reduce(rows, width):
    """Row-reduce the integer ``rows`` in place on their first ``width``
    columns and return the rank ``r`` of those columns.

    Euclid runs down the columns on whole rows: rows are only swapped,
    negated, or changed by adding an integer multiple of another row, so
    the columns past ``width`` are carried along.  Started on ``[A | I]``
    they record a unimodular ``U`` with ``U A = H``.  Afterwards the first
    ``width`` columns of ``rows[:r]`` are the Hermite normal form of the
    row lattice: positive pivots in strictly increasing columns, the
    entries above each pivot in ``[0, pivot)``, zeros left of each pivot.
    The rows ``rows[r:]`` vanish on the first ``width`` columns, so their
    carried parts span the left kernel of ``A``.
    """
    n = len(rows)
    r = 0
    for c in range(width):
        p = None
        for i in range(r, n):
            x = rows[i][c]
            if x and (p is None or abs(x) < least):
                p, least = i, abs(x)
        if p is None:
            continue
        # Euclid: the row with the least nonzero entry in column c reduces
        # the other rows, until no other row from r on is nonzero there
        while True:
            piv = rows[p]
            a = piv[c]
            nxt = None
            for i in range(r, n):
                x = rows[i][c]
                if x and i != p:
                    q = x // a
                    row = rows[i] = [u - q * v for u, v in zip(rows[i], piv)]
                    x = row[c]
                    if x and (nxt is None or abs(x) < least):
                        nxt, least = i, abs(x)
            if nxt is None:
                break
            p = nxt
        if a < 0:
            piv = [-x for x in piv]
            a = -a
        rows[p] = rows[r]
        rows[r] = piv
        for k in range(r):
            q = rows[k][c] // a
            if q:
                rows[k] = [x - q * y for x, y in zip(rows[k], piv)]
        r += 1
        if r == n:
            break
    return r


def smith_normal_form(matrix):
    """Smith normal form over the integers.

    Returns ``(S, U, V)`` with ``U @ A @ V == S``, where ``U`` and ``V``
    are unimodular and ``S`` is diagonal with nonnegative entries, each
    dividing the next.  :func:`hermite_reduce` runs alternately on the
    rows of ``[A | U]`` and on the rows of ``[A^T | V^T]`` until ``A`` is
    diagonal; where a diagonal entry does not divide the next, the next
    column is added to it and the alternation resumes.
    """
    A = [list(map(int, row)) for row in matrix]
    n = len(A)
    m = len(A[0]) if n else 0
    U, Vt = identity_matrix(n), identity_matrix(m)
    if not n or not m:
        return A, U, Vt
    while True:
        rows = [a + u for a, u in zip(A, U)]
        hermite_reduce(rows, m)
        U = [row[m:] for row in rows]
        cols = [list(a) + v for a, v in zip(zip(*rows), Vt)]
        r = hermite_reduce(cols, n)
        if all(col[i] and not any(col[i + 1:n]) for i, col in enumerate(cols[:r])):
            # diagonal: where d_i does not divide d_(i+1), add column i + 1
            # to column i, and the next row step puts their gcd at (i, i)
            i = next((i for i in range(r - 1) if cols[i + 1][i + 1] % cols[i][i]), None)
            if i is None:
                S = [[0] * m for _ in range(n)]
                for k in range(r):
                    S[k][k] = cols[k][k]
                return S, U, [list(v) for v in zip(*cols)][n:]
            cols[i] = [x + y for x, y in zip(cols[i], cols[i + 1])]
        Vt = [col[n:] for col in cols]
        A = [list(a) for a in zip(*cols)][:n]


def identity_matrix(k):
    return [[0] * i + [1] + [0] * (k - i - 1) for i in range(k)]

