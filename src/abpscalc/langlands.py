"""Formal enhanced Langlands parameters for split classical groups.

Parameters are formal sums of lines ``character x S_a``; the characters
are opaque catalogue atoms carrying only a name, a dimension, a
self-duality type and a symbolic unramified twist.  Everything needed
downstream -- centralizers, component groups, cuspidality, cuspidal
support with correcting cocharacters -- is computed from this formal
data with exact arithmetic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, starmap

from .combicore import Partition
from .extquot import ONE, SymbolicCoordinate, q_power
from .springer import (
    ClassReader,
    ComplexGroup,
    CuspidalTriple,
    GroupFactor,
    SignCharacter,
    UnipotentClass,
    class_reader,
    core_partition,
    identity_component,
)


class DimensionMismatch(ValueError):
    pass


class TypeMismatch(ValueError):
    pass


class InvalidEnhancement(ValueError):
    pass


class UnknownCharacter(KeyError):
    pass


# ---------------------------------------------------------------------------
# the character catalogue


@dataclass(frozen=True)
class CharacterClass:
    """A declared inertial class of irreducible Weil-group characters."""

    name: str
    ramified: bool = True
    order: int = 2
    dim: int = 1
    selfdual: str = "orthogonal"
    period: int = 1


_CHOICES = {"kind": ("ramified", "unramified"),
            "selfdual": ("orthogonal", "symplectic", "none")}
_ALLOWED_KEYS = {"order", "dim", "period", *_CHOICES}


def _catalogue_value(name, key, val):
    """The value of field ``key`` of character ``name``: one of the
    words of ``_CHOICES``, or else a positive integer."""
    if key in _CHOICES:
        if val in _CHOICES[key]:
            return val
        expected = "one of " + ", ".join(_CHOICES[key])
    elif val.isdecimal() and int(val) > 0:
        return int(val)
    else:
        expected = "a positive integer"
    raise ValueError(f"bad catalogue value {key}={val} for {name!r}: expected {expected}")


def parse_catalogue(text: str):
    """One declaration per line:
    ``name kind=ramified|unramified order=<int> dim=<int>
    selfdual=orthogonal|symplectic|none period=<int>``."""
    out = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, *fields = line.split()
        kw = {}
        for f in fields:
            key, _, val = f.partition("=")
            if key not in _ALLOWED_KEYS or not val:
                raise ValueError(f"bad catalogue field {f!r} for {name!r}")
            kw[key] = _catalogue_value(name, key, val)
        out[name] = CharacterClass(
            name=name,
            ramified=kw.get("kind", "ramified") == "ramified",
            order=kw.get("order", 2),
            dim=kw.get("dim", 1),
            selfdual=kw.get("selfdual", "orthogonal"),
            period=kw.get("period", 1),
        )
    return out


DEFAULT_CATALOGUE = parse_catalogue(
    """
    1    kind=unramified order=1 dim=1 selfdual=orthogonal period=1
    zeta kind=ramified   order=2 dim=1 selfdual=orthogonal period=1
    eta  kind=ramified   order=2 dim=1 selfdual=orthogonal period=1
    """
)


@dataclass(frozen=True)
class WFLine:
    """A catalogue character with a symbolic unramified twist.

    ``name`` is the rendered line, stored at construction: printing,
    hashing and the summand orders read it instead of rendering the
    twist again.  Equal lines have equal names, so hashing the name
    agrees with the field-wise ``__eq__``."""

    base: CharacterClass
    twist: SymbolicCoordinate = ONE
    name: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t = str(self.twist)
        if t == "1":
            name = self.base.name
        elif self.base.order == 1 and self.base.name == "1":
            name = t
        else:
            name = f"{t}*{self.base.name}" if t != "-1" else f"{self.base.name}*xi"
        object.__setattr__(self, "name", name)

    def __hash__(self) -> int:
        return hash(self.name)

    def __lt__(self, other: "WFLine") -> bool:
        """A total order on lines by value, the name first: two lines
        with one name (``zeta`` and the trivial character twisted by a
        variable ``zeta``) compare by their catalogue fields and then by
        their twists."""
        return _line_order(self) < _line_order(other)

    @property
    def dim(self) -> int:
        return self.base.dim

    def twisted(self, c: SymbolicCoordinate) -> "WFLine":
        return WFLine(self.base, self.twist * c)

    def dual(self) -> "WFLine":
        if self.base.selfdual == "none":
            raise TypeMismatch(f"no declared dual for {self.name}")
        return WFLine(self.base, self.twist.inverse())

    @property
    def is_selfdual(self) -> bool:
        """Whether the line equals its dual: the character is declared
        self-dual and the twist is its own inverse, that is, the twist
        has no ``q`` power and no monomial, and its torsion is 0 or 1/2."""
        t = self.twist
        return (
            self.base.selfdual != "none"
            and t.qexp == 0
            and not t.monomial
            and t.torsion.denominator <= 2
        )

    def __str__(self) -> str:
        return self.name


def _line_order(l: WFLine) -> tuple:
    b, t = l.base, l.twist
    return (l.name, b.name, b.ramified, b.order, b.dim, b.selfdual, b.period,
            t.torsion, t.qexp, t.monomial)


def line(name: str, twist: SymbolicCoordinate = ONE, catalogue=None) -> WFLine:
    catalogue = catalogue or DEFAULT_CATALOGUE
    if name == "xi":
        return WFLine(catalogue["1"], SymbolicCoordinate(Fraction(1, 2)) * twist)
    if name not in catalogue:
        raise UnknownCharacter(name)
    return WFLine(catalogue[name], twist)


# ---------------------------------------------------------------------------
# groups and parameters


@dataclass(frozen=True)
class PadicGroup:
    """A split classical p-adic group, named by family and matrix size."""

    family: str
    size: int

    def __post_init__(self):
        if self.family not in ("Sp", "SO", "GL"):
            raise ValueError(f"unsupported family {self.family}")
        if self.family == "Sp" and self.size % 2:
            raise ValueError("symplectic groups have even size")

    def dual(self) -> ComplexGroup:
        return ComplexGroup((GroupFactor(self.dual_kind, self.dual_dim),))

    @property
    def dual_dim(self) -> int:
        if self.family == "Sp":
            return self.size + 1
        if self.family == "SO" and self.size % 2:
            return self.size - 1
        return self.size

    @property
    def dual_kind(self) -> str:
        """Sp(2n) is dual to SO(2n+1), SO(2n+1) to Sp(2n), SO(2n) to
        itself and GL(n) to itself."""
        if self.family == "SO" and self.size % 2:
            return "Sp"
        return "SO" if self.family == "Sp" else self.family

    def __str__(self) -> str:
        return f"{self.family}{self.size}(F)"


@dataclass(frozen=True)
class FormalParameter:
    """A formal sum of summands ``line x S_a``.

    The summands are stored in a canonical order, by line name, then
    ``a``, then the line's value (:meth:`WFLine.__lt__`), so equal
    multisets of summands make equal parameters whatever their input
    order.  The hash is computed once, from the canonical summands, at
    construction: the memos keyed by a parameter look it up several
    times.  It depends on the process's string hashing, so a parameter
    pickles and copies as its summands, and loading one computes the
    hash again."""

    summands: tuple

    def __post_init__(self):
        canon = tuple(sorted(self.summands, key=lambda s: (s[0].name, s[1], s[0])))
        object.__setattr__(self, "summands", canon)
        object.__setattr__(self, "_hash", hash(canon))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return FormalParameter, (self.summands,)

    @property
    def dim(self) -> int:
        return sum(l.dim * a for l, a in self.summands)

    def __str__(self) -> str:
        return " + ".join(
            str(l) if a == 1 else f"{l}*S[{a}]" for l, a in self.summands
        )


def parameter(*summands) -> FormalParameter:
    out = []
    for s in summands:
        if isinstance(s, WFLine):
            out.append((s, 1))
        else:
            out.append((s[0], int(s[1])))
    return FormalParameter(tuple(out))


@dataclass(frozen=True)
class EnhancedParameter:
    param: FormalParameter
    enhancement: SignCharacter

    def __str__(self) -> str:
        return f"({self.param}, {self.enhancement})"


# ---------------------------------------------------------------------------
# validation


def _check_dimension(G: PadicGroup, phi: FormalParameter):
    if phi.dim != G.dual_dim:
        raise DimensionMismatch(
            f"parameter of dimension {phi.dim} for {G} (need {G.dual_dim})"
        )


def validate(G: PadicGroup, phi: FormalParameter) -> FormalParameter:
    """Dimension, self-duality closure and type checks; returns ``phi``.
    The type checks are the refusals of :func:`centralizer_restriction`."""
    _check_dimension(G, phi)
    if G.family != "GL":
        centralizer_restriction(G, phi)
    return phi


def is_tempered(G: PadicGroup, phi: FormalParameter) -> bool:
    return all(l.twist.qexp == 0 for l, _ in phi.summands)


def is_discrete(G: PadicGroup, phi: FormalParameter) -> bool:
    """For ``GL``, one summand.  Otherwise the memoised centralizer has
    no ``GL`` factor and distinct parts in each factor (so all of the
    parity the factor marks).  A refused parameter is not discrete; this
    never raises."""
    if G.family == "GL":
        return len(phi.summands) == 1
    try:
        data = centralizer_restriction(G, phi)
    except TypeMismatch:
        return False
    return all(f.kind != "GL" and len(f.parts.distinct_parts()) == len(f.parts)
               for f in data.factors)


# ---------------------------------------------------------------------------
# centralizers


@dataclass(frozen=True)
class IsotypicFactor:
    line: WFLine
    partner: object  # the dual line for GL pairs, None otherwise
    kind: str  # "O", "Sp" or "GL"
    parts: Partition


@dataclass(frozen=True)
class CentralizerData:
    """The centralizer ``group`` of a parameter's Weil restriction, with
    the isotypic factor behind each of its factors.  The unipotent class
    of the parameter and the Springer reader of that class are computed
    on first use and kept on the instance, so a memoised centralizer
    reads each of them once."""

    group: ComplexGroup
    factors: tuple  # IsotypicFactor per group factor, in order

    @cached_property
    def unipotent(self) -> UnipotentClass:
        return UnipotentClass(
            tuple(f.parts for f in self.factors),
            ("",) * len(self.factors),
        )

    @cached_property
    def springer(self) -> ClassReader:
        """The generalized Springer correspondence on the pairs of the
        class ``unipotent``: its component groups A and A°, characters
        and reads.  The reader is the shared one of (``group``,
        ``unipotent``) (:func:`springer.class_reader`), so centralizers
        that differ only in their lines read one reader."""
        return class_reader(self.group, self.unipotent)


@lru_cache
def centralizer_restriction(G: PadicGroup, phi: FormalParameter) -> CentralizerData:
    """Centralizer of the Weil-restriction in the dual group, as a
    product of GL factors and of orthogonal and symplectic factors, with
    the S-multiplicity partitions.  A self-dual line gets an orthogonal
    factor when its type is that of the dual group and a symplectic one
    otherwise (Gan-Gross-Prasad, Asterisque 346, section 4); in an
    orthogonal dual group the orthogonal factors have joint determinant
    one.

    It is the one reader of summands by type, so :func:`validate`'s
    type check: for a group that is not ``GL`` it refuses with
    ``TypeMismatch`` a line with no declared dual, a twisted line whose
    dual is absent or has other parts, and an even part of an ``O``
    factor or an odd part of an ``Sp`` factor (a summand of the other
    type) with odd multiplicity.

    Memoised by value on ``(G, phi)``, with the default 128 entries, for
    the life of the process: every function of this module that needs
    the centralizer of a parameter, :func:`validate` and
    :func:`is_discrete` included, looks it up here, so the calls made
    for one parameter compute it once.  The centralizer carries the
    unipotent class of the parameter and its Springer reader
    (``CentralizerData.springer``: symbols, component groups, characters
    and reads of the class, shared by every centralizer of the same
    group and class), each looked up on first use, so those calls also
    read the class once.  The result is frozen and shared between
    callers; a refused input is not stored."""
    per_line = {}
    for l, a in phi.summands:
        per_line.setdefault(l, []).append(a)
    target_type, other_type = (("symplectic", "orthogonal") if G.dual_kind == "Sp"
                               else ("orthogonal", "symplectic"))
    gl, selfdual = [], []  # (sort key, factor)
    paired = set()  # dual lines already taken into a GL pair
    for l, mult in per_line.items():
        if l in paired:
            continue
        parts = Partition(sorted(mult, reverse=True))
        name = l.name
        if G.family == "GL":
            gl.append((name, IsotypicFactor(l, None, "GL", parts)))
        elif l.is_selfdual:
            kind = "O" if l.base.selfdual == target_type else "Sp"
            wrong = 0 if kind == "O" else 1  # the parity of the other type
            for a in parts.distinct_parts():
                if a % 2 == wrong and parts.multiplicity(a) % 2:
                    raise TypeMismatch(
                        f"{other_type} summand {l}*S[{a}] occurs with odd "
                        f"multiplicity in a {target_type} parameter"
                    )
            selfdual.append(((-sum(parts.parts), name), IsotypicFactor(l, None, kind, parts)))
        else:
            d = l.dual()
            dname = d.name
            if per_line.get(d) != mult:  # both ascending: summands sort by line, then a
                raise TypeMismatch(f"dual pair {l}, {d} has mismatched parts")
            rep, other = (l, d) if name <= dname else (d, l)
            gl.append((min(name, dname), IsotypicFactor(rep, other, "GL", parts)))
            paired.add(d)
    gl = [f for _, f in sorted(gl, key=lambda kf: kf[0])]
    selfdual = [f for _, f in sorted(selfdual, key=lambda kf: kf[0])]
    factors, pieces = [], []
    for f in gl:
        factors.append(f)
        pieces.append(GroupFactor("GL", sum(f.parts.parts)))
    det1 = False
    for f in selfdual:
        m = sum(f.parts.parts)
        factors.append(f)
        if f.kind == "Sp":
            pieces.append(GroupFactor("Sp", m))
        else:
            pieces.append(GroupFactor("O", m))
            det1 = True
    det1 = det1 and G.dual_kind != "Sp"
    group = ComplexGroup(tuple(pieces), det1=det1)
    return CentralizerData(group, tuple(factors))


def connected_centralizer(data: CentralizerData) -> ComplexGroup:
    """The identity component of the centralizer: each ``O`` factor
    becomes ``SO``, with no determinant-one coupling."""
    return identity_component(data.group)


@dataclass(frozen=True)
class ComponentGroups:
    a_group: object
    a_connected: object
    s_order: int


def _central_image_nontrivial(G: PadicGroup, A) -> bool:
    """Whether the dual-group center maps onto a nontrivial element of
    the component group: the all-generators product, when the
    presentation contains it."""
    if G.dual_kind == "SO" and G.dual_dim % 2:
        return False  # trivial center
    if not A.generators:
        return False
    # the product of all generators satisfies every even-product
    # constraint exactly when each class has an even number of generators
    return all(len(c) % 2 == 0 for c in A.classes)


def component_groups(G: PadicGroup, phi: FormalParameter) -> ComponentGroups:
    """The component groups of the parameter, read from the Springer
    reader of its memoised centralizer: A, and A° in the identity
    component, which the shared reader of the class builds once."""
    data = centralizer_restriction(G, phi)
    reader = data.springer
    A, Ao = reader.component_group, reader.connected_component_group
    s_order = A.order // (2 if _central_image_nontrivial(G, A) else 1)
    return ComponentGroups(A, Ao, s_order)


# ---------------------------------------------------------------------------
# cuspidality


def is_cuspidal(G: PadicGroup, phi: FormalParameter):
    """Whether the parameter is cuspidal, with the list of cuspidal
    enhancements (empty when not).  A parameter whose dimension is not
    that of the dual group is refused with ``DimensionMismatch``; one
    that :func:`centralizer_restriction` refuses is not cuspidal.  Core
    partitions are discrete, so the centralizer is looked up once."""
    _check_dimension(G, phi)
    if G.family == "GL":
        ok = len(phi.summands) == 1 and phi.summands[0][1] == 1
        return ok, []
    try:
        data = centralizer_restriction(G, phi)
    except TypeMismatch:
        return False, []
    for f in data.factors:
        if f.kind == "GL" or f.parts != core_partition(f.kind, len(f.parts)):
            return False, []
    reader = data.springer
    chars = [ch for ch in reader.characters if reader.read(ch)[0].is_cuspidal]
    return bool(chars), chars


# ---------------------------------------------------------------------------
# infinitesimal characters


@lru_cache(maxsize=512)
def _segment(l: WFLine, a: int) -> tuple:
    """The twisted lines ``l * q^{(a-1)/2}, ..., l * q^{-(a-1)/2}`` of
    the summand ``l x S_a``.  Memoised by value on ``(l, a)``, with 512
    entries, for the life of the process: the ``params`` benchmark pass
    at seed 1 meets 351 distinct summands, so each misses once."""
    return tuple(l.twisted(q_power(a + 1 - 2 * j)) for j in range(1, a + 1))


def infinitesimal_character(G: PadicGroup, phi: FormalParameter) -> Counter:
    """Multiset of twisted lines ``l * q^{(a+1-2j)/2}``, j = 1..a: a
    fresh ``Counter`` on every call, counting the memoised segments of
    all summands in one pass."""
    return Counter(chain.from_iterable(starmap(_segment, phi.summands)))


# ---------------------------------------------------------------------------
# cuspidal support


def _weight_expansion(parts):
    out = []
    for a in parts:
        out.extend(range(a - 1, -a, -2))
    return out


@dataclass(frozen=True)
class CuspidalSupportResult:
    levi_dual: ComplexGroup
    coordinates: tuple  # (WFLine, half-q exponent) per GL(1) coordinate
    core: FormalParameter
    core_triple: CuspidalTriple
    labels: tuple  # relative-Weyl character labels of the enhancement
    factors: tuple = ()  # the IsotypicFactor list the labels refer to

    @property
    def correcting(self):
        return tuple(e for _, e in self.coordinates)

    def embedded(self) -> FormalParameter:
        """The support parameter pushed back into the full dual group:
        every coordinate contributes itself and its dual line."""
        summands = list(self.core.summands)
        for l, e in self.coordinates:
            t = l.twisted(q_power(e))
            summands.append((t, 1))
            summands.append((t.dual(), 1))
        return FormalParameter(tuple(summands))

    def __str__(self) -> str:
        coords = ", ".join(f"{l}*q^{{{e}/2}}" if e else str(l)
                           for l, e in self.coordinates)
        return f"[{self.levi_dual}; ({coords}); {self.core}]"


def _positive_weights(parts):
    """The positive weights ``a-1, a-3, ... > 0`` of each part ``a``."""
    return [e for a in parts for e in range(a - 1, 0, -2)]


@lru_cache
def _core_weights(parts, core_parts) -> tuple:
    """The correcting exponents of :func:`_correcting_weights`, as a
    tuple; a refusal names the weight only.  Memoised by value on
    ``(parts, core_parts)``, with the default 128 entries, for the life
    of the process; a refusal is not stored."""
    rest = _positive_weights(parts)
    for e in sorted(_positive_weights(core_parts), reverse=True):
        try:
            rest.remove(e)
        except ValueError:
            raise InvalidEnhancement(f"unpaired weight {e}") from None
    zeros = sum(a % 2 for a in parts) - sum(a % 2 for a in core_parts)
    if zeros < 0 or zeros % 2:
        raise InvalidEnhancement("unpaired weight 0")
    return tuple(rest) + (0,) * (zeros // 2)


def _correcting_weights(parts, core_parts, where) -> tuple:
    """The correcting exponents of a classical factor with Jordan parts
    ``parts`` around the cuspidal core ``core_parts``, as a multiset:
    the positive weights of the parts less those of the core, and a 0
    for every two odd parts beyond the core's (each odd part has one
    weight 0, and the weights pair off as ``e, -e``).  A core weight
    the parts lack, or an odd number of zero weights, is refused, with
    the largest unpaired weight in the message; ``where`` names the
    factor."""
    try:
        return _core_weights(parts, core_parts)
    except InvalidEnhancement as exc:
        raise InvalidEnhancement(f"{exc} in factor {where}") from None


@lru_cache
def _levi(G: PadicGroup, k: int, core_dim: int) -> ComplexGroup:
    """The dual Levi ``GL(1)^k x core`` of ``G`` with a core of dimension
    ``core_dim`` (no core for ``GL``).  Memoised by value, with the
    default 128 entries, for the life of the process."""
    pieces = [GroupFactor("GL", 1)] * k
    if G.family != "GL":
        pieces.append(GroupFactor(G.dual_kind, max(core_dim, 1) if G.dual_kind != "Sp" else core_dim))
    return ComplexGroup(tuple(pieces), det1=False)


def block_support(G: PadicGroup, data: CentralizerData, triple: CuspidalTriple,
                  labels) -> CuspidalSupportResult:
    """The cuspidal support of a pair of the class ``data.unipotent`` in
    the generalized Springer block ``triple`` of the centralizer
    ``data``, with the pair's relative-Weyl ``labels``: the block
    determines the dual Levi, the cuspidal core, and the correcting
    exponents on the GL coordinates.  The core partitions, the weights
    of each classical factor and the Levi come from memos on small keys
    (:func:`core_partition`, :func:`_core_weights`, :func:`_levi`)."""
    coords, core_summands = [], []  # coords: ((-e, name of the line), (line, e))
    for i, f in enumerate(data.factors):
        if f.kind == "GL":
            weights = _weight_expansion(f.parts.parts)
        else:
            core_parts = triple.core_partition(i).parts
            core_summands.extend((f.line, a) for a in core_parts)
            weights = _correcting_weights(f.parts.parts, core_parts, f.line)
        name = f.line.name
        coords.extend(((-e, name), (f.line, e)) for e in weights)
    coords = [c for _, c in sorted(coords, key=lambda kc: kc[0])]
    core_dim = sum(l.dim * a for l, a in core_summands)
    return CuspidalSupportResult(
        _levi(G, len(coords), core_dim),
        tuple(coords),
        FormalParameter(tuple(core_summands)),
        triple,
        labels,
        data.factors,
    )


def cuspidal_support(G: PadicGroup, phi: FormalParameter,
                     eta: SignCharacter) -> CuspidalSupportResult:
    """The cuspidal support of an enhanced parameter: the Springer
    reader that the memoised centralizer carries finds the block of the
    pair, and :func:`block_support` reads the support off it.  An
    ``eta`` that is not a character of the component group of the
    parameter is refused."""
    data = centralizer_restriction(G, phi)
    reader = data.springer
    try:
        triple, labels = reader.read(eta)
    except ValueError as exc:
        raise InvalidEnhancement(str(exc)) from exc
    return block_support(G, data, triple, labels)


def centralizer_display(data: CentralizerData) -> str:
    """Display name of the centralizer, absorbing a lone ``S(O1)``
    coupling into the other factors (the determinant of an O1 block is
    forced by the rest)."""
    group = data.group
    ofactors = [f for f in group.factors if f.kind == "O"]
    if group.det1 and ofactors == [GroupFactor("O", 1)] and len(group.factors) > 1:
        return str(ComplexGroup(tuple(f for f in group.factors if f.kind != "O")))
    return str(group)


def enhancements(G: PadicGroup, phi: FormalParameter):
    """All sign characters of the component group of the parameter, as
    a fresh list, with the (memoised) centralizer whose Springer reader
    holds them."""
    data = centralizer_restriction(G, phi)
    return data, list(data.springer.characters)
