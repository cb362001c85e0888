"""Inertial families of enhanced parameters and their extended quotients.

An inertial triple records a dual Levi of the form GL(1)^k x (core),
a cuspidal core parameter, and a cuspidal character.  The unramified
twists of the GL(1) coordinates sweep out a torus; the normalizer of
the Levi acts on it by signed permutations of the coordinates.  This
module matches the spectral extended quotient of that action with the
enhanced parameters whose cuspidal support lies in the triple, slot by
slot, and exposes the downstream structure: twisting maps theta_z, the
support map as an orbit map, temperedness and discreteness filters,
packet grouping, and the block decomposition of an inertial packet.
"""

from dataclasses import dataclass
from itertools import combinations
from math import factorial

from .combicore import (
    Bipartition,
    DLabel,
    Partition,
    all_signed_permutations,
)
from .extquot import (
    MonomialAction,
    SymbolicCoordinate,
    SymbolicTorusPoint,
    act,
    full_torus,
    q_power,
    strata,
)
from .langlands import (
    CentralizerData,
    DimensionMismatch,
    EnhancedParameter,
    FormalParameter,
    IsotypicFactor,
    PadicGroup,
    TypeMismatch,
    cuspidal_support,
    enhancements,
    is_cuspidal,
    is_discrete,
    validate,
)
from .springer import (
    UnrecognizedStructure,
    generalized_springer,
    springer_blocks,
    unipotent_classes,
)


class MatchingError(ValueError):
    """The spectral families and the enhanced parameters of a triple
    could not be paired off."""


class InvalidCore(ValueError):
    """The core of an inertial triple is not a cuspidal parameter of the
    core group, or with the torus coordinates does not make a parameter
    of the target group."""


# ---------------------------------------------------------------------------
# inertial triples and their torus


@dataclass(frozen=True)
class InertialTriple:
    """A dual Levi GL(1)^k x (core) with a cuspidal core datum.

    ``coordinates`` lists the character line carried by each GL(1)
    coordinate at the base point (all unramified twists trivial);
    ``core`` is the cuspidal parameter of the core factor and
    ``core_char`` its cuspidal character (``None`` for a trivial core).
    """

    group: PadicGroup
    coordinates: tuple
    core: FormalParameter
    core_char: object = None

    @property
    def rank(self) -> int:
        return len(self.coordinates)

    def __str__(self) -> str:
        coords = ", ".join(str(l) for l in self.coordinates)
        return f"[GL1^{self.rank} ({coords}); {self.core}]"


def inertial_triple(group, coordinates, core=FormalParameter(())) -> InertialTriple:
    return InertialTriple(group, tuple(coordinates), core)


def _inertial_action(triple: InertialTriple) -> MonomialAction:
    """Signed permutations preserving the coordinate classes: a slot may
    move to a slot of the same class, and inversion needs a self-dual
    class (for GL targets no dual is available at all)."""
    coords = triple.coordinates
    invertible = triple.group.family != "GL"
    kept = []
    for w in all_signed_permutations(len(coords)):
        ok = True
        for i in range(len(coords)):
            src, dst = coords[i], coords[w.images[i] - 1]
            if src.base.name != dst.base.name:
                ok = False
                break
            if w.signs[i] == -1 and not (invertible and src.base.selfdual != "none"):
                ok = False
                break
        if ok:
            kept.append(w)
    return MonomialAction(tuple(kept))


@dataclass(frozen=True)
class InertialData:
    """The torus with identification data, the acting group, and the
    stabilizer strata of an inertial triple."""

    triple: InertialTriple
    periods: tuple  # finite identification order per coordinate
    action: MonomialAction
    strata: tuple

    @property
    def rank(self) -> int:
        return self.triple.rank


def _core_group(triple: InertialTriple) -> PadicGroup:
    """The group of the core factor: each torus coordinate takes two
    from the size of ``Sp`` and ``SO``, one from that of ``GL``."""
    G = triple.group
    return PadicGroup(G.family, G.size - triple.rank * (1 if G.family == "GL" else 2))


def _check_core(triple: InertialTriple):
    """Refuse a non-empty core whose base restriction parameter fails
    :func:`validate` or that is not cuspidal for the core group."""
    G, core = triple.group, triple.core
    try:
        validate(G, _restriction_parameter(triple, triple.coordinates))
    except (DimensionMismatch, TypeMismatch) as exc:
        raise InvalidCore(f"core {core} does not fit {G}: {exc}") from exc
    H = _core_group(triple)
    if not is_cuspidal(H, core)[0]:
        raise InvalidCore(f"core {core} is not cuspidal for {H}")


def build_inertial(G: PadicGroup, triple: InertialTriple) -> InertialData:
    if G != triple.group:
        raise ValueError("triple was declared for a different target group")
    if triple.core.summands:
        _check_core(triple)
    action = _inertial_action(triple)
    periods = tuple(l.base.period for l in triple.coordinates)
    return InertialData(triple, periods, action, tuple(strata(action)))


def action_table(data: InertialData):
    """One row per group element: the images of the generic coordinates."""
    t = full_torus(data.rank).generic_point()
    rows = []
    for w in data.action.elements:
        rows.append((w, act(w, t)))
    rows.sort(key=lambda r: (sum(s < 0 for s in r[0].signs)
                             + sum(r[0].images[i] != i + 1 for i in range(data.rank)),
                             str(r[1])))
    return rows


# ---------------------------------------------------------------------------
# enumerating the enhanced parameters of a triple


def _slot_lines(triple: InertialTriple, base: SymbolicTorusPoint):
    return tuple(
        triple.coordinates[i].twisted(base.coords[i])
        for i in range(triple.rank)
    )


def _restriction_parameter(triple, slot_lines) -> FormalParameter:
    summands = [(l, 1) for l in slot_lines]
    if triple.group.family != "GL":
        summands.extend((l.dual(), 1) for l in slot_lines)
    for l, a in triple.core.summands:
        summands.extend([(l, 1)] * a)
    return FormalParameter(tuple(summands))


def _rebuild(data, u):
    """The parameter with the same Weil restriction and the given
    Jordan structure on each isotypic factor, with its centralizer:
    ``data`` with each factor's parts replaced by the class's partition
    (the lines, their order and the group do not change)."""
    summands, factors = [], []
    for f, lam in zip(data.factors, u.partitions):
        for a in lam.parts:
            summands.append((f.line, a))
            if f.partner is not None:
                summands.append((f.partner, a))
        factors.append(IsotypicFactor(f.line, f.partner, f.kind, lam))
    return FormalParameter(tuple(summands)), CentralizerData(data.group, tuple(factors))


def _support_signature(tri, factors):
    """What the cuspidal support of a Springer block looks like through
    inertial glasses: the line, core partition and sign of each factor
    with a cuspidal core, compared by value.  It fixes the core
    parameter, and with it the number of GL(1) coordinates."""
    return frozenset(
        (f.line, tri.core_partition(i).parts, tri.signs[i])
        for i, f in enumerate(factors) if f.kind != "GL" and tri.ds[i]
    )


@dataclass(frozen=True)
class MuEntry:
    """One matched point: a stabilizer character of a stratum paired
    with an enhanced parameter supported in the triple."""

    stratum: object
    irrep: object
    family: object  # the EQPoint when this pair starts a spectral family
    param: FormalParameter
    eta: object
    u: object
    support: object
    cochar: tuple  # correcting exponent per coordinate, in sqrt-q units
    component: Partition  # display label of the unipotent component

    @property
    def enhanced(self) -> EnhancedParameter:
        return EnhancedParameter(self.param, self.eta)

    def __str__(self) -> str:
        return f"({self.stratum.base}, {self.irrep}) <-> ({self.param}, {self.eta})"


@dataclass(frozen=True)
class MuData:
    inertial: InertialData
    entries: tuple

    @property
    def families(self):
        return tuple(e for e in self.entries if e.family is not None)


def _factor_slots(data, slot_lines):
    out = []
    for f in data.factors:
        slots = tuple(
            i for i, l in enumerate(slot_lines)
            if l == f.line or (f.partner is not None and l == f.partner)
        )
        out.append(slots)
    return out


def _block_key(data, labels, factor_slots):
    entries = []
    for i, f in enumerate(data.factors):
        slots = factor_slots[i]
        if not slots:
            continue
        label = labels[i]
        if f.kind == "GL":
            if len(slots) >= 2:
                entries.append((min(slots), "A", label))
        else:
            entries.append((min(slots), "B", label))
    entries.sort()
    return tuple((kind, label) for _, kind, label in entries)


def _conjugate_label(label):
    if isinstance(label, Bipartition):
        return Bipartition(label.alpha.conjugate(), label.beta.conjugate())
    if isinstance(label, DLabel):
        return DLabel(label.alpha.conjugate(), label.beta.conjugate())
    return label


_PLUS = Bipartition(Partition((1,)), Partition(()))
_MINUS = Bipartition(Partition(()), Partition((1,)))


def _slot_signs(gens, label):
    """Rewrite a character of a diagonal sign group, given on arbitrary
    generators, as one sign per flipped slot (0-based)."""
    vecs = [frozenset(g) for g in gens]
    out = {}
    for s in sorted(set().union(*vecs)):
        value = None
        for r in range(len(vecs) + 1):
            for combo in combinations(range(len(vecs)), r):
                acc = frozenset()
                for i in combo:
                    acc = acc ^ vecs[i]
                if acc == {s}:
                    value = 1
                    for i in combo:
                        value *= label[i]
                    break
            if value is not None:
                break
        if value is None:
            raise UnrecognizedStructure(
                f"slot {s} carries no individual sign flip"
            )
        out[s - 1] = value
    return out


def _spectral_key(group, irrep):
    """The stabilizer character written in the same alphabet as the
    Springer labels of the centralizer: permutation pieces keep their
    partition, reflection pieces transpose, and each diagonal sign slot
    becomes a one-box bipartition."""
    labels = irrep if len(group.pieces) > 1 else (irrep,)
    entries = []
    for (kind, data), label in zip(group.pieces, labels):
        if kind == "A":
            entries.append((min(data), "A", label))
        elif kind in ("B", "D"):
            entries.append((min(data), "B", _conjugate_label(label)))
        else:  # E2: one sign per generator, generators are 1-based
            for slot, e in _slot_signs(data, label).items():
                entries.append((slot, "B", _PLUS if e == 1 else _MINUS))
    entries.sort()
    return tuple((kind, label) for _, kind, label in entries)


def _component_label(triple, data, u) -> Partition:
    parts = []
    for f, lam in zip(data.factors, u.partitions):
        parts.extend(lam.parts)
        if f.kind == "GL":
            parts.extend(lam.parts)
    for _, a in triple.core.summands:
        parts.remove(a)
    return Partition(tuple(sorted(parts, reverse=True)))


def _cochar(res, data, factor_slots, slot_lines, rank):
    out = [None] * rank
    coords = list(res.coordinates)
    for i, f in enumerate(data.factors):
        slots = factor_slots[i]
        if not slots:
            continue
        exps = sorted((e for l, e in coords if l == f.line), reverse=True)
        rep = [s for s in slots if slot_lines[s] == f.line]
        if f.partner is not None and len(rep) < len(slots):
            other = [s for s in slots if s not in rep]
            for s, e in zip(rep, exps):
                out[s] = e
            for s, e in zip(other, sorted((-e for e in exps), reverse=True)):
                out[s] = e
        else:
            for s, e in zip(slots, exps):
                out[s] = e
    if any(e is None for e in out):
        raise MatchingError(f"could not place all coordinates of {res}")
    return tuple(out)


def mu(G: PadicGroup, triple: InertialTriple,
       inertial: InertialData = None) -> MuData:
    """Match every stabilizer character of every stratum with an
    enhanced parameter whose cuspidal support lies in the triple.  At
    each stratum the candidates are the pairs of the one Springer block
    of the centralizer whose cuspidal core is that of the open stratum."""
    data = inertial or build_inertial(G, triple)
    reference = None
    entries = []
    for st in data.strata:
        families = {f.irrep: f for f in st.families()}
        slot_lines = _slot_lines(triple, st.base)
        restriction = validate(G, _restriction_parameter(triple, slot_lines))
        cdata, chars = enhancements(G, restriction)
        fslots = _factor_slots(cdata, slot_lines)
        if reference is None:  # the open stratum comes first
            tri, _ = generalized_springer(cdata.group, cdata.unipotent, chars[0])
            reference = _support_signature(tri, cdata.factors)
        found = {}
        for tri, rows in springer_blocks(cdata.group).items():
            if _support_signature(tri, cdata.factors) != reference:
                continue
            for u, eta, labels in rows:
                key = _block_key(cdata, labels, fslots)
                if key in found:
                    raise MatchingError(f"label collision at {st.base}: {key}")
                found[key] = (u, eta)
        for irrep in st.group.irreps():
            key = _spectral_key(st.group, irrep)
            if key not in found:
                raise MatchingError(
                    f"no enhanced parameter for ({st.base}, {irrep})"
                )
            u, eta = found.pop(key)
            phi, pdata = _rebuild(cdata, u)
            res = cuspidal_support(G, phi, eta, pdata)
            entries.append(MuEntry(
                st, irrep, families.get(irrep),
                phi, eta, u, res,
                _cochar(res, cdata, fslots, slot_lines, triple.rank),
                _component_label(triple, cdata, u),
            ))
        if found:
            raise MatchingError(
                f"unmatched enhanced parameters at {st.base}: {sorted(found)}"
            )
    return MuData(data, tuple(entries))


# ---------------------------------------------------------------------------
# the twisting maps


def _orbit(action: MonomialAction, t: SymbolicTorusPoint):
    return frozenset(act(w, t) for w in action.elements)


def theta(z: SymbolicCoordinate, entry: MuEntry, mu_data: MuData):
    """Shift the base point by the correcting cocharacter evaluated at
    ``z`` and take the orbit; at z = 1 this is the plain projection."""
    base = entry.stratum.base
    shifted = SymbolicTorusPoint(tuple(
        c * z ** e for c, e in zip(base.coords, entry.cochar)
    ))
    return _orbit(mu_data.inertial.action, shifted)


def support_orbit(entry: MuEntry, mu_data: MuData):
    """The orbit of the cuspidal-support coordinates, placed on the
    torus slots by character class."""
    triple = mu_data.inertial.triple
    values = [l.twist * q_power(e) for l, e in entry.support.coordinates]
    placed = []
    for slot in triple.coordinates:
        pick = None
        for i, (l, _) in enumerate(entry.support.coordinates):
            if values[i] is not None and l.base.name == slot.base.name:
                pick = i
                break
        if pick is None:
            raise MatchingError("support does not fill the torus slots")
        placed.append(values[pick])
        values[pick] = None
    return _orbit(mu_data.inertial.action, SymbolicTorusPoint(tuple(placed)))


# ---------------------------------------------------------------------------
# filters, packets, blocks


def tempered_points(mu_data: MuData):
    return tuple(
        e for e in mu_data.entries
        if all(c.is_unitary for c in e.stratum.base.coords)
    )


def discrete_points(mu_data: MuData):
    G = mu_data.inertial.triple.group
    return tuple(e for e in mu_data.entries if is_discrete(G, e.param))


@dataclass(frozen=True)
class Packet:
    """All enhanced parameters sharing one underlying parameter: the
    matched members plus the cuspidal enhancements of the same datum."""

    stratum: object
    u: object
    members: tuple
    size: int


def packets(mu_data: MuData):
    G = mu_data.inertial.triple.group
    grouped = {}
    order = []
    for e in mu_data.entries:
        key = (e.stratum.base, e.u)
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(e)
    out = []
    for key in order:
        members = tuple(grouped[key])
        _, chars = enhancements(G, members[0].param)
        out.append(Packet(members[0].stratum, members[0].u, members, len(chars)))
    return out


def bernstein_blocks(G: PadicGroup, triple: InertialTriple):
    """The inertial packet of the triple splits into the principal
    block of the triple itself plus one singleton block per cuspidal
    enhanced parameter reached along the strata."""
    data = build_inertial(G, triple)
    blocks = [triple]
    seen = set()
    for st in data.strata:
        if st.dimension:
            continue
        slot_lines = _slot_lines(triple, st.base)
        restriction = _restriction_parameter(triple, slot_lines)
        cdata, _ = enhancements(G, restriction)
        for u in unipotent_classes(cdata.group):
            phi, pdata = _rebuild(cdata, u)
            cusp, chars = is_cuspidal(G, phi, pdata)
            if not cusp:
                continue
            for eta in chars:
                if (phi, eta) in seen:
                    continue
                seen.add((phi, eta))
                blocks.append(InertialTriple(G, (), phi, eta))
    return blocks


# ---------------------------------------------------------------------------
# stabilizer structure of a matched point


def _weyl_pieces(res):
    """The stabilizer of a support point, factor by factor: the connected
    reflection parts, as ``("S", n)`` for the symmetric group of a GL
    factor and ``("D", n)`` for the principal block of a classical one,
    and the number of orthogonal factors that can absorb a determinant
    flip."""
    conn = []
    swaps = 0
    tri = res.core_triple
    for i, f in enumerate(res.factors):
        if f.kind == "GL":
            n = sum(f.parts.parts)
            if n >= 2:
                conn.append(("S", n))
            continue
        gl = tri.gl_rank(i)
        if gl >= 2:
            conn.append(("D", gl))
        if f.kind == "O" and (
            gl >= 1 or (tri.ds[i] and sum(tri.core_partition(i).parts) % 2 == 0)
        ):
            swaps += 1
    return conn, swaps


def weyl_structure(res) -> str:
    """The stabilizer of a support point as a semidirect product: a
    connected reflection part from the principal blocks of the
    centralizer, extended by one sign swap per orthogonal factor that
    can absorb a determinant flip."""
    conn, swaps = _weyl_pieces(res)
    head = " x ".join(
        f"S{n}" if kind == "S" else "(S2 x| Z/2)" if n == 2 else f"D{n}"
        for kind, n in conn
    ) or "{1}"
    if swaps == 0:
        tail = "{1}"
    elif swaps == 1:
        tail = "Z/2"
    else:
        tail = "(" + " x ".join(["Z/2"] * swaps) + ")"
    return f"{head} x| {tail}"


def weyl_order(res) -> int:
    conn, swaps = _weyl_pieces(res)
    order = 2 ** swaps
    for kind, n in conn:
        order *= factorial(n) * (2 ** (n - 1) if kind == "D" else 1)
    return order


# ---------------------------------------------------------------------------
# correcting cocharacters and fibers


def correcting_cocharacters(G: PadicGroup, triple: InertialTriple):
    """The distinct correcting exponent vectors of the inertial family,
    one representative per orbit, each tagged with the unipotent
    component label it comes from."""
    data = mu(G, triple)
    out = []
    seen = set()
    for e in data.entries:
        shift = SymbolicTorusPoint(tuple(q_power(c) for c in e.cochar))
        orbit = _orbit(data.inertial.action, shift)
        if orbit in seen:
            continue
        seen.add(orbit)
        out.append((e.component, e.cochar))
    return out


def fiber(G: PadicGroup, triple: InertialTriple):
    """Every enhanced parameter supported in the triple, one per matched
    point of the extended quotient."""
    return [e.enhanced for e in mu(G, triple).entries]
