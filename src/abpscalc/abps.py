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

from math import factorial

from .combicore import Bipartition, DLabel, Partition, value_type
from .extquot import (
    MonomialAction,
    SymbolicCoordinate,
    SymbolicTorusPoint,
    act,
    full_torus,
    q_power,
    sign_flip,
    strata,
    transposition,
)
from .langlands import (
    CentralizerData,
    DimensionMismatch,
    EnhancedParameter,
    FormalParameter,
    IsotypicFactor,
    PadicGroup,
    TypeMismatch,
    block_support,
    centralizer_restriction,
    enhancements,
    is_cuspidal,
    is_discrete,
    validate,
)
from .springer import springer_blocks


class MatchingError(ValueError):
    """The spectral families and the enhanced parameters of a triple
    could not be paired off."""


class InvalidCore(ValueError):
    """The core of an inertial triple is not a cuspidal parameter of the
    core group, or with the torus coordinates does not make a parameter
    of the target group."""


class UnsupportedPeriod(ValueError):
    """A torus coordinate carries a line of period other than 1: the
    twists z and -z of such a line agree, which the torus of a triple
    does not model."""


# ---------------------------------------------------------------------------
# inertial triples and their torus


class InertialTriple(value_type("InertialTriple", "group coordinates core core_char",
                                 defaults=(None,))):
    """A dual Levi GL(1)^k x (core) with a cuspidal core datum.

    ``coordinates`` lists the character line carried by each GL(1)
    coordinate at the base point (all unramified twists trivial);
    ``core`` is the cuspidal parameter of the core factor and
    ``core_char`` its cuspidal character (``None`` for a trivial core).
    """

    __slots__ = ()

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
    class (for GL targets no dual is available at all).  Per class that
    is a symmetric or hyperoctahedral group, generated by the swaps of
    consecutive members and, when inversion is allowed, the flip of the
    first member."""
    coords = triple.coordinates
    n = len(coords)
    invertible = triple.group.family != "GL"
    classes = {}
    for i, l in enumerate(coords):
        classes.setdefault(l.base, []).append(i)
    gens = []
    for members in classes.values():
        gens += [transposition(n, i, j) for i, j in zip(members, members[1:])]
        if invertible and coords[members[0]].base.selfdual != "none":
            gens.append(sign_flip(n, (members[0],)))
    return MonomialAction(n, gens)


class InertialData(value_type("InertialData", "triple action strata")):
    """A checked inertial triple with the group acting on its torus and
    the stabilizer strata of that action, open stratum first."""

    __slots__ = ()

    @property
    def rank(self) -> int:
        return self.triple.rank


def _core_group(triple: InertialTriple) -> PadicGroup:
    """The group of the core factor: a torus coordinate on a line of
    dimension d takes 2d from the size of ``Sp`` and ``SO`` (the line
    and its dual), d from that of ``GL``."""
    G = triple.group
    per_dim = 1 if G.family == "GL" else 2
    return PadicGroup(G.family, G.size - per_dim * sum(l.dim for l in triple.coordinates))


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
    """Check the triple once and stratify its action.  A coordinate
    line of period other than 1 raises :class:`UnsupportedPeriod`.  The
    restriction parameter at the base point is validated, and that
    check holds at every point: moving t keeps the dimension, and a
    self-dual twisted line enters twice.  A failure, or a core that is
    not cuspidal for the core group, is an :class:`InvalidCore`; with
    an empty core the error of :func:`validate` is raised as it is."""
    if G != triple.group:
        raise ValueError("triple was declared for a different target group")
    for i, l in enumerate(triple.coordinates):
        if l.base.period != 1:
            raise UnsupportedPeriod(
                f"coordinate {i + 1} of {triple} carries {l.base.name} of period "
                f"{l.base.period}; only period 1 is supported")
    if triple.core.summands:
        _check_core(triple)
    else:
        validate(G, _restriction_parameter(triple, triple.coordinates))
    action = _inertial_action(triple)
    return InertialData(triple, action, tuple(strata(action)))


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


class MuEntry(value_type("MuEntry", "stratum irrep family param eta u support cochar component")):
    """One matched point: a stabilizer character ``irrep`` of a
    stratum paired with an enhanced parameter ``(param, eta)`` supported
    in the triple, of unipotent class ``u`` and cuspidal ``support``.
    ``family`` is the :class:`EQPoint` when this pair starts a spectral
    family, ``cochar`` the correcting exponent per coordinate, in
    sqrt-q units, and ``component`` the :class:`Partition` that labels
    the unipotent component for display."""

    __slots__ = ()

    @property
    def enhanced(self) -> EnhancedParameter:
        return EnhancedParameter(self.param, self.eta)

    def __str__(self) -> str:
        return f"({self.stratum.base}, {self.irrep}) <-> ({self.param}, {self.eta})"


class MuData(value_type("MuData", "inertial entries")):
    __slots__ = ()

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


def _conjugate_label(label):
    if isinstance(label, Bipartition):
        return Bipartition(label.alpha.conjugate(), label.beta.conjugate())
    if isinstance(label, DLabel):
        return DLabel(label.alpha.conjugate(), label.beta.conjugate())
    return label


def _row_character(st, labels, owner):
    """The character of the stabilizer of ``st`` that a Springer row
    with per-factor ``labels`` stands for; ``owner`` maps each torus
    coordinate (0-based) to the centralizer factor on it.  An A piece
    takes the label of its factor, a B or D piece the conjugate label,
    and each E2 generator the product of the signs of the one-box labels
    on the coordinates it flips: +1 for ``((1),())``, -1 for
    ``((),(1))``."""

    def label_at(c):
        if c not in owner:
            raise MatchingError(f"no centralizer factor on coordinate {c + 1} at {st.base}")
        return labels[owner[c]]

    out = []
    for kind, data in st.group.pieces:
        if kind == "A":
            out.append(label_at(data[0]))
        elif kind in ("B", "D"):
            out.append(_conjugate_label(label_at(data[0])))
        else:  # E2: each generator lists its flipped coordinates, 1-based
            values = []
            for gen in data:
                value = 1
                for c in gen:
                    label = label_at(c - 1)
                    if not isinstance(label, Bipartition) or label.size != 1:
                        raise MatchingError(
                            f"label {label} on flipped coordinate {c} at {st.base} "
                            f"is not a one-box bipartition")
                    value *= 1 if label.alpha else -1
                values.append(value)
            out.append(tuple(values))
    return out[0] if len(out) == 1 else tuple(out)


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


def _reference(st, cdata, blocks):
    """The support signature of the block that holds the open stratum's
    class with its trivial character."""
    lam = cdata.unipotent.partitions
    for tri, rows in blocks.items():
        if any(u.partitions == lam and all(v == 1 for v in eta.values) for u, eta, _ in rows):
            return _support_signature(tri, cdata.factors)
    raise MatchingError(f"no row of the trivial character at the open stratum {st.base}")


def mu(G: PadicGroup, triple: InertialTriple) -> MuData:
    """Match every stabilizer character of every stratum with an
    enhanced parameter whose cuspidal support lies in the triple.  At
    each stratum the candidates are the pairs of the one block of the
    centralizer's Springer table whose cuspidal core is that of the open
    stratum's trivial character, and the support of a matched pair is
    read off that block.  Pairs of one unipotent class in one block
    differ only in their relative-Weyl labels, so each stratum rebuilds
    the parameter and builds the support, cocharacter and component once
    per class and block, the first time a pair of them is matched; every
    entry carries its own labels."""
    data = build_inertial(G, triple)
    reference = None
    entries = []
    for st in data.strata:
        families = {f.irrep: f for f in st.families()}
        slot_lines = _slot_lines(triple, st.base)
        cdata = centralizer_restriction(G, _restriction_parameter(triple, slot_lines))
        blocks = springer_blocks(cdata.group)
        if reference is None:  # the open stratum comes first
            reference = _reference(st, cdata, blocks)
        fslots = _factor_slots(cdata, slot_lines)
        owner = {c: i for i, slots in enumerate(fslots) for c in slots}
        found, per_class = {}, {}
        for tri, rows in blocks.items():
            if _support_signature(tri, cdata.factors) != reference:
                continue
            for u, eta, labels in rows:
                key = _row_character(st, labels, owner)
                if key in found:
                    raise MatchingError(f"label collision at {st.base}: {key}")
                found[key] = (u, eta, tri, labels)
        for irrep in st.group.irreps():
            if irrep not in found:
                raise MatchingError(
                    f"no enhanced parameter for ({st.base}, {irrep})"
                )
            u, eta, tri, labels = found.pop(irrep)
            built = per_class.get((u, tri))
            if built is None:
                phi, pdata = _rebuild(cdata, u)
                res = block_support(G, pdata, tri, labels)
                built = per_class[u, tri] = (
                    phi, res,
                    _cochar(res, cdata, fslots, slot_lines, triple.rank),
                    _component_label(triple, cdata, u),
                )
            phi, res, cochar, component = built
            if res.labels != labels:
                res = res._replace(labels=labels)
            entries.append(MuEntry(
                st, irrep, families.get(irrep),
                phi, eta, u, res, cochar, component,
            ))
        if found:
            raise MatchingError(
                f"unmatched enhanced parameters at {st.base}: {sorted(found, key=str)}"
            )
    return MuData(data, tuple(entries))


# ---------------------------------------------------------------------------
# the twisting maps


def _coordinate_key(c: SymbolicCoordinate):
    return c.torsion, c.qexp, c.monomial


def _orbit_form(action: MonomialAction, t: SymbolicTorusPoint) -> tuple:
    """The normal form of the orbit of ``t``, read off the blocks of the
    action: per block, its coordinates sorted by ``(torsion, qexp,
    monomial)``, each coordinate of a hyperoctahedral (``"B"``) block
    first replaced by the lesser of it and its inverse.

    An inertial action is the full product of the symmetric or
    hyperoctahedral groups of its blocks (its generators swap members
    of one class and flip single coordinates), so a group element moves
    each block's coordinates within it, inverting any of them on a
    ``"B"`` block.  Two points thus share an orbit exactly when they
    share this form, and no element of the group is listed."""
    out = []
    for kind, coords in action.blocks:
        values = [t.coords[c] for c in coords]
        if kind == "B":
            values = [min(c, c.inverse(), key=_coordinate_key) for c in values]
        out.append(tuple(sorted(values, key=_coordinate_key)))
    return tuple(out)


def theta(z: SymbolicCoordinate, entry: MuEntry, mu_data: MuData) -> tuple:
    """Shift the base point by the correcting cocharacter evaluated at
    ``z`` and name its orbit by :func:`_orbit_form`; at z = 1 this is
    the plain projection.  Two entries' images compare as orbits."""
    base = entry.stratum.base
    shifted = SymbolicTorusPoint(tuple(
        c * z ** e for c, e in zip(base.coords, entry.cochar)
    ))
    return _orbit_form(mu_data.inertial.action, shifted)


def support_orbit(entry: MuEntry, mu_data: MuData) -> tuple:
    """The orbit of the cuspidal-support coordinates, placed on the
    torus slots by character class, named by :func:`_orbit_form`, so it
    compares with :func:`theta` at ``q^{1/2}``."""
    triple = mu_data.inertial.triple
    values = [l.twist * q_power(e) for l, e in entry.support.coordinates]
    placed = []
    for slot in triple.coordinates:
        pick = None
        for i, (l, _) in enumerate(entry.support.coordinates):
            if values[i] is not None and l.base == slot.base:
                pick = i
                break
        if pick is None:
            raise MatchingError("support does not fill the torus slots")
        placed.append(values[pick])
        values[pick] = None
    return _orbit_form(mu_data.inertial.action, SymbolicTorusPoint(tuple(placed)))


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


class Packet(value_type("Packet", "stratum u members size")):
    """All enhanced parameters sharing one underlying parameter: the
    matched members plus the cuspidal enhancements of the same datum."""

    __slots__ = ()


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
    enhanced parameter reached along the strata, read off the cuspidal
    blocks of the Springer table of each point stratum's centralizer."""
    cuspidal = {}  # (parameter, character) -> its block, in order of appearance
    for st in build_inertial(G, triple).strata:
        if st.dimension:
            continue
        restriction = _restriction_parameter(triple, _slot_lines(triple, st.base))
        cdata = centralizer_restriction(G, restriction)
        for tri, rows in springer_blocks(cdata.group).items():
            if not tri.is_cuspidal:
                continue
            for u, eta, _ in rows:
                phi, _ = _rebuild(cdata, u)
                cuspidal.setdefault((phi, eta), InertialTriple(G, (), phi, eta))
    return [triple, *cuspidal.values()]


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
    component label it comes from.

    An exponent vector ``c`` stands for the point ``(q^{c_i/2})``, and
    :func:`_orbit_form` of that point names its orbit, so no element of
    the group is listed.  Entries repeat their vectors, so each distinct
    vector is read once, with the component of its first entry."""
    data = mu(G, triple)
    action = data.inertial.action
    firsts, forms = {}, {}
    for e in data.entries:
        firsts.setdefault(e.cochar, e.component)
    for cochar, component in firsts.items():
        point = SymbolicTorusPoint(tuple(map(q_power, cochar)))
        forms.setdefault(_orbit_form(action, point), (component, cochar))
    return list(forms.values())


def fiber(G: PadicGroup, triple: InertialTriple):
    """Every enhanced parameter supported in the triple, one per matched
    point of the extended quotient."""
    return [e.enhanced for e in mu(G, triple).entries]
