"""The benchmark's three corpora: each item is one library call a user
would make, with the renderer that turns its result into checked text.

``build(name, seed, root, workdir)`` returns the items of one workload.
Every call into the library goes through a module attribute looked up when
the item runs, so a traced pass that rebinds those attributes sees every
call.
"""

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

from abpscalc import abps, cli, combicore, extquot, langlands, springer

# Size of the params pool and how many distinct pool entries a pass runs.
# Pool entry i is the parameter the generator draws from Random(POOL_SALT + i)
# for group PARAM_GROUPS[i % len(PARAM_GROUPS)]; its rendered outputs were
# digested once into params_pool.txt, so every seeded sample is checkable.
POOL_SIZE = 6000
PARAMS_PER_PASS = 2000
POOL_SALT = 1_000_003

# The rank-4 torsion sample of the torus workload: elements x points.
RANK4_ELEMENTS = 24
RANK4_POINTS = 40


@dataclass
class Item:
    """One timed library call.

    ``render`` turns the result of ``call()`` into the text whose digest is
    checked, outside the timed call; ``rows`` counts the verified result
    rows the call produced; ``then`` maps the result to the follow-up items
    that take it as input, which run next.
    """

    id: str
    call: Callable
    render: Callable = str
    rows: Callable = len
    then: Callable = None


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# torus: combicore and extquot alone


def _eighths(p):
    return ".".join(str(int(x * 8)) for x in p)


def torsion_query_id(k, index, p):
    return f"torsion:B{k}:{index}:{_eighths(p)}"


def parse_torsion_id(item_id):
    """(rank, element index, point) of a torsion-query item id."""
    _, k, index, coords = item_id.split(":")
    return int(k[1:]), int(index), tuple(Fraction(int(v), 8) for v in coords.split("."))


def rank4_sample(seed):
    """The seeded rank-4 torsion sample: indices into
    ``all_signed_permutations(4)`` and, per element, the points to query."""
    rng = random.Random(seed)
    picks = rng.sample(range(384), RANK4_ELEMENTS)
    return {i: [tuple(Fraction(v >> s & 7, 8) for s in (9, 6, 3, 0))
                for v in rng.sample(range(8 ** 4), RANK4_POINTS)] for i in picks}


def _render_cosets(cosets):
    return "\n".join(str(c) for c in cosets)


def torsion_items(k, points):
    """A ``fixed_locus`` item per element of B_k (indexed as in
    ``all_signed_permutations(k)``) followed by its torsion queries."""
    elements = combicore.all_signed_permutations(k)
    return [Item(f"fixed_locus:B{k}:{index}",
                 lambda w=elements[index]: extquot.fixed_locus(w), _render_cosets,
                 then=lambda locus, index=index, pts=pts: _queries(k, index, locus, pts))
            for index, pts in points.items()]


def _queries(k, index, locus, points):
    return [Item(torsion_query_id(k, index, p),
                 lambda p=p: any(c.contains_torsion(p) for c in locus),
                 lambda r: "1" if r else "0", lambda r: 1)
            for p in points]


def torus_items(seed):
    actions = {
        "B1": extquot.hyperoctahedral_action(1),
        "B2": extquot.hyperoctahedral_action(2),
        "B3": extquot.hyperoctahedral_action(3),
        "S2": extquot.permutation_action(2),
        "S3": extquot.permutation_action(3),
        "D2": extquot.even_sign_action(2),
        "D3": extquot.even_sign_action(3),
        "T3": extquot.trivial_action(3),
    }
    items = []
    for name, action in actions.items():
        for fn in ("spectral_eq", "eq_pairs", "geometric_eq"):
            items.append(Item(
                f"{fn}:{name}",
                lambda fn=fn, a=action: getattr(extquot, fn)(a),
                lambda r: "\n".join(str(x) for x in r)))
    items.append(Item(
        "hyperoctahedral_action:4", lambda: extquot.hyperoctahedral_action(4),
        lambda r: "\n".join(f"{w.images}/{w.signs}" for w in r.elements),
        lambda r: 1))
    for k in (1, 2, 3):
        grid = [tuple(Fraction(v, 8) for v in vec)
                for vec in product(range(8), repeat=k)]
        order = len(combicore.all_signed_permutations(k))
        items += torsion_items(k, {i: grid for i in range(order)})
    items += torsion_items(4, rank4_sample(seed))
    return items


# ---------------------------------------------------------------------------
# matching: abps.mu, where every layer meets in one call

FREE_CATALOGUE = """
chi kind=ramified order=5 dim=1 selfdual=none period=1
psi kind=ramified order=7 dim=1 selfdual=none period=1
"""


def matching_triples():
    """(label, group, triple) of the matching corpus."""
    one = langlands.FormalParameter(((langlands.line("1"), 1),))
    none = langlands.FormalParameter(())
    free = langlands.parse_catalogue(FREE_CATALOGUE)
    table = [
        ("Sp4(zeta,zeta;1)", "Sp", 4, ["zeta", "zeta"], one, None),
        ("Sp4(zeta,eta;1)", "Sp", 4, ["zeta", "eta"], one, None),
        ("Sp4(1,1;1)", "Sp", 4, ["1", "1"], one, None),
        ("Sp6(zeta^3;1)", "Sp", 6, ["zeta"] * 3, one, None),
        ("Sp6(zeta,zeta,eta;1)", "Sp", 6, ["zeta", "zeta", "eta"], one, None),
        ("Sp6(zeta,eta,1;1)", "Sp", 6, ["zeta", "eta", "1"], one, None),
        ("SO5(zeta,zeta)", "SO", 5, ["zeta", "zeta"], none, None),
        ("SO4(zeta,zeta)", "SO", 4, ["zeta", "zeta"], none, None),
        ("SO7(zeta^3)", "SO", 7, ["zeta"] * 3, none, None),
        ("GL2(zeta^2)", "GL", 2, ["zeta"] * 2, none, None),
        ("GL3(zeta^3)", "GL", 3, ["zeta"] * 3, none, None),
        ("GL2(chi,psi)", "GL", 2, ["chi", "psi"], none, free),
    ]
    out = []
    for label, family, size, names, core, catalogue in table:
        G = langlands.PadicGroup(family, size)
        coords = tuple(langlands.line(n, catalogue=catalogue) for n in names)
        out.append((label, G, abps.inertial_triple(G, coords, core)))
    return out


def _render_mu(md):
    return "\n".join(
        f"{e} | {e.family.kind if e.family else '-'} | {e.u} | "
        f"{e.component} | {e.cochar} | {e.support}"
        for e in md.entries)


def _render_packets(packets):
    return "\n".join(f"{p.stratum.base} | {p.u} | {len(p.members)} | {p.size}"
                     for p in packets)


def _render_blocks(blocks):
    return "\n".join(f"{b} | {b.core_char}" for b in blocks)


def _render_cochars(classes):
    return "\n".join(f"{comp} | {cochar}" for comp, cochar in classes)


def _packets_item(label, md):
    return Item(f"packets:{label}", lambda: abps.packets(md), _render_packets)


def matching_items():
    """``mu`` on every triple; on the Sp4 triples also ``packets`` of the
    ``mu`` result (none when ``mu`` raises), ``bernstein_blocks`` and
    ``correcting_cocharacters``."""
    items, sp4 = [], []
    for label, G, triple in matching_triples():
        is_sp4 = G.family == "Sp" and G.size == 4
        items.append(Item(f"mu:{label}", lambda G=G, t=triple: abps.mu(G, t),
                          _render_mu, lambda md: len(md.entries),
                          then=lambda md, label=label, is_sp4=is_sp4:
                              [_packets_item(label, md)] if is_sp4 else []))
        if is_sp4:
            sp4.append((label, G, triple))
    for label, G, triple in sp4:
        items.append(Item(f"bernstein_blocks:{label}",
                          lambda G=G, t=triple: abps.bernstein_blocks(G, t),
                          _render_blocks))
        items.append(Item(f"correcting_cocharacters:{label}",
                          lambda G=G, t=triple: abps.correcting_cocharacters(G, t),
                          _render_cochars))
    return items


# ---------------------------------------------------------------------------
# params: langlands and springer without tori

PARAM_GROUPS = tuple([("Sp", n) for n in (4, 6, 8, 10)]
                     + [("SO", n) for n in range(4, 12)])

LINE_SPECS = (("1", 0), ("xi", 0), ("zeta", 0), ("zeta", 1), ("eta", 0), ("eta", 1))


def _line(spec, twist=None):
    name, minus = spec
    l = langlands.line(name, extquot.MINUS_ONE if minus else extquot.ONE)
    return l.twisted(twist) if twist is not None else l


def random_parameter(rng, family, size):
    """A random valid L-parameter of the group: conjugate pairs of twisted
    lines, self-dual lines of the wrong parity taken twice, and self-dual
    lines of the right parity, filling the dual dimension."""
    G = langlands.PadicGroup(family, size)
    dim, orthogonal = G.dual_dim, G.dual_kind != "Sp"
    while True:
        summands, left = [], dim
        while left:
            roll = rng.random()
            if roll < 0.3 and left >= 2:
                a = rng.randint(1, left // 2)
                base = rng.choice(LINE_SPECS)
                twist = (extquot.q_power(rng.randint(1, 2)) if rng.random() < 0.5
                         else extquot.free(f"x{rng.randint(1, 3)}"))
                l = _line(base, twist)
                summands += [(l, a), (l.dual(), a)]
                left -= 2 * a
            elif roll < 0.45 and left >= (4 if orthogonal else 2):
                a = 2 if orthogonal else 1
                l = _line(rng.choice(LINE_SPECS))
                summands += [(l, a), (l, a)]
                left -= 2 * a
            else:
                sizes = range(1 if orthogonal else 2, left + 1, 2)
                if not sizes:
                    break  # a symplectic line cannot fill an odd remainder
                a = rng.choice(sizes)
                summands.append((_line(rng.choice(LINE_SPECS)), a))
                left -= a
        if not left:
            return G, langlands.parameter(*summands)


def pool_entry(index):
    family, size = PARAM_GROUPS[index % len(PARAM_GROUPS)]
    return random_parameter(random.Random(POOL_SALT + index), family, size)


def params_sample(seed):
    """PARAMS_PER_PASS distinct pool entries, drawn by the workload seed."""
    rng = random.Random(seed)
    out, seen = [], set()
    for index in rng.sample(range(POOL_SIZE), POOL_SIZE):
        G, phi = pool_entry(index)
        if (G, phi) in seen:
            continue
        seen.add((G, phi))
        out.append((index, G, phi))
        if len(out) == PARAMS_PER_PASS:
            break
    return out


def _render_blocks_map(blocks):
    return "\n".join(
        f"{triple}: " + "; ".join(f"{u} {ch} {label}" for u, ch, label in rows)
        for triple, rows in blocks.items())


def _render_json(value):
    return json.dumps(value, sort_keys=True)


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


def _compare_files(made, stored):
    """Which generated files are byte-identical to the stored ones."""
    names = sorted({p.name for p in made.iterdir()} | {p.name for p in stored.iterdir()})
    return {n: (made / n).is_file() and (stored / n).is_file()
            and (made / n).read_bytes() == (stored / n).read_bytes() for n in names}


SPRINGER_GROUPS = ([("Sp", springer.Sp, n) for n in range(0, 17, 2)]
                   + [("SO", springer.SO, n) for n in range(1, 17)]
                   + [("O", springer.Orth, n) for n in range(1, 17)])

CLI_COMMANDS = (
    ["springer", "--group", "Sp6", "--generalized"],
    ["springer", "--group", "SO4"],
    ["cuspidal", "--family", "Sp", "--max", "10"],
    ["cuspidal", "--family", "SO", "--max", "10"],
    ["param", "--group", "Sp4", "--expr", "zeta*(S[3]+S[1])+1"],
    ["support", "--group", "Sp4", "--expr", "zeta*(S[3]+S[1])+1"],
    ["--format", "tsv", "support", "--group", "Sp4",
     "--expr", "1 + x*zeta*S[2] + x^-1*zeta*S[2]"],
)


def params_items(seed, workdir, fixtures):
    items = []
    for kind, make, n in SPRINGER_GROUPS:
        items.append(Item(
            f"springer_blocks:{kind}{n}",
            lambda make=make, n=n: springer.springer_blocks(make(n)),
            _render_blocks_map, lambda r: sum(len(rows) for rows in r.values())))
    for kind, sizes in (("Sp", range(2, 9, 2)), ("SO", range(2, 10))):
        for n in sizes:
            items.append(Item(f"springer_rows:{kind}{n}",
                              lambda kind=kind, n=n: cli.springer_rows(kind, n),
                              _render_json))
    for family in ("Sp", "SO"):
        items.append(Item(f"cuspidal_rows:{family}10",
                          lambda f=family: cli.cuspidal_rows(f, 10),
                          _render_json))
    for index, G, phi in params_sample(seed):
        items += param_items(index, G, phi)
    for argv in CLI_COMMANDS:
        items.append(Item("cli:" + " ".join(argv),
                          lambda argv=argv: _run_cli(list(argv)),
                          lambda r: f"{r[0]}\n{r[1]}", lambda r: 1))
    made = workdir / "fixtures"
    argv = ["fixtures", "--all", "--dir", str(made)]
    items.append(Item(
        "cli:fixtures --all --dir <tmp>", lambda: _run_cli(argv),
        lambda r: f"{r[0]}\n" + _render_json(_compare_files(made, fixtures)),
        lambda r: 1))
    return items


def param_items(index, G, phi):
    """The items of one pool parameter: its CLI record, its enhancements
    and, once those are known, the cuspidal support of each."""
    return [
        Item(f"param_record:{index}", lambda: cli.param_record(G, phi),
             _render_json, lambda r: 1),
        Item(f"enhancements:{index}", lambda: langlands.enhancements(G, phi),
             lambda r: f"{r[0].group} | " + " ".join(str(c) for c in r[1]),
             lambda r: len(r[1]),
             then=lambda r: _support_items(index, G, phi, r[1])),
    ]


def _support_items(tag, G, phi, chars):
    return [Item(f"cuspidal_support:{tag}:{j}",
                 lambda eta=eta: langlands.cuspidal_support(G, phi, eta),
                 rows=lambda r: 1)
            for j, eta in enumerate(chars)]


def build(name, seed, root, workdir):
    """The items of one workload, built from the seed.  ``workdir`` is an
    empty working directory inside the checkout at ``root``."""
    if name == "torus":
        return torus_items(seed)
    if name == "matching":
        return matching_items()  # a fixed corpus: the seed does not enter
    return params_items(seed, workdir, root / "fixtures")
