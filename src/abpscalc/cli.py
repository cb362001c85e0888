"""Command-line front end: parameter expressions, table rendering, and
golden fixtures.

Markdown output uses a plain ASCII transliteration of the usual
notation: bipartitions print as ``(alpha,beta)`` with dots between
parts, two-row symbols as ``(top|bottom)``, and sign characters as
``[generator->sign ...]``.
"""

import argparse
import json
import re
import sys
from pathlib import Path

from .combicore import Partition, sign_twist, staircase
from .extquot import (
    MAX_RANK, MINUS_ONE, ONE, RankOutOfRange, free, hyperoctahedral_action, q_power,
    spectral_eq,
)
from .langlands import (
    DEFAULT_CATALOGUE,
    FormalParameter,
    PadicGroup,
    UnknownCharacter,
    component_groups,
    centralizer_display,
    centralizer_restriction,
    connected_centralizer,
    cuspidal_support,
    enhancements,
    infinitesimal_character,
    is_cuspidal,
    is_discrete,
    is_tempered,
    line,
    parse_catalogue,
    validate,
)
from .springer import SO, Sp, SpringerError, cuspidal_triples, springer_blocks
from . import abps


class ExpressionError(SyntaxError):
    pass


# ---------------------------------------------------------------------------
# parameter expressions


def _split_terms(text):
    terms, depth, cur = [], 0, ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ExpressionError("unbalanced ')'")
        if ch == "+" and depth == 0:
            terms.append(cur)
            cur = ""
        else:
            cur += ch
    if depth:
        raise ExpressionError("unbalanced '('")
    terms.append(cur)
    return terms


def _expand(text):
    """Flatten one level of parentheses distributively."""
    out = []
    for term in _split_terms(text):
        m = re.match(r"^(.*?)\(([^()]*)\)(.*)$", term)
        if not m:
            out.append(term)
            continue
        pre, inner, post = m.groups()
        for sub in _expand(inner):
            piece = "*".join(p.strip("*") for p in (pre, sub, post) if p.strip("*"))
            out.extend(_expand(piece))
    return out


_Q_RE = re.compile(r"^q(?:\^(?:\{(-?\d+)/2\}|(-?\d+)))?$")
_S_RE = re.compile(r"^S\[(\d+)\]$")
_VAR_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_']*)(?:\^(-?\d+))?$")


def parse_parameter(text, catalogue=None) -> FormalParameter:
    """Parse a sum of ``char*S[a]*q^{h}*var`` terms; an omitted ``S``
    factor means ``S[1]`` and parentheses distribute.  A term has at most
    one ``S`` factor, of dimension ``a >= 1``."""
    catalogue = catalogue or DEFAULT_CATALOGUE
    summands = []
    for pos, term in enumerate(_expand(text.replace(" ", ""))):
        if not term:
            raise ExpressionError(f"empty term at position {pos}")
        a, twist, base = None, ONE, None
        for factor in term.split("*"):
            if (m := _S_RE.match(factor)):
                if a is not None:
                    raise ExpressionError(f"two S factors in term {pos}: {term}")
                a = int(m.group(1))
                if not a:
                    raise ExpressionError(f"S[0] in term {pos}: {term}")
                continue
            if (m := _Q_RE.match(factor)):
                half, whole = m.groups()
                if half is not None:
                    twist = twist * q_power(int(half))
                elif whole is not None:
                    twist = twist * q_power(2 * int(whole))
                else:
                    twist = twist * q_power(2)
                continue
            if factor == "xi":
                twist = twist * MINUS_ONE
                continue
            if factor in catalogue:
                if base is not None:
                    raise ExpressionError(f"two characters in term {pos}")
                base = factor
                continue
            m = _VAR_RE.match(factor)
            if not m:
                raise ExpressionError(f"bad factor {factor!r} in term {pos}")
            name, power = m.groups()
            twist = twist * free(name) ** int(power or 1)
        summands.append((line(base or "1", twist, catalogue), a or 1))
    return FormalParameter(tuple(summands))


# ---------------------------------------------------------------------------
# rendering


def render(rows, fmt):
    """The table in ``md``, ``json`` or ``tsv``; the columns are the keys
    of the rows, in the order the row builders insert them."""
    if fmt == "json":
        return json.dumps(rows, indent=2, sort_keys=True) + "\n"
    columns = list(rows[0])
    if fmt == "tsv":
        lines = ["\t".join(columns)]
        lines += ["\t".join(str(r[c]) for c in columns) for r in rows]
        return "\n".join(lines) + "\n"
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in columns}
    out = ["| " + " | ".join(c.ljust(widths[c]) for c in columns) + " |",
           "| " + " | ".join("-" * widths[c] for c in columns) + " |"]
    for r in rows:
        out.append("| " + " | ".join(str(r[c]).ljust(widths[c]) for c in columns) + " |")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# table generators


def _parse_group(token):
    m = re.fullmatch(r"([A-Za-z]+)(\d+)", token)
    if not m:
        raise ValueError(f"cannot read group {token!r}")
    kind, size = m.groups()
    kind = kind.capitalize() if kind.lower() == "sp" else kind.upper()
    return kind, int(size)


def _block_letter(triple):
    if triple.is_principal:
        return "T"
    if triple.is_cuspidal:
        return "H"
    return "M"


def _symbol(kind, block, d, label) -> str:
    """The symbol column of a Springer table row, ``(top|bottom)`` with
    ``-`` for an empty row.  A cuspidal (``H``) row shows the core
    staircase; a principal (``T``) row the defect-one symbol of its
    bipartition, at the least length; a symplectic ``M`` row exchanges
    the roles of the rows, with the longer row at the bottom."""
    if block == "H":
        rows = staircase(Partition(), d + 1 if kind == "Sp" else d), ()
    elif kind == "SO":
        width = max(len(label.alpha), len(label.beta))
        rows = staircase(label.alpha, width), staircase(label.beta, width)
    elif block == "T":
        width = max(len(label.alpha) - 1, len(label.beta))
        rows = staircase(label.alpha, width + 1), staircase(label.beta, width, 1)
    else:
        width = max(len(label.alpha), len(label.beta) + 1)
        rows = staircase(label.beta, width - 1), staircase(label.alpha, width, 1)
    return "({}|{})".format(*(",".join(map(str, row)) or "-" for row in rows))


def springer_rows(kind, size, generalized=True):
    """The Springer table of ``Sp(size)`` or ``SO(size)``, read from
    :func:`springer_blocks`: classes by descending parts, then by tag,
    and characters in :meth:`ComponentGroup.characters` order."""
    makers = {"Sp": Sp, "SO": SO}
    if kind not in makers:
        raise SpringerError(f"springer tables cover Sp and SO groups, not {kind}")
    pairs = [(u, ch, triple, labels[0])
             for triple, block in springer_blocks(makers[kind](size)).items()
             for u, ch, labels in block]
    pairs.sort(key=lambda r: (tuple(-p for p in r[0].partitions[0].parts),
                              r[0].tags[0], tuple(-v for v in r[1].values)))
    rows = []
    for u, ch, triple, label in pairs:
        block = _block_letter(triple)
        if not generalized and block != "T":
            continue
        row = {
            "u": str(u.partitions[0]) + u.tags[0],
            "a_group": ch.group.structure(),
            "character": str(ch),
            "symbol": _symbol(kind, block, triple.ds[0], label),
            "block": block,
            "label": "1" if block == "H" else str(label) + ("'" if block == "M" else ""),
        }
        if kind == "SO":
            row["label_times_sign"] = str(sign_twist(label)) if block != "H" else "1"
        rows.append(row)
    return rows


def cuspidal_rows(family, bound):
    """The full-group cuspidal data of the family up to size ``bound``
    (``Sp(2 size)`` or ``SO(size)``); ``bound`` is at least 1."""
    if bound < 1:
        raise ValueError(f"cuspidal covers --max 1 and above, not {bound}")
    rows = []
    for size in range(1, bound + 1):
        group = Sp(2 * size) if family == "Sp" else SO(size)
        for t in [t for t in cuspidal_triples(group) if t.is_cuspidal]:
            marks = t.core_marks(0)
            char = " ".join(f"z{p}->{'-' if p in marks else '+'}"
                            for p in sorted(set(t.core_partition(0).parts)))
            rows.append({
                "group": str(group),
                "partition": str(t.core_partition(0)),
                "character": f"[{char}]",
            })
    return rows


def extquot_rows(rank):
    if not 0 <= rank <= MAX_RANK:
        raise RankOutOfRange(rank)
    action = hyperoctahedral_action(rank)
    rows = []
    for fam in spectral_eq(action):
        rows.append({
            "base": str(fam.base),
            "stabilizer": fam.group.structure(),
            "irrep": str(fam.irrep),
            "kind": fam.kind,
        })
    return rows


def param_record(group, phi):
    validate(group, phi)
    data = centralizer_restriction(group, phi)
    groups = component_groups(group, phi)
    cusp, cusp_chars = is_cuspidal(group, phi)
    inf = infinitesimal_character(group, phi)
    return {
        "group": str(group),
        "parameter": str(phi),
        "centralizer": centralizer_display(data),
        "centralizer_connected": str(connected_centralizer(data)),
        "unipotent": str(data.unipotent),
        "a_group": groups.a_group.structure(),
        "a_generators": list(groups.a_group.subgroup_generators()),
        "a_connected": groups.a_connected.structure(),
        "s_order": groups.s_order,
        "discrete": is_discrete(group, phi),
        "tempered": is_tempered(group, phi),
        "cuspidal": cusp,
        "cuspidal_characters": [str(c) for c in cusp_chars],
        "infinitesimal_character": sorted(
            f"{l}^{m}" for l, m in inf.items()
        ),
    }


def support_rows(group, phi):
    validate(group, phi)
    _, chars = enhancements(group, phi)
    rows = []
    for eta in chars:
        res = cuspidal_support(group, phi, eta)
        rows.append({
            "character": str(eta),
            "levi": str(res.levi_dual),
            "support": str(res),
            "correcting": str(res.correcting),
            "weyl": abps.weyl_structure(res),
        })
    return rows


def _sp4_triple():
    G = PadicGroup("Sp", 4)
    return G, abps.inertial_triple(
        G, (line("zeta"), line("zeta")),
        FormalParameter(((line("1"), 1),)),
    )


def abps_rows():
    G, j = _sp4_triple()
    md = abps.mu(G, j)
    rows = []
    for e in md.entries:
        rows.append({
            "base": str(e.stratum.base),
            "irrep": str(e.irrep),
            "kind": e.family.kind if e.family else "member",
            "parameter": str(e.param),
            "character": str(e.eta),
            "unipotent": str(e.u),
            "component": str(e.component),
            "correcting": str(e.cochar),
            "weyl": abps.weyl_structure(e.support),
        })
    return rows


def action_rows():
    G, j = _sp4_triple()
    data = abps.build_inertial(G, j)
    rows = []
    for w, img in abps.action_table(data):
        rows.append({
            "images": str(w.images),
            "signs": str(w.signs),
            "result": str(img),
        })
    return rows


def parameters_rows():
    G = PadicGroup("Sp", 4)
    x = free("x")
    corpus = [
        parse_parameter("zeta*(S[3]+S[1]) + 1"),
        FormalParameter(((line("zeta", x), 2), (line("zeta", x.inverse()), 2),
                         (line("1"), 1))),
        parse_parameter("x*zeta + zeta + 1 + zeta + x^-1*zeta"),
        parse_parameter("zeta + xi*zeta + 1 + xi*zeta + zeta"),
    ]
    rows = []
    for phi in corpus:
        rec = param_record(G, phi)
        res_levis = sorted({
            r["levi"] for r in support_rows(G, phi)
        })
        rec["support_levis"] = res_levis
        rows.append({
            "parameter": rec["parameter"],
            "centralizer": rec["centralizer"],
            "centralizer_connected": rec["centralizer_connected"],
            "unipotent": rec["unipotent"],
            "a_group": rec["a_group"],
            "a_generators": ", ".join(rec["a_generators"]),
            "a_connected": rec["a_connected"],
            "support_levis": ", ".join(res_levis),
        })
    return rows


def packet_rows():
    G, j = _sp4_triple()
    md = abps.mu(G, j)
    targets = [
        ("(1, 1)", "(3,1)x(1)"),
        ("(z, z)", "(2)x(1)"),
        ("(1, z)", "(1)x(1,1)x(1)"),
        ("(1, -1)", "(1,1)x(1,1)x(1)"),
    ]
    rows = []
    for base, u in targets:
        packet = next(p for p in abps.packets(md)
                      if str(p.stratum.base) == base and str(p.u) == u)
        member = packet.members[0]
        rows.append({
            "parameter": str(member.param),
            "base": base,
            "unipotent": u,
            "size": packet.size,
            "matched": len(packet.members),
            "labels": ", ".join(str(e.irrep) for e in packet.members),
            "weyl": abps.weyl_structure(member.support),
        })
    return rows


FIXTURES = {
    "table1": lambda: springer_rows("Sp", 6, generalized=False),
    "table2": lambda: springer_rows("Sp", 6),
    "table3": lambda: springer_rows("SO", 4),
    "table4": action_rows,
    "table6": parameters_rows,
    "table7": packet_rows,
    "figure1": abps_rows,
}


def write_fixtures(directory: Path, names=None):
    """Render the named fixtures in both formats; report which files
    changed relative to what was on disk."""
    directory.mkdir(parents=True, exist_ok=True)
    changed = []
    for name in names or sorted(FIXTURES):
        rows = FIXTURES[name]()
        for fmt, ext in (("md", "md"), ("json", "json")):
            path = directory / f"{name}.{ext}"
            text = render(rows, fmt)
            old = path.read_text() if path.exists() else None
            if old != text:
                path.write_text(text)
                changed.append(str(path))
    return changed


# ---------------------------------------------------------------------------
# JSON record schema


SCHEMA = {
    "group": str,
    "parameter": str,
    "centralizer": str,
    "centralizer_connected": str,
    "unipotent": str,
    "a_group": str,
    "a_generators": list,
    "a_connected": str,
    "s_order": int,
    "discrete": bool,
    "tempered": bool,
    "cuspidal": bool,
    "cuspidal_characters": list,
    "infinitesimal_character": list,
}


def validate_record(record):
    if set(record) != set(SCHEMA):
        raise ValueError(f"record keys {sorted(record)} != schema keys")
    for key, type_ in SCHEMA.items():
        if not isinstance(record[key], type_):
            raise ValueError(f"field {key} is not {type_.__name__}")
    for key in ("a_generators", "cuspidal_characters", "infinitesimal_character"):
        if not all(isinstance(x, str) for x in record[key]):
            raise ValueError(f"field {key} must hold strings")
    return True


# ---------------------------------------------------------------------------
# argument handling


def _load_catalogue(path):
    if path is None:
        return DEFAULT_CATALOGUE
    return parse_catalogue(Path(path).read_text())


def build_parser():
    parser = argparse.ArgumentParser(prog="abpscalc")
    parser.add_argument("--format", choices=("md", "json", "tsv"), default="md")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("springer", help="generalized Springer table")
    p.add_argument("--group", required=True)
    p.add_argument("--generalized", action="store_true")

    p = sub.add_parser("cuspidal", help="full-group cuspidal data")
    p.add_argument("--family", choices=("Sp", "SO"), required=True)
    p.add_argument("--max", type=int, default=10)

    p = sub.add_parser("extquot", help="spectral extended quotient of B_k")
    p.add_argument("--rank", type=int, required=True)

    for name in ("param", "support"):
        p = sub.add_parser(name)
        p.add_argument("--group", required=True)
        p.add_argument("--expr", required=True)
        p.add_argument("--chars")

    sub.add_parser("abps", help="the rank-2 symplectic matched table")

    p = sub.add_parser("fixtures")
    p.add_argument("--all", action="store_true")
    p.add_argument("--name", action="append")
    p.add_argument("--dir", default="fixtures")
    return parser


def _group_and_parameter(args):
    kind, size = _parse_group(args.group)
    phi = parse_parameter(args.expr, _load_catalogue(args.chars))
    return PadicGroup(kind, size), phi


def _param(args):
    record = param_record(*_group_and_parameter(args))
    validate_record(record)
    return json.dumps(record, indent=2, sort_keys=True) + "\n", 0


def _fixtures(args):
    names = None if args.all or not args.name else args.name
    changed = write_fixtures(Path(args.dir), names)
    return "".join(f"updated {path}\n" for path in changed), 1 if changed else 0


def _table(rows):
    """A command that prints the rows ``rows(args)`` in ``--format``."""
    return lambda args: (render(rows(args), args.format), 0)


# command -> function of the parsed arguments giving (stdout, exit code)
COMMANDS = {
    "springer": _table(lambda a: springer_rows(*_parse_group(a.group), a.generalized)),
    "cuspidal": _table(lambda a: cuspidal_rows(a.family, a.max)),
    "extquot": _table(lambda a: extquot_rows(a.rank)),
    "param": _param,
    "support": _table(lambda a: support_rows(*_group_and_parameter(a))),
    "abps": _table(lambda a: abps_rows()),
    "fixtures": _fixtures,
}


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, code = COMMANDS[args.command](args)
    except (SpringerError, ExpressionError, UnknownCharacter, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return code


def main():  # pragma: no cover - console entry
    raise SystemExit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
