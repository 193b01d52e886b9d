"""Command-line front end.

Words on the command line are comma-separated simple indices; the empty
string or "e" is the identity.  Exit status is 0 on success, 1 on a domain
error (bad data, violated axiom) with a one-line diagnostic on stderr, and
2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import FlagOrbitsError, ParseError
from .kgb import (
    builtin_fixtures,
    load_kgb,
    save_kgb,
    to_orbit_poset,
    ascent_consistency_check,
    minimal_w_uniqueness_check,
)
from .kgp import class_hasse, i_equivalence_classes
from .orbit_poset import (
    from_parabolic,
    hasse_dot,
    load_orbit_graph,
    property_z_check,
    validate as validate_poset,
)
from .parabolic import enumerate_cosets, p_length
from .root_datum import _significant_lines, build_root_datum, parse_root_datum
from .weyl import (
    bruhat_leq,
    enumerate_elements,
    format_word,
    from_word,
    parse_word,
    reduced_word,
)


def _parse_levi(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece.lstrip("-").isdigit():
            raise ParseError(f"bad levi index {piece!r}")
        out.append(int(piece))
    return tuple(out)


def _add_datum_options(sub):
    sub.add_argument("--type", required=True, help="built-in type name, e.g. A2 or B3")


def _cmd_enumerate(args) -> int:
    datum = build_root_datum(args.type)
    for w in enumerate_elements(datum):
        print(format_word(reduced_word(w)))
    return 0


def _cmd_order(args) -> int:
    datum = build_root_datum(args.type)
    u = from_word(datum, parse_word(datum, args.left))
    v = from_word(datum, parse_word(datum, args.right))
    below = bruhat_leq(u, v)
    above = bruhat_leq(v, u)
    if below and above:
        print("equal")
    elif below:
        print("leq")
    elif above:
        print("geq")
    else:
        print("incomparable")
    return 0


def _cmd_reduce(args) -> int:
    datum = build_root_datum(args.type)
    w = from_word(datum, parse_word(datum, args.word))
    print(format_word(reduced_word(w)))
    return 0


def _cmd_cosets(args) -> int:
    datum = build_root_datum(args.type)
    levi = _parse_levi(args.levi)
    for coset in enumerate_cosets(datum, levi):
        minw = format_word(reduced_word(coset.min_rep))
        maxw = format_word(reduced_word(coset.max_rep))
        print(f"min={minw} max={maxw} plen={p_length(coset)}")
    return 0


def _cmd_classes(args) -> int:
    g = load_kgb(args.graph)
    levi = _parse_levi(args.levi)
    for k, cls in enumerate(i_equivalence_classes(g, levi)):
        print(f"class {k}: top={cls.top} members={','.join(cls.members)}")
    return 0


def _cmd_kgp_order(args) -> int:
    g = load_kgb(args.graph)
    levi = _parse_levi(args.levi)
    for a, b in class_hasse(g, levi):
        print(f"{a} < {b}")
    return 0


def _collect_violations(path: str) -> tuple[str, list[str]]:
    """Returns (success line, violations) for any of the three formats."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    header = next(iter(_significant_lines(text)), "")
    if header == "rootdatum v1":
        datum = parse_root_datum(text)
        return f"ok: rank {datum.rank}, 0 violations", []
    if header == "orbitgraph v1":
        g = load_orbit_graph(path)
        violations = validate_poset(g)
        if not violations:
            violations = property_z_check(g)
        return f"ok: {len(g.nodes)} nodes, 0 violations", violations
    if header == "kgbgraph v1":
        g = load_kgb(path)  # structural axioms enforced here
        poset = to_orbit_poset(g)
        violations = (
            validate_poset(poset)
            + property_z_check(poset)
            + ascent_consistency_check(g)
            + minimal_w_uniqueness_check(g)
        )
        return f"ok: {len(g.nodes)} nodes, 0 violations", violations
    raise ParseError(f"unrecognized format header {header!r}")


def _cmd_validate(args) -> int:
    line, violations = _collect_violations(args.file)
    if violations:
        more = f" (+{len(violations) - 1} more)" if len(violations) > 1 else ""
        print(f"error: {violations[0]}{more}", file=sys.stderr)
        return 1
    print(line)
    return 0


def _cmd_hasse(args) -> int:
    if args.kgb:
        graph = to_orbit_poset(load_kgb(args.kgb))
    else:
        graph = from_parabolic(build_root_datum(args.type), _parse_levi(args.levi or ""))
    sys.stdout.write(hasse_dot(graph))
    return 0


def _cmd_fixtures(args) -> int:
    fixtures = builtin_fixtures()
    if args.write is None:
        for name, g in fixtures.items():
            print(f"{name}: {len(g.nodes)} nodes")
        return 0
    os.makedirs(args.write, exist_ok=True)
    for name, g in fixtures.items():
        path = os.path.join(args.write, f"{name}.kgb")
        save_kgb(g, path)
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagorbits",
        description="Bruhat order on orbit posets of flag varieties",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list group elements as reduced words")
    _add_datum_options(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("order", help="compare two elements in Bruhat order")
    _add_datum_options(p)
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("reduce", help="canonical reduced word of a product")
    _add_datum_options(p)
    p.add_argument("word")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("cosets", help="parabolic quotient representatives")
    _add_datum_options(p)
    p.add_argument("--levi", required=True, help="comma-separated simple indices")
    p.set_defaults(func=_cmd_cosets)

    p = sub.add_parser("classes", help="equivalence classes of a graph file")
    p.add_argument("graph", help="kgbgraph file")
    p.add_argument("--levi", required=True, help="comma-separated simple indices")
    p.set_defaults(func=_cmd_classes)

    p = sub.add_parser("kgp-order", help="Hasse edges of the class poset")
    p.add_argument("graph", help="kgbgraph file")
    p.add_argument("--levi", required=True, help="comma-separated simple indices")
    p.set_defaults(func=_cmd_kgp_order)

    p = sub.add_parser("validate", help="validate a data file, any format")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("hasse", help="emit the cover graph in DOT form")
    p.add_argument("--type", help="built-in type name")
    p.add_argument("--levi", help="quotient by this Levi set")
    p.add_argument("--kgb", help="kgbgraph file instead of --type")
    p.set_defaults(func=_cmd_hasse)

    p = sub.add_parser("fixtures", help="list or write the built-in graphs")
    p.add_argument("--write", metavar="DIR", help="write fixture files here")
    p.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "hasse":
        if bool(args.kgb) == bool(args.type):
            parser.error("hasse needs exactly one of --type or --kgb")
        if args.kgb and args.levi:
            parser.error("--kgb cannot be combined with --levi")
    try:
        return args.func(args)
    except (FlagOrbitsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
