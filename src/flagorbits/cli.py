"""Command-line front end.

Words on the command line are comma-separated simple indices; the empty
string or "e" is the identity.  Exit status is 0 on success, 1 on a domain
error (bad data, violated axiom) with a one-line diagnostic on stderr, and
2 on usage errors.
"""

from __future__ import annotations

import os
import re
import sys
from types import SimpleNamespace

from .errors import FlagOrbitsError, ParseError
from .kgb import ascent_consistency_check, builtin_fixtures, load_kgb, minimal_w_uniqueness_check
from .kgb import parse_kgb, save_kgb, to_orbit_poset
from .kgp import class_hasse, i_equivalence_classes
from .orbit_poset import from_parabolic, hasse_dot, parse_orbit_graph, property_z_check
from .orbit_poset import validate as validate_poset
from .parabolic import _coset_words
from .root_datum import _decimal, _significant_lines, build_root_datum, parse_root_datum
from .weyl import _table, bruhat_leq, format_word, from_word, parse_word, reduced_word


def _parse_levi(text: str) -> tuple[int, ...]:
    pieces = [piece.strip() for piece in text.split(",")] if text.strip() else []
    for piece in pieces:
        if _decimal(piece.removeprefix("-")) is None:
            raise ParseError(f"bad levi index {piece!r}")
    return tuple(map(int, pieces))


def _cmd_enumerate(args) -> int:
    datum = build_root_datum(args.type)
    sys.stdout.write("".join(format_word(word) + "\n" for word in _table(datum).words))
    return 0


def _cmd_order(args) -> int:
    datum = build_root_datum(args.type)
    u = from_word(datum, parse_word(datum, args.left))
    v = from_word(datum, parse_word(datum, args.right))
    below, above = bruhat_leq(u, v), bruhat_leq(v, u)
    print("equal" if below and above else "leq" if below else "geq" if above else "incomparable")
    return 0


def _cmd_reduce(args) -> int:
    datum = build_root_datum(args.type)
    w = from_word(datum, parse_word(datum, args.word))
    print(format_word(reduced_word(w)))
    return 0


def _cmd_cosets(args) -> int:
    datum = build_root_datum(args.type)
    for minw, maxw in _coset_words(datum, _parse_levi(args.levi)):
        print(f"min={format_word(minw)} max={format_word(maxw)} plen={len(minw)}")
    return 0


def _cmd_classes(args) -> int:
    for k, cls in enumerate(i_equivalence_classes(load_kgb(args.graph), _parse_levi(args.levi))):
        print(f"class {k}: top={cls.top} members={','.join(cls.members)}")
    return 0


def _cmd_kgp_order(args) -> int:
    for a, b in class_hasse(load_kgb(args.graph), _parse_levi(args.levi)):
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
        g = parse_orbit_graph(text)
        violations = validate_poset(g) or property_z_check(g)
        return f"ok: {len(g.nodes)} nodes, 0 violations", violations
    if header == "kgbgraph v1":
        # structural axioms enforced here; a rootsystem file is read beside the graph
        g = parse_kgb(text, base_dir=os.path.dirname(os.path.abspath(path)))
        poset = to_orbit_poset(g)
        violations = validate_poset(poset) + property_z_check(poset)
        violations += ascent_consistency_check(g) + minimal_w_uniqueness_check(g)
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


def _hasse_check(args):
    if bool(args.kgb) == bool(args.type):
        return "hasse needs exactly one of --type or --kgb"
    return "--kgb cannot be combined with --levi" if args.kgb and args.levi else None


_TYPE = {"--type TYPE": "built-in type name, e.g. A2 or B3"}
_LEVI = {"--levi LEVI": "comma-separated simple indices"}
_GRAPH = {"graph": "kgbgraph file"}
_WRITE = {"[--write DIR]": "write fixture files here"}
# command: (handler, help, arguments, usage check).  Each argument is written as
# in the usage line ("--name METAVAR" an option, "[...]" optional, a bare word a
# positional) and mapped to its help; the check returns a usage error or None.
COMMANDS = {
    "enumerate": (_cmd_enumerate, "list group elements as reduced words", _TYPE, None),
    "order": (_cmd_order, "compare two elements in Bruhat order", {**_TYPE, "left": "", "right": ""}, None),
    "reduce": (_cmd_reduce, "canonical reduced word of a product", {**_TYPE, "word": ""}, None),
    "cosets": (_cmd_cosets, "parabolic quotient representatives", {**_TYPE, **_LEVI}, None),
    "classes": (_cmd_classes, "equivalence classes of a graph file", {**_GRAPH, **_LEVI}, None),
    "kgp-order": (_cmd_kgp_order, "Hasse edges of the class poset", {**_GRAPH, **_LEVI}, None),
    "validate": (_cmd_validate, "validate a data file, any format", {"file": ""}, None),
    "hasse": (_cmd_hasse, "emit the cover graph in DOT form", {"[--type TYPE]": "built-in type name",
              "[--levi LEVI]": "quotient by this Levi set", "[--kgb KGB]": "kgbgraph file instead of --type"},
              _hasse_check),
    "fixtures": (_cmd_fixtures, "list or write the built-in graphs", _WRITE, None),
}
_TOP_USAGE = "[-h] {" + ",".join(COMMANDS) + "} ..."


def _usage_error(usage: str, message: str):
    sys.stderr.write(f"usage: flagorbits {usage}\nflagorbits: error: {message}\n")
    raise SystemExit(2)


def _help(usage: str, about: str, entries: dict):
    entries = {"-h, --help": "show this help message and exit", **entries}
    print(f"usage: flagorbits {usage}\n\n{about}\n")
    print("\n".join(f"  {key:<14} {text}".rstrip() for key, text in entries.items()))
    raise SystemExit(0)


def _classify(word: str, names: list, usage: str):
    """A word as argparse reads it: (None, None) for a positional, ("", None) for
    an unknown option, else (option name, the value attached to it or None)."""
    if not word.startswith("-") or word == "-":
        return None, None
    name, eq, value = word.partition("=")
    matches = [name] if name in names else [n for n in names if name[:2] == "--" and n.startswith(name)]
    if not matches and word.startswith("-h"):  # the rest of the word is -h's value
        matches, eq, value = ["-h"], "=", word[2:]
    if len(matches) > 1:
        _usage_error(usage, f"ambiguous option: {word} could match {', '.join(matches)}")
    if matches:
        return matches[0], value if eq else None
    return (None, None) if re.match(r"^-\d+$|^-\d*\.\d+$", word) or " " in word else ("", None)


def parse_args(argv: list):
    """The namespace of one command line, read through COMMANDS as argparse
    reads it.  Usage errors exit 2, -h exits 0 after the help."""
    if not argv:
        _usage_error(_TOP_USAGE, "the following arguments are required: command")
    if argv[0] == "-h" or len(argv[0]) > 2 and "--help".startswith(argv[0]):
        about = "Bruhat order on orbit posets of flag varieties"
        _help(_TOP_USAGE, about, {command: spec[1] for command, spec in COMMANDS.items()})
    if argv[0] not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        _usage_error(_TOP_USAGE, f"argument command: invalid choice: {argv[0]!r} (choose from {choices})")
    command, words = argv[0], argv[1:]
    _, about, arguments, check = COMMANDS[command]
    usage = f"{command} [-h] " + " ".join(arguments)
    keys = {key.strip("[]").split()[0]: key for key in arguments}
    names = ["-h", "--help", *(name for name in keys if name.startswith("--"))]
    positionals = [name for name in keys if name[0] != "-"]
    split = words.index("--") if "--" in words else len(words)  # every later word is a positional
    kinds = [_classify(word, names, usage) for word in words[:split]] + [(None, None)] * (len(words) - split)
    values, extras, filled, last, i = {}, [], 0, None, 0
    while i < len(words):
        name, value = kinds[i]
        if i == split:  # argparse drops "--" only where a positional's pattern takes it
            if not (last == i - 1 or filled < len(positionals) and i + 1 < len(words)):
                extras.append("--")
        elif name is None and filled < len(positionals):
            values[positionals[filled]], filled, last = words[i], filled + 1, i
        elif not name:
            extras.append(words[i])
        elif name in ("-h", "--help"):
            if value is not None:
                _usage_error(usage, f"argument -h/--help: ignored explicit argument {value!r}")
            _help(usage, about, {key.strip("[]"): text for key, text in arguments.items()})
        elif value is None and not (i + 1 < split and kinds[i + 1][0] is None):
            _usage_error(usage, f"argument {name}: expected one argument")
        else:  # the value given with the option, else the next word
            values[name.lstrip("-")], i = (value, i) if value is not None else (words[i + 1], i + 1)
        i += 1
    missing = [name for name, key in keys.items() if key[0] != "[" and name.lstrip("-") not in values]
    if missing:
        _usage_error(usage, "the following arguments are required: " + ", ".join(missing))
    if extras:
        _usage_error(usage, "unrecognized arguments: " + " ".join(extras))
    args = SimpleNamespace(command=command, **{name.lstrip("-"): None for name in keys} | values)
    if check and check(args):
        _usage_error(usage, check(args))
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return COMMANDS[args.command][0](args)
    except (FlagOrbitsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
