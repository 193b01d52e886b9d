"""Seeded mutation fuzzing of the three text formats through the CLI.

Each mutant of a fixture or a generated text deletes, duplicates or swaps
lines, or replaces one token.  Whatever the damage, `validate` (and, on a
K\\G/B graph, `hasse --kgb`, `classes` and `kgp-order`) ends in exit 0 or 1
with at most one line on stderr, never in a traceback; and a mutant that
parses reaches a fixed point of format after one format/parse round trip.
An orbit-graph or K\\G/B mutant parses as the name-keyed reference parser
reads it, and its fibers (orbit graphs), violations and text match the
name-keyed references.  A later pass renames only the target of one cross=
or cayley= field of a K\\G/B text to a name that is not a node, and a last
one raises only the index of one fiber line of an orbit graph of a named
Cartan type above the type's rank.
"""

import random
from pathlib import Path

from flagorbits import (
    FlagOrbitsError,
    build_root_datum,
    format_kgb,
    format_orbit_graph,
    format_root_datum,
    from_parabolic,
    from_weyl,
    parse_kgb,
    parse_root_datum,
    twisted_shadow,
    validate_kgb,
)
from clans import clan_graph
from flagorbits.cli import main
from flagorbits.errors import InvalidCartan
from flagorbits.orbit_poset import parse_orbit_graph
from flagorbits.root_datum import cartan_matrix
from test_kgb import kgb_outcome, reference_format_kgb, reference_parse_kgb, reference_validate_kgb
from test_orbit_poset import assert_parse_matches, assert_text_layer_matches
from test_weyl import INTERLEAVED

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

NUMERALS = ("0", "1", "2", "3", "7", "-1", "12", "01", "+1", "1.5")
WORDS = ("e", "x", "id", "inline", "node", "label", "fiber", "nodes", "twist", "levi", "A2", "lattice")
LABELS = ("C+", "C-", "ci", "nci1", "nci2", "r1", "r2", "c+", "r3")
FIELDS = ("cross=0", "cross=1", "cross=", "cross=x", "cayley=0", "cayley=2", "cayley=-1", "cayley=1,2")


def sources():
    """(format, text) for every fixture and a few generated graphs and data."""
    out = [("kgb", path.read_text()) for path in sorted(FIXTURES.glob("*.kgb"))]
    out.append(("kgb", format_kgb(twisted_shadow(build_root_datum("A2")))))
    for datum, levi in ((build_root_datum("A2"), ()), (build_root_datum("B3"), (1,)), (build_root_datum("G2"), (2,))):
        out.append(("orbitgraph", format_orbit_graph(from_parabolic(datum, levi))))
    out.append(("orbitgraph", format_orbit_graph(from_weyl(build_root_datum(INTERLEAVED)))))
    out.append(("rootdatum", format_root_datum(build_root_datum("B3", isogeny="adjoint"))))
    out.append(("rootdatum", format_root_datum(build_root_datum("A3", twist=(3, 2, 1)))))
    out.append(("rootdatum", format_root_datum(build_root_datum(INTERLEAVED))))
    out.append(("rootdatum", format_root_datum(build_root_datum("A1", isogeny="lattice", coroot_rows=((2,),)))))
    out.append(("kgb", format_kgb(clan_graph(2, 1))))  # type I Cayley moves at rank two, last so earlier mutants stay
    return out


def mutate(text, rng):
    """One or two mutations below the header line, which the parse-error
    tables already cover."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 2)):
        k = rng.randrange(1, len(lines))
        kind = rng.randrange(4)
        if kind == 0 and len(lines) > 2:
            del lines[k]
        elif kind == 1:
            lines.insert(k, lines[k])
        elif kind == 2:
            j = rng.randrange(1, len(lines))
            lines[k], lines[j] = lines[j], lines[k]
        else:
            tokens = lines[k].split() or [""]
            pool = rng.choice((NUMERALS, WORDS, LABELS, FIELDS))
            tokens[rng.randrange(len(tokens))] = rng.choice(pool)
            lines[k] = " ".join(tokens)
    return "\n".join(lines) + "\n"


PARSERS = {
    "kgb": (parse_kgb, format_kgb),
    "orbitgraph": (parse_orbit_graph, format_orbit_graph),
    "rootdatum": (parse_root_datum, format_root_datum),
}


def run_cli(capsys, argv, text):
    try:
        code = main(argv)
    except Exception as exc:
        raise AssertionError(f"{argv[0]} raised {exc!r} on:\n{text}") from exc
    err = capsys.readouterr().err
    assert code in (0, 1) and err.count("\n") <= 1, (argv, code, err, text)


def test_mutants_end_in_one_error_line_or_round_trip(capsys, tmp_path):
    rng = random.Random(23)
    path = tmp_path / "mutant"
    for kind, text in sources():
        parse, format_ = PARSERS[kind]
        for _ in range(150):
            mutant = mutate(text, rng)
            path.write_text(mutant)
            run_cli(capsys, ["validate", str(path)], mutant)
            if kind == "kgb" and rng.random() < 0.25:
                argv = rng.choice((["hasse", "--kgb"], ["classes", "--levi", "1"], ["kgp-order", "--levi", "1"]))
                run_cli(capsys, argv + [str(path)], mutant)
            if kind == "orbitgraph":
                assert_parse_matches(mutant)
            if kind == "kgb":
                assert kgb_outcome(parse_kgb, mutant) == kgb_outcome(reference_parse_kgb, mutant), mutant
            try:
                got = parse(mutant)
                once = format_(got)
            except (FlagOrbitsError, OSError):
                continue
            if kind == "orbitgraph":
                assert_text_layer_matches(got)
            if kind == "kgb":
                assert once == reference_format_kgb(got) and validate_kgb(got) == reference_validate_kgb(got), mutant
            assert format_(parse(once)) == once, mutant
    # only the target of one cross= or cayley= field renamed to a name that
    # is not a node, which the mutants above mostly stop short of: parsed as
    # the reference parses it, UnknownNode names it
    for kind, text in sources():
        if kind != "kgb":
            continue
        lines = text.splitlines()
        fields = [(i, j) for i, line in enumerate(lines) for j, f in enumerate(line.split()) if f.startswith(("cross=", "cayley="))]
        for _ in range(40):
            i, j = rng.choice(fields)
            tokens = lines[i].split()
            tokens[j] = tokens[j].split("=")[0] + "=" + rng.choice(("x", "", "99", "01", "e"))
            mutant = "\n".join(lines[:i] + [" ".join(tokens)] + lines[i + 1 :]) + "\n"
            path.write_text(mutant)
            run_cli(capsys, ["validate", str(path)], mutant)
            got = kgb_outcome(parse_kgb, mutant)
            assert got == kgb_outcome(reference_parse_kgb, mutant), mutant
            assert any(v.startswith("UnknownNode: ") and v.endswith(tokens[j]) for v in got[1]), (got, mutant)
    # only the index of one fiber line of a named type raised above its rank:
    # refused at parse with one BadSimpleIndex line, as the reference refuses it
    for kind, text in sources():
        lines = text.splitlines()
        try:
            rank = len(cartan_matrix(lines[1].split()[1])) if kind == "orbitgraph" else None
        except InvalidCartan:
            rank = None
        if rank is None:
            continue
        fibers = [i for i, line in enumerate(lines) if line.startswith("fiber ")]
        for _ in range(20):
            i = rng.choice(fibers)
            tokens = lines[i].split()
            tokens[1] = str(rng.randint(rank + 1, rank + 3))
            mutant = "\n".join(lines[:i] + [" ".join(tokens)] + lines[i + 1 :]) + "\n"
            path.write_text(mutant)
            assert main(["validate", str(path)]) == 1, mutant
            err = capsys.readouterr().err
            assert err.startswith("error: BadSimpleIndex: ") and err.count("\n") == 1 and "(+" not in err, (err, mutant)
            assert_parse_matches(mutant)
