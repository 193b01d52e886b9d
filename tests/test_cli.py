"""End-to-end command-line checks, driven through main() for speed."""

import argparse
import hashlib
import os
import random
import subprocess
import sys

import pytest

from flagorbits import (
    build_root_datum,
    format_kgb,
    format_orbit_graph,
    format_root_datum,
    format_word,
    from_weyl,
    longest_levi_element,
    reduced_word,
    sl2_split,
)
from flagorbits.cli import COMMANDS, main, parse_args
from test_weyl import refuse_tables


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_order(capsys):
    code, out, err = run(capsys, "order", "--type", "B2", "1,2", "2,1")
    assert (code, out, err) == (0, "incomparable\n", "")
    assert run(capsys, "order", "--type", "A2", "1", "1,2,1")[1] == "leq\n"
    assert run(capsys, "order", "--type", "A2", "1,2,1", "e")[1] == "geq\n"
    assert run(capsys, "order", "--type", "A2", "1,1", "e")[1] == "equal\n"


def test_reduce(capsys):
    code, out, err = run(capsys, "reduce", "--type", "B2", "2,1,2,2,1")
    assert (code, out) == (0, "2\n")


def test_enumerate(capsys):
    code, out, err = run(capsys, "enumerate", "--type", "A2")
    assert code == 0
    assert out == "e\n1\n2\n1,2\n2,1\n1,2,1\n"
    # deterministic across runs
    assert run(capsys, "enumerate", "--type", "A2")[1] == out


def test_whole_group_commands_refuse_e7(capsys):
    # |W(E7)| is above the table cap: one error line, not exhausted memory
    for argv in (("enumerate", "--type", "E7"), ("hasse", "--type", "E7")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: |W| = 2903040 is above the table cap") and err.count("\n") == 1
    assert run(capsys, "reduce", "--type", "E7", "7,7,1")[:2] == (0, "1\n")


def test_cosets(capsys):
    code, out, err = run(capsys, "cosets", "--type", "A2", "--levi", "1")
    assert code == 0
    assert out == "min=e max=1 plen=0\nmin=2 max=1,2 plen=1\nmin=2,1 max=1,2,1 plen=2\n"


def test_cosets_builds_no_table(capsys, monkeypatch):
    # both representatives of every coset are spelled from weights alone
    refuse_tables(monkeypatch)
    code, out, err = run(capsys, "cosets", "--type", "E6", "--levi", "1,3,5,6")
    assert (code, err, out.count("\n")) == (0, "", 1440)
    assert hashlib.sha256(out.encode()).hexdigest() == "568878ff1b48cbb7e8fdd816fcb0a098f1a43cd5043efbacb26f7e9ff76b8084"


def test_quotients_of_e7_and_e8_answer(capsys):
    # W(E7) and W(E8) are above the table cap; their quotients by E6 and E7
    # are not, and the cap applies to the cosets
    code, out, err = run(capsys, "cosets", "--type", "E7", "--levi", "1,2,3,4,5,6")
    lines = out.splitlines()
    assert (code, len(lines), err) == (0, 56, "")
    longest = format_word(reduced_word(longest_levi_element(build_root_datum("E6"), range(1, 7))))
    assert len(longest.split(",")) == 36
    assert lines[0] == f"min=e max={longest} plen=0"
    code, out, err = run(capsys, "hasse", "--type", "E8", "--levi", "1,2,3,4,5,6,7")
    assert (code, out.count(" [label="), err) == (0, 240, "")
    # |W(E8)| / 2 cosets: refused before the walk
    code, out, err = run(capsys, "hasse", "--type", "E8", "--levi", "1")
    assert (code, out) == (1, "")
    assert err == "error: |W_L\\W| = 348364800 is above the table cap of 51840 elements\n"


def test_e7_quotient_representatives_are_pinned(capsys):
    # W(E7) has no table, so every representative is spelled by the weight walk
    code, out, err = run(capsys, "cosets", "--type", "E7", "--levi", "1,2,3,4,5")
    assert (code, out.count("\n"), err) == (0, 1512, "")
    assert hashlib.sha256(out.encode()).hexdigest() == "c67fd393ded413559920783a8550aa73349b1cd05f5a836adda73fe9c761828f"


def test_classes_and_kgp_order(capsys, tmp_path):
    run(capsys, "fixtures", "--write", str(tmp_path))
    code, out, err = run(capsys, "classes", str(tmp_path / "group_case_a2.kgb"), "--levi", "1")
    assert code == 0
    assert out == (
        "class 0: top=1 members=0,1\n"
        "class 1: top=3 members=2,3\n"
        "class 2: top=5 members=4,5\n"
    )
    code, out, err = run(capsys, "kgp-order", str(tmp_path / "group_case_a2.kgb"), "--levi", "1")
    assert (code, out) == (0, "1 < 3\n3 < 5\n")


def test_classes_do_not_depend_on_node_names(capsys, tmp_path):
    # sl2_split with nodes 0 and 2 swapped, so that the open node is 0
    head = format_kgb(sl2_split()).split("nodes 3\n")[0]
    path = tmp_path / "renamed.kgb"
    path.write_text(
        head + "nodes 3\n"
        "node 0 1 1\nnode 1 0 e\nnode 2 0 e\n"
        "label 0 1 r1 cross=0\n"
        "label 1 1 nci1 cross=2 cayley=0\n"
        "label 2 1 nci1 cross=1 cayley=0\n"
    )
    assert run(capsys, "validate", str(path))[:2] == (0, "ok: 3 nodes, 0 violations\n")
    code, out, err = run(capsys, "classes", str(path), "--levi", "1")
    assert (code, out) == (0, "class 0: top=0 members=0,1,2\n")


def test_validate_good_files(capsys, tmp_path):
    kgb = tmp_path / "sl2.kgb"
    kgb.write_text(format_kgb(sl2_split()))
    code, out, err = run(capsys, "validate", str(kgb))
    assert (code, out, err) == (0, "ok: 3 nodes, 0 violations\n", "")

    rd = tmp_path / "b2.rootdatum"
    rd.write_text(format_root_datum(build_root_datum("B2")))
    code, out, err = run(capsys, "validate", str(rd))
    assert (code, out) == (0, "ok: rank 2, 0 violations\n")


def test_validate_reads_the_header_past_a_comment(capsys, tmp_path):
    # the header is found the way the parsers find it, comments stripped
    graph = tmp_path / "a2.orbitgraph"
    text = format_orbit_graph(from_weyl(build_root_datum("A2")))
    graph.write_text(text.replace("orbitgraph v1\n", "orbitgraph v1  # note\n"))
    code, out, err = run(capsys, "validate", str(graph))
    assert (code, out, err) == (0, "ok: 6 nodes, 0 violations\n", "")


def test_validate_reads_each_file_once(capsys, tmp_path, monkeypatch):
    # a kgb graph naming its root datum by a path relative to the graph file,
    # validated from another directory: that file is read too, once
    (tmp_path / "a1.rootdatum").write_text(format_root_datum(build_root_datum("A1")))
    body = format_kgb(sl2_split()).split("isogeny simply_connected\ntwist id\n")[1]
    (tmp_path / "sl2.kgb").write_text("kgbgraph v1\nrootsystem file a1.rootdatum\n" + body)
    (tmp_path / "a2.orbitgraph").write_text(format_orbit_graph(from_weyl(build_root_datum("A2"))))
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened.append(os.path.basename(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    monkeypatch.chdir(tmp_path.parent)
    assert run(capsys, "validate", str(tmp_path / "sl2.kgb")) == (0, "ok: 3 nodes, 0 violations\n", "")
    assert run(capsys, "validate", str(tmp_path / "a2.orbitgraph")) == (0, "ok: 6 nodes, 0 violations\n", "")
    assert opened == ["sl2.kgb", "a1.rootdatum", "a2.orbitgraph"]


def test_validate_flags_diagonal_fixture(capsys, tmp_path):
    run(capsys, "fixtures", "--write", str(tmp_path))
    code, out, err = run(capsys, "validate", str(tmp_path / "group_case_a1.kgb"))
    assert code == 1
    assert err == "error: MinimalWNotUnique: start=0 target=1 words=1;2\n"
    assert out == ""


def test_validate_error_paths(capsys, tmp_path):
    code, out, err = run(capsys, "validate", str(tmp_path / "missing.kgb"))
    assert code == 1 and err.startswith("error:")

    junk = tmp_path / "junk.kgb"
    junk.write_text("something else\n")
    code, out, err = run(capsys, "validate", str(junk))
    assert code == 1 and err.startswith("error:")

    broken = tmp_path / "broken.kgb"
    broken.write_text(format_kgb(sl2_split()).replace("node 2 1 1", "node 2 5 1"))
    code, out, err = run(capsys, "validate", str(broken))
    assert code == 1 and err.startswith("error:")


def test_missing_labels_end_in_one_error_line(capsys, tmp_path):
    run(capsys, "fixtures", "--write", str(tmp_path))
    text = (tmp_path / "group_case_a2.kgb").read_text()
    broken = tmp_path / "missing_labels.kgb"
    broken.write_text("".join(line for line in text.splitlines(True) if not line.startswith("label 3 ")))
    for argv in (["validate", str(broken)], ["hasse", "--kgb", str(broken)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err == "error: MissingLabel: alpha=1 node=3 (+3 more)\n", argv


def test_dangling_and_missing_moves_end_in_one_error_line(capsys, tmp_path):
    # refused alone, ahead of what the other axioms would say of them
    run(capsys, "fixtures", "--write", str(tmp_path))
    group = (tmp_path / "group_case_a2.kgb").read_text()
    sl2 = (tmp_path / "sl2_split.kgb").read_text()
    cases = [
        ("dangling.kgb", group.replace("label 0 1 C+ cross=1\n", "label 0 1 C+ cross=zz\n"), "UnknownNode: alpha=1 node=0 cross=zz"),
        ("no_cayley.kgb", sl2.replace("label 0 1 nci1 cross=1 cayley=2\n", "label 0 1 nci1 cross=1\n"), "MissingCayley: alpha=1 node=0"),
    ]
    for name, text, line in cases:
        assert text not in (group, sl2), name
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out, err) == (1, "", f"error: {line}\n"), name


def test_type_names_above_the_rank_cap_end_in_one_error_line(capsys, tmp_path):
    big = tmp_path / "a201.rootdatum"
    big.write_text("rootdatum v1\ntype A201\nisogeny simply_connected\ntwist id\n")
    for argv in (["validate", str(big)], ["order", "--type", "A201", "e", "e"]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", "error: type 'A201' has rank 201, above the cap of 200\n"), argv
    huge = "9" * 4400
    for name, message in (
        ("A²", "cannot parse type name 'A²'"),
        ("A" + huge, f"cannot parse type name 'A{huge}'"),
    ):
        assert run(capsys, "order", "--type", name, "e", "e") == (1, "", f"error: {message}\n")


def test_usage_errors_exit_2(capsys, tmp_path):
    for argv in (
        [],
        ["no-such-command"],
        ["enumerate"],  # missing --type
        ["hasse"],  # neither --type nor --kgb
        ["hasse", "--type", "A2", "--kgb", "x.kgb"],
        ["hasse", "--kgb", "x.kgb", "--levi", "1"],
        ["order", "--type", "A2", "1"],  # missing operand
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        capsys.readouterr()


def test_hasse_weyl(capsys):
    code, out, err = run(capsys, "hasse", "--type", "A2")
    assert code == 0
    assert out.startswith("digraph closure_order {")
    assert out.count("->") == 8
    assert '"e" [label="e len=0"];' in out
    assert '"1,2,1" [label="1,2,1 len=3"];' in out


def test_hasse_quotient_and_kgb(capsys, tmp_path):
    code, out, err = run(capsys, "hasse", "--type", "A2", "--levi", "1")
    assert code == 0
    assert out.count("[label=") == 3

    kgb = tmp_path / "sl2.kgb"
    kgb.write_text(format_kgb(sl2_split()))
    code, out, err = run(capsys, "hasse", "--kgb", str(kgb))
    assert code == 0
    assert '"0" -> "2";' in out and '"1" -> "2";' in out
    assert out.count("->") == 2


def test_fixtures_listing_and_writing(capsys, tmp_path):
    code, out, err = run(capsys, "fixtures")
    assert code == 0
    assert out == (
        "sl2_split: 3 nodes\n"
        "pgl2_split: 2 nodes\n"
        "a1xa1_swap: 2 nodes\n"
        "group_case_a1: 2 nodes\n"
        "group_case_a2: 6 nodes\n"
        "group_case_b2: 8 nodes\n"
    )
    code, out, err = run(capsys, "fixtures", "--write", str(tmp_path / "sub"))
    assert code == 0
    assert len(out.splitlines()) == 6
    written = sorted(p.name for p in (tmp_path / "sub").iterdir())
    assert written == [
        "a1xa1_swap.kgb",
        "group_case_a1.kgb",
        "group_case_a2.kgb",
        "group_case_b2.kgb",
        "pgl2_split.kgb",
        "sl2_split.kgb",
    ]
    assert (tmp_path / "sub" / "sl2_split.kgb").read_text() == format_kgb(sl2_split())


def test_isogeny_and_twist_flags_are_gone(capsys):
    # W and its quotients do not depend on the isogeny or the twist, so the
    # commands take no such options.
    for argv in (
        ["enumerate", "--type", "A2", "--twist", "flip"],
        ["order", "--type", "A2", "--adjoint", "1", "2"],
        ["hasse", "--type", "A2", "--adjoint"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err


def test_levi_indices_int_cannot_convert_end_in_one_error_line(capsys):
    huge = "9" * 4400
    for levi in ("²", huge, "--1", "1,٣"):
        code, out, err = run(capsys, "cosets", "--type", "A3", f"--levi={levi}")
        bad = levi.split(",")[-1]
        assert (code, out, err) == (1, "", f"error: bad levi index {bad!r}\n"), levi
    assert run(capsys, "cosets", "--type", "A3", "--levi", "-1") == (1, "", "error: Levi index -1 out of range 1..3\n")


def test_node_counts_and_names_int_cannot_convert(capsys, tmp_path):
    orbit = tmp_path / "g.orbitgraph"
    kgb = tmp_path / "g.kgb"
    for count in ("²", "9" * 4400):
        orbit.write_text(f"orbitgraph v1\nrootsystem A1\nnodes {count}\n")
        kgb.write_text(format_kgb(sl2_split()).replace("nodes 3", f"nodes {count}"))
        for argv in (["validate", str(orbit)], ["validate", str(kgb)], ["hasse", "--kgb", str(kgb)]):
            assert run(capsys, *argv) == (1, "", "error: expected a node count line\n"), argv
    # a node named by a non-ASCII digit sorts after the numerals, as any other name
    orbit.write_text("orbitgraph v1\nrootsystem A1\nnodes 2\nnode ² 0\nnode 1 1\nfiber 1 1 ²\n")
    assert run(capsys, "validate", str(orbit)) == (0, "ok: 2 nodes, 0 violations\n", "")
    text = format_kgb(sl2_split()).replace("node 1 ", "node ² ").replace("label 1 ", "label ² ")
    kgb.write_text(text.replace("cross=1", "cross=²"))
    assert run(capsys, "validate", str(kgb)) == (0, "ok: 3 nodes, 0 violations\n", "")
    code, out, err = run(capsys, "classes", str(kgb), "--levi", "1")
    assert (code, out) == (0, "class 0: top=2 members=0,2,²\n")


# --- the table-driven parser against argparse -------------------------------------------


def reference_parser():
    """The argparse parser the command table replaces, kept as its oracle."""
    parser = argparse.ArgumentParser(
        prog="flagorbits",
        description="Bruhat order on orbit posets of flag varieties",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    type_help = "built-in type name, e.g. A2 or B3"
    levi_help = "comma-separated simple indices"

    p = sub.add_parser("enumerate", help="list group elements as reduced words")
    p.add_argument("--type", required=True, help=type_help)

    p = sub.add_parser("order", help="compare two elements in Bruhat order")
    p.add_argument("--type", required=True, help=type_help)
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("reduce", help="canonical reduced word of a product")
    p.add_argument("--type", required=True, help=type_help)
    p.add_argument("word")

    p = sub.add_parser("cosets", help="parabolic quotient representatives")
    p.add_argument("--type", required=True, help=type_help)
    p.add_argument("--levi", required=True, help=levi_help)

    p = sub.add_parser("classes", help="equivalence classes of a graph file")
    p.add_argument("graph", help="kgbgraph file")
    p.add_argument("--levi", required=True, help=levi_help)

    p = sub.add_parser("kgp-order", help="Hasse edges of the class poset")
    p.add_argument("graph", help="kgbgraph file")
    p.add_argument("--levi", required=True, help=levi_help)

    p = sub.add_parser("validate", help="validate a data file, any format")
    p.add_argument("file")

    p = sub.add_parser("hasse", help="emit the cover graph in DOT form")
    p.add_argument("--type", help="built-in type name")
    p.add_argument("--levi", help="quotient by this Levi set")
    p.add_argument("--kgb", help="kgbgraph file instead of --type")

    p = sub.add_parser("fixtures", help="list or write the built-in graphs")
    p.add_argument("--write", metavar="DIR", help="write fixture files here")
    return parser


REFERENCE = reference_parser()


def reference_parse(argv):
    args = REFERENCE.parse_args(argv)
    if args.command == "hasse":
        if bool(args.kgb) == bool(args.type):
            REFERENCE.error("hasse needs exactly one of --type or --kgb")
        if args.kgb and args.levi:
            REFERENCE.error("--kgb cannot be combined with --levi")
    return args


def outcome(parse, argv, capsys):
    """("ok", namespace) or ("exit", code, the message of the error line)."""
    try:
        args = vars(parse(list(argv)))
    except SystemExit as exc:
        err = capsys.readouterr().err
        return ("exit", exc.code, err.rpartition("error: ")[2] if exc.code else "")
    capsys.readouterr()
    return ("ok", args)


ACCEPTED = [
    ["enumerate", "--type", "A2"],
    ["order", "--type", "B2", "1,2", "2,1"],
    ["reduce", "--type=E8", "8,8,1"],
    ["cosets", "--type", "A3", "--levi", "1,2"],
    ["classes", "g.kgb", "--levi", "1"],
    ["kgp-order", "--levi=1", "g.kgb"],
    ["validate", "f.orbitgraph"],
    ["fixtures"],
    ["fixtures", "--write", "out"],
    ["fixtures", "--w=out"],
    # unique prefixes, with a value after them or attached by "="
    ["order", "--ty", "A2", "1", "e"],
    ["cosets", "--t=A2", "--le", "2"],
    ["hasse", "--ty", "A2", "--l=1"],
    ["hasse", "--k", "g.kgb"],
    # options between and after positionals; the last of a repeated option wins
    ["order", "1", "--type", "A2", "2"],
    ["order", "1", "2", "--type", "A2"],
    ["cosets", "--type", "A2", "--levi", "1", "--type", "B2"],
    ["hasse", "--type", "A2", "--type=B3"],
    # "--" ends the options; words that look like negative numbers are values
    ["order", "--type", "A2", "--", "-1", "2"],
    ["order", "--type", "A2", "1", "--", "2"],
    ["order", "--type", "A2", "1", "2", "--"],
    ["validate", "--", "--type"],
    ["validate", "--", "--"],
    ["order", "--type", "-1", "-2", "-3.5"],
    ["cosets", "--type", "A2", "--levi", "-1"],
    ["cosets", "--type", "A2", "--levi", ""],
    ["cosets", "--type", "A2", "--levi="],
    ["order", "--type", "A2", "-", "-x y"],
    # both hasse forms, with and without --levi
    ["hasse", "--type", "A2"],
    ["hasse", "--type", "A2", "--levi", "1"],
    ["hasse", "--levi", "1", "--type", "A2"],
    ["hasse", "--kgb", "g.kgb"],
    ["hasse", "--kgb", "g.kgb", "--levi", ""],
]

USAGE_ERRORS = [
    # test_usage_errors_exit_2
    [],
    ["no-such-command"],
    ["enumerate"],
    ["hasse"],
    ["hasse", "--type", "A2", "--kgb", "x.kgb"],
    ["hasse", "--kgb", "x.kgb", "--levi", "1"],
    ["order", "--type", "A2", "1"],
    # test_isogeny_and_twist_flags_are_gone
    ["enumerate", "--type", "A2", "--twist", "flip"],
    ["order", "--type", "A2", "--adjoint", "1", "2"],
    ["hasse", "--type", "A2", "--adjoint"],
    # an ambiguous prefix, a missing option value, and more
    ["hasse", "--=A2"],
    ["cosets", "--type", "A2", "--levi"],
    ["cosets", "--type", "A2", "--levi", "-x"],
    ["cosets", "--type", "A2", "--levi", "--", "1"],
    ["order", "--type", "A2", "1", "2", "3"],
    ["order", "-t", "A2", "1", "2"],
    ["order", "--", "1", "2", "--type", "A2"],
    ["order", "--help=3"],
    ["order", "-hx"],
    ["fixtures", "--"],
    ["hasse", "--type", "A2", "--"],
    ["classes", "--levi", "1"],
    ["validate", "a", "--", "b"],
    ["--", "validate", "f"],
    ["-1"],
]


@pytest.mark.parametrize("argv", ACCEPTED, ids=" ".join)
def test_table_parser_reads_what_argparse_reads(argv, capsys):
    want = outcome(reference_parse, argv, capsys)
    assert want[0] == "ok", want
    assert outcome(parse_args, argv, capsys) == want


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
def test_table_parser_refuses_what_argparse_refuses(argv, capsys):
    want = outcome(reference_parse, argv, capsys)
    assert want[:2] == ("exit", 2), want
    assert outcome(parse_args, argv, capsys) == want
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2 and lines[0].startswith("usage: flagorbits ")
    assert lines[1] == "flagorbits: error: " + want[2].rstrip("\n")


def test_table_parser_agrees_with_argparse_on_random_command_lines(capsys):
    # A seeded sample of command lines: a command, then up to six words from
    # option names, prefixes, values, "--" and negative-number look-alikes.
    # Left out: a second "--" (argparse hands the positional after it an
    # empty list where the table keeps the word "--").
    words = ["--type", "--ty", "--t=A2", "--type=", "--levi", "--le", "--levi=1", "--kgb", "--k=x",
             "--write", "--w", "--=v", "--x", "-x", "-h", "--he", "-hx", "--help=2", "--",
             "-1", "-1.5", "-", "-x y", "A2", "1", "2,1", "e", ""]
    rng = random.Random(1311)
    checked = 0
    while checked < 1500:
        argv = [rng.choice(list(COMMANDS))] + rng.choices(words, k=rng.randint(0, 6))
        if argv.count("--") > 1:
            continue
        assert outcome(parse_args, argv, capsys) == outcome(reference_parse, argv, capsys), argv
        checked += 1


def test_help_names_every_command_and_option(capsys):
    for argv in (["-h"], ["--help"], ["--he"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: flagorbits ")
        for command, (_, about, _, _) in COMMANDS.items():
            assert command in out and about in out
    for action in REFERENCE._subparsers._group_actions:
        for command, sub in action.choices.items():
            for argv in ([command, "-h"], [command, "--type", "A2", "--help"]):
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                assert exc.value.code == 0
                out = capsys.readouterr().out
                assert out.startswith(f"usage: flagorbits {command} ")
                for arg in sub._actions:
                    for name in arg.option_strings or [arg.dest]:
                        assert name in out, (command, name)
                    assert (arg.help or "") in out, (command, arg.help)


def test_a_cold_request_loads_no_argparse_or_gettext():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = (
        "import sys\n"
        "import flagorbits.cli\n"
        "codes = [flagorbits.cli.main(argv) for argv in (\n"
        "    ['order', '--type', 'E8', '1', '2'],\n"
        "    ['validate', 'fixtures/group_case_b2.kgb'],\n"
        "    ['hasse', '--kgb', 'fixtures/sl2_split.kgb'])]\n"
        "loaded = [m for m in ('argparse', 'gettext') if m in sys.modules]\n"
        "sys.stderr.write(f'codes={codes} loaded={loaded}\\n')\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    got = subprocess.run([sys.executable, "-S", "-c", code], cwd=root, env=env, capture_output=True, text=True)
    assert got.returncode == 0, got.stderr
    assert got.stderr.splitlines()[-1] == "codes=[0, 1, 0] loaded=[]"
