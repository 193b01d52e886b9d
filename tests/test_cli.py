"""End-to-end command-line checks, driven through main() for speed."""

import pytest

from flagorbits import (
    build_root_datum,
    format_kgb,
    format_orbit_graph,
    format_root_datum,
    from_weyl,
    sl2_split,
)
from flagorbits.cli import main


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


def test_type_names_above_the_rank_cap_end_in_one_error_line(capsys, tmp_path):
    big = tmp_path / "a201.rootdatum"
    big.write_text("rootdatum v1\ntype A201\nisogeny simply_connected\ntwist id\n")
    for argv in (["validate", str(big)], ["order", "--type", "A201", "e", "e"]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", "error: type 'A201' has rank 201, above the cap of 200\n"), argv


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
