"""Symmetric-subgroup orbit graphs: fixtures, axioms, moves, serialization."""

from pathlib import Path

import pytest

from flagorbits import (
    AxiomViolation,
    KgbGraph,
    Mismatch,
    NoOpenNode,
    NotNoncompact,
    NotReal,
    ParseError,
    RootType,
    a1xa1_swap,
    apply_twist,
    ascent_consistency_check,
    build_root_datum,
    builtin_fixtures,
    canonical_sequences,
    cayley,
    cross_action,
    enumerate_elements,
    format_kgb,
    format_word,
    group_case,
    identity,
    inv,
    inverse_cayley,
    is_m_alpha_trivial,
    load_kgb,
    minimal_w_uniqueness_check,
    monoid,
    monoid_elt,
    monoid_word,
    mul,
    parse_kgb,
    pgl2_split,
    poset_leq,
    property_z_check,
    reduced_word,
    replay_downward,
    replay_upward,
    root_type,
    save_kgb,
    simple_reflection,
    sl2_split,
    to_orbit_poset,
    twisted_involutions,
    twisted_shadow,
    validate as validate_poset,
    validate_kgb,
)
from flagorbits import CartanSpec, weyl
from flagorbits.kgb import _braid_order, _cayley_preimages, _open_node
from flagorbits.orbit_poset import from_weyl, lower_ideal
from flagorbits.weyl import _table
from flagorbits.weyl import length as weyl_length


def all_graphs():
    graphs = dict(builtin_fixtures())
    graphs["shadow_a1"] = twisted_shadow(build_root_datum("A1"))
    graphs["shadow_a2"] = twisted_shadow(build_root_datum("A2"))
    graphs["shadow_a2_flip"] = twisted_shadow(build_root_datum("A2", twist=(2, 1)))
    graphs["shadow_b2"] = twisted_shadow(build_root_datum("B2"))
    return graphs


def test_sl2_split_shape():
    g = sl2_split()
    assert len(g.nodes) == 3
    assert sorted(g.length.values()) == [0, 0, 1]
    assert root_type(g, 1, "0") is RootType.NONCOMPACT_I
    assert root_type(g, 1, "1") is RootType.NONCOMPACT_I
    assert root_type(g, 1, "2") is RootType.REAL_I
    assert cross_action(g, 1, "0") == "1"
    assert cayley(g, 1, "0") == "2" == cayley(g, 1, "1")
    assert inverse_cayley(g, 1, "2") == ("0", "1")
    assert not is_m_alpha_trivial(g.datum, 1)


def test_pgl2_split_shape():
    g = pgl2_split()
    assert len(g.nodes) == 2
    assert is_m_alpha_trivial(g.datum, 1)
    assert root_type(g, 1, "0") is RootType.NONCOMPACT_II
    assert root_type(g, 1, "1") is RootType.REAL_II
    assert inverse_cayley(g, 1, "1") == ("0",)
    # the order-two torus element is trivial, so no type I labels anywhere
    assert all(
        lab not in (RootType.NONCOMPACT_I, RootType.REAL_I) for lab in g.label.values()
    )


def test_move_domain_errors():
    g = sl2_split()
    with pytest.raises(NotNoncompact):
        cayley(g, 1, "2")
    with pytest.raises(NotReal):
        inverse_cayley(g, 1, "0")
    with pytest.raises(Mismatch):
        root_type(g, 1, "zz")
    with pytest.raises(Mismatch):
        root_type(g, 2, "0")


def test_inverse_cayley_is_every_cayley_preimage():
    graphs = all_graphs()
    graphs["shadow_a4_flip"] = twisted_shadow(build_root_datum("A4", twist=(4, 3, 2, 1)))
    for g in graphs.values():
        for (alpha, v), lab in g.label.items():
            if lab in (RootType.REAL_I, RootType.REAL_II):
                scan = tuple(x for x in g.nodes if g.cayley.get((alpha, x)) == v)
                assert inverse_cayley(g, alpha, v) == scan


def test_every_graph_satisfies_all_axioms():
    for name, g in all_graphs().items():
        assert validate_kgb(g) == [], name
        assert ascent_consistency_check(g) == [], name
        poset = to_orbit_poset(g)
        assert validate_poset(poset) == [], name
        assert property_z_check(poset) == [], name


def test_a1xa1_swap_is_the_diagonal_case():
    assert a1xa1_swap() == group_case(build_root_datum("A1"))


def test_validate_catches_label_flip():
    g = sl2_split()
    broken = KgbGraph(
        g.datum,
        g.nodes,
        dict(g.tw),
        dict(g.length),
        {**g.label, (1, "2"): RootType.REAL_II},
        dict(g.cross),
        dict(g.cayley),
    )
    violations = validate_kgb(broken)
    assert any(v.startswith("InverseCayleyCount") for v in violations)
    with pytest.raises(AxiomViolation):
        parse_kgb(format_kgb(broken))


def _corrupt(g, **changes):
    """A copy of g with some entries of its tw/length/label/cross/cayley maps replaced."""
    fields = {
        "tw": dict(g.tw),
        "length": dict(g.length),
        "label": dict(g.label),
        "cross": dict(g.cross),
        "cayley": dict(g.cayley),
    }
    for name, updates in changes.items():
        fields[name].update(updates)
    return KgbGraph(g.datum, g.nodes, **fields)


def test_validate_checks_cayley_targets_type_i():
    e = identity(sl2_split().datum)
    cases = [
        (
            {"cayley": {(1, "0"): "9"}},
            [
                "InverseCayleyCount: alpha=1 node=2 got=1 want=2",
                "SharedCayley: alpha=1 node=1",
                "UnknownNode: alpha=1 node=0 cayley=9",
            ],
        ),
        (
            {"length": {"2": 2}},
            ["CayleyLength: alpha=1 node=0", "CayleyLength: alpha=1 node=1"],
        ),
        (
            {"label": {(1, "2"): RootType.REAL_II}},
            [
                "CayleyTarget: alpha=1 node=0 expected r1",
                "CayleyTarget: alpha=1 node=1 expected r1",
                "InverseCayleyCount: alpha=1 node=2 got=2 want=1",
            ],
        ),
        (
            {"tw": {"2": e}},
            [
                "CayleyTwist: alpha=1 node=0",
                "CayleyTwist: alpha=1 node=1",
                "LabelClass: alpha=1 node=2 label=r1 not real",
            ],
        ),
        (
            {"cayley": {(1, "1"): "0"}},
            [
                "CayleyLength: alpha=1 node=1",
                "CayleyTarget: alpha=1 node=1 expected r1",
                "CayleyTwist: alpha=1 node=1",
                "InverseCayleyCount: alpha=1 node=2 got=1 want=2",
                "SharedCayley: alpha=1 node=0",
                "SharedCayley: alpha=1 node=1",
            ],
        ),
    ]
    for changes, want in cases:
        assert validate_kgb(_corrupt(sl2_split(), **changes)) == want, changes


def test_validate_checks_cayley_targets_type_ii():
    cases = [
        (
            {"cayley": {(1, "0"): "7"}},
            [
                "InverseCayleyCount: alpha=1 node=1 got=0 want=1",
                "UnknownNode: alpha=1 node=0 cayley=7",
            ],
        ),
        (
            {"cayley": {(1, "0"): "0"}},
            [
                "CayleyLength: alpha=1 node=0",
                "CayleyTarget: alpha=1 node=0 expected r2",
                "CayleyTwist: alpha=1 node=0",
                "InverseCayleyCount: alpha=1 node=1 got=0 want=1",
            ],
        ),
        ({"length": {"1": 3}}, ["CayleyLength: alpha=1 node=0"]),
        # a moved type II root is not checked for a shared Cayley target
        (
            {"cross": {(1, "0"): "1"}},
            [
                "CrossNotInvolution: alpha=1 node=0",
                "CrossTwist: alpha=1 node=0",
                "TypeIIPattern: alpha=1 node=0",
            ],
        ),
    ]
    for changes, want in cases:
        assert validate_kgb(_corrupt(pgl2_split(), **changes)) == want, changes


def test_monoid_idempotent_and_braid():
    for name, g in all_graphs().items():
        r = g.datum.rank
        for v in g.nodes:
            for a in range(1, r + 1):
                up = monoid(g, a, v)
                assert monoid(g, a, up) == up, name
                for b in range(a + 1, r + 1):
                    m = _braid_order(g.datum, a, b)
                    x = y = v
                    for step in range(m):
                        x = monoid(g, a if step % 2 == 0 else b, x)
                        y = monoid(g, b if step % 2 == 0 else a, y)
                    assert x == y, name


def test_monoid_word_applies_first_letter_first():
    g = builtin_fixtures()["group_case_a2"]
    # 0 is the identity node; left moves are the first two simple indices
    assert monoid_word(g, (1, 2), "0") == "4"  # s2 s1, reached via s1 then s2
    assert monoid_word(g, (2, 1), "0") == "3"  # s1 s2


def test_monoid_elt_independent_of_reduced_word():
    def words(w):
        if weyl_length(w) == 0:
            return [()]
        out = []
        for i in range(1, w.datum.rank + 1):
            s = simple_reflection(w.datum, i)
            if weyl_length(mul(s, w)) < weyl_length(w):
                out.extend([(i,) + rest for rest in words(mul(s, w))])
        return out

    for name in ("sl2_split", "group_case_a2", "shadow_a2_flip"):
        g = all_graphs()[name]
        for w in enumerate_elements(g.datum):
            expected = {monoid_word(g, word, v) for v in g.nodes for word in words(w)}
            for v in g.nodes:
                targets = {monoid_word(g, word, v) for word in words(w)}
                assert len(targets) == 1, name
                assert monoid_elt(g, w, v) in targets


def test_twisted_involution_counts_and_sets():
    cases = [
        ("A1", None, ["e", "1"]),
        ("A2", None, ["e", "1", "2", "1,2,1"]),
        ("A1xA1", (2, 1), ["e", "1,2"]),
        ("A2", (2, 1), ["e", "1,2", "2,1", "1,2,1"]),
    ]
    for name, twist, want in cases:
        d = build_root_datum(name, twist=twist)
        got = twisted_involutions(d)
        assert [format_word(reduced_word(w)) for w in got] == want
        # agrees with filtering the full enumeration, in the same order
        filtered = tuple(
            w for w in enumerate_elements(d) if apply_twist(w) == inv(w)
        )
        assert got == filtered
    for name, twist in (("A5", (5, 4, 3, 2, 1)), ("D4", (1, 2, 4, 3)), ("B3", None), ("F4", None)):
        d = build_root_datum(name, twist=twist)
        want = tuple(w for w in enumerate_elements(d) if apply_twist(w) == inv(w))
        assert twisted_involutions(d) == want, name


def test_twisted_involution_counts_type_a():
    # with either twist, the involution counts of S_{n+1} (OEIS A000085)
    counts = {1: 2, 2: 4, 3: 10, 4: 26, 5: 76, 6: 232}
    for n, want in counts.items():
        for twist in (None, tuple(range(n, 0, -1))):
            d = build_root_datum(f"A{n}", twist=twist)
            assert len(twisted_involutions(d)) == want, (n, twist)


def _ideal_names(g, v):
    bits = bin(lower_ideal(g, v))[:1:-1]
    return {g.nodes[k] for k, bit in enumerate(bits) if bit == "1"}


def test_group_case_poset_is_the_weyl_poset():
    for name in ("A1", "A2", "B2", "A3", "B3", "A4", "D4", "F4"):
        d = build_root_datum(name)
        g = group_case(d)
        poset = to_orbit_poset(g)
        assert to_orbit_poset(g) is poset
        ref = from_weyl(d)
        ident = {
            str(i): format_word(reduced_word(w))
            for i, w in enumerate(enumerate_elements(d))
        }
        for v in poset.nodes:
            assert poset.length[v] == ref.length[ident[v]]
            below = {ident[u] for u in _ideal_names(poset, v)}
            assert below == _ideal_names(ref, ident[v]), (name, v)


def test_twisted_shadow_shapes():
    g = twisted_shadow(build_root_datum("A1"))
    assert [g.label[(1, v)] for v in g.nodes] == [RootType.NONCOMPACT_II, RootType.REAL_II]
    flip = twisted_shadow(build_root_datum("A2", twist=(2, 1)))
    assert len(flip.nodes) == 4
    assert sorted(flip.length.values()) == [0, 1, 1, 2]
    assert flip.origin == "twisted_shadow"


def test_minimal_w_uniqueness_split_rank_one():
    assert minimal_w_uniqueness_check(sl2_split()) == []
    assert minimal_w_uniqueness_check(pgl2_split()) == []
    assert minimal_w_uniqueness_check(twisted_shadow(build_root_datum("A1"))) == []


def test_minimal_w_uniqueness_fails_on_diagonal_cases():
    # the two copies of a simple reflection reach the same node from the
    # identity, so minimal words are never unique diagonally; see the
    # distinct-ascents discussion in the kgp tests
    assert minimal_w_uniqueness_check(a1xa1_swap()) == [
        "MinimalWNotUnique: start=0 target=1 words=1;2"
    ]
    violations = minimal_w_uniqueness_check(builtin_fixtures()["group_case_a2"])
    assert len(violations) == 9
    assert violations[0] == "MinimalWNotUnique: start=0 target=1 words=1;3"


def minimal_w_by_brute_force(g):
    """Oracle: act by every element of the whole group, through its canonical
    word, and keep the shortest elements reaching each target."""
    table = _table(g.datum)
    # Element k acts as its canonical word: the last letter after the prefix
    # k * s_last, which has a smaller id.
    steps = [(word[-1], table.right[word[-1] - 1][k]) for k, word in enumerate(table.words) if word]
    out = []
    for u in g.nodes:
        reach = [u]
        for last, prefix in steps:
            reach.append(monoid(g, last, reach[prefix]))
        best = {}
        for k, t in enumerate(reach):
            lw = table.length[k]
            if t not in best or lw < best[t][0]:
                best[t] = (lw, [k])
            elif lw == best[t][0]:
                best[t][1].append(k)
        for t, (lw, ks) in best.items():
            if len(ks) > 1:
                words = ";".join(format_word(table.words[k]) for k in ks)
                out.append(f"MinimalWNotUnique: start={u} target={t} words={words}")
    return sorted(out)


def test_minimal_w_layers_match_the_brute_force():
    graphs = dict(builtin_fixtures())
    for name in ("A3", "B3", "A4"):
        graphs[f"group_case_{name}"] = group_case(build_root_datum(name))
    shadows = [("A3", None), ("B3", None), ("A4", None), ("A4", (4, 3, 2, 1)), ("D4", (1, 2, 4, 3))]
    for name, twist in shadows:
        graphs[f"shadow_{name}_{twist}"] = twisted_shadow(build_root_datum(name, twist=twist))
    # components {1, 3} and {2}, swapped with each other by no twist: the
    # canonical words interleave the letters of the two components
    interleaved = CartanSpec(((2, 0, -1), (0, 2, 0), (-1, 0, 2)), ("1", "2", "3"))
    graphs["shadow_interleaved"] = twisted_shadow(build_root_datum(interleaved, twist=(3, 2, 1)))
    for name, g in graphs.items():
        assert minimal_w_uniqueness_check(g) == minimal_w_by_brute_force(g), name


def test_group_case_reads_the_table_of_the_one_group():
    d = build_root_datum("G2")
    g = group_case(d)
    text = format_kgb(g)
    again = parse_kgb(text)
    assert format_kgb(again) == text
    assert validate_kgb(again) == []
    layered = minimal_w_uniqueness_check(g)
    # the doubled datum is looked up as two copies of G2, never tabulated
    assert weyl._layout(g.datum).tables() == [_table(d), _table(d)]
    assert g.datum.cartan not in weyl._tables
    assert layered == minimal_w_by_brute_force(g)


def test_open_node_and_cayley_preimages_are_kept_on_the_graph():
    g = twisted_shadow(build_root_datum("A3", twist=(3, 2, 1)))
    assert _open_node(g) is _open_node(g)
    for alpha in range(1, g.datum.rank + 1):
        assert _cayley_preimages(g, alpha) is _cayley_preimages(g, alpha)
        assert sum(map(len, _cayley_preimages(g, alpha).values())) == sum(
            1 for (a, _) in g.cayley if a == alpha
        )


def test_canonical_sequences_sl2():
    g = sl2_split()
    cs = canonical_sequences(g, "2")
    assert cs.start == "0" and cs.up == (1,)
    assert cs.open_node == "2" and cs.down == ()
    cs = canonical_sequences(g, "0")
    assert cs.up == ()
    assert cs.down == ((1, 0),)
    cs = canonical_sequences(g, "1")
    assert cs.down == ((1, 1),)


def test_canonical_sequences_replay_everywhere():
    for name, g in all_graphs().items():
        for v in g.nodes:
            cs = canonical_sequences(g, v)
            assert replay_upward(g, cs.start, cs.up) == v, name
            assert replay_downward(g, cs.down) == v, name
            assert g.length[cs.start] == 0
            assert len(cs.up) == g.length[v]


def test_canonical_sequences_need_unique_open_node():
    d = build_root_datum("A1")
    e = identity(d)
    g = KgbGraph(
        d,
        ("0", "1"),
        {"0": e, "1": e},
        {"0": 0, "1": 0},
        {(1, "0"): RootType.COMPACT_IMAGINARY, (1, "1"): RootType.COMPACT_IMAGINARY},
        {(1, "0"): "0", (1, "1"): "1"},
        {},
    )
    assert validate_kgb(g) == []
    with pytest.raises(NoOpenNode):
        canonical_sequences(g, "0")


def test_format_golden_sl2():
    assert format_kgb(sl2_split()) == (
        "kgbgraph v1\n"
        "rootsystem inline\n"
        "rootdatum v1\n"
        "type A1\n"
        "isogeny simply_connected\n"
        "twist id\n"
        "nodes 3\n"
        "node 0 0 e\n"
        "node 1 0 e\n"
        "node 2 1 1\n"
        "label 0 1 nci1 cross=1 cayley=2\n"
        "label 1 1 nci1 cross=0 cayley=2\n"
        "label 2 1 r1 cross=2\n"
    )


def test_builtin_fixtures_match_the_committed_files():
    directory = Path(__file__).resolve().parent.parent / "fixtures"
    fixtures = builtin_fixtures()
    assert sorted(p.stem for p in directory.glob("*.kgb")) == sorted(fixtures)
    for name, g in fixtures.items():
        assert format_kgb(g) == (directory / f"{name}.kgb").read_text(encoding="utf-8"), name


def test_round_trip_byte_identical(tmp_path):
    for name, g in all_graphs().items():
        text = format_kgb(g)
        path = tmp_path / f"{name}.kgb"
        save_kgb(g, path)
        assert path.read_text() == text
        again = load_kgb(path)
        assert again == g, name
        assert format_kgb(again) == text, name


def test_rootsystem_file_reference(tmp_path):
    from flagorbits import format_root_datum

    g = pgl2_split()
    (tmp_path / "shared.rootdatum").write_text(format_root_datum(g.datum))
    inline = format_kgb(g).splitlines()
    body = [line for line in inline if line.startswith(("node", "nodes", "label"))]
    text = "\n".join(["kgbgraph v1", "rootsystem file shared.rootdatum"] + body) + "\n"
    path = tmp_path / "ref.kgb"
    path.write_text(text)
    assert load_kgb(path) == g


def test_parse_errors():
    good = format_kgb(pgl2_split())
    for bad in (
        "",
        good.replace("kgbgraph v1", "kgbgraph v2"),
        good.replace("rootsystem inline", "rootsystem maybe"),
        good.replace("nodes 2", "nodes 3"),
        good.replace("node 1 1 1", "node 0 1 1"),  # duplicate id
        good.replace("label 0 1 nci2", "label zz 1 nci2"),
        good.replace("label 0 1 nci2", "label 0 9 nci2"),
        good.replace("label 0 1 nci2", "label 0 1 xyz"),
        good.replace("cross=0 cayley=1", "cross=0 cayley=1 extra=2"),
        good + "label 0 1 nci2 cross=0 cayley=1\n",  # duplicate label
    ):
        with pytest.raises(ParseError):
            parse_kgb(bad)


def test_parsed_graphs_must_satisfy_axioms():
    good = format_kgb(pgl2_split())
    with pytest.raises(AxiomViolation):
        parse_kgb(good.replace("node 1 1 1", "node 1 2 1"))


def test_to_orbit_poset_fibers():
    g = sl2_split()
    poset = to_orbit_poset(g)
    assert poset.fiber(1, "0") == ("0", "1", "2")
    assert poset.dense_node(1, "0") == "2"
    p = to_orbit_poset(pgl2_split())
    assert p.fiber(1, "0") == ("0", "1")
    assert p.dense_node(1, "1") == "1"
