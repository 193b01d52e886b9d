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
    class_hasse,
    cross_action,
    enumerate_elements,
    format_kgb,
    format_word,
    group_case,
    i_equivalence_classes,
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
    p_maximal_set,
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
from flagorbits.kgb import _braid_order, _open_node
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


def monoid_by_label(g, alpha, v):
    """Oracle: the monoid move read off the label."""
    lab = g.label[(alpha, v)]
    if lab is RootType.COMPLEX_ASCENT:
        return g.cross[(alpha, v)]
    if lab in (RootType.NONCOMPACT_I, RootType.NONCOMPACT_II):
        return g.cayley[(alpha, v)]
    return v


def descents_by_label(g, alpha, v):
    """Oracle: the nodes one step below v along alpha, in node order: the
    cross partner of a complex descent, the Cayley preimages of a real root."""
    lab = g.label[(alpha, v)]
    if lab is RootType.COMPLEX_DESCENT:
        return (g.cross[(alpha, v)],)
    if lab in (RootType.REAL_I, RootType.REAL_II):
        return tuple(x for x in g.nodes if g.cayley.get((alpha, x)) == v)
    return ()


def down_by_label(g, v):
    """Oracle: climb from v by the first ascending label, then record the
    way back down from the open node, with a branch at every type I real root."""
    climb = []
    while v != _open_node(g):
        alpha = next(a for a in range(1, g.datum.rank + 1) if monoid_by_label(g, a, v) != v)
        climb.append((alpha, v, monoid_by_label(g, alpha, v)))
        v = climb[-1][2]
    return tuple(
        (alpha, descents_by_label(g, alpha, upper).index(lower) if g.label[(alpha, upper)] is RootType.REAL_I else None)
        for alpha, lower, upper in reversed(climb)
    )


def replay_down_by_label(g, down):
    v = _open_node(g)
    for alpha, branch in down:
        v = descents_by_label(g, alpha, v)[branch or 0]
    return v


def oracle_graphs():
    graphs = all_graphs()
    for name in ("A3", "B3"):
        graphs[f"group_case_{name}"] = group_case(build_root_datum(name))
    for name, twist in (("A4", (4, 3, 2, 1)), ("D4", (1, 2, 4, 3))):
        graphs[f"shadow_{name}_flip"] = twisted_shadow(build_root_datum(name, twist=twist))
    return graphs


def test_moves_match_the_label_dispatch():
    for name, g in oracle_graphs().items():
        poset = to_orbit_poset(g)
        for alpha in range(1, g.datum.rank + 1):
            for v in g.nodes:
                assert monoid(g, alpha, v) == monoid_by_label(g, alpha, v), (name, alpha, v)
                below = descents_by_label(g, alpha, v)
                if poset.dense_node(alpha, v) == v:
                    assert tuple(x for x in poset.fiber(alpha, v) if x != v) == below, (name, alpha, v)
                else:
                    assert below == (), (name, alpha, v)
                if g.label[(alpha, v)] in (RootType.REAL_I, RootType.REAL_II):
                    assert inverse_cayley(g, alpha, v) == below, (name, alpha, v)
        for v in g.nodes:
            cs = canonical_sequences(g, v)
            assert cs.down == down_by_label(g, v), (name, v)
            assert replay_downward(g, cs.down) == replay_down_by_label(g, cs.down) == v, (name, v)


def test_missing_moves_are_axiom_violations():
    sl2 = _corrupt(sl2_split(), label={(1, "1"): None})
    a2 = _corrupt(group_case(build_root_datum("A2")), label={(3, "4"): None})
    unknown = _corrupt(pgl2_split(), cross={(1, "1"): "7"})
    no_cayley = _corrupt(sl2_split(), cayley={(1, "0"): None})
    reads = (
        to_orbit_poset,
        ascent_consistency_check,
        minimal_w_uniqueness_check,
        lambda g: monoid(g, 1, "0"),
        lambda g: canonical_sequences(g, "0"),
        lambda g: i_equivalence_classes(g, (1,)),
        lambda g: p_maximal_set(g, (1,)),
    )
    for g in (sl2, a2, unknown, no_cayley):
        want = validate_kgb(g)
        assert want
        for read in reads:
            with pytest.raises(AxiomViolation) as err:
                read(g)
            assert err.value.violations == want
    assert validate_kgb(sl2) == ["MissingLabel: alpha=1 node=1"]
    assert validate_kgb(a2) == ["MissingLabel: alpha=3 node=4"]


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
    """A copy of g with some entries of its tw/length/label/cross/cayley maps
    replaced, or deleted where the new value is None."""
    fields = {name: dict(getattr(g, name)) for name in ("tw", "length", "label", "cross", "cayley")}
    for name, updates in changes.items():
        fields[name] = {k: v for k, v in {**fields[name], **updates}.items() if v is not None}
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


def test_validate_reports_every_local_axiom():
    """One corrupted graph per violation code that no valid graph shows."""
    swap = a1xa1_swap()
    shadow = twisted_shadow(build_root_datum("A2"))
    ci, c_up = RootType.COMPACT_IMAGINARY, RootType.COMPLEX_ASCENT
    cases = [
        ("BadLength", pgl2_split(), {"length": {"0": -1}}, ["CayleyLength: alpha=1 node=0"]),
        (
            "TwNotTwisted",
            shadow,
            {"tw": {"0": weyl.from_word(shadow.datum, (1, 2))}},
            [
                "CayleyTwist: alpha=1 node=0",
                "CayleyTwist: alpha=2 node=0",
                "CrossTwist: alpha=1 node=0",
                "CrossTwist: alpha=2 node=0",
                "LabelClass: alpha=1 node=0 label=nci2 not imaginary",
                "LabelClass: alpha=2 node=0 label=nci2 not imaginary",
            ],
        ),
        (
            "LabelClass: alpha=1 node=0 label=ci not imaginary",
            swap,
            {"label": {(1, "0"): ci}},
            ["CompactMoved: alpha=1 node=0", "PartnerLabel: alpha=1 node=1"],
        ),
        (
            "LabelClass: alpha=1 node=0 label=C+ not complex",
            pgl2_split(),
            {"label": {(1, "0"): c_up}},
            ["AscentPattern: alpha=1 node=0", "SpuriousCayley: alpha=1 node=0"],
        ),
        ("SpuriousCayley", pgl2_split(), {"cayley": {(1, "1"): "0"}}, []),
        (
            "TypeIForbidden",
            pgl2_split(),
            {"label": {(1, "1"): RootType.REAL_I}},
            ["CayleyTarget: alpha=1 node=0 expected r2", "InverseCayleyCount: alpha=1 node=1 got=1 want=2"],
        ),
        (
            "AscentPattern",
            swap,
            {"length": {"1": 2}},
            ["DescentPattern: alpha=1 node=1", "DescentPattern: alpha=2 node=1"],
        ),
        (
            "DescentPattern",
            swap,
            {"cross": {(1, "1"): "1"}},
            [
                "CrossBraid: alpha=1 beta=2 node=0",
                "CrossBraid: alpha=1 beta=2 node=1",
                "CrossNotInvolution: alpha=1 node=0",
                "CrossTwist: alpha=1 node=1",
            ],
        ),
        (
            "CompactMoved",
            sl2_split(),
            {"label": {(1, "0"): ci, (1, "1"): ci}},
            ["SpuriousCayley: alpha=1 node=0", "SpuriousCayley: alpha=1 node=1"],
        ),
        (
            "TypeIPattern",
            sl2_split(),
            {"length": {"1": 1}},
            ["CayleyLength: alpha=1 node=1"],
        ),
        (
            "RealMoved",
            sl2_split(),
            {"cross": {(1, "2"): "0"}},
            ["CrossNotInvolution: alpha=1 node=2", "CrossTwist: alpha=1 node=2"],
        ),
        ("PartnerLabel", swap, {"label": {(1, "1"): c_up}}, ["AscentPattern: alpha=1 node=1"]),
        (
            "PartnerLabel: alpha=1 node=0",
            sl2_split(),
            {"label": {(1, "1"): ci}},
            ["CompactMoved: alpha=1 node=1", "SpuriousCayley: alpha=1 node=1"],
        ),
        (
            "TypeIIPattern",
            pgl2_split(),
            {"cross": {(1, "0"): "1"}},
            ["CrossNotInvolution: alpha=1 node=0", "CrossTwist: alpha=1 node=0"],
        ),
        (
            "CrossBraid",
            swap,
            {"cross": {(1, "0"): "0"}},
            [
                "AscentPattern: alpha=1 node=0",
                "CrossNotInvolution: alpha=1 node=1",
                "CrossTwist: alpha=1 node=0",
            ],
        ),
    ]
    for code, g, changes, others in cases:
        got = validate_kgb(_corrupt(g, **changes))
        named = [v for v in got if v.startswith(code)]
        assert named and sorted(named + others) == got, (code, got)
    # the direction criterion is checked apart from the axioms
    g = _corrupt(swap, label={(1, "1"): c_up})
    assert ascent_consistency_check(g) == ["AscentCriterion: alpha=1 node=1 label=C+"]
    assert all(ascent_consistency_check(g) == [] for g in all_graphs().values())


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


def renamed(g, perm):
    """A copy of g with every node v called perm[v]."""
    def keyed(moves):
        return {(alpha, perm[v]): perm[t] for (alpha, v), t in moves.items()}

    return KgbGraph(
        g.datum,
        tuple(perm[v] for v in g.nodes),
        {perm[v]: w for v, w in g.tw.items()},
        {perm[v]: n for v, n in g.length.items()},
        {(alpha, perm[v]): lab for (alpha, v), lab in g.label.items()},
        keyed(g.cross),
        keyed(g.cayley),
    )


def test_answers_map_across_a_renaming():
    graphs = {
        "sl2_split": (sl2_split(), [()]),
        "group_case_A3": (group_case(build_root_datum("A3")), [(1,), (2, 4), (1, 2, 6)]),
        "shadow_A4_flip": (twisted_shadow(build_root_datum("A4", twist=(4, 3, 2, 1))), [(2,), (1, 3)]),
    }
    for name, (g, levis) in graphs.items():
        n = len(g.nodes)
        perm = {v: str(n - 1 - int(v)) for v in g.nodes}  # the open node becomes "0"
        h = renamed(g, perm)
        assert validate_kgb(h) == [], name
        for levi in levis + [tuple(range(1, g.datum.rank + 1))]:
            classes = {(frozenset(map(perm.get, c.members)), perm[c.top]) for c in i_equivalence_classes(g, levi)}
            assert {(frozenset(c.members), c.top) for c in i_equivalence_classes(h, levi)} == classes, (name, levi)
            assert set(p_maximal_set(h, levi)) == set(map(perm.get, p_maximal_set(g, levi))), (name, levi)
            want = {(perm[u], perm[v]) for u, v in class_hasse(g, levi)}
            assert set(class_hasse(h, levi)) == want, (name, levi)
        for (alpha, v), lab in g.label.items():
            if lab in (RootType.REAL_I, RootType.REAL_II):
                got = inverse_cayley(h, alpha, perm[v])
                assert set(got) == set(map(perm.get, inverse_cayley(g, alpha, v))), (name, alpha, v)
        for v in h.nodes:
            cs = canonical_sequences(h, v)
            assert replay_upward(h, cs.start, cs.up) == v == replay_downward(h, cs.down), (name, v)


def test_replay_downward_refuses_a_malformed_route():
    g = sl2_split()
    assert replay_downward(g, ((1, 1),)) == "1"
    for down in (((1, None),), ((1, 2),), ((1, -1),), ((1, "0"),), ((1, 0), (1, 0)), ((2, 0),)):
        with pytest.raises(Mismatch):
            replay_downward(g, down)
    h = pgl2_split()
    assert replay_downward(h, ((1, None),)) == replay_downward(h, ((1, 0),)) == "0"
    with pytest.raises(Mismatch):
        replay_downward(h, ((1, 1),))


def test_open_node_is_kept_on_the_graph():
    g = twisted_shadow(build_root_datum("A3", twist=(3, 2, 1)))
    assert _open_node(g) is _open_node(g)


def test_graph_is_read_only_from_construction():
    sl2 = sl2_split()
    fields = {name: dict(getattr(sl2, name)) for name in ("tw", "length", "label", "cross", "cayley")}
    g = KgbGraph(sl2.datum, sl2.nodes, **fields, origin="fixture")
    for name, m in fields.items():
        with pytest.raises(TypeError):
            getattr(g, name)[next(iter(m))] = None
        m.clear()  # the caller's dict; the graph keeps its own copy
    for name in ("nodes", "cayley", "origin", "_poset"):
        with pytest.raises(AttributeError):
            setattr(g, name, None)
        with pytest.raises(AttributeError):
            delattr(g, name)
    assert g == sl2_split() and repr(g) == repr(sl2_split())
    assert monoid(g, 1, "0") == "2"
    assert [c.members for c in i_equivalence_classes(g, (1,))] == [("0", "1", "2")]
    assert _open_node(g) == "2"
    bad = _corrupt(g, cayley={(1, "0"): "1", (1, "1"): "0"})
    assert len(validate_kgb(bad)) == 9
    assert monoid(bad, 1, "0") == "0"
    with pytest.raises(AxiomViolation):
        i_equivalence_classes(bad, (1,))


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


def test_replay_on_a_loaded_graph_without_nodes_has_no_open_node(tmp_path):
    path = tmp_path / "empty.kgb"
    path.write_text(
        "kgbgraph v1\nrootsystem inline\nrootdatum v1\ntype A1\nisogeny simply_connected\ntwist id\nnodes 0\n"
    )
    g = load_kgb(path)
    assert g.nodes == ()
    with pytest.raises(NoOpenNode, match="found 0"):
        replay_downward(g, ())


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
    assert sorted(fixtures) == [
        "a1xa1_swap", "group_case_a1", "group_case_a2", "group_case_b2", "pgl2_split", "sl2_split"
    ]
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
    header = "expected header 'kgbgraph v1'"
    for bad, message in (
        ("", header),
        (good.replace("kgbgraph v1", "kgbgraph v2"), header),
        ("kgbgraph v1\n", "expected a rootsystem line"),
        (good.replace("rootsystem inline", "rootsystem maybe"), "bad rootsystem line: 'rootsystem maybe'"),
        (good.split("nodes")[0], "expected a node count line"),
        (good.replace("nodes 2", "nodes two"), "expected a node count line"),
        (good.replace("nodes 2", "nodes 3"), "bad node line: 'label 0 1 nci2 cross=0 cayley=1'"),
        (good.replace("node 1 1 1", "node 0 1 1"), "duplicate node '0'"),
        (good.replace("label 1 1 r2", "labels 1 1 r2"), "bad label line: 'labels 1 1 r2 cross=1'"),
        (good.replace("label 0 1 nci2", "label zz 1 nci2"), "label for unknown node 'zz'"),
        (good.replace("label 0 1 nci2", "label 0 one nci2"), "bad simple index in 'label 0 one nci2 cross=0 cayley=1'"),
        (good.replace("label 0 1 nci2", "label 0 9 nci2"), "simple index out of range in 'label 0 9 nci2 cross=0 cayley=1'"),
        (good.replace("label 0 1 nci2", "label 0 1 xyz"), "unknown label code in 'label 0 1 xyz cross=0 cayley=1'"),
        (
            good.replace("cross=0 cayley=1", "cross=0 cayley=1 extra=2"),
            "bad label line: 'label 0 1 nci2 cross=0 cayley=1 extra=2'",
        ),
        (good + "label 0 1 nci2 cross=0 cayley=1\n", "duplicate label for node '0', root 1"),
        (good.replace("cross=0 cayley=1", "across=0 cayley=1"), "bad cross field in 'label 0 1 nci2 across=0 cayley=1'"),
        (good.replace("cross=0 cayley=1", "cross=0 cayly=1"), "bad cayley field in 'label 0 1 nci2 cross=0 cayly=1'"),
    ):
        with pytest.raises(ParseError) as info:
            parse_kgb(bad)
        assert str(info.value) == message, bad


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
