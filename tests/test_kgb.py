"""Symmetric-subgroup orbit graphs: fixtures, axioms, moves, serialization."""

import os
import random
from collections import Counter
from functools import partial
from pathlib import Path

import pytest

from flagorbits import (
    AxiomViolation,
    FlagOrbitsError,
    KgbGraph,
    Mismatch,
    NoOpenNode,
    NotNoncompact,
    NotReal,
    ParseError,
    RootType,
    Unreachable,
    a1xa1_swap,
    apply_twist,
    ascent_consistency_check,
    bruhat_leq,
    build_root_datum,
    builtin_fixtures,
    canonical_sequences,
    cayley,
    class_hasse,
    class_of,
    cross_action,
    distinct_ascents_check,
    enumerate_elements,
    find_descent_counterexample,
    format_kgb,
    format_word,
    group_case,
    hasse,
    i_equivalence_classes,
    identity,
    inv,
    inverse_cayley,
    is_m_alpha_trivial,
    kgp_leq,
    kgp_leq_induced,
    levi_conjugate_root_check,
    load_kgb,
    minimal_w_uniqueness_check,
    monoid,
    monoid_descent_check,
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
from clans import clan_graph
from test_weyl import INTERLEAVED, looked_up_ids
from flagorbits import weyl
from flagorbits.kgb import FORMAT_HEADER, _braid_order, _open_node, doubled_datum
from flagorbits.orbit_poset import OrbitGraph, from_weyl, lower_ideal, node_sort_key
from flagorbits.root_datum import _decimal, _node_lines, _significant_lines, format_root_datum, parse_root_datum
from flagorbits.root_datum import parse_root_datum_lines, simple_root
from flagorbits.weyl import _table
from flagorbits.weyl import length as weyl_length
from test_orbit_poset import graph_fields
from image_oracle import s_times, times_s
from test_parabolic import eulerian_count


REAL_TYPES = frozenset({RootType.REAL_I, RootType.REAL_II})
NONCOMPACT_TYPES = frozenset({RootType.NONCOMPACT_I, RootType.NONCOMPACT_II})
IMAGINARY_TYPES = NONCOMPACT_TYPES | {RootType.COMPACT_IMAGINARY}


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
        root_type(g, 1, v) not in (RootType.NONCOMPACT_I, RootType.REAL_I) for v in g.nodes
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
    # an index is an int: the rows are lists
    with pytest.raises(Mismatch, match="simple index 1.0 out of range"):
        cross_action(g, 1.0, "0")
    # spelled by repr, so a str reads apart from the int in range
    with pytest.raises(Mismatch) as info:
        root_type(g, "1", "0")
    assert str(info.value) == "simple index '1' out of range 1..1"


def monoid_by_label(g, alpha, v):
    """Oracle: the monoid move read off the label."""
    lab = root_type(g, alpha, v)
    if lab is RootType.COMPLEX_ASCENT:
        return cross_action(g, alpha, v)
    if lab in (RootType.NONCOMPACT_I, RootType.NONCOMPACT_II):
        return cayley(g, alpha, v)
    return v


def descents_by_label(g, alpha, v):
    """Oracle: the nodes one step below v along alpha, in node order: the
    cross partner of a complex descent, the Cayley preimages of a real root."""
    lab = root_type(g, alpha, v)
    if lab is RootType.COMPLEX_DESCENT:
        return (cross_action(g, alpha, v),)
    if lab in REAL_TYPES:
        return tuple(x for x in g.nodes if root_type(g, alpha, x) in NONCOMPACT_TYPES and cayley(g, alpha, x) == v)
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
        (alpha, descents_by_label(g, alpha, upper).index(lower) if root_type(g, alpha, upper) is RootType.REAL_I else None)
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
                if root_type(g, alpha, v) in REAL_TYPES:
                    assert inverse_cayley(g, alpha, v) == below, (name, alpha, v)
        for v in g.nodes:
            cs = canonical_sequences(g, v)
            assert cs.down == down_by_label(g, v), (name, v)
            assert replay_downward(g, cs.down) == replay_down_by_label(g, cs.down) == v, (name, v)


def test_missing_moves_are_axiom_violations():
    # refused where the rows are filled, by the dict constructor and parse_kgb
    a2 = group_case(build_root_datum("A2"))
    cases = [
        (sl2_split(), {"label": {(1, "1"): None}}, ["MissingLabel: alpha=1 node=1"]),
        (a2, {"label": {(3, "4"): None}}, ["MissingLabel: alpha=3 node=4"]),
        (sl2_split(), {"cross": {(1, "2"): None}}, ["MissingLabel: alpha=1 node=2"]),
        (pgl2_split(), {"cross": {(1, "1"): "7"}}, ["UnknownNode: alpha=1 node=1 cross=7"]),
        (sl2_split(), {"cayley": {(1, "0"): "9"}}, ["UnknownNode: alpha=1 node=0 cayley=9"]),
        (pgl2_split(), {"cayley": {(1, "0"): "7"}}, ["UnknownNode: alpha=1 node=0 cayley=7"]),
        # on a label that is not noncompact, where the tolerant reading said SpuriousCayley
        (pgl2_split(), {"cayley": {(1, "1"): "zz"}}, ["UnknownNode: alpha=1 node=1 cayley=zz"]),
        (sl2_split(), {"cayley": {(1, "0"): None}}, ["MissingCayley: alpha=1 node=0"]),
        # a braid walk whose last step lands on a name that is not a node, and
        # one through a node whose label is missing but whose cross entry is kept
        (a2, {"cross": {(1, "0"): "zz"}}, ["UnknownNode: alpha=1 node=0 cross=zz"]),
        (a2, {"label": {(2, "1"): None}, "cross": {(1, "0"): "0"}}, ["MissingLabel: alpha=2 node=1"]),
        # one line per (root, node), for its first fault
        (sl2_split(), {"cross": {(1, "0"): "zz"}, "cayley": {(1, "0"): None}}, ["UnknownNode: alpha=1 node=0 cross=zz"]),
        (sl2_split(), {"label": {(1, "2"): None}, "cayley": {(1, "2"): "zz"}}, ["MissingLabel: alpha=1 node=2"]),
    ]
    for g, changes, want in cases:
        fields = corrupted_fields(g, **changes)
        assert reference_refusals(fields) == want, changes
        assert kgb_outcome(KgbGraph, **fields) == ("AxiomViolation", want), changes
        # the text names each target and leaves out the line of a missing label
        text = reference_format_kgb(fields)
        assert kgb_outcome(parse_kgb, text) == kgb_outcome(reference_parse_kgb, text) == ("AxiomViolation", want), changes
    # the refusal alone, where the tolerant reading listed what followed from it
    fields = corrupted_fields(sl2_split(), cayley={(1, "0"): None})
    assert reference_validate_kgb(fields) == [
        "InverseCayleyCount: alpha=1 node=2 got=1 want=2",
        "MissingCayley: alpha=1 node=0",
        "SharedCayley: alpha=1 node=1",
    ]


def fiber_losing_its_node():
    """sl2_split with node 1 crossing to 2: the fiber of 2 along 1 loses
    node 0, whose fiber still names 2 as its dense member."""
    return _corrupt(sl2_split(), cross={(1, "1"): "2"})


def climbing_cycle():
    """Three nodes on A1xA1: 0 climbs to 1 along root 1, and 1 to 0 along
    root 2, below the open node 2."""
    d = doubled_datum(build_root_datum("A1"))
    e = identity(d)
    up, down, ci = RootType.COMPLEX_ASCENT, RootType.COMPLEX_DESCENT, RootType.COMPACT_IMAGINARY
    return KgbGraph(
        d,
        ("0", "1", "2"),
        {v: e for v in "012"},
        {"0": 0, "1": 0, "2": 1},
        {(1, "0"): up, (1, "1"): down, (2, "0"): down, (2, "1"): up, (1, "2"): ci, (2, "2"): ci},
        {(1, "0"): "1", (1, "1"): "0", (2, "0"): "1", (2, "1"): "0", (1, "2"): "2", (2, "2"): "2"},
        {},
    )


def test_canonical_sequences_refuse_a_fiber_that_does_not_list_the_node():
    # it raised ValueError from list.index
    g = fiber_losing_its_node()
    with pytest.raises(Unreachable) as info:
        canonical_sequences(g, "0")
    assert str(info.value) == "node 0 is not one step below node 2 along root 1"
    assert canonical_sequences(g, "1").down == ((1, None),)


def test_canonical_sequences_refuse_a_climb_that_comes_back():
    # the climb ran for ever
    with pytest.raises(Unreachable) as info:
        canonical_sequences(climbing_cycle(), "0")
    assert str(info.value) == "the climb from node 0 comes back to a node below the open node"


def test_every_graph_satisfies_all_axioms():
    for name, g in all_graphs().items():
        assert validate_kgb(g) == [], name
        assert ascent_consistency_check(g) == [], name
        poset = to_orbit_poset(g)
        assert validate_poset(poset) == [], name
        assert property_z_check(poset) == [], name


def test_twisted_involutions_carry_the_ids_the_lookup_finds():
    # group_case's carry the component ids of k and k^-1, on reducible data
    # too, twisted_shadow's and parse_kgb's the ids of enumerate_elements and
    # from_word
    graphs = [group_case(build_root_datum(spec)) for spec in ("A1", "B2", "G2", "A3", "B3", "F4", "A1xA2", INTERLEAVED)]
    graphs += [twisted_shadow(build_root_datum(name, twist=t)) for name, t in (("A3", (3, 2, 1)), ("D4", (1, 2, 4, 3)), ("B3", (1, 2, 3)))]
    graphs += [parse_kgb(format_kgb(g)) for g in graphs]
    for g in graphs:
        assert all(x.ids is not None and x.ids == looked_up_ids(x) for x in g._tw), g.datum.name


def test_a1xa1_swap_is_the_diagonal_case():
    assert a1xa1_swap() == group_case(build_root_datum("A1"))


def test_validate_catches_label_flip():
    broken = _corrupt(sl2_split(), label={(1, "2"): RootType.REAL_II})
    violations = validate_kgb(broken)
    assert any(v.startswith("InverseCayleyCount") for v in violations)
    with pytest.raises(AxiomViolation):
        parse_kgb(format_kgb(broken))


def corrupted_fields(g, **changes):
    """The constructor's arguments of g by name, with some entries of its
    tw/length/label/cross/cayley maps replaced, or deleted where the new
    value is None."""
    fields = g._fields()
    for name, updates in changes.items():
        fields[name] = {k: v for k, v in {**fields[name], **updates}.items() if v is not None}
    return fields


def _corrupt(g, **changes):
    """A copy of g built through the dict constructor from its corrupted
    fields."""
    fields = corrupted_fields(g, **changes)
    h = KgbGraph(**fields)
    assert h._fields() == fields  # the rows spell the maps
    return h


def test_validate_checks_cayley_targets_type_i():
    e = identity(sl2_split().datum)
    cases = [
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


# The simple-root images of each twisted involution read so far, keyed by its
# datum and table ids where it has them: the corruptions of a graph share it.
_IMAGES = {}


def element_images(w):
    key = (w.datum, w.ids) if w.ids is not None else w
    if key not in _IMAGES:
        _IMAGES[key] = w.images
    return _IMAGES[key]


def reference_validate_kgb(g):
    """validate_kgb as it read every move through the name-keyed maps, one
    (root, node) at a time: the oracle for the row-based version.  g is a
    graph or the constructor's arguments by name, which may miss a move or
    name a target that is no node; the lines for those are the refusal
    oracle's (see reference_refusals)."""
    f = g._fields() if isinstance(g, KgbGraph) else g
    datum, nodes, tw, length = f["datum"], f["nodes"], f["tw"], f["length"]
    label, cross, cay = f["label"], f["cross"], f["cayley"]
    out = []
    preimages = Counter((alpha, t) for (alpha, _), t in cay.items())
    images = {}

    def image(v):
        if v not in images:
            images[v] = element_images(tw[v])
        return images[v]

    for v in nodes:
        if not isinstance(length[v], int) or length[v] < 0:
            out.append(f"BadLength: node={v}")
        if apply_twist(tw[v]) != inv(tw[v]):
            out.append(f"TwNotTwisted: node={v}")

    for alpha in range(1, datum.rank + 1):
        theta = datum.twist[alpha - 1]
        alpha_root = simple_root(datum, alpha)
        minus_alpha = tuple(-c for c in alpha_root)
        trivial = is_m_alpha_trivial(datum, alpha)
        for v in nodes:
            key = (alpha, v)
            tag = f"alpha={alpha} node={v}"
            if key not in label or key not in cross:
                out.append(f"MissingLabel: {tag}")
                continue
            lab = label[key]
            cr = cross[key]
            if cr not in length:
                out.append(f"UnknownNode: {tag} cross={cr}")
                continue
            partner = label.get((alpha, cr)) if (alpha, cr) in cross else None
            if partner is not None and cross[(alpha, cr)] != v:
                out.append(f"CrossNotInvolution: {tag}")
            img = image(v)[theta - 1]
            if lab in REAL_TYPES:
                if img != minus_alpha:
                    out.append(f"LabelClass: {tag} label={lab.value} not real")
            elif lab in IMAGINARY_TYPES:
                if img != alpha_root:
                    out.append(f"LabelClass: {tag} label={lab.value} not imaginary")
            else:
                if img == alpha_root or img == minus_alpha:
                    out.append(f"LabelClass: {tag} label={lab.value} not complex")
            if times_s(datum, s_times(datum, alpha, image(v)), theta) != image(cr):
                out.append(f"CrossTwist: {tag}")
            has_cayley = key in cay
            noncompact = lab in NONCOMPACT_TYPES
            if noncompact:
                if not has_cayley:
                    out.append(f"MissingCayley: {tag}")
            elif has_cayley:
                out.append(f"SpuriousCayley: {tag}" if cay[key] in length else f"UnknownNode: {tag} cayley={cay[key]}")
            if trivial and lab in (RootType.NONCOMPACT_I, RootType.REAL_I):
                out.append(f"TypeIForbidden: {tag} (m_alpha trivial)")
            if lab is RootType.COMPLEX_ASCENT:
                if cr == v or length[cr] != length[v] + 1:
                    out.append(f"AscentPattern: {tag}")
                elif partner is not None and partner is not RootType.COMPLEX_DESCENT:
                    out.append(f"PartnerLabel: {tag}")
            elif lab is RootType.COMPLEX_DESCENT:
                if cr == v or length[cr] != length[v] - 1:
                    out.append(f"DescentPattern: {tag}")
                elif partner is not None and partner is not RootType.COMPLEX_ASCENT:
                    out.append(f"PartnerLabel: {tag}")
            elif lab is RootType.COMPACT_IMAGINARY:
                if cr != v:
                    out.append(f"CompactMoved: {tag}")
            elif lab is RootType.NONCOMPACT_I:
                if cr == v or length[cr] != length[v]:
                    out.append(f"TypeIPattern: {tag}")
                elif partner is not None and partner is not RootType.NONCOMPACT_I:
                    out.append(f"PartnerLabel: {tag}")
            elif lab is RootType.NONCOMPACT_II:
                if cr != v:
                    out.append(f"TypeIIPattern: {tag}")
            elif lab in REAL_TYPES:
                if cr != v:
                    out.append(f"RealMoved: {tag}")
                want = 2 if lab is RootType.REAL_I else 1
                if preimages[key] != want:
                    out.append(f"InverseCayleyCount: {tag} got={preimages[key]} want={want}")
            if noncompact and has_cayley:
                t = cay[key]
                real = RootType.REAL_I if lab is RootType.NONCOMPACT_I else RootType.REAL_II
                if t not in length:
                    out.append(f"UnknownNode: {tag} cayley={t}")
                else:
                    if length[t] != length[v] + 1:
                        out.append(f"CayleyLength: {tag}")
                    if label.get((alpha, t)) is not real:
                        out.append(f"CayleyTarget: {tag} expected {real.value}")
                    if s_times(datum, alpha, image(v)) != image(t):
                        out.append(f"CayleyTwist: {tag}")
                    if real is RootType.REAL_I and partner is not None:
                        if cay.get((alpha, cr)) != t:
                            out.append(f"SharedCayley: {tag}")

    for a in range(1, datum.rank + 1):
        for b in range(a + 1, datum.rank + 1):
            order = _braid_order(datum, a, b)
            for v in nodes:
                x = y = v
                for step in range(order):
                    x = cross.get((a if step % 2 == 0 else b, x))
                    y = cross.get((b if step % 2 == 0 else a, y))
                    if x is None or y is None:
                        break
                else:
                    if x != y:
                        out.append(f"CrossBraid: alpha={a} beta={b} node={v}")

    return sorted(out)


# the codes of a move that is missing or names no node
REFUSAL_CODES = frozenset({"MissingLabel", "UnknownNode", "MissingCayley"})


def reference_refusals(fields):
    """The lines the dict constructor and parse_kgb refuse the constructor's
    arguments with: the tolerant reference's lines of the moves that are
    missing or name no node."""
    return [v for v in reference_validate_kgb(fields) if v.split(":")[0] in REFUSAL_CODES]


def reference_parse_kgb(text, base_dir=None):
    """parse_kgb as it filled the name-keyed maps, refused what the refusal
    oracle spells and built the graph through the dict constructor: the
    oracle for the row-based version."""
    codes = {t.value: t for t in RootType}
    lines = _significant_lines(text)
    if not lines or lines[0] != FORMAT_HEADER:
        raise ParseError(f"expected header {FORMAT_HEADER!r}")
    if len(lines) < 2 or not lines[1].startswith("rootsystem"):
        raise ParseError("expected a rootsystem line")
    fields = lines[1].split()
    if fields == ["rootsystem", "inline"]:
        datum, rest = parse_root_datum_lines(lines[2:])
    elif len(fields) == 3 and fields[1] == "file":
        ref = fields[2]
        path = ref if os.path.isabs(ref) or base_dir is None else os.path.join(base_dir, ref)
        with open(path, "r", encoding="utf-8") as fh:
            datum = parse_root_datum(fh.read())
        rest = lines[2:]
    else:
        raise ParseError(f"bad rootsystem line: {lines[1]!r}")
    tw = {}
    length = {}
    for name, n, fields in _node_lines(rest, 4):
        length[name] = n
        tw[name] = weyl.from_word(datum, weyl.parse_word(datum, fields[3]))
    label = {}
    cross = {}
    cay = {}
    for line in rest[1 + len(length) :]:
        fields = line.split()
        if fields[0] != "label" or len(fields) not in (5, 6):
            raise ParseError(f"bad label line: {line!r}")
        name = fields[1]
        if name not in length:
            raise ParseError(f"label for unknown node {name!r}")
        alpha = _decimal(fields[2])
        if alpha is None:
            raise ParseError(f"bad simple index in {line!r}")
        if not 1 <= alpha <= datum.rank:
            raise ParseError(f"simple index out of range in {line!r}")
        if fields[3] not in codes:
            raise ParseError(f"unknown label code in {line!r}")
        if (alpha, name) in label:
            raise ParseError(f"duplicate label for node {name!r}, root {alpha}")
        label[(alpha, name)] = codes[fields[3]]
        if not fields[4].startswith("cross="):
            raise ParseError(f"bad cross field in {line!r}")
        cross[(alpha, name)] = fields[4][len("cross=") :]
        if len(fields) == 6:
            if not fields[5].startswith("cayley="):
                raise ParseError(f"bad cayley field in {line!r}")
            cay[(alpha, name)] = fields[5][len("cayley=") :]
    fields = {"datum": datum, "nodes": tuple(length), "tw": tw, "length": length, "label": label, "cross": cross, "cayley": cay}
    refused = reference_refusals(fields)
    if refused:
        raise AxiomViolation(refused)
    g = KgbGraph(**fields)
    violations = reference_validate_kgb(g)
    if violations:
        raise AxiomViolation(violations)
    return g


def reference_format_kgb(g):
    """format_kgb as it read the name-keyed maps, one (node, root) at a time.
    g is a graph or the constructor's arguments by name: a (root, node)
    with no label or no cross entry gets no line, and a target that is no
    node is written by its name."""
    f = g._fields() if isinstance(g, KgbGraph) else g
    label, cross, cay = f["label"], f["cross"], f["cayley"]
    lines = [FORMAT_HEADER, "rootsystem inline"]
    lines.extend(format_root_datum(f["datum"]).rstrip("\n").split("\n"))
    lines.append(f"nodes {len(f['nodes'])}")
    for v in f["nodes"]:
        lines.append(f"node {v} {f['length'][v]} {format_word(reduced_word(f['tw'][v]))}")
    for v in f["nodes"]:
        for alpha in range(1, f["datum"].rank + 1):
            if (alpha, v) not in label or (alpha, v) not in cross:
                continue
            lab = label[(alpha, v)]
            parts = [f"label {v} {alpha} {lab.value} cross={cross[(alpha, v)]}"]
            if (alpha, v) in cay:
                parts.append(f"cayley={cay[(alpha, v)]}")
            lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


ASCENT_TYPES = frozenset({RootType.COMPLEX_ASCENT, RootType.NONCOMPACT_I, RootType.NONCOMPACT_II})


def reference_to_orbit_poset(g):
    """to_orbit_poset as it read the name-keyed maps into the orbit graph's
    name-keyed fiber constructor, built afresh on every call."""
    label, cross, cay = map(g._fields().get, ("label", "cross", "cayley"))
    fibers = []
    for alpha in range(1, g.datum.rank + 1):
        for v in g.nodes:
            lab, cr = label[(alpha, v)], cross[(alpha, v)]
            if lab in ASCENT_TYPES:
                t = cay[(alpha, v)] if lab in NONCOMPACT_TYPES else cr
                fibers.append((alpha, t, (v, cr, t)))
    return OrbitGraph(g.datum.name or "custom", g.datum.rank, g.length, fibers)


def kgb_outcome(f, *args, **kwargs):
    """f(*args, **kwargs), or the error it raised: AxiomViolation with its
    list, any other with its message."""
    try:
        return f(*args, **kwargs)
    except AxiomViolation as err:
        return "AxiomViolation", err.violations
    except (FlagOrbitsError, OSError) as err:
        return type(err).__name__, str(err)


def check_corruption(fields):
    """KgbGraph(**fields), or None where the constructor refuses, and the
    lines it is refused with or validated with: the constructor refuses
    exactly the refusal oracle's lines, and validate_kgb reads a graph it
    builds as the tolerant reference does."""
    want = reference_validate_kgb(fields)
    refused = [v for v in want if v.split(":")[0] in REFUSAL_CODES]
    got = kgb_outcome(KgbGraph, **fields)
    if refused:
        assert got == ("AxiomViolation", refused), refused
        return None, refused
    assert validate_kgb(got) == want, want
    return got, want


def assert_rows_match_the_references(fields):
    """The fields pass check_corruption, and parse_kgb reads their reference
    text as the reference parser does, errors included; on a graph the
    constructor builds, format_kgb and to_orbit_poset give what the
    name-keyed references give."""
    name = fields["datum"].name
    text = reference_format_kgb(fields)
    assert kgb_outcome(parse_kgb, text) == kgb_outcome(reference_parse_kgb, text), name
    g, _ = check_corruption(fields)
    if g is None:
        return
    assert format_kgb(g) == text, name
    got, want = to_orbit_poset(g), reference_to_orbit_poset(g)
    assert (graph_fields(got), got.rank) == (graph_fields(want), want.rank), name
    assert got.nodes is g.nodes  # one node order


def row_reference_graphs():
    graphs = oracle_graphs()
    for name in ("A1", "A2", "B2", "A3", "B3", "G2", "A4"):
        graphs[f"group_case_{name}"] = group_case(build_root_datum(name))
    for name, twist in ORDER_SHADOWS[:-1]:
        graphs[f"shadow_{name}_{twist}"] = twisted_shadow(build_root_datum(name, twist=twist))
    for p, q in ((2, 1), (1, 2), (2, 2), (3, 1), (3, 2), (2, 0)):
        graphs[f"U({p},{q})"] = clan_graph(p, q)
    return graphs


def test_rows_match_the_name_keyed_references():
    graphs = row_reference_graphs()
    for g in graphs.values():
        assert_rows_match_the_references(g._fields())
    # targets that are not nodes, each refused by its name
    a2 = graphs["group_case_A2"]
    assert_rows_match_the_references(corrupted_fields(a2, cross={(1, "0"): "zz", (2, "3"): "zz", (3, "1"): "yy"}))
    assert_rows_match_the_references(corrupted_fields(pgl2_split(), cayley={(1, "0"): "zz", (1, "1"): "zz"}, cross={(1, "1"): "yy"}))
    # seeded corruptions, the type I graphs of U(p, q) among them
    small = [g for g in graphs.values() if 2 <= len(g.nodes) <= 32] + [graphs["U(3,2)"]]
    rng = random.Random(28)
    for _ in range(400):
        assert_rows_match_the_references(random_corruption(rng.choice(small), rng))


def test_the_constructor_refuses_what_the_rows_cannot_hold():
    # keys naming unknown nodes or a root outside 1..rank, and a twisted
    # involution of an unknown node: one sorted line each, as for lengths,
    # in one list with the moves that the rows then miss
    a2 = group_case(build_root_datum("A2"))
    u21 = clan_graph(2, 1)
    e = identity(build_root_datum("A1"))
    cases = [
        (
            a2,
            {"label": {(1, "zz"): RootType.REAL_I, (9, "0"): RootType.REAL_I}, "cross": {(9, "1"): "0"}},
            ["BadCross: alpha=9 node=1", "BadLabel: alpha=1 node=zz", "BadLabel: alpha=9 node=0"],
        ),
        (
            a2,
            {"label": {(0, "1"): RootType.REAL_I}, "cross": {(0, "2"): "zz"}, "cayley": {(0, "0"): "1", (-1, "1"): "2"}},
            ["BadCayley: alpha=-1 node=1", "BadCayley: alpha=0 node=0", "BadCross: alpha=0 node=2", "BadLabel: alpha=0 node=1"],
        ),
        (
            a2,
            {"cayley": {(1, "zz"): "1", (5, "0"): "2", (1, "0"): "zz"}},
            ["BadCayley: alpha=1 node=zz", "BadCayley: alpha=5 node=0", "UnknownNode: alpha=1 node=0 cayley=zz"],
        ),
        (sl2_split(), {"cayley": {(1, "zz"): "2", (1, "1"): None}}, ["BadCayley: alpha=1 node=zz", "MissingCayley: alpha=1 node=1"]),
        (sl2_split(), {"cayley": {(1, "9"): "2"}, "tw": {"zz": e}}, ["BadCayley: alpha=1 node=9", "ExtraTw: node=zz"]),
        (
            u21,
            {"cayley": {(1, "0"): "zz", (2, "x"): "5"}, "label": {(2, "5"): None}},
            ["BadCayley: alpha=2 node=x", "MissingLabel: alpha=2 node=5", "UnknownNode: alpha=1 node=0 cayley=zz"],
        ),
        (u21, {"cross": {(1, "1"): None, (2, "q"): "1"}}, ["BadCross: alpha=2 node=q", "MissingLabel: alpha=1 node=1"]),
        (a2, {"tw": {"zz": identity(a2.datum)}}, ["ExtraTw: node=zz"]),
        # an index that is not an int is spelled by repr
        (
            a2,
            {"label": {("1", "0"): RootType.REAL_I}, "cross": {("2", "1"): "0"}, "cayley": {(1.0, "2"): "1"}},
            ["BadCayley: alpha=1.0 node=2", "BadCross: alpha='2' node=1", "BadLabel: alpha='1' node=0"],
        ),
    ]
    for g, changes, want in cases:
        with pytest.raises(AxiomViolation) as info:
            _corrupt(g, **changes)
        assert info.value.violations == want, changes
    # a label that is not a RootType, targets None and an index that is not
    # an int; a refused label or cross entry also leaves its move missing
    fields = a2._fields()
    fields["label"][(1, "0")] = "C+"
    fields["cross"][(2, "1")] = None
    fields["cayley"][(3, "2")] = None
    fields["cross"][(2.0, "4")] = fields["cross"].pop((2, "4"))
    with pytest.raises(AxiomViolation) as info:
        KgbGraph(**fields)
    assert info.value.violations == [
        "BadCayley: alpha=3 node=2",
        "BadCross: alpha=2 node=1",
        "BadCross: alpha=2.0 node=4",
        "BadLabel: alpha=1 node=0",
        "MissingLabel: alpha=1 node=0",
        "MissingLabel: alpha=2 node=1",
        "MissingLabel: alpha=2 node=4",
    ]
    assert not any(hasattr(a2, name) for name in ("label", "cross", "cayley", "_loose"))


def random_corruption(g, rng):
    """The constructor's arguments of g with one to three seeded changes: a
    cross entry retargeted (to a node or to a name that is not one) or
    deleted, a label deleted with its cross entry kept or swapped with
    another, a Cayley entry added, removed or retargeted, two twisted
    involutions swapped, one replaced by an element that is not twisted, or
    a length shifted."""
    datum = g.datum
    # s_a * s_b with a, b adjacent and theta(a) != b is not twisted: theta
    # sends its one reduced word a,b to theta(a),theta(b), not to b,a
    untwisted = [
        weyl.from_word(datum, (a, b))
        for a in range(1, datum.rank + 1)
        for b in range(1, datum.rank + 1)
        if a != b and datum.cartan[a - 1][b - 1] and datum.twist[a - 1] != b
    ]
    label, cay = map(g._fields().get, ("label", "cayley"))
    keys = sorted(label, key=lambda k: (k[0], node_sort_key(k[1])))
    targets = list(g.nodes) + ["zz", "zz2"]
    changes = {"tw": {}, "length": {}, "label": {}, "cross": {}, "cayley": {}}
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(10)
        key = rng.choice(keys)
        if kind == 0:
            changes["cross"][key] = rng.choice(targets)
        elif kind == 1:
            changes["cross"][key] = None
        elif kind == 2:
            changes["label"][key] = None
        elif kind == 3:
            other = rng.choice(keys)
            changes["label"][key], changes["label"][other] = label[other], label[key]
        elif kind == 4:
            changes["label"][key] = rng.choice(list(RootType))
        elif kind == 5:
            changes["cayley"][key] = rng.choice(targets)
        elif kind == 6 and cay:
            changes["cayley"][rng.choice(sorted(cay, key=keys.index))] = None
        elif kind == 7:
            u, v = rng.sample(g.nodes, 2)
            changes["tw"][u], changes["tw"][v] = g.tw[v], g.tw[u]
        elif kind == 8 and untwisted:
            changes["tw"][rng.choice(g.nodes)] = rng.choice(untwisted)
        else:
            v = rng.choice(g.nodes)
            changes["length"][v] = g.length[v] + rng.choice((-2, -1, 1, 2))
    return corrupted_fields(g, **changes)


# every code validate_kgb emits
VIOLATION_CODES = {
    "BadLength", "TwNotTwisted", "CrossNotInvolution", "LabelClass", "CrossTwist", "AscentPattern",
    "DescentPattern", "CompactMoved", "TypeIPattern", "TypeIIPattern", "RealMoved", "PartnerLabel",
    "TypeIForbidden", "InverseCayleyCount", "SpuriousCayley", "CayleyLength", "CayleyTarget",
    "CayleyTwist", "SharedCayley", "CrossBraid",
}


def reference_graphs():
    graphs = dict(builtin_fixtures())
    for name in ("A1", "A2", "B2", "A3", "B3", "G2"):
        graphs[f"group_case_{name}"] = group_case(build_root_datum(name))
    for name, twist in (("A3", None), ("A4", (4, 3, 2, 1)), ("D4", (1, 2, 4, 3))):
        graphs[f"shadow_{name}"] = twisted_shadow(build_root_datum(name, twist=twist))
    return graphs


def test_validate_matches_the_name_keyed_reference():
    graphs = reference_graphs()
    assert all(weyl._layout(g.datum).tables() for g in graphs.values())
    check_against_the_reference(graphs)


def test_validate_matches_the_reference_without_tables(monkeypatch):
    """The same comparison on graphs parsed afresh with no Weyl table in the
    process: validate_kgb reads root images and builds no table."""
    texts = {name: format_kgb(g) for name, g in reference_graphs().items()}
    monkeypatch.setattr(weyl, "_tables", {})
    graphs = {name: parse_kgb(text) for name, text in texts.items()}
    assert not any(weyl._layout(g.datum).tables() for g in graphs.values())
    check_against_the_reference(graphs)
    assert weyl._tables == {}


def check_against_the_reference(graphs):
    for name, g in graphs.items():
        assert validate_kgb(g) == reference_validate_kgb(g) == [], name
    # seeded corruptions of the smaller graphs, so that most lists are short
    small = [g for g in graphs.values() if len(g.nodes) <= 32]
    rng = random.Random(14)
    seen = {True: set(), False: set()}
    for _ in range(1200):
        g, lines = check_corruption(random_corruption(rng.choice(small), rng))
        seen[g is None] |= {v.split(":")[0] for v in lines}
    assert seen == {True: REFUSAL_CODES, False: VIOLATION_CODES}, seen


MOVES = (root_type, cross_action, cayley, inverse_cayley, monoid)


def every_query(g, levi, rng):
    """Zero-argument calls of every K\\G/B query on g: the orbit poset, the
    text and its round trip, the ascent and minimal-w checks, the five moves
    at each (root, node), a seeded monoid word and the canonical sequences of
    each node, replayed both ways, a seeded downward route, and every kgp
    function over the Levi set."""
    rank = g.datum.rank
    calls = [
        partial(to_orbit_poset, g),
        partial(format_kgb, g),
        lambda: parse_kgb(format_kgb(g)),
        partial(ascent_consistency_check, g),
        partial(minimal_w_uniqueness_check, g),
        partial(replay_downward, g, [(rng.randint(1, rank), rng.choice((None, 0, 1))) for _ in range(2)]),
        partial(levi_conjugate_root_check, g.datum, levi),
    ]
    for v in g.nodes:
        calls += [partial(query, g, alpha, v) for alpha in range(1, rank + 1) for query in MOVES]
        calls.append(partial(monoid_word, g, rng.choices(range(1, rank + 1), k=3), v))
        calls.append(lambda v=v: replay_upward(g, *canonical_sequences(g, v)[:2]))
        calls.append(lambda v=v: replay_downward(g, canonical_sequences(g, v).down))
        calls.append(partial(class_of, g, levi, v))
    for check in (p_maximal_set, i_equivalence_classes, monoid_descent_check, find_descent_counterexample):
        calls.append(partial(check, g, levi))
    calls += [partial(distinct_ascents_check, g, levi), partial(class_hasse, g, levi)]

    def class_orders():
        classes = i_equivalence_classes(g, levi)
        return [(kgp_leq(g, levi, c, d), kgp_leq_induced(g, levi, c, d)) for c in classes for d in classes]

    return calls + [class_orders]


def refusals(g, rng):
    """Runs every_query's calls on g over a seeded Levi set: the number that
    answered, and the number that raised each kind of FlagOrbitsError; any
    other exception escapes."""
    rank = g.datum.rank
    levi = tuple(sorted(rng.sample(range(1, rank + 1), rng.randint(0, rank))))
    answered, refused = 0, Counter()
    for call in every_query(g, levi, rng):
        try:
            call()
            answered += 1
        except FlagOrbitsError as err:
            refused[type(err).__name__] += 1
    return answered, refused


def test_every_query_answers_or_refuses_on_accepted_corruptions(monkeypatch):
    # the seeded corruptions that the constructor accepts, and two graphs on
    # which canonical_sequences raised ValueError or ran for ever; the Levi
    # checks tabulate Levi subgroups, which later tests count on not finding
    monkeypatch.setattr(weyl, "_tables", dict(weyl._tables))
    graphs = [g for g in reference_graphs().values() if len(g.nodes) <= 32]
    rng = random.Random(32)
    accepted = [fiber_losing_its_node(), climbing_cycle()]
    for _ in range(300):
        try:
            accepted.append(KgbGraph(**random_corruption(rng.choice(graphs), rng)))
        except AxiomViolation:
            pass
    answered, refused = 0, Counter()
    for g in accepted:
        got = refusals(g, rng)
        answered += got[0]
        refused += got[1]
    assert len(accepted) > 100 and answered > sum(refused.values()), (len(accepted), answered, refused)
    assert {"AxiomViolation", "NoOpenNode", "NotNoncompact", "NotReal", "Unreachable"} <= set(refused), refused


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
    assert [root_type(g, 1, v) for v in g.nodes] == [RootType.NONCOMPACT_II, RootType.REAL_II]
    flip = twisted_shadow(build_root_datum("A2", twist=(2, 1)))
    assert len(flip.nodes) == 4
    assert sorted(flip.length.values()) == [0, 1, 1, 2]


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


def test_minimal_w_walk_appends_only_lengthening_letters():
    # A Cayley move retargeted so that the monoid action breaks the braid
    # relations: some ascent of a node is then a right descent of a w
    # reaching it, and the walk must not take it (an element that a letter
    # shortens is not minimal for the node it reaches).  Taking it would add
    # the word e at target 4 and the word 1 at target 6.
    g = _corrupt(twisted_shadow(build_root_datum("A3", twist=(3, 2, 1))), cayley={(2, "0"): "1"})
    assert minimal_w_uniqueness_check(g) == [
        "MinimalWNotUnique: start=0 target=1 words=1;2;3",
        "MinimalWNotUnique: start=0 target=4 words=1,2;3,2",
        "MinimalWNotUnique: start=0 target=6 words=1,2,1;3,2,1",
        "MinimalWNotUnique: start=0 target=8 words=1,2,3;2,3,2",
        "MinimalWNotUnique: start=0 target=9 words=1,2,1,3;2,3,2,1",
        "MinimalWNotUnique: start=2 target=9 words=1,2,3;1,3,2;3,2,1",
        "MinimalWNotUnique: start=3 target=9 words=2,3;3,2",
        "MinimalWNotUnique: start=5 target=9 words=1,2;2,1",
    ]


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
    interleaved = ((2, 0, -1), (0, 2, 0), (-1, 0, 2))
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
    fields = g._fields()

    def keyed(moves, name=perm.get):
        return {(alpha, perm[v]): name(t) for (alpha, v), t in moves.items()}

    return KgbGraph(
        g.datum,
        tuple(perm[v] for v in g.nodes),
        {perm[v]: w for v, w in g.tw.items()},
        {perm[v]: n for v, n in g.length.items()},
        keyed(fields["label"], lambda lab: lab),
        keyed(fields["cross"]),
        keyed(fields["cayley"]),
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
        for (alpha, v), lab in g._fields()["label"].items():
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
    fields = sl2_split()._fields()
    g = KgbGraph(**fields)
    for name in ("tw", "length"):
        with pytest.raises(TypeError):
            getattr(g, name)["0"] = None
    for name in ("tw", "length", "label", "cross", "cayley"):
        fields[name].clear()  # the caller's dict; the graph keeps its own rows
    for name in ("datum", "nodes", "tw", "_cayley", "_poset"):
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


def test_canonical_sequences_refuse_a_node_below_the_top_with_no_ascent():
    d = build_root_datum("A1")
    e, s = identity(d), simple_reflection(d, 1)
    g = KgbGraph(
        d,
        ("0", "1", "2"),
        {"0": e, "1": s, "2": e},
        {"0": 0, "1": 1, "2": 2},
        {(1, "0"): RootType.COMPLEX_ASCENT, (1, "1"): RootType.COMPLEX_DESCENT, (1, "2"): RootType.COMPACT_IMAGINARY},
        {(1, "0"): "1", (1, "1"): "0", (1, "2"): "2"},
        {},
    )
    with pytest.raises(Unreachable) as info:
        canonical_sequences(g, "1")
    assert str(info.value) == "node 1 has no ascent but is not the open node"


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
        (good.replace("nodes 2", "nodes ²"), "expected a node count line"),
        (good.replace("nodes 2", "nodes " + "9" * 4400), "expected a node count line"),
        (good.replace("nodes 2", "nodes 3"), "bad node line: 'label 0 1 nci2 cross=0 cayley=1'"),
        (good.replace("node 1 1 1", "node 0 1 1"), "duplicate node '0'"),
        (good.replace("label 1 1 r2", "labels 1 1 r2"), "bad label line: 'labels 1 1 r2 cross=1'"),
        (good.replace("label 0 1 nci2", "label zz 1 nci2"), "label for unknown node 'zz'"),
        (good.replace("label 0 1 nci2", "label 0 one nci2"), "bad simple index in 'label 0 one nci2 cross=0 cayley=1'"),
        (good.replace("label 0 1 nci2", "label 0 9 nci2"), "simple index out of range in 'label 0 9 nci2 cross=0 cayley=1'"),
        (good.replace("label 0 1 nci2", "label 0 -1 nci2"), "bad simple index in 'label 0 -1 nci2 cross=0 cayley=1'"),
        (good.replace("label 0 1 nci2", "label 0 ١ nci2"), "bad simple index in 'label 0 ١ nci2 cross=0 cayley=1'"),
        (good.replace("label 0 1 nci2", "label 0 1 xyz"), "unknown label code in 'label 0 1 xyz cross=0 cayley=1'"),
        (
            good.replace("cross=0 cayley=1", "cross=0 cayley=1 extra=2"),
            "bad label line: 'label 0 1 nci2 cross=0 cayley=1 extra=2'",
        ),
        (good + "label 0 1 nci2 cross=0 cayley=1\n", "duplicate label for node '0', root 1"),
        (good.replace("cross=0 cayley=1", "across=0 cayley=1"), "bad cross field in 'label 0 1 nci2 across=0 cayley=1'"),
        (good.replace("cross=0 cayley=1", "cross=0 cayly=1"), "bad cayley field in 'label 0 1 nci2 cross=0 cayly=1'"),
        *[(good.replace("node 1 1 1", f"node 1 {n} 1"), f"bad node length in 'node 1 {n} 1'") for n in ("+1", "01", "1_0", "٣")],
        *[(good.replace("node 1 1 1", f"node 1 1 {w}"), f"cannot parse word {w!r}") for w in ("١", "２", "+1", "1_0")],
    ):
        with pytest.raises(ParseError) as info:
            parse_kgb(bad)
        assert str(info.value) == message, bad


def test_parsed_graphs_must_satisfy_axioms():
    good = format_kgb(pgl2_split())
    with pytest.raises(AxiomViolation) as info:
        parse_kgb(good.replace("node 1 1 1", "node 1 -1 1"))
    assert "BadLength: node=1" in info.value.violations
    with pytest.raises(AxiomViolation):
        parse_kgb(good.replace("node 1 1 1", "node 1 2 1"))


def test_graphs_refuse_a_length_that_is_not_an_int():
    # built, such a graph made validate_kgb, and poset_leq and hasse on its
    # orbit poset, compare a str with an int
    for g in (sl2_split(), a1xa1_swap()):
        with pytest.raises(AxiomViolation) as info:
            _corrupt(g, length={"0": "0"})
        assert info.value.violations == ["BadLength: node=0"]


def test_graphs_refuse_node_lists_that_disagree_with_their_lengths():
    # built, the first made validate_kgb raise KeyError, the second passed
    # validate_kgb with a node that to_orbit_poset kept and format_kgb
    # dropped, and the third reported CrossNotInvolution and was written
    # with two "node 0" lines that parse_kgb refuses
    g = sl2_split()
    with pytest.raises(AxiomViolation) as info:
        _corrupt(g, length={"1": None})
    assert info.value.violations == ["MissingLength: node=1"]
    with pytest.raises(AxiomViolation) as info:
        _corrupt(g, length={"9": 3, "10": 4})
    assert info.value.violations == ["ExtraLength: node=10", "ExtraLength: node=9"]
    fields = {name: m for name, m in g._fields().items() if name not in ("datum", "nodes")}
    with pytest.raises(AxiomViolation) as info:
        KgbGraph(g.datum, ("0", "0", "1", "2", "2", "2"), **fields)
    assert info.value.violations == ["DuplicateNode: node=0", "DuplicateNode: node=2"]
    with pytest.raises(AxiomViolation) as info:
        KgbGraph(g.datum, ("0", "0", "2"), **{**fields, "length": {"0": "0", "1": 0}})
    # node 1 is not listed, so its twisted involution and moves are refused
    # too, and so is the cross move of node 0, which names it
    assert info.value.violations == [
        "BadCayley: alpha=1 node=1",
        "BadCross: alpha=1 node=1",
        "BadLabel: alpha=1 node=1",
        "BadLength: node=0",
        "DuplicateNode: node=0",
        "ExtraLength: node=1",
        "ExtraTw: node=1",
        "MissingLength: node=2",
        "UnknownNode: alpha=1 node=0 cross=1",
    ]


def test_graphs_refuse_a_twisted_involution_that_is_not_an_element_of_their_datum():
    # built, the first made validate_kgb report CayleyTwist and LabelClass,
    # the second raise KeyError and the third AttributeError
    g = sl2_split()
    adjoint_e = identity(build_root_datum("A1", isogeny="adjoint"))
    cases = [
        ({v: adjoint_e for v in g.nodes}, ["BadTw: node=0", "BadTw: node=1", "BadTw: node=2"]),
        ({"1": None}, ["BadTw: node=1"]),
        ({"2": "1"}, ["BadTw: node=2"]),
    ]
    for tw, want in cases:
        with pytest.raises(AxiomViolation) as info:
            _corrupt(g, tw=tw)
        assert info.value.violations == want, tw
    with pytest.raises(AxiomViolation) as info:
        _corrupt(g, tw={"2": "1"}, length={"0": "0"})
    assert info.value.violations == ["BadLength: node=0", "BadTw: node=2"]
    # an equal datum built apart is the graph's own
    assert validate_kgb(_corrupt(g, tw={"0": identity(build_root_datum("A1"))})) == []


def compact_form_text(name):
    """The one-node graph of the compact form: every root compact imaginary,
    crossing to itself."""
    lines = ["kgbgraph v1", "rootsystem inline", "rootdatum v1", f"type {name}", "isogeny simply_connected"]
    lines += ["twist id", "nodes 1", "node 0 0 e"]
    lines += [f"label 0 {alpha} ci cross=0" for alpha in range(1, int(name[1:]) + 1)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", ["E6", "E7", "E8"])
def test_compact_forms_of_large_groups_check_without_tables(name):
    before = set(weyl._tables)
    text = compact_form_text(name)
    g = parse_kgb(text)
    assert validate_kgb(g) == [] and ascent_consistency_check(g) == []
    assert format_kgb(g) == text
    assert set(weyl._tables) == before


def test_to_orbit_poset_fibers():
    g = sl2_split()
    poset = to_orbit_poset(g)
    assert poset.fiber(1, "0") == ("0", "1", "2")
    assert poset.dense_node(1, "0") == "2"
    p = to_orbit_poset(pgl2_split())
    assert p.fiber(1, "0") == ("0", "1")
    assert p.dense_node(1, "1") == "1"


def test_monoid_elt_refuses_an_element_of_another_datum():
    with pytest.raises(Mismatch) as err:
        monoid_elt(sl2_split(), identity(build_root_datum("A2")), "0")
    assert str(err.value) == "element belongs to a different root datum"


# Shadows for the order checks: identity twists and the diagram flips of A3,
# A4 and D4 (the last swapping the two short arms).
ORDER_SHADOWS = [("A3", None), ("A3", (3, 2, 1)), ("A4", (4, 3, 2, 1)), ("B3", None), ("D4", (1, 2, 4, 3)), ("F4", None)]


def test_twisted_involutions_are_eulerian():
    # Hultman (Adv. Math. 195, 2005): the twisted involutions of W under the
    # Bruhat order form an Eulerian poset, mu(u, v) = (-1)^(l(v) - l(u)) on
    # every interval [u, v], l the rank; the shadows' closure order is that
    # poset, and the group case of B3 is W(B3) under the Bruhat order (Verma);
    # every interval u < v is checked, and the pairs are counted
    graphs = [twisted_shadow(build_root_datum(name, twist=twist)) for name, twist in ORDER_SHADOWS]
    counts = [eulerian_count(to_orbit_poset(g)) for g in graphs + [group_case(build_root_datum("B3"))]]
    assert counts == [35, 35, 211, 145, 327, 6733, 799]


def test_tw_is_order_preserving():
    # Richardson-Springer (Geom. Dedicata 35, 1990): the map from the orbits
    # to the twisted involutions of W, v -> tw(v), is order preserving from
    # the closure order into the Bruhat order of W; so on each cover u < v
    graphs = list(builtin_fixtures().values())
    graphs += [twisted_shadow(build_root_datum(name, twist=twist)) for name, twist in ORDER_SHADOWS]
    graphs += [group_case(build_root_datum(name)) for name in ("A3", "B3")]
    covers = 0
    for g in graphs:
        for u, v in hasse(to_orbit_poset(g)):
            assert bruhat_leq(g.tw[u], g.tw[v]), (g.datum.name, u, v)
            covers += 1
    assert covers > 900
