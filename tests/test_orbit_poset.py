"""Orbit graphs: closure order, decompositions, subexpressions, validation."""

import itertools
import random
from inspect import getclosurevars

import pytest

from flagorbits import (
    AxiomViolation,
    FlagOrbitsError,
    Mismatch,
    OrbitGraph,
    ParseError,
    ReducedDecomposition,
    Unreachable,
    all_reduced_decompositions,
    bruhat_leq,
    bruhat_leq_subword,
    build_root_datum,
    builtin_fixtures,
    enumerate_elements,
    format_kgb,
    format_orbit_graph,
    format_word,
    from_parabolic,
    group_case,
    from_weyl,
    hasse,
    hasse_dot,
    length,
    load_orbit_graph,
    monoid,
    monoid_word,
    parse_kgb,
    pgl2_split,
    poset_leq,
    property_z_check,
    reduced_decomposition,
    reduced_word,
    save_orbit_graph,
    sl2_split,
    subexpression_endpoints,
    to_orbit_poset,
    twisted_shadow,
    validate,
)
from flagorbits.kgb import doubled_datum
from flagorbits.errors import InvalidCartan
from flagorbits.orbit_poset import (
    FORMAT_HEADER,
    _gather,
    _kernel,
    cover_pairs,
    lower_ideal,
    node_sort_key,
    parse_orbit_graph,
)
from flagorbits.root_datum import RANK_CAP, _decimal, _node_lines, _significant_lines, cartan_matrix, normalize_levi
from flagorbits.weyl import _table
from test_weyl import INTERLEAVED, THREE_WAY


def all_levis(rank):
    for k in range(rank + 1):
        yield from itertools.combinations(range(1, rank + 1), k)


def mutate_dense_flip(g):
    """Flip the dense node of the first two-element fiber."""
    fibers = []
    flipped = False
    for alpha, dense, group in g.stored_fibers():
        if not flipped and len(group) == 2:
            other = [x for x in group if x != dense][0]
            fibers.append((alpha, other, group))
            flipped = True
        else:
            fibers.append((alpha, dense, group))
    assert flipped
    return OrbitGraph(g.rootsystem, g.rank, g.length, fibers)


def test_from_weyl_matches_weyl_order():
    for name in ("A1", "A2", "B2"):
        d = build_root_datum(name)
        g = from_weyl(d)
        elements = enumerate_elements(d)
        ident = {w: format_word(reduced_word(w)) for w in elements}
        for u in elements:
            for v in elements:
                assert poset_leq(g, ident[u], ident[v]) == bruhat_leq(u, v)


def reference_from_parabolic(datum, levi):
    """The orbit graph of P\\G/B read off the Weyl table, kept as the oracle
    of from_parabolic's weight-orbit walk: the nodes are the table ids with
    no left descent in the Levi set, named by their canonical words, and
    along alpha a node is joined to its right neighbour under s_alpha when
    that is a node too, and longer."""
    levi = normalize_levi(datum, levi)
    table = _table(datum)
    length = table.length
    lefts = [table.left[i - 1] for i in levi]
    minimal = [k for k in range(len(length)) if all(length[row[k]] > length[k] for row in lefts)]
    name = {k: format_word(table.words[k]) for k in minimal}
    ids = sorted(name, key=lambda k: node_sort_key(name[k]))
    position = {k: p for p, k in enumerate(ids)}
    rows = []
    for right in table.right:
        row = [None] * len(ids)
        for p, k in enumerate(ids):
            q = position.get(right[k])
            if q is not None and length[right[k]] > length[k]:
                row[p] = row[q] = (q, (p, q) if p < q else (q, p))
        rows.append(row)
    label = (datum.name or "custom") + (" levi " + ",".join(map(str, levi)) if levi else "")
    nodes = tuple(name[k] for k in ids)
    return OrbitGraph.__new__(OrbitGraph)._fill(label, nodes, [length[k] for k in ids], rows, graded=True)


def graph_fields(g):
    return g.nodes, g._len, g._table, g.rootsystem, g._graded, g.length


# Every Levi set of each of these is checked against the table route; E6's
# 64 are left to CI.
ORACLE_DATA = [f"A{n}" for n in range(1, 6)] + [f"B{n}" for n in range(2, 6)]
ORACLE_DATA += ["C3", "C4", "D4", "D5", "G2", "F4", "A1xA2", "B2xG2", "A3xA3", INTERLEAVED, THREE_WAY]


def oracle_data():
    data = [build_root_datum(spec) for spec in ORACLE_DATA]
    data += [build_root_datum("B3", isogeny="adjoint"), build_root_datum("D4", twist=(1, 2, 4, 3))]
    return data + [doubled_datum(build_root_datum("A2"))]


def test_from_parabolic_matches_the_table_route():
    pairs = 0
    for datum in oracle_data():
        for levi in all_levis(datum.rank):
            assert graph_fields(from_parabolic(datum, levi)) == graph_fields(reference_from_parabolic(datum, levi))
            pairs += 1
    assert pairs == 414


def test_builtin_graphs_validate():
    for name in ("A1", "A1xA1", "A2", "B2", "G2"):
        d = build_root_datum(name)
        assert validate(from_weyl(d)) == []
        for levi in all_levis(d.rank):
            assert validate(from_parabolic(d, levi)) == []


def test_dense_node_is_idempotent():
    g = from_weyl(build_root_datum("A2"))
    for node in g.nodes:
        for alpha in (1, 2):
            up = g.dense_node(alpha, node)
            assert up in g.fiber(alpha, node)
            assert g.dense_node(alpha, up) == up


# one crafted graph per failure mode: (code, lengths, fibers)
VALIDATE_CASES = [
    ("BadLength", {"a": -1}, []),
    (
        "FiberTooLarge",
        {"a": 0, "b": 0, "c": 0, "d": 1},
        [(1, "d", ("a", "b", "c", "d"))],
    ),
    ("NoDenseNode", {"a": 0, "b": 0, "top": 1}, [(1, "b", ("a", "b")), (1, "top", ("b", "top"))]),
    ("BadLengthGap", {"a": 0, "b": 3}, [(1, "b", ("a", "b"))]),
    ("NoClosedNode", {"a": 1, "b": 2}, [(1, "b", ("a", "b"))]),
    ("Unreachable", {"a": 0, "b": 1}, []),
    ("FiberIncoherent", {"a": 0, "b": 1, "c": 1}, [(1, "b", ("a", "b")), (1, "c", ("a", "c"))]),
]


def test_validate_error_codes():
    for code, lengths, fibers in VALIDATE_CASES:
        g = OrbitGraph("crafted", 2, lengths, fibers)
        assert any(v.startswith(code) for v in validate(g)), code


def test_a_length_that_is_not_an_int_is_refused():
    # built, such a graph made validate, poset_leq, hasse, property_z_check
    # and reduced_decomposition compare a str with an int
    with pytest.raises(AxiomViolation) as info:
        OrbitGraph("crafted", 1, {"a": 0, "b": "1"}, [(1, "b", ("a", "b"))])
    assert info.value.violations == ["BadLength: node=b length='1'"]


def test_fiber_incoherent_names_the_node_claimed_twice():
    # a lies in a/b and in a/c along 1; the later fiber is the one stored at a
    g = OrbitGraph("crafted", 2, {"a": 0, "b": 1, "c": 1}, [(1, "b", ("a", "b")), (1, "c", ("a", "c"))])
    assert validate(g) == ["FiberIncoherent: alpha=1 fiber=a/b node=a"]


def _fibers_outside_the_table():
    """(rank, lengths, fibers, refusal lines) for fibers the fiber table
    cannot hold: an index outside 1..rank or not an int, an unknown node,
    names that sort alike, both at once and beside a length that is not an
    int, and repeated."""
    good = {"a": 0, "b": 1}
    return [
        (2, good, [(7, "b", ("a", "b"))], ["BadSimpleIndex: alpha=7 fiber=a/b"]),
        (2, good, [(0, "b", ("a", "b"))], ["BadSimpleIndex: alpha=0 fiber=a/b"]),
        (1, good, [(1.0, "b", ("a", "b"))], ["BadSimpleIndex: alpha=1.0 fiber=a/b"]),
        (1, good, [(True, "b", ("a", "b"))], ["BadSimpleIndex: alpha=True fiber=a/b"]),
        (1, good, [("1", "b", ("a", "b"))], ["BadSimpleIndex: alpha='1' fiber=a/b"]),
        (2, good, [(1, "b", ("zz", "b"))], ["UnknownNode: alpha=1 fiber=b/zz nodes=zz"]),
        (2, good, [(1, "b", ("a", "b")), (2, "yy", ("zz", "b", "a"))], ["UnknownNode: alpha=2 fiber=a/b/yy/zz nodes=yy,zz"]),
        # names that sort alike, in node order whatever the order of the set
        (2, {"00": 0, "0": 1}, [(7, "0", ("00", "0"))], ["BadSimpleIndex: alpha=7 fiber=00/0"]),
        (2, {"00": 0, "0": 1}, [(1, "0", ("000", "00"))], ["UnknownNode: alpha=1 fiber=00/0/000 nodes=000"]),
        (
            2,
            {"a": 0, "b": "1"},
            [(1, "b", ("zz", "b")), (9, "zz", ("b",)), (9, "b", ("zz",)), (1, "b", ("a", "b"))],
            ["BadLength: node=b length='1'", "BadSimpleIndex: alpha=9 fiber=b/zz", "UnknownNode: alpha=1 fiber=b/zz nodes=zz"],
        ),
    ]


def test_fibers_outside_the_table_are_reported_alike():
    # the constructor refuses them with reference_refusals' lines; the parser
    # refuses an index above a named type's rank with the same lines, and an
    # unknown node with a ParseError
    for rank, lengths, fibers, violations in _fibers_outside_the_table():
        with pytest.raises(AxiomViolation) as info:
            OrbitGraph("crafted", rank, lengths, fibers)
        assert info.value.violations == violations == reference_refusals(rank, lengths, fibers)
    head = "orbitgraph v1\nrootsystem A2\nnodes 2\nnode a 0\nnode b 1\n"
    for lines, violations in (
        ("fiber 7 b a\n", ["BadSimpleIndex: alpha=7 fiber=a/b"]),
        ("fiber 1 b a\nfiber 3 b a\nfiber 3 b a b\nfiber 4 b a\n", ["BadSimpleIndex: alpha=3 fiber=a/b", "BadSimpleIndex: alpha=4 fiber=a/b"]),
    ):
        with pytest.raises(AxiomViolation) as info:
            parse_orbit_graph(head + lines)
        assert info.value.violations == violations
    with pytest.raises(ParseError, match="fiber mentions unknown node 'zz'"):
        parse_orbit_graph(head + "fiber 1 b zz\n")


def test_order_is_refused_on_fibers_outside_the_table():
    # only the table is asked: an index outside 1..rank, or not an int, is a
    # Mismatch wherever a query names one
    g = from_weyl(build_root_datum("A2"))
    rd = reduced_decomposition(g, "1,2")
    for alpha in (0, 3, 1.0, True, "1", None):
        for call in (
            lambda: g.fiber(alpha, "e"),
            lambda: g.dense_node(alpha, "e"),
            lambda: subexpression_endpoints(g, rd._replace(roots=(alpha, rd.roots[1]))),
            lambda: monoid(sl2_split(), alpha, "0"),
            lambda: monoid_word(sl2_split(), (1, alpha), "0"),
        ):
            with pytest.raises(Mismatch, match=r"simple index .* out of range 1\.\.[12]$"):
                call()
    # the index is spelled by repr, so a str reads apart from the int in range
    for alpha, spelled in ((3, "3"), (1.0, "1.0"), ("1", "'1'")):
        with pytest.raises(Mismatch) as info:
            g.fiber(alpha, "e")
        assert str(info.value) == f"simple index {spelled} out of range 1..2"
    assert subexpression_endpoints(g, rd) == ("1", "2", "1,2", "e")


def test_validate_flags_wrong_dense():
    g = mutate_dense_flip(from_weyl(build_root_datum("A2")))
    assert any(v.startswith("NoDenseNode") for v in validate(g))


def test_property_z_clean_and_mutation_sensitive():
    g = from_weyl(build_root_datum("A2"))
    assert property_z_check(g) == []
    broken = mutate_dense_flip(g)
    assert len(property_z_check(broken)) >= 1


def pairwise_property_z(g):
    """The pairwise property Z loop, kept as the reference: for each simple
    root, each pair of nodes it moves up, one bit test per condition."""
    violations = []
    for alpha, row in enumerate(g._table, 1):
        moved = [(k, got) for k, got in enumerate(row) if got is not None and got[0] != k]
        cols = [
            (u1, 1 << u1, 1 << u2, sum(1 << x for x in group if x != u2))
            for u1, (u2, group) in moved
        ]
        for v1, (v2, _) in moved:
            below_v1 = lower_ideal(g, g.nodes[v1])
            below_v2 = lower_ideal(g, g.nodes[v2])
            for u1, bit1, bit2, slide in cols:
                c1 = below_v1 & slide != 0
                c2 = below_v2 & bit2 != 0
                c3 = below_v2 & bit1 != 0
                if not (c1 == c2 == c3):
                    violations.append(
                        f"PropertyZ: alpha={alpha} u1={g.nodes[u1]} v1={g.nodes[v1]} "
                        f"conditions=({c1},{c2},{c3})"
                    )
    return sorted(violations)


def dense_moved_to(g, alpha, dense):
    """g with the dense node of its fiber along alpha through dense moved to dense."""
    fibers = [
        (a, dense if a == alpha and dense in group else d, group) for a, d, group in g.stored_fibers()
    ]
    return OrbitGraph(g.rootsystem, g.rank, g.length, fibers)


def test_property_z_matches_the_pairwise_reference():
    clean = [from_weyl(build_root_datum(name)) for name in ("A2", "B2", "G2", "A3", "B3")]
    clean += [from_parabolic(build_root_datum(name), (1,)) for name in ("A3", "B3", "D4")]
    clean += [to_orbit_poset(g) for g in builtin_fixtures().values()]
    split = to_orbit_poset(sl2_split())  # one fiber of three members, 0/1/2
    mutants = [mutate_dense_flip(g) for g in clean if any(len(f[2]) == 2 for f in g.stored_fibers())]
    mutants += [dense_moved_to(split, 1, x) for x in ("0", "1")]
    # along root 1 the added fiber 2/e overlaps e/1 and 2/2,1
    a2 = from_weyl(build_root_datum("A2"))
    incoherent = OrbitGraph(a2.rootsystem, a2.rank, a2.length, a2.stored_fibers() + [(1, "2", ("2", "e"))])
    assert validate(incoherent) == [
        "FiberIncoherent: alpha=1 fiber=1/e node=e",
        "FiberIncoherent: alpha=1 fiber=2/2,1 node=2",
    ]

    def outcome(check, g):
        try:
            return check(g)
        except AxiomViolation as err:  # a flip can close a lowering cycle
            return str(err)

    outcomes = [outcome(pairwise_property_z, g) for g in clean + mutants + [split, incoherent]]
    for g, expected in zip(clean + mutants + [split, incoherent], outcomes):
        assert outcome(property_z_check, g) == expected, g.rootsystem
    assert outcomes[: len(clean)] == [[]] * len(clean) and outcomes[-2] == []
    assert all(outcomes[len(clean) : -2]) and outcomes[-1]


def test_hasse_is_cover_pairs():
    graphs = []
    for name in ("A3", "B3", "D4", "F4", "G2"):
        datum = build_root_datum(name)
        graphs += [from_weyl(datum), from_parabolic(datum, (1,)), from_parabolic(datum, (2,))]
    graphs += [to_orbit_poset(group_case(build_root_datum(name))) for name in ("A3", "B3", "D4")]
    graphs += [
        to_orbit_poset(twisted_shadow(build_root_datum(name, twist=twist)))
        for name, twist in (("A4", (4, 3, 2, 1)), ("D4", (1, 2, 4, 3)))
    ]
    graphs += [to_orbit_poset(g) for g in builtin_fixtures().values()]
    graphs += [parse_orbit_graph(format_orbit_graph(g)) for g in graphs[:6]]  # not known to be graded
    for g in graphs:
        assert hasse(g) == cover_pairs(g, (1 << len(g.nodes)) - 1), g.rootsystem


def test_hasse_on_an_order_not_graded_by_length():
    # d < c is a cover two steps long, which no chain of fibers shows
    text = "orbitgraph v1\nrootsystem custom\nnodes 5\nnode 0 0\nnode a 1\nnode d 1\nnode b 2\nnode c 3\n"
    g = parse_orbit_graph(text + "fiber 1 a 0\nfiber 2 b a\nfiber 3 c b\nfiber 3 d 0\n")
    assert validate(g) == [] and property_z_check(g) == []
    assert hasse(g) == cover_pairs(g, 0b11111) == [("0", "a"), ("0", "d"), ("a", "b"), ("b", "c"), ("d", "c")]


def test_hasse_refuses_a_graph_without_property_z():
    # a flipped dense node leaves a coatom that is not one shorter
    for name in ("A2", "A3", "B3", "G2"):
        g = mutate_dense_flip(from_weyl(build_root_datum(name)))
        with pytest.raises(AxiomViolation, match="NoDenseNode"):
            hasse(g)


def test_reduced_decomposition_example():
    g = from_weyl(build_root_datum("A2"))
    rd = reduced_decomposition(g, "1,2")
    assert rd.nodes == ("e", "1", "1,2")
    assert rd.roots == (1, 2)


def test_reduced_decomposition_of_closed_node():
    g = from_weyl(build_root_datum("A2"))
    rd = reduced_decomposition(g, "e")
    assert rd.nodes == ("e",) and rd.roots == ()


def test_all_reduced_decompositions_consistent():
    g = from_weyl(build_root_datum("B2"))
    for v in g.nodes:
        rds = all_reduced_decompositions(g, v)
        assert reduced_decomposition(g, v) in rds
        for rd in rds:
            assert rd.nodes[-1] == v
            assert len(rd.roots) == g.length[v]


def test_reduced_decomposition_unreachable():
    g = OrbitGraph("crafted", 1, {"a": 0, "b": 1}, [])
    with pytest.raises(Unreachable):
        reduced_decomposition(g, "b")


def test_subexpression_endpoints_are_lower_intervals():
    graphs = [from_weyl(build_root_datum(n)) for n in ("A1", "A1xA1", "A2", "B2", "G2")]
    d = build_root_datum("B2")
    graphs += [from_parabolic(d, levi) for levi in all_levis(2)]
    for g in graphs:
        for v in g.nodes:
            below = tuple(sorted((u for u in g.nodes if poset_leq(g, u, v))))
            for rd in all_reduced_decompositions(g, v):
                assert tuple(sorted(subexpression_endpoints(g, rd))) == below


def test_poset_leq_unknown_node():
    g = from_weyl(build_root_datum("A1"))
    with pytest.raises(Mismatch):
        poset_leq(g, "nope", "e")


def test_poset_leq_terminates_on_broken_graph():
    # mutated graphs may lose soundness but never hang
    g = mutate_dense_flip(from_weyl(build_root_datum("A2")))
    for u in g.nodes:
        for v in g.nodes:
            poset_leq(g, u, v)


def test_ill_founded_lowering_chain_is_an_axiom_violation():
    # v lowers to w along 1 and w lowers back to v along 2
    g = parse_orbit_graph(
        "orbitgraph v1\nrootsystem A2\nnodes 3\nnode x 0\nnode v 2\nnode w 3\n"
        "fiber 1 v w\nfiber 2 w v\n"
    )
    with pytest.raises(AxiomViolation, match="node=v"):
        poset_leq(g, "x", "v")
    with pytest.raises(AxiomViolation, match="node=w"):
        poset_leq(g, "x", "w")
    with pytest.raises(AxiomViolation, match="LoweringCycle"):
        hasse(g)
    for decompose in (reduced_decomposition, all_reduced_decompositions):
        for node in ("v", "w"):
            with pytest.raises(AxiomViolation, match=f"LoweringCycle: node={node}"):
                decompose(g, node)
    assert poset_leq(g, "x", "x")
    assert reduced_decomposition(g, "x").nodes == ("x",)


def test_order_is_the_subexpression_closure_at_scale():
    graphs = [
        from_weyl(build_root_datum("B3")),
        from_parabolic(build_root_datum("A4"), (2,)),
        to_orbit_poset(group_case(build_root_datum("A3"))),
    ]
    graphs += [to_orbit_poset(g) for g in builtin_fixtures().values()]
    for g in graphs:
        for v in g.nodes:
            below = {u for u in g.nodes if poset_leq(g, u, v)}
            rd = reduced_decomposition(g, v)
            assert set(subexpression_endpoints(g, rd)) == below, (g.rootsystem, v)


def test_hasse_b3_is_the_subword_covers():
    d = build_root_datum("B3")
    elements = enumerate_elements(d)
    name = {w: format_word(reduced_word(w)) for w in elements}
    covers = {
        (name[u], name[v])
        for u in elements
        for v in elements
        if length(v) == length(u) + 1 and bruhat_leq_subword(u, v)
    }
    edges = hasse(from_weyl(d))
    assert len(edges) == len(covers) and set(edges) == covers


def test_hasse_a2():
    g = from_weyl(build_root_datum("A2"))
    edges = hasse(g)
    assert len(edges) == 8
    assert ("e", "1") in edges and ("e", "2") in edges
    # hasse is the transitive reduction: no edge is implied by two others
    for u, v in edges:
        assert not any(
            (u, x) in edges and (x, v) in edges for x in g.nodes if x not in (u, v)
        )


def test_hasse_dot_annotations():
    g = from_weyl(build_root_datum("A1"))
    dot = hasse_dot(g)
    assert dot.splitlines()[0] == "digraph closure_order {"
    assert '"e" [label="e len=0"];' in dot
    assert '"e" -> "1";' in dot


# --- the text layer on positions against name-keyed references ---------------


def reference_stored_fibers(g):
    """Each explicit fiber once, sorted by simple index then dense node name."""
    out = []
    for alpha, row in enumerate(g._table, 1):
        for dense, group in filter(None, dict.fromkeys(row)):
            out.append((alpha, g.nodes[dense], tuple(g.nodes[k] for k in group)))
    return sorted(out, key=lambda t: (t[0], node_sort_key(t[1])))


def reference_validate(g):
    """validate read fiber by fiber off reference_stored_fibers, by name."""
    violations = []
    for node in g.nodes:
        if g.length[node] < 0:
            violations.append(f"BadLength: node={node} length={g.length[node]!r}")
    for alpha, dense, group in reference_stored_fibers(g):
        tag = f"alpha={alpha} fiber={'/'.join(group)}"
        if len(group) > 3:
            violations.append(f"FiberTooLarge: {tag} size={len(group)}")
        ks = tuple(g.index[x] for x in group)
        for x, k in zip(group, ks):
            if g._table[alpha - 1][k][1] != ks:
                violations.append(f"FiberIncoherent: {tag} node={x}")
        top = max(g.length[x] for x in group)
        at_top = [x for x in group if g.length[x] == top]
        if len(at_top) != 1:
            violations.append(f"NoDenseNode: {tag} maximal={','.join(at_top)}")
        elif at_top[0] != dense:
            violations.append(f"NoDenseNode: {tag} stored dense {dense} is not the longest")
        elif len(group) > 1:
            for x in group:
                if x != dense and g.length[x] != top - 1:
                    violations.append(f"BadLengthGap: {tag} node={x}")
    if all(g.length[node] != 0 for node in g.nodes):
        violations.append("NoClosedNode: no node of length 0")
    for k, n in enumerate(g._len):
        if n > 0 and g._first[k] is None:
            violations.append(f"Unreachable: node={g.nodes[k]} has no downward fiber")
    return sorted(violations)


def reference_refusals(rank, lengths, fibers):
    """The lines the constructor refuses lengths and fibers with, by name:
    a length that is not an int, and a fiber along an index that is not an
    int in 1..rank or naming an unknown node, each line once, its members
    in node order."""
    bad = {f"BadLength: node={x} length={n!r}" for x, n in lengths.items() if not isinstance(n, int)}
    order = sorted(lengths, key=node_sort_key)  # names that sort alike keep this order, unknown names last
    for alpha, dense, members in fibers:
        group = sorted({dense, *members}, key=lambda x: (node_sort_key(x), order.index(x) if x in lengths else len(order), x))
        tag = f"alpha={alpha!r} fiber={'/'.join(group)}"
        unknown = [x for x in group if x not in lengths]
        if type(alpha) is not int or not 1 <= alpha <= rank:
            bad.add(f"BadSimpleIndex: {tag}")
        elif unknown:
            bad.add(f"UnknownNode: {tag} nodes={','.join(unknown)}")
    return sorted(bad)


def reference_format(g):
    """The text form, node lines by name and fiber lines from reference_stored_fibers."""
    lines = [FORMAT_HEADER, f"rootsystem {g.rootsystem}", f"nodes {len(g.nodes)}"]
    lines += [f"node {node} {g.length[node]}" for node in g.nodes]
    for alpha, dense, group in reference_stored_fibers(g):
        if len(group) > 1:
            lines.append(f"fiber {alpha} {dense} {' '.join(x for x in group if x != dense)}")
    return "\n".join(lines) + "\n"


def reference_parse(text):
    """parse_orbit_graph by name: a claim per (alpha, node) on the fiber's dense
    name and member set, then reference_refusals' lines for a fiber index
    above the rank, or the graph through the constructor."""
    lines = _significant_lines(text)
    if not lines or lines[0] != FORMAT_HEADER:
        raise ParseError(f"expected header {FORMAT_HEADER!r}")
    if len(lines) < 3 or not lines[1].startswith("rootsystem "):
        raise ParseError("expected a rootsystem line")
    rootsystem = lines[1][len("rootsystem ") :].strip()
    lengths = {name: n for name, n, _ in _node_lines(lines[2:], 3)}
    fibers, claimed, top = [], {}, 0
    for line in lines[3 + len(lengths) :]:
        fields = line.split()
        if fields[0] != "fiber" or len(fields) < 4:
            raise ParseError(f"bad fiber line: {line!r}")
        alpha = _decimal(fields[1])
        if not alpha:
            raise ParseError(f"bad simple index in {line!r}")
        top = max(top, alpha)
        fiber = (fields[2], frozenset(fields[2:]))
        for name in fields[2:]:
            if name not in lengths:
                raise ParseError(f"fiber mentions unknown node {name!r}")
            if claimed.setdefault((alpha, name), fiber) != fiber:
                raise ParseError(f"node {name!r} lies in two fibers along {alpha}")
        fibers.append((alpha, fields[2], tuple(fields[2:])))
    try:
        rank = len(cartan_matrix(rootsystem.split()[0]))
    except InvalidCartan:
        if top > RANK_CAP:
            raise ParseError(f"fiber index {top} is above the rank cap of {RANK_CAP}") from None
        rank = top
    refused = reference_refusals(rank, lengths, fibers)
    if refused:
        raise AxiomViolation(refused)
    return OrbitGraph(rootsystem, rank, lengths, fibers)


def assert_text_layer_matches(g):
    """stored_fibers, validate and format_orbit_graph agree with the name-keyed references."""
    assert g.stored_fibers() == reference_stored_fibers(g), g.rootsystem
    assert validate(g) == reference_validate(g), g.rootsystem
    assert format_orbit_graph(g) == reference_format(g), g.rootsystem


def parsed_fields(parse, text):
    """The fields and rank of what parse makes of text, or the error it
    raises: AxiomViolation with its whole list."""
    try:
        g = parse(text)
    except AxiomViolation as err:
        return "AxiomViolation", err.violations
    except FlagOrbitsError as err:
        return type(err).__name__, str(err)
    return graph_fields(g), g.rank


def assert_parse_matches(text):
    """parse_orbit_graph on positions gives the graph or the error of reference_parse."""
    assert parsed_fields(parse_orbit_graph, text) == parsed_fields(reference_parse, text), text


# Names that sort alike: 01 meets its row first but comes after 1 in node order.
TIED = "orbitgraph v1\nrootsystem A1\nnodes 4\nnode 0 0\nnode 00 0\nnode 1 1\nnode 01 1\nfiber 1 01 0\nfiber 1 1 00\n"


def text_layer_graphs():
    """Crafted graphs of every violation, fibers sharing a member or a dense
    node, names that sort alike, dense-flip mutants and the oracle graphs."""
    graphs = [OrbitGraph("crafted", 2, lengths, fibers) for _, lengths, fibers in VALIDATE_CASES]
    a2 = from_weyl(build_root_datum("A2"))
    lengths = {"a": 0, "b": 1, "c": 1, "d": 2}
    graphs += [
        # a lies in a/b and in a/c; then b is dense in a/b and in b/c, the later fiber kept at b
        OrbitGraph("crafted", 2, lengths, [(1, "b", ("a", "b")), (1, "c", ("a", "c")), (2, "b", ("a", "b"))]),
        OrbitGraph("crafted", 2, lengths, [(1, "b", ("a", "b")), (1, "b", ("b", "c")), (1, "d", ("c", "d"))]),
        OrbitGraph(a2.rootsystem, a2.rank, a2.length, a2.stored_fibers() + [(1, "2", ("2", "e"))]),
        parse_orbit_graph(TIED),
        OrbitGraph("crafted", 3, {"0": 0, "00": 0, "1": 1, "01": 1}, [(1, "01", ("0", "01")), (1, "1", ("00", "1"))]),
    ]
    clean = [from_weyl(build_root_datum(name)) for name in ("A2", "B2", "G2", "A3", "B3")]
    clean += oracle_graphs()
    graphs += clean + [mutate_dense_flip(g) for g in clean if any(len(f[2]) == 2 for f in g.stored_fibers())]
    return graphs


def test_text_layer_matches_the_name_keyed_references():
    graphs = text_layer_graphs()
    for g in graphs:
        assert_text_layer_matches(g)
        assert_parse_matches(format_orbit_graph(g))
    # the order a row meets fibers with dense names that sort alike is kept
    assert [f[1] for f in parse_orbit_graph(TIED).stored_fibers()] == ["01", "1"]
    assert {code for code, _, _ in VALIDATE_CASES} <= {v.split(":")[0] for g in graphs for v in validate(g)}
    # fiber indices above a named type's rank, among table fibers and with
    # names that sort alike: refused as the reference refuses them
    a2 = format_orbit_graph(from_weyl(build_root_datum("A2")))
    for text, violations in (
        (a2 + "fiber 7 2 e\nfiber 5 1,2 2\n", ["BadSimpleIndex: alpha=5 fiber=2/1,2", "BadSimpleIndex: alpha=7 fiber=2/e"]),
        (TIED.replace("A1", "A1 with a named type") + "fiber 1000 0 00\n", ["BadSimpleIndex: alpha=1000 fiber=0/00"]),
    ):
        assert parsed_fields(parse_orbit_graph, text) == ("AxiomViolation", violations)
        assert_parse_matches(text)


def test_round_trip_byte_identical(tmp_path):
    for name in ("A2", "B2"):
        d = build_root_datum(name)
        for g in (from_weyl(d), from_parabolic(d, (1,))):
            text = format_orbit_graph(g)
            path = tmp_path / "g.orbitgraph"
            save_orbit_graph(g, path)
            assert path.read_text() == text
            again = load_orbit_graph(path)
            assert format_orbit_graph(again) == text
            assert again.length == g.length
            assert again.stored_fibers() == g.stored_fibers()


def test_round_trip_keeps_the_rank():
    for name in ("A1", "A1xA1", "A2", "B2", "G2", "A3", "B3", "C3", "A1xA2", "A4", "D4"):
        datum = build_root_datum(name)
        for levi in all_levis(datum.rank):
            g = from_parabolic(datum, levi)
            assert parse_orbit_graph(format_orbit_graph(g)).rank == g.rank == datum.rank, g.rootsystem


def test_parsed_rank_comes_from_the_type_name():
    text = "orbitgraph v1\nrootsystem {}\nnodes 2\nnode 0 0\nnode 1 1\nfiber 9 1 0\n"
    with pytest.raises(AxiomViolation) as info:
        parse_orbit_graph(text.format("A1"))
    assert info.value.violations == ["BadSimpleIndex: alpha=9 fiber=0/1"]
    for rootsystem in ("custom", "A1x", "A²", "E9 levi 1"):
        g = parse_orbit_graph(text.format(rootsystem))
        assert g.rank == 9 and validate(g) == [], rootsystem


def test_parse_errors():
    good = format_orbit_graph(from_weyl(build_root_datum("A1")))
    a2 = format_orbit_graph(from_weyl(build_root_datum("A2")))
    header = "expected header 'orbitgraph v1'"
    for bad, message in (
        ("", header),
        ("orbitgraph v2\nrootsystem A1\nnodes 0\n", header),
        ("orbitgraph v1\nrootsystem A1\n", "expected a rootsystem line"),
        (good.replace("rootsystem A1", "root system A1"), "expected a rootsystem line"),
        (good.replace("nodes 2", "nodes two"), "expected a node count line"),
        (good.replace("nodes 2", "nodes ²"), "expected a node count line"),
        (good.replace("nodes 2", "nodes " + "9" * 4400), "expected a node count line"),
        (good + "mystery line\n", "bad fiber line: 'mystery line'"),
        (good.replace("nodes 2", "nodes 3"), "bad node line: 'fiber 1 1 e'"),
        (good.replace("fiber 1 1 e", "fiber 1 1"), "bad fiber line: 'fiber 1 1'"),
        (good.replace("fiber 1 1 e", "fiber one 1 e"), "bad simple index in 'fiber one 1 e'"),
        (good.replace("fiber 1 1 e", "fiber 0 1 e"), "bad simple index in 'fiber 0 1 e'"),
        (good.replace("fiber 1 1 e", "fiber ١ 1 e"), "bad simple index in 'fiber ١ 1 e'"),
        (good.replace("fiber 1 1 e", "fiber +1 1 e"), "bad simple index in 'fiber +1 1 e'"),
        (good.replace("fiber 1 1 e", "fiber 1 1 x"), "fiber mentions unknown node 'x'"),
        # the table keeps one fiber per node and root, so a second one would be lost
        (good + "fiber 1 e 1\n", "node 'e' lies in two fibers along 1"),
        (a2 + "fiber 1 2 e\n", "node '2' lies in two fibers along 1"),
        # names are checked in line order, each for being known, then for being claimed by an earlier line
        (good + "fiber 1 e x\n", "node 'e' lies in two fibers along 1"),
        (good + "fiber 1 x e\n", "fiber mentions unknown node 'x'"),
        (good + "fiber 1 1 e x\n", "node '1' lies in two fibers along 1"),
        (good + "fiber 2 1 x e\n", "fiber mentions unknown node 'x'"),
        (good + "fiber 9 1 e\nfiber 9 e 1\n", "node 'e' lies in two fibers along 9"),
        # with no Cartan type named, the largest fiber index is the rank
        (
            good.replace("rootsystem A1", "rootsystem foo").replace("fiber 1 1 e", "fiber 1000000 1 e"),
            "fiber index 1000000 is above the rank cap of 200",
        ),
        # a length must read back as written
        *[(good.replace("node 1 1", f"node 1 {n}"), f"bad node length in 'node 1 {n}'") for n in ("+1", "01", "1_0", "٣")],
    ):
        with pytest.raises(ParseError) as info:
            parse_orbit_graph(bad)
        assert str(info.value) == message, bad
    for repeated in ("fiber 1 1 e\n", "fiber 1 1 e 1\n", "fiber 1 1 e\nfiber 1 1 e\n"):
        assert format_orbit_graph(parse_orbit_graph(good + repeated)) == good
    capped = parse_orbit_graph(good.replace("rootsystem A1", "rootsystem foo").replace("fiber 1 1 e", "fiber 200 1 e"))
    assert capped.rank == 200
    assert parse_orbit_graph(good.replace("node 1 1", "node 1 -1")).length["1"] == -1


def test_node_sort_key_orders_numerals_without_int():
    # int() fails on non-ASCII digits and on numerals of more than 4 300 digits
    huge = "9" * 4400
    names = ["b", huge, "²", "10", "002", "1", "e", "0"]
    assert sorted(names, key=node_sort_key) == ["0", "1", "002", "10", huge, "b", "e", "²"]
    assert node_sort_key("2") == node_sort_key("002")
    g = parse_orbit_graph("orbitgraph v1\nrootsystem A1\nnodes 2\nnode ² 0\nnode 1 1\nfiber 1 1 ²\n")
    assert g.nodes == ("1", "²")


def test_node_line_errors_name_the_line():
    # parse_orbit_graph and parse_kgb share the node-line checks
    orbit = format_orbit_graph(from_weyl(build_root_datum("A1")))
    kgb = format_kgb(pgl2_split())
    cases = [
        (parse_orbit_graph, orbit.split("fiber")[0].replace("nodes 2", "nodes 3"),
         "truncated node list"),
        (parse_orbit_graph, orbit.replace("node 1 1", "node 1 1 x"), "bad node line: 'node 1 1 x'"),
        (parse_orbit_graph, orbit.replace("node 1 1", "node e 1"), "duplicate node 'e'"),
        (parse_orbit_graph, orbit.replace("node 1 1", "node 1 one"),
         "bad node length in 'node 1 one'"),
        (parse_kgb, kgb.split("label")[0].replace("nodes 2", "nodes 3"), "truncated node list"),
        (parse_kgb, kgb.replace("node 1 1 1", "node 1 1"), "bad node line: 'node 1 1'"),
        (parse_kgb, kgb.replace("node 1 1 1", "node 0 1 1"), "duplicate node '0'"),
        (parse_kgb, kgb.replace("node 1 1 1", "node 1 x 1"), "bad node length in 'node 1 x 1'"),
    ]
    for parse, text, message in cases:
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == message


# --- the walks before the first-step row, the pull gathers and the pointer walk ---


def reference_first_step(g, k):
    """The first lowering step from position k, read off the table root by
    root as the _lowerings generator does: (alpha, position) or None."""
    for alpha, row in enumerate(g._table, 1):
        got = row[k]
        if got is not None and got[0] == k:
            for j in got[1]:
                if j != k:
                    return alpha, j
    return None


def reference_cycle(g, chain):
    """The violation naming the first position the chain comes back to."""
    seen = set()
    for k in chain:
        if k in seen:
            break
        seen.add(k)
    return AxiomViolation([f"LoweringCycle: node={g.nodes[k]} lies below itself"])


def reference_chain(g, k, known, base):
    """The first lowering steps from k down to a position set in known."""
    steps, x = [], k
    while known[x] is None:
        step = reference_first_step(g, x)
        if step is None:
            known[x] = base(x)
            break
        if len(steps) > len(known):
            raise reference_cycle(g, [s[0] for s in steps])
        steps.append((x, *step))
        x = step[1]
    return steps


def reference_ideal(g, k, ideals):
    """The member loop: every fiber mate, shorter than x, of each member of
    the ideal one step down; ideals is the caller's own memo."""
    lens = g._len
    for x, alpha, j in reversed(reference_chain(g, k, ideals, lambda x: 1 << x)):
        bits, row = 1 << x, g._table[alpha - 1]
        for u in range(len(lens)):
            if ideals[j] >> u & 1:
                for y in row[u][1] if row[u] else (u,):
                    if lens[y] < lens[x]:
                        bits |= 1 << y
        ideals[x] = bits
    return ideals[k]


def reference_decomposition(g, v):
    k = g._position(v)
    ks, roots = [k], []
    while g._len[k] > 0:
        step = reference_first_step(g, k)
        if step is None:
            raise Unreachable(f"node {g.nodes[k]} has positive length but no downward fiber")
        if len(ks) > len(g._len):
            raise reference_cycle(g, ks)
        roots.append(step[0])
        k = step[1]
        ks.append(k)
    return ReducedDecomposition(tuple(g.nodes[k] for k in reversed(ks)), tuple(reversed(roots)))


def reference_endpoints(g, rd):
    """The set walk: every reached node takes every step."""
    if len(rd.nodes) != len(rd.roots) + 1:
        raise Mismatch("decomposition sequences have inconsistent lengths")
    ks = [g._position(node) for node in rd.nodes]
    if g._len[ks[0]] != 0:
        raise Mismatch(f"decomposition must start at a closed orbit, got {rd.nodes[0]}")
    current = {ks[0]}
    for i, alpha in enumerate(rd.roots):
        prev, cur = ks[i], ks[i + 1]
        if cur == prev or (g._entry(alpha, prev) or (prev,))[0] != cur:
            raise Mismatch(f"step {i + 1} is not a dense move along {alpha}")
        row = g._table[alpha - 1]
        nxt = set()
        for u in current:
            got = row[u]
            if got is None or got[0] == u:
                nxt.add(u)
            else:
                nxt.update(got[1])
        current = nxt
    return tuple(g.nodes[k] for k in sorted(current))


def outcome(f, *args):
    try:
        return f(*args)
    except FlagOrbitsError as err:
        return type(err).__name__, str(err)


def corrupted(g, rng):
    """g with one seeded change to its fibers or lengths: a dense node moved,
    a member added (overlapping fibers), a fiber added between random nodes
    (often a cycle or an incoherent pair), a fiber dropped, or a length shifted."""
    fibers, lengths = [list(f) for f in g.stored_fibers()], dict(g.length)
    kind = rng.randrange(5)
    if kind == 0 and fibers:
        f = rng.choice(fibers)
        f[1] = rng.choice(f[2])
    elif kind == 1 and fibers:
        f = rng.choice(fibers)
        f[2] = tuple(f[2]) + (rng.choice(g.nodes),)
    elif kind == 2:
        members = rng.sample(g.nodes, min(len(g.nodes), rng.choice((2, 2, 3))))
        fibers.append([rng.randint(1, g.rank), rng.choice(members), tuple(members)])
    elif kind == 3 and fibers:
        fibers.pop(rng.randrange(len(fibers)))
    else:
        node = rng.choice(g.nodes)
        lengths[node] += rng.choice((-2, -1, 1, 2))
    return OrbitGraph(g.rootsystem, g.rank, lengths, [tuple(f) for f in fibers])


def oracle_graphs():
    graphs = [from_weyl(build_root_datum(name)) for name in ("A1", "A1xA1", "A2", "B2", "G2", "A3", "B3")]
    for name in ("A3", "B3", "D4"):
        datum = build_root_datum(name)
        graphs += [from_parabolic(datum, levi) for levi in ((1,), (2,), (1, 3))]
    graphs += [to_orbit_poset(group_case(build_root_datum(name))) for name in ("A2", "B2", "A3")]
    graphs += [
        to_orbit_poset(twisted_shadow(build_root_datum(name, twist=twist)))
        for name, twist in (("A3", (3, 2, 1)), ("A4", (4, 3, 2, 1)), ("D4", (1, 2, 4, 3)))
    ]
    graphs += [to_orbit_poset(g) for g in builtin_fixtures().values()]
    graphs += [parse_orbit_graph(format_orbit_graph(g)) for g in graphs[:8]]
    a2 = from_weyl(build_root_datum("A2"))
    graphs += [
        OrbitGraph(a2.rootsystem, a2.rank, a2.length, a2.stored_fibers() + [(1, "2", ("2", "e"))]),  # incoherent along 1
        parse_orbit_graph(  # a lowering cycle
            "orbitgraph v1\nrootsystem A2\nnodes 3\nnode x 0\nnode v 2\nnode w 3\nfiber 1 v w\nfiber 2 w v\n"
        ),
    ]
    return graphs


def fresh_copy(g):
    """g with the same table and nothing computed on it yet."""
    return OrbitGraph.__new__(OrbitGraph)._fill(g.rootsystem, g.nodes, list(g._len), g._table, g._graded)


def first_step_decomposition(g, k):
    """The decomposition of position k along first lowering steps down to a
    position with none: reduced_decomposition's, on a valid graph."""
    ks, roots = [k], []
    while (step := reference_first_step(g, ks[-1])) is not None:
        assert len(ks) <= len(g.nodes), "a lowering cycle"
        roots.append(step[0])
        ks.append(step[1])
    return ReducedDecomposition(tuple(g.nodes[k] for k in reversed(ks)), tuple(reversed(roots)))


def other_decompositions(g, v, rd):
    """Decompositions other than reduced_decomposition's, valid or not: the
    roots reversed, the nodes shifted, a suffix from mid-chain, rd followed
    by a dense move up from v, and every reduced decomposition on small graphs."""
    m = len(rd.roots) // 2
    rds = [rd._replace(roots=rd.roots[::-1]), rd._replace(nodes=rd.nodes[1:])]
    rds.append(ReducedDecomposition(rd.nodes[m:], rd.roots[m:]))
    k = g.index[v]
    for alpha, row in enumerate(g._table, 1):
        if row[k] is not None and row[k][0] != k:
            rds.append(ReducedDecomposition(rd.nodes + (g.nodes[row[k][0]],), rd.roots + (alpha,)))
            break
    every = outcome(all_reduced_decompositions, g, v) if len(g.nodes) <= 24 else []
    return rds + (every if isinstance(every, list) else [])


def assert_walks_match(g):
    """The first steps, ideals and decompositions match the references; so
    do the subexpression endpoints on a fresh copy of g per visiting order
    (node order, reversed, seeded shuffle), asked for other decompositions before
    reduced_decomposition's, and every endpoint bitset kept on the copy."""
    n = len(g.nodes)
    assert g._first == [reference_first_step(g, k) for k in range(n)], g.rootsystem
    ideals, cases = [None] * n, {}
    for v in g.nodes:
        assert outcome(lower_ideal, g, v) == outcome(reference_ideal, g, g.index[v], ideals), (g.rootsystem, v)
        rd = outcome(reduced_decomposition, g, v)
        assert rd == outcome(reference_decomposition, g, v), (g.rootsystem, v)
        if isinstance(rd, ReducedDecomposition):
            rds = other_decompositions(g, v, rd) + [rd]
            cases[v] = [(rd, outcome(reference_endpoints, g, rd)) for rd in rds]
    shuffled = list(g.nodes)
    random.Random(n).shuffle(shuffled)
    for order in (g.nodes, g.nodes[::-1], shuffled):
        h = fresh_copy(g)
        for v in order:
            for rd, want in cases.get(v, ()):
                assert outcome(subexpression_endpoints, h, rd) == want, (g.rootsystem, rd)
        assert len(h._walks) == n, g.rootsystem
        for k, bits in enumerate(h._walks):
            if bits is not None:
                ends = reference_endpoints(h, first_step_decomposition(h, k))
                assert bits == sum(1 << h.index[u] for u in ends), (g.rootsystem, h.nodes[k])


def test_walks_match_the_references():
    for g in oracle_graphs():
        assert_walks_match(g)


def test_walks_match_the_references_on_corrupted_graphs():
    rng = random.Random(20111)
    graphs = oracle_graphs()
    kinds, cyclic = set(), 0
    for _ in range(300):
        g = corrupted(rng.choice(graphs), rng)
        kinds.update(v.split(":")[0] for v in validate(g))
        assert_walks_match(g)
        cyclic += any("LoweringCycle" in str(outcome(lower_ideal, g, v)) for v in g.nodes)
    assert {"BadLengthGap", "FiberIncoherent", "NoDenseNode", "Unreachable"} <= kinds and cyclic >= 5


def test_decompositions_refuse_fibers_outside_the_table():
    # a fiber along 7 on A2 never reaches a graph; on the graph without it,
    # a decomposition along an index outside 1..2 is a Mismatch
    text = "orbitgraph v1\nrootsystem A2\nnodes 3\nnode 0 0\nnode 1 1\nnode 2 2\n"
    with pytest.raises(AxiomViolation) as info:
        parse_orbit_graph(text + "fiber 1 1 0\nfiber 2 2 1\nfiber 7 2 0\n")
    assert info.value.violations == ["BadSimpleIndex: alpha=7 fiber=0/2"]
    tabled = parse_orbit_graph(text + "fiber 1 1 0\nfiber 2 2 1\n")
    rd = ReducedDecomposition(("0", "1", "2"), (1, 2))
    assert reduced_decomposition(tabled, "2") == rd and all_reduced_decompositions(tabled, "2") == [rd]
    assert subexpression_endpoints(tabled, rd) == ("0", "1", "2")
    for roots, alpha in (((1, 7), "7"), ((7, 2), "7"), ((1, 2.0), "2.0")):
        with pytest.raises(Mismatch) as info:
            subexpression_endpoints(tabled, rd._replace(roots=roots))
        assert str(info.value) == f"simple index {alpha} out of range 1..2"


def reference_kernel(pairs, bits):
    """Bit by bit: bit y is set where bit u is, for some pair (y, u)."""
    return sum({1 << y for y, u in pairs if bits >> u & 1})


def test_kernels_match_the_per_bit_reference():
    """Seeded maps through both sides of the cost estimate: few offsets,
    a random permutation of 2 000 positions (string picks), a source
    wider than the output with the zero sentinel, and two-source unions
    whose pairs share offsets, with few or many offsets."""
    rng = random.Random(24)
    few = [y + d if 0 <= y + d < 300 else 300 for y, d in enumerate(rng.choices((-3, -1, 2, 5), k=300))]
    perm = rng.sample(range(2000), 2000)
    wide = [rng.choice((y, y + 300, y + 380, 500, 500)) for y in range(120)]
    cases = []
    for source, size, picked in ((few, None, False), (perm, None, True), (wide, 500, False)):
        n = len(source) if size is None else size
        cases.append(([(y, u) for y, u in enumerate(source) if u != n], n, picked, _gather(source, size)))
    near = [(y, y + d) for y in range(200) for d in (-7, 3) if 0 <= y + d < 200]
    far = [(y, u) for y in range(2000) for u in rng.sample(range(2000), 2) if u != y]
    for pairs, n, picked in ((near, 200, False), (far, 2000, True)):
        cases.append((pairs, n, picked, _kernel(pairs, n, n)))
    for pairs, n, picked, kernel in cases:
        assert bool(getclosurevars(kernel).nonlocals["picks"]) == picked, (len(pairs), n)
        for bits in [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(20)]:
            assert kernel(bits) == reference_kernel(pairs, bits), (len(pairs), n)
