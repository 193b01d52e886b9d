"""Orbit graphs: closure order, decompositions, subexpressions, validation."""

import itertools

import pytest

from flagorbits import (
    AxiomViolation,
    FlagOrbitsError,
    Mismatch,
    OrbitGraph,
    ParseError,
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
    parse_kgb,
    pgl2_split,
    poset_leq,
    property_z_check,
    reduced_decomposition,
    reduced_word,
    save_orbit_graph,
    subexpression_endpoints,
    to_orbit_poset,
    validate,
)
from flagorbits.orbit_poset import parse_orbit_graph


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


def test_validate_error_codes():
    # one crafted graph per failure mode
    good = {"a": 0, "b": 1}
    cases = [
        ("BadLength", {"a": -1}, []),
        ("BadSimpleIndex", good, [(7, "b", ("a", "b"))]),
        ("UnknownNode", good, [(1, "b", ("zz", "b"))]),
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
    for code, lengths, fibers in cases:
        g = OrbitGraph("crafted", 2, lengths, fibers)
        assert any(v.startswith(code) for v in validate(g)), code


def test_fiber_incoherent_names_the_node_claimed_twice():
    # a lies in a/b and in a/c along 1; the later fiber is the one stored at a
    g = OrbitGraph("crafted", 2, {"a": 0, "b": 1, "c": 1}, [(1, "b", ("a", "b")), (1, "c", ("a", "c"))])
    assert validate(g) == ["FiberIncoherent: alpha=1 fiber=a/b node=a"]


def _fibers_outside_the_table():
    """A graph for each kind of fiber kept out of the fiber table, with its
    violations and its fiber line; b is unreachable in both."""
    good = {"a": 0, "b": 1}
    unreachable = "Unreachable: node=b has no downward fiber"
    return [
        (OrbitGraph("crafted", 2, good, [(7, "b", ("a", "b"))]),
         ["BadSimpleIndex: alpha=7 fiber=a/b", unreachable], "fiber 7 b a"),
        (OrbitGraph("crafted", 2, good, [(1, "b", ("zz", "b"))]),
         ["UnknownNode: alpha=1 fiber=b/zz nodes=zz", unreachable], "fiber 1 b zz"),
    ]


def test_fibers_outside_the_table_are_reported_alike():
    for g, violations, line in _fibers_outside_the_table():
        assert validate(g) == violations
        assert format_orbit_graph(g).splitlines()[-1] == line
        assert g.fiber(1, "b") == ("b",) and g.dense_node(1, "b") == "b"


def test_order_is_refused_on_fibers_outside_the_table():
    for g, violations, _ in _fibers_outside_the_table():
        with pytest.raises(FlagOrbitsError, match=violations[0].split(":")[0]):
            poset_leq(g, "a", "b")
        with pytest.raises(FlagOrbitsError, match=violations[0].split(":")[0]):
            hasse(g)


def test_validate_flags_wrong_dense():
    g = mutate_dense_flip(from_weyl(build_root_datum("A2")))
    assert any(v.startswith("NoDenseNode") for v in validate(g))


def test_property_z_clean_and_mutation_sensitive():
    g = from_weyl(build_root_datum("A2"))
    assert property_z_check(g) == []
    broken = mutate_dense_flip(g)
    assert len(property_z_check(broken)) >= 1


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


def test_parse_errors():
    good = format_orbit_graph(from_weyl(build_root_datum("A1")))
    header = "expected header 'orbitgraph v1'"
    for bad, message in (
        ("", header),
        ("orbitgraph v2\nrootsystem A1\nnodes 0\n", header),
        ("orbitgraph v1\nrootsystem A1\n", "expected a rootsystem line"),
        (good.replace("rootsystem A1", "root system A1"), "expected a rootsystem line"),
        (good.replace("nodes 2", "nodes two"), "expected a node count line"),
        (good + "mystery line\n", "bad fiber line: 'mystery line'"),
        (good.replace("nodes 2", "nodes 3"), "bad node line: 'fiber 1 1 e'"),
        (good.replace("fiber 1 1 e", "fiber 1 1"), "bad fiber line: 'fiber 1 1'"),
        (good.replace("fiber 1 1 e", "fiber one 1 e"), "bad simple index in 'fiber one 1 e'"),
        (good.replace("fiber 1 1 e", "fiber 0 1 e"), "bad simple index in 'fiber 0 1 e'"),
        (good.replace("fiber 1 1 e", "fiber 1 1 x"), "fiber mentions unknown node 'x'"),
    ):
        with pytest.raises(ParseError) as info:
            parse_orbit_graph(bad)
        assert str(info.value) == message, bad


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
