"""Classes of orbit-graph nodes over a Levi set, and their closure order."""

import random
from itertools import combinations

import pytest

from flagorbits import (
    NotARoot,
    AxiomViolation,
    KgbGraph,
    Mismatch,
    build_root_datum,
    builtin_fixtures,
    class_hasse,
    class_of,
    coset_bruhat_leq,
    coset_of,
    distinct_ascents_check,
    enumerate_cosets,
    enumerate_elements,
    find_descent_counterexample,
    format_word,
    from_parabolic,
    from_weyl,
    group_case,
    i_equivalence_classes,
    inv,
    kgp_leq,
    kgp_leq_induced,
    levi_conjugate_root_check,
    levi_subgroup_elements,
    monoid,
    monoid_descent_check,
    monoid_word,
    p_maximal_set,
    pgl2_split,
    poset_leq,
    property_z_check,
    reduced_word,
    reflection_word,
    simple_root,
    sl2_split,
    to_orbit_poset,
    twisted_shadow,
)
from flagorbits import weyl
from flagorbits.orbit_poset import _gather, _levi_classes, lower_ideal, validate
from flagorbits.root_datum import normalize_levi
from flagorbits.weyl import _apply


def all_levis(rank):
    for k in range(rank + 1):
        yield from combinations(range(1, rank + 1), k)


def test_rank_one_split_classes():
    g = sl2_split()
    assert p_maximal_set(g, ()) == ("0", "1", "2")
    assert p_maximal_set(g, (1,)) == ("2",)
    classes = i_equivalence_classes(g, (1,))
    assert len(classes) == 1
    assert classes[0].members == ("0", "1", "2")
    assert classes[0].top == "2"
    assert len(i_equivalence_classes(pgl2_split(), (1,))) == 1


def test_diagonal_a2_classes():
    g = builtin_fixtures()["group_case_a2"]
    classes = i_equivalence_classes(g, (1,))
    assert [c.top for c in classes] == ["1", "3", "5"]
    assert all(len(c.members) == 2 for c in classes)
    assert p_maximal_set(g, (1,)) == ("1", "3", "5")


def test_class_count_matches_fixed_points():
    for name, g in builtin_fixtures().items():
        for levi in all_levis(g.datum.rank):
            classes = i_equivalence_classes(g, levi)
            tops = p_maximal_set(g, levi)
            assert tuple(c.top for c in classes) == tops, (name, levi)
            assert sum(len(c.members) for c in classes) == len(g.nodes)


def test_top_order_equals_induced_order():
    for name, g in builtin_fixtures().items():
        for levi in all_levis(g.datum.rank):
            classes = i_equivalence_classes(g, levi)
            for c1 in classes:
                for c2 in classes:
                    assert kgp_leq(g, levi, c1, c2) == kgp_leq_induced(
                        g, levi, c1, c2
                    ), (name, levi)


def test_projection_is_monotone():
    for name in ("sl2_split", "group_case_a2"):
        g = builtin_fixtures()[name]
        poset = to_orbit_poset(g)
        for levi in all_levis(g.datum.rank):
            for u in g.nodes:
                for v in g.nodes:
                    if poset_leq(poset, u, v):
                        cu = class_of(g, levi, u)
                        cv = class_of(g, levi, v)
                        assert kgp_leq(g, levi, cu, cv), (name, levi, u, v)


def test_classes_are_kept_per_normalized_levi_set():
    g = builtin_fixtures()["group_case_b2"]
    classes = i_equivalence_classes(g, (1, 3))
    assert i_equivalence_classes(g, [3, 1, 3]) is classes
    assert i_equivalence_classes(g, (1,)) is not classes
    for cls in classes:
        for v in cls.members:
            assert class_of(g, (3, 1), v) is cls


def test_levi_sets_of_bools_and_floats_are_refused_cold_and_warm():
    # True == 1.0 == 1, so a memo keyed by Levi tuples would answer them
    # once (1,) is kept; each query refuses them before and after
    g = group_case(build_root_datum("A2"))
    # cold, a class of another graph: the Levi set is refused before the class is looked up
    cls = i_equivalence_classes(group_case(build_root_datum("A2")), (1,))[0]
    queries = (
        lambda levi: i_equivalence_classes(g, levi),
        lambda levi: p_maximal_set(g, levi),
        lambda levi: class_of(g, levi, g.nodes[0]),
        lambda levi: kgp_leq(g, levi, cls, cls),
        lambda levi: class_hasse(g, levi),
    )
    for warm in (False, True):
        if warm:
            cls = i_equivalence_classes(g, (1,))[0]
            assert len(i_equivalence_classes(g, (1,))) == 3
            assert kgp_leq(g, (1,), cls, cls)
        for query in queries:
            for levi in ((True,), (1.0,)):
                with pytest.raises(NotARoot, match=f"Levi index {levi[0]!r} out of range"):
                    query(levi)


def test_foreign_class_is_rejected():
    g = builtin_fixtures()["group_case_a2"]
    cls = i_equivalence_classes(g, (1,))[0]
    with pytest.raises(Mismatch):
        kgp_leq(g, (2,), cls, cls)
    with pytest.raises(Mismatch):
        kgp_leq(sl2_split(), (1,), cls, cls)


def test_monoid_descent_check_is_empty_everywhere():
    for name, g in builtin_fixtures().items():
        for levi in all_levis(g.datum.rank):
            assert monoid_descent_check(g, levi) == [], (name, levi)


def test_descent_counterexample_witnesses():
    fx = builtin_fixtures()
    # a non-dense class member can step outside its image class
    assert find_descent_counterexample(fx["group_case_a2"], (1,)) == ("1", "0", 2)
    assert find_descent_counterexample(fx["group_case_b2"], (1,)) == ("1", "0", 2)
    assert find_descent_counterexample(sl2_split(), (1,)) is None
    for levi in all_levis(2):
        assert find_descent_counterexample(fx["group_case_a1"], levi) is None


def test_distinct_ascents_split_rank_one_clean():
    for g in (sl2_split(), pgl2_split()):
        for levi in all_levis(1):
            assert distinct_ascents_check(g, levi) == []


def test_distinct_ascents_fails_on_diagonal_cases():
    fx = builtin_fixtures()
    # both simple roots of the doubled datum move the identity node to the
    # same class, so the two ascents coincide
    assert distinct_ascents_check(fx["group_case_a1"], ()) == [
        "DistinctAscents: v=0 alpha=1 beta=2"
    ]
    for levi in ((1,), (2,), (1, 2)):
        assert distinct_ascents_check(fx["group_case_a1"], levi) == []
    for name in ("group_case_a2", "group_case_b2"):
        g = fx[name]
        bad = [
            levi
            for levi in all_levis(g.datum.rank)
            if distinct_ascents_check(g, levi)
        ]
        assert len(bad) == 9, name
        assert distinct_ascents_check(g, ())[:2] == [
            "DistinctAscents: v=0 alpha=1 beta=3",
            "DistinctAscents: v=0 alpha=2 beta=4",
        ], name


def test_class_hasse_diagonal_a2():
    g = builtin_fixtures()["group_case_a2"]
    assert class_hasse(g, (1,)) == (("1", "3"), ("3", "5"))


def test_diagonal_class_poset_matches_coset_poset():
    for name in ("A1", "A2", "B2"):
        datum = build_root_datum(name)
        g = group_case(datum)
        elements = enumerate_elements(datum)
        by_id = {str(i): w for i, w in enumerate(elements)}
        r = datum.rank
        for levi in all_levis(r):
            if not levi:
                continue
            # left-block Levi sets close under left multiplication, matching
            # left cosets directly; right-block ones match after inverting
            for block, to_coset in (
                (levi, lambda w: coset_of(w, levi)),
                (tuple(a + r for a in levi), lambda w: coset_of(inv(w), levi)),
            ):
                classes = i_equivalence_classes(g, block)
                cosets = enumerate_cosets(datum, levi)
                image = {c.top: to_coset(by_id[c.top]) for c in classes}
                key = lambda c: reduced_word(c.min_rep)
                assert sorted(image.values(), key=key) == sorted(cosets, key=key)
                for c1 in classes:
                    for c2 in classes:
                        assert kgp_leq(g, block, c1, c2) == coset_bruhat_leq(
                            image[c1.top], image[c2.top]
                        ), (name, block)


def test_levi_conjugates_stay_in_nilradical():
    for name in ("A1", "A2", "B2", "G2", "A3", "B3"):
        datum = build_root_datum(name)
        for levi in all_levis(datum.rank):
            assert levi_conjugate_root_check(datum, levi) == [], (name, levi)


def test_levi_checks_on_every_root_read_no_levi_subgroup(monkeypatch):
    # with no simple root outside the Levi set there is no Levi conjugate to
    # read: W(B4) x W(B4) has 147 456 elements, above the table cap, and
    # G2 x G2's own table is not built
    g = group_case(build_root_datum("B4"))
    assert monoid_descent_check(g, range(1, 9)) == []
    assert levi_conjugate_root_check(g.datum, range(1, 9)) == []
    g = group_case(build_root_datum("G2"))
    dd = g.datum
    monkeypatch.setattr(weyl, "_tables", {k: t for k, t in weyl._tables.items() if k != dd.cartan})
    assert monoid_descent_check(g, range(1, 5)) == []
    assert levi_conjugate_root_check(dd, range(1, 5)) == []
    assert dd.cartan not in weyl._tables


def reference_monoid_descent_check(g, levi):
    """monoid_descent_check spelling every Levi conjugate again at every
    dense member: the oracle for the version that spells each once."""
    levi = normalize_levi(g.datum, levi)
    datum = g.datum
    index = {v: c for c in i_equivalence_classes(g, levi) for v in c.members}
    outside = [a for a in range(1, datum.rank + 1) if a not in levi]
    members = levi_subgroup_elements(datum, levi)
    out = []
    for v in p_maximal_set(g, levi):
        for alpha in outside:
            base = index[monoid(g, alpha, v)]
            alpha_root = simple_root(datum, alpha)
            for w in members:
                word = reflection_word(datum, _apply(w, alpha_root))
                if index[monoid_word(g, word, v)] != base:
                    out.append(f"MonoidDescent: v={v} alpha={alpha} w={format_word(reduced_word(w))}")
    return sorted(out)


def reference_distinct_ascents_check(g, levi):
    """distinct_ascents_check making each monoid move twice, as it did."""
    index = {v: c for c in i_equivalence_classes(g, levi) for v in c.members}
    outside = [a for a in range(1, g.datum.rank + 1) if a not in normalize_levi(g.datum, levi)]
    out = []
    for v in p_maximal_set(g, levi):
        moved = [(a, monoid(g, a, v)) for a in outside if monoid(g, a, v) != v]
        for i, (a, ta) in enumerate(moved):
            for b, tb in moved[i + 1 :]:
                if index[ta] == index[tb]:
                    out.append(f"DistinctAscents: v={v} alpha={a} beta={b}")
    return sorted(out)


def _outcome(check, g, levi):
    try:
        return check(g, levi)
    except AxiomViolation as err:
        return err.violations


def retargeted_shadows():
    """The A3 shadow with a few cross entries retargeted, 30 times: most
    still lower, and some break the descent check or tie a class top."""
    rng = random.Random(14)
    base = twisted_shadow(build_root_datum("A3"))._fields()
    keys = sorted(base["cross"])
    graphs = []
    for _ in range(30):
        cross = {**base["cross"], **{rng.choice(keys): rng.choice(base["nodes"]) for _ in range(rng.randint(1, 3))}}
        graphs.append(KgbGraph(**{**base, "cross": cross}))
    return graphs


def test_kgp_checks_match_the_per_node_references():
    graphs = [group_case(build_root_datum(name)) for name in ("A3", "B3")]
    cases = [(g, tuple(a + copy for a in levi)) for g in graphs for copy in (0, 3) for levi in all_levis(3)]
    for name, twist in (("A4", (4, 3, 2, 1)), ("D4", (1, 2, 4, 3))):
        g = twisted_shadow(build_root_datum(name, twist=twist))
        cases += [(g, levi) for levi in all_levis(4)]
    cases.append((builtin_fixtures()["group_case_a1"], ()))
    cases += [(g, levi) for g in retargeted_shadows() for levi in all_levis(3)]
    found = set()
    for g, levi in cases:
        for check, reference in (
            (monoid_descent_check, reference_monoid_descent_check),
            (distinct_ascents_check, reference_distinct_ascents_check),
        ):
            want = _outcome(reference, g, levi)
            assert _outcome(check, g, levi) == want, (check.__name__, levi)
            found.update(v.split(":")[0] for v in want)
    assert {"MonoidDescent", "DistinctAscents", "NonUniqueTop"} <= found


def test_p_maximal_set_refuses_a_tied_top():
    refused = []
    for g in retargeted_shadows():
        for levi in all_levis(3):
            want = _outcome(i_equivalence_classes, g, levi)
            got = _outcome(p_maximal_set, g, levi)
            if isinstance(want, list):
                assert got == want, levi
                refused += want
            else:
                assert got == tuple(c.top for c in want), levi
    assert len(refused) == 7
    assert "NonUniqueTop: levi=(2,) members=1,3" in refused


def cut_classes(poset, levi):
    """The paper's restriction theorem as one check: over a normalized Levi
    set, the lower ideal of each class top is a union of whole classes.
    Each node's bit is gathered from its class top's and XORed with the
    ideal; the result lists (top, nodes where the two differ) per top whose
    ideal cuts a class."""
    classes = _levi_classes(poset, levi)[0]
    top_of = [0] * len(poset.nodes)
    for c in classes:
        for v in c.members:
            top_of[poset.index[v]] = poset.index[c.top]
    to_top = _gather(top_of)
    out = []
    for c in classes:
        ideal = lower_ideal(poset, c.top)
        cut = to_top(ideal) ^ ideal
        if cut:
            out.append((c.top, tuple(v for k, v in enumerate(poset.nodes) if cut >> k & 1)))
    return out


def test_class_tops_restrict_the_order():
    """Where no top's ideal cuts a class, the order of the tops is the
    induced order; on a graph that validate and property Z pass, the two
    agree exactly."""
    graphs = list(builtin_fixtures().values())
    graphs += [group_case(build_root_datum(name)) for name in ("A3", "B3")]
    graphs += retargeted_shadows()
    seen = set()
    for g in graphs:
        poset = to_orbit_poset(g)
        clean = validate(poset) == [] and property_z_check(poset) == []
        for levi in all_levis(g.datum.rank):
            try:
                cut = cut_classes(poset, normalize_levi(g.datum, levi))
            except AxiomViolation:
                continue
            classes = i_equivalence_classes(g, levi)
            try:
                agree = all(
                    kgp_leq(g, levi, c1, c2) == kgp_leq_induced(g, levi, c1, c2) for c1 in classes for c2 in classes
                )
            except AxiomViolation:
                agree = None
            if not cut or clean:
                assert agree is (not cut), (g.datum.name, levi, cut)
            seen.add((bool(cut), agree, clean))
    assert {(False, True, True), (True, False, False)} <= seen


def test_weyl_graph_classes_are_the_cosets():
    """On from_weyl the fibers are right multiplications, so the classes
    over a Levi set are the cosets x W_L, one per node of the quotient, and
    no top's ideal cuts one."""
    for name in ("A1", "A2", "B2", "G2", "A3", "B3", "C3", "A4", "B4", "D4", "F4"):
        d = build_root_datum(name)
        g = from_weyl(d)
        for levi in all_levis(d.rank):
            assert cut_classes(g, levi) == [], (name, levi)
            assert len(_levi_classes(g, levi)[0]) == len(from_parabolic(d, levi).nodes), (name, levi)
