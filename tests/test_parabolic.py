"""Parabolic quotients: representatives, P-reduced words, order, exchange."""

import functools
import itertools
import random
import weakref
from collections import Counter

import pytest

from flagorbits import (
    AxiomViolation,
    NotARoot,
    NotDownward,
    NotPositiveRoot,
    NotPReduced,
    OrbitGraph,
    ParabolicCoset,
    ParabolicMismatch,
    RootPosition,
    StepType,
    TableTooLarge,
    build_root_datum,
    bruhat_leq,
    class_hasse,
    classify_step,
    classify_wrt_parabolic,
    coset_bruhat_leq,
    coset_bruhat_leq_induced,
    coset_elements,
    coset_of,
    enumerate_cosets,
    enumerate_elements,
    format_word,
    from_parabolic,
    from_weyl,
    from_word,
    group_case,
    hasse,
    identity,
    inv,
    is_p_maximal,
    is_p_minimal,
    is_p_reduced,
    length,
    levi_subgroup_elements,
    longest_levi_element,
    mul,
    p_length,
    poset_leq,
    property_z_check,
    quotient_exchange,
    quotient_property_z_check,
    reduced_word,
    simple_reflection,
    simple_root,
    step_coset,
    to_orbit_poset,
    twisted_shadow,
)
from flagorbits import parabolic, weyl
from flagorbits.orbit_poset import _coset_walk, _members, _pull_kernels, cover_pairs, lower_ideal
from flagorbits.root_datum import normalize_levi
from flagorbits.weyl import _layout, _part_datum, _table, parse_word
from test_weyl import INTERLEAVED, THREE_WAY, degrees, poincare, refuse_tables, seeded_words


def all_levis(rank):
    for k in range(rank + 1):
        yield from itertools.combinations(range(1, rank + 1), k)


def all_reduced_words(w):
    if length(w) == 0:
        return [()]
    out = []
    for i in range(1, w.datum.rank + 1):
        s = simple_reflection(w.datum, i)
        if length(mul(s, w)) < length(w):
            out.extend([(i,) + rest for rest in all_reduced_words(mul(s, w))])
    return out


def test_coset_counts():
    for name, levi, want in (("A2", (1,), 3), ("B2", (1,), 4), ("A2", (), 6)):
        d = build_root_datum(name)
        assert len(enumerate_cosets(d, levi)) == want
    for name in ("A2", "B2", "A3"):
        d = build_root_datum(name)
        total = len(enumerate_elements(d))
        for levi in all_levis(d.rank):
            cosets = enumerate_cosets(d, levi)
            assert len(cosets) * len(levi_subgroup_elements(d, levi)) == total
            mins = {c.min_rep for c in cosets}
            maxs = {c.max_rep for c in cosets}
            assert len(mins) == len(cosets) == len(maxs)


def test_coset_of_a2_examples():
    d = build_root_datum("A2")
    e = identity(d)
    s1 = simple_reflection(d, 1)
    s1s2 = from_word(d, (1, 2))
    s2 = simple_reflection(d, 2)
    c = coset_of(s1, (1,))
    assert c.min_rep == e and c.max_rep == s1
    c = coset_of(s1s2, (1,))
    assert c.min_rep == s2 and c.max_rep == s1s2
    assert coset_of(c.min_rep, (1,)) == c


def test_minimal_maximal_membership():
    d = build_root_datum("A2")
    e = identity(d)
    s1 = simple_reflection(d, 1)
    s2s1 = from_word(d, (2, 1))
    assert is_p_minimal(e, (1,))
    assert is_p_minimal(s2s1, (1,))
    assert not is_p_minimal(s1, (1,))
    # s1 is the longest element of its coset {e, s1}
    assert is_p_maximal(s1, (1,))
    assert not is_p_maximal(e, (1,))


def test_representative_bijection():
    # cosets, p-minimal elements and p-maximal elements biject; the longest
    # Levi element carries min to max
    for name in ("A2", "B2"):
        d = build_root_datum(name)
        for levi in all_levis(d.rank):
            w_l = longest_levi_element(d, levi)
            cosets = enumerate_cosets(d, levi)
            mins = [w for w in enumerate_elements(d) if is_p_minimal(w, levi)]
            maxs = [w for w in enumerate_elements(d) if is_p_maximal(w, levi)]
            assert len(cosets) == len(mins) == len(maxs)
            for c in cosets:
                assert c.max_rep == mul(w_l, c.min_rep)
                assert length(c.max_rep) == length(c.min_rep) + length(w_l)
                assert set(coset_elements(c)) == {
                    mul(x, c.min_rep) for x in levi_subgroup_elements(d, levi)
                }


def levi_subgroup_by_search(d, levi):
    """Oracle: breadth-first search under the Levi reflections, then sorted."""
    seen = {identity(d)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for w in frontier:
            for i in levi:
                y = mul(w, simple_reflection(d, i))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return tuple(sorted(seen, key=lambda w: (length(w), reduced_word(w))))


def test_levi_subgroups_match_the_search():
    for name in ("A3", "B3", "G2", "A2xA2"):
        d = build_root_datum(name)
        for levi in all_levis(d.rank):
            want = levi_subgroup_by_search(d, levi)
            assert levi_subgroup_elements(d, levi) == want, (name, levi)
            assert longest_levi_element(d, levi) == want[-1], (name, levi)
    # the Levi set is normalized first
    d = build_root_datum("B3")
    assert levi_subgroup_elements(d, (3, 1, 3)) == levi_subgroup_by_search(d, (1, 3))


def test_per_element_coset_functions_build_no_table():
    # The Levi subgroup D7 of E8 has 322 560 elements, above the table cap:
    # coset_of and step_coset still answer on root images and weights, while
    # the whole coset is a walk of W_L and is refused.
    d = build_root_datum("E8")
    levi = (2, 3, 4, 5, 6, 7, 8)
    before = set(weyl._tables)
    w_l = longest_levi_element(d, levi)
    assert length(w_l) == 42 and all(i in levi for i in reduced_word(w_l))
    c = coset_of(from_word(d, (2, 4, 1, 3, 4, 5)), levi)
    assert is_p_minimal(c.min_rep, levi) and is_p_maximal(c.max_rep, levi)
    assert reduced_word(c.min_rep) == (1, 3, 4, 5) and c.max_rep == mul(w_l, c.min_rep)
    up = step_coset(c, 6)
    assert reduced_word(up.min_rep) == (1, 3, 4, 5, 6)
    assert set(weyl._tables) == before
    with pytest.raises(TableTooLarge):
        coset_elements(c)
    assert set(weyl._tables) == before


def test_quotients_read_no_table(monkeypatch):
    # from_parabolic, enumerate_cosets and quotient_property_z_check walk
    # weight orbits and root images: with every table out of reach they
    # give the answers of the table-backed run.
    want = {levi: enumerate_cosets(build_root_datum("B3"), levi) for levi in all_levis(3)}
    refuse_tables(monkeypatch)
    d = build_root_datum("B3")  # a fresh datum has found no table yet
    for levi in all_levis(3):
        assert enumerate_cosets(d, levi) == want[levi], levi
        assert quotient_property_z_check(d, levi) == [], levi
    cosets = enumerate_cosets(build_root_datum("E7"), (1, 2, 3, 4, 5, 6))
    assert len(cosets) == 56 and cosets[0].min_rep == identity(cosets[0].datum)
    assert weyl._tables == {}


def test_coset_words_match_the_table_route():
    # The oracle is the route the cosets command took before it spelled on
    # weights: the walk's names parsed back, both representatives built on
    # root images from words (w0's reduced word before the coset's) and
    # spelled by lookups in the Weyl table.
    for spec in ("A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "D4", "G2", "F4", "A1xA2", INTERLEAVED, THREE_WAY):
        d = build_root_datum(spec)
        _table(d)
        for levi in all_levis(d.rank):
            longest = reduced_word(longest_levi_element(d, levi))
            words = [parse_word(d, name) for name in _coset_walk(d, levi)[0]]
            want = [(reduced_word(from_word(d, w)), reduced_word(from_word(d, longest + w))) for w in words]
            assert list(parabolic._coset_words(d, levi)) == want, (spec, levi)


def test_is_p_reduced_examples():
    d = build_root_datum("A2")
    assert is_p_reduced(d, (), (1,))
    assert is_p_reduced(d, (2, 1), (1,))
    assert not is_p_reduced(d, (1,), (1,))


def test_b_reduced_words_of_minimal_reps_are_p_reduced():
    for name in ("A2", "B2", "A3"):
        d = build_root_datum(name)
        for levi in all_levis(d.rank):
            for c in enumerate_cosets(d, levi):
                for word in all_reduced_words(c.min_rep):
                    assert is_p_reduced(d, word, levi)


def test_classify_step_examples():
    d = build_root_datum("A2")
    e = identity(d)
    s2 = simple_reflection(d, 2)
    assert classify_step(e, simple_root(d, 1), (1,)) is StepType.LEVI_TYPE
    assert classify_step(e, simple_root(d, 2), (1,)) is StepType.COMPLEX_UPWARD
    assert classify_step(s2, simple_root(d, 2), (1,)) is StepType.COMPLEX_DOWNWARD
    # non-simple positive roots are allowed
    assert classify_step(e, (1, 1), (1,)) is StepType.COMPLEX_UPWARD
    with pytest.raises(NotPositiveRoot):
        classify_step(e, (-1, 0), (1,))


def test_upward_step_raises_p_length():
    for name in ("A2", "B2"):
        d = build_root_datum(name)
        for levi in all_levis(d.rank):
            for c in enumerate_cosets(d, levi):
                for alpha in range(1, d.rank + 1):
                    kind = classify_step(c.min_rep, simple_root(d, alpha), levi)
                    nxt = step_coset(c, alpha)
                    if kind is StepType.COMPLEX_UPWARD:
                        assert p_length(nxt) == p_length(c) + 1
                    elif kind is StepType.COMPLEX_DOWNWARD:
                        assert p_length(nxt) == p_length(c) - 1
                    else:
                        assert nxt == c


QUOTIENT_CASES = (
    [("A4", levi) for levi in all_levis(4)]
    + [("B3", levi) for levi in all_levis(3)]
    + [("D4", levi) for levi in all_levis(4)]
    + [("G2", levi) for levi in all_levis(2)]
    + [("F4", (1,)), ("F4", (2, 3))]
)


@pytest.mark.parametrize("name,levi", QUOTIENT_CASES)
def test_quotient_matches_the_per_element_route(name, levi):
    # The per-element API (coset_of, classify_step, step_coset) is the oracle
    # for the cosets and orbit graph read off the Weyl table.
    d = build_root_datum(name)
    want = sorted(
        {coset_of(w, levi) for w in enumerate_elements(d)},
        key=lambda c: (p_length(c), reduced_word(c.min_rep)),
    )
    assert list(enumerate_cosets(d, levi)) == want
    ident = {c: format_word(reduced_word(c.min_rep)) for c in want}
    fibers = set()
    for c in want:
        for alpha in range(1, d.rank + 1):
            if classify_step(c.min_rep, simple_root(d, alpha), levi) is StepType.COMPLEX_UPWARD:
                up = ident[step_coset(c, alpha)]
                fibers.add((alpha, up, frozenset((ident[c], up))))
    g = from_parabolic(d, levi)
    assert g.length == {ident[c]: p_length(c) for c in want}
    assert {(alpha, dense, frozenset(group)) for alpha, dense, group in g.stored_fibers()} == fibers


def dynkin_type(cartan, part):
    """The Cartan type of a connected sub-diagram on the 1-based indices in
    part, read off its shape: B_n and C_n share their degrees, so B serves
    for either, and F4 is the one double bond between two inner nodes."""
    bonds = {cartan[i - 1][j - 1] * cartan[j - 1][i - 1]: (i, j) for i in part for j in part if i < j}
    near = {i: [j for j in part if j != i and cartan[i - 1][j - 1]] for i in part}
    if 3 in bonds:
        return "G2"
    if 2 in bonds:
        i, j = bonds[2]
        return "F4" if len(near[i]) == len(near[j]) == 2 else f"B{len(part)}"
    branch = [i for i in part if len(near[i]) == 3]
    if not branch:
        return f"A{len(part)}"
    arms = []
    for j in near[branch[0]]:
        seen = {branch[0], j}
        while any(x not in seen for x in near[j]):
            j = next(x for x in near[j] if x not in seen)
            seen.add(j)
        arms.append(len(seen) - 1)
    return f"D{len(part)}" if sorted(arms)[1] == 1 else f"E{len(part)}"


def levi_degrees(datum, levi):
    """The degrees of W_levi: those of each connected component's type."""
    sub = _part_datum(datum, [i - 1 for i in levi])
    return [d for part in _layout(sub).parts for d in degrees(dynkin_type(sub.cartan, [i + 1 for i in part]))]


def poincare_ratio(datum, name, levi):
    """The coefficients of prod [d_i]_q / prod [d_i^L]_q, by long division:
    the length distribution of W_L\\W (d_i the degrees of W, d_i^L of W_L)."""
    num, den = poincare(degrees(name)), poincare(levi_degrees(datum, levi))
    out = []
    for k in range(len(num) - len(den) + 1):
        out.append(num[k] - sum(den[j] * out[k - j] for j in range(1, min(k, len(den) - 1) + 1)))
    return out


def length_distribution(g):
    counts = Counter(g._len)
    return [counts[k] for k in range(max(g._len) + 1)]


def test_dynkin_types_of_levi_sets():
    e8, f4 = build_root_datum("E8"), build_root_datum("F4")
    assert dynkin_type(e8.cartan, range(1, 8)) == "E7"
    assert dynkin_type(e8.cartan, range(2, 9)) == "D7"
    assert dynkin_type(e8.cartan, (1, 3, 4, 5)) == "A4"
    assert dynkin_type(f4.cartan, (1, 2, 3, 4)) == "F4"
    assert dynkin_type(f4.cartan, (2, 3, 4)) == "B3"
    # components {1, 3}, {2}, {5, 6} and {8}, in order of their smallest index
    assert levi_degrees(e8, (1, 2, 3, 5, 6, 8)) == [2, 3, 2, 2, 3, 2]


POINCARE_TYPES = [f"A{n}" for n in range(1, 6)] + [f"B{n}" for n in range(2, 6)]
POINCARE_TYPES += ["C3", "C4", "D4", "D5", "G2", "F4"]
# Quotients of groups above the table cap, where the ratio is the only
# independent check: W_L is E6, D5, E7 and D7 (E8 {1,3,4,...,8}, with 17 280
# cosets, is left to CI).
LARGE_QUOTIENTS = [("E7", (1, 2, 3, 4, 5, 6)), ("E7", (1, 2, 3, 4, 5)), ("E8", (1, 2, 3, 4, 5, 6, 7))]
LARGE_QUOTIENTS += [("E8", (2, 3, 4, 5, 6, 7, 8))]


def test_quotient_length_distribution_is_the_poincare_ratio():
    cases = [(name, levi) for name in POINCARE_TYPES for levi in all_levis(int(name[1:]))] + LARGE_QUOTIENTS
    for name, levi in cases:
        d = build_root_datum(name)
        assert length_distribution(from_parabolic(d, levi)) == poincare_ratio(d, name, levi), (name, levi)


_UPPERS = weakref.WeakKeyDictionary()  # graph -> the upper ideal of each position, or None


def _first_raising(g, k):
    """The first root alpha along which position k is not dense, with its
    dense mate there: (alpha, position), or None."""
    for alpha, row in enumerate(g._table, 1):
        if row[k] is not None and row[k][0] != k:
            return alpha, row[k][0]
    return None


def upper_ideal(g, u):
    """The nodes v >= u in closure order, as a bitset over ``g.nodes``, on a
    valid graph: the dual of lower_ideal's recursion.  If u is not dense
    along alpha, with d its dense mate there, up(u) is u and every node
    longer than u in up(d) or in the alpha-fiber of a member of it; u dense
    along every root is maximal.  Lengths run from 0 without gaps, so the
    nodes longer than l are those not shorter than l + 1.  Kept per graph,
    like the lower ideals."""
    uppers = _UPPERS.get(g) or _UPPERS.setdefault(g, [None] * len(g.nodes))
    (pulls, shorter), chain, k = g._pulls or _pull_kernels(g), [], g.index[u]
    while uppers[k] is None and (step := _first_raising(g, k)) is not None:
        chain.append((k, *step))
        k = step[1]
    if uppers[k] is None:
        uppers[k] = 1 << k
    for x, alpha, d in reversed(chain):
        uppers[x] = (uppers[d] | pulls[alpha - 1](uppers[d])) & ~shorter.get(g._len[x] + 1, -1) | 1 << x
    return uppers[g.index[u]]


def interval(g, u, v):
    """The positions of [u, v] in closure order, shortest first: up(u) & low(v)."""
    return sorted(_members(upper_ideal(g, u) & lower_ideal(g, v)), key=g._len.__getitem__)


def eulerian_count(g):
    """The number of pairs u < v, each interval [u, v] checked to have as
    many members of even length as of odd (two popcounts): a graded poset
    is Eulerian, mu(u, v) = (-1)^(l(v) - l(u)) on every interval, exactly
    when this holds for every u < v (Stanley, Enumerative Combinatorics I,
    section 3.16)."""
    n = len(g.nodes)
    even = int("".join("1" if g._len[k] % 2 == 0 else "0" for k in reversed(range(n))), 2)
    odd, count, ups = ~even & ((1 << n) - 1), 0, [upper_ideal(g, u) for u in g.nodes]
    for v in range(n):
        low = lower_ideal(g, g.nodes[v])
        for u in _members(low & ~(1 << v)):
            bits = ups[u] & low
            assert (bits & even).bit_count() == (bits & odd).bit_count(), (g.rootsystem, g.nodes[u], g.nodes[v])
            count += 1
    return count


def mobius(g, u, v):
    """mu(u, v) by the recursion mu(u, u) = 1, mu(u, z) = -sum of mu(u, y)
    over u <= y < z, each y read off the lower ideal of z."""
    mu = {}
    for z in interval(g, u, v):
        below = lower_ideal(g, g.nodes[z])
        mu[z] = -sum(m for y, m in mu.items() if below >> y & 1) if mu else 1
    return mu[g.index[v]]


def sample_intervals(g, rng, count):
    """count seeded pairs u < v: v uniform among the nodes of positive length,
    u uniform in the ideal of v without v, so no interval is a single point."""
    tall = [x for x in g.nodes if g.length[x] > 0]
    out = []
    for _ in range(count):
        v = rng.choice(tall)
        below = lower_ideal(g, v) & ~(1 << g.index[v])
        u = rng.choice([x for k, x in enumerate(g.nodes) if below >> k & 1])
        out.append((u, v))
    return out


def test_upper_ideals_are_the_transposed_lower_ideals():
    cases = [from_weyl(build_root_datum(name)) for name in ("A3", "B3", "G2", "D4", "A4")]
    cases += [from_parabolic(build_root_datum("B3"), (1,)), to_orbit_poset(group_case(build_root_datum("B3")))]
    cases.append(to_orbit_poset(twisted_shadow(build_root_datum("A4", twist=(4, 3, 2, 1)))))
    for g in cases:
        lower = [lower_ideal(g, v) for v in g.nodes]
        for k, u in enumerate(g.nodes):
            assert upper_ideal(g, u) == sum(1 << j for j, below in enumerate(lower) if below >> k & 1), (g.rootsystem, u)


def test_bruhat_intervals_are_eulerian():
    # Verma: mu(u, v) = (-1)^(l(v) - l(u)) on every Bruhat interval of W
    assert [eulerian_count(from_weyl(build_root_datum(name))) for name in ("B4", "F4")] == [39865, 395657]


def test_quotient_mobius_function_is_deodhars():
    # Deodhar (Invent. Math. 39, 1977): on W^J, mu(u, v) = (-1)^(l(v) - l(u))
    # when the whole W-interval [u, v] lies in W^J, and 0 otherwise
    rng = random.Random(77)
    for name in ("B4", "F4"):
        d = build_root_datum(name)
        w = from_weyl(d)
        for levi in itertools.islice(all_levis(d.rank), 2**d.rank - 1):
            g = from_parabolic(d, levi)
            assert all(w.length[x] == g.length[x] for x in g.nodes), (name, levi)
            for u, v in sample_intervals(g, rng, 4):
                inside = all(w.nodes[k] in g.index for k in interval(w, u, v))
                want = (-1) ** (g.length[v] - g.length[u]) if inside else 0
                assert mobius(g, u, v) == want, (name, levi, u, v)


def test_coset_order_examples():
    d = build_root_datum("A2")
    ce = coset_of(identity(d), (1,))
    cs2 = coset_of(simple_reflection(d, 2), (1,))
    cs2s1 = coset_of(from_word(d, (2, 1)), (1,))
    assert coset_bruhat_leq(ce, cs2)
    assert not coset_bruhat_leq(cs2s1, cs2)
    assert coset_bruhat_leq(cs2, cs2)


def test_coset_order_three_routes_agree():
    for name in ("A2", "B2"):
        d = build_root_datum(name)
        for levi in all_levis(d.rank):
            cosets = enumerate_cosets(d, levi)
            for c1 in cosets:
                for c2 in cosets:
                    expected = coset_bruhat_leq(c1, c2)
                    assert coset_bruhat_leq_induced(c1, c2) == expected
                    assert bruhat_leq(c1.max_rep, c2.max_rep) == expected


def test_coset_order_rejects_mixed_quotients():
    d = build_root_datum("A2")
    with pytest.raises(ParabolicMismatch):
        coset_bruhat_leq(coset_of(identity(d), (1,)), coset_of(identity(d), (2,)))


def test_quotient_property_z_empty():
    assert quotient_property_z_check(build_root_datum("A1"), ()) == []
    for name in ("A2", "B2"):
        d = build_root_datum(name)
        for levi in all_levis(d.rank):
            assert quotient_property_z_check(d, levi) == []


def reference_quotient_property_z_check(datum, levi, g):
    """The all-pairs quotient_property_z_check, kept as the reference:
    poset_leq on the quotient graph g against coset_bruhat_leq for every
    pair of cosets."""
    violations = property_z_check(g)
    cosets = enumerate_cosets(datum, levi)
    words = [format_word(reduced_word(c.min_rep)) for c in cosets]
    for c1, u in zip(cosets, words):
        for c2, v in zip(cosets, words):
            if poset_leq(g, u, v) != coset_bruhat_leq(c1, c2):
                violations.append(f"re-derived order disagrees at u={u}, v={v}")
    return sorted(violations)


def _quotient_mutants(g):
    """g with the dense node of one fiber moved, or the fiber dropped, for
    four fibers spread over the stored ones."""
    fibers = g.stored_fibers()
    for i in range(0, len(fibers), max(1, len(fibers) // 4)):
        alpha, dense, group = fibers[i]
        moved = (alpha, next(x for x in group if x != dense), group)
        yield OrbitGraph(g.rootsystem, g.rank, g.length, fibers[:i] + [moved] + fibers[i + 1 :])
        yield OrbitGraph(g.rootsystem, g.rank, g.length, fibers[:i] + fibers[i + 1 :])


def test_quotient_property_z_matches_the_pairwise_reference(monkeypatch):
    def outcome(check, *args):
        try:
            return check(*args)
        except AxiomViolation as err:  # a moved dense node can close a lowering cycle
            return str(err)

    disagreeing = 0
    for name in ("A3", "B3", "C3"):
        d = build_root_datum(name)
        for levi in all_levis(d.rank):
            g = from_parabolic(d, levi)
            assert quotient_property_z_check(d, levi) == reference_quotient_property_z_check(d, levi, g) == []
            if name == "B3" and len(levi) == 1:
                for mutant in _quotient_mutants(g):
                    expected = outcome(reference_quotient_property_z_check, d, levi, mutant)
                    monkeypatch.setattr(parabolic, "from_parabolic", lambda datum, levi: mutant)
                    assert outcome(quotient_property_z_check, d, levi) == expected, (levi, mutant.stored_fibers())
                    monkeypatch.undo()
                    disagreeing += any(v.startswith("re-derived") for v in expected)
    assert disagreeing >= 6


def test_quotient_exchange_examples():
    d = build_root_datum("A2")
    assert quotient_exchange(d, (2,), 2, (1,)) == 1
    assert quotient_exchange(d, (2, 1), 1, (1,)) == 2
    with pytest.raises(NotPReduced):
        quotient_exchange(d, (1,), 1, (1,))
    with pytest.raises(NotDownward):
        quotient_exchange(d, (2,), 1, (1,))


def test_quotient_exchange_on_longest_b2_coset():
    d = build_root_datum("B2")
    levi = (2,)
    top = max(enumerate_cosets(d, levi), key=p_length)
    word = reduced_word(top.min_rep)
    downward = [
        alpha
        for alpha in range(1, d.rank + 1)
        if classify_step(top.min_rep, simple_root(d, alpha), levi)
        is StepType.COMPLEX_DOWNWARD
    ]
    assert len(downward) == 1
    j = quotient_exchange(d, word, downward[0], levi)
    shorter = word[: j - 1] + word[j:]
    assert is_p_reduced(d, shorter, levi)
    lowered = mul(top.min_rep, simple_reflection(d, downward[0]))
    assert coset_of(from_word(d, shorter), levi) == coset_of(lowered, levi)


def test_letters_out_of_range_raise_not_a_root():
    # as is_reduced and exchange do: every letter is checked before the climb,
    # and the Levi set before the letters
    d = build_root_datum("A2")
    w = simple_reflection(d, 1)
    letter, index = "simple index {} out of range 1..2", "Levi index {} out of range 1..2"
    for call, message in (
        (lambda: is_p_reduced(d, (3,), (1,)), letter.format(3)),
        (lambda: is_p_reduced(d, (0,), (1,)), letter.format(0)),
        (lambda: is_p_reduced(d, (1, 1, 3), (1,)), letter.format(3)),
        (lambda: is_p_reduced(d, (3,), (4,)), index.format(4)),
        (lambda: quotient_exchange(d, (2, 3), 2, (1,)), letter.format(3)),
        (lambda: quotient_exchange(d, (2,), 3, (1,)), letter.format(3)),
        (lambda: quotient_exchange(d, (2,), 0, ()), letter.format(0)),
        (lambda: quotient_exchange(d, (2,), 1, (0,)), index.format(0)),
        (lambda: is_p_minimal(w, (3,)), index.format(3)),
        (lambda: is_p_maximal(w, (1, 0)), index.format(0)),
        (lambda: coset_of(w, (2, 5)), index.format(5)),
        (lambda: longest_levi_element(d, (-1,)), index.format(-1)),
    ):
        with pytest.raises(NotARoot) as err:
            call()
        assert str(err.value) == message


# --- the routines that the W kernels and weight climbs replaced, as oracles ---


def is_p_reduced_by_prefixes(d, word, levi):
    """Oracle: every prefix sends the next simple root into the nilradical."""
    levi = normalize_levi(d, levi)
    w = identity(d)
    for i in word:
        if classify_wrt_parabolic(d, w.images[i - 1], levi) is not RootPosition.NILRADICAL:
            return False
        w = mul(w, simple_reflection(d, i))
    return True


def quotient_exchange_by_search(d, word, alpha, levi):
    """Oracle: the first letter whose removal spells the lowered element by a
    P-reduced word."""
    levi = normalize_levi(d, levi)
    if not is_p_reduced_by_prefixes(d, word, levi):
        raise NotPReduced(f"{word} is not reduced relative to the quotient")
    w = from_word(d, word)
    if classify_step(w, simple_root(d, alpha), levi) is not StepType.COMPLEX_DOWNWARD:
        raise NotDownward(f"simple root {alpha} does not lower the coset of {word}")
    target = mul(w, simple_reflection(d, alpha))
    for j in range(len(word)):
        shorter = word[:j] + word[j + 1 :]
        if from_word(d, shorter) == target and is_p_reduced_by_prefixes(d, shorter, levi):
            return j + 1
    raise AssertionError("no exchange position")


def right_extreme(w, levi, shorten):
    """Oracle: multiply w on the right by letters of levi while one shortens
    it (or, with shorten false, lengthens it), w * s_i being shorter exactly
    when w sends alpha_i to a negative root: the minimal (or maximal)
    element of w * W_levi."""
    while True:
        i = next((i for i in levi if any(c < 0 for c in w.images[i - 1]) == shorten), None)
        if i is None:
            return w
        w = weyl._times_s(w, i)


def coset_of_by_inverses(w, levi):
    """Oracle: the representatives of W_levi * w are the inverses of those
    of w^-1 * W_levi."""
    levi = normalize_levi(w.datum, levi)
    winv = inv(w)
    return ParabolicCoset(levi, inv(right_extreme(winv, levi, True)), inv(right_extreme(winv, levi, False)))


def is_p_extreme_by_inverse(w, levi, sign):
    """Oracle for is_p_minimal (sign 1) and is_p_maximal (sign -1): w^-1
    sends every simple root of levi to a positive (negative) root, so no
    letter of levi shortens (lengthens) w on the left."""
    winv = inv(w)
    return all(all(sign * c >= 0 for c in winv.images[i - 1]) for i in normalize_levi(w.datum, levi))


def coset_of_by_left_descents(w, levi):
    """Oracle: strip left Levi descents by multiplying and comparing lengths."""
    levi = normalize_levi(w.datum, levi)
    x = w
    changed = True
    while changed:
        changed = False
        for i in levi:
            y = mul(simple_reflection(w.datum, i), x)
            if length(y) < length(x):
                x, changed = y, True
                break
    return ParabolicCoset(levi, x, mul(longest_levi_element(w.datum, levi), x))


def outcome(f, *args):
    try:
        return f(*args)
    except (NotPReduced, NotDownward) as exc:
        return type(exc), str(exc)


def check_quotient_routines(d, levi, words, alphas):
    """Each per-element quotient routine against its oracles, on the words
    and their elements, and quotient_exchange at the letters alphas(word)."""
    assert longest_levi_element(d, levi) == right_extreme(identity(d), levi, False)
    for word in words:
        w = from_word(d, word)
        assert is_p_reduced(d, word, levi) == is_p_reduced_by_prefixes(d, word, levi), (word, levi)
        assert is_p_minimal(w, levi) == is_p_extreme_by_inverse(w, levi, 1), (word, levi)
        assert is_p_maximal(w, levi) == is_p_extreme_by_inverse(w, levi, -1), (word, levi)
        assert coset_of(w, levi) == coset_of_by_left_descents(w, levi) == coset_of_by_inverses(w, levi), (word, levi)
        for alpha in alphas(word):
            assert outcome(quotient_exchange, d, word, alpha, levi) == outcome(
                quotient_exchange_by_search, d, word, alpha, levi
            ), (word, alpha, levi)


@pytest.mark.parametrize("name", ["A3", "B3", "G2", "A1xA2"])
def test_quotient_routines_match_the_per_prefix_oracles(name):
    d = build_root_datum(name)
    letters = range(1, d.rank + 1)
    words = [word for k in range(6) for word in itertools.product(letters, repeat=k)]
    for levi in all_levis(d.rank):
        check_quotient_routines(d, levi, words, lambda word: letters)


# Groups checked without tables and their Levi sets: W_L is A1, A2 x A2 and
# D4 in E6; trivial, D4 x A1 and A6 in E7; A1, D6 and E7 in E8; and in
# THREE_WAY, whose components interleave, trivial, A2, B2 x A1 and B2 x A1^3.
NO_TABLE_CASES = [
    ("E6", [(1,), (1, 3, 5, 6), (2, 3, 4, 5)]),
    ("E7", [(), (2, 3, 4, 5, 7), (1, 3, 4, 5, 6, 7)]),
    ("E8", [(1,), (2, 3, 4, 5, 6, 7), (1, 2, 3, 4, 5, 6, 7)]),
    (INTERLEAVED, list(all_levis(3))),
    (THREE_WAY, [(), (1, 3), (2, 4, 6), (1, 2, 4, 5, 6)]),
]


@pytest.mark.parametrize("spec,levis", NO_TABLE_CASES, ids=["E6", "E7", "E8", "INTERLEAVED", "THREE_WAY"])
def test_quotient_routines_match_the_oracles_without_tables(monkeypatch, spec, levis):
    # seeded words, uniform and P-reduced, with every Weyl table refused;
    # quotient_exchange at two seeded letters and at each right descent
    rng = random.Random(25)
    d = build_root_datum(spec)
    refuse_tables(monkeypatch)
    for levi in levis:
        words = seeded_words(d, rng, 20, levi)
        assert sum(is_p_reduced(d, word, levi) for word in words) >= 10, levi

        def alphas(word):
            w = from_word(d, word)
            descents = [i for i, beta in enumerate(w.images, 1) if any(c < 0 for c in beta)]
            return sorted({rng.randint(1, d.rank), rng.randint(1, d.rank), *descents})

        check_quotient_routines(d, levi, words, alphas)
    assert weyl._tables == {}


HEADLINE_CASES = [
    (name, levi)
    for name in ("A3", "B3", "A4", "D4", "F4")
    for levi in all_levis(int(name[1]))
    if 0 < len(levi) < int(name[1])
]


@functools.lru_cache(maxsize=None)
def weyl_and_group_case(name):
    """from_weyl and group_case of a type, with each element's word and the
    word of its inverse by position in enumerate_elements (which is how
    group_case names its nodes): built once for all Levi sets."""
    d = build_root_datum(name)
    elements = enumerate_elements(d)
    words = [format_word(reduced_word(w)) for w in elements]
    inverse = [format_word(reduced_word(inv(w))) for w in elements]
    return d, from_weyl(d), group_case(d), words, inverse


@pytest.mark.parametrize("name,levi", HEADLINE_CASES)
def test_quotient_order_four_ways(name, levi):
    # The Bruhat order on W_L\W, as the covers of from_parabolic's closure
    # order, equals the order that B\G/B induces on maximal representatives,
    # and the class order of the group case (the diagonal pair G x G, whose
    # first copy acts on the left and second on the right) with the Levi
    # set in either copy.  Every cover is named by minimal-representative words.
    d, weyl, g, words, inverse = weyl_and_group_case(name)
    to_min = {}  # maximal-representative word -> minimal-representative word
    for c in enumerate_cosets(d, levi):
        to_min[format_word(reduced_word(c.max_rep))] = format_word(reduced_word(c.min_rep))
    want = sorted(hasse(from_parabolic(d, levi)))
    tops = sum(1 << weyl.index[v] for v in to_min)
    assert sorted((to_min[u], to_min[v]) for u, v in cover_pairs(weyl, tops)) == want
    left = [(to_min[words[int(u)]], to_min[words[int(v)]]) for u, v in class_hasse(g, levi)]
    assert sorted(left) == want
    # x W_L has the maximal representative x', and W_L x^-1 the inverse of x'
    second = [d.rank + i for i in levi]
    right = [(to_min[inverse[int(u)]], to_min[inverse[int(v)]]) for u, v in class_hasse(g, second)]
    assert sorted(right) == want


def test_step_and_induced_order_refusals():
    a2 = build_root_datum("A2")
    with pytest.raises(NotPositiveRoot) as err:
        classify_step(identity(a2), (2, 0), (1,))
    assert str(err.value) == "(2, 0) is not a root"
    w = simple_reflection(a2, 2)
    other = coset_of(identity(build_root_datum("B2")), ())
    for c1, c2 in ((coset_of(w, (1,)), coset_of(w, (2,))), (coset_of(w, ()), other)):
        with pytest.raises(ParabolicMismatch) as err:
            coset_bruhat_leq_induced(c1, c2)
        assert str(err.value) == "cosets live in different quotients"
