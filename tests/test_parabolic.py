"""Parabolic quotients: representatives, P-reduced words, order, exchange."""

import itertools

import pytest

from flagorbits import (
    NotDownward,
    NotPositiveRoot,
    NotPReduced,
    ParabolicMismatch,
    StepType,
    build_root_datum,
    bruhat_leq,
    classify_step,
    coset_bruhat_leq,
    coset_bruhat_leq_induced,
    coset_elements,
    coset_of,
    enumerate_cosets,
    enumerate_elements,
    format_word,
    from_parabolic,
    from_word,
    identity,
    is_p_maximal,
    is_p_minimal,
    is_p_reduced,
    length,
    levi_subgroup_elements,
    longest_levi_element,
    mul,
    p_length,
    quotient_exchange,
    quotient_property_z_check,
    reduced_word,
    simple_reflection,
    simple_root,
    step_coset,
)


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
