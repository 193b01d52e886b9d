"""Weyl group elements, reduced words, exchange, and the two Bruhat routes."""

import math

import pytest

from flagorbits import (
    CartanSpec,
    DatumMismatch,
    Direction,
    NotADescent,
    NotARoot,
    NotPositiveRoot,
    NotReduced,
    ParseError,
    WeylElt,
    apply_twist,
    bruhat_leq,
    bruhat_leq_subword,
    build_root_datum,
    descent_direction,
    enumerate_elements,
    exchange,
    format_word,
    from_word,
    identity,
    inv,
    is_reduced,
    length,
    mul,
    parse_word,
    positive_roots,
    reduced_word,
    reflection_element,
    reflection_word,
    simple_reflection,
    simple_root,
)
from flagorbits import TableTooLarge, group_order, weyl
from flagorbits.weyl import _table, act_on_root

GROUP_ORDERS = {"A1": 2, "A1xA1": 4, "A2": 6, "B2": 8, "G2": 12, "A3": 24}


def test_group_orders_and_longest_lengths():
    longest = {"A1": 1, "A1xA1": 2, "A2": 3, "B2": 4, "G2": 6, "A3": 6}
    for name, order in GROUP_ORDERS.items():
        d = build_root_datum(name)
        elements = enumerate_elements(d)
        assert len(elements) == order
        assert max(length(w) for w in elements) == longest[name]
        # sorted by length then canonical word
        keys = [(length(w), reduced_word(w)) for w in elements]
        assert keys == sorted(keys)


def closed_form_order(name):
    if "x" in name:
        return math.prod(closed_form_order(part) for part in name.split("x"))
    letter, n = name[0], int(name[1:])
    fixed = {"E6": 51840, "E7": 2903040, "E8": 696729600, "F4": 1152, "G2": 12}
    if name in fixed:
        return fixed[name]
    if letter == "A":
        return math.factorial(n + 1)
    if letter in "BC":
        return 2**n * math.factorial(n)
    return 2 ** (n - 1) * math.factorial(n)  # D


def test_group_order_is_the_product_of_the_degrees():
    names = [f"A{n}" for n in range(1, 9)]
    names += ["B4", "C3", "D4", "D6", "F4", "G2", "E6", "E7", "E8", "A2xB2"]
    for name in names:
        assert group_order(build_root_datum(name)) == closed_form_order(name), name


def test_whole_group_tables_are_capped():
    d = build_root_datum("E7")
    with pytest.raises(TableTooLarge):
        enumerate_elements(d)
    assert d.cartan not in weyl._tables
    # per-element queries still answer on the root images
    assert reduced_word(from_word(d, (7, 7, 1))) == (1,)


def test_group_orders_match_closed_forms():
    names = ("A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "D4", "F4", "G2", "E6")
    for name in names:
        d = build_root_datum(name)
        elements = enumerate_elements(d)
        assert len(elements) == closed_form_order(name), name
        assert elements[0] == identity(d)
        # the longest element sends every positive root negative
        assert length(elements[-1]) == len(positive_roots(d)), name
    assert length(elements[-1]) == 36  # E6


def test_table_agrees_with_products():
    for name in ("B3", "A4"):
        d = build_root_datum(name)
        elements = enumerate_elements(d)
        table = _table(d)
        e = identity(d)
        for k, w in enumerate(elements):
            assert mul(elements[table.inverse[k]], w) == e
            assert inv(w) == elements[table.inverse[k]]
            for i in range(1, d.rank + 1):
                s = simple_reflection(d, i)
                assert elements[table.left[i - 1][k]] == mul(s, w)
                assert elements[table.right[i - 1][k]] == mul(w, s)


# Components {1, 3} (an A2) and {2} (an A1): letters of the two interleave.
INTERLEAVED = CartanSpec(((2, 0, -1), (0, 2, 0), (-1, 0, 2)), ("1", "2", "3"))
# Components {1, 3, 5} (an A3), {2, 4} (a B2) and {6} (an A1): canonical
# words such as 3,1,5,3 rise and fall, so the merge interleaves runs.
THREE_WAY = CartanSpec(
    (
        (2, 0, -1, 0, 0, 0),
        (0, 2, 0, -2, 0, 0),
        (-1, 0, 2, 0, -1, 0),
        (0, -1, 0, 2, 0, 0),
        (0, 0, -1, 0, 2, 0),
        (0, 0, 0, 0, 0, 2),
    ),
    ("1", "2", "3", "4", "5", "6"),
)


def test_component_lookups_match_the_root_image_path():
    # Tables are keyed by Cartan matrix, so the root-image path is called
    # directly; the reducible data are looked up one component at a time.
    for spec in ("A4", "B3", "G2", "A3xA3", "B2xB2", INTERLEAVED, THREE_WAY):
        d = build_root_datum(spec)
        for w in enumerate_elements(d):
            word = reduced_word(w)
            assert word == weyl._descent_walk(weyl._root_inv(w)), spec
            assert length(w) == weyl._root_length(w) == len(word)
            assert inv(w) == weyl._root_inv(w)
            assert from_word(d, word) == weyl._root_from_word(d, word) == w
            doubled = word + word[::-1]
            assert from_word(d, doubled) == weyl._root_from_word(d, doubled) == identity(d)
    # A3xA3 is looked up through the A3 table
    d = build_root_datum("A3xA3")
    assert len(weyl._layout(d).tables()) == 2
    assert weyl._layout(d).tables()[0] is _table(build_root_datum("A3"))


def test_interleaved_components_merge_their_words():
    d = build_root_datum(INTERLEAVED)
    words = [format_word(reduced_word(w)) for w in enumerate_elements(d)]
    assert words == ["e", "1", "2", "3", "1,2", "1,3", "2,3", "3,1", "1,2,3", "1,3,1", "2,3,1", "1,2,3,1"]


def test_kernels_are_products_with_simple_reflections():
    for spec in ("B3", "G2", INTERLEAVED):
        d = build_root_datum(spec)
        for w in enumerate_elements(d):
            for i in range(1, d.rank + 1):
                s = simple_reflection(d, i)
                assert weyl._times_s(w, i) == mul(w, s)
                assert weyl._s_times(i, w) == mul(s, w)
    for d in (build_root_datum("A2"), build_root_datum("E8")):
        for word in ((d.rank + 1,), (0,), (1, -1)):
            with pytest.raises(NotARoot):
                from_word(d, word)


def test_per_element_queries_build_no_table():
    d = build_root_datum("E8")
    u = from_word(d, (4, 2))
    v = from_word(d, (8, 7, 6, 5, 4, 3, 2))
    assert bruhat_leq(u, v) == bruhat_leq_subword(u, v)
    assert reduced_word(from_word(d, (2, 1, 1, 2, 8))) == (8,)
    assert length(v) == len(reduced_word(v))
    assert mul(inv(v), v) == identity(d)
    assert d.cartan not in weyl._tables and weyl._layout(d).tables() is None


def test_identity_and_simple_reflections():
    d = build_root_datum("A2")
    e = identity(d)
    s1 = simple_reflection(d, 1)
    assert length(e) == 0 and reduced_word(e) == ()
    assert mul(s1, s1) == e
    assert inv(s1) == s1
    with pytest.raises(NotARoot):
        simple_reflection(d, 3)


def test_mul_requires_same_datum():
    a = identity(build_root_datum("A2"))
    b = identity(build_root_datum("B2"))
    with pytest.raises(DatumMismatch):
        mul(a, b)


def test_act_on_root():
    # products compose right to left: s1s2 sends alpha2 through s2 first
    d = build_root_datum("A2")
    w = from_word(d, (1, 2))
    assert act_on_root(w, simple_root(d, 2)) == (-1, -1)
    assert act_on_root(w, simple_root(d, 1)) == (0, 1)
    with pytest.raises(NotARoot):
        act_on_root(w, (1, 2))


def test_canonical_reduced_words():
    d = build_root_datum("A2")
    w0 = from_word(d, (1, 2, 1))
    assert reduced_word(w0) == (1, 2, 1)
    assert from_word(d, (2, 1, 2)) == w0
    # squares cancel
    assert reduced_word(from_word(d, (1, 1))) == ()
    assert reduced_word(from_word(d, (2, 1, 1, 2))) == ()


def test_every_canonical_word_is_reduced():
    for name in GROUP_ORDERS:
        d = build_root_datum(name)
        for w in enumerate_elements(d):
            word = reduced_word(w)
            assert len(word) == length(w)
            assert is_reduced(d, word)
            assert from_word(d, word) == w


def test_is_reduced_prefix_criterion():
    d = build_root_datum("B2")
    assert is_reduced(d, (1, 2, 1, 2))
    assert not is_reduced(d, (1, 1))
    assert not is_reduced(d, (1, 2, 2, 1))


def test_descent_direction():
    d = build_root_datum("A2")
    s1 = simple_reflection(d, 1)
    alpha = simple_root(d, 1)
    assert descent_direction(identity(d), alpha) is Direction.UP
    assert descent_direction(s1, alpha) is Direction.DOWN
    with pytest.raises(NotPositiveRoot):
        descent_direction(s1, (-1, 0))
    with pytest.raises(NotARoot):
        descent_direction(s1, (1, 2))


def test_exchange_exhaustive_small_types():
    # deleting the returned letter yields a reduced word for ws_alpha
    for name in ("A2", "B2"):
        d = build_root_datum(name)
        for w in enumerate_elements(d):
            word = reduced_word(w)
            for alpha in range(1, d.rank + 1):
                s = simple_reflection(d, alpha)
                lower = mul(w, s)
                if length(lower) > length(w):
                    with pytest.raises(NotADescent):
                        exchange(d, word, alpha)
                    continue
                j = exchange(d, word, alpha)
                shorter = word[: j - 1] + word[j:]
                assert is_reduced(d, shorter)
                assert from_word(d, shorter) == lower


def test_exchange_rejects_unreduced_words():
    d = build_root_datum("A2")
    with pytest.raises(NotReduced):
        exchange(d, (1, 1, 2), 2)


def test_letters_out_of_range_are_not_roots():
    d = build_root_datum("A2")
    for word in ((3,), (0,), (-1,), (1, 1, 3)):
        with pytest.raises(NotARoot):
            is_reduced(d, word)
    with pytest.raises(NotARoot):
        exchange(d, (1, 3), 1)


def test_bruhat_routes_agree_on_b2():
    for name in ("B2", "A3", "G2"):
        elements = enumerate_elements(build_root_datum(name))
        for u in elements:
            for v in elements:
                assert bruhat_leq(u, v) == bruhat_leq_subword(u, v), name
    # B3 with its simple roots numbered backwards has a Cartan matrix no
    # table is built for, so its comparisons take the per-element path on
    # the root images
    d = build_root_datum("B3")
    flipped = tuple(tuple(row[::-1]) for row in d.cartan[::-1])
    bare = build_root_datum(CartanSpec(flipped, d.labels))

    def renumbered(w):
        return WeylElt(bare, tuple(img[::-1] for img in w.images[::-1]))

    elements = enumerate_elements(d)
    for u in elements:
        x = renumbered(u)
        for v in elements:
            assert bruhat_leq(x, renumbered(v)) == bruhat_leq_subword(u, v)
    assert weyl._layout(bare).tables() is None


def test_bruhat_classical_facts():
    d = build_root_datum("A2")
    e = identity(d)
    w0 = from_word(d, (1, 2, 1))
    s1s2 = from_word(d, (1, 2))
    s2s1 = from_word(d, (2, 1))
    assert bruhat_leq(e, w0)
    assert bruhat_leq(s1s2, w0) and bruhat_leq(s2s1, w0)
    assert not bruhat_leq(s1s2, s2s1)
    assert not bruhat_leq(s2s1, s1s2)


def test_bruhat_subword_accepts_any_base_word():
    d = build_root_datum("B2")
    v = from_word(d, (2, 1, 2, 1))
    u = from_word(d, (1, 2))
    assert bruhat_leq_subword(u, v, base_word=(2, 1, 2, 1))
    with pytest.raises(NotReduced):
        bruhat_leq_subword(u, v, base_word=(1, 1, 2, 1))


def test_reflection_words_are_palindromes():
    for name in ("A2", "B2", "G2"):
        d = build_root_datum(name)
        for beta in positive_roots(d):
            word = reflection_word(d, beta)
            assert word == word[::-1]
            t = reflection_element(d, beta)
            assert from_word(d, word) == t
            assert act_on_root(t, beta) == tuple(-c for c in beta)
            assert mul(t, t) == identity(d)


def test_apply_twist():
    d = build_root_datum("A2", twist=(2, 1))
    s1 = simple_reflection(d, 1)
    s2 = simple_reflection(d, 2)
    assert apply_twist(s1) == s2
    w = from_word(d, (1, 2))
    assert apply_twist(apply_twist(w)) == w
    # the twist is a group automorphism
    for u in enumerate_elements(d):
        for v in enumerate_elements(d):
            assert apply_twist(mul(u, v)) == mul(apply_twist(u), apply_twist(v))


def test_word_text_round_trip():
    d = build_root_datum("B2")
    assert format_word(()) == "e"
    assert parse_word(d, "e") == ()
    assert parse_word(d, "") == ()
    assert parse_word(d, "2,1,2") == (2, 1, 2)
    assert format_word((2, 1, 2)) == "2,1,2"
    with pytest.raises(ParseError):
        parse_word(d, "1,x")
    with pytest.raises(ParseError):
        parse_word(d, "3")
    with pytest.raises(ParseError):
        parse_word(d, "0,1")
