"""Weyl group elements, reduced words, exchange, and the two Bruhat routes."""

import itertools
import math
import random
from collections import Counter

import pytest

from flagorbits import (
    DatumMismatch,
    Direction,
    NotADescent,
    NotARoot,
    NotPositiveRoot,
    NotReduced,
    ParseError,
    RootPosition,
    WeylElt,
    apply_twist,
    bruhat_leq,
    bruhat_leq_subword,
    build_root_datum,
    classify_wrt_parabolic,
    descent_direction,
    enumerate_elements,
    exchange,
    format_word,
    from_word,
    identity,
    inv,
    is_reduced,
    length,
    longest_levi_element,
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
from flagorbits.kgb import doubled_datum, group_case
from flagorbits.root_datum import all_roots, normalize_levi, reflect
from flagorbits.weyl import WeylTable, _table, act_on_root
from image_oracle import apply_images, from_images, s_times, times_s, twist_images, word_images

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
INTERLEAVED = ((2, 0, -1), (0, 2, 0), (-1, 0, 2))
# Components {1, 3, 5} (an A3), {2, 4} (a B2) and {6} (an A1): canonical
# words such as 3,1,5,3 rise and fall, so the merge interleaves runs.
THREE_WAY = (
    (2, 0, -1, 0, 0, 0),
    (0, 2, 0, -2, 0, 0),
    (-1, 0, 2, 0, -1, 0),
    (0, -1, 0, 2, 0, 0),
    (0, 0, -1, 0, 2, 0),
    (0, 0, 0, 0, 0, 2),
)


def reference_table(datum):
    """The six WeylTable fields from a breadth-first search on tuples of
    root indices, each simple reflection applied to a root by
    root_datum.reflect: the oracle for WeylTable's byte-string search."""
    r = datum.rank
    roots = sorted(all_roots(datum))
    position = {beta: k for k, beta in enumerate(roots)}
    perms = [tuple(position[reflect(datum, i, beta)] for beta in roots) for i in range(1, r + 1)]
    start = tuple(position[simple_root(datum, j)] for j in range(1, r + 1))
    keys = [start]
    seen = {start: 0}
    words = [()]
    lengths = [0]
    left = [[] for _ in range(r)]
    level = [0]
    while level:
        nxt = []
        for i in range(r):
            perm, row = perms[i], left[i]
            for x in level:
                y = tuple([perm[b] for b in keys[x]])
                k = seen.get(y)
                if k is None:
                    k = seen[y] = len(keys)
                    keys.append(y)
                    words.append((i + 1,) + words[x])
                    lengths.append(lengths[x] + 1)
                    nxt.append(k)
                row.append(k)
        level = nxt
    n = len(keys)
    prefix = [0] * n
    inverse = [0] * n
    for k in range(1, n):
        word = words[k]
        if len(word) > 1:
            first = left[word[0] - 1]
            prefix[k] = first[prefix[first[k]]]
        inverse[k] = left[word[-1] - 1][inverse[prefix[k]]]
    images = tuple(tuple([roots[b] for b in key]) for key in keys)
    return {
        "images": images,
        "length": tuple(lengths),
        "words": tuple(words),
        "left": tuple(tuple(row) for row in left),
        "right": tuple(tuple([inverse[row[inverse[k]]] for k in range(n)]) for row in left),
        "inverse": tuple(inverse),
    }


def table_fields(table):
    """reference_table's fields of a WeylTable: every element's images
    decoded from its key bytes and the sorted roots, then the rows."""
    fields = {"images": tuple(tuple([table.roots[b] for b in key]) for key in table.keys)}
    fields.update((field, getattr(table, field)) for field in ("length", "words", "left", "right", "inverse"))
    return fields


# Each datum whose table is checked, with its Cartan type for the degrees.
TABLE_SPECS = [(f"A{n}", f"A{n}") for n in range(1, 6)]
TABLE_SPECS += [(f"B{n}", f"B{n}") for n in range(2, 6)]
TABLE_SPECS += [(name, name) for name in ("C3", "D4", "D5", "G2", "F4", "A3xA3", "B2xB2")]
TABLE_SPECS += [(INTERLEAVED, "A2xA1"), (THREE_WAY, "A3xB2xA1")]


def test_tables_match_the_reference_search():
    for spec, _ in TABLE_SPECS:
        d = build_root_datum(spec)
        assert table_fields(_table(d)) == reference_table(d), spec


def degrees(name):
    """The degrees of the basic invariants, in closed form per type."""
    if "x" in name:
        return [e for part in name.split("x") for e in degrees(part)]
    letter, n = name[0], int(name[1:])
    fixed = {
        "G2": [2, 6],
        "F4": [2, 6, 8, 12],
        "E6": [2, 5, 6, 8, 9, 12],
        "E7": [2, 6, 8, 10, 12, 14, 18],
        "E8": [2, 8, 12, 14, 18, 20, 24, 30],
    }
    if name in fixed:
        return fixed[name]
    if letter == "A":
        return list(range(2, n + 2))
    if letter in "BC":
        return list(range(2, 2 * n + 1, 2))
    return list(range(2, 2 * n - 1, 2)) + [n]  # D


def poincare(degs):
    """The coefficients of the product of [d]_q = 1 + q + ... + q^(d-1)."""
    poly = [1]
    for deg in degs:
        poly = [sum(poly[max(0, k - deg + 1) : k + 1]) for k in range(len(poly) + deg - 1)]
    return poly


def test_length_distribution_is_the_poincare_polynomial():
    # sum over W of q^length(w) is the product of [d]_q
    for spec, name in TABLE_SPECS + [("E6", "E6")]:
        poly = poincare(degrees(name))
        counts = Counter(_table(build_root_datum(spec)).length)
        assert [counts[k] for k in range(len(poly))] == poly, spec
        assert sum(counts.values()) == sum(poly), spec


def test_component_lookups_match_the_root_image_path():
    # Tables are keyed by Cartan matrix, so the root-image path is called
    # directly; the reducible data are looked up one component at a time.
    for spec in ("A4", "B3", "G2", "A3xA3", "B2xB2", INTERLEAVED, THREE_WAY):
        d = build_root_datum(spec)
        for w in enumerate_elements(d):
            word = reduced_word(w)
            assert word == weyl._spell(d, weyl._weight(w)), spec
            inversions = sum(any(c < 0 for c in weyl._apply(w, beta)) for beta in positive_roots(d))
            assert length(w) == inversions == len(word)
            assert inv(w) == from_images(d, word_images(d, word[::-1]))
            assert from_word(d, word) == from_images(d, word_images(d, word)) == w
            doubled = word + word[::-1]
            assert from_word(d, doubled) == from_images(d, word_images(d, doubled)) == identity(d)
    # A3xA3 is looked up through the A3 table
    d = build_root_datum("A3xA3")
    assert len(weyl._layout(d).tables()) == 2
    assert weyl._layout(d).tables()[0] is _table(build_root_datum("A3"))


def test_interleaved_components_merge_their_words():
    d = build_root_datum(INTERLEAVED)
    words = [format_word(reduced_word(w)) for w in enumerate_elements(d)]
    assert words == ["e", "1", "2", "3", "1,2", "1,3", "2,3", "3,1", "1,2,3", "1,3,1", "2,3,1", "1,2,3,1"]


def test_table_words_are_the_canonical_words():
    # the whole-datum table's words, which enumerate prints, against the
    # merge of the component words that reduced_word spells
    for d in (build_root_datum("A1xA2"), build_root_datum("B2xG2"), doubled_datum(build_root_datum("A2")),
              build_root_datum(INTERLEAVED)):
        assert list(_table(d).words) == [reduced_word(w) for w in enumerate_elements(d)]


def test_kernels_are_products_with_simple_reflections():
    for spec in ("B3", "G2", INTERLEAVED):
        d = build_root_datum(spec)
        for w in enumerate_elements(d):
            images = w.images
            for i in range(1, d.rank + 1):
                s = simple_reflection(d, i)
                assert from_images(d, times_s(d, images, i)) == mul(w, s)
                assert from_images(d, s_times(d, i, images)) == mul(s, w)
    for d in (build_root_datum("A2"), build_root_datum("E8")):
        for word in ((d.rank + 1,), (0,), (1, -1)):
            with pytest.raises(NotARoot):
                from_word(d, word)


def check_against_root_images(d, words, every_root=True):
    """The elements of the words against the root-image oracle: from_word,
    mul (by the element of the word before), inv, apply_twist and images;
    == and hash against the twin made from the images, and a product with
    s_1, which differs; with every_root, act_on_root on every root and
    descent_direction on every positive one."""
    elements = [from_word(d, word) for word in words]
    oracle = [word_images(d, word) for word in words]
    roots = all_roots(d) if every_root else ()
    s = simple_reflection(d, 1)
    for k, (w, images) in enumerate(zip(elements, oracle)):
        assert w.images == images, (d.name, words[k])
        twin = from_images(d, images)
        assert w == twin and twin == w and hash(w) == hash(twin), (d.name, words[k])
        ws, twin_s = mul(w, s), from_images(d, times_s(d, images, 1))
        assert ws == twin_s and hash(ws) == hash(twin_s) and ws != w and w != twin_s, (d.name, words[k])
        product = tuple(apply_images(images, beta) for beta in oracle[k - 1])
        assert mul(w, elements[k - 1]).images == product, (d.name, words[k])
        assert mul(w, elements[k - 1]) == from_images(d, product), (d.name, words[k])
        assert inv(w).images == word_images(d, words[k][::-1]), (d.name, words[k])
        assert apply_twist(w).images == twist_images(d, images), (d.name, words[k])
        assert apply_twist(w) == from_images(d, twist_images(d, images)), (d.name, words[k])
        for beta in roots:
            image = apply_images(images, beta)
            assert act_on_root(w, beta) == image, (d.name, words[k], beta)
            if min(beta) >= 0:
                want = Direction.UP if min(image) >= 0 else Direction.DOWN
                assert descent_direction(w, beta) is want, (d.name, words[k], beta)


def test_weights_and_ids_match_the_root_image_oracle():
    # table-less E7 and renumbered B3, then table-born B3, F4, D4 with a
    # flip, the interleaved datum and the doubled B2 with its swap
    rng = random.Random(47)
    b3 = build_root_datum("B3")
    bare = build_root_datum(tuple(tuple(row[::-1]) for row in b3.cartan[::-1]))
    for d, count in ((build_root_datum("E7"), 12), (bare, 30)):
        top = len(positive_roots(d))
        words = [[rng.randint(1, d.rank) for _ in range(rng.randint(0, top))] for _ in range(count)]
        check_against_root_images(d, words)
        assert weyl._layout(d).tables() is None, d.name
    for d in (b3, build_root_datum("F4"), build_root_datum("D4", twist=(1, 2, 4, 3)), build_root_datum(INTERLEAVED),
              doubled_datum(build_root_datum("B2"))):
        elements = enumerate_elements(d)
        top = len(positive_roots(d))
        words = [[rng.randint(1, d.rank) for _ in range(rng.randint(0, top))] for _ in range(30)]
        words += [reduced_word(w) for w in rng.sample(elements, min(10, len(elements)))]
        assert all(from_word(d, word).ids is not None for word in words), d.name
        check_against_root_images(d, words)


def check_simple_descents(w, images):
    """descent_direction on each simple root against the sign of its image in the oracle."""
    for i in range(1, w.datum.rank + 1):
        want = Direction.UP if min(images[i - 1]) >= 0 else Direction.DOWN
        assert descent_direction(w, simple_root(w.datum, i)) is want, (w.datum.name, reduced_word(w), i)


def test_table_born_reads_match_the_reference_table():
    # Every element, in enumeration order, which is the reference table's id
    # order (length, then canonical word); irreducible ids are that id.
    for spec in ("B3", "D4", "F4", INTERLEAVED, THREE_WAY):
        d = build_root_datum(spec)
        elements, ref = enumerate_elements(d), reference_table(d)
        for k, w in enumerate(elements):
            assert len(w.ids) > 1 or w.ids == (k,), spec
            assert reduced_word(w) == ref["words"][k], (spec, k)
            assert length(w) == ref["length"][k], (spec, k)
            assert inv(w).ids == elements[ref["inverse"][k]].ids, (spec, k)
            check_simple_descents(w, word_images(d, ref["words"][k]))


def test_table_less_reads_match_the_root_image_oracle():
    d, rng = build_root_datum("E7"), random.Random(36)
    for _ in range(40):
        word = [rng.randint(1, 7) for _ in range(rng.randint(0, 63))]
        w, images = from_word(d, word), word_images(d, word)
        assert w.ids is None
        canonical = reduced_word(w)
        assert is_reduced(d, canonical) and word_images(d, canonical) == images, word
        inversions = sum(min(apply_images(images, beta)) < 0 for beta in positive_roots(d))
        assert length(w) == len(canonical) == inversions, word
        assert inv(w) == from_images(d, word_images(d, word[::-1])), word
        check_simple_descents(w, images)
    assert weyl._layout(d).tables() is None


def test_per_element_queries_build_no_table():
    d = build_root_datum("E8")
    u = from_word(d, (4, 2))
    v = from_word(d, (8, 7, 6, 5, 4, 3, 2))
    assert bruhat_leq(u, v) == bruhat_leq_subword(u, v)
    assert reduced_word(from_word(d, (2, 1, 1, 2, 8))) == (8,)
    assert length(v) == len(reduced_word(v))
    assert mul(inv(v), v) == identity(d)
    assert d.cartan not in weyl._tables and weyl._layout(d).tables() is None


def test_rho_walk_length_counts_inversions():
    # Without a table, length is the number of letters of the weight walk;
    # the inversion count over all positive roots is the oracle.
    rng = random.Random(3)
    for name in ("E6", "E7", "E8"):
        d = build_root_datum(name)
        pos = positive_roots(d)
        assert weyl._layout(d).two_rho == tuple(map(sum, zip(*pos))), name
        w0 = longest_levi_element(d, range(1, d.rank + 1))
        samples = [w0, identity(d)]
        samples += [from_word(d, [rng.randint(1, d.rank) for _ in range(rng.randint(1, 60))]) for _ in range(40)]
        for w in samples:
            inversions = sum(any(c < 0 for c in weyl._apply(w, beta)) for beta in pos)
            assert len(weyl._spell(d, weyl._weight(w))) == inversions, name
            assert length(w) == inversions, name
        assert length(w0) == len(pos)


def reference_descent_walk(d, images):
    """Strip the smallest right descent from the element with these images
    until the identity is reached: the letters j1..jl with w * s_j1 * ... *
    s_jl = e.  Since the right descents of w are the left descents of its
    inverse, these are the greedy left-descent word of the inverse."""
    word = []
    while True:
        for i, beta in enumerate(images, 1):
            if any(c < 0 for c in beta):
                word.append(i)
                images = times_s(d, images, i)
                break
        else:
            return tuple(word)


def test_tableless_queries_match_the_right_descent_walk(monkeypatch):
    # The right-descent walk spells w^-1, and walking the product of its
    # letters spells w: the oracle for the weight walk with every table hidden.
    rng = random.Random(23)
    cases = []
    for name in ("E6", "E7", "E8"):
        d = build_root_datum(name)
        samples = [identity(d), longest_levi_element(d, range(1, d.rank + 1))]
        samples += [from_word(d, [rng.randint(1, d.rank) for _ in range(rng.randint(1, 80))]) for _ in range(25)]
        cases.append((d, samples))
    for spec in (INTERLEAVED, THREE_WAY, "A3xA3"):
        d = build_root_datum(spec)
        cases.append((d, enumerate_elements(d)))
    monkeypatch.setattr(weyl._Layout, "tables", lambda self: None)
    for d, samples in cases:
        for w in samples:
            inverse_word = reference_descent_walk(d, w.images)
            inverse = word_images(d, inverse_word)
            assert reduced_word(w) == reference_descent_walk(d, inverse), d.name
            assert length(w) == len(inverse_word), d.name
            assert inv(w) == from_images(d, inverse), d.name


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


def test_move_is_the_dense_row_update():
    # _move subtracts c times row a of the Cartan matrix, not column a: on
    # B2, C3, G2 and F4 the two differ, and a walk that moved by columns
    # need not end, so this is checked on its own, letter by letter
    rng = random.Random(26)
    for name in ("B2", "C3", "G2", "F4"):
        d = build_root_datum(name)
        assert d.cartan != tuple(zip(*d.cartan)), name
        rows = weyl._layout(d).rows
        for _ in range(4):
            mu = [rng.randint(-5, 5) for _ in range(d.rank)]
            for a in range(1, d.rank + 1):
                c, got = mu[a - 1], list(mu)
                weyl._move(rows[a - 1], got, c)
                assert got == [x - c * y for x, y in zip(mu, d.cartan[a - 1])], (name, a, mu)


def test_is_reduced_prefix_criterion():
    d = build_root_datum("B2")
    assert is_reduced(d, (1, 2, 1, 2))
    assert not is_reduced(d, (1, 1))
    assert not is_reduced(d, (1, 2, 2, 1))


def is_reduced_by_prefixes(d, word):
    """The root-image prefix loop, kept as the oracle for is_reduced's climb
    from rho: each prefix w keeps the next simple root positive."""
    images = word_images(d, ())
    for i in word:
        if any(c < 0 for c in images[i - 1]):
            return False
        images = times_s(d, images, i)
    return True


def refuse_tables(monkeypatch):
    """Hide every Weyl table and refuse to build one: a fresh datum then
    answers on root images and weights alone."""

    def refuse(datum):
        raise AssertionError("a Weyl table was built")

    monkeypatch.setattr(weyl, "_tables", {})
    monkeypatch.setattr(weyl, "WeylTable", refuse)


def seeded_words(d, rng, count, levi=()):
    """count seeded words of up to 3 * rank letters, alternately uniform
    (mostly not reduced) and grown by letters whose simple root the word so
    far sends into the nilradical of levi (P-reduced; reduced for levi ())."""
    out = []
    for k in range(count):
        images, word = word_images(d, ()), ()
        for _ in range(rng.randint(0, 3 * d.rank)):
            if k % 2:
                word += (rng.randint(1, d.rank),)
                continue
            ups = [i for i, beta in enumerate(images, 1) if classify_wrt_parabolic(d, beta, levi) is RootPosition.NILRADICAL]
            if not ups:
                break
            i = rng.choice(ups)
            images, word = times_s(d, images, i), word + (i,)
        out.append(word)
    return out


def test_is_reduced_matches_the_prefix_loop(monkeypatch):
    # every word of length < 6 of four small types, then seeded words of
    # larger groups with every table refused
    cases = []
    for spec in ("A3", "B3", "G2", "A1xA2"):
        d = build_root_datum(spec)
        cases += [(d, word) for k in range(6) for word in itertools.product(range(1, d.rank + 1), repeat=k)]
    refuse_tables(monkeypatch)
    rng = random.Random(25)
    for spec in ("E6", "E7", "E8", INTERLEAVED, THREE_WAY):
        d = build_root_datum(spec)
        cases += [(d, word) for word in seeded_words(d, rng, 60)]
    assert 300 < sum(is_reduced(d, word) for d, word in cases) < len(cases) - 300
    for d, word in cases:
        assert is_reduced(d, word) == is_reduced_by_prefixes(d, word), (d.name, word)


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


def reference_exchange(d, word, alpha):
    """Exchange by deleting each letter in turn and comparing products."""
    if not is_reduced(d, word):
        raise NotReduced(f"{word} is not reduced")
    w = from_word(d, word)
    if descent_direction(w, simple_root(d, alpha)) is Direction.UP:
        raise NotADescent(f"simple root {alpha} is not a descent")
    target = mul(w, simple_reflection(d, alpha))
    return next(j + 1 for j in range(len(word)) if from_word(d, word[:j] + word[j + 1 :]) == target)


def test_exchange_matches_deleting_each_letter():
    # seeded reduced words, each letter an ascent of the word before it; E7
    # and E8 have no tables, so their words are checked on the root images
    rng = random.Random(20)
    for name in ("G2", "B3", "B4", "D4", "A5", "F4", "E6", "E7", "E8"):
        d = build_root_datum(name)
        for _ in range(30):
            images, word = word_images(d, ()), ()
            for _ in range(rng.randint(0, 40)):
                ups = [i for i, beta in enumerate(images, 1) if all(c >= 0 for c in beta)]
                if not ups:
                    break
                i = rng.choice(ups)
                images, word = times_s(d, images, i), word + (i,)
            alpha = rng.randint(1, d.rank)
            try:
                expected = reference_exchange(d, word, alpha)
            except NotADescent as refused:
                with pytest.raises(NotADescent) as err:
                    exchange(d, word, alpha)
                assert str(err.value) == str(refused)
                continue
            assert exchange(d, word, alpha) == expected, (name, word, alpha)
        for bad in ((1, 1), (d.rank + 1,), (1, 0)):
            with pytest.raises(NotReduced if bad == (1, 1) else NotARoot):
                exchange(d, bad, 1)
        for alpha in (0, d.rank + 1):
            with pytest.raises(NotARoot):
                exchange(d, (1,), alpha)


def test_exchange_rejects_unreduced_words():
    d = build_root_datum("A2")
    with pytest.raises(NotReduced):
        exchange(d, (1, 1, 2), 2)


def test_letters_out_of_range_are_not_roots():
    d = build_root_datum("A2")
    for word in ((3,), (0,), (-1,), (1, 1, 3)):
        with pytest.raises(NotARoot) as err:
            is_reduced(d, word)
        assert str(err.value) == f"simple index {word[-1]} out of range 1..2"
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
    bare = build_root_datum(flipped)

    def renumbered(w):
        return from_images(bare, tuple(img[::-1] for img in w.images[::-1]))

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


def looked_up_ids(w):
    """w's component ids found by spelling its weight and walking the table
    rows, on a copy made without ids."""
    return weyl._ids(WeylElt(w.datum, weyl._weight(w)))


def test_table_born_elements_carry_the_ids_the_lookup_finds():
    # enumerate_elements, from_word and inv carry their ids, on reducible
    # data too, where enumerate_elements finds them along its table's rows
    for spec in [spec for spec, _ in TABLE_SPECS] + ["A1xA1"]:
        d = build_root_datum(spec)
        for w in enumerate_elements(d):
            want = looked_up_ids(w)
            assert w.ids == want, spec
            assert from_word(d, reduced_word(w)).ids == want, spec
            assert inv(w).ids == looked_up_ids(inv(w)), spec
    # so do mul and simple_reflection; elements made from weights carry no
    # ids, and the ids they find name them, on data whose components'
    # letters interleave
    for spec in (INTERLEAVED, THREE_WAY):
        d = build_root_datum(spec)
        elements = enumerate_elements(d)
        rng = random.Random(33)
        for s in [simple_reflection(d, i) for i in range(1, d.rank + 1)]:
            assert s.ids == looked_up_ids(s), spec
        made = [identity(d)]
        for w in elements:
            x = mul(w, rng.choice(elements))
            assert x.ids == looked_up_ids(x), spec
            images = w.images
            made.append(apply_twist(w))
            made += [from_images(d, s_times(d, i, images)) for i in range(1, d.rank + 1)]
            made += [from_images(d, times_s(d, images, i)) for i in range(1, d.rank + 1)]
        for x in made:
            assert x.ids is None, spec
            assert weyl._element(d, looked_up_ids(x)) == x, spec


def holds_weight(w):
    """Whether w's weight is filled in, asked without filling it."""
    return w.weight is not None


def test_table_born_elements_hold_no_weight_until_one_is_read():
    for spec in ("B3", INTERLEAVED):
        d = build_root_datum(spec)
        elements = enumerate_elements(d)
        born = [elements[5], from_word(d, (1, 2, 3)), inv(elements[7]), group_case(d)._tw[9]]
        for w in born:
            assert not holds_weight(w), spec
            reduced_word(w), length(w), inv(w)  # table reads
            images = w.images  # key reads
            assert not holds_weight(w), spec
            assert images == word_images(w.datum, reduced_word(w)), spec
            weight = weyl._weight(w)
            assert holds_weight(w) and weyl._weight(w) is weight, spec
            assert weight == from_images(w.datum, images).weight, spec


def twin_cases():
    """Table-born elements of an irreducible datum, of interleaved and
    three-way components, and of group_case's doubled datum."""
    cases = [enumerate_elements(build_root_datum(spec)) for spec in ("B3", "G2", "A1xA1", INTERLEAVED, THREE_WAY)]
    b2 = build_root_datum("B2")
    cases.append(enumerate_elements(doubled_datum(b2)) + tuple(group_case(b2)._tw))
    return cases


def test_kernel_born_elements_equal_the_table_born_ones():
    # two elements with ids compare by them; an element and its twin made
    # by the root-image kernels compare and hash by their weights
    for elements in twin_cases():
        d = elements[0].datum
        twins = [from_images(d, word_images(d, reduced_word(w))) for w in elements]
        for w, x in zip(elements, twins):
            assert x.ids is None, d.name
            y = from_word(d, reduced_word(w))
            assert y == w and not holds_weight(y), d.name
            assert x == w == y and w == x and hash(x) == hash(w) == hash(y), d.name
            assert {x: 0}[y] == {y: 0}[x] == {w: 0}[x] == 0, d.name
            assert w in {x} and x in {w} and y in {x}, d.name
            # the lookup keeps what it finds
            assert length(x) == length(y) and x.ids == y.ids, d.name
        assert set(elements) == set(twins), d.name
        assert len(set(elements) | set(twins)) == group_order(d), d.name


@pytest.mark.parametrize("hide", ["patched", "refused"])
def test_table_born_elements_answer_with_the_tables_hidden(monkeypatch, hide):
    # a table-born element's weight and images come from the tables its ids
    # came from, so they and the order answer once tables() gives None or
    # every table is refused; the kernel twins and the lifting give the answers
    rng = random.Random(43)
    cases = []
    for elements in twin_cases():
        d = elements[0].datum
        words = [reduced_word(rng.choice(elements)) for _ in range(60)]
        fresh = [from_word(d, word) for word in words]
        twins = [from_images(d, word_images(d, word)) for word in words]
        pairs = list(zip(fresh, fresh[1:] + fresh[:1]))
        want = [reference_bruhat_leq(from_images(d, u.images), from_images(d, v.images)) for u, v in pairs]
        assert not any(map(holds_weight, fresh)), d.name
        cases.append((d, words, fresh, twins, pairs, want))
    if hide == "patched":
        monkeypatch.setattr(weyl._Layout, "tables", lambda self: None)
    else:
        refuse_tables(monkeypatch)
    for d, words, fresh, twins, pairs, want in cases:
        assert [w.images for w in fresh] == [word_images(d, word) for word in words]
        assert [weyl._weight(w) for w in fresh] == [x.weight for x in twins]
        assert [bruhat_leq(u, v) for u, v in pairs] == want
        assert 0 < sum(want) < len(want)


def reference_bruhat_leq(u, v):
    """Bruhat order by lifting along right descents on the root images:
    strip the smallest right descent s of v, and strip it from u too when
    it is a descent of u, until u is as long as v; then u <= v exactly
    when the two are equal."""
    d, lu, lv, x, y = u.datum, length(u), length(v), u.images, v.images
    while lu < lv:
        i = next(i for i, beta in enumerate(y, 1) if any(c < 0 for c in beta))
        y, lv = times_s(d, y, i), lv - 1
        if any(c < 0 for c in x[i - 1]):
            x, lu = times_s(d, x, i), lu - 1
    return x == y


def seeded_pairs(d, rng, count):
    """count seeded pairs (u, v), v from a uniform word of up to N letters
    (N positive roots), u alternately from a seeded subword of v's reduced
    word, so u <= v, and from a uniform word of its own."""
    top = len(positive_roots(d))
    out = []
    for k in range(count):
        v = from_word(d, [rng.randint(1, d.rank) for _ in range(rng.randint(0, top))])
        if k % 2:
            u = from_word(d, [rng.randint(1, d.rank) for _ in range(rng.randint(0, top))])
        else:
            u = from_word(d, [a for a in reduced_word(v) if rng.random() < 0.75])
        out.append((u, v))
    return out


# The acceptance types, and reducible data with interleaved components.
ORDER_SPECS = ("A1", "A1xA1", "A2", "B2", "G2", "A3", "A1xA2", "B2xA1", INTERLEAVED)


def test_bruhat_leq_matches_the_image_lifting_oracle(monkeypatch):
    # every pair, on the table rows and then on the weights with every
    # table hidden, against the root-image lifting and the subword oracle;
    # seeded pairs of larger reducible data against the lifting
    rng = random.Random(37)
    cases = [[(u, v) for u in enumerate_elements(d) for v in enumerate_elements(d)] for d in map(build_root_datum, ORDER_SPECS)]
    seeded = [seeded_pairs(build_root_datum(spec), rng, 300) for spec in (THREE_WAY, "A3xA3", "B2xG2")]
    for hidden in (False, True):
        if hidden:
            monkeypatch.setattr(weyl._Layout, "tables", lambda self: None)
        for pairs in cases:
            for u, v in pairs:
                assert bruhat_leq(u, v) == reference_bruhat_leq(u, v) == bruhat_leq_subword(u, v), u.datum.name
        for pairs in seeded:
            for u, v in pairs:
                assert bruhat_leq(u, v) == reference_bruhat_leq(u, v), u.datum.name
                assert bruhat_leq(v, u) == reference_bruhat_leq(v, u), u.datum.name
    assert sum(bruhat_leq(u, v) for u, v in seeded[0]) >= 150


def test_bruhat_leq_without_tables_matches_the_oracle():
    # E7 and E8 have no table: the weights against the root-image lifting,
    # and against the subword oracle where v is short
    rng = random.Random(41)
    for name in ("E7", "E8"):
        d = build_root_datum(name)
        pairs = seeded_pairs(d, rng, 60)
        for u, v in pairs:
            assert bruhat_leq(u, v) == reference_bruhat_leq(u, v), name
            assert bruhat_leq(v, u) == reference_bruhat_leq(v, u), name
        assert sum(bruhat_leq(u, v) for u, v in pairs) >= 30, name
        for _ in range(40):
            v = from_word(d, [rng.randint(1, d.rank) for _ in range(rng.randint(0, 9))])
            u = from_word(d, [rng.randint(1, d.rank) for _ in range(rng.randint(0, 5))])
            assert bruhat_leq(u, v) == bruhat_leq_subword(u, v), name
        assert d.cartan not in weyl._tables and weyl._layout(d).tables() is None


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
    # letters are ASCII digits without a sign; spaces around a letter are fine
    assert parse_word(d, "1, 2") == (1, 2)
    for text in ("١,2", "1,２", "+1", "1_0", "-1", "1,,2"):
        with pytest.raises(ParseError) as err:
            parse_word(d, text)
        assert str(err.value) == f"cannot parse word {text!r}"


def test_refusals_across_data_and_off_the_roots():
    a2, b2 = build_root_datum("A2"), build_root_datum("B2")
    across = "cannot compare elements of different root data"
    # True == 1.0 == 1: a cache keyed by the index would answer s_1 for them
    # once s_1 is made; refused cold, on a datum no other test builds, and warm
    cold = build_root_datum(((2, -1), (-1, 2)), twist=(2, 1))
    for bad in (True, 1.0):
        with pytest.raises(NotARoot) as err:
            simple_reflection(cold, bad)
        assert str(err.value) == f"simple index {bad!r} out of range 1..2"
    assert reduced_word(simple_reflection(cold, 1)) == (1,)
    e7, born, bare = build_root_datum("E7"), enumerate_elements(a2)[3], WeylElt(a2, (-2, 4))
    assert born.ids is not None and bare.ids is None
    for call, error, message in [
        (lambda: simple_reflection(cold, True), NotARoot, "simple index True out of range 1..2"),
        (lambda: simple_reflection(cold, 1.0), NotARoot, "simple index 1.0 out of range 1..2"),
        (lambda: bruhat_leq(identity(a2), identity(b2)), DatumMismatch, across),
        (lambda: bruhat_leq_subword(identity(a2), identity(b2)), DatumMismatch, across),
        (lambda: reflection_word(a2, (2, 0)), NotARoot, "(2, 0) is not a root"),
        (lambda: reflection_word(a2, (-1, -1)), NotPositiveRoot, "(-1, -1) is not positive"),
        # a simple index is an int: a float, bool or str is refused, by repr
        (lambda: simple_root(a2, 1.5), NotARoot, "simple index 1.5 out of range 1..2"),
        (lambda: simple_root(a2, True), NotARoot, "simple index True out of range 1..2"),
        (lambda: from_word(a2, [1.0]), NotARoot, "simple index 1.0 out of range 1..2"),
        (lambda: from_word(a2, "12"), NotARoot, "simple index '1' out of range 1..2"),
        (lambda: is_reduced(a2, [1.5]), NotARoot, "simple index 1.5 out of range 1..2"),
        (lambda: normalize_levi(a2, [1.5]), NotARoot, "Levi index 1.5 out of range 1..2"),
        (lambda: normalize_levi(a2, (1, True)), NotARoot, "Levi index True out of range 1..2"),
        (lambda: normalize_levi(a2, "12"), NotARoot, "Levi index '1' out of range 1..2"),
        (lambda: normalize_levi(a2, [0, 5]), NotARoot, "Levi index 0 out of range 1..2"),
        # letters checked inline: in from_word without a table, and all before the climb answers
        (lambda: from_word(e7, [9]), NotARoot, "simple index 9 out of range 1..7"),
        (lambda: from_word(e7, [True]), NotARoot, "simple index True out of range 1..7"),
        (lambda: is_reduced(a2, (1, 1, 5)), NotARoot, "simple index 5 out of range 1..2"),
        (lambda: exchange(a2, (1, 2), 3), NotARoot, "simple index 3 out of range 1..2"),
    ] + [
        # off the simple roots, with ids and without
        (lambda w=w, beta=beta: descent_direction(w, beta), error, message)
        for w in (born, bare)
        for beta, error, message in (((1, 0, 0), NotARoot, "(1, 0, 0) is not a root"),
                                     ((-1, 0), NotPositiveRoot, "(-1, 0) is not positive"))
    ]:
        with pytest.raises(error) as err:
            call()
        assert str(err.value) == message
    # a bool pair reads as the simple root it equals
    for w in enumerate_elements(a2) + (bare,):
        for twin, beta in (((True, False), (1, 0)), ((False, True), (0, 1))):
            assert descent_direction(w, twin) is descent_direction(w, beta)
