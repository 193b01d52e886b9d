"""U(p, q) from (p, q)-clans: the closed forms, the axioms and the text form."""

from itertools import combinations
from math import comb

import pytest

from clans import clan_graph, yamamoto_count
from flagorbits import (
    ascent_consistency_check,
    distinct_ascents_check,
    format_kgb,
    i_equivalence_classes,
    kgp_leq,
    kgp_leq_induced,
    minimal_w_uniqueness_check,
    parse_kgb,
    property_z_check,
    sl2_split,
    to_orbit_poset,
    validate_kgb,
)

# every (p, q) with 2 <= p + q <= 6; p = 0 or q = 0 is the compact form
SIGNATURES = [(p, n - p) for n in range(2, 7) for p in range(n + 1)]


@pytest.mark.parametrize("p,q", SIGNATURES)
def test_clan_graphs_meet_the_closed_forms_and_the_axioms(p, q):
    g = clan_graph(p, q)
    lengths = sorted(g.length.values())
    # Yamamoto's count, C(n, p) closed orbits, one open orbit of length pq
    assert len(g.nodes) == yamamoto_count(p, q)
    assert lengths.count(0) == comb(p + q, p)
    assert lengths[-1] == p * q and lengths.count(p * q) == 1
    assert validate_kgb(g) == [] and ascent_consistency_check(g) == []
    assert property_z_check(to_orbit_poset(g)) == []
    text = format_kgb(g)
    again = parse_kgb(text)
    assert again == g and format_kgb(again) == text


def test_kgp_order_is_the_induced_order_on_u33():
    # every Levi set of U(3, 3): the order through the class tops is the
    # order induced by all member pairs
    g = clan_graph(3, 3)
    pairs = 0
    for k in range(6):
        for levi in combinations(range(1, 6), k):
            classes = i_equivalence_classes(g, levi)
            for c1 in classes:
                for c2 in classes:
                    assert kgp_leq(g, levi, c1, c2) == kgp_leq_induced(g, levi, c1, c2), (levi, c1.top, c2.top)
            pairs += len(classes) ** 2
    assert pairs == 131448


def test_u11_is_sl2_split():
    assert clan_graph(1, 1) == sl2_split()


def test_uniqueness_checks_fail_on_genuine_pairs_too():
    # as on the diagonal ones (test_kgb, test_kgp): the two checks overclaim
    # on genuine symmetric pairs as well, consistently with Brion's W-sets
    # (Comment. Math. Helv. 76, 2001)
    assert minimal_w_uniqueness_check(clan_graph(2, 1)) == ["MinimalWNotUnique: start=1 target=5 words=1,2;2,1"]
    assert distinct_ascents_check(clan_graph(2, 2), ()) == ["DistinctAscents: v=19 alpha=1 beta=3"]
