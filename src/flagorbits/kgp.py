"""Orbits on a partial flag variety, as equivalence classes of graph nodes.

Fixing a subset I of the simple roots, two nodes are identified when a
chain of fibers along roots of I connects them.  Every class carries a
unique member of maximal length, its top (a tie is refused); on a valid
graph the tops are exactly the nodes dense in their fiber along every root
of I, the P-maximal set, and they inherit the closure order.  The classes
are walked on the graph's orbit poset and kept there per Levi set, as for
any orbit graph.
"""

from __future__ import annotations

from .errors import Mismatch
from .kgb import KgbGraph, monoid, monoid_word, to_orbit_poset
from .orbit_poset import IEquivClass, NodeId, OrbitGraph, _levi_classes, cover_pairs, poset_leq
from .parabolic import levi_subgroup_elements
from .root_datum import RootPosition, classify_wrt_parabolic, normalize_levi, simple_root
from .weyl import _apply, format_word, reduced_word, reflection_word


def _classes(g: KgbGraph, levi) -> tuple[tuple[IEquivClass, ...], dict[NodeId, IEquivClass]]:
    """The classes over a Levi set and the class of each node, kept on the
    orbit poset per normalized Levi set (a tuple of ints kept there is one;
    a bool or a float equal to an index would find its entry too)."""
    got = g._poset and levi.__class__ is tuple and all(i.__class__ is int for i in levi) and g._poset._classes.get(levi)
    if not got:
        levi = normalize_levi(g.datum, levi)
        got = _levi_classes(to_orbit_poset(g), levi)
    return got


def p_maximal_set(g: KgbGraph, levi) -> tuple[NodeId, ...]:
    """The class tops: on a valid graph, the nodes dense in their fiber
    along every root of the Levi set."""
    return tuple(c.top for c in _classes(g, levi)[0])


def i_equivalence_classes(g: KgbGraph, levi) -> tuple[IEquivClass, ...]:
    return _classes(g, levi)[0]


def class_of(g: KgbGraph, levi, v: NodeId) -> IEquivClass:
    g._require(v)
    return _classes(g, levi)[1][v]


def _check_classes(g: KgbGraph, levi, *classes: IEquivClass) -> OrbitGraph:
    """The orbit poset of g, once the classes are found among its classes
    over the Levi set."""
    index = _classes(g, levi)[1]
    for cls in classes:
        if index.get(cls.top) != cls:
            raise Mismatch(f"class with top {cls.top!r} does not belong to this graph")
    return g._poset


def kgp_leq(g: KgbGraph, levi, c1: IEquivClass, c2: IEquivClass) -> bool:
    """Order on classes through their dense members."""
    return poset_leq(_check_classes(g, levi, c1, c2), c1.top, c2.top)


def kgp_leq_induced(g: KgbGraph, levi, c1: IEquivClass, c2: IEquivClass) -> bool:
    """Brute-force induced order: some member of c1 lies below some member
    of c2."""
    poset = _check_classes(g, levi, c1, c2)
    return any(
        poset_leq(poset, u, v) for u in c1.members for v in c2.members
    )


def monoid_descent_check(g: KgbGraph, levi) -> list[str]:
    """Replacing a simple root outside the Levi set by any Levi conjugate
    must land the monoid move in the same class, for dense class members."""
    levi = normalize_levi(g.datum, levi)
    datum = g.datum
    index = _classes(g, levi)[1]
    outside = [a for a in range(1, datum.rank + 1) if a not in levi]
    # the Levi subgroup is read only against a root outside it
    members = levi_subgroup_elements(datum, levi) if outside else ()
    # the word of each Levi conjugate depends on (alpha, w) only
    conjugates = {
        alpha: [(w, reflection_word(datum, _apply(w, simple_root(datum, alpha)))) for w in members]
        for alpha in outside
    }
    out = []
    for v in p_maximal_set(g, levi):
        for alpha, spelled in conjugates.items():
            base = index[monoid(g, alpha, v)]
            for w, word in spelled:
                if index[monoid_word(g, word, v)] != base:
                    out.append(
                        f"MonoidDescent: v={v} alpha={alpha} "
                        f"w={format_word(reduced_word(w))}"
                    )
    return sorted(out)


def find_descent_counterexample(g: KgbGraph, levi):
    """First witness (dense member, other member, simple index) where the
    naive monoid move leaves the two in different classes, else None."""
    levi = normalize_levi(g.datum, levi)
    classes, index = _classes(g, levi)
    outside = [a for a in range(1, g.datum.rank + 1) if a not in levi]
    for cls in classes:
        v = cls.top
        for u in cls.members:
            if u == v:
                continue
            for alpha in outside:
                if index[monoid(g, alpha, v)] != index[monoid(g, alpha, u)]:
                    return (v, u, alpha)
    return None


def distinct_ascents_check(g: KgbGraph, levi) -> list[str]:
    """Two genuinely ascending moves from a dense class member along distinct
    roots outside the Levi set must land in distinct classes."""
    levi = normalize_levi(g.datum, levi)
    index = _classes(g, levi)[1]
    outside = [a for a in range(1, g.datum.rank + 1) if a not in levi]
    out = []
    for v in p_maximal_set(g, levi):
        moved = [(a, t) for a in outside if (t := monoid(g, a, v)) != v]
        for i, (a, ta) in enumerate(moved):
            for b, tb in moved[i + 1 :]:
                if index[ta] == index[tb]:
                    out.append(f"DistinctAscents: v={v} alpha={a} beta={b}")
    return sorted(out)


def class_hasse(g: KgbGraph, levi) -> tuple[tuple[NodeId, NodeId], ...]:
    """Cover relations of the class poset, as pairs of dense members."""
    poset = to_orbit_poset(g)
    tops = sum(1 << poset.index[c.top] for c in i_equivalence_classes(g, levi))
    return tuple(cover_pairs(poset, tops))


def levi_conjugate_root_check(datum, levi) -> list[str]:
    """For a simple root outside the Levi set, every Levi conjugate must keep
    coefficient one at that root and stay outside the Levi span."""
    levi = normalize_levi(datum, levi)
    outside = [a for a in range(1, datum.rank + 1) if a not in levi]
    # the Levi subgroup is read only against a root outside it
    members = levi_subgroup_elements(datum, levi) if outside else ()
    out = []
    for alpha in outside:
        alpha_root = simple_root(datum, alpha)
        for w in members:
            beta = _apply(w, alpha_root)
            if beta[alpha - 1] != 1:
                out.append(f"AlphaCoefficient: alpha={alpha} beta={beta}")
            elif classify_wrt_parabolic(datum, beta, levi) is not RootPosition.NILRADICAL:
                out.append(f"NotNilradical: alpha={alpha} beta={beta}")
    return sorted(out)
