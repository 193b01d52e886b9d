"""Orbits on a partial flag variety, as equivalence classes of graph nodes.

Fixing a subset I of the simple roots, two nodes are identified when a
chain of fibers along roots of I connects them.  Every class carries a
unique member of maximal length; those members are exactly the nodes dense
in their fiber along every root of I, and they inherit the closure order.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import AxiomViolation, Mismatch
from .kgb import KgbGraph, monoid, monoid_word, to_orbit_poset
from .orbit_poset import NodeId, cover_pairs, node_sort_key, poset_leq
from .parabolic import levi_subgroup_elements
from .root_datum import RootPosition, classify_wrt_parabolic, normalize_levi, simple_root
from .weyl import _apply, format_word, reduced_word, reflection_word


def p_maximal_set(g: KgbGraph, levi) -> tuple[NodeId, ...]:
    """Nodes dense in their fiber along every root of the Levi set."""
    levi = normalize_levi(g.datum, levi)
    poset = to_orbit_poset(g)
    rows = [poset._table[alpha - 1] for alpha in levi]
    return tuple(v for k, v in enumerate(poset.nodes) if all(not row[k] or row[k][0] == k for row in rows))


class IEquivClass(NamedTuple):
    """A class of nodes over a fixed Levi set, with its dense member.

    members are kept sorted for deterministic reporting."""

    members: tuple[NodeId, ...]
    top: NodeId


def _classes(g: KgbGraph, levi) -> tuple[tuple[IEquivClass, ...], dict[NodeId, IEquivClass]]:
    """The classes over a Levi set and the class of each node, computed once
    per graph and normalized Levi set and kept on the graph."""
    levi = normalize_levi(g.datum, levi)
    got = g._classes.get(levi)
    if got is not None:
        return got
    poset = to_orbit_poset(g)
    rows = [poset._table[alpha - 1] for alpha in levi]
    lens = poset._len
    seen = [False] * len(lens)
    classes = []
    for start in range(len(lens)):
        if seen[start]:
            continue
        seen[start] = True
        block = [start]  # the component of start, grown while it is walked
        for k in block:
            for row in rows:
                for j in row[k][1] if row[k] else ():
                    if not seen[j]:
                        seen[j] = True
                        block.append(j)
        members = tuple(poset.nodes[k] for k in sorted(block))
        top_len = max(lens[k] for k in block)
        tops = [k for k in block if lens[k] == top_len]
        if len(tops) != 1:
            raise AxiomViolation(
                [f"NonUniqueTop: levi={levi} members={','.join(members)}"]
            )
        classes.append(IEquivClass(members, poset.nodes[tops[0]]))
    ordered = tuple(sorted(classes, key=lambda c: node_sort_key(c.top)))
    got = g._classes[levi] = (ordered, {v: c for c in ordered for v in c.members})
    return got


def i_equivalence_classes(g: KgbGraph, levi) -> tuple[IEquivClass, ...]:
    return _classes(g, levi)[0]


def class_of(g: KgbGraph, levi, v: NodeId) -> IEquivClass:
    g._require(v)
    return _classes(g, levi)[1][v]


def _check_class(g: KgbGraph, levi, cls: IEquivClass) -> None:
    if _classes(g, levi)[1].get(cls.top) != cls:
        raise Mismatch(f"class with top {cls.top!r} does not belong to this graph")


def kgp_leq(g: KgbGraph, levi, c1: IEquivClass, c2: IEquivClass) -> bool:
    """Order on classes through their dense members."""
    _check_class(g, levi, c1)
    _check_class(g, levi, c2)
    return poset_leq(to_orbit_poset(g), c1.top, c2.top)


def kgp_leq_induced(g: KgbGraph, levi, c1: IEquivClass, c2: IEquivClass) -> bool:
    """Brute-force induced order: some member of c1 lies below some member
    of c2."""
    _check_class(g, levi, c1)
    _check_class(g, levi, c2)
    poset = to_orbit_poset(g)
    return any(
        poset_leq(poset, u, v) for u in c1.members for v in c2.members
    )


def monoid_descent_check(g: KgbGraph, levi) -> list[str]:
    """Replacing a simple root outside the Levi set by any Levi conjugate
    must land the monoid move in the same class, for dense class members."""
    levi = normalize_levi(g.datum, levi)
    datum = g.datum
    index = _classes(g, levi)[1]
    members = levi_subgroup_elements(datum, levi)
    # the word of each Levi conjugate depends on (alpha, w) only
    conjugates = {
        alpha: [(w, reflection_word(datum, _apply(w, simple_root(datum, alpha)))) for w in members]
        for alpha in range(1, datum.rank + 1) if alpha not in levi
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
    members = levi_subgroup_elements(datum, levi)
    out = []
    for alpha in range(1, datum.rank + 1):
        if alpha in levi:
            continue
        alpha_root = simple_root(datum, alpha)
        for w in members:
            beta = _apply(w, alpha_root)
            if beta[alpha - 1] != 1:
                out.append(f"AlphaCoefficient: alpha={alpha} beta={beta}")
            elif classify_wrt_parabolic(datum, beta, levi) is not RootPosition.NILRADICAL:
                out.append(f"NotNilradical: alpha={alpha} beta={beta}")
    return sorted(out)
