"""Symmetric-subgroup orbit graphs on the flag variety.

A graph stores, per node, a twisted involution of the Weyl group and, per
(simple root, node), a label drawn from the seven classical cases together
with the cross action and (partial) Cayley transform maps.  Graphs for
genuine symmetric pairs are data, validated against the structural axioms;
generated graphs exist for the diagonal case and for a synthetic harness on
twisted involutions.

Each label is a rank-one pattern: one row of the ``_RULES`` table gives the
class of the root, the cross move and the Cayley transform, and validate_kgb
reads every local axiom off that row.  The twist axioms (theta(w) = w^-1,
the cross action s_a * w * s_theta(a), the Cayley transform s_a * w) are
compared by component ids in the Weyl tables when the tables exist, and on
root images otherwise; validate_kgb builds no table.

Monoid words act first letter first, matching upward sequences of moves.
"""

from __future__ import annotations

import enum
import os
from collections import Counter, namedtuple
from types import MappingProxyType
from typing import NamedTuple

from .errors import (
    AxiomViolation,
    Mismatch,
    NoOpenNode,
    NotNoncompact,
    NotReal,
    ParseError,
    Unreachable,
)
from .orbit_poset import NodeId, OrbitGraph, node_sort_key, reduced_decomposition
from .root_datum import (
    RootDatum,
    build_root_datum,
    format_root_datum,
    is_m_alpha_trivial,
    parse_root_datum,
    parse_root_datum_lines,
    simple_root,
    _decimal,
    _node_lines,
    _significant_lines,
)
from .weyl import (
    WeylElt,
    _element,
    _ids,
    _layout,
    _s_times,
    _table,
    _times_s,
    _word,
    apply_twist,
    enumerate_elements,
    format_word,
    from_word,
    identity,
    inv,
    parse_word,
    reduced_word,
    simple_reflection,
)


class RootType(enum.Enum):
    """Label of a simple root relative to a node."""

    COMPLEX_ASCENT = "C+"
    COMPLEX_DESCENT = "C-"
    COMPACT_IMAGINARY = "ci"
    NONCOMPACT_I = "nci1"
    NONCOMPACT_II = "nci2"
    REAL_I = "r1"
    REAL_II = "r2"


# Each label's rank-one pattern, as validate_kgb checks it: the class the
# twisted involution must give the root; the cross action's length step (None:
# it fixes the node), the label of the node it moves to and the code for a
# wrong move; the Cayley target's label (None: no Cayley transform); and the
# number of Cayley preimages (None: not counted).
_Rule = namedtuple("_Rule", "cls step partner code cayley preimages")
_RULES = {
    RootType.COMPLEX_ASCENT: _Rule("complex", 1, RootType.COMPLEX_DESCENT, "AscentPattern", None, None),
    RootType.COMPLEX_DESCENT: _Rule("complex", -1, RootType.COMPLEX_ASCENT, "DescentPattern", None, None),
    RootType.COMPACT_IMAGINARY: _Rule("imaginary", None, None, "CompactMoved", None, None),
    RootType.NONCOMPACT_I: _Rule("imaginary", 0, RootType.NONCOMPACT_I, "TypeIPattern", RootType.REAL_I, None),
    RootType.NONCOMPACT_II: _Rule("imaginary", None, None, "TypeIIPattern", RootType.REAL_II, None),
    RootType.REAL_I: _Rule("real", None, None, "RealMoved", None, 2),
    RootType.REAL_II: _Rule("real", None, None, "RealMoved", None, 1),
}

_IMAGINARY_TYPES = frozenset(t for t, r in _RULES.items() if r.cls == "imaginary")
_NONCOMPACT_TYPES = frozenset(t for t, r in _RULES.items() if r.cayley)
_REAL_TYPES = frozenset(t for t, r in _RULES.items() if r.cls == "real")
# the monoid moves the node up the cross action or to the Cayley target
_ASCENT_TYPES = frozenset(t for t, r in _RULES.items() if r.step == 1 or r.cayley)


_GRAPH_FIELDS = ("datum", "nodes", "tw", "length", "label", "cross", "cayley")


class KgbGraph:
    """A K\\G/B graph: per node its twisted involution and length, and per
    (simple index, node) its root type, cross action and, for noncompact
    roots, Cayley transform.  ``nodes`` is kept sorted.  Two graphs are
    equal when these fields are; the memos do not count, and a graph is
    not hashable.  Immutable: the constructor keeps read-only copies of the
    five maps, so the memos never go stale.  It refuses with AxiomViolation
    a node listed twice, a length map whose keys are not the nodes, a length
    that is not an int and a node whose twisted involution is not a WeylElt
    of the graph's datum."""

    __slots__ = _GRAPH_FIELDS + ("_poset", "_open")

    def __init__(
        self,
        datum: RootDatum,
        nodes: tuple[NodeId, ...],
        tw: dict[NodeId, WeylElt],
        length: dict[NodeId, int],
        label: dict[tuple[int, NodeId], RootType],
        cross: dict[tuple[int, NodeId], NodeId],
        cayley: dict[tuple[int, NodeId], NodeId],
    ):
        bad = [f"BadLength: node={v}" for v, n in length.items() if not isinstance(n, int)]
        bad += [f"DuplicateNode: node={v}" for v, n in Counter(nodes).items() if n > 1]
        bad += [f"ExtraLength: node={v}" for v in length.keys() - set(nodes)]
        for v in dict.fromkeys(nodes):
            if v not in length:
                bad.append(f"MissingLength: node={v}")
            w = tw.get(v)
            if w.__class__ is not WeylElt or w.datum != datum:
                bad.append(f"BadTw: node={v}")
        if bad:
            bad.sort()
            raise AxiomViolation(bad)
        maps = [MappingProxyType(dict(m)) for m in (tw, length, label, cross, cayley)]
        # Memos, filled on first use: the orbit poset (to_orbit_poset), whose
        # fiber table every move reads and which keeps the classes per Levi
        # set, and the open node.
        values = (datum, tuple(sorted(nodes, key=node_sort_key)), *maps, None, None)
        for f, v in zip(self.__slots__, values):
            object.__setattr__(self, f, v)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in _GRAPH_FIELDS])

    def __eq__(self, other):
        if other.__class__ is not KgbGraph:
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        datum, nodes, *maps = self._key()
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(_GRAPH_FIELDS, [datum, nodes, *map(dict, maps)]))
        return f"KgbGraph({fields})"

    def _require(self, v: NodeId) -> None:
        if v not in self.length:
            raise Mismatch(f"unknown node {v!r}")

    def _require_at(self, alpha: int, v: NodeId) -> None:
        self._require(v)
        if not 1 <= alpha <= self.datum.rank:
            raise Mismatch(f"simple index {alpha} out of range 1..{self.datum.rank}")


# --- twisted involutions -----------------------------------------------------


def _twisted_ids(datum: RootDatum) -> list[int]:
    """Table ids of the w with theta(w) = w^-1, in id order.  theta on ids is
    one pass in id order: w = s_a * x, with a the first letter of w's word,
    has theta(w) = s_twist(a) * theta(x), and x has a smaller id."""
    table = _table(datum)
    theta = [0] * len(table.words)
    for k in range(1, len(theta)):
        a = table.words[k][0]
        theta[k] = table.left[datum.twist[a - 1] - 1][theta[table.left[a - 1][k]]]
    return [k for k, t in enumerate(theta) if t == table.inverse[k]]


def twisted_involutions(datum: RootDatum) -> tuple[WeylElt, ...]:
    """All w with theta(w) equal to the inverse, in id order."""
    elements = enumerate_elements(datum)
    return tuple(elements[k] for k in _twisted_ids(datum))


# --- elementary queries ------------------------------------------------------


def root_type(g: KgbGraph, alpha: int, v: NodeId) -> RootType:
    g._require_at(alpha, v)
    return g.label[(alpha, v)]


def cross_action(g: KgbGraph, alpha: int, v: NodeId) -> NodeId:
    g._require_at(alpha, v)
    return g.cross[(alpha, v)]


def cayley(g: KgbGraph, alpha: int, v: NodeId) -> NodeId:
    g._require_at(alpha, v)
    if g.label[(alpha, v)] not in _NONCOMPACT_TYPES:
        raise NotNoncompact(f"root {alpha} is not noncompact imaginary at node {v}")
    return g.cayley[(alpha, v)]


def _below(poset: OrbitGraph, alpha: int, k: int) -> list[int]:
    """The positions one step down from k along alpha: the other members of
    its fiber when k is the dense one."""
    got = poset._entry(alpha, k)
    return [j for j in got[1] if j != k] if got and got[0] == k else []


def inverse_cayley(g: KgbGraph, alpha: int, v: NodeId) -> tuple[NodeId, ...]:
    g._require_at(alpha, v)
    if g.label[(alpha, v)] not in _REAL_TYPES:
        raise NotReal(f"root {alpha} is not real at node {v}")
    poset = to_orbit_poset(g)
    return tuple(poset.nodes[j] for j in _below(poset, alpha, poset.index[v]))


def monoid(g: KgbGraph, alpha: int, v: NodeId) -> NodeId:
    """Move to the dense node of the fiber; fixes v unless alpha is an ascent."""
    return monoid_word(g, (alpha,), v)


def monoid_word(g: KgbGraph, word, v: NodeId) -> NodeId:
    """Apply a sequence of simple monoid moves, first letter first."""
    poset = to_orbit_poset(g)
    k = poset._position(v)
    for alpha in word:
        got = poset._entry(alpha, k)
        if got:
            k = got[0]
    return poset.nodes[k]


def monoid_elt(g: KgbGraph, w: WeylElt, v: NodeId) -> NodeId:
    """Monoid element of w evaluated through its canonical reduced word; the
    result is word-independent once the braid checks pass."""
    if w.datum != g.datum:
        raise Mismatch("element belongs to a different root datum")
    return monoid_word(g, reduced_word(w), v)


# --- validation ----------------------------------------------------------------


def _braid_order(datum: RootDatum, a: int, b: int) -> int:
    prod = datum.cartan[a - 1][b - 1] * datum.cartan[b - 1][a - 1]
    return {0: 2, 1: 3, 2: 4, 3: 6}[prod]


def _twist_kernels(datum: RootDatum, elements: list[WeylElt]):
    """How validate_kgb compares twisted involutions, chosen once per call:
    the key of each element, move(x, a, b) giving the key of s_a * x * s_b
    (of s_a * x when b is None), and twisted(x), whether theta(x) = x^-1.
    Keys are component ids when the datum's tables exist: s_a and s_b are
    a left and a right row, and theta moves the id of a component whose
    letters it keeps (so its table), else acts on its canonical word letter
    by letter.  Otherwise they are the elements, moved by the root-image kernels; no table is built."""
    layout = _layout(datum)
    tables = layout.tables()
    hits = tables and [_ids(w) for w in elements]
    if not tables or None in hits:

        def move(x, a, b=None):
            y = _s_times(a, x)
            return y if b is None else _times_s(y, b)

        return elements, move, lambda x: apply_twist(x) == inv(x)

    where = layout.where
    # theta sends letter a of part c to letter b of part d: image[c][a - 1]; onto[c] = d where b = a throughout
    image = [[where[datum.twist[i] - 1] for i in part] for part in layout.parts]
    onto = [p[0][0] if p == [(p[0][0], a) for a in range(1, len(p) + 1)] else None for p in image]

    def move(x, a, b=None):
        y = list(x)
        c, i = where[a - 1]
        y[c] = tables[c].left[i - 1][y[c]]
        if b is not None:
            c, i = where[b - 1]
            y[c] = tables[c].right[i - 1][y[c]]
        return tuple(y)

    def twisted(x):
        y = [0] * len(x)
        for c, k in enumerate(x):
            if onto[c] is not None:
                y[onto[c]] = k
                continue
            for a in tables[c].words[k]:
                d, b = image[c][a - 1]
                y[d] = tables[d].right[b - 1][y[d]]
        return y == [t.inverse[k] for t, k in zip(tables, x)]

    return [hit[1] for hit in hits], move, twisted


def validate_kgb(g: KgbGraph) -> list[str]:
    """Check the structural axioms; returns sorted human-readable violations.
    The ascent criterion is deliberately not examined here, see
    ascent_consistency_check."""
    datum, nodes, tw, length = g.datum, g.nodes, g.tw, g.length
    out: list[str] = []
    preimages = Counter((alpha, t) for (alpha, _), t in g.cayley.items())
    tw_keys, move, is_twisted = _twist_kernels(datum, [tw[v] for v in nodes])
    key_of = dict(zip(nodes, tw_keys))

    for v, x in zip(nodes, tw_keys):
        if length[v] < 0:
            out.append(f"BadLength: node={v}")
        if not is_twisted(x):
            out.append(f"TwNotTwisted: node={v}")

    # The cross action as rows of positions per root, local to this call:
    # k is nodes[k], n a missing entry, and past n a target that is not a
    # node; the last two lead to n, where a braid walk stops.
    n = len(nodes)
    pos = {v: k for k, v in enumerate((*nodes, None))}
    rows = []
    for alpha in range(1, datum.rank + 1):
        theta = datum.twist[alpha - 1]
        alpha_root = simple_root(datum, alpha)
        minus_alpha = tuple(-c for c in alpha_root)
        trivial = is_m_alpha_trivial(datum, alpha)
        keys = [(alpha, v) for v in nodes]
        labels = list(map(g.label.get, keys))
        targets = list(map(g.cross.get, keys))
        row = [pos.setdefault(t, len(pos)) for t in targets]
        rows.append(row)
        # s_alpha * x * s_theta(alpha) is an involution on x, so the CrossTwist
        # verdict at v holds at cr too when cr crosses back to v.
        twisted = {}
        for k, v in enumerate(nodes):
            lab, cr, j = labels[k], targets[k], row[k]
            if lab is None or j == n:
                out.append(f"MissingLabel: alpha={alpha} node={v}")
                continue
            if j > n:
                out.append(f"UnknownNode: alpha={alpha} node={v} cross={cr}")
                continue
            # None when cr has no label here: that is reported as MissingLabel
            # at cr, and the checks against the partner are skipped.
            partner = labels[j] if row[j] != n else None
            if partner is not None and row[j] != k:
                out.append(f"CrossNotInvolution: alpha={alpha} node={v}")
            cls, step, mate, code, real, want = _RULES[lab]
            img = tw[v].images[theta - 1]
            if cls != ("imaginary" if img == alpha_root else "real" if img == minus_alpha else "complex"):
                out.append(f"LabelClass: alpha={alpha} node={v} label={lab.value} not {cls}")
            # twisted involution transforms uniformly under the cross action
            bad = twisted.pop(k) if k in twisted else move(tw_keys[k], alpha, theta) != tw_keys[j]
            if bad:
                out.append(f"CrossTwist: alpha={alpha} node={v}")
            if row[j] == k:
                twisted[j] = bad
            if (cr != v) if step is None else (cr == v or length[cr] != length[v] + step):
                out.append(f"{code}: alpha={alpha} node={v}")
            elif mate is not None and partner not in (None, mate):
                out.append(f"PartnerLabel: alpha={alpha} node={v}")
            if trivial and lab in (RootType.NONCOMPACT_I, RootType.REAL_I):
                out.append(f"TypeIForbidden: alpha={alpha} node={v} (m_alpha trivial)")
            key = keys[k]
            if want is not None and preimages[key] != want:
                out.append(f"InverseCayleyCount: alpha={alpha} node={v} got={preimages[key]} want={want}")
            if (key in g.cayley) != (real is not None):
                out.append(f"{'Missing' if real is not None else 'Spurious'}Cayley: alpha={alpha} node={v}")
            elif real is not None:
                t = g.cayley[key]
                if t not in length:
                    out.append(f"UnknownNode: alpha={alpha} node={v} cayley={t}")
                else:
                    if length[t] != length[v] + 1:
                        out.append(f"CayleyLength: alpha={alpha} node={v}")
                    if g.label.get((alpha, t)) is not real:
                        out.append(f"CayleyTarget: alpha={alpha} node={v} expected {real.value}")
                    if move(tw_keys[k], alpha) != key_of[t]:
                        out.append(f"CayleyTwist: alpha={alpha} node={v}")
                    # type I: the cross partner shares the Cayley target
                    if step is not None and partner is not None and g.cayley.get((alpha, cr)) != t:
                        out.append(f"SharedCayley: alpha={alpha} node={v}")

    # cross actions must satisfy the braid relations pairwise, walked from
    # every node at once; a walk that reached n met a gap, reported above
    rows = [row + [n] * (len(pos) - n) for row in rows]
    for a in range(1, datum.rank + 1):
        for b in range(a + 1, datum.rank + 1):
            x, y, ra, rb = range(n), range(n), rows[a - 1], rows[b - 1]
            for _ in range(_braid_order(datum, a, b)):
                x, y, ra, rb = [ra[k] for k in x], [rb[k] for k in y], rb, ra
            out.extend(f"CrossBraid: alpha={a} beta={b} node={v}" for v, p, q in zip(nodes, x, y) if p != q and n not in (p, q))

    return sorted(out)


def ascent_consistency_check(g: KgbGraph) -> list[str]:
    """The direction criterion: a label is an ascent exactly when the twisted
    involution sends the twisted simple root to a positive root and the label
    is not compact imaginary."""
    to_orbit_poset(g)  # refuses a graph with a move missing
    out = []
    for alpha in range(1, g.datum.rank + 1):
        theta = g.datum.twist[alpha - 1]
        for v in g.nodes:
            lab = g.label[(alpha, v)]
            img = g.tw[v].images[theta - 1]
            predicted = all(c >= 0 for c in img) and lab is not RootType.COMPACT_IMAGINARY
            if (lab in _ASCENT_TYPES) != predicted:
                out.append(f"AscentCriterion: alpha={alpha} node={v} label={lab.value}")
    return sorted(out)


def minimal_w_uniqueness_check(g: KgbGraph) -> list[str]:
    """For each start node and reachable target, the minimal-length group
    elements whose monoid action sends start to target must be unique.

    The monoid action factors through the 0-Hecke monoid (Richardson-
    Springer), so a letter that leaves the node fixed can be dropped: a
    minimal w lengthens itself and its node at every letter, and lies in
    layer l(t) - l(u) of the walk from u that appends only such letters.
    The walk runs over (w, node) pairs, w held as one table id per
    component of the datum's Dynkin diagram, and never tabulates the whole
    group; a component is tabulated only if some ascent uses its letters.

    Precondition: the monoid action satisfies the braid relations, so that
    every reduced word of w acts alike.  Then the answer is that of acting
    by each element's canonical word.  validate_kgb checks the braid
    relations of the cross action only; on a graph whose Cayley moves break
    them, the two readings may list different words."""
    datum = g.datum
    layout = _layout(datum)
    poset = to_orbit_poset(g)
    ascents = [
        [(a, row[k][0]) for a, row in enumerate(poset._table, 1) if row[k] and row[k][0] != k]
        for k in range(len(poset.nodes))
    ]
    # w is the tuple of its component ids.  A letter of part c moves entry c
    # along the letter's right row in that table, when the move lengthens it.
    tables = [None] * len(layout.parts)
    for c in {layout.where[a - 1][0] for row in ascents for a, _ in row}:
        tables[c] = _table(layout.subs[c])
    moves = {}
    for a in {a for row in ascents for a, _ in row}:
        c, local = layout.where[a - 1]
        moves[a] = (c, tables[c].right[local - 1], tables[c].length)

    out = []
    for u in range(len(ascents)):
        layer = {u: {(0,) * len(tables)}}  # node -> the w reaching it
        while layer:
            nxt: dict[int, set[tuple[int, ...]]] = {}
            for x, ws in layer.items():
                if len(ws) > 1:
                    listed = ";".join(map(format_word, sorted(_word(datum, tables, w) for w in ws)))
                    out.append(f"MinimalWNotUnique: start={poset.nodes[u]} target={poset.nodes[x]} words={listed}")
                for a, y in ascents[x]:
                    c, row, length = moves[a]
                    got = [w[:c] + (j,) + w[c + 1 :] for w in ws if length[j := row[w[c]]] > length[w[c]]]
                    if got:
                        nxt.setdefault(y, set()).update(got)
            layer = nxt
    return sorted(out)


# --- export -------------------------------------------------------------------


def to_orbit_poset(g: KgbGraph) -> OrbitGraph:
    """The orbit graph of g, built once and kept on g with its order.  Its
    fiber table holds every move: along alpha, the monoid sends a node to
    its fiber's dense member, and the dense member steps down to the others
    (across a complex descent, or to the Cayley preimages of a real root).
    Raises AxiomViolation with validate_kgb's list unless every node has a
    label and a cross target along every root, and a Cayley target where the
    label is noncompact, all of them nodes: what the moves read."""
    if g._poset is not None:
        return g._poset
    fibers = []
    for alpha in range(1, g.datum.rank + 1):
        for v in g.nodes:
            lab = g.label.get((alpha, v))
            cr = g.cross.get((alpha, v))
            t = g.cayley.get((alpha, v)) if lab in _NONCOMPACT_TYPES else cr
            if lab is None or cr not in g.length or t not in g.length:
                raise AxiomViolation(validate_kgb(g))
            if lab in _ASCENT_TYPES:
                fibers.append((alpha, t, (v, cr, t)))
    poset = OrbitGraph(g.datum.name or "custom", g.datum.rank, g.length, fibers)
    object.__setattr__(g, "_poset", poset)
    return poset


# --- generated graphs -----------------------------------------------------------


def doubled_datum(datum: RootDatum) -> RootDatum:
    """Two commuting copies of the datum with the swap twist."""
    r = datum.rank
    zero = [0] * r

    def block(mat):
        top = [list(row) + zero for row in mat]
        bottom = [zero + list(row) for row in mat]
        return tuple(tuple(row) for row in top + bottom)

    spec = f"{datum.name}x{datum.name}" if datum.name else block(datum.cartan)
    twist = tuple(range(r + 1, 2 * r + 1)) + tuple(range(1, r + 1))
    rows = block(datum.coroot_images) if datum.isogeny == "lattice" else None
    return build_root_datum(spec, isogeny=datum.isogeny, twist=twist, coroot_rows=rows)


def group_case(datum: RootDatum) -> KgbGraph:
    """The diagonal symmetric pair: nodes are group elements, every label is
    complex, and the two copies of each simple root act by the two sides."""
    dd = doubled_datum(datum)
    elements = enumerate_elements(datum)
    table = _table(datum)
    # The components of dd are those of datum, then their copies; node k's
    # twisted involution acts as k on the first copy and k^-1 on the second.
    comp_ids = [_ids(w)[1] for w in elements]
    ids = [str(k) for k in range(len(elements))]
    r = datum.rank
    tw = {}
    length = {}
    label = {}
    cross = {}
    for k in range(len(elements)):
        v = ids[k]
        tw[v] = _element(dd, comp_ids[k] + comp_ids[table.inverse[k]])
        length[v] = table.length[k]
        for i in range(1, r + 1):
            for alpha, moved in ((i, table.left[i - 1][k]), (r + i, table.right[i - 1][k])):
                up = table.length[moved] > length[v]
                label[(alpha, v)] = RootType.COMPLEX_ASCENT if up else RootType.COMPLEX_DESCENT
                cross[(alpha, v)] = ids[moved]
    return KgbGraph(dd, tuple(ids), tw, length, label, cross, {})


def twisted_shadow(datum: RootDatum) -> KgbGraph:
    """Synthetic test harness: nodes are the twisted involutions, and every
    imaginary root is treated as noncompact type II.  Not a symmetric pair,
    except on adjoint A1, where it is the PGL2 graph (pgl2_split)."""
    table = _table(datum)
    left, right, weyl_length = table.left, table.right, table.length
    invs = _twisted_ids(datum)
    # The label and move of each simple root a at each w, with b = twist(a):
    # s_a * w = w * s_b exactly when w(alpha_b) = +-alpha_a, and the sign is
    # + when w * s_b is the longer.  Otherwise a is complex, moving w to
    # s_a * w * s_b.
    moves = {}
    for k in invs:
        row = moves[k] = []
        for a in range(1, datum.rank + 1):
            ws = right[datum.twist[a - 1] - 1][k]
            if left[a - 1][k] != ws:
                other = left[a - 1][ws]
                longer = weyl_length[other] > weyl_length[k]
                row.append((RootType.COMPLEX_ASCENT if longer else RootType.COMPLEX_DESCENT, other))
            elif weyl_length[ws] > weyl_length[k]:
                row.append((RootType.NONCOMPACT_II, ws))
            else:
                row.append((RootType.REAL_II, k))
    # Lengths along upward moves from the identity, in one pass in id order:
    # an upward move lengthens the Weyl element, so it leads to a larger id.
    depth = {0: 0}
    for k in invs:
        if k not in depth:
            raise Unreachable("some twisted involution is unreachable from the identity")
        for lab, up in moves[k]:
            if lab in _ASCENT_TYPES and depth.setdefault(up, depth[k] + 1) != depth[k] + 1:
                raise Unreachable("inconsistent lengths among twisted involutions")

    order = sorted(invs, key=lambda k: (depth[k], table.words[k]))
    ids = {k: str(i) for i, k in enumerate(order)}
    label = {}
    cross = {}
    cay = {}
    for k in order:
        v = ids[k]
        for alpha, (lab, t) in enumerate(moves[k], 1):
            label[(alpha, v)] = lab
            cross[(alpha, v)] = v if lab is RootType.NONCOMPACT_II else ids[t]
            if lab is RootType.NONCOMPACT_II:
                cay[(alpha, v)] = ids[t]
    elements = enumerate_elements(datum)
    tw = {ids[k]: elements[k] for k in order}
    length = {ids[k]: depth[k] for k in order}
    return KgbGraph(datum, tuple(ids.values()), tw, length, label, cross, cay)


# --- hand-built fixtures ----------------------------------------------------------


def sl2_split() -> KgbGraph:
    """Rank one, simply connected, split: two closed orbits joined by the cross
    action, both Cayley-ascending to the open orbit (type I pattern)."""
    datum = build_root_datum("A1")
    e = identity(datum)
    s = simple_reflection(datum, 1)
    return KgbGraph(
        datum,
        ("0", "1", "2"),
        {"0": e, "1": e, "2": s},
        {"0": 0, "1": 0, "2": 1},
        {
            (1, "0"): RootType.NONCOMPACT_I,
            (1, "1"): RootType.NONCOMPACT_I,
            (1, "2"): RootType.REAL_I,
        },
        {(1, "0"): "1", (1, "1"): "0", (1, "2"): "2"},
        {(1, "0"): "2", (1, "1"): "2"},
    )


def pgl2_split() -> KgbGraph:
    """Rank one, adjoint, split: the torus element of order two is trivial, so
    the noncompact root is forced to type II (single closed orbit).  This is
    twisted_shadow of adjoint A1."""
    return twisted_shadow(build_root_datum("A1", isogeny="adjoint"))


def a1xa1_swap() -> KgbGraph:
    """Two commuting copies swapped by the twist; both roots complex.  This
    is group_case(A1)."""
    return group_case(build_root_datum("A1"))


def builtin_fixtures() -> dict[str, KgbGraph]:
    """Named graphs shipped with the package, in a deterministic order."""
    out = {
        "sl2_split": sl2_split(),
        "pgl2_split": pgl2_split(),
        "a1xa1_swap": a1xa1_swap(),
    }
    for name in ("A1", "A2", "B2"):
        out[f"group_case_{name.lower()}"] = group_case(build_root_datum(name))
    return out


# --- canonical sequences -----------------------------------------------------------


class CanonicalSequences(NamedTuple):
    """Two ways to reach a node: up from a closed node by monoid moves, and
    down from the open node with a recorded branch at every double-valued
    inverse Cayley."""

    start: NodeId
    up: tuple[int, ...]
    open_node: NodeId
    down: tuple[tuple[int, int | None], ...]


def _open_node(g: KgbGraph) -> NodeId:
    """The unique node of maximal length, found once and kept on g."""
    if g._open is None:
        top = max(g.length.values(), default=None)
        at_top = [v for v in g.nodes if g.length[v] == top]
        if len(at_top) != 1:
            raise NoOpenNode(f"expected a unique maximal-length node, found {len(at_top)}")
        object.__setattr__(g, "_open", at_top[0])
    return g._open


def canonical_sequences(g: KgbGraph, v: NodeId) -> CanonicalSequences:
    poset = to_orbit_poset(g)
    rd = reduced_decomposition(poset, v)
    open_node = _open_node(g)
    top, k = poset.index[open_node], poset.index[v]
    down = []  # from v up, reversed at the end
    while k != top:
        for alpha, row in enumerate(poset._table, 1):
            dense, members = row[k] or (k, ())
            if dense != k:
                break
        else:
            raise Unreachable(f"node {poset.nodes[k]} has no ascent but is not the open node")
        branch = _below(poset, alpha, dense).index(k) if len(members) > 2 else None
        down.append((alpha, branch))
        k = dense
    return CanonicalSequences(rd.nodes[0], rd.roots, open_node, tuple(reversed(down)))


def replay_upward(g: KgbGraph, start: NodeId, up) -> NodeId:
    return monoid_word(g, up, start)


def replay_downward(g: KgbGraph, down) -> NodeId:
    """Walk down from the open node; a branch picks among two lower nodes and
    may be None where there is one."""
    poset = to_orbit_poset(g)
    k = poset.index[_open_node(g)]
    for alpha, branch in down:
        below = _below(poset, alpha, k)
        if branch is None and len(below) == 1:
            branch = 0
        if type(branch) is not int or not 0 <= branch < len(below):
            raise Mismatch(f"no step down from node {poset.nodes[k]} along root {alpha} with branch {branch!r}")
        k = below[branch]
    return poset.nodes[k]


# --- text format ----------------------------------------------------------------------

FORMAT_HEADER = "kgbgraph v1"

_TYPE_BY_CODE = {t.value: t for t in RootType}


def format_kgb(g: KgbGraph) -> str:
    lines = [FORMAT_HEADER, "rootsystem inline"]
    lines.extend(format_root_datum(g.datum).rstrip("\n").split("\n"))
    lines.append(f"nodes {len(g.nodes)}")
    for v in g.nodes:
        lines.append(f"node {v} {g.length[v]} {format_word(reduced_word(g.tw[v]))}")
    for v in g.nodes:
        for alpha in range(1, g.datum.rank + 1):
            lab = g.label[(alpha, v)]
            parts = [f"label {v} {alpha} {lab.value} cross={g.cross[(alpha, v)]}"]
            if (alpha, v) in g.cayley:
                parts.append(f"cayley={g.cayley[(alpha, v)]}")
            lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def save_kgb(g: KgbGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_kgb(g))


def parse_kgb(text: str, base_dir=None) -> KgbGraph:
    """Parse and validate; a structurally bad graph raises AxiomViolation."""
    lines = _significant_lines(text)
    if not lines or lines[0] != FORMAT_HEADER:
        raise ParseError(f"expected header {FORMAT_HEADER!r}")
    if len(lines) < 2 or not lines[1].startswith("rootsystem"):
        raise ParseError("expected a rootsystem line")
    fields = lines[1].split()
    if fields == ["rootsystem", "inline"]:
        datum, rest = parse_root_datum_lines(lines[2:])
    elif len(fields) == 3 and fields[1] == "file":
        ref = fields[2]
        path = ref if os.path.isabs(ref) or base_dir is None else os.path.join(base_dir, ref)
        with open(path, "r", encoding="utf-8") as fh:
            datum = parse_root_datum(fh.read())
        rest = lines[2:]
    else:
        raise ParseError(f"bad rootsystem line: {lines[1]!r}")

    tw = {}
    length = {}
    for name, n, fields in _node_lines(rest, 4):
        length[name] = n
        tw[name] = from_word(datum, parse_word(datum, fields[3]))
    label = {}
    cross = {}
    cay = {}
    for line in rest[1 + len(length) :]:
        fields = line.split()
        if fields[0] != "label" or len(fields) not in (5, 6):
            raise ParseError(f"bad label line: {line!r}")
        name = fields[1]
        if name not in length:
            raise ParseError(f"label for unknown node {name!r}")
        alpha = _decimal(fields[2])
        if alpha is None:
            raise ParseError(f"bad simple index in {line!r}")
        if not 1 <= alpha <= datum.rank:
            raise ParseError(f"simple index out of range in {line!r}")
        if fields[3] not in _TYPE_BY_CODE:
            raise ParseError(f"unknown label code in {line!r}")
        if (alpha, name) in label:
            raise ParseError(f"duplicate label for node {name!r}, root {alpha}")
        label[(alpha, name)] = _TYPE_BY_CODE[fields[3]]
        if not fields[4].startswith("cross="):
            raise ParseError(f"bad cross field in {line!r}")
        cross[(alpha, name)] = fields[4][len("cross=") :]
        if len(fields) == 6:
            if not fields[5].startswith("cayley="):
                raise ParseError(f"bad cayley field in {line!r}")
            cay[(alpha, name)] = fields[5][len("cayley=") :]
    g = KgbGraph(datum, tuple(length), tw, length, label, cross, cay)
    violations = validate_kgb(g)
    if violations:
        raise AxiomViolation(violations)
    return g


def load_kgb(path) -> KgbGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_kgb(fh.read(), base_dir=os.path.dirname(os.path.abspath(path)))
