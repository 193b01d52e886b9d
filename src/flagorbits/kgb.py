"""Symmetric-subgroup orbit graphs on the flag variety.

A graph stores, per node, a twisted involution of the Weyl group and, per
(simple root, node), a label drawn from the seven classical cases together
with the cross action and (partial) Cayley transform maps.  Graphs for
genuine symmetric pairs are data, validated against the structural axioms;
generated graphs exist for the diagonal case and for a synthetic harness on
twisted involutions.

The graph keeps its nodes in node order and, per simple root, three rows
indexed by position: the label as a small int (its rule's index in
``_RULES``), the cross target and the Cayley target (the layout of the Atlas
software, Adams-du Cloux, J. Inst. Math. Jussieu 8, 2009).  The builders,
parse_kgb and the dict constructor fill the rows, the last two refusing
rows that miss a move; validate_kgb, format_kgb, ascent_consistency_check,
to_orbit_poset and the moves read them.  Each rule gives the
class of the root, the cross move and the Cayley transform, and validate_kgb
reads every local axiom off it.  The twist axioms (theta(w) = w^-1, the
cross action s_a * w * s_theta(a), the Cayley transform s_a * w) are
compared by component ids in the Weyl tables when the tables exist, and on
the weights w(2 rho) otherwise; validate_kgb builds no table.

Monoid words act first letter first, matching upward sequences of moves.
"""

from __future__ import annotations

import enum
import os
from collections import Counter, namedtuple
from types import MappingProxyType
from typing import NamedTuple

from .errors import AxiomViolation, Mismatch, NoOpenNode, NotNoncompact, NotReal, ParseError, Unreachable
from .orbit_poset import NodeId, OrbitGraph, node_sort_key, reduced_decomposition
from .root_datum import RootDatum, build_root_datum, format_root_datum, is_m_alpha_trivial, parse_root_datum
from .root_datum import parse_root_datum_lines, simple_root, twist_root, _decimal, _node_lines, _significant_lines
from .weyl import WeylElt, _ids, _layout, _moved, _reflected, _root_column, _spell, _table, _weight, _word
from .weyl import enumerate_elements, format_word, from_word, identity, parse_word, reduced_word, simple_reflection


class RootType(enum.Enum):
    """Label of a simple root relative to a node."""

    COMPLEX_ASCENT = "C+"
    COMPLEX_DESCENT = "C-"
    COMPACT_IMAGINARY = "ci"
    NONCOMPACT_I = "nci1"
    NONCOMPACT_II = "nci2"
    REAL_I = "r1"
    REAL_II = "r2"


# A label is stored as its code, its index in _TYPES and in _RULES.
_TYPES = tuple(RootType)
_CODE = {t: c for c, t in enumerate(_TYPES)}
_UP, _DOWN, _CI, _NCI1, _NCI2, _R1, _R2 = range(len(_TYPES))

# Each label's rank-one pattern, as validate_kgb checks it: the class the
# twisted involution must give the root; the cross action's length step (None:
# it fixes the node), the label of the node it moves to and the code for a
# wrong move; the Cayley target's label (None: no Cayley transform); and the
# number of Cayley preimages (None: not counted).
_Rule = namedtuple("_Rule", "cls step partner code cayley preimages")
_RULES = (
    _Rule("complex", 1, _DOWN, "AscentPattern", None, None),
    _Rule("complex", -1, _UP, "DescentPattern", None, None),
    _Rule("imaginary", None, None, "CompactMoved", None, None),
    _Rule("imaginary", 0, _NCI1, "TypeIPattern", _R1, None),
    _Rule("imaginary", None, None, "TypeIIPattern", _R2, None),
    _Rule("real", None, None, "RealMoved", None, 2),
    _Rule("real", None, None, "RealMoved", None, 1),
)

_NONCOMPACT = frozenset(c for c, r in enumerate(_RULES) if r.cayley is not None)
# the monoid moves the node up the cross action or to the Cayley target
_ASCENT = frozenset(c for c, r in enumerate(_RULES) if r.step == 1 or r.cayley is not None)


class KgbGraph:
    """A K\\G/B graph: per node its twisted involution and length, and per
    (simple index, node) its root type, cross action and, for noncompact
    roots, Cayley transform.

    Held by position in ``nodes``, which is kept in node order: ``_len`` and
    ``_tw`` per node, and per simple index alpha, row alpha - 1 of
    ``_label`` (label codes), ``_cross`` and ``_cayley`` (target positions):
    every label and cross target is there, and a Cayley target wherever the
    label is noncompact or the graph gave one, None elsewhere.  ``tw`` and
    ``length`` are read-only mappings by node, built once with the rows.

    The constructor lowers its dicts, keyed by node and by (alpha, node), to
    the rows, and refuses with AxiomViolation, one sorted line per entry,
    what they cannot hold: a node listed twice, a length or twisted
    involution of a node that is not listed, a missing length or one that
    is not an int, a twisted involution that is not a WeylElt of the graph's
    datum, a label, cross or Cayley entry keyed by an unknown node or an
    index outside 1..rank, a label that is not a RootType or a target None,
    and every move the rows then miss (see _move_faults).  Two graphs are
    equal when their rows are, targets named; the memos do not count, and a
    graph is not hashable.  Immutable, so the memos never go stale."""

    __slots__ = ("datum", "nodes", "tw", "length", "_index", "_len", "_tw", "_label", "_cross", "_cayley")
    __slots__ += ("_poset", "_open")

    def __init__(self, datum: RootDatum, nodes, tw: dict, length: dict, label: dict, cross: dict, cayley: dict):
        listed = dict.fromkeys(nodes)
        bad = [f"BadLength: node={v}" for v, n in length.items() if not isinstance(n, int)]
        bad += [f"DuplicateNode: node={v}" for v, n in Counter(nodes).items() if n > 1]
        bad += [f"Extra{f}: node={v}" for f, given in (("Length", length), ("Tw", tw)) for v in given.keys() - listed.keys()]
        for v in listed:
            if v not in length:
                bad.append(f"MissingLength: node={v}")
            w = tw.get(v)
            if w.__class__ is not WeylElt or w.datum != datum:
                bad.append(f"BadTw: node={v}")
        nodes = tuple(sorted(listed, key=node_sort_key))
        index, n, rank = {v: k for k, v in enumerate(nodes)}, len(nodes), datum.rank
        far: dict = {}  # a target that is not a node -> its position
        rows = []
        for field, entries in (("Label", label), ("Cross", cross), ("Cayley", cayley)):
            rows.append([[None] * n for _ in range(rank)])
            for (alpha, v), t in entries.items():
                k = index.get(v) if alpha.__class__ is int and 0 < alpha <= rank else None
                if k is None or (t not in _CODE if field == "Label" else t is None):
                    bad.append(f"Bad{field}: alpha={alpha!r} node={v}")
                else:
                    rows[-1][alpha - 1][k] = _CODE[t] if field == "Label" else index[t] if t in index else far.setdefault(t, n + len(far))
        bad += _move_faults(nodes, *rows, far)
        if bad:
            raise AxiomViolation(sorted(bad))
        self._fill(datum, nodes, [length[v] for v in nodes], [tw[v] for v in nodes], *rows)

    def _fill(self, datum, nodes, lens, tws, labels, cross, cayley):
        """Set every field, in slot order, from nodes in node order and rows
        that hold every move (_move_faults finds none).  The memos, filled on
        first use, are the orbit poset (see to_orbit_poset) and the open
        node."""
        maps = (MappingProxyType(dict(zip(nodes, got))) for got in (tws, lens))
        index = {v: k for k, v in enumerate(nodes)}
        values = (datum, nodes, *maps, index, lens, tws, labels, cross, cayley, None, None)
        for f, v in zip(self.__slots__, values):
            object.__setattr__(self, f, v)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> dict:
        """The constructor's arguments by name, spelled from the rows: tw and
        length by node, and label, cross and cayley by (alpha, node), in
        (alpha, node) order."""

        def keyed(rows, names):
            return {(a, v): names[j] for a, row in enumerate(rows, 1) for v, j in zip(self.nodes, row) if j is not None}

        return {"datum": self.datum, "nodes": self.nodes, "tw": dict(self.tw), "length": dict(self.length),
                "label": keyed(self._label, _TYPES), "cross": keyed(self._cross, self.nodes), "cayley": keyed(self._cayley, self.nodes)}

    def __eq__(self, other):
        if other.__class__ is not KgbGraph:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"KgbGraph({', '.join(f'{f}={v!r}' for f, v in self._fields().items())})"

    def _require(self, v: NodeId) -> None:
        if v not in self._index:
            raise Mismatch(f"unknown node {v!r}")

    def _require_at(self, alpha: int, v: NodeId) -> int:
        """The position of v, once v is a node and alpha a simple index."""
        self._require(v)
        if alpha.__class__ is not int or not 1 <= alpha <= self.datum.rank:
            raise Mismatch(f"simple index {alpha!r} out of range 1..{self.datum.rank}")
        return self._index[v]


def _move_faults(nodes, labels, cross, cayley, far) -> list[str]:
    """The lines refusing rows that miss a move, the first fault of each
    (alpha, node): no label or no cross entry (None), a cross or Cayley
    target that is no node (at position n + i for the i-th name of far), or
    a noncompact label with no Cayley target."""
    n, names, out = len(nodes), (*nodes, *far), []
    for alpha, rows in enumerate(zip(labels, cross, cayley), 1):
        for v, lab, j, t in zip(nodes, *rows):
            if lab is None or j is None:
                out.append(f"MissingLabel: alpha={alpha} node={v}")
            elif j >= n:
                out.append(f"UnknownNode: alpha={alpha} node={v} cross={names[j]}")
            elif t is None:
                if lab in _NONCOMPACT:
                    out.append(f"MissingCayley: alpha={alpha} node={v}")
            elif t >= n:
                out.append(f"UnknownNode: alpha={alpha} node={v} cayley={names[t]}")
    return out


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
    k = g._require_at(alpha, v)
    return _TYPES[g._label[alpha - 1][k]]


def cross_action(g: KgbGraph, alpha: int, v: NodeId) -> NodeId:
    k = g._require_at(alpha, v)
    return g.nodes[g._cross[alpha - 1][k]]


def cayley(g: KgbGraph, alpha: int, v: NodeId) -> NodeId:
    k = g._require_at(alpha, v)
    if g._label[alpha - 1][k] not in _NONCOMPACT:
        raise NotNoncompact(f"root {alpha} is not noncompact imaginary at node {v}")
    return g.nodes[g._cayley[alpha - 1][k]]


def _below(poset: OrbitGraph, alpha: int, k: int) -> list[int]:
    """The positions one step down from k along alpha: the other members of
    its fiber when k is the dense one."""
    got = poset._entry(alpha, k)
    return [j for j in got[1] if j != k] if got and got[0] == k else []


def inverse_cayley(g: KgbGraph, alpha: int, v: NodeId) -> tuple[NodeId, ...]:
    k = g._require_at(alpha, v)
    if _RULES[g._label[alpha - 1][k]].cls != "real":
        raise NotReal(f"root {alpha} is not real at node {v}")
    return tuple(g.nodes[j] for j in _below(to_orbit_poset(g), alpha, k))


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
    the key of each element, column(b), w(alpha_b) for each element w,
    moved(a, b)(k), the key of s_a * x * s_b for the k-th element x (of
    s_a * x when b is None), and twisted(k), whether theta(x) = x^-1.  Keys
    are component ids when the datum's tables exist: s_a and s_b map a
    column of ids through a left and a right row, and theta moves the id of
    a component whose letters it keeps (so its table), else acts on its
    canonical word letter by letter.  Otherwise, building no table, keys are
    the weights x(2 rho), and each element's canonical word is spelled once:
    column(b) walks alpha_b back through the words, the weight of a product
    is 2 rho moved along its letters, last first, and theta(x) = x^-1 when
    2 rho moved along x's word, first letter first, is theta(x(2 rho))."""
    layout = _layout(datum)
    tables = layout.tables()
    if not tables:
        two = (2,) * datum.rank
        keys = [_weight(x) for x in elements]
        words = [_spell(datum, mu) for mu in keys]

        def column(b):
            alpha = simple_root(datum, b)
            return [_reflected(datum, alpha, reversed(word)) for word in words]

        def moved(a, b=None):
            if b is None:
                return lambda k: _moved(datum, keys[k], (a,)).weight
            return lambda k: _moved(datum, two, (b, *reversed(words[k]), a)).weight

        return keys, column, moved, lambda k: _moved(datum, two, words[k]).weight == twist_root(datum, keys[k])

    where = layout.where
    # theta sends letter a of part c to letter b of part d: image[c][a - 1]; onto[c] = d where b = a throughout
    image = [[where[datum.twist[i] - 1] for i in part] for part in layout.parts]
    onto = [p[0][0] if p == [(p[0][0], a) for a in range(1, len(p) + 1)] else None for p in image]
    keys = [_ids(w)[1] for w in elements]
    columns = list(zip(*keys)) or [()] * len(tables)  # columns[c][k]: the id of part c of element k

    def moved(a, b=None):
        ids = list(columns)
        c, i = where[a - 1]
        ids[c] = list(map(tables[c].left[i - 1].__getitem__, ids[c]))
        if b is not None:
            c, i = where[b - 1]
            ids[c] = list(map(tables[c].right[i - 1].__getitem__, ids[c]))
        return list(zip(*ids)).__getitem__

    def twisted(node):
        x, y = keys[node], [0] * len(tables)
        for c, k in enumerate(x):
            if onto[c] is not None:
                y[onto[c]] = k
                continue
            for a in tables[c].words[k]:
                d, b = image[c][a - 1]
                y[d] = tables[d].right[b - 1][y[d]]
        return y == [t.inverse[k] for t, k in zip(tables, x)]

    return keys, lambda b: _root_column(datum, elements, b), moved, twisted


def validate_kgb(g: KgbGraph) -> list[str]:
    """Check the structural axioms; returns sorted human-readable violations.
    The ascent criterion is deliberately not examined here, see
    ascent_consistency_check.  Reads the rows, which hold every move."""
    datum, nodes, lens, n = g.datum, g.nodes, g._len, len(g.nodes)
    out: list[str] = []
    tw_keys, column, moved, is_twisted = _twist_kernels(datum, g._tw)

    for k, (v, length) in enumerate(zip(nodes, lens)):
        if length < 0:
            out.append(f"BadLength: node={v}")
        if not is_twisted(k):
            out.append(f"TwNotTwisted: node={v}")

    for alpha, labels, targets, cays in zip(range(1, datum.rank + 1), g._label, g._cross, g._cayley):
        theta = datum.twist[alpha - 1]
        alpha_root = simple_root(datum, alpha)
        minus_alpha = tuple(-c for c in alpha_root)
        trivial = is_m_alpha_trivial(datum, alpha)
        preimages = Counter(cays)
        images = column(theta)  # w(alpha_theta) for each node's w
        classes = ["imaginary" if img == alpha_root else "real" if img == minus_alpha else "complex" for img in images]
        # the keys of s_alpha * x * s_theta(alpha), and of s_alpha * x once a Cayley target needs them
        crossed, raised = moved(alpha, theta), None
        matched = [False] * n
        for k, (v, lab, j) in enumerate(zip(nodes, labels, targets)):
            if targets[j] != k:
                out.append(f"CrossNotInvolution: alpha={alpha} node={v}")
            cls, step, mate, code, real, want = _RULES[lab]
            if cls != classes[k]:
                out.append(f"LabelClass: alpha={alpha} node={v} label={_TYPES[lab].value} not {cls}")
            # twisted involution transforms uniformly under the cross action, an
            # involution: when j's move reached k, k's reaches j
            matched[k] = matched[j] and targets[j] == k or crossed(k) == tw_keys[j]
            if not matched[k]:
                out.append(f"CrossTwist: alpha={alpha} node={v}")
            if (j != k) if step is None else (j == k or lens[j] != lens[k] + step):
                out.append(f"{code}: alpha={alpha} node={v}")
            elif mate is not None and labels[j] != mate:
                out.append(f"PartnerLabel: alpha={alpha} node={v}")
            if trivial and lab in (_NCI1, _R1):
                out.append(f"TypeIForbidden: alpha={alpha} node={v} (m_alpha trivial)")
            if want is not None and (got := preimages[k]) != want:
                out.append(f"InverseCayleyCount: alpha={alpha} node={v} got={got} want={want}")
            t = cays[k]
            if real is None and t is not None:
                out.append(f"SpuriousCayley: alpha={alpha} node={v}")
            elif real is not None:
                if lens[t] != lens[k] + 1:
                    out.append(f"CayleyLength: alpha={alpha} node={v}")
                if labels[t] != real:
                    out.append(f"CayleyTarget: alpha={alpha} node={v} expected {_TYPES[real].value}")
                raised = raised or moved(alpha)
                if raised(k) != tw_keys[t]:
                    out.append(f"CayleyTwist: alpha={alpha} node={v}")
                # type I: the cross partner shares the Cayley target
                if step is not None and cays[j] != t:
                    out.append(f"SharedCayley: alpha={alpha} node={v}")

    # cross actions must satisfy the braid relations pairwise, walked from
    # every node at once
    for a in range(1, datum.rank + 1):
        for b in range(a + 1, datum.rank + 1):
            x, y, ra, rb = range(n), range(n), g._cross[a - 1], g._cross[b - 1]
            for _ in range(_braid_order(datum, a, b)):
                x, y, ra, rb = list(map(ra.__getitem__, x)), list(map(rb.__getitem__, y)), rb, ra
            if x != y:
                out.extend(f"CrossBraid: alpha={a} beta={b} node={v}" for v, p, q in zip(nodes, x, y) if p != q)

    return sorted(out)


def ascent_consistency_check(g: KgbGraph) -> list[str]:
    """The direction criterion: a label is an ascent exactly when the twisted
    involution sends the twisted simple root to a positive root and the label
    is not compact imaginary."""
    out, column = [], _twist_kernels(g.datum, g._tw)[1]
    for alpha, labels in enumerate(g._label, 1):
        for v, lab, img in zip(g.nodes, labels, column(g.datum.twist[alpha - 1])):
            predicted = min(img) >= 0 and lab != _CI
            if (lab in _ASCENT) != predicted:
                out.append(f"AscentCriterion: alpha={alpha} node={v} label={_TYPES[lab].value}")
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
    (across a complex descent, or to the Cayley preimages of a real root)."""
    if g._poset is not None:
        return g._poset
    n, table = len(g.nodes), []
    for labels, targets, cays in zip(g._label, g._cross, g._cayley):
        row: list = [None] * n
        for k, (lab, j, c) in enumerate(zip(labels, targets, cays)):
            if lab in _ASCENT:
                t = c if lab in _NONCOMPACT else j
                entry = (t, tuple(sorted({k, j, t})))
                for m in entry[1]:
                    row[m] = entry
        table.append(row)
    poset = OrbitGraph.__new__(OrbitGraph)._fill(g.datum.name or "custom", g.nodes, g._len, table)
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
    dd, table, elements = doubled_datum(datum), _table(datum), enumerate_elements(datum)
    lens = list(table.length)
    # The components of dd are those of datum, then their copies: node k's
    # twisted involution is k on the first and k^-1 on the second.
    _layout(dd).tables()  # found, for the images read off the keys
    tws = [WeylElt(dd, None, elements[k].ids + elements[j].ids) for k, j in enumerate(table.inverse)]
    moves = table.left + table.right
    labels = [[_DOWN if lens[m] < n else _UP for m, n in zip(row, lens)] for row in moves]
    nodes = tuple(map(str, range(len(lens))))
    return KgbGraph.__new__(KgbGraph)._fill(dd, nodes, lens, tws, labels, moves, [(None,) * len(lens)] * len(moves))


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
                row.append((_UP if longer else _DOWN, other))
            elif weyl_length[ws] > weyl_length[k]:
                row.append((_NCI2, ws))
            else:
                row.append((_R2, k))
    # Lengths along upward moves from the identity, in one pass in id order:
    # an upward move lengthens the Weyl element, so it leads to a larger id.
    depth = {0: 0}
    for k in invs:
        if k not in depth:
            raise Unreachable("some twisted involution is unreachable from the identity")
        for lab, up in moves[k]:
            if lab in _ASCENT and depth.setdefault(up, depth[k] + 1) != depth[k] + 1:
                raise Unreachable("inconsistent lengths among twisted involutions")

    order = sorted(invs, key=lambda k: (depth[k], table.words[k]))
    position = {k: i for i, k in enumerate(order)}
    rows = [[moves[k][a] for k in order] for a in range(datum.rank)]
    labels = [[lab for lab, _ in row] for row in rows]
    cross = [[i if lab == _NCI2 else position[t] for i, (lab, t) in enumerate(row)] for row in rows]
    cay = [[position[t] if lab == _NCI2 else None for lab, t in row] for row in rows]
    elements = enumerate_elements(datum)
    nodes, tws = tuple(map(str, range(len(order)))), [elements[k] for k in order]
    return KgbGraph.__new__(KgbGraph)._fill(datum, nodes, [depth[k] for k in order], tws, labels, cross, cay)


# --- hand-built fixtures ----------------------------------------------------------


def sl2_split() -> KgbGraph:
    """Rank one, simply connected, split: two closed orbits joined by the cross
    action, both Cayley-ascending to the open orbit (type I pattern)."""
    datum = build_root_datum("A1")
    e, s = identity(datum), simple_reflection(datum, 1)
    return KgbGraph(
        datum, ("0", "1", "2"), {"0": e, "1": e, "2": s}, {"0": 0, "1": 0, "2": 1},
        {(1, "0"): RootType.NONCOMPACT_I, (1, "1"): RootType.NONCOMPACT_I, (1, "2"): RootType.REAL_I},
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
        top = max(g._len, default=None)
        at_top = [v for v, n in zip(g.nodes, g._len) if n == top]
        if len(at_top) != 1:
            raise NoOpenNode(f"expected a unique maximal-length node, found {len(at_top)}")
        object.__setattr__(g, "_open", at_top[0])
    return g._open


def canonical_sequences(g: KgbGraph, v: NodeId) -> CanonicalSequences:
    """The climb takes the first root that moves a node to a dense one; a
    climb that comes back to a node raises Unreachable."""
    poset = to_orbit_poset(g)
    rd = reduced_decomposition(poset, v)
    open_node = _open_node(g)
    top, k = poset.index[open_node], poset.index[v]
    down = []  # from v up, reversed at the end
    for _ in poset.nodes:  # a climb that does not come back passes each node once
        if k == top:
            break
        for alpha, row in enumerate(poset._table, 1):
            dense, members = row[k] or (k, ())
            if dense != k:
                break
        else:
            raise Unreachable(f"node {poset.nodes[k]} has no ascent but is not the open node")
        if row[dense] is not row[k]:  # dense's fiber, one entry shared by its members, does not list k
            raise Unreachable(f"node {poset.nodes[k]} is not one step below node {poset.nodes[dense]} along root {alpha}")
        branch = _below(poset, alpha, dense).index(k) if len(members) > 2 else None
        down.append((alpha, branch))
        k = dense
    if k != top:
        raise Unreachable(f"the climb from node {v} comes back to a node below the open node")
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

_CODE_BY_TEXT = {t.value: c for c, t in enumerate(_TYPES)}


def format_kgb(g: KgbGraph) -> str:
    """The text form, written from the rows."""
    lines = [FORMAT_HEADER, "rootsystem inline"]
    lines.extend(format_root_datum(g.datum).rstrip("\n").split("\n"))
    lines.append(f"nodes {len(g.nodes)}")
    lines += [f"node {v} {n} {format_word(reduced_word(w))}" for v, n, w in zip(g.nodes, g._len, g._tw)]
    names, text = g.nodes, [t.value for t in _TYPES]
    for v, labels, targets, cays in zip(names, zip(*g._label), zip(*g._cross), zip(*g._cayley)):
        for alpha, lab, j, t in zip(range(1, g.datum.rank + 1), labels, targets, cays):
            line = f"label {v} {alpha} {text[lab]} cross={names[j]}"
            lines.append(line if t is None else f"{line} cayley={names[t]}")
    return "\n".join(lines) + "\n"


def save_kgb(g: KgbGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_kgb(g))


def parse_kgb(text: str, base_dir=None) -> KgbGraph:
    """Parse and validate: a graph missing a move raises AxiomViolation with
    _move_faults' lines, any other structurally bad one with validate_kgb's."""
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

    read = [(name, n, from_word(datum, parse_word(datum, fields[3]))) for name, n, fields in _node_lines(rest, 4)]
    read.sort(key=lambda line: node_sort_key(line[0]))
    nodes = tuple(name for name, _, _ in read)
    index, n, rank = {v: k for k, v in enumerate(nodes)}, len(nodes), datum.rank
    labels, cross, cay = ([[None] * n for _ in range(rank)] for _ in range(3))
    far: dict[str, int] = {}  # a target that is not a node -> its position
    alphas = {str(a): a for a in range(1, rank + 1)}
    for line in rest[1 + n :]:
        fields = line.split()
        if fields[0] != "label" or len(fields) not in (5, 6):
            raise ParseError(f"bad label line: {line!r}")
        k = index.get(fields[1])
        if k is None:
            raise ParseError(f"label for unknown node {fields[1]!r}")
        alpha = alphas.get(fields[2]) or _decimal(fields[2])
        if alpha is None:
            raise ParseError(f"bad simple index in {line!r}")
        if not 1 <= alpha <= rank:
            raise ParseError(f"simple index out of range in {line!r}")
        code = _CODE_BY_TEXT.get(fields[3])
        if code is None:
            raise ParseError(f"unknown label code in {line!r}")
        row = labels[alpha - 1]
        if row[k] is not None:
            raise ParseError(f"duplicate label for node {fields[1]!r}, root {alpha}")
        row[k] = code
        if not fields[4].startswith("cross="):
            raise ParseError(f"bad cross field in {line!r}")
        t = fields[4][6:]
        cross[alpha - 1][k] = index[t] if t in index else far.setdefault(t, n + len(far))
        if len(fields) == 6:
            if not fields[5].startswith("cayley="):
                raise ParseError(f"bad cayley field in {line!r}")
            t = fields[5][7:]
            cay[alpha - 1][k] = index[t] if t in index else far.setdefault(t, n + len(far))
    violations = sorted(_move_faults(nodes, labels, cross, cay, far))
    if not violations:
        g = KgbGraph.__new__(KgbGraph)._fill(datum, nodes, [n for _, n, _ in read], [w for _, _, w in read], labels, cross, cay)
        violations = validate_kgb(g)
    if violations:
        raise AxiomViolation(violations)
    return g


def load_kgb(path) -> KgbGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_kgb(fh.read(), base_dir=os.path.dirname(os.path.abspath(path)))
