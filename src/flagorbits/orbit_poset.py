"""Orbit graphs for a spherical subgroup acting on the flag variety.

Nodes are orbit identifiers (plain strings).  For each simple root the nodes
fall into fibers of size 1, 2, or 3 with a unique dense member; closure order
is recovered from this data alone, by downward lifting, and cross-checked
against subexpression enumeration.  A graph is its fiber table: the
constructor and the parser refuse a fiber the table cannot hold.
"""

from __future__ import annotations

from collections import defaultdict
from functools import reduce
from itertools import compress, count
from operator import itemgetter, or_
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import AxiomViolation, InvalidCartan, Mismatch, ParseError, TableTooLarge, Unreachable
from .root_datum import RANK_CAP, RootDatum, _decimal, _node_lines, _significant_lines, cartan_matrix, normalize_levi
from .weyl import TABLE_CAP, _layout, _move, _part_datum, group_order

NodeId = str
_BYTES = str.maketrans("01", "\0\1")  # a 0/1 string to the bytes compress reads


def node_sort_key(node: NodeId) -> tuple:
    """Numeric ids sort numerically (by digit count, then digits: int() fails on
    non-ASCII digits and on 4 301 digits), everything else lexicographically after."""
    digits = node.lstrip("0") if node.isascii() and node.isdigit() else None
    return (1, node) if digits is None else (0, len(digits), digits)


class OrbitGraph:
    """Immutable after construction; fibers of size one are implicit.  The
    constructor refuses with AxiomViolation, one sorted line each, a length
    that is not an int (BadLength), a fiber along an index that is not an
    int in 1..rank (BadSimpleIndex) and one naming an unknown node
    (UnknownNode), so the fiber table is the whole graph.

    Everything inside works on positions in ``nodes``, and so do validate,
    format_orbit_graph and parse_orbit_graph, which read and fill the fiber
    table: names appear only in output and in error messages.  ``index`` maps a
    node to its position.  Entry k of fiber table row alpha - 1 is the fiber of
    ``nodes[k]`` along alpha as (dense position, member positions), or None.
    ``_first[k]`` is the first step of _lowerings from k, (alpha, position), or
    None: one tuple per node, built with the table.  Lower ideals are int
    bitsets over positions, built by lower_ideal and kept on the graph: at most
    n * n / 8 bytes.  The first ideal also builds ``_pulls``: per root, one
    _kernel setting each position's bit from the other members of its fiber,
    and a bitset per length.  ``_walks[k]`` holds the subexpression endpoints
    of the decomposition of k along first steps (reduced_decomposition's, on a
    valid graph), built and kept like the ideals, with ``_steps``: per root,
    the kernel of non-dense members alone.  ``_classes`` keeps the classes of
    _levi_classes per Levi set.  ``_graded`` holds when the order is known to
    be graded by length (from_parabolic: Bruhat order on W^J)."""

    def __init__(
        self,
        rootsystem: str,
        rank: int,
        lengths: Mapping[NodeId, int],
        fibers: Iterable[tuple[int, NodeId, Sequence[NodeId]]],
    ):
        nodes = tuple(sorted(lengths, key=node_sort_key))
        bad = {f"BadLength: node={x} length={lengths[x]!r}" for x in nodes if not isinstance(lengths[x], int)}
        index = {node: k for k, node in enumerate(nodes)}
        table: list[list] = [[None] * len(nodes) for _ in range(rank)]
        for alpha, dense, members in fibers:
            ks = {index.get(dense), *map(index.get, members)}
            inside = alpha.__class__ is int and 1 <= alpha <= rank
            if inside and None not in ks:
                entry = (index[dense], tuple(sorted(ks)))
                for k in entry[1]:
                    table[alpha - 1][k] = entry
            else:  # names are spelled only for a refused fiber, those that sort alike in node order
                group = sorted({dense, *members}, key=lambda x: (node_sort_key(x), index.get(x, len(nodes)), x))
                tag = f"alpha={alpha!r} fiber={'/'.join(group)}"
                unknown = ",".join(x for x in group if x not in index)
                bad.add(f"UnknownNode: {tag} nodes={unknown}" if inside else f"BadSimpleIndex: {tag}")
        if bad:
            raise AxiomViolation(sorted(bad))
        self._fill(rootsystem, nodes, [lengths[x] for x in nodes], table)

    def _fill(self, rootsystem: str, nodes: tuple[NodeId, ...], lens: list[int], table: list[list], graded=False):
        """Set every field from nodes in node order, lengths and the final
        table rows.  Every field is set here, in this order, so that all
        graphs share one attribute layout."""
        self.rootsystem, self.rank, self.nodes, self._graded = rootsystem, len(table), nodes, graded
        self.index = {node: k for k, node in enumerate(nodes)}
        self.length, self._len, self._table = dict(zip(nodes, lens)), lens, table
        self._first = [next(_lowerings(self, k), None) for k in range(len(nodes))]
        self._ideals: list[int | None] = [None] * len(nodes)
        self._pulls: tuple[list, dict[int, int]] | None = None  # see _pull_kernels
        self._walks: list[int | None] = [None] * len(nodes)
        self._steps: list | None = None  # see subexpression_endpoints
        self._classes: dict[tuple[int, ...], tuple] = {}  # see _levi_classes
        return self

    def _position(self, node: NodeId) -> int:
        if node not in self.index:
            raise Mismatch(f"unknown node {node!r}")
        return self.index[node]

    def _entry(self, alpha: int, k: int) -> tuple[int, tuple[int, ...]] | None:
        if alpha.__class__ is not int or not 1 <= alpha <= self.rank:
            raise Mismatch(f"simple index {alpha!r} out of range 1..{self.rank}")
        return self._table[alpha - 1][k]

    def fiber(self, alpha: int, node: NodeId) -> tuple[NodeId, ...]:
        got = self._entry(alpha, self._position(node))
        return tuple(self.nodes[k] for k in got[1]) if got else (node,)

    def dense_node(self, alpha: int, node: NodeId) -> NodeId:
        got = self._entry(alpha, self._position(node))
        return self.nodes[got[0]] if got else node

    def stored_fibers(self) -> list[tuple[int, NodeId, tuple[NodeId, ...]]]:
        """Each explicit fiber once, sorted by simple index then dense node."""
        out = []
        for alpha, row in enumerate(self._table, 1):
            for dense, group in filter(None, dict.fromkeys(row)):
                out.append((alpha, self.nodes[dense], tuple(self.nodes[k] for k in group)))
        return sorted(out, key=lambda t: (t[0], node_sort_key(t[1])))


def _lowerings(g: OrbitGraph, k: int):
    """The steps down from position k, in order: (alpha, each other member)
    for every fiber along alpha with k as its dense member.  The first is
    kept in ``g._first``; reduced_decomposition and lower_ideal take it."""
    for alpha, row in enumerate(g._table, 1):
        got = row[k]
        if got is not None and got[0] == k:
            for j in got[1]:
                if j != k:
                    yield alpha, j


# --- construction from Weyl groups and parabolic quotients ------------------


def from_weyl(datum: RootDatum) -> OrbitGraph:
    return from_parabolic(datum, ())


def _coset_walk(datum: RootDatum, levi: tuple[int, ...]) -> tuple[list[NodeId], list[int], list[tuple]]:
    """The cosets W_levi * w as the W-orbit of the weight 1 off the Levi set
    and 0 on it (Bjorner-Brenti, GTM 231, ch. 2).  In fundamental-weight
    coordinates the move along alpha is weyl._move by mu_alpha, up exactly
    when mu_alpha > 0.  Walked in discovery order, letters increasing, a new
    point's word is its parent's plus the letter: the canonical word of its
    minimal representative.  Returns the words as names in (length, word)
    order, their lengths and the up moves (alpha - 1, lower, upper)."""
    count = group_order(datum) // group_order(_part_datum(datum, [i - 1 for i in levi]))
    if count > TABLE_CAP:
        size = "|W_L\\W|" if levi else "|W|"
        raise TableTooLarge(f"{size} = {count} is above the table cap of {TABLE_CAP} elements")
    start = tuple(int(i not in levi) for i in range(1, datum.rank + 1))
    points, index, names, lens, ups = [start], {start: 0}, ["e"], [0], []
    rows = _layout(datum).rows
    for k, mu in enumerate(points):  # the list grows while it is walked
        for a, c in enumerate(mu):
            if c > 0:
                nu = list(mu)
                _move(rows[a], nu, c)
                nu = tuple(nu)
                j = index.setdefault(nu, len(points))
                if j == len(points):
                    points.append(nu)
                    names.append(f"{names[k]},{a + 1}" if k else str(a + 1))
                    lens.append(lens[k] + 1)
                ups.append((a, k, j))
    return names, lens, ups


def from_parabolic(datum: RootDatum, levi) -> OrbitGraph:
    """The orbit graph of P\\G/B: a node per coset of _coset_walk, named by its
    word, and per up move along alpha a fiber with the upper node dense."""
    levi = normalize_levi(datum, levi)
    names, lens, ups = _coset_walk(datum, levi)
    order = sorted(range(len(names)), key=lambda k: node_sort_key(names[k]))
    position = sorted(range(len(order)), key=order.__getitem__)
    table: list[list] = [[None] * len(order) for _ in range(datum.rank)]
    for a, k, j in ups:
        p, q = position[k], position[j]
        table[a][p] = table[a][q] = (q, (p, q) if p < q else (q, p))
    label = (datum.name or "custom") + (" levi " + ",".join(map(str, levi)) if levi else "")
    nodes = tuple(names[k] for k in order)
    return OrbitGraph.__new__(OrbitGraph)._fill(label, nodes, [lens[k] for k in order], table, graded=True)


# --- validation --------------------------------------------------------------


def validate(g: OrbitGraph) -> list[str]:
    """Check every structural axiom; empty list means the graph is a genuine
    orbit graph as far as the fiber data can tell.  Fibers are checked on
    positions; names are spelled only for a fiber that fails."""
    lens, nodes = g._len, g.nodes
    violations = [f"BadLength: node={x} length={n!r}" for x, n in zip(nodes, lens) if n < 0]
    for alpha, row in enumerate(g._table, 1):
        for d, ks in dict.fromkeys(filter(None, row)):
            if len(ks) <= 3 and all(row[k][1] == ks and lens[d] - lens[k] == (k != d) for k in ks):
                continue
            tag = f"alpha={alpha} fiber={'/'.join(nodes[k] for k in ks)}"
            if len(ks) > 3:
                violations.append(f"FiberTooLarge: {tag} size={len(ks)}")
            violations += [f"FiberIncoherent: {tag} node={nodes[k]}" for k in ks if row[k][1] != ks]
            top = max(lens[k] for k in ks)
            at_top = [k for k in ks if lens[k] == top]
            if len(at_top) != 1:
                violations.append(f"NoDenseNode: {tag} maximal={','.join(nodes[k] for k in at_top)}")
            elif at_top[0] != d:
                violations.append(f"NoDenseNode: {tag} stored dense {nodes[d]} is not the longest")
            else:
                violations += [f"BadLengthGap: {tag} node={nodes[k]}" for k in ks if k != d and lens[k] != top - 1]
    if 0 not in lens:
        violations.append("NoClosedNode: no node of length 0")
    unreachable = [x for x, n, step in zip(nodes, lens, g._first) if n > 0 and step is None]
    return sorted(violations + [f"Unreachable: node={x} has no downward fiber" for x in unreachable])


# --- reduced decompositions and subexpressions -------------------------------


class ReducedDecomposition(NamedTuple):
    """Path of orbits from a closed one to the target, one dense step each."""

    nodes: tuple[NodeId, ...]
    roots: tuple[int, ...]


def _cycle(g: OrbitGraph, chain: list[int]) -> AxiomViolation:
    """The violation for a lowering chain of positions that comes back to a
    position (as one longer than the graph must): it names the first one."""
    seen: set[int] = set()
    for k in chain:
        if k in seen:
            break
        seen.add(k)
    return AxiomViolation([f"LoweringCycle: node={g.nodes[k]} lies below itself"])


def reduced_decomposition(g: OrbitGraph, v: NodeId) -> ReducedDecomposition:
    """Deterministic decomposition: walk down from v, at each step taking the
    smallest simple index that lowers, then the smallest lower node."""
    k = g._position(v)
    ks, roots = [k], []
    while g._len[k] > 0:
        step = g._first[k]
        if step is None:
            raise Unreachable(f"node {g.nodes[k]} has positive length but no downward fiber")
        if len(ks) > len(g._len):
            raise _cycle(g, ks)
        roots.append(step[0])
        k = step[1]
        ks.append(k)
    return ReducedDecomposition(tuple(g.nodes[k] for k in reversed(ks)), tuple(reversed(roots)))


def all_reduced_decompositions(g: OrbitGraph, v: NodeId) -> list[ReducedDecomposition]:
    path: list[int] = []  # the positions on the way down to k

    def walk(k: int) -> list[ReducedDecomposition]:
        node = g.nodes[k]
        if g._len[k] == 0:
            return [ReducedDecomposition((node,), ())]
        if k in path:
            raise _cycle(g, path + [k])
        path.append(k)
        out = []
        for alpha, j in _lowerings(g, k):
            for rd in walk(j):
                out.append(ReducedDecomposition(rd.nodes + (node,), rd.roots + (alpha,)))
        path.pop()
        if not out:
            raise Unreachable(f"node {node} has positive length but no downward fiber")
        return out

    k = g._position(v)
    return walk(k)


def subexpression_endpoints(g: OrbitGraph, rd: ReducedDecomposition) -> tuple[NodeId, ...]:
    """All endpoints of subexpressions of the given decomposition, which must
    be one in g.  A node already dense in its fiber can only stand still;
    otherwise the whole fiber is reachable in one step (stand still, move to
    dense, or slide to the other member under the shared dense target).

    The endpoints are a bitset over ``g.nodes``: a step along alpha adds to
    it the root's _kernel of the fiber mates, so each step costs O(n), as
    one step of lower_ideal does.  The endpoints of each node's decomposition
    along first steps (reduced_decomposition's, on a valid graph) are built
    from those one step down and kept on the graph (at most n * n / 8
    bytes); a decomposition starts from the node ending its longest prefix
    that is such a decomposition, and only its remaining letters are stepped."""
    if len(rd.nodes) != len(rd.roots) + 1:
        raise Mismatch("decomposition sequences have inconsistent lengths")
    ks = [g._position(node) for node in rd.nodes]
    if g._len[ks[0]] != 0:
        raise Mismatch(f"decomposition must start at a closed orbit, got {rd.nodes[0]}")
    for i, alpha in enumerate(rd.roots):
        prev, cur = ks[i], ks[i + 1]
        if cur == prev or (g._entry(alpha, prev) or (prev,))[0] != cur:
            raise Mismatch(f"step {i + 1} is not a dense move along {alpha}")
    if g._steps is None:
        g._steps = [_row_kernel(row, False) for row in g._table]
    walks, steps, bits, p = g._walks, g._steps, 1 << ks[0], 0
    if g._first[ks[0]] is None:  # ks[:p + 1] goes along first steps
        while p < len(rd.roots) and g._first[ks[p + 1]] == (rd.roots[p], ks[p]):
            p += 1
        for x, alpha, j in reversed(_first_lowerings(g, ks[p], walks, lambda x: 1 << x)):
            walks[x] = walks[j] | steps[alpha - 1](walks[j])
        bits = walks[ks[p]]
    for alpha in rd.roots[p:]:
        bits |= steps[alpha - 1](bits)
    return tuple(compress(g.nodes, format(bits, f"0{len(g.nodes)}b")[::-1].translate(_BYTES).encode()))


# --- order --------------------------------------------------------------------


def _members(bits: int) -> list[int]:
    """Positions of the set bits, lowest first."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def _kernel(pairs: Iterable[tuple[int, int]], size: int, width: int):
    """The map from a bitset over size positions to one over width positions
    setting bit y wherever bit u is set, for each pair (y, u): per offset
    d = u - y, out |= (bits & M_d) >> d (<< -d if d < 0), or, for many
    offsets, one string pick per source of a position, whichever estimates
    fitted to 337 maps on CPython 3.11 (2 vCPUs) say is cheaper: k offsets
    about k * (0.15 us + 0.03 ns * size), a pick 0.8 us + 1 ns * size + 25 ns * width."""
    groups: defaultdict[int, list[int]] = defaultdict(list)
    for y, u in pairs:
        groups[u - y].append(u)
    cost = len(groups) * (0.15 + 3e-5 * size) / (0.8 + 1e-3 * size + 0.025 * width)  # in picks
    levels: defaultdict[int, list[int]] = defaultdict(lambda: [size] * width)  # i -> the i-th sources
    for d, us in groups.items() if cost > 1 else ():
        for u in us:
            levels[next(i for i in count() if levels[i][u - d] == size)][u - d] = u
    picks = [itemgetter(*(size - u for u in reversed(s))) for s in levels.values()] if cost > len(levels) else []
    right, left, form = [], [], f"0{size + 1}b"  # (mask, shift) per offset, unless picked
    for d, us in groups.items() if not picks else ():
        mask = bytearray(b"0") * size
        for u in us:
            mask[u] = 49  # "1"
        (right if d >= 0 else left).append((int(mask[::-1], 2), abs(d)))

    def kernel(bits: int) -> int:
        out, text = 0, picks and format(bits, form)
        for pick in picks:
            out |= int("".join(pick(text)), 2)
        for mask, d in right:
            out |= (bits & mask) >> d
        for mask, d in left:
            out |= (bits & mask) << d
        return out

    return kernel


def _gather(source: list[int], size: int | None = None):
    """_kernel from a bitset over size positions (len(source) by default)
    to the one whose bit y is its bit source[y] (0 for size)."""
    n = len(source) if size is None else size
    return _kernel(((y, u) for y, u in enumerate(source) if u != n), n, len(source))


def _first_lowerings(g: OrbitGraph, k: int, known: list, base) -> list[tuple[int, int, int]]:
    """The first lowering steps (position, alpha, one step down) from k
    down to a position set in known; one with no step down is set to
    base(position).  A chain that comes back raises AxiomViolation."""
    steps, x = [], k
    while known[x] is None:
        step = g._first[x]
        if step is None:
            known[x] = base(x)
            break
        if len(steps) > len(known):
            raise _cycle(g, [s[0] for s in steps])
        steps.append((x, *step))
        x = step[1]
    return steps


def _row_kernel(row: list, dense: bool):
    """_kernel setting bit y from each u != y whose entry in row lists y,
    leaving out u dense in its fiber unless dense is set."""
    pairs = ((y, u) for u, got in enumerate(row) if got and (dense or got[0] != u) for y in got[1] if y != u)
    return _kernel(pairs, len(row), len(row))


def _pull_kernels(g: OrbitGraph) -> tuple[list, dict[int, int]]:
    """Per root, _row_kernel(row, True); and for each length, the bitset of
    the positions shorter than it.  Built once, kept on g."""
    n, lens = len(g._len), g._len
    shorter, below = {}, bytearray(b"0") * n  # one 0/1 string: or-ing bits one by one is quadratic
    for k in sorted(range(n), key=lens.__getitem__):
        shorter[lens[k]] = shorter[lens[k]] if lens[k] in shorter else int(below, 2)
        below[~k] = 49  # "1" at bit k
    g._pulls = [_row_kernel(row, True) for row in g._table], shorter
    return g._pulls


def _ideal(g: OrbitGraph, k: int) -> int:
    """The lower ideal of position k (see lower_ideal)."""
    ideals, lens = g._ideals, g._len
    steps = _first_lowerings(g, k, ideals, lambda x: 1 << x)
    if steps:
        pulls, shorter = g._pulls or _pull_kernels(g)
        for x, alpha, j in reversed(steps):
            ideals[x] = (ideals[j] | pulls[alpha - 1](ideals[j])) & shorter[lens[x]] | 1 << x
    return ideals[k]


def lower_ideal(g: OrbitGraph, v: NodeId) -> int:
    """The nodes u <= v in closure order, as a bitset over ``g.nodes``.

    If v lowers along alpha to x (its first step, ``g._first``), its ideal
    is v and every node shorter than v in the ideal of x or in the fiber
    along alpha of a member of it (Richardson-Springer): one _kernel per
    root.  Every ideal is computed once per graph;
    _first_lowerings says when the walk raises AxiomViolation."""
    return _ideal(g, g._position(v))


def poset_leq(g: OrbitGraph, u: NodeId, v: NodeId) -> bool:
    """Closure order: whether u lies in the lower ideal of v."""
    k = g._position(u)
    return bool(lower_ideal(g, v) >> k & 1)


def property_z_check(g: OrbitGraph) -> list[str]:
    """For each simple root and pair (u1, v1) of nodes it moves up, to u2 and
    v2, the lifting conditions agree: v1 above a non-dense mate of u1, v2
    above u2, v2 above u1.  Each is a bitset over all u1, gathered off each
    position's own table entry; nonempty output names the failing pairs."""
    violations, n = [], len(g.nodes)
    for alpha, row in enumerate(g._table, 1):
        flags = bytes([48 + (got is not None and got[0] != k) for k, got in enumerate(row)])  # "1" where moved up
        if 49 not in flags:
            continue
        moved = [(k, row[k]) for k in range(n) if flags[k] == 49]
        dense, mask = _kernel(((u1, got[0]) for u1, got in moved), n, n), int(flags[::-1], 2)
        slides = _kernel(((u1, x) for u1, (u2, group) in moved for x in group if x not in (u1, u2)), n, n)
        for v1, (v2, _) in moved:
            below_v1, below_v2 = _ideal(g, v1), _ideal(g, v2)
            c1, c2, c3 = (below_v1 | slides(below_v1)) & mask, dense(below_v2), below_v2 & mask
            for u1 in _members((c1 ^ c2) | (c2 ^ c3)):
                violations.append(
                    f"PropertyZ: alpha={alpha} u1={g.nodes[u1]} v1={g.nodes[v1]} "
                    f"conditions=({c1 >> u1 & 1 == 1},{c2 >> u1 & 1 == 1},{c3 >> u1 & 1 == 1})"
                )
    return sorted(violations)


def cover_pairs(g: OrbitGraph, among: int) -> list[tuple[NodeId, NodeId]]:
    """Cover relations of the closure order restricted to the nodes in the
    bitset ``among``, sorted by node order: for each v, the maximal elements
    of its strict ideal, that is the strict ideal minus the strict ideals of
    its members."""
    strict = {k: _ideal(g, k) & among & ~(1 << k) for k in _members(among)}
    edges = []
    for k, below in strict.items():
        under = 0
        for u in _members(below):
            under |= strict[u]
        edges.extend((u, k) for u in _members(below & ~under))
    edges.sort()
    return [(g.nodes[u], g.nodes[v]) for u, v in edges]


class IEquivClass(NamedTuple):
    """A class of nodes over a fixed Levi set, with its dense member.

    members are kept sorted for deterministic reporting."""

    members: tuple[NodeId, ...]
    top: NodeId


def _levi_classes(g: OrbitGraph, levi: tuple[int, ...]) -> tuple[tuple[IEquivClass, ...], dict[NodeId, IEquivClass]]:
    """The classes over a normalized Levi set, sorted by top, and the class
    of each node: the connected components of the fibers along its roots,
    each with its unique longest member as top (tied tops raise
    AxiomViolation).  Computed once per graph and Levi set, kept on g."""
    got = g._classes.get(levi)
    if got is not None:
        return got
    rows = [g._table[alpha - 1] for alpha in levi]
    lens = g._len
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
        members = tuple(g.nodes[k] for k in sorted(block))
        top_len = max(lens[k] for k in block)
        tops = [k for k in block if lens[k] == top_len]
        if len(tops) != 1:
            raise AxiomViolation([f"NonUniqueTop: levi={levi} members={','.join(members)}"])
        classes.append(IEquivClass(members, g.nodes[tops[0]]))
    ordered = tuple(sorted(classes, key=lambda c: node_sort_key(c.top)))
    got = g._classes[levi] = (ordered, {v: c for c in ordered for v in c.members})
    return got


def hasse(g: OrbitGraph) -> list[tuple[NodeId, NodeId]]:
    """Cover relations, sorted.  If v lowers along alpha to x (its first
    step, ``g._first``), the nodes one shorter than v in its ideal are its other
    alpha-fiber members and dense_alpha(z) for each such z of x that alpha
    moves up (du Cloux); one of another length raises AxiomViolation.  They
    are the covers if the order is graded by length, as from_parabolic's is;
    on other graphs cover_pairs answers if their ideals show it is not."""
    lens, coatoms = g._len, [None] * len(g._len)
    for k in range(len(lens)):
        for x, alpha, j in reversed(_first_lowerings(g, k, coatoms, lambda x: ())):
            row = g._table[alpha - 1]
            cover = {y for y in row[x][1] if y != x}
            cover.update(row[z][0] for z in coatoms[j] if row[z] and row[z][0] != z)
            if any(lens[y] != lens[x] - 1 for y in cover):
                raise AxiomViolation(validate(g))
            coatoms[x] = tuple(cover)
    if not g._graded:
        ideals = [_ideal(g, k) for k in range(len(lens))]
        for v, below in enumerate(coatoms):
            if reduce(or_, map(ideals.__getitem__, below), 1 << v) != ideals[v]:
                return cover_pairs(g, (1 << len(lens)) - 1)
    edges = sorted((u, v) for v, below in enumerate(coatoms) for u in below)
    return [(g.nodes[u], g.nodes[v]) for u, v in edges]


def hasse_dot(g: OrbitGraph) -> str:
    """Cover graph in DOT form, nodes annotated with their lengths."""
    lines = ["digraph closure_order {"]
    lines += [f'  "{node}" [label="{node} len={g.length[node]}"];' for node in g.nodes]
    lines += [f'  "{u}" -> "{v}";' for u, v in hasse(g)]
    lines.append("}\n")
    return "\n".join(lines)


# --- text format ---------------------------------------------------------------

FORMAT_HEADER = "orbitgraph v1"


def format_orbit_graph(g: OrbitGraph) -> str:
    nodes, lines = g.nodes, [FORMAT_HEADER, f"rootsystem {g.rootsystem}", f"nodes {len(g.nodes)}"]
    lines += [f"node {x} {n}" for x, n in zip(nodes, g._len)]
    if any(x[:1] == "0" != x for x in nodes):  # names that may sort alike, as 1 and 01 do
        fibers = ((a, dense, [x for x in group if x != dense]) for a, dense, group in g.stored_fibers())
    else:  # node order is name order, so stored_fibers' order is by dense position, the row order kept on ties
        rows = (sorted(dict.fromkeys(filter(None, row)), key=itemgetter(0)) for row in g._table)
        fibers = ((a, nodes[d], [nodes[k] for k in ks if k != d]) for a, row in enumerate(rows, 1) for d, ks in row)
    lines += [f"fiber {alpha} {dense} {' '.join(rest)}" for alpha, dense, rest in fibers if rest]
    return "\n".join(lines) + "\n"


def save_orbit_graph(g: OrbitGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_orbit_graph(g))


def parse_orbit_graph(text: str) -> OrbitGraph:
    lines = _significant_lines(text)
    if not lines or lines[0] != FORMAT_HEADER:
        raise ParseError(f"expected header {FORMAT_HEADER!r}")
    if len(lines) < 3 or not lines[1].startswith("rootsystem "):
        raise ParseError("expected a rootsystem line")
    rootsystem = lines[1][len("rootsystem ") :].strip()
    lengths = {name: n for name, n, _ in _node_lines(lines[2:], 3)}
    nodes = tuple(sorted(lengths, key=node_sort_key))
    index, rows, top = {node: k for k, node in enumerate(nodes)}, defaultdict(dict), 0  # alpha -> {position: fiber}
    for line in lines[3 + len(lengths) :]:
        fields = line.split()
        if fields[0] != "fiber" or len(fields) < 4:
            raise ParseError(f"bad fiber line: {line!r}")
        alpha = _decimal(fields[1])
        if not alpha:
            raise ParseError(f"bad simple index in {line!r}")
        top, row, ks = max(top, alpha), rows[alpha], [*map(index.get, fields[2:])]
        fiber = None if None in ks else (ks[0], tuple(sorted(set(ks))))
        for name, k in zip(fields[2:], ks):
            if k is None:
                raise ParseError(f"fiber mentions unknown node {name!r}")
            if row.setdefault(k, fiber) != fiber:
                raise ParseError(f"node {name!r} lies in two fibers along {alpha}")
    try:
        rank = len(cartan_matrix(rootsystem.split()[0]))
    except InvalidCartan:
        if top > RANK_CAP:
            raise ParseError(f"fiber index {top} is above the rank cap of {RANK_CAP}") from None
        rank = top
    if top > rank:  # only a named type's rank can be below the largest index
        bad = [f"alpha={a} fiber={'/'.join(nodes[k] for k in ks)}" for a in rows if a > rank for _, ks in rows[a].values()]
        raise AxiomViolation(sorted({f"BadSimpleIndex: {tag}" for tag in bad}))
    table = [[*map(rows[alpha].get, range(len(nodes)))] for alpha in range(1, rank + 1)]
    return OrbitGraph.__new__(OrbitGraph)._fill(rootsystem, nodes, [lengths[x] for x in nodes], table)


def load_orbit_graph(path) -> OrbitGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_orbit_graph(fh.read())
