"""Orbit graphs for a spherical subgroup acting on the flag variety.

Nodes are orbit identifiers (plain strings).  For each simple root the nodes
fall into fibers of size 1, 2, or 3 with a unique dense member; closure order
is recovered from this data alone, by downward lifting, and cross-checked
against subexpression enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import AxiomViolation, Mismatch, ParseError, Unreachable
from .root_datum import RootDatum, _node_lines, _significant_lines, normalize_levi
from .weyl import _p_minimal, _table, format_word

NodeId = str


def node_sort_key(node: NodeId) -> tuple:
    """Numeric ids sort numerically, everything else lexicographically after."""
    return (0, int(node)) if node.isdigit() else (1, node)


class OrbitGraph:
    """Immutable after construction; fibers of size one are implicit.

    Everything inside works on positions in ``nodes``; ``index`` maps a node
    to its position.  Entry k of fiber table row alpha - 1 is the fiber of
    ``nodes[k]`` along alpha as (dense position, member positions), or None.
    A fiber naming an unknown node or a simple index outside 1..rank stays
    out of the table, in ``_loose``, for validate and the text form.  Lower
    ideals are int bitsets over positions, built by lower_ideal and kept on
    the graph: at most n * n / 8 bytes.
    """

    def __init__(
        self,
        rootsystem: str,
        rank: int,
        lengths: Mapping[NodeId, int],
        fibers: Iterable[tuple[int, NodeId, Sequence[NodeId]]],
    ):
        self.rootsystem = rootsystem
        self.rank = rank
        self.length = dict(lengths)
        self.nodes: tuple[NodeId, ...] = tuple(sorted(self.length, key=node_sort_key))
        self.index = {node: k for k, node in enumerate(self.nodes)}
        self._len = [self.length[node] for node in self.nodes]
        self._table = [[None] * len(self.nodes) for _ in range(rank)]
        self._loose: dict[tuple[int, tuple[NodeId, ...]], NodeId] = {}  # (alpha, group) -> dense
        for alpha, dense, members in fibers:
            group = set(members) | {dense}
            if 1 <= alpha <= rank and self.index.keys() >= group:
                ks = tuple(sorted(self.index[x] for x in group))
                for k in ks:
                    self._table[alpha - 1][k] = (self.index[dense], ks)
            else:
                self._loose[(alpha, tuple(sorted(group, key=node_sort_key)))] = dense
        self._ideals: list[int | None] = [None] * len(self.nodes)

    def _position(self, node: NodeId) -> int:
        if node not in self.index:
            raise Mismatch(f"unknown node {node!r}")
        return self.index[node]

    def _entry(self, alpha: int, k: int) -> tuple[int, tuple[int, ...]] | None:
        if not 1 <= alpha <= self.rank:
            raise Mismatch(f"simple index {alpha} out of range 1..{self.rank}")
        return self._table[alpha - 1][k]

    def fiber(self, alpha: int, node: NodeId) -> tuple[NodeId, ...]:
        got = self._entry(alpha, self._position(node))
        return tuple(self.nodes[k] for k in got[1]) if got else (node,)

    def dense_node(self, alpha: int, node: NodeId) -> NodeId:
        got = self._entry(alpha, self._position(node))
        return self.nodes[got[0]] if got else node

    def stored_fibers(self) -> list[tuple[int, NodeId, tuple[NodeId, ...]]]:
        """Each explicit fiber once, sorted by simple index then dense node."""
        out = [(alpha, dense, group) for (alpha, group), dense in self._loose.items()]
        for alpha, row in enumerate(self._table, 1):
            for dense, group in filter(None, dict.fromkeys(row)):
                out.append((alpha, self.nodes[dense], tuple(self.nodes[k] for k in group)))
        return sorted(out, key=lambda t: (t[0], node_sort_key(t[1])))


def _lowerings(g: OrbitGraph, k: int):
    """The steps down from position k, in order: (alpha, each other member)
    for every fiber along alpha with k as its dense member.  The first is
    the one reduced_decomposition and lower_ideal take."""
    for alpha, row in enumerate(g._table, 1):
        got = row[k]
        if got is not None and got[0] == k:
            for j in got[1]:
                if j != k:
                    yield alpha, j


# --- construction from Weyl groups and parabolic quotients ------------------


def from_weyl(datum: RootDatum) -> OrbitGraph:
    return from_parabolic(datum, ())


def from_parabolic(datum: RootDatum, levi) -> OrbitGraph:
    """The orbit graph of P\\G/B, read off the Weyl table.  Its nodes are the
    minimal coset representatives, named by their canonical words; along
    alpha a node is joined to its right neighbour under s_alpha when that is
    a minimal representative too, and longer."""
    levi = normalize_levi(datum, levi)
    table = _table(datum)
    length = table.length
    ident = {k: format_word(table.words[k]) for k in _p_minimal(table, levi)}
    fibers = []
    for alpha, right in enumerate(table.right, 1):
        for k, node in ident.items():
            up = right[k]
            if length[up] > length[k] and up in ident:
                fibers.append((alpha, ident[up], (node, ident[up])))
    label = datum.name or "custom"
    if levi:
        label += " levi " + ",".join(str(i) for i in levi)
    return OrbitGraph(label, datum.rank, {node: length[k] for k, node in ident.items()}, fibers)


# --- validation --------------------------------------------------------------


def validate(g: OrbitGraph) -> list[str]:
    """Check every structural axiom; empty list means the graph is a genuine
    orbit graph as far as the fiber data can tell."""
    violations = []
    for node in g.nodes:
        if not isinstance(g.length[node], int) or g.length[node] < 0:
            violations.append(f"BadLength: node={node} length={g.length[node]!r}")
    for alpha, dense, group in g.stored_fibers():
        tag = f"alpha={alpha} fiber={'/'.join(group)}"
        if not 1 <= alpha <= g.rank:
            violations.append(f"BadSimpleIndex: {tag}")
            continue
        unknown = [x for x in group if x not in g.length]
        if unknown:
            violations.append(f"UnknownNode: {tag} nodes={','.join(unknown)}")
            continue
        if len(group) > 3:
            violations.append(f"FiberTooLarge: {tag} size={len(group)}")
        ks = tuple(g.index[x] for x in group)
        for x, k in zip(group, ks):
            if g._table[alpha - 1][k][1] != ks:
                violations.append(f"FiberIncoherent: {tag} node={x}")
        top = max(g.length[x] for x in group)
        at_top = [x for x in group if g.length[x] == top]
        if len(at_top) != 1:
            violations.append(f"NoDenseNode: {tag} maximal={','.join(at_top)}")
        elif at_top[0] != dense:
            violations.append(f"NoDenseNode: {tag} stored dense {dense} is not the longest")
        elif len(group) > 1:
            for x in group:
                if x != dense and g.length[x] != top - 1:
                    violations.append(f"BadLengthGap: {tag} node={x}")
    if all(g.length[node] != 0 for node in g.nodes):
        violations.append("NoClosedNode: no node of length 0")
    for k, n in enumerate(g._len):
        if n > 0 and next(_lowerings(g, k), None) is None:
            violations.append(f"Unreachable: node={g.nodes[k]} has no downward fiber")
    return sorted(violations)


# --- reduced decompositions and subexpressions -------------------------------


@dataclass(frozen=True)
class ReducedDecomposition:
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
        step = next(_lowerings(g, k), None)
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

    return walk(g._position(v))


def subexpression_endpoints(g: OrbitGraph, rd: ReducedDecomposition) -> tuple[NodeId, ...]:
    """All endpoints of subexpressions of the given decomposition, which must
    be one in g.  A node already dense in its fiber can only stand still;
    otherwise the whole fiber is reachable in one step (stand still, move to
    dense, or slide to the other member under the shared dense target)."""
    if len(rd.nodes) != len(rd.roots) + 1:
        raise Mismatch("decomposition sequences have inconsistent lengths")
    ks = [g._position(node) for node in rd.nodes]
    if g._len[ks[0]] != 0:
        raise Mismatch(f"decomposition must start at a closed orbit, got {rd.nodes[0]}")
    current = {ks[0]}
    for i, alpha in enumerate(rd.roots):
        prev, cur = ks[i], ks[i + 1]
        if cur == prev or (g._entry(alpha, prev) or (prev,))[0] != cur:
            raise Mismatch(f"step {i + 1} is not a dense move along {alpha}")
        row = g._table[alpha - 1]
        nxt = set()
        for u in current:
            got = row[u]
            if got is None or got[0] == u:
                nxt.add(u)
            else:
                nxt.update(got[1])
        current = nxt
    return tuple(g.nodes[k] for k in sorted(current))


# --- order --------------------------------------------------------------------


def _members(bits: int) -> list[int]:
    """Positions of the set bits, lowest first."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def _ideal(g: OrbitGraph, k: int) -> int:
    """The lower ideal of position k (see lower_ideal)."""
    if g._loose:
        raise AxiomViolation(validate(g))
    ideals, lens = g._ideals, g._len
    steps: list[tuple[int, int, int]] = []  # (position, alpha, one step down), k first
    x = k
    while ideals[x] is None:
        step = next(_lowerings(g, x), None)
        if step is None:
            ideals[x] = 1 << x
            break
        if len(steps) > len(ideals):
            raise _cycle(g, [s[0] for s in steps])
        steps.append((x, *step))
        x = step[1]
    for x, alpha, j in reversed(steps):
        bits, row = 1 << x, g._table[alpha - 1]
        for u in _members(ideals[j]):
            for y in row[u][1] if row[u] else (u,):
                if lens[y] < lens[x]:
                    bits |= 1 << y
        ideals[x] = bits
    return ideals[k]


def lower_ideal(g: OrbitGraph, v: NodeId) -> int:
    """The nodes u <= v in closure order, as a bitset over ``g.nodes``.

    If v lowers along alpha to x (the first step of _lowerings), its ideal
    is v and every fiber_alpha-mate, shorter than v, of a member of the
    ideal of x (Richardson-Springer).  The lowering chain is walked down to
    a known ideal and built back up; a chain that returns to a node, or a
    graph holding a fiber kept out of the table, raises AxiomViolation.
    Every ideal is computed once per graph."""
    return _ideal(g, g._position(v))


def poset_leq(g: OrbitGraph, u: NodeId, v: NodeId) -> bool:
    """Closure order: whether u lies in the lower ideal of v."""
    k = g._position(u)
    return bool(lower_ideal(g, v) >> k & 1)


def property_z_check(g: OrbitGraph) -> list[str]:
    """For every simple root and every pair of upward moves, the three lifting
    conditions must agree.  Nonempty output pinpoints the failing pair."""
    violations = []
    for alpha, row in enumerate(g._table, 1):
        moved = [(k, got) for k, got in enumerate(row) if got is not None and got[0] != k]
        # u1 with its bit, its dense node's bit, and the rest of its fiber
        cols = [
            (u1, 1 << u1, 1 << u2, sum(1 << x for x in group if x != u2))
            for u1, (u2, group) in moved
        ]
        for v1, (v2, _) in moved:
            below_v1, below_v2 = _ideal(g, v1), _ideal(g, v2)
            for u1, bit1, bit2, slide in cols:
                c1 = below_v1 & slide != 0
                c2 = below_v2 & bit2 != 0
                c3 = below_v2 & bit1 != 0
                if not (c1 == c2 == c3):
                    violations.append(
                        f"PropertyZ: alpha={alpha} u1={g.nodes[u1]} v1={g.nodes[v1]} "
                        f"conditions=({c1},{c2},{c3})"
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


def hasse(g: OrbitGraph) -> list[tuple[NodeId, NodeId]]:
    """Cover relations of the closure order, sorted for stable output."""
    return cover_pairs(g, (1 << len(g.nodes)) - 1)


def hasse_dot(g: OrbitGraph) -> str:
    """Cover graph in DOT form, nodes annotated with their lengths."""
    lines = ["digraph closure_order {"]
    for node in g.nodes:
        lines.append(f'  "{node}" [label="{node} len={g.length[node]}"];')
    for u, v in hasse(g):
        lines.append(f'  "{u}" -> "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- text format ---------------------------------------------------------------

FORMAT_HEADER = "orbitgraph v1"


def format_orbit_graph(g: OrbitGraph) -> str:
    lines = [FORMAT_HEADER, f"rootsystem {g.rootsystem}", f"nodes {len(g.nodes)}"]
    for node in g.nodes:
        lines.append(f"node {node} {g.length[node]}")
    for alpha, dense, group in g.stored_fibers():
        if len(group) > 1:
            rest = [x for x in group if x != dense]
            lines.append(f"fiber {alpha} {dense} {' '.join(rest)}")
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
    fields = lines[2].split()
    if len(fields) != 2 or fields[0] != "nodes" or not fields[1].isdigit():
        raise ParseError("expected a node count line")
    count = int(fields[1])
    lengths = {name: n for name, n, _ in _node_lines(lines[3:], count, 3)}
    fibers = []
    rank = 0
    for line in lines[3 + count :]:
        fields = line.split()
        if fields[0] != "fiber" or len(fields) < 4:
            raise ParseError(f"bad fiber line: {line!r}")
        try:
            alpha = int(fields[1])
        except ValueError:
            raise ParseError(f"bad simple index in {line!r}") from None
        if alpha < 1:
            raise ParseError(f"bad simple index in {line!r}")
        rank = max(rank, alpha)
        for name in fields[2:]:
            if name not in lengths:
                raise ParseError(f"fiber mentions unknown node {name!r}")
        fibers.append((alpha, fields[2], tuple(fields[2:])))
    return OrbitGraph(rootsystem, rank, lengths, fibers)


def load_orbit_graph(path) -> OrbitGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_orbit_graph(fh.read())
