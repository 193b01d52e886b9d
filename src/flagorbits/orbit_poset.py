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

    ``index`` gives each node's position in ``nodes``.  Lower ideals are int
    bitsets over those positions (bit k stands for ``nodes[k]``), built on
    demand by lower_ideal and kept on the graph: at most n * n / 8 bytes.
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
        self._fibers: dict[tuple[int, NodeId], tuple[NodeId, tuple[NodeId, ...]]] = {}
        for alpha, dense, members in fibers:
            group = tuple(sorted(set(members) | {dense}, key=node_sort_key))
            for x in group:
                self._fibers[(alpha, x)] = (dense, group)
        self.index = {node: k for k, node in enumerate(self.nodes)}
        self._ideals: list[int | None] = [None] * len(self.nodes)
        self._mates: list[list[tuple[int, ...] | None]] | None = None
        self._shorter: dict[int, int] = {}  # length -> bitset of the nodes shorter

    def _require(self, node: NodeId) -> None:
        if node not in self.length:
            raise Mismatch(f"unknown node {node!r}")

    def fiber(self, alpha: int, node: NodeId) -> tuple[NodeId, ...]:
        self._require(node)
        if not 1 <= alpha <= self.rank:
            raise Mismatch(f"simple index {alpha} out of range 1..{self.rank}")
        got = self._fibers.get((alpha, node))
        return got[1] if got else (node,)

    def dense_node(self, alpha: int, node: NodeId) -> NodeId:
        self._require(node)
        if not 1 <= alpha <= self.rank:
            raise Mismatch(f"simple index {alpha} out of range 1..{self.rank}")
        got = self._fibers.get((alpha, node))
        return got[0] if got else node

    def stored_fibers(self) -> list[tuple[int, NodeId, tuple[NodeId, ...]]]:
        """Each explicit fiber once, sorted by simple index then dense node."""
        seen = {}
        for (alpha, _), (dense, group) in self._fibers.items():
            seen[(alpha, group)] = (alpha, dense, group)
        return sorted(seen.values(), key=lambda t: (t[0], node_sort_key(t[1])))


def _lowering(g: OrbitGraph, v: NodeId) -> tuple[int, NodeId] | None:
    """The step down from v: the smallest simple index at which v is the
    dense member of a fiber with other members, and the smallest of those
    members; None if v is dense in no such fiber."""
    for alpha in range(1, g.rank + 1):
        got = g._fibers.get((alpha, v))
        if got is not None and got[0] == v and len(got[1]) > 1:
            return alpha, next(x for x in got[1] if x != v)
    return None


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
        for x in group:
            if g._fibers.get((alpha, x), (None, None))[1] != group:
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
    for node in g.nodes:
        if g.length[node] > 0 and _lowering(g, node) is None:
            violations.append(f"Unreachable: node={node} has no downward fiber")
    return sorted(violations)


# --- reduced decompositions and subexpressions -------------------------------


@dataclass(frozen=True)
class ReducedDecomposition:
    """Path of orbits from a closed one to the target, one dense step each."""

    nodes: tuple[NodeId, ...]
    roots: tuple[int, ...]


def reduced_decomposition(g: OrbitGraph, v: NodeId) -> ReducedDecomposition:
    """Deterministic decomposition: walk down from v, at each step taking the
    smallest simple index that lowers, then the smallest lower node."""
    g._require(v)
    rev_nodes = [v]
    rev_roots = []
    node = v
    while g.length[node] > 0:
        step = _lowering(g, node)
        if step is None:
            raise Unreachable(f"node {node} has positive length but no downward fiber")
        rev_roots.append(step[0])
        rev_nodes.append(step[1])
        node = step[1]
    return ReducedDecomposition(tuple(reversed(rev_nodes)), tuple(reversed(rev_roots)))


def all_reduced_decompositions(g: OrbitGraph, v: NodeId) -> list[ReducedDecomposition]:
    g._require(v)
    if g.length[v] == 0:
        return [ReducedDecomposition((v,), ())]
    out = []
    for alpha in range(1, g.rank + 1):
        group = g.fiber(alpha, v)
        if len(group) > 1 and g.dense_node(alpha, v) == v:
            for below in sorted((x for x in group if x != v), key=node_sort_key):
                for rd in all_reduced_decompositions(g, below):
                    out.append(ReducedDecomposition(rd.nodes + (v,), rd.roots + (alpha,)))
    if not out:
        raise Unreachable(f"node {v} has positive length but no downward fiber")
    return out


def _check_rd(g: OrbitGraph, rd: ReducedDecomposition) -> None:
    if len(rd.nodes) != len(rd.roots) + 1:
        raise Mismatch("decomposition sequences have inconsistent lengths")
    for node in rd.nodes:
        g._require(node)
    if g.length[rd.nodes[0]] != 0:
        raise Mismatch(f"decomposition must start at a closed orbit, got {rd.nodes[0]}")
    for i, alpha in enumerate(rd.roots):
        prev, cur = rd.nodes[i], rd.nodes[i + 1]
        if cur == prev or g.dense_node(alpha, prev) != cur:
            raise Mismatch(f"step {i + 1} is not a dense move along {alpha}")


def subexpression_endpoints(g: OrbitGraph, rd: ReducedDecomposition) -> tuple[NodeId, ...]:
    """All endpoints of subexpressions of the given decomposition.  A node
    already dense in its fiber can only stand still; otherwise the whole
    fiber is reachable in one step (stand still, move to dense, or slide to
    the other member under the shared dense target)."""
    _check_rd(g, rd)
    current = {rd.nodes[0]}
    for alpha in rd.roots:
        nxt = set()
        for u in current:
            if g.dense_node(alpha, u) == u:
                nxt.add(u)
            else:
                nxt.update(g.fiber(alpha, u))
        current = nxt
    return tuple(sorted(current, key=node_sort_key))


# --- order --------------------------------------------------------------------


def _members(bits: int) -> list[int]:
    """Positions of the set bits, lowest first."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def _fiber_positions(g: OrbitGraph) -> list[list[tuple[int, ...] | None]]:
    """Per simple index, each node's fiber as positions in ``g.nodes``
    (None where the fiber is the node alone), built once per graph."""
    if g._mates is None:
        g._mates = [[None] * len(g.nodes) for _ in range(g.rank)]
        for (alpha, _), (_, group) in g._fibers.items():
            if 1 <= alpha <= g.rank and len(group) > 1:
                for x in group:
                    g._require(x)
                ks = tuple(g.index[x] for x in group)
                for k in ks:
                    g._mates[alpha - 1][k] = ks
    return g._mates


def lower_ideal(g: OrbitGraph, v: NodeId) -> int:
    """The nodes u <= v in closure order, as a bitset over ``g.nodes``.

    If v lowers along alpha to x (see _lowering), its ideal is v and every
    fiber_alpha-mate, shorter than v, of a member of the ideal of x
    (Richardson-Springer).  The lowering chain is walked down to a known
    ideal and built back up; a chain that returns to a node raises
    AxiomViolation.  Every ideal is computed once per graph."""
    g._require(v)
    ideals, mates = g._ideals, _fiber_positions(g)
    steps: list[tuple[int, int, int]] = []  # (position, alpha, position of x), v first
    k = g.index[v]
    while ideals[k] is None:
        if k in (step[0] for step in steps):
            raise AxiomViolation([f"LoweringCycle: node={g.nodes[k]} lies below itself"])
        step = _lowering(g, g.nodes[k])
        if step is None:
            ideals[k] = 1 << k
            break
        g._require(step[1])
        steps.append((k, step[0], g.index[step[1]]))
        k = steps[-1][2]
    for k, alpha, j in reversed(steps):
        bits = ideals[j]
        for u in _members(bits):
            for x in mates[alpha - 1][u] or ():
                bits |= 1 << x
        top = g.length[g.nodes[k]]
        if top not in g._shorter:
            g._shorter[top] = sum(1 << i for i, x in enumerate(g.nodes) if g.length[x] < top)
        ideals[k] = bits & g._shorter[top] | 1 << k
    return ideals[g.index[v]]


def poset_leq(g: OrbitGraph, u: NodeId, v: NodeId) -> bool:
    """Closure order: whether u lies in the lower ideal of v."""
    g._require(u)
    return bool(lower_ideal(g, v) >> g.index[u] & 1)


def property_z_check(g: OrbitGraph) -> list[str]:
    """For every simple root and every pair of upward moves, the three lifting
    conditions must agree.  Nonempty output pinpoints the failing pair."""
    violations = []
    for alpha in range(1, g.rank + 1):
        moved = [(x, g.dense_node(alpha, x)) for x in g.nodes if g.dense_node(alpha, x) != x]
        # u1 with its bit, its dense node's bit, and the rest of its fiber
        cols = [
            (u1, 1 << g.index[u1], 1 << g.index[u2],
             sum(1 << g.index[x] for x in g.fiber(alpha, u1) if x != u2))
            for u1, u2 in moved
        ]
        for v1, v2 in moved:
            below_v1, below_v2 = lower_ideal(g, v1), lower_ideal(g, v2)
            for u1, bit1, bit2, slide in cols:
                c1 = below_v1 & slide != 0
                c2 = below_v2 & bit2 != 0
                c3 = below_v2 & bit1 != 0
                if not (c1 == c2 == c3):
                    violations.append(
                        f"PropertyZ: alpha={alpha} u1={u1} v1={v1} "
                        f"conditions=({c1},{c2},{c3})"
                    )
    return sorted(violations)


def cover_pairs(g: OrbitGraph, among: int) -> list[tuple[NodeId, NodeId]]:
    """Cover relations of the closure order restricted to the nodes in the
    bitset ``among``, sorted by node order: for each v, the maximal elements
    of its strict ideal, that is the strict ideal minus the strict ideals of
    its members."""
    strict = {k: lower_ideal(g, g.nodes[k]) & among & ~(1 << k) for k in _members(among)}
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
