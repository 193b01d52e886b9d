"""Weyl group elements, words, lengths, Bruhat order, and the exchange map.

An element w is named by integers: by its weight w(2 rho) in fundamental-
weight coordinates, which is regular (its negative coordinates are the left
descents of w, and s_i * w has it moved by s_i, see _move; Bjorner-Brenti,
GTM 231, ch. 2 and 4), or by its ids, one per connected component of the
Dynkin diagram, in the one WeylTable of that component's Cartan matrix that
every datum with such a component shares.  Words are tuples of 1-based
simple indices.

Whole-group operations build the tables, up to TABLE_CAP elements, and an
element made from them carries its ids: its word, length, inverse and simple
descents (descent_direction on alpha_i reads the right row), its products and
the Bruhat order are then reads of the table rows.  Per-element calls only
read tables that exist, and otherwise spell, multiply and compare by moving
weights, so E7 and E8 still answer.  Root images (_apply), with ids needed
only for roots that are not simple, are a derived view: read off the table
keys with ids, walked back through the canonical word without.
"""

from __future__ import annotations

import enum
from collections import Counter
from itertools import product
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import (
    DatumMismatch,
    NotADescent,
    NotARoot,
    NotPositiveRoot,
    NotReduced,
    ParseError,
    TableTooLarge,
)
from .root_datum import (
    Root,
    RootDatum,
    _check_letter,
    _decimal,
    _validate_cartan,
    all_roots,
    coroot_pairing,
    is_root,
    positive_roots,
    reflect,
    simple_root,
    twist_root,
)

Word = tuple[int, ...]
Cartan = tuple[tuple[int, ...], ...]

# |W(E6)|: the largest group tabulated, whose table keeps about 19 MiB.
TABLE_CAP = 51_840


class WeylElt:
    """A Weyl group element: ``weight``, w(2 rho) in fundamental-weight
    coordinates, and ``ids``, its id in each component table of the datum
    (see _ids).  One made without tables holds its weight, and its ids are
    None until known; one born from the tables holds its ids, and its weight
    is None until first read (see _weight).  Two with ids compare by them,
    others by their weights, and hashing reads the weight.  Treat it as
    immutable: it is hashed by value."""

    __slots__ = ("datum", "weight", "ids")

    def __init__(self, datum: RootDatum, weight: tuple[int, ...] | None, ids: tuple[int, ...] | None = None):
        self.datum = datum
        self.weight = weight
        self.ids = ids

    @property
    def images(self) -> tuple[Root, ...]:
        """The simple-root images, a read-only view (see _apply); without ids, off one spelling."""
        datum, simples = self.datum, _layout(self.datum).simple
        if _ids(self) is None:
            letters = _spell(datum, self.weight)[::-1]
            return tuple([_reflected(datum, beta, letters) for beta in simples])
        return tuple([_apply(self, beta) for beta in simples])

    def __eq__(self, other):
        if other.__class__ is not WeylElt:
            return NotImplemented
        # one tuple comparison: an identical datum is not compared field by field
        if self.ids is not None and other.ids is not None:
            return (self.datum, self.ids) == (other.datum, other.ids)
        return (self.datum, _weight(self)) == (other.datum, _weight(other))

    def __hash__(self) -> int:
        return hash((self.datum, _weight(self)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WeylElt({format_word(reduced_word(self))})"


def identity(datum: RootDatum) -> WeylElt:
    return WeylElt(datum, (2,) * datum.rank)


def simple_reflection(datum: RootDatum, i: int) -> WeylElt:
    return from_word(datum, (i,))


def _apply(w: WeylElt, beta: Sequence[int]) -> Root:
    """w(beta), linear in beta; no membership check.  With ids, off the key
    bytes of the simple roots in beta's support, in the tables the ids came
    from (those w's layout found: tables() may be hidden); without, beta is
    walked back through w's canonical word, as exchange walks gamma."""
    if w.ids is None and _ids(w) is None:
        return _reflected(w.datum, beta, reversed(_spell(w.datum, w.weight)))
    layout, ids, out = _layout(w.datum), w.ids, [0] * len(beta)
    where, roots, found = layout.where, layout.roots, layout.found
    for j, c in enumerate(beta):
        if c:
            p, a = where[j]
            out = [x + c * y for x, y in zip(out, roots[p][found[p].keys[ids[p]][a - 1]])]
    return tuple(out)


def act_on_root(w: WeylElt, beta: Root) -> Root:
    if not is_root(w.datum, beta):
        raise NotARoot(f"{beta} is not a root")
    return _apply(w, beta)


def mul(u: WeylElt, v: WeylElt) -> WeylElt:
    """Walked along the table rows, or v's weight moved along u's word, last letter first."""
    if u.datum != v.datum:
        raise DatumMismatch("cannot multiply elements of different root data")
    tables = _layout(u.datum).tables()
    if tables is None:
        return _moved(u.datum, _weight(v), reversed(_spell(u.datum, _weight(u))))
    return _element(u.datum, _walk(u.datum, tables, reduced_word(u) + reduced_word(v)))


def from_word(datum: RootDatum, word: Iterable[int]) -> WeylElt:
    """Walked along the table rows, or 2 rho moved along the word, last letter first."""
    tables = _layout(datum).tables()
    if tables is not None:
        return _element(datum, _walk(datum, tables, word))
    word, r = tuple(word), datum.rank
    for i in word:
        if i.__class__ is not int or not 0 < i <= r:
            _check_letter(datum, i)
    return _moved(datum, (2,) * r, reversed(word))


def length(w: WeylElt) -> int:
    """Number of positive roots sent negative: a row read with ids, else the
    number of letters of the weight walk."""
    ids = _ids(w)
    if ids is None:
        return len(_spell(w.datum, w.weight))
    return sum([table.length[k] for table, k in zip(_layout(w.datum).found, ids)])


def reduced_word(w: WeylElt) -> Word:
    """The lexicographically smallest reduced word, built by always taking
    the smallest simple reflection that shortens on the left."""
    ids = _ids(w)
    if ids is None:
        return _spell(w.datum, w.weight)
    return _word(w.datum, _layout(w.datum).found, ids)


def inv(w: WeylElt) -> WeylElt:
    """Without tables, 2 rho moved along w's word, first letter first."""
    ids = _ids(w)
    if ids is None:
        return _moved(w.datum, (2,) * w.datum.rank, _spell(w.datum, w.weight))
    return _element(w.datum, [table.inverse[k] for table, k in zip(_layout(w.datum).found, ids)])


def is_reduced(datum: RootDatum, word: Iterable[int]) -> bool:
    """The climb from rho: w * s_a is longer than w when <rho, w(coroot_a)> > 0."""
    return _climbs(datum, word, [1] * datum.rank)


def _move(row: Sequence[tuple[int, int]], mu: list[int], c: int) -> None:
    """The one weight update, mu <- mu - c * (row a of the Cartan matrix) in place,
    row = _Layout.rows[a - 1]: with c = mu_a, s_a acts on the weight mu in
    fundamental-weight coordinates (Bjorner-Brenti, GTM 231, ch. 2 and 4)."""
    for j, y in row:
        mu[j] -= c * y


def _moved(datum: RootDatum, mu: Sequence[int], letters: Iterable[int]) -> WeylElt:
    """The element whose weight is mu moved by s_a for each letter a in turn:
    from w's weight along a_1, ..., a_k, s_a_k * ... * s_a_1 * w, unchecked."""
    rows, mu = _layout(datum).rows, list(mu)
    for a in letters:
        _move(rows[a - 1], mu, mu[a - 1])
    return WeylElt(datum, tuple(mu))


def _reflected(datum: RootDatum, beta: Sequence[int], letters: Iterable[int]) -> Root:
    """beta moved by s_a, s_a(gamma) = gamma - <gamma, coroot_a> alpha_a, for
    each letter a in turn: along w's canonical word, last letter first, w(beta)."""
    gamma, links = list(beta), _layout(datum).links
    for a in letters:
        k = a - 1
        c = 2 * gamma[k]
        for i, y in links[k]:
            c += y * gamma[i]
        gamma[k] -= c
    return tuple(gamma)


def _climbs(datum: RootDatum, word: Iterable[int], mu: Sequence[int]) -> bool:
    """Whether each letter a finds mu_a > 0 before mu moves by s_a, mu in
    fundamental-weight coordinates (Bjorner-Brenti, GTM 231, ch. 2): from
    rho, W's reduced words; from 1 off a Levi set and 0 on it, the minimal
    coset representatives' ones."""
    word, r = tuple(word), datum.rank
    for i in word:
        if i.__class__ is not int or not 0 < i <= r:
            _check_letter(datum, i)
    rows, mu = _layout(datum).rows, list(mu)
    for a in word:
        c = mu[a - 1]
        if c <= 0:
            return False
        _move(rows[a - 1], mu, c)
    return True


class Direction(enum.Enum):
    UP = "up"
    DOWN = "down"


def descent_direction(w: WeylElt, alpha: Root) -> Direction:
    """Whether right multiplication by the reflection in the positive root alpha lengthens
    (UP) or shortens (DOWN) the element: with ids and a simple alpha, read off the right row."""
    layout = _layout(w.datum)
    if w.ids is not None and alpha.__class__ is tuple and alpha in layout.simple:
        c, a = layout.simple[alpha]
        table, k = layout.found[c], w.ids[c]
        return Direction.UP if table.length[table.right[a - 1][k]] > table.length[k] else Direction.DOWN
    if not is_root(w.datum, alpha):
        raise NotARoot(f"{alpha} is not a root")
    if any(c < 0 for c in alpha):
        raise NotPositiveRoot(f"{alpha} is not positive")
    return Direction.UP if all(c >= 0 for c in _apply(w, alpha)) else Direction.DOWN


def exchange(datum: RootDatum, word: Sequence[int], alpha: int) -> int:
    """Strong exchange at a simple descent: the 1-based position whose removal
    from the reduced word yields a reduced word for w*s_alpha.  Walk gamma =
    alpha back through the word, gamma <- s_i(gamma) per letter i from the
    right: the position is the first letter that sends gamma negative (only
    alpha_i is), and on a reduced word gamma ends at w(alpha), so it goes
    negative exactly when alpha is a descent (Bjorner-Brenti, GTM 231, ch. 1)."""
    word = tuple(word)
    if not is_reduced(datum, word):
        raise NotReduced(f"{word} is not reduced")
    gamma = list(simple_root(datum, alpha))
    links = _layout(datum).links
    for j in range(len(word) - 1, -1, -1):
        k = word[j] - 1
        gamma[k] -= 2 * gamma[k] + sum([a * gamma[i] for i, a in links[k]])
        if gamma[k] < 0:
            return j + 1
    raise NotADescent(f"simple root {alpha} is not a descent")


def bruhat_leq(u: WeylElt, v: WeylElt) -> bool:
    """Bruhat order by lifting along the left descents of v: with s the
    first letter of v's canonical word, u <= v exactly when s*u <= s*v if s
    is a left descent of u, and u <= s*v if not (Bjorner-Brenti, GTM 231,
    prop. 2.2.7).  With tables, per component on the left rows, until u is
    as long as v; then u <= v exactly when the two are equal.  Without,
    on the weights w(2 rho) along v's whole word: u <= v exactly when u
    ends at the identity, whose weight is the only dominant one."""
    if u.datum != v.datum:
        raise DatumMismatch("cannot compare elements of different root data")
    hu, hv = _ids(u), _ids(v)
    if hu is None:  # no tables
        mu, rows = list(_weight(u)), _layout(u.datum).rows
        for a in _spell(u.datum, _weight(v)):
            if mu[a - 1] < 0:
                _move(rows[a - 1], mu, mu[a - 1])
        return all(c >= 0 for c in mu)
    for table, x, y in zip(_layout(u.datum).found, hu, hv):
        lengths, left, words = table.length, table.left, table.words
        lx, ly = lengths[x], lengths[y]
        while lx < ly:
            row = left[words[y][0] - 1]
            y, ly = row[y], ly - 1
            if lengths[row[x]] < lx:
                x, lx = row[x], lx - 1
        if x != y:
            return False
    return True


def bruhat_leq_subword(u: WeylElt, v: WeylElt, base_word: Sequence[int] | None = None) -> bool:
    """Independent subword oracle: scan a fixed reduced word of v and collect
    every element admitting a reduced word as a subsequence."""
    if u.datum != v.datum:
        raise DatumMismatch("cannot compare elements of different root data")
    word = tuple(base_word) if base_word is not None else reduced_word(v)
    if base_word is not None and (not is_reduced(u.datum, word) or from_word(u.datum, word) != v):
        raise NotReduced(f"{word} is not a reduced word for the right-hand element")
    reachable = {identity(u.datum)}
    for i in word:
        s = simple_reflection(u.datum, i)
        grown = set()
        for x in reachable:
            y = mul(x, s)
            if length(y) > length(x):
                grown.add(y)
        reachable |= grown
    return u in reachable


def _weight(w: WeylElt) -> tuple[int, ...]:
    """w(2 rho) in fundamental-weight coordinates, <w(2 rho), coroot_i>:
    for a table-born element, filled on first read from its image of 2 rho
    (see _apply) and kept on w."""
    if w.weight is None:
        beta = _apply(w, _layout(w.datum).two_rho)
        w.weight = tuple([sum(map(int.__mul__, beta, col)) for col in zip(*w.datum.cartan)])
    return w.weight


def _spell(datum: RootDatum, mu: Sequence[int]) -> Word:
    """The canonical word of the w with w(2 rho) = mu (see _weight), without w:
    strip the smallest left descent from a copy of mu until it is dominant."""
    rows, word, i, mu = _layout(datum).rows, [], 0, list(mu)
    while i < len(mu):
        if mu[i] < 0:
            word.append(i + 1)
            _move(rows[i], mu, mu[i])
            i = 0
        else:
            i += 1
    return tuple(word)


# --- tables and component lookups ------------------------------------------------


class WeylTable:
    """The whole group of one Cartan matrix as integer tables, O(|W| * rank).

    Ids run in (length, canonical word) order, so id 0 is the identity.  For
    the element w with id k, ``keys[k]`` holds its simple-root images, each
    as its index in the sorted ``roots``, ``left[i - 1][k]`` and
    ``right[i - 1][k]`` are the ids of s_i * w and w * s_i, and
    ``inverse[k]`` is the id of w^-1.  _walk finds ids along a word.

    Built by breadth-first search under left multiplication, one length at a
    time, on the keys (below TABLE_CAP there are at most 72 roots, in E6 and
    B6, so an index fits a byte), so that s_i acts by one bytes.translate.
    With the simple index in the outer loop, an element is first reached from
    its smallest left descent i, and its canonical word is i followed by the
    word of s_i * w; each length's elements are found in canonical-word order.
    Each edge found fills both its ends, so a left descent costs no translate.
    """

    __slots__ = ("keys", "roots", "length", "words", "left", "right", "inverse")

    def __init__(self, datum: RootDatum):
        r, n = datum.rank, group_order(datum)
        roots = sorted(all_roots(datum))
        position = {beta: k for k, beta in enumerate(roots)}
        # s_i(beta) = beta - <beta, coroot_i> alpha_i as a bytes.translate table
        perms = []
        for i, col in enumerate(zip(*datum.cartan)):
            moved = (b[:i] + (b[i] - sum(map(int.__mul__, b, col)),) + b[i + 1 :] for b in roots)
            perms.append(bytes(map(position.__getitem__, moved)).ljust(256, b"\0"))
        start = bytes([position[simple_root(datum, j)] for j in range(1, r + 1)])
        keys = [start]
        seen = {start: 0}
        words: list[Word] = [()]
        lengths = [0]
        left = [[-1] * n for _ in range(r)]
        level = [0]
        while level:
            nxt = []
            for i in range(r):
                perm, row = perms[i], left[i]
                for x in level:
                    if row[x] >= 0:  # s_i * x is one shorter: the edge is filled
                        continue
                    y = keys[x].translate(perm)
                    k = seen.get(y)
                    if k is None:
                        k = seen[y] = len(keys)
                        keys.append(y)
                        words.append((i + 1,) + words[x])
                        lengths.append(lengths[x] + 1)
                        nxt.append(k)
                    row[x], row[k] = k, x
            level = nxt
        # w = s_a * tail has the prefix w * s_last = s_a * prefix(tail), and
        # the inverse s_last * inverse(prefix); both are shorter than w.
        prefix = [0] * n
        inverse = [0] * n
        for k in range(1, n):
            word = words[k]
            if len(word) > 1:
                first = left[word[0] - 1]
                prefix[k] = first[prefix[first[k]]]
            inverse[k] = left[word[-1] - 1][inverse[prefix[k]]]
        self.keys, self.roots = tuple(keys), tuple(roots)
        self.length = tuple(lengths)
        self.words = tuple(words)
        self.left = tuple(tuple(row) for row in left)
        # w * s_i = (s_i * w^-1)^-1
        self.right = tuple(tuple([inverse[row[inverse[k]]] for k in range(n)]) for row in self.left)
        self.inverse = tuple(inverse)


# One table per Cartan matrix, built on first whole-group use and kept for
# the process: irreducible ones serve every datum with such a component,
# and a reducible datum's own table serves its whole-group walks.
_tables: dict[Cartan, WeylTable] = {}


def group_order(datum: RootDatum) -> int:
    """|W| as the product of the degrees, read off the heights of the positive
    roots (Kostant): there are as many exponents >= h as positive roots of
    height h, and the degrees are the exponents plus one."""
    count = Counter(sum(beta) for beta in positive_roots(datum))
    order = 1
    for h, m in count.items():
        order *= (h + 1) ** (m - count[h + 1])
    return order


def _table(datum: RootDatum) -> WeylTable:
    """The table of the whole group of the datum, built on first use;
    refused above TABLE_CAP elements."""
    table = _tables.get(datum.cartan)
    if table is None:
        _check_cap(datum)
        table = _tables[datum.cartan] = WeylTable(datum)
    return table


def _check_cap(datum: RootDatum) -> None:
    if (order := group_order(datum)) > TABLE_CAP:
        raise TableTooLarge(f"|W| = {order} is above the table cap of {TABLE_CAP} elements")


def _part_datum(datum: RootDatum, part: Sequence[int]) -> RootDatum:
    """The simply connected datum of the sub-diagram on the 0-based indices
    in part; a sub-matrix of a valid Cartan matrix needs no validation."""
    n = len(part)
    cartan = tuple(tuple(datum.cartan[i][j] for j in part) for i in part)
    return RootDatum(
        cartan=cartan,
        root_images=cartan,
        coroot_images=tuple(tuple(int(i == j) for j in range(n)) for i in range(n)),
        twist=tuple(range(1, n + 1)),
        isogeny="simply_connected",
        name=None,
    )


class _Layout:
    """A datum's connected components: ``parts`` holds each one's 0-based
    simple indices (the parts in order of their smallest index), ``subs``
    its datum, and ``where[i - 1]`` the part and local 1-based letter of
    simple index i.  ``links[i - 1]`` lists the neighbours j of i with a_ji
    = <alpha_j, coroot_i> (column i of the Cartan matrix), for the root
    walks, and ``rows[i - 1]`` the nonzero (j, a_ij) of row i, for _move;
    ``simple`` maps the simple root alpha_i to where[i - 1], in order of i;
    ``two_rho`` is the sum of the positive roots (from _validate_cartan),
    for _weight.  The component tables are kept in ``found`` once built,
    with ``roots[c]``, the roots part c's keys index, in the datum's
    coordinates, and so is the element list of enumerate_elements."""

    __slots__ = ("parts", "subs", "where", "links", "rows", "simple", "two_rho", "found", "roots", "elements")

    def __init__(self, datum: RootDatum):
        r = datum.rank
        seen = [False] * r
        parts = []
        for start in range(r):
            if seen[start]:
                continue
            seen[start] = True
            part, frontier = [start], [start]
            while frontier:
                i = frontier.pop()
                for j in range(r):
                    if datum.cartan[i][j] and not seen[j]:
                        seen[j] = True
                        part.append(j)
                        frontier.append(j)
            parts.append(tuple(sorted(part)))
        self.parts = tuple(parts)
        self.subs = tuple(_part_datum(datum, part) for part in parts)
        self.where: list[tuple[int, int]] = [(0, 0)] * r
        for c, part in enumerate(self.parts):
            for a, i in enumerate(part, 1):
                self.where[i] = (c, a)
        self.links = [
            [(j, row[i]) for j, row in enumerate(datum.cartan) if row[i] and j != i] for i in range(r)
        ]
        self.rows = [[(j, y) for j, y in enumerate(row) if y] for row in datum.cartan]
        self.simple = {simple_root(datum, i): self.where[i - 1] for i in range(1, r + 1)}
        self.two_rho = _validate_cartan(datum.cartan) if r else ()  # a rank-0 part datum has no matrix to check
        self.found: list[WeylTable] | None = None
        self.roots: list[list[Root]] | None = None
        self.elements: tuple[WeylElt, ...] | None = None

    def tables(self) -> list[WeylTable] | None:
        """The component tables, or None while some component has none."""
        if self.found is None:
            got = [_tables.get(sub.cartan) for sub in self.subs]
            if None in got:
                return None
            r = len(self.where)  # a part holding every index reads its table's roots as they are
            self.roots = [[tuple(dict(zip(part, b)).get(j, 0) for j in range(r)) for b in t.roots] if len(part) < r
                          else t.roots for part, t in zip(self.parts, got)]
            self.found = got
        return self.found


def _layout(datum: RootDatum) -> _Layout:
    """The datum's layout, made once and kept on the datum, as its hash is:
    every element lookup starts here."""
    try:
        return datum._layout
    except AttributeError:
        layout = _Layout(datum)
        object.__setattr__(datum, "_layout", layout)
        return layout


def _ids(w: WeylElt) -> tuple[int, ...] | None:
    """The id of w in each component table of its datum (_Layout.found), or
    None without tables.  The ids are w's own when it carries them;
    otherwise they are found by spelling w's canonical word from its weight
    and walking the right rows along it, and kept on w."""
    if w.ids is None:
        tables = _layout(w.datum).tables()
        if tables is None:
            return None
        w.ids = tuple(_walk(w.datum, tables, _spell(w.datum, w.weight)))
    return w.ids


def _walk(datum: RootDatum, tables: Sequence[WeylTable], word: Iterable[int]) -> list[int]:
    """The component ids of the product of the word's letters: from the
    identity, each letter moves its component's id along its right row."""
    where, ids, r = _layout(datum).where, [0] * len(tables), datum.rank
    for i in word:
        if i.__class__ is not int or not 0 < i <= r:
            _check_letter(datum, i)
        c, a = where[i - 1]
        ids[c] = tables[c].right[a - 1][ids[c]]
    return ids


def _element(datum: RootDatum, ids: Sequence[int]) -> WeylElt:
    """The element with the given component ids, carrying them only."""
    elements = _layout(datum).elements
    if elements is not None and len(ids) == 1:
        return elements[ids[0]]
    return WeylElt(datum, None, tuple(ids))


def _root_column(datum: RootDatum, elements: Sequence[WeylElt], i: int) -> list[Root]:
    """w(alpha_i) for every element w: _apply, read off one key byte for those with ids."""
    layout, alpha = _layout(datum), simple_root(datum, i)
    if layout.found is None:
        return [_apply(w, alpha) for w in elements]
    c, a = layout.where[i - 1]
    keys, roots = layout.found[c].keys, layout.roots[c]
    return [_apply(w, alpha) if w.ids is None else roots[keys[w.ids[c]][a - 1]] for w in elements]


def _word(datum: RootDatum, tables: Sequence[WeylTable | None], ids: Sequence[int]) -> Word:
    """The canonical word from component ids (a component without a table
    must have id 0).  Letters of different components commute, so the
    greedy smallest-left-descent word takes, at each step, the smallest
    first letter left among the components' words.  Cut each word before
    every letter larger than all letters before it: the letters of a run
    after its first are smaller than the first, so the merge takes each run
    whole, in increasing order of their first letters: a stable sort of the
    letters keyed by their runs' first letters, the largest of each word up
    to the letter.  When the components are consecutive blocks of indices,
    that is their words one after another."""
    if len(tables) == 1:
        return tables[0].words[ids[0]]
    letters = []
    for part, table, k in zip(_layout(datum).parts, tables, ids):
        if k:
            top = 0
            for a in table.words[k]:
                i = part[a - 1] + 1
                if i > top:
                    top = i
                letters.append((top, i))
    letters.sort(key=itemgetter(0))
    return tuple([i for _, i in letters])


# --- whole-group operations ----------------------------------------------------------


def enumerate_elements(datum: RootDatum) -> tuple[WeylElt, ...]:
    """All elements, sorted by length then by canonical reduced word, each
    carrying its component ids; no table of a product of components."""
    layout = _layout(datum)
    if layout.elements is None:
        _check_cap(datum)
        # on one component, the datum's own table: its roots are already known
        tables = [_table(datum if len(layout.subs) == 1 else sub) for sub in layout.subs]
        ids = product(*(range(len(table.words)) for table in tables))
        if len(tables) > 1:
            ids = sorted(ids, key=lambda x: (sum([t.length[k] for t, k in zip(tables, x)]), _word(datum, tables, x)))
        layout.tables()  # found, for the weights and images read off the keys
        layout.elements = tuple([WeylElt(datum, None, x) for x in ids])
    return layout.elements


def reflection_word(datum: RootDatum, beta: Root) -> Word:
    """A palindromic reduced word for the reflection in a positive root,
    found by descending the root to a simple one."""
    if not is_root(datum, beta):
        raise NotARoot(f"{beta} is not a root")
    if any(c < 0 for c in beta):
        raise NotPositiveRoot(f"{beta} is not positive")
    for i in range(1, datum.rank + 1):
        if beta == simple_root(datum, i):
            return (i,)
    for i in range(1, datum.rank + 1):
        if coroot_pairing(datum, beta, i) > 0:
            inner = reflection_word(datum, reflect(datum, i, beta))
            return (i,) + inner + (i,)
    raise AssertionError("positive root with no positive coroot pairing")  # pragma: no cover


def reflection_element(datum: RootDatum, beta: Root) -> WeylElt:
    return from_word(datum, reflection_word(datum, beta))


def apply_twist(w: WeylElt) -> WeylElt:
    """The diagram twist theta acting as a group automorphism: theta fixes
    2 rho and sends the fundamental weight of i to that of theta(i), so
    theta(w)(2 rho) = theta(w(2 rho)) is w's weight with its coordinates
    permuted as twist_root permutes a root's."""
    return WeylElt(w.datum, twist_root(w.datum, _weight(w)))


# --- word strings ----------------------------------------------------------


def format_word(word: Word) -> str:
    return ",".join(map(str, word)) if word else "e"


def parse_word(datum: RootDatum, text: str) -> Word:
    text = text.strip()
    if text in ("", "e"):
        return ()
    word = tuple(_decimal(part.strip()) for part in text.split(","))
    if None in word:
        raise ParseError(f"cannot parse word {text!r}")
    for i in word:
        if not 1 <= i <= datum.rank:
            raise ParseError(f"letter {i} out of range 1..{datum.rank}")
    return word
