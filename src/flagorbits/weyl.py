"""Weyl group elements, words, lengths, Bruhat order, and the exchange map.

An element is stored by its images of the simple roots, which makes equality
and hashing canonical and keeps every product exact.  Words are tuples of
1-based simple indices.

The group of a datum is the product of the groups of the connected
components of its Dynkin diagram.  There is one WeylTable per irreducible
Cartan matrix, shared by every datum with such a component (the two copies
in group_case's doubled datum read the table of the one group), and an
element is looked up as one table id per component.  Whole-group operations
build the tables, up to TABLE_CAP elements; per-element calls only read
tables that exist, and otherwise work on the root images with
simple-reflection kernels, so that E7 and E8 still answer queries.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
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

# |W(E6)|: the largest group tabulated, so about 50 MB of tables at most.
TABLE_CAP = 51_840


@dataclass(frozen=True)
class WeylElt:
    """A Weyl group element, canonically the tuple of simple-root images."""

    datum: RootDatum
    images: tuple[Root, ...]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WeylElt({format_word(reduced_word(self))})"


def identity(datum: RootDatum) -> WeylElt:
    return WeylElt(datum, tuple(simple_root(datum, i) for i in range(1, datum.rank + 1)))


@lru_cache(maxsize=None)
def simple_reflection(datum: RootDatum, i: int) -> WeylElt:
    return WeylElt(datum, tuple(reflect(datum, i, simple_root(datum, j)) for j in range(1, datum.rank + 1)))


def _apply(w: WeylElt, beta: Sequence[int]) -> Root:
    """Linear extension of the simple-root images; no membership check."""
    n = w.datum.rank
    out = [0] * n
    for j, c in enumerate(beta):
        if c:
            img = w.images[j]
            for k in range(n):
                out[k] += c * img[k]
    return tuple(out)


def act_on_root(w: WeylElt, beta: Root) -> Root:
    if not is_root(w.datum, beta):
        raise NotARoot(f"{beta} is not a root")
    return _apply(w, beta)


def mul(u: WeylElt, v: WeylElt) -> WeylElt:
    if u.datum != v.datum:
        raise DatumMismatch("cannot multiply elements of different root data")
    return WeylElt(u.datum, tuple(_apply(u, img) for img in v.images))


def from_word(datum: RootDatum, word: Iterable[int]) -> WeylElt:
    layout = _layout(datum)
    tables = layout.tables()
    if tables is None:
        return _root_from_word(datum, word)
    ids = [0] * len(tables)
    for i in word:
        _check_letter(datum, i)
        c, a = layout.where[i - 1]
        ids[c] = tables[c].right[a - 1][ids[c]]
    return _element(datum, ids)


def length(w: WeylElt) -> int:
    """Number of positive roots sent negative."""
    hit = _ids(w)
    if hit is None:
        return _root_length(w)
    tables, ids = hit
    return sum([table.length[k] for table, k in zip(tables, ids)])


def reduced_word(w: WeylElt) -> Word:
    """The lexicographically smallest reduced word, built by always taking
    the smallest simple reflection that shortens on the left."""
    hit = _ids(w)
    if hit is None:
        return _descent_walk(_root_inv(w))
    return _word(w.datum, *hit)


def inv(w: WeylElt) -> WeylElt:
    hit = _ids(w)
    if hit is None:
        return _root_inv(w)
    return _element(w.datum, [table.inverse[k] for table, k in zip(*hit)])


def is_reduced(datum: RootDatum, word: Iterable[int]) -> bool:
    """Prefix criterion: each prefix must keep the next simple root positive."""
    word = tuple(word)
    for i in word:
        _check_letter(datum, i)
    w = identity(datum)
    for i in word:
        if any(c < 0 for c in w.images[i - 1]):
            return False
        w = _times_s(w, i)
    return True


class Direction(enum.Enum):
    UP = "up"
    DOWN = "down"


def descent_direction(w: WeylElt, alpha: Root) -> Direction:
    """Whether right multiplication by the reflection in the positive root
    alpha lengthens (UP) or shortens (DOWN) the element."""
    if not is_root(w.datum, alpha):
        raise NotARoot(f"{alpha} is not a root")
    if any(c < 0 for c in alpha):
        raise NotPositiveRoot(f"{alpha} is not positive")
    return Direction.UP if all(c >= 0 for c in _apply(w, alpha)) else Direction.DOWN


def exchange(datum: RootDatum, word: Sequence[int], alpha: int) -> int:
    """Strong exchange at a simple descent: the 1-based position whose removal
    from the reduced word yields a reduced word for w*s_alpha."""
    word = tuple(word)
    if not is_reduced(datum, word):
        raise NotReduced(f"{word} is not reduced")
    w = from_word(datum, word)
    if descent_direction(w, simple_root(datum, alpha)) is Direction.UP:
        raise NotADescent(f"simple root {alpha} is not a descent")
    target = _times_s(w, alpha)
    for j in range(len(word)):
        if from_word(datum, word[:j] + word[j + 1 :]) == target:
            return j + 1
    raise AssertionError("exchange position must exist at a descent")  # pragma: no cover


def bruhat_leq(u: WeylElt, v: WeylElt) -> bool:
    """Bruhat order by downward lifting: strip the smallest descent s of v,
    and strip it from u too when it is a descent of u, until u is as long
    as v; then u <= v exactly when the two are equal."""
    if u.datum != v.datum:
        raise DatumMismatch("cannot compare elements of different root data")
    lu, lv = length(u), length(v)
    while lu < lv:
        i = next(i for i, beta in enumerate(v.images, 1) if any(c < 0 for c in beta))
        v, lv = _times_s(v, i), lv - 1
        if any(c < 0 for c in u.images[i - 1]):
            u, lu = _times_s(u, i), lu - 1
    return u == v


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


# --- simple-reflection kernels on the root images -----------------------------


def _check_letter(datum: RootDatum, i: int) -> None:
    if not 1 <= i <= datum.rank:
        raise NotARoot(f"simple index {i} out of range 1..{datum.rank}")


def _times_s(w: WeylElt, i: int) -> WeylElt:
    """w * s_i: since s_i(alpha_j) = alpha_j - a_ji alpha_i, only alpha_i and
    its neighbours in the Dynkin diagram change image."""
    images = w.images
    img = images[i - 1]
    out = list(images)
    out[i - 1] = tuple([-c for c in img])
    for j, a in _layout(w.datum).links[i - 1]:
        out[j] = tuple([x - a * y for x, y in zip(images[j], img)])
    return WeylElt(w.datum, tuple(out))


def _s_times(i: int, w: WeylElt) -> WeylElt:
    """s_i * w: s_i(beta) = beta - <beta, coroot_i> alpha_i on every image,
    the pairing read off the neighbours of i."""
    links = _layout(w.datum).links[i - 1]
    k = i - 1
    out = []
    for beta in w.images:
        c = 2 * beta[k]
        for j, a in links:
            c += a * beta[j]
        out.append(beta[:k] + (beta[k] - c,) + beta[i:] if c else beta)
    return WeylElt(w.datum, tuple(out))


def _root_length(w: WeylElt) -> int:
    return sum(1 for beta in positive_roots(w.datum) if any(c < 0 for c in _apply(w, beta)))


def _descent_walk(w: WeylElt) -> Word:
    """Strip the smallest right descent until the identity is reached: the
    letters j1..jl with w * s_j1 * ... * s_jl = e.  Since the right descents
    of w are the left descents of its inverse, these are the greedy
    left-descent word of the inverse."""
    word: list[int] = []
    x = w
    while True:
        for i, beta in enumerate(x.images, 1):
            if any(c < 0 for c in beta):
                word.append(i)
                x = _times_s(x, i)
                break
        else:
            return tuple(word)


def _root_from_word(datum: RootDatum, word: Iterable[int]) -> WeylElt:
    w = identity(datum)
    for i in word:
        _check_letter(datum, i)
        w = _times_s(w, i)
    return w


def _root_inv(w: WeylElt) -> WeylElt:
    return _root_from_word(w.datum, _descent_walk(w))


# --- tables and component lookups ------------------------------------------------


class WeylTable:
    """The whole group of one Cartan matrix as integer tables, O(|W| * rank).

    Ids run in (length, canonical word) order, so id 0 is the identity.  For
    the element w with id k, ``images[k]`` holds its simple-root images,
    ``left[i - 1][k]`` and ``right[i - 1][k]`` are the ids of s_i * w and
    w * s_i, and ``inverse[k]`` is the id of w^-1.

    Built by breadth-first search under left multiplication, one length at a
    time, on elements held as the indices of their simple-root images in a
    list of all roots, so that s_i acts by a lookup.  With the simple index
    in the outer loop, an element is first reached from its smallest left
    descent i, and its canonical word is i followed by the word of s_i * w;
    each length's elements are found in canonical-word order.
    """

    __slots__ = ("images", "index", "length", "words", "left", "right", "inverse")

    def __init__(self, datum: RootDatum):
        r = datum.rank
        roots = sorted(all_roots(datum))
        position = {beta: k for k, beta in enumerate(roots)}
        perms = [tuple(position[reflect(datum, i, beta)] for beta in roots) for i in range(1, r + 1)]
        start = tuple(position[simple_root(datum, j)] for j in range(1, r + 1))
        keys = [start]
        seen = {start: 0}
        words: list[Word] = [()]
        lengths = [0]
        left: list[list[int]] = [[] for _ in range(r)]
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
                    # Per i, x runs through the ids in increasing order.
                    row.append(k)
            level = nxt
        # w = s_a * tail has the prefix w * s_last = s_a * prefix(tail), and
        # the inverse s_last * inverse(prefix); both are shorter than w.
        n = len(keys)
        prefix = [0] * n
        inverse = [0] * n
        for k in range(1, n):
            word = words[k]
            if len(word) > 1:
                first = left[word[0] - 1]
                prefix[k] = first[prefix[first[k]]]
            inverse[k] = left[word[-1] - 1][inverse[prefix[k]]]
        self.images = tuple(tuple([roots[b] for b in key]) for key in keys)
        self.index = {images: k for k, images in enumerate(self.images)}
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
    """The table of the whole group of the datum, built on first use, with
    those of its components; refused above TABLE_CAP elements."""
    table = _tables.get(datum.cartan)
    if table is None:
        order = group_order(datum)
        if order > TABLE_CAP:
            raise TableTooLarge(f"|W| = {order} is above the table cap of {TABLE_CAP} elements")
        subs = _layout(datum).subs
        if len(subs) > 1:
            for sub in subs:
                _table(sub)
        table = _tables[datum.cartan] = WeylTable(datum)
    return table


def _part_datum(datum: RootDatum, part: Sequence[int]) -> RootDatum:
    """The simply connected datum of the sub-diagram on the 0-based indices
    in part; a sub-matrix of a valid Cartan matrix needs no validation."""
    n = len(part)
    cartan = tuple(tuple(datum.cartan[i][j] for j in part) for i in part)
    return RootDatum(
        cartan=cartan,
        labels=tuple(str(i + 1) for i in range(n)),
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
    simple index i.  ``links[i - 1]`` lists the neighbours j of i with
    a_ji = <alpha_j, coroot_i>, for the kernels.  The component tables are
    remembered here once built, and so are the element list of
    enumerate_elements and, per component id, the runs of _word."""

    __slots__ = ("parts", "subs", "where", "links", "found", "elements", "runs")

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
        self.found: list[WeylTable] | None = None
        self.elements: tuple[WeylElt, ...] | None = None
        self.runs: list[dict[int, list[Word]]] = [{} for _ in parts]

    def tables(self) -> list[WeylTable] | None:
        """The component tables, or None while some component has none."""
        if self.found is None:
            got = [_tables.get(sub.cartan) for sub in self.subs]
            if None in got:
                return None
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


def _ids(w: WeylElt) -> tuple[list[WeylTable], tuple[int, ...]] | None:
    """The component tables of w's datum and the id of w in each, or None
    without tables."""
    layout = _layout(w.datum)
    tables = layout.tables()
    if tables is None:
        return None
    if len(tables) == 1:
        k = tables[0].index.get(w.images)
        return None if k is None else (tables, (k,))
    ids = []
    for part, table in zip(layout.parts, tables):
        k = table.index.get(tuple(tuple(w.images[i][j] for j in part) for i in part))
        if k is None:
            return None
        ids.append(k)
    return tables, tuple(ids)


def _element(datum: RootDatum, ids: Sequence[int]) -> WeylElt:
    """The element with the given component ids; the tables must exist."""
    layout = _layout(datum)
    tables = layout.tables()
    if len(tables) == 1:
        if layout.elements is not None:
            return layout.elements[ids[0]]
        return WeylElt(datum, tables[0].images[ids[0]])
    r = datum.rank
    images: list[Root] = [()] * r
    for part, table, k in zip(layout.parts, tables, ids):
        for i, local in zip(part, table.images[k]):
            full = [0] * r
            for j, c in zip(part, local):
                full[j] = c
            images[i] = tuple(full)
    return WeylElt(datum, tuple(images))


def _word(datum: RootDatum, tables: Sequence[WeylTable | None], ids: Sequence[int]) -> Word:
    """The canonical word from component ids (a component without a table
    must have id 0).  Letters of different components commute, so the
    greedy smallest-left-descent word takes, at each step, the smallest
    first letter left among the components' words.  Cut each word before
    every letter larger than all letters before it: the letters of a run
    after its first are smaller than the first, so the merge takes each run
    whole, and takes the runs in increasing order of their first letters.
    When the components are consecutive blocks of indices, that is their
    words one after another."""
    if len(tables) == 1:
        return tables[0].words[ids[0]]
    layout = _layout(datum)
    runs = []
    for c, k in enumerate(ids):
        if k:
            memo = layout.runs[c]
            got = memo.get(k)
            if got is None:
                got = memo[k] = _runs(layout.parts[c], tables[c].words[k])
            runs += got
    # First letters are distinct, so the tuples sort by them.
    runs.sort()
    return tuple(chain.from_iterable(runs))


def _runs(part: Sequence[int], word: Word) -> list[Word]:
    """The word in the datum's letters, cut before each new largest letter."""
    out: list[Word] = []
    run: list[int] = []
    top = 0
    for a in word:
        i = part[a - 1] + 1
        if i > top:
            if run:
                out.append(tuple(run))
            run, top = [i], i
        else:
            run.append(i)
    if run:
        out.append(tuple(run))
    return out


# --- whole-group operations ----------------------------------------------------------


def enumerate_elements(datum: RootDatum) -> tuple[WeylElt, ...]:
    """All elements, sorted by length then by canonical reduced word."""
    layout = _layout(datum)
    if layout.elements is None:
        layout.elements = tuple(WeylElt(datum, images) for images in _table(datum).images)
    return layout.elements


def _p_minimal(table: WeylTable, levi: Sequence[int]) -> list[int]:
    """The ids, in id order, with no left descent among the simple indices in
    levi: the minimal representatives of the cosets W_levi * w."""
    rows = [table.left[i - 1] for i in levi]
    length = table.length
    return [k for k in range(len(length)) if all(length[row[k]] > length[k] for row in rows)]


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
    """The diagram twist acting as a group automorphism."""
    datum = w.datum
    out: list[Root] = [()] * datum.rank
    for i in range(datum.rank):
        out[datum.twist[i] - 1] = twist_root(datum, w.images[i])
    return WeylElt(datum, tuple(out))


# --- word strings ----------------------------------------------------------


def format_word(word: Word) -> str:
    return ",".join(map(str, word)) if word else "e"


def parse_word(datum: RootDatum, text: str) -> Word:
    text = text.strip()
    if text in ("", "e"):
        return ()
    try:
        word = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ParseError(f"cannot parse word {text!r}") from None
    for i in word:
        if not 1 <= i <= datum.rank:
            raise ParseError(f"letter {i} out of range 1..{datum.rank}")
    return word
