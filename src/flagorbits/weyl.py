"""Weyl group elements, words, lengths, Bruhat order, and the exchange map.

An element is stored by its images of the simple roots, which makes equality
and hashing canonical and keeps every product exact.  Words are tuples of
1-based simple indices.

Whole-group operations build a WeylTable, one per root datum on first use.
Per-element calls only read a table that exists; otherwise they work on the
root images, so that E7 and E8, too large to tabulate, still answer queries.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import DatumMismatch, NotADescent, NotARoot, NotPositiveRoot, NotReduced, ParseError
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
    w = identity(datum)
    for i in word:
        w = mul(w, simple_reflection(datum, i))
    return w


def _table_id(w: WeylElt) -> tuple[WeylTable, int] | None:
    """The table of w's datum and the id of w in it, if the table is built."""
    table = _tables.get(w.datum)
    if table is not None:
        k = table.index.get(w.images)
        if k is not None:
            return table, k
    return None


def length(w: WeylElt) -> int:
    """Number of positive roots sent negative."""
    hit = _table_id(w)
    if hit is not None:
        return hit[0].length[hit[1]]
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
                x = mul(x, simple_reflection(w.datum, i))
                break
        else:
            return tuple(word)


def reduced_word(w: WeylElt) -> Word:
    """The lexicographically smallest reduced word, built by always taking
    the smallest simple reflection that shortens on the left."""
    hit = _table_id(w)
    if hit is not None:
        return hit[0].words[hit[1]]
    return _descent_walk(inv(w))


def inv(w: WeylElt) -> WeylElt:
    hit = _table_id(w)
    if hit is not None:
        table, k = hit
        return table.elements[table.inverse[k]]
    return from_word(w.datum, _descent_walk(w))


def is_reduced(datum: RootDatum, word: Iterable[int]) -> bool:
    """Prefix criterion: each prefix must keep the next simple root positive."""
    word = tuple(word)
    for i in word:
        if not 1 <= i <= datum.rank:
            raise NotARoot(f"simple index {i} out of range 1..{datum.rank}")
    w = identity(datum)
    for i in word:
        beta = w.images[i - 1]
        if any(c < 0 for c in beta):
            return False
        w = mul(w, simple_reflection(datum, i))
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
    s = simple_reflection(datum, alpha)
    if descent_direction(w, simple_root(datum, alpha)) is Direction.UP:
        raise NotADescent(f"simple root {alpha} is not a descent")
    target = mul(w, s)
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
        s = simple_reflection(u.datum, i)
        v, lv = mul(v, s), lv - 1
        if any(c < 0 for c in u.images[i - 1]):
            u, lu = mul(u, s), lu - 1
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


class WeylTable:
    """The whole group of one root datum as integer tables, O(|W| * rank).

    Ids run in (length, canonical word) order, so id 0 is the identity.  For
    the element w with id k, ``left[i - 1][k]`` and ``right[i - 1][k]`` are
    the ids of s_i * w and w * s_i, and ``inverse[k]`` is the id of w^-1.

    Built by breadth-first search under left multiplication, one length at a
    time, on elements held as the indices of their simple-root images in a
    list of all roots, so that s_i acts by a lookup.  With the simple index
    in the outer loop, an element is first reached from its smallest left
    descent i, and its canonical word is i followed by the word of s_i * w;
    each length's elements are found in canonical-word order.
    """

    __slots__ = ("elements", "index", "length", "words", "left", "right", "inverse")

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
        self.elements = tuple(WeylElt(datum, tuple([roots[b] for b in key])) for key in keys)
        self.index = {w.images: k for k, w in enumerate(self.elements)}
        self.length = tuple(lengths)
        self.words = tuple(words)
        self.left = tuple(tuple(row) for row in left)
        # w * s_i = (s_i * w^-1)^-1
        self.right = tuple(tuple([inverse[row[inverse[k]]] for k in range(n)]) for row in self.left)
        self.inverse = tuple(inverse)


# One table per root datum, built on first use and kept for the process.
_tables: dict[RootDatum, WeylTable] = {}


def _table(datum: RootDatum) -> WeylTable:
    table = _tables.get(datum)
    if table is None:
        table = _tables[datum] = WeylTable(datum)
    return table


def enumerate_elements(datum: RootDatum) -> tuple[WeylElt, ...]:
    """All elements, sorted by length then by canonical reduced word."""
    return _table(datum).elements


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
    return ",".join(str(i) for i in word) if word else "e"


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
