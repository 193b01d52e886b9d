"""Left cosets of a Levi-generated parabolic subgroup acting on the Weyl group.

A coset is held by its minimal and maximal length representatives.  The
quotient carries a length, a reduced-word theory relative to the nilradical,
an exchange map, and the Bruhat order induced from the full group.
"""

from __future__ import annotations

import enum
from typing import Iterator, NamedTuple

from .errors import NotDownward, NotPositiveRoot, NotPReduced, ParabolicMismatch
from .orbit_poset import _coset_walk, _gather, _members, from_parabolic, from_weyl, lower_ideal, property_z_check
from .root_datum import Root, RootDatum, RootPosition, classify_wrt_parabolic, is_root, normalize_levi
from .weyl import (
    WeylElt,
    Word,
    _apply,
    _climbs,
    _layout,
    _move,
    _part_datum,
    _spell,
    _weight,
    bruhat_leq,
    bruhat_leq_subword,
    enumerate_elements,
    exchange,
    format_word,
    from_word,
    identity,
    length,
    mul,
    reduced_word,
    simple_reflection,
)

Levi = tuple[int, ...]


class StepType(enum.Enum):
    """Effect of a simple reflection on a coset, read off the root image."""

    LEVI_TYPE = "LeviType"
    COMPLEX_UPWARD = "ComplexUpward"
    COMPLEX_DOWNWARD = "ComplexDownward"


class ParabolicCoset(NamedTuple):
    levi: Levi
    min_rep: WeylElt
    max_rep: WeylElt

    @property
    def datum(self) -> RootDatum:
        return self.min_rep.datum


def levi_subgroup_elements(datum: RootDatum, levi: Levi) -> tuple[WeylElt, ...]:
    """The subgroup generated by the chosen simple reflections, sorted by
    length, then by canonical reduced word: the group of the Levi set's
    own sub-diagram, whose letter a stands for levi[a - 1], so it raises
    TableTooLarge above TABLE_CAP elements, as coset_elements does.  Every
    reduced word of an element of W_levi uses only letters from levi, and
    renaming the letters in increasing order keeps the order of the words."""
    levi = normalize_levi(datum, levi)
    sub = _part_datum(datum, [i - 1 for i in levi])
    return tuple(from_word(datum, [levi[a - 1] for a in reduced_word(w)]) for w in enumerate_elements(sub))


def _extreme(w: WeylElt, levi: Levi, shorten: bool) -> WeylElt:
    """Multiply w on the left by letters of levi while one shortens it (or,
    with shorten false, lengthens it), on a copy of its weight mu: s_i * w
    is shorter than w exactly when mu_i < 0.  The result, w itself if no
    letter moves it, is the minimal (or maximal) element of W_levi * w."""
    rows, mu = _layout(w.datum).rows, list(_weight(w))
    while (i := next((i for i in levi if (mu[i - 1] < 0) == shorten), None)) is not None:
        _move(rows[i - 1], mu, mu[i - 1])
    return w if w.weight == tuple(mu) else WeylElt(w.datum, tuple(mu))


def longest_levi_element(datum: RootDatum, levi: Levi) -> WeylElt:
    """The longest element of W_levi, grown on the weights without a table:
    the maximal element of the coset W_levi * e, whose weight is 2 rho."""
    return _extreme(identity(datum), normalize_levi(datum, levi), False)


def is_p_minimal(w: WeylElt, levi: Levi) -> bool:
    """Minimal in its coset W_levi * w: no letter of levi is a left descent."""
    levi, mu = normalize_levi(w.datum, levi), _weight(w)
    return all(mu[i - 1] > 0 for i in levi)


def is_p_maximal(w: WeylElt, levi: Levi) -> bool:
    levi, mu = normalize_levi(w.datum, levi), _weight(w)
    return all(mu[i - 1] < 0 for i in levi)


def coset_of(w: WeylElt, levi: Levi) -> ParabolicCoset:
    """The coset W_levi * w, both representatives from the weight of w."""
    levi = normalize_levi(w.datum, levi)
    return ParabolicCoset(levi, _extreme(w, levi, True), _extreme(w, levi, False))


def coset_elements(coset: ParabolicCoset) -> tuple[WeylElt, ...]:
    return tuple(
        sorted(
            (mul(l, coset.min_rep) for l in levi_subgroup_elements(coset.datum, coset.levi)),
            key=lambda w: (length(w), reduced_word(w)),
        )
    )


def p_length(coset: ParabolicCoset) -> int:
    return length(coset.min_rep)


def is_p_reduced(datum: RootDatum, word: Word, levi: Levi) -> bool:
    """A reduced word of a minimal coset representative: every letter climbs
    from the Levi weight, 0 on levi and 1 off it, so every prefix sends the
    next simple root into the nilradical.  W's reduced words are the case
    of the empty Levi set."""
    levi = normalize_levi(datum, levi)
    return _climbs(datum, word, [int(i not in levi) for i in range(1, datum.rank + 1)])


def classify_step(w: WeylElt, alpha: Root, levi: Levi) -> StepType:
    """How right multiplication by the reflection in the positive root alpha
    moves the coset of w: fixed, up one, or down one."""
    levi = normalize_levi(w.datum, levi)
    if not is_root(w.datum, alpha):
        raise NotPositiveRoot(f"{alpha} is not a root")
    if any(c < 0 for c in alpha):
        raise NotPositiveRoot(f"{alpha} is not positive")
    pos = classify_wrt_parabolic(w.datum, _apply(w, alpha), levi)
    if pos is RootPosition.LEVI:
        return StepType.LEVI_TYPE
    if pos is RootPosition.NILRADICAL:
        return StepType.COMPLEX_UPWARD
    return StepType.COMPLEX_DOWNWARD


def step_coset(coset: ParabolicCoset, alpha: int) -> ParabolicCoset:
    """The coset of min_rep * s_alpha for a simple index alpha."""
    return coset_of(mul(coset.min_rep, simple_reflection(coset.datum, alpha)), coset.levi)


def coset_bruhat_leq(c1: ParabolicCoset, c2: ParabolicCoset) -> bool:
    if c1.levi != c2.levi or c1.datum != c2.datum:
        raise ParabolicMismatch("cosets live in different quotients")
    return bruhat_leq(c1.min_rep, c2.min_rep)


def coset_bruhat_leq_induced(c1: ParabolicCoset, c2: ParabolicCoset) -> bool:
    """Brute-force induced order: some representative of the first coset lies
    below some representative of the second.  Oracle for coset_bruhat_leq."""
    if c1.levi != c2.levi or c1.datum != c2.datum:
        raise ParabolicMismatch("cosets live in different quotients")
    return any(
        bruhat_leq_subword(x, y) for x in coset_elements(c1) for y in coset_elements(c2)
    )


def _coset_words(datum: RootDatum, levi: Levi) -> Iterator[tuple[Word, Word]]:
    """Per coset of _coset_walk, in its order, the canonical words of the minimal
    representative x, the walk's name, and of the maximal one w0 * x, w0 the longest
    element of W_levi: the _spell of (w0 * x)(2 rho), that is (2, ..., 2) moved along
    the letters of x, last first, then along those of w0, last first."""
    levi = normalize_levi(datum, levi)
    longest, rows = reduced_word(longest_levi_element(datum, levi))[::-1], _layout(datum).rows
    for name in _coset_walk(datum, levi)[0]:
        word = tuple(map(int, name.split(","))) if name != "e" else ()
        mu = [2] * datum.rank
        for a in word[::-1] + longest:
            _move(rows[a - 1], mu, mu[a - 1])
        yield word, _spell(datum, mu)


def enumerate_cosets(datum: RootDatum, levi: Levi) -> tuple[ParabolicCoset, ...]:
    """The cosets by p-length, then by the canonical word of the minimal
    representative, as _coset_words gives their words."""
    levi = normalize_levi(datum, levi)
    return tuple(ParabolicCoset(levi, from_word(datum, x), from_word(datum, y)) for x, y in _coset_words(datum, levi))


def quotient_property_z_check(datum: RootDatum, levi: Levi) -> list[str]:
    """Exhaustively certify the lifting property on the quotient's orbit
    graph and that the order it generates is the induced Bruhat order:
    the ideal of each coset, restricted to the maximal representatives,
    is the ideal of its maximal representative in W.  Returns
    human-readable violations, one per disagreeing pair."""
    levi = normalize_levi(datum, levi)
    g, w = from_parabolic(datum, levi), from_weyl(datum)
    violations = property_z_check(g)
    # each maximal representative in w, named by its canonical word
    tops = {format_word(x): w.index[format_word(y)] for x, y in _coset_words(datum, levi)}
    top = [tops[v] for v in g.nodes]
    restrict = _gather(top, len(w.nodes))
    for v in range(len(g.nodes)):
        differ = lower_ideal(g, g.nodes[v]) ^ restrict(lower_ideal(w, w.nodes[top[v]]))
        for u in _members(differ):
            violations.append(f"re-derived order disagrees at u={g.nodes[u]}, v={g.nodes[v]}")
    return sorted(violations)


def quotient_exchange(datum: RootDatum, word: Word, alpha: int, levi: Levi) -> int:
    """Exchange in the quotient: the 1-based letter whose removal leaves a
    reduced-relative-to-the-quotient word for the lowered coset.  This is
    W's own exchange: a descent s of a minimal representative w, that is a
    letter after which the word no longer climbs from rho, lowers its coset
    (w sends alpha to a negative root, which is not a Levi root, as w^-1
    keeps the positive Levi roots positive), and w * s is again a minimal
    representative, since these are closed under prefixes."""
    levi = normalize_levi(datum, levi)
    word = tuple(word)
    if not is_p_reduced(datum, word, levi):
        raise NotPReduced(f"{word} is not reduced relative to the quotient")
    if _climbs(datum, word + (alpha,), [1] * datum.rank):
        raise NotDownward(f"simple root {alpha} does not lower the coset of {word}")
    return exchange(datum, word, alpha)
