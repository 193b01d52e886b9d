"""Left cosets of a Levi-generated parabolic subgroup acting on the Weyl group.

A coset is held by its minimal and maximal length representatives.  The
quotient carries a length, a reduced-word theory relative to the nilradical,
an exchange map, and the Bruhat order induced from the full group.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import NotDownward, NotPositiveRoot, NotPReduced, ParabolicMismatch
from .orbit_poset import from_parabolic, poset_leq, property_z_check
from .root_datum import (
    Root,
    RootDatum,
    RootPosition,
    classify_wrt_parabolic,
    is_root,
    normalize_levi,
    simple_root,
)
from .weyl import (
    WeylElt,
    Word,
    _apply,
    _p_minimal,
    _part_datum,
    _table,
    _times_s,
    bruhat_leq,
    bruhat_leq_subword,
    enumerate_elements,
    format_word,
    from_word,
    identity,
    inv,
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


@dataclass(frozen=True)
class ParabolicCoset:
    levi: Levi
    min_rep: WeylElt
    max_rep: WeylElt

    @property
    def datum(self) -> RootDatum:
        return self.min_rep.datum


def _levi_words(datum: RootDatum, levi: Levi) -> tuple[Levi, tuple[Word, ...]]:
    """The normalized Levi set and the canonical words of W_levi by length,
    then word, read off the table of the Levi set's own sub-diagram, whose
    letter a stands for levi[a - 1].  Every reduced word of an element of
    W_levi uses only letters from levi, and renaming the letters in
    increasing order keeps the order of the words."""
    levi = normalize_levi(datum, levi)
    words = _table(_part_datum(datum, [i - 1 for i in levi])).words if levi else ((),)
    return levi, words


def levi_subgroup_elements(datum: RootDatum, levi: Levi) -> tuple[WeylElt, ...]:
    """The subgroup generated by the chosen simple reflections, sorted by
    length, then by canonical reduced word.  A whole-subgroup walk: it
    builds the table of the Levi sub-diagram, so it raises TableTooLarge
    above TABLE_CAP elements, as coset_elements does."""
    levi, words = _levi_words(datum, levi)
    return tuple(from_word(datum, [levi[a - 1] for a in word]) for word in words)


def longest_levi_element(datum: RootDatum, levi: Levi) -> WeylElt:
    """The longest element of W_levi, grown on the root images without a
    table: w * s_i is longer than w exactly when w sends alpha_i to a
    positive root, and w0 is the element of W_levi that no letter of levi
    lengthens."""
    levi = normalize_levi(datum, levi)
    w = identity(datum)
    while True:
        i = next((i for i in levi if all(c >= 0 for c in w.images[i - 1])), None)
        if i is None:
            return w
        w = _times_s(w, i)


def is_p_minimal(w: WeylElt, levi: Levi) -> bool:
    """Minimal in its coset: the inverse sends the chosen simple roots into
    the positive roots, so no reflection from the subgroup shortens on the left."""
    levi = normalize_levi(w.datum, levi)
    winv = inv(w)
    return all(all(c >= 0 for c in winv.images[i - 1]) for i in levi)


def is_p_maximal(w: WeylElt, levi: Levi) -> bool:
    levi = normalize_levi(w.datum, levi)
    winv = inv(w)
    return all(all(c <= 0 for c in winv.images[i - 1]) for i in levi)


def coset_of(w: WeylElt, levi: Levi) -> ParabolicCoset:
    levi = normalize_levi(w.datum, levi)
    x = w
    changed = True
    while changed:
        changed = False
        for i in levi:
            y = mul(simple_reflection(w.datum, i), x)
            if length(y) < length(x):
                x = y
                changed = True
                break
    return ParabolicCoset(levi, x, mul(longest_levi_element(w.datum, levi), x))


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
    """Every prefix must send the next simple root into the nilradical."""
    levi = normalize_levi(datum, levi)
    w = identity(datum)
    for i in word:
        beta = w.images[i - 1]
        if classify_wrt_parabolic(datum, beta, levi) is not RootPosition.NILRADICAL:
            return False
        w = mul(w, simple_reflection(datum, i))
    return True


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


def enumerate_cosets(datum: RootDatum, levi: Levi) -> tuple[ParabolicCoset, ...]:
    """The cosets by p-length, then by the canonical word of the minimal
    representative: the minimal ids of the Weyl table, in id order."""
    levi, words = _levi_words(datum, levi)
    table = _table(datum)
    elements = enumerate_elements(datum)
    # max_rep = w0 * min_rep, w0 the longest element of W_levi; w0 is an
    # involution, so its word may be applied first letter first.
    longest = [levi[a - 1] for a in words[-1]]
    cosets = []
    for k in _p_minimal(table, levi):
        x = k
        for i in longest:
            x = table.left[i - 1][x]
        cosets.append(ParabolicCoset(levi, elements[k], elements[x]))
    return tuple(cosets)


def quotient_property_z_check(datum: RootDatum, levi: Levi) -> list[str]:
    """Exhaustively certify the lifting property on the quotient's orbit
    graph and that the order it generates is the induced Bruhat order.
    Returns human-readable violations."""
    levi = normalize_levi(datum, levi)
    g = from_parabolic(datum, levi)
    violations = property_z_check(g)
    cosets = enumerate_cosets(datum, levi)
    words = [format_word(reduced_word(c.min_rep)) for c in cosets]
    for c1, u in zip(cosets, words):
        for c2, v in zip(cosets, words):
            if poset_leq(g, u, v) != coset_bruhat_leq(c1, c2):
                violations.append(f"re-derived order disagrees at u={u}, v={v}")
    return sorted(violations)


def quotient_exchange(datum: RootDatum, word: Word, alpha: int, levi: Levi) -> int:
    """Exchange in the quotient: the 1-based letter whose removal leaves a
    reduced-relative-to-the-quotient word for the lowered coset."""
    levi = normalize_levi(datum, levi)
    word = tuple(word)
    if not is_p_reduced(datum, word, levi):
        raise NotPReduced(f"{word} is not reduced relative to the quotient")
    w = from_word(datum, word)
    if classify_step(w, simple_root(datum, alpha), levi) is not StepType.COMPLEX_DOWNWARD:
        raise NotDownward(f"simple root {alpha} does not lower the coset of {word}")
    target = mul(w, simple_reflection(datum, alpha))
    for j in range(len(word)):
        shorter = word[:j] + word[j + 1 :]
        if from_word(datum, shorter) == target and is_p_reduced(datum, shorter, levi):
            return j + 1
    raise AssertionError("exchange position must exist at a downward step")  # pragma: no cover
