"""The K\\G/B graph of U(p, q) from (p, q)-clans, on simply connected A_{n-1}.

For G = SL(n) and K = S(GL_p x GL_q), n = p + q, the orbits are the
(p, q)-clans (Matsuki-Oshima 1990; Yamamoto 1997; McGovern, J. Algebra 322,
2009): words of n signs and natural numbers, each number standing in exactly
two places and + standing p - q more times than -, up to renaming the
numbers.  The twisted involution of a clan is the involution sigma of the
places that swaps the two places of each number.  Along s_i, at places i
and i + 1:

- (+, -) and (-, +) are noncompact imaginary of type I: the cross action
  swaps the two places, and the Cayley transform joins them into a new
  pair (a, a);
- (+, +) and (-, -) are compact imaginary;
- (a, a) is real of type I;
- anything else is complex: the cross action swaps the two places, an
  ascent when sigma(i) < sigma(i + 1).

Lengths are the breadth-first depth along ascents from the C(n, p) closed
orbits, the clans of signs alone.  Nodes are named 0, 1, ... in (length,
clan) order.
"""

from itertools import permutations
from math import factorial

from flagorbits import KgbGraph, RootType, build_root_datum
from image_oracle import from_images


def yamamoto_count(p, q):
    """The number of (p, q)-clans: sum over k pairs of n! / (2^k k! (p - k)! (q - k)!)."""
    n = p + q
    return sum(factorial(n) // (2**k * factorial(k) * factorial(p - k) * factorial(q - k)) for k in range(min(p, q) + 1))


def canonical(clan):
    """The clan with its numbers renamed 1, 2, ... in order of first place."""
    names = {}
    return tuple(c if isinstance(c, str) else names.setdefault(c, len(names) + 1) for c in clan)


def involution(clan):
    """sigma as a list of 0-based places."""
    sigma, first = list(range(len(clan))), {}
    for i, c in enumerate(clan):
        if isinstance(c, int):
            if c in first:
                sigma[i], sigma[first[c]] = first[c], i
            first[c] = i
    return sigma


def step(clan, i):
    """(label, cross target, Cayley target or None) along s_(i + 1), at the
    0-based places i and i + 1."""
    a, b = clan[i], clan[i + 1]
    swapped = canonical(clan[:i] + (b, a) + clan[i + 2 :])
    if isinstance(a, str) and isinstance(b, str):
        if a == b:
            return RootType.COMPACT_IMAGINARY, clan, None
        return RootType.NONCOMPACT_I, swapped, canonical(clan[:i] + (0, 0) + clan[i + 2 :])
    if a == b:
        return RootType.REAL_I, clan, None
    sigma = involution(clan)
    return (RootType.COMPLEX_ASCENT if sigma[i] < sigma[i + 1] else RootType.COMPLEX_DESCENT), swapped, None


def weyl_element(datum, sigma):
    """The permutation sigma of the places as an element of W(A_{n-1}): it
    sends alpha_k = e_k - e_(k+1) to e_sigma(k) - e_sigma(k+1), a sum of
    consecutive simple roots with one sign."""
    images = []
    for a, b in zip(sigma, sigma[1:]):
        lo, hi, sign = min(a, b), max(a, b), 1 if a < b else -1
        images.append(tuple(sign if lo <= j < hi else 0 for j in range(len(sigma) - 1)))
    return from_images(datum, tuple(images))


def clan_graph(p, q):
    """The graph of U(p, q) through the public dict constructor; p + q >= 2."""
    n = p + q
    datum = build_root_datum(f"A{n - 1}")
    closed = sorted(set(permutations("+" * p + "-" * q)))
    moves, todo = {}, list(closed)
    for clan in todo:  # every clan reached by cross actions and Cayley transforms
        if clan not in moves:
            moves[clan] = [step(clan, i) for i in range(n - 1)]
            todo += [t for _, cross, cay in moves[clan] for t in (cross, cay) if t is not None]
    depth, level = dict.fromkeys(closed, 0), closed
    while level:  # one length at a time, along ascents
        up = [cay or cross for clan in level for lab, cross, cay in moves[clan] if cay or lab is RootType.COMPLEX_ASCENT]
        level, length = [t for t in dict.fromkeys(up) if t not in depth], depth[level[0]] + 1
        depth.update(dict.fromkeys(level, length))
    order = sorted(moves, key=lambda c: (depth[c], tuple(map(str, c))))
    name = {c: str(k) for k, c in enumerate(order)}
    label, cross, cayley = {}, {}, {}
    for c in order:
        for alpha, (lab, t, cay) in enumerate(moves[c], 1):
            label[(alpha, name[c])], cross[(alpha, name[c])] = lab, name[t]
            if cay is not None:
                cayley[(alpha, name[c])] = name[cay]
    tw = {name[c]: weyl_element(datum, involution(c)) for c in order}
    return KgbGraph(datum, tuple(name.values()), tw, {name[c]: depth[c] for c in order}, label, cross, cayley)
