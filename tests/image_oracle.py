"""Weyl group elements as tuples of simple-root images: an oracle for the
weights and table ids that flagorbits stores.

The tuple holds w(alpha_1), ..., w(alpha_r), each in simple-root
coordinates.  A product with a simple reflection changes it by a kernel:
on the right, since s_i(alpha_j) = alpha_j - <alpha_j, coroot_i> alpha_i,
only the images of alpha_i and its neighbours change; on the left, every
image is reflected.  from_images turns a tuple into a flagorbits element by
pairing w(2 rho) with the simple coroots, 2 rho summed from the positive
roots.
"""

from functools import cache

from flagorbits import WeylElt, positive_roots, simple_root


def identity_images(datum):
    return tuple(simple_root(datum, j) for j in range(1, datum.rank + 1))


@cache
def neighbours(datum, i):
    """The j with a_ji = <alpha_j, coroot_i> nonzero, i itself included, with a_ji."""
    return tuple((j, row[i - 1]) for j, row in enumerate(datum.cartan) if row[i - 1])


def times_s(datum, images, i):
    """The images of w * s_i from those of w: alpha_j goes to alpha_j - a_ji alpha_i."""
    img, out = images[i - 1], list(images)
    for j, a in neighbours(datum, i):
        out[j] = tuple([x - a * y for x, y in zip(images[j], img)])
    return tuple(out)


def s_times(datum, i, images):
    """The images of s_i * w from those of w: s_i(beta) = beta - <beta, coroot_i> alpha_i."""
    links, out = neighbours(datum, i), []
    for beta in images:
        c = 0
        for j, a in links:
            c += a * beta[j]
        out.append(beta[: i - 1] + (beta[i - 1] - c,) + beta[i:] if c else beta)
    return tuple(out)


def word_images(datum, word):
    """The images of the product of the word's letters."""
    images = identity_images(datum)
    for i in word:
        images = times_s(datum, images, i)
    return images


def apply_images(images, beta):
    """w(beta), the linear extension of the images."""
    out = [0] * len(beta)
    for c, img in zip(beta, images):
        out = [x + c * y for x, y in zip(out, img)]
    return tuple(out)


def twist_images(datum, images):
    """The images of theta(w): theta(w)(alpha_theta(i)) = theta(w(alpha_i))."""
    out = [None] * datum.rank
    for i, img in enumerate(images):
        moved = [0] * datum.rank
        for j, c in enumerate(img):
            moved[datum.twist[j] - 1] = c
        out[datum.twist[i] - 1] = tuple(moved)
    return tuple(out)


@cache
def two_rho(datum):
    return tuple(map(sum, zip(*positive_roots(datum))))


def from_images(datum, images):
    """The flagorbits element with these images, made from its weight
    <w(2 rho), coroot_i>."""
    beta = apply_images(images, two_rho(datum))
    return WeylElt(datum, tuple(sum(map(int.__mul__, beta, col)) for col in zip(*datum.cartan)))
