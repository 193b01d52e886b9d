"""Root data: Cartan matrices, roots, isogeny lattices, diagram twists.

Conventions used throughout the package:

* simple roots are indexed 1..rank in every public signature;
* a root is a tuple of integer coefficients over the simple roots;
* ``cartan[i][j]`` is the pairing of the i-th simple root with the j-th
  simple coroot, so the reflection in the j-th simple root acts by
  ``s_j(beta) = beta - <beta, coroot_j> alpha_j``;
* all arithmetic is exact (integers only, never floats).
"""

from __future__ import annotations

import enum
from functools import lru_cache
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .errors import InvalidCartan, InvalidTwist, NotARoot, ParseError

Root = tuple[int, ...]


class CartanSpec(NamedTuple):
    """A candidate Cartan matrix with ordered simple-root labels."""

    entries: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]


_DATUM_FIELDS = ("cartan", "labels", "root_images", "coroot_images", "twist", "isogeny", "name")


class RootDatum:
    """A finite-type root datum with a chosen isogeny and diagram twist.

    ``root_images`` gives each simple root in a basis of the character
    lattice, ``coroot_images`` each simple coroot in the dual basis of the
    cocharacter lattice; their pairing reproduces ``cartan``.  ``twist`` is
    an involutive diagram automorphism stored as 1-based images.

    Immutable: equal data compare and hash equal.  Data key many dicts and
    caches, so the hash is computed once; weyl keeps the datum's table
    layout in the ``_layout`` slot.
    """

    __slots__ = _DATUM_FIELDS + ("_hash", "_layout")

    cartan: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]
    root_images: tuple[tuple[int, ...], ...]
    coroot_images: tuple[tuple[int, ...], ...]
    twist: tuple[int, ...]
    isogeny: str
    name: str | None

    def __init__(self, cartan, labels, root_images, coroot_images, twist, isogeny, name):
        self._fill((cartan, labels, root_images, coroot_images, twist, isogeny, name))

    def _fill(self, values: tuple) -> None:
        for f, v in zip(_DATUM_FIELDS, values):
            object.__setattr__(self, f, v)
        object.__setattr__(self, "_hash", hash(values))

    @property
    def rank(self) -> int:
        return len(self.cartan)

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in _DATUM_FIELDS])

    def __eq__(self, other):
        if other.__class__ is not RootDatum:
            return NotImplemented
        return self is other or (self._hash == other._hash and self._key() == other._key())

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "RootDatum(" + ", ".join(f"{f}={getattr(self, f)!r}" for f in _DATUM_FIELDS) + ")"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> dict:
        # str hashes differ between processes, and the table layout is
        # rebuilt on demand: carry neither over
        return {f: getattr(self, f) for f in _DATUM_FIELDS}

    def __setstate__(self, state: dict) -> None:
        self._fill(tuple([state[f] for f in _DATUM_FIELDS]))


def _eliminate(m: list[list[int]]) -> list[int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968)
    of the square leading block of the integer rows m, in place; every
    division is exact.  Returns the pivots met before any row swap: the
    leading principal minors until one is 0, where it stops if no row can
    be swapped in.  Done, the block is d * I, d = +-det, and each other
    column is d times the block's inverse applied to it."""
    n = len(m)
    pivots, prev = [], 1
    for k in range(n):
        pivots.append(m[k][k])
        if not m[k][k]:
            r = next((r for r in range(k + 1, n) if m[r][k]), None)
            if r is None:
                return pivots
            m[k], m[r] = m[r], m[k]
        top, d = m[k], m[k][k]
        for i, row in enumerate(m):
            c = row[k]
            if i != k and (c or d != prev):
                m[i] = [(d * x - c * y) // prev for x, y in zip(row, top)]
        prev = d
    return pivots


def _validate_cartan(entries: tuple[tuple[int, ...], ...]) -> None:
    n = len(entries)
    if n == 0:
        raise InvalidCartan("empty matrix")
    for row in entries:
        if len(row) != n:
            raise InvalidCartan("matrix is not square")
    for i in range(n):
        if entries[i][i] != 2:
            raise InvalidCartan(f"diagonal entry ({i + 1},{i + 1}) is {entries[i][i]}, expected 2")
        for j in range(n):
            if i == j:
                continue
            if entries[i][j] > 0:
                raise InvalidCartan(f"off-diagonal entry ({i + 1},{j + 1}) is positive")
            if (entries[i][j] == 0) != (entries[j][i] == 0):
                raise InvalidCartan(f"zero pattern is not symmetric at ({i + 1},{j + 1})")
            if entries[i][j] * entries[j][i] not in (0, 1, 2, 3):
                raise InvalidCartan(f"pair product at ({i + 1},{j + 1}) outside finite range")
    # Finite type: every principal minor is positive.  The matrix has no
    # positive entry off the diagonal, so positive leading minors imply it
    # (such a matrix is then a nonsingular M-matrix; Fiedler and Ptak, 1962).
    # They are the pivots of one elimination until one is zero, which would
    # need a row swap.
    if min(_eliminate([list(row) for row in entries])) <= 0:
        raise InvalidCartan("a principal minor is not positive; matrix is not of finite type")


def _chain(n: int) -> list[list[int]]:
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 2
    for i in range(n - 1):
        m[i][i + 1] = -1
        m[i + 1][i] = -1
    return m


def _simple_cartan(letter: str, n: int) -> list[list[int]]:
    if letter == "A" and n >= 1:
        return _chain(n)
    if letter == "B" and n >= 2:
        m = _chain(n)
        m[n - 2][n - 1] = -2
        return m
    if letter == "C" and n >= 2:
        m = _chain(n)
        m[n - 1][n - 2] = -2
        return m
    if letter == "D" and n >= 3:
        m = _chain(n)
        m[n - 1][n - 2] = m[n - 2][n - 1] = 0
        m[n - 3][n - 1] = m[n - 1][n - 3] = -1
        return m
    if letter == "E" and n in (6, 7, 8):
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = 2
        edges = [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)]
        for a, b in edges:
            if a <= n and b <= n:
                m[a - 1][b - 1] = m[b - 1][a - 1] = -1
        return m
    if letter == "F" and n == 4:
        return [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
    if letter == "G" and n == 2:
        return [[2, -1], [-3, 2]]
    raise InvalidCartan(f"unknown type {letter}{n}")


# The largest total rank of a type name: A200 builds in well under 10 s.
RANK_CAP = 200


def cartan_matrix(name: str) -> CartanSpec:
    """Build the Cartan matrix for a type name such as A2, B3, G2 or A1xA1;
    a name of total rank above RANK_CAP is refused before any matrix is made."""
    parts = []
    for part in name.split("x"):
        if len(part) < 2 or not part[0].isalpha() or not part[1:].isdigit():
            raise InvalidCartan(f"cannot parse type name {name!r}")
        parts.append((part[0].upper(), int(part[1:])))
    total = sum(n for _, n in parts)
    if total > RANK_CAP:
        raise InvalidCartan(f"type {name!r} has rank {total}, above the cap of {RANK_CAP}")
    blocks = [_simple_cartan(letter, n) for letter, n in parts]
    m = [[0] * total for _ in range(total)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                m[offset + i][offset + j] = v
        offset += len(b)
    entries = tuple(tuple(row) for row in m)
    labels = tuple(str(i + 1) for i in range(total))
    return CartanSpec(entries, labels)


def _solve_root_images(
    cartan: tuple[tuple[int, ...], ...], coroot_rows: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], ...]:
    """Find integer root rows R with R * C^T = A, i.e. solve C r_i = a_i per row.

    Here C holds the coroot rows and a_i is the i-th row of the Cartan
    matrix.  One elimination of [C | A^T] leaves [d * I | d * C^-1 A^T]; a
    coordinate that d does not divide means the simple roots fall outside the
    character lattice dual to the chosen cocharacter lattice.
    """
    n = len(cartan)
    m = [list(c) + list(a) for c, a in zip(coroot_rows, zip(*cartan))]
    _eliminate(m)
    if not all(row[k] for k, row in enumerate(m)):
        raise InvalidCartan("lattice rows are linearly dependent")
    d = m[0][0]
    if any(row[i] % d for row in m for i in range(n, 2 * n)):
        raise InvalidCartan("simple roots do not lie in the character lattice")
    return tuple(tuple(row[i] // d for row in m) for i in range(n, 2 * n))


def build_root_datum(
    spec: CartanSpec | str,
    isogeny: str = "simply_connected",
    twist: Sequence[int] | None = None,
    coroot_rows: Sequence[Sequence[int]] | None = None,
) -> RootDatum:
    """Construct and fully validate a root datum.

    ``spec`` is a CartanSpec or a built-in type name.  ``isogeny`` is
    one of simply_connected, adjoint, lattice; the last requires explicit
    ``coroot_rows`` (simple coroots in a basis of the cocharacter lattice).
    """
    name = None
    if isinstance(spec, str):
        name = spec
        spec = cartan_matrix(spec)
    entries = tuple(tuple(int(v) for v in row) for row in spec.entries)
    _validate_cartan(entries)
    n = len(entries)

    lattices = {
        "simply_connected": [[int(i == j) for j in range(n)] for i in range(n)],
        "adjoint": list(zip(*entries)),
        "lattice": coroot_rows,
    }
    if isogeny not in lattices:
        raise InvalidCartan(f"unknown isogeny {isogeny!r}")
    if isogeny == "lattice" and coroot_rows is None:
        raise InvalidCartan("lattice isogeny requires explicit coroot rows")
    if isogeny != "lattice" and coroot_rows is not None:
        raise InvalidCartan("coroot rows are only accepted with the lattice isogeny")
    coroots = tuple(tuple(int(v) for v in row) for row in lattices[isogeny])
    if len(coroots) != n or any(len(r) != n for r in coroots):
        raise InvalidCartan("lattice data must give one row of length rank per coroot")
    # an exact integer solution reproduces the pairing with the Cartan matrix
    roots = _solve_root_images(entries, coroots)

    if twist is None:
        tw = tuple(range(1, n + 1))
    else:
        tw = tuple(int(v) for v in twist)
    if sorted(tw) != list(range(1, n + 1)):
        raise InvalidTwist("twist is not a permutation of the simple indices")
    for i in range(n):
        if tw[tw[i] - 1] != i + 1:
            raise InvalidTwist("twist is not an involution")
    for i in range(n):
        for j in range(n):
            if entries[tw[i] - 1][tw[j] - 1] != entries[i][j]:
                raise InvalidTwist("twist does not preserve the Cartan matrix")

    return RootDatum(
        cartan=entries,
        labels=spec.labels,
        root_images=roots,
        coroot_images=coroots,
        twist=tw,
        isogeny=isogeny,
        name=name,
    )


class RootPosition(enum.Enum):
    """Position of a root relative to a standard parabolic: Levi factor,
    nilradical, or opposite nilradical."""

    LEVI = "levi"
    NILRADICAL = "nilradical"
    OPPOSITE_NILRADICAL = "opposite_nilradical"


def _check_letter(datum: RootDatum, i: int) -> None:
    if not 1 <= i <= datum.rank:
        raise NotARoot(f"simple index {i} out of range 1..{datum.rank}")


def simple_root(datum: RootDatum, i: int) -> Root:
    _check_letter(datum, i)
    return tuple(1 if j == i - 1 else 0 for j in range(datum.rank))


def coroot_pairing(datum: RootDatum, beta: Root, i: int) -> int:
    """Pairing of an arbitrary integer vector with the i-th simple coroot."""
    _check_letter(datum, i)
    return sum(beta[j] * datum.cartan[j][i - 1] for j in range(datum.rank))


def reflect(datum: RootDatum, i: int, beta: Root) -> Root:
    """Simple reflection s_i applied to the root beta."""
    if not is_root(datum, beta):
        raise NotARoot(f"{beta} is not a root")
    c = coroot_pairing(datum, beta, i)
    return tuple(beta[j] - c * (1 if j == i - 1 else 0) for j in range(datum.rank))


@lru_cache(maxsize=None)
def all_roots(datum: RootDatum) -> frozenset[Root]:
    """The full root set: the positive roots grown from the simple roots,
    height by height, and their negatives.  A positive root that is not
    simple pairs positively with some simple coroot, and reflecting it
    there gives a lower positive root, so every positive root is s_i(beta)
    for a lower positive beta with <beta, coroot_i> < 0."""
    n = datum.rank
    cols = [tuple([row[i] for row in datum.cartan]) for i in range(n)]
    simples = [tuple([int(i == j) for j in range(n)]) for i in range(n)]
    seen = set(simples)
    frontier = simples
    while frontier:
        nxt = []
        for beta in frontier:
            for i, col in enumerate(cols):
                c = sum(map(mul, beta, col))
                if c < 0:
                    gamma = beta[:i] + (beta[i] - c,) + beta[i + 1 :]
                    if gamma not in seen:
                        seen.add(gamma)
                        nxt.append(gamma)
        frontier = nxt
    seen.update([tuple([-c for c in beta]) for beta in seen])
    return frozenset(seen)


@lru_cache(maxsize=None)
def positive_roots(datum: RootDatum) -> tuple[Root, ...]:
    """Positive roots, sorted by height then lexicographically."""
    pos = [b for b in all_roots(datum) if all(c >= 0 for c in b)]
    return tuple(sorted(pos, key=lambda b: (sum(b), b)))


def is_root(datum: RootDatum, beta: Sequence[int]) -> bool:
    return tuple(beta) in all_roots(datum)


def is_positive_root(datum: RootDatum, beta: Root) -> bool:
    if not is_root(datum, beta):
        raise NotARoot(f"{beta} is not a root")
    return all(c >= 0 for c in beta)


def root_support(beta: Root) -> frozenset[int]:
    """1-based indices of the simple roots appearing in beta."""
    return frozenset(i + 1 for i, c in enumerate(beta) if c != 0)


def twist_root(datum: RootDatum, beta: Root) -> Root:
    """Apply the diagram twist to a root by permuting coordinates."""
    out = [0] * datum.rank
    for i, c in enumerate(beta):
        out[datum.twist[i] - 1] = c
    return tuple(out)


def normalize_levi(datum: RootDatum, levi: Iterable[int]) -> tuple[int, ...]:
    out = tuple(sorted(set(int(i) for i in levi)))
    for i in out:
        if not 1 <= i <= datum.rank:
            raise NotARoot(f"Levi index {i} out of range 1..{datum.rank}")
    return out


def classify_wrt_parabolic(datum: RootDatum, beta: Root, levi: Iterable[int]) -> RootPosition:
    """Classify a root relative to the standard parabolic on the given simples."""
    if not is_root(datum, beta):
        raise NotARoot(f"{beta} is not a root")
    subset = set(normalize_levi(datum, levi))
    if root_support(beta) <= subset:
        return RootPosition.LEVI
    if all(c >= 0 for c in beta):
        return RootPosition.NILRADICAL
    return RootPosition.OPPOSITE_NILRADICAL


def is_m_alpha_trivial(datum: RootDatum, i: int) -> bool:
    """Whether the order-two torus element attached to the i-th simple root is
    trivial, i.e. the simple coroot is divisible by 2 in the cocharacter lattice."""
    _check_letter(datum, i)
    return all(c % 2 == 0 for c in datum.coroot_images[i - 1])


# --- text format -----------------------------------------------------------

FORMAT_HEADER = "rootdatum v1"


def format_root_datum(datum: RootDatum) -> str:
    """Canonical text form; parse(format(d)) == d."""
    lines = [FORMAT_HEADER]
    if datum.name is not None:
        lines.append(f"type {datum.name}")
    else:
        lines.append(f"cartan {datum.rank}")
        for row in datum.cartan:
            lines.append(" ".join(str(v) for v in row))
    lines.append(f"isogeny {datum.isogeny}")
    if datum.isogeny == "lattice":
        for row in datum.coroot_images:
            lines.append(" ".join(str(v) for v in row))
    if datum.twist == tuple(range(1, datum.rank + 1)):
        lines.append("twist id")
    else:
        lines.append("twist " + " ".join(str(v) for v in datum.twist))
    return "\n".join(lines) + "\n"


def _significant_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _node_lines(lines: list[str], count: int, width: int):
    """Yield (name, length, fields) for the first ``count`` lines, each of the
    form ``node <name> <length> ...`` with ``width`` fields in all."""
    seen = set()
    for pos in range(count):
        if pos >= len(lines):
            raise ParseError("truncated node list")
        parts = lines[pos].split()
        if len(parts) != width or parts[0] != "node":
            raise ParseError(f"bad node line: {lines[pos]!r}")
        if parts[1] in seen:
            raise ParseError(f"duplicate node {parts[1]!r}")
        seen.add(parts[1])
        try:
            n = int(parts[2])
        except ValueError:
            raise ParseError(f"bad node length in {lines[pos]!r}") from None
        yield parts[1], n, parts


def parse_root_datum(text: str) -> RootDatum:
    lines = _significant_lines(text)
    datum, rest = parse_root_datum_lines(lines)
    if rest:
        raise ParseError(f"trailing content after root datum: {rest[0]!r}")
    return datum


def _int_rows(
    lines: list[str], pos: int, count: int, kind: str, truncated: str
) -> list[tuple[int, ...]]:
    """The ``count`` rows of integers from ``lines[pos]`` on; a bad row is
    reported before a missing one."""
    rows = []
    for line in lines[pos : pos + max(count, 0)]:
        try:
            rows.append(tuple(int(v) for v in line.split()))
        except ValueError:
            raise ParseError(f"bad {kind} row {line!r}") from None
    if len(rows) < count:
        raise ParseError(truncated)
    return rows


def parse_root_datum_lines(lines: list[str]) -> tuple[RootDatum, list[str]]:
    """Parse a root datum block from the front of ``lines``.

    Returns the datum and the unconsumed lines, so the block can be embedded
    inside other formats.
    """
    if not lines or lines[0] != FORMAT_HEADER:
        raise ParseError(f"expected {FORMAT_HEADER!r} header")
    pos = 1
    if pos >= len(lines):
        raise ParseError("missing type or cartan line")
    if lines[pos].startswith("type "):
        spec: CartanSpec | str = lines[pos].split(None, 1)[1]
        pos += 1
    elif lines[pos].startswith("cartan "):
        try:
            rank = int(lines[pos].split()[1])
        except (IndexError, ValueError):
            raise ParseError("malformed cartan line") from None
        rows = _int_rows(lines, pos + 1, rank, "cartan", "truncated cartan matrix")
        pos += 1 + len(rows)
        spec = CartanSpec(tuple(rows), tuple(str(i + 1) for i in range(rank)))
    else:
        raise ParseError(f"expected type or cartan line, got {lines[pos]!r}")

    if pos >= len(lines) or not lines[pos].startswith("isogeny "):
        raise ParseError("missing isogeny line")
    isogeny = lines[pos].split(None, 1)[1]
    pos += 1
    coroot_rows = None
    if isogeny == "lattice":
        rank = len((cartan_matrix(spec) if isinstance(spec, str) else spec).entries)
        coroot_rows = _int_rows(lines, pos, rank, "lattice", "truncated lattice rows")
        pos += rank

    if pos >= len(lines) or not lines[pos].startswith("twist"):
        raise ParseError("missing twist line")
    parts = lines[pos].split()
    pos += 1
    if parts[1:] == ["id"]:
        twist = None
    else:
        try:
            twist = [int(v) for v in parts[1:]]
        except ValueError:
            raise ParseError("bad twist line") from None
        if not twist:
            raise ParseError("bad twist line")

    datum = build_root_datum(spec, isogeny=isogeny, twist=twist, coroot_rows=coroot_rows)
    return datum, lines[pos:]
