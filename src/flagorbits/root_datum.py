"""Root data: Cartan matrices, roots, isogeny lattices, diagram twists.

Conventions used throughout the package:

* simple roots are indexed 1..rank in every public signature;
* a root is a tuple of integer coefficients over the simple roots;
* ``cartan[i][j]`` is the pairing of the i-th simple root with the j-th
  simple coroot, so the reflection in the j-th simple root acts by
  ``s_j(beta) = beta - <beta, coroot_j> alpha_j``;
* all arithmetic is exact (ints and Fractions, never floats).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import InvalidCartan, InvalidTwist, NotARoot, ParseError

Root = tuple[int, ...]


@dataclass(frozen=True)
class CartanSpec:
    """A candidate Cartan matrix with ordered simple-root labels."""

    entries: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]


@dataclass(frozen=True)
class RootDatum:
    """A finite-type root datum with a chosen isogeny and diagram twist.

    ``root_images`` gives each simple root in a basis of the character
    lattice, ``coroot_images`` each simple coroot in the dual basis of the
    cocharacter lattice; their pairing reproduces ``cartan``.  ``twist`` is
    an involutive diagram automorphism stored as 1-based images.
    """

    cartan: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]
    root_images: tuple[tuple[int, ...], ...]
    coroot_images: tuple[tuple[int, ...], ...]
    twist: tuple[int, ...]
    isogeny: str
    name: str | None

    @property
    def rank(self) -> int:
        return len(self.cartan)

    def __hash__(self) -> int:
        # The dataclass hash, computed once: data key dicts and caches, and
        # rehashing the nested tuples costs as much as a table lookup.
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash(tuple(getattr(self, f.name) for f in fields(self))))
            return self._hash

    def __getstate__(self) -> dict:
        # str hashes differ between processes, and weyl keeps the datum's
        # table layout here: carry neither over
        return {k: v for k, v in self.__dict__.items() if k not in ("_hash", "_layout")}


def _det(rows: Sequence[Sequence[int]]) -> int:
    """Integer determinant by fraction-free Bareiss elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


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
    # Finite type: every principal minor is positive.
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        sub = [[entries[i][j] for j in idx] for i in idx]
        if _det(sub) <= 0:
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


def cartan_matrix(name: str) -> CartanSpec:
    """Build the Cartan matrix for a type name such as A2, B3, G2 or A1xA1."""
    blocks = []
    for part in name.split("x"):
        if len(part) < 2 or not part[0].isalpha() or not part[1:].isdigit():
            raise InvalidCartan(f"cannot parse type name {name!r}")
        blocks.append(_simple_cartan(part[0].upper(), int(part[1:])))
    total = sum(len(b) for b in blocks)
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

    Here C holds the coroot rows and a_i is the i-th row of the Cartan matrix;
    a fractional solution means the simple roots fall outside the character
    lattice dual to the chosen cocharacter lattice.
    """
    n = len(cartan)
    mat = [[Fraction(v) for v in row] for row in coroot_rows]
    aug = [[Fraction(cartan[i][j]) for i in range(n)] for j in range(n)]  # aug[j][i] = A[i][j]
    for col in range(n):
        piv = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if piv is None:
            raise InvalidCartan("lattice rows are linearly dependent")
        mat[col], mat[piv] = mat[piv], mat[col]
        aug[col], aug[piv] = aug[piv], aug[col]
        for r in range(col + 1, n):
            f = mat[r][col] / mat[col][col]
            if f:
                for c in range(col, n):
                    mat[r][c] -= f * mat[col][c]
                for c in range(n):
                    aug[r][c] -= f * aug[col][c]
    sol = [[Fraction(0)] * n for _ in range(n)]
    for row in range(n - 1, -1, -1):
        for i in range(n):
            s = aug[row][i]
            for c in range(row + 1, n):
                s -= mat[row][c] * sol[c][i]
            sol[row][i] = s / mat[row][row]
    # sol[k][i] is the k-th coordinate of the i-th simple root.
    rows = []
    for i in range(n):
        row = []
        for k in range(n):
            v = sol[k][i]
            if v.denominator != 1:
                raise InvalidCartan("simple roots do not lie in the character lattice")
            row.append(int(v))
        rows.append(tuple(row))
    return tuple(rows)


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

    if isogeny == "simply_connected":
        if coroot_rows is not None:
            raise InvalidCartan("coroot rows are only accepted with the lattice isogeny")
        coroots = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        roots = entries
    elif isogeny == "adjoint":
        if coroot_rows is not None:
            raise InvalidCartan("coroot rows are only accepted with the lattice isogeny")
        roots = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        coroots = tuple(tuple(entries[i][j] for i in range(n)) for j in range(n))
    elif isogeny == "lattice":
        if coroot_rows is None:
            raise InvalidCartan("lattice isogeny requires explicit coroot rows")
        coroots = tuple(tuple(int(v) for v in row) for row in coroot_rows)
        if len(coroots) != n or any(len(r) != n for r in coroots):
            raise InvalidCartan("lattice data must give one row of length rank per coroot")
        roots = _solve_root_images(entries, coroots)
    else:
        raise InvalidCartan(f"unknown isogeny {isogeny!r}")

    for i in range(n):
        for j in range(n):
            pair = sum(roots[i][k] * coroots[j][k] for k in range(n))
            if pair != entries[i][j]:
                raise InvalidCartan("lattice pairing does not reproduce the Cartan matrix")

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


def simple_root(datum: RootDatum, i: int) -> Root:
    if not 1 <= i <= datum.rank:
        raise NotARoot(f"simple index {i} out of range 1..{datum.rank}")
    return tuple(1 if j == i - 1 else 0 for j in range(datum.rank))


def coroot_pairing(datum: RootDatum, beta: Root, i: int) -> int:
    """Pairing of an arbitrary integer vector with the i-th simple coroot."""
    if not 1 <= i <= datum.rank:
        raise NotARoot(f"simple index {i} out of range 1..{datum.rank}")
    return sum(beta[j] * datum.cartan[j][i - 1] for j in range(datum.rank))


def reflect(datum: RootDatum, i: int, beta: Root) -> Root:
    """Simple reflection s_i applied to the root beta."""
    if not is_root(datum, beta):
        raise NotARoot(f"{beta} is not a root")
    c = coroot_pairing(datum, beta, i)
    return tuple(beta[j] - c * (1 if j == i - 1 else 0) for j in range(datum.rank))


@lru_cache(maxsize=None)
def all_roots(datum: RootDatum) -> frozenset[Root]:
    """The full root set, generated from the simple roots by reflections."""
    simples = [simple_root(datum, i) for i in range(1, datum.rank + 1)]
    seen: set[Root] = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for beta in frontier:
            for i in range(1, datum.rank + 1):
                c = coroot_pairing(datum, beta, i)
                gamma = tuple(beta[j] - c * (1 if j == i - 1 else 0) for j in range(datum.rank))
                if gamma not in seen:
                    seen.add(gamma)
                    nxt.append(gamma)
        frontier = nxt
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
    if not 1 <= i <= datum.rank:
        raise NotARoot(f"simple index {i} out of range 1..{datum.rank}")
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
    name: str | None = None
    if lines[pos].startswith("type "):
        name = lines[pos].split(None, 1)[1]
        spec: CartanSpec | str = name
        pos += 1
    elif lines[pos].startswith("cartan "):
        try:
            rank = int(lines[pos].split()[1])
        except (IndexError, ValueError):
            raise ParseError("malformed cartan line") from None
        pos += 1
        rows = []
        for _ in range(rank):
            if pos >= len(lines):
                raise ParseError("truncated cartan matrix")
            try:
                rows.append(tuple(int(v) for v in lines[pos].split()))
            except ValueError:
                raise ParseError(f"bad cartan row {lines[pos]!r}") from None
            pos += 1
        spec = CartanSpec(tuple(rows), tuple(str(i + 1) for i in range(rank)))
    else:
        raise ParseError(f"expected type or cartan line, got {lines[pos]!r}")

    if pos >= len(lines) or not lines[pos].startswith("isogeny "):
        raise ParseError("missing isogeny line")
    isogeny = lines[pos].split(None, 1)[1]
    pos += 1
    coroot_rows = None
    if isogeny == "lattice":
        probe = build_root_datum(spec) if isinstance(spec, str) else None
        rank = probe.rank if probe else len(spec.entries)  # type: ignore[union-attr]
        coroot_rows = []
        for _ in range(rank):
            if pos >= len(lines):
                raise ParseError("truncated lattice rows")
            try:
                coroot_rows.append(tuple(int(v) for v in lines[pos].split()))
            except ValueError:
                raise ParseError(f"bad lattice row {lines[pos]!r}") from None
            pos += 1

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
