"""Root datum construction, arithmetic, and the text format."""

import os
import pickle
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from flagorbits import (
    InvalidCartan,
    InvalidTwist,
    NotARoot,
    ParseError,
    RootPosition,
    build_root_datum,
    cartan_matrix,
    classify_wrt_parabolic,
    coroot_pairing,
    format_kgb,
    format_root_datum,
    group_case,
    is_m_alpha_trivial,
    parse_kgb,
    parse_root_datum,
    positive_roots,
    reflect,
    simple_root,
    twist_root,
)
from flagorbits.weyl import simple_reflection
from flagorbits.root_datum import (
    RANK_CAP,
    _solve_root_images,
    _validate_cartan,
    all_roots,
    is_positive_root,
    is_root,
    normalize_levi,
    root_support,
)


def test_builtin_cartan_matrices():
    assert cartan_matrix("A2") == ((2, -1), (-1, 2))
    assert cartan_matrix("B2") == ((2, -2), (-1, 2))
    assert cartan_matrix("G2") == ((2, -1), (-3, 2))
    a1a1 = cartan_matrix("A1xA1")
    assert a1a1 == ((2, 0), (0, 2))


def test_bad_type_names():
    for name in ("", "A", "A0", "H3", "B1", "E9", "2A", "A2x", "A²", "A٣", "A1xA²"):
        with pytest.raises(InvalidCartan):
            cartan_matrix(name)


def test_type_names_above_the_rank_cap_are_refused():
    assert len(cartan_matrix("A200")) == RANK_CAP == 200
    for name, total in (("A201", 201), ("A100xB101", 201), ("A100000", 100000), ("A1xA1000", 1001)):
        with pytest.raises(InvalidCartan) as info:
            cartan_matrix(name)
        assert str(info.value) == f"type {name!r} has rank {total}, above the cap of 200"
    huge = "A" + "9" * 4400  # more digits than int() converts
    for name in (huge, "A1x" + huge):
        with pytest.raises(InvalidCartan) as info:
            cartan_matrix(name)
        assert str(info.value) == f"cannot parse type name {name!r}"


def test_cartan_validation_rejects_affine_and_junk():
    # affine A1~ has determinant zero
    with pytest.raises(InvalidCartan):
        build_root_datum(((2, -2), (-2, 2)))
    with pytest.raises(InvalidCartan):
        build_root_datum(((2, -1), (0, 2)))  # asymmetric zero
    with pytest.raises(InvalidCartan):
        build_root_datum(((2, 1), (1, 2)))  # positive off-diagonal
    with pytest.raises(InvalidCartan):
        build_root_datum(((1, 0), (0, 2)))  # bad diagonal
    with pytest.raises(InvalidCartan, match="^empty matrix$"):
        build_root_datum(())
    with pytest.raises(InvalidCartan, match="^matrix is not square$"):
        build_root_datum(((2, -1), (-1,)))


def fraction_det(rows):
    """Oracle determinant: Gaussian elimination over the rationals."""
    mat = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for col in range(len(mat)):
        piv = next((r for r in range(col, len(mat)) if mat[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        for r in range(col + 1, len(mat)):
            f = mat[r][col] / mat[col][col]
            mat[r] = [x - f * y for x, y in zip(mat[r], mat[col])]
    return det


def every_principal_minor_positive(entries):
    """Oracle: finite type by all 2**n principal minors."""
    n = len(entries)
    return all(
        fraction_det([[entries[i][j] for j in idx] for i in idx]) > 0
        for k in range(1, n + 1)
        for idx in combinations(range(n), k)
    )


def test_finite_type_check_matches_every_principal_minor():
    rng = random.Random(11)
    bonds = [(-1, -1), (-1, -2), (-2, -1), (-1, -3), (-3, -1)]
    matrices = [cartan_matrix(name) for name in ("A8", "B8", "C8", "D8", "E8", "F4xG2", "E6xA2")]
    for _ in range(600):
        n = rng.randint(1, 8)
        m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i, j in combinations(range(n), 2):
            if rng.random() < 1.6 / n:
                m[i][j], m[j][i] = rng.choice(bonds)
        matrices.append(tuple(map(tuple, m)))
    verdicts = set()
    for m in matrices:
        try:
            _validate_cartan(m)
            finite = True
        except InvalidCartan as err:
            assert str(err) == "a principal minor is not positive; matrix is not of finite type"
            finite = False
        assert finite == every_principal_minor_positive(m), m
        verdicts.add((finite, len(m)))
    assert {(True, 8), (False, 8), (True, 3), (False, 3)} <= verdicts


def test_high_rank_types_build():
    # the finite-type test costs n determinants, not 2**n
    for name in ("A20", "B24", "D24"):
        assert build_root_datum(name).rank == int(name[1:])


def test_isogenies_of_rank_one():
    sc = build_root_datum("A1")
    ad = build_root_datum("A1", isogeny="adjoint")
    assert sc.root_images == ((2,),)
    assert sc.coroot_images == ((1,),)
    assert ad.root_images == ((1,),)
    assert ad.coroot_images == ((2,),)
    assert not is_m_alpha_trivial(sc, 1)
    assert is_m_alpha_trivial(ad, 1)


def test_lattice_isogeny_matches_adjoint():
    ad = build_root_datum("B2", isogeny="adjoint")
    lat = build_root_datum("B2", isogeny="lattice", coroot_rows=ad.coroot_images)
    assert lat.root_images == ad.root_images
    assert lat.coroot_images == ad.coroot_images


def test_lattice_isogeny_requires_integral_roots():
    # index-two sublattice that does not contain the root
    with pytest.raises(InvalidCartan):
        build_root_datum("A1", isogeny="lattice", coroot_rows=((3,),))


def solve_by_elimination(cartan, coroot_rows):
    """Oracle: Gaussian elimination over the rationals for C r_i = a_i."""
    n = len(cartan)
    mat = [[Fraction(v) for v in row] for row in coroot_rows]
    aug = [[Fraction(cartan[i][j]) for i in range(n)] for j in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if piv is None:
            raise InvalidCartan("lattice rows are linearly dependent")
        mat[col], mat[piv] = mat[piv], mat[col]
        aug[col], aug[piv] = aug[piv], aug[col]
        for r in range(col + 1, n):
            f = mat[r][col] / mat[col][col]
            for c in range(col, n):
                mat[r][c] -= f * mat[col][c]
            for c in range(n):
                aug[r][c] -= f * aug[col][c]
    sol = [[Fraction(0)] * n for _ in range(n)]
    for row in range(n - 1, -1, -1):
        for i in range(n):
            s = aug[row][i] - sum(mat[row][c] * sol[c][i] for c in range(row + 1, n))
            sol[row][i] = s / mat[row][row]
    if any(sol[k][i].denominator != 1 for i in range(n) for k in range(n)):
        raise InvalidCartan("simple roots do not lie in the character lattice")
    return tuple(tuple(int(sol[k][i]) for k in range(n)) for i in range(n))


def test_lattice_solver_matches_rational_elimination():
    # Random coroot rows of four kinds: small entries (mostly refused as
    # fractional), the simply connected and the adjoint rows in a random
    # basis of the cocharacter lattice (solvable), and such rows with one
    # row repeated (refused as dependent).
    rng = random.Random(11)
    seen = Counter()
    for name in ("A1", "A2", "B2", "G2", "A3", "B3", "C3", "A4", "D4", "F4", "D5", "E6"):
        cartan = cartan_matrix(name)
        n = len(cartan)
        adjoint = [[row[j] for row in cartan] for j in range(n)]
        for trial in range(80):
            kind = trial % 4
            if kind == 0:
                rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            else:
                rows = [[int(i == j) for j in range(n)] for i in range(n)] if kind == 1 else adjoint
                rows = [list(row) for row in rows]
                for _ in range(2 * n if n > 1 else 0):  # column operations keep the lattice
                    a, b = rng.sample(range(n), 2)
                    c = rng.choice((-1, 1))
                    for row in rows:
                        row[a] += c * row[b]
                if kind == 3:
                    rows[-1] = list(rows[0])
            rows = tuple(tuple(row) for row in rows)
            try:
                want = solve_by_elimination(cartan, rows)
            except InvalidCartan as exc:
                with pytest.raises(InvalidCartan) as got:
                    _solve_root_images(cartan, rows)
                assert str(got.value) == str(exc), (name, rows)
                seen[str(exc)] += 1
            else:
                assert _solve_root_images(cartan, rows) == want, (name, rows)
                seen["solved"] += 1
    assert len(seen) == 3 and min(seen.values()) > 100, seen


def test_twist_validation():
    assert build_root_datum("A2", twist=(2, 1)).twist == (2, 1)
    with pytest.raises(InvalidTwist):
        build_root_datum("B2", twist=(2, 1))  # does not preserve the matrix
    with pytest.raises(InvalidTwist):
        build_root_datum("A2", twist=(1, 1))  # not a permutation
    with pytest.raises(InvalidTwist):
        build_root_datum("A3", twist=(2, 3, 1))  # not an involution


def test_pairing_and_reflection():
    d = build_root_datum("B2")
    alpha, beta = simple_root(d, 1), simple_root(d, 2)
    assert coroot_pairing(d, alpha, 2) == -2
    assert coroot_pairing(d, beta, 1) == -1
    assert reflect(d, 1, alpha) == (-1, 0)
    assert reflect(d, 2, alpha) == (1, 2)
    # s_i is an involution on every root
    for i in (1, 2):
        for root in all_roots(d):
            assert reflect(d, i, reflect(d, i, root)) == root


def test_positive_root_counts():
    for name, count in (("A1", 1), ("A2", 3), ("B2", 4), ("G2", 6), ("A3", 6), ("A1xA1", 2)):
        d = build_root_datum(name)
        pos = positive_roots(d)
        assert len(pos) == count
        assert len(all_roots(d)) == 2 * count
        assert all(is_positive_root(d, beta) for beta in pos)


def _reflection_closure(datum):
    """Every image of the simple roots under simple reflections, by
    breadth-first search over all roots with the public pairing."""
    n = datum.rank
    simples = [simple_root(datum, i) for i in range(1, n + 1)]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for beta in frontier:
            for i in range(1, n + 1):
                c = coroot_pairing(datum, beta, i)
                gamma = tuple(beta[j] - c * (1 if j == i - 1 else 0) for j in range(n))
                if gamma not in seen:
                    seen.add(gamma)
                    nxt.append(gamma)
        frontier = nxt
    return frozenset(seen)


COXETER_NUMBERS = {
    **{f"A{n}": n + 1 for n in range(1, 9)},
    **{f"B{n}": 2 * n for n in range(2, 9)},
    **{f"C{n}": 2 * n for n in range(2, 9)},
    **{f"D{n}": 2 * n - 2 for n in range(3, 9)},
    "E6": 12,
    "E7": 18,
    "E8": 30,
    "F4": 12,
    "G2": 6,
}


@pytest.mark.parametrize("name", sorted(COXETER_NUMBERS))
def test_all_roots_is_the_reflection_closure(name):
    d = build_root_datum(name)
    roots = all_roots(d)
    assert roots == _reflection_closure(d)
    assert len(roots) == d.rank * COXETER_NUMBERS[name]


def test_all_roots_of_reducible_and_lattice_data():
    lattice = build_root_datum("A1", isogeny="lattice", coroot_rows=[[2]])
    for d in (build_root_datum("A1xB3"), build_root_datum("G2xA2xA1"), lattice):
        assert all_roots(d) == _reflection_closure(d)


def test_root_membership_and_support():
    d = build_root_datum("A2")
    assert is_root(d, (1, 1))
    assert not is_root(d, (2, 1))
    assert not is_root(d, (0, 0))
    assert root_support((1, 0, 1)) == frozenset({1, 3})


def test_normalize_levi():
    d = build_root_datum("A3")
    assert normalize_levi(d, [3, 1]) == (1, 3)
    assert normalize_levi(d, [1, 1, 2]) == (1, 2)
    with pytest.raises(NotARoot):
        normalize_levi(d, [0])
    with pytest.raises(NotARoot):
        normalize_levi(d, [4, 5])


def test_classify_wrt_parabolic():
    d = build_root_datum("B2")
    levi = (1,)
    assert classify_wrt_parabolic(d, (1, 0), levi) is RootPosition.LEVI
    assert classify_wrt_parabolic(d, (-1, 0), levi) is RootPosition.LEVI
    assert classify_wrt_parabolic(d, (0, 1), levi) is RootPosition.NILRADICAL
    assert classify_wrt_parabolic(d, (1, 1), levi) is RootPosition.NILRADICAL
    assert classify_wrt_parabolic(d, (-1, -1), levi) is RootPosition.OPPOSITE_NILRADICAL
    with pytest.raises(NotARoot):
        classify_wrt_parabolic(d, (2, 1), levi)


def test_twist_root():
    d = build_root_datum("A2", twist=(2, 1))
    assert twist_root(d, (1, 0)) == (0, 1)
    assert twist_root(d, (1, 1)) == (1, 1)


def test_m_alpha_triviality_across_types():
    sc_b2 = build_root_datum("B2")
    assert [is_m_alpha_trivial(sc_b2, i) for i in (1, 2)] == [False, False]
    # in the adjoint lattice the second simple coroot is the even column (-2, 2)
    ad_b2 = build_root_datum("B2", isogeny="adjoint")
    assert [is_m_alpha_trivial(ad_b2, i) for i in (1, 2)] == [False, True]


def test_format_round_trip_named():
    for name in ("A1", "A2", "B2", "A1xA1"):
        for isogeny in ("simply_connected", "adjoint"):
            d = build_root_datum(name, isogeny=isogeny)
            text = format_root_datum(d)
            again = parse_root_datum(text)
            assert again == d
            assert format_root_datum(again) == text


def test_format_round_trip_custom_lattice():
    d = build_root_datum("A1", isogeny="lattice", coroot_rows=((2,),))
    text = format_root_datum(d)
    assert parse_root_datum(text) == d


def unnamed_data():
    """Data given by their Cartan matrices: one simply connected with a
    twist, one adjoint and two lattices, one in a sheared basis."""
    return [
        build_root_datum(cartan_matrix("A3"), twist=(3, 2, 1)),
        build_root_datum(cartan_matrix("B2"), isogeny="adjoint"),
        build_root_datum(cartan_matrix("B2"), isogeny="lattice", coroot_rows=((2, -1), (-2, 2))),
        build_root_datum(cartan_matrix("A2"), isogeny="lattice", coroot_rows=((1, 1), (0, 1))),
    ]


def test_format_round_trip_unnamed():
    for d in unnamed_data():
        text = format_root_datum(d)
        assert text.splitlines()[1] == f"cartan {d.rank}"
        again = parse_root_datum(text)
        assert again == d
        assert format_root_datum(again) == text
    lattice = unnamed_data()[3]
    assert lattice.root_images == ((3, -1), (-3, 2))  # solves C r_i = a_i


def test_group_case_of_an_unnamed_datum_round_trips():
    for d in unnamed_data():
        g = group_case(d)
        assert g.datum.name is None and g.datum.isogeny == d.isogeny
        text = format_kgb(g)
        again = parse_kgb(text)
        assert again == g
        assert format_kgb(again) == text


def test_unnamed_parse_errors_name_the_block():
    good = format_root_datum(unnamed_data()[2]).splitlines()
    assert good == [
        "rootdatum v1", "cartan 2", "2 -2", "-1 2", "isogeny lattice", "2 -1", "-2 2", "twist id"
    ]

    def edited(at, *lines):
        return "\n".join(good[:at] + list(lines) + good[at + 1 :]) + "\n"

    cases = [
        ("\n".join(good[:3]) + "\n", "truncated cartan matrix"),
        (edited(2, "2 -2x"), "bad cartan row '2 -2x'"),
        (edited(1, "cartan two"), "malformed cartan line"),
        ("\n".join(good[:6]) + "\n", "truncated lattice rows"),
        (edited(6, "-2 two"), "bad lattice row '-2 two'"),
        (edited(4), "missing isogeny line"),
        (edited(7, "twist 2 x"), "bad twist line"),
        (edited(7, "twist"), "bad twist line"),
        # a bad row is reported before the rows run out
        ("\n".join(good[:2] + ["2 x"]) + "\n", "bad cartan row '2 x'"),
        ("\n".join(good[:5] + ["z"]) + "\n", "bad lattice row 'z'"),
        # every numeral is ASCII digits; a minus sign only where it is meaningful
        *[(edited(1, f"cartan {n}"), "malformed cartan line") for n in ("٢", "２", "+2", "-2", "0_2")],
        *[(edited(2, row), f"bad cartan row {row!r}") for row in ("2 -٢", "+2 -2", "2 -2_0", "2 --2", "2 -")],
        (edited(3, "-1 +2"), "bad cartan row '-1 +2'"),
        (edited(6, "-2 ２"), "bad lattice row '-2 ２'"),
        *[(edited(7, f"twist {t}"), "bad twist line") for t in ("٢ 1", "+2 1", "1_0 1", "-1 2")],
    ]
    for text, message in cases:
        with pytest.raises(ParseError) as err:
            parse_root_datum(text)
        assert str(err.value) == message, text


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_root_datum("")
    with pytest.raises(ParseError):
        parse_root_datum("rootdatum v2\ntype A1\n")
    with pytest.raises(ParseError):
        parse_root_datum("rootdatum v1\ntype A1\nisogeny nonsense\n")
    good = format_root_datum(build_root_datum("A2"))
    with pytest.raises(ParseError):
        parse_root_datum(good + "trailing junk\n")


def test_equal_data_hash_equal_and_share_cache_entries():
    for name, twist in (("F4", None), ("A3", (3, 2, 1))):
        d = build_root_datum(name, twist=twist)
        e = parse_root_datum(format_root_datum(d))
        assert d == e and d is not e
        assert hash(d) == hash(e) == hash(d)
        assert simple_reflection(e, 1) == simple_reflection(d, 1)
        assert hash(simple_reflection(e, 1)) == hash(simple_reflection(d, 1))
        assert {d: 1}[e] == 1
    d = build_root_datum("B3")
    positive_roots(d)
    before = positive_roots.cache_info()
    positive_roots(parse_root_datum(format_root_datum(d)))
    after = positive_roots.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_datum_pickled_in_another_process_hashes_like_a_fresh_one():
    # str hashes differ between processes, so a stored hash must not travel
    import flagorbits

    code = (
        "import pickle, sys; from flagorbits import build_root_datum; "
        "d = build_root_datum('G2'); hash(d); sys.stdout.buffer.write(pickle.dumps(d))"
    )
    env = {
        **os.environ,
        "PYTHONHASHSEED": "1",
        "PYTHONPATH": os.path.dirname(os.path.dirname(flagorbits.__file__)),
    }
    sent = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True)
    again = pickle.loads(sent.stdout)
    d = build_root_datum("G2")
    assert again == d and hash(again) == hash(d) and {d: 1}[again] == 1


def test_construction_and_root_refusals():
    a2 = build_root_datum("A2")
    header_only = "rootdatum v1\n"
    bad_line = "rootdatum v1\nkind A2\nisogeny adjoint\ntwist id\n"
    for call, error, message in (
        (lambda: build_root_datum("A2", isogeny="isogenous"), InvalidCartan, "unknown isogeny 'isogenous'"),
        (
            lambda: build_root_datum("A2", isogeny="lattice"),
            InvalidCartan,
            "lattice isogeny requires explicit coroot rows",
        ),
        (
            lambda: build_root_datum("A2", coroot_rows=((1, 0), (0, 1))),
            InvalidCartan,
            "coroot rows are only accepted with the lattice isogeny",
        ),
        *[
            (
                lambda rows=rows: build_root_datum("A2", isogeny="lattice", coroot_rows=rows),
                InvalidCartan,
                "lattice data must give one row of length rank per coroot",
            )
            for rows in (((1, 0),), ((1, 0), (0, 1, 0)), ((1, 0), (0, 1), (1, 1)))
        ],
        (lambda: reflect(a2, 1, (2, 0)), NotARoot, "(2, 0) is not a root"),
        (lambda: is_positive_root(a2, (1, -1)), NotARoot, "(1, -1) is not a root"),
        (lambda: parse_root_datum(header_only), ParseError, "missing type or cartan line"),
        (lambda: parse_root_datum(bad_line), ParseError, "expected type or cartan line, got 'kind A2'"),
    ):
        with pytest.raises(error) as err:
            call()
        assert str(err.value) == message
