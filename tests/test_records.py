"""The package's record types: their repr, equality, hashing and immutability,
and the modules a cold import loads."""

import os
import subprocess
import sys

import pytest

import flagorbits
from flagorbits import (
    CartanSpec,
    KgbGraph,
    build_root_datum,
    canonical_sequences,
    from_weyl,
    from_word,
    i_equivalence_classes,
    reduced_decomposition,
    sl2_split,
)
from flagorbits.parabolic import enumerate_cosets

A1 = (
    "RootDatum(cartan=((2,),), labels=('1',), root_images=((2,),), coroot_images=((1,),), "
    "twist=(1,), isogeny='simply_connected', name='A1')"
)


def test_a_cold_import_loads_no_dataclasses_inspect_or_fractions():
    code = (
        "import sys, flagorbits.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'fractions') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(flagorbits.__file__))}
    got = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert got.stdout.strip() == ""


def test_reprs():
    d = build_root_datum("A2")
    assert repr(CartanSpec(((2,),), ("1",))) == "CartanSpec(entries=((2,),), labels=('1',))"
    assert repr(d) == (
        "RootDatum(cartan=((2, -1), (-1, 2)), labels=('1', '2'), root_images=((2, -1), (-1, 2)), "
        "coroot_images=((1, 0), (0, 1)), twist=(1, 2), isogeny='simply_connected', name='A2')"
    )
    assert repr(build_root_datum("A1")) == A1
    assert repr(from_word(d, (1, 2))) == "WeylElt(1,2)"
    assert repr(enumerate_cosets(d, (1,))[0]) == "ParabolicCoset(levi=(1,), min_rep=WeylElt(e), max_rep=WeylElt(1))"
    g = from_weyl(build_root_datum("A1"))
    assert repr(reduced_decomposition(g, "1")) == "ReducedDecomposition(nodes=('e', '1'), roots=(1,))"
    k = sl2_split()
    assert repr(canonical_sequences(k, "0")) == "CanonicalSequences(start='0', up=(), open_node='2', down=((1, 0),))"
    assert repr(i_equivalence_classes(k, (1,))) == "(IEquivClass(members=('0', '1', '2'), top='2'),)"
    assert repr(k) == (
        f"KgbGraph(datum={A1}, nodes=('0', '1', '2'), "
        "tw={'0': WeylElt(e), '1': WeylElt(e), '2': WeylElt(1)}, length={'0': 0, '1': 0, '2': 1}, "
        "label={(1, '0'): <RootType.NONCOMPACT_I: 'nci1'>, (1, '1'): <RootType.NONCOMPACT_I: 'nci1'>, "
        "(1, '2'): <RootType.REAL_I: 'r1'>}, "
        "cross={(1, '0'): '1', (1, '1'): '0', (1, '2'): '2'}, cayley={(1, '0'): '2', (1, '1'): '2'}, "
        "origin='fixture')"
    )


def test_independent_root_data_compare_and_hash_equal():
    for name in ("A2", "B3", "G2xA1"):
        d, e = build_root_datum(name), build_root_datum(name)
        assert d is not e and d == e and hash(d) == hash(e)
        assert hash(d) == hash((d.cartan, d.labels, d.root_images, d.coroot_images, d.twist, d.isogeny, d.name))
        assert from_word(d, (1, 2)) == from_word(e, (1, 2))
        assert hash(from_word(d, (1, 2))) == hash(from_word(e, (1, 2)))
    assert build_root_datum("A2") != build_root_datum("A2", isogeny="adjoint")
    assert build_root_datum("A2") != build_root_datum("A2", twist=(2, 1))
    assert build_root_datum("A2") != "A2"


def test_graph_equality_ignores_origin_and_memos():
    g = sl2_split()
    fields = [g.datum, g.nodes, g.tw, g.length, g.label, g.cross, g.cayley]
    h = KgbGraph(*fields, origin="elsewhere")
    canonical_sequences(g, "0")  # fills the poset and open-node memos
    i_equivalence_classes(g, (1,))
    assert g == h and g.origin != h.origin
    with pytest.raises(TypeError):
        hash(g)
    fields[5] = {**g.cross, (1, "0"): "0"}
    assert g != KgbGraph(*fields)


def test_frozen_records_refuse_assignment():
    d = build_root_datum("A2")
    records = [
        CartanSpec(((2,),), ("1",)),
        d,
        enumerate_cosets(d, (1,))[0],
        reduced_decomposition(from_weyl(d), "1"),
        canonical_sequences(sl2_split(), "0"),
        i_equivalence_classes(sl2_split(), (1,))[0],
    ]
    for record in records:
        with pytest.raises(AttributeError):
            record.extra = 1
    with pytest.raises(AttributeError):
        d.name = "B2"
    with pytest.raises(AttributeError):
        del d.name
    with pytest.raises(AttributeError):
        records[0].labels = ("2",)
    assert d.name == "A2"
