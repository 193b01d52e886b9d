"""Golden outputs: recompute every seed-independent benchmark output of the
closure-order and symmetric-pair workloads and compare it, byte for byte,
with the sha256 digest committed in perfbench/digests.json (read only)."""

import functools
import hashlib
import json
from pathlib import Path

import pytest

from flagorbits import (
    build_root_datum,
    distinct_ascents_check,
    format_kgb,
    format_orbit_graph,
    from_parabolic,
    from_weyl,
    group_case,
    hasse,
    hasse_dot,
    minimal_w_uniqueness_check,
    to_orbit_poset,
    twisted_shadow,
)

DIGESTS = json.loads((Path(__file__).parents[1] / "perfbench" / "digests.json").read_text())

CLOSURE = {
    "B4": ("B4", ()),
    "A4": ("A4", ()),
    "A5-levi24": ("A5", (2, 4)),
    "B4-levi12": ("B4", (1, 2)),
    "A2": ("A2", ()),
    "B2-levi1": ("B2", (1,)),
}
SHADOWS = {"A2": (2, 1), "A4": (4, 3, 2, 1), "D4": (1, 2, 4, 3)}
KEYS = (
    [f"closure_order/{kind}/{label}" for kind in ("hasse_dot", "format") for label in CLOSURE]
    + [f"symmetric_pairs/{kind}/{name}" for kind in ("format_kgb", "hasse") for name in ("A2", "B2", "B3", "A4")]
    + [f"symmetric_pairs/twisted_shadow/{name}" for name in SHADOWS]
    + [f"symmetric_pairs/minimal_w/{name}" for name in ("A2", "A3")]
    + [f"symmetric_pairs/distinct_ascents/B3 levi {levi}" for levi in ("1", "3", "1,2", "4", "6", "4,5")]
)


@functools.lru_cache(maxsize=None)
def _group_case(name):
    return group_case(build_root_datum(name))


def render(key: str) -> str:
    """The output the benchmark digests under this key."""
    workload, kind, case = key.split("/")
    if workload == "closure_order":
        name, levi = CLOSURE[case]
        datum = build_root_datum(name)
        g = from_parabolic(datum, levi) if levi else from_weyl(datum)
        return hasse_dot(g) if kind == "hasse_dot" else format_orbit_graph(g)
    if kind == "format_kgb":
        return format_kgb(_group_case(case))
    if kind == "hasse":
        return str(hasse(to_orbit_poset(_group_case(case))))
    if kind == "twisted_shadow":
        return format_kgb(twisted_shadow(build_root_datum(case, twist=SHADOWS[case])))
    if kind == "minimal_w":
        return "\n".join(minimal_w_uniqueness_check(_group_case(case)))
    name, _, levi = case.split(" ")
    return "\n".join(distinct_ascents_check(_group_case(name), tuple(int(i) for i in levi.split(","))))


def test_every_golden_output_has_a_committed_digest():
    assert len(set(KEYS)) == 31
    assert set(KEYS) <= set(DIGESTS)


@pytest.mark.parametrize("key", KEYS)
def test_output_matches_its_committed_digest(key):
    assert hashlib.sha256(render(key).encode()).hexdigest() == DIGESTS[key]
