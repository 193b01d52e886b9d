"""Layer tracing from outside the package.

Every public function of a flagorbits module is wrapped, and every module
name bound to it (including the package namespace and aliases such as
``length as weyl_length``) is rebound to the wrapper.  A call that crosses
into another layer records a span (name, start, end, parent span); a call
inside the same layer only counts, so recursion and intra-module helpers
add no spans.  The per-element helpers in SCALAR are counted, never
spanned.  Spans stay in memory until the run ends.

With ``memory=True`` the tracer also reads the tracemalloc peak across each
span, so every layer gets the largest allocation peak of a call into it.
Nothing here imports flagorbits at import time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from collections import Counter

LAYERS = ("root_datum", "weyl", "parabolic", "orbit_poset", "kgb", "kgp", "cli")

# Hot per-element helpers: counted but not spanned, so that a span marks a
# real layer boundary and tracing stays affordable.
SCALAR = {
    "root_datum": {
        "simple_root", "coroot_pairing", "reflect", "is_root", "is_positive_root",
        "positive_roots", "all_roots", "root_support", "twist_root",
        "normalize_levi", "classify_wrt_parabolic", "is_m_alpha_trivial",
    },
    "weyl": {
        "identity", "simple_reflection", "mul", "length", "format_word",
        "apply_twist", "descent_direction", "act_on_root",
    },
    "parabolic": {
        "is_p_minimal", "is_p_maximal", "classify_step", "step_coset", "coset_of",
        "p_length",
    },
    "orbit_poset": {"node_sort_key", "monoid_apply"},
    "kgb": {
        "root_type", "cross_action", "cayley", "inverse_cayley", "monoid",
        "monoid_word", "monoid_elt", "twist_elt", "is_twisted_involution",
    },
}

# Serialization functions whose inclusive time is the layer's io_s.
IO = {
    "orbit_poset.format_orbit_graph", "orbit_poset.parse_orbit_graph",
    "orbit_poset.save_orbit_graph", "orbit_poset.load_orbit_graph",
    "kgb.format_kgb", "kgb.parse_kgb", "kgb.save_kgb", "kgb.load_kgb",
}

_ORBIT_GRAPH_BUILDERS = (
    "orbit_poset.from_weyl", "orbit_poset.from_parabolic",
    "orbit_poset.parse_orbit_graph",
)
_KGB_BUILDERS = (
    "kgb.group_case", "kgb.twisted_shadow", "kgb.parse_kgb",
    "kgb.sl2_split", "kgb.pgl2_split", "kgb.a1xa1_swap",
)
_KGB_CHECKS = ("kgb.validate_kgb", "kgb.ascent_consistency_check", "kgb.minimal_w_uniqueness_check")


class Tracer:
    """Wraps the loaded flagorbits modules on install() and undoes it on
    uninstall(); holds the spans, call counts and counters read from
    returned values."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.calls: Counter[str] = Counter()
        self.extra: Counter[str] = Counter()
        # (qualname, start_ns, end_ns, parent index, alloc bytes or 0)
        self.spans: list = []
        # frames: [span index, layer, running tracemalloc peak, base]
        self.stack: list = [[-1, None, 0, 0]]
        self._originals: dict[str, object] = {}
        self._bindings: list[tuple[object, str, object]] = []
        self._enumerated: dict = {}
        self._cosets: dict = {}

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "flagorbits" or name.startswith("flagorbits."))]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for name, obj in vars(mod).items():
                if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                qual = f"{layer}.{name}"
                self._originals[qual] = obj
                if name in SCALAR.get(layer, ()):
                    wrappers[id(obj)] = self._counted(qual, obj)
                else:
                    wrappers[id(obj)] = self._spanned(layer, qual, obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._bindings.append((mod, name, obj))
                    setattr(mod, name, wrapper)
        if self.memory:
            tracemalloc.start()

    def uninstall(self) -> None:
        if self.memory:
            tracemalloc.stop()
        for mod, name, obj in reversed(self._bindings):
            setattr(mod, name, obj)
        self._bindings.clear()

    def _counted(self, qual, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[qual] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, layer, qual, fn):
        calls, stack, spans = self.calls, self.stack, self.spans
        clock = time.perf_counter_ns
        memory = self.memory
        hook = self._hook(qual)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[qual] += 1
            parent = stack[-1]
            if parent[1] == layer:
                result = fn(*args, **kwargs)
            else:
                index = len(spans)
                spans.append(None)
                frame = [index, layer, 0, 0]
                if memory:
                    current, peak = tracemalloc.get_traced_memory()
                    parent[2] = max(parent[2], peak)
                    tracemalloc.reset_peak()
                    frame[2] = frame[3] = current
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    alloc = 0
                    if memory:
                        peak = max(frame[2], tracemalloc.get_traced_memory()[1])
                        parent[2] = max(parent[2], peak)
                        alloc = peak - frame[3]
                    spans[index] = (qual, start, end, parent[0], alloc)
            if hook is not None:
                hook(result, args, parent[1])
            return result

        return wrapper

    # -- counters read from returned values -----------------------------------

    def _hook(self, qual):
        extra = self.extra
        if qual == "weyl.enumerate_elements":
            def hook(result, args, caller):
                self._enumerated[args[0]] = len(result)
        elif qual == "parabolic.enumerate_cosets":
            def hook(result, args, caller):
                self._cosets[args] = len(result)
        elif qual in _ORBIT_GRAPH_BUILDERS:
            def hook(result, args, caller):
                extra["orbit_poset.nodes"] += len(result.nodes)
        elif qual == "orbit_poset.hasse":
            def hook(result, args, caller):
                extra["orbit_poset.hasse_edges"] += len(result)
        elif qual in _KGB_BUILDERS:
            def hook(result, args, caller):
                extra["kgb.nodes"] += len(result.nodes)
        elif qual in _KGB_CHECKS:
            def hook(result, args, caller):
                extra["kgb.violations"] += len(result)
        elif qual == "kgp.i_equivalence_classes":
            def hook(result, args, caller):
                extra["kgp.classes"] += len(result)
        elif qual == "kgb.to_orbit_poset":
            def hook(result, args, caller):
                if caller == "kgp":
                    extra["kgp.poset_rebuilds"] += 1
        else:
            hook = None
        return hook

    # -- results -----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Raw per-layer numbers; merge() adds snapshots, layer_metrics()
        turns them into the benchmark's metrics."""
        self_ns: Counter[str] = Counter()
        io_ns: Counter[str] = Counter()
        alloc: dict[str, int] = {}
        child_ns = [0] * len(self.spans)
        for qual, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (qual, start, end, parent, size) in enumerate(self.spans):
            layer = qual.partition(".")[0]
            self_ns[layer] += end - start - child_ns[i]
            if qual in IO:
                io_ns[layer] += end - start
            alloc[layer] = max(alloc.get(layer, 0), size)
        caches = {}
        for qual, fn in self._originals.items():
            info = getattr(fn, "cache_info", None)
            if info is not None:
                ci = info()
                caches[qual] = [ci.hits, ci.misses, ci.currsize]
        extra = Counter(self.extra)
        extra["weyl.elements"] += sum(self._enumerated.values())
        extra["parabolic.cosets"] += sum(self._cosets.values())
        return {
            "calls": dict(self.calls),
            "self_ns": dict(self_ns),
            "io_ns": dict(io_ns),
            "alloc": alloc,
            "caches": caches,
            "extra": dict(extra),
            "spans": len(self.spans),
        }

    def span_records(self) -> list[dict]:
        return [
            {"name": q, "start_ns": s, "end_ns": e, "parent": p}
            for q, s, e, p, _ in self.spans
        ]


def merge(snapshots: list[dict]) -> dict:
    """Sum several snapshots (one per CLI request); allocation peaks take
    the maximum, and cache figures add up across processes."""
    out = {"calls": Counter(), "self_ns": Counter(), "io_ns": Counter(), "alloc": {},
           "caches": {}, "extra": Counter(), "spans": 0}
    for snap in snapshots:
        for key in ("calls", "self_ns", "io_ns", "extra"):
            out[key].update(snap[key])
        for layer, size in snap["alloc"].items():
            out["alloc"][layer] = max(out["alloc"].get(layer, 0), size)
        for qual, figures in snap["caches"].items():
            old = out["caches"].get(qual, [0, 0, 0])
            out["caches"][qual] = [a + b for a, b in zip(old, figures)]
        out["spans"] += snap["spans"]
    return out


def _hit_ratio(caches: dict, qual: str) -> float:
    hits, misses, _ = caches.get(qual, (0, 0, 0))
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(raw: dict, memory_raw: dict | None = None) -> dict[str, tuple[float, str]]:
    """Per-layer metrics by name, each (value, unit).  Allocation peaks
    come from the memory pass when given."""
    calls, extra, caches = raw["calls"], raw["extra"], raw["caches"]
    alloc = (memory_raw or raw)["alloc"]
    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (raw["self_ns"].get(layer, 0) / 1e9, "s")
        m[f"{layer}.calls"] = (sum(n for q, n in calls.items() if q.startswith(layer + ".")), "count")
        m[f"{layer}.alloc_peak_kib"] = (alloc.get(layer, 0) / 1024, "KiB")
    m["weyl.elements"] = (extra.get("weyl.elements", 0), "count")
    m["weyl.cache_entries"] = (
        sum(c[2] for q, c in caches.items() if q.startswith("weyl.")), "count")
    m["weyl.length_hit_ratio"] = (_hit_ratio(caches, "weyl.length"), "ratio")
    m["weyl.reduced_word_hit_ratio"] = (_hit_ratio(caches, "weyl.reduced_word"), "ratio")
    m["parabolic.cosets"] = (extra.get("parabolic.cosets", 0), "count")
    m["orbit_poset.leq_calls"] = (calls.get("orbit_poset.poset_leq", 0), "count")
    m["orbit_poset.nodes"] = (extra.get("orbit_poset.nodes", 0), "count")
    m["orbit_poset.hasse_edges"] = (extra.get("orbit_poset.hasse_edges", 0), "count")
    m["orbit_poset.io_s"] = (raw["io_ns"].get("orbit_poset", 0) / 1e9, "s")
    m["kgb.nodes"] = (extra.get("kgb.nodes", 0), "count")
    m["kgb.violations"] = (extra.get("kgb.violations", 0), "count")
    m["kgb.io_s"] = (raw["io_ns"].get("kgb", 0) / 1e9, "s")
    m["kgp.classes"] = (extra.get("kgp.classes", 0), "count")
    m["kgp.poset_rebuilds"] = (extra.get("kgp.poset_rebuilds", 0), "count")
    m["trace.spans"] = (raw["spans"], "count")
    return m


def write_spans(path: str, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
