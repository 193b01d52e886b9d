"""One repetition of one benchmark workload, in a fresh interpreter.

    python perfbench/workloads.py <workload> --seed N --launch-ns T [--mode plain|setup|spans|memory] [--smoke] [--record]

Run from the repository root with ``src`` on PYTHONPATH; ``run.py`` does
this.  The process builds its inputs from the seed (set-up), runs the
workload's fixed operation list once, timing every operation, and only then
checks every output, so oracles never warm the caches the timed part uses.
The last stdout line is one JSON object with the repetition's figures.

An operation fails if it raises, if its output is wrong, or (for a CLI
request) if it breaks the exit contract: exit 0 with empty stderr, or exit 1
with exactly one ``error:`` line, and never a traceback.  Outputs that do
not depend on the seed are compared with sha256 digests in digests.json;
seeded outputs go through an independent oracle.  ``--record`` rewrites the
digests from the current program instead of checking them.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")
WORK_DIR = ".perfbench-out"

WORKLOAD_NAMES = ("weyl_enum", "closure_order", "symmetric_pairs", "cli_mix")


def group_order(name: str) -> int:
    """Closed-form |W| for an irreducible type name such as 'B4'."""
    letter, n = name[0], int(name[1:])
    fixed = {"E6": 51840, "E7": 2903040, "E8": 696729600, "F4": 1152, "G2": 12}
    if name in fixed:
        return fixed[name]
    if letter == "A":
        return math.factorial(n + 1)
    if letter in "BC":
        return 2**n * math.factorial(n)
    if letter == "D":
        return 2 ** (n - 1) * math.factorial(n)
    raise ValueError(f"no closed form for {name}")


class Wrong(Exception):
    """An output differs from its digest or oracle."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Wrong(message)


_PERMS = [tuple(random.Random(k).sample(range(24), 24)) for k in range(16)]
PROBE_EVERY_S = 0.05  # how often the host's speed is probed while operations run
SETUP_PROBES = 5
# Each probe job's duration on the quiet reference host (a 2.0 GHz Xeon
# vCPU, Sapphire Rapids); times are reported scaled to it.
KERNEL_REF_MS = 0.75
LAUNCH_REF_MS = 10.0


def probe_kernel() -> None:
    """A fixed pure-Python job (tuple permutations and a dict, the kind of
    work the package does) that never touches the package.  Its duration
    tells how fast the shared host runs Python at that moment."""
    seen, p = {}, tuple(range(24))
    for k in range(300):
        p = tuple(p[i] for i in _PERMS[k & 15])
        seen[p] = seen.get(p, 0) + 1


def probe_launch() -> None:
    """Launches a bare interpreter (no site, no environment).  Its duration
    tells how fast the host starts a process, which is most of a set-up and
    of a CLI request; probe_kernel tracks that poorly."""
    subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True)


def timed_probe(job) -> tuple[int, int]:
    # A collection triggered inside the probe would charge the program's heap
    # to the probe.
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter_ns()
    job()
    end = time.perf_counter_ns()
    if collecting:
        gc.enable()
    return start, end


class Ops:
    """Times each operation of a workload and defers its check.

    With probing "timer", the host's speed is probed with probe_kernel every
    PROBE_EVERY_S from a timer signal, so also inside long operations (the
    probe's time is taken out of the operation's latency); with "between"
    (for CLI requests, which run in child processes) with probe_launch
    before an operation once PROBE_EVERY_S has passed; with None never."""

    def __init__(self, digests: dict, record: bool, probing: str | None):
        self.digests = digests
        self.record = record
        self.latencies_ns: list[int] = []
        self.starts_ns: list[int] = []
        self.probes: list[tuple[int, int]] = []  # (middle, duration)
        self.probing = probing
        self.probe_ns = 0
        self._last_probe = 0
        self.attempted = 0
        self.failed = 0
        self.known_failed = 0
        self.unexpected: list[str] = []
        self._pending: list = []

    def op(self, name, fn, *args, check=None, known_defect=False):
        """Run fn(*args) as one timed operation; returns its output, or None
        when it raised (the operation then counts as failed)."""
        self.attempted += 1
        if self.probing == "between" and time.perf_counter_ns() - self._last_probe >= PROBE_EVERY_S * 1e9:
            self.probe()
        probed = self.probe_ns
        start = time.perf_counter_ns()
        self.starts_ns.append(start)
        try:
            out = fn(*args)
        except Exception as exc:  # any exception is a failed operation
            self.latencies_ns.append(time.perf_counter_ns() - start - (self.probe_ns - probed))
            self._fail(name, f"{type(exc).__name__}: {exc}", known_defect)
            return None
        self.latencies_ns.append(time.perf_counter_ns() - start - (self.probe_ns - probed))
        if check is not None:
            self._pending.append((name, check, out, known_defect))
        return out

    def probe(self, *_signal_args):
        start, end = timed_probe(probe_launch if self.probing == "between" else probe_kernel)
        self._last_probe = end
        self.probes.append(((start + end) // 2, end - start))
        self.probe_ns += end - start

    def start_probing(self):
        if self.probing == "timer":
            signal.signal(signal.SIGALRM, self.probe)
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop_probing(self):
        if self.probing == "timer":
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if self.probing:
            self.probe()

    def _fail(self, name, message, known_defect):
        self.failed += 1
        if known_defect:
            self.known_failed += 1
        elif len(self.unexpected) < 20:
            self.unexpected.append(f"{name}: {message}")

    def verify(self) -> None:
        for name, check, out, known_defect in self._pending:
            try:
                check(out)
            except Exception as exc:  # a crashing check is a wrong output
                self._fail(name, f"{type(exc).__name__}: {exc}", known_defect)
        self._pending.clear()

    def digest(self, key: str, text: str) -> None:
        got = hashlib.sha256(text.encode()).hexdigest()
        if self.record:
            self.digests[key] = got
            return
        want = self.digests.get(key)
        expect(want is not None, f"no stored digest for {key}")
        expect(got == want, f"digest mismatch for {key}")

    def digest_check(self, key, render=str):
        return lambda out: self.digest(key, render(out))


# --- weyl_enum ------------------------------------------------------------------

WEYL_TYPES = {False: ("B4", "D4", "A5", "F4"), True: ("A2", "B2")}
ORDER_PAIRS, INV_CASES, EXCHANGE_CASES = 40, 20, 20
BATCH = 10  # seeded queries of one kind timed as one operation


def _random_word(rng, rank, length):
    return tuple(rng.randint(1, rank) for _ in range(length))


def setup_weyl_enum(rng, smoke, mode, record):
    """Seeded words of fixed lengths (in units of the number N of positive
    roots), so that the seed changes which elements are queried but hardly
    what the queries cost."""
    from flagorbits import root_datum

    cases = []
    for name in WEYL_TYPES[smoke]:
        datum = root_datum.build_root_datum(name)
        r, top = datum.rank, len(root_datum.positive_roots(datum))
        pairs = [(_random_word(rng, r, top // 4), _random_word(rng, r, top // 2)) for _ in range(ORDER_PAIRS)]
        invs = [_random_word(rng, r, top) for _ in range(INV_CASES)]
        exchanges = [(_random_word(rng, r, top), rng.random()) for _ in range(EXCHANGE_CASES)]
        cases.append((name, datum, pairs, invs, exchanges))
    return cases


def _elements_with_words(datum):
    from flagorbits import weyl

    return [(w, weyl.reduced_word(w)) for w in weyl.enumerate_elements(datum)]


def _right_descents(datum, w):
    from flagorbits import root_datum, weyl

    return [i for i in range(1, datum.rank + 1)
            if weyl.descent_direction(w, root_datum.simple_root(datum, i)) is weyl.Direction.DOWN]


def _order(datum, left, right):
    from flagorbits import weyl

    return weyl.bruhat_leq(weyl.from_word(datum, left), weyl.from_word(datum, right))


def _exchange(datum, word, pick):
    """Reduce a seeded word, pick a seeded right descent, exchange at it."""
    from flagorbits import weyl

    w = weyl.from_word(datum, word)
    descents = _right_descents(datum, w)
    if not descents:  # the word multiplies out to the identity
        w = weyl.from_word(datum, word[:1])
        descents = _right_descents(datum, w)
    reduced = weyl.reduced_word(w)
    alpha = descents[int(pick * len(descents))]
    return reduced, alpha, weyl.exchange(datum, reduced, alpha)


def _batches(cases):
    return [cases[i:i + BATCH] for i in range(0, len(cases), BATCH)]


def _check_each(checks):
    def check(outs):
        expect(len(outs) == len(checks), "batch output has the wrong length")
        for one, out in zip(checks, outs):
            one(out)
    return check


def _inv(datum, word):
    from flagorbits import weyl

    return weyl.inv(weyl.from_word(datum, word))


def run_weyl_enum(ops, cases):
    """Per type: the enumeration, then the seeded queries in batches of
    BATCH, so 36 operations in all and the four enumerations are the top
    tenth (a single query's cost depends too much on the element drawn)."""
    for name, datum, pairs, invs, exchanges in cases:
        ops.op(f"enumerate {name}", _elements_with_words, datum, check=_check_enumeration(ops, name))
        for batch in _batches(pairs):
            ops.op(f"bruhat_leq {name}", lambda d, b: [_order(d, x, y) for x, y in b], datum, batch,
                   check=_check_each([_check_order(datum, x, y) for x, y in batch]))
        for batch in _batches(invs):
            ops.op(f"inv {name}", lambda d, b: [_inv(d, x) for x in b], datum, batch,
                   check=_check_each([_check_inv(datum, x) for x in batch]))
        for batch in _batches(exchanges):
            ops.op(f"exchange {name}", lambda d, b: [_exchange(d, x, p) for x, p in b], datum, batch,
                   check=_check_each([_check_exchange(datum) for _ in batch]))


def _check_enumeration(ops, name):
    from flagorbits import weyl

    def check(pairs):
        expect(len(pairs) == group_order(name), f"|W({name})| = {len(pairs)}, expected {group_order(name)}")
        ops.digest(f"weyl_enum/enumerate/{name}", "\n".join(weyl.format_word(w) for _, w in pairs))
    return check


def _check_order(datum, left, right):
    from flagorbits import weyl

    def check(got):
        u, v = weyl.from_word(datum, left), weyl.from_word(datum, right)
        expect(got == weyl.bruhat_leq_subword(u, v), f"bruhat_leq{left, right} disagrees with the subword oracle")
    return check


def _check_inv(datum, word):
    from flagorbits import weyl

    def check(got):
        expect(weyl.mul(got, weyl.from_word(datum, word)) == weyl.identity(datum), f"inv{word} is not an inverse")
    return check


def _check_exchange(datum):
    from flagorbits import weyl

    def check(out):
        reduced, alpha, pos = out
        rest = reduced[: pos - 1] + reduced[pos:]
        target = weyl.mul(weyl.from_word(datum, reduced), weyl.simple_reflection(datum, alpha))
        expect(weyl.is_reduced(datum, rest) and weyl.from_word(datum, rest) == target,
               f"exchange{reduced, alpha} gave position {pos}")
    return check


# --- closure_order ----------------------------------------------------------------

CLOSURE_GRAPHS = {
    False: (("B4", None), ("A4", None), ("A5", (2, 4)), ("B4", (1, 2))),
    True: (("A2", None), ("B2", (1,))),
}
LEQ_QUERIES = 25


def setup_closure_order(rng, smoke, mode, record):
    from flagorbits import root_datum

    cases = []
    for name, levi in CLOSURE_GRAPHS[smoke]:
        datum = root_datum.build_root_datum(name)
        queries = [(rng.random(), rng.random()) for _ in range(LEQ_QUERIES)]
        cases.append((name, levi, datum, queries))
    return cases


def _label(name, levi):
    return name if levi is None else f"{name}-levi{''.join(map(str, levi))}"


def _roundtrip(g):
    from flagorbits import orbit_poset as op

    text = op.format_orbit_graph(g)
    return text, op.format_orbit_graph(op.parse_orbit_graph(text))


def _decompose(g, v):
    from flagorbits import orbit_poset as op

    return op.subexpression_endpoints(g, op.reduced_decomposition(g, v))


def run_closure_order(ops, cases):
    from flagorbits import orbit_poset as op

    for name, levi, datum, queries in cases:
        label = _label(name, levi)
        if levi is None:
            g = ops.op(f"from_weyl {label}", op.from_weyl, datum)
        else:
            g = ops.op(f"from_parabolic {label}", op.from_parabolic, datum, levi)
        if g is None:
            continue
        n = len(g.nodes)
        ops.op(f"validate {label}", op.validate, g, check=lambda out: expect(out == [], "violations"))
        for a, b in queries:
            u, v = g.nodes[int(a * n)], g.nodes[int(b * n)]
            ops.op(f"poset_leq {label}", op.poset_leq, g, u, v, check=_check_leq(datum, u, v))
        ops.op(f"property_z_check {label}", op.property_z_check, g,
               check=lambda out: expect(out == [], "property Z violations"))
        ops.op(f"hasse_dot {label}", op.hasse_dot, g, check=ops.digest_check(f"closure_order/hasse_dot/{label}"))
        ops.op(f"roundtrip {label}", _roundtrip, g, check=_check_roundtrip(ops, f"closure_order/format/{label}"))
        # In node order: what a decomposition costs depends on the ones before it.
        for v in g.nodes:
            ops.op(f"decompose {label}", _decompose, g, v, check=_check_interval(g, v))


def _check_leq(datum, u, v):
    """Node names are reduced words (of minimal coset representatives), and
    the closure order is the Bruhat order on them."""
    from flagorbits import weyl

    def check(got):
        x = weyl.from_word(datum, weyl.parse_word(datum, u))
        y = weyl.from_word(datum, weyl.parse_word(datum, v))
        expect(got == weyl.bruhat_leq(x, y), f"poset_leq({u}, {v}) disagrees with bruhat_leq")
    return check


def _check_roundtrip(ops, key):
    def check(out):
        text, again = out
        expect(text == again, "format/parse round trip changed the text")
        ops.digest(key, text)
    return check


def _check_interval(g, v):
    from flagorbits import orbit_poset as op

    def check(endpoints):
        below = {u for u in g.nodes if g.length[u] <= g.length[v] and op.poset_leq(g, u, v)}
        expect(set(endpoints) == below, f"subexpression endpoints of {v} are not its lower interval")
    return check


# --- symmetric_pairs ----------------------------------------------------------------

SYMMETRIC = {
    False: {"pairs": ("B3", "A4"), "levi_type": "B3", "shadows": (("A4", (4, 3, 2, 1)), ("D4", (1, 2, 4, 3))),
            "minw": "A3"},
    True: {"pairs": ("A2", "B2"), "levi_type": "A2", "shadows": (("A2", (2, 1)),), "minw": "A2"},
}


def levi_choices(rank: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Levi sets of the doubled datum (rank = base rank) the seed picks
    from: each of {1}, {rank} and {1, 2}, in the first or the second copy.
    Swapping the copies is a symmetry of the group case, so the seed changes
    what is computed but neither how many operations there are nor what
    they cost."""
    return [(levi, tuple(i + rank for i in levi)) for levi in ((1,), (rank,), (1, 2))]


def setup_symmetric_pairs(rng, smoke, mode, record):
    from flagorbits import root_datum

    cfg = SYMMETRIC[smoke]
    data = {name: root_datum.build_root_datum(name) for name in cfg["pairs"] + (cfg["minw"],)}
    choices = levi_choices(data[cfg["levi_type"]].rank)
    levis = [levi for pair in choices for levi in pair] if record else [rng.choice(pair) for pair in choices]
    shadows = [(name, root_datum.build_root_datum(name, twist=tw)) for name, tw in cfg["shadows"]]
    return {"cfg": cfg, "data": data, "levis": levis, "shadows": shadows}


def _canonical_replay(g, v):
    from flagorbits import kgb

    cs = kgb.canonical_sequences(g, v)
    return kgb.replay_upward(g, cs.start, cs.up), kgb.replay_downward(g, cs.down)


def run_symmetric_pairs(ops, inp):
    from flagorbits import kgb, kgp, orbit_poset as op

    cfg, data = inp["cfg"], inp["data"]
    no_violations = lambda out: expect(out == [], f"unexpected violations: {out[:3]}")
    for name in cfg["pairs"]:
        datum = data[name]
        g = ops.op(f"group_case {name}", kgb.group_case, datum,
                   check=lambda out, n=name: expect(len(out.nodes) == group_order(n), "node count"))
        if g is None:
            continue
        text = ops.op(f"format_kgb {name}", kgb.format_kgb, g,
                      check=ops.digest_check(f"symmetric_pairs/format_kgb/{name}"))
        if text is not None:
            ops.op(f"parse_kgb {name}", kgb.parse_kgb, text,
                   check=lambda out, t=text: expect(kgb.format_kgb(out) == t, "round trip changed the text"))
        poset = ops.op(f"to_orbit_poset {name}", kgb.to_orbit_poset, g)
        ops.op(f"property_z_check {name}", op.property_z_check, poset, check=no_violations)
        ops.op(f"hasse {name}", op.hasse, poset, check=ops.digest_check(f"symmetric_pairs/hasse/{name}"))
        ops.op(f"ascent_consistency_check {name}", kgb.ascent_consistency_check, g, check=no_violations)
        for v in g.nodes:
            ops.op(f"canonical_sequences {name}", _canonical_replay, g, v,
                   check=lambda out, v=v: expect(out == (v, v), f"replay of node {v} gave {out}"))
        if name != cfg["levi_type"]:
            continue
        oracle = _BruhatOracle(datum)
        for levi in inp["levis"]:
            tag = f"{name} levi {','.join(map(str, levi))}"
            classes = ops.op(f"i_equivalence_classes {tag}", kgp.i_equivalence_classes, g, levi,
                             check=_check_classes(g))
            ops.op(f"class_hasse {tag}", kgp.class_hasse, g, levi, check=_check_class_hasse(classes, oracle))
            ops.op(f"monoid_descent_check {tag}", kgp.monoid_descent_check, g, levi, check=no_violations)
            ops.op(f"distinct_ascents_check {tag}", kgp.distinct_ascents_check, g, levi,
                   check=ops.digest_check(f"symmetric_pairs/distinct_ascents/{tag}", "\n".join))
            for c1 in classes or ():
                ops.op(f"kgp_leq row {tag}", _kgp_row, g, levi, c1, classes,
                       check=_check_kgp_row(oracle, c1, classes))
    for name, datum in inp["shadows"]:
        ops.op(f"twisted_shadow {name}", kgb.twisted_shadow, datum,
               check=lambda out, n=name: ops.digest(f"symmetric_pairs/twisted_shadow/{n}", kgb.format_kgb(out)))
    name = cfg["minw"]
    g = ops.op(f"group_case {name}", kgb.group_case, data[name])
    ops.op(f"minimal_w_uniqueness_check {name}", kgb.minimal_w_uniqueness_check, g,
           check=ops.digest_check(f"symmetric_pairs/minimal_w/{name}", "\n".join))


def _kgp_row(g, levi, c1, classes):
    """One operation per class: the class against every class.  (Timing each
    pair alone would put the median on the edge between the pairs that stop
    at the length test and those that recurse.)"""
    from flagorbits import kgp

    return [kgp.kgp_leq(g, levi, c1, c2) for c2 in classes]


def _check_kgp_row(oracle, c1, classes):
    def check(row):
        want = [oracle.leq(c1.top, c2.top) for c2 in classes]
        expect(row == want, f"kgp_leq row of class {c1.top} disagrees with the subword oracle")
    return check


class _BruhatOracle:
    """Group-case node i is the i-th element of W; its closure order is the
    Bruhat order, decided here by the subword oracle (only when checking)."""

    def __init__(self, datum):
        self.datum = datum
        self.memo = {}

    def leq(self, a, b):
        from flagorbits import weyl

        if (a, b) not in self.memo:
            elements = weyl.enumerate_elements(self.datum)
            self.memo[(a, b)] = weyl.bruhat_leq_subword(elements[int(a)], elements[int(b)])
        return self.memo[(a, b)]


def _check_classes(g):
    def check(classes):
        members = [v for c in classes for v in c.members]
        expect(sorted(members) == sorted(g.nodes), "classes do not partition the nodes")
        for c in classes:
            top = max(g.length[v] for v in c.members)
            longest = [v for v in c.members if g.length[v] == top]
            expect(longest == [c.top], f"class top {c.top} is not the unique longest")
    return check


def _check_class_hasse(classes, oracle):
    def check(edges):
        tops = [c.top for c in classes]
        lt = {(a, b) for a in tops for b in tops if a != b and oracle.leq(a, b)}
        covers = {(a, b) for a, b in lt if not any((a, c) in lt and (c, b) in lt for c in tops)}
        expect(set(edges) == covers and len(edges) == len(covers), "class_hasse differs from the oracle covers")
    return check


# --- cli_mix ---------------------------------------------------------------------------

FIXTURES = ("sl2_split", "pgl2_split", "a1xa1_swap", "group_case_a1", "group_case_a2", "group_case_b2")
NO_DENSE_GRAPH = """orbitgraph v1
rootsystem A1
nodes 3
node 0 0
node 1 1
node 2 1
fiber 1 1 0 2
"""


def _cli_requests(rng, smoke, broken, no_dense):
    """(argv, expectation, known_defect) for one pass of the request mix:
    100 requests (at least ten then lie beyond p90), 11 in smoke mode."""
    reqs = []
    large = ("A2", "B2") if smoke else ("E6", "E7", "E8")
    for name in large:
        rank = int(name[1:])
        for _ in range(1 if smoke else 12):
            left, right = _random_word(rng, rank, 8), _random_word(rng, rank, 8)
            reqs.append((["order", "--type", name, _word(left), _word(right)], ("order", name, left, right), False))
        for _ in range(1 if smoke else 8):
            word = _random_word(rng, rank, 24)
            reqs.append((["reduce", "--type", name, _word(word)], ("reduce", name, word), False))
    for name in ("A2",) if smoke else ("A3", "B3"):
        reqs.append((["hasse", "--type", name], ("digest",), False))
        if not smoke:
            reqs.append((["enumerate", "--type", name], ("digest",), False))
            for levi in ("1", "2"):
                reqs.append((["cosets", "--type", name, "--levi", levi], ("digest",), False))
            reqs.append((["hasse", "--type", name, "--levi", "1"], ("digest",), False))
    for fixture in FIXTURES[:1] if smoke else FIXTURES:
        path = os.path.join("fixtures", fixture + ".kgb")
        for argv in (["validate", path], ["classes", path, "--levi", "1"],
                     ["kgp-order", path, "--levi", "1"], ["hasse", "--kgb", path]):
            reqs.append((argv, ("digest",), False))
    errors = [["order", "--type", "Q3", "1", "2"], ["validate", broken]]
    if not smoke:
        errors = [["reduce", "--type", "A3", "1,5"], ["order", "--type", "Q3", "1", "2"],
                  ["cosets", "--type", "A3", "--levi", "7"], ["validate", no_dense],
                  ["validate", broken], ["hasse", "--kgb", broken]]
    for argv in errors:
        # Missing labels end in a KeyError traceback today (a known defect).
        reqs.append((argv, ("error",), broken in argv))
    return reqs


def _word(word):
    return ",".join(map(str, word)) if word else "e"


def setup_cli_mix(rng, smoke, mode, record):
    os.makedirs(WORK_DIR, exist_ok=True)
    with open(os.path.join("fixtures", "group_case_a2.kgb"), encoding="utf-8") as fh:
        text = fh.read()
    broken = os.path.join(WORK_DIR, "missing_labels.kgb")
    with open(broken, "w", encoding="utf-8") as fh:
        fh.write("".join(line for line in text.splitlines(True) if not line.startswith("label 3 ")))
    no_dense = os.path.join(WORK_DIR, "no_dense.orbit")
    with open(no_dense, "w", encoding="utf-8") as fh:
        fh.write(NO_DENSE_GRAPH)
    return {"mode": mode, "requests": _cli_requests(rng, smoke, broken, no_dense)}


def _exit_contract_ok(code, out, err):
    if "Traceback" in err:
        return False
    if code == 0:
        return err == ""
    return code == 1 and out == "" and err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def _request(argv, mode, index):
    if mode == "plain":
        cmd = [sys.executable, "-m", "flagorbits", *argv]
        stats = None
    else:
        stats = os.path.join(WORK_DIR, f"request-{index}.json")
        cmd = [sys.executable, os.path.join(HERE, "cli_runner.py"), mode, stats, *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr, stats


def run_cli_mix(ops, inp):
    mode = inp["mode"]
    ops.cli_stats = []
    ops.contract_failures = 0
    for index, (argv, expectation, known) in enumerate(inp["requests"]):
        label = " ".join(argv)
        out = ops.op(label, _request, argv, mode, index,
                     check=_check_request(ops, argv, expectation), known_defect=known)
        if out is None:
            continue
        code, stdout, stderr, stats = out
        if not _exit_contract_ok(code, stdout, stderr):
            ops.contract_failures += 1
        if stats is not None:
            with open(stats, encoding="utf-8") as fh:
                ops.cli_stats.append(json.load(fh))
            os.remove(stats)


def _check_request(ops, argv, expectation):
    from flagorbits import root_datum, weyl

    def check(result):
        code, out, err, _ = result
        expect(_exit_contract_ok(code, out, err), f"exit contract broken: code {code}, stderr {err[-200:]!r}")
        kind = expectation[0]
        if kind == "digest":
            ops.digest("cli_mix/" + " ".join(argv), f"{code}\n{out}\n{err}")
        elif kind == "error":
            expect(code == 1, f"expected exit 1, got {code}")
        elif kind == "order":
            _, name, left, right = expectation
            datum = root_datum.build_root_datum(name)
            u, v = weyl.from_word(datum, left), weyl.from_word(datum, right)
            below, above = weyl.bruhat_leq_subword(u, v), weyl.bruhat_leq_subword(v, u)
            want = "equal" if below and above else "leq" if below else "geq" if above else "incomparable"
            expect((code, out) == (0, want + "\n"), f"order gave {out!r}, oracle says {want}")
        elif kind == "reduce":
            _, name, word = expectation
            datum = root_datum.build_root_datum(name)
            expect(code == 0, f"exit {code}")
            got = weyl.parse_word(datum, out)
            expect(weyl.is_reduced(datum, got), f"{got} is not reduced")
            expect(weyl.from_word(datum, got) == weyl.from_word(datum, word), f"{got} is another element")
    return check


# --- one repetition ---------------------------------------------------------------------

SETUP = {"weyl_enum": setup_weyl_enum, "closure_order": setup_closure_order,
         "symmetric_pairs": setup_symmetric_pairs, "cli_mix": setup_cli_mix}
RUN = {"weyl_enum": run_weyl_enum, "closure_order": run_closure_order,
       "symmetric_pairs": run_symmetric_pairs, "cli_mix": run_cli_mix}


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def repetition(workload, seed, mode, smoke, record, launch_ns):
    import flagorbits  # noqa: F401  (set-up includes the package import)

    from layertrace import Tracer, merge, write_spans

    tracer = None
    if mode in ("spans", "memory") and workload != "cli_mix":
        tracer = Tracer(memory=(mode == "memory"))
        tracer.install()
    inputs = SETUP[workload](random.Random(seed), smoke, mode, record)
    digests = {} if record and not os.path.exists(DIGESTS) else load_digests()
    setup_s = (time.monotonic_ns() - launch_ns) / 1e9

    # The traced modes report no normalised times, so they do not probe.
    probing = None if mode in ("spans", "memory") else "between" if workload == "cli_mix" else "timer"
    setup_probes = [end - start for start, end in
                    (timed_probe(probe_launch) for _ in range(SETUP_PROBES if probing else 0))]
    if mode == "setup":
        return {"setup_s": setup_s, "setup_probes_ms": [d / 1e6 for d in setup_probes]}
    ops = Ops(digests, record, probing)
    ops.start_probing()
    run_start = time.perf_counter_ns()
    RUN[workload](ops, inputs)
    ops.stop_probing()
    wall_s = (time.perf_counter_ns() - run_start - ops.probe_ns) / 1e9

    result = {"setup_s": setup_s, "wall_s": wall_s, "setup_probes_ms": [d / 1e6 for d in setup_probes],
              "probe_ref_ms": LAUNCH_REF_MS if probing == "between" else KERNEL_REF_MS}
    if tracer is not None:
        tracer.uninstall()
        result["raw"] = tracer.snapshot()
        if mode == "spans":
            os.makedirs(WORK_DIR, exist_ok=True)
            write_spans(os.path.join(WORK_DIR, f"spans-{workload}.jsonl"), tracer.span_records())
    if workload == "cli_mix":
        result["cli"] = {"exit_contract_failures": ops.contract_failures}
        if mode != "plain":
            result["raw"] = merge([s["snapshot"] for s in ops.cli_stats])
            result["cli"]["import_s"] = statistics.median(s["import_s"] for s in ops.cli_stats)
            if mode == "spans":
                write_spans(os.path.join(WORK_DIR, f"spans-{workload}.jsonl"),
                            [dict(span, request=i) for i, s in enumerate(ops.cli_stats) for span in s["spans"]])
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    else:
        usage = resource.getrusage(resource.RUSAGE_SELF)
    result["peak_rss_kib"] = usage.ru_maxrss

    start = time.perf_counter_ns()
    ops.verify()
    result["check_s"] = (time.perf_counter_ns() - start) / 1e9
    if record:
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            json.dump(dict(sorted(digests.items())), fh, indent=1)
            fh.write("\n")
    result.update(latencies_ms=[ns / 1e6 for ns in ops.latencies_ns],
                  starts_ms=[(ns - run_start) / 1e6 for ns in ops.starts_ns],
                  probes_ms=[((t - run_start) / 1e6, d / 1e6) for t, d in ops.probes], attempted=ops.attempted,
                  failed=ops.failed, known_failed=ops.known_failed, unexpected=ops.unexpected)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launch-ns", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "setup", "spans", "memory"), default="plain",
                        help="setup: stop after set-up and report its time only")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    result = repetition(args.workload, args.seed, args.mode, args.smoke, args.record, args.launch_ns)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
