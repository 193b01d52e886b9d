"""flagorbits benchmark: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root.  Workloads: weyl_enum, closure_order,
symmetric_pairs, cli_mix (see README.md in this directory for why each
exists).  Load shape: a closed loop, one client, one process at a time.

--trace 0 repeats the workload, each repetition in a fresh interpreter (the
package's caches make a warm repeat measure the caches), at least twice
and until the next repetition would pass --seconds, then launches it
SETUP_LAUNCHES more times for set-up only.  Times are reported at the
reference host speed: each measured time is scaled by a fixed probe job's
reference duration over its median duration around that time (see
workloads.probe_kernel and workloads.probe_launch), which takes out much of
the swings in speed of a shared host.  setup_s (over all launches), wall_s and peak_rss_mib are
medians over the repetitions; every operation's latency is its median over
them, and op_p50_ms and op_p90_ms come from those latencies; ok_frac counts
every operation of every repetition.

--trace 1 runs the workload three times, plain, with spans and with
tracemalloc, and reports the per-layer metrics of layertrace.py plus
trace.overhead_ratio (traced wall_s over plain wall_s).

--smoke shrinks every workload to A2/B2-sized inputs and rank-one fixtures,
for the benchmark's own tests.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layertrace import layer_metrics  # noqa: E402
from workloads import LAUNCH_REF_MS, WORKLOAD_NAMES  # noqa: E402

MIN_REPS = 2  # each operation's latency is its median of at least this many
SETUP_LAUNCHES = 5  # extra launches that only set up, for a steadier setup_s
PROBE_WINDOW_MS = 500  # an operation's host speed: probes this close to it
HARD_STOP_S = 140  # never start a repetition after this, whatever --seconds says
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def _child(workload, seed, mode, smoke):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), workload, "--seed", str(seed),
           "--mode", mode, "--launch-ns", str(time.monotonic_ns())]
    if smoke:
        cmd.append("--smoke")
    # Its own process group, so that a timeout also ends the CLI requests it runs.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} ({mode}) did not finish in {CHILD_TIMEOUT_S} s") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} ({mode}) exited {proc.returncode}: {err[-2000:]}")
    return json.loads(lines[-1])


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _normalised(rep):
    """The repetition's set-up time and operation latencies at the reference
    host speed, each scaled by the median probe duration around it."""
    times = [t for t, _ in rep["probes_ms"]]
    durations = [d for _, d in rep["probes_ms"]]
    latencies = []
    for start, latency in zip(rep["starts_ms"], rep["latencies_ms"]):
        lo = bisect.bisect_left(times, start - PROBE_WINDOW_MS)
        hi = bisect.bisect_right(times, start + latency + PROBE_WINDOW_MS)
        latencies.append(latency * rep["probe_ref_ms"] / statistics.median(durations[lo:hi]))
    return _normalised_setup(rep), latencies


def _normalised_setup(rep):
    return rep["setup_s"] * LAUNCH_REF_MS / statistics.median(rep["setup_probes_ms"])


def _counts(reps):
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    unexpected = [msg for r in reps for msg in r["unexpected"]]
    return attempted, failed, unexpected


def end_to_end(workload, seed, seconds, smoke):
    start = time.monotonic()
    reps, longest = [], 0.0
    while True:
        began = time.monotonic()
        reps.append(_child(workload, seed, "plain", smoke))
        longest = max(longest, time.monotonic() - began)
        elapsed = time.monotonic() - start
        if smoke or elapsed + longest > HARD_STOP_S:
            break
        if elapsed + longest > seconds and len(reps) >= MIN_REPS:
            break
    setups, latencies = zip(*(_normalised(r) for r in reps))
    setups += tuple(_normalised_setup(_child(workload, seed, "setup", smoke))
                    for _ in range(0 if smoke else SETUP_LAUNCHES))
    # Same seed, same operation list: operation i is the same call in every
    # repetition, so its latency is its median over the repetitions.
    per_op = [statistics.median(column) for column in zip(*latencies)]
    attempted, failed, unexpected = _counts(reps)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(sum(rep) for rep in latencies) / 1000, "s"),
        "op_p50_ms": (_percentile(per_op, 0.5), "ms"),
        "op_p90_ms": (_percentile(per_op, 0.9), "ms"),
        "peak_rss_mib": (statistics.median(r["peak_rss_kib"] for r in reps) / 1024, "MiB"),
        "ok_frac": (1 - failed / attempted, "ratio"),
    }
    median_wall = statistics.median(r["wall_s"] for r in reps)
    median_setup = statistics.median(r["setup_s"] for r in reps)
    median_probe = statistics.median(d for r in reps for _, d in r["probes_ms"])
    median_check = statistics.median(r["check_s"] for r in reps)
    info = (f"repetitions={len(reps)} op_samples={len(per_op)} measured_wall_s={median_wall:.3f} "
            f"measured_setup_s={median_setup:.4f} probe_ms={median_probe:.3f} "
            f"median_check_s={median_check:.3f} "
            f"known_defect_failures={sum(r['known_failed'] for r in reps)}")
    return metrics, attempted, failed, unexpected, info


def traced(workload, seed, smoke):
    plain = _child(workload, seed, "plain", smoke)
    spans = _child(workload, seed, "spans", smoke)
    memory = _child(workload, seed, "memory", smoke)
    metrics = layer_metrics(spans["raw"], memory["raw"])
    cli = spans.get("cli", {})
    metrics["cli.import_s"] = (cli.get("import_s", 0.0), "s")
    metrics["cli.exit_contract_failures"] = (cli.get("exit_contract_failures", 0), "count")
    metrics["trace.overhead_ratio"] = (spans["wall_s"] / plain["wall_s"], "ratio")
    attempted, failed, unexpected = _counts([plain, spans, memory])
    info = f"plain_wall_s={plain['wall_s']:.3f} traced_wall_s={spans['wall_s']:.3f}"
    return metrics, attempted, failed, unexpected, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    args = parser.parse_args(argv)

    if not (os.path.isfile(os.path.join("src", "flagorbits", "__init__.py"))
            and os.path.isdir("fixtures")):
        print("error: run from a flagorbits checkout (src/flagorbits and fixtures/ are missing)",
              file=sys.stderr)
        return 2
    # The "build": byte-compile once so no repetition pays for compilation.
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", HERE], check=True,
                   stdout=subprocess.DEVNULL)
    try:
        if args.trace:
            metrics, attempted, failed, unexpected, info = traced(args.workload, args.seed, args.smoke)
        else:
            metrics, attempted, failed, unexpected, info = end_to_end(
                args.workload, args.seed, args.seconds, args.smoke)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for msg in unexpected:
        print(f"wrong: {msg}", file=sys.stderr)
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} {info}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
