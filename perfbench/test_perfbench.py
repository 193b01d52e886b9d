"""Smoke tests for the benchmark itself: schema, metric names and the
correctness digests on tiny inputs.  Timings are never checked.

    python -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import DIGESTS, SYMMETRIC, WORKLOAD_NAMES, levi_choices  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_schema_and_correctness(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1
    # Only the recorded missing-label defect may fail (once per pass).
    passes = 3 if trace else 1
    assert result["failed"] == (passes if workload == "cli_mix" else 0)
    spec = _spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_every_seeded_levi_choice_has_a_digest():
    with open(DIGESTS, encoding="utf-8") as fh:
        digests = json.load(fh)
    for cfg in SYMMETRIC.values():
        name = cfg["levi_type"]
        rank = int(name[1:])
        for levi in (levi for pair in levi_choices(rank) for levi in pair):
            key = f"symmetric_pairs/distinct_ascents/{name} levi {','.join(map(str, levi))}"
            assert key in digests


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("weyl_enum", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
