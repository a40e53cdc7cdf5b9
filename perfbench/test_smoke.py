"""Smoke run of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric the benchmark emits is declared in BENCHMARK.json
(and every declared one is emitted), that the result line has the agreed
shape, that a pair built with the wrong expected verdict is counted as
failed, and that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import run

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"] for m in DECLARED["per_layer"]}


@pytest.fixture
def tiny(monkeypatch):
    """Oracle with three samples, scale with k = 2 and 3 only."""
    monkeypatch.setattr(run, "ORACLE_SAMPLES", 3)
    full = gen.scale_pairs
    monkeypatch.setattr(gen, "scale_pairs", lambda rng: [p for p in full(rng) if p[0] <= 3])
    monkeypatch.setattr(run.Decide, "round_size", 10)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_emitted_name_is_declared(tiny, workload, trace):
    result = run.run_workload(workload, seed=3, seconds=0.01, trace=trace)
    assert result["correct"], result["record"]
    assert result["failed"] == 0
    emitted = set(result["metrics"])
    assert emitted == (PER_LAYER if trace else END_TO_END)
    units = {m["name"]: m["unit"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}
    assert all(unit == units[name] for name, (_, unit) in result["metrics"].items())


def test_declared_workloads_exist():
    assert {w["name"] for w in DECLARED["workloads"]} <= set(run.WORKLOADS)


def test_wrong_expected_verdict_raises_fail_frac(tiny):
    pp = run.import_probproc()
    workload = run.Decide(seed=5)
    items = workload.next_round()
    flipped = [(left, right, not expect) for left, right, expect in items[:1]] + items[1:]
    result = run.Run()
    run.measure(pp, workload, [flipped], result)
    assert (result.attempted, result.failed) == (len(items), 1)
    assert "built" in result.errors[0]


def test_result_line_shape():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decide", "--seed", "2",
         "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] >= 1 and last["failed"] == 0
    assert all(m["value"] > 0 for m in last["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_seed_fixes_the_inputs():
    assert gen.decide_pair(random.Random(9)) == gen.decide_pair(random.Random(9))
    assert gen.scale_pairs(random.Random(9)) == gen.scale_pairs(random.Random(9))
