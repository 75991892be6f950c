"""Tests of the benchmark itself: every workload runs briefly and prints every metric.

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from run import tail  # noqa: E402
from worker import timed_loop  # noqa: E402


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_prints_every_metric(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    printed = {line.split()[0] for line in proc.stdout.splitlines()[1:-1]}
    assert printed == {m["name"] for m in expected}
    if trace:
        # the layers' self times cannot exceed the traced operations' time
        assert 0.5 < result["metrics"]["trace.self_share"]["value"] <= 1.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_has_ten_samples_beyond():
    latencies = [float(v) for v in range(100)]
    pct, value = tail(latencies)
    assert value == 89.0
    assert sum(v > value for v in latencies) == 10
    assert pct == 90.0
    assert tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


class Pool:
    """A stand-in workload: every operation checks clean."""

    def __init__(self, inputs):
        self.inputs = inputs

    def op(self, i):
        return i

    def check(self, i, result):
        return 0.0


def test_loop_runs_whole_passes_only():
    out = timed_loop(Pool(["a", "b", "c"]), 0.0, None, [], [])
    assert out["attempted"] == 3
    assert len(out["samples_ms"]) == len(out["samples_ref"]) == len(out["ref_ms"]) == 3
    for ms, ref, kernel in zip(out["samples_ms"], out["samples_ref"], out["ref_ms"]):
        assert kernel > 0.0 and ref == ms / kernel
    assert timed_loop(Pool(["a"]), 0.0, None, [], [])["attempted"] == 1


def test_deep_march_checks_the_programs_phi(tmp_path):
    d = workloads.DEEP
    reference = workloads.DeepMarch.reference(1)
    workloads.DeepMarch(1, tmp_path, reference)
    phi = list(reference[0])
    phi[2] *= 1.0 + 1e-9
    with pytest.raises(ValueError, match=r"phi\[2\]"):
        workloads.DeepMarch(1, tmp_path, [phi, *reference[1:]])
    assert len(reference[1]) == d["nt"]
