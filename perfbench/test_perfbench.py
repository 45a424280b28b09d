"""Self-test of the benchmark: ``python3 -m pytest perfbench -q``.

Tiny-scale runs must emit every metric ``BENCHMARK.json`` declares,
with its unit and direction, and report no failed operation; a
perturbed pinned summary must count as a failed operation; a directory
without the simulator's source must exit non-zero without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = "0.002"

sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from checks import fingerprint, replay_problems  # noqa: E402
from run import run_untraced  # noqa: E402
from workloads import POLICIES, WORKLOADS, replay, set_up  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_declared_metric(workload, trace):
    out = _run("--workload", workload, "--seed", "7", "--seconds", "0",
               "--trace", trace, "--scale", TINY)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    table = "\n".join(lines[:-1])
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert f"{m['unit']}" in table and f"{m['better']} is better" in table
    assert f"seed 7" in lines[0] and f"scale {float(TINY):g}" in lines[0]


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_perturbed_pinned_summary_is_a_failed_operation():
    w = WORKLOADS["read-hot"]
    setup = set_up(w, 7, float(TINY))
    pinned = {p: fingerprint(replay(setup, p)) for p in POLICIES}
    assert run_untraced(setup, 0.0, pinned)["failed"] == 0

    doc = json.loads(pinned["vbbms"])
    doc["summary"]["hit_ratio"] += 1e-9
    pinned["vbbms"] = json.dumps(doc, sort_keys=True)
    run = run_untraced(setup, 0.0, pinned)
    assert run["attempted"] == len(POLICIES)
    assert run["failed"] == 1
    assert "req_per_s" not in run["metrics"]
    assert any("expected.json" in p for p in run["problems"])


def test_conservation_laws_catch_a_lost_flush():
    setup = set_up(WORKLOADS["write-gc"], 7, float(TINY))
    metrics = replay(setup, "lru")
    assert replay_problems(metrics, setup, "lru", None, {}) == []
    metrics.host_flush_pages -= 1
    assert any("flash programs" in p for p in replay_problems(metrics, setup, "lru", None, {}))


def test_without_simulator_source_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _run("--workload", "read-hot", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
