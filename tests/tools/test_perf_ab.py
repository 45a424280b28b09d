"""Tests for the parent/change A/B runner (tools/perf_ab.py).

An injected runner returns scripted results in place of running
``perfbench/run.py``, so the cases pin the runner's contract directly:
the alternating order, the statistics, both verdicts and the exit code
of a failing run.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

_SPEC = importlib.util.spec_from_file_location("perf_ab", REPO / "tools" / "perf_ab.py")
perf_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_ab)

SPEC = {
    "command": ["python3", "perfbench/run.py"],
    "run_seconds": 35,
    "end_to_end": [
        {"name": "req_per_s", "unit": "req/s", "better": "higher", "bound": 0.2},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
}


def result(req_per_s=None, setup_s=None, correct=True, failed=0):
    metrics = {}
    if req_per_s is not None:
        metrics["req_per_s"] = {"value": req_per_s, "unit": "req/s"}
    if setup_s is not None:
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    return {"correct": correct, "attempted": 4, "failed": failed, "metrics": metrics}


class Scripted:
    """Runner returning each side's results in call order."""

    def __init__(self, parent_dir, parent, change):
        self.parent_dir = parent_dir
        self.queues = {"parent": list(parent), "change": list(change)}
        self.calls = []

    def __call__(self, checkout, argv):
        side = "parent" if checkout == self.parent_dir else "change"
        self.calls.append((side, argv))
        return self.queues[side].pop(0)


def run(tmp_path, parent, change, *extra):
    parent_dir, change_dir = tmp_path / "parent", tmp_path / "change"
    parent_dir.mkdir()
    change_dir.mkdir()
    (change_dir / "BENCHMARK.json").write_text(json.dumps(SPEC))
    runner = Scripted(parent_dir, parent, change)
    argv = ["--parent", str(parent_dir), "--change", str(change_dir),
            "--workload", "read-hot", "--pairs", str(len(parent)), *extra]
    return perf_ab.main(argv, runner=runner), runner


def rows(parent, change, metric=0):
    pairs = list(zip(parent, change))
    return perf_ab.compare_metric(SPEC["end_to_end"][metric], pairs)


def test_sides_alternate_and_command_is_built(tmp_path):
    parent = [result(100.0, 1.0)] * 4
    change = [result(110.0, 0.9)] * 4
    code, runner = run(tmp_path, parent, change, "--seconds", "2", "--seed", "9001")
    assert code == 0
    order = [side for side, _argv in runner.calls]
    assert order == ["parent", "change", "change", "parent"] * 2
    assert runner.calls[0][1] == [
        "python3", "perfbench/run.py", "--workload", "read-hot",
        "--seconds", "2", "--trace", "0", "--seed", "9001",
    ]


def test_default_seconds_from_spec(tmp_path):
    _code, runner = run(tmp_path, [result(1.0, 1.0)], [result(1.0, 1.0)])
    argv = runner.calls[0][1]
    assert argv[argv.index("--seconds") + 1] == "35"
    assert "--seed" not in argv


def test_quartiles_interpolate():
    assert perf_ab.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
    assert perf_ab.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_statistics_wins_and_ties():
    parent = [result(v) for v in (100.0, 100.0, 104.0, 96.0, 100.0)]
    change = [result(v) for v in (120.0, 100.0, 90.0, 130.0, 110.0)]
    row = rows(parent, change)
    assert row["parent"] == (100.0, 100.0, 100.0)
    assert row["change"] == (100.0, 110.0, 120.0)
    assert row["ratio"] == pytest.approx(1.1)
    # Pair 1 is a tie (neither side), pair 2 a loss.
    assert row["wins"] == 3 and row["pairs"] == 5


def test_lower_is_better_direction():
    parent = [result(setup_s=v) for v in (1.0, 1.1, 0.9, 1.0)]
    change = [result(setup_s=v) for v in (0.8, 0.8, 0.7, 0.9)]
    row = rows(parent, change, metric=1)
    assert row["wins"] == 4
    assert row["claim"] is True
    assert row["bound"] == "ok"


def test_claim_needs_nine_tenths_of_pairs():
    parent = [result(100.0)] * 10
    change = [result(120.0)] * 9 + [result(90.0)]
    assert rows(parent, change)["claim"] is True
    change = [result(120.0)] * 8 + [result(90.0)] * 2
    assert rows(parent, change)["claim"] is False


def test_claim_needs_gap_beyond_parent_iqr():
    # The change wins every pair, but by less than the parent's spread.
    parent = [result(v) for v in (90.0, 110.0, 95.0, 105.0)]
    change = [result(v + 1.0) for v in (90.0, 110.0, 95.0, 105.0)]
    row = rows(parent, change)
    assert row["wins"] == 4
    assert row["claim"] is False


def test_bound_regression_and_ok():
    parent = [result(100.0)] * 4
    assert rows(parent, [result(81.0)] * 4)["bound"] == "ok"
    assert rows(parent, [result(79.0)] * 4)["bound"] == "REGRESSION"
    setup = [result(setup_s=1.0)] * 4
    assert rows(setup, [result(setup_s=1.3)] * 4, metric=1)["bound"] == "REGRESSION"


def test_bound_unresolved_when_parent_spread_exceeds_it():
    parent = [result(v) for v in (50.0, 100.0, 150.0, 100.0)]  # IQR/median 0.25
    row = rows(parent, [result(95.0)] * 4)
    assert row["bound"] == "unresolved"
    # Unless every change run beats every parent run.
    assert rows(parent, [result(160.0)] * 4)["bound"] == "ok"


def test_failed_operations_exit_1(tmp_path, capsys):
    parent = [result(100.0, 1.0)] * 2
    change = [result(110.0, 0.9), result(110.0, 0.9, failed=1)]
    code, _runner = run(tmp_path, parent, change)
    assert code == 1
    assert "runs not correct or with failed operations: pair 1 change" in (
        capsys.readouterr().out
    )


def test_incorrect_run_exits_1(tmp_path):
    parent = [result(100.0, 1.0, correct=False)]
    code, _runner = run(tmp_path, parent, [result(100.0, 1.0)])
    assert code == 1


def test_report_prints_every_metric(tmp_path, capsys):
    code, _runner = run(tmp_path, [result(100.0, 1.0)] * 2, [result(150.0, 0.5)] * 2)
    out = capsys.readouterr().out
    assert code == 0
    lines = {line.split()[0]: line for line in out.splitlines() if line.strip()}
    assert "1.500" in lines["req_per_s"] and lines["req_per_s"].endswith("ok")
    assert "0.500" in lines["setup_s"]


def test_run_checkout_parses_last_json_line(tmp_path):
    script = tmp_path / "bench.py"
    script.write_text(
        "import json\nprint('workload x')\n"
        "print(json.dumps({'correct': True, 'failed': 0, 'metrics': {}}))\n"
    )
    got = perf_ab.run_checkout(tmp_path, ["python3", "bench.py"])
    assert got == {"correct": True, "failed": 0, "metrics": {}}
    script.write_text("import sys\nprint('no json')\nsys.exit(3)\n")
    got = perf_ab.run_checkout(tmp_path, ["python3", "bench.py"])
    assert got["correct"] is False and "exit 3" in got["error"]


def test_several_workloads_run_in_turn(tmp_path, capsys):
    """``--workload a b`` runs a's pairs, then b's, prints one table per
    workload and exits 1 when a run of either is not correct."""
    parent_dir, change_dir = tmp_path / "parent", tmp_path / "change"
    parent_dir.mkdir()
    change_dir.mkdir()
    (change_dir / "BENCHMARK.json").write_text(json.dumps(SPEC))
    parent = [result(100.0, 1.0)] * 4
    change = [result(120.0, 0.9)] * 2 + [result(80.0, 1.1), result(80.0, 1.1, failed=1)]
    runner = Scripted(parent_dir, parent, change)
    argv = ["--parent", str(parent_dir), "--change", str(change_dir),
            "--workload", "write-gc", "read-hot", "--pairs", "2"]
    assert perf_ab.main(argv, runner=runner) == 1
    workloads = [a[a.index("--workload") + 1] for _side, a in runner.calls]
    assert workloads == ["write-gc"] * 4 + ["read-hot"] * 4
    out = capsys.readouterr().out
    first, second = out.split("\nworkload read-hot\n")
    assert "\nworkload write-gc\n" in first and "FAIL" not in first
    rows = {
        line.split()[0]: line for line in second.splitlines() if line.strip()
    }
    assert "1.200" in first and "0.800" in rows["req_per_s"]
    assert "runs not correct or with failed operations: pair 1 change" in second


def test_one_good_workload_exits_0(tmp_path):
    code, runner = run(tmp_path, [result(100.0, 1.0)] * 2, [result(100.0, 1.0)] * 2)
    assert code == 0
    assert len(runner.calls) == 4
