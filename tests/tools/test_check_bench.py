"""Tests for the perf-regression gate (tools/check_bench.py).

The CI ``perf`` job relies on this script's exit codes, so the cases
cover the gate's contract directly: a real regression fails, jitter
within the tolerance passes, and a missing baseline is reported as a
setup error (exit 2) rather than a silent pass.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "check_bench",
    Path(__file__).resolve().parents[2] / "tools" / "check_bench.py",
)
check_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_bench)


def _doc(replay, cache_only=None, scale=0.03125):
    return {
        "date": "2026-08-06",
        "scale": scale,
        "replay_req_per_s": replay,
        "cache_only_req_per_s": cache_only or {k: v * 2 for k, v in replay.items()},
    }


def _write(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc))
    return path


def _run(tmp_path, baseline_doc, fresh_doc, tolerance=0.25):
    baseline = _write(tmp_path / "BENCH_2026-08-01.json", baseline_doc)
    fresh = _write(tmp_path / "fresh.json", fresh_doc)
    return check_bench.main(
        ["--baseline", str(baseline), "--fresh", str(fresh), "--tolerance", str(tolerance)]
    )


BASE = {"lru": 60000.0, "bplru": 78000.0, "vbbms": 58000.0, "reqblock": 59000.0}


def test_regression_detected(tmp_path):
    """A 40% drop on one policy (an optimisation revert) must fail."""
    slowed = dict(BASE)
    slowed["reqblock"] = BASE["reqblock"] * 0.6
    rc = _run(tmp_path, _doc(BASE), _doc(slowed))
    assert rc == 1


def test_within_tolerance_passes(tmp_path):
    """Uniform 10% jitter below baseline stays inside the 25% tolerance."""
    jittery = {k: v * 0.9 for k, v in BASE.items()}
    rc = _run(tmp_path, _doc(BASE), _doc(jittery))
    assert rc == 0


def test_improvement_passes(tmp_path):
    rc = _run(tmp_path, _doc(BASE), _doc({k: v * 1.5 for k, v in BASE.items()}))
    assert rc == 0


def test_missing_baseline_is_setup_error(tmp_path):
    """No BENCH_*.json in the baseline dir: exit 2, not a silent pass."""
    fresh = _write(tmp_path / "fresh.json", _doc(BASE))
    rc = check_bench.main(["--baseline", str(tmp_path / "empty"), "--fresh", str(fresh)])
    assert rc == 2


def test_missing_fresh_is_setup_error(tmp_path):
    _write(tmp_path / "BENCH_2026-08-01.json", _doc(BASE))
    rc = check_bench.main(
        ["--baseline", str(tmp_path), "--fresh", str(tmp_path / "nope.json")]
    )
    assert rc == 2


def test_missing_policy_in_fresh_fails(tmp_path):
    """A policy silently dropped from the benchmark must not pass the gate."""
    partial = {k: v for k, v in BASE.items() if k != "vbbms"}
    rc = _run(tmp_path, _doc(BASE), _doc(partial, cache_only={}))
    assert rc == 1


def test_newest_baseline_picked_from_directory(tmp_path):
    """Directory baselines resolve to the newest BENCH_* by date name."""
    _write(tmp_path / "BENCH_2026-01-01.json", _doc({"lru": 1.0}))
    newest = _doc(BASE)
    _write(tmp_path / "BENCH_2026-08-01.json", newest)
    picked = check_bench.find_baseline(tmp_path)
    assert picked is not None and picked.name == "BENCH_2026-08-01.json"
    # The old tiny baseline would fail everything; the newest passes.
    fresh = _write(tmp_path / "fresh.json", _doc(BASE))
    rc = check_bench.main(["--baseline", str(tmp_path), "--fresh", str(fresh)])
    assert rc == 0


def test_tighter_tolerance_catches_smaller_drop(tmp_path):
    jittery = {k: v * 0.9 for k, v in BASE.items()}
    rc = _run(tmp_path, _doc(BASE), _doc(jittery), tolerance=0.05)
    assert rc == 1


def test_bad_tolerance_rejected(tmp_path):
    fresh = _write(tmp_path / "fresh.json", _doc(BASE))
    _write(tmp_path / "BENCH_2026-08-01.json", _doc(BASE))
    with pytest.raises(SystemExit):
        check_bench.main(
            ["--baseline", str(tmp_path), "--fresh", str(fresh), "--tolerance", "1.5"]
        )


def test_generate_time_reported_not_gated(tmp_path, capsys):
    """Synthesis time is printed as a ratio; even a 10x rise passes."""
    base = dict(_doc(BASE), trace_generate_s=0.05)
    fresh = dict(_doc(BASE), trace_generate_s=0.5)
    assert _run(tmp_path, base, fresh) == 0
    out = capsys.readouterr().out
    assert "trace_generate_s: baseline 0.0500 s, fresh 0.5000 s, 10.00x" in out
    assert "not gated" in out


@pytest.mark.parametrize("side", ["baseline", "fresh", "both"])
def test_generate_time_absent_prints_nothing(tmp_path, capsys, side):
    """Older BENCH files lack the field: no line, same verdict."""
    timed = dict(_doc(BASE), trace_generate_s=0.05)
    base = _doc(BASE) if side in ("baseline", "both") else timed
    fresh = _doc(BASE) if side in ("fresh", "both") else timed
    assert _run(tmp_path, base, fresh) == 0
    assert "trace_generate_s" not in capsys.readouterr().out


def test_generate_time_does_not_mask_a_regression(tmp_path):
    slowed = {k: v * 0.6 for k, v in BASE.items()}
    base = dict(_doc(BASE), trace_generate_s=0.05)
    fresh = dict(_doc(slowed), trace_generate_s=0.01)
    assert _run(tmp_path, base, fresh) == 1
