#!/usr/bin/env python3
"""Gate CI on replay-throughput regressions against a committed baseline.

Compares a freshly produced ``BENCH_<date>.json`` (written by
``benchmarks/test_baseline.py``) against the newest committed baseline
and fails when any per-policy ``req/s`` figure dropped by more than the
tolerance.

Throughput is machine-dependent: the committed baseline was recorded on
a developer machine, CI runs on whatever runner the platform hands out,
and both jitter run-to-run.  The default tolerance of 25% is therefore
deliberately loose — it will not catch a 10% slowdown, but it reliably
catches the failure mode this gate exists for: an accidental revert of
the fast-path optimisations (which are each worth 1.4-1.8x, i.e. a
30-45% drop when lost).  Tighten ``--tolerance`` only if baseline and
fresh run come from the same machine class.

When both files record ``trace_generate_s`` (trace synthesis time),
its fresh/baseline ratio is printed for the record; it never fails the
check.

Exit codes: 0 = within tolerance, 1 = regression (or malformed/missing
policy data), 2 = no baseline found / unreadable input.

Usage:
    python tools/check_bench.py --baseline benchmarks/results \
        --fresh fresh/BENCH_2026-08-06.json [--tolerance 0.25]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

#: JSON sections holding per-policy requests/s (higher is better).
THROUGHPUT_SECTIONS = ("replay_req_per_s", "cache_only_req_per_s")


def find_baseline(path: Path) -> Optional[Path]:
    """Resolve the baseline file: the path itself, or the newest
    ``BENCH_*.json`` (by filename, which sorts by date) in a directory."""
    if path.is_file():
        return path
    if path.is_dir():
        candidates = sorted(path.glob("BENCH_*.json"))
        if candidates:
            return candidates[-1]
    return None


def load(path: Path) -> Dict:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"check_bench: cannot read {path}: {exc}")


def compare(baseline: Dict, fresh: Dict, tolerance: float) -> List[str]:
    """Return a list of failure messages (empty = pass), printing a
    comparison table as a side effect."""
    failures: List[str] = []
    if baseline.get("scale") != fresh.get("scale"):
        print(
            f"note: scale differs (baseline {baseline.get('scale')}, "
            f"fresh {fresh.get('scale')}) — req/s is load-normalised, "
            "so the comparison stays meaningful but less precise"
        )
    header = f"{'section':<22} {'policy':<10} {'baseline':>10} {'fresh':>10} {'ratio':>7}"
    print(header)
    print("-" * len(header))
    for section in THROUGHPUT_SECTIONS:
        base_sec = baseline.get(section)
        fresh_sec = fresh.get(section)
        if not isinstance(base_sec, dict):
            continue  # baseline predates this section: nothing to gate
        if not isinstance(fresh_sec, dict):
            failures.append(f"fresh result is missing section {section!r}")
            continue
        for policy, base_val in sorted(base_sec.items()):
            fresh_val = fresh_sec.get(policy)
            if not isinstance(fresh_val, (int, float)) or fresh_val <= 0:
                failures.append(f"{section}/{policy}: missing from fresh result")
                continue
            ratio = fresh_val / base_val if base_val else float("inf")
            flag = ""
            if base_val and ratio < 1.0 - tolerance:
                flag = "  << REGRESSION"
                failures.append(
                    f"{section}/{policy}: {fresh_val:.1f} req/s is "
                    f"{(1.0 - ratio) * 100:.1f}% below baseline "
                    f"{base_val:.1f} (tolerance {tolerance * 100:.0f}%)"
                )
            print(
                f"{section:<22} {policy:<10} {base_val:>10.1f} "
                f"{fresh_val:>10.1f} {ratio:>6.2f}x{flag}"
            )
    return failures


def report_generate_time(baseline: Dict, fresh: Dict) -> None:
    """Print the synthesis-time ratio when both results carry it."""
    base_val = baseline.get("trace_generate_s")
    fresh_val = fresh.get("trace_generate_s")
    if not all(isinstance(v, (int, float)) and v > 0 for v in (base_val, fresh_val)):
        return
    print(
        f"trace_generate_s: baseline {base_val:.4f} s, fresh {fresh_val:.4f} s, "
        f"{fresh_val / base_val:.2f}x (information only, not gated)"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path("benchmarks/results"),
        help="baseline BENCH_*.json, or a directory to take the newest from",
    )
    parser.add_argument(
        "--fresh",
        type=Path,
        required=True,
        help="freshly generated BENCH_*.json to check",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional drop in req/s before failing (default 0.25)",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.tolerance < 1.0:
        parser.error("--tolerance must be in [0, 1)")

    if not args.fresh.is_file():
        print(f"check_bench: fresh result {args.fresh} not found")
        return 2
    fresh = load(args.fresh)
    baseline_path = find_baseline(args.baseline)
    if baseline_path is None:
        print(f"check_bench: no BENCH_*.json baseline under {args.baseline}")
        return 2

    print(f"baseline: {baseline_path}")
    print(f"fresh:    {args.fresh}")
    baseline = load(baseline_path)
    failures = compare(baseline, fresh, args.tolerance)
    report_generate_time(baseline, fresh)
    if failures:
        print("\nFAIL:")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"\nOK: all policies within {args.tolerance * 100:.0f}% of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
