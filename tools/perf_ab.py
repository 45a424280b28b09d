#!/usr/bin/env python3
"""Alternating parent/change A/B of the layered benchmark.

Runs ``perfbench/run.py --trace 0`` (the command in ``BENCHMARK.json``)
in two checkouts, ``--pairs`` times each, for each ``--workload`` in
turn.  The parent runs first in even pairs and the change runs first in
odd pairs, so drift in the host's speed falls on both sides alike.
Each run's last stdout line is its JSON result.

For every end-to-end metric of ``BENCHMARK.json`` it prints, in one
table per workload, each side's median and quartiles, the
change/parent ratio of the medians, and the pairs the change won (in
the metric's ``better`` direction; ties count for neither side).  Two
verdicts follow:

* **claim** -- ``yes`` when the change won at least 90% of the pairs
  and its median beats the parent's by more than the parent's
  interquartile range;
* **bound** -- ``ok`` when the change's median is no worse than the
  parent's by more than the metric's ``bound``, ``REGRESSION`` when it
  is, and ``unresolved`` when the parent's own spread (its IQR over
  its median) exceeds the bound and not every change run beats every
  parent run.

Exit codes: 0 = every run was correct, 1 = some run of some workload
was not ``correct`` or had failed operations (its metrics are still
reported).

Usage (from the change's checkout, with the parent checked out beside
it)::

    python3 tools/perf_ab.py --parent ../parent --change . \\
        --workload write-gc read-hot shard-cache-only --pairs 10 \\
        [--seconds 35] [--seed 9001]
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: ``runner(checkout, argv) -> result``: runs ``argv`` in ``checkout``
#: and returns the run's JSON result (``correct``, ``failed``,
#: ``metrics``).
Runner = Callable[[Path, List[str]], dict]

#: Share of pairs the change must win for a claim.
CLAIM_WIN_SHARE = 0.9


def run_checkout(checkout: Path, argv: List[str]) -> dict:
    """Run ``argv`` in ``checkout``; its last stdout line as JSON.

    A run that exits non-zero or prints no JSON result is reported as
    not correct.
    """
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"correct": False, "failed": 0, "metrics": {},
                "error": f"exit {proc.returncode}, no JSON result: {tail[0]}"}
    if proc.returncode != 0:
        result["correct"] = False
        result["error"] = f"exit {proc.returncode}"
    return result


def run_pairs(
    parent: Path, change: Path, argv: List[str], pairs: int, runner: Runner
) -> List[Tuple[dict, dict]]:
    """``(parent_result, change_result)`` per pair, alternating order."""
    results = []
    for k in range(pairs):
        order = [("parent", parent), ("change", change)]
        if k % 2:
            order.reverse()
        got: Dict[str, dict] = {}
        for side, checkout in order:
            got[side] = result = runner(checkout, argv)
            print(f"pair {k} {side}: {_run_line(result)}", flush=True)
        results.append((got["parent"], got["change"]))
    return results


def _run_line(result: dict) -> str:
    status = "correct" if run_ok(result) else "NOT CORRECT"
    value = _value(result, "req_per_s")
    shown = f"req_per_s {value:.6g}" if value is not None else "no req_per_s"
    error = f" ({result['error']})" if result.get("error") else ""
    return f"{status}, failed {result.get('failed')}, {shown}{error}"


def run_ok(result: dict) -> bool:
    """Whether a run is ``correct`` with zero failed operations."""
    return result.get("correct") is True and result.get("failed") == 0


def _value(result: dict, name: str) -> Optional[float]:
    entry = result.get("metrics", {}).get(name)
    return None if entry is None else float(entry["value"])


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` with linear interpolation between ranks."""
    data = sorted(values)

    def at(q: float) -> float:
        pos = (len(data) - 1) * q
        lo, hi = math.floor(pos), math.ceil(pos)
        return data[lo] + (data[hi] - data[lo]) * (pos - lo)

    return at(0.25), median(data), at(0.75)


def compare_metric(
    metric: dict, pairs: List[Tuple[dict, dict]]
) -> Optional[dict]:
    """Statistics and verdicts of one ``end_to_end`` metric, or None
    when neither side reported it."""
    name = metric["name"]
    higher = metric["better"] == "higher"
    parent = [v for p, _c in pairs if (v := _value(p, name)) is not None]
    change = [v for _p, c in pairs if (v := _value(c, name)) is not None]
    if not parent or not change:
        return None
    wins = 0
    for p, c in pairs:
        vp, vc = _value(p, name), _value(c, name)
        if vp is not None and vc is not None and vp != vc and (vc > vp) == higher:
            wins += 1
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    p_iqr = p_q3 - p_q1
    gap = c_med - p_med if higher else p_med - c_med
    claim = wins >= CLAIM_WIN_SHARE * len(pairs) and gap > p_iqr
    # How much worse the change's median is, as a share of the parent's.
    worse = -gap / p_med if p_med else 0.0
    spread = p_iqr / p_med if p_med else 0.0
    beats_all = (
        min(change) > max(parent) if higher else max(change) < min(parent)
    )
    if spread > metric["bound"] and not beats_all:
        bound = "unresolved"
    elif worse > metric["bound"]:
        bound = "REGRESSION"
    else:
        bound = "ok"
    return {
        "name": name,
        "unit": metric["unit"],
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "ratio": c_med / p_med if p_med else math.inf,
        "wins": wins,
        "pairs": len(pairs),
        "claim": claim,
        "bound": bound,
    }


def _fmt(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def report(rows: List[dict]) -> None:
    """Print one line per metric: medians [q1, q3], ratio, wins, verdicts."""
    header = (
        f"{'metric':<20} {'unit':<6} {'parent median [q1, q3]':<34} "
        f"{'change median [q1, q3]':<34} {'ratio':>6} {'wins':>6} "
        f"{'claim':<5} bound"
    )
    print(header)
    print("-" * len(header))
    for r in rows:
        print(
            f"{r['name']:<20} {r['unit']:<6} {_fmt(r['parent']):<34} "
            f"{_fmt(r['change']):<34} {r['ratio']:>6.3f} "
            f"{r['wins']:>2}/{r['pairs']:<3} {'yes' if r['claim'] else 'no':<5} "
            f"{r['bound']}"
        )


def main(argv: Optional[List[str]] = None, runner: Runner = run_checkout) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True,
                        help="checkout of the change")
    parser.add_argument("--workload", nargs="+", required=True,
                        help="one or more workloads, run one after another")
    parser.add_argument("--pairs", type=int, required=True,
                        help="alternating pairs per workload")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--seed", type=int, default=None,
                        help="trace seed (default: the workload's calibrated seed)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    failed = False
    for workload in args.workload:
        command = list(spec["command"]) + [
            "--workload", workload, "--seconds", f"{seconds:g}", "--trace", "0",
        ]
        if args.seed is not None:
            command += ["--seed", str(args.seed)]
        print(f"perf_ab: {' '.join(command)}")
        print(f"  parent {args.parent}, change {args.change}, {args.pairs} pairs")

        pairs = run_pairs(args.parent, args.change, command, args.pairs, runner)
        rows = [
            row for m in spec["end_to_end"] if (row := compare_metric(m, pairs))
        ]
        print(f"\nworkload {workload}")
        report(rows)
        bad = [
            f"pair {k} {side}"
            for k, results in enumerate(pairs)
            for side, result in zip(("parent", "change"), results)
            if not run_ok(result)
        ]
        if bad:
            print(f"\nFAIL: runs not correct or with failed operations: {', '.join(bad)}")
            failed = True
        print()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
