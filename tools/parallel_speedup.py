#!/usr/bin/env python
"""Serial-vs-parallel wall-clock comparison for the figure grids.

Regenerates the Fig. 8 (response time) and Fig. 9 (hit ratio) grids
twice — once inline (``processes=1``) and once through the sharded
engine at the requested job count — and reports the wall-clock times
and speedups.  The nightly workflow runs this at 2x scale and keeps the
report in its artifact; run it locally to record the speedup number for
a PR description:

    PYTHONPATH=src python tools/parallel_speedup.py --scale 0.015625

All six paper workloads are pre-generated (and memoised) before either
timing pass so the serial pass does not get a cold-trace handicap and
the parallel pass is charged for its real worker-side regeneration
cost.  The replayed results are identical in both passes (the
equivalence suite pins this); only the wall clock differs.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.experiments import fig8_response_time, fig9_hit_ratio
from repro.experiments.common import ExperimentSettings
from repro.traces.workloads import DEFAULT_SCALE, WORKLOAD_ORDER, get_workload


def _timed(label: str, fn) -> float:
    start = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - start
    print(f"  {label}: {elapsed:.1f}s", flush=True)
    return elapsed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale", type=float, default=DEFAULT_SCALE,
        help="trace/cache scale (default: 1/16)",
    )
    parser.add_argument(
        "--jobs", "-j", type=int, default=None,
        help="parallel worker count (default: all cores)",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="also append the report lines to PATH",
    )
    args = parser.parse_args()
    jobs = args.jobs or os.cpu_count() or 1

    print(f"pre-generating {len(WORKLOAD_ORDER)} workloads at scale {args.scale:g}")
    for name in WORKLOAD_ORDER:
        get_workload(name, args.scale)

    # Environment header: nightly speedup numbers are only comparable
    # across runners when the report says what hardware ran.
    from repro.sim.parallel import resolve_start_method
    from repro.utils.buildinfo import buildinfo

    info = buildinfo()
    quiet = dict(out=lambda _s: None, scale=args.scale)
    lines = [
        f"parallel speedup @ scale={args.scale:g}, jobs={jobs}",
        f"env: cpus={os.cpu_count()}, "
        f"start_method={resolve_start_method()}, "
        f"python={info['python']}, rev={info['git_rev'] or '-'}, "
        f"host={info['hostname']}",
    ]
    for label, experiment in (("fig8", fig8_response_time), ("fig9", fig9_hit_ratio)):
        print(f"{label} grid:")
        serial = _timed(
            "serial  ", lambda: experiment.run(ExperimentSettings(processes=1, **quiet))
        )
        parallel = _timed(
            f"jobs={jobs:<4}",
            lambda: experiment.run(ExperimentSettings(processes=jobs, **quiet)),
        )
        speedup = serial / parallel if parallel else 0.0
        lines.append(
            f"{label}: serial {serial:.1f}s, parallel {parallel:.1f}s "
            f"({jobs} jobs) -> {speedup:.2f}x"
        )
    report = "\n".join(lines)
    print(report)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(report + "\n")
        print(f"appended report to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
