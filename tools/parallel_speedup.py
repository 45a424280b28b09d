#!/usr/bin/env python
"""Serial-vs-parallel wall-clock comparison for the figure grids.

Regenerates the Fig. 8 (response time) and Fig. 9 (hit ratio) grids
twice — once inline (``processes=1``) and once through the sharded
engine at the requested job count — and reports the wall-clock times
and speedups.  The nightly workflow runs this at 2x scale and keeps the
report in its artifact; run it locally to record the speedup number for
a PR description:

    PYTHONPATH=src python tools/parallel_speedup.py --scale 0.015625

One pass of a grid says little on a shared host: on a 2-vCPU VM the
same serial Fig. 8 pass has read 35-52 s across runs of identical code.
``--repeats N`` alternates the serial and parallel passes N times per
grid and reports every pass, each side's median [q1, q3] and the ratio
of the two medians; the default of 1 prints the single-pass report.

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
from typing import List, Optional

# perf_ab.py sits beside this script, in ``sys.path[0]``: the same
# quartiles as the parent/change A/B runner.
from perf_ab import quartiles

from repro.experiments import fig8_response_time, fig9_hit_ratio
from repro.experiments.common import ExperimentSettings
from repro.traces.workloads import DEFAULT_SCALE, WORKLOAD_ORDER, get_workload


def _timed(label: str, fn) -> float:
    start = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - start
    print(f"  {label}: {elapsed:.1f}s", flush=True)
    return elapsed


def report_lines(
    label: str, jobs: int, serial: List[float], parallel: List[float]
) -> List[str]:
    """The report lines of one grid's passes, in pass order.

    One pass of each gives the single-pass line; more give every pass,
    each side's median [q1, q3] and the speedup as the ratio of the
    serial median to the parallel one.
    """
    if len(serial) == 1 and len(parallel) == 1:
        speedup = serial[0] / parallel[0] if parallel[0] else 0.0
        return [
            f"{label}: serial {serial[0]:.1f}s, parallel {parallel[0]:.1f}s "
            f"({jobs} jobs) -> {speedup:.2f}x"
        ]
    s_q1, s_med, s_q3 = quartiles(serial)
    p_q1, p_med, p_q3 = quartiles(parallel)
    speedup = s_med / p_med if p_med else 0.0
    return [
        f"{label} passes: serial {' '.join(f'{t:.1f}' for t in serial)}; "
        f"parallel {' '.join(f'{t:.1f}' for t in parallel)}",
        f"{label}: serial {s_med:.1f}s [{s_q1:.1f}, {s_q3:.1f}], "
        f"parallel {p_med:.1f}s [{p_q1:.1f}, {p_q3:.1f}] "
        f"({jobs} jobs, {len(serial)} alternating passes) -> {speedup:.2f}x "
        "(ratio of medians)",
    ]


def main(argv: Optional[List[str]] = None) -> int:
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
        "--repeats", type=int, default=1, metavar="N",
        help="alternate the serial and parallel passes N times per grid "
        "(default: 1)",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="also append the report lines to PATH",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error(f"--repeats must be >= 1, got {args.repeats}")
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
    repeats = f", repeats={args.repeats}" if args.repeats > 1 else ""
    lines = [
        f"parallel speedup @ scale={args.scale:g}, jobs={jobs}{repeats}",
        f"env: cpus={os.cpu_count()}, "
        f"start_method={resolve_start_method()}, "
        f"python={info['python']}, rev={info['git_rev'] or '-'}, "
        f"host={info['hostname']}",
    ]
    for label, experiment in (("fig8", fig8_response_time), ("fig9", fig9_hit_ratio)):
        print(f"{label} grid:")
        serial: List[float] = []
        parallel: List[float] = []
        for _ in range(args.repeats):
            serial.append(
                _timed(
                    "serial  ",
                    lambda: experiment.run(ExperimentSettings(processes=1, **quiet)),
                )
            )
            parallel.append(
                _timed(
                    f"jobs={jobs:<4}",
                    lambda: experiment.run(ExperimentSettings(processes=jobs, **quiet)),
                )
            )
        lines += report_lines(label, jobs, serial, parallel)
    report = "\n".join(lines)
    print(report)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(report + "\n")
        print(f"appended report to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
