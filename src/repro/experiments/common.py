"""Shared plumbing for the per-figure experiment modules.

Each experiment module exposes ``run(settings) -> dict`` returning the
figure's data (and printing the paper-style rows via ``settings.out``),
plus a ``main()`` entry point.  ``ExperimentSettings`` centralises the
scale/cache/parallelism knobs so every figure can be regenerated at
paper scale (``scale=1.0``) or the fast default (1/16).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.sim.metrics import ReplayMetrics
from repro.sim.parallel import JOBS_ENV, env_count
from repro.sim.progress import ProgressPrinter
from repro.sim.supervisor import Supervision, SupervisorReport
from repro.sim.sweep import SWEEP_PROCESSES_ENV, SweepJob, run_jobs
from repro.traces.model import PAGE_SIZE_BYTES
from repro.traces.workloads import (
    DEFAULT_SCALE,
    PAPER_CACHE_SIZES_MB,
    WORKLOAD_ORDER,
    scaled_cache_bytes,
)

__all__ = [
    "ExperimentSettings",
    "run_grid",
    "add_standard_args",
    "add_worker_args",
    "add_resilience_args",
    "positive_int",
    "supervision_from_args",
    "settings_from_args",
    "finish_experiment",
    "worker_env_error",
]


@dataclass
class ExperimentSettings:
    """Common experiment knobs."""

    #: Trace/cache scale relative to the paper (1.0 = full length).
    scale: float = DEFAULT_SCALE
    #: Which workloads to run (paper order by default).
    workloads: List[str] = field(default_factory=lambda: list(WORKLOAD_ORDER))
    #: Paper cache sizes to sweep where the figure sweeps them.
    cache_sizes_mb: List[int] = field(
        default_factory=lambda: list(PAPER_CACHE_SIZES_MB)
    )
    #: Worker processes for sweeps (None = auto, 1 = inline).  Every
    #: experiment's grid fans out through the shard executor
    #: (:func:`repro.sim.supervisor.run_shards`) at this width — the
    #: ``--jobs`` CLI flag lands here, so no per-experiment parallel
    #: plumbing exists.
    processes: Optional[int] = None
    #: Worker start method (None = auto: fork where available, else
    #: spawn; see :func:`repro.sim.parallel.resolve_start_method`).
    start_method: Optional[str] = None
    #: Sink for human-readable output.
    out: Callable[[str], None] = print

    # Resilience knobs (see docs/resilience.md), passed to every grid's
    # fan-out.
    supervision: Optional[Supervision] = None
    checkpoint_path: Optional[str] = None
    resume: bool = False
    #: Per-shard progress lines to stderr (``--progress``).
    progress: bool = False
    #: Accumulates the outcomes of this experiment's grids so ``main()``
    #: can settle one exit code (salvaged -> EXIT_SALVAGED).
    report: SupervisorReport = field(default_factory=SupervisorReport)

    def cache_bytes(self, paper_mb: int) -> int:
        """Scaled cache size for a paper-quoted MB figure."""
        return scaled_cache_bytes(paper_mb, self.scale)

    def quiet(self) -> "ExperimentSettings":
        """A copy that prints nothing (for benchmarks)."""
        from dataclasses import replace

        return replace(self, out=lambda _s: None)

    # ------------------------------------------------------------------
    def run_jobs(self, jobs: Sequence[SweepJob]) -> List[ReplayMetrics]:
        """Fan a job list out with this settings' parallel/resilience
        knobs; results in job order.

        A shard the supervisor salvaged away comes back not as ``None``
        but as an all-zero placeholder ``ReplayMetrics`` carrying the
        job's identity and a ``salvaged:`` abort reason, so experiment
        modules can keep printing their tables (the missing cell shows
        zeros) while ``settings.report`` carries the damage for the
        exit code.
        """
        results = run_jobs(
            list(jobs),
            processes=self.processes,
            start_method=self.start_method,
            supervision=self.supervision,
            checkpoint_path=self.checkpoint_path,
            resume=self.resume,
            progress=ProgressPrinter() if self.progress else None,
            report=self.report,
        )
        out: List[ReplayMetrics] = []
        for job, metrics in zip(jobs, results):
            if metrics is None:
                metrics = ReplayMetrics(
                    trace_name=job.workload,
                    policy_name=job.policy,
                    cache_pages=job.cache_bytes // PAGE_SIZE_BYTES,
                    aborted_reason="salvaged: shard failed, result dropped",
                )
            out.append(metrics)
        return out


def run_grid(
    settings: ExperimentSettings,
    policies: List[str],
    cache_sizes_mb: Optional[List[int]] = None,
    policy_kwargs: Optional[Dict[str, Dict]] = None,
    cache_only: bool = False,
) -> Dict[tuple, ReplayMetrics]:
    """Run the (workload x cache size x policy) grid; keyed results.

    Returns ``{(workload, paper_mb, policy): metrics}``.
    """
    sizes = cache_sizes_mb or settings.cache_sizes_mb
    policy_kwargs = policy_kwargs or {}
    jobs: List[SweepJob] = []
    keys: List[tuple] = []
    for w in settings.workloads:
        for mb in sizes:
            for p in policies:
                jobs.append(
                    SweepJob(
                        workload=w,
                        policy=p,
                        cache_bytes=settings.cache_bytes(mb),
                        scale=settings.scale,
                        policy_kwargs=tuple(
                            sorted(policy_kwargs.get(p, {}).items())
                        ),
                        cache_only=cache_only,
                    )
                )
                keys.append((w, mb, p))
    results = settings.run_jobs(jobs)
    return dict(zip(keys, results))


def positive_int(text: str) -> int:
    """argparse type of worker and segment counts: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def add_standard_args(parser: argparse.ArgumentParser) -> None:
    """Attach the scale/workloads/worker options every experiment shares."""
    parser.add_argument(
        "--scale",
        type=float,
        default=DEFAULT_SCALE,
        help="trace/cache scale relative to the paper (1.0 = full length)",
    )
    parser.add_argument(
        "--workloads",
        nargs="+",
        default=list(WORKLOAD_ORDER),
        choices=WORKLOAD_ORDER,
        help="paper workloads to replay",
    )
    add_worker_args(parser)


def add_worker_args(parser: argparse.ArgumentParser) -> None:
    """Attach the experiment grid's worker and resilience options.

    Shared by the standalone experiment parsers and the ``experiment``
    subcommand of ``reqblock-sim``, so both parse them alike.
    """
    parser.add_argument(
        "--jobs",
        "-j",
        dest="processes",
        type=positive_int,
        default=None,
        metavar="N",
        help="worker processes for the experiment grid "
        "(default: all cores; 1 = inline)",
    )
    parser.add_argument(
        "--processes",
        dest="processes",
        type=positive_int,
        default=None,
        help=argparse.SUPPRESS,  # legacy spelling of --jobs
    )
    parser.add_argument(
        "--start-method",
        default=None,
        choices=("fork", "spawn", "forkserver"),
        help="worker start method (default: fork where available, else spawn)",
    )
    add_resilience_args(parser)


def add_resilience_args(parser: argparse.ArgumentParser) -> None:
    """Attach the supervisor knobs (shared with the replay/compare CLI).

    Semantics in ``docs/resilience.md``; they become the ``supervision``,
    ``checkpoint_path`` and ``resume`` of
    :func:`repro.sim.supervisor.run_shards`.
    """
    group = parser.add_argument_group("resilience")
    group.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="relaunch a failed/hung shard up to N times (default: 0)",
    )
    group.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="kill and reschedule a shard running longer than this",
    )
    group.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="journal each completed shard to PATH (crash-safe appends)",
    )
    group.add_argument(
        "--resume",
        default=None,
        metavar="PATH",
        help="resume from an interrupted run's journal at PATH "
        "(implies --checkpoint PATH; a missing file starts fresh)",
    )
    group.add_argument(
        "--salvage",
        action="store_true",
        help="when a shard exhausts its retries, merge the surviving "
        "shards as a degraded result (exit code 4) instead of failing",
    )
    group.add_argument(
        "--progress",
        action="store_true",
        help="print per-shard progress to stderr: a line per shard "
        "completion/retry with an ETA, and live request/hit-ratio/GC lines",
    )


def supervision_from_args(args: argparse.Namespace) -> Optional[Supervision]:
    """The ``Supervision`` the resilience flags ask for (None = plain run)."""
    if (
        args.max_retries is None
        and args.shard_timeout is None
        and not args.salvage
    ):
        return None
    return Supervision(
        max_retries=args.max_retries or 0,
        shard_timeout=args.shard_timeout,
        salvage=args.salvage,
    )


def finish_experiment(settings: ExperimentSettings) -> int:
    """The exit code an experiment ``main()`` should return.

    0 for a clean run; :data:`repro.sim.supervisor.EXIT_SALVAGED` (4)
    when any grid was salvaged — with a one-line damage report on
    stderr so the degradation is visible even when stdout is captured
    into a figure pipeline.
    """
    from repro.sim.supervisor import EXIT_SALVAGED

    if not settings.report.salvaged:
        return 0
    print(
        f"warning: salvaged run — {settings.report.describe()}",
        file=sys.stderr,
    )
    return EXIT_SALVAGED


def worker_env_error(processes: Optional[int]) -> Optional[str]:
    """Why the worker count a grid falls back to is unusable, or None.

    Without ``processes`` (``--jobs``) the grid's width comes from
    ``REPRO_SWEEP_PROCESSES``, else ``REPRO_JOBS`` (see
    :func:`repro.sim.sweep.run_jobs`); the message names the variable
    the grid would read when it is not an integer >= 1.
    """
    if processes is not None:
        return None
    try:
        if env_count(SWEEP_PROCESSES_ENV) is None:
            env_count(JOBS_ENV)
    except ValueError as exc:
        return str(exc)
    return None


def settings_from_args(args: argparse.Namespace) -> ExperimentSettings:
    """Build settings from the standard argparse options.

    Exits with status 2, a usage error, when the worker-count
    environment variable the grid would fall back to is unusable (see
    :func:`worker_env_error`).
    """
    error = worker_env_error(args.processes)
    if error is not None:
        print(f"{os.path.basename(sys.argv[0])}: error: {error}", file=sys.stderr)
        raise SystemExit(2)
    checkpoint = getattr(args, "checkpoint", None)
    resume = getattr(args, "resume", None)
    return ExperimentSettings(
        scale=args.scale,
        workloads=list(args.workloads),
        processes=args.processes,
        start_method=getattr(args, "start_method", None),
        supervision=supervision_from_args(args),
        checkpoint_path=resume or checkpoint,
        resume=resume is not None,
        progress=bool(getattr(args, "progress", False)),
    )
