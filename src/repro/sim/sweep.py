"""Parallel parameter sweeps over (trace x policy x cache size) grids.

The figure-8/9 grids multiply 6 traces x 4 policies x 3 cache sizes;
runs are embarrassingly parallel, so the sweep fans jobs out through
the shard executor (:func:`repro.sim.supervisor.run_shards`).  Jobs are
specified by *names and numbers* (workload name, scale, policy name,
kwargs) rather than live objects so they pickle cheaply; each worker
process serves many jobs and regenerates and memoises traces via
:func:`repro.traces.workloads.get_workload` (an MSR CSV path is loaded
from disk instead).

Each job is one self-contained deterministic replay, so a worker-run
cell is bit-identical to an inline one — the serial-vs-parallel
equivalence suite (``tests/sim/test_parallel_equivalence.py``) pins
this for every registered policy.

Set ``processes=1`` (or ``REPRO_SWEEP_PROCESSES=1``) for in-process
execution — required under pytest-benchmark and handy for debugging.
The start method follows :func:`repro.sim.parallel.resolve_start_method`
(``fork`` where available, ``spawn`` otherwise; override with
``REPRO_START_METHOD``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.sim.metrics import ReplayMetrics
from repro.sim.parallel import env_count
from repro.sim.progress import ProgressCallback
from repro.sim.replay import ReplayConfig, replay_cache_only, replay_trace
from repro.traces.model import Trace
from repro.traces.workloads import DEFAULT_SCALE, PAPER_WORKLOADS, get_workload

__all__ = ["SweepJob", "run_jobs", "grid_jobs"]

#: Environment override for a sweep's worker count (``processes=``
#: wins over it; ``REPRO_JOBS`` is the fallback).
SWEEP_PROCESSES_ENV = "REPRO_SWEEP_PROCESSES"


@dataclass(frozen=True)
class SweepJob:
    """One replay, specified by value (picklable)."""

    workload: str
    policy: str
    cache_bytes: int
    scale: float = DEFAULT_SCALE
    policy_kwargs: Tuple[Tuple[str, Any], ...] = ()
    #: Extra ReplayConfig fields (e.g. gc_victim_policy,
    #: mapping_cache_bytes) as sorted key/value pairs.
    replay_kwargs: Tuple[Tuple[str, Any], ...] = ()
    cache_only: bool = False
    drain_at_end: bool = False
    #: Regenerate the workload under this seed instead of its default
    #: (seed-sensitivity studies); ``None`` uses the memoised trace.
    workload_seed: Optional[int] = None
    #: Multi-tenant population (see :mod:`repro.traces.tenants`):
    #: ``tenants`` > 1 replays an N-tenant population of ``workload``
    #: under the ``tenancy`` discipline; workers rebuild the population
    #: by value, so these jobs pickle as cheaply as single-tenant ones.
    #: ``tenants=None`` (default) is the legacy single-tenant job.
    tenants: Optional[int] = None
    tenancy: str = "shared"
    tenant_skew: float = 1.0
    tenant_seed: int = 0

    def key(self) -> Tuple[str, str, int]:
        """(workload, policy, cache bytes) — the figure-grid cell key."""
        return (self.workload, self.policy, self.cache_bytes)


def _job_trace(job: SweepJob) -> Trace:
    """The job's trace: a memoised paper workload, or an MSR CSV path."""
    if job.workload in PAPER_WORKLOADS:
        if job.workload_seed is not None:
            from repro.traces.synthetic import generate_trace
            from repro.traces.workloads import get_config

            cfg = replace(
                get_config(job.workload, job.scale), seed=job.workload_seed
            )
            return generate_trace(cfg)
        return get_workload(job.workload, job.scale)
    from repro.traces.msr import load_msr_trace

    return load_msr_trace(job.workload)


def _run_one(job: SweepJob) -> ReplayMetrics:
    tenancy_kwargs: Dict[str, Any] = {}
    if job.tenants is not None:
        from repro.traces.tenants import build_population

        trace, tenant_map, weights = build_population(
            job.workload,
            job.tenants,
            scale=job.scale,
            skew=job.tenant_skew,
            seed=job.tenant_seed,
        )
        tenancy_kwargs = {
            "tenancy": job.tenancy,
            "tenants": tenant_map,
            "tenant_weights": weights,
        }
    else:
        trace = _job_trace(job)
    config = ReplayConfig(
        policy=job.policy,
        cache_bytes=job.cache_bytes,
        policy_kwargs=dict(job.policy_kwargs),
        drain_at_end=job.drain_at_end,
        **tenancy_kwargs,
        **dict(job.replay_kwargs),
    )
    runner = replay_cache_only if job.cache_only else replay_trace
    return runner(trace, config)


def run_jobs(
    jobs: Iterable[SweepJob],
    processes: Optional[int] = None,
    start_method: Optional[str] = None,
    supervision: Optional[Any] = None,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    progress: Optional[ProgressCallback] = None,
    report: Optional[Any] = None,
) -> List[ReplayMetrics]:
    """Run jobs (in order) and return their metrics (same order).

    ``processes`` defaults to ``REPRO_SWEEP_PROCESSES``, then the
    engine's resolution (``REPRO_JOBS`` or the CPU count), capped at
    the job count; 1 means run inline, in this process.  Either
    variable set to anything but an integer >= 1 raises ``ValueError``
    naming it.  Worker failures raise
    :class:`repro.sim.parallel.ShardError` with the failing job and its
    traceback.

    ``supervision`` / ``checkpoint_path`` / ``resume`` pass through to
    :func:`repro.sim.supervisor.run_shards` (retry/timeout/checkpoint/
    salvage — see ``docs/resilience.md``); a salvaged job's slot holds
    ``None``.  ``report`` (a :class:`~repro.sim.supervisor
    .SupervisorReport`) accumulates the outcome so multi-sweep callers
    can settle one exit code at the end.
    """
    from repro.sim.supervisor import run_shards  # loaded on first use

    jobs = list(jobs)
    if processes is None:
        processes = env_count(SWEEP_PROCESSES_ENV)
    if checkpoint_path is not None and report is not None and report.calls:
        # One journal per fan-out: later sweeps of the same command get
        # numbered siblings instead of clobbering the first journal.
        checkpoint_path = f"{checkpoint_path}.{report.calls}"
    outcome = run_shards(
        _run_one,
        jobs,
        jobs=processes,
        start_method=start_method,
        supervision=supervision,
        checkpoint_path=checkpoint_path,
        resume=resume,
        progress=progress,
    )
    if report is not None:
        report.add(outcome)
    return outcome.results


def grid_jobs(
    workloads: Iterable[str],
    policies: Iterable[str],
    cache_sizes_bytes: Iterable[int],
    scale: float = DEFAULT_SCALE,
    policy_kwargs: Optional[Dict[str, Dict[str, Any]]] = None,
    cache_only: bool = False,
) -> List[SweepJob]:
    """The full cross product, ordered workload-major (figure order).

    ``policy_kwargs`` maps policy name -> constructor kwargs (e.g.
    ``{"reqblock": {"delta": 5}}``).
    """
    policy_kwargs = policy_kwargs or {}
    out: List[SweepJob] = []
    for w in workloads:
        for c in cache_sizes_bytes:
            for p in policies:
                kwargs = tuple(sorted(policy_kwargs.get(p, {}).items()))
                out.append(
                    SweepJob(
                        workload=w,
                        policy=p,
                        cache_bytes=c,
                        scale=scale,
                        policy_kwargs=kwargs,
                        cache_only=cache_only,
                    )
                )
    return out
