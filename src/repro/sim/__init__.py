"""Replay harness: open/closed-loop drivers, metrics, reporting, sweeps,
export and bootstrap statistics."""

from repro.sim.bootstrap import BootstrapResult, bootstrap_ci, paired_improvement
from repro.sim.export import metrics_to_rows, write_csv, write_json
from repro.sim.metrics import ReplayMetrics, merge_metrics
from repro.sim.parallel import (
    ShardError,
    ShardPlan,
    ShardSpec,
    derive_shard_seed,
    plan_segments,
    replay_sharded,
    resolve_start_method,
    shard_trace,
)
from repro.sim.replay import (
    ReplayConfig,
    replay_cache_only,
    replay_closed_loop,
    replay_trace,
    sized_ssd_for,
    written_footprint,
)
from repro.sim.report import banner, format_series, format_table, normalize, sparkline
from repro.sim.runner import CachedSweepRunner, job_key
from repro.sim.sweep import SweepJob, grid_jobs, run_jobs
from repro.sim.tenant import (
    TENANCY_MODES,
    TenantAccountant,
    TenantStats,
    tenant_rows,
)

__all__ = [
    "BootstrapResult",
    "bootstrap_ci",
    "paired_improvement",
    "replay_closed_loop",
    "metrics_to_rows",
    "write_csv",
    "write_json",
    "ReplayMetrics",
    "merge_metrics",
    "ShardError",
    "ShardPlan",
    "ShardSpec",
    "derive_shard_seed",
    "plan_segments",
    "replay_sharded",
    "resolve_start_method",
    "run_shards",
    "shard_trace",
    "ReplayConfig",
    "replay_cache_only",
    "replay_trace",
    "sized_ssd_for",
    "written_footprint",
    "banner",
    "sparkline",
    "CachedSweepRunner",
    "job_key",
    "format_series",
    "format_table",
    "normalize",
    "SweepJob",
    "grid_jobs",
    "run_jobs",
    "TENANCY_MODES",
    "TenantAccountant",
    "TenantStats",
    "tenant_rows",
]


def __getattr__(name: str):
    # The executor pulls in multiprocessing.connection and the checkpoint
    # journal; load it on first use so ``import repro`` stays light.
    if name == "run_shards":
        from repro.sim.supervisor import run_shards

        return run_shards
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
