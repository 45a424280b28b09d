"""``reqblock-sim`` — command-line front end.

Subcommands
-----------
``replay``
    Replay one paper workload (or an MSR CSV file) through one policy
    on the full device model and print the metric summary.
``compare``
    Run several policies over one workload and print a comparison table.
``experiment``
    Regenerate a paper table/figure by name (``fig8``, ``table2``, ...).
``analyze``
    Reuse-distance / miss-ratio-curve analysis of a workload.
``metrics``
    Terminal summary of a ``--metrics-out`` JSONL time series.
``policies`` / ``workloads``
    List what is available.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cache.registry import PAPER_COMPARISON, available_policies
from repro.experiments.common import (
    add_resilience_args,
    add_worker_args,
    finish_experiment,
    positive_int,
    settings_from_args,
    supervision_from_args,
    worker_env_error,
)
from repro.faults.profile import FAULT_PROFILES
from repro.sim.supervisor import EXIT_SALVAGED, SupervisorReport
from repro.sim.replay import ReplayConfig, replay_closed_loop, replay_trace
from repro.sim.report import format_table
from repro.traces.model import Trace
from repro.traces.msr import load_msr_trace
from repro.traces.workloads import (
    DEFAULT_SCALE,
    WORKLOAD_ORDER,
    get_workload,
    scaled_cache_bytes,
)

__all__ = ["main"]

_EXPERIMENTS: Dict[str, str] = {
    "table1": "repro.experiments.table1_config",
    "table2": "repro.experiments.table2_traces",
    "fig2": "repro.experiments.fig2_cdf",
    "fig3": "repro.experiments.fig3_large_hits",
    "fig7": "repro.experiments.fig7_delta",
    "fig8": "repro.experiments.fig8_response_time",
    "fig9": "repro.experiments.fig9_hit_ratio",
    "fig10": "repro.experiments.fig10_eviction_batch",
    "fig11": "repro.experiments.fig11_write_count",
    "fig12": "repro.experiments.fig12_space_overhead",
    "fig13": "repro.experiments.fig13_list_occupancy",
    "ablation-lists": "repro.experiments.ablation_lists",
    "ablation-policies": "repro.experiments.ablation_policies",
    "seed-sensitivity": "repro.experiments.seed_sensitivity",
    "ablation-device": "repro.experiments.ablation_device",
    "wear-study": "repro.experiments.wear_study",
    "cache-scaling": "repro.experiments.cache_scaling",
    "mdts-sensitivity": "repro.experiments.mdts_sensitivity",
    "reliability-study": "repro.experiments.reliability_study",
    "tenant-qos": "repro.experiments.tenant_qos",
}

#: Exit code for a replay cut short by a device-fatal error (distinct
#: from argparse's 2 and the generic 1).  A *salvaged* run — shards
#: dropped by the supervisor, surviving results merged — exits with
#: :data:`repro.sim.supervisor.EXIT_SALVAGED` (4) instead.
EXIT_ABORTED = 3


#: Subcommands that only query or report — they never get a ledger
#: entry (``repro runs list`` must not mint a run of its own).
_LEDGER_EXEMPT = frozenset(
    {"runs", "report", "policies", "workloads", "metrics", "analyze"}
)


def _wants_supervision(args: argparse.Namespace) -> bool:
    """Whether any resilience flag asks for the supervised engine."""
    return (
        args.max_retries is not None
        or args.shard_timeout is not None
        or args.checkpoint is not None
        or args.resume is not None
        or args.salvage
    )


def _ledger_attach(
    args: argparse.Namespace,
    metrics: Optional[Any] = None,
    config: Optional[Dict[str, Any]] = None,
) -> None:
    """Decorate this run's ledger entry (no-op without a ledger).

    Attaches the replay's summary, its durability report, and the
    anomaly findings computed by :mod:`repro.obs.anomaly` — the ledger
    manifest is where a later ``repro report <run>`` reads them from.
    """
    ledger = getattr(args, "ledger", None)
    if ledger is None:
        return
    if config:
        ledger.config.update(config)
    if metrics is not None:
        from repro.obs.anomaly import analyze_metrics, finding_to_dict

        ledger.summary = dict(metrics.summary())
        ledger.findings = [
            finding_to_dict(f) for f in analyze_metrics(metrics)
        ]
        if metrics.durability is not None:
            ledger.durability = metrics.durability.to_dict()


def _ledger_artifact(args: argparse.Namespace, name: str, path: str) -> None:
    ledger = getattr(args, "ledger", None)
    if ledger is not None:
        ledger.add_artifact(name, path)


def _write_flightdumps(
    args: argparse.Namespace, dumps: Sequence[Dict[str, Any]]
) -> None:
    """Persist flight dumps next to the run manifest (CWD without one).

    The first dump keeps the canonical ``flightdump.json`` name; extras
    (several shards dying in one salvaged run) get ``flightdump-N``.
    Failures are reported on stderr but never fail the run — a dump is
    a diagnosis aid, not a result.
    """
    ledger = getattr(args, "ledger", None)
    out_dir = ledger.run_dir if ledger is not None else "."
    from repro.obs.flight import write_flight_dump

    for i, dump in enumerate(dumps):
        name = "flightdump.json" if i == 0 else f"flightdump-{i}.json"
        path = os.path.join(out_dir, name)
        try:
            write_flight_dump(dump, path)
        except OSError as exc:
            print(
                f"warning: could not write flight dump {path}: {exc}",
                file=sys.stderr,
            )
            continue
        _ledger_artifact(args, name, path)
        print(
            f"flight dump ({dump.get('reason', '?')}): {path}",
            file=sys.stderr,
        )


def _load_trace(args: argparse.Namespace) -> Trace:
    if args.workload in WORKLOAD_ORDER:
        return get_workload(args.workload, args.scale)
    return load_msr_trace(args.workload)


class _UsageError(Exception):
    """Flag combination the parser can't catch; maps to exit code 2."""


def _resolve_jobs_or_report(jobs: Optional[int], n_tasks: int) -> Optional[int]:
    """:func:`repro.sim.parallel.resolve_jobs`, with a bad ``REPRO_JOBS``
    reported on stderr as a usage error (returns None) instead of
    raised as a traceback."""
    from repro.sim.parallel import resolve_jobs

    try:
        return resolve_jobs(jobs, n_tasks)
    except ValueError as exc:
        print(f"reqblock-sim: error: {exc}", file=sys.stderr)
        return None


def _resolve_tenants(
    args: argparse.Namespace,
) -> "Tuple[Trace, Optional[Any], Optional[Tuple[float, ...]]]":
    """The workload for replay — possibly a multi-tenant population.

    Returns ``(trace, tenant_map, weights)``; ``(trace, None, None)``
    is the legacy single-tenant path, taken whenever no tenant flag is
    used.  A comma-separated ``workload`` interleaves the named traces
    (paper workloads and/or MSR CSV paths) as one tenant each;
    ``--tenants N`` synthesizes an N-clone population of one paper
    workload (see docs/tenancy.md).
    """
    parts = [w.strip() for w in args.workload.split(",") if w.strip()]
    if len(parts) > 1:
        if args.tenants is not None and args.tenants != len(parts):
            raise _UsageError(
                f"--tenants {args.tenants} conflicts with "
                f"{len(parts)} comma-separated workloads"
            )
        from repro.traces.tenants import interleave_msr_tenants

        streams = [
            get_workload(w, args.scale)
            if w in WORKLOAD_ORDER
            else load_msr_trace(w)
            for w in parts
        ]
        trace, tenant_map = interleave_msr_tenants(
            streams, name="+".join(parts)
        )
        return trace, tenant_map, tuple(1.0 / len(parts) for _ in parts)
    if args.tenants is None:
        if args.tenancy != "shared":
            raise _UsageError(
                "--tenancy static/proportional requires --tenants N "
                "(or a comma-separated workload list)"
            )
        return _load_trace(args), None, None
    if args.workload not in WORKLOAD_ORDER:
        raise _UsageError(
            "--tenants N synthesizes a population of a paper workload; "
            "to treat trace files as tenants, pass them comma-separated"
        )
    from repro.traces.tenants import build_population

    return build_population(
        args.workload,
        args.tenants,
        scale=args.scale,
        skew=args.tenant_skew,
        seed=args.tenant_seed,
    )


def _print_tenant_table(metrics: Any) -> None:
    rows = [
        (
            f"t{i}",
            int(s["requests"]),
            s["hit_ratio"],
            s["mean_response_ms"],
            s["p95_response_ms"],
            int(s["evicted_pages"]),
        )
        for i, s in sorted(metrics.tenant_summary().items())
    ]
    print()
    print(
        format_table(
            (
                "Tenant",
                "Requests",
                "HitRatio",
                "MeanResp(ms)",
                "p95(ms)",
                "EvictedPages",
            ),
            rows,
            float_fmt="{:.4f}",
        )
    )


def _show_tenants(args: argparse.Namespace, tenant_map: Optional[Any]) -> bool:
    """Whether per-tenant output should print.  Gated so the default
    single-tenant shared-mode replay stays byte-identical on stdout."""
    return tenant_map is not None and (
        tenant_map.n_tenants > 1 or args.tenancy != "shared"
    )


def _print_profile(phase_profile: Dict[str, Dict[str, float]]) -> None:
    from repro.obs.profile import format_profile_rows

    rows = [
        (phase, calls, f"{total:.1f}", f"{self_ms:.1f}", f"{pct:.1f}")
        for phase, calls, total, self_ms, pct in format_profile_rows(phase_profile)
    ]
    print(
        format_table(
            ("Phase", "Calls", "Total(ms)", "Self(ms)", "Self%"), rows
        )
    )


def _replay_sharded_cmd(
    args: argparse.Namespace,
    trace: Trace,
    cache_bytes: int,
    tenant_map: Optional[Any] = None,
    tenant_weights: Optional[Tuple[float, ...]] = None,
) -> int:
    """``replay --jobs N`` / ``--shards M``: segment-shard one trace.

    Trace-segment sharding replays independent slices on cold caches
    and merges the metrics (deterministic for a fixed shard count, but
    hit ratios are approximate near segment boundaries — see
    docs/parallel.md), so the whole-replay observability/injection
    flags are rejected rather than silently reinterpreted per shard.
    """
    incompatible = [
        flag
        for flag, is_set in (
            ("--trace-out", args.trace_out is not None),
            ("--check-invariants", args.check_invariants),
            ("--metrics-out", args.metrics_out is not None),
            ("--profile", args.profile),
            ("--power-loss-at", args.power_loss_at is not None),
            ("--queue-depth", args.queue_depth is not None),
        )
        if is_set
    ]
    if incompatible:
        print(
            f"--jobs/--shards shard the trace into independent segments "
            f"and are incompatible with {', '.join(incompatible)} "
            f"(see docs/parallel.md)",
            file=sys.stderr,
        )
        return 2
    from repro.sim.parallel import replay_sharded
    from repro.sim.progress import make_progress_printer

    config = ReplayConfig(
        policy=args.policy,
        cache_bytes=cache_bytes,
        fault_profile=args.fault_profile,
        fault_seed=args.fault_seed,
        capacitor_pages=args.capacitor_pages,
        tenancy=args.tenancy,
        tenants=tenant_map,
        tenant_weights=tenant_weights,
    )
    jobs = _resolve_jobs_or_report(args.jobs, len(trace))
    if jobs is None:
        return 2
    n_shards = args.shards if args.shards is not None else jobs
    telemetry = None
    if args.live:
        from repro.sim.telemetry import LiveTelemetry

        telemetry = LiveTelemetry()
    dumps: List[Dict[str, Any]] = []
    metrics = replay_sharded(
        trace,
        config,
        n_shards=n_shards,
        jobs=jobs,
        supervision=supervision_from_args(args),
        checkpoint_path=args.resume or args.checkpoint,
        resume=args.resume is not None,
        progress=make_progress_printer() if args.progress else None,
        flight=args.flight_recorder,
        telemetry=telemetry,
        flightdumps=dumps,
    )
    _ledger_attach(
        args,
        metrics=metrics,
        config={
            "workload": args.workload,
            "policy": args.policy,
            "cache_mb": args.cache_mb,
            "scale": args.scale,
            "fault_profile": args.fault_profile,
            "fault_seed": args.fault_seed,
            "jobs": jobs,
            "shards": n_shards,
            "approximation": "cold-cache segments",
            "tenants": tenant_map.n_tenants if tenant_map else None,
            "tenancy": args.tenancy,
        },
    )
    if dumps:
        _write_flightdumps(args, dumps)
    rows = [(k, v) for k, v in metrics.summary().items()]
    print(format_table(("Metric", "Value"), rows, float_fmt="{:.4f}"))
    if _show_tenants(args, tenant_map):
        _print_tenant_table(metrics)
    if metrics.durability is not None:
        print()
        print(
            format_table(
                ("Durability", "Value"),
                metrics.durability.rows(),
                float_fmt="{:.4f}",
            )
        )
    print(
        f"[sharded replay: {n_shards} segments over {jobs} workers; "
        f"hit ratios are approximate near segment boundaries]"
    )
    if metrics.salvaged:
        durability = metrics.durability
        print(
            f"warning: salvaged run — shards "
            f"{list(durability.shards_failed)} of {durability.shards_planned} "
            f"failed (coverage {durability.shard_coverage:.2f}); "
            f"metrics above cover the surviving segments only",
            file=sys.stderr,
        )
        return EXIT_SALVAGED
    if metrics.aborted:
        print(
            f"replay aborted at request {metrics.aborted_at_request}: "
            f"{metrics.aborted_reason}",
            file=sys.stderr,
        )
        return EXIT_ABORTED
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    if _wants_supervision(args) and args.jobs is None and args.shards is None:
        print(
            "--max-retries/--shard-timeout/--checkpoint/--resume/--salvage "
            "supervise the sharded engine and require --jobs or --shards "
            "(use --jobs 1 for one supervised worker)",
            file=sys.stderr,
        )
        return 2
    return _cmd_replay_inner(args)


def _cmd_replay_inner(args: argparse.Namespace) -> int:
    try:
        trace, tenant_map, tenant_weights = _resolve_tenants(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    cache_bytes = scaled_cache_bytes(args.cache_mb, args.scale)
    if args.shards is not None or (
        args.jobs is not None and (args.jobs != 1 or _wants_supervision(args))
    ):
        return _replay_sharded_cmd(
            args, trace, cache_bytes, tenant_map, tenant_weights
        )
    tracer = None
    if args.trace_out is not None:
        from repro.obs.tracer import JsonlTracer

        tracer = JsonlTracer(args.trace_out)
    registry = None
    if args.metrics_out is not None:
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
    flight_recorder = None
    if args.flight_recorder:
        from repro.obs.flight import FlightRecorder

        flight_recorder = FlightRecorder()
    if args.live:
        # Serial runs render live frames in-process: the LiveTelemetry
        # aggregator doubles as the ambient frame sink.
        from repro.sim.telemetry import LiveTelemetry, set_frame_sink

        set_frame_sink(LiveTelemetry())
    config = ReplayConfig(
        policy=args.policy,
        cache_bytes=cache_bytes,
        tracer=tracer,
        check_invariants=args.check_invariants,
        fault_profile=args.fault_profile,
        fault_seed=args.fault_seed,
        power_loss_at=args.power_loss_at,
        capacitor_pages=args.capacitor_pages,
        metrics=registry,
        sample_interval=args.sample_interval,
        profile=args.profile,
        flight=flight_recorder,
        tenancy=args.tenancy,
        tenants=tenant_map,
        tenant_weights=tenant_weights,
    )
    try:
        if args.queue_depth is not None:
            metrics = replay_closed_loop(trace, config, queue_depth=args.queue_depth)
        else:
            metrics = replay_trace(trace, config)
    finally:
        if tracer is not None:
            tracer.close()
        if args.live:
            from repro.sim.telemetry import clear_frame_sink

            clear_frame_sink()
    _ledger_attach(
        args,
        metrics=metrics,
        config={
            "workload": args.workload,
            "policy": args.policy,
            "cache_mb": args.cache_mb,
            "scale": args.scale,
            "fault_profile": args.fault_profile,
            "fault_seed": args.fault_seed,
            "queue_depth": args.queue_depth,
            "power_loss_at": args.power_loss_at,
            "tenants": tenant_map.n_tenants if tenant_map else None,
            "tenancy": args.tenancy,
        },
    )
    if flight_recorder is not None and flight_recorder.last_dump is not None:
        _write_flightdumps(args, [flight_recorder.last_dump])
    rows = [(k, v) for k, v in metrics.summary().items()]
    print(format_table(("Metric", "Value"), rows, float_fmt="{:.4f}"))
    if _show_tenants(args, tenant_map):
        _print_tenant_table(metrics)
    if metrics.durability is not None:
        print()
        print(
            format_table(
                ("Durability", "Value"),
                metrics.durability.rows(),
                float_fmt="{:.4f}",
            )
        )
    if args.profile and metrics.phase_profile:
        print()
        _print_profile(metrics.phase_profile)
    if tracer is not None:
        print(f"wrote {tracer.n_events} events to {args.trace_out}")
        _ledger_artifact(args, "trace_events", args.trace_out)
    if registry is not None:
        _ledger_artifact(args, "metrics_out", args.metrics_out)
        if args.metrics_format == "prom":
            from pathlib import Path

            sim_ms = (
                metrics.metrics_series[-1]["sim_ms"]
                if metrics.metrics_series
                else 0.0
            )
            out = Path(args.metrics_out)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(registry.prometheus_text(sim_ms))
            print(f"wrote Prometheus metrics dump to {args.metrics_out}")
        else:
            from repro.sim.export import write_metrics_jsonl

            n = write_metrics_jsonl(metrics.metrics_series, args.metrics_out)
            print(f"wrote {n} metric snapshots to {args.metrics_out}")
    if metrics.aborted:
        print(
            f"replay aborted at request {metrics.aborted_at_request}: "
            f"{metrics.aborted_reason}",
            file=sys.stderr,
        )
        return EXIT_ABORTED
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    if args.jobs is not None and args.jobs != 1 and args.profile:
        print("--jobs is incompatible with --profile", file=sys.stderr)
        return 2
    supervised = _wants_supervision(args)
    if supervised and args.jobs is None:
        print(
            "--max-retries/--shard-timeout/--checkpoint/--resume/--salvage "
            "require --jobs (the supervised parallel path)",
            file=sys.stderr,
        )
        return 2
    tenant_map = tenant_weights = None
    if args.tenants is not None or args.tenancy != "shared":
        # compare's tenant path rebuilds populations by value in the
        # workers (SweepJob), which only paper workloads support.
        if args.tenants is None or args.workload not in WORKLOAD_ORDER:
            print(
                "compare needs --tenants N with a paper workload "
                "to run a tenant population (see docs/tenancy.md)",
                file=sys.stderr,
            )
            return 2
        from repro.traces.tenants import build_population

        trace, tenant_map, tenant_weights = build_population(
            args.workload,
            args.tenants,
            scale=args.scale,
            skew=args.tenant_skew,
            seed=args.tenant_seed,
        )
    else:
        trace = _load_trace(args)
    cache_bytes = scaled_cache_bytes(args.cache_mb, args.scale)
    rows = []
    report = SupervisorReport()
    if args.jobs is not None and (args.jobs != 1 or supervised):
        # One sweep cell per policy; each worker's replay is
        # bit-identical to the serial loop below (workers reload the
        # workload by name / MSR path — and rebuild tenant populations
        # by value — so jobs ship as plain values).
        from repro.sim.progress import make_progress_printer
        from repro.sim.sweep import SweepJob, run_jobs

        all_metrics = run_jobs(
            [
                SweepJob(
                    workload=args.workload,
                    policy=policy,
                    cache_bytes=cache_bytes,
                    scale=args.scale,
                    tenants=args.tenants,
                    tenancy=args.tenancy,
                    tenant_skew=args.tenant_skew,
                    tenant_seed=args.tenant_seed,
                )
                for policy in args.policies
            ],
            processes=args.jobs,
            supervision=supervision_from_args(args),
            checkpoint_path=args.resume or args.checkpoint,
            resume=args.resume is not None,
            progress=make_progress_printer() if args.progress else None,
            report=report if supervised else None,
        )
    else:
        all_metrics = [
            replay_trace(
                trace,
                ReplayConfig(
                    policy=policy,
                    cache_bytes=cache_bytes,
                    profile=args.profile,
                    tenancy=args.tenancy,
                    tenants=tenant_map,
                    tenant_weights=tenant_weights,
                ),
            )
            for policy in args.policies
        ]
    _ledger_attach(
        args,
        config={
            "workload": args.workload,
            "policies": list(args.policies),
            "cache_mb": args.cache_mb,
            "scale": args.scale,
            "jobs": args.jobs,
            "tenants": args.tenants,
            "tenancy": args.tenancy,
        },
    )
    # A salvaged-away policy leaves None in its slot: keep the table
    # aligned with an explicit hole rather than dropping the row.
    salvaged_policies = [
        policy for policy, m in zip(args.policies, all_metrics) if m is None
    ]
    all_metrics = [m for m in all_metrics if m is not None]
    for m in all_metrics:
        rows.append(
            (
                m.policy_name,
                m.hit_ratio,
                m.mean_response_ms,
                m.mean_eviction_pages,
                m.flash_total_writes,
            )
        )
    rows.extend(
        (policy, "salvaged", "-", "-", "-") for policy in salvaged_policies
    )
    print(
        format_table(
            ("Policy", "HitRatio", "MeanResp(ms)", "Evict(pages)", "FlashWrites"),
            rows,
        )
    )
    if _show_tenants(args, tenant_map):
        for m in all_metrics:
            print(f"\nper-tenant ({m.policy_name}):", end="")
            _print_tenant_table(m)
    if args.csv:
        from repro.sim.export import write_csv

        write_csv(all_metrics, args.csv)
        print(f"wrote {args.csv}")
    if args.json:
        from repro.sim.export import write_json

        write_json(all_metrics, args.json, extra={"scale": args.scale})
        print(f"wrote {args.json}")
    if args.profile:
        for m in all_metrics:
            if m.phase_profile:
                print(f"\nphase profile: {m.policy_name}")
                _print_profile(m.phase_profile)
    if report.salvaged:
        print(
            f"warning: salvaged run — {report.describe()}",
            file=sys.stderr,
        )
        return EXIT_SALVAGED
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Render a terminal report from a ``--metrics-out`` JSONL file."""
    from repro.sim.export import read_metrics_jsonl
    from repro.sim.report import sparkline

    series = read_metrics_jsonl(args.file)
    if not series:
        print(f"{args.file}: no metric snapshots", file=sys.stderr)
        return 1
    first, last = series[0], series[-1]
    print(
        f"{args.file}: {len(series)} snapshots, "
        f"requests {int(first.get('index', 0))}..{int(last.get('index', 0))}, "
        f"sim time {last.get('sim_ms', 0.0):.1f} ms"
    )
    keys = sorted(k for k in last if k not in ("index", "sim_ms"))
    if args.filter:
        keys = [k for k in keys if args.filter in k]
        if not keys:
            print(f"no metrics match filter {args.filter!r}", file=sys.stderr)
            return 1
    rows = []
    for key in keys:
        values = []
        for s in series:
            if key not in s:
                continue
            try:
                values.append(float(s[key]))
            except (TypeError, ValueError):
                # Snapshots may carry non-numeric annotations (trace
                # name, policy); they have no trend to draw.
                values = []
                break
        if not values:
            continue
        final = values[-1]
        final_s = f"{final:.3f}".rstrip("0").rstrip(".") if final else "0"
        rows.append((key, final_s, sparkline(values, width=min(24, len(values)))))
    if not rows:
        print("no numeric metrics to report", file=sys.stderr)
        return 1
    print(format_table(("Metric", "Last", "Trend"), rows))
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    """``repro runs list|show|diff``: query the run ledger."""
    from repro.sim.ledger import diff_runs, find_run, list_runs, resolve_runs_dir

    runs_dir = resolve_runs_dir(args.runs_dir)
    if args.action == "list":
        runs = list_runs(runs_dir)
        if not runs:
            print(f"no runs under {runs_dir}", file=sys.stderr)
            return 0
        rows = []
        for r in runs:
            findings = r.get("findings", [])
            rows.append(
                (
                    r.get("run_id", "?"),
                    r.get("command", "?"),
                    r.get("outcome", "?"),
                    f"{r['duration_s']:.1f}s" if "duration_s" in r else "-",
                    str(len(findings)) if findings else "-",
                )
            )
        print(
            format_table(
                ("Run", "Command", "Outcome", "Duration", "Findings"), rows
            )
        )
        return 0
    try:
        if args.action == "show":
            if len(args.run) != 1:
                print("runs show takes exactly one RUN", file=sys.stderr)
                return 2
            manifest = find_run(args.run[0], runs_dir)
            print(json.dumps(manifest, indent=2, sort_keys=True))
            return 0
        # diff
        if len(args.run) != 2:
            print("runs diff takes exactly two RUNs", file=sys.stderr)
            return 2
        a = find_run(args.run[0], runs_dir)
        b = find_run(args.run[1], runs_dir)
    except (FileNotFoundError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    deltas = diff_runs(a, b)
    if not deltas:
        print(f"runs {a['run_id']} and {b['run_id']} are identical "
              "(modulo timestamps)")
        return 0
    print(f"--- {a['run_id']}\n+++ {b['run_id']}")
    rows = [
        (path, _fmt_manifest_value(va), _fmt_manifest_value(vb))
        for path, va, vb in deltas
    ]
    print(format_table(("Key", a["run_id"][:19], b["run_id"][:19]), rows))
    return 0


def _fmt_manifest_value(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4f}".rstrip("0").rstrip(".")
    return str(value)


_SEVERITY_MARKS = {"critical": "!!", "warning": " !", "info": "  "}


def _cmd_report(args: argparse.Namespace) -> int:
    """``repro report <run>``: anomaly-timeline view of one ledger run."""
    from repro.obs.anomaly import finding_from_dict
    from repro.sim.ledger import find_run, resolve_runs_dir

    try:
        manifest = find_run(args.run, resolve_runs_dir(args.runs_dir))
    except (FileNotFoundError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(f"run       {manifest.get('run_id', '?')}")
    print(f"command   {manifest.get('command', '?')} "
          f"({' '.join(manifest.get('argv', []))})")
    print(f"outcome   {manifest.get('outcome', '?')} "
          f"(exit {manifest.get('exit_code', '?')}, "
          f"{manifest.get('duration_s', 0.0)}s)")
    env = manifest.get("env", {})
    if env:
        rev = env.get("git_rev") or "-"
        print(f"env       v{env.get('version', '?')} @ {rev}, "
              f"python {env.get('python', '?')}, "
              f"{env.get('hostname', '?')} "
              f"({env.get('cpu_count', '?')} cores)")
    config = manifest.get("config", {})
    if config:
        pairs = ", ".join(f"{k}={v}" for k, v in sorted(config.items()))
        print(f"config    {pairs}")
    summary = manifest.get("summary", {})
    if summary:
        print()
        rows = [(k, v) for k, v in summary.items()]
        print(format_table(("Metric", "Value"), rows, float_fmt="{:.4f}"))
    findings = [finding_from_dict(d) for d in manifest.get("findings", [])]
    print()
    if not findings:
        print("findings: none")
    else:
        print(f"findings: {len(findings)}")
        # Timeline order: anchored findings by request index, whole-run
        # findings (index -1) last.
        timeline = sorted(
            findings, key=lambda f: (f.index < 0, f.index, f.kind)
        )
        rows = []
        for f in timeline:
            where = f"@{f.index}" if f.index >= 0 else "run"
            when = f"{f.time_ms:.1f}ms" if f.time_ms >= 0 else "-"
            rows.append(
                (
                    _SEVERITY_MARKS.get(f.severity, "  "),
                    where,
                    when,
                    f.kind,
                    f.message,
                )
            )
        print(format_table(("", "Where", "SimTime", "Kind", "Message"), rows))
    artifacts = manifest.get("artifacts", {})
    if artifacts:
        print()
        print("artifacts:")
        for name in sorted(artifacts):
            print(f"  {name}: {artifacts[name]}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    # Without --jobs the grid's width falls back to the environment:
    # check it before any replay starts.
    error = worker_env_error(args.processes)
    if error is not None:
        print(f"reqblock-sim: error: {error}", file=sys.stderr)
        return 2
    module = importlib.import_module(_EXPERIMENTS[args.name])
    settings = settings_from_args(args)
    _ledger_attach(
        args,
        config={
            "experiment": args.name,
            "scale": args.scale,
            "workloads": list(args.workloads),
            "processes": args.processes,
        },
    )
    module.run(settings)
    return finish_experiment(settings)


def _cmd_policies(_args: argparse.Namespace) -> int:
    for name in available_policies():
        marker = " (paper comparison)" if name in PAPER_COMPARISON else ""
        print(f"{name}{marker}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    """Reuse-distance / MRC analysis of one workload or trace file."""
    from repro.analysis.reuse import reuse_profile, split_reuse_by_size
    from repro.sim.report import sparkline
    from repro.traces.stats import mean_request_pages

    trace = _load_trace(args)
    profile = reuse_profile(trace)
    sizes = [2 ** k for k in range(4, 17)]
    mrc = profile.miss_ratio_curve(sizes)
    print(
        format_table(
            ("CachePages", "LRU miss ratio"),
            [(c, f"{m:.3f}") for c, m in mrc],
        )
    )
    print("MRC: " + sparkline([m for _c, m in mrc], width=len(mrc)))
    boundary = mean_request_pages(trace)
    small, large = split_reuse_by_size(trace, boundary)
    for label, p in (("small-write", small), ("large-write", large)):
        med = p.median_distance()
        print(
            f"{label} pages: {p.total_accesses} accesses, "
            f"median reuse distance "
            f"{med if med is not None else 'n/a'}"
        )
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    from repro.traces.stats import characterize

    rows = []
    for name in WORKLOAD_ORDER:
        spec = characterize(get_workload(name, args.scale))
        rows.append(spec.row())
    print(format_table(("Trace", "Req#", "WrRatio", "WrSize", "FreqR(Wr)"), rows))
    return 0


def _add_metrics_args(p: argparse.ArgumentParser) -> None:
    from repro.obs.metrics import DEFAULT_SAMPLE_INTERVAL

    p.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="sample the runtime metrics registry during the replay and "
             "write the result to PATH (see docs/metrics.md)",
    )
    p.add_argument(
        "--metrics-format", default="jsonl", choices=("jsonl", "prom"),
        help="metrics output format: one JSON snapshot per line (jsonl, "
             "default) or a final Prometheus text dump (prom)",
    )
    p.add_argument(
        "--sample-interval", type=int, default=DEFAULT_SAMPLE_INTERVAL,
        metavar="N",
        help="snapshot the registry every N requests "
             f"(default: {DEFAULT_SAMPLE_INTERVAL})",
    )
    p.add_argument(
        "--profile", action="store_true",
        help="profile wall-clock time by simulator phase and print the "
             "table (cache_access / flush / ftl / gc / read)",
    )


def _add_tenant_args(p: argparse.ArgumentParser) -> None:
    from repro.sim.tenant import TENANCY_MODES

    p.add_argument(
        "--tenants", type=int, default=None, metavar="N",
        help="run an N-tenant population of the workload (per-tenant "
             "LBA zones, Zipf activity skew; a comma-separated workload "
             "interleaves the named traces as one tenant each — see "
             "docs/tenancy.md; default: legacy single-tenant replay)",
    )
    p.add_argument(
        "--tenancy", default="shared", choices=TENANCY_MODES,
        help="cache-sharing discipline across tenants: one shared cache "
             "(default), or a static / activity-proportional per-tenant "
             "partition",
    )
    p.add_argument(
        "--tenant-skew", type=float, default=1.0, metavar="THETA",
        help="Zipf skew of tenant activity (0 = uniform; default: 1.0 — "
             "tenant 0 is the heavy hitter)",
    )
    p.add_argument(
        "--tenant-seed", type=int, default=0, metavar="SEED",
        help="population seed; per-tenant generator seeds derive from "
             "it (default: 0)",
    )


class _VersionAction(argparse.Action):
    """``--version``: build/environment one-liner (lazy — the git
    subprocess in :mod:`repro.utils.buildinfo` only runs when asked)."""

    def __call__(
        self,
        parser: argparse.ArgumentParser,
        namespace: argparse.Namespace,
        values: Any,
        option_string: Optional[str] = None,
    ) -> None:
        from repro.utils.buildinfo import describe

        print(describe())
        parser.exit(0)


def _add_ledger_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--runs-dir", default=None, metavar="DIR",
        help="run-ledger directory (default: REPRO_RUNS_DIR env var, "
             "then ./runs — see docs/flight_recorder.md)",
    )
    p.add_argument(
        "--no-ledger", action="store_true",
        help="do not record this run in the run ledger",
    )


def _add_flight_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--flight-recorder", action="store_true",
        help="keep the last events in a bounded ring buffer and dump "
             "them (flightdump.json) on abort, degraded-mode entry, or "
             "shard-worker death (see docs/flight_recorder.md)",
    )
    p.add_argument(
        "--live", action="store_true",
        help="print live per-shard progress frames (req/s, hit rate, "
             "GC count) to stderr while the replay runs",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the reqblock-sim argument parser (all subcommands)."""
    parser = argparse.ArgumentParser(
        prog="reqblock-sim",
        description="Req-block SSD cache simulator (ICPP 2022 reproduction)",
    )
    parser.add_argument(
        "--version", action=_VersionAction, nargs=0,
        help="print version, git revision and environment, then exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("replay", help="replay one workload through one policy")
    p.add_argument("workload", help="paper workload name or MSR CSV path")
    p.add_argument("--policy", default="reqblock", choices=available_policies())
    p.add_argument("--cache-mb", type=int, default=16)
    p.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    p.add_argument(
        "--queue-depth", type=positive_int, default=None, metavar="N",
        help="closed-loop replay with this many outstanding requests "
             "(default: open loop at trace timestamps)",
    )
    p.add_argument(
        "--jobs", "-j", type=positive_int, default=None, metavar="N",
        help="segment-shard the trace across N worker processes and "
             "merge the metrics (deterministic per shard count; hit "
             "ratios approximate near segment boundaries — see "
             "docs/parallel.md; default: unsharded single process, "
             "or all cores with --shards)",
    )
    p.add_argument(
        "--shards", type=positive_int, default=None, metavar="M",
        help="segment-shard the trace into M segments (default: N, one "
             "per worker; results depend on M but never on N)",
    )
    p.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write every cache/FTL/GC event as JSON lines to PATH "
             "(see docs/observability.md for the schema)",
    )
    p.add_argument(
        "--check-invariants", action="store_true",
        help="validate simulator structure after every event "
             "(orders of magnitude slower; debugging aid)",
    )
    p.add_argument(
        "--fault-profile", default=None, metavar="NAME",
        choices=("none", *sorted(FAULT_PROFILES)),
        help="inject NAND faults using this profile "
             f"({', '.join(sorted(FAULT_PROFILES))}; default: none)",
    )
    p.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for the fault model's RNG (default: 0)",
    )
    p.add_argument(
        "--power-loss-at", type=int, default=None, metavar="N",
        help="cut power right after request N, losing the dirty cache, "
             "then remount and continue (default: never)",
    )
    p.add_argument(
        "--capacitor-pages", type=int, default=0, metavar="PAGES",
        help="power-loss-protection budget: dirty pages the hold-up "
             "capacitors can still flush (default: 0)",
    )
    _add_tenant_args(p)
    _add_metrics_args(p)
    add_resilience_args(p)
    _add_flight_args(p)
    _add_ledger_args(p)
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("compare", help="compare several policies on one workload")
    p.add_argument("workload")
    p.add_argument(
        "--policies", nargs="+", default=list(PAPER_COMPARISON),
        choices=available_policies(),
    )
    p.add_argument("--cache-mb", type=int, default=16)
    p.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    p.add_argument("--csv", default=None, help="also write summaries to CSV")
    p.add_argument("--json", default=None, help="also write summaries to JSON")
    p.add_argument(
        "--profile", action="store_true",
        help="print a wall-clock phase-profile table per policy",
    )
    p.add_argument(
        "--jobs", "-j", type=positive_int, default=None, metavar="N",
        help="replay the policies in N worker processes (results "
             "byte-identical to the serial path; incompatible with "
             "--profile; default: serial)",
    )
    _add_tenant_args(p)
    add_resilience_args(p)
    _add_ledger_args(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser(
        "metrics", help="summarise a --metrics-out JSONL time series"
    )
    p.add_argument("file", help="JSONL file written by replay --metrics-out")
    p.add_argument(
        "--filter", default=None, metavar="SUBSTR",
        help="only show metrics whose name contains SUBSTR",
    )
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p.add_argument("name", choices=sorted(_EXPERIMENTS))
    p.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    # No ``choices``: a name that is not a paper workload is loaded as
    # an MSR CSV path (``repro.sim.sweep._job_trace``).
    p.add_argument("--workloads", nargs="+", default=list(WORKLOAD_ORDER))
    add_worker_args(p)
    _add_ledger_args(p)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser(
        "analyze", help="reuse-distance / miss-ratio analysis of a workload"
    )
    p.add_argument("workload", help="paper workload name or MSR CSV path")
    p.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser(
        "runs", help="list, show, or diff recorded runs (the run ledger)"
    )
    p.add_argument("action", choices=("list", "show", "diff"))
    p.add_argument(
        "run", nargs="*",
        help="run id, unique prefix, or 'latest' (show: one; diff: two)",
    )
    p.add_argument(
        "--runs-dir", default=None, metavar="DIR",
        help="run-ledger directory (default: REPRO_RUNS_DIR, then ./runs)",
    )
    p.set_defaults(func=_cmd_runs)

    p = sub.add_parser(
        "report", help="anomaly-timeline report for one recorded run"
    )
    p.add_argument(
        "run",
        help="run id, unique prefix, or 'latest'",
    )
    p.add_argument(
        "--runs-dir", default=None, metavar="DIR",
        help="run-ledger directory (default: REPRO_RUNS_DIR, then ./runs)",
    )
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("policies", help="list registered cache policies")
    p.set_defaults(func=_cmd_policies)

    p = sub.add_parser("workloads", help="characterise the paper workloads")
    p.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    p.set_defaults(func=_cmd_workloads)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Parse ``argv`` (default: sys.argv) and dispatch; returns exit code.

    Simulation commands get a :class:`~repro.sim.ledger.RunLedger`
    opened before dispatch and finished with the handler's exit code
    (``--no-ledger`` opts out; query commands never mint one), so even
    a run that dies on an exception leaves a ``run.json`` behind.
    """
    args = build_parser().parse_args(argv)
    ledger = None
    if args.command not in _LEDGER_EXEMPT and not getattr(
        args, "no_ledger", False
    ):
        from repro.sim.ledger import RunLedger, resolve_runs_dir

        ledger = RunLedger(
            command=args.command,
            argv=list(argv) if argv is not None else sys.argv[1:],
            runs_dir=resolve_runs_dir(getattr(args, "runs_dir", None)),
        )
    args.ledger = ledger
    try:
        rc = args.func(args)
    except BaseException as exc:
        if ledger is not None:
            import traceback

            code = 130 if isinstance(exc, KeyboardInterrupt) else 1
            ledger.finish(code, error=traceback.format_exc())
        raise
    if ledger is not None:
        ledger.finish(rc)
    return rc


if __name__ == "__main__":
    sys.exit(main())
