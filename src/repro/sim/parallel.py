"""Sharded parallel experiment engine.

Every paper figure multiplies (policy x trace x config) cells, and each
cell is an independent deterministic replay — embarrassingly parallel
work that previously only the sweep module fanned out, with a
hard-coded ``fork`` start method and no error reporting.  This module
is the general engine underneath all of it:

* :func:`run_shards` — run a picklable worker over a payload list on a
  process pool, returning results **in payload order** regardless of
  worker completion order.  ``jobs=1`` bypasses the pool entirely and
  runs the exact legacy serial path.  Worker failures surface as a
  :class:`ShardError` carrying the shard index and the worker's
  traceback (never a hang); a ``KeyboardInterrupt`` — in the parent or
  in a worker — tears the pool down and re-raises.
* :func:`plan_segments` / :func:`shard_trace` /
  :func:`replay_sharded` — *trace-segment* sharding for one huge
  trace: contiguous, balanced request slices, each replayed on its own
  cold cache/device in a worker, reduced with
  :func:`repro.sim.metrics.merge_metrics` in segment order.
* :func:`derive_shard_seed` — per-shard RNG seed derivation
  (``numpy.random.SeedSequence`` spawn keys), following the repo's
  explicit-seed convention (``repro.utils.rng.resolve_rng``): no
  module-level RNG, identical seeds give identical shard streams, and
  distinct shards never alias each other's streams.

Determinism contract (pinned by ``tests/sim/test_parallel_*``): for a
fixed payload list, the result list — and therefore any merged metrics
and chained eviction digests — is byte-identical whatever ``jobs``
count, start method, or worker completion order produced it.  Cell
results are bit-equal to a single-process replay of the same cell;
segment-sharded results are bit-equal across worker counts (but *not*
to an unsharded replay, since each segment starts cold — see
``docs/parallel.md``).
"""

from __future__ import annotations

import os
import signal
import threading
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, replace
from multiprocessing import get_all_start_methods, get_context
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.metrics import ReplayMetrics, merge_metrics
from repro.sim.progress import EtaTracker, ProgressCallback
from repro.sim.replay import ReplayConfig, replay_cache_only, replay_trace
from repro.traces.io import trace_columns, trace_from_columns
from repro.traces.model import Trace

__all__ = [
    "ShardError",
    "ShardSpec",
    "ShardPlan",
    "resolve_start_method",
    "resolve_jobs",
    "derive_shard_seed",
    "run_shards",
    "plan_segments",
    "shard_trace",
    "replay_sharded",
]

#: Environment override for the default worker count (``--jobs`` /
#: ``processes=`` arguments win over it).
JOBS_ENV = "REPRO_JOBS"
#: Environment override for the pool start method.
START_METHOD_ENV = "REPRO_START_METHOD"


class ShardError(RuntimeError):
    """A worker failed while executing one shard.

    Raised in the parent with the shard's index, a repr of its payload
    and the worker-side traceback, after the pool has been torn down —
    a failing shard never hangs the run or loses its diagnosis to a
    pickling-unfriendly exception type.
    """

    def __init__(self, index: int, payload: Any, detail: str) -> None:
        self.shard_index = index
        self.payload = payload
        self.detail = detail
        shown = repr(payload)
        if len(shown) > 200:
            shown = shown[:200] + "..."
        super().__init__(
            f"shard {index} ({shown}) failed in worker:\n{detail}"
        )

    def __reduce__(self) -> Tuple[Any, Tuple[Any, ...]]:
        # RuntimeError's default reduce replays __init__ with the
        # formatted message as the only argument, which crashes the
        # three-argument signature above; rebuild from the real fields
        # so the error crosses a spawn boundary with its traceback.
        return (ShardError, (self.shard_index, self.payload, self.detail))


def resolve_start_method(preferred: Optional[str] = None) -> str:
    """The multiprocessing start method the engine should use.

    ``preferred`` (or the ``REPRO_START_METHOD`` environment variable)
    wins when it is available on the platform; otherwise ``fork`` is
    chosen where the OS supports it (workers share the already-imported
    package and the parent's memoised traces for free) with ``spawn``
    as the portable fallback (macOS default since 3.8, Windows always).
    """
    methods = get_all_start_methods()
    if preferred is None:
        preferred = os.environ.get(START_METHOD_ENV) or None
    if preferred is not None:
        if preferred not in methods:
            raise ValueError(
                f"start method {preferred!r} unavailable on this platform "
                f"(have: {', '.join(methods)})"
            )
        return preferred
    return "fork" if "fork" in methods else "spawn"


def resolve_jobs(jobs: Optional[int], n_tasks: int) -> int:
    """Effective worker count: explicit > ``REPRO_JOBS`` > CPU count,
    clamped to the task count and floored at 1."""
    if jobs is None:
        env = os.environ.get(JOBS_ENV)
        jobs = int(env) if env else (os.cpu_count() or 1)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return max(1, min(jobs, n_tasks or 1))


def derive_shard_seed(seed: int, index: int) -> int:
    """Deterministic per-shard seed from a base seed and a shard index.

    Uses ``numpy.random.SeedSequence`` spawn keys — the same mechanism
    ``default_rng`` seeds from — so shard streams are statistically
    independent of each other and of the base stream, yet fully
    determined by ``(seed, index)`` on every platform.  Shard workers
    feed the derived value through the normal ``seed=`` parameters
    (``resolve_rng`` convention); no generator state ever crosses the
    process boundary.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@contextmanager
def _sigterm_as_interrupt() -> Iterator[None]:
    """Convert SIGTERM to KeyboardInterrupt for the duration of a block.

    A pool parent killed by plain SIGTERM (batch scheduler, ``kill``)
    would otherwise die without running its ``except`` / ``finally``
    teardown, orphaning live workers.  Routing the signal through
    ``KeyboardInterrupt`` reuses the existing interrupt path:
    terminate, join, re-raise.  Signal handlers can only be installed
    from the main thread; elsewhere this is a no-op.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _raise(_signum: int, _frame: Any) -> None:
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _raise)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


# ----------------------------------------------------------------------
# Generic pool engine
# ----------------------------------------------------------------------

# Worker -> parent shard status markers.  Compared by value: they cross
# the process boundary by pickling, which does not preserve identity.
_OK = "ok"
_FAILED = "failed"
_INTERRUPTED = "interrupted"


def _run_shard(task: Tuple[Callable[[Any], Any], int, Any]) -> Tuple[int, str, Any]:
    """Pool-side wrapper: never lets an exception escape unpickled.

    Worker exceptions are flattened to their traceback text so the
    parent can always reconstruct a report, even for exception types
    that do not survive pickling; ``KeyboardInterrupt`` is forwarded as
    a status so the parent can tear the pool down and re-raise it.
    """
    worker, index, payload = task
    try:
        return index, _OK, worker(payload)
    except KeyboardInterrupt:
        return index, _INTERRUPTED, None
    except BaseException:
        return index, _FAILED, traceback.format_exc()


def run_shards(
    worker: Callable[[Any], Any],
    payloads: Sequence[Any],
    jobs: Optional[int] = None,
    start_method: Optional[str] = None,
    progress: Optional[ProgressCallback] = None,
) -> List[Any]:
    """Run ``worker`` over ``payloads``; results in payload order.

    ``worker`` and every payload must be picklable (a module-level
    function and by-value job specs, as in ``repro.sim.sweep``).  With
    ``jobs=1`` the pool is skipped entirely: payloads run inline, in
    order, with exceptions propagating raw — exactly the legacy serial
    path.  With ``jobs>1`` results are collected as workers finish
    (``imap_unordered``) but slotted back by index, so callers observe
    completion-order-independent output; a failing shard raises
    :class:`ShardError` and a ``KeyboardInterrupt`` anywhere (including
    a SIGTERM to the parent) terminates *and joins* the pool before
    re-raising — no orphaned workers on any exit path.

    ``progress`` receives one ``"done"``
    :class:`~repro.sim.progress.ProgressEvent` per completed shard (in
    completion order), on the inline path too.
    """
    payloads = list(payloads)
    n = len(payloads)
    if n == 0:
        return []
    jobs = resolve_jobs(jobs, n)
    tracker = EtaTracker(n) if progress is not None else None

    def _mark(index: int) -> None:
        if tracker is not None:
            tracker.mark_done()
            progress(tracker.event("done", index, 1))

    if jobs == 1:
        results = []
        for i, payload in enumerate(payloads):
            results.append(worker(payload))
            _mark(i)
        return results
    ctx = get_context(resolve_start_method(start_method))
    tasks = [(worker, i, payload) for i, payload in enumerate(payloads)]
    results = [None] * n
    pool = ctx.Pool(jobs)
    try:
        with _sigterm_as_interrupt():
            for index, status, value in pool.imap_unordered(_run_shard, tasks):
                if status == _FAILED:
                    raise ShardError(index, payloads[index], value)
                if status == _INTERRUPTED:
                    raise KeyboardInterrupt
                results[index] = value
                _mark(index)
    except BaseException:
        pool.terminate()
        pool.join()
        raise
    else:
        pool.close()
        pool.join()
    return results


# ----------------------------------------------------------------------
# Trace-segment sharding
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardSpec:
    """One contiguous slice of a trace, with its derived seed."""

    index: int
    start: int
    stop: int
    #: Per-shard fault-model seed (see :func:`derive_shard_seed`).
    seed: int

    @property
    def n_requests(self) -> int:
        """Requests covered by this shard."""
        return self.stop - self.start


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic decomposition of one replay into shards.

    Pure data — the plan depends only on (trace length, shard count,
    base seed), never on worker count or scheduling, which is what lets
    two runs at different ``jobs`` merge to byte-identical results.
    """

    n_requests: int
    base_seed: int
    shards: Tuple[ShardSpec, ...]

    def __len__(self) -> int:
        return len(self.shards)


def plan_segments(
    n_requests: int, n_shards: int, base_seed: int = 0
) -> ShardPlan:
    """Balanced contiguous segmentation of ``n_requests`` requests.

    Shard sizes differ by at most one (the first ``n_requests mod
    n_shards`` shards take the extra request); the shard count is
    clamped to the request count so no shard is ever empty.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if n_requests == 0:
        return ShardPlan(n_requests=0, base_seed=base_seed, shards=())
    n_shards = min(n_shards, n_requests)
    base, extra = divmod(n_requests, n_shards)
    shards: List[ShardSpec] = []
    start = 0
    for i in range(n_shards):
        size = base + (1 if i < extra else 0)
        shards.append(
            ShardSpec(
                index=i,
                start=start,
                stop=start + size,
                seed=derive_shard_seed(base_seed, i),
            )
        )
        start += size
    return ShardPlan(n_requests=n_requests, base_seed=base_seed, shards=tuple(shards))


def shard_trace(trace: Trace, n_shards: int, base_seed: int = 0) -> List[Trace]:
    """Split a trace into the sub-traces of :func:`plan_segments`."""
    plan = plan_segments(len(trace), n_shards, base_seed)
    return [
        Trace(f"{trace.name}[{s.start}:{s.stop}]", trace.requests[s.start : s.stop])
        for s in plan.shards
    ]


#: ReplayConfig fields that cannot cross the process boundary or whose
#: whole-replay semantics do not decompose into independent segments.
_UNSHARDABLE = (
    ("tracer", "event tracers hold open file handles"),
    ("check_invariants", "invariant checkers attach to one live policy"),
    ("metrics", "a MetricsRegistry binds collectors to one process"),
    ("profile", "phase profiles measure one process's wall clock"),
    ("power_loss_at", "the request index is global to one device"),
    ("warmup_requests", "warmup is a prefix of the whole replay"),
    ("drain_at_end", "draining each segment changes the flush stream"),
)


def _check_shardable(config: ReplayConfig) -> None:
    for attr, why in _UNSHARDABLE:
        value = getattr(config, attr)
        bad = value is not None if attr == "power_loss_at" else bool(value)
        if bad:
            raise ValueError(
                f"segment-sharded replay does not support "
                f"ReplayConfig.{attr} ({why}); run unsharded or via the "
                f"cell-level sweep engine instead"
            )


def _replay_segment(
    payload: Tuple[str, Dict[str, np.ndarray], ReplayConfig, ShardSpec, bool],
) -> ReplayMetrics:
    """Worker: replay one trace segment on a fresh cache/device."""
    name, columns, config, spec, cache_only = payload
    trace = trace_from_columns(name, columns)
    shard_config = replace(config, fault_seed=spec.seed)
    runner = replay_cache_only if cache_only else replay_trace
    return runner(trace, shard_config)


def replay_sharded(
    trace: Trace,
    config: ReplayConfig,
    n_shards: Optional[int] = None,
    jobs: Optional[int] = None,
    start_method: Optional[str] = None,
    cache_only: bool = False,
    supervision: Optional[Any] = None,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    progress: Optional[ProgressCallback] = None,
    metrics: Optional[Any] = None,
    tracer: Optional[Any] = None,
    flight: bool = False,
    telemetry: Optional[Callable[[Any], None]] = None,
    flightdumps: Optional[List[Any]] = None,
) -> ReplayMetrics:
    """Replay one trace as independent segments and merge the metrics.

    Each shard replays its slice on its own cold cache and (for full
    replays) its own device sized for the slice, with its fault seed
    derived from ``(config.fault_seed, shard index)``; the parent
    reduces the shard metrics in segment order with
    :meth:`ReplayMetrics.merge`.  The merged result is byte-identical
    for any ``jobs`` value because the plan depends only on
    ``n_shards`` — but it is an *approximation* of the unsharded
    replay: caches restart cold at segment boundaries, so hit ratios
    dip slightly (quantified in ``docs/parallel.md``).  Use the
    cell-level engine when bit-equality with a serial replay is
    required; use this when one huge trace dominates wall-clock time.

    ``n_shards`` defaults to the effective job count, so the default
    decomposition exactly fills the pool.

    ``supervision`` / ``checkpoint_path`` / ``resume`` route the
    fan-out through :func:`repro.sim.supervisor.run_shards_supervised`
    (retry, watchdog timeouts, crash-safe checkpointing, salvage).  A
    salvaged run merges the surviving segments only and reports the
    damage on the merged metrics' :class:`~repro.faults.report
    .DurabilityReport` (``shards_failed``, ``shard_coverage``); a clean
    supervised run — including one resumed from a journal — merges
    byte-identically to an unsupervised one.

    ``flight`` activates a per-worker flight recorder and ``telemetry``
    a live progress-frame callback; both require the per-process
    supervisor pipes, so setting either routes the fan-out through the
    supervised engine even without an explicit ``supervision`` policy.
    Dumps shipped back by dying/aborted shards are appended (in shard
    order) to the caller-supplied ``flightdumps`` list.
    """
    _check_shardable(config)
    if n_shards is None:
        n_shards = resolve_jobs(jobs, len(trace))
    plan = plan_segments(len(trace), n_shards, config.fault_seed)
    # Segments travel as the four ``.npz`` columns (repro.traces.io):
    # pickling them costs a few buffer copies, where a tuple of request
    # objects costs a reduce/rebuild per request in each direction.
    payloads = [
        (
            f"{trace.name}[{s.start}:{s.stop}]",
            trace_columns(trace.requests[s.start : s.stop]),
            config,
            s,
            cache_only,
        )
        for s in plan.shards
    ]
    supervised = (
        supervision is not None
        or checkpoint_path is not None
        or resume
        or flight
        or telemetry is not None
    )
    outcome = None
    if supervised:
        from repro.sim.supervisor import run_shards_supervised

        outcome = run_shards_supervised(
            _replay_segment,
            payloads,
            jobs=jobs,
            start_method=start_method,
            supervision=supervision,
            checkpoint_path=checkpoint_path,
            resume=resume,
            progress=progress,
            metrics=metrics,
            tracer=tracer,
            flight=flight,
            telemetry=telemetry,
        )
        parts = [part for part in outcome.results if part is not None]
        if flightdumps is not None:
            flightdumps.extend(
                dump for _, dump in sorted(outcome.flightdumps.items())
            )
    else:
        parts = run_shards(
            _replay_segment,
            payloads,
            jobs=jobs,
            start_method=start_method,
            progress=progress,
        )
    merged = merge_metrics(parts)
    merged.trace_name = trace.name
    merged.policy_name = config.policy
    if len(trace):
        merged.cache_pages = config.cache_pages
    if outcome is not None and (
        outcome.failures or outcome.retries or outcome.timeouts
    ):
        # Only a damaged or bumpy run earns durability shard fields —
        # a clean resumed run must merge byte-identically to a plain
        # one, summary() included.
        from repro.faults.report import DurabilityReport

        durability = merged.durability or DurabilityReport()
        merged.durability = replace(
            durability,
            shards_planned=outcome.n_shards,
            shards_failed=outcome.failed_indices,
            shard_retries=outcome.retries,
            shard_timeouts=outcome.timeouts,
        )
    return merged
