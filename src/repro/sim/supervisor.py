"""Shard supervision: retry, watchdog timeouts, checkpointing, salvage.

:func:`repro.sim.parallel.run_shards` is fail-fast by design: the first
worker error aborts the whole fan-out, a hung worker hangs the run, and
a crash loses every completed shard.  That is the right default for
tests, but a multi-hour experiment sweep needs the same resilience the
simulated SSD itself models — retry ladders, watchdog recovery, and
mount-time salvage of whatever survived.  This module supervises each
shard in its own worker process:

* **Retry with deterministic backoff** — a failed or crashed shard is
  relaunched up to ``max_retries`` times; the backoff jitter derives
  from ``SeedSequence(retry_seed, spawn_key=(index, attempt))``
  (the engine's seed convention), so a retried schedule is
  reproducible.  Shard *results* are unaffected by retries: every
  attempt replays the same payload with the same seeds.
* **Watchdog timeouts** — with ``shard_timeout`` set, an attempt that
  exceeds its wall-clock budget is terminated (SIGTERM, then SIGKILL)
  and rescheduled like any other failure.  A hung worker can no longer
  hang the run.
* **Crash-safe checkpointing** — with a journal attached
  (:mod:`repro.sim.checkpoint`), every completed shard is fsynced to
  disk before it counts; a resumed run loads the journal, skips the
  completed shards and re-merges byte-identical results.
* **Salvage** — with ``salvage=True``, a shard that exhausts its
  retries is recorded as failed instead of aborting the run; callers
  get the surviving results plus the failure manifest (coverage
  fraction, failed indices) and mark their merged output degraded,
  mirroring the controller's ``DegradedMode``.

Supervision runs one OS process per shard attempt (at most ``jobs``
concurrently).  Unlike a shared pool, a stuck or killed attempt can be
reaped without poisoning its siblings — the same isolation argument as
per-plane bad-block management.  The process-per-attempt overhead is
noise against replay-sized shards; use plain :func:`run_shards` for
micro-payloads.
"""

from __future__ import annotations

import os
import signal
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing.connection import Connection, wait as connection_wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.events import ShardRetry, ShardSalvage, ShardTimeout
from repro.obs.flight import FlightRecorder, activate, deactivate
from repro.sim.checkpoint import CheckpointJournal, payload_digest, run_key
from repro.sim.telemetry import (
    DEFAULT_FRAME_INTERVAL_S,
    TelemetryFrame,
    clear_frame_sink,
    set_frame_sink,
)
from repro.sim.parallel import (
    ShardError,
    _sigterm_as_interrupt,
    resolve_jobs,
    resolve_start_method,
)
from repro.sim.progress import EtaTracker, ProgressCallback

__all__ = [
    "EXIT_SALVAGED",
    "Supervision",
    "ShardFailure",
    "SupervisedOutcome",
    "SupervisorReport",
    "run_shards_supervised",
]

#: Process exit code for a salvaged (degraded but delivered) run —
#: distinct from argparse's 2 and the device-fatal ``EXIT_ABORTED`` 3.
EXIT_SALVAGED = 4

#: Grace period between SIGTERM and SIGKILL when reaping a worker.
_REAP_GRACE_S = 5.0


@dataclass(frozen=True)
class Supervision:
    """Retry/timeout/salvage policy for one supervised fan-out."""

    #: Relaunches allowed per shard after its first attempt.
    max_retries: int = 0
    #: Wall-clock budget per attempt in seconds (None = no watchdog).
    shard_timeout: Optional[float] = None
    #: First-retry backoff; doubles per attempt up to ``backoff_cap_s``.
    backoff_base_s: float = 0.25
    backoff_cap_s: float = 30.0
    #: Keep going when a shard exhausts its retries, reporting it in
    #: the outcome's failure manifest instead of raising.
    salvage: bool = False
    #: Entropy for the deterministic backoff jitter.
    retry_seed: int = 0

    def backoff_s(self, index: int, attempt: int) -> float:
        """Backoff before retrying ``index`` after failed ``attempt``.

        Exponential in the attempt number with deterministic jitter in
        ``[0.5, 1.0]×`` derived from ``(retry_seed, index, attempt)``
        via ``SeedSequence`` spawn keys — the repo's seed convention —
        so two runs of the same schedule back off identically while
        distinct shards stay decorrelated.
        """
        if self.backoff_base_s <= 0.0:
            return 0.0
        base = min(
            self.backoff_cap_s,
            self.backoff_base_s * (2.0 ** (attempt - 1)),
        )
        ss = np.random.SeedSequence(
            entropy=int(self.retry_seed), spawn_key=(int(index), int(attempt))
        )
        u = int(ss.generate_state(1, dtype=np.uint64)[0]) / 2.0**64
        return base * (0.5 + 0.5 * u)


@dataclass(frozen=True)
class ShardFailure:
    """One shard that exhausted its retries."""

    index: int
    #: Attempts executed (first try + retries).
    attempts: int
    #: How many of those attempts were watchdog timeouts.
    timeouts: int
    #: Last attempt's traceback / timeout description.
    detail: str


@dataclass
class SupervisedOutcome:
    """What one supervised fan-out produced.

    ``results`` is payload-ordered; a salvaged-away shard leaves
    ``None`` at its index and an entry in ``failures``.
    """

    results: List[Any]
    failures: List[ShardFailure] = field(default_factory=list)
    retries: int = 0
    timeouts: int = 0
    #: Shards skipped because the checkpoint journal already held them.
    resumed: int = 0
    #: shard index -> flight dump shipped back by a flight-enabled
    #: worker (first dump per shard wins, like the recorder itself).
    flightdumps: Dict[int, Any] = field(default_factory=dict)

    @property
    def n_shards(self) -> int:
        return len(self.results)

    @property
    def failed_indices(self) -> Tuple[int, ...]:
        return tuple(sorted(f.index for f in self.failures))

    @property
    def complete(self) -> bool:
        """True when every shard produced a result."""
        return not self.failures

    @property
    def coverage(self) -> float:
        """Fraction of planned shards that completed."""
        if not self.results:
            return 1.0
        return 1.0 - len(self.failures) / len(self.results)


@dataclass
class SupervisorReport:
    """Accumulates outcomes across the several fan-outs of one command.

    An experiment may issue more than one ``run_jobs`` call; the CLI
    hands every call this report so it can decide one exit code (and
    suffix per-call checkpoint paths) afterwards.
    """

    outcomes: List[SupervisedOutcome] = field(default_factory=list)

    def add(self, outcome: SupervisedOutcome) -> None:
        self.outcomes.append(outcome)

    @property
    def calls(self) -> int:
        return len(self.outcomes)

    @property
    def failures(self) -> List[ShardFailure]:
        return [f for o in self.outcomes for f in o.failures]

    @property
    def salvaged(self) -> bool:
        return any(o.failures for o in self.outcomes)

    @property
    def retries(self) -> int:
        return sum(o.retries for o in self.outcomes)

    @property
    def timeouts(self) -> int:
        return sum(o.timeouts for o in self.outcomes)

    @property
    def resumed(self) -> int:
        return sum(o.resumed for o in self.outcomes)

    @property
    def flightdumps(self) -> List[Any]:
        """Every flight dump shipped back, across all fan-outs."""
        return [
            dump
            for o in self.outcomes
            for _, dump in sorted(o.flightdumps.items())
        ]

    def describe(self) -> str:
        """One-line summary for the CLI's stderr report."""
        total = sum(o.n_shards for o in self.outcomes)
        failed = len(self.failures)
        return (
            f"{total - failed}/{total} shards completed "
            f"({self.retries} retries, {self.timeouts} timeouts, "
            f"{self.resumed} resumed); failed shards: "
            f"{sorted(f.index for f in self.failures) or 'none'}"
        )


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def _send_quiet(conn: Connection, message: Any) -> None:
    try:
        conn.send(message)
    except Exception:
        pass


class _ShardTerminated(BaseException):
    """Raised inside a flight-enabled worker by its SIGTERM handler.

    Deliberately a ``BaseException`` (and *not* ``KeyboardInterrupt``):
    it must unwind through any worker-level ``except Exception`` cleanup
    so the flight dump ships, and the parent must see the attempt as
    *failed* (retryable/salvageable), not as a user interrupt.
    """


def _child_entry(
    conn: Connection,
    worker: Callable[[Any], Any],
    payload: Any,
    index: int = 0,
    flight: bool = False,
    telemetry_interval: Optional[float] = None,
) -> None:
    """Supervised worker body: one attempt, result over the pipe.

    By default the SIGTERM disposition is reset so the watchdog's
    ``terminate()`` kills a stuck attempt promptly even when the parent
    installed its own handler before forking.  With ``flight`` set the
    worker instead activates an ambient :class:`FlightRecorder` and
    turns SIGTERM into :class:`_ShardTerminated`, so a reaped attempt
    unwinds through the replay's dump path and ships its last events
    back as a ``("flightdump", dump)`` message before dying.  With
    ``telemetry_interval`` set the worker installs a frame sink that
    forwards :class:`TelemetryFrame` progress readings as
    ``("frame", frame)`` messages.  Results that fail to pickle are
    reported as failures rather than dying silently.
    """
    recorder: Optional[FlightRecorder] = None
    if flight:
        recorder = FlightRecorder()
        activate(recorder)

        def _on_term(signum: int, _frame: Any) -> None:
            raise _ShardTerminated(f"terminated by signal {signum}")

        try:
            signal.signal(signal.SIGTERM, _on_term)
        except (ValueError, OSError):  # pragma: no cover - exotic platforms
            pass
    else:
        try:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
        except (ValueError, OSError):  # pragma: no cover - exotic platforms
            pass
    if telemetry_interval is not None:
        set_frame_sink(
            lambda frame: _send_quiet(conn, ("frame", frame)),
            shard=index,
            interval_s=telemetry_interval,
        )
    try:
        result = worker(payload)
    except KeyboardInterrupt:
        _send_quiet(conn, ("interrupted", None))
    except BaseException as exc:
        if recorder is not None:
            # First recorded dump wins: if the replay loop already
            # snapshot the abort, this is a no-op that returns it.
            dump = recorder.record_dump(
                f"worker_death: {type(exc).__name__}: {exc}",
                context={"shard": index},
            )
            _send_quiet(conn, ("flightdump", dump))
        _send_quiet(conn, ("failed", traceback.format_exc()))
    else:
        if recorder is not None and recorder.last_dump is not None:
            # The replay recorded a dump but returned normally (an
            # aborted/degraded device run); ship it ahead of the result.
            _send_quiet(conn, ("flightdump", recorder.last_dump))
        try:
            conn.send(("ok", result))
        except Exception:
            _send_quiet(conn, ("failed", traceback.format_exc()))
    finally:
        if telemetry_interval is not None:
            clear_frame_sink()
        if recorder is not None:
            deactivate()
        conn.close()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


@dataclass
class _Attempt:
    index: int
    attempt: int
    ready_at: float


@dataclass
class _Running:
    proc: Any
    index: int
    attempt: int
    started: float
    deadline: Optional[float]


def _reap(proc: Any) -> None:
    """Terminate and join one worker; escalate to SIGKILL if needed."""
    if proc.is_alive():
        proc.terminate()
    proc.join(_REAP_GRACE_S)
    if proc.is_alive():  # pragma: no cover - needs an unkillable child
        proc.kill()
        proc.join()


def run_shards_supervised(
    worker: Callable[[Any], Any],
    payloads: Sequence[Any],
    jobs: Optional[int] = None,
    start_method: Optional[str] = None,
    supervision: Optional[Supervision] = None,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    progress: Optional[ProgressCallback] = None,
    metrics: Optional[Any] = None,
    tracer: Optional[Any] = None,
    flight: bool = False,
    telemetry: Optional[Callable[[TelemetryFrame], None]] = None,
) -> SupervisedOutcome:
    """Run ``worker`` over ``payloads`` under supervision.

    Same contract as :func:`repro.sim.parallel.run_shards` — picklable
    worker and payloads, results in payload order — plus the
    resilience semantics of :class:`Supervision`.  Each attempt runs in
    its own process (at most ``jobs`` at a time), so one shard's hang
    or crash never poisons another's worker.

    ``checkpoint_path`` attaches a crash-safe journal; with ``resume``
    an existing journal's completed shards are loaded instead of
    re-run (a missing file just starts fresh).  ``metrics`` (a
    :class:`~repro.obs.metrics.MetricsRegistry`) receives
    ``shards.*_total`` counters; ``tracer`` receives
    :class:`~repro.obs.events.ShardRetry` /
    :class:`~repro.obs.events.ShardTimeout` /
    :class:`~repro.obs.events.ShardSalvage` events.

    ``flight`` activates a :class:`~repro.obs.flight.FlightRecorder`
    inside every worker; a dying, timed-out, or aborted attempt ships
    its dump back, collected in ``outcome.flightdumps`` keyed by shard
    index.  ``telemetry`` (a callable taking
    :class:`~repro.sim.telemetry.TelemetryFrame`) turns on live
    progress frames from the replay loops inside workers.

    Raises :class:`~repro.sim.parallel.ShardError` when a shard
    exhausts its retries and ``salvage`` is off; with ``salvage`` on it
    returns the surviving results and the failure manifest.
    """
    payloads = list(payloads)
    n = len(payloads)
    sup = supervision if supervision is not None else Supervision()
    outcome = SupervisedOutcome(results=[None] * n)
    if n == 0:
        return outcome

    counters = None
    if metrics is not None:
        counters = {
            "completed": metrics.counter("shards.completed_total"),
            "retried": metrics.counter("shards.retried_total"),
            "timeout": metrics.counter("shards.timeout_total"),
            "failed": metrics.counter("shards.failed_total"),
            "resumed": metrics.counter("shards.resumed_total"),
        }
    emit = tracer is not None and getattr(tracer, "enabled", False)

    # -- checkpoint journal ------------------------------------------------
    journal: Optional[CheckpointJournal] = None
    digests: List[str] = []
    completed: Dict[int, Any] = {}
    if checkpoint_path:
        digests = [payload_digest(p) for p in payloads]
        key = run_key(worker, digests)
        if resume and os.path.exists(checkpoint_path):
            journal, completed, _torn = CheckpointJournal.resume(
                checkpoint_path, key, n
            )
        else:
            journal = CheckpointJournal.create(checkpoint_path, key, n)

    tracker = EtaTracker(n)
    for index in sorted(completed):
        outcome.results[index] = completed[index]
        outcome.resumed += 1
        tracker.mark_done()
        if counters:
            counters["resumed"].inc()
        if progress:
            progress(tracker.event("resumed", index, 0))

    # First attempts are ready now: a real clock reading, since the
    # monotonic clock's origin is arbitrary.
    start = time.monotonic()
    pending = [
        _Attempt(index=i, attempt=1, ready_at=start)
        for i in range(n)
        if i not in completed
    ]
    running: Dict[Connection, _Running] = {}
    timeouts_by_index: Dict[int, int] = {}
    width = resolve_jobs(jobs, max(1, len(pending)))
    ctx = get_context(resolve_start_method(start_method))

    def _complete(run: _Running, value: Any) -> None:
        outcome.results[run.index] = value
        tracker.mark_done()
        if journal is not None:
            journal.append(run.index, digests[run.index], value)
        if counters:
            counters["completed"].inc()
        if progress:
            progress(tracker.event("done", run.index, run.attempt))

    def _fail_or_retry(run: _Running, detail: str) -> None:
        first_line = detail.strip().splitlines()[-1] if detail.strip() else detail
        if run.attempt <= sup.max_retries:
            delay = sup.backoff_s(run.index, run.attempt)
            pending.append(
                _Attempt(run.index, run.attempt + 1, time.monotonic() + delay)
            )
            outcome.retries += 1
            if counters:
                counters["retried"].inc()
            if emit:
                tracer.emit(
                    ShardRetry(
                        tracker.elapsed_s(), run.index, run.attempt, first_line
                    )
                )
            if progress:
                progress(
                    tracker.event("retry", run.index, run.attempt, first_line)
                )
            return
        failure = ShardFailure(
            index=run.index,
            attempts=run.attempt,
            timeouts=timeouts_by_index.get(run.index, 0),
            detail=detail,
        )
        if counters:
            counters["failed"].inc()
        if not sup.salvage:
            raise ShardError(run.index, payloads[run.index], detail)
        outcome.failures.append(failure)
        if progress:
            progress(tracker.event("failed", run.index, run.attempt, first_line))

    try:
        with _sigterm_as_interrupt():
            while pending or running:
                now = time.monotonic()
                # Launch every ready attempt a free slot can take,
                # lowest shard index first for a deterministic schedule.
                while len(running) < width and pending:
                    ready = [a for a in pending if a.ready_at <= now]
                    if not ready:
                        break
                    att = min(ready, key=lambda a: a.index)
                    pending.remove(att)
                    parent_conn, child_conn = ctx.Pipe(duplex=False)
                    proc = ctx.Process(
                        target=_child_entry,
                        args=(
                            child_conn,
                            worker,
                            payloads[att.index],
                            att.index,
                            flight,
                            DEFAULT_FRAME_INTERVAL_S
                            if telemetry is not None
                            else None,
                        ),
                        daemon=True,
                    )
                    proc.start()
                    child_conn.close()
                    deadline = (
                        now + sup.shard_timeout
                        if sup.shard_timeout is not None
                        else None
                    )
                    running[parent_conn] = _Running(
                        proc, att.index, att.attempt, now, deadline
                    )
                if not running:
                    # Everything left is backing off; sleep to the
                    # earliest ready time.
                    delay = min(a.ready_at for a in pending) - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
                    continue
                # Wait for the next result, watchdog deadline, or
                # backoff expiry — whichever comes first.
                wake_times = [
                    r.deadline for r in running.values() if r.deadline is not None
                ]
                if len(running) < width and pending:
                    wake_times.append(min(a.ready_at for a in pending))
                timeout = (
                    max(0.0, min(wake_times) - time.monotonic())
                    if wake_times
                    else None
                )
                for conn in connection_wait(list(running), timeout=timeout):
                    run = running[conn]
                    try:
                        status, value = conn.recv()
                    except (EOFError, OSError):
                        running.pop(conn)
                        conn.close()
                        run.proc.join()
                        _fail_or_retry(
                            run,
                            f"worker process died before reporting a result "
                            f"(exit code {run.proc.exitcode})",
                        )
                        continue
                    # Streaming messages leave the attempt running; any
                    # further buffered message keeps the FD readable so
                    # ``connection_wait`` returns this conn again.
                    if status == "frame":
                        if telemetry is not None:
                            try:
                                telemetry(value)
                            except Exception:
                                pass
                        continue
                    if status == "flightdump":
                        outcome.flightdumps.setdefault(run.index, value)
                        continue
                    running.pop(conn)
                    conn.close()
                    run.proc.join()
                    if status == "ok":
                        _complete(run, value)
                    elif status == "interrupted":
                        raise KeyboardInterrupt
                    else:
                        _fail_or_retry(run, str(value))
                # Watchdog: reap attempts past their deadline.
                now = time.monotonic()
                for conn in [
                    c
                    for c, r in running.items()
                    if r.deadline is not None and now >= r.deadline
                ]:
                    run = running.pop(conn)
                    _reap(run.proc)
                    # A flight-enabled worker's SIGTERM handler ships a
                    # dump on its way down; collect whatever the dead
                    # attempt left buffered before closing the pipe.
                    try:
                        while conn.poll(0):
                            status, value = conn.recv()
                            if status == "flightdump":
                                outcome.flightdumps.setdefault(
                                    run.index, value
                                )
                            elif status == "frame" and telemetry is not None:
                                telemetry(value)
                    except (EOFError, OSError):
                        pass
                    conn.close()
                    outcome.timeouts += 1
                    timeouts_by_index[run.index] = (
                        timeouts_by_index.get(run.index, 0) + 1
                    )
                    if counters:
                        counters["timeout"].inc()
                    if emit:
                        tracer.emit(
                            ShardTimeout(
                                tracker.elapsed_s(),
                                run.index,
                                run.attempt,
                                float(sup.shard_timeout or 0.0),
                            )
                        )
                    if progress:
                        progress(
                            tracker.event(
                                "timeout",
                                run.index,
                                run.attempt,
                                f"no result within {sup.shard_timeout:g}s",
                            )
                        )
                    _fail_or_retry(
                        run,
                        f"shard {run.index} timed out after "
                        f"{sup.shard_timeout:g}s (attempt {run.attempt})",
                    )
    except BaseException:
        for run in running.values():
            _reap(run.proc)
        raise
    finally:
        if journal is not None:
            journal.close()

    if outcome.failures and emit:
        tracer.emit(
            ShardSalvage(
                tracker.elapsed_s(), outcome.failed_indices, outcome.coverage
            )
        )
    return outcome
