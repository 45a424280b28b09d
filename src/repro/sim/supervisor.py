"""The shard executor: supervised workers, retry, watchdog timeouts,
checkpointing and salvage.

:func:`run_shards` runs a worker function over a payload list and
returns a :class:`SupervisedOutcome` whose ``results`` are in payload
order, whatever order the shards finished in.  It is the one executor
behind every parallel path: the experiment grids, ``sweep.run_jobs``,
``compare`` and trace-segment sharding
(:func:`repro.sim.parallel.replay_sharded`).

At most ``jobs`` worker processes each serve shard after shard over
their own pipe.  Forked workers inherit the worker function and the
payload list, and their tasks are shard indices; spawned ones (a fresh
interpreter) receive the function once and a payload with each task.
A worker that dies, is reaped by the watchdog or reports a failed
attempt is not reused: the parent starts a fresh one for the next
attempt, so a retry never runs in a process that failed.

Without a :class:`Supervision` policy a run is fail-fast: the first
failed shard raises :class:`~repro.sim.parallel.ShardError`, and a
``KeyboardInterrupt`` in the parent or in a worker (a SIGTERM to the
parent included) reaps every worker and re-raises.  ``jobs=1`` with
nothing to supervise runs inline, in order, with exceptions propagating
raw: the serial reference the equivalence tests compare against.  A
multi-hour sweep needs the resilience the simulated SSD itself models —
retry ladders, watchdog recovery, and mount-time salvage of whatever
survived — and supervision adds it:

* **Retry with deterministic backoff** — a failed or crashed shard is
  relaunched up to ``max_retries`` times; the backoff jitter derives
  from ``SeedSequence(retry_seed, spawn_key=(index, attempt))``
  (the engine's seed convention), so a retried schedule is
  reproducible.  Shard *results* are unaffected by retries: every
  attempt replays the same payload with the same seeds.
* **Watchdog timeouts** — with ``shard_timeout`` set, an attempt that
  exceeds its wall-clock budget is terminated (SIGTERM, then SIGKILL)
  and rescheduled like any other failure.  A hung worker can no longer
  hang the run, and its siblings keep running.
* **Crash-safe checkpointing** — with a journal attached
  (:mod:`repro.sim.checkpoint`), every completed shard is fsynced to
  disk before it counts; a resumed run loads the journal, skips the
  completed shards and re-merges byte-identical results.
* **Salvage** — with ``salvage=True``, a shard that exhausts its
  retries is recorded as failed instead of aborting the run; callers
  get the surviving results plus the failure manifest (coverage
  fraction, failed indices) and mark their merged output degraded,
  mirroring the controller's ``DegradedMode``.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing.connection import Connection, wait as connection_wait
from multiprocessing.util import register_after_fork
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.flight import FlightRecorder, activate, deactivate
from repro.sim import progress as frames
from repro.sim.checkpoint import CheckpointJournal, payload_digest, run_key
from repro.sim.parallel import ShardError, resolve_jobs, resolve_start_method

__all__ = [
    "EXIT_SALVAGED",
    "Supervision",
    "ShardFailure",
    "SupervisedOutcome",
    "SupervisorReport",
    "run_shards",
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
    """What one fan-out produced.

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


def _raise_terminated(signum: int, _frame: Any) -> None:
    raise _ShardTerminated(f"terminated by signal {signum}")


def _attempt(
    conn: Connection,
    worker: Callable[[Any], Any],
    index: int,
    payload: Any,
    flight: bool,
    frame_interval: Optional[float],
) -> bool:
    """Run one shard attempt in a worker and report it over ``conn``.

    Returns True when the attempt delivered its result; any other end
    stops the worker.  With ``flight`` set the attempt runs under a
    fresh ambient :class:`FlightRecorder` and SIGTERM raises
    :class:`_ShardTerminated`, so a reaped attempt unwinds through the
    replay's dump path and ships its last events back as a
    ``("flightdump", dump)`` message before the worker dies.  With
    ``frame_interval`` set a frame sink tagged with the shard index
    forwards live :class:`~repro.sim.progress.ProgressFrame` readings as
    ``("frame", frame)`` messages.  A result that fails to pickle is
    reported as a failure rather than dying silently.
    """
    recorder: Optional[FlightRecorder] = None
    if flight:
        recorder = activate(FlightRecorder())
        signal.signal(signal.SIGTERM, _raise_terminated)
    if frame_interval is not None:
        frames.set_frame_sink(
            lambda frame: _send_quiet(conn, ("frame", frame)),
            shard=index,
            interval_s=frame_interval,
        )
    try:
        result = worker(payload)
        if recorder is not None and recorder.last_dump is not None:
            # The replay recorded a dump but returned normally (an
            # aborted/degraded device run); ship it ahead of the result.
            _send_quiet(conn, ("flightdump", recorder.last_dump))
        conn.send(("ok", result))
        return True
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
    finally:
        if frame_interval is not None:
            frames.clear_frame_sink()
        if recorder is not None:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            deactivate()
    return False


def _serve(
    conn: Connection,
    worker: Callable[[Any], Any],
    payloads: Optional[List[Any]],
    flight: bool,
    frame_interval: Optional[float],
) -> None:
    """Worker process body: run attempts until told to stop or one fails.

    Under fork ``payloads`` is the inherited list and a task is a shard
    index; otherwise it is None and a task is an ``(index, payload)``
    pair.  ``None`` stops the worker.  SIGTERM is reset to its default
    so the watchdog's ``terminate()`` kills a stuck attempt promptly even
    when the parent installed its own handler before forking.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    while True:
        try:
            task = conn.recv()
        except EOFError:  # the parent is gone
            return
        if task is None:
            return
        index, payload = task if payloads is None else (task, payloads[task])
        if not _attempt(conn, worker, index, payload, flight, frame_interval):
            return


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


@contextmanager
def _sigterm_as_interrupt() -> Iterator[None]:
    """Convert SIGTERM to KeyboardInterrupt for the duration of a block.

    A parent killed by plain SIGTERM (batch scheduler, ``kill``) would
    otherwise die without running its ``except`` / ``finally``
    teardown, orphaning live workers.  Routing the signal through
    ``KeyboardInterrupt`` reuses the interrupt path: reap every worker,
    re-raise.  Signal handlers can only be installed from the main
    thread; elsewhere this is a no-op.
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


@dataclass
class _Attempt:
    index: int
    attempt: int
    ready_at: float


@dataclass
class _Worker:
    """One live worker process and the attempt it runs (None = idle)."""

    proc: Any
    conn: Connection
    attempt: Optional[_Attempt] = None
    #: Watchdog deadline of the running attempt (None = no watchdog).
    deadline: Optional[float] = None


def _reap(proc: Any) -> None:
    """Terminate and join one worker; escalate to SIGKILL if needed."""
    if proc.is_alive():
        proc.terminate()
    proc.join(_REAP_GRACE_S)
    if proc.is_alive():  # pragma: no cover - needs an unkillable child
        proc.kill()
        proc.join()


def run_shards(
    worker: Callable[[Any], Any],
    payloads: Sequence[Any],
    jobs: Optional[int] = None,
    start_method: Optional[str] = None,
    supervision: Optional[Supervision] = None,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    progress: Optional[frames.ProgressCallback] = None,
    flight: bool = False,
) -> SupervisedOutcome:
    """Run ``worker`` over ``payloads``; ``outcome.results`` in payload
    order.

    Under ``spawn`` and ``forkserver`` ``worker`` and every payload must
    be picklable (a module-level function and by-value job specs, as in
    :mod:`repro.sim.sweep`); forked workers inherit both.  With
    ``jobs=1`` and none of ``supervision``, ``checkpoint_path``,
    ``resume`` and ``flight`` set, the payloads run inline, in order,
    with exceptions propagating raw.  Otherwise at most ``jobs`` worker
    processes serve the shards.

    ``supervision`` sets retries, the watchdog and salvage (None: no
    retry, no watchdog, fail-fast).  ``checkpoint_path`` attaches a
    crash-safe journal; with ``resume`` an existing journal's completed
    shards are loaded instead of re-run (a missing file just starts
    fresh).  ``progress`` receives every
    :class:`~repro.sim.progress.ProgressFrame` of the run: one
    lifecycle frame per shard state change, and the live frames of the
    replay loops, tagged with the payload index.  Worker frames cross
    the pipe; an inline run installs ``progress`` itself as each
    payload's frame sink, so asking for progress starts no process.

    ``flight`` activates a :class:`~repro.obs.flight.FlightRecorder`
    for every attempt; a dying, timed-out, or aborted attempt ships its
    dump back, collected in ``outcome.flightdumps`` keyed by shard
    index.

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

    tracker = frames.EtaTracker(n)

    def _report(kind: str, index: int, attempt: int, detail: str = "") -> None:
        if progress:
            progress(tracker.frame(kind, index, attempt, detail))

    for index in sorted(completed):
        outcome.results[index] = completed[index]
        outcome.resumed += 1
        tracker.mark_done(resumed=True)
        _report("resumed", index, 0)

    # First attempts are ready now: a real clock reading, since the
    # monotonic clock's origin is arbitrary.
    start = time.monotonic()
    pending = [
        _Attempt(index=i, attempt=1, ready_at=start)
        for i in range(n)
        if i not in completed
    ]
    timeouts_by_index: Dict[int, int] = {}
    width = resolve_jobs(jobs, max(1, len(pending)))

    def _complete(att: _Attempt, value: Any) -> None:
        outcome.results[att.index] = value
        tracker.mark_done()
        if journal is not None:
            journal.append(att.index, digests[att.index], value)
        _report("done", att.index, att.attempt)

    def _fail_or_retry(att: _Attempt, detail: str) -> None:
        # A traceback's last line names the exception.
        last_line = detail.strip().splitlines()[-1] if detail.strip() else detail
        if att.attempt <= sup.max_retries:
            delay = sup.backoff_s(att.index, att.attempt)
            pending.append(
                _Attempt(att.index, att.attempt + 1, time.monotonic() + delay)
            )
            outcome.retries += 1
            _report("retry", att.index, att.attempt, last_line)
            return
        if not sup.salvage:
            raise ShardError(att.index, payloads[att.index], detail)
        outcome.failures.append(
            ShardFailure(
                index=att.index,
                attempts=att.attempt,
                timeouts=timeouts_by_index.get(att.index, 0),
                detail=detail,
            )
        )
        _report("failed", att.index, att.attempt, last_line)

    # Read per call, and shipped to workers by value, so that a changed
    # default reaches spawned workers too.
    interval = frames.DEFAULT_FRAME_INTERVAL_S if progress else None
    if (
        width == 1
        and supervision is None
        and not checkpoint_path
        and not resume
        and not flight
    ):
        # The serial reference: in order, in this process, raw errors.
        for att in pending:
            if progress:
                frames.set_frame_sink(progress, att.index, interval)
            try:
                value = worker(payloads[att.index])
            finally:
                if progress:
                    frames.clear_frame_sink()
            _complete(att, value)
        return outcome

    method = resolve_start_method(start_method)
    ctx = get_context(method)
    # Forked workers inherit the payload list and take shard indices;
    # a spawned worker inherits nothing, so its tasks carry payloads.
    inherited = payloads if method == "fork" else None
    workers: Dict[Connection, _Worker] = {}

    def _start() -> _Worker:
        conn, child_conn = ctx.Pipe()
        # A forked worker must not keep parent ends, its own or its
        # siblings': then each one reads EOF, and exits, once the
        # parent is gone.
        register_after_fork(conn, Connection.close)
        proc = ctx.Process(
            target=_serve,
            args=(child_conn, worker, inherited, flight, interval),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        workers[conn] = started = _Worker(proc, conn)
        return started

    def _retire(w: _Worker) -> None:
        """Forget a worker that has stopped or is stopping, and join it."""
        del workers[w.conn]
        w.conn.close()
        w.proc.join(_REAP_GRACE_S)
        _reap(w.proc)

    def _dispatch(now: float) -> None:
        """Hand ready attempts to idle workers, lowest shard index first
        for a deterministic schedule, starting workers up to ``width``.

        Every needed worker starts before any task is sent: a spawned
        worker takes its first task only once its interpreter is up.
        """
        ready = sorted(
            (a for a in pending if a.ready_at <= now), key=lambda a: a.index
        )
        idle = [w for w in workers.values() if w.attempt is None]
        while len(idle) < len(ready) and len(workers) < width:
            idle.append(_start())
        for w, att in zip(idle, ready):
            pending.remove(att)
            w.attempt = att
            if sup.shard_timeout is not None:
                w.deadline = now + sup.shard_timeout
            task = (att.index, payloads[att.index]) if inherited is None else att.index
            try:
                w.conn.send(task)
            except OSError:
                pass  # a worker that died idle reads as EOF below

    def _stream(att: _Attempt, status: str, value: Any) -> bool:
        """Handle a message that leaves its attempt running."""
        if status == "frame":
            if progress:
                try:
                    progress(value)
                except Exception:
                    pass
            return True
        if status == "flightdump":
            outcome.flightdumps.setdefault(att.index, value)
            return True
        return False

    def _receive(w: _Worker) -> None:
        att = w.attempt
        try:
            status, value = w.conn.recv()
        except (EOFError, OSError):
            _retire(w)
            if att is not None:
                _fail_or_retry(
                    att,
                    f"worker process died before reporting a result "
                    f"(exit code {w.proc.exitcode})",
                )
            return
        # Any further buffered message keeps the pipe readable, so
        # ``connection_wait`` returns it again.
        if _stream(att, status, value):
            return
        w.attempt = w.deadline = None
        if status == "ok":
            _complete(att, value)
            return
        _retire(w)  # a worker stops after a failed attempt
        if status == "interrupted":
            raise KeyboardInterrupt
        _fail_or_retry(att, str(value))

    def _time_out(w: _Worker) -> None:
        att = w.attempt
        del workers[w.conn]
        _reap(w.proc)
        # A flight-enabled worker's SIGTERM handler ships a dump on its
        # way down; collect whatever the reaped attempt left buffered.
        try:
            while w.conn.poll(0):
                _stream(att, *w.conn.recv())
        except (EOFError, OSError):
            pass
        w.conn.close()
        outcome.timeouts += 1
        timeouts_by_index[att.index] = timeouts_by_index.get(att.index, 0) + 1
        _report(
            "timeout",
            att.index,
            att.attempt,
            f"no result within {sup.shard_timeout:g}s",
        )
        _fail_or_retry(
            att,
            f"shard {att.index} timed out after "
            f"{sup.shard_timeout:g}s (attempt {att.attempt})",
        )

    try:
        with _sigterm_as_interrupt():
            while True:
                _dispatch(time.monotonic())
                busy = [w for w in workers.values() if w.attempt is not None]
                if not busy and not pending:
                    break
                # Wake for the next message, watchdog deadline, or
                # backoff expiry — whichever comes first.
                wake = [w.deadline for w in busy if w.deadline is not None]
                if pending and len(busy) < width:
                    wake.append(min(a.ready_at for a in pending))
                timeout = (
                    max(0.0, min(wake) - time.monotonic()) if wake else None
                )
                if not busy:
                    # Everything left is backing off.
                    time.sleep(timeout)
                    continue
                for conn in connection_wait(list(workers), timeout=timeout):
                    _receive(workers[conn])
                now = time.monotonic()
                for w in [
                    w
                    for w in workers.values()
                    if w.deadline is not None and now >= w.deadline
                ]:
                    _time_out(w)
    except BaseException:
        for w in workers.values():
            _reap(w.proc)
            w.conn.close()
        raise
    else:
        for w in workers.values():
            _send_quiet(w.conn, None)
        for w in list(workers.values()):
            _retire(w)
    finally:
        if journal is not None:
            journal.close()
    return outcome
