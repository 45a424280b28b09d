"""Per-shard progress: one frame type, one emitter path, one printer.

A ``progress`` callback receives :class:`ProgressFrame` objects of two
kinds: ``"live"`` readings taken by the replay loops, and the shard
lifecycle changes that :func:`repro.sim.supervisor.run_shards` reports.
:class:`ProgressPrinter` renders both as the ``--progress`` output.

Live frames go to the ambient frame sink that the executor installs for
each shard attempt (:func:`set_frame_sink`): in a worker it forwards
them over the supervisor pipe, in an inline run it is the callback
itself.  The replay drivers ask :func:`make_emitter` for an emitter at
loop start; with no sink installed it returns None and the loops skip
frames entirely.  With one, the check piggybacks on the
metadata-sampling branch (every 256 requests, right after the replay
folds its pending chunk, so a frame's hit ratio covers every request it
counts) and a wall-clock rate limit keeps sends to about one per
``interval_s``, so frames never become hot-path traffic.

The ETA is ``elapsed / fresh * remaining``, where ``fresh`` counts the
shards completed in this run (resumed ones finished before the clock
started).  ``elapsed`` is wall-clock over the whole fan-out, so the
worker count is already priced in.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, TextIO, Tuple

__all__ = [
    "ProgressFrame",
    "ProgressCallback",
    "EtaTracker",
    "FrameEmitter",
    "ProgressPrinter",
    "set_frame_sink",
    "clear_frame_sink",
    "make_emitter",
    "DEFAULT_FRAME_INTERVAL_S",
    "DEFAULT_HEARTBEAT_S",
]

#: Minimum wall-clock seconds between live frames from one replay.
DEFAULT_FRAME_INTERVAL_S = 1.0

#: Minimum wall-clock seconds between two prints of the live lines.
DEFAULT_HEARTBEAT_S = 2.0


@dataclass(frozen=True)
class ProgressFrame:
    """One progress report (picklable: live frames cross the pipe).

    ``kind`` is ``"live"`` for an in-flight replay reading, or a shard
    lifecycle change: ``"done"`` (shard completed), ``"retry"`` (a
    failed attempt was rescheduled), ``"timeout"`` (the watchdog killed
    a hung worker), ``"failed"`` (retries exhausted; shard salvaged
    away) or ``"resumed"`` (result loaded from a checkpoint journal).
    """

    kind: str
    #: Shard index within the payload list (0 for an unsharded replay).
    shard: int
    #: Wall-clock seconds since the fan-out started (lifecycle frames)
    #: or since the shard's replay started (live frames).
    elapsed_s: float

    # Lifecycle frames.
    #: Attempt number the frame refers to (1-based; 0 for ``resumed``).
    attempt: int = 0
    #: Shards complete so far (including resumed ones).
    done: int = 0
    #: Total shards in the run.
    total: int = 0
    #: Estimated seconds to completion (None until a shard completes in
    #: this run).
    eta_s: Optional[float] = None
    #: Last line of the failure reason (a traceback's exception line),
    #: for retry/timeout/failed frames.
    detail: str = ""

    # Live frames.
    #: Replay phase the shard is in (``"replay"`` / ``"cache_only"``).
    phase: str = ""
    #: Requests replayed so far in this shard.
    requests: int = 0
    #: Requests this shard will replay in total (0 = unknown).
    total_requests: int = 0
    #: Page hit ratio accumulated so far.
    hit_ratio: float = 0.0
    #: GC block erases so far (0 on cache-only replays).
    gc_erases: int = 0

    @property
    def fraction(self) -> float:
        """Completed fraction (0.0 when the total is unknown)."""
        if self.total_requests <= 0:
            return 0.0
        return min(1.0, self.requests / self.total_requests)

    @property
    def req_per_s(self) -> float:
        """Mean replay throughput since the shard started."""
        return self.requests / self.elapsed_s if self.elapsed_s > 0 else 0.0


ProgressCallback = Callable[[ProgressFrame], None]


class EtaTracker:
    """Completion counting and the ETA estimate for one fan-out."""

    __slots__ = ("total", "done", "fresh", "_t0")

    def __init__(self, total: int) -> None:
        self.total = total
        self.done = 0
        #: Shards completed in this run (``done`` minus resumed ones).
        self.fresh = 0
        self._t0 = time.monotonic()

    def mark_done(self, resumed: bool = False) -> None:
        """Record one more completed shard."""
        self.done += 1
        if not resumed:
            self.fresh += 1

    def eta_s(self) -> Optional[float]:
        """Estimated seconds left: ``elapsed / fresh * remaining``."""
        if self.done >= self.total:
            return 0.0
        if self.fresh == 0:
            return None
        elapsed = time.monotonic() - self._t0
        return elapsed / self.fresh * (self.total - self.done)

    def frame(
        self, kind: str, shard: int, attempt: int, detail: str = ""
    ) -> ProgressFrame:
        """A lifecycle :class:`ProgressFrame` at the current state."""
        return ProgressFrame(
            kind=kind,
            shard=shard,
            elapsed_s=time.monotonic() - self._t0,
            attempt=attempt,
            done=self.done,
            total=self.total,
            eta_s=self.eta_s(),
            detail=detail,
        )


class FrameEmitter:
    """Worker-side live-frame builder with a wall-clock rate limit.

    ``maybe_emit`` is called from the replay loop's sampled branch; it
    returns immediately unless ``interval_s`` has elapsed since the last
    frame, so the cost per sampled request is one clock read and a
    compare.  Sink failures are swallowed: progress must never kill a
    shard that is otherwise computing fine (e.g. the parent went away).
    """

    __slots__ = (
        "sink",
        "shard",
        "phase",
        "total_requests",
        "interval_s",
        "_t0",
        "_last",
    )

    def __init__(
        self,
        sink: ProgressCallback,
        shard: int,
        total_requests: int,
        phase: str = "replay",
        interval_s: float = DEFAULT_FRAME_INTERVAL_S,
    ) -> None:
        self.sink = sink
        self.shard = shard
        self.phase = phase
        self.total_requests = total_requests
        self.interval_s = interval_s
        self._t0 = time.monotonic()
        self._last = self._t0

    def maybe_emit(self, index: int, hit_ratio: float, gc_erases: int) -> bool:
        """Ship a frame if the rate limit allows; returns whether sent."""
        now = time.monotonic()
        if now - self._last < self.interval_s:
            return False
        self._last = now
        frame = ProgressFrame(
            kind="live",
            shard=self.shard,
            elapsed_s=now - self._t0,
            phase=self.phase,
            requests=index + 1,
            total_requests=self.total_requests,
            hit_ratio=hit_ratio,
            gc_erases=gc_erases,
        )
        try:
            self.sink(frame)
        except Exception:
            return False
        return True


# ----------------------------------------------------------------------
# Ambient sink (installed for each shard attempt by the executor)
# ----------------------------------------------------------------------

#: (sink, shard, interval_s) of this process's installed frame sink.
_SINK: Optional[Tuple[ProgressCallback, int, float]] = None


def set_frame_sink(
    sink: ProgressCallback,
    shard: int = 0,
    interval_s: Optional[float] = None,
) -> None:
    """Install this process's frame sink (one per shard attempt).

    ``interval_s`` defaults to :data:`DEFAULT_FRAME_INTERVAL_S` as it
    reads at install time.
    """
    global _SINK
    if interval_s is None:
        interval_s = DEFAULT_FRAME_INTERVAL_S
    _SINK = (sink, shard, interval_s)


def clear_frame_sink() -> None:
    """Remove the frame sink (idempotent)."""
    global _SINK
    _SINK = None


def make_emitter(
    total_requests: int, phase: str = "replay"
) -> Optional[FrameEmitter]:
    """An emitter bound to the ambient sink, or None when no sink is
    installed (the default everywhere outside a ``--progress`` run)."""
    if _SINK is None:
        return None
    sink, shard, interval_s = _SINK
    return FrameEmitter(sink, shard, total_requests, phase, interval_s)


# ----------------------------------------------------------------------
# Parent-side printer
# ----------------------------------------------------------------------


def _fmt_seconds(s: Optional[float]) -> str:
    if s is None:
        return "?"
    if s >= 90.0:
        return f"{s / 60.0:.1f}m"
    return f"{s:.1f}s"


class ProgressPrinter:
    """The ``--progress`` output: a progress callback that prints lines.

    A lifecycle frame prints at once and ends its shard's attempt, so
    that shard's live line is dropped.  A live frame replaces its
    shard's latest reading and, at most once per ``heartbeat_s``, the
    printer prints one live line per running shard.  Lines go to
    ``stream`` (stderr by default); the format (:meth:`format_frame`)
    is stable enough to grep but not a parsing contract.
    """

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        heartbeat_s: Optional[float] = None,
    ) -> None:
        self.stream = stream
        self.heartbeat_s = DEFAULT_HEARTBEAT_S if heartbeat_s is None else heartbeat_s
        #: shard -> latest live frame of its running attempt.
        self.latest: Dict[int, ProgressFrame] = {}
        # None = never printed.  The monotonic clock's origin is
        # arbitrary (boot time on Linux), so a 0.0 start would suppress
        # the first frame whenever the clock reads below heartbeat_s.
        self._last_print: Optional[float] = None

    def __call__(self, frame: ProgressFrame) -> None:
        if frame.kind != "live":
            self.latest.pop(frame.shard, None)
            self._print(self.format_frame(frame))
            return
        self.latest[frame.shard] = frame
        now = time.monotonic()
        if self._last_print is None or now - self._last_print >= self.heartbeat_s:
            self._last_print = now
            self.render()

    def render(self) -> None:
        """Print the live line of every running shard, in shard order."""
        for shard in sorted(self.latest):
            self._print(self.format_frame(self.latest[shard]))

    def _print(self, line: str) -> None:
        print(line, file=self.stream if self.stream is not None else sys.stderr)

    @staticmethod
    def format_frame(f: ProgressFrame) -> str:
        """One frame as a ``[shard done/total] kind …`` lifecycle line or
        a ``[live] shard N …`` line (see ``docs/flight_recorder.md``)."""
        if f.kind != "live":
            line = (
                f"[shard {f.done}/{f.total}] {f.kind:<8} "
                f"idx={f.shard} attempt={f.attempt} "
                f"elapsed={_fmt_seconds(f.elapsed_s)} "
                f"eta={_fmt_seconds(f.eta_s)}"
            )
            return f"{line} ({f.detail})" if f.detail else line
        done = (
            f"{f.requests}/{f.total_requests} reqs ({f.fraction * 100.0:.0f}%)"
            if f.total_requests
            else f"{f.requests} reqs"
        )
        return (
            f"[live] shard {f.shard} {f.phase:<10} {done} "
            f"{f.req_per_s:,.0f} req/s hit {f.hit_ratio:.3f} "
            f"gc {f.gc_erases} elapsed {f.elapsed_s:.1f}s"
        )
