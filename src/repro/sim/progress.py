"""Per-shard progress reporting for the shard executor.

:func:`repro.sim.supervisor.run_shards` accepts an optional
``progress`` callback receiving one :class:`ProgressEvent` per shard
state change — completion, retry, timeout, permanent failure, or
checkpoint resume.  :func:`make_progress_printer` turns the stream into
the one-line-per-shard report behind the ``--progress`` CLI flag.

The ETA estimator is deliberately simple: ``elapsed / done *
remaining``.  Because ``elapsed`` is wall-clock over the whole fan-out,
the worker count is already priced in — no per-shard bookkeeping, and
the estimate tightens as shards drain.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional, TextIO

__all__ = [
    "ProgressEvent",
    "ProgressCallback",
    "EtaTracker",
    "make_progress_printer",
]


@dataclass(frozen=True)
class ProgressEvent:
    """One shard state change, as seen by a ``progress`` callback.

    ``kind`` is one of ``"done"`` (shard completed), ``"retry"`` (a
    failed attempt was rescheduled), ``"timeout"`` (the watchdog killed
    a hung worker), ``"failed"`` (retries exhausted; shard salvaged
    away) or ``"resumed"`` (result loaded from a checkpoint journal).
    """

    kind: str
    #: Shard index within the payload list.
    index: int
    #: Attempt number the event refers to (1-based; 0 for ``resumed``).
    attempt: int
    #: Shards complete so far (including resumed ones).
    done: int
    #: Total shards in the run.
    total: int
    #: Wall-clock seconds since the fan-out started.
    elapsed_s: float
    #: Estimated seconds to completion (None until one shard finishes).
    eta_s: Optional[float] = None
    #: Last line of the failure reason (a traceback's exception line),
    #: for retry/timeout/failed events.
    detail: str = ""


ProgressCallback = Callable[[ProgressEvent], None]


class EtaTracker:
    """Completion counting + the shared ETA estimate for one fan-out."""

    __slots__ = ("total", "done", "_t0")

    def __init__(self, total: int) -> None:
        self.total = total
        self.done = 0
        self._t0 = time.monotonic()

    def elapsed_s(self) -> float:
        """Wall-clock seconds since the tracker was created."""
        return time.monotonic() - self._t0

    def mark_done(self) -> None:
        """Record one more completed shard."""
        self.done += 1

    def eta_s(self) -> Optional[float]:
        """Estimated seconds left: ``elapsed / done * remaining``."""
        if self.done >= self.total:
            return 0.0
        if self.done == 0:
            return None
        return self.elapsed_s() / self.done * (self.total - self.done)

    def event(
        self, kind: str, index: int, attempt: int, detail: str = ""
    ) -> ProgressEvent:
        """Build a :class:`ProgressEvent` at the current state."""
        return ProgressEvent(
            kind=kind,
            index=index,
            attempt=attempt,
            done=self.done,
            total=self.total,
            elapsed_s=self.elapsed_s(),
            eta_s=self.eta_s(),
            detail=detail,
        )


def _fmt_seconds(s: Optional[float]) -> str:
    if s is None:
        return "?"
    if s >= 90.0:
        return f"{s / 60.0:.1f}m"
    return f"{s:.1f}s"


def make_progress_printer(stream: Optional[TextIO] = None) -> ProgressCallback:
    """A callback printing one line per event (default: stderr).

    The format is stable enough to grep but not a parsing contract:

    ``[shard 3/8] done      idx=5 attempt=1 elapsed=2.1s eta=3.4s``
    """

    def _print(event: ProgressEvent) -> None:
        out = stream if stream is not None else sys.stderr
        line = (
            f"[shard {event.done}/{event.total}] {event.kind:<8} "
            f"idx={event.index} attempt={event.attempt} "
            f"elapsed={_fmt_seconds(event.elapsed_s)} "
            f"eta={_fmt_seconds(event.eta_s)}"
        )
        if event.detail:
            line += f" ({event.detail})"
        print(line, file=out)

    return _print
