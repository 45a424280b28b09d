"""Cross-shard live telemetry: compact progress frames from workers.

The ``--progress`` channel (:mod:`repro.sim.progress`) only reports
shard *lifecycle* — start, retry, done — so a four-hour sharded replay
shows nothing between launches.  This module adds the in-flight view:
replay loops inside shard workers periodically push a
:class:`TelemetryFrame` (requests done, req/s, hit rate, GC count,
phase) back over the supervisor pipe, and the parent renders the frames
as a live per-shard heartbeat log (:class:`LiveTelemetry`).

Worker-side plumbing mirrors the flight recorder's ambient pattern
(:mod:`repro.obs.flight`): a worker installs a process-global frame
sink (:func:`set_frame_sink`) for each shard attempt and the replay
drivers ask :func:`make_emitter` for an emitter at loop start.  With no
sink installed — every run without ``telemetry`` — ``make_emitter``
returns None and the loops skip telemetry entirely; with one installed,
the check piggybacks on the existing metadata-sampling branch (every
256 requests, right after the replay folds its pending chunk, so a
frame's hit ratio covers every request it counts) and the wall-clock
rate limit keeps actual sends to about one per ``interval_s``, so
frames never become hot-path traffic.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, TextIO

__all__ = [
    "TelemetryFrame",
    "FrameEmitter",
    "LiveTelemetry",
    "set_frame_sink",
    "clear_frame_sink",
    "make_emitter",
    "DEFAULT_FRAME_INTERVAL_S",
]

#: Minimum wall-clock seconds between frames from one worker.
DEFAULT_FRAME_INTERVAL_S = 1.0


@dataclass(frozen=True)
class TelemetryFrame:
    """One worker progress reading (picklable; crosses the pipe)."""

    #: Shard index within the fan-out (0 for unsharded runs).
    shard: int
    #: Replay phase the worker is in (``"replay"`` / ``"cache_only"``).
    phase: str
    #: Requests replayed so far in this shard.
    requests: int
    #: Requests this shard will replay in total (0 = unknown).
    total_requests: int
    #: Mean replay throughput since the shard started.
    req_per_s: float
    #: Page hit ratio accumulated so far.
    hit_ratio: float
    #: GC block erases so far (0 on cache-only replays).
    gc_erases: int
    #: Wall-clock seconds since the shard's replay started.
    elapsed_s: float

    @property
    def fraction(self) -> float:
        """Completed fraction (0.0 when the total is unknown)."""
        if self.total_requests <= 0:
            return 0.0
        return min(1.0, self.requests / self.total_requests)


FrameSink = Callable[[TelemetryFrame], None]


class FrameEmitter:
    """Worker-side frame builder with a wall-clock rate limit.

    ``maybe_emit`` is called from the replay loop's sampled branch; it
    returns immediately unless ``interval_s`` has elapsed since the last
    frame, so the cost per sampled request is one clock read and a
    compare.  Send failures are swallowed: telemetry must never kill a
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
        sink: FrameSink,
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
        elapsed = now - self._t0
        requests = index + 1
        frame = TelemetryFrame(
            shard=self.shard,
            phase=self.phase,
            requests=requests,
            total_requests=self.total_requests,
            req_per_s=requests / elapsed if elapsed > 0 else 0.0,
            hit_ratio=hit_ratio,
            gc_erases=gc_erases,
            elapsed_s=elapsed,
        )
        try:
            self.sink(frame)
        except Exception:
            return False
        return True


# ----------------------------------------------------------------------
# Ambient sink (installed for each shard attempt by the executor)
# ----------------------------------------------------------------------

_SINK: Optional[FrameSink] = None
_SINK_SHARD = 0
_SINK_INTERVAL_S = DEFAULT_FRAME_INTERVAL_S


def set_frame_sink(
    sink: FrameSink,
    shard: int = 0,
    interval_s: float = DEFAULT_FRAME_INTERVAL_S,
) -> None:
    """Install this process's frame sink (one per shard attempt)."""
    global _SINK, _SINK_SHARD, _SINK_INTERVAL_S
    _SINK = sink
    _SINK_SHARD = shard
    _SINK_INTERVAL_S = interval_s


def clear_frame_sink() -> None:
    """Remove the frame sink (idempotent)."""
    global _SINK
    _SINK = None


def make_emitter(
    total_requests: int, phase: str = "replay"
) -> Optional[FrameEmitter]:
    """An emitter bound to the ambient sink, or None when telemetry is
    off (the default everywhere outside telemetry-enabled workers)."""
    if _SINK is None:
        return None
    return FrameEmitter(
        _SINK,
        shard=_SINK_SHARD,
        total_requests=total_requests,
        phase=phase,
        interval_s=_SINK_INTERVAL_S,
    )


# ----------------------------------------------------------------------
# Parent-side aggregation
# ----------------------------------------------------------------------


class LiveTelemetry:
    """Aggregates worker frames into a per-shard heartbeat log.

    Keeps each shard's latest frame and, at most once per
    ``heartbeat_s``, prints one line per active shard to ``stream``
    (stderr by default, like ``--progress``).  The printed format is
    stable enough to grep but not a parsing contract.
    """

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        heartbeat_s: float = 2.0,
    ) -> None:
        self.stream = stream
        self.heartbeat_s = heartbeat_s
        self.latest: Dict[int, TelemetryFrame] = {}
        self.frames_seen = 0
        # None = never printed.  The monotonic clock's origin is
        # arbitrary (boot time on Linux), so a 0.0 start would suppress
        # the first frame whenever the clock reads below heartbeat_s.
        self._last_print: Optional[float] = None

    def __call__(self, frame: TelemetryFrame) -> None:
        self.latest[frame.shard] = frame
        self.frames_seen += 1
        now = time.monotonic()
        if self._last_print is None or now - self._last_print >= self.heartbeat_s:
            self._last_print = now
            self.render()

    def render(self) -> None:
        """Print the current per-shard table (one line per shard)."""
        out = self.stream if self.stream is not None else sys.stderr
        for shard in sorted(self.latest):
            print(self.format_frame(self.latest[shard]), file=out)

    @staticmethod
    def format_frame(f: TelemetryFrame) -> str:
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
