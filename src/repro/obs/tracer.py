"""Tracer protocol and the built-in tracer implementations.

A *tracer* receives the typed events of :mod:`repro.obs.events` as the
simulation executes.  Components hold a tracer reference (defaulting to
the shared :data:`NULL_TRACER`) and guard every emission with
``if tracer.enabled:`` so that a disabled tracer costs one attribute
load and a branch per potential event — nothing is allocated.

Implementations
---------------
:class:`NullTracer`
    Disabled; the hot-path default.
:class:`CountingTracer`
    O(1)-memory per-kind counters (optionally retaining the full event
    list) — the workhorse of the differential tests, which compare its
    totals against :class:`~repro.sim.metrics.ReplayMetrics`.
:class:`JsonlTracer`
    Streams one JSON object per event to a file — the ``--trace-out``
    CLI format (see ``docs/observability.md``).
:class:`TeeTracer`
    Fans one event stream out to several tracers (e.g. a
    ``JsonlTracer`` plus an
    :class:`~repro.obs.invariants.InvariantChecker`).
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import IO, Dict, List, Optional, Protocol, Union, runtime_checkable

from repro.obs.events import Event, event_to_dict

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "CountingTracer",
    "JsonlTracer",
    "TeeTracer",
]


@runtime_checkable
class Tracer(Protocol):
    """What the simulator requires of a tracer."""

    #: Call sites skip event construction entirely when this is False.
    enabled: bool

    def emit(self, event: Event) -> None:
        """Receive one event (never called when ``enabled`` is False)."""

    def close(self) -> None:
        """Flush/release any resources; idempotent."""


class NullTracer:
    """The do-nothing tracer; keeps the replay hot path allocation-free."""

    enabled = False

    def emit(self, event: Event) -> None:  # pragma: no cover - never called
        pass

    def close(self) -> None:
        pass


#: Shared singleton — components default their ``tracer`` to this.
NULL_TRACER = NullTracer()


class CountingTracer:
    """Counts events per kind; optionally retains the full stream.

    Attributes
    ----------
    counts:
        ``Counter`` keyed by event ``kind``.
    evicted_pages:
        Total pages across all ``Evict`` events (an ``Evict`` is one
        batch; this sums batch sizes).
    events:
        The retained event list when ``keep_events=True``, else empty.
    """

    enabled = True

    def __init__(self, keep_events: bool = False) -> None:
        self.counts: Counter = Counter()
        self.evicted_pages = 0
        self.keep_events = keep_events
        self.events: List[Event] = []

    def emit(self, event: Event) -> None:
        self.counts[event.kind] += 1
        if event.kind == "evict":
            self.evicted_pages += len(event.lpns)  # type: ignore[union-attr]
        if self.keep_events:
            self.events.append(event)

    def close(self) -> None:
        pass

    # -- convenience totals -------------------------------------------------
    @property
    def hits(self) -> int:
        """Total ``CacheHit`` events."""
        return self.counts["cache_hit"]

    @property
    def misses(self) -> int:
        """Total ``CacheMiss`` events."""
        return self.counts["cache_miss"]

    @property
    def inserts(self) -> int:
        """Total ``Insert`` events."""
        return self.counts["insert"]

    @property
    def evictions(self) -> int:
        """Total ``Evict`` events (batches, not pages)."""
        return self.counts["evict"]

    @property
    def flash_writes(self) -> int:
        """Total ``FlashWrite`` events."""
        return self.counts["flash_write"]

    def summary(self) -> Dict[str, int]:
        """Plain dict of all per-kind counts plus evicted pages."""
        out = dict(sorted(self.counts.items()))
        out["evicted_pages"] = self.evicted_pages
        return out


class JsonlTracer:
    """Writes one JSON object per event to ``path`` (or an open file).

    A path's missing parent directories are created.  Usable as a
    context manager; ``close()`` is idempotent and leaves
    caller-supplied file objects open.
    """

    enabled = True

    def __init__(self, path_or_file: Union[str, IO[str]]) -> None:
        if isinstance(path_or_file, str):
            Path(path_or_file).parent.mkdir(parents=True, exist_ok=True)
            self._file: Optional[IO[str]] = open(path_or_file, "w", encoding="utf-8")
            self._owns_file = True
        else:
            self._file = path_or_file
            self._owns_file = False
        self.n_events = 0

    def emit(self, event: Event) -> None:
        assert self._file is not None, "emit after close"
        json.dump(event_to_dict(event), self._file, separators=(",", ":"))
        self._file.write("\n")
        self.n_events += 1

    def close(self) -> None:
        if self._file is None:
            return
        if self._owns_file:
            self._file.close()
        else:
            self._file.flush()
        self._file = None

    def __enter__(self) -> "JsonlTracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TeeTracer:
    """Forwards each event to every child tracer (enabled ones only)."""

    def __init__(self, *tracers: Tracer) -> None:
        self._children = [t for t in tracers if t is not None]
        self.enabled = any(t.enabled for t in self._children)

    def emit(self, event: Event) -> None:
        for t in self._children:
            if t.enabled:
                t.emit(event)

    def close(self) -> None:
        for t in self._children:
            t.close()
