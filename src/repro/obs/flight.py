"""Flight recorder: a bounded ring-buffer tracer for postmortems.

A crashed or salvaged replay used to leave no event evidence behind —
the JSONL tracer is too heavy to leave on by default, and the metrics
series only samples every N thousand requests.  The
:class:`FlightRecorder` closes that gap the way an aircraft flight
recorder does: it rides the existing typed-event stream
(:mod:`repro.obs.events`) keeping only the *last N* events in a
fixed-size deque, and on trouble — replay abort, invariant violation,
``DegradedMode`` entry, or supervised-worker death — the recorder's
contents plus a metrics snapshot are serialised into a structured
*flight dump* (``flightdump.json``).

The recorder is an ordinary :class:`~repro.obs.tracer.Tracer`: attach
it via ``ReplayConfig(flight=...)`` (the replay tees it next to any
configured tracer) or the ``--flight-recorder`` CLI flag.  Shard
workers under the supervisor (:mod:`repro.sim.supervisor`) activate a
process-global recorder instead and ship the dump back over the
supervisor pipe before dying, so postmortems survive process loss.

Cost discipline: when no recorder is attached nothing changes — the
replay's tracer stays the ``NullTracer`` and hot sites still pay one
attribute load and branch.  When attached, each event costs one deque
append and a counter add; memory is bounded by ``capacity``.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections import Counter, deque
from typing import Any, Dict, List, Optional

from repro.obs.events import Event, event_to_dict

__all__ = [
    "FLIGHT_DUMP_VERSION",
    "DEFAULT_CAPACITY",
    "FlightRecorder",
    "write_flight_dump",
    "load_flight_dump",
    "activate",
    "deactivate",
    "active_recorder",
]

#: Schema version stamped into every dump, so postmortem tooling can
#: evolve without guessing.
FLIGHT_DUMP_VERSION = 1

#: Default ring size — enough to cover the tail of a GC storm (a few
#: hundred migrate/erase events) without unbounded memory.
DEFAULT_CAPACITY = 512


class FlightRecorder:
    """Keeps the last ``capacity`` events; dumps them on demand.

    Tee-compatible tracer (``enabled``/``emit``/``close``).  The
    recorder additionally watches the stream for
    :class:`~repro.obs.events.DegradedModeEntered` so callers can ask
    "did this run degrade?" without re-scanning events.

    ``last_dump`` holds the most recent :meth:`record_dump` result —
    the replay loop records a dump at the failure site (where the
    metrics context is still live) and the caller (CLI or supervised
    worker) decides where it goes.
    """

    enabled = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.events: deque = deque(maxlen=capacity)
        self.counts: Counter = Counter()
        self.n_events = 0
        #: Reason string from a DegradedModeEntered event, if one passed.
        self.degraded_reason: Optional[str] = None
        #: Most recent dump (see :meth:`record_dump`); None until one is
        #: recorded.
        self.last_dump: Optional[Dict[str, Any]] = None

    # -- tracer protocol ----------------------------------------------------
    def emit(self, event: Event) -> None:
        self.events.append(event)
        self.counts[event.kind] += 1
        self.n_events += 1
        if event.kind == "degraded_mode_entered":
            self.degraded_reason = event.reason  # type: ignore[union-attr]

    def close(self) -> None:
        pass

    # -- dumping ------------------------------------------------------------
    def dump(
        self,
        reason: str,
        metrics: Optional[Any] = None,
        context: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Serialise the ring buffer into a flight-dump document.

        ``metrics`` is a :class:`~repro.sim.metrics.ReplayMetrics` (its
        ``summary()`` is embedded as the metrics snapshot); ``context``
        carries caller facts (shard index, payload repr, argv...).
        Pure read — the recorder keeps recording afterwards.
        """
        doc: Dict[str, Any] = {
            "version": FLIGHT_DUMP_VERSION,
            "reason": reason,
            "total_events": self.n_events,
            "captured_events": len(self.events),
            "dropped_events": self.n_events - len(self.events),
            "event_counts": dict(sorted(self.counts.items())),
            "events": [event_to_dict(e) for e in self.events],
        }
        if self.degraded_reason is not None:
            doc["degraded_reason"] = self.degraded_reason
        if metrics is not None:
            doc["metrics"] = _metrics_snapshot(metrics)
        if context:
            doc["context"] = dict(context)
        return doc

    def record_dump(
        self,
        reason: str,
        metrics: Optional[Any] = None,
        context: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Take a dump and remember it as :attr:`last_dump`.

        The first recorded dump wins — a later, less specific trigger
        (e.g. the generic worker-death handler after an invariant
        violation already dumped) must not overwrite the failure-site
        snapshot.
        """
        if self.last_dump is None:
            self.last_dump = self.dump(reason, metrics=metrics, context=context)
        return self.last_dump


def _metrics_snapshot(metrics: Any) -> Dict[str, Any]:
    """A JSON-friendly snapshot of partially-accumulated replay metrics."""
    snap: Dict[str, Any] = dict(metrics.summary())
    if getattr(metrics, "aborted", False):
        snap["aborted_reason"] = metrics.aborted_reason
        snap["aborted_at_request"] = metrics.aborted_at_request
    durability = getattr(metrics, "durability", None)
    if durability is not None:
        snap["durability"] = durability.to_dict()
    return snap


def write_flight_dump(dump: Any, path: str) -> str:
    """Write one dump (or a list of dumps) to ``path`` atomically.

    tmp-file + ``os.replace`` in the destination directory, so readers
    never observe a torn ``flightdump.json`` — the same discipline as
    the checkpoint journal and the run ledger.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".flightdump-", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(dump, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def load_flight_dump(path: str) -> Any:
    """Read a :func:`write_flight_dump` file back."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Process-global recorder (supervised shard workers)
# ----------------------------------------------------------------------
#
# A shard worker cannot thread a recorder through the pickled payload
# (the payload crosses the process boundary by value), so the worker
# activates one here for each shard attempt and the replay drivers tee
# in whatever is active.  One recorder per attempt; the parent process
# never activates one.

_ACTIVE: Optional[FlightRecorder] = None


def activate(recorder: FlightRecorder) -> FlightRecorder:
    """Install ``recorder`` as this process's ambient flight recorder."""
    global _ACTIVE
    _ACTIVE = recorder
    return recorder


def deactivate() -> None:
    """Remove the ambient recorder (idempotent)."""
    global _ACTIVE
    _ACTIVE = None


def active_recorder() -> Optional[FlightRecorder]:
    """The ambient recorder, or None (the default everywhere but inside
    supervised shard workers)."""
    return _ACTIVE
