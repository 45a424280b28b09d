"""Typed trace events emitted by the simulator.

Every observable state transition of a replay — cache hits/misses,
request-block splits and merges, evictions, flash programs, GC traffic,
list moves — is describable as one of the small frozen dataclasses
below.  Components construct events only when a tracer is enabled
(call sites are guarded with ``if tracer.enabled:``), so the hot path
with the default :class:`~repro.obs.tracer.NullTracer` allocates
nothing.

Field conventions
-----------------
``time``
    Simulation time.  Cache-policy events carry the policy's logical
    per-page clock (an ``int``); device events (flash/GC) carry the
    millisecond timeline instant (a ``float``).
``req_id``
    Per-policy monotone request sequence number; ``-1`` when the event
    is not attributable to a host request (e.g. GC work).
``list_name``
    The replacement list involved (``"IRL"``/``"SRL"``/``"DRL"`` for
    Req-block, the policy name for single-list schemes, the region name
    for VBBMS).

``event_to_dict`` produces the stable JSON-friendly form used by
:class:`~repro.obs.tracer.JsonlTracer`; see ``docs/observability.md``
for the schema.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import ClassVar, Dict, Tuple, Union

__all__ = [
    "CacheHit",
    "CacheMiss",
    "Insert",
    "Split",
    "DowngradeMerge",
    "Evict",
    "FlashWrite",
    "GcMigrate",
    "GcErase",
    "ListMove",
    "FaultInjected",
    "ReadRetry",
    "BlockRetired",
    "PowerLoss",
    "RecoveryComplete",
    "DegradedModeEntered",
    "Event",
    "EVENT_KINDS",
    "event_to_dict",
]


@dataclass(frozen=True, slots=True)
class CacheHit:
    """A page access was served from the DRAM cache."""

    kind: ClassVar[str] = "cache_hit"
    time: float
    req_id: int
    lpn: int
    list_name: str = ""


@dataclass(frozen=True, slots=True)
class CacheMiss:
    """A page access was not in the cache (write insert or flash read)."""

    kind: ClassVar[str] = "cache_miss"
    time: float
    req_id: int
    lpn: int
    is_write: bool = True


@dataclass(frozen=True, slots=True)
class Insert:
    """A written page entered the cache."""

    kind: ClassVar[str] = "insert"
    time: float
    req_id: int
    lpn: int
    list_name: str = ""


@dataclass(frozen=True, slots=True)
class Split:
    """A hit page was split out of a large block into the DRL (§3.2.1)."""

    kind: ClassVar[str] = "split"
    time: float
    req_id: int
    lpn: int
    origin_req_id: int = -1


@dataclass(frozen=True, slots=True)
class DowngradeMerge:
    """A split victim dragged its IRL origin block into the batch (Fig. 6)."""

    kind: ClassVar[str] = "downgrade_merge"
    time: float
    req_id: int
    origin_req_id: int
    lpns: Tuple[int, ...] = ()


@dataclass(frozen=True, slots=True)
class Evict:
    """A batch of pages left the cache toward flash."""

    kind: ClassVar[str] = "evict"
    time: float
    req_id: int
    lpns: Tuple[int, ...] = ()
    list_name: str = ""


@dataclass(frozen=True, slots=True)
class FlashWrite:
    """The FTL programmed one host page into the NAND array."""

    kind: ClassVar[str] = "flash_write"
    time: float
    lpn: int
    ppn: int
    plane: int


@dataclass(frozen=True, slots=True)
class GcMigrate:
    """GC relocated one valid page out of a victim block."""

    kind: ClassVar[str] = "gc_migrate"
    time: float
    lpn: int
    src_ppn: int
    dst_ppn: int
    plane: int


@dataclass(frozen=True, slots=True)
class GcErase:
    """GC erased a victim block."""

    kind: ClassVar[str] = "gc_erase"
    time: float
    plane: int
    block: int
    erase_count: int


@dataclass(frozen=True, slots=True)
class ListMove:
    """A request block moved (or was promoted in place) between lists."""

    kind: ClassVar[str] = "list_move"
    time: float
    req_id: int
    src_list: str
    dst_list: str
    page_num: int = 0


@dataclass(frozen=True, slots=True)
class FaultInjected:
    """The NAND error model injected an operation failure.

    ``op`` is ``"program"`` or ``"erase"``; read disturbances are
    reported through :class:`ReadRetry` instead (they are recoverable
    most of the time and carry retry detail).
    """

    kind: ClassVar[str] = "fault_injected"
    time: float
    op: str
    plane: int
    block: int


@dataclass(frozen=True, slots=True)
class ReadRetry:
    """A host read needed the ECC read-retry ladder.

    ``retries`` is how many ladder rungs ran; ``recovered`` is False
    when the whole ladder was exhausted (an unrecoverable read — the
    simulator still returns data, but accounts the loss).
    """

    kind: ClassVar[str] = "read_retry"
    time: float
    lpn: int
    plane: int
    retries: int
    recovered: bool = True


@dataclass(frozen=True, slots=True)
class BlockRetired:
    """A block joined the grown-bad-block list (program/erase failure)."""

    kind: ClassVar[str] = "block_retired"
    time: float
    plane: int
    block: int
    reason: str
    spares_left: int = 0


@dataclass(frozen=True, slots=True)
class PowerLoss:
    """Power was cut: dirty DRAM pages beyond the capacitor budget died."""

    kind: ClassVar[str] = "power_loss"
    time: float
    dirty_pages: int
    saved_pages: int
    lost_pages: int


@dataclass(frozen=True, slots=True)
class RecoveryComplete:
    """Post-power-loss mount finished rebuilding the FTL mapping."""

    kind: ClassVar[str] = "recovery_complete"
    time: float
    recovery_ms: float
    scanned_pages: int
    mapped_pages: int


@dataclass(frozen=True, slots=True)
class DegradedModeEntered:
    """The device ran out of reclaimable space and went read-only."""

    kind: ClassVar[str] = "degraded_mode_entered"
    time: float
    plane: int
    reason: str


Event = Union[
    CacheHit,
    CacheMiss,
    Insert,
    Split,
    DowngradeMerge,
    Evict,
    FlashWrite,
    GcMigrate,
    GcErase,
    ListMove,
    FaultInjected,
    ReadRetry,
    BlockRetired,
    PowerLoss,
    RecoveryComplete,
    DegradedModeEntered,
]

#: kind string -> event class, for consumers parsing JSONL streams.
EVENT_KINDS: Dict[str, type] = {
    cls.kind: cls
    for cls in (
        CacheHit,
        CacheMiss,
        Insert,
        Split,
        DowngradeMerge,
        Evict,
        FlashWrite,
        GcMigrate,
        GcErase,
        ListMove,
        FaultInjected,
        ReadRetry,
        BlockRetired,
        PowerLoss,
        RecoveryComplete,
        DegradedModeEntered,
                )
}


def event_to_dict(event: Event) -> Dict[str, object]:
    """JSON-friendly dict form: ``{"kind": ..., <fields>}``."""
    d: Dict[str, object] = {"kind": event.kind}
    payload = asdict(event)
    for key, value in payload.items():
        d[key] = list(value) if isinstance(value, tuple) else value
    return d
