"""Runtime invariant checking over the trace-event stream.

:class:`InvariantChecker` is a tracer: attach it to a replay (or tee it
next to a :class:`~repro.obs.tracer.JsonlTracer`) and after every event
it re-validates the structural invariants of the attached components:

* **cache policy** — DLL next/prev consistency, occupancy within
  ``[0, capacity]``, index/list agreement (every policy's
  ``validate()``), and for Req-block explicitly: IRL/SRL/DRL
  page-disjointness and every cached LPN belonging to exactly one
  request block on exactly one list;
* **FTL/flash** — the logical→physical mapping is a bijection onto
  exactly the VALID flash pages, and per-block counters match a from-
  scratch recount (``deep_interval`` rate-limits this O(device) scan);
* **wear** — per-block erase counts are strictly monotone across
  ``GcErase`` events;
* **bad blocks** — retired blocks (``BlockRetired`` events) are never
  erased or programmed again, no block retires twice, per-plane spare
  counts never increase, and the flash array agrees a retired block is
  retired;
* **recovery** — every ``RecoveryComplete`` event triggers a full
  device validation (mapping bijectivity across the mount scan) and the
  recovered mapping count must match the FTL's live table;
* **program conservation** — every flash program has one source:
  ``flash.total_programs`` equals the FTL's host programs plus GC's
  migrated pages plus the fault injector's rescued pages, at every
  ``FlashWrite`` event and on ``close()``.

On failure it raises :class:`InvariantViolation` carrying the offending
event and the recent event trail, so the report shows *what the
simulation was doing* when the structure broke — not just that it is
broken now.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional

from repro.obs.events import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.cache.base import CachePolicy
    from repro.ssd.controller import SSDController

__all__ = ["InvariantViolation", "InvariantChecker", "DEFAULT_TRAIL", "DEEP_INTERVAL"]

#: Events retained in the violation report.
DEFAULT_TRAIL = 32
#: Default rate limit for the O(device) FTL/flash recount.
DEEP_INTERVAL = 256


class InvariantViolation(AssertionError):
    """A structural invariant failed during replay.

    Subclasses ``AssertionError`` so existing ``pytest.raises
    (AssertionError)`` guards and validate-style call sites keep
    working; carries the offending event and the recent trail.
    """

    def __init__(
        self,
        message: str,
        event: Optional[Event] = None,
        trail: Optional[List[Event]] = None,
    ) -> None:
        self.event = event
        self.trail = list(trail or [])
        lines = [message]
        if event is not None:
            lines.append(f"offending event: {event!r}")
        if self.trail:
            lines.append(f"last {len(self.trail)} events (oldest first):")
            lines.extend(f"  {e!r}" for e in self.trail)
        super().__init__("\n".join(lines))


class InvariantChecker:
    """Tracer that validates simulator structure after every event.

    Parameters
    ----------
    policy, controller:
        Components to validate; either may be attached later via
        :meth:`attach` (the replay harness does this once both exist).
    max_trail:
        Events kept for the violation report.
    check_interval:
        Run the (O(cache)) policy validation every N events.
    deep_interval:
        Run the (O(device)) FTL + flash recount every N events; it
        always also runs on ``close()`` so a replay cannot end with a
        silently inconsistent device.
    """

    enabled = True

    def __init__(
        self,
        policy: "Optional[CachePolicy]" = None,
        controller: "Optional[SSDController]" = None,
        max_trail: int = DEFAULT_TRAIL,
        check_interval: int = 1,
        deep_interval: int = DEEP_INTERVAL,
    ) -> None:
        if check_interval < 1 or deep_interval < 1:
            raise ValueError("check_interval and deep_interval must be >= 1")
        self.policy = policy
        self.controller = controller
        self.check_interval = check_interval
        self.deep_interval = deep_interval
        self.n_events = 0
        self.checks_run = 0
        self._trail: Deque[Event] = deque(maxlen=max_trail)
        self._erase_counts: Dict[int, int] = {}
        #: Blocks seen retiring (fault subsystem); must never come back.
        self._retired: set[int] = set()
        #: Last ``spares_left`` observed per plane (non-increasing).
        self._spares_left: Dict[int, int] = {}

    def attach(
        self,
        policy: "Optional[CachePolicy]" = None,
        controller: "Optional[SSDController]" = None,
    ) -> "InvariantChecker":
        """Late-bind the components to validate; returns self."""
        if policy is not None:
            self.policy = policy
        if controller is not None:
            self.controller = controller
        return self

    # ------------------------------------------------------------------
    def emit(self, event: Event) -> None:
        self._trail.append(event)
        self.n_events += 1
        kind = event.kind
        if kind == "gc_erase":
            self._check_erase_monotone(event)
            if event.block in self._retired:  # type: ignore[union-attr]
                block = event.block  # type: ignore[union-attr]
                self._fail(f"retired block {block} was erased", event)
        elif kind == "block_retired":
            self._check_block_retired(event)
        elif kind == "flash_write":
            if self._retired:
                self._check_program_target(event)
            self._check_program_conservation(event)
        elif kind == "gc_migrate" and self._retired:
            self._check_program_target(event)
        elif kind == "recovery_complete":
            self._check_recovery(event)
        if self.n_events % self.check_interval == 0:
            self._check_policy(event)
        if self.n_events % self.deep_interval == 0:
            self._check_device(event)

    def close(self) -> None:
        """Final full validation (policy + device + program sources)."""
        self._check_policy(None)
        self._check_device(None)
        self._check_program_conservation(None)

    # ------------------------------------------------------------------
    def _fail(self, message: str, event: Optional[Event]) -> None:
        raise InvariantViolation(message, event=event, trail=list(self._trail))

    def _check_erase_monotone(self, event: Event) -> None:
        block = event.block  # type: ignore[union-attr]
        count = event.erase_count  # type: ignore[union-attr]
        prev = self._erase_counts.get(block, 0)
        if count <= prev:
            self._fail(
                f"erase count of block {block} went {prev} -> {count} "
                "(must be strictly monotone)",
                event,
            )
        self._erase_counts[block] = count

    def _check_block_retired(self, event: Event) -> None:
        block = event.block  # type: ignore[union-attr]
        plane = event.plane  # type: ignore[union-attr]
        spares_left = event.spares_left  # type: ignore[union-attr]
        if block in self._retired:
            self._fail(f"block {block} retired twice", event)
        self._retired.add(block)
        prev = self._spares_left.get(plane)
        if prev is not None and spares_left > prev:
            self._fail(
                f"plane {plane} spare count went {prev} -> {spares_left} "
                "(spares can only be consumed)",
                event,
            )
        self._spares_left[plane] = spares_left
        if self.controller is not None:
            flash = self.controller.flash
            if block not in flash.retired:
                self._fail(
                    f"block {block} reported retired but the flash array "
                    "does not list it as retired",
                    event,
                )

    def _check_program_target(self, event: Event) -> None:
        """No program (host flush or GC migration) may land in a block
        that has been retired."""
        if self.controller is None:
            return
        ppn = (
            event.dst_ppn  # type: ignore[union-attr]
            if event.kind == "gc_migrate"
            else event.ppn  # type: ignore[union-attr]
        )
        block = self.controller.geometry.block_of_ppn(ppn)
        if block in self._retired:
            self._fail(
                f"page {ppn} programmed into retired block {block}", event
            )

    def _check_program_conservation(self, event: Optional[Event]) -> None:
        """``total_programs == host + GC migrated + rescued`` pages.

        Not checked at ``gc_migrate`` events: GC and the bad-block
        rescue add their counts only after ``migrate_block`` returns, so
        the sum runs short while a migration is in flight.
        """
        controller = self.controller
        if controller is None:
            return
        host = controller.ftl.stats.host_programs
        migrated = controller.gc.stats.pages_migrated
        faults = controller.faults
        rescued = faults.rescued_pages if faults.enabled else 0
        total = controller.flash.total_programs
        if total != host + migrated + rescued:
            self._fail(
                f"program conservation violated: flash.total_programs {total} "
                f"!= host programs {host} + GC migrated {migrated} "
                f"+ rescued {rescued}",
                event,
            )

    def _check_recovery(self, event: Event) -> None:
        """Post-mount the whole device must validate, and the recovered
        mapping count must match the FTL's live table."""
        self._check_device(event)
        if self.controller is not None:
            mapped = self.controller.ftl.mapped_count()
            reported = event.mapped_pages  # type: ignore[union-attr]
            if mapped != reported:
                self._fail(
                    f"recovery reported {reported} mappings but the FTL "
                    f"holds {mapped}",
                    event,
                )

    def _check_policy(self, event: Optional[Event]) -> None:
        policy = self.policy
        if policy is None:
            return
        self.checks_run += 1
        try:
            policy.validate()
        except InvariantViolation:
            raise
        except AssertionError as exc:
            self._fail(f"policy invariant failed: {exc}", event)
        self._check_reqblock_disjoint(event)

    def _check_reqblock_disjoint(self, event: Optional[Event]) -> None:
        """Explicit IRL/SRL/DRL disjointness + one-block-per-LPN check."""
        policy = self.policy
        lists = getattr(policy, "lists", None)
        if lists is None or not hasattr(lists, "blocks"):
            return
        from repro.core.multilist import ListLevel

        owner: Dict[int, str] = {}
        for level in ListLevel:
            for block in lists.blocks(level):
                for lpn in block.pages:
                    previous = owner.get(lpn)
                    if previous is not None:
                        self._fail(
                            f"lpn {lpn} cached on both {previous} and "
                            f"{level.value}: lists are not page-disjoint",
                            event,
                        )
                    owner[lpn] = level.value
        index = getattr(policy, "_index", None)
        if index is not None and set(owner) != set(index):
            missing = set(index) - set(owner)
            extra = set(owner) - set(index)
            self._fail(
                "index/list disagreement: "
                f"indexed-but-unlisted={sorted(missing)[:8]} "
                f"listed-but-unindexed={sorted(extra)[:8]}",
                event,
            )

    def _check_device(self, event: Optional[Event]) -> None:
        controller = self.controller
        if controller is None:
            return
        try:
            controller.ftl.validate()
            controller.flash.validate()
        except InvariantViolation:
            raise
        except AssertionError as exc:
            self._fail(f"device invariant failed: {exc}", event)
