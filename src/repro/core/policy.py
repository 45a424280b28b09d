"""Req-block — the paper's cache management scheme (Algorithm 1).

Write data is cached at *request granularity*: the pages of one write
request form a request block, inserted at the head of the Inserted
Request List (IRL).  Hits trigger the upgrade rules of §3.2:

* hit on a **small** block (``page_num <= δ``) — the whole block moves
  to the head of the Small Request List (SRL), wherever it was;
* hit on a **large** block — the hit page is split out of its block and
  collected into a request block at the head of the Divided Request
  List (DRL) (one per ongoing request, like initial insertion).

When the cache is full the tails of the three lists are compared by
Eq. 1, ``Freq = Access_cnt / (Page_num * (T_cur - T_insert))``, and the
block with the smallest value is evicted **in batch**.  A split victim
whose origin block still sits in IRL is first merged back with it
(downgraded merging, Fig. 6), so spatially related cold pages leave
together.

Time is a logical per-page-operation counter, mirroring SSDsim's tick
clock; see :meth:`RequestBlock.frequency` for the divide-by-zero guard.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.cache.base import AccessOutcome, CachePolicy, FlushBatch
from repro.core.multilist import ListLevel, ThreeLevelLists
from repro.core.request_block import RequestBlock
from repro.obs.events import (
    CacheHit,
    CacheMiss,
    DowngradeMerge,
    Evict,
    Insert,
    ListMove,
    Split,
)
from repro.traces.model import IORequest, OpType
from repro.utils.validation import require_positive

__all__ = ["ReqBlockCache", "DEFAULT_DELTA"]

#: The paper's chosen size limit for SRL blocks (sensitivity study, Fig. 7).
DEFAULT_DELTA = 5


class ReqBlockCache(CachePolicy):
    """Request-granularity write buffer with three-level lists."""

    name = "reqblock"
    node_bytes = 32  # paper §4.2.5: 32 B per request-block node

    def __init__(
        self,
        capacity_pages: int,
        delta: int = DEFAULT_DELTA,
        merge_on_evict: bool = True,
        split_large_hits: bool = True,
        refresh_age_on_promote: bool = True,
    ) -> None:
        """
        Parameters
        ----------
        capacity_pages:
            DRAM data-cache capacity in 4 KB pages.
        delta:
            The SRL size limit δ: blocks with at most this many pages are
            treated as small.
        merge_on_evict:
            Enable downgraded merging of split victims with their origin
            block (Fig. 6).  Exposed for the ablation study.
        split_large_hits:
            Enable the split-to-DRL path for hits on large blocks
            (§3.2.1).  When disabled, large blocks are promoted whole to
            SRL like small ones — the "no-split" ablation.
        refresh_age_on_promote:
            Interpret Eq. 1's ``T_insert`` as the time the block was
            inserted into its *current* list (reset on promotion to
            SRL), rather than its original buffering time.  The paper's
            wording admits both readings; refreshing protects the hot
            small set better and reproduces the Fig. 9 ordering, so it
            is the default.  Exposed for the ablation study.
        """
        super().__init__(capacity_pages)
        require_positive(delta, "delta")
        self.delta = delta
        self.merge_on_evict = merge_on_evict
        self.split_large_hits = split_large_hits
        self.refresh_age_on_promote = refresh_age_on_promote
        self.lists = ThreeLevelLists()
        self._index: Dict[int, RequestBlock] = {}
        self._clock = 0
        self._req_seq = 0
        # Bound metrics instruments (None while metrics are disabled, so
        # the hot split/merge paths pay one None-check).
        self._m_splits = None
        self._m_merges = None
        self._m_merged_pages = None

    def set_metrics(self, registry) -> None:
        """Attach a metrics registry; adds the Req-block instruments:
        split/merge counters plus per-list occupancy gauges
        (``cache.list.irl_pages`` etc. — Fig. 13's series, live)."""
        super().set_metrics(registry)
        if not self.metrics.enabled:
            self._m_splits = self._m_merges = self._m_merged_pages = None
            return
        self._m_splits = self.metrics.counter("cache.splits_total")
        self._m_merges = self.metrics.counter("cache.downgrade_merges_total")
        self._m_merged_pages = self.metrics.counter("cache.merged_pages_total")
        gauges = {
            level: self.metrics.gauge(f"cache.list.{level.value.lower()}_pages")
            for level in ListLevel
        }
        blocks = {
            level: self.metrics.gauge(f"cache.list.{level.value.lower()}_blocks")
            for level in ListLevel
        }

        def collect(_now: float) -> None:
            for level in ListLevel:
                gauges[level].set(self.lists.page_count(level))
                blocks[level].set(self.lists.block_count(level))

        self.metrics.register_collector(collect)

    # ------------------------------------------------------------------
    # CachePolicy protocol
    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        """Number of pages currently cached."""
        return len(self._index)

    def contains(self, lpn: int) -> bool:
        """Whether ``lpn`` is currently cached."""
        return lpn in self._index

    def cached_lpns(self) -> Iterable[int]:
        """All cached LPNs (order unspecified)."""
        return self._index.keys()

    def metadata_nodes(self) -> int:
        """Live replacement-metadata node count."""
        return self.lists.total_blocks()

    def list_page_counts(self) -> Dict[str, int]:
        """Pages per list — the series of Figure 13."""
        return {level.value: self.lists.page_count(level) for level in ListLevel}

    # ------------------------------------------------------------------
    # Main routine (Algorithm 1)
    # ------------------------------------------------------------------
    def access(self, request: IORequest) -> AccessOutcome:
        """Serve one request through the cache (see CachePolicy); each
        event site costs one ``emit is not None`` test when no tracer is
        attached."""
        tracer = self.tracer
        emit = tracer.emit if tracer.enabled else None
        outcome = AccessOutcome()
        req_id = self._req_seq
        self._req_seq += 1
        index = self._index
        index_get = index.get
        split_hit = self._split_hit
        evict = self._evict
        capacity = self.capacity_pages
        is_write = request.op is OpType.WRITE
        read_misses = outcome.read_miss_lpns
        # The small-block hit promotion (ThreeLevelLists.move_to_head)
        # and the IRL insertion are inlined below, with both lists' ops
        # bound once.
        lists = self.lists
        irl = lists._irl
        irl_push = irl.push_head
        srl = lists._srl
        srl_move = srl.move_to_head
        srl_push = srl.push_head
        delta = self.delta
        split_large = self.split_large_hits
        refresh_age = self.refresh_age_on_promote
        hits = misses = inserted = 0
        clock = self._clock
        for lpn in request.pages():
            clock += 1
            self._clock = clock
            block = index_get(lpn)
            if block is not None:
                hits += 1
                owner = block.owner
                if emit is not None:
                    list_name = owner.level.value if owner is not None else ""
                    emit(CacheHit(clock, req_id, lpn, list_name))
                block.access_cnt += 1
                if len(block.pages) <= delta or not split_large:
                    # Small block (or no-split ablation): promote whole
                    # to SRL.
                    if refresh_age:
                        block.t_insert = clock
                    if emit is not None:
                        emit(
                            ListMove(
                                clock, block.req_id, list_name, "SRL", len(block.pages)
                            )
                        )
                    if owner is srl:
                        srl_move(block)
                    else:
                        if owner is not None:
                            n = len(block.pages)
                            owner.remove(block)
                            owner.pages -= n
                        srl_push(block)
                        srl.pages += len(block.pages)
                else:
                    split_hit(lpn, block, req_id)
            elif is_write:
                misses += 1
                if emit is not None:
                    emit(CacheMiss(clock, req_id, lpn, True))
                while len(index) >= capacity:
                    evict(outcome)
                # Join the current request's IRL head block, or open a
                # new one.
                head = irl._head
                if head is None or head.req_id != req_id:
                    head = RequestBlock(req_id, clock)
                    irl_push(head)
                head.pages.add(lpn)
                irl.pages += 1
                index[lpn] = head
                inserted += 1
                if emit is not None:
                    emit(Insert(clock, req_id, lpn, "IRL"))
            else:
                misses += 1
                if emit is not None:
                    emit(CacheMiss(clock, req_id, lpn, False))
                read_misses.append(lpn)
        outcome.page_hits = hits
        outcome.page_misses = misses
        outcome.inserted_pages = inserted
        return outcome

    # ------------------------------------------------------------------
    # Hit handling (§3.2)
    # ------------------------------------------------------------------
    def _split_hit(self, lpn: int, block: RequestBlock, req_id: int) -> None:
        lists = self.lists
        # Large block: extract the hit page into the DRL head block of
        # the current request (creating it if this request has none yet).
        if self.tracer.enabled:
            self.tracer.emit(Split(self._clock, req_id, lpn, block.req_id))
        if self._m_splits is not None:
            self._m_splits.inc()
        block.pages.discard(lpn)
        lists.note_page_removed(block)
        if not block.pages:
            lists.remove(block)
        target = lists.head(ListLevel.DRL)
        if target is None or target.req_id != req_id:
            target = RequestBlock(req_id, self._clock)
            target.origin = block if block.pages else block.origin
            lists.push_head(ListLevel.DRL, target)
        else:
            target.access_cnt += 1
        target.pages.add(lpn)
        lists.note_page_added(target)
        self._index[lpn] = target

    # ------------------------------------------------------------------
    # Eviction (§3.3)
    # ------------------------------------------------------------------
    def _select_victim(self) -> RequestBlock:
        """The IRL/SRL/DRL tail with the least Eq. 1 frequency; the
        first in that order wins a tie.

        Eq. 1 is scored inline with the float operations of
        :meth:`RequestBlock.frequency` (age floored at 1 tick); an empty
        block, which ``frequency`` ranks at ``inf``, is skipped.
        """
        clock = self._clock
        lists = self.lists
        best: Optional[RequestBlock] = None
        best_freq = float("inf")
        for lst in (lists._irl, lists._srl, lists._drl):
            block = lst._tail
            if block is not None:
                n = len(block.pages)
                if n:
                    age = clock - block.t_insert
                    if age < 1:
                        age = 1
                    f = block.access_cnt / (n * age)
                    if f < best_freq:
                        best_freq = f
                        best = block
        assert best is not None, "evict called on empty cache"
        return best

    def _evict(self, outcome: AccessOutcome) -> None:
        victim = self._select_victim()
        tracer = self.tracer
        victim_level = self.lists.level_of(victim) if tracer.enabled else None
        lpns = list(victim.pages)
        # Downgraded merging: a split victim drags its origin block out
        # of IRL with it, evicting the spatially related cold pages in
        # the same batch (Fig. 6).
        if self.merge_on_evict and victim.is_split:
            origin = victim.origin
            if (
                origin is not None
                and self.lists.level_of(origin) is ListLevel.IRL
                and origin.page_num > 0
            ):
                if tracer.enabled:
                    tracer.emit(
                        DowngradeMerge(
                            self._clock,
                            victim.req_id,
                            origin.req_id,
                            tuple(sorted(origin.pages)),
                        )
                    )
                if self._m_merges is not None:
                    self._m_merges.inc()
                    self._m_merged_pages.inc(len(origin.pages))
                lpns.extend(origin.pages)
                self.lists.remove(origin)
                for lpn in origin.pages:
                    del self._index[lpn]
                origin.pages.clear()
        self.lists.remove(victim)
        for lpn in victim.pages:
            del self._index[lpn]
        victim.pages.clear()
        batch_lpns = sorted(lpns)
        outcome.flushes.append(FlushBatch(batch_lpns))
        if tracer.enabled:
            tracer.emit(
                Evict(
                    self._clock,
                    victim.req_id,
                    tuple(batch_lpns),
                    victim_level.value if victim_level is not None else "",
                )
            )

    # ------------------------------------------------------------------
    def flush_all(self) -> FlushBatch:
        """Drain the cache; returns one batch of the dirty pages."""
        lpns = sorted(self._index.keys())
        self.lists = ThreeLevelLists()
        self._index.clear()
        return FlushBatch(lpns, reason="drain")

    def validate(self) -> None:
        """Check structural invariants (tests); see CachePolicy."""
        super().validate()
        self.lists.validate()
        # Every cached LPN belongs to exactly one block, and that block
        # is on exactly one list.
        total_block_pages = self.lists.total_pages()
        assert total_block_pages == len(self._index), (
            f"blocks hold {total_block_pages} pages, index has {len(self._index)}"
        )
        for lpn, block in self._index.items():
            assert lpn in block.pages, f"index points lpn {lpn} at wrong block"
            assert self.lists.level_of(block) is not None, (
                f"lpn {lpn}'s block is not on any list"
            )
        # SRL may only hold small blocks (pages are never added to a
        # block after creation except the DRL/IRL head of an in-flight
        # request, which is never in SRL).  The no-split ablation
        # promotes large blocks to SRL by design, so skip there.
        if self.split_large_hits:
            bound = self._srl_size_bound()
            for block in self.lists.blocks(ListLevel.SRL):
                assert block.page_num <= bound, (
                    f"SRL holds a block of {block.page_num} pages "
                    f"(bound={bound})"
                )

    def _srl_size_bound(self) -> int:
        """Largest block legally resident in SRL.  The adaptive variant
        overrides this: a block promoted under an earlier, larger δ may
        outlive a downward δ move."""
        return self.delta
