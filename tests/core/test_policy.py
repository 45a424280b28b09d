"""Behavioural tests of the Req-block policy (Algorithm 1, §3.2, §3.3)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.multilist import ListLevel
from repro.core.policy import DEFAULT_DELTA, ReqBlockCache
from repro.traces.model import IORequest, OpType
from tests.conftest import R, W


def make(capacity=32, delta=2, **kw):
    return ReqBlockCache(capacity, delta=delta, **kw)


def level_of_lpn(cache: ReqBlockCache, lpn: int):
    return cache.lists.level_of(cache._index[lpn])


class TestInsertion:
    def test_write_builds_one_request_block(self):
        c = make()
        c.access(W(0, 3))
        assert c.occupancy() == 3
        block = c._index[0]
        assert c._index[1] is block and c._index[2] is block
        assert block.page_num == 3
        assert c.lists.level_of(block) is ListLevel.IRL
        c.validate()

    def test_separate_requests_separate_blocks(self):
        c = make()
        c.access(W(0, 2))
        c.access(W(10, 2))
        assert c._index[0] is not c._index[10]
        assert c.lists.block_count(ListLevel.IRL) == 2

    def test_new_block_at_irl_head(self):
        c = make()
        c.access(W(0, 2))
        c.access(W(10, 2))
        assert c.lists.head(ListLevel.IRL) is c._index[10]

    def test_reads_do_not_allocate(self):
        c = make()
        out = c.access(R(5, 2))
        assert out.read_miss_lpns == [5, 6]
        assert c.occupancy() == 0


class TestSmallBlockHit:
    def test_hit_moves_small_block_to_srl(self):
        c = make(delta=2)
        c.access(W(0, 2))  # small (2 <= delta)
        c.access(R(0, 1))
        assert level_of_lpn(c, 0) is ListLevel.SRL
        assert level_of_lpn(c, 1) is ListLevel.SRL  # whole block moved
        c.validate()

    def test_write_hit_also_promotes(self):
        c = make(delta=2)
        c.access(W(0, 2))
        c.access(W(0, 2))  # rewrite = hit
        assert level_of_lpn(c, 0) is ListLevel.SRL

    def test_access_count_increments(self):
        c = make(delta=2)
        c.access(W(0, 2))
        c.access(R(0, 2))  # two page hits on the same block
        assert c._index[0].access_cnt == 3  # 1 initial + 2 hits

    def test_repeat_hit_moves_to_srl_head(self):
        c = make(delta=2)
        c.access(W(0, 1))
        c.access(W(10, 1))
        c.access(R(0))
        c.access(R(10))
        c.access(R(0))  # 0's block promoted back to SRL head
        assert c.lists.head(ListLevel.SRL) is c._index[0]


class TestLargeBlockSplit:
    def test_hit_page_extracted_to_drl(self):
        c = make(delta=2)
        c.access(W(0, 5))  # large block
        c.access(R(2, 1))
        assert level_of_lpn(c, 2) is ListLevel.DRL
        # The rest stays in the original IRL block.
        assert level_of_lpn(c, 0) is ListLevel.IRL
        assert c._index[0].page_num == 4
        assert c.occupancy() == 5
        c.validate()

    def test_split_block_records_origin(self):
        c = make(delta=2)
        c.access(W(0, 5))
        origin = c._index[0]
        c.access(R(2, 1))
        split = c._index[2]
        assert split.is_split and split.origin is origin

    def test_hits_of_one_request_share_drl_block(self):
        c = make(delta=2)
        c.access(W(0, 8))
        c.access(R(2, 3))  # three pages hit by ONE request
        blocks = {id(c._index[lpn]) for lpn in (2, 3, 4)}
        assert len(blocks) == 1
        assert c._index[2].page_num == 3

    def test_hits_of_different_requests_make_new_drl_blocks(self):
        c = make(delta=2)
        c.access(W(0, 8))
        c.access(R(2, 1))
        c.access(R(5, 1))
        assert c._index[2] is not c._index[5]
        assert c.lists.head(ListLevel.DRL) is c._index[5]

    def test_split_small_drl_block_promotes_to_srl_on_rehit(self):
        """Fig. 5(b): the split block holding page K+1 moves DRL -> SRL."""
        c = make(delta=2)
        c.access(W(0, 8))
        c.access(R(2, 1))  # split -> DRL (1 page <= delta)
        c.access(R(2, 1))  # re-hit -> SRL
        assert level_of_lpn(c, 2) is ListLevel.SRL

    def test_large_drl_block_splits_again(self):
        c = make(delta=2)
        c.access(W(0, 8))
        c.access(R(0, 5))  # 5 pages -> DRL block of 5 (> delta)
        c.access(R(1, 1))  # hit in the large DRL block -> split again
        assert c._index[1].page_num == 1
        assert c.lists.head(ListLevel.DRL) is c._index[1]
        c.validate()

    def test_no_split_ablation(self):
        c = make(delta=2, split_large_hits=False)
        c.access(W(0, 5))
        c.access(R(2, 1))
        # Whole large block promoted instead of split.
        assert level_of_lpn(c, 0) is ListLevel.SRL
        assert c._index[0].page_num == 5


class TestEviction:
    def test_evicts_whole_request_block(self):
        c = make(capacity=6, delta=2)
        c.access(W(0, 4))
        c.access(W(10, 2))
        out = c.access(W(20, 2))  # full: one block must go entirely
        assert len(out.flushes) == 1
        flushed = out.flushes[0].lpns
        assert flushed in ([0, 1, 2, 3], [10, 11])
        c.validate()

    def test_victim_is_minimum_frequency_tail(self):
        c = make(capacity=8, delta=2)
        c.access(W(0, 4))  # large, acc 1
        c.access(W(10, 2))  # small
        c.access(R(10, 2))  # promote to SRL, acc 3
        out = c.access(W(20, 4))  # IRL tail (block 0) has lowest Freq
        assert out.flushes[0].lpns == [0, 1, 2, 3]
        assert c.contains(10)

    @given(
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(0, 40), st.integers(1, 10)),
            min_size=1,
            max_size=80,
        ),
        capacity=st.integers(4, 24),
        delta=st.integers(1, 6),
        refresh=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_victim_is_first_least_frequent_tail(self, ops, capacity, delta, refresh):
        """Before every eviction the victim is, of the non-empty IRL,
        SRL and DRL tails in that order, the first whose
        ``RequestBlock.frequency`` (Eq. 1) is least."""
        chosen = []

        class Checked(ReqBlockCache):
            def _select_victim(self):
                victim = super()._select_victim()
                tails = [b for _level, b in self.lists.tails() if b.pages]
                least = min(b.frequency(self._clock) for b in tails)
                first = next(b for b in tails if b.frequency(self._clock) == least)
                assert victim is first, (victim, tails)
                chosen.append(victim)
                return victim

        c = Checked(capacity, delta=delta, refresh_age_on_promote=refresh)
        flushes = 0
        for i, (is_write, lpn, npages) in enumerate(ops):
            op = OpType.WRITE if is_write else OpType.READ
            out = c.access(IORequest(time=float(i), op=op, lpn=lpn, npages=npages))
            flushes += len(out.flushes)
        c.validate()
        assert len(chosen) == flushes  # one checked choice per eviction

    def test_merge_on_evict_drags_origin(self):
        """Fig. 6: a split victim merges with its IRL origin remnant."""
        c = make(capacity=8, delta=1, refresh_age_on_promote=False)
        c.access(W(0, 6))  # large block in IRL
        c.access(R(1, 2))  # pages 1,2 split into a DRL block
        # Age the DRL block far enough that it loses to everything.
        c.access(W(20, 2))
        for _ in range(3):
            c.access(R(20, 2))  # hot small block in SRL
        out = c.access(W(30, 4))  # forces eviction
        merged = [b for b in out.flushes if set(b.lpns) >= {1, 2}]
        if merged:
            # Victim was the split block: origin pages 0,3,4,5 must ride along.
            assert set(merged[0].lpns) == {0, 1, 2, 3, 4, 5}
        assert c.occupancy() <= 8
        c.validate()

    def test_no_merge_ablation(self):
        c = make(capacity=8, delta=1, merge_on_evict=False,
                 refresh_age_on_promote=False)
        c.access(W(0, 6))
        c.access(R(1, 2))
        c.access(W(20, 2))
        out = c.access(W(30, 4))
        for batch in out.flushes:
            # Without merging, no batch combines split and origin pages.
            assert not (set(batch.lpns) >= {0, 1})

    def test_eviction_batches_unpinned(self):
        c = make(capacity=4)
        c.access(W(0, 4))
        out = c.access(W(10, 2))
        assert all(b.pin_key is None for b in out.flushes)

    def test_request_larger_than_cache(self):
        c = make(capacity=4)
        out = c.access(W(0, 12))
        assert c.occupancy() <= 4
        assert out.inserted_pages == 12
        c.validate()


class TestClockAndCounters:
    def test_clock_advances_per_page(self):
        c = make()
        c.access(W(0, 5))
        assert c._clock == 5
        c.access(R(100, 3))
        assert c._clock == 8

    def test_refresh_age_on_promote(self):
        c = make(delta=2, refresh_age_on_promote=True)
        c.access(W(0, 2))
        t0 = c._index[0].t_insert
        c.access(W(50, 4))
        c.access(R(0, 1))
        assert c._index[0].t_insert > t0

    def test_no_refresh_keeps_insert_time(self):
        c = make(delta=2, refresh_age_on_promote=False)
        c.access(W(0, 2))
        t0 = c._index[0].t_insert
        c.access(W(50, 4))
        c.access(R(0, 1))
        assert c._index[0].t_insert == t0


class TestAccounting:
    def test_default_delta_is_papers(self):
        assert DEFAULT_DELTA == 5
        assert ReqBlockCache(16).delta == 5

    def test_node_bytes_is_32(self):
        assert ReqBlockCache.node_bytes == 32

    def test_metadata_nodes_counts_blocks(self):
        c = make()
        c.access(W(0, 3))
        c.access(W(10, 2))
        assert c.metadata_nodes() == 2
        assert c.metadata_bytes() == 64

    def test_list_page_counts(self):
        c = make(delta=2)
        c.access(W(0, 2))
        c.access(W(10, 4))
        c.access(R(0, 1))
        counts = c.list_page_counts()
        assert counts == {"IRL": 4, "SRL": 2, "DRL": 0}

    def test_flush_all(self):
        c = make()
        c.access(W(0, 3))
        c.access(W(10, 2))
        batch = c.flush_all()
        assert sorted(batch.lpns) == [0, 1, 2, 10, 11]
        assert c.occupancy() == 0
        assert c.metadata_nodes() == 0
        c.validate()

    def test_bad_delta_rejected(self):
        with pytest.raises(ValueError):
            ReqBlockCache(16, delta=0)
