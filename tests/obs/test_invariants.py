"""InvariantChecker tests: the checker must catch deliberately seeded bugs.

The value of a runtime invariant checker is only demonstrable by breaking
the simulator on purpose: each test here corrupts one structure the way a
real bookkeeping bug would (a botched DLL unlink or a stale index entry in
FIFO's page list, overlapping request blocks, a lost erase count) and
asserts the checker reports it on the very next event.
"""

from __future__ import annotations

import pytest

from repro.cache.fifo import FIFOCache
from repro.cache.lru import LRUCache
from repro.core.policy import ReqBlockCache
from repro.obs.events import CacheHit, GcErase
from repro.obs.invariants import InvariantChecker, InvariantViolation
from repro.sim.replay import ReplayConfig, replay_cache_only, replay_trace
from tests.conftest import W, make_trace


def _checked_lru(capacity: int = 8) -> tuple[LRUCache, InvariantChecker]:
    policy = LRUCache(capacity)
    checker = InvariantChecker(policy=policy)
    policy.set_tracer(checker)
    return policy, checker


def _checked_fifo(capacity: int = 8) -> tuple[FIFOCache, InvariantChecker]:
    """FIFO keeps the intrusive list + index pair the DLL bugs corrupt."""
    policy = FIFOCache(capacity)
    checker = InvariantChecker(policy=policy)
    policy.set_tracer(checker)
    return policy, checker


class TestSeededBugs:
    def test_clean_replay_passes(self):
        policy, checker = _checked_lru()
        for i in range(50):
            policy.access(W(i % 12, npages=2, t=float(i)))
        checker.close()
        assert checker.checks_run > 0

    def test_catches_mutated_dll_unlink(self):
        """A node unlinked without fixing its neighbours' pointers — the
        classic intrusive-list bug — must be caught on the next event."""
        policy, _checker = _checked_fifo()
        for i in range(8):
            policy.access(W(i, t=float(i)))
        # Seed the bug: rip the middle node out by hand, "forgetting"
        # to repair the neighbours (a broken remove()).
        victim = policy._list.head.next
        victim.owner = None
        policy._list._len -= 1
        del policy._index[victim.lpn]
        policy._occupancy -= 1
        with pytest.raises(InvariantViolation) as exc_info:
            policy.access(W(100, t=8.0))
        assert "policy invariant" in str(exc_info.value)

    def test_catches_stale_index_entry(self):
        policy, _checker = _checked_fifo()
        for i in range(8):
            policy.access(W(i, t=float(i)))
        # Seed the bug: evict from the list but leave the index entry.
        victim = policy._list.pop_tail()
        policy._occupancy -= 1
        assert victim.lpn in policy._index  # the stale entry
        with pytest.raises(InvariantViolation):
            policy.access(W(100, t=8.0))

    def test_catches_overlapping_request_blocks(self):
        """Req-block lists must stay page-disjoint; aliasing one LPN into
        two blocks is the split-bookkeeping failure mode."""
        policy = ReqBlockCache(16)
        checker = InvariantChecker(policy=policy)
        policy.set_tracer(checker)
        policy.access(W(0, npages=3, t=0.0))
        policy.access(W(10, npages=3, t=1.0))
        first = policy._index[0]
        # Seed the bug: alias an LPN of the first request's block into the
        # second request's block without removing it from the first.
        stolen = next(iter(first.pages))
        other = policy._index[10]
        assert other is not first
        other.pages.add(stolen)
        with pytest.raises(InvariantViolation) as exc_info:
            policy.access(W(50, t=2.0))
        assert "disjoint" in str(exc_info.value) or "pages" in str(exc_info.value)

    def test_catches_non_monotone_erase_count(self):
        checker = InvariantChecker()
        checker.emit(GcErase(1.0, plane=0, block=3, erase_count=1))
        checker.emit(GcErase(2.0, plane=0, block=3, erase_count=2))
        with pytest.raises(InvariantViolation) as exc_info:
            checker.emit(GcErase(3.0, plane=0, block=3, erase_count=2))
        assert "monotone" in str(exc_info.value)

    def test_close_runs_final_check(self):
        """Corruption introduced after the last event must still be caught
        by the final close() sweep."""
        policy, checker = _checked_lru()
        for i in range(8):
            policy.access(W(i, t=float(i)))
        policy._occupancy += 1000  # blows the capacity bound
        with pytest.raises(InvariantViolation):
            checker.close()


class TestViolationReport:
    def test_report_carries_event_and_trail(self):
        policy, _checker = _checked_lru()
        for i in range(8):
            policy.access(W(i, t=float(i)))
        policy._occupancy += 1000
        with pytest.raises(InvariantViolation) as exc_info:
            policy.access(W(3, t=8.0))  # a hit: first event triggers the check
        violation = exc_info.value
        assert violation.event is not None
        assert violation.trail, "trail must show what led up to the failure"
        assert isinstance(violation.trail[-1], CacheHit)
        message = str(violation)
        assert "offending event" in message
        assert "last" in message

    def test_trail_is_bounded(self):
        policy = LRUCache(64)
        checker = InvariantChecker(policy=policy, max_trail=4)
        policy.set_tracer(checker)
        for i in range(32):
            policy.access(W(i, t=float(i)))
        assert len(checker._trail) == 4

    def test_is_an_assertion_error(self):
        # Existing pytest.raises(AssertionError) guards keep working.
        assert issubclass(InvariantViolation, AssertionError)


class TestCheckIntervals:
    def test_check_interval_rate_limits(self):
        policy = LRUCache(64)
        checker = InvariantChecker(policy=policy, check_interval=8)
        policy.set_tracer(checker)
        for i in range(16):
            policy.access(W(i, t=float(i)))  # 2 events each (miss + insert)
        assert checker.n_events == 32
        assert checker.checks_run == 4

    def test_intervals_must_be_positive(self):
        with pytest.raises(ValueError):
            InvariantChecker(check_interval=0)
        with pytest.raises(ValueError):
            InvariantChecker(deep_interval=0)


class TestReplayIntegration:
    def test_cache_only_replay_with_invariants(self):
        trace = make_trace([W(i % 30, npages=1 + i % 4) for i in range(200)])
        metrics = replay_cache_only(
            trace, ReplayConfig(policy="reqblock", cache_bytes=64 * 4096,
                                check_invariants=True)
        )
        assert metrics.n_requests == 200

    def test_full_replay_with_invariants(self):
        trace = make_trace([W(i % 40, npages=1 + i % 3) for i in range(150)])
        metrics = replay_trace(
            trace, ReplayConfig(policy="lru", cache_bytes=16 * 4096,
                                check_invariants=True,
                                invariant_check_interval=4)
        )
        assert metrics.flash_total_writes > 0
