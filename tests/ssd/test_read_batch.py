"""Lockstep test: ``PageFTL.read_batch`` against the per-page read loop.

``read_batch`` is the controller's one read entry: it serves all of a
request's flash reads in one call, with the map and the
``ResourceTimelines.schedule_read`` arithmetic inlined.  The reference
is the loop it replaced, which folds ``read_page(lpn, now).end`` into a
running maximum that starts at ``now``.

Two identical devices take the same Hypothesis-generated stream of
write batches (enough to make GC migrate on a 2-plane, 12-block device)
and read batches.  The read batches mix mapped, unmapped and repeated
LPNs, LPNs beyond the map's length, and empty batches.  One device
serves each read batch with ``read_batch``, its twin with the loop.
Every return value and the timelines and busy accumulators must match
bit-exact, and so must ``FTLStats``.  Under the ``harsh`` fault profile
with equal seeds the injectors' retry counters must match.  On the DFTL
FTL the cached mapping table must match too, entries, dirty bits and
counters.
"""

from __future__ import annotations

from dataclasses import astuple
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.injector import FaultInjector
from repro.faults.profile import get_profile
from repro.ssd.config import SSDConfig
from repro.ssd.dftl import CachedMappingFTL
from repro.ssd.flash import FlashArray
from repro.ssd.ftl import PageFTL
from repro.ssd.gc import GarbageCollector
from repro.ssd.geometry import Geometry
from repro.ssd.resources import ResourceTimelines

N_PLANES = 2
BLOCKS_PER_PLANE = 12
PAGES_PER_BLOCK = 4
#: 128-byte pages hold 16 mapping entries each: the LPN ranges below
#: span several translation pages against a two-page CMT.
PAGE_SIZE = 128
CMT_BYTES = 2 * PAGE_SIZE
#: Writes stay under half the 96 physical pages, so GC has live pages
#: to migrate without running most streams out of space.
MAX_WRITE_LPN = 40
#: Reads also reach LPNs that were never written, beyond the map.
MAX_READ_LPN = 2 * MAX_WRITE_LPN

#: ``(read?, lpns, time gap)`` per step.
Stream = List[Tuple[bool, List[int], float]]


def _build(dftl: bool, profile: Optional[str], seed: int = 0) -> PageFTL:
    cfg = SSDConfig(
        n_channels=N_PLANES,
        chips_per_channel=1,
        planes_per_chip=1,
        blocks_per_plane=BLOCKS_PER_PLANE,
        pages_per_block=PAGES_PER_BLOCK,
        page_size_bytes=PAGE_SIZE,
    )
    geo = Geometry(cfg)
    flash = FlashArray(cfg, geo)
    injector = None
    if profile is not None:
        injector = FaultInjector(get_profile(profile), seed=seed)
        injector.attach(flash)
    res = ResourceTimelines(cfg, geo)
    gc = GarbageCollector(cfg, geo, flash, res, faults=injector)
    if dftl:
        return CachedMappingFTL(
            cfg, geo, flash, res, gc, mapping_cache_bytes=CMT_BYTES, faults=injector
        )
    return PageFTL(cfg, geo, flash, res, gc, faults=injector)


def _read_per_page(ftl: PageFTL, lpns: List[int], now: float) -> float:
    """The controller's read loop before ``read_batch``."""
    completion = now
    for lpn in lpns:
        end = ftl.read_page(lpn, now).end
        if end > completion:
            completion = end
    return completion


def _drive(ftl: PageFTL, stream: Stream, batched: bool) -> List[str]:
    """Feed ``stream`` the way the controller does (writes through
    ``write_batch``); returns each read's end, bit-exact, and stops at
    the first out-of-space."""
    out: List[str] = []
    t = 0.0
    for read, lpns, gap in stream:
        t += gap
        if read:
            end = ftl.read_batch(lpns, t) if batched else _read_per_page(ftl, lpns, t)
            out.append(end.hex())
            continue
        _xfer_done, _done, err = ftl.write_batch(lpns, t)
        if err is not None:
            out.append(str(err))
            break
    return out


def _hex(values: List[float]) -> List[str]:
    return [v.hex() for v in values]


def _state(ftl: PageFTL) -> Dict[str, object]:
    res = ftl.resources
    state: Dict[str, object] = {
        "bus_free": _hex(res.bus_free),
        "plane_free": _hex(res.plane_free),
        "bus_busy_ms": _hex(res.bus_busy_ms),
        "plane_busy_ms": _hex(res.plane_busy_ms),
        "stats": astuple(ftl.stats),
        "map": list(ftl._map),
        "gc_migrated": ftl.gc.stats.pages_migrated,
    }
    if ftl.faults.enabled:
        f = ftl.faults
        state["faults"] = (
            f.reads_with_retry,
            f.read_retries,
            f.unrecoverable_reads,
            f.program_fails,
            f.erase_fails,
        )
    if isinstance(ftl, CachedMappingFTL):
        state["cmt"] = [(e.tvpn, e.dirty) for e in ftl._cmt_list]
        s = ftl.cmt_stats
        state["cmt_stats"] = (s.hits, s.misses, s.writebacks)
    return state


def _lockstep(
    stream: Stream, dftl: bool, profile: Optional[str], seed: int = 0
) -> Dict[str, object]:
    """Run ``stream`` on a batched and a per-page device; assert they
    end identical and return the batched device's state."""
    batched = _build(dftl, profile, seed)
    per_page = _build(dftl, profile, seed)
    assert _drive(batched, stream, True) == _drive(per_page, stream, False)
    state = _state(batched)
    assert state == _state(per_page)
    return state


FTLS = [
    pytest.param(dftl, profile, id=f"{fid}-{profile or 'clean'}")
    for dftl, fid in ((False, "pageftl"), (True, "dftl"))
    for profile in (None, "harsh")
]

write_lpns = st.lists(st.integers(0, MAX_WRITE_LPN), min_size=1, max_size=6)
read_lpns = st.lists(st.integers(0, MAX_READ_LPN), min_size=0, max_size=8)
gaps = st.sampled_from([0.0, 0.01, 0.5, 3.0, 40.0])
steps = st.one_of(
    st.tuples(st.just(False), write_lpns, gaps),
    st.tuples(st.just(True), read_lpns, gaps),
)
streams = st.lists(steps, min_size=1, max_size=80)


def _mixed_stream() -> Stream:
    """Hot rewrites plus write-once cold pages (so GC migrates), read
    back in batches that repeat pages, stray past the map and are
    sometimes empty."""
    stream: Stream = []
    cold = 20
    for i in range(400):
        lpns = [i % 5]
        if i % 6 == 0:
            lpns.append(cold)
            cold = cold + 1 if cold < MAX_WRITE_LPN else 20
        stream.append((False, lpns, 0.5))
        if i % 3 == 0:
            hot, far = i % 5, MAX_WRITE_LPN + 1 + i % 7
            reads = [hot, 20 + i % 21, hot, 5 + i % 15, far] if i % 9 else []
            stream.append((True, reads, 0.0 if i % 2 else 0.3))
    return stream


@pytest.mark.parametrize("dftl,profile", FTLS)
def test_mixed_stream_reads_in_lockstep(dftl, profile):
    """A fixed stream that is known to exercise every read case."""
    state = _lockstep(_mixed_stream(), dftl, profile)
    _programs, host_reads, unmapped_reads = state["stats"]  # type: ignore[misc]
    assert host_reads > 0 and unmapped_reads > 0
    assert state["gc_migrated"] > 0  # type: ignore[operator]
    if profile is not None:
        reads_with_retry, _retries, _unrecoverable, *_ = state["faults"]  # type: ignore[misc]
        assert reads_with_retry > 0
    if dftl:
        _hits, misses, writebacks = state["cmt_stats"]  # type: ignore[misc]
        assert misses > 0 and writebacks > 0


@pytest.mark.parametrize("dftl,profile", FTLS)
@settings(max_examples=25, deadline=None)
@given(stream=streams, seed=st.integers(0, 2**16))
def test_generated_streams_read_in_lockstep(dftl, profile, stream, seed):
    _lockstep(stream, dftl, profile, seed)
