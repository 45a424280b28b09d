"""Lockstep test: ``PageFTL.migrate_block`` against a per-page reference.

``migrate_block`` is the one loop that moves a block's valid pages, for
garbage collection and for the bad-block rescue alike.  It inlines the
``ResourceTimelines`` read/program arithmetic and the ``FlashArray``
bookkeeping.  The reference below keeps the sequence it replaced, one
page at a time through the public methods: ``schedule_read``, then
``invalidate`` / ``allocate_page(stream="gc")`` / ``schedule_program`` /
``program`` and the mapping update.  The reference device also picks
its victims with the original scan (a generator over the plane's blocks
and a tuple key), against the collector's one-pass scan.

Two identical devices take the same Hypothesis-generated write stream,
one migrating through each implementation.  Afterwards the flash arrays,
free lists, write points, map and rmap, timelines and busy accumulators
(bit-exact), GC and CMT state and the traced event stream must all be
identical.  Every GC configuration is covered: greedy and cost-benefit
victims, wear-aware or not, with and without a separate GC stream, on
the plain and the DFTL FTL, with and without a tracer, and with either
rmap shape.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ssd.ftl as ftl_module
from repro.faults.injector import FaultInjector
from repro.faults.profile import FaultProfile
from repro.obs.events import Event, GcMigrate
from repro.ssd.config import SSDConfig
from repro.ssd.dftl import CachedMappingFTL
from repro.ssd.flash import FlashArray
from repro.ssd.ftl import PageFTL
from repro.ssd.gc import GarbageCollector
from repro.ssd.geometry import Geometry
from repro.ssd.resources import ResourceTimelines

N_PLANES = 2
#: 12 blocks per plane: the smallest plane on which a separate GC stream
#: can open its block and still leave GC a free block to work with.
BLOCKS_PER_PLANE = 12
PAGES_PER_BLOCK = 4
#: 128-byte pages hold 16 mapping entries each, so the LPN range below
#: spans three translation pages against a two-page CMT: misses, dirty
#: write-backs and GC dirtying all happen.
PAGE_SIZE = 128
CMT_BYTES = 2 * PAGE_SIZE
#: Under half the 96 physical pages, so most streams never run the
#: device out of space (the ones that do must fail identically).
MAX_LPN = 40


class _ReferenceMigration:
    """``migrate_block`` as the per-page method sequence it replaced."""

    __slots__ = ()

    def migrate_block(self, block: int, plane: int, now: float) -> float:
        ftl: Any = self
        flash = ftl.flash
        t = now
        for ppn in flash.valid_pages_of_block(block):
            op = ftl.resources.schedule_read(plane, t)
            t = op.end
            lpn = ftl.rmap_lookup(ppn)
            if lpn is None:
                raise ValueError(f"relocate: ppn {ppn} holds no live LPN")
            if isinstance(ftl, CachedMappingFTL):
                entry = ftl._cmt.get(ftl._tvpn_of(lpn))
                if entry is not None:
                    entry.dirty = True
            new_ppn = flash.allocate_page(plane, stream="gc")
            flash.invalidate(ppn)
            if ftl._rmap_list:
                ftl._rmap[ppn] = -1
            else:
                del ftl._rmap[ppn]
            op = ftl.resources.schedule_program(plane, t)
            flash.program(new_ppn)
            ftl._map[lpn] = new_ppn
            ftl._rmap[new_ppn] = lpn
            if ftl.tracer.enabled:
                ftl.tracer.emit(GcMigrate(t, lpn, ppn, new_ppn, plane))
            t = op.end
        return t


class ReferencePageFTL(_ReferenceMigration, PageFTL):
    __slots__ = ()


class ReferenceDFTL(_ReferenceMigration, CachedMappingFTL):
    __slots__ = ()


class ReferenceGC(GarbageCollector):
    """Victim selection as the per-block scan it replaced."""

    __slots__ = ()

    def _collectable(self, plane: int):
        flash = self.flash
        for block in self.geometry.blocks_of_plane(plane):
            if flash.block_is_active(block) or flash.write_ptr[block] == 0:
                continue
            if flash.valid_count[block] >= flash.write_ptr[block]:
                continue
            if block in flash.retired:
                continue
            yield block

    def _select_greedy(self, plane: int) -> Optional[int]:
        flash = self.flash
        best = None
        best_key: Optional[Tuple[int, int]] = None
        for block in self._collectable(plane):
            key = (
                flash.valid_count[block],
                flash.erase_count[block] if self._wear_aware else 0,
            )
            if best_key is None or key < best_key:
                best_key = key
                best = block
        return best

    def _select_cost_benefit(self, plane: int) -> Optional[int]:
        flash = self.flash
        now_seq = flash.total_programs
        pages = self.config.pages_per_block
        best = None
        best_score = -1.0
        for block in self._collectable(plane):
            u = flash.valid_count[block] / pages
            age = max(1, now_seq - flash.last_program_seq[block])
            score = float("inf") if u == 0 else (1.0 - u) * age / (2.0 * u)
            if score > best_score or (
                score == best_score
                and self._wear_aware
                and best is not None
                and flash.erase_count[block] < flash.erase_count[best]
            ):
                best_score = score
                best = block
        return best


class _Recorder:
    """Tracer keeping every event with the program count at emission
    (the fused loop must sync its hoisted counter before each emit)."""

    enabled = True

    def __init__(self, flash: FlashArray) -> None:
        self.flash = flash
        self.events: List[Tuple[Event, int]] = []

    def emit(self, event: Event) -> None:
        self.events.append((event, self.flash.total_programs))


def _build(
    *,
    reference: bool,
    victim_policy: str,
    wear_aware: bool,
    separation: bool,
    dftl: bool,
    traced: bool,
    dict_rmap: bool,
    faults: Optional[FaultProfile] = None,
    fault_seed: int = 0,
) -> PageFTL:
    cfg = SSDConfig(
        n_channels=N_PLANES,
        chips_per_channel=1,
        planes_per_chip=1,
        blocks_per_plane=BLOCKS_PER_PLANE,
        pages_per_block=PAGES_PER_BLOCK,
        page_size_bytes=PAGE_SIZE,
        gc_stream_separation=separation,
    )
    geo = Geometry(cfg)
    flash = FlashArray(cfg, geo)
    tracer = _Recorder(flash) if traced else None
    injector = None
    if faults is not None:
        injector = FaultInjector(faults, seed=fault_seed)
        injector.attach(flash, tracer=tracer)
    res = ResourceTimelines(cfg, geo)
    gc = (ReferenceGC if reference else GarbageCollector)(
        cfg,
        geo,
        flash,
        res,
        wear_aware=wear_aware,
        victim_policy=victim_policy,
        tracer=tracer,
        faults=injector,
    )
    with pytest.MonkeyPatch.context() as mp:
        if dict_rmap:
            mp.setattr(ftl_module, "_RMAP_LIST_MAX_PAGES", 0)
        if dftl:
            cls = ReferenceDFTL if reference else CachedMappingFTL
            return cls(
                cfg,
                geo,
                flash,
                res,
                gc,
                mapping_cache_bytes=CMT_BYTES,
                tracer=tracer,
                faults=injector,
            )
        cls = ReferencePageFTL if reference else PageFTL
        return cls(cfg, geo, flash, res, gc, tracer=tracer, faults=injector)


#: ``(lpns, pinned planes or None, time gap, read?)`` per step.
Stream = List[Tuple[List[int], Optional[List[int]], float, bool]]


def _drive(ftl: PageFTL, stream: Stream) -> List[object]:
    """Feed the stream the way the controller does: one ``write_batch``
    per batch (on DFTL each page translated first), ``read_page`` per
    page for reads (which load DFTL translation pages clean).  Stops at
    the first out-of-space."""
    out: List[object] = []
    t = 0.0
    for lpns, planes, gap, read in stream:
        t += gap
        if read:
            for lpn in lpns:
                out.append(tuple(x.hex() for x in ftl.read_page(lpn, t)))
            continue
        xfer_done, done, err = ftl.write_batch(lpns, t, planes)
        out.append((xfer_done.hex(), done))
        if err is not None:
            out.append(str(err))
            break
    return out


def _hex(values: List[float]) -> List[str]:
    return [v.hex() for v in values]


def _state(ftl: PageFTL) -> Dict[str, object]:
    flash, res, gc = ftl.flash, ftl.resources, ftl.gc
    rmap = ftl._rmap
    state: Dict[str, object] = {
        "page_state": bytes(flash.page_state),
        "valid_count": list(flash.valid_count),
        "write_ptr": list(flash.write_ptr),
        "erase_count": list(flash.erase_count),
        "last_program_seq": list(flash.last_program_seq),
        "free_blocks": [list(free) for free in flash.free_blocks],
        "active_block": list(flash.active_block),
        "gc_active_block": list(flash.gc_active_block),
        "total_programs": flash.total_programs,
        "total_erases": flash.total_erases,
        "retired": sorted(flash.retired),
        "map": list(ftl._map),
        "rmap": list(rmap) if isinstance(rmap, list) else sorted(rmap.items()),
        "n_mapped": ftl.mapped_count(),
        "host_programs": ftl.stats.host_programs,
        "bus_free": _hex(res.bus_free),
        "plane_free": _hex(res.plane_free),
        "bus_busy_ms": _hex(res.bus_busy_ms),
        "plane_busy_ms": _hex(res.plane_busy_ms),
        "gc_stats": (
            gc.stats.invocations,
            gc.stats.blocks_erased,
            gc.stats.pages_migrated,
            gc.stats.busy_ms.hex(),
        ),
    }
    if isinstance(ftl, CachedMappingFTL):
        state["cmt"] = [(e.tvpn, e.dirty) for e in ftl._cmt_list]
        s = ftl.cmt_stats
        state["cmt_stats"] = (s.hits, s.misses, s.writebacks)
    if isinstance(ftl.tracer, _Recorder):
        state["events"] = ftl.tracer.events
    if ftl.faults.enabled:
        f = ftl.faults
        state["faults"] = (f.program_fails, f.erase_fails, f.rescued_pages)
    return state


def _lockstep(stream: Stream, **kwargs: Any) -> Dict[str, object]:
    """Run ``stream`` on a fused and a reference device; assert they end
    identical and return the fused device's state."""
    fused = _build(reference=False, **kwargs)
    ref = _build(reference=True, **kwargs)
    assert _drive(fused, stream) == _drive(ref, stream)
    fused_state, ref_state = _state(fused), _state(ref)
    assert fused_state == ref_state
    fused.flash.validate()
    return fused_state


lpn_lists = st.lists(st.integers(0, MAX_LPN), min_size=1, max_size=6)
pinned = st.one_of(
    st.none(), st.lists(st.integers(0, N_PLANES - 1), min_size=1, max_size=2)
)
gaps = st.sampled_from([0.0, 0.01, 0.5, 3.0, 40.0])
reads = st.integers(0, 3).map(lambda n: n == 0)  # one step in four reads
streams = st.lists(
    st.tuples(lpn_lists, pinned, gaps, reads), min_size=1, max_size=60
)

GC_CONFIGS = [
    pytest.param(victim, wear, sep, dftl, id=f"{victim}-{wid}-{sid}-{fid}")
    for victim in ("greedy", "cost_benefit")
    for wear, wid in ((False, "plain"), (True, "wear"))
    for sep, sid in ((False, "shared"), (True, "gcstream"))
    for dftl, fid in ((False, "pageftl"), (True, "dftl"))
]


def _hot_cold_stream() -> Stream:
    """Hot rewrites interleaved with write-once cold pages: victims hold
    live cold data, so GC must migrate.  Reads of the cold range keep
    some of its translation pages cached clean until GC dirties them."""
    stream: Stream = []
    cold = 20
    for i in range(240):
        lpns = [i % 5]
        if i % 6 == 0:
            lpns.append(cold)
            cold = cold + 1 if cold < MAX_LPN else 20
        stream.append((lpns, None, 0.5, False))
        if i % 4 == 0:
            stream.append(([20 + i % 21], None, 0.5, True))
    return stream


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("victim,wear,sep,dftl", GC_CONFIGS)
def test_fixed_stream_migrates_in_lockstep(victim, wear, sep, dftl, traced):
    """A stream known to make GC migrate pages, in every configuration."""
    state = _lockstep(
        _hot_cold_stream(),
        victim_policy=victim,
        wear_aware=wear,
        separation=sep,
        dftl=dftl,
        traced=traced,
        dict_rmap=False,
    )
    _invocations, erased, migrated, _busy = state["gc_stats"]  # type: ignore[misc]
    assert migrated > 0 and erased > 0


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("victim,wear,sep,dftl", GC_CONFIGS)
@settings(max_examples=15, deadline=None)
@given(stream=streams, dict_rmap=st.booleans())
def test_generated_streams_in_lockstep(
    victim, wear, sep, dftl, traced, stream, dict_rmap
):
    _lockstep(
        stream,
        victim_policy=victim,
        wear_aware=wear,
        separation=sep,
        dftl=dftl,
        traced=traced,
        dict_rmap=dict_rmap,
    )


#: Program failures often enough that tiny streams retire blocks, so
#: the bad-block rescue (the other caller of migrate_block) runs.
RESCUE_PROFILE = FaultProfile(
    name="rescue-heavy",
    program_fail_prob=0.05,
    erase_fail_prob=0.02,
    read_error_prob=0.0,
    spare_blocks_per_plane=2,
)


@pytest.mark.parametrize("dftl", [False, True], ids=["pageftl", "dftl"])
@pytest.mark.parametrize("sep", [False, True], ids=["shared", "gcstream"])
@settings(max_examples=15, deadline=None)
@given(stream=streams, seed=st.integers(0, 2**16), traced=st.booleans())
def test_rescue_in_lockstep(sep, dftl, stream, seed, traced):
    """Bad-block rescue migrates through the same loop, bit-identically."""
    _lockstep(
        stream,
        victim_policy="greedy",
        wear_aware=False,
        separation=sep,
        dftl=dftl,
        traced=traced,
        dict_rmap=False,
        faults=RESCUE_PROFILE,
        fault_seed=seed,
    )


def test_rescue_stream_rescues_pages():
    """The rescue lockstep is not vacuous: this stream and seed retire
    blocks holding live data."""
    state = _lockstep(
        _hot_cold_stream(),
        victim_policy="greedy",
        wear_aware=False,
        separation=False,
        dftl=False,
        traced=True,
        dict_rmap=False,
        faults=RESCUE_PROFILE,
        fault_seed=0,
    )
    _program_fails, _erase_fails, rescued = state["faults"]  # type: ignore[misc]
    assert rescued > 0
