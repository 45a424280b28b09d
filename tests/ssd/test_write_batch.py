"""Lockstep test: ``PageFTL.write_batch`` against a per-page reference.

``write_batch`` is the one loop that programs host pages: the
controller's flushes, the power-loss capacitor flush and the
single-page ``write_page`` (a batch of one) all run through it, with
the ``FlashArray`` and ``ResourceTimelines`` bookkeeping inlined and the
fault retries and the ``FlashWrite`` emit behind per-page branches.  The
reference below keeps the per-page method sequence the fault-injected
path used to run: ``allocate_page`` → ``schedule_program`` →
``faults.on_program`` retries at the failed attempt's end →
``invalidate`` → ``program`` → the mapping update → ``FlashWrite`` →
``maybe_collect``.  On DFTL each page is translated first and
programmed when its translation is ready.

Two identical devices take the same Hypothesis-generated stream of
striped and pinned write batches, single-page writes and read batches,
one writing through each implementation.  Every return value, and
afterwards the flash arrays, free lists, write points, map and rmap,
timelines and busy accumulators (bit-exact), the FTL, GC, CMT and
injector counters and the traced event stream (with the counters an
invariant checker would read at each event) must be identical.  Every
configuration is covered: clean, ``harsh`` and a program-failure-heavy
profile with equal seeds, traced and untraced, plain and DFTL, shared
and separate GC streams, both rmap shapes, and streams that run the
device out of space.
"""

from __future__ import annotations

import random
from dataclasses import astuple
from typing import Any, Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ssd.ftl as ftl_module
from repro.faults.injector import MAX_PROGRAM_ATTEMPTS, FaultInjector
from repro.faults.profile import FaultProfile, get_profile
from repro.obs.events import Event, FlashWrite
from repro.ssd.config import SSDConfig
from repro.ssd.dftl import CachedMappingFTL
from repro.ssd.flash import FlashArray, FlashOutOfSpace
from repro.ssd.ftl import PageFTL
from repro.ssd.gc import GarbageCollector
from repro.ssd.geometry import Geometry
from repro.ssd.resources import OpTimes, ResourceTimelines

N_PLANES = 2
BLOCKS_PER_PLANE = 12
PAGES_PER_BLOCK = 4
#: 128-byte pages hold 16 mapping entries each: the LPN range below
#: spans several translation pages against a two-page CMT.
PAGE_SIZE = 128
CMT_BYTES = 2 * PAGE_SIZE

#: Program failures often enough that streams retry pages, now and then
#: retry one twice, and retire blocks until space runs out.
RETRY_PROFILE = FaultProfile(
    name="retry-heavy",
    program_fail_prob=0.05,
    erase_fail_prob=0.02,
    read_error_prob=0.05,
    spare_blocks_per_plane=2,
)
PROFILES = {"clean": None, "harsh": get_profile("harsh"), "retry": RETRY_PROFILE}


class _ReferenceWrites:
    """``write_batch`` and ``write_page`` as the per-page method
    sequence of the former fault-injected write path."""

    __slots__ = ()

    def write_batch(
        self, lpns: List[int], now: float, planes: Optional[List[int]] = None
    ) -> "tuple[float, int, Optional[FlashOutOfSpace]]":
        xfer_done = now
        for i, lpn in enumerate(lpns):
            try:
                plane = planes[i % len(planes)] if planes else None
                op = self._write_one(lpn, now, plane)
            except FlashOutOfSpace as exc:
                return xfer_done, i, exc
            if op.xfer_end > xfer_done:
                xfer_done = op.xfer_end
        return xfer_done, len(lpns), None

    def write_page(self, lpn: int, now: float, plane: Optional[int] = None) -> OpTimes:
        return self._write_one(lpn, now, plane)

    def _write_one(self, lpn: int, now: float, plane: Optional[int]) -> OpTimes:
        ftl: Any = self
        if isinstance(ftl, CachedMappingFTL):
            now = ftl._translate(lpn, now, dirty=True)
        if plane is None:
            plane = ftl._alloc_order[ftl._rr]
            ftl._rr = (ftl._rr + 1) % len(ftl._alloc_order)
        flash, res, faults = ftl.flash, ftl.resources, ftl.faults
        ppn = flash.allocate_page(plane)
        op = res.schedule_program(plane, now)
        for _ in range(MAX_PROGRAM_ATTEMPTS - 1):
            if not faults.enabled or not faults.on_program(ftl, ppn, plane, op.end):
                break
            ppn = flash.allocate_page(plane)
            op = res.schedule_program(plane, op.end)
        m = ftl._map
        if lpn >= len(m):
            m.extend([-1] * (lpn + 1 - len(m)))
        old = m[lpn]
        if old >= 0:
            flash.invalidate(old)
            if ftl._rmap_list:
                ftl._rmap[old] = -1
            else:
                del ftl._rmap[old]
        else:
            ftl._n_mapped += 1
        flash.program(ppn)
        m[lpn] = ppn
        ftl._rmap[ppn] = lpn
        ftl.stats.host_programs += 1
        if ftl.tracer.enabled:
            ftl.tracer.emit(FlashWrite(now, lpn, ppn, plane))
        ftl.gc.maybe_collect(ftl, plane, op.end)
        return op


class ReferencePageFTL(_ReferenceWrites, PageFTL):
    __slots__ = ()


class ReferenceDFTL(_ReferenceWrites, CachedMappingFTL):
    __slots__ = ()


class _Recorder:
    """Tracer keeping every event with the counters an invariant
    checker reads at it (the loop must sync them before each emit)."""

    enabled = True

    def __init__(self) -> None:
        self.ftl: Optional[PageFTL] = None
        self.events: List[Tuple[Event, int, int, int]] = []

    def emit(self, event: Event) -> None:
        ftl = self.ftl
        assert ftl is not None
        self.events.append(
            (
                event,
                ftl.flash.total_programs,
                ftl.stats.host_programs,
                ftl.mapped_count(),
            )
        )


def _build(
    *,
    reference: bool,
    profile: str,
    seed: int,
    traced: bool,
    dftl: bool,
    separation: bool,
    dict_rmap: bool,
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
    tracer = _Recorder() if traced else None
    injector = None
    if PROFILES[profile] is not None:
        injector = FaultInjector(PROFILES[profile], seed=seed)
        injector.attach(flash, tracer=tracer)
    res = ResourceTimelines(cfg, geo)
    gc = GarbageCollector(cfg, geo, flash, res, tracer=tracer, faults=injector)
    with pytest.MonkeyPatch.context() as mp:
        if dict_rmap:
            mp.setattr(ftl_module, "_RMAP_LIST_MAX_PAGES", 0)
        if dftl:
            cls = ReferenceDFTL if reference else CachedMappingFTL
            ftl: PageFTL = cls(
                cfg,
                geo,
                flash,
                res,
                gc,
                mapping_cache_bytes=CMT_BYTES,
                tracer=tracer,
                faults=injector,
            )
        else:
            cls = ReferencePageFTL if reference else PageFTL
            ftl = cls(cfg, geo, flash, res, gc, tracer=tracer, faults=injector)
    if tracer is not None:
        tracer.ftl = ftl
    return ftl


#: ``(kind, lpns, pinned planes or None, time gap)`` per step; ``kind``
#: is ``"batch"`` (one ``write_batch``), ``"page"`` (``write_page`` per
#: LPN) or ``"read"`` (one ``read_batch``).
Stream = List[Tuple[str, List[int], Optional[List[int]], float]]


def _drive(ftl: PageFTL, stream: Stream) -> Tuple[List[object], Optional[str]]:
    """Feed ``stream``; returns every result, bit-exact, and the
    out-of-space error that stopped it (a controller goes read-only),
    or None."""
    out: List[object] = []
    t = 0.0
    for kind, lpns, planes, gap in stream:
        t += gap
        if kind == "read":
            out.append(ftl.read_batch(lpns, t).hex())
        elif kind == "batch":
            xfer_done, done, err = ftl.write_batch(lpns, t, planes)
            out.append((xfer_done.hex(), done))
            if err is not None:
                return out, str(err)
        else:
            try:
                for i, lpn in enumerate(lpns):
                    plane = planes[i % len(planes)] if planes else None
                    op = ftl.write_page(lpn, t, plane)
                    out.append(tuple(x.hex() for x in op))
            except FlashOutOfSpace as exc:
                return out, str(exc)
    return out, None


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
        "spare_blocks": [list(spares) for spares in flash.spare_blocks],
        "active_block": list(flash.active_block),
        "gc_active_block": list(flash.gc_active_block),
        "total_programs": flash.total_programs,
        "total_erases": flash.total_erases,
        "retired": sorted(flash.retired),
        "map": list(ftl._map),
        "rmap": list(rmap) if isinstance(rmap, list) else sorted(rmap.items()),
        "n_mapped": ftl.mapped_count(),
        "rr": ftl._rr,
        "stats": astuple(ftl.stats),
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
        state["faults"] = (
            f.program_fails,
            f.erase_fails,
            f.rescued_pages,
            f.reads_with_retry,
            f.read_retries,
            f.unrecoverable_reads,
            f.bad_blocks.blocks_retired,
            f.bad_blocks.spares_consumed,
        )
    return state


def _lockstep(stream: Stream, **kwargs: Any) -> Dict[str, object]:
    """Run ``stream`` on a ``write_batch`` and a reference device; assert
    they end identical and return the first one's results and state."""
    batched = _build(reference=False, **kwargs)
    ref = _build(reference=True, **kwargs)
    out, err = _drive(batched, stream)
    assert (out, err) == _drive(ref, stream)
    state = _state(batched)
    assert state == _state(ref)
    batched.flash.validate()
    batched.validate()
    state["out_of_space"] = err
    return state


def _fill_stream(seed: int) -> Stream:
    """Hot rewrites, read back now and then, with a write-once cold
    page every eighth step: GC migrates for a long while, then the cold
    pages outgrow the device and it runs out of space.  One batch in
    five is pinned, one write in six goes page by page."""
    rng = random.Random(seed)
    stream: Stream = []
    cold = 20
    for i in range(6000):
        lpns = [rng.randrange(12) for _ in range(rng.randint(1, 4))]
        if i % 8 == 0:
            lpns.append(cold)
            cold += 1
        planes = [rng.randrange(N_PLANES)] if rng.random() < 0.2 else None
        kind = "page" if rng.random() < 1 / 6 else "batch"
        stream.append((kind, lpns, planes, 0.3))
        if i % 5 == 0:
            stream.append(("read", [rng.randrange(cold) for _ in range(3)], None, 0.0))
    return stream


CONFIGS = [
    pytest.param(profile, traced, dftl, id=f"{profile}-{tid}-{fid}")
    for profile in PROFILES
    for traced, tid in ((False, "untraced"), (True, "traced"))
    for dftl, fid in ((False, "pageftl"), (True, "dftl"))
]


@pytest.mark.parametrize("dict_rmap", [False, True], ids=["list-rmap", "dict-rmap"])
@pytest.mark.parametrize("separation", [False, True], ids=["shared", "gcstream"])
@pytest.mark.parametrize("profile,traced,dftl", CONFIGS)
def test_fill_stream_in_lockstep(profile, traced, dftl, separation, dict_rmap):
    """A stream that makes GC migrate and then runs the device out of
    space, in every configuration; the faulty profiles fail programs."""
    state = _lockstep(
        _fill_stream(seed=2),
        profile=profile,
        seed=0,
        traced=traced,
        dftl=dftl,
        separation=separation,
        dict_rmap=dict_rmap,
    )
    _invocations, _erased, migrated, _busy = state["gc_stats"]  # type: ignore[misc]
    assert migrated > 0
    assert state["out_of_space"] is not None
    if profile != "clean":
        program_fails, *_ = state["faults"]  # type: ignore[misc]
        assert program_fails > 0


pinned = st.one_of(
    st.none(), st.lists(st.integers(0, N_PLANES - 1), min_size=1, max_size=2)
)
kinds = st.sampled_from(["batch", "batch", "page", "read"])
gaps = st.sampled_from([0.0, 0.01, 0.5, 3.0, 40.0])


def _steps(max_lpn: int) -> st.SearchStrategy[Stream]:
    lpns = st.lists(st.integers(0, max_lpn), min_size=1, max_size=6)
    return st.lists(st.tuples(kinds, lpns, pinned, gaps), min_size=1, max_size=60)


#: Footprints from well inside the 96 physical pages to past what GC
#: can keep free, so some streams run the device out of space (both
#: sides must fail alike).
streams = st.integers(20, 70).flatmap(_steps)


@pytest.mark.parametrize("profile,traced,dftl", CONFIGS)
@settings(max_examples=25, deadline=None)
@given(
    stream=streams,
    seed=st.integers(0, 2**16),
    separation=st.booleans(),
    dict_rmap=st.booleans(),
)
def test_generated_streams_in_lockstep(
    profile, traced, dftl, stream, seed, separation, dict_rmap
):
    _lockstep(
        stream,
        profile=profile,
        seed=seed,
        traced=traced,
        dftl=dftl,
        separation=separation,
        dict_rmap=dict_rmap,
    )


def test_retry_profile_retries_a_page_twice():
    """The retry lockstep is not vacuous: some page fails its program
    twice and is written on its third attempt."""
    state = _lockstep(
        _fill_stream(seed=2),
        profile="retry",
        seed=0,
        traced=True,
        dftl=False,
        separation=False,
        dict_rmap=False,
    )
    marks = {"program": "f", "flash_write": "w"}
    runs = "".join(
        marks.get(getattr(event, "op", event.kind), "")
        for event, *_counters in state["events"]  # type: ignore[attr-defined]
    )
    assert "ffw" in runs
