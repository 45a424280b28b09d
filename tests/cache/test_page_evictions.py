"""``PageEvictions``: LRU's run of one-page evictions, and its consumers.

LRU's fused ``access`` hands a request's victims on as one
:class:`PageEvictions` view instead of one ``FlushBatch`` per evicted
page.  These tests pin that the view reads exactly as the materialised
list ``[FlushBatch([lpn]) for lpn in lpns]``, and that the consumers
which read its LPNs whole — ``SSDController.submit``,
``ReplayMetrics.record`` and ``fold_eviction_digest`` — end in exactly
the state the materialised list gives them.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.base import AccessOutcome, FlushBatch, PageEvictions
from repro.cache.lru import LRUCache
from repro.faults.injector import FaultInjector
from repro.faults.profile import get_profile
from repro.obs.profile import PhaseProfiler
from repro.obs.tracer import CountingTracer
from repro.sim.metrics import ReplayMetrics, fold_eviction_digest
from repro.sim.replay import ReplayConfig, replay_trace
from repro.ssd.config import SSDConfig
from repro.ssd.controller import SSDController
from repro.traces.synthetic import SyntheticConfig, generate_trace
from tests.conftest import W
from tests.ssd.test_write_batch import _state as _ftl_state

# ----------------------------------------------------------------------
# The view against the materialised list
# ----------------------------------------------------------------------
lpn_lists = st.lists(st.integers(min_value=0, max_value=2**40), max_size=24)


def _indexed(seq, index):
    """``seq[index]``, or the exception type it raises."""
    try:
        return seq[index]
    except IndexError:
        return IndexError


@settings(max_examples=200, deadline=None)
@given(lpns=lpn_lists, data=st.data())
def test_view_reads_as_the_materialised_list(lpns, data):
    view = PageEvictions(list(lpns))
    batches = [FlushBatch([lpn]) for lpn in lpns]

    assert len(view) == len(batches)
    assert bool(view) is bool(batches)
    assert list(view) == batches
    assert all(b.reason == "capacity" and b.pin_key is None for b in view)
    for i in range(-len(lpns) - 2, len(lpns) + 2):
        assert _indexed(view, i) == _indexed(batches, i)
    bound = st.none() | st.integers(-len(lpns) - 3, len(lpns) + 3)
    step = st.none() | st.integers(-4, 4).filter(bool)
    window = slice(data.draw(bound), data.draw(bound), data.draw(step))
    assert view[window] == batches[window]
    assert type(view[window]) is list

    assert view == batches and batches == view
    assert not view != batches and not batches != view
    assert view == PageEvictions(list(lpns))
    assert view != [*batches, FlushBatch([0])]
    if lpns:
        assert view != batches[:-1]
        assert view != [*batches[:-1], FlushBatch([lpns[-1]], pin_key=0)]
        assert view != [*batches[:-1], FlushBatch([lpns[-1]], reason="drain")]
        assert view != PageEvictions(list(lpns[:-1]))


def test_view_is_read_only_and_unhashable():
    view = PageEvictions([3, 4])
    with pytest.raises(TypeError):
        view[0] = FlushBatch([5])
    with pytest.raises(AttributeError):
        view.append(FlushBatch([5]))
    with pytest.raises(TypeError):
        hash(view)


def test_lru_hands_victims_on_as_one_view():
    lru = LRUCache(4)
    out = lru.access(W(0, 4))
    assert type(out.flushes) is list and out.flushes == []
    out = lru.access(W(10, 3))
    assert type(out.flushes) is PageEvictions
    assert out.flushes.lpns == [0, 1, 2]
    assert out.flushes == [FlushBatch([0]), FlushBatch([1]), FlushBatch([2])]
    assert out.flushed_pages == 3


# ----------------------------------------------------------------------
# Consumers in lockstep: the view against the materialised list
# ----------------------------------------------------------------------
#: A write-heavy trace over a footprint the small device below holds
#: with little room to spare, so LRU evicts runs of several pages and
#: the FTL collects garbage throughout.
TRACE = SyntheticConfig(
    name="evict-run",
    n_requests=3000,
    seed=11,
    write_ratio=0.75,
    small_write_fraction=0.5,
    small_size_mean=2.0,
    small_size_max=4,
    large_size_mean=12.0,
    large_size_max=48,
    n_hot_slots=64,
    zipf_theta=1.1,
    large_span_pages=2000,
    target_pages_per_ms=4.5,
)
DEVICE = SSDConfig(
    n_channels=2,
    chips_per_channel=2,
    planes_per_chip=2,
    blocks_per_plane=24,
    pages_per_block=16,
)
CACHE_PAGES = 64


@pytest.fixture(scope="module")
def trace():
    return generate_trace(TRACE)


@pytest.fixture(scope="module")
def outcomes(trace):
    """LRU's untraced outcomes of ``trace`` (views for evicting ones)."""
    lru = LRUCache(CACHE_PAGES)
    return [lru.access(r) for r in trace]


def _materialised(outcome: AccessOutcome) -> AccessOutcome:
    return AccessOutcome(
        page_hits=outcome.page_hits,
        page_misses=outcome.page_misses,
        read_miss_lpns=list(outcome.read_miss_lpns),
        inserted_pages=outcome.inserted_pages,
        flushes=list(outcome.flushes),
    )


class _Replayed:
    """Policy stand-in returning captured outcomes in trace order."""

    def __init__(self, outcomes) -> None:
        self._next = iter(outcomes).__next__

    def access(self, _request):
        return self._next()


def _device_state(c: SSDController) -> dict:
    return {
        **_ftl_state(c.ftl),
        "flushed_pages": c.flushed_pages,
        "degraded": (c.degraded.active, c.degraded.flush_pages_dropped),
    }


def _run(trace, outcomes, faults, profiled):
    """Service ``outcomes`` on a fresh device; fold records and digest."""
    profiler = PhaseProfiler() if profiled else None
    injector = None
    if faults is not None:
        injector = FaultInjector(get_profile(faults), seed=5)
    controller = SSDController(
        DEVICE, _Replayed(outcomes), faults=injector, profiler=profiler
    )
    records = [controller.submit(r) for r in trace]
    metrics = ReplayMetrics(trace_name=trace.name, policy_name="lru")
    digest = hashlib.sha256()
    # The per-batch ``repr`` encoding of the seed equivalence suite,
    # over the batches as iteration yields them.
    reference = hashlib.sha256()
    for request, record in zip(trace, records):
        metrics.record(request, record)
        if record.outcome.flushes:
            fold_eviction_digest(digest, record.outcome.flushes)
        for batch in record.outcome.flushes:
            reference.update(repr((tuple(batch.lpns), batch.pin_key)).encode())
    return {
        "responses": [r.response_ms.hex() for r in records],
        "device": _device_state(controller),
        "metrics": {
            f.name: pickle.dumps(getattr(metrics, f.name)) for f in fields(metrics)
        },
        "digest": digest.hexdigest(),
        "reference_digest": reference.hexdigest(),
        "profile_calls": {
            name: cells["calls"] for name, cells in profiler.as_dict().items()
        }
        if profiled
        else {},
    }


@pytest.mark.parametrize("profiled", [False, True], ids=["plain", "profiled"])
@pytest.mark.parametrize("faults", [None, "harsh"], ids=["fault_free", "harsh"])
def test_consumers_match_the_materialised_list(trace, outcomes, faults, profiled):
    views = [o.flushes for o in outcomes if type(o.flushes) is PageEvictions]
    # The stream must exercise what the view replaces: multi-page runs,
    # and every evicting request handing on a view.
    assert sum(len(v) > 1 for v in views) > 100
    assert all(type(o.flushes) is list for o in outcomes if not o.flushes)

    viewed = _run(trace, outcomes, faults, profiled)
    listed = _run(trace, [_materialised(o) for o in outcomes], faults, profiled)

    assert viewed["device"]["gc_stats"][0] > 0
    assert viewed["device"] == listed["device"]
    assert viewed["responses"] == listed["responses"]
    assert viewed["metrics"] == listed["metrics"]
    assert viewed["profile_calls"] == listed["profile_calls"]
    assert viewed["digest"] == listed["digest"] == listed["reference_digest"]
    assert viewed["reference_digest"] == listed["reference_digest"]


def test_untraced_replay_matches_the_traced_one(trace):
    """Attaching a tracer to LRU changes no replayed number: the
    summary, the flash counters and the digest agree."""

    def run(tracer):
        return replay_trace(
            trace,
            ReplayConfig(
                policy="lru",
                cache_bytes=CACHE_PAGES * 4096,
                ssd=DEVICE,
                tracer=tracer,
                digest_evictions=True,
            ),
        )

    plain, traced = run(None), run(CountingTracer())
    assert plain.summary() == traced.summary()
    assert plain.eviction_hist._buckets == traced.eviction_hist._buckets
    assert plain.eviction_digest == traced.eviction_digest
    assert plain.response_ms.total.hex() == traced.response_ms.total.hex()
