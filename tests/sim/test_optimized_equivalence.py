"""Pin the optimised fast paths to the seed implementations' behaviour.

The hot-path optimisations (fused policy access loops, the inlined FTL
write path, NamedTuple op records, inlined metric accumulators) are
only legal if they are *behaviourally invisible*: every policy must
produce the exact eviction sequence — same batches, same LPN order,
same pin keys — that the original method-per-step implementations
produced, and the replay metrics must stay byte-identical.

The digests below were recorded from the pre-optimisation code on a
seeded synthetic trace.  They are order-sensitive (sha256 over the
``(lpns, pin_key)`` repr of every non-empty flush batch), so any
reordering, dropped eviction, or change in batch composition fails —
not just aggregate-count drift.  If a digest changes, the optimisation
changed semantics: fix the code, do not re-record, unless the eviction
policy itself was deliberately changed.

The golden-metrics suite (tests/sim/test_golden_metrics.py) plays the
same role for the end-to-end replay numbers; this test localises a
divergence to the cache layer and runs in seconds.

The event-stream pins go one step further: they hash every line a
:class:`~repro.obs.tracer.JsonlTracer` writes, so the order, the clock
stamps and the fields of the traced events are pinned too.  The
cache-only pins cover every registered policy; the device pins replay
the paper's four policies through a small device that garbage-collects,
so ``ListMove``, ``Split``, ``DowngradeMerge``, ``FlashWrite`` and
``GcMigrate`` events interleave with the cache events.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cache import available_policies, create_policy
from repro.obs.tracer import JsonlTracer
from repro.sim.replay import ReplayConfig, replay_trace
from repro.ssd.config import SSDConfig
from repro.traces.synthetic import SyntheticConfig, generate_trace

CACHE_PAGES = 256

#: policy -> (evictions, page hits, page misses, eviction-sequence digest),
#: recorded from the seed implementation (commit 1fc5ee7) on the trace below.
GOLDEN = {
    "lru": (
        11228,
        3380,
        12797,
        "86603fdbbc91f9b74de4a8fe4a9188ea00c8aaa770cc641309b08f5057072a0a",
    ),
    "bplru": (
        377,
        3716,
        12461,
        "aba93422e9692dfb3c51b21b4cd5e22ae535448e8ccbb14cf38a750ee886d1af",
    ),
    "vbbms": (
        3070,
        3894,
        12283,
        "ec747328806077a59c4624cd3acbcd1f55af6fecc1358c818986bbf16ec7c02b",
    ),
    "reqblock": (
        1461,
        3944,
        12233,
        "8e7f6290c52281094868a6b3615007663d064eba1455fbd25b49a0c98e42e429",
    ),
}


def _equiv_trace():
    cfg = SyntheticConfig(
        name="equiv",
        n_requests=4000,
        seed=97,
        write_ratio=0.7,
        small_write_fraction=0.6,
        small_size_mean=2.0,
        small_size_max=4,
        large_size_mean=10.0,
        large_size_max=48,
        n_hot_slots=64,
        zipf_theta=1.1,
        large_span_pages=20_000,
        target_pages_per_ms=4.5,
    )
    return generate_trace(cfg)


@pytest.fixture(scope="module")
def equiv_trace():
    return _equiv_trace()


@pytest.mark.parametrize("policy_name", sorted(GOLDEN))
def test_eviction_sequence_matches_seed(equiv_trace, policy_name):
    policy = create_policy(policy_name, CACHE_PAGES)
    h = hashlib.sha256()
    evictions = hits = misses = 0
    for request in equiv_trace.requests:
        outcome = policy.access(request)
        hits += outcome.page_hits
        misses += outcome.page_misses
        for batch in outcome.flushes:
            if batch.lpns:
                evictions += 1
                h.update(repr((tuple(batch.lpns), batch.pin_key)).encode())
    want_evictions, want_hits, want_misses, want_digest = GOLDEN[policy_name]
    assert (evictions, hits, misses) == (want_evictions, want_hits, want_misses)
    assert h.hexdigest() == want_digest


@pytest.mark.parametrize("policy_name", sorted(GOLDEN))
def test_traced_path_matches_fast_path(equiv_trace, policy_name):
    """Emitting events must not change what a policy does.

    Each policy has one page loop, which emits its events only when a
    tracer is attached; replaying the same trace with and without one
    must give identical outcomes and eviction sequences.
    """
    from repro.obs.tracer import CountingTracer

    fast = create_policy(policy_name, CACHE_PAGES)
    traced = create_policy(policy_name, CACHE_PAGES)
    traced.set_tracer(CountingTracer())

    h_fast = hashlib.sha256()
    h_traced = hashlib.sha256()
    for request in equiv_trace.requests:
        a = fast.access(request)
        b = traced.access(request)
        assert (a.page_hits, a.page_misses, a.inserted_pages) == (
            b.page_hits,
            b.page_misses,
            b.inserted_pages,
        )
        for batch in a.flushes:
            if batch.lpns:
                h_fast.update(repr((tuple(batch.lpns), batch.pin_key)).encode())
        for batch in b.flushes:
            if batch.lpns:
                h_traced.update(repr((tuple(batch.lpns), batch.pin_key)).encode())
    assert h_fast.hexdigest() == h_traced.hexdigest() == GOLDEN[policy_name][3]



#: policy -> (events, sha256 over the JsonlTracer lines) of one
#: cache-only pass over the trace above, for every registered policy
#: at its defaults (a policy without a pin fails with ``KeyError``).
EVENT_STREAM_CACHE_ONLY = {
    "bplru": (
        27775,
        "4d62c0dc0cf1f5384fe8b93b00e15d3c51f22448a9efdf56e95a353c85848b28",
    ),
    "cflru": (
        40227,
        "b04068d2855a14b8c34ef8fd6c5f860d975b15874aca8c47d2fae69f5cfd8108",
    ),
    "ecr": (
        38889,
        "0f054ae65f12c41c2052e7f072953a319f4c35aa4b56c4d011246639411737f8",
    ),
    "fab": (
        29168,
        "1833530da49da96ec74a7db6596e89425628e60c666cab8921ed6f01cb679e83",
    ),
    "fifo": (
        39509,
        "4353b7e965ed538aacd5156306b8903c0ddda4d912ddc56553f14633b14146a7",
    ),
    "lfu": (
        38777,
        "a137e7e44f552619b6a6d2c5cc9c71031d0aca77ee5f3b1b9c9a840fb5670a97",
    ),
    "lru": (
        38889,
        "fef48c6042d438ce0b53a2bc5f82fb6b417d34057135b5596f1b5536da3f404e",
    ),
    "pudlru": (
        28502,
        "8aef33d7302c0f8627682fc0cde0ff013fc89c22d7dcb416993715dee1b216be",
    ),
    "reqblock": (
        32657,
        "34ca2c97ca627b1b43cd46e5dbc4ad83c3d5e8dfc9f4357fa5fe84d1782e3a60",
    ),
    "reqblock-adaptive": (
        32657,
        "34ca2c97ca627b1b43cd46e5dbc4ad83c3d5e8dfc9f4357fa5fe84d1782e3a60",
    ),
    "vbbms": (
        30370,
        "2a98e9d857bb3ec6d9a9ce00ff635e487f7281d624014fa381db6f38eb91159e",
    ),
}

#: A device small enough (10,240 pages for an 8,280-page write
#: footprint) that every replay below runs garbage collection.
EVENT_STREAM_SSD = SSDConfig(
    n_channels=2,
    chips_per_channel=1,
    planes_per_chip=2,
    blocks_per_plane=40,
    pages_per_block=64,
)

#: case -> (policy, policy kwargs, events, sha256 over the JsonlTracer
#: lines) of one ``replay_trace`` on :data:`EVENT_STREAM_SSD`.  Req-block
#: at δ = 1 splits often enough that downgraded merges happen on this
#: trace.
EVENT_STREAM_DEVICE = {
    "lru": (
        "lru",
        {},
        53687,
        "07346925f8b9409d856a5a24859376d2c66413ef0655a30418ac128cadf62335",
    ),
    "bplru": (
        "bplru",
        {},
        41280,
        "239797a620cf523a2ed9d7e83ef069e8a375e677c4b13a6f395fc985ca10ef0d",
    ),
    "vbbms": (
        "vbbms",
        {},
        44410,
        "603c384315ef22b54c980cff462e73844d3c19c00af2467d6fdd3fd50ea71247",
    ),
    "reqblock": (
        "reqblock",
        {},
        46472,
        "57e83faf5d939ce680896cd4ae63d4eaa276e9560114700c1d5ed5e7a19bd5ca",
    ),
    "reqblock-delta1": (
        "reqblock",
        {"delta": 1},
        46605,
        "93faf2966422400d57e6cb0c8edfe5cee2f3890f5f48886feb3e8989bc077fc1",
    ),
}


class _HashSink:
    """Write-only text sink that hashes what it is given."""

    def __init__(self) -> None:
        self.sha = hashlib.sha256()

    def write(self, text: str) -> int:
        self.sha.update(text.encode())
        return len(text)

    def flush(self) -> None:
        pass


def _hashing_tracer():
    sink = _HashSink()
    return sink, JsonlTracer(sink)


@pytest.mark.parametrize("policy_name", available_policies())
def test_cache_only_event_stream_matches_pin(equiv_trace, policy_name):
    sink, tracer = _hashing_tracer()
    policy = create_policy(policy_name, CACHE_PAGES)
    policy.set_tracer(tracer)
    for request in equiv_trace.requests:
        policy.access(request)
    tracer.close()
    assert (tracer.n_events, sink.sha.hexdigest()) == (
        EVENT_STREAM_CACHE_ONLY[policy_name]
    )


@pytest.mark.parametrize("case", sorted(EVENT_STREAM_DEVICE))
def test_device_event_stream_matches_pin(equiv_trace, case):
    policy_name, kwargs, n_events, digest = EVENT_STREAM_DEVICE[case]
    sink, tracer = _hashing_tracer()
    replay_trace(
        equiv_trace,
        ReplayConfig(
            policy=policy_name,
            cache_bytes=CACHE_PAGES * 4096,
            policy_kwargs=dict(kwargs),
            ssd=EVENT_STREAM_SSD,
            tracer=tracer,
        ),
    )
    tracer.close()
    assert (tracer.n_events, sink.sha.hexdigest()) == (n_events, digest)
