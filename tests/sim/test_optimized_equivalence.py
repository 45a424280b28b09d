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
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cache import create_policy
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
    """The traced mirror loop must stay in lockstep with the fused one.

    The fast ``access`` loops were fused for speed while the traced
    variants kept the original method-per-step structure; replaying the
    same trace through both must give identical eviction sequences.
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

