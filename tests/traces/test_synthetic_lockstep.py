"""Columnar synthesis against the per-request loop it replaced.

``SyntheticTraceGenerator.generate`` draws every random column up front
and resolves the request addresses column by column.
``ReferenceGenerator`` below is the per-request loop that did the same
before, kept verbatim (bar its name): the lockstep tests run both on
Hypothesis configs, and the pins are the sha256 of the four trace
columns of every paper workload, recorded with that loop.  A failure
here means a trace changed, and with it every figure, seed digest and
``perfbench/expected.json`` pin built on it (docs/workload_calibration.md,
"Draw order is a compatibility contract").
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import deque
from typing import Deque, List, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.traces.io import trace_columns
from repro.traces.model import IORequest, OpType, Trace
from repro.traces.synthetic import (
    SyntheticConfig,
    SyntheticTraceGenerator,
    _zipf_probabilities,
    generate_trace,
)
from repro.traces.workloads import WORKLOAD_ORDER, get_config
from repro.utils.rng import resolve_rng


class ReferenceGenerator:
    """Generates a :class:`Trace` from a :class:`SyntheticConfig`.

    Deterministic for a given config (seed included), which the
    replay-determinism tests rely on.
    """

    def __init__(self, config: SyntheticConfig) -> None:
        self.config = config

    # ------------------------------------------------------------------
    def generate(self, rng: "np.random.Generator | None" = None) -> Trace:
        """Produce the trace (deterministic for this config).

        An explicit ``rng`` overrides the config's seed (the seeding
        convention in CONTRIBUTING.md); callers sharing a Generator
        must account for the draws this consumes.
        """
        cfg = self.config
        rng = resolve_rng(rng, cfg.seed)
        n = cfg.n_requests

        # Pre-draw everything vectorisable; the loop only does the
        # state-dependent address selection.
        is_write = rng.random(n) < cfg.write_ratio
        is_small = rng.random(n) < cfg.small_write_fraction
        # Small sizes: shifted geometric clipped to [1, small_size_max].
        p_small = 1.0 / cfg.small_size_mean
        small_sizes = np.minimum(
            rng.geometric(p=min(1.0, p_small), size=n), cfg.small_size_max
        )
        # Large sizes: shifted geometric above the small cap.
        large_extra_mean = max(1.0, cfg.large_size_mean - cfg.small_size_max)
        large_sizes = np.minimum(
            cfg.small_size_max + rng.geometric(p=1.0 / large_extra_mean, size=n),
            cfg.large_size_max,
        )
        slot_probs = _zipf_probabilities(cfg.n_hot_slots, cfg.zipf_theta)
        slot_ranks = rng.choice(cfg.n_hot_slots, size=n, p=slot_probs)
        slot_perm = rng.permutation(cfg.n_hot_slots)
        u_rewrite = rng.random(n)
        u_read_recent = rng.random(n)
        u_read_small = rng.random(n)
        u_misc = rng.random(n)
        stream_pick = rng.integers(0, cfg.n_streams, size=n)
        recent_pick = rng.integers(0, 1 << 30, size=n)

        # Arrival process: bursts of geometric length.  ``tolist`` hands
        # the simulator Python floats: a numpy.float64 request clock
        # would turn every timing-model and metrics update into numpy
        # scalar arithmetic and pickle through numpy's scalar reduce.
        times = self._arrival_times(rng, n).tolist()

        hot_base = 0
        large_base = cfg.hot_span_pages
        stream_cursors = [
            large_base + int(rng.integers(0, cfg.large_span_pages))
            for _ in range(cfg.n_streams)
        ]
        recent_large: Deque[Tuple[int, int]] = deque(maxlen=cfg.recent_large_window)
        recent_small: Deque[Tuple[int, int]] = deque(maxlen=cfg.recent_small_window)
        device_span = large_base + cfg.large_span_pages

        requests: List[IORequest] = []
        append = requests.append
        for i in range(n):
            if is_write[i]:
                if is_small[i]:
                    lpn, npages = self._small_write(
                        cfg,
                        hot_base,
                        slot_perm,
                        int(slot_ranks[i]),
                        int(small_sizes[i]),
                    )
                    recent_small.append((lpn, npages))
                else:
                    lpn, npages = self._large_write(
                        cfg,
                        large_base,
                        stream_cursors,
                        int(stream_pick[i]),
                        int(large_sizes[i]),
                        recent_large,
                        float(u_rewrite[i]),
                        int(recent_pick[i]),
                    )
                    recent_large.append((lpn, npages))
                append(IORequest(times[i], OpType.WRITE, lpn, npages))
            else:
                lpn, npages = self._read(
                    cfg,
                    recent_small,
                    recent_large,
                    device_span,
                    float(u_read_recent[i]),
                    float(u_read_small[i]),
                    float(u_misc[i]),
                    int(recent_pick[i]),
                    int(small_sizes[i]),
                )
                append(IORequest(times[i], OpType.READ, lpn, npages))
        return Trace(cfg.name, requests)

    # ------------------------------------------------------------------
    def _arrival_times(self, rng: np.random.Generator, n: int) -> np.ndarray:
        cfg = self.config
        burst_end = rng.random(n) < (1.0 / cfg.mean_burst_len)
        gaps = np.where(
            burst_end,
            rng.exponential(cfg.effective_inter_burst_gap_ms, size=n),
            cfg.intra_burst_gap_ms,
        )
        gaps[0] = 0.0
        return np.cumsum(gaps)

    @staticmethod
    def _small_write(
        cfg: SyntheticConfig,
        hot_base: int,
        slot_perm: np.ndarray,
        rank: int,
        size: int,
    ) -> Tuple[int, int]:
        slot = int(slot_perm[rank])
        lpn = hot_base + slot * cfg.small_size_max
        return lpn, size

    @staticmethod
    def _large_write(
        cfg: SyntheticConfig,
        large_base: int,
        cursors: List[int],
        stream: int,
        size: int,
        recent_large: Deque[Tuple[int, int]],
        u_rewrite: float,
        pick: int,
    ) -> Tuple[int, int]:
        if recent_large and u_rewrite < cfg.large_rewrite_prob:
            return recent_large[pick % len(recent_large)]
        lpn = cursors[stream]
        end = large_base + cfg.large_span_pages
        if lpn + size > end:
            lpn = large_base
        cursors[stream] = lpn + size
        return lpn, size

    @staticmethod
    def _read(
        cfg: SyntheticConfig,
        recent_small: Deque[Tuple[int, int]],
        recent_large: Deque[Tuple[int, int]],
        device_span: int,
        u_recent: float,
        u_small: float,
        u_frac: float,
        pick: int,
        fallback_size: int,
    ) -> Tuple[int, int]:
        if u_recent < cfg.read_recent_prob:
            if recent_small and (u_small < cfg.read_small_bias or not recent_large):
                lpn, npages = recent_small[pick % len(recent_small)]
                if npages > 1 and u_frac < cfg.small_partial_read_prob:
                    # Touch one page of the extent; siblings stay cold
                    # until a later read (exercises delta's protection).
                    return lpn + (pick % npages), 1
                return lpn, npages
            if recent_large:
                # Partial re-read of a large extent: this is what drives
                # Req-block's split-to-DRL machinery.
                lpn, npages = recent_large[pick % len(recent_large)]
                sub_len = max(1, int(u_frac * min(npages, cfg.small_size_max + 1)))
                offset = pick % max(1, npages - sub_len + 1)
                return lpn + offset, sub_len
        # Cold read anywhere on the volume.
        lpn = pick % device_span
        return lpn, max(1, fallback_size)


# ---------------------------------------------------------------------------
# Identity: the four columns of every paper workload, pinned.

#: Second seed of each pinned workload (the first is its own).
ALT_SEED = 9157

#: sha256 of the little-endian ``time``, ``op``, ``lpn`` and ``npages``
#: columns (:func:`repro.traces.io.trace_columns`), concatenated, keyed
#: by (workload, 1/scale, seed).  Recorded with ``ReferenceGenerator``.
PINS = {
    ("hm_1", 64, 1001): "6e4880cfeb4e5f7f15d3dd3945cd0a292c1bceee852cf2a3ade46c3dce808926",
    ("hm_1", 64, 9157): "9e0b2905a36da52275ed8b66dcb02c584b44b3e2c778a636161efecbea86bdb9",
    ("hm_1", 32, 1001): "cc7603acd0f5ebea845809e3e3b2550f3293b221002fd187341ddfbaea41028a",
    ("hm_1", 32, 9157): "3f6b5dddafd68b42a09aa611acba6549a46060bda3cdd64bd8f712836a13de7e",
    ("hm_1", 16, 1001): "ece89eb5d56c386aa8c74fa2d655ae9ca6e0d735ff70f9f8a41af826b25c02a8",
    ("hm_1", 16, 9157): "d8a403ced38b5ae257ced710dab82c8dd2d9dcc304fc48edb3e679c02a4ae1f6",
    ("lun_1", 64, 1002): "e1e6096d84c408752a1f170e80a574288d9f0fbe0ad3ab58babc3c84422720b1",
    ("lun_1", 64, 9157): "3dd855d4493516d5f62bd3773dfd3521aa061b2893ca93dbe8ab626b24ab464b",
    ("lun_1", 32, 1002): "193e129b68c385e1b0bd1bdd72b5fb53996629cd982886622d9d6ee01f541684",
    ("lun_1", 32, 9157): "857ebd6d00716ca51328dfe6fa71b038a5bfd4104d82bf9481cf55c34e82eed0",
    ("lun_1", 16, 1002): "b914e8710033157bc9657e9450b2f2f9c754bfdc2f5d20be21aed357f306bda0",
    ("lun_1", 16, 9157): "2cb1e2f348d715fba727eb2c30fe065375d7af656040b488d1754689c10c37db",
    ("usr_0", 64, 1003): "2bcc6c5683682ec55733b2b1217c2e84f78848174bc5764d91ea44edb9bfea18",
    ("usr_0", 64, 9157): "f2859adb850a406f2905dac53d12172da5023710a2386ce3b07aec99f420a71a",
    ("usr_0", 32, 1003): "fc370a51834b30fe97084591e8615d188ced80963bab65af560e420ecbe24cbf",
    ("usr_0", 32, 9157): "094a88d28340736351223b64bf1433e5c0110e3c982ca90ee71e5eb2e8f99918",
    ("usr_0", 16, 1003): "88b090d9859292af56b6b386b55faa389ec40f2ac05c3b5ccfbb818390de00a0",
    ("usr_0", 16, 9157): "08c9a90ed4f04119ee5030222f9e40a0fcaa0b0e471a9e47645cc69f744d35c9",
    ("src1_2", 64, 1004): "e9e725c057ca64994472d90e35933a8700dba03cf4b174ea8297bf9afbb09546",
    ("src1_2", 64, 9157): "cb9e0f529978b6daa37581a12fdd1b3351733823754d5eebc6e46dc74734c646",
    ("src1_2", 32, 1004): "83958b461c50fa34a6da3064dcbe94deef0d9a8a856aeb62171f3371a2671e4d",
    ("src1_2", 32, 9157): "fd14b1e2625c825862b9dc9cfef0c65ad41ba981fd0ba73b055a7d4b1aaf3e4b",
    ("src1_2", 16, 1004): "3ae71d163d996677271fd3a8d4a8242a5e39d25286622c65948f192051ef9df2",
    ("src1_2", 16, 9157): "95eab2b0b8de6e84bf71a41012f5c47793e712c9780d17f8e366f8b7687f8954",
    ("ts_0", 64, 1005): "88ea5af0fae658acc9f26af9b56094dfad239cf38c93d14d0c26d1ece0c60711",
    ("ts_0", 64, 9157): "821bd53876ba292ba11973a413a259cb821bc378bc25c67aacf481c22e928bad",
    ("ts_0", 32, 1005): "7439a303984043aab01e9eaaadd47675addc41be24756f70df50460c525df5b1",
    ("ts_0", 32, 9157): "abcd7ec43136e65e8cc0da4ee5afd63dcd185cfa944cb8226025f7a8c4882152",
    ("ts_0", 16, 1005): "bfe67c2c938b4146274c035b1a43452a7c58eb8825802e0faad963f60c38e112",
    ("ts_0", 16, 9157): "4e099559bda7451cf0e3ea7e98e6147aa567980c555fb2a05d4da89fdd6e193e",
    ("proj_0", 64, 1006): "1d35344b6ae8055a9d5f0557017401b448c534dbad98a27206d698ab22feb78a",
    ("proj_0", 64, 9157): "e426340af90ed3730a1277cca1a726acc7b30415f727ec12cc89a04d5393df1b",
    ("proj_0", 32, 1006): "49098c02d9c392987e71df7238878310c06e561368999fb8d251c88309117763",
    ("proj_0", 32, 9157): "f370ec98e036329bc8caaafda7d2bbfe4998196c0fca0d49f9d9d398908dba12",
    ("proj_0", 16, 1006): "2d6726bf1dd9af83548535fbe5e6a1b43d5d4ddfdd060306efa2a483bda6be89",
    ("proj_0", 16, 9157): "247d90a71a952bf5c9a4995882961b9db82603cf077fb89b9fb2781d99cfc6ba",
}


def column_digest(trace: Trace) -> str:
    h = hashlib.sha256()
    for column in trace_columns(trace.requests).values():
        h.update(column.astype(column.dtype.newbyteorder("<"), copy=False).tobytes())
    return h.hexdigest()


def test_pins_cover_every_workload_scale_and_two_seeds():
    expected = {
        (name, denom, seed)
        for name in WORKLOAD_ORDER
        for denom in (64, 32, 16)
        for seed in (get_config(name).seed, ALT_SEED)
    }
    assert set(PINS) == expected


@pytest.mark.parametrize("name, denom, seed", sorted(PINS), ids=str)
def test_paper_workload_columns_pinned(name, denom, seed):
    cfg = dataclasses.replace(get_config(name, 1 / denom), seed=seed)
    assert column_digest(generate_trace(cfg)) == PINS[name, denom, seed]


# ---------------------------------------------------------------------------
# Lockstep: the columnar generator against the reference loop.

#: Edge probabilities drawn often: 0 and 1 switch whole branches off.
unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
#: Window lengths 0 (never remembers) and 1 (only the latest) included.
window = st.one_of(st.sampled_from([0, 1]), st.integers(0, 80))


@st.composite
def configs(draw):
    small_max = draw(st.integers(1, 6))
    large_max = draw(st.integers(1, 64))
    return SyntheticConfig(
        name="lockstep",
        n_requests=draw(st.integers(1, 400)),
        seed=draw(st.integers(0, 2**32 - 1)),
        write_ratio=draw(unit),
        small_write_fraction=draw(unit),
        small_size_mean=draw(st.floats(1.0, float(small_max))),
        small_size_max=small_max,
        large_size_mean=draw(st.floats(small_max + 0.5, 40.0)),
        large_size_max=large_max,
        n_hot_slots=draw(st.integers(1, 64)),
        zipf_theta=draw(st.floats(0.0, 2.0)),
        # Spans down to a single page: the stream cursors wrap often.
        large_span_pages=draw(st.integers(1, 600)),
        n_streams=draw(st.integers(1, 4)),
        large_rewrite_prob=draw(unit),
        recent_large_window=draw(window),
        read_recent_prob=draw(unit),
        read_small_bias=draw(unit),
        recent_small_window=draw(window),
        small_partial_read_prob=draw(unit),
        mean_burst_len=draw(st.floats(1.0, 20.0)),
        target_pages_per_ms=draw(st.one_of(st.none(), st.floats(0.1, 10.0))),
    )


def edge(**overrides) -> SyntheticConfig:
    base = dict(
        name="edge",
        n_requests=300,
        seed=5,
        write_ratio=0.5,
        small_write_fraction=0.5,
        small_size_mean=2.0,
        small_size_max=4,
        large_size_mean=12.0,
        large_size_max=32,
        n_hot_slots=16,
        zipf_theta=1.0,
        large_span_pages=64,
        n_streams=2,
        recent_large_window=4,
        recent_small_window=4,
    )
    base.update(overrides)
    return SyntheticConfig(**base)


def assert_lockstep(cfg: SyntheticConfig) -> List[IORequest]:
    expected = ReferenceGenerator(cfg).generate().requests
    assert SyntheticTraceGenerator(cfg).generate().requests == expected
    return expected


class TestLockstep:
    @given(cfg=configs())
    @settings(max_examples=250, deadline=None)
    @example(cfg=edge(recent_large_window=0, recent_small_window=0))
    @example(cfg=edge(recent_large_window=1, recent_small_window=1))
    @example(cfg=edge(write_ratio=0.0))
    @example(cfg=edge(write_ratio=1.0))
    @example(cfg=edge(small_write_fraction=0.0))
    @example(cfg=edge(small_write_fraction=1.0))
    @example(cfg=edge(large_rewrite_prob=1.0, read_recent_prob=1.0))
    def test_matches_reference(self, cfg):
        assert_lockstep(cfg)

    def test_stream_cursors_wrap(self):
        """A 64-page region wraps every stream many times over."""
        cfg = edge(
            n_requests=2000,
            write_ratio=0.9,
            small_write_fraction=0.2,
            large_span_pages=64,
            large_rewrite_prob=0.3,
        )
        requests = assert_lockstep(cfg)
        base = cfg.hot_span_pages
        fresh_at_base = [
            r for r in requests if r.is_write and r.npages > 4 and r.lpn == base
        ]
        assert len(fresh_at_base) > 2 * cfg.n_streams

    def test_explicit_rng_matches_reference(self):
        cfg = edge()
        expected = ReferenceGenerator(cfg).generate(np.random.default_rng(77))
        got = SyntheticTraceGenerator(cfg).generate(np.random.default_rng(77))
        assert got.requests == expected.requests
