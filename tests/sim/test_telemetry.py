"""Live progress frames: rate limiting, the ambient sink, the live
lines of the printer, and replay integration.

Shard lifecycle frames, the ETA and the printer's handling of both kinds
together are covered in ``test_progress.py``.
"""

from __future__ import annotations

import io
from types import SimpleNamespace

from repro.sim import progress, replay_closed_loop
from repro.sim.progress import (
    DEFAULT_FRAME_INTERVAL_S,
    FrameEmitter,
    ProgressFrame,
    ProgressPrinter,
    clear_frame_sink,
    make_emitter,
    set_frame_sink,
)
from repro.sim.replay import ReplayConfig, replay_cache_only, replay_trace
from repro.traces.workloads import get_workload

SCALE = 1 / 256
CACHE = 64 * 4096


def _frame(shard=0, requests=500, total=1000, **kw):
    defaults = dict(
        kind="live",
        shard=shard,
        phase="replay",
        requests=requests,
        total_requests=total,
        hit_ratio=0.5,
        gc_erases=3,
        elapsed_s=5.0,
    )
    defaults.update(kw)
    return ProgressFrame(**defaults)


class TestFrame:
    def test_fraction(self):
        assert _frame(requests=250, total=1000).fraction == 0.25
        assert _frame(requests=2000, total=1000).fraction == 1.0  # clamped
        assert _frame(requests=250, total=0).fraction == 0.0

    def test_req_per_s(self):
        assert _frame(requests=500, elapsed_s=5.0).req_per_s == 100.0
        assert _frame(requests=500, elapsed_s=0.0).req_per_s == 0.0


class TestFrameEmitter:
    def test_rate_limit_zero_emits_every_call(self):
        frames = []
        em = FrameEmitter(frames.append, shard=1, total_requests=10,
                          interval_s=0.0)
        assert em.maybe_emit(0, hit_ratio=0.5, gc_erases=0)
        assert em.maybe_emit(1, hit_ratio=0.6, gc_erases=2)
        assert [f.requests for f in frames] == [1, 2]
        assert {f.kind for f in frames} == {"live"}
        assert frames[0].shard == 1
        assert frames[1].hit_ratio == 0.6

    def test_rate_limit_suppresses_rapid_calls(self):
        frames = []
        em = FrameEmitter(frames.append, shard=0, total_requests=10,
                          interval_s=3600.0)
        assert not em.maybe_emit(0, hit_ratio=0.0, gc_erases=0)
        assert not em.maybe_emit(1, hit_ratio=0.0, gc_erases=0)
        assert frames == []

    def test_sink_exception_swallowed(self):
        def bomb(frame):
            raise BrokenPipeError("parent went away")

        em = FrameEmitter(bomb, shard=0, total_requests=10, interval_s=0.0)
        assert em.maybe_emit(0, hit_ratio=0.0, gc_erases=0) is False


class TestAmbientSink:
    def test_no_sink_no_emitter(self):
        clear_frame_sink()
        assert make_emitter(100) is None

    def test_installed_sink_binds_emitter(self):
        frames = []
        set_frame_sink(frames.append, shard=3, interval_s=0.0)
        try:
            em = make_emitter(100, phase="cache_only")
            assert em is not None
            em.maybe_emit(41, hit_ratio=0.9, gc_erases=0)
        finally:
            clear_frame_sink()
        (f,) = frames
        assert f.shard == 3
        assert f.phase == "cache_only"
        assert f.requests == 42
        assert make_emitter(100) is None  # cleared

    def test_default_interval(self):
        set_frame_sink(lambda f: None)
        try:
            assert make_emitter(1).interval_s == DEFAULT_FRAME_INTERVAL_S
        finally:
            clear_frame_sink()


class TestLiveTelemetry:
    """The printer's live lines."""

    def test_keeps_latest_frame_per_shard(self):
        live = ProgressPrinter(stream=io.StringIO(), heartbeat_s=3600.0)
        live(_frame(shard=0, requests=100))
        live(_frame(shard=1, requests=200))
        live(_frame(shard=0, requests=300))
        assert sorted(live.latest) == [0, 1]
        assert live.latest[0].requests == 300
        assert live.latest[1].requests == 200

    def test_render_one_line_per_shard_sorted(self):
        stream = io.StringIO()
        live = ProgressPrinter(stream=stream, heartbeat_s=3600.0)
        live(_frame(shard=1))
        live(_frame(shard=0))
        stream.seek(0)
        stream.truncate()  # drop the first-frame heartbeat render
        live.render()
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("[live] shard 0")
        assert lines[1].startswith("[live] shard 1")

    def test_heartbeat_rate_limits_rendering(self, monkeypatch):
        # A clock reading far below the heartbeat, as on a freshly
        # booted machine: the first frame must still print.
        clock = SimpleNamespace(monotonic=lambda: 5.0)
        monkeypatch.setattr(progress, "time", clock)
        stream = io.StringIO()
        live = ProgressPrinter(stream=stream, heartbeat_s=3600.0)
        for i in range(5):
            live(_frame(shard=0, requests=i))
        # First frame printed, the rest suppressed by the heartbeat.
        assert len(stream.getvalue().splitlines()) == 1
        clock.monotonic = lambda: 5.0 + 3600.0
        live(_frame(shard=0, requests=5))
        assert len(stream.getvalue().splitlines()) == 2

    def test_format_with_and_without_total(self):
        line = ProgressPrinter.format_frame(_frame(requests=500, total=1000))
        assert line.startswith("[live] shard 0 replay ")
        assert "500/1000 reqs (50%)" in line
        assert "100 req/s" in line
        assert "hit 0.500" in line
        assert "gc 3" in line
        line = ProgressPrinter.format_frame(_frame(requests=500, total=0))
        assert "500 reqs" in line
        assert "/" not in line.split("reqs")[0]


class TestReplayIntegration:
    def test_replay_emits_frames_via_ambient_sink(self):
        trace = get_workload("ts_0", SCALE)
        frames = []
        set_frame_sink(frames.append, shard=2, interval_s=0.0)
        try:
            metrics = replay_trace(
                trace, ReplayConfig(policy="lru", cache_bytes=CACHE)
            )
        finally:
            clear_frame_sink()
        assert frames
        assert all(f.kind == "live" and f.shard == 2 for f in frames)
        assert all(f.phase == "replay" for f in frames)
        last = frames[-1]
        assert last.total_requests == len(trace.requests)
        assert last.requests <= len(trace.requests)
        # Monotone progress, and each frame's hit ratio is the replay's
        # own over the requests it reports: the chunked metrics fold has
        # folded every one of them when the frame is taken.
        reqs = [f.requests for f in frames]
        assert reqs == sorted(reqs)
        assert len(frames) > 2
        config = ReplayConfig(policy="lru", cache_bytes=CACHE)
        for frame in frames:
            head = replay_cache_only(trace.head(frame.requests), config)
            assert frame.hit_ratio == head.hit_ratio, frame.requests
        assert last.hit_ratio > 0
        assert metrics.summary()["hit_ratio"] > 0

    def test_cache_only_replay_emits_phase(self):
        trace = get_workload("ts_0", SCALE)
        frames = []
        set_frame_sink(frames.append, interval_s=0.0)
        try:
            replay_cache_only(
                trace, ReplayConfig(policy="lru", cache_bytes=CACHE)
            )
        finally:
            clear_frame_sink()
        assert frames
        assert all(f.phase == "cache_only" for f in frames)
        assert all(f.gc_erases == 0 for f in frames)

    def test_closed_loop_replay_emits_the_open_loop_frames(self):
        trace = get_workload("ts_0", SCALE)
        config = ReplayConfig(policy="lru", cache_bytes=CACHE)
        runs = {}
        for name, replay in (
            ("open", replay_trace),
            ("closed", lambda t, c: replay_closed_loop(t, c, queue_depth=8)),
        ):
            frames = runs[name] = []
            set_frame_sink(frames.append, interval_s=0.0)
            try:
                replay(trace, config)
            finally:
                clear_frame_sink()
        assert runs["closed"]
        assert [f.requests for f in runs["closed"]] == [
            f.requests for f in runs["open"]
        ]
        assert all(f.phase == "replay" for f in runs["closed"])

    def test_no_sink_replay_is_silent(self):
        clear_frame_sink()
        trace = get_workload("ts_0", SCALE)
        metrics = replay_trace(
            trace, ReplayConfig(policy="lru", cache_bytes=CACHE)
        )
        assert metrics.summary()["hit_ratio"] > 0
