"""Shard lifecycle frames, the ETA, and the ``--progress`` printer.

Live frames on their own (rate limit, ambient sink, replay integration)
are covered in ``test_telemetry.py``.
"""

from __future__ import annotations

import io

import pytest

from repro.sim import progress
from repro.sim.progress import EtaTracker, ProgressFrame, ProgressPrinter


def _live(shard, requests=10):
    return ProgressFrame(
        kind="live",
        shard=shard,
        elapsed_s=1.0,
        phase="replay",
        requests=requests,
        total_requests=100,
    )


def _lifecycle(kind, shard, done=1, total=4, **kw):
    return ProgressFrame(
        kind=kind, shard=shard, elapsed_s=2.0, attempt=1, done=done,
        total=total, **kw
    )


class _Clock:
    """A settable stand-in for the ``time`` module."""

    def __init__(self, now=100.0):
        self.now = now

    def monotonic(self):
        return self.now


class TestEtaTracker:
    def test_resumed_shards_do_not_shorten_the_estimate(self, monkeypatch):
        clock = _Clock()
        monkeypatch.setattr(progress, "time", clock)
        tracker = EtaTracker(12)
        for _ in range(9):
            tracker.mark_done(resumed=True)
        # Nothing completed in this run yet: no basis for an estimate.
        assert tracker.eta_s() is None
        assert tracker.frame("resumed", 8, 0).eta_s is None
        clock.now += 0.3
        tracker.mark_done()
        # 0.3 s per fresh shard, two shards left.
        assert tracker.eta_s() == pytest.approx(0.6)
        assert (tracker.done, tracker.fresh) == (10, 1)

    def test_all_done_is_zero(self):
        tracker = EtaTracker(2)
        tracker.mark_done(resumed=True)
        tracker.mark_done(resumed=True)
        assert tracker.eta_s() == 0.0

    def test_frame_carries_the_state(self, monkeypatch):
        clock = _Clock()
        monkeypatch.setattr(progress, "time", clock)
        tracker = EtaTracker(4)
        clock.now += 1.0
        tracker.mark_done()
        f = tracker.frame("retry", 3, 2, "ValueError: boom")
        assert (f.kind, f.shard, f.attempt, f.detail) == (
            "retry", 3, 2, "ValueError: boom"
        )
        assert (f.done, f.total, f.elapsed_s, f.eta_s) == (1, 4, 1.0, 3.0)


class TestPrinter:
    def test_lifecycle_line_format(self):
        line = ProgressPrinter.format_frame(
            _lifecycle("done", 5, done=3, total=8, eta_s=3.44)
        )
        assert line == (
            "[shard 3/8] done     idx=5 attempt=1 elapsed=2.0s eta=3.4s"
        )
        line = ProgressPrinter.format_frame(
            _lifecycle("retry", 2, detail="ValueError: boom")
        )
        assert line.endswith("eta=? (ValueError: boom)")
        line = ProgressPrinter.format_frame(_lifecycle("done", 0, eta_s=600.0))
        assert line.endswith("eta=10.0m")

    def test_lifecycle_frames_print_at_once(self, monkeypatch):
        monkeypatch.setattr(progress, "time", _Clock())
        stream = io.StringIO()
        printer = ProgressPrinter(stream=stream, heartbeat_s=3600.0)
        printer(_live(0))  # first live frame prints
        printer(_lifecycle("retry", 1))
        printer(_lifecycle("done", 1, done=1))
        lines = stream.getvalue().splitlines()
        assert [line.split()[0] for line in lines] == [
            "[live]", "[shard", "[shard"
        ]

    def test_finished_shard_live_line_is_dropped(self, monkeypatch):
        clock = _Clock()
        monkeypatch.setattr(progress, "time", clock)
        stream = io.StringIO()
        printer = ProgressPrinter(stream=stream, heartbeat_s=2.0)
        printer(_live(0))
        printer(_live(1))
        printer(_lifecycle("done", 0, done=1))
        stream.seek(0)
        stream.truncate()
        clock.now += 2.0
        printer(_live(1, requests=20))
        assert stream.getvalue().splitlines() == [
            ProgressPrinter.format_frame(_live(1, requests=20))
        ]
        assert list(printer.latest) == [1]

    def test_every_attempt_end_drops_the_line(self):
        printer = ProgressPrinter(stream=io.StringIO())
        for kind in ("done", "retry", "timeout", "failed"):
            printer(_live(0))
            printer(_lifecycle(kind, 0))
            assert printer.latest == {}, kind
