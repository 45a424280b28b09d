"""Chaos suite for the shard supervisor.

Workers are killed with SIGKILL, hung past their watchdog deadline, and
poisoned with exceptions mid-run; the supervisor must retry, time out,
salvage, and checkpoint its way to either the exact healthy result or a
correctly-accounted degraded one.  Sentinel files under ``tmp_path``
make failures one-shot ("fail the first attempt, succeed the retry")
without any shared-memory coordination, so the same workers run under
both fork and spawn.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import time

import pytest

from repro.sim.parallel import ShardError, replay_sharded
from repro.sim.parallel import _replay_segment as _real_replay_segment
from repro.sim.replay import ReplayConfig
from repro.sim.supervisor import (
    EXIT_SALVAGED,
    ShardFailure,
    SupervisedOutcome,
    Supervision,
    SupervisorReport,
    run_shards,
)
from repro.traces.workloads import get_workload

BOTH_START_METHODS = pytest.mark.parametrize(
    "start_method",
    [
        m
        for m in ("fork", "spawn")
        if m in multiprocessing.get_all_start_methods()
    ],
)

SCALE = 1 / 256
CACHE = 64 * 4096

#: Fast supervision for tests: near-zero backoff so retries are instant.
FAST = dict(backoff_base_s=0.001, backoff_cap_s=0.002)


# ----------------------------------------------------------------------
# Module-level chaos workers (picklable under spawn).  Each takes a
# payload of (mode-specific value, sentinel directory).
# ----------------------------------------------------------------------


def _square(payload):
    value, _sentinel_dir = payload
    return value * value


def _kill_once(payload):
    """SIGKILL this worker the first time it sees its payload."""
    value, sentinel_dir = payload
    sentinel = os.path.join(sentinel_dir, f"killed-{value}")
    if value == 2 and not os.path.exists(sentinel):
        open(sentinel, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return value * value


def _hang_once(payload):
    """Hang far past any test watchdog the first time through."""
    value, sentinel_dir = payload
    sentinel = os.path.join(sentinel_dir, f"hung-{value}")
    if value == 1 and not os.path.exists(sentinel):
        open(sentinel, "w").close()
        time.sleep(60.0)
    return value * value


def _poison(payload):
    """Deterministic failure: retries never help."""
    value, _sentinel_dir = payload
    if value == 3:
        raise ValueError(f"poisoned shard {value}")
    return value * value


def _unpicklable_result(payload):
    value, _sentinel_dir = payload
    if value == 1:
        return lambda: None  # locals never pickle
    return value


def _payloads(tmp_path, n=4):
    return [(i, str(tmp_path)) for i in range(n)]


# ----------------------------------------------------------------------
# Clean-path equivalence
# ----------------------------------------------------------------------


class TestCleanRuns:
    @BOTH_START_METHODS
    def test_matches_unsupervised_results(self, tmp_path, start_method):
        out = run_shards(
            _square, _payloads(tmp_path), jobs=2, start_method=start_method
        )
        assert out.results == [0, 1, 4, 9]
        assert out.complete and not out.retries and not out.timeouts
        assert out.coverage == 1.0

    def test_empty_payloads(self):
        out = run_shards(_square, [])
        assert out.results == [] and out.complete

    def test_jobs_one_still_supervises(self, tmp_path):
        # Even width-1 runs use a child process: the watchdog needs a
        # process boundary to kill through.
        sup = Supervision(max_retries=1, **FAST)
        out = run_shards(
            _kill_once,
            _payloads(tmp_path),
            jobs=1,
            start_method="fork",
            supervision=sup,
        )
        assert out.results == [0, 1, 4, 9]
        assert out.retries == 1


# ----------------------------------------------------------------------
# Chaos: kill / hang / poison
# ----------------------------------------------------------------------


class TestWorkerKill:
    @BOTH_START_METHODS
    def test_retry_after_worker_kill(self, tmp_path, start_method):
        sup = Supervision(max_retries=2, **FAST)
        out = run_shards(
            _kill_once,
            _payloads(tmp_path),
            jobs=2,
            start_method=start_method,
            supervision=sup,
        )
        assert out.results == [0, 1, 4, 9]
        assert out.retries == 1
        assert out.complete

    def test_kill_without_retries_raises_shard_error(self, tmp_path):
        with pytest.raises(ShardError) as excinfo:
            run_shards(
                _kill_once,
                _payloads(tmp_path),
                jobs=2,
                start_method="fork",
                supervision=Supervision(max_retries=0, **FAST),
            )
        assert excinfo.value.shard_index == 2
        assert "died" in excinfo.value.detail

    def test_kill_with_salvage_drops_that_shard(self, tmp_path):
        # Kill on *every* attempt (no sentinel consult -> poison-kill).
        sup = Supervision(max_retries=1, salvage=True, **FAST)

        out = run_shards(
            _kill_always,
            _payloads(tmp_path),
            jobs=2,
            start_method="fork",
            supervision=sup,
        )
        assert out.results == [0, 1, None, 9]
        assert out.failed_indices == (2,)
        assert out.failures[0].attempts == 2
        assert out.coverage == pytest.approx(0.75)


def _kill_always(payload):
    value, _sentinel_dir = payload
    if value == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return value * value


class TestWatchdog:
    def test_timeout_of_hung_worker_then_retry(self, tmp_path):
        sup = Supervision(max_retries=1, shard_timeout=1.0, **FAST)
        t0 = time.monotonic()
        out = run_shards(
            _hang_once,
            _payloads(tmp_path, n=3),
            jobs=2,
            start_method="fork",
            supervision=sup,
        )
        elapsed = time.monotonic() - t0
        assert out.results == [0, 1, 4]
        assert out.timeouts == 1
        assert out.retries == 1
        assert elapsed < 30.0  # the 60s hang was cut short

    def test_timeout_exhaustion_without_salvage_raises(self, tmp_path):
        sup = Supervision(max_retries=0, shard_timeout=0.3, **FAST)
        with pytest.raises(ShardError) as excinfo:
            run_shards(
                _hang_always,
                [(1, str(tmp_path))],
                jobs=1,
                start_method="fork",
                supervision=sup,
            )
        assert "timed out" in excinfo.value.detail
        assert excinfo.value.shard_index == 0

    def test_timeout_counts_into_failure_manifest(self, tmp_path):
        sup = Supervision(
            max_retries=1, shard_timeout=0.3, salvage=True, **FAST
        )
        out = run_shards(
            _hang_always,
            [(0, str(tmp_path)), (1, str(tmp_path))],
            jobs=2,
            start_method="fork",
            supervision=sup,
        )
        assert out.results == [0, None]
        (failure,) = out.failures
        assert failure.index == 1
        assert failure.attempts == 2
        assert failure.timeouts == 2
        assert out.timeouts == 2


def _hang_always(payload):
    value, _sentinel_dir = payload
    if value == 1:
        time.sleep(60.0)
    return value


class TestPoison:
    @BOTH_START_METHODS
    def test_salvage_merges_survivors_with_accounting(
        self, tmp_path, start_method
    ):
        sup = Supervision(max_retries=1, salvage=True, **FAST)
        out = run_shards(
            _poison,
            _payloads(tmp_path, n=5),
            jobs=2,
            start_method=start_method,
            supervision=sup,
        )
        assert out.results == [0, 1, 4, None, 16]
        assert out.failed_indices == (3,)
        assert out.coverage == pytest.approx(0.8)
        assert "poisoned shard 3" in out.failures[0].detail
        assert out.retries == 1  # one wasted retry before giving up

    def test_no_salvage_reraises_with_traceback(self, tmp_path):
        with pytest.raises(ShardError) as excinfo:
            run_shards(
                _poison,
                _payloads(tmp_path, n=5),
                jobs=2,
                start_method="fork",
                supervision=Supervision(max_retries=0, **FAST),
            )
        assert "ValueError" in excinfo.value.detail
        assert excinfo.value.shard_index == 3

    def test_unpicklable_result_is_a_failure_not_a_hang(self, tmp_path):
        with pytest.raises(ShardError):
            run_shards(
                _unpicklable_result,
                _payloads(tmp_path, n=2),
                jobs=2,
                start_method="fork",
                supervision=Supervision(max_retries=0, **FAST),
            )


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------


class TestDeterminism:
    def test_backoff_is_deterministic_and_jittered(self):
        sup = Supervision(max_retries=3, backoff_base_s=0.25, retry_seed=7)
        again = Supervision(max_retries=3, backoff_base_s=0.25, retry_seed=7)
        delays = [sup.backoff_s(i, a) for i in range(4) for a in (1, 2, 3)]
        assert delays == [
            again.backoff_s(i, a) for i in range(4) for a in (1, 2, 3)
        ]
        # Jitter keeps every delay inside [0.5, 1.0] x the exponential.
        for index in range(4):
            for attempt in (1, 2, 3):
                base = 0.25 * 2 ** (attempt - 1)
                d = sup.backoff_s(index, attempt)
                assert 0.5 * base <= d <= base
        # Distinct shards decorrelate.
        assert len({sup.backoff_s(i, 1) for i in range(8)}) > 1

    def test_different_retry_seed_changes_jitter(self):
        a = Supervision(retry_seed=1).backoff_s(0, 1)
        b = Supervision(retry_seed=2).backoff_s(0, 1)
        assert a != b

    def test_zero_base_is_zero_backoff(self):
        assert Supervision(backoff_base_s=0.0).backoff_s(3, 2) == 0.0

    @BOTH_START_METHODS
    def test_results_identical_with_and_without_chaos(
        self, tmp_path, start_method
    ):
        clean = run_shards(
            _square, _payloads(tmp_path), jobs=2, start_method=start_method
        )
        chaotic = run_shards(
            _kill_once,
            _payloads(tmp_path),
            jobs=2,
            start_method=start_method,
            supervision=Supervision(max_retries=2, **FAST),
        )
        assert clean.results == chaotic.results


# ----------------------------------------------------------------------
# Checkpoint / resume through the supervisor
# ----------------------------------------------------------------------


class TestCheckpointResume:
    def test_resume_skips_completed_shards(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        first = run_shards(
            _square, _payloads(tmp_path), jobs=2, checkpoint_path=path
        )
        resumed = run_shards(
            _square,
            _payloads(tmp_path),
            jobs=2,
            checkpoint_path=path,
            resume=True,
        )
        assert resumed.results == first.results
        assert resumed.resumed == 4

    def test_interrupted_run_resumes_to_identical_results(self, tmp_path):
        """Kill the run after k shards; resume completes the rest and
        the final results equal an uninterrupted run's exactly."""
        path = str(tmp_path / "run.ckpt")
        baseline = run_shards(
            _square, _payloads(tmp_path, n=6), jobs=2
        )
        with pytest.raises(ShardError):
            run_shards(
                _fail_at_four,
                _payloads(tmp_path, n=6),
                jobs=1,  # serial order: shards 0..3 durable before the blast
                start_method="fork",
                checkpoint_path=path,
                supervision=Supervision(max_retries=0, **FAST),
            )
        # The journal key covers worker+payloads, so resuming with the
        # healthy worker requires the same identity: reuse _fail_at_four,
        # whose sentinel now exists (one-shot failure).
        resumed = run_shards(
            _fail_at_four,
            _payloads(tmp_path, n=6),
            jobs=2,
            start_method="fork",
            checkpoint_path=path,
            resume=True,
        )
        assert resumed.results == baseline.results
        assert resumed.resumed >= 4

    def test_resume_missing_journal_starts_fresh(self, tmp_path):
        path = str(tmp_path / "never-created.ckpt")
        out = run_shards(
            _square,
            _payloads(tmp_path, n=2),
            jobs=1,
            checkpoint_path=path,
            resume=True,
        )
        assert out.results == [0, 1]
        assert out.resumed == 0
        assert os.path.exists(path)

    def test_changed_payloads_rejected_on_resume(self, tmp_path):
        from repro.sim.checkpoint import CheckpointError

        path = str(tmp_path / "run.ckpt")
        run_shards(
            _square, _payloads(tmp_path, n=3), jobs=1, checkpoint_path=path
        )
        with pytest.raises(CheckpointError):
            run_shards(
                _square,
                _payloads(tmp_path, n=3)[::-1],
                jobs=1,
                checkpoint_path=path,
                resume=True,
            )


def _fail_at_four(payload):
    value, sentinel_dir = payload
    sentinel = os.path.join(sentinel_dir, "blast")
    if value == 4 and not os.path.exists(sentinel):
        open(sentinel, "w").close()
        raise RuntimeError("synthetic mid-run crash")
    return value * value


# ----------------------------------------------------------------------
# Sharded-replay acceptance: byte-identical resumed merge
# ----------------------------------------------------------------------

#: Set by the acceptance test before it installs ``_flaky_segment``;
#: fork-started workers inherit the value.
_SEGMENT_SENTINEL_DIR = ""


def _flaky_segment(payload):
    """One-shot crash of segment 2, then behave like the real worker."""
    spec = payload[3]
    sentinel = os.path.join(_SEGMENT_SENTINEL_DIR, "segment-crashed")
    if spec.index == 2 and not os.path.exists(sentinel):
        open(sentinel, "w").close()
        raise RuntimeError("synthetic shard crash")
    return _real_replay_segment(payload)


class TestReplayShardedResume:
    def test_interrupted_sharded_replay_resumes_byte_identical(
        self, tmp_path, monkeypatch
    ):
        """The ISSUE's acceptance criterion: interrupt a sharded replay
        after k of n shards, resume from the journal, and the merged
        summary — eviction digests included — is byte-identical to an
        uninterrupted run's."""
        from repro.sim import parallel

        trace = get_workload("ts_0", SCALE)
        config = ReplayConfig(
            policy="reqblock", cache_bytes=CACHE, digest_evictions=True
        )
        baseline = replay_sharded(
            trace, config, n_shards=4, jobs=1, cache_only=True
        )

        # Poison segment 2 once via a module-level one-shot worker (the
        # journal's run key hashes the worker's qualified name, so both
        # the crashing run and the resume must present the same
        # function; fork inherits the monkeypatch into the children).
        global _SEGMENT_SENTINEL_DIR
        _SEGMENT_SENTINEL_DIR = str(tmp_path)
        monkeypatch.setattr(parallel, "_replay_segment", _flaky_segment)
        path = str(tmp_path / "replay.ckpt")
        with pytest.raises(ShardError):
            replay_sharded(
                trace,
                config,
                n_shards=4,
                jobs=1,
                start_method="fork",
                cache_only=True,
                checkpoint_path=path,
                supervision=Supervision(max_retries=0, **FAST),
            )

        resumed = replay_sharded(
            trace,
            config,
            n_shards=4,
            jobs=2,
            start_method="fork",
            cache_only=True,
            checkpoint_path=path,
            resume=True,
        )
        assert resumed.summary() == baseline.summary()
        assert resumed.eviction_digest == baseline.eviction_digest
        assert resumed.eviction_digest  # non-trivial digest actually set
        # Clean resumed runs carry no salvage markings.
        assert not resumed.salvaged
        assert resumed.shard_coverage == 1.0

    def test_salvaged_replay_marks_durability(self, tmp_path, monkeypatch):
        from repro.sim import parallel

        trace = get_workload("ts_0", SCALE)
        config = ReplayConfig(policy="lru", cache_bytes=CACHE)
        real = parallel._replay_segment

        def poisoned(payload):
            if payload[3].index == 1:
                raise RuntimeError("dead segment")
            return real(payload)

        monkeypatch.setattr(parallel, "_replay_segment", poisoned)
        metrics = replay_sharded(
            trace,
            config,
            n_shards=4,
            jobs=2,
            start_method="fork",
            cache_only=True,
            supervision=Supervision(max_retries=1, salvage=True, **FAST),
        )
        assert metrics.salvaged
        assert metrics.durability.shards_planned == 4
        assert metrics.durability.shards_failed == (1,)
        assert metrics.durability.shard_retries == 1
        assert metrics.shard_coverage == pytest.approx(0.75)
        # Survivors only: fewer requests than the whole trace.
        assert 0 < metrics.n_requests < len(trace)


# ----------------------------------------------------------------------
# Progress: the lifecycle frames and their ETA
# ----------------------------------------------------------------------


def _crash_at_nine_then_slow(payload):
    """First run: shards 0-8 finish at once and shard 9 crashes.  Once
    the crash sentinel exists every shard takes 0.2 s."""
    value, sentinel_dir = payload
    sentinel = os.path.join(sentinel_dir, "crashed")
    if os.path.exists(sentinel):
        time.sleep(0.2)
    elif value == 9:
        open(sentinel, "w").close()
        raise RuntimeError("synthetic mid-run crash")
    return value * value


class TestTelemetry:
    def test_progress_event_stream(self, tmp_path):
        events = []
        sup = Supervision(max_retries=1, salvage=True, **FAST)
        run_shards(
            _poison,
            _payloads(tmp_path, n=4),
            jobs=2,
            start_method="fork",
            supervision=sup,
            progress=events.append,
        )
        kinds = [e.kind for e in events]
        assert kinds.count("done") == 3
        assert "retry" in kinds
        assert "failed" in kinds
        done = [e for e in events if e.kind == "done"]
        assert done[-1].total == 4
        assert all(e.elapsed_s >= 0.0 for e in events)

    def test_progress_reports_resumed(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        run_shards(
            _square, _payloads(tmp_path, n=2), jobs=1, checkpoint_path=path
        )
        events = []
        run_shards(
            _square,
            _payloads(tmp_path, n=2),
            jobs=1,
            checkpoint_path=path,
            resume=True,
            progress=events.append,
        )
        assert [e.kind for e in events] == ["resumed", "resumed"]
        assert events[-1].done == 2

    def test_eta_counts_only_shards_completed_in_this_run(self, tmp_path):
        """Resumed shards finished before the clock started: the ETA is
        unknown until a shard completes here, then it extrapolates from
        this run's completions only."""
        path = str(tmp_path / "run.ckpt")
        payloads = _payloads(tmp_path, n=12)
        with pytest.raises(ShardError):
            run_shards(
                _crash_at_nine_then_slow,
                payloads,
                jobs=1,
                checkpoint_path=path,
                supervision=Supervision(max_retries=0, **FAST),
            )
        events = []
        out = run_shards(
            _crash_at_nine_then_slow,
            payloads,
            jobs=1,
            checkpoint_path=path,
            resume=True,
            progress=events.append,
        )
        assert out.resumed == 9
        resumed = [e for e in events if e.kind == "resumed"]
        done = [e for e in events if e.kind == "done"]
        assert len(resumed) == 9 and len(done) == 3
        assert all(e.eta_s is None for e in resumed)
        # One 0.2 s shard done, two left: at least ~0.4 s to go.
        assert done[0].eta_s >= 0.36
        assert done[-1].eta_s == 0.0


# ----------------------------------------------------------------------
# Reporting plumbing
# ----------------------------------------------------------------------


class TestSupervisorReport:
    def test_accumulates_outcomes(self):
        report = SupervisorReport()
        report.add(SupervisedOutcome(results=[1, 2], retries=1))
        report.add(
            SupervisedOutcome(
                results=[None, 4],
                failures=[ShardFailure(0, 2, 1, "boom")],
                timeouts=1,
            )
        )
        assert report.calls == 2
        assert report.salvaged
        assert report.retries == 1
        assert report.timeouts == 1
        text = report.describe()
        assert "3/4 shards completed" in text
        assert "[0]" in text

    def test_clean_report(self):
        report = SupervisorReport()
        report.add(SupervisedOutcome(results=[1]))
        assert not report.salvaged
        assert "none" in report.describe()

    def test_exit_salvaged_is_distinct(self):
        # Pinned: argparse uses 2, device-fatal aborts use 3.
        assert EXIT_SALVAGED == 4
