"""Fault and edge-path tests for the shard executor.

A worker dying mid-shard must surface as a clean :class:`ShardError`
carrying the shard index and worker traceback — never a hang or a
silent partial result.  A ``KeyboardInterrupt`` hit inside a worker
must propagate as ``KeyboardInterrupt`` in the parent.  No worker
process may outlive a call, on any exit path: a clean run, a
``ShardError``, an interrupt, a SIGTERM to the parent, a watchdog reap
or a salvaged run (``multiprocessing.active_children()`` is empty
afterwards).  A worker that reported a failed attempt is not reused.
And ``jobs=1`` must be the legacy serial path: exceptions propagate
raw, and no process is ever started.

Tests without a ``start_method`` parameter use the default start method
(``REPRO_START_METHOD``); CI runs this file under fork and spawn.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.sim import run_shards
from repro.sim import supervisor
from repro.sim.parallel import ShardError
from repro.sim.replay import ReplayConfig
from repro.sim.supervisor import Supervision
from repro.sim.sweep import SweepJob, run_jobs
from repro.traces.workloads import get_workload

SCALE = 1 / 256
CACHE = 64 * 4096

BOTH_START_METHODS = pytest.mark.parametrize(
    "start_method",
    [
        m
        for m in ("fork", "spawn")
        if m in multiprocessing.get_all_start_methods()
    ],
)

#: Fast supervision for tests: near-zero backoff so retries are instant.
FAST = dict(backoff_base_s=0.001, backoff_cap_s=0.002)


# Module-level so they pickle into spawned workers.
def _ok_or_boom(payload):
    if payload == "boom":
        raise ValueError("synthetic worker failure")
    return payload


def _interrupt_on(payload):
    if payload == "ctrl-c":
        raise KeyboardInterrupt
    return payload


def _sleep_or_boom(payload):
    if payload == "sleep":
        time.sleep(30)  # hold this worker busy
    return _ok_or_boom(payload)


def _sleep_or_interrupt(payload):
    if payload == "sleep":
        time.sleep(30)
    return _interrupt_on(payload)


def _hang_on(payload):
    if payload == "hang":
        time.sleep(60)
    return payload


def _fail_once_then_pid(payload):
    """Fail the first attempt of shard 1 (``mode`` "kill": SIGKILL the
    worker; "raise": raise in it); return the worker's PID."""
    value, mode, sentinel_dir = payload
    sentinel = os.path.join(sentinel_dir, f"failed-{value}")
    if value == 1 and not os.path.exists(sentinel):
        open(sentinel, "w").close()
        if mode == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        raise RuntimeError("synthetic attempt failure")
    return os.getpid()


def _assert_no_workers():
    assert multiprocessing.active_children() == []


class TestWorkerError:
    def test_shard_error_carries_index_and_traceback(self):
        with pytest.raises(ShardError) as excinfo:
            run_shards(_ok_or_boom, ["fine", "boom", "fine"], jobs=2)
        err = excinfo.value
        assert err.shard_index == 1
        assert "ValueError" in err.detail
        assert "synthetic worker failure" in err.detail
        assert "boom" in str(err)

    def test_error_does_not_hang_remaining_shards(self):
        # Plenty of healthy shards queued behind the poisoned one; the
        # call must still return promptly (pytest would time the suite
        # out on a hang) and raise rather than return partial results.
        payloads = ["ok"] * 20 + ["boom"] + ["ok"] * 20
        with pytest.raises(ShardError):
            run_shards(_ok_or_boom, payloads, jobs=2)

    def test_bad_policy_in_sweep_is_a_shard_error(self):
        jobs = [
            SweepJob(
                workload="ts_0",
                policy=p,
                cache_bytes=CACHE,
                scale=SCALE,
                cache_only=True,
            )
            for p in ("lru", "no-such-policy")
        ]
        with pytest.raises(ShardError) as excinfo:
            run_jobs(jobs, processes=2)
        assert excinfo.value.shard_index == 1
        assert "no-such-policy" in excinfo.value.detail

    def test_long_payload_repr_truncated(self):
        payloads = ["x" * 10_000, "boom"]
        with pytest.raises(ShardError) as excinfo:
            run_shards(_ok_or_boom, list(reversed(payloads)), jobs=2)
        assert len(str(excinfo.value)) < 5_000


class TestKeyboardInterrupt:
    def test_worker_interrupt_propagates(self):
        with pytest.raises(KeyboardInterrupt):
            run_shards(_interrupt_on, ["a", "ctrl-c", "b", "c"], jobs=2)

    def test_pool_terminated_on_interrupt(self):
        """A sibling busy for 30 s is terminated, not waited for."""
        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_shards(_sleep_or_interrupt, ["sleep", "ctrl-c"], jobs=2)
        assert time.monotonic() - t0 < 15.0
        _assert_no_workers()

    def test_pool_terminated_on_shard_error(self):
        t0 = time.monotonic()
        with pytest.raises(ShardError):
            run_shards(_sleep_or_boom, ["sleep", "boom"], jobs=2)
        assert time.monotonic() - t0 < 15.0
        _assert_no_workers()


class TestJobsOneIsLegacySerial:
    def test_no_pool_constructed(self, no_process_start):
        jobs = [
            SweepJob(
                workload="ts_0",
                policy="lru",
                cache_bytes=CACHE,
                scale=SCALE,
                cache_only=True,
            )
        ]
        run_jobs(jobs, processes=1)

    def test_exceptions_propagate_raw_inline(self):
        """jobs=1 keeps legacy semantics: the original exception type,
        not a ShardError wrapper."""
        with pytest.raises(ValueError, match="synthetic worker failure"):
            run_shards(_ok_or_boom, ["fine", "boom"], jobs=1)

    def test_matches_direct_replay_byte_identical(self, no_process_start):
        from repro.sim.replay import replay_cache_only

        trace = get_workload("ts_0", SCALE)
        direct = replay_cache_only(
            trace,
            ReplayConfig(policy="lru", cache_bytes=CACHE, digest_evictions=True),
        )
        (via_engine,) = run_jobs(
            [
                SweepJob(
                    workload="ts_0",
                    policy="lru",
                    cache_bytes=CACHE,
                    scale=SCALE,
                    cache_only=True,
                    replay_kwargs=(("digest_evictions", True),),
                )
            ],
            processes=1,
        )
        assert via_engine.summary() == direct.summary()
        assert via_engine.eviction_digest == direct.eviction_digest


class TestPoolTeardown:
    """Every exit path stops and joins the workers: no worker process
    outlives the call."""

    def test_clean_run_closes_and_joins(self):
        out = run_shards(_ok_or_boom, ["a", "b", "c"], jobs=2)
        assert out.results == ["a", "b", "c"]
        _assert_no_workers()

    def test_shard_error_terminates_and_joins(self):
        with pytest.raises(ShardError):
            run_shards(_ok_or_boom, ["a", "boom", "b"], jobs=2)
        _assert_no_workers()

    def test_interrupt_terminates_and_joins(self):
        with pytest.raises(KeyboardInterrupt):
            run_shards(_interrupt_on, ["a", "ctrl-c", "b"], jobs=2)
        _assert_no_workers()

    @BOTH_START_METHODS
    def test_watchdog_reap_terminates_and_joins(self, start_method):
        out = run_shards(
            _hang_on,
            ["hang"],
            jobs=1,
            start_method=start_method,
            supervision=Supervision(shard_timeout=1.0, salvage=True, **FAST),
        )
        assert out.results == [None]
        assert out.timeouts == 1
        _assert_no_workers()

    @BOTH_START_METHODS
    def test_salvaged_run_closes_and_joins(self, start_method):
        out = run_shards(
            _ok_or_boom,
            ["a", "boom", "b"],
            jobs=2,
            start_method=start_method,
            supervision=Supervision(max_retries=1, salvage=True, **FAST),
        )
        assert out.results == ["a", None, "b"]
        assert out.failed_indices == (1,)
        _assert_no_workers()


class TestFreshWorkerForRetry:
    @BOTH_START_METHODS
    @pytest.mark.parametrize("mode", ["kill", "raise"])
    def test_retry_runs_in_a_new_process(self, tmp_path, start_method, mode):
        """One worker serves shard 0, then fails shard 1's first
        attempt; the retry and shard 2 run in a process started after."""
        out = run_shards(
            _fail_once_then_pid,
            [(i, mode, str(tmp_path)) for i in range(3)],
            jobs=1,
            start_method=start_method,
            supervision=Supervision(max_retries=1, **FAST),
        )
        first, retry, last = out.results
        assert out.retries == 1
        assert retry != first and retry != os.getpid()
        assert last == retry
        _assert_no_workers()


#: A parent whose two workers record their PIDs in ``argv[2]`` and nap.
_KILLED_PARENT = """
import os, sys, time

def nap(seconds):
    open(os.path.join(sys.argv[2], str(os.getpid())), "w").close()
    time.sleep(seconds)
    return seconds

if __name__ == "__main__":
    from repro.sim import run_shards

    run_shards(nap, [2.0] * 4, jobs=2, start_method=sys.argv[1])
"""


def _running(pid):
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestKilledParent:
    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    @BOTH_START_METHODS
    def test_workers_exit_when_the_parent_is_killed(self, tmp_path, start_method):
        """A SIGKILLed parent runs no teardown; its idle workers must
        still see the parent gone and exit, not wait for a task."""
        script = tmp_path / "parent.py"
        script.write_text(_KILLED_PARENT)
        pids_dir = tmp_path / "pids"
        pids_dir.mkdir()
        src = str(Path(__file__).resolve().parents[2] / "src")
        parent = subprocess.Popen(
            [sys.executable, str(script), start_method, str(pids_dir)],
            env={**os.environ, "PYTHONPATH": src},
        )
        try:
            deadline = time.monotonic() + 60.0
            while len(os.listdir(pids_dir)) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
            workers = [int(p) for p in os.listdir(pids_dir)]
            assert len(workers) == 2
        finally:
            parent.kill()
            parent.wait()
        deadline = time.monotonic() + 15.0
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.1)
        left = [pid for pid in workers if _running(pid)]
        for pid in left:
            os.kill(pid, signal.SIGKILL)
        assert left == []


class TestSigterm:
    def test_sigterm_raises_interrupt_and_restores_handler(self):
        before = signal.getsignal(signal.SIGTERM)
        with pytest.raises(KeyboardInterrupt):
            with supervisor._sigterm_as_interrupt():
                os.kill(os.getpid(), signal.SIGTERM)
        assert signal.getsignal(signal.SIGTERM) is before

    def test_sigterm_mid_run_tears_pool_down(self):
        """A SIGTERM to the parent converts to KeyboardInterrupt and
        reaps the workers (one of them blocked for 30 s) instead of
        killing the parent with live workers orphaned."""
        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_shards(_sigterm_parent, ["a", "sigterm", "b"], jobs=2)
        assert time.monotonic() - t0 < 15.0
        _assert_no_workers()


def _sigterm_parent(payload):
    if payload == "sigterm":
        os.kill(os.getppid(), signal.SIGTERM)
        time.sleep(30)  # hold the result back so the parent stays blocked
    return payload


class TestShardErrorPickling:
    """ShardError must cross a spawn boundary with its diagnosis intact
    (spawn pools pickle exceptions back to the parent)."""

    def test_round_trip_preserves_fields(self):
        import pickle

        err = ShardError(7, ("payload", 123), "Traceback: ValueError: boom")
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, ShardError)
        assert clone.shard_index == 7
        assert clone.payload == ("payload", 123)
        assert clone.detail == "Traceback: ValueError: boom"
        assert str(clone) == str(err)

    def test_round_trip_with_unpicklable_payload_repr(self):
        import pickle

        # Payloads are arbitrary; the pickle path must not depend on
        # the payload being simple (it already reached the parent).
        err = ShardError(0, {"k": (1, 2)}, "tb")
        clone = pickle.loads(pickle.dumps(err))
        assert clone.payload == {"k": (1, 2)}

    def test_raised_across_spawn_pool(self):
        """End-to-end: a spawn worker that raises ShardError itself —
        the exception type must survive the pool's result pickling."""
        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("spawn unavailable")
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(1) as pool:
            with pytest.raises(ShardError) as excinfo:
                pool.apply(_raise_shard_error, ())
        assert excinfo.value.shard_index == 3
        assert "worker traceback" in excinfo.value.detail


def _raise_shard_error():
    raise ShardError(3, "payload", "worker traceback")
