"""Tests for npz trace storage."""

from __future__ import annotations

import pickle
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.traces import io
from repro.traces.io import (
    cached_workload,
    load_trace,
    save_trace,
    trace_columns,
    trace_from_columns,
)
from repro.traces.model import IORequest, OpType, Trace
from repro.traces.synthetic import generate_trace
from tests.conftest import R, W, make_trace

#: A format-version-1 file from the per-element ``save_trace`` that
#: preceded the column codec; files like it must keep loading.
LEGACY_V1 = Path(__file__).parent / "data" / "trace-v1.npz"
LEGACY_V1_REQUESTS = [
    IORequest(0.0, OpType.WRITE, 0, 8),
    IORequest(0.125, OpType.READ, 3, 1),
    IORequest(2.5, OpType.WRITE, 2**31 + 5, 64),
    IORequest(1e6 / 3, OpType.READ, 2**40, 2),
]


class TestRoundTrip:
    def test_exact_roundtrip(self, tiny_trace, tmp_path):
        path = tmp_path / "t.npz"
        save_trace(tiny_trace, path)
        loaded = load_trace(path)
        assert loaded.name == tiny_trace.name
        assert len(loaded) == len(tiny_trace)
        for a, b in zip(tiny_trace, loaded):
            assert a == b

    def test_empty_trace(self, tmp_path):
        from repro.traces.model import Trace

        path = tmp_path / "e.npz"
        save_trace(Trace("empty", []), path)
        assert len(load_trace(path)) == 0

    def test_mixed_ops_preserved(self, tmp_path):
        t = make_trace([W(0, 3), R(10, 1), W(5, 2)])
        path = tmp_path / "m.npz"
        save_trace(t, path)
        loaded = load_trace(path)
        assert [r.is_write for r in loaded] == [True, False, True]

    def test_creates_parent_dirs(self, tiny_trace, tmp_path):
        path = tmp_path / "deep" / "nested" / "t.npz"
        save_trace(tiny_trace, path)
        assert path.exists()

    def test_version_check(self, tiny_trace, tmp_path):
        import numpy as np

        path = tmp_path / "bad.npz"
        np.savez(path, version=np.int32(99), name="x")
        with pytest.raises(ValueError, match="version"):
            load_trace(path)


class TestColumns:
    def test_round_trip_synthetic(self, tiny_trace):
        back = trace_from_columns(tiny_trace.name, trace_columns(tiny_trace.requests))
        assert back.name == tiny_trace.name
        assert back.requests == tiny_trace.requests

    @pytest.mark.parametrize(
        "requests",
        [[], [W(2**31 + 7, 4, t=0.5), R(2**40, 1, t=0.75), W(0, 1, t=0.75)]],
        ids=["empty", "both-ops-wide-lpns"],
    )
    def test_round_trip_request_for_request(self, requests):
        back = trace_from_columns("t", trace_columns(requests))
        assert back.requests == requests
        assert all(type(r.lpn) is int and type(r.npages) is int for r in back)

    def test_rebuild_validates_requests(self):
        columns = trace_columns([W(0, 1, t=0.0)])
        columns["npages"][0] = 0
        with pytest.raises(ValueError):
            trace_from_columns("bad", columns)

    def test_rebuild_checks_order(self):
        columns = trace_columns([W(0, 1, t=1.0), W(1, 1, t=2.0)])
        columns["time"][:] = columns["time"][::-1].copy()
        with pytest.raises(ValueError, match="not sorted"):
            trace_from_columns("unsorted", columns)


class TestTracePickle:
    """A pickled trace is its four columns, rebuilt by the codec."""

    def test_round_trip(self, monkeypatch):
        requests = [W(2**31 + 7, 4, t=1 / 3), R(2**40, 1, t=0.5), W(0, 1, t=1e6 / 7)]
        blob = pickle.dumps(Trace("t", requests))
        rebuilt = []
        real = io.trace_from_columns

        def spy(name, columns):
            rebuilt.append(name)
            return real(name, columns)

        monkeypatch.setattr(io, "trace_from_columns", spy)
        back = pickle.loads(blob)
        assert rebuilt == ["t"]
        assert back.name == "t"
        assert back.requests == requests
        assert [r.time.hex() for r in back] == [r.time.hex() for r in requests]

    @pytest.mark.parametrize(
        "column, values, match",
        [("npages", [0, 1], "npages"), ("time", [2.0, 1.0], "not sorted")],
        ids=["bad-request", "unsorted"],
    )
    def test_load_validates(self, monkeypatch, column, values, match):
        real = io.trace_columns

        def corrupt(requests):
            columns = real(requests)
            columns[column][:] = values
            return columns

        monkeypatch.setattr(io, "trace_columns", corrupt)
        blob = pickle.dumps(Trace("bad", [W(0, 1, t=1.0), W(1, 1, t=2.0)]))
        with pytest.raises(ValueError, match=match):
            pickle.loads(blob)


class TestFormatVersion1:
    def test_legacy_file_loads(self):
        loaded = load_trace(LEGACY_V1)
        assert loaded.name == "legacy-v1"
        assert loaded.requests == LEGACY_V1_REQUESTS

    def test_writer_matches_legacy_layout(self, tmp_path):
        path = tmp_path / "new.npz"
        save_trace(Trace("legacy-v1", LEGACY_V1_REQUESTS), path)
        with np.load(path) as new, np.load(LEGACY_V1) as old:
            assert new.files == old.files
            for key in old.files:
                assert new[key].dtype == old[key].dtype
                assert np.array_equal(new[key], old[key])


class TestCachedWorkload:
    def test_generates_then_loads(self, tmp_path):
        a = cached_workload("ts_0", 1 / 512, cache_dir=tmp_path)
        files = list(tmp_path.glob("*.npz"))
        assert len(files) == 1
        b = cached_workload("ts_0", 1 / 512, cache_dir=tmp_path)
        assert len(a) == len(b)
        assert all(x == y for x, y in zip(a, b))

    def test_key_covers_the_whole_config(self, tmp_path, monkeypatch):
        """Re-seeding a workload must not load the trace of the old seed."""
        from repro.traces import workloads

        old = cached_workload("ts_0", 1 / 512, cache_dir=tmp_path)
        reseeded = replace(workloads.PAPER_WORKLOADS["ts_0"], seed=4242)
        monkeypatch.setitem(workloads.PAPER_WORKLOADS, "ts_0", reseeded)
        new = cached_workload("ts_0", 1 / 512, cache_dir=tmp_path)
        assert new.requests != old.requests
        assert new.requests == generate_trace(reseeded.scaled(1 / 512)).requests
        assert len(list(tmp_path.glob("*.npz"))) == 2
        # Each file is found again under its own config.
        assert cached_workload("ts_0", 1 / 512, cache_dir=tmp_path).requests == (
            new.requests
        )
        monkeypatch.undo()
        assert cached_workload("ts_0", 1 / 512, cache_dir=tmp_path).requests == (
            old.requests
        )

    def test_old_file_names_are_ignored(self, tmp_path):
        """A file named as before the key covered the config is not read."""
        from repro.traces.workloads import get_config

        cfg = get_config("ts_0", 1 / 512)
        stale = tmp_path / f"ts_0-s{1 / 512:.8f}-n{cfg.n_requests}.npz"
        save_trace(Trace("stale", [W(0, 1)]), stale)
        trace = cached_workload("ts_0", 1 / 512, cache_dir=tmp_path)
        assert len(trace) == cfg.n_requests

    def test_matches_direct_generation(self, tmp_path):
        from repro.traces.workloads import get_workload

        cached = cached_workload("ts_0", 1 / 512, cache_dir=tmp_path)
        direct = get_workload("ts_0", 1 / 512)
        assert len(cached) == len(direct)
        for a, b in zip(cached, direct):
            assert a == b
