"""Simulated time is a Python float on every trace source.

Arrival times drive every resource-timeline comparison, FTL/GC update
and metrics fold of a replay.  A ``numpy.float64`` clock gives the same
IEEE-754 results but runs each of those operations as numpy scalar
arithmetic and pickles through numpy's scalar reduce, so every source
that builds requests from numpy columns converts them with ``tolist``
first (CONTRIBUTING.md, "Simulated time").
"""

from __future__ import annotations

import io

import pytest

from repro.traces.io import load_trace, save_trace
from repro.traces.msr import parse_msr_csv
from repro.traces.patterns import (
    mixed_pattern,
    random_writes,
    sequential_writes,
    zipf_writes,
)
from repro.traces.synthetic import generate_trace
from repro.traces.tenants import build_population
from repro.traces.transform import (
    filter_ops,
    interleave_traces,
    merge_traces,
    remap_addresses,
    slice_time,
    split_large_requests,
    time_scale,
    truncate_requests,
)
from repro.traces.workloads import get_config, get_workload

SCALE = 1 / 512

MSR_CSV = """\
128166372003061629,usr,0,Write,3154280448,4096,1331
128166372016382155,usr,0,Read,3154280448,8192,1047
128166372026382245,usr,0,Write,1048576,65536,966
"""


def _synthetic():
    return get_workload("ts_0", SCALE)


def _saved_and_loaded(tmp_path):
    path = tmp_path / "t.npz"
    save_trace(_synthetic(), path)
    return load_trace(path)


def _interleaved():
    a = sequential_writes(20, name="a")
    b = random_writes(20, span_pages=64, seed=1, name="b")
    return interleave_traces([a, b], zone_pages=4096)


SOURCES = {
    "generate_trace": lambda tmp: generate_trace(get_config("hm_1", SCALE)),
    "get_workload": lambda tmp: _synthetic(),
    "sequential_writes": lambda tmp: sequential_writes(50),
    "random_writes": lambda tmp: random_writes(50, span_pages=256, seed=3),
    "zipf_writes": lambda tmp: zipf_writes(50, n_objects=16, seed=3),
    "mixed_pattern": lambda tmp: mixed_pattern(200, seed=3),
    "load_trace": _saved_and_loaded,
    "interleave_traces": lambda tmp: _interleaved(),
    "build_population": lambda tmp: build_population("ts_0", 3, SCALE, seed=7)[0],
    "time_scale": lambda tmp: time_scale(_synthetic(), 0.5),
    "slice_time": lambda tmp: slice_time(_synthetic(), 1.0, 1e9),
    "filter_ops": lambda tmp: filter_ops(_synthetic(), lambda r: r.is_write),
    "remap_addresses": lambda tmp: remap_addresses(_synthetic(), 4096),
    "merge_traces": lambda tmp: merge_traces(
        [sequential_writes(20), zipf_writes(20, n_objects=8)]
    ),
    "truncate_requests": lambda tmp: truncate_requests(_synthetic(), 100),
    "split_large_requests": lambda tmp: split_large_requests(_synthetic(), 4),
    "parse_msr_csv": lambda tmp: list(parse_msr_csv(io.StringIO(MSR_CSV))),
}


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_request_times_are_python_floats(source, tmp_path):
    requests = list(SOURCES[source](tmp_path))
    assert requests, f"{source} produced no requests"
    bad = [type(r.time).__name__ for r in requests if type(r.time) is not float]
    assert not bad, f"{source}: {len(bad)} requests timed as {bad[0]}"

