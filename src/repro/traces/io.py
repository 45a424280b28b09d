"""Fast binary trace storage (numpy ``.npz``) and its columnar codec.

Regenerating a scaled workload takes ~1 s, but a full-length paper
workload (4.2 M requests for proj_0) takes tens of seconds per run —
and full-scale sweeps replay each trace dozens of times.  This module
round-trips any :class:`Trace` through a compact columnar ``.npz``
(four aligned arrays: time, op, lpn, npages), loading in milliseconds.

The same four columns are the in-memory wire format of a trace:
:func:`trace_columns` / :func:`trace_from_columns` convert requests to
and from them, and :func:`repro.sim.parallel.replay_sharded` ships each
segment to its worker that way (four array buffers pickle in
microseconds; tens of thousands of request objects do not).

``cached_workload`` wraps the named paper workloads with a disk cache
keyed by (name, scale).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Mapping, Sequence, Union

import numpy as np

from repro.traces.model import IORequest, OpType, Trace
from repro.traces.workloads import get_config
from repro.traces.synthetic import generate_trace

__all__ = [
    "save_trace",
    "load_trace",
    "cached_workload",
    "trace_columns",
    "trace_from_columns",
]

PathLike = Union[str, Path]

_FORMAT_VERSION = 1


def trace_columns(requests: Sequence[IORequest]) -> Dict[str, np.ndarray]:
    """The four aligned columns of ``requests``, keyed as in the ``.npz``.

    ``time`` float64, ``op`` uint8 (1 = write), ``lpn`` int64 and
    ``npages`` int32.
    """
    write = OpType.WRITE
    return {
        "time": np.array([r.time for r in requests], dtype=np.float64),
        "op": np.array([r.op is write for r in requests], dtype=np.uint8),
        "lpn": np.array([r.lpn for r in requests], dtype=np.int64),
        "npages": np.array([r.npages for r in requests], dtype=np.int32),
    }


def trace_from_columns(name: str, columns: Mapping[str, np.ndarray]) -> Trace:
    """Rebuild the trace :func:`trace_columns` (or ``.npz``) described.

    Columns convert with ``tolist`` so every request carries Python
    scalars, and each request goes through the normal constructor, so
    field validation and the trace's sort check run as for any trace.
    """
    read, write = OpType.READ, OpType.WRITE
    requests = [
        IORequest(time, write if op else read, lpn, npages)
        for time, op, lpn, npages in zip(
            columns["time"].tolist(),
            columns["op"].tolist(),
            columns["lpn"].tolist(),
            columns["npages"].tolist(),
        )
    ]
    return Trace(name, requests)


def save_trace(trace: Trace, path: PathLike) -> None:
    """Write ``trace`` to ``path`` as a compressed ``.npz``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path,
        version=np.int32(_FORMAT_VERSION),
        name=np.str_(trace.name),
        **trace_columns(trace.requests),
    )


def load_trace(path: PathLike) -> Trace:
    """Load a trace previously written by :func:`save_trace`."""
    path = Path(path)
    with np.load(path, allow_pickle=False) as data:
        version = int(data["version"])
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"{path}: unsupported trace format version {version} "
                f"(expected {_FORMAT_VERSION})"
            )
        return trace_from_columns(str(data["name"]), data)


def cached_workload(
    name: str, scale: float, cache_dir: PathLike = ".trace-cache"
) -> Trace:
    """A named paper workload, memoised on disk.

    The first call generates and saves; later calls (including from
    other processes) load the ``.npz``.  The file name encodes the
    generator seed via (name, scale), so changing the workload configs
    in :mod:`repro.traces.workloads` requires clearing the cache
    directory.
    """
    cfg = get_config(name, scale)
    cache_dir = Path(cache_dir)
    path = cache_dir / f"{name}-s{scale:.8f}-n{cfg.n_requests}.npz"
    if path.exists():
        return load_trace(path)
    trace = generate_trace(cfg)
    save_trace(trace, path)
    return trace
