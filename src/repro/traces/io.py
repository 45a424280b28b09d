"""Fast binary trace storage (numpy ``.npz``) and its columnar codec.

This module round-trips any :class:`Trace` through a compact columnar
``.npz`` (four aligned arrays: time, op, lpn, npages).  Reading the
arrays takes milliseconds; building the request objects from them is
the cost of a load, and it is also most of the cost of synthesising a
workload, which resolves its addresses as columns and builds requests
through the same :func:`trace_from_columns`.  proj_0 at 1/4 scale
(1.06 M requests) took 1.9 s to synthesise and 1.6 s to load on a
2-vCPU VM, so for a paper workload the file saves little time over
regenerating it.

The same four columns are the in-memory wire format of a trace:
:func:`trace_columns` / :func:`trace_from_columns` convert requests to
and from them, and a pickled :class:`Trace` is its columns
(``Trace.__reduce__``) — four array buffers pickle in microseconds;
tens of thousands of request objects do not.

``cached_workload`` wraps the named paper workloads with a disk cache
keyed by every field of the scaled config.
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Union

import numpy as np

from repro.traces.model import IORequest, OpType, Trace
from repro.traces.workloads import get_config
from repro.traces.synthetic import SyntheticConfig, generate_trace

__all__ = [
    "save_trace",
    "load_trace",
    "cached_workload",
    "trace_columns",
    "trace_from_columns",
]

PathLike = Union[str, Path]

_FORMAT_VERSION = 1

#: Rows :func:`trace_from_columns` converts per ``tolist`` call.
_ROWS_PER_CHUNK = 1 << 14


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
    They convert ``_ROWS_PER_CHUNK`` rows at a time, so the temporary
    lists stay small next to the requests they build.
    """
    read, write = OpType.READ, OpType.WRITE
    time, op, lpn, npages = (columns[key] for key in ("time", "op", "lpn", "npages"))
    requests: List[IORequest] = []
    for start in range(0, len(time), _ROWS_PER_CHUNK):
        rows = slice(start, start + _ROWS_PER_CHUNK)
        requests += [
            IORequest(t, write if o else read, first, size)
            for t, o, first, size in zip(
                time[rows].tolist(),
                op[rows].tolist(),
                lpn[rows].tolist(),
                npages[rows].tolist(),
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
    other processes) load the ``.npz``.  The file name carries a hash of
    every field of the scaled config and of the file format version, so
    re-tuning a workload in :mod:`repro.traces.workloads` (its seed
    included) writes a new file instead of loading a stale one.
    """
    cfg = get_config(name, scale)
    path = Path(cache_dir) / f"{name}-s{scale:.8f}-{_config_key(cfg)}.npz"
    if path.exists():
        return load_trace(path)
    trace = generate_trace(cfg)
    save_trace(trace, path)
    return trace


def _config_key(cfg: SyntheticConfig) -> str:
    """Short hash of every field of ``cfg`` and of ``_FORMAT_VERSION``."""
    fields = [(f.name, getattr(cfg, f.name)) for f in dataclasses.fields(cfg)]
    text = repr((_FORMAT_VERSION, fields))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
