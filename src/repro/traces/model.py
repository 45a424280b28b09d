"""I/O request model shared by traces, cache policies and the SSD simulator.

The unit of addressing throughout the package is the **logical page
number (LPN)**: traces expressed in 512-byte sectors (MSR format) are
converted to 4 KB pages at parse time, matching the paper's SSDsim
configuration (Table 1).  A request covers the contiguous LPN range
``[lpn, lpn + npages)``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, List, Sequence, Tuple

from repro.utils.validation import require_non_negative, require_positive

__all__ = ["OpType", "IORequest", "Trace", "PAGE_SIZE_BYTES", "SECTOR_SIZE_BYTES"]

PAGE_SIZE_BYTES = 4096
SECTOR_SIZE_BYTES = 512


class OpType(enum.Enum):
    """Request direction as seen by the SSD."""

    READ = "R"
    WRITE = "W"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, slots=True, init=False)
class IORequest:
    """One block-level I/O request.

    Attributes
    ----------
    time:
        Arrival time in milliseconds from trace start.
    op:
        :class:`OpType.READ` or :class:`OpType.WRITE`.
    lpn:
        First logical page number touched.
    npages:
        Number of 4 KB pages covered (the paper's "request size").

    The ``__init__`` is written out because one request is built per
    trace record: it tests the bounds inline (the ``require_*``
    validators run only to raise) and stores through the slot
    descriptors, skipping the frozen dataclass's ``object.__setattr__``
    calls and ``__post_init__``.  Equality, hashing, ``repr``, pickling
    and :func:`dataclasses.replace` stay the generated ones.
    """

    time: float
    op: OpType
    lpn: int
    npages: int

    def __init__(self, time: float, op: OpType, lpn: int, npages: int) -> None:
        if not time >= 0:
            require_non_negative(time, "time")
        if not lpn >= 0:
            require_non_negative(lpn, "lpn")
        if not npages > 0:
            require_positive(npages, "npages")
        _set_time(self, time)
        _set_op(self, op)
        _set_lpn(self, lpn)
        _set_npages(self, npages)

    @property
    def is_write(self) -> bool:
        """Whether this is a write request."""
        return self.op is OpType.WRITE

    @property
    def is_read(self) -> bool:
        """Whether this is a read request."""
        return self.op is OpType.READ

    @property
    def size_bytes(self) -> int:
        """Request size in bytes (npages x 4 KB)."""
        return self.npages * PAGE_SIZE_BYTES

    @property
    def size_kb(self) -> float:
        """Request size in KB (the unit of the paper's Table 2)."""
        return self.size_bytes / 1024.0

    @property
    def end_lpn(self) -> int:
        """One past the last LPN touched."""
        return self.lpn + self.npages

    def pages(self) -> range:
        """The LPNs covered by this request, in ascending order."""
        return range(self.lpn, self.lpn + self.npages)

    @classmethod
    def from_sectors(
        cls, time: float, op: OpType, sector: int, nbytes: int
    ) -> "IORequest":
        """Build a page-aligned request from a sector address and byte count.

        The covered page range is the smallest page-aligned range that
        contains ``[sector * 512, sector * 512 + nbytes)`` — the same
        rounding SSD firmware applies for read-modify-write.
        """
        require_positive(nbytes, "nbytes")
        start_byte = sector * SECTOR_SIZE_BYTES
        end_byte = start_byte + nbytes
        first = start_byte // PAGE_SIZE_BYTES
        last = (end_byte + PAGE_SIZE_BYTES - 1) // PAGE_SIZE_BYTES
        return cls(time=time, op=op, lpn=first, npages=last - first)


# Slot descriptors of the class ``@dataclass(slots=True)`` returned; the
# frozen ``__setattr__`` rejects plain stores in ``IORequest.__init__``.
_set_time = IORequest.__dict__["time"].__set__
_set_op = IORequest.__dict__["op"].__set__
_set_lpn = IORequest.__dict__["lpn"].__set__
_set_npages = IORequest.__dict__["npages"].__set__


class Trace:
    """An ordered sequence of :class:`IORequest` plus identity metadata.

    Thin wrapper over a list so replay code can iterate it repeatedly,
    slice it, and attach a name for reporting.  Requests must be sorted
    by arrival time (enforced on construction).

    A trace pickles as the four columns of :mod:`repro.traces.io`
    (``trace_columns``) and unpickles through ``trace_from_columns``,
    so the requests and the sort order are validated on load.
    """

    __slots__ = ("name", "_requests")

    def __init__(self, name: str, requests: Sequence[IORequest]) -> None:
        self.name = name
        reqs = list(requests)
        for a, b in zip(reqs, reqs[1:]):
            if b.time < a.time:
                raise ValueError(
                    f"trace {name!r} is not sorted by time "
                    f"({b.time} after {a.time})"
                )
        self._requests = reqs

    def __reduce__(self) -> Tuple[Callable[..., "Trace"], Tuple[Any, ...]]:
        # Lazy import: repro.traces.io imports this module.
        from repro.traces.io import trace_columns, trace_from_columns

        return (trace_from_columns, (self.name, trace_columns(self._requests)))

    def __len__(self) -> int:
        return len(self._requests)

    def __iter__(self) -> Iterator[IORequest]:
        return iter(self._requests)

    def __getitem__(self, idx: int) -> IORequest:
        return self._requests[idx]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Trace {self.name!r} n={len(self._requests)}>"

    @property
    def requests(self) -> List[IORequest]:
        """The underlying request list (do not mutate)."""
        return self._requests

    def head(self, n: int) -> "Trace":
        """A new trace containing only the first ``n`` requests."""
        return Trace(f"{self.name}[:{n}]", self._requests[:n])

    def segment(self, start: int, stop: int) -> "Trace":
        """Requests ``[start, stop)`` as a trace named ``name[start:stop]``.

        A slice of a sorted trace is sorted, so the sort check of the
        constructor is not run again.
        """
        seg = Trace.__new__(Trace)
        seg.name = f"{self.name}[{start}:{stop}]"
        seg._requests = self._requests[start:stop]
        return seg

    def writes(self) -> Iterable[IORequest]:
        """The write requests, in order."""
        return (r for r in self._requests if r.is_write)

    def reads(self) -> Iterable[IORequest]:
        """The read requests, in order."""
        return (r for r in self._requests if r.is_read)

    def footprint_pages(self) -> int:
        """Number of distinct LPNs touched by the whole trace."""
        seen: set[int] = set()
        for r in self._requests:
            seen.update(r.pages())
        return len(seen)

    def max_lpn(self) -> int:
        """Largest LPN touched (0 for an empty trace)."""
        return max((r.end_lpn - 1 for r in self._requests), default=0)
