"""Runtime metrics: a dependency-free instrument registry + sampler.

Replay-level aggregates (:class:`~repro.sim.metrics.ReplayMetrics`) only
say what a run did *overall*; this module adds the time-resolved layer —
the paper's claims are windowed (hit-ratio gains accrue unevenly across
a trace, response time tracks transient GC pressure), so diagnosing a
run needs counters you can snapshot *during* it.

Four instrument types, all O(1) memory and update cost:

:class:`Counter`
    Monotonically increasing count (``cache.page_hits_total``).
:class:`Gauge`
    A value that goes up and down (``cache.occupancy_pages``); usually
    refreshed lazily by a *collector* right before a snapshot.
:class:`Histogram`
    Log-bucketed distribution with quantile estimates
    (``host.response_ms``); a value's bucket is known within the bucket
    growth factor, so quantiles are accurate to that factor.
:class:`Rate`
    Windowed event rate (``host.request_rate``): events per completed
    time window, for "requests/s right now" style readings.

Instruments are named ``subsystem.noun_unit`` (validated), created once
via the registry and cached by name.  Components follow the same
null-object discipline as :mod:`repro.obs.tracer`: they hold a registry
reference defaulting to the shared disabled :data:`NULL_METRICS` and
guard instrumentation with ``if metrics.enabled:``, so a metrics-free
replay pays one attribute load and branch per guarded site.

The :class:`Sampler` snapshots the registry on a request-count cadence
(default :data:`DEFAULT_SAMPLE_INTERVAL`, the Figure-13 logging
interval) into an in-memory time series which the CLI exports as JSONL
(``--metrics-out``) or a Prometheus-style text dump
(``--metrics-format prom``).  See ``docs/metrics.md``.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Rate",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
    "Sampler",
    "DEFAULT_SAMPLE_INTERVAL",
    "prometheus_name",
]

#: Snapshot cadence in requests — one value shared by the Figure-13
#: list-occupancy log and the metrics time series (the paper logs list
#: occupancy "once for every 10,000 requests"), so the two sampling
#: mechanisms cannot drift apart.
DEFAULT_SAMPLE_INTERVAL = 10_000

#: Instrument naming convention: ``subsystem.noun_unit`` — at least two
#: lowercase dot-separated segments of ``[a-z0-9_]`` (e.g.
#: ``ssd.gc.pages_migrated_total``).
_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")


def _validate_name(name: str) -> None:
    if not _NAME_RE.match(name):
        raise ValueError(
            f"invalid metric name {name!r}: use 'subsystem.noun_unit' "
            "(lowercase dot-separated segments of [a-z0-9_])"
        )


class Counter:
    """Monotonic event count."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (must be >= 0: counters only go up)."""
        if n < 0:
            raise ValueError(f"counter increment must be >= 0, got {n}")
        self.value += n

    def merge(self, other: "Counter") -> None:
        """Fold another counter in (parallel reduction)."""
        self.value += other.value

    def reset(self) -> None:
        """Zero the count."""
        self.value = 0


class Gauge:
    """A point-in-time value (goes up and down)."""

    kind = "gauge"
    __slots__ = ("value", "updates")

    def __init__(self) -> None:
        self.value = 0.0
        self.updates = 0

    def set(self, v: float) -> None:
        """Replace the value."""
        self.value = v
        self.updates += 1

    def inc(self, n: float = 1.0) -> None:
        """Adjust the value upward."""
        self.value += n
        self.updates += 1

    def dec(self, n: float = 1.0) -> None:
        """Adjust the value downward."""
        self.value -= n
        self.updates += 1

    def merge(self, other: "Gauge") -> None:
        """Fold another gauge in: the other's value wins if it was ever
        set (last-writer semantics for sequential reductions)."""
        if other.updates:
            self.value = other.value
            self.updates += other.updates

    def reset(self) -> None:
        """Back to the initial 0.0 / never-updated state."""
        self.value = 0.0
        self.updates = 0


class Histogram:
    """Log-bucketed distribution with bounded-error quantiles.

    Bucket ``i`` covers ``[growth**i, growth**(i+1))``; non-positive
    samples land in a dedicated zero bucket.  Memory is O(distinct
    buckets) — ~60 buckets span twelve decades at the default growth of
    2 — and a quantile estimate is the upper bound of its bucket clamped
    to the observed min/max, so it overestimates the true quantile by at
    most the growth factor (pinned by the brute-force reference test).
    """

    kind = "histogram"
    __slots__ = ("growth", "_log_growth", "count", "sum", "min", "max",
                 "_zero", "_buckets")

    def __init__(self, growth: float = 2.0) -> None:
        if growth <= 1.0:
            raise ValueError(f"growth must be > 1, got {growth}")
        self.growth = growth
        self._log_growth = math.log(growth)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._zero = 0  # samples <= 0
        self._buckets: Dict[int, int] = {}

    def observe(self, x: float, n: int = 1) -> None:
        """Fold ``n`` samples of value ``x`` in (the sum grows by
        ``x * n``: exactly ``n`` additions of ``x`` for integer samples)."""
        self.count += n
        self.sum += x * n
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x
        if x <= 0.0:
            self._zero += n
            return
        idx = math.floor(math.log(x) / self._log_growth)
        self._buckets[idx] = self._buckets.get(idx, 0) + n

    @property
    def mean(self) -> float:
        """Arithmetic mean (0 for an empty histogram)."""
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (see class docstring for the bound)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        acc = float(self._zero)
        if acc >= target and self._zero:
            return max(0.0, self.min)
        for idx in sorted(self._buckets):
            acc += self._buckets[idx]
            if acc >= target:
                upper = self.growth ** (idx + 1)
                return min(self.max, max(self.min, upper))
        return self.max

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram in (must share the growth factor)."""
        if other.growth != self.growth:
            raise ValueError(
                f"cannot merge histograms with growth {self.growth} and "
                f"{other.growth}"
            )
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self._zero += other._zero
        for idx, n in other._buckets.items():
            self._buckets[idx] = self._buckets.get(idx, 0) + n

    def reset(self) -> None:
        """Drop all samples."""
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._zero = 0
        self._buckets.clear()

    def flatten(self, name: str) -> Dict[str, float]:
        """Snapshot form: count/sum/mean/max and p50/p99 sub-keys."""
        out = {
            f"{name}.count": float(self.count),
            f"{name}.sum": self.sum,
            f"{name}.mean": self.mean,
        }
        if self.count:
            out[f"{name}.max"] = self.max
            out[f"{name}.p50"] = self.quantile(0.50)
            out[f"{name}.p99"] = self.quantile(0.99)
        return out


class Rate:
    """Windowed event rate: events per completed window.

    Windows are aligned at multiples of ``window`` on the caller's time
    axis (simulation ms in a replay).  ``mark(now)`` counts an event in
    the window containing ``now``; ``value(now)`` reports the *previous*
    window's count divided by the window length — i.e. a finished,
    stable reading, not the partially-filled current window.  A gap of
    more than one window yields 0 (nothing happened in the window that
    just ended).
    """

    kind = "rate"
    __slots__ = ("window", "total", "_wid", "_count", "_last_count")

    def __init__(self, window: float = 1000.0) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        self.total = 0
        self._wid: Optional[int] = None  # current window index
        self._count = 0
        self._last_count = 0

    def _advance(self, now: float) -> None:
        wid = math.floor(now / self.window)
        if self._wid is None:
            self._wid = wid
            return
        if wid > self._wid:
            self._last_count = self._count if wid == self._wid + 1 else 0
            self._count = 0
            self._wid = wid

    def mark(self, now: float, n: int = 1) -> None:
        """Count ``n`` events at time ``now`` (non-decreasing)."""
        # _advance inlined: mark() runs once per replayed request.
        wid = math.floor(now / self.window)
        cur = self._wid
        if cur is None:
            self._wid = wid
        elif wid > cur:
            self._last_count = self._count if wid == cur + 1 else 0
            self._count = 0
            self._wid = wid
        self._count += n
        self.total += n

    def value(self, now: Optional[float] = None) -> float:
        """Events per time-unit over the last completed window."""
        if now is not None:
            self._advance(now)
        return self._last_count / self.window

    def merge(self, other: "Rate") -> None:
        """Fold another rate in: totals add; for the live window state,
        the later stream wins, and counts add when both streams sit in
        the same window (approximate, for sequential reductions)."""
        self.total += other.total
        if other._wid is None:
            return
        if self._wid is None or other._wid > self._wid:
            self._wid = other._wid
            self._count = other._count
            self._last_count = other._last_count
        elif other._wid == self._wid:
            self._count += other._count
            self._last_count += other._last_count

    def reset(self) -> None:
        """Back to the initial empty state."""
        self.total = 0
        self._wid = None
        self._count = 0
        self._last_count = 0


_INSTRUMENT_TYPES = (Counter, Gauge, Histogram, Rate)


class MetricsRegistry:
    """Named instruments + lazy collectors; the enabled implementation.

    A registry is bound to *one* replay: components register collector
    callbacks (closures over themselves) at attach time, so reusing a
    registry across replays would double-collect.  Create a fresh one
    per run (the CLI does).
    """

    enabled = True

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}
        self._collectors: List[Callable[[float], None]] = []
        self._help: Dict[str, str] = {}

    # -- instrument accessors ------------------------------------------
    def _get(
        self, name: str, cls: type, help: Optional[str] = None, **kwargs
    ) -> object:
        inst = self._instruments.get(name)
        if inst is None:
            _validate_name(name)
            inst = cls(**kwargs)
            self._instruments[name] = inst
        elif not isinstance(inst, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(inst).__name__}, requested {cls.__name__}"
            )
        if help and name not in self._help:
            # First helper wins: re-accessing an instrument without a
            # help string must not erase the registered one.
            self._help[name] = help
        return inst

    def counter(self, name: str, help: Optional[str] = None) -> Counter:
        """The counter named ``name`` (created on first use)."""
        return self._get(name, Counter, help=help)  # type: ignore[return-value]

    def gauge(self, name: str, help: Optional[str] = None) -> Gauge:
        """The gauge named ``name`` (created on first use)."""
        return self._get(name, Gauge, help=help)  # type: ignore[return-value]

    def histogram(
        self, name: str, growth: float = 2.0, help: Optional[str] = None
    ) -> Histogram:
        """The histogram named ``name`` (created on first use)."""
        return self._get(name, Histogram, help=help, growth=growth)  # type: ignore[return-value]

    def rate(
        self, name: str, window: float = 1000.0, help: Optional[str] = None
    ) -> Rate:
        """The rate named ``name`` (created on first use)."""
        return self._get(name, Rate, help=help, window=window)  # type: ignore[return-value]

    def names(self) -> List[str]:
        """Registered instrument names, sorted."""
        return sorted(self._instruments)

    # -- collectors ----------------------------------------------------
    def register_collector(self, fn: Callable[[float], None]) -> None:
        """Add a callback run right before every snapshot.

        Collectors receive the current simulation time (ms) and refresh
        gauges from live component state — the cheap way to expose
        occupancy/queue-depth style values without touching hot paths.
        """
        self._collectors.append(fn)

    def collect(self, now: float = 0.0) -> None:
        """Run all registered collectors."""
        for fn in self._collectors:
            fn(now)

    # -- output --------------------------------------------------------
    def snapshot(self, now: float = 0.0) -> Dict[str, float]:
        """Collect, then flatten every instrument to a ``name: value``
        dict (histograms expand to ``.count/.sum/.mean/.max/.p50/.p99``,
        rates to the windowed rate plus ``.total``)."""
        self.collect(now)
        out: Dict[str, float] = {}
        for name in sorted(self._instruments):
            inst = self._instruments[name]
            if isinstance(inst, Histogram):
                out.update(inst.flatten(name))
            elif isinstance(inst, Rate):
                out[name] = inst.value(now)
                out[f"{name}.total"] = float(inst.total)
            elif isinstance(inst, Counter):
                out[name] = float(inst.value)
            else:  # Gauge
                out[name] = float(inst.value)  # type: ignore[union-attr]
        return out

    def prometheus_text(self, now: float = 0.0) -> str:
        """Prometheus exposition-format dump of the current state.

        Dots become underscores and every family gets a ``repro_``
        prefix; histograms export as summaries (quantile labels), rates
        as a gauge plus a ``_total`` counter.  Instruments registered
        with a ``help`` string get a ``# HELP`` line (backslashes and
        newlines escaped per the exposition format).
        """
        self.collect(now)
        lines: List[str] = []
        for name in sorted(self._instruments):
            inst = self._instruments[name]
            pname = prometheus_name(name)
            help_text = self._help.get(name)
            if help_text:
                lines.append(f"# HELP {pname} {_escape_help(help_text)}")
            if isinstance(inst, Counter):
                lines.append(f"# TYPE {pname} counter")
                lines.append(f"{pname} {inst.value}")
            elif isinstance(inst, Gauge):
                lines.append(f"# TYPE {pname} gauge")
                lines.append(f"{pname} {_fmt(inst.value)}")
            elif isinstance(inst, Rate):
                lines.append(f"# TYPE {pname} gauge")
                lines.append(f"{pname} {_fmt(inst.value(now))}")
                lines.append(f"# TYPE {pname}_total counter")
                lines.append(f"{pname}_total {inst.total}")
            else:  # Histogram -> summary
                lines.append(f"# TYPE {pname} summary")
                if inst.count:
                    for q in (0.5, 0.9, 0.99):
                        lines.append(
                            f'{pname}{{quantile="{q}"}} '
                            f"{_fmt(inst.quantile(q))}"
                        )
                lines.append(f"{pname}_sum {_fmt(inst.sum)}")
                lines.append(f"{pname}_count {inst.count}")
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Reset every instrument (collectors stay registered)."""
        for inst in self._instruments.values():
            inst.reset()  # type: ignore[union-attr]


def prometheus_name(name: str, prefix: str = "repro_") -> str:
    """``subsystem.noun_unit`` -> ``repro_subsystem_noun_unit``."""
    return prefix + name.replace(".", "_")


def _escape_help(text: str) -> str:
    """HELP-line escaping per the Prometheus exposition format:
    backslash first, then newlines."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _fmt(v: float) -> str:
    """Prometheus sample value: integral floats render without '.0'."""
    if v == math.inf:
        return "+Inf"
    if v == -math.inf:
        return "-Inf"
    if float(v).is_integer():
        return str(int(v))
    return repr(float(v))


class _NullInstrument:
    """Absorbs every instrument method; returned by the null registry so
    unconditional instrument creation at setup time stays safe."""

    __slots__ = ()
    kind = "null"
    value = 0
    count = 0
    total = 0

    def inc(self, n: int = 1) -> None:
        pass

    def dec(self, n: float = 1.0) -> None:
        pass

    def set(self, v: float) -> None:
        pass

    def observe(self, x: float, n: int = 1) -> None:
        pass

    def mark(self, now: float, n: int = 1) -> None:
        pass

    def reset(self) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry:
    """Disabled registry; the hot-path default (cf. ``NullTracer``)."""

    enabled = False

    def counter(self, name: str, **kwargs) -> _NullInstrument:
        """No-op instrument (absorbs help=/growth=/window= kwargs)."""
        return _NULL_INSTRUMENT

    gauge = counter
    histogram = counter
    rate = counter

    def register_collector(self, fn: Callable[[float], None]) -> None:
        """Dropped — a disabled registry never collects."""

    def collect(self, now: float = 0.0) -> None:
        pass

    def snapshot(self, now: float = 0.0) -> Dict[str, float]:
        """Always empty."""
        return {}

    def names(self) -> List[str]:
        """Always empty."""
        return []

    def reset(self) -> None:
        pass


#: Shared singleton — components default their ``metrics`` to this.
NULL_METRICS = NullMetricsRegistry()


class Sampler:
    """Snapshots a registry on a request-count cadence into a series.

    One snapshot is taken at request 0 (the baseline), one every
    ``interval`` requests, and one at the end of the replay
    (:meth:`finalize`), so any non-empty replay yields at least two
    snapshots; a zero-length replay yields none.  Each snapshot is the
    registry's flat dict plus ``index`` (request number) and ``sim_ms``
    (simulation time) keys — exactly one JSONL line in the export.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        interval: int = DEFAULT_SAMPLE_INTERVAL,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"sample interval must be positive, got {interval}")
        self.registry = registry
        self.interval = interval
        self.series: List[Dict[str, float]] = []
        self._last_index: Optional[int] = None

    def maybe_sample(self, index: int, sim_ms: float) -> bool:
        """Snapshot when ``index`` falls on the cadence; returns whether
        a snapshot was taken."""
        if index % self.interval:
            return False
        self.sample(index, sim_ms)
        return True

    def sample(self, index: int, sim_ms: float) -> Dict[str, float]:
        """Unconditionally snapshot the registry now."""
        snap = self.registry.snapshot(sim_ms)
        snap["index"] = float(index)
        snap["sim_ms"] = float(sim_ms)
        self.series.append(snap)
        self._last_index = index
        return snap

    def finalize(self, index: int, sim_ms: float) -> None:
        """Take the end-of-replay snapshot (skipped if ``index`` was just
        sampled by the cadence)."""
        if self._last_index != index:
            self.sample(index, sim_ms)
