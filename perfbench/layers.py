"""The traced run: time each layer in isolation, reconcile the sum.

For every policy the traced run first times one untraced end-to-end
replay, then re-runs the same replay one layer at a time through each
layer's public functions, from outside the program:

1. ``cache.access``: a fresh ``create_policy(...)`` drives ``access``
   over the trace; the outcomes are captured.
2. ``ssd.controller.submit``: an ``SSDController`` whose policy is a
   stub returning the captured outcomes services the trace, twice.  The
   first pass gives the submit time.  In the second, delegating proxies
   replace ``controller.ftl`` and ``ftl.gc`` (both are slotted) and
   record one span per ``write_batch`` / ``read_page`` / ``collect``
   call; the proxies' own cost thus stays out of the submit time.  The
   timing model (``repro.ssd.resources``) is inlined into those calls
   and is measured inside them.  Controller self time is the submit
   time minus theirs.
3. ``sim.metrics.record``: the captured (request, record) stream is
   folded into a fresh ``ReplayMetrics``, whose record-derived summary
   must equal the end-to-end replay's.

The cache-only sharded workload has no controller.  Its payloads are
pickled as ``replay_sharded`` pickles them, and its segments are
replayed in-process, one span each, and merged with ``merge_metrics``;
the merge must reproduce the workers' result.

Each call into a layer is one span (name, start, end, parent, workload,
policy).  Spans stay in memory until the run ends.  A span's self time
is its duration minus its children's.  Cyclic garbage collections get
spans of their own (``python.gc``), so their pauses are one more layer
instead of noise in whichever layer triggered them.  Host-speed probe
spans (``host.probe``, see :mod:`hostspeed`) count in nobody's time and
convert the rest to reference seconds.  The layer sum is the sum of the
layer self times, reconciled against the untraced end-to-end time of
the same policy in the same process.
"""

from __future__ import annotations

import gc
import itertools
import json
import pickle
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Dict, Iterator, List

from checks import (
    MAX_READ_HOT_WRITE_SHARE,
    MIN_WRITE_GC_WA,
    fingerprint,
    intent_problems,
    replay_problems,
)
from hostspeed import REFERENCE_PASS_S, every_period, probe_pass, timed
from workloads import POLICIES, Setup, med, replay, replay_config

from repro.cache.registry import create_policy
from repro.sim.metrics import ReplayMetrics, merge_metrics
from repro.sim.parallel import plan_segments
from repro.sim.replay import replay_cache_only, written_footprint
from repro.ssd.controller import RequestRecord, SSDController
from repro.traces.model import Trace

perf_counter = time.perf_counter

SUBMIT_TRACED = "ssd.controller.submit.traced"
PROBE = "host.probe"
#: Spans recorded once per FTL or GC call.  Only the first repeat keeps
#: them, which bounds the span log's memory.
CALL_SPANS = ("ssd.ftl.write_batch", "ssd.ftl.read_page", "ssd.gc.collect")

#: Summary fields the metrics fold alone determines (the rest are
#: filled in by the replay driver from device state).
FOLDED_FIELDS = (
    "requests",
    "hit_ratio",
    "read_hit_ratio",
    "write_hit_ratio",
    "mean_response_ms",
    "p99_response_ms",
    "total_response_ms",
    "evictions",
    "mean_eviction_pages",
)


SPAN_FIELDS = ("id", "name", "start", "end", "parent", "workload", "policy")


class SpanLog:
    """In-memory spans: ``(id, name, start, end, parent, workload, policy)``."""

    __slots__ = ("rows", "current", "ids", "workload", "policy")

    def __init__(self, workload: str) -> None:
        self.rows: List[tuple] = []
        self.current = -1
        self.ids = itertools.count()
        self.workload = workload
        self.policy = ""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        sid = next(self.ids)
        parent = self.current
        self.current = sid
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self.current = parent
            self.rows.append((sid, name, t0, t1, parent, self.workload, self.policy))

    @contextmanager
    def collector_spans(self) -> Iterator[None]:
        """Record each cyclic garbage collection as a ``python.gc`` span,
        so its pause is not charged to whichever layer triggered it."""
        started = []

        def on_gc(phase: str, _info: dict) -> None:
            if phase == "start":
                started.append((next(self.ids), perf_counter()))
            elif started:
                sid, t0 = started.pop()
                self.rows.append(
                    (sid, "python.gc", t0, perf_counter(), self.current,
                     self.workload, self.policy)
                )

        gc.callbacks.append(on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(on_gc)

    @contextmanager
    def probing(self) -> Iterator[None]:
        """Run a host-speed probe pass every ``PERIOD_S`` as a
        ``host.probe`` span (see :mod:`hostspeed`).  Probe spans are
        children of whatever span was open, so they count in nobody's
        self time, and each root span is corrected by the probes in it."""

        def tick() -> None:
            sid = next(self.ids)
            t0 = perf_counter()
            probe_pass()
            self.rows.append(
                (sid, PROBE, t0, perf_counter(), self.current, self.workload, self.policy)
            )

        with every_period(tick):
            yield

    def write(self, path: Path, meta: dict) -> None:
        """A JSON header line naming the span fields, then one JSON
        array per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = dict(meta, fields=SPAN_FIELDS)
        with path.open("w") as f:
            f.write(json.dumps(header) + "\n")
            for row in self.rows:
                f.write(json.dumps(row) + "\n")


class SpanTotals:
    """Span times in reference seconds, summed per span name.

    Every span is corrected by the host slowdown that the probe spans
    under its root span measured (all of the rows' probes when its root
    has none).  ``under`` sums the corrected self time of everything
    under each root span, by root name; ``gc_under`` does the same for
    collector pauses only.
    """

    def __init__(self, rows: List[tuple]) -> None:
        parent, name = {}, {}
        covered: Dict[int, float] = defaultdict(float)
        for sid, n, t0, t1, p, *_ in rows:
            parent[sid] = p
            name[sid] = n
            if p >= 0:
                covered[p] += t1 - t0
        root = {}
        for sid in parent:
            r = sid
            while parent[r] in parent:
                r = parent[r]
            root[sid] = r
        probes: Dict[int, List[float]] = defaultdict(list)
        for sid, n, t0, t1, *_ in rows:
            if n == PROBE:
                probes[root[sid]].append(t1 - t0)
        everywhere = [d for ds in probes.values() for d in ds]

        def correction(r: int) -> float:
            ds = probes.get(r) or everywhere
            return REFERENCE_PASS_S * len(ds) / sum(ds) if ds else 1.0

        factor = {r: correction(r) for r in set(root.values())}
        self.self_s: Dict[str, float] = defaultdict(float)
        self.under: Dict[str, float] = defaultdict(float)
        self.gc_under: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        by_root: Dict[int, float] = defaultdict(float)
        for sid, n, t0, t1, *_ in rows:
            if n == PROBE:
                continue
            r = root[sid]
            own = factor[r] * (t1 - t0 - covered[sid])
            self.self_s[n] += own
            self.under[name[r]] += own
            by_root[r] += own
            self.calls[n] += 1
            if n == "python.gc":
                self.gc_under[name[r]] += own
        self._durations: Dict[str, List[float]] = defaultdict(list)
        for r, total in by_root.items():
            self._durations[name[r]].append(total)

    def gc_in(self, *roots: str) -> float:
        """Collector pauses inside the given root spans."""
        return sum(self.gc_under[r] for r in roots)

    def durations(self, span_name: str) -> List[float]:
        """Corrected duration of each root span named ``span_name``."""
        return self._durations.get(span_name, [])


class _TimedFTL:
    """Delegating proxy on ``SSDController.ftl``: a span per host I/O."""

    __slots__ = ("_ftl", "_spans")

    def __init__(self, ftl, spans: SpanLog) -> None:
        self._ftl = ftl
        self._spans = spans

    def __getattr__(self, name):
        return getattr(self._ftl, name)

    def write_batch(self, lpns, now, planes=None):
        s = self._spans
        sid = next(s.ids)
        parent = s.current
        s.current = sid
        t0 = perf_counter()
        try:
            return self._ftl.write_batch(lpns, now, planes)
        finally:
            t1 = perf_counter()
            s.current = parent
            s.rows.append(
                (sid, "ssd.ftl.write_batch", t0, t1, parent, s.workload, s.policy)
            )

    def read_page(self, lpn, now):
        s = self._spans
        sid = next(s.ids)
        t0 = perf_counter()
        try:
            return self._ftl.read_page(lpn, now)
        finally:
            t1 = perf_counter()
            s.rows.append(
                (sid, "ssd.ftl.read_page", t0, t1, s.current, s.workload, s.policy)
            )


class _TimedGC:
    """Delegating proxy on ``PageFTL.gc``: a span per collection."""

    __slots__ = ("_gc", "_spans")

    def __init__(self, collector, spans: SpanLog) -> None:
        self._gc = collector
        self._spans = spans

    def __getattr__(self, name):
        return getattr(self._gc, name)

    def collect(self, ftl, plane, now):
        s = self._spans
        sid = next(s.ids)
        t0 = perf_counter()
        try:
            return self._gc.collect(ftl, plane, now)
        finally:
            t1 = perf_counter()
            s.rows.append(
                (sid, "ssd.gc.collect", t0, t1, s.current, s.workload, s.policy)
            )


class _Replayed:
    """Policy stand-in returning captured outcomes in trace order."""

    def __init__(self, outcomes) -> None:
        self._next = iter(outcomes).__next__

    def access(self, _request):
        return self._next()


def _access_pass(setup: Setup, policy: str, spans: SpanLog):
    cache = create_policy(policy, replay_config(setup, policy).cache_pages)
    access = cache.access
    requests = setup.trace.requests
    with spans.span("cache.access"):
        outcomes = [access(r) for r in requests]
    return outcomes


def _controller_pass(setup: Setup, policy: str, outcomes, spans: SpanLog, traced: bool):
    """Drive ``SSDController.submit`` with the captured outcomes; with
    ``traced`` the FTL and collector calls get spans of their own."""
    config = replay_config(setup, policy)
    controller = SSDController(
        setup.ssd,
        _Replayed(outcomes),
        cache_service_ms_per_page=config.cache_service_ms_per_page,
        gc_victim_policy=config.gc_victim_policy,
    )
    ftl = controller.ftl
    if traced:
        ftl.gc = _TimedGC(controller.gc, spans)
        controller.ftl = _TimedFTL(ftl, spans)
    submit = controller.submit
    requests = setup.trace.requests
    with spans.span(SUBMIT_TRACED if traced else "ssd.controller.submit"):
        records = [submit(r) for r in requests]
    return controller, ftl, records


def _record_pass(setup: Setup, policy: str, records, spans: SpanLog) -> ReplayMetrics:
    metrics = ReplayMetrics(
        trace_name=setup.trace.name,
        policy_name=policy,
        cache_pages=replay_config(setup, policy).cache_pages,
    )
    record = metrics.record
    with spans.span("sim.metrics.record"):
        for request, rec in zip(setup.trace.requests, records):
            record(request, rec)
    return metrics


def _segment_payloads(setup: Setup, policy: str):
    """The payload list ``replay_sharded`` pickles to its workers."""
    w = setup.workload
    config = replay_config(setup, policy)
    trace = setup.trace
    plan = plan_segments(len(trace), w.shards, config.fault_seed)
    return [
        (
            f"{trace.name}[{s.start}:{s.stop}]",
            tuple(trace.requests[s.start : s.stop]),
            config,
            s,
            True,
        )
        for s in plan.shards
    ]


def _folded(metrics: ReplayMetrics) -> dict:
    summary = metrics.summary()
    return {k: summary[k] for k in FOLDED_FIELDS}


class TracedRun:
    """Layer timings of one workload; :meth:`repeat` adds one sample."""

    def __init__(self, setup: Setup) -> None:
        self.setup = setup
        self.spans = SpanLog(setup.workload.name)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.counts: Dict[str, float] = {}
        self.layer_names: List[str] = []
        self.keep_calls = True
        self.attempted = self.failed = 0
        self.problems: List[str] = []
        self._first: Dict[str, str] = {}

    def fail(self, where: str, problems: List[str]) -> None:
        """Record one operation's problems; any at all fail it."""
        self.failed += bool(problems)
        self.problems.extend(f"{where}: {p}" for p in problems)

    def set_up_layers(self) -> None:
        """Time the footprint scan of the trace layer."""
        setup = self.setup
        self.spans.policy = ""
        with timed() as took, self.spans.span("traces.footprint"):
            written_footprint(setup.trace)
        self.samples["traces.footprint_s"].append(took[0])
        self.counts["traces.requests"] = len(setup.trace)
        self.counts["traces.pages"] = setup.pages

    def repeat(self, pinned) -> None:
        for policy in POLICIES:
            self.spans.policy = policy
            if self.setup.workload.sharded:
                self._sharded(policy, pinned)
            else:
                self._full(policy, pinned)
        self.keep_calls = False

    def _check_reference(self, policy: str, metrics: ReplayMetrics, pinned) -> None:
        self.attempted += 1
        self.fail(
            f"{policy} end-to-end",
            replay_problems(metrics, self.setup, policy, pinned, self._first)
            + intent_problems(self.setup, metrics),
        )

    def _full(self, policy: str, pinned) -> None:
        setup, spans, s = self.setup, self.spans, self.samples
        gc.collect()
        mark = len(spans.rows)
        with spans.probing():
            with spans.span("sim.replay"):
                reference = replay(setup, policy)
            gc.collect()
            with spans.collector_spans():
                outcomes = _access_pass(setup, policy, spans)
                _controller_pass(setup, policy, outcomes, spans, traced=False)
                controller, ftl, records = _controller_pass(
                    setup, policy, outcomes, spans, traced=True
                )
                folded = _record_pass(setup, policy, records, spans)
        self._check_reference(policy, reference, pinned)
        self.attempted += 1
        rows = spans.rows[mark:]
        t = SpanTotals(rows)
        st = t.self_s
        if not self.keep_calls:
            spans.rows[mark:] = [r for r in rows if r[1] not in CALL_SPANS]
        e2e = t.under["sim.replay"]
        s[f"e2e.{policy}"].append(e2e)

        gc_stats = controller.gc.stats
        problems = []
        if _folded(folded) != _folded(reference):
            problems.append("layered replay does not reproduce the end-to-end summary")
        if controller.flash.total_programs != ftl.stats.host_programs + gc_stats.pages_migrated:
            problems.append("flash programs != host programs + GC migrations")
        if controller.flushed_pages != reference.host_flush_pages:
            problems.append("layered replay flushed a different page count")
        wa = controller.flash.total_programs / max(1, ftl.stats.host_programs)
        write_s = st["ssd.ftl.write_batch"] + st["ssd.gc.collect"]
        if setup.scale == setup.workload.scale:
            if setup.workload.name == "write-gc" and not wa > MIN_WRITE_GC_WA:
                problems.append(f"write amplification {wa:.3f} <= {MIN_WRITE_GC_WA}")
            if setup.workload.name == "read-hot" and write_s >= MAX_READ_HOT_WRITE_SHARE * e2e:
                problems.append(
                    f"FTL write + GC is {write_s / e2e:.1%} of replay time, "
                    f">= {MAX_READ_HOT_WRITE_SHARE:.0%}"
                )
        self.fail(f"{policy} layered", problems)

        # Submit time comes from the pass without call spans; the FTL
        # and GC shares of it from the pass with them.
        submit = st["ssd.controller.submit"]
        calls = st["ssd.ftl.write_batch"] + st["ssd.ftl.read_page"] + st["ssd.gc.collect"]
        passes = ("cache.access", "ssd.controller.submit", "sim.metrics.record")
        layers = {
            "cache.access_s": st["cache.access"],
            "ssd.controller.self_s": submit - calls,
            "ssd.ftl.write_batch_s": st["ssd.ftl.write_batch"],
            "ssd.ftl.read_s": st["ssd.ftl.read_page"],
            "ssd.gc.collect_s": st["ssd.gc.collect"],
            "sim.metrics.record_s": st["sim.metrics.record"],
            "python.gc_s": t.gc_in(*passes),
        }
        traced = t.under["cache.access"] + t.under[SUBMIT_TRACED] + t.under["sim.metrics.record"]
        self._add_layers(policy, layers, e2e, traced)
        s[f"ssd.controller.submit_s.{policy}"].append(submit)
        self._outcome_counts(policy, outcomes, reference)
        self.counts.update(
            {
                f"ssd.ftl.write_calls.{policy}": t.calls["ssd.ftl.write_batch"],
                f"ssd.ftl.host_programs.{policy}": ftl.stats.host_programs,
                f"ssd.ftl.write_amplification.{policy}": wa,
                f"ssd.gc.invocations.{policy}": gc_stats.invocations,
                f"ssd.gc.pages_migrated.{policy}": gc_stats.pages_migrated,
                f"ssd.gc.blocks_erased.{policy}": gc_stats.blocks_erased,
            }
        )

    def _sharded(self, policy: str, pinned) -> None:
        setup, spans, s = self.setup, self.spans, self.samples
        w = setup.workload
        gc.collect()
        # The fan-out runs in worker processes: probe at its ends only.
        with timed(sample=False) as took, spans.span("sim.replay"):
            reference = replay(setup, policy)
        self._check_reference(policy, reference, pinned)
        e2e = took[0]
        s[f"e2e.{policy}"].append(e2e)
        gc.collect()
        mark = len(spans.rows)
        with spans.probing(), spans.collector_spans():
            outcomes = _access_pass(setup, policy, spans)
            records = [RequestRecord(response_ms=0.0, outcome=o) for o in outcomes]
            _record_pass(setup, policy, records, spans)
            payloads = _segment_payloads(setup, policy)
            with spans.span("sim.parallel.pickle"):
                blob = pickle.dumps(payloads, protocol=pickle.HIGHEST_PROTOCOL)
            parts = []
            for name, requests, config, spec, _cache_only in payloads:
                with spans.span("sim.parallel.segment"):
                    parts.append(
                        replay_cache_only(
                            Trace(name, requests), replace(config, fault_seed=spec.seed)
                        )
                    )
            with spans.span("sim.parallel.merge"):
                merged = merge_metrics(parts)
        self.attempted += 1
        t = SpanTotals(spans.rows[mark:])
        st = t.self_s
        segments = t.durations("sim.parallel.segment")
        traced = sum(segments) + t.under["sim.parallel.merge"]

        merged.trace_name = setup.trace.name
        merged.policy_name = policy
        merged.cache_pages = reference.cache_pages
        problems = []
        if fingerprint(merged) != fingerprint(reference):
            problems.append("in-process segments do not reproduce the sharded replay")
        serial_total = sum(o.page_hits + o.page_misses for o in outcomes)
        if merged.pages.total != serial_total:
            problems.append(
                f"sharded page total {merged.pages.total} != serial {serial_total}"
            )
        self.fail(f"{policy} layered", problems)

        passes = ("cache.access", "sim.metrics.record", "sim.parallel.pickle",
                  "sim.parallel.merge")
        layers = {
            "cache.access_s": st["cache.access"],
            "sim.metrics.record_s": st["sim.metrics.record"],
            "sim.parallel.pickle_s": st["sim.parallel.pickle"],
            "sim.parallel.merge_s": st["sim.parallel.merge"],
            "python.gc_s": t.gc_in(*passes),
        }
        self._add_layers(policy, layers, e2e, traced)
        serial_hit = sum(o.page_hits for o in outcomes) / max(1, serial_total)
        s[f"sim.parallel.segment_replay_s_max.{policy}"].append(max(segments))
        s[f"sim.parallel.overhead_s.{policy}"].append(
            e2e - sum(segments) / w.jobs - st["sim.parallel.merge"]
        )
        self._outcome_counts(policy, outcomes, reference)
        self.counts["sim.parallel.payload_mb"] = len(blob) / 1e6
        self.counts[f"sim.parallel.hit_ratio_error.{policy}"] = abs(
            merged.hit_ratio - serial_hit
        )

    def _add_layers(self, policy, layers, e2e, traced) -> None:
        s = self.samples
        total = sum(layers.values())
        for name, value in layers.items():
            s[f"{name}.{policy}"].append(value)
        s[f"sim.replay.residual_s.{policy}"].append(e2e - total)
        s[f"sim.replay.layer_sum_ratio.{policy}"].append(total / e2e)
        s[f"traced.{policy}"].append(traced)
        self.layer_names = list(layers)

    def _outcome_counts(self, policy, outcomes, reference) -> None:
        batches = pages = 0
        for o in outcomes:
            for b in o.flushes:
                if b.lpns:
                    batches += 1
                    pages += len(b.lpns)
        self.counts.update(
            {
                f"cache.hit_ratio.{policy}": reference.hit_ratio,
                f"cache.evicted_pages.{policy}": pages,
                f"cache.flush_batches.{policy}": batches,
                f"sim.replay.mean_response_ms.{policy}": reference.mean_response_ms,
            }
        )

    def hottest(self, policy: str) -> "tuple[str, float]":
        """The layer with the largest median self time, and its share
        of the layer sum."""
        medians = {n: med(self.samples[f"{n}.{policy}"]) for n in self.layer_names}
        name = max(medians, key=medians.get)
        return name, medians[name] / (sum(medians.values()) or 1.0)

    def results(self) -> Dict[str, float]:
        """Median of every sampled layer metric, plus the counts."""
        out = {
            name: med(values)
            for name, values in self.samples.items()
            if not name.startswith(("e2e.", "traced.", "sim.parallel.pickle_s."))
        }
        pickles = [
            v
            for p in POLICIES
            for v in self.samples.get(f"sim.parallel.pickle_s.{p}", ())
        ]
        if pickles:
            out["sim.parallel.pickle_s"] = med(pickles)
        out.update(self.counts)
        traced = sum(med(self.samples[f"traced.{p}"]) for p in POLICIES)
        untraced = sum(med(self.samples[f"e2e.{p}"]) for p in POLICIES)
        out["trace_overhead"] = traced / untraced
        return out
