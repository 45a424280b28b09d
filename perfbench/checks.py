"""Correctness checks on every replay the benchmark times.

A speed-only change must leave every simulated statistic identical, so
each replay is checked three ways:

* against the summary and eviction digest pinned in ``expected.json``
  for the workload's calibrated seed and scale;
* against the first repeat of the same policy in the same run;
* against conservation laws that hold on any seed: flash programs =
  host flushes + GC migrations, page hits + misses = requested pages
  (which also makes sharded page totals equal the serial ones), and no
  replay aborted.

The workload-intent checks fail a run whose inputs no longer do what
the workload is for.  A failed check is a failed operation, never a
number.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from repro.sim.metrics import ReplayMetrics
from repro.ssd.controller import SSDController

EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: ``write-gc`` must make GC relocate live pages.
MIN_WRITE_GC_WA = 1.05
#: ``read-hot`` must be read-dominated ...
MIN_READ_HOT_READS = 0.90
#: ... and leave FTL writes and GC nearly idle.
MAX_READ_HOT_WRITE_SHARE = 0.10


def fingerprint(metrics: ReplayMetrics) -> str:
    """Canonical text of a replay's simulated outcome."""
    return json.dumps(
        {"summary": metrics.summary(), "digest": metrics.eviction_digest},
        sort_keys=True,
    )


def load_expected() -> Dict[str, dict]:
    """The pinned fingerprints, keyed by workload name."""
    return json.loads(EXPECTED_PATH.read_text())


def pinned_for(
    expected: Dict[str, dict], workload: str, seed: int, scale: float
) -> Optional[Dict[str, str]]:
    """Per-policy pinned fingerprints when (seed, scale) match the pin."""
    pin = expected.get(workload)
    if pin is None or pin["seed"] != seed or pin["scale"] != scale:
        return None
    return {p: json.dumps(fp, sort_keys=True) for p, fp in pin["policies"].items()}


def replay_problems(
    metrics: ReplayMetrics,
    setup,
    policy: str,
    pinned: Optional[Dict[str, str]],
    first: Dict[str, str],
) -> List[str]:
    """Everything wrong with one replay (empty when it is correct).

    ``first`` maps policy -> fingerprint of the run's first repeat and
    is filled in by the first call for each policy.
    """
    problems = []
    if metrics.aborted:
        problems.append(f"replay aborted: {metrics.aborted_reason}")
    if metrics.n_requests != len(setup.trace):
        problems.append(
            f"{metrics.n_requests} requests recorded, trace has {len(setup.trace)}"
        )
    if metrics.pages.total != setup.pages:
        problems.append(
            f"hits + misses = {metrics.pages.total} pages, "
            f"requests cover {setup.pages}"
        )
    if metrics.flash_total_writes != metrics.host_flush_pages + metrics.gc_migrated_pages:
        problems.append(
            f"flash programs {metrics.flash_total_writes} != host flushes "
            f"{metrics.host_flush_pages} + GC migrations {metrics.gc_migrated_pages}"
        )
    fp = fingerprint(metrics)
    if pinned is not None and fp != pinned.get(policy):
        problems.append("summary or eviction digest differs from expected.json")
    if first.setdefault(policy, fp) != fp:
        problems.append("summary or eviction digest differs from the first repeat")
    return problems


def intent_problems(setup, metrics: ReplayMetrics) -> List[str]:
    """Drift of the workload away from the layer it is meant to stress.

    Checked at the workload's own scale only: a tiny self-test trace
    cannot fill the device or the cache.
    """
    w = setup.workload
    if setup.scale != w.scale:
        return []
    problems = []
    if w.name == "write-gc":
        wa = metrics.flash_total_writes / max(1, metrics.host_flush_pages)
        if not wa > MIN_WRITE_GC_WA:
            problems.append(
                f"write amplification {wa:.3f} <= {MIN_WRITE_GC_WA}: GC "
                "no longer relocates live pages"
            )
    if w.name == "read-hot":
        share = setup.reads / len(setup.trace)
        if share < MIN_READ_HOT_READS:
            problems.append(f"reads are {share:.1%} of requests, < {MIN_READ_HOT_READS:.0%}")
    return problems


@contextmanager
def forbid_ssd_controller() -> Iterator[None]:
    """Make every ``SSDController`` construction raise while active.

    Shard workers fork from this process, so the guard reaches them
    too; a worker that trips it fails its shard and the replay.
    """
    real_init = SSDController.__init__

    def refuse(self, *args, **kwargs):
        raise RuntimeError("cache-only workload constructed an SSDController")

    SSDController.__init__ = refuse
    try:
        yield
    finally:
        SSDController.__init__ = real_init
