"""Layered replay benchmark for the Req-block SSD cache simulator.

Times complete replays of the four paper policies (LRU, BPLRU, VBBMS,
Req-block) on one workload and checks that every replay is correct.
All times are host time: what the simulator costs to run.  Simulated
statistics are not timed; they are pinned by the correctness checks.

Run from the root of a checkout::

    python3 perfbench/run.py --workload write-gc --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the layers one at a time (see ``layers.py``),
prints the per-layer metrics, the layer-sum reconciliation and the
hottest layer of each policy, and writes the spans to
``perfbench/out/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

``--pin`` replays every workload once at its calibrated seed and
rewrites ``expected.json``; do that only for a change that is meant to
alter simulated results.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path, or exit 2."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no simulator source under {ROOT / 'src'}\n")
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))


def _load_spec() -> dict:
    """Metric names, units and directions from ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_untraced(setup, seconds: float, pinned) -> dict:
    """Replay the four policies in rounds for about ``seconds``."""
    from checks import forbid_ssd_controller, intent_problems, replay_problems
    from hostspeed import timed
    from workloads import POLICIES, med, replay

    times = {p: [] for p in POLICIES}
    first: dict = {}
    problems = []
    attempted = failed = 0
    rounds = []
    start = time.perf_counter()
    guard = forbid_ssd_controller() if setup.workload.sharded else nullcontext()
    with guard:
        while True:
            r0 = time.perf_counter()
            # Rotate the order so no policy always runs first.
            shift = len(rounds) % len(POLICIES)
            for policy in POLICIES[shift:] + POLICIES[:shift]:
                gc.collect()
                with timed(sample=not setup.workload.sharded) as took:
                    try:
                        metrics = replay(setup, policy)
                    except Exception as exc:  # a failed replay is a failed operation
                        metrics, found = None, [f"{type(exc).__name__}: {exc}"]
                dt = took[0]
                attempted += 1
                if metrics is not None:
                    found = replay_problems(metrics, setup, policy, pinned, first)
                    found += intent_problems(setup, metrics)
                if found:
                    failed += 1
                    problems += [f"{policy}: {p}" for p in found]
                else:
                    times[policy].append(dt)
            rounds.append(time.perf_counter() - r0)
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * sum(rounds) / len(rounds) > seconds:
                break
    n = len(setup.trace)
    out = {"attempted": attempted, "failed": failed, "problems": problems}
    metrics = {}
    if all(times.values()):
        medians = {p: med(times[p]) for p in POLICIES}
        metrics["req_per_s"] = len(POLICIES) * n / sum(medians.values())
        for p in POLICIES:
            metrics[f"req_per_s.{p}"] = n / medians[p]
    out["metrics"] = metrics
    out["rounds"] = len(rounds)
    return out


def run_traced(setup, seconds: float, pinned) -> dict:
    """Layer-at-a-time repeats for about ``seconds``; medians reported."""
    from checks import forbid_ssd_controller
    from layers import TracedRun
    from workloads import POLICIES

    traced = TracedRun(setup)
    traced.set_up_layers()
    start = time.perf_counter()
    repeats = []
    guard = forbid_ssd_controller() if setup.workload.sharded else nullcontext()
    with guard:
        while True:
            r0 = time.perf_counter()
            try:
                traced.repeat(pinned)
            except Exception as exc:  # a failed replay is a failed operation
                traced.attempted += 1
                traced.fail("replay", [f"{type(exc).__name__}: {exc}"])
                break
            repeats.append(time.perf_counter() - r0)
            elapsed = time.perf_counter() - start
            if elapsed + sum(repeats) / len(repeats) > seconds:
                break
    complete = all(traced.samples[f"e2e.{p}"] for p in POLICIES) and traced.layer_names
    metrics = traced.results() if complete else {}
    hottest = {p: traced.hottest(p) for p in POLICIES} if complete else {}
    return {
        "attempted": traced.attempted,
        "failed": traced.failed,
        "problems": traced.problems,
        "metrics": metrics,
        "rounds": len(repeats),
        "hottest": hottest,
        "spans": traced.spans,
    }


def pin() -> None:
    """Replay every workload once at its calibrated seed; write the pins."""
    from checks import EXPECTED_PATH, forbid_ssd_controller
    from workloads import POLICIES, WORKLOADS, replay, set_up

    expected = {}
    for w in WORKLOADS.values():
        setup = set_up(w, w.default_seed, w.scale)
        policies = {}
        guard = forbid_ssd_controller() if w.sharded else nullcontext()
        with guard:
            for p in POLICIES:
                m = replay(setup, p)
                policies[p] = {"summary": m.summary(), "digest": m.eviction_digest}
        expected[w.name] = {"seed": w.default_seed, "scale": w.scale, "policies": policies}
        print(f"pinned {w.name}", flush=True)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="write-gc")
    parser.add_argument("--seed", type=int, default=None,
                        help="trace seed (default: the calibrated seed)")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=None,
                        help="trace scale (default: the workload's own)")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite expected.json and exit")
    args = parser.parse_args(argv)

    _import_program()
    spec = _load_spec()
    from checks import load_expected, pinned_for
    from workloads import WORKLOADS, med, timed_set_up

    if args.pin:
        pin()
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    seed = w.default_seed if args.seed is None else args.seed
    scale = w.scale if args.scale is None else args.scale

    setup, setup_times, generate_times = timed_set_up(w, seed, scale)
    pinned = pinned_for(load_expected(), w.name, seed, scale)
    if args.trace:
        run = run_traced(setup, args.seconds, pinned)
        if run["metrics"]:
            run["metrics"]["traces.generate_s"] = med(generate_times)
    else:
        run = run_untraced(setup, args.seconds, pinned)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = dict(run["metrics"])
    if not args.trace and values:
        values["setup_s"] = med(setup_times)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    complete = bool(values)
    metrics = {}
    for m in declared:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        elif args.trace and complete:
            # A layer this workload does not touch (no FTL on the
            # cache-only workload, no fan-out on the serial ones).
            metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}

    print(f"workload {w.name}: trace {w.trace} scale {scale:g} seed {seed} "
          f"requests {len(setup.trace)} pages {setup.pages} "
          f"rounds {run['rounds']} trace {args.trace}")
    for m in declared:
        if m["name"] in metrics:
            print(f"  {m['name']:<44} {metrics[m['name']]['value']:>14.6g} "
                  f"{m['unit']:<6} {m['better']} is better")
    for policy, (layer, share) in run.get("hottest", {}).items():
        print(f"  hottest layer [{w.name}/{policy}]: {layer} ({share:.0%} of layer sum)")
    for problem in run["problems"]:
        print(f"FAILED {w.name} seed {seed}: {problem}", file=sys.stderr)
    if args.trace:
        run["spans"].write(
            OUT_DIR / f"spans-{w.name}.jsonl",
            {"workload": w.name, "seed": seed, "scale": scale, "metrics": values},
        )
    result = {
        "correct": run["failed"] == 0 and complete,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
