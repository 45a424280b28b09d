"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.traces.model import IORequest, OpType, Trace
from repro.traces.synthetic import SyntheticConfig, generate_trace


@pytest.fixture(autouse=True)
def _runs_dir_tmp(tmp_path, monkeypatch):
    """Point the run ledger at a per-test directory.

    CLI invocations inside tests would otherwise litter the repository
    working directory with ``runs/<run_id>/`` entries.
    """
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="Rewrite golden metric fixtures with the current results "
        "instead of comparing against them.",
    )


@pytest.fixture
def no_process_start(monkeypatch):
    """Fail the test if anything starts a ``multiprocessing`` process."""

    def _refuse(process) -> None:
        pytest.fail(f"started a worker process: {process!r}")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", _refuse)


@pytest.fixture
def update_golden(request) -> bool:
    """Whether the run should rewrite golden fixtures (--update-golden)."""
    return bool(request.config.getoption("--update-golden"))


def W(lpn: int, npages: int = 1, t: float = 0.0) -> IORequest:
    """Shorthand write request."""
    return IORequest(time=t, op=OpType.WRITE, lpn=lpn, npages=npages)


def R(lpn: int, npages: int = 1, t: float = 0.0) -> IORequest:
    """Shorthand read request."""
    return IORequest(time=t, op=OpType.READ, lpn=lpn, npages=npages)


def make_trace(requests, name: str = "test") -> Trace:
    """Build a trace, auto-assigning increasing times when all zero."""
    reqs = []
    for i, r in enumerate(requests):
        if r.time == 0.0 and i > 0:
            r = IORequest(time=float(i), op=r.op, lpn=r.lpn, npages=r.npages)
        reqs.append(r)
    return Trace(name, reqs)


@pytest.fixture
def tiny_config() -> SyntheticConfig:
    """A small, fast synthetic workload with realistic structure."""
    return SyntheticConfig(
        name="tiny",
        n_requests=4000,
        seed=42,
        write_ratio=0.7,
        small_write_fraction=0.6,
        small_size_mean=2.0,
        small_size_max=4,
        large_size_mean=10.0,
        large_size_max=48,
        n_hot_slots=64,
        zipf_theta=1.1,
        large_span_pages=8000,
        target_pages_per_ms=4.5,
    )


@pytest.fixture
def tiny_trace(tiny_config) -> Trace:
    return generate_trace(tiny_config)
