"""Tests for the shared experiment plumbing."""

from __future__ import annotations

import argparse

import pytest

from repro.experiments.common import (
    ExperimentSettings,
    add_standard_args,
    run_grid,
    settings_from_args,
)
from repro.traces.workloads import WORKLOAD_ORDER


class TestSettings:
    def test_defaults(self):
        s = ExperimentSettings()
        assert s.workloads == list(WORKLOAD_ORDER)
        assert s.cache_sizes_mb == [16, 32, 64]
        assert s.out is print

    def test_cache_bytes_scales(self):
        s = ExperimentSettings(scale=0.5)
        assert s.cache_bytes(16) == 8 * 1024 * 1024

    def test_quiet_copy(self):
        captured = []
        s = ExperimentSettings(out=captured.append)
        q = s.quiet()
        q.out("nothing")
        assert captured == []
        assert q.scale == s.scale
        # The original is untouched.
        s.out("hello")
        assert captured == ["hello"]


class TestArgparseHelpers:
    def test_roundtrip(self):
        parser = argparse.ArgumentParser()
        add_standard_args(parser)
        args = parser.parse_args(
            ["--scale", "0.25", "--workloads", "hm_1", "ts_0", "--processes", "1"]
        )
        s = settings_from_args(args)
        assert s.scale == 0.25
        assert s.workloads == ["hm_1", "ts_0"]
        assert s.processes == 1

    @pytest.mark.parametrize(
        "argv", [["--jobs", "0"], ["-j", "-2"], ["--processes", "0"]]
    )
    def test_rejects_nonpositive_worker_count(self, argv, capsys):
        parser = argparse.ArgumentParser()
        add_standard_args(parser)
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    def test_rejects_unknown_workload(self):
        parser = argparse.ArgumentParser()
        add_standard_args(parser)
        with pytest.raises(SystemExit):
            parser.parse_args(["--workloads", "nope"])


class TestRunGrid:
    def test_keys_cover_cross_product(self):
        captured = []
        s = ExperimentSettings(
            scale=1 / 512,
            workloads=["ts_0"],
            cache_sizes_mb=[16, 32],
            processes=1,
            out=captured.append,
        )
        grid = run_grid(s, ["lru", "reqblock"], cache_only=True)
        assert set(grid) == {
            ("ts_0", 16, "lru"),
            ("ts_0", 16, "reqblock"),
            ("ts_0", 32, "lru"),
            ("ts_0", 32, "reqblock"),
        }

    def test_policy_kwargs_routed(self):
        s = ExperimentSettings(
            scale=1 / 512, workloads=["src1_2"], cache_sizes_mb=[16], processes=1
        )
        plain = run_grid(s, ["reqblock"], cache_only=True)
        tuned = run_grid(
            s,
            ["reqblock"],
            policy_kwargs={"reqblock": {"delta": 1}},
            cache_only=True,
        )
        assert (
            plain[("src1_2", 16, "reqblock")].hit_ratio
            != tuned[("src1_2", 16, "reqblock")].hit_ratio
        )


class TestPaperReference:
    def test_table2_covers_all_workloads(self):
        from repro.experiments.paper_reference import TABLE2
        from repro.traces.workloads import WORKLOAD_ORDER

        assert set(TABLE2) == set(WORKLOAD_ORDER)

    def test_reference_ratios_are_fractions(self):
        from repro.experiments import paper_reference as ref

        for d in (
            ref.AVG_RESPONSE_REDUCTION_VS,
            ref.AVG_HIT_IMPROVEMENT_VS,
            ref.AVG_WRITE_REDUCTION_VS,
            ref.SPACE_OVERHEAD_PCT,
        ):
            for v in d.values():
                assert 0.0 < v < 1.0

    def test_fig3_band_ordered(self):
        from repro.experiments.paper_reference import FIG3_LARGE_REHIT_RANGE

        lo, hi = FIG3_LARGE_REHIT_RANGE
        assert 0.0 < lo < hi < 1.0
