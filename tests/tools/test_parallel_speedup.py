"""Tests for the serial-vs-parallel grid timer (tools/parallel_speedup.py).

The grids themselves take minutes; these cases pin the summary
arithmetic and the report lines from given pass times (the quartiles
are ``perf_ab.quartiles``, tested with that tool).
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[2] / "tools"

# Run as a script, the tool finds perf_ab.py in its own directory.
if str(TOOLS) not in sys.path:
    sys.path.append(str(TOOLS))
_SPEC = importlib.util.spec_from_file_location(
    "parallel_speedup", TOOLS / "parallel_speedup.py"
)
parallel_speedup = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(parallel_speedup)


class TestReportLines:
    def test_one_pass_keeps_the_single_pass_line(self):
        assert parallel_speedup.report_lines("fig8", 2, [40.0], [20.0]) == [
            "fig8: serial 40.0s, parallel 20.0s (2 jobs) -> 2.00x"
        ]

    def test_repeats_report_every_pass_and_the_ratio_of_medians(self):
        serial = [36.0, 52.0, 40.0]
        parallel = [20.0, 25.0, 18.0]
        passes, summary = parallel_speedup.report_lines("fig9", 2, serial, parallel)
        assert passes == "fig9 passes: serial 36.0 52.0 40.0; parallel 20.0 25.0 18.0"
        # Medians 40.0 and 20.0; quartiles by linear interpolation.
        assert summary == (
            "fig9: serial 40.0s [38.0, 46.0], parallel 20.0s [19.0, 22.5] "
            "(2 jobs, 3 alternating passes) -> 2.00x (ratio of medians)"
        )

    def test_speedup_is_not_the_median_of_per_pass_ratios(self):
        # Per-pass ratios 4.0, 1.0, 0.75 have median 1.0; the medians'
        # ratio is 30 / 20.
        serial = [40.0, 30.0, 15.0]
        parallel = [10.0, 30.0, 20.0]
        summary = parallel_speedup.report_lines("fig8", 4, serial, parallel)[1]
        assert summary.endswith("-> 1.50x (ratio of medians)")

    def test_zero_parallel_time_reads_zero_speedup(self):
        assert parallel_speedup.report_lines("fig8", 2, [1.0], [0.0]) == [
            "fig8: serial 1.0s, parallel 0.0s (2 jobs) -> 0.00x"
        ]


def test_non_positive_repeats_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        parallel_speedup.main(["--repeats", "0"])
    assert exc.value.code == 2
    assert "--repeats must be >= 1" in capsys.readouterr().err
