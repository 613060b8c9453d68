"""Shared fixtures and reporting helpers for the benchmark harness.

Each benchmark module regenerates one table or figure of the paper through
the drivers in :mod:`repro.experiments`, times it with pytest-benchmark and
asserts the qualitative shape the paper reports (who wins, by roughly how
much, where the corners fall).  A summary of paper-vs-measured values is
printed at the end of the run so `pytest benchmarks/ --benchmark-only` doubles
as the reproduction report.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable

import pytest

from repro.core.config import MixerDesign

#: Collected (experiment, quantity, paper value, measured value) rows,
#: printed in the terminal summary.
_REPORT_ROWS: list[tuple[str, str, str, str]] = []


def record_comparison(experiment: str, quantity: str, paper, measured) -> None:
    """Register one paper-vs-measured row for the end-of-run summary."""
    def fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.2f}"
        return str(value)

    _REPORT_ROWS.append((experiment, quantity, fmt(paper), fmt(measured)))


def median_pair_ratio(slow: Callable[[], object], fast: Callable[[], object],
                      pairs: int = 9) -> tuple[float, float, float]:
    """Speedup of ``fast`` over ``slow`` from interleaved timing pairs.

    Each pair times one ``slow`` and one ``fast`` call back to back, so a
    burst of load on a shared host hits both sides of that pair; the median
    of the per-pair ratios then discards the pairs a burst split.  Returns
    ``(median ratio, median slow s, median fast s)``.
    """
    ratios, slow_times, fast_times = [], [], []
    for _ in range(pairs):
        start = time.perf_counter()
        slow()
        slow_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        fast()
        fast_times.append(time.perf_counter() - start)
        ratios.append(slow_times[-1] / fast_times[-1])
    return (statistics.median(ratios), statistics.median(slow_times),
            statistics.median(fast_times))


@pytest.fixture(scope="session")
def design() -> MixerDesign:
    """The default design point shared by every benchmark."""
    return MixerDesign()


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    """Print the paper-vs-measured table after the benchmark run."""
    if not _REPORT_ROWS:
        return
    terminalreporter.write_sep("=", "paper vs measured (reproduction summary)")
    header = ("experiment", "quantity", "paper", "measured")
    widths = [max(len(str(row[i])) for row in [header] + _REPORT_ROWS)
              for i in range(4)]
    lines = [header] + _REPORT_ROWS
    for row in lines:
        terminalreporter.write_line(
            "  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)))
