"""Fast self-test of the served-request benchmark harness.

Runs ``perfbench/run.py`` on ``cold_mix`` for one nominal second, which
sends the request floor every run has, and checks the harness itself:
every metric named in ``BENCHMARK.json`` is printed with its unit, the
traced per-layer self times fit inside the traced request wall time, and a
second seed changes the inputs but not the metric names.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]
try:
    from bench_workloads import MIN_REQUESTS, WORKLOADS, encode_request
finally:
    del sys.path[:2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = ["--workload", "cold_mix", "--seconds", "1"]


def run_bench(*args: str) -> tuple[list[str], dict]:
    process = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *TINY, *args], cwd=ROOT,
        capture_output=True, text=True, timeout=300)
    assert process.returncode == 0, process.stderr[-4000:]
    lines = process.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def untraced() -> tuple[list[str], dict]:
    return run_bench("--seed", "1", "--trace", "0")


@pytest.fixture(scope="module")
def traced() -> tuple[list[str], dict]:
    return run_bench("--seed", "2", "--trace", "1")


def assert_reports(run: tuple[list[str], dict], section: str) -> None:
    lines, result = run
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (MIN_REQUESTS, 0)
    expected = {metric["name"]: metric["unit"] for metric in SPEC[section]}
    assert {name: entry["unit"] for name, entry
            in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1]
               if line.split()}
    for name, unit in expected.items():
        assert printed.get(name) == unit, name


def test_every_end_to_end_metric_printed_with_unit(untraced) -> None:
    assert_reports(untraced, "end_to_end")
    report = "\n".join(untraced[0])
    assert f"timed requests: {MIN_REQUESTS} from 2 client(s); tail = p75.00" \
        in report
    assert "error_rate 0 ratio" in report
    assert "table1 pins ok" in report


def test_every_per_layer_metric_printed_with_unit(traced) -> None:
    assert_reports(traced, "per_layer")


def test_layer_self_times_fit_in_traced_wall_time(traced) -> None:
    metrics = traced[1]["metrics"]
    shares = [entry["value"] for name, entry in metrics.items()
              if name.endswith("_pct") and name != "trace.overhead_pct"]
    assert 0.0 < sum(shares) <= 100.0
    line = next(line for line in traced[0]
                if line.startswith("traced: layer self time"))
    words = line.split()
    assert 0.0 < float(words[4]) <= float(words[7])
    # The engine did real work: cold_mix requests all miss.
    assert metrics["core.sizing_solves"]["value"] > 0


def test_second_seed_changes_inputs_not_metric_names(untraced) -> None:
    def bodies(workload, seed: int) -> list[bytes]:
        inputs = workload.make_inputs(np.random.default_rng(seed), 8)
        return [encode_request(request) for request in inputs.timed]

    for workload in WORKLOADS.values():
        assert bodies(workload, 1) == bodies(workload, 1), workload.name
        assert bodies(workload, 1) != bodies(workload, 2), workload.name
    _, second = run_bench("--seed", "2", "--trace", "0")
    assert second["metrics"].keys() == untraced[1]["metrics"].keys()
