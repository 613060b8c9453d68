"""Benchmark: batched array sizing solver vs the scalar bisection loop.

The cold-cache population gate from the batched-solver work: sizing a
>= 64-design Monte-Carlo population through one
:func:`~repro.core.transconductance.solve_widths` call must land >= 3x
under the equivalent loop of scalar
:meth:`TransconductanceAmplifier._size_device` solves — with **bit-identical**
widths, which is the contract that lets the sweep and waveform engines
pre-size design blocks without moving a single golden pin.

A second gate times :func:`solve_widths` against the plain batched
algorithm it replaced (:func:`_reference_solve_widths`: 80 full width steps,
every bias solve from scratch) on a 128-design block: skipping the steps
that cannot change a bit must make it >= 1.6x faster, widths again
bit-identical.

The run is forced cold (``REPRO_SWEEP_CACHE=off``): the on-disk cache
exists precisely to skip these bisections, so the solver comparison must
not let a warm cache answer for either side.  The timing gate is skipped
in smoke mode (``--benchmark-disable``); the equality assertions always
run.  The calibrated ``benchmark``-fixture case feeds the nightly
``BENCH_<run>.json`` trajectory (the ``sizing`` suite in ``bench.yml``).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import median_pair_ratio, record_comparison

from repro.core.transconductance import (
    TransconductanceAmplifier,
    batched_sizing_solve_count,
    solve_widths,
)
from repro.devices.mosfet import MosfetArray
from repro.sweep import DeviceSpread, sample_design

#: Monte-Carlo population size for the speedup gate (>= 64 per the issue).
NUM_DESIGNS = 64

#: Block size and interleaved timing pairs of the resumed-bisection gate.
RESUME_DESIGNS = 128
RESUME_PAIRS = 7


def _smoke_mode(request) -> bool:
    return bool(request.config.getoption("--benchmark-disable"))


def _population(design, count: int = NUM_DESIGNS):
    rng = np.random.default_rng(20150901)
    return [sample_design(design, rng, DeviceSpread(), f"mc-{i:03d}")
            for i in range(count)]


def _reference_solve_widths(records) -> np.ndarray:
    """The plain batched width solve: 80 steps, bias solves from scratch."""
    lengths = np.array([r.gm_device_length for r in records])
    targets = np.array([r.tca_gm for r in records])
    bias = np.array([r.tca_bias_current / 2.0 for r in records])
    vds = np.array([r.technology.mid_rail for r in records])
    lo = np.full(len(records), 2e-6)
    hi = np.full(len(records), 2000e-6)
    bank = MosfetArray.nmos(hi, lengths, [r.technology for r in records])

    def gm_at_widths(widths: np.ndarray) -> np.ndarray:
        sized = bank.with_widths(widths)
        return sized.operating_point(sized.vgs_for_current(bias, vds), vds).gm

    assert np.all(gm_at_widths(hi) >= targets)
    for _ in range(80):
        mid = np.sqrt(lo * hi)
        below = gm_at_widths(mid) < targets
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return np.sqrt(lo * hi)


def _scalar_widths(records) -> np.ndarray:
    return np.array([TransconductanceAmplifier(record).device.params.width
                     for record in records])


def test_bench_sizing_population_speedup(design, request,
                                         monkeypatch) -> None:
    """Cold-cache gate: one batched solve >= 3x over the scalar loop."""
    monkeypatch.setenv("REPRO_SWEEP_CACHE", "off")
    records = _population(design)

    start = time.perf_counter()
    scalar = _scalar_widths(records)
    scalar_time = time.perf_counter() - start

    batches = batched_sizing_solve_count()
    start = time.perf_counter()
    batched = solve_widths(records)
    batched_time = time.perf_counter() - start
    assert batched_sizing_solve_count() == batches + 1

    # The headline guarantee first: not one bit moves between the solvers.
    assert np.array_equal(batched, scalar)

    if _smoke_mode(request):
        return  # timing below is meaningless under smoke settings
    speedup = scalar_time / batched_time
    record_comparison(
        "sizing", f"batched/scalar solve speedup ({NUM_DESIGNS}-design MC)",
        ">= 3x", f"{speedup:.1f}x")
    assert speedup >= 3.0, (
        f"batched sizing only {speedup:.1f}x faster "
        f"({scalar_time * 1e3:.0f} ms scalar vs "
        f"{batched_time * 1e3:.0f} ms batched)")


def test_bench_sizing_batched_calibrated(design, benchmark,
                                         monkeypatch) -> None:
    """Calibrated batched-solver datapoint for the perf trajectory."""
    monkeypatch.setenv("REPRO_SWEEP_CACHE", "off")
    records = _population(design)
    widths = benchmark(solve_widths, records)
    assert widths.shape == (NUM_DESIGNS,)
    assert np.all(widths > 0)


def test_bench_sizing_resume_speedup(design, request, monkeypatch) -> None:
    """Resumed bisection >= 1.6x over the plain batched algorithm."""
    monkeypatch.setenv("REPRO_SWEEP_CACHE", "off")
    records = _population(design, RESUME_DESIGNS)
    assert solve_widths(records).tobytes() == \
        _reference_solve_widths(records).tobytes()

    if _smoke_mode(request):
        return
    speedup, plain_time, resumed_time = median_pair_ratio(
        lambda: _reference_solve_widths(records),
        lambda: solve_widths(records), RESUME_PAIRS)
    record_comparison(
        "sizing", f"resumed/plain bisection speedup ({RESUME_DESIGNS} designs)",
        ">= 1.6x", f"{speedup:.2f}x")
    assert speedup >= 1.6, (
        f"resumed sizing only {speedup:.2f}x faster (median of "
        f"{RESUME_PAIRS} pairs; {plain_time * 1e3:.1f} ms plain vs "
        f"{resumed_time * 1e3:.1f} ms resumed)")
