"""Benchmark: block-seeded Gm-stage intermediates vs the per-cell scalar path.

The intermediates-layer gate: on a 64-design Monte-Carlo population whose
widths are already solved, seeding the bias point and the Taylor memo of
both TCA configurations in one array pass
(:func:`~repro.core.reconfigurable_mixer.seed_gm_widths`) must land >= 3x
under the lazy scalar ``bias_point`` + ``taylor_coefficients()`` chain the
spec intermediates would otherwise run cell by cell — with **bit-identical**
results, which is what lets both engines' pre-sizing pass seed them without
moving a golden pin.

Sizing is excluded from both sides (every mixer starts from the same solved
widths), so the ratio isolates the layer the block seeding replaces.  The
timing gate is the median of interleaved scalar/batched pairs and is
skipped in smoke mode (``--benchmark-disable``); the bitwise assertions
always run.  The calibrated ``benchmark``-fixture case feeds the nightly
``BENCH_<run>.json`` trajectory (the ``sizing`` suite in ``bench.yml``).
"""

from __future__ import annotations

import numpy as np

from conftest import median_pair_ratio, record_comparison

from repro.core.reconfigurable_mixer import ReconfigurableMixer, seed_gm_widths
from repro.core.transconductance import solve_widths
from repro.devices.mosfet import Mosfet
from repro.sweep import DeviceSpread, sample_design

#: Monte-Carlo population size for the speedup gate.
NUM_DESIGNS = 64

#: Interleaved scalar/batched timing pairs behind the gate's median.
TIMING_PAIRS = 7


def _smoke_mode(request) -> bool:
    return bool(request.config.getoption("--benchmark-disable"))


def _population(design, count: int = NUM_DESIGNS):
    rng = np.random.default_rng(20150902)
    return [sample_design(design, rng, DeviceSpread(), f"mc-{i:03d}")
            for i in range(count)]


def _stages(mixer: ReconfigurableMixer):
    return mixer._tca_active, mixer._tca_passive


def _scalar(records, widths) -> list[ReconfigurableMixer]:
    """Per-cell lazy path: seed the device only, then solve bias + Taylor."""
    mixers = [ReconfigurableMixer(record) for record in records]
    for mixer, width in zip(mixers, widths):
        active, passive = _stages(mixer)
        active.seed_device(Mosfet.nmos(float(width),
                                       mixer.design.gm_device_length,
                                       mixer.design.technology))
        for stage in (active, passive):
            stage.bias_point
            stage.taylor_coefficients()
    return mixers


def _batched(records, widths) -> list[ReconfigurableMixer]:
    mixers = [ReconfigurableMixer(record) for record in records]
    seed_gm_widths(mixers, widths)
    return mixers


def test_bench_intermediates_block_speedup(design, request) -> None:
    """Block seeding >= 3x over per-cell scalar bias + Taylor, bitwise equal."""
    records = _population(design)
    widths = solve_widths(records)

    # The headline guarantee first: not one bit moves between the paths.
    for lazy, seeded in zip(_scalar(records, widths),
                            _batched(records, widths)):
        for lazy_stage, seeded_stage in zip(_stages(lazy), _stages(seeded)):
            assert seeded_stage.device.params == lazy_stage.device.params
            assert seeded_stage.bias_point == lazy_stage.bias_point
            assert seeded_stage.taylor_coefficients() == \
                lazy_stage.taylor_coefficients()

    if _smoke_mode(request):
        return  # timing below is meaningless under smoke settings
    speedup, scalar_time, batched_time = median_pair_ratio(
        lambda: _scalar(records, widths), lambda: _batched(records, widths),
        TIMING_PAIRS)
    record_comparison(
        "intermediates",
        f"block-seeded/per-cell bias+Taylor speedup ({NUM_DESIGNS}-design MC)",
        ">= 3x", f"{speedup:.1f}x")
    assert speedup >= 3.0, (
        f"block seeding only {speedup:.1f}x faster (median of "
        f"{TIMING_PAIRS} pairs; {scalar_time * 1e3:.1f} ms scalar vs "
        f"{batched_time * 1e3:.1f} ms batched)")


def test_bench_intermediates_block_calibrated(design, benchmark) -> None:
    """Calibrated block-seeding datapoint for the perf trajectory."""
    records = _population(design)
    widths = solve_widths(records)
    mixers = benchmark(_batched, records, widths)
    assert len(mixers) == NUM_DESIGNS
    assert all(mixer.gm_device_sized() for mixer in mixers)
