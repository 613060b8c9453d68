"""Benchmark: vectorized sweep engine vs the scalar per-point path.

The acceptance bar from the sweep-engine work: on a 500-point Fig. 8 RF
grid the vectorized :class:`~repro.sweep.runner.SweepRunner` must produce
arrays equal to the scalar accessor loop to <= 1e-9 and run at least 5x
faster.  Both paths are timed warm (mixers built, per-mode intermediates
memoized) so the comparison isolates the per-point Python overhead the
engine exists to remove, not the one-off device sizing both share.

The spec-fill gate times the runner's one spec block per mode against the
per-cell fill it replaced (``tests/percell_reference.py``) on 128 presized
Monte-Carlo designs with the default ``yield_opt`` specs: >= 3x on the
median of interleaved pairs, every spec array bitwise equal.  Sizing is
paid before timing on both sides, so the ratio isolates the fill.  The
timing is skipped in smoke mode (``--benchmark-disable``); the equality
assertion always runs.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

from conftest import median_pair_ratio, record_comparison

from repro.core.config import MixerMode
from repro.core.reconfigurable_mixer import ReconfigurableMixer
from repro.optimize.targets import default_targets
from repro.sweep import DeviceSpread, SweepRunner, sample_design

# The per-cell reference lives with the test suite, which also uses it.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from percell_reference import ReferenceRunner  # noqa: E402

GRID_POINTS = 500
IF_FREQUENCY = 5e6
MODES = (MixerMode.ACTIVE, MixerMode.PASSIVE)

#: Presized population and interleaved timing pairs of the spec-fill gate.
FILL_DESIGNS = 128
FILL_PAIRS = 7


def _grid() -> np.ndarray:
    return np.logspace(np.log10(0.3e9), np.log10(7e9), GRID_POINTS)


def _scalar_sweep(mixers: dict[MixerMode, ReconfigurableMixer],
                  frequencies: np.ndarray) -> dict[MixerMode, np.ndarray]:
    return {
        mode: np.array([mixers[mode].conversion_gain_db(f, IF_FREQUENCY)
                        for f in frequencies])
        for mode in MODES
    }


def _vectorized_sweep(runner: SweepRunner, frequencies: np.ndarray):
    return runner.run(rf_frequencies=frequencies,
                      if_frequencies=[IF_FREQUENCY], modes=MODES)


def _best_of(callable_, repeats: int = 5) -> float:
    """Best-of-N wall time (s); the minimum is the least noisy estimator."""
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_sweep_vectorized_fig8_grid(benchmark, design) -> None:
    """Track the vectorized Fig. 8 sweep in the perf trajectory."""
    frequencies = _grid()
    runner = SweepRunner(design, specs=("conversion_gain_db",))
    _vectorized_sweep(runner, frequencies)  # warm the mixer/intermediates
    sweep = benchmark(_vectorized_sweep, runner, frequencies)
    assert sweep.shape == (1, len(MODES), GRID_POINTS, 1)


def test_bench_sweep_speedup_and_equivalence(design) -> None:
    """The acceptance gate: <= 1e-9 agreement and >= 5x speedup, warm."""
    frequencies = _grid()
    runner = SweepRunner(design, specs=("conversion_gain_db",))
    mixers = {mode: ReconfigurableMixer(design, mode) for mode in MODES}

    # Warm both paths so sizing/bias/intermediates are paid up front.
    sweep = _vectorized_sweep(runner, frequencies)
    scalar = _scalar_sweep(mixers, frequencies)

    for mode in MODES:
        _, vectorized = sweep.curve("conversion_gain_db", "rf_frequency_hz",
                                    mode=mode)
        worst = float(np.max(np.abs(vectorized - scalar[mode])))
        assert worst <= 1e-9, f"{mode.value}: vectorized drifts by {worst}"

    scalar_time = _best_of(lambda: _scalar_sweep(mixers, frequencies))
    vector_time = _best_of(lambda: _vectorized_sweep(runner, frequencies))
    speedup = scalar_time / vector_time
    record_comparison("sweep", f"vectorized speedup ({GRID_POINTS}-pt fig8)",
                      ">= 5x", f"{speedup:.1f}x")
    assert speedup >= 5.0, (
        f"vectorized sweep only {speedup:.1f}x faster "
        f"({scalar_time * 1e3:.1f} ms scalar vs {vector_time * 1e3:.1f} ms)")


def _yield_opt_specs() -> tuple[str, ...]:
    return tuple(dict.fromkeys(target.spec for target in default_targets()))


def _refill(runner: SweepRunner, designs) -> dict[str, np.ndarray]:
    """Re-run a presized population's spec fill from empty memos."""
    for mixer in runner._mixers.values():
        mixer._intermediates.clear()
    return runner.run(modes=MODES, designs=designs).data


def test_bench_sweep_block_fill_speedup(design, request) -> None:
    """One spec block per mode >= 3x over the per-cell fill, bitwise equal."""
    rng = np.random.default_rng(20151014)
    designs = {f"mc-{i:03d}": sample_design(design, rng, DeviceSpread(),
                                            f"mc-{i:03d}")
               for i in range(FILL_DESIGNS)}
    specs = _yield_opt_specs()
    per_cell = ReferenceRunner(design, specs=specs)
    block = SweepRunner(design, specs=specs)
    for runner in (per_cell, block):
        runner.run(modes=MODES, designs=designs)  # size every design once

    expected, actual = _refill(per_cell, designs), _refill(block, designs)
    for spec in specs:
        assert actual[spec].tobytes() == expected[spec].tobytes(), spec

    if request.config.getoption("--benchmark-disable"):
        return  # timing below is meaningless under smoke settings
    speedup, per_cell_time, block_time = median_pair_ratio(
        lambda: _refill(per_cell, designs), lambda: _refill(block, designs),
        FILL_PAIRS)
    record_comparison(
        "sweep", f"block/per-cell spec fill speedup ({FILL_DESIGNS} designs)",
        ">= 3x", f"{speedup:.1f}x")
    assert speedup >= 3.0, (
        f"block spec fill only {speedup:.1f}x faster (median of "
        f"{FILL_PAIRS} pairs; {per_cell_time * 1e3:.1f} ms per-cell vs "
        f"{block_time * 1e3:.1f} ms block)")
