"""Benchmark: batched digital-IF quantization vs the per-width scalar loop.

The acceptance bar from the digital-backend work: on the canonical ADC
bit-width grid the broadcast quantizer path (one
:func:`~repro.digital.engine.evaluate_digital` pass over every width) must
be **bit-identical** to evaluating each width alone and at least **3x**
faster than that scalar loop, and a warm digital cache must serve a re-run
with **zero quantization passes** (the counterpart of the waveform cache's
zero-FFT bar).

Both sides are timed on the same pre-tapped analog block (mixer built,
sizing solved, waveform evaluated), so the comparison isolates what the
vectorized backend actually changes: the broadcast quantize/mix/CIC over
the bits axis and the NCO/LO/float-reference work shared across widths.
"""

from __future__ import annotations

import numpy as np

from conftest import median_pair_ratio, record_comparison

from repro.core.config import MixerMode
from repro.digital import (
    DigitalIfRunner,
    digital_if_plan,
    digital_pass_count,
    evaluate_digital,
)

MODES = (MixerMode.ACTIVE, MixerMode.PASSIVE)

#: Interleaved scalar/batched timing pairs behind the speedup gate.  The
#: batched side is ~1-2 ms, so one pair is at the mercy of scheduler noise;
#: the median ratio over many pairs is not.
TIMING_PAIRS = 11


def test_bench_digital_if_grid(benchmark, design) -> None:
    """Track the full digital_if cell evaluation in the trajectory."""
    plan = digital_if_plan()
    runner = DigitalIfRunner(design)
    runner.run(plan, modes=MODES)  # warm the mixer/sizing/tap memoization
    result = benchmark(runner.run, plan, modes=MODES)
    assert result.shape == (1, len(MODES), len(plan.adc_bits))


def test_bench_digital_speedup_and_bit_identity(design) -> None:
    """The acceptance gate: rows bit-identical and the batch >= 3x faster."""
    plan = digital_if_plan()
    runner = DigitalIfRunner(design)
    block = runner.waveform.time_domain(plan.stimulus, MixerMode.ACTIVE)

    def scalar_loop():
        return [evaluate_digital(plan.with_adc_bits((width,)), block)
                for width in plan.adc_bits]

    batched = evaluate_digital(plan, block)
    for row, solo in enumerate(scalar_loop()):
        for measure in plan.measures:
            assert np.array_equal(batched[measure][row:row + 1],
                                  solo[measure]), (
                f"{measure} differs between the batched pass and the "
                f"{plan.adc_bits[row]}-bit solo evaluation")

    speedup, scalar_time, batched_time = median_pair_ratio(
        scalar_loop, lambda: evaluate_digital(plan, block), TIMING_PAIRS)
    record_comparison("digital", "batched speedup (ADC bit-width grid)",
                      ">= 3x", f"{speedup:.1f}x")
    assert speedup >= 3.0, (
        f"batched quantization only {speedup:.1f}x faster "
        f"(median of {TIMING_PAIRS} pairs; {scalar_time * 1e3:.2f} ms "
        f"scalar vs {batched_time * 1e3:.2f} ms batched)")


def test_bench_digital_warm_cache_zero_passes(design, tmp_path) -> None:
    """A warm digital cache must serve re-runs without re-quantizing."""
    plan = digital_if_plan()
    cold = DigitalIfRunner(design, cache=str(tmp_path))
    first = cold.run(plan, modes=MODES)
    assert cold.cache.stores == len(MODES)

    before = digital_pass_count()
    warm = DigitalIfRunner(design, cache=str(tmp_path))
    second = warm.run(plan, modes=MODES)
    assert digital_pass_count() == before, \
        "warm-cache digital run performed quantization passes"
    assert warm.cache.hits == len(MODES)
    for measure in plan.measures:
        assert np.array_equal(first.data[measure], second.data[measure])
