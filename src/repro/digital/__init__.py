"""Quantized digital-IF backend for the reconfigurable-mixer testbench.

The paper's mixer feeds a sampled receiver: its IF output gets digitized
and down-converted to baseband in fixed point.  This package models that
digital back end — ADC, NCO mixer, CIC decimator — as exact integer array
maths riding the same sweep architecture as the analog benches:

* :mod:`repro.digital.blocks` — the fixed-point primitives (mid-rise
  quantizer, phase-accumulator NCO with quantized LO lookup, guard-bit
  complex mixer, exact modulo-arithmetic CIC) plus their per-sample
  reference twins and float companions;
* :mod:`repro.digital.plan` — :class:`DigitalIfPlan`, the frozen,
  content-hashed description of one digital bench (the embedded analog
  stimulus plus every bit width and the CIC shape) with the
  :func:`digital_if_plan` constructor;
* :mod:`repro.digital.engine` — :func:`evaluate_digital` (one vectorized
  pass evaluating **every ADC bit width at once**) and
  :class:`DigitalIfRunner`, which lifts it onto labelled design x mode x
  bits grids over the waveform engine's time-domain tap;
  :func:`digital_pass_count` instruments the passes;
* :mod:`repro.digital.result` — :class:`DigitalResult`, a
  :class:`~repro.sweep.result.SweepResult` subclass over design x mode x
  :data:`~repro.digital.result.BITS_AXIS`;
* :mod:`repro.digital.cache` — :class:`DigitalIfCache`, the
  content-addressed on-disk codec keyed on design fingerprint + mode +
  digital plan hash: warm re-runs perform zero quantization passes.

Design-axis sharding is the shared
:class:`~repro.sweep.parallel.ShardedRunner`:
``make_runner(design, workers=N, engine=DigitalIfRunner)`` returns one,
with bit-identical stitched results.

The ``digital_if`` and ``bits_floor`` experiment drivers
(:mod:`repro.experiments`) and the ``digital_snr_db`` yield-optimizer
target (:mod:`repro.optimize`) are thin layers over this package.
"""

from repro.digital.blocks import (
    cic_decimate,
    cic_decimate_float,
    cic_decimate_reference,
    cic_growth_bits,
    float_lo,
    mix_complex,
    nco_lo_codes,
    nco_phases,
    nco_phases_reference,
    phase_increment,
    quantize_midrise,
    quantize_midrise_reference,
    round_shift,
    wrap_to_width,
)
from repro.digital.cache import DIGITAL_CACHE_VERSION, DigitalIfCache
from repro.digital.engine import (
    DigitalIfRunner,
    digital_pass_count,
    evaluate_digital,
)
from repro.digital.plan import (
    DEFAULT_ADC_FULL_SCALE,
    DIGITAL_MEASURES,
    DIGITAL_PLAN_VERSION,
    DigitalIfPlan,
    digital_if_plan,
)
from repro.digital.result import BITS_AXIS, DigitalResult

__all__ = [
    "BITS_AXIS",
    "DEFAULT_ADC_FULL_SCALE",
    "DIGITAL_CACHE_VERSION",
    "DIGITAL_MEASURES",
    "DIGITAL_PLAN_VERSION",
    "DigitalIfCache",
    "DigitalIfPlan",
    "DigitalIfRunner",
    "DigitalResult",
    "cic_decimate",
    "cic_decimate_float",
    "cic_decimate_reference",
    "cic_growth_bits",
    "digital_if_plan",
    "digital_pass_count",
    "evaluate_digital",
    "float_lo",
    "mix_complex",
    "nco_lo_codes",
    "nco_phases",
    "nco_phases_reference",
    "phase_increment",
    "quantize_midrise",
    "quantize_midrise_reference",
    "round_shift",
    "wrap_to_width",
]
