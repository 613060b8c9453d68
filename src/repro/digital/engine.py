"""The quantized digital-IF engine: ADC -> NCO mix -> CIC, batched over bits.

:func:`evaluate_digital` runs one :class:`~repro.digital.plan.DigitalIfPlan`
against one tapped IF sample block (from
:meth:`~repro.waveform.engine.WaveformRunner.time_domain`) as pure NumPy
array maths — no per-sample Python loop anywhere:

* the analog record is subsampled to the ADC rate and tiled ``records + 1``
  times (the first copy is CIC warm-up, discarded after decimation, so the
  analysed window is pure decimator steady state);
* the mid-rise quantizer broadcasts a ``(bits, 1)`` width column against
  the sample row, so **every ADC resolution in the sweep quantizes in one
  vectorized pass** — the whole bit-width axis costs one evaluation, which
  is the efficiency argument for putting quantization on the sweep
  architecture at all;
* one NCO phase/LO-table computation and one CIC pass (exact modulo-2**64
  integer arithmetic, per-bits register widths broadcast) serve every
  resolution simultaneously;
* the float reference chain — the same tiled volts through an ideal
  full-precision LO and a float CIC — runs alongside, yielding the
  ``float_error_peak`` convergence measure directly.

:class:`DigitalIfRunner` lifts this onto labelled **design x mode x ADC
bits** grids with the same memoization ladder as the other engines: analog
sample blocks memoized per cell inside the shared
:class:`~repro.waveform.engine.WaveformRunner`, measures per (design, mode,
digital plan) on disk (:mod:`repro.digital.cache`), and design-axis
sharding across processes (:class:`~repro.sweep.parallel.ShardedRunner`).

Every quantization pass bumps a module-level counter
(:func:`digital_pass_count`), the instrument behind the warm-cache "zero
re-quantization passes" gate in ``benchmarks/test_bench_digital.py`` — the
digital twin of ``waveform_fft_count()``.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import MixerDesign
from repro.digital.blocks import (
    cic_decimate,
    cic_decimate_float,
    float_lo,
    mix_complex,
    nco_lo_codes,
    nco_phases,
    quantize_midrise,
    round_shift,
    wrap_to_width,
)
from repro.digital.cache import DigitalIfCache
from repro.digital.plan import DigitalIfPlan
from repro.digital.result import BITS_AXIS, DigitalResult
from repro.sweep.grid import SweepAxis
from repro.units import dbm_from_vrms
from repro.waveform.engine import WaveformRunner

#: Process-wide count of batched quantization passes (see digital_pass_count).
_DIGITAL_EVALS = 0


def digital_pass_count() -> int:
    """How many batched quantization passes this process has performed.

    One unit covers a whole ADC bit-width sweep for one (design, mode,
    plan) cell — quantizer, NCO mix, CIC and the float reference.  A warm
    digital cache must leave this counter untouched.
    """
    return _DIGITAL_EVALS


def _with_log10(values: np.ndarray) -> np.ndarray:
    """``log10`` with empty powers reading ``-inf`` instead of warning."""
    with np.errstate(divide="ignore"):
        return np.log10(values)


def evaluate_digital(plan: DigitalIfPlan,
                     if_block: np.ndarray) -> dict[str, np.ndarray]:
    """Run one digital plan over a tapped IF block: the batched core.

    ``if_block`` is the analog-rate ``(1, num_samples)`` (or flat
    ``(num_samples,)``) differential IF voltage record from the waveform
    tap.  Returns one float array per measure in
    :data:`~repro.digital.plan.DIGITAL_MEASURES`, each with one entry per
    ADC bit width — all widths evaluated in a single vectorized pass.
    """
    global _DIGITAL_EVALS
    volts = np.asarray(if_block, dtype=float)
    if volts.ndim == 2:
        if volts.shape[0] != 1:
            raise ValueError("digital plans carry one input power; got a "
                             f"{volts.shape[0]}-row block")
        volts = volts[0]
    if volts.shape != (plan.stimulus.num_samples,):
        raise ValueError(
            f"IF block has {volts.shape[-1]} samples; the plan's analog "
            f"record holds {plan.stimulus.num_samples}")

    # ADC: subsample to the converter rate, tile one warm-up record plus
    # the steady-state window, quantize every bit width in one broadcast.
    adc_volts = np.tile(volts[::plan.adc_stride], plan.records + 1)
    bits_col = np.asarray(plan.adc_bits, dtype=np.int64)[:, None]
    codes = quantize_midrise(adc_volts[None, :], bits_col,
                             plan.adc_full_scale)

    # NCO + mixer: one phase sequence and LO table serve every width.
    total = adc_volts.shape[-1]
    phases = nco_phases(plan.phase_increment(), total, plan.phase_bits)
    lo_i, lo_q = nco_lo_codes(phases, plan.phase_bits, plan.table_bits,
                              plan.lo_bits)
    i_mix, q_mix, overflow = mix_complex(codes, lo_i[None, :], lo_q[None, :],
                                         bits_col, plan.lo_bits,
                                         plan.guard_bits)

    # CIC decimation at per-width register widths, then the output shift
    # into the common output register; the first record's worth of output
    # samples is decimator warm-up and dropped.
    width_col = bits_col + plan.guard_bits + plan.growth_bits
    decimation, stages = plan.cic_decimation, plan.cic_stages
    i_dec = cic_decimate(i_mix, decimation, stages, width_col)
    q_dec = cic_decimate(q_mix, decimation, stages, width_col)
    out_shift = np.maximum(width_col - plan.output_bits, 0)
    i_out = wrap_to_width(round_shift(i_dec, out_shift), plan.output_bits)
    q_out = wrap_to_width(round_shift(q_dec, out_shift), plan.output_bits)
    warmup = plan.warmup_samples
    i_out, q_out = i_out[:, warmup:], q_out[:, warmup:]

    # Volts-referred output: one LSB at the ADC is adc_full_scale*2/2**bits,
    # the mixer shifted out mix_shift LSBs of an LO scaled to 2**(lo-1)-1,
    # the CIC has DC gain decimation**stages, and out_shift dropped more.
    lsb = 2.0 * plan.adc_full_scale / np.exp2(bits_col.astype(float))
    scale = (lsb * np.exp2(float(plan.mix_shift))
             * np.exp2(out_shift.astype(float))
             / (float((1 << (plan.lo_bits - 1)) - 1)
                * float(decimation) ** stages))
    digital_volts = (i_out + 1j * q_out) * scale

    # Float reference: the identical tiled volts through a full-precision
    # unit-amplitude LO and a float CIC (normalised by the DC gain).
    reference = cic_decimate_float(adc_volts * float_lo(phases,
                                                       plan.phase_bits),
                                   decimation, stages)
    reference = reference[warmup:] / float(decimation) ** stages
    float_error = np.max(np.abs(digital_volts - reference[None, :]), axis=-1)

    # Spectrum measures over the steady-state window.  A real IF tone of
    # amplitude A lands at the signal bin with complex-baseband magnitude
    # A/2, so 2*|X_b| is the IF-referred peak amplitude.
    n_out = plan.output_samples
    spectrum = np.fft.fft(digital_volts, axis=-1) / n_out
    power = np.abs(spectrum) ** 2
    signal_power = power[:, plan.signal_bin]
    noise_power = np.sum(power, axis=-1) - signal_power
    full_scale = plan.adc_full_scale
    signal_dbfs = 10.0 * _with_log10(4.0 * signal_power / full_scale ** 2)
    noise_dbfs = 10.0 * _with_log10(4.0 * noise_power / full_scale ** 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        noise_dbm = np.where(
            noise_power > 0.0,
            dbm_from_vrms(np.sqrt(2.0 * noise_power)), -np.inf)
    _DIGITAL_EVALS += 1
    with np.errstate(invalid="ignore"):
        # Both levels at -inf (a fully truncated output) yields nan SNR.
        snr_db = signal_dbfs - noise_dbfs
    return {
        "snr_db": snr_db,
        "signal_dbfs": signal_dbfs,
        "noise_dbfs": noise_dbfs,
        "noise_dbm": noise_dbm,
        "float_error_peak": float_error,
        "overflow_fraction": np.asarray(overflow, dtype=float),
    }


class DigitalIfRunner:
    """Evaluates digital-IF benches over labelled design x mode x bits grids.

    The digital twin of :class:`~repro.waveform.engine.WaveformRunner`:

    Parameters
    ----------
    design:
        Baseline design record, used when :meth:`run` is not given an
        explicit design axis.
    cache:
        Optional on-disk cache of evaluated measures — ``None``/``False``
        (default, off), ``True`` (default directory), a directory path, a
        :class:`~repro.digital.cache.DigitalIfCache`, or a
        :class:`~repro.sweep.cache.SpecCache` /
        :class:`~repro.waveform.cache.WaveformCache` (their directory is
        shared).  With a warm cache a run performs zero quantization
        passes.
    waveform:
        Optional shared :class:`~repro.waveform.engine.WaveformRunner`
        supplying the analog sample blocks; passing the runner an
        experiment already holds re-uses its memoized mixers and taps.
    """

    #: Progress-frame stage of a sharded run of this engine.
    stage = "digital"

    def __init__(self, design: MixerDesign | None = None, cache=None,
                 waveform: WaveformRunner | None = None) -> None:
        self.design = design if design is not None else MixerDesign()
        self.cache = DigitalIfCache.resolve(cache)
        self._waveform = waveform if waveform is not None \
            else WaveformRunner(design=self.design)

    @property
    def waveform(self) -> WaveformRunner:
        """The analog engine supplying (and memoizing) the IF taps."""
        return self._waveform

    def run(self, plan: DigitalIfPlan,
            modes=None, designs=None) -> DigitalResult:
        """Evaluate ``plan`` for every (design, mode) cell of the grid.

        ``modes`` / ``designs`` follow :meth:`WaveformRunner.run`: omitted
        modes sweep both, omitted designs use the baseline as the one-point
        ``"nominal"`` axis.  Each cell is one batched quantization pass (or
        one cache hit) over a memoized analog tap; cells are independent,
        so per-design results are bit-identical whether a design runs alone
        or in a population — the property the batch API fan-out relies on.
        """
        if not isinstance(plan, DigitalIfPlan):
            raise TypeError("run() needs a DigitalIfPlan")
        design_axis, records = SweepAxis.design_axis(designs, self.design)
        mode_axis, members = SweepAxis.mode_axis(modes)
        bits_axis = SweepAxis.numeric(BITS_AXIS, plan.bits())

        shape = (len(design_axis), len(mode_axis), len(bits_axis))
        data = {measure: np.empty(shape, dtype=float)
                for measure in plan.measures}
        # Pass 1 — settle the cache: hits fill their cells directly, misses
        # queue so pending designs can be batch-sized before any analog
        # evaluation runs.
        pending: list[tuple[int, int, MixerDesign]] = []
        for design_index, record in enumerate(records):
            for mode_index, mode in enumerate(members):
                if self.cache is not None:
                    cached = self.cache.load(record, mode, plan)
                    if cached is not None:
                        for measure in plan.measures:
                            data[measure][design_index, mode_index] = \
                                cached[measure]
                        continue
                pending.append((design_index, mode_index, record))
        self._waveform.presize_designs(
            [record for _, _, record in pending],
            [design_axis.values[i] for i, _, _ in pending])
        # Pass 2 — evaluate the cells the cache could not cover: tap the
        # analog engine (memoized per cell), then one quantization pass.
        for design_index, mode_index, record in pending:
            mode = members[mode_index]
            if_block = self._waveform.time_domain(plan.stimulus, mode,
                                                  design=record)
            measures = evaluate_digital(plan, if_block)
            if self.cache is not None:
                self.cache.store(record, mode, plan, measures)
            for measure in plan.measures:
                data[measure][design_index, mode_index] = measures[measure]
        return DigitalResult((design_axis, mode_axis, bits_axis), data)
