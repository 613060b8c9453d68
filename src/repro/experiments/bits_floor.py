"""Minimum bit widths keeping quantization under the analog noise floor.

A digital back end should be *transparent*: its quantization noise must sit
comfortably below the noise the mixer itself delivers, or ADC/NCO bits —
not the paper's NF — set the receiver sensitivity.  This driver answers
the sizing question directly, per mode: the **minimum ADC resolution, LO
width and output width** at which the digital chain's IF-referred noise
power stays at least ``margin_db`` below the mixer's analog output noise
floor

``floor_dbm = -174 dBm/Hz + 10 log10(BW) + NF + gain``

(the same convention as the front-end sensitivity formula in
:mod:`repro.core.frontend`, with ``BW`` the complex baseband bandwidth —
the decimated output rate).  Each width axis is scanned in isolation with
the other two held generously wide, so the reported minimum reflects that
stage's own quantization, not another stage's ceiling.

Every scan point is one cached digital-engine evaluation over the *same*
memoized analog tap — the mixer waveform is computed once per (design,
mode) and re-quantized cheaply, which is what makes a three-axis width
search affordable.  :func:`sweep_bits_floor` evaluates whole design
populations as one design axis (the ``bits_floor`` batch adapter).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from repro.api.registry import register_experiment
from repro.core.config import MixerDesign, MixerMode
from repro.digital import DigitalIfRunner, DigitalResult, digital_if_plan
from repro.experiments.common import design_and_runner, resolve_design
from repro.sweep import SpecCache, make_runner
from repro.units import ghz, mhz

#: Candidate widths scanned per axis, ascending.
DEFAULT_ADC_CANDIDATES = (4, 6, 8, 10, 12, 14, 16)
DEFAULT_LO_CANDIDATES = (6, 8, 10, 12, 14, 16, 20, 24)
DEFAULT_OUTPUT_CANDIDATES = (6, 8, 10, 12, 14, 16, 20, 24)

#: Generous widths holding the non-scanned stages out of the way.
_WIDE_LO_BITS = 24
_WIDE_OUTPUT_BITS = 32


@dataclass
class ModeBitsFloor:
    """Width minima and scan curves for one mode."""

    mode: MixerMode
    conversion_gain_db: float
    noise_figure_db: float
    analog_floor_dbm: float
    margin_db: float
    adc_candidates: np.ndarray
    noise_dbm_vs_adc: np.ndarray
    snr_db_vs_adc: np.ndarray
    min_adc_bits: float
    lo_candidates: np.ndarray
    noise_dbm_vs_lo: np.ndarray
    snr_db_vs_lo: np.ndarray
    min_lo_bits: float
    output_candidates: np.ndarray
    noise_dbm_vs_output: np.ndarray
    snr_db_vs_output: np.ndarray
    min_output_bits: float

    @property
    def threshold_dbm(self) -> float:
        """The level quantization noise must stay at or below."""
        return self.analog_floor_dbm - self.margin_db

    @property
    def achievable(self) -> bool:
        """True when every scanned axis reached the threshold."""
        return (math.isfinite(self.min_adc_bits)
                and math.isfinite(self.min_lo_bits)
                and math.isfinite(self.min_output_bits))


@dataclass
class BitsFloorResult:
    """Minimum transparent bit widths for both modes."""

    active: ModeBitsFloor
    passive: ModeBitsFloor
    lo_frequency_hz: float
    rf_frequency_hz: float
    if_frequency_hz: float
    nco_frequency_hz: float
    output_sample_rate_hz: float
    margin_db: float

    def for_mode(self, mode: MixerMode) -> ModeBitsFloor:
        """The scan for one mode."""
        return self.active if mode is MixerMode.ACTIVE else self.passive


def _first_meeting(candidates: np.ndarray, noise_dbm: np.ndarray,
                   snr_db: np.ndarray, threshold_dbm: float) -> float:
    """The narrowest candidate whose noise meets the threshold (nan if none).

    A width also has to *carry the signal* (positive, finite SNR) to
    qualify: a register so narrow it truncates the output to all zeros
    reads as zero noise power, which must not count as transparent.
    """
    with np.errstate(invalid="ignore"):
        meets = np.flatnonzero((noise_dbm <= threshold_dbm)
                               & np.isfinite(snr_db) & (snr_db > 0.0))
    return float(candidates[meets[0]]) if meets.size else math.nan


def run_bits_floor(design: MixerDesign | None = None,
                   lo_frequency_hz: float = ghz(2.4),
                   rf_frequency_hz: float = ghz(2.4) + mhz(5.0),
                   input_power_dbm: float = -40.0,
                   margin_db: float = 10.0,
                   adc_candidates: Sequence[int] = DEFAULT_ADC_CANDIDATES,
                   lo_candidates: Sequence[int] = DEFAULT_LO_CANDIDATES,
                   output_candidates: Sequence[int] =
                   DEFAULT_OUTPUT_CANDIDATES,
                   workers: int | None = None,
                   cache: SpecCache | str | bool | None = None
                   ) -> BitsFloorResult:
    """Find the minimum transparent digital widths for one design.

    ``workers`` / ``cache`` plug in the sharded runners and on-disk caches
    of every engine involved; with a warm cache the whole three-axis scan
    performs zero quantization passes.
    """
    return sweep_bits_floor({"nominal": resolve_design(design)},
                            lo_frequency_hz=lo_frequency_hz,
                            rf_frequency_hz=rf_frequency_hz,
                            input_power_dbm=input_power_dbm,
                            margin_db=margin_db,
                            adc_candidates=adc_candidates,
                            lo_candidates=lo_candidates,
                            output_candidates=output_candidates,
                            workers=workers, cache=cache)["nominal"]


def sweep_bits_floor(designs: Mapping[str, MixerDesign],
                     lo_frequency_hz: float = ghz(2.4),
                     rf_frequency_hz: float = ghz(2.4) + mhz(5.0),
                     input_power_dbm: float = -40.0,
                     margin_db: float = 10.0,
                     adc_candidates: Sequence[int] = DEFAULT_ADC_CANDIDATES,
                     lo_candidates: Sequence[int] = DEFAULT_LO_CANDIDATES,
                     output_candidates: Sequence[int] =
                     DEFAULT_OUTPUT_CANDIDATES,
                     workers: int | None = None,
                     cache: SpecCache | str | bool | None = None
                     ) -> dict[str, BitsFloorResult]:
    """The width-minimum scan for many designs as **one** design axis.

    Every scan point runs the whole design population through one
    digital-engine call; per-design results are bit-identical to solo
    :func:`run_bits_floor` calls.  This is the batch adapter
    :class:`~repro.api.service.MixerService` fans design populations out
    through.
    """
    if not designs:
        raise ValueError("sweep_bits_floor needs at least one design")
    if margin_db < 0:
        raise ValueError("margin_db must be non-negative")
    adc_candidates = tuple(int(b) for b in adc_candidates)
    lo_candidates = tuple(int(b) for b in lo_candidates)
    output_candidates = tuple(int(b) for b in output_candidates)
    if not adc_candidates or not lo_candidates or not output_candidates:
        raise ValueError("every candidate axis needs at least one width")

    baseline, runner = design_and_runner(
        next(iter(designs.values())),
        specs=("conversion_gain_db", "noise_figure_db"),
        workers=workers, cache=cache)
    modes = (MixerMode.ACTIVE, MixerMode.PASSIVE)
    analytic = runner.run(modes=modes, designs=dict(designs))
    digital = make_runner(baseline, workers=workers, cache=cache,
                          engine=DigitalIfRunner)

    # The ADC scan sweeps all candidate resolutions in one vectorized pass
    # (the bits axis); the LO and output scans re-quantize the same memoized
    # tap at the widest ADC so only the scanned stage limits the noise.  A
    # fourth CIC stage steepens the real-IF image rejection past the
    # quantization floors being measured — with the artefact bench's three
    # stages the decimator's own image spur caps every curve near -75 dBm.
    base = digital_if_plan(rf_frequency=rf_frequency_hz,
                           lo_frequency=lo_frequency_hz,
                           input_power_dbm=input_power_dbm,
                           adc_bits=adc_candidates,
                           lo_bits=_WIDE_LO_BITS,
                           output_bits=_WIDE_OUTPUT_BITS,
                           cic_stages=4)
    widest = (max(adc_candidates),)
    adc_scan = digital.run(base, modes=modes, designs=dict(designs))
    lo_scans: dict[int, DigitalResult] = {}
    for bits in lo_candidates:
        plan = replace(base, lo_bits=bits, adc_bits=widest,
                       guard_bits=min(base.guard_bits, bits - 1))
        lo_scans[bits] = digital.run(plan, modes=modes, designs=dict(designs))
    output_scans: dict[int, DigitalResult] = {}
    for bits in output_candidates:
        plan = replace(base, output_bits=bits, adc_bits=widest)
        output_scans[bits] = digital.run(plan, modes=modes,
                                         designs=dict(designs))

    results: dict[str, BitsFloorResult] = {}
    for label in designs:
        per_mode: dict[MixerMode, ModeBitsFloor] = {}
        for mode in modes:
            gain = analytic.value("conversion_gain_db", design=label,
                                  mode=mode)
            nf = analytic.value("noise_figure_db", design=label, mode=mode)
            floor = (-174.0
                     + 10.0 * math.log10(base.output_sample_rate)
                     + nf + gain)
            threshold = floor - margin_db
            adc_noise = adc_scan.values("noise_dbm", design=label, mode=mode)
            adc_snr = adc_scan.values("snr_db", design=label, mode=mode)
            lo_noise = np.array([
                lo_scans[bits].value("noise_dbm", design=label, mode=mode)
                for bits in lo_candidates])
            lo_snr = np.array([
                lo_scans[bits].value("snr_db", design=label, mode=mode)
                for bits in lo_candidates])
            output_noise = np.array([
                output_scans[bits].value("noise_dbm", design=label,
                                         mode=mode)
                for bits in output_candidates])
            output_snr = np.array([
                output_scans[bits].value("snr_db", design=label, mode=mode)
                for bits in output_candidates])
            per_mode[mode] = ModeBitsFloor(
                mode=mode,
                conversion_gain_db=gain,
                noise_figure_db=nf,
                analog_floor_dbm=floor,
                margin_db=float(margin_db),
                adc_candidates=np.asarray(adc_candidates, dtype=float),
                noise_dbm_vs_adc=adc_noise,
                snr_db_vs_adc=adc_snr,
                min_adc_bits=_first_meeting(
                    np.asarray(adc_candidates, dtype=float), adc_noise,
                    adc_snr, threshold),
                lo_candidates=np.asarray(lo_candidates, dtype=float),
                noise_dbm_vs_lo=lo_noise,
                snr_db_vs_lo=lo_snr,
                min_lo_bits=_first_meeting(
                    np.asarray(lo_candidates, dtype=float), lo_noise,
                    lo_snr, threshold),
                output_candidates=np.asarray(output_candidates, dtype=float),
                noise_dbm_vs_output=output_noise,
                snr_db_vs_output=output_snr,
                min_output_bits=_first_meeting(
                    np.asarray(output_candidates, dtype=float), output_noise,
                    output_snr, threshold),
            )
        results[label] = BitsFloorResult(
            active=per_mode[MixerMode.ACTIVE],
            passive=per_mode[MixerMode.PASSIVE],
            lo_frequency_hz=float(lo_frequency_hz),
            rf_frequency_hz=float(rf_frequency_hz),
            if_frequency_hz=base.if_frequency,
            nco_frequency_hz=base.nco_frequency_hz,
            output_sample_rate_hz=base.output_sample_rate,
            margin_db=float(margin_db),
        )
    return results


def _width(value: float) -> str:
    return f"{value:.0f} bits" if math.isfinite(value) else "not reached"


def format_report(result: BitsFloorResult) -> str:
    """Text rendering of the width-minimum scan."""
    lines = [
        "Minimum transparent digital-IF widths (LO = "
        f"{result.lo_frequency_hz / 1e9:.2f} GHz, IF = "
        f"{result.if_frequency_hz / 1e6:.2f} MHz, baseband BW = "
        f"{result.output_sample_rate_hz / 1e6:.0f} MHz, margin = "
        f"{result.margin_db:.0f} dB)"
    ]
    for panel in (result.active, result.passive):
        lines.append(
            f"  {panel.mode.value}: analog floor "
            f"{panel.analog_floor_dbm:7.2f} dBm (gain "
            f"{panel.conversion_gain_db:.1f} dB, NF "
            f"{panel.noise_figure_db:.1f} dB) -> threshold "
            f"{panel.threshold_dbm:7.2f} dBm")
        lines.append(f"    ADC:    {_width(panel.min_adc_bits)}")
        lines.append(f"    LO:     {_width(panel.min_lo_bits)}")
        lines.append(f"    output: {_width(panel.min_output_bits)}")
    return "\n".join(lines)


register_experiment(
    name="bits_floor",
    artefact="Minimum ADC/LO/output widths keeping quantization noise "
             "under the mixer's analog noise floor",
    summary="Three-axis digital width scan against the NF-derived floor",
    runner=run_bits_floor,
    batch_runner=sweep_bits_floor,
    result_type=BitsFloorResult,
    report=format_report,
    default_grid={"lo_frequency_hz": ghz(2.4),
                  "rf_frequency_hz": ghz(2.4) + mhz(5.0),
                  "input_power_dbm": -40.0,
                  "margin_db": 10.0,
                  "adc_candidates": list(DEFAULT_ADC_CANDIDATES),
                  "lo_candidates": list(DEFAULT_LO_CANDIDATES),
                  "output_candidates": list(DEFAULT_OUTPUT_CANDIDATES)},
    payload_types=(ModeBitsFloor,),
)
