"""The per-cell spec path the block engine replaced, kept as a test reference.

Before the spec maths moved into one array pass per mode
(:func:`~repro.core.reconfigurable_mixer.spec_block`), every (design, mode)
cell ran its own scalar chain and the sweep runner filled the result one
cell at a time.  That code is kept here, method bodies unchanged, as the
oracle the block engine is held to bit for bit:

* :class:`ReferenceMixer` restores the scalar ``_compute_*`` helpers and the
  array accessors on one mixer (``_if_magnitude`` reads the mode's IF
  filter through ``_if_filter``, where the retired ``if_magnitude``
  wrappers of the load and the TIA read the same filter);
* :class:`ReferenceRunner` restores the per-cell fill loop of
  :class:`~repro.sweep.runner.SweepRunner` — pre-sizing, per-cell cache
  loads and stores, ``_fill_cell`` — over :class:`ReferenceMixer` instances.

Shared by ``tests/test_sweep_block.py`` and the fill gate in
``benchmarks/test_bench_sweep.py``.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.config import MixerDesign, MixerMode
from repro.core.power import PowerBudget
from repro.core.reconfigurable_mixer import (
    ReconfigurableMixer,
    SpecIntermediates,
    seed_gm_widths,
)
from repro.core.transconductance import solve_widths
from repro.rf.conversion_gain import SWITCHING_FACTOR
from repro.rf.noise_figure import nf_with_flicker, noise_figure_from_factor
from repro.sweep.cache import SpecCache
from repro.sweep.grid import IF_AXIS, RF_AXIS, SweepAxis
from repro.sweep.result import SweepResult
from repro.sweep.runner import DEFAULT_SPECS, SweepRunner
from repro.units import (
    BOLTZMANN,
    REFERENCE_IMPEDANCE,
    db_from_voltage_ratio,
    dbm_from_vpeak,
    vpeak_from_dbm,
)


class ReferenceMixer(ReconfigurableMixer):
    """A mixer whose spec maths run cell by cell, in scalar Python."""

    def _if_magnitude(self, if_frequency: float | np.ndarray) -> float | np.ndarray:
        """IF roll-off magnitude of the current mode's output network."""
        return self._if_filter().magnitude(if_frequency)

    def _compute_intermediates(self) -> SpecIntermediates:
        iip3 = self._compute_iip3_dbm()
        band_low, band_high = self.transconductor.band_edges(
            self._coupling_capacitance(), self._band_node_resistance())
        gain = SWITCHING_FACTOR * self._effective_gm() * self._load_resistance()
        return SpecIntermediates(
            mode=self._mode,
            peak_gain_db=float(db_from_voltage_ratio(gain)),
            band_low_hz=band_low,
            band_high_hz=band_high,
            white_nf_db=self._compute_white_noise_figure_db(),
            flicker_corner_hz=self.switching_quad.flicker_corner(self._mode),
            iip3_dbm=iip3,
            iip2_dbm=self._compute_iip2_dbm(),
            p1db_dbm=self._compute_p1db_dbm(iip3),
            power_mw=self._compute_power_mw(),
        )

    def conversion_gain_db_array(self, rf_frequency: float | np.ndarray,
                                 if_frequency: float | np.ndarray) -> np.ndarray:
        rf = np.asarray(rf_frequency, dtype=float)
        if_freq = np.asarray(if_frequency, dtype=float)
        if np.any(rf <= 0) or np.any(if_freq <= 0):
            raise ValueError("frequencies must be positive")
        gain_db = self.spec_intermediates().peak_gain_db
        band = self.transconductor.band_response(
            rf, self._coupling_capacitance(), self._band_node_resistance())
        if_mag = self._if_magnitude(if_freq)
        return np.asarray(gain_db + db_from_voltage_ratio(band)
                          + db_from_voltage_ratio(if_mag))

    def _compute_white_noise_figure_db(self) -> float:
        design = self.design
        technology = design.technology
        rs = REFERENCE_IMPEDANCE
        gamma = technology.gamma_noise
        gm = self.transconductor.raw_gm
        gm_eff = self._effective_gm()

        factor = 1.0
        factor += 2.0 * gamma / (gm * rs)
        factor += self.switching_quad.noise_excess_factor(self._mode)

        if self._mode is MixerMode.PASSIVE:
            factor += 2.0 * design.degeneration_resistance / rs
            factor += 4.0 * self.switching_quad.switch_on_resistance / rs
            conversion = SWITCHING_FACTOR * gm_eff
            # R_F thermal noise referred to the RF input.
            factor += 2.0 / (conversion ** 2 * design.feedback_resistance * rs)
            # OTA input noise referred to the RF input through the voltage gain.
            gain_voltage = conversion * design.feedback_resistance
            ota_psd = 2.0 * self.tia.ota.input_noise_density ** 2
            source_psd = 4.0 * BOLTZMANN * technology.temperature * rs
            factor += ota_psd / (source_psd * gain_voltage ** 2)
        else:
            conversion = SWITCHING_FACTOR * gm_eff
            factor += 2.0 / (conversion ** 2 * design.load_resistance * rs)

        return float(noise_figure_from_factor(factor))

    def noise_figure_db_array(self, if_frequency: float | np.ndarray) -> np.ndarray:
        intermediates = self.spec_intermediates()
        return np.asarray(nf_with_flicker(intermediates.white_nf_db,
                                          intermediates.flicker_corner_hz,
                                          np.asarray(if_frequency, dtype=float)))

    def _compute_iip3_dbm(self) -> float:
        contributions_dbm = [self.gm_stage_iip3_dbm(),
                             self.switching_quad.iip3_dbm(self._mode),
                             self.output_stage_iip3_dbm()]
        inverse_sum = 0.0
        for value in contributions_dbm:
            if math.isinf(value):
                continue
            amplitude = float(vpeak_from_dbm(value))
            inverse_sum += 1.0 / (amplitude ** 2)
        if inverse_sum == 0.0:
            return math.inf
        total_amplitude = math.sqrt(1.0 / inverse_sum)
        return float(dbm_from_vpeak(total_amplitude))

    def _compute_iip2_dbm(self) -> float:
        coefficients = self.transconductor.taylor_coefficients()
        mismatch = self.design.differential_mismatch
        if mismatch <= 0 or coefficients.g2 == 0.0:
            return math.inf
        single_ended_aiip2 = abs(coefficients.g1 / coefficients.g2)
        balanced_aiip2 = single_ended_aiip2 / mismatch
        return float(dbm_from_vpeak(balanced_aiip2))

    def _compute_p1db_dbm(self, iip3_dbm: float) -> float:
        candidates = [iip3_dbm - 9.6]
        gain = SWITCHING_FACTOR * self._effective_gm() * self._load_resistance()
        # The output limiter used by the waveform model is a hard (6th-order)
        # clip, which reaches 1 dB of compression when the ideal output is at
        # about 98 % of the swing limit.
        swing_limited_input = 0.98 * self.design.output_swing_limit / gain
        candidates.append(float(dbm_from_vpeak(swing_limited_input)))
        return min(candidates)

    def _compute_power_mw(self) -> float:
        return PowerBudget(self.design).total_mw(self._mode)


class ReferenceRunner(SweepRunner):
    """A sweep runner that fills its grid one (design, mode) cell at a time."""

    def __init__(self, design: MixerDesign | None = None,
                 specs: Sequence[str] = DEFAULT_SPECS,
                 cache: SpecCache | str | bool | None = None) -> None:
        super().__init__(design, specs, cache)
        # (design, mode) cells the pre-sizing pass already checked the disk
        # cache for and missed; _cell_intermediates skips the redundant
        # second load so the cache counters see each cell exactly once.
        self._presize_misses: set[tuple[MixerDesign, MixerMode]] = set()

    def mixer_for(self, design: MixerDesign) -> ReconfigurableMixer:
        mixer = self._mixers.get(design)
        if mixer is None:
            mixer = ReferenceMixer(design)
            self._mixers[design] = mixer
        return mixer

    def run(self, rf_frequencies: Iterable[float] | np.ndarray | None = None,
            if_frequencies: Iterable[float] | np.ndarray | None = None,
            modes: Sequence[MixerMode] | None = None,
            designs: Mapping[str, MixerDesign] | Sequence[MixerDesign] | None = None
            ) -> SweepResult:
        design_axis, design_records = self._design_axis(designs)
        mode_axis, mode_members = self._mode_axis(modes)
        rf_axis = SweepAxis.numeric(
            RF_AXIS, rf_frequencies if rf_frequencies is not None
            else [self.design.rf_frequency])
        if_axis = SweepAxis.numeric(
            IF_AXIS, if_frequencies if if_frequencies is not None
            else [self.design.if_frequency])
        rf = rf_axis.as_array()
        if_ = if_axis.as_array()
        if np.any(rf <= 0) or np.any(if_ <= 0):
            raise ValueError("swept frequencies must be positive")

        shape = (len(design_axis), len(mode_axis), rf.size, if_.size)
        data = {spec: np.empty(shape, dtype=float) for spec in self.specs}

        self._presize(design_records, mode_members, design_axis.values)
        for design_index, record in enumerate(design_records):
            mixer = self.mixer_for(record)
            for mode_index, mode in enumerate(mode_members):
                mixer.set_mode(mode)
                cell = (design_index, mode_index)
                self._fill_cell(mixer, record, data, cell, rf, if_)

        axes = (design_axis, mode_axis, rf_axis, if_axis)
        return SweepResult(axes, data)

    def _presize(self, records: Sequence[MixerDesign],
                 modes: Sequence[MixerMode],
                 labels: Sequence[str]) -> int:
        pending_records: list[MixerDesign] = []
        pending_labels: list[str] = []
        pending_mixers: list[ReconfigurableMixer] = []
        seen: set[MixerDesign] = set()
        for label, record in zip(labels, records):
            if record in seen:
                continue
            seen.add(record)
            mixer = self.mixer_for(record)
            covered = True
            for mode in modes:
                if mixer.peek_intermediates(mode) is not None:
                    continue
                if self.cache is not None and \
                        (record, mode) not in self._presize_misses:
                    cached = self.cache.load(record, mode)
                    if cached is not None:
                        mixer.seed_intermediates(cached)
                        continue
                    self._presize_misses.add((record, mode))
                covered = False
            if covered or mixer.gm_device_sized():
                continue
            pending_records.append(record)
            pending_labels.append(label)
            pending_mixers.append(mixer)
        if len(pending_records) < self._BATCH_THRESHOLD:
            return 0
        widths = solve_widths(pending_records, labels=pending_labels)
        seed_gm_widths(pending_mixers, widths)
        return len(pending_records)

    def _cell_intermediates(self, mixer: ReconfigurableMixer,
                            record: MixerDesign) -> SpecIntermediates:
        cached = mixer.peek_intermediates(mixer.mode)
        if cached is not None:
            return cached
        if self.cache is None:
            return mixer.spec_intermediates()
        if (record, mixer.mode) not in self._presize_misses:
            loaded = self.cache.load(record, mixer.mode)
            if loaded is not None:
                mixer.seed_intermediates(loaded)
                return loaded
        intermediates = mixer.spec_intermediates()
        self.cache.store(record, mixer.mode, intermediates)
        return intermediates

    def _fill_cell(self, mixer: ReconfigurableMixer, record: MixerDesign,
                   data: dict[str, np.ndarray], cell: tuple[int, int],
                   rf: np.ndarray, if_: np.ndarray) -> None:
        """Evaluate every configured spec for one (design, mode) cell."""
        intermediates = self._cell_intermediates(mixer, record)
        plane = (rf.size, if_.size)
        for spec in self.specs:
            if spec == "conversion_gain_db":
                data[spec][cell] = mixer.conversion_gain_db_array(
                    rf[:, None], if_[None, :])
            elif spec == "noise_figure_db":
                data[spec][cell] = np.broadcast_to(
                    mixer.noise_figure_db_array(if_)[None, :], plane)
            else:
                # Flat specs share their name with a SpecIntermediates field.
                data[spec][cell] = getattr(intermediates, spec)
