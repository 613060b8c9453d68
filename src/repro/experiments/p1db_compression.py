"""Table I — input 1 dB compression point, measured from waveforms.

The paper quotes the input-referred 1 dB compression point of both modes at
a 5 MHz IF (-21.5 dBm active, -14.4 dBm passive) and attributes the low-IF
compression to the OTA output swing.  This driver measures it the way a
bench would: a single RF tone swept in power through the waveform-level
mixer model, the IF fundamental read off the spectrum at every power, and
the -1 dB crossing interpolated on the gain curve
(:func:`repro.rf.compression.compression_from_gains` — the same fit the
scalar bench uses).

The power sweep runs on the batched waveform engine
(:class:`~repro.waveform.engine.WaveformRunner`): one stacked time-domain
evaluation plus one batched FFT per (design, mode) cell, cacheable and
design-axis-shardable like every sweep.  The analytic reference
(``p1db_dbm``, the Table I pin in
``tests/test_golden_figures.py::TestTable1Golden``) comes from the spec
sweep engine, so measured and analytic values share their caches with every
other experiment.  :func:`sweep_p1db` evaluates whole design populations as
one design axis (the ``p1db`` batch adapter).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.api.registry import register_experiment
from repro.core.config import MixerDesign, MixerMode
from repro.experiments.common import design_and_runner, resolve_design
from repro.experiments.fig10_iip3 import DEFAULT_NUM_SAMPLES, DEFAULT_SAMPLE_RATE
from repro.rf.compression import compression_from_gains
from repro.sweep import SpecCache, make_runner
from repro.units import ghz, mhz
from repro.waveform import WaveformRunner, single_tone_plan


@dataclass
class ModeP1dbResult:
    """Compression sweep and fitted 1 dB point for one mode."""

    mode: MixerMode
    input_powers_dbm: np.ndarray
    output_powers_dbm: np.ndarray
    gains_db: np.ndarray
    small_signal_gain_db: float
    measured_p1db_dbm: float
    output_p1db_dbm: float
    analytic_p1db_dbm: float

    @property
    def compression_found(self) -> bool:
        """True when 1 dB of compression was reached inside the sweep."""
        return math.isfinite(self.measured_p1db_dbm)

    @property
    def delta_vs_analytic_db(self) -> float:
        """Measured minus analytic compression point (dB)."""
        return self.measured_p1db_dbm - self.analytic_p1db_dbm


@dataclass
class P1dbResult:
    """Measured P1dB of both modes (the Table I compression row)."""

    active: ModeP1dbResult
    passive: ModeP1dbResult
    lo_frequency_hz: float
    rf_frequency_hz: float
    if_frequency_hz: float

    def for_mode(self, mode: MixerMode) -> ModeP1dbResult:
        """The sweep for one mode."""
        return self.active if mode is MixerMode.ACTIVE else self.passive

    @property
    def both_found(self) -> bool:
        """True when both modes reached 1 dB of compression in the sweep."""
        return self.active.compression_found and self.passive.compression_found


def run_p1db(design: MixerDesign | None = None,
             lo_frequency_hz: float = ghz(2.4),
             rf_frequency_hz: float = ghz(2.4) + mhz(5.0),
             input_powers_dbm: np.ndarray | None = None,
             sample_rate: float = DEFAULT_SAMPLE_RATE,
             num_samples: int = DEFAULT_NUM_SAMPLES,
             workers: int | None = None,
             cache: SpecCache | str | bool | None = None) -> P1dbResult:
    """Measure the input 1 dB compression point of both modes.

    The default power sweep (-40 to -8 dBm in 2 dB steps) reaches
    compression in both modes at the paper's operating point; ``workers`` /
    ``cache`` plug in the sharded runners and on-disk caches of both
    engines — a warm re-run performs zero sizing bisections and zero FFT
    evaluations.
    """
    return sweep_p1db({"nominal": resolve_design(design)},
                      lo_frequency_hz=lo_frequency_hz,
                      rf_frequency_hz=rf_frequency_hz,
                      input_powers_dbm=input_powers_dbm,
                      sample_rate=sample_rate, num_samples=num_samples,
                      workers=workers, cache=cache)["nominal"]


def sweep_p1db(designs: Mapping[str, MixerDesign],
               lo_frequency_hz: float = ghz(2.4),
               rf_frequency_hz: float = ghz(2.4) + mhz(5.0),
               input_powers_dbm: np.ndarray | None = None,
               sample_rate: float = DEFAULT_SAMPLE_RATE,
               num_samples: int = DEFAULT_NUM_SAMPLES,
               workers: int | None = None,
               cache: SpecCache | str | bool | None = None
               ) -> dict[str, P1dbResult]:
    """The P1dB measurement for many designs as **one** design axis.

    All designs share the stimulus plan and run through one waveform-engine
    call plus one analytic reference sweep; per-design results are
    bit-identical to solo :func:`run_p1db` calls.  This is the batch
    adapter :class:`~repro.api.service.MixerService` fans design
    populations out through.
    """
    if not designs:
        raise ValueError("sweep_p1db needs at least one design")
    if input_powers_dbm is None:
        input_powers_dbm = np.arange(-40.0, -6.0, 2.0)
    powers = np.asarray(input_powers_dbm, dtype=float)
    if powers.size < 3:
        raise ValueError("compression sweep needs at least 3 input powers")
    if_frequency_hz = abs(rf_frequency_hz - lo_frequency_hz)

    baseline, runner = design_and_runner(next(iter(designs.values())),
                                         specs=("p1db_dbm",),
                                         workers=workers, cache=cache)
    modes = (MixerMode.ACTIVE, MixerMode.PASSIVE)
    analytic = runner.run(modes=modes, designs=dict(designs))
    plan = single_tone_plan(rf_frequency_hz, powers, sample_rate,
                            num_samples, lo_frequency=lo_frequency_hz,
                            output_frequency=if_frequency_hz)
    wave = make_runner(baseline, workers=workers, cache=cache,
                       engine=WaveformRunner).run(
        plan, modes=modes, designs=dict(designs))

    results: dict[str, P1dbResult] = {}
    for label in designs:
        per_mode: dict[MixerMode, ModeP1dbResult] = {}
        for mode in modes:
            gains = wave.values("gain_db", design=label, mode=mode)
            small_signal, input_p1db, output_p1db = \
                compression_from_gains(powers, gains)
            per_mode[mode] = ModeP1dbResult(
                mode=mode,
                input_powers_dbm=powers,
                output_powers_dbm=wave.values("output_dbm", design=label,
                                              mode=mode),
                gains_db=gains,
                small_signal_gain_db=small_signal,
                measured_p1db_dbm=input_p1db,
                output_p1db_dbm=output_p1db,
                analytic_p1db_dbm=analytic.value("p1db_dbm", design=label,
                                                 mode=mode),
            )
        results[label] = P1dbResult(
            active=per_mode[MixerMode.ACTIVE],
            passive=per_mode[MixerMode.PASSIVE],
            lo_frequency_hz=lo_frequency_hz,
            rf_frequency_hz=rf_frequency_hz,
            if_frequency_hz=if_frequency_hz,
        )
    return results


def format_report(result: P1dbResult) -> str:
    """Text rendering of the compression measurement."""
    lines = [
        "Input 1 dB compression point (LO = "
        f"{result.lo_frequency_hz / 1e9:.2f} GHz, RF = "
        f"{result.rf_frequency_hz / 1e9:.4f} GHz, IF = "
        f"{result.if_frequency_hz / 1e6:.1f} MHz)"
    ]
    for panel in (result.active, result.passive):
        if panel.compression_found:
            measured = f"{panel.measured_p1db_dbm:6.2f} dBm"
            delta = f" ({panel.delta_vs_analytic_db:+.2f} dB vs analytic)"
        else:
            measured = "not reached"
            delta = ""
        lines.append(
            f"  {panel.mode.value:>7}: measured P1dB {measured} "
            f"[analytic {panel.analytic_p1db_dbm:6.2f} dBm]{delta}")
    return "\n".join(lines)


register_experiment(
    name="p1db",
    artefact="Table I — input 1 dB compression point of both modes",
    summary="Waveform-level compression sweep against the analytic P1dB",
    runner=run_p1db,
    batch_runner=sweep_p1db,
    result_type=P1dbResult,
    report=format_report,
    default_grid={"lo_frequency_hz": ghz(2.4),
                  "rf_frequency_hz": ghz(2.4) + mhz(5.0),
                  "input_powers_dbm": None,
                  "sample_rate": DEFAULT_SAMPLE_RATE,
                  "num_samples": DEFAULT_NUM_SAMPLES},
    payload_types=(ModeP1dbResult,),
)
