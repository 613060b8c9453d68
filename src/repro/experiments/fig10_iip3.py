"""Fig. 10 — two-tone linearity of the reconfigurable mixer.

The paper shows the classic IIP3 construction for both modes at a 2.4 GHz
LO: the fundamental and IM3 output powers versus input power, with
extrapolated intercepts of +6.57 dBm (passive, Fig. 10a) and -11.9 dBm
(active, Fig. 10b).  This driver performs the actual two-tone measurement on
the waveform-level mixer model — tones through the nonlinear signal path, LO
commutation, FFT, product extraction — and fits the intercept from the swept
lines exactly as the figure does.

Both halves of the measurement now run on engines: the analytic reference
intercepts come from a spot :class:`~repro.sweep.runner.SweepRunner`
evaluation and the waveform sweep itself runs through the batched
:class:`~repro.waveform.engine.WaveformRunner` (one stacked time-domain
evaluation + one batched FFT per (design, mode) cell).  ``workers=`` /
``cache=`` therefore apply to **both**: the design axis of either engine
shards across processes, the spec cache skips sizing bisections and the
waveform cache skips FFT evaluations on warm re-runs.
:func:`sweep_fig10` evaluates whole design populations as one design axis —
the batch adapter :class:`~repro.api.service.MixerService` fans ``fig10``
populations out through.

Golden regression: ``tests/test_golden_figures.py::TestFig10Golden`` pins
the FFT-measured IIP3/OIP3 of both panels to 0.02 dB and the analytic
reference intercepts to 1e-6 dBm; the passive-over-active IIP3 advantage
(the paper's ~18 dB reconfiguration headroom) is pinned with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.api.registry import register_experiment
from repro.core.config import MixerDesign, MixerMode
from repro.experiments.common import design_and_runner, resolve_design
from repro.rf.twotone import fit_intercept_point
from repro.sweep import SpecCache, make_runner
from repro.sweep.result import SweepResult
from repro.units import ghz, mhz
from repro.waveform import WaveformResult, WaveformRunner, two_tone_plan
# Canonical definition lives with the stimulus plans; re-exported here for
# backwards compatibility (iip2/p1db and older callers import from us).
from repro.waveform.plan import DEFAULT_NUM_SAMPLES, DEFAULT_SAMPLE_RATE


@dataclass
class ModeIip3Result:
    """Two-tone sweep and fitted intercept for one mode."""

    mode: MixerMode
    input_powers_dbm: np.ndarray
    fundamental_dbm: np.ndarray
    im3_dbm: np.ndarray
    iip3_dbm: float
    oip3_dbm: float
    analytic_iip3_dbm: float


@dataclass
class Fig10Result:
    """Results for both panels of Fig. 10."""

    passive: ModeIip3Result   # Fig. 10(a)
    active: ModeIip3Result    # Fig. 10(b)
    lo_frequency_hz: float
    tone_1_hz: float
    tone_2_hz: float

    def for_mode(self, mode: MixerMode) -> ModeIip3Result:
        """The panel for ``mode``."""
        return self.active if mode is MixerMode.ACTIVE else self.passive

    @property
    def iip3_gap_db(self) -> float:
        """Passive-minus-active IIP3 — the reconfiguration headroom."""
        return self.passive.iip3_dbm - self.active.iip3_dbm


def _mode_panel(wave: WaveformResult, analytic: SweepResult, label: str,
                mode: MixerMode, powers: np.ndarray) -> ModeIip3Result:
    """One panel: read the mode's curves off the grids and fit the intercept."""
    fundamental = wave.values("fundamental_dbm", design=label, mode=mode)
    im3 = wave.values("im3_dbm", design=label, mode=mode)
    fit = fit_intercept_point(powers, fundamental, im3, intermod_order=3)
    return ModeIip3Result(
        mode=mode,
        input_powers_dbm=powers,
        fundamental_dbm=fundamental,
        im3_dbm=im3,
        iip3_dbm=fit.intercept_input_dbm,
        oip3_dbm=fit.intercept_output_dbm,
        analytic_iip3_dbm=analytic.value("iip3_dbm", design=label, mode=mode),
    )


def run_fig10(design: MixerDesign | None = None,
              lo_frequency_hz: float = ghz(2.4),
              tone_1_hz: float = ghz(2.4) + mhz(5.0),
              tone_2_hz: float = ghz(2.4) + mhz(7.0),
              input_powers_dbm: np.ndarray | None = None,
              sample_rate: float = DEFAULT_SAMPLE_RATE,
              num_samples: int = DEFAULT_NUM_SAMPLES,
              workers: int | None = None,
              cache: SpecCache | str | bool | None = None) -> Fig10Result:
    """Regenerate both panels of Fig. 10 (two-tone IIP3, 2.4 GHz LO).

    ``workers`` / ``cache`` apply to the analytic reference sweep *and* the
    waveform bench: a warm cache skips the sizing bisections and serves the
    measured spectra without a single FFT evaluation.
    """
    return sweep_fig10({"nominal": resolve_design(design)},
                       lo_frequency_hz=lo_frequency_hz,
                       tone_1_hz=tone_1_hz, tone_2_hz=tone_2_hz,
                       input_powers_dbm=input_powers_dbm,
                       sample_rate=sample_rate, num_samples=num_samples,
                       workers=workers, cache=cache)["nominal"]


def sweep_fig10(designs: Mapping[str, MixerDesign],
                lo_frequency_hz: float = ghz(2.4),
                tone_1_hz: float = ghz(2.4) + mhz(5.0),
                tone_2_hz: float = ghz(2.4) + mhz(7.0),
                input_powers_dbm: np.ndarray | None = None,
                sample_rate: float = DEFAULT_SAMPLE_RATE,
                num_samples: int = DEFAULT_NUM_SAMPLES,
                workers: int | None = None,
                cache: SpecCache | str | bool | None = None
                ) -> dict[str, Fig10Result]:
    """The Fig. 10 measurement for many designs as **one** design axis.

    All designs share the stimulus plan and run through a single
    waveform-engine call (and a single analytic reference sweep), so
    ``workers=`` shards the whole population across processes; each
    per-design result is bit-identical to a solo :func:`run_fig10` call
    (every (design, mode) cell is evaluated independently).  This is the
    batch adapter :class:`~repro.api.service.MixerService` fans design
    populations out through.
    """
    if not designs:
        raise ValueError("sweep_fig10 needs at least one design")
    if input_powers_dbm is None:
        input_powers_dbm = np.arange(-45.0, -19.0, 2.0)
    powers = np.asarray(input_powers_dbm, dtype=float)
    if powers.size < 4:
        raise ValueError("the intercept fit needs at least 4 swept powers")

    baseline, runner = design_and_runner(next(iter(designs.values())),
                                         specs=("iip3_dbm",),
                                         workers=workers, cache=cache)
    analytic = runner.run(modes=(MixerMode.PASSIVE, MixerMode.ACTIVE),
                          designs=dict(designs))
    plan = two_tone_plan(tone_1_hz, tone_2_hz, powers, sample_rate,
                         num_samples, lo_frequency=lo_frequency_hz)
    wave = make_runner(baseline, workers=workers, cache=cache,
                       engine=WaveformRunner).run(
        plan, modes=(MixerMode.PASSIVE, MixerMode.ACTIVE),
        designs=dict(designs))

    results: dict[str, Fig10Result] = {}
    for label in designs:
        results[label] = Fig10Result(
            passive=_mode_panel(wave, analytic, label, MixerMode.PASSIVE,
                                powers),
            active=_mode_panel(wave, analytic, label, MixerMode.ACTIVE,
                               powers),
            lo_frequency_hz=lo_frequency_hz,
            tone_1_hz=tone_1_hz,
            tone_2_hz=tone_2_hz,
        )
    return results


def format_report(result: Fig10Result) -> str:
    """Text rendering of the Fig. 10 intercept construction."""
    lines = [
        "Fig. 10 — two-tone linearity (LO = "
        f"{result.lo_frequency_hz / 1e9:.2f} GHz, tones at "
        f"{result.tone_1_hz / 1e9:.4f} / {result.tone_2_hz / 1e9:.4f} GHz)"
    ]
    for panel, label in ((result.passive, "(a) passive"),
                         (result.active, "(b) active")):
        lines.append(
            f"  {label:>11}: measured IIP3 {panel.iip3_dbm:6.2f} dBm "
            f"(analytic {panel.analytic_iip3_dbm:6.2f} dBm), "
            f"OIP3 {panel.oip3_dbm:6.2f} dBm")
    lines.append(f"  passive-over-active IIP3 advantage: "
                 f"{result.iip3_gap_db:.1f} dB")
    return "\n".join(lines)


register_experiment(
    name="fig10",
    artefact="Fig. 10(a)/(b) — two-tone IIP3 of both modes",
    summary="Waveform-level two-tone intercept construction, both panels",
    runner=run_fig10,
    batch_runner=sweep_fig10,
    result_type=Fig10Result,
    report=format_report,
    default_grid={"lo_frequency_hz": ghz(2.4),
                  "tone_1_hz": ghz(2.4) + mhz(5.0),
                  "tone_2_hz": ghz(2.4) + mhz(7.0),
                  "input_powers_dbm": None,
                  "sample_rate": DEFAULT_SAMPLE_RATE,
                  "num_samples": DEFAULT_NUM_SAMPLES},
    payload_types=(ModeIip3Result,),
)
