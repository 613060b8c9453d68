"""Vectorized-vs-scalar equivalence for the spec accessors and the sweep engine.

The scalar spec accessors are blocks of one through the same block spec
code the sweep engine runs over whole design axes, so the two paths must
agree exactly — these tests pin that contract bit for bit across modes,
frequency decades and design variations, both by dense grid sampling and
(when hypothesis is installed) by property-based search over the frequency
plane.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import MixerDesign, MixerMode
from repro.core.reconfigurable_mixer import ReconfigurableMixer
from repro.devices.technology import fast_corner, slow_corner
from repro.sweep import SweepRunner

#: Design variations the equivalence must hold for: the nominal point, a
#: re-tuned gain setting, a strongly degenerated passive path, and the two
#: process corners.
def _design_variations() -> dict[str, MixerDesign]:
    from dataclasses import replace

    nominal = MixerDesign()
    return {
        "nominal": nominal,
        "low-gain": nominal.with_gain_setting(0.5),
        "strong-degeneration": replace(nominal, degeneration_resistance=200.0),
        "slow-corner": replace(nominal, technology=slow_corner()),
        "fast-corner": replace(nominal, technology=fast_corner()),
    }


DESIGN_VARIATIONS = _design_variations()

#: One memoized mixer per design variation (sizing is the expensive part).
_MIXERS: dict[str, ReconfigurableMixer] = {
    label: ReconfigurableMixer(design)
    for label, design in DESIGN_VARIATIONS.items()
}

RF_GRID = np.logspace(np.log10(0.2e9), np.log10(8e9), 41)
IF_GRID = np.logspace(np.log10(10e3), np.log10(100e6), 37)


@pytest.mark.parametrize("label", sorted(DESIGN_VARIATIONS))
@pytest.mark.parametrize("mode", [MixerMode.ACTIVE, MixerMode.PASSIVE])
class TestGridSampledEquivalence:
    """Dense-grid agreement between the scalar and array accessors."""

    def test_conversion_gain_plane(self, label: str, mode: MixerMode) -> None:
        mixer = _MIXERS[label]
        mixer.set_mode(mode)
        plane = mixer.conversion_gain_db_array(RF_GRID[:, None],
                                               IF_GRID[None, :])
        assert plane.shape == (RF_GRID.size, IF_GRID.size)
        for i in range(0, RF_GRID.size, 8):
            for j in range(0, IF_GRID.size, 8):
                scalar = mixer.conversion_gain_db(RF_GRID[i], IF_GRID[j])
                assert plane[i, j] == scalar

    def test_noise_figure_curve(self, label: str, mode: MixerMode) -> None:
        mixer = _MIXERS[label]
        mixer.set_mode(mode)
        curve = mixer.noise_figure_db_array(IF_GRID)
        scalars = np.array([mixer.noise_figure_db(f) for f in IF_GRID])
        assert curve.tobytes() == scalars.tobytes()

    def test_flat_specs_match_scalar_accessors(self, label: str,
                                               mode: MixerMode) -> None:
        mixer = _MIXERS[label]
        mixer.set_mode(mode)
        intermediates = mixer.spec_intermediates()
        assert intermediates.iip3_dbm == mixer.iip3_dbm()
        assert intermediates.p1db_dbm == mixer.p1db_dbm()
        assert intermediates.power_mw == mixer.power_mw()
        assert (intermediates.band_low_hz, intermediates.band_high_hz) == \
            mixer.band_edges()


class TestRunnerEquivalence:
    """The sweep engine reproduces the scalar per-point loop exactly."""

    def test_fig8_grid_against_scalar_loop(self) -> None:
        design = MixerDesign()
        frequencies = np.logspace(np.log10(0.3e9), np.log10(7e9), 120)
        sweep = SweepRunner(design, specs=("conversion_gain_db",)).run(
            rf_frequencies=frequencies, if_frequencies=[5e6])
        for mode in (MixerMode.ACTIVE, MixerMode.PASSIVE):
            mixer = ReconfigurableMixer(design, mode)
            scalar = np.array([mixer.conversion_gain_db(f, 5e6)
                               for f in frequencies])
            _, vectorized = sweep.curve("conversion_gain_db",
                                        "rf_frequency_hz", mode=mode)
            assert vectorized.tobytes() == scalar.tobytes()

    def test_design_axis_against_fresh_mixers(self) -> None:
        sweep = SweepRunner(MixerDesign(),
                            specs=("noise_figure_db", "iip3_dbm")).run(
            if_frequencies=IF_GRID[::6], designs=DESIGN_VARIATIONS)
        for label, design in DESIGN_VARIATIONS.items():
            for mode in (MixerMode.ACTIVE, MixerMode.PASSIVE):
                mixer = ReconfigurableMixer(design, mode)
                _, nf_curve = sweep.curve("noise_figure_db",
                                          "if_frequency_hz",
                                          design=label, mode=mode)
                scalars = np.array([mixer.noise_figure_db(f)
                                    for f in IF_GRID[::6]])
                assert nf_curve.tobytes() == scalars.tobytes()
                assert sweep.value("iip3_dbm", design=label, mode=mode,
                                   if_frequency_hz=5e6) == mixer.iip3_dbm()


# -- property-based search over the frequency plane -------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=60, deadline=None)
@given(
    rf_hz=st.floats(min_value=1e8, max_value=1e10),
    if_hz=st.floats(min_value=1e3, max_value=2e8),
    mode=st.sampled_from([MixerMode.ACTIVE, MixerMode.PASSIVE]),
)
def test_property_conversion_gain_equivalence(rf_hz: float, if_hz: float,
                                              mode: MixerMode) -> None:
    """Any (rf, if, mode) point: scalar wrapper == array variant, exactly."""
    mixer = _MIXERS["nominal"]
    mixer.set_mode(mode)
    scalar = mixer.conversion_gain_db(rf_hz, if_hz)
    array = mixer.conversion_gain_db_array(np.array([rf_hz]),
                                           np.array([if_hz]))
    assert float(array[0]) == scalar


@settings(max_examples=60, deadline=None)
@given(
    if_hz=st.floats(min_value=1e3, max_value=2e8),
    mode=st.sampled_from([MixerMode.ACTIVE, MixerMode.PASSIVE]),
)
def test_property_noise_figure_equivalence(if_hz: float,
                                           mode: MixerMode) -> None:
    """Any (if, mode) point: scalar NF == array NF, exactly."""
    mixer = _MIXERS["nominal"]
    mixer.set_mode(mode)
    scalar = mixer.noise_figure_db(if_hz)
    array = mixer.noise_figure_db_array(np.array([if_hz]))
    assert float(array[0]) == scalar
