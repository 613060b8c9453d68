"""Block-seeded vs lazy equivalence suite for the Gm-stage intermediates.

After a batched width solve, :func:`~repro.core.reconfigurable_mixer.\
seed_gm_widths` seeds every mixer of a design block — the sized device, the
shared bias point and the Taylor memo of both TCA configurations — in one
array pass.  The contract is **bit-identity** with the lazy scalar chain
each mixer would otherwise run cell by cell; every golden pin and served
payload rests on it.  This suite checks it on generated Monte-Carlo blocks
(both modes, every :class:`SpecIntermediates` field), on a block holding a
design whose degenerated fixed point diverges, and end to end through a
multi-design :class:`~repro.waveform.WaveformRunner` block.  It also pins
the scalar path's one-solve-per-mixer sharing.
"""

from __future__ import annotations

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import MixerDesign, MixerMode
from repro.core.reconfigurable_mixer import (
    ReconfigurableMixer,
    SpecIntermediates,
    seed_gm_widths,
)
from repro.core.transconductance import (
    TAYLOR_DELTA,
    TransconductanceAmplifier,
    seed_gm_stages,
    sizing_solve_count,
    solve_widths,
)
from repro.sweep.montecarlo import DeviceSpread, sample_design
from repro.waveform import WaveformRunner, two_tone_plan

MODES = (MixerMode.ACTIVE, MixerMode.PASSIVE)

# Every lazy mixer runs a scalar sizing solve; keep the example count small.
BLOCK_SETTINGS = settings(max_examples=8, deadline=None)


def _block(seed: int, count: int) -> list[MixerDesign]:
    rng = np.random.default_rng(seed)
    return [sample_design(MixerDesign(), rng, DeviceSpread(), f"blk-{i:02d}")
            for i in range(count)]


def _seeded(records: list[MixerDesign]) -> list[ReconfigurableMixer]:
    mixers = [ReconfigurableMixer(record) for record in records]
    seed_gm_widths(mixers, solve_widths(records))
    return mixers


def _intermediates_field_diffs(seeded: SpecIntermediates,
                               lazy: SpecIntermediates) -> list[str]:
    return [field.name for field in fields(SpecIntermediates)
            if getattr(seeded, field.name) != getattr(lazy, field.name)]


class TestBlockSeedingEquivalence:
    @BLOCK_SETTINGS
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           count=st.integers(min_value=2, max_value=5))
    def test_seeded_block_matches_lazy_mixers(self, seed, count):
        records = _block(seed, count)
        for index, (seeded, record) in enumerate(
                zip(_seeded(records), records)):
            lazy = ReconfigurableMixer(record)
            for mode in MODES:
                seeded.set_mode(mode)
                lazy.set_mode(mode)
                # Seeded state is read before anything lazy can fill it.
                assert seeded.transconductor.bias_point == \
                    lazy.transconductor.bias_point
                assert seeded.transconductor.taylor_coefficients() == \
                    lazy.transconductor.taylor_coefficients()
                assert seeded.transconductor.device.params == \
                    lazy.transconductor.device.params
                diffs = _intermediates_field_diffs(
                    seeded.spec_intermediates(), lazy.spec_intermediates())
                assert not diffs, f"design {index} {mode.value}: {diffs}"

    def test_seeded_cells_need_no_sizing_solve(self):
        mixers = _seeded(_block(11, 4))
        solves = sizing_solve_count()
        for mixer in mixers:
            for mode in MODES:
                mixer.set_mode(mode)
                mixer.spec_intermediates()
        assert sizing_solve_count() == solves

    def test_seeds_the_default_taylor_memo_only(self):
        mixer = _seeded(_block(3, 2))[0]
        assert set(mixer._tca_passive._taylor_cache) == {TAYLOR_DELTA}
        # Other steps still solve lazily, from the seeded bias point.
        assert mixer._tca_passive.taylor_coefficients(2e-3) == \
            TransconductanceAmplifier(
                mixer.design, mixer.design.degeneration_resistance
            ).taylor_coefficients(2e-3)

    def test_width_count_must_match(self):
        with pytest.raises(ValueError, match="2 widths for 1 Gm stages"):
            seed_gm_stages([TransconductanceAmplifier(MixerDesign())],
                           [1e-5, 2e-5])


class TestDivergentNeighbour:
    """A block keeps going around a design whose fixed point diverges."""

    @pytest.fixture(scope="class")
    def block(self):
        records = _block(23, 3)
        records[1] = replace(records[1], degeneration_resistance=1e6)
        return records, _seeded(records)

    def test_neighbours_are_seeded(self, block):
        records, mixers = block
        for index in (0, 2):
            for stage in (mixers[index]._tca_active,
                          mixers[index]._tca_passive):
                assert TAYLOR_DELTA in stage._taylor_cache
        divergent = mixers[1]
        assert TAYLOR_DELTA in divergent._tca_active._taylor_cache
        assert TAYLOR_DELTA not in divergent._tca_passive._taylor_cache

    def test_divergent_cell_raises_the_lazy_error(self, block):
        records, mixers = block
        divergent = mixers[1]
        divergent.set_mode(MixerMode.PASSIVE)
        with pytest.raises(RuntimeError, match="failed to converge") as seeded:
            divergent.spec_intermediates()
        lazy = ReconfigurableMixer(records[1], MixerMode.PASSIVE)
        with pytest.raises(RuntimeError) as unseeded:
            lazy.spec_intermediates()
        assert str(seeded.value) == str(unseeded.value)

    def test_divergent_design_active_mode_still_matches(self, block):
        records, mixers = block
        mixers[1].set_mode(MixerMode.ACTIVE)
        lazy = ReconfigurableMixer(records[1], MixerMode.ACTIVE)
        assert mixers[1].spec_intermediates() == lazy.spec_intermediates()


class TestSharedScalarSizing:
    """Both TCA configurations of one mixer share one lazy solve."""

    def test_one_solve_per_mixer(self):
        record = _block(31, 1)[0]
        mixer = ReconfigurableMixer(record)
        solves = sizing_solve_count()
        assert not mixer.gm_device_sized()
        assert sizing_solve_count() == solves  # a pure read
        for mode in MODES:
            mixer.set_mode(mode)
            mixer.spec_intermediates()
        assert sizing_solve_count() == solves + 1
        assert mixer.gm_device_sized()
        assert mixer._tca_active.device is mixer._tca_passive.device
        assert mixer._tca_active.bias_point is mixer._tca_passive.bias_point

    def test_shared_width_is_the_standalone_width(self):
        record = _block(37, 1)[0]
        mixer = ReconfigurableMixer(record, MixerMode.PASSIVE)
        mixer.spec_intermediates()
        standalone = TransconductanceAmplifier(record)
        assert mixer._tca_active.device.params == standalone.device.params
        assert mixer._tca_passive.bias_point == standalone.bias_point


def test_waveform_block_matches_solo_runs(design, sample_rate, num_samples):
    """A multi-design waveform block (batch-seeded) equals solo runs."""
    designs = {f"wf-{i}": record for i, record in enumerate(_block(41, 3))}
    plan = two_tone_plan(2.405e9, 2.407e9, (-40.0, -30.0), sample_rate,
                         num_samples, lo_frequency=2.4e9)
    population = WaveformRunner(design).run(plan, designs=designs)
    for label, record in designs.items():
        solo = WaveformRunner(design).run(plan, designs={label: record})
        for measure in plan.measures:
            assert np.array_equal(
                population.values(measure, design=label),
                solo.values(measure, design=label)), (label, measure)
