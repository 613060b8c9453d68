"""Block spec fill vs the per-cell reference it replaced.

:class:`~repro.sweep.runner.SweepRunner` computes every (design, mode)
cell's :class:`~repro.core.reconfigurable_mixer.SpecIntermediates` in one
:func:`~repro.core.reconfigurable_mixer.spec_block` pass per mode and fills
each spec's mode slab in one broadcast.  The contract is **bit-identity**
with the per-cell scalar path (kept verbatim in ``percell_reference.py``):
every spec array byte for byte, every seeded memo entry by ``==``, the same
error text from the same design when a cell cannot be solved, and the same
disk-cache traffic.  This suite checks it on generated populations: sizes
1, 2, odd and 128, widened device spreads, a zero-mismatch design (IIP2 is
``inf``), a record repeated on the axis and multi-point RF/IF grids.
"""

from __future__ import annotations

import dataclasses
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from percell_reference import ReferenceMixer, ReferenceRunner

import repro.sweep.runner as runner_module
from repro.core.config import MixerDesign, MixerMode
from repro.core.reconfigurable_mixer import ReconfigurableMixer, spec_block
from repro.core.transconductance import sizing_solve_count
from repro.sweep import DeviceSpread, SpecCache, SweepRunner, sample_design
from repro.sweep.runner import ALL_SPECS

MODES = (MixerMode.ACTIVE, MixerMode.PASSIVE)


def _population(seed: int, count: int, widen: float = 1.0
                ) -> list[MixerDesign]:
    base = DeviceSpread()
    spread = DeviceSpread(*(widen * getattr(base, field.name)
                            for field in dataclasses.fields(base)))
    rng = np.random.default_rng(seed)
    return [sample_design(MixerDesign(), rng, spread, f"blk-{i:03d}")
            for i in range(count)]


def _assert_same_sweeps(block, reference) -> None:
    assert block.spec_names == reference.spec_names
    for spec in reference.spec_names:
        assert block.data[spec].tobytes() == reference.data[spec].tobytes(), \
            spec


def _assert_same_memos(block_runner, reference_runner, records, modes) -> None:
    for index, record in enumerate(records):
        for mode in modes:
            block_cell = block_runner.mixer_for(record).peek_intermediates(mode)
            reference_cell = reference_runner.mixer_for(
                record).peek_intermediates(mode)
            assert block_cell is not None
            assert block_cell == reference_cell, (index, mode.value)


class TestBlockFillMatchesPerCell:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           count=st.sampled_from([1, 2, 3, 7, 128]),
           widen=st.sampled_from([1.0, 3.0]),
           zero_mismatch=st.booleans(),
           repeat=st.booleans(),
           rf_points=st.integers(min_value=1, max_value=5),
           if_points=st.integers(min_value=1, max_value=4),
           modes=st.sampled_from([MODES, MODES[::-1], MODES[1:]]))
    def test_generated_population(self, seed, count, widen, zero_mismatch,
                                  repeat, rf_points, if_points, modes):
        records = _population(seed, count, widen)
        if zero_mismatch:
            records[-1] = replace(records[-1], differential_mismatch=0.0)
        designs = {f"d{i}": record for i, record in enumerate(records)}
        if repeat:
            designs["again"] = records[0]
        grid = dict(rf_frequencies=np.geomspace(0.4e9, 6e9, rf_points),
                    if_frequencies=np.geomspace(2e4, 60e6, if_points),
                    modes=list(modes), designs=designs)

        block_runner = SweepRunner(specs=ALL_SPECS)
        reference_runner = ReferenceRunner(specs=ALL_SPECS)
        _assert_same_sweeps(block_runner.run(**grid),
                            reference_runner.run(**grid))
        _assert_same_memos(block_runner, reference_runner, records, modes)
        if zero_mismatch:
            cell = block_runner.mixer_for(records[-1]).peek_intermediates(
                modes[0])
            assert cell.iip2_dbm == np.inf

    def test_nominal_spot_and_dense_grid(self):
        for grid in ({}, dict(rf_frequencies=np.geomspace(0.2e9, 8e9, 17),
                              if_frequencies=np.geomspace(1e4, 1e8, 9))):
            _assert_same_sweeps(SweepRunner(specs=ALL_SPECS).run(**grid),
                                ReferenceRunner(specs=ALL_SPECS).run(**grid))

    def test_designs_where_numpy_squares_differ_from_pow(self):
        """Designs whose IIP3 moves by one ulp if a square is taken as x * x.

        ``x ** 2`` of a Python float is libm ``pow``; NumPy's ``x * x``
        differs from it in the last bit for a few designs in a thousand, so
        random populations alone rarely reach the hazard.  These two (one
        active-mode, one passive-mode case) pin it.
        """
        records = [_population(1, 122)[121], _population(9, 172)[171]]
        _assert_same_sweeps(
            SweepRunner(specs=ALL_SPECS).run(designs=records),
            ReferenceRunner(specs=ALL_SPECS).run(designs=records))

    def test_scalar_accessors_are_a_block_of_one(self):
        for record in _population(41, 3, widen=3.0):
            for mode in MODES:
                mixer = ReconfigurableMixer(record, mode)
                reference = ReferenceMixer(record, mode)
                assert mixer.spec_intermediates() == \
                    reference.spec_intermediates()
                assert spec_block([mixer], mode) == \
                    [reference.spec_intermediates()]


class TestFailingDesigns:
    """A block raises the per-cell error, from the first failing design."""

    @pytest.fixture(scope="class")
    def records(self):
        records = _population(23, 6)
        for index, resistance in ((2, 1e6), (4, 2e6)):
            records[index] = replace(records[index],
                                     degeneration_resistance=resistance)
        return records

    @staticmethod
    def _error(run) -> tuple[type, str]:
        with pytest.raises(Exception) as caught:
            run()
        return type(caught.value), str(caught.value)

    def test_divergent_design_raises_the_reference_text(self, records):
        block = self._error(lambda: SweepRunner().run(designs=records))
        reference = self._error(lambda: ReferenceRunner().run(designs=records))
        assert block == reference
        assert block[0] is RuntimeError
        assert "failed to converge" in block[1]
        # The text names the first divergent design's r_s, not the second's.
        first = self._error(
            lambda: ReferenceMixer(records[2], MixerMode.PASSIVE)
            .spec_intermediates())
        assert block == first
        assert first != self._error(
            lambda: ReferenceMixer(records[4], MixerMode.PASSIVE)
            .spec_intermediates())

    def test_spec_block_raises_the_first_in_block_order(self, records):
        mixers = [ReconfigurableMixer(record) for record in records]
        block = self._error(lambda: spec_block(mixers, MixerMode.PASSIVE))
        first = self._error(
            lambda: ReferenceMixer(records[2], MixerMode.PASSIVE)
            .spec_intermediates())
        assert block == first

    def test_unreachable_gm_raises_the_reference_text(self, records):
        unreachable = replace(records[0], tca_gm=10.0)
        for designs in ([unreachable], [records[1], unreachable]):
            block = self._error(lambda: SweepRunner().run(designs=designs))
            reference = self._error(
                lambda: ReferenceRunner().run(designs=designs))
            assert block == reference
            assert block[0] is ValueError

    def test_errors_surface_in_design_then_mode_order(self, records):
        """An active-mode failure later on the axis does not jump the queue.

        Earlier single-mode runs size the first two designs, so the last
        run sizes only the unreachable design, lazily, in its active cell.
        The per-cell order reaches the divergent design's passive cell
        first, and so must the per-mode blocks.
        """
        healthy, divergent = records[0], records[2]
        unreachable = replace(records[1], tca_gm=10.0)
        errors = []
        for runner in (SweepRunner(), ReferenceRunner()):
            runner.run(designs=[healthy], modes=[MixerMode.PASSIVE])
            runner.run(designs=[divergent], modes=[MixerMode.ACTIVE])
            errors.append(self._error(lambda: runner.run(
                designs=[healthy, divergent, unreachable],
                modes=list(MODES))))
        assert errors[0] == errors[1]
        assert errors[0][0] is RuntimeError


class TestCacheAccounting:
    """The block fill loads, stores and counts exactly like the per-cell one."""

    @staticmethod
    def _scenario(runner_type, directory):
        records = _population(57, 6)
        # Warm some cells: the first three designs, active mode only.
        runner_type(cache=SpecCache(directory)).run(
            designs=records[:3], modes=[MixerMode.ACTIVE])
        designs = {f"d{i}": record for i, record in enumerate(records)}
        designs["again"] = records[2]
        cache = SpecCache(directory)
        sweep = runner_type(specs=ALL_SPECS, cache=cache).run(
            rf_frequencies=[1e9, 2.405e9], designs=designs)
        payloads = {path.name: path.read_bytes()
                    for path in sorted(directory.glob("*.json"))}
        return designs, cache, sweep, payloads

    @staticmethod
    def _counts(cache: SpecCache) -> tuple[int, int, int, int]:
        return cache.hits, cache.misses, cache.stores, cache.corrupt

    def test_counts_and_payloads_match_the_per_cell_runner(self, tmp_path):
        _, block_cache, block, block_payloads = self._scenario(
            SweepRunner, tmp_path / "block")
        _, reference_cache, reference, reference_payloads = self._scenario(
            ReferenceRunner, tmp_path / "reference")
        assert self._counts(block_cache) == self._counts(reference_cache)
        # 6 distinct designs x 2 modes: the 3 warm active cells hit, the
        # other 9 miss and are stored once each (the repeat adds nothing).
        assert self._counts(block_cache) == (3, 9, 9, 0)
        assert block_payloads == reference_payloads
        assert len(block_payloads) == 12
        _assert_same_sweeps(block, reference)

    def test_warm_rerun_solves_and_computes_nothing(self, tmp_path,
                                                    monkeypatch):
        designs, _, cold, _ = self._scenario(SweepRunner, tmp_path)
        computed = []

        def counting_block(mixers, mode):
            computed.extend(mixers)
            return spec_block(mixers, mode)

        monkeypatch.setattr(runner_module, "spec_block", counting_block)
        cache = SpecCache(tmp_path)
        solves = sizing_solve_count()
        warm = SweepRunner(specs=ALL_SPECS, cache=cache).run(
            rf_frequencies=[1e9, 2.405e9], designs=designs)
        assert sizing_solve_count() == solves
        assert computed == []
        assert self._counts(cache) == (12, 0, 0, 0)
        _assert_same_sweeps(warm, cold)
