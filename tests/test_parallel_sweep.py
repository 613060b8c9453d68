"""Tests for SweepResult concatenation and the sharded Monte-Carlo run.

The sharded runner itself is covered engine by engine in
``tests/test_engine_spine.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import MixerMode
from repro.sweep import (
    DESIGN_AXIS,
    SweepAxis,
    SweepResult,
    run_monte_carlo,
)


class TestConcat:
    def _result(self, labels, base=0.0) -> SweepResult:
        axes = (SweepAxis.categorical(DESIGN_AXIS, labels),
                SweepAxis.numeric("rf_frequency_hz", [1e9, 2e9]))
        data = {"gain_db": base + np.arange(2.0 * len(labels)).reshape(
            len(labels), 2)}
        return SweepResult(axes, data)

    def test_concat_preserves_order_and_values(self):
        joined = SweepResult.concat(
            [self._result(["a", "b"]), self._result(["c"], base=100.0)])
        assert joined.axis(DESIGN_AXIS).values == ("a", "b", "c")
        np.testing.assert_array_equal(
            joined.values("gain_db", design="c"), [100.0, 101.0])
        np.testing.assert_array_equal(
            joined.values("gain_db", design="a"), [0.0, 1.0])

    def test_concat_along_numeric_axis(self):
        axes_a = (SweepAxis.numeric("rf_frequency_hz", [1e9]),)
        axes_b = (SweepAxis.numeric("rf_frequency_hz", [2e9, 3e9]),)
        joined = SweepResult.concat(
            [SweepResult(axes_a, {"gain_db": np.array([1.0])}),
             SweepResult(axes_b, {"gain_db": np.array([2.0, 3.0])})],
            axis="rf_frequency_hz")
        assert joined.axis("rf_frequency_hz").values == (1e9, 2e9, 3e9)
        np.testing.assert_array_equal(joined.data["gain_db"], [1.0, 2.0, 3.0])

    def test_single_shard_is_identity(self):
        shard = self._result(["a", "b"], base=7.0)
        joined = SweepResult.concat([shard])
        assert joined.axes == shard.axes
        assert joined.spec_names == shard.spec_names
        np.testing.assert_array_equal(joined.data["gain_db"],
                                      shard.data["gain_db"])

    def test_single_shard_accepts_any_iterable(self):
        joined = SweepResult.concat(iter([self._result(["a"])]))
        assert joined.axis(DESIGN_AXIS).values == ("a",)

    def test_concat_along_unknown_axis_name(self):
        with pytest.raises(KeyError, match="no axis named"):
            SweepResult.concat([self._result(["a"])], axis="if_frequency_hz")

    def test_concat_rejects_different_axis_names(self):
        other_axes = (SweepAxis.categorical(DESIGN_AXIS, ["z"]),
                      SweepAxis.numeric("if_frequency_hz", [1e6, 2e6]))
        other = SweepResult(other_axes, {"gain_db": np.zeros((1, 2))})
        with pytest.raises(ValueError, match="different axes"):
            SweepResult.concat([self._result(["a"]), other])

    def test_concat_rejects_different_grid_lengths(self):
        other_axes = (SweepAxis.categorical(DESIGN_AXIS, ["z"]),
                      SweepAxis.numeric("rf_frequency_hz", [1e9, 2e9, 3e9]))
        other = SweepResult(other_axes, {"gain_db": np.zeros((1, 3))})
        with pytest.raises(ValueError, match="only 'design' may vary"):
            SweepResult.concat([self._result(["a"]), other])

    def test_concat_rejects_empty_and_mismatches(self):
        with pytest.raises(ValueError, match="at least one"):
            SweepResult.concat([])
        with pytest.raises(ValueError, match="duplicate"):
            SweepResult.concat([self._result(["a"]), self._result(["a"])])
        other_axes = (SweepAxis.categorical(DESIGN_AXIS, ["z"]),
                      SweepAxis.numeric("rf_frequency_hz", [5e9, 6e9]))
        other = SweepResult(other_axes, {"gain_db": np.zeros((1, 2))})
        with pytest.raises(ValueError, match="only 'design' may vary"):
            SweepResult.concat([self._result(["a"]), other])
        renamed = SweepResult(self._result(["z"]).axes,
                              {"nf_db": np.zeros((1, 2))})
        with pytest.raises(ValueError, match="different specs"):
            SweepResult.concat([self._result(["a"]), renamed])


class TestMonteCarloParallel:
    def test_workers_reproduce_the_single_process_run(self, design):
        baseline = run_monte_carlo(design, num_samples=6, seed=21)
        sharded = run_monte_carlo(design, num_samples=6, seed=21, workers=3)
        for spec in baseline.sweep.spec_names:
            np.testing.assert_array_equal(sharded.sweep.data[spec],
                                          baseline.sweep.data[spec])
        for mode in (MixerMode.ACTIVE, MixerMode.PASSIVE):
            np.testing.assert_array_equal(
                sharded.samples("conversion_gain_db", mode),
                baseline.samples("conversion_gain_db", mode))
