"""Scalar-vs-batched equivalence suite for the array sizing solver.

The batched :func:`~repro.core.transconductance.solve_widths` path promises
**bit-identical** results to the lazy scalar bisection it replaces — that
contract is what keeps every golden spec pin and design fingerprint
unchanged when the sweep and waveform engines pre-size whole design blocks.
This suite pins the contract at every layer: the :class:`MosfetArray`
device model against the scalar :class:`Mosfet`, the array bias solve
against the scalar one, the width solver against
:meth:`TransconductanceAmplifier._size_device`, and the per-element error
path of an unreachable target.  It also carries the regression test for the
degenerated-bias fixed-point loop, which now raises instead of silently
returning a stale current when it fails to converge.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import MixerDesign, MixerMode
from repro.core.reconfigurable_mixer import ReconfigurableMixer, seed_gm_widths
from repro.core.transconductance import (
    TransconductanceAmplifier,
    batched_sizing_solve_count,
    sizing_solve_count,
    solve_widths,
)
from repro.devices.mosfet import Mosfet, MosfetArray
from repro.devices.technology import UMC65_LIKE, fast_corner, slow_corner
from repro.sweep.montecarlo import DeviceSpread, sample_design

# Sizing solves are deterministic but not instant; keep example counts sane.
COMMON_SETTINGS = settings(max_examples=25, deadline=None)

#: Multiplicative perturbations of the sizing-relevant design knobs — wide
#: enough to move the solved width by decades, narrow enough to stay
#: reachable within the width bracket.
_SCALES = st.tuples(st.floats(min_value=0.5, max_value=1.6),
                    st.floats(min_value=0.6, max_value=1.5))


def _perturbed(design: MixerDesign, gm_scale: float,
               bias_scale: float) -> MixerDesign:
    return replace(design, tca_gm=design.tca_gm * gm_scale,
                   tca_bias_current=design.tca_bias_current * bias_scale)


def _scalar_width(design: MixerDesign) -> float:
    return TransconductanceAmplifier(design).device.params.width


def _mc_designs(count: int, seed: int = 19) -> list[MixerDesign]:
    design = MixerDesign()
    rng = np.random.default_rng(seed)
    spread = DeviceSpread()
    return [sample_design(design, rng, spread, f"mc-{i:03d}")
            for i in range(count)]


class TestMosfetArrayEquivalence:
    """MosfetArray evaluates every element exactly like a scalar Mosfet."""

    @COMMON_SETTINGS
    @given(vgs=st.floats(min_value=0.0, max_value=1.2),
           vds=st.floats(min_value=-0.1, max_value=1.2),
           width=st.floats(min_value=2e-6, max_value=2000e-6))
    def test_operating_point_matches_scalar_nmos(self, vgs, vds, width):
        scalar = Mosfet.nmos(width, 100e-9)
        bank = MosfetArray.nmos(np.array([width, 20e-6]),
                                np.array([100e-9, 100e-9]))
        scalar_op = scalar.operating_point(vgs, vds)
        bank_op = bank.operating_point(vgs, vds)
        for field in ("id", "gm", "gds", "vgs", "vds", "vov"):
            assert getattr(bank_op, field)[0] == getattr(scalar_op, field), field
        assert bank_op.regions[0] is scalar_op.region

    @COMMON_SETTINGS
    @given(vgs=st.floats(min_value=-1.2, max_value=0.0),
           vds=st.floats(min_value=-1.2, max_value=0.1))
    def test_operating_point_matches_scalar_pmos(self, vgs, vds):
        scalar = Mosfet.pmos(40e-6, 100e-9)
        bank = MosfetArray.pmos(np.array([40e-6]), np.array([100e-9]))
        scalar_op = scalar.operating_point(vgs, vds)
        bank_op = bank.operating_point(vgs, vds)
        for field in ("id", "gm", "gds", "vgs", "vds", "vov"):
            assert getattr(bank_op, field)[0] == getattr(scalar_op, field), field
        assert bank_op.regions[0] is scalar_op.region

    def test_per_element_technologies(self):
        corners = [slow_corner(), UMC65_LIKE, fast_corner()]
        bank = MosfetArray.nmos(np.full(3, 20e-6), np.full(3, 100e-9),
                                technologies=corners)
        banked = bank.operating_point(0.8, 0.6)
        for index, corner in enumerate(corners):
            scalar = Mosfet.nmos(20e-6, 100e-9, corner)
            assert banked.gm[index] == scalar.operating_point(0.8, 0.6).gm

    @COMMON_SETTINGS
    @given(target=st.floats(min_value=1e-6, max_value=3e-3),
           width=st.floats(min_value=5e-6, max_value=500e-6))
    def test_vgs_for_current_matches_scalar(self, target, width):
        scalar = Mosfet.nmos(width, 100e-9)
        bank = MosfetArray.nmos(np.array([width]), np.array([100e-9]))
        assert bank.vgs_for_current(np.array([target]), 0.6)[0] == \
            scalar.vgs_for_current(target, 0.6)

    def test_vgs_for_current_zero_target_is_zero(self):
        bank = MosfetArray.nmos(np.array([20e-6, 20e-6]), np.array([100e-9]))
        vgs = bank.vgs_for_current(np.array([0.0, 1e-4]), 0.6)
        assert vgs[0] == 0.0
        assert vgs[1] > 0.0

    def test_vgs_for_current_unreachable_names_elements(self):
        bank = MosfetArray.nmos(np.array([20e-6, 2e-6]), np.array([100e-9]))
        with pytest.raises(ValueError, match=r"\[1\]"):
            bank.vgs_for_current(np.array([1e-4, 10.0]), 0.6)

    def test_element_round_trip(self):
        bank = MosfetArray.nmos(np.array([10e-6, 30e-6]), np.array([100e-9]))
        assert bank.element(1).params.width == 30e-6
        assert len(bank) == 2


class TestSolveWidthsEquivalence:
    """The batched width solver is bit-identical to N scalar bisections."""

    @COMMON_SETTINGS
    @given(scales=st.lists(_SCALES, min_size=2, max_size=6))
    def test_widths_match_scalar_bitwise(self, scales):
        design = MixerDesign()
        grid = [_perturbed(design, gm, bias) for gm, bias in scales]
        batched = solve_widths(grid)
        scalar = np.array([_scalar_width(record) for record in grid])
        assert np.array_equal(batched, scalar)

    def test_monte_carlo_grid_matches_scalar(self):
        grid = _mc_designs(24)
        batched = solve_widths(grid)
        for index, record in enumerate(grid):
            tca = TransconductanceAmplifier(record)
            assert batched[index] == tca.device.params.width
            # The bias point downstream of the width is equally identical.
            seeded = TransconductanceAmplifier(record)
            seeded.seed_device(Mosfet.nmos(float(batched[index]),
                                           record.gm_device_length,
                                           record.technology))
            assert seeded.bias_point == tca.bias_point
            assert seeded.raw_gm == tca.raw_gm

    def test_mixer_intermediates_match_lazy_path(self):
        # Seeding a mixer with the batched width reproduces the lazy
        # mixer's spec intermediates field for field, both modes.
        for record in _mc_designs(4, seed=5):
            width = float(solve_widths([record, record])[0])
            seeded, lazy = ReconfigurableMixer(record), ReconfigurableMixer(record)
            seed_gm_widths([seeded], [width])
            assert seeded.gm_device_sized()
            for mode in (MixerMode.ACTIVE, MixerMode.PASSIVE):
                seeded.set_mode(mode)
                lazy.set_mode(mode)
                assert seeded.spec_intermediates() == lazy.spec_intermediates()

    def test_counters(self):
        grid = _mc_designs(5, seed=3)
        solves, batches = sizing_solve_count(), batched_sizing_solve_count()
        solve_widths(grid)
        assert sizing_solve_count() == solves + len(grid)
        assert batched_sizing_solve_count() == batches + 1

    def test_empty_input(self):
        solves = sizing_solve_count()
        assert solve_widths([]).shape == (0,)
        assert sizing_solve_count() == solves

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            solve_widths(_mc_designs(3), labels=["a", "b"])

    def test_unreachable_names_offending_label_only(self):
        design = MixerDesign()
        grid = [design, replace(design, tca_gm=1.0), design]
        with pytest.raises(ValueError) as excinfo:
            solve_widths(grid, labels=["good-0", "greedy", "good-1"])
        message = str(excinfo.value)
        assert "target gm unreachable" in message
        assert "greedy" in message
        assert "good-0" not in message and "good-1" not in message

    def test_unreachable_without_labels_names_index_and_fingerprint(self):
        design = MixerDesign()
        bad = replace(design, tca_gm=1.0)
        with pytest.raises(ValueError) as excinfo:
            solve_widths([design, bad])
        message = str(excinfo.value)
        assert "design[1]" in message
        assert bad.fingerprint()[:12] in message

    def test_scalar_error_message_unchanged(self):
        with pytest.raises(ValueError,
                           match="target gm unreachable within the width "
                                 "search range"):
            TransconductanceAmplifier(
                replace(MixerDesign(), tca_gm=1.0)).device


class TestSeedDevice:
    def test_seed_skips_the_solve(self):
        design = MixerDesign()
        device = TransconductanceAmplifier(design).device
        solves = sizing_solve_count()
        tca = TransconductanceAmplifier(design)
        assert not tca.device_sized
        tca.seed_device(device)
        assert tca.device_sized
        assert tca.device is device
        assert sizing_solve_count() == solves

    def test_seed_rejects_non_mosfet(self):
        with pytest.raises(TypeError):
            TransconductanceAmplifier(MixerDesign()).seed_device(object())


class TestTaylorConvergenceGuard:
    """Regression: the fixed-point bias loop raises instead of going stale."""

    def test_nominal_degeneration_converges(self):
        design = MixerDesign()
        tca = TransconductanceAmplifier(
            design, degeneration_resistance=design.degeneration_resistance)
        assert math.isfinite(tca.taylor_coefficients().g1)

    def test_moderate_degeneration_converges(self):
        tca = TransconductanceAmplifier(MixerDesign(),
                                        degeneration_resistance=80.0)
        assert tca.taylor_coefficients().g1 > 0.0

    def test_divergent_degeneration_raises(self):
        tca = TransconductanceAmplifier(MixerDesign(),
                                        degeneration_resistance=1e6)
        with pytest.raises(RuntimeError, match="failed to converge"):
            tca.taylor_coefficients()
