"""Scalar-vs-batched equivalence suite for the array sizing solver.

The batched :func:`~repro.core.transconductance.solve_widths` path promises
**bit-identical** results to the lazy scalar bisection it replaces — that
contract is what keeps every golden spec pin and design fingerprint
unchanged when the sweep and waveform engines pre-size whole design blocks.
This suite pins the contract at every layer: the :class:`MosfetArray`
device model against the scalar :class:`Mosfet`, the array bias solve
against the scalar one, the width solver against
:meth:`TransconductanceAmplifier._size_device`, and the per-element error
path of an unreachable target.  The width solvers skip the bisection
steps that cannot change a bit (both stop at the fixed point; the batched
one also resumes each bias solve where the width endpoints' paths part); a
differential test pins them against the plain algorithm kept here as a
reference, and a work gate counts the device evaluations the resume saves.  The suite also carries the
regression test for the degenerated-bias fixed-point loop, which now raises
instead of silently returning a stale current when it fails to converge.
"""

from __future__ import annotations

import math
from dataclasses import fields, replace

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


def _reference_vgs(device: Mosfet, target: float, vds: float) -> float:
    """The plain bias bisection: from ``[vth, vth + 3]`` on every call."""
    lo = device.params.vth
    hi = lo + 3.0
    if device.operating_point(hi, vds).id < target:
        raise ValueError(
            f"target current {target:.3g} A is unreachable for this geometry")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if device.operating_point(mid, vds).id < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    return 0.5 * (lo + hi)


def _reference_width(design: MixerDesign) -> float:
    """The plain width solve: 80 full steps, each bias solve from scratch."""
    bias = design.tca_bias_current / 2.0
    vds = design.technology.mid_rail

    def gm_at(width: float) -> float:
        device = Mosfet.nmos(width, design.gm_device_length, design.technology)
        return device.operating_point(_reference_vgs(device, bias, vds),
                                      vds).gm

    lo, hi = 2e-6, 2000e-6
    if gm_at(hi) < design.tca_gm:
        raise ValueError("target gm unreachable within the width search range")
    for _ in range(80):
        mid = math.sqrt(lo * hi)
        if gm_at(mid) < design.tca_gm:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


#: Base technologies and Gm-device lengths the differential blocks mix.
_CORNERS = (UMC65_LIKE, slow_corner(), fast_corner())
_LENGTHS = (65e-9, 100e-9, 180e-9)


@st.composite
def _design_blocks(draw) -> list[MixerDesign]:
    """Monte-Carlo blocks of 1, 2 or an odd number of designs.

    Each element draws its own base corner and Gm length, and the whole
    block samples a ``DeviceSpread`` widened up to 3x.
    """
    size = draw(st.sampled_from((1, 2, 3, 5, 7)))
    widen = draw(st.floats(min_value=1.0, max_value=3.0))
    base = DeviceSpread()
    spread = DeviceSpread(*(widen * getattr(base, f.name)
                            for f in fields(base)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    corners = draw(st.lists(st.sampled_from(_CORNERS),
                            min_size=size, max_size=size))
    lengths = draw(st.lists(st.sampled_from(_LENGTHS),
                            min_size=size, max_size=size))
    return [sample_design(replace(MixerDesign(), technology=corner,
                                  gm_device_length=length),
                          rng, spread, f"hyp-{i}")
            for i, (corner, length) in enumerate(zip(corners, lengths))]


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
        with pytest.raises(ValueError) as excinfo:
            TransconductanceAmplifier(
                replace(MixerDesign(), tca_gm=1.0)).device
        assert str(excinfo.value) == (
            "target gm unreachable within the width search range")


class TestResumedSizing:
    """Fixed-point stop and bias-path resume change no bit and save work."""

    @settings(max_examples=8, deadline=None)
    @given(block=_design_blocks())
    def test_solvers_match_reference_bitwise(self, block):
        reference = np.array([_reference_width(d) for d in block])
        scalar = np.array([_scalar_width(d) for d in block])
        assert solve_widths(block).tobytes() == reference.tobytes()
        assert scalar.tobytes() == reference.tobytes()

    def test_unreachable_current_text_is_unchanged(self):
        # Reachable at the 2000 um bracket end, but not at the 11 um the
        # width bisection visits on its second step.
        design = MixerDesign()
        bad = replace(design, tca_gm=1e-6, tca_bias_current=0.1)
        with pytest.raises(ValueError) as reference:
            _reference_width(bad)
        with pytest.raises(ValueError) as scalar:
            _scalar_width(bad)
        assert str(scalar.value) == str(reference.value) == (
            "target current 0.05 A is unreachable for this geometry")
        with pytest.raises(ValueError) as batched:
            solve_widths([design, bad])
        assert str(batched.value) == (
            "target current is unreachable for this geometry at bank "
            "element(s): [1] 0.05 A")

    def test_work_gate(self, monkeypatch):
        # Deterministic and untimed: the plain algorithm makes 3,564 current
        # evaluations on this block, the resumed one about 1,100.
        calls = 0
        current = MosfetArray._current

        def counted(self, *args):
            nonlocal calls
            calls += 1
            return current(self, *args)

        grid = _mc_designs(128, seed=7)
        monkeypatch.setattr(MosfetArray, "_current", counted)
        solve_widths(grid)
        assert 0 < calls <= 1200


class TestCurrentMonotoneInWidth:
    """The premise of the resume: float64 drain current never falls with W."""

    @staticmethod
    def _widths(width, other):
        return sorted({width, float(np.nextafter(width, 1.0)), other})

    @COMMON_SETTINGS
    @given(width=st.floats(min_value=2e-6, max_value=2000e-6),
           other=st.floats(min_value=2e-6, max_value=2000e-6),
           vov=st.floats(min_value=1e-6, max_value=3.0),
           vds_share=st.floats(min_value=0.0, max_value=2.0),
           corner=st.sampled_from(_CORNERS))
    def test_nmos_scalar_and_array(self, width, other, vov, vds_share, corner):
        # vds_share < 1 puts the device in triode, >= 1 in saturation.
        vgs, vds = corner.vth_n + vov, vov * vds_share
        widths = self._widths(width, other)
        scalar = [Mosfet.nmos(w, 100e-9, corner).drain_current(vgs, vds)
                  for w in widths]
        banked = MosfetArray.nmos(np.array(widths), 100e-9,
                                  corner).drain_current(vgs, vds)
        assert scalar == sorted(scalar)
        assert np.all(np.diff(banked) >= 0.0)

    @COMMON_SETTINGS
    @given(width=st.floats(min_value=2e-6, max_value=2000e-6),
           other=st.floats(min_value=2e-6, max_value=2000e-6),
           vov=st.floats(min_value=1e-6, max_value=3.0),
           vds_share=st.floats(min_value=0.0, max_value=2.0))
    def test_pmos_scalar_and_array(self, width, other, vov, vds_share):
        vgs, vds = -(UMC65_LIKE.vth_p + vov), -vov * vds_share
        widths = self._widths(width, other)
        scalar = [Mosfet.pmos(w, 100e-9).drain_current(vgs, vds)
                  for w in widths]
        banked = MosfetArray.pmos(np.array(widths),
                                  100e-9).drain_current(vgs, vds)
        assert scalar == sorted(scalar)
        assert np.all(np.diff(banked) >= 0.0)


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
