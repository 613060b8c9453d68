"""The fully differential transconductance amplifier (TCA, Fig. 3).

The TCA converts the differential RF voltage into a differential current
that the switching quad commutates.  Its behavioural description is derived
from the 65 nm device model:

* the device width is solved so that the target ``gm`` is reached at the
  allotted bias current (the paper tunes the active-mode gain through this
  bias voltage);
* the third-order nonlinearity comes from a numerical Taylor expansion of
  the device I-V around the bias point — mobility degradation (``theta``)
  is the physical mechanism — and source degeneration improves it the way
  the passive mode exploits;
* thermal and flicker noise densities come straight from the device model;
* the wide-band frequency response is set by the input coupling network
  (lower band edge) and the parasitic capacitance C_PAR at the output node
  (upper band edge), which the paper explicitly minimises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.devices.mosfet import Mosfet, MosfetArray, MosfetOperatingPoint
from repro.devices.noise import FlickerNoise, ThermalNoise
from repro.devices.technology import Technology
from repro.units import REFERENCE_IMPEDANCE, dbm_from_vpeak
from repro.core.config import MixerDesign

#: Process-wide count of width-bisection sizing solves (one per device
#: sized, whether it went through the scalar or the batched path).  The
#: on-disk spec cache exists to avoid these; tests and benchmarks read the
#: counter to prove a warm-cache run performs none.
_SIZING_SOLVES = 0

#: Process-wide count of batched :func:`solve_widths` calls.  One call sizes
#: a whole design block, so the batched counter grows by 1 where
#: ``_SIZING_SOLVES`` grows by the block length.
_BATCHED_SIZING_SOLVES = 0

#: Gate excursion (V) of the Taylor expansion behind every linearity spec;
#: the default :meth:`TransconductanceAmplifier.taylor_coefficients` step
#: and the memo key :func:`seed_gm_stages` fills.
TAYLOR_DELTA = 1e-3

#: The damped fixed-point solve of a degenerated bias point: iteration cap
#: and the current step (A) below which it counts as converged.
_FIXED_POINT_STEPS = 60
_FIXED_POINT_TOLERANCE = 1e-15


def sizing_solve_count() -> int:
    """How many device sizing bisections this process has performed.

    Counts per *device*: a batched :func:`solve_widths` over N designs adds
    N, exactly what the equivalent scalar loop would have added — so the
    warm-cache "zero bisections" gates hold regardless of which solver a
    cold run used.
    """
    return _SIZING_SOLVES


def batched_sizing_solve_count() -> int:
    """How many batched :func:`solve_widths` calls this process has made."""
    return _BATCHED_SIZING_SOLVES


def solve_widths(designs: Sequence[MixerDesign],
                 labels: Sequence[str] | None = None) -> np.ndarray:
    """Batch-solve the Gm-device width for a whole block of designs.

    The array twin of :meth:`TransconductanceAmplifier._size_device`: one
    geometric-mean bisection on width (at most 80 steps) steps every design
    together through a :class:`~repro.devices.mosfet.MosfetArray`, with the
    inner bias solve masking converged elements so each design retraces the
    scalar solver's iterate sequence exactly.  The returned widths are
    **bit-identical** to N scalar solves (same bracket ``[2e-6, 2000e-6]``,
    same ``sqrt(lo * hi)`` midpoint, same comparison outcomes), which is
    what keeps the golden spec pins unchanged when the sweep engine
    pre-sizes design blocks through this path.

    Only steps that can change a bit are run: an element whose bracket comes
    out of a step unchanged is at a fixed point and frozen (the scalar
    solver stops there too), and every bias solve resumes from the deepest
    bias-bisection state the paths of the block's width brackets share
    (:func:`_shared_depth`).

    ``labels`` (optional, one per design) names offending designs in the
    ``target gm unreachable`` error; unlabeled designs are named by index
    and fingerprint.  Raises :class:`ValueError` listing every unreachable
    element.  Counts ``len(designs)`` device solves and one batched solve.
    """
    global _SIZING_SOLVES, _BATCHED_SIZING_SOLVES
    records = list(designs)
    if labels is not None and len(labels) != len(records):
        raise ValueError(
            f"got {len(labels)} labels for {len(records)} designs")
    if not records:
        return np.empty(0, dtype=float)

    lengths = np.array([r.gm_device_length for r in records], dtype=float)
    technologies = [r.technology for r in records]
    targets = np.array([r.tca_gm for r in records], dtype=float)
    bias = np.array([r.tca_bias_current / 2.0 for r in records], dtype=float)
    vds = np.array([r.technology.mid_rail for r in records], dtype=float)

    lo = np.full(len(records), 2e-6)
    hi = np.full(len(records), 2000e-6)
    bank = MosfetArray.nmos(hi, lengths, technologies)

    def gm_at_widths(widths: np.ndarray, path: list) -> np.ndarray:
        sized = bank.with_widths(widths)
        vgs = sized._solve_vgs(bias, vds, path=path)
        return sized.operating_point(vgs, vds).gm

    path: list = []
    unreachable = gm_at_widths(hi, path) < targets
    if np.any(unreachable):
        def name(index: int) -> str:
            if labels is not None:
                return str(labels[index])
            return (f"design[{index}] "
                    f"(fingerprint {records[index].fingerprint()[:12]})")
        offenders = ", ".join(name(int(i))
                              for i in np.flatnonzero(unreachable))
        raise ValueError(
            "target gm unreachable within the width search range for: "
            + offenders)
    # Bias-bisection paths of each element's current lo and hi widths.  The
    # 2 um starting lo is never evaluated, so until an element's first
    # "below" outcome its lo path is a placeholder and the block restarts
    # every bias solve from scratch.  Frozen elements ride along in the
    # array, but neither their outcome nor their paths are used again.
    hi_path = np.array(path)
    lo_path = hi_path.copy()
    has_lo = np.zeros(len(records), dtype=bool)
    frozen = np.zeros(len(records), dtype=bool)
    for _ in range(80):
        live = ~frozen
        depth = (_shared_depth(lo_path, hi_path, frozen)
                 if has_lo[live].all() else 0)
        mid = np.sqrt(lo * hi)
        mid_path = list(hi_path[:depth + 1])
        below = gm_at_widths(mid, mid_path) < targets
        rows = max(len(mid_path), len(hi_path))
        mid_path, lo_path, hi_path = (_pad_rows(np.asarray(p), rows)
                                      for p in (mid_path, lo_path, hi_path))
        to_lo = live & below
        to_hi = live & ~below
        np.copyto(lo_path, mid_path, where=to_lo)
        np.copyto(hi_path, mid_path, where=to_hi)
        has_lo |= to_lo
        new_lo = np.where(to_lo, mid, lo)
        new_hi = np.where(to_hi, mid, hi)
        # An unchanged bracket recomputes the same mid, gm and outcome.
        frozen |= (new_lo == lo) & (new_hi == hi)
        lo, hi = new_lo, new_hi
        if frozen.all():
            break
    _SIZING_SOLVES += len(records)
    _BATCHED_SIZING_SOLVES += 1
    return np.sqrt(lo * hi)


def _shared_depth(lo_path: np.ndarray, hi_path: np.ndarray,
                  frozen: np.ndarray) -> int:
    """Deepest bias-bisection state the block's width brackets share.

    ``lo_path``/``hi_path`` are the ``(rows, 2, n)`` paths of every
    element's lower and upper width; the result is the minimum over the
    elements not ``frozen``.  The float64 drain current is non-decreasing in
    width at a fixed bias (every op on ``beta = u_cox * W / L`` is a rounded
    multiply or divide by a positive factor, and the region does not depend
    on ``W``).  So at any state where the paths of both bracket ends take
    the same branch, every width between them takes it too: its own
    from-scratch path passes through the returned state, and its bias solve
    can resume there.
    """
    agree = ((lo_path == hi_path) | frozen).all(axis=(1, 2))
    return int(np.logical_and.accumulate(agree).sum()) - 1


def _pad_rows(path: np.ndarray, rows: int) -> np.ndarray:
    """A block path extended to ``rows`` rows by repeating its final state."""
    if len(path) >= rows:
        return path
    return np.concatenate(
        [path, np.repeat(path[-1:], rows - len(path), axis=0)])


def seed_gm_stages(stages: Sequence[TransconductanceAmplifier],
                   widths) -> None:
    """Seed a block of Gm stages from solved widths in one array pass.

    The array twin of the lazy per-stage chain ``device`` ->
    :attr:`~TransconductanceAmplifier.bias_point` ->
    :meth:`~TransconductanceAmplifier.taylor_coefficients`: one
    :class:`~repro.devices.mosfet.MosfetArray` bias solve and operating
    point at ``widths`` (one per stage, normally a :func:`solve_widths`
    result), then the five-point Taylor expansion of every stage at once
    (:func:`_taylor_block`).  Each element follows the scalar operation
    sequence, so every seeded device, bias point and memo entry (at
    :data:`TAYLOR_DELTA`) is **bit-identical** to what the lazy scalar path
    computes.  A stage whose degenerated fixed point does not converge keeps
    an empty Taylor memo: its lazy solve then raises the scalar path's
    ``RuntimeError`` at that cell, exactly as without seeding.
    """
    stages = list(stages)
    widths = np.asarray(widths, dtype=float)
    if widths.shape != (len(stages),):
        raise ValueError(
            f"got {widths.size} widths for {len(stages)} Gm stages")
    designs = [stage.design for stage in stages]
    lengths = np.array([d.gm_device_length for d in designs], dtype=float)
    technologies = [d.technology for d in designs]
    bias = np.array([stage._bias_per_side for stage in stages], dtype=float)
    vds = np.array([t.mid_rail for t in technologies], dtype=float)
    r_s = np.array([stage.degeneration_resistance for stage in stages],
                   dtype=float)

    bank = MosfetArray.nmos(widths, lengths, technologies)
    op = bank.operating_point(bank.vgs_for_current(bias, vds), vds)
    coefficients, converged = _taylor_block(bank, op.vgs, vds, r_s)
    for index, (stage, region) in enumerate(zip(stages, op.regions)):
        bias_point = MosfetOperatingPoint(
            id=float(op.id[index]), gm=float(op.gm[index]),
            gds=float(op.gds[index]), region=region,
            vgs=float(op.vgs[index]), vds=float(op.vds[index]),
            vov=float(op.vov[index]))
        taylor = TaylorCoefficients(*map(float, coefficients[:, index])) \
            if converged[index] else None
        stage._seed(bank.element(index), bias_point, taylor)


def _taylor_block(bank: MosfetArray, vgs0: np.ndarray, vds: np.ndarray,
                  r_s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Five-point Taylor expansion of every bank element at once.

    Returns ``(coefficients, converged)``: a ``(3, n)`` array of g1/g2/g3
    rows and a per-element flag.  The array twin of
    :meth:`TransconductanceAmplifier._compute_taylor_coefficients`: the
    undegenerated currents are one evaluation, and the degenerated ones run
    the damped fixed point for every (element, excursion) pair together,
    each freezing the step its own scalar loop would have returned at.
    """
    delta = TAYLOR_DELTA
    excursions = (0.0, delta, -delta, 2.0 * delta, -2.0 * delta)
    count = len(bank)
    points = len(excursions)
    owner = np.repeat(np.arange(count), points)
    # Row-major (element, excursion) layout: column k of the reshaped
    # result is the current at excursions[k].
    points_bank = MosfetArray.nmos(
        bank.width[owner], bank.length[owner],
        [bank.technologies[i] for i in owner])
    gate = (vgs0[:, None] + np.array(excursions)).ravel()
    vds = vds[owner]
    r_s = r_s[owner]

    current = points_bank.drain_current(gate, vds)
    pending = r_s != 0.0
    solved = current.copy()
    with np.errstate(invalid="ignore", over="ignore"):
        for _ in range(_FIXED_POINT_STEPS):
            if not pending.any():
                break
            step = points_bank.drain_current(gate - current * r_s, vds)
            done = pending & (np.abs(step - current) < _FIXED_POINT_TOLERANCE)
            solved = np.where(done, step, solved)
            pending = pending & ~done
            current = np.where(pending, 0.5 * (current + step), current)
    i0, ip1, im1, ip2, im2 = solved.reshape(count, points).T
    g1 = (ip1 - im1) / (2.0 * delta)
    g2 = (ip1 - 2.0 * i0 + im1) / (2.0 * delta ** 2)
    third_derivative = (ip2 - 2.0 * ip1 + 2.0 * im1 - im2) / (2.0 * delta ** 3)
    g3 = third_derivative / 6.0
    converged = ~pending.reshape(count, points).any(axis=1)
    return np.stack([g1, g2, g3]), converged


@dataclass(frozen=True)
class TaylorCoefficients:
    """Taylor expansion of the drain current around the bias point.

    ``i(v) ~= g1*v + g2*v^2 + g3*v^3`` for a small gate excursion ``v``.
    """

    g1: float
    g2: float
    g3: float

    def iip3_vpeak(self) -> float:
        """Input-referred third-order intercept amplitude (V peak)."""
        if self.g3 == 0.0:
            return math.inf
        return math.sqrt((4.0 / 3.0) * abs(self.g1 / self.g3))

    def iip3_dbm(self, impedance: float = REFERENCE_IMPEDANCE) -> float:
        """Input-referred IIP3 in dBm into ``impedance``."""
        amplitude = self.iip3_vpeak()
        if math.isinf(amplitude):
            return math.inf
        return float(dbm_from_vpeak(amplitude, impedance))


class _GmSolution:
    """The sized Gm device and its bias point, once solved.

    Shared by every degeneration of one design's Gm stage (see
    :meth:`TransconductanceAmplifier.with_degeneration`).
    """

    __slots__ = ("device", "bias_point")

    def __init__(self) -> None:
        self.device: Mosfet | None = None
        self.bias_point: MosfetOperatingPoint | None = None


class TransconductanceAmplifier:
    """Behavioural model of the TCA / active-mode Gm stage.

    Parameters
    ----------
    design:
        The mixer design point (bias current, target gm, component values).
    degeneration_resistance:
        Source degeneration seen by each Gm device (0 for the plain active
        configuration; the PMOS switch resistance in passive mode).
    """

    def __init__(self, design: MixerDesign,
                 degeneration_resistance: float = 0.0) -> None:
        if degeneration_resistance < 0:
            raise ValueError("degeneration resistance cannot be negative")
        self.design = design
        self.degeneration_resistance = degeneration_resistance
        self.technology: Technology = design.technology
        self._bias_per_side = design.tca_bias_current / 2.0
        self._taylor_cache: dict[float, TaylorCoefficients] = {}
        self._solution = _GmSolution()

    def with_degeneration(self, degeneration_resistance: float
                          ) -> "TransconductanceAmplifier":
        """This Gm stage at another source degeneration.

        The width and bias solves depend only on the design record — length,
        target gm, bias current, technology — never on the degeneration, so
        the returned stage shares this one's sized device and bias point:
        whichever of the two needs them first solves them for both.
        """
        stage = TransconductanceAmplifier(self.design, degeneration_resistance)
        stage._solution = self._solution
        return stage

    # -- device sizing --------------------------------------------------------

    @property
    def device(self) -> Mosfet:
        """The Gm MOSFET, sized so the target gm is met at the bias current."""
        solution = self._solution
        if solution.device is None:
            solution.device = self._size_device()
        return solution.device

    @property
    def device_sized(self) -> bool:
        """Whether the Gm device is already solved (or seeded) — no solve."""
        return self._solution.device is not None

    def seed_device(self, device: Mosfet) -> None:
        """Install an externally solved Gm device (the batched sizing path).

        The caller is responsible for the device matching what
        :meth:`_size_device` would return; :func:`solve_widths` guarantees
        that bit-for-bit.  Seeding leaves exactly the state a lazy solve
        would have left behind, shared with every :meth:`with_degeneration`
        sibling.
        """
        if not isinstance(device, Mosfet):
            raise TypeError("seed_device() needs a Mosfet")
        self._solution.device = device

    def _seed(self, device: Mosfet, bias_point: MosfetOperatingPoint,
              taylor: TaylorCoefficients | None) -> None:
        """Install one :func:`seed_gm_stages` element: device, bias, memo."""
        self.seed_device(device)
        self._solution.bias_point = bias_point
        if taylor is not None:
            self._taylor_cache[TAYLOR_DELTA] = taylor

    def _size_device(self) -> Mosfet:
        """Solve the width that delivers ``tca_gm`` at the per-side bias current."""
        global _SIZING_SOLVES
        _SIZING_SOLVES += 1
        design = self.design
        length = design.gm_device_length
        target_gm = design.tca_gm
        bias = self._bias_per_side
        vds = self.technology.mid_rail  # drain sits near mid-rail

        def gm_at_width(width: float) -> float:
            device = Mosfet.nmos(width, length, self.technology)
            vgs = device.vgs_for_current(bias, vds)
            return device.operating_point(vgs, vds).gm

        # Bisection on width: gm at fixed current grows with W (smaller Vov).
        # A step that leaves (lo, hi) unchanged is a fixed point: every
        # later step would repeat it, so the loop stops there.
        lo, hi = 2e-6, 2000e-6
        if gm_at_width(hi) < target_gm:
            raise ValueError("target gm unreachable within the width search range")
        for _ in range(80):
            mid = math.sqrt(lo * hi)
            if gm_at_width(mid) < target_gm:
                if mid == lo:
                    break
                lo = mid
            else:
                if mid == hi:
                    break
                hi = mid
        return Mosfet.nmos(math.sqrt(lo * hi), length, self.technology)

    @property
    def bias_point(self) -> MosfetOperatingPoint:
        """Operating point of one Gm device at the design bias."""
        solution = self._solution
        if solution.bias_point is None:
            vds = self.technology.mid_rail
            vgs = self.device.vgs_for_current(self._bias_per_side, vds)
            solution.bias_point = self.device.operating_point(vgs, vds)
        return solution.bias_point

    @property
    def bias_voltage(self) -> float:
        """Gate bias voltage of the Gm devices (V)."""
        return self.bias_point.vgs

    # -- small-signal quantities ----------------------------------------------

    @property
    def raw_gm(self) -> float:
        """Undegenerate device transconductance (S)."""
        return self.bias_point.gm

    @property
    def effective_gm(self) -> float:
        """Transconductance including source degeneration (S)."""
        gm = self.raw_gm
        return gm / (1.0 + gm * self.degeneration_resistance)

    def gm_for_bias_voltage(self, vgs: float) -> float:
        """Effective gm at an arbitrary gate bias (the paper's gain tuning knob)."""
        op = self.device.operating_point(vgs, self.technology.mid_rail)
        return op.gm / (1.0 + op.gm * self.degeneration_resistance)

    # -- nonlinearity -----------------------------------------------------------

    def taylor_coefficients(self, delta: float = TAYLOR_DELTA
                            ) -> TaylorCoefficients:
        """Numerical Taylor expansion of the (degenerated) I-V around bias.

        Central differences on the large-signal transfer (including the
        series feedback of the degeneration resistor, solved per point)
        produce g1..g3; g3 is what sets the IIP3.  The expansion depends only
        on the (frozen) design and ``delta``, so results are memoized — the
        sweep engine hits this from every linearity spec it evaluates.
        """
        cached = self._taylor_cache.get(delta)
        if cached is not None:
            return cached
        coefficients = self._compute_taylor_coefficients(delta)
        self._taylor_cache[delta] = coefficients
        return coefficients

    def _compute_taylor_coefficients(self, delta: float) -> TaylorCoefficients:
        vgs0 = self.bias_point.vgs
        vds = self.technology.mid_rail
        r_s = self.degeneration_resistance

        def current(v_in: float) -> float:
            """Drain current for an input excursion v_in with degeneration."""
            if r_s == 0.0:
                return self.device.drain_current(vgs0 + v_in, vds)
            # Solve i = f(vgs0 + v_in - i * r_s) by damped fixed-point
            # iteration; the damping converges the loop for gm * r_s < ~3,
            # which covers every realistic degeneration value.
            i = self.device.drain_current(vgs0 + v_in, vds)
            for _ in range(_FIXED_POINT_STEPS):
                i_new = self.device.drain_current(vgs0 + v_in - i * r_s, vds)
                if abs(i_new - i) < _FIXED_POINT_TOLERANCE:
                    return i_new
                i = 0.5 * (i + i_new)
            raise RuntimeError(
                "degenerated bias point failed to converge within "
                f"{_FIXED_POINT_STEPS} fixed-point iterations (residual "
                f"{abs(i_new - i):.3g} A at v_in={v_in:.3g} V, "
                f"r_s={r_s:.3g} ohm); the damped iteration diverges once "
                "gm * r_s exceeds ~3")

        i0 = current(0.0)
        ip1, im1 = current(delta), current(-delta)
        ip2, im2 = current(2.0 * delta), current(-2.0 * delta)
        g1 = (ip1 - im1) / (2.0 * delta)
        g2 = (ip1 - 2.0 * i0 + im1) / (2.0 * delta ** 2)
        # Third derivative by central differences, divided by 3! for the
        # Taylor coefficient.
        third_derivative = (ip2 - 2.0 * ip1 + 2.0 * im1 - im2) / (2.0 * delta ** 3)
        g3 = third_derivative / 6.0
        return TaylorCoefficients(g1=g1, g2=g2, g3=g3)

    def iip3_dbm(self) -> float:
        """Input-referred IIP3 of the (possibly degenerated) Gm stage, in dBm."""
        return self.taylor_coefficients().iip3_dbm()

    # -- noise ------------------------------------------------------------------

    def input_noise_sources(self) -> tuple[ThermalNoise, FlickerNoise]:
        """Input-referred thermal and flicker noise of the differential pair."""
        gm = self.raw_gm
        gamma = self.technology.gamma_noise
        # Two devices contribute; each has 4kT*gamma/gm input-referred, and the
        # degeneration resistors add their own thermal noise.
        equivalent_resistance = 2.0 * gamma / gm + 2.0 * self.degeneration_resistance
        thermal = ThermalNoise(resistance=equivalent_resistance,
                               temperature=self.technology.temperature)
        flicker_psd_at_1hz = 2.0 * self.device.params.kf / \
            self.device.params.gate_capacitance
        flicker = FlickerNoise(k_flicker=flicker_psd_at_1hz)
        return thermal, flicker

    def flicker_corner(self) -> float:
        """1/f corner frequency of the stand-alone Gm stage (Hz)."""
        thermal, flicker = self.input_noise_sources()
        return flicker.corner_with(thermal)

    # -- wide-band response ------------------------------------------------------

    def band_edges(self, coupling_capacitance: float,
                   output_node_resistance: float) -> tuple[float, float]:
        """(low, high) -3 dB band edges of the RF path in Hz.

        The low edge comes from the series coupling capacitance working
        against the 50 ohm source and gate impedance; the high edge from the
        parasitic capacitance C_PAR at the transconductor output node working
        against the impedance presented by that node (the transmission-gate
        load in active mode, the TIA feedback impedance reflected through the
        quad in passive mode).  Minimising C_PAR is what the paper credits
        for the wide band.
        """
        if coupling_capacitance <= 0:
            raise ValueError("coupling capacitance must be positive")
        if output_node_resistance <= 0:
            raise ValueError("output node resistance must be positive")
        source_resistance = 2.0 * REFERENCE_IMPEDANCE
        low_edge = 1.0 / (2.0 * math.pi * source_resistance * coupling_capacitance)
        high_edge = 1.0 / (2.0 * math.pi * output_node_resistance *
                           self.design.parasitic_capacitance)
        return low_edge, high_edge

    def band_response(self, rf_frequency: float | np.ndarray,
                      coupling_capacitance: float,
                      output_node_resistance: float) -> float | np.ndarray:
        """Magnitude response (linear, <= 1) of the RF path at ``rf_frequency``.

        First-order high-pass at the low edge and second-order low-pass at
        the high edge; the product reproduces the band-pass shape of Fig. 8.
        ``rf_frequency`` may be a scalar or an array of any shape — this is
        the vectorized hot path the sweep engine evaluates whole RF grids
        through in one call.
        """
        low_edge, high_edge = self.band_edges(coupling_capacitance,
                                              output_node_resistance)
        response = band_magnitude(np.asarray(rf_frequency, dtype=float),
                                  low_edge, high_edge)
        return response if np.ndim(rf_frequency) else float(response)


def band_magnitude(f: np.ndarray, low_edge, high_edge) -> np.ndarray:
    """The RF band-pass magnitude at ``f`` for the given band edges (Hz).

    First-order high-pass at ``low_edge`` times second-order low-pass at
    ``high_edge``.  All three arguments broadcast, so per-design band edges
    on a leading axis shape a whole design block's RF grids in one call.
    """
    highpass = (f / low_edge) / np.sqrt(1.0 + (f / low_edge) ** 2)
    lowpass = 1.0 / np.sqrt(1.0 + (f / high_edge) ** 4)
    return highpass * lowpass
