"""The vectorized sweep engine for mixer spec curves.

:class:`SweepRunner` evaluates the reconfigurable mixer's spec accessors
over an arbitrary dense grid of **design variant x mode x RF frequency x IF
frequency** without per-point Python loops.  The split of labour is:

* everything that does not depend on the swept frequencies (device sizing,
  bias solutions, effective gm, noise floors, linearity intercepts, power)
  is computed in **one array pass per mode** over every design whose cell
  is not yet solved (:func:`~repro.core.reconfigurable_mixer.spec_block`)
  and memoized on each mixer as a ``SpecIntermediates`` record;
* the frequency-shaped specs (conversion gain, noise figure) are then
  evaluated over the whole design x RF x IF slab of a mode in **one NumPy
  broadcast call** via the block forms
  (:func:`~repro.core.reconfigurable_mixer.conversion_gain_db_block`,
  :func:`~repro.core.reconfigurable_mixer.noise_figure_db_block`);
* frequency-flat specs (IIP3, P1dB, power, band edges) are broadcast across
  the plane so every spec array shares one labelled shape.

Mixer instances are memoized per design record, so re-running a sweep on a
refined frequency grid re-uses every sizing/bias solution already paid for.
An optional on-disk layer (:mod:`repro.sweep.cache`) extends that memo
across processes and interpreter runs, and
:class:`~repro.sweep.parallel.ShardedRunner` shards the design axis of
large grids across worker processes with this runner doing each shard.

Adding a new sweep scenario is: build the designs/modes/grids you care
about, call :meth:`SweepRunner.run`, and read labelled curves off the
returned :class:`~repro.sweep.result.SweepResult` — see
:mod:`repro.sweep.montecarlo` for a worked example (per-design random
process spread, something the scalar path could never afford).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.config import MixerDesign, MixerMode
from repro.core.reconfigurable_mixer import (
    ReconfigurableMixer,
    conversion_gain_db_block,
    noise_figure_db_block,
    seed_gm_widths,
    spec_block,
)
from repro.core.transconductance import solve_widths
from repro.sweep.cache import SpecCache
from repro.sweep.grid import IF_AXIS, RF_AXIS, SweepAxis
from repro.sweep.result import SweepResult

#: Spec names whose values vary across the RF/IF plane.
FREQUENCY_SHAPED_SPECS = ("conversion_gain_db", "noise_figure_db")

#: Spec names that are flat across frequency (one scalar per design x mode).
FLAT_SPECS = ("iip3_dbm", "iip2_dbm", "p1db_dbm", "power_mw",
              "band_low_hz", "band_high_hz", "flicker_corner_hz")

#: Every spec the runner can evaluate.
ALL_SPECS = FREQUENCY_SHAPED_SPECS + FLAT_SPECS

#: The headline specs swept by default (the paper's Fig. 8/9/10 quantities).
DEFAULT_SPECS = ("conversion_gain_db", "noise_figure_db", "iip3_dbm",
                 "p1db_dbm", "power_mw")


class SweepRunner:
    """Evaluates mixer spec curves over parameter grids, vectorized.

    Parameters
    ----------
    design:
        The baseline design record; used when :meth:`run` is not given an
        explicit design axis, and as the source of the nominal RF/IF
        operating point for defaulted frequency grids.
    specs:
        Which spec curves to evaluate (a subset of :data:`ALL_SPECS`).
    cache:
        Optional on-disk cache of solved per-(design, mode) intermediates —
        ``None``/``False`` (default, off), ``True`` (default directory), a
        directory path, or a :class:`~repro.sweep.cache.SpecCache`.  With a
        warm cache every sizing/bias bisection is skipped; see
        :mod:`repro.sweep.cache`.
    """

    #: Progress-frame stage of a sharded run of this engine.
    stage = "sweep"

    def __init__(self, design: MixerDesign | None = None,
                 specs: Sequence[str] = DEFAULT_SPECS,
                 cache: SpecCache | str | bool | None = None) -> None:
        self.design = design if design is not None else MixerDesign()
        self.cache = SpecCache.resolve(cache)
        self.specs = tuple(specs)
        if not self.specs:
            raise ValueError("need at least one spec to sweep")
        unknown = [spec for spec in self.specs if spec not in ALL_SPECS]
        if unknown:
            raise ValueError(f"unknown specs {unknown}; choose from {ALL_SPECS}")
        # Mixers (and with them every sizing/bias solution and memoized
        # intermediate) are kept per design record across run() calls.
        self._mixers: dict[MixerDesign, ReconfigurableMixer] = {}

    # -- mixer cache ---------------------------------------------------------

    def mixer_for(self, design: MixerDesign) -> ReconfigurableMixer:
        """The memoized mixer instance for a design record."""
        mixer = self._mixers.get(design)
        if mixer is None:
            mixer = ReconfigurableMixer(design)
            self._mixers[design] = mixer
        return mixer

    @property
    def cached_design_count(self) -> int:
        """How many design records currently have a memoized mixer."""
        return len(self._mixers)

    # -- grid assembly -------------------------------------------------------

    def _design_axis(self, designs) -> tuple[SweepAxis, list[MixerDesign]]:
        # Shared with the waveform engine; see SweepAxis.design_axis.
        return SweepAxis.design_axis(designs, self.design)

    def _mode_axis(self, modes) -> tuple[SweepAxis, list[MixerMode]]:
        return SweepAxis.mode_axis(modes)

    # -- execution -----------------------------------------------------------

    def run(self, rf_frequencies: Iterable[float] | np.ndarray | None = None,
            if_frequencies: Iterable[float] | np.ndarray | None = None,
            modes: Sequence[MixerMode] | None = None,
            designs: Mapping[str, MixerDesign] | Sequence[MixerDesign] | None = None
            ) -> SweepResult:
        """Evaluate the configured specs over the full grid.

        Omitted frequency grids collapse to the **baseline** design's
        nominal operating point (LO + IF for RF, the nominal IF), so
        ``run(modes=[...])`` is a Table-I-style spot evaluation; omitted
        ``modes`` sweeps both modes; omitted ``designs`` uses the baseline
        design only.  The grid is shared by every design on the axis — if a
        swept design record re-tunes ``lo_frequency``/``if_frequency``, pass
        explicit grids covering its operating point rather than relying on
        the defaults.
        """
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
        self._solve_cells(design_records, mode_members)
        mixers = [self.mixer_for(record) for record in design_records]
        for mode_index, mode in enumerate(mode_members):
            cells = [mixer.peek_intermediates(mode) for mixer in mixers]
            for spec in self.specs:
                if spec == "conversion_gain_db":
                    values = conversion_gain_db_block(
                        mixers, cells, rf[:, None], if_[None, :])
                elif spec == "noise_figure_db":
                    values = noise_figure_db_block(cells, if_)[:, None, :]
                else:
                    # Flat specs share their name with a SpecIntermediates
                    # field.
                    values = np.array([getattr(cell, spec)
                                       for cell in cells])[:, None, None]
                data[spec][:, mode_index] = values

        axes = (design_axis, mode_axis, rf_axis, if_axis)
        return SweepResult(axes, data)

    #: Minimum number of unsolved designs before the batched width solver
    #: takes over from the lazy scalar sizing path.  A single design gains
    #: nothing from batching, so spot sweeps stay on the scalar solver.
    _BATCH_THRESHOLD = 2

    def _presize(self, records: Sequence[MixerDesign],
                 modes: Sequence[MixerMode],
                 labels: Sequence[str]) -> int:
        """Batch-solve Gm widths for every design the cache cannot cover.

        One :func:`~repro.core.transconductance.solve_widths` call sizes the
        whole unsolved block of the design axis before the spec blocks run —
        the N x 80 scalar bisection steps collapse into 80 array steps.  A
        design only joins the block when at least one of its modes is served
        by neither the mixer memo nor the disk cache (cache hits seed the
        memo here, so a warm run still performs zero solves).  The same
        pass seeds each mixer's bias point and Taylor memo
        (:func:`~repro.core.reconfigurable_mixer.seed_gm_widths`); all of it
        is bit-identical to the lazy scalar path, so cell results do not
        depend on which solver ran.  Returns the number of designs
        batch-sized.
        """
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
                if self.cache is not None:
                    cached = self.cache.load(record, mode)
                    if cached is not None:
                        mixer.seed_intermediates(cached)
                        continue
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

    def _solve_cells(self, records: Sequence[MixerDesign],
                     modes: Sequence[MixerMode]) -> None:
        """Solve every (design, mode) cell the mixer memo still lacks.

        The pre-sizing pass already seeded whatever the disk cache holds, so
        the cells left are computed: one :func:`~repro.core.\
reconfigurable_mixer.spec_block` per mode over the distinct designs that
        need it.  Each new cell seeds its mixer's memo and, with a cache,
        is stored for every later run and every sibling shard.  The lazy
        Gm-stage solves run first, cell by cell in (design, mode) order, so
        a failing design raises its sizing or convergence error in that
        order.
        """
        pending: dict[MixerMode, dict[MixerDesign, ReconfigurableMixer]] = {}
        for record in dict.fromkeys(records):
            mixer = self.mixer_for(record)
            for mode in modes:
                if mixer.peek_intermediates(mode) is None:
                    mixer.gm_stage(mode).taylor_coefficients()
                    pending.setdefault(mode, {})[record] = mixer
        for mode, block in pending.items():
            cells = spec_block(list(block.values()), mode)
            for (record, mixer), intermediates in zip(block.items(), cells):
                mixer.seed_intermediates(intermediates)
                if self.cache is not None:
                    self.cache.store(record, mode, intermediates)
