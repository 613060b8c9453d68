"""Vectorized sweep engine for the mixer's spec curves.

The paper's headline artifacts — Fig. 8 (gain vs RF), Fig. 9 (NF/gain vs
IF), Fig. 10 (IIP3) and Table I — are all parameter sweeps.  This package
evaluates them (and any grid you invent) through NumPy array paths instead
of per-point Python loops:

* :mod:`repro.sweep.grid` — labelled axes (design / mode / RF / IF) with
  nearest-point and exact-label selection;
* :mod:`repro.sweep.result` — the :class:`SweepResult` container: labelled
  axes, ``curve()`` / ``value()`` slicing helpers, ``to_dict()`` export;
* :mod:`repro.sweep.runner` — :class:`SweepRunner`, which memoizes per-design
  mixers and per-(design, mode) spec intermediates, then evaluates whole
  RF x IF planes in single broadcast calls;
* :mod:`repro.sweep.parallel` — :class:`ShardedRunner`, sharding the
  design axis of any engine (sweep, waveform, digital IF) across a process
  pool and stitching shard outputs back with :meth:`SweepResult.concat`
  (bit-identical to the single-process run), and :func:`make_runner`, the
  one factory choosing inline or sharded;
* :mod:`repro.sweep.cache` — :class:`ContentStore`, the one on-disk store
  every engine cache is a codec of, and :class:`SpecCache`, its codec of
  solved per-(design, mode) intermediates keyed on the design record's
  stable fingerprint, so warm re-runs skip every sizing bisection;
* :mod:`repro.sweep.montecarlo` — random device-parameter spread across a
  design axis, the first scenario only the vectorized path can afford (and
  the canonical consumer of ``workers=`` / ``cache=``).

How to add a new sweep scenario
-------------------------------

1. Build the grids: a designs mapping (``{label: MixerDesign}``; derive
   variants with ``dataclasses.replace``), the modes, and RF/IF arrays.
2. Run them: ``SweepRunner(design, specs=(...)).run(rf_frequencies=...,
   if_frequencies=..., modes=..., designs=...)``.
3. Read labelled results: ``sweep.curve("conversion_gain_db",
   "rf_frequency_hz", mode=MixerMode.ACTIVE)``, ``sweep.value("iip3_dbm",
   mode="passive", design="mc-004")``, or ``sweep.to_dict()`` for export.

Keep per-point work out of Python: anything frequency-independent belongs in
:class:`~repro.core.reconfigurable_mixer.SpecIntermediates` (computed once
per design x mode), anything frequency-shaped belongs in an array accessor.
"""

from repro.sweep.cache import CACHE_VERSION, ContentStore, SpecCache
from repro.sweep.grid import (
    DESIGN_AXIS,
    IF_AXIS,
    MODE_AXIS,
    RF_AXIS,
    SweepAxis,
)
from repro.sweep.parallel import ShardedRunner, make_runner
from repro.sweep.montecarlo import (
    DeviceSpread,
    MonteCarloResult,
    SpecStatistics,
    run_monte_carlo,
    sample_design,
)
from repro.sweep.result import SweepResult
from repro.sweep.runner import (
    ALL_SPECS,
    DEFAULT_SPECS,
    FLAT_SPECS,
    FREQUENCY_SHAPED_SPECS,
    SweepRunner,
)

__all__ = [
    "ALL_SPECS",
    "CACHE_VERSION",
    "ContentStore",
    "DEFAULT_SPECS",
    "DESIGN_AXIS",
    "DeviceSpread",
    "FLAT_SPECS",
    "FREQUENCY_SHAPED_SPECS",
    "IF_AXIS",
    "MODE_AXIS",
    "MonteCarloResult",
    "RF_AXIS",
    "ShardedRunner",
    "SpecCache",
    "SpecStatistics",
    "SweepAxis",
    "SweepResult",
    "SweepRunner",
    "make_runner",
    "run_monte_carlo",
    "sample_design",
]
