"""Corner-aware yield optimisation over the mixer's design knobs.

:func:`run_yield_opt` searches the design space around a starting
:class:`~repro.core.config.MixerDesign` for the record with the highest
**yield**: the fraction of Monte-Carlo device-spread corners
(:func:`~repro.sweep.montecarlo.sample_design`, the seeded 65 nm local +
global variation model) that pass every configured
:class:`~repro.optimize.targets.SpecTarget` at once.  The default targets
are the paper's Table I numbers with margins
(:func:`~repro.optimize.targets.default_targets`), so the search answer is
"the design that still makes Table I when the process moves".

The outer loop is a seeded population search:

1. each generation proposes ``population`` candidates through a pluggable
   :mod:`~repro.optimize.strategies` proposal strategy — the default
   shrinking-span pattern search, or the covariance-adapted CMA-ES sampler
   (``strategy="cma"``) that learns the knob covariance from each scored
   generation; generation 0 scores the incoming design itself as
   candidate 0, the baseline;
2. every candidate's ``num_samples`` Monte-Carlo corners are evaluated as
   **one design axis** through the sweep engine
   (:func:`repro.sweep.make_runner`), so ``workers=`` shards the whole
   population x samples grid across processes and ``cache=`` persists every
   sizing/bias solution — a re-run of the same search is pure array maths
   with **zero sizing bisections** (gated in
   ``benchmarks/test_bench_optimize.py``);
3. the best candidate (strictly higher yield; ties keep the incumbent)
   becomes the next centre.

:func:`run_pareto_opt` is the multi-objective mode over the same engine
plumbing: instead of a single scalar winner it maintains a non-dominated
:class:`~repro.optimize.pareto.ParetoFront` over configurable
:class:`~repro.optimize.pareto.Objective` axes — Monte-Carlo yield against
the targets, plus any targetable spec metric (power, gain, NF, the
waveform-measured IIP3/P1dB, the digital SNR) pushed up or down.  The
front is a first-class result (per-point design record, objective vector
and per-target yield breakdown) and every generation streams a front
snapshot through the :mod:`repro.api.progress` channel, so a long search
is observable from ``GET /v1/jobs/<id>``.

Determinism: proposals and corners draw from per-(generation, candidate)
``numpy`` seed sequences, the sweep engine is bit-identical for any worker
count, and selection/front ordering is index- and fingerprint-stable — so
the same seed and parameters return the same best-design (or front)
fingerprints on every surface and worker count (asserted in
``tests/test_optimize.py`` / ``tests/test_pareto.py``).

Registered as the ``yield_opt`` and ``yield_pareto`` experiments, so both
searches run through :class:`~repro.api.service.MixerService`,
``python -m repro.serve`` and ``python -m repro.cli`` via the standard
:class:`~repro.api.request.SpecRequest` envelope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.api.progress import report_progress
from repro.api.registry import register_experiment
from repro.core.config import MixerDesign, MixerMode
from repro.devices.technology import Technology
from repro.digital import DigitalIfRunner, digital_if_plan
from repro.optimize.pareto import (
    Objective,
    ParetoFront,
    ParetoOptResult,
    ParetoPoint,
    default_objectives_wire,
    format_pareto_report,
    parse_objectives,
    pareto_order,
)
from repro.optimize.strategies import STRATEGIES, make_strategy
from repro.optimize.targets import (
    DIGITAL_SPECS,
    WAVEFORM_SPECS,
    SpecTarget,
    default_targets_wire,
    parse_targets,
)
from repro.rf.compression import compression_from_gains
from repro.rf.twotone import fit_intercept_point
from repro.sweep import SpecCache, make_runner
from repro.sweep.montecarlo import DeviceSpread, sample_design
from repro.sweep.runner import ALL_SPECS
from repro.waveform import (
    DEFAULT_NUM_SAMPLES,
    DEFAULT_SAMPLE_RATE,
    WaveformRunner,
    single_tone_plan,
    two_tone_plan,
)

#: Name under which the scalar optimiser registers in the registry.
EXPERIMENT_NAME = "yield_opt"

#: Name under which the multi-objective optimiser registers.
PARETO_EXPERIMENT_NAME = "yield_pareto"

#: Design knobs the optimiser may move, in canonical (perturbation) order:
#: transconductor gm target and bias, the two gain-setting resistances, the
#: passive-path degeneration, and the quad device width — the W/L, bias and
#: load levers the paper's section III sizes by hand.
DEFAULT_KNOBS = (
    "tca_gm",
    "tca_bias_current",
    "load_resistance",
    "feedback_resistance",
    "degeneration_resistance",
    "quad_switch_width",
)

#: Every knob the optimiser accepts: positive multiplicative design scalars.
#: Frequencies and technology constants are deliberately excluded — the
#: operating point is part of the question, and process constants are the
#: *spread*, not the design.
SEARCHABLE_KNOBS = frozenset(DEFAULT_KNOBS) | frozenset({
    "active_core_current",
    "lo_chain_current",
    "tia_supply_current",
    "quad_switch_length",
    "feedback_capacitance",
    "load_capacitance",
})

#: Default seed — the paper's publication date, like the Monte-Carlo module.
DEFAULT_SEED = 20150901

#: Candidate label pattern (design-axis labels must be unique).
_CANDIDATE_LABEL = "i{iteration:02d}-c{candidate:02d}"

#: Stimulus the waveform-measured targets are scored with: deliberately
#: coarser than the figure-quality grids (the score only needs the fitted
#: intercept / crossing, not a publishable curve) but the same coherent
#: sampling plan, so every corner evaluation is one batched FFT.  The tone
#: frequencies derive from the candidate's nominal operating point at
#: scoring time; the spacing matches the Fig. 10 default (2 MHz).
WAVEFORM_TONE_SPACING_HZ = 2.0e6
WAVEFORM_IIP3_POWERS_DBM = (-45.0, -42.0, -39.0, -36.0, -33.0, -30.0)
WAVEFORM_P1DB_POWERS_DBM = (-40.0, -36.0, -32.0, -28.0, -24.0, -20.0,
                            -16.0, -12.0, -8.0)

#: ADC resolution the digital-SNR targets score at.  One mid-ladder width
#: keeps the corner grid a single bits point (the score needs a number per
#: corner, not a resolution curve) while staying inside the region where
#: the converter — not the 16-bit NCO — sets the floor, so the yield mask
#: actually moves when a corner's conversion gain or noise moves.
DIGITAL_SCORE_ADC_BITS = 10


@dataclass
class CandidateOutcome:
    """Score card of one evaluated candidate design."""

    label: str
    design_fingerprint: str
    overall_yield: float
    spec_yields: dict[str, float]


@dataclass
class YieldOptResult:
    """The optimiser's answer: the best design and how the search got there."""

    best_design: MixerDesign
    best_yield: float
    best_spec_yields: dict[str, float]
    best_label: str
    best_iteration: int
    baseline_yield: float
    initial_design: MixerDesign
    history: np.ndarray
    targets: list[SpecTarget]
    knobs: list[str]
    population: int
    iterations: int
    num_samples: int
    seed: int
    evaluations: int
    candidates: list[CandidateOutcome]
    strategy: str = "shrinking_span"

    def best_fingerprint(self) -> str:
        """Stable content hash of the winning design record."""
        return self.best_design.fingerprint()

    def improvement(self) -> float:
        """Yield gained over the incoming design's baseline."""
        return self.best_yield - self.baseline_yield

    def knob_shifts(self) -> dict[str, float]:
        """Fractional change of every searched knob, best vs initial."""
        return {
            knob: getattr(self.best_design, knob)
            / getattr(self.initial_design, knob) - 1.0
            for knob in self.knobs
        }


def _validate_knobs(knobs: Sequence[str] | None) -> tuple[str, ...]:
    if knobs is None:
        return DEFAULT_KNOBS
    resolved = tuple(str(knob) for knob in knobs)
    if not resolved:
        raise ValueError("need at least one design knob to search")
    unknown = sorted(set(resolved) - SEARCHABLE_KNOBS)
    if unknown:
        raise ValueError(f"unsearchable knobs {unknown}; "
                         f"choose from {sorted(SEARCHABLE_KNOBS)}")
    if len(set(resolved)) != len(resolved):
        raise ValueError("duplicate knobs in the search list")
    return resolved


def _validate_loop(population: int, iterations: int, num_samples: int,
                   search_span: float, shrink: float) -> None:
    if population < 2:
        raise ValueError("population must be at least 2 (the centre plus "
                         "at least one perturbed candidate)")
    if iterations < 1:
        raise ValueError("need at least one iteration")
    if num_samples < 2:
        raise ValueError("need at least 2 Monte-Carlo samples per candidate")
    if search_span <= 0:
        raise ValueError("search_span must be positive")
    if not 0 < shrink <= 1:
        raise ValueError("shrink must be in (0, 1]")


@dataclass(frozen=True)
class _MetricNeed:
    """One (spec, mode) quantity the score needs per corner.

    Duck-typed like :class:`SpecTarget` (``spec`` / ``mode`` / ``key`` and
    the engine-routing flags) so the per-engine scorers serve targets and
    objectives from the same table.
    """

    spec: str
    mode: MixerMode

    @property
    def key(self) -> str:
        return f"{self.mode.value}:{self.spec}"

    @property
    def is_waveform(self) -> bool:
        return self.spec in WAVEFORM_SPECS

    @property
    def is_digital(self) -> bool:
        return self.spec in DIGITAL_SPECS


def _metric_needs(targets: Sequence[SpecTarget],
                  objectives: Sequence[Objective] = ()) -> list[_MetricNeed]:
    """Deduplicated (spec, mode) list the measurement table must cover.

    Target order first, then objective-only metrics — keep-first dedup, so
    the scalar search's engine calls are byte-for-byte what they were
    before objectives existed.
    """
    needs: list[_MetricNeed] = []
    seen: set[str] = set()
    for target in targets:
        if target.key not in seen:
            seen.add(target.key)
            needs.append(_MetricNeed(target.spec, target.mode))
    for objective in objectives:
        if objective.mode is not None and objective.key not in seen:
            seen.add(objective.key)
            needs.append(_MetricNeed(objective.metric, objective.mode))
    return needs


def _waveform_corner_values(runner, corner_designs: Mapping[str, MixerDesign],
                            needs: Sequence, base: MixerDesign
                            ) -> dict[str, np.ndarray]:
    """Score the waveform-measured metrics over one corner design axis.

    Returns ``need.key -> per-design value array`` aligned with
    ``corner_designs`` order.  Each needed bench (two-tone for
    ``waveform_iip3_dbm``, single-tone for ``waveform_p1db_dbm``) is **one**
    waveform-engine call over the whole axis — sharded by ``workers=`` and
    served from the waveform cache on warm re-runs — followed by the same
    per-design fits the ``fig10`` / ``p1db`` drivers use.
    """
    labels = list(corner_designs)
    values: dict[str, np.ndarray] = {}

    def _checked(plan):
        # The score trusts exact bin reads; an operating point that does
        # not land on the fixed bin grid would leak across bins and turn
        # the yield mask into noise — refuse it loudly instead.
        if not plan.is_coherent():
            raise ValueError(
                "waveform-measured targets need the design's LO/IF "
                "operating point to land on the scoring FFT bin grid "
                f"({DEFAULT_SAMPLE_RATE / DEFAULT_NUM_SAMPLES / 1e6:.1f} "
                "MHz bins); retune lo_frequency/if_frequency to bin "
                "multiples or score analytic specs instead")
        return plan

    iip3_needs = [n for n in needs if n.spec == "waveform_iip3_dbm"]
    if iip3_needs:
        modes = tuple(dict.fromkeys(n.mode for n in iip3_needs))
        tone_1 = base.lo_frequency + base.if_frequency
        plan = _checked(two_tone_plan(
            tone_1, tone_1 + WAVEFORM_TONE_SPACING_HZ,
            WAVEFORM_IIP3_POWERS_DBM, DEFAULT_SAMPLE_RATE,
            DEFAULT_NUM_SAMPLES, lo_frequency=base.lo_frequency))
        wave = runner.run(plan, modes=modes, designs=dict(corner_designs))
        powers = plan.powers()
        for need in iip3_needs:
            fitted = np.empty(len(labels))
            for index, label in enumerate(labels):
                fit = fit_intercept_point(
                    powers,
                    wave.values("fundamental_dbm", design=label,
                                mode=need.mode),
                    wave.values("im3_dbm", design=label, mode=need.mode),
                    intermod_order=3)
                fitted[index] = fit.intercept_input_dbm
            values[need.key] = fitted

    p1db_needs = [n for n in needs if n.spec == "waveform_p1db_dbm"]
    if p1db_needs:
        modes = tuple(dict.fromkeys(n.mode for n in p1db_needs))
        rf = base.lo_frequency + base.if_frequency
        plan = _checked(single_tone_plan(
            rf, WAVEFORM_P1DB_POWERS_DBM, DEFAULT_SAMPLE_RATE,
            DEFAULT_NUM_SAMPLES, lo_frequency=base.lo_frequency,
            output_frequency=base.if_frequency))
        wave = runner.run(plan, modes=modes, designs=dict(corner_designs))
        powers = plan.powers()
        for need in p1db_needs:
            fitted = np.empty(len(labels))
            for index, label in enumerate(labels):
                _, input_p1db, _ = compression_from_gains(
                    powers,
                    wave.values("gain_db", design=label, mode=need.mode))
                # A sweep that never compresses reads as an unbounded P1dB:
                # it passes any minimum bound, which is the right verdict
                # for "compression must not happen before X dBm".
                fitted[index] = input_p1db
            values[need.key] = fitted
    return values


def _digital_corner_values(runner, corner_designs: Mapping[str, MixerDesign],
                           needs: Sequence, base: MixerDesign
                           ) -> dict[str, np.ndarray]:
    """Score the digital-SNR metrics over one corner design axis.

    Returns ``need.key -> per-design value array`` aligned with
    ``corner_designs`` order.  One fixed-point digital-IF bench — the
    canonical NCO/CIC plan at :data:`DIGITAL_SCORE_ADC_BITS` — evaluates
    the whole axis in a single
    :class:`~repro.digital.engine.DigitalIfRunner` call: every corner's
    tapped IF waveform quantized, mixed and decimated in one batched pass
    per cell, sharded by ``workers=`` and served from the digital measure
    cache on warm re-runs.
    """
    modes = tuple(dict.fromkeys(n.mode for n in needs))
    try:
        plan = digital_if_plan(
            rf_frequency=base.lo_frequency + base.if_frequency,
            lo_frequency=base.lo_frequency,
            adc_bits=(DIGITAL_SCORE_ADC_BITS,))
    except ValueError as error:
        # Mirror the waveform _checked refusal: a retuned operating point
        # that breaks coherent sampling or the NCO's exact-bin arithmetic
        # would corrupt the yield mask silently — refuse it loudly.
        raise ValueError(
            "digital-measured targets need the design's LO/IF operating "
            "point to fit the canonical digital-IF plan (coherent analog "
            "record, exact NCO increment, bin-centred baseband); retune "
            "lo_frequency/if_frequency or score analytic specs instead "
            f"[{error}]") from error
    result = runner.run(plan, modes=modes, designs=dict(corner_designs))
    return {
        need.key: result.values("snr_db", mode=need.mode,
                                adc_bits=DIGITAL_SCORE_ADC_BITS)
        for need in needs
    }


class _CornerScorer:
    """The measurement table: every needed metric over one corner axis.

    Owns the per-engine runners (analytic sweep, batched waveform,
    fixed-point digital-IF) and, given one generation's corner designs,
    returns ``key -> per-corner value array`` covering every
    :class:`_MetricNeed` — each engine called exactly once per generation
    and only when the needs demand it.
    """

    def __init__(self, design: MixerDesign | None,
                 needs: Sequence[_MetricNeed], *, workers: int | None,
                 cache) -> None:
        self.needs = list(needs)
        self.analytic = [n for n in self.needs
                         if not (n.is_waveform or n.is_digital)]
        self.waveform = [n for n in self.needs if n.is_waveform]
        self.digital = [n for n in self.needs if n.is_digital]
        self.specs = tuple(spec for spec in ALL_SPECS
                           if any(n.spec == spec for n in self.analytic))
        self.modes = tuple(mode for mode
                           in (MixerMode.ACTIVE, MixerMode.PASSIVE)
                           if any(n.mode is mode for n in self.analytic))
        # Imported lazily: repro.experiments re-exports this module, so a
        # module-level import of the experiments package would be circular
        # when repro.optimize is imported first.
        from repro.experiments.common import design_and_runner, resolve_design
        if self.analytic:
            self.base, self.runner = design_and_runner(
                design, specs=self.specs, workers=workers, cache=cache)
        else:
            self.base, self.runner = resolve_design(design), None
        self.wave_runner = make_runner(
            self.base, workers=workers, cache=cache,
            engine=WaveformRunner) if self.waveform else None
        self.digital_runner = make_runner(
            self.base, workers=workers, cache=cache,
            engine=DigitalIfRunner) if self.digital else None

    def values(self, corner_designs: Mapping[str, MixerDesign]
               ) -> dict[str, np.ndarray]:
        """Measure every need over ``corner_designs`` (one array per key)."""
        table: dict[str, np.ndarray] = {}
        if self.runner is not None:
            sweep = self.runner.run(rf_frequencies=[self.base.rf_frequency],
                                    if_frequencies=[self.base.if_frequency],
                                    modes=self.modes, designs=corner_designs)
            for need in self.analytic:
                table[need.key] = sweep.values(need.spec, mode=need.mode)
        if self.wave_runner is not None:
            table.update(_waveform_corner_values(
                self.wave_runner, corner_designs, self.waveform, self.base))
        if self.digital_runner is not None:
            table.update(_digital_corner_values(
                self.digital_runner, corner_designs, self.digital, self.base))
        return table


def _corner_axis(candidates: Sequence[MixerDesign], iteration: int,
                 seed: int, num_samples: int, spread: DeviceSpread
                 ) -> dict[str, MixerDesign]:
    """The whole population's Monte-Carlo corners as ONE design axis.

    This is what makes the search affordable — and shardable across
    processes: one labelled axis per generation, per-candidate corner rngs
    seeded ``[seed, iteration, index, 1]``.
    """
    corner_designs: dict[str, MixerDesign] = {}
    for index, candidate in enumerate(candidates):
        rng = np.random.default_rng([seed, iteration, index, 1])
        for sample in range(num_samples):
            label = (_CANDIDATE_LABEL.format(iteration=iteration,
                                             candidate=index)
                     + f"-s{sample:03d}")
            corner_designs[label] = sample_design(candidate, rng, spread,
                                                  label)
    return corner_designs


def run_yield_opt(design: MixerDesign | None = None,
                  targets: Sequence | None = None,
                  knobs: Sequence[str] | None = None,
                  population: int = 8, iterations: int = 3,
                  num_samples: int = 16, seed: int = DEFAULT_SEED,
                  search_span: float = 0.12, shrink: float = 0.5,
                  strategy: str = "shrinking_span",
                  objectives: Sequence | None = None,
                  workers: int | None = None,
                  cache: SpecCache | str | bool | None = None
                  ) -> YieldOptResult | ParetoOptResult:
    """Search the design knobs for maximum yield against spec targets.

    Parameters
    ----------
    design:
        Starting design record (the paper's design point by default); it is
        scored as iteration 0's candidate 0, so ``baseline_yield`` is always
        the incoming design's own yield.
    targets:
        Acceptance bounds — :class:`SpecTarget` objects or their wire form
        ``[spec, mode, min, max]``; ``None`` selects the Table I defaults.
        Analytic specs score through the spec sweep engine; the
        waveform-measured specs (``waveform_iip3_dbm`` /
        ``waveform_p1db_dbm``) score every corner through the batched
        waveform engine — the FFT-measured Fig. 10 intercept and Table I
        compression point as optimisation constraints, sharded and cached
        like everything else.  The digitally-measured spec
        (``digital_snr_db``) scores every corner through the fixed-point
        digital-IF chain at :data:`DIGITAL_SCORE_ADC_BITS` bits, so "the
        sampled receiver must still resolve X dB SNR at this corner" can
        gate the search too.
    knobs:
        Design parameters the search may move (subset of
        :data:`SEARCHABLE_KNOBS`); ``None`` selects :data:`DEFAULT_KNOBS`.
    population / iterations / num_samples:
        Candidates per iteration, search iterations, and Monte-Carlo corners
        per candidate.  Every iteration evaluates ``population *
        num_samples`` design records as one sweep-engine design axis.
    seed:
        Seed of every random draw (proposals and corners); same seed, same
        targets, same knobs => bit-identical result on any worker count.
    search_span:
        1-sigma log-space width of the knob perturbations at iteration 0.
    shrink:
        Factor applied to the span after each iteration (0 < shrink <= 1);
        the search narrows around the incumbent as it converges.  The CMA
        strategy ignores it (its step size self-adapts).
    strategy:
        Proposal strategy, one of :data:`~repro.optimize.strategies.STRATEGIES`:
        ``"shrinking_span"`` (the original pattern search, bit-identical to
        the pre-strategy optimiser) or ``"cma"`` (covariance-adapted CMA-ES
        proposals that learn the knob correlations each generation reveals).
    objectives:
        ``None`` runs the scalar search.  A list of
        :class:`~repro.optimize.pareto.Objective` (or wire ``[metric, mode,
        direction]`` arrays) switches to the multi-objective Pareto mode —
        the call is forwarded to :func:`run_pareto_opt` and returns its
        :class:`~repro.optimize.pareto.ParetoOptResult`.
    workers / cache:
        Engine options: process count for the
        :class:`~repro.sweep.parallel.ShardedRunner`, and the on-disk
        store directory of solved cells (:mod:`repro.sweep.cache`).
    """
    if objectives is not None:
        return run_pareto_opt(design=design, targets=targets,
                              objectives=objectives, knobs=knobs,
                              population=population, iterations=iterations,
                              num_samples=num_samples, seed=seed,
                              search_span=search_span, shrink=shrink,
                              strategy=strategy, workers=workers,
                              cache=cache)
    target_list = list(parse_targets(targets))
    knob_list = _validate_knobs(knobs)
    _validate_loop(population, iterations, num_samples, search_span, shrink)
    seed = int(seed)

    scorer = _CornerScorer(design, _metric_needs(target_list),
                           workers=workers, cache=cache)
    base = scorer.base
    spread = DeviceSpread()
    proposer = make_strategy(strategy, base, knob_list, seed=seed,
                             population=population, search_span=search_span,
                             shrink=shrink)

    best_design = base
    best_yield = -1.0
    best_spec_yields: dict[str, float] = {}
    best_label = ""
    best_iteration = 0
    baseline_yield = 0.0
    history: list[float] = []
    outcomes: list[CandidateOutcome] = []
    evaluations = 0

    for iteration in range(iterations):
        candidates = proposer.propose(iteration)
        corner_designs = _corner_axis(candidates, iteration, seed,
                                      num_samples, spread)
        values_by_key = scorer.values(corner_designs)
        evaluations += population * num_samples

        # Score: pass masks per target, AND-ed into the overall yield.
        shape = (population, num_samples)
        passing = np.ones(shape, dtype=bool)
        per_target: dict[str, np.ndarray] = {}
        for target in target_list:
            mask = target.passes(values_by_key[target.key].reshape(shape))
            per_target[target.key] = mask
            passing &= mask
        yields = passing.mean(axis=1)

        for index, candidate in enumerate(candidates):
            outcomes.append(CandidateOutcome(
                label=_CANDIDATE_LABEL.format(iteration=iteration,
                                              candidate=index),
                design_fingerprint=candidate.fingerprint(),
                overall_yield=float(yields[index]),
                spec_yields={key: float(mask[index].mean())
                             for key, mask in per_target.items()},
            ))
        if iteration == 0:
            baseline_yield = float(yields[0])

        champion = int(np.argmax(yields))  # first index wins ties
        if float(yields[champion]) > best_yield:
            best_yield = float(yields[champion])
            best_design = candidates[champion]
            best_spec_yields = {key: float(mask[champion].mean())
                                for key, mask in per_target.items()}
            best_label = _CANDIDATE_LABEL.format(iteration=iteration,
                                                 candidate=champion)
            best_iteration = iteration
        history.append(best_yield)

        # Stream the iteration history to any observer (the async job
        # surface polls this out of GET /v1/jobs/<id>); pure observation,
        # the search itself is bit-identical with or without a listener.
        report_progress(stage="yield_opt", iteration=iteration + 1,
                        iterations=iterations, best_yield=float(best_yield),
                        best_label=best_label,
                        baseline_yield=float(baseline_yield),
                        evaluations=evaluations, strategy=strategy,
                        history=[float(value) for value in history])

        # Fitness order, best first (stable: first index wins ties) — the
        # strategies consume the ranking, not just the champion.
        order = [int(i) for i in np.argsort(-yields, kind="stable")]
        proposer.observe(iteration, candidates, order, best_design)

    return YieldOptResult(
        best_design=best_design,
        best_yield=best_yield,
        best_spec_yields=best_spec_yields,
        best_label=best_label,
        best_iteration=best_iteration,
        baseline_yield=baseline_yield,
        initial_design=base,
        history=np.asarray(history, dtype=float),
        targets=target_list,
        knobs=list(knob_list),
        population=population,
        iterations=iterations,
        num_samples=num_samples,
        seed=seed,
        evaluations=evaluations,
        candidates=outcomes,
        strategy=strategy,
    )


def run_pareto_opt(design: MixerDesign | None = None,
                   targets: Sequence | None = None,
                   objectives: Sequence | None = None,
                   knobs: Sequence[str] | None = None,
                   population: int = 8, iterations: int = 3,
                   num_samples: int = 16, seed: int = DEFAULT_SEED,
                   search_span: float = 0.12, shrink: float = 0.5,
                   strategy: str = "shrinking_span",
                   workers: int | None = None,
                   cache: SpecCache | str | bool | None = None
                   ) -> ParetoOptResult:
    """Multi-objective search: maintain a Pareto front over the objectives.

    Same engine plumbing as :func:`run_yield_opt` — strategy-proposed
    populations, every generation's Monte-Carlo corners as one sharded
    design axis — but the answer is the running non-dominated
    :class:`~repro.optimize.pareto.ParetoFront` over ``objectives``
    (``None`` selects yield vs active power vs active gain,
    :func:`~repro.optimize.pareto.default_objectives`).  Per-candidate
    objective values are the Monte-Carlo yield against ``targets`` plus the
    corner-mean of every spec objective, so each point carries both its
    trade-off coordinates and its per-target yield breakdown.

    Generation ranking feeds the proposal strategy through the NSGA-II
    convention (:func:`~repro.optimize.pareto.pareto_order`: non-dominated
    rank, then crowding distance); the running front is fingerprint-deduped
    and deterministically ordered, so the result is bit-identical for any
    worker count and on every serving surface.  Every generation appends a
    JSON-ready front snapshot to ``front_history`` and streams the
    cumulative history through :func:`repro.api.progress.report_progress`
    (stage ``"pareto_opt"``), observable from ``GET /v1/jobs/<id>``.
    """
    target_list = list(parse_targets(targets))
    objective_list = list(parse_objectives(objectives))
    knob_list = _validate_knobs(knobs)
    _validate_loop(population, iterations, num_samples, search_span, shrink)
    seed = int(seed)

    scorer = _CornerScorer(design, _metric_needs(target_list, objective_list),
                           workers=workers, cache=cache)
    base = scorer.base
    spread = DeviceSpread()
    proposer = make_strategy(strategy, base, knob_list, seed=seed,
                             population=population, search_span=search_span,
                             shrink=shrink)
    signs = np.array([objective.sign for objective in objective_list])

    front = ParetoFront(objectives=objective_list, points=[])
    front_history: list[list[dict]] = []
    baseline_point: ParetoPoint | None = None
    evaluations = 0

    for iteration in range(iterations):
        candidates = proposer.propose(iteration)
        corner_designs = _corner_axis(candidates, iteration, seed,
                                      num_samples, spread)
        values_by_key = scorer.values(corner_designs)
        evaluations += population * num_samples

        shape = (population, num_samples)
        passing = np.ones(shape, dtype=bool)
        per_target: dict[str, np.ndarray] = {}
        for target in target_list:
            mask = target.passes(values_by_key[target.key].reshape(shape))
            per_target[target.key] = mask
            passing &= mask
        yields = passing.mean(axis=1)

        # Objective matrix: yield straight from the pass masks, every spec
        # objective as the candidate's corner mean (deterministic, like
        # every other aggregate the engine reports).
        matrix = np.empty((population, len(objective_list)))
        for column, objective in enumerate(objective_list):
            if objective.mode is None:
                matrix[:, column] = yields
            else:
                matrix[:, column] = \
                    values_by_key[objective.key].reshape(shape).mean(axis=1)

        points = []
        for index, candidate in enumerate(candidates):
            points.append(ParetoPoint(
                label=_CANDIDATE_LABEL.format(iteration=iteration,
                                              candidate=index),
                design=candidate,
                objectives=matrix[index].copy(),
                overall_yield=float(yields[index]),
                spec_yields={key: float(mask[index].mean())
                             for key, mask in per_target.items()},
            ))
        if iteration == 0:
            baseline_point = points[0]

        front = front.merged_with(points)
        front_history.append(front.snapshot())

        # Cumulative snapshot history: a poller always sees a prefix of the
        # final front_history, like the scalar search's yield history.
        report_progress(stage="pareto_opt", iteration=iteration + 1,
                        iterations=iterations, strategy=strategy,
                        front_size=front.size, evaluations=evaluations,
                        front_history=list(front_history))

        order = pareto_order(matrix * signs)
        proposer.observe(iteration, candidates, order, candidates[order[0]])

    return ParetoOptResult(
        front=front,
        objectives=objective_list,
        targets=target_list,
        knobs=list(knob_list),
        strategy=strategy,
        population=population,
        iterations=iterations,
        num_samples=num_samples,
        seed=seed,
        evaluations=evaluations,
        initial_design=base,
        baseline_point=baseline_point,
        front_history=front_history,
    )


def format_report(result: YieldOptResult) -> str:
    """Text rendering of a yield search (targets, breakdown, knob shifts)."""
    lines = [
        f"Corner-aware yield optimisation — {result.population} candidates "
        f"x {result.iterations} iterations, {result.num_samples} corners "
        f"each (seed {result.seed}, strategy {result.strategy})"
    ]
    width = max(len(target.describe()) for target in result.targets)
    for target in result.targets:
        lines.append(f"  {target.describe():<{width}}  best-design yield "
                     f"{result.best_spec_yields[target.key]:6.1%}")
    trail = " -> ".join(f"{value:.1%}" for value in result.history)
    lines.append(f"  best-so-far by iteration: {trail}")
    lines.append(
        f"  overall: baseline {result.baseline_yield:.1%} -> best "
        f"{result.best_yield:.1%} ({result.improvement():+.1%}) at "
        f"{result.best_label} [{result.evaluations} corner evaluations]")
    shifts = ", ".join(f"{knob} {shift:+.1%}"
                       for knob, shift in result.knob_shifts().items())
    lines.append(f"  knob shifts vs start: {shifts}")
    return "\n".join(lines)


def _default_grid() -> Mapping[str, object]:
    return {
        "targets": default_targets_wire(),
        "knobs": list(DEFAULT_KNOBS),
        "population": 8,
        "iterations": 3,
        "num_samples": 16,
        "seed": DEFAULT_SEED,
        "search_span": 0.12,
        "shrink": 0.5,
        "strategy": "shrinking_span",
    }


def _pareto_default_grid() -> Mapping[str, object]:
    return {
        "targets": default_targets_wire(),
        "objectives": default_objectives_wire(),
        "knobs": list(DEFAULT_KNOBS),
        "population": 8,
        "iterations": 3,
        "num_samples": 16,
        "seed": DEFAULT_SEED,
        "search_span": 0.12,
        "shrink": 0.5,
        "strategy": "shrinking_span",
    }


register_experiment(
    name=EXPERIMENT_NAME,
    artefact="Table I targets under process spread — yield optimisation",
    summary="Search the design knobs for maximum Monte-Carlo yield "
            "against configurable Table I spec targets",
    runner=run_yield_opt,
    result_type=YieldOptResult,
    report=format_report,
    default_grid=_default_grid(),
    payload_types=(CandidateOutcome, SpecTarget, MixerDesign, Technology),
)

register_experiment(
    name=PARETO_EXPERIMENT_NAME,
    artefact="Gain/power/yield trade-off under process spread — Pareto front",
    summary="Maintain a non-dominated front over configurable objectives "
            "(Monte-Carlo yield, power, gain, any targetable spec metric)",
    runner=run_pareto_opt,
    result_type=ParetoOptResult,
    report=format_pareto_report,
    default_grid=_pareto_default_grid(),
    payload_types=(ParetoFront, ParetoPoint, Objective, SpecTarget,
                   MixerDesign, Technology),
)

# Re-exported for callers that treated the strategy list as part of this
# module's surface; the implementation lives in repro.optimize.strategies.
__all__ = [
    "CandidateOutcome",
    "DEFAULT_KNOBS",
    "EXPERIMENT_NAME",
    "PARETO_EXPERIMENT_NAME",
    "SEARCHABLE_KNOBS",
    "STRATEGIES",
    "YieldOptResult",
    "format_report",
    "run_pareto_opt",
    "run_yield_opt",
]
