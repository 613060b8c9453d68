"""Stimulus plans: declarative descriptions of waveform-bench stimuli.

A :class:`StimulusPlan` is everything a waveform measurement needs besides
the device under test: the bench kind (two-tone or single-tone), the tone
frequencies, the swept input powers, the coherent sampling grid and the
frequency-translation bookkeeping (LO, measurement frequency).  Plans are
frozen, picklable records of plain floats, so they

* travel to the worker processes of
  :class:`~repro.sweep.parallel.ShardedRunner` unchanged,
* hash stably (:meth:`StimulusPlan.content_hash`) — one third of the
  waveform cache key, next to ``MixerDesign.fingerprint()`` and the mode —
  and
* round-trip exactly through :meth:`to_dict` / :meth:`from_dict`.

The two constructors, :func:`two_tone_plan` and :func:`single_tone_plan`,
mirror the benches the paper's evaluation uses: Fig. 10's IIP3 / the
section-IV IIP2 claim ride the two-tone plan, Table I's P1dB and spot
conversion gain ride the single-tone plan.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from repro.rf.signal import sample_times
from repro.rf.twotone import intermod_frequencies

#: Schema/semantics version folded into every plan hash; bump on any change
#: to what a plan's numbers mean so stale cache entries miss, never mislead.
PLAN_VERSION = 1

#: Default sampling grid of the paper-artefact benches: 10.24 GS/s with
#: 10240 samples gives exact 1 MHz bins, so every tone and product of the
#: default 2.4 GHz frequency plans is bin-exact.  (Re-exported by the
#: experiment drivers for backwards compatibility.)
DEFAULT_SAMPLE_RATE = 10.24e9
DEFAULT_NUM_SAMPLES = 10240

#: Bench kinds.
TWO_TONE = "two_tone"
SINGLE_TONE = "single_tone"

#: Measure arrays each bench kind produces, in storage order.
MEASURES_BY_KIND: dict[str, tuple[str, ...]] = {
    TWO_TONE: ("fundamental_dbm", "im3_dbm", "im2_dbm"),
    SINGLE_TONE: ("output_dbm", "gain_db"),
}


@dataclass(frozen=True)
class StimulusPlan:
    """One waveform bench, fully specified.

    Attributes
    ----------
    kind:
        :data:`TWO_TONE` or :data:`SINGLE_TONE`.
    frequencies:
        The stimulus tone frequencies (two for a two-tone plan, one for a
        single-tone plan); ``frequencies[0]`` doubles as the RF-band
        frequency the device's wide-band response is evaluated at.
    input_powers_dbm:
        The swept per-tone input powers — the power axis of the resulting
        :class:`~repro.waveform.result.WaveformResult`.
    sample_rate / num_samples:
        The sampling grid; callers should pick a coherent grid (see
        :func:`repro.rf.signal.coherent_sample_count`) so every product
        lands on an FFT bin.
    lo_frequency:
        When measuring a mixer, the LO frequency; products are then read in
        the IF band.  ``None`` measures an amplifier-style device in the
        RF band.
    output_frequency:
        Single-tone plans only: where the output tone is measured.  Defaults
        to the down-converted ``|f - f_lo|`` with an LO, the stimulus
        frequency without one.
    """

    kind: str
    frequencies: tuple[float, ...]
    input_powers_dbm: tuple[float, ...]
    sample_rate: float
    num_samples: int
    lo_frequency: float | None = None
    output_frequency: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in MEASURES_BY_KIND:
            raise ValueError(f"unknown bench kind {self.kind!r}; choose from "
                             f"{sorted(MEASURES_BY_KIND)}")
        expected = 2 if self.kind == TWO_TONE else 1
        if len(self.frequencies) != expected:
            raise ValueError(f"a {self.kind} plan needs exactly {expected} "
                             f"tone frequencies, got {len(self.frequencies)}")
        for frequency in self.frequencies:
            if frequency <= 0:
                raise ValueError("tone frequencies must be positive")
        if self.kind == TWO_TONE and self.frequencies[0] == self.frequencies[1]:
            raise ValueError("the two tones must have distinct frequencies")
        if self.sample_rate <= 0:
            raise ValueError("sample rate must be positive")
        if self.num_samples < 8:
            raise ValueError("need at least 8 samples per record")
        if not self.input_powers_dbm:
            raise ValueError("need at least one input power")
        for power in self.input_powers_dbm:
            if not math.isfinite(power):
                raise ValueError("input powers must be finite")
        if self.lo_frequency is not None and self.lo_frequency <= 0:
            raise ValueError("LO frequency must be positive")
        if self.output_frequency is not None and self.kind != SINGLE_TONE:
            raise ValueError("output_frequency applies to single-tone plans")
        nyquist = self.sample_rate / 2.0
        for name, frequency in self.product_frequencies().items():
            if frequency > nyquist:
                raise ValueError(
                    f"product {name!r} at {frequency:.4g} Hz exceeds the "
                    f"Nyquist frequency {nyquist:.4g} Hz")

    # -- derived quantities ---------------------------------------------------

    @property
    def measures(self) -> tuple[str, ...]:
        """Names of the measure arrays this plan produces."""
        return MEASURES_BY_KIND[self.kind]

    @property
    def rf_band_frequency(self) -> float:
        """Frequency the device's wide-band RF response is evaluated at."""
        return self.frequencies[0]

    def powers(self) -> np.ndarray:
        """The swept input powers as a float array."""
        return np.asarray(self.input_powers_dbm, dtype=float)

    def times(self) -> np.ndarray:
        """The sampling time grid."""
        return sample_times(self.sample_rate, self.num_samples)

    def tone_waveforms(self) -> tuple[np.ndarray, ...]:
        """Each stimulus tone at unit amplitude, on the sampling grid.

        Kept per tone (rather than pre-summed) so the batched engine can
        scale and sum exactly like the scalar sources do — ``a*cos(f1 t) +
        a*cos(f2 t)`` — keeping the two paths bit-identical, not merely
        close.
        """
        times = self.times()
        return tuple(np.cos(2.0 * math.pi * frequency * times)
                     for frequency in self.frequencies)

    def product_frequencies(self) -> dict[str, float]:
        """Where each product of interest lands, keyed by product name."""
        if self.kind == TWO_TONE:
            return intermod_frequencies(self.frequencies[0],
                                        self.frequencies[1],
                                        self.lo_frequency)
        if self.output_frequency is not None:
            return {"output": self.output_frequency}
        frequency = self.frequencies[0]
        if self.lo_frequency is not None:
            frequency = abs(frequency - self.lo_frequency)
        return {"output": frequency}

    def is_coherent(self, tolerance: float = 1e-6) -> bool:
        """True when every record is exactly one period of the stimulus.

        Checks that each stimulus tone and the LO land on an integer number
        of cycles per record (within ``tolerance`` cycles) — the condition
        under which the record is periodic and spectra are leakage-free, so
        bin reads recover true tone powers.  This is a plan-quality
        predicate for callers building custom grids; the engine itself
        always evaluates on the periodic fast path, which matches the
        cyclic-prefix evaluation for *any* record, coherent or not (both
        treat the record as one period of an infinite waveform).
        """
        frequencies = list(self.frequencies)
        if self.lo_frequency is not None:
            frequencies.append(self.lo_frequency)
        for frequency in frequencies:
            cycles = frequency * self.num_samples / self.sample_rate
            if abs(cycles - round(cycles)) > tolerance:
                return False
        return True

    def with_powers(self, input_powers_dbm: Sequence[float]) -> "StimulusPlan":
        """Copy of the plan over a different input-power sweep."""
        return replace(self, input_powers_dbm=tuple(
            float(power) for power in input_powers_dbm))

    # -- identity / wire format -----------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready canonical form (also the hashed content)."""
        return {
            "plan_version": PLAN_VERSION,
            "kind": self.kind,
            "frequencies": [float(f) for f in self.frequencies],
            "input_powers_dbm": [float(p) for p in self.input_powers_dbm],
            "sample_rate": float(self.sample_rate),
            "num_samples": int(self.num_samples),
            "lo_frequency": None if self.lo_frequency is None
            else float(self.lo_frequency),
            "output_frequency": None if self.output_frequency is None
            else float(self.output_frequency),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "StimulusPlan":
        """Rebuild a plan from :meth:`to_dict` output (validates as always)."""
        version = payload.get("plan_version", PLAN_VERSION)
        if version != PLAN_VERSION:
            raise ValueError(f"unsupported plan_version {version!r}")
        return cls(
            kind=str(payload["kind"]),
            frequencies=tuple(float(f) for f in payload["frequencies"]),
            input_powers_dbm=tuple(float(p)
                                   for p in payload["input_powers_dbm"]),
            sample_rate=float(payload["sample_rate"]),
            num_samples=int(payload["num_samples"]),
            lo_frequency=None if payload.get("lo_frequency") is None
            else float(payload["lo_frequency"]),
            output_frequency=None if payload.get("output_frequency") is None
            else float(payload["output_frequency"]),
        )

    def content_hash(self) -> str:
        """Stable SHA-256 over the canonical plan content.

        Any change to the stimulus — a tone, a power point, the grid, the
        LO — maps to a different hash, so cached measures can never be
        served for the wrong bench.
        """
        payload = json.dumps(self.to_dict(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def two_tone_plan(tone_1_hz: float, tone_2_hz: float,
                  input_powers_dbm: Sequence[float], sample_rate: float,
                  num_samples: int,
                  lo_frequency: float | None = None) -> StimulusPlan:
    """The two-tone intermodulation bench (Fig. 10 / IIP2)."""
    return StimulusPlan(
        kind=TWO_TONE,
        frequencies=(float(tone_1_hz), float(tone_2_hz)),
        input_powers_dbm=tuple(float(p) for p in np.asarray(
            input_powers_dbm, dtype=float).ravel()),
        sample_rate=float(sample_rate),
        num_samples=int(num_samples),
        lo_frequency=None if lo_frequency is None else float(lo_frequency),
    )


def single_tone_plan(frequency_hz: float, input_powers_dbm: Sequence[float],
                     sample_rate: float, num_samples: int,
                     lo_frequency: float | None = None,
                     output_frequency: float | None = None) -> StimulusPlan:
    """The single-tone bench (compression / spot conversion gain)."""
    return StimulusPlan(
        kind=SINGLE_TONE,
        frequencies=(float(frequency_hz),),
        input_powers_dbm=tuple(float(p) for p in np.asarray(
            input_powers_dbm, dtype=float).ravel()),
        sample_rate=float(sample_rate),
        num_samples=int(num_samples),
        lo_frequency=None if lo_frequency is None else float(lo_frequency),
        output_frequency=None if output_frequency is None
        else float(output_frequency),
    )
