"""First-order filter responses used by the mixer's load and TIA stages.

The paper uses two first-order RC low-pass networks: the feedback ``R_F C_F``
of the TIA (which doubles as the anti-aliasing filter for the passive mode)
and the transmission-gate load with ``C_c`` in the active mode.  Both are
captured by :class:`FirstOrderLowPass`, whose sampled responses run through
one numpy kernel, :func:`_one_pole_scan`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def rc_pole_frequency(resistance: float, capacitance: float) -> float:
    """-3 dB frequency of a first-order RC network (Hz)."""
    if resistance <= 0 or capacitance <= 0:
        raise ValueError("R and C must be positive")
    return 1.0 / (2.0 * math.pi * resistance * capacitance)


@dataclass(frozen=True)
class FirstOrderLowPass:
    """A single-pole low-pass response with a DC gain."""

    dc_gain: float
    pole_frequency: float

    def __post_init__(self) -> None:
        if self.pole_frequency <= 0:
            raise ValueError("pole frequency must be positive")

    @classmethod
    def from_rc(cls, resistance: float, capacitance: float,
                dc_gain: float = 1.0) -> "FirstOrderLowPass":
        """Build the response of an RC network with an optional DC gain."""
        return cls(dc_gain=dc_gain,
                   pole_frequency=rc_pole_frequency(resistance, capacitance))

    def response(self, frequency: float | np.ndarray) -> complex | np.ndarray:
        """Complex transfer function at ``frequency``."""
        f = np.asarray(frequency, dtype=float)
        h = self.dc_gain / (1.0 + 1j * f / self.pole_frequency)
        return h if np.ndim(frequency) else complex(h)

    def magnitude(self, frequency: float | np.ndarray) -> float | np.ndarray:
        """Magnitude response."""
        mag = np.abs(self.response(frequency))
        return mag if np.ndim(frequency) else float(mag)

    def magnitude_db(self, frequency: float | np.ndarray) -> float | np.ndarray:
        """Magnitude response in dB."""
        mag = self.magnitude(frequency)
        result = 20.0 * np.log10(mag)
        return result if np.ndim(frequency) else float(result)

    def phase_degrees(self, frequency: float | np.ndarray) -> float | np.ndarray:
        """Phase response in degrees."""
        phase = np.degrees(np.angle(self.response(frequency)))
        return phase if np.ndim(frequency) else float(phase)

    def group_delay(self, frequency: float | np.ndarray) -> float | np.ndarray:
        """Group delay in seconds (analytic expression for one pole)."""
        f = np.asarray(frequency, dtype=float)
        tau = 1.0 / (2.0 * math.pi * self.pole_frequency)
        delay = tau / (1.0 + (f / self.pole_frequency) ** 2)
        return delay if np.ndim(frequency) else float(delay)

    def attenuation_at(self, frequency: float) -> float:
        """Attenuation relative to DC, in dB (non-negative)."""
        return float(20.0 * math.log10(self.dc_gain) - self.magnitude_db(frequency))

    def _bilinear_coefficients(self, sample_rate: float
                               ) -> tuple[list[float], list[float]]:
        """``(b, a)`` of the bilinear transform of ``H(s) = g / (1 + s/wc)``.

        The one discretisation both :meth:`apply` and :meth:`apply_periodic`
        run — change it here and the two paths stay identical by
        construction.
        """
        if sample_rate <= 0:
            raise ValueError("sample rate must be positive")
        wc = 2.0 * math.pi * self.pole_frequency
        k = 2.0 * sample_rate
        a0 = wc + k
        return ([self.dc_gain * wc / a0, self.dc_gain * wc / a0],
                [1.0, (wc - k) / a0])

    def _dc_seed(self, samples: np.ndarray, b0: float) -> np.ndarray:
        """Initial filter state settling a DC input at its settled output,
        avoiding a start-up transient that would smear the spectrum."""
        first = samples[..., :1]
        return first * self.dc_gain - b0 * first

    def apply(self, waveform: np.ndarray, sample_rate: float) -> np.ndarray:
        """Filter sampled waveforms with the single-pole response.

        Implemented as a first-order IIR (bilinear-transformed RC), which is
        adequate for the behavioural signal paths in this library, seeded by
        :meth:`_dc_seed`.  Time runs along the **last** axis, so a batched
        ``(records, samples)`` block is filtered row by row in one call —
        each row bitwise identical to filtering it alone.
        """
        samples = np.asarray(waveform, dtype=float)
        (b0, b1), (_, a1) = self._bilinear_coefficients(sample_rate)
        drive = _drive(samples, b0, b1, self._dc_seed(samples, b0))
        return _one_pole_scan(drive, -a1)

    def apply_periodic(self, waveform: np.ndarray,
                       sample_rate: float) -> np.ndarray:
        """The response after one full-record warm-up — the cyclic prefix.

        Equal (to rounding) to prepending a copy of the record, running
        :meth:`apply`, and keeping the second half: a warm-up pass over the
        record, seeded by :meth:`_dc_seed`, whose end state starts the
        output pass.  No duplicated record is materialised and no second
        pass runs: the output pass reads the record circularly (its first
        input takes ``x[N−1]`` as the previous sample), and the warm-up end
        state is known in closed form from that same scan — it differs
        from the output pass's own from-rest end state only through the
        first input, ``w = ŷ[N−1] + p^(N−1)·(zi − b1·x[N−1])`` — so
        :func:`_one_pole_scan` folds it in as the starting state.  This
        holds for every record length, including records shorter than the
        filter memory.  For a record-periodic input (the coherently sampled
        benches) it is the filter's periodic steady state to double
        precision; it is the filter path of the batched waveform engine's
        ``assume_periodic`` devices.  Time runs along the last axis.
        """
        samples = np.asarray(waveform, dtype=float)
        (b0, b1), (_, a1) = self._bilinear_coefficients(sample_rate)
        wrapped = b1 * samples[..., -1:]
        drive = _drive(samples, b0, b1, wrapped)
        warmup = self._dc_seed(samples, b0) - wrapped
        return _one_pole_scan(drive, -a1, warmup=warmup)


def _drive(samples: np.ndarray, b0: float, b1: float,
           head: np.ndarray) -> np.ndarray:
    """The scan input ``u[n] = b0·x[n] + b1·x[n−1]`` of the bilinear
    one-pole section, with ``head`` standing in for ``b1·x[−1]``."""
    drive = samples * b0
    drive[..., 1:] += b1 * samples[..., :-1]
    drive[..., :1] += head
    return drive


#: Samples per block of :func:`_one_pole_scan`.  A block's recurrence is
#: one small matrix product, so each sample costs this many multiply-adds
#: inside BLAS, while the number of blocks sets the depth of the carry
#: scan; 16 was the fastest of 8–64 on the engine's ``(4, 10240)`` and
#: ``(1, 10240)`` blocks.
_SCAN_BLOCK = 16

_LAGS = np.arange(_SCAN_BLOCK)

#: ``_POWER_INDEX[j, i]`` picks ``p**(i − j)`` out of the block's power
#: list for ``i >= j``, and its trailing zero otherwise: the gather that
#: builds the triangular response table of a block.
_POWER_INDEX = np.where(_LAGS[None, :] >= _LAGS[:, None],
                        _LAGS[None, :] - _LAGS[:, None], _SCAN_BLOCK)

_TINY = np.finfo(float).tiny


def _one_pole_scan(drive: np.ndarray, pole: float,
                   warmup: np.ndarray | None = None) -> np.ndarray:
    """``y[n] = pole·y[n−1] + drive[n]`` along the last axis, from rest.

    ``drive`` is used as scratch space.  With ``warmup`` (one value per
    record, any shape that holds them), the scan starts instead from the
    end state of a warm-up pass over the same record whose first input is
    ``drive[0] + warmup`` — ``y[−1] = ŷ[N−1] + pole^(N−1)·warmup``, with
    ``ŷ`` the from-rest scan — which is how
    :meth:`FirstOrderLowPass.apply_periodic` warms up without a second
    pass.

    The recurrence runs in blocks of :data:`_SCAN_BLOCK` samples:

    1. zeros are prepended up to whole blocks — they leave a scan from
       rest at rest, and the last block ends on the last sample;
    2. each block's end state from rest is a matrix-vector product with
       the block's impulse response;
    3. the states at the block boundaries follow from those by a scan with
       pole ``pole^block``, by log-depth doubling;
    4. each boundary state enters its block as ``pole·state`` added to the
       block's first input, and a matrix product against the triangular
       table ``pole^(i−j)`` gives every output.

    Both products are stacked over the records: numpy makes one BLAS call
    per record, of the same shape whatever the number of records, so a
    batched row is bitwise equal to the row filtered alone (one product
    over the merged rows would let BLAS pick another kernel for another
    row count).  One stacked call per product, rather than a Python loop,
    also keeps the calls that release the interpreter lock few, which is
    what the threaded server pays for under concurrent requests.

    The result agrees with the sequential recurrence to about 1e-13 of the
    record's peak (``tests/test_filters.py`` bounds it at 1e-12 against
    ``scipy.signal.lfilter``).
    """
    shape = drive.shape
    if drive.size == 0:
        return drive
    length = shape[-1]
    records = drive.size // length
    blocks = -(-length // _SCAN_BLOCK)
    pad = blocks * _SCAN_BLOCK - length
    powers = np.zeros(_SCAN_BLOCK + 1)
    np.power(pole, _LAGS, out=powers[:-1])
    if abs(powers[-2]) < _TINY:
        # Subnormal entries would put BLAS on its slow path; they are
        # far below the rounding of every output they feed.
        powers[np.abs(powers) < _TINY] = 0.0
    table = powers[_POWER_INDEX]
    padded = drive.reshape(records, length)
    if pad:
        padded = np.concatenate(
            [np.zeros((records, pad)), padded], axis=-1)
    padded = padded.reshape(records, blocks, _SCAN_BLOCK)

    # Block-boundary states, one column per record, plus (when warming
    # up) one column holding the response to a unit starting state,
    # pole^(block·(b + 1) − pad) at the end of block b.
    states = np.empty((blocks, records + (warmup is not None)))
    states[:, :records] = np.matmul(padded, table[:, -1]).T
    if warmup is not None:
        states[:, records] = 0.0
        states[0, records] = pole ** (_SCAN_BLOCK - pad)
    step, carry = 1, powers[-2] * pole
    while step < blocks and abs(carry) >= _TINY:
        states[step:] += carry * states[:-step]
        step, carry = 2 * step, carry * carry
    if warmup is not None:
        start = (states[-1, :records]
                 + pole ** (length - 1) * np.reshape(warmup, records))
        states[:-1, :records] += states[:-1, records:] * start
        padded[:, 0, pad] += pole * start
    padded[:, 1:, 0] += pole * states[:-1, :records].T

    out = np.matmul(padded, table)
    return out.reshape(records, -1)[:, pad:].reshape(shape)
