"""Differential suite for the numpy one-pole IF filter kernel.

:class:`~repro.rf.filters.FirstOrderLowPass` runs its bilinear RC section
through :func:`~repro.rf.filters._one_pole_scan`, a blocked numpy scan of
``y[n] = p·y[n−1] + u[n]``.  ``scipy.signal.lfilter`` is the oracle here
and nowhere else: the library itself never imports scipy, and the last
class below runs every registered experiment in a fresh interpreter to
keep it that way.

Checked on generated records — lengths 1–20,000 (whole and partial scan
blocks), 1–5 rows, poles whose memory is far below and far above the
record length, random initial states:

* :meth:`FirstOrderLowPass.apply` against one ``lfilter`` pass;
* :meth:`FirstOrderLowPass.apply_periodic` against the two-pass
  full-record warm-up it stands for;
* the kernel with an arbitrary initial state, both ways;
* every row of a 1/2/4/16-row block bitwise equal to that row alone.

The bound is 1e-12 of each row's peak.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.rf.filters import FirstOrderLowPass, _drive, _one_pole_scan

SAMPLE_RATE = 10.24e9
RELATIVE_BOUND = 1e-12
DIFF_SETTINGS = settings(max_examples=30, deadline=None)

#: Lengths 1–20,000, with short records drawn often enough to cover one
#: partial block, one whole block and the first boundaries.
LENGTHS = st.one_of(st.integers(1, 70), st.integers(1, 20_000))
#: Pole frequencies whose memory, about fs / (2π·f) samples, runs from
#: ~1e6 samples down to under one (the top decade puts the discrete pole
#: below zero).
POLES_HZ = st.floats(3.0, 10.3).map(lambda exponent: 10.0 ** exponent)


def _records(seed: int, rows: int, length: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, size=(rows, 1))
    offset = rng.normal(size=(rows, 1))
    return scale * (rng.normal(size=(rows, length)) + offset)


def _assert_close(got: np.ndarray, reference: np.ndarray) -> None:
    assert got.shape == reference.shape
    peak = np.max(np.abs(reference), axis=-1, keepdims=True)
    error = np.max(np.abs(got - reference) / peak)
    assert error <= RELATIVE_BOUND, f"relative error {error:.3e}"


@pytest.fixture(scope="module")
def lfilter():
    """The test-only oracle (skipped where scipy is not installed)."""
    return pytest.importorskip("scipy.signal").lfilter


def _two_pass(lfilter, b, a, samples, zi):
    """The full-record warm-up: the end state of one pass seeds the next."""
    _, settled = lfilter(b, a, samples, axis=-1, zi=zi)
    out, _ = lfilter(b, a, samples, axis=-1, zi=settled)
    return out


class TestAgainstLfilter:
    @DIFF_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 5),
           length=LENGTHS, pole_hz=POLES_HZ,
           dc_gain=st.floats(0.1, 100.0))
    def test_apply_and_apply_periodic(self, lfilter, seed, rows, length,
                                      pole_hz, dc_gain):
        lp = FirstOrderLowPass(dc_gain=dc_gain, pole_frequency=pole_hz)
        samples = _records(seed, rows, length)
        b, a = lp._bilinear_coefficients(SAMPLE_RATE)
        zi = lp._dc_seed(samples, b[0])
        reference, _ = lfilter(b, a, samples, axis=-1, zi=zi)
        _assert_close(lp.apply(samples, SAMPLE_RATE), reference)
        _assert_close(lp.apply_periodic(samples, SAMPLE_RATE),
                      _two_pass(lfilter, b, a, samples, zi))

    @DIFF_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 5),
           length=LENGTHS, pole_hz=POLES_HZ)
    def test_kernel_from_any_initial_state(self, lfilter, seed, rows,
                                           length, pole_hz):
        lp = FirstOrderLowPass(dc_gain=1.0, pole_frequency=pole_hz)
        samples = _records(seed, rows, length)
        (b0, b1), a = lp._bilinear_coefficients(SAMPLE_RATE)
        zi = np.random.default_rng(seed + 1).normal(size=(rows, 1)) * 10.0
        pole = -a[1]

        reference, _ = lfilter([b0, b1], a, samples, axis=-1, zi=zi)
        _assert_close(_one_pole_scan(_drive(samples, b0, b1, zi), pole),
                      reference)

        wrapped = b1 * samples[..., -1:]
        _assert_close(
            _one_pole_scan(_drive(samples, b0, b1, wrapped), pole,
                           warmup=zi - wrapped),
            _two_pass(lfilter, [b0, b1], a, samples, zi))

    def test_batched_axes_and_one_dimensional_records(self, lfilter):
        lp = FirstOrderLowPass(dc_gain=2.0, pole_frequency=2e7)
        samples = _records(3, 6, 1000).reshape(2, 3, 1000)
        b, a = lp._bilinear_coefficients(SAMPLE_RATE)
        zi = lp._dc_seed(samples, b[0])
        reference, _ = lfilter(b, a, samples, axis=-1, zi=zi)
        _assert_close(lp.apply(samples, SAMPLE_RATE), reference)
        _assert_close(lp.apply_periodic(samples, SAMPLE_RATE),
                      _two_pass(lfilter, b, a, samples, zi))
        assert np.array_equal(lp.apply(samples[1, 2], SAMPLE_RATE),
                              lp.apply(samples, SAMPLE_RATE)[1, 2])
        assert lp.apply(np.empty((3, 0)), SAMPLE_RATE).shape == (3, 0)


class TestBatchedRowsAreSolo:
    @pytest.mark.parametrize("method", ["apply", "apply_periodic"])
    @pytest.mark.parametrize("rows", [1, 2, 4, 16])
    @pytest.mark.parametrize("length", [1, 17, 1000, 10240, 10001])
    def test_each_row_equals_the_row_alone(self, method, rows, length):
        lp = FirstOrderLowPass(dc_gain=1.0, pole_frequency=1.8e7)
        block = _records(rows * length, rows, length)
        filtered = getattr(lp, method)(block, SAMPLE_RATE)
        for row in range(rows):
            alone = getattr(lp, method)(block[row:row + 1], SAMPLE_RATE)
            assert np.array_equal(filtered[row], alone[0])
            assert np.array_equal(
                filtered[row], getattr(lp, method)(block[row], SAMPLE_RATE))


_COLD_START = """
import json, sys
from repro.api import MixerService, SpecRequest
from repro.api.registry import default_registry
import repro.cli, repro.serve

service = MixerService(response_cache=False)
for name in default_registry().names():
    service.submit(SpecRequest(name))
print(json.dumps(sorted(name for name in sys.modules
                        if name == "scipy" or name.startswith("scipy."))))
"""


class TestServedPathIsNumpyOnly:
    def test_no_scipy_module_after_every_default_request(self):
        """Every registered experiment's default request, the CLI and the
        HTTP server load no scipy module: the cold first request pays for
        numpy alone."""
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src),
                   REPRO_SWEEP_CACHE="off")
        done = subprocess.run([sys.executable, "-c", _COLD_START], env=env,
                              capture_output=True, text=True, timeout=600,
                              check=True)
        assert json.loads(done.stdout.strip().splitlines()[-1]) == []
