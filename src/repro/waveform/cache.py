"""Content-addressed on-disk cache of waveform-bench measures.

The expensive part of a waveform cell is the batched time-domain evaluation
plus FFT — building the stimulus block, pushing it through the nonlinear
device model and reading the product bins.  :class:`WaveformCache` persists
the resulting measure arrays per **(design, mode, stimulus plan)** cell,
keyed on a content hash of :meth:`MixerDesign.fingerprint`, the mode,
:meth:`StimulusPlan.content_hash` (tones, powers, grid, LO) and
:data:`WAVEFORM_CACHE_VERSION`.  A warm re-run of Fig. 10, the IIP2 check
or a P1dB sweep therefore performs **zero FFT evaluations** (observable
through :func:`repro.waveform.engine.waveform_fft_count`).

It is a :class:`~repro.sweep.cache.MeasureCache` codec: the read/write
path, the corruption handling and the ``REPRO_SWEEP_CACHE`` switches are
those of :class:`~repro.sweep.cache.ContentStore`.
"""

from __future__ import annotations

from repro.sweep.cache import MeasureCache

#: Schema/semantics version of the cached payloads; bump on any change to
#: what the cached measures mean — old entries then miss and are recomputed.
WAVEFORM_CACHE_VERSION = 2


class WaveformCache(MeasureCache):
    """Store of per-(design, mode, plan) measure arrays, one per power."""

    default_subdir = "waveform-measures"
    version_field = "waveform_cache_version"
    version = WAVEFORM_CACHE_VERSION
    length_field = "input_powers_dbm"
