"""Content-addressed on-disk cache of digital-IF measures.

The expensive part of a digital cell is the quantization pass — tiling the
tapped time-domain block, quantizing every ADC width, running the
fixed-point mix and CIC, and building the float reference alongside.
:class:`DigitalIfCache` persists the resulting measure arrays per
**(design, mode, digital plan)** cell, keyed on a content hash of
:meth:`MixerDesign.fingerprint`, the mode,
:meth:`DigitalIfPlan.content_hash` (which covers the embedded analog
stimulus and every digital parameter) and :data:`DIGITAL_CACHE_VERSION`.
A warm re-run of a digital-IF sweep therefore performs **zero quantization
passes** (observable through :func:`repro.digital.engine.digital_pass_count`).

It is a :class:`~repro.sweep.cache.MeasureCache` codec: the read/write
path, the corruption handling and the ``REPRO_SWEEP_CACHE`` switches are
those of :class:`~repro.sweep.cache.ContentStore`.
"""

from __future__ import annotations

from repro.sweep.cache import MeasureCache

#: Schema/semantics version of the cached payloads; bump on any change to
#: what the cached measures mean — old entries then miss and are recomputed.
DIGITAL_CACHE_VERSION = 2


class DigitalIfCache(MeasureCache):
    """Store of per-(design, mode, plan) measure arrays, one per ADC width."""

    default_subdir = "digital-measures"
    version_field = "digital_cache_version"
    version = DIGITAL_CACHE_VERSION
    length_field = "adc_bits"
