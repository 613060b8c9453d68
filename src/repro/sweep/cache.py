"""Content-addressed on-disk stores for every engine's solved cells.

The expensive part of a cell is frequency-independent work: sizing the Gm
devices, solving the bias point, a batched waveform evaluation plus FFT,
a quantization pass.  :class:`ContentStore` persists those results as JSON
entries named by a SHA-256 content hash, so a re-run of a Monte-Carlo grid,
a refined frequency sweep, or a shard in another process skips the work.
It is the one read/write path of every store in the package:

* :class:`SpecCache` (here) — solved
  :class:`~repro.core.reconfigurable_mixer.SpecIntermediates` per
  ``(design, mode)``;
* :class:`~repro.waveform.cache.WaveformCache` and
  :class:`~repro.digital.cache.DigitalIfCache` — measure arrays per
  ``(design, mode, plan)`` (both :class:`MeasureCache` codecs);
* the disk tier of :class:`~repro.api.response_cache.ResponseCache`.

A codec supplies only its key fields, its payload, the check that turns a
payload back into a value, and its default directory.  The store owns the
rest:

* **content-addressed** — an entry's file name hashes its key fields
  (:meth:`MixerDesign.fingerprint`, the mode, any plan hash and a version
  field such as :data:`CACHE_VERSION`); any parameter change maps to a
  different entry;
* **versioned invalidation** — bump a codec's version whenever the meaning
  of a cached field changes: old entries stop matching and are recomputed,
  never reinterpreted;
* **corruption-safe** — entries are written atomically (temp file +
  ``os.replace``), and every unreadable entry is a counted miss: an I/O
  error, bytes that are not UTF-8, malformed JSON, or a payload the codec
  rejects.  The recomputed value overwrites it;
* **switchable** — pass ``cache=None``/``False`` (the default everywhere)
  for no caching, or set ``REPRO_SWEEP_CACHE=off`` in the environment to
  force-disable every engine store even where code requests one;
  ``REPRO_SWEEP_CACHE_DIR`` overrides the default directories.

Stores are cheap handles around a directory.  Separate processes (the
shards of :class:`~repro.sweep.parallel.ShardedRunner`) can share one
directory safely, because entries are immutable once written and writes are
atomic.  All codecs can share one directory too: their key fields differ,
so their entries never collide.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Any, Callable, TypeVar

import numpy as np

from repro.core.config import MixerDesign, MixerMode
from repro.core.reconfigurable_mixer import SpecIntermediates

#: Schema/semantics version of the cached spec payloads.  Bump on any change
#: to what the cached numbers mean; old entries then miss and are recomputed.
CACHE_VERSION = 1

#: Environment variable that force-disables caching when set to one of
#: ``off``/``0``/``false``/``no`` (case-insensitive).
DISABLE_ENV = "REPRO_SWEEP_CACHE"

#: Environment variable overriding the default cache directory.
DIRECTORY_ENV = "REPRO_SWEEP_CACHE_DIR"

_DISABLE_VALUES = {"off", "0", "false", "no"}

T = TypeVar("T")


def atomic_write_json(path: Path, payload: dict) -> None:
    """Write a JSON payload so readers never observe a partial entry.

    The bytes go to a temp file unique to this process *and thread* (the
    threaded HTTP server writes cache entries from concurrent handler
    threads, where a pid-only suffix would race), then move into place with
    ``os.replace`` — atomic on POSIX.  Concurrent writers of the same entry
    at worst race to install identical content.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(
        f"{path.name}.tmp-{os.getpid()}-{threading.get_ident()}")
    temp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    os.replace(temp, path)


def cache_disabled_by_env() -> bool:
    """True when the environment force-disables the engine stores."""
    return os.environ.get(DISABLE_ENV, "").strip().lower() in _DISABLE_VALUES


class ContentStore:
    """Directory of JSON entries: the one read path, write path and tally.

    Parameters
    ----------
    directory:
        Where entries live; created lazily on the first write.

    The ``hits`` / ``misses`` / ``stores`` / ``corrupt`` counters cover
    this instance only — the directory itself may be shared with other
    processes.  They are updated under a lock, because the serving layer
    reads and writes one store from concurrent threads.
    """

    #: Directory under ``~/.cache/repro-mixer`` that ``cache=True``
    #: resolves to; each codec names its own.
    default_subdir: str

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0

    @classmethod
    def default_directory(cls) -> Path:
        """The directory used when caching is requested without a path."""
        override = os.environ.get(DIRECTORY_ENV, "").strip()
        if override:
            return Path(override)
        return Path.home() / ".cache" / "repro-mixer" / cls.default_subdir

    @classmethod
    def resolve(cls, cache):
        """Normalise a ``cache=`` option into a store (or ``None``).

        Accepted values: ``None``/``False`` (caching off — the default
        everywhere), ``True`` (cache under :meth:`default_directory`), a
        string/``Path`` (cache under that directory), an instance of this
        codec (used as-is), or any other store, whose directory is adopted:
        the entry points take **one** ``cache=`` option for every engine.
        Whatever the caller asked for, ``REPRO_SWEEP_CACHE=off`` in the
        environment wins and disables caching.
        """
        if cache is None or cache is False:
            return None
        if cache_disabled_by_env():
            return None
        if isinstance(cache, cls):
            return cache
        if isinstance(cache, ContentStore):
            return cls(cache.directory)
        if cache is True:
            return cls(cls.default_directory())
        if isinstance(cache, (str, Path)):
            return cls(cache)
        raise TypeError(
            "cache must be None/False, True, a directory path, or a store; "
            f"got {type(cache).__name__}")

    @staticmethod
    def content_key(fields: dict) -> str:
        """SHA-256 of the canonical JSON of an entry's key fields."""
        payload = json.dumps(fields, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def path(self, name: str) -> Path:
        """Filesystem path of the entry called ``name``."""
        return self.directory / f"{name}.json"

    def read(self, name: str, decode: Callable[[Any], T]) -> T | None:
        """``decode`` of the entry's JSON payload, or ``None`` on a miss.

        A missing file is a plain miss.  Every other failure is a miss
        counted as ``corrupt``: an I/O error, bytes that are not UTF-8
        (``UnicodeDecodeError`` is a ``ValueError``), malformed JSON, or a
        ``KeyError``/``TypeError``/``ValueError`` raised by ``decode`` (a
        codec raises these for a wrong version, a wrong fingerprint or a
        mis-shaped payload).  The caller recomputes, and its write replaces
        the bad entry.
        """
        try:
            value = decode(json.loads(
                self.path(name).read_text(encoding="utf-8")))
        except FileNotFoundError:
            with self._lock:
                self.misses += 1
            return None
        except (OSError, KeyError, TypeError, ValueError):
            with self._lock:
                self.corrupt += 1
                self.misses += 1
            return None
        with self._lock:
            self.hits += 1
        return value

    def write(self, name: str, payload: dict) -> None:
        """Persist one entry atomically (see :func:`atomic_write_json`)."""
        atomic_write_json(self.path(name), payload)
        with self._lock:
            self.stores += 1

    def counts(self) -> dict[str, int]:
        """One consistent snapshot of the four counters."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "stores": self.stores, "corrupt": self.corrupt}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}({str(self.directory)!r}, "
                f"hits={self.hits}, misses={self.misses}, "
                f"stores={self.stores})")


class SpecCache(ContentStore):
    """Store of solved :class:`SpecIntermediates`, one entry per cell."""

    default_subdir = "sweep-intermediates"

    def _name(self, fingerprint: str, mode: MixerMode) -> str:
        return self.content_key({"cache_version": CACHE_VERSION,
                                 "design": fingerprint,
                                 "mode": mode.value})

    def entry_key(self, design: MixerDesign, mode: MixerMode) -> str:
        """Content hash naming the entry for one (design, mode) cell."""
        return self._name(design.fingerprint(), mode)

    def entry_path(self, design: MixerDesign, mode: MixerMode) -> Path:
        """Filesystem path of the entry for one (design, mode) cell."""
        return self.path(self.entry_key(design, mode))

    def load(self, design: MixerDesign,
             mode: MixerMode) -> SpecIntermediates | None:
        """The cached solution for a cell, or ``None`` on miss/corruption."""
        fingerprint = design.fingerprint()

        def decode(payload) -> SpecIntermediates:
            if payload["cache_version"] != CACHE_VERSION:
                raise ValueError("cache version mismatch")
            if payload["design_fingerprint"] != fingerprint:
                raise ValueError("design fingerprint mismatch")
            intermediates = SpecIntermediates.from_dict(
                payload["intermediates"])
            if intermediates.mode is not mode:
                raise ValueError("cached mode mismatch")
            return intermediates

        return self.read(self._name(fingerprint, mode), decode)

    def store(self, design: MixerDesign, mode: MixerMode,
              intermediates: SpecIntermediates) -> None:
        """Persist one solved cell, atomically."""
        if intermediates.mode is not mode:
            raise ValueError(
                f"intermediates are for mode {intermediates.mode.value!r}, "
                f"not {mode.value!r}")
        fingerprint = design.fingerprint()
        self.write(self._name(fingerprint, mode), {
            "cache_version": CACHE_VERSION,
            "design_fingerprint": fingerprint,
            "intermediates": intermediates.to_dict(),
        })


class MeasureCache(ContentStore):
    """Store of per-(design, mode, plan) measure arrays.

    The shared codec of the waveform and digital-IF engines; a subclass
    names its version field and value, the plan field whose length every
    measure array has, and its default directory.  ``plan`` is any frozen
    plan with ``content_hash()`` and ``measures``.
    """

    version_field: str
    version: int
    length_field: str

    def _name(self, fingerprint: str, mode: MixerMode, plan_hash: str) -> str:
        return self.content_key({self.version_field: self.version,
                                 "design": fingerprint,
                                 "mode": mode.value,
                                 "plan": plan_hash})

    def entry_key(self, design: MixerDesign, mode: MixerMode, plan) -> str:
        """Content hash naming the entry for one (design, mode, plan) cell."""
        return self._name(design.fingerprint(), mode, plan.content_hash())

    def entry_path(self, design: MixerDesign, mode: MixerMode, plan) -> Path:
        """Filesystem path of the entry for one (design, mode, plan) cell."""
        return self.path(self.entry_key(design, mode, plan))

    def load(self, design: MixerDesign, mode: MixerMode,
             plan) -> dict[str, np.ndarray] | None:
        """The cached measures for a cell, or ``None`` on miss/corruption."""
        fingerprint = design.fingerprint()
        plan_hash = plan.content_hash()
        length = len(getattr(plan, self.length_field))

        def decode(payload) -> dict[str, np.ndarray]:
            if payload[self.version_field] != self.version:
                raise ValueError("cache version mismatch")
            if payload["design_fingerprint"] != fingerprint:
                raise ValueError("design fingerprint mismatch")
            if payload["plan"] != plan_hash:
                raise ValueError("plan hash mismatch")
            measures: dict[str, np.ndarray] = {}
            for name in plan.measures:
                values = np.asarray(payload["measures"][name], dtype=float)
                if values.shape != (length,):
                    raise ValueError(f"measure {name!r} has the wrong length")
                measures[name] = values
            return measures

        return self.read(self._name(fingerprint, mode, plan_hash), decode)

    def store(self, design: MixerDesign, mode: MixerMode, plan,
              measures: dict[str, np.ndarray]) -> None:
        """Persist one evaluated cell, atomically."""
        missing = sorted(set(plan.measures) - set(measures))
        if missing:
            raise ValueError(f"measures are missing {missing}")
        fingerprint = design.fingerprint()
        plan_hash = plan.content_hash()
        self.write(self._name(fingerprint, mode, plan_hash), {
            self.version_field: self.version,
            "design_fingerprint": fingerprint,
            "mode": mode.value,
            "plan": plan_hash,
            "measures": {name: np.asarray(measures[name],
                                          dtype=float).tolist()
                         for name in plan.measures},
        })

