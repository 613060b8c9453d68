"""Request-level response cache: in-memory LRU over an on-disk store.

This is the layer *above* the sweep engine's :class:`~repro.sweep.cache.\
SpecCache`: where the spec cache remembers solved per-(design, mode)
intermediates so a re-run skips the sizing bisections, the response cache
remembers the **entire encoded answer** to a request, keyed on
``(design fingerprint, experiment, resolved-grid hash)`` — a repeated
identical request never reaches the engine at all (zero sizing bisections,
asserted in ``tests/test_api.py``).

The request key already folds in :data:`~repro.api.request.API_VERSION`.
The engine cache versions are not part of that key (it is on the wire), so
every disk entry is stamped with :func:`engine_versions` instead: an entry
computed under another version of an engine — a server restarted on an old
cache directory after a numerics change — is a counted miss, recomputed
and overwritten, never served.  The in-memory tier is a bounded LRU so a
long-lived server keeps its hot designs resident without growing
unboundedly.  The disk tier is a :class:`~repro.sweep.cache.ContentStore`
— the engine stores' read/write path, with atomic writes and every
unreadable entry a counted miss — whose entries are named by the request
key.  It is shared by every service
instance pointed at the directory (CLI runs, server restarts).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from pathlib import Path

from repro.api.request import API_VERSION
from repro.sweep.cache import CACHE_VERSION, ContentStore

#: Default capacity of the in-memory LRU tier.
DEFAULT_LRU_SIZE = 128

#: The disk-entry field holding :func:`engine_versions`.
STAMP_FIELD = "engine_versions"


def engine_versions() -> dict[str, int]:
    """The engine versions every disk entry is stamped with; an entry with
    any other stamp, or none, misses.

    The waveform and digital versions are imported here rather than at
    module level: both engine packages import :mod:`repro.api` (for
    progress reporting), which imports this module.
    """
    from repro.digital.cache import DIGITAL_CACHE_VERSION
    from repro.waveform.cache import WAVEFORM_CACHE_VERSION

    return {"cache_version": CACHE_VERSION,
            "digital_cache_version": DIGITAL_CACHE_VERSION,
            "waveform_cache_version": WAVEFORM_CACHE_VERSION}


class ResponseCache:
    """Two-tier (memory LRU + optional disk) store of encoded responses.

    Parameters
    ----------
    directory:
        Where the disk tier lives; ``None`` keeps the cache memory-only.
    lru_size:
        Capacity of the memory tier; 0 disables it (disk-only).

    Values are the JSON-ready payloads of :meth:`SpecResponse.to_dict`'s
    ``result`` field plus the identifying metadata; the service rebuilds a
    :class:`~repro.api.request.SpecResponse` around them on a hit.
    """

    def __init__(self, directory: str | Path | None = None,
                 lru_size: int = DEFAULT_LRU_SIZE) -> None:
        if lru_size < 0:
            raise ValueError("lru_size must be non-negative")
        self.directory = Path(directory) if directory is not None else None
        self._disk = ContentStore(directory) if directory is not None \
            else None
        self.lru_size = int(lru_size)
        self._lock = threading.Lock()
        self._memory: OrderedDict[str, dict] = OrderedDict()
        self.memory_hits = 0
        self.stores = 0
        # Lookups that missed a memory-only cache; with a disk tier every
        # memory miss is a disk lookup, tallied by the disk store.
        self._memory_misses = 0

    # -- load / store ---------------------------------------------------------

    def load(self, key: str) -> tuple[dict, str] | None:
        """``(entry, tier)`` for a request key, or ``None`` on miss.

        ``tier`` is ``"memory"`` or ``"disk"``.  A disk hit is promoted into
        the memory tier.  Any unreadable or malformed disk entry — or one
        stored under another key, API version or engine-version stamp —
        counts as corrupt and misses (the next store overwrites it).
        """
        with self._lock:
            entry = self._memory.get(key)
            if entry is not None:
                self._memory.move_to_end(key)
                self.memory_hits += 1
                return entry, "memory"
            if self._disk is None:
                self._memory_misses += 1
                return None

        def decode(entry) -> dict:
            if not isinstance(entry, dict) or entry.get("request_key") != key \
                    or entry.get("api_version", API_VERSION) != API_VERSION \
                    or entry.pop(STAMP_FIELD, None) != engine_versions():
                raise ValueError("malformed or stale response-cache entry")
            return entry

        entry = self._disk.read(key, decode)
        if entry is None:
            return None
        with self._lock:
            self._remember(key, entry)
        return entry, "disk"

    def store(self, key: str, entry: dict) -> None:
        """Persist one response entry under its request key (atomically)."""
        if entry.get("request_key") != key:
            raise ValueError("entry's request_key must match the store key")
        with self._lock:
            self._remember(key, entry)
            self.stores += 1
        if self._disk is not None:
            self._disk.write(key, {**entry, STAMP_FIELD: engine_versions()})

    def _remember(self, key: str, entry: dict) -> None:
        """Insert into the LRU tier, evicting the least recent past capacity."""
        if self.lru_size == 0:
            return
        self._memory[key] = entry
        self._memory.move_to_end(key)
        while len(self._memory) > self.lru_size:
            self._memory.popitem(last=False)

    # -- introspection --------------------------------------------------------

    def _disk_counts(self) -> dict[str, int]:
        if self._disk is None:
            return {"hits": 0, "misses": 0, "corrupt": 0}
        return self._disk.counts()

    @property
    def misses(self) -> int:
        """Lookups neither tier answered."""
        return self._memory_misses + self._disk_counts()["misses"]

    @property
    def corrupt(self) -> int:
        """Disk entries that could not be read back (each also a miss)."""
        return self._disk_counts()["corrupt"]

    @property
    def memory_size(self) -> int:
        """Entries currently resident in the LRU tier.

        Taken under the cache lock: the metrics endpoint polls this while
        request threads mutate the ``OrderedDict``, and ``len()`` during a
        concurrent re-link is exactly the racy read the lock exists for.
        """
        with self._lock:
            return len(self._memory)

    def stats(self) -> dict:
        """One consistent, JSON-ready snapshot of the cache counters.

        This is what ``GET /v1/metrics`` serves: every counter and the
        derived hit rate read under one lock acquisition, so the numbers
        are mutually consistent even under concurrent traffic (counters
        summed from separate locked reads could tear — e.g. a hit landing
        between reading ``memory_hits`` and ``misses`` skews the rate).
        """
        with self._lock:
            disk = self._disk_counts()
            misses = self._memory_misses + disk["misses"]
            hits = self.memory_hits + disk["hits"]
            lookups = hits + misses
            return {
                "memory_entries": len(self._memory),
                "lru_size": self.lru_size,
                "disk_tier": self.directory is not None,
                "memory_hits": self.memory_hits,
                "disk_hits": disk["hits"],
                "misses": misses,
                "stores": self.stores,
                "corrupt": disk["corrupt"],
                "hit_rate": hits / lookups if lookups else 0.0,
            }

    def clear_memory(self) -> None:
        """Drop the memory tier (the disk tier is untouched)."""
        with self._lock:
            self._memory.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = str(self.directory) if self.directory else "memory-only"
        return (f"ResponseCache({where!r}, lru={self.memory_size}/"
                f"{self.lru_size}, mem_hits={self.memory_hits}, "
                f"disk_hits={self.disk_hits}, misses={self.misses})")
