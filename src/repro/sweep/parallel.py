"""Parallel execution: shard any engine's design axis across processes.

The per-(design, mode) cell work of every engine — sizing bisections and
spec maths in :class:`~repro.sweep.runner.SweepRunner`, device evaluation
plus FFT in :class:`~repro.waveform.engine.WaveformRunner`, quantization
passes in :class:`~repro.digital.engine.DigitalIfRunner` — is
embarrassingly parallel across the design axis: no cell reads another
cell's state.  :class:`ShardedRunner` exploits that for all three.  It
splits the design records into contiguous slices, runs each slice through
an ordinary engine in a ``concurrent.futures.ProcessPoolExecutor`` worker,
and stitches the slice results back together with the result type's
``concat`` along the design axis.

Each worker builds its engine from the parent's baseline design, the store
directory and the plain constructor options (the sweep's ``specs``), then
calls ``run`` with the parent's arguments and its slice of the designs.
Every cell is therefore computed by exactly the same code path as the
inline run — defaulted frequency grids included — so the stitched result is
**bit-identical** to the engine's own ``run`` for any worker count (gated in
``benchmarks/test_bench_parallel.py`` and ``tests/test_engine_spine.py``).

Only the design axis is sharded: the frequency, power and bit-width axes
are cheap array maths inside a cell.  Combine sharding with the on-disk
stores (:mod:`repro.sweep.cache`): shards share one directory, so a re-run
— parallel or not — skips every cell any previous run or shard paid for.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from repro.api.progress import report_progress
from repro.core.config import MixerDesign
from repro.sweep.grid import DESIGN_AXIS, SweepAxis
from repro.sweep.runner import SweepRunner

# -- shared process pools ------------------------------------------------------
#
# A ProcessPoolExecutor is expensive to spin up (one interpreter fork/spawn
# per worker), and building and tearing down a pool per run made a busy
# server pay that cost on every parallel request.  With reuse enabled, pools
# are process-wide singletons keyed by worker count, built on first use and
# handed out to every subsequent run; `Executor` instances are thread-safe,
# so concurrent jobs interleave their shard maps safely.  Reuse is opt-in
# (the serving layer enables it) because a long-lived pool is server
# behaviour: one-shot scripts and tests should not leave idle worker
# processes behind.  Bit-identity is untouched either way — `pool.map`
# preserves task order and every shard runs exactly the same code path.

_POOLS_LOCK = threading.Lock()
_SHARED_POOLS: dict[int, ProcessPoolExecutor] = {}
_POOL_REUSE = False


def set_pool_reuse(enabled: bool) -> None:
    """Turn process-pool reuse on or off for this process.

    The serving layer calls ``set_pool_reuse(True)`` at startup so every
    parallel run (of any engine) draws from one persistent pool per worker
    count instead of spinning up its own.
    """
    global _POOL_REUSE
    _POOL_REUSE = bool(enabled)


def pool_reuse_enabled() -> bool:
    """Whether parallel runs currently draw from the shared pools."""
    return _POOL_REUSE


def shared_executor(max_workers: int) -> ProcessPoolExecutor:
    """The process-wide executor for ``max_workers``, built on first use."""
    if max_workers < 1:
        raise ValueError("max_workers must be at least 1")
    with _POOLS_LOCK:
        pool = _SHARED_POOLS.get(max_workers)
        if pool is None:
            pool = ProcessPoolExecutor(max_workers=max_workers)
            _SHARED_POOLS[max_workers] = pool
        return pool


def _evict_shared_pool(pool: ProcessPoolExecutor) -> None:
    """Drop a broken pool from the registry so the next run builds afresh."""
    with _POOLS_LOCK:
        for workers, shared in list(_SHARED_POOLS.items()):
            if shared is pool:
                del _SHARED_POOLS[workers]
    pool.shutdown(wait=False, cancel_futures=True)


def shutdown_shared_pools(wait: bool = True) -> None:
    """Tear down every shared pool (server shutdown / test cleanup)."""
    with _POOLS_LOCK:
        pools = list(_SHARED_POOLS.values())
        _SHARED_POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=wait)


@contextmanager
def executor_for(max_workers: int) -> Iterator[ProcessPoolExecutor]:
    """A pool for one parallel run: shared when reuse is on, private else.

    Private pools are torn down on exit; shared pools outlive the run (that
    is the point) and are closed by :func:`shutdown_shared_pools`.
    """
    if _POOL_REUSE:
        yield shared_executor(max_workers)
        return
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        yield pool


@dataclass(frozen=True)
class _ShardTask:
    """Everything one worker needs to run its slice of the design axis.

    Plain picklable values only — the engine class (pickled by reference),
    frozen design records and plans, tuples of floats and enum members, an
    optional directory string — so the task crosses the process boundary
    cheaply under any start method.
    """

    engine: type
    design: MixerDesign
    cache_dir: str | None
    options: dict[str, Any]
    args: tuple
    kwargs: dict[str, Any]
    designs: dict[str, MixerDesign]


def _run_shard(task: _ShardTask):
    """Worker entry point: one engine over one design-axis slice."""
    runner = task.engine(task.design, cache=task.cache_dir, **task.options)
    return runner.run(*task.args, designs=task.designs, **task.kwargs)


class ShardedRunner:
    """Drop-in engine runner that shards the design axis over processes.

    Parameters
    ----------
    engine:
        The engine class — :class:`~repro.sweep.runner.SweepRunner`,
        :class:`~repro.waveform.engine.WaveformRunner` or
        :class:`~repro.digital.engine.DigitalIfRunner`.  It is built as
        ``engine(design, cache=..., **options)``, its ``run`` takes
        ``designs=`` and ``modes=`` keywords, and its class attribute
        ``stage`` names the progress frames.
    design:
        Baseline design record (defaults and nominal grids), as for the
        engine.
    workers:
        Worker process count; ``None`` means ``os.cpu_count()``.  With one
        worker — or a design axis too short to shard — the run stays inline
        in this process, no pool spawned.
    cache:
        On-disk store shared by all shards; same accepted values as the
        engine's ``cache=``.  Each worker both reads and extends the shared
        directory.
    options:
        Further plain constructor options of the engine (``specs`` for the
        sweep).
    """

    def __init__(self, engine: type, design: MixerDesign | None = None,
                 workers: int | None = None, cache=None, **options) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = int(workers) if workers is not None \
            else (os.cpu_count() or 1)
        self.options = options
        # The inline engine owns validation, the store resolution, the
        # design-axis labelling rules and the single-process fallback, so
        # both paths stay identical.
        self._inline = engine(design, cache=cache, **options)

    @property
    def design(self) -> MixerDesign:
        """The baseline design record."""
        return self._inline.design

    @property
    def cache(self):
        """The engine's resolved store (``None`` when caching is off)."""
        return self._inline.cache

    def run(self, *args, modes=None, designs=None, **kwargs):
        """Evaluate the engine's grid, sharded along the design axis.

        Accepts the engine's ``run`` arguments (``designs`` and ``modes`` by
        keyword) and returns a bit-identical result.  Sharding applies only
        when there are at least two design records and two workers.
        Completed shards stream as progress frames under the engine's
        ``stage``.  A pool that broke (a worker died) is evicted and
        replaced, and the unfinished shards re-run once: shards are pure and
        store writes are atomic, so a re-run cannot change a result.
        """
        design_axis, records = SweepAxis.design_axis(designs, self.design)
        _, members = SweepAxis.mode_axis(modes)
        shard_count = min(self.workers, len(records))
        if shard_count <= 1:
            return self._inline.run(
                *args, modes=members,
                designs=dict(zip(design_axis.values, records)), **kwargs)

        engine = type(self._inline)
        cache_dir = str(self.cache.directory) if self.cache is not None \
            else None
        labels = design_axis.values
        tasks = []
        for bounds in np.array_split(np.arange(len(records)), shard_count):
            start, stop = int(bounds[0]), int(bounds[-1]) + 1
            tasks.append(_ShardTask(
                engine=engine, design=self.design, cache_dir=cache_dir,
                options=self.options, args=args,
                kwargs={**kwargs, "modes": members},
                designs=dict(zip(labels[start:stop], records[start:stop]))))
        shards: list = []
        designs_done = 0
        for attempt in (1, 2):
            pending = tasks[len(shards):]
            try:
                with executor_for(shard_count) as pool:
                    for task, shard in zip(pending,
                                           pool.map(_run_shard, pending)):
                        shards.append(shard)
                        designs_done += len(task.designs)
                        # Completed shards are partial progress the job
                        # surface can stream; with no observer this is a
                        # thread-local no-op.
                        report_progress(stage=engine.stage,
                                        shards_done=len(shards),
                                        shards_total=len(tasks),
                                        designs_done=designs_done,
                                        designs_total=len(records))
                break
            except BrokenProcessPool:
                if attempt == 2:
                    raise
                _evict_shared_pool(pool)
        return type(shards[0]).concat(shards, axis=DESIGN_AXIS)


def make_runner(design: MixerDesign | None = None,
                workers: int | None = None, cache=None,
                engine: type = SweepRunner, **options):
    """The runner an entry point should use for its options.

    ``workers=None`` or ``1`` keeps the plain single-process engine (the
    default everywhere — entry points pay nothing for the parallel
    machinery unless asked); anything higher returns a
    :class:`ShardedRunner` over ``engine``.  ``cache`` and the engine's
    constructor ``options`` (``specs`` for the sweep) are honoured by both.
    """
    if workers is None or workers == 1:
        return engine(design, cache=cache, **options)
    return ShardedRunner(engine, design, workers=workers, cache=cache,
                         **options)
