"""Span tracing for the served-request benchmark.

Two halves share this module because they share the span format:

* :class:`Tracer` and :func:`install` run **inside the server process**
  (``traced_serve.py`` calls them before ``repro.serve.main``).  They wrap
  the public entry points of each ``src/repro`` layer with spans and
  counters.  Nothing in ``src/`` is edited: the wrappers are installed on
  the module and class attributes the server looks up at call time.
* :func:`layer_metrics` runs **in the benchmark process** and turns the
  dumped spans into the per-layer metrics.

A span is ``(span_id, parent_id, request_id, layer, start, end)``.  The
parent is the enclosing span on the same thread; the request id comes from
the ``X-Perfbench-Id`` header the load generator sends, and follows the
request from the HTTP handler thread to the job-worker thread through the
:class:`~repro.api.request.SpecRequest` object the job carries.  Spans and
counts stay in memory and are written out once, when the server exits.

A layer's self time is the summed duration of its spans minus the part
covered by their child spans, so nested layers never count twice.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager

#: Header carrying the load generator's request id.
REQUEST_ID_HEADER = "X-Perfbench-Id"

#: Layers whose self time is reported, in report order, with the metric
#: stem each is published under (``<stem>_ms`` per request, ``<stem>_pct``
#: as a share of traced request wall time).
TIMED_LAYERS = (
    "serve.http",
    "jobs.submit",
    "api.plan",
    "api.cache_load",
    "api.cache_store",
    "api.encode",
    "experiments.runner",
    "sweep.run",
    "core.sizing",
    "core.intermediates",
    "core.taylor",
    "waveform.run",
    "waveform.evaluate",
    "rf.filter",
    "digital.run",
    "optimize.propose",
    "optimize.self",
)

#: Work counts reported per timed request.
COUNTS = (
    "jobs.shed",
    "sweep.cells",
    "core.sizing_solves",
    "core.batched_sizing_calls",
    "core.intermediates_cells",
    "devices.op_calls",
    "devices.array_op_calls",
    "waveform.ffts",
    "digital.passes",
)

#: Counts also broken down by experiment (per request of that experiment).
COUNTS_BY_EXPERIMENT = ("waveform.ffts", "digital.passes")

#: Spans that wait rather than work: recorded (their children are real
#: work on the same thread) but never reported as self time.
WAIT_LAYER = "jobs.wait"

#: The request-level span every traced request has; its duration is the
#: request's server-side wall time.
REQUEST_LAYER = "serve.http"

#: One-time cost, reported per server rather than per request.
SCIPY_IMPORT_LAYER = "rf.scipy_import"


class Tracer:
    """In-memory spans, counts and samples of one server process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.samples: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # Counts live in per-thread dicts so the hot counters (device
        # operating points) never take a lock; the dicts are merged at dump.
        self._count_tables: list[dict] = []
        self._tables_lock = threading.Lock()
        #: id(SpecRequest) -> request id, handed from the HTTP thread that
        #: submitted a job to the worker thread that executes it.
        self.rid_by_request: dict[int, str] = {}

    def state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.rid = None
            local.counts = {}
            with self._tables_lock:
                self._count_tables.append(local.counts)
        return local

    @contextmanager
    def span(self, layer: str):
        local = self.state()
        parent = local.stack[-1] if local.stack else 0
        span_id = next(self._ids)
        local.stack.append(span_id)
        start = time.perf_counter()
        try:
            yield local
        finally:
            end = time.perf_counter()
            local.stack.pop()
            self.spans.append((span_id, parent, local.rid, layer, start, end))

    def count(self, name: str, amount: int = 1) -> None:
        local = self.state()
        key = (local.rid, name)
        local.counts[key] = local.counts.get(key, 0) + amount

    def sample(self, name: str, value: float) -> None:
        self.samples.append((self.state().rid, name, value))

    def wrap(self, function, layer: str, after=None):
        """``function`` inside a span; ``after(args, result)`` may count."""
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            with tracer.span(layer):
                result = function(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return traced

    def counted(self, function, name: str):
        """``function`` counting its calls, without a span (hot paths)."""
        tracer = self

        @functools.wraps(function)
        def counting(*args, **kwargs):
            tracer.count(name)
            return function(*args, **kwargs)

        return counting

    def dump(self, path: str) -> None:
        counts: dict[tuple, int] = {}
        with self._tables_lock:
            tables = list(self._count_tables)
        for table in tables:
            for key, value in list(table.items()):
                counts[key] = counts.get(key, 0) + value
        payload = {
            "spans": self.spans,
            "samples": self.samples,
            "counts": [[rid, name, value]
                       for (rid, name), value in counts.items()],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer entry point of the ``repro`` package."""
    import repro.api.service as service_module
    import repro.digital.engine as digital_engine
    import repro.sweep.runner as sweep_runner
    import repro.waveform.engine as waveform_engine
    from repro.api.registry import default_registry
    from repro.api.request import SpecRequest, SpecResponse
    from repro.api.response_cache import ResponseCache
    from repro.api.service import MixerService
    from repro.core.reconfigurable_mixer import ReconfigurableMixer
    from repro.core.transconductance import TransconductanceAmplifier
    from repro.devices.mosfet import Mosfet, MosfetArray
    from repro.optimize.strategies import CmaStrategy, ShrinkingSpanStrategy
    from repro.rf.filters import FirstOrderLowPass
    from repro.serve import SpecRequestHandler
    from repro.serve.jobs import JobManager, JobQueueFullError

    wrap, counted = tracer.wrap, tracer.counted

    # -- serve: the HTTP handler owns the request id ---------------------------
    do_post = SpecRequestHandler.do_POST

    @functools.wraps(do_post)
    def traced_do_post(handler):
        local = tracer.state()
        local.rid = handler.headers.get(REQUEST_ID_HEADER)
        try:
            with tracer.span(REQUEST_LAYER):
                do_post(handler)
        finally:
            local.rid = None

    setattr(SpecRequestHandler, "do_POST", traced_do_post)

    # -- serve.jobs ------------------------------------------------------------
    submit = JobManager.submit

    @functools.wraps(submit)
    def traced_submit(manager, payload):
        with tracer.span("jobs.submit"):
            try:
                return submit(manager, payload)
            except JobQueueFullError:
                tracer.count("jobs.shed")
                raise

    setattr(JobManager, "submit", traced_submit)
    enqueue = JobManager._enqueue

    @functools.wraps(enqueue)
    def traced_enqueue(manager, kind, requests):
        # Hand the id over before the job is queued, so the worker that
        # runs it always finds it.  Batch jobs run through submit_batch,
        # which never adopts an id, so only single-spec jobs register.
        key = id(requests[0])
        if kind == "spec":
            tracer.rid_by_request[key] = tracer.state().rid
        try:
            return enqueue(manager, kind, requests)
        except BaseException:
            tracer.rid_by_request.pop(key, None)
            raise

    setattr(JobManager, "_enqueue", traced_enqueue)

    def note_queue_wait(args, job):
        if job.started_monotonic is not None:
            tracer.sample("jobs.queue_wait",
                          job.started_monotonic - job.submitted_monotonic)

    setattr(JobManager, "wait", wrap(JobManager.wait, WAIT_LAYER,
                                     after=note_queue_wait))

    # -- api -------------------------------------------------------------------
    service_submit = MixerService.submit

    @functools.wraps(service_submit)
    def traced_service_submit(service, request):
        local = tracer.state()
        if not local.stack:
            # Outermost call on a job-worker thread: adopt the submitter's
            # id.  It stays set after the call, so the job's own
            # to_dict() of the response is charged to the same request.
            local.rid = tracer.rid_by_request.pop(id(request), None)
        return service_submit(service, request)

    setattr(MixerService, "submit", traced_service_submit)
    setattr(MixerService, "plan_request",
            wrap(MixerService.plan_request, "api.plan"))
    setattr(SpecRequest, "validate", wrap(SpecRequest.validate, "api.plan"))
    setattr(SpecRequest, "request_key",
            wrap(SpecRequest.request_key, "api.plan"))

    def note_cache_load(args, hit):
        tracer.count("api.cache_loads")
        if hit is not None:
            tracer.count(f"api.cache_{hit[1]}_hits")

    setattr(ResponseCache, "load", wrap(ResponseCache.load, "api.cache_load",
                                        after=note_cache_load))
    setattr(ResponseCache, "store", wrap(ResponseCache.store,
                                         "api.cache_store"))
    # build_result_response is bound by name in the service module.
    setattr(service_module, "build_result_response",
            wrap(service_module.build_result_response, "api.encode"))
    setattr(SpecResponse, "to_dict", wrap(SpecResponse.to_dict, "api.encode"))
    setattr(SpecResponse, "from_dict",
            classmethod(wrap(SpecResponse.from_dict.__func__, "api.encode")))

    # -- experiments / optimize: the registered runners ------------------------
    for spec in default_registry():
        layer = "optimize.self" \
            if spec.runner.__module__.startswith("repro.optimize") \
            else "experiments.runner"
        # ExperimentSpec is frozen; the registry hands out these very
        # objects, so rebinding the callables in place traces every lookup.
        object.__setattr__(spec, "runner", wrap(spec.runner, layer))
        if spec.batch_runner is not None:
            object.__setattr__(spec, "batch_runner",
                               wrap(spec.batch_runner, layer))
    for strategy in (ShrinkingSpanStrategy, CmaStrategy):
        for method in ("propose", "observe"):
            setattr(strategy, method,
                    wrap(getattr(strategy, method), "optimize.propose"))

    # -- sweep -----------------------------------------------------------------
    def note_cells(args, result):
        designs, modes = result.shape[:2]
        tracer.count("sweep.cells", designs * modes)

    setattr(sweep_runner.SweepRunner, "run",
            wrap(sweep_runner.SweepRunner.run, "sweep.run", after=note_cells))

    # -- core ------------------------------------------------------------------
    def note_batched(args, widths):
        tracer.count("core.sizing_solves", len(widths))
        tracer.count("core.batched_sizing_calls")

    # solve_widths is bound by name in both engines that batch-size.
    for module in (sweep_runner, waveform_engine):
        setattr(module, "solve_widths",
                wrap(module.solve_widths, "core.sizing", after=note_batched))
    setattr(TransconductanceAmplifier, "_size_device",
            wrap(TransconductanceAmplifier._size_device, "core.sizing",
                 after=lambda args, device: tracer.count(
                     "core.sizing_solves")))
    setattr(TransconductanceAmplifier, "taylor_coefficients",
            wrap(TransconductanceAmplifier.taylor_coefficients, "core.taylor"))
    # _compute_intermediates runs exactly when spec_intermediates misses.
    setattr(ReconfigurableMixer, "_compute_intermediates",
            wrap(ReconfigurableMixer._compute_intermediates,
                 "core.intermediates",
                 after=lambda args, result: tracer.count(
                     "core.intermediates_cells")))

    # -- devices: counts only, these run ~10^5 times per search request -------
    setattr(Mosfet, "operating_point",
            counted(Mosfet.operating_point, "devices.op_calls"))
    setattr(MosfetArray, "operating_point",
            counted(MosfetArray.operating_point, "devices.array_op_calls"))

    # -- waveform --------------------------------------------------------------
    setattr(waveform_engine.WaveformRunner, "run",
            wrap(waveform_engine.WaveformRunner.run, "waveform.run"))
    # One evaluate_plan call is one batched FFT evaluation.
    setattr(waveform_engine, "evaluate_plan",
            wrap(waveform_engine.evaluate_plan, "waveform.evaluate",
                 after=lambda args, result: tracer.count("waveform.ffts")))

    # -- rf: the one-pole filter and its lazy scipy.signal import -------------
    def traced_filter(method):
        @functools.wraps(method)
        def run(*args, **kwargs):
            with tracer.span("rf.filter"):
                if "scipy.signal" not in sys.modules:
                    with tracer.span(SCIPY_IMPORT_LAYER):
                        importlib.import_module("scipy.signal")
                return method(*args, **kwargs)
        return run

    for method in ("apply", "apply_periodic"):
        setattr(FirstOrderLowPass, method,
                traced_filter(getattr(FirstOrderLowPass, method)))

    # -- digital ---------------------------------------------------------------
    setattr(digital_engine.DigitalIfRunner, "run",
            wrap(digital_engine.DigitalIfRunner.run, "digital.run"))
    # One evaluate_digital call is one quantization pass over every width.
    setattr(digital_engine, "evaluate_digital",
            counted(digital_engine.evaluate_digital, "digital.passes"))


# -- analysis (benchmark process) -----------------------------------------------


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    child_time: dict[int, float] = {}
    for _, parent, _, _, start, end in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    return {span_id: (end - start) - child_time.get(span_id, 0.0)
            for span_id, _, _, _, start, end in spans}


def layer_metrics(trace: dict, experiment_of: dict[str, str],
                  experiments: tuple[str, ...]) -> dict:
    """Per-layer metrics of the timed requests in one dumped trace.

    ``experiment_of`` maps each timed request id to its experiment; spans
    and counts of any other request (setup, warm-up, fill) are ignored.
    :data:`COUNTS_BY_EXPERIMENT` are also reported per request of each of
    ``experiments`` (0 for an experiment the workload never sends).
    Returns ``{name: (value, unit)}`` plus the ``"_check"`` entry holding
    the summed self time and the summed request wall time, in seconds.
    """
    spans = [tuple(span) for span in trace["spans"]]
    selfs = self_times(spans)
    requests = len(experiment_of)
    per_layer = {layer: 0.0 for layer in TIMED_LAYERS}
    wall = 0.0
    scipy_import = 0.0
    for span_id, _, rid, layer, start, end in spans:
        if layer == SCIPY_IMPORT_LAYER:
            scipy_import += end - start
            continue
        if rid not in experiment_of:
            continue
        if layer == REQUEST_LAYER:
            wall += end - start
        if layer in per_layer:
            per_layer[layer] += selfs[span_id]
    metrics: dict = {}
    for layer, seconds in per_layer.items():
        metrics[f"{layer}_ms"] = (1000.0 * seconds / requests, "ms")
        metrics[f"{layer}_pct"] = (100.0 * seconds / wall if wall else 0.0,
                                   "%")
    waits = [value for rid, name, value in trace["samples"]
             if name == "jobs.queue_wait" and rid in experiment_of]
    metrics["jobs.queue_wait_ms"] = (
        1000.0 * sum(waits) / len(waits) if waits else 0.0, "ms")
    metrics["rf.scipy_import_ms"] = (1000.0 * scipy_import, "ms")

    totals: dict[str, float] = {}
    by_experiment: dict[tuple[str, str], float] = {}
    for rid, name, value in trace["counts"]:
        if rid not in experiment_of:
            continue
        totals[name] = totals.get(name, 0) + value
        key = (name, experiment_of[rid])
        by_experiment[key] = by_experiment.get(key, 0) + value
    for name in COUNTS:
        metrics[name] = (totals.get(name, 0) / requests, "count")
    loads = totals.get("api.cache_loads", 0)
    memory = totals.get("api.cache_memory_hits", 0)
    disk = totals.get("api.cache_disk_hits", 0)
    metrics["api.cache_hit_ratio"] = ((memory + disk) / loads if loads
                                      else 0.0, "ratio")
    metrics["api.cache_disk_hit_share"] = (disk / (memory + disk)
                                           if memory + disk else 0.0, "ratio")
    sent = {name: 0 for name in experiments}
    for experiment in experiment_of.values():
        sent[experiment] = sent.get(experiment, 0) + 1
    for name in COUNTS_BY_EXPERIMENT:
        for experiment in experiments:
            value = by_experiment.get((name, experiment), 0)
            metrics[f"{name}.{experiment}"] = (
                value / sent[experiment] if sent[experiment] else 0.0,
                "count")
    metrics["_check"] = (sum(per_layer.values()), wall)
    return metrics
