#!/usr/bin/env python3
"""Served-request benchmark of ``python -m repro.serve``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_mix --seed 1 --seconds 10 --trace 0

Spawns the real server, drives one workload (``cold_mix``, ``hot_repeat``
or ``search``, see ``bench_workloads.py``) as a closed loop, checks every
answer, and prints a report followed, on the last line, by one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` repeats the timed phase on a traced
server and reports the per-layer split instead.  ``--workload all`` runs
the three workloads in turn.  ``README.md`` beside this file lists every
metric and why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = HERE / "_work"

#: Paper pins the served default-design Table I must reproduce:
#: (field, active, passive, tolerance).
TABLE1_PINS = (
    ("conversion_gain_db", 29.2, 25.5, 0.1),
    ("noise_figure_db", 7.6, 10.2, 0.1),
    ("iip3_dbm", -11.9, 6.57, 0.1),
    ("power_mw", 9.36, 9.24, 0.01),
)

#: Exact work per ``search`` request, the baseline later count claims
#: compare against: 8 candidates x 16 corners x 3 iterations.
SEARCH_PINS = {"core.sizing_solves": 384, "core.batched_sizing_calls": 3}

#: ``source`` values of a correct hot_repeat reply: a cache tier answered.
CACHED_SOURCES = ("memory-cache", "disk-cache")


#: Server spawns per run; setup_s and first_request_ms are their medians.
SETUPS = 5

#: Requests per block of the tail estimate (see tail_latency).
TAIL_BLOCK = 1000


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """``(tail_ms, percentile, blocks)``: the steadied tail latency.

    The tail is the highest percentile with 10 samples beyond it.  A run
    of more than two :data:`TAIL_BLOCK`-request blocks is cut into
    consecutive blocks and reports the median of the block tails: the
    11th-slowest of thousands of requests is set by the host's rarest
    stalls, while a median of block p99s moves only with the server.
    """
    blocks = max(1, len(latencies) // TAIL_BLOCK)
    if blocks < 3:
        blocks = 1
    size = len(latencies) // blocks
    index = max(0, size - 11)
    tails = [sorted(latencies[start:start + size])[index]
             for start in range(0, blocks * size, size)]
    return 1000.0 * statistics.median(tails), 100.0 * (index + 1) / size, \
        blocks


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="cold_mix, hot_repeat, search, or all (each "
                             "in turn, one report and JSON line apiece)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="nominal length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Run:
    """One benchmark run: inputs, servers, checks and the numbers."""

    def __init__(self, args: argparse.Namespace, work: Path) -> None:
        import numpy as np

        from bench_workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            raise SystemExit(f"unknown workload {args.workload!r}; "
                             f"choose from {sorted(WORKLOADS)}")
        self.args = args
        self.work = work
        self.workload = WORKLOADS[args.workload]
        count = self.workload.request_count(args.seconds)
        self.inputs = self.workload.make_inputs(
            np.random.default_rng(args.seed), count)
        self.sample = sorted(np.random.default_rng([args.seed, 1]).choice(
            count, size=min(self.workload.sample_size, count),
            replace=False).tolist())
        self.failed: set[int] = set()
        self.problems: list[str] = []
        self.lines: list[str] = []
        self._servers = 0

    # -- servers ----------------------------------------------------------------

    def server(self, traced: bool = False):
        from bench_server import ServerProcess

        self._servers += 1
        work = self.work / f"server{self._servers}"
        work.mkdir()
        return ServerProcess(
            ROOT, self.workload.server_args(work), self.work / "server.log",
            trace_out=work / "trace.json" if traced else None)

    def first_request(self, server) -> float:
        """The cold-start request: default-design fig10, sent alone."""
        started = time.perf_counter()
        status, _ = server.post_json("/v1/spec", {"experiment": "fig10"},
                                     rid="first")
        elapsed = time.perf_counter() - started
        if status != 200:
            raise RuntimeError(f"first fig10 request answered {status}")
        return elapsed

    def check_table1_pins(self, server) -> list[str]:
        """Deviations of the served default-design Table I from the paper."""
        status, reply = server.post_json("/v1/spec",
                                         {"experiment": "table1"}, rid="pin")
        if status != 200:
            raise RuntimeError(f"table1 pin request answered {status}")
        fields = reply["result"]["fields"]
        deviations = []
        for name, active, passive, tolerance in TABLE1_PINS:
            for mode, pinned in (("active", active), ("passive", passive)):
                got = fields[f"this_work_{mode}"]["fields"][name]
                if not abs(got - pinned) <= tolerance:
                    deviations.append(
                        f"table1 {mode} {name} = {got:.4g}, paper "
                        f"{pinned} (tolerance {tolerance})")
        self.problems.extend(deviations)
        return deviations

    # -- one measured phase ------------------------------------------------------

    def phase(self, server) -> dict:
        """Pins, fill, warm-up, then the timed closed loop on ``server``."""
        from bench_server import closed_loop, http_request
        from bench_workloads import canonical, encode_request

        pins = self.check_table1_pins(server)
        expected: dict[str, bytes] = {}
        for number, batch in enumerate(self.inputs.fill):
            status, reply = server.post_json(
                "/v1/batch", {"requests": [r.to_dict() for r in batch]},
                rid=f"fill{number}")
            if status != 200:
                raise RuntimeError(f"cache fill batch answered {status}")
            for response in reply["responses"]:
                expected[response["request_key"]] = canonical(response)
        for number, request in enumerate(self.inputs.warmup):
            status, _ = server.request("POST", "/v1/spec",
                                       encode_request(request),
                                       rid=f"warm{number}")
            if status != 200:
                raise RuntimeError(f"warm-up request answered {status}")

        timed = self.inputs.timed
        # hot_repeat sends 256 distinct request objects thousands of times:
        # encode, key and judge each distinct (request, reply) pair once.
        bodies = {id(r): encode_request(r) for r in timed}
        requests = [http_request("POST", "/v1/spec", bodies[id(request)],
                                 rid=f"t{index}")
                    for index, request in enumerate(timed)]
        before = server.metrics()
        results, wall = closed_loop(server.port, requests,
                                    self.workload.clients)
        after = server.metrics()
        verdicts: dict[tuple[int, bytes], bool] = {}
        for index, (request, (_, status, data)) in enumerate(
                zip(timed, results)):
            memo = (id(request), data)
            if memo not in verdicts:
                verdicts[memo] = status == 200 and self.reply_ok(
                    request, data, expected)
            if not verdicts[memo]:
                self.failed.add(index)
        cache_before = before["response_cache"] or {}
        cache_after = after["response_cache"] or {}

        def moved(name: str) -> int:
            return cache_after.get(name, 0) - cache_before.get(name, 0)

        return {
            "latencies": [latency for latency, _, _ in results],
            "ok": sum(1 for _, status, _ in results if status == 200),
            "wall": wall,
            "results": results,
            "misses": moved("misses"),
            "memory_hits": moved("memory_hits"),
            "disk_hits": moved("disk_hits"),
            "shed": after["jobs"]["shed"] - before["jobs"]["shed"],
            "rss_mb": server.peak_rss_mb(),
            "pins_ok": not pins,
        }

    def reply_ok(self, request, data: bytes,
                 expected: dict[str, bytes]) -> bool:
        from bench_workloads import canonical, request_key

        try:
            reply = json.loads(data)
        except ValueError:
            return False
        key = request_key(request)
        if reply.get("experiment") != request.experiment \
                or reply.get("request_key") != key \
                or "result" not in reply:
            return False
        if self.inputs.fill:
            # hot_repeat: a recompute is a failure, and the cached bytes
            # must be exactly the ones the fill stored.
            return reply.get("source") in CACHED_SOURCES \
                and canonical(reply) == expected.get(key)
        return reply.get("source") == "computed"

    def rerun_sample(self, results: list) -> int:
        """Recompute the sampled requests in-process; count mismatches."""
        from repro.api.service import MixerService

        from bench_workloads import canonical

        service = MixerService(response_cache=False)
        mismatches = 0
        for index in self.sample:
            local = service.submit(self.inputs.timed[index]).to_dict()
            _, status, data = results[index]
            if index in self.failed or status != 200 \
                    or canonical(local) != canonical(json.loads(data)):
                mismatches += 1
                self.failed.add(index)
        return mismatches

    # -- the whole run ---------------------------------------------------------

    def execute(self) -> tuple[dict, dict | None]:
        setups, firsts = [], []
        server = None
        try:
            for number in range(SETUPS):
                server = self.server()
                setups.append(server.start())
                firsts.append(self.first_request(server))
                if number < SETUPS - 1:
                    server.stop()
            untraced = self.phase(server)
        finally:
            if server is not None:
                server.stop()
        mismatches = self.rerun_sample(untraced["results"])
        self.note_phase("untraced", untraced)
        self.lines.append(
            f"correctness: table1 pins "
            f"{'ok' if untraced['pins_ok'] else 'FAILED'}; in-process re-run "
            f"of {len(self.sample)} sampled requests: {mismatches} "
            f"mismatches")
        end_to_end = self.end_to_end(untraced, setups, firsts)
        per_layer = self.traced(untraced) if self.args.trace else None
        return end_to_end, per_layer

    def note_phase(self, label: str, phase: dict) -> None:
        if self.inputs.fill:
            hits = phase["memory_hits"] + phase["disk_hits"]
            self.lines.append(
                f"{label} response cache during timing: "
                f"{phase['memory_hits']} memory hits, {phase['disk_hits']} "
                f"disk hits ({phase['disk_hits'] / max(hits, 1):.1%} disk), "
                f"{phase['misses']} misses")
            if phase["misses"]:
                self.problems.append(
                    f"{phase['misses']} response-cache misses during the "
                    f"zero-work phase")
        if phase["shed"]:
            self.lines.append(f"{label}: {phase['shed']} requests shed (429)")

    def end_to_end(self, phase: dict, setups: list[float],
                   firsts: list[float]) -> dict:
        latencies = phase["latencies"]
        count = len(latencies)
        tail_ms, percentile, blocks = tail_latency(latencies)
        size = count // blocks
        beyond = size - round(percentile * size / 100.0)
        self.lines.append(
            f"timed requests: {count} from {self.workload.clients} "
            f"client(s); tail = p{percentile:.2f} ({beyond} samples beyond "
            f"it) over {blocks} block(s) of {size} requests, median "
            f"reported; setup median of {len(setups)} spawns")
        self.lines.append(f"error_rate {len(self.failed) / count:.6g} ratio "
                          f"({len(self.failed)} of {count} failed)")
        return {
            "setup_s": (statistics.median(setups), "s"),
            "first_request_ms": (1000.0 * statistics.median(firsts), "ms"),
            "latency_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
            "latency_tail_ms": (tail_ms, "ms"),
            "throughput_rps": (phase["ok"] / phase["wall"], "1/s"),
            "peak_rss_mb": (phase["rss_mb"], "MB"),
        }

    def traced(self, untraced: dict) -> dict:
        """The timed phase again on a traced server: the per-layer split."""
        from bench_trace import layer_metrics
        from bench_workloads import EXPERIMENTS

        server = self.server(traced=True)
        try:
            server.start()
            self.first_request(server)
            phase = self.phase(server)
        finally:
            server.stop()
        self.note_phase("traced", phase)
        trace = json.loads(server.trace_out.read_text(encoding="utf-8"))
        experiment_of = {f"t{index}": request.experiment
                         for index, request in enumerate(self.inputs.timed)}
        metrics = layer_metrics(trace, experiment_of, EXPERIMENTS)
        self_s, wall_s = metrics.pop("_check")
        self.lines.append(
            f"traced: layer self time {self_s:.3f} s of {wall_s:.3f} s "
            f"server-side request wall time")
        untraced_rps = untraced["ok"] / untraced["wall"]
        traced_rps = phase["ok"] / phase["wall"]
        self.lines.append(f"throughput untraced {untraced_rps:.4g} 1/s, "
                          f"traced {traced_rps:.4g} 1/s")
        metrics["trace.overhead_pct"] = (
            100.0 * (untraced_rps - traced_rps) / untraced_rps, "%")
        if self.workload.name == "search":
            for name, pinned in SEARCH_PINS.items():
                value = metrics[name][0]
                self.lines.append(
                    f"pin {name} per search request: {value:g} (baseline "
                    f"{pinned}) {'ok' if value == pinned else 'MOVED'}")
        return metrics


def run_workload(args: argparse.Namespace) -> None:
    """One workload: the report, then the JSON result as the last line."""
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        run = Run(args, work)
        end_to_end, per_layer = run.execute()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in run.problems:
        run.lines.append(f"CHECK FAILED: {problem}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in run.lines:
        print(line)
    metrics = per_layer or end_to_end
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    if per_layer is not None:
        print("untraced end-to-end: " + ", ".join(
            f"{name} {value:.6g} {unit}"
            for name, (value, unit) in end_to_end.items()))
    failed = len(run.failed)
    print(json.dumps({
        "correct": not run.problems and failed == 0,
        "attempted": len(run.inputs.timed),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # A terminated run still stops its servers and removes its work dir.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from bench_workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        args.workload = name
        run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
