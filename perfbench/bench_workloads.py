"""The three served-request workloads and their seeded inputs.

Every input is drawn from the ``--seed`` the benchmark takes: perturbed
designs from :func:`repro.sweep.montecarlo.sample_design` with the default
:class:`~repro.sweep.montecarlo.DeviceSpread`, and experiment draws.  The
same seed gives the same requests; the server only ever sees the generated
payloads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.api.registry import default_registry
from repro.api.request import SpecRequest
from repro.core.config import MixerDesign
from repro.sweep.montecarlo import DeviceSpread, sample_design

#: The single-design experiments of the paper's artefacts.
EXPERIMENTS = ("fig8", "fig9", "table1", "fig10", "iip2", "p1db",
               "digital_if", "bits_floor")

#: Fewest timed requests in any run: the tail, the highest percentile
#: with 10 samples beyond it, is then at least p75 and never the median.
MIN_REQUESTS = 40

#: Designs in the hot_repeat pool: 32 x 8 experiments = 256 keys, twice
#: the response cache's 128-entry memory LRU.
HOT_POOL_DESIGNS = 32


@dataclass(frozen=True)
class Workload:
    """One traffic mix: how many clients send what to which server.

    ``rate_rps`` is the workload's nominal throughput on a 2-CPU box.  The
    timed request count is ``rate_rps * seconds`` (at least
    :data:`MIN_REQUESTS`), fixed per workload and run length so the tail
    percentile is the same on every commit; a run takes about ``seconds``
    at today's speed.
    """

    name: str
    clients: int
    rate_rps: float
    sample_size: int
    server_args: Callable[[Path], list[str]]
    make_inputs: Callable[[np.random.Generator, int], "Inputs"]

    def request_count(self, seconds: float) -> int:
        return max(MIN_REQUESTS, round(self.rate_rps * seconds))


@dataclass
class Inputs:
    """Generated requests: sent before timing, then timed.

    ``fill`` holds batches for ``POST /v1/batch`` (response-cache fill);
    ``warmup`` goes through ``POST /v1/spec`` untimed.
    """

    timed: list[SpecRequest]
    warmup: list[SpecRequest] = field(default_factory=list)
    fill: list[list[SpecRequest]] = field(default_factory=list)


def fresh_designs(rng: np.random.Generator, count: int,
                  tag: str) -> list[MixerDesign]:
    """``count`` perturbed copies of the paper's design point."""
    base = MixerDesign()
    return [sample_design(base, rng, DeviceSpread(), f"{tag}{index}")
            for index in range(count)]


def _cold_mix_inputs(rng: np.random.Generator, count: int) -> Inputs:
    warmup = [SpecRequest(experiment, design) for experiment, design
              in zip(EXPERIMENTS, fresh_designs(rng, len(EXPERIMENTS), "w"))]
    # Every run of 8 consecutive requests holds each experiment once, in
    # seeded random order: latency is multimodal by experiment, so an
    # unbalanced draw would move the median and the throughput between
    # seeds.
    rounds = -(-count // len(EXPERIMENTS))
    order = np.concatenate([rng.permutation(len(EXPERIMENTS))
                            for _ in range(rounds)])[:count]
    timed = [SpecRequest(EXPERIMENTS[int(draw)], design) for draw, design
             in zip(order, fresh_designs(rng, count, "t"))]
    return Inputs(timed=timed, warmup=warmup)


def _hot_repeat_inputs(rng: np.random.Generator, count: int) -> Inputs:
    pool = fresh_designs(rng, HOT_POOL_DESIGNS, "p")
    fill = [[SpecRequest(experiment, design) for design in pool]
            for experiment in EXPERIMENTS]
    keys = [request for batch in fill for request in batch]
    draws = rng.integers(0, len(keys), size=count)
    return Inputs(timed=[keys[int(draw)] for draw in draws], fill=fill)


def _search_inputs(rng: np.random.Generator, count: int) -> Inputs:
    designs = fresh_designs(rng, count + 1, "s")
    return Inputs(timed=[SpecRequest("yield_opt", d) for d in designs[1:]],
                  warmup=[SpecRequest("yield_opt", designs[0])])


#: Why each workload exists is told in README.md beside this file.
WORKLOADS = {
    "cold_mix": Workload(
        name="cold_mix",
        clients=2, rate_rps=12.0, sample_size=8,
        server_args=lambda work: ["--spec-cache", str(work / "spec"),
                                  "--response-cache",
                                  str(work / "responses")],
        make_inputs=_cold_mix_inputs),
    "hot_repeat": Workload(
        name="hot_repeat",
        clients=2, rate_rps=600.0, sample_size=8,
        server_args=lambda work: ["--response-cache",
                                  str(work / "responses")],
        make_inputs=_hot_repeat_inputs),
    "search": Workload(
        name="search",
        clients=1, rate_rps=1.0, sample_size=2,
        server_args=lambda work: [],
        make_inputs=_search_inputs),
}


def encode_request(request: SpecRequest) -> bytes:
    return json.dumps(request.to_dict()).encode("utf-8")


def request_key(request: SpecRequest) -> str:
    """The response-cache key the server must answer ``request`` under."""
    return request.request_key(default_registry().get(request.experiment))


def canonical(response: dict) -> bytes:
    """A response's canonical JSON: everything but where and how fast.

    ``source`` (computed / memory / disk) and ``elapsed_s`` legitimately
    differ between two answers to one request; every other byte must not.
    """
    kept = {name: value for name, value in response.items()
            if name not in ("source", "elapsed_s")}
    return json.dumps(kept, sort_keys=True, separators=(",", ":"),
                      allow_nan=False).encode("utf-8")
