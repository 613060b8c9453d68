"""One parity suite over the three engines' shared sharding and storage.

The analytic sweep, the batched waveform engine and the fixed-point
digital IF share one sharded runner
(:class:`~repro.sweep.parallel.ShardedRunner`, picked by
:func:`~repro.sweep.make_runner`) and one on-disk store
(:class:`~repro.sweep.cache.ContentStore`).  Each engine runs every test
here:

* sharded vs inline, bitwise, for 1/2/4 workers — with a design that
  re-tunes its LO (and so its nominal RF) under defaulted grids;
* one progress frame per shard, under the engine's stage name;
* a failing design in a later shard raises the inline run's exact error;
* a cold sharded run followed by a warm inline run does zero sizing
  solves, FFTs and quantization passes;
* a shared pool whose worker was killed is replaced, and the next sharded
  run is still bitwise equal to inline.

The store half covers the three engine codecs plus the response cache's
disk tier: every unreadable entry is a counted ``corrupt`` miss, the
service recovers from torn spec and response entries, and each entry's
file name and bytes are pinned to the format caches were written in
before the stores shared one read/write path.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import time
from dataclasses import dataclass, field, replace

import numpy as np
import pytest

from repro.api import MixerService, SpecRequest
from repro.api.progress import progress_scope
from repro.api.registry import default_registry
from repro.api.request import API_VERSION, build_result_response
from repro.api.response_cache import ResponseCache
from repro.core.config import MixerDesign, MixerMode
from repro.core.transconductance import sizing_solve_count
from repro.digital import DigitalIfCache, DigitalIfRunner, digital_if_plan
from repro.digital.engine import digital_pass_count
from repro.sweep import (
    DeviceSpread,
    ShardedRunner,
    SpecCache,
    SweepRunner,
    make_runner,
    sample_design,
)
from repro.sweep.parallel import (
    set_pool_reuse,
    shared_executor,
    shutdown_shared_pools,
)
from repro.waveform import WaveformCache, WaveformRunner, two_tone_plan
from repro.waveform.engine import waveform_fft_count

# The plans behind the format pins below: changing them moves the pins.
WAVE_PLAN = two_tone_plan(2.405e9, 2.407e9, (-40.0, -30.0), 10.24e9, 10240,
                          lo_frequency=2.4e9)
DIGITAL_PLAN = digital_if_plan(adc_bits=(6, 10))


@dataclass(frozen=True)
class Engine:
    """One engine as the spine sees it: class, options, ``run`` arguments."""

    cls: type
    stage: str
    args: tuple = ()
    options: dict = field(default_factory=dict)


ENGINES = {
    # No frequency grids: the sweep defaults them from the baseline.
    "sweep": Engine(SweepRunner, "sweep", options={
        "specs": ("conversion_gain_db", "noise_figure_db", "iip3_dbm")}),
    "waveform": Engine(WaveformRunner, "waveform", args=(WAVE_PLAN,)),
    "digital": Engine(DigitalIfRunner, "digital", args=(DIGITAL_PLAN,)),
}


@pytest.fixture(params=list(ENGINES), scope="module")
def engine(request) -> Engine:
    return ENGINES[request.param]


@pytest.fixture(scope="module")
def population(design) -> dict[str, MixerDesign]:
    """Five designs; the fourth — first of a later shard for 2 and 4
    workers — re-tunes its LO, so a shard built from its own first design
    would default a different RF grid than the inline run."""
    rng = np.random.default_rng(11)
    samples = [sample_design(design, rng, DeviceSpread(), f"mc-{i}")
               for i in range(4)]
    return {"mc-0": samples[0], "mc-1": samples[1], "mc-2": samples[2],
            "retuned": design.with_lo(2.1e9), "mc-3": samples[3]}


@pytest.fixture(scope="module")
def inline(engine, design, population):
    return engine.cls(design, **engine.options).run(
        *engine.args, designs=population)


def _assert_bitwise(result, reference) -> None:
    assert type(result) is type(reference)
    assert [axis.values for axis in result.axes] == \
        [axis.values for axis in reference.axes]
    assert result.spec_names == reference.spec_names
    for name in reference.spec_names:
        np.testing.assert_array_equal(result.data[name], reference.data[name])


def _work_done() -> tuple[int, int, int]:
    return sizing_solve_count(), waveform_fft_count(), digital_pass_count()


# -- the sharded runner -------------------------------------------------------


class TestShardedRunner:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_sharded_matches_inline_bitwise(self, engine, design, population,
                                            inline, workers):
        runner = make_runner(design, workers=workers, engine=engine.cls,
                             **engine.options)
        result = runner.run(*engine.args, designs=population)
        _assert_bitwise(result, inline)

    def test_make_runner_picks_inline_or_sharded(self, engine, design):
        assert type(make_runner(design, engine=engine.cls)) is engine.cls
        assert type(make_runner(design, workers=1,
                                engine=engine.cls)) is engine.cls
        sharded = make_runner(design, workers=2, engine=engine.cls)
        assert isinstance(sharded, ShardedRunner)
        assert sharded.workers == 2
        with pytest.raises(ValueError, match="workers"):
            ShardedRunner(engine.cls, design, workers=0)

    def test_short_axes_run_inline(self, engine, design):
        before = _work_done()
        result = ShardedRunner(engine.cls, design, workers=4,
                               **engine.options).run(*engine.args)
        assert result.axis("design").values == ("nominal",)
        # A single design never reaches a pool: the work ran in-process.
        assert _work_done() != before
        sequence = ShardedRunner(engine.cls, design, workers=8,
                                 **engine.options).run(
            *engine.args, designs=[design, design.with_lo(2.1e9)],
            modes=(MixerMode.PASSIVE,))
        assert sequence.axis("design").values == ("design-0", "design-1")

    def test_one_progress_frame_per_shard(self, engine, design, population):
        frames: list[dict] = []
        with progress_scope(frames.append):
            ShardedRunner(engine.cls, design, workers=2,
                          **engine.options).run(*engine.args,
                                                designs=population)
        assert frames == [
            {"stage": engine.stage, "shards_done": 1, "shards_total": 2,
             "designs_done": 3, "designs_total": 5},
            {"stage": engine.stage, "shards_done": 2, "shards_total": 2,
             "designs_done": 5, "designs_total": 5},
        ]

    def test_later_shard_failure_raises_the_inline_error(self, engine, design,
                                                         population):
        designs = dict(population)
        designs["greedy"] = replace(design, tca_gm=1.0)
        with pytest.raises(ValueError) as inline_error:
            engine.cls(design, **engine.options).run(*engine.args,
                                                     designs=designs)
        with pytest.raises(ValueError) as sharded_error:
            ShardedRunner(engine.cls, design, workers=2,
                          **engine.options).run(*engine.args, designs=designs)
        assert "target gm unreachable" in str(inline_error.value)
        assert str(sharded_error.value) == str(inline_error.value)

    def test_cold_sharded_then_warm_inline_does_no_work(self, engine, design,
                                                        population, inline,
                                                        tmp_path):
        cold = make_runner(design, workers=2, cache=tmp_path,
                           engine=engine.cls, **engine.options).run(
            *engine.args, designs=population)
        before = _work_done()
        warm_runner = engine.cls(design, cache=tmp_path, **engine.options)
        warm = warm_runner.run(*engine.args, designs=population)
        assert _work_done() == before
        assert warm_runner.cache.hits == len(population) * 2
        assert warm_runner.cache.misses == 0
        _assert_bitwise(cold, inline)
        _assert_bitwise(warm, inline)

    def test_killed_pool_worker_is_replaced(self, engine, design, population,
                                            inline):
        set_pool_reuse(True)
        try:
            runner = ShardedRunner(engine.cls, design, workers=2,
                                   **engine.options)
            runner.run(*engine.args, designs=population)
            pool = shared_executor(2)
            os.kill(next(iter(pool._processes)), signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while not pool._broken and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pool._broken
            result = runner.run(*engine.args, designs=population)
            assert shared_executor(2) is not pool
        finally:
            set_pool_reuse(False)
            shutdown_shared_pools()
        _assert_bitwise(result, inline)

    def test_sweep_grids_are_validated_like_the_inline_run(self, design):
        runner = ShardedRunner(SweepRunner, design, workers=2)
        with pytest.raises(ValueError, match="one-dimensional"):
            runner.run(rf_frequencies=np.ones((2, 2)),
                       designs=[design, design.with_lo(2.1e9)])


# -- the stores ---------------------------------------------------------------

#: Each store's healthy entry, written at the commit before the stores
#: shared one read/write path: ``(file name, bytes)``.  The response entry
#: is pinned by SHA-256 (it embeds the whole Table I payload).
FORMAT_PINS = {
    "spec": (
        "80ce985c09c809237af1f6693222da09c6e0e1f52c40a913d6671c2e298cfe40"
        ".json",
        b'{"cache_version": 1, "design_fingerprint": "2e392a2732c10644696479'
        b'48dbdde1e4785fffe02412f2f86ac2e652f6a09f6b", "intermediates": {"ba'
        b'nd_high_hz": 5526213301.801922, "band_low_hz": 1000974484.8546876,'
        b' "flicker_corner_hz": 700000.0, "iip2_dbm": 70.31112464863247, "ii'
        b'p3_dbm": -11.907531909389748, "mode": "active", "p1db_dbm": -21.50'
        b'7531909389748, "peak_gain_db": 30.355809541976054, "power_mw": 9.3'
        b'59999999999998, "white_nf_db": 7.126899305411265}}'),
    "waveform": (
        "8a5fbfc63e9ef019e7f2c5bc94cd7232b9354ce1bc41eae7ae2aee95beceb7b5"
        ".json",
        b'{"design_fingerprint": "2e392a2732c1064469647948dbdde1e4785fffe024'
        b'12f2f86ac2e652f6a09f6b", "measures": {"fundamental_dbm": [-14.5149'
        b'3927796748, -4.519958519899905], "im2_dbm": [-126.41073822230385, '
        b'-106.41260468374642], "im3_dbm": [-108.21352685113933, -77.4281630'
        b'6817349]}, "mode": "passive", "plan": "bf0ce1bcdc6c9ce97bc626511ce'
        b'2cbf1b00143705891c1fb14c6c16658bc354f", "waveform_cache_version": '
        b'1}'),
    "digital": (
        "97f99da4211c2accccefb447bc6d6971091c6a227f597ee398be6aaa2a74d51e"
        ".json",
        b'{"design_fingerprint": "2e392a2732c1064469647948dbdde1e4785fffe024'
        b'12f2f86ac2e652f6a09f6b", "digital_cache_version": 1, "measures": {'
        b'"float_error_peak": [0.008336158871184432, 0.000430959835718057], '
        b'"noise_dbfs": [-40.313377546217524, -62.42105927896312], "noise_db'
        b'm": [-28.375177286056395, -50.482859018801996], "overflow_fraction'
        b'": [0.0, 0.0], "signal_dbfs": [-4.8931632066851884, -4.95040892434'
        b'2978], "snr_db": [35.420214339532336, 57.47065035462014]}, "mode":'
        b' "active", "plan": "38c0a5fd6bb09042b8182a88e0363083d348f537737ad8'
        b'b573596b8497e94a65"}'),
    "response": (
        "78ed8b46f441130110a0d7ea8fce5593cf5e6419ac8d3ddc01060ad9dfa49199"
        ".json",
        "bcaf82d418ec1d71c0447764fd26f0c3b7e01d34cbf94f50a36809a040444cd7"),
}


@dataclass
class StoredCell:
    """One healthy entry of one store, and how to read it back."""

    path: object
    open_store: object  # () -> a fresh store over the entry's directory
    load: object        # store -> value or None
    version_field: str
    identity_field: str


def _write_spec(directory) -> StoredCell:
    SweepRunner(MixerDesign(), cache=directory).run(modes=[MixerMode.ACTIVE])
    return StoredCell(
        SpecCache(directory).entry_path(MixerDesign(), MixerMode.ACTIVE),
        lambda: SpecCache(directory),
        lambda store: store.load(MixerDesign(), MixerMode.ACTIVE),
        "cache_version", "design_fingerprint")


def _write_waveform(directory) -> StoredCell:
    WaveformRunner(MixerDesign(), cache=directory).run(
        WAVE_PLAN, modes=[MixerMode.PASSIVE])
    return StoredCell(
        WaveformCache(directory).entry_path(MixerDesign(), MixerMode.PASSIVE,
                                            WAVE_PLAN),
        lambda: WaveformCache(directory),
        lambda store: store.load(MixerDesign(), MixerMode.PASSIVE, WAVE_PLAN),
        "waveform_cache_version", "design_fingerprint")


def _write_digital(directory) -> StoredCell:
    DigitalIfRunner(MixerDesign(), cache=directory).run(
        DIGITAL_PLAN, modes=[MixerMode.ACTIVE])
    return StoredCell(
        DigitalIfCache(directory).entry_path(MixerDesign(), MixerMode.ACTIVE,
                                             DIGITAL_PLAN),
        lambda: DigitalIfCache(directory),
        lambda store: store.load(MixerDesign(), MixerMode.ACTIVE,
                                 DIGITAL_PLAN),
        "digital_cache_version", "design_fingerprint")


def _write_response(directory) -> StoredCell:
    spec = default_registry().get("table1")
    request = SpecRequest("table1")
    result = spec.runner(None, **request.validate(spec))
    response = build_result_response(request, spec, result, elapsed_s=0.0)
    ResponseCache(directory).store(response.request_key, response.to_dict())
    key = response.request_key
    return StoredCell(
        directory / f"{key}.json",
        # lru_size=0: every load reads the disk tier.
        lambda: ResponseCache(directory, lru_size=0),
        lambda store: store.load(key),
        "api_version", "request_key")


STORES = {"spec": _write_spec, "waveform": _write_waveform,
          "digital": _write_digital, "response": _write_response}


@pytest.fixture(params=list(STORES), scope="module")
def stored(request, tmp_path_factory) -> tuple[str, StoredCell, bytes]:
    directory = tmp_path_factory.mktemp(request.param)
    cell = STORES[request.param](directory)
    return request.param, cell, cell.path.read_bytes()


def _tampered(healthy: bytes, field_name: str, value) -> bytes:
    payload = json.loads(healthy)
    payload[field_name] = value
    return json.dumps(payload, sort_keys=True).encode("utf-8")


CORRUPTIONS = {
    "non_utf8": lambda cell, healthy: b"\x80\x81 torn",
    "truncated": lambda cell, healthy: healthy[:len(healthy) // 2],
    "json_list": lambda cell, healthy: b"[1, 2, 3]",
    "wrong_version": lambda cell, healthy: _tampered(
        healthy, cell.version_field,
        json.loads(healthy)[cell.version_field] + 1),
    "wrong_fingerprint": lambda cell, healthy: _tampered(
        healthy, cell.identity_field, "0" * 64),
}


class TestContentStore:
    def test_format_is_pinned(self, stored):
        name, cell, healthy = stored
        pinned_name, pinned = FORMAT_PINS[name]
        assert cell.path.name == pinned_name
        if name == "response":
            assert hashlib.sha256(healthy).hexdigest() == pinned
        else:
            assert healthy == pinned

    def test_healthy_entry_hits(self, stored):
        _, cell, healthy = stored
        cell.path.write_bytes(healthy)
        store = cell.open_store()
        assert cell.load(store) is not None
        assert (store.corrupt, store.misses) == (0, 0)

    @pytest.mark.parametrize("corruption", list(CORRUPTIONS))
    def test_every_unreadable_entry_is_a_counted_corrupt_miss(
            self, stored, corruption):
        _, cell, healthy = stored
        cell.path.write_bytes(CORRUPTIONS[corruption](cell, healthy))
        try:
            store = cell.open_store()
            assert cell.load(store) is None
            assert (store.corrupt, store.misses) == (1, 1)
        finally:
            cell.path.write_bytes(healthy)

    def test_missing_entry_is_a_plain_miss(self, stored):
        _, cell, healthy = stored
        cell.path.unlink()
        try:
            store = cell.open_store()
            assert cell.load(store) is None
            assert (store.corrupt, store.misses) == (0, 1)
        finally:
            cell.path.write_bytes(healthy)


class TestServiceSurvivesTornEntries:
    @pytest.fixture(scope="class")
    def reference(self) -> dict:
        return MixerService(response_cache=False).submit(
            SpecRequest("table1")).result_payload

    def test_torn_spec_entries_are_recomputed_and_rewritten(self, tmp_path,
                                                            reference):
        MixerService(response_cache=False, spec_cache=tmp_path).submit(
            SpecRequest("table1"))
        entries = sorted(tmp_path.glob("*.json"))
        assert entries
        for entry in entries:
            entry.write_bytes(b"\x80\x81 torn")
        response = MixerService(response_cache=False,
                                spec_cache=tmp_path).submit(
            SpecRequest("table1"))
        assert response.result_payload == reference
        for entry in entries:
            json.loads(entry.read_text(encoding="utf-8"))
        store = SpecCache(tmp_path)
        for mode in (MixerMode.ACTIVE, MixerMode.PASSIVE):
            assert store.load(MixerDesign(), mode) is not None
        assert store.corrupt == 0

    def test_torn_response_entry_is_recomputed(self, tmp_path, reference):
        MixerService(response_cache=tmp_path).submit(SpecRequest("table1"))
        (entry,) = tmp_path.glob("*.json")
        entry.write_bytes(b"\x80\x81 torn")
        service = MixerService(response_cache=tmp_path)
        response = service.submit(SpecRequest("table1"))
        assert response.result_payload == reference
        assert not response.cached
        assert service.response_cache.stats()["corrupt"] == 1
        assert json.loads(entry.read_text(encoding="utf-8"))["api_version"] \
            == API_VERSION
