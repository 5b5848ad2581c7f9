"""The dedup store's chunk codec fan-out, pinned end to end.

With ``parallel_workers=N`` the dedup store shares chunk digests and
encodes (``SAVE`` lane) and decodes (``RESTORE`` lane) between the
calling thread and up to N helper tasks on the process-wide I/O
scheduler.  Four properties this suite exists to hold:

* **same bytes** — digests, encoded chunk bodies and decoded chunks are
  bit-identical to the serial path, for arbitrary entries;
* **meter invariants** — the live manager still shows exactly one
  SHA-256 sweep, no staging copy on the sync path, exactly one on the
  async path, and at most one compression pass per persisted byte;
* **no deadlock** — a fan-out never waits on a helper that has not
  started, so nested calls from scheduler workers and concurrent
  readers finish however busy the pool is;
* **exact accounting under concurrency** — concurrent readers see exact
  bytes and exact byte/chunk meters.
"""

from __future__ import annotations

import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest

from repro.ckpt import (
    DedupBackend,
    PayloadFrames,
    PipelineMeters,
    chunk_digest,
    chunk_payload,
    decode_chunk_file,
    encode_chunk_file,
    make_chunk_codec,
    serialize_entry,
)
from repro.core import MoCCheckpointManager, MoCConfig, PECConfig, TwoLevelConfig
from repro.io.scheduler import FanOut, IOLane, QoS, get_scheduler
from repro.testing import TINY, random_entry, seeded_rng, tiny_model_and_optimizer

WORKERS = 2
CHUNK = 256
#: Watchdog for calls that must not hang: generous for a loaded CI box,
#: far below anything a deadlocked wait would ever return within.
WATCHDOG_SECONDS = 60.0


def compressible_entry(size: int = 2048, seed: int = 0) -> dict:
    """Mixed-entropy payload: random floats with zeroed stretches, the
    realistic checkpoint shape (compresses, but not trivially)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(size)
    x[:: 3] = 0.0
    return {"x": x}


def incompressible_entry(size: int = 2048, seed: int = 1) -> dict:
    rng = np.random.default_rng(seed)
    return {"x": rng.integers(0, 256, size, dtype=np.uint8)}


def frames_of(entry: dict, meters: PipelineMeters = None) -> PayloadFrames:
    return PayloadFrames.from_entry(entry, meters=meters)


def open_store(root, **kwargs) -> DedupBackend:
    kwargs.setdefault("chunk_bytes", CHUNK)
    kwargs.setdefault("codec", "zlib")
    kwargs.setdefault("parallel_workers", WORKERS)
    return DedupBackend(str(root), **kwargs)


def save_submissions() -> float:
    return get_scheduler().stats()["save"]["submitted"]


def run_with_watchdog(fn, timeout: float = WATCHDOG_SECONDS):
    """Run ``fn`` on a daemon thread; fail (rather than hang) when it
    does not return within ``timeout``."""
    outcome: dict = {}

    def target() -> None:
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    if thread.is_alive():
        pytest.fail(f"call still blocked after {timeout:.0f}s watchdog")
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


class TestFanOut:
    def lane(self, workers: int = WORKERS) -> IOLane:
        return IOLane("test-fan-out", workers)

    def test_results_keep_item_order(self):
        items = list(range(50))
        assert FanOut(lambda x: x * x, items).run(self.lane(), QoS.SAVE) == [
            x * x for x in items
        ]

    def test_helpers_run_on_scheduler_threads(self):
        scheduler = get_scheduler()
        on_worker = []

        def slow(item):
            threading.Event().wait(0.05)
            on_worker.append(scheduler.is_worker_thread())
            return item

        assert FanOut(slow, list(range(8))).run(self.lane(), QoS.SAVE) == list(range(8))
        assert any(on_worker) and not all(on_worker)  # caller + helpers

    def test_first_error_is_reraised_after_claimed_items_settle(self):
        settled = []

        def fn(item):
            if item == 3:
                raise ValueError("bad chunk")
            settled.append(item)
            return item

        with pytest.raises(ValueError, match="bad chunk"):
            FanOut(fn, list(range(20))).run(self.lane(), QoS.SAVE)
        assert 3 not in settled

    def test_caller_finishes_alone_when_every_worker_is_busy(self):
        """No scheduler worker is free: the caller must work through
        every item itself and cancel the helpers still queued, instead
        of waiting for them — the property that makes nested fan-outs
        from scheduler workers deadlock-free."""
        scheduler = get_scheduler()
        release = threading.Event()
        started = threading.Semaphore(0)

        def hold():
            started.release()
            release.wait(WATCHDOG_SECONDS)

        blockers = [
            scheduler.submit(hold, QoS.RESTORE, label="test-hold")
            for _ in range(scheduler.workers)
        ]
        try:
            for _ in blockers:
                assert started.acquire(timeout=WATCHDOG_SECONDS)
            cancelled = scheduler.stats()["save"]["cancelled"]
            on_worker = []

            def fn(item):
                on_worker.append(scheduler.is_worker_thread())
                return -item

            got = run_with_watchdog(
                lambda: FanOut(fn, list(range(10))).run(self.lane(), QoS.SAVE)
            )
            assert got == [-x for x in range(10)]
            assert not any(on_worker)
            assert scheduler.stats()["save"]["cancelled"] == cancelled + WORKERS
        finally:
            release.set()
            for task in blockers:
                task.result(timeout=WATCHDOG_SECONDS)

    def test_hedge_duplicates_a_straggler_and_first_success_wins(self):
        """A helper's stalled call is duplicated at the tail; the batch
        returns the duplicate's result without waiting for the stall."""
        scheduler = get_scheduler()
        stalled, release = threading.Event(), threading.Event()

        def fn(item):
            if scheduler.is_worker_thread() and not stalled.is_set():
                stalled.set()
                release.wait(WATCHDOG_SECONDS)
                return "late"
            time.sleep(0.01)
            return item

        fan = FanOut(fn, list(range(6)), hedge_after=0.1)
        try:
            # Returns while the stalled call is still blocked: had the
            # batch waited for it, the watchdog would fail the test.
            got = run_with_watchdog(lambda: fan.run(self.lane(), QoS.RESTORE))
        finally:
            release.set()
        assert stalled.is_set()
        assert got == list(range(6))
        assert fan.hedges >= 1

    def test_hedged_item_fails_only_when_every_call_failed(self):
        scheduler = get_scheduler()
        first = threading.Event()

        def fn(item):
            if scheduler.is_worker_thread() and not first.is_set():
                first.set()
                time.sleep(0.1)
                raise ValueError("slow call failed")
            time.sleep(0.02)
            return item

        fan = FanOut(fn, list(range(4)), hedge_after=0.02)
        assert run_with_watchdog(lambda: fan.run(self.lane(), QoS.RESTORE)) == [0, 1, 2, 3]
        assert first.is_set() and fan.hedges >= 1

    def test_nested_fan_outs_from_scheduler_workers_finish(self):
        scheduler = get_scheduler()
        lane = self.lane()

        def outer(seed):
            return sum(FanOut(lambda x: x + seed, list(range(16))).run(lane, QoS.RESTORE))

        tasks = [
            scheduler.submit(lambda s=seed: outer(s), QoS.RESTORE, label="test-outer")
            for seed in range(2 * scheduler.workers)
        ]
        got = run_with_watchdog(lambda: [task.result() for task in tasks])
        assert got == [sum(range(16)) + 16 * seed for seed in range(2 * scheduler.workers)]


class TestStress:
    """More fan-out threads than cores and a tiny switch interval, so a
    lost update in shared bookkeeping would show."""

    @pytest.fixture(autouse=True)
    def _fast_switching(self):
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(previous)

    def test_every_item_runs_exactly_once(self):
        seen = []  # list.append is atomic: one record per call
        lane = IOLane("test-stress", 8)

        def fn(item):
            seen.append(item)
            return item

        for _ in range(20):
            seen.clear()
            got = run_with_watchdog(lambda: FanOut(fn, list(range(200))).run(lane, QoS.SAVE))
            assert got == list(range(200))
            assert sorted(seen) == list(range(200))

    def test_hedged_items_settle_once_with_their_own_result(self):
        """``hedge_after=0``: every item still open at the tail gets a
        duplicate, so settle races between two calls of one item."""
        seen = []
        lane = IOLane("test-stress-hedge", 8)

        def fn(item):
            seen.append(item)
            return item

        for _ in range(20):
            seen.clear()
            fan = FanOut(fn, list(range(200)), hedge_after=0.0)
            got = run_with_watchdog(lambda: fan.run(lane, QoS.RESTORE))
            assert got == list(range(200))
            assert fan.hedges <= 200
            counts = np.bincount(seen, minlength=200)
            assert counts.min() >= 1 and counts.max() <= 2

    def test_codec_stats_and_meters_stay_exact(self, tmp_path):
        threaded = open_store(tmp_path / "t", parallel_workers=8, chunk_bytes=128)
        serial = open_store(tmp_path / "s", parallel_workers=0, chunk_bytes=128)
        meters = {threaded: PipelineMeters(), serial: PipelineMeters()}
        for store, store_meters in meters.items():
            for index in range(4):
                payload = frames_of(compressible_entry(4096, seed=index), store_meters)
                store.put_serialized(f"k{index}", payload, stamp=1)
        assert threaded.codec.stats == serial.codec.stats
        assert threaded.codec.stats.raw_bytes > 0
        assert meters[threaded].snapshot() == meters[serial].snapshot()
        assert threaded.chunks.chunks_encoded == serial.chunks.chunks_encoded


class TestDigests:
    @pytest.mark.parametrize("seed", range(8))
    def test_fanned_out_digests_match_serial_sweep(self, seed, tmp_path):
        case = random_entry(seeded_rng(seed))
        expected = PayloadFrames.from_entry(case).chunk_digests(CHUNK)
        store = open_store(tmp_path)
        assert frames_of(case).chunk_digests(CHUNK, store._map_save) == expected, seed

    def test_put_digests_count_one_hash_pass_and_match_chunk_addresses(self, tmp_path):
        store = open_store(tmp_path)
        meters = PipelineMeters()
        case = compressible_entry(4096)
        payload = frames_of(case, meters)
        before = save_submissions()
        store.put_serialized("k", payload, stamp=1)
        assert save_submissions() > before  # the sweep really fanned out
        assert meters.bytes_hashed == payload.nbytes  # exactly one sweep
        expected = [
            chunk_digest(chunk) for chunk in chunk_payload(serialize_entry(case), CHUNK)
        ]
        assert store.chunks_of("k") == expected  # codec-independent addressing

    def test_cached_delta_save_digests_are_reused(self, tmp_path):
        # the manager's delta-save sweep runs first; the store must
        # reuse it — one hash pass wherever it happens
        store = open_store(tmp_path, codec=None)
        meters = PipelineMeters()
        payload = frames_of(compressible_entry(), meters)
        payload.chunk_digests(CHUNK)
        before = save_submissions()
        store.put_serialized("k", payload, stamp=1)
        assert meters.bytes_hashed == payload.nbytes
        assert save_submissions() == before  # no codec, digests cached

    def test_empty_payload_roundtrips(self, tmp_path):
        store = open_store(tmp_path)
        store.put_serialized("k", b"", stamp=1)
        assert store.chunks_of("k") == [chunk_digest(b"")]
        assert store._read("k") == b""
        assert store.fsck().ok

    def test_single_chunk_payload_stays_on_the_caller(self, tmp_path):
        store = open_store(tmp_path, chunk_bytes=1 << 20)
        before = save_submissions()
        store.put("k", {"x": np.ones(2)}, stamp=1)
        assert save_submissions() == before
        assert np.array_equal(store.get("k")["x"], np.ones(2))

    def test_plain_bytes_payload_matches_frames_path(self, tmp_path):
        case = compressible_entry(4096)
        threaded = open_store(tmp_path / "t")
        serial = open_store(tmp_path / "s", parallel_workers=0)
        threaded.put_serialized("k", serialize_entry(case), stamp=1)
        serial.put("k", case, stamp=1)
        assert threaded.chunks_of("k") == serial.chunks_of("k")
        assert threaded.chunks.disk_chunks() == serial.chunks.disk_chunks()


class TestEncodeDecode:
    @pytest.mark.parametrize("seed", range(8))
    def test_stored_chunks_are_byte_identical_to_serial_path(self, seed, tmp_path):
        case = random_entry(seeded_rng(seed))
        threaded = open_store(tmp_path / "t")
        serial = open_store(tmp_path / "s", parallel_workers=0)
        threaded.put("k", case, stamp=1)
        serial.put("k", case, stamp=1)
        digests = threaded.chunks_of("k")
        assert digests == serial.chunks_of("k")
        assert threaded.chunks.encoded_digests() == serial.chunks.encoded_digests()
        for digest in digests:
            assert threaded.chunks.read_chunk_stored(digest) == (
                serial.chunks.read_chunk_stored(digest)
            )

    def test_encoded_chunks_decode_to_exact_raw_bytes(self, tmp_path):
        store = open_store(tmp_path)
        case = compressible_entry(4096)
        store.put("k", case, stamp=1)
        raw_chunks = chunk_payload(serialize_entry(case), CHUNK)
        encoded = 0
        for digest, raw in zip(store.chunks_of("k"), raw_chunks):
            body, is_encoded = store.chunks.read_chunk_stored(digest)
            if is_encoded:
                encoded += 1
                assert len(body) < len(raw)
                assert decode_chunk_file(body) == raw
        assert encoded > 1
        assert np.array_equal(store.get("k")["x"], case["x"])
        report = store.fsck()
        assert report.ok and report.encoded_chunks == encoded
        # physical bytes beat logical: compression is really happening
        assert store.chunks.chunk_bytes_written < store.bytes_written

    def test_incompressible_chunks_are_stored_raw(self, tmp_path):
        store = open_store(tmp_path)
        store.put("k", incompressible_entry(4096), stamp=1)
        digests = store.chunks_of("k")
        raw = sum(1 for d in digests if not store.chunks.read_chunk_stored(d)[1])
        # the header chunk may squeeze, but the random body must not
        assert raw >= len(digests) - 2
        assert np.array_equal(store.get("k")["x"], incompressible_entry(4096)["x"])

    def test_at_most_one_compression_pass(self, tmp_path):
        store = open_store(tmp_path)
        meters = PipelineMeters()
        payload = frames_of(compressible_entry(4096), meters)
        store.put_serialized("k", payload, stamp=1)
        assert 0 < meters.bytes_compressed <= payload.nbytes
        # incompressible chunks count raw bytes as output (they hit the
        # wire raw), so out <= in holds for zlib level 1 framing
        assert meters.bytes_compressed_out <= meters.bytes_compressed

    def test_dedup_hit_skips_compression_entirely(self, tmp_path):
        store = open_store(tmp_path)
        case = compressible_entry(4096)
        store.put("a", case, stamp=1)
        meters = PipelineMeters()
        physical = store.chunks.chunk_bytes_written
        store.put_serialized("b", PayloadFrames.from_entry(case, meters=meters), stamp=2)
        # identical content: no new chunk files, zero compression passes
        assert store.chunks.chunk_bytes_written == physical
        assert meters.bytes_compressed == 0

    def test_fanned_out_decode_matches_serial_decode(self, tmp_path):
        codec = make_chunk_codec("zlib")
        raw_chunks = chunk_payload(serialize_entry(compressible_entry(4096)), CHUNK)
        bodies = [encode_chunk_file(codec, [chunk]) for chunk in raw_chunks]
        pairs = [(body, raw) for body, raw in zip(bodies, raw_chunks) if body is not None]
        assert len(pairs) > 1
        store = open_store(tmp_path)
        got = store._map(QoS.RESTORE, store.chunks.decode, [body for body, _ in pairs])
        assert got == [raw for _, raw in pairs]

    def test_no_child_processes(self, tmp_path):
        store = open_store(tmp_path)
        store.put("k", compressible_entry(4096), stamp=1)
        store.get("k")
        assert multiprocessing.active_children() == []

    def test_store_written_with_threads_reads_without_them(self, tmp_path):
        store = open_store(tmp_path)
        case = compressible_entry(4096)
        store.put("k", case, stamp=1)
        store.close()
        # frames are self-describing: a plain reopen decodes fine
        plain = DedupBackend(str(tmp_path), chunk_bytes=CHUNK)
        assert np.array_equal(plain.get("k")["x"], case["x"])
        assert plain.fsck().ok

    def test_trained_dictionary_roundtrips_with_workers(self, tmp_path):
        base = np.random.default_rng(99).standard_normal(32)

        def patterned(seed: int) -> dict:
            # a shared motif with per-entry edits: grams repeat across
            # chunks, so the trainer has a corpus to learn from
            x = np.tile(base, 64)
            x[seed::7] = float(seed)
            return {"x": x}

        store = open_store(tmp_path)
        for index in range(4):
            store.put(f"k{index}", patterned(index), stamp=index)
        assert store.train_codec_dictionary() is not None
        assert store.codec.dictionary
        store.put("post", patterned(9), stamp=9)
        assert any(  # new chunks reference the dictionary
            decode_chunk_file(body, store.chunks.load_dictionary)
            for body, is_encoded in map(
                store.chunks.read_chunk_stored, store.chunks_of("post"))
            if is_encoded and body[1] & 1
        )
        assert np.array_equal(store.get("post")["x"], patterned(9)["x"])
        for index in range(4):  # chunks written before training still decode
            assert np.array_equal(store.get(f"k{index}")["x"], patterned(index)["x"])
        assert store.fsck().ok


class TestConcurrentReads:
    KEYS = 6

    def _populate(self, store) -> dict:
        cases = {f"k{i}": compressible_entry(4096, seed=i) for i in range(self.KEYS)}
        cases["dup"] = cases["k0"]  # a dedup hit in the counters
        for key, case in cases.items():
            store.put(key, case, stamp=1)
        return cases

    @staticmethod
    def _counters(chunks) -> dict:
        return {
            name: getattr(chunks, name)
            for name in ("chunks_written", "chunk_bytes_written", "chunks_encoded",
                         "dedup_hits", "dedup_bytes_saved")
        }

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_concurrent_gets_are_exact(self, workers, tmp_path):
        store = open_store(tmp_path / "t", parallel_workers=workers)
        serial = open_store(tmp_path / "s", parallel_workers=0)
        cases = self._populate(store)
        self._populate(serial)
        counters = self._counters(store.chunks)
        # the fan-out changes scheduling, never the store's accounting
        assert counters == self._counters(serial.chunks)
        assert counters["dedup_hits"] > 0 and counters["chunks_encoded"] > 0
        keys = sorted(cases)
        rounds = 3
        barrier = threading.Barrier(len(keys))
        got: dict = {}
        errors = []

        def reader(key: str) -> None:
            try:
                barrier.wait(WATCHDOG_SECONDS)
                for _ in range(rounds):
                    got[key] = store.get(key)["x"]
            except BaseException as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(key,), daemon=True) for key in keys]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(WATCHDOG_SECONDS)
        assert not any(thread.is_alive() for thread in threads), "reader hung"
        assert errors == []
        for key in keys:
            assert np.array_equal(got[key], cases[key]["x"]), key
        assert store.bytes_read == rounds * sum(store.nbytes_of(key) for key in keys)
        assert self._counters(store.chunks) == counters  # reads never write


class TestManagerMeterInvariants:
    """The acceptance invariants, measured on the live manager with
    ``parallel_workers > 0``: one hash pass, no staging copy on the sync
    path (exactly one on the async path), ≤1 compression pass per
    persisted byte."""

    def _manager(self, tmp_path, **kwargs):
        model, optimizer = tiny_model_and_optimizer(TINY)
        config = MoCConfig(
            pec=PECConfig(k_snapshot=2, k_persist=1),
            two_level=TwoLevelConfig(checkpoint_interval=1),
        )
        return model, optimizer, MoCCheckpointManager(
            model, optimizer, config, disk_root=str(tmp_path),
            backend="dedup", chunk_codec="zlib", parallel_workers=WORKERS,
            **kwargs,
        )

    def _run_checkpoints(self, model, optimizer, manager, iterations=(2, 4)):
        manager.save_initial(0)
        rng = np.random.default_rng(0)
        for iteration in iterations:
            for _name, param in model.named_parameters():
                param.data += rng.standard_normal(param.data.shape) * 0.01
            manager.note_routing(
                [np.full(manager.num_experts, 2)] * manager.num_moe_layers
            )
            manager.checkpoint(iteration)
        manager.flush()

    def test_sync_single_hash_no_copy_bounded_compression(self, tmp_path):
        model, optimizer, manager = self._manager(tmp_path, delta_saves=True)
        with manager:
            self._run_checkpoints(model, optimizer, manager)
            meters = manager.pipeline_meters.snapshot()
        assert meters["bytes_serialized"] > 0
        # ONE sha-256 sweep per byte — the delta sweep feeds the store
        assert meters["bytes_hashed"] == meters["bytes_serialized"]
        # the sync path stages nothing
        assert meters["bytes_copied"] == 0
        # at most one compression pass; dedup hits make it strict
        assert 0 < meters["bytes_compressed"] <= meters["bytes_serialized"]
        for profile in manager.save_profile:
            assert profile.hash_passes == pytest.approx(1.0)
            assert profile.copy_passes == 0.0
            assert profile.compression_passes <= 1.0

    def test_async_stages_exactly_once(self, tmp_path):
        model, optimizer, manager = self._manager(
            tmp_path, delta_saves=True, async_writes=True
        )
        with manager:
            self._run_checkpoints(model, optimizer, manager)
            meters = manager.pipeline_meters.snapshot()
            # the async staging copy is THE copy: the store hashes and
            # compresses the staged bytes in place
            assert meters["bytes_copied"] == manager.disk_store.bytes_written
            assert meters["bytes_hashed"] == meters["bytes_serialized"]
            assert 0 < meters["bytes_compressed"] <= meters["bytes_serialized"]

    def test_workers_hash_without_delta_saves(self, tmp_path):
        # delta off: nobody hashes ahead of the store, so the sweep runs
        # in the store's fan-out — still exactly one pass per byte
        model, optimizer, manager = self._manager(tmp_path, delta_saves=False)
        with manager:
            self._run_checkpoints(model, optimizer, manager)
            meters = manager.pipeline_meters.snapshot()
            assert meters["bytes_hashed"] == meters["bytes_serialized"]

    def test_recovery_restores_exact_state_through_codec_and_workers(self, tmp_path):
        model, optimizer, manager = self._manager(tmp_path, delta_saves=True)
        with manager:
            manager.save_initial(0)
            saved = {
                name: param.data.copy()
                for name, param in model.named_parameters()
            }
            for _name, param in model.named_parameters():
                param.data += 1.0
            result = manager.recover(failed_nodes=[0, 1])
            assert result.resume_iteration == 0
            for name, param in model.named_parameters():
                assert np.array_equal(param.data, saved[name]), name
            assert manager.disk_store.fsck().ok


class TestParallelRestoreRegression:
    @pytest.mark.parametrize("readers,workers", [(2, 2), (4, 1)])
    def test_multi_reader_restore_on_threaded_zlib_store_finishes(
        self, readers, workers, tmp_path
    ):
        """Two restore readers on scheduler threads, each decoding with
        the store's fan-out: must restore bit-exact state promptly.
        (Two readers sharing one worker-process result queue used to
        discard each other's results and block until a 300 s deadline.)"""
        model, optimizer = tiny_model_and_optimizer(TINY)
        config = MoCConfig(
            pec=PECConfig(k_snapshot=2, k_persist=1),
            two_level=TwoLevelConfig(checkpoint_interval=1),
        )
        store = open_store(tmp_path, parallel_workers=workers)
        with MoCCheckpointManager(model, optimizer, config, disk_store=store) as manager:
            manager.save_initial(0)
            assert store.chunks.chunks_encoded > 1
            saved = {name: param.data.copy() for name, param in model.named_parameters()}
            for _name, param in model.named_parameters():
                param.data += 1.0
            result = run_with_watchdog(lambda: manager.restore(workers=readers))
            assert result.resume_iteration == 0
            for name, param in model.named_parameters():
                assert np.array_equal(param.data, saved[name]), name
