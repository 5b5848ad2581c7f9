"""Chunk codec fan-out benchmark: measured save and restore wall time.

With a chunk codec enabled, a dedup save spends much of its time in
``zlib`` and a restore in decompression.  On whole fp64 chunks zlib
level 1 runs at only about 23 MB/s; the byte-plane frame feeds it just
the low-entropy planes (a quarter or less of each chunk on fp64 data),
but the codec is still the largest per-chunk cost of a save.
``DedupBackend(parallel_workers=N)`` shares that
per-chunk work between the calling thread and up to N helper tasks on
the I/O scheduler's threads; ``zlib`` and ``hashlib`` release the GIL,
so the work runs in parallel.  A batched put encodes the novel chunks
of all its entries in one fan-out.  This bench measures what that buys, in
wall-clock seconds on the machine it runs on — nothing is modeled.

Configs raced on an identical zero-heavy checkpoint stream (MoE
optimizer moments are zero-heavy for rarely-routed experts, which is
what makes a cheap codec tier worth having):

* ``pec`` — plain sharded journal store, no dedup (persist-cost
  reference);
* ``dedup`` — dedup without a codec;
* ``dedup+zlib tN`` — dedup + zlib chunk codec with N fan-out threads,
  N in 0/1/2 (0 = the calling thread alone).

Each stamp is saved the way ``MoCCheckpointManager`` saves it (frame
ropes, delta-save digest check, one batched put); after the last stamp
every entry is read back (``get``).  Save and restore wall times are
summed per config; passes interleave the configs in rotating order and
each config keeps its fastest pass, so a throttled window taxes every
config alike.

Run standalone for the CI perf-smoke gate::

    python benchmarks/bench_parallel_save.py --quick \
        --check-baseline benchmarks/results/BENCH_parallel_save.json

The gate fails on a >30% regression against the committed baseline
of either measured ratio:

* ``save_speedup`` — the save wall of ``dedup+zlib t2`` over ``t0``
  (must not fall below 0.7x the baseline).  It depends on the cores
  available (the baseline records its ``cpu_count``); the gate is
  meant for multi-core runners.
* ``codec_tax`` — the save wall of ``dedup+zlib t0`` over ``dedup``
  (no codec), from the same run: what the codec adds to a save on one
  thread (must not rise above 1.3x the baseline).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis import render_table
from repro.ckpt import DedupBackend, PayloadFrames, PipelineMeters, ShardedDiskKVStore

#: Dedup chunk size: several chunks per entry, so both the save and the
#: restore of one entry have per-chunk work to share.
CHUNK_BYTES = 256 * 1024

#: Fan-out thread counts raced on the dedup+zlib config.
THREAD_LADDER = (0, 1, 2)

FULL = dict(entries=12, elems=131072, stamps=4)
#: Quick keeps the FULL entry size (chunks per entry set how much work
#: one put or get can share) and trims count/stamps.
QUICK = dict(entries=6, elems=131072, stamps=3)

#: Scenario shape (same structure as bench_save_pipeline.py).
UNTOUCHED_EVERY = 3  # entry i is untouched at stamp s when (i+s) % 3 == 0
DUPLICATE_EVERY = 4  # entry i mirrors entry i-1's content when i % 4 == 0


def scratch_dir() -> str:
    """tmpfs scratch so disk bandwidth (identical across configs)
    doesn't drown the CPU-side signal."""
    shm = "/dev/shm"
    if os.path.isdir(shm) and os.access(shm, os.W_OK):
        return shm
    import tempfile

    return tempfile.gettempdir()


# ---------------------------------------------------------------------------
# Workload
# ---------------------------------------------------------------------------

def build_stamps(entries: int, elems: int, stamps: int) -> List[List[Tuple[str, dict, int]]]:
    """Deterministic zero-heavy checkpoint stream.

    Every other element of each moment tensor is zero — the shape MoE
    optimizer state takes when expert gating leaves most tokens (and
    thus most moment updates) concentrated on a subset of rows.  That
    is the regime where a chunk codec pays: at the full shape the
    zlib store writes 6.7 MB per checkpoint against 11.8 MB without a
    codec (byte-plane frames; whole-chunk zlib wrote 8.0 MB).
    """
    rng = np.random.default_rng(11)

    def fresh(i: int) -> dict:
        entry = {
            "master": rng.standard_normal(elems).astype(np.float32),
            "m": rng.standard_normal(elems).astype(np.float32),
            "v": np.abs(rng.standard_normal(elems)).astype(np.float32),
        }
        for field in ("m", "v"):
            entry[field][::2] = 0.0
        return entry

    current = [fresh(i) for i in range(entries)]
    out: List[List[Tuple[str, dict, int]]] = []
    for stamp in range(1, stamps + 1):
        items: List[Tuple[str, dict, int]] = []
        for i in range(entries):
            if (i + stamp) % UNTOUCHED_EVERY != 0:
                current[i] = fresh(i)
            if i % DUPLICATE_EVERY == 0 and i > 0:
                current[i] = current[i - 1]
            items.append((f"ex:L00/E{i:03d}:o", current[i], stamp))
        out.append(items)
    # Pre-touch every page so first-access faults aren't billed to
    # whichever config happens to run first.
    for items in out:
        for _key, entry, _stamp in items:
            for value in entry.values():
                value.sum()
    return out


# ---------------------------------------------------------------------------
# Configs
# ---------------------------------------------------------------------------

class SaveConfig:
    """One store configuration driven through the frame save path
    exactly as ``MoCCheckpointManager._persist_batch`` runs it."""

    def __init__(self, name: str, root: str, kind: str,
                 codec: Optional[str], threads: int, delta: bool) -> None:
        self.name = name
        self.root = root
        self.kind = kind
        self.threads = threads
        self.delta = delta
        if kind == "pec":
            self.store = ShardedDiskKVStore(root)
        else:
            self.store = DedupBackend(
                root, chunk_bytes=CHUNK_BYTES, codec=codec,
                parallel_workers=threads,
            )
        self.meters = PipelineMeters()
        self.digests: Dict[str, str] = {}
        self.skips = 0
        self.save_seconds = 0.0
        self.restore_seconds = 0.0
        self.restored = hashlib.sha256()
        self._batch: List = []

    def prepare(self, key: str, entry, stamp: int) -> None:
        begin = time.perf_counter()
        frames = PayloadFrames.from_entry(entry, meters=self.meters)
        if self.delta:
            digest = frames.entry_digest(self.store.digest_chunk_bytes)
            if self.digests.get(key) == digest:
                self.skips += 1
                self.save_seconds += time.perf_counter() - begin
                return
            self.digests[key] = digest
        self._batch.append((key, frames, stamp, 0))
        self.save_seconds += time.perf_counter() - begin

    def commit(self) -> None:
        begin = time.perf_counter()
        self.store.put_many_serialized(self._batch)
        self._batch = []
        self.save_seconds += time.perf_counter() - begin

    def restore(self, key: str) -> None:
        begin = time.perf_counter()
        entry = self.store.get(key)
        self.restore_seconds += time.perf_counter() - begin
        for name in sorted(entry):
            self.restored.update(np.ascontiguousarray(entry[name]).tobytes())

    def close(self) -> None:
        self.store.close()

    def result(self) -> dict:
        if self.kind == "pec":
            journal = os.path.getsize(os.path.join(self.root, "index.jsonl"))
            physical = self.store.bytes_written + journal
            encoded_chunks = 0
            fsck_ok = True
        else:
            journals = sum(
                os.path.getsize(os.path.join(self.root, name))
                for name in ("manifests.jsonl", os.path.join("chunks", "refs.jsonl"))
                if os.path.exists(os.path.join(self.root, name))
            )
            physical = self.store.chunks.chunk_bytes_written + journals
            fsck = self.store.fsck()
            encoded_chunks = fsck.encoded_chunks
            fsck_ok = fsck.ok
        return dict(
            threads=self.threads,
            save_seconds=self.save_seconds,
            restore_seconds=self.restore_seconds,
            restored_sha256=self.restored.hexdigest(),
            logical_bytes=self.store.bytes_written,
            physical_bytes=physical,
            hashed_bytes=self.meters.bytes_hashed,
            copied_bytes=self.meters.bytes_copied,
            compressed_bytes=self.meters.bytes_compressed,
            serialized_bytes=self.meters.bytes_serialized,
            encoded_chunks=encoded_chunks,
            fsck_ok=fsck_ok,
            skips=self.skips,
        )


def build_configs(tmpdir: str, tag: str) -> List[SaveConfig]:
    def root(name: str) -> str:
        return os.path.join(tmpdir, f"{tag}-{name.replace('+', '-').replace(' ', '-')}")

    configs = [
        SaveConfig("pec", root("pec"), "pec", None, 0, delta=False),
        SaveConfig("dedup", root("dedup"), "dedup", None, 0, delta=True),
    ]
    for threads in THREAD_LADDER:
        configs.append(SaveConfig(
            f"dedup+zlib t{threads}", root(f"t{threads}"), "dedup", "zlib",
            threads, delta=True,
        ))
    return configs


def _rotated(configs: List[SaveConfig], turn: int) -> List[SaveConfig]:
    return configs[turn % len(configs):] + configs[:turn % len(configs)]


def run_pass(tmpdir: str, tag: str, stamps) -> Dict[str, dict]:
    """One measured pass, interleaved per entry across all configs
    (rotating execution order) so CPU-throttle drift hits every config
    equally and the reported *ratios* stay stable."""
    configs = build_configs(tmpdir, tag)
    try:
        turn = 0
        for items in stamps:
            for key, entry, stamp in items:
                for config in _rotated(configs, turn):
                    config.prepare(key, entry, stamp)
                turn += 1
            for config in _rotated(configs, turn):
                config.commit()
        for key, _entry, _stamp in stamps[-1]:
            for config in _rotated(configs, turn):
                config.restore(key)
            turn += 1
        return {config.name: config.result() for config in configs}
    finally:
        for config in configs:
            config.close()


def compute_results(tmpdir: str, quick: bool = False, passes: int = 2) -> dict:
    shape = QUICK if quick else FULL
    stamps = build_stamps(**shape)
    payload_per_stamp = sum(
        sum(np.asarray(v).nbytes for v in entry.values()) for _, entry, _ in stamps[0]
    )
    # Per-config best-of-passes, separately for save and restore: every
    # pass interleaves every config (so a throttled window taxes them
    # all), and each config reports its least-throttled pass.
    best: Dict[str, dict] = {}
    for index in range(passes):
        outcome = run_pass(tmpdir, f"pass{index}", stamps)
        for name, run in outcome.items():
            if name not in best:
                best[name] = run
                continue
            for phase in ("save_seconds", "restore_seconds"):
                best[name][phase] = min(best[name][phase], run[phase])

    results: dict = {
        "scenario": dict(
            shape,
            chunk_bytes=CHUNK_BYTES,
            untouched_every=UNTOUCHED_EVERY,
            duplicate_every=DUPLICATE_EVERY,
            payload_per_stamp=payload_per_stamp,
        ),
        "cpu_count": os.cpu_count(),
        "thread_ladder": list(THREAD_LADDER),
        "configs": best,
    }
    serial = best["dedup+zlib t0"]
    for run in best.values():
        for phase in ("save", "restore"):
            seconds = run[f"{phase}_seconds"]
            run[f"{phase}_speedup_vs_t0"] = (
                serial[f"{phase}_seconds"] / seconds if seconds > 0 else 0.0
            )
    top = best[f"dedup+zlib t{THREAD_LADDER[-1]}"]
    results["save_speedup"] = top["save_speedup_vs_t0"]
    results["restore_speedup"] = top["restore_speedup_vs_t0"]
    results["codec_tax"] = serial["save_seconds"] / best["dedup"]["save_seconds"]
    return results


# ---------------------------------------------------------------------------
# Reporting + gates
# ---------------------------------------------------------------------------

def render_report(results: dict) -> str:
    shape = results["scenario"]
    stamps = shape["stamps"]
    lines = [
        f"zero-heavy checkpoint stream: {shape['entries']} entries x "
        f"{stamps} stamps, {shape['payload_per_stamp'] / 1e6:.1f} MB/stamp, "
        f"1/{shape['untouched_every']} untouched, 1/{shape['duplicate_every']} duplicated; "
        f"{results['cpu_count']} cores",
    ]
    rows = []
    for name, run in results["configs"].items():
        rows.append((
            name,
            1e3 * run["save_seconds"] / stamps,
            run["save_speedup_vs_t0"],
            1e3 * run["restore_seconds"],
            run["restore_speedup_vs_t0"],
            run["physical_bytes"] / 1e6 / stamps,
            run["hashed_bytes"] / run["serialized_bytes"]
            if run["serialized_bytes"] else 0.0,
        ))
    lines.append(render_table(
        ["config", "save ms/ckpt", "save x vs t0", "restore ms", "restore x vs t0",
         "MB written/ckpt", "hash B/B"],
        rows, precision=2,
    ))
    top = THREAD_LADDER[-1]
    lines.append(
        f"headline (measured wall): dedup+zlib t{top} vs t0 = "
        f"{results['save_speedup']:.2f}x save, {results['restore_speedup']:.2f}x restore; "
        f"codec tax (dedup+zlib t0 vs dedup save) = {results['codec_tax']:.2f}x"
    )
    return "\n".join(lines)


def check_results(results: dict) -> None:
    """The acceptance properties, asserted off the measured counters."""
    configs = results["configs"]
    serial = configs["dedup+zlib t0"]
    # Meter invariants: one hash sweep per serialized byte, no staging
    # copy on this synchronous path, <=1 compression pass.
    for name, run in configs.items():
        if name == "pec":
            continue
        assert abs(run["hashed_bytes"] / run["serialized_bytes"] - 1.0) < 1e-9, name
        assert run["copied_bytes"] == 0, name
        assert run["compressed_bytes"] <= run["serialized_bytes"], name
        assert run["fsck_ok"], name
    # Threads change scheduling, never state: every dedup+zlib config
    # lands identical logical and physical bytes, skips and store
    # compression, and restores identical entries.
    for threads in THREAD_LADDER:
        run = configs[f"dedup+zlib t{threads}"]
        for field in ("logical_bytes", "physical_bytes", "encoded_chunks", "skips",
                      "restored_sha256"):
            assert run[field] == serial[field], (threads, field)
    assert serial["skips"] > 0 and serial["encoded_chunks"] > 0
    assert configs["pec"]["restored_sha256"] == serial["restored_sha256"]
    # The codec earns its keep: fewer physical bytes than no-codec.
    assert serial["physical_bytes"] < configs["dedup"]["physical_bytes"]


def test_parallel_save_bench(benchmark, report, report_json):
    import tempfile

    from repro.testing import once

    def compute():
        with tempfile.TemporaryDirectory(dir=scratch_dir()) as tmpdir:
            return compute_results(tmpdir, quick=True)

    results = once(benchmark, compute)
    # _quick names: a smoke run must never clobber the committed
    # full-size baseline next to it.
    report("parallel_save_quick", render_report(results))
    report_json("parallel_save_quick", results)
    check_results(results)


# ---------------------------------------------------------------------------
# Standalone entry point (CI perf-smoke gate)
# ---------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small shape for the CI smoke gate")
    parser.add_argument("--json", action="store_true",
                        help="print the JSON payload to stdout")
    parser.add_argument("--write-results", action="store_true",
                        help="write benchmarks/results/parallel_save.txt and "
                             "BENCH_parallel_save.json (suffixed _quick under "
                             "--quick) and refresh the repo-root mirror")
    parser.add_argument("--check-baseline", metavar="PATH", default=None,
                        help="fail (exit 1) when the measured save speedup "
                             "of the top thread count over t0, or the codec "
                             "tax (t0 over no-codec save), regresses >30%% "
                             "vs the committed baseline JSON")
    args = parser.parse_args(argv)

    baseline = None
    if args.check_baseline:
        # Load before any result writing so the gate can never compare
        # a fresh measurement against itself.
        with open(args.check_baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)

    import tempfile

    with tempfile.TemporaryDirectory(dir=scratch_dir()) as tmpdir:
        results = compute_results(tmpdir, quick=args.quick)
    text = render_report(results)
    print(text)
    if args.json:
        print(json.dumps(results, indent=2, sort_keys=True))
    if args.write_results:
        # Written before any assertion so a failing gate still leaves
        # the measurement on disk for the CI artifact.
        from repro.testing import mirror_bench_json

        results_dir = os.path.join(os.path.dirname(__file__), "results")
        os.makedirs(results_dir, exist_ok=True)
        suffix = "_quick" if args.quick else ""
        with open(os.path.join(results_dir, f"parallel_save{suffix}.txt"), "w") as handle:
            handle.write(text + "\n")
        json_path = os.path.join(results_dir, f"BENCH_parallel_save{suffix}.json")
        with open(json_path, "w") as handle:
            handle.write(json.dumps(results, indent=2, sort_keys=True) + "\n")
        mirror_bench_json(json_path)
    check_results(results)
    if baseline is not None:
        status = 0
        floor = 0.7 * baseline["save_speedup"]
        current = results["save_speedup"]
        print(f"perf gate: measured save speedup {current:.2f}x vs baseline "
              f"{baseline['save_speedup']:.2f}x on {baseline['cpu_count']} cores "
              f"(floor {floor:.2f}x; this machine has {results['cpu_count']})")
        if current < floor:
            print("perf gate FAILED: measured save speedup regressed >30%",
                  file=sys.stderr)
            status = 1
        ceiling = 1.3 * baseline["codec_tax"]
        tax = results["codec_tax"]
        print(f"perf gate: measured codec tax {tax:.2f}x vs baseline "
              f"{baseline['codec_tax']:.2f}x (ceiling {ceiling:.2f}x)")
        if tax > ceiling:
            print("perf gate FAILED: measured codec tax regressed >30%",
                  file=sys.stderr)
            status = 1
        return status
    return 0


if __name__ == "__main__":
    sys.exit(main())
