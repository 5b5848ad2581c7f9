"""One benchmark round: build the stack, train with faults, cold-restore,
check, and reduce what was measured to end-to-end and per-layer figures.

A round is a whole training job: set-up (model, optimizer, store,
manager, ``save_initial``), ``Trainer.run`` over a fixed number of
progress iterations with seeded faults, the final flush, then a cold
restore of the full state by a fresh model and manager from the same
root.  Rounds repeat with the same seed, so every round of a run must
produce the same per-step losses and the same final-state digest.
"""

from __future__ import annotations

import gc
import hashlib
import os
import resource
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.ckpt.async_writer import AsyncWriteBackend
from repro.ckpt.dedup import DedupBackend
from repro.ckpt.tiered import TieredBackend
from repro.core.plt import PERSIST_TIER
from repro.core.verify import verify_consistency
from repro.distsim.ckptsim import overlapped_write_window
from repro.io.scheduler import get_scheduler
from repro.models.serial import non_expert_param_names
from repro.train import Trainer, TrainerConfig

import measure
from measure import Span, SpanRecorder
from workloads import (
    BATCH_SIZE, COLD_RESTORE_WORKERS, Workload, build_manager, build_model,
    corpus, fault_schedule, store_seed,
)

MB = 1e6

_WRITES = ("put_many_serialized", "put_serialized")


@dataclass
class Checks:
    """Correctness checks; each failure counts into ``error_rate``."""

    attempted: int = 0
    failed: int = 0
    messages: List[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)


@dataclass
class Round:
    traced: bool
    setup_s: float
    goodput: float  # progress iterations per second of the training loop
    stalls_s: List[float]
    recovers_s: List[float]
    cold_restores_s: List[float]
    persist_mb_per_ckpt: float
    stored_mb: float
    plt_final: float
    losses: List[float]
    digest: str
    operations: int  # saves, recoveries, cold restores, remote uploads
    failed_operations: int
    layers: Dict[str, float] = field(default_factory=dict)


def _count_nbytes(items) -> float:
    return float(sum(len(payload) for _key, payload, _stamp, _node in items))


def _write_attrs(span: Span, args, kwargs) -> None:
    if span.name.endswith("put_many_serialized"):
        items = args[0]
        span.attrs["nbytes"] = _count_nbytes(items)
        span.attrs["stamp"] = float(items[0][2]) if items else 0.0
    else:
        payload = args[1]
        stamp = args[2] if len(args) > 2 else kwargs["stamp"]
        span.attrs["nbytes"] = float(len(payload))
        span.attrs["stamp"] = float(stamp)


def _read_attrs(span: Span, entry) -> None:
    span.attrs["nbytes"] = float(sum(np.asarray(v).nbytes for v in entry.values()))


def instrument(recorder: SpanRecorder, trainer: Trainer, manager, deep: bool) -> None:
    """Install the benchmark's spans.

    The top-level calls the loop makes are always timed: they are the
    end-to-end measurement.  ``deep`` adds the layer boundaries below
    them for the traced run.
    """
    def note(key):
        return lambda span, value: span.attrs.__setitem__(key, value)

    recover_wall = manager.pipeline_meters.registry.histogram("moc_recover_seconds")
    recorder.wrap(trainer, "train_step", "train.step", on_result=note("loss"))
    recorder.wrap(manager, "save_initial", "manager.save_initial")
    recorder.wrap(manager, "checkpoint", "manager.checkpoint",
                  on_call=lambda span, args, kwargs: note("iteration")(span, args[0]))
    # The manager's own wall for the recovery, which the traced run's
    # attribution must conserve.
    recorder.wrap(manager, "recover", "manager.recover",
                  on_call=lambda span, args, kwargs: note("h0")(span, recover_wall.sum),
                  on_result=lambda span, result: note("wall")(
                      span, recover_wall.sum - span.attrs["h0"]))
    recorder.wrap(manager, "flush", "manager.flush")
    if not deep:
        return
    # The apply step has no public entry point; its private hook is the
    # only seam between the read pipeline and the optimizer.
    recorder.wrap(manager, "_apply_entries", "restore.apply")
    for method in ("put_many", "put"):
        recorder.wrap(manager.memory_store, method, f"snapshot.{method}")
    recorder.wrap(manager.memory_store, "get", "snapshot.get", on_result=_read_attrs)
    stores = [("persist", manager.disk_store)]
    if isinstance(manager.disk_store, AsyncWriteBackend):
        stores.append(("store", manager.disk_store.inner))
    for layer, store in stores:
        for method in _WRITES:
            recorder.wrap(store, method, f"{layer}.{method}", on_call=_write_attrs)
        recorder.wrap(store, "get", f"{layer}.get", on_result=_read_attrs)
        recorder.wrap(store, "flush", f"{layer}.flush")


def state_digest(optimizer) -> str:
    """SHA-256 over every parameter and its optimizer state, by name."""
    digest = hashlib.sha256()
    for name in sorted(optimizer.params):
        state = optimizer.state[name]
        digest.update(name.encode())
        for array in (optimizer.params[name].data, state.master, state.m, state.v):
            digest.update(np.ascontiguousarray(array).tobytes())
        digest.update(str(int(state.step)).encode())
    return digest.hexdigest()


def _non_expert_equal(names: Sequence[str], live, restored) -> bool:
    for name in names:
        a, b = live.state[name], restored.state[name]
        if not (
            np.array_equal(live.params[name].data, restored.params[name].data)
            and np.array_equal(a.master, b.master)
            and np.array_equal(a.m, b.m)
            and np.array_equal(a.v, b.v)
            and int(a.step) == int(b.step)
        ):
            return False
    return True


def tree_bytes(root: str) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            total += os.stat(os.path.join(dirpath, name)).st_size
    return total


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def _tiers(store):
    """(tiered, dedup) backends under the manager's persist store."""
    inner = store.inner if isinstance(store, AsyncWriteBackend) else store
    tiered = inner if isinstance(inner, TieredBackend) else None
    local = tiered.local if tiered is not None else inner
    return tiered, local if isinstance(local, DedupBackend) else None


def run_round(workload: Workload, seed: int, index: int, root: str, traced: bool,
              checks: Checks) -> Round:
    """Round ``index`` of a run.  The first round also fsck-checks a
    dedup or tiered root: it re-hashes every chunk, seconds on a dedup
    root, so a run does it once."""
    shutil.rmtree(root, ignore_errors=True)
    # Write back what earlier rounds left dirty before the clock starts,
    # so their writeback does not land inside this round's timings.
    os.sync()
    try:
        result, optimizer = _train(workload, seed, index, root, traced, checks)
        # The span wrappers make the closed manager part of a reference
        # cycle; free its memory tier now, not at an arbitrary later
        # collection, so peak memory does not depend on gc timing.
        gc.collect()
        os.sync()
        result.cold_restores_s = [
            _cold_restore(workload, seed, store_seed(seed, index, 1 + i), root,
                          optimizer, checks)
            for i in range(workload.cold_restores)
        ]
        result.operations += workload.cold_restores
        return result
    finally:
        gc.collect()
        shutil.rmtree(root, ignore_errors=True)


def _train(workload: Workload, seed: int, index: int, root: str, traced: bool,
           checks: Checks):
    """Set up, run the training job and check it; returns the round's
    figures (cold restores still to come) and the live optimizer."""
    recorder = SpanRecorder()
    begin = time.perf_counter()
    model, optimizer = build_model(seed)
    manager = build_manager(workload, model, optimizer, root, store_seed(seed, index, 0))
    construct_s = time.perf_counter() - begin
    try:
        trainer = Trainer(
            model, optimizer, corpus(seed),
            TrainerConfig(total_iterations=workload.iterations, batch_size=BATCH_SIZE),
            manager=manager, fault_schedule=fault_schedule(workload, seed),
        )
        instrument(recorder, trainer, manager, deep=traced)
        registry = get_scheduler().registry
        sched_before = registry.snapshot()

        loop_begin = time.perf_counter()
        history = trainer.run()
        manager.flush()
        loop_end = time.perf_counter()

        spans = recorder.spans
        by_name: Dict[str, List[Span]] = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)
        save_initial_s = by_name["manager.save_initial"][0].duration
        loop_s = loop_end - loop_begin - save_initial_s
        stored_mb = tree_bytes(root) / MB
        sched_delta = registry.delta(sched_before)
        ckpt_spans = by_name.get("manager.checkpoint", [])
        recover_spans = by_name.get("manager.recover", [])

        for span, recovery in zip(recover_spans, history.recoveries):
            earlier = [c for c in ckpt_spans if c.end <= span.start]
            expected = earlier[-1].attrs["iteration"] if earlier else 0
            checks.check(
                recovery.resume_iteration == expected,
                f"recovery resumed at {recovery.resume_iteration}, "
                f"latest checkpoint {expected}",
            )
        checks.check(
            bool(ckpt_spans) and manager.manifests[-1].iteration == workload.iterations,
            "run did not end on a checkpoint",
        )
        tiered, dedup = _tiers(manager.disk_store)
        if index == 0 and tiered is not None:
            checks.check(tiered.fsck().ok, "tiered root not fsck-clean")
        elif index == 0 and dedup is not None:
            checks.check(dedup.fsck().ok, "dedup root not fsck-clean")
        uploads = tiered.uploads_completed + tiered.uploads_failed if tiered else 0

        layers: Dict[str, float] = {}
        if traced:
            layers = layer_figures(workload, manager, history, spans, by_name,
                                   sched_delta, checks)
            layers.update(_tier_counters(tiered, dedup))
        persisted = [
            sum(record.nbytes for record in m.persist_entries)
            for m in manager.manifests if m.checkpoint_index >= 0
        ]
        result = Round(
            traced=traced,
            setup_s=construct_s + save_initial_s,
            goodput=workload.iterations / loop_s,
            stalls_s=[s.duration for s in ckpt_spans],
            recovers_s=[s.duration for s in recover_spans],
            cold_restores_s=[],
            persist_mb_per_ckpt=float(np.mean(persisted)) / MB,
            stored_mb=stored_mb,
            plt_final=history.final_plt,
            losses=[s.attrs["loss"] for s in by_name["train.step"]],
            digest=state_digest(optimizer),
            operations=len(manager.manifests) + len(recover_spans) + uploads,
            failed_operations=tiered.uploads_failed if tiered else 0,
            layers=layers,
        )
    finally:
        manager.close()
    return result, optimizer


def _cold_restore(workload: Workload, seed: int, remote_seed: int, root: str,
                  live, checks: Checks) -> float:
    """A fresh model and manager restore the full state from ``root``;
    returns the seconds from opening the store to the restored state."""
    model, optimizer = build_model(seed)
    gc.collect()  # the previous restore's state, before the clock starts
    begin = time.perf_counter()
    manager = build_manager(workload, model, optimizer, root, remote_seed)
    try:
        restored = manager.restore(workers=COLD_RESTORE_WORKERS)
        seconds = time.perf_counter() - begin
        checks.check(restored.resume_iteration == workload.iterations,
                     f"cold restore resumed at {restored.resume_iteration}")
        report = verify_consistency(manager)
        checks.check(report.ok, f"cold restore inconsistent: {report.counts()}")
        checks.check(
            _non_expert_equal(non_expert_param_names(model), live, optimizer),
            "cold-restored non-expert state differs from the live state",
        )
    finally:
        manager.close()
    return seconds


def _tier_counters(tiered: Optional[TieredBackend], dedup: Optional[DedupBackend]) -> Dict[str, float]:
    out = {
        f"tiered.{name}": float(getattr(tiered, name)) if tiered is not None else 0.0
        for name in ("upload_retries", "remote_reads", "read_retries",
                     "hedged_reads", "promotions", "demotions")
    }
    if dedup is not None and dedup.total_bytes():
        out["dedup.unique_share"] = dedup.unique_bytes() / dedup.total_bytes()
    else:
        out["dedup.unique_share"] = 1.0  # no dedup tier: every byte is stored
    return out


def _outermost(spans: Sequence[Span], layer: str, names: Sequence[str]) -> List[Span]:
    """Spans of ``layer`` named in ``names`` that are not nested in
    another span of the same layer (a base-class batch put calls the
    single put, which is wrapped too)."""
    wanted = {f"{layer}.{n}" for n in names}
    out = []
    for span in spans:
        if span.name not in wanted:
            continue
        parent = spans[span.parent] if span.parent is not None else None
        if parent is not None and measure.layer_of(parent.name) == layer:
            continue
        out.append(span)
    return out


def _summed(per_call: Sequence[Dict[str, float]]) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for layers in per_call:
        for layer, seconds in layers.items():
            total[layer] = total.get(layer, 0.0) + seconds
    return total


def _within(span: Span, roots: Sequence[Span]) -> bool:
    return any(r.thread == span.thread and r.start <= span.start and span.end <= r.end
               for r in roots)


def layer_figures(workload: Workload, manager, history, spans: Sequence[Span],
                  by_name: Dict[str, List[Span]], sched_delta: Dict[str, float],
                  checks: Checks) -> Dict[str, float]:
    """Per-layer figures of one traced round; ``sched_delta`` is the
    I/O scheduler's registry change over the round."""
    selfs = measure.self_times(spans)
    ckpts, recovers = by_name["manager.checkpoint"], by_name["manager.recover"]
    profiles = manager.save_profile[1:]  # [0] is save_initial
    out: Dict[str, float] = {}

    # Conservation: layer self times along the blocking paths of the
    # round's saves (recoveries) vs the walls the manager measured for
    # the same calls.  Checked over the round, not per call: the GIL can
    # pass to a scheduler thread between the manager's clock and the
    # span's end, a few ms that can exceed 5% of one 80 ms save.
    save_layers = [measure.attribute(spans, root, selfs) for root in ckpts]
    for kind, layers, walls in (
        ("save", save_layers, [p.wall_seconds for p in profiles]),
        ("recover", [measure.attribute(spans, root, selfs) for root in recovers],
         [root.attrs["wall"] for root in recovers]),
    ):
        gap = measure.conservation(_summed(layers), sum(walls))
        checks.check(gap <= measure.CONSERVATION_BAND,
                     f"{kind} attribution off the measured wall by {100 * gap:.1f}%")
        out[f"attr.{kind}_gap_pct"] = 100 * gap

    steps = [s.duration for s in by_name["train.step"]]
    out["train.step_ms_p50"] = 1e3 * measure.median(steps)
    out["train.replayed_iters"] = float(history.executed_iterations - workload.iterations)

    out["manager.save_self_ms_p50"] = 1e3 * measure.median([selfs[r.index] for r in ckpts])
    entries = sum(p.persist_entries for p in profiles)
    skipped = sum(p.persist_skipped for p in profiles)
    out["manager.persist_entries_per_ckpt"] = entries / len(profiles)
    out["manager.delta_skip_share"] = skipped / (entries + skipped) if entries + skipped else 0.0

    out["snapshot.put_ms_p50"] = 1e3 * measure.median(
        [layers.get("snapshot", 0.0) for layers in save_layers])
    out["snapshot.mb_per_ckpt"] = float(np.mean([
        sum(r.nbytes for r in m.snapshot_entries)
        for m in manager.manifests if m.checkpoint_index >= 0
    ])) / MB
    out["persist.put_ms_p50"] = 1e3 * measure.median(
        [layers.get("persist", 0.0) for layers in save_layers])
    out["persist.flush_ms"] = 1e3 * by_name["manager.flush"][-1].duration

    store_layer = "store" if isinstance(manager.disk_store, AsyncWriteBackend) else "persist"
    writes = [s for s in _outermost(spans, store_layer, _WRITES) if s.attrs["stamp"] > 0]
    write_s = sum(s.duration for s in writes)
    out["store.write_ms_per_ckpt"] = 1e3 * write_s / len(ckpts)
    out["store.write_mb_s"] = sum(s.attrs["nbytes"] for s in writes) / MB / write_s
    reads = [s for s in _outermost(spans, store_layer, ("get",)) if _within(s, recovers)]
    read_s = sum(s.duration for s in reads)
    out["store.read_ms_per_recover"] = 1e3 * read_s / len(recovers)
    out["store.reads_per_recover"] = len(reads) / len(recovers)
    out["store.read_mb_s"] = (
        sum(s.attrs["nbytes"] for s in reads) / MB / read_s if read_s else 0.0)

    serialized = sum(p.bytes_serialized for p in profiles)
    compressed = sum(p.bytes_compressed for p in profiles)
    out["pipeline.hash_passes"] = sum(p.bytes_hashed for p in profiles) / serialized
    out["pipeline.copy_passes"] = sum(p.bytes_copied for p in profiles) / serialized
    out["pipeline.compression_passes"] = compressed / serialized
    out["codec.ratio"] = (
        sum(p.bytes_compressed_out for p in profiles) / compressed if compressed else 1.0)

    fetches = [r.restore_stats.wall_seconds for r in history.recoveries]
    out["restore.fetch_ms_p50"] = 1e3 * measure.median(fetches)
    out["restore.apply_ms_p50"] = 1e3 * measure.median(
        [s.duration for s in by_name["restore.apply"]])
    sources = [t for r in history.recoveries for t in r.plan.sources.values()]
    out["restore.persist_entry_share"] = sources.count(PERSIST_TIER) / len(sources)

    for qos in ("save", "restore", "upload"):
        out[f"iosched.{qos}_wait_ms"] = 1e3 * sched_delta.get(
            f'moc_io_wait_seconds_sum{{qos="{qos}"}}', 0.0)
    out["iosched.budget_stalls"] = sched_delta.get("moc_io_budget_stalls_total", 0.0)

    # CounterPoint-style gap: the measured stall against what the
    # overlap model predicts from the measured write time per checkpoint.
    step_s = measure.median(steps)
    if workload.async_writes:
        predicted = overlapped_write_window(
            write_s / len(ckpts), step_s, workload.interval).stall_seconds
    else:
        predicted = write_s / len(ckpts)  # a synchronous write blocks in full
    out["distsim.async_stall_gap_ms"] = 1e3 * (
        measure.median([r.duration for r in ckpts]) - predicted)
    return out
