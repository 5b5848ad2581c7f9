"""The benchmark's workloads and the training stack each one builds.

Every workload trains the same model (``model_config``, ~9.0 M parameters,
~288 MB of fp64 weights + master + Adam moments) from one process in a
closed loop: one trainer issues each train step, checkpoint and
recovery and waits for it to return.  The workloads differ in the
checkpoint path they load; ``loads``/``bypasses`` record which layers
each one exercises, so a change to one layer has a workload that shows
it and one that predicts no change.

The seed drives model init, the corpus, the fault iterations, and the
simulated remote tier's fault and backoff draws.  The remote draws get
an independent stream per round and per cold restore (``store_seed``):
they change timing only, never content, so rounds still reproduce each
other's losses and state, while a run averages over several fault
patterns instead of replaying one.  The failed nodes are
fixed per workload: on the dedup workload a seeded choice of node made
recovery time bimodal (about 1.15 s vs 1.6 s), and the median of a
run's few recoveries flipped between the two modes from seed to seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.ckpt.dedup import DedupBackend
from repro.ckpt.sharded import ShardedDiskKVStore
from repro.ckpt.tiered import open_tiered_root
from repro.core.config import MoCConfig, PECConfig, TwoLevelConfig
from repro.core.manager import MoCCheckpointManager
from repro.models import Adam, MoEModelConfig, MoETransformerLM
from repro.train import FaultEvent, FaultSchedule, MarkovCorpus

#: Thread/process caps: the I/O scheduler and the chunk engine each stay
#: at or below the 2 cores the benchmark was sized on.
IO_WORKERS = 2
CHUNK_WORKERS = 2
#: Restore fan-out of the end-of-run cold restore: one reader, the
#: default of the program's own cold restart (``resume_training``) and
#: of in-loop recovery.
COLD_RESTORE_WORKERS = 1
BATCH_SIZE = 2
NUM_NODES = 2


def model_config(seed: int) -> MoEModelConfig:
    return MoEModelConfig(
        vocab_size=64, max_seq_len=16, dim=128, num_layers=4, num_heads=4,
        num_experts=32, top_k=2, seed=seed,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    store: str  # "sharded" | "dedup" | "tiered"
    k_snapshot: int
    k_persist: int
    interval: int
    iterations: int  # progress iterations per round (a multiple of interval)
    faults: int  # faults per round, one per equal window after ``lead``
    failed_nodes: Tuple[int, ...]  # nodes every fault fails
    lead: int = 2  # iterations before the first fault window opens
    cold_restores: int = 1  # repeated cold restores per round (median)
    async_writes: bool = False
    delta_saves: bool = False
    loads: Tuple[str, ...] = ()
    bypasses: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.iterations % self.interval:
            raise ValueError("a round must end on a checkpoint")
        if (self.iterations - self.lead) // self.faults < self.interval:
            raise ValueError("fault windows narrower than the checkpoint interval")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pec-async-sharded",
            why=(
                "The paper's configuration: PEC K=4 of 32, two-level, async "
                "persist to the sharded store. The stall is foreground copy, "
                "snapshot and staging work; the write drains behind compute."
            ),
            store="sharded", k_snapshot=4, k_persist=4, interval=2,
            iterations=40, faults=3, failed_nodes=(0,), async_writes=True,
            cold_restores=5,
            loads=("train.trainer", "core.manager", "core.pec", "ckpt.kvstore",
                   "ckpt.async_writer", "ckpt.sharded", "io.scheduler (SAVE)"),
            bypasses=("ckpt.dedup", "ckpt.codec", "ckpt.parallel", "ckpt.tiered"),
        ),
        Workload(
            name="delta-dedup-zlib",
            why=(
                "Synchronous dedup store with delta saves, zlib chunk codec "
                "and 2 chunk workers: hashing, compression and chunk writes "
                "make up most of each stall."
            ),
            store="dedup", k_snapshot=4, k_persist=4, interval=2,
            iterations=12, faults=2, failed_nodes=(0,), delta_saves=True,
            loads=("train.trainer", "core.manager", "core.pec", "ckpt.kvstore",
                   "ckpt.serializer", "ckpt.dedup", "ckpt.codec", "ckpt.parallel"),
            bypasses=("ckpt.async_writer", "ckpt.tiered", "io.scheduler"),
        ),
        Workload(
            name="tiered-restore",
            why=(
                "Tiered store, local dedup tier plus a remote at 2 ms/op with "
                "5% faults; faults fail every node, so recovery reads all "
                "state back through remote reads and promotion."
            ),
            store="tiered", k_snapshot=2, k_persist=2, interval=4,
            # No fault before iteration 8: until a third checkpoint stamp
            # exists, local_keep_stamps=2 demotes nothing and a recovery
            # reads everything from the local tier.
            iterations=16, faults=2, failed_nodes=(0, 1), lead=8,
            loads=("train.trainer", "core.manager", "ckpt.restore", "ckpt.tiered",
                   "ckpt.dedup", "io.scheduler (RESTORE, UPLOAD)"),
            bypasses=("ckpt.async_writer", "ckpt.codec", "ckpt.parallel",
                      "two-level snapshot recovery"),
        ),
    )
}


def fault_schedule(workload: Workload, seed: int) -> FaultSchedule:
    """One fault in each equal window of ``(lead, iterations)``: at the
    checkpoint nearest below the window's middle, plus a seeded
    1..interval iterations.

    Every such fault resumes from that checkpoint (a fault on the next
    checkpoint's iteration strikes before it is taken), so the seed
    moves how much work is replayed, not which state is lost; no fault
    strikes the last iteration, so a round ends on a checkpoint.
    """
    rng = np.random.default_rng((seed, 0xFA17))
    width = (workload.iterations - workload.lead) // workload.faults
    events = []
    for index in range(workload.faults):
        middle = workload.lead + index * width + width // 2
        checkpoint = middle - middle % workload.interval
        iteration = min(checkpoint + 1 + int(rng.integers(workload.interval)),
                        workload.iterations - 1)
        events.append(FaultEvent(iteration, workload.failed_nodes))
    return FaultSchedule(events)


def store_seed(seed: int, *stream: int) -> int:
    """The remote tier's fault/backoff seed for one stream of a run."""
    return int(np.random.SeedSequence((seed, 0x7E3, *stream)).generate_state(1)[0])


def open_store(workload: Workload, root: str, remote_seed: int):
    """The workload's persist tier, rooted at ``root``."""
    if workload.store == "sharded":
        return ShardedDiskKVStore(root)
    if workload.store == "dedup":
        return DedupBackend(root, codec="zlib", parallel_workers=CHUNK_WORKERS)
    if workload.store == "tiered":
        return open_tiered_root(
            root,
            remote_latency=0.002,
            remote_fault_rate=0.05,
            remote_seed=remote_seed,
            upload_workers=1,
            local_keep_stamps=2,
            backoff_seed=remote_seed,
        )
    raise ValueError(f"unknown store {workload.store!r}")


def moc_config(workload: Workload) -> MoCConfig:
    return MoCConfig(
        pec=PECConfig(k_snapshot=workload.k_snapshot, k_persist=workload.k_persist),
        two_level=TwoLevelConfig(checkpoint_interval=workload.interval),
    )


def build_model(seed: int):
    model = MoETransformerLM(model_config(seed))
    return model, Adam(model.named_parameters(), lr=1e-3)


def build_manager(workload: Workload, model, optimizer, root: str, remote_seed: int):
    os.makedirs(root, exist_ok=True)
    return MoCCheckpointManager(
        model, optimizer, moc_config(workload),
        disk_store=open_store(workload, root, remote_seed),
        async_writes=workload.async_writes,
        delta_saves=workload.delta_saves,
        num_nodes=NUM_NODES,
    )


def corpus(seed: int) -> MarkovCorpus:
    return MarkovCorpus(vocab_size=64, seq_len=16, seed=seed)
