"""Measured end-to-end training benchmark of the MoC checkpoint system.

    python3 perfbench/run.py --workload pec-async-sharded --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all    # every metric, every workload
    python3 perfbench/run.py --smoke           # the same, briefly

Run from the repository root.  A run repeats whole training rounds
(set-up, ``Trainer.run`` with seeded faults, final flush, cold restore)
with one seed until ``--seconds`` have passed, at least two rounds.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics, the
tracing overhead among them.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload with ``--trace 1`` and so prints
every metric; ``--smoke`` does the same with one-fault jobs.  Both exit
non-zero if any check fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
SOURCE = os.path.join(CHECKOUT, "src")
if not os.path.isdir(os.path.join(SOURCE, "repro")):
    sys.exit(f"no program source under {SOURCE}: run from a repository checkout")
sys.path.insert(0, SOURCE)

from repro.io.scheduler import configure_scheduler  # noqa: E402

import measure  # noqa: E402
from harness import Checks, Round, peak_rss_mb, run_round  # noqa: E402
from workloads import IO_WORKERS, WORKLOADS, Workload  # noqa: E402

#: Store roots live inside the checkout; removed after every round.
RUN_DIR = os.path.join(CHECKOUT, ".perfbench_run")

END_TO_END_UNITS = {
    "goodput_iters_per_s": "it/s",
    "ckpt_stall_ms_p50": "ms",
    "ckpt_stall_ms_tail": "ms",
    "recover_ms_p50": "ms",
    "cold_restore_ms": "ms",
    "persist_mb_per_ckpt": "MB",
    "stored_mb": "MB",
    "plt_final": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "train.step_ms_p50": "ms",
    "train.replayed_iters": "count",
    "manager.save_self_ms_p50": "ms",
    "manager.persist_entries_per_ckpt": "count",
    "manager.delta_skip_share": "ratio",
    "snapshot.put_ms_p50": "ms",
    "snapshot.mb_per_ckpt": "MB",
    "persist.put_ms_p50": "ms",
    "persist.flush_ms": "ms",
    "store.write_ms_per_ckpt": "ms",
    "store.write_mb_s": "MB/s",
    "store.read_ms_per_recover": "ms",
    "store.reads_per_recover": "count",
    "store.read_mb_s": "MB/s",
    "pipeline.hash_passes": "ratio",
    "pipeline.copy_passes": "ratio",
    "pipeline.compression_passes": "ratio",
    "codec.ratio": "ratio",
    "dedup.unique_share": "ratio",
    "tiered.upload_retries": "count",
    "tiered.remote_reads": "count",
    "tiered.read_retries": "count",
    "tiered.hedged_reads": "count",
    "tiered.promotions": "count",
    "tiered.demotions": "count",
    "restore.fetch_ms_p50": "ms",
    "restore.apply_ms_p50": "ms",
    "restore.persist_entry_share": "ratio",
    "iosched.save_wait_ms": "ms",
    "iosched.restore_wait_ms": "ms",
    "iosched.upload_wait_ms": "ms",
    "iosched.budget_stalls": "count",
    "obs.trace_overhead_pct": "%",
    "distsim.async_stall_gap_ms": "ms",
    "attr.save_gap_pct": "%",
    "attr.recover_gap_pct": "%",
    "error_rate": "ratio",
}


def run_rounds(workload: Workload, seed: int, seconds: float, trace: bool,
               checks: Checks) -> List[Round]:
    """Rounds until ``seconds`` would be overrun (at least two).  With
    ``trace`` the rounds alternate untraced and traced; odd seeds start
    traced, so across seeds neither kind always runs first."""
    root = os.path.join(RUN_DIR, workload.name)
    rounds: List[Round] = []
    began = time.perf_counter()
    while True:
        traced = trace and (len(rounds) + seed) % 2 == 1
        rounds.append(run_round(workload, seed, len(rounds), root, traced, checks))
        elapsed = time.perf_counter() - began
        if len(rounds) >= 2 and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    first = rounds[0]
    for later in rounds[1:]:
        checks.check(later.losses == first.losses,
                     "per-step losses differ between rounds of one seed")
        checks.check(later.digest == first.digest,
                     "final-state digest differs between rounds of one seed")
    return rounds


def end_to_end(rounds: List[Round]) -> Tuple[Dict[str, float], Dict[str, str]]:
    """End-to-end figures over untraced rounds, plus sample notes."""
    stalls = [s for r in rounds for s in r.stalls_s]
    recovers = [s for r in rounds for s in r.recovers_s]
    colds = [s for r in rounds for s in r.cold_restores_s]
    tail = measure.tail_percentile(len(stalls))
    med = measure.median
    figures = {
        "goodput_iters_per_s": med([r.goodput for r in rounds]),
        "ckpt_stall_ms_p50": 1e3 * med(stalls),
        "ckpt_stall_ms_tail": 1e3 * measure.percentile(stalls, tail),
        "recover_ms_p50": 1e3 * med(recovers),
        "cold_restore_ms": 1e3 * med(colds),
        "persist_mb_per_ckpt": med([r.persist_mb_per_ckpt for r in rounds]),
        "stored_mb": med([r.stored_mb for r in rounds]),
        "plt_final": med([r.plt_final for r in rounds]),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": med([r.setup_s for r in rounds]),
    }
    notes = {
        "goodput_iters_per_s": f"median of {len(rounds)} rounds",
        "ckpt_stall_ms_p50": f"n={len(stalls)}",
        "ckpt_stall_ms_tail": f"p{tail:g}, n={len(stalls)}, "
                              f"{measure.samples_beyond(len(stalls), tail)} beyond",
        "recover_ms_p50": f"n={len(recovers)}",
        "cold_restore_ms": f"n={len(colds)}",
        "setup_s": f"n={len(rounds)}",
    }
    return figures, notes


def per_layer(rounds: List[Round]) -> Dict[str, float]:
    """Per-layer figures: medians over the traced rounds."""
    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced]
    figures = {
        name: measure.median([r.layers[name] for r in traced])
        for name in traced[0].layers
    }
    plain = measure.median([r.goodput for r in untraced])
    figures["obs.trace_overhead_pct"] = 100 * (
        plain - measure.median([r.goodput for r in traced])) / plain
    return figures


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    configure_scheduler(workers=IO_WORKERS)
    checks = Checks()
    rounds = run_rounds(workload, seed, seconds, trace, checks)
    attempted = checks.attempted + sum(r.operations for r in rounds)
    failed = checks.failed + sum(r.failed_operations for r in rounds)
    figures, notes = end_to_end([r for r in rounds if not r.traced])
    layer_figures = per_layer(rounds) if trace else {}
    layer_figures["error_rate"] = failed / attempted

    print(f"workload {workload.name} seed {seed}: {len(rounds)} rounds "
          f"({sum(r.traced for r in rounds)} traced), closed loop, 1 trainer")
    print(f"loads {', '.join(workload.loads)}; bypasses {', '.join(workload.bypasses)}")
    print(f"final-state digest {rounds[0].digest[:16]}")
    for name, value in figures.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<34} {value:12.4f} {END_TO_END_UNITS[name]}{note}")
    for name, value in layer_figures.items():
        print(f"  {name:<34} {value:12.4f} {PER_LAYER_UNITS[name]}")
    for message in checks.messages:
        print(f"  CHECK FAILED: {message}")
    if trace:
        metrics = {name: {"value": layer_figures[name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": figures[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(workloads: List[Workload], seed: int, seconds: float) -> int:
    """Each workload once with ``--trace 1`` (untraced and traced rounds),
    which prints every end-to-end and per-layer metric; exits non-zero
    if any check failed."""
    status = 0
    for workload in workloads:
        result = run(workload, seed, seconds, trace=True)
        print(json.dumps({"workload": workload.name, "correct": result["correct"],
                          "attempted": result["attempted"], "failed": result["failed"]}))
        status |= 0 if result["correct"] else 1
    return status


def _stop_resource_tracker() -> None:
    """The chunk engine's shared memory starts multiprocessing's resource
    tracker process; stop it and wait for it so a run leaves no process
    behind.  (The module offers no public call for this.)"""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload briefly: one-fault jobs, two rounds")
    args = parser.parse_args(argv)
    if args.smoke:
        return run_all([dataclasses.replace(w, iterations=3 * w.interval, faults=1)
                        for w in WORKLOADS.values()], seed=0, seconds=0.0)
    if args.workload is None:
        parser.error("--workload or --smoke is required")
    if args.workload == "all":
        return run_all(list(WORKLOADS.values()), args.seed, args.seconds)
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        status = main()
    finally:
        _stop_resource_tracker()
    sys.exit(status)
