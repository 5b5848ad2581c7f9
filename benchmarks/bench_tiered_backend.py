"""Tiered-backend benchmark: write-back acceptance vs write-through.

The tiered store's contract is that a checkpoint put costs the *local*
tier's latency — the simulated remote object tier (per-op latency plus
transient faults retried with backoff) is paid by the background upload
pipeline, off the training loop.  This benchmark measures that directly
by racing the same checkpoint stream through:

* ``write-through`` — ``upload_workers=0``: every put uploads inline
  and pays the remote round trip (and its fault retries) on the save
  path.  This is the no-pipeline strawman;
* ``write-back wN`` — N background upload workers: puts return at
  local speed, the drain happens under ``flush``.

The headline is the **acceptance speedup** — write-through put wall
over write-back put wall — which is dominated by the simulated remote
latency, so the ratio is machine-independent enough to gate in CI.
Both configs run with a faulty remote (``FAULT_RATE``), so the gate
also proves retry-with-backoff keeps the pipeline live: the run
asserts nonzero observed retries and a drained, fsck-clean store.

A third config (``write-back keep1``) bounds the local tier to the
newest stamp, forcing the read path through demotion -> remote fetch
-> promotion, and reports the measured local-hit vs remote-read cost.
It then restores every demoted key twice per repeat — once through
per-key ``get``, once through one ``get_many`` batch (remote fetches
overlapped on the scheduler, one batch promotion), re-demoting in
between — and reports the measured wall ratio as
``batch_restore_speedup``.

The model section prices recovery with
:func:`repro.distsim.two_tier_recovery_cost` across a keep-last-k
ladder and asserts the Figure 15(a) trend it reproduces: two-level
recovery is never slower than the storage-only (remote-only) baseline,
widening local coverage monotonically drives its cost down, and the
baseline stays flat.

Run standalone for the CI perf-smoke gate::

    python benchmarks/bench_tiered_backend.py --quick \
        --check-baseline benchmarks/results/BENCH_tiered_backend.json

The gate compares the acceptance-speedup ratio and the batched-restore
speedup against the committed baseline and fails when either regresses
by more than 30%.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis import render_table
from repro.ckpt import open_tiered_root
from repro.distsim import (
    A800_CLUSTER,
    gpt_350m_16e,
    pec_local_hit_fraction,
    two_tier_recovery_cost,
)

#: Simulated remote object-store round trip per request.  Dominates
#: the write-through save path, so the acceptance ratio is pinned by
#: the simulation rather than by host disk speed.
REMOTE_LATENCY = 0.005

#: Transient-fault probability per remote op (seeded RNG: deterministic
#: per run shape).  High enough that every pass observes retries.
FAULT_RATE = 0.15

FULL = dict(entries=32, elems=4096, stamps=4)
#: Quick trims the stream; the headline is a latency *ratio*, so the
#: smaller shape moves it far less than it moves wall time.
QUICK = dict(entries=16, elems=4096, stamps=3)

#: The acceptance ratio saturates here.  Beyond ~10x the measured ratio
#: only tracks tmpfs noise in the (sub-millisecond) write-back
#: denominator — raw runs land anywhere in 20-45x — so the headline is
#: clamped to keep the CI gate stable.  A real regression (write-back
#: paying the remote round trip inline) lands near 1x and still fails
#: the 30% floor by a mile.
HEADLINE_CAP = 10.0

#: Restore passes per path in the keep1 config (median wall counts).
RESTORE_REPEATS = 3

#: Keep-last-k ladder for the Figure 15(a) model section.
KEEP_LADDER = (0, 1, 2, 4, 8)
MODEL_K_PERSIST = 2


def scratch_dir() -> str:
    """tmpfs scratch so host-disk variance stays out of the measured
    local-tier cost (the remote tier's cost is simulated anyway)."""
    shm = "/dev/shm"
    if os.path.isdir(shm) and os.access(shm, os.W_OK):
        return shm
    import tempfile

    return tempfile.gettempdir()


# ---------------------------------------------------------------------------
# Workload
# ---------------------------------------------------------------------------

def build_stream(entries: int, elems: int, stamps: int) -> List[List[Tuple[str, dict, int]]]:
    """Deterministic checkpoint stream: every entry fresh every stamp
    (delta-save skips would make the two configs upload different key
    sets and muddy the acceptance ratio)."""
    rng = np.random.default_rng(23)
    out: List[List[Tuple[str, dict, int]]] = []
    for stamp in range(1, stamps + 1):
        items = [
            (
                f"ex:L00/E{i:03d}:o",
                {"w": rng.standard_normal(elems).astype(np.float32)},
                stamp,
            )
            for i in range(entries)
        ]
        out.append(items)
    for items in out:
        for _key, entry, _stamp in items:
            entry["w"].sum()  # pre-touch pages
    return out


def build_pec_stream(entries: int, elems: int, stamps: int) -> List[List[Tuple[str, dict, int]]]:
    """PEC-shaped stream: each entry persisted once, round-robin across
    stamps, so the store's latest versions *span* stamps — which is what
    gives a keep-last-k local retention policy something to demote (a
    stream that rewrites every key every stamp leaves everything at the
    newest stamp and evicts nothing)."""
    rng = np.random.default_rng(29)
    out: List[List[Tuple[str, dict, int]]] = []
    for stamp in range(1, stamps + 1):
        items = [
            (
                f"ex:L00/E{i:03d}:o",
                {"w": rng.standard_normal(elems).astype(np.float32)},
                stamp,
            )
            for i in range(entries)
            if i % stamps == stamp - 1
        ]
        out.append(items)
    for items in out:
        for _key, entry, _stamp in items:
            entry["w"].sum()
    return out


# ---------------------------------------------------------------------------
# Measured configs
# ---------------------------------------------------------------------------

def run_config(
    root: str,
    stream,
    upload_workers: int,
    local_keep_stamps: Optional[int] = None,
) -> dict:
    store = open_tiered_root(
        root,
        remote_latency=REMOTE_LATENCY,
        remote_fault_rate=FAULT_RATE,
        upload_workers=upload_workers,
        local_keep_stamps=local_keep_stamps,
    )
    try:
        accept = 0.0
        for items in stream:
            begin = time.perf_counter()
            for key, entry, stamp in items:
                store.put(key, entry, stamp)
            accept += time.perf_counter() - begin
        begin = time.perf_counter()
        store.flush()
        drain = time.perf_counter() - begin

        read_local = read_remote = 0.0
        stats_before_reads = store.tier_stats()
        for key in store.keys():
            begin = time.perf_counter()
            store.get(key)
            elapsed = time.perf_counter() - begin
            # A read that bumped the remote counter went over the wire.
            if store.tier_stats()["remote_reads"] > stats_before_reads["remote_reads"]:
                read_remote += elapsed
                stats_before_reads = store.tier_stats()
            else:
                read_local += elapsed
        store.flush()
        restore = time_demoted_restore(store) if local_keep_stamps else {}
        stats = store.tier_stats()
        fsck = store.fsck()
        puts = sum(len(items) for items in stream)
        return dict(
            restore,
            upload_workers=upload_workers,
            local_keep_stamps=local_keep_stamps,
            puts=puts,
            accept_seconds=accept,
            drain_seconds=drain,
            total_seconds=accept + drain,
            accept_ms_per_put=1e3 * accept / puts,
            read_local_seconds=read_local,
            read_remote_seconds=read_remote,
            uploads_completed=stats["uploads_completed"],
            upload_retries=stats["upload_retries"],
            uploads_failed=stats["uploads_failed"],
            remote_faults=stats["remote_faults"],
            pending_uploads=stats["pending_uploads"],
            remote_reads=stats["remote_reads"],
            promotions=stats["promotions"],
            demotions=stats["demotions"],
            fsck_ok=fsck.ok,
        )
    finally:
        store.close()


def time_demoted_restore(store) -> dict:
    """Measured wall of restoring every demoted key per key vs batched.

    Each pass starts from the same state: ``flush`` re-demotes what the
    previous pass promoted.  Both paths promote, so the ratio isolates
    overlapped remote fetches plus one batch promotion against serial
    fetches and per-key promotions.
    """
    demoted = [key for key in store.keys() if not store.local.has(key)]
    assert demoted, "keep1 config demoted nothing"
    per_key: List[float] = []
    batched: List[float] = []
    for _ in range(RESTORE_REPEATS):
        begin = time.perf_counter()
        singles = [store.get(key) for key in demoted]
        per_key.append(time.perf_counter() - begin)
        store.flush()
        begin = time.perf_counter()
        batch = store.get_many(demoted)
        batched.append(time.perf_counter() - begin)
        store.flush()
        for one, many in zip(singles, batch):
            assert all(np.array_equal(one[f], many[f]) for f in one)
    per_key_s = float(np.median(per_key))
    batched_s = float(np.median(batched))
    return dict(
        restore_keys=len(demoted),
        restore_per_key_seconds=per_key_s,
        restore_batched_seconds=batched_s,
        batch_restore_speedup=per_key_s / batched_s if batched_s > 0 else 0.0,
    )


def model_fig15a_rows() -> List[dict]:
    """Recovery cost across the keep ladder: the Fig 15(a) trend."""
    spec = gpt_350m_16e()
    rows = []
    for keep in KEEP_LADDER:
        fraction = pec_local_hit_fraction(spec.num_experts, MODEL_K_PERSIST, keep)
        cost = two_tier_recovery_cost(
            spec, A800_CLUSTER, fraction,
            k_persist=MODEL_K_PERSIST, remote_fault_rate=FAULT_RATE,
        )
        rows.append(dict(
            local_keep_stamps=keep,
            local_hit_fraction=fraction,
            two_level_seconds=cost.recovery_seconds,
            remote_only_seconds=cost.remote_only_seconds,
            speedup=cost.speedup_vs_remote_only,
        ))
    return rows


def compute_results(tmpdir: str, quick: bool = False) -> dict:
    shape = QUICK if quick else FULL
    stream = build_stream(**shape)
    configs = {
        "write-through": run_config(
            os.path.join(tmpdir, "wt"), stream, upload_workers=0
        ),
        "write-back w2": run_config(
            os.path.join(tmpdir, "wb2"), stream, upload_workers=2
        ),
        "write-back keep1": run_config(
            os.path.join(tmpdir, "keep1"), build_pec_stream(**shape),
            upload_workers=2, local_keep_stamps=1,
        ),
    }
    results: dict = {
        "scenario": dict(
            shape, remote_latency=REMOTE_LATENCY, fault_rate=FAULT_RATE
        ),
        "configs": configs,
        "fig15a_model": dict(
            k_persist=MODEL_K_PERSIST,
            keep_ladder=list(KEEP_LADDER),
            rows=model_fig15a_rows(),
        ),
    }
    raw = (
        configs["write-through"]["accept_seconds"]
        / configs["write-back w2"]["accept_seconds"]
        if configs["write-back w2"]["accept_seconds"] > 0 else 0.0
    )
    results["raw_acceptance_speedup"] = raw
    results["headline_speedup"] = min(raw, HEADLINE_CAP)
    results["batch_restore_speedup"] = configs["write-back keep1"]["batch_restore_speedup"]
    return results


# ---------------------------------------------------------------------------
# Reporting + gates
# ---------------------------------------------------------------------------

def render_report(results: dict) -> str:
    shape = results["scenario"]
    lines = [
        f"checkpoint stream: {shape['entries']} entries x {shape['stamps']} "
        f"stamps, remote latency {1e3 * shape['remote_latency']:.0f} ms/op, "
        f"fault rate {shape['fault_rate']:.2f}",
    ]
    rows = [
        (
            name,
            run["accept_ms_per_put"],
            1e3 * run["drain_seconds"],
            run["uploads_completed"],
            run["upload_retries"],
            run["pending_uploads"],
            run["promotions"],
        )
        for name, run in results["configs"].items()
    ]
    lines.append(render_table(
        ["config", "accept ms/put", "drain ms", "uploads", "retries",
         "pending", "promotions"],
        rows, precision=2,
    ))
    keep1 = results["configs"]["write-back keep1"]
    lines.append(
        f"demoted restore ({keep1['restore_keys']} keys, median of "
        f"{RESTORE_REPEATS}): per-key get "
        f"{1e3 * keep1['restore_per_key_seconds']:.1f} ms, get_many "
        f"{1e3 * keep1['restore_batched_seconds']:.1f} ms -> "
        f"{results['batch_restore_speedup']:.2f}x"
    )
    lines.append(
        f"headline: write-back acceptance speedup vs write-through = "
        f"{results['headline_speedup']:.2f}x (raw "
        f"{results['raw_acceptance_speedup']:.2f}x, capped at "
        f"{HEADLINE_CAP:.0f}x for gate stability)"
    )
    model_rows = [
        (
            f"keep={row['local_keep_stamps']}",
            row["local_hit_fraction"],
            row["two_level_seconds"],
            row["remote_only_seconds"],
            row["speedup"],
        )
        for row in results["fig15a_model"]["rows"]
    ]
    lines.append("fig15(a) model: two-level vs storage-only recovery "
                 f"(K_persist={results['fig15a_model']['k_persist']})")
    lines.append(render_table(
        ["local retention", "local hit", "two-level s", "remote-only s",
         "speedup"],
        model_rows, precision=3,
    ))
    return "\n".join(lines)


def check_results(results: dict) -> None:
    """The acceptance properties, asserted off the measured counters."""
    configs = results["configs"]
    for name, run in configs.items():
        # The faulty remote was exercised and beaten: faults fired,
        # nothing stayed pending, nothing failed, the store is clean.
        assert run["remote_faults"] > 0, name
        assert run["uploads_failed"] == 0, name
        assert run["pending_uploads"] == 0, name
        assert run["fsck_ok"], name
    # Retry-with-backoff is observable where the op count makes faults
    # certain (the keep1 config's smaller PEC stream may dodge them).
    assert configs["write-through"]["upload_retries"] > 0
    # Write-back acceptance never pays the remote round trip: even a
    # conservative floor (the full-size result holds ~4x with margin)
    # separates it cleanly from write-through.
    assert results["headline_speedup"] >= 1.5, results["headline_speedup"]
    # The retention config actually demoted and read through remote.
    keep1 = configs["write-back keep1"]
    assert keep1["demotions"] > 0
    assert keep1["remote_reads"] > 0
    assert keep1["promotions"] > 0
    # Overlapped fetches beat the per-key loop outright (measured wall).
    assert results["batch_restore_speedup"] > 1.0, results["batch_restore_speedup"]
    # Fig 15(a) trend: two-level <= storage-only everywhere, monotone
    # improvement with local coverage, flat baseline.
    rows = results["fig15a_model"]["rows"]
    two_level = [row["two_level_seconds"] for row in rows]
    remote_only = [row["remote_only_seconds"] for row in rows]
    for two, only in zip(two_level, remote_only):
        assert two <= only + 1e-9
    assert all(b <= a + 1e-9 for a, b in zip(two_level, two_level[1:]))
    assert two_level[-1] < two_level[0]
    assert max(remote_only) - min(remote_only) < 1e-9


def test_tiered_backend_bench(benchmark, report, report_json):
    import tempfile

    from repro.testing import once

    def compute():
        with tempfile.TemporaryDirectory(dir=scratch_dir()) as tmpdir:
            return compute_results(tmpdir, quick=True)

    results = once(benchmark, compute)
    # _quick names: a smoke run must never clobber the committed
    # full-size baseline next to it.
    report("tiered_backend_quick", render_report(results))
    report_json("tiered_backend_quick", results)
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
                        help="write benchmarks/results/tiered_backend.txt and "
                             "BENCH_tiered_backend.json (suffixed _quick under "
                             "--quick) and refresh the repo-root mirror")
    parser.add_argument("--check-baseline", metavar="PATH", default=None,
                        help="fail (exit 1) when the acceptance or batched-"
                             "restore speedup regresses >30%% vs the committed "
                             "baseline JSON "
                             "(ratio-based, so the gate is machine-"
                             "independent)")
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
        with open(os.path.join(results_dir, f"tiered_backend{suffix}.txt"), "w") as handle:
            handle.write(text + "\n")
        json_path = os.path.join(results_dir, f"BENCH_tiered_backend{suffix}.json")
        with open(json_path, "w") as handle:
            handle.write(json.dumps(results, indent=2, sort_keys=True) + "\n")
        mirror_bench_json(json_path)
    check_results(results)
    if baseline is not None:
        failed = False
        for key, name in (("headline_speedup", "acceptance speedup"),
                          ("batch_restore_speedup", "batched-restore speedup")):
            floor = 0.7 * baseline[key]
            current = results[key]
            print(f"perf gate: {name} {current:.2f}x vs baseline "
                  f"{baseline[key]:.2f}x (floor {floor:.2f}x)")
            if current < floor:
                print(f"perf gate FAILED: tiered {name} regressed >30%",
                      file=sys.stderr)
                failed = True
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
