"""Scheduler-semantics suite for the shared prioritized I/O scheduler.

Pins the contracts the rewired owners (async writer, restorer, tiered
uploads/hedges, dedup gc) lean on: strict-priority dispatch with an
anti-starvation aging floor, byte-budget admission that cannot invert
priorities, cooperative cancellation of queued and running tasks, exact
registry accounting under concurrent submission — plus the two pool
regressions this PR closes (per-call restore executors, the tiered
read-pool leak on close).
"""

import threading
import time

import numpy as np
import pytest

from repro.ckpt import DedupBackend, open_tiered_root
from repro.ckpt.restore import ParallelRestorer, ReadRequest
from repro.io.scheduler import (
    IOScheduler,
    IOTaskCancelled,
    QoS,
    get_scheduler,
)
from repro.obs.metrics import MetricsRegistry


def entry(value: float, size: int = 16) -> dict:
    return {"w": np.full(size, value, dtype=np.float32)}


def make_scheduler(**kwargs) -> IOScheduler:
    kwargs.setdefault("registry", MetricsRegistry())
    return IOScheduler(**kwargs)


# ----------------------------------------------------------------------
# Priority and aging
# ----------------------------------------------------------------------


class TestPriorityAndAging:
    def test_restore_preempts_maintenance_flood(self):
        """A saturating MAINTENANCE backlog never delays a RESTORE
        beyond the task at the head of the worker: the restore must
        dispatch while most of the flood is still queued."""
        with make_scheduler(workers=1) as sched:
            gate = threading.Event()
            order = []
            sched.submit(lambda: gate.wait(5.0), QoS.MAINTENANCE)
            flood = [
                sched.submit(lambda: order.append("m"), QoS.MAINTENANCE)
                for _ in range(50)
            ]
            restore = sched.submit(
                lambda: (order.append("r"), "restored")[1], QoS.RESTORE
            )
            gate.set()
            assert restore.result(timeout=5.0) == "restored"
            for task in flood:
                task.result(timeout=5.0)
            # Strict priority: the single worker ran the restore before
            # any of the 50 queued maintenance tasks.
            assert order[0] == "r"

    def test_aging_floor_rescues_maintenance_under_restore_flood(self):
        """The inverse direction: a constant RESTORE stream would
        starve MAINTENANCE forever under pure strict priority; the
        aging floor guarantees dispatch within the bound."""
        with make_scheduler(workers=1, aging_floor_seconds=0.05) as sched:
            gate = threading.Event()
            sched.submit(lambda: gate.wait(5.0), QoS.RESTORE)
            aged = sched.submit(lambda: "done", QoS.MAINTENANCE)
            flood = []

            def restock() -> None:
                # Keep RESTORE work queued so strict priority alone
                # would always have something better to run.
                flood.append(sched.submit(lambda: time.sleep(0.002), QoS.RESTORE))

            for _ in range(30):
                restock()
            gate.set()
            assert aged.result(timeout=5.0) == "done"
            assert sched.stats()["maintenance"]["aged"] >= 1

    def test_priority_order_among_queued_classes(self):
        """With one held worker and one task queued per class, release
        order is exactly the QoS order."""
        with make_scheduler(workers=1) as sched:
            gate = threading.Event()
            order = []
            sched.submit(lambda: gate.wait(5.0), QoS.SAVE)
            tasks = [
                sched.submit(
                    lambda q=qos: order.append(q), q
                )
                for qos in (QoS.MAINTENANCE, QoS.UPLOAD, QoS.SAVE, QoS.RESTORE)
                for q in (qos,)
            ]
            gate.set()
            for task in tasks:
                task.result(timeout=5.0)
            assert order == [QoS.RESTORE, QoS.SAVE, QoS.UPLOAD, QoS.MAINTENANCE]

    def test_rate_limit_defers_class_without_blocking_others(self):
        """A rate-limited class queues behind its bucket while an
        unlimited class flows freely."""
        with make_scheduler(
            workers=2, rate_limits={QoS.MAINTENANCE: (5.0, 1.0)}
        ) as sched:
            slow = [sched.submit(lambda: None, QoS.MAINTENANCE) for _ in range(3)]
            fast = [sched.submit(lambda: None, QoS.SAVE) for _ in range(20)]
            for task in fast:
                task.result(timeout=5.0)
            # The bucket (burst 1, 5/s) cannot have passed all three
            # maintenance tasks in the time 20 trivial saves took.
            assert any(not task.done for task in slow)
            for task in slow:
                task.result(timeout=5.0)


# ----------------------------------------------------------------------
# Byte budget
# ----------------------------------------------------------------------


class TestByteBudget:
    def test_budget_blocks_admission_then_admits(self):
        with make_scheduler(workers=1, byte_budget=100) as sched:
            gate = threading.Event()
            hold = sched.submit(lambda: gate.wait(5.0), QoS.SAVE, nbytes=100)
            admitted = []

            def submit_blocked() -> None:
                task = sched.submit(lambda: "in", QoS.RESTORE, nbytes=50)
                admitted.append(task)

            thread = threading.Thread(target=submit_blocked)
            thread.start()
            time.sleep(0.1)
            # Still blocked at admission: the budget is fully held.
            assert not admitted
            registry_stalls = sched.registry.snapshot()[
                "moc_io_budget_stalls_total"
            ]
            assert registry_stalls == 1
            gate.set()
            thread.join(timeout=5.0)
            assert not thread.is_alive()
            assert admitted[0].result(timeout=5.0) == "in"
            hold.result(timeout=5.0)
            assert sched.outstanding_bytes == 0

    def test_blocked_admission_records_budget_wait_span(self):
        from repro.obs.trace import get_tracer

        tracer = get_tracer()
        tracer.reset()
        tracer.enable()
        try:
            with make_scheduler(workers=1, byte_budget=100) as sched:
                gate = threading.Event()
                hold = sched.submit(lambda: gate.wait(5.0), QoS.SAVE, nbytes=100)
                thread = threading.Thread(
                    target=lambda: sched.submit(lambda: None, QoS.SAVE, nbytes=50)
                )
                thread.start()
                time.sleep(0.1)
                gate.set()
                thread.join(timeout=5.0)
                hold.result(timeout=5.0)
            events = tracer.export()["traceEvents"]
        finally:
            tracer.disable()
            tracer.reset()
        waits = [e for e in events
                 if e["name"] == "iosched-budget-wait" and e["ph"] == "B"]
        assert len(waits) == 1
        assert waits[0]["args"] == {"qos": "save", "nbytes": 50}

    def test_no_priority_inversion_when_budget_frees(self):
        """Both a RESTORE and a MAINTENANCE task fit the budget and
        queue behind a held worker: the RESTORE must run first no
        matter the submission order."""
        with make_scheduler(workers=1, byte_budget=300) as sched:
            gate = threading.Event()
            order = []
            sched.submit(lambda: gate.wait(5.0), QoS.SAVE, nbytes=100)
            low = sched.submit(
                lambda: order.append("maintenance"), QoS.MAINTENANCE, nbytes=60
            )
            high = sched.submit(
                lambda: order.append("restore"), QoS.RESTORE, nbytes=60
            )
            gate.set()
            low.result(timeout=5.0)
            high.result(timeout=5.0)
            assert order == ["restore", "maintenance"]

    def test_oversize_task_admits_alone(self):
        """A payload larger than the whole budget must not deadlock: it
        is admitted when it would be the only outstanding work."""
        with make_scheduler(workers=1, byte_budget=64) as sched:
            big = sched.submit(lambda: "big", QoS.SAVE, nbytes=4096)
            assert big.result(timeout=5.0) == "big"
            assert sched.outstanding_bytes == 0


# ----------------------------------------------------------------------
# Cancellation
# ----------------------------------------------------------------------


class TestCancellation:
    def test_cancel_queued_task(self):
        with make_scheduler(workers=1) as sched:
            gate = threading.Event()
            abandoned = []
            sched.submit(lambda: gate.wait(5.0), QoS.SAVE)
            victim = sched.submit(
                lambda: "never",
                QoS.SAVE,
                on_abandon=lambda error: abandoned.append(error),
            )
            assert victim.cancel() is True
            assert victim.cancelled
            assert abandoned == [None]
            with pytest.raises(IOTaskCancelled):
                victim.result(timeout=1.0)
            gate.set()
            assert sched.stats()["save"]["cancelled"] == 1

    def test_cancel_running_task_is_cooperative(self):
        with make_scheduler(workers=1) as sched:
            started = threading.Event()

            def body() -> str:
                started.set()
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    if sched.current_cancelled():
                        return "bailed"
                    time.sleep(0.002)
                return "ran out"

            task = sched.submit(body, QoS.UPLOAD)
            assert started.wait(5.0)
            # Already running: cancel is a request, not a revocation.
            assert task.cancel() is False
            assert task.result(timeout=5.0) == "bailed"
            # A cooperative bail-out is a completion, not a cancel.
            assert sched.stats()["upload"]["cancelled"] == 0

    def test_shutdown_abandons_queued_tasks(self):
        sched = make_scheduler(workers=1)
        gate = threading.Event()
        abandoned = []
        sched.submit(lambda: gate.wait(2.0), QoS.SAVE)
        queued = sched.submit(
            lambda: "never",
            QoS.SAVE,
            on_abandon=lambda error: abandoned.append(error),
        )
        gate.set()
        sched.shutdown(wait=True)
        assert queued.done
        assert abandoned in ([None], [])
        if abandoned == []:
            # The queued task may have squeaked in before shutdown; then
            # it must have completed normally.
            assert queued.result(timeout=0.0) == "never"


# ----------------------------------------------------------------------
# Concurrency accounting
# ----------------------------------------------------------------------


class TestHammer:
    def test_sixteen_thread_submission_exact_counters(self):
        """Hammer one scheduler from 16 threads and assert the labeled
        registry totals balance exactly — no lost or double-counted
        tasks under contention."""
        registry = MetricsRegistry()
        per_thread = 25
        classes = [QoS.RESTORE, QoS.SAVE, QoS.UPLOAD, QoS.MAINTENANCE]
        with make_scheduler(workers=4, registry=registry) as sched:
            results = []
            lock = threading.Lock()

            def worker(index: int) -> None:
                tasks = []
                for i in range(per_thread):
                    qos = classes[(index + i) % len(classes)]
                    tasks.append(
                        sched.submit(lambda: 1, qos, nbytes=32, label="hammer")
                    )
                total = sum(task.result(timeout=30.0) for task in tasks)
                with lock:
                    results.append(total)

            threads = [
                threading.Thread(target=worker, args=(index,))
                for index in range(16)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()

            assert sorted(results) == [per_thread] * 16
            snap = registry.snapshot()
            submitted = sum(
                snap[f'moc_io_tasks_total{{qos="{qos.label}"}}']
                for qos in classes
            )
            completed = sum(
                snap[f'moc_io_completed_total{{qos="{qos.label}"}}']
                for qos in classes
            )
            assert submitted == 16 * per_thread
            assert completed == 16 * per_thread
            assert sched.queue_depth() == 0
            assert sched.outstanding_bytes == 0
            # Per-class split: 16 threads x 25 tasks round-robin over 4
            # classes = exactly 100 per class.
            for qos in classes:
                assert snap[f'moc_io_tasks_total{{qos="{qos.label}"}}'] == 100


# ----------------------------------------------------------------------
# Former-pool regressions
# ----------------------------------------------------------------------


class TestPoolRegressions:
    def test_restorer_creates_no_threads_per_fetch(self, tmp_path):
        """The historical per-``fetch`` ThreadPoolExecutor churn: after
        the shared scheduler is warm, repeated parallel fetches must not
        create a single new thread."""
        store = DedupBackend(str(tmp_path / "dedup"))
        keys = [f"k{i}" for i in range(12)]
        for key in keys:
            store.put(key, entry(1.0, size=64), stamp=1)
        requests = [ReadRequest(key=key, store=store) for key in keys]
        with make_scheduler(workers=4) as sched:
            restorer = ParallelRestorer(workers=4, scheduler=sched)
            restorer.fetch(requests)  # warm: lane + workers exist
            before = {thread.ident for thread in threading.enumerate()}
            for _ in range(5):
                entries, stats = restorer.fetch(requests)
                assert set(entries) == set(keys)
                assert stats.entries == len(keys)
            after = {thread.ident for thread in threading.enumerate()}
            assert after <= before
        store.close()

    def test_tiered_close_leaves_no_live_nondaemon_threads(self, tmp_path):
        """The read-pool leak regression: closing a tiered store that
        uploaded in the background and served hedged reads must leave
        no live non-daemon thread behind (the shared scheduler's
        workers are daemons and process-wide by design)."""
        before = {
            thread.ident
            for thread in threading.enumerate()
            if not thread.daemon
        }
        tier = open_tiered_root(
            str(tmp_path / "tier"),
            upload_workers=2,
            local_keep_stamps=1,
            hedge_after_seconds=0.0,
        )
        for i in range(4):
            tier.put(f"old{i}", entry(float(i)), stamp=1)
        tier.flush()  # stamp-1 uploads become claimed
        for i in range(4):
            tier.put(f"new{i}", entry(float(i) + 1.0), stamp=2)
        tier.flush()  # retention demotes the stamp-1 locals
        assert "old0" not in tier.local.keys()
        assert tier.get("old0") is not None  # hedged remote read path
        assert tier.hedged_reads >= 1
        tier.close()
        after = {
            thread.ident
            for thread in threading.enumerate()
            if not thread.daemon
        }
        assert after <= before
        assert not any(
            thread.name.startswith(("tier-upload", "tier-read"))
            for thread in threading.enumerate()
        )
