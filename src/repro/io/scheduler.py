"""One prioritized async I/O scheduler with QoS classes and a byte budget.

The storage stack historically ran five independent thread pools with
five private backpressure schemes: the async writer's drain thread, the
restorer's per-call ``ThreadPoolExecutor``, the tiered backend's upload
threads and lazily-built hedged-read pool, and dedup GC/compaction on
whatever thread called them.  A restore storm could starve foreground
saves, background GC could steal persist bandwidth, and nothing in the
process accounted *total* queued bytes.

:class:`IOScheduler` replaces all of them with one process-wide worker
pool and a single admission point:

* **QoS classes** (:class:`QoS`): ``RESTORE > SAVE > UPLOAD >
  MAINTENANCE``, dispatched strict-priority — a queued restore always
  beats a queued upload for the next free worker.
* **Anti-starvation aging floor**: a queued task older than
  ``aging_floor_seconds`` is promoted ahead of every class (oldest
  first), so a restore storm cannot park maintenance work forever.
  Aged dispatch also bypasses the class rate limit — the floor is a
  liveness guarantee, not a suggestion.
* **Per-class token buckets** (``rate_limits``): optional
  ``{QoS: (rate_per_s, burst)}`` dispatch throttles, so e.g.
  maintenance can be capped without starving it (the aging floor still
  applies).
* **One shared byte budget**: ``submit(nbytes=...)`` blocks while the
  budget is full — admission is byte-granular, not task-count-granular,
  and it is the only place an async save waits for memory.  A payload
  larger than the whole budget admits alone (the oversize liveness
  rule), and submissions *from scheduler worker threads overdraft*
  instead of blocking — a running task that fans out subtasks can never
  deadlock the pool on its own admission.
* **Lanes**: a named :class:`IOLane` bounds concurrency for one
  submitter.  ``max_concurrency=1`` gives strict submission-order
  execution (the async writer's prefix-ordering contract);
  ``max_concurrency=N`` bounds a submitter's parallelism (tiered
  uploads, restore fan-out) inside the shared pool.
* **Cooperative cancellation**: ``task.cancel()`` removes a queued task
  outright (running ``on_abandon`` cleanup) and flags a running one;
  task bodies poll :meth:`IOScheduler.current_cancelled`.  Hedged reads
  use this to cancel the losing racer.
* **Worker helping**: ``task.result()`` called *from a worker thread*
  executes other queued tasks while it waits, so nested waits (a
  restore task whose hedged read submits two more tasks) cannot
  deadlock a bounded pool.
* **Fan-out** (:class:`FanOut`): ``[fn(item) for item in items]``
  shared between the calling thread and up to a lane's width of helper
  tasks — the one fan-out primitive (dedup chunk codec, tiered batch
  reads), optionally duplicating stragglers past a hedge threshold.
* **Observability**: per-class depth/bytes/latency series on the
  process metrics registry (``moc_io_*``), ``io-task`` spans on the
  tracer, and an ``iosched-budget-wait`` span around every blocked
  admission.
* **Crash seams**: tasks submitted with a ``fault`` callable fire
  ``iosched:dispatch`` (worker thread, just before the body),
  ``iosched:cancel`` (canceller thread), and ``iosched:budget-exhausted``
  (submitter thread, first time admission actually blocks) — the chaos
  campaign arms these like any other seam.  A task body's exception is
  re-raised *by identity* from ``result()``, so ``CrashInjected``
  classification survives the thread hop.
"""

from __future__ import annotations

import enum
import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..obs.metrics import MetricsRegistry, get_registry
from ..obs.trace import span as _span

__all__ = [
    "DEFAULT_IO_BYTE_BUDGET",
    "DEFAULT_IO_WORKERS",
    "FanOut",
    "IOLane",
    "IOScheduler",
    "IOTask",
    "IOTaskCancelled",
    "IOTaskTimeout",
    "QoS",
    "configure_scheduler",
    "get_scheduler",
]

#: Default worker count: enough to overlap a restore fan-out with a
#: save drain and an upload retry without oversubscribing a laptop.
DEFAULT_IO_WORKERS = 4

#: Default shared byte budget for queued-task payloads (256 MiB): roomy
#: for several checkpoints of every model this repo runs, finite for a
#: runaway producer.
DEFAULT_IO_BYTE_BUDGET = 256 * 1024 * 1024


class QoS(enum.IntEnum):
    """Dispatch classes, best first.  Lower value = higher priority."""

    RESTORE = 0
    SAVE = 1
    UPLOAD = 2
    MAINTENANCE = 3

    @property
    def label(self) -> str:
        return self.name.lower()


class IOTaskCancelled(RuntimeError):
    """Raised by ``result()`` when the task was cancelled before running."""


class IOTaskTimeout(TimeoutError):
    """Raised by ``result(timeout=...)`` when the deadline passes."""


# Task lifecycle states.
_PENDING = "pending"
_RUNNING = "running"
_DONE = "done"
_FAILED = "failed"
_CANCELLED = "cancelled"


class IOLane:
    """A named concurrency bound inside the shared pool.

    ``max_concurrency=1`` makes the lane a serial drain: tasks run in
    exact submission order, one at a time — the ordering contract the
    async write pipeline's prefix property rests on.
    """

    __slots__ = ("name", "max_concurrency", "running")

    def __init__(self, name: str, max_concurrency: int) -> None:
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        self.name = name
        self.max_concurrency = max_concurrency
        self.running = 0


class IOTask:
    """Handle for one submitted unit of I/O work."""

    __slots__ = (
        "qos",
        "nbytes",
        "label",
        "lane",
        "_fn",
        "_fault",
        "_on_abandon",
        "_scheduler",
        "_state",
        "_result",
        "_error",
        "_cancel_requested",
        "_enqueued",
        "_started",
    )

    def __init__(self, scheduler, fn, qos, nbytes, label, lane, fault, on_abandon):
        self._scheduler = scheduler
        self._fn = fn
        self.qos = qos
        self.nbytes = nbytes
        self.label = label
        self.lane = lane
        self._fault = fault
        self._on_abandon = on_abandon
        self._state = _PENDING
        self._result = None
        self._error: Optional[BaseException] = None
        self._cancel_requested = False
        self._enqueued = 0.0
        self._started = 0.0

    @property
    def done(self) -> bool:
        return self._state in (_DONE, _FAILED, _CANCELLED)

    @property
    def cancelled(self) -> bool:
        """True once cancellation was requested (cooperative poll point)."""
        return self._cancel_requested or self._state == _CANCELLED

    def cancel(self) -> bool:
        """Cancel: True if the task was still queued and is now dead;
        False if it is already running (flagged for cooperative exit)
        or finished."""
        return self._scheduler._cancel(self)

    def result(self, timeout: Optional[float] = None):
        """Wait for completion; return the body's value or re-raise its
        exception (the original object).  From a scheduler worker
        thread this *helps* — runs other queued tasks while waiting."""
        return self._scheduler._await(self, timeout)


class _TokenBucket:
    """Per-class dispatch throttle.  All calls under the scheduler lock."""

    __slots__ = ("rate", "burst", "tokens", "last")

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0 or burst < 1:
            raise ValueError("rate must be > 0 and burst >= 1")
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.last = time.monotonic()

    def _refill(self, now: float) -> None:
        self.tokens = min(self.burst, self.tokens + (now - self.last) * self.rate)
        self.last = now

    def take(self, now: float) -> bool:
        self._refill(now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False

    def refill_hint(self, now: float) -> float:
        """Seconds until one token is available."""
        self._refill(now)
        return max(0.0, (1.0 - self.tokens) / self.rate)


class IOScheduler:
    """The process-wide prioritized I/O worker pool.  See module doc."""

    def __init__(
        self,
        workers: int = DEFAULT_IO_WORKERS,
        byte_budget: Optional[int] = DEFAULT_IO_BYTE_BUDGET,
        rate_limits: Optional[Dict[QoS, Tuple[float, float]]] = None,
        aging_floor_seconds: float = 1.0,
        registry: Optional[MetricsRegistry] = None,
        name: str = "io",
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if byte_budget is not None and byte_budget < 1:
            raise ValueError("byte_budget must be >= 1 (or None for unlimited)")
        if aging_floor_seconds <= 0:
            raise ValueError("aging_floor_seconds must be > 0")
        self.workers = workers
        self.byte_budget = byte_budget
        self.aging_floor_seconds = aging_floor_seconds
        self.name = name
        self._cond = threading.Condition()
        self._queues: Dict[QoS, Deque[IOTask]] = {qos: deque() for qos in QoS}
        self._lanes: Dict[str, IOLane] = {}
        self._buckets: Dict[QoS, _TokenBucket] = {}
        for qos, (rate, burst) in (rate_limits or {}).items():
            self._buckets[QoS(qos)] = _TokenBucket(rate, burst)
        self._outstanding_bytes = 0
        self._closed = False
        self._worker_idents: set = set()
        self._current = threading.local()

        reg = registry if registry is not None else get_registry()
        self.registry = reg
        f_submitted = reg.counter(
            "moc_io_tasks_total", "I/O tasks submitted to the scheduler",
            labelnames=("qos",),
        )
        f_completed = reg.counter(
            "moc_io_completed_total", "I/O tasks that ran to completion",
            labelnames=("qos",),
        )
        f_failed = reg.counter(
            "moc_io_failed_total", "I/O tasks whose body raised",
            labelnames=("qos",),
        )
        f_cancelled = reg.counter(
            "moc_io_cancelled_total", "I/O tasks cancelled while queued",
            labelnames=("qos",),
        )
        f_aged = reg.counter(
            "moc_io_aged_dispatch_total",
            "Dispatches promoted past the aging floor",
            labelnames=("qos",),
        )
        f_depth = reg.gauge(
            "moc_io_queue_depth", "Queued I/O tasks per class", labelnames=("qos",)
        )
        f_depth_hw = reg.gauge(
            "moc_io_queue_depth_highwater",
            "Max observed queued I/O tasks per class",
            labelnames=("qos",),
        )
        f_bytes = reg.gauge(
            "moc_io_queued_bytes", "Admitted-but-unfinished payload bytes per class",
            labelnames=("qos",),
        )
        f_wait = reg.histogram(
            "moc_io_wait_seconds", "Queue wait (submit -> dispatch) per class",
            labelnames=("qos",),
        )
        f_run = reg.histogram(
            "moc_io_run_seconds", "Task body runtime per class",
            labelnames=("qos",),
        )
        label_of = {qos: qos.label for qos in QoS}
        self._m_submitted = {q: f_submitted.labels(qos=label_of[q]) for q in QoS}
        self._m_completed = {q: f_completed.labels(qos=label_of[q]) for q in QoS}
        self._m_failed = {q: f_failed.labels(qos=label_of[q]) for q in QoS}
        self._m_cancelled = {q: f_cancelled.labels(qos=label_of[q]) for q in QoS}
        self._m_aged = {q: f_aged.labels(qos=label_of[q]) for q in QoS}
        self._m_depth = {q: f_depth.labels(qos=label_of[q]) for q in QoS}
        self._m_depth_hw = {q: f_depth_hw.labels(qos=label_of[q]) for q in QoS}
        self._m_bytes = {q: f_bytes.labels(qos=label_of[q]) for q in QoS}
        self._m_wait = {q: f_wait.labels(qos=label_of[q]) for q in QoS}
        self._m_run = {q: f_run.labels(qos=label_of[q]) for q in QoS}
        self._m_budget_stalls = reg.counter(
            "moc_io_budget_stalls_total",
            "Submissions that blocked on the shared byte budget",
        )
        self._m_budget_stall_seconds = reg.counter(
            "moc_io_budget_stall_seconds_total",
            "Seconds submitters spent blocked on the byte budget",
        )

        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"{name}-sched-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- lanes -----------------------------------------------------------
    def lane(self, name: str, max_concurrency: int) -> IOLane:
        """Get-or-create a named lane (updates the bound if it changed)."""
        with self._cond:
            lane = self._lanes.get(name)
            if lane is None:
                lane = IOLane(name, max_concurrency)
                self._lanes[name] = lane
            elif lane.max_concurrency != max_concurrency:
                lane.max_concurrency = max_concurrency
                self._cond.notify_all()
            return lane

    def release_lane(self, name: str) -> None:
        """Forget a lane registration (owner closed).  Tasks already
        holding the lane object keep their accounting; only future
        ``lane()`` lookups mint a fresh one."""
        with self._cond:
            self._lanes.pop(name, None)

    # -- submission ------------------------------------------------------
    def submit(
        self,
        fn: Callable[[], object],
        qos: QoS,
        nbytes: int = 0,
        label: str = "",
        lane: Optional[IOLane] = None,
        fault: Optional[Callable[[str], None]] = None,
        on_abandon: Optional[Callable[[Optional[BaseException]], None]] = None,
    ) -> IOTask:
        """Admit one task.  Blocks while the shared byte budget is full
        (oversize payloads admit alone; worker threads overdraft).

        ``fault`` is the owner's crash seam (``self._fault``); it fires
        ``iosched:budget-exhausted`` here the first time admission
        blocks, and ``iosched:dispatch`` on the worker before the body.
        ``on_abandon(error)`` runs iff the body will never execute —
        called with ``None`` for a queued cancel/shutdown and with the
        exception for a dispatch-seam crash — owners release staged
        buffers and record the failure there.
        """
        qos = QoS(qos)
        nbytes = max(0, int(nbytes))
        task = IOTask(self, fn, qos, nbytes, label, lane, fault, on_abandon)
        depth = self._admit(task, block=False)
        if depth is None:
            # Blocked on the budget: count the stall and fire the seam
            # on the submitter thread (a crash here is "process died
            # waiting on admission").
            blocked_at = time.monotonic()
            self._m_budget_stalls.inc()
            with _span("iosched-budget-wait", qos=qos.label, nbytes=nbytes):
                if fault is not None:
                    fault("iosched:budget-exhausted")
                depth = self._admit(task, block=True)
            self._m_budget_stall_seconds.inc(time.monotonic() - blocked_at)
        self._m_submitted[qos].inc()
        self._m_depth[qos].set(depth)
        self._m_depth_hw[qos].set_max(depth)
        self._m_bytes[qos].inc(nbytes)
        return task

    def _admit(self, task: IOTask, block: bool) -> Optional[int]:
        """Queue ``task`` once the byte budget has room for it; return
        its class's new queue depth, or ``None`` if it would have to
        wait and ``block`` is false."""
        is_worker = threading.get_ident() in self._worker_idents
        with self._cond:
            while True:
                if self._closed:
                    raise RuntimeError("IOScheduler is closed")
                if (
                    is_worker
                    or self.byte_budget is None
                    or task.nbytes == 0
                    or self._outstanding_bytes + task.nbytes <= self.byte_budget
                    or self._outstanding_bytes == 0  # oversize liveness rule
                ):
                    task._enqueued = time.monotonic()
                    queue = self._queues[task.qos]
                    queue.append(task)
                    self._outstanding_bytes += task.nbytes
                    self._cond.notify_all()
                    return len(queue)
                if not block:
                    return None
                self._cond.wait(0.1)

    # -- dispatch --------------------------------------------------------
    def _lane_free(self, task: IOTask) -> bool:
        lane = task.lane
        return lane is None or lane.running < lane.max_concurrency

    def _take_locked(self, now: float) -> Tuple[Optional[IOTask], Optional[float]]:
        """Pick, pop, and mark RUNNING the next dispatchable task.

        Returns ``(task, wait_hint_seconds)``; the caller must execute
        the task outside the lock.  When no task is dispatchable, the
        hint bounds how long a worker should sleep before the next
        time-driven opportunity (token refill or an aging promotion) —
        event-driven opportunities (task finished, lane freed) arrive
        via ``notify_all``.
        """
        hint: Optional[float] = None

        def merge(value: Optional[float]) -> None:
            nonlocal hint
            if value is None:
                return
            value = max(value, 0.0005)  # floor: never a zero-spin wait
            if hint is None or value < hint:
                hint = value

        # Aging pass: the oldest over-floor task of any class wins,
        # bypassing both strict priority and its class token bucket.
        aged: Optional[Tuple[QoS, int, IOTask]] = None
        for qos in QoS:
            for index, task in enumerate(self._queues[qos]):
                if not self._lane_free(task):
                    continue
                if now - task._enqueued >= self.aging_floor_seconds:
                    if aged is None or task._enqueued < aged[2]._enqueued:
                        aged = (qos, index, task)
                break  # deque is FIFO: the first lane-free task is the oldest
        if aged is not None:
            qos, index, task = aged
            self._m_aged[qos].inc()
            return self._dispatch_locked(qos, index, task, now), hint

        # Strict-priority pass.  Lane-blocked tasks need no time hint
        # (a lane frees via notify_all); rate-gated tasks hint both the
        # token refill and their own aging deadline, whichever lets the
        # class move first.
        for qos in QoS:
            bucket = self._buckets.get(qos)
            for index, task in enumerate(self._queues[qos]):
                if not self._lane_free(task):
                    continue
                if bucket is not None and not bucket.take(now):
                    merge(bucket.refill_hint(now))
                    merge(self.aging_floor_seconds - (now - task._enqueued))
                    break
                return self._dispatch_locked(qos, index, task, now), hint
        return None, hint

    def _dispatch_locked(self, qos: QoS, index: int, task: IOTask, now: float) -> IOTask:
        del self._queues[qos][index]
        task._state = _RUNNING
        task._started = now
        if task.lane is not None:
            task.lane.running += 1
        self._m_depth[qos].set(len(self._queues[qos]))
        self._m_wait[qos].observe(now - task._enqueued)
        return task

    def _worker_loop(self) -> None:
        with self._cond:
            self._worker_idents.add(threading.get_ident())
        while True:
            with self._cond:
                if self._closed:
                    return
                task, hint = self._take_locked(time.monotonic())
                if task is None:
                    self._cond.wait(hint)
                    continue
            self._execute(task)

    def _execute(self, task: IOTask) -> None:
        """Run one dispatched task on the current thread."""
        previous = getattr(self._current, "task", None)
        self._current.task = task
        error: Optional[BaseException] = None
        result = None
        ran_body = False
        try:
            if task._fault is not None:
                try:
                    task._fault("iosched:dispatch")
                except BaseException as exc:  # noqa: BLE001 - seam crash
                    error = exc
            if error is None:
                ran_body = True
                try:
                    with _span("io-task", qos=task.qos.label, label=task.label):
                        result = task._fn()
                except BaseException as exc:  # noqa: BLE001 - deliver via result()
                    error = exc
        finally:
            self._current.task = previous
        if not ran_body and task._on_abandon is not None:
            # The dispatch seam crashed before the body: the owner's
            # cleanup (buffer release, bookkeeping) must still run, or
            # a chaos-injected crash here would leak staged state.
            try:
                task._on_abandon(error)
            except Exception:  # noqa: BLE001 - cleanup is best-effort
                pass
        self._finish(task, result, error)

    def _finish(self, task: IOTask, result, error: Optional[BaseException]) -> None:
        now = time.monotonic()
        with self._cond:
            task._result = result
            task._error = error
            task._state = _FAILED if error is not None else _DONE
            if task.lane is not None:
                task.lane.running -= 1
            self._outstanding_bytes -= task.nbytes
            self._cond.notify_all()
        qos = task.qos
        self._m_bytes[qos].dec(task.nbytes)
        self._m_run[qos].observe(now - task._started)
        (self._m_failed if error is not None else self._m_completed)[qos].inc()

    # -- waiting / helping ----------------------------------------------
    def _await(self, task: IOTask, timeout: Optional[float] = None):
        deadline = None if timeout is None else time.monotonic() + timeout
        helper = threading.get_ident() in self._worker_idents
        while True:
            run_next: Optional[IOTask] = None
            with self._cond:
                if task.done:
                    break
                now = time.monotonic()
                remaining = None if deadline is None else deadline - now
                if remaining is not None and remaining <= 0:
                    raise IOTaskTimeout(
                        f"I/O task {task.label or task.qos.label!r} "
                        f"timed out after {timeout}s"
                    )
                if helper:
                    run_next, hint = self._take_locked(now)
                if run_next is None:
                    wait = remaining
                    if helper and hint is not None:
                        wait = hint if wait is None else min(wait, hint)
                    self._cond.wait(wait)
            if run_next is not None:
                self._execute(run_next)
        if task._state == _CANCELLED:
            raise IOTaskCancelled(task.label or task.qos.label)
        if task._state == _FAILED:
            raise task._error
        return task._result

    def wait_any(
        self, tasks: Sequence[IOTask], timeout: Optional[float] = None
    ) -> List[IOTask]:
        """Block until at least one task is terminal (or the timeout
        passes — then ``[]``).  Helper-aware like ``result()``."""
        deadline = None if timeout is None else time.monotonic() + timeout
        helper = threading.get_ident() in self._worker_idents
        while True:
            run_next: Optional[IOTask] = None
            with self._cond:
                done = [task for task in tasks if task.done]
                if done:
                    return done
                now = time.monotonic()
                remaining = None if deadline is None else deadline - now
                if remaining is not None and remaining <= 0:
                    return []
                if helper:
                    run_next, hint = self._take_locked(now)
                if run_next is None:
                    wait = remaining
                    if helper and hint is not None:
                        wait = hint if wait is None else min(wait, hint)
                    self._cond.wait(wait)
            if run_next is not None:
                self._execute(run_next)

    def is_worker_thread(self) -> bool:
        """True when the calling thread is one of this scheduler's
        workers (owners use this to skip blocking admission paths that
        could deadlock the pool against itself)."""
        return threading.get_ident() in self._worker_idents

    def help_once(self) -> bool:
        """Run one queued task inline if the calling thread is a worker
        and something is dispatchable; True if a task ran.  Owners with
        their own wait loops (e.g. the tiered upload drain) call this
        so waiting on a worker thread makes progress instead of
        parking a pool slot."""
        if not self.is_worker_thread():
            return False
        with self._cond:
            task, _hint = self._take_locked(time.monotonic())
        if task is None:
            return False
        self._execute(task)
        return True

    def current_task(self) -> Optional[IOTask]:
        """The task running on this thread, if it is a scheduler worker
        (or helper) mid-execution."""
        return getattr(self._current, "task", None)

    def current_cancelled(self) -> bool:
        """Cooperative cancellation poll for task bodies."""
        task = self.current_task()
        return task is not None and task.cancelled

    # -- cancellation ----------------------------------------------------
    def _cancel(self, task: IOTask) -> bool:
        removed = False
        with self._cond:
            if task._state == _PENDING:
                try:
                    self._queues[task.qos].remove(task)
                except ValueError:  # pragma: no cover - lost race with dispatch
                    pass
                else:
                    task._state = _CANCELLED
                    self._outstanding_bytes -= task.nbytes
                    removed = True
                    self._m_depth[task.qos].set(len(self._queues[task.qos]))
                    self._cond.notify_all()
            if task._state == _RUNNING:
                task._cancel_requested = True
        if removed:
            self._m_bytes[task.qos].dec(task.nbytes)
            self._m_cancelled[task.qos].inc()
        if task._fault is not None and (removed or task._state == _RUNNING):
            task._fault("iosched:cancel")
        if removed and task._on_abandon is not None:
            try:
                task._on_abandon(None)
            except Exception:  # noqa: BLE001 - cleanup is best-effort
                pass
        return removed

    # -- introspection / lifecycle --------------------------------------
    def stats(self) -> Dict[str, Dict[str, float]]:
        """Per-class counters for ``demo --profile`` and tests."""
        out: Dict[str, Dict[str, float]] = {}
        for qos in QoS:
            wait = self._m_wait[qos]
            run = self._m_run[qos]
            out[qos.label] = {
                "submitted": self._m_submitted[qos].value,
                "completed": self._m_completed[qos].value,
                "failed": self._m_failed[qos].value,
                "cancelled": self._m_cancelled[qos].value,
                "aged": self._m_aged[qos].value,
                "depth": self._m_depth[qos].value,
                "depth_highwater": self._m_depth_hw[qos].value,
                "queued_bytes": self._m_bytes[qos].value,
                "wait_seconds_sum": wait.sum,
                "wait_count": float(wait.count),
                "run_seconds_sum": run.sum,
                "run_count": float(run.count),
            }
        return out

    @property
    def outstanding_bytes(self) -> int:
        with self._cond:
            return self._outstanding_bytes

    def queue_depth(self, qos: Optional[QoS] = None) -> int:
        with self._cond:
            if qos is not None:
                return len(self._queues[qos])
            return sum(len(queue) for queue in self._queues.values())

    def shutdown(self, wait: bool = True) -> None:
        """Stop the pool: cancel everything queued, stop the workers.

        Private/test instances call this; the process-wide default
        lives for the process (its workers are daemons).
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            abandoned: List[IOTask] = []
            for qos in QoS:
                queue = self._queues[qos]
                while queue:
                    task = queue.popleft()
                    task._state = _CANCELLED
                    self._outstanding_bytes -= task.nbytes
                    abandoned.append(task)
                self._m_depth[qos].set(0)
            self._cond.notify_all()
        for task in abandoned:
            self._m_bytes[task.qos].dec(task.nbytes)
            self._m_cancelled[task.qos].inc()
            if task._on_abandon is not None:
                try:
                    task._on_abandon(None)
                except Exception:  # noqa: BLE001 - cleanup is best-effort
                    pass
        if wait:
            for thread in self._threads:
                if thread is not threading.current_thread():
                    thread.join(timeout=10.0)

    def __enter__(self) -> "IOScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


class FanOut:
    """``[fn(item) for item in items]``, shared between the calling
    thread and helper tasks on the I/O scheduler.

    Every participant claims the next unclaimed item until none are
    left, so the caller never waits for a helper that has not started:
    it works through whatever the helpers have not claimed, then waits
    only for items a *running* helper holds (helpers still queued are
    cancelled).  A fan-out started on a scheduler worker — an async
    drain, a parallel restore fetch — therefore cannot deadlock the
    pool, however busy it is.  The first exception any item raises is
    re-raised to the caller once the claimed items have settled.

    ``hedge_after`` (seconds) duplicates stragglers, for an idempotent
    ``fn`` such as a remote read: a participant with nothing left to
    claim stays for the batch tail and calls ``fn`` a second time on
    any item still unsettled ``hedge_after`` after it was claimed (at
    most one duplicate per item, oldest first).  The first success
    settles the item and a slower call's result is dropped; an item
    fails only once every call on it has failed.  ``hedges`` counts
    the duplicates.
    """

    def __init__(
        self, fn: Callable, items: Sequence, hedge_after: Optional[float] = None
    ) -> None:
        self.fn = fn
        self.items = items
        self.hedge_after = hedge_after
        self.results: List[object] = [None] * len(items)
        self.error: Optional[BaseException] = None
        self.hedges = 0
        self._claimed = 0
        self._settled = 0
        # Hedge bookkeeping (untouched without ``hedge_after``, so the
        # codec fan-out's per-chunk cost stays a claim and a settle):
        #: claimed, unsettled item -> claim time, in claim order;
        self._open: Dict[int, float] = {}
        #: item -> calls on it still running.
        self._calls: Dict[int, int] = {}
        self._hedged: set = set()
        self._cond = threading.Condition()

    def _next_locked(self) -> Tuple[Optional[int], Optional[float]]:
        """The next item to call ``fn`` on; when there is none yet, the
        seconds until a straggler falls due (``None``: nothing to do)."""
        if self.error is not None:
            return None, None
        if self._claimed < len(self.items):
            index = self._claimed
            self._claimed += 1
            if self.hedge_after is not None:
                self._open[index] = time.monotonic()
                self._calls[index] = 1
            return index, None
        if self.hedge_after is None:
            return None, None
        now = time.monotonic()
        due: Optional[float] = None
        for index, claimed_at in self._open.items():
            if index in self._hedged:
                continue
            wait = claimed_at + self.hedge_after - now
            if wait <= 0:
                self._hedged.add(index)
                self._calls[index] += 1
                self.hedges += 1
                return index, None
            due = wait if due is None else min(due, wait)
        return None, due

    def work(self) -> None:
        while True:
            with self._cond:
                index, due = self._next_locked()
                while index is None:
                    if due is None:
                        return
                    self._cond.wait(due)
                    index, due = self._next_locked()
            try:
                value = self.fn(self.items[index])
            except BaseException as exc:  # noqa: BLE001 - re-raised by run()
                self._settle(index, None, exc)
            else:
                self._settle(index, value, None)

    def _settle(self, index: int, value, error: Optional[BaseException]) -> None:
        with self._cond:
            if self.hedge_after is not None:
                self._calls[index] -= 1
                if index not in self._open:
                    return  # a faster call already settled this item
                if error is not None and self._calls[index]:
                    return  # the duplicate may still succeed
                del self._open[index]
            if error is None:
                self.results[index] = value
            elif self.error is None:
                self.error = error
            self._settled += 1
            self._cond.notify_all()

    def run(
        self, lane: IOLane, qos: QoS, scheduler: Optional[IOScheduler] = None
    ) -> List[object]:
        """Fan out on ``lane`` (helpers: its width, at most one fewer
        than the items) and return the results in item order."""
        if scheduler is None:
            scheduler = get_scheduler()
        helpers = [
            scheduler.submit(self.work, qos, label=lane.name, lane=lane)
            for _ in range(min(lane.max_concurrency, len(self.items) - 1))
        ]
        self.work()
        for task in helpers:
            task.cancel()  # no-op unless still queued
        with self._cond:
            while self._settled < self._claimed:
                self._cond.wait()
        if self.error is not None:
            raise self.error
        return self.results


# -- process-wide default -----------------------------------------------

_default_lock = threading.Lock()
_default_scheduler: Optional[IOScheduler] = None


def get_scheduler() -> IOScheduler:
    """The process-wide scheduler (created on first use)."""
    global _default_scheduler
    with _default_lock:
        if _default_scheduler is None or _default_scheduler._closed:
            _default_scheduler = IOScheduler()
        return _default_scheduler


def configure_scheduler(
    workers: int = DEFAULT_IO_WORKERS,
    byte_budget: Optional[int] = DEFAULT_IO_BYTE_BUDGET,
    rate_limits: Optional[Dict[QoS, Tuple[float, float]]] = None,
    aging_floor_seconds: float = 1.0,
) -> IOScheduler:
    """Replace the process-wide scheduler (CLI startup calls this).

    The previous default is shut down without waiting — its daemon
    workers finish their current task and exit; anything still queued
    is cancelled.
    """
    global _default_scheduler
    with _default_lock:
        previous, _default_scheduler = _default_scheduler, None
    if previous is not None:
        previous.shutdown(wait=False)
    scheduler = IOScheduler(
        workers=workers,
        byte_budget=byte_budget,
        rate_limits=rate_limits,
        aging_floor_seconds=aging_floor_seconds,
    )
    with _default_lock:
        _default_scheduler = scheduler
    return scheduler
