"""Span recording, self-time attribution and summary statistics.

The benchmark records its own spans around calls into each layer's
public functions (see ``harness.instrument``): wrappers are installed as
*instance attributes* after construction, so the program itself is not
edited and an uninstrumented object pays nothing.

Parenting is per thread: a span's parent is the innermost open span of
the thread that opened it.  Work the I/O scheduler runs on its own
threads (async persist writes, uploads, hedged reads) therefore forms
separate root spans and is never subtracted from the foreground span
that was running at the time — the foreground span's self time includes
any time it spent *waiting* for that work, which is what blocked the
training loop.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles considered for a tail figure, highest last.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: ROADMAP item 1's attribution band: per-layer self times along the
#: blocking path must sum to within this share of the measured wall.
CONSERVATION_BAND = 0.05


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _rank(n: int, pct: float) -> int:
    # The epsilon keeps float error (99.9 * 10000 / 100 > 9990) from
    # pushing an exact rank up by one.
    return max(1, math.ceil(pct * n / 100.0 - 1e-9))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    return float(sorted(values)[_rank(len(values), pct) - 1])


def samples_beyond(n: int, pct: float) -> int:
    """Samples strictly above the nearest-rank ``pct`` of ``n`` samples."""
    return n - _rank(n, pct)


def tail_percentile(n: int, min_beyond: int = 10) -> float:
    """The highest percentile of :data:`TAIL_LADDER` that leaves at
    least ``min_beyond`` samples beyond it (p50 when none does)."""
    best = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if samples_beyond(n, pct) >= min_beyond:
            best = pct
    return best


@dataclass
class Span:
    """One timed call.  ``parent`` indexes the recorder's span list."""

    name: str
    thread: int
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    index: int = 0
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans in memory; parents are tracked per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(
            name=name,
            thread=threading.get_ident(),
            start=time.perf_counter(),
            parent=stack[-1] if stack else None,
        )
        with self._lock:
            span.index = len(self.spans)
            self.spans.append(span)
        stack.append(span.index)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == span.index:
            stack.pop()

    def wrap(self, obj, method: str, name: str,
             on_call: Optional[Callable[[Span, tuple, dict], None]] = None,
             on_result: Optional[Callable[[Span, object], None]] = None) -> None:
        """Replace ``obj.method`` with a span-recording delegate.

        ``on_call`` sees the arguments once the span has begun;
        ``on_result`` sees the return value after it has ended.
        """
        original = getattr(obj, method)

        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                if on_call is not None:
                    on_call(span, args, kwargs)
                result = original(*args, **kwargs)
            finally:
                self.end(span)
            if on_result is not None:
                on_result(span, result)
            return result

        setattr(obj, method, traced)


def children_of(spans: Sequence[Span]) -> Dict[int, List[Span]]:
    kids: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            kids.setdefault(span.parent, []).append(span)
    return kids


def _covered(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span index -> duration minus the part its children cover.

    Only same-thread children count: a child recorded on another thread
    (which the recorder never produces, but a merged trace could) is
    ignored rather than subtracted.
    """
    kids = children_of(spans)
    out: Dict[int, float] = {}
    for span in spans:
        own = [
            (max(child.start, span.start), min(child.end, span.end))
            for child in kids.get(span.index, ())
            if child.thread == span.thread and child.end > span.start
        ]
        out[span.index] = span.duration - _covered(own)
    return out


def subtree(spans: Sequence[Span], root: Span) -> List[Span]:
    """``root`` and its same-thread descendants."""
    kids = children_of(spans)
    out: List[Span] = []
    todo = [root]
    while todo:
        span = todo.pop()
        out.append(span)
        todo.extend(c for c in kids.get(span.index, ()) if c.thread == root.thread)
    return out


def layer_of(name: str) -> str:
    """Span names are ``<layer>.<call>``; the layer is the prefix."""
    return name.split(".", 1)[0]


def attribute(spans: Sequence[Span], root: Span,
              selfs: Optional[Dict[int, float]] = None) -> Dict[str, float]:
    """Per-layer self seconds along ``root``'s blocking path."""
    selfs = self_times(spans) if selfs is None else selfs
    layers: Dict[str, float] = {}
    for span in subtree(spans, root):
        key = layer_of(span.name)
        layers[key] = layers.get(key, 0.0) + selfs[span.index]
    return layers


def conservation(layer_seconds: Dict[str, float], wall_seconds: float) -> float:
    """Relative gap between the attributed layer sum and the wall."""
    if wall_seconds <= 0:
        raise ValueError("wall time must be positive")
    return abs(sum(layer_seconds.values()) - wall_seconds) / wall_seconds

