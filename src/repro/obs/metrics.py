"""Process-wide metrics registry with labeled instruments.

One registry replaces the pile of ad-hoc counters that grew across the
stack (``PipelineMeters`` ints, ``TieredBackend`` privates, codec
stats, scheduler queue bookkeeping).  Design points:

- **Lock striping.**  The registry never takes one global lock on the
  hot path: each metric family is assigned one of ``_STRIPE_COUNT``
  stripe locks by name hash, so two unrelated counters incremented
  from different threads almost never contend.  The registry-level
  lock only guards family *creation*, which is rare and idempotent.
- **Snapshot/delta semantics.**  ``snapshot()`` returns a flat
  ``{series_name: value}`` dict (histograms expand into
  ``_count``/``_sum``/``_bucket`` series).  ``delta(before)`` returns
  the change since a previous snapshot for monotonic series (counters,
  histogram accumulators) and the *current* value for gauges — the
  right semantics for "what did this save cost me" questions asked
  while background writers keep the absolute totals moving.
- **Prometheus-style exposition.**  ``render_prometheus()`` emits the
  standard text format (``# HELP``/``# TYPE`` + series lines) so a
  dump can be diffed, scraped, or eyeballed.

Instruments are cheap to hold: get-or-create is idempotent, so module
level ``REGISTRY.counter("name")`` bindings are the normal idiom.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "get_registry",
]

_STRIPE_COUNT = 16

_INF = float("inf")


class MetricError(ValueError):
    """Raised on invalid metric names, label misuse, or kind clashes."""


def _check_name(name: str) -> str:
    if not name or not all(ch.isalnum() or ch in "_:" for ch in name):
        raise MetricError(f"invalid metric name: {name!r}")
    if name[0].isdigit():
        raise MetricError(f"metric name may not start with a digit: {name!r}")
    return name


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _series_key(name: str, labelnames: Sequence[str], labelvalues: Sequence[str]) -> str:
    if not labelnames:
        return name
    inner = ",".join(
        f'{k}="{_escape_label_value(v)}"' for k, v in zip(labelnames, labelvalues)
    )
    return f"{name}{{{inner}}}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class Counter:
    """A monotonically increasing accumulator (float-valued)."""

    kind = "counter"
    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError(f"counter {self.name} cannot decrease (inc {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _series(self) -> Iterable[Tuple[str, float]]:
        yield "", self.value


class Gauge:
    """A value that can go up and down (queue depth, queued bytes)."""

    kind = "gauge"
    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def set_max(self, value: float) -> None:
        """High-water update: keep the max of current and ``value``."""
        with self._lock:
            if value > self._value:
                self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _series(self) -> Iterable[Tuple[str, float]]:
        yield "", self.value


#: Default histogram buckets — tuned for seconds-scale storage latencies
#: (100µs floor for in-memory ops, minutes ceiling for giant flushes).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0, _INF,
)


class Histogram:
    """Cumulative-bucket histogram with ``_count``/``_sum`` accumulators."""

    kind = "histogram"
    __slots__ = ("name", "_lock", "_buckets", "_counts", "_count", "_sum")

    def __init__(
        self,
        name: str,
        lock: threading.Lock,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise MetricError(f"histogram {name} needs at least one bucket")
        if bounds[-1] != _INF:
            bounds.append(_INF)
        self.name = name
        self._lock = lock
        self._buckets = tuple(bounds)
        self._counts = [0] * len(bounds)
        self._count = 0
        self._sum = 0.0

    def observe(self, value: float) -> None:
        with self._lock:
            self._count += 1
            self._sum += value
            for i, bound in enumerate(self._buckets):
                if value <= bound:
                    self._counts[i] += 1
                    break

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def bucket_counts(self) -> Dict[float, int]:
        """Cumulative count per upper bound (Prometheus ``le`` semantics)."""
        with self._lock:
            out: Dict[float, int] = {}
            running = 0
            for bound, n in zip(self._buckets, self._counts):
                running += n
                out[bound] = running
            return out

    def _series(self) -> Iterable[Tuple[str, float]]:
        cumulative = self.bucket_counts()
        for bound, n in cumulative.items():
            yield f'_bucket{{le="{_format_value(bound)}"}}', float(n)
        yield "_count", float(self.count)
        yield "_sum", self.sum


class _Family:
    """One named metric: either a bare instrument or a labeled family."""

    __slots__ = ("name", "help", "kind", "labelnames", "_lock", "_make", "_children")

    def __init__(self, name, help_text, kind, labelnames, lock, make) -> None:
        self.name = name
        self.help = help_text
        self.kind = kind
        self.labelnames = tuple(labelnames)
        self._lock = lock
        self._make = make
        self._children: Dict[Tuple[str, ...], object] = {}

    def labels(self, **labelvalues: str):
        if tuple(sorted(labelvalues)) != tuple(sorted(self.labelnames)):
            raise MetricError(
                f"{self.name} expects labels {self.labelnames}, got {tuple(labelvalues)}"
            )
        key = tuple(str(labelvalues[k]) for k in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make(self.name, self._lock)
                self._children[key] = child
            return child

    def _items(self) -> List[Tuple[Tuple[str, ...], object]]:
        with self._lock:
            return sorted(self._children.items())


class MetricsRegistry:
    """Get-or-create registry for named, optionally labeled instruments."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stripes = tuple(threading.Lock() for _ in range(_STRIPE_COUNT))
        self._families: Dict[str, _Family] = {}

    def _stripe_for(self, name: str) -> threading.Lock:
        # Stable across processes regardless of PYTHONHASHSEED, so a
        # forked worker stripes identically to its parent.
        digest = sum(ord(ch) * 131 ** (i % 4) for i, ch in enumerate(name))
        return self._stripes[digest % _STRIPE_COUNT]

    def _get_or_create(self, name, help_text, kind, labelnames, make):
        _check_name(name)
        labelnames = tuple(labelnames)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(
                    name, help_text, kind, labelnames, self._stripe_for(name), make
                )
                if not labelnames:
                    family._children[()] = make(name, family._lock)
                self._families[name] = family
            else:
                if family.kind != kind:
                    raise MetricError(
                        f"{name} already registered as {family.kind}, not {kind}"
                    )
                if family.labelnames != labelnames:
                    raise MetricError(
                        f"{name} already registered with labels {family.labelnames}"
                    )
        if labelnames:
            return family
        return family._children[()]

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        return self._get_or_create(name, help, "counter", labelnames, Counter)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        return self._get_or_create(name, help, "gauge", labelnames, Gauge)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        def make(metric_name: str, lock: threading.Lock) -> Histogram:
            return Histogram(metric_name, lock, buckets)

        return self._get_or_create(name, help, "histogram", labelnames, make)

    # -- snapshot / delta ------------------------------------------------

    def _walk(self) -> Iterable[Tuple[str, str, float]]:
        """Yield ``(series_key, kind, value)`` for every live series."""
        with self._lock:
            families = sorted(self._families.values(), key=lambda f: f.name)
        for family in families:
            for labelvalues, instrument in family._items():
                base = _series_key(family.name, family.labelnames, labelvalues)
                for suffix, value in instrument._series():
                    yield _merge_suffix(base, suffix), family.kind, value

    def snapshot(self) -> Dict[str, float]:
        """A point-in-time flat view of every series in the registry."""
        return {key: value for key, _, value in self._walk()}

    def kinds(self) -> Dict[str, str]:
        """Series key → instrument kind, for delta semantics."""
        return {key: kind for key, kind, _ in self._walk()}

    def delta(self, before: Mapping[str, float]) -> Dict[str, float]:
        """Change since ``before`` for monotonic series; gauges pass through.

        Series that did not exist at ``before`` time are treated as
        starting from zero, so an instrument created mid-interval still
        deltas correctly.
        """
        out: Dict[str, float] = {}
        for key, kind, value in self._walk():
            if kind == "gauge":
                out[key] = value
            else:
                out[key] = value - float(before.get(key, 0.0))
        return out

    # -- exposition ------------------------------------------------------

    def render_prometheus(self) -> str:
        """Prometheus text-format exposition of the whole registry."""
        lines: List[str] = []
        with self._lock:
            families = sorted(self._families.values(), key=lambda f: f.name)
        for family in families:
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for labelvalues, instrument in family._items():
                base = _series_key(family.name, family.labelnames, labelvalues)
                for suffix, value in instrument._series():
                    key = _merge_suffix(base, suffix)
                    lines.append(f"{key} {_format_value(value)}")
        return "\n".join(lines) + "\n"


def _merge_suffix(base: str, suffix: str) -> str:
    """Fold an instrument suffix into a (possibly labeled) series key.

    ``name`` + ``_count``                   → ``name_count``
    ``name{a="b"}`` + ``_count``            → ``name_count{a="b"}``
    ``name{a="b"}`` + ``_bucket{le="1"}``   → ``name_bucket{a="b",le="1"}``
    """
    if not suffix:
        return base
    if "{" not in base:
        return base + suffix
    name, labels = base.split("{", 1)
    if "{" in suffix:
        part, extra = suffix.split("{", 1)
        return f"{name}{part}{{{labels[:-1]},{extra}"
    return f"{name}{suffix}{{{labels}"


_DEFAULT_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _DEFAULT_REGISTRY
