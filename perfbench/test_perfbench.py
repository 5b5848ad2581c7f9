"""Tests of the benchmark's own machinery.

    python -m pytest -q perfbench/test_perfbench.py

The smoke test runs every workload briefly in a subprocess (about a
minute on 2 cores); the rest are unit tests of the percentile rule and
of span attribution.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

import pytest

import measure
from measure import SpanRecorder

HERE = os.path.dirname(os.path.abspath(__file__))


@pytest.mark.parametrize(
    "n, expected",
    [(5, 50.0), (19, 50.0), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
     (100, 90.0), (200, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    pct = measure.tail_percentile(n)
    assert pct == expected
    if pct > measure.TAIL_LADDER[0]:
        assert measure.samples_beyond(n, pct) >= 10
    higher = [p for p in measure.TAIL_LADDER if p > pct]
    if higher:
        assert measure.samples_beyond(n, higher[0]) < 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 41))  # 1..40
    assert measure.percentile(values, 75.0) == 30
    assert measure.samples_beyond(len(values), 75.0) == 10
    assert measure.percentile(values, 50.0) == 20
    assert measure.median(values) == 20.5


def _sleep_span(recorder, name, seconds):
    span = recorder.begin(name)
    time.sleep(seconds)
    recorder.end(span)
    return span


def test_self_time_subtracts_same_thread_children_only():
    recorder = SpanRecorder()
    background = {}

    def worker():
        background["span"] = _sleep_span(recorder, "store.put_many_serialized", 0.05)

    root = recorder.begin("manager.checkpoint")
    child = _sleep_span(recorder, "persist.put_many_serialized", 0.02)
    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=5)
    assert not thread.is_alive()
    recorder.end(root)

    bg = background["span"]
    assert child.parent == root.index
    assert bg.parent is None and bg.thread != root.thread
    # The background write ran entirely inside the checkpoint span...
    assert root.start < bg.start and bg.end < root.end
    selfs = measure.self_times(recorder.spans)
    # ...yet only the same-thread child is subtracted from the root.
    assert selfs[root.index] == pytest.approx(root.duration - child.duration, abs=1e-9)
    assert selfs[root.index] >= bg.duration  # the wait stays on the blocking path
    assert selfs[bg.index] == pytest.approx(bg.duration)


def test_self_time_ignores_cross_thread_parent_links():
    spans = [
        measure.Span("manager.checkpoint", thread=1, start=0.0, end=10.0, index=0),
        measure.Span("store.put_many_serialized", thread=2, start=2.0, end=8.0,
                     parent=0, index=1),
        measure.Span("snapshot.put_many", thread=1, start=1.0, end=3.0,
                     parent=0, index=2),
    ]
    selfs = measure.self_times(spans)
    assert selfs[0] == pytest.approx(8.0)
    assert measure.attribute(spans, spans[0], selfs) == {
        "manager": pytest.approx(8.0), "snapshot": pytest.approx(2.0)}


def test_conservation_of_nested_attribution():
    recorder = SpanRecorder()
    root = recorder.begin("manager.recover")
    fetch = recorder.begin("persist.get")
    _sleep_span(recorder, "store.get", 0.01)
    recorder.end(fetch)
    _sleep_span(recorder, "restore.apply", 0.01)
    recorder.end(root)

    layers = measure.attribute(recorder.spans, root)
    assert set(layers) == {"manager", "persist", "store", "restore"}
    assert all(seconds >= 0 for seconds in layers.values())
    assert sum(layers.values()) == pytest.approx(root.duration)
    band = measure.CONSERVATION_BAND
    assert measure.conservation(layers, root.duration) == pytest.approx(0.0, abs=1e-9)
    assert measure.conservation(layers, root.duration * 1.04) <= band
    assert measure.conservation(layers, root.duration * 1.10) > band
    assert measure.conservation(layers, root.duration * 0.90) > band
    with pytest.raises(ValueError):
        measure.conservation(layers, 0.0)


def test_wrap_records_calls_and_results():
    class Store:
        def get(self, key):
            return {"x": key}

    store = Store()
    recorder = SpanRecorder()
    seen = []
    recorder.wrap(store, "get", "persist.get",
                  on_call=lambda span, args, kwargs: seen.append(args),
                  on_result=lambda span, result: span.attrs.__setitem__("n", len(result)))
    assert store.get("k") == {"x": "k"}
    (span,) = recorder.spans
    assert span.name == "persist.get" and span.attrs["n"] == 1 and seen == [("k",)]
    assert Store().get("j") == {"x": "j"}  # only the instance is wrapped
    assert len(recorder.spans) == 1


def test_smoke_every_workload_with_all_checks():
    """Each workload briefly — one untraced and one traced round — with
    every correctness check and the conservation check on."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=600,
        cwd=os.path.dirname(HERE),
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    verdicts = [json.loads(line) for line in proc.stdout.splitlines()
                if line.startswith('{"workload"')]
    assert {v["workload"] for v in verdicts} == {
        "pec-async-sharded", "delta-dedup-zlib", "tiered-restore"}
    assert all(v["correct"] for v in verdicts)
