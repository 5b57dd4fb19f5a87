"""The annotation convention must cost nothing at runtime.

``GUARDED_BY`` / ``PIPE_PICKLED`` are plain class attributes read only
by the AST analyzer -- never by the engine.  These tests pin that
contract: no descriptors, no per-instance storage, byte-identical
method code, and no measurable slowdown on a hot attribute-access loop
(so ``benchmarks/BENCH_baseline.json`` stays valid untouched).
"""

import threading
import time

from repro.serving.broker import QueryBroker
from repro.storm.metrics import CounterTable, StreamMetrics
from repro.streaming.deltas import DeltaSink, Subscription


def test_markers_are_plain_class_data():
    for cls in (QueryBroker, StreamMetrics, CounterTable, Subscription,
                DeltaSink):
        marker = cls.__dict__["GUARDED_BY"]
        assert type(marker) is dict
        # a plain dict is not a descriptor: nothing runs on attribute
        # access, unlike e.g. a decorator-based @guarded_by design
        assert not hasattr(type(marker), "__get__") or not callable(
            getattr(type(marker), "__set_name__", None))
    assert type(DeltaSink.__dict__["PIPE_PICKLED"]) is bool


def test_no_per_instance_cost():
    sink = DeltaSink()
    assert "GUARDED_BY" not in sink.__dict__
    assert "PIPE_PICKLED" not in sink.__dict__
    metrics = StreamMetrics()
    assert "GUARDED_BY" not in metrics.__dict__


def test_annotated_method_bytecode_is_unchanged():
    """GUARDED_BY in a class body cannot alter the code of its methods."""

    class Plain:
        def __init__(self):
            self._lock = threading.Lock()
            self.items = []

        def add(self, item):
            with self._lock:
                self.items.append(item)

    class Annotated:
        GUARDED_BY = {"items": "_lock"}

        def __init__(self):
            self._lock = threading.Lock()
            self.items = []

        def add(self, item):
            with self._lock:
                self.items.append(item)

    assert Plain.add.__code__.co_code == Annotated.add.__code__.co_code
    assert Plain.__init__.__code__.co_code == Annotated.__init__.__code__.co_code


def test_hot_path_timing_is_unaffected():
    """Generous bound: the annotated loop must stay within 2x of the
    plain loop (identical bytecode leaves only scheduling noise)."""

    class Plain:
        def __init__(self):
            self.count = 0

        def bump(self):
            self.count += 1

    class Annotated:
        GUARDED_BY = {"count": "_lock"}
        PIPE_PICKLED = False

        def __init__(self):
            self.count = 0

        def bump(self):
            self.count += 1

    def measure(cls, n=50_000, repeats=5):
        best = float("inf")
        instance = cls()
        for _ in range(repeats):
            bump = instance.bump
            start = time.perf_counter()
            for _ in range(n):
                bump()
            best = min(best, time.perf_counter() - start)
        return best

    plain = measure(Plain)
    annotated = measure(Annotated)
    assert annotated < plain * 2.0, (
        f"annotated hot loop {annotated:.6f}s vs plain {plain:.6f}s")
