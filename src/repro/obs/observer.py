"""The per-run observability context threaded through the dataplane.

An :class:`Observer` exists only when a run asked for it
(``ExecutionOptions(observe="metrics")`` or ``"trace"``); the off level
is represented by *no observer at all*, so an unobserved run pays one
``is None`` test per executed batch (in the step kernel,
:mod:`repro.storm.kernel`) and nothing else.  It records only what the
always-on :class:`~repro.storm.metrics.TopologyMetrics` counters cannot
-- rows per task and the ``partition_skew`` gauge are theirs, exported
at every level:

- ``operator_batch_seconds{component,task}`` -- execute-wall-time
  histogram (the profile's p50/p95/p99 source), queued per executed
  batch and folded in when the registry is read, or every
  :data:`PENDING_RECORDS` batches,
- ``queue_depth{queue}`` -- high-water work-queue depth,
- at the trace level, one span per operator hop
  (:mod:`repro.obs.tracing`).

The coordinator's observer records into its cluster's
:class:`~repro.obs.registry.MetricsRegistry` (the one the topology's own
counters are registered in) and owns the
:class:`~repro.obs.tracing.TraceBuffer`.  A shared-nothing worker runs an
observer of its own (``worker=<id>``, span ids ``w<id>.N``): no
registry, no buffer, no lock -- only ints, dicts and lists, so it forks
and pickles with the worker state.  Its :meth:`~Observer.drain` hands
each reply the timings and trace entries it queued, and the coordinator
takes them in with :meth:`~Observer.merge_worker_obs`, in worker-id
order.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import nullcontext
from typing import Deque, Dict, Optional, Tuple

from repro.core.options import OBSERVE_LEVELS
from repro.obs.registry import Gauge, Histogram, MetricsRegistry
from repro.obs.tracing import SpanContext, TraceBuffer, fan_in_spans, span_record


#: executed batches an :class:`Observer` queues before it folds them into
#: their instruments unasked
PENDING_RECORDS = 4096


class Observer:
    """Observability for one run (level metrics|trace): the coordinator's,
    or with ``worker`` a shared-nothing worker's.

    Instrument caches are plain dicts: a racing double-create resolves
    through the registry's own dedup (both threads get the same
    instrument), so the recording path never takes an extra lock."""

    def __init__(self, level: str,
                 registry: Optional[MetricsRegistry] = None,
                 traces: Optional[TraceBuffer] = None,
                 worker: Optional[int] = None):
        if level not in OBSERVE_LEVELS[1:]:
            raise ValueError(
                f"observer level must be one of {OBSERVE_LEVELS[1:]}, "
                f"got {level!r} (level 'off' means: no Observer)")
        self.level = level
        self.trace = level == "trace"
        #: executed batches not yet folded into their instruments (or
        #: shipped home): ``(component, task, seconds)``, oldest first
        self._pending: Deque[Tuple[str, int, float]] = deque()
        #: span ids issued so far, and root batches per source task: the
        #: deterministic trace id of a root is "<source>.<task>.<seq>"
        self._issued = 0
        self._roots: Dict[Tuple[str, int], int] = {}
        if worker is not None:
            # single-threaded: the trace entries wait in a list for
            # drain(), and issuing span ids needs no lock
            self.prefix = f"w{worker}"
            self.registry = None
            self.traces = []
            self._issue_lock = nullcontext()
            return
        self.prefix = "c"
        self.registry = registry if registry is not None else MetricsRegistry()
        self.traces = traces if traces is not None else TraceBuffer()
        #: held while span ids are issued: a fan-in's deferred ids are
        #: issued by whichever thread reads them first
        self._issue_lock = threading.Lock()
        self._histograms: Dict[Tuple[str, int], Histogram] = {}
        self._depths: Dict[str, Gauge] = {}
        self.registry.register_flush(self.flush)

    # -- instruments -------------------------------------------------------

    def record(self, component: str, task: int, seconds: float) -> None:
        """One batch executed at (component, task) in ``seconds``.

        ``record`` / ``span`` / ``root`` are the three calls the step
        kernel (:mod:`repro.storm.kernel`) makes.  It only queues the
        batch: an executed batch costs a tuple, and the instruments are
        brought up to date (:meth:`flush`) when the registry is read."""
        self._pending.append((component, task, seconds))
        if len(self._pending) >= PENDING_RECORDS and self.registry is not None:
            self.flush()

    def flush(self) -> None:
        """Fold the queued batches into their instruments, oldest first
        (every recording thread's, each exactly once)."""
        pop = self._pending.popleft
        histograms = self._histograms
        while self._pending:
            try:
                component, task, seconds = pop()
            except IndexError:  # another thread took the last one
                return
            histogram = histograms.get((component, task))
            if histogram is None:
                histogram = histograms[(component, task)] = \
                    self.registry.histogram(
                        "operator_batch_seconds", component=component,
                        task=str(task))
            histogram.observe(seconds)

    def on_queue_depth(self, queue_name: str, depth: int) -> None:
        gauge = self._depths.get(queue_name)
        if gauge is None:
            gauge = self.registry.gauge("queue_depth", queue=queue_name)
            self._depths[queue_name] = gauge
        gauge.set_max(depth)

    # -- spans -------------------------------------------------------------

    def _span_ids(self, count: int) -> Tuple[str, ...]:
        """``count`` fresh span ids; the caller holds the issue lock."""
        first = self._issued
        self._issued = first + count
        prefix = self.prefix
        return tuple([f"{prefix}.{number}"
                      for number in range(first + 1, first + count + 1)])

    def root(self, component: str, task: int, rows: int,
             seconds: float) -> Optional[SpanContext]:
        """Record the source hop of a new trace (metrics level: no-op)."""
        if not self.trace:
            return None
        key = (component, task)
        with self._issue_lock:
            seq = self._roots[key] = self._roots.get(key, 0) + 1
            (span_id,) = self._span_ids(1)
        trace_id = f"{component}.{task}.{seq}"
        self.traces.append(span_record(
            trace_id, span_id, None, component, task, rows, seconds))
        return SpanContext(trace_id, span_id)

    def span(self, parent: Optional[SpanContext], component: str, task: int,
             rows: int, seconds: float) -> Optional[SpanContext]:
        """Record one operator hop under ``parent``; None parent (an
        untraced punctuation/flush emission) stays untraced.  A coalesced
        batch (``parent`` a :class:`~repro.obs.tracing.FanIn`) records
        one span per hop merged into it."""
        if parent is None or not self.trace:
            return None
        if not isinstance(parent, SpanContext):
            block, child = fan_in_spans(parent, self._span_ids, component,
                                        task, rows, seconds, self._issue_lock)
            self.traces.append(block)
            return child
        with self._issue_lock:
            (span_id,) = self._span_ids(1)
        self.traces.append(span_record(
            parent.trace_id, span_id, parent.span_id, component, task, rows,
            seconds))
        return SpanContext(parent.trace_id, span_id)

    # -- worker replies ----------------------------------------------------

    def drain(self) -> Optional[tuple]:
        """A worker's observations since its last reply, handed over
        once: ``(timings, trace entries)``, or None if it has none."""
        if not self._pending and not self.traces:
            return None
        payload = (list(self._pending), self.traces)
        self._pending.clear()
        self.traces = []
        return payload

    def merge_worker_obs(self, payload: Optional[tuple]) -> None:
        """Take in one worker reply's :meth:`drain` payload.

        Callers iterate replies in worker-id order, so the merged
        instrument totals are deterministic for a fixed assignment."""
        if not payload:
            return
        timings, entries = payload
        for component, task, seconds in timings:
            self.record(component, task, seconds)
        if entries:
            self.traces.extend(entries)
