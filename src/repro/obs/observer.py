"""The per-run observability context threaded through the dataplane.

An :class:`Observer` exists only when a run asked for it
(``ExecutionOptions(observe="metrics")`` or ``"trace"``); the off level
is represented by *no observer at all*, so an unobserved run pays one
``is None`` test per executed batch (in the step kernel,
:mod:`repro.storm.kernel`) and nothing else.  The coordinator-side
Observer records into its cluster's
:class:`~repro.obs.registry.MetricsRegistry` (the one the topology's own
counters are registered in) and owns the
:class:`~repro.obs.tracing.TraceBuffer`; shared-nothing workers carry a
:class:`WorkerObs` accumulator instead (plain lists, fork/pickle-safe)
whose payload rides back with each wave/execute reply and is merged here
in worker-id order.

Instruments recorded per executed batch (queued by the recording call
and folded in when the registry is read, or every
:data:`PENDING_RECORDS` batches):

- ``operator_batch_seconds{component,task}`` -- execute-wall-time
  histogram (the profile's p50/p95/p99 source),
- ``routed_rows_total{component,task}`` -- rows delivered per task,
- ``queue_depth{queue}`` -- high-water work-queue depth,
- ``partition_skew{component}`` -- derived max/avg task imbalance
  (the paper's skew degree), computed at export time by a collector.
"""

from __future__ import annotations

import itertools
import threading
from collections import defaultdict, deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.options import OBSERVE_LEVELS
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry, Sample
from repro.obs.tracing import (
    SPAN_FIELDS,
    SpanContext,
    TraceBuffer,
    fan_in_spans,
    make_span,
    span_record,
)


#: executed batches an :class:`Observer` queues before it folds them into
#: their instruments unasked
PENDING_RECORDS = 4096


class Observer:
    """Coordinator-side observability for one run (level metrics|trace).

    Instrument caches are plain dicts: a racing double-create resolves
    through the registry's own dedup (both threads get the same
    instrument), so the recording path never takes an extra lock."""

    def __init__(self, level: str,
                 registry: Optional[MetricsRegistry] = None,
                 traces: Optional[TraceBuffer] = None):
        if level not in OBSERVE_LEVELS[1:]:
            raise ValueError(
                f"observer level must be one of {OBSERVE_LEVELS[1:]}, "
                f"got {level!r} (level 'off' means: no Observer)")
        self.level = level
        self.trace = level == "trace"
        self.registry = registry if registry is not None else MetricsRegistry()
        self.traces = traces if traces is not None else TraceBuffer()
        # span ids: "c.N" for coordinator-recorded spans (itertools.count
        # is atomic under the GIL, so thread workers share it safely)
        self._span_seq = itertools.count(1)
        #: held while a fan-in's deferred span ids are issued
        self._issue_lock = threading.Lock()
        # per-(component, task) root-batch sequence: the deterministic
        # trace-id formula "<source>.<task>.<seq>" shared with WorkerObs
        self._root_seq: Dict[Tuple[str, int], "itertools.count"] = \
            defaultdict(lambda: itertools.count(1))
        #: (component, task) -> its batch-latency histogram and routed-row
        #: counter
        self._instruments: Dict[Tuple[str, int],
                                Tuple[Histogram, Counter]] = {}
        #: executed batches not yet folded into their instruments:
        #: ``(component, task, rows, seconds)``, oldest first
        self._pending: Deque[Tuple[str, int, int, float]] = deque()
        self._depths: Dict[str, Gauge] = {}
        #: component -> (grouping description, skew possible), installed
        #: by the cluster from the topology's edge groupings
        self._groupings: Dict[str, Tuple[str, bool]] = {}
        self.registry.register_collector(self._skew_samples)
        self.registry.register_flush(self.flush)

    def set_groupings(self, groupings: Dict[str, Tuple[str, bool]]) -> None:
        """Install the per-component grouping info the skew gauge labels
        its samples with (and skips balanced-by-design edges by)."""
        self._groupings.update(groupings)

    # -- instruments -------------------------------------------------------

    def _instruments_of(self, component: str, task: int
                        ) -> Tuple[Histogram, Counter]:
        instruments = self._instruments[(component, task)] = (
            self.registry.histogram("operator_batch_seconds",
                                    component=component, task=str(task)),
            self.registry.counter("routed_rows_total", component=component,
                                  task=str(task)))
        return instruments

    def record(self, component: str, task: int, rows: int,
               seconds: float) -> None:
        """One batch of ``rows`` executed at (component, task).

        ``record`` / ``span`` / ``root`` are the three calls the step
        kernel (:mod:`repro.storm.kernel`) makes, answered under the
        same names by :class:`WorkerObs`.  It only queues the batch: an
        executed batch costs a tuple, and the instruments are brought up
        to date (:meth:`flush`) when the registry is read."""
        self._pending.append((component, task, rows, seconds))
        if len(self._pending) >= PENDING_RECORDS:
            self.flush()

    def flush(self) -> None:
        """Fold the queued batches into their instruments, oldest first
        (every recording thread's, each exactly once)."""
        pop = self._pending.popleft
        while self._pending:
            try:
                component, task, rows, seconds = pop()
            except IndexError:  # another thread took the last one
                return
            instruments = self._instruments.get((component, task))
            if instruments is None:
                instruments = self._instruments_of(component, task)
            instruments[0].observe(seconds)
            instruments[1].inc(rows)

    #: the coordinator-side spelling (direct recording, payload merge)
    on_execute = record

    def on_queue_depth(self, queue_name: str, depth: int) -> None:
        gauge = self._depths.get(queue_name)
        if gauge is None:
            gauge = self.registry.gauge("queue_depth", queue=queue_name)
            self._depths[queue_name] = gauge
        gauge.set_max(depth)

    def _skew_samples(self) -> List[Sample]:
        """Per-component imbalance of the routed-row counters: the
        paper's skew degree, max task load over mean task load.

        Only key-partitioned components report (a shuffle or broadcast
        edge is balanced by construction -- see
        :meth:`~repro.storm.groupings.Grouping.skew_possible`); each
        sample is labelled with the grouping that produced the split."""
        loads: Dict[str, List[float]] = defaultdict(list)
        for (component, _task), (_hist, counter) in sorted(
                self._instruments.items()):
            loads[component].append(counter.read())
        out: List[Sample] = []
        for component, values in sorted(loads.items()):
            description, possible = self._groupings.get(
                component, ("unknown", True))
            if not possible:
                continue
            total = sum(values)
            if total <= 0:
                continue
            skew = max(values) / (total / len(values))
            out.append(("partition_skew",
                        {"component": component, "grouping": description},
                        skew, "gauge"))
        return out

    # -- spans -------------------------------------------------------------

    def next_trace_id(self, component: str, task: int) -> str:
        return f"{component}.{task}.{next(self._root_seq[(component, task)])}"

    def _next_span_id(self) -> str:
        return f"c.{next(self._span_seq)}"

    def _span_ids(self, count: int) -> Tuple[str, ...]:
        return tuple([f"c.{number}"
                      for number in itertools.islice(self._span_seq, count)])

    def root(self, component: str, task: int, rows: int,
             seconds: float) -> Optional[SpanContext]:
        """Record the source hop of a new trace (metrics level: no-op)."""
        if not self.trace:
            return None
        trace_id = self.next_trace_id(component, task)
        span_id = self._next_span_id()
        self.traces.add_record(span_record(
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
            block, child = fan_in_spans(parent, self._span_ids,
                                        component, task, rows, seconds,
                                        self._issue_lock)
            self.traces.add_block(block)
            return child
        span_id = self._next_span_id()
        self.traces.add_record(span_record(
            parent.trace_id, span_id, parent.span_id, component, task, rows,
            seconds))
        return SpanContext(parent.trace_id, span_id)

    # -- worker payload merge ----------------------------------------------

    def merge_worker_obs(self, payload: Optional[dict]) -> None:
        """Fold one worker reply's observability payload in.

        Callers iterate replies in worker-id order, so the merged
        instrument totals are deterministic for a fixed assignment."""
        if not payload:
            return
        for component, task, rows, seconds in payload["timings"]:
            self.on_execute(component, task, rows, seconds)
        spans = payload.get("spans")
        if spans:
            self.traces.extend(spans)


class WorkerObs:
    """A shared-nothing worker's observability accumulator.

    No locks (each worker is single-threaded) and only plain lists and
    strings, so it forks and pickles cleanly with the worker state.  The
    drained payload -- ``{"timings": [(component, task, rows, seconds)],
    "spans": [span dicts]}`` -- rides the worker's replies; span
    ids carry the ``w<worker-id>`` prefix so reassembled traces never
    collide with coordinator-issued ids.
    """

    def __init__(self, worker_id: int, level: str):
        if level not in OBSERVE_LEVELS[1:]:
            raise ValueError(f"unexpected worker observe level {level!r}")
        self.level = level
        self.trace = level == "trace"
        self.prefix = f"w{worker_id}"
        self._span_seq = 0
        self._root_seq: Dict[Tuple[str, int], int] = {}
        self.timings: List[Tuple[str, int, int, float]] = []
        self.spans: List[dict] = []

    def _next_span_id(self) -> str:
        self._span_seq += 1
        return f"{self.prefix}.{self._span_seq}"

    def _span_ids(self, count: int) -> Tuple[str, ...]:
        first, self._span_seq = self._span_seq, self._span_seq + count
        prefix = self.prefix
        return tuple([f"{prefix}.{number}"
                      for number in range(first + 1, first + count + 1)])

    def record(self, component: str, task: int, rows: int,
               seconds: float) -> None:
        self.timings.append((component, task, rows, seconds))

    def root(self, component: str, task: int, rows: int,
             seconds: float) -> Optional[SpanContext]:
        if not self.trace:
            return None
        seq = self._root_seq.get((component, task), 0) + 1
        self._root_seq[(component, task)] = seq
        trace_id = f"{component}.{task}.{seq}"
        span_id = self._next_span_id()
        self.spans.append(make_span(trace_id, span_id, None, component, task,
                                    rows, seconds))
        return SpanContext(trace_id, span_id)

    def span(self, parent: Optional[SpanContext], component: str, task: int,
             rows: int, seconds: float) -> Optional[SpanContext]:
        if parent is None or not self.trace:
            return None
        if not isinstance(parent, SpanContext):
            block, child = fan_in_spans(parent, self._span_ids,
                                        component, task, rows, seconds)
            self.spans.extend(dict(zip(SPAN_FIELDS, record))
                              for record in block.records())
            return child
        span_id = self._next_span_id()
        self.spans.append(make_span(parent.trace_id, span_id, parent.span_id,
                                    component, task, rows, seconds))
        return SpanContext(parent.trace_id, span_id)

    def drain(self) -> Optional[dict]:
        """The payload for one reply; resets the accumulators."""
        if not self.timings and not self.spans:
            return None
        payload = {"timings": self.timings, "spans": self.spans}
        self.timings = []
        self.spans = []
        return payload
