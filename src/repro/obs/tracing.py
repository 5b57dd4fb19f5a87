"""Batch-level tracing: span contexts, span records, and the buffer.

A :class:`SpanContext` is the two-string tag that rides a micro-batch
through the dataplane — over the inline work stack, through the thread
executors' queues, and across the resident-process pipes (it pickles
to a tiny tuple).  Each operator hop appends one *span record* — a
plain dict, so worker replies can carry them without a custom codec —
to the :class:`TraceBuffer`, whose JSON export makes one source batch
followable spout→join→agg→sink with per-hop timings.  A batch the
dataplane *coalesced* from several hops carries a :class:`FanIn` of
their contexts instead, and its one execution records one span per
contributing hop: tracing never changes which batches run.

Trace ids are deterministic — ``"<source>.<task>.<seq>"`` for the
``seq``-th batch a source task emitted — so the *same* logical batch
gets the same trace id no matter which executor ran the plan.  Span
ids only need to be unique within a trace; each producer (the
coordinator, or worker ``N``) draws from its own prefixed sequence.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import Deque, Dict, List, NamedTuple, Optional, Tuple

#: default bound on retained span records
DEFAULT_TRACE_CAPACITY = 20_000


class SpanContext(NamedTuple):
    """What a batch carries: which trace it belongs to and which span
    produced it (the parent of whatever happens to it next)."""

    trace_id: str
    span_id: str


class FanIn(tuple):
    """What a *coalesced* batch carries: ``((SpanContext, rows), ...)``,
    one entry per traced hop whose output was merged into it, in arrival
    order, with the rows that hop contributed.

    Executing the batch records one span per entry (:func:`fan_in_spans`)
    -- the spans the uncoalesced run would have recorded in as many
    calls -- so merging batches never has to stop at a trace boundary."""


def parts_of(ctx, rows: int) -> tuple:
    """The fan-in entries of ``rows`` rows routed under ``ctx``.

    An untraced hop (None) contributes none; a single parent contributes
    them all.  Downstream of a fan-in no row can be told apart by trace
    any more, so every parent gets an equal share (the first ones the
    remainder); the row counts the fan-in arrived with described the
    batch upstream and are not carried over."""
    if ctx is None:
        return ()
    if isinstance(ctx, SpanContext):
        return ((ctx, rows),)
    share, extra = divmod(rows, len(ctx))
    return tuple((parent, share + 1 if position < extra else share)
                 for position, (parent, _upstream_rows) in enumerate(ctx))


def make_span(trace_id: str, span_id: str, parent_id: Optional[str],
              component: str, task: int, rows: int,
              duration_s: float) -> Dict[str, object]:
    """One hop of one batch, as a JSON-ready record."""
    return {
        "trace": trace_id,
        "span": span_id,
        "parent": parent_id,
        "component": component,
        "task": task,
        "rows": rows,
        "duration_ms": duration_s * 1000.0,
    }


def fan_in_spans(parent: FanIn, next_span_id, component: str, task: int,
                 rows: int, duration_s: float):
    """The span records of one executed batch coalesced from several
    traced hops, and the context its emissions carry.

    One span per entry of ``parent``, each with the rows its hop
    contributed and that row-share of the one measured call, so the
    durations sum to the call (less the share of untraced punctuation
    rows merged into the batch).  Returns ``(spans, child)``."""
    spans = []
    children = []
    for ctx, part_rows in parent:
        span_id = next_span_id()
        spans.append(make_span(
            ctx.trace_id, span_id, ctx.span_id, component, task, part_rows,
            duration_s * part_rows / rows if rows else 0.0))
        children.append((SpanContext(ctx.trace_id, span_id), part_rows))
    return spans, FanIn(children)


class TraceBuffer:
    """Bounded, thread-safe store of span records with JSON export.

    When full, the oldest spans are evicted and counted in
    ``dropped`` — tracing must never make the engine grow without
    bound, and a profile run cares about recent batches anyway.
    """

    GUARDED_BY = {
        "_spans": "_lock",
        "dropped": "_lock",
    }

    def __init__(self, capacity: int = DEFAULT_TRACE_CAPACITY):
        if capacity <= 0:
            raise ValueError("trace capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._spans: Deque[Dict[str, object]] = deque()
        self.dropped = 0

    def _evict_locked(self) -> None:  # squall-lint: holds=_lock
        while len(self._spans) > self.capacity:
            self._spans.popleft()
            self.dropped += 1

    def add(self, span: Dict[str, object]) -> None:
        with self._lock:
            self._spans.append(span)
            self._evict_locked()

    def extend(self, spans) -> None:
        with self._lock:
            self._spans.extend(spans)
            self._evict_locked()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def spans(self) -> List[Dict[str, object]]:
        with self._lock:
            return list(self._spans)

    def trace_ids(self) -> List[str]:
        """Distinct trace ids in first-seen order."""
        seen: Dict[str, None] = {}
        for span in self.spans():
            seen.setdefault(str(span["trace"]), None)
        return list(seen)

    def trace(self, trace_id: str) -> List[Dict[str, object]]:
        return [span for span in self.spans() if span["trace"] == trace_id]

    def edges(self, trace_id: str) -> List[Tuple[Tuple[str, int],
                                                 Tuple[str, int]]]:
        """The trace's shape: sorted (parent, child) ``(component,
        task)`` pairs.  Two executions of the same batch on different
        executors must agree on this even though span ids differ."""
        spans = self.trace(trace_id)
        by_id = {span["span"]: span for span in spans}
        out = []
        for span in spans:
            parent = by_id.get(span["parent"])
            if parent is not None:
                out.append(((str(parent["component"]), int(parent["task"])),
                            (str(span["component"]), int(span["task"]))))
        return sorted(out)

    def tree(self, trace_id: str) -> List[Dict[str, object]]:
        """Nested ``{"span": ..., "children": [...]}`` forest."""
        spans = self.trace(trace_id)
        nodes = {span["span"]: {"span": span, "children": []}
                 for span in spans}
        roots = []
        for span in spans:
            node = nodes[span["span"]]
            parent = nodes.get(span["parent"])
            if parent is None:
                roots.append(node)
            else:
                parent["children"].append(node)
        return roots

    def to_json(self, trace_id: Optional[str] = None, indent: int = 2) -> str:
        """JSON export — every span, or one trace's spans."""
        spans = self.spans() if trace_id is None else self.trace(trace_id)
        with self._lock:
            dropped = self.dropped
        return json.dumps({"spans": spans, "dropped": dropped},
                          indent=indent, sort_keys=True)
