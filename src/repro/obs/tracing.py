"""Batch-level tracing: span contexts, span records, and the buffer.

A :class:`SpanContext` is the two-string tag that rides a micro-batch
through the dataplane — over the inline work stack, through the thread
executors' queues, and across the resident-process pipes (it pickles
to a tiny tuple).  Each operator hop appends one *span record* — a
tuple of :data:`SPAN_FIELDS`, on a worker's reply as in the buffer — to
the :class:`TraceBuffer`, whose JSON export makes one source batch
followable spout→join→agg→sink with per-hop timings.  A
batch the dataplane *coalesced* from several hops carries a
:class:`FanIn` of their contexts instead, and its one execution records
one span per contributing hop (kept together as one :class:`SpanBlock`):
tracing never changes which batches run.

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
from functools import partial
from itertools import repeat
from typing import Deque, Dict, List, NamedTuple, Optional, Tuple

#: default bound on retained span records
DEFAULT_TRACE_CAPACITY = 20_000


class SpanContext(NamedTuple):
    """What a batch carries: which trace it belongs to and which span
    produced it (the parent of whatever happens to it next)."""

    trace_id: str
    span_id: str


class FanIn:
    """What a *coalesced* batch carries: one entry per traced hop whose
    output was merged into it, in arrival order, with the rows that hop
    contributed; it iterates as ``((SpanContext, rows), ...)``.

    Executing the batch records one span per entry (:func:`fan_in_spans`)
    -- the spans the uncoalesced run would have recorded in as many
    calls -- so merging batches never has to stop at a trace boundary.
    A fan-in below a wide join has hundreds of entries, so it keeps them
    as three parallel tuples (trace ids, span ids, rows), and a fan-in
    the dataplane makes is *deferred*: it knows its ``size`` (entries)
    at once, and builds its columns when they are first read -- by the
    trace, by a fan-in merged from it, or by a pickle for a worker.  A
    traced run therefore pays per merged batch, not per entry."""

    __slots__ = ("size", "_columns", "_build")

    def __init__(self, entries=()):
        entries = tuple(entries)
        self._set((tuple(ctx.trace_id for ctx, _rows in entries),
                   tuple(ctx.span_id for ctx, _rows in entries),
                   tuple(rows for _ctx, rows in entries)))

    def _set(self, columns: Tuple[tuple, tuple, tuple]):
        self._columns, self._build = columns, None
        self.size = len(columns[2])

    @classmethod
    def of(cls, trace_ids: tuple, span_ids: tuple, rows: tuple) -> "FanIn":
        """A fan-in from its three columns, taken as they are."""
        fan_in = cls.__new__(cls)
        fan_in._set((trace_ids, span_ids, rows))
        return fan_in

    @classmethod
    def deferred(cls, size: int, build) -> "FanIn":
        """A fan-in of ``size`` entries whose columns ``build()`` returns
        when first read.  ``build`` may run more than once (threads
        reading at once) and must return the same columns every time."""
        fan_in = cls.__new__(cls)
        fan_in.size, fan_in._columns, fan_in._build = size, None, build
        return fan_in

    def columns(self) -> Tuple[tuple, tuple, tuple]:
        """``(trace_ids, span_ids, rows)``, built if deferred."""
        columns = self._columns
        if columns is None:
            columns = self._build()
            self._columns, self._build = columns, None
        return columns

    @property
    def trace_ids(self) -> tuple:
        return self.columns()[0]

    @property
    def span_ids(self) -> tuple:
        return self.columns()[1]

    @property
    def rows(self) -> tuple:
        return self.columns()[2]

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        trace_ids, span_ids, rows = self.columns()
        return zip(map(SpanContext, trace_ids, span_ids), rows)

    def __eq__(self, other) -> bool:
        if isinstance(other, FanIn):
            return self.columns() == other.columns()
        return isinstance(other, tuple) and tuple(self) == other

    __hash__ = None

    def __reduce__(self):
        return FanIn.of, self.columns()

    def __repr__(self) -> str:
        return f"FanIn({tuple(self)!r})"


def merged_context(parts: list, rows: int):
    """The context of a batch of ``rows`` rows merged from ``parts``,
    each ``(ctx, rows)``: a traced hop's context and the rows routed
    under it, in arrival order (untraced parts -- punctuations -- are
    left out of ``parts``).

    None if no part was traced; a single parent that contributed every
    row is the context itself, as routed; anything else is a deferred
    :class:`FanIn` of the parents with the rows each contributed.
    Downstream of a fan-in no row can be told apart by trace any more,
    so each of its parents gets an equal share of the part (the first
    ones the remainder); the row counts the fan-in arrived with
    described the batch upstream and are not carried over."""
    if not parts:
        return None
    if len(parts) == 1:
        ctx, part_rows = parts[0]
        if part_rows == rows:
            if isinstance(ctx, SpanContext):
                return ctx
            if ctx.size == 1:
                return SpanContext(ctx.trace_ids[0], ctx.span_ids[0])
    contexts = [ctx for ctx, _rows in parts]
    if FanIn in set(map(type, contexts)):
        size = sum(1 if isinstance(ctx, SpanContext) else ctx.size
                   for ctx in contexts)
    else:
        size = len(parts)
    return FanIn.deferred(size, partial(_merged_columns, parts))


def _merged_columns(parts: list) -> Tuple[tuple, tuple, tuple]:
    """The columns of :func:`merged_context`'s fan-in of ``parts``."""
    trace_ids, span_ids, counts = [], [], []
    for ctx, part_rows in parts:
        if isinstance(ctx, SpanContext):
            trace_ids.append(ctx.trace_id)
            span_ids.append(ctx.span_id)
            counts.append(part_rows)
        else:
            parent_traces, parent_spans, _rows = ctx.columns()
            trace_ids.extend(parent_traces)
            span_ids.extend(parent_spans)
            share, extra = divmod(part_rows, ctx.size)
            counts.extend((share + 1,) * extra)
            counts.extend((share,) * (ctx.size - extra))
    return tuple(trace_ids), tuple(span_ids), tuple(counts)


#: a span record's fields: what :meth:`TraceBuffer.spans` keys its dicts
#: by, and the order of the tuples the buffer keeps
SPAN_FIELDS = ("trace", "span", "parent", "component", "task", "rows",
               "duration_ms")


def span_record(trace_id: str, span_id: str, parent_id: Optional[str],
                component: str, task: int, rows: int,
                duration_s: float) -> tuple:
    """One hop of one batch, as the tuple a :class:`TraceBuffer` keeps
    (read back as a dict keyed by :data:`SPAN_FIELDS`)."""
    return (trace_id, span_id, parent_id, component, task, rows,
            duration_s * 1000.0)


class SpanBlock(NamedTuple):
    """The spans of one executed fan-in: span ``i`` is the hop of entry
    ``i`` of ``parent`` at ``(component, task)``, its id entry ``i`` of
    ``child``, its duration the entry's rows times ``ms_per_row``."""

    parent: FanIn
    child: FanIn
    component: str
    task: int
    ms_per_row: float

    @property
    def size(self) -> int:
        return self.parent.size

    def records(self) -> List[tuple]:
        """The block's spans, as :func:`span_record` tuples."""
        trace_ids, parent_ids, rows = self.parent.columns()
        ms_per_row = self.ms_per_row
        return list(zip(trace_ids, self.child.span_ids, parent_ids,
                        repeat(self.component), repeat(self.task), rows,
                        [part_rows * ms_per_row for part_rows in rows]))

    def tail(self, start: int) -> "SpanBlock":
        """The block without its first ``start`` spans."""
        def cut(fan_in):
            return FanIn.of(*(column[start:] for column in fan_in.columns()))
        return self._replace(parent=cut(self.parent), child=cut(self.child))


def fan_in_spans(parent: FanIn, span_ids, component: str, task: int,
                 rows: int, duration_s: float, lock):
    """The spans of one executed batch coalesced from several traced
    hops, and the context its emissions carry.

    One span per entry of ``parent``, each with the rows its hop
    contributed and that row-share of the one measured call, so the
    durations sum to the call (less the share of untraced punctuation
    rows merged into the batch).  Returns ``(block, child)``: the spans
    as one :class:`SpanBlock`, and a deferred fan-in of them, whose span
    ids ``span_ids(n)`` issues as a tuple when it is first read -- under
    ``lock``, so that racing readers agree on them."""
    def build():
        trace_ids, _parent_ids, part_rows = parent.columns()
        with lock:
            if child._columns is None:
                child._set((trace_ids, span_ids(len(part_rows)), part_rows))
            return child._columns

    child = FanIn.deferred(parent.size, build)
    block = SpanBlock(parent, child, component, task,
                      duration_s * 1000.0 / rows if rows else 0.0)
    return block, child


class TraceBuffer:
    """Bounded, thread-safe store of span records with JSON export.

    When full, the oldest spans are evicted and counted in
    ``dropped`` — tracing must never make the engine grow without
    bound, and a profile run cares about recent batches anyway.  A span
    is kept as a :func:`span_record` tuple, a fan-in's spans as one
    :class:`SpanBlock` -- a traced run records one span per hop, and a
    tuple costs a fraction of a dict -- and read back as dicts keyed by
    :data:`SPAN_FIELDS`.
    """

    GUARDED_BY = {
        "_spans": "_lock",
        "_count": "_lock",
        "dropped": "_lock",
    }

    def __init__(self, capacity: int = DEFAULT_TRACE_CAPACITY):
        if capacity <= 0:
            raise ValueError("trace capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        #: span records and span blocks, oldest first
        self._spans: Deque[tuple] = deque()
        #: the spans they hold
        self._count = 0
        self.dropped = 0

    def _evict_locked(self) -> None:  # squall-lint: holds=_lock
        while self._count > self.capacity:
            oldest = self._spans[0]
            size = oldest.size if type(oldest) is SpanBlock else 1
            evict = min(size, self._count - self.capacity)
            if evict == size:
                self._spans.popleft()
            else:
                self._spans[0] = oldest.tail(evict)
            self._count -= evict
            self.dropped += evict

    def append(self, entry) -> None:
        """Add one :func:`span_record` tuple or :class:`SpanBlock`."""
        with self._lock:
            self._spans.append(entry)
            self._count += entry.size if type(entry) is SpanBlock else 1
            self._evict_locked()

    def extend(self, entries) -> None:
        """Add span records and span blocks, in order."""
        with self._lock:
            for entry in entries:
                self._spans.append(entry)
                self._count += entry.size if type(entry) is SpanBlock else 1
            self._evict_locked()

    def __len__(self) -> int:
        with self._lock:
            return self._count

    def spans(self) -> List[Dict[str, object]]:
        with self._lock:
            entries = list(self._spans)
        records = []
        for entry in entries:
            if type(entry) is SpanBlock:
                records.extend(entry.records())
            else:
                records.append(entry)
        return [dict(zip(SPAN_FIELDS, record)) for record in records]

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
