"""Window semantics on top of the full-history engine (paper section 2).

Squall implements tumbling and sliding windows by adding expiration logic
over its full-history operators.  Timestamps are either explicit (a column
of each input relation) or implicit (global arrival order).

- **Tumbling** windows of size ``size`` partition time into fixed ranges
  ``[k*size, (k+1)*size)``; on crossing a boundary the operator state is
  reset.
- **Sliding** windows keep the last ``size`` time units: on every arrival,
  stored tuples older than ``ts - size`` are retracted via the local
  join's ``delete`` (DBToaster views handle this as a negative delta).
  :class:`SlidingWindowedAggregation` applies the same idea to grouped
  aggregates: expired input rows are consumed with sign -1, and a row
  that arrives behind the window's horizon is dropped and counted.

Expiration is driven from two sides.  In a finite (batch) run, every
arriving tuple's own timestamp advances the clock, and the final window
closes at end of stream.  In a *continuous* run
(:class:`repro.streaming.cluster.StreamingCluster`), the watermark
punctuations of the push sources additionally advance event time through
the ``advance_time`` / ``advance_watermark`` hooks below, so windows
close and state expires with bounded lag even when a source goes quiet
-- see :mod:`repro.streaming.watermarks` for the punctuation protocol.
Watermarks only ever advance the clock to a time at or below the maximum
timestamp the sources promise not to precede, so a watermark-driven
expiration performs exactly the work the next arrival would have; final
results are identical to the batch run's.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import deque
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.core.columnar import ColumnBatch
from repro.joins.base import LocalJoin

#: an ``int64`` timestamp or horizon stays below this magnitude
_INT64_LIMIT = 1 << 63

#: the fewest rows :meth:`SlidingWindowedAggregation.consume_changelog`
#: takes; smaller batches (a paced stream's turns carry ~1 event) are
#: cheaper row by row.  Measured on a 2-vCPU box over 20 000 in-order
#: events, 64 keys, COUNT + SUM, window 2 000, kernel / row loop per
#: event: 1 row 136 / 13 us, 8 rows 22 / 10, 16 rows 11.3 / 8.0, 24
#: rows 8.2 / 7.8, 32 rows 6.5 / 7.7, 64 rows 3.9 / 7.4.
KERNEL_MIN_ROWS = 32


@dataclass(frozen=True)
class WindowClause:
    """A front-end window request, by column *name*.

    What ``SqlSession`` / the functional API accept: kind, size and the
    event-time column (None = arrival order).  The optimizer resolves the
    column against the physical plan's projections and lowers it to a
    positional :class:`WindowSpec` on the aggregation component.

    Exact-answer caveat: window expiration is arrival-driven, so the
    aggregate is only independent of batching/interleaving when its input
    arrives in event-time order -- true for windows directly over a
    source, best-effort when a join sits in between (joins re-emit stored
    rows with old timestamps)."""

    kind: str  # 'tumbling' | 'sliding'
    size: int
    ts_column: Optional[str] = None

    def __post_init__(self):
        if self.kind not in ("tumbling", "sliding"):
            raise ValueError(f"unknown window kind {self.kind!r}")
        if self.size <= 0:
            raise ValueError("window size must be positive")


@dataclass(frozen=True)
class WindowSpec:
    """Window definition shared by join and aggregation operators."""

    kind: str  # 'tumbling' | 'sliding'
    size: int
    #: per-relation timestamp column position; None = arrival order
    ts_positions: Optional[Dict[str, int]] = None

    def __post_init__(self):
        if self.kind not in ("tumbling", "sliding"):
            raise ValueError(f"unknown window kind {self.kind!r}")
        if self.size <= 0:
            raise ValueError("window size must be positive")

    @classmethod
    def tumbling(cls, size: int, ts_positions: Optional[Dict[str, int]] = None):
        return cls("tumbling", size, ts_positions)

    @classmethod
    def sliding(cls, size: int, ts_positions: Optional[Dict[str, int]] = None):
        return cls("sliding", size, ts_positions)

    def timestamp(self, rel_name: str, row: tuple, arrival_index: int):
        if self.ts_positions is None:
            return arrival_index
        return row[self.ts_positions[rel_name]]


class WindowedJoinState(LocalJoin):
    """Wraps a :class:`LocalJoin` with window expiration logic.

    A local join itself, whose batch methods are the base class's
    row-by-row loops: every arrival may expire state first."""

    def __init__(self, local_join: LocalJoin, window: WindowSpec):
        super().__init__(local_join.spec)
        self.local = local_join
        self.window = window
        self._arrivals = 0
        self._stored: Deque[Tuple[object, str, tuple]] = deque()
        self._current_window: Optional[int] = None
        self.expired_tuples = 0

    def insert(self, rel_name: str, row: tuple) -> List[tuple]:
        ts = self.window.timestamp(rel_name, row, self._arrivals)
        self._arrivals += 1
        self._expire(ts)
        delta = self.local.insert(rel_name, row)
        self._stored.append((ts, rel_name, row))
        return delta

    def delete(self, rel_name: str, row: tuple) -> List[tuple]:
        """Retract one stored instance of ``row`` from the window store
        and the local join together, so expiry or a tumbling reset never
        deletes it again; a no-op when none is stored, as in
        :meth:`SlidingWindowedAggregation.consume`.  A retraction carries
        an old event time and does not advance the clock."""
        for i, (_ts, stored_rel, stored_row) in enumerate(self._stored):
            if stored_rel == rel_name and stored_row == row:
                del self._stored[i]
                return self.local.delete(rel_name, row)
        return []

    def _expire(self, now):
        if self.window.kind == "tumbling":
            window_id = now // self.window.size
            if self._current_window is None:
                self._current_window = window_id
            elif window_id != self._current_window:
                self.expired_tuples += len(self._stored)
                self._stored.clear()
                self.local.reset()
                self._current_window = window_id
            return
        # sliding: retract everything strictly older than now - size
        horizon = now - self.window.size
        while self._stored and self._stored[0][0] <= horizon:
            _ts, rel_name, row = self._stored.popleft()
            self.local.delete(rel_name, row)
            self.expired_tuples += 1

    def advance_time(self, now):
        """Watermark hook: expire state as if a tuple at ``now`` arrived.

        The continuous runtime calls this when the sources' merged
        watermark advances, so join state stays bounded even while a
        relation receives no tuples.  Performs exactly the expiration the
        next ``insert`` at time >= ``now`` would perform."""
        self._expire(now)

    def state_size(self) -> int:
        return self.local.state_size()

    @property
    def work(self) -> int:
        return self.local.work


class WindowedAggregation:
    """Per-window grouped aggregation; emits a window's rows when it closes."""

    def __init__(self, aggregation_factory, window: WindowSpec):
        if window.kind != "tumbling":
            raise ValueError(
                "windowed aggregation supports tumbling windows; sliding "
                "aggregates are expressed as join-side retractions"
            )
        self._factory = aggregation_factory
        self.window = window
        self._arrivals = 0
        self._current_window: Optional[int] = None
        self._aggregation = aggregation_factory()
        self.closed_windows: List[Tuple[int, List[tuple]]] = []

    def consume(self, row: tuple, sign: int = 1,
                rel_name: str = "") -> Optional[Tuple[int, List[tuple]]]:
        """Feed one row (sign -1 = retraction: a row whose batch sign is
        -1); returns (window id, rows) when a window closes."""
        ts = self.window.timestamp(rel_name, row, self._arrivals)
        self._arrivals += 1
        window_id = ts // self.window.size
        closed = None
        if self._current_window is None:
            self._current_window = window_id
        elif window_id != self._current_window:
            closed = (self._current_window, self._aggregation.snapshot())
            self.closed_windows.append(closed)
            self._aggregation = self._factory()
            self._current_window = window_id
        self._aggregation.consume(row, sign)
        return closed

    def flush(self) -> Optional[Tuple[int, List[tuple]]]:
        """Close the final window at end of stream."""
        if self._current_window is None:
            return None
        closed = (self._current_window, self._aggregation.snapshot())
        self.closed_windows.append(closed)
        self._aggregation = self._factory()
        self._current_window = None
        return closed

    def advance_watermark(self, watermark) -> Optional[Tuple[int, List[tuple]]]:
        """Close the open window once the watermark passes its end.

        The continuous runtime's punctuation hook: with the promise that
        no tuple with timestamp <= ``watermark`` is still in flight, a
        window ending at or before it can never gain rows, so it is
        emitted now instead of waiting for the next arrival (or end of
        stream) to close it.  Returns the closed ``(window id, rows)`` or
        None if the open window is still live."""
        if self._current_window is None:
            return None
        if watermark < (self._current_window + 1) * self.window.size:
            return None
        return self.flush()


class SlidingWindowedAggregation:
    """Sliding-window grouped aggregation via input-side retractions.

    The paper expresses sliding aggregates as retractions over the
    full-history operator: an input row entering the window is consumed
    with sign +1, a row sliding out of it with sign -1 (exactly what a
    retracted row -- sign -1 in its batch -- does upstream).  Every
    state change is
    reported as an ``(old output row, new output row)`` pair -- either
    side may be None for group birth/death -- which is what the
    continuous runtime's delta sinks forward to subscribers as
    ``(+row / -row)`` deltas.

    Event time advances with every arrival (batch runs) and through
    :meth:`advance_time` (watermark punctuations of the continuous
    runtime); :meth:`snapshot` is always the aggregate over rows whose
    timestamps are within ``(now - size, now]``.

    Rows are stored in timestamp order and expire from the front against
    ``max_ts - size`` (``max_ts``: the newest event time consumed).
    Late rows, drop and count: a row with ``ts <= max_ts - size`` never
    enters state and counts in ``late_events``; a late row still inside
    the window is placed by its timestamp (after rows of equal ``ts``).
    Batch and streaming runs share the policy; when a join reorders
    tuples upstream, which rows count as late depends on arrival order.
    """

    #: one reported state change: (old output row | None, new output row | None)
    Change = Tuple[Optional[tuple], Optional[tuple]]

    def __init__(self, aggregation_factory, window: WindowSpec):
        if window.kind != "sliding":
            raise ValueError(
                "SlidingWindowedAggregation needs a sliding window; tumbling "
                "aggregations use WindowedAggregation"
            )
        self.window = window
        self.aggregation = aggregation_factory()
        self._arrivals = 0
        self._stored: Deque[Tuple[object, tuple]] = deque()
        self._max_ts = None  # newest event time this operator has consumed
        self.expired_rows = 0
        #: rows dropped for arriving at or behind the window's horizon
        self.late_events = 0

    def consume(self, row: tuple, sign: int = 1,
                rel_name: str = "") -> List["SlidingWindowedAggregation.Change"]:
        """Feed one (possibly retracted) row; returns the state changes."""
        changes: List[SlidingWindowedAggregation.Change] = []
        ts = self.window.timestamp(rel_name, row, self._arrivals)
        self._arrivals += 1
        if self._max_ts is None or ts > self._max_ts:
            self._max_ts = ts
        horizon = self._max_ts - self.window.size
        self._expire(horizon, changes)
        if ts <= horizon:
            self.late_events += 1  # outside the window: never stored
        elif sign >= 0:
            self._apply(row, sign, changes)
            if self._stored and self._stored[-1][0] > ts:  # late, inside
                insort(self._stored, (ts, row), key=itemgetter(0))
            else:
                self._stored.append((ts, row))
        else:
            # a compensating retraction removes one stored instance so the
            # row is not retracted a second time when it expires; if no
            # instance is stored (the row already slid out of the window,
            # or was never in it) the retraction is a no-op -- applying it
            # anyway would double-subtract and leave phantom groups.
            # O(window) scan: compensation is the rare failure-recovery
            # path, and the window bounds the cost
            for i, (_stored_ts, stored_row) in enumerate(self._stored):
                if stored_row == row:
                    del self._stored[i]
                    self._apply(row, sign, changes)
                    break
        return changes

    def consume_changelog(self, batch: ColumnBatch) -> Optional[ColumnBatch]:
        """Consume an in-order insert batch in one vectorised pass.

        The batch becomes the signed sequence :meth:`consume` applies row
        by row -- each arrival's expiries at -1 (the stored rows, or
        earlier rows of this batch, at or behind ``ts - size``), then
        the arrival at +1 -- and
        :meth:`~repro.engine.operators.Aggregation.consume_changelog`
        turns that into the changelog ``DeltaAggBolt``'s row loop emits.
        One ``np.searchsorted`` of the arrivals' horizons over the
        expiring timestamps places every expiry.  The stored rows,
        ``expired_rows`` and the group state end as the row loop leaves
        them.

        Returns None, consuming nothing, for what only the row loop
        reproduces: fewer than :data:`KERNEL_MIN_ROWS` rows,
        arrival-order windows, retractions, timestamps that are not
        ``int64`` or not in order from the newest one consumed, and
        whatever the aggregation's kernel refuses.

        >>> from repro.core.columnar import ColumnBatch
        >>> from repro.engine.operators import Aggregation, count
        >>> window = SlidingWindowedAggregation(
        ...     lambda: Aggregation([1], [count()]),
        ...     WindowSpec.sliding(10, {"": 0}))
        >>> rows = [(ts, ts // 2 % 2, 0) for ts in range(0, 64, 2)]
        >>> changes = window.consume_changelog(ColumnBatch.from_rows(rows))
        >>> len(rows), len(changes), window.expired_rows
        (32, 116, 27)
        >>> window.state_size(), window.snapshot()
        (5, [(0, 2), (1, 3)])
        """
        position = (self.window.ts_positions or {}).get("")
        size, stored = self.window.size, self._stored
        if (len(batch) < KERNEL_MIN_ROWS or position is None
                or batch.signs is not None or type(size) is not int
                or size >= _INT64_LIMIT):
            return None
        ts = batch.columns[position]
        if not (isinstance(ts, np.ndarray) and ts.dtype == np.int64
                and (ts[1:] >= ts[:-1]).all()):
            return None
        first, newest = ts[[0, -1]].tolist()
        if (self._max_ts is not None and not first >= self._max_ts
                or first - size < -_INT64_LIMIT):
            return None
        # the stored rows this batch expires: a prefix, in timestamp order
        held = bisect_right(stored, newest - size, key=itemgetter(0))
        window_rows = ColumnBatch.concat([ColumnBatch.from_rows(
            [row for _ts, row in islice(stored, held)]), batch])
        window_ts = window_rows.columns[position]
        if not (isinstance(window_ts, np.ndarray)
                and window_ts.dtype == np.int64):
            return None
        # how many rows have expired by each arrival, which goes after them
        expired = window_ts.searchsorted(ts - size, side="right")
        n, gone = len(batch), int(expired[-1])
        arrivals = expired + np.arange(n)
        signs = np.full(gone + n, -1, dtype=np.int8)
        signs[arrivals] = 1
        sources = np.empty(gone + n, dtype=np.intp)
        sources[arrivals] = np.arange(held, held + n)
        sources[signs < 0] = np.arange(gone)
        sequence = window_rows.take(sources)
        sequence.signs = signs
        changes = self.aggregation.consume_changelog(sequence)
        if changes is None:
            return None
        for _ in range(held):
            stored.popleft()
        kept = gone - held  # this batch's first rows expired in it
        stored.extend(zip(ts[kept:].tolist(), batch.to_rows()[kept:]))
        self.expired_rows += gone
        self._arrivals += n
        self._max_ts = newest
        return changes

    def advance_time(self, now) -> List["SlidingWindowedAggregation.Change"]:
        """Watermark hook: expire rows older than ``now - size``.

        Expiry is capped at this operator's own newest arrival: a
        watermark reflects *global* progress, but the snapshot contract
        with the batch engine is per-partition arrival-driven expiry, and
        with in-order inputs any arrival at or past the watermark would
        expire the same rows anyway.  The cap only defers expiry for a
        partition whose stream went quiet -- it never changes what a
        later arrival (or the final snapshot) observes."""
        if self._max_ts is None:
            return []
        changes: List[SlidingWindowedAggregation.Change] = []
        self._expire(min(now, self._max_ts) - self.window.size, changes)
        return changes

    def _expire(self, horizon, changes):
        while self._stored and self._stored[0][0] <= horizon:
            _ts, row = self._stored.popleft()
            self._apply(row, -1, changes)
            self.expired_rows += 1

    def _apply(self, row, sign, changes):
        key = self.aggregation.key_of(row)
        old = self.aggregation.current(key)
        self.aggregation.consume(row, sign)
        new = self.aggregation.current(key)
        if old != new:
            changes.append((old, new))

    def snapshot(self) -> List[tuple]:
        """Current within-window groups (what the batch engine emits at
        end of stream)."""
        return self.aggregation.snapshot()

    def state_size(self) -> int:
        return len(self._stored)
