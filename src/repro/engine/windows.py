"""Window semantics on top of the full-history engine (paper section 2).

Squall gets windows by adding expiration to its full-history operators.
Here a window is a *predicate* that decides which results exist plus a
*state horizon* that decides when stored state may go, both over an
event-time column of every input (:attr:`WindowSpec.ts_positions`), so
no answer depends on the arrival order, the schedule or the batch size.

- **Joins** (:class:`WindowedJoinState`): a tumbling window joins rows
  of one window ``[k*size, (k+1)*size)``, a sliding one rows less than
  ``size`` apart.  A relation's *progress* at a task is the largest
  timestamp the task consumed from it, or the last watermark if larger;
  a stored row goes once every other relation's progress has passed its
  window (:meth:`WindowSpec.horizon`).
- **Tumbling aggregations** (:class:`WindowedAggregation`) keep one open
  aggregation per window, closed by the watermark or at end of stream.
- **Sliding aggregations** (:class:`SlidingWindowedAggregation`) consume
  a row that slides out of the window with sign -1.

A row behind its relation's progress, in a closed window or behind a
sliding window's horizon may have lost the rows it would have met: it
is dropped and counted in ``late_rows``, never used silently.  The
continuous runtime's watermarks reach every task through the
``advance_watermark`` hooks (:mod:`repro.streaming.watermarks`).
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import deque
from dataclasses import dataclass
from itertools import compress, islice
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


def _check_window(kind: str, size) -> None:
    if kind not in ("tumbling", "sliding"):
        raise ValueError(f"unknown window kind {kind!r}")
    if size <= 0:
        raise ValueError("window size must be positive")


@dataclass(frozen=True)
class WindowClause:
    """A front-end window request, by column *name*.

    What ``SqlSession`` / the functional API accept; the optimizer
    lowers it to a positional :class:`WindowSpec` on the aggregation."""

    kind: str  # 'tumbling' | 'sliding'
    size: int
    ts_column: str

    def __post_init__(self):
        _check_window(self.kind, self.size)
        if not self.ts_column:
            raise ValueError(f"{self!r} names no event-time column")


@dataclass(frozen=True)
class WindowSpec:
    """Window definition shared by join and aggregation operators:
    ``ts_positions`` maps each input relation to the position of its
    event-time column (an aggregation names its one input ``""``)."""

    kind: str  # 'tumbling' | 'sliding'
    size: int
    ts_positions: Dict[str, int]

    def __post_init__(self):
        _check_window(self.kind, self.size)
        if not self.ts_positions:
            raise ValueError("a window needs the event-time column of "
                             "every input (ts_positions)")

    @classmethod
    def tumbling(cls, size: int, ts_positions: Dict[str, int]):
        return cls("tumbling", size, ts_positions)

    @classmethod
    def sliding(cls, size: int, ts_positions: Dict[str, int]):
        return cls("sliding", size, ts_positions)

    def horizon(self, ts):
        """The event time from which no row shares a window with a row
        at ``ts``: the end of its tumbling window, or ``ts + size``."""
        if self.kind == "tumbling":
            return (ts // self.size + 1) * self.size
        return ts + self.size

    def admits(self, stamps: np.ndarray) -> np.ndarray:
        """The window predicate over joined rows: ``stamps[i][j]`` is
        the timestamp relation ``i`` contributes to row ``j``."""
        if self.kind == "tumbling":
            ids = stamps // self.size
            return (ids == ids[0]).all(axis=0)
        return stamps.max(axis=0) - stamps.min(axis=0) < self.size


def _column(rows, position: int) -> np.ndarray:
    """Column ``position`` of a row list or :class:`ColumnBatch`."""
    if isinstance(rows, ColumnBatch):
        return np.asarray(rows.columns[position])
    return np.array([row[position] for row in rows])


def _kept(rows, keep: np.ndarray):
    """The rows of ``rows`` whose ``keep`` entry is true."""
    if isinstance(rows, ColumnBatch):
        return rows.take(np.flatnonzero(keep))
    return list(compress(rows, keep.tolist()))


class WindowedJoinState(LocalJoin):
    """A :class:`LocalJoin` behind a window predicate and a state horizon.

    ``insert_batch`` drops the late rows (behind their relation's
    progress or an earlier row of the batch), joins the rest, filters
    the output by the window predicate, and only then advances progress
    and expires, so the answer is the same at every batch size.  A
    retraction deletes a stored instance and advances nothing."""

    def __init__(self, local_join: LocalJoin, window: WindowSpec):
        super().__init__(local_join.spec)
        self.local = local_join
        self.window = window
        names = local_join.spec.relation_names
        offsets = self.join_schema.offsets
        #: each relation's timestamp position in an output row
        self._output_ts = [offsets[name] + window.ts_positions[name]
                           for name in names]
        #: per relation: how far its event time has progressed here
        self.progress: Dict[str, object] = dict.fromkeys(names)
        #: per relation: its stored rows, ``(ts, row)`` in timestamp order
        self._stored = {name: deque() for name in names}
        self.expired_tuples = 0
        self.late_rows = 0

    def insert_batch(self, rel_name: str, rows):
        stamps = _column(rows, self.window.ts_positions[rel_name])
        progress = self.progress[rel_name]
        ahead = np.maximum.accumulate(stamps)
        bound = np.concatenate((stamps[:1], ahead[:-1]))
        late = stamps < (bound if progress is None
                         else np.maximum(bound, progress))
        if late.any():
            self.late_rows += int(late.sum())
            rows, stamps = _kept(rows, ~late), stamps[~late]
        if not len(stamps):
            return []
        delta = self._admitted(self.local.insert_batch(rel_name, rows))
        if isinstance(rows, ColumnBatch):
            rows = rows.to_rows()
        self._stored[rel_name].extend(zip(stamps.tolist(), rows))
        newest = ahead[-1:].tolist()[0]
        if progress is None or newest > progress:
            self.progress[rel_name] = newest
        self._expire()
        return delta

    def delete_batch(self, rel_name: str, rows):
        stored, held = self._stored[rel_name], []
        for row in rows:
            for i, (_ts, stored_row) in enumerate(stored):
                if stored_row == row:
                    del stored[i]
                    held.append(stored_row)
                    break
        if not held:
            return []
        return self._admitted(self.local.delete_batch(rel_name, held))

    def _admitted(self, delta):
        """The rows of a local join delta the window predicate admits."""
        if not len(delta):
            return delta
        keep = self.window.admits(np.array(
            [_column(delta, position) for position in self._output_ts]))
        return delta if keep.all() else _kept(delta, keep)

    def advance_watermark(self, watermark):
        """Punctuation hook: every relation has progressed to at least
        ``watermark``; delete what that expires."""
        for name, progress in self.progress.items():
            if progress is None or watermark > progress:
                self.progress[name] = watermark
        self._expire()

    def _expire(self):
        """Delete the rows every *other* relation has progressed past."""
        horizon = self.window.horizon
        for name, stored in self._stored.items():
            others = [progress for other, progress in self.progress.items()
                      if other != name]
            if not stored or None in others:
                continue
            bound, expired = min(others), []
            while stored and horizon(stored[0][0]) <= bound:
                expired.append(stored.popleft()[1])
            if expired:
                self.expired_tuples += len(expired)
                self.local.delete_batch(name, expired)

    def state_size(self) -> int:
        return self.local.state_size()


class WindowedAggregation:
    """Tumbling-window grouped aggregation: one open aggregation per
    window id; a window's rows are emitted when it closes."""

    def __init__(self, aggregation_factory, window: WindowSpec):
        if window.kind != "tumbling":
            raise ValueError("WindowedAggregation needs a tumbling window; "
                             "sliding ones use SlidingWindowedAggregation")
        self._factory = aggregation_factory
        self.window = window
        self._position = window.ts_positions[""]
        #: open windows: window id -> its aggregation
        self._open: Dict[object, object] = {}
        #: every window below this id is closed (None: none is)
        self._closed_below = None
        self.late_rows = 0

    def consume(self, row: tuple, sign: int = 1):
        """Feed one row (sign -1 = retraction)."""
        window_id = row[self._position] // self.window.size
        if self._closed_below is not None and window_id < self._closed_below:
            self.late_rows += 1
            return
        aggregation = self._open.get(window_id)
        if aggregation is None:
            aggregation = self._open[window_id] = self._factory()
        aggregation.consume(row, sign)

    def advance_watermark(self, watermark) -> List[Tuple[object, List[tuple]]]:
        """Close every window whose end the watermark has passed (it can
        gain no rows); returns the closed ``(window id, rows)``."""
        limit = watermark // self.window.size
        if self._closed_below is None or limit > self._closed_below:
            self._closed_below = limit
        return self._close([window_id for window_id in self._open
                            if window_id < limit])

    def flush(self) -> List[Tuple[object, List[tuple]]]:
        """Close every open window at end of stream."""
        return self._close(list(self._open))

    def _close(self, window_ids):
        return [(window_id, self._open.pop(window_id).snapshot())
                for window_id in sorted(window_ids)]


class SlidingWindowedAggregation:
    """Sliding-window grouped aggregation via input-side retractions.

    The paper expresses sliding aggregates as retractions over the
    full-history operator: an input row entering the window is consumed
    with sign +1, a row sliding out of it with sign -1 (exactly what a
    retracted row -- sign -1 in its batch -- does upstream).  Every
    state change is reported as an ``(old output row, new output row)``
    pair -- either side None for group birth/death -- which the
    continuous runtime's delta sinks forward as ``(+row / -row)``
    deltas.

    Rows are stored in timestamp order and expire from the front against
    ``max_ts - size`` (``max_ts``: the newest event time consumed), so
    :meth:`snapshot` is the aggregate over ``(max_ts - size, max_ts]``
    whatever order the rows came in.  A row with ``ts <= max_ts - size``
    never enters state and counts in ``late_rows``; a late row still
    inside the window is placed by its timestamp (after rows of equal
    ``ts``).
    """

    #: one reported state change: (old output row | None, new output row | None)
    Change = Tuple[Optional[tuple], Optional[tuple]]

    def __init__(self, aggregation_factory, window: WindowSpec):
        if window.kind != "sliding":
            raise ValueError("SlidingWindowedAggregation needs a sliding "
                             "window; tumbling ones use WindowedAggregation")
        self.window = window
        self.aggregation = aggregation_factory()
        self._position = window.ts_positions[""]
        self._stored: Deque[Tuple[object, tuple]] = deque()
        self._max_ts = None  # newest event time this operator has consumed
        self.expired_rows = 0
        #: rows dropped for arriving at or behind the window's horizon
        self.late_rows = 0

    def consume(self, row: tuple,
                sign: int = 1) -> List["SlidingWindowedAggregation.Change"]:
        """Feed one (possibly retracted) row; returns the state changes."""
        changes: List[SlidingWindowedAggregation.Change] = []
        ts = row[self._position]
        if self._max_ts is None or ts > self._max_ts:
            self._max_ts = ts
        horizon = self._max_ts - self.window.size
        self._expire(horizon, changes)
        if ts <= horizon:
            self.late_rows += 1  # outside the window: never stored
        elif sign >= 0:
            self._apply(row, sign, changes)
            if self._stored and self._stored[-1][0] > ts:  # late, inside
                insort(self._stored, (ts, row), key=itemgetter(0))
            else:
                self._stored.append((ts, row))
        else:
            # a retraction removes one stored instance, so the row is not
            # retracted again when it expires; with none stored (it slid
            # out, or never came in) it is a no-op -- applying it anyway
            # would leave phantom groups.  O(window): compensation is rare
            for i, (_stored_ts, stored_row) in enumerate(self._stored):
                if stored_row == row:
                    del self._stored[i]
                    self._apply(row, sign, changes)
                    break
        return changes

    def consume_changelog(self, batch: ColumnBatch) -> Optional[ColumnBatch]:
        """Consume an in-order insert batch in one vectorised pass.

        The batch becomes the signed sequence :meth:`consume` applies row
        by row -- each arrival's expiries at -1, then the arrival at +1
        (one ``np.searchsorted`` places every expiry) -- which
        :meth:`~repro.engine.operators.Aggregation.consume_changelog`
        turns into the changelog ``DeltaAggBolt``'s row loop emits; the
        state ends as the row loop leaves it.  Returns None, consuming
        nothing, for fewer than :data:`KERNEL_MIN_ROWS` rows,
        retractions, timestamps that are not ``int64`` or not in order
        from the newest one consumed, and what the aggregation's kernel
        refuses.

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
        position, size, stored = self._position, self.window.size, self._stored
        if (len(batch) < KERNEL_MIN_ROWS or batch.signs is not None
                or type(size) is not int or size >= _INT64_LIMIT):
            return None
        ts = batch.columns[position]
        if not (isinstance(ts, np.ndarray) and ts.dtype == np.int64
                and (ts[1:] >= ts[:-1]).all()):
            return None
        first, newest = ts[[0, -1]].tolist()
        if (self._max_ts is not None and not first >= self._max_ts
                or first - size < -_INT64_LIMIT):
            return None
        held = bisect_right(stored, newest - size, key=itemgetter(0))
        window_rows = ColumnBatch.concat([ColumnBatch.from_rows(
            [row for _ts, row in islice(stored, held)]), batch])
        window_ts = window_rows.columns[position]
        if not (isinstance(window_ts, np.ndarray)
                and window_ts.dtype == np.int64):
            return None
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
        self._max_ts = newest
        return changes

    def advance_time(self, now) -> List["SlidingWindowedAggregation.Change"]:
        """Watermark hook: expire rows at or behind ``now - size``,
        capped at this operator's newest arrival (whose own expiry
        already went that far), so a task whose input went quiet keeps
        its last window, as in a batch run."""
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
        """Current within-window groups."""
        return self.aggregation.snapshot()

    def state_size(self) -> int:
        return len(self._stored)
