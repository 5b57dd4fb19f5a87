"""Push-based sources: what every topology's source tasks poll.

A :class:`PushSource` produces ``(stream, row)`` emissions over time; a
stored relation is one too, replayed by :class:`ReplaySource`.  Each
source is polled by one :class:`~repro.engine.runner.SourcePump` task a
micro-batch at a time, so a source's own pacing (a rate limit, a
generator that blocks, a producer that has not pushed yet) directly
throttles the whole pipeline -- the pull side of the backpressure
story.  The push side is :meth:`CallbackSource.push`, whose
bounded buffer blocks producers when the pipeline falls behind.

Event time: a source that knows its rows' timestamps reports a
*watermark* -- a promise that it will never again emit a row with a
timestamp at or below it.  The cluster merges the per-source watermarks
(minimum) and uses the result to drive window expiration (see
:mod:`repro.streaming.watermarks` and :mod:`repro.engine.windows`).
Sources without event time report ``math.inf``: they never constrain the
merged watermark.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from itertools import islice
from operator import itemgetter
from typing import (Callable, Deque, Iterable, List, Optional, Sequence,
                    Tuple, Union)

from repro.core.columnar import ColumnBatch, ColumnEmissions, stored_columns
from repro.core.schema import Relation

Emission = Tuple[str, tuple]  # (stream id, values)


class PushSource:
    """An unbounded source of ``(stream, row)`` emissions."""

    def poll(self, max_rows: int) -> List[Emission]:
        """Up to ``max_rows`` emissions that are ready *now*.

        An empty list means "nothing ready yet", not end of stream --
        check :meth:`exhausted`.  A single-stream source may poll one
        :class:`~repro.core.columnar.ColumnEmissions` instead: its batch
        carries the rows (and, for retractions, their ``signs``)
        without a ``(stream, row)`` pair per row."""
        raise NotImplementedError

    def watermark(self) -> Optional[float]:
        """Event-time promise: no future emission has ts <= this value.

        ``None`` means "no promise yet" (blocks the merged watermark);
        ``math.inf`` means "I never constrain event time" (sources
        without timestamps)."""
        return math.inf

    def exhausted(self) -> bool:
        """True once the source will never emit again."""
        raise NotImplementedError

    def has_event_time(self) -> bool:
        """Whether this source's rows carry event timestamps.

        The cluster enables watermark punctuation only when *every*
        source does: a timestamp-less source's rows can resurrect old
        event times downstream (a join matching against stored state), so
        promising ``inf`` on its behalf would close windows that can
        still gain rows."""
        return False

    #: newest event timestamp emitted (None when the source has no event
    #: time); the cluster's lag monitor reads this
    max_event_time: Optional[float] = None


class ReplaySource(PushSource):
    """Replays a stored dataset as an event-time stream.

    The one reader of a stored relation: a batch run's spout tasks each
    replay their stripe of it (rows ``start``, ``start + step``, ...),
    and ``SqlSession.stream`` replays it whole as an unbounded-looking
    push source, optionally throttled to ``rate`` rows per second (a
    token bucket over ``clock``), with watermarks taken from the
    ``ts_position`` column.

    ``rows`` is a :class:`~repro.core.schema.Relation` (its first scan
    checks it against its schema) or a bare row sequence, held as a
    tuple.  A poll is one :class:`~repro.core.columnar.ColumnEmissions`
    whose batch is views ``column[position:stop:step]`` of the stored
    columns (:meth:`Relation.stored_columns
    <repro.core.schema.Relation.stored_columns>`, built once, at the
    first poll of any replay of the relation; a bare sequence's at this
    replay's first poll) with the slice of the rows as its row view: a
    poll transposes nothing.  The row path (:meth:`take`) builds no
    columns.

    Watermarks assume the replayed rows are in non-decreasing timestamp
    order (the stored-relation case); the watermark is the *maximum*
    timestamp emitted so far, so a mis-sorted input only ever yields a
    conservative (early) watermark, never a wrong one.
    """

    def __init__(self, rows: Union[Relation, Sequence[tuple]], stream: str,
                 ts_position: Optional[int] = None,
                 rate: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic,
                 burst: Optional[float] = None,
                 start: int = 0, step: int = 1):
        if rate is not None and not 0 < rate < math.inf:
            raise ValueError(
                "rate must be positive and finite (None = unlimited)")
        #: the replayed relation; None for a bare row sequence, whose
        #: rows and columns this source holds itself
        self.relation = rows if isinstance(rows, Relation) else None
        self._rows = None if self.relation is not None else tuple(rows)
        self._columns: Optional[list] = None
        self.stream = stream
        self.ts_position = ts_position
        self.rate = rate
        self._clock = clock
        self._position = start
        self._step = step
        # the bucket must be able to hold >= 1 whole token, or a rate
        # below 1 row/sec never accumulates enough to emit anything
        capacity = burst if burst is not None else (rate or 0)
        self._burst = max(float(capacity), 1.0) if rate is not None else 0.0
        self._tokens = self._burst
        self._last_refill = clock()
        self.max_event_time: Optional[float] = None

    def _stored_rows(self) -> Sequence[tuple]:
        if self.relation is not None:
            return self.relation.checked_rows()
        return self._rows

    def _stored_columns(self) -> list:
        if self.relation is not None:
            return self.relation.stored_columns()
        if self._columns is None:
            self._columns = stored_columns(self._rows)
        return self._columns

    def _allowance(self, max_rows: int) -> int:
        if self.rate is None:
            return max_rows
        now = self._clock()
        self._tokens = min(self._burst,
                           self._tokens + (now - self._last_refill) * self.rate)
        self._last_refill = now
        allowed = min(max_rows, int(self._tokens))
        return allowed

    def poll(self, max_rows: int):
        columns = self._stored_columns()
        start = self._position
        batch, _read = self.take(max_rows)
        if not batch:
            return []
        window = slice(start, self._position, self._step)
        return ColumnEmissions(self.stream, ColumnBatch(
            [column[window] for column in columns], len(batch), rows=batch))

    def take(self, max_rows: int,
             keep: Optional[Callable[[tuple], object]] = None
             ) -> Tuple[List[tuple], int]:
        """The next up to ``max_rows`` rows of the stripe, as a list, and
        how many rows were read.  ``keep``, a row predicate, reads past
        the rows it rejects, so a selective scan pays one predicate call
        per rejected row rather than one poll (the row path of
        :class:`~repro.engine.runner.SourcePump`); a rate limit bounds
        the rows read either way."""
        rows, position, step = self._stored_rows(), self._position, self._step
        allowed = self._allowance(max_rows if keep is None else len(rows))
        stop = min(len(rows), position + step * allowed)
        if keep is None:
            batch = list(rows[position:stop:step])
            end = position + step * len(batch)
        else:
            batch, end = [], position
            while end < stop and len(batch) < max_rows:
                row = rows[end]
                end += step
                if keep(row):
                    batch.append(row)
        read = (end - position) // step
        if not read:
            return batch, 0
        self._position = end
        if self.rate is not None:
            self._tokens -= read
        if self.ts_position is not None:
            ts = rows[end - step][self.ts_position]
            if self.max_event_time is None or ts > self.max_event_time:
                self.max_event_time = ts
        return batch, read

    def watermark(self) -> Optional[float]:
        if self.ts_position is None:
            return math.inf
        return self.max_event_time  # None until the first emission

    def has_event_time(self) -> bool:
        return self.ts_position is not None

    def exhausted(self) -> bool:
        return self._position >= len(self._stored_rows())


class Backpressure(RuntimeError):
    """A non-blocking push found the source buffer full."""


class CallbackSource(PushSource):
    """A push/generator source backed by a bounded buffer.

    Two ways to feed it:

    - **generator mode** -- pass ``generator``, an iterable of
      ``(stream, row)`` emissions; rows are pulled lazily, one
      micro-batch per poll.
    - **push mode** -- producers call :meth:`push` from any thread.  The
      buffer holds at most ``capacity`` emissions; a blocking push waits
      until the pipeline drains (backpressure), a non-blocking one raises
      :class:`Backpressure`.  Call :meth:`close` to end the stream.

    Event time: pass ``ts_position`` to derive watermarks from a row
    column of the primary stream, or call :meth:`set_watermark` to
    advance it manually (set ``manual_watermarks=True`` so the source
    withholds its promise until the first call).
    """

    def __init__(self, generator: Optional[Iterable[Emission]] = None,
                 capacity: int = 1024,
                 ts_position: Optional[int] = None,
                 manual_watermarks: bool = False):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.ts_position = ts_position
        self._generator = iter(generator) if generator is not None else None
        self._buffer: Deque[Emission] = deque()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._closed = generator is not None
        self._generator_done = generator is None
        self._manual_watermarks = manual_watermarks
        self._watermark: Optional[float] = None if (
            manual_watermarks or ts_position is not None) else math.inf
        self.max_event_time: Optional[float] = None

    # -- producer side -----------------------------------------------------

    def push(self, row: tuple, stream: str = "default", block: bool = True,
             timeout: Optional[float] = None) -> bool:
        """Enqueue one row; blocks (or raises) when the buffer is full."""
        with self._not_full:
            if self._closed:
                raise RuntimeError("push on a closed CallbackSource")
            if len(self._buffer) >= self.capacity:
                if not block:
                    raise Backpressure(
                        f"source buffer full ({self.capacity} emissions); "
                        f"the pipeline is not keeping up"
                    )
                if not self._not_full.wait_for(
                        lambda: len(self._buffer) < self.capacity or self._closed,
                        timeout=timeout):
                    return False
                if self._closed:
                    raise RuntimeError("push on a closed CallbackSource")
            self._buffer.append((stream, row))
            return True

    def close(self):
        """End of stream: no more pushes; buffered rows still drain."""
        with self._not_full:
            self._closed = True
            self._not_full.notify_all()

    def set_watermark(self, watermark: float):
        """Manually advance the event-time promise."""
        with self._lock:
            if self._watermark is None or watermark > self._watermark:
                self._watermark = watermark

    # -- consumer side -----------------------------------------------------

    def _pull_generator(self, n: int) -> List[Emission]:
        """Up to ``n`` emissions; a short pull means the generator ended
        (one that ends exactly at ``n`` is found out by the next pull)."""
        if self._generator is None:
            return []
        out = list(islice(self._generator, n))
        if len(out) < n:
            self._generator_done = True
            self._generator = None
        return out

    def poll(self, max_rows: int) -> List[Emission]:
        with self._not_full:
            batch = []
            while self._buffer and len(batch) < max_rows:
                batch.append(self._buffer.popleft())
            if batch:
                self._not_full.notify_all()
        if len(batch) < max_rows:
            batch.extend(self._pull_generator(max_rows - len(batch)))
        if batch and self.ts_position is not None:
            ts = max(map(itemgetter(self.ts_position),
                         map(itemgetter(1), batch)))
            with self._lock:
                if self.max_event_time is None or ts > self.max_event_time:
                    self.max_event_time = ts
                if self._watermark is None or ts > self._watermark:
                    self._watermark = ts
        return batch

    def watermark(self) -> Optional[float]:
        with self._lock:
            return self._watermark

    def has_event_time(self) -> bool:
        return self.ts_position is not None or self._manual_watermarks

    def exhausted(self) -> bool:
        with self._lock:
            return self._closed and self._generator_done and not self._buffer
