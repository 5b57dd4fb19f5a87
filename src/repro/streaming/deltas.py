"""Incremental result deltas: the subscriber-facing end of a live query.

A continuous query has no final result list; instead its sink maintains
the *current* result multiset and publishes every change as a
``(+row / -row)`` delta.  Consumers :meth:`~DeltaSink.subscribe` and
receive the deltas in order; :meth:`~DeltaSink.snapshot` is the current
multiset and -- once the sources are exhausted -- equals the batch
engine's answer for the same data (pinned by
``tests/test_streaming_equivalence.py``).

``DeltaSink`` consumes what the batch
:class:`~repro.engine.runner.SinkBolt` does: a row list inserts its
rows, and a :class:`~repro.core.columnar.ColumnBatch` inserts or removes
one stored instance of each row as its entry in ``signs`` says (a
retraction of a row that is not present is ignored, matching the batch
sink's compensation semantics), in sequence.  The changelog of
:class:`~repro.streaming.runner.DeltaAggBolt` is such a batch: one
aggregation batch arrives as one ordered changelog and is published
with one fan-out.

Fan-out (the serving layer's delivery path): one sink serves N
subscribers, each through its own **bounded ring buffer**.  A ring holds
shared, immutable *chunks* -- a sign list and a row list per published
batch -- and :class:`Delta` objects are built only when a subscriber
takes them; ring bounds count deltas, not chunks.  Publishing
never waits on a slow consumer by default -- a subscriber whose ring
fills up is *shed*: its buffer is dropped and its next ``pop`` (or
iteration step) raises the terminal :class:`SubscriberOverflow`, while
the pipeline and every other subscriber continue untouched.  A
subscriber that opts into ``on_overflow='block'`` gets lossless delivery
via producer backpressure instead, at the documented cost of coupling
the pipeline (and therefore its co-subscribers) to that consumer's pace.
"""

from __future__ import annotations

import threading
from collections import deque
from itertools import count, repeat
from operator import itemgetter
from typing import (
    Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple)

from repro.core.columnar import ColumnBatch
from repro.storm.topology import Bolt

#: one published changelog as a ring holds it: signs and rows, in order
Chunk = Tuple[Sequence[int], Sequence[tuple]]


class Delta(tuple):
    """One change to the live result multiset: ``(sign, row)``.

    ``sign`` is +1 for an insertion, -1 for a retraction.  A tuple, so
    equal deltas compare and hash equal (and a delta equals the plain
    ``(sign, row)`` pair it was built from).
    """

    __slots__ = ()

    def __new__(cls, sign: int, row: tuple):
        return tuple.__new__(cls, (sign, row))

    def __getnewargs__(self):
        return tuple(self)

    sign = property(itemgetter(0))
    row = property(itemgetter(1))

    def __repr__(self):
        return f"Delta(sign={self[0]!r}, row={self[1]!r})"

    def __str__(self):
        return f"{'+' if self[0] > 0 else '-'}{self[1]}"


class SubscriberOverflow(RuntimeError):
    """Terminal event of a shed subscriber.

    Raised by :meth:`Subscription.pop` / iteration once the subscriber's
    bounded ring filled up under ``on_overflow='shed'``: the feed is
    over for this subscriber (pending deltas were dropped -- a partial
    changelog would be worse than none), but the shared topology and its
    other subscribers are unaffected.  Re-subscribe to resume from the
    current snapshot.
    """


class Subscription:
    """An ordered feed of one sink's deltas, optionally bounded.

    Iterating blocks until the next delta (or end of query); :meth:`pop`
    takes one delta and :meth:`drain` everything buffered, in one lock
    acquisition -- the form the inline driver uses between pump rounds.

    Args:
        max_buffer: bounded-ring capacity in deltas; ``None`` keeps the
            legacy unbounded feed.
        on_overflow: what happens when the consumer falls ``max_buffer``
            deltas behind -- ``'shed'`` (default) detaches this
            subscriber with a terminal :class:`SubscriberOverflow` and
            never stalls the pipeline; ``'block'`` backpressures the
            publisher instead.
        tenant: the tenant the serving counters attribute this feed to.
        on_detach: callback invoked once when the subscription detaches
            (shed, closed, or query end).

    Raises:
        ValueError: on ``max_buffer < 1`` or an unknown ``on_overflow``.
        SubscriberOverflow: from iteration, after the ring overflowed
            under ``on_overflow='shed'``.

    Example::

        from repro.streaming.deltas import DeltaSink

        sink = DeltaSink()
        feed = sink.subscribe()
        sink.execute_batch("J", "J", [(1,), (2,)])
        assert feed.pop().row == (1,)      # deltas arrive in order
        assert feed.pop().sign == +1       # insertions carry sign +1

    Bulk drain -- one signed changelog batch in, one list out::

        from repro.core.columnar import ColumnBatch
        from repro.streaming.deltas import DeltaSink

        sink = DeltaSink()
        feed = sink.subscribe()
        sink.execute_batch("agg", "agg", ColumnBatch.from_rows(
            [("a", 1), ("a", 1), ("a", 2)], signs=[1, -1, 1]))
        assert [str(d) for d in feed.drain()] == [
            "+('a', 1)", "-('a', 1)", "+('a', 2)"]
        assert feed.drain() == [] and feed.backlog == 0
        assert feed.delivered == feed.published == 3
    """

    #: squall-lint lock-discipline contract: ring state is only touched
    #: while holding the condition (the PR 7 subscribe/fan-out race class)
    GUARDED_BY = {
        "_chunks": "_cond",
        "_head": "_cond",
        "_size": "_cond",
        "_closed": "_cond",
        "_overflowed": "_cond",
        "_detached": "_cond",
        "published": "_cond",
        "delivered": "_cond",
    }

    def __init__(self, max_buffer: Optional[int] = None,
                 on_overflow: str = "shed", tenant: str = "default",
                 on_detach: Optional[Callable[["Subscription"], None]] = None):
        if max_buffer is not None and max_buffer < 1:
            raise ValueError(f"max_buffer must be >= 1, got {max_buffer}")
        if on_overflow not in ("shed", "block"):
            raise ValueError(
                f"on_overflow must be 'shed' or 'block', got {on_overflow!r}")
        self.max_buffer = max_buffer
        self.on_overflow = on_overflow
        self.tenant = tenant
        #: published chunks, shared with the other subscribers' rings;
        #: ``_head`` deltas of the first one were taken already, and
        #: ``_size`` deltas are buffered in all
        self._chunks: Deque[Chunk] = deque()
        self._head = 0
        self._size = 0
        self._cond = threading.Condition()
        self._closed = False
        self._overflowed = False
        self._detached = False  # on_detach fired (exactly once)
        self._sink: Optional["DeltaSink"] = None
        self._on_detach = on_detach
        #: deltas that entered the ring / were popped by the consumer
        self.published = 0
        self.delivered = 0

    # -- sink side ---------------------------------------------------------

    def _publish(self, chunk: Chunk, force: bool = False) -> bool:
        """Append one chunk to the ring; False = drop me from the sink.

        Never blocks under ``on_overflow='shed'``: a full ring marks the
        subscription overflowed, clears it and returns False, so one
        stalled consumer costs the publisher a single flag write instead
        of a stall.  Under ``'block'`` the publisher waits for ring space
        (releasing it if the consumer detaches mid-wait) and appends the
        chunk in slices that fit.  ``force``
        (the catch-up path) bypasses the ring bound for both policies:
        the consumer has not received the handle yet, so a 'block' wait
        would deadlock and a 'shed' check would permanently lock out any
        subscriber whose catch-up snapshot alone exceeds ``max_buffer``
        -- the ring overshoots once at attach and is bounded
        thereafter."""
        signs, rows = chunk
        size = len(signs)
        with self._cond:
            if self._closed or self._overflowed:
                return False
            if self.max_buffer is None or force:
                self._append(chunk, size)
            elif self.on_overflow == "shed":
                if self._size + size > self.max_buffer:
                    self._overflowed = True
                    self._clear()
                    self._cond.notify_all()
                    return False
                self._append(chunk, size)
            else:  # block: lossless, chunked into whatever space frees up
                index = 0
                while index < size:
                    self._cond.wait_for(
                        lambda: self._size < self.max_buffer
                        or self._closed)
                    if self._closed:
                        return False
                    end = min(size, index + self.max_buffer - self._size)
                    self._append((signs[index:end], rows[index:end]),
                                 end - index)
                    index = end
                    self._cond.notify_all()
            self._cond.notify_all()
            return True

    def _append(self, chunk: Chunk, size: int):  # squall-lint: holds=_cond
        self._chunks.append(chunk)
        self._size += size
        self.published += size

    def _clear(self):  # squall-lint: holds=_cond
        self._chunks.clear()
        self._head = self._size = 0

    def _close(self):
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def _fire_detach(self):
        """Run the detach hook exactly once (shed, detach or close)."""
        with self._cond:
            if self._detached:
                return
            self._detached = True
        if self._on_detach is not None:
            self._on_detach(self)

    # -- consumer side -----------------------------------------------------

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed and not self._size

    @property
    def overflowed(self) -> bool:
        with self._cond:
            return self._overflowed

    @property
    def backlog(self) -> int:
        """Deltas published but not yet consumed (the delta lag)."""
        with self._cond:
            return self._size

    def detach(self):
        """Stop receiving: drop this subscription from its sink.

        The consumer-side cancel.  Buffered deltas stay poppable; a
        blocked publisher is released.  Idempotent."""
        self._close()
        sink = self._sink
        if sink is not None:
            sink.detach(self)
        else:
            self._fire_detach()

    def _wait(self, timeout: Optional[float]):  # squall-lint: holds=_cond
        """Block (holding the condition) until the ring has deltas or
        went terminal, or ``timeout`` elapsed."""
        self._cond.wait_for(
            lambda: self._size or self._closed or self._overflowed,
            timeout=timeout)

    def _took(self, count: int):  # squall-lint: holds=_cond
        """Account ``count`` deltas leaving the ring (holding the
        condition).  Only an ``on_overflow='block'`` publisher ever
        waits for ring space, so only that policy pays a notify."""
        self.delivered += count
        if self.on_overflow == "block" and self.max_buffer is not None:
            self._cond.notify_all()

    def _shed_error(self) -> SubscriberOverflow:
        return SubscriberOverflow(
            f"subscriber shed: fell more than {self.max_buffer} "
            f"deltas behind the pipeline (on_overflow='shed'); "
            f"re-subscribe to resume from the current snapshot")

    def pop(self, block: bool = False,
            timeout: Optional[float] = None) -> Optional[Delta]:
        """Next delta, or None (buffer empty / query over / timed out).

        Raises :class:`SubscriberOverflow` once a shed subscription's
        ring is found terminal."""
        with self._cond:
            if block:
                self._wait(timeout)
            if self._size:
                signs, rows = self._chunks[0]
                head = self._head
                delta = Delta(signs[head], rows[head])
                head += 1
                if head == len(signs):
                    self._chunks.popleft()
                    head = 0
                self._head = head
                self._size -= 1
                self._took(1)
                return delta
            if self._overflowed:
                raise self._shed_error()
            return None

    def drain(self, block: bool = False,
              timeout: Optional[float] = None) -> List[Delta]:
        """Every buffered delta, in order, under one lock acquisition
        (empty list: buffer empty / query over / timed out).

        The bulk form of :meth:`pop`, with the same blocking and
        :class:`SubscriberOverflow` behaviour; the returned deltas count
        as delivered the moment they leave the ring."""
        with self._cond:
            if block:
                self._wait(timeout)
            if self._size:
                deltas: List[Delta] = []
                head = self._head
                for signs, rows in self._chunks:
                    if head:
                        signs, rows, head = signs[head:], rows[head:], 0
                    # tuple.__new__ directly: no Python-level __new__
                    deltas.extend(map(tuple.__new__, repeat(Delta),
                                      zip(signs, rows)))
                self._clear()
                self._took(len(deltas))
                return deltas
            if self._overflowed:
                raise self._shed_error()
            return []

    def __iter__(self) -> Iterator[Delta]:
        while True:
            delta = self.pop(block=True)
            if delta is not None:
                yield delta
            elif self.closed:
                return


class DeltaSink(Bolt):
    """Terminal bolt of a continuous topology: state + subscriptions.

    Thread-safe (a broker's driver thread publishes while subscriber
    threads drain their rings and read snapshots); drop-in replacement
    for the batch :class:`~repro.engine.runner.SinkBolt` in a streaming
    topology.

    The sink is the fan-out point of the serving layer: every delta
    batch is published to each attached :class:`Subscription`'s own
    ring, and subscriptions that report themselves dead (shed, closed,
    detached) are dropped from the fan-out list on the spot.

    Every batch is a signed changelog -- a ``ColumnBatch`` with
    ``signs`` (such as :class:`DeltaAggBolt`'s), or an insert-only row
    list -- folded into a plain ``{row: count}`` dict in sequence under
    one lock; the changes applied reach every ring as one shared chunk.
    A ``-row`` is ignored unless the multiset holds the row *at that
    point of the batch*: ``+r, -r`` publishes both, ``-r, +r`` on an
    empty sink only the insertion.  README's "Streaming runtime" feeds
    it a columnar changelog end to end.
    """

    #: coordinator-owned: checkpoints snapshot the multiset via
    #: counts_snapshot(); the sink object itself (live condition
    #: variables and all) never crosses a process pipe
    PIPE_PICKLED = False

    #: squall-lint lock-discipline contract for the fan-out state
    GUARDED_BY = {
        "_counts": "_lock",
        "_subscriptions": "_lock",
        "delta_count": "_lock",
        "shed_count": "_lock",
        "completed": "_lock",
    }

    def __init__(self):
        self._counts: Dict[tuple, int] = {}
        self._lock = threading.Lock()
        #: the fan-out list, copy-on-write: an immutable tuple replaced
        #: (never mutated) on subscribe/detach/shed, so a publish reads
        #: it under the lock and iterates it outside without copying
        self._subscriptions: Tuple[Subscription, ...] = ()
        self.delta_count = 0
        #: subscribers dropped because their ring overflowed
        self.shed_count = 0
        self.completed = False

    # -- dataplane side ----------------------------------------------------

    def execute_batch(self, source: str, stream: str, rows):
        if isinstance(rows, ColumnBatch) and rows.signs is not None:
            signs, rows = rows.signs.tolist(), rows.to_rows()
        else:
            rows = list(rows)  # a batch iterates as its rows
            signs = [1] * len(rows)
        with self._lock:
            chunk = self._fold(signs, rows)
            self.delta_count += len(chunk[0])
            subscriptions = self._subscriptions
        if subscriptions and chunk[0]:
            self._fan_out(subscriptions, chunk)
        return []

    def _fold(self, signs, rows) -> Chunk:  # squall-lint: holds=_lock
        """Apply the changes in sequence; returns those applied (a
        ``-row`` the multiset does not hold at its position is not)."""
        counts = self._counts
        held_of = counts.get
        skipped = []
        for index, sign, row in zip(count(), signs, rows):
            held = held_of(row, 0)
            if sign > 0:
                counts[row] = held + 1
            elif held > 1:
                counts[row] = held - 1
            elif held:
                del counts[row]
            else:
                skipped.append(index)  # as the batch SinkBolt ignores it
        if skipped:
            keep = sorted(set(range(len(signs))).difference(skipped))
            return [signs[i] for i in keep], [rows[i] for i in keep]
        return signs, rows

    def _fan_out(self, subscriptions: Tuple[Subscription, ...],
                 chunk: Chunk):
        """Publish one chunk of deltas to every subscriber ring."""
        dead: List[Subscription] = []
        for subscription in subscriptions:
            if not subscription._publish(chunk):
                dead.append(subscription)
        if dead:
            gone = set(dead)
            with self._lock:
                self._subscriptions = tuple(
                    subscription for subscription in self._subscriptions
                    if subscription not in gone)
                self.shed_count += sum(
                    subscription.overflowed for subscription in dead)
            for subscription in dead:
                subscription._fire_detach()

    def counts_snapshot(self) -> Dict[tuple, int]:
        """The result multiset as ``{row: count}`` -- the sink's state in
        a checkpoint's coordinator blob (the sink itself stays in the
        coordinator process and is never pickled whole: subscriptions
        hold live condition variables)."""
        with self._lock:
            return dict(self._counts)

    def rollback(self, counts: Dict[tuple, int]) -> int:
        """Reset the multiset to a checkpointed state; returns the number
        of compensating deltas published.

        Crash recovery rolls the sink back to the last consistent
        snapshot before replaying the post-checkpoint stream.  Open
        subscriptions are *not* torn down: they receive compensating
        ``-row``/``+row`` deltas (retractions first, rows in sorted
        order) whose net effect is exactly the rollback, so a
        subscriber's folded view stays convergent -- it may transiently
        observe the rewind, but never a wrong final multiset.
        """
        signs: List[int] = []
        rows: List[tuple] = []
        with self._lock:
            current = self._counts
            changed = sorted(set(current) | set(counts), key=repr)
            for sign in (-1, 1):  # retractions first
                for row in changed:
                    diff = counts.get(row, 0) - current.get(row, 0)
                    if diff * sign > 0:
                        signs.extend([sign] * abs(diff))
                        rows.extend([row] * abs(diff))
            self._counts = {
                row: held for row, held in counts.items() if held > 0}
            self.delta_count += len(signs)
            subscriptions = self._subscriptions
        if subscriptions and signs:
            self._fan_out(subscriptions, (signs, rows))
        return len(signs)

    def finish(self):
        """End of query: close every subscription."""
        with self._lock:
            self.completed = True
            subscriptions = self._subscriptions
            self._subscriptions = ()
        for subscription in subscriptions:
            subscription._close()
            subscription._fire_detach()
        return []

    # -- consumer side -----------------------------------------------------

    def subscribe(self, max_buffer: Optional[int] = None,
                  on_overflow: str = "shed", tenant: str = "default",
                  on_detach: Optional[Callable[[Subscription], None]] = None,
                  ) -> Subscription:
        """New subscription; starts with the current state as +deltas, so
        a late subscriber's replayed view converges to the same snapshot.

        ``max_buffer`` / ``on_overflow`` bound the subscriber's ring
        (see :class:`Subscription`); the defaults keep the legacy
        unbounded feed.  The catch-up is delivered in full even when it
        exceeds ``max_buffer`` (one bounded overshoot at attach) --
        otherwise a shed subscriber could never re-attach to a large
        resident result.  ``on_detach`` fires exactly once when the
        subscription leaves the sink -- shed, detached or closed -- the
        broker's refcounting hook."""
        subscription = Subscription(
            max_buffer=max_buffer, on_overflow=on_overflow, tenant=tenant,
            on_detach=on_detach)
        subscription._sink = self
        with self._lock:
            catch_up = [
                row for row, held in sorted(self._counts.items(), key=repr)
                for _ in range(held)
            ]
            completed = self.completed
            if catch_up:
                # published while still holding the sink lock: a
                # concurrent execute_batch cannot order a newer delta
                # batch ahead of this snapshot in the ring (a -row delta
                # sequenced before its +row would be silently dropped by
                # changelog semantics, leaving the subscriber's converged
                # multiset permanently stale).  force=True never blocks.
                subscription._publish(([1] * len(catch_up), catch_up),
                                      force=True)
            if not completed:
                self._subscriptions += (subscription,)
        if completed:
            subscription._close()
            subscription._fire_detach()
        return subscription

    def detach(self, subscription: Subscription):
        """Drop one subscription from the fan-out (consumer cancelled)."""
        with self._lock:
            self._subscriptions = tuple(
                other for other in self._subscriptions
                if other is not subscription)
        subscription._fire_detach()

    @property
    def subscriber_count(self) -> int:
        with self._lock:
            return len(self._subscriptions)

    def snapshot(self) -> List[tuple]:
        """The current result multiset, sorted (comparable across
        engines: equals ``sorted(RunResult.results)`` of the batch run
        once the sources are exhausted)."""
        with self._lock:
            rows: List[tuple] = []
            for row, held in self._counts.items():
                rows.extend([row] * held)
        return sorted(rows)
