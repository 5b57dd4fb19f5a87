"""Incremental result deltas: the subscriber-facing end of a live query.

A continuous query has no final result list; instead its sink maintains
the *current* result multiset and publishes every change as a
``(+row / -row)`` delta.  Consumers :meth:`~DeltaSink.subscribe` and
receive the deltas in order; :meth:`~DeltaSink.snapshot` is the current
multiset and -- once the sources are exhausted -- equals the batch
engine's answer for the same data (pinned by
``tests/test_streaming_equivalence.py``).

``DeltaSink`` consumes the streams the batch
:class:`~repro.engine.runner.SinkBolt` does -- rows on the data stream
are insertions, rows on the ``:retract`` stream remove one stored
instance (a retraction of a row that is not present is ignored, matching
the batch sink's compensation semantics) -- plus the ``:changes`` stream
of :class:`~repro.streaming.runner.DeltaAggBolt`, whose rows are
``(sign, row)`` pairs applied in sequence: one aggregation batch arrives
as one ordered changelog and is published with one fan-out.

Fan-out (the serving layer's delivery path): one sink serves N
subscribers, each through its own **bounded ring buffer**.  Publishing
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
import time
from collections import Counter, deque
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Deque, Dict, Iterator, List, Optional, Tuple


from repro.core.columnar import ColumnBatch
from repro.engine.runner import CHANGES_SUFFIX, RETRACT_SUFFIX
from repro.storm.topology import Bolt


@dataclass(frozen=True)
class Delta:
    """One change to the live result multiset."""

    sign: int  # +1 insertion, -1 retraction
    row: tuple

    def __str__(self):
        return f"{'+' if self.sign > 0 else '-'}{self.row}"


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
        max_buffer: bounded-ring capacity; ``None`` keeps the legacy
            unbounded feed.
        on_overflow: what happens when the consumer falls ``max_buffer``
            deltas behind -- ``'shed'`` (default) detaches this
            subscriber with a terminal :class:`SubscriberOverflow` and
            never stalls the pipeline; ``'block'`` backpressures the
            publisher instead.
        tenant: the tenant the serving counters attribute this feed to.
        track_latency: record publish-to-pop latencies (exposed through
            the serving stats).
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

        from repro.streaming.deltas import DeltaSink

        sink = DeltaSink()
        feed = sink.subscribe()
        sink.execute_batch("agg", "agg:changes", [
            (1, ("a", 1)), (-1, ("a", 1)), (1, ("a", 2))])
        assert [str(d) for d in feed.drain()] == [
            "+('a', 1)", "-('a', 1)", "+('a', 2)"]
        assert feed.drain() == [] and feed.backlog == 0
        assert feed.delivered == feed.published == 3
    """

    #: squall-lint lock-discipline contract: ring state is only touched
    #: while holding the condition (the PR 7 subscribe/fan-out race class)
    GUARDED_BY = {
        "_deltas": "_cond",
        "_closed": "_cond",
        "_overflowed": "_cond",
        "_detached": "_cond",
        "published": "_cond",
        "delivered": "_cond",
        "latencies": "_cond",
    }

    def __init__(self, max_buffer: Optional[int] = None,
                 on_overflow: str = "shed", tenant: str = "default",
                 track_latency: bool = False,
                 on_detach: Optional[Callable[["Subscription"], None]] = None):
        if max_buffer is not None and max_buffer < 1:
            raise ValueError(f"max_buffer must be >= 1, got {max_buffer}")
        if on_overflow not in ("shed", "block"):
            raise ValueError(
                f"on_overflow must be 'shed' or 'block', got {on_overflow!r}")
        self.max_buffer = max_buffer
        self.on_overflow = on_overflow
        self.tenant = tenant
        self._deltas: Deque[Delta] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._overflowed = False
        self._detached = False  # on_detach fired (exactly once)
        self._sink: Optional["DeltaSink"] = None
        self._on_detach = on_detach
        #: deltas that entered the ring / were popped by the consumer
        self.published = 0
        self.delivered = 0
        #: publish-to-ring delivery latencies (seconds), sampled when
        #: ``track_latency`` -- the serving benchmark's p99 source
        self.latencies: Optional[Deque[float]] = (
            deque(maxlen=65536) if track_latency else None)

    # -- sink side ---------------------------------------------------------

    def _publish(self, deltas: List[Delta],
                 produced_at: Optional[float] = None,
                 force: bool = False) -> bool:
        """Append deltas to the ring; False = drop me from the sink.

        Never blocks under ``on_overflow='shed'``: a full ring marks the
        subscription overflowed, clears it and returns False, so one
        stalled consumer costs the publisher a single flag write instead
        of a stall.  Under ``'block'`` the publisher waits for ring space
        (releasing it if the consumer detaches mid-wait).  ``force``
        (the catch-up path) bypasses the ring bound for both policies:
        the consumer has not received the handle yet, so a 'block' wait
        would deadlock and a 'shed' check would permanently lock out any
        subscriber whose catch-up snapshot alone exceeds ``max_buffer``
        -- the ring overshoots once at attach and is bounded
        thereafter."""
        with self._cond:
            if self._closed or self._overflowed:
                return False
            if self.max_buffer is None or force:
                self._deltas.extend(deltas)
                self.published += len(deltas)
            elif self.on_overflow == "shed":
                if len(self._deltas) + len(deltas) > self.max_buffer:
                    self._overflowed = True
                    self._deltas.clear()
                    self._cond.notify_all()
                    return False
                self._deltas.extend(deltas)
                self.published += len(deltas)
            else:  # block: lossless, chunked into whatever space frees up
                index = 0
                while index < len(deltas):
                    self._cond.wait_for(
                        lambda: len(self._deltas) < self.max_buffer
                        or self._closed)
                    if self._closed:
                        return False
                    space = self.max_buffer - len(self._deltas)
                    chunk = deltas[index:index + space]
                    self._deltas.extend(chunk)
                    self.published += len(chunk)
                    index += space
                    self._cond.notify_all()
            if self.latencies is not None and produced_at is not None:
                self.latencies.append(time.monotonic() - produced_at)
            self._cond.notify_all()
            return True

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
            return self._closed and not self._deltas

    @property
    def overflowed(self) -> bool:
        with self._cond:
            return self._overflowed

    @property
    def backlog(self) -> int:
        """Deltas published but not yet consumed (the delta lag)."""
        with self._cond:
            return len(self._deltas)

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
            lambda: self._deltas or self._closed or self._overflowed,
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
            if self._deltas:
                self._took(1)
                return self._deltas.popleft()
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
            if self._deltas:
                deltas = list(self._deltas)
                self._deltas.clear()
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

    Thread-safe (the threads executor runs it inside a worker while
    consumers read snapshots); drop-in replacement for the batch
    :class:`~repro.engine.runner.SinkBolt` in a streaming topology.

    The sink is the fan-out point of the serving layer: every delta
    batch is published to each attached :class:`Subscription`'s own
    ring, and subscriptions that report themselves dead (shed, closed,
    detached) are dropped from the fan-out list on the spot.

    A batch on a ``:changes`` stream is a signed changelog -- ``(sign,
    row)`` pairs, applied strictly in sequence under one lock
    acquisition and published with one fan-out.  Sequence matters: a
    ``-row`` is ignored unless the multiset holds the row *at that point
    of the batch*, so ``[(+1, r), (-1, r)]`` publishes both deltas and
    ``[(-1, r), (+1, r)]`` on an empty sink only the insertion.
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
        self._counts: Counter = Counter()
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

    def execute(self, source: str, stream: str, values: tuple):
        return self.execute_batch(source, stream, [values])

    def execute_batch(self, source: str, stream: str, rows):
        if isinstance(rows, ColumnBatch):
            # one materialization at the subscription boundary; the per-row
            # loop below then runs over plain tuples
            rows = rows.to_rows()
        if stream.endswith(CHANGES_SUFFIX):
            changes = rows
        else:
            changes = zip(
                repeat(-1 if stream.endswith(RETRACT_SUFFIX) else 1), rows)
        deltas: List[Delta] = []
        with self._lock:
            counts = self._counts
            for sign, row in changes:
                if sign > 0:
                    counts[row] += 1
                elif counts[row] > 0:
                    counts[row] -= 1
                    if not counts[row]:
                        del counts[row]
                else:
                    continue  # absent row: ignore, as the batch SinkBolt does
                deltas.append(Delta(sign, row))
            self.delta_count += len(deltas)
            subscriptions = self._subscriptions
        if subscriptions and deltas:
            self._fan_out(subscriptions, deltas)
        return []

    def _fan_out(self, subscriptions: Tuple[Subscription, ...],
                 deltas: List[Delta]):
        """Publish one delta batch to every subscriber ring."""
        produced_at = time.monotonic()
        dead: List[Subscription] = []
        for subscription in subscriptions:
            if not subscription._publish(deltas, produced_at):
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
        target = Counter(counts)
        deltas: List[Delta] = []
        with self._lock:
            current = self._counts
            for row in sorted(set(current) | set(target), key=repr):
                diff = target[row] - current[row]
                if diff < 0:
                    deltas.extend([Delta(-1, row)] * -diff)
            for row in sorted(set(current) | set(target), key=repr):
                diff = target[row] - current[row]
                if diff > 0:
                    deltas.extend([Delta(1, row)] * diff)
            self._counts = Counter(
                {row: count for row, count in target.items() if count > 0})
            self.delta_count += len(deltas)
            subscriptions = self._subscriptions
        if subscriptions and deltas:
            self._fan_out(subscriptions, deltas)
        return len(deltas)

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
                  track_latency: bool = False,
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
            track_latency=track_latency, on_detach=on_detach)
        subscription._sink = self
        with self._lock:
            catch_up = [
                Delta(1, row)
                for row, count in sorted(self._counts.items(), key=repr)
                for _ in range(count)
            ]
            completed = self.completed
            if catch_up:
                # published while still holding the sink lock: a
                # concurrent execute_batch cannot order a newer delta
                # batch ahead of this snapshot in the ring (a -row delta
                # sequenced before its +row would be silently dropped by
                # changelog semantics, leaving the subscriber's converged
                # multiset permanently stale).  force=True never blocks.
                subscription._publish(catch_up, time.monotonic(),
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
            for row, count in self._counts.items():
                rows.extend([row] * count)
        return sorted(rows)
