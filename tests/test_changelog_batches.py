"""Changelog batches: the aggregation's deltas travel as one ordered
signed micro-batch from ``DeltaAggBolt`` through ``DeltaSink`` to the
subscriber, and the subscriber cannot tell.

Four contracts:

(a) **feed invariance** -- batch size, executor, batch layout and the
    thread that drives the pump change how many deltas travel together,
    never which deltas a group publishes or in which order;
(b) the **sink** applies a mixed-sign batch strictly in sequence;
(c) **structure** -- one aggregation batch is one sink batch, read off
    the topology counters (no timing);
(d) the **bulk drain** is ``pop`` in bulk: same counters, same terminal
    overflow -- and the query iterator built on it can be abandoned and
    resumed without losing a delta.
"""

import asyncio
import json
import sys
import threading
from collections import Counter, defaultdict

import pytest

from repro.core.columnar import COLUMNAR_MIN_BATCH
from repro.core.options import ExecutionOptions
from repro.engine.component import AggComponent
from repro.engine.operators import total
from repro.serving.server import DeltaServer
from repro.streaming import CallbackSource, DeltaSink, stream_plan
from repro.streaming.deltas import SubscriberOverflow
from repro.streaming.runner import DeltaAggBolt
from tests.batching_plans import (
    plan_snapshot_agg,
    plan_stream_count_sum,
    plan_stream_sliding,
    retraction_script,
)

BATCH_SIZES = [1, 7, 64, 512]
EXECUTORS = ["inline", "processes"]
#: the inline pump run by a thread the caller owns while the test's
#: thread consumes the subscription: the deltas cross threads only
#: through the sink's locks
CALLER_THREAD = "caller_thread"
#: the inline pump on the batch layout its batch size does not default
#: to: columnar below ``COLUMNAR_MIN_BATCH`` rows, rows from there up
OTHER_LAYOUT = "other_layout"
#: every way a feed is produced
FEEDS = [*EXECUTORS, CALLER_THREAD, OTHER_LAYOUT]
#: (batch size, feed) pairs: the other layout only where it differs, as
#: a one-row batch stays a row batch whatever the knob says
FEED_CASES = [(batch_size, feed) for batch_size in BATCH_SIZES
              for feed in FEEDS
              if (batch_size, feed) != (1, OTHER_LAYOUT)]


def run_count_sum(options):
    return stream_plan(plan_stream_count_sum(), options=options)


def run_sliding(options):
    return stream_plan(plan_stream_sliding(), options=options)


def run_retraction(options):
    source = CallbackSource(generator=iter(retraction_script()))
    return stream_plan(plan_stream_count_sum(), options=options,
                       sources={"events": source})


#: plans whose groups see their input in source order whatever the
#: batching, so the per-group feed is one pinned sequence
ORDERED_PLANS = {
    "count_sum": run_count_sum,
    "sliding": run_sliding,
    "retraction": run_retraction,
}


def options_for(feed, batch_size):
    if feed == "processes":
        return ExecutionOptions(executor=feed, batch_size=batch_size,
                                parallelism=2, checkpoint_interval=4)
    if feed == OTHER_LAYOUT:
        return ExecutionOptions(batch_size=batch_size,
                                columnar=batch_size < COLUMNAR_MIN_BATCH)
    return ExecutionOptions(executor="inline", batch_size=batch_size)


def ran_on_its_layout(query, feed, batch_size):
    """An ``OTHER_LAYOUT`` run really took the layout it asked for."""
    columnar_rows = query.cluster.metrics.columnar_rows
    if feed != OTHER_LAYOUT:
        return True
    if batch_size < COLUMNAR_MIN_BATCH:
        return columnar_rows > 0
    return columnar_rows == 0


def fold_checked(deltas):
    """Fold a feed into its multiset, failing on the first retraction of
    a row the prefix before it does not hold."""
    state = Counter()
    for index, delta in enumerate(deltas):
        if delta.sign < 0:
            assert state[delta.row] > 0, (
                f"delta {index} retracts {delta.row}, absent from the "
                f"fold of the feed before it")
            state[delta.row] -= 1
        else:
            state[delta.row] += 1
    return sorted(state.elements())


def per_group(deltas, n_group=1):
    feed = defaultdict(list)
    for delta in deltas:
        feed[delta.row[:n_group]].append((delta.sign, delta.row))
    return dict(feed)


def drive(build, feed, batch_size):
    query = build(options_for(feed, batch_size))
    if feed == CALLER_THREAD:
        return query, consume_while_pumped_elsewhere(query)
    deltas = list(query)  # subscribes before the first pump round
    return query, deltas


def consume_while_pumped_elsewhere(query):
    """``query.run()`` in a thread the caller owns -- the background
    progress a driver thread gives the broker -- while this thread
    drains the subscription as the rounds publish."""
    subscription = query.subscription  # before the first pump round
    errors = []

    def pump():
        try:
            query.run()
        except BaseException as error:  # re-raised in the test's thread
            errors.append(error)

    thread = threading.Thread(target=pump)
    thread.start()
    deltas = []
    while thread.is_alive():
        deltas.extend(subscription.drain(block=True, timeout=0.05))
    thread.join()
    if errors:
        raise errors[0]
    deltas.extend(subscription.drain())  # published after the last poll
    assert subscription.closed
    return deltas


class TestFeedInvariance:
    @pytest.fixture(scope="class")
    def reference_feeds(self):
        feeds = {}
        for name, build in ORDERED_PLANS.items():
            query, deltas = drive(build, "inline", 1)
            feeds[name] = (per_group(deltas), query.stats()["deltas"],
                           query.snapshot())
        return feeds

    @pytest.mark.parametrize("batch_size,feed", FEED_CASES)
    @pytest.mark.parametrize("plan_name", sorted(ORDERED_PLANS))
    def test_per_group_feed_equals_per_tuple_inline(
            self, reference_feeds, plan_name, batch_size, feed):
        groups, total, snapshot = reference_feeds[plan_name]
        query, deltas = drive(ORDERED_PLANS[plan_name], feed, batch_size)
        assert total > 0  # not vacuous
        assert ran_on_its_layout(query, feed, batch_size)
        assert query.stats()["deltas"] == total == len(deltas)
        assert per_group(deltas) == groups
        assert fold_checked(deltas) == snapshot == query.snapshot()

    def test_reference_feeds_exercise_retraction_and_rebirth(
            self, reference_feeds):
        groups, _total, _snapshot = reference_feeds["retraction"]
        # the group that died and was reborn, and the one retracted first
        assert groups[(77,)] == [(1, (77, 1, 3)), (-1, (77, 1, 3)),
                                 (1, (77, 1, 4))]
        assert groups[(88,)] == [(1, (88, -1, -5)), (-1, (88, -1, -5))]
        sliding, _total, _snapshot = reference_feeds["sliding"]
        assert any(sign < 0 for feed in sliding.values()
                   for sign, _row in feed)

    @pytest.mark.parametrize("batch_size,feed", FEED_CASES)
    def test_join_plan_publishes_every_pair(self, batch_size, feed):
        """Behind a join a group's rows arrive in a batching-dependent
        order, so only what does not depend on it is pinned: no delta is
        netted away, no prefix retracts an absent row, and the feed
        folds to the snapshot."""
        reference = stream_plan(
            plan_snapshot_agg(), options=options_for("inline", 1)).run()
        query, deltas = drive(
            lambda options: stream_plan(plan_snapshot_agg(),
                                        options=options),
            feed, batch_size)
        assert ran_on_its_layout(query, feed, batch_size)
        assert len(deltas) == query.stats()["deltas"] \
            == reference.stats()["deltas"]
        assert fold_checked(deltas) == query.snapshot() \
            == reference.snapshot()


class TestUpsertChangelog:
    def test_zero_sum_group_is_alive_until_its_rows_cancel_out(self):
        """SUM-only: a live group at zero prints the row a dead group
        would; only the second must retract without re-inserting."""
        bolt = DeltaAggBolt(AggComponent(
            "agg", group_positions=[0], aggregates=[total(1)]))
        assert bolt.execute_batch("J", "J", [("a", 4), ("a", -4)]) == [
            ("agg:changes", (1, ("a", 4))),
            ("agg:changes", (-1, ("a", 4))),
            ("agg:changes", (1, ("a", 0))),
        ]
        assert bolt.execute_batch(
            "J", "J:retract", [("a", 4), ("a", -4), ("a", 1)]) == [
            ("agg:changes", (-1, ("a", 0))),
            ("agg:changes", (1, ("a", -4))),
            ("agg:changes", (-1, ("a", -4))),      # died
            ("agg:changes", (1, ("a", -1))),       # reborn, never netted
        ]


class TestSignedBatchSink:
    def test_absent_retraction_is_ignored_mid_batch(self):
        sink = DeltaSink()
        feed = sink.subscribe()
        sink.execute_batch("agg", "agg:changes", [
            (1, ("a",)), (-1, ("b",)), (1, ("b",)), (-1, ("a",))])
        assert [str(delta) for delta in feed.drain()] == [
            "+('a',)", "+('b',)", "-('a',)"]
        assert sink.snapshot() == [("b",)]
        assert sink.delta_count == 3

    def test_retract_then_insert_of_the_same_row(self):
        """Sequence inside the batch is the contract: ``-r`` counts only
        if the multiset holds ``r`` at that point of the batch."""
        held = DeltaSink()
        held.execute_batch("agg", "agg", [("r",)])
        feed = held.subscribe()
        assert [d.sign for d in feed.drain()] == [1]  # the catch-up
        held.execute_batch("agg", "agg:changes", [(-1, ("r",)), (1, ("r",))])
        assert [(d.sign, d.row) for d in feed.drain()] == [
            (-1, ("r",)), (1, ("r",))]
        assert held.snapshot() == [("r",)]

        empty = DeltaSink()
        feed = empty.subscribe()
        empty.execute_batch("agg", "agg:changes", [(-1, ("r",)), (1, ("r",))])
        assert [(d.sign, d.row) for d in feed.drain()] == [(1, ("r",))]
        assert empty.snapshot() == [("r",)]

    def test_signed_and_plain_streams_share_one_multiset(self):
        sink = DeltaSink()
        sink.execute_batch("J", "J", [(1,), (2,)])
        sink.execute_batch("J", "J:changes", [(-1, (1,)), (1, (3,))])
        sink.execute_batch("J", "J:retract", [(2,), (9,)])
        assert sink.snapshot() == [(3,)]
        assert sink.delta_count == 5

    def test_late_subscribe_racing_signed_batches_converges(self):
        """The PR 7 race class on the signed path: a subscriber attaching
        while upsert changelogs are published must see its catch-up
        ordered ahead of every later batch, or a ``-old`` sequenced
        before the snapshot's ``+old`` would be dropped by the mirror
        below and ``old`` would stay forever."""
        sink = DeltaSink()
        stop = threading.Event()

        def pump():
            version = 0
            sink.execute_batch("agg", "agg:changes",
                               [(1, (key, 0)) for key in range(5)])
            while not stop.is_set():
                sink.execute_batch("agg", "agg:changes", [
                    change for key in range(5)
                    for change in ((-1, (key, version)),
                                   (1, (key, version + 1)))])
                version += 1
            sink.finish()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        thread = threading.Thread(target=pump)
        thread.start()
        try:
            subscriptions = [sink.subscribe() for _ in range(25)]
        finally:
            stop.set()
            thread.join(timeout=10.0)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        expected = sink.snapshot()
        assert len(expected) == 5
        for subscription in subscriptions:
            mirror = Counter()
            for delta in subscription:
                if delta.sign > 0:
                    mirror[delta.row] += 1
                elif mirror[delta.row] > 0:
                    mirror[delta.row] -= 1
            assert sorted(mirror.elements()) == expected

    def test_rollback_after_signed_batches(self):
        sink = DeltaSink()
        feed = sink.subscribe()
        sink.execute_batch("agg", "agg:changes",
                           [(1, ("a", 1)), (1, ("b", 1))])
        checkpoint = sink.counts_snapshot()
        sink.execute_batch("agg", "agg:changes", [
            (-1, ("a", 1)), (1, ("a", 2)), (-1, ("b", 1))])
        assert sink.snapshot() == [("a", 2)]
        assert sink.rollback(checkpoint) == 3
        assert sink.snapshot() == [("a", 1), ("b", 1)]
        seen = feed.drain()
        assert fold_checked(seen) == sink.snapshot()
        # the replayed batch applies to the rewound state as it first did
        sink.execute_batch("agg", "agg:changes", [
            (-1, ("a", 1)), (1, ("a", 2)), (-1, ("b", 1))])
        assert fold_checked(seen + feed.drain()) == [("a", 2)]

    def test_one_large_signed_batch_sheds_a_bounded_ring(self):
        sink = DeltaSink()
        detached = []
        bounded = sink.subscribe(max_buffer=8, on_overflow="shed",
                                 on_detach=detached.append)
        unbounded = sink.subscribe()
        sink.execute_batch("agg", "agg:changes",
                           [(1, (i,)) for i in range(20)])
        assert bounded.overflowed and detached == [bounded]
        assert sink.shed_count == 1 and sink.subscriber_count == 1
        with pytest.raises(SubscriberOverflow):
            bounded.pop()
        assert len(unbounded.drain()) == 20
        # the fan-out list is replaced, never mutated: the survivor stays
        sink.execute_batch("agg", "agg:changes", [(-1, (0,))])
        assert [str(d) for d in unbounded.drain()] == ["-(0,)"]


class TestOneSinkBatchPerAggBatch:
    @pytest.mark.parametrize("feed", [*EXECUTORS, OTHER_LAYOUT])
    def test_join_plan_sink_batches_bounded_by_agg_batches(self, feed):
        """Timing-free regression for the dataplane shape: the changelog
        of one aggregation batch is one routed work item, so the sink
        never executes more batches than the aggregation tasks did (+ the
        flush) -- on alternating ``-old``/``+new`` streams it executed
        one per delta."""
        query = stream_plan(plan_snapshot_agg(),
                            options=options_for(feed, 512)).run()
        assert ran_on_its_layout(query, feed, 512)
        metrics = query.cluster.metrics
        agg_batches = sum(metrics.batch_counts("agg"))
        sink_batches = sum(metrics.batch_counts("sink"))
        deltas = query.stats()["deltas"]
        assert agg_batches > 0 and deltas > 4 * agg_batches  # not vacuous
        assert sink_batches <= agg_batches + 1
        assert metrics.component_input("sink") == deltas


class TestBulkDrain:
    def test_counters_stay_consistent_with_pop(self):
        sink = DeltaSink()
        feed = sink.subscribe(max_buffer=64)
        sink.execute_batch("J", "J", [(i,) for i in range(10)])
        assert (feed.published, feed.delivered, feed.backlog) == (10, 0, 10)
        assert feed.pop().row == (0,)
        assert [d.row for d in feed.drain()] == [(i,) for i in range(1, 10)]
        assert (feed.published, feed.delivered, feed.backlog) == (10, 10, 0)
        assert feed.drain() == [] and feed.pop() is None
        assert feed.drain(block=True, timeout=0.01) == []
        sink.finish()
        assert feed.closed and feed.drain(block=True) == []

    def test_raises_overflow_exactly_as_pop(self):
        sink = DeltaSink()
        first = sink.subscribe(max_buffer=4)
        second = sink.subscribe(max_buffer=4)
        sink.execute_batch("J", "J", [(i,) for i in range(5)])
        with pytest.raises(SubscriberOverflow) as by_pop:
            first.pop()
        with pytest.raises(SubscriberOverflow) as by_drain:
            second.drain()
        assert str(by_pop.value) == str(by_drain.value)
        with pytest.raises(SubscriberOverflow):  # terminal, not one-shot
            second.drain(block=True, timeout=0.01)
        assert second.delivered == 0 and second.backlog == 0

    def test_drain_releases_a_blocked_publisher(self):
        """Stress: more publisher/consumer hand-offs than ring slots, a
        short switch interval; a lost wake-up deadlocks and the bounded
        joins fail, a lost delta breaks the count."""
        sink = DeltaSink()
        feed = sink.subscribe(max_buffer=4, on_overflow="block")
        total = 2000

        def publish():
            for start in range(0, total, 10):
                sink.execute_batch(
                    "J", "J", [(i,) for i in range(start, start + 10)])
            sink.finish()

        got = []

        def consume():
            while not feed.closed:
                got.extend(feed.drain(block=True, timeout=0.05))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=publish),
                   threading.Thread(target=consume)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [d.row for d in got] == [(i,) for i in range(total)]
        assert feed.published == feed.delivered == total


class TestIterationResumes:
    """The query's iterator reads the ring in bulk; the chunk it read
    ahead must survive the iterator."""

    @pytest.mark.parametrize("batch_size,feed", [
        (batch_size, feed) for batch_size in [1, 64, 512]
        for feed in [*EXECUTORS, OTHER_LAYOUT]
        if (batch_size, feed) != (1, OTHER_LAYOUT)])
    def test_break_and_resume_delivers_every_delta_once(
            self, batch_size, feed):
        _query, reference = drive(run_count_sum, "inline", 1)
        query = run_count_sum(options_for(feed, batch_size))
        seen = []
        for take in (3, 1, 40):  # abandon three iterators mid-chunk
            for delta in query:
                seen.append(delta)
                take -= 1
                if not take:
                    break
        assert len(seen) == 44
        seen.extend(query)
        assert len(seen) == len(reference) == query.stats()["deltas"]
        assert per_group(seen) == per_group(reference)
        assert fold_checked(seen) == query.snapshot()
        assert ran_on_its_layout(query, feed, batch_size)
        subscription = query.subscription
        assert subscription.delivered == subscription.published
        assert subscription.backlog == 0

    def test_two_live_iterators_share_one_ordered_feed(self):
        _query, reference = drive(run_count_sum, "inline", 64)
        query = run_count_sum(options_for("inline", 64))
        first, second = iter(query), iter(query)
        seen = []
        for _ in range(10):
            seen.append(next(first))
            seen.append(next(second))
        seen.extend(second)
        assert list(first) == []
        assert [(d.sign, d.row) for d in seen] == [
            (d.sign, d.row) for d in reference]


class _Writer:
    """Collects what a DeltaServer connection would have sent."""

    def __init__(self):
        self.frames = []
        self.flushes = 0

    def write(self, data):
        self.frames.append(data)

    def writelines(self, chunks):
        self.frames.extend(chunks)

    async def drain(self):
        self.flushes += 1


class _Feed:
    """A bare Subscription with the stats() a brokered one adds."""

    def __init__(self, subscription):
        self.drain = subscription.drain
        self._subscription = subscription

    @property
    def closed(self):
        return self._subscription.closed

    def stats(self):
        return {"delivered": self._subscription.delivered}


def _decode(frames):
    out = []
    for frame in frames:
        event, data, _blank = frame.decode().split("\n", 2)
        out.append((event.split(": ", 1)[1],
                    json.loads(data.split(": ", 1)[1])))
    return out


class TestDeltaServerChunks:
    def test_same_frames_same_order_one_flush_per_chunk(self):
        sink = DeltaSink()
        subscription = sink.subscribe()
        sink.execute_batch("agg", "agg:changes", [
            (1, ("a", 1)), (-1, ("a", 1)), (1, ("a", 2))])
        sink.execute_batch("agg", "agg:changes", [(1, ("b", 1))])
        sink.finish()
        writer = _Writer()
        server = DeltaServer(catalog=None, poll_timeout=0.01)
        asyncio.run(server._push_deltas(writer, _Feed(subscription)))
        assert _decode(writer.frames) == [
            ("delta", {"sign": 1, "row": ["a", 1]}),
            ("delta", {"sign": -1, "row": ["a", 1]}),
            ("delta", {"sign": 1, "row": ["a", 2]}),
            ("delta", {"sign": 1, "row": ["b", 1]}),
            ("end", {"stats": {"delivered": 4}}),
        ]
        assert writer.flushes == 2  # the buffered chunk, then the end

    def test_a_large_backlog_is_flushed_in_bounded_slices(self):
        from repro.serving.server import FLUSH_FRAMES

        total = 2 * FLUSH_FRAMES + 10
        sink = DeltaSink()
        subscription = sink.subscribe()  # unbounded ring
        sink.execute_batch("agg", "agg:changes",
                           [(1, (i,)) for i in range(total)])
        sink.finish()

        class Bounded(_Writer):
            unflushed = largest = 0

            def writelines(self, chunks):
                super().writelines(chunks)
                self.unflushed += len(chunks)
                self.largest = max(self.largest, self.unflushed)

            async def drain(self):
                await super().drain()
                self.unflushed = 0

        writer = Bounded()
        server = DeltaServer(catalog=None, poll_timeout=0.01)
        asyncio.run(server._push_deltas(writer, _Feed(subscription)))
        frames = _decode(writer.frames)
        assert [data["row"] for kind, data in frames[:-1]] == [
            [i] for i in range(total)]
        assert frames[-1][0] == "end"
        assert writer.largest == FLUSH_FRAMES
        assert writer.flushes == 3 + 1  # three slices, then the end

    def test_overflow_is_still_the_terminal_error_frame(self):
        sink = DeltaSink()
        subscription = sink.subscribe(max_buffer=2)
        sink.execute_batch("agg", "agg:changes",
                           [(1, (i,)) for i in range(3)])
        writer = _Writer()
        server = DeltaServer(catalog=None, poll_timeout=0.01)
        asyncio.run(server._push_deltas(writer, _Feed(subscription)))
        [(kind, payload)] = _decode(writer.frames)
        assert kind == "error"
        assert payload["error"] == "subscriber_overflow"
