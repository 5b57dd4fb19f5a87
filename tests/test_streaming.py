"""Unit tests for the continuous streaming runtime (repro.streaming)."""

import math
import random
import threading
from collections import Counter

import pytest

from repro.core.optimizer import OptimizerOptions
from repro.core.options import ExecutionOptions
from repro.core.schema import Relation, Schema
from repro.engine.component import AggComponent, PhysicalPlan, SourceComponent
from repro.engine.operators import count, total
from repro.engine.runner import run_plan
from repro.engine.windows import WindowClause, WindowSpec
from repro.sql.catalog import SqlSession
from repro.storm import cluster as storm_cluster
from repro.storm.executor import ExecutorError
from repro.storm.metrics import StreamMetrics
from repro.streaming import (
    Backpressure,
    CallbackSource,
    DeltaSink,
    ReplaySource,
    StreamingCluster,
    WatermarkTracker,
    stream_plan,
)
from repro.streaming.cluster import IDLE_SLEEP
from tests.conftest import changelog, retracting


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_events(n=200, keys=4, seed=3):
    rng = random.Random(seed)
    rows = [(ts, rng.randrange(keys), rng.randrange(10)) for ts in range(n)]
    return Relation("events", Schema.of("ts", "key", "value"), rows)


def sliding_agg_plan(events, size=50, parallelism=2):
    return PhysicalPlan(
        sources=[SourceComponent("events", events)],
        joins=[],
        aggregation=AggComponent(
            "agg", group_positions=[1], aggregates=[count(), total(2)],
            parallelism=parallelism,
            window=WindowSpec.sliding(size, ts_positions={"": 0}),
        ),
    )


def polled_rows(emissions):
    """A replay poll as ``(stream, rows)``."""
    return emissions.stream, emissions.batch.to_rows()


class TestReplaySource:
    def test_replays_rows_in_order_on_the_relation_stream(self):
        source = ReplaySource([(1,), (2,), (3,)], stream="R")
        assert polled_rows(source.poll(2)) == ("R", [(1,), (2,)])
        assert not source.exhausted()
        assert polled_rows(source.poll(5)) == ("R", [(3,)])
        assert source.exhausted()
        assert source.poll(5) == []

    def test_a_stripe_replays_every_step_th_row_from_start(self):
        rows = [(i,) for i in range(11)]
        stripes = [ReplaySource(rows, stream="R", start=task, step=3)
                   for task in range(3)]
        polled = []
        for task, stripe in enumerate(stripes):
            first = polled_rows(stripe.poll(2))
            assert first == ("R", rows[task:task + 6:3])
            rest = stripe.poll(10)
            assert stripe.exhausted()
            polled.append(first[1] + rest.batch.to_rows())
        assert polled == [rows[0::3], rows[1::3], rows[2::3]]
        assert stripes[0].poll(10) == []

    def test_take_reads_past_the_rows_keep_rejects(self):
        source = ReplaySource([(i,) for i in range(10)], stream="R",
                              start=1, step=2)
        keep = lambda row: row[0] > 4  # noqa: E731
        assert source.take(2, keep) == ([(5,), (7,)], 4)
        assert source.take(2, keep) == ([(9,)], 1)
        assert source.exhausted()
        assert source.take(2) == ([], 0)

    def test_a_rate_limit_bounds_the_rows_take_reads(self):
        clock = FakeClock()
        source = ReplaySource([(i,) for i in range(100)], stream="R",
                              rate=10, clock=clock)
        keep = lambda row: row[0] >= 8  # noqa: E731
        assert source.take(5, keep) == ([(8,), (9,)], 10)
        assert source.take(5, keep) == ([], 0)  # bucket drained

    def test_rate_limit_is_a_token_bucket_over_the_clock(self):
        clock = FakeClock()
        source = ReplaySource([(i,) for i in range(100)], stream="R",
                              rate=10, clock=clock)
        first = source.poll(50)  # initial burst = one second of tokens
        assert len(first) == 10
        assert source.poll(50) == []  # bucket drained
        clock.advance(0.5)
        assert len(source.poll(50)) == 5  # half a second -> 5 tokens
        clock.advance(100)
        # tokens cap at one second's burst, however long the pause
        assert len(source.poll(50)) == 10

    def test_sub_unit_rate_still_makes_progress(self):
        """Regression: a rate below 1 row/sec must not livelock -- the
        bucket holds at least one whole token."""
        clock = FakeClock()
        source = ReplaySource([(1,), (2,)], stream="R", rate=0.5, clock=clock)
        assert len(source.poll(10)) == 1  # one banked token at start
        assert source.poll(10) == []
        clock.advance(2.0)  # half a row per second -> one row per 2s
        assert len(source.poll(10)) == 1
        assert source.exhausted()

    def test_watermark_tracks_emitted_event_time(self):
        source = ReplaySource([(5, "a"), (9, "b")], stream="R", ts_position=0)
        assert source.watermark() is None  # no promise before emitting
        source.poll(1)
        assert source.watermark() == 5
        source.poll(1)
        assert source.watermark() == 9

    def test_source_without_event_time_never_constrains(self):
        source = ReplaySource([(1,)], stream="R")
        assert source.watermark() == math.inf

    @pytest.mark.parametrize("rate", [0, math.inf, math.nan])
    def test_rejects_non_positive_rate(self, rate):
        """A rate that is not a positive finite number is refused up
        front, not in the first poll's token count."""
        with pytest.raises(ValueError):
            ReplaySource([], stream="R", rate=rate)


class TestCallbackSource:
    def test_generator_mode_drains_lazily(self):
        source = CallbackSource(iter([("S", (1,)), ("S", (2,))]))
        assert source.poll(1) == [("S", (1,))]
        assert not source.exhausted()
        assert source.poll(5) == [("S", (2,))]
        source.poll(1)
        assert source.exhausted()

    def test_a_generator_that_ends_exactly_at_max_rows(self):
        pulled = []

        def emissions():
            for i in range(4):
                pulled.append(i)
                yield ("S", (i,))

        source = CallbackSource(emissions())
        assert source.poll(2) == [("S", (0,)), ("S", (1,))]
        assert pulled == [0, 1]  # nothing pulled ahead of the poll
        assert source.poll(2) == [("S", (2,)), ("S", (3,))]
        # the pull that emptied the generator never saw it end: the
        # next, empty, pull does
        assert not source.exhausted()
        assert source.poll(2) == []
        assert source.exhausted()

    def test_push_then_close(self):
        source = CallbackSource()
        source.push((1,), stream="S")
        source.push((2,), stream="S")
        source.close()
        assert source.poll(10) == [("S", (1,)), ("S", (2,))]
        assert source.exhausted()
        with pytest.raises(RuntimeError):
            source.push((3,))

    def test_nonblocking_push_raises_backpressure_when_full(self):
        source = CallbackSource(capacity=2)
        source.push((1,))
        source.push((2,))
        with pytest.raises(Backpressure):
            source.push((3,), block=False)

    def test_blocking_push_waits_for_the_consumer(self):
        source = CallbackSource(capacity=1)
        source.push((1,))
        done = []

        def producer():
            source.push((2,))  # blocks until the consumer polls
            done.append(True)

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        assert source.poll(1) == [("default", (1,))]
        thread.join(timeout=5)
        assert done == [True]
        assert source.poll(1) == [("default", (2,))]

    def test_manual_watermarks(self):
        source = CallbackSource(manual_watermarks=True)
        assert source.watermark() is None
        source.set_watermark(7)
        assert source.watermark() == 7


class TestWatermarkTracker:
    def test_merged_undefined_until_every_input_reports(self):
        tracker = WatermarkTracker()
        tracker.register("a")
        tracker.register("b")
        tracker.update("a", 10)
        assert tracker.merged() is None
        tracker.update("b", 4)
        assert tracker.merged() == 4

    def test_watermarks_never_regress(self):
        tracker = WatermarkTracker()
        tracker.register("a")
        tracker.update("a", 10)
        tracker.update("a", 3)
        assert tracker.merged() == 10

    def test_done_input_stops_constraining(self):
        tracker = WatermarkTracker()
        tracker.register("a")
        tracker.register("b")
        tracker.update("a", 2)
        tracker.mark_done("a")
        tracker.update("b", 9)
        assert tracker.merged() == 9

    def test_infinite_watermark_is_not_end_of_stream(self):
        """Regression: a timestamp-less input promises inf while still
        having data in flight -- all_done must track EOS explicitly, or
        the sink exits early and the pipeline deadlocks."""
        tracker = WatermarkTracker()
        tracker.register("a")
        tracker.register("b")
        tracker.update("a", math.inf)
        tracker.update("b", math.inf)
        assert tracker.merged() == math.inf
        assert not tracker.all_done()
        tracker.mark_done("a")
        assert tracker.is_done("a") and not tracker.is_done("b")
        assert not tracker.all_done()
        tracker.mark_done("b")
        assert tracker.all_done()


class TestDeltaSink:
    def test_insert_and_retract_maintain_the_multiset(self):
        sink = DeltaSink()
        sink.execute_batch("J", "J", [(1,), (1,), (2,)])
        sink.execute_batch("J", "J", retracting([(1,), (9,)]))  # (9,) ignored
        assert sink.snapshot() == [(1,), (2,)]

    def test_subscription_sees_deltas_in_order(self):
        sink = DeltaSink()
        subscription = sink.subscribe()
        sink.execute_batch("J", "J", [(1,)])
        sink.execute_batch("J", "J", retracting([(1,)]))
        sink.finish()
        deltas = [(d.sign, d.row) for d in subscription]
        assert deltas == [(1, (1,)), (-1, (1,))]
        assert subscription.closed

    def test_delta_is_a_sign_row_tuple(self):
        import pickle

        from repro.streaming import Delta

        delta = Delta(-1, ("a", 2))
        assert (delta.sign, delta.row) == (-1, ("a", 2))
        assert str(delta) == "-('a', 2)" and str(Delta(1, (3,))) == "+(3,)"
        assert repr(delta) == "Delta(sign=-1, row=('a', 2))"
        assert delta == Delta(-1, ("a", 2)) != Delta(1, ("a", 2))
        assert hash(delta) == hash(Delta(-1, ("a", 2)))
        assert len({delta, Delta(-1, ("a", 2))}) == 1
        clone = pickle.loads(pickle.dumps(delta))
        assert type(clone) is Delta and clone == delta

    def test_pop_and_drain_cross_chunk_boundaries(self):
        sink = DeltaSink()
        feed = sink.subscribe(max_buffer=5, on_overflow="block")
        sink.execute_batch("J", "J", [(1,), (2,)])
        sink.execute_batch("J", "J", changelog([(1, (3,)), (-1, (1,))]))
        assert feed.backlog == 4  # the bound counts deltas, not chunks
        assert str(feed.pop()) == "+(1,)"
        assert [str(d) for d in feed.drain()] == ["+(2,)", "+(3,)", "-(1,)"]
        sink.execute_batch("J", "J", [(4,), (5,)])
        assert [str(feed.pop()), str(feed.pop())] == ["+(4,)", "+(5,)"]
        assert feed.pop() is None and feed.backlog == 0
        assert feed.published == feed.delivered == 6

    def test_late_subscriber_catches_up_with_current_state(self):
        sink = DeltaSink()
        sink.execute_batch("J", "J", [(1,), (2,), (2,)])
        subscription = sink.subscribe()
        sink.finish()
        replayed = [(d.sign, d.row) for d in subscription]
        assert sorted(r for _s, r in replayed) == [(1,), (2,), (2,)]
        assert all(sign == 1 for sign, _row in replayed)

    def test_catch_up_larger_than_ring_is_not_shed(self):
        """Regression: a bounded 'shed' subscriber attaching to a result
        bigger than its ring must receive the full catch-up snapshot
        (one overshoot at attach), not an instant lockout where every
        re-subscribe sheds again."""
        sink = DeltaSink()
        sink.execute_batch("J", "J", [(i,) for i in range(100)])
        subscription = sink.subscribe(max_buffer=8, on_overflow="shed")
        assert not subscription.overflowed
        drained = [subscription.pop() for _ in range(100)]
        assert all(d is not None and d.sign == 1 for d in drained)
        # once the overshoot is drained the ring is bounded again
        sink.execute_batch("J", "J", [(i,) for i in range(9)])
        assert subscription.overflowed

    def test_subscribe_concurrent_with_pump_converges(self):
        """Regression: the catch-up snapshot is ordered into the ring
        under the sink lock.  If a concurrent publisher could slip a
        delta batch ahead of the catch-up, a -row sequenced before its
        +row would be dropped by changelog semantics and the
        subscriber's converged multiset would keep the retracted row."""
        sink = DeltaSink()
        stop = threading.Event()

        def pump():
            i = 0
            while not stop.is_set():
                sink.execute_batch(
                    "J", "J", [((i + j) % 7,) for j in range(3)])
                sink.execute_batch("J", "J", retracting([((i + 3) % 7,)]))
                i += 1
            sink.finish()

        thread = threading.Thread(target=pump)
        thread.start()
        try:
            subscriptions = [sink.subscribe() for _ in range(25)]
        finally:
            stop.set()
            thread.join()
        expected = sink.snapshot()
        for subscription in subscriptions:
            counts = Counter()
            for delta in subscription:
                if delta.sign > 0:
                    counts[delta.row] += 1
                elif counts[delta.row] > 0:
                    counts[delta.row] -= 1
                # a retraction of an absent row is dropped -- the
                # client-side mirror that makes mis-ordering visible
            assert sorted(counts.elements()) == expected


class TestStreamMetrics:
    def test_throughput_over_trailing_window(self):
        clock = FakeClock()
        metrics = StreamMetrics(clock=clock, horizon=10.0)
        metrics.record_events(100)
        clock.advance(2.0)
        metrics.record_events(100)
        assert metrics.events_per_second() == pytest.approx(100.0)

    def test_lag_is_event_time_minus_watermark(self):
        metrics = StreamMetrics(clock=FakeClock())
        assert metrics.event_time_lag() is None
        metrics.record_events(1, event_time=120)
        metrics.record_watermark(100)
        assert metrics.event_time_lag() == 20

    def test_snapshot_fields(self):
        metrics = StreamMetrics(clock=FakeClock())
        snapshot = metrics.snapshot()
        assert {"events", "events_per_sec", "watermark",
                "event_time_lag", "uptime_sec"} <= set(snapshot)


class TestStreamingClusterValidation:
    def test_unknown_executor_rejected(self):
        plan = sliding_agg_plan(make_events(10))
        with pytest.raises(ValueError, match="fibers"):
            stream_plan(plan, options=ExecutionOptions(executor="fibers"))

    def test_processes_refuse_adaptive_partitioners(self):
        from repro.core.predicates import EquiCondition, JoinSpec, RelationInfo
        from repro.engine.component import JoinComponent
        from repro.partitioning.adaptive import AdaptiveOneBucket

        rows = [(i, i % 5) for i in range(20)]
        R = Relation("R", Schema.of("x", "y"), rows)
        S = Relation("S", Schema.of("y", "z"), rows)
        spec = JoinSpec(
            [RelationInfo("R", R.schema, 20), RelationInfo("S", S.schema, 20)],
            [EquiCondition(("R", "y"), ("S", "y"))],
        )
        plan = PhysicalPlan(
            sources=[SourceComponent("R", R), SourceComponent("S", S)],
            joins=[JoinComponent("J", spec, machines=4,
                                 scheme=AdaptiveOneBucket("R", "S", machines=4))],
        )
        with pytest.raises(ExecutorError) as excinfo:
            stream_plan(plan, options=ExecutionOptions(executor="processes"))
        assert "AdaptiveOneBucket" in str(excinfo.value)
        assert "executor='inline'" in str(excinfo.value)
        # the inline streaming executor still runs it
        query = stream_plan(
            plan, options=ExecutionOptions(executor="inline")).run()
        assert query.snapshot() == sorted(run_plan(plan).results)

    def test_sources_must_match_spouts(self):
        """A push source named for no source of the plan is refused, not
        ignored (the stored relation would be replayed in its place)."""
        plan = sliding_agg_plan(make_events(10))
        with pytest.raises(ValueError, match="source components"):
            stream_plan(plan, sources={
                "evnts": ReplaySource([], stream="evnts")})

    def test_a_streaming_source_is_one_pump(self):
        """A stored relation's batch spouts (one pump per stripe) do not
        make a streaming topology: a streaming source is one pump."""
        plan = sliding_agg_plan(make_events(10))
        plan.sources[0].parallelism = 2
        from repro.engine.runner import build_topology
        from repro.streaming.runner import DeltaAggBolt

        topology, _ = build_topology(
            plan, agg_bolt_factory=DeltaAggBolt,
            sink_factory=lambda i, p: DeltaSink())
        with pytest.raises(ValueError, match="one SourcePump task"):
            StreamingCluster(topology, ExecutionOptions().resolve())

    @pytest.mark.parametrize("executor", ["threads", "fibers"])
    def test_cluster_names_the_two_executors(self, executor):
        """A cluster built without ``stream_plan`` takes resolved
        options: ``resolve()``, the one check, names the two executors
        before any cluster exists."""
        from repro.core.options import EXECUTOR_NAMES
        from repro.engine.runner import build_topology
        from repro.streaming.runner import DeltaAggBolt

        topology, _ = build_topology(
            sliding_agg_plan(make_events(10)),
            sources={"events": ReplaySource([], stream="events")},
            agg_bolt_factory=DeltaAggBolt,
            sink_factory=lambda i, p: DeltaSink())
        with pytest.raises(ValueError, match=repr(executor)) as excinfo:
            StreamingCluster(topology, ExecutionOptions(
                executor=executor).resolve())
        assert EXECUTOR_NAMES == ("inline", "processes")
        assert str(EXECUTOR_NAMES) in str(excinfo.value)


class TestIncrementalDeltas:
    def test_deltas_arrive_while_the_query_runs(self, monkeypatch):
        """The core new-workload property: a rate-limited replay emits
        incremental result deltas long before the sources are drained
        (a round drains what the source has ready, so a small budget
        spreads the replay over several)."""
        import repro.storm.cluster

        monkeypatch.setattr(repro.storm.cluster, "ROUND_BUDGET", 16)
        plan = sliding_agg_plan(make_events(300))
        query = stream_plan(plan,
                            options=ExecutionOptions(batch_size=8,
                                                     rate=100_000))
        iterator = iter(query)
        first = [next(iterator) for _ in range(10)]
        assert len(first) == 10
        assert not query.done  # mid-flight
        list(iterator)  # drain
        assert query.done
        assert query.snapshot() == sorted(
            run_plan(sliding_agg_plan(make_events(300)),
                     options=ExecutionOptions(batch_size=8)).results)

    def test_empty_source_still_completes_with_watermarks(self):
        """Regression: a relation that is empty from the start must count
        as finished, or the merged watermark never becomes defined and
        the run never flushes."""
        from repro.core.predicates import EquiCondition, JoinSpec, RelationInfo
        from repro.engine.component import JoinComponent

        A = Relation("A", Schema.of("ts", "k"), [(t, t % 3) for t in range(30)])
        B = Relation("B", Schema.of("ts", "k"), [])
        spec = JoinSpec(
            [RelationInfo("A", A.schema, 30), RelationInfo("B", B.schema, 0)],
            [EquiCondition(("A", "k"), ("B", "k"))],
        )
        plan = PhysicalPlan(
            sources=[SourceComponent("A", A), SourceComponent("B", B)],
            joins=[JoinComponent(
                "J", spec, machines=2,
                window=WindowSpec.tumbling(10, ts_positions={"A": 0, "B": 0}))],
        )
        query = stream_plan(plan, options=ExecutionOptions(batch_size=8)).run()
        assert query.done
        assert query.snapshot() == sorted(run_plan(plan).results)
        # the empty source promised everything, so A's watermark governs
        assert query.stats()["watermark"] is not None

    def test_stats_report_watermark_and_lag(self):
        plan = sliding_agg_plan(make_events(120))
        query = stream_plan(
            plan, options=ExecutionOptions(batch_size=16)).run()
        stats = query.stats()
        assert stats["events"] == 120
        # the source's final promise covers its last batch, so a finished
        # in-order replay is fully caught up
        assert stats["watermark"] == 119
        assert stats["event_time_lag"] == 0
        assert stats["deltas"] > 0

    def test_timestampless_source_disables_punctuation(self):
        """A join against a timestamp-less relation can emit old event
        times after any global watermark, so mixed plans must not
        punctuate -- the windows close at end of stream and the
        snapshot matches the batch engine at the same batch size."""
        from repro.core.predicates import EquiCondition, JoinSpec, RelationInfo
        from repro.engine.component import JoinComponent

        rng = random.Random(5)
        events = Relation("events", Schema.of("ts", "k"),
                          [(t, rng.randrange(4)) for t in range(80)])
        dims = Relation("dims", Schema.of("k", "name:str"),
                        [(k, f"k{k}") for k in range(4)])
        spec = JoinSpec(
            [RelationInfo("events", events.schema, 80),
             RelationInfo("dims", dims.schema, 4)],
            [EquiCondition(("events", "k"), ("dims", "k"))],
        )
        plan_template = dict(
            sources=[SourceComponent("events", events),
                     SourceComponent("dims", dims)],
            joins=[JoinComponent("J", spec, machines=2,
                                 output_positions=[3, 0])],  # name, ts
        )

        def make():
            return PhysicalPlan(
                aggregation=AggComponent(
                    "agg", group_positions=[0], aggregates=[count()],
                    window=WindowSpec.tumbling(20, ts_positions={"": 1}),
                ),
                **{k: list(v) if isinstance(v, list) else v
                   for k, v in plan_template.items()},
            )

        options = ExecutionOptions(batch_size=16)
        expected = sorted(run_plan(make(), options=options).results)
        query = stream_plan(make(), options=options).run()
        assert not query.cluster._event_time  # dims has no event time
        assert query.snapshot() == expected
        assert query.stats()["watermark"] is None

    def test_stream_rejects_parallelism_override(self):
        from repro.core.optimizer import Catalog
        from repro.functional.stream_api import QueryContext

        catalog = Catalog()
        catalog.register(make_events(20))
        ctx = QueryContext(catalog, machines=2)
        with pytest.raises(ExecutorError, match="parallelism"):
            ctx.stream("events").stream(
                options=ExecutionOptions(parallelism=2))

    def test_delta_stream_replays_to_the_snapshot(self):
        """Applying the deltas in order reconstructs the snapshot exactly
        -- the subscription is a faithful changelog."""
        from collections import Counter

        plan = sliding_agg_plan(make_events(150), parallelism=1)
        query = stream_plan(plan, options=ExecutionOptions(batch_size=16))
        state = Counter()
        for delta in query:
            if delta.sign > 0:
                state[delta.row] += 1
            else:
                state[delta.row] -= 1
        rows = sorted(row for row, n in state.items() for _ in range(n))
        assert rows == query.snapshot()

    @pytest.mark.parametrize("columnar", [False, True])
    @pytest.mark.parametrize("predicate", ["vectorized", "row-only"])
    def test_source_operators_count_exactly(self, columnar, predicate):
        """The pump filters and projects each poll as one batch (one
        ColumnBatch when columnar); the selection counters still count
        every raw row and every survivor once, as the batch engine's."""
        from dataclasses import dataclass

        from repro.core.expressions import Predicate, col, lit

        @dataclass(frozen=True)
        class RowOnlyAtLeast(Predicate):
            """``value >= 3`` with no vectorized form."""

            def compile(self, schema):
                index = schema.index_of("value")
                return lambda row: row[index] >= 3

        events = make_events(300, keys=5, seed=4)
        where = col("value").ge(3) if predicate == "vectorized" \
            else RowOnlyAtLeast()
        plan = PhysicalPlan(
            sources=[SourceComponent(
                "events", events, predicate=where,
                projection=[col("key"), col("value") * lit(2)],
                projection_names=["key", "double"])],
            aggregation=AggComponent("agg", group_positions=[0],
                                     aggregates=[count(), total(1)]),
        )
        options = ExecutionOptions(batch_size=64, columnar=columnar)
        batch = run_plan(plan, options=options)
        query = stream_plan(plan, options=options).run()
        selection = query.cluster._pumps["events"].selection
        _cost, seen, passed = batch.selections["events"]
        assert (selection.seen, selection.passed) == (seen, passed)
        assert seen == 300 and 0 < passed < 300
        assert query.snapshot() == sorted(batch.results)


class TestFilteredEndlessSource:
    """An endless generator whose every row the selection rejects: each
    poll comes back empty yet full, so the source never runs dry, and a
    pump round must still end after a bounded read."""

    @pytest.mark.parametrize("batch_size", [1, 64])
    def test_a_round_ends_and_stop_ends_the_query(self, batch_size):
        import itertools

        from repro.core.expressions import col

        budget = storm_cluster.ROUND_BUDGET

        def feed():
            for seq in itertools.count():
                if seq > 4 * budget:
                    raise AssertionError("one pump round read on unbounded")
                yield "events", (seq,)

        relation = Relation("events", Schema.of("seq"), [])
        query = stream_plan(
            PhysicalPlan(sources=[SourceComponent(
                "events", relation, predicate=col("seq").lt(0))]),
            options=ExecutionOptions(batch_size=batch_size),
            sources={"events": CallbackSource(feed())})
        cluster = query.cluster
        pump = cluster._pumps["events"]
        assert cluster.step()  # rows were read, though none passed
        # depth-first at batch_size=1: one poll; rounds: the pull bound
        assert pump.read == (1 if batch_size == 1 else budget)
        assert pump.has_more() and not cluster.done
        cluster.stop(wait=False)
        cluster.step()
        assert cluster.done and cluster.snapshot() == []


class TestPumpPacing:
    """The driver loop runs flat out while a source has a full
    micro-batch to give and yields one idle tick once the pump has
    caught up: the cost of a burst must not depend on how the producer
    and the pump happen to interleave.  A pump round takes a source's
    share of ``ROUND_BUDGET`` rows in full polls; the one-poll cases
    shrink the budget to one poll."""

    @pytest.fixture
    def paced(self, monkeypatch):
        return self.start(monkeypatch)

    def start(self, monkeypatch, capacity=1024):
        naps = []
        monkeypatch.setattr("repro.streaming.cluster.time.sleep", naps.append)
        source = CallbackSource(capacity=capacity)
        relation = Relation("events", Schema.of("seq"), [])
        query = stream_plan(
            PhysicalPlan(sources=[SourceComponent("events", relation)]),
            options=ExecutionOptions(batch_size=4),
            sources={"events": source})
        return source, query.cluster, naps

    def push(self, source, count):
        for seq in range(count):
            source.push((seq,), stream="events")

    def test_a_backlog_is_pumped_without_a_pause(self, paced, monkeypatch):
        monkeypatch.setattr(storm_cluster, "ROUND_BUDGET", 4)
        source, cluster, naps = paced
        self.push(source, 8)
        cluster.advance()
        cluster.advance()
        assert naps == [] and cluster.stats.total_events == 8

    def test_a_short_poll_is_processed_then_the_pump_yields(
            self, paced, monkeypatch):
        monkeypatch.setattr(storm_cluster, "ROUND_BUDGET", 4)
        source, cluster, naps = paced
        self.push(source, 6)
        cluster.advance()  # a full batch: more may be waiting
        assert naps == []
        cluster.advance()  # the 2 rows left: processed at once ...
        assert cluster.stats.total_events == 6
        assert naps == [IDLE_SLEEP]  # ... then one idle tick
        cluster.advance()  # nothing there
        assert naps == [IDLE_SLEEP] * 2

    def test_a_round_drains_what_one_round_may_take(self, paced):
        source, cluster, naps = paced
        self.push(source, 10)
        cluster.advance()  # 4 + 4 + 2: the short poll ends the round ...
        assert cluster.stats.total_events == 10
        assert naps == [IDLE_SLEEP]  # ... and the backlog

    def test_a_backlog_over_one_round_is_pumped_across_rounds(
            self, monkeypatch):
        budget = storm_cluster.ROUND_BUDGET
        source, cluster, naps = self.start(monkeypatch, budget + 6)
        self.push(source, budget + 6)
        cluster.advance()  # one round: the source's whole share ...
        assert cluster.stats.total_events == budget
        assert naps == []  # ... and the next round follows at once
        cluster.advance()
        assert cluster.stats.total_events == budget + 6
        assert naps == [IDLE_SLEEP]

    def test_a_finished_query_never_sleeps(self, paced):
        source, cluster, naps = paced
        self.push(source, 2)
        source.close()
        assert cluster.advance() and naps == []


class TestSqlStreamAcceptance:
    """ISSUE 5 acceptance: a sliding-window SQL aggregation over a
    rate-limited replayed dataset emits incremental deltas while running,
    and its final snapshot is byte-identical to the batch ``run_plan``
    result on the same data."""

    def make_session(self):
        session = SqlSession(options=OptimizerOptions(
            machines=2,
            agg_window=WindowClause("sliding", 60, "events.ts"),
        ))
        session.register(make_events(400, keys=5, seed=11))
        return session

    SQL = ("SELECT events.key, COUNT(*), SUM(events.value) "
           "FROM events GROUP BY events.key")

    @pytest.mark.parametrize("executor", ["inline"])
    def test_sliding_window_sql_stream_matches_batch(self, executor,
                                                     monkeypatch):
        import repro.storm.cluster

        # several rounds, so deltas flow before the replay is drained
        monkeypatch.setattr(repro.storm.cluster, "ROUND_BUDGET", 64)
        session = self.make_session()
        batch = session.execute(self.SQL,
                                options=ExecutionOptions(batch_size=16))
        query = session.stream(self.SQL,
                               options=ExecutionOptions(batch_size=16,
                                                        executor=executor,
                                                        rate=500_000))
        deltas = []
        mid_flight = 0
        for delta in query:
            deltas.append(delta)
            if not query.done:
                mid_flight += 1
        # the iterator itself drives the pump, so deltas are observable
        # strictly before exhaustion
        assert mid_flight > 0
        assert any(d.sign < 0 for d in deltas)  # retractions flowed
        assert query.snapshot() == sorted(batch.results)
        stats = query.stats()
        assert stats["watermark"] is not None
