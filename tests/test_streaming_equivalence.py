"""Streaming/batch equivalence: the continuous engine never changes the
answer.

Every golden plan (the exact plans pinned against the seed per-tuple
engine in ``tests/golden/``) is replayed through the
:class:`StreamingCluster` across batch sizes, batch layouts and replay
rates (the ``processes`` executor's golden column lives in
``tests/test_streaming_processes.py``); the final delta-sink snapshot
must equal the batch ``run_plan`` result multiset byte for byte.  The
retraction plan (tuples delivered twice and compensated by rows with
sign -1) runs through a push-source topology the same way.
"""

import random
from collections import Counter

import pytest

from repro.core.columnar import COLUMNAR_MIN_BATCH
from repro.core.options import ExecutionOptions
from repro.engine.runner import run_plan
from repro.streaming import (
    DeltaSink,
    SourcePump,
    StreamingCluster,
    stream_plan,
)
from tests.batching_plans import GOLDEN_PLANS


def batch_snapshot(plan, batch_size=1):
    return sorted(run_plan(
        plan, options=ExecutionOptions(batch_size=batch_size)).results)


def run_other_layout(plan, batch_size):
    """Stream ``plan`` inline on the batch layout ``batch_size`` does not
    default to (columnar below ``COLUMNAR_MIN_BATCH``, rows from there
    up), failing unless that layout is the one that ran."""
    columnar = batch_size < COLUMNAR_MIN_BATCH
    query = stream_plan(plan, options=ExecutionOptions(
        batch_size=batch_size, columnar=columnar)).run()
    assert (query.cluster.metrics.columnar_rows > 0) == columnar
    return query


class TestGoldenPlanEquivalence:
    @pytest.mark.parametrize("plan_name", sorted(GOLDEN_PLANS))
    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    def test_inline_snapshot_equals_run_plan(self, plan_name, batch_size):
        builder = GOLDEN_PLANS[plan_name]
        expected = batch_snapshot(builder())
        query = stream_plan(builder(), options=ExecutionOptions(
            batch_size=batch_size)).run()
        assert query.snapshot() == expected

    @pytest.mark.parametrize("plan_name", sorted(GOLDEN_PLANS))
    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    def test_other_layout_snapshot_equals_run_plan(self, plan_name,
                                                   batch_size):
        """The inline column above runs rows below ``COLUMNAR_MIN_BATCH``
        and columns from there up; the opposite layout at the same batch
        size reaches the same snapshot."""
        builder = GOLDEN_PLANS[plan_name]
        expected = batch_snapshot(builder())
        query = run_other_layout(builder(), batch_size)
        assert query.snapshot() == expected

    @pytest.mark.parametrize("plan_name", sorted(GOLDEN_PLANS))
    @pytest.mark.parametrize("rate", [2_000, 50_000])
    def test_rate_limited_replay_equals_run_plan(self, plan_name, rate):
        """Throttled sources change *when* tuples arrive, never the
        answer.  (Datasets are 40 rows/relation, so even 2k rows/sec
        completes quickly.)"""
        builder = GOLDEN_PLANS[plan_name]
        expected = batch_snapshot(builder())
        query = stream_plan(builder(), options=ExecutionOptions(
            batch_size=16, rate=rate)).run()
        assert query.snapshot() == expected

    def test_batch_size_one_matches_per_tuple_engine_exactly(self):
        """At batch_size=1 the inline pump reproduces the finite
        engine's per-tuple routing (coalescing off), so even the
        order-sensitive online aggregation history matches."""
        builder = GOLDEN_PLANS["online_agg"]
        options = ExecutionOptions(batch_size=1)
        expected = Counter(run_plan(builder(), options=options).results)
        query = stream_plan(builder(), options=options).run()
        assert Counter(query.snapshot()) == expected


class TestRetractionPlanEquivalence:
    """The compensation path: a stream replaying tuples twice and then
    retracting the duplicates must converge to the clean run's results --
    now through push sources and delta subscriptions."""

    def build_streaming_topology(self, spec, local_join, source, machines=4,
                                 aggregate=False):
        from repro.engine.component import AggComponent, JoinComponent
        from repro.engine.operators import count, total
        from repro.engine.runner import AggBolt, JoinBolt
        from repro.joins.dbtoaster import DBToasterJoin
        from repro.joins.traditional import TraditionalJoin
        from repro.partitioning.hash_hypercube import HashHypercube
        from repro.storm import TopologyBuilder
        from repro.storm.groupings import HypercubeGrouping

        local = {"dbtoaster": DBToasterJoin,
                 "traditional": TraditionalJoin}[local_join]
        builder = TopologyBuilder()
        partitioner = HashHypercube.build(spec, machines, seed=3)
        builder.set_spout("feed", lambda i, p: SourcePump("feed", source))
        join = JoinComponent("J", spec, machines=machines)
        declarer = builder.set_bolt(
            "J", lambda i, p: JoinBolt(join, lambda: local(spec)),
            parallelism=machines)
        for rel_name in spec.relation_names:
            declarer.custom_grouping(
                "feed", HypercubeGrouping(partitioner, rel_name),
                streams=[rel_name])
        last = "J"
        if aggregate:
            agg = AggComponent("agg", group_positions=[1],
                               aggregates=[count(), total(5)])
            builder.set_bolt("agg", lambda i, p: AggBolt(agg)).global_grouping(
                "J", streams=["J"])
            last = "agg"
        builder.set_bolt("sink", lambda i, p: DeltaSink()).global_grouping(
            last, streams=[last])
        return builder.build()

    @pytest.mark.parametrize("local_join", ["dbtoaster", "traditional"])
    @pytest.mark.parametrize("executor", ["inline", "processes"])
    @pytest.mark.parametrize("aggregate", [False, True])
    def test_compensated_stream_matches_clean_batch(self, local_join,
                                                    executor, aggregate):
        from tests.conftest import (
            ScriptSource,
            interleaved_stream,
            make_rst_data,
        )
        from tests.test_retractions import (
            build_rst_topology,
            faulty_script,
            rst_spec,
        )
        from repro.storm import LocalCluster

        spec = rst_spec()
        data = make_rst_data(seed=33, n=24)
        clean_script = list(interleaved_stream(data, seed=33))
        clean_topology, clean_results = build_rst_topology(
            spec, clean_script, local_join, aggregate=aggregate)
        LocalCluster(clean_topology).run(
            options=ExecutionOptions(batch_size=8).resolve())

        topology = self.build_streaming_topology(
            spec, local_join, ScriptSource(faulty_script(data, seed=33)),
            aggregate=aggregate)
        cluster = StreamingCluster(topology, ExecutionOptions(
            batch_size=8, executor=executor).resolve())
        subscription = cluster.subscribe()
        cluster.run()
        assert cluster.snapshot() == sorted(clean_results)
        assert clean_results  # not vacuous
        # the subscription's changelog replays to the same state
        state = Counter()
        for delta in subscription:
            state[delta.row] += delta.sign
        rows = sorted(row for row, n in state.items() for _ in range(n))
        assert rows == cluster.snapshot()


class TestSlidingWindowEquivalence:
    """Sliding-window aggregation: batch and streaming snapshots agree
    for event-time-ordered inputs, at several rates and batch sizes and
    under watermark-driven expiry."""

    def make_plan(self, n=240, parallelism=2):
        from repro.core.schema import Relation, Schema
        from repro.engine.component import (
            AggComponent,
            PhysicalPlan,
            SourceComponent,
        )
        from repro.engine.operators import count, total
        from repro.engine.windows import WindowSpec

        rng = random.Random(17)
        rows = [(ts, rng.randrange(5), rng.randrange(20))
                for ts in range(n)]
        events = Relation("events", Schema.of("ts", "key", "value"), rows)
        return PhysicalPlan(
            sources=[SourceComponent("events", events)],
            joins=[],
            aggregation=AggComponent(
                "agg", group_positions=[1], aggregates=[count(), total(2)],
                parallelism=parallelism,
                window=WindowSpec.sliding(40, ts_positions={"": 0}),
            ),
        )

    @pytest.mark.parametrize("executor", ["inline"])
    @pytest.mark.parametrize("batch_size", [1, 16, 128])
    def test_snapshot_equals_batch(self, executor, batch_size):
        expected = batch_snapshot(self.make_plan(), batch_size=batch_size)
        query = stream_plan(self.make_plan(),
                            options=ExecutionOptions(batch_size=batch_size,
                                                     executor=executor)).run()
        assert query.snapshot() == expected

    @pytest.mark.parametrize("batch_size", [16, 128])
    def test_other_layout_snapshot_equals_batch(self, batch_size):
        """Window expiry retracts the same rows from column batches as
        from row batches."""
        expected = batch_snapshot(self.make_plan(), batch_size=batch_size)
        query = run_other_layout(self.make_plan(), batch_size)
        assert query.snapshot() == expected

    @pytest.mark.parametrize("rate", [5_000, 200_000])
    def test_rate_limited_snapshot_equals_batch(self, rate):
        expected = batch_snapshot(self.make_plan())
        query = stream_plan(self.make_plan(), options=ExecutionOptions(
            batch_size=16, rate=rate)).run()
        assert query.snapshot() == expected
        assert query.stats()["watermark"] is not None

    def test_tumbling_window_closes_via_watermark(self):
        """Tumbling windows close incrementally under watermarks and the
        closed-window rows match the batch engine's."""
        from repro.engine.windows import WindowSpec

        def tumbling_plan():
            plan = self.make_plan()
            plan.aggregation.window = WindowSpec.tumbling(
                60, ts_positions={"": 0})
            return plan

        expected = sorted(run_plan(tumbling_plan()).results)
        query = stream_plan(tumbling_plan(),
                            options=ExecutionOptions(batch_size=16))
        deltas = list(query)
        assert query.snapshot() == expected
        # every tumbling delta is an insertion of a closed window row
        assert all(d.sign == 1 for d in deltas)


class TestReplaySourceStriping:
    def test_multiple_sources_interleave_like_parallel_spouts(self):
        """Several replayed relations pump round-robin, mirroring the
        finite engine's concurrent spout draining."""
        builder = GOLDEN_PLANS["two_joins"]
        expected = batch_snapshot(builder())
        query = stream_plan(
            builder(), options=ExecutionOptions(batch_size=4)).run()
        assert query.snapshot() == expected
        metrics = query.cluster.metrics
        # every source pumped through its task-0 counter
        for name in ("R", "S", "T"):
            assert metrics.emitted[name][0] == 40
