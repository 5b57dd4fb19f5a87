"""Tests for the Storm substrate: topology, groupings, cluster, metrics."""

from collections import Counter

import pytest

from repro.storm import (
    AllGrouping,
    Bolt,
    FieldsGrouping,
    GlobalGrouping,
    Grouping,
    KeyMappedGrouping,
    LocalCluster,
    ShuffleGrouping,
    TopologyBuilder,
    TopologyError,
)
from repro.util import round_robin_assignment
from tests.conftest import ListSpout


class CollectBolt(Bolt):
    """Stores everything it receives; emits nothing."""

    instances = []

    def __init__(self):
        self.rows = []
        CollectBolt.instances.append(self)

    def execute_batch(self, source, stream, rows):
        self.rows.extend(rows)
        return []


class EchoBolt(Bolt):
    """Re-emits each tuple on its own stream."""

    def __init__(self, stream="echo"):
        self.stream = stream

    def execute_batch(self, source, stream, rows):
        return [(self.stream, row) for row in rows]


class CountBolt(Bolt):
    """Counts per key; emits totals at finish."""

    def __init__(self):
        self.counts = Counter()

    def execute_batch(self, source, stream, rows):
        self.counts.update(row[0] for row in rows)
        return []

    def finish(self):
        return [("counts", (key, n)) for key, n in sorted(self.counts.items())]


def fresh_collectors():
    CollectBolt.instances = []
    return lambda i, p: CollectBolt()


def rows_per_task(grouping, rows, n_tasks, position=None):
    """``{task: rows}`` of one routed batch."""
    return dict(grouping.targets_batch("s", rows, n_tasks, position))


class TestGroupings:
    def test_shuffle_round_robins(self):
        grouping = ShuffleGrouping()
        rows = [(i,) for i in range(8)]
        assert rows_per_task(grouping, rows, 4, (0, 0)) == {
            task: [(task,), (task + 4,)] for task in range(4)}
        assert not grouping.is_content_sensitive()

    def test_fields_grouping_consistent(self):
        grouping = FieldsGrouping([0])
        assert len(rows_per_task(grouping, [(42, "x"), (42, "y")], 8)) == 1
        assert grouping.is_content_sensitive()

    def test_fields_grouping_requires_positions(self):
        with pytest.raises(ValueError):
            FieldsGrouping([])

    def test_all_grouping_broadcasts(self):
        assert AllGrouping().targets_batch("s", [(1,)], 3) == [
            (0, [(1,)]), (1, [(1,)]), (2, [(1,)])]

    def test_global_grouping(self):
        assert GlobalGrouping().targets_batch("s", [(1,), (2,)], 5) == [
            (0, [(1,), (2,)])]

    def test_key_mapped_grouping_balances_small_domain(self):
        keys = [f"prio{i}" for i in range(8)]
        mapping = round_robin_assignment(keys, 4)
        grouping = KeyMappedGrouping(0, mapping)
        loads = rows_per_task(grouping, [(key,) for key in keys], 4)
        assert sorted(map(len, loads.values())) == [2, 2, 2, 2]

    def test_key_mapped_grouping_falls_back_to_hash(self):
        grouping = KeyMappedGrouping(0, {"known": 1})
        ((task, rows),) = grouping.targets_batch("s", [("unknown",)], 4)
        assert 0 <= task < 4 and rows == [("unknown",)]


class TestTopologyBuilder:
    def test_duplicate_name_rejected(self):
        builder = TopologyBuilder()
        builder.set_spout("a", lambda i, p: ListSpout([]))
        with pytest.raises(TopologyError, match="duplicate"):
            builder.set_bolt("a", lambda i, p: EchoBolt())

    def test_unknown_source_rejected(self):
        builder = TopologyBuilder()
        builder.set_bolt("b", lambda i, p: EchoBolt()).shuffle_grouping("ghost")
        with pytest.raises(TopologyError, match="unknown source"):
            builder.build()

    def test_spout_cannot_receive(self):
        builder = TopologyBuilder()
        builder.set_spout("a", lambda i, p: ListSpout([]))
        builder.set_spout("c", lambda i, p: ListSpout([]))
        builder.set_bolt("b", lambda i, p: EchoBolt())
        # wire an edge into a spout manually
        from repro.storm.topology import EdgeSpec
        builder._edges.append(EdgeSpec("b", "c", ShuffleGrouping()))
        with pytest.raises(TopologyError, match="cannot receive"):
            builder.build()

    def test_cycle_detected(self):
        from repro.storm.topology import EdgeSpec
        builder = TopologyBuilder()
        builder.set_bolt("x", lambda i, p: EchoBolt())
        builder.set_bolt("y", lambda i, p: EchoBolt())
        builder._edges.append(EdgeSpec("x", "y", ShuffleGrouping()))
        builder._edges.append(EdgeSpec("y", "x", ShuffleGrouping()))
        with pytest.raises(TopologyError, match="cycle"):
            builder.build()

    def test_nonpositive_parallelism_rejected(self):
        builder = TopologyBuilder()
        with pytest.raises(TopologyError):
            builder.set_spout("a", lambda i, p: ListSpout([]), parallelism=0)

    def test_topological_order(self):
        builder = TopologyBuilder()
        builder.set_spout("src", lambda i, p: ListSpout([]))
        builder.set_bolt("mid", lambda i, p: EchoBolt()).shuffle_grouping("src")
        builder.set_bolt("end", lambda i, p: EchoBolt()).shuffle_grouping("mid")
        order = builder.build().topological_order()
        assert order.index("src") < order.index("mid") < order.index("end")


class TestListSpout:
    def test_stripes_rows_across_tasks(self):
        rows = [(i,) for i in range(10)]
        spout0 = ListSpout(rows, "s")
        spout0.open(0, 2)
        spout1 = ListSpout(rows, "s")
        spout1.open(1, 2)
        seen = []
        for spout in (spout0, spout1):
            while spout.has_more():
                seen.extend(row for _stream, row in spout.next_batch(1))
        assert sorted(seen) == rows


class TestLocalCluster:
    def test_simple_pipeline_delivers_everything(self):
        builder = TopologyBuilder()
        builder.set_spout("src", lambda i, p: ListSpout([(i,) for i in range(20)], "src"))
        factory = fresh_collectors()
        builder.set_bolt("sink", factory).shuffle_grouping("src")
        cluster = LocalCluster(builder.build())
        metrics = cluster.run()
        rows = [row for bolt in CollectBolt.instances for row in bolt.rows]
        assert sorted(rows) == [(i,) for i in range(20)]
        assert metrics.component_input("sink") == 20
        assert metrics.component_output("src") == 20

    def test_interleaves_multiple_spouts(self):
        builder = TopologyBuilder()
        builder.set_spout("a", lambda i, p: ListSpout([("a", i) for i in range(5)], "a"))
        builder.set_spout("b", lambda i, p: ListSpout([("b", i) for i in range(5)], "b"))
        order = []

        class OrderBolt(Bolt):
            def execute_batch(self, source, stream, rows):
                order.extend(row[0] for row in rows)
                return []

        builder.set_bolt("sink", lambda i, p: OrderBolt()).shuffle_grouping(
            "a").shuffle_grouping("b")
        LocalCluster(builder.build()).run()
        # round-robin pulling interleaves sources (online, not batch)
        assert order[:4] == ["a", "b", "a", "b"]

    def test_finish_flush_propagates_downstream(self):
        builder = TopologyBuilder()
        builder.set_spout("src", lambda i, p: ListSpout(
            [("x",), ("x",), ("y",)], "src"))
        builder.set_bolt("count", lambda i, p: CountBolt()).shuffle_grouping("src")
        factory = fresh_collectors()
        builder.set_bolt("sink", factory).shuffle_grouping("count")
        LocalCluster(builder.build()).run()
        rows = [row for bolt in CollectBolt.instances for row in bolt.rows]
        assert sorted(rows) == [("x", 2), ("y", 1)]

    def test_stream_subscription_filters(self):
        builder = TopologyBuilder()
        builder.set_spout("src", lambda i, p: ListSpout([(1,), (2,)], "only"))
        factory = fresh_collectors()
        builder.set_bolt("sink", factory).shuffle_grouping("src", streams=["other"])
        LocalCluster(builder.build()).run()
        assert all(not bolt.rows for bolt in CollectBolt.instances)

    def test_bad_grouping_target_caught(self):
        class OffTheEnd(Grouping):
            def targets_batch(self, stream, rows, n_tasks, position=None):
                return [(99, list(rows))]

        builder = TopologyBuilder()
        builder.set_spout("src", lambda i, p: ListSpout([(1,)], "src"))
        builder.set_bolt("sink", lambda i, p: EchoBolt()).custom_grouping(
            "src", OffTheEnd())
        with pytest.raises(TopologyError, match="outside"):
            LocalCluster(builder.build()).run()

    def test_factory_type_validated(self):
        builder = TopologyBuilder()
        builder.set_spout("src", lambda i, p: object())
        with pytest.raises(TopologyError, match="did not return a Spout"):
            LocalCluster(builder.build())


class TestMetrics:
    def run_fanout(self):
        builder = TopologyBuilder()
        builder.set_spout("src", lambda i, p: ListSpout([(i,) for i in range(12)], "src"))
        builder.set_bolt("work", lambda i, p: EchoBolt("out"), parallelism=3) \
            .custom_grouping("src", AllGrouping())
        factory = fresh_collectors()
        builder.set_bolt("sink", factory).shuffle_grouping("work")
        cluster = LocalCluster(builder.build())
        return cluster.run()

    def test_replication_factor(self):
        metrics = self.run_fanout()
        # broadcast to 3 tasks: replication factor 3
        assert metrics.replication_factor("work", ["src"]) == pytest.approx(3.0)

    def test_skew_degree_balanced_broadcast(self):
        metrics = self.run_fanout()
        assert metrics.skew_degree("work") == pytest.approx(1.0)

    def test_edge_transfers(self):
        metrics = self.run_fanout()
        assert metrics.edge_transfers[("src", "work")] == 36
        assert metrics.edge_transfers[("work", "sink")] == 36

    def test_intermediate_network_factor(self):
        metrics = self.run_fanout()
        factor = metrics.intermediate_network_factor(12, 36)
        assert factor > 1.0

    def test_summary_renders(self):
        metrics = self.run_fanout()
        assert "network tuples" in metrics.summary()
