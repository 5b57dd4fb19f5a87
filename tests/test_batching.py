"""Unit tests for the micro-batch APIs of the batched dataplane.

Every batch API must agree exactly with its per-tuple counterpart: same
outputs, same counters, same state transitions.  The cluster-level tests
also guard the work-queue refactor (no recursion on deep topologies).
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.options import ExecutionOptions
from repro.core.predicates import EquiCondition, JoinSpec, RelationInfo
from repro.core.schema import Schema
from repro.core.expressions import col
from repro.engine.operators import Aggregation, Projection, Selection, avg, count, total
from repro.joins.dbtoaster import DBToasterJoin
from repro.joins.traditional import TraditionalJoin
from repro.partitioning.hash_hypercube import HashHypercube
from repro.partitioning.hybrid_hypercube import HybridHypercube
from repro.partitioning.random_hypercube import RandomHypercube
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
)
from repro.storm import groupings as groupings_module
from repro.storm.groupings import HypercubeGrouping
from repro.util import round_robin_assignment, stable_hash
from tests.conftest import ListSpout, interleaved_stream, make_rst_data


def rst_spec():
    return JoinSpec(
        [
            RelationInfo("R", Schema.of("x", "y"), 1000),
            RelationInfo("S", Schema.of("y", "z"), 1000),
            RelationInfo("T", Schema.of("z", "t"), 1000),
        ],
        [
            EquiCondition(("R", "y"), ("S", "y")),
            EquiCondition(("S", "z"), ("T", "z")),
        ],
    )


# ---------------------------------------------------------------------------
# groupings
# ---------------------------------------------------------------------------


def _flatten(task_batches):
    """(task, rows) list -> per-tuple (task, row) pairs for comparison."""
    return [(task, row) for task, rows in task_batches for row in rows]


class TestTargetsBatch:
    ROWS = [(i, i % 3, f"k{i % 5}") for i in range(23)]

    def check_routes(self, grouping, tasks_of, n_tasks=4):
        """Every row lands on ``tasks_of(index, row)`` -- a reference
        worked out without the grouping -- in batch order, the tasks in
        order of first assignment."""
        expected = {}
        for index, row in enumerate(self.ROWS):
            for task in tasks_of(index, row):
                expected.setdefault(task, []).append(row)
        assert grouping.targets_batch("s", self.ROWS, n_tasks, (0, 0)) == \
            list(expected.items())

    def test_shuffle(self):
        self.check_routes(ShuffleGrouping(), lambda index, _row: [index % 4])

    def test_shuffle_continues_round_robin_across_batches(self):
        grouping = ShuffleGrouping()
        first = _flatten(grouping.targets_batch("s", self.ROWS[:5], 4, (0, 0)))
        second = _flatten(grouping.targets_batch("s", self.ROWS[5:10], 4,
                                                 (0, 5)))
        task_of = {row: task for task, row in first + second}
        assert [task_of[self.ROWS[i]] for i in range(10)] == [
            i % 4 for i in range(10)
        ]

    def test_fields(self):
        self.check_routes(FieldsGrouping([1, 2]), lambda _index, row: [
            stable_hash((row[1], row[2])) % 4])

    def test_all(self):
        self.check_routes(AllGrouping(), lambda _index, _row: range(4))

    def test_all_broadcasts_whole_batch(self):
        batches = AllGrouping().targets_batch("s", self.ROWS, 3)
        assert [task for task, _rows in batches] == [0, 1, 2]
        assert all(rows == list(self.ROWS) for _task, rows in batches)

    def test_global(self):
        self.check_routes(GlobalGrouping(), lambda _index, _row: [0])

    def test_key_mapped_including_unseen_keys(self):
        mapping = round_robin_assignment(["k0", "k1", "k2"], 4)  # k3, k4 unseen
        self.check_routes(KeyMappedGrouping(2, mapping), lambda _index, row: [
            mapping[row[2]] % 4 if row[2] in mapping
            else stable_hash(row[2]) % 4])

    _EDGE_KEYS = [0, 1, -1, 2**31, 2**32, 2**32 + 1, -2**32, 2**63 - 1,
                  -2**63]

    @settings(max_examples=150, deadline=None)
    @given(
        mapped=st.lists(st.one_of(st.integers(-5, 20), st.sampled_from(
            _EDGE_KEYS)), unique=True, max_size=12),
        keys=st.lists(st.one_of(st.integers(-8, 24), st.sampled_from(
            _EDGE_KEYS)), min_size=1, max_size=30),
        n_tasks=st.integers(1, 5),
        extra=st.sampled_from([None, "a", 1.0, True, 2**70]),
    )
    def test_key_mapped_int64_column_routes_like_per_row_targets(
            self, mapped, keys, n_tasks, extra):
        """The vectorised lookup (sorted keys + searchsorted, unseen
        keys through ``hash_column``) lands every row where the mapping
        (or, for an unseen key, its hash) says -- unseen, negative and
        >= 2**32 keys included; a mapping with a key that is not a plain
        int (``1.0 == True == 1`` to a dict) keeps the per-row path, and
        must still agree."""
        from repro.core.columnar import ColumnBatch

        mapping = {key: 3 * slot + 1 for slot, key in enumerate(mapped)}
        if extra is not None:
            mapping[extra] = 2
        grouping = KeyMappedGrouping(1, mapping)
        # (1.0 and True collide with a mapped 1 and leave its int key)
        assert (grouping._int_lookup is not None) == (
            bool(mapping) and all(type(key) is int and -2**63 <= key < 2**63
                                  for key in mapping))
        rows = [(i, key) for i, key in enumerate(keys)]
        expected = {}
        for row in rows:
            task = (mapping[row[1]] if row[1] in mapping
                    else stable_hash(row[1])) % n_tasks
            expected.setdefault(task, []).append(row)
        got = grouping.targets_batch("s", ColumnBatch.from_rows(rows),
                                     n_tasks)
        # dict order is first-assignment order, the bucket contract
        assert [(task, bucket.to_rows()) for task, bucket in got] == \
            list(expected.items())

    # R is replicated 4x, T 2x, S not at all; a ColumnBatch takes the
    # vectorized destination-matrix path
    @pytest.mark.parametrize("columnar", [False, True])
    @pytest.mark.parametrize("rel", ["R", "S", "T"])
    def test_hypercube(self, rel, columnar):
        from repro.core.columnar import ColumnBatch
        from repro.partitioning.hash_hypercube import HashHypercube

        spec = rst_spec()
        partitioner = HashHypercube.build(spec, 8, seed=3)
        grouping = HypercubeGrouping(partitioner, rel)
        rows = [row for _rel, row in interleaved_stream(make_rst_data(seed=2))][:20]
        batch = ColumnBatch.from_rows(rows) if columnar else rows
        got = _flatten(grouping.targets_batch(rel, batch, 8))
        expected = [(t, row) for row in rows
                    for t in partitioner.destinations(rel, row)]
        assert Counter(got) == Counter(expected)
        per_task = {}
        for task, row in got:
            per_task.setdefault(task, []).append(row)
        for task, task_rows in per_task.items():
            assert task_rows == [row for t, row in expected if t == task]

    def test_hypercube_validates_parallelism(self):
        from repro.partitioning.hash_hypercube import HashHypercube

        partitioner = HashHypercube.build(rst_spec(), 8, seed=3)
        with pytest.raises(ValueError, match="does not match"):
            HypercubeGrouping(partitioner, "S").targets_batch("S", [(1, 2)], 5)

    def test_single_row_batch_preserves_target_order(self):
        # a broadcast lists its tasks in order, for one row as for many
        batches = AllGrouping().targets_batch("s", [(1,)], 3)
        assert batches == [(0, [(1,)]), (1, [(1,)]), (2, [(1,)])]


def _hypercube(scheme):
    def make():
        return HypercubeGrouping(scheme.build(rst_spec(), 8, seed=3), "R")
    return make


#: one instance of every grouping of ``repro.storm.groupings``, by the
#: paths its ``targets_batch`` takes
ROUTINGS = {
    "shuffle": ShuffleGrouping,
    "fields": lambda: FieldsGrouping([1, 2]),
    "all": AllGrouping,
    "global": GlobalGrouping,
    "hash-hypercube": _hypercube(HashHypercube),
    "random-hypercube": _hypercube(RandomHypercube),
    "hybrid-hypercube": _hypercube(HybridHypercube),
    "key-mapped-dense": lambda: KeyMappedGrouping(
        1, {key: key + 3 for key in range(-2, 8)}),
    "key-mapped-sparse": lambda: KeyMappedGrouping(
        1, {key: slot for slot, key in enumerate((-2**40, -1, 3, 2**40))}),
    "key-mapped-strings": lambda: KeyMappedGrouping(
        2, round_robin_assignment(["k0", "k1", "k2"], 4)),
}


def test_key_mapped_refuses_a_task_below_zero():
    """A negative task would read as an unmapped key on the column
    path, and route elsewhere than on the row path."""
    with pytest.raises(ValueError, match="task indices >= 0"):
        KeyMappedGrouping(1, {0: 1, 1: -5})


def test_routings_cover_every_grouping():
    declared = {value for value in vars(groupings_module).values()
                if isinstance(value, type) and issubclass(value, Grouping)
                and value is not Grouping}
    assert {type(make()) for make in ROUTINGS.values()} == declared


@pytest.mark.parametrize("name", sorted(ROUTINGS))
def test_rows_and_column_batch_route_alike(name):
    """A row list and the same rows as a ``ColumnBatch`` land on the
    same tasks, each task's rows in the same (batch) order."""
    from repro.core.columnar import ColumnBatch

    rows = [(i, i % 7 - 2, f"k{i % 5}") for i in range(40)]
    grouping, n_tasks = ROUTINGS[name](), 8
    as_rows = grouping.targets_batch("R", rows, n_tasks, (1, 3))
    as_batch = grouping.targets_batch(
        "R", ColumnBatch.from_rows(rows), n_tasks, (1, 3))
    assert all(isinstance(batch, ColumnBatch) for _task, batch in as_batch)
    assert {task: batch.to_rows() for task, batch in as_batch} == \
        dict(as_rows)
    assert len(as_batch) == len(as_rows) > 1 or name == "global"


# ---------------------------------------------------------------------------
# spouts and bolts
# ---------------------------------------------------------------------------


class TestSpoutBatch:
    def test_list_spout_next_batch_reads_its_stripe(self):
        rows = [(i,) for i in range(11)]
        batched = ListSpout(rows, "s")
        batched.open(1, 2)
        pulled = []
        while batched.has_more():
            chunk = batched.next_batch(3)
            assert len(chunk) == 3 or not batched.has_more()
            pulled.extend(chunk)
        assert pulled == [("s", row) for row in rows[1::2]]
        assert batched.exhausted() and batched.next_batch(3) == []



# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


class TestOperatorBatch:
    def test_selection_batch_matches_per_row(self):
        schema = Schema.of("x", "y")
        rows = [(i, i % 4) for i in range(20)]
        batched = Selection(col("x").lt(12), schema)
        looped = Selection(col("x").lt(12), schema)
        kept = batched.apply_batch(rows)
        expected = [row for row in rows if looped.apply(row) is not None]
        assert kept == expected
        assert (batched.seen, batched.passed) == (looped.seen, looped.passed)
        assert batched.selectivity == looped.selectivity

    def test_projection_batch_matches_per_row(self):
        schema = Schema.of("x", "y")
        rows = [(i, 2 * i) for i in range(9)]
        projection = Projection([col("y"), col("x")], schema)
        assert projection.apply_batch(rows) == [projection.apply(r) for r in rows]
        single = Projection([col("y")], schema)
        assert single.apply_batch(rows) == [single.apply(r) for r in rows]

    def test_aggregation_batch_matches_per_row(self):
        rng = random.Random(5)
        rows = [(rng.randrange(3), rng.randrange(10), rng.random())
                for _ in range(50)]
        batched = Aggregation([0], [count(), total(1), avg(2)])
        looped = Aggregation([0], [count(), total(1), avg(2)])
        outputs = batched.consume_batch(rows)
        expected = [looped.consume(row) for row in rows]
        assert outputs == expected
        assert batched.snapshot() == looped.snapshot()
        assert batched.consumed == looped.consumed == len(rows)

    def test_aggregation_batch_without_collect_only_updates_state(self):
        rows = [(1, 5), (2, 7), (1, 1)]
        silent = Aggregation([0], [total(1)])
        assert silent.consume_batch(rows, collect=False) is None
        loud = Aggregation([0], [total(1)])
        loud.consume_batch(rows)
        assert silent.snapshot() == loud.snapshot() == [(1, 6), (2, 7)]

    def test_aggregation_batch_retraction_deletes_empty_groups(self):
        agg = Aggregation([0], [count(), total(1)])
        agg.consume_batch([(1, 5), (1, 3)])
        outputs = agg.consume_batch([(1, 5), (1, 3)], sign=-1)
        assert outputs == [(1, 1, 3), (1, 0, 0)]
        assert agg.group_count == 0

    def test_aggregation_batch_dead_as_none_tells_death_from_zero(self):
        """A live group summing to zero and a group that just died print
        the same padded row; ``dead_as_none`` keeps them apart."""
        agg = Aggregation([0], [total(1)])
        outputs = agg.consume_batch([(1, 4), (1, -4)], dead_as_none=True)
        assert outputs == [(1, 4), (1, 0)]  # two rows in: alive at zero
        outputs = agg.consume_batch([(1, 4), (1, -4)], sign=-1,
                                    dead_as_none=True)
        assert outputs == [(1, -4), None]
        assert agg.group_count == 0


# ---------------------------------------------------------------------------
# local joins
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("factory", [DBToasterJoin, TraditionalJoin])
class TestLocalJoinBatch:
    def test_insert_batch_matches_per_tuple(self, factory):
        spec = rst_spec()
        data = make_rst_data(seed=9, n=30)
        stream = interleaved_stream(data, seed=9)
        batched = factory(spec)
        looped = factory(spec)
        # feed the stream in per-relation runs of varying size
        position = 0
        batch_output = []
        while position < len(stream):
            rel_name = stream[position][0]
            run = []
            end = position
            while end < len(stream) and end - position < 7 \
                    and stream[end][0] == rel_name:
                run.append(stream[end][1])
                end += 1
            batch_output.extend(batched.insert_batch(rel_name, run))
            position = end
        loop_output = []
        for rel_name, row in stream:
            loop_output.extend(looped.insert(rel_name, row))
        assert batch_output == loop_output
        assert batched.state_size() == looped.state_size()

    def test_delete_batch_retracts_exactly_what_insert_produced(self, factory):
        spec = rst_spec()
        data = make_rst_data(seed=11, n=20)
        join = factory(spec)
        for rel_name, row in interleaved_stream(data, seed=11):
            join.insert(rel_name, row)
        produced = join.insert_batch("R", data["R"][:5])
        retracted = join.delete_batch("R", data["R"][:5])
        assert Counter(retracted) == Counter(produced)

    def test_delete_batch_ignores_unknown_rows(self, factory):
        spec = rst_spec()
        join = factory(spec)
        join.insert("R", (1, 2))
        if factory is TraditionalJoin:
            assert join.delete_batch("R", [(9, 9)]) == []
        else:
            # DBToaster treats deletes as negative deltas; deleting a row
            # that was never inserted is an inconsistency it rejects
            with pytest.raises(ValueError):
                join.delete_batch("R", [(9, 9)])


# ---------------------------------------------------------------------------
# cluster-level batching and the work-queue refactor
# ---------------------------------------------------------------------------


class CollectBolt(Bolt):
    def __init__(self, store):
        self.store = store

    def execute_batch(self, source, stream, rows):
        self.store.extend(rows)
        return []


class TestClusterBatching:
    def build_pipeline(self, store):
        builder = TopologyBuilder()
        builder.set_spout("src", lambda i, p: ListSpout(
            [(i,) for i in range(40)], "src"), parallelism=2)
        builder.set_bolt("sink", lambda i, p: CollectBolt(store),
                         parallelism=2).shuffle_grouping("src")
        return builder.build()

    @pytest.mark.parametrize("batch_size", [1, 3, 16, 100])
    def test_everything_delivered_at_any_batch_size(self, batch_size):
        store = []
        metrics = LocalCluster(self.build_pipeline(store)).run(
            options=ExecutionOptions(batch_size=batch_size).resolve())
        assert sorted(store) == [(i,) for i in range(40)]
        assert metrics.component_input("sink") == 40
        assert metrics.component_output("src") == 40

    def test_batch_size_validated(self):
        store = []
        with pytest.raises(ValueError, match="batch_size"):
            LocalCluster(self.build_pipeline(store)).run(
                options=ExecutionOptions(batch_size=0).resolve())

    def test_finish_flush_works_in_batch_mode(self):
        from collections import Counter as CCounter

        class CountBolt(Bolt):
            def __init__(self):
                self.counts = CCounter()

            def execute_batch(self, source, stream, rows):
                self.counts.update(row[0] for row in rows)
                return []

            def finish(self):
                return [("counts", (key, n))
                        for key, n in sorted(self.counts.items())]

        store = []
        builder = TopologyBuilder()
        builder.set_spout("src", lambda i, p: ListSpout(
            [("x",), ("x",), ("y",)] * 4, "src"))
        builder.set_bolt("count", lambda i, p: CountBolt()).shuffle_grouping("src")
        builder.set_bolt("sink", lambda i, p: CollectBolt(store)) \
            .shuffle_grouping("count")
        LocalCluster(builder.build()).run(
            options=ExecutionOptions(batch_size=5).resolve())
        assert sorted(store) == [("x", 8), ("y", 4)]

    def test_deep_topology_runs_without_recursion_error(self):
        """A linear chain of >= 100 bolts must not recurse per tuple.

        The seed engine dispatched tuples through recursive calls, one
        stack frame per topology level; the work-queue engine is flat.
        This chain is deep enough that recursive dispatch would blow
        CPython's default 1000-frame stack.
        """
        depth = 1100
        store = []

        class Forward(Bolt):
            def execute_batch(self, source, stream, rows):
                return [("fwd", row) for row in rows]

        builder = TopologyBuilder()
        builder.set_spout("src", lambda i, p: ListSpout([(1,), (2,)], "src"))
        previous = "src"
        for level in range(depth):
            builder.set_bolt(f"b{level}", lambda i, p: Forward()) \
                .shuffle_grouping(previous)
            previous = f"b{level}"
        builder.set_bolt("sink", lambda i, p: CollectBolt(store)) \
            .shuffle_grouping(previous)
        metrics = LocalCluster(builder.build()).run()
        assert sorted(store) == [(1,), (2,)]
        assert metrics.component_input("sink") == 2
        assert metrics.component_input(f"b{depth - 1}") == 2
