"""Unit tests for the execution backends (storm/executor.py).

Covers the scheduling machinery (worker count, coalescing, rounds),
the error surface (unknown backends, unsupported knob combinations,
worker failures), pickle-safety of operators shipped across process
boundaries, and the per-task micro-batch metrics that give the parallel
backends' load-balance tests their signal.
"""

import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
from collections import Counter

import pytest

from repro.core.columnar import ColumnBatch, sign_runs
from repro.core.expressions import col
from repro.core.options import ExecutionOptions
from repro.core.schema import Schema
from repro.engine.operators import Projection, Selection
from repro.engine.runner import AggBolt, SinkBolt
from repro.storm import (
    Bolt,
    ExecutorError,
    ListSpout,
    LocalCluster,
    TopologyBuilder,
)
from repro.obs import FanIn, Observer, SpanContext
from repro.storm.executor import (
    StagedExecutor,
    WaveBuffer,
    default_parallelism,
)
from repro.storm.metrics import TopologyMetrics

PARALLEL = ["processes"]


class DoublerBolt(Bolt):
    def execute(self, source, stream, values):
        return [("default", tuple(v * 2 for v in values))]


class FailingBolt(Bolt):
    def execute(self, source, stream, values):
        raise RuntimeError("boom in worker")


class SelfKillingBolt(Bolt):
    """Dies the way an OOM-killed or segfaulting worker does: no
    traceback, no reply, just a closed pipe."""

    def execute(self, source, stream, values):
        os.kill(os.getpid(), signal.SIGKILL)


def diamond_topology(rows=None, bolt_factory=None):
    """spout -> (left, right) -> join-ish sink bolt collecting rows."""
    rows = rows if rows is not None else [(i,) for i in range(20)]
    bolt_factory = bolt_factory or (lambda i, p: DoublerBolt())
    builder = TopologyBuilder()
    builder.set_spout("spout", lambda i, p: ListSpout(rows), parallelism=2)
    builder.set_bolt("left", bolt_factory, parallelism=2).shuffle_grouping("spout")
    builder.set_bolt("right", bolt_factory, parallelism=2).shuffle_grouping("spout")
    sink = SinkBolt()
    declarer = builder.set_bolt("sink", lambda i, p: sink)
    declarer.global_grouping("left")
    declarer.global_grouping("right")
    return builder.build(), sink


class TestScheduling:
    def test_topological_levels_of_a_diamond(self):
        """A level pass runs the bolts upstream first; the spouts are
        pulled by the rounds, never scheduled in a pass."""
        topology, _sink = diamond_topology()
        assert LocalCluster(topology)._bolt_order == ["left", "right", "sink"]

    def test_every_edge_goes_to_a_strictly_later_level(self):
        """What lets one level pass empty the buffer: every bolt's input
        comes from a component whose turn came before."""
        topology, _sink = diamond_topology()
        order = LocalCluster(topology)._bolt_order
        depth = {name: i for i, name in enumerate(order)}
        for edge in topology.edges:
            if edge.source in depth:
                assert depth[edge.target] > depth[edge.source]
            else:
                assert topology.components[edge.source].is_spout

    def test_assignment_is_disjoint_and_balanced(self):
        topology, _sink = diamond_topology()
        assignment = StagedExecutor(LocalCluster(topology),
                                    parallelism=3).pool.assignment
        # every bolt task owned exactly once; the spouts stay home
        assert set(assignment) == {
            (name, t)
            for name, spec in topology.components.items()
            if not spec.is_spout
            for t in range(spec.parallelism)
        }
        loads = [0, 0, 0]
        for owner in assignment.values():
            loads[owner] += 1
        assert max(loads) - min(loads) <= 1  # global round-robin

    def test_worker_count_clamped_to_task_count(self):
        topology, _sink = diamond_topology()
        executor = StagedExecutor(LocalCluster(topology), parallelism=64)
        # 2 + 2 + 1 bolt tasks: the spouts stay in the coordinator
        assert executor.pool.n_workers == 5

    def test_default_parallelism_is_positive(self):
        assert default_parallelism() >= 1

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="no CPU affinity on this platform")
    def test_default_parallelism_counts_usable_cores_not_installed(self):
        """Pinned to one CPU (``taskset -c 0``, a one-CPU cpuset) the
        default must not fork four workers onto it; ``os.cpu_count()``
        still reports every installed core there."""
        script = (
            "import os\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from repro.storm.executor import default_parallelism\n"
            "from repro.util import usable_cores\n"
            "print(usable_cores(), default_parallelism())\n")
        output = subprocess.run(
            [sys.executable, "-c", script], check=True, capture_output=True,
            text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert output.stdout.split() == ["1", "1"]


class TestErrors:
    def test_unknown_executor_name(self):
        topology, _sink = diamond_topology()
        cluster = LocalCluster(topology)
        with pytest.raises(ValueError, match="unknown executor"):
            cluster.run(executor="goroutines")

    def test_zero_parallelism_rejected(self):
        topology, _sink = diamond_topology()
        with pytest.raises(ExecutorError, match="parallelism"):
            StagedExecutor(LocalCluster(topology), parallelism=0)

    def test_max_tuples_needs_inline(self):
        topology, _sink = diamond_topology()
        with pytest.raises(ExecutorError, match="max_tuples"):
            LocalCluster(topology).run(max_tuples=5, executor="processes")

    @pytest.mark.parametrize("executor", PARALLEL)
    def test_worker_failure_surfaces_with_traceback(self, executor):
        topology, _sink = diamond_topology(
            bolt_factory=lambda i, p: FailingBolt())
        cluster = LocalCluster(topology)
        with pytest.raises(ExecutorError, match="boom in worker"):
            cluster.run(batch_size=4, executor=executor, parallelism=2)

    def test_dead_process_worker_fails_loudly_and_leaves_no_survivor(self):
        """Task 0 of ``left`` and ``right`` lives on worker 0; worker 1
        outlives it and must still be stopped and joined."""
        topology, _sink = diamond_topology(
            bolt_factory=lambda i, p:
            SelfKillingBolt() if i == 0 else DoublerBolt())
        cluster = LocalCluster(topology)
        with pytest.raises(ExecutorError) as err:
            cluster.run(batch_size=4, executor="processes", parallelism=2)
        message = str(err.value)
        assert "worker 0 died" in message
        assert "'left'" in message  # the component it was running
        assert "exit code -9" in message
        assert multiprocessing.active_children() == []


class TestParallelExecution:
    @pytest.mark.parametrize("executor", PARALLEL)
    def test_matches_inline_results(self, executor):
        rows = [(i,) for i in range(50)]
        inline_topology, inline_sink = diamond_topology(rows)
        LocalCluster(inline_topology).run(batch_size=8)

        topology, _sink = diamond_topology(rows)
        cluster = LocalCluster(topology)
        cluster.run(batch_size=8, executor=executor, parallelism=3)
        # read the sink's post-run store from the cluster: under the
        # processes backend the pre-fork sink object is never mutated
        store = cluster.task("sink", 0).store
        assert sorted(store) == sorted(inline_sink.store)
        assert len(store) == 2 * len(rows)  # left + right each double all

    @pytest.mark.parametrize("executor", PARALLEL)
    def test_single_worker_degenerate_case(self, executor):
        rows = [(i,) for i in range(10)]
        topology, _sink = diamond_topology(rows)
        cluster = LocalCluster(topology)
        cluster.run(batch_size=4, executor=executor, parallelism=1)
        assert len(cluster.task("sink", 0).store) == 2 * len(rows)

    @pytest.mark.parametrize("executor", PARALLEL)
    def test_runs_are_deterministic(self, executor):
        stores = []
        metrics = []
        for _run in range(2):
            topology, _sink = diamond_topology()
            cluster = LocalCluster(topology)
            result = cluster.run(batch_size=4, executor=executor, parallelism=3)
            stores.append(list(cluster.task("sink", 0).store))
            metrics.append((result.received, result.emitted, result.batches))
        assert stores[0] == stores[1]  # same order, not just same multiset
        assert metrics[0] == metrics[1]


class TestBatchMetrics:
    """The satellite fix: spout tasks get per-task batch counts, so the
    parallel backends' load-balance checks have a per-task activity
    signal (spouts have no ``received`` counters at all)."""

    def test_inline_records_spout_batches_per_task(self):
        topology, _sink = diamond_topology(rows=[(i,) for i in range(40)])
        cluster = LocalCluster(topology)
        metrics = cluster.run(batch_size=8)
        counts = metrics.batch_counts("spout")
        assert len(counts) == 2
        # 40 rows striped over 2 tasks = 20 rows/task = 3 pulls of 8 each
        assert counts == [3, 3]

    def test_inline_records_bolt_batches(self):
        topology, _sink = diamond_topology()
        metrics = LocalCluster(topology).run(batch_size=8)
        assert sum(metrics.batch_counts("sink")) > 0

    @pytest.mark.parametrize("executor", PARALLEL)
    def test_parallel_backends_balance_spout_batches(self, executor):
        topology, _sink = diamond_topology(rows=[(i,) for i in range(64)])
        cluster = LocalCluster(topology)
        metrics = cluster.run(batch_size=8, executor=executor, parallelism=2)
        counts = metrics.batch_counts("spout")
        # both striped spout tasks pulled the same number of micro-batches
        assert counts == [4, 4]
        assert sum(metrics.batch_counts("left")) > 0

    def test_unknown_component_has_no_batch_counts(self):
        topology, _sink = diamond_topology()
        metrics = LocalCluster(topology).run()
        assert metrics.batch_counts("nope") == []


class TestPickleSafety:
    """Operators cross process boundaries when the processes backend
    ships final task state home; compiled closures must be dropped and
    rebuilt on arrival."""

    def test_selection_roundtrip_recompiles_and_keeps_counters(self):
        schema = Schema.of("x", "y")
        selection = Selection(col("x").lt(10), schema)
        assert selection.apply((3, 0)) == (3, 0)
        assert selection.apply((30, 0)) is None
        clone = pickle.loads(pickle.dumps(selection))
        assert clone.seen == 2 and clone.passed == 1
        assert clone.apply((5, 0)) == (5, 0)  # the predicate still works
        assert clone.selectivity == pytest.approx(2 / 3)

    def test_projection_roundtrip_recompiles(self):
        schema = Schema.of("x", "y")
        projection = Projection([col("y"), col("x")], schema)
        clone = pickle.loads(pickle.dumps(projection))
        assert clone.apply((1, 2)) == (2, 1)
        assert clone.apply_batch([(1, 2), (3, 4)]) == [(2, 1), (4, 3)]


class TestAdaptivePartitioners:
    """Adaptive (stream-observing) partitioners reshape as rows arrive.
    Batch routing is central on both executors, so the one partitioner
    sees the whole stream in one order and ``processes`` reshapes exactly
    as ``inline`` does (streaming ``processes`` refuses them: a recovery
    replay could not route the same way, see ``tests/test_streaming.py``)."""

    def build_adaptive_cluster(self):
        from repro.core.predicates import EquiCondition, JoinSpec, RelationInfo
        from repro.core.schema import Relation, Schema
        from repro.engine.component import JoinComponent, PhysicalPlan, SourceComponent
        from repro.engine.runner import run_plan
        from repro.partitioning.adaptive import AdaptiveOneBucket

        rows = [(i, i % 5) for i in range(40)]
        R = Relation("R", Schema.of("x", "y"), rows)
        S = Relation("S", Schema.of("y", "z"), rows)
        spec = JoinSpec(
            [RelationInfo("R", R.schema, 40), RelationInfo("S", S.schema, 40)],
            [EquiCondition(("R", "y"), ("S", "y"))],
        )
        plan = PhysicalPlan(
            sources=[SourceComponent("R", R), SourceComponent("S", S)],
            joins=[JoinComponent(
                "J", spec, machines=4,
                scheme=AdaptiveOneBucket("R", "S", machines=4,
                                         check_interval=8))],
        )
        return plan, run_plan

    @pytest.mark.parametrize("executor", PARALLEL)
    def test_parallel_backends_match_inline(self, executor):
        plan, run_plan = self.build_adaptive_cluster()
        inline = run_plan(plan, options=ExecutionOptions(batch_size=8))
        plan, run_plan = self.build_adaptive_cluster()
        parallel = run_plan(plan, options=ExecutionOptions(
            batch_size=8, executor=executor, parallelism=2))
        assert parallel.results == inline.results
        assert len(inline.results) == 48
        assert parallel.partitioner_info == inline.partitioner_info
        assert "reshapes" in inline.partitioner_info["J"]
        assert parallel.metrics.received == inline.metrics.received
        assert parallel.metrics.batches == inline.metrics.batches

    def test_inline_still_runs_adaptive_partitioners(self):
        plan, run_plan = self.build_adaptive_cluster()
        result = run_plan(plan, options=ExecutionOptions(batch_size=8))
        assert result.results


class TestRouter:
    def test_sink_bolt_grows_its_own_store_by_default(self):
        sink = SinkBolt()
        sink.execute_batch("J", "J", [(1,), (2,)])
        assert sink.store == [(1,), (2,)]


def _shape(deliveries):
    """Deliveries with their payloads spelled out as (kind, rows)."""
    return [(source, stream,
             ("columns" if isinstance(rows, ColumnBatch) else "rows",
              list(rows)), ctx)
            for source, stream, rows, ctx, _parts in deliveries]


class TestWaveBuffer:
    """The coalescing rule itself: per (target, task), every maximal run
    of deliveries sharing (source, stream) and representation becomes
    one batch, in arrival order, carrying the span contexts of all its
    parts and their number."""

    def test_a_run_of_one_stream_becomes_one_batch_per_task(self):
        buffer = WaveBuffer()
        buffer.add([("J", 0, "R", "R", [(1,), (2,)]),
                    ("J", 1, "R", "R", [(3,)])])
        buffer.add([("J", 0, "R", "R", [(4,)])])
        assert buffer.depth() == 2
        assert buffer.pop(("J", 0)) == [
            ("R", "R", [(1,), (2,), (4,)], None, 2)]
        assert buffer.pop(("J", 1)) == [("R", "R", [(3,)], None, 1)]
        assert not buffer and buffer.pop(("J", 0)) == []

    def test_a_single_delivery_is_handed_over_untouched(self):
        rows = [(1,)]
        buffer = WaveBuffer()
        buffer.add([("J", 0, "R", "R", rows)])
        assert buffer.pop(("J", 0))[0][2] is rows

    def test_streams_sources_and_retractions_split_runs_in_order(self):
        """One edge's inserts and retractions are one run: a retraction
        is a row's sign, not a stream, so it merges with its neighbours
        and keeps its place; only another stream or source splits."""
        buffer = WaveBuffer()
        for source, stream, sign in [("R", "R", 1), ("R", "R", 1),
                                     ("R", "R", -1), ("R", "R", 1),
                                     ("S", "R", 1), ("S", "R", -1),
                                     ("S", "T", 1)]:
            buffer.add([("J", 0, source, stream, ColumnBatch.from_rows(
                [(source, stream)], [sign]))])
        assert [(source, stream, rows.signs.tolist())
                for source, stream, rows, _ctx, _n in buffer.pop(("J", 0))] == [
            ("R", "R", [1, 1, -1, 1]), ("S", "R", [1, -1]), ("S", "T", [1])]

    def test_a_row_list_run_then_a_column_batch_run_are_two_batches(self):
        buffer = WaveBuffer()
        buffer.add([("J", 0, "R", "R", [(1,)])])
        buffer.add([("J", 0, "R", "R", [(2,)])])
        buffer.add([("J", 0, "R", "R", ColumnBatch.from_rows([(3,)]))])
        buffer.add([("J", 0, "R", "R", ColumnBatch.from_rows([(4,)]))])
        assert _shape(buffer.pop(("J", 0))) == [
            ("R", "R", ("rows", [(1,), (2,)]), None),
            ("R", "R", ("columns", [(3,), (4,)]), None)]

    def test_column_batches_merge_across_signs_but_not_arity(self):
        buffer = WaveBuffer()
        for batch in (ColumnBatch.from_rows([(1,)]),
                      ColumnBatch.from_rows([(2,)], [-1]),
                      ColumnBatch.from_rows([(3,), (5,)], [1, -1]),
                      ColumnBatch.from_rows([(4, 4)], [-1])):
            buffer.add([("J", 0, "R", "R", batch)])
        merged = [rows for _s, _t, rows, _c, _n in buffer.pop(("J", 0))]
        assert [(batch.signs.tolist(), batch.to_rows())
                for batch in merged] == [
            ([1, -1, 1, -1], [(1,), (2,), (3,), (5,)]), ([-1], [(4, 4)])]

    @pytest.mark.parametrize("empty", [[], ColumnBatch.from_rows([])],
                             ids=["rows", "columns"])
    def test_an_empty_batch_stays_a_delivery_of_its_own(self, empty):
        """Neither merged away nor merged into: a bolt that was handed
        an empty batch between two others still is."""
        full = (lambda rows: rows) if isinstance(empty, list) \
            else ColumnBatch.from_rows
        buffer = WaveBuffer()
        for rows in (full([(1,)]), empty, full([(2,)]), full([(3,)])):
            buffer.add([("J", 0, "R", "R", rows)])
        assert [(list(rows), parts)
                for _s, _t, rows, _c, parts in buffer.pop(("J", 0))] == [
            ([(1,)], 1), ([], 1), ([(2,), (3,)], 2)]

    def test_a_run_merged_from_traced_hops_names_every_parent(self):
        """Tracing does not split a run: k traced parts pop as one
        delivery whose context is the fan-in of the k parents with the
        rows each contributed; an untraced (punctuation) part merges in
        without an entry; a run of one whole part keeps its plain
        context."""
        first, second = SpanContext("R.0.1", "w0.1"), SpanContext("R.0.2",
                                                                  "w0.2")
        buffer = WaveBuffer()
        buffer.add([("agg", 0, "R", "R", [(1,), (2,)])], first)
        buffer.add([("agg", 0, "R", "R", [(3,)])], second)
        buffer.add([("agg", 0, "R", "R", [(4,)])])  # an untraced flush
        buffer.add([("agg", 0, "R", "R", [(5,)])], first)
        buffer.add([("agg", 1, "R", "R", [(6,)])], second)
        [(_source, _stream, rows, ctx, _parts)] = buffer.pop(("agg", 0))
        assert rows == [(1,), (2,), (3,), (4,), (5,)]
        assert isinstance(ctx, FanIn)
        assert ctx == ((first, 2), (second, 1), (first, 1))
        assert buffer.pop(("agg", 1)) == [("R", "R", [(6,)], second, 1)]

    def test_downstream_of_a_fan_in_every_parent_gets_an_equal_share(self):
        parents = FanIn(((SpanContext("R.0.1", "c.7"), 40),
                         (SpanContext("R.0.2", "c.8"), 2),
                         (SpanContext("S.0.1", "c.9"), 8)))
        buffer = WaveBuffer()
        buffer.add([("sink", 0, "agg", "agg", [(i,) for i in range(8)])],
                   parents)
        [(_source, _stream, _rows, ctx, _parts)] = buffer.pop(("sink", 0))
        assert [parent for parent, _rows in ctx] == \
            [parent for parent, _rows in parents]
        assert [rows for _parent, rows in ctx] == [3, 3, 2]

    @pytest.mark.parametrize("obs_factory", [
        lambda: Observer("trace"), lambda: Observer("trace", worker=0)],
        ids=["observer", "worker"])
    def test_delivering_a_fan_in_records_one_span_per_part(self, obs_factory):
        """The k spans carry their traces' rows (summing to the batch)
        and row-shares of the one measured call (summing to it); the
        child context fans the k new spans in downstream.  ``deliver``
        itself knows nothing of this."""
        from repro.storm.kernel import deliver

        obs = obs_factory()
        roots = [obs.root("R", 0, rows, 0.0) for rows in (3, 1, 4)]
        buffer = WaveBuffer()
        for root, rows in zip(roots, (3, 1, 4)):
            buffer.add([("sink", 0, "R", "R", [(i,) for i in range(rows)])],
                       root)
        [(source, stream, rows, ctx, _parts)] = buffer.pop(("sink", 0))
        _emissions, child = deliver(
            SinkBolt(), "sink", 0, source, stream, rows, ctx,
            TopologyMetrics.of({"sink": 1}), obs)
        if obs.registry is None:  # a worker's: what its reply carries
            timings, entries = obs.drain()
            merged = Observer("trace")
            merged.merge_worker_obs(([], entries))
            spans, call = merged.traces.spans(), timings[-1][2]
        else:
            spans, call = obs.traces.spans(), obs.registry.merged_histogram(
                "operator_batch_seconds", component="sink").total
        hops = [span for span in spans if span["component"] == "sink"]
        assert [(span["trace"], span["parent"], span["rows"])
                for span in hops] == [
            (root.trace_id, root.span_id, rows)
            for root, rows in zip(roots, (3, 1, 4))]
        assert sum(span["duration_ms"] for span in hops) == \
            pytest.approx(call * 1000.0)
        assert isinstance(child, FanIn)
        assert [(parent.trace_id, parent.span_id, rows)
                for parent, rows in child] == [
            (span["trace"], span["span"], span["rows"]) for span in hops]

    def test_a_punctuation_part_adds_rows_but_no_span(self):
        obs = Observer("trace")
        root = obs.root("R", 0, 2, 0.0)
        buffer = WaveBuffer()
        buffer.add([("sink", 0, "R", "R", [(1,), (2,)])], root)
        buffer.add([("sink", 0, "R", "R", [(3,), (4,)])])  # a flush
        [(_source, _stream, rows, ctx, _parts)] = buffer.pop(("sink", 0))
        assert len(rows) == 4 and ctx == ((root, 2),)
        obs.span(ctx, "sink", 0, len(rows), 0.008)
        [hop] = [span for span in obs.traces.spans()
                 if span["component"] == "sink"]
        assert hop["rows"] == 2 and hop["duration_ms"] == pytest.approx(4.0)


def merged_runs(log):
    """A ``(sign, rows)`` log with adjacent same-sign entries merged."""
    runs = []
    for sign, rows in log:
        if runs and runs[-1][0] == sign:
            runs[-1][1].extend(rows)
        else:
            runs.append((sign, list(rows)))
    return runs


class LoggingAggBolt(AggBolt):
    """Remembers every batch it was handed (module level: it is shipped
    home over a pipe)."""

    def __init__(self, component):
        super().__init__(component)
        self.log = []

    def execute_batch(self, source, stream, rows):
        for sign, run in sign_runs(rows):
            self.log.append((sign, run.to_rows() if sign < 0 else list(run)))
        return super().execute_batch(source, stream, rows)


class TestWaveCoalescing:
    """End to end on the staged backends and the inline rounds
    (timing-free): a task executes one batch per run it was delivered,
    and nothing that is counted in rows moves."""

    N_ROWS = 400
    BATCH_SIZE = 64

    def chain_plan(self):
        from benchmarks.harness import multiway_join_plan

        return multiway_join_plan(n_rows=self.N_ROWS, machines=8)

    @pytest.mark.parametrize("executor", PARALLEL)
    def test_joiners_execute_one_batch_per_source_relation(self, executor):
        from repro.engine import run_plan

        inline = run_plan(self.chain_plan(),
                          options=ExecutionOptions(batch_size=self.BATCH_SIZE))
        staged = run_plan(self.chain_plan(),
                          options=ExecutionOptions(batch_size=self.BATCH_SIZE,
                                                   executor=executor,
                                                   parallelism=2))
        # each single-task source reaches a joiner as one run, however
        # many spout batches it was read in (7 here)
        spout_batches = staged.metrics.batch_counts("R")
        assert spout_batches == [-(-self.N_ROWS // self.BATCH_SIZE)]
        joiner_batches = staged.metrics.batch_counts("J")
        assert len(joiner_batches) == 8
        assert all(1 <= count <= 3 for count in joiner_batches)
        # all joiners' outputs for one aggregation task are one run
        assert staged.metrics.batch_counts("agg") == [1, 1, 1, 1]
        # the inline round is the same schedule without the workers
        assert inline.metrics.batches == staged.metrics.batches
        assert staged.metrics.columnar_batches > 0
        for component in ("J", "agg", "sink"):
            assert staged.metrics.component_input(component) == \
                inline.metrics.component_input(component)
        for component in ("R", "S", "T", "J", "agg"):
            assert staged.metrics.component_output(component) == \
                inline.metrics.component_output(component)
        assert staged.metrics.received == inline.metrics.received
        assert Counter(staged.results) == Counter(inline.results)
        assert inline.results
        assert staged.join_state == inline.join_state

    @pytest.mark.parametrize("executor", PARALLEL)
    def test_retraction_runs_stay_apart_and_in_order(self, executor):
        """The compensation script of ``tests.batching_plans`` through
        the count/sum plan: an aggregation task sees its ``events``
        insertions and retractions in script order, as alternating
        same-sign runs -- never an insert moved past the retraction
        that follows it."""
        from repro.engine.runner import build_topology
        from repro.storm.groupings import FieldsGrouping
        from tests.batching_plans import (
            plan_stream_count_sum,
            retraction_script,
        )
        from tests.test_retractions import ScriptSpout

        def run(executor):
            plan = plan_stream_count_sum()
            topology, _partitioners = build_topology(
                plan,
                spout_factory=lambda source: (
                    lambda i, p: ScriptSpout(retraction_script())),
                agg_bolt_factory=LoggingAggBolt)
            cluster = LocalCluster(topology)
            cluster.run(batch_size=16, executor=executor, parallelism=2,
                        columnar=False)
            return cluster

        staged, inline = run(executor), run("inline")
        assert sorted(staged.task("sink", 0).store) == \
            sorted(inline.task("sink", 0).store)
        grouping = FieldsGrouping([1])
        for task_index in range(2):
            expected = []  # this task's share of the script, as runs
            for stream, row, *retracted in retraction_script():
                if grouping.targets(stream, row, 2) != [task_index]:
                    continue
                sign = -1 if retracted else 1
                if expected and expected[-1][0] == sign:
                    expected[-1][1].append(row)
                else:
                    expected.append((sign, [row]))
            assert merged_runs(staged.task("agg", task_index).log) == \
                expected
            assert len(expected) >= 4  # inserts and retractions alternate
            assert merged_runs(inline.task("agg", task_index).log) == \
                expected


class TestInlineRounds:
    """The inline executor's two schedules: rounds with per-task wave
    coalescing at ``batch_size > 1``; the depth-first work stack for
    ``batch_size=1``, ``max_tuples`` and windowed plans -- whose output
    *order* ``tests/golden/depth_first_schedules.json`` pins as captured
    at the commit before the rounds existed (PR 16: ``run_plan(...)
    .results`` / the streaming delta feed of ``WINDOWED_PLANS`` at
    ``batch_size`` 16 and 64, and ``join_only`` cut at ``max_tuples=75``)."""

    N_ROWS = 400
    BATCH_SIZE = 64

    def run_chain(self, batch_size, executor="inline"):
        from benchmarks.harness import multiway_join_plan
        from repro.engine import run_plan

        return run_plan(multiway_join_plan(n_rows=self.N_ROWS, machines=8),
                        options=ExecutionOptions(batch_size=batch_size,
                                                 executor=executor,
                                                 parallelism=2))

    def assert_same_rows(self, run, reference):
        assert run.metrics.received == reference.metrics.received
        assert run.metrics.emitted == reference.metrics.emitted
        assert run.metrics.edge_transfers == reference.metrics.edge_transfers
        assert Counter(run.results) == Counter(reference.results)
        assert run.results
        assert run.join_state == reference.join_state

    def test_one_round_executes_each_task_once_per_input_run(self):
        per_tuple = self.run_chain(1)
        rounds = self.run_chain(self.BATCH_SIZE)
        batches = rounds.metrics.batch_counts
        assert batches("R") == [-(-self.N_ROWS // self.BATCH_SIZE)]
        assert all(1 <= count <= 3 for count in batches("J"))
        assert batches("agg") == [1, 1, 1, 1]
        assert batches("sink") == [1]  # the four flushes share one buffer
        # batch_size=1 stays one execution per tuple
        assert per_tuple.metrics.batch_counts("J") == \
            per_tuple.metrics.received["J"]
        self.assert_same_rows(rounds, per_tuple)

    @pytest.mark.parametrize("executor", ["inline", *PARALLEL])
    def test_an_input_larger_than_the_budget_runs_in_several_rounds(
            self, monkeypatch, executor):
        import repro.storm.cluster

        # 100 rows a spout and round: two pulls of 64, so 400 rows/relation
        # take three full rounds and a fourth for the last 16 -- on the
        # workers too: the budget bounds a processes level pass as well
        monkeypatch.setattr(repro.storm.cluster, "ROUND_BUDGET", 300)
        bounded = self.run_chain(self.BATCH_SIZE, executor)
        batches = bounded.metrics.batch_counts
        assert batches("R") == [-(-self.N_ROWS // self.BATCH_SIZE)]
        assert batches("agg") == [4, 4, 4, 4]
        assert all(4 <= count <= 3 * 4 for count in batches("J"))
        monkeypatch.undo()
        self.assert_same_rows(bounded, self.run_chain(self.BATCH_SIZE))

    @pytest.fixture(scope="class")
    def golden(self):
        import json

        path = os.path.join(os.path.dirname(__file__), "golden",
                            "depth_first_schedules.json")
        with open(path) as handle:
            return json.load(handle)

    @pytest.mark.parametrize("batch_size", [16, 64])
    @pytest.mark.parametrize("name", ["window_join", "tumbling_over_join",
                                      "sliding_agg"])
    def test_windowed_plans_keep_the_depth_first_order(self, name, batch_size,
                                                       golden):
        from repro.engine import run_plan
        from repro.streaming import stream_plan
        from tests.batching_plans import WINDOWED_PLANS

        build = WINDOWED_PLANS[name]
        options = ExecutionOptions(batch_size=batch_size)
        assert [list(row) for row in run_plan(build(), options=options)
                .results] == golden[f"{name}/batch/{batch_size}"]
        assert [[delta.sign, list(delta.row)]
                for delta in stream_plan(build(), options=options)] == \
            golden[f"{name}/streaming/{batch_size}"]

    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    def test_max_tuples_stops_at_the_same_tuple(self, batch_size, golden):
        from repro.engine import run_plan
        from tests.batching_plans import GOLDEN_PLANS

        result = run_plan(GOLDEN_PLANS["join_only"](), max_tuples=75,
                          options=ExecutionOptions(batch_size=batch_size))
        expected = golden[f"max_tuples/{batch_size}"]
        assert [list(row) for row in result.results] == expected["results"]
        assert result.metrics.emitted == expected["emitted"]
        assert sum(sum(result.metrics.emitted[name])
                   for name in ("R", "S", "T")) == 75


class NthPullFails(ListSpout):
    """Raises in its ``fail_at``-th pull."""

    def __init__(self, rows, fail_at: int):
        super().__init__(rows)
        self.fail_at, self.pulls = fail_at, 0

    def next_batch(self, max_rows):
        self.pulls += 1
        if self.pulls == self.fail_at:
            raise RuntimeError(f"spout failed in pull {self.fail_at}")
        return super().next_batch(max_rows)


class FreezeCountBolt(Bolt):
    """Emits how many objects its process's collector treats as frozen."""

    def execute(self, source, stream, values):
        import gc

        return [("default", (gc.get_freeze_count(),))]


class TestInheritedRounds:
    """Batch ``processes`` pulls and routes its first rounds, up to
    ``INHERITED_ROUNDS``, before its workers fork, so each inherits its
    tasks' deliveries to the first component and runs those rounds'
    turns back to back; any later round is pulled and run on its own.
    Only while the run is not observed and every edge routes
    task-locally (no adaptive partitioner)."""

    N_ROWS = 400

    def record_schedule(self, monkeypatch, budget=100):
        """Patch the pull/turn steps to log ``(step, turn)``; the default
        ``budget`` gives the chain join one 64-row pull a spout and
        round: seven rounds."""
        import repro.storm.cluster
        from repro.storm.executor import ResidentWorkerPool

        events = []
        steps = [(LocalCluster, "_pull_round", lambda args: None),
                 (ResidentWorkerPool, "start",
                  lambda args: args[1] if len(args) > 1 else None),
                 (ResidentWorkerPool, "run_rounds",
                  lambda args: (args[1], len(args[2]))),
                 (ResidentWorkerPool, "run_level", lambda args: args[1])]
        for cls, name, turn in steps:
            def recorded(*args, _original=getattr(cls, name), _name=name,
                         _turn=turn, **kwargs):
                events.append((_name, _turn(args)))
                return _original(*args, **kwargs)
            monkeypatch.setattr(cls, name, recorded)
        monkeypatch.setattr(repro.storm.cluster, "ROUND_BUDGET", budget)
        return events

    @staticmethod
    def steps(events):
        return [step for step, _turn in events]

    def run_chain(self, executor, observe=None):
        from benchmarks.harness import multiway_join_plan
        from repro.engine import run_plan

        return run_plan(multiway_join_plan(n_rows=self.N_ROWS, machines=8),
                        options=ExecutionOptions(batch_size=64,
                                                 executor=executor,
                                                 parallelism=2,
                                                 observe=observe))

    def test_the_first_rounds_are_pulled_before_the_workers_fork(
            self, monkeypatch):
        from repro.storm.cluster import INHERITED_ROUNDS

        events = self.record_schedule(monkeypatch)
        forked = self.run_chain("processes")
        head = INHERITED_ROUNDS
        assert self.steps(events)[:head] == ["_pull_round"] * head
        # the joiners run the inherited rounds, then each later
        # component takes its turns of those rounds
        assert events[head:head + 4] == [
            ("start", "J"), ("run_rounds", ("J", head)),
            ("run_rounds", ("agg", head)), ("run_rounds", ("sink", head))]
        # the later rounds are pulled one at a time, each before its own
        # level pass: the coordinator never holds more than the
        # inherited rounds
        rest = self.steps(events[head + 4:])
        assert rest[:4] == ["_pull_round", "run_level", "run_level",
                            "run_level"]
        pulled = self.steps(events).count("_pull_round")
        assert pulled > head
        events.clear()
        inline = self.run_chain("inline")
        assert self.steps(events) == ["_pull_round"] * pulled
        assert Counter(forked.results) == Counter(inline.results)
        assert forked.metrics.batches == inline.metrics.batches
        assert forked.metrics.received == inline.metrics.received
        assert forked.join_state == inline.join_state
        assert forked.join_work == inline.join_work

    def test_an_observed_run_pulls_between_level_passes(self, monkeypatch):
        events = self.record_schedule(monkeypatch)
        self.run_chain("processes", observe="metrics")
        steps = self.steps(events)
        assert events[0] == ("start", None) and steps.count("_pull_round") > 1
        assert "run_rounds" not in steps
        # a round's level pass runs before the next round is pulled
        assert steps[1:3] == ["_pull_round", "run_level"]

    @staticmethod
    def counters(metrics):
        return {name: getattr(metrics, name)
                for name in ("batches", "received", "emitted")}

    def test_two_joins_take_the_inherited_rounds(self, monkeypatch):
        """J2 is fed by a spout (T) and by a bolt (J1) through one
        partitioner: every edge routes task-locally, so the first rounds
        are still pulled ahead of the fork, and every task executes what
        it executes inline."""
        from repro.engine import run_plan
        from tests.batching_plans import plan_two_joins

        events = self.record_schedule(monkeypatch, budget=24)
        options = dict(batch_size=4, parallelism=2)
        forked = run_plan(plan_two_joins(), options=ExecutionOptions(
            executor="processes", **options))
        steps = self.steps(events)
        assert steps[0] == "_pull_round" and "run_rounds" in steps
        assert events[steps.index("start")] == ("start", "J1")
        inline = run_plan(plan_two_joins(),
                          options=ExecutionOptions(**options))
        assert Counter(forked.results) == Counter(inline.results)
        assert self.counters(forked.metrics) == self.counters(inline.metrics)

    def test_an_adaptive_partitioner_pulls_no_round_ahead(self, monkeypatch):
        """An adaptive partitioner routes by what it has seen: its rows
        must reach it in inline's order, so no round is pulled ahead --
        and it places every row where inline does."""
        from repro.partitioning.adaptive import AdaptiveOneBucket
        from repro.storm.groupings import HypercubeGrouping

        def topology():
            partitioner = AdaptiveOneBucket("R", "S", machines=4,
                                            check_interval=8)
            builder = TopologyBuilder()
            rows = [(i,) for i in range(40)]
            builder.set_spout("R", lambda i, p: ListSpout(rows, stream="R"))
            builder.set_spout("S", lambda i, p: ListSpout(rows, stream="S"))
            declarer = builder.set_bolt("J", lambda i, p: SinkBolt(),
                                        parallelism=4)
            for name in ("R", "S"):
                declarer.custom_grouping(
                    name, HypercubeGrouping(partitioner, name))
            return builder.build()

        events = self.record_schedule(monkeypatch, budget=8)
        forked = LocalCluster(topology())
        forked.run(batch_size=4, executor="processes", parallelism=2)
        assert events[0] == ("start", None)
        assert "run_rounds" not in self.steps(events)
        inline = LocalCluster(topology())
        inline.run(batch_size=4)
        assert [forked.task("J", index).store for index in range(4)] == \
            [inline.task("J", index).store for index in range(4)]
        assert self.counters(forked.metrics) == self.counters(inline.metrics)

    def test_a_shuffle_shared_by_two_bolts_keeps_the_inherited_path(
            self, monkeypatch):
        """Two bolts routing through one ShuffleGrouping object: the
        grouping keeps no cursor, so the order their emissions are
        routed in does not matter, and the rounds are pulled ahead."""
        from repro.storm.groupings import ShuffleGrouping

        rows = [(i,) for i in range(20)]
        shared = ShuffleGrouping()
        builder = TopologyBuilder()
        builder.set_spout("spout", lambda i, p: ListSpout(rows))
        builder.set_bolt("left", lambda i, p: DoublerBolt()).shuffle_grouping(
            "spout")
        builder.set_bolt("right", lambda i, p: DoublerBolt()).shuffle_grouping(
            "spout")
        declarer = builder.set_bolt("sink", lambda i, p: SinkBolt(),
                                    parallelism=2)
        declarer.custom_grouping("left", shared)
        declarer.custom_grouping("right", shared)
        topology = builder.build()
        events = self.record_schedule(monkeypatch, budget=8)
        cluster = LocalCluster(topology)
        cluster.run(batch_size=4, executor="processes", parallelism=2)
        steps = self.steps(events)
        assert steps[0] == "_pull_round" and "run_rounds" in steps
        assert events[steps.index("start")] == ("start", "left")
        inline = LocalCluster(topology)
        inline.run(batch_size=4)
        assert [cluster.task("sink", index).store for index in range(2)] == \
            [inline.task("sink", index).store for index in range(2)]
        assert self.counters(cluster.metrics) == self.counters(inline.metrics)

    @pytest.mark.parametrize("fail_at", [2, 6], ids=["before", "after"])
    def test_a_pull_that_raises_leaves_no_worker(self, monkeypatch,
                                                 fail_at):
        """A pull raises while the first rounds are pulled ahead of the
        fork, or in a later round, with the workers running."""
        import repro.storm.cluster
        from repro.storm.cluster import INHERITED_ROUNDS

        assert 2 <= INHERITED_ROUNDS < 6
        # one 4-row pull a round
        monkeypatch.setattr(repro.storm.cluster, "ROUND_BUDGET", 4)
        rows = [(i,) for i in range(40)]
        builder = TopologyBuilder()
        builder.set_spout("spout", lambda i, p: NthPullFails(rows, fail_at))
        builder.set_bolt("double", lambda i, p: DoublerBolt(),
                         parallelism=2).shuffle_grouping("spout")
        builder.set_bolt("sink", lambda i, p: SinkBolt()).global_grouping(
            "double")
        cluster = LocalCluster(builder.build())
        with pytest.raises(RuntimeError, match=f"pull {fail_at}"):
            cluster.run(batch_size=4, executor="processes", parallelism=2)
        assert multiprocessing.active_children() == []

    def test_workers_fork_with_the_inherited_heap_frozen(self):
        import gc

        before = gc.get_freeze_count()
        topology, _sink = diamond_topology(
            bolt_factory=lambda i, p: FreezeCountBolt())
        cluster = LocalCluster(topology)
        cluster.run(batch_size=4, executor="processes", parallelism=2)
        counts = [row[0] for row in cluster.task("sink", 0).store]
        # 20 rows through both branches
        assert len(counts) == 40 and min(counts) > 0
        # the coordinator's own collector is left as it was
        assert gc.get_freeze_count() == before
