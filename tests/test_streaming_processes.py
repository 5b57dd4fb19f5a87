"""The fault-tolerant streaming ``processes`` executor, end to end.

Three contracts, in increasing order of hostility:

1. **Equivalence** -- with no faults, every golden plan converges to the
   batch engine's snapshot across batch sizes.
2. **Incrementality** -- the hash-diff checkpoint persists only changed
   partitions: unchanged operator state costs zero checkpoint bytes,
   asserted through the coordinator's checkpoint-bytes metrics.
3. **Exactly-once recovery** -- SIGKILLing resident workers mid-stream
   (every worker role, multiple kill points, batch sizes 1 and 64,
   driven deterministically by :class:`repro.storm.failures.\
FaultInjector`) still converges to a snapshot byte-identical to batch.
"""

import multiprocessing
import os
import pickle
import random
import signal

import pytest

from repro.checkpoint import CheckpointStore
from repro.core.options import ExecutionOptions
from repro.engine.runner import run_plan
from repro.core.predicates import EquiCondition, JoinSpec, RelationInfo
from repro.core.schema import Relation, Schema
from repro.engine import (
    AggComponent,
    JoinComponent,
    PhysicalPlan,
    SourceComponent,
    count,
)
from repro.storm import TopologyBuilder
from repro.storm import cluster as storm_cluster
from repro.storm.executor import ExecutorError
from repro.storm.failures import FaultInjector, WorkerKill
from repro.storm.topology import Bolt
from repro.streaming import (
    CallbackSource,
    DeltaSink,
    StreamingCluster,
    stream_plan,
)
from repro.streaming.runner import _IdleSpout
from tests.batching_plans import (
    GOLDEN_PLANS,
    plan_join_only,
    plan_snapshot_agg,
    plan_two_joins,
)
from tests.conftest import retracting


def batch_snapshot(plan):
    return sorted(run_plan(plan).results)


def processes_options(**overrides):
    defaults = dict(executor="processes", batch_size=16,
                    checkpoint_interval=2)
    defaults.update(overrides)
    return ExecutionOptions(**defaults)


def long_join_agg() -> PhysicalPlan:
    """R(x,y) >< S(y,z) >< T(z,t), 200 rows each, into COUNT by R.y:
    long enough for a small round budget to cut it into rounds."""
    rng = random.Random(66)
    n = 200
    R = Relation("R", Schema.of("x", "y"),
                 [(i, rng.randrange(40)) for i in range(n)])
    S = Relation("S", Schema.of("y", "z"),
                 [(rng.randrange(40), rng.randrange(30)) for _ in range(n)])
    T = Relation("T", Schema.of("z", "t"),
                 [(rng.randrange(30), i) for i in range(n)])
    spec = JoinSpec(
        [RelationInfo(rel.name, rel.schema, n) for rel in (R, S, T)],
        [EquiCondition(("R", "y"), ("S", "y")),
         EquiCondition(("S", "z"), ("T", "z"))])
    return PhysicalPlan(
        sources=[SourceComponent(rel.name, rel) for rel in (R, S, T)],
        joins=[JoinComponent("J", spec, machines=4, output_positions=[1])],
        aggregation=AggComponent("agg", group_positions=[0],
                                 aggregates=[count()], parallelism=2))


class TestEquivalence:
    @pytest.mark.parametrize("plan_name", sorted(GOLDEN_PLANS))
    @pytest.mark.parametrize("batch_size", [1, 64])
    def test_snapshot_equals_run_plan(self, plan_name, batch_size):
        builder = GOLDEN_PLANS[plan_name]
        expected = batch_snapshot(builder())
        query = stream_plan(
            builder(), options=processes_options(batch_size=batch_size)
        ).run()
        assert query.snapshot() == expected

    @pytest.mark.parametrize("builder", [plan_snapshot_agg, plan_join_only,
                                         plan_two_joins])
    @pytest.mark.parametrize("batch_size", [16, 64])
    def test_counters_equal_inline_streaming(self, builder, batch_size):
        """Both executors drive one scheduler, so every task executes the
        same batches on the same rows, wherever it lives."""
        inline = stream_plan(builder(), options=ExecutionOptions(
            batch_size=batch_size)).run()
        forked = stream_plan(builder(), options=processes_options(
            batch_size=batch_size, parallelism=2)).run()
        assert forked.snapshot() == inline.snapshot()
        for counter in ("batches", "received", "emitted"):
            assert getattr(forked.cluster.metrics, counter) == \
                getattr(inline.cluster.metrics, counter), counter

    @pytest.mark.parametrize("batch_size", [16, 64])
    def test_rounds_of_many_polls_agree_across_executors(
            self, monkeypatch, batch_size):
        """A round budget of 48 rows a source cuts each stream into
        rounds of three 16-row polls (or one 64-row poll): both
        executors take the same rounds, so every task executes the same
        batches, and both answer what ``run_plan`` answers."""
        monkeypatch.setattr(storm_cluster, "ROUND_BUDGET", 3 * 48)
        expected = batch_snapshot(long_join_agg())
        inline = stream_plan(long_join_agg(), options=ExecutionOptions(
            batch_size=batch_size)).run()
        forked = stream_plan(long_join_agg(), options=processes_options(
            batch_size=batch_size, parallelism=2)).run()
        assert inline.snapshot() == forked.snapshot() == expected
        for counter in ("batches", "received", "emitted"):
            assert getattr(forked.cluster.metrics, counter) == \
                getattr(inline.cluster.metrics, counter), counter
        # a joiner executes one batch per relation and round
        polls = -(-200 // batch_size)
        rounds = -(-polls // max(1, 48 // batch_size))
        assert sum(inline.cluster.metrics.batches["J"]) <= 3 * 4 * rounds

    def test_parallelism_caps_worker_count(self):
        query = stream_plan(plan_join_only(),
                            options=processes_options(parallelism=2)).run()
        assert query.snapshot() == batch_snapshot(plan_join_only())

    def test_parallelism_rejected_for_other_executors(self):
        with pytest.raises(ExecutorError, match="parallelism"):
            stream_plan(plan_join_only(),
                        options=ExecutionOptions(executor="inline",
                                                 parallelism=2))

    def test_epoch_zero_plus_preflush_always_commit(self):
        query = stream_plan(plan_join_only(),
                            options=processes_options(
                                checkpoint_interval=10_000)).run()
        stats = query.checkpoint_stats()
        # even with an unreachable interval: the startup restore point
        # and the pre-flush barrier
        assert stats["commits"] == 2
        assert stats["recoveries"] == 0


class TestCheckpointCadence:
    """``checkpoint_interval`` counts full pump rounds: a round counts as
    the raw rows it polled over ``batch_size`` per source it polled, at
    most one, so a trickle does not commit every few rows."""

    @staticmethod
    def commits_in(rows_per_round, rounds=8):
        builder = TopologyBuilder()
        builder.set_spout("A", lambda i, p: _IdleSpout())
        builder.set_bolt("shapes", lambda i, p: BatchShapes(i),
                         parallelism=2).shuffle_grouping("A")
        builder.set_bolt("sink", lambda i, p: DeltaSink()).global_grouping(
            "shapes")
        source = CallbackSource()
        cluster = StreamingCluster(builder.build(), {"A": source},
                                   batch_size=4, executor="processes",
                                   parallelism=1, checkpoint_interval=2)
        try:
            cluster.step()  # forks and commits epoch 0; nothing to poll
            before = cluster.checkpoints.commits
            for index in range(rounds):
                for offset in range(rows_per_round):
                    source.push(("A", index * 10 + offset), stream="A")
                cluster.step()
            return cluster.checkpoints.commits - before
        finally:
            source.close()
            cluster.run()

    def test_full_rounds_keep_the_interval(self):
        assert self.commits_in(rows_per_round=4) == 4  # 8 rounds / 2

    def test_a_trickle_counts_as_the_share_it_filled(self):
        # 8 rounds of 1 row at batch_size 4 are two full rounds' worth
        assert self.commits_in(rows_per_round=1) == 1

    def test_a_round_never_counts_more_than_once(self):
        assert self.commits_in(rows_per_round=40) == 4


class TestWorkerPlacement:
    @pytest.mark.skipif(
        not hasattr(os, "sched_getaffinity")
        or len(os.sched_getaffinity(0)) < 2,
        reason="needs two usable cores")
    def test_each_worker_runs_on_its_own_cpu_of_the_parents_mask(
            self, monkeypatch):
        """Left to the scheduler, two freshly forked CPU-bound workers
        can share one core for a whole run; each is pinned to one CPU
        of the coordinator's mask instead, a respawned one too."""
        monkeypatch.setattr(storm_cluster, "ROUND_BUDGET", 3 * 16)
        parent = os.sched_getaffinity(0)
        query = stream_plan(plan_join_only(),
                            options=processes_options(parallelism=2))

        def pinned():
            cpus = [os.sched_getaffinity(pid)
                    for pid in query.worker_pids().values()]
            assert len(cpus) == 2 and cpus[0] != cpus[1]
            assert all(len(cpu) == 1 and cpu <= parent for cpu in cpus)
            return cpus

        try:
            query.cluster.step()  # forks, commits epoch 0, runs a round
            before = pinned()
            os.kill(query.worker_pids()[0], signal.SIGKILL)
            query.cluster.step()  # the liveness sweep: respawn, replay
            assert query.checkpoint_stats()["recoveries"] == 1
            assert pinned() == before
            query.run()
        finally:
            if not query.done:  # a failed assertion: stop the workers
                query.stop(wait=False)
                query.cluster.step()
        assert query.snapshot() == batch_snapshot(plan_join_only())


class TestIncrementalCheckpointing:
    def test_unchanged_partitions_ship_zero_bytes(self):
        # hash-scheme routing (plan_two_joins) leaves partitions idle in
        # most rounds; committing every round, the hash-diff must prove
        # them unchanged (zero new bytes) instead of re-persisting all
        query = stream_plan(plan_two_joins(),
                            options=processes_options(
                                batch_size=1, checkpoint_interval=1)).run()
        stats = query.checkpoint_stats()
        assert stats["commits"] > 5
        # on average at least one partition per commit skips entirely
        assert stats["partitions_skipped"] >= stats["commits"]
        # and total checkpoint traffic undercuts "persist everything
        # every epoch" (commits x final-snapshot-size, the naive floor)
        full_snapshot = query.cluster._store.total_bytes()
        assert stats["bytes_persisted"] < \
            0.85 * stats["commits"] * full_snapshot

    def test_hash_diff_ships_fewer_partitions_than_full_snapshots(
            self, monkeypatch):
        def run():
            query = stream_plan(plan_two_joins(),
                                options=processes_options(
                                    batch_size=1,
                                    checkpoint_interval=1)).run()
            return query.checkpoint_stats()

        incremental = run()
        # blind the diff: every partition now ships on every commit
        monkeypatch.setattr(CheckpointStore, "known_digests",
                            lambda self: {})
        full = run()
        assert incremental["commits"] == full["commits"]
        assert full["partitions_skipped"] == 0
        assert incremental["partitions_persisted"] < \
            0.7 * full["partitions_persisted"]

    def test_checkpoint_dir_persists_restorable_manifest(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        stream_plan(plan_join_only(),
                    options=processes_options(),
                    checkpoint_dir=directory).run()
        store = CheckpointStore.open(directory)
        manifest = store.latest()
        assert manifest is not None
        blobs = store.restore_set(manifest)
        assert blobs  # every worker partition has a restorable blob
        coordinator = pickle.loads(manifest.coordinator)
        assert "sinks" in coordinator and "wm" in coordinator
        assert "router" not in coordinator  # routing keeps no state


class BatchShapes(Bolt):
    """Emits one row per batch it executes: ``(task, batch number,
    source, rows)``.  A sink below it lists the batches every task
    executed, so two runs with equal snapshots executed equal batches."""

    def __init__(self, task_index: int):
        self.task_index = task_index
        self.executed = 0

    def execute_batch(self, source, stream, rows):
        self.executed += 1
        return [("shape", (self.task_index, self.executed, source,
                           len(rows)))]


def batch_shapes_cluster(executor, fault_injector=None):
    """Sources A and B, 40 rows each, shuffled over two BatchShapes
    tasks into a delta sink; batch size 4."""
    builder = TopologyBuilder()
    for name in ("A", "B"):
        builder.set_spout(name, lambda i, p: _IdleSpout())
    builder.set_bolt("shapes", lambda i, p: BatchShapes(i), parallelism=2) \
        .shuffle_grouping("A").shuffle_grouping("B")
    builder.set_bolt("sink", lambda i, p: DeltaSink()).global_grouping(
        "shapes")
    sources = {name: CallbackSource(iter([(name, (name, i))
                                          for i in range(40)]))
               for name in ("A", "B")}
    extra = {} if executor == "inline" else dict(
        parallelism=2, checkpoint_interval=2, fault_injector=fault_injector)
    return StreamingCluster(builder.build(), sources, batch_size=4,
                            executor=executor, **extra)


#: worker roles of the golden agg plan: the join owner and the agg owner
KILL_ROLES = [("J", 0), ("J", 3), ("agg", 0), ("agg", 2)]


class TestKillRecovery:
    """The acceptance matrix: SIGKILL workers mid-stream, snapshot must
    stay byte-identical to batch -- per role, kill point and batch size."""

    @pytest.mark.parametrize("component,task_index", KILL_ROLES)
    @pytest.mark.parametrize("batch_size", [1, 64])
    @pytest.mark.parametrize("after_batches", [1, 5])
    def test_killed_worker_recovers_to_batch_snapshot(
            self, component, task_index, batch_size, after_batches):
        expected = batch_snapshot(plan_snapshot_agg())
        injector = FaultInjector().kill_worker_of(
            component, task_index, after_batches=after_batches)
        query = stream_plan(
            plan_snapshot_agg(),
            options=processes_options(batch_size=batch_size),
            fault_injector=injector,
        ).run()
        stats = query.checkpoint_stats()
        assert stats["recoveries"] >= 1
        assert query.snapshot() == expected

    def test_kill_inside_a_round_of_many_polls(self, monkeypatch):
        """Rounds of three 4-row polls a source: a task executes one
        6-row batch per source and round, 8 in all.  Task 0's worker
        dies after 15 routed batches, inside round 3's level pass (its
        A run merged them to 15, B's has not run), after the checkpoint
        of round 2.  The replay drives round 3 as one level pass again,
        so the recovered run executed the crash-free batches."""
        monkeypatch.setattr(storm_cluster, "ROUND_BUDGET", 2 * 12)
        crash_free = batch_shapes_cluster("processes")
        crash_free.run()
        expected = crash_free.snapshot()
        inline = batch_shapes_cluster("inline")
        inline.run()
        assert inline.snapshot() == expected
        assert sorted((task, executed) for task, executed, _s, _n
                      in expected) == [
            (task, executed) for task in (0, 1) for executed in range(1, 9)]
        assert {rows for *_key, rows in expected} == {6, 2}

        recovered = batch_shapes_cluster("processes", FaultInjector(
            ).kill_worker_of("shapes", 0, after_batches=15))
        recovered.run()
        stats = recovered.stats_snapshot()["checkpoints"]
        assert stats["recoveries"] == 1
        assert stats["replayed_rows"] == 24  # round 3: 12 rows a source
        assert recovered.snapshot() == expected

    def test_two_workers_killed_in_one_run(self):
        expected = batch_snapshot(plan_snapshot_agg())
        injector = FaultInjector([
            WorkerKill("J", 0, after_batches=2),
            WorkerKill("agg", 0, after_batches=4),
        ])
        query = stream_plan(plan_snapshot_agg(),
                            options=processes_options(batch_size=8),
                            fault_injector=injector).run()
        assert query.checkpoint_stats()["workers_respawned"] >= 2
        assert query.snapshot() == expected

    def test_kill_near_end_of_stream_recovers_through_flush(self):
        # 120 source rows at batch_size=64 are one pump round: the armed
        # worker dies in its level pass, and the replayed round is the
        # last thing before the end-of-stream flush
        expected = batch_snapshot(plan_snapshot_agg())
        injector = FaultInjector().kill_worker_of("agg", 1, after_batches=6)
        query = stream_plan(plan_snapshot_agg(),
                            options=processes_options(batch_size=64),
                            fault_injector=injector).run()
        assert query.checkpoint_stats()["recoveries"] >= 1
        assert query.snapshot() == expected

    def test_external_sigkill_mid_iteration(self, monkeypatch):
        """The demo scenario: a worker killed from outside (no armed
        fault), detected by the liveness sweep / a dead pipe.  A round
        is one poll per source, so the stream spans many rounds."""
        monkeypatch.setattr(storm_cluster, "ROUND_BUDGET", 3 * 4)
        expected = batch_snapshot(plan_join_only())
        query = stream_plan(plan_join_only(),
                            options=processes_options(batch_size=4))
        killed = False
        deltas = 0
        for _delta in query:
            deltas += 1
            if not killed and deltas >= 5:
                pids = query.worker_pids()
                os.kill(pids[0], signal.SIGKILL)
                killed = True
        assert killed
        assert query.checkpoint_stats()["recoveries"] >= 1
        assert query.snapshot() == expected

    def test_subscription_converges_through_recovery(self):
        """A subscriber folding the delta stream (compensations included)
        lands on the same multiset as the snapshot."""
        from collections import Counter

        expected = batch_snapshot(plan_snapshot_agg())
        injector = FaultInjector().kill_worker_of("J", 0, after_batches=3)
        query = stream_plan(plan_snapshot_agg(),
                            options=processes_options(batch_size=8),
                            fault_injector=injector)
        folded: Counter = Counter()
        for delta in query:
            folded[delta.row] += delta.sign
        rows = sorted(row for row, count in folded.items()
                      for _ in range(count))
        assert rows == expected
        assert query.snapshot() == expected

    def test_columnar_dbtoaster_state_is_restored_and_fed_on(
            self, monkeypatch):
        """The matrix above dies before a columnar join state was ever
        committed.  Here the restore point holds one: the blobs carry
        columns without indexes or probe plans, and the replayed batches
        probe the rebuilt ones.  A round is one poll per source, so the
        stream spans five rounds and the kill lands in a later one."""
        import random

        from repro.core.predicates import (
            EquiCondition,
            JoinSpec,
            RelationInfo,
        )
        from repro.core.schema import Relation, Schema
        from repro.engine import JoinComponent, PhysicalPlan, SourceComponent
        from repro.storm.executor import ResidentWorkerPool

        def plan():
            rng = random.Random(65)
            n, domain = 300, 40
            R = Relation("R", Schema.of("x", "y"),
                         [(i, rng.randrange(domain)) for i in range(n)])
            S = Relation("S", Schema.of("y", "z"),
                         [(rng.randrange(domain), rng.randrange(domain))
                          for _ in range(n)])
            T = Relation("T", Schema.of("z", "t"),
                         [(rng.randrange(domain), i) for i in range(n)])
            spec = JoinSpec(
                [RelationInfo(rel.name, rel.schema, n) for rel in (R, S, T)],
                [EquiCondition(("R", "y"), ("S", "y")),
                 EquiCondition(("S", "z"), ("T", "z"))])
            return PhysicalPlan(
                sources=[SourceComponent(rel.name, rel) for rel in (R, S, T)],
                joins=[JoinComponent("J", spec, machines=4, scheme="hash",
                                     local_join="dbtoaster")])

        shipped = []
        restore = ResidentWorkerPool.restore
        monkeypatch.setattr(
            ResidentWorkerPool, "restore",
            lambda self, blobs: (shipped.append(dict(blobs)),
                                 restore(self, blobs))[1])
        monkeypatch.setattr(storm_cluster, "ROUND_BUDGET", 3 * 64)
        expected = batch_snapshot(plan())
        injector = FaultInjector().kill_worker_of("J", 0, after_batches=9)
        query = stream_plan(
            plan(),
            options=processes_options(batch_size=64, checkpoint_interval=1,
                                      parallelism=2),
            fault_injector=injector).run()
        stats = query.checkpoint_stats()
        assert stats["recoveries"] == 1 and stats["replayed_rows"] > 0
        assert query.snapshot() == expected and expected
        joins = [pickle.loads(blob)._local
                 for blobs in shipped for blob in blobs.values()]
        assert joins and all(join._cviews is not None for join in joins)
        assert all(join.state_size() > 0 and join._cplans is None
                   for join in joins)

    def test_gives_up_after_max_recoveries(self):
        injector = FaultInjector([
            WorkerKill("J", 0, after_batches=n) for n in range(1, 9)
        ])
        query = stream_plan(plan_join_only(),
                            options=processes_options(batch_size=1,
                                                      checkpoint_interval=1),
                            fault_injector=injector)
        feed = query.subscription
        with pytest.raises(ExecutorError, match="giving up"):
            query.run()
        # the failure tore the query down: no worker stays behind, the
        # query says it is over, and a consumer blocked on the feed wakes
        assert query.worker_pids() == {}
        assert multiprocessing.active_children() == []
        assert query.done
        feed.drain()
        assert feed.closed


class TestWindowedStreams:
    """Sliding-window operator state pickles like any other task state,
    so windowed plans checkpoint, crash and recover on ``processes``."""

    def test_windowed_snapshot_equals_batch(self):
        from tests.test_streaming import make_events, sliding_agg_plan

        expected = batch_snapshot(sliding_agg_plan(make_events(120)))
        query = stream_plan(sliding_agg_plan(make_events(120)),
                            options=processes_options(batch_size=16)).run()
        assert query.snapshot() == expected

    def test_windowed_worker_recovers_to_batch_snapshot(self):
        from tests.test_streaming import make_events, sliding_agg_plan

        expected = batch_snapshot(sliding_agg_plan(make_events(120)))
        injector = FaultInjector().kill_worker_of("agg", 0,
                                                  after_batches=3)
        query = stream_plan(sliding_agg_plan(make_events(120)),
                            options=processes_options(batch_size=8),
                            fault_injector=injector).run()
        assert query.checkpoint_stats()["recoveries"] >= 1
        assert query.snapshot() == expected


class TestRefusals:
    def test_unpicklable_operator_state_is_refused_with_advice(self):
        """A bolt whose state cannot pickle has no checkpointable
        snapshot; the epoch-0 commit fails fast, naming the task type
        and the executors that can still run the plan."""
        from repro.storm import TopologyBuilder
        from repro.storm.topology import Bolt
        from repro.streaming import CallbackSource, StreamingCluster
        from repro.streaming.runner import _IdleSpout

        class ClosureBolt(Bolt):
            def __init__(self):
                self.transform = lambda row: row  # closures never pickle

            def execute_batch(self, source, stream, rows):
                return [("out", self.transform(row)) for row in rows]

        builder = TopologyBuilder()
        builder.set_spout("feed", lambda i, p: _IdleSpout())
        builder.set_bolt("op", lambda i, p: ClosureBolt()).global_grouping(
            "feed", streams=["R"])
        builder.set_bolt("sink", lambda i, p: DeltaSink()).global_grouping(
            "op", streams=["out"])
        source = CallbackSource(iter([("R", (1,)), ("R", (2,))]))
        cluster = StreamingCluster(builder.build(), {"feed": source},
                                   batch_size=4, executor="processes")
        with pytest.raises(ExecutorError, match="ClosureBolt") as err:
            cluster.run()
        assert "inline" in str(err.value)  # the advice names a fallback

    def test_kill_spec_on_coordinator_owned_task_is_rejected(self):
        injector = FaultInjector().kill_worker_of("sink", 0)
        with pytest.raises(ValueError, match="coordinator"):
            stream_plan(plan_join_only(), options=processes_options(),
                        fault_injector=injector).run()


class TestDeltaSinkRollback:
    def test_rollback_restores_counts_and_compensates_subscribers(self):
        sink = DeltaSink()
        sink.execute_batch("J", "J", [(1,), (1,), (2,)])
        checkpoint = sink.counts_snapshot()
        subscription = sink.subscribe()
        sink.execute_batch("J", "J", [(3,)])
        sink.execute_batch("J", "J", retracting([(2,)]))

        published = sink.rollback(checkpoint)
        assert published == 2  # -（3,) and +(2,)
        assert sink.counts_snapshot() == checkpoint

        from collections import Counter
        folded: Counter = Counter()
        while (delta := subscription.pop()) is not None:
            folded[delta.row] += delta.sign
        assert {row: c for row, c in folded.items() if c} == checkpoint

    def test_rollback_to_empty_state(self):
        sink = DeltaSink()
        sink.execute_batch("J", "J", [(1,), (2,)])
        sink.rollback({})
        assert sink.snapshot() == []
