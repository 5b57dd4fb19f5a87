"""The seven workloads: generators, plans and drivers.

Every input is generated here from the seed; the engine sees only plans,
rows and push sources.  Key columns are *fixed multisets shuffled by the
seed* (every key occurs the same number of times whatever the seed), so
another seed permutes arrival order and pairings but not the amount of
work -- run-to-run differences then come from the machine, not the data.

Each workload is a class with the same small surface, driven by
:mod:`benchmarks.squallbench.measure`:

- ``generate(seed)`` -> the inputs, plain Python rows;
- ``expected(data)`` -> the reference result of one repetition;
- ``build(data)`` -> whatever one repetition needs (plans, a resident
  broker); part of set-up time;
- ``rep(state)`` -> one closed-loop repetition, returns the rows to check;
- ``close(state)`` -> stop what ``build`` started;
- paced workloads add ``paced_open(data, state)`` returning a
  :class:`PacedFeed` the open-loop driver pushes events through;
  workload 6 adds ``kill_rep(state)``.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional

from repro.core.expressions import col, lit
from repro.core.options import ExecutionOptions
from repro.core.predicates import EquiCondition, JoinSpec, RelationInfo
from repro.core.schema import Relation, Schema
from repro.engine.component import (
    AggComponent,
    JoinComponent,
    PhysicalPlan,
    SourceComponent,
)
from repro.engine.operators import avg, count, total
from repro.engine.runner import run_plan
from repro.engine.windows import WindowSpec
from repro.serving import QueryBroker
from repro.storm.failures import FaultInjector
from repro.streaming import CallbackSource, stream_plan

from benchmarks.squallbench import reference

#: workload sizes; recorded in every result, and ``compare`` refuses to
#: compare results taken at different sizes
SIZES: Dict[str, int] = {
    "join_rows": 8000,        # rows per relation, workloads 1, 2, 4
    "filter_rows": 200_000,   # workload 3
    "window_events": 20_000,  # events per saturation repetition, workload 5
    "window_size": 2000,      # timestamp units, workload 5
    "ckpt_rows": 4000,        # rows per relation, workload 6
    "ckpt_keys": 512,
    "kill_after_batches": 20,
    "kill_reps": 3,           # repetitions with an injected worker kill
    "serve_subscribers": 256,
    "serve_block": 4096,      # events per closed-loop block, workload 7
    "serve_blocks_per_rep": 6,
}

#: ``--quick`` sizes: the smoke test exercises every path in seconds
QUICK_SIZES: Dict[str, int] = {
    "join_rows": 1000,
    "filter_rows": 20_000,
    "window_events": 4000,
    "window_size": 500,
    "ckpt_rows": 1000,
    "ckpt_keys": 64,
    "kill_after_batches": 4,
    "kill_reps": 1,
    "serve_subscribers": 32,
    "serve_block": 512,
    "serve_blocks_per_rep": 2,
}

GROUPS = 64            # group-by domain of the join workloads' COUNT
JOINERS = 8
PARALLELISM = 2        # fixed, not nproc-derived: results compare across boxes
SERVE_TENANTS = 4
SERVE_SELECT_EVERY = 8


def shuffled_keys(rng: random.Random, n: int, domain: int) -> List[int]:
    """``n`` keys over ``range(domain)``, every key equally often, in a
    seed-dependent order."""
    keys = [i % domain for i in range(n)]
    rng.shuffle(keys)
    return keys


@dataclass
class PacedFeed:
    """What the open-loop driver needs from a paced workload."""

    #: events per second
    rate: float
    #: index -> event row
    event: Callable[[int], tuple]
    #: hand one event to the engine
    push: Callable[[tuple], None]
    #: let the engine work -- one pump round when the benchmark drives
    #: it, a wait of at most ``timeout`` seconds when a broker thread
    #: does -- and return the deltas the probe subscription received
    turn: Callable[[float], list]
    #: pair a delta with the event that caused it (None = not tracked)
    event_key: Callable[[tuple], Optional[Hashable]]
    arrival_key: Callable[[object], Optional[Hashable]]
    #: reference rows for everything pushed so far
    expected: Callable[[], List[tuple]]
    #: end the stream; returns the deltas that were still on their way
    close: Callable[[], list]


class Workload:
    name = ""
    why = ""
    #: shares of the measuring time: closed-loop repetitions, then the
    #: paced open loop takes what the kill repetitions leave
    closed_share = 1.0
    paced_share = 0.0
    #: repetitions with an injected worker kill (workload 6 only)
    kill_reps = 0

    def __init__(self, sizes: Dict[str, int]):
        self.sizes = sizes
        #: called from inside long repetitions wherever the calibrated
        #: clock may cut them into slices (set by the measuring driver)
        self.tick: Callable[[], None] = lambda: None

    def generate(self, seed: int):
        raise NotImplementedError

    def expected(self, data) -> List[tuple]:
        raise NotImplementedError

    def rows_per_rep(self, data) -> int:
        raise NotImplementedError

    def build(self, data):
        raise NotImplementedError

    def rep(self, state) -> List[tuple]:
        raise NotImplementedError

    def correct(self, state, result, expected) -> bool:
        return reference.same_rows(result, expected)

    def after_rep(self, state) -> None:
        """Untimed housekeeping between repetitions."""

    def close(self, state) -> None:
        pass

    def counters(self, state) -> Dict[str, float]:
        """Per-layer counts read off the engine's own public statistics
        after the last clean repetition (traced pass only)."""
        return {}

    def round_metrics(self) -> Dict[str, float]:
        """Per-layer numbers a workload collected itself while it ran."""
        return {}


# -- topology counters shared by the plan-running workloads -----------------


def topology_counters(metrics, topology, rows_in: int) -> Dict[str, float]:
    """Routing and batching counts from a run's TopologyMetrics."""
    out: Dict[str, float] = {}
    if "J" in topology.components:
        upstream = [edge.source for edge in topology.in_edges("J")]
        out["storm.groupings.replication"] = metrics.replication_factor(
            "J", upstream)
        out["storm.groupings.skew"] = metrics.skew_degree("J")
        out["joins.dbtoaster.out_rows"] = metrics.component_output("J")
    batches = sum(sum(metrics.batch_counts(name))
                  for name in topology.components)
    out["storm.cluster.batches"] = batches
    routed = sum(metrics.component_input(name)
                 for name in topology.components
                 if not topology.components[name].is_spout)
    out["storm.cluster.rows_per_batch"] = (
        (routed + rows_in) / batches if batches else 0.0)
    return out


# -- 1, 2, 4: the three-way join -------------------------------------------


def join3_data(seed: int, n: int) -> Dict[str, List[tuple]]:
    rng = random.Random(seed)
    half = n // 2
    return {
        "R": list(zip((rng.randrange(n) for _ in range(n)),
                      shuffled_keys(rng, n, half))),
        "S": list(zip(shuffled_keys(rng, n, half),
                      shuffled_keys(rng, n, half))),
        "T": list(zip(shuffled_keys(rng, n, half),
                      shuffled_keys(rng, n, GROUPS))),
    }


def join3_plan(data: Dict[str, List[tuple]]) -> PhysicalPlan:
    """R(x,y) >< S(y,z) >< T(z,t), COUNT(*) GROUP BY T.t -- the shape of
    ``repro.bench.multiway_join_plan``."""
    n = len(data["R"])
    R = Relation("R", Schema.of("x", "y"), data["R"])
    S = Relation("S", Schema.of("y", "z"), data["S"])
    T = Relation("T", Schema.of("z", "t"), data["T"])
    spec = JoinSpec(
        [RelationInfo("R", R.schema, n), RelationInfo("S", S.schema, n),
         RelationInfo("T", T.schema, n)],
        [EquiCondition(("R", "y"), ("S", "y")),
         EquiCondition(("S", "z"), ("T", "z"))],
    )
    return PhysicalPlan(
        sources=[SourceComponent("R", R), SourceComponent("S", S),
                 SourceComponent("T", T)],
        joins=[JoinComponent("J", spec, machines=JOINERS,
                             output_positions=[5])],  # T.t only
        aggregation=AggComponent("agg", group_positions=[0],
                                 aggregates=[count()], parallelism=4,
                                 key_domain=list(range(GROUPS))),
    )


class BatchJoin3(Workload):
    name = "batch_join3"
    why = ("inline run_plan of a 3-way join: joins.dbtoaster and "
           "storm.groupings do the work, streaming/checkpoint/serving "
           "do none; the fastest existing path")
    options = ExecutionOptions(executor="inline", batch_size=512,
                               columnar=True)

    def generate(self, seed):
        return join3_data(seed, self.sizes["join_rows"])

    def expected(self, data):
        return reference.join3_count(data["R"], data["S"], data["T"])

    def rows_per_rep(self, data):
        return sum(len(rows) for rows in data.values())

    def build(self, data):
        return {"plan": join3_plan(data), "rows": self.rows_per_rep(data)}

    def rep(self, state):
        result = run_plan(state["plan"], options=self.options)
        state["result"] = result
        return sorted(result.results)

    def counters(self, state):
        result = state["result"]
        out = topology_counters(result.metrics, result.topology,
                                state["rows"])
        out["joins.dbtoaster.state_rows"] = sum(
            sum(sizes) for sizes in result.join_state.values())
        return out


class BatchJoin3Procs(BatchJoin3):
    name = "batch_join3_procs"
    why = ("the same data and plan behind fork, pipe pickling and level "
           "barriers: storm.executor is the only layer that differs "
           "from batch_join3")
    options = ExecutionOptions(executor="processes",
                               parallelism=PARALLELISM, batch_size=512,
                               columnar=True)


class StreamJoin3(BatchJoin3):
    name = "stream_join3"
    why = ("the same join through stream_plan with a drained "
           "subscription: isolates what streaming.cluster, DeltaAggBolt "
           "and streaming.deltas add")

    def rep(self, state):
        query = stream_plan(state["plan"], options=self.options)
        state["query"] = query
        state["deltas"] = consume(query, self.tick)
        return query.snapshot()

    def correct(self, state, result, expected):
        """The drained feed must also fold to the snapshot."""
        return (reference.same_rows(result, expected)
                and reference.fold_deltas(state["deltas"]) == result)

    def counters(self, state):
        return streaming_counters(state["query"], state["rows"])


def consume(query, tick: Callable[[], None]) -> list:
    """Drain a query's delta feed to its end (inline: iterating drives
    the pump rounds)."""
    deltas = []
    for delta in query:
        deltas.append(delta)
        if not len(deltas) & 255:
            tick()
    return deltas


def streaming_counters(query, rows_in: int) -> Dict[str, float]:
    cluster = query.cluster
    out = topology_counters(cluster.metrics, cluster.topology, rows_in)
    out["streaming.deltas.deltas_per_row"] = (
        query.stats()["deltas"] / rows_in)
    return out


# -- 3: filter, project, aggregate -----------------------------------------

SHIPDAYS = 2000
MAX_SHIPDAY = 1399


class BatchFilterAgg(Workload):
    name = "batch_filter_agg"
    why = ("selection, projection and grouped aggregation without a "
           "join: core.expressions, engine.operators and core.columnar "
           "carry the run, joins is idle")
    options = ExecutionOptions(executor="inline", batch_size=1024,
                               columnar=True)

    def generate(self, seed):
        rng = random.Random(seed)
        n = self.sizes["filter_rows"]
        return list(zip(
            shuffled_keys(rng, n, SHIPDAYS),
            shuffled_keys(rng, n, 6),
            (1 + q for q in shuffled_keys(rng, n, 50)),
            (900.0 + rng.random() * 104_000.0 for _ in range(n)),
            (d / 100.0 for d in shuffled_keys(rng, n, 11)),
        ))

    def expected(self, data):
        return reference.filter_project_agg(data, MAX_SHIPDAY)

    def rows_per_rep(self, data):
        return len(data)

    def build(self, data):
        relation = Relation(
            "lineitem",
            Schema.of("shipday", "flag", "qty", "price", "disc"), data)
        predicate = (col("shipday").le(MAX_SHIPDAY) & col("qty").lt(45)
                     & col("disc").ge(0.02))
        plan = PhysicalPlan(
            sources=[SourceComponent(
                "lineitem", relation, predicate=predicate,
                projection=[col("flag"), col("qty"),
                            col("price") * (lit(1) - col("disc"))],
                projection_names=["flag", "qty", "revenue"])],
            aggregation=AggComponent(
                "agg", group_positions=[0],
                aggregates=[count(), total(2), avg(1)]),
        )
        return {"plan": plan, "rows": len(data)}

    def rep(self, state):
        result = run_plan(state["plan"], options=self.options)
        state["result"] = result
        return sorted(result.results)

    def counters(self, state):
        result = state["result"]
        out = topology_counters(result.metrics, result.topology,
                                state["rows"])
        _cost_class, seen, passed = result.selections["lineitem"]
        out["engine.operators.selectivity"] = passed / seen
        return out


# -- 5: sliding-window aggregation -----------------------------------------


def drain(subscription) -> list:
    """Every delta the subscription holds right now."""
    deltas = []
    while True:
        delta = subscription.pop()
        if delta is None:
            return deltas
        deltas.append(delta)


def finish(cluster, probe) -> list:
    """Drive a closed stream to its end; returns the last deltas."""
    while not cluster.done:
        cluster.step()
    return drain(probe)


def window_plan(size: int) -> PhysicalPlan:
    relation = Relation("events", Schema.of("ts", "key", "value"), [])
    return PhysicalPlan(
        sources=[SourceComponent("events", relation)],
        aggregation=AggComponent(
            "agg", group_positions=[1], aggregates=[count(), total(2)],
            # an aggregation's window names its one input ""
            window=WindowSpec.sliding(size, {"": 0})),
    )


class ArrivalPairing:
    """Tells the sliding aggregation's arrival deltas from its expiries.

    A group's ``+row`` is caused by an arrival when its count went up
    and by an expiry when it went down; the ``-row`` just before it
    carries the count it came from."""

    def __init__(self):
        self._counts: Dict[Hashable, float] = {}

    def arrival_key(self, delta) -> Optional[Hashable]:
        key, group_count = delta.row[0], delta.row[1]
        if delta.sign < 0:
            self._counts[key] = group_count - 0.5
            return None
        arrived = group_count > self._counts.get(key, 0)
        self._counts[key] = group_count
        return key if arrived else None


class StreamWindowAgg(Workload):
    name = "stream_window_agg"
    why = ("every event is inserted and later retracted by a sliding "
           "window: engine.windows, engine.operators retraction and "
           "streaming.watermarks dominate, joins is idle")
    closed_share = 0.5
    paced_share = 0.5
    paced_rate = 1000.0
    options = ExecutionOptions(executor="inline", batch_size=256)
    paced_options = ExecutionOptions(executor="inline", batch_size=64)

    def generate(self, seed):
        rng = random.Random(seed)
        n = self.sizes["window_events"]
        return list(zip(range(n), shuffled_keys(rng, n, GROUPS),
                        (rng.randrange(100) for _ in range(n))))

    def expected(self, data):
        return reference.window_count_sum(data, self.sizes["window_size"])

    def rows_per_rep(self, data):
        return len(data)

    def build(self, data):
        return {"plan": window_plan(self.sizes["window_size"]),
                "events": data, "rows": len(data)}

    def rep(self, state):
        source = CallbackSource(
            generator=(("events", event) for event in state["events"]),
            ts_position=0)
        query = stream_plan(state["plan"], sources={"events": source},
                            options=self.options)
        state["query"] = query
        state["deltas"] = consume(query, self.tick)
        return query.snapshot()

    correct = StreamJoin3.correct

    def counters(self, state):
        query = state["query"]
        out = streaming_counters(query, state["rows"])
        aggregation = query.cluster.cluster.tasks("agg")[0]
        out["engine.windows.expired_rows"] = (
            aggregation.sliding_state.expired_rows)
        return out

    def paced_open(self, data, state) -> PacedFeed:
        rng = random.Random(len(data))
        size = self.sizes["window_size"]
        source = CallbackSource(capacity=1 << 16, ts_position=0)
        query = stream_plan(window_plan(size), sources={"events": source},
                            options=self.paced_options)
        probe = query.subscription
        cluster = query.cluster
        pushed: List[tuple] = []

        def push(event: tuple):
            pushed.append(event)
            source.push(event, stream="events")

        def turn(_timeout: float) -> list:
            cluster.step()
            return drain(probe)

        def close() -> list:
            source.close()
            return finish(cluster, probe)

        return PacedFeed(
            rate=self.paced_rate,
            event=lambda i: (i, rng.randrange(GROUPS), rng.randrange(100)),
            push=push, turn=turn, close=close,
            event_key=lambda event: event[1],
            arrival_key=ArrivalPairing().arrival_key,
            expected=lambda: reference.window_count_sum(pushed, size))


# -- 6: checkpointed join on resident worker processes ---------------------


def ckpt_plan(r_rows: List[tuple], s_rows: List[tuple],
              n: int) -> PhysicalPlan:
    """R(x,k) >< S(k,v), COUNT(*), SUM(S.v) GROUP BY R.k -- the shape of
    ``benchmarks/test_throughput_checkpoint.py::checkpointed_plan``."""
    R = Relation("R", Schema.of("x", "k"), r_rows)
    S = Relation("S", Schema.of("k", "v"), s_rows)
    spec = JoinSpec(
        [RelationInfo("R", R.schema, n), RelationInfo("S", S.schema, n)],
        [EquiCondition(("R", "k"), ("S", "k"))],
    )
    return PhysicalPlan(
        sources=[SourceComponent("R", R), SourceComponent("S", S)],
        joins=[JoinComponent("J", spec, machines=4)],
        aggregation=AggComponent(
            "agg", group_positions=[1], aggregates=[count(), total(3)],
            parallelism=2),
    )


class StreamJoinCkpt(Workload):
    name = "stream_join_ckpt"
    why = ("a join on resident worker processes with incremental "
           "checkpoints and an injected worker kill: checkpoint.store, "
           "checkpoint.log, ResidentWorkerPool and recovery do work no "
           "other workload touches")
    closed_share = 0.4
    paced_share = 0.35
    paced_rate = 500.0
    options = ExecutionOptions(executor="processes",
                               parallelism=PARALLELISM, batch_size=256,
                               checkpoint_interval=4)

    def __init__(self, sizes):
        super().__init__(sizes)
        #: duration (ms) of every pump round of the repetitions, by what
        #: happened inside it
        self.step_ms: Dict[str, List[float]] = {
            "clean": [], "commit": [], "recovery": []}
        self.replayed_rows = 0
        self.kill_reps = sizes["kill_reps"]

    def generate(self, seed):
        rng = random.Random(seed)
        n, keys = self.sizes["ckpt_rows"], self.sizes["ckpt_keys"]
        return {
            "R": list(zip((rng.randrange(n) for _ in range(n)),
                          shuffled_keys(rng, n, keys))),
            "S": list(zip(shuffled_keys(rng, n, keys),
                          (rng.randrange(100) for _ in range(n)))),
        }

    def expected(self, data):
        return reference.join2_count_sum(data["R"], data["S"])

    def rows_per_rep(self, data):
        return len(data["R"]) + len(data["S"])

    def build(self, data):
        n = len(data["R"])
        return {"plan": ckpt_plan(data["R"], data["S"], n), "rows": 2 * n}

    def rep(self, state, fault_injector=None):
        """One full stream through a fresh checkpointed query, driven
        round by round so that single rounds can be timed."""
        query = stream_plan(state["plan"], options=self.options,
                            fault_injector=fault_injector)
        cluster = query.cluster
        checkpoints = cluster.checkpoints
        rounds = []
        try:
            while not cluster.done:
                commits, recoveries = (
                    checkpoints.commits, checkpoints.recoveries)
                started = time.perf_counter()
                cluster.step()
                elapsed = (time.perf_counter() - started) * 1e3
                rounds.append((
                    "recovery" if checkpoints.recoveries > recoveries
                    else "commit" if checkpoints.commits > commits
                    else "clean", elapsed))
                self.tick()
        finally:
            if not cluster.done:  # a failed round: stop the workers
                query.stop(wait=False)
                cluster.step()
        # the first round forks the pool and the last one flushes the
        # topology: neither is a round a running query repeats
        for kind, elapsed in rounds[1:-1]:
            self.step_ms[kind].append(elapsed)
        state["query"] = query
        return query.snapshot()

    def kill_rep(self, state):
        injector = FaultInjector().kill_worker_of(
            "J", 0, after_batches=self.sizes["kill_after_batches"])
        result = self.rep(state, fault_injector=injector)
        stats = state["query"].checkpoint_stats()
        if stats["recoveries"] < 1:
            raise RuntimeError("the armed worker kill never fired")
        self.replayed_rows = stats["replayed_rows"]
        return result

    def round_metrics(self):
        """Checkpoint pause and recovery time: the median round that
        committed (recovered a killed worker) minus the median clean
        round; rows replayed by the last recovery."""
        if not self.step_ms["clean"]:
            return {}
        clean = statistics.median(self.step_ms["clean"])
        out = {"checkpoint.log.replayed_rows": float(self.replayed_rows)}
        if self.step_ms["commit"]:
            out["checkpoint.pause_ms"] = (
                statistics.median(self.step_ms["commit"]) - clean)
        if self.step_ms["recovery"]:
            out["recovery_ms"] = (
                statistics.median(self.step_ms["recovery"]) - clean)
        return out

    def counters(self, state):
        query = state["query"]
        out = streaming_counters(query, state["rows"])
        ckpt = query.checkpoint_stats()
        parts = ckpt["partitions_persisted"] + ckpt["partitions_skipped"]
        out["checkpoint.store.bytes_persisted"] = ckpt["bytes_persisted"]
        out["checkpoint.store.skipped_share"] = (
            ckpt["partitions_skipped"] / parts if parts else 0.0)
        return out

    def paced_open(self, data, state) -> PacedFeed:
        """S is preloaded, so every paced R event joins and moves its
        group: one ``+row`` delta per event."""
        rng = random.Random(len(data["R"]))
        keys = self.sizes["ckpt_keys"]
        r_source = CallbackSource(capacity=1 << 16)
        s_source = CallbackSource(
            generator=(("S", row) for row in data["S"]))
        query = stream_plan(
            ckpt_plan([], [], len(data["S"])),
            sources={"R": r_source, "S": s_source}, options=self.options)
        probe = query.subscription
        cluster = query.cluster
        while not s_source.exhausted():
            cluster.step()
        pushed: List[tuple] = []

        def push(event: tuple):
            pushed.append(event)
            r_source.push(event, stream="R")

        def turn(_timeout: float) -> list:
            cluster.step()
            return drain(probe)

        def close() -> list:
            r_source.close()
            return finish(cluster, probe)

        return PacedFeed(
            rate=self.paced_rate,
            event=lambda i: (i, rng.randrange(keys)),
            push=push, turn=turn, close=close,
            event_key=lambda event: event[1],
            arrival_key=lambda d: d.row[0] if d.sign > 0 else None,
            expected=lambda: reference.join2_count_sum(pushed, data["S"]))


# -- 7: brokered fan-out ---------------------------------------------------


class ServeFanout(Workload):
    name = "serve_fanout"
    why = ("one shared plan, 256 subscribers on one QueryBroker, one "
           "predicate per event: serving.broker and DeltaSink fan-out "
           "dominate")
    closed_share = 0.7  # mostly spent draining 255 rings between reps
    paced_share = 0.3
    paced_rate = 2000.0
    options = ExecutionOptions(executor="inline", batch_size=256)

    def generate(self, seed):
        """Flags of one repetition: every block holds exactly one
        passing event in ``SERVE_SELECT_EVERY`` and ends on one, so a
        block is done when its last delta arrives."""
        rng = random.Random(seed)
        flags: List[int] = []
        for _ in range(self.sizes["serve_blocks_per_rep"]):
            part = [1 if i % SERVE_SELECT_EVERY == 0 else 0
                    for i in range(self.sizes["serve_block"])]
            rng.shuffle(part)
            last = len(part) - 1 - part[::-1].index(1)
            part[last], part[-1] = part[-1], part[last]
            flags.extend(part)
        return flags

    def expected(self, data):
        """Offsets of the passing events; ``correct`` adds the sequence
        number the repetition started at."""
        return [i for i, flag in enumerate(data) if flag]

    def rows_per_rep(self, data):
        return len(data)

    def build(self, data):
        subscribers = self.sizes["serve_subscribers"]
        source = CallbackSource(capacity=4 * self.sizes["serve_block"])
        broker = QueryBroker(max_topologies=1,
                             max_subscribers_per_topology=subscribers,
                             max_subscribers_per_tenant=subscribers)
        relation = Relation("events", Schema.of("seq", "flag"), [])
        plan = PhysicalPlan(sources=[SourceComponent(
            "events", relation, predicate=col("flag").eq(1))])
        # one plan object: plans built twice do not share a topology
        # (relation identity is part of the fingerprint)
        subscriptions = [
            broker.subscribe_plan(
                plan, options=self.options,
                tenant=f"tenant{i % SERVE_TENANTS}",
                sources={"events": source})
            for i in range(subscribers)
        ]
        if broker.topology_count != 1:
            raise RuntimeError(
                f"{subscribers} subscriptions of one plan run on "
                f"{broker.topology_count} topologies, expected 1")
        return {"broker": broker, "source": source,
                "subscriptions": subscriptions, "probe": subscriptions[-1],
                "flags": data, "seq": 0, "rows": len(data)}

    def rep(self, state):
        """Closed loop, block by block: push a block, pop the probe (the
        subscription attached last) until the block's last delta is in."""
        source, probe = state["source"], state["probe"]
        block = self.sizes["serve_block"]
        flags = state["flags"]
        state["first_seq"] = seq = state["seq"]
        state["seq"] += len(flags)
        got: List[tuple] = []
        for start in range(0, len(flags), block):
            part = flags[start:start + block]
            for flag in part:
                source.push((seq, flag), stream="events")
                seq += 1
            want = len(got) + sum(part)
            while len(got) < want:
                delta = probe.pop(block=True, timeout=5.0)
                if delta is None:
                    return got  # short: a failed repetition
                got.append(delta.row)
        return got

    def correct(self, state, result, expected):
        first = state["first_seq"]
        return result == [(first + offset, 1) for offset in expected]

    def after_rep(self, state):
        """The other subscribers consume their rings too (a ring that
        falls 4096 deltas behind is shed) -- outside the timed region:
        popping is the subscriber's cost, not the engine's."""
        for subscription in state["subscriptions"][:-1]:
            drain(subscription)

    def close(self, state):
        state["source"].close()
        state["broker"].close()

    def counters(self, state):
        broker = state["broker"]
        tenants = broker.stats()["tenants"]
        return {
            "serving.broker.shed": sum(
                counters.get("shed", 0) for counters in tenants.values()),
            "serving.broker.topologies": broker.topology_count,
        }

    def paced_open(self, data, state) -> PacedFeed:
        """The resident topology of the closed loop keeps serving."""
        source, probe = state["source"], state["probe"]
        first = state["seq"]
        pushed: List[tuple] = []

        def push(event: tuple):
            pushed.append(event)
            source.push(event, stream="events")

        def turn(timeout: float) -> list:
            delta = probe.pop(block=True, timeout=timeout)
            return [] if delta is None else [delta] + drain(probe)

        def close() -> list:
            self.after_rep(state)
            return []  # the workload's own close() stops the broker

        return PacedFeed(
            rate=self.paced_rate,
            event=lambda i: (first + i,
                             1 if i % SERVE_SELECT_EVERY == 0 else 0),
            push=push, turn=turn, close=close,
            event_key=lambda event: event[0] if event[1] else None,
            arrival_key=lambda delta: delta.row[0],
            expected=lambda: reference.select_flag(pushed))


WORKLOADS = [BatchJoin3, BatchJoin3Procs, BatchFilterAgg, StreamJoin3,
             StreamWindowAgg, StreamJoinCkpt, ServeFanout]


def by_name(name: str, sizes: Dict[str, int]) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload(sizes)
    raise KeyError(name)
