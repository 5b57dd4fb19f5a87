"""Windowed plans checked against models, not against the engine.

A window is a predicate on the results plus a state horizon
(:mod:`repro.engine.windows`), so a windowed answer has a model that
needs no engine code:

- a windowed join is ``reference_join`` filtered by the window
  predicate, minus the rows that arrived late (the probe table of
  ROADMAP item 16, and random interleavings with watermarks);
- a tumbling aggregation is SQLite's ``GROUP BY ts / size``;
- a sliding aggregation is its task's trailing window.

Windowed inputs that cannot reach their task in event-time order are
refused when the plan is built.
"""

import random
import sqlite3
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.columnar import ColumnBatch
from repro.core.optimizer import Catalog, OptimizerOptions
from repro.core.options import ExecutionOptions
from repro.core.predicates import EquiCondition, JoinSpec, RelationInfo
from repro.core.schema import Relation, Schema
from repro.engine.component import (
    AggComponent,
    JoinComponent,
    PhysicalPlan,
    SourceComponent,
)
from repro.engine.operators import count, total
from repro.engine.runner import run_plan
from repro.engine.windows import WindowedJoinState, WindowSpec
from repro.joins import DBToasterJoin, TraditionalJoin
from repro.joins.base import JoinSchema
from repro.sql.catalog import SqlSession
from repro.storm.failures import FaultInjector
from repro.storm.groupings import FieldsGrouping
from repro.streaming import stream_plan
from tests.batching_plans import WINDOWED_PLANS
from tests.conftest import reference_join

EXECUTORS = ["inline", "processes"]
BATCH_SIZES = [1, 7, 64]


def options(executor, batch_size):
    return ExecutionOptions(
        executor=executor, batch_size=batch_size,
        parallelism=2 if executor == "processes" else None)


def in_window(window, stamps):
    """The window predicate, by hand."""
    if window.kind == "tumbling":
        return len({ts // window.size for ts in stamps}) == 1
    return max(stamps) - min(stamps) < window.size


def windowed_model(spec, window, data):
    """``reference_join`` over ``data`` filtered by the window predicate,
    as a sorted multiset."""
    schema = JoinSchema.from_spec(spec)
    positions = [schema.offsets[name] + window.ts_positions[name]
                 for name in schema.order]
    return sorted(row for row in reference_join(spec, data)
                  if in_window(window, [row[p] for p in positions]))


def windowed_join_model(plan):
    """The model of a plan that is one windowed join."""
    [join] = plan.joins
    return windowed_model(join.spec, join.window, {
        source.name: source.relation.rows for source in plan.sources})


# -- (a) the probe table: A >< B on one key, ts 0..39 each, window 10 --------


def probe_plan(kind, machines=1, local_join="dbtoaster"):
    A = Relation("A", Schema.of("ts", "k"), [(ts, 0) for ts in range(40)])
    B = Relation("B", Schema.of("ts", "k"), [(ts, 0) for ts in range(40)])
    spec = JoinSpec(
        [RelationInfo("A", A.schema, 40), RelationInfo("B", B.schema, 40)],
        [EquiCondition(("A", "k"), ("B", "k"))])
    return PhysicalPlan(
        sources=[SourceComponent("A", A), SourceComponent("B", B)],
        joins=[JoinComponent(
            "J", spec, machines=machines, local_join=local_join,
            window=WindowSpec(kind, 10, {"A": 0, "B": 0}))])


PROBE = {"tumbling": 400, "sliding": 670}


class TestProbeTable:
    @pytest.mark.parametrize("kind", sorted(PROBE))
    def test_the_model_reads_the_probe_table(self, kind):
        assert len(windowed_join_model(probe_plan(kind))) == PROBE[kind]

    @pytest.mark.parametrize("local_join", ["dbtoaster", "traditional"])
    @pytest.mark.parametrize("machines", [1, 4])
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("kind", sorted(PROBE))
    def test_every_cell_is_correct(self, kind, executor, batch_size,
                                   machines, local_join):
        expected = windowed_join_model(probe_plan(kind))
        run = options(executor, batch_size)
        batch = run_plan(probe_plan(kind, machines, local_join), options=run)
        assert sorted(batch.results) == expected
        query = stream_plan(probe_plan(kind, machines, local_join),
                            options=run).run()
        assert query.snapshot() == expected

    @pytest.mark.parametrize("kind", sorted(PROBE))
    def test_the_streaming_default_is_correct(self, kind):
        query = stream_plan(probe_plan(kind, machines=4)).run()
        assert len(query.snapshot()) == PROBE[kind]


class TestWindowedPlans:
    """``WINDOWED_PLANS`` at every batch size, on both executors, in
    ``run_plan`` and ``stream_plan``, against their models."""

    def answers(self, name, executor, batch_size):
        build = WINDOWED_PLANS[name]
        run = options(executor, batch_size)
        return (sorted(run_plan(build(), options=run).results),
                stream_plan(build(), options=run).run().snapshot())

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_window_join(self, executor, batch_size):
        expected = windowed_join_model(WINDOWED_PLANS["window_join"]())
        assert self.answers("window_join", executor, batch_size) == \
            (expected, expected)

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_tumbling_over_join_is_sqlites_group_by(self, executor,
                                                    batch_size):
        plan = WINDOWED_PLANS["tumbling_over_join"]()
        expected = sqlite_rows(
            {source.name: (source.relation.schema.names,
                           source.relation.rows) for source in plan.sources},
            "SELECT events.ts / 20, dims.name, COUNT(*) "
            "FROM events JOIN dims ON events.k = dims.k "
            "GROUP BY events.ts / 20, dims.name")
        assert self.answers("tumbling_over_join", executor, batch_size) == \
            (expected, expected)

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_sliding_agg_is_each_tasks_trailing_window(self, executor,
                                                       batch_size):
        plan = WINDOWED_PLANS["sliding_agg"]()
        rows, size = plan.sources[0].relation.rows, plan.aggregation.window.size
        tasks = plan.aggregation.parallelism
        task_of = {row: FieldsGrouping([1]).targets_batch("events", [row],
                                                          tasks)[0][0]
                   for row in rows}
        newest = {task: max(row[0] for row in rows if task_of[row] == task)
                  for task in set(task_of.values())}
        groups = Counter()
        sums = Counter()
        for row in rows:
            if row[0] > newest[task_of[row]] - size:
                groups[row[1]] += 1
                sums[row[1]] += row[2]
        expected = sorted((key, groups[key], sums[key]) for key in groups)
        assert self.answers("sliding_agg", executor, batch_size) == \
            (expected, expected)


def test_a_windowed_join_killed_mid_stream_recovers(monkeypatch):
    """A joiner's per-relation progress and stored rows are task state:
    a worker killed mid-stream restores them with the rest, and the
    replay converges on the model."""
    import repro.storm.cluster

    monkeypatch.setattr(repro.storm.cluster, "ROUND_BUDGET", 24)
    plan = WINDOWED_PLANS["window_join"]
    injector = FaultInjector().kill_worker_of("J", 0, after_batches=4)
    query = stream_plan(plan(), options=ExecutionOptions(
        executor="processes", parallelism=2, batch_size=8,
        checkpoint_interval=2), fault_injector=injector).run()
    assert query.checkpoint_stats()["recoveries"] == 1
    assert query.snapshot() == windowed_join_model(plan())


def test_a_late_join_input_is_exported_not_joined():
    """B's row at ts 1 comes after B's ts 30: dropped, and counted on
    the public surfaces."""
    A = Relation("A", Schema.of("ts", "k"), [(ts, 0) for ts in range(40)])
    B = Relation("B", Schema.of("ts", "k"), [(30, 0), (1, 0)])
    spec = JoinSpec(
        [RelationInfo("A", A.schema, 40), RelationInfo("B", B.schema, 2)],
        [EquiCondition(("A", "k"), ("B", "k"))])
    plan = PhysicalPlan(
        sources=[SourceComponent("A", A), SourceComponent("B", B)],
        joins=[JoinComponent("J", spec, machines=1,
                             window=WindowSpec.sliding(5, {"A": 0, "B": 0}))])
    query = stream_plan(plan, options=ExecutionOptions(batch_size=64)).run()
    assert query.snapshot() == [(ts, 0, 30, 0) for ts in range(26, 35)]
    assert query.stats()["late_rows"] == {"J": 1}


# -- (b) random interleavings and watermarks against the model ---------------


def chain_spec(names):
    """``names[0].k = names[1].k = ...`` over ``(ts, k)`` relations."""
    return JoinSpec(
        [RelationInfo(name, Schema.of("ts", "k"), 10) for name in names],
        [EquiCondition((left, "k"), (right, "k"))
         for left, right in zip(names, names[1:])])


@st.composite
def schedules(draw):
    """Per-relation streams in timestamp order, one interleaving of them
    that keeps each one's order, cut into batches, with watermarks --
    sound ones and ones some later rows fall behind."""
    names = "ABC"[:draw(st.sampled_from([2, 3]))]
    streams = {}
    for name in names:
        gaps = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2)),
                             max_size=8))
        ts, rows = 0, []
        for gap, key in gaps:
            ts += gap
            rows.append((ts, key))
        streams[name] = rows
    order = draw(st.permutations(
        [name for name in names for _row in streams[name]]))
    steps, taken = [], dict.fromkeys(names, 0)
    for name in order:
        row = streams[name][taken[name]]
        taken[name] += 1
        if steps and steps[-1][0] == name and draw(st.booleans()):
            steps[-1][1].append(row)
        else:
            steps.append((name, [row]))
        if draw(st.integers(0, 3)) == 0:
            steps.append(("watermark", draw(st.integers(0, 30))))
    return names, steps


@settings(max_examples=200, deadline=None)
@given(schedule=schedules(),
       kind=st.sampled_from(["tumbling", "sliding"]),
       size=st.sampled_from([1, 3, 10]),
       local=st.sampled_from([DBToasterJoin, TraditionalJoin]),
       columnar=st.booleans())
def test_random_interleavings_match_the_model(schedule, kind, size, local,
                                              columnar):
    names, steps = schedule
    spec = chain_spec(names)
    window = WindowSpec(kind, size, dict.fromkeys(names, 0))
    state = WindowedJoinState(local(spec), window)
    produced = Counter()
    kept = {name: [] for name in names}
    late = 0
    watermark, newest = None, {}
    for name, payload in steps:
        if name == "watermark":
            state.advance_watermark(payload)
            watermark = max(payload, watermark or payload)
            continue
        for row in payload:  # the model: a row behind its relation is late
            bound = max((x for x in (watermark, newest.get(name))
                         if x is not None), default=None)
            if bound is not None and row[0] < bound:
                late += 1
            else:
                kept[name].append(row)
                newest[name] = max(row[0], newest.get(name, row[0]))
        rows = ColumnBatch.from_rows(payload) if columnar else payload
        delta = state.insert_batch(name, rows)
        produced.update(delta.to_rows() if isinstance(delta, ColumnBatch)
                        else delta)
    assert sorted(produced.elements()) == windowed_model(spec, window, kept)
    assert state.late_rows == late


# -- (c) tumbling aggregations against SQLite ---------------------------------


def sqlite_rows(tables, query):
    """``query``'s rows in an in-memory SQLite over ``tables``
    (``{name: (column names, rows)}``), sorted."""
    connection = sqlite3.connect(":memory:")
    try:
        for name, (columns, rows) in tables.items():
            connection.execute(f"CREATE TABLE {name} ({', '.join(columns)})")
            connection.executemany(
                f"INSERT INTO {name} VALUES "
                f"({', '.join('?' * len(columns))})", rows)
        return sorted(connection.execute(query).fetchall())
    finally:
        connection.close()


def tumbling_plan(rows, size):
    events = Relation("events", Schema.of("ts", "key", "value"), rows)
    return PhysicalPlan(
        sources=[SourceComponent("events", events)],
        aggregation=AggComponent(
            "agg", group_positions=[1], aggregates=[count(), total(2)],
            parallelism=2, window=WindowSpec.tumbling(size, {"": 0})))


@pytest.mark.parametrize("size", [1, 7, 50])
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("executor", EXECUTORS)
def test_a_tumbling_aggregation_is_sqlites_group_by(executor, batch_size,
                                                     size):
    """Out of order in a batch run (windows close at end of stream), in
    order under a stream's watermarks: SQLite's answer either way."""
    rng = random.Random(size)
    rows = [(ts, rng.randrange(4), rng.randrange(10)) for ts in range(200)]
    expected = sqlite_rows(
        {"events": (["ts", "key", "value"], rows)},
        f"SELECT ts / {size}, key, COUNT(*), SUM(value) FROM events "
        f"GROUP BY ts / {size}, key")
    run = options(executor, batch_size)
    shuffled = rng.sample(rows, len(rows))
    assert sorted(run_plan(tumbling_plan(shuffled, size),
                           options=run).results) == expected
    query = stream_plan(tumbling_plan(rows, size), options=run).run()
    assert query.snapshot() == expected
    assert query.stats()["late_rows"] == {}


# -- (d) windowed inputs that arrive in no event-time order: refused ---------


def test_a_windowed_join_over_a_striped_source_is_refused():
    plan = probe_plan("sliding")
    plan.sources[0].parallelism = 2
    with pytest.raises(ValueError, match="'J' reads 'A' from 2 source tasks"):
        run_plan(plan)


def test_a_windowed_join_over_another_join_is_refused():
    session = SqlSession(options=OptimizerOptions(
        machines=2, mode="pipeline",
        window=WindowSpec.sliding(10, {"a": 0, "b": 0, "c": 0})))
    for name, size in (("a", 2), ("b", 3), ("c", 4)):
        session.register(Relation(name, Schema.of("ts", "k"),
                                  [(ts, 0) for ts in range(size)]))
    with pytest.raises(ValueError, match="'join2' reads 'join1'"):
        session.plan("SELECT a.ts FROM a, b, c "
                     "WHERE a.k = b.k AND b.k = c.k")


def test_the_optimizer_reads_a_windowed_relation_in_one_stripe():
    """A relation large enough for several source tasks gets one when
    a join window reads it."""
    catalog = Catalog({name: Relation(name, Schema.of("ts", "k"),
                                      [(ts, ts % 7) for ts in range(60_000)])
                       for name in ("a", "b")})
    session = SqlSession(catalog, options=OptimizerOptions(
        machines=2, window=WindowSpec.tumbling(10, {"a": 0, "b": 0})))
    plan = session.plan("SELECT a.ts FROM a, b WHERE a.k = b.k")
    assert [source.parallelism for source in plan.sources] == [1, 1]
    unwindowed = SqlSession(catalog, options=OptimizerOptions(machines=2))
    assert [source.parallelism for source in unwindowed.plan(
        "SELECT a.ts FROM a, b WHERE a.k = b.k").sources] == [2, 2]
