"""The unified ExecutionOptions API.

Pins the single-owner defaulting rules (in particular the
columnar-on-at-batch_size>=64 rule applying identically to the batch and
streaming engines -- they used to disagree), options= acceptance across
every front-end, and that options= is the *only* spelling: no front-end
signature names an execution knob and a loose knob is a TypeError.  An
unknown executor name is refused at every front door by the one check
in ``resolve()``.
"""

import dataclasses
import inspect

import pytest

from repro.core.columnar import COLUMNAR_MIN_BATCH
from repro.core.optimizer import Catalog
from repro.core.options import DEFAULT_MAX_BUFFER, ExecutionOptions
from repro.core.schema import Relation, Schema
from repro.engine.runner import run_plan
from repro.functional.stream_api import GroupedStream, QueryContext, Stream
from repro.serving import QueryBroker
from repro.sql.catalog import SqlSession
from repro.storm.cluster import LocalCluster
from repro.streaming.cluster import StreamingCluster
from repro.streaming.runner import stream_plan


@pytest.fixture
def catalog():
    catalog = Catalog()
    catalog.register(Relation(
        "t", Schema.of("k", "v"), [(i % 4, i) for i in range(96)]))
    return catalog


@pytest.fixture
def session(catalog):
    return SqlSession(catalog)


SQL = "SELECT k, COUNT(*) FROM t GROUP BY k"


def grouped(catalog):
    return QueryContext(catalog, machines=2).stream("t").group_by("k") \
        .agg_count()


def subscribe_fresh_broker(broker, session, options=None):
    try:
        broker.subscribe_plan(session.plan(SQL), options=options)
    finally:
        assert broker.topology_count == 0  # refused before admission


#: every front door that takes an executor name, given (catalog, session,
#: options) -- per-call options and the default layers alike
DOORS = {
    "run_plan": lambda catalog, session, options: run_plan(
        session.plan(SQL), options=options),
    "stream_plan": lambda catalog, session, options: stream_plan(
        session.plan(SQL), options=options),
    "sql_execute": lambda catalog, session, options: session.execute(
        SQL, options=options),
    "sql_stream": lambda catalog, session, options: session.stream(
        SQL, options=options),
    "sql_session_layer": lambda catalog, session, options: SqlSession(
        catalog, execution=options).execute(SQL),
    "functional_execute": lambda catalog, session, options: grouped(
        catalog).execute(options=options),
    "functional_stream": lambda catalog, session, options: grouped(
        catalog).stream(options=options),
    "broker_subscribe": lambda catalog, session, options:
        subscribe_fresh_broker(QueryBroker(), session, options),
    "broker_layer": lambda catalog, session, options:
        subscribe_fresh_broker(QueryBroker(options=options), session),
}


class TestResolve:
    def test_defaults(self):
        resolved = ExecutionOptions().resolve()
        assert resolved.batch_size == 1
        assert resolved.executor == "inline"
        assert resolved.parallelism is None
        assert resolved.columnar is False
        assert resolved.rate is None
        assert resolved.max_buffer == DEFAULT_MAX_BUFFER
        assert resolved.on_overflow == "shed"

    def test_streaming_default_batch_size(self):
        resolved = ExecutionOptions().resolve(default_batch_size=64)
        assert resolved.batch_size == 64
        assert resolved.columnar is True  # 64 >= COLUMNAR_MIN_BATCH

    @pytest.mark.parametrize("batch_size,expected", [
        (1, False),
        (COLUMNAR_MIN_BATCH - 1, False),
        (COLUMNAR_MIN_BATCH, True),
        (1024, True),
    ])
    def test_columnar_rule_single_owner(self, batch_size, expected):
        resolved = ExecutionOptions(batch_size=batch_size).resolve()
        assert resolved.columnar is expected

    def test_explicit_columnar_wins_over_rule(self):
        assert ExecutionOptions(
            batch_size=1024, columnar=False).resolve().columnar is False
        assert ExecutionOptions(
            batch_size=1, columnar=True).resolve().columnar is True

    @pytest.mark.parametrize("bad", [
        dict(batch_size=0), dict(parallelism=0), dict(rate=0.0),
        dict(rate=-1.0), dict(rate=float("nan")), dict(rate=float("inf")),
        dict(max_buffer=0), dict(on_overflow="panic"),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            ExecutionOptions(**bad).resolve()

    @pytest.mark.parametrize("executor", ["threads", "fibers"])
    def test_unknown_executor_rejected(self, executor):
        with pytest.raises(ValueError, match=repr(executor)) as excinfo:
            ExecutionOptions(executor=executor).resolve()
        message = str(excinfo.value)
        assert "'inline'" in message and "'processes'" in message
        if executor == "threads":
            assert "'threads' backend is gone" in message

    @pytest.mark.parametrize("executor", ["threads", "fibers"])
    @pytest.mark.parametrize("door", sorted(DOORS))
    def test_every_front_door_rejects_unknown_executor(
            self, catalog, session, door, executor):
        """Each public way to name an executor resolves through the one
        check, before a topology is built or a broker admits one."""
        with pytest.raises(ValueError, match=repr(executor)) as excinfo:
            DOORS[door](catalog, session,
                        ExecutionOptions(executor=executor))
        assert "'inline'" in str(excinfo.value)
        assert "'processes'" in str(excinfo.value)

    def test_overlay_set_fields_win(self):
        base = ExecutionOptions(batch_size=8, executor="processes")
        over = base.overlay(ExecutionOptions(batch_size=64))
        assert over.batch_size == 64
        assert over.executor == "processes"
        assert base.overlay(None) is base

    def test_frozen(self):
        with pytest.raises(Exception):
            ExecutionOptions().batch_size = 5


class TestColumnarParityRegression:
    """stream_plan's columnar default used to disagree with the batch
    engine (explicit opt-in vs on-at-batch_size>=64); both now resolve
    through the one rule."""

    @pytest.mark.parametrize("batch_size", [1, 32, 64, 256])
    def test_streaming_matches_batch_columnar_default(self, session,
                                                      batch_size):
        plan = session.plan(SQL)
        batch_result = run_plan(
            plan, options=ExecutionOptions(batch_size=batch_size))
        query = session.stream(SQL, options=ExecutionOptions(
            batch_size=batch_size))
        expected = batch_size >= COLUMNAR_MIN_BATCH
        assert query.options.columnar is expected
        assert query.cluster.options is query.options
        query.run()
        assert query.snapshot() == sorted(batch_result.results)
        # the batch run resolved through the same rule
        if expected and batch_size > 1:
            assert batch_result.metrics.columnar_batches > 0

    @pytest.mark.parametrize("executor", ["inline", "processes"])
    def test_explicit_columnar_runs_columnar_at_batch_size_one(
            self, session, executor):
        """The streaming cluster applies the resolved options as they
        are: it used to run rows at batch_size=1 while ``query.options``
        said columnar, where ``run_plan`` ran columnar."""
        options = ExecutionOptions(batch_size=1, columnar=True,
                                   executor=executor)
        batch_result = run_plan(session.plan(SQL), options=options)
        query = session.stream(SQL, options=options).run()
        assert query.options.columnar is True
        assert batch_result.metrics.columnar_rows > 0
        assert query.cluster.metrics.columnar_rows > 0
        assert query.snapshot() == sorted(batch_result.results)

    def test_streaming_columnar_actually_vectorizes(self, session):
        query = session.stream(SQL, options=ExecutionOptions(batch_size=96))
        query.run()
        assert query.cluster.metrics.columnar_batches > 0


class TestFrontEnds:
    """options= accepted everywhere, and it is what drives the run."""

    def test_run_plan_options(self, session):
        plan = session.plan(SQL)
        default = run_plan(plan)
        unified = run_plan(plan, options=ExecutionOptions(
            batch_size=64, executor="inline"))
        assert sorted(default.results) == sorted(unified.results)
        assert default.metrics.columnar_batches == 0
        assert unified.metrics.columnar_batches > 0

    def test_sql_execute_options(self, session):
        default = session.execute(SQL)
        unified = session.execute(
            SQL, options=ExecutionOptions(batch_size=64))
        assert sorted(default.results) == sorted(unified.results)
        assert unified.metrics.columnar_batches > 0

    def test_sql_stream_options(self, session):
        query = session.stream(SQL, options=ExecutionOptions(batch_size=16))
        query.run()
        assert query.snapshot() == sorted(session.execute(SQL).results)

    def test_session_execution_layer(self, catalog):
        session = SqlSession(
            catalog, execution=ExecutionOptions(batch_size=16))
        query = session.stream(SQL)
        assert query.options.batch_size == 16
        # per-call options overlay the session layer
        query2 = session.stream(SQL, options=ExecutionOptions(batch_size=8))
        assert query2.options.batch_size == 8

    def test_functional_execute_options(self, catalog):
        ctx = QueryContext(catalog, machines=2)
        default = ctx.stream("t").group_by("k").agg_count().execute()
        unified = (ctx.stream("t").group_by("k").agg_count()
                   .execute(options=ExecutionOptions(batch_size=64)))
        assert sorted(default.results) == sorted(unified.results)
        assert unified.metrics.columnar_batches > 0

    def test_functional_stream_options(self, catalog):
        ctx = QueryContext(catalog, machines=2)
        query = (ctx.stream("t").group_by("k").agg_count()
                 .stream(options=ExecutionOptions(batch_size=16)))
        assert query.options.batch_size == 16
        query.run()
        batch = (ctx.stream("t").group_by("k").agg_count().execute())
        assert query.snapshot() == sorted(batch.results)

    def test_functional_context_execution_layer(self, catalog):
        ctx = QueryContext(catalog, execution=ExecutionOptions(batch_size=16),
                           machines=2)
        query = ctx.stream("t").group_by("k").agg_count().stream()
        assert query.options.batch_size == 16

    def test_streaming_rejects_parallelism_via_options(self, session):
        from repro.storm.executor import ExecutorError

        with pytest.raises(ExecutorError, match="parallelism"):
            session.stream(SQL, options=ExecutionOptions(parallelism=2))


KNOBS = {field.name for field in dataclasses.fields(ExecutionOptions)}

FRONT_ENDS = [
    run_plan, stream_plan, SqlSession.execute, SqlSession.stream,
    Stream.execute, Stream.stream, GroupedStream.execute,
    GroupedStream.stream,
    *(method for name, method in vars(QueryBroker).items()
      if name.startswith("subscribe")),
]


class TestOneSpelling:
    """The per-knob kwargs are gone, not deprecated: the fork PR 7 opened
    (options= *beside* eight loose knobs on six front-ends) stays closed."""

    @pytest.mark.parametrize(
        "front_end", FRONT_ENDS, ids=lambda f: f.__qualname__)
    def test_no_signature_names_an_execution_knob(self, front_end):
        parameters = inspect.signature(front_end).parameters
        assert "options" in parameters
        assert not KNOBS & set(parameters)

    @pytest.mark.parametrize("cluster_entry", [
        LocalCluster.run, StreamingCluster.__init__],
        ids=lambda f: f.__qualname__)
    def test_clusters_take_one_resolved_options_object(self, cluster_entry):
        """Below the front ends the clusters take the resolved object
        itself: one ``options`` parameter, no knob beside it."""
        parameters = inspect.signature(cluster_entry).parameters
        assert "options" in parameters
        assert not KNOBS & set(parameters)

    def test_run_plan_rejects_a_loose_knob(self, session):
        with pytest.raises(TypeError, match="batch_size"):
            run_plan(session.plan(SQL), batch_size=8)

    def test_stream_plan_rejects_a_loose_knob(self, session):
        with pytest.raises(TypeError, match="rate"):
            stream_plan(session.plan(SQL), rate=100.0)

    def test_sql_execute_rejects_a_loose_knob(self, session):
        with pytest.raises(TypeError, match="executor"):
            session.execute(SQL, executor="threads")

    def test_sql_stream_rejects_a_loose_knob(self, session):
        with pytest.raises(TypeError, match="columnar"):
            session.stream(SQL, columnar=True)

    def test_broker_subscribe_rejects_a_loose_knob(self, session):
        broker = QueryBroker()
        with pytest.raises(TypeError, match="max_buffer"):
            broker.subscribe_plan(session.plan(SQL), max_buffer=8)
        assert broker.topology_count == 0

    @pytest.mark.parametrize("terminal", ["execute", "stream"])
    def test_functional_terminals_reject_a_loose_knob(self, catalog,
                                                      terminal):
        """A loose execution knob lands in the optimizer overrides,
        where it is an ordinary unexpected-keyword TypeError."""
        grouped = (QueryContext(catalog, machines=2)
                   .stream("t").group_by("k").agg_count())
        with pytest.raises(TypeError, match="batch_size"):
            getattr(grouped, terminal)(batch_size=8)
