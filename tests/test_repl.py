"""Tests for the interactive shell (the paper's interactive interface)."""

from collections import Counter

import pytest

from repro.core.optimizer import OptimizerOptions
from repro.core.options import DEFAULT_MAX_BUFFER, ExecutionOptions
from repro.datasets import TPCHGenerator
from repro.sql.catalog import SqlSession
from repro.sql.repl import SquallShell


@pytest.fixture
def shell():
    tables = TPCHGenerator(scale=0.2, seed=4).generate(["customer", "orders"])
    session = SqlSession(options=OptimizerOptions(machines=2))
    for relation in tables.values():
        session.register(relation)
    return SquallShell(session)


class TestMetaCommands:
    def test_empty_line(self, shell):
        assert shell.handle_line("   ") == ""

    def test_tables(self, shell):
        output = shell.handle_line("\\tables")
        assert "customer" in output
        assert "orders" in output

    def test_tables_empty_catalog(self):
        assert "no relations" in SquallShell().handle_line("\\tables")

    def test_schema(self, shell):
        output = shell.handle_line("\\schema customer")
        assert "custkey" in output
        assert "mktsegment" in output

    def test_schema_unknown_table(self, shell):
        assert "error" in shell.handle_line("\\schema warehouse")

    def test_schema_usage(self, shell):
        assert "usage" in shell.handle_line("\\schema")

    def test_help(self, shell):
        output = shell.handle_line("\\help")
        assert "\\explain" in output

    def test_quit(self, shell):
        assert shell.handle_line("\\quit") == "bye"
        assert shell.finished

    def test_unknown_command(self, shell):
        assert "unknown command" in shell.handle_line("\\frobnicate")

    def test_explain(self, shell):
        output = shell.handle_line(
            "\\explain SELECT COUNT(*) FROM customer, orders "
            "WHERE customer.custkey = orders.custkey"
        )
        assert "LogicalPlan" in output
        assert "scheme=" in output

    def test_explain_bad_sql(self, shell):
        assert "error" in shell.handle_line("\\explain SELECT FROM")

    def test_explain_usage(self, shell):
        assert "usage" in shell.handle_line("\\explain")


class TestSetOption:
    def test_set_machines(self, shell):
        assert shell.handle_line("\\set machines 6") == "machines = 6"
        assert shell.session.options.machines == 6

    def test_set_machines_not_integer(self, shell):
        assert "integer" in shell.handle_line("\\set machines many")

    def test_set_scheme(self, shell):
        assert shell.handle_line("\\set scheme random") == "scheme = random"
        assert shell.session.options.scheme == "random"

    def test_set_scheme_invalid(self, shell):
        assert "must be" in shell.handle_line("\\set scheme quantum")

    def test_set_mode(self, shell):
        assert shell.handle_line("\\set mode pipeline") == "mode = pipeline"

    def test_set_local(self, shell):
        assert shell.handle_line("\\set local traditional") == "local = traditional"

    def test_set_usage(self, shell):
        assert "usage" in shell.handle_line("\\set machines")

    def test_set_unknown_option(self, shell):
        assert "unknown option" in shell.handle_line("\\set color blue")

    def test_set_batch_size(self, shell):
        assert shell.handle_line("\\set batch_size 256") == "batch_size = 256"
        assert shell.execution.batch_size == 256

    def test_set_batch_size_rejects_non_integer(self, shell):
        assert "integer" in shell.handle_line("\\set batch_size huge")
        assert shell.execution.batch_size is None

    def test_set_batch_size_rejects_non_positive(self, shell):
        assert ">= 1" in shell.handle_line("\\set batch_size 0")

    def test_set_executor(self, shell):
        assert shell.handle_line("\\set executor processes") == \
            "executor = processes"
        assert shell.execution.executor == "processes"

    def test_set_executor_invalid(self, shell):
        assert "unknown executor 'goroutines'" in shell.handle_line(
            "\\set executor goroutines")
        assert shell.execution.executor is None

    def test_set_executor_threads_names_the_two_backends(self, shell):
        """A rejected value is answered with ``resolve()``'s message:
        for the removed backend, the note on where it went."""
        with pytest.raises(ValueError) as excinfo:
            ExecutionOptions(executor="threads").resolve()
        output = shell.handle_line("\\set executor threads")
        assert output == str(excinfo.value)
        assert "('inline', 'processes')" in output
        assert "'threads' backend is gone" in output
        assert shell.execution.executor is None

    def test_rejected_executor_keeps_the_current_one(self, shell):
        shell.handle_line("\\set executor processes")
        assert "unknown executor" in shell.handle_line(
            "\\set executor threads")
        assert shell.execution.executor == "processes"

    def test_set_parallelism(self, shell):
        assert shell.handle_line("\\set parallelism 2") == "parallelism = 2"
        assert shell.execution.parallelism == 2

    def test_set_parallelism_auto(self, shell):
        shell.handle_line("\\set parallelism 2")
        assert shell.handle_line("\\set parallelism auto") == "parallelism = auto"
        assert shell.execution.parallelism is None

    def test_set_parallelism_invalid(self, shell):
        assert "integer" in shell.handle_line("\\set parallelism some")
        assert ">= 1" in shell.handle_line("\\set parallelism 0")

    def test_set_without_args_lists_all_options(self, shell):
        """The listing shows the resolved values: columnar defaults on
        at batch_size 64, max_buffer to the serving default."""
        shell.handle_line("\\set batch_size 64")
        output = shell.handle_line("\\set")
        for line in ("machines = 2", "scheme = auto", "mode = multiway",
                     "local = dbtoaster", "batch_size = 64",
                     "executor = inline", "parallelism = auto",
                     "columnar = on", "rate = none",
                     f"max_buffer = {DEFAULT_MAX_BUFFER}",
                     "on_overflow = shed"):
            assert line in output

    def test_set_lists_what_watch_streams_with(self, shell):
        """Unset, batch_size and columnar resolve differently for a SQL
        line and for ``\\watch``: the listing names both."""
        output = shell.handle_line("\\set").splitlines()
        assert "batch_size = 1 (\\watch: 64)" in output
        assert "columnar = off (\\watch: on)" in output
        assert "executor = inline" in output
        shell.handle_line("\\set batch_size 8")
        output = shell.handle_line("\\set").splitlines()
        assert "batch_size = 8" in output and "columnar = off" in output

    def test_subscriber_knobs_are_labelled_broker_only(self, shell):
        """A SQL line and ``\\watch``'s private query take neither
        max_buffer nor on_overflow: the help and the listing say that
        they size broker subscriptions."""
        help_text = shell.handle_line("\\help")
        output = shell.handle_line("\\set").splitlines()
        for knob, value in (("max_buffer", DEFAULT_MAX_BUFFER),
                            ("on_overflow", "shed")):
            (entry,) = [line for line in help_text.splitlines()
                        if f"\\set {knob} " in line]
            assert "broker subscriptions" in entry
            assert f"{knob} = {value} (broker subscriptions)" in output

    def test_set_rate(self, shell):
        assert shell.handle_line("\\set rate 500") == "rate = 500"
        assert shell.execution.rate == 500.0
        assert shell.handle_line("\\set rate none") == "rate = none"
        assert shell.execution.rate is None
        assert "positive" in shell.handle_line("\\set rate -3")
        assert "number" in shell.handle_line("\\set rate fast")

    def test_set_columnar(self, shell):
        assert shell.handle_line("\\set columnar on") == "columnar = on"
        assert shell.execution.columnar is True
        assert shell.handle_line("\\set columnar auto") == "columnar = auto"
        assert shell.execution.columnar is None
        assert "must be" in shell.handle_line("\\set columnar sideways")

    def test_execution_is_the_only_home_of_the_knobs(self, shell):
        """The per-knob shell attributes are gone: ``shell.execution``
        (one ExecutionOptions, edited by \\set) is the only spelling."""
        for name in ("batch_size", "executor", "parallelism", "watch_rate"):
            assert not hasattr(shell, name)

    def test_set_subscriber_knobs(self, shell):
        assert shell.handle_line("\\set max_buffer 256") == "max_buffer = 256"
        assert shell.execution.max_buffer == 256
        assert ">= 1" in shell.handle_line("\\set max_buffer 0")
        assert shell.handle_line("\\set on_overflow block") == "on_overflow = block"
        assert shell.execution.on_overflow == "block"
        assert "must be" in shell.handle_line("\\set on_overflow panic")

    def test_execution_knobs_reach_the_engine(self, shell, monkeypatch):
        """The \\set knobs must actually be passed to session.execute."""
        captured = {}
        real_execute = shell.session.execute

        def spy(sql, **kwargs):
            captured.update(kwargs)
            return real_execute(sql, **kwargs)

        monkeypatch.setattr(shell.session, "execute", spy)
        shell.handle_line("\\set batch_size 128")
        shell.handle_line("\\set executor processes")
        shell.handle_line("\\set parallelism 2")
        output = shell.handle_line(
            "SELECT COUNT(*) FROM customer, orders "
            "WHERE customer.custkey = orders.custkey")
        assert "rows" in output
        options = captured["options"]
        assert options.batch_size == 128
        assert options.executor == "processes"
        assert options.parallelism == 2


class TestSqlExecution:
    def test_query_renders_rows_and_monitors(self, shell):
        output = shell.handle_line(
            "SELECT customer.mktsegment, COUNT(*) FROM customer, orders "
            "WHERE customer.custkey = orders.custkey "
            "GROUP BY customer.mktsegment"
        )
        assert "rows" in output
        assert "hypercube" in output  # partitioner info in the footer

    def test_query_error_reported(self, shell):
        output = shell.handle_line("SELECT COUNT(*) FROM nowhere")
        assert output.startswith("error:")

    def test_row_limit(self, shell):
        shell.max_rows = 2
        output = shell.handle_line(
            "SELECT customer.custkey, COUNT(*) FROM customer, orders "
            "WHERE customer.custkey = orders.custkey GROUP BY customer.custkey"
        )
        assert "rows total" in output

    def test_options_affect_execution(self, shell):
        shell.handle_line("\\set scheme random")
        output = shell.handle_line(
            "SELECT COUNT(*) FROM customer, orders "
            "WHERE customer.custkey = orders.custkey"
        )
        assert "~customer" in output  # random-hypercube quasi dimensions


class TestWatch:
    def test_watch_usage(self, shell):
        assert "usage" in shell.handle_line("\\watch")

    def test_watch_streams_deltas_and_reports_snapshot(self, shell):
        shell.handle_line("\\set batch_size 32")
        output = shell.handle_line(
            "\\watch SELECT customer.mktsegment, COUNT(*) "
            "FROM customer, orders "
            "WHERE customer.custkey = orders.custkey "
            "GROUP BY customer.mktsegment"
        )
        assert output.splitlines()[0].startswith(("+ ", "- "))
        assert "watch complete" in output
        assert "final snapshot" in output

    def test_watch_snapshot_matches_execute(self, shell):
        sql = ("SELECT customer.mktsegment, COUNT(*) FROM customer, orders "
               "WHERE customer.custkey = orders.custkey "
               "GROUP BY customer.mktsegment")
        batch = shell.session.execute(sql)
        query = shell.session.stream(
            sql, options=ExecutionOptions(batch_size=32)).run()
        assert query.snapshot() == sorted(batch.results)

    def test_watch_reports_errors(self, shell):
        assert shell.handle_line("\\watch SELECT FROM").startswith("error:")

    def test_watch_runs_resident_processes(self, shell, monkeypatch):
        """``\\watch`` under ``executor processes`` streams on resident
        forked workers with the shell's parallelism, and its folded delta
        feed is what the same SQL line returns."""
        sql = ("SELECT orders.orderpriority, COUNT(*) FROM orders "
               "GROUP BY orders.orderpriority")
        shell.max_rows = 10 ** 6  # print every delta and every row
        shell.handle_line("\\set executor processes")
        shell.handle_line("\\set parallelism 2")
        queries = []
        real_stream = shell.session.stream

        def spy(sql, **kwargs):
            queries.append(real_stream(sql, **kwargs))
            return queries[-1]

        monkeypatch.setattr(shell.session, "stream", spy)
        output = shell.handle_line("\\watch " + sql)
        assert "note" not in output and "watch complete" in output
        (query,) = queries
        assert query.options.executor == "processes"
        assert query.options.parallelism == 2
        # the epoch-0 restore point and the pre-flush barrier: the
        # topology ran on the resident, checkpointed workers
        assert query.checkpoint_stats()["commits"] >= 2
        watched = Counter()
        for line in output.splitlines():
            if line.startswith(("+ ", "- ")):
                watched[line[2:]] += 1 if line[0] == "+" else -1
        executed = shell.handle_line(sql).splitlines()[:-1]  # no footer
        assert executed and watched == Counter(executed)

    def test_watch_notes_parallelism_is_for_processes(self, shell):
        shell.handle_line("\\set parallelism 2")
        output = shell.handle_line(
            "\\watch SELECT orders.orderpriority, COUNT(*) FROM orders "
            "GROUP BY orders.orderpriority")
        assert "processes only; watching inline" in output.splitlines()[0]
        assert "watch complete" in output


class TestObservability:
    SQL = ("SELECT customer.mktsegment, COUNT(*) FROM customer, orders "
           "WHERE customer.custkey = orders.custkey "
           "GROUP BY customer.mktsegment")

    def test_set_observe(self, shell):
        assert shell.handle_line("\\set observe metrics") == "observe = metrics"
        assert shell.execution.observe == "metrics"
        assert shell.handle_line("\\set observe trace") == "observe = trace"
        assert shell.handle_line("\\set observe off") == "observe = off"
        assert shell.execution.observe is None

    def test_set_observe_invalid(self, shell):
        assert "must be" in shell.handle_line("\\set observe loudly")
        assert shell.execution.observe is None

    def test_set_lists_observe(self, shell):
        assert "observe = off" in shell.handle_line("\\set")
        shell.handle_line("\\set observe trace")
        assert "observe = trace" in shell.handle_line("\\set")

    def test_help_mentions_stats(self, shell):
        output = shell.handle_line("\\help")
        assert "\\stats" in output
        assert "\\set observe" in output

    def test_stats_sql_profiles_one_observed_run(self, shell):
        output = shell.handle_line(f"\\stats {self.SQL}")
        for column in ("operator", "p50 ms", "p95 ms", "skew"):
            assert column in output
        assert "customer" in output and "orders" in output
        # the metrics upgrade was for that run only
        assert shell.execution.observe is None

    def test_bare_stats_profiles_the_last_query(self, shell):
        assert "no query to profile yet" in shell.handle_line("\\stats")
        shell.handle_line(self.SQL)
        output = shell.handle_line("\\stats")
        assert "operator" in output and "customer" in output

    def test_stats_bad_sql(self, shell):
        assert shell.handle_line("\\stats SELECT FROM").startswith("error:")
