"""Convenience entry point: SQL string -> executed results.

Ties the parser, the optimizer and the runner together, mirroring the
paper's Figure 1 pipeline: Parser -> logical plan -> query optimizer ->
physical plan -> Squall-to-Storm translator -> execution.

A session can also be bound to a :class:`~repro.serving.broker.\
QueryBroker` (usually via :func:`repro.connect`): :meth:`SqlSession.\
stream` then returns a broker-managed subscription instead of a private
:class:`~repro.streaming.StreamingQuery`, and sessions sharing a broker
and catalog that issue the same SQL share one resident topology.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.optimizer import Catalog, Optimizer, OptimizerOptions
from repro.core.options import ExecutionOptions
from repro.core.schema import Relation
from repro.engine.runner import RunResult, run_plan
from repro.sql.parser import parse_query


class SqlSession:
    """Run SQL over registered relations.

    ``options`` configures the *optimizer* (window clauses, machine
    budget); ``execution`` is the session's default
    :class:`~repro.core.options.ExecutionOptions` layer -- per-call
    ``options=`` overlays it.  ``broker`` + ``tenant`` attach the
    session to a shared serving layer (see :func:`repro.connect`).
    """

    def __init__(self, catalog: Optional[Catalog] = None,
                 options: Optional[OptimizerOptions] = None,
                 execution: Optional[ExecutionOptions] = None,
                 broker=None, tenant: str = "default"):
        self.catalog = catalog or Catalog()
        self.options = options or OptimizerOptions()
        self.execution = execution or ExecutionOptions()
        self.broker = broker
        self.tenant = tenant

    def register(self, relation: Relation):
        self.catalog.register(relation)

    def _schemas(self) -> Dict[str, object]:
        return {name: self.catalog.get(name).schema for name in self.catalog.names()}

    def plan(self, sql: str):
        """Parse and optimize a query, returning the physical plan."""
        logical = parse_query(sql, self._schemas())
        return Optimizer(self.catalog, self.options).compile(logical)

    def explain(self, sql: str) -> str:
        """Logical + physical plan description without executing."""
        logical = parse_query(sql, self._schemas())
        physical = Optimizer(self.catalog, self.options).compile(logical)
        parts = [logical.dag()]
        for join in physical.joins:
            parts.append(f"  {join.name}: scheme={join.scheme} "
                         f"local={join.local_join} machines={join.machines}")
        if physical.aggregation:
            agg = physical.aggregation
            parts.append(f"  agg: groups={list(agg.group_positions)} "
                         f"parallelism={agg.parallelism}")
        return "\n".join(parts)

    def execute(self, sql: str,
                options: Optional[ExecutionOptions] = None) -> RunResult:
        """Parse, optimize and run a query to completion.

        Args:
            sql: the query text (multi-way joins, predicates, GROUP BY
                aggregation -- see :mod:`repro.sql.parser`).
            options: execution knobs as one
                :class:`~repro.core.options.ExecutionOptions` -- batch
                size, backend (``'inline'`` | ``'processes'``; both
                return the same result multiset),
                parallelism and the columnar toggle.  Overlays the
                session's ``execution`` defaults.

        Returns:
            A :class:`~repro.engine.runner.RunResult` -- ``results``
            (final rows), ``metrics`` (per-component counters),
            ``replication_factor`` (section-6 monitors).

        Raises:
            SqlError: on parse/name-resolution failures.
            ExecutorError: when the chosen backend cannot run the plan
                (e.g. adaptive partitioners on 'processes').

        Example::

            import repro
            from repro.core.schema import Relation, Schema

            session = repro.connect()
            session.register(Relation("t", Schema.of("k", "v"),
                                      [(1, 10), (2, 20)]))
            result = session.execute(
                "SELECT t.k, COUNT(*) FROM t GROUP BY t.k",
                options=repro.ExecutionOptions(batch_size=64))
            assert sorted(result.results) == [(1, 1), (2, 1)]
        """
        return run_plan(self.plan(sql),
                        options=self.execution.overlay(options))

    def stream(self, sql: str,
               options: Optional[ExecutionOptions] = None,
               tenant: Optional[str] = None):
        """Run a query *continuously*: the registered relations are
        replayed as rate-limited push sources and the query stays
        resident, emitting live ``(+row / -row)`` result deltas.

        Args:
            sql: the query text, as for :meth:`execute`.
            options: execution knobs
                (:class:`~repro.core.options.ExecutionOptions`).  On
                top of the batch knobs: ``rate`` (replayed rows/second
                per source), ``max_buffer`` / ``on_overflow`` (this
                subscriber's delta ring, broker mode),
                ``parallelism`` and ``checkpoint_interval`` (the
                fault-tolerant ``executor='processes'`` resident
                workers -- see ``docs/FAULT_TOLERANCE.md``).  Layered
                over the session's execution options and resolved once,
                exactly as in the batch engine (columnar on at
                batch_size >= 64; streaming default batch size 64); the
                streaming cluster applies the resolved object as it is,
                so an explicit ``columnar`` is honoured at any batch
                size.
            tenant: overrides the session's tenant for this
                subscription (broker mode).

        Returns:
            Without a broker: a private
            :class:`repro.streaming.StreamingQuery` -- iterate it for
            deltas, ``.run()`` to drive it to source exhaustion,
            ``.snapshot()`` for the current result multiset (which,
            once the sources are exhausted, equals
            ``execute(sql).results`` on the same data).  Bound to a
            broker: a :class:`~repro.serving.broker.BrokerSubscription`
            on the shared resident topology for this plan (started on
            first use, deduped across sessions).

        Raises:
            SqlError: on parse/name-resolution failures.
            AdmissionError: broker mode, when a serving limit is hit.
            ExecutorError: when the backend cannot run the plan
                resident.

        Window semantics come from the session options
        (``OptimizerOptions.agg_window`` / ``window``); watermarks
        follow the window's event-time column.

        Example::

            import repro
            from repro.core.schema import Relation, Schema

            session = repro.connect()
            session.register(Relation("t", Schema.of("k", "v"),
                                      [(1, 10), (1, 20)]))
            query = session.stream(
                "SELECT t.k, COUNT(*) FROM t GROUP BY t.k",
                options=repro.ExecutionOptions(batch_size=8))
            deltas = list(query)    # drain: sources are finite here
            assert query.snapshot() == [(1, 2)]
            assert [d.sign for d in deltas[-1:]] == [1]
        """
        from repro.streaming.runner import agg_window_ts_positions, stream_plan

        logical = parse_query(sql, self._schemas())
        physical = Optimizer(self.catalog, self.options).compile(logical)
        ts_positions = agg_window_ts_positions(
            self.catalog, logical.scans, self.options.agg_window)
        merged = self.execution.overlay(options)
        if self.broker is not None:
            return self.broker.subscribe_plan(
                physical, ts_positions=ts_positions, options=merged,
                tenant=tenant if tenant is not None else self.tenant)
        return stream_plan(physical, ts_positions=ts_positions,
                           options=merged)
