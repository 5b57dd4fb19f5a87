"""The functional stream API.

Example::

    ctx = QueryContext(catalog, machines=16)
    result = (
        ctx.stream("lineitem")
           .filter(col("quantity").gt(10))
           .equi_join(ctx.stream("partsupp"), "partkey", "partkey")
           .equi_join(ctx.stream("part"), "partsupp.partkey", "partkey")
           .group_by("part.brand")
           .agg_count()
           .execute()
    )

Each chained call extends a :class:`~repro.core.logical.LogicalPlan`; the
terminal ``execute()`` hands it to the optimizer and the local cluster.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.expressions import Predicate
from repro.core.logical import AggItem, LogicalPlan, ScanDef, resolve_column
from repro.core.optimizer import Catalog, Optimizer, OptimizerOptions
from repro.core.options import ExecutionOptions
from repro.core.predicates import BandCondition, EquiCondition, ThetaCondition
from repro.core.schema import Schema
from repro.engine.runner import RunResult, run_plan


class QueryContext:
    """Factory for streams over a catalog, carrying execution options.

    ``execution`` is the context's default
    :class:`~repro.core.options.ExecutionOptions` layer; the terminal
    ``.execute(options=...)`` / ``.stream(options=...)`` overlay it.
    Remaining keyword arguments configure the optimizer."""

    def __init__(self, catalog: Catalog,
                 execution: Optional[ExecutionOptions] = None, **options):
        self.catalog = catalog
        self.options = OptimizerOptions(**options)
        self.execution = execution or ExecutionOptions()
        self._alias_counter = itertools.count(1)

    def stream(self, table: str, alias: Optional[str] = None) -> "Stream":
        if table not in self.catalog:
            raise KeyError(f"unknown table {table!r}")
        alias = alias or table
        scan = ScanDef(alias=alias, table=table)
        return Stream(self, [scan], [])

    def fresh_alias(self, base: str) -> str:
        return f"{base}_{next(self._alias_counter)}"


class Stream:
    """An immutable builder over (scans, join conditions)."""

    def __init__(self, context: QueryContext, scans: List[ScanDef],
                 conditions: list):
        self._context = context
        self._scans = scans
        self._conditions = conditions

    # -- schema helpers ----------------------------------------------------

    def _schemas(self) -> Dict[str, Schema]:
        return {
            scan.alias: self._context.catalog.get(scan.table).schema
            for scan in self._scans
        }

    def _resolve(self, name: str) -> Tuple[str, str]:
        return resolve_column(name, self._schemas())

    # -- transformations -------------------------------------------------------

    def filter(self, predicate: Predicate, cost_class: str = "int") -> "Stream":
        """Selection over the most recently added relation's columns."""
        if len(self._scans) != 1:
            # attribute the filter by resolving its columns
            columns = predicate.columns()
            owners = {self._resolve(c)[0] for c in columns}
            if len(owners) != 1:
                raise ValueError(
                    "filter predicates must reference exactly one relation; "
                    f"got columns from {sorted(owners)}"
                )
            target = owners.pop()
        else:
            target = self._scans[0].alias
        scans = [
            ScanDef(s.alias, s.table, list(s.predicates), s.cost_class)
            for s in self._scans
        ]
        for scan in scans:
            if scan.alias == target:
                scan.predicates.append(predicate)
                if cost_class == "date":
                    scan.cost_class = "date"
        return Stream(self._context, scans, list(self._conditions))

    def _merge(self, other: "Stream") -> Tuple[List[ScanDef], list]:
        if other._context is not self._context:
            raise ValueError("cannot join streams from different contexts")
        mine = {s.alias for s in self._scans}
        scans = [ScanDef(s.alias, s.table, list(s.predicates), s.cost_class)
                 for s in self._scans]
        for scan in other._scans:
            alias = scan.alias
            if alias in mine:
                alias = self._context.fresh_alias(scan.alias)
            scans.append(ScanDef(alias, scan.table, list(scan.predicates),
                                 scan.cost_class))
        return scans, list(self._conditions) + list(other._conditions)

    def equi_join(self, other: "Stream", left_on: str, right_on: str) -> "Stream":
        """Equality join with another stream."""
        scans, conditions = self._merge(other)
        left = resolve_column(left_on, self._schemas())
        right_alias_map = {
            old.alias: new.alias
            for old, new in zip(other._scans, scans[len(self._scans):])
        }
        other_schemas = {
            right_alias_map[s.alias]: other._context.catalog.get(s.table).schema
            for s in other._scans
        }
        right = resolve_column(right_on, other_schemas)
        conditions.append(EquiCondition(left, right))
        return Stream(self._context, scans, conditions)

    def theta_join(self, other: "Stream", left_on: str, op: str, right_on: str,
                   left_scale: float = 1.0, right_scale: float = 1.0) -> "Stream":
        """Inequality join (op in <, <=, >, >=, !=), optionally scaled."""
        scans, conditions = self._merge(other)
        left = resolve_column(left_on, self._schemas())
        right_alias_map = {
            old.alias: new.alias
            for old, new in zip(other._scans, scans[len(self._scans):])
        }
        other_schemas = {
            right_alias_map[s.alias]: other._context.catalog.get(s.table).schema
            for s in other._scans
        }
        right = resolve_column(right_on, other_schemas)
        conditions.append(
            ThetaCondition(left, op, right, left_scale=left_scale,
                           right_scale=right_scale)
        )
        return Stream(self._context, scans, conditions)

    def band_join(self, other: "Stream", left_on: str, right_on: str,
                  width: float) -> "Stream":
        """Band join: |left - right| <= width."""
        scans, conditions = self._merge(other)
        left = resolve_column(left_on, self._schemas())
        right_alias_map = {
            old.alias: new.alias
            for old, new in zip(other._scans, scans[len(self._scans):])
        }
        other_schemas = {
            right_alias_map[s.alias]: other._context.catalog.get(s.table).schema
            for s in other._scans
        }
        right = resolve_column(right_on, other_schemas)
        conditions.append(BandCondition(left, right, width))
        return Stream(self._context, scans, conditions)

    def group_by(self, *columns: str) -> "GroupedStream":
        qualified = []
        schemas = self._schemas()
        for name in columns:
            alias, attr = resolve_column(name, schemas)
            qualified.append(f"{alias}.{attr}")
        return GroupedStream(self, qualified)

    # -- terminal operations -----------------------------------------------------

    def logical_plan(self, group_by: Sequence[str] = (),
                     aggregates: Sequence[AggItem] = ()) -> LogicalPlan:
        plan = LogicalPlan(
            scans=self._scans,
            conditions=self._conditions,
            group_by=list(group_by),
            aggregates=list(aggregates),
        )
        return plan.validate(self._schemas())

    def execute(self, options: Optional[ExecutionOptions] = None,
                **optimizer_overrides) -> RunResult:
        """Run the stream as a full-result query (join output, no
        grouping).  ``options`` overlays the context's execution
        defaults; the remaining keywords override optimizer options."""
        return _execute(self._context, self.logical_plan(), options,
                        optimizer_overrides)

    def stream(self, options: Optional[ExecutionOptions] = None,
               **optimizer_overrides):
        """Run the query *continuously* over replayed push sources.

        The terminal counterpart of :meth:`execute` for long-lived
        queries: returns a :class:`repro.streaming.StreamingQuery`
        emitting live result deltas.  Accepts the same optimizer
        overrides; ``options`` carries ``batch_size``, ``executor`` and
        ``rate`` (replayed rows/second per source)."""
        return _stream(self._context, self.logical_plan(), options,
                       optimizer_overrides)


class GroupedStream:
    """A stream with grouping applied; terminal aggregate calls execute it."""

    def __init__(self, stream: Stream, group_by: List[str]):
        self._stream = stream
        self._group_by = group_by
        self._aggregates: List[AggItem] = []

    def agg_count(self) -> "GroupedStream":
        self._aggregates.append(AggItem("count"))
        return self

    def agg_sum(self, column: str) -> "GroupedStream":
        alias, attr = self._stream._resolve(column)
        self._aggregates.append(AggItem("sum", f"{alias}.{attr}"))
        return self

    def agg_avg(self, column: str) -> "GroupedStream":
        alias, attr = self._stream._resolve(column)
        self._aggregates.append(AggItem("avg", f"{alias}.{attr}"))
        return self

    def logical_plan(self) -> LogicalPlan:
        if not self._aggregates:
            raise ValueError("grouped stream needs at least one aggregate")
        return self._stream.logical_plan(self._group_by, self._aggregates)

    def execute(self, options: Optional[ExecutionOptions] = None,
                **optimizer_overrides) -> RunResult:
        return _execute(self._stream._context, self.logical_plan(), options,
                        optimizer_overrides)

    def stream(self, options: Optional[ExecutionOptions] = None,
               **optimizer_overrides):
        """Continuous counterpart of :meth:`execute`: live delta feed of
        the grouped aggregates (see :meth:`Stream.stream`)."""
        return _stream(self._stream._context, self.logical_plan(), options,
                       optimizer_overrides)


def _compile(context: QueryContext, logical: LogicalPlan, overrides: dict):
    import dataclasses

    options = context.options
    if overrides:
        options = dataclasses.replace(options, **overrides)
    return options, Optimizer(context.catalog, options).compile(logical)


def _execute(context: QueryContext, logical: LogicalPlan,
             options: Optional[ExecutionOptions],
             overrides: dict) -> RunResult:
    _options, physical = _compile(context, logical, overrides)
    return run_plan(physical, options=context.execution.overlay(options))


def _stream(context: QueryContext, logical: LogicalPlan,
            options: Optional[ExecutionOptions], overrides: dict):
    from repro.streaming.runner import agg_window_ts_positions, stream_plan

    optimizer_options, physical = _compile(context, logical, overrides)
    ts_positions = agg_window_ts_positions(
        context.catalog, logical.scans, optimizer_options.agg_window)
    return stream_plan(physical, ts_positions=ts_positions,
                       options=context.execution.overlay(options))
