"""Relational operators: selections, projections and aggregations.

Squall currently supports sum, count and average aggregates (paper
section 2).  Aggregations are incremental: every input tuple updates the
group state, and the engine can emit either running updates (online
semantics) or a snapshot when the stream ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.columnar import ColumnBatch
from repro.core.expressions import ColumnarUnsupported, Expression, Predicate
from repro.core.schema import Schema


class Selection:
    """Row filter compiled against the input schema.

    ``cost_class`` tags what the predicate touches ('int', 'date', 'noop')
    so the cost model can price it (Figure 5 prices an integer selection at
    1.6% of the run and a date selection at 16%).
    """

    def __init__(self, predicate: Predicate, schema: Schema, cost_class: str = "int"):
        self.predicate = predicate
        self.schema = schema
        self.cost_class = cost_class
        self._fn = predicate.compile(schema)
        self._cfn = None
        self._cfn_resolved = False
        self.seen = 0
        self.passed = 0

    def apply(self, row: tuple) -> Optional[tuple]:
        self.seen += 1
        if self._fn(row):
            self.passed += 1
            return row
        return None

    def _columnar_fn(self):
        """Lazily compile the vectorized predicate; None = no vector form."""
        if not self._cfn_resolved:
            self._cfn_resolved = True
            try:
                self._cfn = self.predicate.compile_columnar(self.schema)
            except ColumnarUnsupported:
                self._cfn = None
        return self._cfn

    def apply_batch(self, rows: Sequence[tuple]):
        """Filter a whole batch in one pass (counters updated in bulk).

        A :class:`ColumnBatch` input is filtered as a whole-column mask
        when the predicate vectorizes and stays columnar on the way out;
        otherwise it degrades to the row path (returning a row list).
        """
        if isinstance(rows, ColumnBatch):
            fn = self._columnar_fn()
            if fn is not None:
                try:
                    mask = np.asarray(fn(rows), dtype=bool)
                except ColumnarUnsupported:
                    self._cfn = None  # runtime operands never vectorize
                else:
                    kept = rows.take(np.flatnonzero(mask))
                    self.seen += len(rows)
                    self.passed += len(kept)
                    return kept
            rows = rows.to_rows()
        fn = self._fn
        kept = [row for row in rows if fn(row)]
        self.seen += len(rows)
        self.passed += len(kept)
        return kept

    @property
    def selectivity(self) -> float:
        return self.passed / self.seen if self.seen else 1.0

    # the compiled predicate is a closure of lambdas; drop it when a
    # parallel worker ships the operator across a process boundary and
    # recompile from the (picklable) predicate tree on arrival
    def __getstate__(self):
        state = dict(self.__dict__)
        del state["_fn"]
        state["_cfn"] = None
        state["_cfn_resolved"] = False
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._fn = self.predicate.compile(self.schema)


class Projection:
    """Maps rows to a new schema through compiled expressions.

    This implements Squall's *output schemes*: a component sends only the
    fields/expressions needed downstream (common subexpression
    elimination, paper section 2)."""

    def __init__(self, expressions: Sequence[Expression], schema: Schema,
                 names: Optional[Sequence[str]] = None):
        self.expressions = list(expressions)
        self.schema = schema
        self._fns = [expr.compile(schema) for expr in self.expressions]
        self._cfns = None
        self._cfns_resolved = False
        if names is None:
            names = [f"expr{i}" for i in range(len(self.expressions))]
        if len(names) != len(self.expressions):
            raise ValueError("one name per projected expression required")
        self.output_schema = Schema.of(*names)

    def apply(self, row: tuple) -> tuple:
        return tuple(fn(row) for fn in self._fns)

    def _columnar_fns(self):
        """Lazily compile the vectorized projections; None = no vector form."""
        if not self._cfns_resolved:
            self._cfns_resolved = True
            try:
                self._cfns = [expr.compile_columnar(self.schema)
                              for expr in self.expressions]
            except ColumnarUnsupported:
                self._cfns = None
        return self._cfns

    @staticmethod
    def _as_column(value, n: int):
        """Broadcast a projected result into a column of ``n`` values."""
        if isinstance(value, (np.ndarray, list)):
            return value
        if type(value) is int:
            return np.full(n, value, dtype=np.int64)
        if type(value) is float:
            return np.full(n, value, dtype=np.float64)
        return [value] * n

    def apply_batch(self, rows: Sequence[tuple]):
        """Project a whole batch in one pass.

        Pure column references on a :class:`ColumnBatch` reuse the input
        columns zero-copy; vectorizable expressions evaluate as whole
        columns.  Anything else degrades to the row path.
        """
        if isinstance(rows, ColumnBatch):
            fns = self._columnar_fns()
            if fns is not None:
                n = len(rows)
                try:
                    columns = [self._as_column(fn(rows), n) for fn in fns]
                except ColumnarUnsupported:
                    self._cfns = None  # runtime operands never vectorize
                else:
                    return ColumnBatch(columns, n, rows.sign)
            rows = rows.to_rows()
        fns = self._fns
        if len(fns) == 1:
            fn = fns[0]
            return [(fn(row),) for row in rows]
        return [tuple(fn(row) for fn in fns) for row in rows]

    # same pickle story as Selection: recompile the expression closures
    def __getstate__(self):
        state = dict(self.__dict__)
        del state["_fns"]
        state["_cfns"] = None
        state["_cfns_resolved"] = False
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._fns = [expr.compile(self.schema) for expr in self.expressions]


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate: kind in {'sum', 'count', 'avg'} over a column position."""

    kind: str
    position: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("sum", "count", "avg"):
            raise ValueError(f"unsupported aggregate {self.kind!r}")
        if self.kind != "count" and self.position is None:
            raise ValueError(f"{self.kind} aggregate needs a column position")


def total(position: int) -> AggregateSpec:
    """SUM over the column at ``position``."""
    return AggregateSpec("sum", position)


def count() -> AggregateSpec:
    """COUNT(*)."""
    return AggregateSpec("count")


def avg(position: int) -> AggregateSpec:
    """AVG over the column at ``position``."""
    return AggregateSpec("avg", position)


class _GroupState:
    __slots__ = ("sums", "counts")

    def __init__(self, n: int):
        self.sums = [0] * n  # ints until a float value arrives (COUNT stays int)
        self.counts = 0


class Aggregation:
    """Incremental grouped aggregation (sum / count / avg).

    ``consume`` applies one input row (with sign -1 for retractions, so
    window expiration works); ``current`` and ``snapshot`` read results.
    """

    def __init__(self, group_positions: Sequence[int],
                 aggregates: Sequence[AggregateSpec]):
        self.group_positions = tuple(group_positions)
        self.aggregates = list(aggregates)
        self._groups: Dict[tuple, _GroupState] = {}
        self.consumed = 0

    def key_of(self, row: tuple) -> tuple:
        return tuple(row[p] for p in self.group_positions)

    def consume(self, row: tuple, sign: int = 1) -> tuple:
        """Update state; returns the group's current output row."""
        self.consumed += 1
        key = self.key_of(row)
        state = self._groups.get(key)
        if state is None:
            state = _GroupState(len(self.aggregates))
            self._groups[key] = state
        state.counts += sign
        for i, agg in enumerate(self.aggregates):
            if agg.kind == "count":
                state.sums[i] += sign
            else:
                state.sums[i] += sign * row[agg.position]
        if state.counts == 0:
            del self._groups[key]
            return key + tuple(0 for _ in self.aggregates)
        return key + self._values(state)

    def consume_batch(self, rows: Sequence[tuple], sign: int = 1,
                      collect: bool = True, dead_as_none: bool = False
                      ) -> Optional[List[Optional[tuple]]]:
        """Apply a whole batch of input rows in one pass.

        With ``collect=True`` returns the group's current output row after
        each input (what per-row ``consume`` returns -- online semantics);
        with ``collect=False`` state is updated without materialising the
        per-row outputs, which is what snapshot-mode consumers want.

        An input row that cancels its group out yields the group key
        padded with zeros, as ``consume`` does -- indistinguishable from a
        live group whose aggregates are all zero.  ``dead_as_none`` yields
        ``None`` for it instead (the upsert changelog needs to know).

        Snapshot-mode :class:`ColumnBatch` input with a single ndarray
        group column reduces vectorized (``np.unique`` + ``bincount`` /
        ``np.add.at``) -- one dict update per distinct key instead of one
        per row.  Online mode needs per-row outputs and stays row-wise.
        """
        if isinstance(rows, ColumnBatch):
            if not collect and self._columnar_reducible(rows):
                self._consume_columnar(rows, sign)
                return None
            rows = rows.to_rows()
        outputs: Optional[List[tuple]] = [] if collect else None
        groups = self._groups
        positions = self.group_positions
        aggregates = self.aggregates
        n_aggs = len(aggregates)
        for row in rows:
            key = tuple(row[p] for p in positions)
            state = groups.get(key)
            if state is None:
                state = _GroupState(n_aggs)
                groups[key] = state
            state.counts += sign
            sums = state.sums
            for i, agg in enumerate(aggregates):
                if agg.kind == "count":
                    sums[i] += sign
                else:
                    sums[i] += sign * row[agg.position]
            if state.counts == 0:
                del groups[key]
                if collect:
                    outputs.append(
                        None if dead_as_none else key + (0,) * n_aggs)
            elif collect:
                outputs.append(key + self._values(state))
        self.consumed += len(rows)
        return outputs

    def _columnar_reducible(self, batch: ColumnBatch) -> bool:
        if len(self.group_positions) != 1:
            return False
        if not isinstance(batch.columns[self.group_positions[0]], np.ndarray):
            return False
        return all(
            agg.kind == "count"
            or isinstance(batch.columns[agg.position], np.ndarray)
            for agg in self.aggregates
        )

    def _consume_columnar(self, batch: ColumnBatch, sign: int):
        keys, inverse = np.unique(batch.columns[self.group_positions[0]],
                                  return_inverse=True)
        n_groups = len(keys)
        counts = np.bincount(inverse, minlength=n_groups)
        totals = []
        for agg in self.aggregates:
            if agg.kind == "count":
                totals.append(counts.tolist())
            else:
                col = batch.columns[agg.position]
                acc = np.zeros(n_groups, dtype=col.dtype)
                np.add.at(acc, inverse, col)
                totals.append(acc.tolist())
        counts_list = counts.tolist()
        groups = self._groups
        n_aggs = len(self.aggregates)
        # .tolist() above restores plain Python ints/floats, so group keys
        # and sums stay exactly what the row path would have produced
        for g, key_value in enumerate(keys.tolist()):
            key = (key_value,)
            state = groups.get(key)
            if state is None:
                state = _GroupState(n_aggs)
                groups[key] = state
            state.counts += sign * counts_list[g]
            sums = state.sums
            for i in range(n_aggs):
                sums[i] += sign * totals[i][g]
            if state.counts == 0:
                del groups[key]
        self.consumed += len(batch)

    def _values(self, state: _GroupState) -> tuple:
        values = []
        for i, agg in enumerate(self.aggregates):
            if agg.kind == "avg":
                values.append(state.sums[i] / state.counts if state.counts else 0.0)
            else:
                values.append(state.sums[i])
        return tuple(values)

    def current(self, key: tuple) -> Optional[tuple]:
        state = self._groups.get(key)
        if state is None:
            return None
        return key + self._values(state)

    def snapshot(self) -> List[tuple]:
        """All groups as (group columns..., aggregate values...) rows."""
        return sorted(
            key + self._values(state) for key, state in self._groups.items()
        )

    @property
    def group_count(self) -> int:
        return len(self._groups)

    def reset(self):
        self._groups.clear()
