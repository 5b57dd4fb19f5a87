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

        A :class:`ColumnBatch` input is filtered by a keep-mask -- a
        whole-column one when the predicate vectorizes, else the row
        predicate's -- and stays a batch, signs and all; a row list
        stays a row list.
        """
        if isinstance(rows, ColumnBatch):
            kept = rows.take(np.flatnonzero(self._mask(rows)))
        else:
            fn = self._fn
            kept = [row for row in rows if fn(row)]
        self.seen += len(rows)
        self.passed += len(kept)
        return kept

    def _mask(self, batch: ColumnBatch):
        fn = self._columnar_fn()
        if fn is not None:
            try:
                return np.asarray(fn(batch), dtype=bool)
            except ColumnarUnsupported:
                self._cfn = None  # runtime operands never vectorize
        fn = self._fn
        return np.array([bool(fn(row)) for row in batch], dtype=bool)

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
        columns.  Anything else degrades to the row path -- and a batch
        is rebuilt from the projected rows, signs and all.
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
                    return ColumnBatch(columns, n, rows.signs)
        fns = self._fns
        if len(fns) == 1:
            fn = fns[0]
            projected = [(fn(row),) for row in rows]
        else:
            projected = [tuple(fn(row) for fn in fns) for row in rows]
        if isinstance(rows, ColumnBatch):
            return ColumnBatch.from_rows(projected, rows.signs)
        return projected

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


#: an ``int64`` accumulator wraps at this magnitude; Python ints never do
_INT64_LIMIT = 1 << 63
#: below this magnitude an int converts to ``float64`` exactly, so int
#: sums, their float conversions and ``sum / count`` match the row path
_EXACT_INT_LIMIT = 1 << 53


#: the two slots of a changelog row: ``-old``, then ``+new``
_RETRACT_INSERT = np.array([-1, 1], dtype=np.int8)


def _sum_fits(column: np.ndarray, limit: int, base: int = 0) -> bool:
    """Whether ``base`` plus any signed sum of the values of an integer
    ``column`` stays below ``limit`` in magnitude (float columns: True)."""
    if column.dtype.kind != "i" or not len(column):
        return True
    largest = max(abs(int(column.max())), abs(int(column.min())))
    return base + largest * len(column) < limit


class Aggregation:
    """Incremental grouped aggregation (sum / count / avg).

    ``consume`` applies one input row (with sign -1 for retractions, so
    window expiration works); ``current`` and ``snapshot`` read results.
    """

    def __init__(self, group_positions: Sequence[int],
                 aggregates: Sequence[AggregateSpec]):
        self.group_positions = tuple(group_positions)
        self.aggregates = list(aggregates)
        #: an AVG output is computed; every other one is its running sum
        self._averaged = any(agg.kind == "avg" for agg in self.aggregates)
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
            or (isinstance(batch.columns[agg.position], np.ndarray)
                and _sum_fits(batch.columns[agg.position], _INT64_LIMIT))
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

    def consume_changelog(self, batch: ColumnBatch,
                          published: Optional[Dict[tuple, tuple]] = None
                          ) -> Optional[ColumnBatch]:
        """Consume a batch as the upsert changelog kernel.

        Returns what the row loop of
        :class:`~repro.streaming.runner.DeltaAggBolt` emits for the same
        rows, as one batch of output rows with their ``signs``: per
        input row, in input order, ``-old`` ahead of ``+new`` when the
        group's output row changed, ``-old`` alone when the group died,
        nothing when it did not change.  Each row counts with its entry
        in the batch's ``signs`` (+1 throughout when there are none), so
        one call consumes a mixed-sign batch.

        ``published`` (group key -> the row last emitted for it) is
        updated with the state, one dict write per distinct key.  With
        ``published=None`` a group's old row is its current row, as
        :class:`~repro.engine.windows.SlidingWindowedAggregation` reads
        it, and nothing is recorded.

        Rows are grouped by a stable argsort of the key.  A group's rows
        form *segments*: the first seeded with its prior state, and a
        new one from empty after every row that runs the count down to
        zero, where the group dies.  Int sums run in ``int64``, float
        sums sequentially per segment, so every value is the row loop's
        to the bit.

        Returns None, consuming nothing, where that cannot be
        guaranteed: several or non-``int64`` key columns, value columns
        that are not ``int64`` / ``float64`` vectors, non-finite floats,
        int sums that could reach 2^53, an int column added to a float
        sum, or (``published=None``) a float column added to a live int
        sum, whose type can change without a row being emitted.

        >>> from repro.core.columnar import ColumnBatch
        >>> from repro.engine.operators import Aggregation, count
        >>> aggregation, published = Aggregation([0], [count()]), {}
        >>> batch = ColumnBatch.from_rows([(7,), (7,), (7,)], [1, -1, 1])
        >>> changes = aggregation.consume_changelog(batch, published)
        >>> list(zip(changes.signs.tolist(), changes.to_rows()))
        [(1, (7, 1)), (-1, (7, 1)), (1, (7, 1))]
        >>> published
        {(7,): (7, 1)}
        """
        key_column = batch.columns[self.group_positions[0]] \
            if len(self.group_positions) == 1 else None
        if not (isinstance(key_column, np.ndarray)
                and key_column.dtype == np.int64):
            return None
        value_columns = []
        for agg in self.aggregates:
            column = None
            if agg.kind != "count":
                column = batch.columns[agg.position]
                if not (isinstance(column, np.ndarray)
                        and column.dtype in (np.int64, np.float64)
                        and (column.dtype.kind == "i"
                             or np.isfinite(column).all())):
                    return None
            value_columns.append(column)
        n = len(batch)
        if not n:
            return ColumnBatch([], 0)
        order = key_column.argsort(kind="stable")
        sorted_keys = key_column[order]
        key_list = sorted_keys.tolist()
        # where each group's rows start in key order, and where they end
        edges = np.concatenate(
            ([True], sorted_keys[1:] != sorted_keys[:-1], [True])).nonzero()[0]
        starts = edges[:-1].tolist()
        group_lengths = edges[1:] - edges[:-1]
        # per group: key, state and the row its first change retracts
        keys = [(key_list[start],) for start in starts]
        states = list(map(self._groups.get, keys))
        if published is None:
            olds = [None if state is None else key + self._values(state)
                    for key, state in zip(keys, states)]
        else:
            olds = list(map(published.get, keys))
            if any((state is None) != (row is None)
                   for state, row in zip(states, olds)):
                return None
        # the running count after each row: its group's prior count plus
        # the signs so far; the group dies wherever that reaches zero
        if batch.signs is None:
            steps, running = 1, np.arange(1, n + 1)
        else:
            steps = batch.signs[order].astype(np.int64)
            running = steps.cumsum()
        held = [0 if state is None else state.counts for state in states]
        counts = running + (np.array(held) - (running - steps)[starts]).repeat(
            group_lengths)
        dying = (counts == 0).nonzero()[0]
        # segments: one per group start, and one after every death
        if len(dying):
            is_start = np.zeros(n + 1, dtype=bool)
            is_start[edges] = True
            is_head = is_start.copy()
            is_head[dying + 1] = True
            head_edges = is_head.nonzero()[0]
            heads, lengths = head_edges[:-1], head_edges[1:] - head_edges[:-1]
            group_of = np.arange(len(starts)).repeat(group_lengths)
            owners = group_of[heads].tolist()
            seeds = [states[g] if first else None
                     for g, first in zip(owners, is_start[heads].tolist())]
            died = set(group_of[dying].tolist())
            head_list = heads.tolist()
        else:
            heads, lengths = starts, group_lengths
            owners, seeds, died = range(len(starts)), states, ()
            head_list = starts
        fresh = [head for head, state in zip(head_list, seeds)
                 if state is None]
        # per aggregate: output values, running sum, per-segment prior
        outputs, sums, priors = [], [], []
        for index, (agg, column) in enumerate(
                zip(self.aggregates, value_columns)):
            if column is None:
                outputs.append(counts)
                sums.append(counts)
                continue
            prior = [0 if state is None else state.sums[index]
                     for state in seeds]
            values = column[order]
            if batch.signs is not None:
                np.negative(values, out=values, where=steps < 0)
            if column.dtype.kind == "i":
                if not (all(type(value) is int for value in prior)
                        and _sum_fits(column, _EXACT_INT_LIMIT,
                                      max(map(abs, prior)))):
                    return None
                total_run = values.cumsum()
                run = total_run + (np.array(prior, dtype=np.int64)
                                   - (total_run - values)[heads]).repeat(
                                       lengths)
            else:
                if any(type(value) is int and abs(value) >= _EXACT_INT_LIMIT
                       for value in prior):
                    return None
                if published is None and agg.kind == "sum" and any(
                        state is not None and type(value) is int
                        for value, state in zip(prior, seeds)):
                    return None
                run = np.empty(n)
                for lo, hi, seed in zip(head_list, [*head_list[1:], n],
                                        prior):
                    run[lo:hi] = np.add.accumulate(
                        np.concatenate(([seed], values[lo:hi])))[1:]
                if not np.isfinite(run).all():
                    return None
            sums.append(run)
            if agg.kind == "avg":
                outputs.append(run / np.where(counts == 0, 1, counts))
                prior = [0.0 if state is None else value / state.counts
                         for value, state in zip(prior, seeds)]
            else:
                outputs.append(run)
            priors.append((outputs[-1], prior))
        # which rows change their group's output row
        if len(priors) < len(outputs):
            emit_new = np.ones(n, dtype=bool)  # a COUNT changes every row
        else:
            emit_new = np.zeros(n, dtype=bool)
            for values, prior in priors:
                previous = np.concatenate((values[:1], values[:-1]))
                previous[heads] = prior
                emit_new |= values != previous
            emit_new[fresh] = True
        emit_new[dying] = False
        emit_old = emit_new.copy()
        emit_old[fresh] = False
        emit_old[dying] = True
        # one row built per emission; a retraction reuses the row its
        # segment emitted last, else the group's old row
        last = edges[1:] - 1
        if emit_new.all():  # the common case: new_refs is arange(n)
            pool = list(zip(key_list, *[values.tolist()
                                        for values in outputs]))
            new_refs = np.arange(n)
            old_refs = new_refs - 1
            old_refs[heads] = [n + g for g in owners]
            last_refs, changed = last.tolist(), [True] * len(starts)
        else:
            emitted = emit_new.nonzero()[0]
            pool = list(zip(sorted_keys[emitted].tolist(),
                            *[values[emitted].tolist() for values in outputs]))
            seen = emit_new.cumsum()
            new_refs = seen - 1
            before = seen - emit_new  # emissions ahead of the row
            old_refs = np.where(
                before > before[heads].repeat(lengths), before - 1,
                np.array([len(pool) + g for g in owners]).repeat(lengths))
            last_refs = new_refs[last].tolist()
            changed = (seen[last] > before[starts]).tolist()
        pool.extend(olds)
        # two slots per input row, in input order: -old, then +new
        twice = order * 2
        refs = np.empty(2 * n, dtype=np.intp)
        refs[twice], refs[twice + 1] = old_refs, new_refs
        kept = np.empty(2 * n, dtype=bool)
        kept[twice], kept[twice + 1] = emit_old, emit_new
        slots = kept.nonzero()[0]
        signs = _RETRACT_INSERT[slots & 1]
        rows = list(map(pool.__getitem__, refs[slots].tolist()))
        # commit: one update per distinct key; births in input order so
        # both dicts keep the row loop's insertion order
        final_counts = counts[last].tolist()
        final_sums = [list(values) for values in zip(
            *[run[last].tolist() for run in sums])] or [[] for _ in starts]
        groups = self._groups
        born = []
        for g, key, state in zip(range(len(starts)), keys, states):
            if g in died:
                if state is not None:
                    del groups[key]
                    if published is not None:
                        del published[key]
                if not final_counts[g]:
                    continue
                born.append(g)
            elif state is None:
                born.append(g)
            else:
                state.counts = final_counts[g]
                state.sums = final_sums[g]
                if changed[g] and published is not None:
                    published[key] = pool[last_refs[g]]
        if born:
            # a group is born where its last segment starts
            final_heads = np.asarray(heads)[np.searchsorted(
                heads, last[born], side="right") - 1]
            for _at, g in sorted(zip(order[final_heads].tolist(), born)):
                state = groups[keys[g]] = _GroupState(0)
                state.counts = final_counts[g]
                state.sums = final_sums[g]
                if published is not None:
                    published[keys[g]] = pool[last_refs[g]]
        self.consumed += n
        return ColumnBatch.from_rows(rows, signs)

    def _values(self, state: _GroupState) -> tuple:
        if not self._averaged:
            return tuple(state.sums)
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
