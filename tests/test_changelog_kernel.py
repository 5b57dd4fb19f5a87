"""The vectorized changelog kernel is the row loop, to the bit.

``DeltaAggBolt`` computes an unwindowed aggregation's changelog with one
kernel (``Aggregation.consume_changelog``) when a batch arrives as a
``ColumnBatch``, and with a per-row loop otherwise.  A differential test
drives one bolt with row batches and a twin with the same rows as
``ColumnBatch``es: the changelogs, the published rows and the
aggregation state must be identical after every batch -- compared by
``repr``, so ``1`` vs ``1.0`` and ``0.0`` vs ``-0.0`` count as different.
A retraction batch has signs, so it reaches both twins as a
``ColumnBatch``; the row twin's kernel always declines, which sends it
down the row loop.
"""

import random

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.columnar import ColumnBatch
from repro.engine.component import AggComponent
from repro.engine.operators import Aggregation, AggregateSpec
from repro.streaming.deltas import DeltaSink
from repro.streaming.runner import DeltaAggBolt
from tests.conftest import changes_of

#: floats whose sums depend on the order they are added in
FLOATS = [0.1, 0.2, 0.3, 1e16, -1e16, 1.0, -0.5, 0.0, -0.0, 2.5, 3e-17]
INTS = [-3, -2, -1, 0, 1, 2, 3, 7]
#: ints whose sums could pass 2^53: the kernel must hand them back
HUGE = [2 ** 52, -(2 ** 52), 2 ** 61]


def twins(kinds):
    """A row-loop bolt and a kernel bolt; the kernel bolt's ``used``
    lists, per batch, whether the kernel computed its changelog."""
    component = AggComponent(
        "agg", group_positions=[0],
        aggregates=[AggregateSpec(kind, None if kind == "count" else 1)
                    for kind in kinds])
    rows_bolt, cols_bolt = DeltaAggBolt(component), DeltaAggBolt(component)
    rows_bolt.aggregation.consume_changelog = lambda *args: None
    kernel = cols_bolt.aggregation.consume_changelog
    cols_bolt.used = []

    def counted(*args):
        changes = kernel(*args)
        cols_bolt.used.append(changes is not None)
        return changes

    cols_bolt.aggregation.consume_changelog = counted
    return rows_bolt, cols_bolt


def batch_of(rows, sign):
    """``rows`` as a batch, every row with ``sign`` -- or, given a list,
    each row with its own."""
    if isinstance(sign, list):
        return ColumnBatch.from_rows(rows, sign)
    return ColumnBatch.from_rows(rows, None if sign > 0 else [-1] * len(rows))


def payload(emissions):
    """What a sink is handed for one bolt's emissions."""
    return emissions.batch if emissions else []


def state_of(bolt):
    return (repr(list(bolt._published.items())),
            repr(bolt.aggregation.snapshot()),
            repr(list(bolt.aggregation._groups)))


def make_rows(rng, n, keys, values):
    return [(rng.randrange(-keys // 2, keys), rng.choice(values))
            for _ in range(n)]


BATCH = st.tuples(
    st.sampled_from([1, 7, 64, 512]),            # rows in the batch
    st.sampled_from([1, 1, -1, 0]),              # batch sign; 0: mixed
    st.sampled_from(["int", "float", "huge"]),   # value column
)


class TestDifferential:
    @settings(max_examples=150, deadline=None)
    @given(kinds=st.lists(st.sampled_from(["count", "sum", "avg"]),
                          min_size=1, max_size=3),
           batches=st.lists(BATCH, min_size=1, max_size=6),
           keys=st.sampled_from([1, 2, 5, 40]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_columnar_changelog_equals_row_changelog(
            self, kinds, batches, keys, seed):
        rng = random.Random(seed)
        rows_bolt, cols_bolt = twins(kinds)
        rows_sink, cols_sink = DeltaSink(), DeltaSink()
        rows_feed, cols_feed = rows_sink.subscribe(), cols_sink.subscribe()
        for size, sign, kind in batches:
            values = {"int": INTS, "float": FLOATS, "huge": HUGE}[kind]
            rows = make_rows(rng, size, keys, values)
            if not sign:
                sign = [rng.choice([1, -1]) for _ in rows]
            expected = rows_bolt.execute_batch("J", "J", batch_of(rows, sign))
            got = cols_bolt.execute_batch("J", "J", batch_of(rows, sign))
            assert repr(changes_of(got)) == repr(changes_of(expected))
            assert state_of(cols_bolt) == state_of(rows_bolt)
            rows_sink.execute_batch("agg", "agg", payload(expected))
            cols_sink.execute_batch("agg", "agg", payload(got))
            assert repr(cols_feed.drain()) == repr(rows_feed.drain())
            assert cols_sink.snapshot() == rows_sink.snapshot()


class TestKernelCases:
    """Pinned cases, each checked against the row loop and for taking
    the kernel path at all."""

    @staticmethod
    def both(kinds, batches):
        rows_bolt, cols_bolt = twins(kinds)
        for sign, rows in batches:
            expected = changes_of(rows_bolt.execute_batch(
                "J", "J", batch_of(rows, sign)), "agg")
            got = cols_bolt.execute_batch("J", "J", batch_of(rows, sign))
            assert repr(changes_of(got, "agg")) == repr(expected)
            assert state_of(cols_bolt) == state_of(rows_bolt)
        return expected, sum(cols_bolt.used)

    def test_group_dies_and_is_reborn_in_one_batch(self):
        changes, used = self.both(["count", "sum"], [
            (1, [(1, 5), (2, 1)]),
            (-1, [(1, 5), (1, 4), (2, 1)]),
        ])
        assert used == 2
        assert changes == [
            (-1, (1, 1, 5)),   # dies: -old alone
            (1, (1, -1, -4)),  # reborn from empty
            (-1, (2, 1, 1)),
        ]

    def test_group_dies_and_is_reborn_twice_in_one_signed_batch(self):
        changes, used = self.both(["count", "sum"], [
            (1, [(1, 5)]),
            ([-1, -1, 1, 1, 1, 1],
             [(1, 5), (1, 2), (1, 2), (1, 3), (1, 4), (2, 1)]),
        ])
        assert used == 2
        assert changes == [
            (-1, (1, 1, 5)),                    # dies
            (1, (1, -1, -2)),                   # reborn at count -1
            (-1, (1, -1, -2)),                  # dies again
            (1, (1, 1, 3)),                     # reborn
            (-1, (1, 1, 3)), (1, (1, 2, 7)),
            (1, (2, 1, 1)),
        ]

    def test_zero_sum_live_group_vs_dead_group(self):
        changes, used = self.both(["sum"], [
            (1, [(0, 4), (0, -4), (0, 0), (1, 3)]),
            (-1, [(0, 4), (0, -4), (0, 0)]),
        ])
        assert used == 2
        # the retract batch: 0 -> 4 -> 0 (live at zero) -> dead
        assert changes == [
            (-1, (0, 0)), (1, (0, -4)),
            (-1, (0, -4)), (1, (0, 0)),
            (-1, (0, 0)),
        ]

    def test_unchanged_rows_publish_nothing_and_keep_the_old_row(self):
        # SUM-only: adding 0.0 to an int sum prints an equal row; the
        # published row stays the int one the sink holds
        _changes, used = self.both(["sum"], [
            (1, [(7, 2), (7, 3)]), (1, [(7, 0.0), (7, 0.5)]),
        ])
        assert used == 2

    def test_order_dependent_float_sums(self):
        rows = [(1, v) for v in (1e16, 1.0, 1.0, -1e16, 0.1, 0.2)]
        changes, used = self.both(["sum", "avg"], [(1, rows)])
        assert used == 1
        assert changes[-1][1][1] == ((((1e16 + 1.0) + 1.0) - 1e16)
                                        + 0.1) + 0.2

    def test_falls_back_where_it_cannot_be_exact(self):
        _changes, used = self.both(["sum"], [
            (1, [(1, 2 ** 52), (1, 2 ** 52)]),   # could pass 2^53
            (1, [(1.5, 1), (2.5, 2)]),           # non-int64 keys
            (1, [(3, 0.5)]),                     # a float sum
            (1, [(3, 1)]),                       # int onto a float sum
        ])
        assert used == 1  # only the float batch ran in the kernel

    def test_other_value_dtypes_fall_back(self):
        # negating a bool column raises and a uint64 one wraps: only
        # int64 and float64 value columns run in the kernel
        for dtype in (np.bool_, np.uint64, np.int32, np.float32):
            rows_bolt, cols_bolt = twins(["sum"])
            rows = [(1, 1), (1, 0), (2, 1)]
            for sign in (1, -1):
                batch = ColumnBatch([np.array([1, 1, 2]),
                                     np.array([1, 0, 1], dtype=dtype)], 3,
                                    None if sign > 0 else [-1] * 3)
                expected = rows_bolt.execute_batch("J", "J",
                                                   batch_of(rows, sign))
                got = cols_bolt.execute_batch("J", "J", batch)
                assert changes_of(got) == changes_of(expected)
            assert cols_bolt.used == [False, False]


class TestInt64Wraparound:
    def test_columnar_sum_does_not_wrap(self):
        rows = [(1, 2 ** 62), (1, 2 ** 62), (1, 2 ** 62), (2, -(2 ** 62)),
                (2, -(2 ** 62))]
        by_rows = Aggregation([0], [AggregateSpec("sum", 1)])
        by_cols = Aggregation([0], [AggregateSpec("sum", 1)])
        by_rows.consume_batch(rows, collect=False)
        batch = ColumnBatch.from_rows(rows)
        assert batch.columns[1].dtype == np.int64
        by_cols.consume_batch(batch, collect=False)
        assert by_cols.snapshot() == by_rows.snapshot() == [
            (1, 3 * 2 ** 62), (2, -(2 ** 63))]

    def test_small_sums_stay_vectorized(self):
        aggregation = Aggregation([0], [AggregateSpec("sum", 1)])
        batch = ColumnBatch.from_rows([(1, 2 ** 40)] * 4)
        assert aggregation._columnar_reducible(batch)
        assert not aggregation._columnar_reducible(
            ColumnBatch.from_rows([(1, 2 ** 62)] * 2))
