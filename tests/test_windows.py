"""Tests for window semantics on top of the full-history engine."""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.columnar import ColumnBatch
from repro.core.predicates import EquiCondition, JoinSpec, RelationInfo
from repro.core.schema import Schema
from repro.engine.component import AggComponent
from repro.engine.operators import AggregateSpec, Aggregation, count, total
from repro.engine.windows import (
    KERNEL_MIN_ROWS,
    SlidingWindowedAggregation,
    WindowClause,
    WindowedAggregation,
    WindowedJoinState,
    WindowSpec,
)
from repro.joins import DBToasterJoin, TraditionalJoin
from repro.joins.base import JoinSchema
from repro.streaming.runner import DeltaAggBolt
from tests.conftest import changes_of, reference_join


def two_way_spec():
    return JoinSpec(
        [
            RelationInfo("A", Schema.of("ts", "k"), 100),
            RelationInfo("B", Schema.of("ts", "k"), 100),
        ],
        [EquiCondition(("A", "k"), ("B", "k"))],
    )


def in_window(window, stamps):
    """The window predicate, by hand: every timestamp in one tumbling
    window, or all of them less than ``size`` apart."""
    if window.kind == "tumbling":
        return len({ts // window.size for ts in stamps}) == 1
    return max(stamps) - min(stamps) < window.size


def windowed_reference(spec, window, data):
    """The model: ``reference_join`` filtered by the window predicate."""
    schema = JoinSchema.from_spec(spec)
    positions = [schema.offsets[name] + window.ts_positions[name]
                 for name in schema.order]
    return Counter(row for row in reference_join(spec, data)
                   if in_window(window, [row[p] for p in positions]))


def make_stream(n=60, k_domain=4, seed=0):
    rng = random.Random(seed)
    stream = []
    for ts in range(n):
        rel = "A" if rng.random() < 0.5 else "B"
        stream.append((rel, (ts, rng.randrange(k_domain))))
    return stream


def by_relation(stream):
    data = {"A": [], "B": []}
    for rel, row in stream:
        data[rel].append(row)
    return data


def run_stream(state, stream):
    produced = Counter()
    for rel, row in stream:
        produced.update(state.insert_batch(rel, [row]))
    return produced


class TestWindowSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            WindowSpec("hopping", 10, {"": 0})
        with pytest.raises(ValueError):
            WindowSpec.tumbling(0, {"": 0})
        with pytest.raises(ValueError, match="event-time"):
            WindowSpec.sliding(5, {})
        with pytest.raises(ValueError, match="event-time"):
            WindowClause("sliding", 5, "")

    def test_horizon_and_predicate(self):
        tumbling = WindowSpec.tumbling(10, {"A": 0})
        sliding = WindowSpec.sliding(10, {"A": 0})
        assert tumbling.horizon(13) == 20 and sliding.horizon(13) == 23
        stamps = np.array([[3, 9, 9], [9, 10, 19]])
        assert tumbling.admits(stamps).tolist() == [True, False, False]
        assert sliding.admits(stamps).tolist() == [True, True, False]


@pytest.mark.parametrize("join_cls", [DBToasterJoin, TraditionalJoin])
class TestWindowedJoin:
    def test_tumbling_only_joins_within_window(self, join_cls):
        spec = two_way_spec()
        window = WindowSpec.tumbling(10, ts_positions={"A": 0, "B": 0})
        state = WindowedJoinState(join_cls(spec), window)
        stream = make_stream(seed=1)
        assert run_stream(state, stream) == windowed_reference(
            spec, window, by_relation(stream))
        assert state.expired_tuples > 0

    def test_sliding_matches_the_model(self, join_cls):
        spec = two_way_spec()
        window = WindowSpec.sliding(8, ts_positions={"A": 0, "B": 0})
        state = WindowedJoinState(join_cls(spec), window)
        stream = make_stream(seed=2)
        assert run_stream(state, stream) == windowed_reference(
            spec, window, by_relation(stream))

    def test_sliding_state_stays_bounded(self, join_cls):
        """Alternating relations: a row goes once the other relation's
        progress passes ``ts + size``."""
        spec = two_way_spec()
        window = WindowSpec.sliding(5, ts_positions={"A": 0, "B": 0})
        state = WindowedJoinState(join_cls(spec), window)
        for ts in range(200):
            state.insert_batch("AB"[ts % 2], [(ts, ts % 3)])
            assert sum(map(len, state._stored.values())) <= 6

    def test_a_row_behind_its_relation_is_dropped_and_counted(self,
                                                             join_cls):
        spec = two_way_spec()
        window = WindowSpec.sliding(10, ts_positions={"A": 0, "B": 0})
        state = WindowedJoinState(join_cls(spec), window)
        state.insert_batch("B", [(4, 0)])
        # A(3, 0) is behind A(5, 0) in its own batch: never joined
        assert state.insert_batch("A", [(5, 0), (3, 0)]) == [(5, 0, 4, 0)]
        assert state.insert_batch("A", [(4, 0)]) == []   # behind progress 5
        assert state.late_rows == 2
        assert state.insert_batch("A", [(5, 0)]) == [(5, 0, 4, 0)]


class TestWindowedAggregation:
    def make(self, size=10):
        window = WindowSpec.tumbling(size, ts_positions={"": 0})
        def factory():
            return Aggregation([1], [count(), total(2)])

        return WindowedAggregation(factory, window)

    def test_a_window_closes_by_watermark_not_by_arrival(self):
        wagg = self.make(size=10)
        wagg.consume((1, "a", 5))
        wagg.consume((12, "b", 1))   # a later window opens; 0 stays open
        wagg.consume((5, "a", 5))
        assert wagg.advance_watermark(10) == [(0, [("a", 2, 10)])]
        assert wagg.flush() == [(1, [("b", 1, 1)])]

    def test_flush_closes_every_window_oldest_first(self):
        wagg = self.make(size=5)
        for ts in (17, 3, 9, 0, 12):
            wagg.consume((ts, "k", 1))
        assert [window_id for window_id, _rows in wagg.flush()] == \
            [0, 1, 2, 3]
        assert wagg.flush() == []

    def test_sliding_rejected(self):
        window = WindowSpec.sliding(10, {"": 0})
        with pytest.raises(ValueError):
            WindowedAggregation(lambda: Aggregation([0], [count()]), window)

    def test_watermark_closes_window_early(self):
        wagg = self.make(size=10)
        wagg.consume((3, "a", 5))
        assert wagg.advance_watermark(8) == []  # window [0, 10) still live
        assert wagg.advance_watermark(10) == [(0, [("a", 1, 5)])]
        # idempotent: nothing left to close until new rows arrive
        assert wagg.advance_watermark(25) == []
        assert wagg.flush() == []

    def test_a_row_of_a_closed_window_is_dropped_and_counted(self):
        wagg = self.make(size=10)
        wagg.consume((3, "a", 5))
        wagg.advance_watermark(20)
        wagg.consume((9, "a", 1))     # window 0 closed
        wagg.consume((20, "a", 1))    # window 2 still open
        assert wagg.late_rows == 1
        assert wagg.flush() == [(2, [("a", 1, 1)])]


class TestWindowedJoinWatermarks:
    def test_a_watermark_bounds_state_without_changing_the_answer(self):
        spec = two_way_spec()
        window = WindowSpec.sliding(8, ts_positions={"A": 0, "B": 0})
        plain = WindowedJoinState(DBToasterJoin(spec), window)
        punctuated = WindowedJoinState(DBToasterJoin(spec), window)
        produced_plain, produced_punctuated = Counter(), Counter()
        for rel, row in make_stream(seed=7, n=30):
            produced_plain.update(plain.insert_batch(rel, [row]))
            produced_punctuated.update(punctuated.insert_batch(rel, [row]))
            punctuated.advance_watermark(row[0])  # in order: a sound promise
        assert produced_plain == produced_punctuated
        assert punctuated.state_size() <= plain.state_size()
        assert punctuated.expired_tuples >= plain.expired_tuples

    def test_tumbling_watermark_expires_closed_windows(self):
        spec = two_way_spec()
        window = WindowSpec.tumbling(10, ts_positions={"A": 0, "B": 0})
        state = WindowedJoinState(DBToasterJoin(spec), window)
        state.insert_batch("A", [(1, 0)])
        state.insert_batch("B", [(2, 0)])
        state.advance_watermark(15)  # past the end of window 0
        assert state.state_size() == 0
        assert state.expired_tuples == 2


class TestSlidingWindowedAggregation:
    def make(self, size=10):
        window = WindowSpec.sliding(size, ts_positions={"": 0})
        return SlidingWindowedAggregation(
            lambda: Aggregation([1], [count(), total(2)]), window)

    def test_rejects_tumbling(self):
        with pytest.raises(ValueError):
            SlidingWindowedAggregation(lambda: Aggregation([0], [count()]),
                                       WindowSpec.tumbling(5, {"": 0}))

    def test_changes_report_old_and_new_rows(self):
        sagg = self.make()
        assert sagg.consume((1, "a", 5)) == [(None, ("a", 1, 5))]
        assert sagg.consume((2, "a", 3)) == [(("a", 1, 5), ("a", 2, 8))]

    def test_expiry_retracts_old_rows(self):
        sagg = self.make(size=10)
        sagg.consume((1, "a", 5))
        changes = sagg.consume((12, "b", 2))
        # row at ts=1 slid out (1 <= 12 - 10): group 'a' dies, 'b' is born
        assert (("a", 1, 5), None) in changes
        assert (None, ("b", 1, 2)) in changes
        assert sagg.snapshot() == [("b", 1, 2)]
        assert sagg.expired_rows == 1

    def test_snapshot_matches_naive_window(self):
        import random
        rng = random.Random(5)
        rows = [(ts, rng.randrange(3), rng.randrange(10)) for ts in range(50)]
        sagg = self.make(size=7)
        for row in rows:
            sagg.consume(row)
        horizon = rows[-1][0] - 7
        live = [row for row in rows if row[0] > horizon]
        expected = Aggregation([1], [count(), total(2)])
        for row in live:
            expected.consume(row)
        assert sagg.snapshot() == expected.snapshot()

    def test_advance_time_equals_arrival_expiry(self):
        a, b = self.make(size=5), self.make(size=5)
        for ts in range(8):
            a.consume((ts, ts % 2, 1))
            b.consume((ts, ts % 2, 1))
        b.advance_time(12 - 0)  # watermark does the expiration early
        a_changes = a.consume((12, 0, 1))
        b_changes = b.consume((12, 0, 1))
        assert a.snapshot() == b.snapshot()
        # a's arrival change-list includes the expirations b already did
        assert a_changes[-1] == b_changes[-1]

    def test_retraction_removes_stored_instance(self):
        sagg = self.make(size=100)
        sagg.consume((1, "a", 5))
        sagg.consume((2, "a", 3))
        changes = sagg.consume((2, "a", 3), sign=-1)
        assert changes == [(("a", 2, 8), ("a", 1, 5))]
        assert sagg.state_size() == 1
        # a later arrival expires the surviving row exactly once
        final = sagg.consume((300, "b", 1))
        assert (("a", 1, 5), None) in final
        assert sagg.snapshot() == [("b", 1, 1)]

    def test_late_retraction_after_expiry_is_ignored(self):
        """Regression: a compensating retraction for a row that already
        slid out of the window must be a no-op -- applying it anyway
        double-subtracts and leaves phantom negative groups."""
        sagg = self.make(size=5)
        sagg.consume((1, "a", 5))
        sagg.consume((10, "b", 1))  # expires the ts=1 row
        changes = sagg.consume((1, "a", 5), sign=-1)
        assert changes == []
        assert sagg.snapshot() == [("b", 1, 1)]

    def test_watermark_expiry_capped_at_own_arrivals(self):
        """A watermark past this partition's newest arrival must not
        expire beyond what the next arrival would (batch parity for the
        trailing window)."""
        sagg = self.make(size=5)
        sagg.consume((1, "a", 5))
        assert sagg.advance_time(1000) == []  # capped at max_ts=1
        assert sagg.snapshot() == [("a", 1, 5)]
        # once an arrival moves event time forward, expiry follows
        changes = sagg.consume((10, "b", 1))
        assert (("a", 1, 5), None) in changes

    def test_a_row_behind_the_horizon_is_dropped_and_counted(self):
        sagg = self.make(size=10)
        sagg.consume((29, "a", 1))
        assert sagg.consume((19, "a", 1)) == []  # 19 <= 29 - 10
        assert sagg.late_rows == 1 and sagg.state_size() == 1
        assert sagg.snapshot() == [("a", 1, 1)]
        sagg.consume((20, "a", 1))               # inside: stored
        assert sagg.late_rows == 1 and sagg.snapshot() == [("a", 2, 2)]

    def test_a_late_row_inside_the_window_expires_on_time(self):
        sagg = self.make(size=10)
        for ts in (20, 25, 29, 22, 25):
            sagg.consume((ts, "a", ts))
        # timestamp order, a late row after the stored rows of equal ts
        assert [row for _ts, row in sagg._stored] == [
            (20, "a", 20), (22, "a", 22), (25, "a", 25), (25, "a", 25),
            (29, "a", 29)]
        changes = sagg.consume((32, "a", 32))    # horizon 22
        assert sagg.expired_rows == 2 and sagg.late_rows == 0
        assert changes[-1] == (("a", 3, 79), ("a", 4, 111))


class TestLateEventsEndToEnd:
    """ROADMAP 1(b): window 10, one key.  Arrival order used to decide
    expiry, so both probes ended at COUNT 11; in timestamp order, and
    with a row behind the horizon dropped, the answer is 10."""

    @staticmethod
    def plan(order):
        from repro.core.schema import Relation
        from repro.engine.component import (
            AggComponent,
            PhysicalPlan,
            SourceComponent,
        )

        events = Relation("events", Schema.of("ts", "key"),
                          [(ts, 0) for ts in order])
        return PhysicalPlan(
            sources=[SourceComponent("events", events)],
            joins=[],
            aggregation=AggComponent(
                "agg", group_positions=[1], aggregates=[count()],
                window=WindowSpec.sliding(10, ts_positions={"": 0})))

    @staticmethod
    def moved_after(last, moved, after):
        order = [ts for ts in range(last + 1) if ts != moved]
        order.insert(order.index(after) + 1, moved)
        return order

    PROBES = {"behind_the_horizon": (34, 5, 29),
              "late_inside_the_window": (35, 25, 29)}

    @pytest.mark.parametrize("probe", sorted(PROBES))
    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    def test_run_plan(self, probe, batch_size):
        from repro.core.options import ExecutionOptions
        from repro.engine.runner import run_plan

        plan = self.plan(self.moved_after(*self.PROBES[probe]))
        result = run_plan(plan, options=ExecutionOptions(
            batch_size=batch_size))
        assert result.results == [(0, 10)]

    @pytest.mark.parametrize("probe", sorted(PROBES))
    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    @pytest.mark.parametrize("executor", ["inline", "processes"])
    def test_stream_plan_exports_the_late_rows(self, probe, batch_size,
                                               executor):
        """``late_rows_total{component}`` on /metrics and
        ``query.stats()["late_rows"]`` count the dropped row."""
        from repro.core.options import ExecutionOptions
        from repro.obs.prometheus import parse, render
        from repro.streaming import stream_plan

        plan = self.plan(self.moved_after(*self.PROBES[probe]))
        query = stream_plan(plan, options=ExecutionOptions(
            executor=executor, batch_size=batch_size)).run()
        assert query.snapshot() == [(0, 10)]
        late = int(probe == "behind_the_horizon")
        assert query.stats()["late_rows"].get("agg", 0) == late
        exported = parse(render(query.cluster.registry.samples()))
        assert exported.get(("late_rows_total", (("component", "agg"),)),
                            0) == late


# -- the sliding changelog kernel is the row loop, to the bit ---------------

#: value pools: int sums, float sums whose value depends on the order of
#: the additions, and ints whose sums could pass 2^53 (the kernel must
#: hand those back)
WINDOW_VALUES = {
    "int": [-3, -1, 0, 1, 2, 7],
    "float": [0.1, 0.2, 0.3, 1e16, -1e16, 1.0, -0.5, 0.0, 2.5],
    "huge": [2 ** 53 + 1, -(2 ** 60), 3],
}

WINDOW_STEP = st.tuples(
    st.sampled_from([1, 7, 16, 64, 512]),                    # rows
    st.sampled_from(["in_order", "in_order", "in_order",
                     "shuffled", "late", "retract"]),
    st.booleans(),                             # watermark after it
)


def sliding_twins(kinds, size):
    """A kernel bolt and a row-loop twin over one sliding window
    ``(ts, key, value)``; the kernel bolt's ``used`` counts the batches
    its kernel consumed."""
    component = AggComponent(
        "agg", group_positions=[1],
        aggregates=[AggregateSpec(kind, None if kind == "count" else 2)
                    for kind in kinds],
        window=WindowSpec.sliding(size, {"": 0}))
    kernel_bolt, loop_bolt = DeltaAggBolt(component), DeltaAggBolt(component)
    loop_bolt.aggregation.consume_changelog = lambda *args: None
    kernel = kernel_bolt.sliding_state.consume_changelog
    kernel_bolt.used = 0

    def counted(batch):
        changes = kernel(batch)
        kernel_bolt.used += changes is not None
        return changes

    kernel_bolt.sliding_state.consume_changelog = counted
    return kernel_bolt, loop_bolt


def window_state(bolt):
    """Everything either path leaves behind, by ``repr``."""
    window = bolt.sliding_state
    return (repr(list(bolt._published.items())),
            repr([(key, state.counts, state.sums) for key, state
                  in window.aggregation._groups.items()]),
            repr(list(window._stored)), window.expired_rows,
            window.late_rows, repr(window._max_ts),
            window.aggregation.consumed)


class WindowStream:
    """Batches of ``(ts, key, value)`` rows for one sliding window."""

    def __init__(self, rng, keys, values, size):
        self.rng, self.keys, self.values, self.size = rng, keys, values, size
        self.now = 0
        self.sent = []  # every row inserted so far

    def _in_order(self, n):
        rows = []
        for _ in range(n):
            self.now += self.rng.choice([0, 1, 1, 2, 5])
            rows.append((self.now, self.rng.randrange(self.keys),
                         self.rng.choice(self.values)))
        return rows

    def batch(self, n, kind):
        """``n`` rows and their signs (None: all inserts)."""
        rng = self.rng
        rows, signs = self._in_order(n), None
        if kind == "shuffled":  # out of order, mostly inside the window
            for _ in range(max(1, n // 4)):
                i, j = rng.randrange(n), rng.randrange(n)
                rows[i], rows[j] = rows[j], rows[i]
        elif kind == "late":  # some rows at or behind the horizon
            for i in rng.sample(range(n), max(1, n // 5)):
                ts = self.now - self.size - rng.randrange(3)
                rows[i] = (ts,) + rows[i][1:]
        elif kind == "retract":  # stored and expired rows, a few inserts
            signs = [rng.choice([-1, -1, -1, 1]) for _ in rows]
            rows = [rng.choice(self.sent) if sign < 0 and self.sent else row
                    for row, sign in zip(rows, signs)]
        self.sent.extend(row for i, row in enumerate(rows)
                         if signs is None or signs[i] > 0)
        return rows, signs


class TestSlidingKernelDifferential:
    @settings(max_examples=120, deadline=None)
    @given(kinds=st.lists(st.sampled_from(["count", "sum", "avg"]),
                          min_size=1, max_size=3),
           steps=st.lists(WINDOW_STEP, min_size=1, max_size=8),
           keys=st.sampled_from([1, 3, 40]),
           size=st.sampled_from([3, 20, 300]),
           values=st.sampled_from(sorted(WINDOW_VALUES)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_kernel_bolt_equals_row_loop_bolt(
            self, kinds, steps, keys, size, values, seed):
        kernel_bolt, loop_bolt = sliding_twins(kinds, size)
        stream = WindowStream(random.Random(seed), keys,
                              WINDOW_VALUES[values], size)
        for n, kind, watermark in steps:
            rows, signs = stream.batch(n, kind)
            expected = loop_bolt.execute_batch(
                "events", "events", ColumnBatch.from_rows(rows, signs))
            got = kernel_bolt.execute_batch(
                "events", "events", ColumnBatch.from_rows(rows, signs))
            assert repr(changes_of(got)) == repr(changes_of(expected))
            assert window_state(kernel_bolt) == window_state(loop_bolt)
            if watermark:
                now = stream.now + stream.rng.randrange(2)
                assert repr(changes_of(kernel_bolt.advance_watermark(now))) \
                    == repr(changes_of(loop_bolt.advance_watermark(now)))
                assert window_state(kernel_bolt) == window_state(loop_bolt)


class TestSlidingKernelCases:
    """Pinned cases, each checked against the row loop and for taking
    the kernel path or not."""

    @staticmethod
    def both(batches, kinds=("count", "sum"), size=10):
        kernel_bolt, loop_bolt = sliding_twins(kinds, size)
        for rows, signs in batches:
            expected = changes_of(loop_bolt.execute_batch(
                "events", "events", ColumnBatch.from_rows(rows, signs)))
            got = changes_of(kernel_bolt.execute_batch(
                "events", "events", ColumnBatch.from_rows(rows, signs)))
            assert repr(got) == repr(expected)
            assert window_state(kernel_bolt) == window_state(loop_bolt)
        return got, kernel_bolt

    @staticmethod
    def in_order(n, start=0, key=0):
        return [(start + ts, key, ts) for ts in range(n)]

    def test_in_order_batches_take_the_kernel(self):
        _changes, bolt = self.both([(self.in_order(64), None),
                                    (self.in_order(64, start=64), None)])
        assert bolt.used == 2
        assert bolt.sliding_state.expired_rows == 118  # ts <= 127 - 10

    def test_a_group_dies_and_is_reborn_twice_in_one_batch(self):
        # window 2: every 3-unit gap expires the group's only row
        rows = [(0, 0, 5), (3, 0, 6), (6, 0, 7)] + [
            (ts, 1, 1) for ts in range(6, 6 + KERNEL_MIN_ROWS - 3)]
        changes, bolt = self.both([(rows, None)], size=2)
        assert bolt.used == 1
        assert changes[:5] == [
            (1, (0, 1, 5)),
            (-1, (0, 1, 5)),   # expired: dies
            (1, (0, 1, 6)),    # reborn from empty
            (-1, (0, 1, 6)),
            (1, (0, 1, 7)),
        ]

    def test_what_only_the_row_loop_takes(self):
        n = KERNEL_MIN_ROWS
        small = (self.in_order(n - 1), None)
        swapped = self.in_order(n, start=100)
        swapped[:2] = swapped[1::-1]           # 100 after 101: inside
        behind_first = [(100, 0, 1)] + self.in_order(n - 1, start=200)
        behind_later = self.in_order(n - 1, start=300) + [(5, 0, 1)]
        inside = behind_later[-11:-1]          # the newest ten: stored
        retract = ((inside * 2)[:n], [-1] * n)
        _changes, bolt = self.both([small, (swapped, None),
                                    (behind_first, None),
                                    (behind_later, None), retract])
        assert bolt.used == 0
        assert bolt.sliding_state.late_rows == 2

    def test_sums_the_kernel_cannot_keep_exact_fall_back(self):
        n = KERNEL_MIN_ROWS
        huge = [(ts, 0, 2 ** 60) for ts in range(n)]
        floats = [(ts, 0, 0.0) for ts in range(n, 2 * n)]
        _changes, bolt = self.both([(self.in_order(n), None), (huge, None),
                                    (floats, None)], kinds=("sum",),
                                   size=1000)
        assert bolt.used == 1  # a float added to a live int sum: loop
