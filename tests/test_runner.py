"""End-to-end tests for the plan runner (physical plan -> topology -> results)."""

import random
from collections import Counter, defaultdict

import pytest

from repro.core.columnar import ColumnEmissions
from repro.core.expressions import col
from repro.core.options import ExecutionOptions
from repro.core.predicates import EquiCondition, JoinSpec, RelationInfo
from repro.core.schema import Relation, Schema
from repro.engine import (
    AggComponent,
    JoinComponent,
    PhysicalPlan,
    SourceComponent,
    WindowSpec,
    count,
    run_plan,
    total,
)
from repro.engine.operators import Projection, Selection
from repro.engine.runner import SourcePump
from repro.streaming import PushSource, ReplaySource
from tests.conftest import reference_join, retracting


def make_setup(seed=0, n=40):
    rng = random.Random(seed)
    R = Relation("R", Schema.of("x", "y"),
                 [(rng.randrange(20), rng.randrange(6)) for _ in range(n)])
    S = Relation("S", Schema.of("y", "z"),
                 [(rng.randrange(6), rng.randrange(5)) for _ in range(n)])
    T = Relation("T", Schema.of("z", "t"),
                 [(rng.randrange(5), rng.randrange(9)) for _ in range(n)])
    spec = JoinSpec(
        [RelationInfo("R", R.schema, n), RelationInfo("S", S.schema, n),
         RelationInfo("T", T.schema, n)],
        [EquiCondition(("R", "y"), ("S", "y")),
         EquiCondition(("S", "z"), ("T", "z"))],
    )
    return R, S, T, spec


def empty_middle_plan():
    """R's middle 128 of 256 rows all fail its selection; S has 40."""
    rng = random.Random(7)
    R = Relation("R", Schema.of("x", "y"),
                 [(x, rng.randrange(6)) for x in range(256)])
    S = Relation("S", Schema.of("y", "z"),
                 [(rng.randrange(6), z) for z in range(40)])
    spec = JoinSpec(
        [RelationInfo("R", R.schema, len(R)),
         RelationInfo("S", S.schema, len(S))],
        [EquiCondition(("R", "y"), ("S", "y"))])
    plan = PhysicalPlan(
        sources=[SourceComponent(
            "R", R, predicate=col("x").lt(64) | col("x").ge(192)),
            SourceComponent("S", S)],
        joins=[JoinComponent("J", spec, machines=4, scheme="hash")])
    kept = [row for row in R.rows if row[0] < 64 or row[0] >= 192]
    return plan, Counter(reference_join(spec, {"R": kept, "S": S.rows}))


class OnePoll(PushSource):
    """Polls ``emissions`` once, then is exhausted."""

    def __init__(self, emissions):
        self.emissions = emissions

    def poll(self, max_rows):
        emissions, self.emissions = self.emissions, []
        return emissions

    def watermark(self):
        return None

    def exhausted(self):
        return not self.emissions


class TestSourceTasks:
    @pytest.mark.parametrize("batch_size", [64, 7])
    def test_a_poll_the_selection_empties_does_not_end_its_source(
            self, batch_size):
        """R's middle 128 rows all fail its selection: whole columnar
        polls of R come back empty at 64 (the row path at 7 reads past
        them inside one poll), and the rows that pass after them must
        still be read and joined."""
        plan, expected = empty_middle_plan()
        result = run_plan(plan, options=ExecutionOptions(
            batch_size=batch_size))
        assert Counter(result.results) == expected
        assert result.reads == {"R": 256, "S": 40}
        assert result.selections["R"][1:] == (256, 128)
        assert (result.metrics.columnar_batches > 0) == (batch_size == 64)

    @pytest.mark.parametrize("batch_size", [64, 7])
    def test_an_emptied_poll_does_not_end_its_source_on_processes(
            self, batch_size):
        """The worker pool's coordinator pulls the same pumps: its
        rounds must also read past the polls the selection empties."""
        plan, expected = empty_middle_plan()
        result = run_plan(plan, options=ExecutionOptions(
            batch_size=batch_size, executor="processes", parallelism=2))
        assert Counter(result.results) == expected
        assert result.reads == {"R": 256, "S": 40}

    @pytest.mark.parametrize("parallelism", [2, 3])
    def test_the_stripes_of_a_source_read_each_row_once(self, parallelism):
        """A relation's spout tasks replay disjoint stripes that together
        are the relation: each row read once, the join unchanged."""
        plan, expected = empty_middle_plan()
        plan.sources[0].parallelism = parallelism
        result = run_plan(plan, options=ExecutionOptions(batch_size=16))
        assert Counter(result.results) == expected
        assert result.reads == {"R": 256, "S": 40}
        assert result.selections["R"][1:] == (256, 128)


class TestSourcePump:
    ROWS = [(i, i % 3) for i in range(6)]

    def pump(self, source, columnar, **operators):
        pump = SourcePump("R", source, **operators)
        pump.columnar = columnar
        return pump

    def test_reads_an_unsigned_batch_as_rows_with_columnar_off(self):
        pump = self.pump(ReplaySource(self.ROWS, "R"), columnar=False)
        assert pump.poll(4) == [("R", row) for row in self.ROWS[:4]]

    def test_keeps_an_unsigned_batch_with_columnar_on(self):
        pump = self.pump(ReplaySource(self.ROWS, "R"), columnar=True)
        polled = pump.poll(4)
        assert isinstance(polled, ColumnEmissions)
        assert (polled.stream, polled.batch.to_rows()) == ("R", self.ROWS[:4])

    def test_a_signed_batch_stays_a_batch_with_columnar_off(self):
        """Rows are unsigned pairs: reading a retraction batch as rows
        would turn its retractions into insertions."""
        pump = self.pump(OnePoll(ColumnEmissions("R", retracting(self.ROWS))),
                         columnar=False,
                         selection=Selection(col("k").eq(0),
                                             Schema.of("x", "k")))
        polled = pump.poll(8)
        assert isinstance(polled, ColumnEmissions)
        assert polled.batch.to_rows() == [(0, 0), (3, 0)]
        assert polled.batch.signs.tolist() == [-1, -1]

    def test_a_full_poll_the_selection_empties_still_has_more(self):
        """``read`` counts raw rows; a full poll the selection emptied
        leaves ``has_more`` on, a short one turns it off."""
        pump = self.pump(ReplaySource(self.ROWS, "R"), columnar=True,
                         selection=Selection(col("x").ge(5),
                                             Schema.of("x", "k")))
        assert pump.poll(3) == [] and pump.has_more()
        assert pump.read == 3
        polled = pump.poll(4)
        assert len(polled) == 1 and not pump.has_more()
        assert pump.read == 6 and pump.exhausted()

    def test_the_row_path_reads_past_the_rows_the_selection_rejects(self):
        """A stored replay's row poll is full once ``max_rows`` rows
        pass: the selection runs inside the read, one call a row."""
        selection = Selection(col("x").ge(4), Schema.of("x", "k"))
        pump = self.pump(ReplaySource(self.ROWS, "R"), columnar=False,
                         selection=selection,
                         projection=Projection([col("k")],
                                               Schema.of("x", "k")))
        assert pump.poll(1) == [("R", (1,))] and pump.has_more()
        assert pump.read == pump.last_poll_raw == 5
        assert pump.poll(2) == [("R", (2,))] and not pump.has_more()
        assert pump.read == 6 and pump.exhausted()
        assert (selection.seen, selection.passed) == (6, 2)

    def test_a_poll_mixing_streams_keeps_each_rows_stream(self):
        emissions = [("R", (0, 0)), ("S", (1, 1)), ("R", (2, 2))]
        pump = self.pump(OnePoll(emissions), columnar=True,
                         selection=Selection(col("x").lt(2),
                                             Schema.of("x", "k")),
                         projection=Projection([col("k")],
                                               Schema.of("x", "k")))
        assert pump.poll(8) == [("R", (0,)), ("S", (1,))]
        assert pump.read == 3


class TestJoinPlans:
    def test_join_without_aggregation_returns_flat_rows(self):
        R, S, T, spec = make_setup(seed=60)
        plan = PhysicalPlan(
            sources=[SourceComponent("R", R), SourceComponent("S", S),
                     SourceComponent("T", T)],
            joins=[JoinComponent("J", spec, machines=6)],
        )
        result = run_plan(plan)
        expected = reference_join(spec, {"R": R.rows, "S": S.rows, "T": T.rows})
        assert Counter(result.results) == Counter(expected)

    def test_selection_pushed_into_source(self):
        R, S, T, spec = make_setup(seed=61)
        plan = PhysicalPlan(
            sources=[SourceComponent("R", R, predicate=col("x").lt(10)),
                     SourceComponent("S", S), SourceComponent("T", T)],
            joins=[JoinComponent("J", spec, machines=6)],
        )
        result = run_plan(plan)
        filtered = {"R": [r for r in R.rows if r[0] < 10], "S": S.rows, "T": T.rows}
        assert Counter(result.results) == Counter(reference_join(spec, filtered))
        cost_class, seen, passed = result.selections["R"]
        assert seen == len(R.rows)
        assert passed == len(filtered["R"])

    def test_aggregation_with_output_scheme(self):
        R, S, T, spec = make_setup(seed=62)
        plan = PhysicalPlan(
            sources=[SourceComponent("R", R), SourceComponent("S", S),
                     SourceComponent("T", T)],
            joins=[JoinComponent("J", spec, machines=6,
                                 output_positions=[1, 5])],  # R.y, T.t
            aggregation=AggComponent("agg", group_positions=[0],
                                     aggregates=[count(), total(1)],
                                     parallelism=2),
        )
        result = run_plan(plan)
        expected = defaultdict(lambda: [0, 0])
        for row in reference_join(spec, {"R": R.rows, "S": S.rows, "T": T.rows}):
            expected[row[1]][0] += 1
            expected[row[1]][1] += row[5]
        assert sorted(result.results) == sorted(
            (k, c, s) for k, (c, s) in expected.items()
        )

    def test_pipeline_of_two_way_joins(self):
        """R >< S via hash, then (RS) >< T: the paper's baseline shape."""
        R, S, T, spec = make_setup(seed=63)
        spec_rs = JoinSpec(
            [RelationInfo("R", R.schema, len(R)), RelationInfo("S", S.schema, len(S))],
            [EquiCondition(("R", "y"), ("S", "y"))],
        )
        from repro.joins.base import JoinSchema
        rs_schema = JoinSchema.from_spec(spec_rs).output_schema()
        spec_rst = JoinSpec(
            [RelationInfo("J1", rs_schema, 100), RelationInfo("T", T.schema, len(T))],
            [EquiCondition(("J1", "S.z"), ("T", "z"))],
        )
        plan = PhysicalPlan(
            sources=[SourceComponent("R", R), SourceComponent("S", S),
                     SourceComponent("T", T)],
            joins=[JoinComponent("J1", spec_rs, machines=4, scheme="hash"),
                   JoinComponent("J2", spec_rst, machines=4, scheme="hash")],
        )
        result = run_plan(plan)
        expected = reference_join(spec, {"R": R.rows, "S": S.rows, "T": T.rows})
        # J2 output order: J1 columns then T columns == R, S, T order
        assert Counter(result.results) == Counter(expected)

    def test_online_aggregation_emits_running_updates(self):
        R, S, T, spec = make_setup(seed=64, n=15)
        plan = PhysicalPlan(
            sources=[SourceComponent("R", R), SourceComponent("S", S),
                     SourceComponent("T", T)],
            joins=[JoinComponent("J", spec, machines=4, output_positions=[1])],
            aggregation=AggComponent("agg", group_positions=[0],
                                     aggregates=[count()], parallelism=1,
                                     online=True),
        )
        result = run_plan(plan)
        expected = Counter(
            row[1] for row in reference_join(spec, {"R": R.rows, "S": S.rows,
                                                    "T": T.rows})
        )
        # online mode emits an update per input; the final value per key must
        # match the reference
        finals = {}
        for key, value in result.results:
            finals[key] = value
        assert finals == dict(expected)

    def test_validation_rejects_unknown_upstream(self):
        R, S, T, spec = make_setup(seed=65)
        plan = PhysicalPlan(
            sources=[SourceComponent("R", R), SourceComponent("S", S)],
            joins=[JoinComponent("J", spec, machines=2)],  # references T
        )
        with pytest.raises(ValueError, match="not an upstream"):
            run_plan(plan)

    def test_metrics_surface(self):
        R, S, T, spec = make_setup(seed=66)
        plan = PhysicalPlan(
            sources=[SourceComponent("R", R, parallelism=2),
                     SourceComponent("S", S), SourceComponent("T", T)],
            joins=[JoinComponent("J", spec, machines=8)],
        )
        result = run_plan(plan)
        assert result.query_input == 120
        assert result.replication_factor("J") >= 1.0
        assert result.skew_degree("J") >= 1.0
        assert result.intermediate_network_factor() > 0
        assert "hypercube" in result.partitioner_info["J"]
        assert len(result.join_work["J"]) == 8

    def test_windowed_join_plan(self):
        rng = random.Random(67)
        A = Relation("A", Schema.of("ts", "k"),
                     [(ts, rng.randrange(3)) for ts in range(30)])
        B = Relation("B", Schema.of("ts", "k"),
                     [(ts, rng.randrange(3)) for ts in range(30)])
        spec = JoinSpec(
            [RelationInfo("A", A.schema, 30), RelationInfo("B", B.schema, 30)],
            [EquiCondition(("A", "k"), ("B", "k"))],
        )
        window = WindowSpec.tumbling(10, ts_positions={"A": 0, "B": 0})
        plan = PhysicalPlan(
            sources=[SourceComponent("A", A), SourceComponent("B", B)],
            joins=[JoinComponent("J", spec, machines=1, window=window)],
        )
        result = run_plan(plan)
        # every output pair must share a window
        for row in result.results:
            assert row[0] // 10 == row[2] // 10

    def test_single_source_aggregation_plan(self):
        rng = random.Random(68)
        R = Relation("R", Schema.of("k:str", "v"),
                     [(rng.choice("abc"), rng.randrange(10)) for _ in range(50)])
        plan = PhysicalPlan(
            sources=[SourceComponent("R", R)],
            aggregation=AggComponent("agg", group_positions=[0],
                                     aggregates=[total(1)], parallelism=2),
        )
        result = run_plan(plan)
        expected = defaultdict(int)
        for k, v in R.rows:
            expected[k] += v
        assert sorted(result.results) == sorted(expected.items())
