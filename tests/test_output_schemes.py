"""Tests for output schemes (common subexpression elimination): the
optimizer ships only the columns the aggregation reads out of the joiner,
and rewrites the aggregation's positions onto the projected row."""

from collections import Counter

import pytest

from repro.core.logical import AggItem, LogicalPlan, ScanDef
from repro.core.optimizer import Optimizer, OptimizerOptions
from repro.core.predicates import EquiCondition
from repro.engine.runner import run_plan
from repro.engine.windows import WindowClause
from repro.joins import reference_join

from tests.test_optimizer import catalog_rst

#: the join's full output row: R.x, R.y, S.y, S.z, T.z, T.t
R_X, R_Y, S_Z, T_T = 0, 1, 3, 5


def rst_plan(group_by, aggregates, **options):
    logical = LogicalPlan(
        scans=[ScanDef("R", "R"), ScanDef("S", "S"), ScanDef("T", "T")],
        conditions=[EquiCondition(("R", "y"), ("S", "y")),
                    EquiCondition(("S", "z"), ("T", "z"))],
        group_by=group_by,
        aggregates=aggregates,
    )
    return Optimizer(catalog_rst(seed=76),
                     OptimizerOptions(machines=4, **options)).compile(logical)


def full_join_rows():
    catalog = catalog_rst(seed=76)
    plan = rst_plan([], [AggItem("count")])
    return reference_join(plan.joins[0].spec,
                          {name: catalog.get(name).rows
                           for name in ("R", "S", "T")})


class TestComputeOutputScheme:
    def test_selects_needed_positions(self):
        plan = rst_plan(["T.t"], [AggItem("sum", "R.x")])
        assert plan.joins[0].output_positions == [T_T, R_X]
        assert plan.aggregation.group_positions == [0]
        assert [a.position for a in plan.aggregation.aggregates] == [1]

    def test_duplicates_collapsed(self):
        plan = rst_plan(["R.y"], [AggItem("sum", "R.y"), AggItem("avg", "R.y")])
        assert plan.joins[0].output_positions == [R_Y]
        assert plan.aggregation.group_positions == [0]
        assert [a.position for a in plan.aggregation.aggregates] == [0, 0]

    def test_unknown_column_raises(self):
        with pytest.raises(KeyError, match="ghost"):
            rst_plan(["R.ghost"], [AggItem("count")])

    def test_empty_needed_is_maximal_reduction(self):
        """COUNT(*) with no grouping ships empty tuples."""
        plan = rst_plan([], [AggItem("count")])
        assert plan.joins[0].output_positions == []
        assert run_plan(plan).results == [(len(full_join_rows()),)]

    def test_window_event_time_column_survives(self):
        plan = rst_plan(["R.y"], [AggItem("count")],
                        agg_window=WindowClause("sliding", 10, "R.x"))
        assert plan.joins[0].output_positions == [R_Y, R_X]
        assert plan.aggregation.window.ts_positions == {"": 1}

    def test_positions_read_the_projected_row(self):
        """The answer over the projected row equals the aggregate over the
        full join output."""
        plan = rst_plan(["T.t"], [AggItem("sum", "R.x")])
        expected = Counter()
        for row in full_join_rows():
            expected[row[T_T]] += row[R_X]
        assert sorted(run_plan(plan).results) == sorted(expected.items())


class TestRemapPositions:
    def test_identity(self):
        """Grouping by every column in join order keeps the full row."""
        columns = ["R.x", "R.y", "S.y", "S.z", "T.z", "T.t"]
        plan = rst_plan(columns, [AggItem("count")])
        assert plan.joins[0].output_positions == list(range(6))
        assert plan.aggregation.group_positions == list(range(6))

    def test_remaps_to_projected_row(self):
        """An aggregate reading a group-by column shares its slot; each
        position indexes the projected row, not the join's full row."""
        plan = rst_plan(["T.t", "R.x"],
                        [AggItem("sum", "R.x"), AggItem("avg", "S.z"),
                         AggItem("count")])
        assert plan.joins[0].output_positions == [T_T, R_X, S_Z]
        assert plan.aggregation.group_positions == [0, 1]
        assert [a.position for a in plan.aggregation.aggregates] == [1, 2, None]

    def test_projected_away_position_rejected(self):
        """Every position the aggregation reads lies inside the projected
        row: nothing points at a column the joiner no longer ships."""
        for group_by, aggregates in [
            (["T.t"], [AggItem("sum", "S.y")]),
            (["S.z", "R.y"], [AggItem("avg", "T.t"), AggItem("count")]),
            ([], [AggItem("sum", "T.z")]),
        ]:
            plan = rst_plan(group_by, aggregates)
            width = len(plan.joins[0].output_positions)
            read = plan.aggregation.group_positions + [
                a.position for a in plan.aggregation.aggregates
                if a.position is not None]
            assert read and all(0 <= p < width for p in read)

    def test_pipeline_positions_read_the_projected_row(self):
        """The pipeline of 2-way joins projects its last joiner's output
        the same way, with the same answer."""
        plan = rst_plan(["T.t"], [AggItem("sum", "R.x")], mode="pipeline")
        assert len(plan.joins) == 2
        assert len(plan.joins[-1].output_positions) == 2
        expected = Counter()
        for row in full_join_rows():
            expected[row[T_T]] += row[R_X]
        assert sorted(run_plan(plan).results) == sorted(expected.items())
