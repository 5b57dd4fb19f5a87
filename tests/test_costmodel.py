"""Tests for the bottleneck cost model and its calibration."""

import random

import pytest

from repro.core.expressions import TruePredicate
from repro.core.options import ExecutionOptions
from repro.core.predicates import EquiCondition, JoinSpec, RelationInfo
from repro.core.schema import Relation, Schema
from repro.costmodel import CostBreakdown, CostConstants, CostModel
from repro.engine import JoinComponent, PhysicalPlan, SourceComponent, run_plan
from repro.joins import JoinSchema

from tests.conftest import make_rst_data


class TestCostBreakdown:
    def test_total_and_fractions(self):
        breakdown = CostBreakdown(read=26, selection=0, network=60, join_cpu=14)
        assert breakdown.total == 100
        fractions = breakdown.fractions()
        assert fractions["network"] == pytest.approx(0.60)
        assert fractions["join_cpu"] == pytest.approx(0.14)

    def test_empty_fractions(self):
        assert CostBreakdown().fractions() == {}

    def test_scaled(self):
        breakdown = CostBreakdown(read=10).scaled(2.0)
        assert breakdown.read == 20

    def test_str_renders(self):
        assert "total=" in str(CostBreakdown(read=1.0))


class TestConstants:
    def test_selection_cost_classes(self):
        constants = CostConstants()
        assert constants.selection_cost("date") > 5 * constants.selection_cost("int")
        assert constants.selection_cost("noop") < constants.selection_cost("int")

    def test_calibration_ratios_match_figure5(self):
        """network/read ~ 60/26, date-selection/read ~ 16/26."""
        constants = CostConstants()
        assert constants.network_per_tuple / constants.read_per_tuple == \
            pytest.approx(60 / 26, rel=0.01)
        assert constants.selection_date_per_tuple / constants.read_per_tuple == \
            pytest.approx(16 / 26, rel=0.05)

    def test_traditional_unit_cost_is_12x_dbtoaster(self):
        """Calibrated so Figure 8's end-to-end gaps reproduce: the paper
        reports DBToaster 'orders of magnitude' faster locally."""
        constants = CostConstants()
        ratio = (constants.join_cost("traditional")
                 / constants.join_cost("dbtoaster"))
        assert ratio == pytest.approx(12.0)

    def test_unknown_local_join_rejected(self):
        with pytest.raises(KeyError, match="no calibrated cost"):
            CostConstants().join_cost("mystery")


def rst_plan(spec, data, machines, scheme="hybrid", predicate=None,
             cost_class="int"):
    """R, S, T sources (``predicate`` on R's, priced as ``cost_class``)
    -> one hypercube join -> sink."""
    sources = [SourceComponent(name, Relation(name, spec.by_name[name].schema, rows))
               for name, rows in data.items()]
    sources[0].predicate = predicate
    sources[0].selection_cost_class = cost_class
    return PhysicalPlan(sources=sources,
                        joins=[JoinComponent("J", spec, machines, scheme)])


class TestHyLDCost:
    """The paper's HyLD operator -- a plan's hypercube join -- priced by
    ``CostModel.run_cost``."""

    def test_replication_increases_network_cost(self, rst_spec):
        data = make_rst_data(seed=90, n=200)
        model = CostModel()
        costs = {
            scheme: model.run_cost(run_plan(rst_plan(rst_spec, data, 16, scheme),
                                            options=ExecutionOptions(batch_size=64)))
            for scheme in ("hash", "random")
        }
        assert costs["random"].network > costs["hash"].network

    def test_selection_class_priced(self, rst_spec):
        data = make_rst_data(seed=91, n=50)
        keep_all = TruePredicate()
        model = CostModel()
        with_date, with_int = (
            model.run_cost(run_plan(rst_plan(rst_spec, data, 4, predicate=keep_all,
                                             cost_class=cost_class)))
            for cost_class in ("date", "int"))
        plain = model.run_cost(run_plan(rst_plan(rst_spec, data, 4)))
        assert with_date.selection > with_int.selection > 0
        assert plain.selection == 0

    def test_pipeline_cost_combines(self):
        """A pipeline of joins is one plan: each join adds its own
        bottleneck network and local-join CPU."""
        data = make_rst_data(seed=94, n=60)
        schemas = {"R": Schema.of("x", "y"), "S": Schema.of("y", "z"),
                   "T": Schema.of("z", "t")}
        rs = JoinSpec([RelationInfo("R", schemas["R"]), RelationInfo("S", schemas["S"])],
                      [EquiCondition(("R", "y"), ("S", "y"))])
        j1 = JoinSchema.from_spec(rs).output_schema()
        j1t = JoinSpec([RelationInfo("J1", j1), RelationInfo("T", schemas["T"])],
                       [EquiCondition(("J1", "S.z"), ("T", "z"))])
        result = run_plan(PhysicalPlan(
            sources=[SourceComponent(name, Relation(name, schemas[name], rows))
                     for name, rows in data.items()],
            joins=[JoinComponent("J1", rs, 4, "hash"),
                   JoinComponent("J2", j1t, 4, "hash")]))
        c = CostConstants()
        breakdown = CostModel(c).run_cost(result)
        assert breakdown.network == pytest.approx(sum(
            c.network_per_tuple * max(result.metrics.received[join])
            for join in ("J1", "J2")))
        assert breakdown.join_cpu == pytest.approx(sum(
            c.join_cost("dbtoaster") * max(result.join_work[join])
            for join in ("J1", "J2")))


class TestRunCost:
    def test_engine_run_priced(self):
        rng = random.Random(92)
        R = Relation("R", Schema.of("k", "v"),
                     [(rng.randrange(10), i) for i in range(60)])
        S = Relation("S", Schema.of("k", "w"),
                     [(rng.randrange(10), i) for i in range(60)])
        spec = JoinSpec(
            [RelationInfo("R", R.schema, 60), RelationInfo("S", S.schema, 60)],
            [EquiCondition(("R", "k"), ("S", "k"))],
        )
        plan = PhysicalPlan(
            sources=[SourceComponent("R", R), SourceComponent("S", S)],
            joins=[JoinComponent("J", spec, machines=4)],
        )
        result = run_plan(plan)
        breakdown = CostModel().run_cost(result)
        assert breakdown.read > 0
        assert breakdown.network > 0
        assert breakdown.join_cpu > 0
        assert breakdown.total == pytest.approx(
            breakdown.read + breakdown.selection + breakdown.network
            + breakdown.join_cpu + breakdown.output
        )

    def test_seconds_scaling(self, rst_spec):
        result = run_plan(rst_plan(rst_spec, make_rst_data(seed=93, n=20), 4))
        unit = CostModel().run_cost(result)
        halved = CostModel(CostConstants(seconds_per_unit=0.5)).run_cost(result)
        assert halved.read == pytest.approx(unit.read / 2)
        assert halved.total == pytest.approx(unit.total / 2)
