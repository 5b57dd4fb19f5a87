"""The paper's HyLD operator on the engine: a plan's join component runs
one local join per machine of a hypercube scheme."""

import random
from collections import Counter

import pytest

from benchmarks.harness import run_hyld_experiment
from repro.core.options import ExecutionOptions
from repro.core.predicates import EquiCondition, JoinSpec, RelationInfo
from repro.core.schema import Relation, Schema
from repro.engine import JoinComponent, PhysicalPlan, SourceComponent, run_plan
from repro.engine.runner import build_topology

from tests.conftest import make_rst_data, reference_join


def join_plan(spec, data, machines, scheme="hybrid", local_join="dbtoaster"):
    """One source per relation of ``data`` -> the join ``J`` -> sink."""
    return PhysicalPlan(
        sources=[SourceComponent(name, Relation(name, spec.by_name[name].schema,
                                                rows))
                 for name, rows in data.items()],
        joins=[JoinComponent("J", spec, machines, scheme, local_join)],
    )


def run_join(spec, data, machines, scheme="hybrid", local_join="dbtoaster"):
    return run_plan(join_plan(spec, data, machines, scheme, local_join),
                    options=ExecutionOptions(batch_size=64))


@pytest.mark.parametrize("scheme", ["hash", "random", "hybrid"])
@pytest.mark.parametrize("local_join", ["dbtoaster", "traditional"])
class TestCorrectness:
    def test_matches_reference(self, scheme, local_join, rst_spec):
        data = make_rst_data(seed=40)
        result = run_join(rst_spec, data, 9, scheme, local_join)
        assert Counter(result.results) == Counter(reference_join(rst_spec, data))


class TestStats:
    def test_replication_factor_hash_is_bounded_by_dims(self, rst_spec):
        result = run_join(rst_spec, make_rst_data(seed=41), 16, "hash")
        # 4x4 hypercube: R and T replicated 4x, S 1x -> factor (4+1+4)/3 = 3
        assert result.replication_factor("J") == pytest.approx(3.0)

    def test_random_scheme_has_higher_replication(self, rst_spec):
        data = make_rst_data(seed=42)
        hashed = run_join(rst_spec, data, 16, "hash")
        randomised = run_join(rst_spec, data, 16, "random")
        assert (randomised.replication_factor("J")
                > hashed.replication_factor("J"))

    def test_skew_degree_random_is_balanced(self, rst_spec):
        result = run_join(rst_spec, make_rst_data(seed=43, n=400), 8, "random")
        assert result.skew_degree("J") < 1.3

    def test_source_counts(self, rst_spec):
        result = run_join(rst_spec, make_rst_data(seed=44, n=10), 4)
        assert result.reads == {"R": 10, "S": 10, "T": 10}


class TestMemoryBudget:
    def test_run_swallows_overflow_and_reports(self, rst_spec):
        """Over the budget the run still completes, with the full result,
        and the harness reports the overflow."""
        data = make_rst_data(seed=46, n=200)
        result = run_hyld_experiment(rst_spec, data, 2, "hybrid",
                                     memory_budget=20)
        assert not result.completed
        assert max(result.run.join_state["J1"]) > 20
        assert (Counter(result.run.results)
                == Counter(reference_join(rst_spec, data)))

    def test_skew_resilient_scheme_survives_budget_hash_cannot(self):
        """Mirrors Figure 7's 80G case: under heavy skew the Hash-Hypercube
        leaves one joiner task holding more state than the budget while
        Hybrid completes under it (the harness's verdict on the final
        ``join_state`` of an insert-only run)."""
        rng = random.Random(47)
        spec = JoinSpec(
            [
                RelationInfo("L", Schema.of("k", "v"), 300, top_freq={"k": 0.7}),
                RelationInfo("P", Schema.of("k", "w"), 30),
            ],
            [EquiCondition(("L", "k"), ("P", "k"))],
        )
        data = {
            "L": [(0 if rng.random() < 0.7 else rng.randrange(30), i)
                  for i in range(300)],
            "P": [(i, i) for i in range(30)],
        }
        budget = 120
        hashed = run_hyld_experiment(spec, data, 8, "hash",
                                     memory_budget=budget, seed=1)
        skewed_spec = JoinSpec(
            [
                RelationInfo("L", Schema.of("k", "v"), 300, skewed={"k"},
                             top_freq={"k": 0.7}),
                RelationInfo("P", Schema.of("k", "w"), 30),
            ],
            spec.conditions,
        )
        hybrid = run_hyld_experiment(skewed_spec, data, 8, "hybrid",
                                     memory_budget=budget, seed=1)
        assert max(hashed.run.join_state["J1"]) > budget
        assert not hashed.completed
        assert max(hybrid.run.join_state["J1"]) <= budget
        assert hybrid.completed
        # both run to completion: the same result either way
        assert hashed.run.query_output == hybrid.run.query_output > 0


class TestConfiguration:
    def test_unknown_scheme_rejected(self, rst_spec):
        plan = join_plan(rst_spec, make_rst_data(n=4), 4, scheme="mystery")
        with pytest.raises(ValueError,
                           match=r"unknown scheme 'mystery'.*'hash'.*'hybrid'"):
            run_plan(plan)

    def test_unknown_local_join_rejected(self, rst_spec):
        plan = join_plan(rst_spec, make_rst_data(n=4), 4, local_join="mystery")
        with pytest.raises(ValueError, match=r"unknown local join 'mystery'"
                                             r".*'dbtoaster'.*'traditional'"):
            run_plan(plan)

    def test_partitioner_instance_accepted(self, rst_spec):
        from repro.partitioning import HashHypercube
        partitioner = HashHypercube.build(rst_spec, 4)
        plan = join_plan(rst_spec, make_rst_data(n=4), 4, scheme=partitioner)
        _topology, partitioners = build_topology(plan)
        assert partitioners["J"] is partitioner

    def test_custom_local_join_factory(self, rst_spec, monkeypatch):
        """A local join registered in ``LOCAL_JOINS`` is what the plan's
        joiner tasks run."""
        from repro.engine import runner
        from repro.joins import TraditionalJoin
        built = []

        def factory(spec):
            built.append(TraditionalJoin(spec))
            return built[-1]

        monkeypatch.setitem(runner.LOCAL_JOINS, "custom", factory)
        data = make_rst_data(seed=45, n=20)
        result = run_join(rst_spec, data, 4, local_join="custom")
        assert len(built) == 4
        assert Counter(result.results) == Counter(reference_join(rst_spec, data))

    def test_describe(self, rst_spec):
        from repro.partitioning import HybridHypercube
        result = run_join(rst_spec, make_rst_data(n=4), 4)
        described = result.partitioner_info["J"]
        assert described == HybridHypercube.build(rst_spec, 4).describe()
        assert described.startswith("hypercube ")

    def test_deletes_flow_through(self, rst_spec):
        """Retracting an S row after the whole stream removes exactly the
        join outputs that row took part in."""
        from repro.storm import LocalCluster
        from tests.conftest import interleaved_stream, retract
        from tests.test_retractions import build_rst_topology

        data = make_rst_data(seed=48, n=20)
        script = list(interleaved_stream(data))
        script.append(retract("S", data["S"][0]))
        topology, results = build_rst_topology(rst_spec, script, "dbtoaster",
                                               machines=6)
        LocalCluster(topology).run(
            options=ExecutionOptions(batch_size=8).resolve())
        without = dict(data)
        without["S"] = data["S"][1:]
        retracted = (Counter(reference_join(rst_spec, data))
                     - Counter(results))
        expected = (Counter(reference_join(rst_spec, data))
                    - Counter(reference_join(rst_spec, without)))
        assert retracted == expected
        assert expected  # the retracted row took part in some output
