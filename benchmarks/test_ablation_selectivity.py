"""Ablation: join selectivity fluctuations (paper section 5).

An optimal pipeline of 2-way joins is very sensitive to intermediate
join selectivity, and online systems cannot cheaply reorder joins at run
time.  We stream a chain join R >< S >< T whose selectivities *flip*
half-way: in phase 1, R><S is selective and S><T explosive (so the
pipeline order (S><T first is wrong; (R><S) first is optimal); in phase
2 the roles reverse, making the initially-optimal order produce a huge
intermediate.  The multi-way hypercube join has no order to get wrong --
its work tracks the final output regardless of which pair is explosive.
"""

import random


from benchmarks.conftest import record_table
from benchmarks.harness import fmt, run_hyld_experiment, run_pipeline_experiment

from repro.core.predicates import EquiCondition, JoinSpec, RelationInfo
from repro.core.schema import Schema
from repro.joins.base import JoinSchema

MACHINES = 16
N = 400


def two_phase_data(seed=29):
    """Phase 1: y selective (many values), z explosive (few values);
    phase 2: reversed."""
    rng = random.Random(seed)
    half = N // 2

    def y_val(phase):
        return rng.randrange(200) if phase == 0 else rng.randrange(4)

    def z_val(phase):
        return rng.randrange(4) if phase == 0 else rng.randrange(200)

    data = {"R": [], "S": [], "T": []}
    for phase in (0, 1):
        for _ in range(half):
            data["R"].append((rng.randrange(50), y_val(phase)))
            data["S"].append((y_val(phase), z_val(phase)))
            data["T"].append((z_val(phase), rng.randrange(50)))
    return data


def test_selectivity_fluctuations(benchmark):
    schema_r = Schema.of("x", "y")
    schema_s = Schema.of("y", "z")
    schema_t = Schema.of("z", "t")
    spec = JoinSpec(
        [RelationInfo("R", schema_r, N), RelationInfo("S", schema_s, N),
         RelationInfo("T", schema_t, N)],
        [EquiCondition(("R", "y"), ("S", "y")),
         EquiCondition(("S", "z"), ("T", "z"))],
    )
    data = two_phase_data()

    def run():
        multiway = run_hyld_experiment(spec, data, MACHINES, "hash", seed=4)

        def pipeline(first_pair):
            if first_pair == "RS":
                spec_1 = JoinSpec(
                    [RelationInfo("R", schema_r, N), RelationInfo("S", schema_s, N)],
                    [EquiCondition(("R", "y"), ("S", "y"))],
                )
                j1 = JoinSchema.from_spec(spec_1).output_schema()
                spec_2 = JoinSpec(
                    [RelationInfo("J1", j1, N * 4), RelationInfo("T", schema_t, N)],
                    [EquiCondition(("J1", "S.z"), ("T", "z"))],
                )
            else:  # ST first
                spec_1 = JoinSpec(
                    [RelationInfo("S", schema_s, N), RelationInfo("T", schema_t, N)],
                    [EquiCondition(("S", "z"), ("T", "z"))],
                )
                j1 = JoinSchema.from_spec(spec_1).output_schema()
                spec_2 = JoinSpec(
                    [RelationInfo("J1", j1, N * 4), RelationInfo("R", schema_r, N)],
                    [EquiCondition(("J1", "S.y"), ("R", "y"))],
                )
            return run_pipeline_experiment(
                [(spec_1, "hash"), (spec_2, "hash")], data, MACHINES, seed=4,
            )

        rs_first = pipeline("RS")
        st_first = pipeline("ST")
        return multiway, rs_first, st_first

    multiway, rs_first, st_first = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    rows.append(["multi-way hypercube", fmt(multiway.runtime),
                 fmt(multiway.network), "-"])
    for label, pipeline in (("pipeline, R><S first", rs_first),
                            ("pipeline, S><T first", st_first)):
        rows.append([label, fmt(pipeline.runtime), fmt(pipeline.network),
                     fmt(pipeline.run.metrics.component_output("J1"))])
    record_table(
        "ablation_selectivity",
        "Ablation: join selectivity fluctuations (two-phase stream)",
        ["strategy", "runtime [model units]", "network tuples",
         "intermediate size"],
        rows,
        notes="Both pipeline orders shuffle a large intermediate in one of "
              "the phases; the multi-way join has no order to get wrong "
              "(inherent adaptivity to selectivity fluctuations).",
    )

    # all strategies must agree on the result
    assert (multiway.run.query_output == rs_first.run.query_output
            == st_first.run.query_output)
    # the multi-way join must beat BOTH pipeline orders: whichever order a
    # (static) online optimizer picked, a phase punishes it
    assert multiway.runtime < rs_first.runtime
    assert multiway.runtime < st_first.runtime
    # each pipeline order suffers a big intermediate in one phase
    assert rs_first.run.metrics.component_output("J1") > 2 * N
    assert st_first.run.metrics.component_output("J1") > 2 * N
