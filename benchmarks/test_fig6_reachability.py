"""Figure 6: multi-way join vs pipeline of 2-way joins (3-Reachability).

Paper (section 7.2): on a 0.5% sample of the Host WebGraph (10.2M arcs),
the 6x6 Hash-Hypercube multi-way join transfers 13 x 10.2M = 132.6M
tuples while the 2-way pipeline transfers 3 x 10.2M + 130M intermediate =
160.6M, making the multi-way join 1.43x faster.  The crossover driver is
the intermediate result (|W><W| ~ 13x the input), which the multi-way
join never ships.
"""

import pytest

from benchmarks.conftest import record_table
from benchmarks.harness import (
    JOIN,
    fmt,
    run_hyld_experiment,
    run_pipeline_experiment,
)

from repro.core.predicates import EquiCondition, JoinSpec, RelationInfo
from repro.joins.base import JoinSchema

MACHINES = 36


def three_reach_spec(n_arcs, schema):
    infos = [
        RelationInfo("W1", schema, n_arcs),
        RelationInfo("W2", schema, n_arcs),
        RelationInfo("W3", schema, n_arcs),
    ]
    return JoinSpec(infos, [
        EquiCondition(("W1", "ToUrl"), ("W2", "FromUrl")),
        EquiCondition(("W2", "ToUrl"), ("W3", "FromUrl")),
    ])


def test_fig6_multiway_vs_pipeline(webgraph_sample, benchmark):
    arcs = webgraph_sample.rows
    schema = webgraph_sample.schema
    spec = three_reach_spec(len(arcs), schema)
    data = {"W1": arcs, "W2": arcs, "W3": arcs}

    def run_both():
        multiway = run_hyld_experiment(spec, data, MACHINES, "hash", seed=3)
        spec_12 = JoinSpec(
            [RelationInfo("W1", schema, len(arcs)),
             RelationInfo("W2", schema, len(arcs))],
            [EquiCondition(("W1", "ToUrl"), ("W2", "FromUrl"))],
        )
        j1_schema = JoinSchema.from_spec(spec_12).output_schema()
        spec_123 = JoinSpec(
            [RelationInfo("J1", j1_schema, len(arcs) * 10),
             RelationInfo("W3", schema, len(arcs))],
            [EquiCondition(("J1", "W2.ToUrl"), ("W3", "FromUrl"))],
        )
        pipeline = run_pipeline_experiment(
            [(spec_12, "hash"), (spec_123, "hash")], data, MACHINES, seed=3,
        )
        return multiway, pipeline

    multiway, pipeline = benchmark.pedantic(run_both, rounds=1, iterations=1)

    # both strategies compute the same number of 3-paths
    pipeline_outputs = pipeline.run.query_output
    assert multiway.run.query_output == pipeline_outputs

    multiway_network = multiway.network
    pipeline_network = pipeline.network
    intermediate = pipeline.run.metrics.component_output("J1")
    speedup = pipeline.runtime / multiway.runtime

    rows = [
        ["multi-way (Hash/Hybrid-Hypercube)", fmt(multiway.runtime),
         fmt(multiway_network), multiway.partitioning],
        ["pipeline of 2-way joins", fmt(pipeline.runtime),
         fmt(pipeline_network), f"hash x2, intermediate |W><W| = {intermediate:,}"],
        ["multi-way speedup", f"{speedup:.2f}x (paper: 1.43x)", "", ""],
    ]
    record_table(
        "fig6_reachability",
        f"Figure 6: 3-Reachability on a WebGraph sample "
        f"({len(arcs):,} arcs, {MACHINES}J)",
        ["strategy", "runtime [model units]", "network tuples", "details"],
        rows,
        notes=f"Intermediate/input ratio = {intermediate / len(arcs):.1f}x "
              "(paper: ~12.7x). The multi-way join avoids shuffling it.",
    )

    # paper shapes: the hypercube ships less than the pipeline (which must
    # shuffle the big intermediate), and wins end to end
    assert intermediate > 5 * len(arcs), "intermediate must dominate the input"
    assert multiway_network < pipeline_network
    assert speedup > 1.1, "multi-way must beat the pipeline (paper: 1.43x)"

    # paper's replication arithmetic: 6x6 hypercube -> factor 6+6+1 = 13
    replication = multiway.run.replication_factor(JOIN)
    assert replication == pytest.approx(13 / 3, rel=0.05), \
        "per-relation replication 6/1/6 averages to 13/3 over equal inputs"
