"""Throughput of the batched dataplane vs. per-tuple execution.

Runs the R-S-T chain join (the paper's running example) through
``run_plan`` at batch sizes 1, 64 and 1024 and measures end-to-end
rows/sec.  Batch size 1 is exactly the seed per-tuple engine's
interleaving; larger micro-batches amortize dispatch, grouping and
metric bookkeeping over whole batches while producing the identical
result multiset.
"""

import random
import time

from repro.core.options import ExecutionOptions
from repro.core.predicates import EquiCondition, JoinSpec, RelationInfo
from repro.core.schema import Relation, Schema
from repro.engine import JoinComponent, PhysicalPlan, SourceComponent, run_plan

from benchmarks.conftest import record_table

BATCH_SIZES = (1, 64, 1024)
N_ROWS = 2500
MACHINES = 8
REPEATS = 3


def chain_join_plan(n=N_ROWS, seed=17):
    rng = random.Random(seed)
    R = Relation("R", Schema.of("x", "y"),
                 [(rng.randrange(n), rng.randrange(n // 2)) for _ in range(n)])
    S = Relation("S", Schema.of("y", "z"),
                 [(rng.randrange(n // 2), rng.randrange(n // 2)) for _ in range(n)])
    T = Relation("T", Schema.of("z", "t"),
                 [(rng.randrange(n // 2), rng.randrange(n)) for _ in range(n)])
    spec = JoinSpec(
        [RelationInfo("R", R.schema, n), RelationInfo("S", S.schema, n),
         RelationInfo("T", T.schema, n)],
        [EquiCondition(("R", "y"), ("S", "y")),
         EquiCondition(("S", "z"), ("T", "z"))],
    )
    return PhysicalPlan(
        sources=[SourceComponent("R", R), SourceComponent("S", S),
                 SourceComponent("T", T)],
        joins=[JoinComponent("J", spec, machines=MACHINES)],
    )


def test_batched_dataplane_beats_per_tuple_throughput():
    timings = {}
    outputs = {}
    for batch_size in BATCH_SIZES:
        best = float("inf")
        for _repeat in range(REPEATS):
            plan = chain_join_plan()
            start = time.perf_counter()
            result = run_plan(plan,
                              options=ExecutionOptions(batch_size=batch_size))
            elapsed = time.perf_counter() - start
            best = min(best, elapsed)
            outputs[batch_size] = result.query_output
        timings[batch_size] = best

    baseline = 3 * N_ROWS / timings[1]
    rows = []
    for batch_size in BATCH_SIZES:
        throughput = 3 * N_ROWS / timings[batch_size]
        rows.append([
            batch_size,
            f"{timings[batch_size] * 1000:.1f}",
            f"{throughput:,.0f}",
            f"{throughput / baseline:.2f}x",
        ])
    record_table(
        "throughput_batching",
        f"Micro-batch throughput, R-S-T chain join "
        f"({N_ROWS} rows/relation, {MACHINES} joiners, best of {REPEATS})",
        ["batch size", "runtime (ms)", "rows/sec", "speedup"],
        rows,
        notes="batch_size=1 reproduces the per-tuple engine exactly; "
              "results are identical at every batch size.",
    )

    # identical results at every batch size
    assert len(set(outputs.values())) == 1
    # batched execution must be strictly faster than per-tuple
    per_tuple_throughput = 3 * N_ROWS / timings[1]
    for batch_size in (64, 1024):
        batched_throughput = 3 * N_ROWS / timings[batch_size]
        assert batched_throughput > per_tuple_throughput, (
            f"batch_size={batch_size} was not faster than per-tuple: "
            f"{batched_throughput:,.0f} vs {per_tuple_throughput:,.0f} rows/sec"
        )
