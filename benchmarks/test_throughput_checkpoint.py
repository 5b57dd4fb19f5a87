"""Throughput of the fault-tolerant streaming executor, checkpointing on.

Runs a join + grouped aggregation over replayed sources on the resident
``processes`` executor with periodic incremental checkpointing enabled
(the deployment `docs/FAULT_TOLERANCE.md` describes) and measures
sustained rows/sec end to end -- fork + restore-point commit at
startup, serialized micro-batches over the worker pipes, a hash-diffed
snapshot commit every ``checkpoint_interval`` pump rounds, and the
pre-flush barrier commit.  The timing rides the ``benchmark`` fixture,
so the CI bench job gates it (like every other throughput claim)
against ``BENCH_baseline.json`` at the 20% threshold: checkpointing
must stay cheap, not just correct.

The recorded table also surfaces the incremental-checkpoint economics
(commits, partitions persisted vs hash-skipped, bytes moved), pinning
the "unchanged partitions cost zero bytes" claim to measured numbers.
"""

import random

from repro.core.options import ExecutionOptions
from repro.core.predicates import EquiCondition, JoinSpec, RelationInfo
from repro.core.schema import Relation, Schema
from repro.engine.component import (
    AggComponent,
    JoinComponent,
    PhysicalPlan,
    SourceComponent,
)
from repro.engine.operators import count, total
from repro.streaming import stream_plan

from benchmarks.conftest import record_table, timed_pedantic

N_ROWS = 4_000
KEYS = 512
MACHINES = 4
BATCH_SIZE = 256
CHECKPOINT_INTERVAL = 2
ROUNDS = 3


def checkpointed_plan(n=N_ROWS, seed=41):
    rng = random.Random(seed)
    R = Relation("R", Schema.of("x", "k"),
                 [(rng.randrange(n), rng.randrange(KEYS))
                  for _ in range(n)])
    S = Relation("S", Schema.of("k", "v"),
                 [(rng.randrange(KEYS), rng.randrange(100))
                  for _ in range(n)])
    spec = JoinSpec(
        [RelationInfo("R", R.schema, n), RelationInfo("S", S.schema, n)],
        [EquiCondition(("R", "k"), ("S", "k"))],
    )
    return PhysicalPlan(
        sources=[SourceComponent("R", R), SourceComponent("S", S)],
        joins=[JoinComponent("J", spec, machines=MACHINES)],
        aggregation=AggComponent(
            "agg", group_positions=[1], aggregates=[count(), total(3)],
            parallelism=2),
    )


def test_throughput_streaming_checkpointed(benchmark):
    stats_samples = []

    def run():
        query = stream_plan(
            checkpointed_plan(),
            options=ExecutionOptions(
                executor="processes", batch_size=BATCH_SIZE,
                checkpoint_interval=CHECKPOINT_INTERVAL))
        query.run()
        stats_samples.append(query.checkpoint_stats())
        return query

    benchmark.extra_info["rows"] = 2 * N_ROWS
    benchmark.extra_info["checkpoint_interval"] = CHECKPOINT_INTERVAL
    _query, seconds = timed_pedantic(benchmark, run, ROUNDS)
    rows_per_sec = 2 * N_ROWS / seconds
    ckpt = stats_samples[-1]
    benchmark.extra_info["checkpoint_bytes"] = ckpt["bytes_persisted"]
    record_table(
        "throughput_checkpoint",
        f"Fault-tolerant streaming throughput, incremental checkpointing "
        f"on ({2 * N_ROWS} rows, batch {BATCH_SIZE}, commit every "
        f"{CHECKPOINT_INTERVAL} rounds, best of {ROUNDS})",
        ["rows", "runtime (ms)", "rows/sec", "commits",
         "parts persisted", "parts skipped", "ckpt bytes"],
        [[2 * N_ROWS, f"{seconds * 1000:.1f}", f"{rows_per_sec:,.0f}",
          ckpt["commits"], ckpt["partitions_persisted"],
          ckpt["partitions_skipped"], ckpt["bytes_persisted"]]],
        notes="resident forked workers; every commit hash-diffs operator "
              "state, re-persisting only changed partitions (this steady "
              "workload churns all of them; tests/test_streaming_processes"
              ".py pins the zero-byte skip); the CI gate holds throughput "
              "within 20% of the committed baseline.",
    )
    assert ckpt["commits"] >= 2       # epoch-0 + pre-flush at minimum
    assert ckpt["recoveries"] == 0    # a clean run -- pure checkpoint cost
