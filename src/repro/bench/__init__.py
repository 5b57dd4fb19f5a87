"""Local throughput benchmarking: ``python -m repro.bench``.

Reproduces the CI bench job's numbers on your machine: runs the
CPU-bound multi-way join workload through the ``inline`` and
``processes`` execution backends and prints a speedup table, so
contributors can sanity-check a perf change without waiting for CI.

The workload is the paper's running example R(x,y) >< S(y,z) >< T(z,t)
with a final grouped aggregation: the joiner tasks carry almost all of
the compute (hypercube routing, index maintenance, delta joins), the
aggregation keeps the sink traffic tiny, so the process backend's
speedup measures real scale-out of join work across cores rather than
serialization throughput.
"""

from __future__ import annotations

import argparse
import random
import time
from typing import List, Optional, Tuple

from repro.core.options import ExecutionOptions
from repro.engine import (
    AggComponent,
    JoinComponent,
    PhysicalPlan,
    SourceComponent,
    count,
    run_plan,
)
from repro.util import usable_cores

DEFAULT_ROWS = 4000
DEFAULT_MACHINES = 8
DEFAULT_BATCH_SIZE = 512
DEFAULT_PARALLELISM = 4
DEFAULT_REPEATS = 3
#: group-by key domain of the final aggregation (keeps sink traffic tiny)
KEY_DOMAIN = 64


def multiway_join_plan(n_rows: int = DEFAULT_ROWS,
                       machines: int = DEFAULT_MACHINES,
                       seed: int = 7) -> PhysicalPlan:
    """The CPU-bound R-S-T chain join + aggregation used by the benchmarks.

    Key domains of ``n/2`` give every probe a small expected match count,
    so the joiners do real index work per tuple; ``output_positions``
    projects the join output to one column and the grouped count keeps
    the result (and the cross-worker traffic behind it) small.
    """
    rng = random.Random(seed)
    from repro.core.predicates import EquiCondition, JoinSpec, RelationInfo
    from repro.core.schema import Relation, Schema

    n = n_rows
    R = Relation("R", Schema.of("x", "y"),
                 [(rng.randrange(n), rng.randrange(n // 2)) for _ in range(n)])
    S = Relation("S", Schema.of("y", "z"),
                 [(rng.randrange(n // 2), rng.randrange(n // 2))
                  for _ in range(n)])
    T = Relation("T", Schema.of("z", "t"),
                 [(rng.randrange(n // 2), rng.randrange(KEY_DOMAIN))
                  for _ in range(n)])
    spec = JoinSpec(
        [RelationInfo("R", R.schema, n), RelationInfo("S", S.schema, n),
         RelationInfo("T", T.schema, n)],
        [EquiCondition(("R", "y"), ("S", "y")),
         EquiCondition(("S", "z"), ("T", "z"))],
    )
    return PhysicalPlan(
        sources=[SourceComponent("R", R), SourceComponent("S", S),
                 SourceComponent("T", T)],
        joins=[JoinComponent("J", spec, machines=machines,
                             output_positions=[5])],  # T.t only
        aggregation=AggComponent("agg", group_positions=[0],
                                 aggregates=[count()], parallelism=4,
                                 key_domain=list(range(KEY_DOMAIN))),
    )


def measure_backend(executor: str, parallelism: Optional[int] = None,
                    batch_size: int = DEFAULT_BATCH_SIZE,
                    n_rows: int = DEFAULT_ROWS,
                    machines: int = DEFAULT_MACHINES,
                    repeats: int = DEFAULT_REPEATS,
                    columnar: Optional[bool] = None,
                    observe: Optional[str] = None):
    """Best-of-``repeats`` runtime (seconds), the sorted result rows, and
    the last run's :class:`~repro.storm.metrics.TopologyMetrics` (path
    counters + per-component throughput).  ``observe`` runs the workload
    under the observability layer (``"metrics"`` or ``"trace"``) so its
    overhead can be priced against the unobserved row."""
    options = ExecutionOptions(
        batch_size=batch_size, executor=executor, parallelism=parallelism,
        columnar=columnar, observe=observe)
    best = float("inf")
    results: list = []
    metrics = None
    for _ in range(repeats):
        plan = multiway_join_plan(n_rows=n_rows, machines=machines)
        start = time.perf_counter()
        result = run_plan(plan, options=options)
        best = min(best, time.perf_counter() - start)
        results = sorted(result.results)
        metrics = result.metrics
    return best, results, metrics


def export_sample_trace(path: str, n_rows: int = 500,
                        machines: int = 4,
                        batch_size: int = 64) -> int:
    """Run the workload once at ``observe='trace'`` and write the trace
    buffer's JSON export to ``path`` (the CI bench job uploads this as
    an artifact); returns the number of spans exported."""
    plan = multiway_join_plan(n_rows=n_rows, machines=machines)
    result = run_plan(plan, options=ExecutionOptions(
        batch_size=batch_size, observe="trace"))
    with open(path, "w") as handle:
        handle.write(result.observer.traces.to_json())
        handle.write("\n")
    return len(result.observer.traces)


def measure_streaming(batch_size: int = DEFAULT_BATCH_SIZE,
                      n_rows: int = DEFAULT_ROWS,
                      machines: int = DEFAULT_MACHINES,
                      repeats: int = DEFAULT_REPEATS) -> Tuple[float, list]:
    """The same workload through the continuous runtime.

    Every input relation is replayed as a push source and the resident
    topology emits live result deltas; the final snapshot must equal the
    batch engines' answer, so the row doubles as an equivalence check.
    Measures the cost of running *online* (delta maintenance + watermark
    bookkeeping) against the finite inline loop."""
    from repro.streaming import stream_plan

    best = float("inf")
    results: list = []
    for _ in range(repeats):
        plan = multiway_join_plan(n_rows=n_rows, machines=machines)
        start = time.perf_counter()
        query = stream_plan(plan, options=ExecutionOptions(
            batch_size=batch_size)).run()
        best = min(best, time.perf_counter() - start)
        results = query.snapshot()
    return best, results


def measure_serving(batch_size: int = DEFAULT_BATCH_SIZE,
                    n_rows: int = DEFAULT_ROWS,
                    machines: int = DEFAULT_MACHINES,
                    repeats: int = DEFAULT_REPEATS,
                    subscribers: int = 8) -> Tuple[float, list]:
    """The same workload through the multi-tenant serving layer.

    ``subscribers`` sessions submit the identical plan to a
    :class:`~repro.serving.QueryBroker`; the broker dedupes them onto
    one resident topology and fans the delta feed out to every
    subscriber ring.  The snapshot must still equal the batch answer,
    and the runtime measures the full serving path (admission +
    fingerprinting + fan-out) against the bare streaming row."""
    from repro.serving import QueryBroker

    best = float("inf")
    results: list = []
    for _ in range(repeats):
        plan = multiway_join_plan(n_rows=n_rows, machines=machines)
        broker = QueryBroker(max_topologies=1,
                             max_subscribers_per_topology=subscribers)
        options = ExecutionOptions(batch_size=batch_size)
        start = time.perf_counter()
        subscriptions = [
            broker.subscribe_plan(plan, options=options, tenant=f"tenant{i}")
            for i in range(subscribers)
        ]
        for _ in subscriptions[-1]:  # drain one ring to exhaustion
            pass
        best = min(best, time.perf_counter() - start)
        results = subscriptions[-1].snapshot()
        broker.close()
    return best, results


def speedup_table(timings: List[Tuple[str, float]], n_rows: int,
                  machines: int) -> str:
    """ASCII table of runtime / throughput / speedup vs the first entry."""
    baseline = timings[0][1]
    total_rows = 3 * n_rows
    header = f"{'backend':<14}{'runtime (ms)':>14}{'rows/sec':>14}{'speedup':>10}"
    lines = [
        f"Multi-way join throughput ({n_rows} rows/relation, "
        f"{machines} joiners)",
        header,
        "-" * len(header),
    ]
    for label, seconds in timings:
        lines.append(
            f"{label:<14}{seconds * 1000:>14.1f}"
            f"{total_rows / seconds:>14,.0f}"
            f"{baseline / seconds:>9.2f}x"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the throughput benchmarks locally and print an "
                    "inline vs processes speedup table (the CI bench "
                    "job's numbers, reproduced on this machine).",
    )
    parser.add_argument("--rows", type=int, default=DEFAULT_ROWS,
                        help="rows per input relation (default %(default)s)")
    parser.add_argument("--machines", type=int, default=DEFAULT_MACHINES,
                        help="joiner parallelism (default %(default)s)")
    parser.add_argument("--batch-size", type=int, default=DEFAULT_BATCH_SIZE,
                        help="micro-batch size (default %(default)s)")
    parser.add_argument("--parallelism", type=int, default=DEFAULT_PARALLELISM,
                        help="parallel workers (default %(default)s)")
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                        help="best-of repeats per backend (default %(default)s)")
    parser.add_argument("--threads", action="store_true",
                        help="also measure the threads backend (GIL-bound "
                             "for this pure-Python workload)")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="also run once at observe='trace' and write "
                             "the trace buffer's JSON export to FILE")
    args = parser.parse_args(argv)

    # inline is measured on both paths: row (columnar=False) first as the
    # speedup baseline, then columnar -- their result multisets must match
    backends: List[Tuple[str, Optional[int], Optional[bool]]] = [
        ("inline/row", None, False),
        ("inline/col", None, True),
    ]
    if args.threads:
        backends.append(("threads", args.parallelism, None))
    backends.append(("processes", args.parallelism, None))

    timings: List[Tuple[str, float]] = []
    paths: List[Tuple[str, str]] = []
    reference: Optional[list] = None
    for label, parallelism, columnar in backends:
        executor = label.split("/")[0].split(" ")[0]
        if parallelism is not None:
            label = f"{label} x{parallelism}"
        seconds, results, metrics = measure_backend(
            executor, parallelism=parallelism, batch_size=args.batch_size,
            n_rows=args.rows, machines=args.machines, repeats=args.repeats,
            columnar=columnar)
        if reference is None:
            reference = results
        elif results != reference:
            print(f"ERROR: {label} results differ from inline")
            return 1
        timings.append((label, seconds))
        if metrics is not None:
            joiner_rate = metrics.rows_per_second("J")
            paths.append((label, f"{metrics.path_summary()}; "
                                 f"joiner input {joiner_rate:,.0f} rows/sec"))

    seconds, results = measure_streaming(
        batch_size=args.batch_size, n_rows=args.rows,
        machines=args.machines, repeats=args.repeats)
    if results != reference:
        print("ERROR: streaming snapshot differs from inline")
        return 1
    timings.append(("streaming", seconds))

    seconds, results = measure_serving(
        batch_size=args.batch_size, n_rows=args.rows,
        machines=args.machines, repeats=args.repeats)
    if results != reference:
        print("ERROR: serving snapshot differs from inline")
        return 1
    timings.append(("serving x8", seconds))

    # observability overhead vs the unobserved inline/row baseline
    obs_overheads: List[Tuple[str, float]] = []
    for level in ("metrics", "trace"):
        seconds, results, _metrics = measure_backend(
            "inline", batch_size=args.batch_size, n_rows=args.rows,
            machines=args.machines, repeats=args.repeats, columnar=False,
            observe=level)
        if results != reference:
            print(f"ERROR: observe={level} results differ from inline")
            return 1
        timings.append((f"obs={level}", seconds))
        obs_overheads.append((level, seconds))

    print(speedup_table(timings, args.rows, args.machines))
    print()
    row_seconds = timings[0][1]
    print("Observability overhead (vs inline/row): " + ", ".join(
        f"{level} {seconds / row_seconds - 1.0:+.1%}"
        for level, seconds in obs_overheads))
    print()
    print("Execution paths (which kernel actually ran):")
    for label, summary in paths:
        print(f"  {label:<14}{summary}")
    if args.trace_out:
        spans = export_sample_trace(args.trace_out)
        print(f"wrote {spans} spans (observe='trace' sample run) to "
              f"{args.trace_out}")
    cores = usable_cores()
    if cores < 2:
        print(f"(single-core machine: the process backend cannot beat "
              f"inline here; CI runs this on {DEFAULT_PARALLELISM}+ cores)")
    return 0
