"""Serving-layer fan-out: p99 delta latency, 1 vs 1000 subscribers.

The serving claim is that a resident topology is shared: adding
subscribers must not re-run the pipeline, only fan the same deltas out
to more per-subscriber rings.  This benchmark measures **end-to-end
delta latency** -- event pushed into a :class:`CallbackSource` until its
delta is popped from a subscriber ring -- through the real serving path
(:class:`repro.serving.QueryBroker` admission, driver thread, DeltaSink
fan-out), with the probe subscription attached *last* so its deltas
arrive only after every other ring has been extended.

The gate: min-of-rounds p99 at 1000 subscribers must stay within
``MAX_SCALING`` (2x) of the 1-subscriber p99, the rounds of the two
counts taken alternately in one module-scoped fixture.  That holds
because the latency budget is dominated by work shared across subscribers (ingest
and per-batch selection over every event), while per-subscriber
delivery is a lock + ring extend on the few rows that survive the
selection.  The workload makes that shape explicit: large micro-batches
with a selective predicate, so thousands of events are processed for
every delta delivered -- the "common computation is shared, delivery is
cheap" regime the serving layer exists for.

GC is disabled inside the measured region (collector pauses land on
arbitrary deltas and would dominate the p99 of both configurations);
one more round per count, timed through the ``benchmark`` fixture, gates
serving throughput against ``BENCH_baseline.json`` as usual.
"""

import gc
import time

import pytest

from repro.core.expressions import col
from repro.core.options import ExecutionOptions
from repro.core.schema import Relation, Schema
from repro.engine.component import PhysicalPlan, SourceComponent
from repro.serving import QueryBroker
from repro.streaming import CallbackSource

from benchmarks.conftest import record_table, timed_pedantic

N_EVENTS = 65_536
BATCH_SIZE = 4_096
#: 1-in-SELECT_EVERY events survive the selection and become deltas:
#: per-batch pipeline work (shared) stays large relative to per-delta
#: fan-out work (per subscriber)
SELECT_EVERY = 512
ROUNDS = 3
SUBSCRIBER_COUNTS = (1, 1000)
#: acceptance bound: p99 @ 1000 subscribers <= MAX_SCALING * p99 @ 1
MAX_SCALING = 2.0

def selective_plan():
    relation = Relation("events", Schema.of("ts", "flag"), [])
    return PhysicalPlan(
        sources=[SourceComponent("events", relation,
                                 predicate=col("flag").eq(1))],
        joins=[],
        aggregation=None,
    )


def measure_latencies(n_subs):
    """Push N_EVENTS through a broker-resident topology shared by
    ``n_subs`` subscribers; return sorted end-to-end latencies (seconds)
    observed at the last-attached (worst-placed) subscriber."""
    source = CallbackSource(capacity=4 * BATCH_SIZE)
    broker = QueryBroker(max_topologies=1,
                         max_subscribers_per_topology=n_subs,
                         max_subscribers_per_tenant=n_subs)
    options = ExecutionOptions(batch_size=BATCH_SIZE, executor="inline")
    plan = selective_plan()
    subscriptions = [
        broker.subscribe_plan(plan, options=options, tenant="bench",
                              sources={"events": source})
        for _ in range(n_subs)
    ]
    probe = subscriptions[-1]
    latencies = []
    gc.collect()
    gc.disable()
    try:
        pushed = 0
        while pushed < N_EVENTS:
            for _ in range(BATCH_SIZE):
                source.push(
                    (time.monotonic(), 1 if pushed % SELECT_EVERY == 0 else 0),
                    stream="events")
                pushed += 1
            while True:
                delta = probe.pop(block=True, timeout=0.05)
                if delta is None:
                    break
                latencies.append(time.monotonic() - delta.row[0])
    finally:
        gc.enable()
    source.close()
    assert broker.topology_count == 1  # all subscribers shared one topology
    broker.close()
    latencies.sort()
    return latencies


def percentile(sorted_values, q):
    return sorted_values[int(q * (len(sorted_values) - 1))]


@pytest.fixture(scope="module")
def fanout_rounds():
    """ROUNDS latency rounds per subscriber count, the counts taken in
    turn, so both p99s see the same background load; taken in two test
    cases, each saw whatever load the tests before it left."""
    rounds = {n_subs: [] for n_subs in SUBSCRIBER_COUNTS}
    for _ in range(ROUNDS):
        for n_subs in SUBSCRIBER_COUNTS:
            rounds[n_subs].append(measure_latencies(n_subs))
    return rounds


@pytest.mark.parametrize("n_subs", SUBSCRIBER_COUNTS,
                         ids=lambda n: f"subs{n}")
def test_serving_fanout_p99_latency(benchmark, fanout_rounds, n_subs):
    # the timed round gates serving throughput; the p99s come from the
    # alternated rounds
    timed, seconds = timed_pedantic(benchmark, measure_latencies, 1,
                                    args=(n_subs,))

    p99s = {n: min(percentile(latencies, 0.99) for latencies in rounds)
            for n, rounds in fanout_rounds.items()}
    p50 = min(percentile(latencies, 0.50) for latencies in fanout_rounds[n_subs])
    benchmark.extra_info["subscribers"] = n_subs
    benchmark.extra_info["p99_ms"] = round(p99s[n_subs] * 1e3, 3)
    benchmark.extra_info["p50_ms"] = round(p50 * 1e3, 3)
    benchmark.extra_info["events_per_sec"] = round(N_EVENTS / seconds)

    # every delta reached the probe
    assert len(timed) == N_EVENTS // SELECT_EVERY
    assert all(len(latencies) == N_EVENTS // SELECT_EVERY
               for latencies in fanout_rounds[n_subs])

    base = SUBSCRIBER_COUNTS[0]
    scaling = {n: p99s[n] / p99s[base] for n in SUBSCRIBER_COUNTS}
    if n_subs == SUBSCRIBER_COUNTS[-1]:
        record_table(
            "throughput_serving",
            title=(f"Serving fan-out delta latency ({N_EVENTS} events, "
                   f"batch {BATCH_SIZE}, 1/{SELECT_EVERY} selectivity, "
                   f"min of {ROUNDS} alternated rounds)"),
            headers=["subscribers", "p99 (ms)", f"vs {base} sub"],
            rows=[[n, f"{p99s[n] * 1e3:.3f}", f"{scaling[n]:.2f}x"]
                  for n in SUBSCRIBER_COUNTS],
            notes=(f"shared-topology fan-out: p99 at "
                   f"{SUBSCRIBER_COUNTS[-1]} subscribers must stay within "
                   f"{MAX_SCALING:g}x of a single subscriber"),
        )
    assert scaling[n_subs] <= MAX_SCALING, (
        f"p99 scaled {scaling[n_subs]:.2f}x from {base} to {n_subs} "
        f"subscribers (bound {MAX_SCALING:g}x): "
        + ", ".join(f"{n} subs = {p99s[n] * 1e3:.3f}ms"
                    for n in SUBSCRIBER_COUNTS))
