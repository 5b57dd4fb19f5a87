"""Throughput of the continuous streaming runtime.

Runs a sliding-window grouped aggregation over a replayed event stream
through :func:`repro.streaming.stream_plan` and measures **sustained
events/sec** -- every event flows through the resident micro-batch
dataplane, updates the windowed aggregate (including expiry
retractions), and surfaces as live ``+row/-row`` deltas at the sink.

The lag assertion is the "fixed lag" half of the claim: while the query
runs, the event-time lag (newest event timestamp minus the watermark)
stays bounded by one pump round -- the runtime keeps up with the replay
instead of buffering it.  The timing is recorded through the
``benchmark`` fixture so the CI bench job gates it against
``BENCH_baseline.json``.
"""

import random

from repro.core.options import ExecutionOptions
from repro.core.schema import Relation, Schema
from repro.engine.component import AggComponent, PhysicalPlan, SourceComponent
from repro.engine.operators import count, total
from repro.engine.windows import WindowSpec
from repro.streaming import stream_plan

from benchmarks.conftest import record_table

N_EVENTS = 20_000
KEYS = 32
WINDOW = 2_000
BATCH_SIZE = 256
ROUNDS = 3


def event_relation(n=N_EVENTS, seed=23):
    rng = random.Random(seed)
    rows = [(ts, rng.randrange(KEYS), rng.randrange(100)) for ts in range(n)]
    return Relation("events", Schema.of("ts", "key", "value"), rows)


def streaming_plan():
    return PhysicalPlan(
        sources=[SourceComponent("events", event_relation())],
        joins=[],
        aggregation=AggComponent(
            "agg", group_positions=[1], aggregates=[count(), total(2)],
            parallelism=4,
            window=WindowSpec.sliding(WINDOW, ts_positions={"": 0}),
        ),
    )


def test_throughput_streaming_sliding_agg(benchmark):
    stats_samples = []

    def run():
        query = stream_plan(streaming_plan(),
                            options=ExecutionOptions(batch_size=BATCH_SIZE))
        query.run()
        stats_samples.append(query.stats())
        return query

    benchmark.extra_info["events"] = N_EVENTS
    benchmark.extra_info["window"] = WINDOW
    benchmark.pedantic(run, rounds=ROUNDS, iterations=1)

    seconds = benchmark.stats.stats.min
    events_per_sec = N_EVENTS / seconds
    final = stats_samples[-1]
    record_table(
        "throughput_streaming",
        f"Streaming runtime throughput, sliding-window aggregation "
        f"({N_EVENTS} events, window {WINDOW}, batch {BATCH_SIZE}, "
        f"best of {ROUNDS})",
        ["events", "runtime (ms)", "events/sec", "deltas", "final lag"],
        [[N_EVENTS, f"{seconds * 1000:.1f}", f"{events_per_sec:,.0f}",
          final["deltas"], final["event_time_lag"]]],
        notes="every event updates the windowed aggregate and surfaces as "
              "live result deltas; lag is event-time distance between the "
              "newest event and the watermark.",
    )
    assert final["events"] == N_EVENTS
    assert final["deltas"] > 0


def test_streaming_lag_stays_bounded():
    """While the replay runs, the watermark trails the newest event by at
    most one pump round of events -- the runtime sustains the stream at
    fixed lag rather than falling behind."""
    query = stream_plan(streaming_plan(),
                        options=ExecutionOptions(batch_size=BATCH_SIZE))
    lags = []
    deltas = 0
    for delta in query:
        deltas += 1
        if deltas % 500 == 0:
            lag = query.stats()["event_time_lag"]
            if lag is not None:
                lags.append(lag)
    assert lags, "no lag samples collected while streaming"
    # the inline pump advances the watermark every round, so lag is
    # bounded by one micro-batch of event time (+1 for the in-flight row)
    assert max(lags) <= BATCH_SIZE + 1
    assert query.stats()["event_time_lag"] <= BATCH_SIZE + 1
