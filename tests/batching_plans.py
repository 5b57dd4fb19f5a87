"""Deterministic physical plans shared by the batching-equivalence tests.

The golden files under ``tests/golden/`` were captured by running these
exact plans through the seed per-tuple engine (recursive ``_dispatch``).
``test_batching_equivalence.py`` replays them through the batched
dataplane and asserts byte-identical results and metrics for
``batch_size=1`` and multiset-identical results for larger batches.
"""

from __future__ import annotations

import random

from repro.core.expressions import col
from repro.core.predicates import EquiCondition, JoinSpec, RelationInfo
from repro.core.schema import Relation, Schema
from repro.engine import (
    AggComponent,
    JoinComponent,
    PhysicalPlan,
    SourceComponent,
    count,
    total,
)


def rst_relations(seed: int = 60, n: int = 40):
    """The paper's running example R(x,y) >< S(y,z) >< T(z,t)."""
    rng = random.Random(seed)
    R = Relation("R", Schema.of("x", "y"),
                 [(rng.randrange(20), rng.randrange(6)) for _ in range(n)])
    S = Relation("S", Schema.of("y", "z"),
                 [(rng.randrange(6), rng.randrange(5)) for _ in range(n)])
    T = Relation("T", Schema.of("z", "t"),
                 [(rng.randrange(5), rng.randrange(9)) for _ in range(n)])
    spec = JoinSpec(
        [RelationInfo("R", R.schema, n), RelationInfo("S", S.schema, n),
         RelationInfo("T", T.schema, n)],
        [EquiCondition(("R", "y"), ("S", "y")),
         EquiCondition(("S", "z"), ("T", "z"))],
    )
    return R, S, T, spec


def plan_join_only() -> PhysicalPlan:
    """Plain 3-way join, parallel R readers, hybrid hypercube + DBToaster."""
    R, S, T, spec = rst_relations(seed=60)
    return PhysicalPlan(
        sources=[SourceComponent("R", R, parallelism=2),
                 SourceComponent("S", S), SourceComponent("T", T)],
        joins=[JoinComponent("J", spec, machines=6)],
    )


def plan_selection_traditional() -> PhysicalPlan:
    """Selection pushed into the R source; traditional local join on hash."""
    R, S, T, spec = rst_relations(seed=61)
    return PhysicalPlan(
        sources=[SourceComponent("R", R, predicate=col("x").lt(10)),
                 SourceComponent("S", S), SourceComponent("T", T)],
        joins=[JoinComponent("J", spec, machines=4, scheme="hash",
                             local_join="traditional")],
    )


def plan_online_agg() -> PhysicalPlan:
    """Online aggregation: result *order* depends on tuple interleaving."""
    R, S, T, spec = rst_relations(seed=64, n=15)
    return PhysicalPlan(
        sources=[SourceComponent("R", R), SourceComponent("S", S),
                 SourceComponent("T", T)],
        joins=[JoinComponent("J", spec, machines=4, output_positions=[1])],
        aggregation=AggComponent("agg", group_positions=[0],
                                 aggregates=[count()], parallelism=2,
                                 online=True),
    )


def plan_snapshot_agg() -> PhysicalPlan:
    """Offline aggregation with a predefined key domain (key-mapped routing)."""
    R, S, T, spec = rst_relations(seed=62)
    return PhysicalPlan(
        sources=[SourceComponent("R", R), SourceComponent("S", S),
                 SourceComponent("T", T)],
        joins=[JoinComponent("J", spec, machines=6,
                             output_positions=[1, 5])],  # R.y, T.t
        aggregation=AggComponent("agg", group_positions=[0],
                                 aggregates=[count(), total(1)],
                                 parallelism=3, key_domain=list(range(6))),
    )


def plan_two_joins() -> PhysicalPlan:
    """R >< S via hash, then (RS) >< T: a pipeline of two 2-way joins."""
    from repro.joins.base import JoinSchema

    R, S, T, _spec = rst_relations(seed=63)
    spec_rs = JoinSpec(
        [RelationInfo("R", R.schema, len(R)), RelationInfo("S", S.schema, len(S))],
        [EquiCondition(("R", "y"), ("S", "y"))],
    )
    rs_schema = JoinSchema.from_spec(spec_rs).output_schema()
    spec_rst = JoinSpec(
        [RelationInfo("J1", rs_schema, 100), RelationInfo("T", T.schema, len(T))],
        [EquiCondition(("J1", "S.z"), ("T", "z"))],
    )
    return PhysicalPlan(
        sources=[SourceComponent("R", R), SourceComponent("S", S),
                 SourceComponent("T", T)],
        joins=[JoinComponent("J1", spec_rs, machines=4, scheme="hash"),
               JoinComponent("J2", spec_rst, machines=4, scheme="hash")],
    )


def stream_events(n: int = 300, keys: int = 5, seed: int = 71):
    """``(ts, key, value)`` events in timestamp order."""
    rng = random.Random(seed)
    return Relation("events", Schema.of("ts", "key", "value"),
                    [(ts, rng.randrange(keys), rng.randrange(20))
                     for ts in range(n)])


def plan_stream_count_sum(window=None) -> PhysicalPlan:
    """One source straight into COUNT/SUM by key on two tasks: each
    group's input order is the source order at every batch size and
    under every executor, so the per-group delta feed is a pinned
    sequence (a join upstream would reorder a group's rows with the
    batching)."""
    return PhysicalPlan(
        sources=[SourceComponent("events", stream_events())],
        joins=[],
        aggregation=AggComponent("agg", group_positions=[1],
                                 aggregates=[count(), total(2)],
                                 parallelism=2, window=window),
    )


def plan_stream_sliding() -> PhysicalPlan:
    """The same aggregation over a sliding event-time window: every
    event is inserted and later retracted."""
    from repro.engine.windows import WindowSpec

    return plan_stream_count_sum(
        window=WindowSpec.sliding(40, ts_positions={"": 0}))


def plan_window_join() -> PhysicalPlan:
    """A >< B on k inside a sliding event-time window: two sources at
    different rates, so the relations' batches interleave differently at
    every batch size."""
    from repro.engine.windows import WindowSpec

    rng = random.Random(81)
    A = Relation("A", Schema.of("ts", "k"),
                 [(ts, rng.randrange(4)) for ts in range(90)])
    B = Relation("B", Schema.of("ts", "k"),
                 [(ts, rng.randrange(4)) for ts in range(0, 90, 2)])
    spec = JoinSpec(
        [RelationInfo("A", A.schema, len(A)),
         RelationInfo("B", B.schema, len(B))],
        [EquiCondition(("A", "k"), ("B", "k"))],
    )
    return PhysicalPlan(
        sources=[SourceComponent("A", A), SourceComponent("B", B)],
        joins=[JoinComponent(
            "J", spec, machines=2, scheme="hash",
            window=WindowSpec.sliding(12, ts_positions={"A": 0, "B": 0}))],
    )


def plan_tumbling_over_join() -> PhysicalPlan:
    """A tumbling COUNT over a join against a timestamp-less relation:
    the join re-emits event times in whatever order its inputs arrive,
    and the windows close at end of stream."""
    from repro.engine.windows import WindowSpec

    rng = random.Random(5)
    events = Relation("events", Schema.of("ts", "k"),
                      [(ts, rng.randrange(4)) for ts in range(80)])
    dims = Relation("dims", Schema.of("k", "name:str"),
                    [(k, f"k{k}") for k in range(4)])
    spec = JoinSpec(
        [RelationInfo("events", events.schema, len(events)),
         RelationInfo("dims", dims.schema, len(dims))],
        [EquiCondition(("events", "k"), ("dims", "k"))],
    )
    return PhysicalPlan(
        sources=[SourceComponent("events", events),
                 SourceComponent("dims", dims)],
        joins=[JoinComponent("J", spec, machines=2,
                             output_positions=[3, 0])],  # name, ts
        aggregation=AggComponent(
            "agg", group_positions=[0], aggregates=[count()],
            window=WindowSpec.tumbling(20, ts_positions={"": 1})),
    )


#: plans holding windowed state: ``tests/test_window_model.py`` checks
#: their answers against models at every batch size and executor
WINDOWED_PLANS = {
    "window_join": plan_window_join,
    "tumbling_over_join": plan_tumbling_over_join,
    "sliding_agg": plan_stream_sliding,
}


def retraction_script():
    """Emissions for :func:`plan_stream_count_sum`'s ``events`` source
    with compensations: every 9th event is delivered twice and the
    duplicates retracted at the end; one group dies and is reborn; one
    row is retracted ahead of its insertion (the group passes through a
    negative count)."""
    from tests.conftest import retract

    clean = [("events", row) for row in stream_events().rows]
    replayed = clean[::9]
    script = list(clean)
    script[60:60] = replayed
    script[150:150] = [("events", (150, 77, 3)),
                       retract("events", (150, 77, 3)),
                       ("events", (150, 77, 4)),
                       retract("events", (150, 88, 5)),
                       ("events", (150, 88, 5))]
    script.extend(retract("events", row) for _stream, row in replayed)
    return script


#: name -> plan builder; every entry has a golden capture
GOLDEN_PLANS = {
    "join_only": plan_join_only,
    "selection_traditional": plan_selection_traditional,
    "online_agg": plan_online_agg,
    "snapshot_agg": plan_snapshot_agg,
    "two_joins": plan_two_joins,
}


def run_result_fingerprint(result) -> dict:
    """JSON-friendly snapshot of everything the equivalence test compares."""
    return {
        "results": [list(row) for row in result.results],
        "received": {k: list(v) for k, v in result.metrics.received.items()},
        "emitted": {k: list(v) for k, v in result.metrics.emitted.items()},
        "edge_transfers": {
            f"{src}->{dst}": n
            for (src, dst), n in sorted(result.metrics.edge_transfers.items())
        },
        "reads": dict(result.reads),
        "selections": {k: list(v) for k, v in result.selections.items()},
        "join_work": {k: list(v) for k, v in result.join_work.items()},
        "join_state": {k: list(v) for k, v in result.join_state.items()},
    }
