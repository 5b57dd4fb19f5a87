#!/usr/bin/env python
"""Window semantics: tumbling and sliding joins over a live stream.

Squall supports full-history *and* window semantics, implementing
tumbling and sliding windows by adding expiration logic on top of the
full-history engine (paper section 2).  This example simulates an
algorithmic-trading-style stream: orders and executions that must join
only when close in time.  Each join runs continuously (``stream_plan``)
over two event-time sources; their watermarks let the joiners drop
state that no later event can match, and a late execution -- behind
what its source already delivered -- is dropped and counted, never
joined.  Every answer is checked against a nested-loop model.

Run:  python examples/windowed_stream.py
"""

import random
from collections import Counter

from repro.core.optimizer import OptimizerOptions
from repro.core.options import ExecutionOptions
from repro.core.predicates import EquiCondition, JoinSpec, RelationInfo
from repro.core.schema import Relation, Schema
from repro.engine.component import JoinComponent, PhysicalPlan, SourceComponent
from repro.engine.windows import WindowClause, WindowSpec
from repro.sql.catalog import SqlSession
from repro.streaming import CallbackSource, stream_plan

SCHEMA = Schema.of("ts", "symbol:str", "price")


def make_events(n=400, symbols=6, seed=11):
    """``{relation: rows}``, each relation in timestamp order."""
    rng = random.Random(seed)
    events = {"orders": [], "execs": []}
    for ts in range(n):
        relation = "orders" if rng.random() < 0.5 else "execs"
        events[relation].append(
            (ts, f"SYM{rng.randrange(symbols)}", rng.randrange(100, 200)))
    return events


def window_plan(window: WindowSpec) -> PhysicalPlan:
    spec = JoinSpec(
        [RelationInfo(name, SCHEMA, 200) for name in ("orders", "execs")],
        [EquiCondition(("orders", "symbol"), ("execs", "symbol"))],
    )
    return PhysicalPlan(
        sources=[SourceComponent(name, Relation(name, SCHEMA, []))
                 for name in ("orders", "execs")],
        joins=[JoinComponent("J", spec, machines=2, scheme="hash",
                             window=window)],
    )


def model(window: WindowSpec, orders, execs):
    """Every same-symbol pair the window predicate admits."""
    def admitted(a, b):
        if window.kind == "tumbling":
            return a // window.size == b // window.size
        return abs(a - b) < window.size

    return sorted(order + execution for order in orders for execution in execs
                  if order[1] == execution[1]
                  and admitted(order[0], execution[0]))


def run(window: WindowSpec, events, late=None):
    """Stream ``events`` through the windowed join; ``late``, an
    execution pushed after every other one, arrives behind its source."""
    def source(name, rows):
        return CallbackSource(((name, row) for row in rows), ts_position=0)

    sources = {"orders": source("orders", events["orders"]),
               "execs": source("execs", events["execs"] + ([late] if late
                                                          else []))}
    query = stream_plan(window_plan(window), sources=sources,
                        options=ExecutionOptions(batch_size=16)).run()
    joiners = query.cluster.cluster.tasks("J")
    assert query.snapshot() == model(window, events["orders"],
                                     events["execs"])
    return (len(query.snapshot()),
            sum(joiner.state_size() for joiner in joiners),
            sum(joiner.state.expired_tuples for joiner in joiners),
            query.stats())


def main():
    events = make_events()
    print(f"streaming {sum(map(len, events.values()))} order/execution "
          f"events (timestamps are the first column)\n")
    ts_positions = {"orders": 0, "execs": 0}
    for kind in ("tumbling", "sliding"):
        for size in (100, 25):
            window = (WindowSpec.tumbling if kind == "tumbling"
                      else WindowSpec.sliding)(size, ts_positions)
            matched, held, expired, stats = run(window, events)
            print(f"{kind} window of {size} time units:")
            print(f"  matches: {matched} (= the model), state left: "
                  f"{held} entries, expired rows: {expired}, watermark: "
                  f"{stats['watermark']}")

    late = (5, "SYM0", 150)  # an execution behind everything its source sent
    window = WindowSpec.sliding(25, ts_positions)
    matched, _held, _expired, stats = run(window, events, late=late)
    print(f"\nsliding window of 25 with a late execution at ts 5: "
          f"matches {matched} (= the model without it), late rows "
          f"{stats['late_rows']}")

    # a tumbling aggregation through SQL: a window's counts are emitted
    # once the watermark passes its end
    session = SqlSession(options=OptimizerOptions(
        machines=2, agg_window=WindowClause("tumbling", 100, "execs.ts")))
    session.register(Relation("execs", SCHEMA, events["execs"]))
    query = session.stream("SELECT execs.symbol, COUNT(*) FROM execs "
                           "GROUP BY execs.symbol",
                           options=ExecutionOptions(batch_size=16)).run()
    expected = Counter((ts // 100, symbol) for ts, symbol, _price
                       in events["execs"])
    assert query.snapshot() == sorted(
        key + (n,) for key, n in expected.items())
    print(f"\ntumbling COUNT(*) per symbol and 100 time units: "
          f"{len(query.snapshot())} (window, symbol) rows (= the model)")

    print("\nSmaller windows match fewer pairs and keep less state: a "
          "stored row goes once\nthe other relation's watermark has "
          "passed its window, through the same\nDBToaster views that "
          "serve the full-history engine.")


if __name__ == "__main__":
    main()
