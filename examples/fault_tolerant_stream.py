#!/usr/bin/env python
"""Fault-tolerant continuous queries: kill a worker, keep the answer.

The streaming ``processes`` executor keeps a topology resident across
forked worker processes and checkpoints operator state incrementally
(hash-diffed, so unchanged partitions persist zero bytes).  This demo
runs a continuous join + aggregation, SIGKILLs a resident worker while
the stream is in flight, and shows the supervisor detect the death,
respawn the worker, restore the last snapshot and replay the delta
stream -- the final snapshot is byte-identical to the batch answer.

Run:  python examples/fault_tolerant_stream.py
"""

import os
import random
import signal

import repro
from repro.core.schema import Relation, Schema
from repro.streaming import stream_plan

SQL = """
    SELECT orders.region, COUNT(*), SUM(orders.amount)
    FROM customers, orders
    WHERE customers.custkey = orders.custkey
    GROUP BY orders.region
"""


def make_session(seed=29, customers=60, orders=300):
    rng = random.Random(seed)
    session = repro.connect()
    session.register(Relation(
        "customers", Schema.of("custkey", "segment"),
        [(key, rng.randrange(5)) for key in range(customers)]))
    session.register(Relation(
        "orders", Schema.of("custkey", "region", "amount"),
        [(rng.randrange(customers), rng.randrange(4), rng.randrange(1000))
         for _ in range(orders)]))
    return session


def main():
    session = make_session()
    expected = sorted(session.execute(SQL).results)
    print(f"batch answer: {len(expected)} groups")

    # replayed at 150 rows/s: the stream is still in flight at the kill
    query = stream_plan(
        session.plan(SQL),
        options=repro.ExecutionOptions(
            executor="processes", batch_size=16, checkpoint_interval=2,
            rate=150),
    )

    killed_pid = None
    deltas = 0
    for delta in query:
        deltas += 1
        if killed_pid is None and deltas >= 10:
            killed_pid = query.worker_pids()[0]
            print(f"[{deltas:4d} deltas] SIGKILL -> resident worker "
                  f"pid {killed_pid}")
            os.kill(killed_pid, signal.SIGKILL)
    print(f"stream drained: {deltas} deltas "
          f"(compensating retractions included)")

    stats = query.checkpoint_stats()
    print("\nsupervisor report")
    print(f"  checkpoints committed   {stats['commits']}")
    print(f"  partitions persisted    {stats['partitions_persisted']}")
    print(f"  partitions hash-skipped {stats['partitions_skipped']}")
    print(f"  checkpoint bytes        {stats['bytes_persisted']}")
    print(f"  recoveries              {stats['recoveries']}")
    print(f"  workers respawned       {stats['workers_respawned']}")
    print(f"  replayed log entries    {stats['replayed_entries']}")
    print(f"  replayed rows           {stats['replayed_rows']}")

    assert stats["recoveries"] >= 1, "the kill should have forced recovery"
    assert query.snapshot() == expected
    print("\nfinal snapshot == batch answer: True "
          f"({len(expected)} groups, worker {killed_pid} died mid-stream)")


if __name__ == "__main__":
    main()
