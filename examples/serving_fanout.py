#!/usr/bin/env python
"""Multi-tenant serving: shared resident topologies and fan-out.

Squall keeps query topologies resident so many clients can be served
from one running pipeline.  This example opens sessions for three
tenants through one :class:`~repro.serving.QueryBroker`: two tenants
issue the *same* SQL (the broker fingerprints the physical plans and
attaches both to a single resident topology), a third issues a
different query and gets its own.  A deliberately slow consumer with a
tiny ring buffer is shed with :class:`SubscriberOverflow` while the
others keep receiving deltas -- a stalled client never stalls the
pipeline.  A fourth feed is held in a ``with`` block, which releases its
seat on the way out, and is taken in bulk with ``drain()``; its
``stats()`` report what it was published and delivered.

Run:  python examples/serving_fanout.py
"""

import random

import repro
from repro.core.optimizer import Catalog
from repro.core.schema import Relation, Schema
from repro.serving import QueryBroker
from repro.streaming import SubscriberOverflow


def make_catalog(n=4000, seed=3):
    rng = random.Random(seed)
    rows = [(ts, rng.randrange(8), rng.randrange(100)) for ts in range(n)]
    catalog = Catalog()
    catalog.register(Relation("clicks", Schema.of("ts", "page", "ms"), rows))
    return catalog


def main():
    catalog = make_catalog()
    broker = QueryBroker(max_topologies=4, max_subscribers_per_tenant=8)

    by_page = "SELECT page, COUNT(*) FROM clicks GROUP BY page"
    slow_pages = ("SELECT page, COUNT(*) FROM clicks "
                  "WHERE ms > 50 GROUP BY page")

    # roomy rings: bob's feed keeps buffering while alice's is drained
    shared = repro.ExecutionOptions(batch_size=64, rate=2000.0,
                                    max_buffer=32768)
    alice = repro.connect(catalog, broker=broker, tenant="alice",
                          execution=shared)
    bob = repro.connect(catalog, broker=broker, tenant="bob",
                        execution=shared)
    carol = repro.connect(catalog, broker=broker, tenant="carol",
                          execution=shared)

    # same SQL from two tenants -> one resident topology, two feeds
    feed_a = alice.stream(by_page)
    feed_b = bob.stream(by_page)
    # different plan -> its own topology; tiny ring + no draining -> shed
    stalled = bob.stream(slow_pages, options=repro.ExecutionOptions(
        max_buffer=8, on_overflow="shed"))

    print(f"resident topologies: {broker.topology_count} "
          f"(alice and bob share {feed_a.fingerprint[:8]}...)")
    assert feed_a.fingerprint == feed_b.fingerprint
    for info in broker.topologies():
        print(f"  {info['fingerprint'][:8]}: tenants {info['tenants']}")

    # the same SQL once more, held in a with block and taken in bulk:
    # each drain() is everything buffered, under one lock acquisition
    with carol.stream(by_page) as feed_c:
        assert feed_c.tenant == "carol"
        assert feed_c.fingerprint == feed_a.fingerprint
        chunks = []
        while not feed_c.closed:
            chunk = feed_c.drain(block=True, timeout=1.0)
            if chunk:
                chunks.append(len(chunk))
        stats = feed_c.stats()
    assert not feed_c.overflowed and stats["delivered"] == sum(chunks)
    print(f"carol drained {sum(chunks)} deltas in {len(chunks)} chunks; "
          f"published {stats['published']}, backlog {stats['backlog']}, "
          f"{stats['events']} source events")

    deltas_a = sum(1 for _ in feed_a)
    deltas_b = sum(1 for _ in feed_b)
    print(f"alice received {deltas_a} deltas, bob received {deltas_b} "
          f"from the shared topology")
    print(f"final snapshot (page, clicks): {feed_a.snapshot()}")

    try:
        for _ in stalled:
            pass
    except SubscriberOverflow as exc:
        print(f"stalled consumer shed, as designed: {exc}")

    print("\nper-tenant serving metrics:")
    for tenant, counters in sorted(broker.stats()["tenants"].items()):
        print(f"  {tenant}: {counters}")
    broker.close()
    print(f"topologies after all feeds closed: {broker.topology_count}")


if __name__ == "__main__":
    main()
