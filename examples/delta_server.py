#!/usr/bin/env python
"""Live result deltas over TCP: one subscription served by DeltaServer.

The serving layer's network face.  A :class:`~repro.serving.DeltaServer`
listens on a loopback port; an asyncio client sends one JSON request
line (the SQL, a tenant and a few execution options) and reads the
SSE-style frames that come back -- one ``delta`` frame per result
change, then an ``end`` frame with the subscription's final stats.
Folding the signed deltas gives the same multiset the batch engine
computes on the same data.  A request with a misspelt option is refused
with an ``error`` frame instead of running with the knob ignored, and a
``GET /metrics.json`` line on the same port scrapes the broker's
counters.

Run:  python examples/delta_server.py
"""

import asyncio
import contextlib
import json
import random
from collections import Counter

from repro.core.optimizer import Catalog
from repro.core.schema import Relation, Schema
from repro.serving import DeltaServer
from repro.sql.catalog import SqlSession

SQL = "SELECT page, COUNT(*), SUM(clicks.ms) FROM clicks GROUP BY page"


def make_catalog(n=2000, seed=5):
    rng = random.Random(seed)
    rows = [(ts, rng.randrange(6), rng.randrange(100)) for ts in range(n)]
    catalog = Catalog()
    catalog.register(Relation("clicks", Schema.of("ts", "page", "ms"), rows))
    return catalog


async def request(port, line):
    """Send one request line; return every ``(event, payload)`` frame
    the server writes before it closes the connection."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(line.encode() + b"\n")
        await writer.drain()
        frames = []
        while True:
            event = await reader.readline()
            if not event:
                return frames
            data = await reader.readline()
            await reader.readline()  # the blank line that ends a frame
            frames.append((event.decode().split(": ", 1)[1].strip(),
                           json.loads(data.decode().split(": ", 1)[1])))
    finally:
        writer.close()
        await writer.wait_closed()


async def scrape(port, path):
    """One HTTP ``GET`` on the server's port: the response body."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(f"GET {path} HTTP/1.0\r\n\r\n".encode())
        await writer.drain()
        response = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    return response.split(b"\r\n\r\n", 1)[1]


async def main():
    catalog = make_catalog()
    server = await DeltaServer(catalog).start()
    serving = asyncio.create_task(server.serve_forever())
    try:
        frames = await request(server.port, json.dumps({
            "sql": SQL, "tenant": "alice",
            "options": {"batch_size": 64, "rate": 5000.0}}))
        folded = Counter()
        for event, payload in frames:
            if event == "delta":
                folded[tuple(payload["row"])] += payload["sign"]
        event, end = frames[-1]
        assert event == "end", frames[-1]
        snapshot = sorted(folded.elements())
        expected = sorted(SqlSession(catalog).execute(SQL).results)
        assert snapshot == expected
        print(f"alice: {len(frames) - 1} delta frames over "
              f"127.0.0.1:{server.port}, then 'end' "
              f"({end['stats']['events']} events, "
              f"{end['stats']['delivered']} deltas delivered)")
        print(f"folded deltas == batch answer: {snapshot}")

        # a misspelt knob is refused up front, not silently ignored
        ((event, error),) = await request(server.port, json.dumps({
            "sql": SQL, "options": {"batch_sise": 64}}))
        assert event == "error" and error["error"] == "bad_request"
        print(f"misspelt option refused: {error['detail']}")

        metrics = json.loads(await scrape(server.port, "/metrics.json"))
        served = {name: value for name, value in metrics.items()
                  if 'tenant="alice"' in name}
        assert served
        print(f"/metrics.json, alice's counters: {served}")
    finally:
        serving.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await serving
        await server.close()


if __name__ == "__main__":
    asyncio.run(main())
