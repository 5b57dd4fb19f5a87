"""DeltaServer: an asyncio push front-end over the QueryBroker.

The network face of the serving layer: clients connect over TCP, send
one JSON request line, and receive a live SSE-style stream of result
deltas from the shared resident topology -- many clients watching the
same continuous query cost the broker one topology plus N rings.

Protocol (newline-delimited, UTF-8):

- request: one JSON object line::

      {"sql": "SELECT ...", "tenant": "alice",
       "options": {"batch_size": 64, "max_buffer": 1024}}

  ``tenant`` and ``options`` (a subset of
  :class:`~repro.core.options.ExecutionOptions` fields) are optional.

- response: SSE-style frames, each ``event: <kind>`` + ``data: <json>``
  + blank line.  Kinds:

  - ``delta`` -- ``{"sign": +1|-1, "row": [...]}``, one per result
    change;
  - ``end`` -- the query completed (final stats attached);
  - ``error`` -- admission refusal, overflow shedding, or a bad
    request; terminal.

A request line starting with ``GET `` is served as a one-shot HTTP
metrics scrape instead: ``GET /metrics`` returns the broker's current
samples in Prometheus text exposition format (v0.0.4), ``GET
/metrics.json`` the same samples as a flat JSON object; anything else
404s.  The samples cover per-tenant serving counters and, under a
``fingerprint`` label per resident topology, everything in that
topology's registry: its topology/stream/checkpoint counters with the
``partition_skew`` gauge and -- for topologies running with
``observe='metrics'``/``'trace'`` -- the observer's latency histograms
and queue-depth gauges.

The blocking subscription drains run in the event loop's default
executor (`run_in_executor`), so one stalled client never blocks the
loop; each wake-up takes everything the ring buffered and writes its
frames with one flush per ``FLUSH_FRAMES`` of them (a usual chunk is
one flush; an unbounded ring's backlog still meets the transport's
backpressure slice by slice).  Each client's ring bounds its memory
and the broker sheds it on overflow exactly as for in-process
subscribers.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
from typing import Optional

from repro.core.options import ExecutionOptions
from repro.serving.broker import AdmissionError, QueryBroker
from repro.sql.catalog import SqlSession
from repro.streaming.deltas import SubscriberOverflow

#: delta frames written between two ``writer.drain()`` calls
FLUSH_FRAMES = 256


def _frame(kind: str, payload: dict) -> bytes:
    return (f"event: {kind}\ndata: {json.dumps(payload)}\n\n").encode()


def parse_options(raw: Optional[dict]) -> ExecutionOptions:
    """Build ExecutionOptions from a request's ``options`` object,
    rejecting unknown fields (a typo'd knob must not silently noop)."""
    if not raw:
        return ExecutionOptions()
    known = {field.name for field in dataclasses.fields(ExecutionOptions)}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(
            f"unknown execution options {sorted(unknown)}; "
            f"known: {sorted(known)}")
    return ExecutionOptions(**raw)


class DeltaServer:
    """Serve live query deltas to TCP clients through one broker.

    ``session_factory`` builds the per-connection
    :class:`~repro.sql.catalog.SqlSession` (bound to this server's
    broker); the default factory shares ``catalog`` across connections,
    which is what makes cross-client topology dedupe effective.
    """

    def __init__(self, catalog, broker: Optional[QueryBroker] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 poll_timeout: float = 0.1):
        self.catalog = catalog
        self.broker = broker or QueryBroker()
        self.host = host
        self.port = port
        self.poll_timeout = poll_timeout
        self._server: Optional[asyncio.AbstractServer] = None

    def session(self, tenant: str = "default") -> SqlSession:
        return SqlSession(self.catalog, broker=self.broker, tenant=tenant)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "DeltaServer":
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def close(self):
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.broker.close(wait=False)

    async def __aenter__(self) -> "DeltaServer":
        return await self.start()

    async def __aexit__(self, *exc):
        await self.close()
        return False

    async def serve_forever(self):
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    # -- per-connection protocol -------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter):
        subscription = None
        try:
            line = await reader.readline()
            if not line:
                return
            if line.startswith(b"GET "):
                await self._serve_http(writer, line)
                return
            try:
                request = json.loads(line)
                sql = request["sql"]
                tenant = request.get("tenant", "default")
                options = parse_options(request.get("options"))
            except (ValueError, KeyError, TypeError) as exc:
                writer.write(_frame("error", {
                    "error": "bad_request", "detail": str(exc)}))
                await writer.drain()
                return
            try:
                subscription = self.session(tenant).stream(
                    sql, options=options)
            except AdmissionError as exc:
                writer.write(_frame("error", {
                    "error": "admission_refused", "detail": str(exc)}))
                await writer.drain()
                return
            except Exception as exc:  # parse / plan errors
                writer.write(_frame("error", {
                    "error": "bad_query",
                    "detail": f"{type(exc).__name__}: {exc}"}))
                await writer.drain()
                return
            await self._push_deltas(writer, subscription)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            if subscription is not None:
                subscription.detach()
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _serve_http(self, writer: asyncio.StreamWriter,
                          request_line: bytes):
        """One-shot HTTP scrape endpoint (``/metrics``, ``/metrics.json``).

        Minimal HTTP/1.0: parse the path off the request line, render
        the broker's current samples, respond, close.  Request headers
        (if any) are left unread -- the connection is torn down either
        way, which every scrape client handles."""
        from repro.obs.prometheus import render
        from repro.obs.registry import as_dict

        parts = request_line.decode("latin-1").split()
        path = parts[1] if len(parts) > 1 else "/"
        samples = self.broker.collect()
        if path == "/metrics":
            body = render(samples).encode()
            content_type = "text/plain; version=0.0.4; charset=utf-8"
            status = "200 OK"
        elif path == "/metrics.json":
            body = json.dumps(as_dict(samples), sort_keys=True).encode()
            content_type = "application/json"
            status = "200 OK"
        else:
            body = b"not found\n"
            content_type = "text/plain; charset=utf-8"
            status = "404 Not Found"
        writer.write(
            f"HTTP/1.0 {status}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n".encode() + body)
        await writer.drain()

    async def _push_deltas(self, writer: asyncio.StreamWriter, subscription):
        loop = asyncio.get_running_loop()
        while True:
            try:
                # the drain blocks (for its first delta) in a worker
                # thread, not the event loop; the timeout keeps the
                # coroutine cancellable
                deltas = await loop.run_in_executor(
                    None, lambda: subscription.drain(
                        block=True, timeout=self.poll_timeout))
            except SubscriberOverflow as exc:
                writer.write(_frame("error", {
                    "error": "subscriber_overflow", "detail": str(exc)}))
                await writer.drain()
                return
            if deltas:
                # one executor hop per buffered chunk, one flush per
                # slice of it, so a large backlog is encoded only as fast
                # as the transport's backpressure lets it out
                for start in range(0, len(deltas), FLUSH_FRAMES):
                    writer.writelines([
                        _frame("delta", {"sign": delta.sign,
                                         "row": list(delta.row)})
                        for delta in deltas[start:start + FLUSH_FRAMES]])
                    await writer.drain()
                continue
            if subscription.closed:
                writer.write(_frame("end", {"stats": _jsonable(
                    subscription.stats())}))
                await writer.drain()
                return


def _jsonable(value):
    """Best-effort JSON projection of a stats dict."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)
