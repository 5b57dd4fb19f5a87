"""Compile physical plans for continuous execution.

Reuses the batch engine's Squall-to-Storm translation
(:func:`repro.engine.runner.build_topology`) with three streaming
substitutions:

- every source component becomes a :class:`~repro.streaming.sources.\
ReplaySource` pump over the stored relation (event-time timestamps from
  the plan's window specs, optional rate limit) -- or any
  :class:`PushSource` the caller supplies;
- the aggregation bolt becomes :class:`DeltaAggBolt`, which emits a
  live ``(+row / -row)`` delta -- a row with its sign -- for every
  group-state change instead of waiting for end of stream;
- the sink becomes a :class:`~repro.streaming.deltas.DeltaSink` that
  consumers subscribe to.

The invariant pinned by ``tests/test_streaming_equivalence.py``: once
the sources are exhausted, :meth:`StreamingQuery.snapshot` equals
``sorted(run_plan(plan).results)`` -- the continuous engine is the batch
engine plus incrementality, never a different answer.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterator, List, Optional

from repro.core.columnar import ColumnBatch, ColumnEmissions, sign_runs
from repro.core.options import ExecutionOptions
from repro.engine.component import PhysicalPlan
from repro.engine.runner import AggBolt, build_topology, source_operators
from repro.storm.executor import ExecutorError
from repro.storm.topology import Spout
from repro.streaming.cluster import StreamingCluster
from repro.streaming.deltas import Delta, DeltaSink, Subscription
from repro.streaming.sources import PushSource, ReplaySource


class _IdleSpout(Spout):
    """Placeholder spout: the pump feeds this component's rows."""

    def next_tuple(self):
        return None


class DeltaAggBolt(AggBolt):
    """Aggregation task that publishes state changes as live deltas.

    The batch :class:`AggBolt` holds snapshot-mode results until
    ``finish()``; a long-lived query never finishes, so this variant
    turns every group-state change into an immediate retraction of the
    group's previous output row plus an insertion of the new one.  The
    delta stream therefore maintains exactly the current groups at the
    sink -- the final snapshot is byte-for-byte the batch engine's
    answer, it just exists *at every moment along the way*.

    One ``execute_batch`` / ``advance_watermark`` call emits its changes
    as **one ordered changelog**: a :class:`ColumnBatch` of the changed
    output rows whose ``signs`` put ``-old`` directly ahead of its
    ``+new``, in the order the input rows changed their groups, on the
    component's own stream.  Being one batch, the whole changelog routes
    as one micro-batch (one sink call, one pipe message) however many
    groups it touches.  The order inside the batch is the contract: the
    sink ignores a ``-row`` it does not hold, so a retraction moved
    ahead of the insertion it undoes would be lost.  Nothing is netted
    -- a group changed twice in one batch publishes both ``-old/+new``
    pairs, at every batch size the same per-group feed.

    A ``ColumnBatch`` input is consumed in one vectorised kernel
    (:meth:`~repro.engine.operators.Aggregation.consume_changelog`)
    whose rows and signs are exactly the row loop's, with the same
    ``_published`` and group state; a signed batch goes in whole.  A
    sliding window first turns the batch into the signed sequence of
    expiries and arrivals its row loop applies
    (:meth:`~repro.engine.windows.SlidingWindowedAggregation.\
consume_changelog`).  What the kernel cannot match bit for bit
    (multi-column or non-``int64`` keys, sums that could pass 2^53,
    object columns; for a window, small, out-of-order, late or signed
    batches) takes the row loop, one same-sign run (:func:`sign_runs`)
    at a time.

    Modes: unwindowed and sliding-window snapshot aggregations get the
    upsert treatment (sliding expirations -- arrival- or
    watermark-driven -- also emit deltas); tumbling windows and online
    aggregations already emit incrementally in batch mode and keep their
    semantics unchanged.

    >>> from repro.core.columnar import ColumnBatch
    >>> from repro.engine.component import AggComponent
    >>> from repro.engine.operators import count, total
    >>> from repro.engine.windows import WindowSpec
    >>> bolt = DeltaAggBolt(AggComponent(
    ...     "agg", group_positions=[0], aggregates=[count()]))
    >>> changes = bolt.execute_batch("J", "J", [("a",), ("b",), ("a",)])
    >>> changes.stream
    'agg'
    >>> list(zip(changes.batch.signs.tolist(), changes.batch.to_rows()))
    [(1, ('a', 1)), (1, ('b', 1)), (-1, ('a', 1)), (1, ('a', 2))]

    ``-old`` goes directly ahead of its ``+new``.  A sliding window of
    2 time units over ``(ts, key, value)``: from ``ts = 2`` on, every
    arrival first expires the row at ``ts - 2``, so a group's changes
    alternate between an expiry and an arrival:

    >>> sliding = DeltaAggBolt(AggComponent(
    ...     "agg", group_positions=[1], aggregates=[count(), total(2)],
    ...     window=WindowSpec.sliding(2, {"": 0})))
    >>> events = ColumnBatch.from_rows([(ts, 0, ts) for ts in range(32)])
    >>> batch = sliding.execute_batch("events", "events", events).batch
    >>> list(zip(batch.signs.tolist(), batch.to_rows()))[:5]
    ... # doctest: +NORMALIZE_WHITESPACE
    [(1, (0, 1, 0)), (-1, (0, 1, 0)), (1, (0, 2, 1)),
     (-1, (0, 2, 1)), (1, (0, 1, 1))]
    >>> sliding.sliding_state.expired_rows
    30
    """

    def __init__(self, component):
        super().__init__(component)
        self._upsert = not component.online and (
            component.window is None or component.window.kind == "sliding"
        )
        #: unwindowed upsert: group key -> the group's row as last
        #: published -- what the sink holds for the group, so a change
        #: costs one lookup instead of two reads of the aggregation state
        self._published: Dict[tuple, tuple] = {}

    def _emit(self, changes: ColumnBatch):
        return ColumnEmissions(self.component.name, changes) if changes else []

    @staticmethod
    def _changelog(changes) -> ColumnBatch:
        """``(old, new)`` output-row pairs (None = group absent) as one
        ordered changelog batch: ``-old`` ahead of ``+new``."""
        signed = [(sign, row) for old, new in changes
                  for sign, row in ((-1, old), (1, new)) if row is not None]
        return ColumnBatch.from_rows([row for _sign, row in signed],
                                     [sign for sign, _row in signed])

    def execute_batch(self, source: str, stream: str, rows):
        if not self._upsert:
            return super().execute_batch(source, stream, rows)
        changes = None
        if isinstance(rows, ColumnBatch):
            changes = (
                self.sliding_state.consume_changelog(rows)
                if self.sliding_state is not None
                else self.aggregation.consume_changelog(rows, self._published))
        if changes is None:
            parts = [self._changes(run, sign)
                     for sign, run in sign_runs(rows)]
            changes = parts[0] if len(parts) == 1 \
                else ColumnBatch.concat(parts)
        return self._emit(changes)

    def _changes(self, rows, sign: int) -> ColumnBatch:
        """The changelog of one same-sign run, row by row."""
        if self.sliding_state is not None:
            # expiry is per arrival, so the window consumes row by row
            consume = self.sliding_state.consume
            return self._changelog(
                [change for row in rows for change in consume(row, sign)])
        aggregation = self.aggregation
        if isinstance(rows, ColumnBatch):
            rows = rows.to_rows()
        n_group = len(aggregation.group_positions)
        published = self._published
        changes = []
        # consume_batch hands back the group's output row after each
        # input row, None once the group's input rows cancelled out
        outputs = aggregation.consume_batch(rows, sign, dead_as_none=True)
        for row, new in zip(rows, outputs):
            if new is None:
                changes.append((published.pop(aggregation.key_of(row)), None))
                continue
            key = new[:n_group]
            old = published.get(key)
            if new != old:
                published[key] = new
                changes.append((old, new))
        return self._changelog(changes)

    def advance_watermark(self, watermark):
        if self._upsert and self.sliding_state is not None:
            window = self.component.window
            if window.ts_positions is None:
                return []
            return self._emit(self._changelog(
                self.sliding_state.advance_time(watermark)))
        return super().advance_watermark(watermark)

    def finish(self):
        if self._upsert:
            return []  # the delta stream already carries the current groups
        return super().finish()


def _plan_ts_positions(plan: PhysicalPlan) -> Dict[str, int]:
    """Event-time columns per source, read off the plan's window specs.

    Join windows name their input relations directly.  An aggregation
    window's position refers to the *aggregation input* row; it maps back
    to a source column only in single-relation plans (source rows feed
    the aggregation unchanged) -- join plans must pass ``ts_positions``
    explicitly (the SQL/functional front-ends resolve the event-time
    column and do)."""
    # window positions index the rows the *operator* sees; they map back
    # to the replayed raw rows only for sources without a co-located
    # projection (the pump applies the projection after polling)
    unprojected = {
        source.name for source in plan.sources if source.projection is None
    }
    positions: Dict[str, int] = {}
    for join in plan.joins:
        window = join.window
        if window is not None and window.ts_positions is not None:
            for rel_name, position in window.ts_positions.items():
                if rel_name in unprojected:
                    positions[rel_name] = position
    aggregation = plan.aggregation
    if (aggregation is not None and not plan.joins
            and aggregation.window is not None
            and aggregation.window.ts_positions is not None):
        position = next(iter(aggregation.window.ts_positions.values()))
        for source in plan.sources:
            if source.projection is None:
                positions.setdefault(source.name, position)
    return positions


def agg_window_ts_positions(catalog, scans, clause) -> Dict[str, int]:
    """Resolve a front-end :class:`WindowClause`'s event-time column to
    ``{source component name: raw column position}`` for the replay
    sources' watermarks.  Shared by the SQL and functional front-ends."""
    if clause is None or clause.ts_column is None:
        return {}
    from repro.core.logical import resolve_column

    schemas = {scan.alias: catalog.get(scan.table).schema for scan in scans}
    alias, attr = resolve_column(clause.ts_column, schemas)
    return {alias: schemas[alias].index_of(attr)}


def stream_plan(plan: PhysicalPlan,
                sources: Optional[Dict[str, PushSource]] = None,
                ts_positions: Optional[Dict[str, int]] = None,
                clock: Callable[[], float] = time.monotonic,
                options: Optional[ExecutionOptions] = None,
                fault_injector=None,
                checkpoint_dir: Optional[str] = None
                ) -> "StreamingQuery":
    """Compile a physical plan into a continuously running query.

    Execution knobs ride on ``options``
    (:class:`~repro.core.options.ExecutionOptions`).  Unset knobs
    resolve exactly as in the batch engine -- in particular
    ``columnar=None`` turns the columnar path on at ``batch_size >= 64``
    (both engines go through ``ExecutionOptions.resolve``).  The
    streaming default batch size is 64.

    ``options.executor='processes'`` runs the query on resident forked
    workers with incremental checkpointing and crash recovery
    (``options.parallelism`` workers, a checkpoint every
    ``options.checkpoint_interval`` full pump rounds; see
    ``docs/FAULT_TOLERANCE.md``).  ``fault_injector`` arms deterministic
    worker kills (:class:`~repro.storm.failures.FaultInjector`) and
    ``checkpoint_dir`` persists snapshots to disk; both are
    processes-executor extras.  The ``inline`` executor has no
    parallelism knob -- it runs every task in the calling thread.

    By default every source relation is replayed through a
    :class:`ReplaySource` at ``options.rate`` rows per second (None = as
    fast as the pipeline drains), with event-time watermarks on the
    columns named by the plan's window specs (override or extend via
    ``ts_positions``: source name -> raw column position).  Pass
    ``sources`` to substitute real push sources for some or all
    relations.

    With ``options.columnar`` on, each poll becomes one
    :class:`~repro.core.columnar.ColumnBatch` that the source's
    selection and projection, the joins and the aggregation process as
    whole columns; the delta feed and snapshots are unchanged.

    Returns a :class:`StreamingQuery`; iterate it for live deltas, call
    :meth:`~StreamingQuery.run` to drive it to exhaustion, and
    :meth:`~StreamingQuery.snapshot` for the current result multiset.
    """
    resolved = (options or ExecutionOptions()).resolve(default_batch_size=64)
    if resolved.parallelism is not None and resolved.executor != "processes":
        raise ExecutorError(
            "parallelism only applies to the streaming 'processes' "
            "executor: 'inline' runs every task in the calling thread "
            "(drop parallelism=, or set executor='processes')"
        )
    topology, partitioners = build_topology(
        plan,
        spout_factory=lambda source: (lambda i, p: _IdleSpout()),
        agg_bolt_factory=DeltaAggBolt,
        sink_factory=lambda i, p: DeltaSink(),
        source_parallelism=1,
    )
    positions = _plan_ts_positions(plan)
    if ts_positions:
        positions.update(ts_positions)
    pumps: Dict[str, PushSource] = dict(sources or {})
    operators = {}
    for source in plan.sources:
        operators[source.name] = source_operators(source)
        if source.name not in pumps:
            pumps[source.name] = ReplaySource(
                source.relation.rows, stream=source.name,
                ts_position=positions.get(source.name), rate=resolved.rate,
                clock=clock,
            )
    cluster = StreamingCluster(
        topology, pumps, batch_size=resolved.batch_size,
        executor=resolved.executor, source_operators=operators,
        clock=clock, columnar=resolved.columnar,
        parallelism=resolved.parallelism,
        checkpoint_interval=resolved.checkpoint_interval,
        checkpoint_dir=checkpoint_dir, fault_injector=fault_injector,
        observe=resolved.observe,
    )
    return StreamingQuery(cluster, partitioner_info={
        name: partitioner.describe()
        for name, partitioner in partitioners.items()
    }, options=resolved)


class StreamingQuery:
    """A live, long-running query: delta feed + snapshot + monitors.

    Iterating yields :class:`Delta` objects *while the query runs* --
    the iteration itself drives the query (one pump round per empty
    poll), in the consumer's thread on either executor.  The
    iterator ends when every source is exhausted and the final deltas
    are drained; for genuinely unbounded sources, consume it as an
    infinite stream or stop by abandoning it.
    """

    def __init__(self, cluster: StreamingCluster,
                 partitioner_info: Optional[Dict[str, str]] = None,
                 options: Optional[ExecutionOptions] = None):
        self.cluster = cluster
        self.partitioner_info = partitioner_info or {}
        #: the resolved execution options this query runs under
        self.options = options
        self._subscription: Optional[Subscription] = None
        #: deltas drained from the subscription but not yet handed to a
        #: consumer (an iterator over the last drained chunk); held on
        #: the query, not in a generator, so abandoning one iterator and
        #: starting another resumes without a gap
        self._pending: Iterator[Delta] = iter(())

    @property
    def subscription(self) -> Subscription:
        """The delta feed, created on first use: a run()-and-snapshot()
        consumer never buffers the changelog.  Subscribe (or start
        iterating) before driving the query to observe it from the
        beginning; a later subscriber starts from the current state.
        Consume it either here or by iterating the query: the query's
        iterators read ahead of this handle by one drained chunk."""
        if self._subscription is None:
            self._subscription = self.cluster.subscribe()
        return self._subscription

    def deltas(self) -> Iterator[Delta]:
        """Live delta iterator.

        Refills from the subscription with one bulk
        :meth:`~repro.streaming.deltas.Subscription.drain` per empty
        buffer instead of one lock acquisition per delta.  The drained
        chunk is the query's, not the iterator's: break out of a loop
        and iterate again (or interleave two iterators) and every delta
        is still delivered once, in order.  Each empty drain drives one
        pump round."""
        cluster = self.cluster
        # attach before the first round publishes: a subscriber that
        # arrives later is caught up from the current state, not from
        # the first delta
        subscription = self.subscription
        while True:
            pending = self._pending
            yield from pending
            if pending is not self._pending:
                continue  # an interleaved iterator refilled it meanwhile
            chunk = subscription.drain()
            if chunk:
                self._pending = iter(chunk)
                continue
            if subscription.closed or cluster.done:
                # the run is over and the buffer was just seen empty
                return
            cluster.advance()

    __iter__ = deltas

    def run(self) -> "StreamingQuery":
        """Drive the query until the sources are exhausted."""
        self.cluster.run()
        return self

    def stop(self, wait: bool = True):
        """Tear the resident query down (see StreamingCluster.stop)."""
        self.cluster.stop(wait=wait)

    def snapshot(self) -> List[tuple]:
        """Current result multiset (sorted); after :meth:`run`, equals
        the batch engine's ``sorted(results)`` on the same data."""
        return self.cluster.snapshot()

    @property
    def done(self) -> bool:
        return self.cluster.done

    def stats(self) -> Dict[str, object]:
        """One unified stats dict for the whole query.

        Merges the live stream counters (events, rates, watermark, lag),
        per-sink delta totals and the checkpoint/recovery counters
        (zeros outside the processes executor) into a single snapshot --
        the same shape :meth:`~repro.serving.broker.BrokerSubscription.
        stats` returns for brokered queries, which add a ``"serving"``
        section on top."""
        return self.cluster.stats_snapshot()

    def checkpoint_stats(self) -> Dict[str, object]:
        """Checkpoint/recovery counters (processes executor; zeros
        elsewhere): commits, partitions persisted vs. skipped by the
        hash-diff, bytes written, recoveries and replayed rows.
        Alias for ``stats()["checkpoints"]``."""
        return self.cluster.checkpoints.snapshot()

    @property
    def observer(self):
        """The run's :class:`~repro.obs.Observer` (None at observe='off')."""
        return self.cluster.observer

    def profile(self, title: Optional[str] = None) -> str:
        """EXPLAIN-ANALYZE-style report over the live topology.

        Per-operator batch counts, routed rows, p50/p95/p99 batch
        latency (when the query runs with
        ``ExecutionOptions(observe='metrics')`` or ``'trace'``) and the
        per-grouping skew degree.  Valid mid-run; numbers are the
        counters' current values."""
        from repro.obs.profile import profile_report

        return profile_report(
            self.cluster.topology, self.cluster.metrics,
            observer=self.cluster.observer,
            title=title or "streaming query")

    def worker_pids(self) -> Dict[int, Optional[int]]:
        """Resident worker pids by worker id (processes executor; empty
        before the first pump round and under the other executors).
        Chaos-testing surface: ``os.kill(pid, signal.SIGKILL)`` one of
        these mid-run and watch :meth:`checkpoint_stats` count the
        recovery while the query converges to the same snapshot."""
        return self.cluster.worker_pids()
