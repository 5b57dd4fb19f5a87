"""StreamingCluster: a resident topology pumping unbounded push sources.

Where :class:`~repro.storm.cluster.LocalCluster` *drains* a finite
topology and stops, the streaming cluster keeps the topology alive:
sources push micro-batches in whenever they have data, every batch runs
through the exact same ``Grouping.targets_batch`` / ``execute_batch``
dataplane (no per-tuple regression), watermark punctuations drive window
expiration between batches, and the :class:`~repro.streaming.deltas.\
DeltaSink` at the bottom feeds live ``+row/-row`` deltas to subscribers.

One pump round (:meth:`StreamingCluster.step`) serves both executors:
it polls every source for one micro-batch, ``inject``s it, and then
``advance_watermark``s the merged watermark -- and at end of stream
``flush_bolts`` -- on the executor's *transport*:

- ``inline`` -- the resident :class:`LocalCluster` itself.  Every
  injected batch is driven to quiescence in the calling thread and the
  watermark advances at the quiescent point.  At ``batch_size > 1`` that
  drive is one level pass -- the bolt tasks run once each in topological
  order on their deliveries coalesced per ``(source, stream)``, the
  schedule of ``LocalCluster.run``'s rounds with one poll per round.  At
  ``batch_size=1``, and for any plan holding windowed (arrival-order-
  sensitive) state, it is depth-first, identical to ``LocalCluster.run``
  there, so the delivery order -- and hence every per-task counter and a
  window's expirations -- matches the finite engine.
- ``processes`` -- **resident forked worker processes** holding the
  topology's join/aggregation tasks, exchanging serialized micro-batches
  with the coordinator over long-lived pipes: the fault-tolerant
  shared-nothing deployment of the paper's Storm runtime.  The
  coordinator keeps everything a crash must not lose -- source pumps,
  the routing table, the delta sinks with their subscriptions, the
  change log and the checkpoint store -- and supervises the workers:
  operator state is checkpointed incrementally every
  ``checkpoint_interval`` rounds (hash-diffed so unchanged partitions
  persist zero bytes; see :mod:`repro.checkpoint`), dead workers are
  detected, respawned, restored from the latest snapshot, and the
  post-checkpoint delta stream is replayed exactly-once, so the final
  snapshot is byte-identical to a crash-free (and to a batch) run.
  Partitioners that adapt to the globally observed stream are refused
  up front, exactly as in :mod:`repro.storm.executor`.  The full
  walkthrough lives in ``docs/FAULT_TOLERANCE.md``.

All executors produce the same final snapshot as ``run_plan`` on the
same data; the inline executor at equal ``batch_size`` reproduces the
finite engine's interleaving exactly where that interleaving is defined
per tuple or decides the result: at ``batch_size=1`` and for windowed
plans.
"""

from __future__ import annotations

import math
import pickle
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.checkpoint import ChangeLog, CheckpointStore
from repro.checkpoint.log import DATA as _LOG_DATA
from repro.core.columnar import ColumnBatch, ColumnEmissions
from repro.core.options import EXECUTOR_NAMES
from repro.engine.operators import Projection, Selection
from repro.obs import Observer
from repro.storm.cluster import LocalCluster
from repro.storm.executor import (
    ExecutorError,
    ResidentWorkerPool,
    Router,
    WorkerDied,
    ensure_task_local_routing,
)
from repro.storm.failures import FaultInjector
from repro.storm.kernel import deliver, source_hop
from repro.storm.metrics import (
    CheckpointMetrics,
    StreamMetrics,
    TopologyMetrics,
)
from repro.storm.topology import Topology
from repro.streaming.deltas import DeltaSink, Subscription
from repro.streaming.sources import Emission, PushSource
from repro.streaming.watermarks import WatermarkTracker

#: checkpoint cadence (pump rounds) when none is configured
DEFAULT_CHECKPOINT_INTERVAL = 8


class SourcePump:
    """Feeds one push source into the dataplane.

    Applies the source component's co-located selection/projection (the
    same operators the batch :class:`~repro.engine.runner.SourceSpout`
    runs in-task), so a replayed relation enters the topology exactly as
    it would in a finite run.
    """

    def __init__(self, name: str, source: PushSource,
                 selection: Optional[Selection] = None,
                 projection: Optional[Projection] = None,
                 columnar: bool = False):
        self.name = name
        self.source = source
        self.selection = selection
        self.projection = projection
        #: coalesce single-stream polls into a ColumnBatch so downstream
        #: bolts take their vectorized paths (opt-in; see stream_plan)
        self.columnar = columnar
        self.emitted = 0
        #: raw rows the last poll pulled, pre-selection: a fully filtered
        #: batch still *advanced the source* and counts as progress
        self.last_poll_raw = 0

    def poll(self, max_rows: int):
        """One poll of the source, filtered and projected.

        A single-stream poll runs the operators' batch forms on the
        whole poll: with ``columnar`` on it becomes one
        :class:`ColumnBatch` first, so a vectorizable predicate or
        projection runs as whole-column kernels.  A poll mixing streams
        keeps each row's stream and goes row by row."""
        emissions = self.source.poll(max_rows)
        self.last_poll_raw = len(emissions)
        if not emissions:
            return emissions
        streams, rows = zip(*emissions)
        stream = streams[0]
        if streams.count(stream) != len(streams):
            return self._per_row(emissions)
        rows = ColumnBatch.from_rows(rows) if self.columnar else list(rows)
        if self.selection is not None:
            rows = self.selection.apply_batch(rows)
        if self.projection is not None:
            rows = self.projection.apply_batch(rows)
        self.emitted += len(rows)
        if not self.columnar:
            return [(stream, row) for row in rows]
        if not isinstance(rows, ColumnBatch):
            rows = ColumnBatch.from_rows(rows)
        return ColumnEmissions(stream, rows) if rows else []

    def _per_row(self, emissions):
        if self.selection is not None:
            apply = self.selection.apply
            emissions = [(stream, row) for stream, row in emissions
                         if apply(row) is not None]
        if self.projection is not None:
            apply = self.projection.apply
            emissions = [(stream, apply(row)) for stream, row in emissions]
        self.emitted += len(emissions)
        return emissions

    def watermark(self) -> Optional[float]:
        return self.source.watermark()

    def exhausted(self) -> bool:
        return self.source.exhausted()


class _PoolTransport:
    """The ``processes`` transport: routed waves cross the resident
    workers' pipes until no data is in flight anywhere.

    Worker-owned tasks execute remotely (one pipe round-trip per wave,
    workers in parallel); coordinator-owned sink tasks execute here, so
    deltas fan out to subscriptions without serializing the sink.  Worker
    emissions come back raw and are routed here -- routing state lives
    only in the coordinator, so recovery never reconciles diverged
    per-worker routing.

    Everything injected is logged *before* it is dispatched: if a worker
    dies mid-delivery, the supervisor's replay re-applies it to the
    restored state.  While :attr:`replaying`, nothing is re-logged,
    re-counted at the source or observed -- contexts are withheld and
    worker obs payloads discarded, so a replayed batch never duplicates
    spans or timings.
    """

    def __init__(self, pool: ResidentWorkerPool, topology: Topology,
                 local_tasks: Dict[Tuple[str, int], object],
                 metrics: TopologyMetrics, observer: Optional[Observer],
                 coalesce: bool):
        self.pool = pool
        self.router = Router(topology, clone=True)
        #: coordinator-owned tasks: (component, task_index) -> task
        self.local_tasks = local_tasks
        self.log = ChangeLog()
        self.replaying = False
        self._topology = topology
        self._metrics = metrics
        self._observer = observer
        self._coalesce = coalesce

    def inject(self, source: str, emissions: Sequence[Emission]):
        ctx = None
        if not self.replaying:
            self.log.record_data(source, emissions)
            ctx = source_hop(source, 0, len(emissions), 0.0, self._metrics,
                             self._observer)
        self._drive([(source, emissions, ctx)])

    def advance_watermark(self, watermark: float):
        # logged before the broadcast, so a worker that dies mid-fanout
        # still sees the punctuation once: global restore rewinds the
        # survivors that already applied it, and the replay re-delivers
        # it to everyone
        if not self.replaying:
            self.log.record_watermark(watermark)
        expirations = []
        for component, task_index, emissions in \
                self.pool.broadcast_watermark(watermark):
            self._metrics.record_emit(component, task_index, len(emissions))
            expirations.append((component, emissions, None))
        self._drive(expirations)

    def flush_bolts(self):
        for name in self._topology.topological_order():
            spec = self._topology.components[name]
            if spec.is_spout:
                continue
            if self.pool.owner(name, 0) is None:  # coordinator-owned
                outputs = [
                    (name, task_index,
                     self.local_tasks[(name, task_index)].finish())
                    for task_index in range(spec.parallelism)]
            else:
                outputs = self.pool.finish_component(name)
            for component, task_index, emissions in outputs:
                if emissions:
                    self._metrics.record_emit(
                        component, task_index, len(emissions))
                    self._drive([(component, emissions, None)])
        self.pool.stop()

    def _drive(self, pending: List[Tuple[str, Sequence[Emission], object]]):
        """Deliver ``(source, emissions, parent ctx)`` entries, and
        whatever they cause downstream, wave by wave."""
        metrics = self._metrics
        observer = None if self.replaying else self._observer
        while pending:
            per_worker: Dict[int, List[tuple]] = {}
            local: List[tuple] = []
            for source, emissions, ctx in pending:
                for item in self.router.route(
                        source, emissions, coalesce=self._coalesce):
                    owner = self.pool.owner(item[0], item[1])
                    if owner is None:
                        local.append(item + (ctx,))
                    else:
                        per_worker.setdefault(owner, []).append(item + (ctx,))
            pending = []
            if observer is not None and (per_worker or local):
                observer.on_queue_depth(
                    "processes",
                    sum(len(items) for items in per_worker.values())
                    + len(local))
            if per_worker:
                outputs, tallies = self.pool.execute(per_worker)
                for counters, obs_payload in tallies:
                    metrics.merge(counters)
                    if observer is not None:
                        observer.merge_worker_obs(obs_payload)
                for component, _task_index, emissions, child in outputs:
                    pending.append((component, emissions, child))
            for target, task_index, source, stream, rows, ctx in local:
                emissions, child = deliver(
                    self.local_tasks[(target, task_index)], target,
                    task_index, source, stream, rows, ctx, metrics, observer)
                if emissions:
                    pending.append((target, emissions, child))


class StreamingCluster:
    """A continuously running topology over push sources.

    ``sources`` maps each spout component name to the
    :class:`PushSource` that stands in for it; emissions are attributed
    to task 0 of that component.  Use :meth:`subscribe` before running to
    observe deltas, :meth:`run` (or repeated :meth:`step`) to drive the
    query, and :meth:`snapshot` for the current result multiset.
    """

    def __init__(self, topology: Topology, sources: Dict[str, PushSource],
                 batch_size: int = 64, executor: str = "inline",
                 source_operators: Optional[
                     Dict[str, Tuple[Optional[Selection],
                                     Optional[Projection]]]] = None,
                 clock: Callable[[], float] = time.monotonic,
                 idle_sleep: float = 0.0005,
                 columnar: bool = False,
                 parallelism: Optional[int] = None,
                 checkpoint_interval: Optional[int] = None,
                 checkpoint_dir: Optional[str] = None,
                 fault_injector: Optional[FaultInjector] = None,
                 max_recoveries: int = 5,
                 observe: str = "off"):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if executor not in EXECUTOR_NAMES:
            raise ExecutorError(
                f"unknown streaming executor {executor!r}; choose one of "
                f"{EXECUTOR_NAMES}"
            )
        spout_names = sorted(
            name for name, spec in topology.components.items() if spec.is_spout
        )
        if sorted(sources) != spout_names:
            raise ValueError(
                f"sources {sorted(sources)} do not match the topology's "
                f"spout components {spout_names}"
            )
        if executor == "processes":
            # adaptive partitioners reshape with the observed stream: a
            # recovery replay would route the replayed rows through the
            # *post*-failure shape, onto different partitions than the
            # original delivery -- refuse, as the staged backend does
            ensure_task_local_routing(topology, executor)
        self.topology = topology
        self.batch_size = batch_size
        self.executor = executor
        self.idle_sleep = idle_sleep
        self.cluster = LocalCluster(topology)
        self.cluster.set_coalescing(batch_size > 1)
        self.metrics = self.cluster.metrics
        #: the inner cluster's registry: this topology's one export path
        self.registry = self.cluster.registry
        self.stats = StreamMetrics(clock=clock)
        self.registry.register_collector(self.stats.collect)
        if observe != "off":
            self.cluster.observe(observe)
        #: one Observer per observed run, shared with the inner cluster so
        #: the inline inject() path times batches too; None = observe='off'
        self.observer: Optional[Observer] = self.cluster.observer
        operators = source_operators or {}
        self._pumps: Dict[str, SourcePump] = {
            name: SourcePump(name, source, *operators.get(name, (None, None)),
                             columnar=columnar and batch_size > 1)
            for name, source in sources.items()
        }
        self._source_wm = WatermarkTracker()
        for name in self._pumps:
            self._source_wm.register(name)
        # punctuation is sound only when every source carries event time:
        # a timestamp-less source's rows can join against stored state and
        # resurrect old event times, so no promise can be made for it
        self._event_time = all(
            pump.source.has_event_time() for pump in self._pumps.values()
        )
        self.columnar = columnar and batch_size > 1
        self._finished_sources: set = set()
        self._final_watermarks: List[float] = []
        self._broadcast_wm: Optional[float] = None
        #: the last pump round polled a full micro-batch from some source
        self._backlog = False
        self._done = threading.Event()
        self._stop = threading.Event()
        #: a run() loop drives the query: stop(wait=True) may wait on it
        self._running = False
        self._bolt_tasks: List[Tuple[str, int, object]] = [
            (name, task_index, task)
            for name in topology.topological_order()
            if not topology.components[name].is_spout
            for task_index, task in enumerate(self.cluster.tasks(name))
        ]
        self._sinks: List[DeltaSink] = [
            task for _n, _i, task in self._bolt_tasks
            if isinstance(task, DeltaSink)
        ]
        # -- processes executor: checkpointed resident workers ------------
        self.checkpoint_interval = (
            DEFAULT_CHECKPOINT_INTERVAL if checkpoint_interval is None
            else checkpoint_interval)
        self.max_recoveries = max_recoveries
        #: checkpoint/recovery accounting (always present; only the
        #: processes executor feeds it)
        self.checkpoints = CheckpointMetrics()
        self.registry.register_collector(self.checkpoints.collect)
        self._fault_injector = fault_injector
        self._store = CheckpointStore(directory=checkpoint_dir)
        self._epoch = 0
        self._rounds_since_checkpoint = 0
        self._recoveries = 0
        #: what a pump round drives: ``inject`` / ``advance_watermark`` /
        #: ``flush_bolts`` -- the resident LocalCluster itself (inline:
        #: every batch runs to quiescence in the calling thread) or the
        #: worker pool
        self._transport = self.cluster
        self._pool: Optional[ResidentWorkerPool] = None
        if executor == "processes":
            # sinks stay in the coordinator: their subscriptions hold live
            # condition variables and must survive any worker crash
            sink_components = {
                name for name, _task_index, task in self._bolt_tasks
                if isinstance(task, DeltaSink)
            }
            local_tasks = {
                (name, task_index): task
                for name, task_index, task in self._bolt_tasks
                if name in sink_components
            }
            # forked on first use (_start_pool), not here
            self._pool = ResidentWorkerPool(
                topology, {name: self.cluster.tasks(name)
                           for name in topology.components},
                parallelism=parallelism,
                exclude=sink_components,
                observe=observe,
            )
            self._transport = _PoolTransport(
                self._pool, topology, local_tasks, self.metrics,
                self.observer, coalesce=batch_size > 1)

    # -- public surface ----------------------------------------------------

    @property
    def done(self) -> bool:
        return self._done.is_set()

    @property
    def sink(self) -> DeltaSink:
        """The topology's delta sink (fan-out point of the serving layer)."""
        if not self._sinks:
            raise ValueError(
                "topology has no DeltaSink; build it with a streaming sink "
                "to subscribe to result deltas"
            )
        return self._sinks[0]

    def subscribe(self, **kwargs) -> Subscription:
        """Subscribe to the sink's delta feed.

        Keyword arguments (``max_buffer``, ``on_overflow``, ``tenant``,
        ``track_latency``, ``on_detach``) pass through to
        :meth:`~repro.streaming.deltas.DeltaSink.subscribe`."""
        return self.sink.subscribe(**kwargs)

    def snapshot(self) -> List[tuple]:
        """Current result multiset (sorted)."""
        if not self._sinks:
            raise ValueError("topology has no DeltaSink")
        return self._sinks[0].snapshot()

    def stats_snapshot(self) -> Dict[str, object]:
        """Live progress snapshot, with delta totals read off the sinks."""
        snapshot = self.stats.snapshot()
        snapshot["deltas"] = sum(sink.delta_count for sink in self._sinks)
        snapshot["checkpoints"] = self.checkpoints.snapshot()
        return snapshot

    def run(self):
        """Drive the query in the calling thread until every source is
        exhausted and the topology flushed (or :meth:`stop` is called
        from another thread -- the broker's driver runs here)."""
        self._running = True  # stop(wait=True) may rely on this driver
        while not self.advance():
            pass
        return self.metrics

    def stop(self, wait: bool = True, timeout: Optional[float] = 10.0):
        """Tear a resident query down without waiting for exhaustion.

        Sets the stop flag; the driver (the ``run()`` / ``step()`` loop)
        notices at its next round, stops polling the sources, flushes the
        topology -- so every subscription receives its final deltas and
        is closed -- and sets :attr:`done`.  ``wait=True`` blocks until
        that teardown completes (requires a live driver: the broker's
        per-topology driver thread, or a ``run()`` in progress).
        Idempotent; a no-op once done."""
        self._stop.set()
        if self.done:
            return
        if wait and self._running:
            self._done.wait(timeout)

    def advance(self) -> bool:
        """One scheduling quantum for ``run()`` and the delta iterators:
        one pump round, then the pacing rule; returns :attr:`done`."""
        self.step()
        self._pace()
        return self.done

    def _pace(self):
        """Between two pump rounds: run flat out while a source still had
        a full micro-batch to give, otherwise yield one idle tick.  A
        short poll means the pump has caught up with its producers; one
        that spins on the trickle pays a whole round (a fan-out to every
        subscriber) per handful of rows, so the cost of a burst would
        depend on how producer and pump happen to interleave."""
        if not (self._backlog or self.done):
            time.sleep(self.idle_sleep)

    # -- the pump round ----------------------------------------------------

    def step(self) -> bool:
        """One pump round; returns whether any progress was made.

        Polls every live source for at most one micro-batch, drives each
        batch to quiescence, then -- at the quiescent point, where no
        data is in flight anywhere -- advances the merged watermark and
        finally flushes the topology once all sources are exhausted.

        Under ``processes`` the round is supervised: a worker death
        detected anywhere in it (EOF on a pipe, the liveness sweep)
        abandons the round and runs the recovery protocol; the change log
        guarantees nothing injected this round is lost and nothing already
        checkpointed is applied twice.  Anything else that escapes a round
        tears the query down (:meth:`_abort`) before it propagates.
        """
        if self.done:
            return False
        try:
            if self._pool is None:
                return self._pump_round()
            self._start_pool()
            try:
                dead = self._pool.reap_dead()
                if dead:
                    raise WorkerDied(dead)
                progressed = self._pump_round()
                if not self.done:
                    self._rounds_since_checkpoint += 1
                    if (progressed and self._transport.log
                            and self._rounds_since_checkpoint
                            >= self.checkpoint_interval):
                        self._checkpoint()
                return progressed
            except WorkerDied as death:
                self._recover(death.worker_ids)
                return True
        except Exception:
            self._abort()
            raise

    def _pump_round(self) -> bool:
        transport = self._transport
        if self._stop.is_set():
            # forced teardown: stop polling, flush so subscriptions get
            # their final deltas and close, and declare the query done
            self._finish()
            return True
        progressed = False
        self._backlog = False
        for name, pump in self._pumps.items():
            if name in self._finished_sources:
                continue
            emissions = pump.poll(self.batch_size)
            if pump.last_poll_raw:
                progressed = True  # even a fully filtered batch advanced
                if pump.last_poll_raw >= self.batch_size:
                    self._backlog = True  # more may be waiting: see _pace
            if emissions:
                self.stats.record_events(
                    len(emissions), pump.source.max_event_time)
                transport.inject(name, emissions)
            if pump.exhausted():
                # also reached by sources that were empty to begin with:
                # they must still mark themselves done, or the merged
                # watermark stays undefined for the whole run.  The final
                # watermark is recorded first -- it covers the last batch.
                progressed = True
                watermark = pump.watermark()
                if watermark is not None and watermark != math.inf:
                    self._source_wm.update(name, watermark)
                    self._final_watermarks.append(watermark)
                self._finished_sources.add(name)
                self._source_wm.mark_done(name)
            else:
                watermark = pump.watermark()
                if watermark is not None:
                    self._source_wm.update(name, watermark)
        if self._event_time and self._advance_watermark(
                self._source_wm.merged()):
            progressed = True
        if len(self._finished_sources) == len(self._pumps):
            if self._event_time and self._final_watermarks:
                # all promises are in: catch windows up to the final
                # watermark before the flush (same rows either way; this
                # also settles stats -- lag reaches its true final value)
                self._advance_watermark(min(self._final_watermarks))
            self._finish()
            progressed = True
        return progressed

    def _advance_watermark(self, merged: Optional[float]) -> bool:
        """Broadcast a *finite* watermark advance to every windowed task.

        ``inf`` (no live input constrains event time) is never used to
        expire windows: end-of-stream closure is the flush's job, and
        expiring the trailing sliding window early would diverge from the
        batch engine's final snapshot."""
        if merged is None or merged == math.inf:
            return False
        if self._broadcast_wm is not None and merged <= self._broadcast_wm:
            return False
        self._broadcast_wm = merged
        self.stats.record_watermark(merged)
        self._transport.advance_watermark(merged)
        return True

    def _finish(self):
        """End of stream (or forced stop): flush the topology -- every
        subscription receives its final deltas and is closed -- and
        declare the query done."""
        if self._pool is not None:
            # a checkpoint right before the flush makes the flush itself
            # recoverable: a worker killed mid-finish rolls everything
            # back to this barrier (empty change log) and the flush reruns
            self._checkpoint()
        self._transport.flush_bolts()
        self._done.set()

    def _abort(self):
        """The one failure path, for whatever escaped a pump round on any
        executor: no worker process stays behind, every subscription is
        closed (a consumer blocked on the feed wakes up) and the query
        says it is over.  The caller re-raises."""
        self._done.set()
        if self._pool is not None:
            self._pool.stop()
        for sink in self._sinks:
            sink.finish()

    # -- processes executor: supervision of the resident workers -----------

    def worker_pids(self) -> Dict[int, Optional[int]]:
        """Live resident-worker pids (kill targets for chaos testing)."""
        if self._pool is None:
            return {}
        return self._pool.pids()

    def _start_pool(self):
        """Fork the resident workers on first use; epoch 0 is committed
        immediately, so recovery always has a restore point."""
        if self._epoch:  # epoch 0 is committed: the pool is up
            return
        if self._fault_injector is not None:
            self._pool.arm_kills(
                self._fault_injector.kill_plan(self._pool.assignment))
        self._pool.start()
        self._checkpoint()

    # -- checkpoint/recovery protocol --------------------------------------

    def _coordinator_blob(self) -> bytes:
        """The coordinator's own state for a manifest: sink multisets,
        the broadcast watermark, and the router's mutable grouping state
        (shuffle cursors) -- everything the replay path needs rewound."""
        return pickle.dumps({
            "sinks": {
                key: task.counts_snapshot()
                for key, task in sorted(self._transport.local_tasks.items())
                if isinstance(task, DeltaSink)
            },
            "wm": self._broadcast_wm,
            "router": self._transport.router.routing_state(),
        }, protocol=pickle.HIGHEST_PROTOCOL)

    def _checkpoint(self):
        """Commit one epoch at the current quiescent point.

        Workers hash their owned task state and ship only blobs whose
        digest left the previous manifest (the incremental hash-diff);
        the change log is truncated afterwards -- its rows are now inside
        the snapshot.
        """
        snapshots = self._pool.checkpoint(self._store.known_digests())
        result = self._store.commit(
            self._epoch, snapshots, self._coordinator_blob())
        self.checkpoints.record_commit(result)
        self._epoch += 1
        self._rounds_since_checkpoint = 0
        self._transport.log.truncate()

    def _recover(self, dead: List[int]):
        """Exactly-once crash recovery, retried if a replay dies again."""
        respawned: List[int] = []
        while True:
            self._recoveries += 1
            if self._recoveries > self.max_recoveries:
                raise ExecutorError(
                    f"giving up after {self.max_recoveries} worker "
                    f"recoveries (workers {dead} died); the failure is "
                    f"not transient"
                )
            try:
                self._recover_once(dead, respawned)
                return
            except WorkerDied as death:
                dead = death.worker_ids

    def _recover_once(self, dead: List[int], respawned: List[int]):
        """Respawn + global restore + sink rollback + log replay.

        Every worker -- survivor or respawn -- is restored to the latest
        manifest: survivors may have applied post-checkpoint batches that
        the replay will re-deliver, so their state must rewind too.  The
        sink rolls back through compensating deltas (subscriptions stay
        attached), the router's shuffle cursors rewind so replayed rows
        land on their original partitions, and the change log re-applies
        the delta stream without re-logging it.
        """
        dead = sorted(set(dead) | set(self._pool.reap_dead()))
        respawned.extend(dead)
        manifest = self._store.latest()
        self._pool.respawn(dead)
        if manifest is None:
            # death raced the epoch-0 commit: nothing has executed, so a
            # fresh fork *is* the correct state
            self.checkpoints.record_recovery(list(respawned), 0, 0)
            return
        self._pool.restore(self._store.restore_set(manifest))
        transport = self._transport
        coordinator = pickle.loads(manifest.coordinator)
        for key, counts in coordinator["sinks"].items():
            transport.local_tasks[key].rollback(counts)
        self._broadcast_wm = coordinator["wm"]
        transport.router.restore_routing_state(coordinator["router"])
        replayed_entries = replayed_rows = 0
        transport.replaying = True
        try:
            for entry in transport.log.replay():
                if entry[0] == _LOG_DATA:
                    _kind, source, emissions = entry
                    replayed_entries += 1
                    replayed_rows += len(emissions)
                    transport.inject(source, emissions)
                else:
                    self._advance_watermark(entry[1])
        finally:
            transport.replaying = False
        self.checkpoints.record_recovery(list(respawned), replayed_entries,
                                         replayed_rows)
