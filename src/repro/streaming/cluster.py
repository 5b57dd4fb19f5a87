"""StreamingCluster: a resident topology pumping unbounded push sources.

Where :class:`~repro.storm.cluster.LocalCluster` *drains* a finite
topology and stops, the streaming cluster keeps the topology alive:
sources push micro-batches in whenever they have data, every batch runs
through the exact same ``Grouping.targets_batch`` / ``execute_batch``
dataplane, watermark punctuations drive window expiration between
rounds, and the :class:`~repro.streaming.deltas.DeltaSink` at the bottom
feeds live ``+row/-row`` deltas to subscribers.

One pump round (:meth:`StreamingCluster.step`) is one round of the
resident ``LocalCluster``'s schedule (:meth:`LocalCluster.inject`), then
an ``advance_watermark`` of the merged watermark -- and at end of stream
``flush_bolts``.  At ``batch_size > 1`` it is ``LocalCluster.run``'s
round: every live source polled in full micro-batches up to its share
of ``ROUND_BUDGET`` rows (or a short poll), all polls routed into one
buffer, one level pass.  At ``batch_size=1``, and for plans holding
windowed (arrival-order-sensitive) state, each source is polled once and
its poll driven to quiescence before the next.  Both executors take the
same rounds.

Under ``processes`` the forked workers take the turns of the
join/aggregation components over long-lived pipes -- the fault-tolerant
shared-nothing deployment of the paper's Storm runtime -- and the
coordinator keeps everything a crash must not lose: source pumps, the
routing table, the delta sinks with their subscriptions, the change log
and the checkpoint store.  It logs every poll (with its stream position,
in its round) and watermark before driving it, checkpoints operator
state incrementally every ``checkpoint_interval`` full rounds (hash-diffed,
so unchanged partitions persist zero bytes; see :mod:`repro.checkpoint`),
and when a worker dies respawns it, restores every worker from the
latest snapshot, rolls the sinks back, and replays the log round by
round, unobserved, so the final snapshot is byte-identical to a
crash-free (and to a batch) run.  Partitioners that adapt to the
globally observed stream are refused up front
(:func:`ensure_task_local_routing`): a replay could not route the way
the original delivery did.  The walkthrough is
``docs/FAULT_TOLERANCE.md``.
"""

from __future__ import annotations

import math
import pickle
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.checkpoint import ChangeLog, CheckpointStore
from repro.checkpoint.log import ROUND as _LOG_ROUND
from repro.core.columnar import ColumnBatch, ColumnEmissions
from repro.core.options import EXECUTOR_NAMES
from repro.engine.operators import Projection, Selection
from repro.obs import Observer
from repro.storm.cluster import LocalCluster
from repro.storm.executor import ExecutorError, ResidentWorkerPool, WorkerDied
from repro.storm.failures import FaultInjector
from repro.storm.metrics import CheckpointMetrics, StreamMetrics
from repro.storm.topology import Topology
from repro.streaming.deltas import DeltaSink, Subscription
from repro.streaming.sources import PushSource
from repro.streaming.watermarks import WatermarkTracker

#: checkpoint cadence (full pump rounds) when none is configured
DEFAULT_CHECKPOINT_INTERVAL = 8


def ensure_task_local_routing(topology: Topology, executor: str):
    """Refuse topologies whose routing a recovery replay cannot repeat:
    a partitioner that *adapts to the globally observed stream* (e.g.
    :class:`~repro.partitioning.adaptive.AdaptiveOneBucket`) would route
    the replayed rows through its *post*-failure shape, onto other
    partitions than the original delivery, and silently lose matches.
    The :class:`ExecutorError` names the partitioner and ``inline``,
    which never replays.
    """
    for edge in topology.edges:
        if not edge.grouping.supports_task_local_routing():
            raise ExecutorError(
                f"the {executor!r} streaming executor cannot run this "
                f"topology: edge {edge.source}->{edge.target} routes "
                f"through {edge.grouping.routing_description()}, whose "
                f"decisions adapt to the globally observed stream; a "
                f"recovery replay would route differently and silently "
                f"lose matches -- run this plan with executor='inline'"
            )


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
        #: rows emitted so far per stream, as a spout task's
        self.emitted = {}
        #: raw rows the last poll pulled, pre-selection: a fully filtered
        #: batch still *advanced the source* and counts as progress
        self.last_poll_raw = 0
        #: the row limit of the last poll
        self._limit = 1

    def poll(self, max_rows: int):
        """One poll of the source, filtered and projected.

        A single-stream poll runs the operators' batch forms on the
        whole poll: with ``columnar`` on it becomes one
        :class:`ColumnBatch` first, so a vectorizable predicate or
        projection runs as whole-column kernels.  A source that polls a
        :class:`ColumnEmissions` (the one way to push retractions) stays
        a batch, signs and all.  A poll mixing streams keeps each row's
        stream and goes row by row."""
        emissions = self.source.poll(max_rows)
        self.last_poll_raw = len(emissions)
        self._limit = max_rows
        if not emissions:
            return emissions
        if isinstance(emissions, ColumnEmissions):
            stream, rows = emissions.stream, emissions.batch
        else:
            streams, rows = zip(*emissions)
            stream = streams[0]
            if streams.count(stream) != len(streams):
                return self._per_row(emissions)
            rows = ColumnBatch.from_rows(rows) if self.columnar \
                else list(rows)
        if self.selection is not None:
            rows = self.selection.apply_batch(rows)
        if self.projection is not None:
            rows = self.projection.apply_batch(rows)
        if isinstance(rows, ColumnBatch):
            return ColumnEmissions(stream, rows) if rows else []
        return [(stream, row) for row in rows]

    def next_batch(self, max_rows: int):  # the spout interface rounds use
        return self.poll(max_rows)

    def has_more(self) -> bool:
        """The last poll was full, however much the selection kept."""
        return self.last_poll_raw >= self._limit

    def _per_row(self, emissions):
        if self.selection is not None:
            apply = self.selection.apply
            emissions = [(stream, row) for stream, row in emissions
                         if apply(row) is not None]
        if self.projection is not None:
            apply = self.projection.apply
            emissions = [(stream, apply(row)) for stream, row in emissions]
        return emissions

    def watermark(self) -> Optional[float]:
        return self.source.watermark()

    def exhausted(self) -> bool:
        return self.source.exhausted()


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
        #: one Observer per observed run: the inner cluster's, which times
        #: every batch it drives; None = observe='off'
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
        #: the pumps the current round has still to poll, as the
        #: cluster's rounds take them: ``(name, 0, pump)``
        self._unpolled: List[Tuple[str, int, SourcePump]] = []
        self._final_watermarks: List[float] = []
        self._broadcast_wm: Optional[float] = None
        self._done = threading.Event()
        self._stop = threading.Event()
        #: a run() loop drives the query: stop(wait=True) may wait on it
        self._running = False
        #: the delta sinks, ``(component, task_index) -> sink``, upstream
        #: first; under ``processes`` they stay in the coordinator: their
        #: subscriptions hold live condition variables and must survive
        #: any worker crash
        self._sinks: Dict[Tuple[str, int], DeltaSink] = {
            (name, task_index): task
            for name in topology.topological_order()
            for task_index, task in enumerate(self.cluster.tasks(name))
            if isinstance(task, DeltaSink)
        }
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
        #: full rounds since the last commit: a round counts as the raw
        #: rows it polled over ``batch_size`` per source it polled, at
        #: most 1, so a paced trickle does not checkpoint every few rows
        self._rounds_since_checkpoint = 0.0
        self._round_rows = 0
        self._round_capacity = 1
        self._recoveries = 0
        #: what entered the dataplane since the last checkpoint, logged
        #: before it is driven (``processes`` only): a worker that dies
        #: mid-delivery gets it again from the replay
        self._log = ChangeLog()
        self._pool: Optional[ResidentWorkerPool] = None
        if executor == "processes":
            # forked on first use (_start_pool), not here; the cluster
            # hands the pool the turns of every component it owns
            self._pool = self.cluster.pool = ResidentWorkerPool(
                topology, {name: self.cluster.tasks(name)
                           for name in topology.components},
                parallelism=parallelism,
                exclude={name for name, _task_index in self._sinks},
                observe=observe,
            )

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
        return next(iter(self._sinks.values()))

    def subscribe(self, **kwargs) -> Subscription:
        """Subscribe to the sink's delta feed.

        Keyword arguments (``max_buffer``, ``on_overflow``, ``tenant``,
        ``on_detach``) pass through to
        :meth:`~repro.streaming.deltas.DeltaSink.subscribe`."""
        return self.sink.subscribe(**kwargs)

    def snapshot(self) -> List[tuple]:
        """Current result multiset (sorted)."""
        if not self._sinks:
            raise ValueError("topology has no DeltaSink")
        return self.sink.snapshot()

    def stats_snapshot(self) -> Dict[str, object]:
        """Live progress snapshot, with delta totals read off the sinks."""
        snapshot = self.stats.snapshot()
        snapshot["deltas"] = sum(sink.delta_count
                                 for sink in self._sinks.values())
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
        """Tear a resident query down without waiting for exhaustion:
        the driver (the ``run()`` / ``step()`` loop) notices at its next
        round, stops polling, flushes the topology -- every subscription
        receives its final deltas and is closed -- and sets :attr:`done`.
        ``wait=True`` blocks until then (given a live driver: the
        broker's driver thread, or a ``run()`` in progress).  Idempotent."""
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
        """Between two pump rounds: run flat out while some source's last
        poll was full (more may be waiting), otherwise yield one idle
        tick.  A pump that spins on the trickle pays a whole round (a
        fan-out to every subscriber) per handful of rows, so the cost of
        a burst would depend on how producer and pump interleave."""
        if not (self.done or any(pump.has_more()
                                 for pump in self._pumps.values())):
            time.sleep(self.idle_sleep)

    # -- the pump round ----------------------------------------------------

    def step(self) -> bool:
        """One pump round (see the module docstring): the watermark
        advances at its quiescent point and the topology flushes once
        every source is exhausted; returns whether it made progress.

        Under ``processes`` the round is supervised: a worker death
        detected anywhere in it (EOF on a pipe, the liveness sweep)
        abandons the round and runs the recovery protocol; the change log
        guarantees nothing polled this round is lost and nothing already
        checkpointed is applied twice.  Anything else that escapes a round
        tears the query down (:meth:`_abort`) before it propagates."""
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
                    self._rounds_since_checkpoint += min(
                        1.0, self._round_rows / self._round_capacity)
                    if (progressed and self._log
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
        if self._stop.is_set():
            # forced teardown: stop polling, flush so subscriptions get
            # their final deltas and close, and declare the query done
            self._finish()
            return True
        self._progressed = False  # set by _polled
        if not self._unpolled:
            # a round cut short by a dead worker resumes with the
            # sources it had left, so they interleave as in a crash-free
            # run; a fresh one polls every live source
            self._unpolled = [(name, 0, pump)
                              for name, pump in self._pumps.items()
                              if name not in self._finished_sources]
            self._round_rows = 0
            self._round_capacity = self.batch_size * max(
                1, len(self._unpolled))
            self._log.begin_round()
        self.cluster.inject(self._unpolled, self.batch_size, self._polled)
        progressed = self._progressed
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

    def _polled(self, name: str, emissions, position):
        """One poll of source ``name``, seen before the cluster routes
        it: progress, stats, the change log (``processes``: the poll and
        its stream position are logged before they are driven), and the
        source's watermark or end."""
        pump = self._pumps[name]
        self._round_rows += pump.last_poll_raw
        if pump.last_poll_raw:
            self._progressed = True  # even a fully filtered batch advanced
        if emissions:
            self.stats.record_events(len(emissions), pump.source.max_event_time)
            if self._pool is not None:
                self._log.record_data(name, emissions, position)
        watermark = pump.watermark()
        if not pump.exhausted():
            if watermark is not None:
                self._source_wm.update(name, watermark)
        elif name not in self._finished_sources:
            # also reached by sources that were empty to begin with:
            # they must still mark themselves done, or the merged
            # watermark stays undefined for the whole run.  The final
            # watermark is recorded first -- it covers the last batch.
            self._progressed = True
            if watermark is not None and watermark != math.inf:
                self._source_wm.update(name, watermark)
                self._final_watermarks.append(watermark)
            self._finished_sources.add(name)
            self._source_wm.mark_done(name)

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
        if self._pool is not None:
            # logged before the broadcast, so a worker that dies
            # mid-fanout still sees the punctuation once: global restore
            # rewinds the survivors that already applied it, and the
            # replay re-delivers it to everyone
            self._log.record_watermark(merged)
        self.cluster.advance_watermark(merged)
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
        self.cluster.flush_bolts()
        if self._pool is not None:
            self._pool.stop()
        self._done.set()

    def _abort(self):
        """The one failure path, for whatever escaped a pump round on any
        executor: no worker process stays behind, every subscription is
        closed (a consumer blocked on the feed wakes up) and the query
        says it is over.  The caller re-raises."""
        self._done.set()
        if self._pool is not None:
            self._pool.stop()
        for sink in self._sinks.values():
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
        """The coordinator's own state for a manifest: sink multisets and
        the broadcast watermark -- everything the replay path needs
        rewound."""
        return pickle.dumps({
            "sinks": {key: sink.counts_snapshot()
                      for key, sink in sorted(self._sinks.items())},
            "wm": self._broadcast_wm,
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
        self._rounds_since_checkpoint = 0.0
        self._log.truncate()

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
        attached), and the change log re-applies the delta stream, from
        its logged positions, without re-logging it.
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
        coordinator = pickle.loads(manifest.coordinator)
        for key, counts in coordinator["sinks"].items():
            self._sinks[key].rollback(counts)
        self._broadcast_wm = coordinator["wm"]
        replayed_entries = replayed_rows = 0
        with self.cluster.unobserved():
            for kind, value in self._log.replay():
                if kind == _LOG_ROUND:
                    replayed_entries += len(value)
                    replayed_rows += sum(len(emissions)
                                         for _source, emissions, _at in value)
                    self.cluster.replay(value)
                else:
                    self._broadcast_wm = value
                    self.cluster.advance_watermark(value)
        self.checkpoints.record_recovery(list(respawned), replayed_entries,
                                         replayed_rows)
