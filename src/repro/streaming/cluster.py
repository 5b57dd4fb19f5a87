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
of ``ROUND_BUDGET`` rows (or a short poll, or ``ROUND_BUDGET //
batch_size`` polls the selection thinned), all polls routed into one
buffer, one level pass.  At ``batch_size=1`` each source is polled once
and its poll driven to quiescence before the next.  Both executors take
the same rounds.

Under ``processes`` the forked workers take the turns of the
join/aggregation components over long-lived pipes -- the fault-tolerant
shared-nothing deployment of the paper's Storm runtime -- and the
coordinator keeps everything a crash must not lose: source pumps, the
routing table, the delta sinks with their subscriptions, the change log
and the checkpoint store.  It logs every poll (with its stream position,
in its round), and the watermark that closes the round, before driving
it, checkpoints operator state incrementally every ``checkpoint_interval``
full rounds (hash-diffed, so unchanged partitions persist zero bytes; see
:mod:`repro.checkpoint`), and when a worker dies respawns it, restores
every worker from the latest snapshot, rolls the sinks back, and replays
the log round by round, unobserved, so the final snapshot is
byte-identical to a crash-free (and to a batch) run.  Partitioners that
adapt to the globally observed stream are refused up front
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
from repro.core.options import ExecutionOptions
from repro.engine.runner import SourcePump
from repro.obs import Observer
from repro.storm.cluster import LocalCluster
from repro.storm.executor import ExecutorError, ResidentWorkerPool, WorkerDied
from repro.storm.failures import FaultInjector
from repro.storm.metrics import CheckpointMetrics, StreamMetrics
from repro.storm.topology import Topology
from repro.streaming.deltas import DeltaSink, Subscription
from repro.streaming.watermarks import WatermarkTracker

#: seconds a pump yields between two rounds once it caught up with every
#: source (see :meth:`StreamingCluster._pace`)
IDLE_SLEEP = 0.0005

#: worker recoveries one query may run before it gives up: past that,
#: the failure is taken to be a crash loop, not transient
MAX_RECOVERIES = 5


def ensure_task_local_routing(topology: Topology):
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
                "the 'processes' streaming executor cannot run this "
                f"topology: edge {edge.source}->{edge.target} routes "
                f"through {edge.grouping.routing_description()}, whose "
                f"decisions adapt to the globally observed stream; a "
                f"recovery replay would route differently and silently "
                f"lose matches -- run this plan with executor='inline'"
            )


class StreamingCluster:
    """A continuously running topology over push sources.

    Each spout component of ``topology`` is one
    :class:`~repro.engine.runner.SourcePump` task over the push source
    that feeds it.  ``options`` are resolved
    (:meth:`~repro.core.options.ExecutionOptions.resolve`) and applied as
    they are: ``batch_size`` per poll, ``executor``, ``parallelism``,
    ``columnar``, ``checkpoint_interval`` and ``observe``.  Use
    :meth:`subscribe` before running to observe deltas, :meth:`run` (or
    repeated :meth:`step`) to drive the query, and :meth:`snapshot` for
    the current result multiset.
    """

    def __init__(self, topology: Topology, options: ExecutionOptions, *,
                 clock: Callable[[], float] = time.monotonic,
                 checkpoint_dir: Optional[str] = None,
                 fault_injector: Optional[FaultInjector] = None):
        if options.executor == "processes":
            ensure_task_local_routing(topology)
        self.topology = topology
        #: the resolved execution options the query runs under
        #: (:meth:`ExecutionOptions.resolve`), applied as they are
        self.options = options
        self.cluster = LocalCluster(topology)
        self.cluster.apply(options)
        #: each spout component's one task: the pump its rounds poll
        self._pumps: Dict[str, SourcePump] = {}
        for name, spec in topology.components.items():
            if not spec.is_spout:
                continue
            pump = self.cluster.task(name, 0)
            if spec.parallelism != 1 or not isinstance(pump, SourcePump):
                raise ValueError(
                    f"streaming spout {name!r} must be one SourcePump "
                    f"task, not {spec.parallelism} "
                    f"{type(pump).__name__} task(s)")
            self._pumps[name] = pump
        self.metrics = self.cluster.metrics
        #: the inner cluster's registry: this topology's one export path
        self.registry = self.cluster.registry
        self.stats = StreamMetrics(clock=clock)
        self.registry.register_collector(self.stats.collect)
        #: one Observer per observed run: the inner cluster's, which times
        #: every batch it drives; None = observe='off'
        self.observer: Optional[Observer] = self.cluster.observer
        self._source_wm = WatermarkTracker()
        for name in self._pumps:
            self._source_wm.register(name)
        # punctuation is sound only when every source carries event time:
        # a timestamp-less source's rows can join against stored state and
        # resurrect old event times, so no promise can be made for it
        self._event_time = all(
            pump.source.has_event_time() for pump in self._pumps.values()
        )
        #: the pumps the current round has still to poll, as the
        #: cluster's rounds take them: ``(name, 0, pump)``
        self._unpolled: List[Tuple[str, int, SourcePump]] = []
        self._final_watermarks: List[float] = []
        self._applied_wm: Optional[float] = None
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
        if options.executor == "processes":
            # forked on first use (_start_pool), not here; the cluster
            # hands the pool the turns of every component it owns
            self._pool = self.cluster.pool = ResidentWorkerPool(
                topology, {name: self.cluster.tasks(name)
                           for name in topology.components},
                parallelism=options.parallelism,
                exclude={name for name, _task_index in self._sinks},
                observe=options.observe,
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
        snapshot["late_rows"] = dict(self.metrics.late_rows)
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
            time.sleep(IDLE_SLEEP)

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
                            >= self.options.checkpoint_interval):
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
                              if not self._source_wm.is_done(name)]
            self._round_rows = 0
            self._round_capacity = self.options.batch_size * max(
                1, len(self._unpolled))
            self._log.begin_round()
        self.cluster.inject(self._unpolled, self.options.batch_size,
                            self._polled)
        progressed = self._progressed
        if self._event_time and self._advance_watermark(
                self._source_wm.merged()):
            progressed = True
        if self._source_wm.all_done():
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
        elif not self._source_wm.is_done(name):
            # also reached by sources that were empty to begin with:
            # they must still mark themselves done, or the merged
            # watermark stays undefined for the whole run.  The final
            # watermark is recorded first -- it covers the last batch.
            self._progressed = True
            if watermark is not None and watermark != math.inf:
                self._source_wm.update(name, watermark)
                self._final_watermarks.append(watermark)
            self._source_wm.mark_done(name)

    def _advance_watermark(self, merged: Optional[float]) -> bool:
        """Punctuate every bolt task with a *finite* watermark advance.

        ``inf`` (no live input constrains event time) is never used to
        expire windows: end-of-stream closure is the flush's job, and
        expiring the trailing sliding window early would diverge from the
        batch engine's final snapshot."""
        if merged is None or merged == math.inf:
            return False
        if self._applied_wm is not None and merged <= self._applied_wm:
            return False
        self._applied_wm = merged
        self.stats.record_watermark(merged)
        if self._pool is not None:
            # logged before it is driven, so a worker that dies in the
            # punctuation pass still sees it once: global restore rewinds
            # the survivors that already applied it, and the replay
            # re-delivers it to everyone
            self._log.close_round(merged)
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
        the applied watermark -- everything the replay path needs
        rewound."""
        return pickle.dumps({
            "sinks": {key: sink.counts_snapshot()
                      for key, sink in sorted(self._sinks.items())},
            "wm": self._applied_wm,
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
            if self._recoveries > MAX_RECOVERIES:
                raise ExecutorError(
                    f"giving up after {MAX_RECOVERIES} worker "
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
        self._applied_wm = coordinator["wm"]
        replayed_entries = replayed_rows = 0
        with self.cluster.unobserved():
            for polls, watermark in self._log.replay():
                replayed_entries += len(polls)
                replayed_rows += sum(len(emissions)
                                     for _source, emissions, _at in polls)
                self.cluster.replay(polls)
                if watermark is not None:
                    self._applied_wm = watermark
                    self.cluster.advance_watermark(watermark)
        self.checkpoints.record_recovery(list(respawned), replayed_entries,
                                         replayed_rows)
