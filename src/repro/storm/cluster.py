"""LocalCluster: executes a topology in-process.

One round schedule serves batch runs and streaming pumps alike, chosen
from what the run itself shows and never from an option.

**Rounds** -- ``batch_size > 1``, unless a task's state depends on
arrival order (a windowed join or aggregation,
:attr:`~repro.storm.topology.Bolt.order_sensitive`).  A round pulls every
live source -- a spout, or a streaming pump -- in ``batch_size`` pulls,
source after source, until it has given its share of
:data:`ROUND_BUDGET` rows or a pull comes back short
(:meth:`LocalCluster._fill_round`, the one round-filling loop), routes
every pull into one :class:`~repro.storm.executor.WaveBuffer`, and then
runs the bolt tasks once each in topological order (one level pass), each
handed its deliveries merged per ``(source, stream)`` run.  A joiner fed
16 batches of one relation executes one batch of their rows; results are
the same multiset, only the interleaving and the number of executed
batches differ.  ``run`` drains its spouts in rounds; a streaming pump
round (:meth:`LocalCluster.inject`) is one round, then a watermark.

**Depth-first** -- ``batch_size=1``, ``max_tuples`` runs and
order-sensitive topologies.  Each pull (a pump round's: one per source)
is pushed through the groupings on an explicit work stack to quiescence
before the next.  ``batch_size=1`` reproduces Storm's per-tuple,
pipelined execution model (the one the paper contrasts with Spark
Streaming, section 8.1); ``max_tuples`` cuts its prefix by this pull
order, and a window expires state in it.

The cluster is the one coordinator driver of both executors.  Under
``processes`` it holds a :class:`~repro.storm.executor.ResidentWorkerPool`
(set by a batch run's :class:`~repro.storm.executor.StagedExecutor` and
by a :class:`~repro.streaming.cluster.StreamingCluster`) and every drive
is a level pass: a component's turn is one command to the workers that
own its tasks instead of :func:`~repro.storm.kernel.run_level`, which
takes the turns of the components the coordinator keeps (streaming's
delta sinks).  A streaming pump takes the same rounds on both executors.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.core.options import ExecutionOptions
from repro.obs import MetricsRegistry, Observer
from repro.storm.executor import (
    ExecutorError,
    Router,
    StagedExecutor,
    WaveBuffer,
)
from repro.storm.kernel import (
    deliver, pull, run_level, source_hop, stream_position)
from repro.storm.metrics import TopologyMetrics
from repro.storm.topology import Bolt, Spout, Topology, TopologyError


#: rows one round pulls from its sources (all of them together) before
#: the bolts run, batch or streaming.  Large enough that a joiner sees a
#: few thousand rows per relation and pays its per-batch costs once a
#: round; a bound, so a high-fan-out join cannot buffer its whole output
#: the way an unbounded level barrier would.  Chosen from the budget
#: sweep recorded in CHANGES.md.
ROUND_BUDGET = 32_768

#: rounds a batch ``processes`` run may pull and route before its workers
#: fork, so that they inherit the first component's input instead of
#: receiving it over a pipe (:meth:`LocalCluster._pull_rounds`): what the
#: coordinator holds at once stays bounded by this many rounds' rows
INHERITED_ROUNDS = 4


def _skew_groupings(topology: Topology) -> Dict[str, str]:
    """The ``grouping`` label of each component's ``partition_skew``
    gauge: the groupings of its in-edges, ``+``-joined, for every
    component one of whose in-edges can skew
    (:meth:`~repro.storm.groupings.Grouping.skew_possible`)."""
    labels = {}
    for name in topology.components:
        edges = topology.in_edges(name)
        if any(edge.grouping.skew_possible() for edge in edges):
            labels[name] = "+".join(dict.fromkeys(
                edge.grouping.routing_description() for edge in edges))
    return labels


class LocalCluster:
    """Instantiates every task of a topology and runs it to completion."""

    def __init__(self, topology: Topology):
        self.topology = topology
        self.metrics = TopologyMetrics()
        #: the topology's one export surface: every counter class of the
        #: run registers here once, and the observer (if any) records here
        self.registry = MetricsRegistry()
        self.registry.register_collector(
            partial(self.metrics.collect, _skew_groupings(topology)))
        self._tasks: Dict[str, List[object]] = {}
        for name, spec in topology.components.items():
            instances = []
            for task_index in range(spec.parallelism):
                instance = spec.factory(task_index, spec.parallelism)
                if spec.is_spout:
                    if not isinstance(instance, Spout):
                        raise TopologyError(f"{name!r} factory did not return a Spout")
                    instance.open(task_index, spec.parallelism)
                else:
                    if not isinstance(instance, Bolt):
                        raise TopologyError(f"{name!r} factory did not return a Bolt")
                    instance.prepare(task_index, spec.parallelism)
                instances.append(instance)
            self._tasks[name] = instances
            self.metrics.register(name, spec.parallelism)
        #: every spout task, ``(component, index, spout)``: what the
        #: source pulls walk (they stay here on every executor)
        self._spouts: List[Tuple[str, int, Spout]] = [
            (name, task_index, instance)
            for name, spec in topology.components.items() if spec.is_spout
            for task_index, instance in enumerate(self._tasks[name])
        ]
        #: bolt components, upstream first: the order of a level pass
        self._bolt_order: List[str] = [
            name for name in topology.topological_order()
            if not topology.components[name].is_spout
        ]
        #: every bolt task in that order: the order punctuations
        #: (watermarks, the depth-first end-of-stream flush) visit them in
        self._bolt_keys: List[Tuple[str, int]] = [
            (name, task_index)
            for name in self._bolt_order
            for task_index in range(topology.components[name].parallelism)
        ]
        #: static routing table over the topology's own groupings: routing
        #: is identical to the seed engine's per-dispatch edge walk
        self.router = Router(topology)
        #: the ``ResidentWorkerPool`` whose workers take the turns of
        #: the components they own (``processes``); None runs every task
        #: here
        self.pool = None
        #: some task's state depends on the order its input arrives in:
        #: the whole topology keeps the depth-first schedule
        self._order_sensitive = any(
            self._tasks[name][task_index].order_sensitive
            for name, task_index in self._bolt_keys)
        self._coalesce = False
        #: schedule by level (rounds, one level pass per drain) instead
        #: of depth-first; see set_coalescing
        self._waves = False
        #: per-run observability context; None = observe='off': no
        #: observer object, one ``is None`` test per executed batch
        self._observer: Optional[Observer] = None

    def task(self, component: str, index: int):
        """Access a live task instance (tests, result extraction).

        After a ``processes`` run this returns what the task shipped
        back from its worker (:meth:`~repro.storm.topology.Bolt.export`:
        the task itself, or a joiner's counters)."""
        return self._tasks[component][index]

    def tasks(self, component: str) -> List[object]:
        return list(self._tasks[component])

    @property
    def observer(self) -> Optional[Observer]:
        return self._observer

    def observe(self, level: str):
        """Run observed at ``level`` ('metrics' | 'trace'): the observer
        records into the cluster's registry, next to its counters."""
        self._observer = Observer(level, registry=self.registry)

    # -- execution ---------------------------------------------------------

    def run(self, max_tuples: Optional[int] = None, batch_size: int = 1,
            executor: str = "inline", parallelism: Optional[int] = None,
            columnar: Optional[bool] = None,
            observe: Optional[str] = None) -> TopologyMetrics:
        """Drain all spouts, then flush bolts in topological order.

        ``batch_size`` is the number of tuples pulled from each spout per
        round; 1 gives exact per-tuple interleaving.  Downstream batches
        derive from the spout batches but are not re-chunked: a bolt
        emitting more rows than ``batch_size`` forwards them as one batch.

        ``executor`` selects the backend: ``"inline"`` (default) runs
        every task in this thread; ``"processes"`` spreads the bolt tasks
        over ``parallelism`` forked shared-nothing workers (see
        :mod:`repro.storm.executor`).  Both backends produce the same
        result multiset and per-component totals.

        ``columnar`` turns the columnar execution path on/off; the
        default (None) enables it for ``batch_size >= COLUMNAR_MIN_BATCH``
        -- below that the per-batch vector overhead outweighs the win, and
        ``batch_size=1`` keeps the seed engine's byte-identical path.
        """
        # ExecutionOptions.resolve is the single owner of the knob
        # defaults (incl. columnar-on-at-batch_size>=COLUMNAR_MIN_BATCH)
        resolved = ExecutionOptions(
            batch_size=batch_size, executor=executor,
            parallelism=parallelism, columnar=columnar,
            observe=observe).resolve()
        batch_size, columnar = resolved.batch_size, resolved.columnar
        if resolved.observe != "off" and self._observer is None:
            self.observe(resolved.observe)
        self._set_columnar(columnar)
        started = time.perf_counter()
        try:
            if resolved.executor == "inline":
                return self._run_to_end(max_tuples, batch_size)
            if max_tuples is not None:
                raise ExecutorError(
                    "max_tuples is only supported by the inline executor "
                    "(its prefix is cut by the per-batch depth-first pulls; "
                    "'processes' runs rounds)"
                )
            return StagedExecutor(self, parallelism).run(batch_size=batch_size)
        finally:
            self.metrics.elapsed = time.perf_counter() - started

    def _run_to_end(self, max_tuples, batch_size):
        """Pull every spout dry, then flush: rounds on the pool or where
        the level schedule holds, depth-first otherwise."""
        self.set_coalescing(batch_size > 1)
        if max_tuples is not None:
            # the prefix is defined by the per-batch round-robin pulls
            self._waves = False
        if self._waves or self.pool is not None:
            self._pull_rounds(self._spouts, batch_size)
        elif not self._pull_depth_first(self._spouts, batch_size, max_tuples):
            return self.metrics  # stopped at max_tuples: nothing flushes
        self.flush_bolts()
        return self.metrics

    def _pull_depth_first(self, active, batch_size, max_tuples) -> bool:
        """Round-robin over the spouts, one pull each, every pull driven
        to quiescence before the next.  Returns whether the spouts ran
        dry (False: stopped at ``max_tuples``)."""
        pulled = 0
        while active:
            still_active = []
            for name, task_index, spout in active:
                limit = batch_size
                if max_tuples is not None:
                    limit = min(limit, max_tuples - pulled)
                    if limit <= 0:
                        return False
                emissions, position, ctx, more = pull(
                    spout, name, task_index, limit, self.metrics,
                    self._observer)
                if not emissions:
                    continue
                pulled += len(emissions)
                self._drain(name, emissions, position, ctx)
                if max_tuples is not None and pulled >= max_tuples:
                    return False
                if more:
                    still_active.append((name, task_index, spout))
            active = still_active
        return True

    def _pull_rounds(self, active, batch_size):
        """Rounds until the spouts run dry, each one level pass (this
        starts the cluster's pool, if it has one).

        On the pool, when the run is unobserved and every edge routes
        task-locally, up to :data:`INHERITED_ROUNDS` rounds are pulled
        and routed before the workers fork: each inherits its tasks'
        deliveries to the first component, so they never cross a pipe,
        and runs those rounds' turns back to back; each later component
        then takes its turns of those rounds the same way, one command
        per worker.  Either way every task executes the batches it
        executes inline, and every row lands where it lands inline."""
        router, pool = self.router, self.pool
        if (pool is not None and self._observer is None
                and router.task_local and self._bolt_order):
            buffers = []
            while active and len(buffers) < INHERITED_ROUNDS:
                buffer, active = self._pull_round(active, batch_size)
                buffers.append(buffer)
            head = self._bolt_order[0]
            pool.start(head, [self._turn(buffer, head) for buffer in buffers])
            for name in self._bolt_order:
                pool.run_rounds(
                    name, [None if name == head else self._turn(buffer, name)
                           for buffer in buffers],
                    router.route, buffers, self.metrics)
        elif pool is not None:
            pool.start()
        while active:
            buffer, active = self._pull_round(active, batch_size)
            self._level_pass(buffer)

    def _pull_round(self, active, batch_size):
        """One round's pulls in a fresh buffer: ``(buffer, live spouts)``."""
        buffer = WaveBuffer()
        return buffer, self._fill_round(list(active), batch_size, buffer)

    def _fill_round(self, pending, batch_size, buffer=None, polled=None):
        """The one round-filling loop: every source of ``pending``,
        ``(component, index, spout)``, is pulled in ``batch_size`` pulls
        -- source after source, so a joiner's deliveries from one
        relation are adjacent and merge -- until it gave its share of
        :data:`ROUND_BUDGET` rows or a pull came back short, each pull
        routed into ``buffer``; without one each source is pulled once
        and the pull drained at once.  ``pending`` is consumed front to
        back (a round cut short by a dead worker resumes with the rest);
        ``polled(component, emissions, position)`` sees every pull before
        it is routed.  Returns the sources that may have rows left."""
        route = self.router.route
        share = (max(1, ROUND_BUDGET // len(pending))
                 if buffer is not None and pending else 1)
        live = []
        while pending:
            name, task_index, source = entry = pending.pop(0)
            pulled, more = 0, True
            while more and pulled < share:
                emissions, position, ctx, more = pull(
                    source, name, task_index, batch_size, self.metrics,
                    self._observer)
                if polled is not None:
                    polled(name, emissions, position)
                if not emissions:
                    continue
                pulled += len(emissions)
                if buffer is None:
                    self._drain(name, emissions, position, ctx)
                else:
                    buffer.add(route(name, emissions, position), ctx)
            if more:
                live.append(entry)
        return live

    def _set_columnar(self, enabled: bool):
        """Flag every columnar-capable spout before draining starts (the
        spouts stay in this process on every executor)."""
        for name, spec in self.topology.components.items():
            if not spec.is_spout:
                continue
            for instance in self._tasks[name]:
                if hasattr(instance, "columnar"):
                    instance.columnar = enabled

    # -- external drivers (continuous runtime) -----------------------------

    def set_coalescing(self, coalesce: bool):
        """Batch-mode toggle: on, consecutive emissions on one stream
        route as one micro-batch and -- unless a task's state is
        arrival-order-sensitive -- the rounds schedule holds; off is the
        seed engine's per-tuple dispatch.  ``run`` derives it from its
        ``batch_size``; the streaming pump sets it once up front."""
        self._coalesce = coalesce
        self._waves = coalesce and not self._order_sensitive

    def inject(self, pending, batch_size: int, polled):
        """One pump round of a resident topology (the push-based entry
        point of :class:`repro.streaming.cluster.StreamingCluster`) over
        its live sources ``pending``, ``(component, 0, source)``: a
        round of the level schedule where it holds, one pull per source
        driven to quiescence otherwise (see :meth:`_fill_round`)."""
        buffer = WaveBuffer() if self._waves else None
        self._fill_round(pending, batch_size, buffer, polled)
        if buffer is not None:
            self._level_pass(buffer)

    def replay(self, polls):
        """Drive one logged pump round's polls ``(component, emissions,
        position)`` again as :meth:`inject` drove them, so a recovered
        run executes the batches a crash-free run executes; no source
        hop is counted."""
        buffer = WaveBuffer() if self._waves else None
        for source, emissions, position in polls:
            if buffer is None:
                self._drain(source, emissions, position)
            else:
                buffer.add(self.router.route(source, emissions, position))
        if buffer is not None:
            self._level_pass(buffer)

    def advance_watermark(self, watermark: float):
        """Apply one watermark punctuation to every windowed bolt task and
        run the expirations to quiescence: the pool's tasks first, all
        punctuated by one broadcast, then the coordinator's in
        topological order, each hook's expirations drained before the
        next hook runs."""
        pool = self.pool
        if pool is not None:
            for name, _task_index, emissions, position in \
                    pool.broadcast_watermark(watermark):
                self._punctuate(name, emissions, position)
        for name, task_index in self._bolt_keys:
            if pool is not None and pool.owner(name, task_index) is not None:
                continue
            task = self._tasks[name][task_index]
            hook = getattr(task, "advance_watermark", None)
            emissions = hook(watermark) if hook is not None else None
            if emissions:
                self._punctuate(name, emissions,
                                stream_position(task, task_index, emissions))

    def _punctuate(self, name, emissions, position):
        """Count a watermark hook's emissions as a batch of ``name``'s
        and drive them, untraced, to quiescence."""
        source_hop(name, position[0], len(emissions), 0.0, self.metrics, None)
        self._drain(name, emissions, position)

    def flush_bolts(self):
        """Run every bolt's ``finish()`` in topological order (end of
        stream): upstream components finish before downstream ones, so a
        snapshot aggregation flushes only after all its input arrived.

        By level, one component's tasks flush through one buffer (a sink
        below four aggregation tasks executes one batch); depth-first,
        each finishing task is drained on its own."""
        if self._waves or self.pool is not None:
            self._level_pass(WaveBuffer(), finish=True)
            return
        for name, task_index in self._bolt_keys:
            task = self._tasks[name][task_index]
            emissions = task.finish()
            if emissions:
                self.metrics.record_emit(name, task_index, len(emissions))
                # flush emissions are end-of-stream punctuations, not
                # part of any source batch's trace
                self._drain(name, emissions,
                            stream_position(task, task_index, emissions))

    @contextmanager
    def unobserved(self):
        """Run what the block drives unobserved: a recovery replay
        re-executes batches whose spans and timings were recorded when
        they first ran."""
        observer, self._observer = self._observer, None
        try:
            yield
        finally:
            self._observer = observer

    # -- work queue --------------------------------------------------------

    def _drain(self, source: str, emissions: List[Tuple[str, tuple]],
               position: Tuple[int, Dict[str, int]], ctx=None):
        """Route one component's emissions, from stream ``position``, and
        run them, and everything they cause downstream, to exhaustion:
        one level pass (always on the pool), or depth-first where that
        schedule is kept.  ``ctx`` is the span context of the hop that
        produced the emissions (None unless the run is traced, and for
        punctuation batches).  No source hop is counted here."""
        if self._waves or self.pool is not None:
            buffer = WaveBuffer()
            buffer.add(self.router.route(source, emissions, position), ctx)
            self._level_pass(buffer)
        else:
            self._unwind(source, emissions, position, ctx)

    def _unwind(self, source: str, emissions: List[Tuple[str, tuple]],
                position: Tuple[int, Dict[str, int]], ctx):
        """The depth-first schedule, iteratively on an explicit stack.

        In per-tuple mode every emission is routed individually (exactly
        the seed engine's recursive dispatch order); in batch mode
        consecutive emissions on the same stream are routed as one batch.
        The stack pops work in generation order; ``ctxs`` holds, entry for
        entry, the span context of the hop that produced it."""
        tasks = self._tasks
        metrics = self.metrics
        observer = self._observer
        route = self.router.route
        coalesce = self._coalesce
        stack = route(source, emissions, position, coalesce)[::-1]
        ctxs = [ctx] * len(stack)
        while stack:
            if observer is not None:
                observer.on_queue_depth("inline", len(stack))
            target, index, source, stream, rows = stack.pop()
            task = tasks[target][index]
            emissions, child = deliver(task, target, index, source, stream,
                                       rows, ctxs.pop(), metrics, observer)
            if emissions:
                routed = route(target, emissions, stream_position(
                    task, index, emissions), coalesce)
                stack.extend(reversed(routed))
                ctxs.extend([child] * len(routed))

    def _turn(self, buffer: WaveBuffer, name: str):
        """One component's work in a level pass: each task, in index
        order, with its deliveries popped from ``buffer``."""
        return ((task_index, task, buffer.pop((name, task_index)))
                for task_index, task in enumerate(self._tasks[name]))

    def _level_pass(self, buffer: WaveBuffer, finish: bool = False):
        """Run every bolt component once, upstream first, on what
        ``buffer`` holds for its tasks; emissions route back into the
        buffer for the components still to come (every edge goes
        forward in topological order, so one pass empties it).  With
        ``finish`` each component is flushed on its turn.  A component's
        turn is the same call on the pool's workers when they own its
        tasks, :func:`~repro.storm.kernel.run_level` here otherwise."""
        observer, pool = self._observer, self.pool
        route = self.router.route
        queue = "inline" if pool is None else "processes"
        for name in self._bolt_order:
            if observer is not None and buffer:
                observer.on_queue_depth(queue, buffer.depth())
            work = self._turn(buffer, name)
            if pool is not None and pool.owner(name, 0) is not None:
                pool.run_level(name, work, route, buffer, self.metrics,
                               observer, finish)
            else:
                run_level(name, work, route, buffer, self.metrics, observer,
                          finish)
