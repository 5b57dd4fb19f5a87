"""LocalCluster: executes a topology in-process.

One round schedule serves batch runs and streaming pumps alike, chosen
from ``batch_size`` alone.

**Rounds** -- ``batch_size > 1``.  A round pulls every
live source -- a spout task, on both engines a pump -- in
``batch_size`` pulls, source after source, until it has given its share
of :data:`ROUND_BUDGET` rows, a pull comes back short or it has been
pulled ``ROUND_BUDGET // batch_size`` times
(:meth:`LocalCluster._fill_round`, the one round-filling loop), routes
every pull into one :class:`~repro.storm.executor.WaveBuffer`, and then
runs the bolt tasks once each in topological order (one level pass), each
handed its deliveries merged per ``(source, stream)`` run.  A joiner fed
16 batches of one relation executes one batch of their rows; results are
the same multiset, only the interleaving and the number of executed
batches differ.  ``run`` drains its spouts in rounds; a streaming pump
round (:meth:`LocalCluster.inject`) is one round, then a watermark.
A punctuation -- end of stream (:meth:`LocalCluster.flush_bolts`) or a
watermark -- is one more level pass, over an empty buffer, in which each
task is punctuated after its deliveries.

**Depth-first** -- ``batch_size=1``.  The same rounds, but each source
is pulled once, and each pull is pushed through the groupings on an
explicit work stack to quiescence before the next: Storm's per-tuple,
pipelined execution model (the one the paper contrasts with Spark
Streaming, section 8.1).  A punctuation visits the bolt tasks in the
same order, each task's emissions drained before the next is
punctuated.  No answer depends on the schedule, windowed ones included.

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
from repro.storm.executor import Router, StagedExecutor, WaveBuffer
from repro.storm.kernel import (
    END, deliver, pull, punctuate, run_level, stream_position)
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
        #: every bolt task in that order: the order a depth-first
        #: punctuation pass visits them in
        self._bolt_keys: List[Tuple[str, int]] = [
            (name, task_index)
            for name in self._bolt_order
            for task_index in range(topology.components[name].parallelism)
        ]
        #: static routing table over the topology's own groupings: routing
        #: is identical to the seed engine's per-dispatch edge walk
        self.router = Router(topology)
        for name, streams in self.router.counting.items():
            for task in self._tasks[name]:
                task.copies = {}
                task.copy_streams = streams
        #: the ``ResidentWorkerPool`` whose workers take the turns of
        #: the components they own (``processes``); None runs every task
        #: here
        self.pool = None
        #: ``batch_size > 1``: schedule by level (rounds, one level pass
        #: per drain) and route consecutive emissions on one stream as
        #: one micro-batch; off is the seed engine's per-tuple,
        #: depth-first dispatch
        self._coalesce = False
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

    def apply(self, options: ExecutionOptions):
        """Set the cluster up to run under resolved ``options`` -- the
        one step that turns knobs into cluster state, for ``run`` and
        for :class:`~repro.streaming.cluster.StreamingCluster` alike:
        coalescing (and with it the level schedule) at ``batch_size >
        1``, the columnar flag of every columnar-capable spout (they stay
        in this process on every executor), and an observer recording
        into the cluster's registry, next to its counters, unless
        ``observe`` is 'off'."""
        self._coalesce = options.batch_size > 1
        for _name, _task_index, spout in self._spouts:
            if hasattr(spout, "columnar"):
                spout.columnar = options.columnar
        if options.observe != "off":
            self._observer = Observer(options.observe, registry=self.registry)

    # -- execution ---------------------------------------------------------

    def run(self, options: ExecutionOptions = ExecutionOptions().resolve()
            ) -> TopologyMetrics:
        """Drain all spouts, then flush bolts in topological order, under
        resolved ``options`` (:meth:`ExecutionOptions.resolve`; the
        default is the finite engine's: ``batch_size=1``, ``inline``).

        ``batch_size`` is the number of tuples pulled from each spout per
        round; 1 gives exact per-tuple interleaving.  Downstream batches
        derive from the spout batches but are not re-chunked: a bolt
        emitting more rows than ``batch_size`` forwards them as one batch.

        ``executor`` selects the backend: ``"inline"`` runs every task in
        this thread; ``"processes"`` spreads the bolt tasks over
        ``parallelism`` forked shared-nothing workers (see
        :mod:`repro.storm.executor`).  Both backends produce the same
        result multiset and per-component totals, with ``columnar`` on
        or off.
        """
        self.apply(options)
        started = time.perf_counter()
        try:
            if options.executor == "inline":
                return self._run_to_end(options.batch_size)
            return StagedExecutor(self, options.parallelism).run(
                batch_size=options.batch_size)
        finally:
            self.metrics.elapsed = time.perf_counter() - started

    def _run_to_end(self, batch_size):
        """Pull every spout dry, then flush: rounds on the pool or where
        the level schedule holds, depth-first otherwise."""
        if self._coalesce or self.pool is not None:
            self._pull_rounds(self._spouts, batch_size)
        else:
            active = self._spouts
            while active:
                active = self._fill_round(list(active), batch_size)
        self.flush_bolts()
        return self.metrics

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
                pool.run_level(
                    name, [None if name == head else self._turn(buffer, name)
                           for buffer in buffers],
                    router.route, buffers, self.metrics, None)
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
        :data:`ROUND_BUDGET` rows, a pull came back short, or it was
        pulled ``ROUND_BUDGET // batch_size`` times (a source whose
        rows the selection all rejects still yields its turn), each
        pull routed into ``buffer``; without one each source is pulled
        once and the pull drained at once.  A pull the selection
        emptied is not short: the source's ``has_more`` decides, and
        ``exhausted`` whether it stays live.  ``pending`` is consumed
        front to back (a round cut short by a dead worker resumes with
        the rest); ``polled(component, emissions, position)`` sees every
        pull before it is routed.  Returns the sources not yet
        exhausted."""
        route = self.router.route
        if buffer is not None and pending:
            share = max(1, ROUND_BUDGET // len(pending))
            pulls = max(1, ROUND_BUDGET // batch_size)
        else:
            share = pulls = 1
        live = []
        while pending:
            name, task_index, source = entry = pending.pop(0)
            pulled, more, left = 0, True, pulls
            while more and pulled < share and left:
                left -= 1
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
            if not source.exhausted():
                live.append(entry)
        return live

    # -- external drivers (continuous runtime) -----------------------------

    def inject(self, pending, batch_size: int, polled):
        """One pump round of a resident topology (the push-based entry
        point of :class:`repro.streaming.cluster.StreamingCluster`) over
        its live sources ``pending``, ``(component, 0, source)``: a
        round of the level schedule where it holds, one pull per source
        driven to quiescence otherwise (see :meth:`_fill_round`)."""
        buffer = WaveBuffer() if self._coalesce else None
        self._fill_round(pending, batch_size, buffer, polled)
        if buffer:  # an idle round (nothing polled) runs no level pass
            self._level_pass(buffer)

    def replay(self, polls):
        """Drive one logged pump round's polls ``(component, emissions,
        position)`` again as :meth:`inject` drove them, so a recovered
        run executes the batches a crash-free run executes; no source
        hop is counted."""
        buffer = WaveBuffer() if self._coalesce else None
        for source, emissions, position in polls:
            if buffer is None:
                self._drain(source, emissions, position)
            else:
                buffer.add(self.router.route(source, emissions, position))
        if buffer:
            self._level_pass(buffer)

    def advance_watermark(self, watermark: float):
        """A punctuation pass of one watermark: every windowed task
        expires or closes its windows (see :meth:`_punctuation_pass`)."""
        self._punctuation_pass(watermark)

    def flush_bolts(self):
        """End of stream: a punctuation pass of every bolt's ``finish()``
        -- upstream components finish before downstream ones, so a
        snapshot aggregation flushes only after all its input arrived."""
        self._punctuation_pass(END)

    def _punctuation_pass(self, punctuation):
        """Punctuate every bolt task, upstream components first, each
        after the deliveries its upstream's punctuations caused
        (:func:`~repro.storm.kernel.punctuate`).  By level -- where the
        level schedule or the pool holds -- one pass over an empty buffer
        (a sink below four aggregation tasks executes one batch);
        depth-first, each task's emissions are drained before the next
        task is punctuated."""
        if self._coalesce or self.pool is not None:
            self._level_pass(WaveBuffer(), punctuation)
            return
        for name, task_index in self._bolt_keys:
            task = self._tasks[name][task_index]
            emissions = punctuate(task, name, task_index, punctuation,
                                  self.metrics)
            if emissions:
                self._unwind(name, emissions, stream_position(
                    task, task_index, emissions), None)

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
               position: Tuple[int, Dict[str, int], Optional[List[int]]], ctx=None):
        """Route one component's emissions, from stream ``position``, and
        run them, and everything they cause downstream, to exhaustion:
        one level pass (always on the pool), or depth-first where that
        schedule is kept.  ``ctx`` is the span context of the hop that
        produced the emissions (None unless the run is traced, and for
        punctuation batches).  No source hop is counted here."""
        if self._coalesce or self.pool is not None:
            buffer = WaveBuffer()
            buffer.add(self.router.route(source, emissions, position), ctx)
            self._level_pass(buffer)
        else:
            self._unwind(source, emissions, position, ctx)

    def _unwind(self, source: str, emissions: List[Tuple[str, tuple]],
                position: Tuple[int, Dict[str, int], Optional[List[int]]], ctx):
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
        return [(task_index, task, buffer.pop((name, task_index)))
                for task_index, task in enumerate(self._tasks[name])]

    def _level_pass(self, buffer: WaveBuffer, punctuation=None):
        """Run every bolt component once, upstream first, on what
        ``buffer`` holds for its tasks, then the ``punctuation`` (if any);
        emissions route back into the buffer for the components still to
        come (every edge goes forward in topological order, so one pass
        empties it).  A component's turn is the same call on the pool's
        workers when they own its tasks,
        :func:`~repro.storm.kernel.run_level` here otherwise."""
        observer, pool = self._observer, self.pool
        route = self.router.route
        queue = "inline" if pool is None else "processes"
        for name in self._bolt_order:
            if observer is not None and buffer:
                observer.on_queue_depth(queue, buffer.depth())
            work = self._turn(buffer, name)
            if pool is not None and pool.owner(name, 0) is not None:
                pool.run_level(name, [work], route, [buffer], self.metrics,
                               observer, punctuation)
            else:
                run_level(name, work, route, buffer, self.metrics, observer,
                          punctuation)
