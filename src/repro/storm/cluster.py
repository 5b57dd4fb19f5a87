"""LocalCluster: executes a topology to completion in-process.

The inline loop has two schedules, chosen from what the run itself shows
and never from an option.

**Depth-first** -- ``batch_size=1``, ``max_tuples`` runs, and any topology
with a task whose state depends on arrival order (a windowed join or
aggregation, :attr:`~repro.storm.topology.Bolt.order_sensitive`).  Tuples
are pulled from spouts round-robin (interleaving the sources the way
concurrent spout tasks would) and each pull is pushed through the stream
groupings as ``(component, stream, rows)`` micro-batches on an explicit
work stack to quiescence -- no recursion, so arbitrarily deep topologies
run without hitting the interpreter's recursion limit.  ``batch_size=1``
reproduces Storm's per-tuple, pipelined execution model exactly (the
model the paper contrasts with Spark Streaming, section 8.1): every
emission is routed individually and the work stack unwinds in the same
order as the seed engine's recursive dispatch.  ``max_tuples`` defines
its prefix by this pull order, and a window expires state in it.

**Rounds** -- everything else at ``batch_size > 1``.  A round pulls up to
:data:`ROUND_BUDGET` rows from the spouts in ``batch_size`` pulls, spout
after spout, routes them into one
:class:`~repro.storm.executor.WaveBuffer`, and then runs the bolt tasks
once each in topological order (one level pass,
:func:`repro.storm.kernel.run_level` per component), every task handed
its deliveries merged per ``(source, stream)`` run.  A joiner fed 16
spout batches of one relation executes one batch of their rows;
per-tuple *results* are unchanged (the engine's operators are
order-insensitive up to the final multiset), only the interleaving and
the number of executed batches differ.

``run(executor=...)`` selects the execution backend: ``inline`` (this
module's single-threaded loop, the default), or the shared-nothing
``processes`` backend of :mod:`repro.storm.executor`, which runs these
same rounds with the bolt tasks on forked resident workers: each
component's turn in a level pass is one command to the workers that own
its tasks instead of :func:`~repro.storm.kernel.run_level`.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.core.options import ExecutionOptions
from repro.obs import MetricsRegistry, Observer
from repro.storm.executor import (
    ExecutorError,
    Router,
    StagedExecutor,
    WaveBuffer,
)
from repro.storm.kernel import deliver, pull, run_level, source_hop
from repro.storm.metrics import TopologyMetrics
from repro.storm.topology import Bolt, Spout, Topology, TopologyError


#: rows one inline round pulls from the spouts (all of them together)
#: before the bolts run.  Large enough that a joiner sees a few thousand
#: rows per relation and pays its per-batch costs once a round; a bound,
#: so a high-fan-out join cannot buffer its whole output the way an
#: unbounded level barrier would.  Chosen from the sweep in CHANGES.md
#: (PR 17).
ROUND_BUDGET = 32_768


class LocalCluster:
    """Instantiates every task of a topology and runs it to completion."""

    def __init__(self, topology: Topology):
        self.topology = topology
        self.metrics = TopologyMetrics()
        #: the topology's one export surface: every counter class of the
        #: run registers here once, and the observer (if any) records here
        self.registry = MetricsRegistry()
        self.registry.register_collector(self.metrics.collect)
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
        # static routing table over the topology's own groupings: routing
        # is identical to the seed engine's per-dispatch edge walk
        self._router = Router(topology)
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

        After a ``processes`` run this returns the final task state
        shipped back from the owning worker."""
        return self._tasks[component][index]

    def tasks(self, component: str) -> List[object]:
        return list(self._tasks[component])

    @property
    def observer(self) -> Optional[Observer]:
        return self._observer

    def observe(self, level: str):
        """Run observed at ``level`` ('metrics' | 'trace'): the observer
        records into the cluster's registry, next to its counters."""
        observer = self._observer = Observer(level, registry=self.registry)
        # tell the skew gauge which edges are key-partitioned: one
        # entry per component, folding all of its in-edge groupings
        groupings: Dict[str, Tuple[str, bool]] = {}
        for name in self.topology.components:
            for edge in self.topology.out_edges(name):
                description, possible = groupings.get(
                    edge.target, ("", False))
                label = edge.grouping.routing_description()
                if label not in description.split("+"):
                    description = (f"{description}+{label}"
                                   if description else label)
                groupings[edge.target] = (
                    description, possible or edge.grouping.skew_possible())
        observer.set_groupings(groupings)

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
            return self._run_inline(max_tuples, batch_size,
                                    resolved.executor, parallelism)
        finally:
            self.metrics.elapsed = time.perf_counter() - started

    def _run_inline(self, max_tuples, batch_size, executor, parallelism):
        if executor == "processes":
            if max_tuples is not None:
                raise ExecutorError(
                    "max_tuples is only supported by the inline executor "
                    "(its prefix is cut by the per-batch depth-first pulls; "
                    "'processes' runs rounds)"
                )
            return StagedExecutor(self, parallelism).run(batch_size=batch_size)
        self.set_coalescing(batch_size > 1)
        if max_tuples is not None:
            # the prefix is defined by the per-batch round-robin pulls
            self._waves = False
        if self._waves:
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
                emissions, ctx, more = pull(spout, name, task_index, limit,
                                            self.metrics, self._observer)
                if not emissions:
                    continue
                pulled += len(emissions)
                self._drain(name, emissions, ctx)
                if max_tuples is not None and pulled >= max_tuples:
                    return False
                if more:
                    still_active.append((name, task_index, spout))
            active = still_active
        return True

    def _pull_rounds(self, active, batch_size, pool=None):
        """Rounds of :data:`ROUND_BUDGET` rows: every active spout pulls
        its share in ``batch_size`` pulls -- spout after spout, so a
        joiner's deliveries from one relation are adjacent and merge --
        and one level pass executes what was routed (on ``pool``'s
        workers if one is given).

        On ``pool`` the next round is pulled and routed while the workers
        run this round's first component (whose input is all spout rows,
        so this round's pulls made all of it) -- unless the run is
        observed or a spout edge shares routing state with a bolt edge.
        The routing order changes only between groupings that share
        nothing, so every task executes the batches it executes inline.
        """
        overlap = (pool is not None and self._observer is None
                   and self._router.spouts_route_alone
                   and bool(self._bolt_order))
        # the round whose first component is running on the workers: its
        # buffer and the handle of its submitted turn
        running = submitted = None
        while active:
            try:
                buffer, active = self._pull_round(active, batch_size)
            finally:
                if submitted is not None:
                    # drained even when the pull raised: no reply is left
                    # in a pipe for the next command to trip over
                    pool.finish_level(submitted, self._router.route,
                                      running, self.metrics, None)
            if submitted is not None:
                self._level_pass(running, pool=pool, first=1)
                submitted = None
            if overlap and active:
                head = self._bolt_order[0]
                running = buffer
                submitted = pool.submit_level(head, self._turn(buffer, head))
            else:
                self._level_pass(buffer, pool=pool)

    def _pull_round(self, active, batch_size):
        """One round's pulls, routed into a fresh buffer; returns it and
        the spouts that may have rows left."""
        route = self._router.route
        buffer = WaveBuffer()
        share = max(1, ROUND_BUDGET // len(active))
        still_active = []
        for name, task_index, spout in active:
            pulled, more = 0, True
            while more and pulled < share:
                emissions, ctx, more = pull(
                    spout, name, task_index, batch_size, self.metrics,
                    self._observer)
                if emissions:
                    pulled += len(emissions)
                    buffer.add(route(name, emissions), ctx)
            if more:
                still_active.append((name, task_index, spout))
        return buffer, still_active

    def _set_columnar(self, enabled: bool):
        """Flag every columnar-capable spout before draining starts.

        The spouts stay in this process on every executor, so the flag
        is read where it is set.
        """
        for name, spec in self.topology.components.items():
            if not spec.is_spout:
                continue
            for instance in self._tasks[name]:
                if hasattr(instance, "columnar"):
                    instance.columnar = enabled

    # -- external drivers (continuous runtime) -----------------------------

    def set_coalescing(self, coalesce: bool):
        """Batch-mode routing toggle for external drivers.

        With coalescing on, consecutive emissions on one stream are routed
        as a single micro-batch and -- unless a task's state is
        arrival-order-sensitive -- every drain runs as one level pass over
        a :class:`~repro.storm.executor.WaveBuffer`; off reproduces the
        seed engine's per-tuple dispatch order.  ``run`` derives this from
        its ``batch_size``; push-based drivers (the streaming pump) set it
        once up front."""
        self._coalesce = coalesce
        self._waves = coalesce and not self._order_sensitive

    def inject(self, source: str, emissions: List[Tuple[str, tuple]],
               task_index: int = 0):
        """Route externally produced emissions and run them to quiescence.

        The push-based entry point of the continuous runtime
        (:class:`repro.streaming.cluster.StreamingCluster`): each arriving
        micro-batch of a *resident* topology is fed here, attributed to
        task ``task_index`` of component ``source``, and driven through
        the same drain as spout batches."""
        if not emissions:
            return
        # a new source batch starts a new trace; watermark-driven
        # injections (bolt components) stay untraced punctuations
        is_source = self.topology.components[source].is_spout
        ctx = source_hop(source, task_index, len(emissions), 0.0, self.metrics,
                         self._observer if is_source else None)
        self._drain(source, emissions, ctx)

    def advance_watermark(self, watermark: float):
        """Apply one watermark punctuation to every windowed bolt task, in
        topological order, and run the expirations to quiescence."""
        for name, task_index in self._bolt_keys:
            hook = getattr(self._tasks[name][task_index],
                           "advance_watermark", None)
            emissions = hook(watermark) if hook is not None else None
            if emissions:
                self.inject(name, emissions, task_index=task_index)

    def flush_bolts(self):
        """Run every bolt's ``finish()`` in topological order (end of
        stream): upstream components finish before downstream ones, so a
        snapshot aggregation flushes only after all its input arrived.

        By level, one component's tasks flush through one buffer (a sink
        below four aggregation tasks executes one batch); depth-first,
        each finishing task is drained on its own."""
        if self._waves:
            self._level_pass(WaveBuffer(), finish=True)
            return
        for name, task_index in self._bolt_keys:
            emissions = self._tasks[name][task_index].finish()
            if emissions:
                self.metrics.record_emit(name, task_index, len(emissions))
                # flush emissions are end-of-stream punctuations, not
                # part of any source batch's trace
                self._drain(name, emissions)

    # -- work queue --------------------------------------------------------

    def _drain(self, source: str, emissions: List[Tuple[str, tuple]],
               ctx=None):
        """Route one component's emissions and run them, and everything
        they cause downstream, to exhaustion: one level pass, or
        depth-first where that schedule is kept.  ``ctx`` is the span
        context of the hop that produced the emissions (None unless the
        run is traced, and for punctuation batches)."""
        if self._waves:
            buffer = WaveBuffer()
            buffer.add(self._router.route(source, emissions), ctx)
            self._level_pass(buffer)
        else:
            self._unwind(source, emissions, ctx)

    def _unwind(self, source: str, emissions: List[Tuple[str, tuple]], ctx):
        """The depth-first schedule, iteratively on an explicit stack.

        In per-tuple mode every emission is routed individually (exactly
        the seed engine's recursive dispatch order); in batch mode
        consecutive emissions on the same stream are routed as one batch.
        The stack pops work in generation order; ``ctxs`` holds, entry for
        entry, the span context of the hop that produced it."""
        tasks = self._tasks
        metrics = self.metrics
        observer = self._observer
        route = self._router.route
        coalesce = self._coalesce
        stack = route(source, emissions, coalesce)[::-1]
        ctxs = [ctx] * len(stack)
        while stack:
            if observer is not None:
                observer.on_queue_depth("inline", len(stack))
            target, task, source, stream, rows = stack.pop()
            emissions, child = deliver(tasks[target][task], target, task,
                                       source, stream, rows, ctxs.pop(),
                                       metrics, observer)
            if emissions:
                routed = route(target, emissions, coalesce)
                stack.extend(reversed(routed))
                ctxs.extend([child] * len(routed))

    def _turn(self, buffer: WaveBuffer, name: str):
        """One component's work in a level pass: each task, in index
        order, with its deliveries popped from ``buffer``."""
        return ((task_index, task, buffer.pop((name, task_index)))
                for task_index, task in enumerate(self._tasks[name]))

    def _level_pass(self, buffer: WaveBuffer, finish: bool = False,
                    pool=None, first: int = 0):
        """Run every bolt component once, upstream first, on what
        ``buffer`` holds for its tasks; emissions route back into the
        buffer for the components still to come (every edge goes
        forward in topological order, so one pass empties it).  With
        ``finish`` each component is flushed on its turn.  A component's
        turn is :func:`~repro.storm.kernel.run_level` here, or the same
        call on ``pool``'s workers (the batch ``processes`` executor).
        ``first`` skips the components whose turn has already run."""
        observer = self._observer
        route = self._router.route
        queue = "inline" if pool is None else "processes"
        for name in self._bolt_order[first:]:
            if observer is not None and buffer:
                observer.on_queue_depth(queue, buffer.depth())
            work = self._turn(buffer, name)
            if pool is None:
                run_level(name, work, route, buffer, self.metrics, observer,
                          finish)
            else:
                pool.run_level(name, work, route, buffer, self.metrics,
                               observer, finish)
