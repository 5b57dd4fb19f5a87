"""Execution backends: shared-nothing parallel workers over micro-batches.

The :class:`~repro.storm.cluster.LocalCluster` runs a topology through one
of two interchangeable backends:

- ``inline`` -- the cluster's own single-threaded loop (the default;
  byte-identical to the seed per-tuple engine at ``batch_size=1``).
- ``processes`` -- forked worker processes exchanging *serialized*
  micro-batches over pipes: true shared-nothing scale-out across cores,
  the execution model of the paper's Storm deployment.  Requires the
  ``fork`` start method (Linux/macOS) and pickle-safe rows and task
  state.

Execution is *staged*: components are grouped into topological levels
(every edge goes from a lower to a strictly higher level), and each level
runs as one parallel wave with a barrier after it.  Within a wave every
worker drains or executes only the tasks it owns, routes the emissions
task-locally through its own copy of the stream groupings, and hands the
routed work back to the coordinator, which delivers it to the owning
workers in later waves.  The barrier guarantees what the inline loop gets
for free: a component's ``finish()`` runs only after every upstream tuple
has been delivered, so snapshot aggregations and retractions stay correct.

The barrier also means a task's whole input for a wave is known before it
runs, so routed work travels and executes *coalesced*
(:class:`WaveBuffer`): per task, every run of deliveries from one
``(source, stream)`` is one batch, however many micro-batches the
upstream tasks produced it in -- the pipes carry a few large payloads and
a joiner pays its per-batch costs once per input relation.  The inline
loop's rounds coalesce the same way (same buffer, same level pass,
:func:`repro.storm.kernel.run_level`), so what the staged backend adds
over ``inline`` is its workers, not its batch sizes.

Workers merge deterministically (worker-id order), so a run is
reproducible; result *multisets* and per-component totals are identical
across backends, only the tuple interleaving differs (the operators are
order-insensitive up to the final multiset, exactly as for ``batch_size``
in the inline loop).
"""

from __future__ import annotations

import os
import pickle
import traceback
from itertools import groupby
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.columnar import ColumnBatch, ColumnEmissions
from repro.obs import FanIn, WorkerObs
from repro.obs.tracing import parts_of
from repro.storm.kernel import deliver, pull, run_level
from repro.storm.metrics import TopologyMetrics
from repro.storm.topology import Topology, TopologyError
from repro.util import usable_cores

#: one routed unit of work: rows of `stream` (emitted by `source`)
#: awaiting execution at task `task` of component `target`; under the
#: columnar path the rows payload is a ColumnBatch instead of a row list
WorkItem = Tuple[str, int, str, str, List[tuple]]


class ExecutorError(RuntimeError):
    """A parallel backend could not run the topology."""


def default_parallelism() -> int:
    """Worker count used when ``parallelism`` is not given: the usable
    cores, capped at 4 (diminishing returns for coordinator-relayed IPC)."""
    return max(1, min(4, usable_cores()))


def ensure_task_local_routing(topology: Topology, executor: str):
    """Refuse topologies whose routing cannot be replicated per worker.

    A grouping backed by a partitioner that *adapts to the globally
    observed stream* (e.g. :class:`~repro.partitioning.adaptive.\
AdaptiveOneBucket`) cannot be deep-copied into shared-nothing workers:
    each copy would see only its slice of the stream, reshape differently,
    and silently lose join matches.  Raises a dedicated
    :class:`ExecutorError` naming the offending partitioner and the
    executor that can still run the plan.
    """
    for edge in topology.edges:
        if not edge.grouping.supports_task_local_routing():
            raise ExecutorError(
                f"the {executor!r} executor cannot run this topology: edge "
                f"{edge.source}->{edge.target} routes through "
                f"{edge.grouping.routing_description()}, whose decisions "
                f"adapt to the globally observed stream; worker-local "
                f"copies would diverge and silently lose matches -- run "
                f"this plan with executor='inline'"
            )


def topological_levels(topology: Topology) -> List[List[str]]:
    """Components grouped by longest-path depth from the sources.

    Every edge goes from a lower level to a strictly higher one, so all
    components of one level can execute concurrently, and by the time
    level ``k`` runs, everything its components will ever receive has
    already been routed.
    """
    order = topology.topological_order()
    depth: Dict[str, int] = {}
    for name in order:
        upstream = [edge.source for edge in topology.in_edges(name)]
        depth[name] = max((depth[up] + 1 for up in upstream), default=0)
    levels: List[List[str]] = [[] for _ in range(max(depth.values()) + 1)]
    for name in order:  # topological order keeps each level deterministic
        levels[depth[name]].append(name)
    return levels


def assign_tasks(topology: Topology, n_workers: int) -> Dict[Tuple[str, int], int]:
    """Disjoint task ownership: global round-robin over (component, task).

    A single counter walks components in topological order and tasks in
    index order, so singleton components (sources, sinks) spread across
    workers instead of piling onto worker 0.
    """
    assignment: Dict[Tuple[str, int], int] = {}
    counter = 0
    for name in topology.topological_order():
        for task_index in range(topology.components[name].parallelism):
            assignment[(name, task_index)] = counter % n_workers
            counter += 1
    return assignment


class Router:
    """Task-local routing: one component's emissions -> routed work items.

    Every worker builds its *own* Router (``clone=True`` deep-copies each
    edge's grouping via :meth:`Grouping.task_local`), so stateful routing
    -- shuffle counters, random replica choices -- lives inside the
    owning worker and never needs cross-worker synchronization.  The
    inline backend uses a single Router over the original groupings,
    preserving the seed engine's exact routing sequence.
    """

    def __init__(self, topology: Topology, clone: bool = False):
        # one deepcopy memo for the whole routing table: objects shared by
        # several groupings (a partitioner driving all input edges of one
        # join) stay shared *within* this worker's copies, so routing of
        # the join's relations remains mutually consistent
        memo: dict = {}
        self._edges: Dict[str, List] = {}
        for name in topology.components:
            edges = []
            for edge in topology.out_edges(name):
                grouping = edge.grouping.task_local(memo) if clone \
                    else edge.grouping
                edges.append((edge, grouping))
            self._edges[name] = edges
        self._parallelism = {
            name: spec.parallelism for name, spec in topology.components.items()
        }

    def routing_state(self) -> Dict[str, List[object]]:
        """Mutable grouping state per component's out-edges (checkpoint).

        Recovery replays the post-checkpoint stream through this router;
        rewinding stateful groupings (shuffle cursors) to the checkpoint
        makes the replayed routing identical to the original delivery.
        """
        return {
            name: [grouping.routing_state() for _edge, grouping in edges]
            for name, edges in self._edges.items()
        }

    def restore_routing_state(self, state: Dict[str, List[object]]):
        for name, per_edge in state.items():
            for (_edge, grouping), edge_state in zip(
                    self._edges.get(name, ()), per_edge):
                if edge_state is not None:
                    grouping.restore_routing_state(edge_state)

    def route(self, source: str, emissions: List[Tuple[str, tuple]],
              coalesce: bool = True) -> List[WorkItem]:
        """Partition one component's emissions across subscriber tasks.

        With ``coalesce`` consecutive emissions on the same stream travel
        as one micro-batch; without it every emission is routed
        individually (the seed engine's per-tuple dispatch order) -- a
        columnar one as one-row ``take``s, which keep each row's sign.
        """
        items: List[WorkItem] = []
        if isinstance(emissions, ColumnEmissions):
            stream, batch = emissions.stream, emissions.batch
            if coalesce:
                # already a single-stream batch: route it columnar, no
                # coalescing scan and no row materialization
                self._route_one(items, source, stream, batch)
            else:
                for index in range(len(batch)):
                    self._route_one(items, source, stream,
                                    batch.take([index]))
            return items
        if not coalesce:
            for stream, values in emissions:
                self._route_one(items, source, stream, [values])
            return items
        for stream, run in groupby(emissions, key=itemgetter(0)):
            self._route_one(items, source, stream,
                            [values for _stream, values in run])
        return items

    def _route_one(self, items: List[WorkItem], source: str, stream: str,
                   rows: List[tuple]):
        for edge, grouping in self._edges[source]:
            if not edge.subscribes(stream):
                continue
            parallelism = self._parallelism[edge.target]
            for target_task, sub_rows in grouping.targets_batch(
                    stream, rows, parallelism):
                if not 0 <= target_task < parallelism:
                    raise TopologyError(
                        f"grouping for {edge.source}->{edge.target} returned "
                        f"task {target_task} outside [0, {parallelism})"
                    )
                items.append((edge.target, target_task, source, stream, sub_rows))


# ---------------------------------------------------------------------------
# Wave coalescing
# ---------------------------------------------------------------------------

#: what a task is handed for one run: ``(source, stream, rows, ctx)``;
#: ``ctx`` is the span context of the hop that produced the rows -- a
#: :class:`~repro.obs.tracing.FanIn` of them when the run was merged from
#: several traced hops, None unless the run is traced
Delivery = Tuple[str, str, object, object]


def _mergeable(earlier, later) -> bool:
    """Whether two payloads may execute as one batch: both non-empty and
    of one representation (row lists; or ColumnBatches of equal arity,
    whatever their signs)."""
    if not len(earlier) or not len(later):
        return False
    if isinstance(earlier, ColumnBatch):
        return isinstance(later, ColumnBatch) and earlier.width == later.width
    return not isinstance(later, ColumnBatch)


def _concat(parts: list):
    if len(parts) == 1:
        return parts[0]
    if isinstance(parts[0], ColumnBatch):
        return ColumnBatch.concat(parts)
    return [row for part in parts for row in part]


class WaveBuffer:
    """Routed work awaiting a later level, coalesced per ``(target, task)``.

    A level barrier hands every task its *complete* input, so a level
    schedule never promised per-tuple interleaving; what a task does see
    is its deliveries in arrival order.  The buffer keeps that order and
    folds every maximal run of deliveries that share ``(source, stream)``
    and representation into one batch -- a joiner fed 48 spout batches of
    one relation executes one batch of their rows.  A retraction is a
    row whose sign is -1, not a stream, so one edge's inserts and
    retractions merge into one batch with their signs in arrival order;
    an empty payload stays a delivery of its own.  Tracing does not split a
    run: the merged batch carries the contexts of all its parts with
    their row counts (a :class:`~repro.obs.tracing.FanIn`), and executing
    it records one span per part.

    The staged workers fill one while they assemble a wave's routed
    output and the coordinator folds the replies into one in worker-id
    order, so both pipe hops carry a few large payloads and delivery
    stays deterministic; the inline rounds of
    :class:`~repro.storm.cluster.LocalCluster` route into one and pop
    from it level by level.
    """

    def __init__(self):
        #: (target, task) -> runs, each ``[source, stream, payloads,
        #: fan-in entries]``
        self._runs: Dict[Tuple[str, int], List[list]] = {}

    def __bool__(self) -> bool:
        return bool(self._runs)

    def keys(self):
        return self._runs.keys()

    def depth(self) -> int:
        """Deliveries waiting (the queue-depth sample of a level)."""
        return sum(len(runs) for runs in self._runs.values())

    def _append(self, key, source, stream, rows, traced: tuple):
        runs = self._runs.get(key)
        if runs is None:
            self._runs[key] = [[source, stream, [rows], list(traced)]]
            return
        last = runs[-1]
        if (last[0] == source and last[1] == stream
                and _mergeable(last[2][-1], rows)):
            last[2].append(rows)
            last[3].extend(traced)
        else:
            runs.append([source, stream, [rows], list(traced)])

    def add(self, items: List[WorkItem], ctx=None):
        """Buffer one ``Router.route`` result, all parented by ``ctx``."""
        for target, task_index, source, stream, rows in items:
            self._append((target, task_index), source, stream, rows,
                         () if ctx is None else parts_of(ctx, len(rows)))

    def fold(self, deliveries: Dict[Tuple[str, int], List[Delivery]]):
        """Buffer another buffer's :meth:`drain` (a worker's reply)."""
        for key, entries in deliveries.items():
            for source, stream, rows, ctx in entries:
                self._append(key, source, stream, rows,
                             ctx if isinstance(ctx, FanIn)
                             else parts_of(ctx, len(rows)))

    def pop(self, key) -> List[Delivery]:
        """Remove and return one task's deliveries, each run merged."""
        deliveries = []
        for source, stream, payloads, traced in self._runs.pop(key, ()):
            rows = _concat(payloads)
            if len(traced) == 1 and traced[0][1] == len(rows):
                ctx = traced[0][0]  # one parent, all of the rows: as routed
            else:
                ctx = FanIn(traced) if traced else None
            deliveries.append((source, stream, rows, ctx))
        return deliveries

    def drain(self) -> Dict[Tuple[str, int], List[Delivery]]:
        """Everything buffered, per task, each run merged."""
        return {key: self.pop(key) for key in list(self._runs)}


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


class WorkerState:
    """Everything one shared-nothing worker owns: tasks + routing state."""

    #: forked into (and for resident workers, shipped to) worker
    #: processes whole -- opt into squall-lint's pickle-safety and
    #: determinism rules even though this is not a Bolt subclass
    PIPE_PICKLED = True

    #: coordinator command -> method (see :func:`worker_loop`)
    COMMANDS = {"wave": "run_wave", "collect": "exports"}

    def __init__(self, worker_id: int, topology: Topology,
                 tasks: Dict[str, List[object]],
                 assignment: Dict[Tuple[str, int], int], batch_size: int,
                 observe: str = "off"):
        self.worker_id = worker_id
        self.batch_size = batch_size
        #: worker-side observability accumulator (None = observe='off')
        self.obs = None if observe == "off" else WorkerObs(worker_id, observe)
        self.is_spout = {
            name: spec.is_spout for name, spec in topology.components.items()
        }
        self.router = Router(topology, clone=True)
        # owned tasks only -- the shared-nothing contract: nothing else of
        # the forked task table is ever touched
        self.owned: Dict[str, Dict[int, object]] = {}
        for (name, task_index), owner in assignment.items():
            if owner == worker_id:
                self.owned.setdefault(name, {})[task_index] = tasks[name][task_index]
        #: component -> parallelism of every owned component: the shape
        #: of the counters each wave ships home
        self.shape = {name: topology.components[name].parallelism
                      for name in self.owned}

    def run_wave(self, components: Sequence[str],
                 delivered: Dict[Tuple[str, int], List[Delivery]]):
        """Execute one topological level on this worker's owned tasks.

        Spout components are drained to exhaustion in ``batch_size``
        micro-batches; bolt components execute their delivered batches in
        arrival order and then flush (``finish``) -- the coordinator's
        barrier guarantees every input batch has already been delivered.

        Returns ``(routed, counters, obs_payload)``: the routed output,
        coalesced (:class:`WaveBuffer`) and parented by the span context
        of the hop that produced it; what this wave counted, as a
        ``TopologyMetrics`` of the worker's own for the coordinator to
        ``merge``; and the ``WorkerObs.drain()`` payload (None when the
        run is unobserved).
        """
        obs = self.obs
        out = WaveBuffer()
        counters = TopologyMetrics.of(self.shape)
        route = self.router.route
        for name in components:
            owned = self.owned.get(name)
            if not owned:
                continue
            if self.is_spout[name]:
                for task_index in sorted(owned):
                    more = True
                    while more:
                        emissions, ctx, more = pull(
                            owned[task_index], name, task_index,
                            self.batch_size, counters, obs)
                        if emissions:
                            out.add(route(name, emissions), ctx)
            else:
                run_level(name,
                          ((task_index, bolt,
                            delivered.get((name, task_index), ()))
                           for task_index, bolt in sorted(owned.items())),
                          route, out, counters, obs, finish=True)
        return out.drain(), counters, None if obs is None else obs.drain()

    def exports(self) -> Dict[Tuple[str, int], object]:
        """Final owned task instances, for post-run state extraction."""
        return {
            (name, task_index): instance
            for name, tasks in self.owned.items()
            for task_index, instance in tasks.items()
        }


def worker_loop(state, recv, send):
    """The command loop of every forked worker, staged or resident.

    ``state.COMMANDS`` names the method behind each coordinator command;
    the rest of the message is its arguments.  Every command gets exactly
    one reply -- ``("ok", result)``, or ``("error", traceback)`` if it
    raised -- so the protocol stays in lock-step; ``stop`` ends the loop.
    ``send(reply)`` must raise in the *caller* on serialization failure
    (Connection.send does) so that too becomes an error reply instead of
    a hang.
    """
    commands = state.COMMANDS
    while True:
        kind, *args = recv()
        if kind == "stop":
            return
        try:
            send(("ok", getattr(state, commands[kind])(*args)))
        except Exception:
            send(("error", traceback.format_exc()))


# ---------------------------------------------------------------------------
# Coordinator side
# ---------------------------------------------------------------------------


class WorkerDied(ExecutorError):
    """A forked worker process is gone (crash, SIGKILL, lost pipe).

    Raised by :class:`ForkedWorker` on a dead pipe and by
    :class:`ResidentWorkerPool` commands; carries the dead worker ids so
    a supervisor (the streaming coordinator) can respawn exactly those
    workers and run the recovery protocol.
    """

    def __init__(self, worker_ids: List[int]):
        super().__init__(f"worker(s) {sorted(worker_ids)} died")
        self.worker_ids = sorted(worker_ids)


def fork_context():
    """The multiprocessing context of every forked backend."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        raise ExecutorError(
            "the 'processes' backends need the fork start method "
            "(component factories are closures and cannot be pickled); "
            "use executor='inline' on this platform"
        )
    return multiprocessing.get_context("fork")


class ForkedWorker:
    """One forked worker process behind a duplex pipe.

    ``fork`` copies the state (and with it the task table) into the
    child, which runs :func:`worker_loop` over it; only pickled commands
    and replies cross the pipe.  ``Connection.send`` pickles in the
    caller, so a pickle-unsafe reply becomes an ``("error", ...)`` message
    instead of a silent hang.  A pipe that fails on either side of a
    command means the process is gone: :meth:`send` and :meth:`recv` raise
    :class:`WorkerDied` naming this worker.
    """

    def __init__(self, context, state):
        self.worker_id = state.worker_id
        self._parent_conn, child_conn = context.Pipe()
        self._process = context.Process(
            target=_forked_worker_main, args=(state, child_conn), daemon=True
        )
        self._process.start()
        child_conn.close()

    @property
    def pid(self) -> Optional[int]:
        return self._process.pid

    def alive(self) -> bool:
        return self._process.is_alive()

    def exit_code(self) -> Optional[int]:
        """How a dead worker ended (``-9``: SIGKILLed); waits briefly for
        the exit the dead pipe announced."""
        self._process.join(timeout=5)
        return self._process.exitcode

    def send(self, message):
        try:
            self._parent_conn.send(message)
        except OSError:  # BrokenPipeError: the reader is gone
            raise WorkerDied([self.worker_id]) from None

    def recv(self):
        try:
            return self._parent_conn.recv()
        except (EOFError, OSError):
            raise WorkerDied([self.worker_id]) from None

    def signal_stop(self):
        try:
            self._parent_conn.send(("stop",))
        except OSError:  # already dead
            pass

    def join(self):
        """Wait for the exit (signalled, or already dead) and release the
        process + pipe resources."""
        self._process.join(timeout=30)
        if self._process.is_alive():  # pragma: no cover - defensive
            self._process.terminate()
            self._process.join(timeout=5)
        self._parent_conn.close()


def _forked_worker_main(state, conn):
    def send(reply):
        try:
            conn.send(reply)
        except Exception:
            # reply not pickle-safe: report instead of dropping the message
            conn.send(("error", traceback.format_exc()))

    try:
        worker_loop(state, conn.recv, send)
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - shutdown races
        pass
    finally:
        conn.close()


class StagedExecutor:
    """The batch ``processes`` backend: forked workers, waves, barriers,
    merging.

    Each worker is a forked process owning a disjoint task set (fork
    copies the task table into it); routed waves cross the pipes, and
    when the run ends the final task instances ship home into the
    cluster, so result extraction reads the same tasks as after an
    inline run.
    """

    def __init__(self, cluster, parallelism: Optional[int] = None):
        self.cluster = cluster
        n_tasks = sum(
            spec.parallelism for spec in cluster.topology.components.values()
        )
        requested = default_parallelism() if parallelism is None else parallelism
        if requested < 1:
            raise ExecutorError(f"parallelism must be >= 1, got {requested}")
        self.n_workers = min(requested, n_tasks)
        self.assignment = assign_tasks(cluster.topology, self.n_workers)
        ensure_task_local_routing(cluster.topology, "processes")

    def run(self, batch_size: int = 1):
        """Execute the topology to completion; returns the cluster metrics."""
        if batch_size < 1:
            raise ExecutorError(f"batch_size must be >= 1, got {batch_size}")
        cluster = self.cluster
        metrics = cluster.metrics
        observer = cluster.observer
        levels = topological_levels(cluster.topology)
        context = fork_context()
        workers = [
            ForkedWorker(context, WorkerState(
                worker_id, cluster.topology, cluster._tasks, self.assignment,
                batch_size,
                observe="off" if observer is None else observer.level))
            for worker_id in range(self.n_workers)]
        doing = "start"
        try:
            pending = WaveBuffer()
            for level in levels:
                doing = f"level {level}"
                for worker_id, worker in enumerate(workers):
                    delivered = {}
                    for name in level:
                        for task_index in range(
                                cluster.topology.components[name].parallelism):
                            key = (name, task_index)
                            if self.assignment[key] != worker_id:
                                continue
                            entries = pending.pop(key)
                            if entries:
                                delivered[key] = entries
                    worker.send(("wave", level, delivered))
                # barrier: collect every worker's wave in worker-id order,
                # so the merged delivery order is deterministic
                for worker in workers:
                    routed, counters, obs_payload = self._reply(worker)
                    metrics.merge(counters)
                    if observer is not None:
                        observer.merge_worker_obs(obs_payload)
                    pending.fold(routed)
                if observer is not None and pending:
                    observer.on_queue_depth("staged", pending.depth())
            if pending:  # pragma: no cover - level invariant violated
                raise ExecutorError(
                    f"undelivered batches after final wave: "
                    f"{sorted(pending.keys())}"
                )
            doing = "collect"
            # ship the final task state back into the cluster
            for worker in workers:
                worker.send(("collect",))
            for worker in workers:
                for (name, task_index), instance in self._reply(worker).items():
                    cluster._tasks[name][task_index] = instance
        except WorkerDied as death:
            # a worker process vanished mid-protocol (OOM kill, segfault):
            # a batch run has no checkpoint to recover from -- fail naming
            # who died, doing what, and how
            worker_id = death.worker_ids[0]
            raise ExecutorError(
                f"processes worker {worker_id} died running {doing} "
                f"(exit code {workers[worker_id].exit_code()})"
            ) from None
        finally:
            # signal every worker before waiting on any: their exits
            # overlap instead of queueing behind one another's join
            # (survivors of a dead peer included)
            for worker in workers:
                worker.signal_stop()
            for worker in workers:
                worker.join()
        return metrics

    @staticmethod
    def _reply(worker):
        status, payload = worker.recv()
        if status != "ok":
            raise ExecutorError(f"processes worker failed:\n{payload}")
        return payload


# ---------------------------------------------------------------------------
# Resident workers (the streaming 'processes' executor)
# ---------------------------------------------------------------------------


class ResidentWorkerState:
    """Everything one resident worker owns: bolt tasks + armed faults.

    Unlike the staged :class:`WorkerState`, a resident worker does *no*
    routing: it executes delivered micro-batches on its owned tasks and
    returns the raw emissions for the coordinator to route centrally.
    Central routing keeps all grouping state in the coordinator -- the
    process that survives worker crashes -- so recovery never has to
    reconcile diverged per-worker routing state.

    ``kill_after`` arms deterministic fault injection
    (:class:`repro.storm.failures.FaultInjector`): after the worker has
    executed that many micro-batches *in this incarnation*, it SIGKILLs
    itself mid-protocol -- the test harness for the recovery path.
    """

    #: shipped whole to freshly spawned workers on respawn -- opt into
    #: squall-lint's pickle-safety and determinism rules
    PIPE_PICKLED = True

    #: coordinator command -> method (see :func:`worker_loop`)
    COMMANDS = {"execute": "execute", "watermark": "advance_watermark",
                "finish": "finish_component", "checkpoint": "checkpoint",
                "restore": "restore"}

    def __init__(self, worker_id: int, owned: Dict[Tuple[str, int], object],
                 shape: Dict[str, int],
                 kill_after: Optional[List[Tuple[int, int]]] = None,
                 observe: str = "off"):
        self.worker_id = worker_id
        self.owned = owned  # (component, task_index) -> task instance
        #: component -> parallelism of every owned component: the shape
        #: of the counters each reply ships home
        self.shape = shape
        self.batches_executed = 0
        #: [(after_batches, signal), ...], sorted; consumed front to back
        self.kill_after = sorted(kill_after or [])
        #: worker-side observability accumulator (None = observe='off')
        self.obs = None if observe == "off" else WorkerObs(worker_id, observe)

    def _maybe_die(self):
        if not self.kill_after:
            return
        after, signal = self.kill_after[0]
        if self.batches_executed >= after:
            os.kill(os.getpid(), signal)  # SIGKILL: never returns

    def execute(self, items: List[tuple]):
        """Run delivered batches in order, un-coalesced (the armed kill
        points count them one by one).

        ``items`` are work items with the span context of the hop that
        produced them appended, ``(target, task, source, stream, rows,
        ctx)``; returns ``(outputs, counters, obs_payload)`` where
        ``outputs`` are the raw emissions ``(target, task, emissions,
        child_ctx)`` for the coordinator to route and the rest is as for
        :meth:`WorkerState.run_wave`.  Both contexts are None unless the
        run is traced.
        """
        obs = self.obs
        counters = TopologyMetrics.of(self.shape)
        outputs: List[tuple] = []
        for target, task_index, source, stream, rows, ctx in items:
            emissions, child = deliver(
                self.owned[(target, task_index)], target, task_index,
                source, stream, rows, ctx, counters, obs)
            self.batches_executed += 1
            if emissions:
                outputs.append((target, task_index, emissions, child))
            self._maybe_die()
        return outputs, counters, None if obs is None else obs.drain()

    def advance_watermark(self, watermark: float):
        """Apply one watermark punctuation to every owned windowed task."""
        outputs: List[Tuple[str, int, object]] = []
        for (name, task_index) in sorted(self.owned):
            hook = getattr(self.owned[(name, task_index)],
                           "advance_watermark", None)
            if hook is None:
                continue
            emissions = hook(watermark)
            if emissions:
                outputs.append((name, task_index, emissions))
        return outputs

    def finish_component(self, component: str):
        """End-of-stream flush for one component's owned tasks."""
        outputs: List[Tuple[str, int, object]] = []
        for (name, task_index) in sorted(self.owned):
            if name != component:
                continue
            emissions = self.owned[(name, task_index)].finish()
            if emissions:
                outputs.append((name, task_index, emissions))
        return outputs

    def checkpoint(self, known: Dict[Tuple[str, int], str]):
        """Hash-diff snapshot of every owned task.

        Returns ``{key: (digest, blob-or-None)}`` -- the blob travels
        over the pipe only when the digest differs from the store's
        latest manifest (``known``), so an unchanged partition costs one
        pickle + hash and zero IPC bytes.
        """
        from repro.checkpoint.store import hash_blob, snapshot_blob

        snapshots = {}
        for key in sorted(self.owned):
            blob = snapshot_blob(self.owned[key])
            digest = hash_blob(blob)
            snapshots[key] = (
                digest, None if known.get(key) == digest else blob)
        return snapshots

    def restore(self, blobs: Dict[Tuple[str, int], bytes]):
        """Replace owned task instances with unpickled snapshot state."""
        for key, blob in blobs.items():
            if key in self.owned:
                self.owned[key] = pickle.loads(blob)
        return len(blobs)


class ResidentWorkerPool:
    """Supervisor for the streaming ``processes`` backend.

    Owns the fork/assignment/respawn lifecycle of N resident workers,
    each holding a disjoint slice of the topology's bolt tasks
    (``exclude`` names coordinator-owned components -- the delta sinks,
    whose subscriptions must live in the parent).  All commands detect
    worker death (EOF / broken pipe / liveness probe) and raise
    :class:`WorkerDied` with the dead ids; the streaming coordinator
    reacts by respawning (:meth:`respawn`) and running the
    checkpoint-restore + replay recovery protocol.
    """

    def __init__(self, topology: Topology,
                 tasks: Dict[str, List[object]],
                 parallelism: Optional[int] = None,
                 exclude: Optional[set] = None,
                 kill_plan: Optional[Dict[int, List[Tuple[int, int]]]] = None,
                 observe: str = "off"):
        self._context = fork_context()
        self._topology = topology
        self._tasks = tasks
        exclude = exclude or set()
        worker_keys = [
            (name, task_index)
            for name in topology.topological_order()
            if not topology.components[name].is_spout and name not in exclude
            for task_index in range(topology.components[name].parallelism)
        ]
        requested = default_parallelism() if parallelism is None else parallelism
        if requested < 1:
            raise ExecutorError(f"parallelism must be >= 1, got {requested}")
        self.n_workers = max(1, min(requested, len(worker_keys)))
        #: (component, task_index) -> owning worker id (round-robin)
        self.assignment: Dict[Tuple[str, int], int] = {
            key: index % self.n_workers
            for index, key in enumerate(worker_keys)
        }
        #: armed fault-injection kills per worker (consumed on death)
        self._kill_plan = {w: list(specs)
                           for w, specs in (kill_plan or {}).items()}
        self._workers: Dict[int, ForkedWorker] = {}
        self.respawn_count = 0
        #: observability level shipped into every worker incarnation
        self._observe = observe

    # -- lifecycle ---------------------------------------------------------

    def arm_kills(self, kill_plan: Dict[int, List[Tuple[int, int]]]):
        """Install per-worker fault-injection kills (call before start():
        the specs ride into the workers at fork time)."""
        self._kill_plan = {worker_id: list(specs)
                           for worker_id, specs in kill_plan.items()}

    def owner(self, component: str, task_index: int) -> Optional[int]:
        """Owning worker id, or None for coordinator-owned tasks."""
        return self.assignment.get((component, task_index))

    def owned_keys(self, worker_id: int) -> List[Tuple[str, int]]:
        return sorted(key for key, owner in self.assignment.items()
                      if owner == worker_id)

    def _make_state(self, worker_id: int) -> ResidentWorkerState:
        owned = {key: self._tasks[key[0]][key[1]]
                 for key in self.owned_keys(worker_id)}
        shape = {name: self._topology.components[name].parallelism
                 for name, _task_index in owned}
        return ResidentWorkerState(
            worker_id, owned, shape,
            kill_after=self._kill_plan.get(worker_id), observe=self._observe)

    def start(self):
        if not self.assignment:
            return
        for worker_id in range(self.n_workers):
            self._workers[worker_id] = ForkedWorker(
                self._context, self._make_state(worker_id))

    def stop(self):
        """Signal every worker, then join them (dead ones are reaped)."""
        for worker in self._workers.values():
            worker.signal_stop()
        for worker in self._workers.values():
            worker.join()
        self._workers.clear()

    def pids(self) -> Dict[int, Optional[int]]:
        """Live worker pids (the kill-a-worker demo's target list)."""
        return {worker_id: worker.pid
                for worker_id, worker in self._workers.items()}

    def reap_dead(self) -> List[int]:
        """Liveness sweep: ids of workers found dead (not yet respawned)."""
        return [worker_id for worker_id, worker in self._workers.items()
                if not worker.alive()]

    def respawn(self, worker_ids: List[int]):
        """Replace dead workers with fresh forks (initial task state).

        The new incarnation starts from the parent's pristine task
        instances; the supervisor is expected to follow up with a
        ``restore`` command carrying the latest checkpoint blobs.  The
        armed fault that killed the dead incarnation (its lowest kill
        point) is consumed; later armed kills re-arm against the new
        incarnation's batch counter, so multi-kill scenarios stay
        deterministic.
        """
        for worker_id in worker_ids:
            worker = self._workers.get(worker_id)
            if worker is not None:
                worker.join()
            remaining = sorted(self._kill_plan.pop(worker_id, []))[1:]
            if remaining:
                self._kill_plan[worker_id] = remaining
            self._workers[worker_id] = ForkedWorker(
                self._context, self._make_state(worker_id))
            self.respawn_count += 1

    # -- command fan-out ---------------------------------------------------

    def _command(self, recipients: Dict[int, tuple]) -> Dict[int, object]:
        """Send one command per recipient, then collect every reply.

        The reply phase always drains every worker that was sent a
        command (otherwise a stale reply would desynchronize the next
        command round); any send/recv failure or error reply marks that
        worker dead and the whole round raises :class:`WorkerDied` after
        draining -- the caller abandons the round and recovers.
        """
        dead: List[int] = []
        errors: List[str] = []
        sent: List[int] = []
        for worker_id, message in recipients.items():
            try:
                self._workers[worker_id].send(message)
                sent.append(worker_id)
            except WorkerDied:
                dead.append(worker_id)
        replies: Dict[int, object] = {}
        for worker_id in sent:
            try:
                status, payload = self._workers[worker_id].recv()
            except WorkerDied:
                dead.append(worker_id)
                continue
            if status != "ok":
                errors.append(f"worker {worker_id} failed:\n{payload}")
                continue
            replies[worker_id] = payload
        if errors:
            raise ExecutorError("resident worker error:\n" + "\n".join(errors))
        if dead:
            raise WorkerDied(dead)
        return replies

    def execute(self, per_worker: Dict[int, List[tuple]]):
        """Deliver routed micro-batches (:meth:`ResidentWorkerState.
        execute` items); returns ``(outputs, tallies)``.

        Workers execute their slices concurrently (each in its own
        process); outputs -- and the per-worker ``(counters,
        obs_payload)`` tallies -- are merged in worker-id order so
        delivery stays deterministic for a fixed assignment.
        """
        replies = self._command({
            worker_id: ("execute", items)
            for worker_id, items in per_worker.items() if items
        })
        outputs: List[tuple] = []
        tallies: List[tuple] = []
        for worker_id in sorted(replies):
            worker_outputs, counters, obs_payload = replies[worker_id]
            outputs.extend(worker_outputs)
            tallies.append((counters, obs_payload))
        return outputs, tallies

    def broadcast_watermark(self, watermark: float):
        """Punctuate every worker; returns merged hook emissions."""
        replies = self._command({
            worker_id: ("watermark", watermark)
            for worker_id in self._workers
        })
        return [output for worker_id in sorted(replies)
                for output in replies[worker_id]]

    def finish_component(self, component: str):
        """Flush one component's tasks across the owning workers."""
        owners = sorted({
            owner for (name, _i), owner in self.assignment.items()
            if name == component
        })
        replies = self._command({
            worker_id: ("finish", component) for worker_id in owners
        })
        return [output for worker_id in sorted(replies)
                for output in replies[worker_id]]

    def checkpoint(self, known: Dict[Tuple[str, int], str]):
        """Collect one hash-diff snapshot from every worker."""
        replies = self._command({
            worker_id: ("checkpoint", {
                key: digest for key, digest in known.items()
                if self.assignment.get(key) == worker_id
            })
            for worker_id in self._workers
        })
        snapshots: Dict[Tuple[str, int], Tuple[str, Optional[bytes]]] = {}
        for worker_id in sorted(replies):
            snapshots.update(replies[worker_id])
        return snapshots

    def restore(self, blobs: Dict[Tuple[str, int], bytes]):
        """Load snapshot state into every worker (survivors included)."""
        self._command({
            worker_id: ("restore", {
                key: blob for key, blob in blobs.items()
                if self.assignment.get(key) == worker_id
            })
            for worker_id in self._workers
        })
