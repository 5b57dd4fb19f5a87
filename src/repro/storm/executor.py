"""Execution backends: shared-nothing parallel workers over micro-batches.

The :class:`~repro.storm.cluster.LocalCluster` runs a topology through one
of two interchangeable backends:

- ``inline`` -- the cluster's own single-threaded loop (the default;
  byte-identical to the seed per-tuple engine at ``batch_size=1``).
- ``processes`` -- forked worker processes exchanging *serialized*
  micro-batches with the coordinator over pipes: true shared-nothing
  scale-out across cores, the execution model of the paper's Storm
  deployment.  Requires the ``fork`` start method (Linux/macOS) and
  pickle-safe rows and task state.

Batch and streaming ``processes`` run on one worker protocol and one
driver: a :class:`ResidentWorkerPool` forks workers over the topology's
bolt tasks (the spouts, and streaming's delta sinks, stay in the
coordinator), each pinned to one CPU of the coordinator's mask; the
cluster that holds the pool hands a worker each delivery for its tasks in
a level pass of its rounds (:class:`WaveBuffer` coalesces a task's
deliveries per ``(source, stream)`` run), and the worker returns the raw
emissions with their stream positions for the cluster's :class:`Router`
to route in task order.  A worker that dies in a turn raises
:class:`WorkerDied`; the streaming supervisor recovers from it, a batch
run (:class:`StagedExecutor`) fails naming the component.  When every
edge routes task-locally (:attr:`Router.task_local`), a batch run routes
its first rounds (up to :data:`~repro.storm.cluster.INHERITED_ROUNDS`)
before the pool forks, and each worker inherits its tasks' deliveries to
the first component (:meth:`ResidentWorkerPool.start`).  Either way a
component's turn on a worker is one ``execute`` command, carrying its
rounds and the punctuation (end of stream or a watermark) that follows
them (:meth:`ResidentWorkerPool.run_level`), and a ``processes`` run
places every row where inline does -- same results, same executed
batches -- and adds its workers, not a schedule.
"""

from __future__ import annotations

import gc
import os
import pickle
import traceback
from itertools import groupby
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from repro.core.columnar import ColumnBatch, ColumnEmissions
from repro.obs import Observer
from repro.obs.tracing import merged_context
from repro.storm.kernel import deliver, punctuate, stream_position
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


class Router:
    """Routing: one component's emissions -> routed work items.

    A static table of each component's out-edges.  Every grouping is a
    pure function of a row and of what its emitting task counts (the
    stream position the shuffle reads, the occurrence number random
    dimensions read), so a batch lands where it lands whoever routes it,
    in whatever order -- except on an adaptive partitioner
    (:attr:`task_local` is then False).
    """

    def __init__(self, topology: Topology):
        self._edges: Dict[str, List] = {
            name: [(edge, edge.grouping, edge.grouping.counts_copies())
                   for edge in topology.out_edges(name)]
            for name in topology.components
        }
        #: ``{component: the streams its tasks count copies on}`` (None:
        #: every stream) for each component with an out-edge that places
        #: rows by their copies (:func:`~repro.storm.kernel.count_copies`)
        self.counting: Dict[str, Optional[frozenset]] = {}
        for name, edges in self._edges.items():
            streams = [edge.streams for edge, _grouping, counts in edges
                       if counts]
            if streams:
                self.counting[name] = None if None in streams \
                    else frozenset().union(*streams)
        self._parallelism = {
            name: spec.parallelism for name, spec in topology.components.items()
        }
        #: every edge routes task-locally: any round may be routed ahead
        #: of another, in any process
        self.task_local = all(edge.grouping.supports_task_local_routing()
                              for edge in topology.edges)

    def route(self, source: str, emissions: List[Tuple[str, tuple]],
              position: Tuple[int, Dict[str, int], Optional[List[int]]],
              coalesce: bool = True) -> List[WorkItem]:
        """Partition one component's emissions, from stream ``position``
        (:func:`~repro.storm.kernel.stream_position`), across subscriber
        tasks.

        With ``coalesce`` consecutive emissions on the same stream travel
        as one micro-batch; without it every emission is routed
        individually (the seed engine's per-tuple dispatch order) -- a
        columnar one as one-row ``take``s, which keep each row's sign.
        """
        task, first, occurrences = position
        first = dict(first)
        items: List[WorkItem] = []
        done = 0  # rows of the emissions routed so far
        if isinstance(emissions, ColumnEmissions):
            # already a single-stream batch: no coalescing scan and no
            # row materialization
            runs = [(emissions.stream, emissions.batch)]
        else:
            runs = [(stream, [values for _stream, values in run])
                    for stream, run in groupby(emissions, key=itemgetter(0))]
        for stream, rows in runs:
            start = first.get(stream, 0)
            first[stream] = start + len(rows)
            copies = None if occurrences is None else \
                occurrences[done:done + len(rows)]
            done += len(rows)
            if coalesce:
                self._route_one(items, source, stream, rows, (task, start),
                                copies)
                continue
            for index in range(len(rows)):
                self._route_one(items, source, stream, rows.take([index])
                                if isinstance(rows, ColumnBatch)
                                else [rows[index]], (task, start + index),
                                None if copies is None else copies[index:index + 1])
        return items

    def _route_one(self, items: List[WorkItem], source: str, stream: str,
                   rows: List[tuple], position: Tuple[int, int],
                   occurrences: Optional[List[int]]):
        for edge, grouping, counts in self._edges[source]:
            if not edge.subscribes(stream):
                continue
            parallelism = self._parallelism[edge.target]
            at = (position, occurrences) if counts else (position,)
            for target_task, sub_rows in grouping.targets_batch(
                    stream, rows, parallelism, *at):
                if not 0 <= target_task < parallelism:
                    raise TopologyError(
                        f"grouping for {edge.source}->{edge.target} returned "
                        f"task {target_task} outside [0, {parallelism})"
                    )
                items.append((edge.target, target_task, source, stream, sub_rows))


# ---------------------------------------------------------------------------
# Wave coalescing
# ---------------------------------------------------------------------------

#: what a task is handed for one run: ``(source, stream, rows, ctx,
#: parts)``; ``ctx`` is the span context of the hop that produced the
#: rows -- a :class:`~repro.obs.tracing.FanIn` of them when the run was
#: merged from several traced hops, None unless the run is traced -- and
#: ``parts`` the number of routed batches the run merged
Delivery = Tuple[str, str, object, object, int]


def _layout(payload):
    """What two payloads must share to execute as one batch: a row list,
    or a ColumnBatch's arity (whatever its signs); None for an empty
    payload, which merges with nothing."""
    if not len(payload):
        return None
    return payload.width if isinstance(payload, ColumnBatch) else "rows"


def _concat(parts: list):
    if isinstance(parts[0], ColumnBatch):
        return ColumnBatch.concat(parts)
    return [row for part in parts for row in part]


class WaveBuffer:
    """Routed work awaiting a later level, coalesced per ``(target, task)``.

    A level pass hands every task its input for the round at once, so a
    level schedule never promised per-tuple interleaving; what a task
    does see is its deliveries in arrival order.  The buffer keeps that
    order and folds every maximal run of deliveries that share ``(source,
    stream)`` and representation into one batch -- a joiner fed 48 spout
    batches of one relation executes one batch of their rows.  A
    retraction is a row whose sign is -1, not a stream, so one edge's
    inserts and retractions merge into one batch with their signs in
    arrival order; an empty payload stays a delivery of its own.  Tracing
    does not split a run: the merged batch carries the contexts of all
    its parts with their row counts (a :class:`~repro.obs.tracing.FanIn`),
    and executing it records one span per part.

    The rounds of :class:`~repro.storm.cluster.LocalCluster` route into
    one and pop from it level by level, on either executor; under
    ``processes`` a popped run crosses the pipe as one payload.
    """

    def __init__(self):
        #: (target, task) -> runs, each ``[source, stream, layout,
        #: payloads, (ctx, rows) of the traced payloads]``
        self._runs: Dict[Tuple[str, int], List[list]] = {}

    def __bool__(self) -> bool:
        return bool(self._runs)

    def depth(self) -> int:
        """Deliveries waiting (the queue-depth sample of a level)."""
        return sum(len(runs) for runs in self._runs.values())

    def add(self, items: List[WorkItem], ctx=None):
        """Buffer one ``Router.route`` result, all parented by ``ctx``."""
        for target, task_index, source, stream, rows in items:
            layout = _layout(rows)
            runs = self._runs.setdefault((target, task_index), [])
            if runs:
                last = runs[-1]
                if (layout is not None and last[2] == layout
                        and last[0] == source and last[1] == stream):
                    last[3].append(rows)
                    if ctx is not None:
                        last[4].append((ctx, len(rows)))
                    continue
            runs.append([source, stream, layout, [rows],
                         [] if ctx is None else [(ctx, len(rows))]])

    def pop(self, key) -> List[Delivery]:
        """Remove and return one task's deliveries, each run merged."""
        deliveries = []
        for source, stream, _, payloads, traced in self._runs.pop(key, ()):
            rows = payloads[0] if len(payloads) == 1 else _concat(payloads)
            deliveries.append((source, stream, rows, merged_context(
                traced, len(rows)) if traced else None, len(payloads)))
        return deliveries


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def worker_loop(state, recv, send):
    """The command loop of every forked worker.

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


class ResidentWorkerState:
    """Everything one resident worker owns: bolt tasks + armed faults.

    A worker executes delivered micro-batches on its owned tasks and
    returns the raw emissions, with their stream positions, for the
    coordinator to route.  The position counts live in the tasks, so a
    restored task counts on from its snapshot and a replay places every
    row where the original delivery did: there is no routing state.

    ``kill_after`` arms deterministic fault injection
    (:class:`repro.storm.failures.FaultInjector`): once the deliveries it
    executed *in this incarnation* merged that many routed micro-batches
    (however many runs they came in), the worker SIGKILLs itself
    mid-protocol -- the test harness for the recovery path."""

    #: shipped whole to freshly spawned workers on respawn -- opt into
    #: squall-lint's pickle-safety and determinism rules
    PIPE_PICKLED = True

    #: coordinator command -> method (see :func:`worker_loop`)
    COMMANDS = {"execute": "execute", "checkpoint": "checkpoint",
                "restore": "restore", "collect": "exports"}

    def __init__(self, worker_id: int, owned: Dict[Tuple[str, int], object],
                 shape: Dict[str, int],
                 kill_after: Optional[List[Tuple[int, int]]] = None,
                 observe: str = "off"):
        self.worker_id = worker_id
        self.owned = owned  # (component, task_index) -> task instance
        #: component -> parallelism of every owned component: the shape
        #: of the counters each reply ships home
        self.shape = shape
        #: routed micro-batches the executed deliveries merged
        self.batches_executed = 0
        #: [(after_batches, signal), ...], sorted; consumed front to back
        self.kill_after = sorted(kill_after or [])
        #: the worker's own observer (None = observe='off')
        self.obs = (None if observe == "off"
                    else Observer(observe, worker=worker_id))
        #: round -> the work items of that round this worker was forked
        #: with (:meth:`ResidentWorkerPool.start`)
        self.inherited: Dict[int, List[tuple]] = {}

    def _maybe_die(self):
        if not self.kill_after:
            return
        after, signal = self.kill_after[0]
        if self.batches_executed >= after:
            os.kill(os.getpid(), signal)  # SIGKILL: never returns

    def execute(self, component: str, rounds: list, punctuation=None):
        """One turn of ``component`` on the owned tasks: its ``rounds``
        back to back, each a list of deliveries or the index of a round
        handed down at fork time, then the ``punctuation`` (if any) on
        every owned task of the component.  The armed kill points count
        the routed batches each delivery merges.

        A delivery is ``(task,)`` and a :data:`Delivery`; returns
        ``(outputs, counters, obs_payload)``: per round, the raw
        emissions ``(task, emissions, child_ctx, position)`` for the
        coordinator to route (the punctuation's in the last round's),
        what this call counted as a ``TopologyMetrics`` of the worker's
        own for the coordinator to ``merge``, and its observer's
        :meth:`~repro.obs.Observer.drain` payload (None when the run is
        unobserved).  Both contexts are None unless the run is traced."""
        obs = self.obs
        counters = TopologyMetrics.of(self.shape)
        outputs: List[List[tuple]] = []
        for work in rounds:
            emitted: List[tuple] = []
            for task_index, source, stream, rows, ctx, parts in (
                    self.inherited.pop(work, []) if isinstance(work, int)
                    else work):
                task = self.owned[(component, task_index)]
                emissions, child = deliver(task, component, task_index,
                                           source, stream, rows, ctx,
                                           counters, obs)
                self.batches_executed += parts
                if emissions:
                    emitted.append((task_index, emissions, child,
                                    stream_position(task, task_index,
                                                    emissions)))
                self._maybe_die()
            outputs.append(emitted)
        for (name, task_index), task in sorted(self.owned.items()):
            if name == component and punctuation is not None:
                emissions = punctuate(task, name, task_index, punctuation,
                                      counters)
                if emissions:
                    outputs[-1].append((task_index, emissions, None,
                                        stream_position(task, task_index,
                                                        emissions)))
        return outputs, counters, None if obs is None else obs.drain()

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

    def exports(self) -> Dict[Tuple[str, int], object]:
        """What each owned task ships home at the end of a batch run, for
        result extraction (:meth:`~repro.storm.topology.Bolt.export`)."""
        return {key: task.export() for key, task in self.owned.items()}


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

    def __init__(self, worker_ids: List[int],
                 component: Optional[str] = None):
        super().__init__(f"worker(s) {sorted(worker_ids)} died")
        self.worker_ids = sorted(worker_ids)
        #: the component whose turn the workers died in, if one was running
        self.component = component


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
    if hasattr(os, "sched_setaffinity"):
        # one CPU of the coordinator's mask per worker: two forked
        # CPU-bound children left to the scheduler can share one core
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[state.worker_id % len(cpus)]})

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
    """The batch ``processes`` run: the inline rounds on a resident
    worker pool.

    The pool is forked over the topology's bolt tasks (fork copies the
    task table into it) and the spouts stay here.  The cluster holds the
    pool for the run, so its rounds
    (:meth:`~repro.storm.cluster.LocalCluster._pull_rounds`, which
    starts the pool) and its finishing pass hand each component's turn
    to the workers; when the run ends what each task exports
    (:meth:`~repro.storm.topology.Bolt.export`) ships home into the
    cluster, so result extraction reads what it reads after an inline
    run.  A batch run has no checkpoint to recover from, so a dead
    worker fails it, naming the component it was running.
    """

    def __init__(self, cluster, parallelism: Optional[int] = None):
        self.cluster = cluster
        observer = cluster.observer
        self.pool = ResidentWorkerPool(
            cluster.topology, cluster._tasks, parallelism,
            observe="off" if observer is None else observer.level)

    def run(self, batch_size: int = 1):
        """Execute the topology to completion; returns the cluster metrics."""
        cluster, pool = self.cluster, self.pool
        cluster.pool = pool
        try:
            cluster._run_to_end(batch_size)
            for (name, task_index), task in pool.collect().items():
                cluster._tasks[name][task_index] = task
        except WorkerDied as death:
            worker_id = death.worker_ids[0]
            raise ExecutorError(
                f"processes worker {worker_id} died running "
                f"{death.component!r} (exit code "
                f"{pool.exit_code(worker_id)})") from None
        finally:
            # survivors of a dead peer included: no worker stays behind
            cluster.pool = None
            pool.stop()
        return cluster.metrics


# ---------------------------------------------------------------------------
# The resident worker pool (batch and streaming 'processes')
# ---------------------------------------------------------------------------


class ResidentWorkerPool:
    """Supervisor of the ``processes`` backend's workers.

    Owns the fork/assignment/respawn lifecycle of N resident workers,
    each holding a disjoint slice of the topology's bolt tasks
    (``exclude`` names coordinator-owned components -- streaming's delta
    sinks, whose subscriptions must live in the parent).  All commands
    detect worker death (EOF / broken pipe / liveness probe) and raise
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

    def _fork(self, worker_id: int, inherited=None):
        state = self._make_state(worker_id)
        state.inherited = inherited or {}
        # fork with every object of this process frozen: the child's
        # collections then skip the inherited heap instead of walking
        # it, and copy-on-write faulting it in, on its first full one
        gc.freeze()
        try:
            self._workers[worker_id] = ForkedWorker(self._context, state)
        finally:
            gc.unfreeze()

    def start(self, component: Optional[str] = None, rounds=()):
        """Fork the workers.  ``rounds`` are ``component``'s turns in
        rounds already routed, each the ``(index, task, deliveries)`` of
        a level pass's turn: every worker is forked holding its tasks'
        deliveries, so they never cross a pipe, and executes them when
        :meth:`run_level` names those rounds."""
        if not self.assignment:
            return
        inherited: Dict[int, Dict[int, List[tuple]]] = {}
        for round_index, work in enumerate(rounds):
            for worker_id, items in self._items(component, work).items():
                inherited.setdefault(worker_id, {})[round_index] = items
        for worker_id in range(self.n_workers):
            self._fork(worker_id, inherited.get(worker_id))

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
        """Replace dead workers with fresh forks of the parent's
        pristine task instances (the supervisor follows up with a
        ``restore``).  The armed fault that killed the dead incarnation
        (its lowest kill point) is consumed; later ones re-arm against
        the new incarnation's batch counter."""
        for worker_id in worker_ids:
            worker = self._workers.get(worker_id)
            if worker is not None:
                worker.join()
            remaining = sorted(self._kill_plan.pop(worker_id, []))[1:]
            if remaining:
                self._kill_plan[worker_id] = remaining
            self._fork(worker_id)

    # -- command fan-out ---------------------------------------------------

    def _command(self, recipients: Dict[int, tuple]) -> Dict[int, object]:
        """Send one command per recipient, then collect every reply.

        The reply phase always drains every worker that was sent a
        command (otherwise a stale reply would desynchronize the next
        command round); any send/recv failure or error reply marks that
        worker dead and the whole round raises :class:`WorkerDied` after
        draining -- the caller abandons the round and recovers.
        """
        return self._replies(*self._send(recipients))

    def _send(self, recipients: Dict[int, tuple]):
        """The send phase of :meth:`_command`: ``(sent, dead)`` ids."""
        dead: List[int] = []
        sent: List[int] = []
        for worker_id, message in recipients.items():
            try:
                self._workers[worker_id].send(message)
                sent.append(worker_id)
            except WorkerDied:
                dead.append(worker_id)
        return sent, dead

    def _replies(self, sent: List[int], dead: List[int]) -> Dict[int, object]:
        """The reply phase of :meth:`_command`."""
        errors: List[str] = []
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

    def execute(self, component: str, per_worker: Dict[int, list],
                counters, obs, punctuation=None) -> List[List[tuple]]:
        """Send each worker its rounds of ``component``'s turn, and the
        ``punctuation``, in one ``execute`` command
        (:meth:`ResidentWorkerState.execute`).

        Workers execute their slices concurrently.  Their outputs are
        returned per round, their counters merged into ``counters`` and
        their obs payloads into ``obs`` (an :class:`~repro.obs.Observer`,
        or None to drop them), all in worker-id order, so delivery stays
        deterministic for a fixed assignment.  A dead worker raises
        :class:`WorkerDied` naming the component."""
        try:
            replies = self._command({
                worker_id: ("execute", component, rounds, punctuation)
                for worker_id, rounds in per_worker.items()})
        except WorkerDied as death:
            raise WorkerDied(death.worker_ids, component) from None
        outputs = []
        for worker_id in sorted(replies):
            worker_outputs, worker_counters, obs_payload = replies[worker_id]
            outputs.append(worker_outputs)
            counters.merge(worker_counters)
            if obs is not None:
                obs.merge_worker_obs(obs_payload)
        return [[output for emitted in round_outputs for output in emitted]
                for round_outputs in zip(*outputs)]

    def run_level(self, component: str, rounds: list, route, outs: list,
                  counters, obs, punctuation=None):
        """:func:`repro.storm.kernel.run_level` on the workers, for
        ``component``'s turns in one or more rounds: ``rounds[k]`` is
        round ``k``'s turn (the ``(index, task, deliveries)`` of a level
        pass's), or None for a round the workers were forked holding
        (:meth:`start`).  Every worker that owns a delivery -- or, with a
        ``punctuation``, a task of the component -- gets one ``execute``
        command and runs the rounds back to back, then the punctuation;
        the replies are routed once all are in -- so the coordinator
        takes no core from a worker while they run -- round ``k``'s
        emissions into ``outs[k]``, round after round and in task
        order."""
        per_worker: Dict[int, list] = {}
        for round_index, work in enumerate(rounds):
            held = (dict.fromkeys(self._workers, round_index)
                    if work is None else self._items(component, work))
            for worker_id, items in held.items():
                per_worker.setdefault(
                    worker_id, [[]] * len(rounds))[round_index] = items
        if punctuation is not None:
            for (name, _task_index), owner in self.assignment.items():
                if name == component:
                    per_worker.setdefault(owner, [[]] * len(rounds))
        outputs = self.execute(component, per_worker, counters, obs,
                               punctuation)
        for emitted, out in zip(outputs, outs):
            self._route(component, emitted, route, out)

    def _items(self, component: str, work) -> Dict[int, List[tuple]]:
        """A turn's deliveries as each owning worker's, ``(task,)`` and a
        :data:`Delivery`; a worker with none gets no entry."""
        per_worker: Dict[int, List[tuple]] = {}
        for index, _task, deliveries in work:
            if deliveries:
                per_worker.setdefault(
                    self.assignment[(component, index)], []).extend(
                        (index,) + delivery for delivery in deliveries)
        return per_worker

    def exit_code(self, worker_id: int) -> Optional[int]:
        """How a dead worker ended (``-9``: SIGKILLed)."""
        return self._workers[worker_id].exit_code()

    @staticmethod
    def _route(component: str, outputs: List[tuple], route, out):
        """Route a turn's emissions into ``out`` in task order -- a
        task's own in the order it made them, which is the order an
        inline pass routes them in."""
        outputs.sort(key=itemgetter(0))  # stable: per task, as emitted
        for _index, emissions, child, position in outputs:
            out.add(route(component, emissions, position), child)

    def collect(self) -> Dict[Tuple[str, int], object]:
        """What every worker's tasks ship home (:meth:`ResidentWorkerState.
        exports`)."""
        replies = self._command({worker_id: ("collect",)
                                 for worker_id in self._workers})
        return {key: task for worker_id in sorted(replies)
                for key, task in replies[worker_id].items()}

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
