"""Fault tolerance: peer recovery, checkpoint planning, fault injection.

Two recovery mechanisms, per the paper (section 5):

- **Peer recovery**: if the partitioning scheme replicates tuples, a
  failed node recovers its state from peers instead of a disk checkpoint
  -- network accesses are several times faster than disk.  A peer of
  machine ``m`` for relation ``R`` is any machine that agrees with ``m``
  on every dimension ``R`` owns: those machines hold identical replicas
  of ``R``'s slice.
- **Checkpointing**: when the scheme replicates only part of the
  operator state, Squall checkpoints exactly the non-replicated part --
  :func:`checkpoint_plan` computes which relations need it, and
  :func:`recovery_strategy` names the mechanism per relation.  The
  streaming ``processes`` executor implements the checkpoint side end to
  end (:mod:`repro.checkpoint`, ``docs/FAULT_TOLERANCE.md``).

:class:`FaultInjector` is the test harness for the checkpoint path: it
arms deterministic worker crashes (a resident worker SIGKILLs itself
once its executed deliveries merged N routed micro-batches), resolved
against the supervisor's task assignment so a test can kill exactly the
worker owning a chosen operator partition.
"""

from __future__ import annotations

import signal as _signal
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.partitioning.hypercube import HypercubePartitioner


@dataclass
class RecoveryReport:
    """Outcome of recovering one failed machine."""

    machine: int
    recovered: Dict[str, List[tuple]]
    peer_used: Dict[str, int]
    #: relations with no peer replica (must come from a checkpoint)
    unrecoverable: List[str] = field(default_factory=list)
    #: tuples moved over the network during recovery
    network_tuples: int = 0

    @property
    def fully_recovered(self) -> bool:
        return not self.unrecoverable


class ReplicatedStateTracker:
    """Tracks which tuples live on which machine, per relation.

    The engine's joiner tasks own the real state; this tracker mirrors the
    placement decisions of a :class:`HypercubePartitioner` so recovery can
    be exercised and verified deterministically.
    """

    def __init__(self, partitioner: HypercubePartitioner):
        self.partitioner = partitioner
        self.state: Dict[int, Dict[str, List[tuple]]] = {
            machine: {} for machine in range(partitioner.n_machines)
        }

    def insert(self, rel_name: str, row: tuple):
        for machine in self.partitioner.destinations(rel_name, row):
            self.state[machine].setdefault(rel_name, []).append(row)

    def slice_of(self, machine: int, rel_name: str) -> List[tuple]:
        return list(self.state[machine].get(rel_name, ()))

    def fail_and_recover(self, machine: int) -> RecoveryReport:
        """Simulate failure of ``machine`` and rebuild its state from peers."""
        lost = self.state[machine]
        report = RecoveryReport(machine=machine, recovered={}, peer_used={})
        for rel_name in sorted(lost):
            peers = self.partitioner.peer_machines(machine, rel_name)
            source = None
            for peer in peers:
                peer_slice = self.state[peer].get(rel_name, [])
                if sorted(peer_slice) == sorted(lost[rel_name]):
                    source = peer
                    break
            if source is None:
                report.unrecoverable.append(rel_name)
                continue
            recovered = self.slice_of(source, rel_name)
            report.recovered[rel_name] = recovered
            report.peer_used[rel_name] = source
            report.network_tuples += len(recovered)
        return report


def checkpoint_plan(partitioner: HypercubePartitioner) -> Dict[str, bool]:
    """Which relations need explicit checkpointing (no peer replicas).

    A relation owns every dimension exactly when its replication factor is
    1 -- then no other machine holds its slice and the scheme alone cannot
    recover it.  Squall replicates only those parts of the operator state
    (section 5, 'Fault tolerance').
    """
    plan = {}
    for rel_name in partitioner.relation_names():
        plan[rel_name] = partitioner.expected_replication(rel_name) == 1
    return plan


def recovery_strategy(partitioner: HypercubePartitioner) -> Dict[str, str]:
    """Recovery mechanism per relation: ``'peer'`` or ``'checkpoint'``.

    The decision rule of the paper's section 5, spelled out: a relation
    whose scheme replication factor exceeds 1 has identical replicas on
    peer machines -- recover it over the network (:class:`ReplicatedState\
Tracker.fail_and_recover`).  A relation owning every dimension has no
    replica anywhere; only a checkpoint (:mod:`repro.checkpoint`) can
    bring it back.
    """
    return {
        rel_name: "checkpoint" if needs_checkpoint else "peer"
        for rel_name, needs_checkpoint in checkpoint_plan(partitioner).items()
    }


@dataclass(frozen=True)
class WorkerKill:
    """One armed crash: SIGKILL the worker owning a partition.

    ``component``/``task_index`` pick the operator partition whose
    *owning resident worker* is the victim; ``after_batches`` is the
    number of *routed* micro-batches that worker's executed deliveries
    merge (across all its owned tasks; a delivery that merged three
    polls counts three) before it kills itself -- a deterministic kill
    point in the stream rather than a racy timer, and one a round that
    merges more polls per delivery does not move.
    """

    component: str
    task_index: int = 0
    after_batches: int = 1
    signal: int = _signal.SIGKILL


class FaultInjector:
    """Deterministic worker-crash injection for the resident executor.

    Collects :class:`WorkerKill` specs and resolves them against a
    supervisor's task assignment (``{(component, task_index): worker_id}``)
    into the per-worker kill plan the forked workers arm at startup.
    A spec naming a coordinator-owned partition (a delta sink, a source
    pump) is rejected: those live in the supervising process, which is
    outside the worker failure domain this harness exercises.
    """

    def __init__(self, kills: List[WorkerKill] = ()):
        self.kills: List[WorkerKill] = list(kills)

    def kill_worker_of(self, component: str, task_index: int = 0,
                       after_batches: int = 1) -> "FaultInjector":
        """Arm one kill; returns self for chaining."""
        self.kills.append(WorkerKill(component, task_index, after_batches))
        return self

    def kill_plan(self, assignment: Dict[Tuple[str, int], int]
                  ) -> Dict[int, List[Tuple[int, int]]]:
        """Resolve the armed specs to ``{worker_id: [(after, signal)]}``."""
        plan: Dict[int, List[Tuple[int, int]]] = {}
        for kill in self.kills:
            key = (kill.component, kill.task_index)
            owner = assignment.get(key)
            if owner is None:
                raise ValueError(
                    f"cannot arm a kill for {key}: not a worker-owned "
                    f"partition (sinks and sources live in the "
                    f"coordinator; pick a join or aggregation task)"
                )
            plan.setdefault(owner, []).append(
                (kill.after_batches, kill.signal))
        return plan
