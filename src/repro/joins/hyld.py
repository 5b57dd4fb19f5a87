"""HyLD: Hypercube partitioning scheme with Local DBToaster (paper 3.4).

Squall parallelises the state-of-the-art local join by *separation of
concerns*: the hypercube scheme guarantees that every machine executes an
independent portion of the join (each output tuple is produced at exactly
one machine), so an unmodified DBToaster instance runs on every machine.
The operator combines network efficiency (hypercube) with CPU efficiency
(DBToaster); swapping in the traditional local join isolates the CPU share
(Figure 8), swapping partitioners isolates the network share (Figure 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.core.predicates import JoinSpec
from repro.joins.base import LocalJoin
from repro.joins.dbtoaster import DBToasterJoin
from repro.joins.traditional import TraditionalJoin
from repro.partitioning.base import Partitioner
from repro.partitioning.hash_hypercube import HashHypercube
from repro.partitioning.hybrid_hypercube import HybridHypercube
from repro.partitioning.random_hypercube import RandomHypercube

SCHEMES = {
    "hash": HashHypercube,
    "random": RandomHypercube,
    "hybrid": HybridHypercube,
}

LOCAL_JOINS: Dict[str, Callable[[JoinSpec], LocalJoin]] = {
    "dbtoaster": DBToasterJoin,
    "traditional": TraditionalJoin,
}


class MemoryBudgetExceeded(RuntimeError):
    """A machine's local state outgrew the configured per-machine budget.

    Mirrors the paper's Figure 7, where the Hash-Hypercube 'does not
    complete the processing due to high memory requirements caused by high
    skew' on the 80G configuration.
    """

    def __init__(self, machine: int, state_size: int, budget: int, processed: int):
        super().__init__(
            f"machine {machine} holds {state_size} entries "
            f"(budget {budget}) after {processed} input tuples"
        )
        self.machine = machine
        self.state_size = state_size
        self.budget = budget
        self.processed = processed


@dataclass
class HyLDStats:
    """Per-run measurements used by the benchmarks and the cost model."""

    machines: int
    received: List[int]
    work: List[int]
    state: List[int]
    output_count: int
    input_count: int
    source_counts: Dict[str, int] = field(default_factory=dict)
    memory_overflow: bool = False
    overflow_after: Optional[int] = None

    @property
    def max_load(self) -> int:
        return max(self.received) if self.received else 0

    @property
    def avg_load(self) -> float:
        return sum(self.received) / len(self.received) if self.received else 0.0

    @property
    def skew_degree(self) -> float:
        """max / avg load per machine (the paper's section 6 monitor)."""
        avg = self.avg_load
        return self.max_load / avg if avg else 0.0

    @property
    def replication_factor(self) -> float:
        """Tuples received divided by tuples produced upstream (section 6)."""
        return sum(self.received) / self.input_count if self.input_count else 0.0

    @property
    def max_work(self) -> int:
        return max(self.work) if self.work else 0

    @property
    def total_network_tuples(self) -> int:
        return sum(self.received)


class HyLDOperator:
    """A parallel multi-way join: partitioning scheme x local join."""

    def __init__(
        self,
        spec: JoinSpec,
        machines: int,
        scheme: Union[str, Partitioner] = "hybrid",
        local_join: Union[str, Callable[[JoinSpec], LocalJoin]] = "dbtoaster",
        seed: int = 0,
        memory_budget: Optional[int] = None,
        collect_outputs: bool = True,
    ):
        self.spec = spec
        if isinstance(scheme, str):
            try:
                builder = SCHEMES[scheme]
            except KeyError:
                raise ValueError(
                    f"unknown scheme {scheme!r}; expected one of {sorted(SCHEMES)}"
                ) from None
            self.partitioner: Partitioner = builder.build(spec, machines, seed=seed)
        else:
            self.partitioner = scheme
        if isinstance(local_join, str):
            try:
                factory = LOCAL_JOINS[local_join]
            except KeyError:
                raise ValueError(
                    f"unknown local join {local_join!r}; expected one of {sorted(LOCAL_JOINS)}"
                ) from None
        else:
            factory = local_join
        self.n_machines = self.partitioner.n_machines
        self.locals: List[LocalJoin] = [factory(spec) for _ in range(self.n_machines)]
        self.received = [0] * self.n_machines
        self.memory_budget = memory_budget
        self.collect_outputs = collect_outputs
        self.outputs: List[tuple] = []
        self.output_count = 0
        self.input_count = 0
        self.source_counts: Dict[str, int] = {name: 0 for name in spec.relation_names}
        self.memory_overflow = False
        self.overflow_after: Optional[int] = None

    # -- streaming interface -------------------------------------------------

    def insert(self, rel_name: str, row: tuple) -> List[tuple]:
        return self._apply(rel_name, row, insert=True)

    def delete(self, rel_name: str, row: tuple) -> List[tuple]:
        return self._apply(rel_name, row, insert=False)

    def _apply(self, rel_name: str, row: tuple, insert: bool) -> List[tuple]:
        self.input_count += 1
        # the row's index among its relation's rows is its stream position
        index = self.source_counts.get(rel_name, 0)
        self.source_counts[rel_name] = index + 1
        produced: List[tuple] = []
        for machine in self.partitioner.destinations(rel_name, row,
                                                     (0, index)):
            self.received[machine] += 1
            local = self.locals[machine]
            delta = local.insert(rel_name, row) if insert else local.delete(rel_name, row)
            produced.extend(delta)
            if self.memory_budget is not None and local.state_size() > self.memory_budget:
                self.memory_overflow = True
                if self.overflow_after is None:
                    self.overflow_after = self.input_count
                raise MemoryBudgetExceeded(
                    machine, local.state_size(), self.memory_budget, self.input_count
                )
        self.output_count += len(produced)
        if self.collect_outputs:
            self.outputs.extend(produced)
        return produced

    def run(self, stream: Iterable[Tuple[str, tuple]]) -> HyLDStats:
        """Drive a whole (relation, row) stream through the operator.

        On memory-budget overflow the run stops early (mirroring the
        paper's 'Memory Overflow' bars) and the stats record where.
        """
        try:
            for rel_name, row in stream:
                self.insert(rel_name, row)
        except MemoryBudgetExceeded:
            pass
        return self.stats()

    # -- measurements ----------------------------------------------------------

    def stats(self) -> HyLDStats:
        return HyLDStats(
            machines=self.n_machines,
            received=list(self.received),
            work=[local.work for local in self.locals],
            state=[local.state_size() for local in self.locals],
            output_count=self.output_count,
            input_count=self.input_count,
            source_counts=dict(self.source_counts),
            memory_overflow=self.memory_overflow,
            overflow_after=self.overflow_after,
        )

    def describe(self) -> str:
        return (
            f"HyLD[{self.partitioner.describe()}; "
            f"{type(self.locals[0]).__name__} x {self.n_machines}]"
        )
