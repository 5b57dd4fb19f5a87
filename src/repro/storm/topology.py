"""Topology definition: spouts, bolts, and the builder wiring them up.

A topology is a DAG of named components.  Component factories are called
once per task (with the task index and parallelism), so sources can
partition their data across tasks the way Storm's spout instances do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.storm.groupings import (
    AllGrouping,
    FieldsGrouping,
    GlobalGrouping,
    Grouping,
    ShuffleGrouping,
)

Emission = Tuple[str, tuple]  # (stream id, values)


class TopologyError(ValueError):
    """Invalid topology wiring (unknown component, duplicate name, ...)."""


class Spout:
    """A data source: pull-based, one tuple per call, None when exhausted."""

    #: rows emitted so far per stream (replaced, never mutated, by
    #: :func:`repro.storm.kernel.stream_position`)
    emitted: Dict[str, int] = {}

    def open(self, task_index: int, parallelism: int):
        """Called once before the first ``next_tuple``."""

    def next_tuple(self) -> Optional[Emission]:
        raise NotImplementedError

    def next_batch(self, max_rows: int) -> List[Emission]:
        """Pull up to ``max_rows`` emissions in one call.

        Returning fewer than ``max_rows`` emissions signals exhaustion (the
        per-tuple contract's ``None``).  The default implementation loops
        ``next_tuple``; sources with cheap bulk access override it.
        """
        emissions: List[Emission] = []
        while len(emissions) < max_rows:
            emission = self.next_tuple()
            if emission is None:
                break
            emissions.append(emission)
        return emissions


class ListSpout(Spout):
    """Emits a pre-materialised list of rows on one stream.

    Rows are striped across the spout's tasks, mirroring a partitioned
    input file read by parallel reader tasks.
    """

    def __init__(self, rows: Sequence[tuple], stream: str = "default"):
        self.rows = rows
        self.stream = stream
        self._position = 0
        self._step = 1

    def open(self, task_index: int, parallelism: int):
        self._position = task_index
        self._step = parallelism

    def next_tuple(self) -> Optional[Emission]:
        if self._position >= len(self.rows):
            return None
        row = self.rows[self._position]
        self._position += self._step
        return (self.stream, row)

    def next_batch(self, max_rows: int) -> List[Emission]:
        rows = self.rows
        stream = self.stream
        position = self._position
        step = self._step
        stop = min(len(rows), position + step * max_rows)
        emissions = [(stream, rows[i]) for i in range(position, stop, step)]
        self._position = position + step * len(emissions)
        return emissions


class Bolt:
    """A computation node: consumes tuples, returns emissions."""

    #: whether this task's state depends on the order its input arrives
    #: in (a window expiring per arrival).  One such task keeps the whole
    #: topology on the inline loop's depth-first schedule: coalescing a
    #: level's deliveries reorders arrivals across sources and tasks.
    order_sensitive = False

    emitted: Dict[str, int] = {}  # as Spout.emitted

    def prepare(self, task_index: int, parallelism: int):
        """Called once before the first ``execute``."""

    def execute(self, source: str, stream: str, values: tuple) -> List[Emission]:
        raise NotImplementedError

    def execute_batch(self, source: str, stream: str,
                      rows: Sequence[tuple]) -> List[Emission]:
        """Consume a micro-batch of tuples from one (source, stream).

        Emissions are returned in per-tuple order, so batched execution
        preserves the per-tuple semantics.  The default implementation
        loops ``execute``; hot bolts override it with a vectorized pass.
        """
        emissions: List[Emission] = []
        execute = self.execute
        for row in rows:
            emissions.extend(execute(source, stream, row))
        return emissions

    def finish(self) -> List[Emission]:
        """Called once after every upstream component finished (flush)."""
        return []

    def export(self) -> object:
        """What a finished batch ``processes`` run ships home in this
        task's place, for result extraction: the task itself, unless a
        bolt's state is read back only through a few counters."""
        return self


@dataclass
class ComponentSpec:
    name: str
    factory: Callable[[int, int], object]  # (task index, parallelism) -> instance
    parallelism: int
    is_spout: bool


@dataclass
class EdgeSpec:
    source: str
    target: str
    grouping: Grouping
    streams: Optional[frozenset] = None  # None = subscribe to all streams

    def subscribes(self, stream: str) -> bool:
        return self.streams is None or stream in self.streams


@dataclass
class Topology:
    components: Dict[str, ComponentSpec]
    edges: List[EdgeSpec]

    def out_edges(self, source: str) -> List[EdgeSpec]:
        return [edge for edge in self.edges if edge.source == source]

    def in_edges(self, target: str) -> List[EdgeSpec]:
        return [edge for edge in self.edges if edge.target == target]

    def upstream(self, target: str) -> List[str]:
        return sorted({edge.source for edge in self.in_edges(target)})

    def topological_order(self) -> List[str]:
        """Component names, sources first; raises on cycles."""
        incoming = {name: 0 for name in self.components}
        for edge in self.edges:
            incoming[edge.target] += 1
        ready = sorted(name for name, count in incoming.items() if count == 0)
        order = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for edge in self.out_edges(node):
                incoming[edge.target] -= 1
                if incoming[edge.target] == 0:
                    ready.append(edge.target)
            ready.sort()
        if len(order) != len(self.components):
            raise TopologyError("topology contains a cycle")
        return order


class BoltDeclarer:
    """Fluent grouping declarations, as in Storm's TopologyBuilder."""

    def __init__(self, builder: "TopologyBuilder", name: str):
        self._builder = builder
        self._name = name

    def _add(self, source: str, grouping: Grouping, streams=None) -> "BoltDeclarer":
        self._builder._edges.append(
            EdgeSpec(source, self._name, grouping,
                     frozenset(streams) if streams else None)
        )
        return self

    def shuffle_grouping(self, source: str, streams=None) -> "BoltDeclarer":
        return self._add(source, ShuffleGrouping(), streams)

    def fields_grouping(self, source: str, positions: Sequence[int],
                        streams=None) -> "BoltDeclarer":
        return self._add(source, FieldsGrouping(positions), streams)

    def all_grouping(self, source: str, streams=None) -> "BoltDeclarer":
        return self._add(source, AllGrouping(), streams)

    def global_grouping(self, source: str, streams=None) -> "BoltDeclarer":
        return self._add(source, GlobalGrouping(), streams)

    def custom_grouping(self, source: str, grouping: Grouping,
                        streams=None) -> "BoltDeclarer":
        return self._add(source, grouping, streams)


class TopologyBuilder:
    """Collects components and groupings, then validates and builds."""

    def __init__(self):
        self._components: Dict[str, ComponentSpec] = {}
        self._edges: List[EdgeSpec] = []

    def _register(self, name: str, factory, parallelism: int, is_spout: bool):
        if not name:
            raise TopologyError("component name must be non-empty")
        if name in self._components:
            raise TopologyError(f"duplicate component name {name!r}")
        if parallelism <= 0:
            raise TopologyError(f"parallelism of {name!r} must be positive")
        self._components[name] = ComponentSpec(name, factory, parallelism, is_spout)

    def set_spout(self, name: str, factory: Callable[[int, int], Spout],
                  parallelism: int = 1):
        self._register(name, factory, parallelism, is_spout=True)

    def set_bolt(self, name: str, factory: Callable[[int, int], Bolt],
                 parallelism: int = 1) -> BoltDeclarer:
        self._register(name, factory, parallelism, is_spout=False)
        return BoltDeclarer(self, name)

    def build(self) -> Topology:
        for edge in self._edges:
            if edge.source not in self._components:
                raise TopologyError(f"edge references unknown source {edge.source!r}")
            if edge.target not in self._components:
                raise TopologyError(f"edge references unknown target {edge.target!r}")
            if self._components[edge.target].is_spout:
                raise TopologyError(f"spout {edge.target!r} cannot receive streams")
        topology = Topology(dict(self._components), list(self._edges))
        topology.topological_order()  # raises on cycles
        return topology
