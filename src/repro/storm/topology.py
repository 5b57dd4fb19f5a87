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
    """A data source, pulled a micro-batch at a time."""

    #: rows emitted so far per stream (replaced, never mutated, by
    #: :func:`repro.storm.kernel.stream_position`)
    emitted: Dict[str, int] = {}
    #: ``{(stream, row): live copies}`` where a random dimension places
    #: what the task emits, else None (see
    #: :func:`repro.storm.kernel.count_copies`)
    copies: Optional[Dict[tuple, int]] = None
    #: the streams ``copies`` counts (None: every stream)
    copy_streams: Optional[frozenset] = None

    def open(self, task_index: int, parallelism: int):
        """Called once before the first ``next_batch``."""

    def next_batch(self, max_rows: int) -> List[Emission]:
        """Up to ``max_rows`` emissions; empty when none are ready."""
        raise NotImplementedError

    def has_more(self) -> bool:
        """Whether pulling again now may yield rows: a pull that comes
        back short -- even empty -- does not end a spout that says so."""
        raise NotImplementedError

    def exhausted(self) -> bool:
        """True once the spout will never emit again."""
        return not self.has_more()


class Bolt:
    """A computation node: consumes micro-batches, returns emissions."""

    #: rows this task dropped for arriving behind its event-time
    #: progress (a window's late rows); the kernel counts what it adds
    late_rows = 0

    emitted: Dict[str, int] = {}  # as Spout.emitted
    copies: Optional[Dict[tuple, int]] = None  # as Spout.copies
    copy_streams: Optional[frozenset] = None  # as Spout.copy_streams

    def prepare(self, task_index: int, parallelism: int):
        """Called once before the first ``execute_batch``."""

    def execute_batch(self, source: str, stream: str,
                      rows: Sequence[tuple]) -> List[Emission]:
        """Consume a micro-batch of tuples from one (source, stream).

        Emissions are returned in per-tuple order, so a batch's result
        does not depend on how its rows were cut into batches."""
        raise NotImplementedError

    def finish(self) -> List[Emission]:
        """Called once after every upstream component finished (flush)."""
        return []

    def advance_watermark(self, watermark) -> List[Emission]:
        """Called with each watermark punctuation, after the deliveries
        it vouches for (a windowed task expires or closes its windows)."""
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
