"""Compile physical plans to Storm topologies and execute them.

Every physical component becomes one spout or bolt; partitioning schemes
become stream groupings; joiner tasks own their local join state.  The
returned :class:`RunResult` carries the results plus every counter the
cost model and the paper's monitors need.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.columnar import ColumnBatch, ColumnEmissions, sign_runs
from repro.core.options import ExecutionOptions
from repro.core.predicates import JoinSpec
from repro.engine.component import (
    AggComponent,
    JoinComponent,
    PhysicalPlan,
    SourceComponent,
)
from repro.engine.operators import Aggregation, Projection, Selection
from repro.engine.windows import (
    SlidingWindowedAggregation,
    WindowedAggregation,
    WindowedJoinState,
)
from repro.joins.base import LocalJoin
from repro.joins.dbtoaster import DBToasterJoin
from repro.joins.traditional import TraditionalJoin
from repro.partitioning.base import Partitioner
from repro.partitioning.hash_hypercube import HashHypercube
from repro.partitioning.hybrid_hypercube import HybridHypercube
from repro.partitioning.random_hypercube import RandomHypercube
from repro.storm.cluster import LocalCluster
from repro.storm.groupings import HypercubeGrouping, KeyMappedGrouping
from repro.storm.metrics import TopologyMetrics
from repro.storm.topology import Bolt, Spout, Topology, TopologyBuilder
from repro.util import round_robin_assignment

#: a join component's ``scheme`` names one of these partitioners ...
SCHEMES = {
    "hash": HashHypercube,
    "random": RandomHypercube,
    "hybrid": HybridHypercube,
}

#: ... and its ``local_join`` one of these local algorithms
LOCAL_JOINS: Dict[str, Callable[[JoinSpec], LocalJoin]] = {
    "dbtoaster": DBToasterJoin,
    "traditional": TraditionalJoin,
}


def _choice(registry: Dict[str, object], key: str, what: str):
    try:
        return registry[key]
    except KeyError:
        raise ValueError(f"unknown {what} {key!r}; expected one of "
                         f"{sorted(registry)}") from None


def source_operators(
    component: SourceComponent,
) -> Tuple[Optional[Selection], Optional[Projection]]:
    """The co-located selection and projection of a source component
    (None where it has none): a batch spout and a streaming pump
    apply the same ones."""
    selection = projection = None
    if component.predicate is not None:
        selection = Selection(component.predicate, component.relation.schema,
                              cost_class=component.selection_cost_class)
    if component.projection is not None:
        projection = Projection(component.projection,
                                component.relation.schema,
                                names=component.projection_names)
    return selection, projection


class SourcePump(Spout):
    """The one source task of every topology: polls a push source and
    applies the source component's co-located selection/projection.

    A batch run's pumps replay stripes of stored relations
    (:class:`SourceSpout`); a streaming query's poll the caller's push
    sources, or replays of the stored ones.  Either way a relation
    enters the topology the same way: on the columnar path as views of
    its stored columns (built once per relation, not per poll), on the
    row path as row slices read through ``ReplaySource.take``, which
    builds no columns.
    """

    def __init__(self, name: str, source,
                 selection: Optional[Selection] = None,
                 projection: Optional[Projection] = None):
        self.name = name
        self.source = source
        self.selection = selection
        self.projection = projection
        #: coalesce single-stream polls into a ColumnBatch so downstream
        #: bolts take their vectorized paths; set by the driving cluster
        self.columnar = False
        #: raw rows polled so far, pre-selection
        self.read = 0
        #: raw rows the last poll pulled, pre-selection: a fully filtered
        #: batch still *advanced the source* and counts as progress
        self.last_poll_raw = 0
        #: whether the last poll was full (see :meth:`has_more`)
        self._full = False
        #: a stored replay's row reader (``ReplaySource.take``): the row
        #: path hands it the selection's predicate
        self._take = getattr(source, "take", None)

    def poll(self, max_rows: int):
        """One poll of the source, filtered and projected.

        A single-stream poll runs the operators' batch forms on the
        whole poll: a :class:`ColumnBatch` with ``columnar`` on, a row
        list with it off (an unsigned polled batch is read as its rows),
        so a vectorizable predicate or projection runs as whole-column
        kernels only on the columnar path.  A signed batch (the one way
        to push retractions) stays a batch, signs and all.  A poll
        mixing streams keeps each row's stream and goes row by row.  A
        stored replay's row path reads past the rows the selection
        rejects (:meth:`_take_rows`)."""
        if self._take is not None and not self.columnar:
            return self._take_rows(max_rows)
        emissions = self.source.poll(max_rows)
        self.last_poll_raw = len(emissions)
        self.read += len(emissions)
        self._full = len(emissions) >= max_rows
        if not emissions:
            return emissions
        if isinstance(emissions, ColumnEmissions):
            stream, rows = emissions.stream, emissions.batch
            if rows.signs is None and not self.columnar:
                rows = rows.to_rows()
        else:
            streams, rows = zip(*emissions)
            stream = streams[0]
            if streams.count(stream) != len(streams):
                return self._per_row(emissions)
            rows = ColumnBatch.from_rows(rows) if self.columnar \
                else list(rows)
        if self.selection is not None:
            rows = self.selection.apply_batch(rows)
        if self.projection is not None:
            rows = self.projection.apply_batch(rows)
        if isinstance(rows, ColumnBatch):
            return ColumnEmissions(stream, rows) if rows else []
        return [(stream, row) for row in rows]

    def next_batch(self, max_rows: int):  # the spout interface rounds use
        return self.poll(max_rows)

    def _take_rows(self, max_rows: int):
        """A stored replay's poll on the row path: up to ``max_rows``
        rows that pass the selection, which runs inside the read, so
        the poll is full whenever that many pass."""
        selection = self.selection
        rows, read = self._take(
            max_rows, None if selection is None else selection._fn)
        self.last_poll_raw = read
        self.read += read
        self._full = len(rows) >= max_rows
        if selection is not None:
            selection.seen += read
            selection.passed += len(rows)
        if self.projection is not None:
            rows = self.projection.apply_batch(rows)
        stream = self.source.stream
        return [(stream, row) for row in rows]

    def has_more(self) -> bool:
        """The last poll was full, however much the selection kept."""
        return self._full

    def _per_row(self, emissions):
        if self.selection is not None:
            apply = self.selection.apply
            emissions = [(stream, row) for stream, row in emissions
                         if apply(row) is not None]
        if self.projection is not None:
            apply = self.projection.apply
            emissions = [(stream, apply(row)) for stream, row in emissions]
        return emissions

    def watermark(self) -> Optional[float]:
        return self.source.watermark()

    def exhausted(self) -> bool:
        return self.source.exhausted()


class SourceSpout(SourcePump):
    """Task ``task_index`` of a stored relation's source component: the
    pump over its stripe of the rows (``task_index``, ``task_index +
    parallelism``, ...)."""

    def __init__(self, component: SourceComponent, task_index: int,
                 parallelism: int):
        # repro.streaming imports this module
        from repro.streaming.sources import ReplaySource

        super().__init__(
            component.name,
            ReplaySource(component.relation, component.name,
                         start=task_index, step=parallelism),
            *source_operators(component))


@dataclass(frozen=True)
class JoinTotals:
    """A finished joiner's counters: what a batch ``processes`` run
    ships home in its place (``run_plan`` reads nothing else of it)."""

    work: int
    state: int

    def state_size(self) -> int:
        return self.state


class JoinBolt(Bolt):
    """One joiner task: a local join (optionally windowed) plus output scheme.

    A batch's insertion runs go to the join's ``insert_batch``, its
    retraction runs (rows with sign -1) to ``delete_batch``; the output
    rows of a retraction run are emitted with sign -1, in input order.
    """

    def __init__(self, component: JoinComponent,
                 local_join_factory: Callable[[], LocalJoin]):
        self.component = component
        local = local_join_factory()
        self.state: LocalJoin = local if component.window is None \
            else WindowedJoinState(local, component.window)
        self._local = local
        self.output_positions = (
            list(component.output_positions)
            if component.output_positions is not None else None
        )

    @property
    def late_rows(self) -> int:
        return 0 if self.state is self._local else self.state.late_rows

    def execute_batch(self, source: str, stream: str, rows):
        signs, parts = [], []
        for sign, run in sign_runs(rows):
            if sign > 0:
                delta = self.state.insert_batch(stream, run)
            else:
                delta = self.state.delete_batch(stream, run)
            signs.append(sign)
            parts.append(delta)
        delta = parts[0]
        if signs != [1]:  # each run's output rows carry the run's sign
            delta = ColumnBatch.concat([
                part if isinstance(part, ColumnBatch)
                else ColumnBatch.from_rows(part) for part in parts])
            delta = ColumnBatch(delta.columns, delta.length, np.repeat(
                np.array(signs, dtype=np.int8), [len(p) for p in parts]))
        if not len(delta):
            return []
        positions = self.output_positions
        if isinstance(delta, ColumnBatch):
            if positions is not None:
                delta = delta.take_columns(positions)
            return ColumnEmissions(self.component.name, delta)
        if positions is None:
            return [(self.component.name, row) for row in delta]
        return [(self.component.name, tuple(row[p] for p in positions))
                for row in delta]

    @property
    def work(self) -> int:
        return self._local.work

    def state_size(self) -> int:
        return self._local.state_size()

    def export(self) -> JoinTotals:
        return JoinTotals(self.work, self.state_size())

    def advance_watermark(self, watermark) -> List[Tuple[str, tuple]]:
        """Punctuation hook: expire windowed state up to ``watermark``
        (state only: the window predicate decided what the output is)."""
        if self.state is not self._local:
            self.state.advance_watermark(watermark)
        return []


class AggBolt(Bolt):
    """One aggregation task: incremental grouped sum/count/avg.

    Windowed variants: a *tumbling* window emits ``(window id, group
    row)`` tuples when the watermark passes its end, or at end of
    stream; a *sliding* window keeps the aggregate over the trailing
    ``size`` time units by retracting expired input rows (sign -1), and
    emits its snapshot at end of stream (the continuous runtime's
    :class:`repro.streaming.runner.DeltaAggBolt` instead turns every
    state change into live ``+row/-row`` deltas).
    """

    def __init__(self, component: AggComponent):
        self.component = component
        # a partial, not a closure: a window keeps it, and task state
        # must pickle (checkpoints, a processes run's collect)
        factory = partial(Aggregation, component.group_positions,
                          component.aggregates)
        self.window_state: Optional[WindowedAggregation] = None
        self.sliding_state: Optional[SlidingWindowedAggregation] = None
        if component.window is not None:
            if component.window.kind == "sliding":
                if component.online:
                    raise ValueError(
                        "sliding-window aggregations run in snapshot mode; "
                        "online updates are the delta subscription's job "
                        "(repro.streaming)"
                    )
                self.sliding_state = SlidingWindowedAggregation(
                    factory, component.window)
            else:
                self.window_state = WindowedAggregation(factory, component.window)
        self.aggregation = (
            self.sliding_state.aggregation if self.sliding_state is not None
            else factory()
        )

    @property
    def late_rows(self) -> int:
        window = self.sliding_state or self.window_state
        return 0 if window is None else window.late_rows

    def execute_batch(self, source: str, stream: str, rows):
        emissions: list = []
        window = self.sliding_state or self.window_state
        for sign, run in sign_runs(rows):
            if window is not None:  # each row goes by its own timestamp
                for row in run:
                    window.consume(row, sign)
            elif self.component.online:
                name = self.component.name
                emissions.extend((name, row) for row in
                                 self.aggregation.consume_batch(run, sign))
            else:
                self.aggregation.consume_batch(run, sign, collect=False)
        return emissions

    def _closed(self, closed) -> list:
        """Closed tumbling windows, ``(window id, rows)``, as emissions."""
        return [(self.component.name, (window_id,) + row)
                for window_id, rows in closed for row in rows]

    def finish(self):
        if self.window_state is not None:
            return self._closed(self.window_state.flush())
        if self.component.online:
            return []
        return [(self.component.name, row) for row in self.aggregation.snapshot()]

    def advance_watermark(self, watermark) -> List[Tuple[str, tuple]]:
        """Punctuation hook: close the tumbling windows ``watermark``
        has passed the end of."""
        if self.window_state is None:
            return []
        return self._closed(self.window_state.advance_watermark(watermark))


class SinkBolt(Bolt):
    """Collects final rows into a per-task list.

    Under the processes backend each sink task's store lives inside the
    owning worker; ``run_plan`` gathers the stores *after* the run, when
    the cluster holds the final task state.  A shared list can still be
    injected (tests, embedding)."""

    def __init__(self, store: Optional[List[tuple]] = None):
        self.store = [] if store is None else store

    def execute_batch(self, source: str, stream: str, rows):
        for sign, run in sign_runs(rows):
            if sign > 0:
                self.store.extend(run)
                continue
            for row in run:
                with suppress(ValueError):  # a row not held: ignored
                    self.store.remove(row)
        return []


@dataclass
class RunResult:
    """Results plus the measurement surface for the cost model."""

    results: List[tuple]
    metrics: TopologyMetrics
    plan: PhysicalPlan
    #: raw rows read per source (pre-selection)
    reads: Dict[str, int]
    #: selection statistics per source: (cost class, seen, passed)
    selections: Dict[str, Tuple[str, int, int]]
    #: per join component: per-task (received handled by metrics) work & state
    join_work: Dict[str, List[int]] = field(default_factory=dict)
    join_state: Dict[str, List[int]] = field(default_factory=dict)
    partitioner_info: Dict[str, str] = field(default_factory=dict)
    #: the compiled topology (edge structure for replication-factor lookups)
    topology: Optional[Topology] = None
    #: the run's observability context (None unless the run executed
    #: with ExecutionOptions(observe='metrics') or 'trace')
    observer: Optional[object] = None

    @property
    def query_input(self) -> int:
        return sum(self.reads.values())

    @property
    def query_output(self) -> int:
        return len(self.results)

    def intermediate_network_factor(self) -> float:
        return self.metrics.intermediate_network_factor(
            self.query_input, self.query_output
        )

    def skew_degree(self, component: str) -> float:
        return self.metrics.skew_degree(component)

    def replication_factor(self, component: str) -> float:
        if self.topology is None:
            raise ValueError(
                "replication_factor needs the compiled topology; this "
                "RunResult was built without one"
            )
        upstream = [edge.source for edge in self.topology.in_edges(component)]
        return self.metrics.replication_factor(component, upstream)

    def profile(self) -> str:
        """EXPLAIN-ANALYZE-style per-operator report of this run.

        Always includes rows/batches/skew from the topology counters;
        per-operator p50/p95/p99 batch latency (and, at the trace
        level, span counts) require the run to have executed with
        ``ExecutionOptions(observe='metrics')`` or ``'trace'``."""
        from repro.obs.profile import profile_report

        if self.topology is None:
            raise ValueError(
                "profile() needs the compiled topology; this RunResult "
                "was built without one")
        return profile_report(self.topology, self.metrics,
                              observer=self.observer)


def build_topology(
    plan: PhysicalPlan,
    sources: Optional[Dict[str, object]] = None,
    agg_bolt_factory: Optional[Callable[[AggComponent], Bolt]] = None,
    sink_factory: Optional[Callable[[int, int], Bolt]] = None,
) -> Tuple[Topology, Dict[str, Partitioner]]:
    """Compile a physical plan into a topology (plus its partitioners).

    This is the shared Squall-to-Storm translation used by both the
    finite executor (:func:`run_plan`) and the continuous runtime
    (:mod:`repro.streaming`).  Every source component's tasks are
    :class:`SourcePump` s:

    - without ``sources``, ``source.parallelism`` :class:`SourceSpout`
      tasks, each replaying its stripe of the stored relation;
    - with ``sources`` (component name -> push source, one for each
      source component of the plan), one pump per component over its
      push source (the continuous runtime's).

    The continuous runtime also swaps in a delta-emitting aggregation
    bolt and a delta sink through the two factory hooks:

    - ``agg_bolt_factory(agg)`` builds one aggregation task (default
      :class:`AggBolt`);
    - ``sink_factory`` builds the sink task (default :class:`SinkBolt`).
    """
    plan.validate()
    names = sorted(source.name for source in plan.sources)
    if sources is not None and sorted(sources) != names:
        raise ValueError(f"sources {sorted(sources)} do not match the "
                         f"plan's source components {names}")
    builder = TopologyBuilder()

    for source in plan.sources:
        if sources is None:
            builder.set_spout(source.name, partial(SourceSpout, source),
                              source.parallelism)
            continue

        def factory(task_index: int, parallelism: int,
                    source=source) -> SourcePump:
            return SourcePump(source.name, sources[source.name],
                              *source_operators(source))

        builder.set_spout(source.name, factory)

    partitioners: Dict[str, Partitioner] = {}
    for join in plan.joins:
        if isinstance(join.scheme, str):
            partitioner = _choice(SCHEMES, join.scheme, "scheme").build(
                join.spec, join.machines, seed=join.seed
            )
        else:
            partitioner = join.scheme
        partitioners[join.name] = partitioner
        local_factory = _choice(LOCAL_JOINS, join.local_join, "local join")

        def bolt_factory(task_index: int, parallelism: int, join=join,
                         local_factory=local_factory) -> JoinBolt:
            return JoinBolt(join, lambda: local_factory(join.spec))

        declarer = builder.set_bolt(join.name, bolt_factory, partitioner.n_machines)
        for rel_name in join.spec.relation_names:
            declarer.custom_grouping(
                rel_name,
                HypercubeGrouping(partitioner, rel_name),
                streams=[rel_name],
            )

    upstream_of_agg = plan.joins[-1].name if plan.joins else plan.sources[-1].name
    if plan.aggregation is not None:
        agg = plan.aggregation
        make_agg = agg_bolt_factory or AggBolt

        def agg_factory(task_index: int, parallelism: int, agg=agg,
                        make_agg=make_agg) -> Bolt:
            return make_agg(agg)

        declarer = builder.set_bolt(agg.name, agg_factory, agg.parallelism)
        streams = [upstream_of_agg]
        if agg.key_domain is not None and len(agg.group_positions) == 1:
            mapping = round_robin_assignment(agg.key_domain, agg.parallelism)
            declarer.custom_grouping(
                upstream_of_agg,
                KeyMappedGrouping(agg.group_positions[0], mapping),
                streams=streams,
            )
        elif agg.group_positions:
            declarer.fields_grouping(upstream_of_agg, agg.group_positions,
                                     streams=streams)
        else:
            declarer.global_grouping(upstream_of_agg, streams=streams)

    last = plan.last_data_component()

    if sink_factory is None:
        def sink_factory(task_index: int, parallelism: int) -> SinkBolt:
            return SinkBolt()

    builder.set_bolt(plan.sink.name, sink_factory, 1).global_grouping(
        last, streams=[last])

    return builder.build(), partitioners


def run_plan(plan: PhysicalPlan,
             options: Optional[ExecutionOptions] = None) -> RunResult:
    """Compile a physical plan to a topology and execute it locally.

    Execution knobs are carried by ``options``
    (:class:`~repro.core.options.ExecutionOptions`), resolved once --
    unset knobs take the finite engine's defaults: ``batch_size=1`` (the
    golden per-tuple path), ``executor='inline'`` -- and handed as one
    resolved object to ``LocalCluster.run``.

    ``options.batch_size`` is the number of tuples pulled from each
    spout per round; downstream micro-batches follow from it but are not
    re-chunked (a join delta larger than ``batch_size`` travels as one
    batch).  The default of 1 reproduces the per-tuple engine's
    interleaving exactly; larger values amortize dispatch overhead
    without changing per-tuple results (the final result multiset and
    all per-component totals are identical; windows included).

    ``options.executor`` picks the execution backend (``"inline"`` or
    ``"processes"``) and ``options.parallelism`` the number of
    shared-nothing workers; see :mod:`repro.storm.executor`.  Both
    backends yield the same result multiset and per-component totals;
    the process backend additionally requires pickle-safe rows and task
    state (README, *Pickle-safety requirements*).

    ``options.columnar`` selects the columnar execution path (vectorized
    selections, hashing, join probes); the default (None) turns it on
    for ``batch_size >= COLUMNAR_MIN_BATCH`` and off below.  Either
    setting yields the same result multiset.

    For *continuous* execution of the same plan over unbounded push
    sources, see :func:`repro.streaming.stream_plan`."""
    resolved = (options or ExecutionOptions()).resolve(default_batch_size=1)
    topology, partitioners = build_topology(plan)
    cluster = LocalCluster(topology)
    metrics = cluster.run(resolved)

    # all measurement state is read back from the cluster's tasks *after*
    # the run: under the processes backend these are what the tasks
    # shipped home from the shared-nothing workers (a joiner: its totals)
    spouts: Dict[str, List[SourceSpout]] = {
        source.name: cluster.tasks(source.name) for source in plan.sources
    }
    join_bolts: Dict[str, List[JoinBolt]] = {
        join.name: cluster.tasks(join.name) for join in plan.joins
    }
    results: List[tuple] = []
    for sink in cluster.tasks(plan.sink.name):
        results.extend(sink.store)

    reads = {
        name: sum(spout.read for spout in instances)
        for name, instances in spouts.items()
    }
    selections = {}
    for name, instances in spouts.items():
        with_selection = [s for s in instances if s.selection is not None]
        if with_selection:
            seen = sum(s.selection.seen for s in with_selection)
            passed = sum(s.selection.passed for s in with_selection)
            selections[name] = (with_selection[0].selection.cost_class, seen, passed)

    result = RunResult(
        results=results,
        metrics=metrics,
        plan=plan,
        reads=reads,
        selections=selections,
        join_work={
            name: [bolt.work for bolt in bolts]
            for name, bolts in join_bolts.items()
        },
        join_state={
            name: [bolt.state_size() for bolt in bolts]
            for name, bolts in join_bolts.items()
        },
        partitioner_info={
            name: partitioner.describe()
            for name, partitioner in partitioners.items()
        },
        topology=topology,
        observer=cluster.observer,
    )
    return result
