"""Compile physical plans to Storm topologies and execute them.

Every physical component becomes one spout or bolt; partitioning schemes
become stream groupings; joiner tasks own their local join state.  The
returned :class:`RunResult` carries the results plus every counter the
cost model and the paper's monitors need.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field
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
from repro.storm.groupings import FieldsGrouping, HypercubeGrouping, KeyMappedGrouping
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


class SourceSpout(Spout):
    """Reads a stripe of a relation, applying co-located selection/projection."""

    def __init__(self, component: SourceComponent):
        self.component = component
        self.rows = component.relation.rows
        self._position = 0
        self._step = 1
        self.read = 0
        #: columnar-path toggle, set by LocalCluster.run before draining
        self.columnar = False
        self.selection, self.projection = source_operators(component)

    def open(self, task_index: int, parallelism: int):
        self._position = task_index
        self._step = parallelism

    def next_tuple(self):
        while self._position < len(self.rows):
            row = self.rows[self._position]
            self._position += self._step
            self.read += 1
            if self.selection is not None and self.selection.apply(row) is None:
                continue
            if self.projection is not None:
                row = self.projection.apply(row)
            return (self.component.name, row)
        return None

    def has_more(self) -> bool:
        """Unread stripe rows remain (a columnar batch thinned by the
        selection can be short without meaning exhaustion)."""
        return self._position < len(self.rows)

    def next_batch(self, max_rows: int):
        """Read a stripe of up to ``max_rows`` *passing* tuples in one pass.

        The raw stripe is scanned with the selection predicate inlined and
        the projection applied batch-at-a-time, so per-tuple Python call
        overhead is paid once per batch instead of once per row.
        """
        if self.columnar:
            return self._next_batch_columnar(max_rows)
        rows = self.rows
        n = len(rows)
        position = self._position
        step = self._step
        stream = self.component.name
        selection = self.selection
        select = selection._fn if selection is not None else None
        out: list = []
        read = 0
        while position < n and len(out) < max_rows:
            row = rows[position]
            position += step
            read += 1
            if select is not None and not select(row):
                continue
            out.append(row)
        self._position = position
        self.read += read
        if selection is not None:
            selection.seen += read
            selection.passed += len(out)
        if self.projection is not None:
            out = self.projection.apply_batch(out)
        return [(stream, row) for row in out]

    def _next_batch_columnar(self, max_rows: int):
        """Read one stripe chunk as a :class:`ColumnBatch`.

        Selection/projection run as whole-column kernels; a chunk the
        predicate empties entirely is skipped and the scan continues, so
        an empty return still means exhaustion (the cluster's spout-drop
        contract)."""
        rows = self.rows
        n = len(rows)
        selection = self.selection
        projection = self.projection
        while self._position < n:
            position = self._position
            step = self._step
            if step == 1:
                chunk = rows[position:position + max_rows]
            else:
                chunk = rows[position:position + step * max_rows:step]
            self._position = position + step * len(chunk)
            self.read += len(chunk)
            batch = ColumnBatch.from_rows(chunk)
            if selection is not None:
                batch = selection.apply_batch(batch)
            if projection is not None:
                batch = projection.apply_batch(batch)
            if len(batch):
                return ColumnEmissions(self.component.name, batch)
        return []


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
    def order_sensitive(self) -> bool:
        return self.component.window is not None

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
        """Punctuation hook of the continuous runtime: expire windowed
        state up to ``watermark``.  Watermarks carry *event time*, so
        arrival-order windows (no ts columns) ignore them.  Expired join
        outputs are not retracted downstream (batch parity: window
        expiration bounds state, it does not rewrite already-emitted
        results)."""
        window = self.component.window
        if (self.state is not self._local and window is not None
                and window.ts_positions is not None):
            self.state.advance_time(watermark)
        return []


class AggBolt(Bolt):
    """One aggregation task: incremental grouped sum/count/avg.

    Windowed variants: a *tumbling* window closes and emits
    ``(window id, group row)`` tuples as event time crosses boundaries; a
    *sliding* window keeps the aggregate over the trailing ``size`` time
    units by retracting expired input rows (sign -1), and emits its
    snapshot at end of stream (the continuous runtime's
    :class:`repro.streaming.runner.DeltaAggBolt` instead turns every
    state change into live ``+row/-row`` deltas).
    """

    def __init__(self, component: AggComponent):
        self.component = component
        def factory():
            return Aggregation(component.group_positions, component.aggregates)

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
    def order_sensitive(self) -> bool:
        return self.component.window is not None

    def execute_batch(self, source: str, stream: str, rows):
        emissions: list = []
        for sign, run in sign_runs(rows):
            # windows expire or close per arrival, so they go row by row
            if self.sliding_state is not None:
                for row in run:
                    self.sliding_state.consume(row, sign)
            elif self.window_state is not None:
                for row in run:
                    emissions.extend(self._closed(
                        self.window_state.consume(row, sign)))
            elif self.component.online:
                name = self.component.name
                emissions.extend((name, row) for row in
                                 self.aggregation.consume_batch(run, sign))
            else:
                self.aggregation.consume_batch(run, sign, collect=False)
        return emissions

    def _closed(self, closed) -> list:
        """A tumbling window's ``(window id, rows)`` as emissions."""
        if closed is None:
            return []
        window_id, rows = closed
        return [(self.component.name, (window_id,) + row) for row in rows]

    def finish(self):
        if self.window_state is not None:
            return self._closed(self.window_state.flush())
        if self.component.online:
            return []
        return [(self.component.name, row) for row in self.aggregation.snapshot()]

    def advance_watermark(self, watermark) -> List[Tuple[str, tuple]]:
        """Punctuation hook: close/expire windows up to ``watermark``.

        Watermarks carry event time; arrival-order windows (no ts
        columns) ignore them and close per arrival / at end of stream."""
        window = self.component.window
        if window is None or window.ts_positions is None:
            return []
        if self.sliding_state is not None:
            self.sliding_state.advance_time(watermark)
            return []
        if self.window_state is not None:
            return self._closed(self.window_state.advance_watermark(watermark))
        return []


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
    spout_factory: Optional[Callable[[SourceComponent], Callable]] = None,
    agg_bolt_factory: Optional[Callable[[AggComponent], Bolt]] = None,
    sink_factory: Optional[Callable[[int, int], Bolt]] = None,
    source_parallelism: Optional[int] = None,
) -> Tuple[Topology, Dict[str, Partitioner]]:
    """Compile a physical plan into a topology (plus its partitioners).

    This is the shared Squall-to-Storm translation used by both the
    finite executor (:func:`run_plan`) and the continuous runtime
    (:mod:`repro.streaming`), which swaps in push-driven spouts, a
    delta-emitting aggregation bolt and a delta sink through the three
    factory hooks:

    - ``spout_factory(source)`` returns the per-task factory for one
      source component (default: :class:`SourceSpout` over the stored
      relation);
    - ``agg_bolt_factory(agg)`` builds one aggregation task (default
      :class:`AggBolt`);
    - ``sink_factory`` builds the sink task (default :class:`SinkBolt`);
    - ``source_parallelism`` overrides every source component's task
      count (the continuous runtime runs one pump per source).
    """
    plan.validate()
    builder = TopologyBuilder()

    for source in plan.sources:
        if spout_factory is not None:
            factory = spout_factory(source)
        else:
            def factory(task_index: int, parallelism: int,
                        source=source) -> SourceSpout:
                return SourceSpout(source)

        builder.set_spout(source.name, factory,
                          source_parallelism or source.parallelism)

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
            declarer.custom_grouping(
                upstream_of_agg,
                FieldsGrouping(agg.group_positions),
                streams=streams,
            )
        else:
            declarer.global_grouping(upstream_of_agg, streams=streams)

    last = plan.last_data_component()

    if sink_factory is None:
        def sink_factory(task_index: int, parallelism: int) -> SinkBolt:
            return SinkBolt()

    builder.set_bolt(plan.sink.name, sink_factory, 1).global_grouping(
        last, streams=[last])

    return builder.build(), partitioners


def run_plan(plan: PhysicalPlan, max_tuples: Optional[int] = None,
             options: Optional[ExecutionOptions] = None) -> RunResult:
    """Compile a physical plan to a topology and execute it locally.

    Execution knobs are carried by ``options``
    (:class:`~repro.core.options.ExecutionOptions`).  Unset knobs
    resolve to the finite engine's defaults: ``batch_size=1`` (the
    golden per-tuple path), ``executor='inline'``.

    ``options.batch_size`` is the number of tuples pulled from each
    spout per round; downstream micro-batches follow from it but are not
    re-chunked (a join delta larger than ``batch_size`` travels as one
    batch).  The default of 1 reproduces the per-tuple engine's
    interleaving exactly; larger values amortize dispatch overhead
    without changing per-tuple results (the final result multiset and
    all per-component totals are identical).  Exception: *windowed*
    operators downstream of a join expire state in arrival order, and a
    join can re-emit stored rows with old event timestamps, so windowed
    results over join outputs are interleaving-sensitive -- they are
    only batch-size-invariant when the windowed operator's input arrives
    in event-time order (windows directly over a source, the common
    case).

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
    metrics = cluster.run(max_tuples=max_tuples,
                          batch_size=resolved.batch_size,
                          executor=resolved.executor,
                          parallelism=resolved.parallelism,
                          columnar=resolved.columnar,
                          observe=resolved.observe)

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
