"""Topology execution metrics: the monitors of the paper's demo (section 6).

- **Replication factor** of a component: its number of input tuples divided
  by the total number of tuples produced by the immediate upstream
  components (the online counterpart of the MapReduce replication rate).
- **Skew degree**: largest partition size divided by the average partition
  size.
- **Intermediate network factor** of a query plan: the sum of all component
  tasks' input and output divided by the sum of the query input and query
  output -- the amount of intermediate network shuffling.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple


@dataclass
class TopologyMetrics:
    """Per-task and per-edge counters collected by the LocalCluster."""

    received: Dict[str, List[int]] = field(default_factory=dict)
    emitted: Dict[str, List[int]] = field(default_factory=dict)
    edge_transfers: Dict[Tuple[str, str], int] = field(default_factory=dict)
    #: micro-batches handled per task: spout pulls and *executed* bolt
    #: batches (a level pass executes a round's deliveries coalesced,
    #: so a bolt's count there is its runs, not its upstream's pulls).
    #: The load-balance signal of the processes backend -- per-task *tuple*
    #: counts alone cannot tell an idle spout task from a starved one.
    batches: Dict[str, List[int]] = field(default_factory=dict)
    #: execution-path counters: rows/batches delivered to bolts as columnar
    #: ColumnBatch payloads vs. plain row lists -- so a bench run can prove
    #: which kernel actually ran instead of inferring it from the knobs
    columnar_rows: int = 0
    columnar_batches: int = 0
    row_rows: int = 0
    row_batches: int = 0
    #: wall-clock seconds of the run that produced these counters (set by
    #: LocalCluster.run; the profile's footer)
    elapsed: float = 0.0

    @classmethod
    def of(cls, shape: Dict[str, int]) -> "TopologyMetrics":
        """Zeroed counters for ``{component: parallelism}``."""
        metrics = cls()
        for component, parallelism in shape.items():
            metrics.register(component, parallelism)
        return metrics

    def register(self, component: str, parallelism: int):
        self.received[component] = [0] * parallelism
        self.emitted[component] = [0] * parallelism
        self.batches[component] = [0] * parallelism

    def record_emit(self, component: str, task: int, count: int = 1):
        self.emitted[component][task] += count

    def record_receive(self, source: str, target: str, task: int, count: int = 1):
        self.received[target][task] += count
        key = (source, target)
        self.edge_transfers[key] = self.edge_transfers.get(key, 0) + count

    def record_batch(self, component: str, task: int, count: int = 1):
        """One micro-batch pulled from a spout task or delivered to a bolt
        task.  Spout tasks have no ``received`` counters, so this is the
        only per-task activity signal they get."""
        self.batches[component][task] += count

    def batch_counts(self, component: str) -> List[int]:
        return list(self.batches.get(component, ()))

    def record_path(self, columnar: bool, rows: int):
        """One bolt delivery took the columnar (or row) execution path."""
        if columnar:
            self.columnar_rows += rows
            self.columnar_batches += 1
        else:
            self.row_rows += rows
            self.row_batches += 1

    def merge(self, other: "TopologyMetrics"):
        """Fold in what a shared-nothing worker counted.

        Workers count into a ``TopologyMetrics`` of their own, registered
        for the components they own, and ship it home with each reply."""
        for totals, counted in ((self.received, other.received),
                                (self.emitted, other.emitted),
                                (self.batches, other.batches)):
            for component, counts in counted.items():
                per_task = totals[component]
                for task, count in enumerate(counts):
                    per_task[task] += count
        for edge, count in other.edge_transfers.items():
            self.edge_transfers[edge] = self.edge_transfers.get(edge, 0) + count
        self.columnar_rows += other.columnar_rows
        self.columnar_batches += other.columnar_batches
        self.row_rows += other.row_rows
        self.row_batches += other.row_batches

    def path_summary(self) -> str:
        """Which execution path the run's bolt deliveries actually took."""
        total = self.columnar_rows + self.row_rows
        if not total:
            return "no bolt deliveries"
        share = 100.0 * self.columnar_rows / total
        return (f"columnar {self.columnar_rows}/{total} rows ({share:.0f}%) "
                f"in {self.columnar_batches} batches; "
                f"row {self.row_rows} rows in {self.row_batches} batches")

    # -- component-level monitors -----------------------------------------

    def component_input(self, component: str) -> int:
        return sum(self.received.get(component, ()))

    def component_output(self, component: str) -> int:
        return sum(self.emitted.get(component, ()))

    def max_load(self, component: str) -> int:
        loads = self.received.get(component, ())
        return max(loads) if loads else 0

    def avg_load(self, component: str) -> float:
        loads = self.received.get(component, ())
        return sum(loads) / len(loads) if loads else 0.0

    def skew_degree(self, component: str) -> float:
        """Largest partition size over average partition size."""
        avg = self.avg_load(component)
        return self.max_load(component) / avg if avg else 0.0

    def replication_factor(self, component: str, upstream: List[str]) -> float:
        """Input tuples of ``component`` / output tuples of its upstreams."""
        produced = sum(self.component_output(up) for up in upstream)
        if produced == 0:
            return 0.0
        return self.component_input(component) / produced

    # -- plan-level monitors ------------------------------------------------

    def total_network_tuples(self) -> int:
        return sum(self.edge_transfers.values())

    def intermediate_network_factor(self, query_input: int, query_output: int) -> float:
        """(sum of task inputs and outputs) / (query input + query output)."""
        denominator = query_input + query_output
        if denominator == 0:
            return 0.0
        task_io = sum(sum(v) for v in self.received.values()) + sum(
            sum(v) for v in self.emitted.values()
        )
        return task_io / denominator

    def summary(self) -> str:
        lines = []
        for component in sorted(self.received):
            lines.append(
                f"{component}: in={self.component_input(component)} "
                f"out={self.component_output(component)} "
                f"skew={self.skew_degree(component):.2f}"
            )
        lines.append(f"network tuples: {self.total_network_tuples()}")
        return "\n".join(lines)

    def collect(self, groupings: Dict[str, str]) -> List[tuple]:
        """Registry-collector view: export-time samples, zero cost on the
        recording path (see :class:`repro.obs.registry.MetricsRegistry`).

        ``groupings`` names, for each component whose load can skew, the
        groupings that feed it: each such component with input gets its
        :meth:`skew_degree` as ``partition_skew{component,grouping}``.
        A shuffle, broadcast or single-task edge is balanced by
        construction (:meth:`~repro.storm.groupings.Grouping.\
skew_possible`), so a gauge over it would only echo batching noise."""
        out = []
        for component in sorted(self.batches):
            for name, per_task in (
                    ("topology_rows_received_total", self.received),
                    ("topology_rows_emitted_total", self.emitted),
                    ("topology_batches_total", self.batches)):
                for task, count in enumerate(per_task.get(component, ())):
                    out.append((name,
                                {"component": component, "task": str(task)},
                                float(count), "counter"))
            if component in groupings and self.component_input(component):
                out.append(("partition_skew", {
                    "component": component,
                    "grouping": groupings[component]},
                    self.skew_degree(component), "gauge"))
        out.append(("topology_network_tuples_total", {},
                    float(self.total_network_tuples()), "counter"))
        return out


class StreamMetrics:
    """Live progress monitors of a *continuous* run (repro.streaming).

    A long-lived query has no final RunResult to inspect, so the
    streaming cluster keeps a rolling view instead: event throughput over
    a trailing wall-clock window, the current event-time watermark, and
    the **event-time lag** (newest event timestamp seen minus the
    watermark -- how far window results trail the stream's own clock).
    All methods are thread-safe: the pump records while other threads
    (a broker's ``/metrics`` scrape, ``query.stats()``) read snapshots.
    """

    #: squall-lint lock-discipline contract: the rolling counters only
    #: move under the metrics lock (pump thread vs. \watch reader)
    GUARDED_BY = {
        "_events": "_lock",
        "total_events": "_lock",
        "watermark": "_lock",
        "watermark_updated_at": "_lock",
        "max_event_time": "_lock",
    }

    def __init__(self, clock=time.monotonic, horizon: float = 5.0):
        self._clock = clock
        self.horizon = horizon
        self._lock = threading.Lock()
        #: (wall time, count) of recent source polls, pruned to `horizon`
        self._events: Deque[Tuple[float, int]] = deque()
        self.total_events = 0
        self.watermark: Optional[float] = None
        #: wall-clock instant (per `clock`) of the last watermark advance
        self.watermark_updated_at: Optional[float] = None
        self.max_event_time: Optional[float] = None
        self.started_at = clock()

    def record_events(self, count: int, event_time=None):
        """Record ``count`` source rows entering the dataplane."""
        now = self._clock()
        with self._lock:
            self.total_events += count
            self._events.append((now, count))
            self._prune(now)
            if event_time is not None and (
                    self.max_event_time is None
                    or event_time > self.max_event_time):
                self.max_event_time = event_time

    def record_watermark(self, watermark):
        with self._lock:
            if self.watermark is None or watermark > self.watermark:
                self.watermark = watermark
                self.watermark_updated_at = self._clock()

    def _prune(self, now: float):  # squall-lint: holds=_lock
        horizon = now - self.horizon
        events = self._events
        while events and events[0][0] < horizon:
            events.popleft()

    # -- snapshots ---------------------------------------------------------

    def events_per_second(self) -> float:
        """Throughput over the trailing ``horizon`` seconds."""
        now = self._clock()
        with self._lock:
            self._prune(now)
            if not self._events:
                return 0.0
            span = max(now - self._events[0][0], 1e-9)
            return sum(count for _ts, count in self._events) / span

    def watermark_age(self) -> Optional[float]:
        """Wall-clock seconds since the watermark last advanced.

        The serving layer's staleness monitor: a growing age on a live
        topology means window results have stopped moving forward (a
        stalled source, or no event-time at all).  None until the first
        watermark."""
        with self._lock:
            if self.watermark_updated_at is None:
                return None
            return max(0.0, self._clock() - self.watermark_updated_at)

    def event_time_lag(self) -> Optional[float]:
        """Newest event timestamp minus the watermark (event-time units).

        None until both are known.  Zero means window results are fully
        caught up with everything the sources have emitted."""
        with self._lock:
            if self.watermark is None or self.max_event_time is None:
                return None
            return max(0, self.max_event_time - self.watermark)

    def snapshot(self) -> Dict[str, object]:
        """One live progress snapshot (the REPL's \\watch footer).

        The streaming cluster's ``stats_snapshot`` adds a ``deltas``
        entry read off its sinks."""
        # the derived views take the (non-reentrant) lock themselves, so
        # compute them before entering it; the raw counters are then read
        # together rather than torn across a concurrent record_events
        events_per_sec = round(self.events_per_second(), 1)
        event_time_lag = self.event_time_lag()
        with self._lock:
            return {
                "events": self.total_events,
                "events_per_sec": events_per_sec,
                "watermark": self.watermark,
                "event_time_lag": event_time_lag,
                "uptime_sec": round(self._clock() - self.started_at, 3),
            }

    def collect(self) -> List[tuple]:
        """Registry-collector view of the live stream monitors."""
        snap = self.snapshot()
        out = [
            ("stream_events_total", {}, float(snap["events"]), "counter"),
            ("stream_events_per_second", {},
             float(snap["events_per_sec"]), "gauge"),
        ]
        if snap["watermark"] is not None:
            out.append(("stream_watermark", {},
                        float(snap["watermark"]), "gauge"))
        if snap["event_time_lag"] is not None:
            out.append(("stream_event_time_lag", {},
                        float(snap["event_time_lag"]), "gauge"))
        age = self.watermark_age()
        if age is not None:
            out.append(("stream_watermark_age_seconds", {},
                        float(age), "gauge"))
        return out


class CounterTable:
    """Rows of named counters behind one lock.

    The record / snapshot / collect triplet of :class:`CheckpointMetrics`
    (one row) and :class:`ServingMetrics` (one row per tenant), written
    once: a subclass declares the shape of a row and how it exports, and
    everything that touches the rows -- so the whole lock discipline --
    lives here.  Thread-safe.
    """

    #: squall-lint lock-discipline contract
    GUARDED_BY = {"_rows": "_lock"}

    #: a fresh row, ``{field: initial value}``, in snapshot order
    BLANK: Dict[str, object] = {}
    #: the fields exported, as ``<PREFIX>_<field>_total`` counter samples
    EXPORTED: Tuple[str, ...] = ()
    PREFIX = ""
    #: the sample label that carries the row key (None: one bare row)
    KEY_LABEL: Optional[str] = None

    def __init__(self):
        self._lock = threading.Lock()
        self._rows: Dict[Optional[str], Dict[str, object]] = {}

    def _record(self, key: Optional[str], counts: Dict[str, int], **levels):
        """Add ``counts`` to row ``key`` (blank on first use) and
        overwrite its ``levels``, in one critical section."""
        with self._lock:
            row = self._rows.get(key)
            if row is None:
                row = self._rows[key] = dict(self.BLANK)
            for name, count in counts.items():
                row[name] += count
            row.update(levels)

    def _row(self, key: Optional[str]) -> Dict[str, object]:
        """A copy of one row; blank if nothing was recorded under it."""
        with self._lock:
            return dict(self._rows.get(key, self.BLANK))

    def _table(self) -> Dict[Optional[str], Dict[str, object]]:
        with self._lock:
            return {key: dict(row) for key, row in sorted(self._rows.items())}

    def collect(self) -> List[tuple]:
        """Registry-collector view: every row's exported counters."""
        return [
            (f"{self.PREFIX}_{name}_total",
             {self.KEY_LABEL: key} if self.KEY_LABEL else {},
             float(row[name]), "counter")
            for key, row in self._table().items()
            for name in self.EXPORTED
        ]


class CheckpointMetrics(CounterTable):
    """Checkpoint and recovery accounting of a resident topology.

    Fed by the streaming ``processes`` coordinator: one record per
    committed epoch (what the snapshot actually cost -- the incremental
    checkpointing assertion surface) and one per completed recovery.
    ``partitions_skipped`` counts partitions whose state hash matched the
    previous manifest, so zero bytes moved for them; a steady-state
    topology where only one partition changes per epoch should show
    ``bytes_persisted`` growing by roughly one partition's blob, not the
    full operator state.  Thread-safe: the serving layer may snapshot
    while the coordinator commits.
    """

    PREFIX = "checkpoint"
    EXPORTED = ("commits", "partitions_persisted", "partitions_skipped",
                "bytes_persisted", "recoveries", "workers_respawned",
                "replayed_entries", "replayed_rows")
    #: the counters plus two levels: the last committed epoch, and the
    #: bytes of the last commit alone (steady-state cost probe)
    BLANK = {**dict.fromkeys(EXPORTED, 0),
             "last_epoch": None, "last_commit_bytes": 0}

    def __init__(self):
        super().__init__()
        self._record(None, {})  # the one row exports as zeros until fed

    def record_commit(self, result) -> None:
        """Fold in one :class:`repro.checkpoint.store.CommitResult`."""
        self._record(None, {
            "commits": 1,
            "partitions_persisted": result.persisted,
            "partitions_skipped": result.skipped,
            "bytes_persisted": result.bytes_persisted,
        }, last_epoch=result.epoch, last_commit_bytes=result.bytes_persisted)

    def record_recovery(self, dead_workers: List[int],
                        replayed_entries: int, replayed_rows: int) -> None:
        """One completed crash recovery (respawn + restore + replay)."""
        self._record(None, {
            "recoveries": 1,
            "workers_respawned": len(dead_workers),
            "replayed_entries": replayed_entries,
            "replayed_rows": replayed_rows,
        })

    def snapshot(self) -> Dict[str, object]:
        return self._row(None)

    @property
    def commits(self) -> int:
        return self._row(None)["commits"]

    @property
    def recoveries(self) -> int:
        return self._row(None)["recoveries"]


class ServingMetrics(CounterTable):
    """Per-tenant accounting of the multi-tenant serving layer.

    The :class:`~repro.serving.broker.QueryBroker` records every
    admission decision and delivery outcome here, keyed by tenant, so an
    operator can answer "who is being shed?" without touching per-query
    state.  Counters are monotonic -- ``published`` is the number of
    deltas that entered the tenant's subscription rings (a shed
    subscriber's dropped buffer is still counted: the pipeline did the
    work), settled when each seat is released; the live gauges
    (subscriber count, delta lag, watermark age) are read off the
    broker's resident topologies at snapshot time, not stored here.
    Thread-safe: broker calls and sink detach hooks record concurrently.
    """

    PREFIX = "serving"
    KEY_LABEL = "tenant"
    EXPORTED = ("admitted", "refused", "shed", "detached", "published")
    BLANK = dict.fromkeys(EXPORTED, 0)

    def record(self, tenant: str, counter: str, count: int = 1):
        if counter not in self.EXPORTED:
            raise ValueError(
                f"unknown serving counter {counter!r}; "
                f"choose one of {self.EXPORTED}")
        self._record(tenant, {counter: count})

    def get(self, tenant: str, counter: str) -> int:
        return self._row(tenant).get(counter, 0)

    def snapshot(self, tenant: Optional[str] = None) -> Dict[str, Dict[str, int]]:
        """Counter table ``{tenant: {counter: value}}`` (one tenant or all)."""
        if tenant is not None:
            return {tenant: self._row(tenant)}
        return self._table()

    def summary(self) -> str:
        lines = []
        for tenant, bucket in self.snapshot().items():
            parts = " ".join(f"{k}={bucket[k]}" for k in self.EXPORTED)
            lines.append(f"{tenant}: {parts}")
        return "\n".join(lines) or "no tenants"
