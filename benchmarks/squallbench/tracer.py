"""Outside-in tracer: spans around the public functions of each layer.

Nothing under ``src/`` knows about this file.  ``TARGETS`` is the one
table of ``(module, class, attribute) -> span name``; :meth:`Tracer.
install` replaces each attribute with a timing wrapper before the
workload starts and :meth:`Tracer.uninstall` puts the originals back.
A span is ``[name id, start, end, parent, repetition, rows]``; spans
stay in memory (one list per thread) and are written as one JSON file
per workload when it ends.

Forked workers inherit the wrappers but their spans die with them: on
the process workloads the coordinator side is traced and worker time
shows up as time blocked in ``Connection.recv``.
"""

from __future__ import annotations

import importlib
import json
import pickle
import threading
import time
from typing import Dict, List, Optional, Set, Tuple

#: how a wrapper learns the number of rows one call handled
RESULT = "result"   # len(return value)
SELF = "self"       # len(args[0])
ONE = "one"         # per-row call
SIGNED = "signed"   # per-row call whose ``sign`` argument (third
                    # positional) picks the span: name or name + "_retract"

#: (module, class or None for a module-level function, attribute,
#:  span name, rows: positional index | RESULT | SELF | ONE | SIGNED | None)
TARGETS: List[Tuple[str, Optional[str], str, str, object]] = [
    # core.columnar
    ("repro.core.columnar", "ColumnBatch", "from_rows",
     "core.columnar.from_rows", 1),
    ("repro.core.columnar", "ColumnBatch", "to_rows",
     "core.columnar.to_rows", SELF),
    # engine.operators
    ("repro.engine.operators", "Selection", "apply_batch",
     "engine.operators.select", 1),
    ("repro.engine.operators", "Projection", "apply_batch",
     "engine.operators.project", 1),
    ("repro.engine.operators", "Aggregation", "consume_batch",
     "engine.operators.agg", 1),
    ("repro.engine.operators", "Aggregation", "consume",
     "engine.operators.agg", SIGNED),
    # engine.windows
    ("repro.engine.windows", "SlidingWindowedAggregation", "consume",
     "engine.windows.consume", ONE),
    ("repro.engine.windows", "SlidingWindowedAggregation", "advance_time",
     "engine.windows.advance", None),
    # engine.runner
    ("repro.engine.runner", None, "build_topology",
     "engine.runner.build_topology", None),
    ("repro.streaming.runner", None, "build_topology",
     "engine.runner.build_topology", None),
    ("repro.engine.runner", "SourceSpout", "next_batch",
     "engine.runner.source", RESULT),
    ("repro.engine.runner", "JoinBolt", "execute_batch",
     "engine.runner.join_bolt", 3),
    ("repro.engine.runner", "AggBolt", "execute_batch",
     "engine.runner.agg_bolt", 3),
    ("repro.streaming.runner", "DeltaAggBolt", "execute_batch",
     "engine.runner.agg_bolt", 3),
    ("repro.engine.runner", "SinkBolt", "execute_batch",
     "engine.runner.sink", 3),
    # joins.dbtoaster
    ("repro.joins.dbtoaster", "DBToasterJoin", "insert_batch",
     "joins.dbtoaster.insert", 2),
    ("repro.joins.dbtoaster", "DBToasterJoin", "delete_batch",
     "joins.dbtoaster.delete", 2),
    # storm.groupings: every class that defines its own targets_batch
    ("repro.storm.groupings", "Grouping", "targets_batch",
     "storm.groupings.route", 2),
    ("repro.storm.groupings", "ShuffleGrouping", "targets_batch",
     "storm.groupings.route", 2),
    ("repro.storm.groupings", "FieldsGrouping", "targets_batch",
     "storm.groupings.route", 2),
    ("repro.storm.groupings", "AllGrouping", "targets_batch",
     "storm.groupings.route", 2),
    ("repro.storm.groupings", "GlobalGrouping", "targets_batch",
     "storm.groupings.route", 2),
    ("repro.storm.groupings", "HypercubeGrouping", "targets_batch",
     "storm.groupings.route", 2),
    ("repro.storm.groupings", "KeyMappedGrouping", "targets_batch",
     "storm.groupings.route", 2),
    # storm.cluster
    ("repro.storm.cluster", "LocalCluster", "run",
     "storm.cluster.dispatch", None),
    ("repro.storm.cluster", "LocalCluster", "inject",
     "storm.cluster.dispatch", None),
    ("repro.storm.cluster", "LocalCluster", "flush_bolts",
     "storm.cluster.dispatch", None),
    # storm.executor (the pipe and fork calls are the standard library's)
    ("repro.storm.executor", "StagedExecutor", "run",
     "storm.executor.staged_run", None),
    ("repro.storm.executor", "Router", "route",
     "storm.executor.route", 2),
    ("repro.storm.executor", "ResidentWorkerPool", "start",
     "storm.executor.pool_start", None),
    ("repro.storm.executor", "ResidentWorkerPool", "execute",
     "storm.executor.pool_execute", None),
    ("repro.storm.executor", "ResidentWorkerPool", "checkpoint",
     "storm.executor.pool_checkpoint", None),
    ("repro.storm.executor", "ResidentWorkerPool", "restore",
     "storm.executor.restore", None),
    ("repro.storm.executor", "ResidentWorkerPool", "respawn",
     "storm.executor.respawn", None),
    ("multiprocessing.process", "BaseProcess", "start",
     "storm.executor.fork", None),
    ("multiprocessing.connection", "Connection", "send",
     "storm.executor.send", None),
    ("multiprocessing.connection", "Connection", "recv",
     "storm.executor.recv", None),
    # streaming
    ("repro.streaming.cluster", "SourcePump", "poll",
     "streaming.sources.poll", RESULT),
    ("repro.streaming.cluster", "StreamingCluster", "step",
     "streaming.cluster.step", None),
    ("repro.streaming.watermarks", "WatermarkTracker", "update",
     "streaming.watermarks.track", None),
    ("repro.streaming.watermarks", "WatermarkTracker", "merged",
     "streaming.watermarks.track", None),
    ("repro.engine.runner", "JoinBolt", "advance_watermark",
     "streaming.watermarks.advance", None),
    ("repro.engine.runner", "AggBolt", "advance_watermark",
     "streaming.watermarks.advance", None),
    ("repro.streaming.runner", "DeltaAggBolt", "advance_watermark",
     "streaming.watermarks.advance", None),
    ("repro.streaming.deltas", "DeltaSink", "execute_batch",
     "streaming.deltas.publish", 3),
    ("repro.streaming.deltas", "Subscription", "pop",
     "streaming.deltas.pop", ONE),
    # checkpoint
    ("repro.checkpoint.store", "CheckpointStore", "commit",
     "checkpoint.store.commit", None),
    ("repro.checkpoint.log", "ChangeLog", "record_data",
     "checkpoint.log.record", 2),
    # serving
    ("repro.serving.broker", "QueryBroker", "subscribe_plan",
     "serving.broker.subscribe", None),
    ("repro.serving.broker", None, "plan_fingerprint",
     "serving.fingerprint.hash", None),
]

_INHERITED = object()

#: the harness's own span around one repetition or paced segment
ROOT = "bench.rep"

#: spans per thread that reach the trace file (all of them are analysed)
WRITE_LIMIT = 200_000

#: one message in this many is pickled a second time to count its bytes
WIRE_SAMPLE_EVERY = 8


class _ThreadSpans(threading.local):
    def __init__(self):
        self.spans: Optional[list] = None
        self.stack: list = []


class Tracer:
    """Installs the wrappers, holds the spans, analyses them."""

    def __init__(self):
        self.names: List[str] = [ROOT]
        self._ids: Dict[str, int] = {ROOT: 0}
        self._local = _ThreadSpans()
        self._threads: List[Tuple[str, list]] = []
        self._lock = threading.Lock()
        self._originals: List[Tuple[object, str, object]] = []
        #: id of the repetition being recorded; -1 between repetitions
        self.rep = -1
        self._reps = 0
        self.wire_bytes = 0
        self.wire_messages = 0
        self._sends = 0

    # -- recording ---------------------------------------------------------

    def _spans(self) -> list:
        local = self._local
        if local.spans is None:
            local.spans = []
            with self._lock:
                self._threads.append(
                    (threading.current_thread().name, local.spans))
        return local.spans

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def next_rep(self) -> int:
        self._reps += 1
        return self._reps - 1

    def begin(self, name: str) -> list:
        """Open a span by hand (the harness's root spans)."""
        spans, stack = self._spans(), self._local.stack
        record = [self._name_id(name), 0.0, 0.0,
                  stack[-1] if stack else -1, self.rep, 0]
        stack.append(len(spans))
        spans.append(record)
        record[1] = time.perf_counter()
        return record

    def end(self, record: list, rows: int = 0):
        record[2] = time.perf_counter()
        record[5] = rows
        self._local.stack.pop()

    def _wrap(self, fn, name: str, rows):
        name_id = self._name_id(name)
        retract_id = self._name_id(name + "_retract")
        tracer = self
        local = self._local
        perf_counter = time.perf_counter
        is_send = name == "storm.executor.send"

        def traced(*args, **kwargs):
            spans = local.spans
            if spans is None:
                spans = tracer._spans()
            stack = local.stack
            record = [name_id, 0.0, 0.0, stack[-1] if stack else -1,
                      tracer.rep, 0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if rows is None:
                pass
            elif rows is ONE:
                record[5] = 1
            elif rows is SIGNED:
                record[5] = 1
                if kwargs.get("sign", args[2] if len(args) > 2 else 1) < 0:
                    record[0] = retract_id
            elif rows is RESULT:
                record[5] = len(result) if result is not None else 0
            elif rows is SELF:
                record[5] = len(args[0])
            else:
                record[5] = len(args[rows])
            if is_send:
                tracer._sends += 1
                if tracer._sends % WIRE_SAMPLE_EVERY == 0:
                    tracer.wire_messages += 1
                    tracer.wire_bytes += len(pickle.dumps(
                        args[1], protocol=pickle.HIGHEST_PROTOCOL))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        for module_name, class_name, attribute, name, rows in TARGETS:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(
                module, class_name)
            # an inherited attribute (Connection.send) is shadowed on the
            # named class and deleted again on uninstall
            original = owner.__dict__.get(attribute, _INHERITED)
            self._originals.append((owner, attribute, original))
            if original is _INHERITED:
                original = getattr(owner, attribute)
            if isinstance(original, classmethod):
                wrapped = classmethod(
                    self._wrap(original.__func__, name, rows))
            else:
                wrapped = self._wrap(original, name, rows)
            setattr(owner, attribute, wrapped)

    def uninstall(self):
        for owner, attribute, original in reversed(self._originals):
            if original is _INHERITED:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._originals.clear()

    # -- analysis ----------------------------------------------------------

    def threads(self) -> List[Tuple[str, list]]:
        with self._lock:
            return list(self._threads)

    def span_count(self, reps: Optional[Set[int]] = None) -> int:
        return sum(1 for _name, spans in self.threads() for span in spans
                   if reps is None or span[4] in reps)

    def totals(self, reps: Optional[Set[int]] = None
               ) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, rows, total seconds and self seconds
        (duration minus the part child spans cover), over the spans of
        the given repetitions (None = every span)."""
        out: Dict[str, Dict[str, float]] = {}
        for _thread, spans in self.threads():
            selfs = [span[2] - span[1] for span in spans]
            for span in spans:
                if span[3] >= 0:
                    selfs[span[3]] -= span[2] - span[1]
            for span, self_time in zip(spans, selfs):
                if reps is not None and span[4] not in reps:
                    continue
                entry = out.setdefault(self.names[span[0]], {
                    "calls": 0, "rows": 0, "total_s": 0.0, "self_s": 0.0})
                entry["calls"] += 1
                entry["rows"] += span[5]
                entry["total_s"] += span[2] - span[1]
                entry["self_s"] += self_time
        return out

    def step_profile(self) -> Dict[str, float]:
        """Busy vs idle pump rounds: a round is busy when a source poll
        beneath it returned rows."""
        step_id = self._ids.get("streaming.cluster.step")
        poll_id = self._ids.get("streaming.sources.poll")
        busy_s = idle_s = 0.0
        busy = idle = rows = 0
        for _thread, spans in self.threads():
            polled: Dict[int, int] = {}
            for span in spans:
                if span[0] == poll_id and span[3] >= 0:
                    polled[span[3]] = polled.get(span[3], 0) + span[5]
            for index, span in enumerate(spans):
                if span[0] != step_id:
                    continue
                got = polled.get(index, 0)
                if got:
                    busy += 1
                    rows += got
                    busy_s += span[2] - span[1]
                else:
                    idle += 1
                    idle_s += span[2] - span[1]
        return {"busy": busy, "idle": idle, "rows": rows,
                "busy_s": busy_s, "idle_s": idle_s}

    def write(self, path: str, workload: str):
        """One JSON file per workload: names once, spans as rows -- the
        first ``WRITE_LIMIT`` of each thread (a parent always precedes
        its children, so a cut file still nests)."""
        payload = {
            "workload": workload,
            "names": self.names,
            "fields": ["name_id", "start_s", "end_s", "parent", "rep",
                       "rows"],
            "threads": [{"thread": name, "spans": spans[:WRITE_LIMIT],
                         "dropped": max(0, len(spans) - WRITE_LIMIT)}
                        for name, spans in self.threads()],
        }
        with open(path, "w") as handle:
            json.dump(payload, handle, separators=(",", ":"))
            handle.write("\n")


def check_nesting(payload: dict) -> List[str]:
    """Problems in a written trace: a span must end after it starts, lie
    inside its parent, and every root must be accounted for by its self
    time plus its children."""
    problems: List[str] = []
    for thread in payload["threads"]:
        spans = thread["spans"]
        covered = [0.0] * len(spans)
        for index, (_name, start, end, parent, _rep, _rows) in \
                enumerate(spans):
            if end < start:
                problems.append(f"span {index} ends before it starts")
            if parent >= index:
                problems.append(f"span {index} precedes its parent")
            elif parent >= 0:
                p_start, p_end = spans[parent][1], spans[parent][2]
                if start < p_start or end > p_end:
                    problems.append(
                        f"span {index} leaks out of parent {parent}")
                covered[parent] += end - start
        for index, span in enumerate(spans):
            if covered[index] > (span[2] - span[1]) * (1 + 1e-9) + 1e-9:
                problems.append(
                    f"children of span {index} outlast it")
    return problems
