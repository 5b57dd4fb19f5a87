"""The metric catalogue: names, units, directions, and how each per-layer
number is derived from the traced pass.

``BENCHMARK.json`` lists exactly these names (the smoke test holds the
two together).  A per-layer metric a workload does not exercise reads 0.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

from benchmarks.squallbench.calibrate import percentile
from benchmarks.squallbench.measure import Measured
from benchmarks.squallbench.tracer import ROOT, Tracer
from benchmarks.squallbench.workloads import Workload

#: (name, unit, better, bound, meaning)
END_TO_END: List[Tuple[str, str, str, float, str]] = [
    ("rows_per_s", "1/s", "higher", 0.25,
     "input rows fully reflected in the result per calibrated second: "
     "rows / median calibrated repetition time, closed loop"),
    ("latency_p50_ms", "ms", "lower", 0.25,
     "calibrated ms from the last input being due to its result being "
     "visible: one whole query on the closed-loop workloads, event due "
     "time to delta popped on the paced ones"),
    ("peak_rss_mb", "MB", "lower", 0.15,
     "ru_maxrss of the workload's process plus its children"),
    ("setup_s", "s", "lower", 0.25,
     "calibrated seconds to generate the inputs, build the plan or "
     "resident topology and finish one warm-up repetition; median of "
     "the run's set-ups"),
]

#: (name, unit, better, the end-to-end metric and workloads it should move)
PER_LAYER: List[Tuple[str, str, str, str]] = [
    ("core.columnar.from_rows_ns_row", "ns/row", "lower",
     "rows_per_s on 4, 5"),
    ("core.columnar.to_rows_ns_row", "ns/row", "lower",
     "rows_per_s on 4, 5"),
    ("core.columnar.pickle_ns_row", "ns/row", "lower",
     "rows_per_s on 2, 6"),
    ("core.columnar.pickle_bytes_row", "bytes/row", "lower",
     "rows_per_s on 2, 6"),
    ("engine.operators.select_ns_row", "ns/row", "lower",
     "rows_per_s on 3"),
    ("engine.operators.project_ns_row", "ns/row", "lower",
     "rows_per_s on 3"),
    ("engine.operators.agg_ns_row", "ns/row", "lower",
     "rows_per_s on 3, 5"),
    ("engine.operators.agg_retract_ns_row", "ns/row", "lower",
     "rows_per_s, latency_p50_ms on 5"),
    ("engine.operators.selectivity", "share", "lower",
     "rows_per_s on 3 (work downstream of the selection)"),
    ("engine.runner.build_topology_ms", "ms", "lower",
     "setup_s everywhere"),
    ("engine.runner.source_ns_row", "ns/row", "lower",
     "rows_per_s on 3"),
    ("engine.runner.join_bolt_share", "share", "lower",
     "locates the bottleneck on 1, 4 (inclusive time / repetition)"),
    ("engine.runner.agg_bolt_share", "share", "lower",
     "locates the bottleneck on 1, 4, 5 (inclusive time / repetition)"),
    ("engine.runner.sink_share", "share", "lower",
     "locates the bottleneck on 4, 7 (inclusive time / repetition)"),
    ("engine.windows.consume_ns_row", "ns/row", "lower",
     "rows_per_s, latency_p50_ms on 5"),
    ("engine.windows.advance_us_call", "us", "lower",
     "latency_p50_ms, rows_per_s on 5"),
    ("engine.windows.expired_rows", "count", "lower",
     "rows_per_s on 5"),
    ("joins.dbtoaster.insert_ns_row", "ns/row", "lower",
     "rows_per_s on 1, 2, 4, 6"),
    ("joins.dbtoaster.delete_ns_row", "ns/row", "lower",
     "rows_per_s where retractions reach a join"),
    ("joins.dbtoaster.out_rows", "count", "lower",
     "rows_per_s on 1, 2, 4, 6"),
    ("joins.dbtoaster.state_rows", "count", "lower",
     "peak_rss_mb on 1"),
    ("storm.groupings.route_ns_row", "ns/row", "lower",
     "rows_per_s on 1, 2, 4"),
    ("storm.groupings.replication", "share", "lower",
     "rows_per_s on 1, 2, 4 (routed / input rows)"),
    ("storm.groupings.skew", "share", "lower",
     "rows_per_s on 2 (max / mean rows per task)"),
    ("storm.cluster.dispatch_share", "share", "lower",
     "rows_per_s on 1, 3, 4, 5"),
    ("storm.cluster.batches", "count", "lower",
     "rows_per_s on 1, 3, 4, 5"),
    ("storm.cluster.rows_per_batch", "count", "higher",
     "rows_per_s on 1, 3, 4, 5"),
    ("storm.executor.fork_ms", "ms", "lower",
     "rows_per_s on 2, 6 (workers are forked per query)"),
    ("storm.executor.send_ns_row", "ns/row", "lower",
     "rows_per_s on 2, 6"),
    ("storm.executor.wire_bytes_row", "bytes/row", "lower",
     "rows_per_s on 2, 6"),
    ("storm.executor.pipe_wait_share", "share", "lower",
     "rows_per_s on 2, 6 (coordinator blocked in recv)"),
    ("storm.executor.waves", "count", "lower",
     "rows_per_s on 2, 6 (messages sent per repetition)"),
    ("storm.executor.child_cpu_share", "share", "higher",
     "rows_per_s on 2, 6"),
    ("storm.executor.route_ns_row", "ns/row", "lower",
     "rows_per_s on 6"),
    ("storm.executor.respawn_ms", "ms", "lower", "recovery_ms on 6"),
    ("storm.executor.restore_ms", "ms", "lower", "recovery_ms on 6"),
    ("streaming.sources.poll_ns_row", "ns/row", "lower",
     "rows_per_s on 4, 5; latency_p50_ms on 5, 7"),
    ("streaming.sources.backlog_max_rows", "rows", "lower",
     "a growing backlog voids latency on 5, 6, 7"),
    ("streaming.cluster.step_us", "us", "lower",
     "latency_p50_ms on 5, 6; rows_per_s on 4"),
    ("streaming.cluster.idle_step_us", "us", "lower",
     "latency_p50_ms on 5, 6 (a pump round with no input)"),
    ("streaming.cluster.steps", "count", "lower",
     "rows_per_s on 4, 5, 6"),
    ("streaming.cluster.rows_per_step", "count", "higher",
     "rows_per_s on 4, 5, 6"),
    ("streaming.watermarks.advance_us_call", "us", "lower",
     "latency_p50_ms on 5"),
    ("streaming.deltas.publish_ns_delta", "ns/delta", "lower",
     "rows_per_s on 4, 5"),
    ("streaming.deltas.pop_ns_delta", "ns/delta", "lower",
     "rows_per_s on 4, 5"),
    ("streaming.deltas.deltas_per_row", "count", "lower",
     "rows_per_s on 4, 5, 6"),
    ("streaming.deltas.fanout_ns_delta_sub", "ns", "lower",
     "latency_p50_ms, rows_per_s on 7 and nothing elsewhere"),
    ("checkpoint.store.commit_ms", "ms", "lower",
     "rows_per_s, latency_p99_ms on 6"),
    ("checkpoint.store.snapshot_ns_byte", "ns/byte", "lower",
     "rows_per_s on 6"),
    ("checkpoint.store.hash_ns_byte", "ns/byte", "lower",
     "rows_per_s on 6"),
    ("checkpoint.store.bytes_persisted", "bytes", "lower",
     "rows_per_s on 6"),
    ("checkpoint.store.skipped_share", "share", "higher",
     "rows_per_s on 6"),
    ("checkpoint.pause_ms", "ms", "lower",
     "rows_per_s, latency_p99_ms on 6 (commit rounds minus clean ones)"),
    ("checkpoint.log.record_ns_row", "ns/row", "lower",
     "rows_per_s on 6"),
    ("checkpoint.log.replayed_rows", "rows", "lower", "recovery_ms on 6"),
    ("serving.broker.subscribe_us", "us", "lower", "setup_s on 7"),
    ("serving.fingerprint.hash_us", "us", "lower", "setup_s on 7"),
    ("serving.broker.shed", "count", "lower", "failed operations on 7"),
    ("serving.broker.topologies", "count", "lower",
     "rows_per_s on 7 (1: every subscriber shares one topology)"),
    ("obs.metrics_overhead_pct", "%", "lower",
     "rows_per_s on 1 at observe='metrics'"),
    ("obs.trace_overhead_pct", "%", "lower",
     "rows_per_s on 1 at observe='trace'"),
    ("trace.unattributed_share", "share", "lower",
     "how much of a repetition no layer span covers"),
    ("trace.overhead_pct", "%", "lower",
     "how far the traced pass is from the untraced one"),
    ("trace.spans", "count", "lower", "spans per repetition"),
    ("loadgen.calib_ms", "ms", "lower",
     "the machine: median calibration kernel time"),
    ("loadgen.steal_share", "share", "lower",
     "the machine: CPU time the hypervisor took"),
    ("loadgen.late_p99_ms", "ms", "lower",
     "above 20 ms the paced latencies are void"),
    ("rows_per_s_raw", "1/s", "higher",
     "rows_per_s without calibration (wall seconds)"),
    ("cpu_s_per_mrow", "s/Mrow", "lower",
     "CPU seconds, self + children, per million input rows"),
    ("latency_p99_ms", "ms", "lower",
     "paced workloads; its run-to-run spread is wider than any bound, "
     "so it is reported here and not gated"),
    ("recovery_ms", "ms", "lower",
     "workload 6 only: the pump round that recovers a killed worker, "
     "minus a clean round"),
]


def end_to_end(measured: Measured) -> Dict[str, float]:
    """The four gated numbers of one untraced run."""
    rep_s = measured.rep_seconds()
    if measured.segments:
        latency = measured.latency_p50_ms()
    else:
        latency = rep_s * 1e3
    return {
        "rows_per_s": measured.rows_per_rep / rep_s,
        "latency_p50_ms": latency,
        "peak_rss_mb": measured.peak_rss_mb,
        "setup_s": measured.setup_seconds(),
    }


def per_layer(workload: Workload, plain: Measured, traced: Measured,
              tracer: Tracer, extra: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric of one traced run.

    ``plain`` is the untraced half of the run, ``traced`` the traced
    half; ``extra`` carries what neither holds (microbenchmarks, the
    observability overheads, the untraced half's round times).  Time-per-row metrics divide a span name's *self* time
    (its duration minus what its child spans cover) over the closed-loop
    repetitions by the rows those calls handled -- or, where a call
    cannot know its rows (pipe sends), by the workload's input rows."""
    out = {name: 0.0 for name, _unit, _better, _moves in PER_LAYER}
    closed = set(traced.rep_ids["closed"])
    reps = max(1, len(closed))
    input_rows = traced.rows_per_rep * reps
    spans = tracer.totals(closed)       # closed-loop repetitions
    every = tracer.totals(None)         # set-up, kill, paced too
    root = spans.get(ROOT, {"total_s": 0.0, "self_s": 0.0})
    root_s = root["total_s"] or 1.0

    def ns_row(name: str) -> float:
        entry = spans.get(name)
        if not entry:
            return 0.0
        return entry["self_s"] * 1e9 / (entry["rows"] or input_rows)

    def share(*names: str, of: str = "self_s") -> float:
        return sum(spans[name][of] for name in names
                   if name in spans) / root_s

    def per_call(name: str, unit: float, source=every) -> float:
        entry = source.get(name)
        return entry["total_s"] * unit / entry["calls"] if entry else 0.0

    out["core.columnar.from_rows_ns_row"] = ns_row("core.columnar.from_rows")
    out["core.columnar.to_rows_ns_row"] = ns_row("core.columnar.to_rows")
    out["engine.operators.select_ns_row"] = ns_row("engine.operators.select")
    out["engine.operators.project_ns_row"] = ns_row(
        "engine.operators.project")
    out["engine.operators.agg_ns_row"] = ns_row("engine.operators.agg")
    out["engine.operators.agg_retract_ns_row"] = ns_row(
        "engine.operators.agg_retract")
    out["engine.runner.build_topology_ms"] = per_call(
        "engine.runner.build_topology", 1e3)
    out["engine.runner.source_ns_row"] = ns_row("engine.runner.source")
    # bolts are siblings under the dispatch loop, so their inclusive
    # times (children and all) are disjoint shares of the repetition
    out["engine.runner.join_bolt_share"] = share(
        "engine.runner.join_bolt", of="total_s")
    out["engine.runner.agg_bolt_share"] = share(
        "engine.runner.agg_bolt", of="total_s")
    out["engine.runner.sink_share"] = share(
        "engine.runner.sink", "streaming.deltas.publish", of="total_s")
    out["engine.windows.consume_ns_row"] = ns_row("engine.windows.consume")
    out["engine.windows.advance_us_call"] = per_call(
        "engine.windows.advance", 1e6, spans)
    out["joins.dbtoaster.insert_ns_row"] = ns_row("joins.dbtoaster.insert")
    out["joins.dbtoaster.delete_ns_row"] = ns_row("joins.dbtoaster.delete")
    out["storm.groupings.route_ns_row"] = ns_row("storm.groupings.route")
    out["storm.cluster.dispatch_share"] = share("storm.cluster.dispatch")

    # -- storm.executor: pipes and forks -----------------------------------
    sends = spans.get("storm.executor.send")
    if sends:
        out["storm.executor.send_ns_row"] = (
            sends["total_s"] * 1e9 / input_rows)
        out["storm.executor.waves"] = sends["calls"] / reps
        out["storm.executor.pipe_wait_share"] = (
            spans.get("storm.executor.recv", {"total_s": 0.0})["total_s"]
            / root_s)
        out["storm.executor.fork_ms"] = (
            spans.get("storm.executor.fork", {"total_s": 0.0})["total_s"]
            * 1e3 / reps)
        if tracer.wire_messages:
            sampled = tracer.wire_bytes / tracer.wire_messages
            out["storm.executor.wire_bytes_row"] = (
                sampled * sends["calls"] / input_rows)
        cpu = sum(plain.rep_cpu_s)
        out["storm.executor.child_cpu_share"] = (
            sum(plain.rep_child_cpu_s) / cpu if cpu else 0.0)
    out["storm.executor.route_ns_row"] = ns_row("storm.executor.route")
    out["storm.executor.respawn_ms"] = per_call(
        "storm.executor.respawn", 1e3)
    out["storm.executor.restore_ms"] = per_call(
        "storm.executor.restore", 1e3)

    # -- streaming ---------------------------------------------------------
    out["streaming.sources.poll_ns_row"] = ns_row("streaming.sources.poll")
    out["streaming.sources.backlog_max_rows"] = float(
        max(plain.backlog, default=0))
    steps = tracer.step_profile()
    if steps["busy"]:
        out["streaming.cluster.step_us"] = (
            steps["busy_s"] * 1e6 / steps["busy"])
        out["streaming.cluster.rows_per_step"] = (
            steps["rows"] / steps["busy"])
    if steps["idle"]:
        out["streaming.cluster.idle_step_us"] = (
            steps["idle_s"] * 1e6 / steps["idle"])
    out["streaming.cluster.steps"] = float(steps["busy"] + steps["idle"])
    advances = spans.get("streaming.watermarks.advance")
    if advances:
        out["streaming.watermarks.advance_us_call"] = (
            (advances["self_s"]
             + spans.get("streaming.watermarks.track",
                         {"self_s": 0.0})["self_s"])
            * 1e6 / advances["calls"])
    out["streaming.deltas.publish_ns_delta"] = ns_row(
        "streaming.deltas.publish")
    pops = spans.get("streaming.deltas.pop")
    if pops:
        out["streaming.deltas.pop_ns_delta"] = (
            pops["self_s"] * 1e9 / pops["calls"])
    subscribers = workload.sizes["serve_subscribers"]
    if workload.name == "serve_fanout":
        out["streaming.deltas.fanout_ns_delta_sub"] = (
            out["streaming.deltas.publish_ns_delta"] / subscribers)

    # -- checkpoint, serving -----------------------------------------------
    out["checkpoint.store.commit_ms"] = per_call(
        "checkpoint.store.commit", 1e3)
    out["checkpoint.log.record_ns_row"] = ns_row("checkpoint.log.record")
    out["serving.broker.subscribe_us"] = per_call(
        "serving.broker.subscribe", 1e6)
    out["serving.fingerprint.hash_us"] = per_call(
        "serving.fingerprint.hash", 1e6)

    # -- the trace itself, the load generator, the machine -----------------
    out["trace.unattributed_share"] = root["self_s"] / root_s
    out["trace.overhead_pct"] = (
        traced.rep_seconds() / plain.rep_seconds() - 1.0) * 100.0
    out["rows_per_s_raw"] = (
        plain.rows_per_rep / statistics.median(plain.rep_wall_s))
    out["cpu_s_per_mrow"] = (
        statistics.median(plain.rep_cpu_s) * 1e6 / plain.rows_per_rep)
    out["trace.spans"] = tracer.span_count(closed) / reps
    out["loadgen.calib_ms"] = plain.calib_ms
    out["loadgen.steal_share"] = plain.steal_share
    if plain.late_ms:
        out["loadgen.late_p99_ms"] = percentile(plain.late_ms, 0.99)
        out["latency_p99_ms"] = percentile(plain.latency_ms(), 0.99)

    out.update(traced.counters)
    out.update(extra)
    unknown = set(out) - {name for name, *_rest in PER_LAYER}
    if unknown:
        raise KeyError(f"per-layer metrics not in the catalogue: {unknown}")
    return out
