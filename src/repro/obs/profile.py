"""EXPLAIN-ANALYZE-style per-operator profile of one (finished or
resident) topology run.

Combines the cluster's :class:`~repro.storm.metrics.TopologyMetrics`
counters (rows, batches, skew -- always available) with an
:class:`~repro.obs.observer.Observer`'s latency histograms and trace
counts (available when the run executed with ``observe='metrics'`` or
``'trace'``).  Rendered as plain text, one row per component in
topological order, with per-task row counts so imbalance is visible at
a glance.
"""

from __future__ import annotations

from typing import List, Optional

_HEADERS = ("operator", "tasks", "batches", "rows in", "rows out",
            "rows/task", "p50 ms", "p95 ms", "p99 ms", "skew")


def _per_task(values) -> str:
    values = list(values)
    if len(values) > 8:
        shown = "/".join(str(v) for v in values[:8])
        return f"{shown}/…({len(values)} tasks)"
    return "/".join(str(v) for v in values)


def _format_rows(rows: List[List[str]]) -> str:
    widths = [max(len(_HEADERS[i]), *(len(row[i]) for row in rows))
              if rows else len(_HEADERS[i]) for i in range(len(_HEADERS))]
    def line(cells):
        return "  ".join(cell.ljust(width)
                         for cell, width in zip(cells, widths)).rstrip()
    out = [line(_HEADERS), line(["-" * width for width in widths])]
    out.extend(line(row) for row in rows)
    return "\n".join(out)


def profile_report(topology, metrics, observer=None,
                   title: Optional[str] = None) -> str:
    """The profile text for one topology run."""
    rows: List[List[str]] = []
    for name in topology.topological_order():
        spec = topology.components[name]
        is_spout = spec.is_spout
        received = metrics.received.get(name, ())
        emitted = metrics.emitted.get(name, ())
        batches = sum(metrics.batches.get(name, ()))
        row = [
            name,
            str(spec.parallelism),
            str(batches),
            "-" if is_spout else str(sum(received)),
            str(sum(emitted)),
            _per_task(emitted if is_spout else received),
        ]
        if observer is not None:
            hist = observer.registry.merged_histogram(
                "operator_batch_seconds", component=name)
            if hist.count:
                for quantile in (0.50, 0.95, 0.99):
                    row.append(f"{hist.percentile(quantile) * 1000:.3f}")
            else:
                row.extend(["-", "-", "-"])
        else:
            row.extend(["-", "-", "-"])
        skew = metrics.skew_degree(name)
        row.append(f"{skew:.2f}" if not is_spout and sum(received) else "-")
        rows.append(row)
    lines = []
    if title:
        lines.append(title)
    lines.append(_format_rows(rows))
    footer = []
    if metrics.elapsed:
        footer.append(f"elapsed: {metrics.elapsed:.3f}s")
    footer.append(metrics.path_summary())
    if observer is None:
        footer.append(
            "batch latency unavailable: run with "
            "ExecutionOptions(observe='metrics') or 'trace'")
    elif observer.trace:
        footer.append(
            f"traces: {len(observer.traces.trace_ids())} recorded "
            f"({len(observer.traces)} spans, "
            f"{observer.traces.dropped} dropped)")
    lines.append("; ".join(footer))
    return "\n".join(lines)
