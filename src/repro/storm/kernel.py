"""The step kernel: the one place a task's ``execute_batch`` is called.

Every driver moves routed micro-batches its own way -- ``LocalCluster``'s
rounds and work stack, the resident workers' pipes -- and hands each one
to :func:`deliver`, so what happens to a batch at a task is written once:
count the receive, run the task, time and span it iff the run is
observed, count the emit.  The inline rounds also share the loop around
it, :func:`run_level`, whose ``processes`` twin is
:meth:`~repro.storm.executor.ResidentWorkerPool.run_level` (the same
turn, executed by the workers that own the tasks).  Two parameters carry
what differs:

- ``counters`` -- where the step is counted: the cluster's
  :class:`~repro.storm.metrics.TopologyMetrics` or a worker's own (folded
  in by the coordinator's ``merge``).
- ``obs`` -- the :class:`~repro.obs.Observer` or a worker's
  :class:`~repro.obs.WorkerObs`; both answer ``record`` / ``span`` /
  ``root``.  ``None`` is ``observe='off'``: no observer object exists and
  one ``is None`` test per batch is the whole cost.
"""

from __future__ import annotations

from time import perf_counter

from repro.core.columnar import ColumnBatch


def deliver(task, component: str, index: int, source: str, stream: str,
            rows, ctx, counters, obs):
    """Run one routed micro-batch at task ``index`` of ``component``.

    ``ctx`` is the span context of the hop that produced ``rows`` (None
    unless the run is traced, and for punctuation-driven batches).
    Returns ``(emissions, child_ctx)``: what the task emitted, and the
    context downstream hops are parented by.
    """
    count = len(rows)
    counters.record_receive(source, component, index, count)
    counters.record_batch(component, index)
    # signed batches carry retractions and changelogs on either layout,
    # so only an unsigned batch says the run took the columnar path
    counters.record_path(
        isinstance(rows, ColumnBatch) and rows.signs is None, count)
    if obs is None:
        emissions = task.execute_batch(source, stream, rows)
        child = None
    else:
        started = perf_counter()
        emissions = task.execute_batch(source, stream, rows)
        seconds = perf_counter() - started
        obs.record(component, index, count, seconds)
        child = obs.span(ctx, component, index, count, seconds)
    if emissions:
        counters.record_emit(component, index, len(emissions))
    return emissions, child


def run_level(component: str, work, route, out, counters, obs,
              finish: bool = False):
    """One component's turn in a level pass: each of its tasks executes
    the deliveries waiting for it, in arrival order, and what it emits is
    routed into ``out`` for the components downstream.

    ``work`` yields ``(index, task, deliveries)``, a delivery being
    ``(source, stream, rows, ctx)`` as a wave buffer hands them over (one
    per coalesced run); ``route`` is the driver's ``Router.route`` and
    ``out`` anything with a wave buffer's ``add``.  With ``finish`` each
    task is flushed after its last delivery (end of stream: every
    upstream component has already had its turn); flush emissions are
    punctuations and travel untraced."""
    for index, task, deliveries in work:
        for source, stream, rows, ctx in deliveries:
            emissions, child = deliver(task, component, index, source,
                                       stream, rows, ctx, counters, obs)
            if emissions:
                out.add(route(component, emissions), child)
        if finish:
            emissions = task.finish()
            if emissions:
                counters.record_emit(component, index, len(emissions))
                out.add(route(component, emissions))


def source_hop(component: str, index: int, rows: int, seconds: float,
               counters, obs):
    """Count one source batch entering the dataplane and open its trace.

    Returns the root span context every batch routed from it is parented
    by (None below the trace level)."""
    counters.record_emit(component, index, rows)
    counters.record_batch(component, index)
    if obs is None:
        return None
    obs.record(component, index, rows, seconds)
    return obs.root(component, index, rows, seconds)


def pull(spout, component: str, index: int, limit: int, counters, obs):
    """One spout pull of at most ``limit`` tuples, as a source hop.

    Returns ``(emissions, root_ctx, more)``; an empty pull counts nothing.
    ``more`` is whether the spout may have rows left: a short pull
    normally means exhaustion, but a columnar spout's selection can thin
    a mid-stream chunk below the limit, so a spout that says it
    ``has_more`` is believed."""
    if obs is None:
        emissions = spout.next_batch(limit)
        seconds = 0.0
    else:
        started = perf_counter()
        emissions = spout.next_batch(limit)
        seconds = perf_counter() - started
    if not emissions:
        return emissions, None, False
    has_more = getattr(spout, "has_more", None)
    more = len(emissions) == limit or (has_more is not None and has_more())
    return emissions, source_hop(component, index, len(emissions), seconds,
                                 counters, obs), more
