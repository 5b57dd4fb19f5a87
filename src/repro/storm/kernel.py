"""The step kernel: the one place a task's ``execute_batch`` is called.

One coordinator driver, :class:`~repro.storm.cluster.LocalCluster`, runs
every topology on both executors.  Its level pass hands each component's
turn to :func:`run_level` -- or to the workers of a resident pool, which
run the same loop in :meth:`~repro.storm.executor.ResidentWorkerState.\
execute`; its depth-first schedule works a stack.  All three hand each
routed micro-batch to :func:`deliver`, so what happens to a batch at a
task is written once: count the receive, run the task, time and span it
iff the run is observed, count the emit and the late rows.  A
punctuation -- end of stream or a watermark -- is the last step of a
task's turn, after its deliveries, and :func:`punctuate` is the one
place it is applied.  Two parameters carry what differs:

- ``counters`` -- where the step is counted: the cluster's
  :class:`~repro.storm.metrics.TopologyMetrics` or a worker's own (folded
  in by the coordinator's ``merge``).
- ``obs`` -- the cluster's :class:`~repro.obs.Observer` or a worker's
  own (folded in by the coordinator's ``merge_worker_obs``).  ``None`` is
  ``observe='off'`` (and a recovery replay): no observer object exists
  and one ``is None`` test per batch is the whole cost.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from time import perf_counter

from repro.core.columnar import ColumnBatch, ColumnEmissions


def stream_position(task, index: int, emissions):
    """``(index, {stream: index of its first row there}, occurrences)``:
    where task ``index``'s ``emissions`` stand in its streams, which
    :meth:`~repro.storm.executor.Router.route` places them by.  Counts
    them into ``task.emitted``: the count lives, and is checkpointed,
    with the task.  ``occurrences`` is None unless the task counts
    copies (``task.copies``, set where a random dimension places what it
    emits): then each row's occurrence number, from :func:`count_copies`,
    on the streams that dimension places (``task.copy_streams``)."""
    start = task.emitted
    counts = dict(start)
    if isinstance(emissions, ColumnEmissions):
        runs = [(emissions.stream, len(emissions))]
    else:
        streams = list(map(itemgetter(0), emissions))
        runs = ([(streams[0], len(streams))]
                if streams.count(streams[0]) == len(streams)
                else Counter(streams).items())
    for stream, rows in runs:
        counts[stream] = counts.get(stream, 0) + rows
    task.emitted = counts
    copies = task.copies
    return index, start, None if copies is None else count_copies(
        copies, emissions, task.copy_streams)


def count_copies(copies, emissions, streams=None):
    """Each emitted row's occurrence number: how many copies of it, on its
    stream, the task emitted and has not retracted before it.  A
    retraction takes the latest occurrence, so it follows the copy placed
    last.  ``copies`` (``{(stream, row): live copies}``) is updated.
    Only the rows on ``streams`` (None: every stream) are counted; any
    other row, which nothing places by its copies, is numbered 0."""
    if isinstance(emissions, ColumnEmissions):
        batch = emissions.batch
        if streams is not None and emissions.stream not in streams:
            return [0] * len(batch)
        signs = [1] * len(batch) if batch.signs is None else batch.signs.tolist()
        emissions = zip([(emissions.stream, row) for row in batch], signs)
    else:
        emissions = zip(emissions, [1] * len(emissions))
    numbers = []
    for key, sign in emissions:
        if streams is not None and key[0] not in streams:
            numbers.append(0)
            continue
        live = copies.get(key, 0)
        if sign < 0:
            live = number = max(live - 1, 0)
        else:
            number, live = live, live + 1
        if live:
            copies[key] = live
        else:
            copies.pop(key, None)
        numbers.append(number)
    return numbers


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
    late = task.late_rows
    if obs is None:
        emissions = task.execute_batch(source, stream, rows)
        child = None
    else:
        started = perf_counter()
        emissions = task.execute_batch(source, stream, rows)
        seconds = perf_counter() - started
        obs.record(component, index, seconds)
        child = obs.span(ctx, component, index, count, seconds)
    if emissions:
        counters.record_emit(component, index, len(emissions))
    if task.late_rows != late:
        counters.record_late(component, task.late_rows - late)
    return emissions, child


#: the end-of-stream punctuation; any other punctuation is a watermark
END = "end"


def punctuate(task, component: str, index: int, punctuation, counters):
    """Apply ``punctuation`` to task ``index`` of ``component`` -- at
    :data:`END` its ``finish``, otherwise its ``advance_watermark`` --
    and count what it emits.  Returns the emissions, which travel
    untraced: a punctuation is no source batch's."""
    emissions = (task.finish() if punctuation == END
                 else task.advance_watermark(punctuation))
    if emissions:
        counters.record_emit(component, index, len(emissions))
    return emissions


def run_level(component: str, work, route, out, counters, obs,
              punctuation=None):
    """One component's turn in a level pass: each of its tasks executes
    the deliveries waiting for it, in arrival order, then the
    ``punctuation`` if there is one (every upstream component has
    already had its turn), and what it emits is routed into ``out`` for
    the components downstream.

    ``work`` yields ``(index, task, deliveries)``, a delivery being
    ``(source, stream, rows, ctx, parts)`` as a wave buffer hands them
    over (one per coalesced run); ``route`` is the driver's
    ``Router.route`` and ``out`` anything with a wave buffer's ``add``."""
    for index, task, deliveries in work:
        for source, stream, rows, ctx, _parts in deliveries:
            emissions, child = deliver(task, component, index, source,
                                       stream, rows, ctx, counters, obs)
            if emissions:
                out.add(route(component, emissions, stream_position(
                    task, index, emissions)), child)
        if punctuation is not None:
            emissions = punctuate(task, component, index, punctuation,
                                  counters)
            if emissions:
                out.add(route(component, emissions, stream_position(
                    task, index, emissions)))


def pull(spout, component: str, index: int, limit: int, counters, obs):
    """One spout pull of at most ``limit`` tuples, as a source hop: the
    batch is counted entering the dataplane and opens its trace.

    Returns ``(emissions, position, root_ctx, more)``, ``position``
    their :func:`stream_position` and ``root_ctx`` the span context every
    batch routed from them is parented by (None below the trace level);
    an empty pull counts nothing.  ``more`` is the spout's ``has_more``,
    not the pull's length: a selection can thin a mid-stream poll, even
    to nothing, without the source running dry."""
    if obs is None:
        emissions = spout.next_batch(limit)
    else:
        started = perf_counter()
        emissions = spout.next_batch(limit)
        seconds = perf_counter() - started
    more = spout.has_more()
    if not emissions:
        return emissions, None, None, more
    rows = len(emissions)
    counters.record_emit(component, index, rows)
    counters.record_batch(component, index)
    ctx = None
    if obs is not None:
        obs.record(component, index, seconds)
        ctx = obs.root(component, index, rows, seconds)
    return emissions, stream_position(spout, index, emissions), ctx, more
