"""Drive one workload: set-up, closed-loop repetitions, paced open loop.

One process measures one workload (so ``ru_maxrss`` is that workload's
alone).  Load is generated from this one thread: the closed loop runs
one repetition after the other, the open loop pushes every event that is
due, lets the engine take one turn, and pops the probe subscription.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Hashable, List, Optional, Tuple

from benchmarks.squallbench import reference
from benchmarks.squallbench.calibrate import (
    COLD_REF_S,
    Clock,
    cold_kernel,
    percentile,
    read_steal,
    steal_share,
    undisturbed,
)
from benchmarks.squallbench.tracer import ROOT, Tracer
from benchmarks.squallbench.workloads import PacedFeed, Workload

#: set-ups per run; ``setup_s`` is their median
SETUPS = 3
#: a paced event whose delta takes longer than this (raw ms) has failed.
#: (Seconds, not the 500 ms an SLO would set: the whole VM stalls for
#: half a second about once per hour of measuring, and an operation
#: failed by the machine would say nothing about the engine.)
LATENCY_LIMIT_MS = 5000.0
#: the paced phase is void when the generator itself ran later than this
LATE_LIMIT_MS = 20.0
#: the paced schedule runs in segments of this length; a segment's
#: latencies are scaled by the cold kernel runs inside it
SEGMENT_S = 0.1
#: fewest closed-loop repetitions and paced segments, however short the run
MIN_REPS = 2
MIN_SEGMENTS = 1
#: paced segments in a traced run (every idle pump round is a span)
TRACED_SEGMENTS = 10


def cpu_seconds() -> Tuple[float, float]:
    """CPU seconds of (this process, its reaped children)."""
    times = os.times()
    return (time.process_time(),
            times.children_user + times.children_system)


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus that of its children (Linux
    reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


@dataclass
class Measured:
    """Everything one run of one workload observed."""

    workload: str
    rows_per_rep: int = 0
    attempted: int = 0
    failed: int = 0
    setup_cal_s: List[float] = field(default_factory=list)
    setup_steal: List[float] = field(default_factory=list)
    rep_wall_s: List[float] = field(default_factory=list)
    rep_cal_s: List[float] = field(default_factory=list)
    #: share of CPU time the hypervisor took during each repetition
    rep_steal: List[float] = field(default_factory=list)
    #: CPU seconds per repetition: self + children, and children alone
    rep_cpu_s: List[float] = field(default_factory=list)
    rep_child_cpu_s: List[float] = field(default_factory=list)
    #: traced pass: the tracer's repetition ids of each phase
    rep_ids: Dict[str, List[int]] = field(default_factory=lambda: {
        "closed": [], "kill": [], "paced": []})
    #: paced phase, per segment: the raw latencies (s) of its tracked
    #: events, the factor to calibrated time from its cold kernel runs,
    #: and the steal share while it ran
    segments: List[Tuple[List[float], float, float]] = field(
        default_factory=list)
    #: lateness of the generator in raw ms, and the unanswered events at
    #: the end of each push turn
    late_ms: List[float] = field(default_factory=list)
    backlog: List[int] = field(default_factory=list)
    latency_void: Optional[str] = None
    peak_rss_mb: float = 0.0
    steal_share: float = 0.0
    calib_ms: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)

    def _quiet_segments(self) -> List[Tuple[List[float], float, float]]:
        filled = [segment for segment in self.segments if segment[0]]
        return undisturbed(filled, [segment[2] for segment in filled])

    def latency_ms(self) -> List[float]:
        """Every paced latency in calibrated ms."""
        return [latency * 1e3 * scale
                for latencies, scale, _steal in self._quiet_segments()
                for latency in latencies]

    def latency_p50_ms(self) -> float:
        """Median over the segments of the segment's median latency:
        steadier than the pooled median, because a segment's scale is
        itself a noisy sample."""
        return statistics.median(
            statistics.median(latencies) * 1e3 * scale
            for latencies, scale, _steal in self._quiet_segments())

    def rep_seconds(self) -> float:
        """Median calibrated time of a closed-loop repetition."""
        return statistics.median(undisturbed(self.rep_cal_s, self.rep_steal))

    def setup_seconds(self) -> float:
        return statistics.median(
            undisturbed(self.setup_cal_s, self.setup_steal))

    def check(self, ok: bool):
        """Count one operation."""
        self.attempted += 1
        self.failed += not ok


def _traced_call(tracer: Optional[Tracer], rep_ids: List[int],
                 fn: Callable[[], object]):
    """Run ``fn`` under the harness's root span (when tracing); spans
    recorded outside any such call carry repetition id -1."""
    if tracer is None:
        return fn()
    tracer.rep = rep_id = tracer.next_rep()
    rep_ids.append(rep_id)
    root = tracer.begin(ROOT)
    try:
        return fn()
    finally:
        tracer.end(root)
        tracer.rep = -1


def _closed_rep(measured: Measured, workload: Workload, state,
                rep: Callable[[object], List[tuple]], expected,
                clock: Clock, tracer: Optional[Tracer], phase: str):
    """One timed, checked repetition; an exception is a failed
    operation, never an abort."""
    gc.collect()
    cpu = [0.0, 0.0]

    def run():
        own, children = cpu_seconds()
        try:
            return _traced_call(tracer, measured.rep_ids[phase],
                                lambda: rep(state))
        finally:
            now_own, now_children = cpu_seconds()
            cpu[0], cpu[1] = now_own - own, now_children - children

    steal_before = read_steal()
    try:
        # the traced pass is not sliced: the kernel would run inside the
        # repetition's root span
        result, wall, cal = clock.timed(run, sliced=tracer is None)
        stolen = steal_share(steal_before, read_steal())
        ok = workload.correct(state, result, expected)
        workload.after_rep(state)
    except Exception:  # counted; the traceback names the cause
        traceback.print_exc()
        measured.check(False)
        return
    measured.check(ok)
    if phase == "closed":
        measured.rep_wall_s.append(wall)
        measured.rep_cal_s.append(cal)
        measured.rep_steal.append(stolen)
        measured.rep_cpu_s.append(cpu[0] + cpu[1])
        measured.rep_child_cpu_s.append(cpu[1])


def run_workload(workload: Workload, seed: int, seconds: float,
                 tracer: Optional[Tracer] = None,
                 setups: int = SETUPS) -> Measured:
    """Measure one workload for about ``seconds`` seconds; ``tracer``
    (already installed) makes it the traced pass."""
    measured = Measured(workload.name)
    clock = Clock()
    workload.tick = clock.tick
    steal_before = read_steal()

    # -- set-up, several times: generate, build, one warm-up repetition ----
    data = state = None
    warmups: List[object] = []
    for _ in range(setups):
        if state is not None:
            workload.close(state)
        gc.collect()

        def setup():
            fresh = workload.generate(seed)
            built = workload.build(fresh)
            return fresh, built, workload.rep(built)

        steal_setup = read_steal()
        (data, state, result), _wall, cal = clock.timed(setup)
        measured.setup_steal.append(steal_share(steal_setup, read_steal()))
        workload.after_rep(state)
        measured.setup_cal_s.append(cal)
        warmups.append((state, result))
    expected = workload.expected(data)  # reference: never timed
    for built, result in warmups:
        measured.check(workload.correct(built, result, expected))
    measured.rows_per_rep = workload.rows_per_rep(data)

    try:
        started = time.perf_counter()
        closed_end = started + seconds * workload.closed_share
        reps = 0
        while reps < MIN_REPS or time.perf_counter() < closed_end:
            _closed_rep(measured, workload, state, workload.rep, expected,
                        clock, tracer, "closed")
            reps += 1
        if tracer is not None:
            measured.counters.update(workload.counters(state))
        for _ in range(workload.kill_reps):
            _closed_rep(measured, workload, state, workload.kill_rep,
                        expected, clock, tracer, "kill")
        if workload.paced_share:
            _paced_phase(measured, workload, data, state,
                         started + seconds, tracer)
    finally:
        workload.close(state)
    measured.peak_rss_mb = peak_rss_mb()
    measured.steal_share = steal_share(steal_before, read_steal())
    measured.calib_ms = percentile(clock.kernel_times, 0.5) * 1e3
    return measured


def _paced_phase(measured: Measured, workload: Workload, data, state,
                 deadline: float, tracer: Optional[Tracer]):
    """Open loop at a fixed rate, in segments; every segment's latencies
    are scaled by the cold kernel runs inside it."""
    feed = workload.paced_open(data, state)
    received: List[object] = []
    segments = 0
    gc.collect()
    gc.disable()  # a collector pause would land on arbitrary events
    try:
        while segments < MIN_SEGMENTS or (
                time.perf_counter() < deadline
                and (tracer is None or segments < TRACED_SEGMENTS)):
            steal_before = read_steal()
            latencies, cold = _traced_call(
                tracer, measured.rep_ids["paced"], lambda: _paced_segment(
                    measured, feed, received,
                    first=int(segments * feed.rate * SEGMENT_S)))
            if cold:
                measured.segments.append(
                    (latencies, COLD_REF_S / statistics.median(cold),
                     steal_share(steal_before, read_steal())))
            segments += 1
    finally:
        gc.enable()
        received.extend(feed.close())
    measured.check(reference.same_rows(
        reference.fold_deltas(received), feed.expected()))
    late = percentile(measured.late_ms, 0.99)
    if late > LATE_LIMIT_MS:
        measured.latency_void = (
            f"generator p99 lateness {late:.1f} ms > {LATE_LIMIT_MS:g} ms")
    elif _backlog_growing(measured.backlog):
        measured.latency_void = "backlog still growing when sending ended"


def _backlog_growing(backlog: List[int]) -> bool:
    """Unanswered events at the end of sending, against the run's own
    typical backlog: an open loop above the sustainable rate grows
    without bound, one below it hovers."""
    if len(backlog) < 8:
        return False
    tail = backlog[-max(1, len(backlog) // 20):]
    typical = percentile(backlog, 0.5)
    return min(tail) > 4 + 4 * typical


def _paced_segment(measured: Measured, feed: PacedFeed,
                   received: List[object], first: int
                   ) -> Tuple[List[float], List[float]]:
    """Push ``rate * SEGMENT_S`` events on schedule; returns the raw
    latencies (seconds) of the tracked ones, due time to delta popped,
    and the cold kernel's times (one run per turn that delivered)."""
    count = max(1, int(feed.rate * SEGMENT_S))
    interval = 1.0 / feed.rate
    pending: Dict[Hashable, Deque[float]] = {}
    outstanding = 0
    latencies: List[float] = []
    cold: List[float] = []
    sent = 0
    start = time.perf_counter() + interval
    last_due = start + (count - 1) * interval
    while True:
        now = time.perf_counter()
        pushed = False
        while sent < count and start + sent * interval <= now:
            due = start + sent * interval
            event = feed.event(first + sent)
            key = feed.event_key(event)
            if key is not None:
                pending.setdefault(key, deque()).append(due)
                outstanding += 1
            feed.push(event)
            measured.late_ms.append((time.perf_counter() - due) * 1e3)
            sent += 1
            pushed = True
        wait = (start + sent * interval - now) if sent < count else 0.01
        deltas = feed.turn(max(wait, 0.0))
        if deltas:
            popped = time.perf_counter()
            received.extend(deltas)
            for delta in deltas:
                key = feed.arrival_key(delta)
                dues = pending.get(key) if key is not None else None
                if dues:
                    latencies.append(popped - dues.popleft())
                    outstanding -= 1
            cold.append(cold_kernel())
        if pushed:
            measured.backlog.append(outstanding)
        if sent == count and not outstanding:
            break
        if time.perf_counter() > last_due + LATENCY_LIMIT_MS / 1e3:
            break  # the rest never arrived in time
    late = sum(1 for latency in latencies
               if latency * 1e3 > LATENCY_LIMIT_MS)
    measured.attempted += len(latencies) + outstanding
    measured.failed += late + outstanding
    return latencies, cold
