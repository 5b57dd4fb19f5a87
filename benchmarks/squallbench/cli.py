"""Command line of the benchmark.

``run.py --workload W --seed N --seconds S --trace 0|1``
    measure one workload in this process; the last line of standard
    output is one JSON object with ``correct``, ``attempted``, ``failed``
    and ``metrics`` -- every end-to-end metric untraced, every per-layer
    metric traced.

``run.py [--traced] [--quick] [--runs K] [--out FILE]``
    every workload, each in its own subprocess, every metric by name and
    unit; the JSON summary ends with ``"claim": null``.

``run.py compare A.json B.json``
    two summaries side by side, one verdict per workload and metric.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from benchmarks.squallbench import VERSION, compare, metrics, workloads
from benchmarks.squallbench.calibrate import Clock, percentile, quartiles
from benchmarks.squallbench.measure import run_workload
from benchmarks.squallbench.tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
#: traces and nothing else are written here (git-ignored)
OUT_DIR = os.path.join(HERE, "out")
DEFAULT_SEED = 12
DEFAULT_SECONDS = 13
QUICK_SECONDS = 0.5


def _sizes(quick: bool) -> Dict[str, int]:
    return workloads.QUICK_SIZES if quick else workloads.SIZES


def _seconds(args) -> float:
    if args.seconds is not None:
        return args.seconds
    return QUICK_SECONDS if args.quick else DEFAULT_SECONDS


def _units(catalogue) -> Dict[str, str]:
    return {entry[0]: entry[1] for entry in catalogue}


# -- one workload, in this process -----------------------------------------


def measure_untraced(name: str, seed: int, seconds: float,
                     quick: bool) -> Dict[str, object]:
    workload = workloads.by_name(name, _sizes(quick))
    measured = run_workload(workload, seed, seconds,
                            setups=1 if quick else 3)
    values = metrics.end_to_end(measured)
    q1, _median, q3 = quartiles(measured.rep_cal_s)
    detail = {
        "reps": len(measured.rep_cal_s),
        "rep_cal_ms_q1": q1 * 1e3, "rep_cal_ms_q3": q3 * 1e3,
        "latency_samples": sum(
            len(segment[0]) for segment in measured.segments),
        "latency_void": measured.latency_void,
        "steal_share": measured.steal_share,
        "calib_ms": measured.calib_ms,
    }
    if measured.segments:
        detail["latency_p99_ms"] = percentile(measured.latency_ms(), 0.99)
        detail["late_p99_ms"] = percentile(measured.late_ms, 0.99)
    detail.update(workload.round_metrics())
    return _result(measured.attempted, measured.failed, values,
                   _units(metrics.END_TO_END), detail)


def measure_traced(name: str, seed: int, seconds: float,
                   quick: bool) -> Dict[str, object]:
    """Half the time untraced (overhead base, raw rates, the paced p99),
    half under the tracer."""
    sizes = _sizes(quick)
    plain_share, obs_share, traced_share = (
        (0.3, 0.3, 0.4) if name == "batch_join3" else (0.5, 0.0, 0.5))
    plain_workload = workloads.by_name(name, sizes)
    plain = run_workload(plain_workload, seed, seconds * plain_share,
                         setups=1)
    extra = plain_workload.round_metrics()
    if obs_share:
        extra.update(observability_overheads(
            plain_workload, seed, seconds * obs_share))
    if name in ("batch_join3_procs", "stream_join_ckpt"):
        extra.update(pickle_microbench(plain_workload, seed))
    if name == "stream_join_ckpt":
        extra.update(snapshot_microbench(plain_workload, seed))

    workload = workloads.by_name(name, sizes)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_workload(workload, seed, seconds * traced_share,
                              tracer=tracer, setups=1)
    finally:
        tracer.uninstall()
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"trace_{name}.json"), name)
    values = metrics.per_layer(workload, plain, traced, tracer, extra)
    return _result(plain.attempted + traced.attempted,
                   plain.failed + traced.failed, values,
                   _units(metrics.PER_LAYER),
                   {"latency_void": plain.latency_void})


def _result(attempted: int, failed: int, values: Dict[str, float],
            units: Dict[str, str], detail: Dict[str, object]
            ) -> Dict[str, object]:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
        "detail": detail,
    }


def observability_overheads(workload, seed: int,
                            seconds: float) -> Dict[str, float]:
    """Interleaved observe='off' | 'metrics' | 'trace' repetitions of
    workload 1, calibrated; overhead of each level over 'off' in %."""
    from repro.engine.runner import run_plan

    state = workload.build(workload.generate(seed))
    clock = Clock()
    times: Dict[str, List[float]] = {"off": [], "metrics": [], "trace": []}
    deadline = time.perf_counter() + seconds
    while not times["trace"] or time.perf_counter() < deadline:
        for level in times:
            options = workload.options.replace(observe=level)
            _result_rows, _wall, cal = clock.timed(
                lambda: run_plan(state["plan"], options=options))
            times[level].append(cal)
    base = statistics.median(times["off"])
    return {
        f"obs.{level}_overhead_pct":
            (statistics.median(times[level]) / base - 1.0) * 100.0
        for level in ("metrics", "trace")
    }


def pickle_microbench(workload, seed: int) -> Dict[str, float]:
    """What one 512-row batch of the workload's own rows costs on the
    wire: ``pickle.dumps`` + ``loads`` of its ColumnBatch."""
    from repro.core.columnar import ColumnBatch

    rows = workload.generate(seed)["R"][:512]
    batch = ColumnBatch.from_rows(rows)
    rounds = 200
    started = time.perf_counter()
    for _ in range(rounds):
        blob = pickle.dumps(batch, protocol=pickle.HIGHEST_PROTOCOL)
        pickle.loads(blob)
    elapsed = time.perf_counter() - started
    return {
        "core.columnar.pickle_ns_row": elapsed * 1e9 / (rounds * len(rows)),
        "core.columnar.pickle_bytes_row": len(blob) / len(rows),
    }


def snapshot_microbench(workload, seed: int) -> Dict[str, float]:
    """``snapshot_blob`` and ``hash_blob`` on the join state the workload
    builds (the same plan run inline, so the tasks are at hand)."""
    from repro.checkpoint.store import hash_blob, snapshot_blob
    from repro.streaming import stream_plan

    state = workload.build(workload.generate(seed))
    query = stream_plan(
        state["plan"],
        options=workload.options.replace(executor="inline",
                                         parallelism=None)).run()
    tasks = query.cluster.cluster.tasks("J")
    started = time.perf_counter()
    blobs = [snapshot_blob(task) for task in tasks]
    snapshot_s = time.perf_counter() - started
    started = time.perf_counter()
    for blob in blobs:
        hash_blob(blob)
    hash_s = time.perf_counter() - started
    size = sum(len(blob) for blob in blobs)
    return {
        "checkpoint.store.snapshot_ns_byte": snapshot_s * 1e9 / size,
        "checkpoint.store.hash_ns_byte": hash_s * 1e9 / size,
    }


def print_report(name: str, result: Dict[str, object]):
    """Every metric of one run by name and unit, one per line."""
    detail = result["detail"]
    for metric, entry in result["metrics"].items():
        print(f"{name:<20}{metric:<40}{entry['value']:>16.4f} "
              f"{entry['unit']}")
    share = result["failed"] / result["attempted"]
    print(f"{name:<20}{'failed_share':<40}{share:>16.4f} share "
          f"({result['failed']} of {result['attempted']} operations)")
    notes = [f"{key}={value:.4g}" if isinstance(value, float)
             else f"{key}={value}" for key, value in detail.items()
             if value is not None]
    if notes:
        print(f"{name:<20}# " + " ".join(notes))


def run_single(args) -> int:
    measure = measure_traced if args.trace else measure_untraced
    result = measure(args.workload, args.seed, _seconds(args), args.quick)
    print_report(args.workload, result)
    detail = result.pop("detail")
    print("# detail " + json.dumps(detail))
    print(json.dumps(result))
    if args.strict and (detail.get("latency_void") or result["failed"]):
        return 1
    return 0


# -- every workload, each in its own subprocess ----------------------------


def _spawn(name: str, seed: int, seconds: float, trace: int,
           quick: bool) -> Dict[str, object]:
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise RuntimeError(
            f"{name} (trace={trace}) exited {done.returncode}:\n"
            f"{done.stderr[-4000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2][len("# detail "):])
    return result


def run_all(args) -> int:
    quick, seconds = args.quick, _seconds(args)
    names = [workload.name for workload in workloads.WORKLOADS]
    summary: Dict[str, object] = {
        "version": VERSION,
        "seed": args.seed,
        "seconds": seconds,
        "runs": args.runs,
        "quick": quick,
        "cpu_count": os.cpu_count(),
        "sizes": _sizes(quick),
        "end_to_end": {},
        "per_layer": {},
        "failed_share": {},
        "unresolved": {},
    }
    bounds = {entry[0]: entry[3] for entry in metrics.END_TO_END}
    exit_code = 0
    for name in names:
        runs = [_spawn(name, args.seed, seconds, 0, quick)
                for _ in range(args.runs)]
        print_report(name, runs[-1])
        attempted = sum(run["attempted"] for run in runs)
        failed = sum(run["failed"] for run in runs)
        summary["failed_share"][name] = failed / attempted
        voids = [run["detail"]["latency_void"] for run in runs
                 if run["detail"].get("latency_void")]
        if voids:
            summary["unresolved"][name] = voids
            print(f"{name:<20}# latency unresolved: {voids[0]}")
        rows = {}
        for metric in bounds:
            values = [run["metrics"][metric]["value"] for run in runs]
            q1, median, q3 = quartiles(values)
            rows[metric] = {
                "value": median, "unit": runs[0]["metrics"][metric]["unit"],
                "q1": q1, "q3": q3, "runs": values,
            }
        summary["end_to_end"][name] = rows
        if args.traced:
            traced = _spawn(name, args.seed, seconds, 1, quick)
            print_report(name, traced)
            summary["per_layer"][name] = {
                metric: entry["value"]
                for metric, entry in traced["metrics"].items()}
            failed += traced["failed"]
        if failed or (voids and args.strict):
            exit_code = 1
    summary["claim"] = None
    text = json.dumps(summary, indent=1)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    print(text)
    return exit_code


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        return compare.main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="squallbench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[
        workload.name for workload in workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measuring time per run (default "
                             f"{DEFAULT_SECONDS}; {QUICK_SECONDS} quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 = the traced pass")
    parser.add_argument("--traced", action="store_true",
                        help="all workloads: add the traced pass")
    parser.add_argument("--quick", action="store_true",
                        help="small sizes, one set-up: the smoke test")
    parser.add_argument("--runs", type=int, default=1,
                        help="all workloads: untraced runs per workload; "
                             "the summary holds their median and quartiles")
    parser.add_argument("--out", help="all workloads: write the summary")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero on void latencies too")
    args = parser.parse_args(argv)
    if args.workload:
        return run_single(args)
    return run_all(args)
