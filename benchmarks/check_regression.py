"""Benchmark regression gate: compare a pytest-benchmark JSON run
against the committed baseline and fail on significant slowdowns.

Usage (what the CI bench job runs)::

    python benchmarks/check_regression.py \
        benchmarks/BENCH_baseline.json BENCH_<sha>.json --threshold 0.20

A benchmark regresses when its best (min) time exceeds the baseline's
best time by more than ``threshold``.  Min-of-rounds is the least noisy
statistic a shared CI runner can offer; the generous default threshold
absorbs normal runner-to-runner jitter while still catching real
algorithmic slowdowns.  Benchmarks present on only one side are
reported but never fail the gate (new benchmarks must be able to land,
and retired ones to leave, without a baseline edit race).  Neither does
a benchmark both sides measured on *different core counts* (each records
``extra_info["cpus"]``): a 1-core baseline says nothing about a 2-core
run of a parallel backend, so the row reads ``skipped (cpus a≠b)``.

Refresh the committed baseline by downloading a green run's
``BENCH_<sha>.json`` artifact (or running
``PYTHONPATH=src python -m pytest benchmarks/ --benchmark-json ...``
locally) and copying it over ``benchmarks/BENCH_baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import sys


def load_stats(path: str) -> dict:
    with open(path) as handle:
        data = json.load(handle)
    stats = {}
    for bench in data.get("benchmarks", []):
        stats[bench["fullname"]] = bench["stats"]
    return stats


def load_extra_info(path: str) -> dict:
    """fullname -> the benchmark's ``extra_info`` dict (may be empty)."""
    with open(path) as handle:
        data = json.load(handle)
    return {bench["fullname"]: bench.get("extra_info", {})
            for bench in data.get("benchmarks", [])}


def fanout_scalings(extra_info: dict) -> list:
    """(base name, subscribers, p99 ms, scaling vs fewest) rows for every
    serving benchmark parametrized as ``[subsN]`` with a recorded p99."""
    groups = {}
    for name, info in extra_info.items():
        if "subscribers" not in info or "p99_ms" not in info:
            continue
        base = name.split("[", 1)[0]
        groups.setdefault(base, []).append(
            (int(info["subscribers"]), float(info["p99_ms"])))
    rows = []
    for base, entries in sorted(groups.items()):
        entries.sort()
        reference = entries[0][1]
        for subscribers, p99 in entries:
            scaling = p99 / reference if reference else float("inf")
            rows.append((base, subscribers, p99, scaling))
    return rows


def columnar_speedups(stats: dict) -> list:
    """(base name, row min, columnar min, speedup) for every benchmark
    measured as a ``[row]`` / ``[columnar]`` parameter pair."""
    pairs = []
    for name, bench in stats.items():
        if not name.endswith("[columnar]"):
            continue
        row_name = name[: -len("[columnar]")] + "[row]"
        if row_name not in stats:
            continue
        row_min = stats[row_name]["min"]
        col_min = bench["min"]
        speedup = row_min / col_min if col_min else float("inf")
        pairs.append((name[: -len("[columnar]")], row_min, col_min, speedup))
    return sorted(pairs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("current", help="this run's --benchmark-json output")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="allowed fractional slowdown of the min time "
                             "before failing (default %(default)s)")
    args = parser.parse_args(argv)

    baseline = load_stats(args.baseline)
    current = load_stats(args.current)
    baseline_info = load_extra_info(args.baseline)
    current_info = load_extra_info(args.current)

    regressions = []
    compared = 0
    print(f"{'benchmark':<60}{'baseline':>12}{'current':>12}{'ratio':>8}")
    for name in sorted(set(baseline) | set(current)):
        if name not in baseline:
            print(f"{name:<60}{'(new)':>12}{current[name]['min']:>12.4f}")
            continue
        if name not in current:
            print(f"{name:<60}{baseline[name]['min']:>12.4f}{'(gone)':>12}")
            continue
        base_min = baseline[name]["min"]
        cur_min = current[name]["min"]
        base_cpus = baseline_info[name].get("cpus")
        cur_cpus = current_info[name].get("cpus")
        if None not in (base_cpus, cur_cpus) and base_cpus != cur_cpus:
            print(f"{name:<60}{base_min:>12.4f}{cur_min:>12.4f}"
                  f"  skipped (cpus {base_cpus}≠{cur_cpus})")
            continue
        compared += 1
        ratio = cur_min / base_min if base_min else float("inf")
        flag = ""
        if ratio > 1.0 + args.threshold:
            regressions.append((name, ratio))
            flag = "  REGRESSION"
        print(f"{name:<60}{base_min:>12.4f}{cur_min:>12.4f}{ratio:>7.2f}x{flag}")

    speedups = columnar_speedups(current)
    if speedups:
        print(f"\n{'columnar vs row':<60}{'row':>12}{'columnar':>12}"
              f"{'speedup':>8}")
        for name, row_min, col_min, speedup in speedups:
            print(f"{name:<60}{row_min:>12.4f}{col_min:>12.4f}"
                  f"{speedup:>7.2f}x")

    scalings = fanout_scalings(current_info)
    if scalings:
        print(f"\n{'serving fan-out':<60}{'subs':>12}{'p99 (ms)':>12}"
              f"{'scaling':>8}")
        for name, subscribers, p99, scaling in scalings:
            print(f"{name:<60}{subscribers:>12}{p99:>12.3f}"
                  f"{scaling:>7.2f}x")

    if regressions:
        print(f"\nFAIL: {len(regressions)} benchmark(s) slower than the "
              f"baseline by more than {args.threshold:.0%}:")
        for name, ratio in regressions:
            print(f"  {name}: {ratio:.2f}x")
        return 1
    print(f"\nOK: no benchmark regressed by more than {args.threshold:.0%} "
          f"({compared} compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
