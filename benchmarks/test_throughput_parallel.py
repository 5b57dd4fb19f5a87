"""Throughput of the parallel execution backends vs the inline loop.

Runs the CPU-bound multi-way join workload of
``benchmarks.harness.multiway_join_plan`` (the R-S-T chain join whose
compute sits in 8 hypercube-partitioned joiner tasks) through both backends at parallelism 4 and micro-batch size 512.

The per-backend timings are recorded through the ``benchmark`` fixture so
the CI bench job's ``--benchmark-json`` output contains them; the gating
script (``benchmarks/check_regression.py``) compares those stats against
the committed ``BENCH_baseline.json``.

The headline assertion -- the shared-nothing process backend beats the
single-threaded inline loop -- is made on its own measurement: a sweep
over rows/relation x parallelism, every size timed with the backends
taking turns (interleaved best-of-N), published as a table with the
crossover (the size from which ``processes`` wins).  The bound is held at
``ASSERT_ROWS``, the smallest swept size above the crossover committed in
README "Execution backends", with ``parallelism = min(4, cores)``:
>= 1.5x at four cores or more, >= 1.1x on two or three, skipped on one
(forked workers cannot beat one thread on one core).
"""

from collections import Counter

import pytest

from repro.core.options import ExecutionOptions
from repro.engine import run_plan
from repro.util import usable_cores

from benchmarks.conftest import interleaved_best_of, record_table
from benchmarks.harness import multiway_join_plan

N_ROWS = 4000
MACHINES = 8
BATCH_SIZE = 512
PARALLELISM = 4
ROUNDS = 3

#: the scaling sweep behind the headline assertion
SWEEP_ROWS = (4000, 8000, 16000, 32000)
SWEEP_PARALLELISM = (2, 4)
#: interleaved rounds per size (the asserted size gets as many as the
#: smallest: its ratio is the one a noisy neighbour must not decide)
SWEEP_ROUNDS = {4000: 5, 8000: 4, 16000: 3, 32000: 5}
#: where the bound is held: the smallest swept size above the crossover
#: (on 2 cores ``processes`` ties the coalesced inline rounds at about
#: 16 000 rows/relation and wins from there on)
ASSERT_ROWS = 32000

#: executor -> (min seconds, result multiset), filled by the benchmarks
#: below and consumed by the assertion tests (pytest runs files in order)
_MEASURED = {}

BACKENDS = [
    ("inline", None),
    ("processes", PARALLELISM),
]


@pytest.mark.parametrize("executor,parallelism", BACKENDS,
                         ids=[name for name, _p in BACKENDS])
def test_throughput_multiway_join(benchmark, executor, parallelism):
    plan = multiway_join_plan(n_rows=N_ROWS, machines=MACHINES)
    outputs = []

    def run():
        result = run_plan(plan,
                          options=ExecutionOptions(batch_size=BATCH_SIZE,
                                                   executor=executor,
                                                   parallelism=parallelism))
        outputs.append(Counter(result.results))
        return result

    benchmark.extra_info["executor"] = executor
    benchmark.extra_info["parallelism"] = parallelism or 1
    benchmark.extra_info["cpus"] = usable_cores()
    benchmark.pedantic(run, rounds=ROUNDS, iterations=1)
    assert len(set(map(frozenset, (c.items() for c in outputs)))) == 1
    _MEASURED[executor] = (benchmark.stats.stats.min, outputs[0])


def _require_measurements():
    missing = {name for name, _p in BACKENDS} - set(_MEASURED)
    if missing:
        pytest.skip(f"needs the backend benchmarks in this module to have "
                    f"run first (missing: {sorted(missing)})")


def test_all_backends_produce_identical_results():
    _require_measurements()
    multisets = [results for _seconds, results in _MEASURED.values()]
    assert all(m == multisets[0] for m in multisets[1:])
    assert multisets[0]  # not vacuous


def test_process_backend_beats_inline_on_multiple_cores():
    cpus = usable_cores()
    #: the parallelism a machine of this size is asserted at
    workers = max(2, min(4, cpus))
    asserted = f"processes x{workers}"
    backends = {f"processes x{parallelism}": ("processes", parallelism)
                for parallelism in sorted({*SWEEP_PARALLELISM, workers})}
    rows = []
    speedups = {}
    for n_rows in SWEEP_ROWS:
        plan = multiway_join_plan(n_rows=n_rows, machines=MACHINES)

        def run(executor="inline", parallelism=None, plan=plan):
            return run_plan(plan,
                            options=ExecutionOptions(batch_size=BATCH_SIZE,
                                                     executor=executor,
                                                     parallelism=parallelism))

        runs = {"inline": run}
        for label, (executor, parallelism) in backends.items():
            runs[label] = (lambda run=run, executor=executor,
                           parallelism=parallelism: run(executor, parallelism))
        best, last = interleaved_best_of(runs, SWEEP_ROUNDS[n_rows])
        expected = Counter(last["inline"].results)
        assert expected
        row = [f"{n_rows:,}", f"{best['inline'] * 1000:.0f}"]
        for label in backends:
            assert Counter(last[label].results) == expected
            speedups[(n_rows, label)] = best["inline"] / best[label]
            row += [f"{best[label] * 1000:.0f}",
                    f"{speedups[(n_rows, label)]:.2f}x"]
        rows.append(row)

    # the crossover: the swept size from which on ``processes`` (at the
    # asserted parallelism) never loses
    winning = [n_rows for n_rows in SWEEP_ROWS
               if all(speedups[(larger, asserted)] >= 1.0
                      for larger in SWEEP_ROWS if larger >= n_rows)]
    if not winning:
        crossover = f"above {SWEEP_ROWS[-1]:,} rows/relation (none swept)"
    elif winning[0] == SWEEP_ROWS[0]:
        crossover = f"below {SWEEP_ROWS[0]:,} rows/relation"
    else:
        below = SWEEP_ROWS[SWEEP_ROWS.index(winning[0]) - 1]
        crossover = f"between {below:,} and {winning[0]:,} rows/relation"
    headers = ["rows/relation", "inline (ms)"]
    for label in backends:
        headers += [f"{label} (ms)", "speedup"]
    record_table(
        "throughput_parallel",
        f"processes vs inline, R-S-T chain join + aggregation "
        f"({MACHINES} joiners, batch {BATCH_SIZE}, {cpus} cores, "
        f"interleaved best of {min(SWEEP_ROUNDS.values())}-"
        f"{max(SWEEP_ROUNDS.values())})",
        headers,
        rows,
        notes=f"crossover of {asserted}: {crossover}; all "
              f"runs produce the identical result multiset; the bound is "
              f"asserted at {ASSERT_ROWS:,} rows/relation.",
    )

    if cpus < 2:
        pytest.skip("single core: forked workers cannot beat one thread")
    # the acceptance bound at >= 4 cores; proportionally weaker below
    required = 1.5 if cpus >= 4 else 1.1
    speedup = speedups[(ASSERT_ROWS, asserted)]
    assert speedup >= required, (
        f"{asserted} speedup {speedup:.2f}x < {required}x over "
        f"inline at {ASSERT_ROWS:,} rows/relation on {cpus} cores "
        f"(crossover: {crossover})"
    )
