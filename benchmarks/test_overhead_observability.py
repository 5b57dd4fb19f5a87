"""Observability must be (nearly) free.

Runs the CPU-bound multi-way join workload at every ``observe`` level
and gates the overhead against the unobserved run: ``metrics`` (per
batch: two ``perf_counter`` reads, one histogram bucket increment, one
counter add) must stay within 5%, ``trace`` (plus one span dict per
operator hop) within 12% -- the largest measured overheads below,
plus a 1% jitter allowance.

Two measurement styles, on purpose:

- the per-level ``benchmark`` entries feed the CI bench JSON (and the
  committed ``BENCH_baseline.json``) so absolute regressions are
  caught by ``check_regression.py``;
- the *gate* interleaves the levels round-robin in a single test and
  compares best-of minima, so shared-runner load drift hits every
  level equally instead of biasing whichever level ran during a noisy
  window.  The gate run is long (50-80 ms at ``off``) and its jitter
  allowance is relative -- 1% of the ``off`` time -- so a 5% gate
  cannot admit more than 6%.  The gates sit at the measured maxima, so
  a level over its gate is measured again (up to ``ATTEMPTS`` times)
  before the test fails: one noisy neighbour must not fail it, a real
  overhead fails every sample.

Measured on a 2-vCPU Linux container (interleaved best of 10, 6,000
rows/relation, 43-47 ms at ``off``, twenty runs): ``metrics``
0.99-1.05x, ``trace`` 1.04-1.11x.

The off-level run also re-asserts the invisibility contract: no
observer object exists, and the result multiset is identical at every
level.
"""

import pytest

from repro.core.options import ExecutionOptions
from repro.engine import run_plan

from benchmarks.conftest import interleaved_best_of, record_table
from benchmarks.harness import multiway_join_plan

N_ROWS = 2000
#: the gate's run: long enough that timer and scheduler jitter is a
#: small share of it
GATE_N_ROWS = 6000
MACHINES = 8
BATCH_SIZE = 256
ROUNDS = 3
GATE_ROUNDS = 10

LEVELS = ("off", "metrics", "trace")
#: allowed slowdown vs observe='off', per level
GATES = {"metrics": 1.05, "trace": 1.12}
#: jitter allowance on top of the gate, as a share of the off time
JITTER = 0.01
#: measurements a level may take to get within its gate
ATTEMPTS = 3


def observed_run(plan, level):
    result = run_plan(plan, options=ExecutionOptions(
        batch_size=BATCH_SIZE, observe=level))
    return result


@pytest.mark.parametrize("level", LEVELS)
def test_overhead_observability(benchmark, level):
    plan = multiway_join_plan(n_rows=N_ROWS, machines=MACHINES)
    outputs = []
    observers = []

    def run():
        result = observed_run(plan, level)
        outputs.append(sorted(result.results))
        observers.append(result.observer)
        return result

    benchmark.extra_info["observe"] = level
    benchmark.pedantic(run, rounds=ROUNDS, iterations=1, warmup_rounds=1)
    assert all(rows == outputs[0] for rows in outputs[1:])
    if level == "off":
        assert observers[-1] is None  # off means: no observer at all
    else:
        hist = observers[-1].registry.merged_histogram(
            "operator_batch_seconds")
        assert hist.count > 0
    if level == "trace":
        assert len(observers[-1].traces) > 0


def over_gates(best):
    return [level for level, gate in GATES.items()
            if best[level] > best["off"] * (gate + JITTER)]


def test_observability_overhead_within_gates():
    plan = multiway_join_plan(n_rows=GATE_N_ROWS, machines=MACHINES)
    for _attempt in range(ATTEMPTS):
        best, last = interleaved_best_of(
            {level: (lambda level=level: observed_run(plan, level))
             for level in LEVELS}, GATE_ROUNDS)
        if not over_gates(best):
            break
    results = {level: sorted(result.results)
               for level, result in last.items()}

    rows = []
    for level in LEVELS:
        assert results[level] == results["off"]  # observing never
        rows.append([                            # changes the answer
            level,
            f"{best[level] * 1000:.1f}",
            f"{best[level] / best['off']:.3f}x",
            f"<= {GATES[level]:.2f}x" if level in GATES else "baseline",
        ])
    record_table(
        "overhead_observability",
        f"Observability overhead, R-S-T chain join + aggregation "
        f"({GATE_N_ROWS} rows/relation, {MACHINES} joiners, batch "
        f"{BATCH_SIZE}, interleaved best of {GATE_ROUNDS})",
        ["observe", "runtime (ms)", "vs off", "gate"],
        rows,
        notes=f"off builds no observer object; identical results at "
              f"every level; gate allowance +{JITTER:.0%} of off.  "
              f"Measured (2 vCPU, twenty runs): metrics 0.99-1.05x, "
              f"trace 1.04-1.11x.",
    )

    for level in over_gates(best):
        gate = GATES[level]
        raise AssertionError(
            f"observe='{level}' overhead "
            f"{best[level] / best['off'] - 1.0:+.1%} exceeds the "
            f"{gate - 1.0:.0%} gate ({best[level] * 1000:.1f} ms vs "
            f"{best['off'] * 1000:.1f} ms off) in {ATTEMPTS} measurements"
        )
