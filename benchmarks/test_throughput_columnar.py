"""Columnar vs row execution path on the multi-way join workload.

Runs the same CPU-bound R-S-T chain join as
``test_throughput_parallel.py`` through the inline backend twice -- once
with the columnar path forced off (the seed engine's row kernels) and
once forced on -- and asserts that (a) both paths produce the identical
result multiset and (b) the columnar kernels actually pay off.

Both timings are recorded through the ``benchmark`` fixture so the CI
bench job's ``--benchmark-json`` output contains them; the gating script
(``benchmarks/check_regression.py``) then also prints a columnar-vs-row
speedup table from the ``[columnar]``/``[row]`` pairs.
"""

from collections import Counter

import pytest

from repro.core.options import ExecutionOptions
from repro.engine import run_plan

from benchmarks.conftest import record_table, timed_pedantic
from benchmarks.harness import multiway_join_plan

N_ROWS = 4000
MACHINES = 8
BATCH_SIZE = 512
ROUNDS = 3

#: the in-run acceptance bound: conservative against CI jitter -- the
#: typical measured ratio is ~4x (see benchmarks/results/)
REQUIRED_SPEEDUP = 2.0

#: path label -> (min seconds, result multiset, path metrics), filled by
#: the benchmarks below, consumed by the assertions (pytest runs in order)
_MEASURED = {}

PATHS = [
    ("row", False),
    ("columnar", True),
]


@pytest.mark.parametrize("label,columnar", PATHS, ids=[l for l, _c in PATHS])
def test_throughput_columnar_inline(benchmark, label, columnar):
    plan = multiway_join_plan(n_rows=N_ROWS, machines=MACHINES)
    outputs = []
    metrics = []

    def run():
        result = run_plan(plan,
                          options=ExecutionOptions(batch_size=BATCH_SIZE,
                                                   executor="inline",
                                                   columnar=columnar))
        outputs.append(Counter(result.results))
        metrics.append(result.metrics)
        return result

    benchmark.extra_info["columnar"] = columnar
    _result, seconds = timed_pedantic(benchmark, run, ROUNDS)
    assert len(set(map(frozenset, (c.items() for c in outputs)))) == 1
    last = metrics[-1]
    if columnar:
        # the toggle must actually engage: the joiner+agg deliveries ride
        # ColumnBatches (the tiny row remainder is the sink's final rows)
        assert last.columnar_rows > last.row_rows
    else:
        assert last.columnar_rows == 0
    _MEASURED[label] = (seconds, outputs[0], last)


def _require_measurements():
    missing = {name for name, _c in PATHS} - set(_MEASURED)
    if missing:
        pytest.skip(f"needs the path benchmarks in this module to have run "
                    f"first (missing: {sorted(missing)})")


def test_columnar_and_row_results_identical():
    _require_measurements()
    assert _MEASURED["columnar"][1] == _MEASURED["row"][1]
    assert _MEASURED["row"][1]  # not vacuous


def test_columnar_path_is_faster():
    _require_measurements()
    row_seconds, _results, _m = _MEASURED["row"]
    col_seconds, _results, col_metrics = _MEASURED["columnar"]
    speedup = row_seconds / col_seconds
    total = col_metrics.columnar_rows + col_metrics.row_rows
    rows = [
        [label, f"{seconds * 1000:.1f}",
         f"{3 * N_ROWS / seconds:,.0f}",
         f"{row_seconds / seconds:.2f}x",
         f"{100.0 * m.columnar_rows / max(1, m.columnar_rows + m.row_rows):.0f}%"]
        for label, (seconds, _r, m) in _MEASURED.items()
    ]
    record_table(
        "throughput_columnar",
        f"Columnar vs row execution path, R-S-T chain join + aggregation "
        f"({N_ROWS} rows/relation, {MACHINES} joiners, batch {BATCH_SIZE}, "
        f"best of {ROUNDS})",
        ["path", "runtime (ms)", "rows/sec", "speedup", "columnar rows"],
        rows,
        notes=f"identical result multisets; {total} bolt-delivered rows. "
              f"batch_size=1 always takes the row path (golden-pinned).",
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"columnar path speedup {speedup:.2f}x < {REQUIRED_SPEEDUP}x "
        f"(row {row_seconds:.3f}s, columnar {col_seconds:.3f}s)"
    )
