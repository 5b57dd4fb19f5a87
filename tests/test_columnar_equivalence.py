"""Columnar path equivalence: same answers as the row engine, everywhere.

The columnar kernels are an execution detail, not a semantics change:
for every golden plan, ``columnar=True`` must produce the identical
result multiset as ``columnar=False`` at the same batch size, on every
backend (the processes run also exercises ColumnBatch over the pickle
pipes).  The default knob (`columnar=None`) resolves from the batch
size -- ``batch_size=1`` always stays on the golden-pinned row path --
and the opt-in streaming columnar mode must converge to the same
snapshot as the batch engine.
"""

from collections import Counter

import pytest

from repro.core.options import ExecutionOptions
from repro.engine import run_plan
from repro.streaming import stream_plan

from tests.batching_plans import GOLDEN_PLANS, run_result_fingerprint

BATCH = 64

PLAN_NAMES = sorted(GOLDEN_PLANS)


def _run(name, **knobs):
    return run_plan(GOLDEN_PLANS[name](), options=ExecutionOptions(**knobs))


def _multiset(result):
    return Counter(result.results)


@pytest.mark.parametrize("name", PLAN_NAMES)
@pytest.mark.parametrize("executor", ["inline"])
def test_columnar_matches_row(name, executor):
    row = _run(name, batch_size=BATCH, executor=executor, columnar=False)
    col = _run(name, batch_size=BATCH, executor=executor, columnar=True)
    assert_same_run(row, col)


@pytest.mark.parametrize("name", PLAN_NAMES)
def test_columnar_matches_row_in_small_batches(name):
    """An explicit opt-in below ``COLUMNAR_MIN_BATCH``: many short column
    batches, and still the row path's answer and edge traffic."""
    row = _run(name, batch_size=8, columnar=False)
    col = _run(name, batch_size=8, columnar=True)
    assert_same_run(row, col)


def assert_same_run(row, col):
    assert _multiset(col) == _multiset(row)
    assert _multiset(row)  # not vacuous
    assert row.metrics.columnar_rows == 0
    assert col.metrics.columnar_rows > 0
    # same data crossed every edge, whatever representation carried it
    assert col.metrics.edge_transfers == row.metrics.edge_transfers
    assert dict(col.reads) == dict(row.reads)


@pytest.mark.parametrize("name", ["join_only", "snapshot_agg"])
def test_columnar_matches_row_processes(name):
    """ColumnBatches survive the worker pickle pipes intact."""
    row = _run(name, batch_size=BATCH, executor="processes", parallelism=2,
               columnar=False)
    col = _run(name, batch_size=BATCH, executor="processes", parallelism=2,
               columnar=True)
    assert _multiset(col) == _multiset(row)
    assert _multiset(row)
    assert col.metrics.columnar_rows > 0


class TestKnobResolution:
    """`columnar=None` (the default) engages only at batch_size >= 64."""

    def test_batch_one_default_stays_row_path(self):
        default = _run("snapshot_agg", batch_size=1)
        assert default.metrics.columnar_rows == 0
        # ... and is byte-identical to the explicit row path (the golden
        # captures under tests/golden/ pin this very execution)
        explicit = _run("snapshot_agg", batch_size=1, columnar=False)
        assert run_result_fingerprint(default) == \
            run_result_fingerprint(explicit)

    def test_below_threshold_default_stays_row_path(self):
        result = _run("join_only", batch_size=32)
        assert result.metrics.columnar_rows == 0

    def test_at_threshold_default_engages(self):
        result = _run("join_only", batch_size=64)
        assert result.metrics.columnar_rows > 0

    def test_explicit_opt_in_overrides_small_batch(self):
        result = _run("join_only", batch_size=8, columnar=True)
        assert result.metrics.columnar_rows > 0

    def test_explicit_opt_out_overrides_large_batch(self):
        result = _run("join_only", batch_size=128, columnar=False)
        assert result.metrics.columnar_rows == 0


@pytest.mark.parametrize("executor", ["inline"])
@pytest.mark.parametrize("name", ["two_joins", "snapshot_agg"])
def test_streaming_columnar_snapshot_matches_batch(name, executor):
    """Opt-in columnar replay converges to the batch engine's answer."""
    plan = GOLDEN_PLANS[name]()
    query = stream_plan(plan,
                        options=ExecutionOptions(batch_size=BATCH,
                                                 executor=executor,
                                                 columnar=True)).run()
    expected = sorted(run_plan(GOLDEN_PLANS[name]()).results)
    assert query.snapshot() == expected
    assert expected  # not vacuous
