"""Equivalence of the batched dataplane with the seed per-tuple engine.

``tests/golden/batching_equivalence.json`` was captured by running the
plans of :mod:`tests.batching_plans` through the seed engine (recursive
per-tuple ``LocalCluster._dispatch``).  These tests assert that:

- ``batch_size=1`` reproduces the seed engine **byte-identically**:
  result rows in the same order, and the same per-task emit/receive
  counters, edge transfer counts, reads, selection stats and join work.
- larger batch sizes preserve the result multiset (or, for online
  aggregation, the final per-group values) and every per-component total.
"""

import json
import os
from collections import Counter

import pytest

from repro.core.options import ExecutionOptions
from repro.engine import run_plan
from tests.batching_plans import GOLDEN_PLANS, run_result_fingerprint

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "batching_equivalence.json")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(GOLDEN_PLANS))
def test_batch_size_one_is_byte_identical_to_seed_engine(name, golden):
    result = run_plan(GOLDEN_PLANS[name](),
                      options=ExecutionOptions(batch_size=1))
    assert run_result_fingerprint(result) == golden[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_PLANS))
def test_default_batch_size_is_one(name, golden):
    result = run_plan(GOLDEN_PLANS[name]())
    assert run_result_fingerprint(result) == golden[name]


@pytest.mark.parametrize("name", sorted(set(GOLDEN_PLANS) - {"online_agg"}))
@pytest.mark.parametrize("batch_size", [2, 7, 64, 1024])
def test_batched_execution_preserves_result_multiset(name, batch_size, golden):
    result = run_plan(GOLDEN_PLANS[name](),
                      options=ExecutionOptions(batch_size=batch_size))
    expected = Counter(tuple(row) for row in golden[name]["results"])
    assert Counter(result.results) == expected


@pytest.mark.parametrize("batch_size", [2, 64, 1024])
def test_batched_online_aggregation_reaches_same_final_values(batch_size, golden):
    result = run_plan(GOLDEN_PLANS["online_agg"](),
                      options=ExecutionOptions(batch_size=batch_size))
    finals = {}
    for key, value in result.results:
        finals[key] = value
    expected = {}
    for key, value in (tuple(row) for row in golden["online_agg"]["results"]):
        expected[key] = value
    assert finals == expected


@pytest.mark.parametrize("name", sorted(set(GOLDEN_PLANS) - {"online_agg"}))
@pytest.mark.parametrize("batch_size", [7, 64])
def test_batched_execution_preserves_component_totals(name, batch_size, golden):
    """Per-component received/emitted totals, edge transfers, reads and
    selection statistics are batch-size invariant (only the per-task split
    of content-insensitive routing may shift with the interleaving)."""
    result = run_plan(GOLDEN_PLANS[name](),
                      options=ExecutionOptions(batch_size=batch_size))
    expected = golden[name]
    assert {k: sum(v) for k, v in result.metrics.received.items()} == \
           {k: sum(v) for k, v in expected["received"].items()}
    assert {k: sum(v) for k, v in result.metrics.emitted.items()} == \
           {k: sum(v) for k, v in expected["emitted"].items()}
    transfers = {f"{s}->{d}": n
                 for (s, d), n in result.metrics.edge_transfers.items()}
    assert transfers == expected["edge_transfers"]
    assert result.reads == expected["reads"]
    assert {k: list(v) for k, v in result.selections.items()} == \
           expected["selections"]


@pytest.mark.parametrize("name,joiner", [("selection_traditional", "J"),
                                         ("two_joins", "J1"),
                                         ("two_joins", "J2")])
def test_hash_routing_is_batch_size_invariant(name, joiner, golden):
    """Hash-hypercube routing depends only on tuple content (no stateful
    random dimensions), so even the *per-task* received counts of the
    joiner match at any batch size."""
    result = run_plan(GOLDEN_PLANS[name](),
                      options=ExecutionOptions(batch_size=64))
    assert result.metrics.received[joiner] == golden[name]["received"][joiner]


def test_run_result_exposes_topology_field():
    result = run_plan(GOLDEN_PLANS["join_only"]())
    assert result.topology is not None
    assert result.replication_factor("J") >= 1.0
    # a RunResult without a topology refuses the lookup instead of crashing
    import dataclasses
    bare = dataclasses.replace(result, topology=None)
    with pytest.raises(ValueError, match="topology"):
        bare.replication_factor("J")
