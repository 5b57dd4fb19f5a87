"""Backend equivalence: inline vs processes.

Every backend must produce the identical result multiset and identical
per-component tuple totals on the golden batching plans (pinned against
``tests/golden/batching_equivalence.json``, the seed per-tuple engine's
output) and on the retraction topologies of :mod:`tests.test_retractions`.
Only the tuple interleaving may differ between backends -- the same
contract ``batch_size`` has inside the inline loop.
"""

import json
import os
from collections import Counter

import pytest

from repro.core.options import ExecutionOptions
from repro.engine import run_plan
from repro.storm import LocalCluster
from tests.batching_plans import GOLDEN_PLANS
from tests.conftest import interleaved_stream, make_rst_data
from tests.test_retractions import (
    LOCAL_JOINS,
    build_rst_topology,
    faulty_script,
    rst_spec,
)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "batching_equivalence.json")

BACKENDS = ["inline", "processes"]
PARALLEL = ["processes"]


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def run_backend(name, executor, batch_size=16):
    return run_plan(GOLDEN_PLANS[name](), options=ExecutionOptions(
        batch_size=batch_size, executor=executor,
        parallelism=None if executor == "inline" else 4))


@pytest.mark.parametrize("executor", BACKENDS)
@pytest.mark.parametrize("name", sorted(set(GOLDEN_PLANS) - {"online_agg"}))
def test_backends_preserve_result_multiset(name, executor, golden):
    result = run_backend(name, executor)
    expected = Counter(tuple(row) for row in golden[name]["results"])
    assert Counter(result.results) == expected


@pytest.mark.parametrize("executor", BACKENDS)
def test_backends_reach_same_online_aggregation_finals(executor, golden):
    """Online aggregation emits running updates whose order depends on
    the interleaving; the final per-group values must agree."""
    result = run_backend("online_agg", executor)
    finals = {}
    for key, value in result.results:
        finals[key] = value
    expected = {}
    for key, value in (tuple(row) for row in golden["online_agg"]["results"]):
        expected[key] = value
    assert finals == expected


@pytest.mark.parametrize("executor", PARALLEL)
@pytest.mark.parametrize("name", sorted(GOLDEN_PLANS))
def test_backends_preserve_component_totals(name, executor, golden):
    """Per-component received/emitted totals, edge transfers, reads and
    selection stats are backend-invariant (only the per-task split of
    content-insensitive routing may move with worker interleaving)."""
    result = run_backend(name, executor)
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


@pytest.mark.parametrize("executor", PARALLEL)
@pytest.mark.parametrize("name,joiner", [("selection_traditional", "J"),
                                         ("two_joins", "J1"),
                                         ("two_joins", "J2")])
def test_hash_routing_per_task_loads_are_backend_invariant(name, joiner,
                                                           executor, golden):
    """Hash-hypercube routing is a pure function of tuple content, so even
    the per-task received counts match across backends."""
    result = run_backend(name, executor)
    assert result.metrics.received[joiner] == golden[name]["received"][joiner]


@pytest.mark.parametrize("executor", PARALLEL)
def test_join_state_totals_match_inline(executor):
    """The joiner's state lives inside the owning worker; after the run
    the shipped-back tasks must carry the same total state and work."""
    inline = run_backend("join_only", "inline")
    parallel = run_backend("join_only", executor)
    assert sum(parallel.join_state["J"]) == sum(inline.join_state["J"])
    assert sorted(parallel.join_state["J"]) == sorted(inline.join_state["J"])
    # join *work* is an order-dependent cost counter (probes see whatever
    # state arrived first), so totals differ with the interleaving -- it
    # must still be positive and per-task, proving state lived in workers
    assert len(parallel.join_work["J"]) == len(inline.join_work["J"])
    assert all(work > 0 for work in parallel.join_work["J"])


# ---------------------------------------------------------------------------
# Retraction plans: compensation must stay exact under every backend
# ---------------------------------------------------------------------------


def run_retraction_topology(script, local_join, executor, aggregate,
                            batch_size=8):
    spec = rst_spec()
    topology, _results = build_rst_topology(spec, script, local_join,
                                            aggregate=aggregate)
    cluster = LocalCluster(topology)
    kwargs = {} if executor == "inline" else {"parallelism": 3}
    cluster.run(batch_size=batch_size, executor=executor, **kwargs)
    # read the post-run sink store from the cluster (the closure-captured
    # list is never mutated in the parent under the processes backend)
    return list(cluster.task("sink", 0).store)


@pytest.mark.parametrize("executor", BACKENDS)
@pytest.mark.parametrize("local_join", sorted(LOCAL_JOINS))
@pytest.mark.parametrize("aggregate", [False, True])
def test_compensated_failure_matches_clean_run(executor, local_join,
                                               aggregate):
    data = make_rst_data(seed=33, n=24)
    clean = run_retraction_topology(
        list(interleaved_stream(data, seed=33)), local_join, executor,
        aggregate)
    faulty = run_retraction_topology(
        faulty_script(data, seed=33), local_join, executor, aggregate)
    assert Counter(faulty) == Counter(clean)
    assert clean  # the comparison is not vacuous


@pytest.mark.parametrize("executor", PARALLEL)
@pytest.mark.parametrize("aggregate", [False, True])
def test_retraction_results_match_inline_across_backends(executor, aggregate):
    data = make_rst_data(seed=47, n=24)
    script = faulty_script(data, seed=47)
    inline = run_retraction_topology(script, "dbtoaster", "inline", aggregate)
    parallel = run_retraction_topology(script, "dbtoaster", executor, aggregate)
    assert Counter(parallel) == Counter(inline)
    assert inline
