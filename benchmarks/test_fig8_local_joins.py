"""Figure 8: DBToaster vs traditional local joins inside multi-way joins.

Paper (section 7.4): with the same hypercube scheme, swapping the local
join from traditional index-based to DBToaster brings ~10x on the TPC-H
queries (8a: TPCH9-Partial 10G/8J, 8b: Q3 10G/8J, zipf 2) and 3-4x on
Google TaskCount (8c, 8J).  The traditional runs on TPC-H 'cannot finish'
and are extrapolated; we run every configuration through the engine's
``run_plan`` to completion at our scale and report the ratios of
``run_cost`` over the measured loads and local-join work.
"""


from benchmarks.conftest import record_table
from benchmarks.harness import (
    fmt,
    profiled_relation_info,
    run_hyld_experiment,
    tpch9_partial_spec,
)

from repro.core.predicates import EquiCondition, JoinSpec
from repro.datasets import TPCHGenerator


def _compare_local_joins(spec, data, machines, schemes, seed=0):
    results = {}
    for scheme in schemes:
        for local_join in ("dbtoaster", "traditional"):
            results[(scheme, local_join)] = run_hyld_experiment(
                spec, data, machines, scheme, local_join=local_join, seed=seed
            )
    return results


def _record(results, name, title, schemes, paper_ratio):
    rows = []
    ratios = []
    for scheme in schemes:
        toaster = results[(scheme, "dbtoaster")]
        traditional = results[(scheme, "traditional")]
        ratio = traditional.runtime / toaster.runtime
        ratios.append(ratio)
        rows.append([scheme, fmt(toaster.runtime), fmt(traditional.runtime),
                     f"{ratio:.1f}x"])
    record_table(
        name, title,
        ["scheme", "DBToaster", "traditional", "speedup"],
        rows,
        notes=f"Paper: DBToaster wins by {paper_ratio} with any scheme.",
    )
    return ratios


def test_fig8a_tpch9_partial(tpch9_workload, benchmark):
    tables, machines = tpch9_workload["10G"]
    spec = tpch9_partial_spec(tables, machines)
    data = {name: tables[name].rows for name in ("lineitem", "partsupp", "part")}
    results = benchmark.pedantic(
        lambda: _compare_local_joins(spec, data, machines,
                                     ("hash", "random", "hybrid"), seed=8),
        rounds=1, iterations=1,
    )
    # identical results regardless of the local join
    for scheme in ("hash", "random", "hybrid"):
        assert (results[(scheme, "dbtoaster")].run.query_output
                == results[(scheme, "traditional")].run.query_output)
    ratios = _record(
        results, "fig8a_tpch9",
        "Figure 8a: TPCH9-Partial 10G/8J -- local join comparison",
        ("hash", "random", "hybrid"), "~10x (extrapolated)",
    )
    assert all(r > 2.0 for r in ratios), \
        "DBToaster must clearly beat traditional joins on every scheme"


def test_fig8b_tpch_q3(benchmark):
    """TPC-H Q3: customer >< orders >< lineitem (chain join, zipf skew)."""
    tables = TPCHGenerator(scale=1.0, skew=2.0, seed=31).generate(
        ["customer", "orders", "lineitem"]
    )
    machines = 8
    customer = profiled_relation_info(tables["customer"], "customer",
                                      ["custkey"], machines)
    orders = profiled_relation_info(tables["orders"], "orders",
                                    ["custkey", "orderkey"], machines)
    lineitem = profiled_relation_info(tables["lineitem"], "lineitem",
                                      ["orderkey"], machines)
    spec = JoinSpec(
        [customer, orders, lineitem],
        [EquiCondition(("customer", "custkey"), ("orders", "custkey")),
         EquiCondition(("orders", "orderkey"), ("lineitem", "orderkey"))],
    )
    data = {name: tables[name].rows for name in ("customer", "orders", "lineitem")}
    results = benchmark.pedantic(
        lambda: _compare_local_joins(spec, data, machines, ("hybrid",), seed=9),
        rounds=1, iterations=1,
    )
    assert (results[("hybrid", "dbtoaster")].run.query_output
            == results[("hybrid", "traditional")].run.query_output)
    ratios = _record(
        results, "fig8b_q3",
        "Figure 8b: TPC-H Q3 10G/8J -- local join comparison",
        ("hybrid",), "~10x (extrapolated)",
    )
    assert ratios[0] > 2.0


def test_fig8c_google_taskcount(google_workload, benchmark):
    """Google TaskCount: failed tasks per (machine, platform), 8J.

    Paper: DBToaster wins 3-4x; the schemes barely differ because
    Machine+Job events are only 14.5% of Task events."""
    machines = 8
    task_events = [row for row in google_workload["task_events"].rows
                   if row[3] == "FAIL"]  # pushed-down selection
    from repro.core.schema import Relation
    tasks = Relation("task_events", google_workload["task_events"].schema,
                     task_events)
    job = profiled_relation_info(google_workload["job_events"], "job_events",
                                 ["jobID"], machines)
    machine = profiled_relation_info(google_workload["machine_events"],
                                     "machine_events", ["machineID"], machines)
    task = profiled_relation_info(tasks, "task_events",
                                  ["jobID", "machineID"], machines)
    spec = JoinSpec(
        [job, task, machine],
        [EquiCondition(("job_events", "jobID"), ("task_events", "jobID")),
         EquiCondition(("machine_events", "machineID"),
                       ("task_events", "machineID"))],
    )
    data = {
        "job_events": google_workload["job_events"].rows,
        "task_events": tasks.rows,
        "machine_events": google_workload["machine_events"].rows,
    }
    results = benchmark.pedantic(
        lambda: _compare_local_joins(spec, data, machines,
                                     ("hash", "random", "hybrid"), seed=10),
        rounds=1, iterations=1,
    )
    ratios = _record(
        results, "fig8c_taskcount",
        "Figure 8c: Google TaskCount 8J -- local join comparison",
        ("hash", "random", "hybrid"), "3-4x",
    )
    assert all(r > 1.5 for r in ratios)

    # paper: schemes barely differ here (small relations are only ~14.5%
    # of task events) -- max/min runtime across schemes within ~2x
    toaster_runtimes = [results[(s, "dbtoaster")].runtime
                        for s in ("hash", "random", "hybrid")]
    assert max(toaster_runtimes) / min(toaster_runtimes) < 2.5
