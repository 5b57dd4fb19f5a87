"""Shared infrastructure for the paper-reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper's evaluation:
it builds the workload, runs it as a physical plan through the engine's
``run_plan`` to completion, measures loads/replication/work, prices
runtimes with the calibrated cost model's ``run_cost``, and records a
paper-vs-measured table.  Tables are printed in the
terminal summary and written to ``benchmarks/results/``.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List, Sequence, Tuple

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

_REPORT: List[str] = []


def format_table(title: str, headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> str:
    """Plain ASCII table, paper style."""
    rendered = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, "-" * len(title)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    for row in rendered:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def record_table(name: str, title: str, headers: Sequence[str],
                 rows: Sequence[Sequence[object]], notes: str = ""):
    """Record one reproduction table (terminal summary + results file)."""
    text = format_table(title, headers, rows)
    if notes:
        text += f"\n{notes}"
    _REPORT.append(text)
    _REPORT.append("")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as handle:
        handle.write(text + "\n")


def interleaved_best_of(runs: Dict[str, Callable[[], object]], rounds: int
                        ) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Best-of-``rounds`` wall seconds of every named run, plus each
    run's last return value.

    The runs take turns inside every round instead of each doing its
    rounds back to back, so a noisy stretch of the machine hits all of
    them alike rather than whichever happened to be running; the minimum
    is the statistic least moved by what else the box is doing.  One
    untimed call of each run comes first (imports, allocator, caches).
    """
    results = {name: run() for name, run in runs.items()}
    best = {name: float("inf") for name in runs}
    for _round in range(rounds):
        for name, run in runs.items():
            started = time.perf_counter()
            results[name] = run()
            best[name] = min(best[name], time.perf_counter() - started)
    return best, results


def timed_pedantic(benchmark, run, rounds: int, args: tuple = ()):
    """``benchmark.pedantic(run, args, rounds=rounds, iterations=1)``;
    returns the last result and the best round's wall seconds:
    pytest-benchmark's own minimum, or -- where ``--benchmark-disable``
    leaves it without stats -- the best of the calls that ran, timed
    here."""
    seconds: List[float] = []

    def timed(*call_args):
        started = time.perf_counter()
        result = run(*call_args)
        seconds.append(time.perf_counter() - started)
        return result

    result = benchmark.pedantic(timed, args=args, rounds=rounds, iterations=1)
    if benchmark.stats is not None:
        return result, benchmark.stats.stats.min
    return result, min(seconds)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORT:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("=" * 72)
    terminalreporter.write_line("PAPER REPRODUCTION RESULTS (also in benchmarks/results/)")
    terminalreporter.write_line("=" * 72)
    for line in _REPORT:
        terminalreporter.write_line(line)


# ---------------------------------------------------------------------------
# Shared workloads (session-scoped; building them once keeps benches fast)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def tpch9_workload():
    """Skewed TPC-H for the TPCH9-Partial experiments.

    Two configurations stand in for the paper's 10G/8J and 80G/100J:
    same relative relation sizes as dbgen, zipf skew factor 2 on
    lineitem.partkey, machine counts 8 and 100.
    """
    from repro.datasets import TPCHGenerator

    small = TPCHGenerator(scale=1.0, skew=2.0, seed=42).generate(
        ["lineitem", "partsupp", "part"]
    )
    # the 100-machine configuration needs distinct(suppkey) >> machines,
    # as in real 80G TPC-H (800k suppliers); the default micro-scale would
    # leave only 20 and trip the small-domain skew rule -- a pure
    # scale-down artifact
    large = TPCHGenerator(scale=2.0, skew=2.0, seed=43,
                          overrides={"supplier": 400}).generate(
        ["lineitem", "partsupp", "part"]
    )
    return {"10G": (small, 8), "80G": (large, 100)}


@pytest.fixture(scope="session")
def webanalytics_workload():
    """Post-selection WebAnalytics inputs with paper-proportional sizes.

    The paper's inputs after selections: W1 = 1.03M arcs into
    'blogspot.com', W2 = 3.9M arcs out of it, CrawlContent = 43M URLs --
    ratios ~ 1 : 3.8 : 42, reproduced at 150 : 570 : 6300.
    """
    import random

    from repro.core.schema import Relation
    from repro.datasets.crawlcontent import CRAWLCONTENT_SCHEMA
    from repro.datasets.webgraph import WEBGRAPH_SCHEMA, host_name

    rng = random.Random(7)
    hub = "blogspot.com"
    n_urls = 6300
    urls = [host_name(i, "pld") for i in range(n_urls)]
    w1 = Relation("W1", WEBGRAPH_SCHEMA,
                  [(urls[rng.randrange(n_urls)], hub) for _ in range(150)])
    w2 = Relation("W2", WEBGRAPH_SCHEMA,
                  [(hub, urls[rng.randrange(n_urls)]) for _ in range(570)])
    content = Relation("C", CRAWLCONTENT_SCHEMA,
                       [(url, round(rng.random(), 4)) for url in urls])
    return {"W1": w1, "W2": w2, "C": content, "hub": hub}


@pytest.fixture(scope="session")
def google_workload():
    from repro.datasets import GoogleClusterGenerator

    generator = GoogleClusterGenerator(
        n_machines=40, n_jobs=60, n_task_events=690, fail_fraction=0.15, seed=11
    )
    return generator.generate()


@pytest.fixture(scope="session")
def webgraph_sample():
    """0.5%-style sample of the 'Host' WebGraph for 3-reachability.

    Sized so that |W >< W| / |W| ~ 13, the paper's intermediate blow-up
    ratio (130M intermediate vs 10.2M input arcs)."""
    from repro.datasets import generate_webgraph

    return generate_webgraph(n_nodes=150, n_arcs=1800, seed=13, target_skew=0.4)


@pytest.fixture(scope="session")
def tpch9_results(tpch9_workload):
    """All Figure 7 / Table 1 / Table 2 runs for TPCH9-Partial.

    2 configurations x 3 hypercube schemes, DBToaster locally.  The 80G
    configuration gets a per-machine memory budget; under zipf-2 skew the
    Hash-Hypercube ends the run with a joiner task's state above it (the
    paper's 'Memory Overflow' bar).  Every run, that one included, is
    measured to completion; nothing is extrapolated.
    """
    from benchmarks.harness import run_hyld_experiment, tpch9_partial_spec

    results = {}
    for config_name, (tables, machines) in tpch9_workload.items():
        spec = tpch9_partial_spec(tables, machines)
        data = {name: tables[name].rows for name in ("lineitem", "partsupp", "part")}
        budget = 3000 if config_name == "80G" else None
        for scheme in ("hash", "random", "hybrid"):
            results[(config_name, scheme)] = run_hyld_experiment(
                spec, data, machines, scheme, memory_budget=budget, seed=5
            )
    return results


@pytest.fixture(scope="session")
def webanalytics_results(webanalytics_workload):
    """WebAnalytics (Figure 7 / Table 1) runs: 3 schemes, 40 machines."""
    from benchmarks.harness import profiled_relation_info, run_hyld_experiment
    from repro.core.predicates import EquiCondition, JoinSpec

    machines = 40
    w1 = profiled_relation_info(webanalytics_workload["W1"], "W1",
                                ["FromUrl", "ToUrl"], machines)
    w2 = profiled_relation_info(webanalytics_workload["W2"], "W2",
                                ["FromUrl"], machines)
    content = profiled_relation_info(webanalytics_workload["C"], "C",
                                     ["Url"], machines)
    spec = JoinSpec(
        [w1, w2, content],
        [
            EquiCondition(("W1", "ToUrl"), ("W2", "FromUrl")),
            EquiCondition(("W1", "FromUrl"), ("C", "Url")),
        ],
    )
    data = {
        "W1": webanalytics_workload["W1"].rows,
        "W2": webanalytics_workload["W2"].rows,
        "C": webanalytics_workload["C"].rows,
    }
    # WebAnalytics is CPU-intensive: 'each incoming tuple incurs
    # considerable computation' (section 7.3) -- URL strings instead of
    # integers.  Price local-join operations accordingly.
    import dataclasses

    from repro.costmodel import CostModel, DEFAULT_CONSTANTS

    constants = dataclasses.replace(
        DEFAULT_CONSTANTS,
        local_join_per_op={
            kind: 6.0 * cost
            for kind, cost in DEFAULT_CONSTANTS.local_join_per_op.items()
        },
    )
    model = CostModel(constants)
    results = {}
    for scheme in ("hash", "random", "hybrid"):
        results[scheme] = run_hyld_experiment(spec, data, machines, scheme,
                                              seed=6, model=model)
    return results
