"""Table 1: maximum and average load per machine per hypercube scheme.

Paper values (millions of tuples): TPCH9-Partial 10G -- Hash 38.5/8.5,
Random 15.6/15.6, Hybrid 22.8/8.6; 80G -- Hash N/A (out of memory),
Random 35/35, Hybrid 78.9/6.3; WebAnalytics -- Hash 2.26/2.18,
Hybrid 2.07/2.0, Random N/A.  The shapes to hold: Random's max equals its
average (perfect balance, high average); Hash's max far exceeds its
average under skew; Hybrid's average is the lowest of the skew-resilient
schemes.
"""


from benchmarks.conftest import record_table
from benchmarks.harness import JOIN, fmt


def test_table1_loads(tpch9_results, webanalytics_results, benchmark):
    rows = []
    for config in ("10G", "80G"):
        for scheme in ("hash", "random", "hybrid"):
            result = tpch9_results[(config, scheme)]
            metrics = result.run.metrics
            max_load = ("N/A (overflow)" if not result.completed
                        else fmt(metrics.max_load(JOIN)))
            rows.append([
                f"TPCH9-Partial {config}", scheme, max_load,
                fmt(metrics.avg_load(JOIN)), fmt(metrics.skew_degree(JOIN)),
            ])
    for scheme in ("hash", "random", "hybrid"):
        metrics = webanalytics_results[scheme].run.metrics
        rows.append([
            "WebAnalytics", scheme, fmt(metrics.max_load(JOIN)),
            fmt(metrics.avg_load(JOIN)), fmt(metrics.skew_degree(JOIN)),
        ])

    # shape assertions mirroring the paper's reading of Table 1
    for config in ("10G",):
        random_metrics = tpch9_results[(config, "random")].run.metrics
        hash_metrics = tpch9_results[(config, "hash")].run.metrics
        hybrid_metrics = tpch9_results[(config, "hybrid")].run.metrics
        # Random: perfect load balancing (max ~ avg) but high average
        assert random_metrics.skew_degree(JOIN) < 1.25
        # Hash: max far above average under zipf-2 skew
        assert hash_metrics.skew_degree(JOIN) > 2.0
        # Hybrid: average load below Random's (it replicates only when needed)
        assert hybrid_metrics.avg_load(JOIN) < random_metrics.avg_load(JOIN)
    record_table(
        "table1_loads",
        "Table 1: max / avg load per machine (input tuples received)",
        ["query", "scheme", "max load", "avg load", "skew degree"],
        rows,
        notes="Paper shape: Random max==avg (balanced, costly); Hash max >> avg "
              "under skew (and overflows on 80G); Hybrid lowest avg among "
              "skew-resilient schemes.",
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
