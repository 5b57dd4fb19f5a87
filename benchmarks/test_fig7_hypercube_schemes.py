"""Figure 7: Hash- vs Random- vs Hybrid-Hypercube runtimes.

Paper (section 7.3): for TPCH9-Partial on the skewed (zipf 2) TPC-H,
the Hybrid-Hypercube beats the Random-Hypercube by 2.39x on 80G/100J and
the (extrapolated, memory-overflowing) Hash-Hypercube by 1.6x; for
WebAnalytics it beats Hash by 1.43x and Random (extrapolated) by 11.64x.
We reproduce the ordering and the overflow behaviour.  Every configuration
runs through the engine's ``run_plan`` to completion (an overflowing run
included, so nothing is extrapolated); runtimes are the calibrated cost
model's ``run_cost`` applied to the measured loads/work.
"""

from benchmarks.conftest import record_table
from benchmarks.harness import JOIN, fmt


def test_fig7_tpch9_partial(tpch9_results, benchmark):
    rows = []
    for config in ("10G", "80G"):
        runtimes = {}
        for scheme in ("hash", "random", "hybrid"):
            result = tpch9_results[(config, scheme)]
            runtimes[scheme] = result.runtime
            note = "" if result.completed else " (Memory Overflow)"
            rows.append([
                f"TPCH9-Partial {config}",
                scheme,
                fmt(result.runtime) + note,
                result.partitioning,
            ])
        assert runtimes["hybrid"] < runtimes["random"], (
            f"{config}: Hybrid must beat Random (paper: 2.39x on 80G)"
        )
    # 80G: hash must hit the memory wall, hybrid must not
    assert not tpch9_results[("80G", "hash")].completed
    assert tpch9_results[("80G", "hybrid")].completed
    assert tpch9_results[("80G", "random")].completed
    speedup = (tpch9_results[("80G", "random")].runtime
               / tpch9_results[("80G", "hybrid")].runtime)
    rows.append(["TPCH9-Partial 80G", "hybrid vs random speedup",
                 f"{speedup:.2f}x (paper: 2.39x)", ""])
    record_table(
        "fig7_tpch9",
        "Figure 7 (TPCH9-Partial): modelled runtime by hypercube scheme",
        ["configuration", "scheme", "runtime [model units]", "partitioning"],
        rows,
        notes="Paper shape: Hybrid < Random; Hash overflows memory on 80G.",
    )
    benchmark.pedantic(
        lambda: tpch9_results[("10G", "hybrid")].run.skew_degree(JOIN),
        rounds=1, iterations=1,
    )


def test_fig7_webanalytics(webanalytics_results, benchmark):
    runtimes = {s: r.runtime for s, r in webanalytics_results.items()}
    rows = [
        ["WebAnalytics", scheme, fmt(result.runtime), result.partitioning]
        for scheme, result in webanalytics_results.items()
    ]
    assert runtimes["hybrid"] < runtimes["hash"], \
        "Hybrid must beat Hash (paper: 1.43x)"
    assert runtimes["hybrid"] < runtimes["random"], \
        "Hybrid must beat Random (paper: 11.64x)"
    rows.append(["WebAnalytics", "hybrid vs hash speedup",
                 f"{runtimes['hash'] / runtimes['hybrid']:.2f}x (paper: 1.43x)", ""])
    rows.append(["WebAnalytics", "hybrid vs random speedup",
                 f"{runtimes['random'] / runtimes['hybrid']:.2f}x (paper: 11.64x)", ""])
    record_table(
        "fig7_webanalytics",
        "Figure 7 (WebAnalytics): modelled runtime by hypercube scheme",
        ["configuration", "scheme", "runtime [model units]", "partitioning"],
        rows,
        notes="Paper shape: Hybrid fastest; only it mixes hash (URL) and "
              "random (the blogspot.com hot key) partitioning.",
    )
    benchmark.pedantic(
        lambda: webanalytics_results["hybrid"].run.replication_factor(JOIN),
        rounds=1, iterations=1,
    )
