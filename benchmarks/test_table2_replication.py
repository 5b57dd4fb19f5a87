"""Table 2: replication factor per hypercube scheme (TPCH9-Partial).

Paper values: 10G -- Hash 1, Random 1.83, Hybrid 1.01;
80G -- Hash N/A, Random 6.19, Hybrid 1.11.

Shapes to hold: Hash needs no replication (all three relations share the
partkey dimension); Hybrid stays close to 1; Random replicates markedly
and its factor grows with the machine count (6.19 vs 1.83), while
Hybrid's barely moves.
"""

import pytest

from benchmarks.conftest import record_table
from benchmarks.harness import JOIN


def test_table2_replication_factor(tpch9_results, benchmark):
    factors = {}
    rows = []
    for config in ("10G", "80G"):
        for scheme in ("hash", "random", "hybrid"):
            result = tpch9_results[(config, scheme)]
            if not result.completed:
                rows.append([f"TPCH9-Partial {config}", scheme, "N/A (overflow)"])
                continue
            factor = result.run.replication_factor(JOIN)
            factors[(config, scheme)] = factor
            rows.append([f"TPCH9-Partial {config}", scheme, f"{factor:.2f}"])

    # paper shapes
    assert factors[("10G", "hash")] == pytest.approx(1.0, abs=0.01), \
        "Hash-Hypercube: same-key join, no replication (paper: 1)"
    assert factors[("10G", "hybrid")] < factors[("10G", "random")], \
        "Hybrid replicates less than Random (paper: 1.01 vs 1.83)"
    assert factors[("80G", "hybrid")] < factors[("80G", "random")], \
        "Hybrid replicates less than Random (paper: 1.11 vs 6.19)"
    growth_random = factors[("80G", "random")] / factors[("10G", "random")]
    growth_hybrid = factors[("80G", "hybrid")] / factors[("10G", "hybrid")]
    assert growth_random > growth_hybrid, (
        "Hybrid's replication factor must scale considerably better than "
        "Random's (paper: 1.01->1.11 vs 1.83->6.19)"
    )
    record_table(
        "table2_replication",
        "Table 2: replication factor (received / produced upstream)",
        ["query", "scheme", "replication factor"],
        rows,
        notes="Paper: 10G = 1 / 1.83 / 1.01 and 80G = N/A / 6.19 / 1.11 for "
              "Hash / Random / Hybrid.",
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
