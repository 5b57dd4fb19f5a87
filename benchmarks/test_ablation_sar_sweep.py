"""Ablation: the SAR principle as a skew sweep.

Section 5 states the trade-off: skew-resilience and adaptivity require
replication.  We sweep the zipf skew factor of the shared join key from 0
(uniform) to 2 (the paper's evaluation setting) and measure, per scheme,
the max load per machine and the replication factor.  Expected shape:
hash is cheapest at z=0 and degrades sharply; random pays a constant
replication price and never degrades; hybrid tracks whichever is better
(it switches to random partitioning once the skew detector fires).
"""

import random

import pytest

from benchmarks.conftest import record_table
from benchmarks.harness import fmt, profiled_relation_info

from repro.core.predicates import EquiCondition, JoinSpec
from repro.core.schema import Relation, Schema
from repro.datasets import ZipfGenerator
from repro.engine.runner import SCHEMES

MACHINES = 16
N = 1500
KEYS = 200


def make_relations(z, seed):
    rng = random.Random(seed)
    if z > 0:
        gen = ZipfGenerator(KEYS, z, seed=seed)
        draw = gen.draw
    else:
        def draw():
            return rng.randrange(KEYS)

    left = Relation("L", Schema.of("k", "v"), [(draw(), i) for i in range(N)])
    right = Relation("R", Schema.of("k", "w"), [(draw(), i) for i in range(N)])
    return left, right


def route_loads(spec, data, scheme, seed=0):
    partitioner = SCHEMES[scheme].build(spec, MACHINES, seed=seed)
    received = [0] * partitioner.n_machines
    for name, rows in data.items():
        for row in rows:
            for machine in partitioner.destinations(name, row):
                received[machine] += 1
    total_in = sum(len(rows) for rows in data.values())
    return max(received), sum(received) / total_in


def test_sar_skew_sweep(benchmark):
    def run():
        rows = []
        series = {}
        for z in (0.0, 0.5, 1.0, 1.5, 2.0):
            left, right = make_relations(z, seed=int(z * 10) + 3)
            l_info = profiled_relation_info(left, "L", ["k"], MACHINES)
            r_info = profiled_relation_info(right, "R", ["k"], MACHINES)
            spec = JoinSpec([l_info, r_info],
                            [EquiCondition(("L", "k"), ("R", "k"))])
            data = {"L": left.rows, "R": right.rows}
            for scheme in ("hash", "random", "hybrid"):
                max_load, repl = route_loads(spec, data, scheme, seed=7)
                series[(z, scheme)] = (max_load, repl)
                rows.append([f"z={z:.1f}", scheme, fmt(max_load),
                             f"{repl:.2f}"])
        return rows, series

    rows, series = benchmark.pedantic(run, rounds=1, iterations=1)
    record_table(
        "ablation_sar_sweep",
        f"Ablation: SAR principle -- skew sweep (2-way join, {MACHINES} machines)",
        ["zipf skew", "scheme", "max load", "replication factor"],
        rows,
        notes="SAR: hash (repl 1) degrades with skew; random pays constant "
              "replication and stays flat; hybrid switches once the "
              "detector marks the key skewed.",
    )

    # shapes
    # 1. uniform: hash is the cheapest in max load
    assert series[(0.0, "hash")][0] <= series[(0.0, "random")][0]
    # 2. hash degrades sharply with skew
    assert series[(2.0, "hash")][0] > 3 * series[(0.0, "hash")][0]
    # 3. random is flat across the sweep (content-insensitive)
    flat = [series[(z, "random")][0] for z in (0.0, 1.0, 2.0)]
    assert max(flat) < 1.4 * min(flat)
    # 4. hybrid never loses badly: within 1.5x of the best scheme everywhere
    for z in (0.0, 0.5, 1.0, 1.5, 2.0):
        best = min(series[(z, s)][0] for s in ("hash", "random"))
        assert series[(z, "hybrid")][0] <= 1.5 * best
    # 5. replication ordering at high skew: hash 1 < hybrid <= random
    assert series[(2.0, "hash")][1] == pytest.approx(1.0)
    assert series[(2.0, "hybrid")][1] <= series[(2.0, "random")][1] + 1e-9
