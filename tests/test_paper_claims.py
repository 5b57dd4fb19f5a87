"""Tests pinning the paper's worked examples and qualitative claims.

Each test cites the claim it checks, so EXPERIMENTS.md can point here for
paper-vs-measured evidence at the unit level.
"""

from collections import Counter

import pytest

from repro.core.options import ExecutionOptions
from repro.core.predicates import EquiCondition, JoinSpec, RelationInfo
from repro.core.schema import Relation, Schema
from repro.engine import JoinComponent, PhysicalPlan, SourceComponent, run_plan
from repro.partitioning import (
    HashHypercube,
    HybridHypercube,
    OneBucket,
    RandomHypercube,
)
from repro.storm.groupings import FieldsGrouping, KeyMappedGrouping
from repro.util import round_robin_assignment

H = 1000


def rst(skew_top=None):
    skewed = frozenset({"z"}) if skew_top else frozenset()
    freq = {"z": skew_top} if skew_top else {}
    return JoinSpec(
        [
            RelationInfo("R", Schema.of("x", "y"), H),
            RelationInfo("S", Schema.of("y", "z"), H, skewed=skewed, top_freq=freq),
            RelationInfo("T", Schema.of("z", "t"), H, skewed=skewed, top_freq=freq),
        ],
        [EquiCondition(("R", "y"), ("S", "y")),
         EquiCondition(("S", "z"), ("T", "z"))],
    )


class TestSection31WorkedExample:
    """Figure 2 / section 3.1: loads for 64 machines, |R|=|S|=|T|=H."""

    def test_hash_hypercube_uniform_is_quarter_H(self):
        config = HashHypercube.plan(rst(), 64)
        # paper: y x z = 8 x 8, L = H/8 + H/64 + H/8 ~ 0.26H
        assert config.sizes == (8, 8)
        assert config.max_load / H == pytest.approx(0.2656, abs=0.001)

    def test_random_hypercube_is_three_quarters_H(self):
        config = RandomHypercube.plan(rst(), 64)
        # paper: 4 x 4 x 4, L = 3H/4
        assert sorted(config.sizes) == [4, 4, 4]
        assert config.max_load / H == pytest.approx(0.75)

    def test_hash_hypercube_skewed_is_about_0p7H(self):
        config = HashHypercube.plan(rst(0.5), 64, skew_aware=True)
        # paper's simplified arithmetic gives ~0.69H on the fixed 8x8 grid;
        # our analysis mode may pick a slightly better grid but stays ~0.7H
        assert 0.6 <= config.max_load / H <= 0.8
        # the scheme itself plans blind: 8x8 with a uniform 0.27H estimate
        blind = HashHypercube.plan(rst(0.5), 64)
        assert blind.sizes == (8, 8)

    def test_hybrid_hypercube_skewed_is_0p36H_total_23H(self):
        config = HybridHypercube.plan(rst(0.5), 64)
        # paper: (|R|+|S|)/9 + |T|/7 ~ 0.36H on 63 machines, total 23H
        assert config.max_load / H == pytest.approx(0.365, abs=0.001)
        assert config.total_communication / H == pytest.approx(23.0)
        assert config.machines_used == 63

    def test_hybrid_beats_hash_by_1_9x_and_random_by_2x(self):
        hybrid = HybridHypercube.plan(rst(0.5), 64).max_load
        # the hash scheme plans blind; its *actual* load under skew comes
        # from the skew-adjusted analysis of its chosen grid
        hashed = HashHypercube.plan(rst(0.5), 64, skew_aware=True).max_load
        randomised = RandomHypercube.plan(rst(0.5), 64).max_load
        assert hashed / hybrid == pytest.approx(1.92, abs=0.15)
        assert randomised / hybrid == pytest.approx(2.08, abs=0.15)

    def test_total_loads_17_23_48(self):
        """Paper: total load Hash 17H < Hybrid 23H < Random 48H."""
        hash_total = HashHypercube.plan(rst(0.5), 64).total_communication / H
        hybrid_total = HybridHypercube.plan(rst(0.5), 64).total_communication / H
        random_total = RandomHypercube.plan(rst(0.5), 64).total_communication / H
        assert hash_total == pytest.approx(17.0)
        assert hybrid_total == pytest.approx(23.0)
        assert random_total == pytest.approx(48.0)


class TestSection32SpecialCases:
    def test_same_key_multiway_join_runs_without_replication(self):
        """TPC-H Q9 shape: Lineitem, PartSupp, Part all join on Partkey --
        a multi-way join within one component, no replication at all."""
        spec = JoinSpec(
            [
                RelationInfo("L", Schema.of("pk"), 6000),
                RelationInfo("PS", Schema.of("pk"), 800),
                RelationInfo("P", Schema.of("pk"), 200),
            ],
            [EquiCondition(("L", "pk"), ("PS", "pk")),
             EquiCondition(("PS", "pk"), ("P", "pk"))],
        )
        partitioner = HashHypercube.build(spec, 8)
        assert all(
            partitioner.expected_replication(rel) == 1 for rel in ("L", "PS", "P")
        )
        hybrid = HybridHypercube.build(spec, 8)
        assert all(
            hybrid.expected_replication(rel) == 1 for rel in ("L", "PS", "P")
        )


class TestSection5SkewTypes:
    def test_hash_imperfections_d15_p8(self):
        """d=15 keys on p=8 machines: hashing very likely gives some machine
        3 keys (1.5x optimum); the round-robin key mapping never does."""
        keys = [f"key{i}" for i in range(15)]

        def keys_per_task(grouping):
            return Counter({task: len(rows) for task, rows in
                            grouping.targets_batch(
                                "s", [(key,) for key in keys], 8)})

        hashed = keys_per_task(FieldsGrouping([0]))
        mapped = keys_per_task(
            KeyMappedGrouping(0, round_robin_assignment(keys, 8)))
        assert max(mapped.values()) == 2  # optimal ceil(15/8)
        assert max(hashed.values()) >= max(mapped.values())

    def test_temporal_skew_sorted_arrival(self):
        """Sorted arrival: content-sensitive hash keeps one machine active
        at a time; content-insensitive 1-Bucket spreads every prefix."""
        machines = 8
        grouping = FieldsGrouping([0])
        # sorted keys with moderate per-key frequency
        stream = [key for key in range(16) for _ in range(50)]
        active_counts = []
        window = []
        for value in stream:
            ((task, _rows),) = grouping.targets_batch("s", [(value,)],
                                                      machines)
            window.append(task)
            if len(window) == 50:
                active_counts.append(len(set(window)))
                window = []
        assert max(active_counts) == 1  # one machine active per burst

        bucket = OneBucket("R", "S", machines, seed=4)
        window = []
        spread = []
        copies = Counter()  # occurrence numbers, as the emitting task counts
        for value in stream:
            window.extend(bucket.destinations("R", (value,), copies[value]))
            copies[value] += 1
            if len(window) >= 50:
                spread.append(len(set(window)))
                window = []
        assert min(spread) > machines / 2

    def test_adversarial_fluctuations_random_immune(self):
        """An adversary re-concentrating the distribution cannot unbalance
        random partitioning (SAR principle: replication buys adaptivity)."""
        bucket = OneBucket("R", "S", 16, seed=5)
        loads = Counter()
        for phase in range(4):
            hot = phase * 1000  # distribution shifts every phase
            for occurrence in range(500):  # the hot row's copies
                for machine in bucket.destinations("R", (hot,), occurrence):
                    loads[machine] += 1
        assert max(loads.values()) / min(loads.values()) < 1.3


class TestSARPrinciple:
    """Skew-resilience and Adaptivity require Replication (section 5)."""

    def test_replication_order_hash_lt_hybrid_lt_random(self):
        spec = rst(0.5)
        sizes = {"R": H, "S": H, "T": H}
        hash_rf = HashHypercube.build(spec, 64).replication_factor(sizes)
        hybrid_rf = HybridHypercube.build(spec, 64).replication_factor(sizes)
        random_rf = RandomHypercube.build(spec, 64).replication_factor(sizes)
        assert hash_rf < hybrid_rf < random_rf

    def test_skew_resilience_order_is_reversed(self):
        """More replication buys lower max load under skew: measured on
        actual routed tuples with a hot z key."""
        import random as _random
        rng = _random.Random(99)
        spec = rst(0.5)
        data = {
            "R": [(rng.randrange(50), rng.randrange(40)) for _ in range(300)],
            "S": [(rng.randrange(40),
                   0 if rng.random() < 0.5 else rng.randrange(40))
                  for _ in range(300)],
            "T": [(0 if rng.random() < 0.5 else rng.randrange(40),
                   rng.randrange(50)) for _ in range(300)],
        }
        sources = [SourceComponent(name, Relation(name, spec.by_name[name].schema,
                                                  rows))
                   for name, rows in data.items()]
        stats = {}
        for scheme in ("hash", "random", "hybrid"):
            plan = PhysicalPlan(sources=sources,
                                joins=[JoinComponent("J", spec, 16, scheme)])
            stats[scheme] = run_plan(
                plan, options=ExecutionOptions(batch_size=64)).metrics
        # more replication buys balance: random stays near-perfectly
        # balanced, hash is visibly imbalanced, hybrid beats hash outright
        assert stats["hybrid"].max_load("J") < stats["hash"].max_load("J")
        assert stats["random"].skew_degree("J") < 1.3
        assert stats["hash"].skew_degree("J") > 1.5 * stats["random"].skew_degree("J")
