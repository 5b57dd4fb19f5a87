"""Tests for Hash-, Random- and Hybrid-Hypercube scheme builders."""

from collections import Counter

import pytest

from repro.core.predicates import (
    EquiCondition,
    JoinSpec,
    RelationInfo,
    ThetaCondition,
)
from repro.core.schema import Schema
from repro.core.statistics import AttributeStats
from repro.joins.base import reference_join
from repro.partitioning import (
    HashHypercube,
    HybridHypercube,
    RandomHypercube,
    UnsupportedJoinError,
)
from repro.partitioning.hybrid_hypercube import decide_skew_marking, hybrid_dimensions
from repro.partitioning.hypercube import HASH, RANDOM

from tests.conftest import make_rst_data


def rst_spec_skewed(top=0.5):
    skewed = {"z"} if top > 0 else frozenset()
    return JoinSpec(
        [
            RelationInfo("R", Schema.of("x", "y"), 1000),
            RelationInfo("S", Schema.of("y", "z"), 1000, skewed=skewed,
                         top_freq={"z": top}),
            RelationInfo("T", Schema.of("z", "t"), 1000, skewed=skewed,
                         top_freq={"z": top}),
        ],
        [
            EquiCondition(("R", "y"), ("S", "y")),
            EquiCondition(("S", "z"), ("T", "z")),
        ],
    )


def theta_spec(skew_on=None):
    """R.x = S.x AND S.x < T.y (paper section 4's non-equi example)."""
    skew_on = skew_on or {}
    return JoinSpec(
        [
            RelationInfo("R", Schema.of("x"), 100,
                         skewed=skew_on.get("R", frozenset())),
            RelationInfo("S", Schema.of("x"), 100,
                         skewed=skew_on.get("S", frozenset())),
            RelationInfo("T", Schema.of("y"), 100,
                         skewed=skew_on.get("T", frozenset())),
        ],
        [
            EquiCondition(("R", "x"), ("S", "x")),
            ThetaCondition(("S", "x"), "<", ("T", "y")),
        ],
    )


class TestHashHypercube:
    def test_uniform_example_dims(self, rst_spec):
        config = HashHypercube.plan(rst_spec, 64)
        assert config.sizes == (8, 8)
        assert all(d.kind == HASH for d in config.dims)

    def test_rejects_theta_joins(self):
        with pytest.raises(UnsupportedJoinError):
            HashHypercube.plan(theta_spec(), 16)

    def test_skew_degrades_load(self):
        """The skew-adjusted estimate (analysis mode) shows the overload the
        scheme's own uniform-data optimiser cannot see."""
        uniform = HashHypercube.plan(rst_spec_skewed(0.0), 64, skew_aware=True)
        skewed = HashHypercube.plan(rst_spec_skewed(0.5), 64, skew_aware=True)
        assert skewed.max_load > 2 * uniform.max_load
        # the blind (paper-faithful) planner keeps its uniform estimate
        blind = HashHypercube.plan(rst_spec_skewed(0.5), 64)
        assert blind.max_load == uniform.max_load

    def test_same_key_join_is_one_dimensional(self):
        """Multiple relations joining on the same key (TPCH9-Partial):
        the Hash-Hypercube yields one dimension and no replication."""
        spec = JoinSpec(
            [
                RelationInfo("L", Schema.of("pk"), 600),
                RelationInfo("PS", Schema.of("pk"), 80),
                RelationInfo("P", Schema.of("pk"), 20),
            ],
            [
                EquiCondition(("L", "pk"), ("PS", "pk")),
                EquiCondition(("PS", "pk"), ("P", "pk")),
            ],
        )
        config = HashHypercube.plan(spec, 8)
        assert len(config.dims) == 1
        assert config.sizes == (8,)
        partitioner = HashHypercube.build(spec, 8)
        for rel in ("L", "PS", "P"):
            assert partitioner.expected_replication(rel) == 1

    def test_star_schema_partitions_fact_replicates_dims(self):
        """Star schema special case (paper 3.2): with one dominant join key
        the scheme yields p x 1 partitioning -- the fact table is
        partitioned on it and the tiny dimension table is broadcast."""
        spec = JoinSpec(
            [
                RelationInfo("fact", Schema.of("d1", "d2"), 10_000),
                RelationInfo("dim1", Schema.of("d1"), 40),
                RelationInfo("dim2", Schema.of("d2"), 1),
            ],
            [
                EquiCondition(("fact", "d1"), ("dim1", "d1")),
                EquiCondition(("fact", "d2"), ("dim2", "d2")),
            ],
        )
        config = HashHypercube.plan(spec, 16)
        assert sorted(config.sizes) == [1, 16]  # p x 1 partitioning
        partitioner = HashHypercube.build(spec, 16)
        assert partitioner.expected_replication("fact") == 1
        assert partitioner.expected_replication("dim2") == 16  # broadcast

    def test_routing_correctness(self, rst_spec):
        data = make_rst_data(seed=11)
        partitioner = HashHypercube.build(rst_spec, 16, seed=1)
        _assert_exactly_once(rst_spec, partitioner, data)

    def test_content_sensitive(self, rst_spec):
        assert HashHypercube.build(rst_spec, 16).is_content_sensitive()


class TestRandomHypercube:
    def test_one_dim_per_relation(self, rst_spec):
        config = RandomHypercube.plan(rst_spec, 64)
        assert len(config.dims) == 3
        assert all(d.kind == RANDOM for d in config.dims)
        assert config.sizes == (4, 4, 4)
        assert config.max_load == pytest.approx(750)

    def test_supports_theta(self):
        config = RandomHypercube.plan(theta_spec(), 27)
        assert len(config.dims) == 3

    def test_skew_does_not_change_plan(self):
        plain = RandomHypercube.plan(rst_spec_skewed(0.0), 64)
        skewed = RandomHypercube.plan(rst_spec_skewed(0.9), 64)
        assert plain.sizes == skewed.sizes
        assert plain.max_load == skewed.max_load

    def test_routing_correctness(self, rst_spec):
        data = make_rst_data(seed=12)
        partitioner = RandomHypercube.build(rst_spec, 8, seed=2)
        _assert_exactly_once(rst_spec, partitioner, data)

    def test_content_insensitive(self, rst_spec):
        assert not RandomHypercube.build(rst_spec, 8).is_content_sensitive()


class TestHybridHypercube:
    def test_renaming_splits_skewed_attrs(self):
        dims = hybrid_dimensions(rst_spec_skewed())
        kinds = Counter(d.kind for d in dims)
        assert kinds[RANDOM] == 2  # z' and z''
        assert kinds[HASH] == 1  # y
        random_names = sorted(d.name for d in dims if d.kind == RANDOM)
        assert random_names == ["z'", "z''"]

    def test_paper_configuration_9x7(self):
        """Paper 3.1: Hybrid picks y=9 x z''=7 (63 machines), load ~0.36H,
        total communication 23H."""
        config = HybridHypercube.plan(rst_spec_skewed(), 64)
        assert config.size_of("y") == 9
        assert config.size_of("z''") == 7
        assert config.size_of("z'") == 1
        assert config.max_load == pytest.approx(0.3651 * 1000, rel=0.001)
        assert config.total_communication == pytest.approx(23_000)

    def test_subsumes_hash_when_no_skew(self, rst_spec):
        hybrid = HybridHypercube.plan(rst_spec, 64)
        hashed = HashHypercube.plan(rst_spec, 64)
        assert hybrid.max_load == hashed.max_load
        assert sorted(hybrid.sizes) == sorted(hashed.sizes)

    def test_subsumes_random_when_all_skewed(self):
        spec = JoinSpec(
            [
                RelationInfo("R", Schema.of("y"), 1000, skewed={"y"}),
                RelationInfo("S", Schema.of("y"), 1000, skewed={"y"}),
            ],
            [EquiCondition(("R", "y"), ("S", "y"))],
        )
        hybrid = HybridHypercube.plan(spec, 16)
        random_plan = RandomHypercube.plan(spec, 16)
        assert hybrid.max_load == random_plan.max_load
        assert all(d.kind == RANDOM for d in hybrid.dims)

    def test_beats_both_on_mixed_skew(self):
        spec = rst_spec_skewed()
        hybrid = HybridHypercube.plan(spec, 64).max_load
        # skew_aware=True: the *actual* load the blind hash grid suffers
        hashed = HashHypercube.plan(spec, 64, skew_aware=True).max_load
        randomised = RandomHypercube.plan(spec, 64).max_load
        assert hybrid < hashed
        assert hybrid < randomised
        # paper: ~2.08x better than Random, ~1.9x better than Hash
        assert randomised / hybrid == pytest.approx(2.05, rel=0.05)

    def test_dimension_saving_four_relations(self):
        """Paper section 4: R(x,y)><S(y,z)><T(z,t)><U(t) with skew only on z
        -> 2 dimensions (y and t) instead of Random's 4."""
        spec = JoinSpec(
            [
                RelationInfo("R", Schema.of("x", "y"), 100),
                RelationInfo("S", Schema.of("y", "z"), 100, skewed={"z"}),
                RelationInfo("T", Schema.of("z", "t"), 100, skewed={"z"}),
                RelationInfo("U", Schema.of("t"), 100),
            ],
            [
                EquiCondition(("R", "y"), ("S", "y")),
                EquiCondition(("S", "z"), ("T", "z")),
                EquiCondition(("T", "t"), ("U", "t")),
            ],
        )
        config = HybridHypercube.plan(spec, 64)
        effective = [d for d, size in zip(config.dims, config.sizes) if size > 1]
        assert {d.name for d in effective} <= {"y", "t", "z'", "z''"}
        hash_dims = [d for d in effective if d.kind == HASH]
        assert {d.name for d in hash_dims} == {"y", "t"}
        # replicated hash joins R><S and T><U plus 1-Bucket in the middle:
        # both renamed z dims should collapse to size 1
        assert config.size_of("z'") == 1
        assert config.size_of("z''") == 1

    def test_nonequi_dims_are_hash_when_skew_free(self):
        """R.x = S.x AND S.x < T.y with no skew: dims (x, y), both hash."""
        config = HybridHypercube.plan(theta_spec(), 16)
        assert {d.name for d in config.dims} == {"x", "y"}
        assert all(d.kind == HASH for d in config.dims)

    def test_nonequi_skewed_side_goes_random(self):
        config = HybridHypercube.plan(theta_spec({"T": frozenset({"y"})}), 16)
        kinds = {d.name: d.kind for d in config.dims}
        assert kinds["x"] == HASH
        assert kinds["y'"] == RANDOM

    def test_nonequi_skew_on_shared_attr_renames(self):
        """Skew on S.x: rename it so R.x and S.x get separate dimensions."""
        config = HybridHypercube.plan(theta_spec({"S": frozenset({"x"})}), 16)
        names = {d.name for d in config.dims}
        assert names == {"x", "x'", "y"}

    def test_routing_correctness_mixed(self):
        spec = rst_spec_skewed()
        data = make_rst_data(seed=13)
        partitioner = HybridHypercube.build(spec, 12, seed=3)
        _assert_exactly_once(spec, partitioner, data)

    def test_routing_correctness_theta(self):
        spec = theta_spec({"T": frozenset({"y"})})
        import random
        rng = random.Random(5)
        data = {
            "R": [(rng.randrange(10),) for _ in range(30)],
            "S": [(rng.randrange(10),) for _ in range(30)],
            "T": [(rng.randrange(10),) for _ in range(30)],
        }
        partitioner = HybridHypercube.build(spec, 8, seed=5)
        _assert_exactly_once(spec, partitioner, data)


class TestDecideSkewMarking:
    def test_marks_heavy_attribute(self):
        spec = rst_spec_skewed(0.0)
        # strip the skew marking; give the chooser measured stats instead
        plain = JoinSpec(
            [RelationInfo(i.name, i.schema, i.size) for i in spec.relations],
            spec.conditions,
        )
        stats = {
            ("S", "z"): AttributeStats(1000, 100, "hot", 0.5),
            ("T", "z"): AttributeStats(1000, 100, "hot", 0.5),
        }
        marked = decide_skew_marking(plain, 64, stats)
        # at least one side of the hot key must go random; the final plan
        # must reach the Hybrid's 0.365H load, far below Hash's ~0.7H
        assert (marked.by_name["S"].is_skewed("z")
                or marked.by_name["T"].is_skewed("z"))
        load = HybridHypercube.plan(marked, 64).max_load
        assert load == pytest.approx(0.3651 * 1000, rel=0.001)

    def test_keeps_uniform_attribute_hash(self):
        spec = rst_spec_skewed(0.0)
        plain = JoinSpec(
            [RelationInfo(i.name, i.schema, i.size) for i in spec.relations],
            spec.conditions,
        )
        stats = {
            ("R", "y"): AttributeStats(1000, 500, "k", 0.002),
            ("S", "y"): AttributeStats(1000, 500, "k", 0.002),
        }
        marked = decide_skew_marking(plain, 64, stats)
        assert not marked.by_name["R"].is_skewed("y")
        assert not marked.by_name["S"].is_skewed("y")


def _assert_exactly_once(spec, partitioner, data):
    """Every reference-join output must be produced at exactly one machine."""
    placements = {name: [] for name in data}
    for name, rows in data.items():
        for row in rows:
            placements[name].append((row, set(partitioner.destinations(name, row))))
    expected = Counter(reference_join(spec, data))
    produced = Counter()
    # count, for each joinable combination, on how many machines all parts meet
    names = list(spec.relation_names)
    from repro.joins.base import JoinSchema, satisfies_all
    join_schema = JoinSchema.from_spec(spec)
    import itertools
    pools = [placements[name] for name in names]
    for combo in itertools.product(*pools):
        rows_by_relation = dict(zip(names, (c[0] for c in combo)))
        if not satisfies_all(spec, join_schema, rows_by_relation):
            continue
        shared = set.intersection(*(c[1] for c in combo))
        assert len(shared) == 1, (
            f"joinable combination met on {len(shared)} machines: {rows_by_relation}"
        )
        produced[join_schema.flatten(rows_by_relation)] += 1
    assert produced == expected


class TestCrossTypeEquiKeys:
    """``R.y`` holds ints and ``S.y`` the equal floats: the local join
    matches ``1 == 1.0``, so every scheme must route both to one task."""

    @staticmethod
    def plan(machines, scheme):
        from repro.engine.component import (
            JoinComponent,
            PhysicalPlan,
            SourceComponent,
        )
        from repro.core.schema import Relation

        R = Relation("R", Schema.of("x", "y"), [(i, i % 7) for i in range(50)])
        S = Relation("S", Schema.of("y", "z"),
                     [(float(i % 7), i) for i in range(50)])
        spec = JoinSpec(
            [RelationInfo("R", R.schema, 50), RelationInfo("S", S.schema, 50)],
            [EquiCondition(("R", "y"), ("S", "y"))])
        return PhysicalPlan(
            sources=[SourceComponent("R", R), SourceComponent("S", S)],
            joins=[JoinComponent("J", spec, machines=machines,
                                 scheme=scheme)])

    @pytest.mark.parametrize("scheme", ["hash", "hybrid", "random"])
    @pytest.mark.parametrize("columnar", [False, True])
    @pytest.mark.parametrize("machines", [1, 4, 8])
    def test_every_match_is_found(self, machines, columnar, scheme):
        from repro.core.options import ExecutionOptions
        from repro.engine.runner import run_plan

        result = run_plan(self.plan(machines, scheme), options=ExecutionOptions(
            batch_size=16, columnar=columnar))
        # 7 keys: 8 R rows x 8 S rows on key 0, 7 x 7 on the other six
        assert len(result.results) == 8 * 8 + 6 * 7 * 7 == 358
