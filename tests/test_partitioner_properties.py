"""Property-based tests for the core partitioning invariant.

For every hypercube scheme, every *joinable* combination of input tuples
must co-locate on exactly ONE machine (so each output tuple is produced
exactly once), regardless of relation sizes, skew markings, machine
budget, or data distribution.  Hypothesis drives all of those.
"""

import itertools
import random

from hypothesis import given, settings, strategies as st

from repro.core.predicates import EquiCondition, JoinSpec, RelationInfo, ThetaCondition
from repro.core.schema import Schema
from repro.joins.base import JoinSchema
from repro.partitioning import HashHypercube, HybridHypercube, RandomHypercube
from tests.conftest import satisfies_all


def chain_spec(sizes, skew_s, skew_t):
    return JoinSpec(
        [
            RelationInfo("R", Schema.of("x", "y"), sizes[0]),
            RelationInfo("S", Schema.of("y", "z"), sizes[1],
                         skewed=frozenset({"z"}) if skew_s else frozenset()),
            RelationInfo("T", Schema.of("z", "t"), sizes[2],
                         skewed=frozenset({"z"}) if skew_t else frozenset()),
        ],
        [EquiCondition(("R", "y"), ("S", "y")),
         EquiCondition(("S", "z"), ("T", "z"))],
    )


def make_data(seed, n, y_dom, z_dom):
    rng = random.Random(seed)
    return {
        "R": [(rng.randrange(10), rng.randrange(y_dom)) for _ in range(n)],
        "S": [(rng.randrange(y_dom), rng.randrange(z_dom)) for _ in range(n)],
        "T": [(rng.randrange(z_dom), rng.randrange(10)) for _ in range(n)],
    }


def assert_exactly_once(spec, partitioner, data):
    placements = {
        name: [(row, set(partitioner.destinations(name, row)))
               for row in rows]
        for name, rows in data.items()
    }
    join_schema = JoinSchema.from_spec(spec)
    names = spec.relation_names
    for combo in itertools.product(*(placements[name] for name in names)):
        rows_by_relation = dict(zip(names, (c[0] for c in combo)))
        if not satisfies_all(spec, join_schema, rows_by_relation):
            continue
        shared = set.intersection(*(c[1] for c in combo))
        assert len(shared) == 1, (
            f"{type(partitioner).__name__}: joinable combination met on "
            f"{len(shared)} machines"
        )


@settings(max_examples=25, deadline=None)
@given(
    machines=st.integers(min_value=1, max_value=30),
    sizes=st.tuples(*[st.integers(min_value=1, max_value=5000)] * 3),
    skew_s=st.booleans(),
    skew_t=st.booleans(),
    seed=st.integers(min_value=0, max_value=10_000),
    y_dom=st.integers(min_value=1, max_value=6),
    z_dom=st.integers(min_value=1, max_value=6),
)
def test_hybrid_exactly_once(machines, sizes, skew_s, skew_t, seed, y_dom, z_dom):
    spec = chain_spec(sizes, skew_s, skew_t)
    data = make_data(seed, 8, y_dom, z_dom)
    partitioner = HybridHypercube.build(spec, machines, seed=seed)
    assert_exactly_once(spec, partitioner, data)


@settings(max_examples=15, deadline=None)
@given(
    machines=st.integers(min_value=1, max_value=30),
    sizes=st.tuples(*[st.integers(min_value=1, max_value=5000)] * 3),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_hash_and_random_exactly_once(machines, sizes, seed):
    spec = chain_spec(sizes, False, False)
    data = make_data(seed, 8, 4, 4)
    for builder in (HashHypercube, RandomHypercube):
        partitioner = builder.build(spec, machines, seed=seed)
        assert_exactly_once(spec, partitioner, data)


@settings(max_examples=20, deadline=None)
@given(
    machines=st.integers(min_value=1, max_value=24),
    seed=st.integers(min_value=0, max_value=10_000),
    skew_t=st.booleans(),
)
def test_theta_join_exactly_once(machines, seed, skew_t):
    """Non-equi joins route correctly through the Hybrid-Hypercube."""
    spec = JoinSpec(
        [
            RelationInfo("R", Schema.of("x"), 100),
            RelationInfo("S", Schema.of("x"), 100),
            RelationInfo("T", Schema.of("y"), 100,
                         skewed=frozenset({"y"}) if skew_t else frozenset()),
        ],
        [EquiCondition(("R", "x"), ("S", "x")),
         ThetaCondition(("S", "x"), "<", ("T", "y"))],
    )
    rng = random.Random(seed)
    data = {
        "R": [(rng.randrange(8),) for _ in range(8)],
        "S": [(rng.randrange(8),) for _ in range(8)],
        "T": [(rng.randrange(8),) for _ in range(8)],
    }
    partitioner = HybridHypercube.build(spec, machines, seed=seed)
    assert_exactly_once(spec, partitioner, data)


@settings(max_examples=25, deadline=None)
@given(
    machines=st.integers(min_value=1, max_value=64),
    sizes=st.tuples(*[st.integers(min_value=1, max_value=10_000)] * 3),
    skew_s=st.booleans(),
    skew_t=st.booleans(),
)
def test_replication_consistency(machines, sizes, skew_s, skew_t):
    """expected_replication must match the actual fan-out of destinations."""
    spec = chain_spec(sizes, skew_s, skew_t)
    for builder in (RandomHypercube, HybridHypercube):
        partitioner = builder.build(spec, machines, seed=1)
        for rel, row in (("R", (1, 2)), ("S", (2, 3)), ("T", (3, 4))):
            fanout = len(partitioner.destinations(rel, row))
            assert fanout == partitioner.expected_replication(rel)
