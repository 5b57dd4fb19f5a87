"""Hybrid-Hypercube: the paper's novel multi-way partitioning scheme.

The Hybrid-Hypercube uses hash partitioning for skew-free join keys and
random partitioning elsewhere, minimising replication while staying skew
resilient.  It subsumes both the Hash-Hypercube (no skew, pure equi-join)
and the Random-Hypercube (skew on every key), and -- unlike the
Hash-Hypercube -- supports non-equi joins by giving each side of a
theta/band condition its own dimension.

Construction (paper section 4):

1. Compute join-key equivalence classes.
2. *Rename* every skewed member out of its class into a fresh singleton
   dimension with random partitioning (``z`` -> ``z'``, ``z''`` ...).
   Renaming only affects the optimiser and the routing; local joins are
   unchanged.
3. The remaining (skew-free) members of each class form a hash dimension,
   shared by all relations in the class -- this is where the scheme *saves
   dimensions* (and therefore replication) over the Random-Hypercube.
4. Run the shared integer dimension-size optimiser.  Dimensions that do
   not help (e.g. a renamed attribute of a relation already partitioned by
   another key) automatically receive size 1.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.core.predicates import AttrRef, JoinSpec, RelationInfo
from repro.core.statistics import AttributeStats, SkewDetector
from repro.partitioning.hash_hypercube import _dimension_name
from repro.partitioning.hypercube import (
    HASH,
    RANDOM,
    DimensionSpec,
    HypercubeConfig,
    HypercubePartitioner,
    optimize_dimensions,
    relations_to_opt,
)
from repro.partitioning.random_hypercube import relation_dimensions


def hybrid_dimensions(spec: JoinSpec) -> List[DimensionSpec]:
    """Derive hash + renamed random dimensions from the join spec; a
    relation no condition covers (a Cartesian factor) gets a random
    dimension of its own, as in the Random-Hypercube."""
    taken: Set[str] = set()
    dims: List[DimensionSpec] = []
    rename_counter: Dict[str, int] = {}

    def renamed(attr: str) -> str:
        rename_counter[attr] = rename_counter.get(attr, 0) + 1
        name = attr + "'" * rename_counter[attr]
        while name in taken:
            name += "'"
        taken.add(name)
        return name

    for group in spec.equality_classes():
        skewed_members = sorted(
            ref for ref in group if spec.by_name[ref[0]].is_skewed(ref[1])
        )
        plain_members = sorted(ref for ref in group if ref not in set(skewed_members))
        for rel, attr in skewed_members:
            dims.append(
                DimensionSpec(renamed(attr), RANDOM, frozenset({(rel, attr)}))
            )
        if plain_members:
            dims.append(
                DimensionSpec(
                    _dimension_name(frozenset(plain_members), taken),
                    HASH,
                    frozenset(plain_members),
                )
            )
    covered = {rel for dim in dims for rel, _attr in dim.members}
    dims.extend(dim for dim in relation_dimensions(spec)
                if not {rel for rel, _attr in dim.members} & covered)
    return dims


class HybridHypercube:
    """Builder for the Hybrid-Hypercube partitioner."""

    name = "hybrid-hypercube"

    @classmethod
    def plan(cls, spec: JoinSpec, machines: int) -> HypercubeConfig:
        dims = hybrid_dimensions(spec)
        relations = relations_to_opt(
            dims,
            {info.name: info.size for info in spec.relations},
            # Skewed attributes have been renamed onto random dimensions, so
            # the remaining hash dimensions carry only skew-free attributes;
            # still pass the metadata through for completeness (it only
            # applies where a skewed attribute somehow stayed on a hash dim).
            {info.name: info.skewed for info in spec.relations},
            {info.name: dict(info.top_freq) for info in spec.relations},
        )
        return optimize_dimensions(dims, relations, machines, skew_aware=True)

    @classmethod
    def build(cls, spec: JoinSpec, machines: int, seed: int = 0) -> HypercubePartitioner:
        config = cls.plan(spec, machines)
        schemas = {info.name: info.schema for info in spec.relations}
        return HypercubePartitioner(config, schemas, seed=seed)


def decide_skew_marking(
    spec: JoinSpec,
    machines: int,
    stats: Dict[AttrRef, AttributeStats],
    detector: Optional[SkewDetector] = None,
) -> JoinSpec:
    """Offline scheme chooser (paper section 3.4).

    For each join attribute with measured statistics, run the optimiser
    twice -- once marking the attribute skewed (random partitioning), once
    uniform (hash partitioning with the skew-adjusted load formula using
    the sampled top-key frequency) -- and keep the marking with the smaller
    maximum load per machine.  Returns a new :class:`JoinSpec` with the
    chosen markings.
    """
    detector = detector or SkewDetector()
    # Start from the quick analytic rule, then refine with load comparisons.
    marking: Dict[str, Set[str]] = {info.name: set() for info in spec.relations}
    freqs: Dict[str, Dict[str, float]] = {info.name: dict(info.top_freq) for info in spec.relations}
    for (rel, attr), attr_stats in stats.items():
        freqs[rel][attr] = attr_stats.top_frequency
        if detector.is_skewed(attr_stats, machines):
            marking[rel].add(attr)

    def spec_with(markings: Dict[str, Set[str]]) -> JoinSpec:
        infos = [
            RelationInfo(
                info.name,
                info.schema,
                info.size,
                frozenset(markings[info.name]),
                freqs[info.name],
            )
            for info in spec.relations
        ]
        return JoinSpec(infos, spec.conditions)

    # Refine greedily: flip each measured attribute if it lowers max load.
    for (rel, attr) in sorted(stats):
        with_attr = {name: set(attrs) for name, attrs in marking.items()}
        with_attr[rel].add(attr)
        without_attr = {name: set(attrs) for name, attrs in marking.items()}
        without_attr[rel].discard(attr)
        load_with = HybridHypercube.plan(spec_with(with_attr), machines).max_load
        load_without = HybridHypercube.plan(spec_with(without_attr), machines).max_load
        marking = with_attr if load_with < load_without else without_attr

    return spec_with(marking)
