"""Hash-Hypercube scheme (Afrati-Ullman shares, integer sizes per Chu et al.).

Each axis corresponds to one join-key equivalence class.  A tuple is hashed
on its own join keys and replicated along every other axis.  Supports
skew-free multi-way equi-joins only: under data skew the most frequent key
pins one coordinate and overloads its machines (see the paper's Figure 2c
and the skewed TPCH9-Partial results), and non-equi conditions cannot be
routed by hashing at all.
"""

from __future__ import annotations

from collections import Counter
from typing import FrozenSet, List

from repro.core.predicates import AttrRef, JoinSpec
from repro.partitioning.base import UnsupportedJoinError
from repro.partitioning.hypercube import (
    HASH,
    DimensionSpec,
    HypercubeConfig,
    HypercubePartitioner,
    optimize_dimensions,
    relations_to_opt,
)


def _dimension_name(members: FrozenSet[AttrRef], taken: set) -> str:
    """Name a dimension after its most common attribute name; a tie goes
    to the first by name, not to the set's hash-seeded iteration order."""
    counts = Counter(attr for _rel, attr in members)
    base = min(counts, key=lambda attr: (-counts[attr], attr))
    name = base
    suffix = 1
    while name in taken:
        suffix += 1
        name = f"{base}#{suffix}"
    taken.add(name)
    return name


def join_key_dimensions(spec: JoinSpec) -> List[DimensionSpec]:
    """Hash dimensions: equality classes spanning at least two relations.

    The paper (section 4) observes that only join keys need to become
    dimensions -- attributes local to one relation never reduce anyone
    else's load, so the optimiser would always set their size to 1.
    """
    taken: set = set()
    dims = []
    for group in spec.equality_classes():
        relations = {rel for rel, _attr in group}
        if len(relations) < 2:
            continue
        dims.append(DimensionSpec(_dimension_name(group, taken), HASH, group))
    return dims


class HashHypercube:
    """Builder for the Hash-Hypercube partitioner."""

    name = "hash-hypercube"

    @classmethod
    def plan(cls, spec: JoinSpec, machines: int, skew_aware: bool = False) -> HypercubeConfig:
        """Choose dimension sizes; raises for non-equi joins.

        ``skew_aware`` defaults to False: the original Hash-Hypercube
        (Afrati-Ullman) assumes uniform data -- that blindness is exactly
        why it loses to the Hybrid-Hypercube under skew (Figure 7).  Pass
        True to get the skew-adjusted *load estimate* for analysis.
        """
        if not spec.is_equi_join:
            raise UnsupportedJoinError(
                "the Hash-Hypercube supports only equi-joins; "
                "use the Hybrid- or Random-Hypercube for theta/band joins"
            )
        dims = join_key_dimensions(spec)
        relations = relations_to_opt(
            dims,
            {info.name: info.size for info in spec.relations},
            {info.name: info.skewed for info in spec.relations},
            {info.name: dict(info.top_freq) for info in spec.relations},
        )
        return optimize_dimensions(dims, relations, machines, skew_aware=skew_aware)

    @classmethod
    def build(
        cls, spec: JoinSpec, machines: int, seed: int = 0, skew_aware: bool = False
    ) -> HypercubePartitioner:
        config = cls.plan(spec, machines, skew_aware=skew_aware)
        schemas = {info.name: info.schema for info in spec.relations}
        return HypercubePartitioner(config, schemas, seed=seed)
