"""Hypercube dimension optimisation and routing (paper sections 3.1 and 4).

The result space of a multi-way join is modelled as a hypercube; each
machine covers a unique cell.  A *dimension* is either

- a **hash** dimension: one join-key equivalence class; every relation with
  an attribute in the class pins its coordinate by hashing that attribute;
- a **random** dimension: owned by exactly one relation, whose tuples pick
  a uniformly random coordinate (the skew-resilient 1-Bucket behaviour):
  a hash of the whole tuple and of its occurrence number (how many
  copies of it its emitting task sent before), so a heavy join key
  spreads over the dimension while a retraction, which takes the latest
  occurrence, follows its insertion.

Relations without an attribute on a dimension replicate across it.  The
optimiser chooses integer dimension sizes whose product does not exceed
the machine budget, minimising the maximum load per machine -- always
returning integer sizes, following Chu et al. (SIGMOD'15), rather than the
fractional shares of Afrati-Ullman / Beame et al.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.columnar import hash_column, hash_key_columns
from repro.core.predicates import AttrRef
from repro.core.schema import Schema
from repro.partitioning.base import Partitioner, random_coordinates
from repro.util import stable_hash

HASH = "hash"
RANDOM = "random"


@dataclass(frozen=True)
class DimensionSpec:
    """One candidate hypercube axis.

    ``members`` are the (relation, attribute) pairs routed on this axis.
    A random dimension must be owned by exactly one relation (its tuples
    choose the coordinate randomly; everyone else replicates), which is
    what makes each output tuple land on exactly one machine.
    """

    name: str
    kind: str
    members: FrozenSet[AttrRef]

    def __post_init__(self):
        if self.kind not in (HASH, RANDOM):
            raise ValueError(f"dimension kind must be 'hash' or 'random', got {self.kind!r}")
        if not self.members:
            raise ValueError("a dimension needs at least one member attribute")
        if self.kind == RANDOM and len(self.owner_relations()) != 1:
            raise ValueError(
                "a random dimension must be owned by exactly one relation; "
                f"got {sorted(self.owner_relations())}"
            )

    def owner_relations(self) -> FrozenSet[str]:
        return frozenset(rel for rel, _attr in self.members)

    def attribute_of(self, rel_name: str) -> Optional[str]:
        """The attribute this relation routes on (deterministic if several)."""
        attrs = sorted(attr for rel, attr in self.members if rel == rel_name)
        return attrs[0] if attrs else None


@dataclass
class OptRelation:
    """Optimiser-facing view of one relation: size plus owned dimensions."""

    name: str
    size: float
    owned_dims: Tuple[int, ...]  # indices into the dimension list
    # top-key frequency per owned *hash* dimension index (skew adjustment)
    top_freq: Dict[int, float]

    def load(self, sizes: Sequence[int], skew_aware: bool = True) -> float:
        """Maximum per-machine load contributed by this relation.

        Uniform case: ``|R| / prod(owned dims)``.  If a hash dimension is
        skewed, the most frequent key pins that coordinate, giving the
        paper's estimate ``(L - Lmf)/p + Lmf`` generalised per dimension.
        """
        prod_all = 1
        for j in self.owned_dims:
            prod_all *= sizes[j]
        base = self.size / prod_all
        if not skew_aware or not self.top_freq:
            return base
        worst = base
        for j, freq in self.top_freq.items():
            if freq <= 0.0 or sizes[j] <= 1:
                continue
            heavy = self.size * freq
            rest = self.size - heavy
            pinned = rest / prod_all + heavy / (prod_all // sizes[j])
            if pinned > worst:
                worst = pinned
        return worst

    def communication(self, sizes: Sequence[int]) -> float:
        """Total tuples sent: |R| times the product of non-owned dimensions."""
        replication = 1
        owned = set(self.owned_dims)
        for j, size in enumerate(sizes):
            if j not in owned:
                replication *= size
        return self.size * replication


@dataclass
class HypercubeConfig:
    """The optimiser's output: dimensions with chosen sizes and its cost."""

    dims: Tuple[DimensionSpec, ...]
    sizes: Tuple[int, ...]
    machines_budget: int
    max_load: float
    total_communication: float

    @property
    def machines_used(self) -> int:
        used = 1
        for size in self.sizes:
            used *= size
        return used

    @property
    def avg_load(self) -> float:
        return self.total_communication / self.machines_used if self.machines_used else 0.0

    @property
    def skew_degree(self) -> float:
        """Predicted max/avg load ratio (the paper's skew degree monitor)."""
        avg = self.avg_load
        return self.max_load / avg if avg else 0.0

    def size_of(self, dim_name: str) -> int:
        for dim, size in zip(self.dims, self.sizes):
            if dim.name == dim_name:
                return size
        raise KeyError(f"no dimension named {dim_name!r}")

    def describe(self) -> str:
        parts = [
            f"{dim.name}[{dim.kind}]={size}"
            for dim, size in zip(self.dims, self.sizes)
        ]
        return (
            f"hypercube {' x '.join(parts) or '1'} "
            f"({self.machines_used}/{self.machines_budget} machines, "
            f"max load {self.max_load:.3g}, comm {self.total_communication:.3g})"
        )


def _enumerate_sizes(n_dims: int, budget: int):
    """Yield every integer size vector with product <= budget (BFS search).

    This is the integer configuration exploration of Chu et al., which
    avoids the fractional-share pitfall (e.g. 7 machines / 3 equal
    dimensions rounding down to 1x1x1 and wasting 6 machines).
    """
    vector = [1] * n_dims

    def recurse(dim_index: int, remaining: int):
        if dim_index == n_dims:
            yield tuple(vector)
            return
        for size in range(1, remaining + 1):
            vector[dim_index] = size
            yield from recurse(dim_index + 1, remaining // size)
        vector[dim_index] = 1

    yield from recurse(0, budget)


def optimize_dimensions(
    dims: Sequence[DimensionSpec],
    relations: Sequence[OptRelation],
    machines: int,
    skew_aware: bool = True,
) -> HypercubeConfig:
    """Choose integer dimension sizes minimising the max load per machine.

    Ties are broken by total communication (replication), then by using
    more machines, then lexicographically for determinism.
    """
    if machines <= 0:
        raise ValueError("machine budget must be positive")
    if not dims:
        # Degenerate: no join-key dimensions at all -- a single machine
        # receives everything (sequential execution).
        max_load = sum(rel.size for rel in relations)
        return HypercubeConfig((), (), machines, max_load, max_load)

    best: Optional[Tuple[float, float, int, Tuple[int, ...]]] = None
    for sizes in _enumerate_sizes(len(dims), machines):
        max_load = sum(rel.load(sizes, skew_aware) for rel in relations)
        comm = sum(rel.communication(sizes) for rel in relations)
        used = 1
        for size in sizes:
            used *= size
        key = (max_load, comm, -used, sizes)
        if best is None or key < best:
            best = key
    assert best is not None
    max_load, comm, neg_used, sizes = best
    return HypercubeConfig(tuple(dims), sizes, machines, max_load, comm)


def relations_to_opt(
    dims: Sequence[DimensionSpec],
    rel_sizes: Dict[str, float],
    skewed: Dict[str, FrozenSet[str]],
    top_freq: Dict[str, Dict[str, float]],
    default_top_freq: float = 0.5,
) -> List[OptRelation]:
    """Build optimiser inputs from dimension specs and relation metadata.

    For every *hash* dimension the load formula accounts for the most
    frequent key: the measured ``top_freq`` when available, otherwise
    ``default_top_freq`` for attributes marked skewed.  This is what lets
    the offline chooser (paper 3.4) compare 'hash with the real key
    distribution' against 'random' fairly.  Random dimensions never need
    the adjustment -- randomisation spreads the heavy key.
    """
    out = []
    for rel_name, size in rel_sizes.items():
        owned = []
        freqs: Dict[int, float] = {}
        for j, dim in enumerate(dims):
            attr = dim.attribute_of(rel_name)
            if attr is None:
                continue
            owned.append(j)
            if dim.kind != HASH:
                continue
            measured = top_freq.get(rel_name, {}).get(attr)
            if measured is not None and measured > 0.0:
                freqs[j] = measured
            elif attr in skewed.get(rel_name, frozenset()):
                freqs[j] = default_top_freq
        out.append(OptRelation(rel_name, float(size), tuple(owned), freqs))
    return out


class HypercubePartitioner(Partitioner):
    """Routes tuples through a configured hypercube.

    For every dimension a relation owns, the tuple's coordinate is pinned
    (by hashing its attribute, or on a random dimension by hashing the
    whole tuple and its occurrence number with ``seed``); the tuple is
    replicated across all remaining dimensions.  Each potential output tuple is therefore
    assigned to exactly one machine.
    """

    def __init__(
        self,
        config: HypercubeConfig,
        schemas: Dict[str, Schema],
        seed: int = 0,
    ):
        self.config = config
        self.schemas = dict(schemas)
        self.seed = seed
        sizes = config.sizes
        self.n_machines = 1
        for size in sizes:
            self.n_machines *= size
        # strides for linearising coordinates
        self._strides = [0] * len(sizes)
        stride = 1
        for j in range(len(sizes) - 1, -1, -1):
            self._strides[j] = stride
            stride *= sizes[j]
        # per-relation routing plan: the owned dimensions of size > 1
        # (size 1 pins coordinate 0 unhashed), ``(j, field hashed or None,
        # kind)``, and the offsets of a tuple's copies across the rest
        self._owned: Dict[str, List[Tuple[int, Optional[int], str]]] = {}
        self._copies: Dict[str, List[int]] = {}
        for rel_name, schema in self.schemas.items():
            owned: List[Tuple[int, Optional[int], str]] = []
            copies = [0]
            for j, dim in enumerate(config.dims):
                attr = dim.attribute_of(rel_name)
                if attr is None or sizes[j] == 1:
                    copies = [offset + value * self._strides[j]
                              for offset in copies
                              for value in range(sizes[j])]
                elif dim.kind == HASH:
                    owned.append((j, schema.index_of(attr), HASH))
                else:
                    owned.append((j, None, RANDOM))
            self._owned[rel_name] = owned
            self._copies[rel_name] = copies
        self.counts_copies_of = frozenset(
            rel for rel, owned in self._owned.items()
            if any(kind == RANDOM for _j, _field, kind in owned))

    def relation_names(self) -> List[str]:
        return sorted(self.schemas)

    def linearize(self, coord: Tuple[int, ...]) -> int:
        return sum(c * s for c, s in zip(coord, self._strides))

    def delinearize(self, machine: int) -> Tuple[int, ...]:
        coord = []
        for j, size in enumerate(self.config.sizes):
            coord.append((machine // self._strides[j]) % size)
        return tuple(coord)

    def destinations(self, rel_name: str, row: tuple, occurrence: int = 0) -> List[int]:
        sizes = self.config.sizes
        base = 0
        row_hash = stable_hash(row) if rel_name in self.counts_copies_of \
            else None
        for j, field, kind in self._owned[rel_name]:
            coord = stable_hash(row[field]) % sizes[j] if kind == HASH else \
                random_coordinates(self.seed, j, row_hash, sizes[j], occurrence)
            base += coord * self._strides[j]
        return [base + offset for offset in self._copies[rel_name]]

    def destination_matrix(self, rel_name: str, batch, occurrences=None) -> np.ndarray:
        """Vectorized ``destinations``: an ``(n_rows, n_copies)`` matrix.

        Hash dimensions pin coordinates via the vectorized stable hash of
        their attribute, random dimensions via that of the whole row and
        its occurrence number; both are bit-identical to the row path, so
        placement is batch-size invariant.  Replicated dimensions become a
        per-row offset cross-product.
        """
        sizes = self.config.sizes
        base = np.zeros(len(batch), dtype=np.int64)
        if rel_name in self.counts_copies_of:
            row_hashes = hash_key_columns(batch, range(batch.width))
        for j, field, kind in self._owned[rel_name]:
            if kind == HASH:
                coord = (hash_column(batch.columns[field])
                         % np.uint64(sizes[j])).astype(np.int64)
            else:
                coord = random_coordinates(self.seed, j, row_hashes, sizes[j], occurrences)
            base += coord * self._strides[j]
        copies = np.array(self._copies[rel_name], dtype=np.int64)
        return base[:, None] + copies[None, :]

    def expected_replication(self, rel_name: str) -> int:
        return len(self._copies[rel_name])

    def peer_machines(self, machine: int, rel_name: str) -> List[int]:
        """Machines holding replicas of this relation's slice at ``machine``.

        Used by the fault-tolerance strategy of section 5: a failed node can
        recover a relation's state from any machine that agrees with it on
        all dimensions the relation owns (its replicas along replicated
        dimensions).  Returns an empty list when the relation owns every
        dimension (no replication to recover from).
        """
        coord = self.delinearize(machine)
        base = sum(coord[j] * self._strides[j]
                   for j, _field, _kind in self._owned[rel_name])
        return [base + offset for offset in self._copies[rel_name]
                if base + offset != machine]

    def is_content_sensitive(self) -> bool:
        """Hash dimensions with size > 1 make the scheme content-sensitive."""
        return any(
            dim.kind == HASH and size > 1
            for dim, size in zip(self.config.dims, self.config.sizes)
        )

    def describe(self) -> str:
        return self.config.describe()
