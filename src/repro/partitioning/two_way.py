"""Two-way join partitioning schemes: hash, 1-Bucket, M-Bucket.

For 2-way joins the Hash-Hypercube degenerates to hash partitioning and
the Random-Hypercube to the 1-Bucket scheme of Okcan and Riedewald --
random partitioning over a 2-dimensional matrix of machines.  M-Bucket is
the range-partitioned variant for low-selectivity band and inequality
joins; it avoids 1-Bucket's replication but is prone to join product skew
(which the EWH scheme in :mod:`repro.partitioning.ewh` fixes).
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.predicates import BandCondition, JoinCondition, ThetaCondition
from repro.partitioning.base import (Partitioner, UnsupportedJoinError,
                                     random_coordinates)
from repro.util import hash_to_bucket, stable_hash


def choose_matrix(machines: int, size_left: int, size_right: int) -> Tuple[int, int]:
    """Optimal 1-Bucket matrix shape: minimise ``|R|/rows + |S|/cols``.

    Enumerates integer (rows, cols) with rows*cols <= machines, mirroring
    the hypercube integer search.  With equal relation sizes this yields a
    square matrix of side ~sqrt(machines).
    """
    if machines <= 0:
        raise ValueError("machines must be positive")
    size_left = max(size_left, 1)
    size_right = max(size_right, 1)
    best: Optional[Tuple[float, float, Tuple[int, int]]] = None
    for rows in range(1, machines + 1):
        cols = machines // rows
        if cols == 0:
            break
        load = size_left / rows + size_right / cols
        comm = size_left * cols + size_right * rows
        key = (load, comm, (rows, cols))
        if best is None or key < best:
            best = key
    assert best is not None
    return best[2]


class HashTwoWay(Partitioner):
    """Hash partitioning for a 2-way equi-join.

    No replication, but content-sensitive: prone to data skew (the most
    frequent key overloads one machine) and temporal skew (sorted arrival
    keeps only one machine active at a time).
    """

    def __init__(self, left: str, left_attr_pos: int, right: str,
                 right_attr_pos: int, machines: int):
        if machines <= 0:
            raise ValueError("machines must be positive")
        self.n_machines = machines
        self._positions = {left: left_attr_pos, right: right_attr_pos}

    @classmethod
    def for_condition(cls, cond: JoinCondition, schemas: Dict[str, "object"],
                      machines: int) -> "HashTwoWay":
        if not cond.is_equi:
            raise UnsupportedJoinError(
                "hash partitioning supports only equi-joins; use 1-Bucket, "
                "M-Bucket or EWH for band/inequality joins"
            )
        left_rel, left_attr = cond.left
        right_rel, right_attr = cond.right
        return cls(
            left_rel, schemas[left_rel].index_of(left_attr),
            right_rel, schemas[right_rel].index_of(right_attr),
            machines,
        )

    def relation_names(self) -> List[str]:
        return sorted(self._positions)

    def destinations(self, rel_name: str, row: tuple, occurrence: int = 0) -> List[int]:
        return [hash_to_bucket(row[self._positions[rel_name]],
                               self.n_machines)]

    def expected_replication(self, rel_name: str) -> int:
        return 1

    def is_content_sensitive(self) -> bool:
        return True

    def describe(self) -> str:
        return f"hash partitioning over {self.n_machines} machines"


class OneBucket(Partitioner):
    """1-Bucket scheme: random partitioning over a rows x cols matrix.

    Content-insensitive, so resilient to data and temporal skew and to skew
    fluctuations -- at the cost of replicating each left tuple ``cols``
    times and each right tuple ``rows`` times (the SAR principle).
    Supports arbitrary theta-joins because routing ignores the join key:
    a tuple's matrix row (left) or column (right) hashes the whole tuple
    and its occurrence number, so a retraction meets its insertion.
    """

    def __init__(self, left: str, right: str, machines: int,
                 size_left: int = 1, size_right: int = 1, seed: int = 0,
                 shape: Optional[Tuple[int, int]] = None):
        self.left = left
        self.right = right
        self.rows, self.cols = shape or choose_matrix(machines, size_left, size_right)
        self.n_machines = self.rows * self.cols
        self.seed = seed
        self.counts_copies_of = frozenset({left, right})

    def relation_names(self) -> List[str]:
        return [self.left, self.right]

    def destinations(self, rel_name: str, row: tuple, occurrence: int = 0) -> List[int]:
        row_hash = stable_hash(row)
        if rel_name == self.left:
            matrix_row = random_coordinates(self.seed, 0, row_hash, self.rows, occurrence)
            return [matrix_row * self.cols + c for c in range(self.cols)]
        if rel_name == self.right:
            matrix_col = random_coordinates(self.seed, 1, row_hash, self.cols, occurrence)
            return [r * self.cols + matrix_col for r in range(self.rows)]
        raise KeyError(f"unknown relation {rel_name!r}")

    def expected_replication(self, rel_name: str) -> int:
        if rel_name == self.left:
            return self.cols
        if rel_name == self.right:
            return self.rows
        raise KeyError(f"unknown relation {rel_name!r}")

    def is_content_sensitive(self) -> bool:
        return False

    def describe(self) -> str:
        return f"1-Bucket {self.rows}x{self.cols} matrix"


def _theta_row_range(op: str, value, boundaries: Sequence) -> Tuple[int, int]:
    """Row-stripe range [lo, hi) of left stripes that can join ``value``.

    ``boundaries`` are the p-1 split points of the left key domain; stripe
    ``i`` covers (boundaries[i-1], boundaries[i]].
    """
    stripes = len(boundaries) + 1
    if op in ("<", "<="):
        # left < value: stripes whose lower edge is below value
        hi = bisect.bisect_right(boundaries, value) + 1
        return 0, min(hi, stripes)
    if op in (">", ">="):
        lo = bisect.bisect_left(boundaries, value)
        return lo, stripes
    if op == "!=":
        return 0, stripes
    raise UnsupportedJoinError(f"M-Bucket cannot route operator {op!r}")


class MBucket(Partitioner):
    """M-Bucket(-I) range scheme for band and inequality joins.

    The left relation's key domain is split into ``machines`` equal-depth
    stripes (from a sample); a left tuple goes to exactly one stripe, a
    right tuple to every stripe it may join.  Compared to 1-Bucket, large
    join-free regions of the matrix are never assigned, but the scheme is
    content-sensitive and prone to join *product* skew: a stripe producing
    a disproportionate share of output has no way to shed load.
    """

    def __init__(self, left: str, left_attr_pos: int, right: str,
                 right_attr_pos: int, machines: int,
                 left_sample: Sequence, condition: JoinCondition):
        if machines <= 0:
            raise ValueError("machines must be positive")
        if not left_sample:
            raise ValueError("M-Bucket needs a non-empty sample of the left key")
        self.left = left
        self.right = right
        self._positions = {left: left_attr_pos, right: right_attr_pos}
        self.n_machines = machines
        self.condition = condition
        ordered = sorted(left_sample)
        # p-1 equal-depth boundaries
        self.boundaries = [
            ordered[min(len(ordered) - 1, (i * len(ordered)) // machines)]
            for i in range(1, machines)
        ]

    def _stripe_of(self, value) -> int:
        return bisect.bisect_left(self.boundaries, value)

    def relation_names(self) -> List[str]:
        return [self.left, self.right]

    def destinations(self, rel_name: str, row: tuple, occurrence: int = 0) -> List[int]:
        value = row[self._positions[rel_name]]
        if rel_name == self.left:
            return [self._stripe_of(value)]
        cond = self.condition
        if isinstance(cond, BandCondition):
            lo = self._stripe_of(value - cond.width)
            hi = self._stripe_of(value + cond.width)
            return list(range(lo, hi + 1))
        if isinstance(cond, ThetaCondition):
            lo, hi = _theta_row_range(cond.op, value, self.boundaries)
            return list(range(lo, hi))
        if cond.is_equi:
            stripe = self._stripe_of(value)
            return [stripe]
        raise UnsupportedJoinError(f"M-Bucket cannot route {cond!r}")

    def expected_replication(self, rel_name: str) -> int:
        if rel_name == self.left:
            return 1
        # pessimistic average for the right side: half the stripes for
        # inequality joins, 1 + band coverage for band joins
        cond = self.condition
        if isinstance(cond, BandCondition):
            return 1
        if isinstance(cond, ThetaCondition):
            return max(1, self.n_machines // 2)
        return 1

    def is_content_sensitive(self) -> bool:
        return True

    def describe(self) -> str:
        return f"M-Bucket over {self.n_machines} range stripes"
