"""Equi-Weight Histogram (EWH) scheme (Vitorovic, Elseidy, Koch -- ICDE'16).

EWH targets low-selectivity band and inequality 2-way joins.  It captures
*both* the input and the output distribution of the join on a coarsened
d x d matrix of key-range buckets, then tiles that weighted matrix into at
most ``machines`` rectangles of near-equal output weight using a
join-specialised rectangle-tiling algorithm.  Unlike M-Bucket (whose
equal-*input* stripes suffer join product skew), EWH balances estimated
*output*, so it works well for any data distribution.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.predicates import BandCondition, EquiCondition, JoinCondition, ThetaCondition
from repro.partitioning.base import Partitioner, UnsupportedJoinError


def equi_depth_boundaries(sample: Sequence, buckets: int) -> List:
    """``buckets - 1`` split points with roughly equal sample counts."""
    if not sample:
        raise ValueError("EWH needs a non-empty sample")
    ordered = sorted(sample)
    return [
        ordered[min(len(ordered) - 1, (i * len(ordered)) // buckets)]
        for i in range(1, buckets)
    ]


def _bucket_of(boundaries: Sequence, value) -> int:
    return bisect.bisect_left(boundaries, value)


def _ranges(boundaries: Sequence, sample: Sequence) -> List[Tuple[object, object]]:
    """(lo, hi) value range per bucket, padded with the sample extremes."""
    lo = min(sample)
    hi = max(sample)
    edges = [lo] + list(boundaries) + [hi]
    return [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]


def cell_can_join(cond: JoinCondition, left_range, right_range) -> bool:
    """Conservatively: can any (l, r) in the ranges satisfy the condition?"""
    l_lo, l_hi = left_range
    r_lo, r_hi = right_range
    if isinstance(cond, BandCondition):
        # intervals closer than width can join
        return not (l_lo - cond.width > r_hi or l_hi + cond.width < r_lo)
    if isinstance(cond, ThetaCondition):
        ls, rs = cond.left_scale, cond.right_scale
        if cond.op in ("<", "<="):
            return ls * l_lo < rs * r_hi or (cond.op == "<=" and ls * l_lo == rs * r_hi)
        if cond.op in (">", ">="):
            return ls * l_hi > rs * r_lo or (cond.op == ">=" and ls * l_hi == rs * r_lo)
        if cond.op == "!=":
            return True
    if isinstance(cond, EquiCondition) or cond.is_equi:
        return not (l_hi < r_lo or r_hi < l_lo)
    raise UnsupportedJoinError(f"EWH cannot analyse {cond!r}")


@dataclass
class Region:
    """A rectangle of histogram cells assigned to one machine."""

    row_lo: int
    row_hi: int  # inclusive
    col_lo: int
    col_hi: int  # inclusive
    weight: float

    def contains_cell(self, row: int, col: int) -> bool:
        return self.row_lo <= row <= self.row_hi and self.col_lo <= col <= self.col_hi

    @property
    def cells(self) -> int:
        return (self.row_hi - self.row_lo + 1) * (self.col_hi - self.col_lo + 1)


def tile_matrix(weights: List[List[float]], regions: int) -> List[Region]:
    """Tile a weighted matrix into <= ``regions`` rectangles of similar weight.

    Join-specialised recursive tiling: repeatedly split the heaviest region
    along the axis/position that best halves its weight.  The tiling covers
    the *entire* matrix (so no join result can be missed even if the sample
    under-estimated a cell), but the split choice is driven purely by the
    estimated output weight.
    """
    n_rows = len(weights)
    n_cols = len(weights[0]) if n_rows else 0
    if n_rows == 0 or n_cols == 0:
        raise ValueError("weight matrix must be non-empty")

    def region_weight(r: Region) -> float:
        return sum(
            weights[i][j]
            for i in range(r.row_lo, r.row_hi + 1)
            for j in range(r.col_lo, r.col_hi + 1)
        )

    whole = Region(0, n_rows - 1, 0, n_cols - 1, 0.0)
    whole.weight = region_weight(whole)
    # max-heap by weight; counter breaks ties deterministically
    heap: List[Tuple[float, int, Region]] = [(-whole.weight, 0, whole)]
    counter = 1
    done: List[Region] = []
    while heap and len(heap) + len(done) < regions:
        _neg, _tie, region = heapq.heappop(heap)
        split = _best_split(region, weights)
        if split is None:
            done.append(region)  # single cell or zero weight: cannot split
            continue
        first, second = split
        first.weight = region_weight(first)
        second.weight = region_weight(second)
        heapq.heappush(heap, (-first.weight, counter, first))
        counter += 1
        heapq.heappush(heap, (-second.weight, counter, second))
        counter += 1
    done.extend(region for _neg, _tie, region in heap)
    return done


def _best_split(region: Region, weights) -> Optional[Tuple[Region, Region]]:
    """Split position (row or column) that best balances the two halves."""
    best = None
    best_imbalance = None
    # row splits
    if region.row_hi > region.row_lo:
        row_sums = [
            sum(weights[i][j] for j in range(region.col_lo, region.col_hi + 1))
            for i in range(region.row_lo, region.row_hi + 1)
        ]
        total = sum(row_sums)
        prefix = 0.0
        for offset in range(len(row_sums) - 1):
            prefix += row_sums[offset]
            imbalance = abs(total - 2 * prefix)
            if best_imbalance is None or imbalance < best_imbalance:
                best_imbalance = imbalance
                cut = region.row_lo + offset
                best = (
                    Region(region.row_lo, cut, region.col_lo, region.col_hi, 0.0),
                    Region(cut + 1, region.row_hi, region.col_lo, region.col_hi, 0.0),
                )
    # column splits
    if region.col_hi > region.col_lo:
        col_sums = [
            sum(weights[i][j] for i in range(region.row_lo, region.row_hi + 1))
            for j in range(region.col_lo, region.col_hi + 1)
        ]
        total = sum(col_sums)
        prefix = 0.0
        for offset in range(len(col_sums) - 1):
            prefix += col_sums[offset]
            imbalance = abs(total - 2 * prefix)
            if best_imbalance is None or imbalance < best_imbalance:
                best_imbalance = imbalance
                cut = region.col_lo + offset
                best = (
                    Region(region.row_lo, region.row_hi, region.col_lo, cut, 0.0),
                    Region(region.row_lo, region.row_hi, cut + 1, region.col_hi, 0.0),
                )
    return best


class EWHScheme(Partitioner):
    """Equi-weight histogram partitioner for 2-way band/inequality joins."""

    def __init__(self, left: str, left_attr_pos: int, right: str,
                 right_attr_pos: int, machines: int,
                 left_sample: Sequence, right_sample: Sequence,
                 condition: JoinCondition, granularity: int = 0):
        if machines <= 0:
            raise ValueError("machines must be positive")
        self.left = left
        self.right = right
        self._positions = {left: left_attr_pos, right: right_attr_pos}
        self.condition = condition
        # a granularity of ~4 buckets per machine on each axis captures the
        # output distribution finely enough for the tiling to balance it
        d = granularity or max(2, min(4 * machines, 64))
        self.row_boundaries = equi_depth_boundaries(left_sample, d)
        self.col_boundaries = equi_depth_boundaries(right_sample, d)
        row_ranges = _ranges(self.row_boundaries, left_sample)
        col_ranges = _ranges(self.col_boundaries, right_sample)
        row_counts = self._bucket_counts(left_sample, self.row_boundaries, d)
        col_counts = self._bucket_counts(right_sample, self.col_boundaries, d)
        weights = [
            [
                (row_counts[i] * col_counts[j])
                if cell_can_join(condition, row_ranges[i], col_ranges[j])
                else 0.0
                for j in range(d)
            ]
            for i in range(d)
        ]
        self.regions = tile_matrix(weights, machines)
        self.n_machines = len(self.regions)
        self._row_ranges = row_ranges
        self._col_ranges = col_ranges
        # region lookup by row / by column
        self._regions_by_row: Dict[int, List[int]] = {}
        self._regions_by_col: Dict[int, List[int]] = {}
        for idx, region in enumerate(self.regions):
            for i in range(region.row_lo, region.row_hi + 1):
                self._regions_by_row.setdefault(i, []).append(idx)
            for j in range(region.col_lo, region.col_hi + 1):
                self._regions_by_col.setdefault(j, []).append(idx)

    @staticmethod
    def _bucket_counts(sample: Sequence, boundaries: Sequence, d: int) -> List[int]:
        counts = [0] * d
        for value in sample:
            counts[min(_bucket_of(boundaries, value), d - 1)] += 1
        return counts

    def relation_names(self) -> List[str]:
        return [self.left, self.right]

    def destinations(self, rel_name: str, row: tuple, occurrence: int = 0) -> List[int]:
        value = row[self._positions[rel_name]]
        if rel_name == self.left:
            bucket = min(_bucket_of(self.row_boundaries, value),
                         len(self._row_ranges) - 1)
            candidates = self._regions_by_row.get(bucket, [])
            out = []
            for idx in candidates:
                region = self.regions[idx]
                col_range = (
                    self._col_ranges[region.col_lo][0],
                    self._col_ranges[region.col_hi][1],
                )
                if cell_can_join(self.condition, (value, value), col_range):
                    out.append(idx)
            return out
        bucket = min(_bucket_of(self.col_boundaries, value),
                     len(self._col_ranges) - 1)
        candidates = self._regions_by_col.get(bucket, [])
        out = []
        for idx in candidates:
            region = self.regions[idx]
            row_range = (
                self._row_ranges[region.row_lo][0],
                self._row_ranges[region.row_hi][1],
            )
            if cell_can_join(self.condition, row_range, (value, value)):
                out.append(idx)
        return out

    def expected_replication(self, rel_name: str) -> int:
        # average number of regions intersecting a row (resp. column)
        if rel_name == self.left:
            spans = [len(v) for v in self._regions_by_row.values()]
        else:
            spans = [len(v) for v in self._regions_by_col.values()]
        return max(1, round(sum(spans) / len(spans))) if spans else 1

    def is_content_sensitive(self) -> bool:
        return True

    def describe(self) -> str:
        return f"EWH with {len(self.regions)} rectangle regions"
