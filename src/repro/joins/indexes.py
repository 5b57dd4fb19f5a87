"""On-the-fly indexes used by the local join algorithms.

Equi-join attributes get hash indexes (the columnar join kernel's
:class:`ArrayIndex` resolves whole key columns to row ids); band and
inequality attributes get an ordered index (the paper's "balanced binary
tree indexes"), a bisect-backed sorted array.

All indexes support multiplicities so that deletions (window expiration,
sliding-window retractions) work naturally.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from itertools import count, repeat
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np


class HashIndex:
    """Multimap from key to rows with multiplicities."""

    def __init__(self):
        self._buckets: Dict[object, Dict[tuple, int]] = {}
        self.size = 0

    def insert(self, key, row: tuple):
        bucket = self._buckets.setdefault(key, {})
        bucket[row] = bucket.get(row, 0) + 1
        self.size += 1

    def delete(self, key, row: tuple) -> bool:
        """Remove one occurrence; returns False when absent."""
        bucket = self._buckets.get(key)
        if not bucket or row not in bucket:
            return False
        bucket[row] -= 1
        if bucket[row] == 0:
            del bucket[row]
            if not bucket:
                del self._buckets[key]
        self.size -= 1
        return True

    def lookup(self, key) -> Iterator[Tuple[tuple, int]]:
        """(row, multiplicity) pairs stored under ``key``."""
        bucket = self._buckets.get(key)
        if bucket:
            yield from bucket.items()

    def keys(self):
        return self._buckets.keys()

    def __len__(self):
        return self.size


def segment_positions(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The flat positions of the segments ``[starts[i], starts[i] +
    counts[i])``, concatenated in order -- the gather that turns per-key
    ranges into one fancy index, without a Python loop.

    >>> import numpy as np
    >>> from repro.joins.indexes import segment_positions
    >>> segment_positions(np.array([5, 0, 9]), np.array([2, 0, 3])).tolist()
    [5, 6, 9, 10, 11]
    """
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    shift = starts - (np.cumsum(counts) - counts)
    return np.repeat(shift, counts) + np.arange(total)


class ArrayIndex:
    """Multimap from key to *row ids* over primitive arrays.

    The columnar join kernel addresses view rows by integer id (their
    position in the view's columns); this index answers "which ids hold
    key k" for a whole column of probe keys at once, and holds no Python
    object per row.  It is one append-only int64 column of key *codes*,
    position = id:

    - a single ``int64`` key column is its own code, while the keys lie
      close enough together for the run's table (below);
    - any other key -- a float, str or tuple key, or an object column --
      gets a dense code from one dict, so keys match as Python equality
      does (``1``, ``1.0`` and ``True`` are one key; ``42`` and ``"42"``
      are two).  An int64 index re-codes its column this way once: when
      it first sees another key, or when its keys spread too far apart.

    A probe resolves through a *run* -- ids sorted by ``(code, id)``,
    found through a table indexed by ``code - low`` that says where each
    code's ids start -- plus the *tail* of ids appended since the run
    was last rebuilt, sorted when probed and searched with
    ``np.searchsorted``.  The tail merges into the run once it passes
    ``1 / MERGE_FRACTION`` of it; a merge drops the dead ids it is
    handed.  Every probe returns a key's ids in ascending order, which
    is insertion order.
    """

    __slots__ = ("_codes", "n", "_coder", "_run_ids", "_run_low",
                 "_run_high", "_run_starts", "_merged", "_tail")

    #: the tail merges into the run once longer than run / MERGE_FRACTION
    #: (2 and 8 measure within noise of 4 on the squallbench joins, 2 vCPUs)
    MERGE_FRACTION = 4
    #: int64 keys stay their own codes while the run's table (one slot
    #: per code between its smallest and largest) takes at most SPREAD
    #: slots per id, plus SLACK; dict codes are dense and always fit
    SPREAD, SLACK = 16, 4096
    #: a probe of at most this many (key, tail id) pairs compares them
    #: all rather than sort the tail (sorting instead makes a three-way
    #: join's 1-row insert 1.6x as slow, a 256-row one 1.1x, on 2 vCPUs)
    SCAN = 1 << 14

    def __init__(self):
        self._codes = np.zeros(16, dtype=np.int64)
        self.n = 0
        #: key -> dense code; None while every key seen is an int64
        self._coder: Optional[defaultdict] = None
        self._reset_run()

    def _reset_run(self):
        # ids fit 32 bits: a view holds fewer than 2**31 rows
        self._run_ids = np.zeros(0, dtype=np.int32)
        #: a code in [_run_low, _run_high] has slot ``code - _run_low``,
        #: whose ids are _run_ids[starts[slot]:starts[slot + 1]]; a last,
        #: empty slot takes every other code
        self._run_low, self._run_high = 0, -1
        self._run_starts = np.zeros(2, dtype=np.int32)
        #: ids below this are in the run (or were dropped from it as dead)
        self._merged = 0
        #: (n it was sorted at, sorted tail codes, their ids), or None
        self._tail: Optional[tuple] = None

    def _encode(self, key_columns: Sequence[np.ndarray],
                grow: bool) -> np.ndarray:
        """Codes of one column of keys (``-1``: a key never inserted)."""
        if self._coder is None:
            if len(key_columns) == 1 and key_columns[0].dtype == np.int64:
                return key_columns[0]
            self._recode()
        if len(key_columns) == 1:
            keys = key_columns[0].tolist()
        else:
            keys = list(zip(*(column.tolist() for column in key_columns)))
        if grow:
            return np.fromiter(map(self._coder.__getitem__, keys),
                               dtype=np.int64, count=len(keys))
        return np.fromiter(map(self._coder.get, keys, repeat(-1)),
                           dtype=np.int64, count=len(keys))

    def _recode(self):
        """Switch from raw int64 keys to dense dict codes (once)."""
        keys, codes = np.unique(self._codes[:self.n], return_inverse=True)
        self._coder = defaultdict(count(len(keys)).__next__,
                                  zip(keys.tolist(), range(len(keys))))
        self._codes[:self.n] = codes.reshape(-1)
        self._reset_run()

    def extend(self, key_columns: Sequence[np.ndarray]):
        """Index the next ``len(key_columns[0])`` ids under their keys."""
        k = len(key_columns[0])
        if k == 0:
            return
        codes = self._encode(key_columns, grow=True)
        need = self.n + k
        if need > len(self._codes):
            grown = np.zeros(max(need, 2 * len(self._codes)), dtype=np.int64)
            grown[:self.n] = self._codes[:self.n]
            self._codes = grown
        self._codes[self.n:need] = codes
        self.n = need

    def _merge(self, mults: Optional[np.ndarray]):
        """Fold the tail into the run, dropping ids whose multiplicity in
        ``mults`` is 0 (None: none is)."""
        ids = np.concatenate((self._run_ids,
                              np.arange(self._merged, self.n, dtype=np.int32)))
        if mults is not None:
            ids = ids[mults[ids] > 0]
        codes = self._codes[ids]
        low, high = (int(codes.min()), int(codes.max())) if len(ids) \
            else (0, -1)
        if (self._coder is None
                and high - low >= self.SPREAD * len(ids) + self.SLACK):
            self._recode()  # dict codes are dense: the table fits them
            self._merge(mults)
            return
        slots = codes - low
        if high - low < 1 << 16:
            # sorts by radix: batch_join3 loses 7-14 % without (2 vCPUs)
            slots = slots.astype(np.uint16)
        # stable: each code's run ids, then its tail ids, ascending
        ids = ids[np.argsort(slots, kind="stable")]
        starts = np.zeros(high - low + 3, dtype=np.int32)
        np.cumsum(np.bincount(slots, minlength=high - low + 1),
                  out=starts[1:-1])
        starts[-1] = starts[-2]
        self._run_ids, self._run_starts = ids, starts
        self._run_low, self._run_high = low, high
        self._merged = self.n
        self._tail = None

    def _tail_hits(self, codes: np.ndarray):
        """``(counts, ids)`` of the probe codes in the tail, as
        :meth:`lookup` returns them.  A small probe compares every code
        with every tail code; a large one sorts the tail (once for every
        probe until the next append) and searches it."""
        tail_codes = self._codes[self._merged:self.n]
        if len(codes) * len(tail_codes) <= self.SCAN:
            # row-major: key after key, each key's positions ascending
            key, position = np.nonzero(codes[:, None] == tail_codes)
            return (np.bincount(key, minlength=len(codes)),
                    position + self._merged)
        if self._tail is None or self._tail[0] != self.n:
            order = np.argsort(tail_codes, kind="stable")
            self._tail = (self.n, tail_codes[order], order + self._merged)
        _n, sorted_codes, sorted_ids = self._tail
        first = np.searchsorted(sorted_codes, codes, "left")
        counts = np.searchsorted(sorted_codes, codes, "right") - first
        return counts, sorted_ids[segment_positions(first, counts)]

    def lookup(self, key_columns: Sequence[np.ndarray],
               mults: Optional[np.ndarray] = None):
        """Resolve one column of probe keys: ``(counts, ids)``, where
        ``ids`` holds every probe key's ids in ascending order, key after
        key, and ``counts`` how many each has.  Ids whose multiplicity in
        ``mults`` is 0 are left out (None: no id is dead)."""
        tail = self.n - self._merged
        if tail and tail * self.MERGE_FRACTION > len(self._run_ids):
            self._merge(mults)
        # encoded after the merge, which may have re-coded the index
        codes = self._encode(key_columns, grow=False)
        tail = self.n - self._merged
        low, high = self._run_low, self._run_high
        slot = codes - low
        slot[(codes < low) | (codes > high)] = high - low + 1  # the empty one
        starts = self._run_starts[slot]
        counts = self._run_starts[slot + 1] - starts
        ids = self._run_ids[segment_positions(starts, counts)]
        if tail:
            tail_counts, tail_ids = self._tail_hits(codes)
            if len(tail_ids):
                # each key's run ids, then its (younger) tail ids
                both = counts + tail_counts
                offsets = np.cumsum(both) - both
                merged = np.empty(int(both.sum()), dtype=np.int64)
                merged[segment_positions(offsets, counts)] = ids
                merged[segment_positions(offsets + counts, tail_counts)] = \
                    tail_ids
                ids, counts = merged, both
        if mults is not None and len(ids):
            alive = mults[ids] > 0
            if not alive.all():
                owner = np.repeat(np.arange(len(counts)), counts)
                counts = np.bincount(owner[alive], minlength=len(counts))
                ids = ids[alive]
        return counts, ids


class SortedIndex:
    """Ordered index over (key, row) with bisect-backed storage.

    Insertion is O(n) worst case but with a C-level memmove; for the
    per-task state sizes the engine produces this is consistently faster
    in CPython than pointer-chasing tree nodes.
    """

    def __init__(self):
        self._keys: List = []
        self._rows: List[tuple] = []

    @property
    def size(self) -> int:
        return len(self._keys)

    def insert(self, key, row: tuple):
        position = bisect.bisect_right(self._keys, key)
        self._keys.insert(position, key)
        self._rows.insert(position, row)

    def delete(self, key, row: tuple) -> bool:
        lo = bisect.bisect_left(self._keys, key)
        hi = bisect.bisect_right(self._keys, key)
        for position in range(lo, hi):
            if self._rows[position] == row:
                del self._keys[position]
                del self._rows[position]
                return True
        return False

    def range(self, low=None, high=None, include_low: bool = True,
              include_high: bool = True) -> Iterator[tuple]:
        """Rows with key in the given (optionally open) interval."""
        if low is None:
            lo = 0
        elif include_low:
            lo = bisect.bisect_left(self._keys, low)
        else:
            lo = bisect.bisect_right(self._keys, low)
        if high is None:
            hi = len(self._keys)
        elif include_high:
            hi = bisect.bisect_right(self._keys, high)
        else:
            hi = bisect.bisect_left(self._keys, high)
        for position in range(lo, hi):
            yield self._rows[position]

    def __len__(self):
        return len(self._keys)
