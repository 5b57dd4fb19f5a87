"""Columnar micro-batches: the vectorized twin of the row-tuple batch.

The dataplane moves ``List[tuple]`` micro-batches; every operator pays
Python interpreter overhead per row.  A :class:`ColumnBatch` stores the
same batch column-wise -- NumPy ``int64``/``float64`` vectors where the
column is uniformly typed, plain Python lists otherwise -- so hashing,
predicate evaluation and join probing can run as whole-column kernels.

Design rules that keep the two representations interchangeable:

- **Adapters at the edges.**  ``from_rows``/``to_rows`` convert without
  loss; a mixed ``int``/``float`` column stays a Python list rather than
  coercing to ``float64``, so round-tripping never changes a value's
  type or identity.
- **Sequence compatibility.**  ``len()``, iteration and indexing yield
  plain row tuples, so any row-oriented operator that receives a
  ``ColumnBatch`` keeps working untouched (it just pays one ``to_rows``).
- **Hash parity.**  :func:`hash_column`/:func:`hash_key_columns` are
  bit-for-bit equal to :func:`repro.util.stable_hash`, so vectorized
  routing lands every tuple on exactly the task the row path would pick
  (the per-task equivalence suites pin this).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.util import stable_hash

#: one column: a typed NumPy vector, or a plain list for str/mixed columns
ColumnData = Union[np.ndarray, list]

#: default-on threshold: ``columnar=None`` resolves to batch_size >= this
COLUMNAR_MIN_BATCH = 64

_MASK32 = np.uint64(0xFFFFFFFF)
_KNUTH = np.uint64(2654435761)
_FNV_OFFSET = np.uint64(0x811C9DC5)
_FNV_PRIME = np.uint64(0x01000193)


def make_column(values: Sequence) -> ColumnData:
    """Pick the columnar representation for one column's values.

    All-``int`` (``bool`` is excluded: ``type(True) is not int``) becomes
    an ``int64`` vector, all-``float`` a ``float64`` vector; anything
    else -- strings, None, mixed types, ints beyond 64 bits -- stays a
    Python list so no value changes type through the adapters.
    """
    kinds = set(map(type, values))
    if kinds == {int}:
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            return list(values)
    if kinds == {float}:
        return np.array(values, dtype=np.float64)
    return list(values)


class ColumnBatch:
    """A micro-batch of rows stored column-wise.

    ``columns[i]`` holds column ``i`` for all ``length`` rows.  ``sign``
    tags retraction batches (``-1``) the way the dataplane's
    ``:retract`` streams tag row batches.  The row view is cached after
    the first ``to_rows`` so repeated row-oriented consumers pay the
    conversion once.
    """

    __slots__ = ("columns", "length", "sign", "_rows")

    def __init__(self, columns: Sequence[ColumnData], length: int,
                 sign: int = 1):
        self.columns = list(columns)
        self.length = length
        self.sign = sign
        self._rows: Optional[List[tuple]] = None

    @classmethod
    def from_rows(cls, rows: Sequence[tuple], sign: int = 1) -> "ColumnBatch":
        rows = rows if isinstance(rows, list) else list(rows)
        if not rows:
            return cls([], 0, sign)
        batch = cls([make_column(col) for col in zip(*rows)], len(rows), sign)
        batch._rows = rows
        return batch

    def to_rows(self) -> List[tuple]:
        rows = self._rows
        if rows is None:
            if not self.columns:
                rows = [()] * self.length
            else:
                rows = list(zip(*[
                    col.tolist() if isinstance(col, np.ndarray) else col
                    for col in self.columns
                ]))
            self._rows = rows
        return rows

    def column_list(self, index: int) -> list:
        """Column ``index`` as a list of plain Python values."""
        col = self.columns[index]
        return col.tolist() if isinstance(col, np.ndarray) else col

    def take(self, indices) -> "ColumnBatch":
        """Row subset by integer index array (NumPy fancy indexing)."""
        idx = np.asarray(indices, dtype=np.intp)
        cols: List[ColumnData] = []
        for col in self.columns:
            if isinstance(col, np.ndarray):
                cols.append(col[idx])
            else:
                cols.append([col[i] for i in idx.tolist()])
        return ColumnBatch(cols, len(idx), self.sign)

    @classmethod
    def concat(cls, batches: Sequence["ColumnBatch"]) -> "ColumnBatch":
        """The rows of ``batches``, in order, as one batch.

        All parts must agree on ``sign`` and on the number of columns.
        Typing follows :func:`make_column`: a column whose parts are
        NumPy vectors of one dtype stays a vector of that dtype
        (``np.concatenate``); any other mix becomes a plain list of the
        parts' values -- never a numeric coercion, so an ``int64`` part
        next to a ``float64`` part keeps its ints.  Zero-length parts
        hold no value and do not decide a column's type.

        >>> from repro.core.columnar import ColumnBatch
        >>> a = ColumnBatch.from_rows([(1, 2), (3, 4)])
        >>> b = ColumnBatch.from_rows([(5, 0.5)])
        >>> merged = ColumnBatch.concat([a, b])
        >>> merged.columns[0].dtype.name, merged.columns[1]
        ('int64', [2, 4, 0.5])
        >>> merged.to_rows()
        [(1, 2), (3, 4), (5, 0.5)]
        """
        first = batches[0]
        arity = len(first.columns)
        for batch in batches:
            if batch.sign != first.sign or len(batch.columns) != arity:
                raise ValueError(
                    f"cannot concatenate {batch!r} onto {first!r}: sign "
                    f"and column count must agree")
        parts = [batch for batch in batches if batch.length]
        if len(parts) <= 1:
            return parts[0] if parts else first
        cols: List[ColumnData] = []
        for position in range(arity):
            column = [batch.columns[position] for batch in parts]
            head = column[0]
            if isinstance(head, np.ndarray) and all(
                    isinstance(col, np.ndarray) and col.dtype == head.dtype
                    for col in column):
                cols.append(np.concatenate(column))
            else:
                cols.append([value for batch in parts
                             for value in batch.column_list(position)])
        return cls(cols, sum(batch.length for batch in parts), first.sign)

    def take_columns(self, positions: Sequence[int]) -> "ColumnBatch":
        """Column subset (projection by position) -- zero-copy."""
        return ColumnBatch([self.columns[p] for p in positions],
                           self.length, self.sign)

    # -- sequence compatibility: row-oriented consumers see row tuples --

    def __len__(self) -> int:
        return self.length

    def __bool__(self) -> bool:
        return self.length > 0

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.to_rows())

    def __getitem__(self, item):
        return self.to_rows()[item]

    def __eq__(self, other):
        if not isinstance(other, ColumnBatch):
            return NotImplemented
        if (self.length != other.length or self.sign != other.sign
                or len(self.columns) != len(other.columns)):
            return False
        for mine, theirs in zip(self.columns, other.columns):
            mine_vec = isinstance(mine, np.ndarray)
            if mine_vec != isinstance(theirs, np.ndarray):
                return False
            if mine_vec:
                if mine.dtype != theirs.dtype or not np.array_equal(mine, theirs):
                    return False
            elif mine != theirs:
                return False
        return True

    __hash__ = None  # type: ignore[assignment]  # mutable container

    def __repr__(self) -> str:
        return (f"ColumnBatch({self.length} rows x {len(self.columns)} cols, "
                f"sign={self.sign})")

    # -- pickling (the processes executor ships batches over pipes) --

    def __getstate__(self):
        # the row cache is derived state: keep the pickled payload columnar
        return (self.columns, self.length, self.sign)

    def __setstate__(self, state):
        columns, length, sign = state
        self.columns = columns
        self.length = length
        self.sign = sign
        self._rows = None


class ColumnEmissions:
    """One component's emissions as a single-stream columnar batch.

    Duck-types the row emission list ``List[(stream, row)]`` -- ``len``
    counts rows (metrics), iteration yields ``(stream, row)`` pairs (any
    row-oriented consumer) -- while the router unwraps it and hands the
    :class:`ColumnBatch` straight to the groupings, skipping both the
    coalescing scan and the row materialization.
    """

    __slots__ = ("stream", "batch")

    def __init__(self, stream: str, batch: ColumnBatch):
        self.stream = stream
        self.batch = batch

    def __len__(self) -> int:
        return len(self.batch)

    def __bool__(self) -> bool:
        return len(self.batch) > 0

    def __iter__(self) -> Iterator[Tuple[str, tuple]]:
        stream = self.stream
        return iter([(stream, row) for row in self.batch.to_rows()])

    def __repr__(self) -> str:
        return f"ColumnEmissions({self.stream!r}, {self.batch!r})"


def hash_column(col: ColumnData) -> np.ndarray:
    """Vectorized :func:`repro.util.stable_hash` over one column.

    ``int64`` vectors use the same fold-and-multiply arithmetic as the
    scalar hash (NumPy's ``>>`` is an arithmetic shift, matching Python's
    for every in-range int); any other representation falls back to the
    scalar hash per value.  Returns a ``uint64`` vector of 32-bit hashes.
    """
    if isinstance(col, np.ndarray) and col.dtype == np.int64:
        folded = (col ^ (col >> np.int64(32))).astype(np.uint64) & _MASK32
        return (folded * _KNUTH) & _MASK32
    values = col.tolist() if isinstance(col, np.ndarray) else col
    return np.fromiter((stable_hash(v) for v in values), dtype=np.uint64,
                       count=len(values))


def hash_key_columns(batch: ColumnBatch,
                     positions: Sequence[int]) -> np.ndarray:
    """``stable_hash(tuple(row[p] for p in positions))`` for every row.

    Replays the tuple branch of ``stable_hash`` -- an FNV-1a fold over
    the per-position hashes -- as whole-column arithmetic.
    """
    acc = np.full(len(batch), _FNV_OFFSET, dtype=np.uint64)
    for position in positions:
        acc = ((acc ^ hash_column(batch.columns[position])) * _FNV_PRIME) \
            & _MASK32
    return acc


#: from this many rows on, ``bucket_by_task`` sorts 16-bit keys: NumPy
#: radix-sorts them in linear time, several times faster than the int64
#: merge sort -- below it the four extra vector passes cost more
_NARROW_SORT_MIN_ROWS = 2048


def bucket_by_task(batch: ColumnBatch, tasks: np.ndarray):
    """Split a batch into ``[(task, sub_batch)]`` buckets.

    Buckets appear in order of first assignment, matching the row-path
    grouping contract.  One stable argsort groups the row indices by
    task (ascending inside each group, so bucket row order is batch row
    order and a group's head is its first assignment).
    """
    n = len(tasks)
    if n == 0:
        return []
    first = tasks[0]
    if n == 1 or (tasks == first).all():
        return [(int(first), batch)]
    keys = tasks
    if n >= _NARROW_SORT_MIN_ROWS:
        low = int(tasks.min())
        if int(tasks.max()) - low < 1 << 16:
            keys = (tasks - tasks.dtype.type(low)).astype(np.uint16)
    order = keys.argsort(kind="stable")
    grouped = keys[order]
    cuts = np.flatnonzero(grouped[1:] != grouped[:-1]) + 1
    bounds = [0, *cuts.tolist(), n]
    groups = [order[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    groups.sort(key=lambda group: group[0])
    return [(int(tasks[group[0]]), batch.take(group)) for group in groups]
