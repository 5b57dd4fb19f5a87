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
- **One sign encoding.**  A retraction is a row whose entry in its
  batch's ``signs`` vector is -1, from the source that emits it to the
  subscriber that folds it.  Routing, coalescing and pickling move a
  batch whole, so signs travel with their rows; consumers read them as
  same-sign runs through :func:`sign_runs`.
"""

from __future__ import annotations

from operator import itemgetter
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


def make_column(values: Sequence, kinds=None) -> ColumnData:
    """Pick the columnar representation for one column's values.

    All-``int`` (``bool`` is excluded: ``type(True) is not int``) becomes
    an ``int64`` vector, all-``float`` a ``float64`` vector; anything
    else -- strings, None, mixed types, ints beyond 64 bits -- stays a
    Python list so no value changes type through the adapters.
    ``kinds``, where the caller has it, is the set of the values' types.
    """
    if kinds is None:
        kinds = set(map(type, values))
    if kinds == {int}:
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            return list(values)
    if kinds == {float}:
        return np.array(values, dtype=np.float64)
    return list(values)


def columns_of(rows: Sequence[tuple], check=None) -> List[ColumnData]:
    """Equal-width ``rows`` as columns, each typed by :func:`make_column`.

    Read one position at a time: ``zip(*rows)`` would make an iterator
    per row, and every one counts towards a cyclic collection.
    ``check(position, kinds)``, where given, sees the set of each
    column's value types before the column is built (a stored
    relation's schema check shares this pass).

    >>> from repro.core.columnar import columns_of
    >>> numbers, names = columns_of([(1, "a"), (2, "b")])
    >>> numbers.dtype.name, numbers.tolist(), names
    ('int64', [1, 2], ['a', 'b'])
    """
    if not rows:
        return []
    columns = []
    for position in range(len(rows[0])):
        values = list(map(itemgetter(position), rows))
        kinds = set(map(type, values))
        if check is not None:
            check(position, kinds)
        columns.append(make_column(values, kinds))
    return columns


def stored_columns(rows: Sequence[tuple], check=None) -> List[ColumnData]:
    """:func:`columns_of` for columns held at rest and sliced by every
    scan: each NumPy column is read-only, so no reader writes through its
    view into the store (a slice of a list column is a copy)."""
    columns = columns_of(rows, check)
    for column in columns:
        if isinstance(column, np.ndarray):
            column.flags.writeable = False
    return columns


class ColumnBatch:
    """A micro-batch of rows stored column-wise.

    ``columns[i]`` holds column ``i`` for all ``length`` rows.  ``signs``
    is the per-row ``int8`` sign vector (-1 retracts the row, +1 inserts
    it; ``None``: every row inserts, as in a plain row list) -- the
    dataplane's one spelling of a retraction, carried along by ``take``,
    ``take_columns``, ``concat`` and pickling.  The row view is cached
    after the first ``to_rows`` so repeated row-oriented consumers pay
    the conversion once; a batch made from rows builds its columns on
    first use, so one that only row consumers read (a changelog on its
    way to the sink) never builds them.  A batch given both ``columns``
    and ``rows`` (a scan of a stored relation: views of its stored
    columns and a slice of its rows) builds neither.
    """

    __slots__ = ("_columns", "length", "signs", "_rows")

    def __init__(self, columns: Optional[Sequence[ColumnData]], length: int,
                 signs=None, rows: Optional[List[tuple]] = None):
        self._columns = None if columns is None else list(columns)
        self.length = length
        self.signs: Optional[np.ndarray] = (
            None if signs is None else np.asarray(signs, dtype=np.int8))
        self._rows = rows

    @classmethod
    def from_rows(cls, rows: Sequence[tuple], signs=None) -> "ColumnBatch":
        rows = rows if isinstance(rows, list) else list(rows)
        batch = cls(None, len(rows), signs if rows else None)
        batch._rows = rows
        return batch

    @property
    def columns(self) -> List[ColumnData]:
        if self._columns is None:
            self._columns = columns_of(self._rows)
        return self._columns

    @property
    def width(self) -> int:
        """The number of columns, without building them."""
        if self._columns is not None:
            return len(self._columns)
        return len(self._rows[0]) if self._rows else 0

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

    def take(self, indices) -> "ColumnBatch":
        """Row subset by integer index array (NumPy fancy indexing)."""
        idx = np.asarray(indices, dtype=np.intp)
        cols: List[ColumnData] = [
            col[idx] if isinstance(col, np.ndarray)
            else [col[i] for i in idx.tolist()] for col in self.columns]
        return ColumnBatch(cols, len(idx),
                           None if self.signs is None else self.signs[idx])

    @classmethod
    def concat(cls, batches: Sequence["ColumnBatch"]) -> "ColumnBatch":
        """The rows of ``batches``, in order, as one batch.

        The non-empty parts must agree on the number of columns; their
        signs follow their rows (``None`` unless some part has signs).
        Parts made of rows whose columns were never built concatenate as
        rows.  Typing follows :func:`make_column`: a column whose parts are
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
        parts = [batch for batch in batches if batch.length]
        if len(parts) <= 1:
            return parts[0] if parts else batches[0]
        arity = parts[0].width
        for batch in parts:
            if batch.width != arity:
                raise ValueError(
                    f"cannot concatenate {batch!r} onto {parts[0]!r}: "
                    f"column count must agree")
        signs = None
        if any(batch.signs is not None for batch in parts):
            signs = np.concatenate([
                np.ones(batch.length, dtype=np.int8) if batch.signs is None
                else batch.signs for batch in parts])
        if all(batch._columns is None for batch in parts):  # made of rows
            return cls.from_rows(
                [row for batch in parts for row in batch._rows], signs)
        cols: List[ColumnData] = []
        for position in range(arity):
            column = [batch.columns[position] for batch in parts]
            head = column[0]
            if isinstance(head, np.ndarray) and all(
                    isinstance(col, np.ndarray) and col.dtype == head.dtype
                    for col in column):
                cols.append(np.concatenate(column))
            else:
                cols.append([value for col in column for value in (
                    col.tolist() if isinstance(col, np.ndarray) else col)])
        return cls(cols, sum(batch.length for batch in parts), signs)

    def take_columns(self, positions: Sequence[int]) -> "ColumnBatch":
        """Column subset (projection by position) -- zero-copy."""
        return ColumnBatch([self.columns[p] for p in positions],
                           self.length, self.signs)

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
        if (self.length != other.length
                or len(self.columns) != len(other.columns)
                or (self.signs is None) != (other.signs is None)
                or (self.signs is not None
                    and not np.array_equal(self.signs, other.signs))):
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
        signs = "" if self.signs is None else f", signs={self.signs.tolist()}"
        return (f"ColumnBatch({self.length} rows x {self.width} cols"
                f"{signs})")

    # -- pickling (the processes executor ships batches over pipes) --

    def __getstate__(self):
        # whichever form is the data travels, the other is derived: the
        # columns, or the rows of a batch that never built its columns
        return (self._columns, self.length, self.signs,
                self._rows if self._columns is None else None)

    def __setstate__(self, state):
        self._columns, self.length, self.signs, self._rows = state


def sign_runs(rows) -> List[Tuple[int, object]]:
    """A payload's maximal same-sign runs, in order, as ``(sign, rows)``.

    How every consumer reads signs: a row list or an unsigned
    :class:`ColumnBatch` is one insertion run, the payload itself (one
    ``is None`` test per batch); a signed batch is cut where its sign
    changes, each run a :meth:`ColumnBatch.take` of the whole.

    >>> from repro.core.columnar import ColumnBatch, sign_runs
    >>> batch = ColumnBatch.from_rows([(1,), (2,), (3,)], signs=[1, -1, -1])
    >>> [(sign, run.to_rows()) for sign, run in sign_runs(batch)]
    [(1, [(1,)]), (-1, [(2,), (3,)])]
    """
    signs = rows.signs if isinstance(rows, ColumnBatch) else None
    if signs is None or not len(signs):
        return [(1, rows)]
    bounds = [0, *(np.flatnonzero(signs[1:] != signs[:-1]) + 1).tolist(),
              len(signs)]
    if len(bounds) == 2:
        return [(int(signs[0]), rows)]
    return [(int(signs[lo]), rows.take(np.arange(lo, hi)))
            for lo, hi in zip(bounds, bounds[1:])]


class ColumnEmissions:
    """One component's emissions as a single-stream columnar batch.

    Stands in for the row emission list ``List[(stream, row)]`` --
    ``len`` counts rows (metrics) -- while the router unwraps it and
    hands the :class:`ColumnBatch` straight to the groupings, skipping
    both the coalescing scan and the row materialization.  It has no
    ``(stream, row)`` iteration: a pair has no sign, so that view would
    turn its retractions into insertions.
    """

    __slots__ = ("stream", "batch")

    def __init__(self, stream: str, batch: ColumnBatch):
        self.stream = stream
        self.batch = batch

    def __len__(self) -> int:
        return len(self.batch)

    def __bool__(self) -> bool:
        return len(self.batch) > 0

    def __repr__(self) -> str:
        return f"ColumnEmissions({self.stream!r}, {self.batch!r})"


def hash_column(col: ColumnData) -> np.ndarray:
    """Vectorized :func:`repro.util.stable_hash` over one column.

    ``int64`` vectors use the same fold-and-multiply arithmetic as the
    scalar hash (NumPy's ``>>`` is an arithmetic shift, matching Python's
    for every in-range int); from :data:`_CRC_MIN_ROWS` rows on,
    ``float64`` vectors and all-``str`` columns replay its CRC-32 a byte
    position at a time (:func:`_hash_floats`, :func:`_hash_strings`);
    any other column hashes per value.  Returns a ``uint64`` vector of
    32-bit hashes.
    """
    if isinstance(col, np.ndarray) and col.dtype == np.int64:
        return _hash_ints(col)
    large = len(col) >= _CRC_MIN_ROWS
    if large and isinstance(col, np.ndarray) and col.dtype == np.float64:
        return _hash_floats(col)
    values = col.tolist() if isinstance(col, np.ndarray) else col
    hashes = _hash_strings(values) \
        if large and set(map(type, values)) == {str} else None
    if hashes is not None:
        return hashes
    return np.fromiter((stable_hash(v) for v in values), dtype=np.uint64,
                       count=len(values))


#: from this many rows on, a float or string column hashes in whole-column
#: CRC-32 passes; below it the fixed cost of a pass per byte position
#: exceeds the per-value hash (a float column breaks even near 150 rows
#: on 2 vCPUs; a string column's bound grows with its width)
_CRC_MIN_ROWS = 512


def _hash_ints(col: np.ndarray) -> np.ndarray:
    folded = (col ^ (col >> np.int64(32))).astype(np.uint64) & _MASK32
    return (folded * _KNUTH) & _MASK32


def _crc32_table() -> np.ndarray:
    table = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        table = np.where(table & 1, (table >> 1) ^ np.uint32(0xEDB88320),
                         table >> 1)
    return table


_CRC32 = _crc32_table()


def _crc32_rows(data: np.ndarray, lengths=None) -> np.ndarray:
    """``zlib.crc32`` of every row of a matrix of byte values -- of its
    ``lengths[i]`` bytes where ``lengths`` is given -- as ``uint64``."""
    crc = np.full(len(data), 0xFFFFFFFF, dtype=np.uint32)
    for j in range(data.shape[1]):
        step = _CRC32[(crc ^ data[:, j]) & 0xFF] ^ (crc >> 8)
        crc = step if lengths is None else np.where(lengths > j, step, crc)
    return (crc ^ np.uint32(0xFFFFFFFF)).astype(np.uint64)


def _hash_floats(col: np.ndarray) -> np.ndarray:
    """An integral value hashes as its int (``1.0`` as ``1``, ``-0.0`` as
    ``0``), any other as the CRC-32 of its big-endian bytes."""
    hashes = np.empty(len(col), dtype=np.uint64)
    with np.errstate(invalid="ignore"):
        integral = np.isfinite(col) & (np.floor(col) == col)
    small = integral & (np.abs(col) < 2.0 ** 63)
    hashes[small] = _hash_ints(col[small].astype(np.int64))
    fractional = ~integral
    hashes[fractional] = _crc32_rows(
        col[fractional].astype(">f8").view(np.uint8).reshape(-1, 8))
    for index in np.flatnonzero(integral & ~small):  # past 64 bits
        hashes[index] = stable_hash(float(col[index]))
    return hashes


def _hash_strings(values: list) -> Optional[np.ndarray]:
    """The CRC-32 of each string's bytes, read as fixed-width rows of
    code points; None unless every string is ASCII (whose code points
    are its UTF-8 bytes) and free of NUL (which the padding hides), and
    where a pass per character costs more than the per-value hash (under
    100 rows a character: 2 vCPUs read 1,024 rows of 10 characters 213
    against 267 ns a row, of 20 characters 322 against 289)."""
    if len(values) < 100 * max(map(len, values)):
        return None
    text = np.array(values, dtype=str)
    points = text.view(np.uint32).reshape(len(values), -1)
    if (points >= 128).any() or "\0" in "".join(values):
        return None
    return _crc32_rows(points, np.char.str_len(text))


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
