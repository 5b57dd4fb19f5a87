"""Stream groupings: how a stream is partitioned among a bolt's tasks.

Mirrors Storm's grouping vocabulary (shuffle, fields, all, global) plus
two Squall-specific groupings: the hypercube grouping that implements
the partitioning schemes, and the key-mapped grouping that round-robins a
small predefined key domain to avoid hash imperfections (paper section 5).

Every grouping but the shuffle places a row by its values (and its
occurrence number); the shuffle by its stream position (:data:`Position`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.columnar import (
    ColumnBatch,
    bucket_by_task,
    hash_column,
    hash_key_columns,
)
from repro.partitioning.base import Partitioner, UnsupportedJoinError
from repro.util import stable_hash

#: ordered per-task sub-batches produced by :meth:`Grouping.targets_batch`;
#: under the columnar path the per-task rows are ``ColumnBatch`` instances
TaskBatches = List[Tuple[int, List[tuple]]]

#: where a row stands in its stream: ``(emitting task, the row's index
#: among that task's emissions on the stream)``
Position = Tuple[int, int]


def require_position(position: Optional[Position], what: str) -> Position:
    """``position``, which the shuffle places a row by."""
    if position is None:
        raise ValueError(f"{what} places a row by its stream position")
    return position


def _route_rows(rows, destinations: Callable[[tuple], List[int]]
                ) -> TaskBatches:
    """Per-row routing: ``destinations(row)`` names the tasks of one row;
    the row path of the fields, hypercube and key-mapped groupings, and
    the fallback of their column paths.

    A :class:`ColumnBatch` is bucketed by row index and split with
    ``take``, so each row keeps its sign (and the batch its columns)."""
    buckets: Dict[int, List] = {}
    columnar = isinstance(rows, ColumnBatch)
    for index, row in enumerate(rows):
        for task in destinations(row):
            bucket = buckets.get(task)
            if bucket is None:
                buckets[task] = bucket = []
            bucket.append(index if columnar else row)
    if columnar:
        return [(task, rows.take(bucket)) for task, bucket in buckets.items()]
    return list(buckets.items())


class Grouping:
    """Chooses target task indices for each tuple of a stream: a pure
    function of the row (the shuffle's: of its stream ``position``; a
    random dimension's: also of its occurrence number), unless
    :meth:`supports_task_local_routing` says False.
    """

    def targets_batch(self, stream: str, rows: Sequence[tuple],
                      n_tasks: int,
                      position: Optional[Position] = None) -> TaskBatches:
        """Partition a whole batch -- a row list or a :class:`ColumnBatch`
        -- into per-task sub-batches in one pass; ``position`` is the
        stream position of its first row (the rest follow it on), which
        only the shuffle reads.

        Returns ``[(task, rows), ...]``: row order is preserved within each
        sub-batch, and tasks appear in order of first assignment (on a
        hypercube's column path that replicates: ascending).  A row list
        and the same rows as a ``ColumnBatch`` land on the same tasks;
        the sub-batches keep the input's form.
        """
        raise NotImplementedError

    def is_content_sensitive(self) -> bool:
        """Content-sensitive groupings route by value and are prone to
        temporal skew (section 5); content-insensitive ones are not."""
        return True

    def counts_copies(self) -> bool:
        """Whether a random dimension places the rows: their emitting task
        counts occurrence numbers, which ``targets_batch`` then takes."""
        return False

    def supports_task_local_routing(self) -> bool:
        """Whether this grouping is pure (see the class docstring); False
        where routing *adapts to the globally observed stream*, as
        :meth:`~repro.partitioning.base.Partitioner.\
supports_task_local_routing` explains."""
        return True

    def routing_description(self) -> str:
        """What routes this edge, for human-readable refusal messages.

        Groupings that delegate to another object (a partitioner) override
        this to name the delegate, so errors point at the actual culprit
        rather than the grouping wrapper."""
        return type(self).__name__

    def skew_possible(self) -> bool:
        """Whether per-task load can diverge under this grouping.

        Key-partitioned (content-sensitive) edges concentrate hot keys
        on single tasks -- the signal the observability layer's
        ``partition_skew`` gauge reports and the paper's adaptive
        repartitioning consumes.  Round-robin, broadcast and single-task
        edges are balanced (or trivially equal) by construction, so a
        skew gauge over them would only report batching noise; the
        topology counters export none for those components.
        """
        return self.is_content_sensitive()


class ShuffleGrouping(Grouping):
    """Round-robin distribution -- content-insensitive: row ``i`` of
    emitting task ``t`` goes to task ``(t + i) % n_tasks``."""

    def targets_batch(self, stream: str, rows: Sequence[tuple],
                      n_tasks: int, position=None) -> TaskBatches:
        start = sum(require_position(position, "a shuffle grouping"))
        if isinstance(rows, ColumnBatch):
            tasks = (start + np.arange(len(rows))) % n_tasks
            return bucket_by_task(rows, tasks)
        rows = list(rows)
        return [((start + offset) % n_tasks, rows[offset::n_tasks])
                for offset in range(min(n_tasks, len(rows)))]

    def is_content_sensitive(self) -> bool:
        return False


class FieldsGrouping(Grouping):
    """Hash partitioning on selected field positions."""

    def __init__(self, positions: Sequence[int]):
        if not positions:
            raise ValueError("fields grouping needs at least one position")
        self.positions = tuple(positions)

    def targets_batch(self, stream: str, rows: Sequence[tuple],
                      n_tasks: int, position=None) -> TaskBatches:
        positions = self.positions
        if n_tasks == 1 and len(rows):  # one task: nothing to hash for
            return GlobalGrouping.targets_batch(self, stream, rows, 1)
        if isinstance(rows, ColumnBatch):
            tasks = (hash_key_columns(rows, positions)
                     % np.uint64(n_tasks)).astype(np.int64)
            return bucket_by_task(rows, tasks)
        return _route_rows(rows, lambda row: [
            stable_hash(tuple(row[p] for p in positions)) % n_tasks])


class AllGrouping(Grouping):
    """Broadcast to every task (dimension replication, small dimension tables)."""

    def targets_batch(self, stream: str, rows: Sequence[tuple],
                      n_tasks: int, position=None) -> TaskBatches:
        if isinstance(rows, ColumnBatch):
            # batches are immutable downstream, so replicas share columns
            return [(task, rows) for task in range(n_tasks)]
        return [(task, list(rows)) for task in range(n_tasks)]

    def is_content_sensitive(self) -> bool:
        return False


class GlobalGrouping(Grouping):
    """Everything to task 0 (final single-task aggregation)."""

    def targets_batch(self, stream: str, rows: Sequence[tuple],
                      n_tasks: int, position=None) -> TaskBatches:
        if isinstance(rows, ColumnBatch):
            return [(0, rows)]
        return [(0, list(rows))]

    def is_content_sensitive(self) -> bool:
        return False


class HypercubeGrouping(Grouping):
    """Routes one join input relation through a partitioning scheme.

    The edge from relation ``rel_name``'s source component to the joiner
    asks the shared partitioner for the destination machines of each tuple
    -- this is how Squall builds its schemes from Storm stream groupings.
    """

    def __init__(self, partitioner: Partitioner, rel_name: str):
        self.partitioner = partitioner
        self.rel_name = rel_name

    def targets_batch(self, stream: str, rows: Sequence[tuple], n_tasks: int,
                      position=None, occurrences=None) -> TaskBatches:
        if n_tasks != self.partitioner.n_machines:
            raise ValueError(
                f"joiner parallelism {n_tasks} does not match the scheme's "
                f"{self.partitioner.n_machines} machines"
            )
        rel_name = self.rel_name
        if isinstance(rows, ColumnBatch):
            if (rows.signs is not None and (rows.signs < 0).any()
                    and not self.partitioner.supports_task_local_routing()):
                raise UnsupportedJoinError(
                    f"relation {rel_name!r} retracts rows, but {type(self.partitioner).__name__}"
                    " places rows by what it has seen, so a retraction would miss its insertion")
            matrix = self.partitioner.destination_matrix(rel_name, rows,
                                                         occurrences)
            if matrix is not None:
                if matrix.shape[1] == 1 or not len(matrix):
                    return bucket_by_task(rows, matrix[:, 0])
                # one stable sort groups the (row, task) pairs by task,
                # rows ascending inside each group (a row's machines are
                # distinct, as on the row path)
                flat = matrix.ravel()
                # task ids fit 16 bits: NumPy radix-sorts those
                # (batch_join3 loses 2-8 % to the int64 sort, 2 vCPUs)
                order = flat.astype(np.uint16).argsort(kind="stable") \
                    if n_tasks <= 1 << 16 else flat.argsort(kind="stable")
                tasks, row_ids = flat[order], order // matrix.shape[1]
                cuts = np.flatnonzero(tasks[1:] != tasks[:-1]) + 1
                bounds = [0, *cuts.tolist(), len(tasks)]
                return [(int(tasks[lo]), rows.take(row_ids[lo:hi]))
                        for lo, hi in zip(bounds, bounds[1:])]
        destinations = self.partitioner.destinations
        copies = iter(() if occurrences is None else occurrences)  # in row order
        return _route_rows(rows, lambda row: destinations(rel_name, row, next(copies, 0)))

    def is_content_sensitive(self) -> bool:
        return self.partitioner.is_content_sensitive()

    def counts_copies(self) -> bool:
        return self.rel_name in self.partitioner.counts_copies_of

    def supports_task_local_routing(self) -> bool:
        return self.partitioner.supports_task_local_routing()

    def routing_description(self) -> str:
        return (f"the {type(self.partitioner).__name__} partitioner "
                f"(relation {self.rel_name!r})")


class KeyMappedGrouping(Grouping):
    """Round-robin assignment of a small predefined key domain.

    When the number of distinct GROUP BY / join keys is close to the
    parallelism, hash imperfections easily give one task twice its fair
    share.  Squall instead fixes an optimal key->task mapping up front
    (paper section 5, 'Skew due to hash imperfections').
    """

    #: widest key range given a lookup table (8 bytes a slot); the table
    #: routes a 2 300-row int64 column in ~145 us, binary search in ~290
    #: (one 2-vCPU Xeon core)
    DENSE_SPAN = 1 << 16

    def __init__(self, position: int, mapping: Dict[object, int]):
        if any(type(task) is not int or task < 0
               for task in mapping.values()):
            # the column path's lookup table marks an unmapped key -1
            raise ValueError("a key-mapped grouping maps keys to task "
                             "indices >= 0")
        self.position = position
        self.mapping = dict(mapping)
        #: (sorted keys, their tasks) for ``int64`` key columns, or None
        #: when some mapped key is not a plain in-range int (the per-row
        #: dict lookup then decides what such a key equals)
        self._int_lookup: Optional[Tuple[np.ndarray, np.ndarray]] = None
        #: while the keys span at most DENSE_SPAN: (smallest key, task
        #: per key from it on, -1 for an unmapped one), which a column
        #: indexes directly instead of binary-searching the keys
        self._table: Optional[Tuple[int, np.ndarray]] = None
        info = np.iinfo(np.int64)
        if self.mapping and all(
                type(key) is int and info.min <= key <= info.max
                for key in self.mapping):
            keys = np.array(sorted(self.mapping), dtype=np.int64)
            tasks = np.array([self.mapping[key] for key in keys.tolist()],
                             dtype=np.int64)
            self._int_lookup = (keys, tasks)
            low = int(keys[0])
            if int(keys[-1]) - low < self.DENSE_SPAN:
                table = np.full(int(keys[-1]) - low + 1, -1, dtype=np.int64)
                table[keys - low] = tasks
                self._table = (low, table)

    def _task_of(self, key, n_tasks: int) -> int:
        """The row path's task for one key."""
        try:
            return self.mapping[key] % n_tasks
        except KeyError:
            # unseen key: fall back to hashing rather than dropping data
            return stable_hash(key) % n_tasks

    def targets_batch(self, stream: str, rows: Sequence[tuple],
                      n_tasks: int, position=None) -> TaskBatches:
        column = rows.columns[self.position] \
            if isinstance(rows, ColumnBatch) else None
        if (self._int_lookup is not None and isinstance(column, np.ndarray)
                and column.dtype == np.int64):
            if self._table is not None:
                low, table = self._table
                # a key off the table reads slot 0 and is then marked
                # unseen, as is an unmapped key on it
                outside = (column < low) | (column >= low + len(table))
                tasks = table.take(np.where(outside, 0, column - low))
                unseen = outside | (tasks < 0)
            else:
                keys, assigned = self._int_lookup
                slot = np.minimum(np.searchsorted(keys, column),
                                  len(keys) - 1)
                tasks = assigned[slot]
                unseen = keys[slot] != column
            if unseen.any():
                # unseen key: hash, as the row path does
                tasks[unseen] = hash_column(column[unseen])
            return bucket_by_task(rows, tasks % n_tasks)
        position, task_of = self.position, self._task_of
        return _route_rows(rows, lambda row: [task_of(row[position],
                                                      n_tasks)])
