"""Stream groupings: how a stream is partitioned among a bolt's tasks.

Mirrors Storm's grouping vocabulary (shuffle, fields, all, global, custom)
plus two Squall-specific groupings: the hypercube grouping that implements
the partitioning schemes, and the key-mapped grouping that round-robins a
small predefined key domain to avoid hash imperfections (paper section 5).
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
from repro.partitioning.base import Partitioner
from repro.util import stable_hash

#: ordered per-task sub-batches produced by :meth:`Grouping.targets_batch`;
#: under the columnar path the per-task rows are ``ColumnBatch`` instances
TaskBatches = List[Tuple[int, List[tuple]]]


def _route_rows(rows, destinations: Callable[[tuple], List[int]]
                ) -> TaskBatches:
    """Per-row routing: ``destinations(row)`` names one row's tasks; the
    row path of every grouping, and the fallback of the vectorized ones.

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
    """Chooses target task indices for each tuple of a stream."""

    def targets(self, stream: str, values: tuple, n_tasks: int) -> List[int]:
        raise NotImplementedError

    def targets_batch(self, stream: str, rows: Sequence[tuple],
                      n_tasks: int) -> TaskBatches:
        """Partition a whole batch into per-task sub-batches in one pass.

        Returns ``[(task, rows), ...]``: row order is preserved within each
        sub-batch and tasks appear in order of first assignment, so for a
        single-row batch the task order equals ``targets``.  The base
        implementation falls back to per-tuple ``targets``; subclasses
        override it with a vectorized single pass.
        """
        targets = self.targets
        return _route_rows(rows, lambda row: targets(stream, row, n_tasks))

    def is_content_sensitive(self) -> bool:
        """Content-sensitive groupings route by value and are prone to
        temporal skew (section 5); content-insensitive ones are not."""
        return True

    def supports_task_local_routing(self) -> bool:
        """Whether a recovery replay routes through this grouping the way
        the original delivery did.

        False for groupings whose routing *adapts to the globally
        observed stream* (e.g. a reshaping adaptive partitioner): after a
        worker crash the replayed rows would meet the post-failure shape,
        land on other partitions, and silently drop join matches.  The
        streaming ``processes`` executor refuses such topologies up
        front; batch runs (which never replay) and inline streaming run
        them exactly.
        """
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
        observer skips those components.
        """
        return self.is_content_sensitive()

    def routing_state(self):
        """Mutable routing state to include in a checkpoint, or None.

        Exactly-once recovery replays the post-checkpoint delta stream
        through the *same* routing decisions as the original delivery;
        stateful groupings (the shuffle round-robin counter) expose their
        cursor here so :meth:`restore_routing_state` can rewind it.
        Stateless groupings -- pure functions of the tuple -- return
        None and need no rewind.
        """
        return None

    def restore_routing_state(self, state) -> None:
        """Rewind routing state captured by :meth:`routing_state`."""

    def routing_owners(self) -> tuple:
        """The objects whose state this grouping's routing reads or
        writes: itself, plus any delegate another edge's grouping may
        share (a join's partitioner, a custom function).  Two edges
        whose owners are disjoint route independently of each other's
        call order."""
        return (self,)


class ShuffleGrouping(Grouping):
    """Round-robin distribution -- content-insensitive."""

    def __init__(self):
        self._next = 0

    def routing_state(self):
        return self._next

    def restore_routing_state(self, state) -> None:
        self._next = state

    def targets(self, stream: str, values: tuple, n_tasks: int) -> List[int]:
        target = self._next % n_tasks
        self._next += 1
        return [target]

    def targets_batch(self, stream: str, rows: Sequence[tuple],
                      n_tasks: int) -> TaskBatches:
        start = self._next
        self._next += len(rows)
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

    def targets(self, stream: str, values: tuple, n_tasks: int) -> List[int]:
        key = tuple(values[p] for p in self.positions)
        return [stable_hash(key) % n_tasks]

    def targets_batch(self, stream: str, rows: Sequence[tuple],
                      n_tasks: int) -> TaskBatches:
        positions = self.positions
        if isinstance(rows, ColumnBatch):
            tasks = (hash_key_columns(rows, positions)
                     % np.uint64(n_tasks)).astype(np.int64)
            return bucket_by_task(rows, tasks)
        return _route_rows(rows, lambda row: [
            stable_hash(tuple(row[p] for p in positions)) % n_tasks])


class AllGrouping(Grouping):
    """Broadcast to every task (dimension replication, small dimension tables)."""

    def targets(self, stream: str, values: tuple, n_tasks: int) -> List[int]:
        return list(range(n_tasks))

    def targets_batch(self, stream: str, rows: Sequence[tuple],
                      n_tasks: int) -> TaskBatches:
        if isinstance(rows, ColumnBatch):
            # batches are immutable downstream, so replicas share columns
            return [(task, rows) for task in range(n_tasks)]
        return [(task, list(rows)) for task in range(n_tasks)]

    def is_content_sensitive(self) -> bool:
        return False


class GlobalGrouping(Grouping):
    """Everything to task 0 (final single-task aggregation)."""

    def targets(self, stream: str, values: tuple, n_tasks: int) -> List[int]:
        return [0]

    def targets_batch(self, stream: str, rows: Sequence[tuple],
                      n_tasks: int) -> TaskBatches:
        if isinstance(rows, ColumnBatch):
            return [(0, rows)]
        return [(0, list(rows))]

    def is_content_sensitive(self) -> bool:
        return False


class CustomGrouping(Grouping):
    """Delegates to a user function ``fn(stream, values, n_tasks) -> [task]``."""

    def __init__(self, fn: Callable[[str, tuple, int], List[int]],
                 content_sensitive: bool = True):
        self.fn = fn
        self._content_sensitive = content_sensitive

    def targets(self, stream: str, values: tuple, n_tasks: int) -> List[int]:
        return self.fn(stream, values, n_tasks)

    def is_content_sensitive(self) -> bool:
        return self._content_sensitive

    def routing_owners(self) -> tuple:
        return (self, self.fn)


class HypercubeGrouping(Grouping):
    """Routes one join input relation through a partitioning scheme.

    The edge from relation ``rel_name``'s source component to the joiner
    asks the shared partitioner for the destination machines of each tuple
    -- this is how Squall builds its schemes from Storm stream groupings.
    """

    def __init__(self, partitioner: Partitioner, rel_name: str):
        self.partitioner = partitioner
        self.rel_name = rel_name

    def targets(self, stream: str, values: tuple, n_tasks: int) -> List[int]:
        if n_tasks != self.partitioner.n_machines:
            raise ValueError(
                f"joiner parallelism {n_tasks} does not match the scheme's "
                f"{self.partitioner.n_machines} machines"
            )
        return self.partitioner.destinations(self.rel_name, values)

    def targets_batch(self, stream: str, rows: Sequence[tuple],
                      n_tasks: int) -> TaskBatches:
        if n_tasks != self.partitioner.n_machines:
            raise ValueError(
                f"joiner parallelism {n_tasks} does not match the scheme's "
                f"{self.partitioner.n_machines} machines"
            )
        rel_name = self.rel_name
        if isinstance(rows, ColumnBatch):
            matrix = self.partitioner.destination_matrix(rel_name, rows)
            if matrix is not None:
                if matrix.shape[1] == 1 or not len(matrix):
                    return bucket_by_task(rows, matrix[:, 0])
                # one stable sort groups the (row, task) pairs by task,
                # rows ascending inside each group (a row's machines are
                # distinct, as on the row path)
                flat = matrix.ravel()
                order = flat.argsort(kind="stable")
                tasks, row_ids = flat[order], order // matrix.shape[1]
                cuts = np.flatnonzero(tasks[1:] != tasks[:-1]) + 1
                bounds = [0, *cuts.tolist(), len(tasks)]
                return [(int(tasks[lo]), rows.take(row_ids[lo:hi]))
                        for lo, hi in zip(bounds, bounds[1:])]
        destinations = self.partitioner.destinations
        return _route_rows(rows, lambda row: destinations(rel_name, row))

    def is_content_sensitive(self) -> bool:
        return self.partitioner.is_content_sensitive()

    def supports_task_local_routing(self) -> bool:
        return self.partitioner.supports_task_local_routing()

    def routing_owners(self) -> tuple:
        return (self, self.partitioner)

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

    def __init__(self, position: int, mapping: Dict[object, int]):
        self.position = position
        self.mapping = dict(mapping)
        #: (sorted keys, their tasks) for ``int64`` key columns, or None
        #: when some mapped key is not a plain in-range int (the per-row
        #: dict lookup then decides what such a key equals)
        self._int_lookup: Optional[Tuple[np.ndarray, np.ndarray]] = None
        info = np.iinfo(np.int64)
        if self.mapping and all(
                type(key) is int and info.min <= key <= info.max
                for key in self.mapping):
            keys = np.array(sorted(self.mapping), dtype=np.int64)
            self._int_lookup = (keys, np.array(
                [self.mapping[key] for key in keys.tolist()], dtype=np.int64))

    def targets(self, stream: str, values: tuple, n_tasks: int) -> List[int]:
        key = values[self.position]
        try:
            return [self.mapping[key] % n_tasks]
        except KeyError:
            # unseen key: fall back to hashing rather than dropping data
            return [stable_hash(key) % n_tasks]

    def targets_batch(self, stream: str, rows: Sequence[tuple],
                      n_tasks: int) -> TaskBatches:
        column = rows.columns[self.position] \
            if isinstance(rows, ColumnBatch) else None
        if (self._int_lookup is not None and isinstance(column, np.ndarray)
                and column.dtype == np.int64):
            keys, assigned = self._int_lookup
            slot = np.minimum(np.searchsorted(keys, column), len(keys) - 1)
            tasks = assigned[slot]
            unseen = keys[slot] != column
            if unseen.any():
                # unseen key: hash, as ``targets`` does
                tasks[unseen] = hash_column(column[unseen])
            return bucket_by_task(rows, tasks % n_tasks)
        targets = self.targets
        return _route_rows(rows, lambda row: targets(stream, row, n_tasks))
