"""Stream groupings: how a stream is partitioned among a bolt's tasks.

Mirrors Storm's grouping vocabulary (shuffle, fields, all, global, custom)
plus two Squall-specific groupings: the hypercube grouping that implements
the partitioning schemes, and the key-mapped grouping that round-robins a
small predefined key domain to avoid hash imperfections (paper section 5).
"""

from __future__ import annotations

import copy
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


def _bucket_append(buckets: Dict[int, List[tuple]], order: List[int],
                   task: int, row: tuple):
    bucket = buckets.get(task)
    if bucket is None:
        buckets[task] = [row]
        order.append(task)
    else:
        bucket.append(row)


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
        buckets: Dict[int, List[tuple]] = {}
        order: List[int] = []
        for row in rows:
            for task in self.targets(stream, row, n_tasks):
                _bucket_append(buckets, order, task, row)
        return [(task, buckets[task]) for task in order]

    def is_content_sensitive(self) -> bool:
        """Content-sensitive groupings route by value and are prone to
        temporal skew (section 5); content-insensitive ones are not."""
        return True

    def task_local(self, memo: Optional[dict] = None) -> "Grouping":
        """An independent copy for one shared-nothing worker.

        Parallel backends route task-locally: every worker owns its own
        grouping state (shuffle counters, random replica choices), so
        routing needs no cross-worker synchronization.  Content-sensitive
        groupings are pure functions of the tuple and copy trivially;
        content-insensitive ones diverge per worker, which only changes
        the interleaving, never the result multiset.  Groupings must be
        deep-copyable and pickle-safe (no open handles, no lambdas) to be
        usable under the 'processes' executor.

        ``memo`` is the deepcopy memo shared across one worker's whole
        routing table, so objects referenced by several groupings (a
        partitioner shared by a join's input edges) stay *shared within
        the worker* instead of silently splitting into diverging copies.
        """
        return copy.deepcopy(self, memo if memo is not None else {})

    def supports_task_local_routing(self) -> bool:
        """Whether per-worker copies of this grouping route consistently.

        False for groupings whose routing *adapts to the globally
        observed stream* (e.g. a reshaping adaptive partitioner): worker
        copies would each see only a slice of the stream, diverge, and
        silently drop join matches.  The processes backend refuses such
        topologies up front; the inline executor runs them exactly.
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
        buckets: Dict[int, List[tuple]] = {}
        order: List[int] = []
        for offset, row in enumerate(rows):
            _bucket_append(buckets, order, (start + offset) % n_tasks, row)
        return [(task, buckets[task]) for task in order]

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
        buckets: Dict[int, List[tuple]] = {}
        order: List[int] = []
        for row in rows:
            key = tuple(row[p] for p in positions)
            _bucket_append(buckets, order, stable_hash(key) % n_tasks, row)
        return [(task, buckets[task]) for task in order]


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
                if matrix.shape[1] == 1:
                    return bucket_by_task(rows, matrix[:, 0])
                out: TaskBatches = []
                for task in range(n_tasks):
                    idx = np.flatnonzero((matrix == task).any(axis=1))
                    if len(idx):
                        out.append((task, rows.take(idx)))
                return out
            rows = rows.to_rows()
        destinations = self.partitioner.destinations
        buckets: Dict[int, List[tuple]] = {}
        order: List[int] = []
        for row in rows:
            for task in destinations(rel_name, row):
                _bucket_append(buckets, order, task, row)
        return [(task, buckets[task]) for task in order]

    def is_content_sensitive(self) -> bool:
        return self.partitioner.is_content_sensitive()

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
        position = self.position
        mapping = self.mapping
        if isinstance(rows, ColumnBatch):
            column = rows.columns[position]
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
            values = rows.column_list(position)
            tasks = np.fromiter(
                ((mapping[key] if key in mapping else stable_hash(key))
                 % n_tasks for key in values),
                dtype=np.int64, count=len(values))
            return bucket_by_task(rows, tasks)
        buckets: Dict[int, List[tuple]] = {}
        order: List[int] = []
        for row in rows:
            key = row[position]
            assigned = mapping.get(key)
            if assigned is None and key not in mapping:
                assigned = stable_hash(key)
            _bucket_append(buckets, order, assigned % n_tasks, row)
        return [(task, buckets[task]) for task in order]
