"""Partitioner interface shared by all schemes.

A partitioner maps an input tuple of one join relation to the set of
machines (joiner tasks) that must receive it.  Schemes differ in how they
trade replication for skew resilience (the paper's SAR principle).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

#: where a row stands in its stream: ``(emitting task, the row's index
#: among that task's emissions on the stream)``
Position = Tuple[int, int]

_MASK64 = (1 << 64) - 1


def require_position(position: Optional[Position], what: str) -> Position:
    """``position``, which content-insensitive placement has to go by."""
    if position is None:
        raise ValueError(f"{what} places a row by its stream position")
    return position


def _mix64(value):
    """SplitMix64's finaliser, on a Python int or a ``uint64`` array
    alike (bit for bit, so the row and batch paths agree)."""
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def random_coordinates(seed: int, dim: int, position: Optional[Position],
                       size: int, rows: Optional[int] = None):
    """Random dimension ``dim``'s coordinate in ``[0, size)`` for the row
    at ``position`` (with ``rows``: a vector, for that many rows from it
    on): a hash of ``(seed, dim, task, index)``, never of the row's
    values, and the same wherever and in whatever batches it is taken."""
    task, first = require_position(position, f"random dimension {dim}")
    start = (_mix64(_mix64(seed & _MASK64) ^ dim ^ (task << 32)) + first) \
        & _MASK64
    if rows is None:
        return _mix64(start) % size
    draws = _mix64(np.arange(rows, dtype=np.uint64) + np.uint64(start))
    return (draws % np.uint64(size)).astype(np.int64)


class UnsupportedJoinError(ValueError):
    """Raised when a scheme cannot execute the given join.

    For example the Hash-Hypercube supports only equi-joins, and hash
    two-way partitioning cannot run band or inequality joins.
    """


class Partitioner:
    """Routes tuples of join input relations to joiner machines."""

    #: total number of joiner machines used by this scheme
    n_machines: int

    def destinations(self, rel_name: str, row: tuple,
                     position: Optional[Position] = None) -> List[int]:
        """Machine ids in ``[0, n_machines)`` that must receive this tuple
        at stream ``position`` (which only random schemes read)."""
        raise NotImplementedError

    def destination_matrix(self, rel_name: str, batch,
                           position: Optional[Position] = None):
        """Vectorized ``destinations`` of a ``ColumnBatch`` from ``position``.

        Returns an ``(n_rows, n_copies)`` machine-id matrix (row ``i``
        lists every machine that must receive tuple ``i``), or None when
        the scheme has no vectorized path -- the grouping then falls back
        to per-row ``destinations``.
        """
        return None

    def expected_replication(self, rel_name: str) -> int:
        """How many machines each tuple of ``rel_name`` is sent to."""
        raise NotImplementedError

    def relation_names(self) -> List[str]:
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable summary for the demo-style monitors (paper section 6)."""
        return type(self).__name__

    def replication_factor(self, sizes: Dict[str, int]) -> float:
        """Component input tuples divided by upstream output tuples.

        The paper (section 6) defines the replication factor of a join
        component as the number of tuples it receives divided by the number
        of tuples its immediate upstream components produce.
        """
        produced = sum(sizes.values())
        if produced == 0:
            return 0.0
        received = sum(
            self.expected_replication(rel) * size for rel, size in sizes.items()
        )
        return received / produced

    def is_content_sensitive(self) -> bool:
        """Content-sensitive schemes (hash/range) are prone to temporal skew.

        Content-insensitive schemes route independently of tuple values and
        therefore perform the same regardless of arrival order (section 5).
        """
        raise NotImplementedError

    def random_dimension(self, rel_name: str) -> Optional[int]:
        """A dimension on which ``rel_name``'s rows are placed by a random
        draw (:func:`random_coordinates`, or an rng), or None when none
        is.  A retraction can only be placed where its insertion went by
        a function of the row, so such a relation cannot take
        retractions."""
        return None

    def supports_task_local_routing(self) -> bool:
        """Whether a row's machines are a pure function of the row and its
        stream position: any process may route it, and a recovery replay
        routes it the way the original delivery did.

        True for the static schemes (hash dimensions hash a value, random
        ones the position).  Schemes that *adapt to the observed stream*
        (reshaping matrices) must return False: the replay would meet the
        post-failure shape and silently lose matches.  The streaming
        ``processes`` executor refuses such schemes.
        """
        return True
