"""Partitioner interface shared by all schemes.

A partitioner maps an input tuple of one join relation to the set of
machines (joiner tasks) that must receive it, as a pure function of the
tuple's values: hash dimensions hash one attribute, random ones
(:func:`random_coordinates`) the whole row and its occurrence number.
Schemes differ in how they trade replication for skew resilience (the
paper's SAR principle).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List

import numpy as np

_MASK64 = (1 << 64) - 1


def _mix64(value):
    """SplitMix64's finaliser, on a Python int or a ``uint64`` array
    alike (bit for bit, so the row and batch paths agree)."""
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def random_coordinates(seed: int, dim: int, row_hash, size: int,
                       occurrence=0):
    """Random dimension ``dim``'s coordinate in ``[0, size)`` of the
    ``occurrence``-th copy of the row whose ``stable_hash`` is
    ``row_hash``: Python ints, or ``uint64`` vectors over a batch
    (``hash_key_columns`` of every column; occurrence None for all first
    copies), whose coordinates come back as an ``int64`` vector.

    SplitMix64 mixes the hash with ``(seed, dim)`` and the occurrence
    number (it maps 0 to 0: a first copy keeps the row's cell), so two
    random dimensions of one relation draw independently, copies of one
    row spread, and a retraction given its copy's number lands there."""
    salt = _mix64(_mix64(seed & _MASK64) ^ dim)
    if not isinstance(row_hash, np.ndarray):
        return _mix64(row_hash ^ salt ^ _mix64(occurrence)) % size
    keys = row_hash ^ np.uint64(salt)
    if occurrence is not None:
        keys ^= _mix64(np.asarray(occurrence, dtype=np.uint64))
    return (_mix64(keys) % np.uint64(size)).astype(np.int64)


class UnsupportedJoinError(ValueError):
    """Raised when a scheme cannot execute the given join.

    For example the Hash-Hypercube supports only equi-joins, and hash
    two-way partitioning cannot run band or inequality joins.
    """


class Partitioner:
    """Routes tuples of join input relations to joiner machines."""

    #: total number of joiner machines used by this scheme
    n_machines: int
    #: the relations a random dimension places: it sets copies of one row
    #: apart by their occurrence number, which their emitting task counts
    counts_copies_of: FrozenSet[str] = frozenset()

    def destinations(self, rel_name: str, row: tuple, occurrence: int = 0) -> List[int]:
        """Machine ids in ``[0, n_machines)`` that must receive this tuple,
        the ``occurrence``-th copy of it (read for :attr:`counts_copies_of`)."""
        raise NotImplementedError

    def destination_matrix(self, rel_name: str, batch, occurrences=None):
        """Vectorized ``destinations`` of a ``ColumnBatch`` whose rows are
        the ``occurrences``-th copies (None: all first copies).

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

        Content-insensitive schemes route independently of the join keys
        (a random dimension hashes the whole row and its occurrence
        number) and so perform the same regardless of arrival order
        (section 5).
        """
        raise NotImplementedError

    def supports_task_local_routing(self) -> bool:
        """Whether a row's machines are a pure function of the row (and
        its occurrence number): any process may route it, a recovery
        replay routes it the way the original delivery did, and a
        retraction reaches the machines that stored its insertion.

        True for the static schemes (hash dimensions hash a value, random
        ones the whole row).  Schemes that *adapt to the observed stream*
        (reshaping matrices) must return False: the replay would meet the
        post-failure shape and silently lose matches.  The streaming
        ``processes`` executor refuses such schemes, and their groupings
        refuse a retraction.
        """
        return True
