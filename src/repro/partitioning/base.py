"""Partitioner interface shared by all schemes.

A partitioner maps an input tuple of one join relation to the set of
machines (joiner tasks) that must receive it.  Schemes differ in how they
trade replication for skew resilience (the paper's SAR principle).
"""

from __future__ import annotations

from typing import Dict, List


class UnsupportedJoinError(ValueError):
    """Raised when a scheme cannot execute the given join.

    For example the Hash-Hypercube supports only equi-joins, and hash
    two-way partitioning cannot run band or inequality joins.
    """


class Partitioner:
    """Routes tuples of join input relations to joiner machines."""

    #: total number of joiner machines used by this scheme
    n_machines: int

    def destinations(self, rel_name: str, row: tuple) -> List[int]:
        """Machine ids in ``[0, n_machines)`` that must receive this tuple."""
        raise NotImplementedError

    def destination_matrix(self, rel_name: str, batch):
        """Vectorized ``destinations`` over a whole ``ColumnBatch``.

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

    def supports_task_local_routing(self) -> bool:
        """Whether a recovery replay routes the way the original delivery did.

        Static schemes (hash / random / hybrid hypercube) route each tuple
        independently of what was observed before, so a replay after a
        worker crash lands every row where it first landed.  Schemes that
        *adapt to the observed stream* (reshaping matrices) must return
        False: the replay would meet the post-failure shape and silently
        lose matches.  The streaming ``processes`` executor refuses such
        schemes; batch runs and inline streaming route them exactly.
        """
        return True
