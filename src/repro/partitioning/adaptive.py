"""Adaptive 1-Bucket operator (Elseidy, Elguindy, Vitorovic, Koch -- VLDB'14).

In an online system the relative relation sizes change at run time, so the
optimal 1-Bucket matrix shape drifts (e.g. from 8x1 while only R tuples
have arrived towards 4x2 and 2x4 as S catches up).  The adaptive operator
monitors the observed cardinalities, reshapes the matrix when a better
shape exists, and migrates the minimum amount of stored state.  Migration
is modelled as non-blocking: it happens between tuples and is accounted in
``migrated_tuples`` (network cost) rather than stalling the stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.partitioning.base import Partitioner
from repro.partitioning.two_way import choose_matrix
from repro.util import make_rng


@dataclass
class ReshapeEvent:
    """Record of one matrix reshape, for the demo-style monitors."""

    at_tuple: int
    old_shape: Tuple[int, int]
    new_shape: Tuple[int, int]
    migrated_tuples: int


class AdaptiveOneBucket(Partitioner):
    """1-Bucket with online matrix reshaping and minimal state migration.

    The row coordinate of a stored left tuple under the new shape is
    ``old_row * new_rows // old_rows`` (and symmetrically for columns),
    which splits/merges contiguous row groups -- the minimal-movement
    remapping of the Adaptive 1-Bucket paper.  Tuple copies whose machine
    changes are counted as migrated.
    """

    def __init__(self, left: str, right: str, machines: int, seed: int = 0,
                 check_interval: int = 256, improvement_threshold: float = 0.2,
                 initial_shape: Optional[Tuple[int, int]] = None):
        if machines <= 0:
            raise ValueError("machines must be positive")
        if check_interval <= 0:
            raise ValueError("check_interval must be positive")
        self.left = left
        self.right = right
        self.machines = machines
        self.check_interval = check_interval
        self.improvement_threshold = improvement_threshold
        self._rng = make_rng(seed)
        self.rows, self.cols = initial_shape or choose_matrix(machines, 1, 1)
        self.n_machines = machines
        self.seen = {left: 0, right: 0}
        self.total_seen = 0
        self.migrated_tuples = 0
        self.reshapes: List[ReshapeEvent] = []
        # stored coordinates: (relation, tuple id) -> row or col index
        self._coords: Dict[Tuple[str, int], int] = {}
        self._next_id = 0

    def supports_task_local_routing(self) -> bool:
        # routing depends on the globally observed stream (reshapes,
        # stored-tuple coordinates, the rng's draws); a recovery replay
        # would route differently, so streaming 'processes' refuses this
        return False

    # -- routing ---------------------------------------------------------

    def relation_names(self) -> List[str]:
        return [self.left, self.right]

    def random_dimension(self, rel_name: str) -> Optional[int]:
        return 0 if rel_name == self.left else 1

    def destinations(self, rel_name: str, row: tuple,
                     position=None) -> List[int]:
        machines, _tuple_id = self.route(rel_name, row)
        return machines

    def route(self, rel_name: str, row: tuple) -> Tuple[List[int], int]:
        """Route a tuple; returns (machines, stored tuple id).

        The tuple id lets callers associate stored state with this tuple so
        reshaping can tell them what moved (see :meth:`machine_of`).
        """
        self.seen[rel_name] += 1
        self.total_seen += 1
        tuple_id = self._next_id
        self._next_id += 1
        if rel_name == self.left:
            coord = self._rng.randrange(self.rows)
            self._coords[(self.left, tuple_id)] = coord
            machines = [coord * self.cols + c for c in range(self.cols)]
        elif rel_name == self.right:
            coord = self._rng.randrange(self.cols)
            self._coords[(self.right, tuple_id)] = coord
            machines = [r * self.cols + coord for r in range(self.rows)]
        else:
            raise KeyError(f"unknown relation {rel_name!r}")
        if self.total_seen % self.check_interval == 0:
            self._maybe_reshape()
        return machines, tuple_id

    # -- adaptivity ------------------------------------------------------

    def current_max_load(self) -> float:
        return self.seen[self.left] / self.rows + self.seen[self.right] / self.cols

    def _maybe_reshape(self):
        new_rows, new_cols = choose_matrix(
            self.machines, max(self.seen[self.left], 1), max(self.seen[self.right], 1)
        )
        if (new_rows, new_cols) == (self.rows, self.cols):
            return
        new_load = self.seen[self.left] / new_rows + self.seen[self.right] / new_cols
        current = self.current_max_load()
        if current <= 0 or (current - new_load) / current < self.improvement_threshold:
            return
        self._reshape(new_rows, new_cols)

    def _reshape(self, new_rows: int, new_cols: int):
        old_rows, old_cols = self.rows, self.cols
        migrated = 0
        for (rel, tuple_id), coord in list(self._coords.items()):
            if rel == self.left:
                old_machines = {coord * old_cols + c for c in range(old_cols)}
                new_coord = coord * new_rows // old_rows
                new_machines = {new_coord * new_cols + c for c in range(new_cols)}
            else:
                old_machines = {r * old_cols + coord for r in range(old_rows)}
                new_coord = coord * new_cols // old_cols
                new_machines = {r * new_cols + new_coord for r in range(new_rows)}
            migrated += len(new_machines - old_machines)
            self._coords[(rel, tuple_id)] = new_coord
        self.rows, self.cols = new_rows, new_cols
        self.migrated_tuples += migrated
        self.reshapes.append(
            ReshapeEvent(self.total_seen, (old_rows, old_cols),
                         (new_rows, new_cols), migrated)
        )

    # -- misc ------------------------------------------------------------

    def expected_replication(self, rel_name: str) -> int:
        if rel_name == self.left:
            return self.cols
        if rel_name == self.right:
            return self.rows
        raise KeyError(f"unknown relation {rel_name!r}")

    def is_content_sensitive(self) -> bool:
        return False

    def describe(self) -> str:
        return (
            f"Adaptive 1-Bucket {self.rows}x{self.cols} "
            f"({len(self.reshapes)} reshapes, {self.migrated_tuples} migrated)"
        )
