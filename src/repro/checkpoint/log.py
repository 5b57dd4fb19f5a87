"""The coordinator's change log: the delta stream between two epochs.

Exactly-once recovery needs two halves: a consistent snapshot (the
:class:`~repro.checkpoint.store.CheckpointStore`'s latest manifest) and
the stream of everything that entered the dataplane *after* it.  The
:class:`ChangeLog` is that second half -- an in-order, in-memory WAL of

- ``round`` entries: one pump round's polls, each a source pump's
  post-selection/projection emissions exactly as they were routed (row
  lists or columnar batches alike) with their stream position -- so a
  replay places every row where it first landed, and drives each round
  as the pump drove it (one level pass where rounds are whole) -- and
- ``watermark`` entries: each broadcast watermark advance, interleaved
  at its true position so a replay re-expires windows at the same
  points in the stream.

The log is truncated at every committed checkpoint (those rows are now
covered by the snapshot) and replayed verbatim after a restore.  Each
source row therefore contributes to operator state exactly once: either
it is inside the snapshot, or it is in the log and re-applied to the
rolled-back state -- never both, never neither.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

ROUND = "round"
WATERMARK = "wm"

#: one log record: ("round", [(source, emissions, position), ...]) or
#: ("wm", value)
Entry = Tuple


class ChangeLog:
    """In-order record of dataplane input since the last checkpoint."""

    def __init__(self):
        self._entries: List[Entry] = []
        #: the polls of the round being logged (None: the next poll
        #: opens a round)
        self._round: Optional[list] = None
        #: rows currently in the log (replay cost estimate)
        self.rows = 0

    def begin_round(self) -> None:
        """Mark a round boundary: the next poll opens a new round."""
        self._round = None

    def record_data(self, source: str, emissions: Sequence,
                    position: Tuple) -> None:
        """Log one source micro-batch (after pump-side operators) into
        the current round."""
        if self._round is None:
            self._round = []
            self._entries.append((ROUND, self._round))
        self._round.append((source, emissions, position))
        self.rows += len(emissions)

    def record_watermark(self, watermark: float) -> None:
        """Log one broadcast watermark advance at its stream position."""
        self._entries.append((WATERMARK, watermark))
        self._round = None

    def truncate(self) -> None:
        """Drop everything -- the snapshot now covers it."""
        self._entries = []
        self._round = None
        self.rows = 0

    def replay(self) -> Iterator[Entry]:
        """The logged entries, oldest first.

        Iterates over a copy: recovery replays the log *without*
        re-recording (the entries are still post-checkpoint and stay in
        the log until the next commit truncates it), and a checkpoint
        committed mid-iteration must not mutate the sequence under the
        replayer.
        """
        return iter(list(self._entries))

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)
