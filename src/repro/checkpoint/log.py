"""The coordinator's change log: the delta stream between two epochs.

Exactly-once recovery needs two halves: a consistent snapshot (the
:class:`~repro.checkpoint.store.CheckpointStore`'s latest manifest) and
the stream of everything that entered the dataplane *after* it.  The
:class:`ChangeLog` is that second half -- an in-order, in-memory WAL of
pump rounds, each ``(polls, watermark)``:

- ``polls``: the round's polls, each a source pump's
  post-selection/projection emissions exactly as they were routed (row
  lists or columnar batches alike) with their stream position -- so a
  replay places every row where it first landed, and drives each round
  as the pump drove it (one level pass where rounds are whole) -- and
- ``watermark``: the watermark advance that closed the round, or None,
  so a replay re-expires windows at the same points in the stream.

The log is truncated at every committed checkpoint (those rows are now
covered by the snapshot) and replayed verbatim after a restore.  Each
source row therefore contributes to operator state exactly once: either
it is inside the snapshot, or it is in the log and re-applied to the
rolled-back state -- never both, never neither.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple


class ChangeLog:
    """In-order record of dataplane input since the last checkpoint."""

    def __init__(self):
        #: every logged round as ``[polls, watermark]``, and the one
        #: being logged (None: the next record opens a round)
        self._entries: List[list] = []
        self._round: Optional[list] = None
        #: rows currently in the log (replay cost estimate)
        self.rows = 0

    def begin_round(self) -> None:
        """Mark a round boundary: the next record opens a new round."""
        self._round = None

    def _open(self) -> list:
        if self._round is None:
            self._round = [[], None]
            self._entries.append(self._round)
        return self._round

    def record_data(self, source: str, emissions: Sequence,
                    position: Tuple) -> None:
        """Log one source micro-batch (after pump-side operators) into
        the current round."""
        self._open()[0].append((source, emissions, position))
        self.rows += len(emissions)

    def close_round(self, watermark: float) -> None:
        """Close the current round (one that polled nothing, if none is
        open) with the watermark advance that ends it."""
        self._open()[1] = watermark
        self._round = None

    def truncate(self) -> None:
        """Drop everything -- the snapshot now covers it."""
        self._entries = []
        self._round = None
        self.rows = 0

    def replay(self) -> Iterator[Tuple[list, Optional[float]]]:
        """The logged rounds, oldest first.

        Iterates over a copy: recovery replays the log *without*
        re-recording (the rounds are still post-checkpoint and stay in
        the log until the next commit truncates it), and a checkpoint
        committed mid-iteration must not mutate the sequence under the
        replayer.
        """
        return iter([(polls, watermark)
                     for polls, watermark in self._entries])

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)
