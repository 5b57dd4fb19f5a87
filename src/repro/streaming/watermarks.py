"""The punctuation protocol: merged watermarks over many inputs.

A watermark is a promise -- "no emission with event timestamp <= W is
still coming from this input".  A consumer fed by several inputs can only
act on the *minimum* of its inputs' promises, and may act only once every
input has made one.  :class:`WatermarkTracker` is that merge: the
streaming cluster merges the per-source watermarks of its pumps and
broadcasts the result to every windowed task at the pump round's
quiescent point, once everything polled before it has been delivered --
so a watermark can never overtake the rows it vouches for (the classic
aligned-punctuation argument, with the round as the alignment).

An input that finished (end of stream) promises everything: its watermark
becomes ``math.inf`` and it stops constraining the merge.  A merged value
of ``math.inf`` therefore means "no live input constrains event time" and
must not be used to expire windows -- callers treat only *finite*
advances as actionable (see ``StreamingCluster``).
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Optional


class WatermarkTracker:
    """Minimum watermark across a fixed set of inputs.

    Watermark values and end-of-stream are tracked *separately*: a
    timestamp-less input legitimately promises ``inf`` ("I never
    constrain event time") while still having data in flight, so an
    infinite watermark must not read as "this input finished" --
    conflating the two once made the delta sink exit while an upstream
    task was still streaming.
    """

    def __init__(self):
        self._marks: Dict[Hashable, Optional[float]] = {}
        self._done: set = set()

    def register(self, key: Hashable):
        """Declare one input; until it reports, the merge is undefined."""
        if key not in self._marks:
            self._marks[key] = None

    def update(self, key: Hashable, watermark: float):
        """Record an input's promise (watermarks never regress)."""
        current = self._marks[key]
        if current is None or watermark > current:
            self._marks[key] = watermark

    def mark_done(self, key: Hashable):
        """End of stream on one input: it promises everything."""
        self._done.add(key)

    def is_done(self, key: Hashable) -> bool:
        """Whether ``key`` reached end of stream."""
        return key in self._done

    def all_done(self) -> bool:
        """True once every *registered* input reached end of stream."""
        return all(key in self._done for key in self._marks)

    def merged(self) -> Optional[float]:
        """The merged promise: None until every live input reported."""
        if not self._marks:
            return math.inf
        values = [
            math.inf if key in self._done else value
            for key, value in self._marks.items()
        ]
        if any(value is None for value in values):
            return None
        return min(values)
