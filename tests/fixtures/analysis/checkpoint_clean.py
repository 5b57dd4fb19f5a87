# ruff: noqa
"""The replay-safe versions: a shuffle that is a pure function of the
row's stream position (what ShuffleGrouping does), a stateful router
that says so (what AdaptiveOneBucket does), and a dropped pickle key
rebuilt in __setstate__ (what Selection does)."""

import random


class Grouping:
    """Stand-in for the routing base class (resolved by name)."""

    def supports_task_local_routing(self):
        return True


class PositionShuffle(Grouping):
    def targets(self, stream, values, n_tasks, position):
        task, index = position
        return [(task + index) % n_tasks]


class AdaptiveDraws(Grouping):
    def __init__(self, seed):
        self._rng = random.Random(seed)
        self.seen = 0

    def supports_task_local_routing(self):
        return False

    def targets(self, stream, values, n_tasks, position):
        self.seen += 1
        return [self._rng.randrange(n_tasks)]


class RestoringOperator:
    def __init__(self, rows):
        self.rows = rows
        self._cache = {}

    def __getstate__(self):
        state = dict(self.__dict__)
        del state["_cache"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._cache = {}
