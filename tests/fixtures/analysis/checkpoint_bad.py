# ruff: noqa
"""Seeded reconstructions of routing state a replay cannot repeat.

A shuffle grouping's round-robin cursor advances on every routed batch,
and a random partitioner's generator on every draw: a recovered run
restarts both, so the replayed deltas land on different tasks than the
original delivery -- exactly-once recovery silently breaks.  Neither
class says it is stateful (``supports_task_local_routing() -> False``).
Part 2: a __getstate__ that drops a key which __setstate__ never
restores loses the attribute on every recovery.
"""

import random


class Grouping:
    """Stand-in for the routing base class (resolved by name)."""

    def supports_task_local_routing(self):
        return True


class ForgetfulShuffle(Grouping):
    def __init__(self):
        self._next = 0

    def targets(self, stream, values, n_tasks):
        target = self._next % n_tasks
        self._next += 1
        return [target]


class RandomDraws(Grouping):
    """Never assigns an attribute after __init__: the draw is the
    mutation."""

    def __init__(self, seed):
        self._rng = random.Random(seed)

    def targets(self, stream, values, n_tasks):
        return [self._rng.randrange(n_tasks)]


class LossyOperator:
    def __init__(self, rows):
        self.rows = rows
        self._cache = {}

    def __getstate__(self):
        state = dict(self.__dict__)
        del state["_cache"]
        return state
    # BUG: no __setstate__ -- every recovered instance lacks _cache
