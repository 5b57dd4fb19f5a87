"""Naive reference evaluators the engine's outputs are checked against.

Plain dicts and loops, no engine code: a result that differs from these
is a failed operation of the benchmark, never an abort.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import Dict, Iterable, List, Sequence


def _index(rows: Iterable[tuple], position: int) -> Dict[object, List[tuple]]:
    index: Dict[object, List[tuple]] = defaultdict(list)
    for row in rows:
        index[row[position]].append(row)
    return index


def join3_count(r_rows, s_rows, t_rows) -> List[tuple]:
    """R(x,y) >< S(y,z) >< T(z,t), COUNT(*) GROUP BY T.t."""
    s_by_y = _index(s_rows, 0)
    t_by_z = _index(t_rows, 0)
    groups: Counter = Counter()
    for _x, y in r_rows:
        for _y, z in s_by_y.get(y, ()):
            for _z, t in t_by_z.get(z, ()):
                groups[t] += 1
    return sorted(groups.items())


def join2_count_sum(r_rows, s_rows) -> List[tuple]:
    """R(x,k) >< S(k,v), COUNT(*), SUM(S.v) GROUP BY R.k."""
    s_by_k = _index(s_rows, 0)
    counts: Counter = Counter()
    sums: Counter = Counter()
    for _x, k in r_rows:
        for _k, v in s_by_k.get(k, ()):
            counts[k] += 1
            sums[k] += v
    return sorted((k, counts[k], sums[k]) for k in counts)


def filter_project_agg(rows, max_shipday: int) -> List[tuple]:
    """SELECT flag, COUNT(*), SUM(price*(1-disc)), AVG(qty) over rows with
    shipday <= max_shipday AND qty < 45 AND disc >= 0.02, GROUP BY flag."""
    counts: Counter = Counter()
    revenue: Dict[int, float] = defaultdict(float)
    quantity: Counter = Counter()
    for shipday, flag, qty, price, disc in rows:
        if shipday <= max_shipday and qty < 45 and disc >= 0.02:
            counts[flag] += 1
            revenue[flag] += price * (1 - disc)
            quantity[flag] += qty
    return sorted((flag, counts[flag], revenue[flag],
                   quantity[flag] / counts[flag]) for flag in counts)


def window_count_sum(events: Sequence[tuple], size: int) -> List[tuple]:
    """Sliding window over (ts, key, value) events in timestamp order:
    every event enters with sign +1 and leaves with sign -1 once its
    timestamp is ``size`` or more behind the newest one; the groups that
    remain are COUNT(*), SUM(value) GROUP BY key."""
    if not events:
        return []
    horizon = events[-1][0] - size
    counts: Counter = Counter()
    sums: Counter = Counter()
    for ts, key, value in events:
        counts[key] += 1
        sums[key] += value
    for ts, key, value in events:
        if ts <= horizon:
            counts[key] -= 1
            sums[key] -= value
    return sorted((key, counts[key], sums[key])
                  for key in counts if counts[key])


def select_flag(events: Iterable[tuple]) -> List[tuple]:
    """Rows of (seq, flag) events with flag = 1."""
    return sorted(event for event in events if event[1] == 1)


def fold_deltas(deltas: Iterable) -> List[tuple]:
    """The multiset a subscriber holds after applying +row/-row deltas."""
    counts: Counter = Counter()
    for delta in deltas:
        counts[delta.row] += delta.sign
    rows: List[tuple] = []
    for row, count in counts.items():
        rows.extend([row] * count)
    return sorted(rows)


def same_rows(got: Sequence[tuple], expected: Sequence[tuple]) -> bool:
    """Multiset equality of two sorted results; floats compare with a
    relative tolerance of 1e-9 (online sums accumulate in arrival order,
    so the last digits depend on the batch size)."""
    if len(got) != len(expected):
        return False
    for a, b in zip(got, expected):
        if len(a) != len(b):
            return False
        for x, y in zip(a, b):
            if isinstance(x, float) or isinstance(y, float):
                if not math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-9):
                    return False
            elif x != y:
                return False
    return True
