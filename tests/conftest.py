"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import faulthandler
import itertools
import os
import random
import sys
from typing import Dict, Iterable, List

import pytest

from repro.core.columnar import ColumnBatch, ColumnEmissions
from repro.core.predicates import EquiCondition, JoinSpec, RelationInfo
from repro.core.schema import Schema
from repro.joins.base import JoinSchema
from repro.storm import Spout
from repro.streaming.sources import PushSource

#: seconds one test (setup, call and teardown) may run before the whole
#: run dumps every thread's stack and exits non-zero: >= 3x the slowest
#: Tier-1 test as measured with ``--durations`` (both numbers in
#: CHANGES.md)
TEST_TIMEOUT_S = 120

#: the terminal's stderr, copied while pytest is not capturing it: the
#: watchdog's stacks must outlive the process exit, a capture file does not
_STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[_STDERR_FD] = os.dup(sys.stderr.fileno())


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    """A hung test fails the run instead of hanging it."""
    faulthandler.dump_traceback_later(TEST_TIMEOUT_S, exit=True,
                                      file=item.config.stash[_STDERR_FD])
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def rst_spec():
    """The paper's running example: R(x,y) >< S(y,z) >< T(z,t)."""
    return JoinSpec(
        [
            RelationInfo("R", Schema.of("x", "y"), 1000),
            RelationInfo("S", Schema.of("y", "z"), 1000),
            RelationInfo("T", Schema.of("z", "t"), 1000),
        ],
        [
            EquiCondition(("R", "y"), ("S", "y")),
            EquiCondition(("S", "z"), ("T", "z")),
        ],
    )


def triangle_spec():
    """A cyclic join: R(x,y) >< S(y,z) >< T(z,x)."""
    return JoinSpec(
        [
            RelationInfo("R", Schema.of("x", "y"), 1000),
            RelationInfo("S", Schema.of("y", "z"), 1000),
            RelationInfo("T", Schema.of("z", "x"), 1000),
        ],
        [
            EquiCondition(("R", "y"), ("S", "y")),
            EquiCondition(("S", "z"), ("T", "z")),
            EquiCondition(("T", "x"), ("R", "x")),
        ],
    )


def make_rst_data(seed=0, n=40, y_domain=6, z_domain=5, x_domain=20, t_domain=9):
    """Random data for the R-S-T chain join, sized to keep references fast."""
    rng = random.Random(seed)
    return {
        "R": [(rng.randrange(x_domain), rng.randrange(y_domain)) for _ in range(n)],
        "S": [(rng.randrange(y_domain), rng.randrange(z_domain)) for _ in range(n)],
        "T": [(rng.randrange(z_domain), rng.randrange(t_domain)) for _ in range(n)],
    }


def interleaved_stream(data, seed=0):
    """A shuffled (relation, row) stream from a data dict."""
    rng = random.Random(seed)
    stream = [(name, row) for name, rows in data.items() for row in rows]
    rng.shuffle(stream)
    return stream


# ---------------------------------------------------------------------------
# Scripts with retractions
# ---------------------------------------------------------------------------
#
# A script is a list of ``(stream, row)`` insertions and
# ``retract(stream, row)`` retractions.  Emitted, a retraction is a row
# whose sign is -1 in a ColumnBatch -- a ``(stream, row)`` pair has no sign.


def retract(stream, row):
    """The script entry that retracts ``row`` on ``stream``."""
    return (stream, row, -1)


def script_emissions(script, position, max_rows, columnar=False):
    """The next emissions of ``script`` from ``position``, and where the
    next call starts: insertions as ``(stream, row)`` pairs (a run across
    streams), retractions as one stream's run of rows with signs -1.
    ``columnar`` emits every run of one stream -- inserts and
    retractions alike -- as one batch, signs in script order."""
    head = script[position]
    if not columnar and len(head) == 2:
        end = position
        while (end < len(script) and end - position < max_rows
               and len(script[end]) == 2):
            end += 1
        return script[position:end], end
    end = position
    while (end < len(script) and end - position < max_rows
           and script[end][0] == head[0]
           and (columnar or len(script[end]) == 3)):
        end += 1
    entries = script[position:end]
    signs = [entry[2] if len(entry) == 3 else 1 for entry in entries]
    batch = ColumnBatch.from_rows(
        [entry[1] for entry in entries],
        None if all(sign > 0 for sign in signs) else signs)
    return ColumnEmissions(head[0], batch), end


class ListSpout(Spout):
    """Emits a pre-materialised list of rows on one stream.

    Rows are striped across the spout's tasks, mirroring a partitioned
    input file read by parallel reader tasks.
    """

    def __init__(self, rows, stream: str = "default"):
        self.rows = rows
        self.stream = stream
        self._position = 0
        self._step = 1

    def open(self, task_index: int, parallelism: int):
        self._position = task_index
        self._step = parallelism

    def has_more(self) -> bool:
        return self._position < len(self.rows)

    def next_batch(self, max_rows: int):
        rows = self.rows
        stream = self.stream
        position = self._position
        step = self._step
        stop = min(len(rows), position + step * max_rows)
        emissions = [(stream, rows[i]) for i in range(position, stop, step)]
        self._position = position + step * len(emissions)
        return emissions


class ScriptSpout(Spout):
    """Replays a fixed script of insertions and retractions."""

    def __init__(self, script):
        self._script = list(script)
        self._position = 0
        #: set by LocalCluster.run: emit every run as a ColumnBatch
        self.columnar = False

    def open(self, task_index, parallelism):
        if parallelism != 1:
            raise ValueError("ScriptSpout is single-task")

    def has_more(self):
        return self._position < len(self._script)

    def next_batch(self, max_rows):
        if not self.has_more():
            return []
        emissions, self._position = script_emissions(
            self._script, self._position, max_rows, self.columnar)
        return emissions


class ScriptSource(PushSource):
    """The push-source twin of :class:`ScriptSpout`."""

    def __init__(self, script):
        self._script = list(script)
        self._position = 0

    def poll(self, max_rows):
        if self.exhausted():
            return []
        emissions, self._position = script_emissions(
            self._script, self._position, max_rows)
        return emissions

    def exhausted(self):
        return self._position >= len(self._script)


def retracting(rows):
    """``rows`` as a batch of retractions."""
    return ColumnBatch.from_rows(list(rows), [-1] * len(rows))


def changelog(changes):
    """``(sign, row)`` pairs as the one signed batch that carries them."""
    return ColumnBatch.from_rows([row for _sign, row in changes],
                                 [sign for sign, _row in changes])


def changes_of(emissions, stream=None):
    """One bolt's emissions as ``(sign, row)`` pairs, in order (and, given
    ``stream``, checked to travel on it)."""
    if not emissions:
        return []
    if not isinstance(emissions, ColumnEmissions):
        assert stream is None or {s for s, _row in emissions} == {stream}
        return [(1, row) for _stream, row in emissions]
    assert stream is None or emissions.stream == stream
    batch = emissions.batch
    signs = [1] * len(batch) if batch.signs is None else batch.signs.tolist()
    return list(zip(signs, batch.to_rows()))


# -- join oracles --------------------------------------------------------------


def satisfies_all(spec: JoinSpec, join_schema: JoinSchema,
                  rows_by_relation: Dict[str, tuple]) -> bool:
    """Check every condition among the bound relations."""
    for cond in spec.conditions:
        left_rel, left_attr = cond.left
        right_rel, right_attr = cond.right
        if left_rel not in rows_by_relation or right_rel not in rows_by_relation:
            continue
        left_value = rows_by_relation[left_rel][
            join_schema.schemas[left_rel].index_of(left_attr)
        ]
        right_value = rows_by_relation[right_rel][
            join_schema.schemas[right_rel].index_of(right_attr)
        ]
        if not cond.evaluate(left_value, right_value):
            return False
    return True


def reference_join(spec: JoinSpec, data: Dict[str, Iterable[tuple]]) -> List[tuple]:
    """Naive nested-loop multi-way join -- the tests' ground truth.

    Evaluates the full Cartesian product filtered by every condition, so it
    is only usable on small inputs, but it is obviously correct.
    """
    join_schema = JoinSchema.from_spec(spec)
    names = join_schema.order
    pools = [list(data.get(name, ())) for name in names]
    output = []
    for combo in itertools.product(*pools):
        rows_by_relation = dict(zip(names, combo))
        if satisfies_all(spec, join_schema, rows_by_relation):
            output.append(join_schema.flatten(rows_by_relation))
    return output
