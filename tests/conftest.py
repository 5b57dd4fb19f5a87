"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import faulthandler
import os
import random
import sys

import pytest

from repro.core.predicates import EquiCondition, JoinSpec, RelationInfo
from repro.core.schema import Schema

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
