"""Shared low-level utilities: stable hashing, seeded RNG helpers and
the usable core count.

Python's built-in ``hash`` is salted per process for strings, which would
make partitioning decisions irreproducible across runs.  All partitioning
schemes therefore use :func:`stable_hash`, a deterministic 32-bit hash.
"""

from __future__ import annotations

import os
import random
import struct
import zlib

_KNUTH = 2654435761  # Knuth's multiplicative hashing constant (2^32 / phi)
_MASK32 = 0xFFFFFFFF


def stable_hash(value) -> int:
    """Return a deterministic 32-bit hash of ``value``.

    Supports ints, floats, strings, bytes, None and flat tuples of these.
    The function is stable across processes and Python versions, unlike the
    built-in ``hash`` (which is salted for ``str``).

    Values that compare equal hash equal, as with the built-in ``hash``:
    an integral float hashes as its int (``1.0`` as ``1``, ``-0.0`` as
    ``0``) and ``True`` as ``1``.  Hash partitioning relies on it -- a
    join compares keys with ``==``, so ``1`` and ``1.0`` must land on the
    same task.
    """
    if isinstance(value, int):  # bool included: True hashes as 1
        # Fold in the upper bits so that values larger than 32 bits still
        # contribute, then scramble with the multiplicative constant.
        folded = (value ^ (value >> 32)) & _MASK32
        return (folded * _KNUTH) & _MASK32
    if isinstance(value, str):
        return zlib.crc32(value.encode("utf-8")) & _MASK32
    if isinstance(value, bytes):
        return zlib.crc32(value) & _MASK32
    if isinstance(value, float):
        if value.is_integer():
            return stable_hash(int(value))
        return zlib.crc32(struct.pack("!d", value)) & _MASK32
    if value is None:
        return 0x9E3779B9
    if isinstance(value, tuple):
        acc = 0x811C9DC5
        for item in value:
            acc = ((acc ^ stable_hash(item)) * 0x01000193) & _MASK32
        return acc
    raise TypeError(f"stable_hash does not support {type(value).__name__}")


def hash_to_bucket(value, buckets: int) -> int:
    """Map ``value`` to a bucket in ``[0, buckets)`` via :func:`stable_hash`."""
    if buckets <= 0:
        raise ValueError("buckets must be positive")
    return stable_hash(value) % buckets


def make_rng(seed) -> random.Random:
    """Create a dedicated :class:`random.Random` for reproducible runs."""
    return random.Random(seed)


def round_robin_assignment(keys, machines: int) -> dict:
    """Optimally assign a known small key domain to machines (paper section 5).

    When the number of distinct GROUP BY / join keys is close to the
    parallelism, hash imperfections can double the maximum load.  Squall
    instead round-robins the *predefined* keys so that no two machines
    differ by more than one key.
    """
    if machines <= 0:
        raise ValueError("machines must be positive")
    return {key: index % machines for index, key in enumerate(sorted(keys, key=repr))}


def usable_cores() -> int:
    """Cores this process may run on: the size of its CPU affinity mask
    where the platform has one (``taskset``, cpusets and container limits
    shrink it; ``os.cpu_count()`` ignores them), else the installed
    count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
