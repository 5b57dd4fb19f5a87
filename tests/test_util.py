"""Tests for repro.util: stable hashing and small helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.util import (
    ceil_div,
    hash_to_bucket,
    make_rng,
    round_robin_assignment,
    stable_hash,
)


class TestStableHash:
    def test_deterministic_for_strings(self):
        assert stable_hash("squall") == stable_hash("squall")

    def test_known_string_value_is_stable_across_runs(self):
        # crc32-based: pinned so a behaviour change is caught
        import zlib
        assert stable_hash("abc") == zlib.crc32(b"abc")

    def test_equal_values_hash_equal(self):
        # hash partitioning routes by stable_hash and joins compare with
        # ==, so equal keys of different types must meet on one task
        assert stable_hash(42.0) == stable_hash(42)
        assert stable_hash(-0.0) == stable_hash(0.0) == stable_hash(0)
        assert stable_hash(True) == stable_hash(1)
        assert stable_hash(False) == stable_hash(0)
        assert stable_hash(-3.0) == stable_hash(-3)
        assert stable_hash(2.0 ** 70) == stable_hash(2 ** 70)
        assert stable_hash((1, 2.0)) == stable_hash((1.0, 2))

    def test_non_integral_floats_keep_their_own_hash(self):
        assert stable_hash(0.5) != stable_hash(0)
        assert stable_hash(float("inf")) == stable_hash(float("inf"))
        assert 0 <= stable_hash(float("nan")) <= 0xFFFFFFFF

    @given(st.integers(min_value=-2 ** 53, max_value=2 ** 53))
    def test_integral_float_hashes_as_its_int(self, value):
        assert stable_hash(float(value)) == stable_hash(value)

    def test_large_int_folds_upper_bits(self):
        assert stable_hash(2**40 + 7) != stable_hash(7)

    def test_negative_int_supported(self):
        assert 0 <= stable_hash(-12345) <= 0xFFFFFFFF

    def test_tuple_hash_differs_by_order(self):
        assert stable_hash((1, 2)) != stable_hash((2, 1))

    def test_none_supported(self):
        assert stable_hash(None) == stable_hash(None)

    def test_bytes_supported(self):
        assert stable_hash(b"xyz") == stable_hash(b"xyz")

    def test_bool_distinct_from_large_int(self):
        assert stable_hash(True) != stable_hash(12345678)

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            stable_hash({"a": 1})

    @given(st.one_of(st.integers(), st.text(), st.floats(allow_nan=False)))
    def test_always_32_bit(self, value):
        assert 0 <= stable_hash(value) <= 0xFFFFFFFF

    @given(st.text(), st.integers(min_value=1, max_value=64))
    def test_bucket_in_range(self, value, buckets):
        assert 0 <= hash_to_bucket(value, buckets) < buckets

    def test_bucket_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            hash_to_bucket("x", 0)


class TestRoundRobinAssignment:
    def test_even_domain_is_perfectly_balanced(self):
        assignment = round_robin_assignment(range(8), 4)
        per_machine = [0] * 4
        for machine in assignment.values():
            per_machine[machine] += 1
        assert per_machine == [2, 2, 2, 2]

    def test_uneven_domain_differs_by_at_most_one(self):
        # 15 keys over 8 machines: the paper's d=15, p=8 example --
        # optimal assigns at most ceil(15/8)=2 keys per machine
        assignment = round_robin_assignment(range(15), 8)
        per_machine = [0] * 8
        for machine in assignment.values():
            per_machine[machine] += 1
        assert max(per_machine) - min(per_machine) <= 1
        assert max(per_machine) == 2

    def test_equal_keys_and_machines_is_one_each(self):
        assignment = round_robin_assignment(range(5), 5)
        assert sorted(assignment.values()) == [0, 1, 2, 3, 4]

    def test_deterministic(self):
        keys = ["URGENT", "HIGH", "MEDIUM", "LOW"]
        assert round_robin_assignment(keys, 3) == round_robin_assignment(keys, 3)

    def test_rejects_nonpositive_machines(self):
        with pytest.raises(ValueError):
            round_robin_assignment(["a"], 0)


class TestSmallHelpers:
    def test_ceil_div(self):
        assert ceil_div(15, 8) == 2
        assert ceil_div(16, 8) == 2
        assert ceil_div(17, 8) == 3
        assert ceil_div(0, 5) == 0

    def test_make_rng_reproducible(self):
        assert make_rng(7).random() == make_rng(7).random()

    def test_make_rng_independent_instances(self):
        rng = make_rng(7)
        rng.random()
        assert make_rng(7).random() != rng.random()
