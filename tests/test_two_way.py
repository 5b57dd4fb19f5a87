"""Tests for 2-way partitioning schemes: hash, 1-Bucket, M-Bucket."""

import random
from collections import Counter

import pytest

from repro.core.predicates import BandCondition, EquiCondition, ThetaCondition
from repro.core.schema import Schema
from repro.partitioning.base import UnsupportedJoinError
from repro.partitioning.two_way import HashTwoWay, MBucket, OneBucket, choose_matrix


class TestChooseMatrix:
    def test_square_for_equal_sizes(self):
        assert choose_matrix(16, 100, 100) == (4, 4)

    def test_proportional_for_skewed_sizes(self):
        rows, cols = choose_matrix(16, 400, 100)
        assert rows > cols
        assert rows * cols <= 16

    def test_one_sided_when_other_empty(self):
        rows, cols = choose_matrix(8, 1000, 1)
        assert rows == 8
        assert cols == 1

    def test_prime_budget_still_uses_machines(self):
        rows, cols = choose_matrix(7, 100, 100)
        assert rows * cols >= 6  # e.g. 2x3 or 3x2, not 1x1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            choose_matrix(0, 1, 1)


class TestHashTwoWay:
    def test_matching_keys_meet(self):
        schemas = {"R": Schema.of("a", "k"), "S": Schema.of("k", "b")}
        scheme = HashTwoWay.for_condition(
            EquiCondition(("R", "k"), ("S", "k")), schemas, 8
        )
        for key in range(50):
            r_dest = scheme.destinations("R", (0, key))
            s_dest = scheme.destinations("S", (key, 0))
            assert r_dest == s_dest
            assert len(r_dest) == 1

    def test_no_replication(self):
        schemas = {"R": Schema.of("k"), "S": Schema.of("k")}
        scheme = HashTwoWay.for_condition(
            EquiCondition(("R", "k"), ("S", "k")), schemas, 8
        )
        assert scheme.expected_replication("R") == 1
        assert scheme.replication_factor({"R": 100, "S": 100}) == 1.0

    def test_rejects_theta(self):
        schemas = {"R": Schema.of("k"), "S": Schema.of("k")}
        with pytest.raises(UnsupportedJoinError):
            HashTwoWay.for_condition(
                ThetaCondition(("R", "k"), "<", ("S", "k")), schemas, 8
            )

    def test_content_sensitive(self):
        scheme = HashTwoWay("R", 0, "S", 0, 4)
        assert scheme.is_content_sensitive()

    def test_skewed_key_overloads_one_machine(self):
        scheme = HashTwoWay("R", 0, "S", 0, 8)
        loads = Counter()
        for _ in range(800):
            loads[scheme.destinations("R", ("hot",))[0]] += 1
        for i in range(200):
            loads[scheme.destinations("R", (f"cold{i}",))[0]] += 1
        assert max(loads.values()) >= 800  # the hot key pins one machine


class TestOneBucket:
    def test_every_pair_meets_exactly_once(self):
        scheme = OneBucket("R", "S", 12, 100, 100, seed=3)
        r_placements = [set(scheme.destinations("R", (i,)))
                        for i in range(40)]
        s_placements = [set(scheme.destinations("S", (j,)))
                        for j in range(40)]
        for r_set in r_placements:
            for s_set in s_placements:
                assert len(r_set & s_set) == 1

    def test_replication_counts(self):
        scheme = OneBucket("R", "S", 16, 100, 100, seed=0)
        assert scheme.rows * scheme.cols <= 16
        assert scheme.expected_replication("R") == scheme.cols
        assert scheme.expected_replication("S") == scheme.rows

    def test_content_insensitive_under_sorted_arrival(self):
        """Sorted input spreads evenly: random routing ignores values."""
        scheme = OneBucket("R", "S", 16, 100, 100, seed=1)
        loads = Counter()
        for i in range(1600):  # sorted keys
            for machine in scheme.destinations("R", (i,)):
                loads[machine] += 1
        assert not scheme.is_content_sensitive()
        assert max(loads.values()) / min(loads.values()) < 1.5

    def test_explicit_shape(self):
        scheme = OneBucket("R", "S", 16, shape=(2, 8))
        assert (scheme.rows, scheme.cols) == (2, 8)

    def test_unknown_relation_rejected(self):
        scheme = OneBucket("R", "S", 4)
        with pytest.raises(KeyError):
            scheme.destinations("Q", (1,))


class TestMBucket:
    def make(self, machines=8, width=2.0, op=None):
        rng = random.Random(0)
        sample = [rng.randrange(1000) for _ in range(500)]
        if op is None:
            cond = BandCondition(("R", "k"), ("S", "k"), width=width)
        else:
            cond = ThetaCondition(("R", "k"), op, ("S", "k"))
        return MBucket("R", 0, "S", 0, machines, sample, cond), cond

    def test_left_goes_to_single_stripe(self):
        scheme, _ = self.make()
        for value in (0, 250, 999):
            assert len(scheme.destinations("R", (value,))) == 1

    def test_band_pairs_meet(self):
        scheme, cond = self.make(width=5.0)
        rng = random.Random(1)
        lefts = [(rng.randrange(1000),) for _ in range(100)]
        rights = [(rng.randrange(1000),) for _ in range(100)]
        for l_row in lefts:
            l_dest = set(scheme.destinations("R", l_row))
            for r_row in rights:
                if cond.evaluate(l_row[0], r_row[0]):
                    r_dest = set(scheme.destinations("S", r_row))
                    assert l_dest & r_dest, (l_row, r_row)

    def test_inequality_pairs_meet(self):
        scheme, cond = self.make(op="<")
        rng = random.Random(2)
        lefts = [(rng.randrange(1000),) for _ in range(60)]
        rights = [(rng.randrange(1000),) for _ in range(60)]
        for l_row in lefts:
            l_dest = set(scheme.destinations("R", l_row))
            for r_row in rights:
                if cond.evaluate(l_row[0], r_row[0]):
                    assert l_dest & set(scheme.destinations("S", r_row))

    def test_product_skew_weakness(self):
        """A value region producing most of the output overloads its
        stripe -- the weakness EWH fixes (paper: 'prone to join product
        skew')."""
        # left keys uniform, right keys all clustered at 500 +- 1
        rng = random.Random(3)
        sample = [rng.randrange(1000) for _ in range(500)]
        cond = BandCondition(("R", "k"), ("S", "k"), width=1.0)
        scheme = MBucket("R", 0, "S", 0, 8, sample, cond)
        loads = Counter()
        for _ in range(400):
            for machine in scheme.destinations("S", (500,)):
                loads[machine] += 1
        # all right tuples land on the stripe(s) covering 500
        assert len(loads) <= 2

    def test_needs_sample(self):
        with pytest.raises(ValueError):
            MBucket("R", 0, "S", 0, 4, [], BandCondition(("R", "k"), ("S", "k"), 1))

    def test_content_sensitive(self):
        scheme, _ = self.make()
        assert scheme.is_content_sensitive()
