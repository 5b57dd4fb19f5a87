"""Tests for the Adaptive 1-Bucket operator."""

import pytest

from repro.partitioning.adaptive import AdaptiveOneBucket


class TestAdaptiveOneBucket:
    def test_reshapes_when_ratio_drifts(self):
        """Only R tuples at first (wants p x 1), then S floods in: the
        matrix must reshape towards balance."""
        op = AdaptiveOneBucket("R", "S", 16, seed=0, check_interval=64)
        for i in range(512):
            op.route("R", (i,))
        shape_early = (op.rows, op.cols)
        for i in range(4096):
            op.route("S", (i,))
        assert op.reshapes, "expected at least one reshape"
        assert (op.rows, op.cols) != shape_early
        assert op.cols > op.rows  # S now dominates

    def test_no_reshape_when_balanced(self):
        op = AdaptiveOneBucket("R", "S", 16, seed=0, check_interval=64,
                               initial_shape=(4, 4))
        for i in range(1000):
            op.route("R", (i,))
            op.route("S", (i,))
        assert not op.reshapes

    def test_migration_counted(self):
        op = AdaptiveOneBucket("R", "S", 16, seed=1, check_interval=32,
                               initial_shape=(4, 4))
        for i in range(64):
            op.route("R", (i,))
        for i in range(2048):
            op.route("S", (i,))
        if op.reshapes:
            assert op.migrated_tuples > 0
            assert op.migrated_tuples == sum(e.migrated_tuples for e in op.reshapes)

    def test_pairs_meet_after_reshape(self):
        """Stored tuples are remapped consistently: any stored left tuple and
        any later right tuple must share exactly one machine under the
        current shape."""
        op = AdaptiveOneBucket("R", "S", 12, seed=2, check_interval=16)
        stored_left = []
        for i in range(128):
            _machines, tuple_id = op.route("R", (i,))
            stored_left.append(tuple_id)
        for i in range(1024):
            machines, _tid = op.route("S", (i,))
            if i % 100 == 0:
                for left_id in stored_left[:20]:
                    # a left tuple's row of the current matrix
                    row = op._coords[("R", left_id)]
                    left_machines = {row * op.cols + c for c in range(op.cols)}
                    assert len(left_machines & set(machines)) == 1

    def test_load_tracks_optimal_within_factor(self):
        """After adaptation the max load must be close to the offline
        optimum for the final cardinalities (Adaptive 1-Bucket's guarantee)."""
        op = AdaptiveOneBucket("R", "S", 16, seed=3, check_interval=64)
        for i in range(256):
            op.route("R", (i,))
        for i in range(3840):
            op.route("S", (i,))
        from repro.partitioning.two_way import choose_matrix
        rows, cols = choose_matrix(16, 256, 3840)
        optimal = 256 / rows + 3840 / cols
        assert op.current_max_load() <= 2.0 * optimal

    def test_content_insensitive(self):
        op = AdaptiveOneBucket("R", "S", 8)
        assert not op.is_content_sensitive()

    def test_describe_mentions_reshapes(self):
        op = AdaptiveOneBucket("R", "S", 8)
        assert "Adaptive 1-Bucket" in op.describe()

    def test_destinations_interface(self):
        op = AdaptiveOneBucket("R", "S", 8, initial_shape=(2, 4))
        assert len(op.destinations("R", (1,))) == 4  # replicated across cols
        assert len(op.destinations("S", (1,))) == 2  # replicated across rows

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            AdaptiveOneBucket("R", "S", 0)
        with pytest.raises(ValueError):
            AdaptiveOneBucket("R", "S", 8, check_interval=0)

    def test_unknown_relation(self):
        op = AdaptiveOneBucket("R", "S", 8)
        with pytest.raises(KeyError):
            op.route("Q", (1,))
