"""Tests for repro.core.statistics."""

import random

import pytest

from repro.core.statistics import (
    AttributeProfiler,
    AttributeStats,
    SkewDetector,
    SpaceSaving,
    profile_column,
)


class TestSpaceSaving:
    def test_exact_when_under_capacity(self):
        sketch = SpaceSaving(10)
        sketch.extend(["a", "a", "b"])
        assert sketch.estimate("a") == 2

    def test_top_ordering(self):
        sketch = SpaceSaving(10)
        sketch.extend(["a"] * 5 + ["b"] * 3 + ["c"])
        assert [key for key, _ in sketch.top(2)] == ["a", "b"]

    def test_heavy_hitter_survives_eviction(self):
        sketch = SpaceSaving(4)
        stream = ["hot"] * 500 + [f"cold{i}" for i in range(200)]
        random.Random(0).shuffle(stream)
        sketch.extend(stream)
        top_key, top_count = sketch.top(1)[0]
        assert top_key == "hot"
        # SpaceSaving never underestimates
        assert top_count >= 500

    def test_overestimation_bounded_by_n_over_k(self):
        sketch = SpaceSaving(8)
        stream = [f"k{i % 40}" for i in range(400)]
        sketch.extend(stream)
        for key, estimate in sketch.top(8):
            true_count = stream.count(key)
            assert estimate - true_count <= 400 // 8

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            SpaceSaving(0)


class TestAttributeProfiler:
    def test_stats_on_uniform_column(self):
        stats = profile_column(i % 50 for i in range(500))
        assert stats.count == 500
        assert stats.distinct == 50
        assert stats.top_frequency == pytest.approx(1 / 50, rel=0.01)

    def test_stats_on_skewed_column(self):
        column = [0] * 500 + list(range(1, 101))
        stats = profile_column(column)
        assert stats.top_key == 0
        assert stats.top_frequency == pytest.approx(500 / 600, rel=0.05)

    def test_empty_column(self):
        stats = profile_column([])
        assert stats.count == 0
        assert stats.distinct == 0

    def test_uniform_column(self):
        """Four keys equally often: each carries a quarter of the rows,
        and hashing them over four machines is not skewed."""
        stats = profile_column([key for key in range(4) for _ in range(25)])
        assert stats.count == 100
        assert stats.distinct == 4
        assert stats.top_frequency == 0.25
        assert not SkewDetector().is_skewed(stats, parallelism=4)

    def test_distinct_cap_saturation(self):
        profiler = AttributeProfiler(distinct_cap=10)
        profiler.extend(range(100))
        assert profiler.stats().distinct == 10  # lower bound once saturated


class TestSkewDetector:
    def test_heavy_key_detected(self):
        stats = AttributeStats(count=1000, distinct=100, top_key="hot",
                               top_frequency=0.5)
        assert SkewDetector().is_skewed(stats, parallelism=8)

    def test_uniform_not_detected(self):
        stats = AttributeStats(count=1000, distinct=100, top_key=1,
                               top_frequency=0.01)
        assert not SkewDetector().is_skewed(stats, parallelism=8)

    def test_small_domain_rule(self):
        # fewer distinct keys than machines leaves machines idle under hash
        stats = AttributeStats(count=1000, distinct=5, top_key=1,
                               top_frequency=0.2)
        assert SkewDetector().is_skewed(stats, parallelism=8)
        assert not SkewDetector().is_skewed(stats, parallelism=4)

    def test_single_machine_never_skewed(self):
        stats = AttributeStats(count=10, distinct=1, top_key=1, top_frequency=1.0)
        assert not SkewDetector().is_skewed(stats, parallelism=1)

    def test_heavy_factor_configurable(self):
        stats = AttributeStats(count=1000, distinct=1000, top_key=1,
                               top_frequency=0.3)
        assert SkewDetector(heavy_factor=2.0).is_skewed(stats, parallelism=8)
        assert not SkewDetector(heavy_factor=4.0).is_skewed(stats, parallelism=8)

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            SkewDetector(heavy_factor=0)
