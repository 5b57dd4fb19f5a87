"""Tests for the workload generators."""

from collections import Counter

import pytest

from repro.datasets import (
    GoogleClusterGenerator,
    TPCHGenerator,
    ZipfGenerator,
    generate_crawlcontent,
    generate_webgraph,
    zipf_frequencies,
)
from repro.datasets.crawlcontent import urls_of_webgraph


class TestZipf:
    def test_frequencies_sum_to_one(self):
        assert sum(zipf_frequencies(100, 2.0)) == pytest.approx(1.0)

    def test_frequencies_monotone(self):
        freqs = zipf_frequencies(50, 1.0)
        assert all(a >= b for a, b in zip(freqs, freqs[1:]))

    def test_s0_is_uniform(self):
        freqs = zipf_frequencies(10, 0.0)
        assert all(f == pytest.approx(0.1) for f in freqs)

    def test_s2_top_share_matches_theory(self):
        """zipf(2) over many keys: top key takes ~ 1/zeta(2) ~ 0.6."""
        gen = ZipfGenerator(10_000, 2.0, seed=1)
        draws = gen.draws(20_000)
        top_share = Counter(draws)[0] / len(draws)
        assert top_share == pytest.approx(gen.top_frequency, abs=0.02)
        assert 0.55 < top_share < 0.65

    def test_reproducible(self):
        assert ZipfGenerator(100, 1.5, seed=7).draws(50) == \
            ZipfGenerator(100, 1.5, seed=7).draws(50)

    def test_draws_in_range(self):
        gen = ZipfGenerator(10, 1.0, seed=2)
        assert all(0 <= d < 10 for d in gen.draws(500))

    def test_validation(self):
        with pytest.raises(ValueError):
            zipf_frequencies(0, 1.0)
        with pytest.raises(ValueError):
            zipf_frequencies(10, -1.0)


class TestTPCH:
    @pytest.fixture(scope="class")
    def tables(self):
        return TPCHGenerator(scale=0.5, seed=3).generate()

    def test_official_ratios_preserved(self, tables):
        assert len(tables["orders"]) == 10 * len(tables["customer"])
        assert len(tables["lineitem"]) == 4 * len(tables["orders"])
        assert len(tables["partsupp"]) == 4 * len(tables["part"])
        assert len(tables["nation"]) == 25
        assert len(tables["region"]) == 5

    def test_foreign_keys_valid(self, tables):
        n_cust = len(tables["customer"])
        n_part = len(tables["part"])
        n_supp = len(tables["supplier"])
        n_orders = len(tables["orders"])
        assert all(0 <= o[1] < n_cust for o in tables["orders"].rows)
        assert all(0 <= li[0] < n_orders for li in tables["lineitem"].rows)
        assert all(0 <= li[1] < n_part for li in tables["lineitem"].rows)
        assert all(0 <= ps[1] < n_supp for ps in tables["partsupp"].rows)

    def test_dates_formatted(self, tables):
        from repro.core.expressions import parse_date
        for row in tables["orders"].head(20):
            parse_date(row[4])  # raises if malformed

    def test_skew_knob_concentrates_partkeys(self):
        uniform = TPCHGenerator(scale=0.5, skew=0.0, seed=4).generate(["lineitem"])
        skewed = TPCHGenerator(scale=0.5, skew=2.0, seed=4).generate(["lineitem"])
        top_uniform = Counter(r[1] for r in uniform["lineitem"].rows).most_common(1)[0][1]
        top_skewed = Counter(r[1] for r in skewed["lineitem"].rows).most_common(1)[0][1]
        assert top_skewed > 5 * top_uniform

    def test_partial_generation(self):
        tables = TPCHGenerator(scale=0.2, seed=5).generate(["part", "partsupp"])
        assert set(tables) == {"part", "partsupp"}

    def test_unknown_table_rejected(self):
        with pytest.raises(ValueError):
            TPCHGenerator().generate(["warehouse"])

    def test_reproducible(self):
        a = TPCHGenerator(scale=0.2, seed=6).generate(["orders"])
        b = TPCHGenerator(scale=0.2, seed=6).generate(["orders"])
        assert a["orders"].rows == b["orders"].rows

    def test_describe(self):
        assert "skew" in TPCHGenerator(scale=1, skew=2).describe()


class TestWebGraph:
    def test_schema(self):
        graph = generate_webgraph(50, 500, seed=7)
        assert graph.schema.names == ("FromUrl", "ToUrl")

    def test_hub_dominates_in_degree(self):
        graph = generate_webgraph(100, 2000, seed=8, hub="blogspot.com",
                                  hub_fraction=0.4)
        in_degree = Counter(row[1] for row in graph.rows)
        assert in_degree.most_common(1)[0][0] == "blogspot.com"
        assert in_degree["blogspot.com"] > 0.3 * len(graph.rows)

    def test_hub_has_outgoing_arcs(self):
        graph = generate_webgraph(100, 1000, seed=9, hub="blogspot.com",
                                  hub_fraction=0.3)
        assert any(row[0] == "blogspot.com" for row in graph.rows)

    def test_power_law_targets_without_hub(self):
        graph = generate_webgraph(200, 4000, seed=10, target_skew=1.2)
        in_degree = Counter(row[1] for row in graph.rows)
        top, second = [c for _k, c in in_degree.most_common(2)]
        assert top >= second  # heavy head exists

    def test_same_seed_same_graph(self):
        first = generate_webgraph(50, 400, seed=13, hub="h", hub_fraction=0.2)
        again = generate_webgraph(50, 400, seed=13, hub="h", hub_fraction=0.2)
        other = generate_webgraph(50, 400, seed=14, hub="h", hub_fraction=0.2)
        assert first.rows == again.rows
        assert first.rows != other.rows
        # the requested arcs, plus the hub's own out-links (half its share)
        assert len(first.rows) == 400 + 40
        assert sum(source == "h" for source, _target in first.rows) == 40

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_webgraph(1, 10)
        with pytest.raises(ValueError):
            generate_webgraph(10, 10, hub="h", hub_fraction=1.5)


class TestCrawlContent:
    def test_one_row_per_distinct_url(self):
        graph = generate_webgraph(40, 400, seed=12)
        content = generate_crawlcontent(urls_of_webgraph(graph), seed=1)
        urls = [row[0] for row in content.rows]
        assert len(urls) == len(set(urls))  # Url is a primary key
        assert set(urls) == urls_of_webgraph(graph)

    def test_scores_in_unit_interval(self):
        content = generate_crawlcontent(["a", "b", "c"], seed=2)
        assert all(0.0 <= row[1] <= 1.0 for row in content.rows)


class TestGoogleCluster:
    def test_size_ratio_matches_paper(self):
        gen = GoogleClusterGenerator(n_machines=40, n_jobs=60, n_task_events=690)
        assert gen.small_to_large_ratio() == pytest.approx(0.145, abs=0.001)

    def test_fail_fraction(self):
        data = GoogleClusterGenerator(n_task_events=4000, fail_fraction=0.15,
                                      seed=13).generate()
        fails = sum(1 for row in data["task_events"].rows if row[3] == "FAIL")
        assert fails / 4000 == pytest.approx(0.15, abs=0.03)

    def test_foreign_keys_valid(self):
        gen = GoogleClusterGenerator(n_machines=10, n_jobs=20, n_task_events=200,
                                     seed=14)
        data = gen.generate()
        machine_ids = {row[0] for row in data["machine_events"].rows}
        job_ids = {row[0] for row in data["job_events"].rows}
        for row in data["task_events"].rows:
            assert row[0] in job_ids
            assert row[2] in machine_ids

    def test_platforms_assigned(self):
        data = GoogleClusterGenerator(seed=15).generate()
        platforms = {row[2] for row in data["machine_events"].rows}
        assert platforms == {"PlatformA", "PlatformB", "PlatformC"}

    def test_validation(self):
        with pytest.raises(ValueError):
            GoogleClusterGenerator(fail_fraction=2.0)
