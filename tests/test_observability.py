"""The unified observability layer, end to end.

Four layers of contract:

1. **Instruments** -- typed counter/gauge/histogram semantics, registry
   dedup, and the Prometheus text round-trip (render -> parse is the
   identity on the registry's samples).
2. **Invisibility** -- ``observe='off'`` means *no observer object at
   all*: results and metrics are byte-identical to an unobserved run.
3. **Tracing** -- the span-tree *shape* (component/task edges) of every
   trace is identical across the inline, threads and processes
   executors, batch and streaming; traces survive worker kill +
   recovery without duplicate spans.
4. **Surfaces** -- ``profile()`` reports per-operator latencies and the
   skew gauge fires on genuinely skewed keys; the serving layer's
   ``/metrics`` endpoint speaks parseable Prometheus text.
"""

import asyncio
import json
import random

import pytest

from repro.core.optimizer import Catalog
from repro.core.options import ExecutionOptions
from repro.core.predicates import EquiCondition, JoinSpec, RelationInfo
from repro.core.schema import Relation, Schema
from repro.engine import (
    AggComponent,
    JoinComponent,
    PhysicalPlan,
    SourceComponent,
    count,
)
from repro.engine.runner import run_plan
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Observer,
    TraceBuffer,
    WorkerObs,
    make_span,
)
from repro.obs.prometheus import parse, render
from repro.obs.registry import as_dict
from repro.serving import DeltaServer
from repro.storm.failures import FaultInjector
from repro.streaming import stream_plan
from tests.batching_plans import (
    plan_online_agg,
    plan_snapshot_agg,
    rst_relations,
    run_result_fingerprint,
)

EXECUTORS = ("inline", "threads", "processes")


def single_source_agg_plan() -> PhysicalPlan:
    """One source feeding an online aggregation: the golden plan for the
    cross-executor trace-shape matrix.  Join plans interleave probe
    batches differently per executor, so their span *counts* differ;
    this plan's routing is a pure function of the tuple (fields
    grouping on the key, global grouping into the sink), which makes
    every trace's shape executor-invariant."""
    R, _s, _t, _spec = rst_relations(seed=70, n=48)
    return PhysicalPlan(
        sources=[SourceComponent("R", R)],
        aggregation=AggComponent("agg", group_positions=[0],
                                 aggregates=[count()], parallelism=2,
                                 online=True),
    )


def skewed_join_plan() -> PhysicalPlan:
    """R >< S >< T with ~80% of both join inputs on one hot key: the
    hash scheme must pile that key's work onto one joiner task."""
    rng = random.Random(7)

    def hot_key():
        return 0 if rng.random() < 0.8 else rng.randrange(1, 6)

    R = Relation("R", Schema.of("x", "y"),
                 [(rng.randrange(30), hot_key()) for _ in range(60)])
    S = Relation("S", Schema.of("y", "z"),
                 [(hot_key(), rng.randrange(5)) for _ in range(30)])
    T = Relation("T", Schema.of("z", "t"),
                 [(rng.randrange(5), rng.randrange(9)) for _ in range(20)])
    spec = JoinSpec(
        [RelationInfo("R", R.schema, len(R)),
         RelationInfo("S", S.schema, len(S)),
         RelationInfo("T", T.schema, len(T))],
        [EquiCondition(("R", "y"), ("S", "y")),
         EquiCondition(("S", "z"), ("T", "z"))],
    )
    return PhysicalPlan(
        sources=[SourceComponent("R", R), SourceComponent("S", S),
                 SourceComponent("T", T)],
        joins=[JoinComponent("J", spec, machines=4, scheme="hash",
                             local_join="traditional")],
    )


# -- instruments --------------------------------------------------------


class TestInstruments:
    def test_counter_is_monotonic(self):
        counter = Counter("rows", {"task": "0"})
        counter.inc()
        counter.inc(4)
        assert counter.read() == 5.0
        with pytest.raises(ValueError):
            counter.inc(-1)
        assert counter.samples() == [("rows", {"task": "0"}, 5.0, "counter")]

    def test_gauge_set_and_high_water(self):
        gauge = Gauge("depth", {})
        gauge.set(3)
        gauge.set_max(7)
        gauge.set_max(2)  # below the mark: ignored
        assert gauge.read() == 7.0
        gauge.set(1)  # plain set always wins
        assert gauge.read() == 1.0

    def test_histogram_percentile_is_conservative_upper_bound(self):
        hist = Histogram("lat", {}, bounds=(0.001, 0.01, 0.1))
        assert hist.percentile(0.5) == 0.0  # empty
        for value in (0.0005, 0.0006, 0.05, 0.05):
            hist.observe(value)
        # the median falls in the first bucket -> its upper bound
        assert hist.percentile(0.5) == 0.001
        assert hist.percentile(0.99) == 0.1
        assert hist.mean() == pytest.approx(sum((0.0005, 0.0006, 0.05, 0.05)) / 4)
        # overflow samples report the last finite bound
        hist.observe(5.0)
        assert hist.percentile(1.0) == 0.1

    def test_histogram_merge_equals_direct_observation(self):
        left = Histogram("lat", {"task": "0"})
        right = Histogram("lat", {"task": "1"})
        direct = Histogram("lat", {})
        for index, value in enumerate((0.0002, 0.003, 0.003, 0.7, 42.0)):
            (left if index % 2 else right).observe(value)
            direct.observe(value)
        merged = Histogram("lat", {})
        merged.merge(*left.snapshot())
        merged.merge(*right.snapshot())
        assert merged.snapshot() == direct.snapshot()
        assert merged.samples() == direct.samples()

    def test_histogram_merge_rejects_foreign_layout(self):
        hist = Histogram("lat", {})
        with pytest.raises(ValueError):
            hist.merge([1, 2, 3], 0.5, 3)

    def test_histogram_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("lat", {}, bounds=(0.1, 0.1, 0.2))


class TestRegistry:
    def test_dedup_returns_the_same_instrument(self):
        registry = MetricsRegistry()
        first = registry.counter("rows", component="J", task="0")
        again = registry.counter("rows", task="0", component="J")
        assert first is again
        first.inc(3)
        assert again.read() == 3.0
        # different labels: a different instrument
        assert registry.counter("rows", component="J", task="1") is not first

    def test_kind_mismatch_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("rows", task="0")
        with pytest.raises(TypeError):
            registry.gauge("rows", task="0")

    def test_collectors_are_idempotent_and_sampled_at_export(self):
        registry = MetricsRegistry()
        calls = []

        def collector():
            calls.append(1)
            return [("extra", {}, 1.0, "gauge")]

        registry.register_collector(collector)
        registry.register_collector(collector)  # second add: no-op
        assert calls == []  # registration alone never samples
        samples = registry.samples()
        assert calls == [1]
        assert samples.count(("extra", {}, 1.0, "gauge")) == 1

    def test_merged_histogram_filters_by_labels(self):
        registry = MetricsRegistry()
        registry.histogram("lat", component="J", task="0").observe(0.002)
        registry.histogram("lat", component="J", task="1").observe(0.2)
        registry.histogram("lat", component="agg", task="0").observe(5.0)
        merged = registry.merged_histogram("lat", component="J")
        assert merged.count == 2
        assert merged.percentile(1.0) == 0.25
        assert registry.merged_histogram("lat").count == 3
        assert registry.merged_histogram("lat", component="nope").count == 0

    def test_as_dict_flat_keys(self):
        registry = MetricsRegistry()
        registry.counter("rows", task="0").inc(2)
        registry.gauge("depth").set(4)
        flat = as_dict(registry.samples())
        assert flat['rows{task="0"}'] == 2.0
        assert flat["depth"] == 4.0


class TestPrometheusRoundTrip:
    def test_render_parse_is_the_identity(self):
        registry = MetricsRegistry()
        registry.counter("rows_total", component="J", task="0").inc(5)
        registry.gauge("depth", queue='a"b\\c\nd').set(2.5)
        hist = registry.histogram("lat_seconds", component="J")
        for value in (0.0002, 0.003, 42.0):
            hist.observe(value)
        samples = registry.samples()
        parsed = parse(render(samples))
        expected = {(name, tuple(sorted(labels.items()))): value
                    for name, labels, value, _kind in samples}
        assert parsed == expected

    def test_one_type_line_per_family(self):
        registry = MetricsRegistry()
        registry.histogram("lat_seconds", task="0").observe(0.001)
        registry.histogram("lat_seconds", task="1").observe(0.002)
        text = render(registry.samples())
        assert text.count("# TYPE lat_seconds histogram") == 1
        assert 'lat_seconds_bucket{le="+Inf",task="0"} 1.0' in text
        assert "lat_seconds_count" in text and "lat_seconds_sum" in text

    def test_malformed_lines_raise(self):
        with pytest.raises(ValueError):
            parse("rows_total 1 2 3")
        with pytest.raises(ValueError):
            parse('rows_total{task="0" 1.0')

    def test_repeated_series_raises(self):
        """The strict parser does not collapse a double-counted series
        to its last sample (label order is not part of the identity)."""
        with pytest.raises(ValueError, match="duplicate series"):
            parse('rows_total{a="1",b="2"} 1.0\n'
                  'rows_total{b="2",a="1"} 2.0\n')
        assert len(parse('rows_total{a="1"} 1.0\n'
                         'rows_total{a="2"} 1.0\n')) == 2


# -- trace buffer and observer ------------------------------------------


class TestTraceBuffer:
    def test_capacity_evicts_oldest(self):
        buffer = TraceBuffer(capacity=2)
        for index in range(3):
            buffer.add(make_span("t.0.1", f"c.{index}", None, "R", 0, 1, 0.0))
        assert len(buffer) == 2
        assert buffer.dropped == 1
        assert [span["span"] for span in buffer.spans()] == ["c.1", "c.2"]

    def test_edges_and_tree(self):
        buffer = TraceBuffer()
        buffer.add(make_span("t", "c.1", None, "R", 0, 4, 0.0))
        buffer.add(make_span("t", "c.2", "c.1", "J", 1, 4, 0.001))
        buffer.add(make_span("t", "c.3", "c.2", "sink", 0, 2, 0.0))
        assert buffer.edges("t") == [
            (("J", 1), ("sink", 0)), (("R", 0), ("J", 1))]
        forest = buffer.tree("t")
        assert len(forest) == 1
        assert forest[0]["span"]["component"] == "R"
        payload = json.loads(buffer.to_json("t"))
        assert [span["span"] for span in payload["spans"]] == [
            "c.1", "c.2", "c.3"]
        assert payload["dropped"] == 0


class TestObserver:
    def test_off_is_not_an_observer_level(self):
        with pytest.raises(ValueError):
            Observer("off")
        with pytest.raises(ValueError):
            WorkerObs(0, "off")

    def test_metrics_level_records_no_spans(self):
        observer = Observer("metrics")
        assert observer.root("R", 0, 10, 0.0) is None
        assert observer.span(None, "J", 0, 10, 0.0) is None
        observer.on_execute("J", 0, 10, 0.002)
        assert len(observer.traces) == 0
        hist = observer.registry.merged_histogram(
            "operator_batch_seconds", component="J")
        assert hist.count == 1

    def test_trace_ids_are_deterministic_per_source_task(self):
        observer = Observer("trace")
        first = observer.root("R", 0, 4, 0.0)
        second = observer.root("R", 0, 4, 0.0)
        other_task = observer.root("R", 1, 4, 0.0)
        assert first.trace_id == "R.0.1"
        assert second.trace_id == "R.0.2"
        assert other_task.trace_id == "R.1.1"
        # punctuation/flush emissions stay untraced
        assert observer.span(None, "J", 0, 4, 0.0) is None

    def test_worker_obs_payload_merges_in(self):
        observer = Observer("trace")
        worker = WorkerObs(3, "trace")
        root = observer.root("R", 0, 8, 0.0)
        worker.record("J", 1, 8, 0.004)
        child = worker.span(root, "J", 1, 8, 0.004)
        assert child.span_id.startswith("w3.")
        observer.merge_worker_obs(worker.drain())
        assert worker.drain() is None  # drained clean
        assert observer.traces.edges(root.trace_id) == [(("R", 0), ("J", 1))]
        hist = observer.registry.merged_histogram(
            "operator_batch_seconds", component="J")
        assert hist.count == 1

    def test_skew_gauge_skips_balanced_groupings(self):
        observer = Observer("metrics")
        observer.set_groupings({"J": ("the hash partitioner", True),
                                "sink": ("GlobalGrouping", False)})
        for task, rows in enumerate((30, 10)):
            observer.on_execute("J", task, rows, 0.001)
        observer.on_execute("sink", 0, 40, 0.001)
        skews = {labels["component"]: (labels["grouping"], value)
                 for name, labels, value, _kind in observer.registry.samples()
                 if name == "partition_skew"}
        assert "sink" not in skews  # balanced by construction
        grouping, value = skews["J"]
        assert grouping == "the hash partitioner"
        assert value == pytest.approx(30 / 20)


# -- observe='off' is invisible -----------------------------------------


class TestOffIsInvisible:
    def test_off_means_no_observer(self):
        result = run_plan(plan_online_agg())
        assert result.observer is None
        explicit = run_plan(plan_online_agg(),
                            options=ExecutionOptions(observe="off"))
        assert explicit.observer is None
        assert sorted(result.results) == sorted(explicit.results)

    def test_tracing_does_not_perturb_results_or_metrics(self):
        baseline = run_result_fingerprint(run_plan(plan_online_agg()))
        for level in ("metrics", "trace"):
            observed = run_plan(plan_online_agg(),
                                options=ExecutionOptions(observe=level))
            assert run_result_fingerprint(observed) == baseline
            assert observed.observer.level == level

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("mode", ["batch", "streaming"])
    def test_observing_never_changes_what_ran(self, mode, executor):
        """Every driver runs its batches through the one step kernel, and
        a coalesced batch carries the contexts of all its parts (see
        ``WaveBuffer``), so the answer, every topology counter and the
        executed batches are the same at every observe level."""
        seen = {}
        for level in ("off", "metrics", "trace"):
            options = ExecutionOptions(executor=executor, batch_size=16,
                                       observe=level)
            if mode == "batch":
                run = run_plan(plan_online_agg(), options=options)
                answer, metrics = sorted(run.results), run.metrics
                observer = run.observer
            else:
                query = stream_plan(plan_online_agg(), options=options).run()
                answer, metrics = query.snapshot(), query.cluster.metrics
                observer = query.observer
            assert (observer is None) == (level == "off")
            rows = (metrics.received, metrics.emitted,
                    metrics.edge_transfers, metrics.columnar_rows,
                    metrics.row_rows)
            batches = (metrics.batches, metrics.columnar_batches,
                       metrics.row_batches)
            seen[level] = (answer, rows, batches)
        assert seen["off"][0] and sum(seen["off"][1][3:]) > 0  # not vacuous
        assert seen["metrics"] == seen["off"]
        assert seen["trace"] == seen["off"]

    def test_streaming_off_has_no_observer_but_full_stats(self):
        query = stream_plan(plan_online_agg(),
                            options=ExecutionOptions(batch_size=16)).run()
        assert query.observer is None
        stats = query.stats()
        assert "checkpoints" in stats  # the unified stats surface
        assert stats["checkpoints"]["commits"] == 0


# -- the cross-executor trace matrix ------------------------------------


def trace_shapes(observer):
    """trace id -> sorted (parent, child) (component, task) edges."""
    buffer = observer.traces
    return {trace_id: buffer.edges(trace_id)
            for trace_id in buffer.trace_ids()}


class TestTraceMatrix:
    def test_batch_executors_agree_on_span_tree_shape(self):
        shapes = {}
        results = {}
        for executor in EXECUTORS:
            result = run_plan(
                single_source_agg_plan(),
                options=ExecutionOptions(observe="trace", executor=executor,
                                         batch_size=16))
            shapes[executor] = trace_shapes(result.observer)
            results[executor] = sorted(result.results)
        assert shapes["threads"] == shapes["inline"]
        assert shapes["processes"] == shapes["inline"]
        assert results["threads"] == results["inline"]
        assert results["processes"] == results["inline"]
        # and the shapes are non-trivial: every trace reaches the sink
        assert shapes["inline"]
        for trace_id, edges in shapes["inline"].items():
            assert trace_id.startswith("R.0.")
            children = {child[0] for _parent, child in edges}
            assert "agg" in children and "sink" in children

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_coalesced_batches_span_every_trace_they_merged(self, executor):
        """Three source batches reach each aggregation task as one batch
        and the sink as one more (over the ``processes`` pipes too): the
        one execution records a span per contributing hop, with the
        trace's rows."""
        result = run_plan(
            single_source_agg_plan(),
            options=ExecutionOptions(observe="trace", executor=executor,
                                     batch_size=16, parallelism=2))
        metrics = result.metrics
        assert metrics.batch_counts("R") == [3]
        assert metrics.batch_counts("agg") == [1, 1]
        assert metrics.batch_counts("sink") == [1]
        spans = result.observer.traces.spans()
        for task_index in range(2):
            hops = [span for span in spans
                    if (span["component"], span["task"]) == ("agg", task_index)]
            assert sorted(span["trace"] for span in hops) == [
                "R.0.1", "R.0.2", "R.0.3"]
            assert sum(span["rows"] for span in hops) == \
                metrics.received["agg"][task_index]
        sink_hops = [span for span in spans if span["component"] == "sink"]
        assert len(sink_hops) == 6  # 3 traces x 2 aggregation tasks
        assert sum(span["rows"] for span in sink_hops) == \
            metrics.component_input("sink")

    def test_streaming_executors_agree_on_span_tree_shape(self):
        shapes = {}
        snapshots = {}
        for executor in EXECUTORS:
            query = stream_plan(
                single_source_agg_plan(),
                options=ExecutionOptions(observe="trace", executor=executor,
                                         batch_size=16)).run()
            shapes[executor] = trace_shapes(query.observer)
            snapshots[executor] = query.snapshot()
        assert shapes["threads"] == shapes["inline"]
        assert shapes["processes"] == shapes["inline"]
        assert snapshots["threads"] == snapshots["inline"]
        assert snapshots["processes"] == snapshots["inline"]
        assert len(shapes["inline"]) == 3  # 48 rows / batch 16
        for edges in shapes["inline"].values():
            assert (("R", 0), ("agg", 0)) in edges or \
                (("R", 0), ("agg", 1)) in edges

    def test_exported_trace_is_followable_spout_to_sink(self):
        query = stream_plan(
            single_source_agg_plan(),
            options=ExecutionOptions(observe="trace", batch_size=16)).run()
        buffer = query.observer.traces
        trace_id = buffer.trace_ids()[0]
        forest = buffer.tree(trace_id)
        assert len(forest) == 1  # exactly one root: the source hop
        root = forest[0]
        assert root["span"]["component"] == "R"
        assert root["span"]["parent"] is None

        def depth(node):
            if not node["children"]:
                return 1
            return 1 + max(depth(child) for child in node["children"])

        assert depth(root) >= 3  # spout -> agg -> sink at minimum
        payload = json.loads(buffer.to_json(trace_id))
        assert {span["trace"] for span in payload["spans"]} == {trace_id}
        assert all("duration_ms" in span for span in payload["spans"])


class TestTraceSurvivesRecovery:
    @pytest.mark.parametrize("role", [("J", 0), ("agg", 1)])
    def test_recovery_replay_records_no_duplicate_spans(self, role):
        component, task_index = role
        expected = sorted(run_plan(plan_snapshot_agg()).results)
        injector = FaultInjector()
        injector.kill_worker_of(component, task_index, after_batches=3)
        query = stream_plan(
            plan_snapshot_agg(),
            options=ExecutionOptions(executor="processes", batch_size=16,
                                     checkpoint_interval=2, observe="trace"),
            fault_injector=injector).run()
        assert query.snapshot() == expected
        assert query.stats()["checkpoints"]["recoveries"] >= 1
        spans = query.observer.traces.spans()
        assert spans
        keys = [(span["trace"], span["span"]) for span in spans]
        assert len(keys) == len(set(keys)), "replay re-recorded spans"
        # replay is invisible to tracing: every trace still has at most
        # one root hop per source batch
        roots = [span for span in spans if span["parent"] is None]
        assert len(roots) == len({span["trace"] for span in roots})


# -- the acceptance surface: profile + skew on a real skewed join -------


class TestProfileAndSkew:
    def test_skewed_streaming_join_under_processes(self):
        query = stream_plan(
            skewed_join_plan(),
            options=ExecutionOptions(executor="processes", batch_size=16,
                                     checkpoint_interval=2,
                                     observe="metrics")).run()
        samples = query.observer.registry.samples()

        # per-task routed-row counters for the joiner, multiple tasks
        routed = {labels["task"]: value
                  for name, labels, value, _kind in samples
                  if name == "routed_rows_total"
                  and labels.get("component") == "J"}
        assert len(routed) > 1
        assert sum(routed.values()) > 0

        # the hot key shows up as a nonzero skew gauge on the joiner
        skews = {labels["component"]: (labels["grouping"], value)
                 for name, labels, value, _kind in samples
                 if name == "partition_skew"}
        grouping, skew = skews["J"]
        assert "partitioner" in grouping
        assert skew > 1.0

        # per-operator batch latency histograms back the profile
        hist = query.observer.registry.merged_histogram(
            "operator_batch_seconds", component="J")
        assert hist.count > 0
        assert hist.percentile(0.95) >= hist.percentile(0.5) > 0.0

        report = query.profile()
        for column in ("operator", "p50 ms", "p95 ms", "p99 ms", "skew"):
            assert column in report
        for component in ("R", "S", "T", "J", "sink"):
            assert component in report

    def test_batch_run_profile_without_observer_still_renders(self):
        result = run_plan(plan_snapshot_agg())
        report = result.profile()
        assert "operator" in report and "agg" in report
        # latency columns exist but are unfilled at observe='off'
        assert "p50 ms" in report


# -- the /metrics endpoint ----------------------------------------------


SQL = "SELECT k, COUNT(*) FROM t GROUP BY k"


def serving_catalog():
    catalog = Catalog()
    catalog.register(Relation(
        "t", Schema.of("k", "v"), [(i % 4, i) for i in range(200)]))
    return catalog


async def http_get(server, path):
    reader, writer = await asyncio.open_connection(server.host, server.port)
    writer.write(f"GET {path} HTTP/1.0\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _sep, body = raw.partition(b"\r\n\r\n")
    lines = head.decode().split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        key, _sep2, value = line.partition(": ")
        headers[key.lower()] = value
    return status, headers, body.decode()


def flat_key(name, labels):
    """A parsed series' key in the ``/metrics.json`` object."""
    if not labels:
        return name
    rendered = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{rendered}}}"


async def run_query(server, request):
    """One full delta exchange against the server (warms the serving
    counters the scrape endpoints report)."""
    reader, writer = await asyncio.open_connection(server.host, server.port)
    writer.write((json.dumps(request) + "\n").encode())
    await writer.drain()
    await reader.read()
    writer.close()
    await writer.wait_closed()


class TestMetricsEndpoint:
    def test_prometheus_scrape_round_trips(self):
        async def scenario():
            async with DeltaServer(serving_catalog()) as server:
                await run_query(server, {"sql": SQL})
                return await http_get(server, "/metrics")

        status, headers, body = asyncio.run(scenario())
        assert status == 200
        assert headers["content-type"].startswith("text/plain; version=0.0.4")
        assert int(headers["content-length"]) == len(body.encode())
        parsed = parse(body)  # the strict parser accepts the scrape
        admitted = {key: value for key, value in parsed.items()
                    if key[0] == "serving_admitted_total"}
        assert admitted == {
            ("serving_admitted_total", (("tenant", "default"),)): 1.0}
        assert ("serving_shed_total" in {name for name, _labels in parsed})

    def test_json_export_matches_prometheus(self):
        async def scenario():
            async with DeltaServer(serving_catalog()) as server:
                await run_query(server, {"sql": SQL})
                return (await http_get(server, "/metrics"),
                        await http_get(server, "/metrics.json"))

        (_s1, _h1, text_body), (status, headers, json_body) = \
            asyncio.run(scenario())
        assert status == 200
        assert headers["content-type"].startswith("application/json")
        flat = json.loads(json_body)
        assert flat['serving_admitted_total{tenant="default"}'] == 1.0
        # both exports agree sample for sample
        parsed = parse(text_body)
        assert len(flat) == len(parsed)
        for (name, labels), value in parsed.items():
            assert flat[flat_key(name, labels)] == value

    def test_unknown_path_is_404_and_protocol_still_works(self):
        async def scenario():
            async with DeltaServer(serving_catalog()) as server:
                status, _headers, _body = await http_get(server, "/nope")
                await run_query(server, {"sql": SQL})
                scrape_status, _h, body = await http_get(server, "/metrics")
                return status, scrape_status, body

        status, scrape_status, body = asyncio.run(scenario())
        assert status == 404
        assert scrape_status == 200
        assert "serving_admitted_total" in body

    def test_two_observed_residents_export_disjoint_series(self):
        """Two different observed plans resident on one broker: every
        topology-side series is exported exactly once, under its own
        topology's ``fingerprint`` label, and the two export formats
        agree series for series."""
        from repro.sql.catalog import SqlSession
        from repro.streaming import CallbackSource

        #: gauges computed from the wall clock at scrape time
        clocked = {"stream_events_per_second", "stream_watermark_age_seconds"}

        async def scenario():
            catalog = serving_catalog()
            session = SqlSession(catalog)
            loop = asyncio.get_running_loop()
            async with DeltaServer(catalog) as server:
                subscriptions = []
                for sql in (SQL, "SELECT v, COUNT(*) FROM t GROUP BY v"):
                    source = CallbackSource(capacity=64)
                    subscription = server.broker.subscribe_plan(
                        session.plan(sql), sources={"t": source},
                        options=ExecutionOptions(observe="metrics"))
                    source.push((1, 2), stream="t")
                    # the resident has executed a batch once a delta is out
                    assert await loop.run_in_executor(
                        None, lambda: subscription.pop(
                            block=True, timeout=10.0)) is not None
                    subscriptions.append(subscription)
                assert server.broker.topology_count == 2
                try:
                    return (await http_get(server, "/metrics"),
                            await http_get(server, "/metrics.json"))
                finally:
                    for subscription in subscriptions:
                        subscription.detach()

        (_s, _h, text_body), (_s2, _h2, json_body) = asyncio.run(scenario())
        lines = [line for line in text_body.splitlines()
                 if line and not line.startswith("#")]
        parsed = parse(text_body)
        assert len(lines) == len(parsed), "a series was exported twice"
        fingerprints = set()
        for name, labels in parsed:
            if name.startswith("serving_"):
                continue
            assert "fingerprint" in dict(labels), (name, labels)
            fingerprints.add(dict(labels)["fingerprint"])
        assert len(fingerprints) == 2
        for family in ("topology_rows_received_total", "stream_events_total",
                       "checkpoint_commits_total", "routed_rows_total",
                       "operator_batch_seconds_count"):
            assert len({dict(labels)["fingerprint"]
                        for name, labels in parsed if name == family}) == 2
        flat = json.loads(json_body)
        assert len(flat) == len(parsed)
        for (name, labels), value in parsed.items():
            assert flat_key(name, labels) in flat
            if name not in clocked:
                assert flat[flat_key(name, labels)] == value
