"""squall-lint: the analyzer analyzed.

Three layers: the fixture corpus (each rule catches a seeded
reconstruction of its historical bug, and the suppressed/clean variant
stays clean), the framework mechanics (suppressions, holds=, markers,
CLI contract), and the self-check -- the repo's own ``src/`` tree must
be clean, which is what the CI ``analysis`` job enforces.
"""

import ast
import json
import os
import subprocess
import sys

from repro.analysis import analyze_paths, analyze_source, default_checkers

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "analysis")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


def findings_for(name: str):
    return analyze_paths([fixture(name)]).findings


def rules_of(findings):
    return sorted({finding.rule for finding in findings})


# -- the four seeded historical bug classes -----------------------------


class TestSeededBugs:
    def test_subscribe_race_is_caught(self):
        """The PR 7 class: guarded fields touched outside the sink lock."""
        findings = findings_for("lock_discipline_bad.py")
        assert rules_of(findings) == ["lock-discipline"]
        flagged = {(f.line, f.message.split("'")[1]) for f in findings}
        # the catch-up read and the attach append, both in subscribe()
        assert {attr for _line, attr in flagged} == {
            "RacySink._counts", "RacySink._subscriptions"}
        assert all("subscribe()" in f.message for f in findings)

    def test_fixed_subscribe_is_clean(self):
        assert findings_for("lock_discipline_clean.py") == []

    def test_registry_dedup_race_is_caught(self):
        """The obs class: instrument dedup done outside the registry lock."""
        findings = findings_for("registry_bad.py")
        assert rules_of(findings) == ["lock-discipline"]
        flagged = {f.message.split("'")[1] for f in findings}
        assert flagged == {"RacyRegistry._instruments",
                           "RacyRegistry._collectors"}
        methods = " ".join(f.message for f in findings)
        assert "counter()" in methods and "register_collector()" in methods

    def test_locked_registry_is_clean(self):
        assert findings_for("registry_clean.py") == []

    def test_ab_ba_deadlock_cycle_is_caught(self):
        findings = findings_for("lock_order_bad.py")
        assert rules_of(findings) == ["lock-order"]
        cycles = [f for f in findings if "potential deadlock" in f.message]
        assert len(cycles) == 1
        assert "Registry._lock" in cycles[0].message
        assert "Sink._lock" in cycles[0].message
        self_deadlocks = [f for f in findings
                          if "self-deadlock" in f.message]
        assert len(self_deadlocks) == 1
        assert "non-reentrant" in self_deadlocks[0].message

    def test_unpicklable_bolt_state_is_caught(self):
        """The PR 8 class: closures/locks on a pipe-shipped bolt."""
        findings = findings_for("pickle_bad.py")
        assert rules_of(findings) == ["pickle-safety"]
        whats = " ".join(f.message for f in findings)
        assert "a lambda" in whats
        assert "threading.Lock" in whats
        assert "closure" in whats
        assert "generator expression" in whats
        assert len(findings) == 4

    def test_pickle_fixes_are_clean(self):
        assert findings_for("pickle_clean.py") == []

    def test_uncheckpointed_routing_field_is_caught(self):
        findings = findings_for("checkpoint_bad.py")
        assert rules_of(findings) == ["checkpoint-completeness"]
        messages = " ".join(f.message for f in findings)
        # missing protocol entirely
        assert "ForgetfulShuffle" in messages
        # protocol present but one field uncaptured
        assert "PartialShuffle._routed" in messages
        # __getstate__ drops a key __setstate__ never restores
        assert "LossyOperator" in messages and "_cache" in messages
        assert len(findings) == 3

    def test_checkpointed_routing_is_clean(self):
        assert findings_for("checkpoint_clean.py") == []

    def test_unordered_iteration_nondeterminism_is_caught(self):
        findings = findings_for("determinism_bad.py")
        assert rules_of(findings) == ["determinism"]
        messages = " ".join(f.message for f in findings)
        assert "unordered set" in messages
        assert "wall clock" in messages
        assert "random.randrange" in messages
        assert "id()" in messages
        assert len(findings) == 5

    def test_deterministic_kernels_are_clean(self):
        """sorted(set), time.monotonic, seeded Random, suppressed id()."""
        assert findings_for("determinism_clean.py") == []


# -- framework mechanics ------------------------------------------------


SNIPPET = """
import threading

class Box:
    GUARDED_BY = {"items": "_lock"}

    def __init__(self):
        self._lock = threading.Lock()
        self.items = []

    def peek(self):
        return len(self.items)__COMMENT__
"""


class TestSuppressions:
    def test_unsuppressed_snippet_fires(self):
        findings = analyze_source(SNIPPET.replace("__COMMENT__", ""))
        assert [f.rule for f in findings] == ["lock-discipline"]

    def test_same_line_suppression(self):
        comment = "  # squall-lint: disable=lock-discipline"
        assert analyze_source(SNIPPET.replace("__COMMENT__", comment)) == []

    def test_line_above_suppression(self):
        source = SNIPPET.replace("__COMMENT__", "").replace(
            "        return len(self.items)",
            "        # squall-lint: disable=lock-discipline\n"
            "        return len(self.items)")
        assert analyze_source(source) == []

    def test_file_level_suppression(self):
        source = ("# squall-lint: disable-file=lock-discipline\n"
                  + SNIPPET.replace("__COMMENT__", ""))
        assert analyze_source(source) == []

    def test_suppressing_one_rule_keeps_others(self):
        comment = "  # squall-lint: disable=determinism"
        findings = analyze_source(SNIPPET.replace("__COMMENT__", comment))
        assert [f.rule for f in findings] == ["lock-discipline"]

    def test_holds_annotation(self):
        source = SNIPPET.replace("__COMMENT__", "").replace(
            "    def peek(self):",
            "    def peek(self):  # squall-lint: holds=_lock")
        assert analyze_source(source) == []

    def test_rules_filter(self):
        findings = analyze_source(SNIPPET.replace("__COMMENT__", ""),
                                  rules=["determinism"])
        assert findings == []

    def test_unreadable_guarded_by_is_a_finding(self):
        """A map the analyzer cannot read would silently turn the lock
        check off for the class; it is reported instead."""
        source = SNIPPET.replace("__COMMENT__", "").replace(
            'GUARDED_BY = {"items": "_lock"}',
            'GUARDED_BY = {name: "_lock" for name in ("items",)}')
        findings = analyze_source(source)
        assert [f.rule for f in findings] == ["lock-discipline"]
        assert "not a literal" in findings[0].message


class TestParseErrors:
    def test_unparsable_file_is_a_finding(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def broken(:\n")
        report = analyze_paths([str(path)])
        assert [f.rule for f in report.findings] == ["parse-error"]
        assert not report.clean


# -- CLI contract -------------------------------------------------------


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True, text=True, env=env,
        cwd=os.path.join(os.path.dirname(__file__), os.pardir))


class TestCli:
    def test_findings_exit_1_and_render_locations(self):
        proc = run_cli(fixture("pickle_bad.py"))
        assert proc.returncode == 1
        assert "pickle_bad.py:22:" in proc.stdout
        assert "[pickle-safety]" in proc.stdout

    def test_clean_exit_0(self):
        proc = run_cli(fixture("pickle_clean.py"))
        assert proc.returncode == 0
        assert "clean" in proc.stdout

    def test_json_format(self):
        proc = run_cli(fixture("determinism_bad.py"), "--format", "json")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["files_checked"] == 1
        assert len(payload["findings"]) == 5
        assert all(f["rule"] == "determinism" for f in payload["findings"])
        assert "determinism=5" in payload["summary"]

    def test_unknown_rule_exit_2(self):
        proc = run_cli("--rules", "no-such-rule", fixture("pickle_bad.py"))
        assert proc.returncode == 2
        assert "unknown rule" in proc.stderr

    def test_list_rules(self):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        for checker in default_checkers():
            assert checker.rule in proc.stdout


# -- the self-check: this repo must satisfy its own analyzer ------------


class TestRepoIsClean:
    def test_src_tree_is_clean(self):
        report = analyze_paths([SRC])
        assert report.findings == [], "\n".join(
            finding.render() for finding in report.findings)
        assert report.files_checked > 50

    def test_cli_on_src_exits_0(self):
        """Exactly what the CI analysis job runs."""
        proc = run_cli("src", "--format", "json")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["findings"] == []


# -- regression tests for the true positives the analyzer surfaced ------


class TestSurfacedBugs:
    def test_stream_metrics_snapshot_reads_under_lock(self):
        """StreamMetrics.snapshot() used to read total_events/watermark
        unlocked (torn against a concurrent record_events)."""
        import ast
        import inspect

        from repro.storm.metrics import StreamMetrics

        tree = ast.parse(inspect.getsource(StreamMetrics.snapshot).lstrip())
        func = tree.body[0]
        returns_in_with = [
            node for with_node in ast.walk(func)
            if isinstance(with_node, ast.With)
            for node in ast.walk(with_node)
            if isinstance(node, ast.Return)
        ]
        assert returns_in_with, "snapshot() must read counters under _lock"

        metrics = StreamMetrics()
        metrics.record_events(3, event_time=7.0)
        metrics.record_watermark(5.0)
        snap = metrics.snapshot()
        assert snap["events"] == 3
        assert snap["watermark"] == 5.0
        assert snap["event_time_lag"] == 2.0

    def test_adaptive_partitioner_routing_state_round_trip(self):
        """AdaptiveOneBucket had no routing_state: a recovered worker
        would restart from the initial matrix shape and re-route
        replayed tuples differently than the original delivery."""
        from repro.partitioning.adaptive import AdaptiveOneBucket

        original = AdaptiveOneBucket("R", "S", machines=8, seed=42,
                                     check_interval=16)
        for i in range(200):
            original.route("R", (i,))
        for i in range(180):
            original.route("S", (i,))
        assert original.reshapes, "scenario must actually reshape"

        restored = AdaptiveOneBucket("R", "S", machines=8, seed=0,
                                     check_interval=16)
        restored.restore_routing_state(original.routing_state())
        assert (restored.rows, restored.cols) == (original.rows,
                                                  original.cols)
        assert restored.machines_for("R", 0) == original.machines_for("R", 0)
        # identical post-restore routing, including RNG-driven choices
        for i in range(50):
            row = (1000 + i,)
            assert restored.route("R", row) == original.route("R", row)
            assert restored.route("S", row) == original.route("S", row)

    def test_delta_sink_is_marked_coordinator_owned(self):
        from repro.streaming.deltas import DeltaSink

        assert DeltaSink.PIPE_PICKLED is False

    def test_delta_ring_state_is_read_by_the_lock_checker(self):
        """The analyzer's static map of the fan-out classes is the one
        they declare, so the lock check covers the chunk ring."""
        from repro.analysis.core import ModuleInfo
        from repro.streaming import deltas

        path = deltas.__file__
        with open(path) as handle:
            module = ModuleInfo(path, handle.read())
        static = {cls.name: cls.guarded_by for cls in module.classes}
        for cls in (deltas.Subscription, deltas.DeltaSink):
            assert static[cls.__name__] == cls.GUARDED_BY
        assert {"_chunks", "_head", "_size"} <= set(
            deltas.Subscription.GUARDED_BY)


# -- one execution core: the step kernel stays the only one -------------


class TestOneStepKernel:
    """Structural check over the dataplane modules: a second loop that
    calls a task's ``execute_batch`` itself, or a second worker/pipe
    class, is how the five hand-copied step loops of ROADMAP item 3
    came to be."""

    MODULES = ("storm/cluster.py", "storm/executor.py", "storm/kernel.py",
               "streaming/cluster.py")

    def trees(self):
        for module in self.MODULES:
            path = os.path.join(SRC, "repro", module)
            with open(path) as handle:
                yield module, ast.parse(handle.read(), filename=path)

    @staticmethod
    def called_attributes(node):
        return {call.func.attr for call in ast.walk(node)
                if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)}

    def test_exactly_one_function_calls_execute_batch(self):
        callers = [
            f"{module}:{node.name}"
            for module, tree in self.trees()
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and "execute_batch" in self.called_attributes(node)]
        assert callers == ["storm/kernel.py:deliver"]

    def test_exactly_one_level_pass(self):
        """The deliver-and-route loop of a level schedule (every delivery
        of a task through ``deliver``, the emissions routed into a wave
        buffer with ``add``) is written once: the staged workers' waves
        and the inline rounds both call it."""
        def called_names(node):
            return {call.func.id for call in ast.walk(node)
                    if isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)}

        functions = [
            (f"{module}:{node.name}", node)
            for module, tree in self.trees()
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        level_passes = [
            name for name, node in functions
            if "deliver" in called_names(node)
            and "add" in self.called_attributes(node)]
        assert level_passes == ["storm/kernel.py:run_level"]
        callers = [name for name, node in functions
                   if "run_level" in called_names(node)]
        assert callers == ["storm/cluster.py:_level_pass",
                           "storm/executor.py:run_wave"]

    def test_exactly_one_class_forks_a_worker_behind_a_pipe(self):
        forkers = [
            f"{module}:{node.name}"
            for module, tree in self.trees()
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and {"Process", "Pipe"} <= self.called_attributes(node)]
        assert forkers == ["storm/executor.py:ForkedWorker"]

    def test_no_worker_threads_or_queues(self):
        """Two executors, inline and forked processes: a worker thread or
        a task queue in the dataplane is a third backend coming back."""
        constructed = [
            f"{module}:{call.func.value.id}.{call.func.attr}"
            for module, tree in self.trees()
            for call in ast.walk(tree)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Name)
            and (call.func.value.id, call.func.attr) in {
                ("threading", "Thread"), ("queue", "Queue")}]
        assert constructed == []
