"""Smoke test of the benchmark itself: one ``--quick --traced`` run.

No timing assertions -- only that every metric ``BENCHMARK.json`` names
is printed once per workload with its unit, that no operation failed,
that the trace files nest, and that ``compare`` keeps like with like.
"""

import json
import os
import subprocess
import sys

import pytest

from benchmarks.squallbench import cli, metrics, tracer, workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")


def run(*args, timeout=300):
    return subprocess.run([sys.executable, RUN, *args], capture_output=True,
                          text=True, timeout=timeout)


@pytest.fixture(scope="module")
def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("squallbench") / "quick.json"
    done = run("--quick", "--traced", "--out", str(out))
    assert done.returncode == 0, done.stderr[-4000:]
    with open(out) as handle:
        return done.stdout, json.load(handle), out


def test_manifest_matches_the_catalogue(manifest):
    assert [w["name"] for w in manifest["workloads"]] == [
        w.name for w in workloads.WORKLOADS]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in manifest["end_to_end"]] == [
        entry[:4] for entry in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in manifest["per_layer"]] == [
        entry[:3] for entry in metrics.PER_LAYER]
    assert manifest["run_seconds"] == cli.DEFAULT_SECONDS
    assert manifest["paths"] == ["benchmarks/squallbench"]
    with open(os.path.join(HERE, "README.md")) as handle:
        readme = handle.read()
    for entry in metrics.END_TO_END + metrics.PER_LAYER:
        assert f"`{entry[0]}`" in readme, entry[0]


def test_every_metric_is_printed_once_with_its_unit(manifest, quick):
    stdout, _summary, _path = quick
    printed = {}
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) >= 4 and not line.startswith(("{", " ", '"')):
            printed.setdefault((fields[0], fields[1]), []).append(fields[3])
    for workload in manifest["workloads"]:
        for metric in manifest["end_to_end"] + manifest["per_layer"]:
            units = printed.get((workload["name"], metric["name"]))
            assert units == [metric["unit"]], (
                workload["name"], metric["name"], units)


def test_no_operation_failed(quick):
    _stdout, summary, _path = quick
    assert set(summary["failed_share"]) == {
        w.name for w in workloads.WORKLOADS}
    assert all(share == 0 for share in summary["failed_share"].values())
    assert list(summary)[-1] == "claim" and summary["claim"] is None


def test_trace_files_nest_and_reach_their_roots():
    for workload in workloads.WORKLOADS:
        path = os.path.join(HERE, "out", f"trace_{workload.name}.json")
        with open(path) as handle:
            payload = json.load(handle)
        assert tracer.check_nesting(payload) == []
        root = payload["names"].index(tracer.ROOT)
        main = payload["threads"][0]["spans"]
        assert any(span[0] == root for span in main)
        # on the thread that runs the repetitions, every span of a
        # repetition hangs below that repetition's root span
        for span in main:
            if span[4] >= 0 and span[0] != root:
                top = span
                while top[3] >= 0:
                    top = main[top[3]]
                assert top[0] == root, payload["names"][top[0]]


def test_compare_keeps_like_with_like(quick, tmp_path):
    _stdout, summary, path = quick
    same = run("compare", str(path), str(path))
    assert same.returncode == 0, same.stderr
    assert " worse" not in same.stdout
    other = dict(summary, cpu_count=(summary["cpu_count"] or 1) + 1)
    other_path = tmp_path / "other_cpus.json"
    other_path.write_text(json.dumps(other))
    refused = run("compare", str(path), str(other_path))
    assert refused.returncode == 2
    assert "cpu_count" in refused.stderr
