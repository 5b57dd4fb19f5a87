"""squallbench: the repository's benchmark.

Seven workloads, end-to-end metrics in calibrated seconds, and a traced
pass that times the public functions of each layer from outside the
engine.  ``BENCHMARK.json`` at the repository root names the metrics;
``README.md`` in this directory defines them.
"""

#: bumped whenever a workload, a size or a metric definition changes;
#: ``compare`` refuses to compare results of different versions
VERSION = 1
