"""squall-lint: the repo's domain-specific static analysis suite.

Four AST-level checkers encode invariants that ruff and the test suite
cannot see, each grounded in a real past bug class:

- ``lock-discipline`` / ``lock-order``: fields declared in a class's
  ``GUARDED_BY`` map may only be touched while holding their lock (the
  PR 7 subscribe/fan-out race), and the cross-module lock acquisition
  graph must stay acyclic (broker RLock vs. sink locks).
- ``pickle-safety``: classes shipped over the ``processes`` pipes must
  not stash lambdas/closures/locks/generators/handles without a
  ``__getstate__`` (the Selection/Projection closure bug, previously a
  runtime-only refusal).
- ``checkpoint-completeness``: a routing class must be pure or say it
  is not (``supports_task_local_routing``), and operator state must be
  reachable from ``__getstate__``, or recovery silently loses it.
- ``determinism``: unordered set iteration, wall-clock time, ``random``
  and ``id()`` in operator kernels break byte-identical batch parity.

Run it with ``python -m repro.analysis src/`` (exit 0 = clean, 1 =
findings, 2 = usage/internal error).  See ``docs/STATIC_ANALYSIS.md``
for the rule catalog and the suppression syntax.
"""

from repro.analysis.core import (
    RULES,
    Checker,
    Corpus,
    Finding,
    ModuleInfo,
    Report,
    analyze_paths,
    analyze_source,
    default_checkers,
)

__all__ = [
    "RULES",
    "Checker",
    "Corpus",
    "Finding",
    "ModuleInfo",
    "Report",
    "analyze_paths",
    "analyze_source",
    "default_checkers",
]
