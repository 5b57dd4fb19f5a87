"""Structural plan fingerprints: the broker's dedupe key.

Two subscriptions share one resident topology exactly when their
physical plans are *structurally identical over the same data* and run
under the same pipeline-shaping execution options.  This module
canonicalizes a :class:`~repro.engine.component.PhysicalPlan` (plus the
streaming ``ts_positions`` and the resolved
:class:`~repro.core.options.ExecutionOptions`) into a deterministic text
form and hashes it.

What goes into the fingerprint:

- every source: name, relation identity, pushed-down predicate and
  projection (their frozen-dataclass reprs are deterministic),
  parallelism;
- every join: conditions, scheme, machine count, local algorithm,
  window, output positions, seed;
- the aggregation: group positions, aggregate specs, window, key
  domain, parallelism, online-ness;
- the event-time mapping (``ts_positions``) and the pipeline-shaping
  execution knobs (``batch_size``, ``executor``, ``columnar``,
  ``rate``, ``observe``) -- two subscribers asking for different batch
  sizes get different topologies, because a topology has exactly one.

What deliberately stays out: the *subscriber-side* knobs
(``max_buffer``, ``on_overflow``, tenant) -- they shape one consumer's
ring, not the shared pipeline.

Relation identity is **by object, not by value**: the canonical token
for a relation is its name, schema, row count and the identity of its
stored rows (``Relation.rows_id``, shared by a query's aliases).  Sessions that share a catalog (the serving deployment
shape -- ``repro.connect(broker=...)`` with one registry) dedupe;
sessions that register equal but separately-built copies of a dataset
do not (safe: never deduping is always correct, wrongly deduping never
is).  Hashing row *contents* would make the fingerprint O(data) per
subscribe -- exactly the cost the broker exists to avoid.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional

from repro.core.options import ExecutionOptions
from repro.core.schema import Relation
from repro.engine.component import PhysicalPlan


def _relation_token(relation: Relation) -> str:
    return (f"{relation.name}({','.join(relation.schema.names)})"
            f"#{len(relation.rows)}@{relation.rows_id:x}")


def _scheme_token(scheme) -> str:
    if isinstance(scheme, str):
        return scheme
    describe = getattr(scheme, "describe", None)
    detail = describe() if callable(describe) else repr(scheme)
    return f"{type(scheme).__name__}:{detail}"


def describe_plan(plan: PhysicalPlan,
                  ts_positions: Optional[Dict[str, int]] = None,
                  options: Optional[ExecutionOptions] = None) -> str:
    """The canonical text form a fingerprint hashes (debuggable)."""
    lines = []
    for source in sorted(plan.sources, key=lambda s: s.name):
        lines.append(
            f"source {source.name} rel={_relation_token(source.relation)} "
            f"pred={source.predicate!r} proj={source.projection!r} "
            f"names={source.projection_names!r} par={source.parallelism}")
    for join in plan.joins:
        lines.append(
            f"join {join.name} conds={join.spec.conditions!r} "
            f"rels={join.spec.relation_names!r} machines={join.machines} "
            f"scheme={_scheme_token(join.scheme)} local={join.local_join} "
            f"window={join.window!r} out={join.output_positions!r} "
            f"seed={join.seed}")
    if plan.aggregation is not None:
        agg = plan.aggregation
        lines.append(
            f"agg {agg.name} groups={list(agg.group_positions)!r} "
            f"aggs={list(agg.aggregates)!r} par={agg.parallelism} "
            f"keys={agg.key_domain!r} online={agg.online} "
            f"window={agg.window!r}")
    if ts_positions:
        lines.append(f"ts={sorted(ts_positions.items())!r}")
    if options is not None:
        lines.append(
            f"exec batch={options.batch_size} executor={options.executor} "
            f"columnar={options.columnar} rate={options.rate} "
            f"observe={options.observe}")
    return "\n".join(lines)


def plan_fingerprint(plan: PhysicalPlan,
                     ts_positions: Optional[Dict[str, int]] = None,
                     options: Optional[ExecutionOptions] = None) -> str:
    """Stable dedupe key for (plan, event-time mapping, pipeline knobs)."""
    text = describe_plan(plan, ts_positions, options)
    return hashlib.sha256(text.encode()).hexdigest()[:20]
