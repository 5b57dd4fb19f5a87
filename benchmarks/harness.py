"""Experiment harness shared by the benchmark files.

Builds join specs (with sampled skew markings, exactly as the offline
chooser of paper section 3.4 would), runs workloads as physical plans
through the engine's ``run_plan`` to completion, and prices the measured
counters with the calibrated cost model's ``run_cost``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.options import ExecutionOptions
from repro.core.predicates import EquiCondition, JoinSpec, RelationInfo
from repro.core.schema import Relation
from repro.core.statistics import SkewDetector, profile_column
from repro.costmodel import CostBreakdown, CostModel
from repro.engine import (
    JoinComponent,
    PhysicalPlan,
    RunResult,
    SourceComponent,
    run_plan,
)

#: the join of a one-join plan; a pipeline's stages are J1, J2, ...
JOIN = "J1"

OPTIONS = ExecutionOptions(batch_size=64)


def interleave(data: Dict[str, List[tuple]], seed: int = 0) -> List[Tuple[str, tuple]]:
    """Shuffled (relation, row) stream -- online arrival."""
    rng = random.Random(seed)
    stream = [(name, row) for name, rows in data.items() for row in rows]
    rng.shuffle(stream)
    return stream


def profiled_relation_info(relation: Relation, name: str, join_attrs: List[str],
                           machines: int) -> RelationInfo:
    """RelationInfo with sampled skew markings for the given join attrs."""
    detector = SkewDetector()
    skewed = set()
    top_freq: Dict[str, float] = {}
    for attr in join_attrs:
        position = relation.schema.index_of(attr)
        stats = profile_column(row[position] for row in relation.rows[:50_000])
        top_freq[attr] = stats.top_frequency
        if detector.is_skewed(stats, machines):
            skewed.add(attr)
    return RelationInfo(name, relation.schema, len(relation.rows),
                        frozenset(skewed), top_freq)


def tpch9_partial_spec(tables: Dict[str, Relation], machines: int) -> JoinSpec:
    """Lineitem >< PartSupp >< Part: partkey everywhere + suppkey L-PS.

    Matches the paper's TPCH9-Partial, where the Hybrid chooses random
    partitioning on the (zipf-skewed) Partkey and hash on Suppkey.
    """
    lineitem = profiled_relation_info(tables["lineitem"], "lineitem",
                                      ["partkey", "suppkey"], machines)
    partsupp = profiled_relation_info(tables["partsupp"], "partsupp",
                                      ["partkey", "suppkey"], machines)
    part = profiled_relation_info(tables["part"], "part", ["partkey"], machines)
    return JoinSpec(
        [lineitem, partsupp, part],
        [
            EquiCondition(("lineitem", "partkey"), ("partsupp", "partkey")),
            EquiCondition(("partsupp", "partkey"), ("part", "partkey")),
            EquiCondition(("lineitem", "suppkey"), ("partsupp", "suppkey")),
        ],
    )


@dataclass
class ExperimentResult:
    """One plan run to completion on the engine, plus its modelled runtime."""

    run: RunResult
    cost: CostBreakdown
    #: False when some joiner task's final state outgrew the memory budget
    completed: bool = True

    @property
    def runtime(self) -> float:
        return self.cost.total

    @property
    def partitioning(self) -> str:
        return self.run.partitioner_info[self.run.plan.joins[-1].name]

    @property
    def network(self) -> int:
        """Tuples the joins received, shuffled intermediates included."""
        return sum(self.run.metrics.component_input(join.name)
                   for join in self.run.plan.joins)


def run_pipeline_experiment(
    specs_and_schemes: List[Tuple[JoinSpec, str]],
    data: Dict[str, List[tuple]],
    machines: int,
    local_join: str = "dbtoaster",
    memory_budget: Optional[int] = None,
    seed: int = 0,
    model: Optional[CostModel] = None,
) -> ExperimentResult:
    """Run a left-deep pipeline of joins as one plan.

    Stage ``i`` is the join ``J<i+1>``; its output feeds the next stage,
    whose spec names it as a relation.  Every relation of ``data`` is a
    source holding its rows in :func:`interleave`'s order, read by
    ``machines`` tasks (the paper's readers share the joiners' cluster).
    The input is insert-only, so a joiner task's final state is its peak:
    the run is over the memory budget when any task ends above it.
    """
    schemas = {info.name: info.schema
               for spec, _scheme in specs_and_schemes for info in spec.relations}
    arrivals: Dict[str, List[tuple]] = {name: [] for name in data}
    for name, row in interleave(data, seed=seed):
        arrivals[name].append(row)
    plan = PhysicalPlan(
        sources=[SourceComponent(name, Relation(name, schemas[name], rows),
                                 parallelism=machines)
                 for name, rows in arrivals.items()],
        joins=[JoinComponent(f"J{i + 1}", spec, machines, scheme, local_join,
                             seed=seed + i)
               for i, (spec, scheme) in enumerate(specs_and_schemes)],
    )
    run = run_plan(plan, options=OPTIONS)
    peak = max(max(states) for states in run.join_state.values())
    return ExperimentResult(
        run=run,
        cost=(model or CostModel()).run_cost(run),
        completed=memory_budget is None or peak <= memory_budget,
    )


def run_hyld_experiment(
    spec: JoinSpec,
    data: Dict[str, List[tuple]],
    machines: int,
    scheme: str,
    local_join: str = "dbtoaster",
    memory_budget: Optional[int] = None,
    seed: int = 0,
    model: Optional[CostModel] = None,
) -> ExperimentResult:
    """Run one multi-way join (HyLD: hypercube scheme x local join)."""
    return run_pipeline_experiment([(spec, scheme)], data, machines,
                                   local_join, memory_budget, seed, model)


def fmt(value, digits=2):
    """Compact numeric formatting for report tables."""
    if isinstance(value, float):
        if value >= 1000:
            return f"{value:,.0f}"
        return f"{value:.{digits}f}"
    if isinstance(value, int) and value >= 1000:
        return f"{value:,}"
    return str(value)
