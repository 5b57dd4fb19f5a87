"""The bottleneck cost model.

Runtime of an online plan is modelled additively over its pipeline
elements, matching the paper's Figure 5 methodology (plans built up one
element at a time):

- **read**: raw tuples read, divided across reader tasks;
- **selection**: tuples through each selection, priced by cost class;
- **network**: the *maximum* tuples received by any machine -- the
  receiver NIC is the bottleneck, so both replication (everyone receives
  more) and skew (one machine receives most) raise it;
- **join CPU**: the *maximum* per-machine local-join work -- skew gates
  the whole operator on its slowest machine (section 7.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.costmodel.calibration import CostConstants, DEFAULT_CONSTANTS
from repro.engine.runner import RunResult


@dataclass
class CostBreakdown:
    """Modelled runtime, decomposed like the paper's Figure 5 bars."""

    read: float = 0.0
    selection: float = 0.0
    network: float = 0.0
    join_cpu: float = 0.0
    output: float = 0.0

    @property
    def total(self) -> float:
        return self.read + self.selection + self.network + self.join_cpu + self.output

    def fractions(self) -> Dict[str, float]:
        total = self.total
        if total == 0:
            return {}
        return {
            "read": self.read / total,
            "selection": self.selection / total,
            "network": self.network / total,
            "join_cpu": self.join_cpu / total,
            "output": self.output / total,
        }

    def scaled(self, factor: float) -> "CostBreakdown":
        return CostBreakdown(
            self.read * factor, self.selection * factor, self.network * factor,
            self.join_cpu * factor, self.output * factor,
        )

    def __str__(self):
        parts = ", ".join(
            f"{name}={value:.1f}" for name, value in [
                ("read", self.read), ("sel", self.selection),
                ("net", self.network), ("join", self.join_cpu),
                ("out", self.output),
            ] if value
        )
        return f"CostBreakdown(total={self.total:.1f}: {parts})"


class CostModel:
    """Prices measured counters into modelled runtimes."""

    def __init__(self, constants: CostConstants = DEFAULT_CONSTANTS):
        self.constants = constants

    def run_cost(self, result: RunResult) -> CostBreakdown:
        """Cost of a full engine run (sources, joins, aggregation)."""
        c = self.constants
        breakdown = CostBreakdown()
        source_tasks = sum(s.parallelism for s in result.plan.sources) or 1
        total_read = sum(result.reads.values())
        breakdown.read = c.read_per_tuple * total_read / source_tasks
        for _name, (cost_class, seen, _passed) in result.selections.items():
            breakdown.selection += c.selection_cost(cost_class) * seen / source_tasks
        for join in result.plan.joins:
            received = result.metrics.received.get(join.name, [0])
            breakdown.network += c.network_per_tuple * max(received)
            work = result.join_work.get(join.name, [0])
            breakdown.join_cpu += c.join_cost(join.local_join) * max(work)
        if result.plan.aggregation is not None:
            agg = result.plan.aggregation
            received = result.metrics.received.get(agg.name, [0])
            breakdown.network += c.network_per_tuple * max(received)
        breakdown.output = c.output_per_tuple * result.query_output
        return breakdown.scaled(c.seconds_per_unit)
