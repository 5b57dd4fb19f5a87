"""Logical query plans.

A logical Squall plan is a DAG of relational-algebra operators (paper
section 2).  Both the SQL parser and the functional stream API lower to
:class:`LogicalPlan` -- scans (with pushed-down filters), a join-condition
graph, and an optional grouped aggregation -- which the optimizer turns
into a physical plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.expressions import Predicate
from repro.core.predicates import JoinCondition
from repro.core.schema import Schema, split_qualified


@dataclass
class ScanDef:
    """One FROM-clause entry: a base relation under an alias, plus the
    selections pushed down onto it."""

    alias: str
    table: str
    predicates: List[Predicate] = field(default_factory=list)
    #: dominant selection cost class for the cost model ('int' or 'date')
    cost_class: str = "int"


@dataclass(frozen=True)
class AggItem:
    """One SELECT-clause aggregate over a qualified column (None = COUNT(*))."""

    kind: str  # 'sum' | 'count' | 'avg'
    column: Optional[str] = None

    def __post_init__(self):
        if self.kind not in ("sum", "count", "avg"):
            raise ValueError(f"unsupported aggregate {self.kind!r}")
        if self.kind != "count" and self.column is None:
            raise ValueError(f"{self.kind} needs a column")


@dataclass
class LogicalPlan:
    """Scans + join conditions + (optional) grouping and aggregates."""

    scans: List[ScanDef]
    conditions: List[JoinCondition] = field(default_factory=list)
    group_by: List[str] = field(default_factory=list)  # qualified alias.attr
    aggregates: List[AggItem] = field(default_factory=list)
    #: a query without aggregation: its SELECT list, qualified, which is
    #: the result's columns in order (empty: every column)
    select: List[str] = field(default_factory=list)

    def alias_names(self) -> List[str]:
        return [scan.alias for scan in self.scans]

    def scan_of(self, alias: str) -> ScanDef:
        for scan in self.scans:
            if scan.alias == alias:
                return scan
        raise KeyError(f"unknown alias {alias!r}")

    def validate(self, schemas: Dict[str, Schema]):
        """Check that every referenced alias/attribute exists."""
        aliases = set(self.alias_names())
        if len(aliases) != len(self.scans):
            raise ValueError("duplicate aliases in logical plan")
        for cond in self.conditions:
            for alias, attr in (cond.left, cond.right):
                if alias not in aliases:
                    raise ValueError(f"condition references unknown alias {alias!r}")
                schemas[alias].index_of(attr)
        for name in self.group_by:
            alias, attr = split_qualified(name)
            if alias not in aliases:
                raise ValueError(f"GROUP BY references unknown alias {alias!r}")
            schemas[alias].index_of(attr)
        for item in self.aggregates:
            if item.column is None:
                continue
            alias, attr = split_qualified(item.column)
            if alias not in aliases:
                raise ValueError(f"aggregate references unknown alias {alias!r}")
            schemas[alias].index_of(attr)
        return self

    def dag(self) -> str:
        """Human-readable rendering of the operator DAG."""
        lines = []
        for scan in self.scans:
            ops = f"scan({scan.table})"
            if scan.predicates:
                ops = f"select[{len(scan.predicates)} preds]({ops})"
            lines.append(f"  {scan.alias}: {ops}")
        if self.conditions:
            conds = " AND ".join(repr(cond) for cond in self.conditions)
            lines.append(f"  join: {conds}")
        if self.aggregates or self.group_by:
            aggs = ", ".join(
                f"{item.kind}({item.column or '*'})" for item in self.aggregates
            )
            lines.append(f"  aggregate[{', '.join(self.group_by)}]: {aggs}")
        return "LogicalPlan(\n" + "\n".join(lines) + "\n)"


def resolve_column(name: str, schemas: Dict[str, Schema]) -> Tuple[str, str]:
    """Resolve a possibly-unqualified column name to (alias, attribute).

    Unqualified names must be unambiguous across the aliases in scope.
    """
    alias, attr = split_qualified(name)
    if alias is not None:
        if alias not in schemas:
            raise KeyError(f"unknown alias {alias!r} in column {name!r}")
        schemas[alias].index_of(attr)
        return alias, attr
    owners = [a for a, schema in schemas.items() if schema.has_field(attr)]
    if not owners:
        raise KeyError(f"column {attr!r} not found in any relation in scope")
    if len(owners) > 1:
        raise KeyError(
            f"column {attr!r} is ambiguous; qualify it (candidates: {sorted(owners)})"
        )
    return owners[0], attr
