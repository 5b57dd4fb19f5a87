"""Join predicates, join specifications and join-key equivalence classes.

A multi-way join is described by a :class:`JoinSpec`: the participating
relations (with size estimates and per-attribute skew information) and the
conditions between them.  Equality conditions induce *equivalence classes*
of attributes (the paper's join keys ``y``, ``z`` ...): these classes are
the candidate hypercube dimensions for the Hash-Hypercube, and -- after
skewed-attribute *renaming* -- for the Hybrid-Hypercube.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.core.schema import Schema

AttrRef = Tuple[str, str]  # (relation name, attribute name)

_THETA_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "!=": operator.ne,
}


class JoinCondition:
    """Base class for binary join conditions."""

    left: AttrRef
    right: AttrRef

    @property
    def is_equi(self) -> bool:
        return False

    def relations(self) -> Tuple[str, str]:
        return (self.left[0], self.right[0])

    def evaluate(self, left_value, right_value) -> bool:
        raise NotImplementedError

    def flipped(self) -> "JoinCondition":
        """The same condition with left/right swapped."""
        raise NotImplementedError


@dataclass(frozen=True)
class EquiCondition(JoinCondition):
    """``R.a = S.b`` -- the only condition type hash partitioning supports."""

    left: AttrRef
    right: AttrRef

    @property
    def is_equi(self) -> bool:
        return True

    def evaluate(self, left_value, right_value) -> bool:
        return left_value == right_value

    def flipped(self) -> "EquiCondition":
        return EquiCondition(self.right, self.left)

    def __repr__(self):
        return f"{self.left[0]}.{self.left[1]} = {self.right[0]}.{self.right[1]}"


@dataclass(frozen=True)
class ThetaCondition(JoinCondition):
    """``scale_l * R.a  OP  scale_r * S.b`` for OP in <, <=, >, >=, !=.

    Covers the paper's running example ``2 * R.B < S.C``.
    """

    left: AttrRef
    op: str
    right: AttrRef
    left_scale: float = 1.0
    right_scale: float = 1.0

    def __post_init__(self):
        if self.op not in _THETA_OPS:
            raise ValueError(f"unknown theta operator {self.op!r}")

    def evaluate(self, left_value, right_value) -> bool:
        return _THETA_OPS[self.op](
            self.left_scale * left_value, self.right_scale * right_value
        )

    def flipped(self) -> "ThetaCondition":
        flipped_op = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "!=": "!="}
        return ThetaCondition(
            self.right, flipped_op[self.op], self.left,
            left_scale=self.right_scale, right_scale=self.left_scale,
        )

    def __repr__(self):
        return (
            f"{self.left_scale}*{self.left[0]}.{self.left[1]} {self.op} "
            f"{self.right_scale}*{self.right[0]}.{self.right[1]}"
        )


@dataclass(frozen=True)
class BandCondition(JoinCondition):
    """``|R.a - S.b| <= width`` -- the band joins targeted by M-Bucket/EWH."""

    left: AttrRef
    right: AttrRef
    width: float = 0.0

    def __post_init__(self):
        if self.width < 0:
            raise ValueError("band width must be non-negative")

    def evaluate(self, left_value, right_value) -> bool:
        return abs(left_value - right_value) <= self.width

    def flipped(self) -> "BandCondition":
        return BandCondition(self.right, self.left, self.width)

    def __repr__(self):
        return f"|{self.left[0]}.{self.left[1]} - {self.right[0]}.{self.right[1]}| <= {self.width}"


@dataclass
class RelationInfo:
    """Planning-time description of one join input.

    ``size`` is the (estimated) cardinality used by the hypercube dimension
    optimiser.  ``skewed`` marks attributes with data skew; the
    Hybrid-Hypercube uses random partitioning on those.  ``top_freq`` gives
    the fraction of tuples carrying the most frequent key per attribute
    (used in the skew-adjusted load formula ``(L - Lmf)/p + Lmf``).
    """

    name: str
    schema: Schema
    size: int = 0
    skewed: FrozenSet[str] = frozenset()
    top_freq: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        self.skewed = frozenset(self.skewed)
        for attr in self.skewed:
            self.schema.index_of(attr)  # raises on unknown attribute
        if self.size < 0:
            raise ValueError("relation size must be non-negative")

    def is_skewed(self, attribute: str) -> bool:
        return attribute in self.skewed

    def top_frequency(self, attribute: str) -> float:
        """Fraction of tuples with the most frequent key (0 = treat as uniform)."""
        return self.top_freq.get(attribute, 0.0)


class UnionFind:
    """Classic disjoint-set structure used to build join-key classes."""

    def __init__(self):
        self._parent: dict = {}

    def find(self, item):
        parent = self._parent.setdefault(item, item)
        if parent == item:
            return item
        root = self.find(parent)
        self._parent[item] = root
        return root

    def union(self, a, b):
        root_a, root_b = self.find(a), self.find(b)
        if root_a != root_b:
            self._parent[root_b] = root_a

    def groups(self) -> List[FrozenSet]:
        by_root: Dict[object, set] = {}
        for item in list(self._parent):
            by_root.setdefault(self.find(item), set()).add(item)
        return [frozenset(group) for group in by_root.values()]


class JoinSpec:
    """A multi-way join: relations plus the conditions between them."""

    def __init__(self, relations: Sequence[RelationInfo], conditions: Sequence[JoinCondition]):
        if not relations:
            raise ValueError("a join needs at least one relation")
        self.relations: List[RelationInfo] = list(relations)
        self.by_name: Dict[str, RelationInfo] = {}
        for info in self.relations:
            if info.name in self.by_name:
                raise ValueError(f"duplicate relation {info.name!r} in join spec")
            self.by_name[info.name] = info
        self.conditions: List[JoinCondition] = list(conditions)
        self._validate()

    def _validate(self):
        for cond in self.conditions:
            for rel_name, attr in (cond.left, cond.right):
                if rel_name not in self.by_name:
                    raise ValueError(f"condition references unknown relation {rel_name!r}")
                self.by_name[rel_name].schema.index_of(attr)
            if cond.left[0] == cond.right[0]:
                raise ValueError(
                    "join conditions must relate two distinct relations; "
                    f"got {cond!r} (self-joins need aliased relations)"
                )

    @property
    def relation_names(self) -> List[str]:
        return [info.name for info in self.relations]

    @property
    def is_equi_join(self) -> bool:
        return all(cond.is_equi for cond in self.conditions)

    def adjacency(self) -> Dict[str, set]:
        """Relation-level join graph."""
        graph = {name: set() for name in self.relation_names}
        for cond in self.conditions:
            a, b = cond.left[0], cond.right[0]
            graph[a].add(b)
            graph[b].add(a)
        return graph

    def equality_classes(self) -> List[FrozenSet[AttrRef]]:
        """Connected components of attributes linked by equality conditions.

        Each class is one logical join key (the paper's ``y``, ``z`` ...)
        and a candidate hypercube dimension.  Attributes appearing only in
        theta/band conditions form singleton classes.
        """
        uf = UnionFind()
        for cond in self.conditions:
            if cond.is_equi:
                uf.union(cond.left, cond.right)
            else:
                uf.find(cond.left)
                uf.find(cond.right)
        return sorted(uf.groups(), key=lambda group: sorted(group))

    def __repr__(self):
        rels = ", ".join(self.relation_names)
        return f"JoinSpec([{rels}], {self.conditions!r})"
