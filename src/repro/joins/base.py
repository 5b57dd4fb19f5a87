"""Local join interface, composite row layout, and a naive reference join.

Output rows are flattened tuples: the concatenation of the base relations'
rows in the :class:`~repro.core.predicates.JoinSpec` relation order.
:class:`JoinSchema` maps (relation, attribute) to positions in that layout.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.predicates import JoinSpec
from repro.core.schema import Schema


class JoinSchema:
    """Layout of flattened multi-way join output rows."""

    def __init__(self, relations: Sequence[Tuple[str, Schema]]):
        self.order: List[str] = [name for name, _schema in relations]
        self.schemas: Dict[str, Schema] = dict(relations)
        self.offsets: Dict[str, int] = {}
        offset = 0
        for name, schema in relations:
            self.offsets[name] = offset
            offset += schema.arity
        self.arity = offset

    @classmethod
    def from_spec(cls, spec: JoinSpec) -> "JoinSchema":
        return cls([(info.name, info.schema) for info in spec.relations])

    def position(self, rel_name: str, attribute: str) -> int:
        return self.offsets[rel_name] + self.schemas[rel_name].index_of(attribute)

    def flatten(self, rows_by_relation: Dict[str, tuple]) -> tuple:
        """Concatenate per-relation rows into one output row."""
        parts = []
        for name in self.order:
            parts.extend(rows_by_relation[name])
        return tuple(parts)

    def slice_of(self, flat_row: tuple, rel_name: str) -> tuple:
        """Extract one relation's sub-row from a flattened output row."""
        offset = self.offsets[rel_name]
        return flat_row[offset:offset + self.schemas[rel_name].arity]

    def positions_of(self, rel_name: str) -> range:
        """Flat positions of one relation's attributes in this layout.

        The columnar join kernel uses this for probe-side key extraction
        and for gathering a component view's columns into the positions of
        a wider target layout (relations need not be contiguous there)."""
        offset = self.offsets[rel_name]
        return range(offset, offset + self.schemas[rel_name].arity)

    def output_schema(self) -> Schema:
        """Schema of flattened rows, with ``relation.attribute`` names."""
        from repro.core.schema import Field

        fields = []
        for name in self.order:
            for fld in self.schemas[name].fields:
                fields.append(Field(f"{name}.{fld.name}", fld.type))
        return Schema(fields)


class LocalJoin:
    """Interface of per-machine online join algorithms.

    ``insert`` returns the *delta* output produced by the new tuple;
    ``delete`` returns the retracted output rows (used for sliding-window
    expiration).  ``work`` counts abstract operations (index probes,
    candidate examinations, intermediate tuples constructed) consumed by
    the cost model.
    """

    #: abstract operation counter for the cost model
    work: int = 0
    #: intermediate tuples constructed (probe results that are not output)
    intermediate_tuples: int = 0

    def __init__(self, spec: JoinSpec):
        self.spec = spec
        self.join_schema = JoinSchema.from_spec(spec)

    def insert(self, rel_name: str, row: tuple) -> List[tuple]:
        raise NotImplementedError

    def delete(self, rel_name: str, row: tuple) -> List[tuple]:
        raise NotImplementedError

    def insert_batch(self, rel_name: str, rows: Sequence[tuple]) -> List[tuple]:
        """Insert a micro-batch of ``rel_name`` rows; returns the
        concatenated per-tuple deltas.

        Per-tuple semantics are preserved: each row's delta is computed
        against the state including every earlier row of the same batch.
        The default loops ``insert``; subclasses override it to amortize
        per-call setup (probe plans, index key extraction) over the batch.

        ``rows`` may be a :class:`~repro.core.columnar.ColumnBatch` --
        iteration yields plain row tuples, so the default loop (and any
        row-oriented subclass) works unchanged; vectorizing subclasses
        branch on the type to probe whole columns at once.
        """
        output: List[tuple] = []
        insert = self.insert
        for row in rows:
            output.extend(insert(rel_name, row))
        return output

    def delete_batch(self, rel_name: str, rows: Sequence[tuple]) -> List[tuple]:
        """Delete a micro-batch of ``rel_name`` rows; returns the
        concatenated per-tuple retraction deltas."""
        output: List[tuple] = []
        delete = self.delete
        for row in rows:
            output.extend(delete(rel_name, row))
        return output

    def state_size(self) -> int:
        """Stored entries (base tuples + materialised views), for the
        memory-overflow accounting of the paper's Figure 7."""
        raise NotImplementedError

    def reset(self):
        """Drop all state (tumbling window boundary)."""
        raise NotImplementedError


def satisfies_all(spec: JoinSpec, join_schema: JoinSchema,
                  rows_by_relation: Dict[str, tuple]) -> bool:
    """Check every condition among the bound relations."""
    for cond in spec.conditions:
        left_rel, left_attr = cond.left
        right_rel, right_attr = cond.right
        if left_rel not in rows_by_relation or right_rel not in rows_by_relation:
            continue
        left_value = rows_by_relation[left_rel][
            join_schema.schemas[left_rel].index_of(left_attr)
        ]
        right_value = rows_by_relation[right_rel][
            join_schema.schemas[right_rel].index_of(right_attr)
        ]
        if not cond.evaluate(left_value, right_value):
            return False
    return True


def reference_join(spec: JoinSpec, data: Dict[str, Iterable[tuple]]) -> List[tuple]:
    """Naive nested-loop multi-way join -- ground truth for tests.

    Evaluates the full Cartesian product filtered by every condition, so it
    is only usable on small inputs, but it is obviously correct.
    """
    join_schema = JoinSchema.from_spec(spec)
    names = join_schema.order
    pools = [list(data.get(name, ())) for name in names]
    output = []
    for combo in itertools.product(*pools):
        rows_by_relation = dict(zip(names, combo))
        if satisfies_all(spec, join_schema, rows_by_relation):
            output.append(join_schema.flatten(rows_by_relation))
    return output
