"""Relation schemas and typed rows.

Rows are plain Python tuples; a :class:`Schema` names and types the
positions.  This mirrors Squall's byte-array tuple representation: the
engine never boxes rows into per-field objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

VALID_TYPES = ("int", "float", "str", "date")


@dataclass(frozen=True)
class Field:
    """A named, typed column of a relation."""

    name: str
    type: str = "int"

    def __post_init__(self):
        if self.type not in VALID_TYPES:
            raise ValueError(
                f"unknown field type {self.type!r}; expected one of {VALID_TYPES}"
            )


class Schema:
    """An ordered list of :class:`Field` with O(1) name lookup."""

    def __init__(self, fields: Iterable[Field]):
        self.fields: Tuple[Field, ...] = tuple(fields)
        self._index = {}
        for position, fld in enumerate(self.fields):
            if fld.name in self._index:
                raise ValueError(f"duplicate field name {fld.name!r}")
            self._index[fld.name] = position

    @classmethod
    def of(cls, *specs: str) -> "Schema":
        """Build a schema from ``"name:type"`` strings (type defaults to int).

        >>> Schema.of("a", "b:str").names
        ('a', 'b')
        """
        fields = []
        for spec in specs:
            if ":" in spec:
                name, _, type_name = spec.partition(":")
                fields.append(Field(name, type_name))
            else:
                fields.append(Field(spec))
        return cls(fields)

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(fld.name for fld in self.fields)

    @property
    def arity(self) -> int:
        return len(self.fields)

    def index_of(self, name: str) -> int:
        """Position of the named field; raises KeyError for unknown names."""
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(
                f"field {name!r} not in schema {self.names}"
            ) from None

    def has_field(self, name: str) -> bool:
        return name in self._index

    def field(self, name: str) -> Field:
        return self.fields[self.index_of(name)]

    def project(self, names: Sequence[str]) -> "Schema":
        """Schema restricted to ``names`` in the given order."""
        return Schema(self.field(name) for name in names)

    def concat(self, other: "Schema", prefix_self: str = "", prefix_other: str = "") -> "Schema":
        """Concatenate two schemas, optionally qualifying names to avoid clashes."""
        fields = [
            Field(prefix_self + fld.name, fld.type) for fld in self.fields
        ] + [Field(prefix_other + fld.name, fld.type) for fld in other.fields]
        return Schema(fields)

    def __eq__(self, other):
        return isinstance(other, Schema) and self.fields == other.fields

    def __hash__(self):
        return hash(self.fields)

    def __len__(self):
        return len(self.fields)

    def __iter__(self):
        return iter(self.fields)

    def __repr__(self):
        inner = ", ".join(f"{f.name}:{f.type}" for f in self.fields)
        return f"Schema({inner})"


@dataclass
class Relation:
    """A named relation: schema plus (optionally) materialised rows.

    In the online engine relations are *streams*; the ``rows`` list is used
    by generators, tests and reference implementations.
    """

    name: str
    schema: Schema
    rows: List[tuple] = field(default_factory=list)

    def __post_init__(self):
        if not self.name:
            raise ValueError("relation name must be non-empty")

    @property
    def size(self) -> int:
        return len(self.rows)

    def append(self, row: tuple):
        if len(row) != self.schema.arity:
            raise ValueError(
                f"row arity {len(row)} does not match schema arity "
                f"{self.schema.arity} for relation {self.name!r}"
            )
        self.rows.append(tuple(row))

    def extend(self, rows: Iterable[tuple]):
        for row in rows:
            self.append(row)

    def column(self, name: str) -> list:
        """Materialise one column (test/statistics helper)."""
        position = self.schema.index_of(name)
        return [row[position] for row in self.rows]

    def head(self, n: int = 5) -> List[tuple]:
        return self.rows[:n]

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)

    def __repr__(self):
        return f"Relation({self.name!r}, {self.schema!r}, {len(self.rows)} rows)"


def qualified(relation_name: str, attribute: str) -> str:
    """Canonical ``relation.attribute`` spelling used across the planner."""
    return f"{relation_name}.{attribute}"


def split_qualified(name: str) -> Tuple[Optional[str], str]:
    """Split ``"R.a"`` into ``("R", "a")``; unqualified names map to (None, name)."""
    if "." in name:
        relation, _, attribute = name.partition(".")
        return relation, attribute
    return None, name
