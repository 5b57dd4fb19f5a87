"""Relation schemas and typed rows.

Rows are plain Python tuples; a :class:`Schema` names and types the
positions.  This mirrors Squall's byte-array tuple representation: the
engine never boxes rows into per-field objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core import columnar

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


#: the Python types a column of each declared type may hold.  ``int``
#: and ``float`` are one numeric family (either holds ``int``, ``float``
#: -- NaN included -- and ``bool``, which Python compares and hashes as
#: the number it equals); ``date`` is ``str``.  ``None`` (a missing
#: value) fits any column.
COLUMN_TYPES = {
    "int": frozenset({int, float, bool, type(None)}),
    "float": frozenset({int, float, bool, type(None)}),
    "str": frozenset({str, type(None)}),
    "date": frozenset({str, type(None)}),
}

#: declared types whose values ``==`` can pair: an equi join must
#: compare two columns of one family
TYPE_FAMILIES = {"int": "number", "float": "number",
                 "str": "text", "date": "text"}


class _Store:
    """A relation's rows and what its scans derived from them; shared by
    a relation and its aliases (:meth:`Relation.renamed`)."""

    __slots__ = ("rows", "columns", "checked")

    def __init__(self, rows: Sequence[tuple]):
        self.rows = rows
        #: the columnar form, built by the first columnar scan
        self.columns: Optional[list] = None
        #: whether ``rows`` passed the schema check
        self.checked = False


class Relation:
    """A named relation: a schema plus its stored rows.

    In the online engine relations are *streams*: every scan replays the
    rows through a :class:`~repro.streaming.sources.ReplaySource`.  The
    first scan checks the rows against the schema (arity, and the value
    types of :data:`COLUMN_TYPES`; the error names the relation, the
    column, the declared type, the type found and the first offending
    row), and a columnar scan also builds the columnar form
    (:meth:`stored_columns`) in the same pass, once: every later scan --
    the next query, the next run, a second source component -- slices it.

    Once scanned, ``rows`` is a tuple, so a direct write to it raises
    instead of leaving the checked rows and the columns stale; ``rows``
    itself cannot be assigned.  :meth:`append` and :meth:`extend` (the
    ways to add rows) thaw it into a list and drop the columns and the
    check.  Before its first scan a relation holds the sequence it was
    given, as given.  Nothing here is synchronised: add rows only while
    no scan of the relation runs on another thread.
    """

    def __init__(self, name: str, schema: Schema,
                 rows: Optional[Sequence[tuple]] = None):
        if not name:
            raise ValueError("relation name must be non-empty")
        self.name = name
        self.schema = schema
        self._store = _Store([] if rows is None else rows)

    @property
    def rows(self) -> Sequence[tuple]:
        return self._store.rows

    @property
    def rows_id(self) -> int:
        """The identity of the stored rows: kept through scans and
        appends, and shared with aliases."""
        return id(self._store)

    @property
    def size(self) -> int:
        return len(self.rows)

    def renamed(self, name: str) -> "Relation":
        """The same rows under another name (a query's alias): it shares
        this relation's store, so a scan of either serves both."""
        alias = Relation(name, self.schema)
        alias._store = self._store
        return alias

    def _writable(self) -> list:
        store = self._store
        if not isinstance(store.rows, list):
            store.rows = list(store.rows)
        store.columns = None
        store.checked = False
        return store.rows

    def append(self, row: tuple):
        self.extend((row,))

    def extend(self, rows: Iterable[tuple]):
        stored = self._writable()
        for row in rows:
            if len(row) != self.schema.arity:
                raise ValueError(
                    f"row arity {len(row)} does not match schema arity "
                    f"{self.schema.arity} for relation {self.name!r}"
                )
            stored.append(tuple(row))

    def checked_rows(self) -> Tuple[tuple, ...]:
        """The rows, checked against the schema (on the first call after
        a change) and frozen to a tuple."""
        store = self._store
        if not store.checked:
            rows = self._freeze()
            for position in range(self.schema.arity):
                self._check(rows, position, set(map(
                    type, map(itemgetter(position), rows))))
            store.checked = True
        return store.rows

    def stored_columns(self) -> list:
        """The columnar form: one column per field, typed by
        :func:`~repro.core.columnar.make_column` over the whole column
        (NumPy ``int64``/``float64`` vectors, read-only, or lists), built
        with the schema check in one pass on the first call after a
        change.  About 8 bytes per numeric value."""
        store = self._store
        if store.columns is None:
            rows = self._freeze()
            store.columns = columnar.stored_columns(
                rows, None if store.checked else
                lambda position, kinds: self._check(rows, position, kinds))
            store.checked = True
        return store.columns

    def _freeze(self) -> Tuple[tuple, ...]:
        store = self._store
        rows = store.rows = tuple(store.rows)
        arity = self.schema.arity
        if set(map(len, rows)) - {arity}:
            index = next(i for i, row in enumerate(rows) if len(row) != arity)
            raise ValueError(
                f"relation {self.name!r}: row {index} has arity "
                f"{len(rows[index])}, the schema {arity}")
        return rows

    def _check(self, rows, position: int, kinds: set):
        fld = self.schema.fields[position]
        allowed = COLUMN_TYPES[fld.type]
        if kinds <= allowed:
            return
        index = next(i for i, row in enumerate(rows)
                     if type(row[position]) not in allowed)
        value = rows[index][position]
        raise ValueError(
            f"relation {self.name!r}: column {fld.name!r} is declared "
            f"{fld.type} but row {index} holds {type(value).__name__} "
            f"{value!r}")

    def column(self, name: str) -> list:
        """Materialise one column (test/statistics helper)."""
        position = self.schema.index_of(name)
        return [row[position] for row in self.rows]

    def head(self, n: int = 5) -> List[tuple]:
        return list(self.rows[:n])

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
