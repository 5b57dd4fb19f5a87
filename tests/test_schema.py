"""Tests for repro.core.schema."""

import pytest

from repro.core.schema import (
    Field,
    Relation,
    Schema,
    qualified,
    split_qualified,
)


class TestField:
    def test_default_type_is_int(self):
        assert Field("a").type == "int"

    def test_rejects_unknown_type(self):
        with pytest.raises(ValueError):
            Field("a", "blob")


class TestSchema:
    def test_of_parses_typed_specs(self):
        schema = Schema.of("a", "b:str", "c:float", "d:date")
        assert schema.names == ("a", "b", "c", "d")
        assert schema.field("b").type == "str"
        assert schema.field("d").type == "date"

    def test_index_of(self):
        schema = Schema.of("x", "y")
        assert schema.index_of("y") == 1

    def test_index_of_unknown_raises_keyerror_with_context(self):
        schema = Schema.of("x")
        with pytest.raises(KeyError, match="'y'"):
            schema.index_of("y")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Schema.of("a", "a")

    def test_project_preserves_order_and_type(self):
        schema = Schema.of("a", "b:str", "c")
        projected = schema.project(["c", "b"])
        assert projected.names == ("c", "b")
        assert projected.field("b").type == "str"

    def test_concat_with_prefixes(self):
        left = Schema.of("a")
        right = Schema.of("a")
        combined = left.concat(right, "L.", "R.")
        assert combined.names == ("L.a", "R.a")

    def test_concat_without_prefix_conflicts(self):
        with pytest.raises(ValueError):
            Schema.of("a").concat(Schema.of("a"))

    def test_equality_and_hash(self):
        assert Schema.of("a", "b") == Schema.of("a", "b")
        assert hash(Schema.of("a")) == hash(Schema.of("a"))
        assert Schema.of("a") != Schema.of("a:str")

    def test_iteration_and_len(self):
        schema = Schema.of("a", "b")
        assert len(schema) == 2
        assert [f.name for f in schema] == ["a", "b"]

    def test_has_field(self):
        schema = Schema.of("a")
        assert schema.has_field("a")
        assert not schema.has_field("z")


class TestRelation:
    def test_append_validates_arity(self):
        rel = Relation("R", Schema.of("a", "b"))
        rel.append((1, 2))
        with pytest.raises(ValueError):
            rel.append((1, 2, 3))

    def test_append_normalises_to_tuple(self):
        rel = Relation("R", Schema.of("a"))
        rel.append([5])
        assert rel.rows == [(5,)]

    def test_extend_and_size(self):
        rel = Relation("R", Schema.of("a"))
        rel.extend([(1,), (2,)])
        assert rel.size == 2
        assert len(rel) == 2

    def test_column(self):
        rel = Relation("R", Schema.of("a", "b"), [(1, 10), (2, 20)])
        assert rel.column("b") == [10, 20]

    def test_head(self):
        rel = Relation("R", Schema.of("a"), [(i,) for i in range(10)])
        assert rel.head(3) == [(0,), (1,), (2,)]

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Relation("", Schema.of("a"))


class TestQualifiedNames:
    def test_qualified(self):
        assert qualified("R", "y") == "R.y"

    def test_split_qualified(self):
        assert split_qualified("R.y") == ("R", "y")
        assert split_qualified("y") == (None, "y")
