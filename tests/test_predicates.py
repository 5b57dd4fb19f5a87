"""Tests for repro.core.predicates: conditions, JoinSpec, join-key classes."""

import pytest

from repro.core.predicates import (
    BandCondition,
    EquiCondition,
    JoinSpec,
    RelationInfo,
    ThetaCondition,
    UnionFind,
)
from repro.core.schema import Schema


def rst_relations():
    return [
        RelationInfo("R", Schema.of("x", "y"), 100),
        RelationInfo("S", Schema.of("y", "z"), 100),
        RelationInfo("T", Schema.of("z", "t"), 100),
    ]


class TestConditions:
    def test_equi_evaluate(self):
        cond = EquiCondition(("R", "y"), ("S", "y"))
        assert cond.evaluate(5, 5)
        assert not cond.evaluate(5, 6)
        assert cond.is_equi

    def test_equi_flip(self):
        cond = EquiCondition(("R", "y"), ("S", "y")).flipped()
        assert cond.left == ("S", "y")
        assert cond.right == ("R", "y")

    def test_theta_scaled(self):
        # 2 * R.B < S.C (the paper's example condition)
        cond = ThetaCondition(("R", "B"), "<", ("S", "C"), left_scale=2.0)
        assert cond.evaluate(3, 7)       # 6 < 7
        assert not cond.evaluate(4, 7)   # 8 < 7 fails

    def test_theta_flip_inverts_operator_and_scales(self):
        cond = ThetaCondition(("R", "a"), "<", ("S", "b"), left_scale=2.0)
        flipped = cond.flipped()
        assert flipped.op == ">"
        assert flipped.left == ("S", "b")
        assert flipped.right_scale == 2.0
        # flipped must be logically equivalent
        assert cond.evaluate(3, 7) == flipped.evaluate(7, 3)

    def test_theta_not_equal(self):
        cond = ThetaCondition(("R", "a"), "!=", ("S", "b"))
        assert cond.evaluate(1, 2)
        assert not cond.evaluate(2, 2)

    def test_theta_rejects_unknown_op(self):
        with pytest.raises(ValueError):
            ThetaCondition(("R", "a"), "~", ("S", "b"))

    def test_band_evaluate(self):
        cond = BandCondition(("R", "a"), ("S", "b"), width=2.0)
        assert cond.evaluate(5, 7)
        assert cond.evaluate(7, 5)
        assert not cond.evaluate(5, 8)

    def test_band_flip_is_symmetric(self):
        cond = BandCondition(("R", "a"), ("S", "b"), width=1.0)
        assert cond.flipped().evaluate(3, 4) == cond.evaluate(4, 3)

    def test_band_rejects_negative_width(self):
        with pytest.raises(ValueError):
            BandCondition(("R", "a"), ("S", "b"), width=-1)

    def test_theta_is_not_equi(self):
        assert not ThetaCondition(("R", "a"), "<", ("S", "b")).is_equi


class TestRelationInfo:
    def test_skewed_validation(self):
        info = RelationInfo("R", Schema.of("a", "b"), 10, skewed={"a"})
        assert info.is_skewed("a")
        assert not info.is_skewed("b")

    def test_skewed_unknown_attr_rejected(self):
        with pytest.raises(KeyError):
            RelationInfo("R", Schema.of("a"), 10, skewed={"nope"})

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            RelationInfo("R", Schema.of("a"), -1)

    def test_top_frequency_default(self):
        info = RelationInfo("R", Schema.of("a"), 10, top_freq={"a": 0.5})
        assert info.top_frequency("a") == 0.5
        assert info.top_frequency("missing") == 0.0


class TestJoinSpec:
    def test_chain_structure(self, rst_spec):
        assert rst_spec.relation_names == ["R", "S", "T"]
        assert rst_spec.is_equi_join

    def test_unknown_relation_in_condition(self):
        with pytest.raises(ValueError, match="unknown relation"):
            JoinSpec(rst_relations(), [EquiCondition(("R", "y"), ("Q", "y"))])

    def test_unknown_attribute_in_condition(self):
        with pytest.raises(KeyError):
            JoinSpec(rst_relations(), [EquiCondition(("R", "nope"), ("S", "y"))])

    def test_self_condition_rejected(self):
        with pytest.raises(ValueError, match="distinct relations"):
            JoinSpec(rst_relations(), [EquiCondition(("R", "x"), ("R", "y"))])

    def test_duplicate_relation_rejected(self):
        infos = rst_relations() + [RelationInfo("R", Schema.of("x", "y"), 5)]
        with pytest.raises(ValueError, match="duplicate"):
            JoinSpec(infos, [])

    def test_adjacency_of_a_chain(self, rst_spec):
        adjacency = rst_spec.adjacency()
        assert adjacency == {"R": {"S"}, "S": {"R", "T"}, "T": {"S"}}

    def test_disconnected_detected(self):
        """A relation no condition touches has no neighbour: the local
        joins read this to join it as a cartesian component."""
        spec = JoinSpec(rst_relations(), [EquiCondition(("R", "y"), ("S", "y"))])
        adjacency = spec.adjacency()
        assert adjacency["T"] == set()
        assert adjacency["R"] == {"S"}

    def test_cycle_detected(self):
        spec = JoinSpec(
            rst_relations(),
            [
                EquiCondition(("R", "y"), ("S", "y")),
                EquiCondition(("S", "z"), ("T", "z")),
                EquiCondition(("T", "t"), ("R", "x")),
            ],
        )
        adjacency = spec.adjacency()
        assert all(len(adjacency[name]) == 2 for name in ("R", "S", "T"))
        assert len(spec.equality_classes()) == 3

    def test_equality_classes_chain(self, rst_spec):
        classes = rst_spec.equality_classes()
        assert len(classes) == 2
        as_sets = [set(c) for c in classes]
        assert {("R", "y"), ("S", "y")} in as_sets
        assert {("S", "z"), ("T", "z")} in as_sets

    def test_equality_classes_transitive(self):
        # R.k = S.k and S.k = T.k puts all three attrs in one class
        spec = JoinSpec(
            [
                RelationInfo("R", Schema.of("k"), 1),
                RelationInfo("S", Schema.of("k"), 1),
                RelationInfo("T", Schema.of("k"), 1),
            ],
            [
                EquiCondition(("R", "k"), ("S", "k")),
                EquiCondition(("S", "k"), ("T", "k")),
            ],
        )
        classes = spec.equality_classes()
        assert len(classes) == 1
        assert len(classes[0]) == 3

    def test_theta_attrs_form_singleton_classes(self):
        spec = JoinSpec(
            [
                RelationInfo("S", Schema.of("x"), 1),
                RelationInfo("T", Schema.of("y"), 1),
            ],
            [ThetaCondition(("S", "x"), "<", ("T", "y"))],
        )
        classes = spec.equality_classes()
        assert sorted(len(c) for c in classes) == [1, 1]


class TestUnionFind:
    def test_union_and_groups(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.union("c", "d")
        uf.union("b", "c")
        uf.find("e")
        groups = {frozenset(g) for g in uf.groups()}
        assert frozenset({"a", "b", "c", "d"}) in groups
        assert frozenset({"e"}) in groups
