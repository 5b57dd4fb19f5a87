"""Tests for the local join algorithms: traditional vs DBToaster."""

import gc
import itertools
import pickle
import random
import types
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.columnar import ColumnBatch
from repro.core.predicates import (
    BandCondition,
    EquiCondition,
    JoinSpec,
    RelationInfo,
    ThetaCondition,
)
from repro.core.schema import Schema
from repro.joins import DBToasterJoin, TraditionalJoin, reference_join
from repro.joins.base import JoinSchema
from repro.joins.dbtoaster import connected_subsets

from tests.conftest import interleaved_stream, make_rst_data, triangle_spec


def run_stream(join, stream):
    out = []
    for rel, row in stream:
        out.extend(join.insert(rel, row))
    return out


class TestJoinSchema:
    def test_positions_and_flatten(self, rst_spec):
        js = JoinSchema.from_spec(rst_spec)
        assert js.arity == 6
        assert js.position("S", "z") == 3
        flat = js.flatten({"R": (1, 2), "S": (2, 3), "T": (3, 4)})
        assert flat == (1, 2, 2, 3, 3, 4)

    def test_slice_of(self, rst_spec):
        js = JoinSchema.from_spec(rst_spec)
        assert js.slice_of((1, 2, 2, 3, 3, 4), "S") == (2, 3)

    def test_output_schema_qualifies_names(self, rst_spec):
        names = JoinSchema.from_spec(rst_spec).output_schema().names
        assert names == ("R.x", "R.y", "S.y", "S.z", "T.z", "T.t")


@pytest.mark.parametrize("join_cls", [TraditionalJoin, DBToasterJoin])
class TestAgainstReference:
    def test_chain_equi_join(self, join_cls, rst_spec):
        data = make_rst_data(seed=21)
        out = run_stream(join_cls(rst_spec), interleaved_stream(data, seed=1))
        assert Counter(out) == Counter(reference_join(rst_spec, data))

    def test_every_arrival_order_gives_same_result(self, join_cls, rst_spec):
        data = make_rst_data(seed=22, n=15)
        expected = Counter(reference_join(rst_spec, data))
        for seed in range(4):
            out = run_stream(join_cls(rst_spec), interleaved_stream(data, seed=seed))
            assert Counter(out) == expected

    def test_duplicates_respected(self, join_cls):
        spec = JoinSpec(
            [RelationInfo("A", Schema.of("k"), 4), RelationInfo("B", Schema.of("k"), 4)],
            [EquiCondition(("A", "k"), ("B", "k"))],
        )
        data = {"A": [(1,), (1,)], "B": [(1,), (1,), (1,)]}
        out = run_stream(join_cls(spec), interleaved_stream(data))
        assert len(out) == 6

    def test_theta_join(self, join_cls):
        spec = JoinSpec(
            [RelationInfo("A", Schema.of("a"), 30), RelationInfo("B", Schema.of("b"), 30)],
            [ThetaCondition(("A", "a"), "<", ("B", "b"), left_scale=2.0)],
        )
        rng = random.Random(4)
        data = {"A": [(rng.randrange(20),) for _ in range(30)],
                "B": [(rng.randrange(40),) for _ in range(30)]}
        out = run_stream(join_cls(spec), interleaved_stream(data))
        assert Counter(out) == Counter(reference_join(spec, data))

    def test_band_join(self, join_cls):
        spec = JoinSpec(
            [RelationInfo("A", Schema.of("a"), 30), RelationInfo("B", Schema.of("b"), 30)],
            [BandCondition(("A", "a"), ("B", "b"), width=2)],
        )
        rng = random.Random(5)
        data = {"A": [(rng.randrange(30),) for _ in range(30)],
                "B": [(rng.randrange(30),) for _ in range(30)]}
        out = run_stream(join_cls(spec), interleaved_stream(data))
        assert Counter(out) == Counter(reference_join(spec, data))

    def test_mixed_equi_and_theta(self, join_cls):
        """R.A = S.A AND 2*R.B < S.C -- the paper's section 3.3 example."""
        spec = JoinSpec(
            [
                RelationInfo("R", Schema.of("A", "B"), 30),
                RelationInfo("S", Schema.of("A", "C"), 30),
            ],
            [
                EquiCondition(("R", "A"), ("S", "A")),
                ThetaCondition(("R", "B"), "<", ("S", "C"), left_scale=2.0),
            ],
        )
        rng = random.Random(6)
        data = {"R": [(rng.randrange(5), rng.randrange(10)) for _ in range(30)],
                "S": [(rng.randrange(5), rng.randrange(25)) for _ in range(30)]}
        out = run_stream(join_cls(spec), interleaved_stream(data))
        assert Counter(out) == Counter(reference_join(spec, data))

    def test_star_join(self, join_cls):
        spec = JoinSpec(
            [
                RelationInfo("F", Schema.of("d1", "d2"), 30),
                RelationInfo("D1", Schema.of("d1", "v"), 10),
                RelationInfo("D2", Schema.of("d2", "w"), 10),
            ],
            [
                EquiCondition(("F", "d1"), ("D1", "d1")),
                EquiCondition(("F", "d2"), ("D2", "d2")),
            ],
        )
        rng = random.Random(7)
        data = {
            "F": [(rng.randrange(4), rng.randrange(4)) for _ in range(30)],
            "D1": [(i % 4, i) for i in range(10)],
            "D2": [(i % 4, i) for i in range(10)],
        }
        out = run_stream(join_cls(spec), interleaved_stream(data))
        assert Counter(out) == Counter(reference_join(spec, data))

    def test_four_way_chain(self, join_cls):
        spec = JoinSpec(
            [
                RelationInfo("A", Schema.of("a", "b"), 15),
                RelationInfo("B", Schema.of("b", "c"), 15),
                RelationInfo("C", Schema.of("c", "d"), 15),
                RelationInfo("D", Schema.of("d", "e"), 15),
            ],
            [
                EquiCondition(("A", "b"), ("B", "b")),
                EquiCondition(("B", "c"), ("C", "c")),
                EquiCondition(("C", "d"), ("D", "d")),
            ],
        )
        rng = random.Random(8)
        data = {
            name: [(rng.randrange(4), rng.randrange(4)) for _ in range(15)]
            for name in "ABCD"
        }
        out = run_stream(join_cls(spec), interleaved_stream(data))
        assert Counter(out) == Counter(reference_join(spec, data))

    def test_triangle_join(self, join_cls):
        """A cyclic join graph: every relation meets both others."""
        spec = triangle_spec()
        rng = random.Random(9)
        data = {name: [(rng.randrange(4), rng.randrange(4)) for _ in range(20)]
                for name in ("R", "S", "T")}
        out = run_stream(join_cls(spec), interleaved_stream(data))
        assert Counter(out) == Counter(reference_join(spec, data))

    def test_deletion_delta(self, join_cls, rst_spec):
        data = make_rst_data(seed=23, n=25)
        join = join_cls(rst_spec)
        run_stream(join, interleaved_stream(data))
        victim = data["S"][0]
        retracted = Counter(join.delete("S", victim))
        without = dict(data)
        without["S"] = data["S"][1:]
        expected = (Counter(reference_join(rst_spec, data))
                    - Counter(reference_join(rst_spec, without)))
        assert retracted == expected

    def test_insert_after_delete(self, join_cls, rst_spec):
        data = make_rst_data(seed=24, n=20)
        join = join_cls(rst_spec)
        run_stream(join, interleaved_stream(data))
        victim = data["R"][0]
        join.delete("R", victim)
        re_added = join.insert("R", victim)
        assert Counter(re_added) == Counter(join.delete("R", victim))

    def test_state_size_counts_base_tuples(self, join_cls, rst_spec):
        data = make_rst_data(seed=25, n=10)
        join = join_cls(rst_spec)
        run_stream(join, interleaved_stream(data))
        assert join.state_size() >= 30  # at least the base tuples

    def test_reset_clears_everything(self, join_cls, rst_spec):
        data = make_rst_data(seed=26, n=10)
        join = join_cls(rst_spec)
        run_stream(join, interleaved_stream(data))
        join.reset()
        assert join.state_size() == 0
        # after reset the join behaves like a fresh instance
        out = run_stream(join, interleaved_stream(data))
        assert Counter(out) == Counter(reference_join(rst_spec, data))

    def test_disconnected_cartesian(self, join_cls):
        spec = JoinSpec(
            [RelationInfo("A", Schema.of("a"), 5), RelationInfo("B", Schema.of("b"), 5)],
            [],
        )
        data = {"A": [(1,), (2,)], "B": [(10,), (20,), (30,)]}
        out = run_stream(join_cls(spec), interleaved_stream(data))
        assert len(out) == 6


class TestDBToasterSpecifics:
    def test_views_match_true_intermediate_joins(self, rst_spec):
        data = make_rst_data(seed=30)
        join = DBToasterJoin(rst_spec)
        run_stream(join, interleaved_stream(data))
        rs_spec = JoinSpec(
            [rst_spec.by_name["R"], rst_spec.by_name["S"]], [rst_spec.conditions[0]]
        )
        st_spec = JoinSpec(
            [rst_spec.by_name["S"], rst_spec.by_name["T"]], [rst_spec.conditions[1]]
        )
        assert join.view_size("R", "S") == len(reference_join(rs_spec, data))
        assert join.view_size("S", "T") == len(reference_join(st_spec, data))

    def test_no_view_for_disconnected_pair(self, rst_spec):
        join = DBToasterJoin(rst_spec)
        with pytest.raises(KeyError):
            join.view_size("R", "T")  # no condition links R and T directly

    def test_connected_subsets_of_chain(self, rst_spec):
        subsets = connected_subsets(rst_spec.relation_names, rst_spec.adjacency())
        as_sets = {frozenset(s) for s in subsets}
        assert frozenset({"R", "S"}) in as_sets
        assert frozenset({"S", "T"}) in as_sets
        assert frozenset({"R", "T"}) not in as_sets
        assert frozenset({"R", "S", "T"}) in as_sets

    def test_store_result_keeps_full_view(self, rst_spec):
        data = make_rst_data(seed=31, n=15)
        join = DBToasterJoin(rst_spec, store_result=True)
        run_stream(join, interleaved_stream(data))
        assert join.view_size("R", "S", "T") == len(reference_join(rst_spec, data))

    def test_probing_view_beats_recomputation_when_final_join_selective(self):
        """Chain join where R >< S is big but almost nothing survives the
        join with T: the traditional cascade constructs (and throws away)
        the R >< S partials for every new R tuple, while DBToaster probes
        the materialised S >< T view and touches only survivors."""
        spec = JoinSpec(
            [
                RelationInfo("R", Schema.of("y", "v"), 150),
                RelationInfo("S", Schema.of("y", "z"), 150),
                RelationInfo("T", Schema.of("z", "u"), 5),
            ],
            [
                EquiCondition(("R", "y"), ("S", "y")),
                EquiCondition(("S", "z"), ("T", "z")),
            ],
        )
        rng = random.Random(9)
        data = {
            # few y values -> R >< S is large
            "R": [(rng.randrange(3), i) for i in range(150)],
            # z spread over 100 values, T hits only 5 of them
            "S": [(rng.randrange(3), rng.randrange(100)) for _ in range(150)],
            "T": [(i, i) for i in range(5)],
        }
        stream = list(interleaved_stream(data, seed=2))
        toaster = DBToasterJoin(spec)
        traditional = TraditionalJoin(spec)
        out_a = run_stream(toaster, stream)
        out_b = run_stream(traditional, stream)
        assert Counter(out_a) == Counter(out_b)
        # the delta computation alone (excluding view bookkeeping) must be
        # far cheaper for DBToaster: compare probing work on R arrivals
        fresh_stream = [("R", row) for row in data["R"]]
        toaster2 = DBToasterJoin(spec)
        traditional2 = TraditionalJoin(spec)
        for rel, row in stream:
            if rel != "R":
                toaster2.insert(rel, row)
                traditional2.insert(rel, row)
        work_before = (toaster2.work, traditional2.work)
        for rel, row in fresh_stream:
            toaster2.insert(rel, row)
            traditional2.insert(rel, row)
        toaster_delta_work = toaster2.work - work_before[0]
        traditional_delta_work = traditional2.work - work_before[1]
        assert toaster_delta_work < traditional_delta_work / 2

    def test_negative_multiplicity_rejected(self, rst_spec):
        join = DBToasterJoin(rst_spec)
        join.insert("R", (1, 1))
        with pytest.raises(ValueError):
            join.delete("R", (9, 9))  # never inserted


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    y_domain=st.integers(min_value=1, max_value=5),
    z_domain=st.integers(min_value=1, max_value=5),
)
def test_property_dbtoaster_equals_traditional(seed, y_domain, z_domain):
    """Both local joins compute the same multiset on random chain data."""
    spec = JoinSpec(
        [
            RelationInfo("R", Schema.of("x", "y"), 20),
            RelationInfo("S", Schema.of("y", "z"), 20),
            RelationInfo("T", Schema.of("z", "t"), 20),
        ],
        [
            EquiCondition(("R", "y"), ("S", "y")),
            EquiCondition(("S", "z"), ("T", "z")),
        ],
    )
    data = make_rst_data(seed=seed, n=12, y_domain=y_domain, z_domain=z_domain)
    stream = interleaved_stream(data, seed=seed)
    out_toaster = run_stream(DBToasterJoin(spec), list(stream))
    out_traditional = run_stream(TraditionalJoin(spec), list(stream))
    assert Counter(out_toaster) == Counter(out_traditional)
    assert Counter(out_toaster) == Counter(reference_join(spec, data))


# ---------------------------------------------------------------------------
# A pickled columnar join is columns + multiplicities + index key
# positions; indexes and probe plans are rebuilt.  A restored twin must
# be indistinguishable from the original on everything it is fed next.
# ---------------------------------------------------------------------------

JOIN_SHAPES = {
    # name -> (relation names, columnar ops draw rows from make_rst_data)
    "two_way": ("R", "S"),
    "chain": ("R", "S", "T"),
}


def shape_spec(shape):
    names = JOIN_SHAPES[shape]
    schemas = {"R": Schema.of("x", "y"), "S": Schema.of("y", "z"),
               "T": Schema.of("z", "t")}
    conditions = [EquiCondition(("R", "y"), ("S", "y"))]
    if "T" in names:
        conditions.append(EquiCondition(("S", "z"), ("T", "z")))
    return JoinSpec([RelationInfo(name, schemas[name], 40) for name in names],
                    conditions)


def columnar_script(shape, seed, n=14, retract_share=0.4):
    """``(sign, relation, ColumnBatch)`` operations: the relations' rows
    in shuffled micro-batches of 1-4, with retractions of rows inserted
    earlier (duplicates included) mixed in."""
    rng = random.Random(seed)
    data = make_rst_data(seed=seed, n=n, y_domain=3, z_domain=3)
    stream = [(rel, row) for rel, row in interleaved_stream(data, seed=seed)
              if rel in JOIN_SHAPES[shape]]
    ops = []
    live = {name: [] for name in JOIN_SHAPES[shape]}
    position = 0
    while position < len(stream):
        rel = stream[position][0]
        rows = [stream[position][1]]
        position += 1
        while (position < len(stream) and stream[position][0] == rel
               and len(rows) < 4):
            rows.append(stream[position][1])
            position += 1
        ops.append((+1, rel, rows))
        live[rel].extend(rows)
        if live[rel] and rng.random() < retract_share:
            rng.shuffle(live[rel])
            gone = [live[rel].pop() for _ in range(min(len(live[rel]),
                                                        rng.randrange(1, 4)))]
            ops.append((-1, rel, gone))
    return ops


def apply_op(join, op):
    """Feed one scripted operation; the emitted batch as rows, in order."""
    sign, rel, rows = op
    batch = ColumnBatch.from_rows(list(rows),
                                  None if sign > 0 else [-1] * len(rows))
    emitted = (join.insert_batch if sign > 0 else join.delete_batch)(rel, batch)
    assert emitted.signs is None  # the caller knows the run's sign
    return (sign, emitted.to_rows())


def assert_twins_agree(shape, original, twin, ops):
    for op in ops:
        assert apply_op(twin, op) == apply_op(original, op)
    subsets = [names for size in (1, 2, 3)
               for names in itertools.combinations(JOIN_SHAPES[shape], size)
               if frozenset(names) in original.views]
    assert subsets
    for names in subsets:
        assert twin.view_size(*names) == original.view_size(*names)
    assert twin.state_size() == original.state_size()
    assert twin.work == original.work
    assert twin.intermediate_tuples == original.intermediate_tuples


def pickle_twin(join):
    return pickle.loads(pickle.dumps(join))


class TestColumnarPickle:
    @settings(max_examples=60, deadline=None)
    @given(shape=st.sampled_from(sorted(JOIN_SHAPES)),
           seed=st.integers(min_value=0, max_value=10_000),
           split=st.floats(min_value=0.0, max_value=1.0),
           store_result=st.booleans())
    def test_restored_twin_answers_like_the_original(self, shape, seed,
                                                     split, store_result):
        ops = columnar_script(shape, seed)
        cut = int(split * len(ops))
        original = DBToasterJoin(shape_spec(shape), store_result=store_result)
        for op in ops[:cut]:
            apply_op(original, op)
        twin = pickle_twin(original)
        assert_twins_agree(shape, original, twin, ops[cut:])

    @pytest.mark.parametrize("shape", sorted(JOIN_SHAPES))
    @pytest.mark.parametrize("deletes_before_split", [False, True])
    def test_never_probed_result_view_gets_its_whole_row_index(
            self, shape, deletes_before_split):
        """The stored full result is probed by nothing, so its only
        index is the whole-row one ``retract`` builds lazily: pickled
        before it exists it must still appear on the first delete, and
        pickled after, it must come back."""
        ops = columnar_script(shape, seed=5, retract_share=0.0)
        inserts_only, rest = ops[:len(ops) // 2], ops[len(ops) // 2:]
        deletes = [(-1, rel, rows) for _sign, rel, rows in inserts_only[:4]]
        original = DBToasterJoin(shape_spec(shape), store_result=True)
        for op in inserts_only:
            apply_op(original, op)
        full = original._cviews[frozenset(JOIN_SHAPES[shape])]
        if deletes_before_split:
            for op in deletes[:2]:
                apply_op(original, op)
            deletes = deletes[2:]
            assert list(full.indexes) == [tuple(range(len(full.cols)))]
        else:
            assert not full.indexes
        twin = pickle_twin(original)
        assert_twins_agree(shape, original, twin, deletes + rest)
        assert full.indexes  # the path under test was taken

    def test_a_pickle_holds_neither_indexes_nor_plans(self):
        original = DBToasterJoin(shape_spec("chain"))
        for op in columnar_script("chain", seed=3)[:10]:
            apply_op(original, op)
        twin = pickle_twin(original)
        assert original._cplans is not None and twin._cplans is None
        for subset, cview in twin._cviews.items():
            assert list(cview.indexes) == list(
                original._cviews[subset].indexes)
            assert all(index is None for index in cview.indexes.values())

    def test_a_join_pickled_before_activation_still_activates(self):
        original = DBToasterJoin(shape_spec("chain"))
        twin = pickle_twin(original)
        assert twin._cviews is None
        assert_twins_agree("chain", original, twin,
                           columnar_script("chain", seed=4))
        assert twin._cviews is not None


def reachable_tracked_objects(root):
    """How many objects the cyclic collector tracks among those reachable
    from ``root`` -- not through classes, modules or functions, which
    reach the whole interpreter."""
    seen, stack, tracked = set(), [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
                obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        tracked += gc.is_tracked(obj)
        stack.extend(gc.get_referents(obj))
    return tracked


class TestColumnarState:
    @staticmethod
    def chain_join(n_rows):
        """A columnar three-way chain join fed ``n_rows`` int rows per
        relation, in four batches each, over ``n_rows / 2`` keys."""
        rng = np.random.default_rng(7)
        join = DBToasterJoin(shape_spec("chain"))
        for part in range(4):
            for rel in ("R", "S", "T"):
                columns = [rng.integers(0, n_rows // 2, n_rows // 4)
                           for _position in range(2)]
                join.insert_batch(rel, ColumnBatch(columns, n_rows // 4))
        return join

    def test_stored_rows_hold_no_collector_tracked_objects(self):
        small, large = self.chain_join(1_000), self.chain_join(8_000)
        assert large.state_size() > 7 * small.state_size()
        assert reachable_tracked_objects(large) == \
            reachable_tracked_objects(small)

    def test_indexes_add_no_checkpoint_bytes(self):
        from repro.checkpoint.store import snapshot_blob

        join = DBToasterJoin(shape_spec("chain"))
        for op in columnar_script("chain", seed=3):
            apply_op(join, op)
        assert all(index is not None for cview in join._cviews.values()
                   for index in cview.indexes.values())
        blob = snapshot_blob(join)
        restored = pickle.loads(blob)
        assert all(index is None for cview in restored._cviews.values()
                   for index in cview.indexes.values())
        assert snapshot_blob(restored) == blob
