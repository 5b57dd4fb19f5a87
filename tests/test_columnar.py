"""ColumnBatch unit + property tests: adapters, hashing, pickling.

The columnar representation is only allowed into the dataplane because
it is *indistinguishable* from the row representation at the edges:
``from_rows``/``to_rows`` round-trip losslessly over arbitrary schemas
(property-tested here, including empty batches and batches whose per-row
``signs`` mark retractions), the vectorized hashes are bit-for-bit ``stable_hash``, and a
batch survives the processes executor's pickle pipes without its
derived row cache.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.columnar import (
    COLUMNAR_MIN_BATCH,
    ColumnBatch,
    ColumnEmissions,
    bucket_by_task,
    hash_column,
    hash_key_columns,
    make_column,
    sign_runs,
)
from repro.util import stable_hash


class TestMakeColumn:
    def test_all_int_becomes_int64_vector(self):
        col = make_column([1, -2, 3])
        assert isinstance(col, np.ndarray) and col.dtype == np.int64

    def test_all_float_becomes_float64_vector(self):
        col = make_column([1.5, -2.0])
        assert isinstance(col, np.ndarray) and col.dtype == np.float64

    def test_mixed_int_float_stays_list(self):
        # coercing 1 -> 1.0 would change the value's type on round-trip
        assert make_column([1, 2.0]) == [1, 2.0]

    def test_strings_none_and_bools_stay_lists(self):
        assert make_column(["a", "b"]) == ["a", "b"]
        assert make_column([1, None]) == [1, None]
        assert make_column([True, False]) == [True, False]

    def test_int_beyond_64_bits_stays_list(self):
        values = [2**70, 1]
        assert make_column(values) == values


# column generators: uniformly-typed and deliberately mixed
_INTS = st.integers(min_value=-(2**62), max_value=2**62)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False, width=64)
_STRINGS = st.text(max_size=8)
_VALUES = st.one_of(_INTS, _FLOATS, _STRINGS, st.none())


@st.composite
def row_batches(draw):
    arity = draw(st.integers(min_value=0, max_value=4))
    n = draw(st.integers(min_value=0, max_value=12))
    columns = []
    for _ in range(arity):
        kind = draw(st.sampled_from(["int", "float", "str", "mixed"]))
        strategy = {"int": _INTS, "float": _FLOATS, "str": _STRINGS,
                    "mixed": _VALUES}[kind]
        columns.append([draw(strategy) for _ in range(n)])
    rows = [tuple(col[i] for col in columns) for i in range(n)]
    signs = draw(st.none() | st.lists(st.sampled_from([1, -1]),
                                      min_size=n, max_size=n))
    return rows, signs


def sign_list(batch):
    """A batch's signs as a list (None: every row inserts)."""
    return None if batch.signs is None else batch.signs.tolist()


class TestColumnBatchRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(row_batches())
    def test_from_rows_to_rows_round_trip(self, batch):
        rows, signs = batch
        built = ColumnBatch.from_rows(list(rows), signs)
        assert built.to_rows() == rows
        assert [type(v) for row in built.to_rows() for v in row] == \
            [type(v) for row in rows for v in row]
        rebuilt = ColumnBatch.from_rows(built.to_rows(), signs)
        assert rebuilt == built
        assert sign_list(rebuilt) == (signs if rows else None)
        assert len(rebuilt) == len(rows)

    def test_empty_batch(self):
        empty = ColumnBatch.from_rows([])
        assert len(empty) == 0 and not empty
        assert empty.to_rows() == []
        assert ColumnBatch.from_rows(empty.to_rows()) == empty

    def test_retraction_batch_keeps_signs(self):
        batch = ColumnBatch.from_rows([(1, "a"), (2, "b")], signs=[-1, 1])
        assert batch.signs.dtype == np.int8 and sign_list(batch) == [-1, 1]
        assert ColumnBatch.from_rows(batch.to_rows(), signs=[-1, 1]) == batch
        assert ColumnBatch.from_rows(batch.to_rows()) != batch
        assert repr(batch) == "ColumnBatch(2 rows x 2 cols, signs=[-1, 1])"
        assert not hasattr(batch, "sign")

    def test_sequence_compatibility(self):
        rows = [(1, "x"), (2, "y")]
        batch = ColumnBatch.from_rows(rows)
        assert list(batch) == rows
        assert batch[0] == (1, "x")
        assert len(batch) == 2 and bool(batch)

    def test_take_and_take_columns(self):
        batch = ColumnBatch.from_rows([(1, "a", 1.0), (2, "b", 2.0),
                                       (3, "c", 3.0)])
        assert batch.take([2, 0]).to_rows() == [(3, "c", 3.0), (1, "a", 1.0)]
        assert batch.take_columns([1]).to_rows() == [("a",), ("b",), ("c",)]
        assert batch.take([2, 0]).signs is None

    def test_take_and_take_columns_carry_signs(self):
        batch = ColumnBatch.from_rows([(1, "a"), (2, "b"), (3, "c")],
                                      signs=[1, -1, 1])
        assert sign_list(batch.take([1, 2])) == [-1, 1]
        assert sign_list(batch.take_columns([1])) == [1, -1, 1]


class TestSignRuns:
    """``sign_runs`` is how every consumer reads signs: maximal
    same-sign runs, in order."""

    def test_unsigned_payloads_are_one_insert_run_untouched(self):
        rows = [(1,), (2,)]
        batch = ColumnBatch.from_rows(rows)
        assert sign_runs(rows) == [(1, rows)]
        assert sign_runs(batch)[0][1] is batch

    def test_one_sign_is_the_batch_itself(self):
        batch = ColumnBatch.from_rows([(1,), (2,)], signs=[-1, -1])
        assert sign_runs(batch) == [(-1, batch)]

    def test_runs_split_where_the_sign_changes(self):
        batch = ColumnBatch.from_rows([(1,), (2,), (3,), (4,), (5,)],
                                      signs=[1, 1, -1, 1, -1])
        assert [(sign, run.to_rows(), sign_list(run))
                for sign, run in sign_runs(batch)] == [
            (1, [(1,), (2,)], [1, 1]), (-1, [(3,)], [-1]),
            (1, [(4,)], [1]), (-1, [(5,)], [-1])]


class TestConcat:
    """``ColumnBatch.concat`` types a column the way ``make_column`` and
    the join's growable columns do: one dtype stays a vector, anything
    else a list -- never a numeric coercion."""

    def test_equal_dtype_vectors_concatenate(self):
        merged = ColumnBatch.concat([ColumnBatch.from_rows([(1,), (2,)]),
                                     ColumnBatch.from_rows([(3,)])])
        assert merged.columns[0].dtype == np.int64
        assert merged.columns[0].tolist() == [1, 2, 3] and len(merged) == 3

    def test_int_and_float_parts_become_a_list_keeping_value_types(self):
        merged = ColumnBatch.concat([ColumnBatch.from_rows([(1,), (2,)]),
                                     ColumnBatch.from_rows([(0.5,)])])
        assert merged.columns[0] == [1, 2, 0.5]
        assert [type(v) for v in merged.columns[0]] == [int, int, float]

    def test_list_columns_and_object_vectors(self):
        strings = ColumnBatch.from_rows([("a", 1), (None, 2)])
        objects = ColumnBatch([np.array(["b"], dtype=object),
                               np.array([3])], 1)
        merged = ColumnBatch.concat([strings, objects, strings])
        assert merged.columns[0] == ["a", None, "b", "a", None]
        assert merged.columns[1].tolist() == [1, 2, 3, 1, 2]

    def test_signs_follow_their_rows(self):
        minus = ColumnBatch.from_rows([(1,)], signs=[-1])
        plus = ColumnBatch.from_rows([(2,), (3,)])
        assert sign_list(ColumnBatch.concat([minus, minus])) == [-1, -1]
        merged = ColumnBatch.concat([plus, minus, plus])
        assert merged.to_rows() == [(2,), (3,), (1,), (2,), (3,)]
        assert sign_list(merged) == [1, 1, -1, 1, 1]
        assert ColumnBatch.concat([plus, plus]).signs is None

    def test_arity_must_agree(self):
        with pytest.raises(ValueError, match="column count"):
            ColumnBatch.concat([ColumnBatch.from_rows([(1,)]),
                                ColumnBatch.from_rows([(1, 2)])])

    def test_zero_length_parts_hold_no_value_and_no_type(self):
        ints = ColumnBatch.from_rows([(1,), (2,)])
        hollow = ColumnBatch([[]], 0)  # one list column, no rows
        merged = ColumnBatch.concat([hollow, ints, hollow, ints])
        assert merged.columns[0].dtype == np.int64 and len(merged) == 4
        assert ColumnBatch.concat([hollow, ints]) is ints
        assert len(ColumnBatch.concat([hollow, hollow])) == 0

    @settings(max_examples=100, deadline=None)
    @given(st.lists(row_batches(), min_size=1, max_size=4))
    def test_concat_is_row_concatenation(self, drawn):
        arity = len(drawn[0][0][0]) if drawn[0][0] else 0
        parts = [(rows, signs) for rows, signs in drawn
                 if rows and len(rows[0]) == arity]
        if not parts:
            return
        merged = ColumnBatch.concat(
            [ColumnBatch.from_rows(rows, signs) for rows, signs in parts])
        expected = [row for rows, _signs in parts for row in rows]
        got = merged.to_rows()
        assert len(got) == len(expected)
        if all(signs is None for _rows, signs in parts):
            assert merged.signs is None
        else:
            assert sign_list(merged) == [
                sign for rows, signs in parts
                for sign in (signs or [1] * len(rows))]
        for mine, theirs in zip(got, expected):
            assert [type(v) for v in mine] == [type(v) for v in theirs]
            assert all(a == b or (a != a and b != b)
                       for a, b in zip(mine, theirs))


class TestColumnBatchPickle:
    @settings(max_examples=50, deadline=None)
    @given(row_batches())
    def test_pickle_round_trip(self, batch):
        rows, signs = batch
        built = ColumnBatch.from_rows(list(rows), signs)
        built.to_rows()  # populate the derived cache
        clone = pickle.loads(pickle.dumps(built))
        assert clone == built
        assert clone.to_rows() == rows

    def test_pickle_drops_row_cache(self):
        batch = ColumnBatch.from_rows([(1, 2), (3, 4)])
        columns = batch.columns
        batch.to_rows()
        assert batch.__getstate__() == (columns, 2, None, None)
        clone = pickle.loads(pickle.dumps(batch))
        assert clone._rows is None  # rebuilt on demand, not shipped

    def test_a_batch_that_never_built_columns_ships_its_rows(self):
        rows = [(1, "a"), (2, "b")]
        batch = ColumnBatch.from_rows(rows, signs=[1, -1])
        clone = pickle.loads(pickle.dumps(batch))
        assert batch._columns is None and clone._columns is None
        assert clone.to_rows() == rows and clone == batch


class TestHashParity:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(_INTS, max_size=20))
    def test_int64_column_matches_stable_hash(self, values):
        batch = ColumnBatch.from_rows([(v,) for v in values])
        hashes = hash_column(batch.columns[0]) if values else []
        assert [int(h) for h in hashes] == [stable_hash(v) for v in values]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(_VALUES, min_size=1, max_size=20))
    def test_fallback_column_matches_stable_hash(self, values):
        hashes = hash_column(list(values))
        assert [int(h) for h in hashes] == [stable_hash(v) for v in values]

    def test_integral_float_column_hashes_as_the_int_column(self):
        floats = ColumnBatch.from_rows([(1.0,), (-0.0,), (-7.0,), (2.5,)])
        ints = ColumnBatch.from_rows([(1,), (0,), (-7,)])
        hashes = [int(h) for h in hash_column(floats.columns[0])]
        assert hashes[:3] == [int(h) for h in hash_column(ints.columns[0])]
        assert hashes == [stable_hash(v) for v in (1.0, -0.0, -7.0, 2.5)]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(_INTS, _STRINGS, _FLOATS), min_size=1,
                    max_size=15))
    def test_key_columns_match_tuple_stable_hash(self, rows):
        batch = ColumnBatch.from_rows(list(rows))
        for positions in ([0], [1, 2], [0, 1, 2]):
            hashes = hash_key_columns(batch, positions)
            expected = [stable_hash(tuple(row[p] for p in positions))
                        for row in rows]
            assert [int(h) for h in hashes] == expected


class TestColumnEmissions:
    def test_counts_like_an_emission_list(self):
        batch = ColumnBatch.from_rows([(1,), (2,)])
        emissions = ColumnEmissions("S", batch)
        assert len(emissions) == 2 and bool(emissions)
        assert not ColumnEmissions("S", ColumnBatch.from_rows([]))

    def test_never_iterates_as_unsigned_pairs(self):
        """A ``(stream, row)`` pair has no sign: a retraction read that
        way would become an insertion, so there is no such view."""
        signed = ColumnEmissions(
            "S", ColumnBatch.from_rows([(1,)], signs=[-1]))
        with pytest.raises(TypeError):
            list(signed)


class TestBucketByTask:
    @staticmethod
    def reference(batch, tasks):
        """The function as it was before the argsort: ``np.unique`` for
        the first-assignment order, one scan per distinct task."""
        uniq, first = np.unique(tasks, return_index=True)
        return [(int(uniq[k]), batch.take(np.flatnonzero(tasks == uniq[k])))
                for k in np.argsort(first, kind="stable")]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(st.integers(0, 7), st.integers(-3, 70_000),
                              st.integers(-2**62, 2**62)),
                    max_size=40),
           st.sampled_from([np.int64, np.uint64]))
    def test_same_buckets_in_the_same_order_as_the_scan(self, tasks, dtype):
        if dtype is np.uint64:
            tasks = [abs(task) for task in tasks]
        tasks = np.array(tasks, dtype=dtype)
        batch = ColumnBatch.from_rows([(i, str(i)) for i in range(len(tasks))])
        got = bucket_by_task(batch, tasks)
        expected = self.reference(batch, tasks)
        assert [(task, bucket.to_rows()) for task, bucket in got] == \
            [(task, bucket.to_rows()) for task, bucket in expected]

    def test_single_task_returns_shared_batch(self):
        batch = ColumnBatch.from_rows([(1,), (2,)])
        buckets = bucket_by_task(batch, np.array([3, 3]))
        assert buckets == [(3, batch)]
        assert buckets[0][1] is batch

    def test_buckets_in_first_assignment_order(self):
        batch = ColumnBatch.from_rows([(10,), (11,), (12,), (13,)])
        buckets = bucket_by_task(batch, np.array([2, 0, 2, 1]))
        assert [(task, b.to_rows()) for task, b in buckets] == [
            (2, [(10,), (12,)]), (0, [(11,)]), (1, [(13,)])]


def test_default_threshold_is_pinned():
    # groupings/tests/docs all quote 64; changing it is a docs change too
    assert COLUMNAR_MIN_BATCH == 64
