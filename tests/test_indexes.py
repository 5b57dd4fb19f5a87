"""Tests for on-the-fly join indexes: HashIndex, SortedIndex and the
columnar kernel's ArrayIndex."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.joins.indexes import ArrayIndex, HashIndex, SortedIndex


class TestHashIndex:
    def test_insert_lookup(self):
        index = HashIndex()
        index.insert(5, ("a",))
        index.insert(5, ("b",))
        assert sorted(dict(index.lookup(5))) == [("a",), ("b",)]

    def test_multiplicity(self):
        index = HashIndex()
        index.insert(1, ("x",))
        index.insert(1, ("x",))
        assert dict(index.lookup(1)) == {("x",): 2}
        assert len(index) == 2

    def test_delete_one_occurrence(self):
        index = HashIndex()
        index.insert(1, ("x",))
        index.insert(1, ("x",))
        assert index.delete(1, ("x",))
        assert dict(index.lookup(1)) == {("x",): 1}

    def test_delete_missing_returns_false(self):
        index = HashIndex()
        assert not index.delete(9, ("nope",))

    def test_delete_cleans_empty_buckets(self):
        index = HashIndex()
        index.insert(1, ("x",))
        index.delete(1, ("x",))
        assert list(index.lookup(1)) == []
        assert list(index.keys()) == []


class TestSortedIndex:
    def test_range_inclusive(self):
        index = SortedIndex()
        for key in (1, 3, 5, 7):
            index.insert(key, (key,))
        assert list(index.range(3, 5)) == [(3,), (5,)]

    def test_range_exclusive_bounds(self):
        index = SortedIndex()
        for key in (1, 3, 5, 7):
            index.insert(key, (key,))
        assert list(index.range(3, 7, include_low=False, include_high=False)) == [(5,)]

    def test_open_ranges(self):
        index = SortedIndex()
        for key in (1, 3, 5):
            index.insert(key, (key,))
        assert list(index.range(None, 3)) == [(1,), (3,)]
        assert list(index.range(3, None)) == [(3,), (5,)]
        assert len(list(index.range(None, None))) == 3

    def test_duplicate_keys(self):
        index = SortedIndex()
        index.insert(2, ("a",))
        index.insert(2, ("b",))
        assert len(list(index.range(2, 2))) == 2

    def test_delete(self):
        index = SortedIndex()
        index.insert(2, ("a",))
        index.insert(2, ("b",))
        assert index.delete(2, ("a",))
        assert list(index.range(2, 2)) == [("b",)]
        assert not index.delete(2, ("zzz",))

    def test_delete_missing(self):
        index = SortedIndex()
        index.insert(1, ("a",))
        assert not index.delete(1, ("b",))
        assert not index.delete(9, ("a",))
        assert list(index.range(None, None)) == [("a",)]

    def test_empty_ranges(self):
        index = SortedIndex()
        assert list(index.range(None, None)) == []
        for key in (1, 3, 5):
            index.insert(key, (key,))
        assert list(index.range(4, 2)) == []
        assert list(index.range(3, 3, include_low=False)) == []
        assert list(index.range(6, None)) == []

    def test_size_follows_inserts_and_deletes(self):
        index = SortedIndex()
        for key in (4, 2, 2):
            index.insert(key, (key,))
        assert index.size == len(index) == 3
        assert index.delete(2, (2,))
        assert not index.delete(7, (7,))
        assert index.size == len(index) == 2

    def test_multiplicity(self):
        index = SortedIndex()
        index.insert(1, ("a",))
        index.insert(1, ("a",))
        assert list(index.range(1, 1)) == [("a",), ("a",)]
        index.delete(1, ("a",))
        assert list(index.range(1, 1)) == [("a",)]


def sorted_model_range(model, low, high, include_low, include_high):
    """The rows a sorted (key, row) list holds in the interval, in key
    order."""
    return [row for key, row in model
            if (low is None or key > low or (include_low and key == low))
            and (high is None or key < high or (include_high and key == high))]


class TestSortedIndexModel:
    """SortedIndex against a sorted-list model: inserts, deletes (present
    and missing rows, repeated rows) and every kind of interval."""

    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(st.tuples(st.booleans(), st.integers(0, 20),
                               st.integers(0, 3)), max_size=120),
        bounds=st.lists(st.tuples(
            st.none() | st.integers(-2, 22), st.none() | st.integers(-2, 22),
            st.booleans(), st.booleans()), min_size=1, max_size=5),
    )
    def test_matches_sorted_index_on_random_ops(self, ops, bounds):
        index = SortedIndex()
        model = []
        for is_insert, key, tag in ops:
            row = (key, tag)
            if is_insert:
                index.insert(key, row)
                model.append((key, row))
                model.sort(key=lambda entry: entry[0])
            else:
                present = (key, row) in model
                assert index.delete(key, row) == present
                if present:
                    model.remove((key, row))
            assert len(index) == index.size == len(model)
        for low, high, include_low, include_high in bounds:
            got = list(index.range(low, high, include_low, include_high))
            want = sorted_model_range(model, low, high, include_low,
                                      include_high)
            assert [row[0] for row in got] == [row[0] for row in want]
            assert sorted(got) == sorted(want)

    @settings(max_examples=50, deadline=None)
    @given(
        keys=st.lists(st.integers(min_value=-50, max_value=50), max_size=80),
        low=st.integers(min_value=-60, max_value=60),
        span=st.integers(min_value=0, max_value=40),
    )
    def test_range_property(self, keys, low, span):
        high = low + span
        index = SortedIndex()
        for key in keys:
            index.insert(key, (key,))
        expected = sorted((k,) for k in keys if low <= k <= high)
        assert list(index.range(low, high)) == expected


#: ROADMAP 1(a)'s hazard keys: equal across types (``1``, ``1.0``,
#: ``True``), equal as text only (``42``, ``"42"``), tuples, ``None`` and
#: ints no int64 holds -- so every column that holds them is an object one
HAZARD_KEYS = [1, 1.0, True, 0, False, 42, "42", (1, 1), (1, 1.0), None,
               2 ** 63, -2 ** 63 - 1, 2 ** 64 + 1]
#: int64 keys, some close together (a table run) and some spread over
#: the whole range (a run that searches its distinct codes)
INT64_KEYS = [0, 1, 2, 3, 7, 42, -1, -2 ** 63, 2 ** 62, 2 ** 63 - 1]


def key_column(keys):
    """Keys as the columnar kernel holds them: an int64 vector when all
    are plain ints it fits, an object vector otherwise."""
    if all(type(key) is int and -2 ** 63 <= key < 2 ** 63 for key in keys):
        return np.array(keys, dtype=np.int64)
    column = np.empty(len(keys), dtype=object)
    column[:] = keys
    return column


class IdBucketsModel:
    """The index the array index replaced: one Python list of ids per
    key (dict equality), multiplicities by id, retraction by walking a
    key's ids in ascending order."""

    def __init__(self):
        self.buckets = {}
        self.rows = []  # id -> [key, value, multiplicity]

    def extend(self, rows):
        for key, value, mult in rows:
            self.buckets.setdefault(key, []).append(len(self.rows))
            self.rows.append([key, value, mult])

    def retract(self, key, value, amount):
        for row_id in self.buckets.get(key, ()):
            stored_key, stored_value, mult = self.rows[row_id]
            if mult and stored_key == key and stored_value == value:
                take = min(amount, mult)
                self.rows[row_id][2] -= take
                amount -= take
                if not amount:
                    return
        raise AssertionError("the model retracted more than it holds")

    def live_ids(self, key):
        return [row_id for row_id in self.buckets.get(key, ())
                if self.rows[row_id][2]]


def index_ops(keys):
    """Extends of one to four rows, and retractions of a live row."""
    extend = st.tuples(st.just("extend"), st.lists(
        st.tuples(st.sampled_from(keys), st.integers(0, 2),
                  st.integers(1, 3)), min_size=1, max_size=4))
    retract = st.tuples(st.just("retract"),
                        st.tuples(st.integers(0, 10 ** 6),
                                  st.integers(1, 3)))
    return st.lists(st.one_of(extend, extend, retract), max_size=25)


class TestArrayIndex:
    """The columnar view's :class:`ArrayIndex` against a dict of id lists."""

    @staticmethod
    def apply(view, model, op):
        kind, payload = op
        if kind == "extend":
            view.extend([key_column([key for key, _v, _m in payload]),
                         np.array([value for _k, value, _m in payload])],
                        np.array([mult for _k, _v, mult in payload]))
            model.extend(payload)
            return
        pick, amount = payload
        live = [row for row in model.rows if row[2]]
        if not live:
            return
        key, value, mult = live[pick % len(live)]
        amount = min(amount, mult)
        view.retract([key_column([key]), np.array([value])],
                     np.array([amount]))
        model.retract(key, value, amount)

    @staticmethod
    def assert_probes_agree(view, model, probe_keys):
        counts, ids = view.probe((0,), [key_column(probe_keys)])
        ids = ids.tolist()
        for key, count in zip(probe_keys, counts.tolist()):
            assert ids[:count] == model.live_ids(key), key
            del ids[:count]
        assert ids == []

    @settings(max_examples=150, deadline=None)
    @given(int_ops=index_ops(INT64_KEYS),
           mixed_ops=index_ops(INT64_KEYS + HAZARD_KEYS))
    def test_live_ids_match_a_dict_of_lists(self, int_ops, mixed_ops):
        """An int64 view first (its keys are their own codes), which
        then receives the hazard keys and re-codes once."""
        from repro.joins.dbtoaster import _ColumnarView

        view, model = _ColumnarView(2), IdBucketsModel()
        view.ensure_index((0,))
        for op in int_ops:
            self.apply(view, model, op)
            self.assert_probes_agree(view, model, INT64_KEYS + [5])
        for op in mixed_ops:
            self.apply(view, model, op)
            self.assert_probes_agree(view, model,
                                     INT64_KEYS + HAZARD_KEYS + ["x"])
        assert view.total == sum(row[2] for row in model.rows)

    def test_an_int64_index_recodes_on_its_first_other_key(self):
        index = ArrayIndex()
        index.extend([np.array([5, 1, 5], dtype=np.int64)])
        counts, ids = index.lookup([np.array([5, 9], dtype=np.int64)])
        assert (counts.tolist(), ids.tolist()) == ([2, 0], [0, 2])
        index.extend([key_column([5.0, "5"])])
        counts, ids = index.lookup([key_column([5, True, "5", 1.0])])
        assert counts.tolist() == [3, 1, 1, 1]
        assert ids.tolist() == [0, 2, 3, 1, 4, 1]

    def test_a_probe_leaves_out_dead_ids(self):
        index = ArrayIndex()
        index.extend([np.array([3, 3, 3], dtype=np.int64)])
        mults = np.array([1, 0, 2])
        counts, ids = index.lookup([np.array([3], dtype=np.int64)], mults)
        assert (counts.tolist(), ids.tolist()) == ([2], [0, 2])

    def test_the_tail_answers_alike_scanned_or_sorted(self, monkeypatch):
        rng = np.random.default_rng(3)
        keys = [rng.integers(0, 50, 400), rng.integers(0, 60, 90)]
        index = ArrayIndex()
        index.extend([keys[0]])
        index.lookup([np.arange(50)])            # the run: 400 ids
        index.extend([keys[1]])                  # a tail under 1/4 of it
        probe = [rng.integers(0, 70, 40)]
        scanned = index.lookup(probe)
        monkeypatch.setattr(ArrayIndex, "SCAN", 0)
        sorted_tail = index.lookup(probe)
        assert [part.tolist() for part in scanned] == \
            [part.tolist() for part in sorted_tail]
        assert index.n - index._merged == 90  # the tail was probed, unmerged
        # and both answer as the run would, all ids merged
        merged = ArrayIndex()
        merged.extend([np.concatenate(keys)])
        assert [part.tolist() for part in sorted_tail] == \
            [part.tolist() for part in merged.lookup(probe)]
