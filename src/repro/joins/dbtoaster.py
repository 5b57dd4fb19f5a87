"""DBToaster-style higher-order incremental view maintenance join.

For an n-way join, DBToaster materialises and maintains *every* connected
intermediate join -- all 2-way, 3-way, ..., (n-1)-way views -- so that a
new tuple of relation ``R`` produces its output delta with a single probe
into the materialised join of the remaining relations, instead of
recomputing that (n-1)-way join from base-relation indexes (paper section
3.3).  The savings grow with the number of relations.

Views are multisets (tuple -> multiplicity), which makes deletions -- and
therefore sliding-window expiration -- a symmetric negative delta.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.columnar import ColumnBatch, make_column
from repro.core.predicates import JoinCondition, JoinSpec
from repro.joins.base import JoinSchema, LocalJoin
from repro.joins.indexes import HashIndex, IdIndex


class _Subset(frozenset):
    """The relation names of one view, pickled as a sorted tuple.

    A plain ``frozenset`` pickles in iteration order, which follows the
    interpreter's string hash seed and the set's own insertion history:
    two equal join states -- or one state before and after a restore --
    would then make different checkpoint blobs.

    >>> import pickle
    >>> from repro.joins.dbtoaster import _Subset
    >>> pickle.loads(pickle.dumps(_Subset("TSR"))) == frozenset("RST")
    True
    >>> pickle.dumps(_Subset("TSR")) == pickle.dumps(_Subset("RST"))
    True
    """

    __slots__ = ()

    def __reduce__(self):
        return (_Subset, (tuple(sorted(self)),))


def connected_subsets(names: Sequence[str], adjacency: Dict[str, set]) -> List[FrozenSet[str]]:
    """All connected subsets of the join graph (any size >= 1)."""
    subsets = []
    for size in range(1, len(names) + 1):
        for combo in itertools.combinations(names, size):
            if _is_connected(set(combo), adjacency):
                subsets.append(_Subset(combo))
    return subsets


def _is_connected(nodes: set, adjacency: Dict[str, set]) -> bool:
    if not nodes:
        return False
    start = next(iter(nodes))
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for neighbor in adjacency[node] & nodes:
            if neighbor not in seen:
                seen.add(neighbor)
                stack.append(neighbor)
    return seen == nodes


def _components(nodes: set, adjacency: Dict[str, set]) -> List[FrozenSet[str]]:
    remaining = set(nodes)
    components = []
    while remaining:
        start = next(iter(remaining))
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for neighbor in adjacency[node] & remaining:
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        components.append(frozenset(seen))
        remaining -= seen
    return sorted(components, key=sorted)


class _View:
    """A materialised intermediate join over a subset of relations."""

    def __init__(self, spec: JoinSpec, subset: FrozenSet[str]):
        self.subset = subset
        members = [(info.name, info.schema) for info in spec.relations
                   if info.name in subset]
        self.layout = JoinSchema(members)
        self.rows: Dict[tuple, int] = {}
        self.total = 0
        # probe indexes keyed by the flat positions they index
        self.indexes: Dict[Tuple[int, ...], HashIndex] = {}

    def ensure_index(self, flat_positions: Tuple[int, ...]) -> HashIndex:
        index = self.indexes.get(flat_positions)
        if index is None:
            index = HashIndex()
            self.indexes[flat_positions] = index
            for row, count in self.rows.items():
                key = tuple(row[p] for p in flat_positions)
                for _copy in range(count):
                    index.insert(key, row)
        return index

    def apply(self, flat_row: tuple, multiplicity: int):
        new_count = self.rows.get(flat_row, 0) + multiplicity
        if new_count < 0:
            raise ValueError("view multiplicity went negative (inconsistent deletes)")
        if new_count == 0:
            self.rows.pop(flat_row, None)
        else:
            self.rows[flat_row] = new_count
        self.total += multiplicity
        for flat_positions, index in self.indexes.items():
            key = tuple(flat_row[p] for p in flat_positions)
            if multiplicity > 0:
                for _copy in range(multiplicity):
                    index.insert(key, flat_row)
            else:
                for _copy in range(-multiplicity):
                    index.delete(key, flat_row)

    def state_size(self) -> int:
        return self.total

    def clear(self):
        self.rows.clear()
        self.total = 0
        for index in self.indexes.values():
            index.__init__()


class _ProbePlan:
    """How a new tuple of one relation probes one component view."""

    def __init__(self, spec: JoinSpec, prober: str, view: _View):
        self.view = view
        prober_schema = spec.by_name[prober].schema
        equi_key_prober: List[int] = []
        equi_key_flat: List[int] = []
        self.filters: List[Tuple[JoinCondition, int, int]] = []
        for cond in spec.conditions:
            if cond.left[0] == prober and cond.right[0] in view.subset:
                oriented = cond
            elif cond.right[0] == prober and cond.left[0] in view.subset:
                oriented = cond.flipped()
            else:
                continue
            prober_pos = prober_schema.index_of(oriented.left[1])
            flat_pos = view.layout.position(oriented.right[0], oriented.right[1])
            if oriented.is_equi:
                equi_key_prober.append(prober_pos)
                equi_key_flat.append(flat_pos)
            else:
                self.filters.append((oriented, prober_pos, flat_pos))
        # deterministic composite key order
        paired = sorted(zip(equi_key_flat, equi_key_prober))
        self.key_flat = tuple(flat for flat, _p in paired)
        self.key_prober = tuple(p for _flat, p in paired)
        if self.key_flat:
            view.ensure_index(self.key_flat)

    def candidates(self, row: tuple) -> Iterable[Tuple[tuple, int]]:
        if self.key_flat:
            key = tuple(row[p] for p in self.key_prober)
            yield from self.view.indexes[self.key_flat].lookup(key)
        else:
            yield from self.view.rows.items()

    def matches(self, row: tuple, candidate: tuple) -> bool:
        for cond, prober_pos, flat_pos in self.filters:
            if not cond.evaluate(row[prober_pos], candidate[flat_pos]):
                return False
        return True


def _as_array(values) -> np.ndarray:
    """Any column representation as an ndarray (object dtype for lists)."""
    if isinstance(values, np.ndarray):
        return values
    arr = np.empty(len(values), dtype=object)
    arr[:] = values
    return arr


class _GrowColumn:
    """Amortized-doubling append-only NumPy vector.

    Adopts the dtype of the first appended chunk; any later dtype
    mismatch promotes the whole column to ``object`` (never a numeric
    coercion -- ``1`` must not silently become ``1.0`` in a view row).
    """

    __slots__ = ("data", "n")

    def __init__(self):
        self.data: Optional[np.ndarray] = None
        self.n = 0

    def view(self) -> np.ndarray:
        if self.data is None:
            return np.empty(0, dtype=object)
        return self.data[:self.n]

    def __getstate__(self):
        """The ``n`` live values only.

        The doubled capacity behind them is ``np.empty`` garbage: pickled
        along, it bloats every checkpoint blob and makes the blob's
        digest differ between two identical states.

        >>> import pickle
        >>> import numpy as np
        >>> from repro.joins.dbtoaster import _GrowColumn
        >>> column = _GrowColumn()
        >>> column.append(np.arange(3))
        >>> len(column.data), column.n
        (16, 3)
        >>> restored = pickle.loads(pickle.dumps(column))
        >>> len(restored.data), restored.view().tolist()
        (3, [0, 1, 2])
        >>> restored.append(np.arange(3, 6))    # grows again by doubling
        >>> restored.view().tolist()
        [0, 1, 2, 3, 4, 5]
        """
        # a 1-tuple: pickle skips __setstate__ for a falsy state
        return (None if self.data is None else self.data[:self.n],)

    def __setstate__(self, state):
        (self.data,) = state
        self.n = 0 if self.data is None else len(self.data)

    def append(self, values: np.ndarray):
        k = len(values)
        if k == 0:
            return
        if self.data is None:
            self.data = np.empty(max(16, k), dtype=values.dtype)
        elif self.data.dtype != values.dtype:
            if self.data.dtype != object:
                promoted = np.empty(len(self.data), dtype=object)
                promoted[:self.n] = self.data[:self.n]
                self.data = promoted
            if values.dtype != object:
                values = values.astype(object)
        need = self.n + k
        if need > len(self.data):
            capacity = len(self.data)
            while capacity < need:
                capacity *= 2
            grown = np.empty(capacity, dtype=self.data.dtype)
            grown[:self.n] = self.data[:self.n]
            self.data = grown
        self.data[self.n:need] = values
        self.n = need


class _ColumnarView:
    """Columnar twin of :class:`_View`: id-addressed column vectors.

    Every applied delta row gets a fresh integer id; ``cols[p].view()[id]``
    is that row's value at flat position ``p`` and ``mults.view()[id]``
    its (mutable) multiplicity.  Probe indexes map key tuples to id lists
    (:class:`IdIndex`), so a probe resolves to ids that feed straight
    into NumPy fancy indexing.  Duplicate view rows may occupy several
    ids; multiset semantics only depend on the multiplicity sum.
    """

    __slots__ = ("cols", "mults", "indexes", "total")

    def __init__(self, arity: int):
        self.cols = [_GrowColumn() for _ in range(arity)]
        self.mults = _GrowColumn()
        self.indexes: Dict[Tuple[int, ...], IdIndex] = {}
        self.total = 0

    def __getstate__(self):
        """Columns, multiplicities, total -- and of the indexes only
        *which* key positions are indexed, in order (``retract`` resolves
        rows through the first one).

        The id buckets are derived: :meth:`ensure_index` rebuilds a
        bucket as the ascending live ids of its key, which is exactly
        what incremental ``extend``/``retract`` maintenance leaves
        behind, so a rebuilt index answers every probe as the original
        would.  A restored view holds a ``None`` placeholder per index
        until its owner (:meth:`DBToasterJoin._plan_columnar`) has them
        rebuilt before the next probe.

        >>> import pickle
        >>> import numpy as np
        >>> from repro.joins.dbtoaster import _ColumnarView
        >>> view = _ColumnarView(2)
        >>> _ = view.ensure_index((1,))
        >>> view.extend([np.array([1, 2, 3]), np.array([7, 8, 7])],
        ...             np.ones(3, dtype=np.int64))
        >>> view.retract([np.array([1]), np.array([7])],
        ...              np.ones(1, dtype=np.int64))
        >>> restored = pickle.loads(pickle.dumps(view))
        >>> restored.indexes
        {(1,): None}
        >>> restored.ensure_index((1,)).get(7), view.indexes[(1,)].get(7)
        ([2], [2])
        """
        return (self.cols, self.mults, self.total, tuple(self.indexes))

    def __setstate__(self, state):
        self.cols, self.mults, self.total, indexed = state
        self.indexes = dict.fromkeys(indexed)

    @staticmethod
    def _keys_of(columns, flat_positions: Tuple[int, ...]) -> list:
        """Index keys for delta columns: scalars for single-column keys
        (the common case -- skips per-row tuple construction), tuples
        otherwise.  Probe-side key extraction uses the same convention."""
        if len(flat_positions) == 1:
            return _as_array(columns[flat_positions[0]]).tolist()
        return list(zip(*(_as_array(columns[p]).tolist()
                          for p in flat_positions)))

    def ensure_index(self, flat_positions: Tuple[int, ...]) -> IdIndex:
        index = self.indexes.get(flat_positions)
        if index is None:
            index = IdIndex()
            self.indexes[flat_positions] = index
            mults = self.mults.view().tolist()
            keys = self._keys_of([c.view() for c in self.cols],
                                 flat_positions)
            for row_id, key in enumerate(keys):
                if mults[row_id] > 0:
                    index.insert(key, row_id)
        return index

    def extend(self, columns: Sequence[np.ndarray], mults: np.ndarray):
        """Append delta rows with positive multiplicities."""
        n = len(mults)
        if n == 0:
            return
        start = self.mults.n
        for grow, col in zip(self.cols, columns):
            grow.append(_as_array(col))
        self.mults.append(np.asarray(mults, dtype=np.int64))
        self.total += int(mults.sum())
        for flat_positions, index in self.indexes.items():
            buckets = index._buckets
            bucket_get = buckets.get
            row_id = start
            for key in self._keys_of(columns, flat_positions):
                bucket = bucket_get(key)
                if bucket is None:
                    buckets[key] = [row_id]
                else:
                    bucket.append(row_id)
                row_id += 1

    def retract(self, columns: Sequence[np.ndarray], mults: np.ndarray):
        """Remove delta rows (positive ``mults``, subtracted).

        A logical row's multiplicity may be spread over several ids
        (inserted by different batches); the decrement walks the id
        bucket until the full multiplicity is consumed.
        """
        arity = len(self.cols)
        if not self.indexes:
            # a view that is never probed (the stored full result) gets a
            # whole-row index lazily, only when deletes actually arrive
            self.ensure_index(tuple(range(arity)))
        key_positions, index = next(iter(self.indexes.items()))
        mult_view = self.mults.view()
        col_views = [c.view() for c in self.cols]
        rows = list(zip(*(_as_array(c).tolist() for c in columns)))
        for row, mult in zip(rows, mults.tolist()):
            remaining = mult
            key = (row[key_positions[0]] if len(key_positions) == 1
                   else tuple(row[p] for p in key_positions))
            for row_id in list(index.get(key) or ()):
                if remaining == 0:
                    break
                if any(col_views[p][row_id] != row[p] for p in range(arity)):
                    continue
                take = min(remaining, int(mult_view[row_id]))
                mult_view[row_id] -= take
                remaining -= take
                if mult_view[row_id] == 0:
                    for positions, idx in self.indexes.items():
                        dead_key = (row[positions[0]] if len(positions) == 1
                                    else tuple(row[p] for p in positions))
                        idx.remove(dead_key, row_id)
            if remaining:
                raise ValueError(
                    "view multiplicity went negative (inconsistent deletes)")
        self.total -= int(mults.sum())


class DBToasterJoin(LocalJoin):
    """Higher-order IVM n-way join with materialised intermediate views."""

    def __init__(self, spec: JoinSpec, store_result: bool = False):
        super().__init__(spec)
        self.work = 0
        self.intermediate_tuples = 0
        self.store_result = store_result
        names = spec.relation_names
        adjacency = spec.adjacency()
        self._full = _Subset(names)
        subsets = connected_subsets(names, adjacency)
        self.views: Dict[FrozenSet[str], _View] = {}
        for subset in subsets:
            if len(subset) == len(names) and not store_result:
                continue
            self.views[subset] = _View(spec, subset)
        if store_result and self._full not in self.views:
            self.views[self._full] = _View(spec, self._full)
        # the update targets of a tuple from relation i: every maintained
        # view whose subset contains i, in increasing size order
        self._targets: Dict[str, List[FrozenSet[str]]] = {
            name: sorted(
                (s for s in self.views if name in s),
                key=lambda s: (len(s), sorted(s)),
            )
            for name in names
        }
        # probe plans: (target subset, prober) -> ordered component plans
        self._plans: Dict[Tuple[FrozenSet[str], str], List[_ProbePlan]] = {}
        for name in names:
            for subset in list(self._targets[name]) + [self._full]:
                rest = set(subset) - {name}
                plans = []
                for component in _components(rest, adjacency):
                    # components of (subset - {name}) are connected subsets
                    # of size <= n-1, so their views are always maintained
                    plans.append(_ProbePlan(spec, name, self.views[component]))
                self._plans[(subset, name)] = plans
        # columnar kernel: activated lazily on the first ColumnBatch when
        # every probe is a pure equi-probe (hash-index lookups vectorize;
        # theta filters and index-less scans stay on the row path)
        self._columnar_capable = all(
            plan.key_flat and not plan.filters
            for plans in self._plans.values() for plan in plans)
        self._cviews: Optional[Dict[FrozenSet[str], _ColumnarView]] = None
        self._cplans = None

    # -- delta computation ---------------------------------------------------

    def _delta(self, rel_name: str, row: tuple, subset: FrozenSet[str]) -> List[Tuple[Dict[str, tuple], int]]:
        """row >< view(subset \\ {rel_name}), component by component."""
        partials: List[Tuple[Dict[str, tuple], int]] = [({rel_name: row}, 1)]
        for plan in self._plans[(subset, rel_name)]:
            if not partials:
                break
            extended = []
            self.work += 1  # one probe per component view
            for bound_rows, multiplicity in partials:
                for candidate, count in plan.candidates(row):
                    self.work += 1  # candidate examined
                    if plan.matches(row, candidate):
                        merged = dict(bound_rows)
                        for member in plan.view.subset:
                            merged[member] = plan.view.layout.slice_of(candidate, member)
                        extended.append((merged, multiplicity * count))
            partials = extended
        return partials

    def _process(self, rel_name: str, row: tuple, sign: int) -> List[tuple]:
        row = tuple(row)
        # 1. compute every delta against the *old* views (none of the views
        #    read below contains rel_name, so order is immaterial)
        deltas: List[Tuple[FrozenSet[str], List[Tuple[Dict[str, tuple], int]]]] = []
        for subset in self._targets[rel_name]:
            deltas.append((subset, self._delta(rel_name, row, subset)))
        output_partials = (
            deltas[-1][1] if self.store_result and deltas and deltas[-1][0] == self._full
            else self._delta(rel_name, row, self._full)
        )
        # 2. apply deltas to the maintained views
        for subset, partials in deltas:
            view = self.views[subset]
            for bound_rows, multiplicity in partials:
                flat = view.layout.flatten(bound_rows)
                view.apply(flat, sign * multiplicity)
                if len(subset) < len(self._full):
                    self.intermediate_tuples += multiplicity
        # 3. emit the final delta
        output = []
        for bound_rows, multiplicity in output_partials:
            flat = self.join_schema.flatten(bound_rows)
            output.extend([flat] * multiplicity)
        return output

    # -- columnar kernel -------------------------------------------------------

    def _activate_columnar(self):
        """Switch to the columnar kernel: convert existing view state to
        id-addressed column vectors.

        Deltas are whole-batch: since none of the probed component views
        contains the prober relation, every row of an incoming batch sees
        the same frozen pre-batch state, so per-row sequential semantics
        and compute-all-then-apply are identical (the same argument that
        lets ``_process`` defer its applies).
        """
        self._cviews = {}
        for subset, view in self.views.items():
            cview = _ColumnarView(view.layout.arity)
            if view.rows:
                items = list(view.rows.items())
                mults = np.fromiter((count for _row, count in items),
                                    dtype=np.int64, count=len(items))
                columns = [
                    _as_array(make_column([row[p] for row, _count in items]))
                    for p in range(view.layout.arity)
                ]
                cview.extend(columns, mults)
            self._cviews[subset] = cview

    def _plan_columnar(self):
        """Derive everything the columnar kernel probes through from the
        columnar views: the id indexes and the per-(target, prober)
        gather maps.

        The one place that builds them -- after activation, and again
        after unpickling (:meth:`__getstate__` ships neither).
        """
        for cview in self._cviews.values():
            for flat_positions in cview.indexes:  # a restored view's own
                cview.ensure_index(flat_positions)
        self._cplans = {}
        for (subset, rel), plans in self._plans.items():
            target_layout = (self.views[subset].layout if subset in self.views
                             else self.join_schema)
            rel_arity = self.spec.by_name[rel].schema.arity
            prober_map = list(zip(target_layout.positions_of(rel),
                                  range(rel_arity)))
            plan_entries = []
            for plan in plans:
                cview = self._cviews[plan.view.subset]
                cview.ensure_index(plan.key_flat)
                col_map = []
                for member in plan.view.subset:
                    col_map.extend(zip(target_layout.positions_of(member),
                                       plan.view.layout.positions_of(member)))
                plan_entries.append(
                    (cview, plan.key_prober, plan.key_flat, col_map))
            self._cplans[(subset, rel)] = (target_layout.arity, prober_map,
                                           plan_entries)

    def __getstate__(self):
        """Everything but the probe plans, which -- like the id indexes
        the columnar views leave out of *their* pickles -- are derived
        state: a blob holds columns, multiplicities and index key
        positions, and the first batch after a restore rebuilds the rest
        (:meth:`_plan_columnar`).  ``run_plan`` reads only ``work`` and
        ``state_size()`` off the joins a ``processes`` run ships home,
        so there the rebuild never happens at all.

        >>> import pickle
        >>> from repro.core.columnar import ColumnBatch
        >>> from repro.core.predicates import (
        ...     EquiCondition, JoinSpec, RelationInfo)
        >>> from repro.core.schema import Schema
        >>> from repro.joins.dbtoaster import DBToasterJoin
        >>> spec = JoinSpec(
        ...     [RelationInfo("R", Schema.of("x", "y"), 4),
        ...      RelationInfo("S", Schema.of("y", "z"), 4)],
        ...     [EquiCondition(("R", "y"), ("S", "y"))])
        >>> join = DBToasterJoin(spec)
        >>> _ = join.insert_batch("R", ColumnBatch.from_rows([(1, 7), (2, 8)]))
        >>> twin = pickle.loads(pickle.dumps(join))
        >>> twin._cplans is None
        True
        >>> twin.insert_batch("S", ColumnBatch.from_rows([(7, 0)])).to_rows()
        [(1, 7, 7, 0)]
        >>> pickle.dumps(twin) == pickle.dumps(pickle.loads(pickle.dumps(twin)))
        True
        """
        state = dict(self.__dict__)
        state["_cplans"] = None
        return state

    def _delta_batch(self, rel_name: str, batch_cols: List[np.ndarray],
                     n: int, subset: FrozenSet[str], bucket_cache: dict,
                     key_cache: dict):
        """Whole-batch ``_delta``: probe every component view with whole
        columns, chaining candidate expansion via ``np.repeat``.

        Returns ``(columns, mult)``: the delta rows of the target layout
        as full-arity gathered columns plus their multiplicities.  Probe
        keys and id buckets are cached per (index, key positions), so a
        component view probed by several targets is resolved once.
        """
        arity, prober_map, plan_entries = self._cplans[(subset, rel_name)]
        idx = np.arange(n)                 # prober row per partial (sorted)
        mult = np.ones(n, dtype=np.int64)
        gathers = []                       # (cview, ids, col_map) per plan
        identity = True                    # idx is still arange(n)
        for cview, key_prober, key_flat, col_map in plan_entries:
            if len(idx) == 0:
                break
            keys = key_cache.get(key_prober)
            if keys is None:
                if len(key_prober) == 1:
                    keys = batch_cols[key_prober[0]].tolist()
                else:
                    keys = list(zip(*(batch_cols[p].tolist()
                                      for p in key_prober)))
                key_cache[key_prober] = keys
            # id() keys a per-batch memo dict only -- the identity never
            # reaches routing or emitted rows, and the cache dies with
            # the batch.  # squall-lint: disable=determinism
            cache_key = (id(cview), key_flat, key_prober)
            buckets = bucket_cache.get(cache_key)
            if buckets is None:
                get = cview.indexes[key_flat]._buckets.get
                buckets = [get(key) for key in keys]
                bucket_cache[cache_key] = buckets
            if identity:
                hits = buckets
            else:
                hits = [buckets[i] for i in idx.tolist()]
            counts = np.array([len(b) if b is not None else 0 for b in hits],
                              dtype=np.int64)
            total = int(counts.sum())
            # cost model: one probe per surviving prober row, one unit per
            # candidate examined (mirrors _delta's accounting)
            distinct = (len(idx) if identity
                        else int(np.count_nonzero(np.diff(idx))) + 1)
            self.work += distinct + total
            ids = np.array(
                [row_id for b in hits if b is not None for row_id in b],
                dtype=np.int64)
            identity = False
            gathers = [(cv, np.repeat(prev_ids, counts), cm)
                       for cv, prev_ids, cm in gathers]
            idx = np.repeat(idx, counts)
            mult = np.repeat(mult, counts) * cview.mults.view()[ids]
            gathers.append((cview, ids, col_map))
        if len(idx) == 0:
            return None, np.zeros(0, dtype=np.int64)
        columns: List[Optional[np.ndarray]] = [None] * arity
        for target_pos, batch_pos in prober_map:
            columns[target_pos] = batch_cols[batch_pos][idx]
        for cview, ids, col_map in gathers:
            for target_pos, view_pos in col_map:
                columns[target_pos] = cview.cols[view_pos].view()[ids]
        return columns, mult

    def _process_batch(self, rel_name: str, batch: ColumnBatch,
                       sign: int) -> ColumnBatch:
        """Whole-batch ``_process``: one columnar delta per target view
        plus the output delta, all against the frozen pre-batch state,
        then bulk applies.  ``sign`` applies to every row of ``batch``;
        the output delta is unsigned (its caller knows the sign)."""
        n = batch.length
        if n == 0:
            return ColumnBatch([], 0)
        if self._cplans is None:
            self._plan_columnar()
        batch_cols = [_as_array(col) for col in batch.columns]
        bucket_cache: dict = {}
        key_cache: dict = {}
        deltas = []
        for subset in self._targets[rel_name]:
            deltas.append((subset, self._delta_batch(
                rel_name, batch_cols, n, subset, bucket_cache, key_cache)))
        if self.store_result and deltas and deltas[-1][0] == self._full:
            out_cols, out_mult = deltas[-1][1]
        else:
            out_cols, out_mult = self._delta_batch(
                rel_name, batch_cols, n, self._full, bucket_cache, key_cache)
        for subset, (columns, mult) in deltas:
            if len(mult) == 0:
                continue
            cview = self._cviews[subset]
            if sign > 0:
                cview.extend(columns, mult)
            else:
                cview.retract(columns, mult)
            if len(subset) < len(self._full):
                self.intermediate_tuples += int(mult.sum())
        k = len(out_mult)
        if k == 0:
            return ColumnBatch([], 0)
        if (out_mult != 1).any():
            expand = np.repeat(np.arange(k), out_mult)
            out_cols = [col[expand] for col in out_cols]
            k = len(expand)
        return ColumnBatch(out_cols, k)

    # -- public interface ------------------------------------------------------

    def insert_batch(self, rel_name: str, rows) -> object:
        if (isinstance(rows, ColumnBatch) and self._cviews is None
                and self._columnar_capable):
            self._activate_columnar()
        return self._apply_batch(rel_name, rows, +1)

    def delete_batch(self, rel_name: str, rows) -> object:
        # a retraction never switches kernels: a one-row retraction on
        # the row path arrives as a ColumnBatch (a row list has no
        # signs) and must leave the row-path views as they are
        return self._apply_batch(rel_name, rows, -1)

    def _apply_batch(self, rel_name: str, rows, sign: int) -> object:
        """A batch in whichever kernel is active; the columnar one hands
        a row list back as a row list."""
        if self._cviews is None:
            process = self._process
            return [out for row in rows
                    for out in process(rel_name, row, sign)]
        if isinstance(rows, ColumnBatch):
            return self._process_batch(rel_name, rows, sign)
        batch = ColumnBatch.from_rows([tuple(row) for row in rows])
        return self._process_batch(rel_name, batch, sign).to_rows()

    def insert(self, rel_name: str, row: tuple) -> List[tuple]:
        return self._apply_batch(rel_name, [row], +1)

    def delete(self, rel_name: str, row: tuple) -> List[tuple]:
        return self._apply_batch(rel_name, [row], -1)

    def view_size(self, *names: str) -> int:
        """Multiplicity-weighted size of one maintained view (test hook)."""
        if self._cviews is not None:
            return self._cviews[frozenset(names)].total
        return self.views[frozenset(names)].total

    def state_size(self) -> int:
        if self._cviews is not None:
            return sum(cview.total for cview in self._cviews.values())
        return sum(view.total for view in self.views.values())

    def reset(self):
        for view in self.views.values():
            view.clear()
        self._cviews = None
        self._cplans = None
