"""Stored relations are columnar at rest, and typed by their schema.

A :class:`~repro.core.schema.Relation` builds its columnar form once, at
its first columnar scan, with the schema check in the same pass; every
:class:`~repro.streaming.sources.ReplaySource` poll after that slices
read-only views of the stored columns.  Pinned here:

- awkward columns (``None``, ``bool``, ``str``, mixed int/float, ints
  past 2^63, an empty and a one-row relation) give the row path's
  answer across source parallelism, batch size, front end and executor;
- stored columns cannot be written through, and a relation is
  transposed once however often, and by however many source components,
  it is scanned; the row path builds nothing;
- no scan reads stale columns: ``append``/``extend`` are seen, and once
  scanned ``rows`` is a tuple, so a direct write raises;
- the schema check (ROADMAP 1(a), step 1) and the equi-join type check
  (step 2), with the int-against-string probe that used to return
  nothing.
"""

import math
from collections import Counter

import numpy as np
import pytest

import repro
from repro.core import columnar
from repro.core.expressions import col
from repro.core.options import ExecutionOptions
from repro.core.predicates import EquiCondition, JoinSpec, RelationInfo
from repro.core.schema import Relation, Schema
from repro.engine import (
    AggComponent,
    JoinComponent,
    PhysicalPlan,
    SourceComponent,
    count,
    run_plan,
    total,
)
from repro.streaming import stream_plan
from repro.streaming.sources import ReplaySource

#: input name -> (declared type of ``v``, its values); ``k`` cycles 0..4
#: (``None`` only where ``k`` is 0: a snapshot sorts its groups, and
#: cannot order ``None`` against a number)
AWKWARD = {
    "none": ("int", [None if i % 5 == 0 else i for i in range(23)]),
    "bool": ("int", [i % 2 == 0 for i in range(23)]),
    "str": ("str", [f"s{i % 6}" for i in range(23)]),
    "mixed": ("float", [i if i % 2 else i + 0.5 for i in range(23)]),
    "big": ("int", [2 ** 63 + i if i % 4 == 0 else i for i in range(23)]),
    "empty": ("int", []),
    "one_row": ("int", [7]),
}


def awkward_plan(name, parallelism):
    """A(k, v) >< B(k, w) on k, COUNT(*) and SUM(w) by A.k, A.v.  A's polls
    (strided views at ``parallelism`` > 1) reach the join unfiltered; B
    passes a vectorised selection."""
    kind, values = AWKWARD[name]
    A = Relation("A", Schema.of("k", f"v:{kind}"),
                 [(i % 5, value) for i, value in enumerate(values)])
    B = Relation("B", Schema.of("k", "w"), [(i % 5, i) for i in range(9)])
    spec = JoinSpec([RelationInfo("A", A.schema, len(A)),
                     RelationInfo("B", B.schema, len(B))],
                    [EquiCondition(("A", "k"), ("B", "k"))])
    return PhysicalPlan(
        sources=[SourceComponent("A", A, parallelism=parallelism),
                 SourceComponent("B", B, predicate=col("w").lt(8))],
        joins=[JoinComponent("J", spec, machines=2,
                             output_positions=[0, 1, 3])],
        aggregation=AggComponent("agg", group_positions=[0, 1],
                                 aggregates=[count(), total(2)]),
    )


def answer(front_end, plan, **knobs):
    options = ExecutionOptions(**knobs)
    if front_end == "run_plan":
        return Counter(run_plan(plan, options=options).results)
    return Counter(stream_plan(plan, options=options).run().snapshot())


@pytest.mark.parametrize("executor", ["inline", "processes"])
@pytest.mark.parametrize("front_end", ["run_plan", "stream_plan"])
@pytest.mark.parametrize("name", sorted(AWKWARD))
def test_awkward_columns_give_the_row_paths_answer(name, front_end,
                                                    executor):
    extra = {"parallelism": 2} if executor == "processes" else {}
    for parallelism in (1, 2, 3, 4):
        for batch_size in (7, 64, 1024):
            knobs = dict(executor=executor, batch_size=batch_size, **extra)
            rows = answer(front_end, awkward_plan(name, parallelism),
                          columnar=False, **knobs)
            assert answer(front_end, awkward_plan(name, parallelism),
                          columnar=True, **knobs) == rows, (
                parallelism, batch_size)
            if name != "empty":
                assert rows  # not vacuous


def test_a_stored_numeric_column_is_not_writeable():
    relation = Relation("R", Schema.of("k", "x:float", "s:str"),
                        [(i, i / 2, str(i)) for i in range(10)])
    ints, floats, strings = relation.stored_columns()
    assert ints.dtype == np.int64 and floats.dtype == np.float64
    assert isinstance(strings, list)
    for column in (ints, floats):
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = 99
    emissions = ReplaySource(relation, "R", start=1, step=3).poll(4)
    view = emissions.batch.columns[0]
    assert view.tolist() == [1, 4, 7] and not view.flags.writeable
    assert emissions.batch.to_rows() == [relation.rows[i] for i in (1, 4, 7)]


def test_a_bare_row_list_is_transposed_once_by_its_replay():
    source = ReplaySource([(i, f"s{i}") for i in range(10)], "R")
    first, second = source.poll(4), source.poll(4)
    assert first.batch.columns[0].base is second.batch.columns[0].base
    assert second.batch.to_rows() == [(i, f"s{i}") for i in range(4, 8)]


@pytest.fixture
def transpositions(monkeypatch):
    """The number of rows of each ``columns_of`` call over rows whose
    last value is ``"stored"`` (the scanned relation's rows)."""
    calls = []
    original = columnar.columns_of

    def counting(rows, check=None):
        if rows and rows[0][-1] == "stored":
            calls.append(len(rows))
        return original(rows, check)

    monkeypatch.setattr(columnar, "columns_of", counting)
    return calls


def twice_scanned_plan(relation):
    """Two source components over one relation, joined on k; the join
    emits k alone, so only the scans read rows tagged ``"stored"``."""
    spec = JoinSpec([RelationInfo("A", relation.schema, len(relation)),
                     RelationInfo("B", relation.schema, len(relation))],
                    [EquiCondition(("A", "k"), ("B", "k"))])
    return PhysicalPlan(
        sources=[SourceComponent("A", relation, parallelism=3),
                 SourceComponent("B", relation)],
        joins=[JoinComponent("J", spec, machines=2, output_positions=[0])])


def stored_relation(n=300):
    return Relation("t", Schema.of("k", "tag:str"),
                    [(i % 7, "stored") for i in range(n)])


def test_two_sources_and_two_runs_transpose_once(transpositions):
    relation = stored_relation()
    options = ExecutionOptions(batch_size=64, columnar=True)
    first = run_plan(twice_scanned_plan(relation), options=options)
    second = run_plan(twice_scanned_plan(relation), options=options)
    assert transpositions == [300]
    assert Counter(first.results) == Counter(second.results) == Counter(
        run_plan(twice_scanned_plan(relation),
                 options=ExecutionOptions(batch_size=64,
                                          columnar=False)).results)


def test_the_next_query_reuses_the_columns(transpositions):
    """A query scans a catalog relation through an alias
    (``Relation.renamed``), which shares the relation's store."""
    session = repro.connect()
    session.register(stored_relation())
    sql = "SELECT a.k, b.k FROM t a, t b WHERE a.k = b.k"
    options = ExecutionOptions(batch_size=64, columnar=True)
    first = session.execute(sql, options=options)
    second = session.execute(sql, options=options)
    assert transpositions == [300]
    assert Counter(first.results) == Counter(second.results)
    assert len(first.results) == sum(
        count ** 2 for count in Counter(i % 7 for i in range(300)).values())


def test_the_row_path_builds_no_columns(transpositions):
    relation = stored_relation()
    for front_end in ("run_plan", "stream_plan"):
        answer(front_end, twice_scanned_plan(relation), batch_size=64,
               columnar=False)
    assert transpositions == []


@pytest.mark.parametrize("grow", ["append", "extend"])
def test_rows_added_between_two_columnar_runs_are_seen(grow, transpositions):
    relation = stored_relation(50)
    options = ExecutionOptions(batch_size=8, columnar=True)
    before = Counter(run_plan(twice_scanned_plan(relation),
                              options=options).results)
    if grow == "append":
        relation.append((99, "stored"))
    else:
        relation.extend([(99, "stored"), (98, "stored")])
    after = Counter(run_plan(twice_scanned_plan(relation),
                             options=options).results)
    assert after - before == Counter(
        run_plan(twice_scanned_plan(relation),
                 options=ExecutionOptions(batch_size=8,
                                          columnar=False)).results) - before
    assert sum((after - before).values()) == (1 if grow == "append" else 2)
    assert transpositions == [50, len(relation)]


class TestDirectWrites:
    """Once scanned, ``rows`` is a tuple: a write to it raises, and
    ``rows`` cannot be assigned."""

    def scanned(self):
        relation = stored_relation(20)
        run_plan(twice_scanned_plan(relation),
                 options=ExecutionOptions(batch_size=8, columnar=True))
        return relation

    def test_a_write_into_scanned_rows_raises(self):
        relation = self.scanned()
        assert isinstance(relation.rows, tuple)
        with pytest.raises(AttributeError):
            relation.rows.append((1, "stored"))
        with pytest.raises(TypeError):
            relation.rows[0] = (1, "stored")

    def test_append_thaws_the_rows(self):
        relation = self.scanned()
        relation.append((5, "stored"))
        assert isinstance(relation.rows, list) and len(relation) == 21

    def test_rows_cannot_be_assigned(self):
        relation = self.scanned()
        with pytest.raises(AttributeError):
            relation.rows = [(1, "stored")]

    def test_a_write_before_the_first_scan_is_checked(self):
        relation = stored_relation(20)
        relation.rows.append((1, 2))  # before any scan: a plain list
        with pytest.raises(ValueError, match="column 'tag' is declared str"):
            relation.stored_columns()


def scan(relation, columnar_path):
    """Run a one-source plan over ``relation`` and return its rows."""
    plan = PhysicalPlan(sources=[SourceComponent(relation.name, relation)])
    return run_plan(plan, options=ExecutionOptions(
        batch_size=16, columnar=columnar_path)).results


class TestSchemaCheck:
    """Rows are checked against the schema once per relation, on either
    path.  ``int`` and ``float`` are one numeric family (``int``,
    ``float`` -- NaN too -- and ``bool``), ``date`` is ``str``, and
    ``None`` fits any column."""

    @pytest.mark.parametrize("columnar_path", [False, True],
                             ids=["rows", "columnar"])
    def test_the_error_names_relation_column_types_and_row(self,
                                                           columnar_path):
        relation = Relation("orders", Schema.of("id", "day:date"),
                            [(1, "1994-01-01"), (2, "1994-01-02"),
                             (3, 19940103), (4, 19940104)])
        with pytest.raises(ValueError) as error:
            scan(relation, columnar_path)
        assert str(error.value) == (
            "relation 'orders': column 'day' is declared date but row 2 "
            "holds int 19940103")

    @pytest.mark.parametrize("columnar_path", [False, True],
                             ids=["rows", "columnar"])
    def test_a_wrong_arity_names_its_row(self, columnar_path):
        relation = Relation("R", Schema.of("a", "b"), [(1, 2), (3,)])
        with pytest.raises(ValueError, match="row 1 has arity 1"):
            scan(relation, columnar_path)

    @pytest.mark.parametrize("kind,values", [
        ("float", [1, 2.5, True, None, math.nan]),
        ("int", [1, False, None, 2 ** 70, 3.0]),
        ("str", ["a", None]),
        ("date", ["1994-01-01", None]),
    ])
    @pytest.mark.parametrize("columnar_path", [False, True],
                             ids=["rows", "columnar"])
    def test_what_a_column_holds(self, kind, values, columnar_path):
        relation = Relation("R", Schema.of("i", f"v:{kind}"),
                            list(enumerate(values)))
        assert len(scan(relation, columnar_path)) == len(values)

    @pytest.mark.parametrize("kind,value", [
        ("str", 1), ("str", True), ("str", 1.5), ("date", 0),
        ("int", "1"), ("float", "1.0"),
    ])
    def test_what_a_column_refuses(self, kind, value):
        relation = Relation("R", Schema.of(f"v:{kind}"), [(value,)])
        with pytest.raises(ValueError, match=f"declared {kind} but row 0"):
            relation.checked_rows()

    def test_the_check_runs_once_per_relation(self, monkeypatch):
        relation = Relation("R", Schema.of("a"), [(1,), (2,)])
        checks = []
        original = Relation._check
        monkeypatch.setattr(Relation, "_check", lambda self, *args: (
            checks.append(args[1]), original(self, *args)))
        scan(relation, False)
        scan(relation, True)  # builds the columns, checked already
        scan(relation, False)
        assert checks == [0]


def probe_spec(key_types):
    return JoinSpec(
        [RelationInfo("A", Schema.of(f"k:{key_types[0]}"), 10),
         RelationInfo("B", Schema.of(f"k:{key_types[1]}"), 10)],
        [EquiCondition(("A", "k"), ("B", "k"))])


class TestEquiJoinTypes:

    @pytest.mark.parametrize("pair", [("int", "float"), ("float", "int"),
                                      ("str", "date"), ("date", "date")])
    def test_one_family_pairs(self, pair):
        probe_spec(pair)

    @pytest.mark.parametrize("pair", [("int", "str"), ("date", "float")])
    def test_other_pairings_name_the_condition(self, pair):
        with pytest.raises(ValueError, match=(
                f"join condition A.k = B.k compares {pair[0]} with "
                f"{pair[1]}:")):
            probe_spec(pair)


@pytest.mark.parametrize("batch_size", [1, 64])
def test_an_int_key_against_its_string_spelling_raises(batch_size):
    """ROADMAP 1(a)'s probe: 10 ints joined to the same values spelt as
    strings (2 machines, hybrid) used to return no row, silently."""
    ints = [(i,) for i in range(10)]
    strings = [(str(i),) for i in range(10)]

    def run(b_type):
        A = Relation("A", Schema.of("k"), ints)
        B = Relation("B", Schema.of(f"k:{b_type}"), strings)
        spec = JoinSpec([RelationInfo("A", A.schema, 10),
                         RelationInfo("B", B.schema, 10)],
                        [EquiCondition(("A", "k"), ("B", "k"))])
        plan = PhysicalPlan(
            sources=[SourceComponent("A", A), SourceComponent("B", B)],
            joins=[JoinComponent("J", spec, machines=2, scheme="hybrid")])
        return run_plan(plan, options=ExecutionOptions(batch_size=batch_size))

    with pytest.raises(ValueError, match="relation 'B': column 'k' is "
                                         "declared int but row 0 holds str"):
        run("int")  # a wrong schema: the scan refuses the rows
    with pytest.raises(ValueError, match="join condition A.k = B.k"):
        run("str")  # correct schemas: the join refuses the pairing
