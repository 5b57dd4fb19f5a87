"""Placement as a pure function of a row.

A grouping places a row by its values -- a random hypercube dimension
hashes the whole row and its occurrence number, which the emitting task
counts -- and only the shuffle by its stream position, ``(edge, emitting
task, the row's index among that task's emissions on its stream)``;
nothing depends on call order.  Checked end to end:

- placement does not depend on how the rows are batched, on which
  executor schedule routes them, or on the row/columnar layout;
- a few rows' random cells are pinned, so a change of the row hash
  fails here instead of silently moving state between releases;
- copies of one row spread over a random dimension as distinct rows do;
- a streaming ``processes`` run that loses a worker and replays its
  change log ends with every task's state byte-identical to a crash-free
  run's, on random schemes as on hash ones.
"""

from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.columnar import ColumnBatch, ColumnEmissions
from repro.core.options import ExecutionOptions
from repro.core.predicates import EquiCondition, JoinSpec, RelationInfo
from repro.core.schema import Schema
from repro.partitioning.hash_hypercube import HashHypercube
from repro.partitioning.hybrid_hypercube import HybridHypercube
from repro.partitioning.hypercube import (
    RANDOM,
    DimensionSpec,
    HypercubeConfig,
    HypercubePartitioner,
)
from repro.partitioning.random_hypercube import RandomHypercube
from repro.partitioning.two_way import OneBucket
from repro.storm import (
    Bolt,
    FieldsGrouping,
    KeyMappedGrouping,
    LocalCluster,
    ShuffleGrouping,
    Spout,
    TopologyBuilder,
)
from repro.storm.executor import ResidentWorkerPool
from repro.storm.failures import FaultInjector
from repro.storm.groupings import HypercubeGrouping
from repro.storm.kernel import count_copies
from repro.streaming import stream_plan
from repro.util import round_robin_assignment
from tests.batching_plans import plan_join_only, plan_two_joins
from tests.conftest import retracting

MACHINES = 8


def chain_spec():
    """R(x,y) >< S(y,z) >< T(z,t) with z skewed: the hybrid scheme gives
    T a random dimension next to a replicated hash one."""
    skewed = dict(skewed=frozenset({"z"}), top_freq={"z": 0.5})
    return JoinSpec(
        [RelationInfo("R", Schema.of("x", "y"), 1000),
         RelationInfo("S", Schema.of("y", "z"), 1000, **skewed),
         RelationInfo("T", Schema.of("z", "t"), 1000, **skewed)],
        [EquiCondition(("R", "y"), ("S", "y")),
         EquiCondition(("S", "z"), ("T", "z"))],
    )


#: name -> grouping factory; each run builds its own, as a topology does
GROUPINGS = {
    "shuffle": ShuffleGrouping,
    "fields": lambda: FieldsGrouping([0]),
    "key-mapped": lambda: KeyMappedGrouping(
        0, round_robin_assignment(range(5), MACHINES)),
    "hash-hypercube": lambda: HypercubeGrouping(
        HashHypercube.build(chain_spec(), MACHINES, seed=3), "S"),
    "random-hypercube": lambda: HypercubeGrouping(
        RandomHypercube.build(chain_spec(), MACHINES, seed=3), "S"),
    "hybrid-hypercube": lambda: HypercubeGrouping(
        HybridHypercube.build(chain_spec(), MACHINES, seed=3), "T"),
}


class InterleavedSpout(Spout):
    """Emits its share of a two-stream sequence (task ``i`` of ``p``
    takes every ``p``-th emission).  With ``columnar`` on, a pull stops
    where the stream changes and travels as one ColumnBatch."""

    def __init__(self, emissions):
        self.emissions = emissions
        self.columnar = False

    def open(self, task_index, parallelism):
        self.emissions = self.emissions[task_index::parallelism]

    def has_more(self):
        return bool(self.emissions)

    def next_batch(self, max_rows):
        pulled = self.emissions[:max_rows]
        if self.columnar and pulled:
            stream = pulled[0][0]
            same = next((i for i, (s, _row) in enumerate(pulled)
                         if s != stream), len(pulled))
            pulled = pulled[:same]
        self.emissions = self.emissions[len(pulled):]
        if self.columnar and pulled:
            return ColumnEmissions(stream, ColumnBatch.from_rows(
                [row for _stream, row in pulled]))
        return pulled


class Collector(Bolt):
    def __init__(self):
        self.seen = Counter()

    def execute_batch(self, source, stream, rows):
        if isinstance(rows, ColumnBatch):
            rows = rows.to_rows()
        self.seen.update((stream, tuple(row)) for row in rows)
        return []


def placement(grouping_name, emissions, spout_tasks, batch_size, columnar):
    builder = TopologyBuilder()
    builder.set_spout("src", lambda i, p: InterleavedSpout(emissions),
                      parallelism=spout_tasks)
    builder.set_bolt("dst", lambda i, p: Collector(), parallelism=MACHINES) \
        .custom_grouping("src", GROUPINGS[grouping_name]())
    cluster = LocalCluster(builder.build())
    cluster.run(
        options=ExecutionOptions(batch_size=batch_size,
                                 columnar=columnar).resolve())
    return [cluster.task("dst", index).seen for index in range(MACHINES)]


@settings(max_examples=12, deadline=None)
@given(
    streams=st.lists(st.sampled_from("ab"), min_size=1, max_size=150),
    keys=st.lists(st.integers(0, 6), min_size=1, max_size=20),
    spout_tasks=st.integers(1, 3),
)
@pytest.mark.parametrize("grouping_name", sorted(GROUPINGS))
def test_placement_is_batch_size_invariant(grouping_name, streams, keys,
                                           spout_tasks):
    """Every ``(stream, row) -> task`` placement is the same whether a
    spout task's rows are routed one by one (the depth-first schedule),
    in batches of 7 or 64 (rounds), or all in one batch -- as row lists
    or as ColumnBatches."""
    emissions = [(stream, (keys[index % len(keys)], index))
                 for index, stream in enumerate(streams)]
    expected = placement(grouping_name, emissions, spout_tasks, 1, False)
    assert sum(sum(seen.values()) for seen in expected) >= len(emissions)
    for batch_size in (7, 64, len(emissions) + 1):
        for columnar in (False, True):
            assert placement(grouping_name, emissions, spout_tasks,
                             batch_size, columnar) == expected, \
                (batch_size, columnar)


@pytest.mark.parametrize("second", [
    lambda key: key, lambda key: key / 4, lambda key: f"s{key}",
], ids=["int", "float", "str"])
def test_the_row_and_batch_paths_place_random_dimensions_alike(second):
    partitioner = RandomHypercube.build(chain_spec(), MACHINES, seed=3)
    rows = [(key % 5, second(key)) for key in range(200)]
    matrix = partitioner.destination_matrix("S", ColumnBatch.from_rows(rows))
    assert matrix.tolist() == [partitioner.destinations("S", row)
                               for row in rows]


@pytest.mark.parametrize("route", [
    lambda: ShuffleGrouping().targets_batch("s", [(1,)], 4),
], ids=["shuffle"])
def test_content_insensitive_routing_needs_a_position(route):
    """Without a position there is nothing to place the row by: no
    fallback, no silent default."""
    with pytest.raises(ValueError, match="stream position"):
        route()


#: (partitioner, relation, row, machines): random cells pinned across
#: releases -- state checkpointed by one release is restored by the next
PINNED = [
    (lambda: RandomHypercube.build(chain_spec(), MACHINES, seed=3), "S",
     (1, 2), [2, 3, 6, 7]),
    (lambda: RandomHypercube.build(chain_spec(), MACHINES, seed=3), "S",
     (1.5, "x"), [0, 1, 4, 5]),
    (lambda: RandomHypercube.build(chain_spec(), MACHINES, seed=3), "T",
     (7, None), [1, 3, 5, 7]),
    (lambda: HybridHypercube.build(chain_spec(), MACHINES, seed=3), "T",
     (2, 3), [0, 2, 4, 6]),
    (lambda: OneBucket("R", "S", 8, seed=0), "R", (10, 20), [4, 5, 6, 7]),
    (lambda: OneBucket("R", "S", 8, seed=0), "S", ("a", 0.25), [3, 7]),
]


@pytest.mark.parametrize("make,rel,row,machines", PINNED)
def test_a_rows_random_cells_are_pinned(make, rel, row, machines):
    partitioner = make()
    assert partitioner.destinations(rel, row) == machines
    matrix = partitioner.destination_matrix(rel, ColumnBatch.from_rows([row]))
    assert matrix is None or matrix.tolist() == [machines]


def test_copies_of_one_row_are_set_apart_by_their_occurrence_number():
    """The first copy of a row keeps the row's cells; later copies reach
    the cells distinct rows reach, by the row and the column path alike."""
    partitioner = RandomHypercube.build(chain_spec(), MACHINES, seed=3)
    numbers = list(range(400))
    matrix = partitioner.destination_matrix(
        "S", ColumnBatch.from_rows([(4, 4)] * 400), numbers)
    assert matrix.tolist() == [partitioner.destinations("S", (4, 4), number)
                               for number in numbers]
    assert matrix[0].tolist() == partitioner.destinations("S", (4, 4))
    assert {tuple(cells) for cells in matrix.tolist()} == {
        tuple(partitioner.destinations("S", (4, key))) for key in numbers}


def test_a_task_numbers_the_copies_it_emits():
    """Each copy of a row on a stream takes the next occurrence number, a
    retraction the latest one; rows and a signed batch count alike, and
    a row spelled with an equal value of another type is the same row."""
    copies = {}
    assert count_copies(copies, [("a", (1,)), ("a", (1,)), ("b", (1,)),
                                 ("a", (2,)), ("a", (1,))]) == [0, 1, 0, 0, 2]
    signed = ColumnEmissions("a", ColumnBatch.from_rows(
        [(1,), (1,), (1.0,), (2,)], signs=[-1, -1, 1, -1]))
    assert count_copies(copies, signed) == [2, 1, 1, 0]
    assert copies == {("a", (1,)): 2, ("b", (1,)): 1}
    assert count_copies(copies, ColumnEmissions("b", retracting([(1,), (1,)]))) == [0, 0]
    assert copies == {("a", (1,)): 2}  # an unmatched retraction counts 0


@pytest.mark.parametrize("columnar", [False, True], ids=["rows", "columnar"])
@pytest.mark.parametrize("batch_size", [1, 8, 64])
@pytest.mark.parametrize("executor", ["inline", "processes"])
def test_a_relation_of_copies_spreads_as_distinct_rows_do(executor,
                                                          batch_size,
                                                          columnar):
    """A relation projected down to one hot key -- every row a copy --
    reaches the machines its copies' occurrence numbers place it on,
    whatever the batching, layout or executor: 1-Bucket keeps it off a
    single matrix row."""
    bucket = OneBucket("R", "S", MACHINES, seed=3)
    emissions = [("R", (7,))] * 200
    builder = TopologyBuilder()
    builder.set_spout("src", lambda i, p: InterleavedSpout(emissions))
    builder.set_bolt("dst", lambda i, p: Collector(), parallelism=MACHINES) \
        .custom_grouping("src", HypercubeGrouping(bucket, "R"))
    cluster = LocalCluster(builder.build())
    cluster.run(options=ExecutionOptions(
        executor=executor, parallelism=2, batch_size=batch_size,
        columnar=columnar).resolve())
    loads = Counter({index: sum(cluster.task("dst", index).seen.values())
                     for index in range(MACHINES)})
    assert loads == Counter(machine for number in range(200)
                            for machine in bucket.destinations("R", (7,),
                                                               number))
    assert len(loads) == MACHINES


def two_random_dims():
    """Two random dimensions of one relation S."""
    return (DimensionSpec("a", RANDOM, frozenset({("S", "y")})),
            DimensionSpec("b", RANDOM, frozenset({("S", "z")})))


def test_one_machine_and_a_random_dimension_of_size_one_place_every_row():
    rows = [(key, key * 3) for key in range(50)]
    single = RandomHypercube.build(chain_spec(), 1, seed=3)
    for rel in ("R", "S", "T"):
        assert {tuple(single.destinations(rel, row)) for row in rows} == \
            {(0,)}
    # the size-1 random dimension pins every row's coordinate to 0; the
    # size-4 one spreads them
    partitioner = HypercubePartitioner(
        HypercubeConfig(two_random_dims(), (1, 4), 4, 0.0, 0.0),
        {"S": Schema.of("y", "z")}, seed=3)
    matrix = partitioner.destination_matrix("S", ColumnBatch.from_rows(rows))
    assert set(matrix.ravel().tolist()) == {0, 1, 2, 3}
    bucket = OneBucket("R", "S", 4, shape=(1, 4))
    for row in rows:
        assert bucket.destinations("R", row) == [0, 1, 2, 3]
        assert len(bucket.destinations("S", row)) == 1


def test_random_draws_are_uniform():
    partitioner = RandomHypercube.build(chain_spec(), MACHINES, seed=3)
    matrix = partitioner.destination_matrix(
        "S", ColumnBatch.from_rows([(0, i) for i in range(12000)]))
    loads = Counter(matrix.ravel().tolist())
    assert len(loads) == MACHINES
    assert max(loads.values()) / min(loads.values()) < 1.1


#: name -> (rows, their occurrence numbers): distinct rows of three
#: column types, and 4,000 copies of one row
ROW_SETS = {
    "sequential": ([(0, i) for i in range(4000)], None),
    "strings": ([(i % 7, f"k{i}") for i in range(4000)], None),
    "floats": ([(i / 8, i % 3) for i in range(4000)], None),
    "copies": ([(5, 5)] * 4000, list(range(4000))),
}


@pytest.mark.parametrize("rows_name", sorted(ROW_SETS))
@pytest.mark.parametrize("sizes,bound", [((2, 2), 1.15), ((4, 4), 1.4)],
                         ids=["2x2", "4x4"])
def test_two_random_dimensions_of_one_relation_draw_independently(
        sizes, bound, rows_name):
    """A relation owning two random dimensions reaches every cell of both
    evenly; draws correlated across dimensions (a linear hash, whose
    parity alternates alike on every dimension) would leave cells empty.
    The bound widens with the grid: 4,000 rows give a 4x4 cell 250 rows,
    whose spread is twice a 2x2 cell's relative to its mean."""
    rows, occurrences = ROW_SETS[rows_name]
    cells = sizes[0] * sizes[1]
    partitioner = HypercubePartitioner(
        HypercubeConfig(two_random_dims(), sizes, cells, 0.0, 0.0),
        {"S": Schema.of("y", "z")}, seed=3)
    matrix = partitioner.destination_matrix(
        "S", ColumnBatch.from_rows(rows), occurrences)
    loads = Counter(matrix.ravel().tolist())
    assert sorted(loads) == list(range(cells))
    assert max(loads.values()) / min(loads.values()) < bound


# -- replay ----------------------------------------------------------------


def with_scheme(builder, scheme):
    plan = builder()
    return replace(plan, joins=[replace(join, scheme=scheme)
                                for join in plan.joins])


def final_digests(monkeypatch, plan, fault_injector=None):
    """Per-task digests of the run's last (pre-flush) checkpoint."""
    manifests = []
    original = ResidentWorkerPool.checkpoint

    def recorded(pool, known):
        snapshots = original(pool, known)
        manifests.append({key: digest
                          for key, (digest, _blob) in snapshots.items()})
        return snapshots

    monkeypatch.setattr(ResidentWorkerPool, "checkpoint", recorded)
    query = stream_plan(plan, options=ExecutionOptions(
        executor="processes", batch_size=16, checkpoint_interval=2,
        parallelism=2), fault_injector=fault_injector).run()
    return manifests[-1], query


@pytest.mark.parametrize("after_batches", [5, 7])
@pytest.mark.parametrize("builder,joiner", [
    (plan_join_only, "J"), (plan_two_joins, "J1")], ids=["one", "two"])
@pytest.mark.parametrize("scheme", ["random", "hash"])
def test_replay_places_every_row_where_the_crash_free_run_did(
        monkeypatch, builder, joiner, scheme, after_batches):
    """A joiner killed mid-stream is restored and the change log
    replayed; every task's state then matches a crash-free run's, byte
    for byte.  The hash plan is the control: it never depended on call
    order.  The stream is one pump round; the kills after five and seven
    routed batches land in different deliveries of its level pass, and
    the recovered run replays the logged round as one level pass, so its
    tasks execute the crash-free run's batches."""
    crash_free, clean = final_digests(monkeypatch,
                                      with_scheme(builder, scheme))
    recovered, query = final_digests(
        monkeypatch, with_scheme(builder, scheme),
        FaultInjector().kill_worker_of(joiner, 0,
                                       after_batches=after_batches))
    assert query.checkpoint_stats()["recoveries"] >= 1
    assert query.snapshot() == clean.snapshot()
    assert sorted(recovered) == sorted(crash_free)
    assert {key for key in crash_free
            if recovered[key] != crash_free[key]} == set()
