"""Retraction-path coverage: signed rows end to end.

A failure that replays tuples is compensated by emitting matching
retractions -- rows whose entry in their batch's ``signs`` is -1.
``JoinBolt`` turns a retracted input row into deletes on the local join
and propagates the retracted output rows downstream with sign -1, the
aggregation consumes them with sign -1, and ``SinkBolt`` removes them
from the collected results.  After compensation, the final results must
be indistinguishable from a run that never saw the failure.
"""

from collections import Counter

import pytest

from repro.core.columnar import ColumnBatch, ColumnEmissions
from repro.core.predicates import EquiCondition, JoinSpec, RelationInfo
from repro.core.schema import Schema
from repro.engine.component import AggComponent, JoinComponent
from repro.engine.operators import count, total
from repro.engine.runner import AggBolt, JoinBolt, SinkBolt
from repro.engine.windows import WindowSpec
from repro.joins.dbtoaster import DBToasterJoin
from repro.joins.traditional import TraditionalJoin
from repro.partitioning.hash_hypercube import HashHypercube
from repro.storm import LocalCluster, TopologyBuilder
from repro.storm.groupings import HypercubeGrouping
from tests.conftest import (  # noqa: F401  (ScriptSpout: re-exported)
    ScriptSpout,
    interleaved_stream,
    make_rst_data,
    retract,
    retracting,
)

LOCAL_JOINS = {"dbtoaster": DBToasterJoin, "traditional": TraditionalJoin}


def rst_spec():
    return JoinSpec(
        [
            RelationInfo("R", Schema.of("x", "y"), 1000),
            RelationInfo("S", Schema.of("y", "z"), 1000),
            RelationInfo("T", Schema.of("z", "t"), 1000),
        ],
        [
            EquiCondition(("R", "y"), ("S", "y")),
            EquiCondition(("S", "z"), ("T", "z")),
        ],
    )


def signed(emissions):
    """Emissions as ``(stream, sign, row)`` triples."""
    if isinstance(emissions, ColumnEmissions):
        batch = emissions.batch
        signs = ([1] * len(batch) if batch.signs is None
                 else batch.signs.tolist())
        return [(emissions.stream, sign, row)
                for sign, row in zip(signs, batch.to_rows())]
    return [(stream, 1, row) for stream, row in emissions]


class TestSinkBoltRetraction:
    def test_retraction_removes_one_instance(self):
        store = []
        sink = SinkBolt(store)
        sink.execute_batch("J", "J", [(1, 2), (1, 2)])
        sink.execute_batch("J", "J", retracting([(1, 2)]))
        assert store == [(1, 2)]

    def test_retract_of_absent_row_is_ignored(self):
        store = []
        sink = SinkBolt(store)
        assert sink.execute_batch("J", "J", retracting([(9, 9)])) == []
        assert store == []

    def test_batched_retracts_match_per_tuple(self):
        rows = [(i,) for i in range(6)]
        per_tuple_store, batch_store = [], []
        per_tuple, batched = SinkBolt(per_tuple_store), SinkBolt(batch_store)
        for sink in (per_tuple, batched):
            sink.execute_batch("J", "J", rows + rows)
        for row in rows[:3] + [(99,)]:
            per_tuple.execute_batch("J", "J", retracting([row]))
        batched.execute_batch("J", "J", retracting(rows[:3] + [(99,)]))
        assert per_tuple_store == batch_store
        assert Counter(batch_store) == Counter(rows + rows[3:])

    def test_one_batch_applies_its_signs_in_order(self):
        store = []
        sink = SinkBolt(store)
        sink.execute_batch("J", "J", ColumnBatch.from_rows(
            [(1,), (1,), (2,), (2,)], signs=[1, -1, -1, 1]))
        assert store == [(2,)]  # -(2,) came ahead of +(2,): ignored


@pytest.mark.parametrize("local_join", sorted(LOCAL_JOINS))
class TestJoinBoltRetraction:
    def make_bolt(self, local_join, output_positions=None):
        spec = rst_spec()
        component = JoinComponent("J", spec, machines=1,
                                  output_positions=output_positions)
        return JoinBolt(component, lambda: LOCAL_JOINS[local_join](spec))

    def test_delete_propagates_with_sign_minus_one(self, local_join):
        bolt = self.make_bolt(local_join)
        bolt.execute_batch("R", "R", [(1, 2)])
        bolt.execute_batch("S", "S", [(2, 3)])
        inserted = bolt.execute_batch("T", "T", [(3, 4)])
        assert signed(inserted) == [("J", 1, (1, 2, 2, 3, 3, 4))]
        retracted = bolt.execute_batch("R", "R", retracting([(1, 2)]))
        assert signed(retracted) == [("J", -1, (1, 2, 2, 3, 3, 4))]

    def test_delete_respects_output_scheme(self, local_join):
        bolt = self.make_bolt(local_join, output_positions=[0, 5])
        bolt.execute_batch("R", "R", [(1, 2)])
        bolt.execute_batch("S", "S", [(2, 3)])
        bolt.execute_batch("T", "T", [(3, 4)])
        retracted = bolt.execute_batch("T", "T", retracting([(3, 4)]))
        assert signed(retracted) == [("J", -1, (1, 4))]

    def test_batched_retraction_matches_per_tuple(self, local_join):
        data = make_rst_data(seed=21, n=15)
        stream = interleaved_stream(data, seed=21)
        per_tuple = self.make_bolt(local_join)
        batched = self.make_bolt(local_join)
        for rel_name, row in stream:
            per_tuple.execute_batch(rel_name, rel_name, [row])
        for rel_name in ("R", "S", "T"):
            batched.execute_batch(rel_name, rel_name, data[rel_name])
        doomed = data["S"][:4]
        per_tuple_out = []
        for row in doomed:
            per_tuple_out.extend(signed(
                per_tuple.execute_batch("S", "S", retracting([row]))))
        batch_out = signed(batched.execute_batch("S", "S",
                                                 retracting(doomed)))
        assert Counter(batch_out) == Counter(per_tuple_out)
        assert all(sign == -1 for _stream, sign, _r in batch_out)
        assert per_tuple.state_size() == batched.state_size()

    def test_mixed_batch_emits_each_runs_output_in_order(self, local_join):
        bolt = self.make_bolt(local_join)
        bolt.execute_batch("S", "S", [(2, 3)])
        bolt.execute_batch("T", "T", [(3, 4)])
        out = bolt.execute_batch("R", "R", ColumnBatch.from_rows(
            [(1, 2), (1, 2), (5, 2)], signs=[1, -1, 1]))
        assert signed(out) == [("J", 1, (1, 2, 2, 3, 3, 4)),
                               ("J", -1, (1, 2, 2, 3, 3, 4)),
                               ("J", 1, (5, 2, 2, 3, 3, 4))]

    # -- windowed joins: a retraction removes the stored instance --------

    def window_spec(self):
        return JoinSpec(
            [RelationInfo("R", Schema.of("k", "t"), 100),
             RelationInfo("S", Schema.of("k", "t"), 100)],
            [EquiCondition(("R", "k"), ("S", "k"))])

    def make_windowed(self, local_join, window):
        spec = self.window_spec()
        component = JoinComponent("J", spec, machines=1, window=window)
        return JoinBolt(component, lambda: LOCAL_JOINS[local_join](spec))

    def test_retraction_into_a_sliding_window_is_applied_once(self,
                                                               local_join):
        bolt = self.make_windowed(
            local_join, WindowSpec.sliding(10, {"R": 1, "S": 1}))
        bolt.execute_batch("R", "R", [(1, 0)])
        assert bolt.execute_batch("R", "R", retracting([(1, 0)])) == []
        # R(1, 0) would expire here; it is no longer stored
        assert bolt.execute_batch("S", "S", [(2, 20)]) == []
        assert signed(bolt.execute_batch("R", "R", [(2, 21)])) == [
            ("J", 1, (2, 21, 2, 20))]
        assert bolt.state_size() == 2

    def test_retraction_after_a_tumbling_reset_is_a_no_op(self, local_join):
        bolt = self.make_windowed(
            local_join, WindowSpec.tumbling(10, {"R": 1, "S": 1}))
        bolt.execute_batch("R", "R", [(1, 0)])
        bolt.execute_batch("S", "S", [(2, 15)])  # the window resets
        assert bolt.execute_batch("R", "R", retracting([(1, 0)])) == []
        assert signed(bolt.execute_batch("R", "R", [(2, 16)])) == [
            ("J", 1, (2, 16, 2, 15))]

    def test_expiry_never_deletes_an_instance_a_retraction_took(self,
                                                                 local_join):
        """Arrival-order window of 2: the retracted first instance must
        not expire later and take the live second one with it."""
        bolt = self.make_windowed(local_join, WindowSpec.sliding(2))
        bolt.execute_batch("R", "R", [(1, 1)])             # arrival 0
        bolt.execute_batch("R", "R", retracting([(1, 1)]))
        bolt.execute_batch("R", "R", [(1, 1)])             # arrival 1
        assert signed(bolt.execute_batch("S", "S", [(1, 9)])) == [
            ("J", 1, (1, 1, 1, 9))]                        # arrival 2


def build_rst_topology(spec, emissions, local_join, machines=4,
                       aggregate=False):
    """ScriptSpout -> hypercube-partitioned joiners -> [agg] -> sink."""
    builder = TopologyBuilder()
    partitioner = HashHypercube.build(spec, machines, seed=3)
    builder.set_spout("feed", lambda i, p: ScriptSpout(emissions))
    join = JoinComponent("J", spec, machines=machines)
    declarer = builder.set_bolt(
        "J", lambda i, p: JoinBolt(join, lambda: LOCAL_JOINS[local_join](spec)),
        parallelism=machines)
    for rel_name in spec.relation_names:
        declarer.custom_grouping(
            "feed", HypercubeGrouping(partitioner, rel_name),
            streams=[rel_name])
    last = "J"
    if aggregate:
        agg = AggComponent("agg", group_positions=[1],
                           aggregates=[count(), total(5)])
        builder.set_bolt("agg", lambda i, p: AggBolt(agg)).global_grouping(
            "J", streams=["J"])
        last = "agg"
    results = []
    builder.set_bolt("sink", lambda i, p: SinkBolt(results)).global_grouping(
        last, streams=[last])
    return builder.build(), results


def faulty_script(data, seed):
    """The clean stream plus replayed tuples and their compensations.

    Mimics recovery after a partial failure: a handful of tuples of every
    relation are delivered twice mid-stream, and once the failure is
    detected the duplicates are retracted.
    """
    clean = [(rel, row) for rel, row in interleaved_stream(data, seed=seed)]
    replayed = [(rel, row) for rel, row in clean[::9]]
    script = list(clean)
    script[20:20] = replayed  # duplicates appear mid-stream
    script.extend(retract(rel, row) for rel, row in replayed)
    return script


@pytest.mark.parametrize("local_join", sorted(LOCAL_JOINS))
@pytest.mark.parametrize("batch_size", [1, 8])
@pytest.mark.parametrize("aggregate", [False, True])
def test_compensated_failure_matches_clean_run(local_join, batch_size,
                                               aggregate):
    spec = rst_spec()
    data = make_rst_data(seed=33, n=24)
    clean_script = list(interleaved_stream(data, seed=33))
    clean_topology, clean_results = build_rst_topology(
        spec, clean_script, local_join, aggregate=aggregate)
    LocalCluster(clean_topology).run(batch_size=batch_size)

    faulty_topology, faulty_results = build_rst_topology(
        spec, faulty_script(data, seed=33), local_join, aggregate=aggregate)
    LocalCluster(faulty_topology).run(batch_size=batch_size)

    assert Counter(faulty_results) == Counter(clean_results)
    assert clean_results  # the comparison is not vacuous
