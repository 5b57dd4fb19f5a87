"""Generated compensation scripts against a dict model.

The first slice of ROADMAP 1(c): ``hypothesis`` draws insert/retract
scripts over the R-S-T chain join, with

- duplicates (rows are drawn from a five-value pool, and some inserts
  are replayed mid-stream, then retracted at the end -- the shape of a
  compensated failure);
- retractions ahead of their insertion (traditional joins only: a
  DBToaster view refuses a delete it never saw an insert for);
- keys from the hazard set ``1`` / ``1.0`` / ``True``, which compare and
  hash equal and must therefore route, join and retract as one key.

Each script runs through the batch engine (``build_topology`` +
``LocalCluster``, what ``run_plan`` runs, with script spouts in place of
the stored relations) and inline ``stream_plan``, at ``batch_size``
{1, 7, 64} x columnar on/off x ``machines`` {1, 4}.  Every run must
reach the multiset a plain dict model computes; every streaming delta
feed must fold to its ``snapshot()``; and the compensated script must
reach the result of its clean run.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.core.options import ExecutionOptions
from repro.core.schema import Relation
from repro.engine.component import (
    AggComponent,
    JoinComponent,
    PhysicalPlan,
    SourceComponent,
)
from repro.engine.operators import count, total
from repro.engine.runner import build_topology
from repro.storm import LocalCluster
from repro.streaming import stream_plan
from tests.conftest import ScriptSource, reference_join, retract
from tests.test_retractions import rst_spec

#: ``1``, ``1.0`` and ``True`` are one key; 2 and 3 are others
VALUES = st.sampled_from([1, 1.0, True, 2, 3])
RELATIONS = ("R", "S", "T")


def make_plan(local_join, machines, aggregate):
    spec = rst_spec()
    sources = [SourceComponent(info.name, Relation(info.name, info.schema,
                                                   []))
               for info in spec.relations]
    aggregation = None
    if aggregate:  # COUNT, SUM(t) GROUP BY S.y
        aggregation = AggComponent("agg", group_positions=[2],
                                   aggregates=[count(), total(5)])
    return PhysicalPlan(
        sources=sources,
        joins=[JoinComponent("J", spec, machines=machines, scheme="hash",
                             local_join=local_join)],
        aggregation=aggregation)


def per_relation(script):
    """A script split by relation, each part in script order."""
    return {rel: [entry for entry in script if entry[0] == rel]
            for rel in RELATIONS}


def model(script, aggregate):
    """The expected result multiset: a dict per relation, a retraction
    of a row not held ignored (as a traditional join ignores it), then
    the naive join and a dict aggregation."""
    held = {rel: Counter() for rel in RELATIONS}
    for rel, row, *retracted in script:
        if not retracted:
            held[rel][row] += 1
        elif held[rel][row] > 0:
            held[rel][row] -= 1
    joined = reference_join(rst_spec(), {
        rel: list(rows.elements()) for rel, rows in held.items()})
    if not aggregate:
        return Counter(joined)
    groups = {}
    for row in joined:
        state = groups.setdefault(row[2], [0, 0])
        state[0] += 1
        state[1] += row[5]
    return Counter((key, n, s) for key, (n, s) in groups.items())


def run_batch(script, plan, batch_size, columnar):
    sources = {rel: ScriptSource(part)
               for rel, part in per_relation(script).items()}
    topology, _partitioners = build_topology(plan, sources=sources)
    cluster = LocalCluster(topology)
    cluster.run(
        options=ExecutionOptions(batch_size=batch_size,
                                 columnar=columnar).resolve())
    return Counter(cluster.task(plan.sink.name, 0).store)


def run_stream(script, plan, batch_size, columnar):
    sources = {rel: ScriptSource(part)
               for rel, part in per_relation(script).items()}
    query = stream_plan(plan, sources=sources, options=ExecutionOptions(
        executor="inline", batch_size=batch_size, columnar=columnar))
    folded = Counter()
    for delta in query:
        folded[delta.row] += delta.sign
    snapshot = Counter(query.snapshot())
    assert +folded == snapshot and all(n >= 0 for n in folded.values())
    return snapshot


@st.composite
def scripts(draw):
    """``(local join, aggregate, clean script, compensated script)``."""
    local_join = draw(st.sampled_from(["traditional", "dbtoaster"]))
    ops = draw(st.lists(st.tuples(st.sampled_from(RELATIONS),
                                  st.tuples(VALUES, VALUES), st.booleans()),
                        min_size=1, max_size=20))
    body, held, inserts = [], Counter(), []
    for rel, row, retracting in ops:
        if not retracting:
            inserts.append(len(body))
            body.append((rel, row))
            held[rel, row] += 1
        elif held[rel, row] > 0:  # the body retracts only what it holds
            body.append(retract(rel, row))
            held[rel, row] -= 1
    early = []
    if local_join == "traditional" and inserts:
        early = [retract(*body[i]) for i in draw(st.lists(
            st.sampled_from(inserts), max_size=2))]
    replayed = draw(st.lists(st.sampled_from(inserts), max_size=4,
                             unique=True)) if inserts else []
    compensated = list(early)
    for index, entry in enumerate(body):
        compensated.append(entry)
        if index in replayed:
            compensated.append(entry)  # delivered twice mid-stream
    compensated.extend(retract(*body[i]) for i in replayed)
    return local_join, draw(st.booleans()), early + body, compensated


@settings(max_examples=12, deadline=None)
@given(scripts())
def test_compensated_scripts_match_the_model_everywhere(drawn):
    local_join, aggregate, clean, compensated = drawn
    expected = model(compensated, aggregate)
    assert model(clean, aggregate) == expected
    clean_run = run_batch(clean, make_plan(local_join, 1, aggregate), 7,
                          False)
    assert clean_run == expected
    for machines in (1, 4):
        plan = make_plan(local_join, machines, aggregate)
        for batch_size in (1, 7, 64):
            for columnar in (False, True):
                assert run_batch(compensated, plan, batch_size,
                                 columnar) == expected
                assert run_stream(compensated, plan, batch_size,
                                  columnar) == expected
