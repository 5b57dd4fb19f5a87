"""Reproduction of *Squall: Scalable Real-time Analytics* (VLDB 2016).

Squall is an online distributed query engine that runs complex analytics
using skew-resilient, adaptive operators.  This package re-implements the
full system in Python:

- :mod:`repro.core` -- schemas, expressions, join predicates, logical and
  physical query plans, the optimizer and online statistics.
- :mod:`repro.partitioning` -- the partitioning schemes: hash, 1-Bucket,
  M-Bucket, EWH, Hash-Hypercube, Random-Hypercube and the paper's novel
  Hybrid-Hypercube, plus the Adaptive 1-Bucket operator.
- :mod:`repro.joins` -- local join algorithms: traditional index-based
  online joins and the DBToaster-style higher-order incremental join.  A
  plan's join component runs one of them per machine of a hypercube
  scheme -- the paper's HyLD operator.
- :mod:`repro.storm` -- a faithful in-process simulator of the Storm
  substrate (spouts, bolts, stream groupings, topologies, metrics).
- :mod:`repro.engine` -- the online engine: components, relational
  operators, window semantics and the plan runner.
- :mod:`repro.sql` / :mod:`repro.functional` -- declarative and functional
  user interfaces.
- :mod:`repro.streaming` -- the continuous runtime: resident topologies
  over push sources, watermarks and incremental result deltas.
- :mod:`repro.serving` -- the multi-tenant serving layer: a
  :class:`~repro.serving.broker.QueryBroker` deduping identical plans
  onto shared resident topologies with bounded fan-out subscriptions.
- :mod:`repro.datasets` -- TPC-H, WebGraph, CrawlContent and Google
  cluster-monitoring workload generators.
- :mod:`repro.costmodel` -- the calibrated bottleneck cost model used to
  translate measured loads into runtime estimates.

The front door::

    session = repro.connect(catalog)                  # private queries
    session = repro.connect(catalog, broker=broker)   # shared serving
    result = session.execute("SELECT ...",
                             options=repro.ExecutionOptions(batch_size=64))
"""

from repro.core.options import ExecutionOptions
from repro.core.schema import Field, Schema, Relation
from repro.core.predicates import (
    EquiCondition,
    BandCondition,
    ThetaCondition,
    JoinSpec,
    RelationInfo,
)
from repro.streaming.deltas import Delta, SubscriberOverflow, Subscription

__version__ = "1.1.0"


def connect(catalog=None, broker=None, execution=None, tenant="default",
            options=None):
    """Open a :class:`~repro.sql.catalog.SqlSession` -- the package's
    front door.

    Args:
        catalog: the relation catalog to query against (a fresh, empty
            one is created if omitted; register relations with
            ``session.register``).
        broker: a shared :class:`~repro.serving.broker.QueryBroker`.
            When set, ``session.stream(...)`` attaches to shared
            resident topologies (deduped by plan fingerprint across
            sessions) instead of running private ones.
        execution: the session's default :class:`ExecutionOptions`
            layer; per-call ``options=`` overlays it
            (broker < session < call).
        tenant: the tenant name admission control and the per-tenant
            serving counters attribute this session's subscriptions to.
        options: optimizer configuration
            (:class:`~repro.core.optimizer.OptimizerOptions`) --
            machines, partitioning scheme, window clauses.

    Returns:
        A :class:`~repro.sql.catalog.SqlSession` exposing
        ``register`` / ``execute`` / ``stream`` / ``plan``.

    Example::

        import repro
        from repro.core.schema import Relation, Schema

        session = repro.connect()
        session.register(Relation("t", Schema.of("k", "v"),
                                  [(1, 10), (1, 20), (2, 30)]))
        result = session.execute(
            "SELECT t.k, COUNT(*) FROM t GROUP BY t.k",
            options=repro.ExecutionOptions(batch_size=64))
        assert sorted(result.results) == [(1, 2), (2, 1)]
    """
    from repro.sql.catalog import SqlSession

    return SqlSession(catalog, options=options, execution=execution,
                      broker=broker, tenant=tenant)


def __getattr__(name):
    # QueryBroker et al. live behind a lazy hook so `import repro` stays
    # light; `repro.QueryBroker` still works for interactive use
    if name in ("QueryBroker", "AdmissionError", "BrokerSubscription",
                "DeltaServer"):
        import repro.serving as serving

        return getattr(serving, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Field",
    "Schema",
    "Relation",
    "EquiCondition",
    "BandCondition",
    "ThetaCondition",
    "JoinSpec",
    "RelationInfo",
    "ExecutionOptions",
    "Delta",
    "Subscription",
    "SubscriberOverflow",
    "connect",
    "QueryBroker",
    "AdmissionError",
    "BrokerSubscription",
    "DeltaServer",
    "__version__",
]
