"""Multi-tenant serving layer: shared resident topologies behind
fan-out subscriptions.

- :mod:`repro.serving.fingerprint` -- structural plan canonicalization,
  the broker's dedupe key;
- :mod:`repro.serving.broker` -- :class:`QueryBroker`: admission
  control, refcounted topology lifecycle, per-tenant metrics;
- :mod:`repro.serving.server` -- :class:`DeltaServer`: asyncio TCP
  front-end pushing SSE-style delta frames.

Typical in-process use::

    broker = QueryBroker(options=ExecutionOptions(executor="processes"))
    session = repro.connect(catalog, broker=broker, tenant="alice")
    with session.stream("SELECT k, COUNT(*) FROM t GROUP BY k") as sub:
        for delta in sub:
            ...
"""

from repro.serving.broker import (
    AdmissionError,
    BrokerSubscription,
    QueryBroker,
    ResidentTopology,
)
from repro.serving.fingerprint import describe_plan, plan_fingerprint
from repro.serving.server import DeltaServer

__all__ = [
    "AdmissionError",
    "BrokerSubscription",
    "DeltaServer",
    "QueryBroker",
    "ResidentTopology",
    "describe_plan",
    "plan_fingerprint",
]
