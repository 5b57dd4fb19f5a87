"""QueryBroker: shared resident topologies behind a subscription API.

The multi-tenant serving layer's control plane.  Sessions hand the
broker a physical plan; the broker canonicalizes it to a structural
:func:`~repro.serving.fingerprint.plan_fingerprint` and either attaches
the caller to an already-running resident topology (same plan, same
data, same pipeline knobs) or admits a new one.  One topology thus
serves N subscribers -- the paper's "many clients watching the same
continuous query" deployment shape -- and the incremental work of
keeping its result current is paid once, not per client.

Isolation contract: subscribers never interfere.

- Every subscription gets its own bounded ring
  (:class:`~repro.streaming.deltas.Subscription`); a slow consumer is
  shed with a terminal
  :class:`~repro.streaming.deltas.SubscriberOverflow` (or, if it opted
  into ``on_overflow='block'``, throttles only itself via its ring --
  the shared pipeline keeps publishing to everyone else).
- Admission control caps resident topologies and subscribers per
  topology / per tenant; a refused subscribe raises
  :class:`AdmissionError` *before* touching any running query.
- Teardown is refcounted: each subscription's exactly-once detach hook
  (fired on shed, explicit detach, or end of query) decrements the
  resident's count; the last one out removes the topology from the
  registry and stops its driver.

Per-tenant accounting lands in a shared
:class:`~repro.storm.metrics.ServingMetrics` table.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Iterator, List, Optional

from repro.core.options import ExecutionOptions
from repro.engine.component import PhysicalPlan
from repro.serving.fingerprint import describe_plan, plan_fingerprint
from repro.storm.metrics import ServingMetrics
from repro.streaming.deltas import Delta, Subscription
from repro.streaming.runner import StreamingQuery, stream_plan
from repro.streaming.sources import PushSource


class AdmissionError(RuntimeError):
    """The broker refused a subscription before any resources were spent:
    topology registry full, topology at its subscriber cap, or the tenant
    at its quota.  Nothing was started; retry after detaching something.
    """


class ResidentTopology:
    """One running topology plus its broker-side bookkeeping."""

    def __init__(self, fingerprint: str, query: StreamingQuery,
                 description: str, options: ExecutionOptions):
        self.fingerprint = fingerprint
        self.query = query
        self.description = description
        self.options = options
        self.subscribers = 0       # guarded by the broker lock
        self.total_subscribers = 0  # monotonic, for introspection
        self.tenants: Dict[str, int] = {}
        self.driver: Optional[threading.Thread] = None
        self.error: Optional[str] = None

    @property
    def done(self) -> bool:
        return self.query.done

    def info(self) -> Dict[str, object]:
        return {
            "fingerprint": self.fingerprint,
            "subscribers": self.subscribers,
            "total_subscribers": self.total_subscribers,
            "tenants": dict(self.tenants),
            "done": self.done,
            "executor": self.options.executor,
            "batch_size": self.options.batch_size,
            "columnar": self.options.columnar,
        }


class BrokerSubscription:
    """A consumer's handle on a broker-managed delta feed.

    Iterate for live deltas (raises
    :class:`~repro.streaming.deltas.SubscriberOverflow` if shed);
    :meth:`snapshot` reads the shared topology's current result
    multiset; :meth:`detach` releases the seat (also on context-manager
    exit).  The underlying ring is this subscriber's alone -- nothing
    here can stall the topology or its co-subscribers.
    """

    def __init__(self, broker: "QueryBroker", resident: ResidentTopology,
                 subscription: Subscription):
        self.broker = broker
        self.resident = resident
        self.subscription = subscription

    @property
    def tenant(self) -> str:
        return self.subscription.tenant

    @property
    def fingerprint(self) -> str:
        return self.resident.fingerprint

    @property
    def closed(self) -> bool:
        return self.subscription.closed

    @property
    def overflowed(self) -> bool:
        return self.subscription.overflowed

    def pop(self, block: bool = False,
            timeout: Optional[float] = None) -> Optional[Delta]:
        return self.subscription.pop(block=block, timeout=timeout)

    def drain(self, block: bool = False,
              timeout: Optional[float] = None) -> List[Delta]:
        """Everything buffered, in order (see
        :meth:`~repro.streaming.deltas.Subscription.drain`)."""
        return self.subscription.drain(block=block, timeout=timeout)

    def __iter__(self) -> Iterator[Delta]:
        return iter(self.subscription)

    def snapshot(self) -> List[tuple]:
        """Current result multiset of the *shared* topology (sorted)."""
        return self.resident.query.snapshot()

    def stats(self) -> Dict[str, object]:
        """This subscriber's delivery state + the topology's progress.

        The unified stats surface: stream counters and checkpoint
        counters from :meth:`StreamingQuery.stats` plus this tenant's
        ``"serving"`` admission/shedding counters from the broker."""
        query = self.resident.query
        stats = query.stats()
        stats.update(
            tenant=self.tenant,
            fingerprint=self.fingerprint,
            backlog=self.subscription.backlog,
            published=self.subscription.published,
            delivered=self.subscription.delivered,
            overflowed=self.subscription.overflowed,
            watermark_age=query.cluster.stats.watermark_age(),
            subscribers=self.resident.subscribers,
            serving=self.broker.metrics.snapshot(self.tenant)[self.tenant],
        )
        return stats

    def detach(self):
        """Release this seat; the last one out stops the topology."""
        self.subscription.detach()

    def __enter__(self) -> "BrokerSubscription":
        return self

    def __exit__(self, *exc):
        self.detach()
        return False


class QueryBroker:
    """Registry of resident topologies, deduped by plan fingerprint.

    Args:
        max_topologies: resident (running) topologies at once.
        max_subscribers_per_topology: seats on one topology.
        max_subscribers_per_tenant: active seats per tenant across all
            topologies.
        options: the broker's execution default layer -- every
            subscription's options are
            ``broker.options.overlay(call options)`` before resolving,
            so a deployment can pin e.g. ``executor='processes'`` once.

    Raises:
        AdmissionError: from :meth:`subscribe` when any of the three
            limits would be exceeded (counted per tenant in
            :meth:`stats`; the pipeline itself is never affected).

    Example::

        import repro

        broker = repro.QueryBroker(max_topologies=2)
        catalog = None  # sessions share one broker, not one catalog
        a = repro.connect(broker=broker, tenant="alice")
        assert broker.topology_count == 0  # started on first stream()

    Two sessions issuing the same SQL share one resident pipeline:
    their subscriptions report equal ``fingerprint`` values and the
    broker runs a single :class:`~repro.streaming.StreamingCluster`
    for both (torn down when the last subscriber detaches).
    """

    #: squall-lint lock-discipline contract: registry and quota counters
    #: only move under the broker RLock
    GUARDED_BY = {
        "_registry": "_lock",
        "_tenant_active": "_lock",
    }

    def __init__(self, max_topologies: int = 8,
                 max_subscribers_per_topology: int = 1024,
                 max_subscribers_per_tenant: int = 1024,
                 options: Optional[ExecutionOptions] = None):
        self.max_topologies = max_topologies
        self.max_subscribers_per_topology = max_subscribers_per_topology
        self.max_subscribers_per_tenant = max_subscribers_per_tenant
        self.options = options or ExecutionOptions()
        self.metrics = ServingMetrics()
        self._lock = threading.RLock()
        self._registry: Dict[str, ResidentTopology] = {}
        self._tenant_active: Dict[str, int] = {}

    # -- introspection -----------------------------------------------------

    @property
    def topology_count(self) -> int:
        with self._lock:
            return len(self._registry)

    def topologies(self) -> List[Dict[str, object]]:
        with self._lock:
            return [resident.info() for resident in self._registry.values()]

    def resident(self, fingerprint: str) -> Optional[ResidentTopology]:
        with self._lock:
            return self._registry.get(fingerprint)

    def stats(self) -> Dict[str, object]:
        with self._lock:
            residents = list(self._registry.values())
        return {
            "topologies": [r.info() for r in residents],
            "tenants": self.metrics.snapshot(),
        }

    def collect(self) -> List[tuple]:
        """Export-time metric samples for a ``/metrics`` scrape.

        Per-tenant serving counters, then every sample of each resident
        topology's registry -- topology/stream/checkpoint counters with
        the ``partition_skew`` gauge and, when the resident runs
        observed, the observer's batch-latency histograms and
        queue-depth gauges -- under that topology's ``fingerprint``
        label."""
        samples = self.metrics.collect()
        with self._lock:
            residents = list(self._registry.values())
        for resident in residents:
            samples.extend(resident.query.cluster.registry.samples(
                fingerprint=resident.fingerprint[:12]))
        return samples

    # -- subscription lifecycle --------------------------------------------

    def subscribe_plan(self, plan: PhysicalPlan, *,
                       ts_positions: Optional[Dict[str, int]] = None,
                       options: Optional[ExecutionOptions] = None,
                       tenant: str = "default",
                       sources: Optional[Dict[str, PushSource]] = None,
                       ) -> BrokerSubscription:
        """Attach to the resident topology for ``plan`` (starting one if
        none is running).

        The fingerprint covers the plan structure, ``ts_positions`` and
        the resolved *pipeline-shaping* knobs; ``max_buffer`` /
        ``on_overflow`` are subscriber-side and differ freely between
        co-subscribers.  Caller-supplied push ``sources`` are part of the
        topology's identity (two queries over different live feeds must
        not share state), keyed by object.

        Raises :class:`AdmissionError` when a limit would be exceeded.
        """
        resolved = self.options.overlay(
            options or ExecutionOptions()).resolve(default_batch_size=64)
        fingerprint = plan_fingerprint(plan, ts_positions, resolved)
        if sources:
            fingerprint += "+" + ",".join(
                f"{name}@{id(source):x}" for name, source
                in sorted(sources.items()))
        with self._lock:
            resident = self._registry.get(fingerprint)
            if resident is None:
                if len(self._registry) >= self.max_topologies:
                    self.metrics.record(tenant, "refused")
                    raise AdmissionError(
                        f"topology registry full "
                        f"({self.max_topologies} resident); detach unused "
                        f"subscriptions or raise max_topologies")
                self._check_tenant(tenant)
                resident = self._admit(plan, fingerprint, ts_positions,
                                       resolved, sources)
            else:
                if resident.subscribers >= self.max_subscribers_per_topology:
                    self.metrics.record(tenant, "refused")
                    raise AdmissionError(
                        f"topology {fingerprint} at its subscriber cap "
                        f"({self.max_subscribers_per_topology})")
                self._check_tenant(tenant)
            resident.subscribers += 1
            resident.total_subscribers += 1
            resident.tenants[tenant] = resident.tenants.get(tenant, 0) + 1
            self._tenant_active[tenant] = (
                self._tenant_active.get(tenant, 0) + 1)
            self.metrics.record(tenant, "admitted")
            subscription = resident.query.cluster.subscribe(
                max_buffer=resolved.max_buffer,
                on_overflow=resolved.on_overflow,
                tenant=tenant,
                on_detach=self._release_hook(resident),
            )
        return BrokerSubscription(self, resident, subscription)

    def _check_tenant(self, tenant: str):  # squall-lint: holds=_lock
        if (self._tenant_active.get(tenant, 0)
                >= self.max_subscribers_per_tenant):
            self.metrics.record(tenant, "refused")
            raise AdmissionError(
                f"tenant {tenant!r} at its quota "
                f"({self.max_subscribers_per_tenant} active subscriptions)")

    def _admit(self, plan: PhysicalPlan,  # squall-lint: holds=_lock
               fingerprint: str,
               ts_positions: Optional[Dict[str, int]],
               resolved: ExecutionOptions,
               sources: Optional[Dict[str, PushSource]]) -> ResidentTopology:
        """Start a new resident topology (broker lock held)."""
        query = stream_plan(plan, ts_positions=ts_positions, options=resolved,
                            sources=sources)
        resident = ResidentTopology(
            fingerprint, query,
            describe_plan(plan, ts_positions, resolved), resolved)
        self._registry[fingerprint] = resident
        driver = threading.Thread(
            target=self._drive, args=(resident,),
            name=f"broker-{fingerprint[:8]}", daemon=True)
        resident.driver = driver
        driver.start()
        return resident

    def _drive(self, resident: ResidentTopology):
        """Per-topology driver: pump the query until exhaustion or stop.

        When the sources drain (or stop() is requested) the sink's
        ``finish`` closes every subscription, each detach hook fires,
        and the refcount walks itself to zero -- the registry entry
        disappears without anyone joining this thread."""
        try:
            resident.query.run()
        except Exception as exc:  # surfaced through subscriber stats
            # the cluster has already torn itself down: feeds closed (the
            # detach hooks ran the usual refcount teardown), workers gone
            resident.error = f"{type(exc).__name__}: {exc}"

    def _release_hook(self, resident: ResidentTopology
                      ) -> Callable[[Subscription], None]:
        """Exactly-once-per-subscription refcount release."""

        def release(subscription: Subscription):
            tenant = subscription.tenant
            stop = False
            with self._lock:
                resident.subscribers -= 1
                count = resident.tenants.get(tenant, 1) - 1
                if count:
                    resident.tenants[tenant] = count
                else:
                    resident.tenants.pop(tenant, None)
                active = self._tenant_active.get(tenant, 1) - 1
                if active:
                    self._tenant_active[tenant] = active
                else:
                    self._tenant_active.pop(tenant, None)
                if subscription.overflowed:
                    self.metrics.record(tenant, "shed")
                else:
                    self.metrics.record(tenant, "detached")
                # "published" counts deltas that entered the tenant's
                # rings: stable whether or not the consumer has drained
                # its buffered tail yet (rings stay poppable after close)
                self.metrics.record(
                    tenant, "published", subscription.published)
                if (resident.subscribers <= 0
                        and self._registry.get(
                            resident.fingerprint) is resident):
                    del self._registry[resident.fingerprint]
                    stop = True
            if stop:
                # non-blocking: this hook may run inside the topology's
                # own worker (a shed detected mid-fan-out) -- waiting for
                # the driver here would deadlock.  The driver notices the
                # flag at its next round and flushes on its way out.
                resident.query.stop(wait=False)

        return release

    def close(self, wait: bool = True, timeout: float = 10.0):
        """Stop every resident topology (subscriptions get their final
        deltas and close; detach hooks empty the registry)."""
        with self._lock:
            residents = list(self._registry.values())
        for resident in residents:
            resident.query.stop(wait=False)
        if wait:
            for resident in residents:
                driver = resident.driver
                if driver is not None and driver is not threading.current_thread():
                    driver.join(timeout)
