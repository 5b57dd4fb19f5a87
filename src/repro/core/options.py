"""ExecutionOptions: the one options object every front-end accepts.

``run_plan``, ``stream_plan``, ``SqlSession.execute/stream``, the
functional terminals and ``QueryBroker.subscribe_plan`` take their
execution knobs -- ``batch_size``, ``executor``, ``parallelism``,
``columnar``, ... -- as one ``options=ExecutionOptions(...)`` argument
and in no other spelling.  :class:`ExecutionOptions` is the single
owner of those knobs and of their defaulting rules:

- every field defaults to ``None`` = "not set";
- :meth:`ExecutionOptions.resolve` fills the defaults *once*, including
  the ``columnar``-on-at-``batch_size >= COLUMNAR_MIN_BATCH`` rule, so
  batch and streaming execution resolve identically;
- :meth:`ExecutionOptions.overlay` layers per-call options over
  session / context / broker defaults.

The serving layer (:mod:`repro.serving`) adds two subscriber-side knobs:
``max_buffer`` (per-subscriber delta ring capacity) and ``on_overflow``
(``'shed'`` drops the slow subscriber with a terminal
:class:`~repro.streaming.deltas.SubscriberOverflow`; ``'block'`` applies
producer backpressure instead).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.core.columnar import COLUMNAR_MIN_BATCH

#: default per-subscriber delta ring capacity in the serving layer
DEFAULT_MAX_BUFFER = 4096

#: what happens when a subscriber's delta ring fills up
OVERFLOW_POLICIES = ("shed", "block")

#: observability levels: no observer at all / instruments only /
#: instruments plus per-micro-batch span records (see repro.obs)
OBSERVE_LEVELS = ("off", "metrics", "trace")

#: execution backends, batch and streaming alike: the calling thread's
#: own loop / forked shared-nothing worker processes
EXECUTOR_NAMES = ("inline", "processes")


@dataclass(frozen=True)
class ExecutionOptions:
    """How (not *what*) a query executes, across every front-end.

    All fields default to ``None`` ("not set"); :meth:`resolve` applies
    the engine-wide defaults and raises ``ValueError`` on out-of-range
    values (``batch_size < 1``, non-positive ``rate``, unknown
    ``executor`` or ``on_overflow``, ...).  Instances are frozen --
    derive variants with :meth:`replace` (field updates) /
    :meth:`overlay` (layering: the overlay's set fields win).  Every
    front-end accepts ``options=``:
    ``run_plan``, ``SqlSession.execute`` / ``stream``, the functional
    API's ``.execute()`` / ``.stream()``, ``stream_plan`` and
    ``QueryBroker.subscribe``.

    Example::

        from repro.core.options import ExecutionOptions

        base = ExecutionOptions(batch_size=64, executor="processes")
        tuned = base.replace(parallelism=4)
        assert tuned.batch_size == 64 and tuned.parallelism == 4
        resolved = tuned.resolve()
        assert resolved.columnar  # defaulted on at batch_size >= 64
    """

    #: micro-batch granularity; None = the front-end default (1 for the
    #: finite engine's golden per-tuple path, 64 for streaming)
    batch_size: Optional[int] = None
    #: execution backend: 'inline' | 'processes' (forked resident
    #: workers; checkpointed for streaming); None = 'inline'
    executor: Optional[str] = None
    #: shared-nothing workers for executor='processes'; None = auto
    parallelism: Optional[int] = None
    #: vectorized columnar path; None = on at batch_size >= 64
    columnar: Optional[bool] = None
    #: replayed rows/second per streaming source; None = unthrottled
    rate: Optional[float] = None
    #: per-subscriber delta ring capacity (serving); None = 4096
    max_buffer: Optional[int] = None
    #: slow-subscriber policy: 'shed' (terminal SubscriberOverflow,
    #: never stalls the pipeline) | 'block' (producer backpressure)
    on_overflow: Optional[str] = None
    #: pump rounds between operator-state checkpoints (streaming
    #: executor='processes' only); None = the executor default (8)
    checkpoint_interval: Optional[int] = None
    #: observability level: 'off' (no observer, hot paths untouched) |
    #: 'metrics' (latency histograms, row counters, skew/queue gauges) |
    #: 'trace' (metrics plus batch-level span records); None = 'off'
    observe: Optional[str] = None

    def resolve(self, default_batch_size: int = 1) -> "ExecutionOptions":
        """Fill every unset knob with its engine-wide default.

        This method is the *single* owner of the knob-defaulting rules;
        in particular ``columnar=None`` resolves to
        ``batch_size >= COLUMNAR_MIN_BATCH`` for batch and streaming
        execution alike (the batch engine and ``stream_plan`` used to
        disagree here).  ``parallelism`` stays ``None`` when unset --
        "let the backend pick" is itself the default.
        """
        batch_size = (default_batch_size if self.batch_size is None
                      else self.batch_size)
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        executor = self.executor or "inline"
        if executor not in EXECUTOR_NAMES:
            removed = (
                "; the 'threads' backend is gone (its workers shared one "
                "GIL): use 'inline' on one core or 'processes' across "
                "cores" if executor == "threads" else "")
            raise ValueError(
                f"unknown executor {executor!r}; choose one of "
                f"{EXECUTOR_NAMES}{removed}")
        if self.parallelism is not None and self.parallelism < 1:
            raise ValueError(
                f"parallelism must be >= 1, got {self.parallelism}")
        if self.rate is not None and self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.checkpoint_interval is not None and self.checkpoint_interval < 1:
            raise ValueError(
                f"checkpoint_interval must be >= 1, "
                f"got {self.checkpoint_interval}")
        columnar = self.columnar
        if columnar is None:
            columnar = batch_size >= COLUMNAR_MIN_BATCH
        max_buffer = (DEFAULT_MAX_BUFFER if self.max_buffer is None
                      else self.max_buffer)
        if max_buffer < 1:
            raise ValueError(f"max_buffer must be >= 1, got {max_buffer}")
        on_overflow = self.on_overflow or "shed"
        if on_overflow not in OVERFLOW_POLICIES:
            raise ValueError(
                f"on_overflow must be one of {OVERFLOW_POLICIES}, "
                f"got {on_overflow!r}")
        observe = self.observe or "off"
        if observe not in OBSERVE_LEVELS:
            raise ValueError(
                f"observe must be one of {OBSERVE_LEVELS}, got {observe!r}")
        return ExecutionOptions(
            batch_size=batch_size,
            executor=executor,
            parallelism=self.parallelism,
            columnar=bool(columnar),
            rate=self.rate,
            max_buffer=max_buffer,
            on_overflow=on_overflow,
            checkpoint_interval=self.checkpoint_interval,
            observe=observe,
        )

    def replace(self, **changes) -> "ExecutionOptions":
        """A copy with the given fields changed."""
        return dataclasses.replace(self, **changes)

    def overlay(self, other: Optional["ExecutionOptions"]) -> "ExecutionOptions":
        """A copy where every field *set* on ``other`` wins.

        Layers per-call options over session/broker defaults: unset
        (``None``) fields of ``other`` fall through to ``self``."""
        if other is None:
            return self
        updates = {
            field.name: value
            for field in dataclasses.fields(other)
            if (value := getattr(other, field.name)) is not None
        }
        return dataclasses.replace(self, **updates) if updates else self
