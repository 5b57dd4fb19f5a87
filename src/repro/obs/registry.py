"""Typed metric instruments and the per-topology :class:`MetricsRegistry`.

The registry is the single rendezvous point for every number a topology
can report.  Each cluster creates exactly one with itself: the counter
classes of :mod:`repro.storm.metrics` (``TopologyMetrics``,
``StreamMetrics``, ``CheckpointMetrics``) register into it as
*collectors* — zero-cost callables sampled only at export time, so
their hot recording paths stay exactly as cheap as before — and an
:class:`~repro.obs.observer.Observer`, when the run has one, creates its
typed instruments (:class:`Counter`, :class:`Gauge`,
:class:`Histogram`, deduplicated by ``(name, labels)``) in that same
registry.  Whoever exports several topologies side by side (the serving
broker) tells them apart by labelling each registry's samples, not by
assembling samples of its own.

A sample is the 4-tuple ``(name, labels, value, kind)``; the Prometheus
renderer in :mod:`repro.obs.prometheus` and the JSON shape of
:func:`as_dict` both consume it.
"""

from __future__ import annotations

import bisect
import threading
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: one exported measurement: (metric name, labels, value, instrument kind)
Sample = Tuple[str, Dict[str, str], float, str]

#: fixed exponential latency bucket upper bounds, in seconds.  A shared,
#: static layout keeps histograms mergeable across tasks, workers, and
#: processes without renegotiation (the classic Prometheus trade-off).
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> _LabelKey:
    return tuple(sorted(labels.items()))


def as_dict(samples: Iterable[Sample]) -> Dict[str, float]:
    """Flat ``name{label="v",...}`` -> value mapping (JSON export)."""
    out: Dict[str, float] = {}
    for name, labels, value, _kind in samples:
        if labels:
            rendered = ",".join(
                f'{k}="{v}"' for k, v in sorted(labels.items()))
            out[f"{name}{{{rendered}}}"] = value
        else:
            out[name] = value
    return out


class Counter:
    """A monotonically increasing count (rows routed, batches run)."""

    kind = "counter"

    GUARDED_BY = {"value": "_lock"}

    def __init__(self, name: str, labels: Dict[str, str]):
        self.name = name
        self.labels = dict(labels)
        self._lock = threading.Lock()
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge instead")
        with self._lock:
            self.value += amount

    def read(self) -> float:
        with self._lock:
            return self.value

    def samples(self) -> List[Sample]:
        return [(self.name, dict(self.labels), self.read(), self.kind)]


class Gauge:
    """A point-in-time level (queue depth, skew degree)."""

    kind = "gauge"

    GUARDED_BY = {"value": "_lock"}

    def __init__(self, name: str, labels: Dict[str, str]):
        self.name = name
        self.labels = dict(labels)
        self._lock = threading.Lock()
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def set_max(self, value: float) -> None:
        """Keep the high-water mark — handy for queue depths."""
        with self._lock:
            if value > self.value:
                self.value = float(value)

    def read(self) -> float:
        with self._lock:
            return self.value

    def samples(self) -> List[Sample]:
        return [(self.name, dict(self.labels), self.read(), self.kind)]


class Histogram:
    """Fixed-bucket latency histogram with percentile estimation.

    ``bounds`` are the finite bucket upper bounds; an implicit +inf
    bucket catches overflow.  ``percentile`` answers with the upper
    bound of the bucket where the cumulative count crosses the rank —
    a deliberate, conservative over-estimate, which is the standard
    behaviour for fixed-layout histograms (and what makes merged
    worker histograms meaningful without shipping raw samples).
    """

    kind = "histogram"

    GUARDED_BY = {
        "counts": "_lock",
        "total": "_lock",
        "count": "_lock",
    }

    def __init__(self, name: str, labels: Dict[str, str],
                 bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram bounds must be strictly increasing")
        self.name = name
        self.labels = dict(labels)
        self.bounds = tuple(float(b) for b in bounds)
        self._lock = threading.Lock()
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self.counts[index] += 1
            self.total += value
            self.count += 1

    def merge(self, counts: Sequence[int], total: float, count: int) -> None:
        """Fold another histogram's ``snapshot()`` in (same bounds)."""
        if len(counts) != len(self.bounds) + 1:
            raise ValueError("cannot merge histograms with different layouts")
        with self._lock:
            for index, bucket in enumerate(counts):
                self.counts[index] += bucket
            self.total += total
            self.count += count

    def snapshot(self) -> Tuple[List[int], float, int]:
        with self._lock:
            return list(self.counts), self.total, self.count

    def percentile(self, quantile: float) -> float:
        """Upper bound of the bucket holding the q-th ranked sample.

        Returns 0.0 for an empty histogram; samples past the last
        finite bound report that bound (there is no tighter answer).
        """
        if not 0.0 <= quantile <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        counts, _total, count = self.snapshot()
        if count == 0:
            return 0.0
        rank = quantile * count
        cumulative = 0
        for index, bucket in enumerate(counts):
            cumulative += bucket
            if cumulative >= rank and bucket:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.bounds[-1]
        return self.bounds[-1]

    def mean(self) -> float:
        _counts, total, count = self.snapshot()
        return total / count if count else 0.0

    def samples(self) -> List[Sample]:
        counts, total, count = self.snapshot()
        out: List[Sample] = []
        cumulative = 0
        for index, bound in enumerate(self.bounds):
            cumulative += counts[index]
            labels = dict(self.labels)
            labels["le"] = repr(bound)
            out.append((self.name + "_bucket", labels, float(cumulative),
                        self.kind))
        labels = dict(self.labels)
        labels["le"] = "+Inf"
        out.append((self.name + "_bucket", labels, float(count), self.kind))
        out.append((self.name + "_sum", dict(self.labels), total, self.kind))
        out.append((self.name + "_count", dict(self.labels), float(count),
                    self.kind))
        return out


class MetricsRegistry:
    """Deduplicating home for instruments plus export-time collectors.

    Instruments are keyed by ``(name, sorted labels)``; asking twice
    returns the same object, asking with a different instrument type
    for an existing name/label pair is an error.  Collectors are
    callables returning an iterable of :data:`Sample` — they let the
    :mod:`repro.storm.metrics` classes join the export surface without
    paying any locking on their recording paths.  A recorder that holds
    its recordings back registers a *flush* instead, which folds them
    into their instruments before every read.
    """

    GUARDED_BY = {
        "_instruments": "_lock",
        "_collectors": "_lock",
        "_flushes": "_lock",
    }

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[Tuple[str, _LabelKey], object] = {}
        self._collectors: List[Callable[[], Iterable[Sample]]] = []
        self._flushes: List[Callable[[], None]] = []

    def _get_locked(self, cls, name: str,  # squall-lint: holds=_lock
                    labels: Dict[str, str], **kwargs):
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, labels, **kwargs)
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {cls.__name__}")
        return instrument

    def counter(self, name: str, **labels: str) -> Counter:
        with self._lock:
            return self._get_locked(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        with self._lock:
            return self._get_locked(Gauge, name, labels)

    def histogram(self, name: str,
                  bounds: Optional[Sequence[float]] = None,
                  **labels: str) -> Histogram:
        with self._lock:
            if bounds is None:
                return self._get_locked(Histogram, name, labels)
            return self._get_locked(Histogram, name, labels, bounds=bounds)

    def register_collector(
            self, collector: Callable[[], Iterable[Sample]]) -> None:
        with self._lock:
            if collector not in self._collectors:
                self._collectors.append(collector)

    def register_flush(self, flush: Callable[[], None]) -> None:
        """Run ``flush`` before every read of the instruments."""
        with self._lock:
            if flush not in self._flushes:
                self._flushes.append(flush)

    def instruments(self) -> List[object]:
        with self._lock:
            flushes = list(self._flushes)
        for flush in flushes:  # it may create instruments: not under lock
            flush()
        with self._lock:
            items = sorted(self._instruments.items())
        return [instrument for _key, instrument in items]

    def samples(self, **labels: str) -> List[Sample]:
        """Every sample: instruments first (sorted), then collectors.

        ``labels`` are added to each of them -- how an exporter of
        several registries (one per resident topology) keeps their
        series apart."""
        out: List[Sample] = []
        for instrument in self.instruments():
            out.extend(instrument.samples())  # type: ignore[attr-defined]
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            out.extend(collector())
        if labels:
            out = [(name, {**labels, **own}, value, kind)
                   for name, own, value, kind in out]
        return out

    def merged_histogram(self, name: str,
                         **match: str) -> Histogram:
        """One histogram folding every ``name`` instrument whose labels
        contain ``match`` — how ``profile()`` aggregates a component's
        per-task latency histograms."""
        merged: Optional[Histogram] = None
        for instrument in self.instruments():
            if not isinstance(instrument, Histogram):
                continue
            if instrument.name != name:
                continue
            if any(instrument.labels.get(k) != v for k, v in match.items()):
                continue
            if merged is None:
                merged = Histogram(name, dict(match), bounds=instrument.bounds)
            merged.merge(*instrument.snapshot())
        if merged is None:
            merged = Histogram(name, dict(match))
        return merged
