"""Metric registries: the real one, and the zero-cost disabled one.

Hot-path components never test a mode flag per event: when observability
is off they either hold ``None`` (one attribute test) or
:data:`NULL_REGISTRY`, whose instruments
are shared do-nothing singletons. Either way the disabled path does no
metric bookkeeping at all — the CI overhead gate holds the disabled
path to within noise of a build without the subsystem.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.obs.metrics import Counter, Gauge, StreamingHistogram, _label_key

__all__ = ["MetricRegistry", "NullRegistry", "NULL_REGISTRY"]


class MetricRegistry:
    """Named instruments, unique per (name, labels) pair."""

    enabled = True

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, Tuple], object] = {}

    def _get(self, cls, name: str, labels: Optional[Dict[str, str]], **kwargs):
        key = (name, _label_key(labels))
        inst = self._metrics.get(key)
        if inst is None:
            # Histograms don't carry name/labels themselves; the registry
            # key does.
            inst = cls(**kwargs) if cls is StreamingHistogram else cls(name, labels)
            self._metrics[key] = inst
        elif not isinstance(inst, cls):
            raise TypeError(
                f"metric {name!r} already registered as {type(inst).__name__}")
        return inst

    def counter(self, name: str,
                labels: Optional[Dict[str, str]] = None) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, labels: Optional[Dict[str, str]] = None) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, labels: Optional[Dict[str, str]] = None,
                  alpha: float = 0.01) -> StreamingHistogram:
        return self._get(StreamingHistogram, name, labels, alpha=alpha)

    def __len__(self) -> int:
        return len(self._metrics)

    def items(self):
        """Iterate ``((name, labels), instrument)`` sorted by name/labels."""
        for (name, lk), inst in sorted(self._metrics.items()):
            yield name, dict(lk), inst

    def snapshot(self) -> Dict:
        """All instruments as a JSON-safe dict (see collect.snapshot)."""
        counters, gauges, histograms = [], [], []
        for name, labels, inst in self.items():
            if isinstance(inst, Counter):
                counters.append({"name": name, "labels": labels,
                                 "value": inst.value})
            elif isinstance(inst, Gauge):
                gauges.append({"name": name, "labels": labels,
                               "value": inst.value})
            elif isinstance(inst, StreamingHistogram):
                histograms.append({"name": name, "labels": labels,
                                   **inst.to_dict()})
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set_total(self, value: float) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram(StreamingHistogram):
    __slots__ = ()

    def record(self, value: float) -> None:
        pass

    def merge(self, other: StreamingHistogram) -> StreamingHistogram:
        return self


class NullRegistry(MetricRegistry):
    """The disabled registry: hands out shared no-op instruments.

    Every ``counter()``/``gauge()``/``histogram()`` call returns the
    *same* singleton whose mutators do nothing, so instrumented code can
    run unconditionally against it with no allocations and no retained
    state. ``snapshot()`` is always empty.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._counter = _NullCounter("null")
        self._gauge = _NullGauge("null")
        self._histogram = _NullHistogram()

    def counter(self, name: str,
                labels: Optional[Dict[str, str]] = None) -> Counter:
        return self._counter

    def gauge(self, name: str, labels: Optional[Dict[str, str]] = None) -> Gauge:
        return self._gauge

    def histogram(self, name: str, labels: Optional[Dict[str, str]] = None,
                  alpha: float = 0.01) -> StreamingHistogram:
        return self._histogram

    def snapshot(self) -> Dict:
        return {"counters": [], "gauges": [], "histograms": []}


#: Shared disabled registry; safe to hand to any component.
NULL_REGISTRY = NullRegistry()
