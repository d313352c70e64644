"""Counters, gauges and timers with explicit-injection and a process default.

A :class:`MetricsRegistry` is a plain value object: tests construct their own
(full isolation, no cross-test bleed), long-running processes install one as
the process-wide default through :func:`repro.obs.use_metrics` /
:func:`repro.obs.enable_metrics`.  Instrumented library code never talks to a
registry directly — it calls the gated module-level helpers in
:mod:`repro.obs`, which are no-ops until a registry is installed.

Thread safety: counter/timer updates take a lock, so worker threads (the
Algorithm 6's thread pool) can share one registry.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

__all__ = ["MetricsRegistry", "TimerStat"]


@dataclass
class TimerStat:
    """Aggregated observations of one named duration."""

    count: int = 0
    total: float = 0.0
    min: float = field(default=float("inf"))
    max: float = 0.0

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max,
        }


class _TimerContext:
    __slots__ = ("_registry", "_name", "_t0")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name

    def __enter__(self) -> "_TimerContext":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._registry.observe(self._name, time.perf_counter() - self._t0)
        return False


class MetricsRegistry:
    """Named counters, gauges and timers for one measurement scope."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.timers: dict[str, TimerStat] = {}

    # -- updates ---------------------------------------------------------

    def inc(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (created at zero)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest value."""
        with self._lock:
            self.gauges[name] = value

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration observation under timer ``name``."""
        with self._lock:
            stat = self.timers.get(name)
            if stat is None:
                stat = self.timers[name] = TimerStat()
            stat.observe(seconds)

    def timer(self, name: str) -> _TimerContext:
        """Context manager timing its body into timer ``name``."""
        return _TimerContext(self, name)

    # -- reads -----------------------------------------------------------

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0)

    def gauge(self, name: str) -> float:
        return self.gauges.get(name, 0.0)

    def snapshot(self) -> dict:
        """A JSON-ready copy of every metric."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "timers": {k: v.as_dict() for k, v in self.timers.items()},
            }

    def reset(self) -> None:
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.timers.clear()

    def render(self) -> str:
        """Human-readable report (the CLI's ``--metrics`` output)."""
        snap = self.snapshot()
        lines = ["metrics:"]
        for name in sorted(snap["counters"]):
            lines.append(f"  counter {name:<32} {snap['counters'][name]:,g}")
        for name in sorted(snap["gauges"]):
            lines.append(f"  gauge   {name:<32} {snap['gauges'][name]:,g}")
        for name in sorted(snap["timers"]):
            t = snap["timers"][name]
            lines.append(
                f"  timer   {name:<32} n={t['count']} total={t['total']:.4f}s "
                f"mean={t['mean']:.4f}s max={t['max']:.4f}s"
            )
        if len(lines) == 1:
            lines.append("  (empty)")
        return "\n".join(lines)
