"""Per-stage wall-time accumulation for the coarsening pipeline.

:class:`StageTimes` is the bridge between the tracer and
:class:`~repro.core.result.CoarsenStats`: every ``stage(...)`` block both
emits a tracing span (when tracing is enabled) and adds its wall time to a
plain ``{stage: seconds}`` dict that the coarsening implementations copy
into ``CoarsenStats.stage_seconds``.  Stage accumulation is always on — it
is one ``perf_counter`` pair and a dict update per *stage*, far below the
instrumentation budget — so every ``CoarsenResult`` carries a breakdown even
when no tracer is installed.

Canonical stage keys (see ``docs/observability.md``):

``sample``     drawing a live-edge graph from ``D_G``;
``scc``        labelling one sample's strongly connected components;
``meet``       folding a sample partition into the running meet;
``contract``   building ``H`` from the final partition (second stage).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator

from .runtime import span

__all__ = [
    "StageTimes",
    "STAGE_SAMPLE",
    "STAGE_SCC",
    "STAGE_MEET",
    "STAGE_CONTRACT",
]

STAGE_SAMPLE = "sample"
STAGE_SCC = "scc"
STAGE_MEET = "meet"
STAGE_CONTRACT = "contract"


class StageTimes:
    """Accumulates named stage durations; re-entrant per stage name."""

    __slots__ = ("seconds",)

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}

    @contextmanager
    def stage(self, name: str, **attrs: Any) -> Iterator[None]:
        """Time the enclosed block into ``name`` and emit a matching span."""
        with span(name, **attrs):
            t0 = time.perf_counter()
            try:
                yield
            finally:
                elapsed = time.perf_counter() - t0
                self.seconds[name] = self.seconds.get(name, 0.0) + elapsed

    def add(self, name: str, seconds: float) -> None:
        """Fold an externally measured duration into ``name``."""
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds

    def merge(self, other: "StageTimes") -> None:
        """Fold another accumulator's stages into this one."""
        for name, seconds in other.seconds.items():
            self.add(name, seconds)

    def total(self) -> float:
        return sum(self.seconds.values())

    def as_dict(self) -> dict[str, float]:
        return dict(self.seconds)
