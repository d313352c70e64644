"""Shared pieces of the repository benchmark: inputs, tracing, statistics.

Everything here lives outside ``src/``: the benchmark measures the library
from the outside, by timing calls into its public functions.  The traced
run records its own spans around those calls (:class:`Tracer`); nothing
inside the library is instrumented for it.
"""

from __future__ import annotations

import itertools
import json
import os
import resource
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: The registry's twitter-2010 analogue parameters
#: (``repro.datasets.registry``), reused for the 3x-larger offline graph.
TWITTER_PARAMS = dict(out_degree=16, reciprocity=0.3,
                      rich_club_fraction=0.12, rich_club_degree=90)
#: TRI (trivalency) edge probabilities, as ``repro.datasets.probabilities``.
TRI = (0.1, 0.01, 0.001)


# ----------------------------------------------------------------------
# Inputs: every input is a pure function of the workload seed.
# ----------------------------------------------------------------------

def input_rng(seed: int, stream: int) -> np.random.Generator:
    """An independent generator per input stream of one workload seed."""
    return np.random.default_rng([seed, stream])


def hub_ranked(graph) -> np.ndarray:
    """Vertices by descending total degree (ties by id): index 0 = top hub."""
    tails, heads, _ = graph.edge_arrays()
    degree = (np.bincount(tails, minlength=graph.n)
              + np.bincount(heads, minlength=graph.n))
    return np.argsort(-degree, kind="stable")


def hub_vertices(ranked: np.ndarray, rng: np.random.Generator,
                 size: int) -> np.ndarray:
    """``size`` vertices drawn with a cubic skew towards the top hubs."""
    ranks = np.floor(ranked.size * rng.random(size) ** 3).astype(np.int64)
    return ranked[ranks]


def seed_sets(ranked: np.ndarray, rng: np.random.Generator, count: int,
              max_size: int = 16) -> "list[list[int]]":
    """``count`` distinct-vertex seed sets of 1..max_size hub-skewed vertices."""
    sets = []
    for _ in range(count):
        size = int(rng.integers(1, max_size + 1))
        chosen: "list[int]" = []
        while len(chosen) < size:
            for v in hub_vertices(ranked, rng, size - len(chosen)).tolist():
                if v not in chosen:
                    chosen.append(v)
        sets.append(chosen)
    return sets


def delta_batches(graph, ranked: np.ndarray, rng: np.random.Generator,
                  batches: int, per_batch: int = 8,
                  delete_share: float = 0.4) -> "list[list[dict]]":
    """A fixed edit schedule: inserts of new edges, deletes of earlier ones.

    Inserts follow a random user towards a hub-skewed target with a TRI
    probability; a delete removes an edge this schedule inserted in an
    earlier batch, so no delta can fail on a valid graph.
    """
    tails, heads, _ = graph.edge_arrays()
    present = set((tails * graph.n + heads).tolist())
    inserted: "list[tuple[int, int]]" = []
    schedule = []
    for _ in range(batches):
        batch = []
        fresh = []
        for _ in range(per_batch):
            if inserted and rng.random() < delete_share:
                u, v = inserted.pop(int(rng.integers(len(inserted))))
                present.discard(u * graph.n + v)
                batch.append({"op": "delete", "u": u, "v": v})
                continue
            while True:
                u = int(rng.integers(graph.n))
                v = int(hub_vertices(ranked, rng, 1)[0])
                if u != v and u * graph.n + v not in present:
                    break
            present.add(u * graph.n + v)
            fresh.append((u, v))
            batch.append({"op": "insert", "u": u, "v": v,
                          "p": TRI[int(rng.integers(len(TRI)))]})
        inserted.extend(fresh)
        schedule.append(batch)
    return schedule


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> "tuple[float, float, int]":
    """The highest percentile with at least 10, and at least a tenth, of
    the samples beyond it.

    Returns ``(value, percentile, samples)``: p90 from 100 samples up (a
    higher percentile of a sub-millisecond call is one preemption of the
    host), below that the 11th largest, i.e. percentile
    ``100 * (n - 10) / n``; below 11 samples (quick mode only) it degrades
    to the maximum.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    beyond = max(10, n // 10)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB (Linux)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# End-to-end metrics: every workload reports every one
# ----------------------------------------------------------------------

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = [
    ("setup_s", "s"),
    ("cold_answer_s", "s"),
    ("answer_p50_ms", "ms"),
    ("answer_tail_ms", "ms"),
    ("work_s", "s"),
    ("coarse_edge_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
]


def end_to_end(out: "Run", setup: list, cold: list, warm: list,
               work: float, peak_rss_mb: "float | None") -> None:
    """Record the end-to-end metrics a workload has timed.

    ``setup``: the run's set-ups; ``cold``: first answers on a fresh model;
    ``warm``: the answers after those; ``work``: the summed wall time of
    every timed operation after set-up.  The traced run of a serve
    workload has no spawn to time and no server process, so it passes an
    empty ``setup`` and no peak.  ``coarse_edge_ratio`` is the workload's.
    """
    if setup:
        out.metric("setup_s", median(setup), "s")
    out.metric("cold_answer_s", median(cold), "s")
    out.metric("answer_p50_ms", ms(median(warm)), "ms")
    value, percentile, samples = tail(warm)
    out.metric("answer_tail_ms", ms(value), "ms")
    out.notes["answer_tail"] = {"percentile": percentile, "samples": samples}
    out.metric("work_s", work, "s")
    if peak_rss_mb is not None:
        out.metric("peak_rss_mb", peak_rss_mb, "MB")


# ----------------------------------------------------------------------
# Run bookkeeping
# ----------------------------------------------------------------------

class Run:
    """Counts operations and checks, and collects the metrics of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: "list[str]" = []
        self.metrics: "dict[str, tuple[float, str]]" = {}
        self.notes: "dict[str, object]" = {}
        self._lock = threading.Lock()

    def op(self, ok: bool = True, what: str = "") -> None:
        """Record one attempted operation (a request or a library call)."""
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.problems.append(what or "operation failed")

    def check(self, ok: bool, what: str) -> bool:
        """Record one correctness check; a failed check fails the run."""
        self.op(bool(ok), f"check failed: {what}")
        return bool(ok)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def result(self, names: "list[str]") -> dict:
        """The final JSON line: exactly the requested metrics."""
        return {
            "correct": self.failed == 0,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name][0],
                       "unit": self.metrics[name][1]}
                for name in names
            },
        }


# ----------------------------------------------------------------------
# Tracing: the benchmark's own spans around public calls
# ----------------------------------------------------------------------

class Tracer:
    """In-memory spans with parent links and one id per operation.

    A span is ``(id, parent, op, name, thread, start, end)``.  Spans opened
    on one thread nest under that thread's innermost open span; the
    operation id is inherited from the parent, or set explicitly for a new
    operation (:meth:`new_op`).  Spans stay in memory and are written
    out once, by :meth:`write`, when the run ends.
    """

    def __init__(self) -> None:
        self.spans: "list[tuple]" = []
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: "list[tuple[object, str, bool, object]]" = []

    def new_op(self) -> int:
        return next(self._ops)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op: "int | None" = None):
        stack = self._stack()
        parent, parent_op = stack[-1] if stack else (0, 0)
        span_id = next(self._ids)
        op = parent_op if op is None else op
        stack.append((span_id, op))
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((span_id, parent, op, name,
                                   threading.get_ident(), start, end))

    def wrap(self, owner: object, attr: str, name: str,
             op_of=None) -> None:
        """Replace ``owner.attr`` by a spanned call until :meth:`unwrap_all`.

        ``op_of(args, kwargs)`` may name the operation the call starts
        (for a request arriving on a server thread).
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            op = op_of(args, kwargs) if op_of is not None else None
            with tracer.span(name, op=op):
                return original(*args, **kwargs)

        self.patch(owner, attr, traced)

    def carry(self, owner: type, attr: str) -> None:
        """Make ``owner.attr(fn, ...)`` run ``fn`` under the caller's span.

        Used on ``ThreadPoolExecutor.submit`` so that work a service hands
        to its dispatch threads stays attached to the operation that
        caused it.
        """
        original = getattr(owner, attr)
        tracer = self

        def submit(executor, fn, /, *args, **kwargs):
            stack = tracer._stack()
            if not stack:
                return original(executor, fn, *args, **kwargs)
            context = stack[-1]

            def attached(*a, **k):
                inner = tracer._stack()
                inner.append(context)
                try:
                    return fn(*a, **k)
                finally:
                    inner.pop()

            return original(executor, attached, *args, **kwargs)

        self.patch(owner, attr, submit)

    def patch(self, owner: object, attr: str, replacement) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`unwrap_all`."""
        own = vars(owner)
        self._restore.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, replacement)

    def unwrap_all(self) -> None:
        for owner, attr, had_own, original in reversed(self._restore):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._restore.clear()

    def durations(self, name: str) -> "list[float]":
        """Durations (s) of every span called ``name``, in end order."""
        return [s[6] - s[5] for s in self.spans if s[3] == name]

    def by_op(self, name: str) -> "dict[int, float]":
        """Duration (s) of the ``name`` span of each operation (last wins)."""
        return {s[2]: s[6] - s[5] for s in self.spans if s[3] == name}

    def span_cost_s(self, rounds: int = 20_000) -> float:
        """Measured cost of opening and closing one span, in seconds."""
        probe = Tracer()
        start = time.perf_counter()
        for _ in range(rounds):
            with probe.span("probe"):
                pass
        return (time.perf_counter() - start) / rounds

    def write(self, path: Path, summary: dict) -> None:
        """Write every span as one JSON line, after a summary record."""
        path.parent.mkdir(parents=True, exist_ok=True)
        base = min((s[5] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"summary": summary}) + "\n")
            for span_id, parent, op, name, thread, start, end in sorted(
                    self.spans, key=lambda s: s[5]):
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "op": op,
                    "name": name, "thread": thread,
                    "start_ms": round((start - base) * 1e3, 4),
                    "dur_ms": round((end - start) * 1e3, 4),
                }) + "\n")


class NullTracer:
    """The untraced run's tracer: operations are timed, nothing recorded."""

    def new_op(self) -> int:
        return 0

    @contextmanager
    def span(self, name: str, op: "int | None" = None):
        yield 0


@contextmanager
def timed(times: list, tracer, name: str):
    """Append the wall time of the block to ``times`` (one operation)."""
    with tracer.span(name, op=tracer.new_op()):
        start = time.perf_counter()
        yield
        times.append(time.perf_counter() - start)


def ms(seconds: float) -> float:
    return seconds * 1e3


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def env_with_src() -> dict:
    """The environment a child ``repro`` process needs (src on the path)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
