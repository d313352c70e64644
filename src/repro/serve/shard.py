"""Sharded multi-process serving over one shared coarse model.

The in-process serving stack (:mod:`repro.serve.service`) grows RR-set
pools on a thread pool — which the GIL serialises whenever sampling is
numpy-light.  This module moves growth and scoring into a persistent
fleet of **worker processes** that all attach the same
:class:`~repro.graph.shm.SharedModel` segment (the PR-4 zero-copy CSR
broadcast), so a batched ``/estimate`` fans out across cores while the
parent keeps everything stateful: request parsing, admission control,
deadline bookkeeping, and the fine-to-coarse seed mapping.

Sharding discipline
-------------------
Worker ``k`` of ``T`` owns the sample indices ``k, k + T, k + 2T, ...``
of every pool.  Under the indexed-stream discipline
(:func:`repro.rng.indexed_rng`; see :mod:`repro.serve.pool`) sample ``i``
is a pure function of ``(entropy, i)``, so worker ``k`` draws *exactly*
the samples a serial drawer would have produced at its indices — the
fleet collectively assembles the identical pool, just interleaved across
address spaces.  Two consequences the serving layer relies on:

* **Bit-for-bit equality.**  A prefix of the logical pool corresponds to
  a per-worker count: global prefix ``P`` covers the first
  ``ceil((P - k) / T)`` local samples of worker ``k`` (0 when
  ``P <= k``), and the contiguous prefix assembled from per-worker local
  counts ``c_k`` is ``min_k (c_k * T + k)``.  Scoring sums integer hit
  counts over the disjoint shards and applies the exact float expression
  :class:`~repro.algorithms.ris_estimator.RISEstimator` uses, so sharded
  answers equal in-process answers bit-for-bit (pinned by the
  cross-executor digest test and ``benchmarks/bench_serve_shard.py``).
* **Graceful fallback.**  If a worker crashes or the fleet misbehaves,
  the runtime is marked broken and the service re-answers the query from
  an in-process :class:`~repro.serve.pool.SamplePool` — same entropy,
  same indices, same bits.

Protocol
--------
One duplex pipe per worker carries tiny task tuples: ``attach`` (map a
published model segment, once per model), ``grow`` (extend the local
shard toward a global prefix, honouring the remaining deadline),
``score`` (hit-count seed sets against a prefix), ``detach`` (drop a
model and its mapping when the parent evicts it), ``ping`` and
``shutdown``.  Workers are started with the ``spawn`` method — forking a
thread-carrying serving parent is unsafe (and deprecated on 3.12+) — and
install the runtime lock sanitizer when the parent has one active, so
the sanitizer's coverage extends across the process boundary.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from dataclasses import dataclass

import numpy as np

from ..diffusion.rr_sets import CoverageInstance, RRSampler
from ..errors import AlgorithmError, ReproError
from ..graph.influence_graph import InfluenceGraph
from ..graph.shm import (
    SharedModel,
    SharedModelSpec,
    attach_shared_model,
    detach_shared_graph,
)
from ..obs import inc, set_gauge, span
from ..rng import ensure_rng, indexed_rng
from .pool import PooledRead

__all__ = ["ShardError", "ShardRuntime", "ShardPool", "ShardEstimator"]

#: Seconds the parent waits for the fleet's readiness ping.  Generous:
#: a spawned worker pays a full interpreter + numpy import on first start.
DEFAULT_START_TIMEOUT = 60.0


class ShardError(ReproError):
    """A shard worker crashed, hung, or reported a task failure.

    The service treats this as "the fleet is broken": it falls back to
    in-process serving (bit-for-bit identical answers) and never routes
    to this runtime again.
    """


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


class _WorkerShard:
    """One worker's slice of one model's pool (indices ``k (mod T)``).

    Local sample ``j`` is global sample ``k + j*T``, drawn from stream
    ``(entropy, k + j*T)`` — exactly what the serial pool would have
    drawn there.
    """

    def __init__(self, graph: InfluenceGraph, worker_id: int, n_workers: int,
                 entropy: int, model: str, chunk_sets: int) -> None:
        self.graph = graph
        self.worker_id = worker_id
        self.n_workers = n_workers
        self.entropy = entropy
        # Deadline-check granularity, scaled down so the fleet overshoots
        # a deadline by about one *global* chunk, not T of them.
        self.chunk_sets = max(1, chunk_sets // n_workers)
        self.sampler = RRSampler(graph, rng=ensure_rng(entropy), model=model)
        self.rr_sets: "list[np.ndarray]" = []
        self._coverage: "CoverageInstance | None" = None
        self._coverage_size = 0

    def local_target(self, prefix: int) -> int:
        """Local samples needed so the shard covers global prefix ``prefix``."""
        if prefix <= self.worker_id:
            return 0
        return (prefix - self.worker_id + self.n_workers - 1) // self.n_workers

    def grow(self, target: int, deadline: "float | None") -> int:
        """Draw toward global prefix ``target``; returns the local count."""
        want = self.local_target(target)
        while len(self.rr_sets) < want:
            if deadline is not None and time.monotonic() >= deadline:
                break
            chunk = min(self.chunk_sets, want - len(self.rr_sets))
            for _ in range(chunk):
                index = self.worker_id + len(self.rr_sets) * self.n_workers
                self.rr_sets.append(self.sampler.sample(
                    rng=indexed_rng(self.entropy, index)))
        return len(self.rr_sets)

    def score(self, seed_sets: "list[np.ndarray]", prefix: int) -> "list[int]":
        """Hit counts of each seed set against this shard's slice of
        the global prefix ``prefix`` (an integer per seed set)."""
        limit = self.local_target(prefix)
        if self._coverage is None or self._coverage_size != len(self.rr_sets):
            self._coverage = CoverageInstance(self.rr_sets, self.graph.n)
            self._coverage_size = len(self.rr_sets)
        return [self._coverage.coverage_of(seeds, first=limit)
                for seeds in seed_sets]


def _handle_task(shards: "dict[str, _WorkerShard]", worker_id: int,
                 n_workers: int, msg: tuple):
    """Execute one parent task; returns the reply payload."""
    kind = msg[0]
    if kind == "ping":
        return worker_id
    if kind == "attach":
        _, spec, entropy, model, chunk_sets = msg
        if spec.token not in shards:
            graph = attach_shared_model(spec)
            shards[spec.token] = _WorkerShard(
                graph, worker_id, n_workers, entropy, model, chunk_sets)
        return None
    if kind == "grow":
        _, token, target, remaining = msg
        deadline = None if remaining is None else time.monotonic() + remaining
        return shards[token].grow(target, deadline)
    if kind == "score":
        _, token, seed_sets, prefix = msg
        return shards[token].score(seed_sets, prefix)
    if kind == "detach":
        _, token, segment_name = msg
        shards.pop(token, None)
        detach_shared_graph(segment_name)
        return None
    raise ShardError(f"unknown shard task {kind!r}")


def _worker_main(worker_id: int, n_workers: int, conn, sanitize: bool) -> None:
    """Shard worker loop: receive task tuples, reply ``(status, payload)``.

    Every exception is surfaced to the parent as an ``("error", text)``
    reply rather than killing the worker — the parent decides whether the
    fleet is still usable.  A broken pipe or a ``shutdown`` task ends the
    loop; attached segments are dropped by the interpreter-exit hook in
    :mod:`repro.graph.shm`.
    """
    sanitizer = None
    if sanitize:
        from ..sanitize import install_sanitizer

        sanitizer = install_sanitizer()
    shards: "dict[str, _WorkerShard]" = {}
    running = True
    while running:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        try:
            if msg[0] == "shutdown":
                running = False
                result = None
            else:
                result = _handle_task(shards, worker_id, n_workers, msg)
                if sanitizer is not None:
                    sanitizer.assert_clean()
            reply = ("ok", result)
        except BaseException as exc:  # surfaced to the parent as a task error
            reply = ("error", f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except (OSError, ValueError):
            break
    conn.close()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


def _global_prefix(counts: "list[int]", n_workers: int) -> int:
    """Longest contiguous global prefix covered by per-worker counts.

    Worker ``k`` holding ``c_k`` local samples covers global indices
    ``k, k+T, ..., k+(c_k-1)T``; the first *missing* global index of the
    fleet is ``min_k (c_k * T + k)``, which is exactly the prefix length.
    """
    return min(c * n_workers + k for k, c in enumerate(counts))


class _Worker:
    """A live worker process and its parent end of the task pipe."""

    __slots__ = ("index", "process", "conn")

    def __init__(self, index, process, conn) -> None:
        self.index = index
        self.process = process
        self.conn = conn


@dataclass
class _ModelState:
    """Parent bookkeeping for one model resident in the fleet."""

    shared: SharedModel
    counts: "list[int]"
    pool: "ShardPool"
    entropy: int = 0


class ShardRuntime:
    """A persistent fleet of shard workers serving published models.

    The runtime is the parent-side owner of everything cross-process:
    worker lifecycles, the per-model :class:`~repro.graph.shm.SharedModel`
    segments, and the strided-shard bookkeeping.  All operations are
    serialised on one lock — a fan-out *round* (send to all workers,
    collect all replies) is the unit of concurrency, and the parallelism
    lives inside the round, across the worker processes.

    Crash discipline: any worker death, unresponsive pipe, or task error
    raises :class:`ShardError` and marks the runtime ``broken``; callers
    (the service) then fall back to in-process pools, which produce
    bit-for-bit identical answers under the indexed-stream discipline.
    """

    def __init__(self, n_workers: int, *, model: str = "ic",
                 chunk_sets: int = 256,
                 start_timeout: float = DEFAULT_START_TIMEOUT) -> None:
        if n_workers <= 0:
            raise ShardError("shard runtime needs at least one worker")
        self.n_workers = n_workers
        self._model = model
        self._chunk_sets = chunk_sets
        self._lock = threading.Lock()
        self._models: "dict[str, _ModelState]" = {}  #: guarded-by: _lock
        self._broken = False  #: guarded-by: _lock
        self._workers: "list[_Worker]" = []  #: guarded-by: _lock
        # Workers inherit the sanitizer decision at start: either the
        # parent has one installed now, or the env opted the run in.
        from ..sanitize import current_sanitizer

        sanitize = (current_sanitizer() is not None
                    or os.environ.get("REPRO_SANITIZE") == "1")
        ctx = multiprocessing.get_context("spawn")
        try:
            with span("serve.shard.start", workers=n_workers):
                for k in range(n_workers):
                    parent_conn, child_conn = ctx.Pipe()
                    process = ctx.Process(
                        target=_worker_main,
                        args=(k, n_workers, child_conn, sanitize),
                        daemon=True,
                        name=f"repro-shard-{k}",
                    )
                    process.start()
                    child_conn.close()
                    self._workers.append(_Worker(k, process, parent_conn))
                # Readiness barrier: every worker answers a ping before the
                # runtime is handed out, so spawn/import failures surface
                # here and not in the middle of a query.
                self._broadcast(("ping",), timeout=start_timeout)
        except ShardError:
            self.close()
            raise
        except (OSError, ValueError) as exc:
            self.close()
            raise ShardError(f"failed to start shard workers: {exc}") from exc
        set_gauge("serve.shard.workers", n_workers)

    # -- fleet plumbing ------------------------------------------------

    @property
    def broken(self) -> bool:
        """Whether the fleet has been marked unusable."""
        with self._lock:
            return self._broken

    def _recv(self, worker: _Worker, timeout: "float | None"):
        """One reply from ``worker``, with crash and hang detection."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while not worker.conn.poll(0.05):
            if not worker.process.is_alive():
                inc("serve.shard.worker_crashes")
                raise ShardError(
                    f"shard worker {worker.index} died "
                    f"(exit code {worker.process.exitcode})"
                )
            if deadline is not None and time.monotonic() >= deadline:
                raise ShardError(
                    f"shard worker {worker.index} unresponsive "
                    f"after {timeout:.1f}s"
                )
        try:
            status, payload = worker.conn.recv()
        except (EOFError, OSError) as exc:
            inc("serve.shard.worker_crashes")
            raise ShardError(
                f"shard worker {worker.index} hung up mid-reply"
            ) from exc
        if status != "ok":
            raise ShardError(f"shard worker {worker.index}: {payload}")
        return payload

    def _broadcast(self, message: tuple, timeout: "float | None" = None):
        """One fan-out round: ``message`` to every worker, replies in
        worker order.  Raises :class:`ShardError` on any worker failure;
        the caller (which holds ``_lock``) marks the runtime broken."""
        for worker in self._workers:
            try:
                worker.conn.send(message)
            except (OSError, ValueError) as exc:
                inc("serve.shard.worker_crashes")
                raise ShardError(
                    f"shard worker {worker.index} pipe is closed"
                ) from exc
        replies = []
        for worker in self._workers:
            replies.append(self._recv(worker, timeout))
        inc("serve.shard.tasks", len(self._workers))
        return replies

    def _ensure_open(self) -> None:
        if self._broken:
            raise ShardError("shard runtime is broken")
        if not self._workers:
            raise ShardError("shard runtime is closed")

    # -- models --------------------------------------------------------

    def pool_for(self, token: str, coarse: InfluenceGraph,
                 entropy: int) -> "ShardPool":
        """The fleet-backed pool for model ``token``.

        First sight of a token publishes the coarse graph into shared
        memory and broadcasts an ``attach``; the segment lives until
        :meth:`retain` drops the token or the runtime closes.  ``entropy``
        must be the same value an in-process pool for this model would
        derive, so fallback reproduces identical samples.
        """
        with self._lock:
            self._ensure_open()
            state = self._models.get(token)
            if state is None:
                shared = SharedModel.publish(token, coarse)
                try:
                    self._broadcast(("attach", shared.spec, entropy,
                                     self._model, self._chunk_sets))
                except ShardError:
                    self._broken = True
                    shared.unlink()
                    raise
                inc("serve.shard.models")
                inc("serve.shard.publish_bytes", shared.nbytes)
                state = _ModelState(
                    shared=shared,
                    counts=[0] * self.n_workers,
                    pool=ShardPool(self, token, coarse),
                    entropy=entropy,
                )
                self._models[token] = state
            elif state.pool.graph is not coarse:
                # Same content address, new model object (evicted and
                # rebuilt): rebind the facade; the workers' shards keyed by
                # token are built from identical content, so nothing to redo.
                state.pool = ShardPool(self, token, coarse)
            return state.pool

    def retain(self, tokens: "set[str]") -> None:
        """Drop every resident model not in ``tokens`` (cache eviction).

        Broadcasts a ``detach`` so workers evict their shard state and
        their cached segment mapping, then unlinks the segment.
        """
        with self._lock:
            if self._broken or not self._workers:
                return
            stale = [t for t in self._models if t not in tokens]
            for token in stale:
                state = self._models.pop(token)
                try:
                    self._broadcast(
                        ("detach", token, state.shared.spec.graph.name))
                except ShardError:
                    self._broken = True
                    raise
                finally:
                    state.shared.unlink()
                inc("serve.shard.detach")

    # -- pool operations ----------------------------------------------

    def grow(self, token: str, n_samples: int,
             deadline: "float | None" = None) -> int:
        """Grow model ``token``'s logical pool to ``n_samples`` sets.

        Mirrors :meth:`repro.serve.pool.SamplePool.ensure`: returns the
        usable prefix ``min(n_samples, assembled prefix)``, growing only
        the shortfall, stopping at chunk boundaries past ``deadline``.
        """
        if n_samples <= 0:
            raise AlgorithmError("n_samples must be positive")
        with self._lock:
            self._ensure_open()
            state = self._models[token]
            prefix = _global_prefix(state.counts, self.n_workers)
            reused = min(prefix, n_samples)
            if reused:
                inc("serve.shard.reuse", reused)
            if prefix >= n_samples:
                return n_samples
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            with span("serve.shard.grow", have=prefix, want=n_samples):
                try:
                    counts = self._broadcast(
                        ("grow", token, n_samples, remaining))
                except ShardError:
                    self._broken = True
                    raise
            inc("serve.shard.drawn", sum(counts) - sum(state.counts))
            state.counts = list(counts)
            return min(n_samples,
                       _global_prefix(state.counts, self.n_workers))

    def score(self, token: str, seed_sets: "list[np.ndarray]",
              prefix: int) -> "list[int]":
        """Total hit counts of each seed set against the prefix.

        Shards are disjoint slices of the prefix, so integer hit counts
        sum exactly — no floating point crosses the process boundary.
        """
        with self._lock:
            self._ensure_open()
            with span("serve.shard.score", queries=len(seed_sets),
                      n_samples=prefix):
                try:
                    per_worker = self._broadcast(
                        ("score", token, seed_sets, prefix))
                except ShardError:
                    self._broken = True
                    raise
        return [int(sum(counts)) for counts in zip(*per_worker)]

    def size(self, token: str) -> int:
        """Current assembled prefix length of model ``token``'s pool."""
        with self._lock:
            state = self._models.get(token)
            if state is None:
                return 0
            return _global_prefix(state.counts, self.n_workers)

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Stop the fleet and unlink every published segment (idempotent)."""
        with self._lock:
            workers, self._workers = self._workers, []
            models, self._models = dict(self._models), {}
            self._broken = True
        for worker in workers:
            try:
                worker.conn.send(("shutdown",))
            except (OSError, ValueError):
                pass  # already dead; join/terminate below still applies
        for worker in workers:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            worker.conn.close()
        for state in models.values():
            state.shared.unlink()
        if workers:
            set_gauge("serve.shard.workers", 0)

    def __enter__(self) -> "ShardRuntime":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def stats(self) -> dict:
        """A JSON-able snapshot for the service's ``/stats`` body."""
        with self._lock:
            return {
                "workers": len(self._workers),
                "broken": self._broken,
                "models": {
                    token: _global_prefix(state.counts, self.n_workers)
                    for token, state in self._models.items()
                },
            }


class ShardPool(PooledRead):
    """Parent-side facade over one model's fleet-sharded pool.

    Duck-type compatible with the slice of
    :class:`~repro.serve.pool.SamplePool` the estimate path uses
    (``ensure`` / ``estimator`` / ``size`` / ``graph``), so it serves the
    same read protocol (:class:`~repro.serve.pool.PooledRead`) and
    ``InfluenceService._run_estimate`` answers from either unchanged.
    Maximization is *not* offered: greedy max coverage needs the full RR
    sets (decremental gains), not hit counts, so ``maximize`` stays on
    the in-process pool.
    """

    def __init__(self, runtime: ShardRuntime, token: str,
                 graph: InfluenceGraph) -> None:
        self._runtime = runtime
        self._token = token
        self.graph = graph
        # Identical float pipeline to RRSampler.total_weight — the scale
        # must match the in-process estimator bit-for-bit.
        weights = graph.weights.astype(np.float64)
        cum = np.cumsum(weights)
        self.total_weight = float(cum[-1]) if graph.n else 0.0

    @property
    def size(self) -> int:
        """Assembled prefix length (sets usable without further growth)."""
        return self._runtime.size(self._token)

    def ensure(self, n_samples: int, deadline: "float | None" = None) -> int:
        """Grow the fleet's shards to cover ``n_samples``; see
        :meth:`ShardRuntime.grow`."""
        return self._runtime.grow(self._token, n_samples, deadline=deadline)

    def estimator(self, n_samples: int) -> "ShardEstimator":
        """A protocol-conforming estimator over the first ``n_samples``
        sets of the logical pool."""
        return ShardEstimator(self, n_samples)

    def score(self, seed_sets: "list[np.ndarray]", prefix: int) -> "list[int]":
        """Batched hit counts (one fan-out round for many seed sets)."""
        return self._runtime.score(self._token, seed_sets, prefix)


class ShardEstimator:
    """RIS estimate over a fleet-sharded pool prefix.

    Conforms to the :class:`~repro.core.frameworks.InfluenceEstimator`
    protocol.  The value is ``total_weight * hits / n_samples`` with
    ``hits`` an exact integer summed across disjoint shards — the same
    expression, on the same numbers, as
    :class:`~repro.algorithms.ris_estimator.RISEstimator` over the
    equivalent in-process pool.
    """

    def __init__(self, pool: ShardPool, n_samples: int) -> None:
        if n_samples <= 0:
            raise AlgorithmError("n_samples must be positive")
        self._pool = pool
        self.n_samples = n_samples

    def estimate(self, graph: InfluenceGraph, seeds) -> float:
        """Estimated influence of ``seeds`` on the pool's graph."""
        if graph is not self._pool.graph:
            raise AlgorithmError("ShardEstimator is bound to its pool's graph")
        seeds = np.asarray(seeds, dtype=np.int64)
        if seeds.size == 0:
            raise AlgorithmError("seed set must be non-empty")
        hits = self._pool.score([seeds], self.n_samples)[0]
        return self._pool.total_weight * hits / self.n_samples
