""":class:`InfluenceService` — the embeddable query-engine facade.

The service owns the whole serving stack: a :class:`~.cache.ModelCache` of
coarsened models, one :class:`~.pool.SamplePool` per resident model, and a
thread-pool dispatcher with bounded-queue admission control.  A query
goes:

1. **model** — :meth:`InfluenceService.model_for` addresses the cache by
   content (:class:`~.cache.ModelKey`); a miss probes the warm directory
   and finally coarsens through the unified
   :func:`repro.core.coarsen_influence_graph` facade;
2. **admission** — each query takes a slot from a bounded pool
   (``max_workers`` running + ``max_pending`` queued); an overflowing
   submit raises :class:`~repro.errors.BudgetExceededError` *immediately*
   instead of queueing unboundedly (``serve.queue.depth`` tracks the
   in-flight count);
3. **coalescing** — concurrent estimates against the same model score
   prefixes of the model's shared :class:`~.pool.SamplePool`, so a batch
   of q queries pays for one sketch, not q;
4. **deadline** — with ``deadline_seconds`` set, pool growth stops at the
   deadline and the query degrades to the achieved prefix
   (``serve.deadline.degraded``); the weaker accuracy is reported through
   :func:`repro.analysis.bounds.guarantee_report`;
5. **sharding** (optional) — with ``shard_workers`` set, growth and
   scoring run on a persistent fleet of worker processes
   (:mod:`repro.serve.shard`) that attach the model's coarse graph over
   shared memory; the parent keeps parsing, admission, deadlines, and
   seed mapping.  A broken fleet falls back to in-process pools
   transparently — and bit-for-bit identically.

Every estimator family answers through one read protocol.  A *read
state* is what a family scores queries against — an RR pool
(:class:`~.pool.SamplePool`, or :class:`~.shard.ShardPool` on the fleet)
for ``ris``, a bottom-k oracle for ``sketch``; MC keeps none.  It is
built once per model, bound to ``model.coarse`` by identity and kept in
one table under ``ModelKey.for_state(...)``.  It offers ``family``,
``graph`` (the coarse graph it is bound to), ``bind(graph, model)``
(restate what depends on the fine graph) and ``read(requested, floor,
deadline) -> (estimator, achieved, requested, report, extras)``; the
service owns lookup and build (``_read_for``), the estimate, timing,
counters and results (``_run_estimate``) and epoch rebinding
(``_publish_epoch``).

Determinism: for a fixed :class:`ServiceConfig` seed, answers depend only
on (graph content, query) — batched, sequential, and sharded execution
return bit-for-bit identical values (see ``benchmarks/bench_serve.py``
and ``benchmarks/bench_serve_shard.py``).
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..analysis.bounds import GuaranteeReport, guarantee_report
from ..analysis.reliability import block_subgraphs
from ..core.api import coarsen_influence_graph
from ..core.dynamic import COIN_DISCIPLINES, coarsen_addressable
from ..core.frameworks import (
    MaximizationResult,
    estimate_on_coarse,
    maximize_on_coarse,
)
from ..core.parallel import _EXECUTORS
from ..core.result import CoarsenResult
from ..estimators import DEFAULT_ESTIMATOR, available_estimators
from ..errors import AlgorithmError, BudgetExceededError
from ..graph.influence_graph import InfluenceGraph
from ..obs import inc, observe, set_gauge, span
from ..rng import derive_entropy, ensure_rng
from ..sketch import DEFAULT_SKETCH_K, InfluenceOracle, sketch_eps
from .cache import ModelCache, ModelKey
from .pool import DEFAULT_CHUNK_SETS, SamplePool
from .shard import ShardError, ShardRuntime

__all__ = ["ServiceConfig", "QueryResult", "InfluenceService",
           "MAX_N_SAMPLES"]

#: Largest RR-set count a query (or ``ServiceConfig.n_samples``) may ask
#: for: 50 times IMM's default sample cap.  A larger request would tie up
#: a worker growing a pool that could never fit in memory, so it is a
#: typed error (an HTTP 400) instead.
MAX_N_SAMPLES = 100_000_000


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs for one :class:`InfluenceService` instance.

    Model parameters (``r``, ``seed``, ``sampler``, and the Algorithm 6
    round split that ``executor`` and ``workers`` select) enter the cache
    key — two services that build the same model share warm archives.
    The serving parameters (worker/queue/deadline) do not affect query
    *values*, only latency and degradation behaviour.
    """

    # -- model (these are part of the cache key) -----------------------
    r: int = 16
    seed: int = 0
    executor: str = "serial"
    workers: "int | None" = None
    #: Coin discipline for live-edge samples.  "stream" is Algorithm 1's
    #: sequential sampler; "addressable" uses counter-based per-edge coins
    #: (:mod:`repro.core.dynamic`), which is what makes live-graph serving
    #: possible: an incrementally maintained model is bit-for-bit a cold
    #: rebuild, so epoch versioning reduces to content addressing.
    sampler: str = "stream"
    # -- sketches ------------------------------------------------------
    model: str = "ic"
    n_samples: int = 10_000
    chunk_samples: int = DEFAULT_CHUNK_SETS
    min_samples: int = 128
    # -- estimator family ----------------------------------------------
    #: Which estimator family answers ``/estimate``: ``"ris"`` (default)
    #: scores the model's shared RR pool, ``"sketch"`` precomputes a
    #: bottom-k :class:`~repro.sketch.InfluenceOracle` per model epoch
    #: and answers point queries in O(1), ``"mc"`` simulates per query.
    #: ``/maximize`` always runs on the RR pool — greedy max coverage
    #: needs the full sets regardless of the read path.
    estimator: str = DEFAULT_ESTIMATOR
    #: Bottom-k sketch size for ``estimator="sketch"`` (accuracy knob:
    #: CV <= 1/sqrt(k - 2); see ``repro.sketch.sketch_eps``).
    sketch_k: int = DEFAULT_SKETCH_K
    #: Confidence parameter the sketch guarantee report is stated at.
    sketch_delta: float = 0.05
    # -- cache ---------------------------------------------------------
    max_models: int = 8
    max_bytes: "int | None" = None
    warm_dir: "str | None" = None
    # -- dispatch / backpressure ---------------------------------------
    max_workers: int = 4
    max_pending: int = 64
    deadline_seconds: "float | None" = None
    #: Size of the shard worker-process fleet (``None`` = in-process
    #: serving).  Sharding changes *where* pools grow, never query
    #: values: the indexed-stream discipline makes sharded answers
    #: bit-for-bit equal to in-process ones, so this knob — like the
    #: other serving knobs — stays out of the cache key.
    shard_workers: "int | None" = None
    # -- degradation reporting -----------------------------------------
    report_samples: int = 500
    # -- live-graph key derivation -------------------------------------
    #: Every Nth delta-epoch pays the full O(m) content hash instead of
    #: the O(|deltas|) chained digest: the chain is re-anchored to the
    #: true content address and the coarsener's maintained CSR arrays are
    #: integrity-checked against a cold rebuild.  1 audits every epoch
    #: (chaining effectively off).
    digest_audit_interval: int = 64

    def __post_init__(self) -> None:
        if self.r <= 0:
            raise ValueError("r must be positive")
        if self.executor not in _EXECUTORS:
            raise ValueError(
                f"executor must be one of {_EXECUTORS}, not {self.executor!r}"
            )
        if self.workers is not None and self.workers <= 0:
            raise ValueError("workers must be positive when given")
        if self.n_samples <= 0:
            raise ValueError("n_samples must be positive")
        if self.n_samples > MAX_N_SAMPLES:
            raise ValueError(f"n_samples must be at most {MAX_N_SAMPLES}")
        if not 0 < self.min_samples <= self.n_samples:
            raise ValueError("min_samples must lie in [1, n_samples]")
        if self.max_workers <= 0:
            raise ValueError("max_workers must be positive")
        if self.max_pending < 0:
            raise ValueError("max_pending must be non-negative")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive when given")
        if self.shard_workers is not None and self.shard_workers <= 0:
            raise ValueError("shard_workers must be positive when given")
        if self.digest_audit_interval <= 0:
            raise ValueError("digest_audit_interval must be positive")
        if self.sampler not in COIN_DISCIPLINES:
            raise ValueError(f"sampler must be one of {COIN_DISCIPLINES}")
        serveable = available_estimators(serving=True)
        if self.estimator not in serveable:
            raise ValueError(
                f"estimator must be one of {serveable}, not "
                f"{self.estimator!r}"
            )
        if self.sketch_k < 4:
            raise ValueError("sketch_k must be at least 4")
        if not 0 < self.sketch_delta < 1:
            raise ValueError("sketch_delta must lie in (0, 1)")
        if self.sampler == "addressable" and self.executor != "serial":
            raise ValueError(
                "sampler='addressable' implies executor='serial' (the "
                "addressable cold path is not parallelised)"
            )
        if self.sampler == "addressable" and self.workers is not None:
            raise ValueError(
                "sampler='addressable' takes no workers (the addressable "
                "cold path is not parallelised)"
            )


@dataclass
class QueryResult:
    """One answered estimate query, with its achieved accuracy.

    ``degraded`` is true when a deadline cut sampling short of
    ``requested_samples``; ``report`` then carries the Theorem 6.1/6.2
    guarantees instantiated at the *achieved* accuracy
    (``eps ~ 1/sqrt(n_samples)``).
    """

    value: float
    n_samples: int
    requested_samples: int
    degraded: bool = False
    seconds: float = 0.0
    report: "GuaranteeReport | None" = None
    extras: dict = field(default_factory=dict)


def _report(config: ServiceConfig, graph: InfluenceGraph,
            model: CoarsenResult, eps: float,
            subgraphs: "list[InfluenceGraph] | None" = None
            ) -> GuaranteeReport:
    """Theorems 6.1/6.2 for ``graph`` at estimation accuracy ``eps``
    (clamped to 1: a relative error above 1 is vacuous), over the
    ``subgraphs`` of the model's blocks when they are already cut."""
    return guarantee_report(
        graph, model,
        estimation_eps=min(1.0, eps),
        n_samples=config.report_samples,
        rng=ensure_rng(config.seed),
        subgraphs=subgraphs,
    )


class _SketchRead:
    """The bottom-k oracle read state of one model, plus its guarantees.

    The guarantee report is computed ONCE per oracle build (it pays an MC
    reliability estimation) and attached to every query answered from the
    oracle — recomputing it per query would forfeit the oracle's whole
    latency win.  The report needs only the sketch's eps, not the built
    oracle, so the cold read runs it on a side thread of its own while the
    calling thread builds the oracle (the service's dispatch pool is not
    used: the cold read already holds one of its workers).  ``fine`` is
    the fine graph the report translates to; a retained model served for
    a new fine-graph epoch keeps the oracle but restates the report
    (:meth:`bind`).  ``build_seconds`` and ``report_seconds`` are the wall
    time of the oracle build and of the latest report — the cold read's
    cost, surfaced under ``/stats``; on a cold read they overlap.
    """

    family = "sketch"

    def __init__(self, config: ServiceConfig, graph: InfluenceGraph,
                 model: CoarsenResult) -> None:
        self._config = config
        self.fine: "InfluenceGraph | None" = None
        eps = sketch_eps(config.sketch_k, config.sketch_delta)
        # Cut the blocks here, before the build: the cut's temporaries go
        # back to this thread's heap, which the build reuses, and the side
        # thread, whose heap the build cannot reuse, only draws coins.
        subgraphs = block_subgraphs(graph, model.partition)
        with ThreadPoolExecutor(1, thread_name_prefix="sketch-report") as side:
            report = side.submit(self._restate, graph, model, eps, subgraphs)
            del subgraphs
            start = time.perf_counter()
            self.oracle = InfluenceOracle(model.coarse, r=config.r,
                                          k=config.sketch_k,
                                          rng=ensure_rng(config.seed))
            self.build_seconds = time.perf_counter() - start
            report.result()
        observe("serve.sketch.build_seconds", self.build_seconds)
        inc("serve.sketch.builds")

    @property
    def graph(self) -> InfluenceGraph:
        """The coarse graph the oracle is bound to."""
        return self.oracle.graph

    def bind(self, graph: InfluenceGraph, model: CoarsenResult) -> None:
        """State Theorem 6.1, with the sketch's (eps, delta) envelope
        folded in, against fine graph ``graph`` (once per fine graph)."""
        if graph is not self.fine:
            self._restate(graph, model,
                          self.oracle.eps(self._config.sketch_delta))

    def _restate(self, graph: InfluenceGraph, model: CoarsenResult,
                 eps: float,
                 subgraphs: "list[InfluenceGraph] | None" = None) -> None:
        """Compute and time the report for ``graph`` at sketch ``eps``."""
        start = time.perf_counter()
        self.report = _report(self._config, graph, model, eps, subgraphs)
        self.report_seconds = time.perf_counter() - start
        observe("serve.sketch.report_seconds", self.report_seconds)
        self.fine = graph

    def read(self, requested: int, floor: int,
             deadline: "float | None") -> tuple:
        """The oracle answers at its sketch size ``k``, drawing nothing."""
        oracle, delta = self.oracle, self._config.sketch_delta
        return oracle, oracle.k, oracle.k, self.report, {
            "k": oracle.k, "r": oracle.r, "eps": oracle.eps(delta),
            "delta": delta}


@dataclass(frozen=True)
class _MonteCarloRead:
    """MC keeps no per-model state: every query simulates afresh."""

    seed: int
    family = "mc"

    def read(self, requested: int, floor: int,
             deadline: "float | None") -> tuple:
        from ..algorithms.monte_carlo import MonteCarloEstimator

        estimator = MonteCarloEstimator(requested, rng=ensure_rng(self.seed))
        return estimator, requested, requested, None, {}


class InfluenceService:
    """Cached, batched influence queries over arbitrary input graphs.

    >>> service = InfluenceService(ServiceConfig(r=8, n_samples=5_000))
    >>> service.estimate(graph, seeds=[0, 3]).value       # doctest: +SKIP
    >>> service.estimate_many(graph, [[0], [1], [2]])     # doctest: +SKIP
    >>> service.maximize(graph, k=10).seeds               # doctest: +SKIP

    Thread-safe and embeddable: the HTTP endpoint in :mod:`repro.serve.http`
    is a thin JSON wrapper over exactly these three methods.
    """

    def __init__(self, config: "ServiceConfig | None" = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.cache = ModelCache(
            max_models=self.config.max_models,
            max_bytes=self.config.max_bytes,
            warm_dir=self.config.warm_dir,
        )
        # The read-state table: every resident per-model read state (RR
        # pools, sketch oracles) under key.for_state(...) — see _read_for.
        #: guarded-by: _pool_lock
        self._pools: "dict[ModelKey, object]" = {}
        self._pool_lock = threading.Lock()
        #: guarded-by: _count_lock
        self._family_queries: "dict[str, int]" = {}
        self._count_lock = threading.Lock()
        self._dynamic: "list" = []  # attached DynamicModel lineages
        self._build_lock = threading.Lock()
        self._dispatch = ThreadPoolExecutor(
            max_workers=self.config.max_workers,
            thread_name_prefix="repro-serve",
        )
        # One slot per running query plus one per queued query; a submit
        # that finds no slot free is rejected instead of queueing.
        self._slots = threading.BoundedSemaphore(
            self.config.max_workers + self.config.max_pending
        )
        self._depth = 0  #: guarded-by: _depth_lock
        self._depth_lock = threading.Lock()
        self._closed = False
        # Shard fleet state.  The runtime is started lazily on the first
        # query so a service that never estimates pays no spawn cost; a
        # failure (start or mid-query) latches _shard_failed and the
        # service serves in-process for the rest of its life.
        self._shard: "ShardRuntime | None" = None  #: guarded-by: _shard_lock
        self._shard_failed = False  #: guarded-by: _shard_lock
        self._shard_error: "str | None" = None  #: guarded-by: _shard_lock
        self._shard_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Drain in-flight queries and release workers (threads and fleet)."""
        self._closed = True
        self._dispatch.shutdown(wait=True)
        with self._shard_lock:
            runtime, self._shard = self._shard, None
        if runtime is not None:
            runtime.close()

    def __enter__(self) -> "InfluenceService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Models
    # ------------------------------------------------------------------

    def key_for(self, graph: InfluenceGraph) -> ModelKey:
        """The cache key addressing ``graph`` under this service's config."""
        return ModelKey.for_graph(
            graph, r=self.config.r, seed=self.config.seed,
            executor=self.config.executor, workers=self.config.workers,
            sampler=self.config.sampler,
        )

    def model_for(self, graph: InfluenceGraph) -> CoarsenResult:
        """The coarsened model for ``graph`` — cached, warm-loaded, or built.

        Builds are single-flight: concurrent misses on the same (or any)
        key wait for one coarsening instead of racing — every caller then
        shares ONE model object, which the pool layer relies on (estimators
        are bound by object identity).
        """
        key = self.key_for(graph)
        model = self.cache.get(key)
        if model is not None:
            return model
        with self._build_lock:
            model = self.cache.peek(key)  # a racing builder may have won
            if model is not None:
                return model
            with span("serve.model.build", n=graph.n, m=graph.m,
                      r=self.config.r):
                if self.config.sampler == "addressable":
                    model = coarsen_addressable(
                        graph, self.config.r, seed=self.config.seed
                    )
                else:
                    model = coarsen_influence_graph(
                        graph,
                        self.config.r,
                        rng=ensure_rng(self.config.seed),
                        executor=self.config.executor,
                        workers=self.config.workers,
                    )
            self.cache.put(key, model)
            return model

    def persist(self, graph: InfluenceGraph) -> "str | None":
        """Write ``graph``'s model to the warm directory (build if needed).

        Returns the archive path, or ``None`` when the service has no
        ``warm_dir`` configured.
        """
        return self.cache.store_warm(self.key_for(graph), self.model_for(graph))

    # ------------------------------------------------------------------
    # Live graphs
    # ------------------------------------------------------------------

    def attach_dynamic(self, graph: InfluenceGraph):
        """Attach a live (mutating) lineage rooted at ``graph``.

        Returns a :class:`~repro.serve.dynamic.DynamicModel` whose
        ``insert_edge`` / ``delete_edge`` / ``apply_deltas`` maintain the
        cached model incrementally (Algorithm 7) and publish each new
        delta-epoch into this service's content-addressed cache.  Requires
        ``sampler="addressable"`` — under stream coins an incrementally
        maintained model would not match its own cold rebuild, breaking
        content addressing.
        """
        from .dynamic import DynamicModel

        dynamic = DynamicModel(self, graph)
        self._dynamic.append(dynamic)
        return dynamic

    def _publish_epoch(self, prev_key: ModelKey, key: ModelKey,
                       model: CoarsenResult, retained: bool) -> None:
        """Install a delta-epoch's model and rebind or drop its read state.

        Copy-on-publish: the previous epoch's cache line and read states
        are untouched objects — queries that resolved them keep a
        consistent view.  When the coarse graph survived the delta
        unchanged (``retained``), the *same* model object is republished
        under the new key and every read state of the previous epoch moves
        with it: a pool or oracle is a pure function of the coarse content
        and the config seed, and estimators bind by object identity, so
        prefix reuse keeps working (a sketch's translated report is
        restated lazily on the next query).  Otherwise each is dropped and
        rebuilt lazily on the next query — bit-for-bit a cold build at the
        new epoch.
        """
        self.cache.put(key, model)
        with self._pool_lock:
            for old in [k for k in self._pools
                        if k.for_state("model") == prev_key]:
                read = self._pools.pop(old)
                if retained and read.graph is model.coarse:
                    self._pools[key.for_state(old.state)] = read
                    inc(f"serve.dynamic.{old.state}.retained")
                elif old.state == "pool":  # counts the prefix it discards
                    inc("serve.dynamic.pool.invalidated_prefix", read.size)
                else:
                    inc(f"serve.dynamic.{old.state}.invalidated")

    def _read_for(self, graph: InfluenceGraph, model: CoarsenResult,
                  family: str):
        """The read state ``family``'s queries on ``graph`` are answered from.

        ``family`` is the served estimator family, or ``"pool"`` for the
        in-process RR pool (``maximize`` always runs there).  MC keeps no
        per-model state.  A ris read goes to the shard fleet while it is
        healthy; all other state lives in the one ``_pools`` table under
        ``key.for_state("pool" | "sketch")``, so RR pools and oracles of
        one model never collide.  An entry must be bound to exactly the
        model object queries score against (estimators bind by identity):
        a model that was evicted and rebuilt gets a fresh state — same
        seed, so the same values, just recomputed.  Builds are
        single-flight under ``_pool_lock``; state of evicted models is
        dropped with them.
        """
        if family == "mc":
            return _MonteCarloRead(self.config.seed)
        key = self.key_for(graph)
        runtime = self._shard_runtime() if family == "ris" else None
        if runtime is not None:
            try:
                # Entropy derivation matches SamplePool's exactly, so a
                # later fallback pool re-draws the same indexed streams.
                pool = runtime.pool_for(
                    key.token(), model.coarse,
                    derive_entropy(ensure_rng(self.config.seed)),
                )
                # Fleet-side cache eviction: drop models the parent cache
                # no longer holds (no-op when nothing was evicted).
                runtime.retain({k.token() for k in self.cache.keys()})
                return pool
            except ShardError as exc:
                self._disable_shard(exc)
        rkey = key.for_state("sketch" if family == "sketch" else "pool")
        with self._pool_lock:
            read = self._pools.get(rkey)
            if read is None or read.graph is not model.coarse:
                if rkey.state == "sketch":
                    read = _SketchRead(self.config, graph, model)
                else:
                    # One RNG stream per pool, seeded from the config so
                    # the pool contents depend only on (model, seed) — the
                    # source of the batched == sequential guarantee.
                    read = SamplePool(
                        model.coarse,
                        rng=ensure_rng(self.config.seed),
                        model=self.config.model,
                        chunk_sets=self.config.chunk_samples,
                    )
                self._pools[rkey] = read
                for stale in [k for k in self._pools
                              if k.for_state("model") not in self.cache]:
                    del self._pools[stale]
            read.bind(graph, model)
            return read

    # ------------------------------------------------------------------
    # Sharding
    # ------------------------------------------------------------------

    def _shard_runtime(self) -> "ShardRuntime | None":
        """The worker fleet, started lazily; ``None`` once sharding failed."""
        if self.config.shard_workers is None:
            return None
        with self._shard_lock:
            if self._shard_failed:
                return None
            if self._shard is None:
                try:
                    self._shard = ShardRuntime(
                        self.config.shard_workers,
                        model=self.config.model,
                        chunk_sets=self.config.chunk_samples,
                    )
                except ShardError as exc:
                    self._shard_failed = True
                    self._shard_error = str(exc)
                    inc("serve.shard.fallback")
                    return None
            return self._shard

    def _disable_shard(self, exc: ShardError) -> None:
        """Latch the fleet off after a failure (permanent for this service).

        The next query — and the retry of the one that tripped the
        failure — serves from in-process pools, whose indexed streams
        reproduce the exact samples the fleet would have drawn.
        """
        with self._shard_lock:
            runtime, self._shard = self._shard, None
            already = self._shard_failed
            self._shard_failed = True
            if self._shard_error is None:
                self._shard_error = str(exc)
        if not already:
            inc("serve.shard.fallback")
        if runtime is not None:
            runtime.close()

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------

    def _admit(self) -> None:
        if self._closed:
            raise AlgorithmError("service is closed")
        if not self._slots.acquire(blocking=False):
            inc("serve.rejected")
            raise BudgetExceededError(
                f"serve queue is full ({self.config.max_workers} running + "
                f"{self.config.max_pending} pending); retry later or raise "
                "max_pending"
            )
        with self._depth_lock:
            self._depth += 1
            set_gauge("serve.queue.depth", self._depth)

    def _release(self) -> None:
        with self._depth_lock:
            self._depth -= 1
            set_gauge("serve.queue.depth", self._depth)
        self._slots.release()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _requested_samples(self, n_samples: "int | None") -> int:
        """The query's RR-set count: ``n_samples`` or the configured one.

        Raises :class:`AlgorithmError` (an HTTP 400) outside
        ``[1, MAX_N_SAMPLES]``.
        """
        requested = self.config.n_samples if n_samples is None else n_samples
        if requested <= 0:
            raise AlgorithmError("n_samples must be positive")
        if requested > MAX_N_SAMPLES:
            raise AlgorithmError(
                f"n_samples must be at most {MAX_N_SAMPLES}, got {requested}")
        return requested

    def estimate(self, graph: InfluenceGraph, seeds: Sequence[int],
                 n_samples: "int | None" = None) -> QueryResult:
        """Estimate ``Inf_G(seeds)`` (Algorithm 3 over the cached model)."""
        return self.estimate_many(graph, [seeds], n_samples=n_samples)[0]

    def estimate_many(
        self,
        graph: InfluenceGraph,
        seed_sets: Sequence[Sequence[int]],
        n_samples: "int | None" = None,
    ) -> "list[QueryResult]":
        """Answer a batch of estimate queries against one shared model.

        All queries are admitted up front (so a batch larger than the free
        queue capacity raises :class:`BudgetExceededError` before any work
        starts), then coalesced onto the model's sample pool.  Results come
        back in input order and are bit-for-bit identical to issuing the
        queries one at a time.
        """
        if not seed_sets:
            return []
        requested = self._requested_samples(n_samples)
        # Resolve the model — and the family's read state — once, outside
        # the per-query slots.
        model = self.model_for(graph)
        read = self._read_for(graph, model, self.config.estimator)
        futures = []
        try:
            for seeds in seed_sets:
                self._admit()
                try:
                    futures.append(self._dispatch.submit(
                        self._run_estimate, graph, model, read, seeds,
                        requested,
                    ))
                except BaseException:
                    self._release()
                    raise
        except BaseException:
            # Roll back queries that never started; running ones release
            # their own slot from the worker.
            for future in futures:
                if future.cancel():
                    self._release()
            raise
        return [future.result() for future in futures]

    def _run_estimate(self, graph: InfluenceGraph, model: CoarsenResult,
                      read, seeds: Sequence[int],
                      requested: int) -> QueryResult:
        """Answer one admitted query from ``read``, then release its slot.

        The one estimate path of every family.  The read state supplies
        the estimator and what only it knows — the samples it achieved,
        its standing report and its extras; timing, the span, the
        counters, the deadline report and the shard fallback live here.
        """
        try:
            start = time.perf_counter()
            seeds_array = np.asarray(seeds, dtype=np.int64)
            floor = min(self.config.min_samples, requested)
            with span("serve.estimate", seeds=len(seeds),
                      n_samples=requested, estimator=read.family):
                while True:
                    deadline = None
                    if self.config.deadline_seconds is not None:
                        deadline = (time.monotonic()
                                    + self.config.deadline_seconds)
                    try:
                        (estimator, achieved, requested, report,
                         extras) = read.read(requested, floor, deadline)
                        value = estimate_on_coarse(model, seeds_array,
                                                   estimator)
                        break
                    except ShardError as exc:
                        # The fleet broke mid-query: latch it off and
                        # re-answer from an in-process pool — same indexed
                        # streams, same bits, just drawn locally.
                        self._disable_shard(exc)
                        read = self._read_for(graph, model, read.family)
            degraded = achieved < requested
            if degraded:
                # The RIS estimator's relative error concentrates as
                # O(1/sqrt(t)) in the sample count t: report what the
                # deadline actually bought.
                inc("serve.deadline.degraded")
                report = _report(self.config, graph, model,
                                 1.0 / math.sqrt(achieved))
            inc(f"serve.estimator.{read.family}.queries")
            with self._count_lock:
                self._family_queries[read.family] = (
                    self._family_queries.get(read.family, 0) + 1
                )
            inc("serve.queries")
            return QueryResult(
                value=value,
                n_samples=achieved,
                requested_samples=requested,
                degraded=degraded,
                seconds=time.perf_counter() - start,
                report=report,
                extras={"estimator": read.family, **extras},
            )
        finally:
            self._release()

    def maximize(self, graph: InfluenceGraph, k: int,
                 n_samples: "int | None" = None) -> MaximizationResult:
        """Pick a size-``k`` seed set (Algorithm 4 over the cached model).

        Deterministic for a fixed config: the sketch is the pool prefix and
        the pull-back RNG is re-seeded per call.  Maximization always runs
        on the in-process pool, sharded or not — greedy max coverage needs
        the full RR sets for decremental gains, which never cross the
        process boundary.  The in-process pool draws the same indexed
        streams the fleet does, so the sketch is the same either way.
        """
        requested = self._requested_samples(n_samples)
        model = self.model_for(graph)
        pool = self._read_for(graph, model, "pool")
        self._admit()
        try:
            future = self._dispatch.submit(
                self._run_maximize, model, pool, k, requested
            )
        except BaseException:
            self._release()
            raise
        return future.result()

    def _run_maximize(self, model: CoarsenResult, pool: SamplePool,
                      k: int, requested: int) -> MaximizationResult:
        try:
            with span("serve.maximize", k=k, n_samples=requested):
                pool.ensure(requested)
                result = maximize_on_coarse(
                    model, k, pool.maximizer(requested),
                    rng=ensure_rng(self.config.seed),
                )
            inc("serve.queries")
            return result
        finally:
            self._release()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """A JSON-able snapshot of cache and pool state (the ``/stats`` body)."""
        with self._shard_lock:
            shard = {
                "enabled": self.config.shard_workers is not None,
                "workers": self.config.shard_workers,
                "failed": self._shard_failed,
                "error": self._shard_error,
                "runtime": (self._shard.stats()
                            if self._shard is not None else None),
            }
        with self._count_lock:
            family_queries = dict(self._family_queries)
        # One lock-free snapshot: _pool_lock is held through an oracle
        # build, and token() hashes outside any lock.
        reads = self._pools.copy()
        oracles = [(key.token(), read) for key, read in reads.items()
                   if key.state == "sketch"]
        return {
            "models": len(self.cache),
            "model_bytes": self.cache.nbytes(),
            "pools": {
                key.token(): read.size for key, read in reads.items()
                if key.state == "pool"
            },
            "estimator": {
                "family": self.config.estimator,
                "queries": family_queries,
                "oracles": {
                    token: read.oracle.nbytes for token, read in oracles
                },
                "builds": {
                    token: {
                        "build_seconds": read.build_seconds,
                        "report_seconds": read.report_seconds,
                    }
                    for token, read in oracles
                },
            },
            "queue_depth": self._depth,
            "dynamic": [dynamic.stats() for dynamic in self._dynamic],
            "shard": shard,
            "config": {
                "r": self.config.r,
                "seed": self.config.seed,
                "executor": self.config.executor,
                "sampler": self.config.sampler,
                "estimator": self.config.estimator,
                "sketch_k": self.config.sketch_k,
                "n_samples": self.config.n_samples,
                "max_workers": self.config.max_workers,
                "max_pending": self.config.max_pending,
                "deadline_seconds": self.config.deadline_seconds,
                "shard_workers": self.config.shard_workers,
            },
        }
