"""repro.serve — a cached, batched influence-query engine.

The paper's frameworks (Algorithms 3/4) are built around one expensive
preprocessing artifact — the coarsened graph ``H`` and its sketches — that
is amortised over many queries.  This package supplies the amortisation
layer the ROADMAP's "heavy traffic" north star needs, with no dependencies
beyond the library itself:

* :class:`ModelCache` (:mod:`.cache`) — a content-addressed LRU of
  coarsened models keyed by ``(graph digest, r, seed, executor,
  sampler)``, with a byte budget and optional warm-start from
  ``core.persistence`` archives;
* :class:`SamplePool` (:mod:`.pool`) — one shared, grow-only RR-set pool
  per model that concurrent queries are coalesced onto (one pool, many
  seed sets), with deadline-bounded growth for graceful degradation;
* :class:`InfluenceService` (:mod:`.service`) — the facade: ``estimate``,
  ``estimate_many``, ``maximize`` behind a thread-pool dispatcher with
  bounded-queue admission control (:class:`~repro.errors
  .BudgetExceededError` on overflow);
* :class:`DynamicModel` (:mod:`.dynamic`) — live-graph lineages: edge
  mutations maintained incrementally by Algorithm 7 under addressable
  coins and published as content-addressed delta-epochs, with
  epoch-consistent queries racing updates safely;
* :class:`ShardRuntime` (:mod:`.shard`) — optional multi-process serving:
  a persistent worker fleet attaches the coarse model over shared memory
  (:mod:`repro.graph.shm`) and owns strided shards of every pool, so
  batched estimates fan out across cores with bit-for-bit identical
  answers and graceful in-process fallback on worker crashes;
* :mod:`.http` — a small stdlib JSON endpoint (``repro serve``) for shell
  and load-test use.

``ServiceConfig(estimator=...)`` picks the family answering ``/estimate``
from the :mod:`repro.estimators` registry: ``"ris"`` (default, pooled),
``"sketch"`` (a precomputed bottom-k :class:`repro.sketch.InfluenceOracle`
per model epoch — O(1) point queries, no pool traffic), or ``"mc"``.
``/maximize`` always runs on the RR pool.

Every stage emits ``repro.obs`` spans and counters (``serve.cache.*``,
``serve.pool.reuse``, ``serve.queue.depth``, ``serve.deadline.degraded``);
see ``docs/serving.md`` for the cache-key/coalescing/backpressure
semantics and ``benchmarks/bench_serve.py`` for the throughput evidence.
"""

from .cache import ModelCache, ModelKey
from .dynamic import DynamicModel
from .pool import PoolMaximizer, SamplePool
from .service import InfluenceService, QueryResult, ServiceConfig
from .shard import ShardError, ShardPool, ShardRuntime

__all__ = [
    "InfluenceService",
    "ServiceConfig",
    "QueryResult",
    "DynamicModel",
    "ModelCache",
    "ModelKey",
    "SamplePool",
    "PoolMaximizer",
    "ShardError",
    "ShardPool",
    "ShardRuntime",
]
