"""The content-addressed model cache.

A *model* is one coarsening: a :class:`~repro.core.result.CoarsenResult`
produced from a specific input graph under specific parameters.  Queries
address models by :class:`ModelKey` — the graph's content digest plus every
parameter that changes the output — so two sessions (or two processes)
asking for the same coarsening hit the same cache line, and a graph edit
can never alias a stale model.

Eviction is LRU with two budgets: a model-count cap and an optional byte
budget over the resident CSR payloads.  Evicted models are recomputed on
the next miss; with a ``warm_dir`` the miss first consults the on-disk
archives written by :meth:`ModelCache.store_warm` (the
``core.persistence`` format with the key recorded in ``extras``), turning
a cold start into one ``np.load``.

Counters: ``serve.cache.hit`` / ``serve.cache.miss`` /
``serve.cache.evict`` / ``serve.cache.warm_hit``; gauge
``serve.cache.bytes``.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace

from ..core.persistence import (
    load_coarsening,
    peek_coarsening_meta,
    save_coarsening,
)
from ..core.result import CoarsenResult
from ..errors import GraphFormatError
from ..graph.influence_graph import InfluenceGraph
from ..obs import inc, set_gauge

__all__ = ["ModelKey", "ModelCache", "result_nbytes"]

_KEY_META_FIELD = "serve_model_key"


@dataclass(frozen=True)
class ModelKey:
    """Content address of one coarsened model.

    ``graph_digest`` is :meth:`InfluenceGraph.digest` — a hash of the CSR
    arrays and weights — so the key identifies the *input*, not a Python
    object.  The remaining fields are exactly the parameters that change
    the coarsening output; anything that does not stays out of the key.

    ``sampler`` names the coin discipline ("stream" for the sequential
    Algorithm 1 sampler, "addressable" for counter-based per-edge coins —
    see :mod:`repro.core.dynamic`).  It is part of the key *and* the warm
    stamp because the two disciplines realise different live-edge samples
    for the same seed.  For a live (mutating) graph this is also what makes
    epoch versioning content-addressed: each delta-epoch has a new graph
    digest, hence a new key — archives or cache lines from a previous
    epoch can never alias the current model, and a stale-epoch archive
    degrades to an ordinary miss.

    ``state`` names *which* derived artifact of the coarsening the key
    addresses: ``"model"`` for the :class:`CoarsenResult` itself, and a
    per-estimator name (``"pool"`` for shared RR pools, ``"sketch"`` for
    bottom-k oracles) for query-time read state derived from it.  Sketch
    state and RR pools for the same graph digest therefore live under
    *different* keys and can never collide or cross-rebind on eviction.
    """

    graph_digest: str
    r: int
    seed: int
    sampler: str = "stream"
    state: str = "model"

    @classmethod
    def for_graph(cls, graph: InfluenceGraph, *, r: int, seed: int,
                  sampler: str = "stream") -> "ModelKey":
        """The key addressing ``graph`` coarsened under these parameters."""
        return cls(graph_digest=graph.digest(), r=int(r), seed=int(seed),
                   sampler=sampler)

    def for_state(self, state: str) -> "ModelKey":
        """This key re-addressed to another derived artifact (``state``)."""
        return replace(self, state=state)

    def token(self) -> str:
        """A short filesystem-safe name for this key (warm archives)."""
        payload = "|".join([self.graph_digest, str(self.r), str(self.seed),
                            self.sampler, self.state])
        return hashlib.blake2b(payload.encode("utf-8"),
                               digest_size=12).hexdigest()

    def as_meta(self) -> dict:
        """The JSON form stamped into warm archives for validation."""
        return {
            "graph_digest": self.graph_digest,
            "r": self.r,
            "seed": self.seed,
            "sampler": self.sampler,
            "state": self.state,
        }


def result_nbytes(result: CoarsenResult) -> int:
    """Resident bytes of a model: the coarse CSR arrays plus the mapping."""
    coarse = result.coarse
    return int(
        coarse.indptr.nbytes + coarse.heads.nbytes + coarse.probs.nbytes
        + coarse.weights.nbytes + result.pi.nbytes
    )


class ModelCache:
    """LRU cache of coarsened models with a byte budget and warm start.

    Parameters
    ----------
    max_models:
        Resident model cap (LRU beyond it).
    max_bytes:
        Optional cap on the summed :func:`result_nbytes` of resident
        models; eviction runs LRU-first until under budget.  A single
        model larger than the budget is still admitted (the cache would
        otherwise be useless for it) and evicted on the next put.
    warm_dir:
        Optional directory of persisted models.  Misses probe
        ``<warm_dir>/<key.token()>.npz`` and validate the key stamped in
        the archive's meta before loading arrays.

    Thread-safe: the mutating paths (``get``/``put``) hold an internal
    lock; the introspection helpers read without one (a racy read of a
    size or key list is harmless).
    """

    def __init__(self, max_models: int = 8, max_bytes: "int | None" = None,
                 warm_dir: "str | os.PathLike[str] | None" = None) -> None:
        if max_models <= 0:
            raise ValueError("max_models must be positive")
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive when given")
        self.max_models = max_models
        self.max_bytes = max_bytes
        self.warm_dir = None if warm_dir is None else os.fspath(warm_dir)
        self._lock = threading.Lock()
        #: guarded-by: _lock
        self._models: "OrderedDict[ModelKey, CoarsenResult]" = OrderedDict()
        #: guarded-by: _lock
        self._bytes: "dict[ModelKey, int]" = {}

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------

    def peek(self, key: ModelKey) -> "CoarsenResult | None":
        """Resident-only lookup: no counters, no warm probe.

        Used by the service's single-flight build path to re-check after
        waiting on the build lock without double-counting a miss.
        """
        with self._lock:
            model = self._models.get(key)
            if model is not None:
                self._models.move_to_end(key)
            return model

    def get(self, key: ModelKey) -> "CoarsenResult | None":
        """The cached model for ``key``, or ``None`` (after a warm probe)."""
        with self._lock:
            model = self._models.get(key)
            if model is not None:
                self._models.move_to_end(key)
                inc("serve.cache.hit")
                return model
        warm = self._load_warm(key)
        if warm is not None:
            inc("serve.cache.warm_hit")
            self.put(key, warm)
            return warm
        inc("serve.cache.miss")
        return None

    def put(self, key: ModelKey, result: CoarsenResult) -> None:
        """Insert (or refresh) a model, evicting LRU past the budgets."""
        nbytes = result_nbytes(result)
        with self._lock:
            self._models[key] = result
            self._models.move_to_end(key)
            self._bytes[key] = nbytes
            while len(self._models) > self.max_models:
                self._evict_lru()
            if self.max_bytes is not None:
                while len(self._models) > 1 and self.nbytes() > self.max_bytes:
                    self._evict_lru()
            set_gauge("serve.cache.bytes", self.nbytes())

    def _evict_lru(self) -> None:
        evicted, _ = self._models.popitem(last=False)
        del self._bytes[evicted]
        inc("serve.cache.evict")

    # ------------------------------------------------------------------
    # Warm-start archives
    # ------------------------------------------------------------------

    def _warm_path(self, key: ModelKey) -> "str | None":
        if self.warm_dir is None:
            return None
        return os.path.join(self.warm_dir, key.token() + ".npz")

    def _load_warm(self, key: ModelKey) -> "CoarsenResult | None":
        path = self._warm_path(key)
        if path is None or not os.path.exists(path):
            return None
        try:
            meta = peek_coarsening_meta(path)
        except GraphFormatError:
            return None  # foreign or truncated file; treat as a cold miss
        stamped = (meta.get("extras") or {}).get(_KEY_META_FIELD)
        if stamped != key.as_meta():
            return None  # token collision or hand-renamed archive
        try:
            return load_coarsening(path)
        except GraphFormatError:
            return None  # corrupt warm archive degrades to a recompute

    def store_warm(self, key: ModelKey, result: CoarsenResult) -> "str | None":
        """Persist ``result`` under ``warm_dir`` for future cold starts.

        Stamps the key into ``stats.extras`` (round-tripped by the v2
        archive format) so :meth:`get` can validate a probe without
        loading arrays.  Returns the archive path, or ``None`` when the
        cache has no ``warm_dir``.
        """
        path = self._warm_path(key)
        if path is None:
            return None
        os.makedirs(self.warm_dir, exist_ok=True)
        result.stats.extras[_KEY_META_FIELD] = key.as_meta()
        save_coarsening(result, path)
        return path

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._models)

    def __contains__(self, key: ModelKey) -> bool:
        return key in self._models

    def keys(self) -> "list[ModelKey]":
        """Resident keys, least- to most-recently used."""
        return list(self._models)

    def nbytes(self) -> int:
        """Summed resident bytes of all cached models."""
        return sum(self._bytes.values())
