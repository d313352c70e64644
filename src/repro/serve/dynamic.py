""":class:`DynamicModel` — a live-graph lineage inside the serving layer.

Wires Algorithm 7 (:class:`repro.core.dynamic.DynamicCoarsener`) into
:class:`~.service.InfluenceService`: each edge mutation advances the
lineage by one *delta-epoch*, incrementally repairing the coarsened model
instead of cold-rebuilding it, and publishes the result into the
content-addressed :class:`~.cache.ModelCache`.

Epoch semantics
---------------

An epoch is one published state: ``(epoch, graph, key, model)``.  Because
the service runs the *addressable* coin discipline, the incrementally
maintained model at every epoch is bit-for-bit the cold
:func:`repro.core.dynamic.coarsen_addressable` of the mutated graph — so
the epoch's :class:`~.cache.ModelKey` is the address of the mutated
graph.  Consequences:

* ``/stats`` tokens and warm archives stay content-addressed across
  mutations; an archive written at epoch ``e`` reloads *only* for the
  graph of epoch ``e`` (stale-epoch archives degrade to a miss);
* an evicted epoch model is rebuilt cold to the identical bits, so pool
  rebinding after eviction cannot change query values;
* queries never observe a torn model: the published state is swapped as
  one tuple (copy-on-publish), and a reader that resolved epoch ``e``
  keeps epoch ``e``'s immutable graph/model/pool objects for its whole
  query even if a delta lands concurrently.

Writers are serialised per lineage by a mutation lock; readers take no
lock at all (a single attribute read of the current tuple is atomic).

Chained epoch keys
------------------

Hashing the whole CSR at every delta-epoch would make each single-edge
mutation O(n + m) regardless of how cheap the incremental repair was.
Instead the lineage maintains a *digest chain*: epoch ``e+1``'s graph
digest is ``blake2b(chain_e || canonical delta encoding)``
(:func:`chain_digest`), installed into the fresh graph object's lazy
digest slot before ``key_for`` runs — O(|deltas|) per epoch.  The chain
is anchored at the root graph's true content digest and **re-anchored**
every :attr:`~.service.ServiceConfig.digest_audit_interval` epochs: the
audit pays the full content hash, re-converging lineage addressing with
content addressing (a batch that nets out leaves content equal but the
chain advanced), and integrity-checks the maintained edge arrays against
a cold re-canonicalisation — drift raises instead of poisoning the
cache.  Within a lineage the chained digest is injective over delta
histories, so all the epoch-key guarantees above are preserved.

Counters/spans (see ``docs/observability.md``): span
``serve.dynamic.apply``; counters ``serve.dynamic.deltas``,
``serve.dynamic.fast_updates``, ``serve.dynamic.scc_recomputations``,
``serve.dynamic.full_rebuilds``, ``serve.dynamic.pool.retained``,
``serve.dynamic.pool.invalidated_prefix``, ``serve.dynamic.key.chained``,
``serve.dynamic.key.audits``, ``serve.dynamic.key.drift``; gauge
``serve.dynamic.epoch``.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..core.dynamic import Delta, DynamicCoarsener
from ..core.frameworks import MaximizationResult
from ..core.result import CoarsenResult
from ..errors import AlgorithmError
from ..graph.influence_graph import InfluenceGraph
from ..obs import inc, set_gauge, span
from .cache import ModelKey

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .service import InfluenceService, QueryResult

__all__ = ["DynamicModel", "chain_digest"]


def chain_digest(parent: str, deltas: Sequence[Delta]) -> str:
    """The chained epoch digest: ``blake2b(parent || canonical deltas)``.

    Each delta is encoded canonically — a one-byte op tag, ``u`` and ``v``
    as 8-byte little-endian integers, and the probability as a float64
    (NaN for deletes, which carry none) — so the chain is a pure function
    of ``(parent digest, delta sequence)`` and costs O(|deltas|), not the
    O(n + m) full content hash.  Two lineages that applied the same delta
    sequence from the same anchor share every chained key.
    """
    h = hashlib.blake2b(parent.encode("ascii"), digest_size=16)
    for d in deltas:
        p = float("nan") if d.p is None else float(d.p)
        h.update(struct.pack("<cqqd", d.op[:1].encode("ascii"), d.u, d.v, p))
    return h.hexdigest()


class DynamicModel:
    """One mutating influence graph served through an InfluenceService.

    Construct via :meth:`InfluenceService.attach_dynamic`.  Mutations
    (:meth:`insert_edge`, :meth:`delete_edge`, :meth:`apply_deltas`) are
    validated all-or-nothing, applied incrementally, and published
    atomically; queries (:meth:`estimate`, :meth:`maximize`) resolve the
    current epoch once and return ``(epoch, result)`` pairs that are
    always mutually consistent.
    """

    def __init__(self, service: "InfluenceService",
                 graph: InfluenceGraph) -> None:
        config = service.config
        if config.sampler != "addressable":
            raise AlgorithmError(
                "live graphs need ServiceConfig(sampler='addressable'): "
                "stream coins make the incremental model diverge from its "
                "own cold rebuild, breaking the content-addressed cache"
            )
        self._service = service
        self._mutate_lock = threading.Lock()
        self._coarsener = DynamicCoarsener(
            graph, r=config.r, rng=config.seed, coins="addressable"
        )
        key = service.key_for(graph)
        # Epoch-key chain, anchored at the root graph's true content
        # digest; advanced per batch by chain_digest and re-anchored (plus
        # integrity-checked) every ``digest_audit_interval`` epochs.
        self._chain = key.graph_digest  #: guarded-by: _mutate_lock
        model = self._coarsener.snapshot()
        service.cache.put(key, model)
        # The whole published state is one tuple so readers can never see
        # an epoch paired with another epoch's graph or model.
        #: guarded-by: _mutate_lock
        self._current: "tuple[int, InfluenceGraph, ModelKey, CoarsenResult]" \
            = (0, graph, key, model)
        set_gauge("serve.dynamic.epoch", 0)
        inc("serve.dynamic.attach")

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def resolve(self) -> "tuple[int, InfluenceGraph, ModelKey, CoarsenResult]":
        """The current ``(epoch, graph, key, model)`` — one atomic read."""
        return self._current

    @property
    def epoch(self) -> int:
        return self._current[0]

    @property
    def graph(self) -> InfluenceGraph:
        return self._current[1]

    @property
    def key(self) -> ModelKey:
        return self._current[2]

    @property
    def model(self) -> CoarsenResult:
        return self._current[3]

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------

    def insert_edge(self, u: int, v: int, p: float) -> dict:
        """Insert edge ``(u, v)`` with probability ``p``; bump the epoch."""
        return self.apply_deltas([Delta("insert", u, v, p)])

    def delete_edge(self, u: int, v: int) -> dict:
        """Delete edge ``(u, v)``; bump the epoch."""
        return self.apply_deltas([Delta("delete", u, v)])

    def _derive_epoch_digest(self, graph: InfluenceGraph,
                             deltas: Sequence[Delta], epoch: int) -> None:
        """Advance the epoch-key chain and stamp ``graph`` with its digest.

        Ordinary epochs install the O(|deltas|) chained digest
        (:func:`chain_digest`) into the fresh graph object's lazy digest
        slot, so the subsequent ``key_for`` — and every archive or cache
        line derived from it — never re-hashes the full CSR arrays.  Every
        ``digest_audit_interval``-th epoch instead pays the full content
        hash: the chain re-anchors to the true content address (bounding
        how long a lineage key can diverge from content addressing, e.g.
        after a batch that nets out) and the maintained CSR arrays are
        integrity-checked against a cold re-canonicalisation — a drifted
        array state raises instead of silently poisoning the cache.
        """
        interval = self._service.config.digest_audit_interval
        if epoch % interval:
            self._chain = chain_digest(self._chain, deltas)
            graph._install_digest(self._chain)
            inc("serve.dynamic.key.chained")
            return
        true_digest = graph.digest()
        rebuilt = InfluenceGraph.from_edges(graph.n, *graph.edge_arrays())
        if rebuilt.digest() != true_digest:
            inc("serve.dynamic.key.drift")
            raise AlgorithmError(
                "digest audit failed: the incrementally maintained edge "
                "arrays no longer match their cold canonical form "
                f"(epoch {epoch})"
            )
        self._chain = true_digest
        inc("serve.dynamic.key.audits")

    def apply_deltas(self, deltas: Sequence[Delta]) -> dict:
        """Apply one batch of edge mutations as a single delta-epoch.

        All-or-nothing: a malformed delta raises before any state changes
        and the epoch does not advance.  On success the new model is
        published copy-on-publish (readers of the previous epoch are
        undisturbed) and a JSON-able summary is returned.
        """
        deltas = list(deltas)
        with self._mutate_lock:
            stats = self._coarsener.stats
            before_fast = stats.fast_updates
            before_scc = stats.scc_recomputations
            before_rebuilds = stats.full_rebuilds
            with span("serve.dynamic.apply", deltas=len(deltas)):
                summary = self._coarsener.apply_deltas(deltas)
                prev_epoch, _, prev_key, prev_model = self._current
                graph = self._coarsener.current_graph()
                self._derive_epoch_digest(graph, deltas, prev_epoch + 1)
                key = self._service.key_for(graph)
                # If the coarse graph survived the delta bit-for-bit, keep
                # the previous model OBJECT so the pool's identity binding
                # (and its already-drawn prefix) stays valid.  The fast
                # path reports this exactly (`coarse_changed` flips only on
                # a bitwise H change), so no digest comparison — or even a
                # snapshot — is needed to retain; after a full rebuild the
                # digests arbitrate (a rebuild may still reproduce H).
                if not summary["coarse_changed"]:
                    retained = True
                    model = prev_model
                elif not summary["rebuilt"]:
                    retained = False
                    model = self._coarsener.snapshot()
                else:
                    snapshot = self._coarsener.snapshot()
                    retained = (
                        snapshot.coarse.digest() == prev_model.coarse.digest()
                        and np.array_equal(snapshot.pi, prev_model.pi)
                    )
                    model = prev_model if retained else snapshot
                epoch = prev_epoch + 1
                self._service._publish_epoch(prev_key, key, model,
                                             retained=retained)
                self._current = (epoch, graph, key, model)
            inc("serve.dynamic.deltas", len(deltas))
            inc("serve.dynamic.fast_updates",
                stats.fast_updates - before_fast)
            inc("serve.dynamic.scc_recomputations",
                stats.scc_recomputations - before_scc)
            inc("serve.dynamic.full_rebuilds",
                stats.full_rebuilds - before_rebuilds)
            set_gauge("serve.dynamic.epoch", epoch)
        return {
            "epoch": epoch,
            "token": key.token(),
            "applied": summary["applied"],
            "fast": summary["fast"],
            "rebuilt": summary["rebuilt"],
            "model_retained": retained,
        }

    # ------------------------------------------------------------------
    # Queries (epoch-consistent)
    # ------------------------------------------------------------------

    def estimate(self, seeds: Sequence[int],
                 n_samples: "int | None" = None) -> "tuple[int, QueryResult]":
        """Estimate on the current epoch; returns ``(epoch, result)``.

        The pair is self-consistent under concurrent mutation: the epoch's
        immutable graph is resolved in the same atomic read as the epoch
        number, so the result is always *exactly* the answer for that
        epoch — never a blend of two.
        """
        epoch, graph, _, _ = self._current
        return epoch, self._service.estimate(graph, seeds,
                                             n_samples=n_samples)

    def maximize(self, k: int,
                 n_samples: "int | None" = None
                 ) -> "tuple[int, MaximizationResult]":
        """Seed selection on the current epoch; returns ``(epoch, result)``."""
        epoch, graph, _, _ = self._current
        return epoch, self._service.maximize(graph, k, n_samples=n_samples)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """A JSON-able lineage summary (embedded in the ``/stats`` body)."""
        epoch, graph, key, model = self._current
        return {
            "epoch": epoch,
            "token": key.token(),
            "n": graph.n,
            "m": graph.m,
            "coarse_n": model.coarse.n,
            "coarse_m": model.coarse.m,
            "updates": self._coarsener.stats.as_dict(),
        }
