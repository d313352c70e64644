"""Stateful differential proof: dynamic serving == cold rebuild, always.

A Hypothesis :class:`RuleBasedStateMachine` drives a live
:class:`~repro.serve.DynamicModel` through random insert / delete /
mixed-batch / estimate / maximize steps and, after *every* step, checks
the maintained model against a cold :func:`repro.core.coarsen_addressable`
of the mutated graph with the same seed:

* ``H`` bit-for-bit (CSR digest covers heads, probs and vertex weights —
  i.e. every coarse edge bundle probability),
* ``pi`` element-for-element and the partition itself,
* query answers equal to those of a *fresh* service over the mutated
  graph (so the whole pool/estimator path agrees, not just the model),
* pruning accounting: every mutation, alone or in a batch, touches each
  of the ``r`` samples exactly once — as a coin-flip skip, a
  structure-preserving pruned hit (counted inside ``scc_skipped``, broken
  out as ``scc_pruned``), or an SCC recomputation — so
  ``scc_skipped + scc_recomputations == r * (insertions + deletions)``.

The suite carries ``@pytest.mark.dynamic``; CI runs it in a dedicated
job with a bounded example budget (the settings below keep a full run in
seconds, not minutes).
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core import Delta, coarsen_addressable
from repro.serve import InfluenceService, ServiceConfig
from .conftest import random_graph

pytestmark = pytest.mark.dynamic

N_VERTICES = 10
_CONFIG = dict(r=3, seed=11, sampler="addressable", n_samples=512,
               min_samples=64, max_workers=2)


class DynamicDifferentialMachine(RuleBasedStateMachine):
    """Random mutations + queries, cold-rebuild-checked after every step."""

    def __init__(self) -> None:
        super().__init__()
        self.service = InfluenceService(ServiceConfig(**_CONFIG))
        # A fresh service per machine would also work for the query oracle,
        # but sharing one keeps the run inside the example budget; its cache
        # never aliases the dynamic lineage because keys are content
        # addresses of distinct graphs.
        self.oracle = InfluenceService(ServiceConfig(**_CONFIG))
        self.dynamic = None
        self.edges: "dict[tuple[int, int], float]" = {}

    @initialize(seed=st.integers(min_value=0, max_value=5))
    def attach(self, seed: int) -> None:
        graph = random_graph(N_VERTICES, 22, seed=seed, p_low=0.2, p_high=1.0)
        tails, heads, probs = graph.edge_arrays()
        self.edges = {
            (int(u), int(v)): float(p) for u, v, p in zip(tails, heads, probs)
        }
        self.dynamic = self.service.attach_dynamic(graph)

    # -- mutations -----------------------------------------------------

    @rule(data=st.data(),
          p=st.floats(min_value=0.05, max_value=1.0,
                      allow_nan=False, allow_infinity=False))
    def insert(self, data, p: float) -> None:
        absent = sorted(
            (u, v)
            for u in range(N_VERTICES) for v in range(N_VERTICES)
            if u != v and (u, v) not in self.edges
        )
        if not absent:
            return
        u, v = data.draw(st.sampled_from(absent), label="new edge")
        out = self.dynamic.insert_edge(u, v, p)
        self.edges[(u, v)] = p
        assert out["applied"] == 1
        assert out["epoch"] == self.dynamic.epoch

    @rule(data=st.data())
    def delete(self, data) -> None:
        if not self.edges:
            return
        u, v = data.draw(st.sampled_from(sorted(self.edges)), label="victim")
        out = self.dynamic.delete_edge(u, v)
        del self.edges[(u, v)]
        assert out["applied"] == 1

    @rule(data=st.data(), size=st.integers(min_value=2, max_value=6))
    def apply_batch(self, data, size: int) -> None:
        """One batch of mixed deltas; a later delta may undo, re-insert or
        re-weight an edge an earlier one touched."""
        edges = dict(self.edges)
        deltas = []
        for _ in range(size):
            absent = sorted(
                (u, v)
                for u in range(N_VERTICES) for v in range(N_VERTICES)
                if u != v and (u, v) not in edges
            )
            if edges and (not absent
                          or data.draw(st.booleans(), label="delete")):
                u, v = data.draw(st.sampled_from(sorted(edges)),
                                 label="victim")
                del edges[(u, v)]
                deltas.append(Delta("delete", u, v))
                continue
            u, v = data.draw(st.sampled_from(absent), label="new edge")
            p = data.draw(st.floats(min_value=0.05, max_value=1.0),
                          label="p")
            edges[(u, v)] = p
            deltas.append(Delta("insert", u, v, p))
        out = self.dynamic.apply_deltas(deltas)
        self.edges = edges
        assert out["applied"] == size
        assert out["epoch"] == self.dynamic.epoch

    # -- queries -------------------------------------------------------

    @rule(data=st.data())
    def estimate(self, data) -> None:
        seeds = data.draw(
            st.lists(st.integers(min_value=0, max_value=N_VERTICES - 1),
                     min_size=1, max_size=3, unique=True),
            label="seeds",
        )
        epoch, result = self.dynamic.estimate(seeds)
        assert epoch == self.dynamic.epoch
        expected = self.oracle.estimate(self.dynamic.graph, seeds)
        assert result.value == expected.value

    @rule(k=st.integers(min_value=1, max_value=3))
    def maximize(self, k: int) -> None:
        epoch, result = self.dynamic.maximize(k)
        expected = self.oracle.maximize(self.dynamic.graph, k)
        assert list(result.seeds) == list(expected.seeds)
        assert result.estimated_influence == expected.estimated_influence

    # -- the differential invariant ------------------------------------

    @invariant()
    def dynamic_equals_cold_rebuild(self) -> None:
        if self.dynamic is None:
            return
        graph = self.dynamic.graph
        # The mirror and the served graph must agree exactly.
        tails, heads, probs = graph.edge_arrays()
        served = {
            (int(u), int(v)): float(p) for u, v, p in zip(tails, heads, probs)
        }
        assert served == self.edges
        cold = coarsen_addressable(graph, r=_CONFIG["r"],
                                   seed=_CONFIG["seed"])
        model = self.dynamic.model
        assert model.coarse.digest() == cold.coarse.digest()
        assert np.array_equal(model.pi, cold.pi)
        assert model.partition == cold.partition

    @invariant()
    def pruning_counters_consistent(self) -> None:
        if self.dynamic is None:
            return
        stats = self.dynamic._coarsener.stats
        mutations = stats.insertions + stats.deletions
        assert (stats.scc_skipped + stats.scc_recomputations
                == _CONFIG["r"] * mutations)
        assert stats.scc_pruned <= stats.scc_skipped
        assert stats.full_rebuilds <= mutations

    def teardown(self) -> None:
        self.service.close()
        self.oracle.close()


DynamicDifferentialMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=12, deadline=None,
)
TestDynamicDifferential = DynamicDifferentialMachine.TestCase
