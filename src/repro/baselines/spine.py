"""SPINE (Mathioudakis et al., KDD 2011 [33]) — sparsification baseline.

SPINE keeps the ``k`` edges that maximise the log-likelihood of an observed
cascade log under the IC model, deleting the rest.  It works in a different
scenario from coarsening — it needs a *trace of past cascades* — so, as in
the paper's Section 7.7 comparison, cascades are generated by Monte-Carlo
simulation from random seeds and fed to the algorithm, and the edge budget
``k`` is chosen to match the edge-reduction ratio of the proposed method.

Structure (faithful to the published two-phase greedy):

* **Phase 1** makes the log-likelihood finite: every observed activation
  must retain at least one candidate parent edge; a set-cover-style greedy
  picks the edge covering the most still-uncovered activations (ties broken
  by likelihood gain).
* **Phase 2** greedily adds the edge with the maximum marginal gain in
  log-likelihood until the budget is spent.

The per-candidate gain scan is O(|E| * cascade activations) per selected
edge, which is why SPINE only finishes on the smallest dataset in Table 6 —
the cost profile this reimplementation deliberately retains.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass

import numpy as np

from ..diffusion.reachability import gather_ranges, sorted_distinct
from ..errors import AlgorithmError
from ..graph.influence_graph import InfluenceGraph
from ..rng import ensure_rng

__all__ = ["Cascade", "generate_cascades", "spine"]


@dataclass
class Cascade:
    """One observed diffusion trace: ``step[v]`` is v's activation step (-1
    if never activated)."""

    steps: np.ndarray


def generate_cascades(
    graph: InfluenceGraph, n_cascades: int, rng=None
) -> list[Cascade]:
    """Simulate IC cascades from random single seeds, recording step times."""
    rng = ensure_rng(rng)
    cascades = []
    for _ in range(n_cascades):
        seed = int(rng.integers(graph.n))
        steps = np.full(graph.n, -1, dtype=np.int64)
        steps[seed] = 0
        frontier = np.asarray([seed], dtype=np.int64)
        t = 0
        while frontier.size:
            edge_idx = gather_ranges(
                graph.indptr[frontier], graph.indptr[frontier + 1]
            )
            if edge_idx.size == 0:
                break
            success = rng.random(edge_idx.size) < graph.probs[edge_idx]
            targets = graph.heads[edge_idx[success]]
            new = sorted_distinct(targets[steps[targets] == -1])
            if new.size == 0:
                break
            t += 1
            steps[new] = t
            frontier = new
        cascades.append(Cascade(steps=steps))
    return cascades


class _EventIndex:
    """Bidirectional index between activation events and candidate edges."""

    def __init__(self, events: list[list[int]], edge_events: list[list[int]]):
        self.events = events  # event id -> candidate edge ids
        self.edge_events = edge_events  # edge id -> event ids it can explain


def _candidate_edges(graph: InfluenceGraph, cascades: list[Cascade]) -> _EventIndex:
    """Index which edges could explain which observed activations.

    An edge ``(u, v)`` is a candidate parent for the activation of ``v`` at
    step ``t + 1`` in a cascade where ``u`` activated at step ``t``.
    """
    tails, heads, _ = graph.edge_arrays()
    events: list[list[int]] = []
    edge_events: list[list[int]] = [[] for _ in range(graph.m)]
    for cascade in cascades:
        steps = cascade.steps
        explains = (steps[tails] >= 0) & (steps[heads] == steps[tails] + 1)
        edge_ids = np.nonzero(explains)[0]
        # Group candidate edges by the activation event they explain.
        by_target: dict[int, list[int]] = {}
        for e in edge_ids.tolist():
            by_target.setdefault(int(heads[e]), []).append(e)
        for _, cand in sorted(by_target.items()):
            event_id = len(events)
            events.append(cand)
            for e in cand:
                edge_events[e].append(event_id)
    return _EventIndex(events, edge_events)


def _log_likelihood_gain(
    edge: int,
    probs: np.ndarray,
    index: _EventIndex,
    event_miss_log: np.ndarray,
) -> float:
    """Marginal gain of adding ``edge``.

    For each event the edge can explain, the selected-edge success
    probability goes from ``1 - exp(L)`` to ``1 - exp(L + log(1 - p))``
    where ``L`` is the accumulated log-miss of already-selected candidates.
    """
    p = probs[edge]
    log_miss = math.log1p(-p) if p < 1.0 else -math.inf
    gain = 0.0
    for event in index.edge_events[edge]:
        before = event_miss_log[event]
        after = before + log_miss
        # log(1 - exp(after)) - log(1 - exp(before)); before == 0 means no
        # candidate selected yet (likelihood would be -inf), so any first
        # cover has large finite gain capped for stability.
        lik_before = -50.0 if before == 0.0 else math.log(-math.expm1(before))
        lik_after = math.log(-math.expm1(after)) if after < 0.0 else -50.0
        gain += lik_after - lik_before
    return gain


def spine(
    graph: InfluenceGraph,
    n_keep: int,
    cascades: list[Cascade],
) -> tuple[InfluenceGraph, dict]:
    """Sparsify ``graph`` to its ``n_keep`` most explanatory edges.

    Returns the sparsified graph plus run statistics.
    """
    if not 0 < n_keep <= graph.m:
        raise AlgorithmError("n_keep must lie in [1, m]")
    t0 = time.perf_counter()
    index = _candidate_edges(graph, cascades)
    n_events = len(index.events)
    event_miss_log = np.zeros(n_events, dtype=np.float64)  # 0.0 => uncovered
    selected: list[int] = []
    selected_mask = np.zeros(graph.m, dtype=bool)
    probs = graph.probs

    def add_edge(e: int) -> None:
        selected.append(e)
        selected_mask[e] = True
        log_miss = math.log1p(-probs[e]) if probs[e] < 1.0 else -np.inf
        for event in index.edge_events[e]:
            event_miss_log[event] += log_miss

    # ---- Phase 1: cover every activation event (lazy set-cover greedy) ----
    # Cover counts only shrink as events get covered, so stale heap entries
    # are upper bounds and lazy evaluation is exact.
    uncovered = set(range(n_events))
    heap: list[tuple[int, int]] = [
        (-len(index.edge_events[e]), e)
        for e in range(graph.m)
        if index.edge_events[e]
    ]
    heapq.heapify(heap)
    while uncovered and len(selected) < n_keep and heap:
        neg_cover, e = heapq.heappop(heap)
        if selected_mask[e]:
            continue
        cover = sum(1 for ev in index.edge_events[e] if ev in uncovered)
        if cover == 0:
            continue
        if heap and cover < -heap[0][0]:
            heapq.heappush(heap, (-cover, e))
            continue
        add_edge(e)
        uncovered.difference_update(index.edge_events[e])

    # ---- Phase 2: lazy greedy likelihood maximisation (CELF-style) ----
    # The likelihood is submodular in the selected edge set, so the same
    # lazy-evaluation trick applies — this is also how the original SPINE
    # stays tractable.
    gain_heap: list[tuple[float, int, int]] = []
    round_no = 0
    for e in range(graph.m):
        if not selected_mask[e] and index.edge_events[e]:
            gain = _log_likelihood_gain(e, probs, index, event_miss_log)
            gain_heap.append((-gain, e, round_no))
    heapq.heapify(gain_heap)
    while len(selected) < n_keep and gain_heap:
        round_no += 1
        while gain_heap:
            neg_gain, e, computed_at = heapq.heappop(gain_heap)
            if selected_mask[e]:
                continue
            if computed_at == round_no:
                add_edge(e)
                break
            gain = _log_likelihood_gain(e, probs, index, event_miss_log)
            heapq.heappush(gain_heap, (-gain, e, round_no))
        else:
            break

    keep = np.zeros(graph.m, dtype=bool)
    keep[selected] = True
    tails, heads, ps = graph.edge_arrays()
    sparse = InfluenceGraph.from_edges(
        graph.n, tails[keep], heads[keep], ps[keep]
    )
    stats = {
        "method": "spine",
        "seconds": time.perf_counter() - t0,
        "events": n_events,
        "kept_edges": len(selected),
        "uncovered_events": len(uncovered),
    }
    return sparse, stats
