"""Strongly-connected-component algorithms.

One kernel per job:

* :func:`scc_labels` — the in-memory routine every CSR caller uses
  (Algorithms 1, 6 and 7): the vectorised forward–backward decomposition
  with trimming and a coloring phase (:mod:`repro.scc.fwbw`), wrapped in an
  ``scc_labels`` span and the ``scc.runs`` counter;
* :func:`semi_external_scc_labels` — the streaming routine Algorithm 2 runs
  on disk pair stores with O(V) resident state
  (:mod:`repro.scc.semi_external`).

:func:`tarjan_scc_labels` (iterative Tarjan) and
:func:`kosaraju_scc_labels` (two-pass Kosaraju) are independent reference
implementations: the test suite and ``bench_ablation_scc`` cross-check
the kernel against them.  No library path dispatches to them.
"""

from __future__ import annotations

import numpy as np

from ..obs import inc, span
from .fwbw import FwbwStats, fwbw_scc_labels
from .kosaraju import kosaraju_scc_labels
from .semi_external import SemiExternalStats, semi_external_scc_labels
from .tarjan import tarjan_scc_labels

__all__ = [
    "scc_labels",
    "fwbw_scc_labels",
    "tarjan_scc_labels",
    "kosaraju_scc_labels",
    "semi_external_scc_labels",
    "FwbwStats",
    "SemiExternalStats",
]


def scc_labels(indptr: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Label every vertex of a CSR digraph with its SCC id.

    Runs :func:`~repro.scc.fwbw.fwbw_scc_labels`.  Label numbering is
    implementation-defined; canonicalise with
    :class:`repro.partition.Partition` before comparing with a reference.
    """
    with span("scc_labels", n=int(indptr.size - 1), m=int(heads.size)):
        inc("scc.runs")
        return fwbw_scc_labels(indptr, heads)
