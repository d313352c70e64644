"""The unified coarsening entry point.

:func:`coarsen_influence_graph` fronts the three coarsening algorithms —
Algorithm 1 (:mod:`.linear_space`), Algorithm 2 (:mod:`.sublinear_space`)
and Algorithm 6 (:mod:`.parallel`) — behind two orthogonal knobs:

* ``space`` — ``"linear"`` (in memory, the default) or ``"sublinear"``
  (disk streaming; the input is a :class:`~repro.storage.TripletStore` and
  the output lands at ``out_path``);
* ``workers`` — ``None`` (the default) runs Algorithm 1; an integer
  ``T`` runs Algorithm 6 on a ``T``-thread pool (linear space only),
  whose output is fixed by ``(r, workers, rng)``.
"""

from __future__ import annotations

import os

from ..errors import CoarseningError
from ..graph.influence_graph import InfluenceGraph
from ..storage.triplet_store import DEFAULT_CHUNK_EDGES, TripletStore
from .linear_space import coarsen_influence_graph as _coarsen_linear
from .parallel import coarsen_influence_graph_parallel as _coarsen_parallel
from .result import CoarsenResult
from .sublinear_space import SublinearResult
from .sublinear_space import (
    coarsen_influence_graph_sublinear as _coarsen_sublinear,
)

__all__ = ["coarsen_influence_graph"]

_SPACES = ("linear", "sublinear")


def coarsen_influence_graph(
    graph: "InfluenceGraph | TripletStore",
    r: int = 16,
    *,
    rng=None,
    workers: "int | None" = None,
    space: str = "linear",
    validate: bool = False,
    out_path: "str | os.PathLike[str] | None" = None,
    work_dir: "str | os.PathLike[str] | None" = None,
    chunk_edges: "int | None" = None,
    keep_sample_stores: bool = False,
) -> "CoarsenResult | SublinearResult":
    """Coarsen an influence graph by its r-robust SCC partition.

    One entry point for Algorithms 1, 2 and 6; the implementation is picked
    by ``space`` and ``workers``, and every combination draws from the same
    random stream discipline so equal parameters give equal output.

    Parameters
    ----------
    graph:
        The input influence graph: an :class:`InfluenceGraph` for
        ``space="linear"``, a disk-resident
        :class:`~repro.storage.TripletStore` for ``space="sublinear"``.
    r:
        Robustness parameter; the paper's sweet spot is 16 (Section 7.5).
    rng:
        Seed or generator; fixes the sampled live-edge graphs.
    workers:
        ``None`` runs Algorithm 1; an integer ``T`` runs Algorithm 6 on a
        thread pool of ``min(T, r)`` workers.  Linear space only.
    space:
        ``"linear"`` — everything in memory, O(n + m) resident;
        ``"sublinear"`` — Algorithm 2, O(V + F') resident, streaming from
        ``graph`` (a store) to ``out_path``.
    validate:
        Re-verify the strong-connectivity precondition before contracting
        (serial linear path only).
    out_path, work_dir, chunk_edges, keep_sample_stores:
        Sublinear-space knobs, as documented on Algorithm 2
        (:mod:`.sublinear_space`).  Rejected under ``space="linear"``.

    Returns
    -------
    CoarsenResult | SublinearResult
        A :class:`CoarsenResult` for ``space="linear"``; a (disk-backed)
        :class:`SublinearResult` for ``space="sublinear"`` — call its
        ``.load()`` to materialise a :class:`CoarsenResult`.
    """
    if space not in _SPACES:
        raise CoarseningError(f"space must be one of {_SPACES}")

    if space == "sublinear":
        if out_path is None:
            raise CoarseningError(
                "space='sublinear' streams the coarse graph to disk; "
                "pass out_path="
            )
        if workers is not None:
            raise CoarseningError(
                "space='sublinear' takes no workers= "
                "(Algorithm 2 streams one sample at a time)"
            )
        if validate:
            raise CoarseningError(
                "validate= is not supported for space='sublinear'"
            )
        return _coarsen_sublinear(
            graph,
            out_path,
            r=r,
            rng=rng,
            work_dir=work_dir,
            chunk_edges=(DEFAULT_CHUNK_EDGES if chunk_edges is None
                         else chunk_edges),
            keep_sample_stores=keep_sample_stores,
        )

    for name, value in (("out_path", out_path), ("work_dir", work_dir),
                        ("chunk_edges", chunk_edges)):
        if value is not None:
            raise CoarseningError(
                f"{name}= applies to space='sublinear' only"
            )
    if keep_sample_stores:
        raise CoarseningError(
            "keep_sample_stores= applies to space='sublinear' only"
        )
    if workers is None:
        return _coarsen_linear(graph, r=r, rng=rng, validate=validate)
    if validate:
        raise CoarseningError(
            "validate= is supported on the serial linear path only"
        )
    return _coarsen_parallel(graph, r=r, workers=workers, rng=rng)

