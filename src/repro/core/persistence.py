"""Saving and loading coarsening results.

Coarsening is a preprocessing investment: the paper's workflow computes
``H`` and ``pi`` once and amortises them over many influence queries
(Section 6).  This module persists a :class:`CoarsenResult` as a single
``.npz`` archive — CSR arrays, vertex weights, the correspondence mapping
and the run statistics — so later sessions (or other processes) can load it
without recomputing.

Format: numpy's compressed archive with a format-version field; refuses to
load archives written by a newer layout.  Version history:

* **v1** — CSR arrays, ``pi``, and the scalar :class:`CoarsenStats`
  fields.
* **v2** — adds ``stage_seconds`` (the per-stage wall-time breakdown) and
  ``extras`` (run provenance: workers/rounds for parallel runs,
  ``f_prime_edges`` for sublinear runs, ...) to the JSON meta blob, so a
  round trip is lossless for every stats field.  v1 archives still load —
  the two dicts simply come back empty.

Paths are normalised to carry the ``.npz`` suffix *before* hitting numpy:
``np.savez_compressed`` silently appends it, so without normalisation
``save_coarsening(p)`` followed by ``load_coarsening(p)`` would look for a
file that was never written and die with a confusing ``FileNotFoundError``.
"""

from __future__ import annotations

import json
import os
import zipfile

import numpy as np

from ..errors import GraphFormatError
from ..graph.influence_graph import InfluenceGraph
from ..partition.partition import Partition
from .result import CoarsenResult, CoarsenStats

__all__ = ["save_coarsening", "load_coarsening", "peek_coarsening_meta"]

_FORMAT_VERSION = 2


def _resolve_archive_path(path: "str | os.PathLike[str]") -> str:
    """The path numpy will actually read/write (``.npz`` suffix enforced)."""
    resolved = os.fspath(path)
    if not resolved.endswith(".npz"):
        resolved += ".npz"
    return resolved


def _json_scalar(obj):
    """Coerce numpy scalars/arrays hiding in stats dicts into JSON types."""
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON-serialisable")


def save_coarsening(result: CoarsenResult, path: "str | os.PathLike[str]") -> None:
    """Write ``result`` to ``path`` (a ``.npz`` archive).

    A missing ``.npz`` suffix is appended — the archive always lands at the
    name :func:`load_coarsening` will resolve for the same ``path``.
    """
    resolved = _resolve_archive_path(path)
    stats = result.stats
    meta = {
        "version": _FORMAT_VERSION,
        "r": stats.r,
        "first_stage_seconds": stats.first_stage_seconds,
        "second_stage_seconds": stats.second_stage_seconds,
        "input_vertices": stats.input_vertices,
        "input_edges": stats.input_edges,
        "output_vertices": stats.output_vertices,
        "output_edges": stats.output_edges,
        "stage_seconds": stats.stage_seconds,
        "extras": stats.extras,
    }
    try:
        blob = json.dumps(meta, default=_json_scalar).encode("utf-8")
    except TypeError as exc:
        raise GraphFormatError(
            f"{resolved}: stats contain non-serialisable values ({exc})"
        ) from exc
    np.savez_compressed(
        resolved,
        meta=np.frombuffer(blob, dtype=np.uint8),
        indptr=result.coarse.indptr,
        heads=result.coarse.heads,
        probs=result.coarse.probs,
        weights=result.coarse.weights,
        pi=result.pi,
    )


def _open_archive(resolved: str):
    """``np.load`` with missing/corrupt files mapped to GraphFormatError."""
    try:
        return np.load(resolved)
    except FileNotFoundError as exc:
        raise GraphFormatError(
            f"{resolved}: no such coarsening archive"
        ) from exc
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        # Truncated downloads, foreign formats, and plain garbage all land
        # here; callers get one exception type for "this is not usable".
        raise GraphFormatError(
            f"{resolved}: not a repro coarsening archive ({exc})"
        ) from exc


def peek_coarsening_meta(path: "str | os.PathLike[str]") -> dict:
    """Read only the JSON meta blob of an archive (no CSR arrays).

    The warm-start hook for the ``repro.serve`` model cache: deciding
    whether an archive matches a query key needs the provenance recorded in
    ``extras`` (``r``, the graph digest, the backend) but not the graph
    itself, and the meta blob is a few hundred bytes against potentially
    gigabytes of arrays.  Raises :class:`GraphFormatError` for missing or
    foreign files, like :func:`load_coarsening`.
    """
    resolved = _resolve_archive_path(path)
    with _open_archive(resolved) as archive:
        try:
            meta = json.loads(bytes(archive["meta"]).decode("utf-8"))
        except (KeyError, ValueError) as exc:
            raise GraphFormatError(
                f"{resolved}: not a repro coarsening archive"
            ) from exc
    if not isinstance(meta, dict):
        raise GraphFormatError(f"{resolved}: malformed archive meta")
    return meta


def load_coarsening(path: "str | os.PathLike[str]") -> CoarsenResult:
    """Load a :class:`CoarsenResult` previously written by
    :func:`save_coarsening`.

    Accepts the same ``path`` value that was passed to
    :func:`save_coarsening` — with or without the ``.npz`` suffix — and
    reports the *resolved* name when the archive is missing or malformed.
    """
    resolved = _resolve_archive_path(path)
    with _open_archive(resolved) as archive:
        try:
            meta = json.loads(bytes(archive["meta"]).decode("utf-8"))
        except (KeyError, ValueError) as exc:
            raise GraphFormatError(
                f"{resolved}: not a repro coarsening archive"
            ) from exc
        if meta.get("version", 0) > _FORMAT_VERSION:
            raise GraphFormatError(
                f"{resolved}: written by a newer format "
                f"(version {meta['version']} > {_FORMAT_VERSION})"
            )
        coarse = InfluenceGraph(
            archive["indptr"], archive["heads"], archive["probs"],
            weights=archive["weights"],
        )
        pi = archive["pi"].astype(np.int64)
    stats = CoarsenStats(
        r=int(meta["r"]),
        first_stage_seconds=float(meta["first_stage_seconds"]),
        second_stage_seconds=float(meta["second_stage_seconds"]),
        input_vertices=int(meta["input_vertices"]),
        input_edges=int(meta["input_edges"]),
        output_vertices=int(meta["output_vertices"]),
        output_edges=int(meta["output_edges"]),
        # v1 archives predate these fields; they load as empty dicts.
        stage_seconds=dict(meta.get("stage_seconds") or {}),
        extras=dict(meta.get("extras") or {}),
    )
    return CoarsenResult(
        coarse=coarse, pi=pi, partition=Partition(pi), stats=stats
    )
