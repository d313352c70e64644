"""Text edge-list I/O in the SNAP style.

The paper's datasets come as whitespace-separated edge lists, optionally with
a per-edge probability column.  :func:`read_edge_list` applies the same
cleaning the paper describes (drop self-loops and multi-edges, optionally
symmetrise undirected graphs, optionally reverse web-graph edges).
"""

from __future__ import annotations

import os
from typing import Iterable, TextIO

import numpy as np

from ..errors import GraphFormatError
from .builder import GraphBuilder
from .influence_graph import InfluenceGraph

__all__ = ["read_edge_list", "write_edge_list"]


def read_edge_list(
    path: "str | os.PathLike[str]",
    default_prob: float = 0.1,
    undirected: bool = False,
    reverse: bool = False,
    comment: str = "#",
) -> InfluenceGraph:
    """Read a whitespace-separated edge list into an :class:`InfluenceGraph`.

    Each non-comment line is ``u v`` or ``u v p``.  Lines without a
    probability column get ``default_prob``.

    A file whose data lines all have the same two or three columns, with
    integer ids and no comment marker inside a line, is parsed in one
    ``np.loadtxt`` pass; anything else (mixed column counts, a malformed
    line, a non-integral id) goes through the line-by-line parser, which
    raises the line-numbered :class:`GraphFormatError`.  Both give the same
    graph wherever both accept the file.

    Parameters
    ----------
    undirected:
        Replace each edge with a bidirected pair (paper treatment of
        undirected social networks).
    reverse:
        Flip every edge (paper treatment of web graphs, where influence flows
        against hyperlink direction).
    """
    with open(path, "r", encoding="utf-8") as handle:
        columns = _parse_columns(handle, comment, default_prob)
        if columns is None:
            handle.seek(0)
            columns = _parse_lines(handle, path, comment, default_prob)
    tails, heads, probs = columns
    if reverse:
        tails, heads = heads, tails
    builder = GraphBuilder()
    if undirected:
        builder.add_undirected_edges(tails, heads, probs)
    else:
        builder.add_edges(tails, heads, probs)
    return builder.build()


def _parse_columns(handle: TextIO, comment: str, default_prob: float):
    """``(tails, heads, probs)`` arrays by ``np.loadtxt``, or ``None``.

    ``None`` means the line parser must decide: the file has no data line,
    a comment marker somewhere other than the start of a line (``loadtxt``
    would cut the line there, the line parser would not), a first data
    line without two or three columns, or any line ``loadtxt`` rejects
    under that line's column count and integer ids.
    """
    text = handle.read()
    if text.count(comment) != (text.count("\n" + comment)
                               + text.startswith(comment)):
        return None
    del text
    handle.seek(0)
    first = next((line for line in handle
                  if line.strip() and not line.startswith(comment)), None)
    if first is None:
        return None
    width = len(first.split())
    if width not in (2, 3):
        return None
    dtype = [("u", np.int64), ("v", np.int64), ("p", np.float64)][:width]
    handle.seek(0)
    try:
        data = np.loadtxt(handle, dtype=dtype, comments=comment, ndmin=1)
    except ValueError:
        return None
    probs = (data["p"] if width == 3
             else np.full(data.size, default_prob, dtype=np.float64))
    return data["u"], data["v"], probs


def _parse_lines(lines: Iterable[str], path: "str | os.PathLike[str]",
                 comment: str, default_prob: float):
    """``(tails, heads, probs)`` lists, one line at a time."""
    tails: list[int] = []
    heads: list[int] = []
    probs: list[float] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith(comment):
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise GraphFormatError(
                f"{path}:{lineno}: expected 'u v' or 'u v p', got {line!r}"
            )
        u, v = int(parts[0]), int(parts[1])
        p = float(parts[2]) if len(parts) == 3 else default_prob
        tails.append(u)
        heads.append(v)
        probs.append(p)
    return tails, heads, probs


def write_edge_list(
    graph: InfluenceGraph,
    path: "str | os.PathLike[str]",
    include_probs: bool = True,
) -> None:
    """Write a graph as a text edge list (``u v p`` per line)."""
    tails, heads, probs = graph.edge_arrays()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# influence graph: n={graph.n} m={graph.m}\n")
        if include_probs:
            for u, v, p in zip(tails, heads, probs):
                handle.write(f"{u} {v} {p:.10g}\n")
        else:
            for u, v in zip(tails, heads):
                handle.write(f"{u} {v}\n")
