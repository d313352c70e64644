"""Synthetic network generators — the dataset substrate.

The paper evaluates on SNAP / LAW / proprietary crawls of up to 6.9 billion
edges that are unavailable here, so the registry (:mod:`repro.datasets.registry`)
replaces each with a scaled-down synthetic analogue of matching *type*.  The
generators below reproduce the structural property the paper's analysis
leans on (Section 4.3): complex networks decompose into a well-connected
dense **core** — which stays strongly connected in live-edge samples and
therefore coarsens into big r-robust SCCs — and a tree-like **fringe** that
fragments into singletons.

All generators return topologies with a uniform placeholder probability of
0.1; apply one of the Section 7.1 settings with
:func:`repro.datasets.probabilities.apply_setting`.
"""

from __future__ import annotations

import numpy as np

from ..errors import AlgorithmError
from ..graph.builder import GraphBuilder
from ..graph.influence_graph import InfluenceGraph
from ..rng import ensure_rng

__all__ = [
    "core_fringe_graph",
    "powerlaw_social_graph",
    "rmat_graph",
    "web_graph",
    "collaboration_graph",
]

_PLACEHOLDER_P = 0.1


def _finish(builder: GraphBuilder) -> InfluenceGraph:
    return builder.build()


def core_fringe_graph(
    n_core: int,
    n_fringe: int,
    core_out_degree: int = 12,
    fringe_back_prob: float = 0.05,
    rng=None,
) -> InfluenceGraph:
    """A dense strongly connected core with a tree-like directed fringe.

    * Core: a directed cycle through the ``n_core`` core vertices (guarantees
      strong connectivity of the deterministic core) plus ``core_out_degree``
      random intra-core out-edges per vertex.
    * Fringe: each of the ``n_fringe`` fringe vertices picks a random parent
      among earlier vertices (core or fringe) and links *toward* it; with
      probability ``fringe_back_prob`` the parent links back, so a few small
      reciprocated pockets exist but the fringe is overwhelmingly tree-like.
    """
    if n_core < 2:
        raise AlgorithmError("core must have at least 2 vertices")
    rng = ensure_rng(rng)
    n = n_core + n_fringe
    builder = GraphBuilder(n=n)

    core = np.arange(n_core, dtype=np.int64)
    cycle_heads = np.roll(core, -1)
    builder.add_edges(core, cycle_heads, np.full(n_core, _PLACEHOLDER_P))
    tails = np.repeat(core, core_out_degree)
    heads = rng.integers(0, n_core, size=tails.size)
    builder.add_edges(tails, heads, np.full(tails.size, _PLACEHOLDER_P))

    if n_fringe:
        children = np.arange(n_core, n, dtype=np.int64)
        # Parent of fringe vertex v is uniform over all earlier vertices, so
        # the fringe forms a random recursive forest rooted in the core.
        parents = (rng.random(n_fringe) * children).astype(np.int64)
        builder.add_edges(children, parents, np.full(n_fringe, _PLACEHOLDER_P))
        back = rng.random(n_fringe) < fringe_back_prob
        if back.any():
            builder.add_edges(
                parents[back], children[back], np.full(int(back.sum()), _PLACEHOLDER_P)
            )
    return _finish(builder)


def powerlaw_social_graph(
    n: int,
    out_degree: int = 8,
    reciprocity: float = 0.3,
    rich_club_fraction: float = 0.0,
    rich_club_degree: int = 0,
    rng=None,
) -> InfluenceGraph:
    """Directed preferential-attachment social network with a rich club.

    Vertex ``t`` links to ``out_degree`` targets drawn proportionally to
    in-degree + 1 among earlier vertices (the repeated-endpoints pool trick);
    each link is reciprocated with probability ``reciprocity``, producing the
    mutual-follow pockets that become non-trivial SCCs.

    ``rich_club_fraction`` / ``rich_club_degree`` densify the top-connected
    vertices with extra mutual edges — the *rich-club effect* observed in
    real social networks, and the structural source of the paper's
    core–fringe decomposition (Section 4.3): the club stays strongly
    connected across live-edge samples and coarsens into a giant r-robust
    SCC, while the fringe stays singleton.
    """
    if n <= out_degree:
        raise AlgorithmError("n must exceed out_degree")
    rng = ensure_rng(rng)
    tails: list[int] = []
    heads: list[int] = []
    pool: list[int] = list(range(out_degree + 1))  # seed clique endpoints
    for u in range(out_degree + 1):
        for v in range(out_degree + 1):
            if u != v:
                tails.append(u)
                heads.append(v)
    for t in range(out_degree + 1, n):
        raw = rng.integers(0, len(pool), size=out_degree)
        # Sorted: set iteration order is a CPython implementation detail,
        # and the reciprocity coins are drawn in target order (one batch:
        # the same doubles as one scalar draw per target).
        targets = sorted({pool[i] for i in raw.tolist()})
        mutual = (rng.random(len(targets)) < reciprocity).tolist()
        for v, back in zip(targets, mutual):
            tails.append(t)
            heads.append(v)
            pool.append(v)
            pool.append(t)
            if back:
                tails.append(v)
                heads.append(t)
    builder = GraphBuilder(n=n)
    builder.add_edges(
        np.asarray(tails), np.asarray(heads), np.full(len(tails), _PLACEHOLDER_P)
    )
    if rich_club_fraction > 0.0 and rich_club_degree > 0:
        degree = np.bincount(np.asarray(heads), minlength=n) + np.bincount(
            np.asarray(tails), minlength=n
        )
        club_size = max(2, int(round(rich_club_fraction * n)))
        club = np.argsort(degree, kind="stable")[::-1][:club_size].astype(np.int64)
        club_tails = np.repeat(club, rich_club_degree)
        club_heads = club[rng.integers(0, club_size, size=club_tails.size)]
        builder.add_edges(
            club_tails, club_heads, np.full(club_tails.size, _PLACEHOLDER_P)
        )
        builder.add_edges(
            club_heads, club_tails, np.full(club_tails.size, _PLACEHOLDER_P)
        )
    return _finish(builder)


def rmat_graph(
    scale: int,
    edge_factor: int = 8,
    quadrants: tuple[float, float, float, float] = (0.57, 0.19, 0.19, 0.05),
    rng=None,
) -> InfluenceGraph:
    """R-MAT recursive-matrix graph on ``2**scale`` vertices.

    Classic Kronecker-style generator: each of the ``edge_factor * n`` edges
    picks one quadrant per bit level with probabilities ``(a, b, c, d)``.
    Produces the heavy-tailed, self-similar structure of web crawls.
    """
    rng = ensure_rng(rng)
    a, b, c, d = quadrants
    if abs(a + b + c + d - 1.0) > 1e-9:
        raise AlgorithmError("quadrant probabilities must sum to 1")
    n = 1 << scale
    m = edge_factor * n
    tails = np.zeros(m, dtype=np.int64)
    heads = np.zeros(m, dtype=np.int64)
    thresholds = np.cumsum([a, b, c])
    for _ in range(scale):
        tails <<= 1
        heads <<= 1
        quadrant = np.searchsorted(thresholds, rng.random(m), side="right")
        tails |= quadrant >> 1  # quadrants 2, 3 set the tail bit
        heads |= quadrant & 1  # quadrants 1, 3 set the head bit
    builder = GraphBuilder(n=n)
    builder.add_edges(tails, heads, np.full(m, _PLACEHOLDER_P))
    return _finish(builder)


def web_graph(
    n_hosts: int,
    pages_per_host: int = 20,
    intra_links: int = 4,
    inter_links: int = 2,
    portal_core_size: int = 0,
    portal_core_degree: int = 0,
    core_link_fraction: float = 0.7,
    rng=None,
) -> InfluenceGraph:
    """Host-structured web graph (already in *influence* direction).

    Pages link within their host and to the wider web, mirroring the paper's
    reversed web graphs (edges point from linked-to page to linker).  The
    front pages of the top ``portal_core_size`` hosts form a *portal core* —
    mutually and densely interlinked (directories, aggregators, blog rolls).
    With ``portal_core_degree`` internal links per core page the core stays
    strongly connected in live-edge samples and coarsens into one giant
    r-robust SCC; every ordinary page's multiple links into the (now merged)
    core then bundle into a single coarse edge, which is the dominant edge
    reduction mechanism on web crawls (Table 3's web rows).

    ``core_link_fraction`` is the share of each page's ``inter_links`` that
    target portal-core pages rather than a random host's front page.
    """
    rng = ensure_rng(rng)
    n = n_hosts * pages_per_host
    builder = GraphBuilder(n=n)
    core_pages = (
        np.arange(min(portal_core_size, n_hosts), dtype=np.int64) * pages_per_host
    )
    if core_pages.size >= 2 and portal_core_degree > 0:
        c_tails = np.repeat(core_pages, portal_core_degree)
        c_heads = core_pages[rng.integers(0, core_pages.size, size=c_tails.size)]
        builder.add_edges(c_tails, c_heads, np.full(c_tails.size, _PLACEHOLDER_P))
        builder.add_edges(c_heads, c_tails, np.full(c_tails.size, _PLACEHOLDER_P))
    for host in range(n_hosts):
        base = host * pages_per_host
        pages = np.arange(base, base + pages_per_host, dtype=np.int64)
        # Intra-host ring (breadcrumb navigation) connects each host weakly.
        builder.add_edges(
            pages, np.roll(pages, -1), np.full(pages.size, _PLACEHOLDER_P)
        )
        # Body pages reference random pages of their own host.
        tails = np.repeat(pages, intra_links)
        heads = base + rng.integers(0, pages_per_host, size=tails.size)
        builder.add_edges(tails, heads, np.full(tails.size, _PLACEHOLDER_P))
        # Outbound links: mostly into the portal core, else a random front
        # page.  Multiple core links per page bundle after coarsening.
        tails = np.repeat(pages, inter_links)
        front = rng.integers(0, n_hosts, size=tails.size) * pages_per_host
        if core_pages.size:
            to_core = rng.random(tails.size) < core_link_fraction
            core_target = core_pages[
                rng.integers(0, core_pages.size, size=tails.size)
            ]
            heads = np.where(to_core, core_target, front)
        else:
            heads = front
        builder.add_edges(tails, heads, np.full(tails.size, _PLACEHOLDER_P))
    return _finish(builder)


def collaboration_graph(
    n_groups: int,
    group_size_mean: float = 4.0,
    membership_overlap: float = 0.15,
    heavy_tail: float = 0.0,
    max_group_size: int = 120,
    rng=None,
) -> InfluenceGraph:
    """Undirected collaboration network built from overlapping cliques.

    Each "paper" is a clique over its authors; a fraction of authors recur
    across groups, chaining the cliques together.  Undirected edges become
    bidirected pairs, as in the paper's treatment of ca-HepPh.

    ``heavy_tail`` is the probability that a group is a *large collaboration*
    (Pareto-sized, capped at ``max_group_size``) — the detector-experiment
    cliques that give ca-HepPh its dense robust core.
    """
    rng = ensure_rng(rng)
    author_count = 0
    us: list[int] = []
    vs: list[int] = []
    known: list[int] = []
    for _ in range(n_groups):
        if heavy_tail > 0.0 and rng.random() < heavy_tail:
            size = min(max_group_size, 10 + int(rng.pareto(1.5) * 20))
        else:
            size = max(2, int(rng.poisson(group_size_mean)))
        members: list[int] = []
        for _ in range(size):
            if known and rng.random() < membership_overlap:
                members.append(known[int(rng.integers(len(known)))])
            else:
                members.append(author_count)
                known.append(author_count)
                author_count += 1
        members = list(dict.fromkeys(members))
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                us.append(u)
                vs.append(v)
    builder = GraphBuilder(n=author_count)
    builder.add_undirected_edges(
        np.asarray(us), np.asarray(vs), np.full(len(us), _PLACEHOLDER_P)
    )
    return _finish(builder)
