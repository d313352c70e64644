"""Command-line interface.

Thin argparse front-end over the library for shell pipelines::

    python -m repro datasets
    python -m repro info dataset:soc-slashdot:exp
    python -m repro coarsen dataset:soc-slashdot:exp -r 16 -o coarse.txt
    python -m repro estimate dataset:soc-slashdot:exp --seeds 1,2,3 --coarsen
    python -m repro maximize edges.txt -k 10 --algorithm dssa --coarsen
    python -m repro lint src/repro

Graphs are given either as an edge-list path (``u v [p]`` per line) or as
``dataset:NAME[:SETTING[:SEED]]`` referencing the built-in registry.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time

import numpy as np

from . import obs
from .algorithms import (
    CELFMaximizer,
    DegreeHeuristic,
    DSSAMaximizer,
    IMMMaximizer,
    RISMaximizer,
    SSAMaximizer,
)
from .analysis.bounds import guarantee_report
from .core import (
    coarsen_influence_graph,
    estimate_on_coarse,
    maximize_on_coarse,
)
from .datasets import list_datasets, load_dataset
from .errors import ReproError
from .estimators import DEFAULT_ESTIMATOR, available_estimators, make_estimator
from .graph import InfluenceGraph, read_edge_list, write_edge_list

__all__ = ["main"]

def _make_imm(args: argparse.Namespace) -> IMMMaximizer:
    """Build IMM honoring ``--eps`` exactly as given.

    The sketch budget grows roughly as ``1/eps^2``, so a small eps can be
    very slow — but silently overriding a user's flag is worse, so small
    values get a visible note instead of a clamp.
    """
    if args.eps < 0.1:
        print(f"note: --eps {args.eps} is small; IMM's RR-set budget grows "
              f"~1/eps^2, so this run may be slow (the max_samples cap "
              f"still bounds it)", file=sys.stderr)
    return IMMMaximizer(eps=args.eps, rng=args.seed, model=args.model)


_MAXIMIZERS = {
    "dssa": lambda args: DSSAMaximizer(eps=args.eps, delta=args.delta,
                                       rng=args.seed, model=args.model),
    "ssa": lambda args: SSAMaximizer(eps=args.eps, delta=args.delta,
                                     rng=args.seed, model=args.model),
    "imm": _make_imm,
    "ris": lambda args: RISMaximizer(n_samples=args.simulations,
                                     rng=args.seed, model=args.model),
    "celf": lambda args: CELFMaximizer(
        make_estimator("mc", n_samples=args.simulations, rng=args.seed)
    ),
    "degree": lambda args: DegreeHeuristic(),
}


def _load_graph(spec: str, default_prob: float, undirected: bool,
                reverse: bool) -> InfluenceGraph:
    if spec.startswith("dataset:"):
        parts = spec.split(":")
        name = parts[1]
        setting = parts[2] if len(parts) > 2 else "exp"
        seed = int(parts[3]) if len(parts) > 3 else 0
        return load_dataset(name, setting=setting, seed=seed)
    return read_edge_list(spec, default_prob=default_prob,
                          undirected=undirected, reverse=reverse)


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("graph", help="edge-list path or dataset:NAME[:SETTING[:SEED]]")
    parser.add_argument("--default-prob", type=float, default=0.1,
                        help="probability for edge lists without a p column")
    parser.add_argument("--undirected", action="store_true",
                        help="treat edge-list edges as undirected")
    parser.add_argument("--reverse", action="store_true",
                        help="flip edge-list edges (web-graph convention)")


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", metavar="PATH",
                        help="write a JSONL span trace of the run to PATH "
                             "(schema: docs/observability.md)")
    parser.add_argument("--trace-rss", action="store_true",
                        help="also record peak-RSS deltas per span "
                             "(implies nothing without --trace)")
    parser.add_argument("--metrics", action="store_true",
                        help="collect counters/timers during the run and "
                             "print a metrics report on exit")


def _parse_seeds(text: str, n: int) -> np.ndarray:
    try:
        seeds = np.asarray([int(s) for s in text.split(",") if s], dtype=np.int64)
    except ValueError as exc:
        raise ReproError(f"could not parse seed list {text!r}") from exc
    if seeds.size == 0:
        raise ReproError("seed list is empty")
    if seeds.min() < 0 or seeds.max() >= n:
        raise ReproError("seed id out of range")
    return seeds


def _cmd_datasets(_args: argparse.Namespace) -> int:
    from .datasets import DATASETS

    print(f"{'name':18} {'kind':8} {'tier':7} {'paper |V|':>12} {'paper |E|':>14}")
    for name in list_datasets():
        spec = DATASETS[name]
        print(f"{name:18} {spec.kind:8} {spec.tier:7} "
              f"{spec.paper_vertices:>12,} {spec.paper_edges:>14,}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph, args.default_prob, args.undirected,
                        args.reverse)
    degrees = graph.out_degree()
    print(f"vertices: {graph.n:,}")
    print(f"edges:    {graph.m:,}")
    print(f"weighted: {graph.is_weighted} (total weight {graph.total_weight:,})")
    print(f"avg degree: {graph.m / max(graph.n, 1):.2f} "
          f"(max out-degree {int(degrees.max(initial=0))})")
    print(f"probabilities: min {graph.probs.min(initial=1):.4g}, "
          f"mean {float(graph.probs.mean()) if graph.m else 0:.4g}, "
          f"max {graph.probs.max(initial=0):.4g}")
    return 0


def _cmd_coarsen(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph, args.default_prob, args.undirected,
                        args.reverse)
    result = coarsen_influence_graph(graph, r=args.r, rng=args.seed,
                                     workers=args.workers)
    if args.workers is not None:
        extras = result.stats.extras
        clamp = (f" (clamped from {extras['requested_workers']})"
                 if extras["workers"] != extras["requested_workers"] else "")
        print(f"parallel: workers={extras['workers']}{clamp} "
              f"meet tree depth {extras['meet_tree_depth']}")
    stats = result.stats
    print(f"coarsened in {stats.total_seconds:.2f} s (r={args.r})")
    if stats.stage_seconds:
        print(stats.stage_summary())
    print(f"|W| = {stats.output_vertices:,} "
          f"({stats.vertex_reduction_ratio:.1%} of |V|)")
    print(f"|F| = {stats.output_edges:,} "
          f"({stats.edge_reduction_ratio:.1%} of |E|)")
    if args.output:
        write_edge_list(result.coarse, args.output)
        mapping_path = args.output + ".mapping"
        np.savetxt(mapping_path, result.pi, fmt="%d")
        print(f"coarse graph -> {args.output}; pi -> {mapping_path}")
    if args.bounds:
        report = guarantee_report(graph, result, rng=args.seed)
        print(report.summary())
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph, args.default_prob, args.undirected,
                        args.reverse)
    seeds = _parse_seeds(args.seeds, graph.n)
    opts: dict = {}
    if args.estimator in ("mc", "ris"):
        opts["n_samples"] = args.simulations
        detail = f"{args.simulations} samples"
    elif args.estimator == "sketch":
        opts["r"] = args.r
        detail = f"bottom-k oracle, r={args.r}"
    else:
        detail = "eps/delta-sized sampling"
    estimator = make_estimator(args.estimator, rng=args.seed, **opts)
    t0 = time.perf_counter()
    if args.coarsen:
        result = coarsen_influence_graph(graph, r=args.r, rng=args.seed)
        value = estimate_on_coarse(result, seeds, estimator)
    else:
        value = estimator.estimate(graph, seeds)
    seconds = time.perf_counter() - t0
    print(f"Inf({seeds.tolist()}) ~= {value:.2f} "
          f"({args.estimator}: {detail}, {seconds:.2f} s"
          f"{', via coarse graph' if args.coarsen else ''})")
    return 0


def _cmd_maximize(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph, args.default_prob, args.undirected,
                        args.reverse)
    if getattr(args, "model", "ic") == "lt":
        if args.coarsen:
            raise ReproError(
                "the coarsening guarantees are IC-only; --model lt cannot "
                "be combined with --coarsen"
            )
        if args.algorithm in ("celf", "degree"):
            raise ReproError(
                f"--model lt is supported by the sketch algorithms only, "
                f"not {args.algorithm}"
            )
    maximizer = _MAXIMIZERS[args.algorithm](args)
    t0 = time.perf_counter()
    if args.coarsen:
        result = coarsen_influence_graph(graph, r=args.r, rng=args.seed)
        answer = maximize_on_coarse(result, args.k, maximizer, rng=args.seed)
    else:
        answer = maximizer.select(graph, args.k)
    seconds = time.perf_counter() - t0
    print(f"seeds: {','.join(map(str, answer.seeds.tolist()))}")
    print(f"estimated influence: {answer.estimated_influence:.2f} "
          f"({args.algorithm}, {seconds:.2f} s"
          f"{', via coarse graph' if args.coarsen else ''})")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import InfluenceService, ServiceConfig
    from .serve.http import make_server, serve_forever

    graph = _load_graph(args.graph, args.default_prob, args.undirected,
                        args.reverse)
    config = ServiceConfig(
        r=args.r, seed=args.seed, sampler=args.sampler,
        n_samples=args.simulations, max_models=args.max_models,
        warm_dir=args.warm_dir, max_workers=args.workers,
        max_pending=args.max_pending, deadline_seconds=args.deadline,
        shard_workers=args.shard_workers,
        estimator=args.estimator,
    )
    service = InfluenceService(config)
    print("coarsening model (one-time cost)...", file=sys.stderr)
    dynamic = None
    if args.sampler == "addressable":
        # Live-graph mode: /insert_edge, /delete_edge, /apply_deltas
        # mutate the served graph in place (unless --readonly).
        dynamic = service.attach_dynamic(graph)
    else:
        service.model_for(graph)
    if args.warm_dir:
        service.persist(graph)
    server = make_server(service, graph, host=args.host, port=args.port,
                         dynamic=dynamic, readonly=args.readonly)
    host, port = server.server_address[:2]
    # flush=True so wrappers that parse the port (scripts/serve_smoke.py)
    # see it before the first request.
    print(f"serving on http://{host}:{port} (Ctrl-C to stop)", flush=True)
    serve_forever(server, service)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint.cli import run as lint_run

    return lint_run(args, args._lint_parser)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Influence-graph coarsening and diffusion analysis "
                    "(SIGMOD 2017 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list built-in dataset analogues")

    p_info = sub.add_parser("info", help="print graph statistics")
    _add_graph_arguments(p_info)
    _add_obs_arguments(p_info)

    p_coarsen = sub.add_parser("coarsen", help="coarsen a graph (Algorithm 1)")
    _add_graph_arguments(p_coarsen)
    _add_obs_arguments(p_coarsen)
    p_coarsen.add_argument("-r", type=int, default=16,
                           help="robustness parameter (default 16)")
    p_coarsen.add_argument("--workers", type=int, default=None,
                           help="run Algorithm 6 on a thread pool of this "
                                "many workers instead of Algorithm 1 "
                                "(clamped to min(workers, r))")
    p_coarsen.add_argument("--seed", type=int, default=0)
    p_coarsen.add_argument("-o", "--output",
                           help="write the coarse graph as an edge list "
                                "(and pi as OUTPUT.mapping)")
    p_coarsen.add_argument("--bounds", action="store_true",
                           help="estimate the Theorem 6.1/6.2 guarantees")

    p_est = sub.add_parser("estimate",
                           help="estimate influence of a seed set (Algorithm 3)")
    _add_graph_arguments(p_est)
    _add_obs_arguments(p_est)
    p_est.add_argument("--seeds", required=True,
                       help="comma-separated vertex ids")
    p_est.add_argument("--estimator", choices=available_estimators(),
                       default="mc",
                       help="estimator family (default %(default)s; "
                            "see docs/serving.md, 'Choosing an estimator')")
    p_est.add_argument("--simulations", type=int, default=10_000,
                       help="samples for the mc/ris families")
    p_est.add_argument("--coarsen", action="store_true",
                       help="run on the coarsened graph")
    p_est.add_argument("-r", type=int, default=16)
    p_est.add_argument("--seed", type=int, default=0)

    p_max = sub.add_parser("maximize",
                           help="select an influential seed set (Algorithm 4)")
    _add_graph_arguments(p_max)
    _add_obs_arguments(p_max)
    p_max.add_argument("-k", type=int, required=True, help="seed-set size")
    p_max.add_argument("--algorithm", choices=sorted(_MAXIMIZERS),
                       default="dssa")
    p_max.add_argument("--eps", type=float, default=0.1)
    p_max.add_argument("--delta", type=float, default=0.01)
    p_max.add_argument("--simulations", type=int, default=10_000,
                       help="budget for the ris/celf algorithms")
    p_max.add_argument("--model", choices=("ic", "lt"), default="ic",
                       help="diffusion model for the sketch algorithms "
                            "(lt requires LT-valid weights, e.g. WC; "
                            "--coarsen is IC-only)")
    p_max.add_argument("--coarsen", action="store_true",
                       help="run on the coarsened graph")
    p_max.add_argument("-r", type=int, default=16)
    p_max.add_argument("--seed", type=int, default=0)

    p_serve = sub.add_parser(
        "serve",
        help="run the JSON query endpoint over a cached model "
             "(see docs/serving.md)",
    )
    _add_graph_arguments(p_serve)
    _add_obs_arguments(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8321,
                         help="TCP port (0 binds an ephemeral port, "
                              "printed on startup)")
    p_serve.add_argument("-r", type=int, default=16)
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--simulations", type=int, default=10_000,
                         help="default RR sets per query")
    p_serve.add_argument("--estimator",
                         choices=available_estimators(serving=True),
                         default=DEFAULT_ESTIMATOR,
                         help="estimator family answering /estimate "
                              "(default %(default)s; 'sketch' precomputes a "
                              "bottom-k oracle per model epoch)")
    p_serve.add_argument("--workers", type=int, default=4,
                         help="query worker threads")
    p_serve.add_argument("--max-pending", type=int, default=64,
                         help="queued queries beyond the workers before "
                              "submits are rejected with 429")
    p_serve.add_argument("--shard-workers", type=int, default=None,
                         help="serve pool growth/scoring from this many "
                              "worker processes sharing the model over "
                              "shared memory (default: in-process)")
    p_serve.add_argument("--deadline", type=float, default=None,
                         help="per-query deadline in seconds (queries "
                              "degrade to fewer samples instead of missing it)")
    p_serve.add_argument("--max-models", type=int, default=8,
                         help="resident coarsened models (LRU beyond)")
    p_serve.add_argument("--warm-dir", default=None,
                         help="directory of persisted models for warm starts")
    p_serve.add_argument("--sampler", choices=["addressable", "stream"],
                         default="addressable",
                         help="live-edge coin discipline; 'addressable' "
                              "(default) serves a live graph with the "
                              "/insert_edge, /delete_edge and /apply_deltas "
                              "routes enabled, 'stream' serves the static "
                              "Algorithm 1 sampler")
    p_serve.add_argument("--readonly", action="store_true",
                         help="reject mutation routes with 403 (live-graph "
                              "mode only)")

    from .lint.cli import build_parser as lint_build_parser

    p_lint = sub.add_parser(
        "lint",
        parents=[lint_build_parser()],
        add_help=False,
        help="run the reprolint invariant checks "
             "(see docs/static-analysis.md)",
    )
    p_lint.set_defaults(_lint_parser=p_lint)

    return parser


_COMMANDS = {
    "datasets": _cmd_datasets,
    "info": _cmd_info,
    "coarsen": _cmd_coarsen,
    "estimate": _cmd_estimate,
    "maximize": _cmd_maximize,
    "serve": _cmd_serve,
    "lint": _cmd_lint,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    registry = None
    with contextlib.ExitStack() as stack:
        if getattr(args, "trace", None):
            try:
                stack.enter_context(
                    obs.trace_to(args.trace, rss=getattr(args, "trace_rss", False))
                )
            except OSError as exc:
                print(f"error: cannot open trace file: {exc}", file=sys.stderr)
                return 2
        if getattr(args, "metrics", False):
            registry = obs.MetricsRegistry()
            stack.enter_context(obs.use_metrics(registry))
        try:
            code = _COMMANDS[args.command](args)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if getattr(args, "trace", None):
        print(f"trace -> {args.trace}")
    if registry is not None:
        print(registry.render())
    return code
