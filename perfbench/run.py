"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload offline-audit --seed 1 \\
        --seconds 30 --trace 0

Workloads: ``offline-audit``, ``serve-read``, ``serve-churn`` (see
``perfbench/README.md`` for what each measures and why).  Inputs are made
from ``--seed``; every operation count is fixed, so two runs with the same
seed do the same work.  ``--seconds`` is the measuring time the counts are
sized for on the reference host; it is recorded, never used to stop a
loop.  ``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the traced variant, prints the per-layer metrics and
writes its spans to ``perfbench/out/``.  ``--quick`` shrinks every input
and count and keeps every check (the benchmark's own test uses it).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every operation and check passed, 1 when one failed, and 2 when the
library is not there to measure (nothing is printed then).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import END_TO_END, OUT, SRC, NullTracer, Tracer  # noqa: E402

WORKLOADS = ("offline-audit", "serve-read", "serve-churn")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs and counts, same checks")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the library is missing ({SRC / 'repro'}); run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    traced = bool(args.trace)
    tracer = Tracer() if traced else NullTracer()
    started = time.perf_counter()
    try:
        if args.workload == "offline-audit":
            import offline
            run, layer = offline.run(args.seed, args.quick, tracer, traced)
        else:
            import serving
            run, layer = serving.run(args.workload, args.seed, args.quick,
                                     tracer, traced)
    except Exception:
        traceback.print_exc()
        print(f"error: workload {args.workload} did not complete",
              file=sys.stderr)
        return 1
    wall_s = time.perf_counter() - started

    if traced:
        from layers import PER_LAYER
        for name, unit in PER_LAYER:
            run.metric(name, layer[name], unit)
        names = [name for name, _ in PER_LAYER]
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(trace_path, {
            "workload": args.workload, "seed": args.seed,
            "quick": args.quick, "wall_s": wall_s,
            "end_to_end": {k: value for k, (value, _) in run.metrics.items()
                           if k not in layer},
            "host": host_facts(),
        })
    else:
        names = [name for name, _ in END_TO_END]

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"quick={args.quick} wall={wall_s:.1f}s "
          f"(--seconds {args.seconds:g} recorded; counts are fixed)")
    for name in names:
        value, unit = run.metrics[name]
        print(f"{name:32s} {value:14.6g} {unit}")
    print(f"{'fail_ratio':32s} {run.failed / max(1, run.attempted):14.6g} "
          f"ratio ({run.failed} of {run.attempted} operations and checks)")
    for key, value in sorted(run.notes.items()):
        if key != "values":
            print(f"# {key}: {json.dumps(value)}")
    for problem in run.problems:
        print(f"# FAILED: {problem}", file=sys.stderr)
    print(json.dumps(run.result(names)))
    return 0 if run.failed == 0 else 1


def host_facts() -> dict:
    """Host facts recorded with every trace (and in ENVELOPE.json)."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


if __name__ == "__main__":
    sys.exit(main())
