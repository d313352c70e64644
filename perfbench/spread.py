"""Run workloads over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1 2 3 4 5 --workloads serve-churn
    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --envelope

For every end-to-end metric this prints the median and the distance
between the first and third quartiles (``statistics.quantiles(n=4)``) as
a share of the median, next to the bound ``BENCHMARK.json`` allows.
``--envelope`` also makes one traced run per workload (first seed) and
writes ``perfbench/ENVELOPE.json``: host facts, operation counts, the tail
percentiles used, the spreads, and the tracing overhead (traced minus
untraced value of every end-to-end metric the traced run also measures).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, trace: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:"
                         f"\n{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    notes = {}
    for line in lines:
        if line.startswith("# ") and ": " in line and "=" not in line:
            key, value = line[2:].split(": ", 1)
            notes[key] = json.loads(value)
        elif " wall=" in line:
            notes["wall_s"] = float(line.split(" wall=")[1].split("s")[0])
    return {"result": json.loads(lines[-1]), "notes": notes}


def spread(values: "list[float]") -> "tuple[float, float]":
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--envelope", action="store_true")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    report: dict = {}
    for workload in workloads:
        runs = [run_once(workload, seed, 0, bench["run_seconds"])
                for seed in args.seeds]
        rows = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            mid, share = spread(values)
            rows[name] = {"median": mid, "iqr_share": share,
                          "bound": bounds[name], "values": values}
            flag = "" if share < bounds[name] / 3 else "  <-- above bound/3"
            print(f"{workload:14s} {name:20s} median {mid:12.6g} "
                  f"spread {share:7.4f} bound {bounds[name]}{flag}\n    "
                  + " ".join(f"{v:.4g}" for v in values), flush=True)
        walls = [r["notes"]["wall_s"] for r in runs]
        print(f"{workload:14s} wall_s per run: "
              + " ".join(f"{w:.1f}" for w in walls), flush=True)
        report[workload] = {
            "wall_s": walls,
            "metrics": rows,
            "attempted": [r["result"]["attempted"] for r in runs],
            "failed": [r["result"]["failed"] for r in runs],
            "notes": runs[0]["notes"],
        }
        if args.envelope:
            traced = run_once(workload, args.seeds[0], 1,
                              bench["run_seconds"])
            trace = json.loads((HERE / "out" / f"trace-{workload}-"
                                f"{args.seeds[0]}.jsonl").open().readline())
            plain = runs[0]["result"]["metrics"]
            report[workload]["tracing_overhead"] = {
                name: value - plain[name]["value"]
                for name, value in trace["summary"]["end_to_end"].items()
                if name in plain
            }
            report[workload]["per_layer"] = {
                name: m["value"]
                for name, m in traced["result"]["metrics"].items()}
            host = trace["summary"]["host"]
    if args.envelope:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip()
        sys.path.insert(0, str(HERE))
        import offline
        import serving
        counts = {"offline-audit": offline.COUNTS[False],
                  "serve-read": serving.COUNTS["serve-read"][False],
                  "serve-churn": serving.COUNTS["serve-churn"][False]}
        for workload in report:
            report[workload]["counts"] = counts[workload]
        envelope = {"host": {**host, "commit": commit or None},
                    "seeds": args.seeds, "workloads": report}
        (HERE / "ENVELOPE.json").write_text(json.dumps(envelope, indent=1)
                                            + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
