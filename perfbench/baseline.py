"""Record a baseline: every workload over several seeds, plus one traced run each.

    python3 perfbench/baseline.py --seeds 10 --out perfbench/baseline.json

For each end-to-end metric it stores the median, the quartiles and the
spread (quartile distance as a share of the median), and exits 1 if any
spread exceeds a third of the metric's bound. From one traced run per
workload it stores every per-layer metric, and for the traced round the
self time per module of its spans and the CPU share per module from stack
samples. It also records the environment and which end-to-end metric and
workload each per-layer metric should move. Run from the root of a source
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# per-layer metric prefix -> the end-to-end metrics and workloads it should move
MOVES = {
    "dynamics.": "wall_s and integrations_per_s on sweep_grid and solve_search; "
    "little on trajectory_io",
    "analysis.": "op_p50_s on trajectory_io; small on sweep_grid (unchirped points) "
    "and solve_search",
    "twolevel.": "op_p50_s and wall_s on trajectory_io",
    "stirap.": "op_p50_s and wall_s on trajectory_io",
    "sweeps.": "wall_s on sweep_grid; decides whether run_sweep workers still pay",
    "control.": "wall_s and op_p50_s on solve_search",
    "cli.": "op_p50_s on trajectory_io",
    "types.": "under 1 % everywhere",
    "src.": "none; a record of code size",
    "trace.": "none; a record of the tracing cost",
    "self_ms.": "none; self time per module over the traced run",
}


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT, check=True, text=True)
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    print(workload, seed, trace, json.dumps(doc), flush=True)
    return doc


def environment() -> dict:
    import numpy
    import scipy

    sys.path.insert(0, str(ROOT / "src"))
    import qubitrot

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "qubitrot": qubitrot.__version__,
        "commit": commit,
    }


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    doc = {"environment": environment(), "run_seconds": seconds, "workloads": {}}
    steady = True
    for w in bench["workloads"]:
        name = w["name"]
        results = [run(name, s, seconds, 0) for s in range(1, args.seeds + 1)]
        metrics = {
            m: summarize([r["metrics"][m]["value"] for r in results]) for m in bounds
        }
        for m, summary in metrics.items():
            ok = summary["spread"] <= bounds[m] / 3
            steady &= ok
            print(f"{name:14s} {m:20s} median {summary['median']:10.4g} "
                  f"spread {summary['spread']:.3f} (bound {bounds[m]}){'' if ok else '  WIDE'}")
        traced = run(name, 1, seconds, 1)
        spans = json.loads((ROOT / "perfbench" / "out" / f"spans_{name}_1.json").read_text())
        doc["workloads"][name] = {
            "end_to_end": metrics,
            "failed": sum(r["failed"] for r in results + [traced]),
            "attempted": sum(r["attempted"] for r in results + [traced]),
            "traced_round_s": spans["round_s"],
            "workload_self_s": spans["workload_self_s"],
            "layer_share": spans["layer_share"],
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
    doc["moves"] = MOVES
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
