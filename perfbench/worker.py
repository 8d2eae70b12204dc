"""One benchmark run in a fresh interpreter; started by ``run.py``.

Untraced (``--trace 0``): runs whole rounds of the workload until
``--seconds`` have passed and reports every operation, with the reference
loop's speed during it (``speed.py``). Traced (``--trace 1``): runs one
round traced and stack-sampled, then the per-layer measurements, and writes
the spans and the CPU share per module to ``perfbench/out/``.

Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

from qubitrot import dynamics, sweeps

import layers
import speed
from spans import LayerSampler, Tracer, span_seconds
from workloads import WORKLOADS

OUT_DIR = Path(__file__).resolve().parent / "out"


def run_round(workload, index: int, tr: Tracer, first_op: int, meter=None) -> list[dict]:
    """One round of operations. With a ``speed.Meter`` (whose clock ``tr``
    must use), each record also carries the operation's ``loop_s``."""
    records = []
    for k, op in enumerate(workload.ops):
        with tr.operation(first_op + k, op.name):
            with meter.operation() if meter else contextlib.nullcontext({}) as speed_out:
                result = op.run(tr)
        records.append(
            {
                "round": index,
                "name": op.name,
                "seconds": result.seconds,
                "integrations": result.integrations,
                "errors": result.errors,
                **speed_out,
            }
        )
    return records


def warm_up() -> None:
    """Finish the package's lazy set-up (scipy's first solve) before timing."""
    dynamics.integrate(sweeps.base_config(delta_tau=0.0).with_(samples=2))


def untraced(workload, seconds: float) -> dict:
    meter = speed.Meter()
    tr = Tracer(enabled=False, clock=meter.clock)
    ops: list[dict] = []
    start = time.perf_counter()
    index = 0
    last = 0.0
    # Whole rounds only, so every run has the same operation mix; at least
    # two, so trajectory_io always repeats its commands. A round that would
    # end past the deadline is not started.
    while index < 2 or time.perf_counter() - start + last < seconds:
        t0 = time.perf_counter()
        ops += run_round(workload, index, tr, len(ops), meter)
        last = time.perf_counter() - t0
        index += 1
    return {"ops": ops}


def traced(workload, name: str, seed: int, workdir: Path) -> dict:
    tr = Tracer(enabled=True)
    sampler = LayerSampler(Path(dynamics.__file__).resolve().parent)
    t0 = time.perf_counter()
    with sampler.sampling():
        ops = run_round(workload, 0, tr, 0)
    round_s = time.perf_counter() - t0
    n_workload_spans = len(tr.spans)

    metrics, errors = layers.measure(tr, seed, workdir)
    tracing_s = n_workload_spans * span_seconds() + sampler.seconds
    metrics["trace.overhead_frac"] = tracing_s / (round_s - tracing_s)
    for module, seconds in tr.self_seconds().items():
        metrics[f"self_ms.{module}"] = seconds * 1e3
    workload_self = tr.self_seconds(0, n_workload_spans)
    layer_share = sampler.shares()
    tr.write(
        OUT_DIR / f"spans_{name}_{seed}.json",
        {"workload": name, "seed": seed, "round_s": round_s,
         "workload_self_s": workload_self, "layer_share": layer_share},
    )
    print(f"{name}, one traced round of {round_s:.3f} s:", file=sys.stderr)
    print(f"  {'module':10s} {'span self s':>11s} {'CPU share':>9s}", file=sys.stderr)
    for module in sorted(set(workload_self) | set(layer_share)):
        print(f"  {module:10s} {workload_self.get(module, 0.0):11.4f} "
              f"{layer_share.get(module, 0.0):9.3f}", file=sys.stderr)
    ops.append({"round": -1, "name": "layer_checks", "errors": errors})
    return {"ops": ops, "layer_metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT_DIR))
    try:
        workload = WORKLOADS[args.workload](args.seed, Tracer(enabled=False), workdir)
        warm_up()
        if args.trace:
            doc = traced(workload, args.workload, args.seed, workdir)
        else:
            doc = untraced(workload, args.seconds)
    finally:
        shutil.rmtree(workdir)
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
