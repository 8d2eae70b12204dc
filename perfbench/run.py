"""Benchmark of the qubitrot package.

    python3 perfbench/run.py --workload sweep_grid --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Workloads are ``sweep_grid``, ``solve_search`` and
``trajectory_io`` (see ``workloads.py`` for why each exists). The run itself
happens in a fresh interpreter (``worker.py``); set-up time is probed in
further fresh interpreters.

End-to-end metrics (``--trace 0``):

* ``setup_s``: fresh interpreter to ``import qubitrot`` done and
  ``qubitrot.cli.build_parser()`` returned; median of several probes.
* ``wall_s``: wall time of one round of the workload's operations, median
  over the rounds of the run (each round repeats the same seeded inputs).
* ``integrations_per_s``: ODE integrations counted from public results
  (sweep points, ``SolveResult.evaluations``, 1 or 2 per CLI command)
  per second of operation time.
* ``op_p50_s``: median latency of one operation (one ``run_sweep`` with its
  CSV, one ``solve``, or one ``cli.main`` command): the median over the
  workload's operations of each one's median over the rounds. Taken over all
  operations at once, the median would sit in the gap between two kinds of
  operation and jump with the seed.
* ``peak_rss_mb``: peak resident memory of the run's interpreter.

The four times are in reference seconds (see ``speed.py``), so that a
machine that slows down for a while does not read as slower code: each
operation's time is scaled by the speed of a fixed reference loop sampled
while it runs, and each set-up probe by a fixed reference probe paired with
it. The raw measured values are printed next to them.

Operations that fail a correctness check are counted in ``failed``; the
failed fraction is printed with the metrics. ``--trace 1`` reports the
per-layer metrics instead, prints the self time and CPU share per module of
one traced round to standard error, and writes them with the spans to
``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
DEADLINE_S = 170.0
SETUP_PROBE = "import qubitrot.cli; qubitrot.cli.build_parser(); print('ready', flush=True)"


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["OMP_NUM_THREADS"] = "1"
    env.pop("QUBITROT_WORKERS", None)
    return env


def probe_seconds(code: str, timeout: float) -> float:
    """Seconds from spawning an interpreter that runs ``code`` until it
    prints ``ready``."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, env=child_env(), cwd=ROOT
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        exit_code = proc.wait(timeout=timeout)
    if exit_code != 0 or line.strip() != b"ready":
        raise BenchError(f"set-up probe failed with exit code {exit_code}")
    return elapsed


def run_worker(args, timeout: float) -> dict:
    cmd = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
    ]
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"run did not finish within {timeout:.0f} s") from exc
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"run failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def with_units(values: dict, kind: str) -> dict:
    """The metrics BENCHMARK.json declares under ``kind``, with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec[kind]}
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"run did not measure {missing}")
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def setup_probes(deadline: float) -> list[tuple[float, float]]:
    """Seconds of the set-up probe and of the reference probe, for each of
    SETUP_PROBES pairs. Pairs alternate which probe runs first, so that a
    machine speeding up or slowing down favours neither. The first probe of
    a fresh checkout also compiles the bytecode; the median absorbs it."""
    pairs = []
    for k in range(SETUP_PROBES):
        codes = (SETUP_PROBE, speed.SETUP_REFERENCE)
        seconds = {c: probe_seconds(c, deadline - time.perf_counter())
                   for c in (codes if k % 2 == 0 else codes[::-1])}
        pairs.append((seconds[SETUP_PROBE], seconds[speed.SETUP_REFERENCE]))
    return pairs


def end_to_end(doc: dict, setup: list[tuple[float, float]], reference_speed: bool) -> dict:
    """The end-to-end metrics, with times at reference speed or raw."""
    ops = doc["ops"]
    setup_s = [
        package * speed.SETUP_REFERENCE_S / reference if reference_speed else package
        for package, reference in setup
    ]

    def seconds(op: dict) -> float:
        scale = speed.REFERENCE_S / op["loop_s"] if reference_speed else 1.0
        return scale * op["seconds"]

    rounds: dict[int, float] = defaultdict(float)
    by_name: dict[str, list[float]] = defaultdict(list)
    for op in ops:
        rounds[op["round"]] += seconds(op)
        by_name[op["name"]].append(seconds(op))
    return {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(rounds.values()),
        "integrations_per_s": sum(op["integrations"] for op in ops) / sum(rounds.values()),
        "op_p50_s": statistics.median(statistics.median(t) for t in by_name.values()),
        "peak_rss_mb": doc["peak_rss_mb"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "qubitrot" / "__init__.py").is_file():
        print(f"error: no qubitrot package under {SRC}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    try:
        setup = [] if args.trace else setup_probes(deadline)
        doc = run_worker(args, deadline - time.perf_counter())
        if args.trace:
            metrics = with_units(doc["layer_metrics"], "per_layer")
        else:
            metrics = with_units(end_to_end(doc, setup, True), "end_to_end")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = len(doc["ops"])
    failed = sum(1 for op in doc["ops"] if op["errors"])
    for op in doc["ops"]:
        for err in op["errors"]:
            print(f"FAILED {op['name']} (round {op['round']}): {err}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    raw = {} if args.trace else end_to_end(doc, setup, False)
    for name, m in metrics.items():
        measured = f"  (raw {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}{measured}")
    print(f"  {'failed_ops_frac':40s} {failed / attempted:14.6g} 1  ({failed} of {attempted})")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
