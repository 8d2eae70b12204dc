"""Per-layer measurements of the traced run.

Every call goes through the tracer, so each timing is also a span. Wall
times are medians of a few repeats; counters (RHS evaluations, solver
evaluations, bytes, source lines) do not depend on the machine.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import statistics
import sys
from pathlib import Path

import numpy as np

from qubitrot import analysis, cli, control, dynamics, stirap, sweeps, twolevel, types

from workloads import (
    MIN_SOLVE_FIDELITY,
    NORM_TOL,
    SOLVE_EVAL_REL_TOL,
    SOLVE_GRID_POINTS,
    TRAJECTORY_SAMPLES,
    jittered_grid,
    make_config,
    norm_errors,
    reachable_problem,
)

REPEATS = 3
ORACLE_STEP = 1e-4
ORACLE_TOL = 1e-6


def regimes(tr) -> dict[str, types.SimulationConfig]:
    """The five integration regimes: resonance, delta tau = 45 and 200, and
    linear and tanh chirp at delta tau = 75 (the fig2/fig11/fig13 bases)."""
    a, phi = 0.3, math.pi / 2
    return {
        "res": make_config(tr, a, phi, 0.0),
        "d45": make_config(tr, a, phi, 45.0),
        "d200": make_config(tr, a, phi, 200.0),
        "linear": make_config(tr, a, phi, 75.0, chirp_kind="linear", chi=1.0),
        "tanh": make_config(tr, a, phi, 75.0, chirp_kind="tanh", chi=1.0),
    }


def timed(tr, name, fn, *args, **kwargs):
    """(last result, median seconds) over REPEATS traced calls."""
    times = []
    for _ in range(REPEATS):
        result, seconds = tr.call(name, fn, *args, **kwargs)
        times.append(seconds)
    return result, statistics.median(times)


def per_call(tr, name, fn, *args, calls: int):
    """Seconds per call, from one span around ``calls`` back-to-back calls."""

    def loop():
        for _ in range(calls):
            fn(*args)

    return tr.call(name, loop)[1] / calls


def measure_dynamics(tr, m: dict, errors: list[str]) -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
    from oracles import rk4_final_state

    configs = regimes(tr)
    for label, cfg in configs.items():
        traj, seconds = timed(tr, "dynamics.integrate", dynamics.integrate, cfg)
        count = [0]

        def counting_envelope(t, p=cfg.pulses):
            count[0] += 1
            return dynamics.envelope(t, p)

        counted = tr.call(
            "dynamics.integrate", dynamics.integrate, cfg, envelopes=counting_envelope
        )[0]
        m[f"dynamics.integrate_ms.{label}"] = seconds * 1e3
        m[f"dynamics.rhs_evals.{label}"] = count[0]
        m[f"dynamics.us_per_rhs.{label}"] = seconds * 1e6 / count[0]
        if not np.array_equal(counted.states, traj.states):
            errors.append(f"{label}: counting envelope hook changed the states")
        if traj.max_norm_error > NORM_TOL:
            errors.append(f"{label}: norm drift {traj.max_norm_error:.2e}")
        reference = rk4_final_state(cfg, h=ORACLE_STEP)
        gap = max(abs(x - y) for x, y in zip(traj.states[-1], reference))
        if gap > ORACLE_TOL:
            errors.append(f"{label}: fixed-step RK4 oracle gap {gap:.2e}")

    big = tr.call(
        "dynamics.integrate", dynamics.integrate, configs["d45"].with_(samples=TRAJECTORY_SAMPLES)
    )[0]
    m["dynamics.rotated_to_bare_ms"] = 1e3 * per_call(
        tr, "dynamics.rotated_to_bare", dynamics.rotated_to_bare,
        big.states, big.times, big.config, calls=20,
    )
    m["dynamics.phase_pair_ms"] = 1e3 * per_call(
        tr, "dynamics.phase_pair", dynamics.phase_pair, big.states[:, 1], big.states[:, 2],
        calls=20,
    )


def measure_analysis(tr, m: dict, errors: list[str]):
    """Returns the resonant trajectory at the high sample count, reused by the cli probes."""
    res = regimes(tr)["res"]
    for samples in (601, TRAJECTORY_SAMPLES):
        cfg = res.with_(samples=samples)
        traj = tr.call("dynamics.integrate", dynamics.integrate, cfg)[0]
        pops, seconds = timed(
            tr, "analysis.adiabatic_populations", analysis.adiabatic_populations, traj, cfg
        )
        m[f"analysis.adiabatic_populations_ms.s{samples}"] = seconds * 1e3
        errors += norm_errors(f"adiabatic populations at {samples}", pops)
        if samples == 601:
            _, seconds = timed(
                tr, "analysis.nonadiabaticity", analysis.nonadiabaticity, traj, cfg
            )
            m["analysis.nonadiabaticity_ms"] = seconds * 1e3
            m["analysis.fidelity_us"] = 1e6 * per_call(
                tr, "analysis.fidelity", analysis.fidelity,
                traj.final_state(), cfg.initial.amplitudes(), float(traj.times[-1]), cfg,
                calls=2000,
            )
    return traj


def measure_twolevel_stirap(tr, m: dict, errors: list[str], rng: random.Random) -> None:
    cfg = make_config(tr, rng.uniform(0.2, 0.9), rng.uniform(0, 2 * math.pi), 45.0)
    _, seconds = timed(tr, "twolevel.integrate_two_level", twolevel.integrate_two_level, cfg)
    m["twolevel.integrate_two_level_ms"] = seconds * 1e3
    _, seconds = timed(tr, "twolevel.compare_with_full", twolevel.compare_with_full, cfg)
    m["twolevel.compare_with_full_ms"] = seconds * 1e3

    qubit = cfg.initial
    report, seconds = timed(tr, "stirap.orthogonal_transfer", stirap.orthogonal_transfer, qubit)
    m["stirap.orthogonal_transfer_ms"] = seconds * 1e3
    if report.trajectory.max_norm_error > NORM_TOL:
        errors.append(f"orthogonal transfer norm drift {report.trajectory.max_norm_error:.2e}")
    _, seconds = timed(
        tr, "stirap.chopped_rotation", stirap.chopped_rotation, qubit,
        stop_time=rng.uniform(0.0, 1.5),
    )
    m["stirap.chopped_rotation_ms"] = seconds * 1e3


def measure_sweeps(tr, m: dict, errors: list[str], rng: random.Random):
    """Serial against pooled run_sweep on one grid; the pool's start-up is
    the pooled time of a near-empty two-point sweep minus its serial time."""
    base = make_config(tr, 0.3, math.pi / 2, 45.0)
    spec = sweeps.SweepSpec("delta_tau", jittered_grid(rng, 30.0, 200.0, 8), base)
    workers = min(2, os.cpu_count() or 1)
    serial, t_serial = tr.call("sweeps.run_sweep", sweeps.run_sweep, spec)
    pooled, t_pooled = tr.call("sweeps.run_sweep", sweeps.run_sweep, spec, workers=workers)
    if serial.points != pooled.points:
        errors.append(f"run_sweep with {workers} workers differs from serial")
    m["sweeps.run_sweep_s"] = t_serial
    m["sweeps.run_sweep_workers_s"] = t_pooled
    m["sweeps.parallel_speedup"] = t_serial / t_pooled
    m["sweeps.ms_per_point"] = t_serial * 1e3 / len(spec.grid)

    tiny = sweeps.SweepSpec(
        "delta_tau", (1.0, 2.0), base.with_(t_start=-8.0, t_end=-7.9, samples=2)
    )
    _, t_tiny_serial = timed(tr, "sweeps.run_sweep", sweeps.run_sweep, tiny)
    _, t_tiny_pooled = timed(tr, "sweeps.run_sweep", sweeps.run_sweep, tiny, workers=workers)
    m["sweeps.pool_startup_s"] = t_tiny_pooled - t_tiny_serial
    return serial


def measure_control(tr, m: dict, errors: list[str], rng: random.Random) -> None:
    problem = reachable_problem(tr, rng, 40.0, 50.0)
    result, seconds = tr.call(
        "control.solve", control.solve, problem,
        grid_points=SOLVE_GRID_POINTS, eval_rel_tol=SOLVE_EVAL_REL_TOL,
    )
    m["control.solve_s"] = seconds
    m["control.evaluations"] = result.evaluations
    m["control.ms_per_evaluation"] = seconds * 1e3 / result.evaluations
    if not result.fidelity >= MIN_SOLVE_FIDELITY:
        errors.append(f"solve fidelity {result.fidelity:.6f} on a reachable target")


def measure_cli(tr, m: dict, errors: list[str], workdir: Path, traj, sweep) -> None:
    cfg = traj.config
    cfg_path = workdir / "layers.json"
    cfg_path.write_text(json.dumps(cli.config_to_dict(cfg)))
    samples = ["--samples", str(TRAJECTORY_SAMPLES)]
    commands = {
        "simulate": ["simulate", "--config", str(cfg_path), "--adiabatic", *samples],
        "twolevel": ["twolevel", "--preset", "fig9", *samples],
        "stirap": ["stirap", "--alpha", "0.6"],
    }
    written = 0
    for name, argv in commands.items():
        out = workdir / f"layers_{name}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            code, seconds = tr.call("cli.main", cli.main, [*argv, "--out", str(out)])
        if code != 0:
            errors.append(f"cli {name}: exit code {code}")
        m[f"cli.main_s.{name}"] = seconds
        written += sum(p.stat().st_size for p in workdir.glob(f"layers_{name}.*"))
    m["cli.bytes_written"] = written

    _, seconds = timed(
        tr, "cli.trajectory_csv_lines", cli.trajectory_csv_lines, traj, cfg, adiabatic=True
    )
    m["cli.trajectory_csv_ms"] = seconds * 1e3
    m["cli.sweep_csv_ms"] = 1e3 * per_call(
        tr, "cli.sweep_csv_lines", cli.sweep_csv_lines, sweep, calls=50
    )
    entries = cli.config_to_dict(cfg)
    m["cli.build_config_us"] = 1e6 * per_call(
        tr, "cli.build_config", cli.build_config, entries, calls=2000
    )
    m["types.config_build_us"] = 1e6 * per_call(
        tr, "sweeps.apply_parameter", sweeps.apply_parameter, cfg, "delta_tau", 60.0,
        calls=2000,
    )


def source_lines() -> dict:
    src = Path(sweeps.__file__).resolve().parent
    counts = {p.name: p.read_bytes().count(b"\n") for p in sorted(src.glob("*.py"))}
    return {"src.lines": sum(counts.values()), "src.cli_lines": counts["cli.py"]}


def measure(tr, seed: int, workdir: Path) -> tuple[dict, list[str]]:
    """Every per-layer metric except the trace overhead, and any failed checks."""
    rng = random.Random(f"layers:{seed}")
    m: dict = {}
    errors: list[str] = []
    measure_dynamics(tr, m, errors)
    traj = measure_analysis(tr, m, errors)
    measure_twolevel_stirap(tr, m, errors, rng)
    sweep = measure_sweeps(tr, m, errors, rng)
    measure_control(tr, m, errors, rng)
    measure_cli(tr, m, errors, workdir, traj, sweep)
    m.update(source_lines())
    return m, errors
