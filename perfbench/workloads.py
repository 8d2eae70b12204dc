"""Seeded workloads of the benchmark.

A workload is a sequence of rounds; a round is a fixed list of operations
whose inputs depend only on the seed and the round index. The program sees
only the configs, grids, targets and command lines generated here. Each
operation reports how long its calls into the package took, how many ODE
integrations it completed (counted from public results), and every
correctness check it failed.

Why each workload exists. The shares are of the CPU time of one traced
round at the baseline commit (seed 1), from the stack sampler in
``spans.py``; ``perfbench/baseline.json`` records them as ``layer_share``.

* ``sweep_grid``: dynamics takes 98 % of the CPU time and grid points are
  independent, so batched integration lanes or a worker pool must show here;
  analysis takes 1 % and cli less.
* ``solve_search``: the same dynamics layer used differently; it takes
  99.8 % of the CPU time. Most evaluations form a serial Nelder-Mead chain,
  so a change that speeds up grids but slows one integration (batch-of-one
  overhead) shows here.
* ``trajectory_io``: no grid. Of the CPU time spent in the package, dynamics
  takes 62 %, cli (CSV and manifest writing) 25 % and analysis (adiabatic
  populations) 9 %, so a writer change shows and a batched integrator
  should change nothing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from qubitrot import cli, control, dynamics, sweeps, types

NORM_TOL = 1e-8
MIN_SOLVE_FIDELITY = 0.999
POINTS_PER_GRID = 6
TRAJECTORY_SAMPLES = 6001
SOLVE_GRID_POINTS = 5
SOLVE_EVAL_REL_TOL = 1e-8
SOLVE_HALF_WIDTH = 3.0


@dataclass
class OpResult:
    seconds: float = 0.0
    integrations: int = 0
    errors: list[str] = field(default_factory=list)


@dataclass
class Op:
    name: str
    run: Callable[..., OpResult]


def jittered_grid(rng: random.Random, lo: float, hi: float, n: int) -> tuple[float, ...]:
    """One uniform draw in each of ``n`` equal strata of [lo, hi).

    The grid is strictly increasing, and every seed spreads its points over
    the whole range, so the cost of a grid barely depends on the seed.
    """
    width = (hi - lo) / n
    return tuple(lo + width * (k + rng.random()) for k in range(n))


def make_config(tr, alpha, phi, delta_tau, *, chirp_kind="none", chi=0.0):
    """A config on the common base (omega tau = 15, T = 4 tau / 3), built from types."""

    def build():
        chirp = types.ChirpProfile(chirp_kind, chi)
        return types.SimulationConfig(
            pulses=types.PulsePair(
                omega01=15.0, omega02=15.0, T=4.0 / 3.0, chirp1=chirp, chirp2=chirp
            ),
            detunings=types.DetuningSpec(delta_tau, delta_tau),
            initial=types.InitialQubit(alpha, math.sqrt(1.0 - alpha * alpha), phi),
        )

    return tr.call("types.SimulationConfig", build)[0]


def norm_errors(label: str, populations: np.ndarray) -> list[str]:
    gap = float(np.max(np.abs(np.sum(populations, axis=-1) - 1.0)))
    return [] if gap <= NORM_TOL else [f"{label}: populations sum off 1 by {gap:.2e}"]


# ---------------------------------------------------------------------------
# sweep_grid
# ---------------------------------------------------------------------------


class SweepGrid:
    """Serial run_sweep plus the sweep CSV over grids shaped like the presets:
    a detuning scan over [30, 200] (fig2_inset), linear and tanh chirp scans
    at delta tau = 75 (fig11, fig13), and a resonant amplitude-ratio scan (fig7).
    """

    name = "sweep_grid"

    def __init__(self, seed: int, tr, workdir: Path):
        rng = random.Random(f"{self.name}:{seed}")
        a, phi = 0.3, math.pi / 2
        grids = {
            "detuning": ("delta_tau", make_config(tr, a, phi, 45.0), 30.0, 200.0),
            "chirp_linear": (
                "chi", make_config(tr, a, phi, 75.0, chirp_kind="linear", chi=1.0), -2.0, 2.0
            ),
            "chirp_tanh": (
                "chi", make_config(tr, a, phi, 75.0, chirp_kind="tanh", chi=1.0), -2.0, 2.0
            ),
            "ratio": ("ratio_omega", make_config(tr, 1.0, 0.0, 0.0), 0.3, 2.0),
        }
        self.ops = []
        for label, (param, base, lo, hi) in grids.items():
            grid = jittered_grid(rng, lo, hi, POINTS_PER_GRID)
            self.ops.append(Op(f"run_sweep.{label}", self._op(sweeps.SweepSpec(param, grid, base))))

    @staticmethod
    def _op(spec):
        def run(tr) -> OpResult:
            result, t_sweep = tr.call("sweeps.run_sweep", sweeps.run_sweep, spec)
            lines, t_csv = tr.call("cli.sweep_csv_lines", cli.sweep_csv_lines, result)
            out = OpResult(t_sweep + t_csv, len(result.points))
            for pt in result.points:
                label = f"{spec.parameter}={pt.value!r}"
                if pt.error:
                    out.errors.append(f"{label}: {pt.error}")
                out.errors += norm_errors(label, np.array([pt.p_e, pt.p_g, pt.p_f]))
            if len(lines) != len(spec.grid) + len(cli.config_to_dict(spec.base)) + 3:
                out.errors.append(f"sweep CSV has {len(lines)} lines")
            return out

        return run


# ---------------------------------------------------------------------------
# solve_search
# ---------------------------------------------------------------------------


def reachable_problem(tr, rng: random.Random, lo: float, hi: float) -> control.ControlProblem:
    """A target reached by a forward run of the base qubit at a seeded delta
    tau in [lo, hi), searched over delta tau +- SOLVE_HALF_WIDTH.

    Only delta tau is seeded: the qubit and the box change the cost of a
    solve by tens of percent, which would show as seed-to-seed spread."""
    delta_tau = rng.uniform(lo, hi)
    cfg = make_config(tr, 0.3, math.pi / 2, delta_tau)
    traj = tr.call("dynamics.integrate", dynamics.integrate, cfg)[0]
    bare = tr.call(
        "dynamics.rotated_to_bare", dynamics.rotated_to_bare, traj.states[-1], traj.times[-1], cfg
    )[0]
    box = (delta_tau - SOLVE_HALF_WIDTH, delta_tau + SOLVE_HALF_WIDTH)
    return tr.call(
        "control.ControlProblem",
        control.ControlProblem,
        target=bare[1:] / np.linalg.norm(bare[1:]),
        free_parameters={"delta_tau": box},
        base=cfg,
    )[0]


class SolveSearch:
    """control.solve on two reachable targets, at delta tau in [40, 45) and
    [45, 50): close enough in cost that the median operation is a typical
    solve rather than the gap between two kinds."""

    name = "solve_search"

    def __init__(self, seed: int, tr, workdir: Path):
        rng = random.Random(f"{self.name}:{seed}")
        self.ops = [
            Op(f"solve.d{lo:.0f}", self._op(reachable_problem(tr, rng, lo, hi)))
            for lo, hi in ((40.0, 45.0), (45.0, 50.0))
        ]

    @staticmethod
    def _op(problem):
        def run(tr) -> OpResult:
            result, seconds = tr.call(
                "control.solve",
                control.solve,
                problem,
                grid_points=SOLVE_GRID_POINTS,
                eval_rel_tol=SOLVE_EVAL_REL_TOL,
            )
            out = OpResult(seconds, result.evaluations)
            if not result.fidelity >= MIN_SOLVE_FIDELITY:
                out.errors.append(f"solve fidelity {result.fidelity:.6f} on a reachable target")
            return out

        return run


# ---------------------------------------------------------------------------
# trajectory_io
# ---------------------------------------------------------------------------


def _csv_populations(path: Path) -> np.ndarray:
    """The excited and ground population columns of a trajectory CSV."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    for names in (("p_e", "p_g", "p_f"), ("p_e_full", "p_g_full", "p_f_full")):
        if set(names) <= set(header):
            cols = [header.index(n) for n in names]
            rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
            return rows[:, cols]
    raise ValueError(f"{path.name}: no population columns in {header}")


class TrajectoryIO:
    """In-process cli.main for simulate (resonant with --adiabatic, and
    chirped), twolevel and stirap (with and without --chop) on seeded qubits,
    writing CSVs and manifests. The
    commands are the same in every round, so each later round repeats the
    first and its CSV bytes must match."""

    name = "trajectory_io"

    def __init__(self, seed: int, tr, workdir: Path):
        rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir
        self.reference: dict[str, str] = {}
        samples = ["--samples", str(TRAJECTORY_SAMPLES)]

        def qubit_config(name: str, **entries) -> str:
            alpha, phi = rng.uniform(0.2, 1.0), rng.uniform(0.0, 2.0 * math.pi)
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(dict(alpha=alpha, phi=phi, **entries)))
            return str(path)

        chi = rng.uniform(-2.0, 2.0)
        resonant = qubit_config("resonant", delta_tau=0.0)
        # delta tau is fixed at the fig9 base because twolevel is the median
        # operation: with delta tau seeded in [40, 60), op_p50_s spread by
        # 8.7 % (quartile distance over median) over ten seeds; fixed, by 6 %
        detuned = qubit_config("detuned", delta_tau=45.0)
        chirped = qubit_config(
            "chirped", delta_tau=75.0, chirp1_kind="linear", chi1=chi,
            chirp2_kind="linear", chi2=chi,
        )
        qubit = [f"--alpha={rng.uniform(0.2, 0.9)!r}", f"--phi={rng.uniform(0, 2 * math.pi)!r}"]
        chop = [f"--chop={rng.uniform(0.0, 1.5)!r}"]
        # five commands, so the median operation falls inside a group of
        # similar commands rather than in the gap between the stirap runs
        # and the high-sample runs
        self.commands = {
            "simulate_adiabatic": (["simulate", "--config", resonant, "--adiabatic", *samples], 1),
            "simulate_chirped": (["simulate", "--config", chirped, *samples], 1),
            "twolevel": (["twolevel", "--config", detuned, *samples], 2),
            "stirap": (["stirap", *qubit], 1),
            "stirap_chop": (["stirap", *qubit, *chop], 1),
        }
        self.ops = [Op(f"cli.{label}", self._op(label)) for label in self.commands]

    def _op(self, label: str):
        argv, integrations = self.commands[label]
        out_path = self.workdir / f"{label}.csv"
        outputs = [out_path]
        if argv[0] == "stirap":
            outputs.append(out_path.with_suffix(".envelopes.csv"))

        def run(tr) -> OpResult:
            for p in outputs:
                p.unlink(missing_ok=True)
            with contextlib.redirect_stdout(io.StringIO()):
                code, seconds = tr.call("cli.main", cli.main, [*argv, "--out", str(out_path)])
            out = OpResult(seconds, integrations)
            if code != 0:
                out.errors.append(f"{label}: exit code {code}")
                return out
            digest = hashlib.sha256(b"".join(p.read_bytes() for p in outputs)).hexdigest()
            if self.reference.setdefault(label, digest) != digest:
                out.errors.append(f"{label}: CSV bytes differ from the first run")
            out.errors += norm_errors(label, _csv_populations(out_path))
            return out

        return run


WORKLOADS = {w.name: w for w in (SweepGrid, SolveSearch, TrajectoryIO)}
