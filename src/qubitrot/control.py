"""Inverse problem: find pulse parameters realizing a target qubit rotation.

The objective is fidelity of the long-time ground-plane state against a
target (g, f) pair, minus a penalty on residual excited-state population.
The landscape is an oscillatory ODE functional with no analytic gradient, so
the search is derivative-free: a deterministic coarse grid scan over the box
bounds followed by simplex refinement from the best grid point.

Scan and refinement evaluations may run at a loosened relative tolerance for
speed; the returned best point is always re-evaluated at the base
configuration's own tolerances and that value is reported, so an independent
forward simulation at the returned parameters reproduces the reported
numbers exactly.
"""

from __future__ import annotations

import itertools
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .analysis import fidelity
from .dynamics import integrate
from .errors import IntegrationError, SolverError
from .sweeps import apply_parameter
from .types import SimulationConfig

log = logging.getLogger(__name__)

CONTROL_PARAMETERS = ("delta_tau", "ratio_omega", "delta_phase", "chi", "T_over_tau")


@dataclass(frozen=True)
class ControlProblem:
    """Target state, searchable parameters with box bounds, and the base run.

    ``free_parameters`` maps parameter names to (lower, upper) bounds; a
    collapsed bound (lower == upper) pins that parameter. ``leak_weight``
    multiplies the final excited-state population in the objective.
    """

    target: np.ndarray
    free_parameters: Mapping[str, tuple[float, float]]
    base: SimulationConfig
    leak_weight: float = 1.0

    def __post_init__(self):
        target = np.asarray(self.target, dtype=complex)
        if target.shape != (2,):
            raise ValueError(f"target must be a (g, f) pair, got shape {target.shape}")
        n = np.linalg.norm(target)
        if not abs(n - 1.0) <= 1e-6:
            raise ValueError(f"target must be normalized, got |target| = {n!r}")
        object.__setattr__(self, "target", target)
        params = dict(self.free_parameters)
        if not params:
            raise ValueError("at least one free parameter is required")
        for name, (lo, hi) in params.items():
            if name not in CONTROL_PARAMETERS:
                raise ValueError(
                    f"unknown control parameter {name!r}; valid: {CONTROL_PARAMETERS}"
                )
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"bounds for {name!r} must be finite, got ({lo}, {hi})")
            if lo > hi:
                raise ValueError(f"lower bound exceeds upper for {name!r}: ({lo}, {hi})")
            # each parameter's valid values form an interval: check its ends
            for value in (lo, hi):
                try:
                    apply_parameter(self.base, name, value)
                except ValueError as exc:
                    raise ValueError(f"bound {value} for {name!r}: {exc}") from exc
        object.__setattr__(self, "free_parameters", params)
        if not 0.0 <= self.leak_weight < math.inf:
            raise ValueError(f"leak_weight must be non-negative and finite, got {self.leak_weight}")


@dataclass
class SolveResult:
    parameters: dict[str, float]
    fidelity: float
    final_p_e: float
    objective: float
    evaluations: int
    grid_failures: list[tuple[dict, str]] = field(default_factory=list)


def _objective_config(problem: ControlProblem, values: dict[str, float], rel_tol: float):
    cfg = problem.base
    for name, value in values.items():
        cfg = apply_parameter(cfg, name, value)
    if rel_tol > cfg.rel_tol:
        cfg = replace(cfg, rel_tol=rel_tol, abs_tol=max(cfg.abs_tol, rel_tol * 1e-2))
    return cfg


def _evaluate(problem: ControlProblem, values: dict[str, float], rel_tol: float):
    """(fidelity, final P_e, objective) at one parameter point."""
    cfg = _objective_config(problem, values, rel_tol)
    traj = integrate(cfg)
    fid = fidelity(traj.final_state(), problem.target, float(traj.times[-1]), cfg)
    p_e = float(traj.p_e[-1])
    return fid, p_e, fid - problem.leak_weight * p_e


def _grid_eval(args):
    problem, values, rel_tol = args
    try:
        return _evaluate(problem, values, rel_tol), None
    except IntegrationError as exc:
        return None, str(exc)


def solve(
    problem: ControlProblem,
    *,
    grid_points: int = 11,
    eval_rel_tol: float = 1e-8,
    workers: int = 1,
) -> SolveResult:
    """Maximize fidelity minus the leak penalty over the box bounds.

    Deterministic for fixed inputs: the coarse grid is scanned in
    lexicographic parameter order (ties keep the earliest point), then a
    Nelder-Mead simplex refines the best point to parameter tolerance 1e-4
    within the bounds. Points whose integration fails are skipped and logged;
    if every grid point fails, SolverError is raised.
    """
    names = list(problem.free_parameters.keys())
    bounds = [problem.free_parameters[n] for n in names]
    axes = [
        np.linspace(lo, hi, 1 if lo == hi else grid_points) for lo, hi in bounds
    ]
    candidates = [dict(zip(names, combo)) for combo in itertools.product(*axes)]

    tasks = [(problem, values, eval_rel_tol) for values in candidates]
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            outcomes = list(pool.map(_grid_eval, tasks))
    else:
        outcomes = [_grid_eval(t) for t in tasks]

    best_values = None
    best_obj = -math.inf
    evaluations = 0
    failures: list[tuple[dict, str]] = []
    for values, (result, err) in zip(candidates, outcomes):
        if err is not None:
            log.warning("grid point %r failed: %s", values, err)
            failures.append((values, err))
            continue
        evaluations += 1
        _, _, obj = result
        if obj > best_obj:
            best_obj, best_values = obj, values
    if best_values is None:
        raise SolverError("every grid point failed to evaluate")

    free_names = [n for n, (lo, hi) in zip(names, bounds) if lo != hi]
    if free_names:
        # imported here: scipy.optimize is most of the package's import time
        # and memory, and only this refinement uses it
        from scipy.optimize import minimize

        fixed = {n: best_values[n] for n in names if n not in free_names}
        counter = [evaluations]

        def neg_objective(x: np.ndarray) -> float:
            values = dict(fixed)
            values.update(zip(free_names, (float(v) for v in x)))
            try:
                counter[0] += 1
                return -_evaluate(problem, values, eval_rel_tol)[2]
            except IntegrationError as exc:
                log.warning("refinement point %r failed: %s", values, exc)
                return math.inf

        res = minimize(
            neg_objective,
            x0=np.array([best_values[n] for n in free_names]),
            method="Nelder-Mead",
            bounds=[problem.free_parameters[n] for n in free_names],
            options={"xatol": 1e-4, "fatol": 1e-12, "maxiter": 400},
        )
        evaluations = counter[0]
        if math.isfinite(res.fun) and -res.fun >= best_obj:
            best_values = dict(fixed)
            best_values.update(zip(free_names, (float(v) for v in res.x)))

    # report at the base tolerances so a forward run reproduces the numbers
    fid, p_e, obj = _evaluate(problem, best_values, rel_tol=0.0)
    return SolveResult(
        parameters={n: float(best_values[n]) for n in names},
        fidelity=fid,
        final_p_e=p_e,
        objective=obj,
        evaluations=evaluations + 1,
        grid_failures=failures,
    )
