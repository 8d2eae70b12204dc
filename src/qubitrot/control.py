"""Inverse problem: find pulse parameters realizing a target qubit rotation.

The objective is fidelity of the long-time ground-plane state against a
target (g, f) pair, minus a penalty on residual excited-state population.
The landscape is an oscillatory ODE functional with no analytic gradient, so
the search is derivative-free: a deterministic coarse grid scan over the box
bounds, then a refinement from the best grid point. One free parameter is
refined by Brent's bounded method on the bracket of the point's grid
neighbours; several are refined by a bounded Nelder-Mead simplex. Both are
in-package ports of scipy's, which give the same points and bits without
scipy's import time and memory.

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
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .analysis import fidelity
from .dynamics import integrate
from .errors import IntegrationError, SolverError
from .sweeps import apply_parameter, map_points
from .types import SimulationConfig

log = logging.getLogger(__name__)

CONTROL_PARAMETERS = ("delta_tau", "ratio_omega", "delta_phase", "chi", "T_over_tau")

# the refinement: scipy's default initial simplex and solve's options; Brent
# shares the parameter tolerance and stops after _MAXFUN evaluations
_NONZDELT, _ZDELT = 0.05, 0.00025
_XATOL, _FATOL, _MAXITER, _MAXFUN = 1e-4, 1e-12, 400, 500


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


def _objective(problem: ControlProblem, values: dict[str, float], rel_tol: float, stage: str):
    """(objective, None) at one point of the grid or refinement ``stage``, or
    (-inf, message) where its integration fails, which is logged."""
    try:
        return _evaluate(problem, values, rel_tol)[2], None
    except IntegrationError as exc:
        log.warning("%s point %r failed: %s", stage, values, exc)
        return -math.inf, str(exc)


def _nelder_mead(func, x0: np.ndarray, bounds) -> tuple[np.ndarray, float]:
    """Minimize ``func`` from ``x0`` with a simplex kept inside ``bounds``.

    A port of scipy 1.17.1's ``_minimize_neldermead`` (Nelder & Mead 1965,
    with the non-adaptive coefficients of Gao & Han 2012) for the options
    ``solve`` uses: ``bounds``, ``xatol = 1e-4``, ``fatol = 1e-12``,
    ``maxiter = 400`` and the default initial simplex. Every vertex is
    clipped to ``bounds``, a sequence of (lower, upper) pairs. The arithmetic,
    the sorting and the order of the calls to ``func``, each on a copy of the
    point, are scipy's, so both evaluate the same points and return the same
    (x, fun) bits.
    """
    lower, upper = (np.array(b, dtype=float) for b in zip(*bounds))
    x0 = np.clip(np.asarray(x0, dtype=float), lower, upper)
    n = len(x0)

    def call(x: np.ndarray) -> float:
        return func(x.copy())

    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = x0.copy()
        y[k] = (1 + _NONZDELT) * y[k] if y[k] != 0 else _ZDELT
        sim[k + 1] = y
    # a start near the upper bound puts a vertex above it: reflect it into
    # the box rather than clip the simplex flat
    sim = np.clip(np.where(sim > upper, 2 * upper - sim, sim), lower, upper)
    fsim = np.array([call(v) for v in sim], dtype=float)

    def sort():
        nonlocal sim, fsim
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    sort()
    sort()  # scipy sorts twice before the first step; the second may reorder ties
    iterations = 1
    while iterations < _MAXITER:
        # fsim is sorted, so fsim[-1] - fsim[0] is scipy's max |fsim[0] - fsim[1:]|;
        # in Python floats, inf - inf gives NaN without numpy's warning
        if (
            np.max(np.abs(sim[1:] - sim[0])) <= _XATOL
            and float(fsim[-1]) - float(fsim[0]) <= _FATOL
        ):
            break
        # rho = 1, chi = 2, psi = sigma = 0.5
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = np.clip(2 * xbar - sim[-1], lower, upper)
        fxr = call(xr)
        shrink = False
        if fxr < fsim[0]:
            xe = np.clip(3 * xbar - 2 * sim[-1], lower, upper)
            fxe = call(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:
            xc = np.clip(1.5 * xbar - 0.5 * sim[-1], lower, upper)
            fxc = call(xc)
            if fxc <= fxr:
                sim[-1], fsim[-1] = xc, fxc
            else:
                shrink = True
        else:
            xcc = np.clip(0.5 * xbar + 0.5 * sim[-1], lower, upper)
            fxcc = call(xcc)
            if fxcc < fsim[-1]:
                sim[-1], fsim[-1] = xcc, fxcc
            else:
                shrink = True
        if shrink:
            for j in range(1, n + 1):
                sim[j] = np.clip(sim[0] + 0.5 * (sim[j] - sim[0]), lower, upper)
                fsim[j] = call(sim[j])
        iterations += 1
        sort()
    return sim[0], float(np.min(fsim))


def _sign(v: float) -> float:
    """numpy's ``sign(v) + (v == 0)``: -1.0 below zero, else 1.0."""
    return -1.0 if v < 0 else 1.0


def _brent(func, bracket, x0: float, f0: float) -> tuple[float, float]:
    """Minimize ``func`` over ``bracket`` from ``x0``, whose value ``f0`` is known.

    A port of scipy 1.17.1's ``_minimize_scalar_bounded`` (Brent 1973, ch. 5)
    with ``xatol = 1e-4`` and ``maxiter = 500``. scipy starts from the
    golden-section point of the bracket and evaluates it first; this starts
    from ``x0`` instead, counts it as the first of at most 500 evaluations,
    and otherwise keeps scipy's arithmetic and its update of the three
    points. Started at scipy's first point with that point's value, it
    evaluates scipy's later points in the same order and returns the same
    (x, fun) bits.
    """
    a, b = bracket
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    xf = nfc = fulc = x0
    fx = fnfc = ffulc = f0
    rat = e = 0.0
    num = 1
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + _XATOL / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        # try a parabola through the three points
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign(xm - xf)
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e
        x = xf + _sign(rat) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + _XATOL / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAXFUN:
            break
    return xf, fx


def _refine_on_axis(func, axis: np.ndarray, i: int, bounds, f_best: float) -> tuple[float, float]:
    """Refine grid point ``axis[i]``, of value ``f_best``, with :func:`_brent`.

    The bracket is the point's neighbours on the axis, or the box bound where
    the point ends the axis. On a bound, Brent would walk back towards the
    bound one golden-section step at a time, so one probe ``_XATOL`` inside
    decides first: the bound is kept unless the probe is strictly better.
    """
    lo, hi = map(float, bounds)
    a = float(axis[i - 1]) if i > 0 else lo
    b = float(axis[i + 1]) if i + 1 < len(axis) else hi
    x0 = float(axis[i])
    if x0 == lo or x0 == hi:
        probe = min(x0 + _XATOL, b) if x0 == lo else max(x0 - _XATOL, a)
        f_probe = func(probe)
        if not f_probe < f_best:
            return x0, f_best
        x0, f_best = probe, f_probe
    return _brent(func, (a, b), x0, f_best)


def solve(
    problem: ControlProblem,
    *,
    grid_points: int = 11,
    eval_rel_tol: float = 1e-8,
    workers: int = 1,
) -> SolveResult:
    """Maximize fidelity minus the leak penalty over the box bounds.

    Deterministic for fixed inputs: the coarse grid is scanned in
    lexicographic parameter order (ties keep the earliest point), then the
    best point is refined to parameter tolerance 1e-4 within the bounds. One
    free parameter is refined by Brent's method on the bracket of its grid
    neighbours (:func:`_refine_on_axis`), several by a Nelder-Mead simplex.
    The search integrates no point twice, and the refined point replaces the
    grid point only if it is at least as good. A point whose integration fails
    is logged and scores -inf, and ``evaluations`` counts it as it counts every
    integration that ran; if every grid point fails, SolverError is raised.
    """
    names = list(problem.free_parameters.keys())
    bounds = [problem.free_parameters[n] for n in names]
    axes = [
        np.linspace(lo, hi, 1 if lo == hi else grid_points) for lo, hi in bounds
    ]
    candidates = [dict(zip(names, combo)) for combo in itertools.product(*axes)]

    outcomes = map_points(
        lambda values: _objective(problem, values, eval_rel_tol, "grid"), candidates, workers
    )

    best_values = None
    best_obj = -math.inf
    failures: list[tuple[dict, str]] = []
    for values, (obj, err) in zip(candidates, outcomes):
        if err is not None:
            failures.append((values, err))
        elif obj > best_obj:
            best_obj, best_values = obj, values
    # every integration that ran, failed or not, and the final one
    evaluations = len(candidates) + 1
    if best_values is None:
        raise SolverError("every grid point failed to evaluate")

    free_names = [n for n, (lo, hi) in zip(names, bounds) if lo != hi]
    if free_names:
        fixed = {n: best_values[n] for n in names if n not in free_names}
        start = np.array([best_values[n] for n in free_names], dtype=float)
        # -objective by the bits of the free values, so that no point is
        # integrated twice; the grid ran at eval_rel_tol too
        known = {start.tobytes(): -best_obj}

        def neg_objective(x) -> float:
            x = np.asarray(x, dtype=float).reshape(-1)
            key = x.tobytes()
            if key not in known:
                values = dict(fixed)
                values.update(zip(free_names, map(float, x)))
                known[key] = -_objective(problem, values, eval_rel_tol, "refinement")[0]
            return known[key]

        if len(free_names) == 1:
            k = names.index(free_names[0])
            i = int(np.flatnonzero(axes[k] == start[0])[0])
            x, fun = _refine_on_axis(neg_objective, axes[k], i, bounds[k], -best_obj)
            x = [x]
        else:
            x, fun = _nelder_mead(
                neg_objective, start, [problem.free_parameters[n] for n in free_names]
            )
        evaluations += len(known) - 1
        if math.isfinite(fun) and -fun >= best_obj:
            best_values = dict(fixed)
            best_values.update(zip(free_names, (float(v) for v in x)))

    # report at the base tolerances so a forward run reproduces the numbers
    fid, p_e, obj = _evaluate(problem, best_values, rel_tol=0.0)
    return SolveResult(
        parameters={n: float(best_values[n]) for n in names},
        fidelity=fid,
        final_p_e=p_e,
        objective=obj,
        evaluations=evaluations,
        grid_failures=failures,
    )
