"""One-dimensional parameter sweeps of long-time observables.

A sweep overrides a single named parameter of a base configuration, runs one
integration per grid value, and reads populations and relative phase at the
final sample (the presets all end at t = 15 tau). Grid points are
independent; :func:`map_points` can evaluate them on a thread pool, and the
assembled result is identical whatever the worker count.

``figure_preset`` provides named parameter sets for the standard scenarios
used throughout the test suite: detuning scans, pulse-delay and amplitude
ratio scans, relative-phase scans, and linear/tanh chirp scans, all built on
the common base (alpha = 0.3, phi = pi/2, omega01 tau = omega02 tau = 15,
delta = 0, T = 4 tau / 3, window [-8, 15] tau).
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analysis import nonadiabaticity
from .dynamics import integrate
from .errors import IntegrationError
from .types import (
    CHIRP_KINDS,
    ChirpProfile,
    DetuningSpec,
    InitialQubit,
    PulsePair,
    SimulationConfig,
    normalizing_beta,
    with_keys,
)

log = logging.getLogger(__name__)

# sweep parameter -> the config keys it sets, given the config and the value
_PARAMETER_KEYS = {
    "delta_tau": lambda cfg, v: {"delta1_tau": float(v), "delta2_tau": float(v)},
    "T_over_tau": lambda cfg, v: {"T_over_tau": float(v)},
    "ratio_omega": lambda cfg, v: {"omega01_tau": float(v) * cfg.pulses.omega02},
    "delta_phase": lambda cfg, v: {"delta": float(v)},
    "chi": lambda cfg, v: {"chi1": float(v), "chi2": float(v)},
    "chi_ratio": lambda cfg, v: {"chi1": 1.0, "chi2": float(v)},
    "chirp_kind": lambda cfg, v: {"chirp1_kind": str(v), "chirp2_kind": str(v)},
}

SWEEP_PARAMETERS = tuple(_PARAMETER_KEYS)


def apply_parameter(cfg: SimulationConfig, name: str, value) -> SimulationConfig:
    """New config with one named control parameter overridden.

    delta_tau sets both one-photon detunings (two-photon resonance is kept);
    ratio_omega rescales omega01 against the base omega02; chi sets both
    chirp rates; chi_ratio pins chi1 = 1 and sets chi2; chirp_kind switches
    both profiles' shapes, keeping their rates.
    """
    if name not in _PARAMETER_KEYS:
        raise ValueError(f"unknown sweep parameter {name!r}; valid: {SWEEP_PARAMETERS}")
    p = cfg.pulses
    if name in ("chi", "chi_ratio") and (p.chirp1.kind == "none" or p.chirp2.kind == "none"):
        raise ValueError(
            f"cannot sweep {name}: base config has chirp kind 'none'; set a profile first"
        )
    return with_keys(cfg, _PARAMETER_KEYS[name](cfg, value))


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter, its ordered grid, and the base configuration."""

    parameter: str
    grid: tuple
    base: SimulationConfig

    def __post_init__(self):
        if self.parameter not in SWEEP_PARAMETERS:
            raise ValueError(
                f"unknown sweep parameter {self.parameter!r}; valid: {SWEEP_PARAMETERS}"
            )
        grid = tuple(self.grid)
        object.__setattr__(self, "grid", grid)
        if not grid:
            raise ValueError("sweep grid must be non-empty")
        if self.parameter == "chirp_kind":
            bad = [v for v in grid if v not in CHIRP_KINDS]
            if bad:
                raise ValueError(f"invalid chirp kinds in grid: {bad}")
            if len(set(grid)) != len(grid):
                raise ValueError("chirp_kind grid values must be distinct")
        else:
            vals = [float(v) for v in grid]
            if any(not math.isfinite(v) for v in vals):
                raise ValueError("sweep grid values must be finite")
            diffs = np.diff(vals)
            if len(vals) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
                raise ValueError("sweep grid must be strictly monotone")
        # each parameter's valid values form an interval, so the ends of a
        # monotone grid decide whether every point builds a valid config
        for value in (grid[0], grid[-1]):
            try:
                apply_parameter(self.base, self.parameter, value)
            except ValueError as exc:
                raise ValueError(f"sweep grid value {self.parameter} = {value}: {exc}") from exc


@dataclass(frozen=True)
class SweepPoint:
    """Long-time observables at one grid value; NaNs plus an error message
    when the integration at that point failed."""

    value: object
    p_e: float
    p_g: float
    p_f: float
    cos_phi: float
    phi_signed: float
    nonadiabaticity: float | None
    error: str | None = None


@dataclass
class SweepResult:
    spec: SweepSpec
    points: list[SweepPoint]

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(pt, name) for pt in self.points], dtype=float)


def _evaluate_point(spec: SweepSpec, value) -> SweepPoint:
    try:
        cfg = apply_parameter(spec.base, spec.parameter, value)
        traj = integrate(cfg)
    except IntegrationError as exc:
        log.warning("sweep point %s=%r failed: %s", spec.parameter, value, exc)
        nan = float("nan")
        return SweepPoint(value, nan, nan, nan, nan, nan, None, error=str(exc))
    p_e, p_g, p_f = traj.populations[-1]
    nonadiab = None
    if cfg.pulses.unchirped and cfg.detunings.two_photon_resonant:
        nonadiab = nonadiabaticity(traj, cfg)
    return SweepPoint(
        value=value,
        p_e=float(p_e),
        p_g=float(p_g),
        p_f=float(p_f),
        cos_phi=float(traj.cos_phi[-1]),
        phi_signed=float(traj.phi_signed[-1]),
        nonadiabaticity=nonadiab,
    )


def map_points(fn, items, workers: int) -> list:
    """``[fn(x) for x in items]``, on up to ``workers`` threads.

    The compiled kernel releases the GIL for a whole integration, so threads
    run independent grid points on every core; the Python stepper holds it.
    Never more threads than items or cores. The calling thread takes items
    too, so that a profiler sampling it still sees the work, and with one
    thread's worth of work it takes them all.
    """
    items = list(items)
    threads = min(workers, len(items), os.cpu_count() or 1)
    if threads <= 1:
        return [fn(x) for x in items]
    results = [None] * len(items)
    indices = iter(range(len(items)))  # shared: each index goes to one thread

    def take() -> None:
        for i in indices:
            results[i] = fn(items[i])

    with ThreadPoolExecutor(max_workers=threads - 1) as pool:
        helpers = [pool.submit(take) for _ in range(threads - 1)]
        try:
            take()
        finally:
            for _ in indices:  # after an error, leave the helpers no new items
                pass
        for helper in helpers:
            helper.result()
    return results


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Evaluate every grid point, serially or on up to ``workers`` threads.

    Output order follows the grid order and the numbers are independent of
    ``workers``; per-point integration failures are recorded on the point
    instead of aborting the sweep.
    """
    points = map_points(lambda value: _evaluate_point(spec, value), spec.grid, workers)
    return SweepResult(spec=spec, points=points)


# ---------------------------------------------------------------------------
# named presets
# ---------------------------------------------------------------------------

BASE_ALPHA = 0.3
BASE_PHI = math.pi / 2
BASE_OMEGA = 15.0
BASE_DELTA_TAU = 45.0


def base_config(
    alpha: float = BASE_ALPHA,
    phi: float = BASE_PHI,
    delta_tau: float = BASE_DELTA_TAU,
    omega01: float = BASE_OMEGA,
    omega02: float = BASE_OMEGA,
    chirp_kind: str = "none",
    chi: float = 0.0,
    T: float = PulsePair.T,
) -> SimulationConfig:
    """Common scenario base; keyword overrides cover every preset variation."""
    beta = normalizing_beta(alpha)
    chirp = ChirpProfile(chirp_kind, chi) if chirp_kind != "none" else ChirpProfile()
    return SimulationConfig(
        pulses=PulsePair(omega01=omega01, omega02=omega02, T=T, chirp1=chirp, chirp2=chirp),
        detunings=DetuningSpec(delta_tau, delta_tau),
        initial=InitialQubit(alpha, beta, phi),
    )


def _grid(lo: float, hi: float, n: int = 61) -> tuple:
    return tuple(np.linspace(lo, hi, n))


def _presets() -> dict:
    presets = {
        # detuning scans
        "fig2": SweepSpec("delta_tau", (45.0, 60.0, 120.0), base_config()),
        "fig2_inset": SweepSpec("delta_tau", _grid(30.0, 200.0), base_config()),
        "fig3": SweepSpec("delta_tau", _grid(30.0, 200.0), base_config(alpha=1.0, phi=0.0)),
        # pulse-delay scan
        "fig4": SweepSpec("T_over_tau", _grid(0.0, 4.0), base_config(delta_tau=75.0)),
        # amplitude-ratio scans
        "fig6": SweepSpec("ratio_omega", _grid(0.3, 2.0), base_config(delta_tau=75.0)),
        "fig7": SweepSpec(
            "ratio_omega", _grid(0.3, 2.0), base_config(alpha=1.0, phi=0.0, delta_tau=0.0)
        ),
        # two-level comparison and adiabatic-population scenarios
        "fig8": base_config(delta_tau=30.0),
        "fig9": base_config(delta_tau=45.0),
        "fig10": base_config(delta_tau=60.0),
        # chirp scans (positive-detuning branch; override delta_tau for -75)
        "fig11": SweepSpec(
            "chi", _grid(-2.0, 2.0), base_config(delta_tau=75.0, chirp_kind="linear", chi=1.0)
        ),
        "fig12": SweepSpec(
            "chi_ratio",
            _grid(-2.0, 2.0),
            base_config(delta_tau=75.0, chirp_kind="linear", chi=1.0),
        ),
        "fig13": SweepSpec(
            "chi", _grid(-2.0, 2.0), base_config(delta_tau=75.0, chirp_kind="tanh", chi=1.0)
        ),
        "fig14": SweepSpec(
            "chi_ratio",
            _grid(-2.0, 2.0),
            base_config(delta_tau=75.0, chirp_kind="tanh", chi=1.0),
        ),
    }
    # relative-phase time series: the fig2 runs, read for cos phi
    presets["fig5"] = presets["fig2"]
    return presets


PRESET_NAMES = tuple(sorted(_presets().keys()))


def figure_preset(name: str):
    """Named scenario: a SweepSpec for scan presets, a SimulationConfig otherwise."""
    presets = _presets()
    if name not in presets:
        raise ValueError(f"unknown preset {name!r}; valid names: {', '.join(PRESET_NAMES)}")
    return presets[name]


def preset_base(name: str) -> SimulationConfig:
    """The single-run configuration behind a preset (the sweep base for scans)."""
    preset = figure_preset(name)
    return preset.base if isinstance(preset, SweepSpec) else preset
