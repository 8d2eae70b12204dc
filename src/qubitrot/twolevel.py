"""Large-detuning reduction to an effective two-level problem.

For equal one-photon detunings much larger than the pulse amplitudes the
excited amplitude follows the ground amplitudes adiabatically and can be
eliminated. In the basis of the initial qubit |i> = alpha |g> + beta e^{i phi} |f>
and its orthogonal partner |k> = beta e^{-i phi} |g> - alpha |f>, the
couplings to the excited level are

    f1 = alpha omega1^* + beta e^{-i phi} omega2^*,
    f2 = beta e^{i phi} omega1^* - alpha omega2^*,

and the reduced amplitudes obey

    (d_i', d_k') = -i [[Delta_e, Omega_e], [Omega_e^*, -Delta_e]] (d_i, d_k)

with Omega_e = f1 f2^* / Delta and Delta_e = (|f1|^2 - |f2|^2) / (2 Delta).
A trace term proportional to the identity is dropped; it is a global phase
and leaves populations and relative phases untouched.

Comparing this reduction against the full three-level integration on the
same window quantifies where the two-level picture holds. Both run on one
path: ``dynamics._problem(reduced=True)`` describes the reduced right-hand
side for the compiled kernel and its Python mirror ``dynamics._rhs``, and
``dynamics._propagate`` integrates it as it does the Lambda system.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .dynamics import Drive, _couplings, _propagate, envelope, integrate
from .errors import UnsupportedRegimeError
from .types import SimulationConfig, SolverStats, Trajectory

# The reduction divides by Delta; below this the approximation is undefined.
MIN_ABS_DELTA = 1e-6


@dataclass(frozen=True)
class EffectiveTwoLevel:
    """Effective couplings of the reduced problem at one time point."""

    f1: complex
    f2: complex
    omega_e: complex
    delta_e: float


def _check_regime(cfg: SimulationConfig) -> float:
    if not cfg.detunings.two_photon_resonant:
        raise UnsupportedRegimeError(
            "two-level reduction requires equal one-photon detunings, got "
            f"delta1={cfg.detunings.delta1}, delta2={cfg.detunings.delta2}"
        )
    if not cfg.pulses.unchirped:
        raise UnsupportedRegimeError("two-level reduction is only defined for unchirped pulses")
    delta = cfg.detunings.delta1
    if abs(delta) < MIN_ABS_DELTA:
        raise UnsupportedRegimeError(
            f"two-level reduction divides by the detuning; |delta| = {abs(delta):.2e} "
            f"is below {MIN_ABS_DELTA}"
        )
    return delta


def effective_params(t: float, cfg: SimulationConfig) -> EffectiveTwoLevel:
    """Effective couplings f1, f2 and the reduced Rabi rate and detuning at ``t``."""
    delta = _check_regime(cfg)
    q = cfg.initial
    f1, f2 = _couplings(q.alpha, q.beta * cmath.exp(1j * q.phi), *envelope(t, cfg.pulses))
    return EffectiveTwoLevel(
        f1=f1,
        f2=f2,
        omega_e=f1 * f2.conjugate() / delta,
        delta_e=(abs(f1) ** 2 - abs(f2) ** 2) / (2.0 * delta),
    )


@dataclass
class TwoLevelTrajectory:
    """Reduced amplitudes (d_i, d_k) and the mapped ground-level populations."""

    times: np.ndarray
    d_i: np.ndarray
    d_k: np.ndarray
    p_g: np.ndarray
    p_f: np.ndarray
    max_norm_error: float
    stats: SolverStats
    engine: str


def integrate_two_level(cfg: SimulationConfig) -> TwoLevelTrajectory:
    """Propagate the reduced problem from (d_i, d_k) = (1, 0).

    Uses the same adaptive stepper, engine and tolerances as the full
    integration so that differences against it measure modeling error, not
    solver error. Raises IntegrationError like
    :func:`~qubitrot.dynamics.integrate`.
    The mapping back to (P_g, P_f) is the exact unitary basis change

        d_g = alpha d_i + beta e^{-i phi} d_k,
        d_f = beta e^{i phi} d_i - alpha d_k.
    """
    _check_regime(cfg)
    q = cfg.initial
    alpha = q.alpha
    bplus = q.beta * cmath.exp(1j * q.phi)
    grid = np.linspace(cfg.t_start, cfg.t_end, cfg.samples)
    states, stats, engine = _propagate(
        cfg, Drive.from_pulses(cfg.pulses), (1.0 + 0j, 0j, 0j), grid, reduced=True
    )
    d_i, d_k, _ = states.T
    d_g = alpha * d_i + bplus.conjugate() * d_k
    d_f = bplus * d_i - alpha * d_k
    norm_err = float(np.max(np.abs(np.abs(d_i) ** 2 + np.abs(d_k) ** 2 - 1.0)))
    return TwoLevelTrajectory(
        times=grid,
        d_i=d_i,
        d_k=d_k,
        p_g=np.abs(d_g) ** 2,
        p_f=np.abs(d_f) ** 2,
        max_norm_error=norm_err,
        stats=stats,
        engine=engine,
    )


@dataclass
class DeviationReport:
    """Population differences between the full and reduced dynamics."""

    full: Trajectory
    reduced: TwoLevelTrajectory
    max_dev_p_g: float
    max_dev_p_f: float
    final_dev_p_g: float
    final_dev_p_f: float

    @property
    def final_dev(self) -> float:
        return max(self.final_dev_p_g, self.final_dev_p_f)

    @property
    def max_dev(self) -> float:
        return max(self.max_dev_p_g, self.max_dev_p_f)


def compare_with_full(cfg: SimulationConfig) -> DeviationReport:
    """Run the full and reduced integrations on identical grids and diff them."""
    full = integrate(cfg)
    reduced = integrate_two_level(cfg)
    dg = np.abs(full.p_g - reduced.p_g)
    df = np.abs(full.p_f - reduced.p_f)
    return DeviationReport(
        full=full,
        reduced=reduced,
        max_dev_p_g=float(dg.max()),
        max_dev_p_f=float(df.max()),
        final_dev_p_g=float(dg[-1]),
        final_dev_p_f=float(df[-1]),
    )
