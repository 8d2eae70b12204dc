"""Observables derived from trajectories.

Covers the relative phase of the ground amplitudes, the instantaneous
eigenbasis of the drive generator (dark state and the two dressed states),
populations in that basis, a scalar nonadiabaticity measure, and fidelity
against a target qubit state.

The eigenbasis diagnostics are only defined for unchirped drives in
two-photon resonance (equal one-photon detunings); outside that regime they
raise UnsupportedRegimeError rather than guessing a basis.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .dynamics import Drive, phase_pair, rotated_to_bare
from .errors import UnsupportedRegimeError
from .types import AdiabaticFrame, SimulationConfig, StateVector, Trajectory


class PhaseSample(NamedTuple):
    cos_phi: float
    phi: float


def relative_phase(s: StateVector, t: float, cfg: SimulationConfig) -> PhaseSample:
    """Relative phase of the bare ground amplitudes at time ``t``.

    Undoes the rotating-frame factors on d_f before comparing against d_g,
    and returns both cos(phi) and the signed phase arg(c_g^* c_f). Both are
    NaN when either ground amplitude is too small for the phase to mean
    anything.
    """
    c = rotated_to_bare(s.as_array(), t, cfg)
    cos_phi, signed = phase_pair(c[1], c[2])
    return PhaseSample(float(cos_phi), float(signed))


def _require_frame_regime(cfg: SimulationConfig) -> None:
    if not cfg.detunings.two_photon_resonant:
        raise UnsupportedRegimeError(
            "adiabatic frame requires equal one-photon detunings, got "
            f"delta1={cfg.detunings.delta1}, delta2={cfg.detunings.delta2}"
        )
    if not cfg.pulses.unchirped:
        raise UnsupportedRegimeError("adiabatic frame is only defined for unchirped pulses")


def _frames(times, cfg: SimulationConfig):
    """The instantaneous eigenbasis at each of ``times``.

    Returns the mixing angles theta and phi_mix, the eigenvalues lambda_pm
    and an (n, 3, 3) array whose rows are (a0, a_plus, a_minus); see
    :func:`adiabatic_frame` for the construction.
    """
    _require_frame_regime(cfg)
    p = cfg.pulses
    delta = cfg.detunings.delta1
    t = np.asarray(times, dtype=float)
    moduli = np.abs(Drive.from_pulses(p).sample(t))
    m1, m2 = moduli[:, 0], moduli[:, 1]

    # tan(theta) = |omega1| / |omega2|, stable arbitrarily deep in the wings
    theta = np.arctan2(m1, m2)
    deep = (m1 == 0.0) & (m2 == 0.0) & (p.omega01 > 0.0)
    if p.omega02 == 0.0:
        theta[deep] = math.pi / 2
    elif deep.any():
        # both envelopes underflowed: use the exponent of their ratio instead
        x1 = (t[deep] - p.center1) / p.tau
        x2 = (t[deep] - p.center2) / p.tau
        rho = math.log(p.omega01 / p.omega02) + (x2 * x2 - x1 * x1)
        small = np.arctan(np.exp(-np.abs(rho)))
        theta[deep] = np.where(rho >= 0.0, math.pi / 2 - small, small)

    w = np.hypot(m1, m2)
    s = np.hypot(delta, 2.0 * w)
    with np.errstate(invalid="ignore", divide="ignore"):
        if delta >= 0.0:
            phi_mix = np.arctan2(2.0 * w, delta + s)
            lam_p = 2.0 * w * w / (delta + s)
            lam_m = -(delta + s) / 2.0
        else:
            # avoid cancellation in delta + s for negative detuning
            phi_mix = np.arctan2(s - delta, 2.0 * w)
            lam_p = (s - delta) / 2.0
            lam_m = np.where(w > 0.0, -2.0 * w * w / (s - delta), 0.0)
    if delta == 0.0:
        undriven = w == 0.0
        phi_mix[undriven] = math.pi / 4  # continuity limit of tan(phi_mix) = 1
        lam_p[undriven] = lam_m[undriven] = 0.0

    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi_mix), np.cos(phi_mix)
    u1 = cmath.exp(-1j * p.delta)  # phase of envelope 1; envelope 2 is real
    basis = np.array(
        [
            [np.zeros_like(ct), ct, -st * u1],
            [sp, cp * st * u1.conjugate(), cp * ct],
            [-cp, sp * st * u1.conjugate(), sp * ct],
        ]
    ).transpose(2, 0, 1)
    return theta, phi_mix, lam_p, lam_m, basis


def adiabatic_frame(t: float, cfg: SimulationConfig) -> AdiabaticFrame:
    """Instantaneous eigenbasis of the generator at time ``t``.

    The dark vector is (0, omega2, -omega1)/norm, annihilated exactly; the
    dressed vectors are proportional to (lambda, omega1^*, omega2^*) for the
    two nonzero eigenvalues

        lambda_pm = ( -Delta +- sqrt(Delta^2 + 4 W^2) ) / 2,   W^2 = |omega1|^2 + |omega2|^2,

    parameterized by mixing angles tan(theta) = |omega1|/|omega2| and
    tan(phi_mix) = 2 W / (Delta + sqrt(Delta^2 + 4 W^2)) = lambda_plus / W.
    Envelope phases (e.g. a relative pulse phase) are carried onto the
    eigenvector components so the construction stays exact for complex
    couplings.
    """
    theta, phi_mix, lam_p, lam_m, basis = _frames([t], cfg)
    return AdiabaticFrame(
        theta=float(theta[0]),
        phi_mix=float(phi_mix[0]),
        a0=basis[0, 0],
        a_plus=basis[0, 1],
        a_minus=basis[0, 2],
        eigenvalues=np.array([0.0, lam_p[0], lam_m[0]]),
    )


def adiabatic_populations(traj: Trajectory, cfg: SimulationConfig) -> np.ndarray:
    """Populations |<a_j | d>|^2 along the trajectory, columns (a0, a+, a-).

    The three columns sum to the state norm at every sample.
    """
    basis = _frames(traj.times, cfg)[4]
    return np.abs(np.einsum("nkj,nj->nk", basis.conj(), traj.states)) ** 2


def nonadiabaticity(traj: Trajectory, cfg: SimulationConfig) -> float:
    """Largest excursion of the dark-state population from its initial value.

    Zero means the system follows the dark state perfectly; values of order
    one mean strong transfer between the instantaneous eigenstates.
    """
    pops = adiabatic_populations(traj, cfg)
    return float(np.max(np.abs(pops[:, 0] - pops[0, 0])))


def fidelity(s: StateVector, target, t: float, cfg: SimulationConfig) -> float:
    """Overlap-squared of the bare ground amplitudes with a (g, f) target.

    The target must be a normalized complex pair on (|g>, |f>); any excited
    component of the state simply reduces the fidelity.
    """
    tg = np.asarray(target, dtype=complex)
    if tg.shape != (2,):
        raise ValueError(f"target must be a 2-vector on (g, f), got shape {tg.shape}")
    n = np.linalg.norm(tg)
    if abs(n - 1.0) > 1e-6:
        raise ValueError(f"target must be normalized, got |target| = {n!r}")
    c = rotated_to_bare(s.as_array(), t, cfg)
    return float(abs(np.conj(tg[0]) * c[1] + np.conj(tg[1]) * c[2]) ** 2)
