"""Pulse design for adiabatic rotation to the orthogonal qubit state.

Ordinary counterintuitive Gaussian pulses transfer |g> to |f| adiabatically
through the dark state. The same trick rotates an arbitrary superposition
|i> = alpha |g> + beta e^{i phi} |f> into its orthogonal partner
|k> = beta e^{-i phi} |g> - alpha |f> if the *effective* couplings in the
(i, k, e) basis,

    f1 = alpha omega1^* + beta e^{-i phi} omega2^*,
    f2 = beta e^{i phi} omega1^* - alpha omega2^*,

are shaped into the counterintuitive Gaussian pair f1 = exp[-((t-T)/tau)^2],
f2 = exp[-(t/tau)^2]. Inverting that linear system (its coefficient matrix
is unitary and its own inverse) gives the physical envelopes

    omega1(t) = alpha G_T(t) + beta e^{+i phi} G_0(t),
    omega2(t) = beta e^{-i phi} G_T(t) - alpha G_0(t),

with G_T, G_0 the two unit Gaussians. For beta = 0 this reduces to the
familiar pair (G_T, -G_0). The design fixes shapes only; an overall
amplitude scale sets the pulse area and hence the adiabaticity margin.

Chopping both envelopes to zero at some instant freezes the transfer
mid-way, leaving a chosen intermediate superposition of |i> and |k>.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analysis import fidelity
from .dynamics import integrate
from .types import (
    DetuningSpec,
    InitialQubit,
    PulsePair,
    SimulationConfig,
    Trajectory,
    orthogonal_state,
)

Envelope = Callable[[float], complex]

DEFAULT_SCALE = 15.0  # matches the peak amplitudes used for the Gaussian-pair drives


def design_pulses(q: InitialQubit, T: float, tau: float = 1.0) -> tuple[Envelope, Envelope]:
    """Unit-amplitude envelope pair rotating ``q`` to its orthogonal state.

    Returns callables (omega1, omega2); multiplying both by a common scale
    preserves the design identities while improving adiabaticity.
    """
    if T <= 0:
        raise ValueError(f"pulse separation must be positive, got {T}")
    a = q.alpha
    bplus = q.beta * cmath.exp(1j * q.phi)
    bminus = bplus.conjugate()
    inv_tau = 1.0 / tau

    def omega1(t: float) -> complex:
        x1 = (t - T) * inv_tau
        x2 = t * inv_tau
        return a * math.exp(-x1 * x1) + bplus * math.exp(-x2 * x2)

    def omega2(t: float) -> complex:
        x1 = (t - T) * inv_tau
        x2 = t * inv_tau
        return bminus * math.exp(-x1 * x1) - a * math.exp(-x2 * x2)

    return omega1, omega2


def _transfer_config(q: InitialQubit, T: float, scale: float) -> SimulationConfig:
    # resonant, unchirped drive on the default window; the PulsePair records
    # the scale and timing for provenance, the actual envelopes are passed
    # to the integrator
    return SimulationConfig(
        pulses=PulsePair(omega01=scale, omega02=scale, T=T),
        detunings=DetuningSpec(0.0, 0.0),
        initial=q,
    )


@dataclass
class TransferReport:
    """Outcome of a designed-pulse run: trajectory plus headline figures."""

    trajectory: Trajectory
    target: np.ndarray
    fidelity_to_target: float
    max_p_e: float


def orthogonal_transfer(
    q: InitialQubit, T: float = 4.0 / 3.0, amplitude_scale: float = DEFAULT_SCALE
) -> TransferReport:
    """Drive ``q`` with the designed pulses and report the transfer quality.

    Integrates the full three-level dynamics on resonance with both designed
    envelopes multiplied by ``amplitude_scale``, then reports the fidelity of
    the final state against the orthogonal target and the worst transient
    excited-state population.
    """
    if amplitude_scale <= 0:
        raise ValueError(f"amplitude_scale must be positive, got {amplitude_scale}")
    w1, w2 = design_pulses(q, T)
    cfg = _transfer_config(q, T, amplitude_scale)
    traj = integrate(
        cfg, envelopes=lambda t: (amplitude_scale * w1(t), amplitude_scale * w2(t))
    )
    target = orthogonal_state(q)
    fid = fidelity(traj.final_state(), target, float(traj.times[-1]), cfg)
    return TransferReport(
        trajectory=traj,
        target=target,
        fidelity_to_target=fid,
        max_p_e=float(traj.p_e.max()),
    )


def chopped_rotation(
    q: InitialQubit, T: float = 4.0 / 3.0, scale: float = DEFAULT_SCALE, stop_time: float = 0.0
) -> Trajectory:
    """Designed-pulse run with both envelopes forced to zero past ``stop_time``.

    The hard chop is treated as an integrator restart point. Stopping before
    the transfer region leaves |i> untouched; stopping after it reproduces
    the complete orthogonal rotation; intermediate stops leave intermediate
    superpositions.
    """
    w1, w2 = design_pulses(q, T)
    cfg = _transfer_config(q, T, scale)

    def chopped(t: float) -> tuple[complex, complex]:
        if t > stop_time:
            return 0j, 0j
        return scale * w1(t), scale * w2(t)

    breakpoints = (stop_time,) if cfg.t_start < stop_time < cfg.t_end else ()
    return integrate(cfg, envelopes=chopped, breakpoints=breakpoints)


def sample_envelopes(
    envelopes: tuple[Envelope, Envelope], times: np.ndarray, scale: float = 1.0
) -> np.ndarray:
    """Tabulate an envelope pair on a grid; columns (omega1, omega2)."""
    w1, w2 = envelopes
    out = np.empty((len(times), 2), dtype=complex)
    for k, t in enumerate(times):
        out[k, 0] = scale * w1(float(t))
        out[k, 1] = scale * w2(float(t))
    return out
