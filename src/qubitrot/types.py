"""Domain records for the three-level qubit-rotation simulation.

Conventions used throughout the package:

* The common pulse half-width ``tau`` is the time unit; every stored rate is
  the dimensionless product rate * tau (so ``omega01`` means the peak
  half-Rabi frequency times tau, ``delta1`` means detuning times tau, and
  times such as ``T`` or ``t_start`` are in units of tau).
* Amplitude order is ``(e, g, f)``: the excited level first, then the two
  long-lived ground levels that encode the qubit.
* The initial qubit ``alpha |g> + beta e^{i phi} |f>`` is stored in canonical
  form: ``alpha`` and ``beta`` real and non-negative, all relative phase in
  ``phi``.

All records are immutable after construction and validate their invariants
eagerly, so they are safe to share across the threads that run a sweep.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field, replace
from functools import reduce

import numpy as np

from .errors import InvalidPreparationError

CHIRP_KINDS = ("none", "linear", "tanh")

_NORM_ATOL = 1e-12


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class InitialQubit:
    """Qubit encoded in the two ground levels: alpha |g> + beta e^{i phi} |f>."""

    alpha: float
    beta: float
    phi: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "beta", "phi"):
            _require_finite(name, getattr(self, name))
        if not (0.0 <= self.alpha <= 1.0 and 0.0 <= self.beta <= 1.0):
            raise ValueError(
                f"alpha and beta must lie in [0, 1], got alpha={self.alpha}, beta={self.beta}"
            )
        norm = self.alpha**2 + self.beta**2
        if abs(norm - 1.0) > _NORM_ATOL:
            raise ValueError(
                f"alpha^2 + beta^2 must equal 1 within {_NORM_ATOL}, got {norm!r}"
            )

    def amplitudes(self) -> np.ndarray:
        """Complex (g, f) amplitudes of the qubit state."""
        return np.array([self.alpha, self.beta * cmath.exp(1j * self.phi)])


def normalizing_beta(alpha: float) -> float:
    """The beta >= 0 with alpha^2 + beta^2 = 1 (0 where rounding puts alpha above 1)."""
    return math.sqrt(max(0.0, 1.0 - alpha * alpha))


def init_from_cw(g1: float, g2: float, phi: float) -> InitialQubit:
    """Qubit prepared by two resonant cw fields of half-Rabi rates g1, g2.

    The stationary preparation puts weight g1 on |g> and g2 on |f> with
    relative phase ``phi``; only the ratio of the rates matters.
    """
    if g1 < 0 or g2 < 0:
        raise ValueError(f"cw rates must be non-negative, got ({g1}, {g2})")
    scale = max(g1, g2)
    if scale == 0.0:
        raise InvalidPreparationError("both cw rates are zero; no state is prepared")
    # rescale first so subnormal inputs normalize at full precision
    a, b = g1 / scale, g2 / scale
    g = math.hypot(a, b)
    return InitialQubit(alpha=a / g, beta=b / g, phi=phi)


def orthogonal_state(q: InitialQubit) -> np.ndarray:
    """The (g, f) amplitude pair orthogonal to ``q``: (beta e^{-i phi}, -alpha)."""
    return np.array([q.beta * cmath.exp(-1j * q.phi), -q.alpha + 0j])


def qubit_from_amplitudes(c_g: complex, c_f: complex) -> InitialQubit:
    """Canonicalize an arbitrary (g, f) amplitude pair into an InitialQubit.

    Normalizes and removes the global phase so the |g> amplitude is real and
    non-negative (for a pure |f> state the |f> amplitude is made real).
    """
    norm = math.hypot(abs(c_g), abs(c_f))
    if norm == 0.0:
        raise InvalidPreparationError("zero amplitude pair has no ray")
    a, b = c_g / norm, c_f / norm
    gauge = cmath.exp(-1j * cmath.phase(a)) if abs(a) > 1e-15 else cmath.exp(-1j * cmath.phase(b))
    a, b = a * gauge, b * gauge
    alpha = min(abs(a), 1.0)
    beta = min(abs(b), 1.0)
    return InitialQubit(alpha=alpha, beta=beta, phi=cmath.phase(b) if beta > 1e-15 else 0.0)


@dataclass(frozen=True)
class ChirpProfile:
    """Time-dependent phase sweep of one pulse.

    ``chi`` is the dimensionless chirp rate; the instantaneous rate (per unit
    of t/tau) is 0, chi * (t - center)/tau, or chi * tanh((t - center)/tau)
    for kinds "none", "linear", "tanh".
    """

    kind: str = "none"
    chi: float = 0.0

    def __post_init__(self):
        if self.kind not in CHIRP_KINDS:
            raise ValueError(f"chirp kind must be one of {CHIRP_KINDS}, got {self.kind!r}")
        _require_finite("chi", self.chi)
        if self.kind == "none" and self.chi != 0.0:
            object.__setattr__(self, "chi", 0.0)

    @property
    def is_active(self) -> bool:
        return self.kind != "none" and self.chi != 0.0


NO_CHIRP = ChirpProfile()


@dataclass(frozen=True)
class PulsePair:
    """Two delayed Gaussian pulses driving the e-g and e-f transitions.

    Pulse 1 (peak ``omega01``, coupling e-g) is centered at ``origin + T``;
    pulse 2 (peak ``omega02``, coupling e-f) at ``origin``. Both share the
    half-width ``tau``. ``delta`` is the constant phase of pulse 1 relative
    to pulse 2, carried as the factor e^{-i delta} on its envelope.
    """

    omega01: float
    omega02: float
    tau: float = 1.0
    T: float = 4.0 / 3.0
    delta: float = 0.0
    chirp1: ChirpProfile = NO_CHIRP
    chirp2: ChirpProfile = NO_CHIRP
    origin: float = 0.0

    def __post_init__(self):
        for name in ("omega01", "omega02", "tau", "T", "delta", "origin"):
            _require_finite(name, getattr(self, name))
        if self.omega01 < 0 or self.omega02 < 0:
            raise ValueError(
                f"peak rates must be non-negative, got ({self.omega01}, {self.omega02})"
            )
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")

    @property
    def center1(self) -> float:
        return self.origin + self.T

    @property
    def center2(self) -> float:
        return self.origin

    @property
    def unchirped(self) -> bool:
        return not (self.chirp1.is_active or self.chirp2.is_active)


@dataclass(frozen=True)
class DetuningSpec:
    """One-photon detunings of the two pulses (units 1/tau)."""

    delta1: float = 0.0
    delta2: float = 0.0

    def __post_init__(self):
        _require_finite("delta1", self.delta1)
        _require_finite("delta2", self.delta2)

    @property
    def two_photon_resonant(self) -> bool:
        return self.delta1 == self.delta2


@dataclass(frozen=True)
class StateVector:
    """Rotated-frame amplitudes (d_e, d_g, d_f); moduli equal the bare ones."""

    d_e: complex
    d_g: complex
    d_f: complex

    def __post_init__(self):
        norm = abs(self.d_e) ** 2 + abs(self.d_g) ** 2 + abs(self.d_f) ** 2
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"state norm^2 deviates from 1 by {abs(norm - 1.0):.3e}")

    def as_array(self) -> np.ndarray:
        return np.array([self.d_e, self.d_g, self.d_f])

    def populations(self) -> tuple[float, float, float]:
        return (abs(self.d_e) ** 2, abs(self.d_g) ** 2, abs(self.d_f) ** 2)


@dataclass(frozen=True)
class SimulationConfig:
    """Pulses, detunings, initial qubit, time window, and integrator knobs.

    The default window [-8, 15] tau starts where the envelopes are below
    e^{-64}, which realizes the idealized t -> -infinity initial condition,
    and ends at the long-time readout point 15 tau.
    """

    pulses: PulsePair
    detunings: DetuningSpec = field(default_factory=DetuningSpec)
    initial: InitialQubit = field(default_factory=lambda: InitialQubit(1.0, 0.0, 0.0))
    t_start: float = -8.0
    t_end: float = 15.0
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    samples: int = 601

    def __post_init__(self):
        _require_finite("t_start", self.t_start)
        _require_finite("t_end", self.t_end)
        if self.t_start >= self.t_end:
            raise ValueError(f"t_start must precede t_end, got [{self.t_start}, {self.t_end}]")
        _require_finite("rel_tol", self.rel_tol)
        _require_finite("abs_tol", self.abs_tol)
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError(
                f"tolerances must be positive, got rel_tol={self.rel_tol}, abs_tol={self.abs_tol}"
            )
        if self.samples < 2:
            raise ValueError(f"samples must be at least 2, got {self.samples}")
        if self.samples > sys.maxsize:  # numpy cannot index more
            raise ValueError(f"samples must be at most {sys.maxsize}, got {self.samples}")

    def with_(self, **changes) -> "SimulationConfig":
        return replace(self, **changes)


# Every flat config key and the field it names on SimulationConfig, in the
# order of the "# key = value" lines that head each CSV.
CONFIG_KEYS = {
    "alpha": ("initial", "alpha"),
    "beta": ("initial", "beta"),
    "phi": ("initial", "phi"),
    "omega01_tau": ("pulses", "omega01"),
    "omega02_tau": ("pulses", "omega02"),
    "T_over_tau": ("pulses", "T"),
    "delta": ("pulses", "delta"),
    "delta1_tau": ("detunings", "delta1"),
    "delta2_tau": ("detunings", "delta2"),
    "chirp1_kind": ("pulses", "chirp1", "kind"),
    "chi1": ("pulses", "chirp1", "chi"),
    "chirp2_kind": ("pulses", "chirp2", "kind"),
    "chi2": ("pulses", "chirp2", "chi"),
    "origin_over_tau": ("pulses", "origin"),
    "t_start_over_tau": ("t_start",),
    "t_end_over_tau": ("t_end",),
    "samples": ("samples",),
    "rel_tol": ("rel_tol",),
    "abs_tol": ("abs_tol",),
}


def config_to_dict(cfg: SimulationConfig) -> dict:
    """Flat mapping of a resolved configuration, in CONFIG_KEYS order."""
    return {key: reduce(getattr, path, cfg) for key, path in CONFIG_KEYS.items()}


def with_keys(cfg: SimulationConfig, values: dict) -> SimulationConfig:
    """``cfg`` with the named CONFIG_KEYS set to ``values``.

    Each record a key reaches is rebuilt once, with all of its new fields, so
    its invariants are checked on the final combination (alpha and beta
    together); fields that no key names, such as ``PulsePair.tau``, are kept.
    Raises KeyError for an unknown key and ValueError for a violated invariant.
    """
    changes: dict = {}
    for key, value in values.items():
        *records, name = CONFIG_KEYS[key]
        node = changes
        for record in records:
            node = node.setdefault(record, {})
        node[name] = value
    return _rebuilt(cfg, changes)


def _rebuilt(record, changes: dict):
    """``record`` with ``changes`` set; a dict value holds the changes of a nested record."""
    return replace(record, **{
        name: _rebuilt(getattr(record, name), value) if isinstance(value, dict) else value
        for name, value in changes.items()
    })  # fmt: skip


@dataclass
class SolverStats:
    """Work of the adaptive stepper over one integration, all segments summed.

    ``min_step`` is the smallest accepted step, including a step cut short
    to land on the end of a segment.
    """

    rhs_evals: int = 0
    accepted_steps: int = 0
    rejected_steps: int = 0
    min_step: float = math.inf


@dataclass
class Trajectory:
    """Sampled solution of one integration.

    ``states`` holds the rotated-frame amplitudes, one (e, g, f) row per
    sample; ``populations`` is exactly |states|^2. ``cos_phi`` and
    ``phi_signed`` describe the relative phase of the bare ground amplitudes
    and are NaN where either ground amplitude vanishes. ``stats`` records
    what the stepper did, and ``engine`` which stepper ran: "compiled" (the
    C kernel) or "python" (``dynamics._dopri45``).
    """

    times: np.ndarray
    states: np.ndarray
    populations: np.ndarray
    cos_phi: np.ndarray
    phi_signed: np.ndarray
    config: SimulationConfig
    max_norm_error: float
    stats: SolverStats
    engine: str

    @property
    def p_e(self) -> np.ndarray:
        return self.populations[:, 0]

    @property
    def p_g(self) -> np.ndarray:
        return self.populations[:, 1]

    @property
    def p_f(self) -> np.ndarray:
        return self.populations[:, 2]

    def state(self, k: int) -> StateVector:
        d = self.states[k]
        return StateVector(complex(d[0]), complex(d[1]), complex(d[2]))

    def final_state(self) -> StateVector:
        return self.state(-1)


@dataclass(frozen=True)
class AdiabaticFrame:
    """Instantaneous eigenbasis of the drive generator at one time point.

    ``a0`` is the dark vector (no excited-state component, eigenvalue 0);
    ``a_plus`` and ``a_minus`` carry the non-negative and non-positive
    eigenvalues. Vectors are unit-norm in (e, g, f) order and mutually
    orthogonal. ``eigenvalues`` is ordered (0, lambda_plus, lambda_minus).
    """

    theta: float
    phi_mix: float
    a0: np.ndarray
    a_plus: np.ndarray
    a_minus: np.ndarray
    eigenvalues: np.ndarray

    def basis(self) -> np.ndarray:
        """Rows are (a0, a_plus, a_minus)."""
        return np.vstack([self.a0, self.a_plus, self.a_minus])
