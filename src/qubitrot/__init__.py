"""Qubit rotation in a driven three-level Lambda system.

Simulates a qubit encoded in two long-lived ground levels, rotated by a pair
of delayed, optionally chirped Gaussian pulses through the common excited
level. Provides the rotated-frame dynamics, relative-phase and
adiabatic-basis diagnostics, a large-detuning two-level cross-check,
designed pulses for exact orthogonal rotation, parameter sweeps with named
presets, and an inverse search for control parameters.
"""

from .analysis import (
    PhaseSample,
    adiabatic_frame,
    adiabatic_populations,
    fidelity,
    nonadiabaticity,
    relative_phase,
)
from .control import ControlProblem, SolveResult, solve
from .dynamics import (
    Drive,
    accumulated_chirp_phase,
    assemble_generator,
    chirp_rate,
    envelope,
    integrate,
    phase_pair,
    rotated_to_bare,
)
from .errors import (
    ConfigError,
    IntegrationError,
    InvalidPreparationError,
    SolverError,
    UnsupportedRegimeError,
)
from .stirap import chopped_rotation, designed_drive, orthogonal_transfer
from .sweeps import (
    PRESET_NAMES,
    SweepPoint,
    SweepResult,
    SweepSpec,
    apply_parameter,
    base_config,
    figure_preset,
    preset_base,
    run_sweep,
)
from .twolevel import (
    DeviationReport,
    EffectiveTwoLevel,
    TwoLevelTrajectory,
    compare_with_full,
    effective_params,
    integrate_two_level,
)
from .types import (
    AdiabaticFrame,
    ChirpProfile,
    DetuningSpec,
    InitialQubit,
    PulsePair,
    SimulationConfig,
    SolverStats,
    StateVector,
    Trajectory,
    init_from_cw,
    orthogonal_state,
    qubit_from_amplitudes,
)

__version__ = "0.1.0"
