"""Rotated-frame equations of motion and their integration.

The wavefunction amplitudes (c_e, c_g, c_f) are transformed to a frame that
absorbs the carrier detuning and chirp phases,

    d_e = c_e e^{i(delta1 t + phi1(t))},
    d_g = c_g,
    d_f = c_f e^{i((delta1 - delta2) t + phi1(t) - phi2(t))},

where phi_i(t) is the accumulated chirp phase of pulse i with phi_i(0) = 0.
In that frame the amplitudes obey

    d_e' =  i (delta1 + phi1') d_e - i (omega1 d_g + omega2 d_f)
    d_g' = -i conj(omega1) d_e
    d_f' =  i (delta1 - delta2 + phi1' - phi2') d_f - i conj(omega2) d_e

with envelopes omega1, omega2 given by a :class:`Drive`, by default the
Gaussian pair (pulse 1 carrying the constant relative phase e^{-i delta}).
The moduli |d_j| equal |c_j|, so populations can be read off directly;
recovering the bare relative phase requires undoing the frame, see
:func:`rotated_to_bare`.

Integration uses the package's own Dormand-Prince 5(4) stepper (Dormand &
Prince, J. Comput. Appl. Math. 6, 19 (1980)) with the step control and
4th-order dense output of Hairer, Norsett & Wanner, Solving ODEs I,
sec. II.4-II.6. It is written out as straight-line code over three complex
scalar slots, one expression per slot for each stage sum, the error norm and
the dense output. It takes the same steps as scipy's RK45 only while each sum
and product keeps scipy's operation order.

A run's right-hand side is described once, by the ``_kernel.Problem`` of
:func:`_problem`: the Lambda system above, or the two-level reduction of
:mod:`qubitrot.twolevel` on two slots (the third stays zero and the RMS error
norm divides by ``n = 2``). ``rhs()`` in ``_kernel.c`` evaluates it and
:func:`_rhs` mirrors that in Python. :func:`_propagate` runs the C port of the
stepper, which keeps the operation order and so the steps and bits (see
:mod:`qubitrot._kernel`), whenever it builds, and ``_dopri45`` on ``_rhs``
otherwise and for a bare envelope callable. The state is never renormalized:
norm drift is recorded as a diagnostic so integration bugs stay visible, and
a drift beyond NORM_DRIFT_LIMIT aborts the run.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import IntegrationError
from .types import (
    CHIRP_KINDS,
    ChirpProfile,
    PulsePair,
    SimulationConfig,
    SolverStats,
    Trajectory,
)

# 3x3 complex array M(t), ordered (e, g, f), propagating d' = M d.
GeneratorMatrix = np.ndarray

# Below this product of ground-amplitude moduli the relative phase is
# reported as NaN rather than a meaningless ratio.
PHASE_FLOOR = 1e-12

# The flow is unitary; a sample whose |norm^2 - 1| exceeds this is garbage
# from a tolerance too loose to resolve the dynamics, not a result.
NORM_DRIFT_LIMIT = 1e-2

EnvelopePair = Callable[[float], tuple[complex, complex]]


@dataclass(frozen=True)
class Drive:
    """Pulse envelopes (omega1, omega2) = W (G_a, G_b), both zero past ``cutoff``.

    G_j(t) = exp[-((t - c_j)/tau)^2] are unit Gaussians at ``centers``
    (c_a, c_b), and ``weights`` holds the rows of the complex 2x2 matrix W.
    """

    centers: tuple[float, float]
    tau: float
    weights: tuple[tuple[complex, complex], tuple[complex, complex]]
    cutoff: float = math.inf

    @classmethod
    def from_pulses(cls, p: PulsePair) -> "Drive":
        """The Gaussian pair: W = diag(omega01 e^{-i delta}, omega02) at (center1, center2)."""
        w1 = p.omega01 * cmath.exp(-1j * p.delta)
        return cls((p.center1, p.center2), p.tau, ((w1, 0j), (0j, complex(p.omega02))))

    @property
    def _diagonal(self) -> bool:
        # W diagonal and no cut-off: each envelope is one product
        (_, w12), (w21, _) = self.weights
        return w12 == 0 and w21 == 0 and self.cutoff == math.inf

    def evaluator(self) -> EnvelopePair:
        """Scalar closure t -> (omega1, omega2) for the stepper. A diagonal W
        without a cut-off gets two products, at about half the cost per call."""
        (w11, w12), (w21, w22) = self.weights
        ca, cb = self.centers
        inv_tau = 1.0 / self.tau
        cutoff = self.cutoff
        if self._diagonal:

            def pair(t: float) -> tuple[complex, complex]:
                xa = (t - ca) * inv_tau
                xb = (t - cb) * inv_tau
                return w11 * math.exp(-xa * xa), w22 * math.exp(-xb * xb)

            return pair

        def mixed(t: float) -> tuple[complex, complex]:
            if t > cutoff:
                return 0j, 0j
            xa = (t - ca) * inv_tau
            xb = (t - cb) * inv_tau
            ga = math.exp(-xa * xa)
            gb = math.exp(-xb * xb)
            return w11 * ga + w12 * gb, w21 * ga + w22 * gb

        return mixed

    def sample(self, times) -> np.ndarray:
        """Envelopes on a time array; columns (omega1, omega2)."""
        t = np.asarray(times, dtype=float)
        inv_tau = 1.0 / self.tau
        ga, gb = (np.exp(-(((t - c) * inv_tau) ** 2)) for c in self.centers)
        (w11, w12), (w21, w22) = self.weights
        out = np.stack([w11 * ga + w12 * gb, w21 * ga + w22 * gb], axis=-1)
        out[t > self.cutoff] = 0.0
        return out


def envelope(t: float, p: PulsePair) -> tuple[complex, complex]:
    """Complex envelopes (omega1, omega2) of the Gaussian pair at time ``t``."""
    return Drive.from_pulses(p).evaluator()(t)


def chirp_rate(t, c: ChirpProfile, center: float, tau: float = 1.0):
    """Instantaneous phase rate d(phi)/d(t/tau) of one chirp profile.

    Accepts scalar or array ``t``. The rate is per dimensionless time; divide
    by tau to get the rate per unit t (done at generator assembly).
    """
    t = np.asarray(t, dtype=float)
    if c.kind == "linear":
        out = c.chi * (t - center) / tau
    elif c.kind == "tanh":
        out = c.chi * np.tanh((t - center) / tau)
    else:
        out = np.zeros_like(t)
    return out if out.ndim else float(out)


def _log_cosh(x: np.ndarray) -> np.ndarray:
    # log(cosh(x)) without overflow for |x| beyond ~710
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)


def accumulated_chirp_phase(t, c: ChirpProfile, center: float, tau: float = 1.0):
    """Accumulated chirp phase phi(t) = integral of the rate, with phi(0) = 0.

    Closed forms: linear -> chi [ (t - center)^2 - center^2 ] / (2 tau^2);
    tanh -> chi [ log cosh((t - center)/tau) - log cosh(center/tau) ].
    """
    t = np.asarray(t, dtype=float)
    if c.kind == "linear":
        out = c.chi * ((t - center) ** 2 - center**2) / (2.0 * tau**2)
    elif c.kind == "tanh":
        out = c.chi * (_log_cosh((t - center) / tau) - _log_cosh(np.asarray(-center / tau)))
    else:
        out = np.zeros_like(t)
    return out if out.ndim else float(out)


def assemble_generator(t: float, cfg: SimulationConfig) -> GeneratorMatrix:
    """Generator M(t) of the rotated-frame flow d' = M d, ordered (e, g, f).

    i M is Hermitian: a real diagonal of detuning-plus-chirp terms plus the
    Hermitian envelope coupling block.
    """
    p = cfg.pulses
    w1, w2 = envelope(t, p)
    r1 = chirp_rate(t, p.chirp1, p.center1, p.tau) / p.tau
    r2 = chirp_rate(t, p.chirp2, p.center2, p.tau) / p.tau
    d1 = cfg.detunings.delta1
    d2 = cfg.detunings.delta2
    return np.array(
        [
            [1j * (d1 + r1), -1j * w1, -1j * w2],
            [-1j * w1.conjugate(), 0.0, 0.0],
            [-1j * w2.conjugate(), 0.0, 1j * (d1 - d2 + r1 - r2)],
        ]
    )


def _problem(cfg: SimulationConfig, drive: Drive, reduced: bool = False):
    """The run's right-hand side as the numbers of a ``_kernel.Problem``:
    the envelopes of ``drive``, and from ``cfg`` the detunings and chirps of
    the Lambda system or, when ``reduced``, the qubit and detuning of the
    two-level reduction (see :mod:`qubitrot.twolevel`)."""
    from . import _kernel

    p, q = cfg.pulses, cfg.initial
    d1 = cfg.detunings.delta1
    bplus = q.beta * cmath.exp(1j * q.phi)
    fields = {}
    for ij, w in zip(("11", "12", "21", "22"), (*drive.weights[0], *drive.weights[1])):
        fields[f"w{ij}re"], fields[f"w{ij}im"] = w.real, w.imag
    for j, chirp, center in ((1, p.chirp1, p.center1), (2, p.chirp2, p.center2)):
        fields[f"kind{j}"] = CHIRP_KINDS.index(chirp.kind) if chirp.is_active else 0
        fields[f"chi{j}"], fields[f"center{j}"] = chirp.chi, center
    return _kernel.Problem(
        ca=drive.centers[0], cb=drive.centers[1], inv_tau=1.0 / drive.tau,
        cutoff=drive.cutoff, mixed=not drive._diagonal, reduced=reduced,
        d1=d1, dd=d1 - cfg.detunings.delta2, chirp_inv_tau=1.0 / p.tau,
        alpha=q.alpha, bplus_re=bplus.real, bplus_im=bplus.imag,
        inv_delta=1.0 / d1 if reduced else 0.0, **fields,
    )  # fmt: skip


def _couplings(alpha: float, bplus: complex, w1: complex, w2: complex) -> tuple[complex, complex]:
    """Two-level couplings (f1, f2) of the envelopes (w1, w2); bplus = beta e^{i phi}."""
    w1c = w1.conjugate()
    w2c = w2.conjugate()
    return alpha * w1c + bplus.conjugate() * w2c, bplus * w1c - alpha * w2c


def _chirp_rate(kind: int, chi: float, center: float, inv_tau: float):
    # chirp_rate() of _kernel.c, per unit t; None for kind 0 (off)
    if kind == 1:
        return lambda t: chi * (t - center) * inv_tau * inv_tau
    if kind == 2:
        return lambda t: chi * math.tanh((t - center) * inv_tau) * inv_tau
    return None


def _rhs(prob, env: EnvelopePair):
    """``rhs()`` of ``_kernel.c`` in Python, branch for branch: the closure
    ``rhs(t, a, b, c)`` of the three slots' derivatives under ``prob``, for
    ``_dopri45``. It calls ``env(t)`` once per evaluation for the envelopes;
    the reduced problem keeps its third slot at zero."""
    if prob.reduced:
        alpha, inv_delta = prob.alpha, prob.inv_delta
        bplus = complex(prob.bplus_re, prob.bplus_im)

        def reduced(t, di, dk, _):
            f1, f2 = _couplings(alpha, bplus, *env(t))
            omega_e = f1 * f2.conjugate() * inv_delta
            delta_e = (abs(f1) ** 2 - abs(f2) ** 2) * 0.5 * inv_delta
            return (
                -1j * (delta_e * di + omega_e * dk),
                -1j * (omega_e.conjugate() * di - delta_e * dk),
                0j,
            )

        return reduced

    d1, dd = prob.d1, prob.dd
    rate1 = _chirp_rate(prob.kind1, prob.chi1, prob.center1, prob.chirp_inv_tau)
    rate2 = _chirp_rate(prob.kind2, prob.chi2, prob.center2, prob.chirp_inv_tau)

    def rhs(t, de, dg, df):
        w1, w2 = env(t)
        r1 = rate1(t) if rate1 else 0.0
        r2 = rate2(t) if rate2 else 0.0
        return (
            1j * (d1 + r1) * de - 1j * (w1 * dg + w2 * df),
            -1j * w1.conjugate() * de,
            1j * (dd + r1 - r2) * df - 1j * w2.conjugate() * de,
        )

    return rhs


# Columns 1-3 of the quartic dense-output matrix of the Dormand-Prince pair
# (Shampine, Math. Comp. 46, 135 (1986)), as weights of stages
# (1, 3, 4, 5, 6, 7); column 0 is stage 1 alone.
_DENSE = (
    (
        -8048581381 / 2820520608,
        131558114200 / 32700410799,
        -1754552775 / 470086768,
        127303824393 / 49829197408,
        -282668133 / 205662961,
        40617522 / 29380423,
    ),
    (
        8663915743 / 2820520608,
        -68118460800 / 10900136933,
        14199869525 / 1410260304,
        -318862633887 / 49829197408,
        2019193451 / 616988883,
        -110615467 / 29380423,
    ),
    (
        -12715105075 / 11282082432,
        87487479700 / 32700410799,
        -10690763975 / 1880347072,
        701980252875 / 199316789632,
        -1453857185 / 822651844,
        69997945 / 29380423,
    ),
)


def _rms(za: complex, zb: complex, zc: complex, rn: float) -> float:
    # RMS norm over the slots, rms() in _kernel.c: the real squares summed,
    # then the imaginary ones, as numpy's complex vector norm sums them
    return math.sqrt(
        za.real * za.real
        + zb.real * zb.real
        + zc.real * zc.real
        + (za.imag * za.imag + zb.imag * zb.imag + zc.imag * zc.imag)
    ) / rn


def _dopri45(
    rhs, t: float, y, t_eval, rel_tol: float, abs_tol: float, stats: SolverStats, n: int = 3
):
    """Dormand-Prince 5(4) from state ``y`` at ``t`` through the times ``t_eval``.

    The state is three complex scalars (a, b, c), and ``rhs(t, a, b, c)``
    returns their three derivatives; the stepper is written out slot by slot
    rather than over a sequence. ``n`` is the number of slots that count in
    the RMS error norm, i.e. its divisor: a two-component system runs with an
    identically zero third slot and ``n=2``, and since adding 0.0 to a sum of
    squares is exact it takes the steps it would take on two slots.
    ``t_eval`` is increasing, lies in [t, t_eval[-1]], and its last entry is
    where the integration stops. Returns one (a, b, c) tuple per sample time,
    read off the 4th-order dense output.

    Step control follows Hairer, Norsett & Wanner, sec. II.4: an initial step
    from the first two derivatives, the RMS error norm against
    abs_tol + rel_tol |y|, safety factor 0.9, a step factor kept in [0.2, 10]
    and at most 1 right after a rejection, and a minimum step of 10 ulp of t.
    Every sum and product runs in the order scipy's RK45 computes it, so both
    take the same steps and give the same states; that holds only while the
    order is kept, so keep it when editing, here and in ``_kernel.c``, which
    follows this function line for line. The stepper's work is added to
    ``stats``.

    Raises IntegrationError at the time of failure if the step underflows, or
    if a sample's |norm^2 - 1| exceeds NORM_DRIFT_LIMIT (the flows integrated
    here are unitary).
    """
    t_end = t_eval[-1]
    rn = n**0.5
    (
        (w21, w23, w24, w25, w26, w27),
        (w31, w33, w34, w35, w36, w37),
        (w41, w43, w44, w45, w46, w47),
    ) = _DENSE
    ya, yb, yc = y
    k1a, k1b, k1c = rhs(t, ya, yb, yc)
    ia = 1.0 / (abs_tol + abs(ya) * rel_tol)
    ib = 1.0 / (abs_tol + abs(yb) * rel_tol)
    ic = 1.0 / (abs_tol + abs(yc) * rel_tol)
    d0 = _rms(ya * ia, yb * ib, yc * ic, rn)
    d1 = _rms(k1a * ia, k1b * ib, k1c * ic, rn)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end - t)
    fa, fb, fc = rhs(t + h0, ya + h0 * k1a, yb + h0 * k1b, yc + h0 * k1c)
    d2 = _rms((fa - k1a) * ia, (fb - k1b) * ib, (fc - k1c) * ic, rn) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100 * h0, h1, t_end - t)
    stats.rhs_evals += 2

    out = []
    j, m = 0, len(t_eval)
    while t < t_end:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            # written so that a NaN step (from a NaN derivative or tolerance) fails too
            if not h_abs >= min_step:
                raise IntegrationError("step size fell below 10 ulp of t", t)
            t_new = min(t + h_abs, t_end)
            h = h_abs = t_new - t
            k2a, k2b, k2c = rhs(
                t + 1 / 5 * h,
                ya + (1 / 5 * k1a) * h,
                yb + (1 / 5 * k1b) * h,
                yc + (1 / 5 * k1c) * h,
            )
            k3a, k3b, k3c = rhs(
                t + 3 / 10 * h,
                ya + (3 / 40 * k1a + 9 / 40 * k2a) * h,
                yb + (3 / 40 * k1b + 9 / 40 * k2b) * h,
                yc + (3 / 40 * k1c + 9 / 40 * k2c) * h,
            )
            k4a, k4b, k4c = rhs(
                t + 4 / 5 * h,
                ya + (44 / 45 * k1a - 56 / 15 * k2a + 32 / 9 * k3a) * h,
                yb + (44 / 45 * k1b - 56 / 15 * k2b + 32 / 9 * k3b) * h,
                yc + (44 / 45 * k1c - 56 / 15 * k2c + 32 / 9 * k3c) * h,
            )
            k5a, k5b, k5c = rhs(
                t + 8 / 9 * h,
                ya
                + (19372 / 6561 * k1a - 25360 / 2187 * k2a + 64448 / 6561 * k3a - 212 / 729 * k4a)
                * h,
                yb
                + (19372 / 6561 * k1b - 25360 / 2187 * k2b + 64448 / 6561 * k3b - 212 / 729 * k4b)
                * h,
                yc
                + (19372 / 6561 * k1c - 25360 / 2187 * k2c + 64448 / 6561 * k3c - 212 / 729 * k4c)
                * h,
            )
            k6a, k6b, k6c = rhs(
                t + h,
                ya
                + (
                    9017 / 3168 * k1a
                    - 355 / 33 * k2a
                    + 46732 / 5247 * k3a
                    + 49 / 176 * k4a
                    - 5103 / 18656 * k5a
                )
                * h,
                yb
                + (
                    9017 / 3168 * k1b
                    - 355 / 33 * k2b
                    + 46732 / 5247 * k3b
                    + 49 / 176 * k4b
                    - 5103 / 18656 * k5b
                )
                * h,
                yc
                + (
                    9017 / 3168 * k1c
                    - 355 / 33 * k2c
                    + 46732 / 5247 * k3c
                    + 49 / 176 * k4c
                    - 5103 / 18656 * k5c
                )
                * h,
            )
            na = ya + h * (
                35 / 384 * k1a
                + 500 / 1113 * k3a
                + 125 / 192 * k4a
                - 2187 / 6784 * k5a
                + 11 / 84 * k6a
            )
            nb = yb + h * (
                35 / 384 * k1b
                + 500 / 1113 * k3b
                + 125 / 192 * k4b
                - 2187 / 6784 * k5b
                + 11 / 84 * k6b
            )
            nc = yc + h * (
                35 / 384 * k1c
                + 500 / 1113 * k3c
                + 125 / 192 * k4c
                - 2187 / 6784 * k5c
                + 11 / 84 * k6c
            )
            k7a, k7b, k7c = rhs(t + h, na, nb, nc)
            stats.rhs_evals += 6
            za = (
                (
                    -71 / 57600 * k1a
                    + 71 / 16695 * k3a
                    - 71 / 1920 * k4a
                    + 17253 / 339200 * k5a
                    - 22 / 525 * k6a
                    + 1 / 40 * k7a
                )
                * h
                * (1.0 / (abs_tol + max(abs(ya), abs(na)) * rel_tol))
            )
            zb = (
                (
                    -71 / 57600 * k1b
                    + 71 / 16695 * k3b
                    - 71 / 1920 * k4b
                    + 17253 / 339200 * k5b
                    - 22 / 525 * k6b
                    + 1 / 40 * k7b
                )
                * h
                * (1.0 / (abs_tol + max(abs(yb), abs(nb)) * rel_tol))
            )
            zc = (
                (
                    -71 / 57600 * k1c
                    + 71 / 16695 * k3c
                    - 71 / 1920 * k4c
                    + 17253 / 339200 * k5c
                    - 22 / 525 * k6c
                    + 1 / 40 * k7c
                )
                * h
                * (1.0 / (abs_tol + max(abs(yc), abs(nc)) * rel_tol))
            )
            error = _rms(za, zb, zc, rn)
            if error < 1:
                factor = 10.0 if error == 0 else min(10.0, 0.9 * error**-0.2)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error**-0.2)
            rejected = True
            stats.rejected_steps += 1
        stats.accepted_steps += 1
        stats.min_step = min(stats.min_step, h)

        if j < m and t_eval[j] <= t_new:
            # coefficients of the quartic dense output (Shampine 1986); w<i><s>
            # weighs stage s in the coefficient of x^i
            q2a = w21 * k1a + w23 * k3a + w24 * k4a + w25 * k5a + w26 * k6a + w27 * k7a
            q2b = w21 * k1b + w23 * k3b + w24 * k4b + w25 * k5b + w26 * k6b + w27 * k7b
            q2c = w21 * k1c + w23 * k3c + w24 * k4c + w25 * k5c + w26 * k6c + w27 * k7c
            q3a = w31 * k1a + w33 * k3a + w34 * k4a + w35 * k5a + w36 * k6a + w37 * k7a
            q3b = w31 * k1b + w33 * k3b + w34 * k4b + w35 * k5b + w36 * k6b + w37 * k7b
            q3c = w31 * k1c + w33 * k3c + w34 * k4c + w35 * k5c + w36 * k6c + w37 * k7c
            q4a = w41 * k1a + w43 * k3a + w44 * k4a + w45 * k5a + w46 * k6a + w47 * k7a
            q4b = w41 * k1b + w43 * k3b + w44 * k4b + w45 * k5b + w46 * k6b + w47 * k7b
            q4c = w41 * k1c + w43 * k3c + w44 * k4c + w45 * k5c + w46 * k6c + w47 * k7c
            while j < m and t_eval[j] <= t_new:
                x = (t_eval[j] - t) / h
                x2 = x * x
                x3 = x2 * x
                x4 = x3 * x
                sa = ya + h * (k1a * x + q2a * x2 + q3a * x3 + q4a * x4)
                sb = yb + h * (k1b * x + q2b * x2 + q3b * x3 + q4b * x4)
                sc = yc + h * (k1c * x + q2c * x2 + q3c * x3 + q4c * x4)
                drift = (
                    sa.real * sa.real
                    + sa.imag * sa.imag
                    + (sb.real * sb.real + sb.imag * sb.imag)
                    + (sc.real * sc.real + sc.imag * sc.imag)
                    - 1.0
                )
                if not abs(drift) <= NORM_DRIFT_LIMIT:
                    raise IntegrationError(
                        f"norm drift {abs(drift):.3g} exceeds {NORM_DRIFT_LIMIT}", t_eval[j]
                    )
                out.append((sa, sb, sc))
                j += 1
        t, ya, yb, yc = t_new, na, nb, nc
        k1a, k1b, k1c = k7a, k7b, k7c
    return out


def rotated_to_bare(states: np.ndarray, times, cfg: SimulationConfig) -> np.ndarray:
    """Undo the rotating-frame transformation: (d_e, d_g, d_f) -> (c_e, c_g, c_f).

    ``states`` may be a single (3,) vector with scalar ``times`` or an (n, 3)
    array with an (n,) time grid.
    """
    p = cfg.pulses
    t = np.asarray(times, dtype=float)
    ph1 = accumulated_chirp_phase(t, p.chirp1, p.center1, p.tau)
    ph2 = accumulated_chirp_phase(t, p.chirp2, p.center2, p.tau)
    d1 = cfg.detunings.delta1
    d2 = cfg.detunings.delta2
    d = np.asarray(states)
    out = np.empty_like(d, dtype=complex)
    out[..., 0] = d[..., 0] * np.exp(-1j * (d1 * t + ph1))
    out[..., 1] = d[..., 1]
    out[..., 2] = d[..., 2] * np.exp(-1j * ((d1 - d2) * t + ph1 - ph2))
    return out


def phase_pair(c_g, c_f) -> tuple[np.ndarray, np.ndarray]:
    """cos(phi) and the signed phase arg(c_g^* c_f) of the ground amplitudes.

    Both are NaN wherever |c_g| |c_f| falls below PHASE_FLOOR.
    """
    c_g = np.asarray(c_g)
    c_f = np.asarray(c_f)
    cross = np.conj(c_g) * c_f
    den = np.abs(c_g) * np.abs(c_f)
    with np.errstate(invalid="ignore", divide="ignore"):
        cos_phi = np.where(den < PHASE_FLOOR, np.nan, np.clip(cross.real / den, -1.0, 1.0))
        signed = np.where(den < PHASE_FLOOR, np.nan, np.angle(cross))
    return cos_phi, signed


def _propagate(
    cfg: SimulationConfig,
    drive: Drive,
    y0,
    grid: np.ndarray,
    *,
    env: EnvelopePair | None = None,
    reduced: bool = False,
    breakpoints: Sequence[float] = (),
):
    """Integrate :func:`_problem` from state ``y0`` at ``cfg.t_start`` over
    ``grid``, a grid from ``cfg.t_start`` to ``cfg.t_end``: ``(states, stats,
    engine)``, with one row of three slots per grid point.

    The compiled kernel runs when it loads and ``env`` is None; otherwise
    ``_dopri45`` runs on :func:`_rhs` with the envelopes of ``env``, a bare
    callable t -> (omega1, omega2), or of ``drive``. Both give the same bits.
    The stepper restarts at ``breakpoints`` inside the window, such as a chop.
    """
    from . import _kernel

    prob = _problem(cfg, drive, reduced)
    n = 2 if reduced else 3
    stats = SolverStats()
    if env is None and _kernel.library() is not None:
        engine = "compiled"

        def step(t, y, t_eval):
            return _kernel.dopri45(
                prob, t, y, t_eval, cfg.rel_tol, cfg.abs_tol, stats, NORM_DRIFT_LIMIT, n
            )

    else:
        engine = "python"
        rhs = _rhs(prob, drive.evaluator() if env is None else env)

        def step(t, y, t_eval):
            samples = _dopri45(rhs, t, y, t_eval.tolist(), cfg.rel_tol, cfg.abs_tol, stats, n)
            return np.array(samples, dtype=complex)

    inner = [float(b) for b in sorted(breakpoints) if cfg.t_start < float(b) < cfg.t_end]
    cuts = [cfg.t_start, *inner, cfg.t_end]
    blocks = []
    y = y0
    for a, b in zip(cuts[:-1], cuts[1:]):
        mask = (grid > a) & (grid <= b) if blocks else (grid >= a) & (grid <= b)
        seg = grid[mask]
        t_eval = seg if seg.size and seg[-1] == b else np.append(seg, b)
        samples = step(a, y, t_eval)
        blocks.append(samples[: seg.size])
        y = tuple(map(complex, samples[-1]))
    return np.concatenate(blocks), stats, engine


def integrate(
    cfg: SimulationConfig,
    *,
    envelopes: Drive | EnvelopePair | None = None,
    breakpoints: Sequence[float] = (),
) -> Trajectory:
    """Propagate the amplitudes over the configured window.

    Starts from (0, alpha, beta e^{i phi}) at ``t_start`` and samples the
    dense output on a uniform grid of ``cfg.samples`` points. ``envelopes``
    replaces the Gaussian pair ``Drive.from_pulses(cfg.pulses)``: another
    :class:`Drive` runs on the compiled kernel like the default, while a bare
    callable ``t -> (omega1, omega2)`` runs on the Python stepper (the chirp
    terms still come from the config). ``breakpoints`` forces integrator
    restarts at envelope discontinuities such as a hard pulse chop, and those
    outside the window are ignored.

    Raises IntegrationError, carrying the failure time, if step-size control
    underflows before reaching ``t_end`` or the norm drifts beyond
    NORM_DRIFT_LIMIT.
    """
    q = cfg.initial
    grid = np.linspace(cfg.t_start, cfg.t_end, cfg.samples)
    y0 = (0j, complex(q.alpha), q.beta * cmath.exp(1j * q.phi))
    drive = envelopes if isinstance(envelopes, Drive) else Drive.from_pulses(cfg.pulses)
    env = None if isinstance(envelopes, Drive) else envelopes
    states, stats, engine = _propagate(cfg, drive, y0, grid, env=env, breakpoints=breakpoints)
    populations = np.abs(states) ** 2
    norm_err = float(np.max(np.abs(populations.sum(axis=1) - 1.0)))
    bare = rotated_to_bare(states, grid, cfg)
    cos_phi, signed = phase_pair(bare[:, 1], bare[:, 2])
    return Trajectory(
        times=grid,
        states=states,
        populations=populations,
        cos_phi=cos_phi,
        phi_signed=signed,
        config=cfg,
        max_norm_error=norm_err,
        stats=stats,
        engine=engine,
    )
