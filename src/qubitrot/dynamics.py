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
sec. II.4-II.6, over three complex scalar slots. Its coefficients are one
table of rows, and one fold sums every stage, the 5th-order solution, the
error estimate and the dense output from them. It takes the same steps as
scipy's RK45 only while each sum and product keeps scipy's operation order.

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


# The Dormand-Prince 5(4) pair (Hairer, Norsett & Wanner I, table II.5.2) as
# rows of (stage, coefficient, negate) terms over the stages k[0..6], which
# _fold sums left to right from the first term; that term carries its sign.
# Row i of _STAGES builds stage k[i + 1] at node _NODES[i] (c2..c6). _DENSE
# holds columns 1-3 of the quartic dense-output matrix (Shampine, Math. Comp.
# 46, 135 (1986)), the coefficients of x^2..x^4; column 0 is k[0] alone.
_NODES = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_STAGES = (
    ((0, 1 / 5, 0),),
    ((0, 3 / 40, 0), (1, 9 / 40, 0)),
    ((0, 44 / 45, 0), (1, 56 / 15, 1), (2, 32 / 9, 0)),
    ((0, 19372 / 6561, 0), (1, 25360 / 2187, 1), (2, 64448 / 6561, 0), (3, 212 / 729, 1)),
    (
        (0, 9017 / 3168, 0), (1, 355 / 33, 1), (2, 46732 / 5247, 0), (3, 49 / 176, 0),
        (4, 5103 / 18656, 1),
    ),
)  # fmt: skip
_SOLUTION = (
    (0, 35 / 384, 0), (2, 500 / 1113, 0), (3, 125 / 192, 0), (4, 2187 / 6784, 1), (5, 11 / 84, 0),
)  # fmt: skip
_ERROR = (
    (0, -71 / 57600, 0), (2, 71 / 16695, 0), (3, 71 / 1920, 1), (4, 17253 / 339200, 0),
    (5, 22 / 525, 1), (6, 1 / 40, 0),
)  # fmt: skip
_DENSE = tuple(
    tuple(zip((0, 2, 3, 4, 5, 6), column, (0,) * 6))
    for column in (
        (-8048581381 / 2820520608, 131558114200 / 32700410799, -1754552775 / 470086768,
         127303824393 / 49829197408, -282668133 / 205662961, 40617522 / 29380423),
        (8663915743 / 2820520608, -68118460800 / 10900136933, 14199869525 / 1410260304,
         -318862633887 / 49829197408, 2019193451 / 616988883, -110615467 / 29380423),
        (-12715105075 / 11282082432, 87487479700 / 32700410799, -10690763975 / 1880347072,
         701980252875 / 199316789632, -1453857185 / 822651844, 69997945 / 29380423),
    )
)  # fmt: skip


def _fold(terms, k):
    # one row summed over the three slots of the stages k. A negated term is
    # subtracted: adding (-c) * k instead can flip the sign of an exact zero,
    # as Python promotes -c to the complex (-c, 0.0).
    terms = iter(terms)
    s, c, _ = next(terms)
    ka, kb, kc = k[s]
    a, b, d = c * ka, c * kb, c * kc
    for s, c, negate in terms:
        ka, kb, kc = k[s]
        if negate:
            a, b, d = a - c * ka, b - c * kb, d - c * kc
        else:
            a, b, d = a + c * ka, b + c * kb, d + c * kc
    return a, b, d


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
    returns their three derivatives. Every stage, the 5th-order solution, the
    error estimate and the dense output is one row of the tables above,
    summed by :func:`_fold`. ``n`` is the number of slots that count in the
    RMS error norm, i.e. its divisor: a two-component system runs with an
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
    holds the same tables and fold. The stepper's work is added to ``stats``.

    Raises IntegrationError at the time of failure if the step underflows, or
    if a sample's |norm^2 - 1| exceeds NORM_DRIFT_LIMIT (the flows integrated
    here are unitary).
    """
    t_end = t_eval[-1]
    rn = n**0.5
    ya, yb, yc = y
    k = [rhs(t, ya, yb, yc)] * 7
    k1a, k1b, k1c = k[0]
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
            for i, (node, row) in enumerate(zip(_NODES, _STAGES), 1):
                sa, sb, sc = _fold(row, k)
                k[i] = rhs(t + node * h, ya + sa * h, yb + sb * h, yc + sc * h)
            sa, sb, sc = _fold(_SOLUTION, k)
            na, nb, nc = ya + h * sa, yb + h * sb, yc + h * sc
            k[6] = rhs(t + h, na, nb, nc)
            stats.rhs_evals += 6
            ea, eb, ec = _fold(_ERROR, k)
            error = _rms(
                ea * h * (1.0 / (abs_tol + max(abs(ya), abs(na)) * rel_tol)),
                eb * h * (1.0 / (abs_tol + max(abs(yb), abs(nb)) * rel_tol)),
                ec * h * (1.0 / (abs_tol + max(abs(yc), abs(nc)) * rel_tol)),
                rn,
            )
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
            # the dense output's coefficients of x, x^2, x^3 and x^4
            q = [k[0], *(_fold(row, k) for row in _DENSE)]
            while j < m and t_eval[j] <= t_new:
                x = (t_eval[j] - t) / h
                x2 = x * x
                x3 = x2 * x
                x4 = x3 * x
                sa, sb, sc = (
                    y_ + h * (q1 * x + q2 * x2 + q3 * x3 + q4 * x4)
                    for y_, q1, q2, q3, q4 in zip((ya, yb, yc), *q)
                )
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
        k[0] = k[6]
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
