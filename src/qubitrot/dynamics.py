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

with Gaussian envelopes omega1, omega2 (pulse 1 carrying the constant
relative phase e^{-i delta}). The moduli |d_j| equal |c_j|, so populations
can be read off directly; recovering the bare relative phase requires
undoing the frame, see :func:`rotated_to_bare`.

Integration uses the package's own Dormand-Prince 5(4) stepper (Dormand &
Prince, J. Comput. Appl. Math. 6, 19 (1980)) with the step control and
4th-order dense output of Hairer, Norsett & Wanner, Solving ODEs I,
sec. II.4-II.6. It is written out as straight-line code over three complex
scalar slots, one expression per slot for each stage sum, the error norm and
the dense output. It takes the same steps as scipy's RK45 only while each sum
and product keeps scipy's operation order. The two-level reduction runs on
the same stepper with a zero third slot; the stepper's ``n`` argument, the
divisor of the RMS error norm, is then 2. The state is never
renormalized: norm drift is recorded as a diagnostic so integration bugs stay
visible, and a drift beyond NORM_DRIFT_LIMIT aborts the run.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Sequence

import numpy as np

from .errors import IntegrationError
from .types import ChirpProfile, PulsePair, SimulationConfig, SolverStats, Trajectory

# 3x3 complex array M(t), ordered (e, g, f), propagating d' = M d.
GeneratorMatrix = np.ndarray

# Below this product of ground-amplitude moduli the relative phase is
# reported as NaN rather than a meaningless ratio.
PHASE_FLOOR = 1e-12

# The flow is unitary; a sample whose |norm^2 - 1| exceeds this is garbage
# from a tolerance too loose to resolve the dynamics, not a result.
NORM_DRIFT_LIMIT = 1e-2

EnvelopePair = Callable[[float], tuple[complex, complex]]


def envelope(t: float, p: PulsePair) -> tuple[complex, complex]:
    """Complex pulse envelopes at time ``t``.

    omega1 = omega01 exp[-((t - c1)/tau)^2] e^{-i delta}, centered at
    c1 = origin + T; omega2 = omega02 exp[-((t - c2)/tau)^2] at c2 = origin.
    """
    x1 = (t - p.center1) / p.tau
    x2 = (t - p.center2) / p.tau
    w1 = p.omega01 * math.exp(-x1 * x1) * cmath.exp(-1j * p.delta)
    w2 = p.omega02 * math.exp(-x2 * x2)
    return w1, w2


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


def _rate_fn(c: ChirpProfile, center: float, tau: float):
    if not c.is_active:
        return None
    chi, inv_tau = c.chi, 1.0 / tau
    if c.kind == "linear":
        return lambda t: chi * (t - center) * inv_tau
    return lambda t: chi * math.tanh((t - center) * inv_tau)


def _make_rhs(cfg: SimulationConfig, envelopes: EnvelopePair | None):
    """Closure evaluating the amplitude derivatives; scalar math for speed."""
    p = cfg.pulses
    d1 = cfg.detunings.delta1
    dd = cfg.detunings.delta1 - cfg.detunings.delta2
    inv_tau = 1.0 / p.tau
    rate1 = _rate_fn(p.chirp1, p.center1, p.tau)
    rate2 = _rate_fn(p.chirp2, p.center2, p.tau)

    if envelopes is None:
        o1 = p.omega01 * cmath.exp(-1j * p.delta)
        o2 = complex(p.omega02)
        c1, c2 = p.center1, p.center2

        def env(t: float) -> tuple[complex, complex]:
            x1 = (t - c1) * inv_tau
            x2 = (t - c2) * inv_tau
            return o1 * math.exp(-x1 * x1), o2 * math.exp(-x2 * x2)

    else:
        env = envelopes

    def rhs(t, de, dg, df):
        w1, w2 = env(t)
        r1 = rate1(t) * inv_tau if rate1 else 0.0
        r2 = rate2(t) * inv_tau if rate2 else 0.0
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
    order is kept, so keep it when editing. The stepper's work is added to
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
    # RMS norms: the real squares summed over the slots, then the imaginary
    # ones, as numpy's complex vector norm sums them
    za, zb, zc = ya * ia, yb * ib, yc * ic
    d0 = math.sqrt(
        za.real * za.real
        + zb.real * zb.real
        + zc.real * zc.real
        + (za.imag * za.imag + zb.imag * zb.imag + zc.imag * zc.imag)
    ) / rn
    za, zb, zc = k1a * ia, k1b * ib, k1c * ic
    d1 = math.sqrt(
        za.real * za.real
        + zb.real * zb.real
        + zc.real * zc.real
        + (za.imag * za.imag + zb.imag * zb.imag + zc.imag * zc.imag)
    ) / rn
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end - t)
    fa, fb, fc = rhs(t + h0, ya + h0 * k1a, yb + h0 * k1b, yc + h0 * k1c)
    za, zb, zc = (fa - k1a) * ia, (fb - k1b) * ib, (fc - k1c) * ic
    d2 = (
        math.sqrt(
            za.real * za.real
            + zb.real * zb.real
            + zc.real * zc.real
            + (za.imag * za.imag + zb.imag * zb.imag + zc.imag * zc.imag)
        )
        / rn
        / h0
    )
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
            if h_abs < min_step:
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
            error = (
                math.sqrt(
                    za.real * za.real
                    + zb.real * zb.real
                    + zc.real * zc.real
                    + (za.imag * za.imag + zb.imag * zb.imag + zc.imag * zc.imag)
                )
                / rn
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


def integrate(
    cfg: SimulationConfig,
    *,
    envelopes: EnvelopePair | None = None,
    breakpoints: Sequence[float] = (),
) -> Trajectory:
    """Propagate the amplitudes over the configured window.

    Starts from (0, alpha, beta e^{i phi}) at ``t_start`` and samples the
    dense output on a uniform grid of ``cfg.samples`` points. ``envelopes``
    optionally replaces the Gaussian pair (the chirp terms still come from
    the config); ``breakpoints`` forces integrator restarts at envelope
    discontinuities such as a hard pulse chop.

    Raises IntegrationError, carrying the failure time, if step-size control
    underflows before reaching ``t_end`` or the norm drifts beyond
    NORM_DRIFT_LIMIT.
    """
    q = cfg.initial
    grid = np.linspace(cfg.t_start, cfg.t_end, cfg.samples)
    y = [0j, complex(q.alpha), q.beta * cmath.exp(1j * q.phi)]
    rhs = _make_rhs(cfg, envelopes)

    cuts = [cfg.t_start]
    cuts += [float(b) for b in sorted(breakpoints) if cfg.t_start < float(b) < cfg.t_end]
    cuts.append(cfg.t_end)

    rows = []
    stats = SolverStats()
    for a, b in zip(cuts[:-1], cuts[1:]):
        mask = (grid > a) & (grid <= b) if rows else (grid >= a) & (grid <= b)
        seg = grid[mask].tolist()
        t_eval = seg if seg and seg[-1] == b else seg + [b]
        samples = _dopri45(rhs, a, y, t_eval, cfg.rel_tol, cfg.abs_tol, stats)
        rows += samples[: len(seg)]
        y = samples[-1]

    states = np.array(rows, dtype=complex)
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
    )
