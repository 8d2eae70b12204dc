import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad, solve_ivp

from qubitrot import (
    ChirpProfile,
    DetuningSpec,
    InitialQubit,
    IntegrationError,
    PulsePair,
    SimulationConfig,
    accumulated_chirp_phase,
    assemble_generator,
    base_config,
    chirp_rate,
    envelope,
    integrate,
)
from qubitrot.dynamics import _make_rhs
from oracles import rk4_final_state

T_DEFAULT = 4.0 / 3.0


class TestEnvelope:
    def test_pulse1_peak(self):
        p = PulsePair(omega01=2.0, omega02=3.0, T=T_DEFAULT, delta=0.7)
        w1, _ = envelope(p.center1, p)
        assert w1 == pytest.approx(2.0 * cmath.exp(-0.7j), abs=1e-15)

    def test_pulse2_peak(self):
        p = PulsePair(omega01=2.0, omega02=3.0, T=T_DEFAULT)
        _, w2 = envelope(0.0, p)
        assert w2 == pytest.approx(3.0, abs=1e-15)

    def test_overlap_value_at_origin(self):
        # pulse 1 read 4/3 widths from its center: exp(-16/9) of the peak
        p = PulsePair(omega01=5.0, omega02=1.0, T=T_DEFAULT)
        w1, _ = envelope(0.0, p)
        assert w1.real == pytest.approx(5.0 * math.exp(-16.0 / 9.0), rel=1e-14)
        assert w1.real == pytest.approx(5.0 * 0.16901331540606612, rel=1e-12)
        assert w1.imag == 0.0


chirp_kinds = st.sampled_from(["none", "linear", "tanh"])


class TestChirp:
    def test_linear_vanishes_at_center(self):
        assert chirp_rate(2.5, ChirpProfile("linear", 1.7), center=2.5) == 0.0

    def test_tanh_saturates(self):
        rate = chirp_rate(60.0, ChirpProfile("tanh", 0.9), center=0.0)
        assert rate == pytest.approx(0.9, abs=1e-12)

    def test_linear_direct(self):
        assert chirp_rate(3.0, ChirpProfile("linear", 1.0), center=1.0) == pytest.approx(2.0)

    def test_phase_zero_at_origin(self):
        for kind in ("none", "linear", "tanh"):
            assert accumulated_chirp_phase(0.0, ChirpProfile(kind, 1.3), center=0.8) == 0.0

    def test_none_profile_flat(self):
        assert accumulated_chirp_phase(7.0, ChirpProfile(), center=1.0) == 0.0

    def test_linear_antiderivative(self):
        assert accumulated_chirp_phase(2.0, ChirpProfile("linear", 1.0), center=0.0) == pytest.approx(2.0)

    @given(
        kind=chirp_kinds,
        chi=st.floats(-3.0, 3.0),
        center=st.floats(-2.0, 2.0),
        t=st.floats(-10.0, 16.0),
        tau=st.floats(0.5, 2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_phase_matches_quadrature(self, kind, chi, center, t, tau):
        c = ChirpProfile(kind, chi)
        expected, _ = quad(
            lambda s: chirp_rate(s, c, center, tau) / tau, 0.0, t, limit=200
        )
        assert accumulated_chirp_phase(t, c, center, tau) == pytest.approx(expected, abs=1e-8)


def _cfg(**kw):
    return base_config(**kw)


class TestGenerator:
    def test_far_wings_diagonal(self):
        cfg = _cfg()
        m = assemble_generator(-200.0, cfg)
        off = m - np.diag(np.diag(m))
        assert np.max(np.abs(off)) < 1e-300
        # the g row is identically zero there: d_g is frozen
        assert np.all(m[1] == 0)

    def test_dark_vector_annihilated(self):
        cfg = _cfg(delta_tau=45.0)
        t = 0.4
        w1, w2 = envelope(t, cfg.pulses)
        dark = np.array([0.0, w2, -w1]) / math.hypot(abs(w1), abs(w2))
        assert np.linalg.norm(assemble_generator(t, cfg) @ dark) <= 1e-13

    def test_matches_resonant_matrix_form(self):
        # unchirped, equal detunings: i M is the familiar coupling matrix
        cfg = _cfg(delta_tau=45.0)
        t = 0.9
        w1, w2 = envelope(t, cfg.pulses)
        expected = np.array(
            [
                [-45.0, w1, w2],
                [w1.conjugate(), 0, 0],
                [w2.conjugate(), 0, 0],
            ]
        )
        assert np.allclose(1j * assemble_generator(t, cfg), expected, atol=1e-14)

    @given(
        t=st.floats(-8.0, 15.0),
        delta1=st.floats(-100.0, 100.0),
        delta2=st.floats(-100.0, 100.0),
        delta=st.floats(-math.pi, math.pi),
        kind=chirp_kinds,
        chi=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_coupling_block_hermitian(self, t, delta1, delta2, delta, kind, chi):
        chirp = ChirpProfile(kind, chi)
        cfg = SimulationConfig(
            pulses=PulsePair(15.0, 15.0, delta=delta, chirp1=chirp, chirp2=chirp),
            detunings=DetuningSpec(delta1, delta2),
            initial=InitialQubit(0.3, math.sqrt(1 - 0.09), 0.0),
        )
        h = 1j * assemble_generator(t, cfg)
        off = h - np.diag(np.diag(h))
        assert np.max(np.abs(off - off.conj().T)) <= 1e-14
        assert np.max(np.abs(np.diag(h).imag)) <= 1e-14


class TestIntegrate:
    def test_zero_coupling_is_frozen(self):
        cfg = _cfg(omega01=0.0, omega02=0.0, delta_tau=45.0)
        traj = integrate(cfg)
        expected = np.array([0.0, 0.09, 0.91])
        assert np.allclose(traj.populations, expected, atol=1e-12)

    def test_resonant_pi_pulse_inverts(self):
        # Gaussian pulse area 2 sqrt(pi) omega01 tau = pi
        cfg = _cfg(alpha=1.0, phi=0.0, omega01=math.sqrt(math.pi) / 2, omega02=0.0, delta_tau=0.0)
        traj = integrate(cfg)
        assert traj.p_e[-1] == pytest.approx(1.0, abs=1e-6)
        assert traj.p_g[-1] == pytest.approx(0.0, abs=1e-6)

    def test_resonant_two_pi_pulse_returns(self):
        cfg = _cfg(alpha=1.0, phi=0.0, omega01=math.sqrt(math.pi), omega02=0.0, delta_tau=0.0)
        traj = integrate(cfg)
        assert traj.p_g[-1] == pytest.approx(1.0, abs=1e-6)

    def test_long_time_excited_population_small(self):
        traj = integrate(_cfg(delta_tau=45.0))
        assert traj.p_e[-1] < 0.01

    def test_norm_conservation(self):
        for delta_tau in (45.0, 120.0):
            traj = integrate(_cfg(delta_tau=delta_tau))
            assert traj.max_norm_error <= 1e-8

    def test_populations_are_square_moduli(self):
        traj = integrate(_cfg())
        assert np.array_equal(traj.populations, np.abs(traj.states) ** 2)
        assert np.all(np.diff(traj.times) > 0)

    def test_delta_gauge_invariance_for_pure_g(self):
        # with all population in |g>, the relative pulse phase is a pure gauge
        base = None
        for delta in (0.0, math.pi / 4, math.pi):
            cfg = _cfg(alpha=1.0, phi=0.0, delta_tau=45.0).with_(
                pulses=_cfg().pulses.__class__(
                    omega01=15.0, omega02=15.0, T=T_DEFAULT, delta=delta
                ),
            )
            pops = integrate(cfg).populations[-1]
            if base is None:
                base = pops
            assert np.max(np.abs(pops - base)) <= 1e-9

    def test_time_translation_covariance(self):
        shift = 4.0
        tight = dict(rel_tol=1e-12, abs_tol=1e-14)
        cfg = _cfg(delta_tau=45.0).with_(**tight)
        ref = integrate(cfg).populations
        shifted_cfg = cfg.with_(
            pulses=cfg.pulses.__class__(
                omega01=15.0, omega02=15.0, T=T_DEFAULT, origin=shift
            ),
            t_start=cfg.t_start + shift,
            t_end=cfg.t_end + shift,
            **tight,
        )
        shifted = integrate(shifted_cfg).populations
        assert np.max(np.abs(shifted - ref)) <= 1e-10

    def test_start_time_insensitivity(self):
        # any start at or before -5 tau realizes the asymptotic preparation
        ref = integrate(_cfg(delta_tau=45.0)).populations[-1]
        for t_start in (-5.0, -10.0):
            pops = integrate(_cfg(delta_tau=45.0).with_(t_start=t_start)).populations[-1]
            assert np.max(np.abs(pops - ref)) <= 1e-6

    def test_step_underflow_raises(self):
        cfg = _cfg(chirp_kind="linear", chi=1e14)
        with pytest.raises(IntegrationError) as excinfo:
            integrate(cfg)
        assert math.isfinite(excinfo.value.time)

    def test_matches_fixed_step_oracle_cheap(self):
        cfg = _cfg(delta_tau=45.0, omega01=3.0, omega02=3.0).with_(t_start=-4.0, t_end=6.0)
        adaptive = integrate(cfg).states[-1]
        reference = rk4_final_state(cfg, h=2e-4)
        for a, b in zip(adaptive, reference):
            assert abs(a - b) <= 1e-6

    @pytest.mark.parametrize("kind", ["none", "linear", "tanh"])
    @given(
        alpha=st.floats(0.0, 1.0),
        phi=st.floats(-math.pi, math.pi),
        delta_tau=st.floats(-60.0, 60.0),
        omega01=st.floats(0.0, 5.0),
        omega02=st.floats(0.0, 5.0),
        chi=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=4, deadline=None)
    def test_matches_fixed_step_oracle_drawn(
        self, kind, alpha, phi, delta_tau, omega01, omega02, chi
    ):
        cfg = _cfg(
            alpha=alpha,
            phi=phi,
            delta_tau=delta_tau,
            omega01=omega01,
            omega02=omega02,
            chirp_kind=kind,
            chi=chi,
        ).with_(t_start=-4.0, t_end=6.0)
        adaptive = integrate(cfg).states[-1]
        reference = rk4_final_state(cfg, h=2e-4)
        for a, b in zip(adaptive, reference):
            assert abs(a - b) <= 1e-6

    @pytest.mark.parametrize("kind", ["none", "linear", "tanh"])
    def test_matches_scipy_rk45_step_for_step(self, kind):
        # same tableau, step control and dense output as scipy's RK45, so the
        # same RHS count and states equal to rounding. The linear chirp count
        # matches on this config; on the default window (the fig11 base) it
        # is 0.03 % above scipy's, whose BLAS sums the stages in another order.
        chirp = {} if kind == "none" else {"chirp_kind": kind, "chi": 1.0}
        cfg = _cfg(delta_tau=45.0, omega01=3.0, omega02=3.0, **chirp)
        cfg = cfg.with_(t_start=-4.0, t_end=6.0)
        traj = integrate(cfg)
        rhs = _make_rhs(cfg, None)
        ref = solve_ivp(
            lambda t, y: rhs(t, *y),
            (cfg.t_start, cfg.t_end),
            traj.states[0],
            method="RK45",
            rtol=cfg.rel_tol,
            atol=cfg.abs_tol,
            t_eval=traj.times,
        )
        assert traj.stats.rhs_evals == ref.nfev
        assert np.max(np.abs(traj.states - ref.y.T)) <= 1e-13

    def test_tolerance_below_100_eps_is_used(self):
        # no hidden floor (scipy raised rel_tol to 100 eps): 1e-16 takes more
        # steps than 100 eps once abs_tol does not dominate
        cfg = _cfg(delta_tau=45.0, omega01=3.0, omega02=3.0)
        cfg = cfg.with_(t_start=-1.0, t_end=0.5, abs_tol=1e-20)
        fine = integrate(cfg.with_(rel_tol=1e-16))
        floor = integrate(cfg.with_(rel_tol=100 * np.finfo(float).eps))
        assert fine.stats.rhs_evals > floor.stats.rhs_evals
        assert fine.max_norm_error <= 1e-8
