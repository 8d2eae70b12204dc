import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from qubitrot import (
    DetuningSpec,
    IntegrationError,
    UnsupportedRegimeError,
    base_config,
    compare_with_full,
    effective_params,
    envelope,
    integrate_two_level,
)
from qubitrot.twolevel import _make_reduced_rhs


def _cfg(**kw):
    return base_config(**kw)


class TestEffectiveParams:
    def test_pure_g_limit(self):
        cfg = _cfg(alpha=1.0, phi=0.0, delta_tau=45.0)
        t = 0.8
        w1, w2 = envelope(t, cfg.pulses)
        eff = effective_params(t, cfg)
        assert eff.f1 == pytest.approx(w1.conjugate(), abs=1e-14)
        assert eff.f2 == pytest.approx(-w2.conjugate(), abs=1e-14)
        assert eff.omega_e == pytest.approx(-w1.conjugate() * w2 / 45.0, abs=1e-14)

    def test_symmetric_cancellation(self):
        r = 1 / math.sqrt(2)
        cfg = _cfg(alpha=r, phi=0.0, delta_tau=45.0)
        t = cfg.pulses.T / 2  # envelopes equal and real here
        w1, _ = envelope(t, cfg.pulses)
        eff = effective_params(t, cfg)
        assert abs(eff.f2) <= 1e-14
        assert abs(eff.omega_e) <= 1e-14
        assert eff.delta_e == pytest.approx(abs(w1) ** 2 / 45.0, rel=1e-12)

    def test_resonance_guard(self):
        with pytest.raises(UnsupportedRegimeError):
            effective_params(0.0, _cfg(delta_tau=0.0))

    def test_two_photon_detuned_rejected(self):
        cfg = _cfg(delta_tau=45.0).with_(detunings=DetuningSpec(45.0, 44.0))
        with pytest.raises(UnsupportedRegimeError):
            effective_params(0.0, cfg)

    def test_chirped_rejected(self):
        with pytest.raises(UnsupportedRegimeError):
            effective_params(0.0, _cfg(delta_tau=45.0, chirp_kind="tanh", chi=1.0))

    @given(
        alpha=st.floats(0.0, 1.0),
        phi=st.floats(-math.pi, math.pi),
        t=st.floats(-4.0, 6.0),
        delta_tau=st.floats(20.0, 150.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_reduced_quantities_recomputable(self, alpha, phi, t, delta_tau):
        cfg = _cfg(alpha=alpha, phi=phi, delta_tau=delta_tau)
        eff = effective_params(t, cfg)
        assert eff.omega_e == pytest.approx(eff.f1 * eff.f2.conjugate() / delta_tau, abs=1e-12)
        assert eff.delta_e == pytest.approx(
            (abs(eff.f1) ** 2 - abs(eff.f2) ** 2) / (2 * delta_tau), abs=1e-12
        )


class TestIntegrateTwoLevel:
    def test_zero_pulses_frozen(self):
        cfg = _cfg(omega01=0.0, omega02=0.0, delta_tau=45.0)
        red = integrate_two_level(cfg)
        assert np.allclose(red.d_i, 1.0, atol=1e-12)
        assert np.allclose(red.d_k, 0.0, atol=1e-12)

    def test_single_pulse_pure_phase(self):
        # with omega2 absent and alpha = 1, f2 couples nothing: diagonal flow
        cfg = _cfg(alpha=1.0, phi=0.0, omega02=0.0, delta_tau=45.0)
        red = integrate_two_level(cfg)
        assert np.allclose(red.p_g, 1.0, atol=1e-9)
        assert np.allclose(np.abs(red.d_i), 1.0, atol=1e-9)

    def test_norm_conserved(self):
        red = integrate_two_level(_cfg(delta_tau=45.0))
        assert red.max_norm_error <= 1e-8

    def test_loose_tolerance_norm_drift_raises(self):
        cfg = _cfg(delta_tau=45.0).with_(rel_tol=0.01)
        with pytest.raises(IntegrationError, match="norm drift") as excinfo:
            integrate_two_level(cfg)
        assert cfg.t_start <= excinfo.value.time <= cfg.t_end

    def test_matches_scipy_rk45_step_for_step(self):
        # the stepper pads the reduced pair with a zero third slot and divides
        # its error norm by n=2, so it takes scipy's RK45 steps on two slots
        cfg = _cfg(delta_tau=45.0).with_(t_start=-4.0, t_end=6.0)
        red = integrate_two_level(cfg)
        rhs = _make_reduced_rhs(cfg)
        ref = solve_ivp(
            lambda t, y: rhs(t, y[0], y[1], 0j)[:2],
            (cfg.t_start, cfg.t_end),
            np.array([1.0 + 0j, 0j]),
            method="RK45",
            rtol=cfg.rel_tol,
            atol=cfg.abs_tol,
            t_eval=red.times,
        )
        assert red.stats.rhs_evals == ref.nfev
        assert np.max(np.abs(np.stack([red.d_i, red.d_k], axis=1) - ref.y.T)) <= 1e-13

    def test_moderate_detuning_tracks_full_model(self):
        report = compare_with_full(_cfg(delta_tau=45.0))
        assert report.final_dev <= 0.1


class TestCompareWithFull:
    def test_zero_pulses_agree_exactly(self):
        report = compare_with_full(_cfg(omega01=0.0, omega02=0.0, delta_tau=45.0))
        assert report.max_dev <= 1e-10

    def test_large_detuning_agrees(self):
        assert compare_with_full(_cfg(delta_tau=120.0)).final_dev <= 0.05

    def test_deviation_decreases_with_detuning(self):
        devs = [compare_with_full(_cfg(delta_tau=d)).final_dev for d in (30.0, 45.0, 60.0, 120.0)]
        assert devs[0] > devs[-1]
        assert all(a >= b for a, b in zip(devs, devs[1:]))
