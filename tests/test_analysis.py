import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qubitrot import (
    ChirpProfile,
    DetuningSpec,
    InitialQubit,
    PulsePair,
    SimulationConfig,
    StateVector,
    UnsupportedRegimeError,
    adiabatic_frame,
    adiabatic_populations,
    assemble_generator,
    base_config,
    fidelity,
    integrate,
    nonadiabaticity,
    relative_phase,
)


def _resonant_cfg(**kw):
    return base_config(**kw)


class TestRelativePhase:
    def test_in_phase(self):
        r = 1 / math.sqrt(2)
        s = StateVector(0j, r + 0j, r + 0j)
        sample = relative_phase(s, 0.0, _resonant_cfg())
        assert sample.cos_phi == pytest.approx(1.0)
        assert sample.phi == pytest.approx(0.0)

    def test_quadrature(self):
        r = 1 / math.sqrt(2)
        s = StateVector(0j, r + 0j, 1j * r)
        sample = relative_phase(s, 0.0, _resonant_cfg())
        assert sample.cos_phi == pytest.approx(0.0, abs=1e-15)
        assert sample.phi == pytest.approx(math.pi / 2)

    def test_undefined_marker(self):
        s = StateVector(0j, 0j, 1.0 + 0j)
        sample = relative_phase(s, 0.0, _resonant_cfg())
        assert math.isnan(sample.cos_phi) and math.isnan(sample.phi)

    @given(
        d1=st.floats(-50.0, 50.0),
        d2=st.floats(-50.0, 50.0),
        chi=st.floats(-2.0, 2.0),
        kind=st.sampled_from(["none", "linear", "tanh"]),
        t=st.floats(-8.0, 15.0),
        phase=st.floats(-math.pi, math.pi),
    )
    @settings(max_examples=60, deadline=None)
    def test_frame_unwinding_recovers_bare_phase(self, d1, d2, chi, kind, t, phase):
        # forward-apply the frame to known bare amplitudes, then recover them
        chirp = ChirpProfile(kind, chi)
        cfg = SimulationConfig(
            pulses=PulsePair(15.0, 15.0, chirp1=chirp, chirp2=chirp),
            detunings=DetuningSpec(d1, d2),
            initial=InitialQubit(1.0, 0.0, 0.0),
        )
        from qubitrot import accumulated_chirp_phase

        r = 1 / math.sqrt(2)
        c_g = r
        c_f = r * cmath.exp(1j * phase)
        p = cfg.pulses
        ph1 = accumulated_chirp_phase(t, p.chirp1, p.center1)
        ph2 = accumulated_chirp_phase(t, p.chirp2, p.center2)
        d_f = c_f * cmath.exp(1j * ((d1 - d2) * t + ph1 - ph2))
        s = StateVector(0j, c_g, d_f)
        sample = relative_phase(s, t, cfg)
        assert sample.cos_phi == pytest.approx(math.cos(phase), abs=1e-9)

    def test_cos_phi_bounded_along_trajectory(self):
        traj = integrate(_resonant_cfg(delta_tau=45.0))
        defined = ~np.isnan(traj.cos_phi)
        assert np.all(traj.cos_phi[defined] >= -1.0)
        assert np.all(traj.cos_phi[defined] <= 1.0)

    def test_phase_settles_at_long_times(self):
        for delta_tau in (45.0, 60.0, 120.0):
            traj = integrate(_resonant_cfg(delta_tau=delta_tau))
            tail = traj.times >= traj.times[-1] - 2.0
            assert np.nanmax(traj.cos_phi[tail]) - np.nanmin(traj.cos_phi[tail]) < 1e-3


class TestAdiabaticFrame:
    def test_equal_envelopes_on_resonance(self):
        cfg = _resonant_cfg(delta_tau=0.0)
        t = cfg.pulses.T / 2  # symmetric point: |omega1| = |omega2|
        frame = adiabatic_frame(t, cfg)
        assert frame.theta == pytest.approx(math.pi / 4, abs=1e-12)
        assert frame.phi_mix == pytest.approx(math.pi / 4, abs=1e-12)

    def test_early_counterintuitive_dark_is_g(self):
        cfg = _resonant_cfg(delta_tau=45.0)
        frame = adiabatic_frame(-6.0, cfg)
        assert frame.theta == pytest.approx(0.0, abs=1e-6)
        assert np.allclose(frame.a0, [0, 1, 0], atol=1e-6)

    def test_deep_wing_theta_still_defined(self):
        cfg = _resonant_cfg(delta_tau=45.0)
        late = adiabatic_frame(80.0, cfg)  # both envelopes underflow
        assert late.theta == pytest.approx(math.pi / 2, abs=1e-12)
        early = adiabatic_frame(-80.0, cfg)
        assert early.theta == pytest.approx(0.0, abs=1e-12)

    @given(t=st.floats(-8.0, 15.0), delta_tau=st.floats(-120.0, 120.0))
    @settings(max_examples=100, deadline=None)
    def test_exact_eigenpairs(self, t, delta_tau):
        cfg = _resonant_cfg(delta_tau=delta_tau)
        frame = adiabatic_frame(t, cfg)
        h = 1j * assemble_generator(t, cfg)
        scale = np.linalg.norm(h)
        for v, lam in zip((frame.a0, frame.a_plus, frame.a_minus), frame.eigenvalues):
            assert np.linalg.norm(h @ v - lam * v) <= 1e-10 * max(scale, 1e-30)

    @given(t=st.floats(-8.0, 15.0), delta_tau=st.floats(-120.0, 120.0))
    @settings(max_examples=60, deadline=None)
    def test_orthonormal_basis(self, t, delta_tau):
        frame = adiabatic_frame(t, _resonant_cfg(delta_tau=delta_tau))
        basis = frame.basis()
        gram = basis.conj() @ basis.T
        assert np.max(np.abs(gram - np.eye(3))) <= 1e-12

    def test_eigenvalues_match_hermitian_spectrum(self):
        # independent oracle: dense Hermitian eigensolver
        cfg = _resonant_cfg(delta_tau=60.0)
        for t in np.linspace(-3.0, 4.0, 17):
            frame = adiabatic_frame(float(t), cfg)
            h = 1j * assemble_generator(float(t), cfg)
            assert np.allclose(
                np.sort(frame.eigenvalues), np.linalg.eigvalsh(h), atol=1e-10 * np.linalg.norm(h)
            )

    def test_dark_state_with_relative_pulse_phase(self):
        cfg = _resonant_cfg(delta_tau=60.0)
        cfg = cfg.with_(pulses=PulsePair(15.0, 15.0, T=4 / 3, delta=1.1))
        frame = adiabatic_frame(0.7, cfg)
        h = 1j * assemble_generator(0.7, cfg)
        assert np.linalg.norm(h @ frame.a0) <= 1e-13 * np.linalg.norm(h)
        assert frame.a0[0] == 0.0

    def test_chirped_config_rejected(self):
        cfg = _resonant_cfg(chirp_kind="linear", chi=0.5)
        with pytest.raises(UnsupportedRegimeError):
            adiabatic_frame(0.0, cfg)

    def test_two_photon_detuned_rejected(self):
        cfg = _resonant_cfg().with_(detunings=DetuningSpec(45.0, 44.0))
        with pytest.raises(UnsupportedRegimeError):
            adiabatic_frame(0.0, cfg)


class TestAdiabaticPopulations:
    @pytest.mark.parametrize(
        "kw, pulse_phase",
        [({"alpha": 1.0, "phi": 0.0, "delta_tau": 0.0}, 0.0), ({"delta_tau": 45.0}, 0.0),
         ({"delta_tau": -30.0}, 1.1)],
    )
    def test_matches_dense_eigensolver(self, kw, pulse_phase):
        # independent reference: projections on the eigenvectors of i M(t)
        cfg = _resonant_cfg(**kw)
        cfg = cfg.with_(pulses=PulsePair(15.0, 15.0, T=4 / 3, delta=pulse_phase))
        traj = integrate(cfg)
        pops = adiabatic_populations(traj, cfg)
        x1 = traj.times - cfg.pulses.center1
        x2 = traj.times - cfg.pulses.center2
        # both envelopes above 1e-3 of their peak: three distinct eigenvalues
        driven = np.flatnonzero((np.exp(-x1 * x1) > 1e-3) & (np.exp(-x2 * x2) > 1e-3))
        assert len(driven) > 50
        for k in driven:
            h = 1j * assemble_generator(float(traj.times[k]), cfg)
            _, vectors = np.linalg.eigh(h)  # ascending: lambda_-, 0, lambda_+
            reference = np.abs(vectors.conj().T @ traj.states[k]) ** 2
            assert np.max(np.abs(pops[k] - reference[[1, 2, 0]])) <= 1e-12

    def test_completeness(self):
        cfg = _resonant_cfg(delta_tau=60.0)
        traj = integrate(cfg)
        pops = adiabatic_populations(traj, cfg)
        assert np.max(np.abs(pops.sum(axis=1) - 1.0)) <= 1e-8

    def test_strong_transfer_at_moderate_detuning(self):
        cfg = _resonant_cfg(delta_tau=60.0)
        traj = integrate(cfg)
        pops = adiabatic_populations(traj, cfg)
        assert pops[:, 0].max() - pops[:, 0].min() > 0.2
        assert pops[:, 1].max() - pops[:, 1].min() > 0.2

    def test_adiabatic_following_on_resonance_from_g(self):
        cfg = _resonant_cfg(alpha=1.0, phi=0.0, delta_tau=0.0)
        traj = integrate(cfg)
        pops = adiabatic_populations(traj, cfg)
        assert pops[:, 0].min() > 0.95


class TestNonadiabaticity:
    def test_zero_coupling(self):
        cfg = _resonant_cfg(omega01=0.0, omega02=0.0, delta_tau=45.0)
        assert nonadiabaticity(integrate(cfg), cfg) == 0.0

    def test_moderate_detuning_is_nonadiabatic(self):
        cfg = _resonant_cfg(delta_tau=60.0)
        assert nonadiabaticity(integrate(cfg), cfg) > 0.2

    def test_resonant_transfer_is_adiabatic(self):
        cfg = _resonant_cfg(alpha=1.0, phi=0.0, delta_tau=0.0)
        assert nonadiabaticity(integrate(cfg), cfg) < 0.05


class TestFidelity:
    def test_self_overlap(self):
        r = 1 / math.sqrt(2)
        s = StateVector(0j, r, 1j * r)
        target = np.array([r, 1j * r])
        assert fidelity(s, target, 0.0, _resonant_cfg()) == pytest.approx(1.0)

    def test_orthogonal(self):
        r = 1 / math.sqrt(2)
        s = StateVector(0j, r, r)
        target = np.array([r, -r])
        assert fidelity(s, target, 0.0, _resonant_cfg()) == pytest.approx(0.0, abs=1e-15)

    def test_excited_state_has_no_ground_support(self):
        s = StateVector(1.0 + 0j, 0j, 0j)
        assert fidelity(s, np.array([1.0, 0.0]), 0.0, _resonant_cfg()) == 0.0

    @given(gamma=st.floats(-math.pi, math.pi))
    def test_global_phase_invariance(self, gamma):
        r = 1 / math.sqrt(2)
        s = StateVector(0j, r, 0.5 + 0.5j)
        target = np.array([0.6, 0.8j])
        cfg = _resonant_cfg()
        rotated = target * cmath.exp(1j * gamma)
        assert fidelity(s, rotated, 1.0, cfg) == pytest.approx(
            fidelity(s, target, 1.0, cfg), abs=1e-12
        )

    def test_unnormalized_target_rejected(self):
        s = StateVector(0j, 1.0 + 0j, 0j)
        with pytest.raises(ValueError):
            fidelity(s, np.array([2.0, 0.0]), 0.0, _resonant_cfg())
