import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qubitrot import (
    ChirpProfile,
    DetuningSpec,
    InitialQubit,
    InvalidPreparationError,
    PulsePair,
    SimulationConfig,
    StateVector,
    init_from_cw,
    orthogonal_state,
    qubit_from_amplitudes,
)
from qubitrot.types import CONFIG_KEYS, config_to_dict, with_keys


class TestInitFromCw:
    def test_three_four_five(self):
        q = init_from_cw(3.0, 4.0, math.pi / 2)
        assert q.alpha == pytest.approx(0.6, abs=1e-15)
        assert q.beta == pytest.approx(0.8, abs=1e-15)
        assert q.phi == math.pi / 2

    def test_single_field_limit(self):
        q = init_from_cw(1.0, 0.0, 0.0)
        assert (q.alpha, q.beta) == (1.0, 0.0)

    def test_degenerate_input(self):
        with pytest.raises(InvalidPreparationError):
            init_from_cw(0.0, 0.0, 0.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            init_from_cw(-1.0, 1.0, 0.0)

    @given(
        g1=st.floats(0.0, 1e6),
        g2=st.floats(0.0, 1e6),
        phi=st.floats(-10.0, 10.0),
    )
    def test_normalization(self, g1, g2, phi):
        if g1 == 0.0 and g2 == 0.0:
            return
        q = init_from_cw(g1, g2, phi)
        assert abs(q.alpha**2 + q.beta**2 - 1.0) <= 1e-12
        assert 0.0 <= q.alpha <= 1.0 and 0.0 <= q.beta <= 1.0


qubits = st.builds(
    lambda a, phi: InitialQubit(a, math.sqrt(1.0 - a * a), phi),
    st.floats(0.0, 1.0),
    st.floats(-math.pi, math.pi),
)


class TestOrthogonalState:
    def test_pure_g(self):
        k = orthogonal_state(InitialQubit(1.0, 0.0, 0.0))
        assert np.allclose(k, [0.0, -1.0])

    def test_symmetric(self):
        r = 1 / math.sqrt(2)
        k = orthogonal_state(InitialQubit(r, r, 0.0))
        assert np.allclose(k, [r, -r])

    @given(q=qubits)
    def test_orthogonality(self, q):
        k = orthogonal_state(q)
        assert abs(np.vdot(q.amplitudes(), k)) <= 1e-15

    @given(q=qubits)
    def test_involution_up_to_phase(self, q):
        k1 = orthogonal_state(q)
        k2 = orthogonal_state(qubit_from_amplitudes(*k1))
        overlap = abs(np.vdot(q.amplitudes(), k2 / np.linalg.norm(k2)))
        assert overlap == pytest.approx(1.0, abs=1e-9)


class TestInvariantRejection:
    def test_qubit_norm(self):
        with pytest.raises(ValueError, match="alpha\\^2 \\+ beta\\^2"):
            InitialQubit(0.8, 0.8, 0.0)

    def test_qubit_range(self):
        with pytest.raises(ValueError):
            InitialQubit(-0.1, math.sqrt(1 - 0.01), 0.0)

    def test_chirp_kind(self):
        with pytest.raises(ValueError):
            ChirpProfile("quadratic", 1.0)

    def test_chirp_none_canonicalizes_chi(self):
        assert ChirpProfile("none", 3.0).chi == 0.0
        assert ChirpProfile("linear", 3.0).chi == 3.0

    def test_pulse_negative_amplitude(self):
        with pytest.raises(ValueError):
            PulsePair(omega01=-1.0, omega02=1.0)

    def test_pulse_zero_width(self):
        with pytest.raises(ValueError):
            PulsePair(omega01=1.0, omega02=1.0, tau=0.0)

    def test_detuning_finite(self):
        with pytest.raises(ValueError):
            DetuningSpec(math.nan, 0.0)

    def test_state_vector_norm(self):
        with pytest.raises(ValueError):
            StateVector(0.5, 0.5, 0.5)
        StateVector(0j, 1.0 + 0j, 0j)  # unit norm accepted

    def test_config_window(self):
        pulses = PulsePair(1.0, 1.0)
        with pytest.raises(ValueError):
            SimulationConfig(pulses=pulses, t_start=2.0, t_end=1.0)
        with pytest.raises(ValueError):
            SimulationConfig(pulses=pulses, rel_tol=0.0)
        with pytest.raises(ValueError):
            SimulationConfig(pulses=pulses, samples=1)

    @pytest.mark.parametrize("name", ["rel_tol", "abs_tol"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_config_tolerances_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SimulationConfig(pulses=PulsePair(1.0, 1.0), **{name: value})


class TestPulsePairCenters:
    def test_centers_follow_origin(self):
        p = PulsePair(1.0, 1.0, T=2.0, origin=5.0)
        assert p.center1 == 7.0
        assert p.center2 == 5.0

    def test_unchirped_flag(self):
        assert PulsePair(1.0, 1.0).unchirped
        assert PulsePair(1.0, 1.0, chirp1=ChirpProfile("linear", 0.0)).unchirped
        assert not PulsePair(1.0, 1.0, chirp1=ChirpProfile("linear", 0.5)).unchirped


class TestWithKeys:
    BASE = SimulationConfig(pulses=PulsePair(15.0, 15.0, tau=2.0))

    def test_keeps_fields_no_key_names(self):
        cfg = with_keys(self.BASE, {"omega01_tau": 3.0, "chi1": 0.5, "chirp1_kind": "linear"})
        assert cfg.pulses == replace(
            self.BASE.pulses, omega01=3.0, chirp1=ChirpProfile("linear", 0.5)
        )
        assert cfg.pulses.tau == 2.0

    def test_alpha_and_beta_set_together(self):
        cfg = with_keys(self.BASE, {"alpha": 0.6, "beta": 0.8})
        assert cfg.initial == InitialQubit(0.6, 0.8, 0.0)
        with pytest.raises(ValueError, match="alpha\\^2 \\+ beta\\^2"):
            with_keys(self.BASE, {"alpha": 0.6})

    def test_unknown_key(self):
        with pytest.raises(KeyError):
            with_keys(self.BASE, {"tau": 1.0})

    def test_config_to_dict_follows_the_table(self):
        cfg = SimulationConfig(
            pulses=PulsePair(
                2.0, 3.0, T=1.5, delta=0.7, origin=0.25,
                chirp1=ChirpProfile("linear", 0.5), chirp2=ChirpProfile("tanh", -0.5),
            ),
            detunings=DetuningSpec(45.0, 40.0),
            initial=InitialQubit(0.6, 0.8, 0.3),
            t_start=-6.0, t_end=9.0, rel_tol=1e-9, abs_tol=1e-11, samples=77,
        )  # fmt: skip
        flat = config_to_dict(cfg)
        assert list(flat) == list(CONFIG_KEYS)
        assert flat["chi2"] == -0.5 and flat["chirp1_kind"] == "linear"
        assert with_keys(self.BASE, flat) == replace(cfg, pulses=replace(cfg.pulses, tau=2.0))
