import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qubitrot import (
    InitialQubit,
    chopped_rotation,
    designed_drive,
    fidelity,
    orthogonal_state,
    orthogonal_transfer,
)
from qubitrot import _kernel

qubits = st.builds(
    lambda a, phi: InitialQubit(a, math.sqrt(1.0 - a * a), phi),
    st.floats(0.0, 1.0),
    st.floats(-math.pi, math.pi),
)


def _standard_qubit():
    return InitialQubit(0.3, math.sqrt(1 - 0.09), math.pi / 2)


class TestDesignPulses:
    def test_pure_g_reduces_to_plain_counterintuitive_pair(self):
        env = designed_drive(InitialQubit(1.0, 0.0, 0.0), T=4 / 3, scale=1.0).evaluator()
        for t in (-1.0, 0.0, 0.5, 2.0):
            w1, w2 = env(t)
            assert w1 == pytest.approx(math.exp(-((t - 4 / 3) ** 2)), abs=1e-15)
            assert w2 == pytest.approx(-math.exp(-(t**2)), abs=1e-15)

    @given(q=qubits, t=st.floats(-6.0, 8.0), T=st.floats(0.5, 3.0))
    @settings(max_examples=100)
    def test_effective_couplings_are_pure_gaussians(self, q, t, T):
        w1, w2 = designed_drive(q, T=T, scale=1.0).evaluator()(t)
        bminus = q.beta * cmath.exp(-1j * q.phi)
        bplus = bminus.conjugate()
        f1 = q.alpha * w1.conjugate() + bminus * w2.conjugate()
        f2 = bplus * w1.conjugate() - q.alpha * w2.conjugate()
        assert abs(f1 - math.exp(-((t - T) ** 2))) <= 1e-14
        assert abs(f2 - math.exp(-(t**2))) <= 1e-14

    def test_rejects_nonpositive_separation(self):
        for T in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="separation"):
                designed_drive(_standard_qubit(), T=T, scale=15.0)
        for scale in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="scale"):
                designed_drive(_standard_qubit(), T=1.0, scale=scale)


class TestOrthogonalTransfer:
    def test_superposition_rotates_to_orthogonal(self):
        report = orthogonal_transfer(_standard_qubit(), amplitude_scale=15.0)
        assert report.fidelity_to_target >= 0.99
        assert report.max_p_e <= 0.02

    def test_plain_transfer_limit(self):
        report = orthogonal_transfer(InitialQubit(1.0, 0.0, 0.0), amplitude_scale=15.0)
        assert report.trajectory.p_f[-1] >= 0.99

    def test_weak_pulses_break_adiabaticity(self):
        report = orthogonal_transfer(_standard_qubit(), amplitude_scale=0.1)
        assert report.fidelity_to_target < 0.9

    def test_reported_fidelity_ignores_target_global_phase(self):
        report = orthogonal_transfer(_standard_qubit())
        traj = report.trajectory
        cfg = traj.config
        t_end = float(traj.times[-1])
        for gamma in (0.4, -2.0):
            rotated = report.target * cmath.exp(1j * gamma)
            assert fidelity(traj.final_state(), rotated, t_end, cfg) == pytest.approx(
                report.fidelity_to_target, abs=1e-12
            )


class TestChoppedRotation:
    def test_chop_before_pulses_leaves_initial_state(self):
        q = _standard_qubit()
        traj = chopped_rotation(q, stop_time=-8.0)
        cfg = traj.config
        fid = fidelity(traj.final_state(), q.amplitudes(), float(traj.times[-1]), cfg)
        assert fid == pytest.approx(1.0, abs=1e-10)

    def test_chop_after_pulses_matches_full_transfer(self):
        q = _standard_qubit()
        traj = chopped_rotation(q, stop_time=15.0)
        full = orthogonal_transfer(q).trajectory
        assert np.max(np.abs(traj.states[-1] - full.states[-1])) <= 1e-9

    def test_mid_chop_leaves_partial_rotation(self):
        q = _standard_qubit()
        traj = chopped_rotation(q, stop_time=0.7)
        cfg = traj.config
        fid = fidelity(traj.final_state(), orthogonal_state(q), float(traj.times[-1]), cfg)
        assert 0.05 < fid < 0.95

    def test_composition_monotone_across_transfer(self):
        q = _standard_qubit()
        target = orthogonal_state(q)
        stops = np.linspace(-1.0, 2.5, 8)
        fids = []
        for stop in stops:
            traj = chopped_rotation(q, stop_time=float(stop))
            fids.append(
                fidelity(traj.final_state(), target, float(traj.times[-1]), traj.config)
            )
        assert fids == sorted(fids)
        assert fids[0] < 0.05 and fids[-1] > 0.9


class TestEngines:
    """The designed drive on the compiled kernel against the Python stepper."""

    @staticmethod
    def _assert_matches_python_stepper(monkeypatch, run):
        traj = run()
        monkeypatch.setattr(_kernel, "_library", None)
        ref = run()
        assert (traj.engine, ref.engine) == ("compiled", "python")
        assert traj.states.tobytes() == ref.states.tobytes()
        assert traj.stats == ref.stats

    @pytest.mark.parametrize(
        "q", [_standard_qubit(), InitialQubit(1.0, 0.0)], ids=["superposition", "pure-g"]
    )
    def test_orthogonal_transfer(self, kernel, monkeypatch, q):
        self._assert_matches_python_stepper(
            monkeypatch, lambda: orthogonal_transfer(q).trajectory
        )

    @pytest.mark.parametrize("stop_time", [0.0, 0.5, 2.0])
    def test_chopped_rotation(self, kernel, monkeypatch, stop_time):
        q = _standard_qubit()
        self._assert_matches_python_stepper(
            monkeypatch, lambda: chopped_rotation(q, stop_time=stop_time)
        )
