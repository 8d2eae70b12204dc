import cmath
import logging
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad, solve_ivp

from qubitrot import (
    PRESET_NAMES,
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
    designed_drive,
    envelope,
    integrate,
    preset_base,
)
import qubitrot
from qubitrot import _kernel, cli
from qubitrot.dynamics import _DENSE, _ERROR, _NODES, _SOLUTION, _STAGES, Drive, _problem, _rhs
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


def _gaussian_pair(omega01, omega02, delta, T):
    return Drive.from_pulses(PulsePair(omega01, omega02, T=T, delta=delta))


def _designed_pair(alpha, phi, T, scale, stop_time):
    q = InitialQubit(alpha, math.sqrt(1.0 - alpha * alpha), phi)
    return designed_drive(q, T, scale, stop_time)


drives = st.one_of(
    st.builds(
        _gaussian_pair,
        st.floats(0.0, 20.0),
        st.floats(0.0, 20.0),
        st.floats(-math.pi, math.pi),
        st.floats(0.0, 4.0),
    ),
    st.builds(
        _designed_pair,
        st.floats(0.0, 1.0),
        st.floats(-math.pi, math.pi),
        st.floats(0.1, 4.0),
        st.floats(0.1, 20.0),
        st.one_of(st.just(math.inf), st.floats(-8.0, 15.0)),
    ),
)


class TestDrive:
    @given(drive=drives, times=st.lists(st.floats(-10.0, 16.0), min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_sample_matches_evaluator(self, drive, times):
        env = drive.evaluator()
        sampled = drive.sample(times)
        assert sampled.shape == (len(times), 2)
        peak = max(sum(abs(w) for w in row) for row in drive.weights)
        for t, row in zip(times, sampled):
            scalar = env(t)
            if t > drive.cutoff:
                assert scalar == (0j, 0j)
                assert np.all(row == 0)
            for a, b in zip(scalar, row):
                assert abs(a - b) <= 1e-15 * peak


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


def _weights(row):
    """The signed coefficient of each of the seven stages in one stepper row."""
    w = [0.0] * 7
    for stage, c, negate in row:
        w[stage] += -c if negate else c
    return w


def _tableau_cases():
    # each consistency condition of the pair as (value, target, tolerance)
    for i, (node, row) in enumerate(zip(_NODES, _STAGES)):
        yield pytest.param(sum(_weights(row)), node, 4 * math.ulp(node), id=f"c{i + 2}")
    yield pytest.param(sum(_weights(_SOLUTION)), 1.0, 2 * math.ulp(1.0), id="b")
    yield pytest.param(sum(_weights(_ERROR)), 0.0, 1e-16, id="error")
    # the quartic dense output at x = 1 is the 5th-order solution, stage by stage
    dense = [_weights(row) for row in _DENSE]
    for stage, b in enumerate(_weights(_SOLUTION)):
        at_one = float(stage == 0) + sum(w[stage] for w in dense)
        yield pytest.param(at_one, b, 2e-15, id=f"dense{stage + 1}")


@pytest.mark.parametrize("value, target, tol", _tableau_cases())
def test_dormand_prince_tableau(value, target, tol):
    assert abs(value - target) <= tol


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
        drive = Drive.from_pulses(cfg.pulses)
        rhs = _rhs(_problem(cfg, drive), drive.evaluator())
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

    @pytest.mark.parametrize("delta", [0.0, 0.7, -2.1])
    def test_envelope_hook_is_bit_identical(self, delta):
        # envelope() is the default path's evaluator, at any relative pulse phase
        cfg = _cfg(delta_tau=45.0, omega01=3.0, omega02=3.0).with_(t_start=-4.0, t_end=6.0)
        cfg = cfg.with_(pulses=PulsePair(3.0, 3.0, T=T_DEFAULT, delta=delta))
        hooked = integrate(cfg, envelopes=lambda t: envelope(t, cfg.pulses))
        plain = integrate(cfg)
        assert np.array_equal(hooked.states, plain.states)
        assert hooked.stats == plain.stats

    def test_tolerance_below_100_eps_is_used(self):
        # no hidden floor (scipy raised rel_tol to 100 eps): 1e-16 takes more
        # steps than 100 eps once abs_tol does not dominate
        cfg = _cfg(delta_tau=45.0, omega01=3.0, omega02=3.0)
        cfg = cfg.with_(t_start=-1.0, t_end=0.5, abs_tol=1e-20)
        fine = integrate(cfg.with_(rel_tol=1e-16))
        floor = integrate(cfg.with_(rel_tol=100 * np.finfo(float).eps))
        assert fine.stats.rhs_evals > floor.stats.rhs_evals
        assert fine.max_norm_error <= 1e-8


def _assert_same_run(compiled, python):
    """The kernel's run against the Python stepper's: same bits, same steps."""
    assert (compiled.engine, python.engine) == ("compiled", "python")
    assert compiled.states.tobytes() == python.states.tobytes()
    assert compiled.stats == python.stats


def _on_python_stepper(cfg: SimulationConfig, drive: Drive, **kw):
    # a bare callable always runs on dynamics._dopri45
    return integrate(cfg, envelopes=drive.evaluator(), **kw)


class TestEngines:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets(self, kernel, monkeypatch, name):
        cfg = preset_base(name)
        compiled = integrate(cfg)
        monkeypatch.setattr(_kernel, "_library", None)
        _assert_same_run(compiled, integrate(cfg))

    @pytest.mark.parametrize("delta", [0.7, -2.1])
    def test_relative_pulse_phase(self, kernel, delta):
        cfg = _cfg(delta_tau=45.0)
        cfg = cfg.with_(pulses=PulsePair(15.0, 15.0, T=T_DEFAULT, delta=delta))
        _assert_same_run(integrate(cfg), _on_python_stepper(cfg, Drive.from_pulses(cfg.pulses)))

    @given(
        drive=drives,
        delta_tau=st.floats(-60.0, 60.0),
        kind=st.sampled_from(["none", "linear", "tanh"]),
        chi=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=10, deadline=None)
    def test_drawn_drives(self, kernel, drive, delta_tau, kind, chi):
        cfg = _cfg(delta_tau=delta_tau, chirp_kind=kind, chi=chi)
        cfg = cfg.with_(t_start=-4.0, t_end=6.0, samples=51)
        cut = (drive.cutoff,)
        _assert_same_run(
            integrate(cfg, envelopes=drive, breakpoints=cut),
            _on_python_stepper(cfg, drive, breakpoints=cut),
        )

    @pytest.mark.parametrize(
        "cfg",
        [
            pytest.param(_cfg(chirp_kind="linear", chi=1e14), id="step-underflow"),
            pytest.param(_cfg(delta_tau=45.0).with_(rel_tol=0.01), id="norm-drift"),
        ],
    )
    def test_failures_match(self, kernel, cfg):
        errors = []
        for envelopes in (None, Drive.from_pulses(cfg.pulses).evaluator()):
            with pytest.raises(IntegrationError) as excinfo:
                integrate(cfg, envelopes=envelopes)
            errors.append((str(excinfo.value), excinfo.value.time))
        assert errors[0] == errors[1]

    def test_nan_step_raises_on_both_engines(self, kernel):
        # a rate of 1e308 makes the first derivative, and so the first step,
        # NaN; run in a subprocess so that an engine that loops fails on the
        # timeout instead of hanging the suite
        probe = (
            "from qubitrot import _kernel, base_config, integrate\n"
            "from qubitrot.errors import IntegrationError\n"
            "cfg = base_config(chirp_kind='linear', chi=1e308)\n"
            "for library in (_kernel.library(), None):\n"
            "    _kernel._library = library\n"
            "    try:\n"
            "        integrate(cfg)\n"
            "    except IntegrationError as exc:\n"
            "        print(exc)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(qubitrot.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["step size fell below 10 ulp of t (at t = -8)"] * 2

    def test_drift_exit_code_and_message_match(self, kernel, tmp_path, capsys, monkeypatch):
        path = tmp_path / "loose.cfg"
        path.write_text("rel_tol = 0.01\n")
        argv = ["simulate", "--config", str(path), "--out", str(tmp_path / "out.csv")]
        assert cli.main(argv) == 3
        compiled = capsys.readouterr().err
        monkeypatch.setattr(_kernel, "_library", None)
        assert cli.main(argv) == 3
        assert capsys.readouterr().err == compiled
        assert "norm drift 0.0103 exceeds 0.01" in compiled

    def test_fallback_when_the_kernel_cannot_build(self, monkeypatch, caplog):
        cfg = _cfg(delta_tau=45.0)
        expected = integrate(cfg)
        calls = []

        def no_compiler(cache_dir=_kernel.CACHE_DIR):
            calls.append(cache_dir)
            raise FileNotFoundError("no C compiler (cc or gcc) on PATH")

        monkeypatch.setattr(_kernel, "_library", _kernel._UNSET)
        monkeypatch.setattr(_kernel, "compile_library", no_compiler)
        with caplog.at_level(logging.DEBUG, logger="qubitrot"):
            first, second = integrate(cfg), integrate(cfg)
        assert first.engine == second.engine == "python"
        assert first.states.tobytes() == expected.states.tobytes()
        assert first.stats == expected.stats
        # the failure is remembered and logged once, not retried per call
        assert len(calls) == 1
        assert [r.levelno for r in caplog.records if "kernel" in r.getMessage()] == [logging.WARNING]

    def test_threads_build_the_kernel_once(self, kernel, monkeypatch):
        built = _kernel.compile_library()
        calls = []

        def slow_compile(cache_dir=_kernel.CACHE_DIR):
            calls.append(cache_dir)
            time.sleep(0.05)  # hold the window in which the other threads ask
            return built

        monkeypatch.setattr(_kernel, "_library", _kernel._UNSET)
        monkeypatch.setattr(_kernel, "compile_library", slow_compile)
        start = threading.Barrier(8)

        def ask(_):
            start.wait()
            return _kernel.library()

        with ThreadPoolExecutor(max_workers=8) as pool:
            libraries = list(pool.map(ask, range(8)))
        assert len(calls) == 1
        assert libraries[0] is not None
        assert all(lib is libraries[0] for lib in libraries)

    def test_build_once_then_reuse(self, kernel, tmp_path, monkeypatch):
        compiles = []
        run = subprocess.run

        def counting_run(*args, **kwargs):
            compiles.append(args)
            return run(*args, **kwargs)

        monkeypatch.setattr(subprocess, "run", counting_run)
        first = _kernel.compile_library(tmp_path)
        stamp = first.stat().st_mtime_ns
        second = _kernel.compile_library(tmp_path)
        assert first == second and second.stat().st_mtime_ns == stamp
        assert len(compiles) == 1
        # the temporary file was moved into place, and the library loads
        assert [p.name for p in tmp_path.iterdir()] == [first.name]
        assert _kernel.load(second).qr_dopri45 is not None

    def test_kernel_compiles_without_warnings(self, tmp_path):
        cc = shutil.which("cc") or shutil.which("gcc")
        if cc is None:
            pytest.skip("no C compiler (cc or gcc) on PATH")
        flags = [*_kernel.CFLAGS, "-Wall", "-Wextra", "-Werror"]
        done = subprocess.run(
            [cc, *flags, "-o", str(tmp_path / "k.so"), str(_kernel.SOURCE), "-lm"],
            capture_output=True, text=True, timeout=120,
        )  # fmt: skip
        assert done.returncode == 0, done.stderr

    def test_failed_build_quotes_the_compiler(self, tmp_path, monkeypatch, caplog):
        if shutil.which("cc") is None and shutil.which("gcc") is None:
            pytest.skip("no C compiler (cc or gcc) on PATH")
        broken = tmp_path / "_kernel.c"
        broken.write_text(_kernel.SOURCE.read_text() + "\nthis is not C\n")
        build = _kernel.compile_library
        monkeypatch.setattr(_kernel, "SOURCE", broken)
        monkeypatch.setattr(_kernel, "compile_library", lambda: build(tmp_path))
        monkeypatch.setattr(_kernel, "_library", _kernel._UNSET)
        with caplog.at_level(logging.WARNING, logger="qubitrot"):
            assert _kernel.library() is None
        (record,) = [r for r in caplog.records if "kernel" in r.getMessage()]
        lines = record.getMessage().splitlines()
        assert "returned non-zero exit status" in lines[0]
        assert any("_kernel.c" in line and "error:" in line for line in lines[1:])
        # no library and no temporary file is left behind
        assert [p.name for p in tmp_path.iterdir()] == ["_kernel.c"]
