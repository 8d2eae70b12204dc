import math
import os
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from qubitrot import _kernel
from qubitrot import (
    SweepSpec,
    apply_parameter,
    base_config,
    figure_preset,
    integrate,
    preset_base,
    run_sweep,
)
from qubitrot.cli import sweep_csv_lines
from qubitrot.sweeps import SWEEP_PARAMETERS, map_points
from qubitrot.types import DetuningSpec

# a chirped base whose pulses carry a width no config key names
_CHIRPED = base_config(chirp_kind="linear", chi=0.3)
_CHIRPED = replace(_CHIRPED, pulses=replace(_CHIRPED.pulses, tau=2.0))
_P = _CHIRPED.pulses

_EXPLICIT = {
    "delta_tau": (75.0, replace(_CHIRPED, detunings=DetuningSpec(75.0, 75.0))),
    "T_over_tau": (2.5, replace(_CHIRPED, pulses=replace(_P, T=2.5))),
    "ratio_omega": (0.5, replace(_CHIRPED, pulses=replace(_P, omega01=0.5 * _P.omega02))),
    "delta_phase": (0.7, replace(_CHIRPED, pulses=replace(_P, delta=0.7))),
    "chi": (
        -1.5,
        replace(
            _CHIRPED,
            pulses=replace(
                _P, chirp1=replace(_P.chirp1, chi=-1.5), chirp2=replace(_P.chirp2, chi=-1.5)
            ),
        ),
    ),
    "chi_ratio": (
        -0.5,
        replace(
            _CHIRPED,
            pulses=replace(
                _P, chirp1=replace(_P.chirp1, chi=1.0), chirp2=replace(_P.chirp2, chi=-0.5)
            ),
        ),
    ),
    "chirp_kind": (
        "tanh",
        replace(
            _CHIRPED,
            pulses=replace(
                _P, chirp1=replace(_P.chirp1, kind="tanh"), chirp2=replace(_P.chirp2, kind="tanh")
            ),
        ),
    ),
}


def _fast_cfg(**kw):
    # light window and amplitudes keep multi-point sweeps cheap
    return base_config(omega01=3.0, omega02=3.0, delta_tau=20.0, **kw).with_(
        t_start=-4.0, t_end=6.0, samples=101
    )


class TestApplyParameter:
    def test_delta_tau_sets_both_detunings(self):
        cfg = apply_parameter(base_config(), "delta_tau", 75.0)
        assert cfg.detunings.delta1 == cfg.detunings.delta2 == 75.0

    def test_ratio_scales_first_pulse(self):
        cfg = apply_parameter(base_config(), "ratio_omega", 0.5)
        assert cfg.pulses.omega01 == pytest.approx(7.5)
        assert cfg.pulses.omega02 == 15.0

    def test_chi_requires_profile(self):
        with pytest.raises(ValueError, match="chirp kind"):
            apply_parameter(base_config(), "chi", 1.0)

    def test_chi_ratio_pins_first_rate(self):
        cfg = apply_parameter(base_config(chirp_kind="linear", chi=0.3), "chi_ratio", -0.5)
        assert cfg.pulses.chirp1.chi == 1.0
        assert cfg.pulses.chirp2.chi == -0.5

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown sweep parameter"):
            apply_parameter(base_config(), "bogus", 1.0)

    @pytest.mark.parametrize("name", SWEEP_PARAMETERS)
    def test_matches_explicit_records(self, name):
        value, expected = _EXPLICIT[name]
        cfg = apply_parameter(_CHIRPED, name, value)
        assert cfg == expected
        assert cfg.pulses.tau == 2.0


class TestSweepSpecValidation:
    def test_empty_grid(self):
        with pytest.raises(ValueError, match="non-empty"):
            SweepSpec("delta_tau", (), base_config())

    def test_non_monotone_grid(self):
        with pytest.raises(ValueError, match="monotone"):
            SweepSpec("delta_tau", (30.0, 50.0, 40.0), base_config())

    def test_chirp_kind_grid(self):
        spec = SweepSpec("chirp_kind", ("none", "linear", "tanh"), base_config(chirp_kind="linear", chi=1.0))
        assert spec.grid == ("none", "linear", "tanh")
        with pytest.raises(ValueError, match="chirp kinds"):
            SweepSpec("chirp_kind", ("linear", "quadratic"), base_config())

    @pytest.mark.parametrize(
        "parameter, grid, base, fragment",
        [
            ("ratio_omega", (1.0, 0.5, -0.5), base_config(), "peak rates must be non-negative"),
            ("chi", (-1.0, 1.0), base_config(), "cannot sweep chi"),
            ("chi_ratio", (-1.0, 1.0), base_config(), "cannot sweep chi_ratio"),
        ],
    )
    def test_grid_ends_build_valid_configs(self, parameter, grid, base, fragment):
        with pytest.raises(ValueError, match=fragment):
            SweepSpec(parameter, grid, base)


class TestRunSweep:
    def test_single_point_matches_direct_integration(self):
        base = _fast_cfg()
        spec = SweepSpec("delta_tau", (25.0,), base)
        result = run_sweep(spec)
        traj = integrate(apply_parameter(base, "delta_tau", 25.0))
        pt = result.points[0]
        assert pt.p_g == traj.populations[-1, 1]
        assert pt.p_f == traj.populations[-1, 2]
        assert pt.cos_phi == traj.cos_phi[-1]

    def test_populations_sum_to_one(self):
        result = run_sweep(SweepSpec("delta_tau", (20.0, 30.0, 40.0), _fast_cfg()))
        total = result.column("p_e") + result.column("p_g") + result.column("p_f")
        assert np.max(np.abs(total - 1.0)) <= 1e-8

    def test_relative_pulse_phase_is_gauge_for_pure_g(self):
        base = _fast_cfg(alpha=1.0, phi=0.0)
        grid = (0.0, math.pi / 4, math.pi, 3 * math.pi / 2)
        result = run_sweep(SweepSpec("delta_phase", grid, base))
        for col in ("p_e", "p_g", "p_f"):
            vals = result.column(col)
            assert np.max(np.abs(vals - vals[0])) <= 1e-9

    def test_repeat_runs_identical_bytes(self):
        spec = SweepSpec("delta_tau", (20.0, 30.0), _fast_cfg())
        lines1 = sweep_csv_lines(run_sweep(spec))
        lines2 = sweep_csv_lines(run_sweep(spec))
        assert lines1 == lines2

    @pytest.mark.parametrize("engine", ["compiled", "python"])
    def test_worker_count_does_not_change_results(self, engine, request, monkeypatch):
        if engine == "compiled":
            request.getfixturevalue("kernel")
        else:
            monkeypatch.setattr(_kernel, "_library", None)
        # two cores, so that the pool runs on a one-core machine too
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        spec = SweepSpec("delta_tau", (20.0, 30.0, 40.0), _fast_cfg())
        serial = sweep_csv_lines(run_sweep(spec, workers=1))
        parallel = sweep_csv_lines(run_sweep(spec, workers=2))
        assert serial == parallel

    def test_pool_error_stops_the_map(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        calls = []

        def fail_on_the_calling_thread(x):
            calls.append(x)
            if threading.current_thread() is threading.main_thread():
                raise ValueError(f"point {x}")
            time.sleep(0.01)

        with pytest.raises(ValueError, match="point"):
            map_points(fail_on_the_calling_thread, range(50), workers=2)
        # the pool thread finishes the point it holds and starts no other
        assert len(calls) <= 3

    def test_pool_never_outnumbers_points_or_cores(self, executor_requests, monkeypatch):
        spec = SweepSpec("delta_tau", (20.0, 30.0, 40.0), _fast_cfg())
        expected = sweep_csv_lines(run_sweep(spec))
        for cores in (64, 2, 1, None):
            monkeypatch.setattr(os, "cpu_count", lambda: cores)
            assert sweep_csv_lines(run_sweep(spec, workers=10_000)) == expected
        # the calling thread is one of the threads at work; one core, or an
        # unknown count, runs on it alone
        assert executor_requests == [2, 1]

    def test_point_failure_recorded_not_fatal(self):
        base = _fast_cfg(chirp_kind="linear", chi=1.0)
        spec = SweepSpec("chi", (0.5, 1e14), base)
        result = run_sweep(spec)
        ok, bad = result.points
        assert ok.error is None and not math.isnan(ok.p_g)
        assert bad.error is not None and math.isnan(bad.p_g)

    def test_nonadiabaticity_only_in_supported_regime(self):
        plain = run_sweep(SweepSpec("delta_tau", (30.0,), _fast_cfg()))
        assert plain.points[0].nonadiabaticity is not None
        chirped = run_sweep(
            SweepSpec("chi", (0.5,), _fast_cfg(chirp_kind="linear", chi=1.0))
        )
        assert chirped.points[0].nonadiabaticity is None


class TestFigurePresets:
    def test_detuning_preset_grid(self):
        spec = figure_preset("fig2")
        assert spec.parameter == "delta_tau"
        assert spec.grid == (45.0, 60.0, 120.0)
        assert spec.base.pulses.T == pytest.approx(4.0 / 3.0)
        assert spec.base.initial.alpha == 0.3

    def test_ratio_preset(self):
        spec = figure_preset("fig6")
        assert spec.parameter == "ratio_omega"
        assert spec.base.detunings.delta1 == 75.0
        assert spec.base.pulses.omega02 == 15.0

    def test_chi_ratio_preset_takes_unit_first_rate(self):
        spec = figure_preset("fig12")
        assert spec.parameter == "chi_ratio"
        assert spec.base.pulses.chirp1.kind == "linear"
        cfg = apply_parameter(spec.base, "chi_ratio", spec.grid[0])
        assert cfg.pulses.chirp1.chi == 1.0

    def test_single_run_presets(self):
        cfg = figure_preset("fig10")
        assert cfg.detunings.delta1 == 60.0
        assert preset_base("fig10") == cfg

    def test_unknown_name_lists_valid_ones(self):
        with pytest.raises(ValueError, match="fig2.*fig9"):
            figure_preset("fig99")

    def test_orthogonal_rotation_plateau(self):
        spec = figure_preset("fig7")
        short = SweepSpec(spec.parameter, (0.3, 0.65, 1.0, 1.5, 2.0), spec.base)
        result = run_sweep(short)
        assert np.all(result.column("p_f") >= 0.99)


class TestChirpedRotationClaims:
    CHI_GRID = (-2.0, -1.0, 1.0, 2.0)

    def test_chirped_orthogonal_rotation_from_g(self):
        for kind in ("linear", "tanh"):
            base = base_config(alpha=1.0, phi=0.0, delta_tau=0.0, chirp_kind=kind, chi=1.0)
            result = run_sweep(SweepSpec("chi", self.CHI_GRID, base))
            assert np.all(result.column("p_f") >= 0.95)

    def test_chirped_null_rotation_for_partial_superposition(self):
        # the dark state carries the |g> amplitude to |f>, so P_f ends at alpha^2
        for kind in ("linear", "tanh"):
            base = base_config(alpha=0.3, delta_tau=0.0, chirp_kind=kind, chi=1.0)
            result = run_sweep(SweepSpec("chi", self.CHI_GRID, base))
            assert np.all(np.abs(result.column("p_f") - base.initial.alpha**2) <= 0.05)

    def test_excited_state_trapping_fades_as_alpha_grows(self):
        # the bright |f> component of a partial qubit is left largely in |e>
        p_e = []
        for alpha in (0.3, 0.7, 1.0):
            base = base_config(alpha=alpha, delta_tau=0.0, chirp_kind="linear", chi=1.0)
            result = run_sweep(SweepSpec("chi", (1.0,), base))
            p_e.append(result.points[0].p_e)
        assert p_e[0] > 0.5
        assert p_e[0] > p_e[1] > p_e[2]
        assert p_e[2] < 0.05
