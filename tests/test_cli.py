import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from qubitrot.cli import build_config, load_config_file, main
from qubitrot.dynamics import envelope, integrate
from qubitrot.stirap import orthogonal_transfer
from qubitrot.twolevel import integrate_two_level
from qubitrot.types import InitialQubit

FAST_BASE = """
# light configuration for CLI round trips
alpha = 1.0
phi = 0.0
omega01_tau = 4.0
omega02_tau = 4.0
delta_tau = 30.0
t_start_over_tau = -4.0
t_end_over_tau = 6.0
samples = 101
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _read_manifest(out_path):
    return json.loads(out_path.with_suffix(".manifest.json").read_text())


class TestConfigParsing:
    def test_defaults_fill_missing_keys(self):
        cfg = build_config({})
        assert cfg.initial.alpha == 0.3
        assert cfg.pulses.omega01 == 15.0
        assert cfg.detunings.delta1 == 45.0

    def test_sections_and_comments_ignored(self, tmp_path):
        path = _write(tmp_path, "c.cfg", "[pulses]\n# note\nomega01_tau = 2.0\n")
        entries = load_config_file(path)
        assert entries == {"omega01_tau": "2.0"}

    def test_unknown_key_named(self):
        from qubitrot.errors import ConfigError

        with pytest.raises(ConfigError, match="unknown config key 'omega3'"):
            build_config({"omega3": "1.0"})

    def test_delta_tau_conflict(self):
        from qubitrot.errors import ConfigError

        with pytest.raises(ConfigError, match="delta_tau"):
            build_config({"delta_tau": "45", "delta1_tau": "40"})


class TestSimulate:
    def test_preset_runs_and_reports(self, tmp_path, capsys):
        out = tmp_path / "fig2.csv"
        assert main(["simulate", "--preset", "fig2", "--out", str(out)]) == 0
        text = out.read_text()
        header = [l for l in text.splitlines() if not l.startswith("#")][0]
        assert header.startswith("t_over_tau,re_d_e,im_d_e")
        assert "# alpha = 0.29999999999999999" in text or "# alpha = 0.3" in text
        manifest = _read_manifest(out)
        assert manifest["norm_drift_max"] <= 1e-8
        assert manifest["config"]["delta1_tau"] == 45.0

    def test_repeat_runs_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--preset", "fig2", "--out", str(out1)])
        main(["simulate", "--preset", "fig2", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()
        m1, m2 = _read_manifest(out1), _read_manifest(out2)
        m1.pop("wall_time_s"), m2.pop("wall_time_s")
        m1.pop("output"), m2.pop("output")
        assert m1 == m2

    def test_rerun_from_manifest_reproduces_output(self, tmp_path):
        out1 = tmp_path / "run.csv"
        main(["simulate", "--preset", "fig9", "--out", str(out1)])
        out2 = tmp_path / "rerun.csv"
        manifest = str(out1.with_suffix(".manifest.json"))
        assert main(["simulate", "--config", manifest, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_bad_normalization_exits_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, "bad.cfg", "alpha = 0.8\nbeta = 0.8\n")
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "alpha^2 + beta^2" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, "bad.cfg", "omega3 = 1\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert "omega3" in capsys.readouterr().err

    def test_integration_failure_exits_3(self, tmp_path, capsys):
        cfg = _write(tmp_path, "blow.cfg", FAST_BASE + "chirp1_kind = linear\nchi1 = 1e14\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 3

    def test_adiabatic_flag_on_chirped_base_exits_4(self, tmp_path, capsys):
        rc = main(
            ["simulate", "--preset", "fig11", "--adiabatic", "--out", str(tmp_path / "x.csv")]
        )
        assert rc == 4
        assert "unchirped" in capsys.readouterr().err

    def test_adiabatic_columns_present(self, tmp_path):
        out = tmp_path / "adiab.csv"
        assert main(["simulate", "--preset", "fig10", "--adiabatic", "--out", str(out)]) == 0
        header = [l for l in out.read_text().splitlines() if not l.startswith("#")][0]
        assert header.endswith("p_a0,p_a_plus,p_a_minus")

    def test_preset_and_config_conflict(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.cfg", FAST_BASE)
        rc = main(
            ["simulate", "--preset", "fig2", "--config", cfg, "--out", str(tmp_path / "x.csv")]
        )
        assert rc == 2


class TestSweep:
    def test_config_file_sweep(self, tmp_path):
        cfg = _write(
            tmp_path,
            "sweep.cfg",
            FAST_BASE + "sweep_parameter = delta_tau\nsweep_grid = 20, 30, 40\n",
        )
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert rows[0].startswith("parameter,value,p_e,p_g,p_f")
        assert len(rows) == 4
        doc = _read_manifest(out)
        assert doc["spec"]["parameter"] == "delta_tau"
        assert len(doc["results"]) == 3

    def test_preset_sweep_with_resampled_grid(self, tmp_path):
        out = tmp_path / "fig7.csv"
        rc = main(["sweep", "--preset", "fig7", "--grid-points", "5", "--out", str(out)])
        assert rc == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        p_f = np.array([float(r.split(",")[4]) for r in rows])
        assert len(p_f) == 5
        assert np.all(p_f >= 0.99)

    def test_single_run_preset_rejected(self, tmp_path, capsys):
        rc = main(["sweep", "--preset", "fig9", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "not a sweep" in capsys.readouterr().err

    def test_missing_sweep_keys(self, tmp_path, capsys):
        cfg = _write(tmp_path, "s.cfg", FAST_BASE)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert "sweep_parameter" in capsys.readouterr().err


class TestTwoLevel:
    def test_moderate_detuning_deviation_summary(self, tmp_path):
        out = tmp_path / "fig9.csv"
        assert main(["twolevel", "--preset", "fig9", "--out", str(out)]) == 0
        manifest = _read_manifest(out)
        assert manifest["deviation"]["final_max"] <= 0.1
        header = [l for l in out.read_text().splitlines() if not l.startswith("#")][0]
        assert "p_g_two_level" in header

    def test_resonant_preset_exits_4(self, tmp_path, capsys):
        cfg = _write(tmp_path, "res.cfg", FAST_BASE.replace("delta_tau = 30.0", "delta_tau = 0"))
        assert main(["twolevel", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 4


class TestStirap:
    def test_transfer_manifest_reports_fidelity(self, tmp_path):
        out = tmp_path / "transfer.csv"
        rc = main(
            ["stirap", "--alpha", "0.3", "--phi", str(math.pi / 2), "--out", str(out)]
        )
        assert rc == 0
        manifest = _read_manifest(out)
        assert manifest["fidelity_to_orthogonal"] >= 0.99
        assert manifest["max_p_e"] <= 0.02
        env = out.with_suffix(".envelopes.csv").read_text().splitlines()
        assert env[0] == "t_over_tau,re_omega1,im_omega1,re_omega2,im_omega2"

    def test_chopped_run(self, tmp_path):
        out = tmp_path / "chop.csv"
        rc = main(["stirap", "--alpha", "0.3", "--chop", "0.7", "--out", str(out)])
        assert rc == 0
        manifest = _read_manifest(out)
        assert 0.05 < manifest["fidelity_to_orthogonal"] < 0.95

    def test_invalid_qubit_exits_2(self, tmp_path):
        rc = main(["stirap", "--alpha", "0.8", "--beta", "0.8", "--out", str(tmp_path / "x.csv")])
        assert rc == 2


class TestSolve:
    def test_round_trip_problem_file(self, tmp_path):
        base = {
            "alpha": 1.0,
            "phi": 0.0,
            "omega01_tau": 4.0,
            "omega02_tau": 4.0,
            "delta_tau": 30.0,
            "t_start_over_tau": -4.0,
            "t_end_over_tau": 6.0,
            "samples": 101,
        }
        # target: forward simulation at delta_tau = 35
        from qubitrot import apply_parameter, integrate, rotated_to_bare

        cfg = apply_parameter(build_config(dict(base)), "delta_tau", 35.0)
        traj = integrate(cfg)
        c = rotated_to_bare(traj.states[-1], float(traj.times[-1]), cfg)
        pair = np.array([c[1], c[2]])
        pair /= np.linalg.norm(pair)
        problem = {
            "target": {
                "g_re": pair[0].real,
                "g_im": pair[0].imag,
                "f_re": pair[1].real,
                "f_im": pair[1].imag,
            },
            "free_parameters": {"delta_tau": [20.0, 60.0]},
            "base": base,
            "grid_points": 9,
        }
        path = _write(tmp_path, "problem.json", json.dumps(problem))
        out = tmp_path / "solution.json"
        assert main(["solve", "--config", path, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["result"]["fidelity"] >= 0.999
        assert abs(doc["result"]["parameters"]["delta_tau"] - 35.0) < 1.0

    def test_malformed_problem_exits_2(self, tmp_path, capsys):
        path = _write(tmp_path, "bad.json", json.dumps({"target": {"alpha": 1.0}}))
        assert main(["solve", "--config", path, "--out", str(tmp_path / "x.json")]) == 2


def _problem(**overrides) -> str:
    doc = {
        "target": {"alpha": 0.6, "beta": 0.8, "phi": 0.5},
        "free_parameters": {"delta_tau": [30.0, 40.0]},
        "base": {"alpha": 1.0, "phi": 0.0, "samples": 11},
        "grid_points": 2,
    }
    doc.update(overrides)
    return json.dumps(doc)


SIMULATE = ["simulate", "--config", "{input}"]
SOLVE = ["solve", "--config", "{input}"]
SWEEP = ["sweep", "--config", "{input}"]


@pytest.mark.parametrize(
    "argv, text, code, fragment",
    [
        pytest.param(SIMULATE, "rel_tol = 1.0\n", 3, "norm drift", id="rel_tol-1"),
        pytest.param(SIMULATE, "rel_tol = 0.01\n", 3, "norm drift", id="rel_tol-0.01"),
        pytest.param(SIMULATE, '{"rel_tol": true}', 2, "'rel_tol'", id="bool-rel_tol"),
        pytest.param(SIMULATE, '{"samples": false}', 2, "'samples'", id="bool-samples"),
        pytest.param(SOLVE, _problem(grid_points="x"), 2, "'grid_points'", id="grid_points-str"),
        pytest.param(SOLVE, _problem(grid_points=0), 2, "'grid_points'", id="grid_points-0"),
        pytest.param(SOLVE, _problem(eval_rel_tol="x"), 2, "'eval_rel_tol'", id="eval_rel_tol"),
        pytest.param(SOLVE, _problem(leak_weight=True), 2, "'leak_weight'", id="leak_weight"),
        pytest.param(
            SOLVE,
            _problem(free_parameters={"delta_tau": ["a", 40.0]}),
            2,
            "'free_parameters.delta_tau'",
            id="bounds",
        ),
        pytest.param(
            SOLVE,
            _problem(target={"alpha": 0.8, "beta": 0.8, "phi": 0.0}),
            2,
            "'target'",
            id="target-unnormalized",
        ),
        pytest.param(SOLVE, _problem(base=[1, 2]), 2, "'base'", id="base-not-object"),
        pytest.param(
            SWEEP,
            FAST_BASE + "sweep_parameter = delta_tau\nsweep_grid = 20, x\n",
            2,
            "'sweep_grid'",
            id="sweep_grid-str",
        ),
        pytest.param(
            ["sweep", "--preset", "fig2", "--grid-points", "0"], None, 2, "--grid-points",
            id="grid-points-0",
        ),
        pytest.param(
            ["simulate", "--preset", "fig9", "--samples", "1"], None, 2, "--samples",
            id="samples-1",
        ),
    ],
)
def test_exit_code(tmp_path, capsys, argv, text, code, fragment):
    path = _write(tmp_path, "input", text) if text is not None else None
    argv = [path if a == "{input}" else a for a in argv] + ["--out", str(tmp_path / "out")]
    assert main(argv) == code
    assert fragment in capsys.readouterr().err


def test_manifest_reports_solver_stats(tmp_path):
    out = tmp_path / "run.csv"
    assert main(["simulate", "--config", _write(tmp_path, "default.cfg", ""), "--out", str(out)]) == 0
    solver = _read_manifest(out)["solver"]
    cfg = build_config({})
    calls = [0]

    def counting(t):
        calls[0] += 1
        return envelope(t, cfg.pulses)

    integrate(cfg, envelopes=counting)
    assert solver["rhs_evals"] == calls[0]
    assert solver["rhs_evals"] == 2 + 6 * (solver["accepted_steps"] + solver["rejected_steps"])
    assert 0.0 < solver["min_step"] < 1.0

    # twolevel reports the full and the reduced run, each as a direct run does
    fast = _write(tmp_path, "fast.cfg", FAST_BASE)
    out = tmp_path / "twolevel.csv"
    assert main(["twolevel", "--config", fast, "--out", str(out)]) == 0
    manifest = _read_manifest(out)
    cfg = build_config(load_config_file(fast))
    full, reduced = integrate(cfg), integrate_two_level(cfg)
    assert manifest["solver"] == {
        "full": dataclasses.asdict(full.stats),
        "reduced": dataclasses.asdict(reduced.stats),
    }
    assert manifest["norm_drift_max"] == {
        "full": full.max_norm_error,
        "reduced": reduced.max_norm_error,
    }
    # the --config round trip still reads only the config block
    assert build_config(load_config_file(str(out.with_suffix(".manifest.json")))) == cfg

    out = tmp_path / "stirap.csv"
    assert main(["stirap", "--alpha", "0.3", "--out", str(out)]) == 0
    manifest = _read_manifest(out)
    traj = orthogonal_transfer(InitialQubit(0.3, math.sqrt(1 - 0.3**2), math.pi / 2)).trajectory
    assert manifest["solver"] == dataclasses.asdict(traj.stats)
    assert manifest["norm_drift_max"] == traj.max_norm_error <= 1e-8


def test_tolerance_below_100_eps_runs_as_requested(tmp_path):
    cfg = _write(tmp_path, "tight.cfg", FAST_BASE + "rel_tol = 1e-16\n")
    out = tmp_path / "tight.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    manifest = _read_manifest(out)
    assert manifest["config"]["rel_tol"] == 1e-16
    assert manifest["norm_drift_max"] <= 1e-8
