import dataclasses
import json
import math
import os
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import qubitrot
from qubitrot import _kernel, cli, control, sweeps
from qubitrot.analysis import adiabatic_populations
from qubitrot.cli import _table_lines, build_config, config_to_dict, load_config_file, main
from qubitrot.dynamics import envelope, integrate
from qubitrot.stirap import DEFAULT_SCALE, designed_drive, orthogonal_transfer
from qubitrot.twolevel import compare_with_full, integrate_two_level
from qubitrot.errors import ConfigError
from qubitrot.types import CONFIG_KEYS, InitialQubit, PulsePair

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
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    return str(path)


def _read_manifest(out_path):
    return json.loads(out_path.with_suffix(".manifest.json").read_text())


def _read_table(path):
    """Header fields and the float64 cells of a numeric CSV."""
    lines = [l for l in Path(path).read_text().splitlines() if not l.startswith("#")]
    return lines[0].split(","), np.array([[float(v) for v in l.split(",")] for l in lines[1:]])


class TestConfigParsing:
    def test_defaults_fill_missing_keys(self):
        cfg = build_config({})
        assert cfg.initial.alpha == 0.3
        assert cfg.pulses.omega01 == 15.0
        assert cfg.detunings.delta1 == 45.0
        assert cfg == sweeps.base_config()
        for name in sweeps.PRESET_NAMES:
            base = sweeps.preset_base(name)
            assert build_config(config_to_dict(base)) == base, name
        # derived keys: beta follows alpha, delta2 follows delta1, not the reverse
        assert build_config({"alpha": "0.6"}).initial.beta == math.sqrt(1.0 - 0.6 * 0.6)
        assert build_config({"delta1_tau": "30"}).detunings == build_config({"delta_tau": 30}).detunings
        only_d2 = build_config({"delta2_tau": 50.0}).detunings
        assert (only_d2.delta1, only_d2.delta2) == (45.0, 50.0)

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

    def test_failed_points_are_null_in_a_strict_json_manifest(self, tmp_path):
        # both points exceed the norm-drift limit, so their observables are NaN
        cfg = _write(
            tmp_path, "loose.cfg", "rel_tol = 0.01\nsweep_parameter = delta_tau\nsweep_grid = 30, 60\n"
        )
        out = tmp_path / "loose.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0

        def reject(token):
            raise ValueError(f"{token} is not JSON (RFC 8259)")

        text = out.with_suffix(".manifest.json").read_text()
        results = json.loads(text, parse_constant=reject)["results"]
        assert [pt["error"] is not None for pt in results] == [True, True]
        for pt in results:
            for key in ("p_e", "p_g", "p_f", "cos_phi", "phi_signed", "nonadiabaticity"):
                assert pt[key] is None

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
        # the header names the command that wrote the file, not simulate
        assert out.read_text().splitlines()[0] == "# command = stirap"

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
        *(
            pytest.param(
                SOLVE, _problem(eval_rel_tol=v), 2, "'eval_rel_tol'", id=f"eval_rel_tol-{v}"
            )
            for v in ("nan", -1.0, 0.0)
        ),
        pytest.param(SOLVE, _problem(leak_weight="nan"), 2, "leak_weight", id="leak_weight-nan"),
        pytest.param(
            SOLVE,
            _problem(free_parameters={"ratio_omega": [-1.0, 1.0]}),
            2,
            "bound -1.0 for 'ratio_omega'",
            id="bounds-ratio_omega",
        ),
        pytest.param(
            SOLVE,
            _problem(free_parameters={"chi": [0.0, 1.0]}),
            2,
            "cannot sweep chi",
            id="bounds-chi-unchirped",
        ),
        pytest.param(
            SWEEP,
            FAST_BASE + "sweep_parameter = ratio_omega\nsweep_grid = 1.0, -0.5\n",
            2,
            "sweep grid value ratio_omega = -0.5",
            id="sweep-ratio_omega-negative",
        ),
        pytest.param(
            SWEEP,
            FAST_BASE + "sweep_parameter = chi\nsweep_grid = -1, 1\n",
            2,
            "cannot sweep chi",
            id="sweep-chi-unchirped",
        ),
        pytest.param(
            SIMULATE, b"alpha = 0.6\xff\n", 2, "cannot read config file", id="config-not-utf8"
        ),
        pytest.param(
            SOLVE, b'{"grid_points": "\xff"}', 2, "cannot read problem file", id="problem-not-utf8"
        ),
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
            SOLVE,
            _problem(target={"g_re": "nan", "g_im": 0.0, "f_re": 1.0, "f_im": 0.0}),
            2,
            "target must be normalized",
            id="target-nan",
        ),
        pytest.param(
            SWEEP,
            FAST_BASE + "sweep_parameter = delta_tau\nsweep_grid = 20, x\n",
            2,
            "'sweep_grid'",
            id="sweep_grid-str",
        ),
        *(
            pytest.param(
                SWEEP,
                FAST_BASE + "sweep_parameter = delta_tau\nsweep_start = 30\nsweep_stop = 60\n"
                f"sweep_points = {points}\n",
                2,
                "'sweep_points'",
                id=f"sweep_points-{points}",
            )
            for points in (-1, 0)
        ),
        pytest.param(
            ["sweep", "--preset", "fig2", "--grid-points", "0"], None, 2, "--grid-points",
            id="grid-points-0",
        ),
        pytest.param(
            ["simulate", "--preset", "fig9", "--samples", "1"], None, 2, "--samples",
            id="samples-1",
        ),
        # counts numpy cannot index; never a count that could be allocated
        pytest.param(
            SIMULATE, f"samples = {10**23}\n", 2, "samples must be at most", id="samples-key-1e23"
        ),
        pytest.param(
            ["simulate", "--preset", "fig9", "--samples", str(10**23)], None, 2, "--samples",
            id="samples-1e23",
        ),
        pytest.param(
            SWEEP,
            FAST_BASE + "sweep_parameter = delta_tau\nsweep_start = 30\nsweep_stop = 60\n"
            f"sweep_points = {10**23}\n",
            2,
            "'sweep_points'",
            id="sweep_points-1e23",
        ),
        pytest.param(
            ["sweep", "--preset", "fig7", "--grid-points", str(10**23)], None, 2, "--grid-points",
            id="grid-points-1e23",
        ),
        pytest.param(
            SOLVE, _problem(grid_points=10**23), 2, "'grid_points'", id="solve-grid_points-1e23"
        ),
        # counts numpy can index but not allocate: 8 PB exceeds the address
        # space, so the allocation fails at once
        pytest.param(
            ["simulate", "--preset", "fig9", "--samples", str(10**15)], None, 2,
            "Unable to allocate", id="samples-1e15",
        ),
        pytest.param(
            SIMULATE, f"samples = {10**15}\n", 2, "Unable to allocate", id="samples-key-1e15"
        ),
        pytest.param(
            SWEEP,
            FAST_BASE + "sweep_parameter = delta_tau\nsweep_start = 30\nsweep_stop = 60\n"
            f"sweep_points = {10**15}\n",
            2,
            "Unable to allocate",
            id="sweep_points-1e15",
        ),
        pytest.param(
            ["sweep", "--preset", "fig7", "--grid-points", str(10**15)], None, 2,
            "Unable to allocate", id="grid-points-1e15",
        ),
        pytest.param(
            SOLVE, _problem(grid_points=10**15), 2, "Unable to allocate",
            id="solve-grid_points-1e15",
        ),
        # a JSON document that repeats a key, at any depth
        pytest.param(
            SIMULATE, '{"alpha": 1.0, "alpha": 0.5}', 2, ": duplicate key 'alpha'",
            id="json-config-duplicate",
        ),
        pytest.param(
            SIMULATE, '{"command": "simulate", "config": {"samples": 11, "samples": 21}}', 2,
            ": duplicate key 'samples'", id="manifest-duplicate",
        ),
        pytest.param(
            SOLVE, _problem()[:-1] + ', "free_parameters": {"delta_tau": [30.0, 35.0]}}', 2,
            ": duplicate key 'free_parameters'", id="problem-duplicate",
        ),
        pytest.param(
            [*SWEEP, "--grid-points", "0"],
            FAST_BASE + "sweep_parameter = delta_tau\nsweep_grid = 30, 60\n",
            2,
            "--grid-points resamples only a preset grid",
            id="grid-points-with-config",
        ),
        *(
            pytest.param(
                [command, "--preset", "nosuch"], None, 2, "--preset: unknown preset 'nosuch'; "
                "valid names: fig10, fig11", id=f"{command}-preset",
            )
            for command in ("simulate", "sweep", "twolevel")
        ),
        *(
            pytest.param(
                [*env, *argv, "--workers", workers], text, 2, fragment,
                id=f"{argv[0]}-{(env or [f'--workers={workers}'])[0]}",
            )
            for argv, text in [(["sweep", "--preset", "fig2"], None), (SOLVE, _problem())]
            for env, workers, fragment in [
                ([], "0", "--workers"),
                ([], "-1", "--workers"),
                (["QUBITROT_WORKERS=0"], "2", "QUBITROT_WORKERS"),
                (["QUBITROT_WORKERS=-3"], "1", "QUBITROT_WORKERS"),
            ]
        ),
        *(
            pytest.param(
                SOLVE, _problem(**{key: 2}), 2, f"unknown problem key '{key}'", id=f"key-{key}"
            )
            for key in ("workers", "grid_point")
        ),
        pytest.param(
            SOLVE,
            _problem(target={"alpha": 0.6, "beta": 0.8, "phi": 0.5, "gamma": 0.0}),
            2,
            "got keys {alpha, beta, gamma, phi}",
            id="target-extra-key",
        ),
        pytest.param(
            SOLVE,
            _problem(target={"alpha": 0.6, "beta": 0.8, "phi": 0.5, "g_re": 0.6}),
            2,
            "got keys {alpha, beta, g_re, phi}",
            id="target-mixed-forms",
        ),
        pytest.param(
            SOLVE,
            _problem(target={"g_re": 0.6, "g_im": 0.0, "f_re": 0.8, "f_im": 0.0, "phi": 0.0}),
            2,
            "got keys {f_im, f_re, g_im, g_re, phi}",
            id="target-gf-extra-key",
        ),
        # JSON numbers that no float holds, or that Python will not convert
        pytest.param(
            SIMULATE, '{"alpha": 1' + "0" * 400 + "}", 2, "'alpha'", id="json-int-overflows-float"
        ),
        pytest.param(
            SOLVE, _problem(free_parameters={"delta_tau": [30.0, 10**400]}), 2,
            "'free_parameters.delta_tau'", id="bound-overflows-float",
        ),
        pytest.param(
            SIMULATE, '{"samples": 1' + "0" * 5000 + "}", 2, "input: invalid JSON",
            id="json-int-5001-digits",
        ),
        pytest.param(
            SOLVE, _problem()[:-1] + ', "leak_weight": 1' + "0" * 5000 + "}", 2,
            "input: invalid JSON", id="problem-int-5001-digits",
        ),
        pytest.param(
            SIMULATE, '{"alpha": ' + "[" * 100000 + "]" * 100000 + "}", 2, "input: invalid JSON",
            id="json-nested-too-deep",
        ),
        *(
            pytest.param(
                ["stirap", f"--{flag}={value}"], None, 2, f"--{flag}", id=f"{flag}-{value}"
            )
            for flag, value in [
                ("separation", "0"),
                ("separation", "-1"),
                ("separation", "nan"),
                ("scale", "0"),
                ("scale", "-1"),
                ("scale", "inf"),
                ("chop", "nan"),
            ]
        ),
    ],
)
def test_exit_code(tmp_path, capsys, monkeypatch, argv, text, code, fragment):
    # leading NAME=value entries set environment variables, as env(1) does
    while "=" in argv[0]:
        monkeypatch.setenv(*argv[0].split("=", 1))
        argv = argv[1:]
    path = _write(tmp_path, "input", text) if text is not None else None
    argv = [path if a == "{input}" else a for a in argv] + ["--out", str(tmp_path / "out")]
    assert main(argv) == code
    assert fragment in capsys.readouterr().err


_SWEEP_FILE_KEYS = ["sweep_parameter", "sweep_grid", "sweep_start", "sweep_stop", "sweep_points"]
_INPUT_KEYS = st.sampled_from([*CONFIG_KEYS, "delta_tau", *_SWEEP_FILE_KEYS, "config"]) | st.text(
    max_size=8
)
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**400), 10**400)
    | st.floats()
    | st.text(max_size=8)
)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_INPUT_KEYS, inner, max_size=3),
    max_leaves=6,
)
# values that often pass, so that inputs reach the later checks too
_PLAUSIBLE = {
    "chirp1_kind": st.sampled_from(["none", "linear", "tanh"]),
    "chirp2_kind": st.sampled_from(["none", "linear", "tanh"]),
    "sweep_parameter": st.sampled_from(sweeps.SWEEP_PARAMETERS),
    "sweep_grid": st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=4).map(
        lambda grid: ", ".join(map(str, grid))
    )
    | st.sampled_from(["none, linear", "tanh"]),
    "samples": st.integers(1, 30),
    "sweep_points": st.integers(1, 30),
}


def _value_of(key):
    """A plausible value of ``key``, or any other."""
    return _PLAUSIBLE.get(key, st.floats(-2.0, 2.0) | st.floats(1e-12, 1.0)) | _VALUES


def _entries(keys, max_size=6):
    return st.lists(keys, max_size=max_size, unique=True).flatmap(
        lambda names: st.fixed_dictionaries({k: _value_of(k) for k in names})
    )


def _bounded_grid(entries: dict) -> dict:
    """``entries`` with a ``sweep_points`` count that passes validation held
    below 10**4: the loader allocates the grid, and counts too large to
    allocate are rows of test_exit_code."""
    points = entries.get("sweep_points")
    if isinstance(points, (int, str)) and not isinstance(points, bool):
        try:
            if 10**4 < int(points) <= sys.maxsize:
                return {**entries, "sweep_points": 10**4}
        except ValueError:
            pass
    return entries


def _key_value_text(entries: dict, junk: list) -> str:
    return "\n".join([*(f"{k} = {v}" for k, v in _bounded_grid(entries).items()), *junk])


_PROBLEM_DOCS = st.builds(
    lambda doc, extra: {**extra, **doc},
    st.fixed_dictionaries(
        {
            "target": st.floats(0.0, 1.0).map(
                lambda a: {"alpha": a, "beta": math.sqrt(1.0 - a * a), "phi": 0.5}
            )
            | st.floats(0.0, 1.0).map(
                lambda a: {"g_re": a, "g_im": 0.0, "f_re": 0.0, "f_im": math.sqrt(1.0 - a * a)}
            )
            | st.dictionaries(
                st.sampled_from(["alpha", "beta", "phi", "g_re", "g_im", "f_re", "f_im"]),
                st.floats(-1.0, 1.0) | _LEAVES,
                max_size=4,
            )
            | _VALUES,
            "free_parameters": st.dictionaries(
                st.sampled_from(control.CONTROL_PARAMETERS) | st.text(max_size=6),
                st.lists(st.floats(0.0, 50.0), min_size=2, max_size=2).map(sorted)
                | st.lists(_LEAVES, min_size=2, max_size=2)
                | _VALUES,
                min_size=1,
                max_size=2,
            )
            | _VALUES,
        },
        optional={
            "base": _entries(st.sampled_from([*CONFIG_KEYS, "delta_tau"]) | _INPUT_KEYS, 3)
            | _VALUES,
            "leak_weight": st.floats(0.0, 2.0) | _VALUES,
            "grid_points": st.integers(1, 5) | _VALUES,
            "eval_rel_tol": st.floats(1e-10, 1e-6) | _VALUES,
        },
    ),
    st.just({}) | st.dictionaries(st.text(max_size=6), _VALUES, max_size=1),
)

_SWEEP_ENTRIES = st.builds(
    lambda sweep, extra: {**extra, **sweep},
    st.fixed_dictionaries(
        {"sweep_parameter": _value_of("sweep_parameter")},
        optional={k: _value_of(k) for k in _SWEEP_FILE_KEYS[1:]},
    ),
    _entries(_INPUT_KEYS, max_size=2),
)
_INPUTS = st.one_of(
    *(
        st.builds(_key_value_text, entries, st.lists(st.text(max_size=12), max_size=2))
        | entries.map(lambda doc: json.dumps(_bounded_grid(doc)))
        for entries in (_entries(_INPUT_KEYS), _SWEEP_ENTRIES)
    ),
    _PROBLEM_DOCS.map(json.dumps),
)


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(text=_INPUTS)
@example(text='{"alpha": 1' + "0" * 400 + "}")
@example(text=_problem(free_parameters={"delta_tau": [30.0, 10**400]}))
@example(text='{"samples": 1' + "0" * 5000 + "}")
@example(text='{"alpha": ' + "[" * 100000 + "]" * 100000 + "}")
@example(text="sweep_parameter = chi\nsweep_start = -1e308\nsweep_stop = 1e308\nsweep_points = 3")
def test_every_input_loads_or_raises_config_error(tmp_path, text):
    # one file, read as a config, a sweep file and a problem document; none
    # of them integrates
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    args = cli.build_parser().parse_args(["sweep", "--config", str(path), "--out", "unused"])
    loaders = [
        lambda: build_config(load_config_file(str(path))),
        lambda: cli._load_sweep_spec(args),
        lambda: cli._load_problem(str(path)),
    ]
    # numpy warns on overflow in grids such as 1e308, -1e308 before they are
    # rejected; on the command line that is a warning and exit 2, not an error
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for load in loaders:
            try:
                load()
            except ConfigError:
                pass


@pytest.mark.parametrize(
    "argv, text, code, fragment",
    [
        pytest.param(SIMULATE, "rel_tol = inf\n", 2, "rel_tol must be finite", id="rel_tol-inf"),
        pytest.param(SIMULATE, "abs_tol = nan\n", 2, "abs_tol must be finite", id="abs_tol-nan"),
        pytest.param(
            SOLVE,
            _problem(base={"alpha": 1.0, "phi": 0.0, "samples": 11, "rel_tol": "nan"}),
            2,
            "rel_tol must be finite",
            id="solve-rel_tol-nan",
        ),
        pytest.param(
            SOLVE, _problem(eval_rel_tol="inf"), 2, "'eval_rel_tol'", id="eval_rel_tol-inf"
        ),
        pytest.param(
            SIMULATE,
            "chirp1_kind = linear\nchi1 = 1e308\nchirp2_kind = linear\nchi2 = 1e308\n",
            3,
            "step size fell below 10 ulp of t (at t = -8)",
            id="chi-1e308",
        ),
    ],
)
def test_exit_code_of_nan_step_inputs(tmp_path, argv, text, code, fragment):
    # inputs that make the first step NaN run in a subprocess: a stepper that
    # loops on a NaN step then fails on the timeout instead of hanging the suite
    path = _write(tmp_path, "input", text)
    argv = [path if a == "{input}" else a for a in argv] + ["--out", str(tmp_path / "out")]
    env = {**os.environ, "PYTHONPATH": str(Path(qubitrot.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "qubitrot", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )  # fmt: skip
    assert done.returncode == code, done.stderr
    assert fragment in done.stderr


@pytest.mark.parametrize(
    "argv, text",
    [
        pytest.param(SIMULATE, FAST_BASE, id="simulate"),
        pytest.param(SWEEP, FAST_BASE + "sweep_parameter = delta_tau\nsweep_grid = 30\n", id="sweep"),
        pytest.param(["twolevel", "--config", "{input}"], FAST_BASE, id="twolevel"),
        pytest.param(["stirap", "--chop", "0.5"], None, id="stirap"),
        pytest.param(SOLVE, _problem(), id="solve"),
    ],
)
def test_unwritable_out_exits_2(tmp_path, capsys, argv, text):
    # the parent of --out is a regular file, so no directory can be made there
    blocker = tmp_path / "file"
    blocker.write_text("")
    path = _write(tmp_path, "input", text) if text is not None else None
    argv = [path if a == "{input}" else a for a in argv] + ["--out", str(blocker / "x.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--out" in err and str(blocker / "x") in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, text, suffixes",
    [
        # alpha = 1 leaves |f> empty at the start, so phi_signed holds NaN
        pytest.param(SIMULATE + ["--adiabatic"], FAST_BASE, [""], id="simulate-adiabatic"),
        pytest.param(
            SIMULATE,
            FAST_BASE + "chirp1_kind = linear\nchi1 = 0.7\nchirp2_kind = linear\nchi2 = 0.7\n",
            [""],
            id="simulate-linear-chirp",
        ),
        pytest.param(["twolevel", "--config", "{input}"], FAST_BASE, [""], id="twolevel"),
        pytest.param(
            ["stirap", "--alpha", "0.6", "--chop", "0.4"], None, ["", ".envelopes"], id="stirap-chop"
        ),
    ],
)
def test_csv_bytes_same_without_the_kernel(kernel, tmp_path, monkeypatch, argv, text, suffixes):
    """The compiled table formatter and integrator against the Python ones."""
    path = _write(tmp_path, "input", text) if text is not None else None
    argv = [path if a == "{input}" else a for a in argv]
    written = []
    for name in ("compiled", "python"):
        if name == "python":
            monkeypatch.setattr(_kernel, "_library", None)
        out = tmp_path / f"{name}.csv"
        assert main([*argv, "--out", str(out)]) == 0
        written.append([out.with_suffix(f"{s}.csv").read_bytes() for s in suffixes])
    assert written[0] == written[1]
    if "--adiabatic" in argv:
        assert b",nan," in written[0][0]


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
    assert solver["engine"] == integrate(cfg).engine

    # twolevel reports the full and the reduced run, each as a direct run does
    fast = _write(tmp_path, "fast.cfg", FAST_BASE)
    out = tmp_path / "twolevel.csv"
    assert main(["twolevel", "--config", fast, "--out", str(out)]) == 0
    manifest = _read_manifest(out)
    cfg = build_config(load_config_file(fast))
    full, reduced = integrate(cfg), integrate_two_level(cfg)
    assert manifest["solver"] == {
        "full": {**dataclasses.asdict(full.stats), "engine": full.engine},
        "reduced": {**dataclasses.asdict(reduced.stats), "engine": reduced.engine},
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
    assert manifest["solver"] == {**dataclasses.asdict(traj.stats), "engine": traj.engine}
    assert manifest["norm_drift_max"] == traj.max_norm_error <= 1e-8


def test_cli_import_loads_neither_scipy_nor_the_kernel():
    # the package never imports scipy, and builds the kernel on first use
    probe = (
        "import sys, qubitrot.cli; qubitrot.cli.build_parser(); "
        "print(sorted(m for m in ('scipy', 'qubitrot._kernel') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(qubitrot.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_solve_loads_no_scipy_module(tmp_path):
    # pooled sweep and solve runs load neither scipy nor multiprocessing
    problem = _write(tmp_path, "problem.json", _problem())
    sweep = _write(
        tmp_path, "sweep.cfg", FAST_BASE + "sweep_parameter = delta_tau\nsweep_grid = 30, 40\n"
    )
    out = tmp_path / "solution.json"
    probe = (
        "import os, sys\n"
        "os.cpu_count = lambda: 2\n"
        "from qubitrot.cli import main\n"
        f"assert main(['sweep', '--config', {sweep!r}, '--out', {str(tmp_path / 's.csv')!r},"
        " '--workers', '2']) == 0\n"
        f"assert main(['solve', '--config', {problem!r}, '--out', {str(out)!r},"
        " '--workers', '2']) == 0\n"
        "roots = {m.partition('.')[0] for m in sys.modules}\n"
        "print(sorted(roots & {'scipy', 'multiprocessing'}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(qubitrot.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    assert json.loads(out.read_text())["result"]["evaluations"] > 3


def test_workers_env_caps_the_pool(tmp_path, monkeypatch, executor_requests):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.delenv("QUBITROT_WORKERS", raising=False)
    path = _write(
        tmp_path, "sweep.cfg", FAST_BASE + "sweep_parameter = delta_tau\nsweep_grid = 30, 40, 50\n"
    )
    argv = ["sweep", "--config", path, "--out", str(tmp_path / "s.csv"), "--workers", "3"]
    for cap in (None, "2", "1"):
        if cap is not None:
            monkeypatch.setenv("QUBITROT_WORKERS", cap)
        assert main(argv) == 0
    # pools of 3 and 2 threads at work, counting the calling thread; with
    # QUBITROT_WORKERS = 1 it works alone
    assert executor_requests == [2, 1]


def test_tolerance_below_100_eps_runs_as_requested(tmp_path):
    cfg = _write(tmp_path, "tight.cfg", FAST_BASE + "rel_tol = 1e-16\n")
    out = tmp_path / "tight.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    manifest = _read_manifest(out)
    assert manifest["config"]["rel_tol"] == 1e-16
    assert manifest["norm_drift_max"] <= 1e-8


class TestTableWriter:
    """Every numeric cell reads back as the float64 the program computed."""

    def test_cells_match_per_cell_format(self):
        values = [-0.0, 0.0, 5e-324, 1e308, -1e308, math.nan, math.inf, -math.inf, 0.1, 1 / 3]
        text = ["a", "", "x;y", "50%", "none", "linear", "tanh", "b", "c", "d"]
        lines = _table_lines("v,s,w", [values, text, np.array(values[::-1])])
        assert lines[0] == "v,s,w"
        assert lines[1:] == [
            f"{format(v, '.17g')},{t},{format(w, '.17g')}"
            for v, t, w in zip(values, text, values[::-1])
        ]

    def test_simulate_adiabatic_round_trip(self, tmp_path):
        path = _write(tmp_path, "fast.cfg", FAST_BASE)
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--config", path, "--adiabatic", "--out", str(out)]) == 0
        cfg = build_config(load_config_file(path))
        traj = integrate(cfg)
        d = traj.states
        expected = np.column_stack(
            [traj.times, d[:, 0].real, d[:, 0].imag, d[:, 1].real, d[:, 1].imag]
            + [d[:, 2].real, d[:, 2].imag, traj.populations, traj.cos_phi, traj.phi_signed]
            + [adiabatic_populations(traj, cfg)]
        )
        header, cells = _read_table(out)
        assert len(header) == expected.shape[1] == 15
        # alpha = 1 starts with |f> empty, where the relative phase is NaN
        assert np.isnan(expected).any()
        assert np.array_equal(cells, expected, equal_nan=True)

    def test_twolevel_round_trip(self, tmp_path):
        path = _write(tmp_path, "fast.cfg", FAST_BASE)
        out = tmp_path / "two.csv"
        assert main(["twolevel", "--config", path, "--out", str(out)]) == 0
        report = compare_with_full(build_config(load_config_file(path)))
        full, red = report.full, report.reduced
        expected = np.column_stack(
            [full.times, full.populations, red.p_g, red.p_f]
            + [red.d_i.real, red.d_i.imag, red.d_k.real, red.d_k.imag]
        )
        header, cells = _read_table(out)
        assert len(header) == expected.shape[1]
        assert np.array_equal(cells, expected, equal_nan=True)

    def test_stirap_round_trip(self, tmp_path):
        out = tmp_path / "stirap.csv"
        assert main(["stirap", "--alpha", "0.6", "--out", str(out)]) == 0
        qubit = InitialQubit(0.6, math.sqrt(1.0 - 0.6 * 0.6), sweeps.BASE_PHI)
        traj = orthogonal_transfer(qubit).trajectory
        d = traj.states
        expected = np.column_stack(
            [traj.times, d[:, 0].real, d[:, 0].imag, d[:, 1].real, d[:, 1].imag]
            + [d[:, 2].real, d[:, 2].imag, traj.populations, traj.cos_phi, traj.phi_signed]
        )
        header, cells = _read_table(out)
        assert len(header) == expected.shape[1] == 12
        assert np.array_equal(cells, expected, equal_nan=True)

        w = designed_drive(qubit, PulsePair.T, DEFAULT_SCALE).sample(traj.times)
        expected = np.column_stack([traj.times, w[:, 0].real, w[:, 0].imag, w[:, 1].real, w[:, 1].imag])
        header, cells = _read_table(out.with_suffix(".envelopes.csv"))
        assert len(header) == expected.shape[1]
        assert np.array_equal(cells, expected)


def test_reproduce_figures_script(tmp_path, capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_figures.py"
    run = runpy.run_path(str(script))["run"]
    argv = ["--outdir", str(tmp_path), "--presets", "fig2", "fig9", "--grid-points", "3"]
    assert run(argv) == 0
    fig2 = [l for l in (tmp_path / "fig2.csv").read_text().splitlines() if not l.startswith("#")]
    assert len(fig2) == 1 + 3
    header, fig9 = _read_table(tmp_path / "fig9.csv")
    assert len(fig9) == 601
    assert ",".join(header).endswith("p_a0,p_a_plus,p_a_minus")
