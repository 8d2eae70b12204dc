"""Command-line interface: configuration files, execution, serialization.

Subcommands
-----------
simulate   integrate one configuration, write a trajectory CSV + run manifest
sweep      run a parameter sweep, write per-point CSV + a JSON provenance doc
twolevel   full vs reduced-model comparison CSV + deviation summary manifest
stirap     designed-pulse orthogonal rotation: envelope CSV, trajectory CSV,
           manifest with fidelity report
solve      inverse search over pulse parameters from a JSON problem file

Configuration files are flat ``key = value`` lines (``#`` comments and
``[section]`` headers are ignored; keys are global). All keys are optional
and default to the common base scenario; unknown keys are rejected. A JSON
run manifest produced by ``simulate`` can be passed back via ``--config`` to
reproduce the run byte-for-byte.

Exit codes: 0 success, 2 malformed configuration or flags, 3 integration or
solver failure, 4 unsupported-regime flag combination.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import analysis, control, stirap, sweeps
from .dynamics import integrate
from .errors import ConfigError, IntegrationError, SolverError, UnsupportedRegimeError
from .twolevel import compare_with_full
from .types import (
    CHIRP_KINDS,
    ChirpProfile,
    DetuningSpec,
    InitialQubit,
    PulsePair,
    SimulationConfig,
    Trajectory,
    orthogonal_state,
)

WORKERS_ENV = "QUBITROT_WORKERS"

# key -> (parser, default); defaults mirror the common base scenario
_CONFIG_KEYS = {
    "alpha": (float, sweeps.BASE_ALPHA),
    "beta": (float, None),  # derived from alpha when omitted
    "phi": (float, sweeps.BASE_PHI),
    "omega01_tau": (float, sweeps.BASE_OMEGA),
    "omega02_tau": (float, sweeps.BASE_OMEGA),
    "T_over_tau": (float, sweeps.BASE_T),
    "delta": (float, 0.0),
    "delta_tau": (float, None),  # sets both detunings
    "delta1_tau": (float, None),
    "delta2_tau": (float, None),
    "chirp1_kind": (str, "none"),
    "chi1": (float, 0.0),
    "chirp2_kind": (str, "none"),
    "chi2": (float, 0.0),
    "origin_over_tau": (float, 0.0),
    "t_start_over_tau": (float, -8.0),
    "t_end_over_tau": (float, 15.0),
    "samples": (int, 601),
    "rel_tol": (float, 1e-10),
    "abs_tol": (float, 1e-12),
}

_SWEEP_KEYS = {
    "sweep_parameter": str,
    "sweep_grid": str,
    "sweep_start": float,
    "sweep_stop": float,
    "sweep_points": int,
}


def _parse_keyvalue_text(text: str, path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or (line.startswith("[") and line.endswith("]")):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in entries:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = value.strip()
    return entries


def load_config_file(path: str) -> dict:
    """Read a key=value config file, or the ``config`` block of a JSON manifest."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        raw = doc.get("config", doc)
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: JSON config must be an object")
        return {str(k): v for k, v in raw.items()}
    return _parse_keyvalue_text(text, path)


def _coerce(key: str, value, parser):
    if isinstance(value, bool):
        raise ConfigError(f"invalid value for key '{key}': {value!r}")
    if isinstance(value, str):
        try:
            return parser(value)
        except ValueError as exc:
            raise ConfigError(f"invalid value for key '{key}': {value!r}") from exc
    if parser is float and isinstance(value, (int, float)):
        return float(value)
    if parser is int and isinstance(value, int):
        return value
    if parser is str and isinstance(value, str):
        return value
    raise ConfigError(f"invalid value for key '{key}': {value!r}")


def build_config(entries: dict, *, allow_sweep_keys: bool = False) -> SimulationConfig:
    """Turn a flat key/value mapping into a validated SimulationConfig.

    Raises ConfigError naming the offending key for unknown keys, unparsable
    values, and violated invariants.
    """
    values: dict = {}
    for key, raw in entries.items():
        if allow_sweep_keys and key in _SWEEP_KEYS:
            continue
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key '{key}'")
        values[key] = _coerce(key, raw, _CONFIG_KEYS[key][0])
    for key, (_, default) in _CONFIG_KEYS.items():
        values.setdefault(key, default)

    alpha = values["alpha"]
    beta = values["beta"]
    if beta is None:
        if not 0.0 <= alpha <= 1.0:
            raise ConfigError(f"key 'alpha': must lie in [0, 1], got {alpha}")
        beta = math.sqrt(max(0.0, 1.0 - alpha * alpha))

    if values["delta_tau"] is not None:
        if values["delta1_tau"] is not None or values["delta2_tau"] is not None:
            raise ConfigError("key 'delta_tau' conflicts with 'delta1_tau'/'delta2_tau'")
        d1 = d2 = values["delta_tau"]
    else:
        d1 = values["delta1_tau"] if values["delta1_tau"] is not None else sweeps.BASE_DELTA_TAU
        d2 = values["delta2_tau"] if values["delta2_tau"] is not None else d1

    for key in ("chirp1_kind", "chirp2_kind"):
        if values[key] not in CHIRP_KINDS:
            raise ConfigError(f"key '{key}': must be one of {CHIRP_KINDS}, got {values[key]!r}")

    try:
        return SimulationConfig(
            pulses=PulsePair(
                omega01=values["omega01_tau"],
                omega02=values["omega02_tau"],
                T=values["T_over_tau"],
                delta=values["delta"],
                chirp1=ChirpProfile(values["chirp1_kind"], values["chi1"]),
                chirp2=ChirpProfile(values["chirp2_kind"], values["chi2"]),
                origin=values["origin_over_tau"],
            ),
            detunings=DetuningSpec(d1, d2),
            initial=InitialQubit(alpha, beta, values["phi"]),
            t_start=values["t_start_over_tau"],
            t_end=values["t_end_over_tau"],
            rel_tol=values["rel_tol"],
            abs_tol=values["abs_tol"],
            samples=values["samples"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_to_dict(cfg: SimulationConfig) -> dict:
    """Flat mapping of a resolved configuration, invertible by build_config."""
    p = cfg.pulses
    return {
        "alpha": cfg.initial.alpha,
        "beta": cfg.initial.beta,
        "phi": cfg.initial.phi,
        "omega01_tau": p.omega01,
        "omega02_tau": p.omega02,
        "T_over_tau": p.T,
        "delta": p.delta,
        "delta1_tau": cfg.detunings.delta1,
        "delta2_tau": cfg.detunings.delta2,
        "chirp1_kind": p.chirp1.kind,
        "chi1": p.chirp1.chi,
        "chirp2_kind": p.chirp2.kind,
        "chi2": p.chirp2.chi,
        "origin_over_tau": p.origin,
        "t_start_over_tau": cfg.t_start,
        "t_end_over_tau": cfg.t_end,
        "samples": cfg.samples,
        "rel_tol": cfg.rel_tol,
        "abs_tol": cfg.abs_tol,
    }


# ---------------------------------------------------------------------------
# output formatting
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return format(float(x), ".17g")


def _config_comment_lines(cfg: SimulationConfig, extra: dict | None = None) -> list[str]:
    lines = [f"# {k} = {_fmt(v)}" for k, v in config_to_dict(cfg).items()]
    for k, v in (extra or {}).items():
        lines.insert(0, f"# {k} = {v}")
    return lines


def _write_text(path: Path, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _manifest_path(out: Path) -> Path:
    return out.with_suffix(".manifest.json")


def trajectory_csv_lines(
    traj: Trajectory, cfg: SimulationConfig, *, adiabatic: bool, adiab: np.ndarray | None = None
) -> list[str]:
    """CSV lines of one trajectory; ``adiabatic`` adds the adiabatic-state
    populations, taken from ``adiab`` if the caller already computed them."""
    header = [
        "t_over_tau",
        "re_d_e",
        "im_d_e",
        "re_d_g",
        "im_d_g",
        "re_d_f",
        "im_d_f",
        "p_e",
        "p_g",
        "p_f",
        "cos_phi",
        "phi_signed",
    ]
    if adiabatic:
        if adiab is None:
            adiab = analysis.adiabatic_populations(traj, cfg)
        header += ["p_a0", "p_a_plus", "p_a_minus"]
    lines = _config_comment_lines(cfg, {"command": "simulate"})
    lines.append(",".join(header))
    for k, t in enumerate(traj.times):
        d = traj.states[k]
        row = [
            t,
            d[0].real,
            d[0].imag,
            d[1].real,
            d[1].imag,
            d[2].real,
            d[2].imag,
            traj.populations[k, 0],
            traj.populations[k, 1],
            traj.populations[k, 2],
            traj.cos_phi[k],
            traj.phi_signed[k],
        ]
        if adiabatic:
            row += [adiab[k, 0], adiab[k, 1], adiab[k, 2]]
        lines.append(",".join(_fmt(v) for v in row))
    return lines


def sweep_csv_lines(result: sweeps.SweepResult) -> list[str]:
    lines = _config_comment_lines(
        result.spec.base, {"command": "sweep", "parameter": result.spec.parameter}
    )
    lines.append("parameter,value,p_e,p_g,p_f,cos_phi,phi_signed,nonadiabaticity,error")
    for pt in result.points:
        nonadiab = "" if pt.nonadiabaticity is None else _fmt(pt.nonadiabaticity)
        err = pt.error or ""
        lines.append(
            ",".join(
                [
                    result.spec.parameter,
                    _fmt(pt.value),
                    _fmt(pt.p_e),
                    _fmt(pt.p_g),
                    _fmt(pt.p_f),
                    _fmt(pt.cos_phi),
                    _fmt(pt.phi_signed),
                    nonadiab,
                    err.replace(",", ";"),
                ]
            )
        )
    return lines


def sweep_json_doc(result: sweeps.SweepResult) -> dict:
    return {
        "command": "sweep",
        "spec": {
            "parameter": result.spec.parameter,
            "grid": [v if isinstance(v, str) else float(v) for v in result.spec.grid],
            "base": config_to_dict(result.spec.base),
        },
        "results": [
            {
                "value": pt.value if isinstance(pt.value, str) else float(pt.value),
                "p_e": pt.p_e,
                "p_g": pt.p_g,
                "p_f": pt.p_f,
                "cos_phi": pt.cos_phi,
                "phi_signed": pt.phi_signed,
                "nonadiabaticity": pt.nonadiabaticity,
                "error": pt.error,
            }
            for pt in result.points
        ],
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _resolve_workers(requested: int) -> int:
    cap = os.environ.get(WORKERS_ENV)
    if cap is not None:
        try:
            return max(1, min(requested, int(cap)))
        except ValueError as exc:
            raise ConfigError(f"{WORKERS_ENV} must be an integer, got {cap!r}") from exc
    return max(1, requested)


def _load_run_config(args) -> tuple[SimulationConfig, str | None]:
    if args.preset and args.config:
        raise ConfigError("pass either --preset or --config, not both")
    if args.preset:
        cfg = sweeps.preset_base(args.preset)
        name = args.preset
    elif args.config:
        cfg = build_config(load_config_file(args.config))
        name = None
    else:
        raise ConfigError("one of --preset or --config is required")
    if args.samples is not None:
        try:
            cfg = cfg.with_(samples=args.samples)
        except ValueError as exc:
            raise ConfigError(f"--samples: {exc}") from exc
    return cfg, name


def cmd_simulate(args) -> int:
    cfg, preset = _load_run_config(args)
    t0 = time.perf_counter()
    traj = integrate(cfg)
    # raises UnsupportedRegimeError (exit 4) for chirped or detuned bases
    adiab = analysis.adiabatic_populations(traj, cfg) if args.adiabatic else None
    wall = time.perf_counter() - t0
    out = Path(args.out)
    _write_text(out, trajectory_csv_lines(traj, cfg, adiabatic=args.adiabatic, adiab=adiab))
    _write_json(
        _manifest_path(out),
        {
            "command": "simulate",
            "preset": preset,
            "config": config_to_dict(cfg),
            "adiabatic": bool(args.adiabatic),
            "norm_drift_max": traj.max_norm_error,
            "solver": dataclasses.asdict(traj.stats),
            "wall_time_s": wall,
            "output": str(out),
        },
    )
    print(f"wrote {out} ({cfg.samples} samples, norm drift {traj.max_norm_error:.2e})")
    return 0


def _load_sweep_spec(args) -> sweeps.SweepSpec:
    if args.preset and args.config:
        raise ConfigError("pass either --preset or --config, not both")
    if args.preset:
        preset = sweeps.figure_preset(args.preset)
        if not isinstance(preset, sweeps.SweepSpec):
            raise ConfigError(f"preset '{args.preset}' is a single run, not a sweep")
        spec = preset
        if args.grid_points is not None and args.grid_points < 1:
            raise ConfigError(f"--grid-points must be at least 1, got {args.grid_points}")
        if args.grid_points is not None and spec.parameter != "chirp_kind":
            lo, hi = float(spec.grid[0]), float(spec.grid[-1])
            spec = sweeps.SweepSpec(
                spec.parameter, tuple(np.linspace(lo, hi, args.grid_points)), spec.base
            )
        return spec
    if not args.config:
        raise ConfigError("one of --preset or --config is required")
    entries = load_config_file(args.config)
    base = build_config(entries, allow_sweep_keys=True)
    try:
        parameter = str(entries["sweep_parameter"])
    except KeyError:
        raise ConfigError("missing config key 'sweep_parameter'") from None
    if "sweep_grid" in entries:
        raw = [s.strip() for s in str(entries["sweep_grid"]).split(",") if s.strip()]
        if parameter != "chirp_kind":
            raw = [_coerce("sweep_grid", s, float) for s in raw]
        grid = tuple(raw)
    elif {"sweep_start", "sweep_stop", "sweep_points"} <= entries.keys():
        grid = tuple(
            np.linspace(
                _coerce("sweep_start", entries["sweep_start"], float),
                _coerce("sweep_stop", entries["sweep_stop"], float),
                _coerce("sweep_points", entries["sweep_points"], int),
            )
        )
    else:
        raise ConfigError(
            "missing config key 'sweep_grid' (or 'sweep_start'/'sweep_stop'/'sweep_points')"
        )
    try:
        return sweeps.SweepSpec(parameter, grid, base)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_sweep(args) -> int:
    spec = _load_sweep_spec(args)
    result = sweeps.run_sweep(spec, workers=_resolve_workers(args.workers))
    out = Path(args.out)
    _write_text(out, sweep_csv_lines(result))
    _write_json(_manifest_path(out), sweep_json_doc(result))
    failures = sum(1 for pt in result.points if pt.error)
    print(f"wrote {out} ({len(result.points)} points, {failures} failures)")
    return 0


def cmd_twolevel(args) -> int:
    cfg, preset = _load_run_config(args)
    report = compare_with_full(cfg)
    out = Path(args.out)
    lines = _config_comment_lines(cfg, {"command": "twolevel"})
    lines.append(
        "t_over_tau,p_e_full,p_g_full,p_f_full,p_g_two_level,p_f_two_level,"
        "re_d_i,im_d_i,re_d_k,im_d_k"
    )
    full, red = report.full, report.reduced
    for k, t in enumerate(full.times):
        lines.append(
            ",".join(
                _fmt(v)
                for v in [
                    t,
                    full.populations[k, 0],
                    full.populations[k, 1],
                    full.populations[k, 2],
                    red.p_g[k],
                    red.p_f[k],
                    red.d_i[k].real,
                    red.d_i[k].imag,
                    red.d_k[k].real,
                    red.d_k[k].imag,
                ]
            )
        )
    _write_text(out, lines)
    _write_json(
        _manifest_path(out),
        {
            "command": "twolevel",
            "preset": preset,
            "config": config_to_dict(cfg),
            "deviation": {
                "max_p_g": report.max_dev_p_g,
                "max_p_f": report.max_dev_p_f,
                "final_p_g": report.final_dev_p_g,
                "final_p_f": report.final_dev_p_f,
                "final_max": report.final_dev,
            },
            "norm_drift_max": {"full": full.max_norm_error, "reduced": red.max_norm_error},
            "solver": {
                "full": dataclasses.asdict(full.stats),
                "reduced": dataclasses.asdict(red.stats),
            },
        },
    )
    print(f"wrote {out} (final deviation {report.final_dev:.4f})")
    return 0


def cmd_stirap(args) -> int:
    alpha = args.alpha
    beta = args.beta if args.beta is not None else math.sqrt(max(0.0, 1.0 - alpha * alpha))
    try:
        qubit = InitialQubit(alpha, beta, args.phi)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    if args.chop is not None:
        traj = stirap.chopped_rotation(
            qubit, T=args.separation, scale=args.scale, stop_time=args.chop
        )
        cfg = traj.config
        target = orthogonal_state(qubit)
        fid = analysis.fidelity(traj.final_state(), target, float(traj.times[-1]), cfg)
        max_p_e = float(traj.p_e.max())
    else:
        report = stirap.orthogonal_transfer(qubit, T=args.separation, amplitude_scale=args.scale)
        traj, cfg = report.trajectory, report.trajectory.config
        fid, max_p_e = report.fidelity_to_target, report.max_p_e

    out = Path(args.out)
    _write_text(out, trajectory_csv_lines(traj, cfg, adiabatic=False))

    envelopes = stirap.design_pulses(qubit, args.separation)
    sampled = stirap.sample_envelopes(envelopes, traj.times, scale=args.scale)
    if args.chop is not None:
        sampled[traj.times > args.chop] = 0.0
    env_lines = ["t_over_tau,re_omega1,im_omega1,re_omega2,im_omega2"]
    for k, t in enumerate(traj.times):
        env_lines.append(
            ",".join(
                _fmt(v)
                for v in [t, sampled[k, 0].real, sampled[k, 0].imag, sampled[k, 1].real, sampled[k, 1].imag]
            )
        )
    env_path = out.with_suffix(".envelopes.csv")
    _write_text(env_path, env_lines)

    _write_json(
        _manifest_path(out),
        {
            "command": "stirap",
            "qubit": {"alpha": qubit.alpha, "beta": qubit.beta, "phi": qubit.phi},
            "separation": args.separation,
            "scale": args.scale,
            "chop": args.chop,
            "fidelity_to_orthogonal": fid,
            "max_p_e": max_p_e,
            "norm_drift_max": traj.max_norm_error,
            "solver": dataclasses.asdict(traj.stats),
            "outputs": [str(out), str(env_path)],
        },
    )
    print(f"wrote {out} (fidelity {fid:.6f}, max P_e {max_p_e:.4f})")
    return 0


def _load_problem(path: str) -> tuple[control.ControlProblem, dict]:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read problem file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: problem document must be a JSON object")

    target_doc = doc.get("target")

    def target_values(keys):
        return [_coerce(f"target.{k}", target_doc[k], float) for k in keys]

    if isinstance(target_doc, dict) and {"alpha", "beta", "phi"} <= target_doc.keys():
        try:
            target = InitialQubit(*target_values(("alpha", "beta", "phi"))).amplitudes()
        except ValueError as exc:
            raise ConfigError(f"key 'target': {exc}") from exc
    elif isinstance(target_doc, dict) and {"g_re", "g_im", "f_re", "f_im"} <= target_doc.keys():
        g_re, g_im, f_re, f_im = target_values(("g_re", "g_im", "f_re", "f_im"))
        target = np.array([complex(g_re, g_im), complex(f_re, f_im)])
    else:
        raise ConfigError(
            "key 'target': expected {alpha, beta, phi} or {g_re, g_im, f_re, f_im}"
        )

    free = doc.get("free_parameters")
    if not isinstance(free, dict) or not free:
        raise ConfigError("key 'free_parameters': expected a non-empty object of [lo, hi] bounds")
    free_parameters = {}
    for name, bounds in free.items():
        key = f"free_parameters.{name}"
        if not (isinstance(bounds, (list, tuple)) and len(bounds) == 2):
            raise ConfigError(f"key '{key}': expected [lower, upper]")
        free_parameters[str(name)] = tuple(_coerce(key, v, float) for v in bounds)

    base_doc = doc.get("base", {})
    if not isinstance(base_doc, dict):
        raise ConfigError("key 'base': expected an object of config keys")
    base = build_config({str(k): v for k, v in base_doc.items()})
    try:
        problem = control.ControlProblem(
            target=target,
            free_parameters=free_parameters,
            base=base,
            leak_weight=_coerce("leak_weight", doc.get("leak_weight", 1.0), float),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    options = {
        "grid_points": _coerce("grid_points", doc.get("grid_points", 11), int),
        "eval_rel_tol": _coerce("eval_rel_tol", doc.get("eval_rel_tol", 1e-8), float),
    }
    if options["grid_points"] < 1:
        raise ConfigError(f"key 'grid_points': must be at least 1, got {options['grid_points']}")
    return problem, options


def cmd_solve(args) -> int:
    if not args.config:
        raise ConfigError("--config with a JSON problem document is required")
    problem, options = _load_problem(args.config)
    result = control.solve(
        problem, workers=_resolve_workers(args.workers), **options
    )
    out = Path(args.out)
    _write_json(
        out,
        {
            "command": "solve",
            "problem": {
                "target": {
                    "g_re": problem.target[0].real,
                    "g_im": problem.target[0].imag,
                    "f_re": problem.target[1].real,
                    "f_im": problem.target[1].imag,
                },
                "free_parameters": {k: list(v) for k, v in problem.free_parameters.items()},
                "leak_weight": problem.leak_weight,
                "base": config_to_dict(problem.base),
            },
            "result": {
                "parameters": result.parameters,
                "fidelity": result.fidelity,
                "final_p_e": result.final_p_e,
                "objective": result.objective,
                "evaluations": result.evaluations,
            },
        },
    )
    print(
        "best "
        + ", ".join(f"{k}={v:.6g}" for k, v in result.parameters.items())
        + f" (fidelity {result.fidelity:.6f}, P_e {result.final_p_e:.2e})"
    )
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _add_common(sub, *, samples=True):
    sub.add_argument("--preset", help="named scenario, e.g. fig2")
    sub.add_argument("--config", help="configuration file (key = value, or a run manifest)")
    sub.add_argument("--out", required=True, help="output path")
    if samples:
        sub.add_argument("--samples", type=int, default=None, help="override sample count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qubitrot",
        description="Three-level Lambda-system qubit rotation simulator",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("simulate", help="integrate one configuration")
    _add_common(p)
    p.add_argument(
        "--adiabatic",
        action="store_true",
        help="append instantaneous-eigenbasis populations (resonant unchirped runs only)",
    )
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("sweep", help="run a one-parameter sweep")
    _add_common(p, samples=False)
    p.add_argument("--workers", type=int, default=1, help="parallel grid workers")
    p.add_argument("--grid-points", type=int, default=None, help="resample the preset grid")
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("twolevel", help="full vs reduced-model comparison")
    _add_common(p)
    p.set_defaults(func=cmd_twolevel)

    p = subs.add_parser("stirap", help="designed-pulse orthogonal rotation")
    p.add_argument("--alpha", type=float, default=0.3)
    p.add_argument("--beta", type=float, default=None, help="defaults to sqrt(1 - alpha^2)")
    p.add_argument("--phi", type=float, default=math.pi / 2)
    p.add_argument("--separation", type=float, default=4.0 / 3.0, help="pulse delay T/tau")
    p.add_argument("--scale", type=float, default=stirap.DEFAULT_SCALE)
    p.add_argument("--chop", type=float, default=None, help="force envelopes to zero past this time")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stirap)

    p = subs.add_parser("solve", help="inverse control-parameter search")
    p.add_argument("--config", required=True, help="JSON problem document")
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_solve)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnsupportedRegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (IntegrationError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
