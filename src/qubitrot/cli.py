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

Every input passes one layer, the "inputs" section below: one reader for
JSON documents and one rule per key, flag or environment variable
(``_RULES``), so that malformed input raises ConfigError naming it. Exit
codes: 0 success, 2 malformed input (a count too large to allocate
included), 3 integration or solver failure, 4 unsupported-regime flag
combination.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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
    CONFIG_KEYS,
    InitialQubit,
    PulsePair,
    SimulationConfig,
    Trajectory,
    config_to_dict,
    normalizing_beta,
    orthogonal_state,
    with_keys,
)

WORKERS_ENV = "QUBITROT_WORKERS"

# the keys of a sweep file that _load_sweep_spec reads besides the config; the
# last three give a linspace
_SWEEP_KEYS = ("sweep_parameter", "sweep_grid", "sweep_start", "sweep_stop", "sweep_points")

# the top-level keys of a solve problem document
_PROBLEM_KEYS = ("target", "free_parameters", "base", "leak_weight", "grid_points", "eval_rel_tol")


# ---------------------------------------------------------------------------
# inputs: every file, flag and environment variable is read here, and any
# malformed value raises ConfigError naming its key, flag or file
# ---------------------------------------------------------------------------


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc


def _unique_pairs(pairs: list) -> dict:
    """``object_pairs_hook`` of the JSON reader: raises ValueError on a duplicate key."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def _parse_json(path: str, text: str):
    """The JSON document ``text`` of the file ``path``; an integer of more digits
    than Python converts is a ValueError, and deep nesting a RecursionError."""
    try:
        return json.loads(text, object_pairs_hook=_unique_pairs)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


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
    text = _read_text(path, "config")
    if not text.lstrip().startswith("{"):
        return _parse_keyvalue_text(text, path)
    doc = _parse_json(path, text)
    raw = doc.get("config", doc)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: JSON config must be an object")
    return raw


# the one source of config defaults and key types (float, str, int)
_BASE = sweeps.base_config()
_DEFAULTS = config_to_dict(_BASE)

# an input's rule: its type, and None or its bound as (test, what it must be);
# numpy cannot index a count above sys.maxsize
_FLOAT = (float, None)
_COUNT = (int, (lambda v: 1 <= v <= sys.maxsize, f"at least 1 and at most {sys.maxsize}"))
_POSITIVE = (float, (lambda v: 0.0 < v < math.inf, "positive and finite"))

# every input's rule, by key, flag or environment variable; a config key takes
# the base scenario's type and leaves its bounds to the records it builds
_RULES = {
    **{key: (type(value), None) for key, value in _DEFAULTS.items()},
    **dict.fromkeys(("delta_tau", "sweep_start", "sweep_stop", "leak_weight"), _FLOAT),
    # a sweep_grid value, a target amplitude or angle, a free parameter's bound
    **dict.fromkeys(("sweep_grid", "target", "free_parameters"), _FLOAT),
    "sweep_parameter": (str, None),
    **dict.fromkeys(
        ("sweep_points", "grid_points", "--grid-points", "--workers", WORKERS_ENV), _COUNT
    ),
    **dict.fromkeys(("eval_rel_tol", "--separation", "--scale"), _POSITIVE),
    "--chop": (float, (math.isfinite, "finite")),
}


def _value(name: str, raw):
    """``raw``, text or a typed value, as the input ``name`` takes it by its rule.

    A dotted name (``target.alpha``) takes its first part's rule. Raises
    ConfigError naming the input for a value of the wrong type, one that does
    not parse or overflows a float, and one out of bounds.
    """
    kind, bound = _RULES[name.partition(".")[0]]
    label = name if name.startswith("-") or name == WORKERS_ENV else f"key '{name}'"
    # text, or a value of the type: an int is a float too, a bool is neither
    types = (str, int, float) if kind is float else (str, kind)
    try:
        if isinstance(raw, bool) or not isinstance(raw, types):
            raise TypeError(f"not a {kind.__name__}")
        value = kind(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid value for {label}: {raw!r}") from exc
    if bound is not None and not bound[0](value):
        raise ConfigError(f"{label}: must be {bound[1]}, got {value}")
    return value


def build_config(entries: dict) -> SimulationConfig:
    """Turn a flat key/value mapping into a validated SimulationConfig.

    Every key of ``CONFIG_KEYS`` is accepted, with the default and the type
    of the base scenario; ``delta_tau`` sets both detunings. An omitted
    ``beta`` follows ``alpha`` and an omitted ``delta2_tau`` follows
    ``delta1_tau``. Raises ConfigError naming the offending key for unknown
    keys, unparsable values, and violated invariants.
    """
    values = {}
    for key, raw in entries.items():
        if key not in CONFIG_KEYS and key != "delta_tau":
            raise ConfigError(f"unknown config key '{key}'")
        values[key] = _value(key, raw)

    if "beta" not in values:
        alpha = values.get("alpha", _DEFAULTS["alpha"])
        if not 0.0 <= alpha <= 1.0:
            raise ConfigError(f"key 'alpha': must lie in [0, 1], got {alpha}")
        values["beta"] = normalizing_beta(alpha)

    if "delta_tau" in values:
        if "delta1_tau" in values or "delta2_tau" in values:
            raise ConfigError("key 'delta_tau' conflicts with 'delta1_tau'/'delta2_tau'")
        values["delta1_tau"] = values["delta2_tau"] = values.pop("delta_tau")
    elif "delta2_tau" not in values:
        values["delta2_tau"] = values.get("delta1_tau", _DEFAULTS["delta1_tau"])

    for key in ("chirp1_kind", "chirp2_kind"):
        if values.get(key, "none") not in CHIRP_KINDS:
            raise ConfigError(f"key '{key}': must be one of {CHIRP_KINDS}, got {values[key]!r}")

    try:
        return with_keys(_BASE, values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_workers(requested: int) -> int:
    """``--workers``, capped by the environment variable ``QUBITROT_WORKERS``."""
    workers = _value("--workers", requested)
    cap = os.environ.get(WORKERS_ENV)
    return workers if cap is None else min(workers, _value(WORKERS_ENV, cap))


def _preset(args):
    """The preset that ``--preset`` names, or None where ``--config`` names a file."""
    if args.preset and args.config:
        raise ConfigError("pass either --preset or --config, not both")
    if args.config:
        return None
    if not args.preset:
        raise ConfigError("one of --preset or --config is required")
    if args.preset not in sweeps.PRESET_NAMES:
        names = ", ".join(sweeps.PRESET_NAMES)
        raise ConfigError(f"--preset: unknown preset {args.preset!r}; valid names: {names}")
    return sweeps.figure_preset(args.preset)


def _load_run_config(args) -> SimulationConfig:
    preset = _preset(args)
    if preset is None:
        cfg = build_config(load_config_file(args.config))
    else:
        cfg = preset.base if isinstance(preset, sweeps.SweepSpec) else preset
    if args.samples is not None:
        try:
            cfg = cfg.with_(samples=args.samples)
        except ValueError as exc:
            raise ConfigError(f"--samples: {exc}") from exc
    return cfg


def _load_sweep_spec(args) -> sweeps.SweepSpec:
    preset = _preset(args)
    if preset is not None:
        if not isinstance(preset, sweeps.SweepSpec):
            raise ConfigError(f"preset '{args.preset}' is a single run, not a sweep")
        if args.grid_points is None:
            return preset
        # every sweep preset has a numeric grid
        points = _value("--grid-points", args.grid_points)
        lo, hi = float(preset.grid[0]), float(preset.grid[-1])
        return sweeps.SweepSpec(preset.parameter, tuple(np.linspace(lo, hi, points)), preset.base)
    if args.grid_points is not None:
        raise ConfigError(
            "--grid-points resamples only a preset grid; with --config, set "
            "sweep_grid or sweep_points in the file"
        )
    entries = load_config_file(args.config)
    base = build_config({k: v for k, v in entries.items() if k not in _SWEEP_KEYS})
    if "sweep_parameter" not in entries:
        raise ConfigError("missing config key 'sweep_parameter'")
    parameter = _value("sweep_parameter", entries["sweep_parameter"])
    if "sweep_grid" in entries:
        grid = [s.strip() for s in str(entries["sweep_grid"]).split(",") if s.strip()]
        if parameter != "chirp_kind":
            grid = [_value("sweep_grid", s) for s in grid]
    elif {"sweep_start", "sweep_stop", "sweep_points"} <= entries.keys():
        start, stop, points = (_value(k, entries[k]) for k in _SWEEP_KEYS[2:])
        grid = np.linspace(start, stop, points)
    else:
        raise ConfigError(
            "missing config key 'sweep_grid' (or 'sweep_start'/'sweep_stop'/'sweep_points')"
        )
    try:
        return sweeps.SweepSpec(parameter, tuple(grid), base)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _load_problem(path: str) -> tuple[control.ControlProblem, dict]:
    """The problem of a ``solve`` document, and the ``control.solve`` options
    it sets; ``control`` holds the defaults of those it omits."""
    doc = _parse_json(path, _read_text(path, "problem"))
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: problem document must be a JSON object")
    for key in doc:
        if key not in _PROBLEM_KEYS:
            raise ConfigError(f"unknown problem key {key!r}; valid: {', '.join(_PROBLEM_KEYS)}")

    target_doc = doc.get("target")

    def target_values(keys):
        return [_value(f"target.{k}", target_doc[k]) for k in keys]

    keys = set(target_doc) if isinstance(target_doc, dict) else None
    if keys == {"alpha", "beta", "phi"}:
        try:
            target = InitialQubit(*target_values(("alpha", "beta", "phi"))).amplitudes()
        except ValueError as exc:
            raise ConfigError(f"key 'target': {exc}") from exc
    elif keys == {"g_re", "g_im", "f_re", "f_im"}:
        g_re, g_im, f_re, f_im = target_values(("g_re", "g_im", "f_re", "f_im"))
        target = np.array([complex(g_re, g_im), complex(f_re, f_im)])
    else:
        got = "" if keys is None else f", got keys {{{', '.join(sorted(keys))}}}"
        raise ConfigError(
            f"key 'target': expected keys {{alpha, beta, phi}} or {{g_re, g_im, f_re, f_im}}{got}"
        )

    free = doc.get("free_parameters")
    if not isinstance(free, dict) or not free:
        raise ConfigError("key 'free_parameters': expected a non-empty object of [lo, hi] bounds")
    free_parameters = {}
    for name, bounds in free.items():
        key = f"free_parameters.{name}"
        if not (isinstance(bounds, list) and len(bounds) == 2):
            raise ConfigError(f"key '{key}': expected [lower, upper]")
        free_parameters[name] = tuple(_value(key, v) for v in bounds)

    base_doc = doc.get("base", {})
    if not isinstance(base_doc, dict):
        raise ConfigError("key 'base': expected an object of config keys")
    base = build_config(base_doc)
    weight = {k: _value(k, doc[k]) for k in ("leak_weight",) if k in doc}
    try:
        problem = control.ControlProblem(target, free_parameters, base, **weight)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return problem, {k: _value(k, doc[k]) for k in ("grid_points", "eval_rel_tol") if k in doc}


# ---------------------------------------------------------------------------
# output formatting
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    return x if isinstance(x, str) else "%.17g" % x


def _config_comment_lines(cfg: SimulationConfig, extra: dict) -> list[str]:
    """``# key = value`` lines: ``extra`` in reverse order, then the config."""
    return [f"# {k} = {v}" for k, v in reversed(extra.items())] + [
        f"# {k} = {_fmt(v)}" for k, v in config_to_dict(cfg).items()
    ]


def _table_lines(header: str, columns: list) -> list[str]:
    """``header`` plus one CSV line per row of equal-length ``columns``.

    A column of str is written as it is; any other column is formatted as
    float64 with "%.17g", which reads back to the same value. A table of
    numeric columns only is formatted by the compiled kernel, to the same
    bytes; the loop below is its reference and its fallback.
    """
    text = [isinstance(col[0], str) for col in columns]
    if not any(text):
        from . import _kernel  # built on first use, as for the integrator

        if _kernel.library() is not None:
            return [header, *_kernel.format_rows(np.column_stack(columns))]
    row = ",".join("%s" if t else "%.17g" for t in text)
    cells = [col if t else np.asarray(col, dtype=float).tolist() for col, t in zip(columns, text)]
    return [header] + [row % r for r in zip(*cells)]


# lines per write: under 100 kB of a 15-column table, so that the writer
# never holds a copy of the whole text
_WRITE_LINES = 256


def _write_text(path: Path, lines: list[str]) -> None:
    """Writes ``lines`` as UTF-8, each ended by a newline; raises ConfigError
    naming ``--out`` if ``path`` cannot be written."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as f:
            for start in range(0, len(lines), _WRITE_LINES):
                f.write("\n".join([*lines[start : start + _WRITE_LINES], ""]).encode())
    except OSError as exc:
        raise ConfigError(f"--out: cannot write {path}: {exc}") from exc


def _write_json(path: Path, doc: dict) -> None:
    _write_text(path, [json.dumps(doc, sort_keys=True, indent=2)])


def _manifest_path(out: Path) -> Path:
    return out.with_suffix(".manifest.json")


def _solver_block(traj) -> dict:
    """The manifest's record of a run's stepper: its counters and its engine."""
    return {**dataclasses.asdict(traj.stats), "engine": traj.engine}


def trajectory_csv_lines(
    traj: Trajectory,
    cfg: SimulationConfig,
    *,
    adiabatic: bool,
    adiab: np.ndarray | None = None,
    command: str = "simulate",
) -> list[str]:
    """CSV lines of one trajectory; ``adiabatic`` adds the adiabatic-state
    populations, taken from ``adiab`` if the caller already computed them.
    ``command`` names the subcommand in the comment header."""
    header = "t_over_tau,re_d_e,im_d_e,re_d_g,im_d_g,re_d_f,im_d_f,p_e,p_g,p_f,cos_phi,phi_signed"
    d, pops = traj.states, traj.populations
    columns = [traj.times]
    for j in range(3):
        columns += [d[:, j].real, d[:, j].imag]
    columns += [pops[:, 0], pops[:, 1], pops[:, 2], traj.cos_phi, traj.phi_signed]
    if adiabatic:
        if adiab is None:
            adiab = analysis.adiabatic_populations(traj, cfg)
        header += ",p_a0,p_a_plus,p_a_minus"
        columns += [adiab[:, 0], adiab[:, 1], adiab[:, 2]]
    return _config_comment_lines(cfg, {"command": command}) + _table_lines(header, columns)


def sweep_csv_lines(result: sweeps.SweepResult) -> list[str]:
    spec, points = result.spec, result.points
    header = "parameter,value,p_e,p_g,p_f,cos_phi,phi_signed,nonadiabaticity,error"
    observables = ("value", "p_e", "p_g", "p_f", "cos_phi", "phi_signed")
    columns = [
        [spec.parameter] * len(points),
        *([getattr(pt, name) for pt in points] for name in observables),
        ["" if pt.nonadiabaticity is None else _fmt(pt.nonadiabaticity) for pt in points],
        [(pt.error or "").replace(",", ";") for pt in points],
    ]
    extra = {"command": "sweep", "parameter": spec.parameter}
    return _config_comment_lines(spec.base, extra) + _table_lines(header, columns)


def _finite_or_none(x: float | None) -> float | None:
    # JSON (RFC 8259) has no NaN or infinity: such a value is written as null
    return x if x is None or math.isfinite(x) else None


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
                "p_e": _finite_or_none(pt.p_e),
                "p_g": _finite_or_none(pt.p_g),
                "p_f": _finite_or_none(pt.p_f),
                "cos_phi": _finite_or_none(pt.cos_phi),
                "phi_signed": _finite_or_none(pt.phi_signed),
                "nonadiabaticity": _finite_or_none(pt.nonadiabaticity),
                "error": pt.error,
            }
            for pt in result.points
        ],
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    cfg = _load_run_config(args)
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
            "preset": args.preset or None,
            "config": config_to_dict(cfg),
            "adiabatic": bool(args.adiabatic),
            "norm_drift_max": traj.max_norm_error,
            "solver": _solver_block(traj),
            "wall_time_s": wall,
            "output": str(out),
        },
    )
    print(f"wrote {out} ({cfg.samples} samples, norm drift {traj.max_norm_error:.2e})")
    return 0


def cmd_sweep(args) -> int:
    workers = _resolve_workers(args.workers)
    spec = _load_sweep_spec(args)
    result = sweeps.run_sweep(spec, workers=workers)
    out = Path(args.out)
    _write_text(out, sweep_csv_lines(result))
    _write_json(_manifest_path(out), sweep_json_doc(result))
    failures = sum(1 for pt in result.points if pt.error)
    print(f"wrote {out} ({len(result.points)} points, {failures} failures)")
    return 0


def cmd_twolevel(args) -> int:
    cfg = _load_run_config(args)
    report = compare_with_full(cfg)
    out = Path(args.out)
    full, red = report.full, report.reduced
    header = (
        "t_over_tau,p_e_full,p_g_full,p_f_full,p_g_two_level,p_f_two_level,"
        "re_d_i,im_d_i,re_d_k,im_d_k"
    )
    pops = full.populations
    columns = [full.times, pops[:, 0], pops[:, 1], pops[:, 2], red.p_g, red.p_f]
    columns += [red.d_i.real, red.d_i.imag, red.d_k.real, red.d_k.imag]
    lines = _config_comment_lines(cfg, {"command": "twolevel"}) + _table_lines(header, columns)
    _write_text(out, lines)
    _write_json(
        _manifest_path(out),
        {
            "command": "twolevel",
            "preset": args.preset or None,
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
                "full": _solver_block(full),
                "reduced": _solver_block(red),
            },
        },
    )
    print(f"wrote {out} (final deviation {report.final_dev:.4f})")
    return 0


def cmd_stirap(args) -> int:
    separation, scale = _value("--separation", args.separation), _value("--scale", args.scale)
    chop = None if args.chop is None else _value("--chop", args.chop)
    alpha = args.alpha
    beta = args.beta if args.beta is not None else normalizing_beta(alpha)
    try:
        qubit = InitialQubit(alpha, beta, args.phi)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    # without --chop the designed pair runs to the end of the window
    stop_time = math.inf if chop is None else chop
    traj = stirap.chopped_rotation(qubit, separation, scale, stop_time)
    cfg = traj.config
    fid = analysis.fidelity(traj.final_state(), orthogonal_state(qubit), traj.times[-1], cfg)
    max_p_e = float(traj.p_e.max())

    out = Path(args.out)
    _write_text(out, trajectory_csv_lines(traj, cfg, adiabatic=False, command="stirap"))

    drive = stirap.designed_drive(qubit, separation, scale, stop_time)
    w = drive.sample(traj.times)
    env_lines = _table_lines(
        "t_over_tau,re_omega1,im_omega1,re_omega2,im_omega2",
        [traj.times, w[:, 0].real, w[:, 0].imag, w[:, 1].real, w[:, 1].imag],
    )
    env_path = out.with_suffix(".envelopes.csv")
    _write_text(env_path, env_lines)

    _write_json(
        _manifest_path(out),
        {
            "command": "stirap",
            "qubit": {"alpha": qubit.alpha, "beta": qubit.beta, "phi": qubit.phi},
            "separation": separation,
            "scale": scale,
            "chop": chop,
            "fidelity_to_orthogonal": fid,
            "max_p_e": max_p_e,
            "norm_drift_max": traj.max_norm_error,
            "solver": _solver_block(traj),
            "outputs": [str(out), str(env_path)],
        },
    )
    print(f"wrote {out} (fidelity {fid:.6f}, max P_e {max_p_e:.4f})")
    return 0


def cmd_solve(args) -> int:
    workers = _resolve_workers(args.workers)
    problem, options = _load_problem(args.config)
    result = control.solve(problem, workers=workers, **options)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by later ones."""
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
    p.add_argument("--alpha", type=float, default=sweeps.BASE_ALPHA)
    p.add_argument("--beta", type=float, default=None, help="defaults to sqrt(1 - alpha^2)")
    p.add_argument("--phi", type=float, default=sweeps.BASE_PHI)
    p.add_argument("--separation", type=float, default=PulsePair.T, help="pulse delay T/tau")
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
    except MemoryError as exc:
        # a count that passes validation but cannot be allocated
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except UnsupportedRegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (IntegrationError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
