#!/usr/bin/env python3
"""Golden outputs of the command-line tool, written once and compared later.

    python scripts/golden_outputs.py write DIR
    python scripts/golden_outputs.py diff A B

``write`` runs a fixed list of ``simulate``, ``sweep``, ``twolevel``,
``stirap`` and ``solve`` commands in-process and leaves every CSV, manifest
and solution in DIR (the config files and problem documents it feeds them go
to DIR/inputs). Run it against two versions of the package
(``PYTHONPATH=<src>``) and ``diff`` the two directories: per file it prints
whether the bytes are identical or the largest numeric difference and where
it sits. Manifests are compared without ``wall_time_s`` and output paths,
which differ from run to run. ``diff`` exits 0 when every file matches and 1
otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
from pathlib import Path

# keys of a manifest that change from run to run or with the output directory
IGNORED_KEYS = ("wall_time_s", "output", "outputs")

CONFIGS = {
    "unequal_detunings.cfg": "delta1_tau = 45.0\ndelta2_tau = 40.0\n",
    "delta1_beta.cfg": "delta1_tau = 30.0\nalpha = 0.6\nbeta = 0.8\n",
    "delta2_tanh.cfg": (
        "delta2_tau = 60.0\nchirp1_kind = tanh\nchi1 = 0.5\nchirp2_kind = tanh\nchi2 = 0.5\n"
    ),
    "pulse_phase.cfg": "delta = 0.7\n",
    "sweep_kinds.cfg": (
        "delta_tau = 75.0\nchirp1_kind = linear\nchi1 = 1.0\nchirp2_kind = linear\nchi2 = 1.0\n"
        "sweep_parameter = chirp_kind\nsweep_grid = none, linear, tanh\n"
    ),
    "sweep_range.cfg": (
        "sweep_parameter = delta_tau\nsweep_start = 30\nsweep_stop = 60\nsweep_points = 3\n"
    ),
    # both points exceed the norm-drift limit: the CSV carries the error text
    "sweep_loose.cfg": "rel_tol = 0.01\nsweep_parameter = delta_tau\nsweep_grid = 30, 60\n",
    # every config key away from its default
    "all_keys.cfg": (
        "alpha = 0.6\nbeta = 0.8\nphi = 0.4\nomega01_tau = 12.0\nomega02_tau = 14.0\n"
        "T_over_tau = 1.5\ndelta = 0.3\ndelta1_tau = 50.0\ndelta2_tau = 48.0\n"
        "chirp1_kind = linear\nchi1 = 0.4\nchirp2_kind = tanh\nchi2 = -0.3\n"
        "origin_over_tau = 0.5\nt_start_over_tau = -7.0\nt_end_over_tau = 14.0\n"
        "samples = 401\nrel_tol = 1e-9\nabs_tol = 1e-11\n"
    ),
    "sweep_separation.cfg": (
        "delta_tau = 75.0\nsweep_parameter = T_over_tau\nsweep_grid = 0.5, 1.5, 2.5\n"
    ),
    "sweep_chi_ratio.cfg": (
        "delta_tau = 75.0\nchirp1_kind = tanh\nchi1 = 0.5\nchirp2_kind = tanh\nchi2 = 0.5\n"
        "sweep_parameter = chi_ratio\nsweep_start = -1\nsweep_stop = 1\nsweep_points = 3\n"
    ),
    "sweep_pulse_phase.cfg": "sweep_parameter = delta_phase\nsweep_grid = 0, 0.7, 1.4\n",
}

# problem documents for solve
PROBLEMS = {
    # the README's, on a coarser grid
    "solve_readme.json": {
        "target": {"alpha": 0.6, "beta": 0.8, "phi": 0.5},
        "free_parameters": {"delta_tau": [30, 200]},
        "leak_weight": 1.0,
        "base": {"alpha": 0.3, "delta_tau": 45},
        "grid_points": 5,
    },
    "solve_box2.json": {
        "target": {"alpha": 0.6, "beta": 0.8, "phi": 0.5},
        "free_parameters": {"delta_tau": [30, 90], "ratio_omega": [0.6, 1.4]},
        "base": {"alpha": 1.0, "phi": 0.0},
        "grid_points": 3,
    },
    # delta_phase is pinned by its collapsed bound
    "solve_box3.json": {
        "target": {"alpha": 0.8, "beta": 0.6, "phi": 1.0},
        "free_parameters": {
            "delta_tau": [40, 80], "ratio_omega": [0.8, 1.2], "delta_phase": [0.5, 0.5],
        },
        "base": {"alpha": 1.0, "phi": 0.0},
        "grid_points": 3,
    },
    # the best grid point is the upper bound, so the simplex starts on it
    "solve_upper.json": {
        "target": {"alpha": 0.6, "beta": 0.8, "phi": 0.5},
        "free_parameters": {"ratio_omega": [0.5, 0.76]},
        "base": {"alpha": 1.0, "phi": 0.0},
        "grid_points": 3,
    },
}


def commands(inputs: Path) -> dict[str, list[str]]:
    """Output stem -> argv (without ``--out``), in the order they run."""
    cmds: dict[str, list[str]] = {}
    for name in ("fig2", "fig4", "fig7", "fig8", "fig9", "fig10", "fig11", "fig13"):
        cmds[f"simulate_{name}"] = ["simulate", "--preset", name]
    for name in ("fig7", "fig8", "fig9", "fig10"):
        cmds[f"adiabatic_{name}"] = ["simulate", "--preset", name, "--adiabatic"]
    for name in ("fig8", "fig9", "fig10"):
        cmds[f"twolevel_{name}"] = ["twolevel", "--preset", name]
    for name in ("fig2", "fig5", "fig11"):
        for points in (4, 5):
            argv = ["sweep", "--preset", name, "--grid-points", str(points)]
            cmds[f"sweep_{name}_{points}"] = argv
    for name in ("fig13", "fig7"):
        cmds[f"sweep_{name}_3"] = ["sweep", "--preset", name, "--grid-points", "3"]
    for name in CONFIGS:
        stem = name.removesuffix(".cfg")
        if stem.startswith("sweep_"):
            cmds[stem] = ["sweep", "--config", str(inputs / name)]
        else:
            cmds[f"simulate_{stem}"] = ["simulate", "--config", str(inputs / name)]
    cmds["stirap"] = ["stirap"]
    cmds["stirap_chop"] = ["stirap", "--chop", "0.7", "--alpha", "0.5"]
    cmds["stirap_flags"] = [
        "stirap", "--alpha", "0.6", "--beta", "0.8", "--separation", "1.5", "--scale", "12",
    ]
    for name in PROBLEMS:
        cmds[name.removesuffix(".json")] = ["solve", "--config", str(inputs / name)]
    # on two threads; each must equal its serial counterpart
    for stem in ("sweep_fig11_5", "solve_box2"):
        cmds[f"{stem}_workers2"] = [*cmds[stem], "--workers", "2"]
    return cmds


def write(outdir: Path) -> int:
    from qubitrot.cli import main

    inputs = outdir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    for name, text in CONFIGS.items():
        (inputs / name).write_text(text)
    for name, doc in PROBLEMS.items():
        (inputs / name).write_text(json.dumps(doc))
    cmds = commands(inputs)
    # a run read back from the manifest of an earlier one
    cmds["simulate_rerun"] = [
        "simulate", "--config", str(outdir / "simulate_pulse_phase.manifest.json"),
    ]
    for stem, argv in cmds.items():
        with contextlib.redirect_stdout(io.StringIO()):
            suffix = ".json" if argv[0] == "solve" else ".csv"
            code = main([*argv, "--out", str(outdir / f"{stem}{suffix}")])
        if code != 0:
            print(f"{stem}: exit code {code}", file=sys.stderr)
            return code
    print(f"wrote {len(cmds)} runs to {outdir}")
    return 0


def _value(text: str):
    """A CSV cell or comment value: the float it spells, else the text itself."""
    try:
        return float(text)
    except ValueError:
        return text


def _gap(a, b) -> float | None:
    """|a - b| of two numbers, 0 for equal values (NaNs included); None for
    any other mismatch."""
    if a == b:
        return 0.0
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
        return None
    if a != a and b != b:
        return 0.0
    gap = abs(a - b)
    return gap if gap == gap else math.inf


def _json_gaps(a, b, where: str, out: list) -> None:
    """Append (gap, where) for each leaf; gap None marks a non-numeric mismatch."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key in IGNORED_KEYS:
                continue
            if key not in a or key not in b:
                out.append((None, f"{where}.{key}"))
            else:
                _json_gaps(a[key], b[key], f"{where}.{key}", out)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for k, (x, y) in enumerate(zip(a, b)):
            _json_gaps(x, y, f"{where}[{k}]", out)
    else:
        gap = _gap(a, b)
        if gap != 0.0:
            out.append((gap, where))


def _csv_gaps(a: str, b: str, out: list) -> None:
    la, lb = a.splitlines(), b.splitlines()
    if len(la) != len(lb):
        out.append((None, f"{len(la)} against {len(lb)} lines"))
        return
    header: list[str] = []
    for n, (x, y) in enumerate(zip(la, lb), start=1):
        if x.startswith("#") or not header:
            if not x.startswith("#"):
                header = x.split(",")
            if x != y:
                key, _, vx = x.partition(" = ")
                out.append((_gap(_value(vx), _value(y.partition(" = ")[2])), f"line {n} {key}"))
            continue
        cx, cy = x.split(","), y.split(",")
        if len(cx) != len(cy):
            out.append((None, f"line {n}"))
            continue
        for col, u, v in zip(header, cx, cy):
            if u != v:
                out.append((_gap(_value(u), _value(v)), f"column {col}"))


def compare(a: Path, b: Path) -> str | None:
    """None if the files match, else a one-line account of the difference."""
    gaps: list = []
    if a.suffix == ".json":
        _json_gaps(json.loads(a.read_text()), json.loads(b.read_text()), "", gaps)
    else:
        _csv_gaps(a.read_text(), b.read_text(), gaps)
    if not gaps:
        return None
    text = [where for gap, where in gaps if gap is None]
    if text:
        return f"text differs at {text[0]} ({len(text)} places)"
    gap, where = max(gaps, key=lambda g: g[0])
    return f"largest difference {gap:.3g} at {where} ({len(gaps)} values differ)"


def diff(a: Path, b: Path) -> tuple[list[str], bool]:
    """Report lines for every file under ``a`` or ``b``, and whether all match."""
    names = sorted({p.relative_to(a) for p in a.rglob("*") if p.is_file()}
                   | {p.relative_to(b) for p in b.rglob("*") if p.is_file()})
    lines, same = [], True
    for name in names:
        pa, pb = a / name, b / name
        if not (pa.is_file() and pb.is_file()):
            note = f"only in {a if pa.is_file() else b}"
        elif pa.read_bytes() == pb.read_bytes():
            note = "identical bytes"
        else:
            note = compare(pa, pb) or "identical apart from wall time and paths"
        same = same and note.startswith("identical")
        lines.append(f"{name}: {note}")
    return lines, same


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="action", required=True)
    sub.add_parser("write").add_argument("dir", type=Path)
    p = sub.add_parser("diff")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.action == "write":
        return write(args.dir)
    lines, same = diff(args.a, args.b)
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(run())
