import json
import math
import runpy
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "golden_outputs.py"


def _write_run(root: Path, wall_time: float, last: float, command: str = "simulate") -> None:
    root.mkdir()
    (root / "run.csv").write_text(f"# command = {command}\nt,p\n0,0.25\n1,{last!r}\n")
    manifest = {"command": "simulate", "wall_time_s": wall_time, "output": str(root / "run.csv")}
    (root / "run.manifest.json").write_text(json.dumps(manifest))


def test_diff_ignores_wall_time_and_reports_one_ulp(tmp_path, capsys):
    ns = runpy.run_path(str(SCRIPT))
    a, b, c, d = (tmp_path / name for name in "abcd")
    _write_run(a, 0.5, 0.5)
    _write_run(b, 0.7, 0.5)
    _write_run(c, 0.5, math.nextafter(0.5, 1.0))
    _write_run(d, 0.5, 0.5, command="stirap")

    lines, same = ns["diff"](a, b)
    assert same
    assert lines == [
        "run.csv: identical bytes",
        "run.manifest.json: identical apart from wall time and paths",
    ]

    assert ns["run"](["diff", str(a), str(c)]) == 1
    out = capsys.readouterr().out
    assert "run.csv: largest difference 1.11e-16 at column p (1 values differ)" in out

    lines, same = ns["diff"](a, d)
    assert not same
    assert lines[0] == "run.csv: text differs at line 1 # command (1 places)"
