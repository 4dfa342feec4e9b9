"""The runnable experiments under scripts/ run end to end on small inputs,
so an API change in cstrack that breaks them fails the suite."""

import json
import pathlib
import subprocess
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *argv):
    """Run one script in a child interpreter; each script puts this
    checkout's src on its own import path."""
    return subprocess.run([sys.executable, str(SCRIPTS / name), *map(str, argv)],
                          capture_output=True, text=True, timeout=300)


def test_make_harbor_demo_writes_the_demo_world(tmp_path):
    out = run_script("make_harbor_demo.py", "--out-dir", tmp_path)
    assert out.returncode == 0, out.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "harbor.geojson", "marine.cst", "perturbations.json",
    ]
    assert json.loads((tmp_path / "harbor.geojson").read_text())["features"]
    assert "constitution" in (tmp_path / "marine.cst").read_text()


def test_corridor_ablation_writes_report_and_runs(tmp_path):
    out = run_script("run_corridor_ablation.py", "--n-seeds", 1, "--steps", 5,
                     "--particles", 50, "--out-dir", tmp_path)
    assert out.returncode == 0, out.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "runs.csv"]
    report = json.loads((tmp_path / "report.json").read_text())
    # 3 agents x 1 seed x 5 trust ratios, one row each in both files.
    assert len(report["per_run"]) == 15
    assert sorted(report["aggregate"]) == ["0.0", "0.25", "0.5", "0.75", "1.0"]
    assert len((tmp_path / "runs.csv").read_text().splitlines()) == 1 + 15
