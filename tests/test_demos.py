"""The narrative demos run end to end against the public API."""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, written", [
    ("01_threshold_time_series.py",
     [f"{name}_ic{i}.csv" for name in ("persistent", "extinct") for i in range(3)]
     + ["persistent.svg", "extinct.svg"]),
    ("02_reproduction_number.py", ["rho_curve.svg"]),
    ("03_limit_cycle.py", ["cycle_iv.svg", "cycle_tv.svg", "cycle_ev.svg"]),
])
def test_demo_runs_and_writes_its_files(tmp_path, script, written):
    # a demo writes to the output directory next to itself, so run a copy
    copy = tmp_path / script
    shutil.copy(ROOT / "demos" / script, copy)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(copy)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in (tmp_path / "output").iterdir()) == sorted(written)
