"""Every demo script runs to completion from a scratch directory and prints
exactly what it printed when its output was recorded (sha256 of stdout)."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

STDOUT_DIGESTS = {
    "01_graph_basics": "6d5ffa828583c1f1bdec2b413d9ed669cd7c525343fef987247a5df80af2ebae",
    "02_coverage_curves": "4e84b0ca62660572bd78126359c9850f08c315c243f920475fb56e3de4cdea32",
    "03_walker_crossing": "80205e1e7c0348094f6e1c1bfa2020177e93f225e1abfd54a90f6539ed3e487a",
    "04_route_discovery": "ca87d872bc0e9165221c669d839340621cd6f12e64633d3e94e258494bc7de28",
}


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_DIGESTS[demo.stem], proc.stdout
